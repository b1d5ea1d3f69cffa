//! The one front door for every run: a validated, typed experiment
//! configuration around any [`Program`].
//!
//! The paper's evaluation (§4) is a grid of *scenarios* — workload × vproc
//! count × allocation policy × heap geometry × backend. [`Experiment`] makes
//! that grid the API: pick a program, chain the dimensions you care about,
//! and [`Experiment::run`] validates the combination (into a typed
//! [`ConfigError`] instead of a mid-run panic), applies the `MGC_*`
//! environment overrides, builds the backend, and returns a [`RunRecord`] —
//! the single result format shared by the sweep JSON, the CI perf baseline,
//! and the cross-backend equivalence suite.
//!
//! # Environment overrides
//!
//! This is the **one place** the `MGC_*` variables are applied (they are
//! *parsed* in [`crate::env`]): `MGC_BACKEND` supplies the backend,
//! `MGC_VPROCS` the vproc count, `MGC_PLACEMENT` the promotion-chunk
//! placement, and `MGC_PAUSE_BUDGET_US` the global-collection pause budget
//! **when the builder left them unset** — an explicit
//! [`Experiment::backend`], [`Experiment::vprocs`],
//! [`Experiment::placement`], or [`Experiment::gc_pause_budget`] call always
//! wins, so programmatic sweeps are immune to ambient configuration.
//! (`MGC_MAX_ROUNDS` is read by the simulated [`Machine`] itself when it is
//! built, since it also applies to machines constructed without an
//! experiment.)
//!
//! # Example
//!
//! ```
//! use mgc_runtime::{Backend, Experiment, Program, Executor, TaskResult, TaskSpec};
//! use mgc_heap::i64_to_word;
//!
//! struct Double(i64);
//!
//! impl Program for Double {
//!     fn name(&self) -> &str {
//!         "double"
//!     }
//!     fn spawn(&self, executor: &mut dyn Executor) {
//!         let n = self.0;
//!         executor.spawn_root(TaskSpec::new("double", move |_ctx| {
//!             TaskResult::Value(i64_to_word(n * 2))
//!         }));
//!     }
//! }
//!
//! let record = Experiment::new(Double(21))
//!     .vprocs(2)
//!     .backend(Backend::Simulated)
//!     .run()
//!     .expect("two vprocs fit the test topology");
//! assert_eq!(record.result.map(|(word, _)| word as i64), Some(42));
//! assert!(record.simulated_ns().unwrap() > 0.0);
//! ```

use crate::channel::ChannelStats;
use crate::env::EnvOverrides;
use crate::executor::{Backend, Executor};
use crate::machine::{Machine, MachineConfig, MutatorCostModel};
use crate::program::Program;
use crate::stats::RunReport;
use crate::threaded::ThreadedMachine;
use mgc_core::GcConfig;
use mgc_heap::{HeapConfig, Word};
use mgc_numa::{AllocPolicy, PlacementPolicy, Topology};
use std::fmt::Write as _;

/// The scheduling quantum experiments default to, in virtual nanoseconds.
///
/// Finer than the raw [`MachineConfig::new`] default so that scaled-down
/// benchmark inputs still spread across many vprocs instead of completing
/// inside a single vproc's first quantum.
pub const DEFAULT_QUANTUM_NS: f64 = 25_000.0;

/// Why an experiment configuration was rejected by validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The resolved vproc count was zero.
    ZeroVprocs,
    /// More vprocs were requested than the topology has cores.
    VprocsExceedTopology {
        /// Requested vproc count.
        vprocs: usize,
        /// Cores the topology actually has.
        cores: usize,
    },
    /// The heap geometry is too small to hold any real program (see
    /// [`mgc_heap::HeapGeometry::validate`]).
    DegenerateHeap {
        /// Which [`HeapConfig`] field is degenerate.
        field: &'static str,
        /// The rejected value.
        bytes: usize,
        /// The smallest accepted value.
        min: usize,
    },
    /// A heap-geometry field that feeds address arithmetic (the per-node
    /// span shift) is not a power of two.
    NonPowerOfTwoGeometry {
        /// Which [`HeapConfig`] field is crooked.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
    },
    /// A heap-geometry field exceeds its hard ceiling (the per-node span
    /// must keep `GLOBAL_BASE + node * span + offset` inside a `u64`).
    ExcessiveHeapGeometry {
        /// Which [`HeapConfig`] field overflows.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
        /// The largest accepted value.
        max: u64,
    },
    /// The scheduling quantum is zero, negative, or not finite.
    NonPositiveQuantum {
        /// The rejected value.
        quantum_ns: f64,
    },
    /// The global-collection pause budget is zero (a zero budget would mean
    /// "never do any collection work", which can only deadlock; unbounded
    /// pauses are spelled by not setting a budget at all).
    NonPositivePauseBudget {
        /// The rejected value, in microseconds.
        budget_us: u64,
    },
    /// A serving program's run duration resolved to zero seconds (nothing
    /// would be served).
    ZeroServeSeconds,
    /// A serving program's open-loop arrival rate resolved to zero requests
    /// per second (the generator would never emit a request).
    ZeroServeRps,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroVprocs => write!(f, "at least one vproc is required"),
            ConfigError::VprocsExceedTopology { vprocs, cores } => write!(
                f,
                "{vprocs} vprocs requested but the topology has only {cores} cores \
                 (vprocs are pinned one per core)"
            ),
            ConfigError::DegenerateHeap { field, bytes, min } => write!(
                f,
                "degenerate heap geometry: {field} = {bytes} bytes is below the minimum of {min}"
            ),
            ConfigError::NonPowerOfTwoGeometry { field, bytes } => write!(
                f,
                "degenerate heap geometry: {field} = {bytes} bytes must be a power of two"
            ),
            ConfigError::ExcessiveHeapGeometry { field, bytes, max } => write!(
                f,
                "degenerate heap geometry: {field} = {bytes} bytes exceeds the maximum of {max}"
            ),
            ConfigError::NonPositiveQuantum { quantum_ns } => write!(
                f,
                "the scheduling quantum must be positive and finite, got {quantum_ns} ns"
            ),
            ConfigError::NonPositivePauseBudget { budget_us } => write!(
                f,
                "the GC pause budget must be positive, got {budget_us} us \
                 (leave it unset for unbounded pauses)"
            ),
            ConfigError::ZeroServeSeconds => write!(
                f,
                "a serving program's duration must be a positive number of seconds"
            ),
            ConfigError::ZeroServeRps => write!(
                f,
                "a serving program's arrival rate must be a positive number of requests \
                 per second"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<mgc_heap::GeometryViolation> for ConfigError {
    fn from(violation: mgc_heap::GeometryViolation) -> Self {
        use mgc_heap::GeometryViolation;
        match violation {
            GeometryViolation::BelowMinimum { field, bytes, min } => ConfigError::DegenerateHeap {
                field,
                bytes: bytes as usize,
                min: min as usize,
            },
            GeometryViolation::NotPowerOfTwo { field, bytes } => {
                ConfigError::NonPowerOfTwoGeometry { field, bytes }
            }
            GeometryViolation::AboveMaximum { field, bytes, max } => {
                ConfigError::ExcessiveHeapGeometry { field, bytes, max }
            }
        }
    }
}

/// A validated experiment configuration: the backend plus the fully resolved
/// [`MachineConfig`]. Produced by [`Experiment::validate`]; useful on its
/// own when a test needs direct access to the built machine (e.g. to verify
/// the heap after the run).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The backend the experiment will run on.
    pub backend: Backend,
    /// The resolved machine configuration (topology, vprocs, heap geometry,
    /// collector settings, cost model, quantum).
    pub machine: MachineConfig,
}

impl ExperimentConfig {
    /// Builds an executor of the configured backend.
    fn build_executor(&self) -> Box<dyn Executor> {
        match self.backend {
            Backend::Simulated => Box::new(Machine::new(self.machine.clone())),
            Backend::Threaded => Box::new(ThreadedMachine::new(self.machine.clone())),
        }
    }
}

/// Builder for one run of a [`Program`]: scenario dimensions in, validated
/// [`RunRecord`] out. Unset dimensions fall back to the `MGC_*` environment
/// overrides (backend, vprocs) and then to the documented defaults — see
/// [`Experiment::new`].
pub struct Experiment<P: Program> {
    program: P,
    topology: Option<Topology>,
    vprocs: Option<usize>,
    policy: Option<AllocPolicy>,
    placement: Option<PlacementPolicy>,
    backend: Option<Backend>,
    heap: Option<HeapConfig>,
    gc: Option<GcConfig>,
    pause_budget_us: Option<u64>,
    quantum_ns: Option<f64>,
    env: Option<EnvOverrides>,
    verify_checksum: bool,
}

impl<P: Program> std::fmt::Debug for Experiment<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("program", &self.program.name())
            .field("topology", &self.topology.as_ref().map(Topology::name))
            .field("vprocs", &self.vprocs)
            .field("policy", &self.policy)
            .field("placement", &self.placement)
            .field("backend", &self.backend)
            .field("quantum_ns", &self.quantum_ns)
            .finish_non_exhaustive()
    }
}

impl<P: Program> Experiment<P> {
    /// Starts an experiment around `program` with every dimension at its
    /// default: the two-node test topology, one vproc, local allocation, the
    /// default heap/collector configuration, [`DEFAULT_QUANTUM_NS`], and the
    /// simulated backend — each of which the `MGC_*` overrides or the
    /// builder methods below may change.
    pub fn new(program: P) -> Self {
        Experiment {
            program,
            topology: None,
            vprocs: None,
            policy: None,
            placement: None,
            backend: None,
            heap: None,
            gc: None,
            pause_budget_us: None,
            quantum_ns: None,
            env: None,
            verify_checksum: true,
        }
    }

    /// Sets the machine topology (e.g. [`Topology::amd_magny_cours_48`]).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the number of vprocs. Overrides `MGC_VPROCS`.
    pub fn vprocs(mut self, vprocs: usize) -> Self {
        self.vprocs = Some(vprocs);
        self
    }

    /// Sets the physical page/chunk placement policy (§4.3 of the paper).
    /// Takes precedence over the policy inside a [`Experiment::heap`]
    /// configuration.
    pub fn policy(mut self, policy: AllocPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the promotion-chunk NUMA placement policy: which node's pool
    /// the chunks receiving promoted objects are leased from (`NodeLocal`
    /// targets the consumer — the thief's node at a steal handoff;
    /// `Interleave` round-robins; `FirstTouch` targets the promoting
    /// worker). Overrides `MGC_PLACEMENT`.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Sets the execution backend. Overrides `MGC_BACKEND`.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the heap geometry.
    pub fn heap(mut self, heap: HeapConfig) -> Self {
        self.heap = Some(heap);
        self
    }

    /// Sets the collector configuration.
    pub fn gc(mut self, gc: GcConfig) -> Self {
        self.gc = Some(gc);
        self
    }

    /// Caps each global-collection pause at a soft budget of `budget_us`
    /// microseconds: the collection runs as a sequence of bounded increments
    /// instead of one stop-the-world phase. Takes precedence over the budget
    /// inside an [`Experiment::gc`] configuration and over
    /// `MGC_PAUSE_BUDGET_US`. A zero budget is rejected by
    /// [`Experiment::validate`] with [`ConfigError::NonPositivePauseBudget`].
    pub fn gc_pause_budget(mut self, budget_us: u64) -> Self {
        self.pause_budget_us = Some(budget_us);
        self
    }

    /// Sets the scheduling quantum in virtual nanoseconds.
    pub fn quantum_ns(mut self, quantum_ns: f64) -> Self {
        self.quantum_ns = Some(quantum_ns);
        self
    }

    /// Supplies the environment overrides explicitly instead of capturing
    /// them from the process environment — tests use this to pin behaviour
    /// without mutating process-global state.
    pub fn env_overrides(mut self, env: EnvOverrides) -> Self {
        self.env = Some(env);
        self
    }

    /// Whether to check the result against [`Program::expected_checksum`]
    /// after the run (the default). Computing the expected value usually
    /// means running a *sequential* reference of the whole program, so a hot
    /// path that only reads timings — the figure pipeline — passes `false`
    /// to skip it; `checksum_ok` is then `None`.
    pub fn verify_checksum(mut self, verify: bool) -> Self {
        self.verify_checksum = verify;
        self
    }

    /// Resolves defaults and environment overrides, then validates the
    /// configuration into a typed error instead of a mid-run panic.
    pub fn validate(&self) -> Result<ExperimentConfig, ConfigError> {
        let env = self.env.unwrap_or_else(EnvOverrides::capture);
        let backend = self.backend.or(env.backend).unwrap_or(Backend::Simulated);
        let vprocs = self.vprocs.or(env.vprocs).unwrap_or(1);
        let placement = self.placement.or(env.placement).unwrap_or_default();
        let topology = self
            .topology
            .clone()
            .unwrap_or_else(Topology::dual_node_test);
        let mut heap = self.heap.unwrap_or_default();
        if let Some(policy) = self.policy {
            heap.policy = policy;
        }
        let quantum_ns = self.quantum_ns.unwrap_or(DEFAULT_QUANTUM_NS);

        if vprocs == 0 {
            return Err(ConfigError::ZeroVprocs);
        }
        let cores = topology.num_cores();
        if vprocs > cores {
            return Err(ConfigError::VprocsExceedTopology { vprocs, cores });
        }
        heap.geometry().validate().map_err(ConfigError::from)?;
        if !quantum_ns.is_finite() || quantum_ns <= 0.0 {
            return Err(ConfigError::NonPositiveQuantum { quantum_ns });
        }

        let mut gc = self.gc.unwrap_or_default();
        if let Some(budget_us) = self.pause_budget_us {
            gc.pause_budget_us = Some(budget_us);
        }
        if gc.pause_budget_us.is_none() {
            gc.pause_budget_us = env.pause_budget_us;
        }
        if let Some(0) = gc.pause_budget_us {
            return Err(ConfigError::NonPositivePauseBudget { budget_us: 0 });
        }

        Ok(ExperimentConfig {
            backend,
            machine: MachineConfig {
                topology,
                num_vprocs: vprocs,
                heap,
                placement,
                gc,
                mutator_costs: MutatorCostModel::default(),
                quantum_ns,
            },
        })
    }

    /// Validates, builds the backend, spawns the program, runs it to
    /// completion, and packages everything into a [`RunRecord`].
    pub fn run(self) -> Result<RunRecord, ConfigError> {
        let config = self.validate()?;
        let mut executor = config.build_executor();
        self.program.spawn(&mut *executor);
        let report = executor.run();
        let result = executor.take_result();
        let channels = executor.channel_stats();
        // A pointer result is a heap address, not the checksum value itself
        // — comparing it against an expected checksum would be meaningless,
        // so pointer results stay unverified (`None`).
        let checksum_ok = if self.verify_checksum {
            match (self.program.expected_checksum(), result) {
                (Some(expected), Some((word, false))) => Some(expected.matches(word)),
                (Some(_), Some((_, true))) => None,
                (Some(_), None) => Some(false),
                (None, _) => None,
            }
        } else {
            None
        };
        Ok(RunRecord {
            program: self.program.name().to_string(),
            params: self.program.params_json(),
            backend: config.backend,
            config: config.machine,
            result,
            checksum_ok,
            channels,
            report,
        })
    }
}

/// Version of the flat JSON object emitted by [`RunRecord::to_json`],
/// carried in every record as its leading `schema_version` field. Records
/// that predate the field (the flat baselines written before the results
/// store existed) are implicitly version 1; the store's ingest accepts
/// exactly the versions it knows how to read and rejects anything else with
/// a typed error naming the field. Bump this when a field is added, removed,
/// or changes meaning.
pub const RUN_RECORD_SCHEMA_VERSION: u64 = 3;

/// The complete, self-describing result of one experiment run: the resolved
/// configuration, the program identity, the root result, and the full
/// [`RunReport`]. This is the one output format shared by the results
/// store's batches, the equivalence suite, and the CI sweep jobs.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The program's name ([`Program::name`]).
    pub program: String,
    /// The program's parameters as a JSON object ([`Program::params_json`]).
    pub params: String,
    /// The backend the run executed on.
    pub backend: Backend,
    /// The fully resolved machine configuration the run used.
    pub config: MachineConfig,
    /// The root task's result: the raw word and whether it is a heap
    /// pointer.
    pub result: Option<(Word, bool)>,
    /// Whether the result matched the program's expected checksum (`None`
    /// when the program declares no expectation).
    pub checksum_ok: Option<bool>,
    /// Channel and proxy statistics of the run.
    pub channels: ChannelStats,
    /// The full run report (timings, per-vproc stats, GC stats, traffic).
    pub report: RunReport,
}

impl RunRecord {
    /// Measured wall-clock nanoseconds (threaded backend only).
    pub fn wall_clock_ns(&self) -> Option<f64> {
        self.report.wall_clock_ns
    }

    /// Modelled virtual nanoseconds (simulated backend only).
    pub fn simulated_ns(&self) -> Option<f64> {
        match self.backend {
            Backend::Simulated => Some(self.report.elapsed_ns),
            Backend::Threaded => None,
        }
    }

    /// Serialises the record as one JSON object. This is the schema the CI
    /// bench-baseline job asserts on; every key is declared exactly once in
    /// the `JsonFields` calls below, so the emitted schema cannot drift
    /// from the field list.
    pub fn to_json(&self) -> String {
        let pauses = self.report.pause_stats();
        let mut json = JsonFields::new();
        json.raw("schema_version", RUN_RECORD_SCHEMA_VERSION);
        json.string("program", &self.program);
        json.raw("params", &self.params);
        json.string("backend", self.backend);
        json.raw("vprocs", self.config.num_vprocs);
        json.string("topology", self.config.topology.name());
        json.string("policy", self.config.heap.policy);
        json.string("placement", self.config.placement);
        json.raw("chunk_size_bytes", self.config.heap.chunk_size_bytes);
        json.raw("local_heap_bytes", self.config.heap.local_heap_bytes);
        json.ns("quantum_ns", self.config.quantum_ns);
        json.raw("eager_publication", self.config.gc.eager_publication);
        json.opt_ns("wall_clock_ns", self.wall_clock_ns());
        json.opt_ns("simulated_ns", self.simulated_ns());
        match self.result {
            Some((word, _)) => json.raw("checksum", format_args!("\"{word:#x}\"")),
            None => json.raw("checksum", "null"),
        }
        match self.checksum_ok {
            Some(ok) => json.raw("checksum_ok", ok),
            None => json.raw("checksum_ok", "null"),
        }
        json.raw("tasks", self.report.total_tasks());
        json.raw("allocated_objects", self.report.allocated_objects);
        json.raw("minor_collections", self.report.gc.minor_collections);
        json.raw("major_collections", self.report.gc.major_collections);
        json.raw("global_collections", self.report.gc.global_collections);
        json.raw("promotions", self.report.gc.promotions);
        json.raw("steals", self.report.total_steals());
        json.raw("steals_same_node", self.report.steals_same_node());
        json.raw("steals_cross_node", self.report.steals_cross_node());
        json.raw("promoted_bytes", self.report.total_promoted_bytes());
        json.raw("promoted_bytes_local", self.report.promoted_bytes_local());
        json.raw("promoted_bytes_remote", self.report.promoted_bytes_remote());
        json.raw("promotions_at_steal", self.report.promotions_at_steal());
        json.raw("promotions_at_publish", self.report.promotions_at_publish());
        json.raw("channel_sends", self.channels.sends);
        json.raw("channel_receives", self.channels.receives);
        match self.config.gc.pause_budget_us {
            Some(us) => json.raw("pause_budget_us", us),
            None => json.raw("pause_budget_us", "null"),
        }
        json.raw("pause_count", pauses.count);
        json.ns("pause_max_ns", pauses.max_ns);
        json.ns("pause_p50_ns", pauses.percentile(50.0));
        json.ns("pause_p99_ns", pauses.percentile(99.0));
        json.ns(
            "global_pause_max_ns",
            self.report.global_pause_stats().max_ns,
        );
        let latency = self.report.latency_stats();
        json.raw("requests_served", self.report.requests_served());
        json.raw(
            "throughput_rps",
            format_args!("{:.3}", self.report.throughput_rps()),
        );
        json.ns("latency_p50_ns", latency.percentile(50.0));
        json.ns("latency_p99_ns", latency.percentile(99.0));
        json.ns("latency_p999_ns", latency.percentile(99.9));
        json.ns("latency_max_ns", latency.max_ns);
        json.finish()
    }
}

/// Builds the flat JSON object behind [`RunRecord::to_json`]: callers add
/// `"key": value` pairs one at a time and the separators are handled here,
/// so a field can neither lose its key nor desync from its neighbours.
struct JsonFields {
    out: String,
}

impl JsonFields {
    fn new() -> Self {
        JsonFields {
            out: String::from("{"),
        }
    }

    /// Appends `"key": value` with `value` already valid JSON (numbers,
    /// booleans, `null`, or pre-serialised objects).
    fn raw(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.out.len() > 1 {
            self.out.push_str(", ");
        }
        let _ = write!(self.out, "\"{key}\": {value}");
    }

    /// Appends a JSON string field, escaping the rendered value.
    fn string(&mut self, key: &str, value: impl std::fmt::Display) {
        self.raw(key, format_args!("\"{}\"", escape_json(&value.to_string())));
    }

    /// Appends a nanosecond-scale quantity rounded to whole units.
    fn ns(&mut self, key: &str, value: f64) {
        self.raw(key, format_args!("{value:.0}"));
    }

    /// Appends an optional nanosecond-scale quantity (`null` when absent).
    fn opt_ns(&mut self, key: &str, value: Option<f64>) {
        match value {
            Some(v) => self.ns(key, v),
            None => self.raw(key, "null"),
        }
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Escapes a string for inclusion inside JSON double quotes.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Checksum;
    use crate::task::{TaskResult, TaskSpec};
    use mgc_heap::i64_to_word;

    /// A minimal program: one root task returning a constant.
    struct Constant(i64);

    impl Program for Constant {
        fn name(&self) -> &str {
            "constant"
        }

        fn spawn(&self, executor: &mut dyn Executor) {
            let value = self.0;
            executor.spawn_root(TaskSpec::new("constant", move |ctx| {
                ctx.work(10);
                TaskResult::Value(i64_to_word(value))
            }));
        }

        fn expected_checksum(&self) -> Option<Checksum> {
            Some(Checksum::I64(self.0))
        }

        fn params_json(&self) -> String {
            format!("{{\"value\": {}}}", self.0)
        }
    }

    fn pinned(program: Constant) -> Experiment<Constant> {
        // Pin the environment so ambient MGC_* variables cannot skew the
        // validation tests.
        Experiment::new(program).env_overrides(EnvOverrides::default())
    }

    #[test]
    fn zero_vprocs_is_a_typed_error() {
        let err = pinned(Constant(1)).vprocs(0).validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroVprocs);
        assert!(err.to_string().contains("at least one vproc"));
    }

    #[test]
    fn vprocs_beyond_topology_capacity_are_rejected() {
        // The dual-node test topology has 4 cores.
        let err = pinned(Constant(1)).vprocs(5).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::VprocsExceedTopology {
                vprocs: 5,
                cores: 4
            }
        );
        assert!(err.to_string().contains("only 4 cores"));
    }

    #[test]
    fn degenerate_chunk_size_is_rejected() {
        let heap = HeapConfig {
            chunk_size_bytes: 64,
            ..HeapConfig::small_for_tests()
        };
        let err = pinned(Constant(1)).heap(heap).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::DegenerateHeap {
                field: "chunk_size_bytes",
                bytes: 64,
                min: 1024
            }
        );
    }

    #[test]
    fn degenerate_local_heap_is_rejected() {
        let heap = HeapConfig {
            local_heap_bytes: 512,
            ..HeapConfig::small_for_tests()
        };
        let err = pinned(Constant(1)).heap(heap).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::DegenerateHeap {
                field: "local_heap_bytes",
                bytes: 512,
                min: 4096
            }
        );
        assert!(err.to_string().contains("degenerate heap geometry"));
    }

    #[test]
    fn crooked_node_span_is_rejected() {
        // Not a power of two: the addr→node shift would be meaningless.
        let heap = HeapConfig {
            node_span_bytes: (1 << 30) + 512,
            ..HeapConfig::small_for_tests()
        };
        let err = pinned(Constant(1)).heap(heap).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::NonPowerOfTwoGeometry {
                field: "node_span_bytes",
                bytes: (1 << 30) + 512,
            }
        );
        assert!(err.to_string().contains("power of two"));

        // Above the ceiling: band arithmetic would overflow u64.
        let heap = HeapConfig {
            node_span_bytes: 1 << 50,
            ..HeapConfig::small_for_tests()
        };
        let err = pinned(Constant(1)).heap(heap).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::ExcessiveHeapGeometry {
                field: "node_span_bytes",
                bytes: 1 << 50,
                max: 1 << mgc_heap::MAX_NODE_SPAN_SHIFT,
            }
        );
        assert!(err.to_string().contains("exceeds the maximum"));

        // Below one chunk: the band could never map anything.
        let heap = HeapConfig {
            node_span_bytes: 1024,
            ..HeapConfig::small_for_tests()
        };
        let err = pinned(Constant(1)).heap(heap).validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::DegenerateHeap {
                field: "node_span_bytes",
                bytes: 1024,
                min: 4096,
            }
        );
    }

    #[test]
    fn non_positive_quantum_is_rejected() {
        let err = pinned(Constant(1)).quantum_ns(0.0).validate().unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveQuantum { quantum_ns: 0.0 });
        let err = pinned(Constant(1))
            .quantum_ns(f64::NAN)
            .validate()
            .unwrap_err();
        assert!(matches!(err, ConfigError::NonPositiveQuantum { .. }));
    }

    #[test]
    fn defaults_resolve_to_the_documented_values() {
        let config = pinned(Constant(1)).validate().expect("defaults are valid");
        assert_eq!(config.backend, Backend::Simulated);
        assert_eq!(config.machine.num_vprocs, 1);
        assert_eq!(config.machine.topology.name(), "test-dual-node");
        assert_eq!(config.machine.heap.policy, AllocPolicy::Local);
        assert_eq!(config.machine.placement, PlacementPolicy::NodeLocal);
        assert_eq!(config.machine.quantum_ns, DEFAULT_QUANTUM_NS);
    }

    #[test]
    fn env_overrides_fill_unset_dimensions_only() {
        let env = EnvOverrides {
            backend: Some(Backend::Threaded),
            vprocs: Some(3),
            placement: Some(PlacementPolicy::Interleave),
            max_rounds: None,
            pause_budget_us: Some(500),
        };
        let config = Experiment::new(Constant(1))
            .env_overrides(env)
            .validate()
            .expect("env values are valid");
        assert_eq!(config.backend, Backend::Threaded);
        assert_eq!(config.machine.num_vprocs, 3);
        assert_eq!(config.machine.placement, PlacementPolicy::Interleave);
        assert_eq!(config.machine.gc.pause_budget_us, Some(500));

        // Explicit builder calls always beat the environment.
        let config = Experiment::new(Constant(1))
            .env_overrides(env)
            .backend(Backend::Simulated)
            .vprocs(2)
            .placement(PlacementPolicy::FirstTouch)
            .gc_pause_budget(125)
            .validate()
            .expect("explicit values are valid");
        assert_eq!(config.backend, Backend::Simulated);
        assert_eq!(config.machine.num_vprocs, 2);
        assert_eq!(config.machine.placement, PlacementPolicy::FirstTouch);
        assert_eq!(config.machine.gc.pause_budget_us, Some(125));
    }

    #[test]
    fn pause_budget_resolution_and_validation() {
        // Unset everywhere: the resolved config stays unbounded.
        let config = pinned(Constant(1)).validate().unwrap();
        assert_eq!(config.machine.gc.pause_budget_us, None);

        // The builder knob beats a budget carried inside a GcConfig.
        let gc = GcConfig {
            pause_budget_us: Some(1_000),
            ..GcConfig::small_for_tests()
        };
        let config = pinned(Constant(1))
            .gc(gc)
            .gc_pause_budget(250)
            .validate()
            .unwrap();
        assert_eq!(config.machine.gc.pause_budget_us, Some(250));

        // Without the builder knob the GcConfig budget survives.
        let config = pinned(Constant(1)).gc(gc).validate().unwrap();
        assert_eq!(config.machine.gc.pause_budget_us, Some(1_000));

        // A zero budget is a typed error, not a silent hang.
        let err = pinned(Constant(1))
            .gc_pause_budget(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::NonPositivePauseBudget { budget_us: 0 });
        assert!(err.to_string().contains("pause budget"));
    }

    #[test]
    fn policy_setter_overrides_heap_config_policy() {
        let heap = HeapConfig {
            policy: AllocPolicy::Interleaved,
            ..HeapConfig::default()
        };
        let config = pinned(Constant(1))
            .heap(heap)
            .policy(AllocPolicy::SocketZero)
            .validate()
            .unwrap();
        assert_eq!(config.machine.heap.policy, AllocPolicy::SocketZero);

        // Without the explicit policy call the heap's own policy survives.
        let config = pinned(Constant(1)).heap(heap).validate().unwrap();
        assert_eq!(config.machine.heap.policy, AllocPolicy::Interleaved);
    }

    #[test]
    fn run_produces_a_checked_record() {
        let record = pinned(Constant(17))
            .vprocs(2)
            .run()
            .expect("the configuration is valid");
        assert_eq!(record.program, "constant");
        assert_eq!(record.result, Some((i64_to_word(17), false)));
        assert_eq!(record.checksum_ok, Some(true));
        assert_eq!(record.backend, Backend::Simulated);
        assert!(record.simulated_ns().unwrap() > 0.0);
        assert_eq!(record.wall_clock_ns(), None);
        assert_eq!(record.report.total_tasks(), 1);
    }

    #[test]
    fn verify_checksum_false_skips_the_reference() {
        let record = pinned(Constant(17))
            .verify_checksum(false)
            .run()
            .expect("the configuration is valid");
        assert_eq!(record.result, Some((i64_to_word(17), false)));
        assert_eq!(record.checksum_ok, None);
    }

    #[test]
    fn pointer_results_are_not_compared_against_checksums() {
        /// Returns a heap pointer as its root result while declaring a
        /// value-level expectation: the pointer's address must not be
        /// compared against it.
        struct PointerResult;

        impl Program for PointerResult {
            fn name(&self) -> &str {
                "pointer-result"
            }

            fn spawn(&self, executor: &mut dyn Executor) {
                executor.spawn_root(TaskSpec::new("pointer-result", |ctx| {
                    let obj = ctx.alloc_raw(&[i64_to_word(9)]);
                    TaskResult::Ptr(obj)
                }));
            }

            fn expected_checksum(&self) -> Option<Checksum> {
                Some(Checksum::I64(9))
            }
        }

        let record = Experiment::new(PointerResult)
            .env_overrides(EnvOverrides::default())
            .run()
            .expect("the configuration is valid");
        let (_, is_ptr) = record.result.expect("a pointer result is produced");
        assert!(is_ptr);
        assert_eq!(
            record.checksum_ok, None,
            "a heap address must never be checked against a value checksum"
        );
    }

    #[test]
    fn record_json_carries_the_schema_fields() {
        let record = pinned(Constant(5)).run().unwrap();
        let json = record.to_json();
        for key in [
            "\"schema_version\": 3",
            "\"program\": \"constant\"",
            "\"params\": {\"value\": 5}",
            "\"backend\": \"simulated\"",
            "\"vprocs\": 1",
            "\"topology\": \"test-dual-node\"",
            "\"policy\": \"local\"",
            "\"placement\": \"node-local\"",
            "\"quantum_ns\": 25000",
            "\"wall_clock_ns\": null",
            "\"simulated_ns\": ",
            "\"checksum_ok\": true",
            "\"tasks\": 1",
            "\"promoted_bytes\": ",
            "\"promoted_bytes_local\": ",
            "\"promoted_bytes_remote\": ",
            "\"steals_same_node\": ",
            "\"steals_cross_node\": ",
            "\"promotions_at_steal\": ",
            "\"promotions_at_publish\": ",
            "\"pause_budget_us\": null",
            "\"pause_count\": ",
            "\"pause_max_ns\": ",
            "\"pause_p50_ns\": ",
            "\"pause_p99_ns\": ",
            "\"global_pause_max_ns\": ",
            "\"requests_served\": 0",
            "\"throughput_rps\": 0.000",
            "\"latency_p50_ns\": 0",
            "\"latency_p99_ns\": 0",
            "\"latency_p999_ns\": 0",
            "\"latency_max_ns\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn record_json_echoes_the_pause_budget() {
        let record = pinned(Constant(5)).gc_pause_budget(250).run().unwrap();
        let json = record.to_json();
        assert!(
            json.contains("\"pause_budget_us\": 250"),
            "budget missing from {json}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("line\nbreak"), "line\\nbreak");
    }
}
