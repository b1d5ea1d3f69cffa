//! The measuring side: runs cells as child processes, round-robin, and
//! turns what they report into the end-to-end and per-layer metrics.
//!
//! Every cell repetition is a fresh child process of this binary, so a
//! cell's peak resident set is its own and a hang is one cell's timeout, not
//! a stuck benchmark. Rounds are interleaved — each round runs the base cell
//! then the primary cell — because the shared host drifts over minutes and
//! block-wise repetition would bake that drift into one cell. A metric is
//! the median over rounds of the per-repetition value; percentiles are taken
//! per repetition, never pooled, so one stalled repetition cannot move them.

use crate::cell::{outcome_from_json, CellOutcome};
use crate::json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::params::{cell_spec, CellSpec, Role, WorkloadId};
use crate::spans::{span_from_json, Span, Tracer};
use crate::stats::{at_or_above_ppm, median, percentile_interp};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// A child that has not finished by then is killed and counted as failed.
pub const CELL_TIMEOUT: Duration = Duration::from_secs(120);

/// A cell (or the probe process) that did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Which child (`sort-promote/2v`, `probes`).
    pub cell: String,
    /// Timed out, exit status, unparsable output, or a failed check.
    pub reason: String,
    /// The last lines the child wrote to standard error.
    pub stderr_tail: String,
}

/// One child that ran to a clean exit.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to exit.
    pub elapsed_ns: f64,
    /// Everything it printed.
    pub stdout: String,
    /// The last lines of its standard error.
    pub stderr_tail: String,
}

/// Runs this very binary: cells and probes are subcommands of it.
fn run_self(cell: &str, args: &[String]) -> Result<ChildRun, Failure> {
    let exe = std::env::current_exe().map_err(|e| Failure {
        cell: cell.to_string(),
        reason: format!("no current exe: {e}"),
        stderr_tail: String::new(),
    })?;
    run_child(&exe, cell, args, CELL_TIMEOUT)
}

/// Reads `pipe` to its end on a thread of its own; the text arrives on the
/// returned channel once the writer has closed it.
fn drain(pipe: Option<impl Read + Send + 'static>) -> Receiver<String> {
    let (done, text) = channel();
    std::thread::spawn(move || {
        let mut out = String::new();
        if let Some(mut pipe) = pipe {
            let _ = pipe.read_to_string(&mut out);
        }
        let _ = done.send(out);
    });
    text
}

fn tail(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(8)..].join("\n")
}

/// Runs the benchmark binary `exe` with `args`, waits at most `timeout`, and
/// returns what it printed. The child is always reaped, and killed first if
/// it overran; any way of not finishing cleanly is a [`Failure`].
pub fn run_child(
    exe: &Path,
    cell: &str,
    args: &[String],
    timeout: Duration,
) -> Result<ChildRun, Failure> {
    let fail = |reason: String, stderr_tail: String| Failure {
        cell: cell.to_string(),
        reason,
        stderr_tail,
    };
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| fail(format!("could not start: {e}"), String::new()))?;
    // Both pipes are drained on their own threads, so a chatty child cannot
    // block on a full pipe. The harness then sleeps until standard output
    // closes (the child is exiting) or the timeout passes: it must not poll,
    // because on a two-core host every wake-up of this process preempts one
    // of a two-vproc cell's threads.
    let stdout = drain(child.stdout.take());
    let stderr = drain(child.stderr.take());
    let (stdout, timed_out) = match stdout.recv_timeout(timeout) {
        Ok(text) => (text, false),
        Err(_) => {
            let _ = child.kill();
            (String::new(), true)
        }
    };
    let status = match child.wait() {
        _ if timed_out => Err(format!("timed out after {} s", timeout.as_secs())),
        Ok(status) => Ok(status),
        Err(e) => Err(format!("wait failed: {e}")),
    };
    let elapsed_ns = started.elapsed().as_nanos() as f64;
    let stderr_tail = tail(&stderr.recv().unwrap_or_default());
    match status {
        Ok(status) if status.success() => Ok(ChildRun {
            elapsed_ns,
            stdout,
            stderr_tail,
        }),
        Ok(status) => Err(fail(format!("exited with {status}"), stderr_tail)),
        Err(reason) => Err(fail(reason, stderr_tail)),
    }
}

/// One successful cell repetition.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Spawn to exit, as the harness saw it.
    pub elapsed_ns: f64,
    /// What the child reported.
    pub outcome: CellOutcome,
}

impl CellRun {
    /// Process start, input and reference generation, machine build and
    /// teardown: everything the child spent outside the measured run.
    pub fn setup_s(&self) -> f64 {
        (self.elapsed_ns - self.outcome.get("measured_ns")) / 1e9
    }
}

/// Checks a cell makes when it runs to the end: what a dead child fails.
fn nominal_units(spec: &CellSpec) -> u64 {
    match spec {
        CellSpec::Serve { params } => params.total_requests(),
        CellSpec::Sim { points, .. } => points.len() as u64,
        _ => 1,
    }
}

/// The label of a cell in reports: `sort-promote/2v`.
pub fn cell_label(workload: WorkloadId, role: Role) -> String {
    let (base, primary) = workload.cell_labels();
    let cell = match role {
        Role::Base => base,
        Role::Primary => primary,
    };
    format!("{}/{cell}", workload.name())
}

/// What is fixed across the cells of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Perturbs the inputs; see [`crate::params`].
    pub seed: u64,
    /// One round, inputs ÷ 10.
    pub quick: bool,
}

fn run_cell_child(
    workload: WorkloadId,
    role: Role,
    options: RunOptions,
    trace: bool,
) -> Result<CellRun, Failure> {
    let label = cell_label(workload, role);
    let mut args: Vec<String> = [
        "cell",
        "--workload",
        workload.name(),
        "--role",
        role.name(),
        "--seed",
    ]
    .map(String::from)
    .to_vec();
    args.push(options.seed.to_string());
    if options.quick {
        args.push("--quick".into());
    }
    if trace {
        args.push("--trace".into());
    }
    let child = run_self(&label, &args)?;
    let line = child.stdout.lines().last().unwrap_or("");
    match outcome_from_json(line) {
        Some(outcome) => Ok(CellRun {
            elapsed_ns: child.elapsed_ns,
            outcome,
        }),
        None => Err(Failure {
            cell: label,
            reason: "unparsable output".into(),
            stderr_tail: child.stderr_tail,
        }),
    }
}

/// Attempt and failure counts, and why.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Checks attempted: one per batch cell repetition, one per simulated
    /// point, one per scheduled request.
    pub attempted: u64,
    /// Checks failed: checksum mismatch, unserved request, dead child.
    pub failed: u64,
    /// One entry per failed cell repetition.
    pub failures: Vec<Failure>,
}

impl Tally {
    /// Runs one cell in a child process and counts its checks. Returns the
    /// run only when the child finished and every check passed.
    fn run_cell(
        &mut self,
        workload: WorkloadId,
        role: Role,
        options: RunOptions,
        trace: bool,
    ) -> Option<CellRun> {
        match run_cell_child(workload, role, options, trace) {
            Ok(run) => {
                self.attempted += run.outcome.get("units") as u64;
                let failed = run.outcome.get("failed_units") as u64;
                if failed > 0 {
                    self.failed += failed;
                    self.failures.push(Failure {
                        cell: cell_label(workload, role),
                        reason: run.outcome.notes.join("; "),
                        stderr_tail: String::new(),
                    });
                    return None;
                }
                Some(run)
            }
            Err(failure) => {
                let units = nominal_units(&cell_spec(workload, role, options.seed, options.quick));
                self.attempted += units;
                self.failed += units;
                self.failures.push(failure);
                None
            }
        }
    }
}

/// The untraced measurement of one workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Which workload.
    pub workload: WorkloadId,
    /// Timed rounds completed.
    pub rounds: usize,
    /// Per end-to-end metric, one value per repetition that produced it, in
    /// the order of [`END_TO_END`].
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Attempts and failures.
    pub tally: Tally,
    /// Counts from the first base cell that repeat exactly on the same
    /// commit and seed (one vproc or the simulator: no races).
    pub exact: Vec<(String, f64)>,
}

impl Measurement {
    /// The metric's value: the median over repetitions.
    pub fn value(&self, name: &str) -> Option<f64> {
        let (_, samples) = self.samples.iter().find(|(n, _)| *n == name)?;
        (!samples.is_empty()).then(|| median(samples))
    }

    /// Whether every check passed and every metric has a value.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.samples.iter().all(|(_, s)| !s.is_empty())
    }
}

/// Geometric mean, over the five figure programs, of virtual one-vproc time
/// over virtual 48-vproc time under local placement.
fn virt_speedup_48(base: &CellOutcome, primary: &CellOutcome) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0;
    for one in base.virt.iter().filter(|p| p.vprocs == 1) {
        let wide = primary
            .virt
            .iter()
            .find(|p| p.program == one.program && p.vprocs == 48 && p.policy == one.policy);
        if let Some(wide) = wide {
            log_sum += (one.elapsed_ns / wide.elapsed_ns).ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// The seed of round `round`: the run's own seed for the first, then a fixed
/// sequence derived from it. Two-vproc runs are chaotic in their input size —
/// 1 % more elements moves `sort-promote`'s global-collection count, and its
/// wall time, by ±15 % — so a run measures a different size each round and
/// its median is taken over that chaos instead of sampling one point of it.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs rounds of `workload` until another would overrun `seconds` (always
/// at least one; exactly one when quick).
pub fn measure(workload: WorkloadId, options: RunOptions, seconds: f64) -> Measurement {
    let mut m = Measurement {
        workload,
        rounds: 0,
        samples: END_TO_END.iter().map(|e| (e.name, Vec::new())).collect(),
        tally: Tally::default(),
        exact: Vec::new(),
    };
    let started = Instant::now();
    loop {
        let options = RunOptions {
            seed: round_seed(options.seed, m.rounds),
            ..options
        };
        let base = m.tally.run_cell(workload, Role::Base, options, false);
        let primary = m.tally.run_cell(workload, Role::Primary, options, false);
        m.rounds += 1;
        let mut push = |name: &str, value: f64| {
            if let Some((_, samples)) = m.samples.iter_mut().find(|(n, _)| *n == name) {
                samples.push(value);
            }
        };
        if let Some(base) = &base {
            push("wall_base_s", base.outcome.get("measured_ns") / 1e9);
        }
        if let Some(primary) = &primary {
            push("wall_s", primary.outcome.get("measured_ns") / 1e9);
            push(
                "delay_p50_us",
                percentile_interp(&primary.outcome.delay, 50.0) / 1e3,
            );
        }
        if let (Some(base), Some(primary)) = (&base, &primary) {
            let hwm = base
                .outcome
                .get("vm_hwm_kib")
                .max(primary.outcome.get("vm_hwm_kib"));
            push("peak_rss_mib", hwm / 1024.0);
            // One sample per round: the two cells' set-up costs differ (a
            // serve cell's reference walks every request), so they are
            // added, not pooled.
            push("setup_s", base.setup_s() + primary.setup_s());
            if m.exact.is_empty() {
                m.exact = exact_counts(workload, &base.outcome, &primary.outcome);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if options.quick || elapsed + elapsed / m.rounds as f64 > seconds {
            return m;
        }
    }
}

fn exact_counts(
    workload: WorkloadId,
    base: &CellOutcome,
    primary: &CellOutcome,
) -> Vec<(String, f64)> {
    let mut exact = Vec::new();
    if workload == WorkloadId::ServeOpen {
        // Two racing threads on both cells: only the request count repeats.
        exact.push((
            "requests_served.r20k".to_string(),
            primary.get("requests_served"),
        ));
        return exact;
    }
    for key in [
        "minors",
        "majors",
        "globals",
        "minor_copied_bytes",
        "promoted_bytes",
        "global_copied_bytes",
        "tasks",
        "allocated_words",
    ] {
        exact.push((format!("base.{key}"), base.get(key)));
    }
    if workload == WorkloadId::SimFig5 {
        exact.push((
            "virt_speedup_48".to_string(),
            virt_speedup_48(base, primary),
        ));
        exact.push(("primary.rounds".to_string(), primary.get("rounds")));
        exact.push((
            "primary.promoted_bytes".to_string(),
            primary.get("promoted_bytes"),
        ));
    }
    exact
}

/// What the probe process measured.
#[derive(Debug, Clone, Default)]
pub struct ProbeReport {
    /// Per-layer probe metrics by name.
    pub values: BTreeMap<String, f64>,
    /// One span per probe iteration batch.
    pub spans: Vec<Span>,
    /// Set when the probe process died.
    pub failure: Option<Failure>,
}

/// Runs the probes in a child process (a probe that panics or hangs is then
/// one failure, like a cell).
pub fn run_probes(quick: bool) -> ProbeReport {
    let mut args = vec!["probes".to_string()];
    if quick {
        args.push("--quick".into());
    }
    let child = match run_self("probes", &args) {
        Ok(child) => child,
        Err(failure) => {
            return ProbeReport {
                failure: Some(failure),
                ..ProbeReport::default()
            }
        }
    };
    let parsed = mgc_store::json::parse(child.stdout.lines().last().unwrap_or(""));
    let Ok(value) = parsed else {
        return ProbeReport {
            failure: Some(Failure {
                cell: "probes".into(),
                reason: "unparsable output".into(),
                stderr_tail: child.stderr_tail,
            }),
            ..ProbeReport::default()
        };
    };
    ProbeReport {
        values: json::get_fields(&value, "values")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        spans: value
            .get("spans")
            .and_then(|s| s.as_array())
            .map(|spans| spans.iter().filter_map(span_from_json).collect())
            .unwrap_or_default(),
        failure: None,
    }
}

/// The traced run of one workload.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Which workload.
    pub workload: WorkloadId,
    /// Every per-layer metric, in the order of [`PER_LAYER`].
    pub per_layer: Vec<(&'static str, f64)>,
    /// The harness's spans with the children's spans under them.
    pub spans: Vec<Span>,
    /// Attempts and failures.
    pub tally: Tally,
}

impl TraceReport {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}

/// Two cells' counts added up (the simulated grid's per-layer counts cover
/// both of its cells). Only the numbers: the series stay per cell.
fn summed(a: &CellOutcome, b: &CellOutcome) -> CellOutcome {
    let mut out = CellOutcome {
        numbers: a.numbers.clone(),
        ..CellOutcome::default()
    };
    for (key, value) in &b.numbers {
        let slot = out.numbers.entry(key.clone()).or_insert(0.0);
        if key.ends_with("_max_ns") || key == "vm_hwm_kib" {
            *slot = slot.max(*value);
        } else {
            *slot += value;
        }
    }
    out
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// The run-derived per-layer metrics of one workload.
///
/// `core.*`, `heap.*` and the mutator share come from the base cell on the
/// batch workloads (one vproc: the counts repeat exactly), from the r20k
/// cell on `serve-open` (the r2k cell barely collects), and from both cells
/// together on `sim-fig5`. `runtime.*` and `numa.*` come from the primary
/// cell, where steals and cross-vproc promotion exist (both cells on
/// `sim-fig5`).
fn run_metrics(
    workload: WorkloadId,
    base: &CellRun,
    primary: &CellRun,
    values: &mut BTreeMap<String, f64>,
) {
    let both = summed(&base.outcome, &primary.outcome);
    let (collector, scheduler) = match workload {
        WorkloadId::ServeOpen => (&primary.outcome, &primary.outcome),
        WorkloadId::SimFig5 => (&both, &both),
        _ => (&base.outcome, &primary.outcome),
    };
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let c = collector;
    set("heap.allocated_mwords", c.get("allocated_words") / 1e6);
    set("core.minors", c.get("minors"));
    set("core.majors", c.get("majors"));
    set("core.globals", c.get("globals"));
    set("core.minor_copied_mib", c.get("minor_copied_bytes") / MIB);
    set("core.promoted_mib", c.get("promoted_bytes") / MIB);
    set("core.global_copied_mib", c.get("global_copied_bytes") / MIB);
    let busy = c.get("vproc_time_ns");
    let minor = share(c.get("minor_pause_ns"), busy);
    let major = share(c.get("major_pause_ns"), busy);
    let global = share(c.get("global_pause_ns"), busy);
    set("core.minor_time_share", minor);
    set("core.major_time_share", major);
    set("core.global_time_share", global);
    set("runtime.mutator_time_share", 1.0 - minor - major - global);
    set(
        "core.global_recopy_ratio",
        share(c.get("global_copied_bytes"), c.get("promoted_bytes")),
    );
    let p = &primary.outcome;
    set(
        "core.pause_p99_ms",
        percentile_interp(&p.pauses, 99.0) / 1e6,
    );
    set("core.pause_max_ms", p.pauses.max_ns / 1e6);
    set(
        "core.global_pause_max_ms",
        p.get("global_pause_max_ns") / 1e6,
    );

    let s = scheduler;
    set("runtime.tasks", s.get("tasks"));
    set("runtime.steals", s.get("steals"));
    set(
        "runtime.steal_served_ratio",
        share(
            s.get("steal_served"),
            s.get("steal_served") + s.get("steal_declined"),
        ),
    );
    set(
        "runtime.promoted_at_steal_mib",
        s.get("promoted_at_steal_bytes") / MIB,
    );
    set(
        "runtime.promoted_at_publish_mib",
        s.get("promoted_at_publish_bytes") / MIB,
    );
    set("runtime.channel_sends", s.get("channel_sends"));
    set(
        "runtime.overhead_ms",
        (s.get("run_call_ns") - s.get("measured_ns")).max(0.0) / 1e6,
    );
    set(
        "numa.promoted_remote_share",
        share(
            s.get("promoted_remote_bytes"),
            s.get("promoted_remote_bytes") + s.get("promoted_local_bytes"),
        ),
    );
    set(
        "numa.steals_cross_node_share",
        share(s.get("steals_cross_node"), s.get("steals")),
    );
    set(
        "workloads.input_build_ms",
        (base.outcome.get("build_ns") + p.get("build_ns")) / 2e6,
    );
    set(
        "workloads.reference_ms",
        (base.outcome.get("reference_ns") + p.get("reference_ns")) / 2e6,
    );

    match workload {
        WorkloadId::ServeOpen => {
            let lat = &p.delay;
            // The root materialises and routes the whole schedule before the
            // stream's first arrival; the stream itself lasts `stream_ns`.
            set(
                "server.generate_ms",
                (p.get("measured_ns") - p.get("stream_ns")).max(0.0) / 1e6,
            );
            set(
                "server.served_rps.r20k",
                share(p.get("requests_served"), p.get("measured_ns") / 1e9),
            );
            set("server.lat_p50_us.r20k", percentile_interp(lat, 50.0) / 1e3);
            set("server.lat_p99_us.r20k", percentile_interp(lat, 99.0) / 1e3);
            set(
                "server.lat_p99_us.r2k",
                percentile_interp(&base.outcome.delay, 99.0) / 1e3,
            );
            set(
                "server.lat_p999_us.r20k",
                percentile_interp(lat, 99.9) / 1e3,
            );
            set("server.lat_max_ms.r20k", lat.max_ns / 1e6);
            set("server.over_1ms_ppm.r20k", at_or_above_ppm(lat, 1 << 20));
        }
        WorkloadId::SimFig5 => {
            set(
                "runtime.sim_rounds_per_s",
                share(both.get("rounds"), both.get("measured_ns") / 1e9),
            );
            set(
                "runtime.virt_speedup_48",
                virt_speedup_48(&base.outcome, &primary.outcome),
            );
        }
        _ => {
            // Two vprocs on fewer than two cores measure the host's
            // scheduler, not the runtime: the speed-up stays unresolved (0).
            if host_cores() >= 2 {
                set(
                    "runtime.speedup_2v",
                    share(base.outcome.get("measured_ns"), p.get("measured_ns")),
                );
            }
        }
    }
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The traced run: one traced round of the workload's two cells, then
/// untraced repetitions of the primary cell (as many as fit in `seconds`, at
/// least one) for the tracing overhead. `probes` supplies the workload-
/// independent probe metrics.
pub fn trace(
    workload: WorkloadId,
    options: RunOptions,
    seconds: f64,
    probes: &ProbeReport,
) -> TraceReport {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(workload.name(), true);
    let root = tracer.enter("bench.trace_workload");
    let mut traced_cell = |role: Role| {
        let open = tracer.enter("bench.cell");
        let run = tally.run_cell(workload, role, options, true);
        // The child's spans go under the harness's span of the child.
        let child_spans = run.as_ref().map(|run| run.outcome.spans.clone());
        tracer.exit_adopting(open, child_spans.unwrap_or_default());
        run
    };
    let base = traced_cell(Role::Base);
    let primary = traced_cell(Role::Primary);
    tracer.exit(root);
    if let Some(failure) = &probes.failure {
        tally.attempted += 1;
        tally.failed += 1;
        tally.failures.push(failure.clone());
    }

    let mut values: BTreeMap<String, f64> = probes.values.clone();
    if let (Some(base), Some(primary)) = (&base, &primary) {
        run_metrics(workload, base, primary, &mut values);
        // Tracing overhead: the traced primary repetition against untraced ones.
        let mut untraced = Vec::new();
        loop {
            if let Some(run) = tally.run_cell(workload, Role::Primary, options, false) {
                untraced.push(run.outcome.get("measured_ns"));
            }
            let spent = started.elapsed().as_secs_f64();
            let per_rep = primary.elapsed_ns / 1e9;
            if options.quick || untraced.len() >= 5 || spent + per_rep > seconds {
                break;
            }
        }
        if !untraced.is_empty() {
            values.insert(
                "bench.trace_overhead_share".into(),
                primary.outcome.get("measured_ns") / median(&untraced) - 1.0,
            );
        }
        // Process start: what the harness waited beyond the child's own main.
        let main_ns = |run: &CellRun| {
            run.outcome
                .spans
                .first()
                .map_or(run.elapsed_ns, |s| s.duration_ns() as f64)
        };
        values.insert(
            "bench.child_start_ms".into(),
            (base.elapsed_ns - main_ns(base) + primary.elapsed_ns - main_ns(primary)) / 2e6,
        );
    }

    TraceReport {
        workload,
        per_layer: PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        spans: tracer.into_spans(),
        tally,
    }
}
