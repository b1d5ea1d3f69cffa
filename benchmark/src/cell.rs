//! One cell, run inside a fresh child process of the benchmark binary.
//!
//! The child resolves its inputs from `(workload, role, seed)`, computes the
//! reference checksum, runs the program through the repository's front door
//! ([`Experiment`]), checks the result, and prints one JSON line: the public
//! [`RunReport`](mgc_runtime::RunReport) counts, the pause and latency
//! histograms, its own peak resident set, and — when tracing — the spans it
//! recorded around each call into a layer. Everything is measured from
//! outside the layers: nothing in the runtime is patched or instrumented.

use crate::json::{self, Obj};
use crate::params::{BatchProgram, CellSpec, SimPoint, SimSizes};
use crate::spans::{span_from_json, span_to_json, Span, Tracer};
use mgc_core::{Histogram, HISTOGRAM_BUCKETS};
use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{Backend, EnvOverrides, Experiment, Program, RunRecord};
use mgc_server::ServerProgram;
use mgc_store::JsonValue;
use mgc_workloads::barnes_hut::BarnesHut;
use mgc_workloads::churn::Churn;
use mgc_workloads::dmm::Dmm;
use mgc_workloads::quicksort::Quicksort;
use mgc_workloads::raytracer::Raytracer;
use mgc_workloads::smvm::Smvm;
use mgc_workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The virtual (simulated) time of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtPoint {
    /// The program's figure label.
    pub program: String,
    /// Simulated vprocs.
    pub vprocs: usize,
    /// Placement policy label.
    pub policy: String,
    /// Virtual nanoseconds the run took.
    pub elapsed_ns: f64,
}

/// What a finished cell reports to the harness.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellOutcome {
    /// Named counts and times (see [`run_cell`] for the keys).
    pub numbers: BTreeMap<String, f64>,
    /// The delay a client of the workload waits on: request latency from
    /// scheduled arrival for a serve cell, collector pauses otherwise.
    pub delay: Histogram,
    /// Every minor, major and global-increment pause.
    pub pauses: Histogram,
    /// Virtual times of simulated points (empty for threaded cells).
    pub virt: Vec<VirtPoint>,
    /// Spans recorded by the child (empty unless tracing).
    pub spans: Vec<Span>,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl CellOutcome {
    /// A named number, 0 when the cell did not report it.
    pub fn get(&self, key: &str) -> f64 {
        self.numbers.get(key).copied().unwrap_or(0.0)
    }

    fn add(&mut self, key: &str, value: f64) {
        *self.numbers.entry(key.to_string()).or_insert(0.0) += value;
    }

    fn max(&mut self, key: &str, value: f64) {
        let slot = self.numbers.entry(key.to_string()).or_insert(0.0);
        *slot = slot.max(value);
    }
}

/// The topology threaded cells run on: the `Experiment` default, two nodes
/// of two cores, so the NUMA tags (local/remote promotion, cross-node
/// steals) are exercised even though the host does not pin.
fn threaded_topology() -> Topology {
    Topology::dual_node_test()
}

struct PointSetup {
    backend: Backend,
    topology: Topology,
    vprocs: usize,
    policy: AllocPolicy,
}

/// Runs one program once and folds its report into `out`. `expected` is the
/// reference checksum computed beforehand (outside the measured run).
fn run_point(
    tracer: &mut Tracer,
    out: &mut CellOutcome,
    program: Box<dyn Program>,
    expected: Option<mgc_runtime::Checksum>,
    setup: PointSetup,
) -> RunRecord {
    let label = format!(
        "{} {}v {}",
        program.name(),
        setup.vprocs,
        setup.policy.label()
    );
    let open = tracer.enter("runtime.experiment_run");
    let record = Experiment::new(program)
        .backend(setup.backend)
        .topology(setup.topology)
        .vprocs(setup.vprocs)
        .policy(setup.policy)
        // The reference is computed and timed separately, above.
        .verify_checksum(false)
        // Ambient MGC_* variables must not change what a cell runs.
        .env_overrides(EnvOverrides::default())
        .run()
        .expect("the benchmark's cells are valid configurations");
    let report = &record.report;
    let run_call_ns = tracer.exit_with(
        open,
        &[
            ("tasks", report.total_tasks() as f64),
            ("steals", report.total_steals() as f64),
            ("minors", report.gc.minor_collections as f64),
            ("majors", report.gc.major_collections as f64),
            ("globals", report.gc.global_collections as f64),
            ("promoted_bytes", report.total_promoted_bytes() as f64),
        ],
    );

    let ok = matches!(
        (expected, record.result),
        (Some(expected), Some((word, false))) if expected.matches(word)
    );
    out.add("units", 1.0);
    if !ok {
        out.add("failed_units", 1.0);
        out.notes.push(format!(
            "{label}: result {:?} does not match the reference {expected:?}",
            record.result
        ));
    }

    let vprocs = report.vprocs as f64;
    // What the cell's time metric measures: the program's own wall clock on
    // real threads; host time inside the call for a simulated point.
    let measured_ns = report.wall_clock_ns.unwrap_or(run_call_ns);
    out.add("measured_ns", measured_ns);
    out.add("run_call_ns", run_call_ns);
    out.add("vproc_time_ns", vprocs * report.elapsed_ns);
    out.add("rounds", report.rounds as f64);
    out.add("allocated_words", report.allocated_words as f64);
    let gc = &report.gc;
    out.add("minors", gc.minor_collections as f64);
    out.add("majors", gc.major_collections as f64);
    // Every vproc counts each global collection it took part in.
    out.add("globals", gc.global_collections as f64 / vprocs);
    out.add("minor_copied_bytes", gc.minor_copied_bytes as f64);
    out.add("promoted_bytes", report.total_promoted_bytes() as f64);
    out.add("global_copied_bytes", gc.global_copied_bytes as f64);
    out.add("minor_pause_ns", gc.minor_pauses.sum_ns);
    out.add("major_pause_ns", gc.major_pauses.sum_ns);
    out.add("global_pause_ns", gc.global_pauses.sum_ns);
    out.max("global_pause_max_ns", gc.global_pauses.max_ns);
    out.add("tasks", report.total_tasks() as f64);
    out.add("steals", report.total_steals() as f64);
    out.add("steals_cross_node", report.steals_cross_node() as f64);
    out.add("steal_served", report.steal_requests_served() as f64);
    out.add("steal_declined", report.steal_requests_declined() as f64);
    out.add(
        "promoted_at_steal_bytes",
        report.promoted_bytes_at_steal() as f64,
    );
    out.add(
        "promoted_at_publish_bytes",
        report.promoted_bytes_at_publish() as f64,
    );
    out.add("promoted_local_bytes", report.promoted_bytes_local() as f64);
    out.add(
        "promoted_remote_bytes",
        report.promoted_bytes_remote() as f64,
    );
    out.add("channel_sends", record.channels.sends as f64);
    out.pauses.merge(&report.pause_stats());
    if record.backend == Backend::Simulated {
        out.virt.push(VirtPoint {
            program: record.program.clone(),
            vprocs: report.vprocs,
            policy: record.config.heap.policy.label().to_string(),
            elapsed_ns: report.elapsed_ns,
        });
    }
    record
}

fn reference(
    tracer: &mut Tracer,
    out: &mut CellOutcome,
    program: &dyn Program,
) -> Option<mgc_runtime::Checksum> {
    let open = tracer.enter("workloads.reference");
    let expected = program.expected_checksum();
    let ns = tracer.exit(open);
    out.add("reference_ns", ns);
    expected
}

/// The programs build their inputs inside their root task, where the
/// benchmark cannot time them. The traced run therefore calls the public
/// generators once more, inside the `workloads.build` span, so that
/// `workloads.input_build_ms` has a number. Untraced runs skip this.
fn traced_input_build(tracer: &Tracer, program: &BatchProgram) {
    if !tracer.enabled() {
        return;
    }
    match program {
        BatchProgram::Quicksort(params) => {
            black_box(mgc_workloads::quicksort::generate_input(params.elements));
        }
        BatchProgram::BarnesHut(params) => {
            black_box(mgc_workloads::barnes_hut::plummer_particles(
                params.particles,
            ));
        }
        BatchProgram::Churn(_) => {}
    }
}

fn sim_program(workload: Workload, sizes: &SimSizes) -> Box<dyn Program> {
    match workload {
        Workload::Dmm => Box::new(Dmm::new(sizes.dmm)),
        Workload::Raytracer => Box::new(Raytracer::new(sizes.raytracer)),
        Workload::Quicksort => Box::new(Quicksort::new(sizes.quicksort)),
        Workload::BarnesHut => Box::new(BarnesHut::new(sizes.barnes_hut)),
        Workload::Smvm => Box::new(Smvm::new(sizes.smvm)),
        Workload::Churn => unreachable!("the simulated grid runs the five figure programs"),
    }
}

/// Runs `spec` and returns what the harness needs. Keys of `numbers`:
/// `measured_ns` (the cell's time metric), `run_call_ns` (inside
/// `Experiment::run`), `build_ns`, `reference_ns`, `units` / `failed_units`
/// (checks made and failed), `vm_hwm_kib`, `vproc_time_ns` (vprocs × run
/// time, the base of the time shares), and the summed `RunReport` counts.
pub fn run_cell(spec: &CellSpec, tracer: &mut Tracer) -> CellOutcome {
    let mut out = CellOutcome::default();
    let root = tracer.enter("bench.cell_main");
    match spec {
        CellSpec::Batch {
            program: batch,
            vprocs,
        } => {
            let open = tracer.enter("workloads.build");
            let program: Box<dyn Program> = match *batch {
                BatchProgram::Churn(params) => Box::new(Churn::new(params)),
                BatchProgram::Quicksort(params) => Box::new(Quicksort::new(params)),
                BatchProgram::BarnesHut(params) => Box::new(BarnesHut::new(params)),
            };
            traced_input_build(tracer, batch);
            let ns = tracer.exit(open);
            out.add("build_ns", ns);
            let expected = reference(tracer, &mut out, &*program);
            let setup = PointSetup {
                backend: Backend::Threaded,
                topology: threaded_topology(),
                vprocs: *vprocs,
                policy: AllocPolicy::Local,
            };
            run_point(tracer, &mut out, program, expected, setup);
            out.delay = out.pauses;
        }
        CellSpec::Serve { params } => {
            let open = tracer.enter("workloads.build");
            let program = ServerProgram::new(*params).expect("the serve cells are valid");
            let ns = tracer.exit(open);
            out.add("build_ns", ns);
            let expected = reference(tracer, &mut out, &program);
            let setup = PointSetup {
                backend: Backend::Threaded,
                topology: threaded_topology(),
                vprocs: 2,
                policy: AllocPolicy::Local,
            };
            let record = run_point(tracer, &mut out, Box::new(program), expected, setup);
            // A serve cell's checks are its requests: all fail with a wrong
            // checksum, the unserved ones with a short count.
            let scheduled = params.total_requests() as f64;
            let served = record.report.requests_served() as f64;
            let failed = if out.get("failed_units") > 0.0 {
                scheduled
            } else {
                (scheduled - served).max(0.0)
            };
            if served < scheduled {
                out.notes
                    .push(format!("served {served} of {scheduled} requests"));
            }
            out.numbers.insert("units".into(), scheduled);
            out.numbers.insert("failed_units".into(), failed);
            out.add("requests_served", served);
            out.add("stream_ns", params.duration_secs as f64 * 1e9);
            out.delay = record.report.latency_stats();
        }
        CellSpec::Sim { sizes, points } => {
            let mut expected: Vec<(Workload, Option<mgc_runtime::Checksum>)> = Vec::new();
            for &SimPoint {
                workload,
                vprocs,
                policy,
            } in points
            {
                let open = tracer.enter("workloads.build");
                let program = sim_program(workload, sizes);
                match workload {
                    Workload::Quicksort => {
                        traced_input_build(tracer, &BatchProgram::Quicksort(sizes.quicksort))
                    }
                    Workload::BarnesHut => {
                        traced_input_build(tracer, &BatchProgram::BarnesHut(sizes.barnes_hut))
                    }
                    _ => {}
                }
                let ns = tracer.exit(open);
                out.add("build_ns", ns);
                let reference_value = match expected.iter().find(|(w, _)| *w == workload) {
                    Some((_, value)) => *value,
                    None => {
                        let value = reference(tracer, &mut out, &*program);
                        expected.push((workload, value));
                        value
                    }
                };
                let setup = PointSetup {
                    backend: Backend::Simulated,
                    topology: Topology::amd_magny_cours_48(),
                    vprocs,
                    policy,
                };
                run_point(tracer, &mut out, program, reference_value, setup);
            }
            out.delay = out.pauses;
        }
    }
    out.numbers
        .insert("vm_hwm_kib".into(), vm_hwm_kib().unwrap_or(0.0));
    tracer.exit(root);
    out
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn vm_hwm_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn histogram_to_json(h: &Histogram) -> String {
    Obj::new()
        .raw("count", h.count)
        .num("sum_ns", h.sum_ns)
        .num("max_ns", h.max_ns)
        .raw("buckets", json::array(h.buckets.iter().map(u64::to_string)))
        .finish()
}

fn histogram_from_json(value: &JsonValue) -> Option<Histogram> {
    let buckets = value.get("buckets")?.as_array()?;
    if buckets.len() != HISTOGRAM_BUCKETS {
        return None;
    }
    let mut h = Histogram::new();
    for (slot, v) in h.buckets.iter_mut().zip(buckets) {
        *slot = v.as_u64()?;
    }
    h.count = value.get("count")?.as_u64()?;
    h.sum_ns = json::get_f64(value, "sum_ns")?;
    h.max_ns = json::get_f64(value, "max_ns")?;
    Some(h)
}

/// The one line a child prints.
pub fn outcome_to_json(outcome: &CellOutcome, spans: &[Span]) -> String {
    let mut numbers = Obj::new();
    for (key, value) in &outcome.numbers {
        numbers = numbers.num(key, *value);
    }
    let virt = outcome.virt.iter().map(|p| {
        Obj::new()
            .str("program", &p.program)
            .raw("vprocs", p.vprocs)
            .str("policy", &p.policy)
            .num("elapsed_ns", p.elapsed_ns)
            .finish()
    });
    Obj::new()
        .raw("numbers", numbers.finish())
        .raw("delay", histogram_to_json(&outcome.delay))
        .raw("pauses", histogram_to_json(&outcome.pauses))
        .raw("virt", json::array(virt))
        .raw("spans", json::array(spans.iter().map(span_to_json)))
        .raw(
            "notes",
            json::array(
                outcome
                    .notes
                    .iter()
                    .map(|n| format!("\"{}\"", json::escape(n))),
            ),
        )
        .finish()
}

/// Parses what [`outcome_to_json`] wrote; `None` for anything else.
pub fn outcome_from_json(text: &str) -> Option<CellOutcome> {
    let value = mgc_store::json::parse(text).ok()?;
    let numbers = json::get_fields(&value, "numbers")
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    let virt = value
        .get("virt")?
        .as_array()?
        .iter()
        .map(|p| {
            Some(VirtPoint {
                program: p.get("program")?.as_str()?.to_string(),
                vprocs: p.get("vprocs")?.as_u64()? as usize,
                policy: p.get("policy")?.as_str()?.to_string(),
                elapsed_ns: json::get_f64(p, "elapsed_ns")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let spans = value
        .get("spans")?
        .as_array()?
        .iter()
        .map(span_from_json)
        .collect::<Option<Vec<_>>>()?;
    let notes = value
        .get("notes")?
        .as_array()?
        .iter()
        .filter_map(|n| n.as_str().map(str::to_string))
        .collect();
    Some(CellOutcome {
        numbers,
        delay: histogram_from_json(value.get("delay")?)?,
        pauses: histogram_from_json(value.get("pauses")?)?,
        virt,
        spans,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cell_spec, Role, WorkloadId};

    #[test]
    fn a_quick_cell_runs_checks_and_round_trips() {
        let spec = cell_spec(WorkloadId::SortPromote, Role::Base, 3, true);
        let mut tracer = Tracer::new("sort-promote/1v", true);
        let outcome = run_cell(&spec, &mut tracer);
        assert_eq!(outcome.get("units"), 1.0);
        assert_eq!(outcome.get("failed_units"), 0.0, "{:?}", outcome.notes);
        assert!(outcome.get("measured_ns") > 0.0);
        assert!(outcome.get("run_call_ns") >= outcome.get("measured_ns"));
        assert!(outcome.get("minors") > 0.0);
        assert!(outcome.pauses.count > 0);
        let spans = tracer.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "bench.cell_main",
                "workloads.build",
                "workloads.reference",
                "runtime.experiment_run"
            ]
        );
        let parsed = outcome_from_json(&outcome_to_json(&outcome, &spans)).unwrap();
        assert_eq!(parsed.numbers, outcome.numbers);
        assert_eq!(parsed.pauses, outcome.pauses);
        assert_eq!(parsed.spans, spans);
        assert_eq!(outcome_from_json("not json"), None);
    }

    #[test]
    fn a_simulated_cell_reports_virtual_times_per_point() {
        let spec = cell_spec(WorkloadId::SimFig5, Role::Base, 0, true);
        let outcome = run_cell(&spec, &mut Tracer::new("sim", false));
        assert_eq!(outcome.get("units"), 5.0);
        assert_eq!(outcome.get("failed_units"), 0.0, "{:?}", outcome.notes);
        assert_eq!(outcome.virt.len(), 5);
        assert!(outcome
            .virt
            .iter()
            .all(|p| p.vprocs == 1 && p.elapsed_ns > 0.0));
    }
}
