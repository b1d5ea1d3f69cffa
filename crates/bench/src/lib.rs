//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation section, and runs every measured sweep as one pipeline —
//! corpus manifest → [`corpus`] point runner → results-store batch.
//!
//! | Artefact | Binary | What it reproduces |
//! |----------|--------|--------------------|
//! | Table 1, figures 4–8 | `sweep` | Modelled node bandwidth, then every speedup figure, written as CSV under `results/` |
//! | a corpus | `sweep --corpus <manifest>` | One store batch per checked-in manifest under `corpus/` |
//!
//! Performance comparisons are not made here: `scripts/perf-pairs.sh`
//! compares a change with its base through the benchmark under
//! `benchmark/`.
//!
//! Absolute speedups depend on the workload scale (the default is a scaled
//! down input set — set `MGC_SCALE=paper` for the published sizes); the
//! qualitative shape — which benchmarks scale, where they flatten, and how
//! the three allocation policies order — is the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use corpus::{CorpusHeap, CorpusPoint};
use mgc_numa::{AllocPolicy, PlacementPolicy, Topology};
use mgc_runtime::{Backend, RunRecord};
use mgc_workloads::{speedup_series, Scale, SpeedupPoint, Workload};
use std::fmt::Write as _;

/// Description of one speedup figure.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure name, e.g. `"figure4"`.
    pub name: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// The machine model.
    pub topology: Topology,
    /// The page/chunk placement policy.
    pub policy: AllocPolicy,
    /// Thread counts on the x axis.
    pub threads: Vec<usize>,
}

/// Figure 4: the Intel machine with local allocation.
pub fn figure4() -> FigureSpec {
    FigureSpec {
        name: "figure4",
        title: "Speedup on Intel Xeon X7560 (32 cores), local allocation",
        topology: Topology::intel_xeon_32(),
        policy: AllocPolicy::Local,
        threads: vec![1, 4, 8, 12, 16, 24, 32],
    }
}

/// Figure 5: the AMD machine with local allocation (the paper's default).
pub fn figure5() -> FigureSpec {
    FigureSpec {
        name: "figure5",
        title: "Speedup on AMD Opteron 6172 (48 cores), local allocation",
        topology: Topology::amd_magny_cours_48(),
        policy: AllocPolicy::Local,
        threads: vec![1, 4, 8, 12, 24, 36, 48],
    }
}

/// Figure 6: the AMD machine with interleaved allocation (GHC-style).
pub fn figure6() -> FigureSpec {
    FigureSpec {
        name: "figure6",
        title: "Speedup on AMD Opteron 6172 (48 cores), interleaved allocation",
        policy: AllocPolicy::Interleaved,
        ..figure5()
    }
}

/// Figure 7: the AMD machine with socket-zero allocation.
pub fn figure7() -> FigureSpec {
    FigureSpec {
        name: "figure7",
        title: "Speedup on AMD Opteron 6172 (48 cores), socket-zero allocation",
        policy: AllocPolicy::SocketZero,
        ..figure5()
    }
}

/// Runs every benchmark of a figure: `(benchmark, curve)` pairs in the
/// paper's legend order.
///
/// Speedups in Figures 6 and 7 are plotted relative to the *same*
/// single-thread baseline as Figure 5 (the paper plots them "relative to the
/// single-processor performance for the AMD machine in Figure 5"), which is
/// what `baseline_policy` arranges.
fn run_figure(spec: &FigureSpec, scale: Scale) -> Vec<(Workload, Vec<SpeedupPoint>)> {
    Workload::FIGURES
        .iter()
        .map(|&workload| {
            let baseline = workload
                .experiment(scale)
                .topology(spec.topology.clone())
                .vprocs(1)
                .policy(AllocPolicy::Local)
                // Figures read timings only; skip the sequential reference
                // checksum each point would otherwise recompute.
                .verify_checksum(false)
                .run()
                .expect("figure baselines use one vproc")
                .report
                .elapsed_ns;
            let points = speedup_series(
                &spec.topology,
                &spec.threads,
                spec.policy,
                workload,
                scale,
                Some(baseline),
            );
            (workload, points)
        })
        .collect()
}

/// Formats a figure as an aligned text table (threads × benchmarks).
fn format_figure(spec: &FigureSpec, data: &[(Workload, Vec<SpeedupPoint>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} — {}", spec.name, spec.title);
    let _ = write!(out, "{:>8}", "threads");
    for (workload, _) in data {
        let _ = write!(out, " {:>22}", workload.label());
    }
    let _ = writeln!(out);
    for (i, &threads) in spec.threads.iter().enumerate() {
        let _ = write!(out, "{threads:>8}");
        for (_, points) in data {
            let _ = write!(out, " {:>22.2}", points[i].speedup);
        }
        let _ = writeln!(out);
    }
    out
}

/// Formats a figure as CSV (`benchmark,threads,speedup,elapsed_ns`).
fn figure_csv(data: &[(Workload, Vec<SpeedupPoint>)]) -> String {
    let mut out = String::from("benchmark,threads,speedup,elapsed_ns\n");
    for (workload, points) in data {
        for p in points {
            let _ = writeln!(
                out,
                "{},{},{:.4},{:.0}",
                workload.label(),
                p.threads,
                p.speedup,
                p.elapsed_ns
            );
        }
    }
    out
}

/// Reproduces Table 1: the modelled bandwidth between a single node and the
/// rest of the system, for both machines.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 1 — theoretical bandwidth (GB/s) between a node and the rest of the system"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10}",
        "", "AMD (GB/s)", "Intel (GB/s)"
    );
    let amd = Topology::amd_magny_cours_48();
    let intel = Topology::intel_xeon_32();
    let (amd_local, amd_same, amd_cross) = amd.table1_bandwidths();
    let (intel_local, intel_same, intel_cross) = intel.table1_bandwidths();
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.1}"));
    let _ = writeln!(
        out,
        "{:<28} {:>10.1} {:>10.1}",
        "Local Memory", amd_local, intel_local
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10}",
        "Node in same package",
        fmt(amd_same),
        fmt(intel_same)
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10.1} {:>10.1}",
        "Node on another package", amd_cross, intel_cross
    );
    out
}

// ----------------------------------------------------------------------
// Figure 8: NodeLocal vs Interleave promotion-chunk placement on the
// threaded backend. One row per (program, placement), with the local/remote
// promoted-byte split and the same-node/cross-node steal split that
// together make the locality win visible.
// ----------------------------------------------------------------------

/// Vproc count of the figure-8 sweep (4 OS threads on the dual-node test
/// topology: two workers per node, so both steal locality classes occur).
pub const FIGURE8_VPROCS: usize = 4;

/// Runs one figure-8 point: `program` (a corpus program key) on the
/// threaded backend under `placement`, with the small heap so a run
/// performs many chunk leases (which is what makes placement observable at
/// tiny scale).
fn figure8_point(program: &str, scale: Scale, placement: PlacementPolicy) -> RunRecord {
    let point = CorpusPoint {
        program: program.to_string(),
        backend: Backend::Threaded,
        vprocs: vec![FIGURE8_VPROCS],
        placement,
        pause_budget_us: None,
        reps: 1,
        // Figure 8 reads locality counters and timings only; correctness
        // under every placement is pinned by the workloads placement suite.
        verify: false,
    };
    corpus::run_cell(&point, scale, CorpusHeap::Small, FIGURE8_VPROCS)
}

/// Runs all six programs under `NodeLocal` and `Interleave` placement —
/// the locality-first default and the locality-blind baseline.
fn run_figure8(scale: Scale) -> Vec<RunRecord> {
    let mut points = Vec::new();
    for placement in [PlacementPolicy::NodeLocal, PlacementPolicy::Interleave] {
        for (program, workload) in corpus::PROGRAM_KEYS {
            if workload.is_some() {
                points.push(figure8_point(program, scale, placement));
            }
        }
    }
    points
}

/// Formats the figure-8 records as CSV
/// (`program,placement,vprocs,wall_clock_ns,promoted_bytes,...`).
fn figure8_csv(points: &[RunRecord]) -> String {
    let mut out = String::from(
        "program,placement,vprocs,wall_clock_ns,promoted_bytes,promoted_bytes_local,\
         promoted_bytes_remote,steals,steals_same_node,steals_cross_node\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{:.0},{},{},{},{},{},{}",
            p.program,
            p.config.placement,
            p.config.num_vprocs,
            p.wall_clock_ns().unwrap_or(0.0),
            p.report.total_promoted_bytes(),
            p.report.promoted_bytes_local(),
            p.report.promoted_bytes_remote(),
            p.report.total_steals(),
            p.report.steals_same_node(),
            p.report.steals_cross_node(),
        );
    }
    out
}

/// Formats the figure-8 records as an aligned table for the console.
fn format_figure8(points: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 8 — promotion-chunk placement: node-local vs interleave \
         (threaded, {FIGURE8_VPROCS} vprocs)"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "benchmark",
        "placement",
        "wall-ms",
        "local-B",
        "remote-B",
        "steals",
        "same-node",
        "cross-node"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12.3} {:>12} {:>12} {:>8} {:>10} {:>10}",
            p.program,
            p.config.placement.label(),
            p.wall_clock_ns().unwrap_or(0.0) / 1e6,
            p.report.promoted_bytes_local(),
            p.report.promoted_bytes_remote(),
            p.report.total_steals(),
            p.report.steals_same_node(),
            p.report.steals_cross_node(),
        );
    }
    out
}

/// Runs figure 8 end-to-end, printing the table and writing
/// `results/figure8.csv` (the CI `figure-smoke` artifact).
pub fn run_figure8_and_report() {
    let points = run_figure8(scale_from_env());
    println!("{}", format_figure8(&points));
    write_csv("figure8", &figure8_csv(&points));
}

/// Default results-store directory `sweep --corpus` appends to, relative to
/// the repo root.
pub const STORE_DIR: &str = "results/store";

pub mod corpus;

/// Reads the workload scale from the `MGC_SCALE` environment variable
/// (`paper`, `small`, `bench`, or `tiny`; default `tiny` so the harness
/// finishes quickly on a laptop).
fn scale_from_env() -> Scale {
    let name = std::env::var("MGC_SCALE").unwrap_or_else(|_| "tiny".to_string());
    corpus::scale_from_name(&name).unwrap_or_else(|err| {
        eprintln!("MGC_SCALE: {err}; using tiny");
        Scale::tiny()
    })
}

/// Writes `results/<name>.csv`, warning instead of failing when the
/// directory is not writable (the table was already printed).
fn write_csv(name: &str, csv: &str) {
    let dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, csv) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

/// Runs a figure end-to-end, printing the table and writing CSV under
/// `results/`.
pub fn run_and_report(spec: &FigureSpec) {
    let data = run_figure(spec, scale_from_env());
    println!("{}", format_figure(spec, &data));
    write_csv(spec.name, &figure_csv(&data));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_server::ServeParams;

    /// Runs a one-off tiny-scale manifest with the given heap preset and
    /// points through the corpus path.
    fn run_points(heap: &str, points: &str) -> Vec<RunRecord> {
        let manifest = corpus::parse_corpus(&format!(
            "{{\"corpus_schema_version\": 1, \"name\": \"test\", \"scale\": \"tiny\", \
             \"heap\": \"{heap}\", \"points\": [{points}]}}"
        ))
        .expect("the test manifest parses");
        corpus::run_corpus(&manifest)
    }

    #[test]
    fn figure_specs_match_paper_axes() {
        assert_eq!(figure4().threads, vec![1, 4, 8, 12, 16, 24, 32]);
        assert_eq!(figure5().threads, vec![1, 4, 8, 12, 24, 36, 48]);
        assert_eq!(figure6().policy, AllocPolicy::Interleaved);
        assert_eq!(figure7().policy, AllocPolicy::SocketZero);
        assert_eq!(figure4().topology.num_cores(), 32);
        assert_eq!(figure5().topology.num_cores(), 48);
    }

    #[test]
    fn table1_contains_paper_numbers() {
        let t = table1();
        assert!(t.contains("21.3"));
        assert!(t.contains("19.2"));
        assert!(t.contains("6.4"));
        assert!(t.contains("17.1"));
        assert!(t.contains("25.6"));
        assert!(t.contains("n/a"));
    }

    #[test]
    fn baseline_records_are_well_formed_and_cover_both_backends() {
        let points = run_points(
            "default",
            "{\"program\": \"dmm\", \"backend\": \"simulated\", \"vprocs\": [1]}, \
             {\"program\": \"dmm\", \"backend\": \"threaded\", \"vprocs\": [1], \"reps\": 3}",
        );
        let json: String = points.iter().map(RunRecord::to_json).collect();
        assert!(json.contains("\"backend\": \"simulated\""));
        assert!(json.contains("\"backend\": \"threaded\""));
        assert!(json.contains("\"wall_clock_ns\": null"));
        assert!(json.contains("\"simulated_ns\": null"));
        assert!(json.contains("\"program\": \"Dense-Matrix-Multiply\""));
        assert!(json.contains("\"policy\": \"local\""));
        assert!(json.contains("\"topology\": \"test-dual-node\""));
        assert!(json.contains("\"local_heap_bytes\": 524288"));
        assert!(json.contains("\"checksum_ok\": true"));
        assert!(json.contains("\"promoted_bytes\": "));
        assert!(json.contains("\"promotions_at_steal\": "));
        assert!(json.contains("\"promotions_at_publish\": "));
        // Exactly one comma-separated object per point.
        assert_eq!(json.matches("\"vprocs\"").count(), 2);
        let table = corpus::format_corpus(&points);
        assert!(table.contains("wall-ms"));
        assert!(table.contains("promoted-B"));
        assert!(table.contains("max-pause"));
        assert!(table.contains("Dense-Matrix-Multiply"));
    }

    #[test]
    fn churn_baseline_points_carry_their_parameters() {
        let points = run_points(
            "default",
            "{\"program\": \"churn\", \"backend\": \"simulated\", \"vprocs\": [1]}",
        );
        assert_eq!(points[0].program, "Synthetic-Churn");
        assert_eq!(points[0].checksum_ok, Some(true));
        let json = points[0].to_json();
        assert!(json.contains("\"objects_per_worker\": "));
        assert!(json.contains("\"workers\": "));
    }

    #[test]
    fn figure8_point_lands_in_the_csv() {
        let point = figure8_point("dmm", Scale::tiny(), PlacementPolicy::Interleave);
        let csv = figure8_csv(std::slice::from_ref(&point));
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .expect("header row")
            .ends_with("steals_cross_node"));
        let row = lines.next().expect("data row");
        assert!(row.starts_with("Dense-Matrix-Multiply,interleave,4,"));
        assert_eq!(row.split(',').count(), 10);
        let table = format_figure8(std::slice::from_ref(&point));
        assert!(table.contains("cross-node"));
        assert!(table.contains("interleave"));
    }

    #[test]
    fn serve_points_report_latency_and_survive_the_json_schema() {
        // One simulated point at the fast preset: deterministic, and enough
        // to pin the whole serve reporting pipeline.
        let points = run_points(
            "default",
            "{\"program\": \"server\", \"backend\": \"simulated\", \"vprocs\": [2]}",
        );
        let point = &points[0];
        assert_eq!(point.program, "Request-Server");
        assert_eq!(point.checksum_ok, Some(true));
        assert_eq!(
            point.report.requests_served(),
            ServeParams::small().total_requests()
        );
        assert!(point.report.throughput_rps() > 0.0);
        let json = point.to_json();
        for key in [
            "\"requests_served\": 400",
            "\"throughput_rps\": ",
            "\"latency_p50_ns\": ",
            "\"latency_p99_ns\": ",
            "\"latency_p999_ns\": ",
            "\"latency_max_ns\": ",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let table = corpus::format_corpus(&points);
        assert!(table.contains("p99-lat"));
        assert!(table.contains("simulated"));
        assert!(table.trim_end().ends_with("ok"));
    }

    #[test]
    fn serve_budgeted_point_carries_the_budget() {
        let points = run_points(
            "default",
            "{\"program\": \"server\", \"backend\": \"simulated\", \"vprocs\": [2], \
              \"pause_budget_us\": 500}",
        );
        assert_eq!(points[0].config.gc.pause_budget_us, Some(500));
        assert_eq!(points[0].checksum_ok, Some(true));
        assert!(corpus::format_corpus(&points).contains("500"));
    }

    #[test]
    fn figure_formatting_includes_every_benchmark() {
        let spec = FigureSpec {
            name: "test",
            title: "test figure",
            topology: Topology::dual_node_test(),
            policy: AllocPolicy::Local,
            threads: vec![1, 2],
        };
        let data = run_figure(&spec, Scale::tiny());
        let text = format_figure(&spec, &data);
        for workload in Workload::FIGURES {
            assert!(text.contains(workload.label()));
        }
        let csv = figure_csv(&data);
        assert_eq!(csv.lines().count(), 1 + 5 * 2);
    }
}
