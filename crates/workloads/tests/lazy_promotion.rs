//! Quantifies the lazy promotion-on-steal win on the threaded backend.
//!
//! The `eager_publication` ablation knob reproduces the pre-lazy-promotion
//! behaviour (every deque push promotes the task's whole reachable graph —
//! Barnes-Hut published its entire tree once per iteration), so these tests
//! pin the acceptance condition of the refactor: promotion volume must be
//! proportional to *steals*, not to *spawns*.
//!
//! `barnes_hut_runs_threaded_at_four_vprocs` doubles as the CI
//! `threaded-smoke` canary: the workload that used to publish its whole tree
//! must finish promptly on 4 OS threads (the job-level timeout turns a
//! deadlock or a promotion storm into a fast failure).

use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{EnvOverrides, GcConfig, MachineConfig, RunReport, ThreadedMachine};
use mgc_workloads::{barnes_hut, Scale, Workload};

fn threaded_vprocs() -> usize {
    EnvOverrides::capture().vprocs.unwrap_or(4)
}

fn run_barnes_hut(vprocs: usize, eager: bool) -> RunReport {
    let mut config = MachineConfig::new(Topology::dual_node_test(), vprocs)
        .with_policy(AllocPolicy::Local)
        .with_gc(GcConfig {
            eager_publication: eager,
            ..GcConfig::default()
        });
    config.quantum_ns = 25_000.0;
    let mut machine = ThreadedMachine::new(config);
    Workload::BarnesHut.spawn(&mut machine, Scale::tiny());
    let report = machine.run();
    assert!(
        barnes_hut::take_checksum(&mut machine).is_some(),
        "the run must produce a checksum"
    );
    report
}

/// The acceptance condition of the lazy-promotion refactor: on the threaded
/// backend Barnes-Hut promotes **at least 50% fewer bytes** than under the
/// eager promote-at-publication scheme of PR 2. At one vproc nothing is
/// ever stolen, so this is deterministic: the eager run promotes the whole
/// tree every iteration, the lazy run only publishes the per-block result
/// leaves.
#[test]
fn lazy_promotion_halves_barnes_hut_promoted_bytes() {
    let eager = run_barnes_hut(1, true);
    let lazy = run_barnes_hut(1, false);
    assert_eq!(
        eager.total_tasks(),
        lazy.total_tasks(),
        "the fork tree is scheduling-independent"
    );
    let eager_bytes = eager.total_promoted_bytes();
    let lazy_bytes = lazy.total_promoted_bytes();
    println!("barnes-hut promoted bytes: eager {eager_bytes}, lazy {lazy_bytes}");
    assert!(
        lazy_bytes * 2 <= eager_bytes,
        "lazy promotion must at least halve Barnes-Hut's promoted bytes \
         (eager {eager_bytes} vs lazy {lazy_bytes})"
    );
    assert_eq!(
        lazy.promotions_at_steal(),
        0,
        "a single-vproc run steals nothing, so nothing is promoted at steal"
    );
}

/// The CI threaded-smoke canary: Barnes-Hut at `MGC_VPROCS` (4 in CI) OS
/// threads, with steal-driven promotion accounted for.
#[test]
fn barnes_hut_runs_threaded_at_four_vprocs() {
    let vprocs = threaded_vprocs();
    let report = run_barnes_hut(vprocs, false);
    assert!(report.wall_clock_ns.is_some());
    if vprocs > 1 && report.total_steals() > 0 {
        // Whatever was stolen was promoted at steal time; the counters must
        // be consistent with each other.
        assert!(
            report.promotions_at_steal() <= report.total_steals() * 2,
            "per-steal promotion ops are bounded by the stolen tasks' roots \
             (steals {}, promotions at steal {})",
            report.total_steals(),
            report.promotions_at_steal()
        );
    }
}

/// Promotion volume on the threaded backend is bounded by the eager
/// publication volume at every vproc count, not just one.
#[test]
fn lazy_never_promotes_more_than_eager_for_barnes_hut() {
    let vprocs = threaded_vprocs();
    let eager = run_barnes_hut(vprocs, true);
    let lazy = run_barnes_hut(vprocs, false);
    // `promotion_bytes` counts explicit promotions (steal handoffs and
    // publications); under eager publication every spawned graph is
    // promoted, so the lazy volume can never exceed it. Scheduling noise
    // affects *which* tasks are stolen, never the bound.
    assert!(
        lazy.gc.promotion_bytes <= eager.gc.promotion_bytes,
        "lazy promotion volume ({}) exceeded the eager-publication volume ({})",
        lazy.gc.promotion_bytes,
        eager.gc.promotion_bytes
    );
}
