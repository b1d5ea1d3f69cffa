//! Bounded-pause properties: with a pause budget set, global collections
//! run as increments and the recorded pauses respect the budget — exactly
//! on the simulated backend (virtual time is sliced into `ceil(cost /
//! budget)` equal increments), and within a documented slack on the
//! threaded backend (each real increment also pays for an unbudgeted local
//! ramp-down, root re-evacuation, and barrier waits, and a loaded CI
//! runner adds scheduling noise on top).
//!
//! Budgeting must never change *what* a run computes: every workload's
//! checksum has to come out identical with and without a budget, on both
//! backends.

use mgc_heap::HeapConfig;
use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{Backend, EnvOverrides, Experiment, GcConfig, RunRecord};
use mgc_workloads::{churn, Scale, Workload};

/// The budget the bounded runs use, in microseconds.
const BUDGET_US: u64 = 200;

/// The documented slack for the threaded bound: one increment may overrun
/// the budget by the unbudgeted ramp-down and root-evacuation work (a few
/// multiples of the budget at test scale) plus an absolute allowance for
/// barrier waits and OS scheduling on an oversubscribed CI runner.
const THREADED_SLACK_FACTOR: f64 = 25.0;
const THREADED_SLACK_NS: f64 = 250e6;

fn run(workload: Workload, backend: Backend, vprocs: usize, budget_us: Option<u64>) -> RunRecord {
    let mut experiment = workload
        .experiment(Scale::tiny())
        .env_overrides(EnvOverrides::default())
        .backend(backend)
        .topology(Topology::dual_node_test())
        .vprocs(vprocs)
        .policy(AllocPolicy::Local);
    if let Some(us) = budget_us {
        experiment = experiment.gc_pause_budget(us);
    }
    experiment
        .run()
        .expect("the pause-budget configurations are valid")
}

/// Churn with the small-for-tests heap and collector geometry and a
/// survivor-heavy parameterisation: the survivors outgrow the tiny global
/// floor several times over, so the run crosses the (proportional)
/// global-collection trigger repeatedly — the pause series the budget
/// bounds.
fn run_churn(backend: Backend, vprocs: usize, budget_us: Option<u64>) -> RunRecord {
    let params = churn::ChurnParams {
        objects_per_worker: 4_000,
        object_words: 8,
        survive_every: 4,
        workers: 4,
    };
    let mut experiment = Experiment::new(churn::Churn::new(params))
        .env_overrides(EnvOverrides::default())
        .backend(backend)
        .topology(Topology::dual_node_test())
        .vprocs(vprocs)
        .heap(HeapConfig::small_for_tests())
        .gc(GcConfig::small_for_tests())
        .policy(AllocPolicy::Local);
    if let Some(us) = budget_us {
        experiment = experiment.gc_pause_budget(us);
    }
    experiment
        .run()
        .expect("the churn pause-budget configurations are valid")
}

#[test]
fn simulated_global_pauses_never_exceed_the_budget() {
    let record = run_churn(Backend::Simulated, 2, Some(BUDGET_US));
    let globals = record.report.global_pause_stats();
    assert!(
        globals.count > 0,
        "churn must trigger global collections for the bound to mean anything"
    );
    let budget_ns = BUDGET_US as f64 * 1e3;
    assert!(
        globals.max_ns <= budget_ns + 1e-6,
        "simulated increments are exact slices: max {} ns must stay under the {} ns budget",
        globals.max_ns,
        budget_ns
    );
    assert_eq!(record.checksum_ok, Some(true));
}

#[test]
fn simulated_budget_slicing_preserves_total_virtual_time() {
    let unbounded = run_churn(Backend::Simulated, 2, None);
    let budgeted = run_churn(Backend::Simulated, 2, Some(BUDGET_US));
    // Slicing a collection into increments redistributes when the pauses
    // are recorded, never how much total collector time is charged.
    assert_eq!(
        unbounded.report.elapsed_ns, budgeted.report.elapsed_ns,
        "budgeting must not change the modelled run time"
    );
    assert!(
        budgeted.report.global_pause_stats().count >= unbounded.report.global_pause_stats().count,
        "a budget can only split pauses, not merge them"
    );
}

#[test]
fn threaded_global_pauses_respect_the_budget_within_slack() {
    let record = run_churn(Backend::Threaded, 2, Some(BUDGET_US));
    let globals = record.report.global_pause_stats();
    assert!(
        globals.count > 0,
        "churn must trigger global collections for the bound to mean anything"
    );
    let budget_ns = BUDGET_US as f64 * 1e3;
    let bound = budget_ns * THREADED_SLACK_FACTOR + THREADED_SLACK_NS;
    assert!(
        globals.max_ns <= bound,
        "threaded max global pause {} ns exceeds the documented slack bound {} ns \
         (budget {} ns)",
        globals.max_ns,
        bound,
        budget_ns
    );
    // Every collection records at least one increment per participant.
    assert!(
        globals.count >= record.report.gc.global_collections,
        "fewer global pause records ({}) than counted participations ({})",
        globals.count,
        record.report.gc.global_collections
    );
    assert_eq!(record.checksum_ok, Some(true));
    // The proportional trigger (factor 2.0, from `small_for_tests`) reads
    // what the last collection retained; an incremental collection re-enters
    // the collector many times but records that figure once, when it
    // releases from-space. Losing it would fall back to the floor and
    // re-copy the survivors at every check (25x the promoted volume here).
    assert_eq!(record.config.gc.global_growth_factor, 2.0);
    assert!(
        record.report.gc.global_collections >= 2 * record.report.vprocs as u64,
        "the second trigger must have fired off a recorded figure"
    );
    assert!(
        record.report.gc.global_copied_bytes <= 2 * record.report.total_promoted_bytes(),
        "{} bytes re-copied for {} promoted",
        record.report.gc.global_copied_bytes,
        record.report.total_promoted_bytes()
    );
}

#[test]
fn budgeted_runs_compute_the_same_checksums_as_unbounded() {
    for workload in Workload::FIGURES {
        for (backend, vprocs) in [(Backend::Simulated, 2), (Backend::Threaded, 2)] {
            let unbounded = run(workload, backend, vprocs, None);
            let budgeted = run(workload, backend, vprocs, Some(BUDGET_US));
            assert_eq!(
                budgeted.checksum_ok,
                Some(true),
                "{workload} on {backend}: the budgeted run must verify its checksum"
            );
            assert_eq!(
                unbounded.result.map(|(word, _)| word),
                budgeted.result.map(|(word, _)| word),
                "{workload} on {backend}: budgeting changed the computed result"
            );
        }
    }
}
