//! Cross-backend equivalence: the simulated and the threaded executor must
//! agree on every deterministic invariant of every workload.
//!
//! What is deterministic across backends (and vproc counts):
//!
//! * the **workload checksum** — every benchmark folds its result in child
//!   order, so even floating-point sums are bit-stable;
//! * the **task count** — the fork tree is a pure function of the input;
//! * **total nursery allocations** — what a workload allocates depends only
//!   on its input, never on scheduling.
//!
//! What is not: promotion volume (both backends promote lazily — on steal
//! and on publication to machine-global structures — but *which* tasks are
//! stolen depends on real scheduling on the threaded backend) and therefore
//! the number of global collections — those are compared within a generous
//! tolerance only.
//!
//! Both runs go through the [`Experiment`] front door with an explicit
//! `backend(..)`, which pins the backend regardless of `MGC_BACKEND`, once
//! under the paper's fixed global-collection trigger
//! (`global_growth_factor` 0.0) and once under the proportional default
//! (2.0): the trigger moves *when* global collections happen, never what a
//! run computes.

use mgc_heap::word_to_f64;
use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{Backend, EnvOverrides, Experiment, GcConfig, RunRecord};
use mgc_workloads::{churn, Scale, Workload};

/// Thread count for the threaded backend; override with `MGC_VPROCS` (the
/// CI threaded-smoke job runs with `MGC_VPROCS=4`). Clamped to the
/// dual-node test topology's core count, since `Experiment` validation
/// rejects oversubscription.
fn threaded_vprocs() -> usize {
    EnvOverrides::capture()
        .vprocs
        .unwrap_or(4)
        .min(Topology::dual_node_test().num_cores())
}

fn run_on(
    backend: Backend,
    vprocs: usize,
    workload: Workload,
    scale: Scale,
    global_growth_factor: f64,
) -> RunRecord {
    workload
        .experiment(scale)
        .gc(GcConfig {
            global_growth_factor,
            ..GcConfig::default()
        })
        .backend(backend)
        .topology(Topology::dual_node_test())
        .vprocs(vprocs)
        .policy(AllocPolicy::Local)
        .run()
        .expect("the equivalence configurations are valid")
}

fn checksums_agree(workload: Workload, sim: u64, threaded: u64) -> bool {
    if sim == threaded {
        return true;
    }
    // Integer checksums must be bit-identical: reinterpreting differing
    // integers as f64 bit patterns would yield denormals whose difference
    // always slips under a relative tolerance.
    if matches!(workload, Workload::Quicksort | Workload::Churn) {
        return false;
    }
    // Float checksums should be bit-identical too (summation happens in
    // child order on both backends), but keep the diagnostic gentle if a
    // summation order ever changes. The magnitude guard rejects denormal
    // bit patterns that are really disguised integers.
    let a = word_to_f64(sim);
    let b = word_to_f64(threaded);
    a.is_finite() && b.is_finite() && a.abs() > 1e-300 && (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

#[test]
fn backends_agree_on_deterministic_invariants_for_every_workload() {
    let scale = Scale::tiny();
    let vprocs = threaded_vprocs();
    let cases = Workload::FIGURES
        .into_iter()
        .flat_map(|workload| [0.0, 2.0].map(|factor| (workload, factor)));
    let mut previous = None;
    for (workload, factor) in cases {
        let sim = run_on(Backend::Simulated, 2, workload, scale, factor);
        let threaded = run_on(Backend::Threaded, vprocs, workload, scale, factor);

        let (sim_word, sim_is_ptr) = sim.result.expect("simulated run produces a checksum");
        let (thr_word, thr_is_ptr) = threaded.result.expect("threaded run produces a checksum");
        assert_eq!(sim_is_ptr, thr_is_ptr, "{workload}: result kinds differ");
        assert!(
            checksums_agree(workload, sim_word, thr_word),
            "{workload}: checksums diverge (simulated {sim_word:#x} vs threaded {thr_word:#x})"
        );
        // A workload's two cases are adjacent: the second trigger setting
        // must reproduce the first's results bit for bit.
        if let Some((_, words)) = previous.filter(|&(w, _)| w == workload) {
            assert_eq!(
                words,
                (sim_word, thr_word),
                "{workload}: the global-collection trigger changed a result"
            );
        }
        previous = Some((workload, (sim_word, thr_word)));
        // Every figure workload computes for real and declares an expected
        // checksum, so both backends must positively verify the math —
        // `None` would mean the reference silently stopped being checked.
        assert_eq!(
            sim.checksum_ok,
            Some(true),
            "{workload}: simulated run must verify the real computation"
        );
        assert_eq!(
            threaded.checksum_ok,
            Some(true),
            "{workload}: threaded run must verify the real computation"
        );

        assert_eq!(
            sim.report.total_tasks(),
            threaded.report.total_tasks(),
            "{workload}: task trees diverge"
        );
        assert_eq!(
            sim.report.allocated_objects, threaded.report.allocated_objects,
            "{workload}: allocation counts diverge"
        );
        assert_eq!(
            sim.report.allocated_words, threaded.report.allocated_words,
            "{workload}: allocation volumes diverge"
        );

        // The threaded backend promotes stolen work at handoff and
        // published data (results, continuations, messages) at publication.
        // Under lazy promotion-on-steal a threaded run where no task is
        // actually stolen may legitimately promote *nothing* even when the
        // simulated model (whose scheduler steals deterministically) does —
        // that is the point of the design. What must always hold is the
        // internal consistency of the steal-side accounting.
        if threaded.report.total_steals() == 0 {
            assert_eq!(
                threaded.report.promotions_at_steal(),
                0,
                "{workload}: steal-driven promotions without any steal"
            );
        }
        if threaded.report.promotions_at_steal() > 0 {
            assert!(
                threaded.report.total_steals() > 0,
                "{workload}: promotion attributed to steals that never happened"
            );
        }

        // Global collections depend on promotion volume; require the two
        // backends to be within a generous factor of each other (per vproc,
        // since each participant counts the collection once).
        let sim_globals = sim.report.gc.global_collections / sim.report.vprocs as u64;
        let thr_globals = threaded.report.gc.global_collections / threaded.report.vprocs as u64;
        let bound = |x: u64| 5 * x + 5;
        assert!(
            sim_globals <= bound(thr_globals) && thr_globals <= bound(sim_globals),
            "{workload}: global collection counts diverge wildly \
             (simulated {sim_globals} vs threaded {thr_globals} per vproc)"
        );
    }
}

#[test]
fn churn_survivors_are_identical_across_backends() {
    let params = churn::ChurnParams::small();
    let expected = churn::expected_checksum_value(params);

    for (backend, vprocs) in [
        (Backend::Simulated, 2),
        (Backend::Threaded, threaded_vprocs()),
    ] {
        let record = Experiment::new(churn::Churn::new(params))
            .backend(backend)
            .topology(Topology::dual_node_test())
            .vprocs(vprocs)
            .policy(AllocPolicy::Local)
            .run()
            .expect("the churn configurations are valid");
        let (word, is_ptr) = record.result.expect("churn produces a count");
        assert!(!is_ptr);
        assert_eq!(mgc_heap::word_to_i64(word), expected, "{backend}");
        assert_eq!(record.checksum_ok, Some(true), "{backend}");
    }
}
