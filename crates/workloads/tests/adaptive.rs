//! Adaptive placement over real workloads.
//!
//! The controller's hysteresis arithmetic is pinned by deterministic unit
//! tests in `mgc-numa`; this suite checks the end-to-end contract instead:
//! a churning workload drives at least one recorded placement switch on
//! **both** backends without changing what the program computes, the
//! decision telemetry reaches the `RunRecord` JSON, and adaptive stays
//! byte-competitive with the better static policy.

use mgc_heap::HeapConfig;
use mgc_numa::{DecisionReason, PlacementMode, PlacementPolicy, Topology};
use mgc_runtime::{Backend, EnvOverrides, Experiment, RunRecord};
use mgc_workloads::churn::{Churn, ChurnParams};
use mgc_workloads::{Scale, Workload};

/// A churn that promotes often: every fourth object survives into the
/// global heap, across four workers spread over both nodes.
fn churn_params() -> ChurnParams {
    ChurnParams {
        objects_per_worker: 600,
        object_words: 8,
        survive_every: 4,
        workers: 4,
    }
}

fn run_churn(backend: Backend, placement: PlacementPolicy) -> RunRecord {
    Experiment::new(Churn::new(churn_params()))
        .env_overrides(EnvOverrides::default())
        .backend(backend)
        .topology(Topology::dual_node_test())
        .vprocs(4)
        .heap(HeapConfig::small_for_tests())
        .placement(placement)
        .run()
        .expect("the adaptive churn configuration is valid")
}

/// The acceptance test for the adaptive integration: a churning
/// workload makes the controller record at least one switch on both
/// backends, the first recorded decision is the cold-start adoption of
/// node-local placement, and the checksum still verifies.
#[test]
fn churning_workload_triggers_a_switch_on_both_backends() {
    for backend in Backend::ALL {
        let record = run_churn(backend, PlacementPolicy::Adaptive);
        assert_eq!(
            record.checksum_ok,
            Some(true),
            "{backend}: adaptive placement must not change the computed result"
        );
        assert!(
            record.report.placement_switches() >= 1,
            "{backend}: a promoting run must record at least the cold-start switch"
        );
        assert_eq!(
            record.report.placement_decisions.len() as u64,
            record.report.placement_switches(),
            "{backend}: every counted switch carries a recorded decision"
        );
        let first = record
            .report
            .placement_decisions
            .first()
            .expect("at least one decision is recorded");
        assert_eq!(first.decision.reason, DecisionReason::ColdStart);
        assert_eq!(first.decision.to, PlacementMode::NodeLocal);

        // The telemetry CI greps for must land in the record JSON.
        let json = record.to_json();
        assert!(json.contains("\"placement_switches\": "));
        assert!(json.contains("\"placement_decisions\": "));
        assert!(json.contains("\"reason\": \"cold-start\""));
        assert!(json.contains("\"node_bindings\": "));
    }
}

/// Static policies must not grow adaptive telemetry: no switches, no
/// decisions, under either backend.
#[test]
fn static_policies_record_no_adaptive_telemetry() {
    for backend in Backend::ALL {
        for placement in [PlacementPolicy::NodeLocal, PlacementPolicy::Interleave] {
            let record = run_churn(backend, placement);
            assert_eq!(record.checksum_ok, Some(true));
            assert_eq!(
                record.report.placement_switches(),
                0,
                "{backend}/{placement}: static policies never switch"
            );
            assert!(record.report.placement_decisions.is_empty());
        }
    }
}

/// The figure-8 acceptance in miniature: on Barnes-Hut (the most
/// promotion-heavy figure workload) adaptive placement's remote bytes stay
/// within 1.1× of the better static policy — after the cold-start adoption
/// it behaves exactly like node-local until the ledger shows real remote
/// pressure.
#[test]
fn adaptive_is_byte_competitive_with_the_better_static_policy() {
    let run = |placement| {
        Workload::BarnesHut
            .experiment(Scale::tiny())
            .env_overrides(EnvOverrides::default())
            .backend(Backend::Threaded)
            .topology(Topology::dual_node_test())
            .vprocs(4)
            .heap(HeapConfig::small_for_tests())
            .placement(placement)
            .run()
            .expect("the figure-8 configurations are valid")
    };
    let node_local = run(PlacementPolicy::NodeLocal);
    let interleave = run(PlacementPolicy::Interleave);
    let adaptive = run(PlacementPolicy::Adaptive);
    for record in [&node_local, &interleave, &adaptive] {
        assert_eq!(record.checksum_ok, Some(true));
        assert!(record.report.total_promoted_bytes() > 0);
    }
    let better_static = node_local
        .report
        .promoted_bytes_remote()
        .min(interleave.report.promoted_bytes_remote());
    let adaptive_remote = adaptive.report.promoted_bytes_remote();
    assert!(
        adaptive_remote as f64 <= (better_static as f64) * 1.1 + 0.5,
        "adaptive must stay within 1.1× of the better static policy's remote \
         bytes (adaptive {adaptive_remote} vs better static {better_static})"
    );
    assert!(adaptive.report.placement_switches() >= 1);
}
