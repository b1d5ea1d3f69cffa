//! NUMA placement-policy behaviour over the real workloads.
//!
//! Covers the acceptance condition of the NUMA-awareness PR — Barnes-Hut
//! must promote strictly fewer remote-node bytes under `NodeLocal` than
//! under `Interleave` — plus the placement edge cases: a single-node
//! topology (everything is local by construction), vproc counts that do not
//! divide evenly across nodes, and checksum invariance across every
//! placement policy on both backends.

use mgc_heap::HeapConfig;
use mgc_numa::{NodeId, PlacementPolicy, Topology, TopologyBuilder};
use mgc_runtime::{Backend, EnvOverrides, RunRecord};
use mgc_workloads::{Scale, Workload};

/// A single-node machine with four cores: every address is node-local.
fn single_node_topology() -> Topology {
    TopologyBuilder::new("test-single-node")
        .packages(1)
        .nodes_per_package(1)
        .cores_per_node(4)
        .local_bandwidth_gbps(20.0)
        .same_package_bandwidth_gbps(20.0)
        .cross_package_bandwidth_gbps(20.0)
        .build()
        .expect("the single-node test topology is valid")
}

fn run(
    workload: Workload,
    backend: Backend,
    topology: Topology,
    vprocs: usize,
    placement: PlacementPolicy,
) -> RunRecord {
    workload
        .experiment(Scale::tiny())
        .env_overrides(EnvOverrides::default())
        .backend(backend)
        .topology(topology)
        .vprocs(vprocs)
        .placement(placement)
        .run()
        .expect("the placement test configurations are valid")
}

/// Like [`run`], but with the small test heap (4 KiB chunks) so a run
/// performs many chunk leases — which is what makes the interleave cursor's
/// node alternation observable.
fn run_small_chunks(workload: Workload, vprocs: usize, placement: PlacementPolicy) -> RunRecord {
    workload
        .experiment(Scale::tiny())
        .env_overrides(EnvOverrides::default())
        .backend(Backend::Threaded)
        .topology(Topology::dual_node_test())
        .vprocs(vprocs)
        .heap(HeapConfig::small_for_tests())
        .placement(placement)
        .run()
        .expect("the placement test configurations are valid")
}

/// The acceptance condition: on the threaded backend Barnes-Hut promotes
/// strictly fewer remote-node bytes under `NodeLocal` than under
/// `Interleave`.
///
/// The strict comparison runs at one vproc with small (4 KiB) chunks, where
/// it is fully deterministic: the single worker's promotion leases strictly
/// alternate nodes under `Interleave` (≈ half of Barnes-Hut's ~64 chunk
/// leases land on the remote node), while `NodeLocal` leases every chunk on
/// the consumer's node and promotes zero remote bytes.
#[test]
fn barnes_hut_node_local_beats_interleave_on_remote_bytes() {
    let node_local = run_small_chunks(Workload::BarnesHut, 1, PlacementPolicy::NodeLocal);
    let interleave = run_small_chunks(Workload::BarnesHut, 1, PlacementPolicy::Interleave);
    for record in [&node_local, &interleave] {
        assert_ne!(record.checksum_ok, Some(false), "wrong checksum");
        assert!(
            record.report.total_promoted_bytes() > 0,
            "Barnes-Hut must promote (it publishes per-block results)"
        );
    }
    let local_remote = node_local.report.promoted_bytes_remote();
    let interleave_remote = interleave.report.promoted_bytes_remote();
    assert_eq!(
        local_remote, 0,
        "NodeLocal leases every chunk on the consumer's node, so nothing is remote"
    );
    assert!(
        local_remote < interleave_remote,
        "NodeLocal must promote strictly fewer remote bytes than Interleave \
         (node-local {local_remote} vs interleave {interleave_remote})"
    );
    // The split accounts for every promoted byte — explicit (steal/publish)
    // promotions and major-collection promotions alike.
    assert_eq!(
        interleave.report.promoted_bytes_local() + interleave_remote,
        interleave.report.total_promoted_bytes(),
        "local + remote must cover exactly the promoted bytes"
    );
}

/// The same invariant holds with real parallelism: at 4 vprocs `NodeLocal`
/// still promotes zero remote bytes (steal handoffs lease from the thief's
/// node; publications from the promoting worker's own node), so it can never
/// do worse than `Interleave`.
#[test]
fn barnes_hut_node_local_is_all_local_at_four_vprocs() {
    let node_local = run_small_chunks(Workload::BarnesHut, 4, PlacementPolicy::NodeLocal);
    assert_ne!(node_local.checksum_ok, Some(false), "wrong checksum");
    assert!(node_local.report.total_promoted_bytes() > 0);
    assert_eq!(
        node_local.report.promoted_bytes_remote(),
        0,
        "NodeLocal placement must keep every promoted byte on its consumer's node"
    );
    let interleave = run_small_chunks(Workload::BarnesHut, 4, PlacementPolicy::Interleave);
    assert!(
        node_local.report.promoted_bytes_remote() <= interleave.report.promoted_bytes_remote(),
        "NodeLocal can never promote more remote bytes than Interleave"
    );
}

/// On a single-node topology every placement policy degenerates to the same
/// thing: all promoted bytes are local, and no steal can cross a node.
#[test]
fn single_node_topology_has_zero_remote_bytes_under_every_placement() {
    for placement in PlacementPolicy::ALL {
        let record = run(
            Workload::Quicksort,
            Backend::Threaded,
            single_node_topology(),
            4,
            placement,
        );
        assert_ne!(record.checksum_ok, Some(false), "{placement}: bad checksum");
        assert_eq!(
            record.report.promoted_bytes_remote(),
            0,
            "{placement}: a single-node machine has nowhere remote to promote to"
        );
        assert_eq!(
            record.report.steals_cross_node(),
            0,
            "{placement}: a single-node machine has no cross-node victims"
        );
        assert_eq!(
            record.report.total_steals(),
            record.report.steals_same_node() + record.report.steals_cross_node(),
            "{placement}: every steal is classified exactly once"
        );
    }
}

/// Three vprocs on a two-node topology: the assignment cannot be even. The
/// run must still complete correctly, with the workers spread over both
/// nodes (two on one, one on the other) and the steal classification
/// consistent.
#[test]
fn vprocs_not_divisible_across_nodes_run_correctly() {
    let topology = Topology::dual_node_test();
    // The sparse core assignment puts vprocs 0/2 on node 0 and vproc 1 on
    // node 1 (round-robin across nodes).
    let cores = topology.spread_cores(3);
    let nodes: Vec<NodeId> = cores.iter().map(|&c| topology.node_of_core(c)).collect();
    let distinct: std::collections::HashSet<_> = nodes.iter().collect();
    assert_eq!(distinct.len(), 2, "three vprocs must span both nodes");

    for backend in Backend::ALL {
        let record = run(
            Workload::Dmm,
            backend,
            topology.clone(),
            3,
            PlacementPolicy::NodeLocal,
        );
        assert_eq!(
            record.checksum_ok,
            Some(true),
            "{backend}: wrong checksum at an odd vproc count"
        );
        assert_eq!(record.report.per_vproc.len(), 3);
        assert_eq!(
            record.report.total_steals(),
            record.report.steals_same_node() + record.report.steals_cross_node(),
            "{backend}: steal locality classification must partition the steals"
        );
    }
}

/// Placement policy moves memory around; it must never change what a
/// program computes. Every policy, both backends, same checksum.
#[test]
fn placement_policy_never_changes_checksums() {
    for workload in [Workload::Dmm, Workload::Raytracer] {
        let mut checksums = Vec::new();
        for backend in Backend::ALL {
            for placement in PlacementPolicy::ALL {
                let record = run(workload, backend, Topology::dual_node_test(), 4, placement);
                assert_eq!(
                    record.checksum_ok,
                    Some(true),
                    "{workload} on {backend} under {placement}: wrong checksum"
                );
                let (word, is_ptr) = record.result.expect("a checksum is produced");
                assert!(!is_ptr);
                checksums.push(word);
            }
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "{workload}: checksums diverge across backend × placement ({checksums:x?})"
        );
    }
}

/// Chunk leases of simulated Quicksort at tiny scale on the paper's 48-core
/// machine, 12 vprocs under node-local placement and the local page policy.
/// A steal handoff retargets the victim's promotions at the thief's node and
/// back; the chunk left at each switch goes back to its node and is
/// continued. Abandoning it instead (as before) created 47 chunks and
/// leased 47 here: every switch mapped a fresh chunk. Continued chunks fill
/// sooner, so one more lease is made (and charged) than before.
#[test]
fn simulated_quicksort_chunk_leases_are_pinned() {
    use mgc_heap::GcHeap;
    use mgc_numa::AllocPolicy;
    use mgc_runtime::Machine;

    let config = Workload::Quicksort
        .experiment(Scale::tiny())
        .env_overrides(EnvOverrides::default())
        .backend(Backend::Simulated)
        .topology(Topology::amd_magny_cours_48())
        .vprocs(12)
        .placement(PlacementPolicy::NodeLocal)
        .policy(AllocPolicy::Local)
        .validate()
        .expect("the pinned configuration is valid");
    let mut machine = Machine::new(config.machine);
    Workload::Quicksort.spawn(&mut machine, Scale::tiny());
    machine.run();
    let global = machine.heap().global();
    assert_eq!(
        (global.chunks_created(), global.chunk_acquisitions()),
        (29, 48),
        "(chunks created, chunk leases)"
    );
}
