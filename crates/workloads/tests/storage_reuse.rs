//! Programs on recycled heap storage.
//!
//! Every local heap and chunk takes the buffer a dropped one left behind, as
//! it was left. A run must not depend on what that buffer holds: a simulated
//! program run twice in one process reports the same bits, and a program
//! whose heaps start on forged words still verifies after every collection
//! and computes the right answer, on both backends.

use mgc_heap::{GcHeap, Header, Heap, HeapConfig, ObjectKind, Word, GLOBAL_BASE, LOCAL_BASE};
use mgc_numa::{NodeId, Topology};
use mgc_runtime::{Backend, EnvOverrides, GcConfig, RunRecord};
use mgc_workloads::{Scale, Workload};

/// A simulated program at 12 vprocs on the 48-core topology, with the
/// default heap and a global threshold low enough that Quicksort collects.
fn simulated(workload: Workload) -> RunRecord {
    workload
        .experiment(Scale::tiny())
        .env_overrides(EnvOverrides::default())
        .backend(Backend::Simulated)
        .topology(Topology::amd_magny_cours_48())
        .vprocs(12)
        .gc(GcConfig {
            global_threshold_per_vproc_bytes: 64 * 1024,
            ..GcConfig::default()
        })
        .run()
        .expect("a valid configuration")
}

/// What a run reports that virtual time and the collector decide.
fn fingerprint(record: &RunRecord) -> (u64, [u64; 7], Option<(Word, bool)>) {
    let gc = &record.report.gc;
    let counts = [
        gc.minor_collections,
        gc.major_collections,
        gc.global_collections,
        gc.minor_copied_bytes,
        gc.major_promoted_bytes,
        gc.promotion_bytes,
        gc.global_copied_bytes,
    ];
    (record.report.elapsed_ns.to_bits(), counts, record.result)
}

#[test]
fn a_simulated_program_run_twice_in_one_process_is_bit_identical() {
    for workload in [Workload::Quicksort, Workload::BarnesHut] {
        let first = simulated(workload);
        let second = simulated(workload);
        assert_eq!(first.checksum_ok, Some(true), "{workload}");
        assert_eq!(fingerprint(&second), fingerprint(&first), "{workload}");
    }
}

/// Fills spare storage of `config`'s geometry with forged headers and
/// pointer-looking words: a heap of `vprocs` vprocs with `chunks` chunks
/// written word by word, then dropped.
fn poison(config: HeapConfig, vprocs: usize, chunks: usize) {
    let forged = |i: usize| match i % 4 {
        0 => Header::new(ObjectKind::Vector, 3).encode(),
        1 => GLOBAL_BASE + 8 * (1 + i as u64 % 512),
        2 => LOCAL_BASE + 8 * (1 + i as u64 % 1024),
        _ => Header::new(ObjectKind::Raw, 1 << 20).encode(),
    };
    let nodes: Vec<NodeId> = (0..vprocs).map(|v| NodeId::new(v as u16 % 2)).collect();
    let mut heap = Heap::new(config, &nodes, 2);
    for vproc in 0..vprocs {
        let local = heap.worker_mut(vproc).local_mut();
        for offset in 0..local.size_words() {
            local.write(offset, forged(offset));
        }
    }
    for i in 0..chunks {
        let id = heap.worker_mut(i % vprocs).fresh_current_chunk();
        let chunk = heap.global().chunk(id);
        for offset in 0..chunk.size_words() {
            chunk.write(offset, forged(offset));
        }
    }
}

#[test]
fn programs_on_forged_storage_verify_and_check_on_both_backends() {
    let heap = HeapConfig::small_for_tests();
    for backend in Backend::ALL {
        for workload in [Workload::Quicksort, Workload::BarnesHut] {
            poison(heap, 4, 256);
            let record = workload
                .experiment(Scale::tiny())
                .env_overrides(EnvOverrides::default())
                .backend(backend)
                .topology(Topology::dual_node_test())
                .vprocs(4)
                .heap(heap)
                .gc(GcConfig::small_for_tests())
                .run()
                .expect("a valid configuration");
            let gc = &record.report.gc;
            let what = format!("{workload} on {backend}");
            assert_eq!(record.checksum_ok, Some(true), "{what}");
            assert!(gc.minor_collections > 0, "{what}: no minor");
            assert!(gc.major_collections > 0, "{what}: no major");
            assert!(gc.promotion_bytes > 0, "{what}: no promotion");
            assert!(gc.global_collections > 0, "{what}: no global collection");
        }
    }
}
