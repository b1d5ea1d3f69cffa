//! Simulated virtual time, pinned bit for bit.
//!
//! The simulated backend is deterministic: every `elapsed_ns` it reports is
//! a fixed number. This runs the five figure programs at tiny inputs on the
//! paper's 48-core topology at 1 and 12 vprocs and compares the bits of each
//! `elapsed_ns` with the values recorded below. None of those points runs a
//! global collection, so a second table runs Quicksort with a low global
//! threshold and pins its global collections and copied bytes as well, and
//! a third pins the promotion ledger (steal and publish promotions, local
//! and remote promoted bytes), which does not feed virtual time.
//! Anything that moves virtual time — the cost model, the scheduler, the
//! collector, the read path — fails it, in the plain `cargo test` run;
//! `results/baseline/figures-tiny.sha256` pins the same thing for the whole
//! figure sweep. A change that means to move virtual time re-records the
//! table from the failure message and says so.

use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{Backend, EnvOverrides, GcConfig};
use mgc_workloads::{Scale, Workload};

/// `(program, vprocs, elapsed_ns.to_bits())`.
const PINNED: [(Workload, usize, u64); 10] = [
    (Workload::Dmm, 1, 0x4100791d7d2ac0a4), // 134947.68611670018 ns
    (Workload::Dmm, 12, 0x40db4ecd12073615), // 27963.20422535211 ns
    (Workload::Raytracer, 1, 0x4125ee08c1ac8e2b), // 718596.3782696178 ns
    (Workload::Raytracer, 12, 0x40f22fd691416aa0), // 74493.41046277666 ns
    (Workload::Quicksort, 1, 0x4141339a51800d30), // 2254644.636720322 ns
    (Workload::Quicksort, 12, 0x41299b4db0bace61), // 839078.845175218 ns
    (Workload::BarnesHut, 1, 0x4162ae052e72c4ee), // 9793577.451509919 ns
    (Workload::BarnesHut, 12, 0x4139d397abcf8344), // 1692567.6711351434 ns
    (Workload::Smvm, 1, 0x40f96336f42725a3), // 103987.434607646 ns
    (Workload::Smvm, 12, 0x40dc6acd89877804), // 29099.211519114688 ns
];

#[test]
fn simulated_virtual_time_is_pinned() {
    let mut moved = Vec::new();
    for (workload, vprocs, bits) in PINNED {
        let record = workload
            .experiment(Scale::tiny())
            .env_overrides(EnvOverrides::default())
            .backend(Backend::Simulated)
            .topology(Topology::amd_magny_cours_48())
            .vprocs(vprocs)
            .verify_checksum(false)
            .run()
            .expect("the pinned configurations are valid");
        let elapsed = record.report.elapsed_ns;
        if elapsed.to_bits() != bits {
            moved.push(format!(
                "    (Workload::{workload:?}, {vprocs}, {:#018x}), // {elapsed} ns",
                elapsed.to_bits()
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "simulated virtual time moved; the new values:\n{}",
        moved.join("\n")
    );
}

/// `(vprocs, policy, elapsed_ns.to_bits(), global_collections,
/// global_copied_bytes)` for Quicksort with a 64 KiB per-vproc global
/// threshold — low enough that the simulated global collection runs, which
/// none of the points above reaches at tiny scale. The count is summed over
/// the vprocs that join each collection. Every point must copy: from 36
/// vprocs up the run's one global collection finds nothing live in the
/// global heap (at any threshold from 1 to 256 KiB), so the widest point
/// is 32 vprocs.
const PINNED_GLOBAL: [(usize, AllocPolicy, u64, u64, u64); 6] = [
    (1, AllocPolicy::Local, 0x414326f8a0ac855c, 1, 250928), // 2510321.255264921 ns
    (1, AllocPolicy::SocketZero, 0x414326f8a0ac855c, 1, 250928), // 2510321.255264921 ns
    (12, AllocPolicy::Local, 0x412b9cc9198c69e6, 36, 216960), // 904804.5498993963 ns
    (12, AllocPolicy::SocketZero, 0x41302eab3ee0ec3f, 36, 441520), // 1060523.24561955 ns
    (32, AllocPolicy::Local, 0x41248f720fb80651, 32, 215824), // 673721.0307008718 ns
    (32, AllocPolicy::SocketZero, 0x412782f39c09c09e, 32, 213152), // 770425.804761905 ns
];

#[test]
fn simulated_global_collection_is_pinned() {
    let gc = GcConfig {
        global_threshold_per_vproc_bytes: 64 * 1024,
        ..GcConfig::default()
    };
    let mut moved = Vec::new();
    for (vprocs, policy, bits, globals, copied) in PINNED_GLOBAL {
        let record = Workload::Quicksort
            .experiment(Scale::tiny())
            .env_overrides(EnvOverrides::default())
            .backend(Backend::Simulated)
            .topology(Topology::amd_magny_cours_48())
            .vprocs(vprocs)
            .policy(policy)
            .gc(gc)
            .verify_checksum(false)
            .run()
            .expect("the pinned configurations are valid");
        let report = &record.report;
        assert!(
            report.gc.global_copied_bytes > 0,
            "{vprocs} vprocs, {policy:?}: a pinned global collection must copy"
        );
        let got = (
            report.elapsed_ns.to_bits(),
            report.gc.global_collections,
            report.gc.global_copied_bytes,
        );
        if got != (bits, globals, copied) {
            moved.push(format!(
                "    ({vprocs}, AllocPolicy::{policy:?}, {:#018x}, {}, {}), // {} ns",
                got.0, got.1, got.2, report.elapsed_ns
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "the simulated global collection moved; the new values:\n{}",
        moved.join("\n")
    );
}

/// `(program, policy, promotions_at_steal, promoted_bytes_at_steal,
/// promotions_at_publish, promoted_bytes_at_publish, promoted_bytes_local,
/// promoted_bytes_remote)` at 12 vprocs: the simulated promotion ledger.
/// These counters do not feed virtual time, so the tables above do not see
/// them; under `SocketZero` the remote column is the bytes promoted into
/// node 0's chunks on behalf of a consumer elsewhere.
const PINNED_LEDGER: [(Workload, AllocPolicy, [u64; 6]); 4] = [
    (
        Workload::Quicksort,
        AllocPolicy::Local,
        [37, 1801496, 29, 208328, 2009824, 0],
    ),
    (
        Workload::Quicksort,
        AllocPolicy::SocketZero,
        [37, 1819064, 28, 200560, 263272, 1756352],
    ),
    (
        Workload::BarnesHut,
        AllocPolicy::Local,
        [18, 365184, 174, 118512, 483696, 0],
    ),
    (
        Workload::BarnesHut,
        AllocPolicy::SocketZero,
        [18, 365184, 174, 118512, 177344, 306352],
    ),
];

#[test]
fn simulated_promotion_ledger_is_pinned() {
    let mut moved = Vec::new();
    for (workload, policy, ledger) in PINNED_LEDGER {
        let record = workload
            .experiment(Scale::tiny())
            .env_overrides(EnvOverrides::default())
            .backend(Backend::Simulated)
            .topology(Topology::amd_magny_cours_48())
            .vprocs(12)
            .policy(policy)
            .verify_checksum(false)
            .run()
            .expect("the pinned configurations are valid");
        let report = &record.report;
        let got = [
            report.promotions_at_steal(),
            report.promoted_bytes_at_steal(),
            report.promotions_at_publish(),
            report.promoted_bytes_at_publish(),
            report.promoted_bytes_local(),
            report.promoted_bytes_remote(),
        ];
        if got != ledger {
            moved.push(format!(
                "    (Workload::{workload:?}, AllocPolicy::{policy:?}, {got:?}),"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "the simulated promotion ledger moved; the new values:\n{}",
        moved.join("\n")
    );
}
