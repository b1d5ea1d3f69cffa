//! Simulated virtual time, pinned bit for bit.
//!
//! The simulated backend is deterministic: every `elapsed_ns` it reports is
//! a fixed number. This runs the five figure programs at tiny inputs on the
//! paper's 48-core topology at 1 and 12 vprocs and compares the bits of each
//! `elapsed_ns` with the values recorded below. None of those points runs a
//! global collection, so a second table runs Quicksort with a low global
//! threshold and pins its global collections and copied bytes as well.
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
    (Workload::Quicksort, 1, 0x4150735751b93133), // 4312413.276928234 ns
    (Workload::Quicksort, 12, 0x4134eda172b7da5c), // 1371553.4481178736 ns
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
/// none of the points above reaches at tiny scale.
const PINNED_GLOBAL: [(usize, AllocPolicy, u64, u64, u64); 6] = [
    (1, AllocPolicy::Local, 0x415157a8cdb64ec8, 2, 437728), // 4546211.214252181 ns
    (1, AllocPolicy::SocketZero, 0x415157a8cdb64ec8, 2, 437728), // 4546211.214252181 ns
    (12, AllocPolicy::Local, 0x41370cbabcf601d7, 60, 511464), // 1510586.7381287718 ns
    (12, AllocPolicy::SocketZero, 0x413ef2363f027028, 48, 364408), // 2028086.2461309526 ns
    (48, AllocPolicy::Local, 0x412f4c7adc24aca2, 48, 244192), // 1025597.4299673031 ns
    (48, AllocPolicy::SocketZero, 0x4136018df9cffe58, 48, 248704), // 1442189.9758299794 ns
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
