//! Simulated virtual time, pinned bit for bit.
//!
//! The simulated backend is deterministic: every `elapsed_ns` it reports is
//! a fixed number. This runs the five figure programs at tiny inputs on the
//! paper's 48-core topology at 1 and 12 vprocs and compares the bits of each
//! `elapsed_ns` with the values recorded below. Anything that moves virtual
//! time — the cost model, the scheduler, the collector, the read path —
//! fails it, in the plain `cargo test` run; `results/baseline/figures-tiny.sha256`
//! pins the same thing for the whole figure sweep. A change that means to
//! move virtual time re-records the table from the failure message and says
//! so.

use mgc_numa::Topology;
use mgc_runtime::{Backend, EnvOverrides};
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
