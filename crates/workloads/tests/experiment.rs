//! The `Experiment` front door, exercised over the workload programs:
//!
//! * a property test: any configuration *accepted by validation* runs to
//!   completion on **both** backends at tiny scale and produces a correct
//!   checksum — validation is the only gate between a builder chain and a
//!   successful run;
//! * rejected configurations fail with the matching typed [`ConfigError`],
//!   never a panic.

use mgc_heap::HeapConfig;
use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{Backend, ConfigError, EnvOverrides};
use mgc_workloads::{Scale, Workload};

/// The cheap programs the property test cycles through (tiny scale keeps
/// each run in the tens of milliseconds).
const PROGRAMS: [Workload; 3] = [Workload::Dmm, Workload::Raytracer, Workload::Quicksort];

/// A splitmix64 stream seeded by the case number, so every run sees the
/// same cases.
struct CaseRng(u64);

impl CaseRng {
    fn for_case(case: u64) -> Self {
        let mut rng = CaseRng(0x5EED_C0DE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `bound`.
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[test]
fn accepted_experiments_run_to_completion_on_both_backends() {
    for case in 0..8 {
        let mut rng = CaseRng::for_case(case);
        let vprocs = rng.below(6);
        let policy_index = rng.below(AllocPolicy::ALL.len());
        let program_index = rng.below(3);
        let small_heap = rng.next_u64() as u8;
        let workload = PROGRAMS[program_index];
        let heap = if small_heap.is_multiple_of(2) {
            HeapConfig::default()
        } else {
            HeapConfig::small_for_tests()
        };
        let build = || {
            workload
                .experiment(Scale::tiny())
                .env_overrides(EnvOverrides::default())
                .topology(Topology::dual_node_test())
                .vprocs(vprocs)
                .policy(AllocPolicy::ALL[policy_index])
                .heap(heap)
        };
        match build().validate() {
            Err(err) => {
                // The dual-node test topology has 4 cores, so the only
                // rejectable dimension here is the vproc count.
                assert!(
                    matches!(
                        err,
                        ConfigError::ZeroVprocs | ConfigError::VprocsExceedTopology { .. }
                    ),
                    "unexpected rejection: {err}"
                );
                assert!(vprocs == 0 || vprocs > 4);
            }
            Ok(_) => {
                for backend in Backend::ALL {
                    let record = build()
                        .backend(backend)
                        .run()
                        .expect("validation already accepted this configuration");
                    assert!(record.report.total_tasks() > 0, "{workload} ran no tasks");
                    assert_eq!(
                        record.checksum_ok,
                        Some(true),
                        "{} produced a wrong checksum on {}",
                        workload,
                        backend
                    );
                }
            }
        }
    }
}

#[test]
fn every_config_error_is_reachable_from_the_builder() {
    let experiment = || {
        Workload::Dmm
            .experiment(Scale::tiny())
            .env_overrides(EnvOverrides::default())
            .topology(Topology::dual_node_test())
    };
    assert_eq!(
        experiment().vprocs(0).validate().unwrap_err(),
        ConfigError::ZeroVprocs
    );
    assert_eq!(
        experiment().vprocs(9).validate().unwrap_err(),
        ConfigError::VprocsExceedTopology {
            vprocs: 9,
            cores: 4
        }
    );
    let degenerate = experiment()
        .vprocs(1)
        .heap(HeapConfig {
            chunk_size_bytes: 0,
            ..HeapConfig::default()
        })
        .validate()
        .unwrap_err();
    assert!(matches!(
        degenerate,
        ConfigError::DegenerateHeap {
            field: "chunk_size_bytes",
            ..
        }
    ));
    let degenerate = experiment()
        .vprocs(1)
        .heap(HeapConfig {
            local_heap_bytes: 1,
            ..HeapConfig::default()
        })
        .validate()
        .unwrap_err();
    assert!(matches!(
        degenerate,
        ConfigError::DegenerateHeap {
            field: "local_heap_bytes",
            ..
        }
    ));
    assert_eq!(
        experiment()
            .vprocs(1)
            .quantum_ns(-1.0)
            .validate()
            .unwrap_err(),
        ConfigError::NonPositiveQuantum { quantum_ns: -1.0 }
    );
}
