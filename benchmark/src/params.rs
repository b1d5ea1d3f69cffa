//! The five workloads, their two cells each, and the seed → input mapping.
//!
//! Every workload is a *base* cell (the uncontended configuration: one
//! vproc, or the low request rate) and a *primary* cell (the loaded one: two
//! vprocs, the high rate, the many-vproc grid points). A cell is what one
//! child process runs. The seed perturbs each input size by less than 1 %,
//! so ten seeds give ten slightly different inputs of the same shape; seed 0
//! gives exactly the nominal sizes. The programs receive only the generated
//! parameters, never the seed itself (the serve stream's own
//! `ServeParams::seed` is one of those parameters).

use mgc_numa::AllocPolicy;
use mgc_server::{mix64, ServeParams};
use mgc_workloads::barnes_hut::BarnesHutParams;
use mgc_workloads::churn::ChurnParams;
use mgc_workloads::dmm::DmmParams;
use mgc_workloads::quicksort::QuicksortParams;
use mgc_workloads::raytracer::RaytracerParams;
use mgc_workloads::smvm::SmvmParams;
use mgc_workloads::Workload;

/// The benchmark's workloads. The names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Bump allocation and minor collection in the thread-owned local heap.
    ChurnLocal,
    /// Promotion and stop-the-world global collection.
    SortPromote,
    /// Work stealing and mutator reads through the global heap; GC is noise.
    NbodySteal,
    /// The same layers under an open-loop request stream, for latency.
    ServeOpen,
    /// The simulated backend on the paper's 48-core machine.
    SimFig5,
}

/// Every workload, in the order `run` and `trace` execute them.
pub const WORKLOADS: [WorkloadId; 5] = [
    WorkloadId::ChurnLocal,
    WorkloadId::SortPromote,
    WorkloadId::NbodySteal,
    WorkloadId::ServeOpen,
    WorkloadId::SimFig5,
];

impl WorkloadId {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::ChurnLocal => "churn-local",
            WorkloadId::SortPromote => "sort-promote",
            WorkloadId::NbodySteal => "nbody-steal",
            WorkloadId::ServeOpen => "serve-open",
            WorkloadId::SimFig5 => "sim-fig5",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Labels of the base and primary cells, as they appear in reports.
    pub fn cell_labels(self) -> (&'static str, &'static str) {
        match self {
            WorkloadId::ServeOpen => ("r2k", "r20k"),
            WorkloadId::SimFig5 => ("v1", "v12-48"),
            _ => ("1v", "2v"),
        }
    }
}

/// Which of a workload's two cells a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The uncontended configuration.
    Base,
    /// The loaded configuration.
    Primary,
}

impl Role {
    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Role::Base => "base",
            Role::Primary => "primary",
        }
    }

    /// Parses the command-line spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "base" => Some(Role::Base),
            "primary" => Some(Role::Primary),
            _ => None,
        }
    }
}

/// One point of the simulated grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Which of the paper's five programs.
    pub workload: Workload,
    /// Simulated vprocs on the 48-core AMD topology.
    pub vprocs: usize,
    /// Page placement policy (§4.3).
    pub policy: AllocPolicy,
}

/// Input sizes of the five paper programs on the simulated backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSizes {
    /// Dense-matrix multiply.
    pub dmm: DmmParams,
    /// Raytracer.
    pub raytracer: RaytracerParams,
    /// Quicksort.
    pub quicksort: QuicksortParams,
    /// Barnes-Hut.
    pub barnes_hut: BarnesHutParams,
    /// Sparse matrix × vector.
    pub smvm: SmvmParams,
}

/// The program of a threaded batch cell, with its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchProgram {
    /// The synthetic churn program.
    Churn(ChurnParams),
    /// Quicksort.
    Quicksort(QuicksortParams),
    /// Barnes-Hut.
    BarnesHut(BarnesHutParams),
}

/// What one cell runs, fully resolved from `(workload, role, seed, quick)`.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSpec {
    /// A threaded run of a batch program.
    Batch {
        /// The program and its input.
        program: BatchProgram,
        /// Runtime threads.
        vprocs: usize,
    },
    /// A threaded, open-loop serving run on two vprocs.
    Serve {
        /// The stream: rate, duration, mix and seed.
        params: ServeParams,
    },
    /// A pass over simulated grid points.
    Sim {
        /// Inputs of the five programs.
        sizes: SimSizes,
        /// The points, run in order.
        points: Vec<SimPoint>,
    },
}

/// `nominal` plus a seed-derived offset below 1 % of it. Seed 0 adds nothing
/// (`mix64(0)` is 0), so the default seed runs the documented sizes.
pub fn perturb(nominal: usize, seed: u64) -> usize {
    nominal + (mix64(seed) % (nominal as u64 / 100).max(1)) as usize
}

/// Quick mode divides every input by ten (one round, under 20 s in total:
/// enough to check that every metric is produced, not to measure anything).
fn sized(nominal: usize, quick: bool) -> usize {
    if quick {
        nominal / 10
    } else {
        nominal
    }
}

/// Nominal sizes. Chosen on the 2-core sandbox so that one layer dominates
/// each workload (see README.md, "Why these workloads").
pub const CHURN_OBJECTS_PER_WORKER: usize = 1_000_000;
/// Quicksort input length.
pub const SORT_ELEMENTS: usize = 500_000;
/// Barnes-Hut particle count.
pub const NBODY_PARTICLES: usize = 8_192;
/// Barnes-Hut iterations.
pub const NBODY_ITERATIONS: usize = 4;
/// The serve cells: `(requests per second, seconds)`.
pub const SERVE_R20K: (u64, u64) = (20_000, 3);
/// The low-rate serve cell.
pub const SERVE_R2K: (u64, u64) = (2_000, 2);
/// Vproc counts of the simulated grid's primary cell.
pub const SIM_PRIMARY_VPROCS: [usize; 2] = [12, 48];

/// Sizes of the simulated grid. Quicksort is sized away from a threshold:
/// near 300,000 elements, 1 % more decides whether the 48-vproc point runs a
/// global collection at all, and with it the cell's peak memory (102 vs
/// 141 MiB).
fn sim_sizes(seed: u64, quick: bool) -> SimSizes {
    SimSizes {
        dmm: DmmParams {
            dimension: perturb(sized(400, quick).max(48), seed),
        },
        raytracer: RaytracerParams {
            image_size: perturb(sized(640, quick).max(64), seed),
        },
        quicksort: QuicksortParams {
            elements: perturb(sized(200_000, quick), seed),
        },
        barnes_hut: BarnesHutParams {
            particles: perturb(sized(2_500, quick).max(512), seed),
            iterations: 2,
        },
        smvm: SmvmParams {
            vector_length: perturb(sized(100_000, quick).max(512), seed),
        },
    }
}

fn serve_params(cell: (u64, u64), seed: u64, quick: bool) -> ServeParams {
    let (rps, secs) = cell;
    ServeParams {
        workers: 2,
        rps: if quick { rps / 10 } else { rps },
        duration_secs: if quick { 1 } else { secs },
        seed,
        ..ServeParams::bench()
    }
}

/// Resolves a cell. Pure: the same arguments give the same inputs.
pub fn cell_spec(workload: WorkloadId, role: Role, seed: u64, quick: bool) -> CellSpec {
    let vprocs = match role {
        Role::Base => 1,
        Role::Primary => 2,
    };
    match workload {
        WorkloadId::ChurnLocal => CellSpec::Batch {
            program: BatchProgram::Churn(ChurnParams {
                workers: 32,
                objects_per_worker: perturb(sized(CHURN_OBJECTS_PER_WORKER, quick), seed),
                object_words: 8,
                survive_every: 64,
            }),
            vprocs,
        },
        WorkloadId::SortPromote => CellSpec::Batch {
            program: BatchProgram::Quicksort(QuicksortParams {
                elements: perturb(sized(SORT_ELEMENTS, quick), seed),
            }),
            vprocs,
        },
        WorkloadId::NbodySteal => CellSpec::Batch {
            program: BatchProgram::BarnesHut(BarnesHutParams {
                particles: perturb(sized(NBODY_PARTICLES, quick), seed),
                iterations: NBODY_ITERATIONS,
            }),
            vprocs,
        },
        WorkloadId::ServeOpen => CellSpec::Serve {
            params: match role {
                Role::Base => serve_params(SERVE_R2K, seed, quick),
                Role::Primary => serve_params(SERVE_R20K, seed, quick),
            },
        },
        WorkloadId::SimFig5 => {
            let local = |vprocs| {
                Workload::FIGURES.map(|workload| SimPoint {
                    workload,
                    vprocs,
                    policy: AllocPolicy::Local,
                })
            };
            let points = match role {
                Role::Base => local(1).to_vec(),
                Role::Primary => {
                    let mut points: Vec<SimPoint> =
                        SIM_PRIMARY_VPROCS.into_iter().flat_map(local).collect();
                    // Figure 5's contrast: everything placed on socket zero.
                    for workload in [Workload::BarnesHut, Workload::Smvm] {
                        points.push(SimPoint {
                            workload,
                            vprocs: 48,
                            policy: AllocPolicy::SocketZero,
                        });
                    }
                    points
                }
            };
            CellSpec::Sim {
                sizes: sim_sizes(seed, quick),
                points,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_gives_the_documented_sizes() {
        assert_eq!(perturb(SORT_ELEMENTS, 0), 500_000);
        match cell_spec(WorkloadId::ChurnLocal, Role::Primary, 0, false) {
            CellSpec::Batch {
                program: BatchProgram::Churn(params),
                vprocs,
            } => {
                assert_eq!(params.objects_per_worker, 1_000_000);
                assert_eq!((params.workers, params.object_words), (32, 8));
                assert_eq!(vprocs, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match cell_spec(WorkloadId::NbodySteal, Role::Base, 0, false) {
            CellSpec::Batch {
                program: BatchProgram::BarnesHut(params),
                vprocs,
            } => {
                assert_eq!((params.particles, params.iterations, vprocs), (8_192, 4, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
        match cell_spec(WorkloadId::ServeOpen, Role::Primary, 0, false) {
            CellSpec::Serve { params } => {
                assert_eq!(params.total_requests(), 60_000);
                assert_eq!(params.workers, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_cell_and_another_seed_another() {
        for workload in WORKLOADS {
            for role in [Role::Base, Role::Primary] {
                let a = cell_spec(workload, role, 7, false);
                assert_eq!(a, cell_spec(workload, role, 7, false));
                assert_ne!(a, cell_spec(workload, role, 8, false), "{workload:?}");
            }
        }
    }

    #[test]
    fn perturbation_stays_below_one_percent() {
        for seed in 0..200 {
            let n = perturb(SORT_ELEMENTS, seed);
            assert!((SORT_ELEMENTS..SORT_ELEMENTS + SORT_ELEMENTS / 100).contains(&n));
        }
    }

    #[test]
    fn the_simulated_grid_has_the_figure_five_points() {
        let CellSpec::Sim { points, .. } = cell_spec(WorkloadId::SimFig5, Role::Primary, 0, false)
        else {
            panic!("sim-fig5 is a simulated cell");
        };
        assert_eq!(points.len(), 5 * 2 + 2);
        assert_eq!(
            points
                .iter()
                .filter(|p| p.policy == AllocPolicy::SocketZero)
                .count(),
            2
        );
        let CellSpec::Sim { points, .. } = cell_spec(WorkloadId::SimFig5, Role::Base, 0, false)
        else {
            panic!("sim-fig5 is a simulated cell");
        };
        assert!(points.iter().all(|p| p.vprocs == 1) && points.len() == 5);
    }

    #[test]
    fn names_round_trip() {
        for workload in WORKLOADS {
            assert_eq!(WorkloadId::from_name(workload.name()), Some(workload));
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
        assert_eq!(Role::from_name("base"), Some(Role::Base));
    }
}
