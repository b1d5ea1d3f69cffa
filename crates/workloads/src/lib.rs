//! The paper's benchmark programs, written against the `mgc-runtime` API.
//!
//! §4.1 of *Garbage Collection for Multicore NUMA Machines* evaluates five
//! programs plus one synthetic benchmark; this crate reproduces all of them:
//!
//! | Benchmark | Paper input | Module |
//! |-----------|-------------|--------|
//! | Barnes-Hut | 20 iterations, 400,000 particles (Plummer) | [`barnes_hut`] |
//! | Raytracer | 512 × 512 image, no acceleration structure | [`raytracer`] |
//! | Quicksort | 10,000,000 integers (NESL formulation) | [`quicksort`] |
//! | SMVM | 1,091,362 non-zeroes × 16,614-element vector | [`smvm`] |
//! | DMM | 600 × 600 dense matrices | [`dmm`] |
//! | synthetic | allocation churn | [`churn`] |
//!
//! Every benchmark is expressed as fork/join tasks over rope-structured
//! data, exactly the object demographics the Manticore collector is designed
//! for: a torrent of small short-lived allocations, a modest amount of
//! long-lived shared data (the Barnes-Hut tree, the SMVM vector), and no
//! mutation.
//!
//! Each benchmark is a [`Program`] with a public parameter
//! struct (e.g. [`barnes_hut::BarnesHutParams`], [`churn::ChurnParams`]) —
//! derived from a [`Scale`] but overridable, so the scenario space is not
//! limited to the paper's fixed inputs. Runs go through the [`Experiment`]
//! builder:
//!
//! # Example
//!
//! ```
//! use mgc_numa::{AllocPolicy, Topology};
//! use mgc_runtime::Experiment;
//! use mgc_workloads::{Scale, Workload};
//!
//! let record = Experiment::new(Workload::Dmm.program(Scale::tiny()))
//!     .topology(Topology::dual_node_test())
//!     .vprocs(2)
//!     .policy(AllocPolicy::Local)
//!     .run()
//!     .expect("two vprocs fit the dual-node test topology");
//! assert!(record.report.elapsed_ns > 0.0);
//! assert_eq!(record.checksum_ok, Some(true));
//! ```
//!
//! Custom parameters open the grid beyond the paper:
//!
//! ```
//! use mgc_runtime::Experiment;
//! use mgc_workloads::churn::{Churn, ChurnParams};
//!
//! let record = Experiment::new(Churn::new(ChurnParams {
//!         objects_per_worker: 1_000,
//!         object_words: 4,
//!         survive_every: 16,
//!         workers: 2,
//!     }))
//!     .vprocs(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(record.checksum_ok, Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod barnes_hut;
pub mod churn;
pub mod dmm;
pub mod quicksort;
pub mod raytracer;
mod rope;
mod scale;
pub mod smvm;

pub use rope::{build_f64_rope, build_i64_rope, read_f64_rope, read_i64_rope, rope_len, LEAF_SIZE};
pub use scale::Scale;

use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{Executor, Experiment, GcConfig, Program};

/// The benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Dense-matrix multiplication.
    Dmm,
    /// The ray tracer.
    Raytracer,
    /// Parallel quicksort.
    Quicksort,
    /// Barnes-Hut N-body simulation.
    BarnesHut,
    /// Sparse-matrix × dense-vector multiplication.
    Smvm,
    /// The synthetic allocation-churn benchmark.
    Churn,
}

impl Workload {
    /// The five benchmarks plotted in Figures 4–7, in the paper's legend
    /// order.
    pub const FIGURES: [Workload; 5] = [
        Workload::Dmm,
        Workload::Raytracer,
        Workload::Quicksort,
        Workload::BarnesHut,
        Workload::Smvm,
    ];

    /// Every workload, including the synthetic one.
    pub const ALL: [Workload; 6] = [
        Workload::Dmm,
        Workload::Raytracer,
        Workload::Quicksort,
        Workload::BarnesHut,
        Workload::Smvm,
        Workload::Churn,
    ];

    /// The label used in the paper's figures (and as the
    /// [`Program::name`]).
    pub fn label(self) -> &'static str {
        match self {
            Workload::Dmm => "Dense-Matrix-Multiply",
            Workload::Raytracer => "Raytracer",
            Workload::Quicksort => "Quicksort",
            Workload::BarnesHut => "Barnes-Hut",
            Workload::Smvm => "SMVM",
            Workload::Churn => "Synthetic-Churn",
        }
    }

    /// This benchmark as a [`Program`] with the paper's input scaled by
    /// `scale`. For parameters beyond the paper's grid, construct the
    /// per-module program directly (e.g.
    /// [`churn::Churn::new`]/[`barnes_hut::BarnesHut::new`]).
    pub fn program(self, scale: Scale) -> Box<dyn Program> {
        match self {
            Workload::Dmm => Box::new(dmm::Dmm::at_scale(scale)),
            Workload::Raytracer => Box::new(raytracer::Raytracer::at_scale(scale)),
            Workload::Quicksort => Box::new(quicksort::Quicksort::at_scale(scale)),
            Workload::BarnesHut => Box::new(barnes_hut::BarnesHut::at_scale(scale)),
            Workload::Smvm => Box::new(smvm::Smvm::at_scale(scale)),
            Workload::Churn => Box::new(churn::Churn::at_scale(scale)),
        }
    }

    /// An [`Experiment`] around [`Workload::program`] — the front door for
    /// running one of the paper's benchmarks. Chain the scenario dimensions
    /// (topology, vprocs, policy, backend, heap, gc) before `run()`.
    ///
    /// This is the constructor the figure pipeline goes through, so it pins
    /// the paper's fixed global-collection trigger
    /// (`global_growth_factor: 0.0`); a chained `.gc(..)` replaces the pin.
    pub fn experiment(self, scale: Scale) -> Experiment<Box<dyn Program>> {
        Experiment::new(self.program(scale)).gc(GcConfig {
            global_growth_factor: 0.0,
            ..GcConfig::default()
        })
    }

    /// Spawns this workload onto a machine at the given scale.
    pub fn spawn(self, machine: &mut dyn Executor, scale: Scale) {
        self.program(scale).spawn(machine);
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One point of a speedup curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Number of threads (vprocs).
    pub threads: usize,
    /// Virtual execution time in nanoseconds.
    pub elapsed_ns: f64,
    /// Speedup relative to the single-threaded run of the same series.
    pub speedup: f64,
}

/// Runs `workload` at each thread count and returns the speedup curve
/// relative to the single-thread run (the quantity plotted in Figures 4–7).
pub fn speedup_series(
    topology: &Topology,
    threads: &[usize],
    policy: AllocPolicy,
    workload: Workload,
    scale: Scale,
    baseline_ns: Option<f64>,
) -> Vec<SpeedupPoint> {
    let run = |threads: usize, policy: AllocPolicy| {
        workload
            .experiment(scale)
            .topology(topology.clone())
            .vprocs(threads)
            .policy(policy)
            // A speedup curve reads timings only; skip the sequential
            // reference checksum each point would otherwise recompute.
            .verify_checksum(false)
            .run()
            .expect("speedup series thread counts fit the topology")
            .report
            .elapsed_ns
    };
    let baseline = baseline_ns.unwrap_or_else(|| run(1, AllocPolicy::Local));
    threads
        .iter()
        .map(|&t| {
            let elapsed = run(t, policy);
            SpeedupPoint {
                threads: t,
                elapsed_ns: elapsed,
                speedup: baseline / elapsed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_labels_match_figure_legends() {
        assert_eq!(Workload::Dmm.label(), "Dense-Matrix-Multiply");
        assert_eq!(Workload::Smvm.to_string(), "SMVM");
        assert_eq!(Workload::FIGURES.len(), 5);
        assert_eq!(Workload::ALL.len(), 6);
    }

    #[test]
    fn program_names_match_workload_labels() {
        for workload in Workload::ALL {
            assert_eq!(workload.program(Scale::tiny()).name(), workload.label());
        }
    }

    #[test]
    fn bench_preset_maps_to_the_hand_balanced_sizes() {
        assert!(Scale::bench().is_bench());
        assert!(!Scale::tiny().is_bench());
        assert_eq!(dmm::dimension(Scale::bench()), dmm::BENCH_DIMENSION);
        assert_eq!(
            raytracer::image_size(Scale::bench()),
            raytracer::BENCH_IMAGE_SIZE
        );
        assert_eq!(
            quicksort::input_size(Scale::bench()),
            quicksort::BENCH_ELEMENTS
        );
        assert_eq!(
            barnes_hut::num_particles(Scale::bench()),
            barnes_hut::BENCH_PARTICLES
        );
        assert_eq!(
            barnes_hut::num_iterations(Scale::bench()),
            barnes_hut::BENCH_ITERATIONS
        );
        assert_eq!(
            smvm::vector_length(Scale::bench()),
            smvm::BENCH_VECTOR_LENGTH
        );
        assert_eq!(
            churn::ChurnParams::at_scale(Scale::bench()),
            churn::ChurnParams::bench()
        );
    }

    #[test]
    fn every_figure_workload_runs_on_a_small_machine() {
        let topology = Topology::dual_node_test();
        for workload in Workload::FIGURES {
            let record = workload
                .experiment(Scale::tiny())
                .topology(topology.clone())
                .vprocs(2)
                .policy(AllocPolicy::Local)
                .run()
                .expect("two vprocs fit the dual-node test topology");
            assert!(
                record.report.total_tasks() > 1,
                "{workload} should be parallel"
            );
            assert!(record.report.elapsed_ns > 0.0);
            assert_ne!(
                record.checksum_ok,
                Some(false),
                "{workload} produced a wrong checksum"
            );
        }
    }

    #[test]
    fn speedup_series_reports_relative_improvement() {
        let topology = Topology::dual_node_test();
        // Use a scale large enough that the work spans several scheduling
        // quanta; otherwise a single vproc finishes before anyone can steal.
        let series = speedup_series(
            &topology,
            &[1, 4],
            AllocPolicy::Local,
            Workload::Dmm,
            Scale(0.25),
            None,
        );
        assert_eq!(series.len(), 2);
        assert!((series[0].speedup - 1.0).abs() < 0.05);
        assert!(series[1].speedup > 1.5, "4 threads should beat 1");
    }

    #[test]
    fn churn_params_scale_with_floors() {
        let tiny = churn::ChurnParams::at_scale(Scale::tiny());
        let paper = churn::ChurnParams::at_scale(Scale::paper());
        assert_eq!(paper, churn::ChurnParams::default());
        assert!(tiny.objects_per_worker >= 500);
        assert!(tiny.workers >= 4);
        assert!(tiny.objects_per_worker < paper.objects_per_worker);
    }
}
