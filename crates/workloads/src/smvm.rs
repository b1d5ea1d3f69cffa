//! Sparse-matrix × dense-vector multiplication (paper §4.1: a matrix of
//! 1,091,362 non-zeroes against a vector of 16,614 elements).
//!
//! The defining property of SMVM in the paper's evaluation is that the dense
//! vector is a *small amount of shared data* that every thread reads: with
//! the default local-allocation policy it ends up on a single node, whose
//! memory controller and incoming links saturate as threads are added
//! (§4.2), and the interleaved policy actually wins past ~24 threads (§4.3).
//! The matrix rows, by contrast, are generated and consumed locally by each
//! block.

use crate::rope::{build_f64_rope, LEAF_SIZE};
use crate::scale::Scale;
use mgc_heap::{f64_to_word, word_to_f64};
use mgc_runtime::{Checksum, Executor, Program, TaskResult, TaskSpec};

/// Vector length at the benchmark preset. A row costs only a few dozen
/// flops, so the benchmark multiplies a matrix about 8× the paper's to
/// give the run enough wall-clock for speedup to be measurable.
pub const BENCH_VECTOR_LENGTH: usize = 131_072;

/// Length of the dense vector at the given scale (the paper uses 16,614).
pub fn vector_length(scale: Scale) -> usize {
    if scale.is_bench() {
        return BENCH_VECTOR_LENGTH;
    }
    scale.apply(16_614, 512)
}

/// Parameters of the SMVM benchmark. The matrix is square-ish: one row per
/// vector element, [`NNZ_PER_ROW`] non-zeroes per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmvmParams {
    /// Length of the shared dense vector (the paper uses 16,614).
    pub vector_length: usize,
}

impl SmvmParams {
    /// The paper's input shrunk by `scale` (with a floor of 512).
    pub fn at_scale(scale: Scale) -> Self {
        SmvmParams {
            vector_length: vector_length(scale),
        }
    }
}

impl Default for SmvmParams {
    fn default() -> Self {
        SmvmParams::at_scale(Scale::default())
    }
}

/// Sparse-matrix × dense-vector multiplication as a [`Program`].
#[derive(Debug, Clone, Copy)]
pub struct Smvm {
    /// The run's parameters.
    pub params: SmvmParams,
}

impl Smvm {
    /// An SMVM program with explicit parameters.
    pub fn new(params: SmvmParams) -> Self {
        Smvm { params }
    }

    /// An SMVM program at the paper's input scaled by `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        Smvm::new(SmvmParams::at_scale(scale))
    }
}

impl Program for Smvm {
    fn name(&self) -> &str {
        "SMVM"
    }

    fn spawn(&self, machine: &mut dyn Executor) {
        spawn_with(machine, self.params);
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        Some(Checksum::F64(checksum_for(self.params)))
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"vector_length\": {}, \"nnz_per_row\": {NNZ_PER_ROW}}}",
            self.params.vector_length
        )
    }
}

/// Number of matrix rows (square-ish matrix: one row per vector element).
pub fn num_rows(scale: Scale) -> usize {
    vector_length(scale)
}

/// Average non-zeroes per row, chosen so that the paper-scale matrix has
/// roughly 1,091,362 non-zero elements.
pub const NNZ_PER_ROW: usize = 66;

/// The dense vector's elements.
fn x_elem(i: usize) -> f64 {
    ((i % 29) as f64) * 0.125 - 1.0
}

/// The column index of the `k`-th non-zero of row `r`.
fn col_of(r: usize, k: usize, cols: usize) -> usize {
    // A cheap deterministic hash that scatters the non-zeroes.
    let mut h =
        (r as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ (k as u64).wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 29;
    (h % cols as u64) as usize
}

/// The value of the `k`-th non-zero of row `r`.
fn val_of(r: usize, k: usize) -> f64 {
    (((r * 31 + k * 17) % 23) as f64) * 0.2 - 2.0
}

/// Sequentially computed checksum of the product vector.
pub fn reference_checksum(scale: Scale) -> f64 {
    checksum_for(SmvmParams::at_scale(scale))
}

/// The sequential reference checksum for explicit parameters.
fn checksum_for(params: SmvmParams) -> f64 {
    let cols = params.vector_length;
    let rows = params.vector_length;
    let mut sum = 0.0;
    for r in 0..rows {
        let mut dot = 0.0;
        for k in 0..NNZ_PER_ROW {
            dot += val_of(r, k) * x_elem(col_of(r, k, cols));
        }
        sum += dot;
    }
    sum
}

/// Spawns the SMVM workload at the given scale; the root result is the
/// checksum of the product vector.
pub fn spawn(machine: &mut dyn Executor, scale: Scale) {
    spawn_with(machine, SmvmParams::at_scale(scale));
}

/// Spawns the SMVM workload with explicit parameters.
pub fn spawn_with(machine: &mut dyn Executor, params: SmvmParams) {
    let cols = params.vector_length;
    let rows = params.vector_length;
    let blocks = 96.min(rows);
    machine.spawn_root(TaskSpec::new("smvm-root", move |ctx| {
        // The shared dense vector, built once by the root task. When blocks
        // are stolen by other vprocs the rope is promoted to the global heap
        // — placed according to the machine's allocation policy — and every
        // block then streams it from wherever it landed.
        let x: Vec<f64> = (0..cols).map(x_elem).collect();
        let x_rope = build_f64_rope(ctx, &x);

        let rows_per_block = rows.div_ceil(blocks);
        let mut children = Vec::new();
        for block in 0..blocks {
            let lo = block * rows_per_block;
            let hi = ((block + 1) * rows_per_block).min(rows);
            if lo >= hi {
                continue;
            }
            children.push((
                TaskSpec::new("smvm-block", move |ctx| {
                    // Stream the shared vector once: every leaf read is
                    // charged to the node the vector physically lives on.
                    let x_rope = ctx.input(0);
                    let leaves = ctx.len(x_rope);
                    let mut x = Vec::with_capacity(leaves * LEAF_SIZE);
                    for i in 0..leaves {
                        let mark = ctx.root_mark();
                        let leaf = ctx
                            .read_ptr(x_rope, i)
                            .expect("vector leaves are never null");
                        x.extend(ctx.read_f64s(leaf));
                        ctx.truncate_roots(mark);
                    }

                    let mut checksum = 0.0;
                    let mut result = Vec::with_capacity(hi - lo);
                    for r in lo..hi {
                        let mut dot = 0.0;
                        for k in 0..NNZ_PER_ROW {
                            dot += val_of(r, k) * x[col_of(r, k, cols)];
                        }
                        result.push(dot);
                        checksum += dot;
                    }
                    ctx.work(((hi - lo) * NNZ_PER_ROW * 2) as u64);
                    // The block's slice of the product vector is allocated
                    // locally, like any other freshly computed value.
                    let mark = ctx.root_mark();
                    let _out = ctx.alloc_f64_slice(&result);
                    ctx.truncate_roots(mark);
                    TaskResult::Value(f64_to_word(checksum))
                }),
                vec![x_rope],
            ));
        }
        ctx.fork_join(
            children,
            TaskSpec::new("smvm-sum", |ctx| {
                let total: f64 = (0..ctx.num_values()).map(|i| ctx.value_f64(i)).sum();
                TaskResult::Value(f64_to_word(total))
            }),
            &[],
        );
        TaskResult::Unit
    }));
}

/// Reads the checksum produced by a finished SMVM run.
pub fn take_checksum(machine: &mut dyn Executor) -> Option<f64> {
    machine.take_result().map(|(word, _)| word_to_f64(word))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{Machine, MachineConfig};

    #[test]
    fn parallel_checksum_matches_sequential_reference() {
        let scale = Scale::tiny();
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        spawn(&mut machine, scale);
        machine.run();
        let parallel = take_checksum(&mut machine).expect("smvm produces a checksum");
        let reference = reference_checksum(scale);
        assert!(
            (parallel - reference).abs() < 1e-6 * reference.abs().max(1.0),
            "parallel {parallel} vs reference {reference}"
        );
    }

    #[test]
    fn paper_scale_matrix_has_about_a_million_nonzeroes() {
        let nnz = num_rows(Scale::paper()) * NNZ_PER_ROW;
        assert!((1_000_000..1_200_000).contains(&nnz), "nnz = {nnz}");
    }

    #[test]
    fn generators_match_hand_computed_values() {
        // x_elem: (i % 29)·0.125 − 1, exactly representable.
        assert_eq!(x_elem(0), -1.0);
        assert_eq!(x_elem(8), 0.0);
        assert_eq!(x_elem(28), 2.5);
        assert_eq!(x_elem(29), -1.0);
        // val_of: ((31r + 17k) % 23)·0.2 − 2, same expression as the code.
        assert_eq!(val_of(0, 0), -2.0);
        assert_eq!(val_of(1, 1), 2.0 * 0.2 - 2.0); // 48 % 23 = 2
        assert_eq!(val_of(2, 3), 21.0 * 0.2 - 2.0); // 113 % 23 = 21
    }

    #[test]
    fn column_indices_stay_in_range() {
        let cols = 1000;
        for r in 0..50 {
            for k in 0..NNZ_PER_ROW {
                assert!(col_of(r, k, cols) < cols);
            }
        }
    }
}
