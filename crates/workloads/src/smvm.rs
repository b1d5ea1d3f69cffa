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

/// Average non-zeroes per row, chosen so that the paper-scale matrix has
/// roughly 1,091,362 non-zero elements.
pub const NNZ_PER_ROW: usize = 66;

/// The dense vector's elements.
fn x_elem(i: usize) -> f64 {
    ((i % 29) as f64) * 0.125 - 1.0
}

/// The multipliers of the hash that scatters a row's non-zeroes over the
/// columns: one for the row, one for the non-zero's place in the row.
const ROW_MIX: u64 = 0x9E3779B97F4A7C15;
const NONZERO_MIX: u64 = 0xBF58476D1CE4E5B9;

/// How many values the non-zeroes take: the `k`-th non-zero of row `r`
/// holds `value((31r + 17k) % 23)`.
const VALUES: usize = 23;

/// The value of a non-zero whose `31r + 17k` leaves residue `m`.
fn value(m: usize) -> f64 {
    (m as f64) * 0.2 - 2.0
}

/// Row `r` of the matrix times the vector whose element `c` is `x(c)`,
/// summed over the row's non-zeroes in order. The `k`-th lies in column
/// `h % cols`, `h` being `r·ROW_MIX ^ k·NONZERO_MIX` with its high bits
/// folded down, and holds `value((31r + 17k) % 23)`. The row's half of the
/// hash is taken once and the residue steps by 17 per non-zero through a
/// table of the [`VALUES`] values, so no value costs a division or a
/// conversion; every product and sum has the bits of the tests'
/// `val_of`/`col_of` loop.
#[inline(always)]
fn row_dot(values: &[f64; VALUES], r: usize, cols: usize, x: impl Fn(usize) -> f64) -> f64 {
    let row_hash = (r as u64).wrapping_mul(ROW_MIX);
    let mut m = (r * 31) % VALUES;
    let mut dot = 0.0;
    for k in 0..NNZ_PER_ROW {
        let mut h = row_hash ^ (k as u64).wrapping_mul(NONZERO_MIX);
        h ^= h >> 29;
        dot += values[m] * x((h % cols as u64) as usize);
        m += 17;
        if m >= VALUES {
            m -= VALUES;
        }
    }
    dot
}

/// Rows `rows` of the product with the vector `x` (of `cols` elements):
/// calls `each` with every row's dot product in row order and returns
/// their sum, added in the same order. The block task and the reference
/// both run it.
fn multiply_rows(
    rows: std::ops::Range<usize>,
    cols: usize,
    x: impl Fn(usize) -> f64,
    mut each: impl FnMut(f64),
) -> f64 {
    let values: [f64; VALUES] = std::array::from_fn(value);
    let mut sum = 0.0;
    for r in rows {
        let dot = row_dot(&values, r, cols, &x);
        each(dot);
        sum += dot;
    }
    sum
}

/// Sequentially computed checksum of the product vector.
pub fn reference_checksum(scale: Scale) -> f64 {
    checksum_for(SmvmParams::at_scale(scale))
}

/// The sequential reference checksum for explicit parameters.
fn checksum_for(params: SmvmParams) -> f64 {
    let n = params.vector_length;
    multiply_rows(0..n, n, x_elem, |_| {})
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
                        ctx.read_words_into(leaf, &mut x);
                        ctx.truncate_roots(mark);
                    }

                    let mut result = Vec::with_capacity(hi - lo);
                    let checksum =
                        multiply_rows(lo..hi, cols, |c| word_to_f64(x[c]), |dot| result.push(dot));
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

    /// The column index of the `k`-th non-zero of row `r`: a cheap
    /// deterministic hash that scatters the non-zeroes.
    fn col_of(r: usize, k: usize, cols: usize) -> usize {
        let mut h = (r as u64).wrapping_mul(ROW_MIX) ^ (k as u64).wrapping_mul(NONZERO_MIX);
        h ^= h >> 29;
        (h % cols as u64) as usize
    }

    /// The value of the `k`-th non-zero of row `r`.
    fn val_of(r: usize, k: usize) -> f64 {
        value((r * 31 + k * 17) % VALUES)
    }

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
        let nnz = vector_length(Scale::paper()) * NNZ_PER_ROW;
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

    /// Rows `lo..hi` against the vector `x_elem` as the `val_of`/`col_of`
    /// loop the block task and the reference ran before: each row's dot and
    /// their sum in row order.
    fn rows_by_val_of(lo: usize, hi: usize, cols: usize) -> (Vec<f64>, f64) {
        let mut dots = Vec::new();
        let mut sum = 0.0;
        for r in lo..hi {
            let mut dot = 0.0;
            for k in 0..NNZ_PER_ROW {
                dot += val_of(r, k) * x_elem(col_of(r, k, cols));
            }
            dots.push(dot);
            sum += dot;
        }
        (dots, sum)
    }

    #[test]
    fn rows_are_bit_identical_to_the_val_of_loop() {
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for (lo, hi, cols) in [
            (0, 5, 1),
            (0, 40, 512),
            (17, 60, 1000),
            (0, 23 * 3 + 1, 16_614),
            (1_000_000, 1_000_050, BENCH_VECTOR_LENGTH),
        ] {
            let x = |c: usize| {
                assert!(c < cols, "column {c} of {cols}");
                x_elem(c)
            };
            let mut dots = Vec::new();
            let sum = multiply_rows(lo..hi, cols, x, |dot| dots.push(dot));
            let (slow_dots, slow_sum) = rows_by_val_of(lo, hi, cols);
            assert_eq!(
                bits(&dots),
                bits(&slow_dots),
                "rows {lo}..{hi}, {cols} cols"
            );
            assert_eq!(
                sum.to_bits(),
                slow_sum.to_bits(),
                "rows {lo}..{hi}, {cols} cols"
            );
        }
        // The reference is the blocks' dots summed in row order.
        for vector_length in [512, 1000] {
            let reference = checksum_for(SmvmParams { vector_length });
            let (_, slow) = rows_by_val_of(0, vector_length, vector_length);
            assert_eq!(reference.to_bits(), slow.to_bits(), "n = {vector_length}");
            let block = vector_length.div_ceil(96);
            let mut summed = 0.0;
            for lo in (0..vector_length).step_by(block) {
                let hi = (lo + block).min(vector_length);
                multiply_rows(lo..hi, vector_length, x_elem, |dot| summed += dot);
            }
            assert_eq!(reference.to_bits(), summed.to_bits(), "n = {vector_length}");
        }
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
