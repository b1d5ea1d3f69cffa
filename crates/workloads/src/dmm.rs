//! Dense-matrix × dense-matrix multiplication (paper §4.1: 600 × 600).
//!
//! The paper characterises DMM as having "abundant, independent parallelism"
//! with "excellent locality and almost no shared data", which is why it
//! scales almost ideally on both machines. Following that characterisation,
//! each parallel block generates its operand rows locally (in its own
//! nursery), multiplies them, and allocates its slice of the result matrix
//! locally as well; nothing is shared between blocks.

use crate::scale::Scale;
use mgc_heap::{f64_to_word, word_to_f64, Word};
use mgc_runtime::{Checksum, Executor, Program, TaskResult, TaskSpec};

/// Matrix dimension at the benchmark preset: cost grows with the cube of
/// the edge, so 320 lands the run near 40 ms on one core.
pub const BENCH_DIMENSION: usize = 320;

/// Matrix dimension at the given scale (the paper uses 600 × 600).
pub fn dimension(scale: Scale) -> usize {
    if scale.is_bench() {
        return BENCH_DIMENSION;
    }
    scale.apply(600, 48)
}

/// Parameters of the DMM benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmmParams {
    /// Edge length of the square operand matrices (the paper uses 600).
    pub dimension: usize,
}

impl DmmParams {
    /// The paper's input shrunk by `scale` (with a floor of 48).
    pub fn at_scale(scale: Scale) -> Self {
        DmmParams {
            dimension: dimension(scale),
        }
    }
}

impl Default for DmmParams {
    fn default() -> Self {
        DmmParams::at_scale(Scale::default())
    }
}

/// Dense-matrix multiplication as a [`Program`].
#[derive(Debug, Clone, Copy)]
pub struct Dmm {
    /// The run's parameters.
    pub params: DmmParams,
}

impl Dmm {
    /// A DMM program with explicit parameters.
    pub fn new(params: DmmParams) -> Self {
        Dmm { params }
    }

    /// A DMM program at the paper's input scaled by `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        Dmm::new(DmmParams::at_scale(scale))
    }
}

impl Program for Dmm {
    fn name(&self) -> &str {
        "Dense-Matrix-Multiply"
    }

    fn spawn(&self, machine: &mut dyn Executor) {
        spawn_with(machine, self.params);
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        Some(Checksum::F64(checksum_for(self.params)))
    }

    fn params_json(&self) -> String {
        format!("{{\"dimension\": {}}}", self.params.dimension)
    }
}

/// Deterministic matrix generators, so every block (and the sequential
/// reference) agrees on the operand values.
fn a_elem(i: usize, k: usize) -> f64 {
    ((i * 7 + k * 3) % 13) as f64 * 0.25 - 1.0
}

fn b_elem(k: usize, j: usize) -> f64 {
    ((k + j * 5) % 11) as f64 * 0.5 - 2.0
}

/// How many columns B has that differ: its generator depends on `k + 5j`
/// only modulo 11, so column `j` equals column `j % 11`.
const B_COLUMNS: usize = 11;

/// B's first [`B_COLUMNS`] columns, row-major: `b_elem(k, j) ==
/// b_panel(n)[k * B_COLUMNS + j % B_COLUMNS]` for every `k < n`.
fn b_panel(n: usize) -> Vec<f64> {
    (0..n)
        .flat_map(|k| (0..B_COLUMNS).map(move |j| b_elem(k, j)))
        .collect()
}

/// Appends row `a_row` × B to `out`: for each column `j`, the dot product
/// of `a_row` with B's column, summed in `k` order as the `b_elem` loop
/// does, so every bit is the same.
///
/// Each pass over `k` computes [`B_COLUMNS`] columns at once, one
/// accumulator each: a lone column is one serial chain of `n` adds, bound
/// by add latency, and the panel row that holds B's values for those
/// columns at `k` is contiguous. Every column still runs its own `n`-term
/// dot product. The leftover columns take one pass each.
fn multiply_row(a_row: &[Word], b_panel: &[f64], out: &mut Vec<f64>) {
    let n = a_row.len();
    let b_rows = || b_panel.chunks_exact(B_COLUMNS);
    for _ in 0..n / B_COLUMNS {
        let mut c = [0.0; B_COLUMNS];
        for (&a, b_row) in a_row.iter().zip(b_rows()) {
            let a = word_to_f64(a);
            for (c, &b) in c.iter_mut().zip(b_row) {
                *c += a * b;
            }
        }
        out.extend_from_slice(&c);
    }
    out.extend((0..n % B_COLUMNS).map(|j| {
        let mut c = 0.0;
        for (&a, b_row) in a_row.iter().zip(b_rows()) {
            c += word_to_f64(a) * b_row[j];
        }
        c
    }));
}

/// The checksum (sum of all result elements) computed sequentially; used by
/// tests to validate the parallel run.
pub fn reference_checksum(scale: Scale) -> f64 {
    checksum_for(DmmParams::at_scale(scale))
}

/// The sequential reference checksum for explicit parameters: the sum of
/// every element of A × B, as Σₖ (Σᵢ Aᵢₖ)(Σⱼ Bₖⱼ) in O(n²).
///
/// The result is bit-identical to the triple loop (`triple_loop_checksum`)
/// for n < 5·10⁴. Every A element is a multiple of 0.25 in [−1, 2] and
/// every B element a multiple of 0.5 in [−2, 3], so every product is a
/// multiple of 1/8 and every partial sum of either formula is a multiple of
/// 1/8 of magnitude at most 6n³ < 2⁵⁰: each is exact in an `f64`, and any
/// summation order gives the same bits.
fn checksum_for(params: DmmParams) -> f64 {
    let n = params.dimension;
    (0..n)
        .map(|k| {
            let a_col: f64 = (0..n).map(|i| a_elem(i, k)).sum();
            let b_row: f64 = (0..n).map(|j| b_elem(k, j)).sum();
            a_col * b_row
        })
        .sum()
}

/// Spawns the DMM workload onto `machine` at the given scale. The root
/// task's result is the checksum of the product matrix.
pub fn spawn(machine: &mut dyn Executor, scale: Scale) {
    spawn_with(machine, DmmParams::at_scale(scale));
}

/// Spawns the DMM workload with explicit parameters.
pub fn spawn_with(machine: &mut dyn Executor, params: DmmParams) {
    let n = params.dimension;
    let blocks = 96.min(n);
    machine.spawn_root(TaskSpec::new("dmm-root", move |ctx| {
        let rows_per_block = n.div_ceil(blocks);
        let mut children = Vec::new();
        for block in 0..blocks {
            let lo = block * rows_per_block;
            let hi = ((block + 1) * rows_per_block).min(n);
            if lo >= hi {
                continue;
            }
            children.push((
                TaskSpec::new("dmm-block", move |ctx| {
                    let mut checksum = 0.0;
                    let mut row = Vec::with_capacity(n);
                    let mut result_row = Vec::with_capacity(n);
                    let mut back = Vec::with_capacity(n);
                    let b_panel = b_panel(n);
                    for i in lo..hi {
                        let mark = ctx.root_mark();
                        // Materialise row i of A in the local heap, as the
                        // PML program's rope leaf would be.
                        row.clear();
                        row.extend((0..n).map(|k| a_elem(i, k)));
                        let row_handle = ctx.alloc_f64_slice(&row);
                        back.clear();
                        ctx.read_words_into(row_handle, &mut back);
                        // Multiply against B (each block generates B's
                        // distinct columns: B is not shared between blocks).
                        result_row.clear();
                        multiply_row(&back, &b_panel, &mut result_row);
                        // One row of the product is n dot products of length n.
                        ctx.work(2 * (n * n) as u64);
                        // The result row is a fresh local allocation.
                        let out = ctx.alloc_f64_slice(&result_row);
                        back.clear();
                        ctx.read_words_into(out, &mut back);
                        checksum += back.iter().map(|&w| word_to_f64(w)).sum::<f64>();
                        ctx.truncate_roots(mark);
                    }
                    TaskResult::Value(f64_to_word(checksum))
                }),
                vec![],
            ));
        }
        ctx.fork_join(
            children,
            TaskSpec::new("dmm-sum", |ctx| {
                let total: f64 = (0..ctx.num_values()).map(|i| ctx.value_f64(i)).sum();
                TaskResult::Value(f64_to_word(total))
            }),
            &[],
        );
        TaskResult::Unit
    }));
}

/// Reads the checksum produced by a finished DMM run.
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
        let parallel = take_checksum(&mut machine).expect("dmm produces a checksum");
        let reference = reference_checksum(scale);
        assert!(
            (parallel - reference).abs() < 1e-6 * reference.abs().max(1.0),
            "parallel {parallel} vs reference {reference}"
        );
    }

    /// The checksum as the triple loop over every product element.
    fn triple_loop_checksum(n: usize) -> f64 {
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                let mut c = 0.0;
                for k in 0..n {
                    c += a_elem(i, k) * b_elem(k, j);
                }
                sum += c;
            }
        }
        sum
    }

    #[test]
    fn checksum_is_bit_identical_to_the_triple_loop() {
        for dimension in [1, 4, 48, 97, 130] {
            let fast = checksum_for(DmmParams { dimension });
            let slow = triple_loop_checksum(dimension);
            assert_eq!(fast.to_bits(), slow.to_bits(), "n = {dimension}");
        }
    }

    /// Row `a_row` × B as the `b_elem` loop the block task ran before.
    fn multiply_row_by_b_elem(a_row: &[Word]) -> Vec<f64> {
        (0..a_row.len())
            .map(|j| {
                let mut c = 0.0;
                for (k, &a) in a_row.iter().enumerate() {
                    c += word_to_f64(a) * b_elem(k, j);
                }
                c
            })
            .collect()
    }

    #[test]
    fn rows_are_bit_identical_to_the_b_elem_loop() {
        let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let w = B_COLUMNS;
        // Sizes around the block width, then a few rows at n = 400.
        let rows = |n: usize| {
            if n > 97 {
                vec![0, 1, 7, n / 2, n - 1]
            } else {
                (0..n).collect()
            }
        };
        for n in [1, 4, w - 1, w, w + 1, 2 * w + 1, 97, 400] {
            let panel = b_panel(n);
            for k in 0..n {
                for j in 0..n {
                    assert_eq!(b_elem(k, j), panel[k * w + j % w], "n = {n}");
                }
            }
            let mut fast = Vec::new();
            for i in rows(n) {
                let a_row: Vec<Word> = (0..n).map(|k| f64_to_word(a_elem(i, k))).collect();
                fast.clear();
                multiply_row(&a_row, &panel, &mut fast);
                let slow = multiply_row_by_b_elem(&a_row);
                assert_eq!(bits(&fast), bits(&slow), "n = {n}, row {i}");
            }
        }
    }

    #[test]
    fn dimension_scales_with_floor() {
        assert_eq!(dimension(Scale::paper()), 600);
        assert!(dimension(Scale::tiny()) >= 48);
    }

    #[test]
    fn four_by_four_product_matches_hand_written_matrices() {
        // The generator formulas written out by hand for n = 4; every value
        // is a multiple of 0.25 or 0.5, so all arithmetic below is exact.
        let a = [
            [-1.0, -0.25, 0.5, 1.25],
            [0.75, 1.5, -1.0, -0.25],
            [-0.75, 0.0, 0.75, 1.5],
            [1.0, 1.75, -0.75, 0.0],
        ];
        let b = [
            [-2.0, 0.5, 3.0, 0.0],
            [-1.5, 1.0, -2.0, 0.5],
            [-1.0, 1.5, -1.5, 1.0],
            [-0.5, 2.0, -1.0, 1.5],
        ];
        for i in 0..4 {
            for k in 0..4 {
                assert_eq!(a[i][k], a_elem(i, k), "A[{i}][{k}]");
                assert_eq!(b[i][k], b_elem(i, k), "B[{i}][{k}]");
            }
        }
        let mut expected = 0.0;
        for row in &a {
            for j in 0..4 {
                for (a_ik, b_k) in row.iter().zip(&b) {
                    expected += a_ik * b_k[j];
                }
            }
        }
        let params = DmmParams { dimension: 4 };
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        spawn_with(&mut machine, params);
        machine.run();
        let got = take_checksum(&mut machine).expect("dmm produces a checksum");
        assert_eq!(got, expected, "the machine must compute the real product");
    }
}
