//! The Quicksort benchmark (paper §4.1: 10,000,000 integers, after the NESL
//! formulation).
//!
//! The sequence is stored as a rope; each recursion level reads its input,
//! partitions it sequentially, builds the two sub-ropes, and forks the
//! recursive sorts. The sequential partition at the top of the recursion is
//! the reason the paper sees quicksort's speedup flatten on large machines
//! ("limited by its fork-join parallelism", §4.2).

use crate::rope::{build_i64_rope, read_i64_rope};
use crate::scale::Scale;
use mgc_heap::{i64_to_word, word_to_i64};
use mgc_runtime::{Checksum, Executor, Handle, Program, TaskCtx, TaskResult, TaskSpec};

/// Input size at the benchmark preset: quicksort is the most
/// allocation-bound workload (every partition builds fresh ropes), so it
/// uses a smaller element count than the uniform factor would give.
pub const BENCH_ELEMENTS: usize = 250_000;

/// Number of integers to sort at the given scale (the paper sorts 10 M).
pub fn input_size(scale: Scale) -> usize {
    if scale.is_bench() {
        return BENCH_ELEMENTS;
    }
    scale.apply(10_000_000, 2_048)
}

/// Parameters of the quicksort benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuicksortParams {
    /// Number of integers to sort (the paper sorts 10,000,000).
    pub elements: usize,
}

impl QuicksortParams {
    /// The paper's input shrunk by `scale` (with a floor of 2,048).
    pub fn at_scale(scale: Scale) -> Self {
        QuicksortParams {
            elements: input_size(scale),
        }
    }
}

impl Default for QuicksortParams {
    fn default() -> Self {
        QuicksortParams::at_scale(Scale::default())
    }
}

/// Parallel quicksort as a [`Program`].
#[derive(Debug, Clone, Copy)]
pub struct Quicksort {
    /// The run's parameters.
    pub params: QuicksortParams,
}

impl Quicksort {
    /// A quicksort program with explicit parameters.
    pub fn new(params: QuicksortParams) -> Self {
        Quicksort { params }
    }

    /// A quicksort program at the paper's input scaled by `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        Quicksort::new(QuicksortParams::at_scale(scale))
    }
}

impl Program for Quicksort {
    fn name(&self) -> &str {
        "Quicksort"
    }

    fn spawn(&self, machine: &mut dyn Executor) {
        spawn_with(machine, self.params);
    }

    fn expected_checksum(&self) -> Option<Checksum> {
        let mut sorted = generate_input(self.params.elements);
        sorted.sort_unstable();
        Some(Checksum::I64(positional_checksum(&sorted)))
    }

    fn params_json(&self) -> String {
        format!("{{\"elements\": {}}}", self.params.elements)
    }
}

/// Below this size a task sorts sequentially instead of forking.
const SEQUENTIAL_CUTOFF: usize = 4_096;

/// Deterministic pseudo-random input (xorshift), identical for every run.
pub fn generate_input(n: usize) -> Vec<i64> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_000) as i64 - 500_000
        })
        .collect()
}

fn sort_task(depth: usize) -> TaskSpec {
    TaskSpec::new("qsort", move |ctx| {
        let input = ctx.input(0);
        let values = read_i64_rope(ctx, input);
        if values.len() <= SEQUENTIAL_CUTOFF || depth > 24 {
            let mut sorted = values;
            sorted.sort_unstable();
            ctx.work((sorted.len() as u64).max(1) * 24);
            let out = build_i64_rope(ctx, &sorted);
            return TaskResult::Ptr(out);
        }
        // Median-of-three pivot, then a sequential partition — this is the
        // serial fraction that limits scalability.
        let pivot = {
            let a = values[0];
            let b = values[values.len() / 2];
            let c = values[values.len() - 1];
            a.max(b.min(c)).min(b.max(c))
        };
        ctx.work(values.len() as u64 * 4);
        let less: Vec<i64> = values.iter().copied().filter(|&v| v < pivot).collect();
        let equal: Vec<i64> = values.iter().copied().filter(|&v| v == pivot).collect();
        let greater: Vec<i64> = values.iter().copied().filter(|&v| v > pivot).collect();

        let less_rope = build_i64_rope_or_empty(ctx, &less);
        let greater_rope = build_i64_rope_or_empty(ctx, &greater);
        let equal_rope = build_i64_rope(ctx, &equal);

        let children = vec![
            (sort_task(depth + 1), vec![less_rope]),
            (sort_task(depth + 1), vec![greater_rope]),
        ];
        ctx.fork_join(
            children,
            TaskSpec::new("qsort-merge", |ctx| {
                // Inputs: [equal, sorted-less, sorted-greater]. Empty-side
                // sentinels (see `build_i64_rope_or_empty`) are dropped here,
                // so they never appear past one recursion level and the
                // merged rope is exactly the sorted subsequence.
                let equal = ctx.input(0);
                let sorted_less = ctx.input(1);
                let sorted_greater = ctx.input(2);
                let mut merged: Vec<i64> = read_i64_rope(ctx, sorted_less)
                    .into_iter()
                    .filter(|&v| v != i64::MIN)
                    .collect();
                merged.extend(read_i64_rope(ctx, equal));
                merged.extend(
                    read_i64_rope(ctx, sorted_greater)
                        .into_iter()
                        .filter(|&v| v != i64::MIN),
                );
                ctx.work(merged.len() as u64 * 2);
                let out = build_i64_rope(ctx, &merged);
                TaskResult::Ptr(out)
            }),
            &[equal_rope],
        );
        TaskResult::Unit
    })
}

/// Ropes must be non-empty, so an empty partition is represented by a
/// one-element `i64::MIN` sentinel (the generated input never produces that
/// value). The parent's merge filters sentinels back out, so they survive at
/// most one recursion level and never reach the final sequence.
fn build_i64_rope_or_empty(ctx: &mut TaskCtx<'_>, values: &[i64]) -> Handle {
    if values.is_empty() {
        build_i64_rope(ctx, &[i64::MIN])
    } else {
        build_i64_rope(ctx, values)
    }
}

/// A position-sensitive checksum of the sorted sequence: each element is
/// weighted by its position modulo a small cycle, so a sequence with the
/// right multiset in the wrong order (the failure a plain sum cannot see)
/// changes the value. All arithmetic wraps, identically on every backend.
pub fn positional_checksum(values: &[i64]) -> i64 {
    values.iter().enumerate().fold(0i64, |acc, (i, &v)| {
        acc.wrapping_add(v.wrapping_mul((i % 64) as i64 + 1))
    })
}

/// Spawns the quicksort workload at the given scale; the root result is the
/// position-weighted checksum of the sorted rope, so both the multiset and
/// the order of the output are verified.
pub fn spawn(machine: &mut dyn Executor, scale: Scale) {
    spawn_with(machine, QuicksortParams::at_scale(scale));
}

/// Spawns the quicksort workload with explicit parameters.
pub fn spawn_with(machine: &mut dyn Executor, params: QuicksortParams) {
    let n = params.elements;
    machine.spawn_root(TaskSpec::new("qsort-root", move |ctx| {
        let input = generate_input(n);
        let rope = build_i64_rope(ctx, &input);
        ctx.fork_join(
            vec![(sort_task(0), vec![rope])],
            TaskSpec::new("qsort-checksum", |ctx| {
                let sorted = ctx.input(0);
                let values = read_i64_rope(ctx, sorted);
                TaskResult::Value(i64_to_word(positional_checksum(&values)))
            }),
            &[],
        );
        TaskResult::Unit
    }));
}

/// Reads the checksum produced by a finished quicksort run.
pub fn take_checksum(machine: &mut dyn Executor) -> Option<i64> {
    machine.take_result().map(|(word, _)| word_to_i64(word))
}

/// The reference checksum: the positional checksum of the sequentially
/// sorted input.
pub fn reference_checksum(scale: Scale) -> i64 {
    let mut sorted = generate_input(input_size(scale));
    sorted.sort_unstable();
    positional_checksum(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{Machine, MachineConfig};

    #[test]
    fn sorting_produces_the_sorted_sequence() {
        let scale = Scale::tiny();
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        spawn(&mut machine, scale);
        machine.run();
        assert_eq!(
            take_checksum(&mut machine),
            Some(reference_checksum(scale)),
            "the output must be the input values in sorted order"
        );
    }

    #[test]
    fn parallel_sort_crosses_the_fork_cutoff() {
        // Enough elements that the recursion forks (> SEQUENTIAL_CUTOFF),
        // exercising partition, sentinel filtering, and the merge path.
        let params = QuicksortParams {
            elements: SEQUENTIAL_CUTOFF * 4,
        };
        let mut machine = Machine::new(MachineConfig::small_for_tests(2));
        spawn_with(&mut machine, params);
        machine.run();
        let mut sorted = generate_input(params.elements);
        sorted.sort_unstable();
        assert_eq!(
            take_checksum(&mut machine),
            Some(positional_checksum(&sorted))
        );
    }

    #[test]
    fn positional_checksum_matches_hand_computed_8_elements() {
        // Positions 0..8 weight 1..9: 3·1 + 1·2 + 4·3 + 1·4 + 5·5 + 9·6 +
        // 2·7 + 6·8 = 162.
        assert_eq!(positional_checksum(&[3, 1, 4, 1, 5, 9, 2, 6]), 162);
        // Sorted order gives a different value: 1·1 + 1·2 + 2·3 + 3·4 +
        // 4·5 + 5·6 + 6·7 + 9·8 = 185 — order matters.
        assert_eq!(positional_checksum(&[1, 1, 2, 3, 4, 5, 6, 9]), 185);
    }

    #[test]
    fn generated_input_is_deterministic_and_unsorted() {
        let a = generate_input(1000);
        let b = generate_input(1000);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_ne!(a, sorted);
    }
}
