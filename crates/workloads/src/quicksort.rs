//! The Quicksort benchmark (paper §4.1: 10,000,000 integers, after the NESL
//! formulation).
//!
//! The sequence is stored as a rope; each recursion level reads its input,
//! partitions it sequentially, builds the sub-ropes, and forks the
//! recursive sorts. The sequential partition at the top of the recursion is
//! the reason the paper sees quicksort's speedup flatten on large machines
//! ("limited by its fork-join parallelism", §4.2). A level's result is the
//! concatenation of its sorted sides and the equal run: a new spine over
//! their leaves (`rope::concat`), so no element is copied on the way up.
//!
//! The paper's Quicksort is compiled code, so the host work around the
//! `TaskCtx` calls is kept small: the partition is one branch-free pass.
//! It is still sequential, and still the serial fraction.

use crate::rope::{build_i64_rope, concat, read_i64_rope};
use crate::scale::Scale;
use mgc_heap::{i64_to_word, word_to_i64};
use mgc_runtime::{Checksum, Executor, Handle, Program, TaskResult, TaskSpec};

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
        // The input rope is dead once read: without its root, a collection
        // during this level's allocation does not copy it.
        ctx.truncate_roots(0);
        if values.len() <= SEQUENTIAL_CUTOFF || depth > 24 {
            let mut sorted = values;
            sorted.sort_unstable();
            ctx.work((sorted.len() as u64).max(1) * 24);
            let out = build_i64_rope(ctx, &sorted);
            return TaskResult::Ptr(out);
        }
        // Median-of-three pivot, then a sequential partition — this is the
        // serial fraction that limits scalability.
        let pivot = median_of_three(&values);
        ctx.work(values.len() as u64 * 4);
        let (less, greater, equal) = partition(values, pivot);
        // An empty side forks no child, so the merge is told which exist.
        let (has_less, has_greater) = (!less.is_empty(), !greater.is_empty());
        // Each host buffer is dropped once its rope is built.
        let children: Vec<_> = [less, greater]
            .into_iter()
            .filter(|side| !side.is_empty())
            .map(|side| (sort_task(depth + 1), vec![build_i64_rope(ctx, &side)]))
            .collect();
        // The pivot is one of the three sampled values, so `equal >= 1`.
        let equal_rope = build_i64_rope(ctx, &vec![pivot; equal]);
        if children.is_empty() {
            return TaskResult::Ptr(equal_rope);
        }
        ctx.fork_join(
            children,
            TaskSpec::new("qsort-merge", move |ctx| {
                // Inputs: [equal, sorted-less if any, sorted-greater if any].
                let equal = ctx.input(0);
                let less = has_less.then(|| ctx.input(1));
                let greater = has_greater.then(|| ctx.input(1 + usize::from(has_less)));
                let parts: Vec<Handle> = less.into_iter().chain([equal]).chain(greater).collect();
                TaskResult::Ptr(concat(ctx, &parts))
            }),
            &[equal_rope],
        );
        TaskResult::Unit
    })
}

/// The median of the first, middle and last elements.
fn median_of_three(values: &[i64]) -> i64 {
    let a = values[0];
    let b = values[values.len() / 2];
    let c = values[values.len() - 1];
    a.max(b.min(c)).min(b.max(c))
}

/// Splits `values` around `pivot` in one pass: the elements below it and
/// the elements above it, each in input order, and the number equal to it.
/// The pass has no data-dependent branch: every element is written to the
/// next free slot of both sides, and each side's cursor advances by its
/// comparison's outcome, so a slot is kept only when the element belongs
/// there. The less side is compacted in place (its cursor never passes the
/// element being read), so the pass holds `2n` words of host memory.
fn partition(mut values: Vec<i64>, pivot: i64) -> (Vec<i64>, Vec<i64>, usize) {
    let n = values.len();
    let mut greater = vec![0; n];
    let (mut nl, mut ng) = (0, 0);
    for i in 0..n {
        let v = values[i];
        values[nl] = v;
        greater[ng] = v;
        nl += usize::from(v < pivot);
        ng += usize::from(v > pivot);
    }
    values.truncate(nl);
    greater.truncate(ng);
    (values, greater, n - nl - ng)
}

/// A position-sensitive checksum of the sorted sequence: each element is
/// weighted by its position modulo a small cycle, so a sequence with the
/// right multiset in the wrong order (the failure a plain sum cannot see)
/// changes the value. All arithmetic wraps, identically on every backend.
fn positional_checksum(values: &[i64]) -> i64 {
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
    spawn_sort(machine, move || generate_input(n));
}

/// Spawns a root task that sorts the values `input` returns (called inside
/// the task) and results in the positional checksum of the sorted rope.
fn spawn_sort(machine: &mut dyn Executor, input: impl FnOnce() -> Vec<i64> + Send + 'static) {
    machine.spawn_root(TaskSpec::new("qsort-root", move |ctx| {
        let rope = build_i64_rope(ctx, &input());
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
    use mgc_runtime::{Machine, MachineConfig, RunReport, ThreadedMachine};

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
        // exercising the partition and the concatenating merge.
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

    /// The partition as the three filters `sort_task` ran before.
    fn partition_by_filters(values: &[i64], pivot: i64) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
        let less = values.iter().copied().filter(|&v| v < pivot).collect();
        let equal = values.iter().copied().filter(|&v| v == pivot).collect();
        let greater = values.iter().copied().filter(|&v| v > pivot).collect();
        (less, equal, greater)
    }

    /// `n` values in `[0, range)` from a splitmix64 stream over `seed`.
    fn seeded(seed: u64, n: usize, range: u64) -> Vec<i64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % range) as i64
            })
            .collect()
    }

    #[test]
    fn one_pass_partition_equals_the_three_filters() {
        let mut inputs = vec![
            vec![5; 300],                          // all equal: both sides empty
            vec![1, 2, 3],                         // pivot 2: one each
            vec![3, 3, 1, 1, 3],                   // pivot 3: greater side empty
            vec![1, 1, 3, 3, 1],                   // pivot 1: less side empty
            vec![i64::MIN, 4, i64::MIN],           // the minimum value
            vec![i64::MIN, i64::MAX, 0, i64::MIN], // extremes
            generate_input(SEQUENTIAL_CUTOFF + 1),
        ];
        for seed in 0..20 {
            // Small ranges force duplicates of the pivot.
            for range in [2, 3, 17, 1_000_000] {
                inputs.push(seeded(seed, 1 + (seed as usize * 37) % 700, range));
            }
        }
        for values in &inputs {
            let pivot = median_of_three(values);
            let (less, greater, equal) = partition(values.clone(), pivot);
            let (want_less, want_equal, want_greater) = partition_by_filters(values, pivot);
            assert_eq!(less, want_less);
            assert_eq!(vec![pivot; equal], want_equal);
            assert_eq!(greater, want_greater);
        }
    }

    /// Sorts `values` on `machine` and checks the result's checksum.
    fn sort_and_check(machine: &mut dyn Executor, values: Vec<i64>) -> RunReport {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        spawn_sort(machine, move || values);
        let report = machine.run();
        let backend = machine.backend();
        assert_eq!(
            take_checksum(machine),
            Some(positional_checksum(&sorted)),
            "{backend}"
        );
        report
    }

    /// A level whose partition leaves one side empty forks one child, and
    /// an all-equal level forks none: both still sort, on both backends.
    #[test]
    fn one_sided_and_all_equal_partitions_sort() {
        let n = SEQUENTIAL_CUTOFF * 3;
        // Pivot 0 is the minimum (less side empty) or the maximum (greater
        // side empty) of the first, middle and last elements.
        let with_pivot_zero = |others: fn(i64) -> i64| {
            let mut values: Vec<i64> = (0..n as i64).map(others).collect();
            for i in [0, n / 2, n - 1] {
                values[i] = 0;
            }
            values
        };
        let inputs = [
            vec![7; n],
            with_pivot_zero(|i| 1 + i * 7_919 % 1_000),
            with_pivot_zero(|i| -1 - i * 7_919 % 1_000),
        ];
        for values in inputs {
            sort_and_check(
                &mut Machine::new(MachineConfig::small_for_tests(2)),
                values.clone(),
            );
            sort_and_check(
                &mut ThreadedMachine::new(MachineConfig::small_for_tests(2)),
                values,
            );
        }
    }

    /// A concatenated rope shares leaves built by other tasks, on other
    /// vprocs: they must survive promotion and global collections
    /// (`small_for_tests` verifies the heap after every collection).
    #[test]
    fn shared_leaves_survive_promotion_and_global_collections() {
        let machines: [Box<dyn Executor>; 2] = [
            Box::new(ThreadedMachine::new(MachineConfig::small_for_tests(2))),
            Box::new(Machine::new(MachineConfig::small_for_tests(4))),
        ];
        for mut machine in machines {
            let report = sort_and_check(machine.as_mut(), generate_input(SEQUENTIAL_CUTOFF * 16));
            let backend = machine.backend();
            assert!(report.total_promoted_bytes() > 0, "{backend}");
            assert!(report.gc.global_collections > 0, "{backend}");
        }
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
