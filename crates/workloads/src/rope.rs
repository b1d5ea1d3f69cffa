//! Rope-style parallel arrays.
//!
//! Manticore represents parallel arrays as ropes: trees whose leaves are
//! modest contiguous chunks. That representation is what makes large arrays
//! compatible with a nursery-sized local heap, and it is how the workloads
//! here store their matrices, particle sets, and integer sequences.
//!
//! For simplicity the reproduction uses a two-level rope: a spine vector of
//! pointers to raw leaf objects. A leaf holds at most [`LEAF_SIZE`] words
//! and at least one. A built rope fills every leaf but its last, so its
//! spine is ⌈n / 256⌉ words for n elements: 1,954 words (about 15 KiB) at
//! 500,000 elements. [`concat()`] shares its parts' leaves, so in a
//! concatenated rope a partial leaf may sit anywhere and the spine may be
//! longer than ⌈n / 256⌉: Quicksort's sorted 500,000 elements have 2,268
//! leaves. The spine is the one object whose size grows with the input,
//! and at `MGC_SCALE=small` figure 8's Quicksort spine does not fit an
//! emptied nursery (ROADMAP `[scales]`).
//!
//! `read_*_rope` size their output once, before reading any leaf, so a read
//! never regrows its `Vec`: the capacity is `leaves × LEAF_SIZE`, an upper
//! bound on the length that is exact only when every leaf is full.

use mgc_heap::{f64_to_word, i64_to_word, word_to_f64, word_to_i64, Word};
use mgc_runtime::{Handle, TaskCtx};

/// Number of elements per rope leaf.
pub const LEAF_SIZE: usize = 256;

/// Builds a rope of `f64` values, returning a handle to its spine.
///
/// # Panics
///
/// Panics if `values` is empty (ropes always have at least one leaf).
pub fn build_f64_rope(ctx: &mut TaskCtx<'_>, values: &[f64]) -> Handle {
    build_rope(ctx, values, f64_to_word)
}

/// Builds a rope of `i64` values, returning a handle to its spine.
///
/// # Panics
///
/// Panics if `values` is empty (ropes always have at least one leaf).
pub fn build_i64_rope(ctx: &mut TaskCtx<'_>, values: &[i64]) -> Handle {
    build_rope(ctx, values, i64_to_word)
}

/// Writes each leaf straight from its chunk of `values`, converted by
/// `to_word` (generic, so the conversion inlines into the fill loop).
fn build_rope<T: Copy>(ctx: &mut TaskCtx<'_>, values: &[T], to_word: impl Fn(T) -> Word) -> Handle {
    assert!(!values.is_empty(), "ropes must hold at least one element");
    let mut leaves = Vec::with_capacity(values.len().div_ceil(LEAF_SIZE));
    for chunk in values.chunks(LEAF_SIZE) {
        leaves.push(Some(ctx.alloc_raw_with(chunk.len(), |i| to_word(chunk[i]))));
    }
    ctx.alloc_vector(&leaves)
}

/// Total number of elements stored in a rope, read in one read scope: the
/// caller's root set is unchanged.
pub fn rope_len(ctx: &mut TaskCtx<'_>, rope: Handle) -> usize {
    ctx.read_scope(|r| {
        let spine = r.obj(rope);
        (0..r.len(spine))
            .map(|i| {
                let [leaf] = r.ptrs(spine, i);
                r.len(leaf.expect("rope leaves are never null"))
            })
            .sum()
    })
}

/// Reads an entire rope of `f64` values back into a `Vec`.
pub fn read_f64_rope(ctx: &mut TaskCtx<'_>, rope: Handle) -> Vec<f64> {
    read_word_rope(ctx, rope)
        .into_iter()
        .map(word_to_f64)
        .collect()
}

/// Reads an entire rope of `i64` values back into a `Vec`.
pub fn read_i64_rope(ctx: &mut TaskCtx<'_>, rope: Handle) -> Vec<i64> {
    read_word_rope(ctx, rope)
        .into_iter()
        .map(word_to_i64)
        .collect()
}

/// Concatenates ropes without copying an element: reads each part's spine
/// and allocates one new spine over all their leaves, in order. It reads
/// no leaf and allocates nothing else, so the parts and the result share
/// their leaves.
pub fn concat(ctx: &mut TaskCtx<'_>, parts: &[Handle]) -> Handle {
    let mut leaves = Vec::new();
    for &part in parts {
        for i in 0..ctx.len(part) {
            leaves.push(ctx.read_ptr(part, i));
        }
    }
    ctx.alloc_vector(&leaves)
}

fn read_word_rope(ctx: &mut TaskCtx<'_>, rope: Handle) -> Vec<Word> {
    let leaves = ctx.len(rope);
    let mut out = Vec::with_capacity(leaves * LEAF_SIZE);
    for i in 0..leaves {
        let mark = ctx.root_mark();
        let leaf = ctx.read_ptr(rope, i).expect("rope leaves are never null");
        ctx.read_words_into(leaf, &mut out);
        ctx.truncate_roots(mark);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{
        Executor, Machine, MachineConfig, RunReport, TaskResult, TaskSpec, ThreadedMachine,
    };

    #[test]
    fn rope_round_trips_f64_data() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        machine.spawn_root(TaskSpec::new("rope-test", |ctx| {
            let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
            let rope = build_f64_rope(ctx, &data);
            assert_eq!(rope_len(ctx, rope), 1000);
            let back = read_f64_rope(ctx, rope);
            assert_eq!(back, data);
            TaskResult::Unit
        }));
        machine.run();
    }

    #[test]
    fn rope_round_trips_i64_data_across_gc() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        machine.spawn_root(TaskSpec::new("rope-gc-test", |ctx| {
            let data: Vec<i64> = (0..4000).map(|i| i * 3 - 1000).collect();
            let rope = build_i64_rope(ctx, &data);
            // Allocate garbage to force several collections.
            let mark = ctx.root_mark();
            for _ in 0..500 {
                ctx.alloc_raw(&[7; 32]);
                ctx.truncate_roots(mark);
            }
            let back = read_i64_rope(ctx, rope);
            assert_eq!(back, data);
            TaskResult::Unit
        }));
        let report = machine.run();
        assert!(report.gc.minor_collections > 0);
    }

    #[test]
    fn i64_rope_round_trips_at_leaf_boundaries() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        machine.spawn_root(TaskSpec::new("rope-boundaries", |ctx| {
            for n in [1usize, 255, 256, 257, 513] {
                let data: Vec<i64> = (0..n as i64).map(|i| i * 7 - 900).collect();
                let mark = ctx.root_mark();
                let rope = build_i64_rope(ctx, &data);
                assert_eq!(ctx.len(rope), n.div_ceil(LEAF_SIZE), "spine of {n}");
                let back = read_i64_rope(ctx, rope);
                assert_eq!(back, data, "n = {n}");
                assert_eq!(back.capacity(), n.div_ceil(LEAF_SIZE) * LEAF_SIZE);
                ctx.truncate_roots(mark);
            }
            TaskResult::Unit
        }));
        machine.run();
    }

    /// Lengths on both sides of each leaf boundary.
    const BOUNDARY_LENGTHS: [usize; 5] = [1, 255, 256, 257, 513];

    /// Runs `body` as the root task of a one-vproc run on each backend.
    fn on_both_backends(body: fn(&mut TaskCtx<'_>)) -> [RunReport; 2] {
        let spec = || {
            TaskSpec::new("rope-test", move |ctx| {
                body(ctx);
                TaskResult::Unit
            })
        };
        let mut simulated = Machine::new(MachineConfig::small_for_tests(1));
        simulated.spawn_root(spec());
        let mut threaded = ThreadedMachine::new(MachineConfig::small_for_tests(1));
        threaded.spawn_root(spec());
        [simulated.run(), threaded.run()]
    }

    #[test]
    fn concat_reads_back_the_concatenated_parts() {
        on_both_backends(|ctx| {
            let parts: Vec<Vec<i64>> = BOUNDARY_LENGTHS
                .iter()
                .zip(0..)
                .map(|(&n, k)| (0..n as i64).map(|i| i * 5 + k * 1_000).collect())
                .collect();
            let ropes: Vec<Handle> = parts.iter().map(|p| build_i64_rope(ctx, p)).collect();
            // Every contiguous run of parts, so a partial leaf lands first,
            // in the middle and last.
            for first in 0..parts.len() {
                for last in first..parts.len() {
                    let mark = ctx.root_mark();
                    let rope = concat(ctx, &ropes[first..=last]);
                    let want = parts[first..=last].concat();
                    let spine: usize = parts[first..=last]
                        .iter()
                        .map(|p| p.len().div_ceil(LEAF_SIZE))
                        .sum();
                    assert_eq!(ctx.len(rope), spine, "parts {first}..={last}");
                    assert_eq!(rope_len(ctx, rope), want.len());
                    assert_eq!(read_i64_rope(ctx, rope), want, "parts {first}..={last}");
                    ctx.truncate_roots(mark);
                }
            }
            // A concatenation is a rope like any other: it concatenates.
            let inner = concat(ctx, &ropes[1..3]);
            let outer = concat(ctx, &[ropes[0], inner, ropes[4]]);
            let want = [&parts[0][..], &parts[1], &parts[2], &parts[4]].concat();
            assert_eq!(read_i64_rope(ctx, outer), want);
        });
    }

    /// `concat` allocates one object, the new spine: `leaves + 1` words
    /// with its header, and no leaf. Two runs that differ only by the
    /// `concat` call differ by exactly that in the heap's allocation counts.
    #[test]
    fn concat_allocates_one_spine_and_no_leaf() {
        fn parts(ctx: &mut TaskCtx<'_>) -> Vec<Handle> {
            BOUNDARY_LENGTHS
                .iter()
                .map(|&n| build_i64_rope(ctx, &vec![3; n]))
                .collect()
        }
        let leaves: usize = BOUNDARY_LENGTHS.iter().map(|n| n.div_ceil(LEAF_SIZE)).sum();
        let without = on_both_backends(|ctx| {
            parts(ctx);
        });
        let with = on_both_backends(|ctx| {
            let ropes = parts(ctx);
            concat(ctx, &ropes);
        });
        for (without, with) in without.iter().zip(&with) {
            assert_eq!(with.allocated_objects, without.allocated_objects + 1);
            assert_eq!(
                with.allocated_words,
                without.allocated_words + leaves as u64 + 1
            );
        }
    }

    /// `rope_len` leaves its caller's root set as it found it, on both
    /// backends: it reads the spine and the leaves in one read scope.
    #[test]
    fn rope_len_pushes_no_roots() {
        on_both_backends(|ctx| {
            let data: Vec<i64> = (0..1000).collect();
            let rope = build_i64_rope(ctx, &data);
            let mark = ctx.root_mark();
            assert_eq!(rope_len(ctx, rope), 1000);
            assert_eq!(ctx.root_mark(), mark, "no root per leaf");
        });
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_rope_rejected() {
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        machine.spawn_root(TaskSpec::new("empty-rope", |ctx| {
            build_f64_rope(ctx, &[]);
            TaskResult::Unit
        }));
        machine.run();
    }
}
