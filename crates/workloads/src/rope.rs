//! Rope-style parallel arrays.
//!
//! Manticore represents parallel arrays as ropes: trees whose leaves are
//! modest contiguous chunks. That representation is what makes large arrays
//! compatible with a nursery-sized local heap, and it is how the workloads
//! here store their matrices, particle sets, and integer sequences.
//!
//! For simplicity the reproduction uses a two-level rope: a spine vector of
//! pointers to raw leaf objects. A leaf is at most [`LEAF_SIZE`] words, but
//! the spine holds one pointer per leaf, ⌈n / 256⌉ words for n elements:
//! 1,954 words (about 15 KiB) at 500,000 elements. The spine is the one
//! object whose size grows with the input, and at `MGC_SCALE=small` figure
//! 8's Quicksort spine does not fit an emptied nursery (ROADMAP `[scales]`).
//!
//! `read_*_rope` size their output once, from the spine's length, before
//! reading any leaf, so a read never regrows its `Vec`.
//! `extend_from_i64_rope` appends to a `Vec` its caller has sized.

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

/// Appends the values of an `i64` rope to `out`, in order, keeping those
/// for which `keep` holds. Each leaf is read into one reused buffer, so this
/// allocates nothing when `out` has room. It makes the same `TaskCtx` calls
/// as [`read_i64_rope`].
pub fn extend_from_i64_rope(
    ctx: &mut TaskCtx<'_>,
    rope: Handle,
    out: &mut Vec<i64>,
    keep: impl Fn(i64) -> bool,
) {
    let leaves = ctx.len(rope);
    let mut words = Vec::with_capacity(LEAF_SIZE);
    for_each_leaf(ctx, rope, leaves, |ctx, leaf| {
        words.clear();
        ctx.read_words_into(leaf, &mut words);
        out.extend(words.iter().map(|&w| word_to_i64(w)).filter(|&v| keep(v)));
    });
}

fn read_word_rope(ctx: &mut TaskCtx<'_>, rope: Handle) -> Vec<Word> {
    let leaves = ctx.len(rope);
    let mut out = Vec::with_capacity(leaves * LEAF_SIZE);
    for_each_leaf(ctx, rope, leaves, |ctx, leaf| {
        ctx.read_words_into(leaf, &mut out)
    });
    out
}

/// Calls `read` on each of the rope's `leaves` leaves in order, with the
/// leaf's root pushed for the call and popped after it.
fn for_each_leaf(
    ctx: &mut TaskCtx<'_>,
    rope: Handle,
    leaves: usize,
    mut read: impl FnMut(&mut TaskCtx<'_>, Handle),
) {
    for i in 0..leaves {
        let mark = ctx.root_mark();
        let leaf = ctx.read_ptr(rope, i).expect("rope leaves are never null");
        read(ctx, leaf);
        ctx.truncate_roots(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_runtime::{Executor, Machine, MachineConfig, TaskResult, TaskSpec, ThreadedMachine};

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
                let mut odd = vec![i64::MIN];
                extend_from_i64_rope(ctx, rope, &mut odd, |v| v % 2 != 0);
                let mut expected = vec![i64::MIN];
                expected.extend(data.iter().copied().filter(|v| v % 2 != 0));
                assert_eq!(odd, expected, "n = {n}");
                ctx.truncate_roots(mark);
            }
            TaskResult::Unit
        }));
        machine.run();
    }

    /// `rope_len` leaves its caller's root set as it found it, on both
    /// backends: it reads the spine and the leaves in one read scope.
    #[test]
    fn rope_len_pushes_no_roots() {
        let body = || {
            TaskSpec::new("rope-len", |ctx| {
                let data: Vec<i64> = (0..1000).collect();
                let rope = build_i64_rope(ctx, &data);
                let mark = ctx.root_mark();
                assert_eq!(rope_len(ctx, rope), 1000);
                assert_eq!(ctx.root_mark(), mark, "no root per leaf");
                TaskResult::Unit
            })
        };
        let mut machine = Machine::new(MachineConfig::small_for_tests(1));
        machine.spawn_root(body());
        machine.run();
        let mut machine = ThreadedMachine::new(MachineConfig::small_for_tests(1));
        machine.spawn_root(body());
        machine.run();
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
