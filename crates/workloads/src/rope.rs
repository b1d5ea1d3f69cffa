//! Rope-style parallel arrays.
//!
//! Manticore represents parallel arrays as ropes: trees whose leaves are
//! modest contiguous chunks. That representation is what makes large arrays
//! compatible with a nursery-sized local heap — no single object ever
//! exceeds a few kilobytes — and it is how the workloads here store their
//! matrices, particle sets, and integer sequences.
//!
//! For simplicity the reproduction uses a two-level rope: a spine vector of
//! pointers to raw leaf objects.

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
    let mut leaves = Vec::new();
    for chunk in values.chunks(LEAF_SIZE) {
        leaves.push(Some(ctx.alloc_raw_with(chunk.len(), |i| to_word(chunk[i]))));
    }
    ctx.alloc_vector(&leaves)
}

/// Total number of elements stored in a rope.
pub fn rope_len(ctx: &mut TaskCtx<'_>, rope: Handle) -> usize {
    let leaves = ctx.len(rope);
    let mut total = 0;
    for i in 0..leaves {
        let leaf = ctx.read_ptr(rope, i).expect("rope leaves are never null");
        total += ctx.len(leaf);
    }
    total
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

fn read_word_rope(ctx: &mut TaskCtx<'_>, rope: Handle) -> Vec<Word> {
    let leaves = ctx.len(rope);
    let mut out = Vec::new();
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
    use mgc_runtime::{Machine, MachineConfig, TaskResult, TaskSpec};

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
