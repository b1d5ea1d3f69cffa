//! Collections on recycled, unzeroed heap storage.
//!
//! A local heap or chunk built after another one was dropped takes over its
//! words as they were left. This fills every such buffer with forged headers
//! and pointer-looking words, then runs two minors, a major, a promotion onto
//! the other node and a global collection with `verify_after_gc`, on both
//! heaps. Each run must match the same run on zeroed storage word for word
//! in what it reports and reads back: a collection that read a word it had
//! not written would see the forgery. It is the only test in this file, so
//! no other test takes the poisoned buffers first.

use mgc_core::{Collector, GcConfig, GcOutcome, ParallelGcState, Sequential};
use mgc_heap::{
    Addr, GcHeap, Header, Heap, HeapConfig, ObjectKind, SharedGlobalHeap, ThreadedLayout, Word,
    WorkerHeap, GLOBAL_BASE, LOCAL_BASE,
};
use mgc_numa::NodeId;
use std::sync::Arc;

/// The two-vproc, two-node machine both heaps are built for.
const NODES: [NodeId; 2] = [NodeId::new(0), NodeId::new(1)];

/// What a poisoned buffer holds at word `i`: a header of a plausible
/// three-pointer vector, two addresses into live chunk and local-heap space,
/// and a raw header whose length runs far past any chunk.
fn forged(i: usize) -> Word {
    match i % 4 {
        0 => Header::new(ObjectKind::Vector, 3).encode(),
        1 => GLOBAL_BASE + 8 * (1 + i as u64 % 512),
        2 => LOCAL_BASE + 8 * (1 + i as u64 % 1024),
        _ => Header::new(ObjectKind::Raw, 1 << 20).encode(),
    }
}

/// Fills the process's spare storage with `fill(i)` at word `i`: builds a
/// four-vproc heap of the same geometry with 32 chunks — more of each than
/// a scenario holds, so it takes every spare buffer there is — writes every
/// word, and drops it.
fn poison(fill: fn(usize) -> Word) {
    let mut heap = Heap::new(HeapConfig::small_for_tests(), &NODES.repeat(2), 2);
    for vproc in 0..4 {
        let local = heap.worker_mut(vproc).local_mut();
        for offset in 0..local.size_words() {
            local.write(offset, fill(offset));
        }
        for _ in 0..8 {
            let id = heap.worker_mut(vproc).fresh_current_chunk();
            let chunk = heap.global().chunk(id);
            for offset in 0..chunk.size_words() {
                chunk.write(offset, fill(offset));
            }
        }
    }
}

/// Vproc 0's mutator and global collection on either heap.
trait Machine: GcHeap + Sized {
    fn build() -> Self;
    fn raw(&mut self, payload: &[Word]) -> Addr;
    fn vector(&mut self, elements: &[Word]) -> Addr;
    fn promote_onto(&mut self, node: NodeId);
    fn collect_global(&mut self, collector: &mut Collector, roots: &mut Vec<Addr>);
}

impl Machine for Heap {
    fn build() -> Self {
        Heap::new(HeapConfig::small_for_tests(), &NODES, 2)
    }
    fn raw(&mut self, payload: &[Word]) -> Addr {
        self.alloc_raw(0, payload).unwrap()
    }
    fn vector(&mut self, elements: &[Word]) -> Addr {
        self.alloc_vector(0, elements).unwrap()
    }
    fn promote_onto(&mut self, node: NodeId) {
        self.worker_mut(0).set_promotion_target(node);
    }
    fn collect_global(&mut self, collector: &mut Collector, roots: &mut Vec<Addr>) {
        let mut per_vproc = [std::mem::take(roots), Vec::new()];
        collector.global(self, &mut per_vproc);
        *roots = std::mem::take(&mut per_vproc[0]);
    }
}

impl Machine for WorkerHeap {
    fn build() -> Self {
        let layout = ThreadedLayout::new(&HeapConfig::small_for_tests(), 2, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        WorkerHeap::new(0, layout, NODES[0], global, Arc::default())
    }
    fn raw(&mut self, payload: &[Word]) -> Addr {
        self.alloc_raw(payload).unwrap()
    }
    fn vector(&mut self, elements: &[Word]) -> Addr {
        self.alloc_vector(elements).unwrap()
    }
    fn promote_onto(&mut self, node: NodeId) {
        self.set_promotion_target(node);
    }
    /// The global collection's one sequence, run for this worker alone
    /// after its own minor and major collections.
    fn collect_global(&mut self, collector: &mut Collector, roots: &mut Vec<Addr>) {
        collector.minor(self, 0, roots);
        collector.major(self, 0, roots);
        self.retire_current_chunk();
        let mut vprocs = Sequential {
            heap: &mut *self,
            roots: std::slice::from_mut(roots),
            costs: None,
        };
        collector.collect_global(&mut vprocs, &ParallelGcState::new(), None);
        self.retire_current_chunk();
        let violations = self.verify_violations();
        assert!(violations.is_empty(), "{violations:?}");
    }
}

/// A list of `cells` cells of raw `[base + i, i]` values ending in `tail`,
/// each leaving a dead raw object behind.
fn list<M: Machine>(heap: &mut M, base: u64, cells: u64, tail: Addr) -> Addr {
    (0..cells).fold(tail, |next, i| {
        heap.raw(&[i; 3]);
        let value = heap.raw(&[base + i, i]);
        heap.vector(&[value.raw(), next.raw()])
    })
}

/// Every `(value, index)` pair of the list at `head`, in list order.
fn values<M: Machine>(heap: &M, mut head: Addr) -> Vec<(Word, Word)> {
    let mut out = Vec::new();
    while !head.is_null() {
        let value = Addr::new(heap.read_field(head, 0));
        out.push((heap.read_field(value, 0), heap.read_field(value, 1)));
        head = Addr::new(heap.read_field(head, 1));
    }
    out
}

/// Everything a run reports and reads back.
#[derive(Debug, PartialEq)]
struct Run {
    outcomes: Vec<GcOutcome>,
    lists: Vec<Vec<(Word, Word)>>,
    chunks_created: u64,
}

/// The scenario of the module doc on a fresh heap of type `M`, which must
/// take over the buffers `fill` wrote.
fn run<M: Machine>(fill: fn(usize) -> Word) -> Run {
    poison(fill);
    let mut heap = M::build();
    let local = heap.worker_mut(0).local();
    let last = local.size_words() - 1;
    assert_eq!(local.read(last), fill(last), "the local heap is recycled");

    let mut collector = Collector::new(GcConfig::small_for_tests(), 2, 2);
    let mut outcomes = Vec::new();
    let mut lists = Vec::new();
    let mut roots = vec![list(&mut heap, 1000, 30, Addr::NULL)];
    outcomes.push(collector.minor(&mut heap, 0, &mut roots));
    roots.push(list(&mut heap, 2000, 30, roots[0]));
    outcomes.push(collector.minor(&mut heap, 0, &mut roots));
    outcomes.push(collector.major(&mut heap, 0, &mut roots));
    roots.push(list(&mut heap, 3000, 20, roots[1]));
    lists.extend(roots.iter().map(|&head| values(&heap, head)));

    heap.promote_onto(NODES[1]);
    let (promoted, outcome) = collector.promote(&mut heap, 0, roots[2]);
    outcomes.push(outcome);
    roots[2] = promoted;
    heap.promote_onto(NODES[0]);
    let chunk = heap.global().chunks().find(|c| c.free_words() > 0).unwrap();
    let last = chunk.size_words() - 1;
    assert_eq!(chunk.read(last), fill(last), "the chunk is recycled");

    heap.collect_global(&mut collector, &mut roots);
    lists.extend(roots.iter().map(|&head| values(&heap, head)));
    Run {
        outcomes,
        lists,
        chunks_created: heap.global().chunks_created(),
    }
}

#[test]
fn collections_on_poisoned_storage_match_zeroed_storage_on_both_heaps() {
    let simulated = run::<Heap>(|_| 0);
    assert_eq!(run::<Heap>(forged), simulated, "simulated heap");
    let threaded = run::<WorkerHeap>(|_| 0);
    assert_eq!(run::<WorkerHeap>(forged), threaded, "worker heap");

    let expected: Vec<(Word, Word)> = (0..20)
        .rev()
        .map(|i| (3000 + i, i))
        .chain((0..30).rev().map(|i| (2000 + i, i)))
        .chain((0..30).rev().map(|i| (1000 + i, i)))
        .collect();
    for run in [&simulated, &threaded] {
        assert_eq!(run.lists.len(), 6);
        assert_eq!(run.lists[2], expected, "before the global collection");
        assert_eq!(run.lists[5], expected, "after it");
        let copied = |i: usize| run.outcomes[i].copied_bytes;
        let promoted = |i: usize| run.outcomes[i].promoted_bytes;
        assert!(copied(0) > 0 && copied(1) > 0, "both minors copy");
        assert!(
            promoted(2) > 0 && promoted(3) > 0,
            "the major and the promotion promote"
        );
    }
}
