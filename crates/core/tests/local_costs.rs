//! Local collections over one fixed mixed object graph: two minors, a major
//! collection with both young and old data, and a promotion onto the other
//! node, on vproc 0 of a two-vproc, two-node heap.

use mgc_core::{Collector, GcConfig, GcCost, GcOutcome, GcStats};
use mgc_heap::{
    Addr, Descriptor, DescriptorId, DescriptorTable, GcHeap, Heap, HeapConfig, SharedGlobalHeap,
    ThreadedLayout, Word, WorkerHeap,
};
use mgc_numa::NodeId;
use std::sync::Arc;

/// A mixed object: a raw word, then a pointer.
fn pair() -> Descriptor {
    Descriptor::new("pair", 2, 0b10)
}

/// Vproc 0's mutator on either heap.
trait Mutator: GcHeap + Sized {
    fn raw(&mut self, payload: &[Word]) -> Addr;
    fn vector(&mut self, elements: &[Word]) -> Addr;
    fn mixed(&mut self, descriptor: DescriptorId, payload: &[Word]) -> Addr;
    fn promote_onto(&mut self, node: NodeId);
}

impl Mutator for Heap {
    fn raw(&mut self, payload: &[Word]) -> Addr {
        self.alloc_raw(0, payload).unwrap()
    }
    fn vector(&mut self, elements: &[Word]) -> Addr {
        self.alloc_vector(0, elements).unwrap()
    }
    fn mixed(&mut self, descriptor: DescriptorId, payload: &[Word]) -> Addr {
        self.alloc_mixed(0, descriptor, payload).unwrap()
    }
    fn promote_onto(&mut self, node: NodeId) {
        self.set_promotion_target(0, node);
    }
}

impl Mutator for WorkerHeap {
    fn raw(&mut self, payload: &[Word]) -> Addr {
        self.alloc_raw(payload).unwrap()
    }
    fn vector(&mut self, elements: &[Word]) -> Addr {
        self.alloc_vector(elements).unwrap()
    }
    fn mixed(&mut self, descriptor: DescriptorId, payload: &[Word]) -> Addr {
        self.alloc_mixed(descriptor, payload).unwrap()
    }
    fn promote_onto(&mut self, node: NodeId) {
        self.set_promotion_target(node);
    }
}

/// The simulated heap, vproc `v` on node `v`, with [`pair`] registered.
fn simulated() -> (Heap, DescriptorId) {
    let mut heap = Heap::new(
        HeapConfig::small_for_tests(),
        &[NodeId::new(0), NodeId::new(1)],
        2,
    );
    let descriptor = heap.register_descriptor(pair());
    (heap, descriptor)
}

/// Vproc 0's worker heap of the same machine, with [`pair`] registered.
fn threaded() -> (WorkerHeap, DescriptorId) {
    let layout = ThreadedLayout::new(&HeapConfig::small_for_tests(), 2, 2);
    let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
    let mut table = DescriptorTable::new();
    let descriptor = table.register(pair());
    let worker = WorkerHeap::new(0, layout, NodeId::new(0), global, Arc::new(table));
    (worker, descriptor)
}

/// A list of `cells` cells ending in `tail`. Cell `i` holds a raw value of
/// `i % 3 + 1` words, or every third cell a pair over one; each cell leaves
/// a dead raw object behind.
fn generation<H: Mutator>(heap: &mut H, descriptor: DescriptorId, cells: u64, tail: Addr) -> Addr {
    let tag = 100 * cells;
    let mut list = tail;
    for i in 0..cells {
        let words: Vec<Word> = (0..=i % 3).map(|w| tag + 10 * i + w).collect();
        let mut value = heap.raw(&words);
        if i % 3 == 0 {
            value = heap.mixed(descriptor, &[tag + i, value.raw()]);
        }
        heap.raw(&[0xdead; 4]);
        list = heap.vector(&[value.raw(), list.raw()]);
    }
    list
}

/// The four collections, in order, and vproc 0's statistics after them.
fn collections<H: Mutator>(heap: &mut H, descriptor: DescriptorId) -> (Vec<GcOutcome>, GcStats) {
    let mut collector = Collector::new(GcConfig::small_for_tests(), 2, 2);
    // The first minor makes generation one young data.
    let mut roots = vec![generation(heap, descriptor, 6, Addr::NULL)];
    let first = collector.minor(heap, 0, &mut roots);
    // The second ages it into old data; generation two, which points at
    // it, becomes the young data.
    roots.push(generation(heap, descriptor, 4, roots[0]));
    let second = collector.minor(heap, 0, &mut roots);
    // The major promotes generation one and slides generation two down.
    let major = collector.major(heap, 0, &mut roots);
    // Generation three, in the nursery over both, is promoted onto node 1.
    let third = generation(heap, descriptor, 5, roots[1]);
    heap.promote_onto(NodeId::new(1));
    let (_, promotion) = collector.promote(heap, 0, third);
    (
        vec![first, second, major, promotion],
        *collector.vproc_stats(0),
    )
}

/// Per collection: `(cpu_ns.to_bits(), bytes_to_node, copied bytes,
/// promoted bytes)` of the simulated heap's outcome. The runtime feeds the
/// first two to the memory model, so these pin the virtual time a local
/// collection costs.
const PINNED: [(u64, [u64; 2], u64, u64); 4] = [
    (0x40a0266666666667, [1008, 0], 336, 0), // minor, 2067.2000000000003 ns
    (0x409ff99999999999, [696, 0], 232, 0),  // minor, 2046.3999999999999 ns
    (0x40ac3b3333333339, [1704, 0], 232, 336), // major, 3613.6000000000026 ns
    (0x4099099999999998, [512, 1024], 0, 512), // promotion, 1602.3999999999996 ns
];

#[test]
fn simulated_local_collection_charges_are_pinned() {
    let (mut heap, descriptor) = simulated();
    let (outcomes, _) = collections(&mut heap, descriptor);
    let charged: Vec<(u64, [u64; 2], u64, u64)> = outcomes
        .iter()
        .map(|o| {
            let bytes = &o.cost.bytes_to_node;
            (
                o.cost.cpu_ns.to_bits(),
                [bytes[0], bytes[1]],
                o.copied_bytes,
                o.promoted_bytes,
            )
        })
        .collect();
    assert_eq!(charged.as_slice(), PINNED.as_slice());
}

#[test]
fn a_worker_heap_collects_the_same_and_charges_nothing() {
    let (mut heap, descriptor) = simulated();
    let (simulated, simulated_stats) = collections(&mut heap, descriptor);
    let (mut worker, descriptor) = threaded();
    let (threaded, threaded_stats) = collections(&mut worker, descriptor);
    let moved = |outcomes: &[GcOutcome]| -> Vec<(u64, u64, Vec<u64>)> {
        outcomes
            .iter()
            .map(|o| {
                let by_node = o.promoted_bytes_by_node.clone();
                (o.copied_bytes, o.promoted_bytes, by_node)
            })
            .collect()
    };
    assert_eq!(moved(&threaded), moved(&simulated));
    assert_eq!(threaded_stats, simulated_stats);
    assert!(heap.verify_violations().is_empty());
    assert!(worker.verify_violations().is_empty());
    for outcome in &threaded {
        assert_eq!(outcome.cost, GcCost::default(), "{:?}", outcome.kind);
    }
}
