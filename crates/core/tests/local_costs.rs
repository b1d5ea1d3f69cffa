//! Local collections over fixed mixed object graphs: two minors, a major
//! collection with both young and old data, and a promotion onto the other
//! node, on vproc 0 of a two-vproc, two-node heap. One graph is lists of
//! small values, the other Barnes-Hut-shaped quadtrees.

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
        self.worker_mut(0).alloc_mixed(descriptor, payload).unwrap()
    }
    fn promote_onto(&mut self, node: NodeId) {
        self.worker_mut(0).set_promotion_target(node);
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

/// The simulated heap, vproc `v` on node `v`, with `descriptor` registered.
fn simulated(descriptor: Descriptor) -> (Heap, DescriptorId) {
    let mut heap = Heap::new(
        HeapConfig::small_for_tests(),
        &[NodeId::new(0), NodeId::new(1)],
        2,
    );
    let descriptor = heap.register_descriptor(descriptor);
    (heap, descriptor)
}

/// Vproc 0's worker heap of the same machine, with `descriptor` registered.
fn threaded(descriptor: Descriptor) -> (WorkerHeap, DescriptorId) {
    let layout = ThreadedLayout::new(&HeapConfig::small_for_tests(), 2, 2);
    let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
    let mut table = DescriptorTable::new();
    let descriptor = table.register(descriptor);
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

/// What the memory model takes from each simulated outcome:
/// `(cpu_ns.to_bits(), bytes_to_node, copied bytes, promoted bytes)`.
fn charged(outcomes: &[GcOutcome]) -> Vec<(u64, [u64; 2], u64, u64)> {
    outcomes
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
        .collect()
}

/// What each outcome moved, whichever heap it ran on.
fn moved(outcomes: &[GcOutcome]) -> Vec<(u64, u64, Vec<u64>)> {
    outcomes
        .iter()
        .map(|o| {
            let by_node = o.promoted_bytes_by_node.clone();
            (o.copied_bytes, o.promoted_bytes, by_node)
        })
        .collect()
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
    let (mut heap, descriptor) = simulated(pair());
    let (outcomes, _) = collections(&mut heap, descriptor);
    assert_eq!(charged(&outcomes).as_slice(), PINNED.as_slice());
}

#[test]
fn a_worker_heap_collects_the_same_and_charges_nothing() {
    let (mut heap, descriptor) = simulated(pair());
    let (simulated, simulated_stats) = collections(&mut heap, descriptor);
    let (mut worker, descriptor) = threaded(pair());
    let (threaded, threaded_stats) = collections(&mut worker, descriptor);
    assert_eq!(moved(&threaded), moved(&simulated));
    assert_eq!(threaded_stats, simulated_stats);
    assert!(heap.verify_violations().is_empty());
    assert!(worker.verify_violations().is_empty());
    for outcome in &threaded {
        assert_eq!(outcome.cost, GcCost::default(), "{:?}", outcome.kind);
    }
}

/// A Barnes-Hut quadtree node: four child pointers, then a mass and a
/// position.
fn quad() -> Descriptor {
    Descriptor::new("quad", 7, 0b0001111)
}

/// A complete quadtree `depth` levels deep, built bottom-up as Barnes-Hut's
/// sequential build does, each node leaving a dead raw object behind.
/// `count` numbers the nodes. Leaf `i` (counting across calls) points at
/// `below[i % len]` and `below[(3 * i + 1) % len]` in its first and third
/// slots, the other two null (all four null when `below` is empty).
fn quadtree<H: Mutator>(
    heap: &mut H,
    quad: DescriptorId,
    depth: u32,
    below: &[Addr],
    count: &mut u64,
) -> Addr {
    let children: [Addr; 4] = if depth == 0 {
        let pick = |k: u64| match below.len() {
            0 => Addr::NULL,
            len => below[k as usize % len],
        };
        [pick(*count), Addr::NULL, pick(3 * *count + 1), Addr::NULL]
    } else {
        std::array::from_fn(|_| quadtree(heap, quad, depth - 1, below, count))
    };
    *count += 1;
    let n = *count;
    heap.raw(&[0xdead]);
    let [a, b, c, d] = children.map(Addr::raw);
    heap.mixed(quad, &[a, b, c, d, n, 1000 + n, 2000 + n])
}

/// Payload field `k` of `node`, as an address.
fn child<H: GcHeap>(heap: &H, node: Addr, k: usize) -> Addr {
    Addr::new(heap.read_field(node, k))
}

/// Two minors, a major and a promotion over three quadtrees, and vproc 0's
/// statistics after them. Tree one (85 nodes) ages into old data; tree two
/// (21 nodes), young at the major, points at its own nodes and at tree
/// one's; tree three, in the nursery, points at both and is promoted onto
/// node 1.
fn quadtree_collections<H: Mutator>(heap: &mut H, quad: DescriptorId) -> (Vec<GcOutcome>, GcStats) {
    let mut collector = Collector::new(GcConfig::small_for_tests(), 2, 2);
    let mut count = 0;
    let mut roots = vec![quadtree(heap, quad, 3, &[], &mut count)];
    let first = collector.minor(heap, 0, &mut roots);
    // Tree two's leaves point at tree one's sixteen nodes one level above
    // its leaves, so those and their leaves are promoted by the major.
    let one = roots[0];
    let mid: Vec<Addr> = (0..4)
        .flat_map(|k| {
            let node = child(heap, one, k);
            (0..4).map(move |j| (node, j))
        })
        .map(|(node, j)| child(heap, node, j))
        .collect();
    let two = quadtree(heap, quad, 2, &mid, &mut count);
    roots.insert(0, two);
    let second = collector.minor(heap, 0, &mut roots);
    // The major's roots: tree two (young), one of tree one's children
    // (old), and a null.
    let mut roots = vec![roots[0], child(heap, roots[1], 1), Addr::NULL];
    let major = collector.major(heap, 0, &mut roots);
    // Tree three points at tree two's children (young, slid) and at the
    // promoted child of tree one.
    let two = roots[0];
    let mut below: Vec<Addr> = (0..4).map(|k| child(heap, two, k)).collect();
    below.push(roots[1]);
    let three = quadtree(heap, quad, 2, &below, &mut count);
    heap.promote_onto(NodeId::new(1));
    let (_, promotion) = collector.promote(heap, 0, three);
    (
        vec![first, second, major, promotion],
        *collector.vproc_stats(0),
    )
}

/// [`PINNED`] for the quadtrees. The major promotes 81 nodes, more than one
/// 4 KiB chunk holds, so it acquires a second chunk.
const QUADTREE_PINNED: [(u64, [u64; 2], u64, u64); 4] = [
    (0x40a8200000000021, [16320, 0], 5440, 0), // minor, 3088.000000000015 ns
    (0x40a1b999999999a1, [4032, 0], 1344, 0),  // minor, 2268.8000000000034 ns
    (0x40b8a199999999ae, [19584, 0], 1344, 5184), // major, 6305.600000000019 ns
    (0x409fa3333333332b, [2624, 5248], 0, 2624), // promotion, 2024.7999999999981 ns
];

#[test]
fn simulated_quadtree_collection_charges_are_pinned() {
    let (mut heap, id) = simulated(quad());
    let (outcomes, _) = quadtree_collections(&mut heap, id);
    assert_eq!(charged(&outcomes).as_slice(), QUADTREE_PINNED.as_slice());
    assert!(heap.verify_violations().is_empty());
}

#[test]
fn a_worker_heap_collects_the_quadtrees_the_same_and_charges_nothing() {
    let (mut heap, id) = simulated(quad());
    let (simulated, simulated_stats) = quadtree_collections(&mut heap, id);
    let (mut worker, id) = threaded(quad());
    let (threaded, threaded_stats) = quadtree_collections(&mut worker, id);
    assert_eq!(moved(&threaded), moved(&simulated));
    assert_eq!(threaded_stats, simulated_stats);
    assert!(worker.verify_violations().is_empty());
    for outcome in &threaded {
        assert_eq!(outcome.cost, GcCost::default(), "{:?}", outcome.kind);
    }
}
