//! The global stop-the-world parallel collection (paper §3.4).
//!
//! A global collection is triggered when the amount of global-heap chunk
//! space in use exceeds the threshold: the larger of a floor (number of
//! vprocs × 32 MB at paper scale, the paper's whole rule) and a multiple of
//! what the previous global collection retained
//! ([`Collector::needs_global`]). The leader vproc signals every other vproc
//! by zeroing its allocation-limit pointer; each vproc reaches a safe point,
//! performs its own minor and major collections (so all of its live data
//! except the young data is in the global heap), and then joins the parallel
//! copying phase:
//!
//! 1. every in-use global chunk becomes *from-space*, gathered per node;
//! 2. each vproc obtains a fresh chunk and scans its roots and local heap,
//!    evacuating from-space objects into its to-space chunk;
//! 3. vprocs claim unscanned to-space chunks — preferring chunks that live on
//!    their own node — and Cheney-scan them until none remain;
//! 4. from-space chunks return to the free pool (keeping node affinity).
//!
//! This module implements that algorithm sequentially but attributes every
//! byte of copying and scanning work to the vproc that would have performed
//! it, so the runtime's memory model can reconstruct the parallel pause time
//! and its bus traffic.

use crate::collector::{forward_fields, Collector};
use crate::cost::{GcCost, GLOBAL_BARRIER_NS};
use mgc_heap::{
    Addr, GcHeap, Header, Heap, SharedChunk, SharedChunkState, SharedGlobalHeap, WorkerHeap,
};
use mgc_numa::NodeId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Result of a global collection.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalOutcome {
    /// Per-vproc cost of the whole stop-the-world phase (including the
    /// preparatory minor and major collections).
    pub per_vproc_cost: Vec<GcCost>,
    /// Bytes copied from from-space to to-space chunks.
    pub copied_bytes: u64,
    /// Number of from-space chunks released back to the free pool.
    pub released_chunks: usize,
    /// Number of chunks that were in use when the collection started.
    pub from_space_chunks: usize,
    /// Number of to-space chunks in use when the collection finished.
    pub to_space_chunks: usize,
}

impl Collector {
    /// Runs a global collection over the whole machine.
    ///
    /// `roots_per_vproc[v]` is vproc `v`'s root set; every root is rewritten
    /// to point at the surviving copy of its object. The preparatory minor
    /// and major collections for every vproc are performed here as well, as
    /// in the paper (§3.4 step 3).
    pub fn global(&mut self, heap: &mut Heap, roots_per_vproc: &mut [Vec<Addr>]) -> GlobalOutcome {
        let num_vprocs = heap.num_vprocs();
        assert_eq!(
            roots_per_vproc.len(),
            num_vprocs,
            "one root set per vproc is required"
        );
        let mut costs: Vec<GcCost> = (0..num_vprocs)
            .map(|_| GcCost::new(self.num_nodes()))
            .collect();

        // --- Step 1–3: barrier; every vproc finishes its local collections.
        for vproc in 0..num_vprocs {
            costs[vproc].charge_cpu(GLOBAL_BARRIER_NS);
            let minor = self.minor(heap, vproc, &mut roots_per_vproc[vproc]);
            costs[vproc].merge(&minor.cost);
            let major = self.major(heap, vproc, &mut roots_per_vproc[vproc]);
            costs[vproc].merge(&major.cost);
        }

        // --- Flip: all in-use chunks become from-space. --------------------
        for vproc in 0..num_vprocs {
            heap.retire_current_chunk(vproc);
        }
        let global = Arc::clone(heap.global());
        let from_space = flip_to_from_space(&global);
        let from_space_chunks = from_space.len();

        // --- Root scan: each vproc forwards its roots and its local heap. --
        let mut copied_bytes = 0u64;
        for vproc in 0..num_vprocs {
            let cost = &mut costs[vproc];
            let mut roots = std::mem::take(&mut roots_per_vproc[vproc]);
            for root in roots.iter_mut() {
                if root.is_null() {
                    continue;
                }
                *root = forward_global(heap, vproc, *root, &mut copied_bytes, cost);
            }
            roots_per_vproc[vproc] = roots;

            // The local heap (young data only, after the major collection)
            // may still reference from-space objects.
            let local_node = heap.local(vproc).node();
            let young: Vec<Addr> = heap.local(vproc).young_objects().map(|(a, _)| a).collect();
            for obj in young {
                let header = heap.header_of(obj);
                cost.charge_scan(local_node, header.total_bytes());
                forward_fields(heap, obj, header, |heap, ptr| {
                    forward_global(heap, vproc, ptr, &mut copied_bytes, cost)
                });
            }
        }

        // --- Parallel drain of unscanned to-space chunks, per node. --------
        // Chunks are claimed preferentially by vprocs on the chunk's node,
        // exactly as the per-node chunk lists of §3.4 arrange.
        let mut node_cursor = vec![0usize; self.num_nodes()];
        loop {
            // The snapshot is in chunk-id order, i.e. the order the chunks
            // were first leased in.
            let mut pending = global.snapshot();
            pending.retain(|c| {
                matches!(
                    c.state(),
                    SharedChunkState::Current | SharedChunkState::Filled
                ) && !c.fully_scanned()
            });
            if pending.is_empty() {
                break;
            }
            for chunk in pending {
                let scanner = pick_scanner(heap, chunk.node(), &mut node_cursor);
                scan_to_space_chunk(
                    heap,
                    scanner,
                    &chunk,
                    &mut copied_bytes,
                    &mut costs[scanner],
                );
            }
        }

        // --- Reclaim from-space. -------------------------------------------
        let released_chunks = release_from_space(&global, &from_space);
        let to_space_chunks = global.chunks_in_use();

        for vproc in 0..num_vprocs {
            let stats = self.vproc_stats_mut(vproc);
            stats.global_collections += 1;
        }
        // Attribute the copied bytes to the vprocs proportionally to the
        // traffic they generated; for the aggregate stats a single total is
        // enough.
        self.vproc_stats_mut(0).global_copied_bytes += copied_bytes;

        self.clear_global_pending();
        self.maybe_verify(heap);

        GlobalOutcome {
            per_vproc_cost: costs,
            copied_bytes,
            released_chunks,
            from_space_chunks,
            to_space_chunks,
        }
    }
}

/// Picks the vproc that claims a chunk on `node` for scanning: vprocs whose
/// local heap lives on that node take turns; if the node hosts no vproc, the
/// work round-robins over every vproc.
fn pick_scanner(heap: &Heap, node: NodeId, node_cursor: &mut [usize]) -> usize {
    let candidates: Vec<usize> = (0..heap.num_vprocs())
        .filter(|&v| heap.vproc_home_node(v) == node)
        .collect();
    let all: Vec<usize> = (0..heap.num_vprocs()).collect();
    let pool = if candidates.is_empty() {
        &all
    } else {
        &candidates
    };
    let cursor = &mut node_cursor[node.index()];
    let vproc = pool[*cursor % pool.len()];
    *cursor += 1;
    vproc
}

/// Forwards one pointer during the global collection: objects in from-space
/// chunks are copied into the scanning vproc's current to-space chunk;
/// everything else is left alone.
fn forward_global(
    heap: &mut Heap,
    vproc: usize,
    ptr: Addr,
    copied_bytes: &mut u64,
    cost: &mut GcCost,
) -> Addr {
    // Nothing races on this backend, so bytes come back whenever this call
    // made the copy.
    let (new, bytes) = heap.worker_mut(vproc).evacuate_from_space(ptr);
    if bytes > 0 {
        cost.charge_copy(heap.node_of(ptr), heap.node_of(new), bytes);
        *copied_bytes += bytes as u64;
    }
    new
}

/// Cheney-scans one to-space chunk on behalf of `vproc`, forwarding every
/// from-space pointer it contains.
fn scan_to_space_chunk(
    heap: &mut Heap,
    vproc: usize,
    chunk: &SharedChunk,
    copied_bytes: &mut u64,
    cost: &mut GcCost,
) {
    // Chase the bump pointer: scanning may append copies to this very chunk.
    while !chunk.fully_scanned() {
        let scan = chunk.scan();
        let header =
            Header::decode(chunk.read(scan)).expect("to-space chunks contain only live objects");
        let obj = chunk.base().add_words(scan + 1);
        cost.charge_scan(chunk.node(), header.total_bytes());
        forward_fields(heap, obj, header, |heap, ptr| {
            forward_global(heap, vproc, ptr, copied_bytes, cost)
        });
        chunk.set_scan(scan + header.total_words());
    }
}

// ----------------------------------------------------------------------
// The parallel global collection of the real-threads backend.
// ----------------------------------------------------------------------
//
// The sequential `Collector::global` above *attributes* parallel work (and
// borrows the leader-only flip and release from below); the pieces below
// *perform* it. The runtime's ramp-down barrier stops every
// worker at a safe point (each has finished its local collections and
// retired its current chunk), then drives these phases:
//
// 1. the **leader** flips every filled chunk to from-space
//    ([`flip_to_from_space`]);
// 2. every worker evacuates the roots it owns ([`evacuate_roots`]) — copies
//    land in the worker's own fresh to-space chunk, and racing evacuations
//    of shared objects are resolved by a compare-and-swap on the from-space
//    header slot (exactly one winner; the loser's copy becomes garbage);
// 3. workers repeatedly claim to-space chunks off a shared [`AtomicUsize`]
//    work index and Cheney-scan them ([`scan_pass`]) until a whole pass
//    makes no progress;
// 4. the leader returns the from-space chunks to the mutex-guarded pool
//    ([`release_from_space`]).
//
// With a pause budget configured the runtime instead drives *budgeted*
// passes ([`scan_pass_budgeted`]): a pass stops claiming and scanning once
// its deadline expires (persisting partial chunk progress through the scan
// pointer), the runtime releases the mutators, and the next increment
// resumes where the pass left off. A timed-out pass reports
// [`ScanPassOutcome::out_of_time`] so termination is never concluded from a
// pass that merely ran out of budget.

/// Shared coordination state of one parallel global collection: the work
/// index workers claim to-space chunks from, and the copied-byte total.
#[derive(Debug, Default)]
pub struct ParallelGcState {
    /// Next chunk-directory index to claim for scanning.
    pub work_index: AtomicUsize,
    /// Bytes copied from from-space into to-space chunks, machine-wide.
    pub copied_bytes: AtomicU64,
}

impl ParallelGcState {
    /// Creates the coordination state for one collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the work index for the next scan pass (leader-only, between
    /// barrier phases).
    pub fn reset_work_index(&self) {
        self.work_index.store(0, Ordering::Release);
    }
}

/// Leader-only flip: every [`SharedChunkState::Filled`] chunk becomes
/// from-space. Returns the from-space chunk directory indices.
///
/// # Panics
///
/// Panics if any worker failed to retire its current chunk before the
/// barrier.
pub fn flip_to_from_space(global: &SharedGlobalHeap) -> Vec<usize> {
    let mut from_space = Vec::new();
    for (index, chunk) in global.snapshot().iter().enumerate() {
        match chunk.state() {
            SharedChunkState::Filled => {
                chunk.set_state(SharedChunkState::FromSpace);
                chunk.set_scan(0);
                from_space.push(index);
            }
            SharedChunkState::Current => {
                panic!("all workers must retire their current chunks before the flip")
            }
            SharedChunkState::Free | SharedChunkState::FromSpace => {}
        }
    }
    from_space
}

/// Forwards one pointer during the parallel collection: from-space objects
/// are copied into `worker`'s current to-space chunk, with a CAS resolving
/// races against other workers evacuating the same object
/// ([`WorkerHeap::evacuate_from_space`] is the mechanism). A non-global
/// pointer is left alone — local objects never live in from-space; under
/// lazy promotion the worker's surviving young data is instead scanned as an
/// extra root set by [`scan_young_fields`].
pub fn forward_parallel(worker: &mut WorkerHeap, ptr: Addr, state: &ParallelGcState) -> Addr {
    let (new, copied_bytes) = worker.evacuate_from_space(ptr);
    if copied_bytes > 0 {
        state
            .copied_bytes
            .fetch_add(copied_bytes as u64, Ordering::Relaxed);
    }
    new
}

/// Evacuates a worker-owned root set (its deque tasks' roots, its slice of
/// the shared runtime tables) at the start of the parallel copying phase.
pub fn evacuate_roots(worker: &mut WorkerHeap, roots: &mut [Addr], state: &ParallelGcState) {
    for root in roots.iter_mut() {
        if !root.is_null() {
            *root = forward_parallel(worker, *root, state);
        }
    }
}

/// Scans the worker's surviving young local data as an additional root set,
/// forwarding any global from-space pointers its fields hold.
///
/// Under lazy promotion a worker reaches the stop-the-world barrier with
/// live *local* data (the unstolen private tasks' graphs, kept young by the
/// ramp-down's minor + major collections). Local objects never move during
/// a global collection, but their fields may reference promoted objects in
/// from-space — this is the threaded counterpart of the young-data scan the
/// sequential [`Collector::global`] performs.
pub fn scan_young_fields(worker: &mut WorkerHeap, state: &ParallelGcState) {
    let vproc = worker.vproc();
    let young: Vec<Addr> = worker
        .local(vproc)
        .young_objects()
        .map(|(a, _)| a)
        .collect();
    for obj in young {
        let header = worker.header_of(obj);
        forward_fields(worker, obj, header, |worker, ptr| {
            forward_parallel(worker, ptr, state)
        });
    }
}

/// Outcome of one (possibly budgeted) scan pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPassOutcome {
    /// At least one object was scanned during this pass.
    pub progress: bool,
    /// The deadline expired while unscanned work may remain; the partially
    /// scanned chunk's progress is persisted through its scan pointer.
    pub out_of_time: bool,
}

impl ScanPassOutcome {
    /// Whether the collection may still have work after this pass. A pass
    /// that timed out must count as "more work" when deciding termination —
    /// concluding "done" from a pass that merely ran out of budget would
    /// release from-space with live objects still in it.
    pub fn may_have_more_work(&self) -> bool {
        self.progress || self.out_of_time
    }
}

/// How many objects a budgeted scan pass processes between deadline checks.
/// Amortises the clock read, and guarantees every pass with available work
/// scans at least this many objects before it can time out — a pathological
/// budget degrades to many small increments instead of livelocking.
const DEADLINE_STRIDE: u32 = 32;

/// One scan pass: claims chunk-directory indices off the shared work index
/// and Cheney-scans every claimed to-space chunk, forwarding the from-space
/// pointers it contains. Returns `true` if any object was scanned or copied
/// — the runtime repeats passes (with a barrier in between) until a full
/// pass reports no progress from any worker.
pub fn scan_pass(worker: &mut WorkerHeap, state: &ParallelGcState) -> bool {
    scan_pass_budgeted(worker, state, None).progress
}

/// [`scan_pass`] with an optional deadline: once the deadline passes (checked
/// every `DEADLINE_STRIDE` objects, and never before at least one stride of
/// work), the pass persists its position in the current chunk's scan pointer
/// and returns with [`ScanPassOutcome::out_of_time`] set, leaving the rest of
/// the work for the next increment.
pub fn scan_pass_budgeted(
    worker: &mut WorkerHeap,
    state: &ParallelGcState,
    deadline: Option<std::time::Instant>,
) -> ScanPassOutcome {
    let mut outcome = ScanPassOutcome {
        progress: false,
        out_of_time: false,
    };
    let global = worker.global().clone();
    let mut until_check = DEADLINE_STRIDE;
    'pass: loop {
        let index = state.work_index.fetch_add(1, Ordering::AcqRel);
        if index >= global.num_chunks() {
            break;
        }
        let chunk = global.chunk_at(index);
        match chunk.state() {
            SharedChunkState::Free | SharedChunkState::FromSpace => continue,
            SharedChunkState::Current | SharedChunkState::Filled => {}
        }
        // Chase the bump pointer: scanning may append new copies to this
        // very chunk (when it is the worker's own current chunk).
        loop {
            let scan = chunk.scan();
            let top = chunk.used_words();
            if scan >= top {
                break;
            }
            outcome.progress = true;
            let mut offset = scan;
            while offset < top {
                let header = Header::decode(chunk.read(offset))
                    .expect("to-space chunks contain only objects, never forwards");
                let fields = worker
                    .pointer_field_indices(header)
                    .expect("all mixed-object descriptors are registered before allocation");
                for field in fields {
                    let value = chunk.read(offset + 1 + field);
                    let Some(ptr) = mgc_heap::word_as_pointer(value) else {
                        continue;
                    };
                    let new = forward_parallel(worker, ptr, state);
                    if new != ptr {
                        chunk.write(offset + 1 + field, new.raw());
                    }
                }
                offset += header.total_words();
                until_check -= 1;
                if until_check == 0 {
                    until_check = DEADLINE_STRIDE;
                    if let Some(d) = deadline {
                        if std::time::Instant::now() >= d {
                            chunk.set_scan(offset);
                            outcome.out_of_time = true;
                            break 'pass;
                        }
                    }
                }
            }
            chunk.set_scan(offset);
        }
    }
    outcome
}

/// Leader-only reclamation: returns every from-space chunk to the
/// mutex-guarded free pool (keeping node affinity) and records what the
/// collection retained for the next trigger check. Returns the number of
/// chunks released.
pub fn release_from_space(global: &SharedGlobalHeap, from_space: &[usize]) -> usize {
    for &index in from_space {
        let chunk = global.chunk_at(index);
        global.release(&chunk);
    }
    global.mark_collection_end();
    from_space.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use mgc_heap::HeapConfig;
    use mgc_numa::NodeId;

    fn setup(vprocs: usize) -> (Heap, Collector) {
        let nodes: Vec<NodeId> = (0..vprocs).map(|v| NodeId::new((v % 2) as u16)).collect();
        let heap = Heap::new(HeapConfig::small_for_tests(), &nodes, 2);
        let collector = Collector::new(GcConfig::small_for_tests(), vprocs, 2);
        (heap, collector)
    }

    /// Fills the global heap with a mix of live and dead data from several
    /// vprocs. Returns the per-vproc roots of the live data.
    fn populate(heap: &mut Heap, collector: &mut Collector, vprocs: usize) -> Vec<Vec<Addr>> {
        let mut roots_per_vproc: Vec<Vec<Addr>> = vec![Vec::new(); vprocs];
        #[allow(clippy::needless_range_loop)]
        for vproc in 0..vprocs {
            // Live data: a small list promoted to the global heap.
            let mut list = Addr::NULL;
            for i in 0..10u64 {
                let val = heap.alloc_raw(vproc, &[i + 100 * vproc as u64]).unwrap();
                list = heap.alloc_vector(vproc, &[val.raw(), list.raw()]).unwrap();
            }
            let (promoted, _) = collector.promote(heap, vproc, list);
            roots_per_vproc[vproc].push(promoted);
            // Dead data: promoted but immediately dropped.
            for _ in 0..20 {
                let garbage = heap.alloc_raw(vproc, &[0xdead; 16]).unwrap();
                let _ = collector.promote(heap, vproc, garbage);
            }
        }
        roots_per_vproc
    }

    /// Bytes occupied by objects in the chunks that are in use.
    fn live_bytes_upper_bound(heap: &Heap) -> usize {
        let chunks = heap.global().snapshot();
        let in_use = chunks
            .iter()
            .filter(|c| c.state() != SharedChunkState::Free);
        in_use.map(|c| c.used_bytes()).sum()
    }

    fn list_values(heap: &Heap, mut cursor: Addr) -> Vec<u64> {
        let mut values = Vec::new();
        while !cursor.is_null() {
            let val_obj = Addr::new(heap.read_field(cursor, 0));
            values.push(heap.read_field(val_obj, 0));
            cursor = Addr::new(heap.read_field(cursor, 1));
        }
        values
    }

    #[test]
    fn global_collection_reclaims_garbage_and_preserves_live_data() {
        let (mut heap, mut collector) = setup(2);
        let mut roots = populate(&mut heap, &mut collector, 2);
        let in_use_before = heap.global().bytes_in_use();
        let live_before: Vec<Vec<u64>> = roots.iter().map(|r| list_values(&heap, r[0])).collect();

        let outcome = collector.global(&mut heap, &mut roots);

        // The live lists survived with identical contents.
        for (vproc, expected) in live_before.iter().enumerate() {
            assert_eq!(&list_values(&heap, roots[vproc][0]), expected);
        }
        // Garbage was dropped: the copied bytes are far less than what was
        // promoted, and chunks were released.
        assert!(outcome.copied_bytes > 0);
        assert!(outcome.released_chunks > 0);
        assert!(outcome.from_space_chunks > 0);
        assert!(heap.global().bytes_in_use() <= in_use_before);
        assert_eq!(outcome.per_vproc_cost.len(), 2);
        assert!(outcome.per_vproc_cost.iter().all(|c| c.cpu_ns > 0.0));
        assert!(mgc_heap::verify_heap(&heap).is_empty());
        assert_eq!(collector.vproc_stats(0).global_collections, 1);
        assert_eq!(collector.vproc_stats(1).global_collections, 1);
    }

    #[test]
    fn global_collection_preserves_cross_vproc_sharing() {
        let (mut heap, mut collector) = setup(2);
        // VProc 0 promotes a message; vproc 1 holds a reference to it.
        let message = heap.alloc_raw(0, &[7, 8, 9]).unwrap();
        let (message, _) = collector.promote(&mut heap, 0, message);
        let holder = heap.alloc_vector(1, &[message.raw()]).unwrap();
        let mut roots = vec![vec![message], vec![holder]];

        collector.global(&mut heap, &mut roots);

        // Both vprocs still see the same object.
        let from_v0 = roots[0][0];
        let holder_v1 = roots[1][0];
        let from_v1 = Addr::new(heap.read_field(holder_v1, 0));
        assert_eq!(from_v0, from_v1);
        assert_eq!(heap.payload(from_v0), vec![7, 8, 9]);
        assert!(mgc_heap::verify_heap(&heap).is_empty());
    }

    #[test]
    fn freed_chunks_keep_node_affinity() {
        let (mut heap, mut collector) = setup(2);
        let mut roots = populate(&mut heap, &mut collector, 2);
        collector.global(&mut heap, &mut roots);
        // Every free chunk sits on the free list of the node it was
        // originally allocated on.
        let pool = heap.global().pool();
        let total_free: usize = (0..heap.global().num_nodes())
            .map(|n| pool.free_chunks_on(NodeId::new(n as u16)))
            .sum();
        assert!(total_free > 0);
        for chunk in heap.global().snapshot() {
            if chunk.state() == SharedChunkState::Free {
                assert!(pool.free_chunks_on(chunk.node()) > 0);
            }
        }
        // Acquiring a chunk for a vproc on node 0 must return a node-0 chunk.
        let freed_on_zero = pool.free_chunks_on(NodeId::new(0));
        if freed_on_zero > 0 {
            let chunk = heap.fresh_current_chunk(0);
            assert_eq!(heap.global().chunk_at(chunk.index()).node(), NodeId::new(0));
        }
    }

    /// Promotes 33-word live objects from vproc 0, keeping each as a root,
    /// until `done` says so.
    fn promote_live_until(
        heap: &mut Heap,
        collector: &mut Collector,
        roots: &mut Vec<Addr>,
        done: impl Fn(&Collector, &Heap) -> bool,
    ) {
        for _ in 0..2000 {
            if done(collector, heap) {
                return;
            }
            let Ok(obj) = heap.alloc_raw(0, &[1; 32]) else {
                collector.collect_local(heap, 0, &mut []);
                continue;
            };
            let (promoted, outcome) = collector.promote(heap, 0, obj);
            assert_eq!(outcome.needs_global, collector.needs_global(heap));
            roots.push(promoted);
        }
        panic!("sustained promotion must eventually satisfy the condition");
    }

    #[test]
    fn needs_global_trips_after_enough_promotion() {
        let (mut heap, mut collector) = setup(1);
        let floor = collector.config().global_threshold_per_vproc_bytes;
        let chunk = heap.global().chunk_size_bytes();
        let tripped = |c: &Collector, h: &Heap| c.needs_global(h);
        let mut roots = vec![Vec::new()];

        // An empty heap, and a heap no collection has run on yet (nothing
        // retained to scale), trip at the floor.
        assert!(!collector.needs_global(&heap));
        promote_live_until(&mut heap, &mut collector, &mut roots[0], tripped);
        let in_use = heap.global().bytes_in_use();
        assert!(in_use > floor && in_use <= floor + chunk, "{in_use}");

        // Grow the live set to several floors, then collect: everything
        // survives, so the collection retains more than the floor.
        promote_live_until(&mut heap, &mut collector, &mut roots[0], |_, h| {
            h.global().bytes_in_use() > 3 * floor
        });
        collector.global(&mut heap, &mut roots);
        let retained = heap.global().bytes_in_use();
        assert_eq!(heap.global().bytes_after_last_collection(), retained);
        assert!(retained > 2 * floor, "{retained}");

        // The paper's fixed rule (factor 0.0) asks for the next collection
        // at once — and would after every collection from here on.
        let fixed = Collector::new(
            GcConfig {
                global_growth_factor: 0.0,
                ..GcConfig::small_for_tests()
            },
            1,
            2,
        );
        assert!(fixed.needs_global(&heap));

        // The proportional rule waits until occupancy has doubled.
        assert!(!collector.needs_global(&heap));
        promote_live_until(&mut heap, &mut collector, &mut roots[0], tripped);
        let in_use = heap.global().bytes_in_use();
        assert!(
            in_use > 2 * retained && in_use <= 2 * retained + chunk,
            "{in_use} vs {retained}"
        );
    }

    #[test]
    fn global_collection_with_empty_heap_is_safe() {
        let (mut heap, mut collector) = setup(2);
        let mut roots = vec![Vec::new(), Vec::new()];
        let outcome = collector.global(&mut heap, &mut roots);
        assert_eq!(outcome.copied_bytes, 0);
        assert!(mgc_heap::verify_heap(&heap).is_empty());
        assert!(!collector.needs_global(&heap));
    }

    #[test]
    fn parallel_pieces_collect_shared_data_single_threaded() {
        let (mut workers, global) = crate::collector::tests::two_workers();
        let mut collectors: Vec<Collector> = (0..2)
            .map(|_| Collector::new(GcConfig::small_for_tests(), 2, 2))
            .collect();

        // Each worker promotes a live list and some garbage.
        let mut roots: Vec<Vec<Addr>> = vec![Vec::new(); 2];
        for v in 0..2 {
            let mut list = Addr::NULL;
            for i in 0..10u64 {
                let val = workers[v].alloc_raw(&[i + 100 * v as u64]).unwrap();
                list = workers[v].alloc_vector(&[val.raw(), list.raw()]).unwrap();
            }
            let (promoted, _) = collectors[v].promote(&mut workers[v], v, list);
            roots[v].push(promoted);
            for _ in 0..20 {
                let garbage = workers[v].alloc_raw(&[0xdead; 16]).unwrap();
                let _ = collectors[v].promote(&mut workers[v], v, garbage);
            }
            // Clear the (now empty of live data) local heap, as the
            // ramp-down does.
            let mut none: Vec<Addr> = Vec::new();
            collectors[v].minor(&mut workers[v], v, &mut none);
            collectors[v].major(&mut workers[v], v, &mut none);
        }
        let shared_values = |w: &WorkerHeap, mut cursor: Addr| -> Vec<u64> {
            let mut out = Vec::new();
            while !cursor.is_null() {
                let val = Addr::new(w.read_field(cursor, 0));
                out.push(w.read_field(val, 0));
                cursor = Addr::new(w.read_field(cursor, 1));
            }
            out
        };
        let before: Vec<Vec<u64>> = (0..2)
            .map(|v| shared_values(&workers[v], roots[v][0]))
            .collect();
        let in_use_before = global.bytes_in_use();

        // The parallel protocol, driven from one thread.
        for w in workers.iter_mut() {
            w.retire_current_chunk();
        }
        let from_space = flip_to_from_space(&global);
        assert!(!from_space.is_empty());
        let state = ParallelGcState::new();
        for v in 0..2 {
            let mut r = std::mem::take(&mut roots[v]);
            evacuate_roots(&mut workers[v], &mut r, &state);
            roots[v] = r;
        }
        loop {
            let mut progress = false;
            state.reset_work_index();
            for w in workers.iter_mut() {
                progress |= scan_pass(w, &state);
            }
            if !progress {
                break;
            }
        }
        let released = release_from_space(&global, &from_space);
        assert_eq!(released, from_space.len());
        assert_eq!(global.bytes_after_last_collection(), global.bytes_in_use());

        // Live data survived with identical contents; garbage was dropped.
        for v in 0..2 {
            assert_eq!(shared_values(&workers[v], roots[v][0]), before[v]);
        }
        assert!(state.copied_bytes.load(Ordering::Relaxed) > 0);
        // Chunk accounting is whole-chunk granular; the live set must not
        // need more space than live + garbage did.
        assert!(global.bytes_in_use() <= in_use_before);
        // Far fewer bytes were copied than the garbage that was promoted.
        assert!(state.copied_bytes.load(Ordering::Relaxed) < (20 * 17 * 8) * 2);
    }

    /// The collector copies an object's words straight from where they are
    /// to where they go — no staging buffer. Three shapes that stress the
    /// copy (interleaved pointer / raw fields, a single word, a whole chunk)
    /// travel every path: nursery → old area (minor), old area → global
    /// chunk (major) and nursery → global chunk (promote), both rolling the
    /// chunk over mid-graph, then from-space → to-space (parallel global).
    #[test]
    fn every_copy_path_keeps_every_word() {
        use mgc_heap::{Descriptor, DescriptorTable, HeapConfig, ObjectKind, ThreadedLayout, Word};
        use std::sync::Arc;

        let config = HeapConfig::small_for_tests();
        let layout = ThreadedLayout::new(&config, 1, 1);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 1));
        let mut table = DescriptorTable::new();
        let shape = table.register(Descriptor::new("ptr-raw-ptr-raw-ptr", 5, 0b10101));
        let mut w = WorkerHeap::new(0, layout, NodeId::new(0), global.clone(), Arc::new(table));
        let mut collector = Collector::new(GcConfig::small_for_tests(), 1, 1);

        let big: Vec<Word> = (0..layout.chunk_words() as u64 - 1)
            .map(|i| 2 * i + 1)
            .collect();
        let build = |w: &mut WorkerHeap, tag: Word| -> Addr {
            let one = w.alloc_raw(&[tag]).unwrap();
            let filler = w.alloc_raw(&big).unwrap();
            w.alloc_mixed(shape, &[one.raw(), 0xAAAA, filler.raw(), 0xBBBB, 0])
                .unwrap()
        };
        let check = |w: &WorkerHeap, root: Addr, tag: Word| {
            let header = w.header_of(root);
            assert_eq!((header.kind, header.len_words), (shape.kind(), 5));
            assert_eq!(w.read_field(root, 1), 0xAAAA);
            assert_eq!(w.read_field(root, 3), 0xBBBB);
            assert_eq!(w.read_field(root, 4), 0);
            let one = Addr::new(w.read_field(root, 0));
            assert_eq!(w.header_of(one).kind, ObjectKind::Raw);
            assert_eq!(w.payload(one), vec![tag]);
            assert_eq!(w.payload(Addr::new(w.read_field(root, 2))), big);
        };

        // Graph A: nursery -> young (minor) -> old (the next minor).
        let mut roots = vec![build(&mut w, 71)];
        check(&w, roots[0], 71);
        collector.minor(&mut w, 0, &mut roots);
        assert_eq!(
            w.space_of(roots[0]),
            mgc_heap::Space::LocalYoung { vproc: 0 }
        );
        check(&w, roots[0], 71);
        collector.minor(&mut w, 0, &mut roots);
        assert_eq!(w.space_of(roots[0]), mgc_heap::Space::LocalOld { vproc: 0 });
        check(&w, roots[0], 71);

        // Old -> global (major): the chunk-filling object cannot share a
        // chunk with anything, so the current chunk rolls over mid-graph.
        collector.major(&mut w, 0, &mut roots);
        assert!(w.is_global(roots[0]));
        assert!(
            global.chunks_in_use() >= 2,
            "the big object forced a rollover"
        );
        check(&w, roots[0], 71);

        // Graph B: nursery -> global (promote), next to a bystander that
        // stays behind. The dead originals keep their header in the first
        // payload word, so a walk of the nursery steps over all three and
        // yields only the bystander.
        let local_b = build(&mut w, 72);
        let bystander = w.alloc_raw(&[9, 9]).unwrap();
        let (promoted, outcome) = collector.promote(&mut w, 0, local_b);
        roots.push(promoted);
        assert_eq!(
            outcome.promoted_bytes,
            ((1 + 1) + (big.len() + 1) + (5 + 1)) as u64 * 8
        );
        assert_eq!(w.forwarded_to(local_b), Some(promoted));
        check(&w, promoted, 72);
        let walked: Vec<Addr> = w.local(0).nursery_objects().map(|(a, _)| a).collect();
        assert_eq!(walked, vec![bystander]);

        // Global -> global: the parallel collection's from-space copy.
        let mut none: Vec<Addr> = Vec::new();
        collector.minor(&mut w, 0, &mut none);
        collector.major(&mut w, 0, &mut none);
        w.retire_current_chunk();
        let from_space = flip_to_from_space(&global);
        let state = ParallelGcState::new();
        let stale = roots.clone();
        evacuate_roots(&mut w, &mut roots, &state);
        loop {
            state.reset_work_index();
            if !scan_pass(&mut w, &state) {
                break;
            }
        }
        assert!(roots.iter().zip(&stale).all(|(new, old)| new != old));
        let live_words = 2 * ((1 + 1) + (big.len() + 1) + (5 + 1));
        assert_eq!(
            state.copied_bytes.load(Ordering::Relaxed),
            (live_words * 8) as u64
        );
        assert_eq!(release_from_space(&global, &from_space), from_space.len());
        check(&w, roots[0], 71);
        check(&w, roots[1], 72);
    }

    /// A released chunk keeps its old words (`SharedChunk::reset` does not
    /// zero them) and nothing reads them. Here the stale words are vectors
    /// pointing into from-space, so a scan that read past `top` would copy.
    /// Re-acquired and given one smaller object, the chunk walks as that
    /// object alone and a scan pass over it copies nothing.
    #[test]
    fn a_reused_chunk_exposes_none_of_its_old_words() {
        use mgc_heap::{DescriptorTable, HeapConfig, ObjectKind, ThreadedLayout};
        use std::sync::Arc;

        let layout = ThreadedLayout::new(&HeapConfig::small_for_tests(), 1, 1);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 1));
        let descriptors = Arc::new(DescriptorTable::new());
        let mut w = WorkerHeap::new(0, layout, NodeId::new(0), global.clone(), descriptors);

        // One chunk holds a target; a second is filled with vectors to it.
        let raw = |len| Header::new(ObjectKind::Raw, len).encode();
        let target = w.alloc_in_global(raw(1), &[7]).unwrap();
        w.retire_current_chunk();
        let vector = Header::new(ObjectKind::Vector, 1).encode();
        for _ in 0..layout.chunk_words() / 2 {
            w.alloc_in_global(vector, &[target.raw()]).unwrap();
        }
        let filled = w.current_chunk().unwrap().clone();
        assert_eq!(filled.free_words(), 0);
        w.retire_current_chunk();
        global.release(&filled);

        // The target's chunk flips to from-space; the released one is free.
        assert_eq!(flip_to_from_space(&global).len(), 1);
        let fresh = w.alloc_in_global(raw(2), &[1, 2]).unwrap();
        let reused = w.current_chunk().unwrap().clone();
        assert_eq!(reused.id(), filled.id(), "the pool hands the chunk back");
        assert_eq!(reused.objects().collect::<Vec<_>>(), vec![fresh]);

        let state = ParallelGcState::new();
        assert!(scan_pass(&mut w, &state), "the new object is scanned");
        assert_eq!(reused.scan(), 3, "and nothing past it");
        assert_eq!(state.copied_bytes.load(Ordering::Relaxed), 0);
        assert_eq!(w.payload(fresh), vec![1, 2]);
    }

    #[test]
    fn budgeted_scan_passes_converge_and_preserve_data() {
        let (mut workers, global) = crate::collector::tests::two_workers();
        let mut collectors: Vec<Collector> = (0..2)
            .map(|_| Collector::new(GcConfig::small_for_tests(), 2, 2))
            .collect();

        let mut roots: Vec<Vec<Addr>> = vec![Vec::new(); 2];
        for v in 0..2 {
            let mut list = Addr::NULL;
            for i in 0..40u64 {
                let val = workers[v].alloc_raw(&[i + 100 * v as u64]).unwrap();
                list = workers[v].alloc_vector(&[val.raw(), list.raw()]).unwrap();
            }
            let (promoted, _) = collectors[v].promote(&mut workers[v], v, list);
            roots[v].push(promoted);
            let mut none: Vec<Addr> = Vec::new();
            collectors[v].minor(&mut workers[v], v, &mut none);
            collectors[v].major(&mut workers[v], v, &mut none);
        }
        let shared_values = |w: &WorkerHeap, mut cursor: Addr| -> Vec<u64> {
            let mut out = Vec::new();
            while !cursor.is_null() {
                let val = Addr::new(w.read_field(cursor, 0));
                out.push(w.read_field(val, 0));
                cursor = Addr::new(w.read_field(cursor, 1));
            }
            out
        };
        let before: Vec<Vec<u64>> = (0..2)
            .map(|v| shared_values(&workers[v], roots[v][0]))
            .collect();

        for w in workers.iter_mut() {
            w.retire_current_chunk();
        }
        let from_space = flip_to_from_space(&global);
        assert!(!from_space.is_empty());
        let state = ParallelGcState::new();
        for v in 0..2 {
            let mut r = std::mem::take(&mut roots[v]);
            evacuate_roots(&mut workers[v], &mut r, &state);
            roots[v] = r;
        }
        // Drive the scan with an already-expired deadline: every pass with
        // available work must still scan at least one stride (no livelock)
        // and report out_of_time, so the loop below simulates many small
        // increments. It must converge, and "done" must only ever be
        // concluded from a pass that drained the work index in time.
        let expired = std::time::Instant::now() - std::time::Duration::from_secs(1);
        let mut increments = 0u32;
        loop {
            let mut more_work = false;
            state.reset_work_index();
            for w in workers.iter_mut() {
                more_work |= scan_pass_budgeted(w, &state, Some(expired)).may_have_more_work();
            }
            increments += 1;
            if !more_work {
                break;
            }
            assert!(increments < 10_000, "budgeted passes failed to converge");
        }
        // 80 list cells + 80 values per the two workers: far more than one
        // stride, so the expired deadline must have forced multiple passes.
        assert!(increments > 2, "expected many budgeted increments");
        // What the collection retained is recorded at the release, never at
        // an increment that merely ran out of budget.
        assert_eq!(global.bytes_after_last_collection(), 0);
        let released = release_from_space(&global, &from_space);
        assert_eq!(released, from_space.len());
        assert_eq!(global.bytes_after_last_collection(), global.bytes_in_use());
        for v in 0..2 {
            assert_eq!(shared_values(&workers[v], roots[v][0]), before[v]);
        }
        assert!(state.copied_bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn repeated_global_collections_converge() {
        let (mut heap, mut collector) = setup(2);
        let mut roots = populate(&mut heap, &mut collector, 2);
        collector.global(&mut heap, &mut roots);
        let live_after_first = live_bytes_upper_bound(&heap);
        let retained_first = heap.global().bytes_after_last_collection();
        assert_eq!(retained_first, heap.global().bytes_in_use());
        let copied_first: Vec<Vec<u64>> = roots.iter().map(|r| list_values(&heap, r[0])).collect();
        collector.global(&mut heap, &mut roots);
        // A second collection with no new garbage copies the same live set.
        let live_after_second = live_bytes_upper_bound(&heap);
        assert_eq!(live_after_first, live_after_second);
        assert_eq!(heap.global().bytes_after_last_collection(), retained_first);
        assert!(!collector.needs_global(&heap));
        for (vproc, expected) in copied_first.iter().enumerate() {
            assert_eq!(&list_values(&heap, roots[vproc][0]), expected);
        }
    }
}
