//! The global stop-the-world parallel collection (paper §3.4).
//!
//! A global collection is triggered when the amount of global-heap chunk
//! space in use exceeds the threshold: the larger of a floor (number of
//! vprocs × 32 MB at paper scale, the paper's whole rule) and a multiple of
//! what the previous global collection retained
//! ([`Collector::needs_global`]). The leader vproc signals every other vproc
//! by zeroing its allocation-limit pointer; each vproc reaches a safe point,
//! performs its own minor and major collections (so all of its live data
//! except the young data is in the global heap) and retires its current
//! chunk. Then both backends run one function, [`Collector::collect_global`]:
//!
//! 1. the **leader** flips every filled chunk to from-space
//!    ([`flip_to_from_space`]);
//! 2. every vproc evacuates the roots it owns and the fields of its young
//!    local data into a to-space chunk of its own — racing evacuations of a
//!    shared object are resolved by a compare-and-swap on the from-space
//!    header slot (exactly one winner; the loser's copy becomes garbage);
//! 3. vprocs Cheney-scan unscanned to-space chunks until a whole pass makes
//!    no progress;
//! 4. the leader releases from-space, keeping each chunk's node
//!    ([`release_from_space`]), and the collection is counted.
//!
//! It takes two things from its caller. A [`Rendezvous`] says how the vprocs
//! meet and whose roots each evacuates: a worker thread runs its own vproc's
//! steps and meets the others at a barrier; [`Sequential`] runs every
//! vproc's steps in order on one thread, charging each vproc's [`GcCost`].
//! The [`ParallelGcState`] says how a pass hands out to-space chunks: off a
//! shared work index, or by §3.4's per-node chunk lists.

use crate::collector::{for_each_young, forward_fields, Collector};
use crate::cost::{GcCost, GLOBAL_BARRIER_NS};
use mgc_heap::{
    verify_global_heap, verify_local_heap, Addr, ChunkId, GcHeap, Header, Heap, Location,
    SharedChunk, SharedChunkState, SharedGlobalHeap, WorkerHeap,
};
use mgc_numa::NodeId;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Result of a global collection.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalOutcome {
    /// Per-vproc cost of the whole stop-the-world phase (including the
    /// preparatory minor and major collections).
    pub per_vproc_cost: Vec<GcCost>,
    /// Bytes copied from from-space to to-space chunks.
    pub copied_bytes: u64,
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
        let mut costs = vec![GcCost::new(self.num_nodes()); num_vprocs];

        // §3.4 steps 1–3: the barrier; every vproc finishes its local
        // collections and retires its current chunk.
        for vproc in 0..num_vprocs {
            costs[vproc].charge_cpu(GLOBAL_BARRIER_NS);
            let minor = self.minor(heap, vproc, &mut roots_per_vproc[vproc]);
            costs[vproc].merge(&minor.cost);
            let major = self.major(heap, vproc, &mut roots_per_vproc[vproc]);
            costs[vproc].merge(&major.cost);
            heap.worker_mut(vproc).retire_current_chunk();
        }

        let nodes: Vec<NodeId> = (0..num_vprocs)
            .map(|v| heap.worker(v).home_node())
            .collect();
        let state = ParallelGcState::with_node_pools(&nodes, self.num_nodes());
        let mut vprocs = Sequential {
            heap,
            roots: roots_per_vproc,
            costs: Some(&mut costs),
        };
        self.collect_global(&mut vprocs, &state, None);
        self.clear_global_pending();
        GlobalOutcome {
            per_vproc_cost: costs,
            copied_bytes: state.copied_bytes.into_inner(),
        }
    }

    /// The phases of the module doc, after the ramp-down. Returns `false`
    /// when `deadline` ended a pass that may have left work; the next call
    /// skips the flip, evacuates the roots and young data again (a mutator
    /// may have loaded from-space pointers in between) and resumes the scan.
    /// Under [`GcConfig::verify_after_gc`](crate::GcConfig) the leader walks
    /// the global heap after the release, and each vproc its local heap.
    pub fn collect_global<R: Rendezvous>(
        &mut self,
        vprocs: &mut R,
        state: &ParallelGcState,
        deadline: Option<Instant>,
    ) -> bool {
        let first = vprocs.vprocs().start;
        let global = Arc::clone(vprocs.vproc(first).0.global());
        // Every pass-end step leaves the work index and `progress` reset.
        vprocs.meet(|_| {
            if !state.in_scan_phase.load(Ordering::Acquire) {
                *state.from_space.lock().expect("gc state poisoned") = flip_to_from_space(&global);
                state.copied_bytes.store(0, Ordering::Release);
                state.in_scan_phase.store(true, Ordering::Release);
            }
            state.done.store(false, Ordering::Release);
        });

        for v in vprocs.vprocs() {
            vprocs.evacuate(v, state);
            let (worker, cost) = vprocs.vproc(v);
            scan_young(worker, state, cost);
        }
        vprocs.meet(|_| {});

        // A pass that ran out of time counts as progress: concluding "done"
        // from it would release from-space with live objects still in it.
        loop {
            if pass(vprocs, &global, state, deadline) != Some(false) {
                state.progress.store(true, Ordering::Release);
            }
            vprocs.meet(|_| {
                if !state.progress.swap(false, Ordering::AcqRel) {
                    state.done.store(true, Ordering::Release);
                }
                state.reset_work_index();
            });
            if state.done.load(Ordering::Acquire) {
                break;
            }
            if deadline.is_some() {
                return false;
            }
        }

        vprocs.meet(|vprocs| {
            let from_space =
                std::mem::take(&mut *state.from_space.lock().expect("gc state poisoned"));
            release_from_space(&global, &from_space);
            let copied = state.copied_bytes.load(Ordering::Acquire);
            self.vproc_stats_mut(first).global_copied_bytes += copied;
            self.maybe_verify(|| verify_global_heap(vprocs.vproc(first).0));
            state.in_scan_phase.store(false, Ordering::Release);
            vprocs.resume();
        });
        for v in vprocs.vprocs() {
            self.vproc_stats_mut(v).global_collections += 1;
            self.maybe_verify(|| verify_local_heap(vprocs.vproc(v).0));
        }
        true
    }
}

/// How the vprocs of a global collection meet, and whose roots each
/// evacuates ([`Collector::collect_global`]).
pub trait Rendezvous {
    /// The vprocs whose steps this caller runs, in order.
    fn vprocs(&self) -> Range<usize>;

    /// Vproc `v`'s heap, and its cost on a backend that charges one.
    fn vproc(&mut self, v: usize) -> (&mut WorkerHeap, Option<&mut GcCost>);

    /// Evacuates the roots vproc `v` owns ([`evacuate_roots`]).
    fn evacuate(&mut self, v: usize, state: &ParallelGcState);

    /// Waits until every vproc has arrived; the last to arrive runs `leader`
    /// once before any of them leaves.
    fn meet(&mut self, leader: impl FnOnce(&mut Self));

    /// The last write of a collection's last leader step: the mutators may
    /// run again.
    fn resume(&mut self) {}
}

/// The simulator's [`Rendezvous`]: one thread runs each vproc's step in
/// vproc order, then the leader's step. `roots[v]` is vproc `v`'s root set
/// and `costs[v]`, when given, its cost.
#[derive(Debug)]
pub struct Sequential<'a, H> {
    /// The heap whose workers are the vprocs.
    pub heap: &'a mut H,
    /// One root set per vproc.
    pub roots: &'a mut [Vec<Addr>],
    /// One cost per vproc, when the collection is charged.
    pub costs: Option<&'a mut [GcCost]>,
}

impl<H: GcHeap> Rendezvous for Sequential<'_, H> {
    fn vprocs(&self) -> Range<usize> {
        0..self.roots.len()
    }

    fn vproc(&mut self, v: usize) -> (&mut WorkerHeap, Option<&mut GcCost>) {
        let cost = self.costs.as_deref_mut().map(|costs| &mut costs[v]);
        (self.heap.worker_mut(v), cost)
    }

    fn evacuate(&mut self, v: usize, state: &ParallelGcState) {
        let cost = self.costs.as_deref_mut().map(|costs| &mut costs[v]);
        forward_all(self.heap.worker_mut(v), &mut self.roots[v], state, cost);
    }

    fn meet(&mut self, leader: impl FnOnce(&mut Self)) {
        leader(self);
    }
}

/// The state one global collection's vprocs share.
#[derive(Debug, Default)]
pub struct ParallelGcState {
    /// Next chunk-directory index to claim for scanning.
    pub work_index: AtomicUsize,
    /// Bytes copied from from-space into to-space chunks, machine-wide.
    pub copied_bytes: AtomicU64,
    /// Set from the flip to the release, by leader steps only. Between two
    /// increments of a budgeted collection the mutators run with it set, and
    /// may meet a forwarded global header.
    pub in_scan_phase: AtomicBool,
    /// The chunk-directory indices of from-space.
    from_space: Mutex<Vec<usize>>,
    /// Whether some vproc's latest pass scanned anything or ran out of time.
    progress: AtomicBool,
    /// Set by the leader once a pass made no progress on any vproc.
    done: AtomicBool,
    /// A to-space chunk on node `n` goes to the vprocs of `pools[n]` in
    /// turn, `turns[n]` counting the chunks handed out so far; no pools:
    /// passes claim off `work_index`.
    pools: Vec<Vec<usize>>,
    turns: Vec<AtomicUsize>,
}

impl ParallelGcState {
    /// The state of a collection whose passes claim chunks off the shared
    /// work index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The state of a collection whose passes hand each to-space chunk to
    /// the vprocs on its node in turn, or to every vproc in turn when none
    /// runs there; `vproc_nodes[v]` is vproc `v`'s node.
    fn with_node_pools(vproc_nodes: &[NodeId], num_nodes: usize) -> Self {
        let pools = (0..num_nodes).map(|node| {
            let empty = vproc_nodes.iter().all(|n| n.index() != node);
            (0..vproc_nodes.len())
                .filter(|&v| empty || vproc_nodes[v].index() == node)
                .collect()
        });
        Self {
            pools: pools.collect(),
            turns: (0..num_nodes).map(|_| AtomicUsize::new(0)).collect(),
            ..Self::default()
        }
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
/// The partial chunks workers left at a node switch are `Filled` too: the
/// flip empties their stacks first ([`SharedGlobalHeap::clear_partial_chunks`]),
/// so no later lease continues a from-space chunk. A chunk parked after the
/// flip — between two budgeted increments — is to-space, and a lease may
/// continue it; the scan passes repeat until none makes progress, so they
/// still reach what is appended to it.
///
/// # Panics
///
/// Panics if any worker failed to retire its current chunk before the
/// barrier.
pub fn flip_to_from_space(global: &SharedGlobalHeap) -> Vec<usize> {
    global.clear_partial_chunks();
    let mut from_space = Vec::new();
    for (index, chunk) in global.chunks().enumerate() {
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

/// Whether a chunk is to-space during a collection: every chunk in use that
/// did not flip.
fn is_to_space(chunk: &SharedChunk) -> bool {
    matches!(
        chunk.state(),
        SharedChunkState::Current | SharedChunkState::Filled
    )
}

/// The one forwarding step of both backends: a from-space object is copied
/// into `worker`'s current to-space chunk ([`WorkerHeap::evacuate_from_space`],
/// whose CAS resolves races between workers), its bytes are added to the
/// collection's total and, given a cost, charged as a copy from the
/// from-space chunk's node to the current chunk's. Any other pointer comes
/// back unchanged.
fn forward(
    worker: &mut WorkerHeap,
    ptr: Addr,
    state: &ParallelGcState,
    cost: Option<&mut GcCost>,
) -> Addr {
    let (new, copied) = worker.evacuate_from_space(ptr);
    if let Some((from, bytes)) = copied {
        state
            .copied_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(cost) = cost {
            let to = worker
                .current_chunk()
                .expect("a copy leaves a current chunk");
            cost.charge_copy(from, to.node(), bytes);
        }
    }
    new
}

/// Forwards each non-null root into `worker`'s to-space.
pub fn evacuate_roots(worker: &mut WorkerHeap, roots: &mut [Addr], state: &ParallelGcState) {
    forward_all(worker, roots, state, None);
}

/// [`evacuate_roots`], charging the copies to `cost` when one is given.
fn forward_all(
    worker: &mut WorkerHeap,
    roots: &mut [Addr],
    state: &ParallelGcState,
    mut cost: Option<&mut GcCost>,
) {
    for root in roots.iter_mut().filter(|root| !root.is_null()) {
        *root = forward(worker, *root, state, cost.as_deref_mut());
    }
}

/// Forwards the from-space pointers held by the worker's young local data
/// (the unstolen private tasks' graphs the ramp-down kept), charging each
/// object's scan, then its fields' copies, to `cost` when one is given.
/// Local objects never move during a global collection.
fn scan_young(worker: &mut WorkerHeap, state: &ParallelGcState, mut cost: Option<&mut GcCost>) {
    let vproc = worker.vproc();
    let node = worker.local().node();
    for_each_young(worker, |worker, offset, header| {
        if let Some(cost) = cost.as_deref_mut() {
            cost.charge_scan(node, header.total_bytes());
        }
        forward_fields(
            worker,
            Location::Local(vproc, offset),
            header,
            |worker, ptr| forward(worker, ptr, state, cost.as_deref_mut()),
        );
    });
}

/// How many objects a budgeted scan pass processes between deadline checks.
/// Amortises the clock read, and guarantees every pass with available work
/// scans at least this many objects before it can time out — a pathological
/// budget degrades to many small increments instead of livelocking.
const DEADLINE_STRIDE: u32 = 32;

/// One scan pass of the vprocs `vprocs` runs: `None` once the deadline has
/// passed, else whether anything was scanned. Off the work index each vproc
/// claims chunks until the index runs out; with node pools, the chunks
/// pending when the pass starts go in chunk-id order (the order they were
/// first leased in) to the vprocs of their node's pool in turn.
fn pass<R: Rendezvous>(
    vprocs: &mut R,
    global: &SharedGlobalHeap,
    state: &ParallelGcState,
    deadline: Option<Instant>,
) -> Option<bool> {
    let mut until_check = DEADLINE_STRIDE;
    let mut progress = false;
    if state.pools.is_empty() {
        for v in vprocs.vprocs() {
            let (worker, cost) = vprocs.vproc(v);
            progress |= claim_chunks(worker, cost, global, state, deadline, &mut until_check)?;
        }
        return Some(progress);
    }
    let pending: Vec<ChunkId> = global
        .chunks()
        .filter(|c| is_to_space(c) && !c.fully_scanned())
        .map(|c| c.id())
        .collect();
    for id in pending {
        let chunk = global.chunk(id);
        let node = chunk.node().index();
        let (pool, turn) = (&state.pools[node], &state.turns[node]);
        let (worker, cost) = vprocs.vproc(pool[turn.fetch_add(1, Ordering::Relaxed) % pool.len()]);
        progress |= scan_chunk(worker, chunk, state, cost, deadline, &mut until_check)?;
    }
    Some(progress)
}

/// `worker`'s part of a pass off the shared work index ([`pass`]).
fn claim_chunks(
    worker: &mut WorkerHeap,
    mut cost: Option<&mut GcCost>,
    global: &SharedGlobalHeap,
    state: &ParallelGcState,
    deadline: Option<Instant>,
    until_check: &mut u32,
) -> Option<bool> {
    let mut progress = false;
    loop {
        let index = state.work_index.fetch_add(1, Ordering::AcqRel);
        if index >= global.num_chunks() {
            return Some(progress);
        }
        let chunk = global.chunk(ChunkId(index as u32));
        if is_to_space(chunk) {
            let cost = cost.as_deref_mut();
            progress |= scan_chunk(worker, chunk, state, cost, deadline, until_check)?;
        }
    }
}

/// One scan pass of `worker` off the shared work index, with no deadline.
/// Returns `true` if any object was scanned; passes repeat, the index reset
/// in between, until one reports no progress from any worker.
pub fn scan_pass(worker: &mut WorkerHeap, state: &ParallelGcState) -> bool {
    let global = Arc::clone(worker.global());
    let mut until_check = DEADLINE_STRIDE;
    claim_chunks(worker, None, &global, state, None, &mut until_check) == Some(true)
}

/// The one Cheney scan of both backends: scans `chunk`'s objects from its
/// scan pointer on, forwarding the from-space pointers they hold, until the
/// scan pointer meets the bump pointer (which the scan pushes on when the
/// chunk is `worker`'s current one). Given a cost, each object's scan is
/// charged before its fields are forwarded. `until_check` counts objects
/// down to the next deadline check across a pass; past the deadline the
/// scan pointer keeps the position and the scan returns `None`.
fn scan_chunk(
    worker: &mut WorkerHeap,
    chunk: &SharedChunk,
    state: &ParallelGcState,
    mut cost: Option<&mut GcCost>,
    deadline: Option<Instant>,
    until_check: &mut u32,
) -> Option<bool> {
    let mut progress = false;
    loop {
        let scan = chunk.scan();
        let top = chunk.used_words();
        if scan >= top {
            return Some(progress);
        }
        progress = true;
        let mut offset = scan;
        while offset < top {
            let header = Header::decode(chunk.read(offset))
                .expect("to-space chunks contain only objects, never forwards");
            if let Some(cost) = cost.as_deref_mut() {
                cost.charge_scan(chunk.node(), header.total_bytes());
            }
            let fields = worker
                .pointer_field_indices(header)
                .expect("all mixed-object descriptors are registered before allocation");
            for field in fields {
                let value = chunk.read(offset + 1 + field);
                let Some(ptr) = mgc_heap::word_as_pointer(value) else {
                    continue;
                };
                let new = forward(worker, ptr, state, cost.as_deref_mut());
                if new != ptr {
                    chunk.write(offset + 1 + field, new.raw());
                }
            }
            offset += header.total_words();
            *until_check -= 1;
            if *until_check == 0 {
                *until_check = DEADLINE_STRIDE;
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    chunk.set_scan(offset);
                    return None;
                }
            }
        }
        chunk.set_scan(offset);
    }
}

/// Leader-only reclamation: pushes every from-space chunk onto its node's
/// lock-free free stack in the [`SharedChunkPool`](mgc_heap::SharedChunkPool)
/// (so a chunk keeps its node) and records what the collection retained for
/// the next trigger check. Returns the number of chunks released.
pub fn release_from_space(global: &SharedGlobalHeap, from_space: &[usize]) -> usize {
    for &index in from_space {
        global.release(global.chunk(ChunkId(index as u32)));
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
        populate_lists(heap, collector, &vec![10; vprocs])
    }

    /// [`populate`] with a list of `lens[v]` cells for vproc `v`.
    fn populate_lists(heap: &mut Heap, collector: &mut Collector, lens: &[u64]) -> Vec<Vec<Addr>> {
        let mut roots_per_vproc: Vec<Vec<Addr>> = vec![Vec::new(); lens.len()];
        for (vproc, &len) in lens.iter().enumerate() {
            // Live data: a small list promoted to the global heap.
            let mut list = Addr::NULL;
            for i in 0..len {
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
        let in_use = heap
            .global()
            .chunks()
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
        let chunks_before = heap.global().chunks_in_use();
        let used_before: Vec<_> = heap
            .global()
            .chunks()
            .filter(|c| c.state() != SharedChunkState::Free)
            .cloned()
            .collect();
        let live_before: Vec<Vec<u64>> = roots.iter().map(|r| list_values(&heap, r[0])).collect();

        let outcome = collector.global(&mut heap, &mut roots);

        // The live lists survived with identical contents.
        for (vproc, expected) in live_before.iter().enumerate() {
            assert_eq!(&list_values(&heap, roots[vproc][0]), expected);
        }
        // Garbage was dropped: live data was copied into fresh chunks, and
        // every chunk in use before is free again.
        assert!(outcome.copied_bytes > 0);
        assert!(!used_before.is_empty());
        assert!(used_before
            .iter()
            .all(|c| c.state() == SharedChunkState::Free));
        assert!(heap.global().chunks_in_use() <= chunks_before);
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
        assert_eq!(heap.locate(from_v0).payload(), vec![7, 8, 9]);
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
        for chunk in heap.global().chunks() {
            if chunk.state() == SharedChunkState::Free {
                assert!(pool.free_chunks_on(chunk.node()) > 0);
            }
        }
        // Acquiring a chunk for a vproc on node 0 must return a node-0 chunk.
        let freed_on_zero = pool.free_chunks_on(NodeId::new(0));
        if freed_on_zero > 0 {
            let chunk = heap.worker_mut(0).fresh_current_chunk();
            assert_eq!(heap.global().chunk(chunk).node(), NodeId::new(0));
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
            assert_eq!(outcome.needs_global, collector.needs_global(heap.global()));
            roots.push(promoted);
        }
        panic!("sustained promotion must eventually satisfy the condition");
    }

    #[test]
    fn needs_global_trips_after_enough_promotion() {
        let (mut heap, mut collector) = setup(1);
        let floor = collector.config().global_threshold_per_vproc_bytes;
        let chunk = heap.global().chunk_size_bytes();
        let tripped = |c: &Collector, h: &Heap| c.needs_global(h.global());
        let mut roots = vec![Vec::new()];

        // An empty heap, and a heap no collection has run on yet (nothing
        // retained to scale), trip at the floor.
        assert!(!collector.needs_global(heap.global()));
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
        assert!(fixed.needs_global(heap.global()));

        // The proportional rule waits until occupancy has doubled.
        assert!(!collector.needs_global(heap.global()));
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
        assert!(!collector.needs_global(heap.global()));
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

    /// Chunks parked at a node switch are `Filled` and flip with the rest:
    /// the flip empties the partial stacks, no lease after it hands out a
    /// from-space chunk, and the release puts every from-space chunk on its
    /// node's free stack exactly once.
    #[test]
    fn parked_chunks_flip_and_are_released_once() {
        use mgc_heap::{Location, ObjectKind};

        let (mut workers, global) = crate::collector::tests::two_workers();
        let header = Header::new(ObjectKind::Raw, 1).encode();
        let alternate = |w: &mut WorkerHeap| -> Vec<Addr> {
            (0..9u64)
                .map(|i| {
                    w.set_promotion_target(NodeId::new((i % 2) as u16));
                    w.alloc_in_global(header, &[i]).unwrap()
                })
                .collect()
        };
        for w in workers.iter_mut() {
            alternate(w);
            w.retire_current_chunk();
        }
        let nodes = [NodeId::new(0), NodeId::new(1)];
        let parked: usize = nodes.iter().map(|&n| global.partial_chunks_on(n)).sum();
        assert!(parked > 0, "the switches left partial chunks");

        let acquisitions = global.chunk_acquisitions();
        let from_space = flip_to_from_space(&global);
        assert_eq!(from_space.len(), global.chunks_in_use());
        assert!(nodes.iter().all(|&n| global.partial_chunks_on(n) == 0));
        assert_eq!(
            global.chunk_acquisitions(),
            acquisitions,
            "emptying the partial stacks counts no lease"
        );
        for w in workers.iter_mut() {
            for obj in alternate(w) {
                let Location::Global(chunk, _) = w.locate(obj) else {
                    panic!("{obj:?} is not global");
                };
                assert!(
                    !from_space.contains(&chunk.id().index()),
                    "a from-space lease"
                );
            }
        }
        for &node in &nodes {
            assert!(!from_space.contains(&global.acquire(node).id().index()));
        }

        let leased_after = global.chunks_in_use() - from_space.len();
        assert_eq!(release_from_space(&global, &from_space), from_space.len());
        let free: usize = nodes.iter().map(|&n| global.pool().free_chunks_on(n)).sum();
        assert_eq!(free, from_space.len());
        assert_eq!(global.chunks_in_use(), leased_after);
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
            let header = w.locate(root).header();
            assert_eq!((header.kind, header.len_words), (shape.kind(), 5));
            assert_eq!(w.read_field(root, 1), 0xAAAA);
            assert_eq!(w.read_field(root, 3), 0xBBBB);
            assert_eq!(w.read_field(root, 4), 0);
            let one = Addr::new(w.read_field(root, 0));
            assert_eq!(w.locate(one).header().kind, ObjectKind::Raw);
            assert_eq!(w.locate(one).payload(), vec![tag]);
            assert_eq!(w.locate(Addr::new(w.read_field(root, 2))).payload(), big);
        };

        // Graph A: nursery -> young (minor) -> old (the next minor).
        let mut roots = vec![build(&mut w, 71)];
        check(&w, roots[0], 71);
        collector.minor(&mut w, 0, &mut roots);
        let region = |w: &WorkerHeap, addr| w.find(addr).map(|(region, ..)| region);
        assert_eq!(region(&w, roots[0]), Some(mgc_heap::LocalRegion::Young));
        check(&w, roots[0], 71);
        collector.minor(&mut w, 0, &mut roots);
        assert_eq!(region(&w, roots[0]), Some(mgc_heap::LocalRegion::Old));
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
        assert_eq!(
            w.locate(local_b).header_slot().forwarded_to(),
            Some(promoted)
        );
        check(&w, promoted, 72);
        let walked: Vec<Addr> = w.local().nursery_objects().map(|(a, _)| a).collect();
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
        assert_eq!(w.locate(fresh).payload(), vec![1, 2]);
    }

    /// A collection whose every pass starts past its deadline: each call of
    /// [`Collector::collect_global`] must still scan at least one stride (no
    /// livelock) and return before the release, and the calls converge.
    #[test]
    fn budgeted_scan_passes_converge_and_preserve_data() {
        let (mut heap, mut collector) = setup(2);
        let mut roots = populate_lists(&mut heap, &mut collector, &[40, 40]);
        let before: Vec<Vec<u64>> = roots.iter().map(|r| list_values(&heap, r[0])).collect();
        for (vproc, roots) in roots.iter_mut().enumerate() {
            collector.minor(&mut heap, vproc, roots);
            collector.major(&mut heap, vproc, roots);
            heap.worker_mut(vproc).retire_current_chunk();
        }
        let global = Arc::clone(heap.global());
        let state = ParallelGcState::new();
        let expired = Instant::now() - std::time::Duration::from_secs(1);
        let mut vprocs = Sequential {
            heap: &mut heap,
            roots: &mut roots,
            costs: None,
        };
        let mut increments = 0u32;
        while !collector.collect_global(&mut vprocs, &state, Some(expired)) {
            increments += 1;
            // What the collection retained is recorded at the release, never
            // at an increment that merely ran out of budget.
            assert_eq!(global.bytes_after_last_collection(), 0);
            assert!(increments < 10_000, "budgeted passes failed to converge");
        }
        // 80 list cells + 80 values: far more than one stride, so the
        // expired deadline must have forced multiple increments.
        assert!(increments > 2, "expected many budgeted increments");
        assert_eq!(global.bytes_after_last_collection(), global.bytes_in_use());
        for (roots, expected) in roots.iter().zip(&before) {
            assert_eq!(&list_values(&heap, roots[0]), expected);
        }
        assert!(state.copied_bytes.load(Ordering::Relaxed) > 0);
    }

    /// `(cpu_ns.to_bits(), bytes_to_node)` per vproc and the copied bytes of
    /// one collection on four vprocs over two nodes (vproc `v` on node
    /// `v % 2`). The elapsed time of a simulated round is its slowest
    /// vproc's, so this pins what the others are charged as well.
    const PINNED_PER_VPROC: ([(u64, [u64; 2]); 4], u64) = (
        [
            (0x40dcb76666666667, [4480, 1600]), // 29405.600000000002 ns
            (0x40dc856666666667, [0, 3080]),    // 29205.600000000002 ns
            (0x40dc5c0000000000, [600, 0]),     // 29040 ns
            (0x40dc520000000000, [0, 0]),       // 29000 ns
        ],
        3200,
    );

    #[test]
    fn per_vproc_costs_are_pinned() {
        let (mut heap, mut collector) = setup(4);
        // Lists of different lengths, so no two vprocs' costs coincide.
        let mut roots = populate_lists(&mut heap, &mut collector, &[10, 25, 5, 40]);
        // Young local vectors: vproc 0's holds vproc 3's list, which vproc 0
        // reaches first and copies across nodes; vproc 1's holds its own.
        let lists: Vec<Addr> = roots.iter().map(|set| set[0]).collect();
        for (vproc, list) in [(0, lists[3]), (1, lists[1])] {
            let holder = heap.alloc_vector(vproc, &[list.raw()]).unwrap();
            roots[vproc].insert(0, holder);
        }
        let outcome = collector.global(&mut heap, &mut roots);
        let per_vproc: Vec<(u64, [u64; 2])> = outcome
            .per_vproc_cost
            .iter()
            .map(|c| (c.cpu_ns.to_bits(), [c.bytes_to_node[0], c.bytes_to_node[1]]))
            .collect();
        assert_eq!(
            (per_vproc.as_slice(), outcome.copied_bytes),
            (PINNED_PER_VPROC.0.as_slice(), PINNED_PER_VPROC.1)
        );
    }

    /// [`PINNED_PER_VPROC`] for two vprocs on nodes 0 and 1 of three, with
    /// interleaved chunk placement: `(cpu_ns.to_bits(), bytes_to_node)` per
    /// vproc, then the copied bytes.
    const PINNED_FALLBACK: ([(u64, [u64; 3]); 2], u64) = (
        [
            (0x40dc567333333333, [64, 104, 104]),    // 29017.8 ns
            (0x40dd1f8ccccccccd, [2336, 104, 9888]), // 29822.2 ns
        ],
        4200,
    );

    /// A to-space chunk on a node with no vproc is handed to every vproc in
    /// turn. Interleaved placement puts every third chunk on node 2, where
    /// no vproc runs.
    #[test]
    fn chunks_on_a_node_without_vprocs_are_pinned() {
        use mgc_numa::PlacementPolicy;

        let nodes = [NodeId::new(0), NodeId::new(1)];
        let config = HeapConfig::small_for_tests();
        let mut heap = Heap::with_placement(config, &nodes, 3, PlacementPolicy::Interleave);
        let mut collector = Collector::new(GcConfig::small_for_tests(), 2, 3);
        let mut roots = populate_lists(&mut heap, &mut collector, &[60, 45]);
        let outcome = collector.global(&mut heap, &mut roots);
        let on_node_2 = heap
            .global()
            .chunks()
            .filter(|c| c.state() != SharedChunkState::Free && c.node() == NodeId::new(2))
            .count();
        assert!(on_node_2 > 0, "some to-space chunk is on node 2");
        let per_vproc: Vec<(u64, [u64; 3])> = outcome
            .per_vproc_cost
            .iter()
            .map(|c| (c.cpu_ns.to_bits(), [0, 1, 2].map(|n| c.bytes_to_node[n])))
            .collect();
        assert_eq!(
            (per_vproc.as_slice(), outcome.copied_bytes),
            (PINNED_FALLBACK.0.as_slice(), PINNED_FALLBACK.1)
        );
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
        assert!(!collector.needs_global(heap.global()));
        for (vproc, expected) in copied_first.iter().enumerate() {
            assert_eq!(&list_values(&heap, roots[vproc][0]), expected);
        }
    }
}
