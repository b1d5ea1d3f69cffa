//! The collector: shared state, the minor collection, and the trigger logic.
//!
//! The collection algorithms follow §3.3–3.4 of the paper:
//!
//! * [`Collector::minor`] copies live nursery objects into the old-data area
//!   of the same local heap (Figure 2). Because no other heap can point into
//!   the nursery, minor collections need no synchronisation at all.
//! * [`Collector::collect_local`] is the entry point a vproc uses when its
//!   nursery fills: it runs a minor collection and, when the re-divided
//!   nursery falls below the threshold or a global collection is pending,
//!   follows it with a major collection (implemented in `major.rs`).
//! * [`Collector::global`] (in `global.rs`) is the stop-the-world parallel
//!   collection of the global heap.

use crate::config::GcConfig;
use crate::cost::{GcCost, CHUNK_ACQUIRE_NS, COLLECTION_FIXED_NS};
use crate::stats::{CollectionKind, GcStats};
use mgc_heap::{
    word_as_pointer, Addr, ChunkId, EvacTarget, GcHeap, Header, HeaderSlot, Heap,
    InvariantViolation, LocalRegion, Location, SharedGlobalHeap, WorkerHeap,
};

/// Result of a single (per-vproc) collection.
#[derive(Debug, Clone, PartialEq)]
pub struct GcOutcome {
    /// Which collection ran.
    pub kind: CollectionKind,
    /// Cost to charge to the collecting vproc. Only a collection on a worker
    /// that charges ([`WorkerHeap::charges_costs`]: the simulated machine's)
    /// fills it in; on a threaded worker it is empty.
    pub cost: GcCost,
    /// Bytes copied within the local heap.
    pub copied_bytes: u64,
    /// Bytes promoted to the global heap.
    pub promoted_bytes: u64,
    /// Bytes promoted to the global heap, by the NUMA node the receiving
    /// chunk lives on (empty for collections that promote nothing, e.g.
    /// minors). The runtime splits this into local vs remote against the
    /// consumer's node.
    pub promoted_bytes_by_node: Vec<u64>,
    /// Whether a major collection was (or should be) triggered.
    pub triggered_major: bool,
    /// Whether the global-heap threshold has been exceeded and a global
    /// collection should be scheduled.
    pub needs_global: bool,
}

impl GcOutcome {
    /// Splits the promoted bytes into `(local, remote)` with respect to a
    /// consumer on `node`. A collection that recorded no per-node breakdown
    /// reports everything as local (nothing was promoted).
    pub fn promoted_split(&self, node: mgc_numa::NodeId) -> (u64, u64) {
        let local = self
            .promoted_bytes_by_node
            .get(node.index())
            .copied()
            .unwrap_or(0);
        (local, self.promoted_bytes.saturating_sub(local))
    }

    /// Folds the outcome of the major collection that followed this minor
    /// one into it, so the pair reads as one local collection.
    pub fn absorb_major(&mut self, major: GcOutcome) {
        self.cost.merge(&major.cost);
        self.promoted_bytes += major.promoted_bytes;
        if self.promoted_bytes_by_node.is_empty() {
            self.promoted_bytes_by_node = major.promoted_bytes_by_node;
        } else {
            for (slot, bytes) in self
                .promoted_bytes_by_node
                .iter_mut()
                .zip(major.promoted_bytes_by_node)
            {
                *slot += bytes;
            }
        }
        self.needs_global = major.needs_global;
        self.triggered_major = true;
    }
}

/// The loop every scan shares: rewrites each pointer field of the object at
/// `at` (whose header is `header`) to what `forward` makes of it, in
/// ascending field order, writing only the fields that changed. The object
/// is located once, in the worker's own local heap or in a chunk; each field
/// is then an index.
pub(crate) fn forward_fields(
    worker: &mut WorkerHeap,
    at: Location<'_>,
    header: Header,
    mut forward: impl FnMut(&mut WorkerHeap, Addr) -> Addr,
) {
    let fields = worker
        .pointer_field_indices(header)
        .expect("all mixed-object descriptors are registered before allocation");
    for index in fields {
        let word = at.map_local(|_| worker.local().words()).read(index);
        let Some(ptr) = word_as_pointer(word) else {
            continue;
        };
        let new = forward(worker, ptr);
        if new != ptr {
            match at {
                Location::Local(_, offset) => worker.local_mut().write(offset + index, new.raw()),
                Location::Global(chunk, offset) => chunk.write(offset + index, new.raw()),
            }
        }
    }
}

/// Calls `visit(worker, offset, header)` on each live object of the
/// worker's young data, in address order, `offset` being its first payload
/// word. The visit may rewrite the objects' fields, not their headers.
pub(crate) fn for_each_young(
    worker: &mut WorkerHeap,
    mut visit: impl FnMut(&mut WorkerHeap, usize, Header),
) {
    let (mut at, end) = (worker.local().young_start(), worker.local().old_top());
    while at < end {
        let (header, words) = worker.local().object_at(at);
        if let Some(header) = header {
            visit(worker, at + 1, header);
        }
        at += words;
    }
}

/// Running per-node tally of one collection's promoted bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct PromotionTally {
    /// Total promoted bytes.
    pub total: u64,
    /// Promoted bytes per destination node.
    pub by_node: Vec<u64>,
}

impl PromotionTally {
    pub(crate) fn new(num_nodes: usize) -> Self {
        PromotionTally {
            total: 0,
            by_node: vec![0; num_nodes],
        }
    }

    pub(crate) fn add(&mut self, node: mgc_numa::NodeId, bytes: u64) {
        self.total += bytes;
        if let Some(slot) = self.by_node.get_mut(node.index()) {
            *slot += bytes;
        }
    }

    /// The total and the per-node bytes, leaving the tally empty for the
    /// next collection. A collection that promoted nothing gets no per-node
    /// bytes, as a minor collection's outcome has none.
    pub(crate) fn take(&mut self) -> (u64, Vec<u64>) {
        if self.total == 0 {
            return (0, Vec::new());
        }
        let by_node = self.by_node.clone();
        self.by_node.fill(0);
        (std::mem::take(&mut self.total), by_node)
    }
}

/// The NUMA-aware generational collector.
///
/// One `Collector` serves the whole machine: it holds the configuration,
/// per-vproc statistics, and the pending-global-collection flag. The heap is
/// passed in on every call so the runtime keeps ownership of it.
#[derive(Debug, Clone)]
pub struct Collector {
    config: GcConfig,
    num_nodes: usize,
    per_vproc: Vec<GcStats>,
    global_pending: bool,
    /// Buffers the local collections reuse, so that none allocates: the
    /// copies still to scan, in the local heap and in the global heap, and
    /// the promoted bytes per node.
    worklist: Vec<usize>,
    promoted: Vec<(ChunkId, Addr)>,
    tally: PromotionTally,
}

impl Collector {
    /// Creates a collector for `num_vprocs` vprocs on a machine with
    /// `num_nodes` NUMA nodes.
    pub fn new(config: GcConfig, num_vprocs: usize, num_nodes: usize) -> Self {
        Collector {
            config,
            num_nodes,
            per_vproc: vec![GcStats::new(); num_vprocs],
            global_pending: false,
            worklist: Vec::new(),
            promoted: Vec::new(),
            tally: PromotionTally::new(num_nodes),
        }
    }

    /// The collector configuration.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    /// Number of NUMA nodes the collector charges costs against.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Statistics for one vproc.
    pub fn vproc_stats(&self, vproc: usize) -> &GcStats {
        &self.per_vproc[vproc]
    }

    /// Mutable statistics for one vproc (the runtime adds pause times once it
    /// has costed the collection through the memory model).
    pub fn vproc_stats_mut(&mut self, vproc: usize) -> &mut GcStats {
        &mut self.per_vproc[vproc]
    }

    /// Machine-wide aggregated statistics.
    pub fn aggregate_stats(&self) -> GcStats {
        let mut total = GcStats::new();
        for s in &self.per_vproc {
            total.merge(s);
        }
        total
    }

    /// True if a global collection has been requested but not yet performed.
    pub fn global_pending(&self) -> bool {
        self.global_pending
    }

    /// Requests a global collection; vprocs entering the collector will first
    /// finish their local collections and then join the global one.
    pub fn request_global(&mut self) {
        self.global_pending = true;
    }

    /// Clears the pending-global-collection flag; [`Collector::global`] does
    /// this automatically when it completes.
    pub fn clear_global_pending(&mut self) {
        self.global_pending = false;
    }

    /// True if `global`'s occupancy exceeds the trigger: the larger of the
    /// configured floor (§3.4: number of vprocs × 32 MB at paper scale) and
    /// [`GcConfig::global_growth_factor`] × what the last global collection
    /// left in use. The heap records the latter when it releases from-space,
    /// so every vproc's collector reads one agreed value.
    pub fn needs_global(&self, global: &SharedGlobalHeap) -> bool {
        let floor = self.config.global_threshold_per_vproc_bytes * self.per_vproc.len();
        let proportional =
            self.config.global_growth_factor * global.bytes_after_last_collection() as f64;
        global.bytes_in_use() > floor.max(proportional as usize)
    }

    /// Whether the paper's triggers ask for a major collection after the
    /// minor collection that produced `minor`: the re-divided nursery fell
    /// below the threshold, or a global collection is pending.
    pub fn major_due(&self, minor: &GcOutcome) -> bool {
        minor.triggered_major || self.global_pending
    }

    /// The full local-collection entry point used when a vproc's nursery is
    /// exhausted: a minor collection, followed by a major collection when the
    /// paper's triggers say so. A caller that can hand the minor phase fewer
    /// roots than the major one (the threaded backend's watermark) composes
    /// the same three steps itself: [`Collector::minor`],
    /// [`Collector::major_due`], [`GcOutcome::absorb_major`].
    pub fn collect_local(
        &mut self,
        heap: &mut Heap,
        vproc: usize,
        roots: &mut [Addr],
    ) -> GcOutcome {
        let mut outcome = self.minor(heap, vproc, roots);
        if self.major_due(&outcome) {
            outcome.absorb_major(self.major(heap, vproc, roots));
        }
        outcome
    }

    /// Runs a minor collection for `vproc`: copies every nursery object
    /// reachable from `roots` into the old-data area, rewrites the roots,
    /// and re-divides the nursery (Figure 2).
    ///
    /// Minor collections require no synchronisation with other vprocs
    /// because nothing outside this vproc can point into its nursery (§2.3);
    /// on the real-threads backend's [`WorkerHeap`] this path takes no locks
    /// at all.
    ///
    /// Exactly the roots handed over are visited — the caller may leave out
    /// any root it knows holds no nursery pointer, since a minor collection
    /// moves nothing else. [`GcStats::minor_roots_visited`] counts them.
    pub fn minor<H: GcHeap>(
        &mut self,
        heap: &mut H,
        vproc: usize,
        roots: &mut [Addr],
    ) -> GcOutcome {
        let worker = heap.worker_mut(vproc);
        let mut cost = self.cost_for(worker, COLLECTION_FIXED_NS);
        let mut outcome = self.minor_on(worker, roots, cost.as_mut());
        outcome.cost = cost.unwrap_or_default();
        self.maybe_verify(|| heap.verify_violations());
        outcome
    }

    /// The body of [`Collector::minor`], on the collecting vproc's worker.
    fn minor_on(
        &mut self,
        worker: &mut WorkerHeap,
        roots: &mut [Addr],
        cost: Option<&mut GcCost>,
    ) -> GcOutcome {
        let vproc = worker.vproc();
        let node = worker.local().node();
        let mut scan = Scan::new(self, cost);

        worker.local_mut().begin_minor();

        for root in roots.iter_mut().filter(|root| !root.is_null()) {
            *root = scan.forward_minor(worker, *root);
        }

        while let Some(offset) = scan.worklist.pop() {
            let at = Location::Local(vproc, offset);
            let header = at.map_local(|_| worker.local().words()).header();
            scan.charge(|cost| cost.charge_scan(node, header.total_bytes()));
            forward_fields(worker, at, header, |worker, ptr| {
                scan.forward_minor(worker, ptr)
            });
        }
        let copied_bytes = scan.copied_bytes;

        worker.local_mut().finish_minor();

        let stats = &mut self.per_vproc[vproc];
        stats.minor_collections += 1;
        stats.minor_copied_bytes += copied_bytes;
        stats.minor_roots_visited += roots.len() as u64;

        let local = worker.local();
        let nursery_fraction = local.nursery_size_words() as f64 / local.size_words() as f64;
        GcOutcome {
            kind: CollectionKind::Minor,
            cost: GcCost::default(),
            copied_bytes,
            promoted_bytes: 0,
            promoted_bytes_by_node: Vec::new(),
            triggered_major: nursery_fraction < self.config.nursery_threshold_fraction,
            needs_global: self.needs_global(worker.global()),
        }
    }

    /// The cost record a collection on `worker` charges, starting at
    /// `fixed_ns`, if the worker charges costs
    /// ([`WorkerHeap::charges_costs`]). Without one the collection does no
    /// cost arithmetic at all.
    pub(crate) fn cost_for(&self, worker: &WorkerHeap, fixed_ns: f64) -> Option<GcCost> {
        worker.charges_costs().then(|| {
            let mut cost = GcCost::new(self.num_nodes);
            cost.charge_cpu(fixed_ns);
            cost
        })
    }

    /// With [`GcConfig::verify_after_gc`], panics on any heap invariant
    /// `violations` finds.
    pub(crate) fn maybe_verify(&self, violations: impl FnOnce() -> Vec<InvariantViolation>) {
        if self.config.verify_after_gc {
            let violations: Vec<String> = violations().iter().map(ToString::to_string).collect();
            assert!(
                violations.is_empty(),
                "heap invariant violated after collection: {}",
                violations.join("; ")
            );
        }
    }
}

/// One collection's walk over a worker's objects: the copied objects still
/// to scan, the bytes copied and promoted so far and, on a worker that
/// charges ([`WorkerHeap::charges_costs`]), the cost record. Without one the
/// walk does no cost arithmetic at all.
pub(crate) struct Scan<'a> {
    /// A minor collection's copies, by word offset in the local heap.
    worklist: &'a mut Vec<usize>,
    /// Copies in the global heap, by the chunk `evacuate` put each in.
    pub(crate) promoted: &'a mut Vec<(ChunkId, Addr)>,
    pub(crate) tally: &'a mut PromotionTally,
    copied_bytes: u64,
    cost: Option<&'a mut GcCost>,
}

impl<'a> Scan<'a> {
    /// Starts a collection over `collector`'s buffers, charging `cost`.
    pub(crate) fn new(collector: &'a mut Collector, cost: Option<&'a mut GcCost>) -> Self {
        Scan {
            worklist: &mut collector.worklist,
            promoted: &mut collector.promoted,
            tally: &mut collector.tally,
            copied_bytes: 0,
            cost,
        }
    }

    /// Runs `charge` on the cost record, if there is one.
    pub(crate) fn charge(&mut self, charge: impl FnOnce(&mut GcCost)) {
        if let Some(cost) = self.cost.as_deref_mut() {
            charge(cost);
        }
    }

    /// Forwards one pointer for a minor collection: a nursery object is
    /// copied to the old area, anything else is left in place (following the
    /// forwarding pointer an earlier promotion left in the local heap).
    fn forward_minor(&mut self, worker: &mut WorkerHeap, ptr: Addr) -> Addr {
        let Some((region, offset, slot)) = worker.find(ptr) else {
            return ptr;
        };
        match (region, slot) {
            (
                LocalRegion::Nursery | LocalRegion::Young | LocalRegion::Old,
                HeaderSlot::Forwarded(new),
            ) => new,
            (LocalRegion::Nursery, HeaderSlot::Header(header)) => {
                let (new, bytes) = worker
                    .evacuate(offset, header, EvacTarget::OldArea)
                    .expect("the Appel reserve always has room for minor-collection survivors");
                self.copied_bytes += bytes as u64;
                let local = worker.local();
                let node = local.node();
                self.charge(|cost| cost.charge_copy(node, node, bytes));
                self.worklist.push(new.words_from(local.base()));
                new
            }
            _ => ptr,
        }
    }

    /// Forwards one pointer towards the global heap, for major collections
    /// and promotions. `include_young` selects whether young data is
    /// promoted too (a major collection keeps it local, §3.3; a promotion
    /// copies it). A pointer outside the worker's local heap stays.
    pub(crate) fn forward_to_global(
        &mut self,
        worker: &mut WorkerHeap,
        ptr: Addr,
        include_young: bool,
    ) -> Addr {
        let Some((region, offset, slot)) = worker.find(ptr) else {
            return ptr;
        };
        let header = match slot {
            HeaderSlot::Forwarded(new) => return new,
            HeaderSlot::Header(header) => header,
        };
        let promote = match region {
            LocalRegion::Old | LocalRegion::Nursery => true,
            LocalRegion::Young => include_young,
            LocalRegion::Reserve | LocalRegion::NurseryFree => false,
        };
        if !promote {
            return ptr;
        }
        let leases = worker.stats().chunk_acquisitions;
        let (new, bytes) = worker
            .evacuate(offset, header, EvacTarget::GlobalCurrent)
            .expect("global-heap allocation for promotion cannot fail");
        // The copy is in the current chunk, on that chunk's node.
        let chunk = worker
            .current_chunk()
            .expect("a promotion leaves a current chunk");
        if let Some(cost) = self.cost.as_deref_mut() {
            if worker.stats().chunk_acquisitions > leases {
                // Acquiring a chunk is the synchronisation point of §3.3.
                cost.charge_cpu(CHUNK_ACQUIRE_NS);
            }
            cost.charge_copy(worker.local().node(), chunk.node(), bytes);
        }
        self.promoted.push((chunk.id(), new));
        new
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mgc_heap::{
        DescriptorTable, Heap, HeapConfig, SharedGlobalHeap, ThreadedLayout, WorkerHeap,
    };
    use mgc_numa::NodeId;
    use std::sync::Arc;

    fn setup(vprocs: usize) -> (Heap, Collector) {
        let nodes: Vec<NodeId> = (0..vprocs).map(|v| NodeId::new((v % 2) as u16)).collect();
        let heap = Heap::new(HeapConfig::small_for_tests(), &nodes, 2);
        let collector = Collector::new(GcConfig::small_for_tests(), vprocs, 2);
        (heap, collector)
    }

    #[test]
    fn minor_copies_only_reachable_objects() {
        let (mut heap, mut collector) = setup(1);
        let live = heap.alloc_raw(0, &[1, 2]).unwrap();
        let _dead = heap.alloc_raw(0, &[3, 4]).unwrap();
        let holder = heap.alloc_vector(0, &[live.raw()]).unwrap();
        let mut roots = vec![holder];

        let before_used = heap.worker(0).local().nursery_used_words();
        assert!(before_used > 0);
        let outcome = collector.minor(&mut heap, 0, &mut roots);

        assert_eq!(outcome.kind, CollectionKind::Minor);
        // Survivors: the holder (2 words) + the live object (3 words).
        assert_eq!(outcome.copied_bytes, (2 + 3) * 8);
        let new_holder = roots[0];
        let region = |addr| heap.worker(0).find(addr).map(|(region, ..)| region);
        assert_eq!(region(new_holder), Some(LocalRegion::Young));
        let new_live = Addr::new(heap.read_field(new_holder, 0));
        assert_eq!(heap.locate(new_live).payload(), vec![1, 2]);
        assert_eq!(region(new_live), Some(LocalRegion::Young));
        // Nursery is empty again.
        assert_eq!(heap.worker(0).local().nursery_used_words(), 0);
        assert_eq!(collector.vproc_stats(0).minor_collections, 1);
    }

    #[test]
    fn a_major_that_promotes_nothing_reports_no_nodes() {
        let (mut heap, mut collector) = setup(1);
        heap.alloc_raw(0, &[1, 2]).unwrap();
        let mut roots = Vec::new();
        collector.minor(&mut heap, 0, &mut roots);
        let outcome = collector.major(&mut heap, 0, &mut roots);
        assert_eq!(outcome.promoted_bytes, 0);
        assert!(outcome.promoted_bytes_by_node.is_empty());
        assert_eq!(outcome.promoted_split(NodeId::new(0)), (0, 0));
        assert_eq!(outcome.promoted_split(NodeId::new(1)), (0, 0));
    }

    #[test]
    fn minor_handles_shared_structure_once() {
        let (mut heap, mut collector) = setup(1);
        let shared = heap.alloc_raw(0, &[9]).unwrap();
        let a = heap.alloc_vector(0, &[shared.raw()]).unwrap();
        let b = heap.alloc_vector(0, &[shared.raw()]).unwrap();
        let mut roots = vec![a, b];
        let outcome = collector.minor(&mut heap, 0, &mut roots);
        // shared (2 words) + two vectors (2 words each) = 6 words.
        assert_eq!(outcome.copied_bytes, 6 * 8);
        let sa = Addr::new(heap.read_field(roots[0], 0));
        let sb = Addr::new(heap.read_field(roots[1], 0));
        assert_eq!(sa, sb, "sharing is preserved, not duplicated");
    }

    #[test]
    fn minor_preserves_cycles_free_deep_structure() {
        let (mut heap, mut collector) = setup(1);
        // A linked list of 50 cons cells in the nursery.
        let mut tail = Addr::NULL;
        for i in 0..50u64 {
            let payload_obj = heap.alloc_raw(0, &[i]).unwrap();
            tail = heap
                .alloc_vector(0, &[payload_obj.raw(), tail.raw()])
                .unwrap();
        }
        let mut roots = vec![tail];
        collector.minor(&mut heap, 0, &mut roots);
        // Walk the list back and check the values.
        let mut cursor = roots[0];
        let mut seen = Vec::new();
        while !cursor.is_null() {
            let value_obj = Addr::new(heap.read_field(cursor, 0));
            seen.push(heap.read_field(value_obj, 0));
            cursor = Addr::new(heap.read_field(cursor, 1));
        }
        assert_eq!(seen, (0..50u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn null_roots_are_ignored() {
        let (mut heap, mut collector) = setup(1);
        heap.alloc_raw(0, &[1]).unwrap();
        let mut roots = vec![Addr::NULL];
        let outcome = collector.minor(&mut heap, 0, &mut roots);
        assert_eq!(outcome.copied_bytes, 0);
        assert_eq!(roots[0], Addr::NULL);
    }

    #[test]
    fn repeated_minors_accumulate_old_data_and_trigger_major() {
        let (mut heap, mut collector) = setup(1);
        let mut roots: Vec<Addr> = Vec::new();
        let mut triggered = false;
        for _ in 0..200 {
            match heap.alloc_raw(0, &[0; 16]) {
                Ok(obj) => roots.push(obj),
                Err(_) => {
                    let outcome = collector.minor(&mut heap, 0, &mut roots);
                    if outcome.triggered_major {
                        triggered = true;
                        break;
                    }
                }
            }
        }
        assert!(
            triggered,
            "keeping everything alive must eventually shrink the nursery below the threshold"
        );
        assert!(collector.vproc_stats(0).minor_collections >= 1);
    }

    /// The two workers of a small threaded heap, vproc `v` on node `v`.
    pub(crate) fn two_workers() -> (Vec<WorkerHeap>, Arc<SharedGlobalHeap>) {
        let layout = ThreadedLayout::new(&HeapConfig::small_for_tests(), 2, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        let table = Arc::new(DescriptorTable::new());
        let worker = |v| {
            WorkerHeap::new(
                v,
                layout,
                NodeId::new(v as u16),
                global.clone(),
                table.clone(),
            )
        };
        (vec![worker(0), worker(1)], global)
    }

    /// Worker 0, its neighbour, and a collector that verifies after every
    /// collection.
    fn threaded_setup() -> (WorkerHeap, WorkerHeap, Collector) {
        let (mut workers, _) = two_workers();
        let config = GcConfig::small_for_tests();
        assert!(config.verify_after_gc);
        let w1 = workers.pop().unwrap();
        (workers.pop().unwrap(), w1, Collector::new(config, 2, 2))
    }

    #[test]
    #[should_panic(expected = "heap invariant violated")]
    fn threaded_minor_catches_a_forged_cross_local_pointer() {
        let (mut w0, mut w1, mut collector) = threaded_setup();
        let foreign = w1.alloc_raw(&[5]).unwrap();
        let mut roots = vec![w0.alloc_vector(&[0]).unwrap()];
        // A clean collection passes; its survivor is young data now.
        collector.minor(&mut w0, 0, &mut roots);
        let region = w0.find(roots[0]).map(|(region, ..)| region);
        assert_eq!(region, Some(LocalRegion::Young));
        let offset = w0.local().offset_of(roots[0]);
        w0.local_mut().write(offset, foreign.raw());
        collector.minor(&mut w0, 0, &mut roots);
    }

    #[test]
    #[should_panic(expected = "heap invariant violated")]
    fn threaded_minor_catches_a_pointer_into_a_released_chunk() {
        let (mut w0, _w1, mut collector) = threaded_setup();
        let header = Header::new(mgc_heap::ObjectKind::Raw, 1).encode();
        let promoted = w0.alloc_in_global(header, &[5]).unwrap();
        let chunk = w0.current_chunk().unwrap().clone();
        let mut roots = vec![w0.alloc_vector(&[promoted.raw()]).unwrap()];
        w0.retire_current_chunk();
        collector.minor(&mut w0, 0, &mut roots);
        // Releasing the chunk under a live pointer is the collector bug the
        // walk exists to catch.
        w0.global().release(&chunk);
        collector.minor(&mut w0, 0, &mut roots);
    }

    /// A simulated minor of vproc 0 after `plant` broke an invariant outside
    /// vproc 0's own heap: the verifier walks the whole machine, so it
    /// panics.
    fn simulated_minor_after(plant: impl FnOnce(&mut Heap)) {
        let (mut heap, mut collector) = setup(2);
        assert!(collector.config().verify_after_gc);
        let mut roots = vec![heap.alloc_vector(0, &[0]).unwrap()];
        // A clean collection passes.
        collector.minor(&mut heap, 0, &mut roots);
        plant(&mut heap);
        collector.minor(&mut heap, 0, &mut roots);
    }

    #[test]
    #[should_panic(expected = "heap invariant violated")]
    fn simulated_minor_catches_a_cross_local_pointer_in_another_vprocs_heap() {
        simulated_minor_after(|heap| {
            let foreign = heap.alloc_raw(0, &[5]).unwrap();
            heap.alloc_vector(1, &[foreign.raw()]).unwrap();
        });
    }

    #[test]
    #[should_panic(expected = "heap invariant violated")]
    fn simulated_minor_catches_a_global_object_pointing_into_a_local_heap() {
        simulated_minor_after(|heap| {
            let local = heap.alloc_raw(1, &[5]).unwrap();
            let header = Header::new(mgc_heap::ObjectKind::Vector, 1).encode();
            heap.worker_mut(1)
                .alloc_in_global(header, &[local.raw()])
                .unwrap();
        });
    }

    #[test]
    fn global_pending_flag() {
        let (_heap, mut collector) = setup(1);
        assert!(!collector.global_pending());
        collector.request_global();
        assert!(collector.global_pending());
    }

    #[test]
    fn aggregate_stats_sum_over_vprocs() {
        let (mut heap, mut collector) = setup(2);
        let a = heap.alloc_raw(0, &[1]).unwrap();
        let b = heap.alloc_raw(1, &[2]).unwrap();
        let mut roots0 = vec![a];
        let mut roots1 = vec![b];
        collector.minor(&mut heap, 0, &mut roots0);
        collector.minor(&mut heap, 1, &mut roots1);
        assert_eq!(collector.aggregate_stats().minor_collections, 2);
    }
}
