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
use mgc_heap::{word_as_pointer, Addr, EvacTarget, GcHeap, Header, Space};

/// Result of a single (per-vproc) collection.
#[derive(Debug, Clone, PartialEq)]
pub struct GcOutcome {
    /// Which collection ran.
    pub kind: CollectionKind,
    /// Cost to charge to the collecting vproc.
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

/// The loop every scan shares: rewrites each pointer field of `obj` (whose
/// header is `header`) to what `forward` makes of it, in ascending field
/// order, writing only the fields that changed.
pub(crate) fn forward_fields<H: GcHeap>(
    heap: &mut H,
    obj: Addr,
    header: Header,
    mut forward: impl FnMut(&mut H, Addr) -> Addr,
) {
    let fields = heap
        .pointer_field_indices(header)
        .expect("all mixed-object descriptors are registered before allocation");
    for index in fields {
        let Some(ptr) = word_as_pointer(heap.read_field(obj, index)) else {
            continue;
        };
        let new = forward(heap, ptr);
        if new != ptr {
            heap.write_field(obj, index, new.raw());
        }
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

    /// True if the global-heap occupancy exceeds the trigger: the larger of
    /// the configured floor (§3.4: number of vprocs × 32 MB at paper scale)
    /// and [`GcConfig::global_growth_factor`] × what the last global
    /// collection left in use. The heap records the latter when it releases
    /// from-space, so every vproc's collector reads one agreed value.
    pub fn needs_global<H: GcHeap>(&self, heap: &H) -> bool {
        let floor = self.config.global_threshold_per_vproc_bytes * heap.num_vprocs();
        let proportional =
            self.config.global_growth_factor * heap.global().bytes_after_last_collection() as f64;
        heap.global().bytes_in_use() > floor.max(proportional as usize)
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
    pub fn collect_local<H: GcHeap>(
        &mut self,
        heap: &mut H,
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
    /// on the real-threads backend's [`WorkerHeap`](mgc_heap::WorkerHeap)
    /// this path takes no locks at all.
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
        let mut cost = GcCost::new(self.num_nodes);
        cost.charge_cpu(COLLECTION_FIXED_NS);
        let node = heap.local(vproc).node();
        let mut copied_bytes = 0u64;
        let mut worklist: Vec<Addr> = Vec::new();

        heap.local_mut(vproc).begin_minor();

        for root in roots.iter_mut() {
            if root.is_null() {
                continue;
            }
            *root = self.forward_minor(
                heap,
                vproc,
                *root,
                &mut worklist,
                &mut copied_bytes,
                &mut cost,
            );
        }

        while let Some(obj) = worklist.pop() {
            let header = heap.header_of(obj);
            cost.charge_scan(node, header.total_bytes());
            forward_fields(heap, obj, header, |heap, ptr| {
                self.forward_minor(
                    heap,
                    vproc,
                    ptr,
                    &mut worklist,
                    &mut copied_bytes,
                    &mut cost,
                )
            });
        }

        heap.local_mut(vproc).finish_minor();

        let stats = &mut self.per_vproc[vproc];
        stats.minor_collections += 1;
        stats.minor_copied_bytes += copied_bytes;
        stats.minor_roots_visited += roots.len() as u64;

        let local = heap.local(vproc);
        let nursery_fraction = local.nursery_size_words() as f64 / local.size_words() as f64;
        let triggered_major = nursery_fraction < self.config.nursery_threshold_fraction;
        let needs_global = self.needs_global(heap);

        let outcome = GcOutcome {
            kind: CollectionKind::Minor,
            cost,
            copied_bytes,
            promoted_bytes: 0,
            promoted_bytes_by_node: Vec::new(),
            triggered_major,
            needs_global,
        };
        self.maybe_verify(heap);
        outcome
    }

    /// Forwards one pointer for a minor collection: nursery objects are
    /// copied to the old area, everything else is left in place (following
    /// any forwarding pointer installed by an earlier promotion).
    fn forward_minor<H: GcHeap>(
        &mut self,
        heap: &mut H,
        vproc: usize,
        ptr: Addr,
        worklist: &mut Vec<Addr>,
        copied_bytes: &mut u64,
        cost: &mut GcCost,
    ) -> Addr {
        match heap.space_of(ptr) {
            Space::LocalNursery { vproc: v } if v == vproc => {
                if let Some(forwarded) = heap.forwarded_to(ptr) {
                    return forwarded;
                }
                let node = heap.local(vproc).node();
                let (new, bytes) = heap
                    .evacuate(ptr, EvacTarget::OldArea { vproc })
                    .expect("the Appel reserve always has room for minor-collection survivors");
                *copied_bytes += bytes as u64;
                cost.charge_copy(node, node, bytes);
                worklist.push(new);
                new
            }
            Space::LocalYoung { vproc: v } | Space::LocalOld { vproc: v } if v == vproc => {
                // An object promoted earlier leaves a forwarding pointer
                // behind; redirect the reference so the stale copy dies.
                heap.forwarded_to(ptr).unwrap_or(ptr)
            }
            _ => ptr,
        }
    }

    /// Forwards one pointer towards the global heap, used by major
    /// collections and promotions. `include_young` selects whether young
    /// data is promoted too (a major collection keeps it local, §3.3; the
    /// promotion path copies it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_to_global<H: GcHeap>(
        &mut self,
        heap: &mut H,
        vproc: usize,
        ptr: Addr,
        include_young: bool,
        worklist: &mut Vec<Addr>,
        tally: &mut PromotionTally,
        cost: &mut GcCost,
    ) -> Addr {
        let promote = match heap.space_of(ptr) {
            Space::LocalOld { vproc: v } | Space::LocalNursery { vproc: v } if v == vproc => true,
            Space::LocalYoung { vproc: v } if v == vproc => include_young,
            _ => false,
        };
        if !promote {
            if heap.is_local(ptr) {
                return heap.forwarded_to(ptr).unwrap_or(ptr);
            }
            return ptr;
        }
        if let Some(forwarded) = heap.forwarded_to(ptr) {
            return forwarded;
        }
        let src_node = heap.local(vproc).node();
        let acquisitions_before = heap.chunk_acquisitions();
        let (new, bytes) = heap
            .evacuate(ptr, EvacTarget::GlobalCurrent { vproc })
            .expect("global-heap allocation for promotion cannot fail");
        if heap.chunk_acquisitions() > acquisitions_before {
            // Acquiring a chunk is the synchronisation point of §3.3.
            cost.charge_cpu(CHUNK_ACQUIRE_NS);
        }
        let dst_node = heap.node_of(new);
        cost.charge_copy(src_node, dst_node, bytes);
        tally.add(dst_node, bytes as u64);
        worklist.push(new);
        new
    }

    pub(crate) fn maybe_verify<H: GcHeap>(&self, heap: &H) {
        if self.config.verify_after_gc {
            let violations: Vec<String> = heap
                .verify_violations()
                .iter()
                .map(ToString::to_string)
                .collect();
            assert!(
                violations.is_empty(),
                "heap invariant violated after collection: {}",
                violations.join("; ")
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mgc_heap::{
        DescriptorTable, Heap, HeapConfig, SharedGlobalHeap, Space, ThreadedLayout, WorkerHeap,
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

        let before_used = heap.local(0).nursery_used_words();
        assert!(before_used > 0);
        let outcome = collector.minor(&mut heap, 0, &mut roots);

        assert_eq!(outcome.kind, CollectionKind::Minor);
        // Survivors: the holder (2 words) + the live object (3 words).
        assert_eq!(outcome.copied_bytes, (2 + 3) * 8);
        let new_holder = roots[0];
        assert_eq!(heap.space_of(new_holder), Space::LocalYoung { vproc: 0 });
        let new_live = Addr::new(heap.read_field(new_holder, 0));
        assert_eq!(heap.payload(new_live), vec![1, 2]);
        assert_eq!(heap.space_of(new_live), Space::LocalYoung { vproc: 0 });
        // Nursery is empty again.
        assert_eq!(heap.local(0).nursery_used_words(), 0);
        assert_eq!(collector.vproc_stats(0).minor_collections, 1);
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
        assert_eq!(w0.space_of(roots[0]), Space::LocalYoung { vproc: 0 });
        w0.write_field(roots[0], 0, foreign.raw());
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
