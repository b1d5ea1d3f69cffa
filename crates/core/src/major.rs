//! Major collections and object promotion (paper §3.3, Figure 3).
//!
//! A major collection copies the live objects of the *old* portion of a
//! vproc's local heap into the vproc's current global-heap chunk. The
//! *young* data — whatever the immediately preceding minor collection just
//! copied — is known to be live and is deliberately **not** promoted (this is
//! how the design avoids premature promotion); instead it is slid down to
//! the bottom of the local heap once the old data has been evacuated.
//!
//! Promotion is "a major collection where the root set is a pointer to the
//! promoted object": the object graph reachable from one object is copied to
//! the global heap so it can be shared with other vprocs (work stealing or
//! CML message passing requires this because of the no-cross-heap-pointer
//! invariants).

use crate::collector::{for_each_young, forward_fields, Collector, GcOutcome, Scan};
use crate::cost::{GcCost, COLLECTION_FIXED_NS};
use crate::stats::CollectionKind;
use mgc_heap::{Addr, GcHeap, HeaderSlot, Location, WorkerHeap};
use std::ops::Range;
use std::sync::Arc;

impl Collector {
    /// Runs a major collection for `vproc`.
    ///
    /// The nursery must be empty — in the paper a major collection is always
    /// triggered at the end of a minor collection, so this holds by
    /// construction; [`Collector::collect_local`] preserves it. A root into
    /// another vproc's local heap whose object was promoted is redirected to
    /// the copy first ([`GcHeap::redirect_foreign_roots`]); the collection
    /// itself leaves every pointer outside `vproc`'s local heap alone.
    ///
    /// # Panics
    ///
    /// Panics if the vproc's nursery still contains objects.
    pub fn major<H: GcHeap>(
        &mut self,
        heap: &mut H,
        vproc: usize,
        roots: &mut [Addr],
    ) -> GcOutcome {
        heap.redirect_foreign_roots(vproc, roots);
        let worker = heap.worker_mut(vproc);
        let mut cost = self.cost_for(worker, COLLECTION_FIXED_NS);
        let mut outcome = self.major_on(worker, roots, cost.as_mut());
        outcome.cost = cost.unwrap_or_default();
        self.maybe_verify(|| heap.verify_violations());
        outcome
    }

    /// The body of [`Collector::major`], on the collecting vproc's worker.
    fn major_on(
        &mut self,
        worker: &mut WorkerHeap,
        roots: &mut [Addr],
        cost: Option<&mut GcCost>,
    ) -> GcOutcome {
        let mut scan = Scan::new(self, cost);
        let local = worker.local();
        assert_eq!(
            local.nursery_used_words(),
            0,
            "a major collection must be preceded by a minor collection"
        );
        let local_node = local.node();
        // The young data is exempt (§3.3); only promotion copies it. It
        // slides down by `slide` bytes, to the bottom of the local heap.
        let young = local.addr_of(local.young_start())..local.addr_of(local.old_top());
        let slide = young.start.raw() - local.base().raw();

        // --- Phase 1: evacuate old data reachable from the roots. ---------
        for root in roots.iter_mut().filter(|root| !root.is_null()) {
            *root = scan.forward_to_global(worker, *root, false);
        }

        // --- Phase 2: the young data acts as an additional root set. ------
        scan.walk_young(worker, &young, slide);

        // --- Phase 3: Cheney drain of the freshly promoted objects. -------
        scan.drain_to_global(worker, false);

        // --- Phase 4: slide the young data to the bottom (Figure 3). ------
        // Its fields already point where the slide puts their objects.
        let young_bytes = young.end.raw() - young.start.raw();
        if slide > 0 {
            worker.local_mut().slide_young_to_bottom();
            for root in roots.iter_mut().filter(|root| young.contains(root)) {
                *root = Addr::new(root.raw() - slide);
            }
            scan.charge(|cost| cost.charge_copy(local_node, local_node, young_bytes as usize));
        }
        let (promoted_bytes, promoted_bytes_by_node) = scan.tally.take();

        worker.local_mut().finish_major();

        let stats = self.vproc_stats_mut(worker.vproc());
        stats.major_collections += 1;
        stats.major_promoted_bytes += promoted_bytes;

        GcOutcome {
            kind: CollectionKind::Major,
            cost: GcCost::default(),
            copied_bytes: young_bytes,
            promoted_bytes,
            promoted_bytes_by_node,
            triggered_major: false,
            needs_global: self.needs_global(worker.global()),
        }
    }

    /// Promotes the object graph rooted at `obj` to the global heap and
    /// returns the new (global) address of `obj`.
    ///
    /// Every local object reachable from `obj` — nursery, young, or old — is
    /// copied; forwarding pointers are left behind so later collections and
    /// other references converge on the global copy. Objects already in the
    /// global heap are left untouched.
    pub fn promote<H: GcHeap>(
        &mut self,
        heap: &mut H,
        vproc: usize,
        obj: Addr,
    ) -> (Addr, GcOutcome) {
        let worker = heap.worker_mut(vproc);
        let mut cost = self.cost_for(worker, 0.0);
        let (new, mut outcome) = self.promote_on(worker, obj, cost.as_mut());
        outcome.cost = cost.unwrap_or_default();
        self.maybe_verify(|| heap.verify_violations());
        (new, outcome)
    }

    /// The body of [`Collector::promote`], on the promoting vproc's worker.
    fn promote_on(
        &mut self,
        worker: &mut WorkerHeap,
        obj: Addr,
        cost: Option<&mut GcCost>,
    ) -> (Addr, GcOutcome) {
        let mut scan = Scan::new(self, cost);
        let new = if obj.is_null() {
            obj
        } else {
            scan.forward_to_global(worker, obj, true)
        };
        scan.drain_to_global(worker, true);
        let (promoted_bytes, promoted_bytes_by_node) = scan.tally.take();

        let stats = self.vproc_stats_mut(worker.vproc());
        stats.promotions += 1;
        stats.promotion_bytes += promoted_bytes;

        let outcome = GcOutcome {
            kind: CollectionKind::Promotion,
            cost: GcCost::default(),
            copied_bytes: 0,
            promoted_bytes,
            promoted_bytes_by_node,
            triggered_major: false,
            needs_global: self.needs_global(worker.global()),
        };
        (new, outcome)
    }
}

impl Scan<'_> {
    /// Phase 2 of a major collection: one walk of the `young` data in
    /// address order, scanning each object's fields. Old and global objects
    /// never point at younger data (§2.3), so only the roots and these
    /// fields point into the young area. A field into it is rewritten to
    /// where the slide will put its object, `slide` bytes lower (or to the
    /// global copy an earlier promotion left); any other field is forwarded
    /// to the global heap.
    fn walk_young(&mut self, worker: &mut WorkerHeap, young: &Range<Addr>, slide: u64) {
        let vproc = worker.vproc();
        let (base, node) = (worker.local().base(), worker.local().node());
        for_each_young(worker, |worker, offset, header| {
            self.charge(|cost| cost.charge_scan(node, header.total_bytes()));
            let at = Location::Local(vproc, offset);
            forward_fields(worker, at, header, |worker, ptr| {
                if !young.contains(&ptr) {
                    return self.forward_to_global(worker, ptr, false);
                }
                let slot = worker.local().read(ptr.words_from(base) - 1);
                match HeaderSlot::decode(slot) {
                    HeaderSlot::Forwarded(new) => new,
                    HeaderSlot::Header(_) => Addr::new(ptr.raw() - slide),
                }
            });
        });
    }

    /// Cheney-scans the freshly promoted global objects, each where
    /// `evacuate` put it, promoting whatever local objects they still point
    /// to, and tallies each one's bytes on its node.
    fn drain_to_global(&mut self, worker: &mut WorkerHeap, include_young: bool) {
        if self.promoted.is_empty() {
            return;
        }
        // The chunks are borrowed from this handle, not from `worker`, so
        // they outlive the mutable uses of `worker` that scanning makes.
        let global = Arc::clone(worker.global());
        while let Some((id, obj)) = self.promoted.pop() {
            let chunk = global.chunk(id);
            let at = Location::Global(chunk, obj.words_from(chunk.base()));
            let header = at.map_local(|_| worker.local().words()).header();
            let bytes = header.total_bytes();
            self.tally.add(chunk.node(), bytes as u64);
            self.charge(|cost| cost.charge_scan(chunk.node(), bytes));
            forward_fields(worker, at, header, |worker, ptr| {
                self.forward_to_global(worker, ptr, include_young)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::stats::GcStats;
    use mgc_heap::{
        Descriptor, DescriptorId, DescriptorTable, Heap, HeapConfig, LocalRegion, SharedGlobalHeap,
        ThreadedLayout, Word, WorkerHeap,
    };
    use mgc_numa::NodeId;

    fn setup() -> (Heap, Collector) {
        let heap = Heap::new(
            HeapConfig::small_for_tests(),
            &[NodeId::new(0), NodeId::new(1)],
            2,
        );
        let collector = Collector::new(GcConfig::small_for_tests(), 2, 2);
        (heap, collector)
    }

    /// Builds a two-generation local heap: `old_val` lives in the old area,
    /// `young_val` in the young area, with the young object pointing at the
    /// old one. Returns (young_root, old_payload_value).
    fn build_generations(heap: &mut Heap, collector: &mut Collector) -> Addr {
        // First minor: old_obj becomes young.
        let old_obj = heap.alloc_raw(0, &[111]).unwrap();
        let mut roots = vec![old_obj];
        collector.minor(heap, 0, &mut roots);
        let old_obj = roots[0];
        // Second minor: a vector referencing old_obj becomes young; old_obj
        // ages into the old area.
        let young_obj = heap.alloc_vector(0, &[old_obj.raw()]).unwrap();
        let mut roots = vec![young_obj];
        collector.minor(heap, 0, &mut roots);
        roots[0]
    }

    #[test]
    fn major_promotes_old_data_and_keeps_young_local() {
        let (mut heap, mut collector) = setup();
        let young_root = build_generations(&mut heap, &mut collector);
        let region = heap.worker(0).find(young_root).map(|(region, ..)| region);
        assert_eq!(region, Some(LocalRegion::Young));

        let mut roots = vec![young_root];
        let outcome = collector.major(&mut heap, 0, &mut roots);
        assert_eq!(outcome.kind, CollectionKind::Major);
        // The old object (2 words) was promoted.
        assert_eq!(outcome.promoted_bytes, 2 * 8);

        // The young vector stayed in the local heap (slid to the bottom).
        let young_now = roots[0];
        assert!(heap.is_local(young_now));
        assert_eq!(heap.worker(0).local().young_start(), 0);
        // Its field now points at the global copy of the old object.
        let promoted = Addr::new(heap.read_field(young_now, 0));
        assert!(heap.is_global(promoted));
        assert_eq!(heap.locate(promoted).payload(), vec![111]);
        assert_eq!(collector.vproc_stats(0).major_collections, 1);
    }

    /// A five-word node whose pointer fields, 0, 2 and 4, are not
    /// contiguous.
    fn sparse() -> Descriptor {
        Descriptor::new("sparse", 5, 0b10101)
    }

    /// Vproc 0's allocation of a [`sparse`] node on either heap.
    trait Sparse: GcHeap {
        fn node(&mut self, id: DescriptorId, payload: [Word; 5]) -> Addr;
    }

    impl Sparse for Heap {
        fn node(&mut self, id: DescriptorId, payload: [Word; 5]) -> Addr {
            self.worker_mut(0).alloc_mixed(id, &payload).unwrap()
        }
    }

    impl Sparse for WorkerHeap {
        fn node(&mut self, id: DescriptorId, payload: [Word; 5]) -> Addr {
            self.alloc_mixed(id, &payload).unwrap()
        }
    }

    /// The graph below `obj` as its words: each node's raw words, then
    /// the graph below each pointer field in field order (a null as 0).
    fn graph<H: GcHeap>(heap: &H, obj: Addr, out: &mut Vec<Word>) {
        for index in 0..5 {
            let word = heap.read_field(obj, index);
            match (index % 2, word) {
                (0, 0) => out.push(0),
                (0, ptr) => graph(heap, Addr::new(ptr), out),
                _ => out.push(word),
            }
        }
    }

    /// One major collection after which the young data's fields into the
    /// young area point at the slid copies, its field into the old area at
    /// the global copy, the root into the young area is relocated, and the
    /// raw words between the pointer fields are untouched — one of them
    /// holds an old object's address, which a scan of every word would
    /// have rewritten.
    fn major_walks_the_young_data_once<H: Sparse>(heap: &mut H, id: DescriptorId) {
        let mut collector = Collector::new(GcConfig::small_for_tests(), 2, 2);
        let null = Addr::NULL.raw();
        let leaf = heap.node(id, [null, 11, null, 12, null]);
        let old = heap.node(id, [leaf.raw(), 13, null, 14, null]);
        let mut roots = vec![old];
        collector.minor(heap, 0, &mut roots);
        let old = roots[0];
        let leaf = heap.node(id, [null, 21, null, 22, null]);
        let young = heap.node(id, [leaf.raw(), old.raw(), old.raw(), 23, leaf.raw()]);
        let mut roots = vec![young, Addr::NULL];
        collector.minor(heap, 0, &mut roots);
        let (young, leaf) = (roots[0], Addr::new(heap.read_field(roots[0], 0)));
        let slide = (heap.worker_mut(0).local().young_start() * mgc_heap::WORD_BYTES) as u64;
        assert!(slide > 0, "the old data lies below the young data");
        let mut before = Vec::new();
        graph(heap, young, &mut before);

        collector.major(heap, 0, &mut roots);
        assert_eq!(roots, [Addr::new(young.raw() - slide), Addr::NULL]);
        let field = |index| Addr::new(heap.read_field(roots[0], index));
        let slid_leaf = Addr::new(leaf.raw() - slide);
        assert_eq!((field(0), field(4)), (slid_leaf, slid_leaf));
        assert!(heap.is_global(field(2)));
        assert_eq!(field(1), old, "a raw word is never scanned");
        let mut after = Vec::new();
        graph(heap, roots[0], &mut after);
        assert_eq!(after, before);
        assert!(heap.verify_violations().is_empty());
    }

    #[test]
    fn major_walks_the_young_data_once_on_both_heaps() {
        let (mut heap, _) = setup();
        let id = heap.register_descriptor(sparse());
        major_walks_the_young_data_once(&mut heap, id);

        let layout = ThreadedLayout::new(&HeapConfig::small_for_tests(), 2, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        let mut table = DescriptorTable::new();
        let id = table.register(sparse());
        let mut worker = WorkerHeap::new(0, layout, NodeId::new(0), global, Arc::new(table));
        major_walks_the_young_data_once(&mut worker, id);
    }

    #[test]
    fn major_redirects_a_young_field_to_an_object_promoted_since_the_minor() {
        let (mut heap, mut collector) = setup();
        // Garbage in the old area, so the slide moves the young data.
        let mut roots = vec![heap.alloc_raw(0, &[1]).unwrap()];
        collector.minor(&mut heap, 0, &mut roots);
        let leaf = heap.alloc_raw(0, &[2]).unwrap();
        let mut roots = vec![heap.alloc_vector(0, &[leaf.raw()]).unwrap()];
        collector.minor(&mut heap, 0, &mut roots);
        assert!(heap.worker(0).local().young_start() > 0);
        // The leaf is young data, promoted after the minor (a steal).
        let leaf = Addr::new(heap.read_field(roots[0], 0));
        let (global_leaf, _) = collector.promote(&mut heap, 0, leaf);
        collector.major(&mut heap, 0, &mut roots);
        assert_eq!(Addr::new(heap.read_field(roots[0], 0)), global_leaf);
        assert_eq!(heap.locate(global_leaf).payload(), vec![2]);
    }

    /// Vproc 1 allocates two objects and promotes the second, leaving a
    /// forward in its local heap; vproc 0 allocates one. Returns vproc 0's
    /// root set — its own object next to both of vproc 1's — and the
    /// promoted object's global copy.
    fn foreign_roots(heap: &mut Heap, collector: &mut Collector) -> (Vec<Addr>, Addr) {
        let kept = heap.alloc_raw(1, &[1]).unwrap();
        let promoted = heap.alloc_raw(1, &[2]).unwrap();
        let (copy, _) = collector.promote(heap, 1, promoted);
        let own = heap.alloc_raw(0, &[3]).unwrap();
        (vec![own, promoted, kept], copy)
    }

    /// The simulated backend's shared roots (join slots, continuations,
    /// channel queues, proxies) reach every vproc's local collection, so a
    /// root may lie in another vproc's local heap. Only the major phase
    /// redirects one whose object was promoted; the minor phase leaves it.
    #[test]
    fn a_simulated_major_redirects_promoted_foreign_roots() {
        let (mut heap, mut collector) = setup();
        let (mut roots, copy) = foreign_roots(&mut heap, &mut collector);
        let foreign = roots[1..].to_vec();
        collector.minor(&mut heap, 0, &mut roots);
        assert_eq!(roots[1..], foreign, "a minor leaves foreign roots alone");
        collector.major(&mut heap, 0, &mut roots);
        assert_eq!(roots[1..], [copy, foreign[1]]);
        let major_roots = roots;

        // `collect_local` with a major phase due does the same.
        let (mut heap, mut collector) = setup();
        let (mut roots, _) = foreign_roots(&mut heap, &mut collector);
        collector.request_global();
        let outcome = collector.collect_local(&mut heap, 0, &mut roots);
        assert!(outcome.triggered_major);
        assert_eq!(roots, major_roots);
    }

    #[test]
    fn each_collection_checks_that_a_worker_heap_serves_its_vproc() {
        let (mut workers, _) = crate::collector::tests::two_workers();
        let mut collector = Collector::new(GcConfig::small_for_tests(), 2, 2);
        let w0 = &mut workers[0];
        let obj = w0.alloc_raw(&[1]).unwrap();
        let message = |run: &mut dyn FnMut()| {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let expected = "a worker heap only serves its own vproc";
        assert!(message(&mut || {
            collector.minor(w0, 1, &mut []);
        })
        .contains(expected));
        assert!(message(&mut || {
            collector.major(w0, 1, &mut []);
        })
        .contains(expected));
        assert!(message(&mut || {
            collector.promote(w0, 1, obj);
        })
        .contains(expected));
        // Nothing was collected or moved.
        assert_eq!(w0.locate(obj).header_slot().forwarded_to(), None);
        assert_eq!(collector.aggregate_stats(), GcStats::new());
    }

    #[test]
    fn major_drops_unreachable_old_data() {
        let (mut heap, mut collector) = setup();
        // Create garbage in the old area: allocate, keep across one minor,
        // then drop the root.
        let garbage = heap.alloc_raw(0, &[42; 8]).unwrap();
        let mut roots = vec![garbage];
        collector.minor(&mut heap, 0, &mut roots);
        collector.minor(&mut heap, 0, &mut roots); // ages to old
        let occupied_before = heap.worker(0).local().occupied_words();
        assert!(occupied_before > 0);

        // Major with no roots: nothing is promoted, the local heap empties.
        let mut no_roots: Vec<Addr> = Vec::new();
        let outcome = collector.major(&mut heap, 0, &mut no_roots);
        assert_eq!(outcome.promoted_bytes, 0);
        assert_eq!(heap.worker(0).local().occupied_words(), 0);
    }

    #[test]
    fn promotion_copies_graph_and_installs_forwards() {
        let (mut heap, mut collector) = setup();
        let leaf = heap.alloc_raw(0, &[7, 8]).unwrap();
        let root_obj = heap.alloc_vector(0, &[leaf.raw(), leaf.raw()]).unwrap();

        let (promoted, outcome) = collector.promote(&mut heap, 0, root_obj);
        assert_eq!(outcome.kind, CollectionKind::Promotion);
        assert!(heap.is_global(promoted));
        // Both objects were copied exactly once (sharing preserved).
        assert_eq!(outcome.promoted_bytes, (3 + 3) * 8);
        let f0 = Addr::new(heap.read_field(promoted, 0));
        let f1 = Addr::new(heap.read_field(promoted, 1));
        assert_eq!(f0, f1);
        assert!(heap.is_global(f0));
        assert_eq!(heap.locate(f0).payload(), vec![7, 8]);
        // The local originals forward to the copies.
        assert_eq!(
            heap.locate(root_obj).header_slot().forwarded_to(),
            Some(promoted)
        );
        assert_eq!(heap.locate(leaf).header_slot().forwarded_to(), Some(f0));
        assert_eq!(collector.vproc_stats(0).promotions, 1);
    }

    #[test]
    fn promotion_of_global_object_is_a_noop() {
        let (mut heap, mut collector) = setup();
        let local_obj = heap.alloc_raw(0, &[1]).unwrap();
        let (global_obj, _) = collector.promote(&mut heap, 0, local_obj);
        let (again, outcome) = collector.promote(&mut heap, 0, global_obj);
        assert_eq!(again, global_obj);
        assert_eq!(outcome.promoted_bytes, 0);
    }

    #[test]
    fn promotion_of_null_is_a_noop() {
        let (mut heap, mut collector) = setup();
        let (res, outcome) = collector.promote(&mut heap, 0, Addr::NULL);
        assert!(res.is_null());
        assert_eq!(outcome.promoted_bytes, 0);
    }

    #[test]
    fn promoted_data_is_visible_to_other_vprocs_without_violations() {
        let (mut heap, mut collector) = setup();
        let message = heap.alloc_raw(0, &[99, 100]).unwrap();
        let (promoted, _) = collector.promote(&mut heap, 0, message);
        // VProc 1 stores the promoted pointer in its own heap — allowed,
        // because the target is global.
        heap.alloc_vector(1, &[promoted.raw()]).unwrap();
        assert!(mgc_heap::verify_heap(&heap).is_empty());
        assert_eq!(heap.locate(promoted).payload(), vec![99, 100]);
    }

    #[test]
    fn minor_after_promotion_redirects_stale_references() {
        let (mut heap, mut collector) = setup();
        let shared = heap.alloc_raw(0, &[5]).unwrap();
        let holder = heap.alloc_vector(0, &[shared.raw()]).unwrap();
        // Promote the shared object (e.g. it was sent over a channel).
        let (global_shared, _) = collector.promote(&mut heap, 0, shared);
        // A later minor collection must make the holder point at the global
        // copy rather than re-copying the stale nursery original.
        let mut roots = vec![holder];
        collector.minor(&mut heap, 0, &mut roots);
        let field = Addr::new(heap.read_field(roots[0], 0));
        assert_eq!(field, global_shared);
    }

    #[test]
    fn collect_local_runs_major_when_old_data_piles_up() {
        let (mut heap, mut collector) = setup();
        // `keepers` stay live for the whole run (they age into the old area
        // and get promoted); the rolling window models ephemeral data.
        let mut keepers: Vec<Addr> = Vec::new();
        let mut window: Vec<Addr> = Vec::new();
        let mut majors = 0;
        for i in 0..2000u64 {
            match heap.alloc_raw(0, &[i; 8]) {
                Ok(obj) => {
                    if i % 40 == 0 && keepers.len() < 16 {
                        keepers.push(obj);
                    } else {
                        window.push(obj);
                        if window.len() > 8 {
                            window.remove(0);
                        }
                    }
                }
                Err(_) => {
                    let mut roots: Vec<Addr> =
                        keepers.iter().chain(window.iter()).copied().collect();
                    let outcome = collector.collect_local(&mut heap, 0, &mut roots);
                    if outcome.triggered_major {
                        majors += 1;
                    }
                    let (new_keepers, new_window) = roots.split_at(keepers.len());
                    keepers = new_keepers.to_vec();
                    window = new_window.to_vec();
                }
            }
        }
        assert!(
            majors > 0,
            "sustained allocation must trigger major collections"
        );
        assert!(collector.vproc_stats(0).major_promoted_bytes > 0);
        assert!(mgc_heap::verify_heap(&heap).is_empty());
    }

    #[test]
    #[should_panic(expected = "preceded by a minor collection")]
    fn major_requires_empty_nursery() {
        let (mut heap, mut collector) = setup();
        heap.alloc_raw(0, &[1]).unwrap();
        let mut roots: Vec<Addr> = Vec::new();
        collector.major(&mut heap, 0, &mut roots);
    }
}
