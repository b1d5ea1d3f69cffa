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

use crate::collector::{forward_fields, header_at, Collector, GcOutcome, Scan};
use crate::cost::COLLECTION_FIXED_NS;
use crate::stats::CollectionKind;
use mgc_heap::{Addr, GcHeap, Header, Location, WORD_BYTES};
use std::sync::Arc;

impl Collector {
    /// Runs a major collection for `vproc`.
    ///
    /// The nursery must be empty — in the paper a major collection is always
    /// triggered at the end of a minor collection, so this holds by
    /// construction; [`Collector::collect_local`] preserves it.
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
        assert_eq!(
            heap.local(vproc).nursery_used_words(),
            0,
            "a major collection must be preceded by a minor collection"
        );
        let local_node = heap.local(vproc).node();
        let mut young = std::mem::take(&mut self.young);
        let mut scan = Scan::new(self, heap, vproc, COLLECTION_FIXED_NS);
        // The young data is exempt (§3.3); only promotion copies it.
        let include_young = false;

        // --- Phase 1: evacuate old data reachable from the roots. ---------
        for root in roots.iter_mut().filter(|root| !root.is_null()) {
            *root = scan.forward_to_global(heap, *root, include_young);
        }

        // --- Phase 2: the young data acts as an additional root set. ------
        // Young objects may point to old objects; those old objects must be
        // promoted and the young fields redirected.
        young.extend(heap.local(vproc).young_objects());
        for &(obj, header) in &young {
            let offset = heap.local(vproc).offset_of(obj);
            scan.charge(|cost| cost.charge_scan(local_node, header.total_bytes()));
            forward_fields(
                heap,
                Location::Local { vproc, offset },
                header,
                |heap, ptr| scan.forward_to_global(heap, ptr, include_young),
            );
        }

        // --- Phase 3: Cheney drain of the freshly promoted objects. -------
        scan.drain_to_global(heap, include_young);

        // --- Phase 4: slide the young data to the bottom (Figure 3). ------
        let young_bytes = scan.slide_young(heap, roots, &young);
        let (promoted_bytes, promoted_bytes_by_node) = scan.tally.take();
        let cost = scan.cost;
        young.clear();
        self.young = young;

        heap.local_mut(vproc).finish_major();

        let stats = self.vproc_stats_mut(vproc);
        stats.major_collections += 1;
        stats.major_promoted_bytes += promoted_bytes;

        let needs_global = self.needs_global(heap);
        let outcome = GcOutcome {
            kind: CollectionKind::Major,
            cost: cost.unwrap_or_default(),
            copied_bytes: young_bytes,
            promoted_bytes,
            promoted_bytes_by_node,
            triggered_major: false,
            needs_global,
        };
        self.maybe_verify(heap);
        outcome
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
        let mut scan = Scan::new(self, heap, vproc, 0.0);
        let new = if obj.is_null() {
            obj
        } else {
            scan.forward_to_global(heap, obj, true)
        };
        scan.drain_to_global(heap, true);
        let (promoted_bytes, promoted_bytes_by_node) = scan.tally.take();
        let cost = scan.cost;

        let stats = self.vproc_stats_mut(vproc);
        stats.promotions += 1;
        stats.promotion_bytes += promoted_bytes;

        let outcome = GcOutcome {
            kind: CollectionKind::Promotion,
            cost: cost.unwrap_or_default(),
            copied_bytes: 0,
            promoted_bytes,
            promoted_bytes_by_node,
            triggered_major: false,
            needs_global: self.needs_global(heap),
        };
        self.maybe_verify(heap);
        (new, outcome)
    }
}

impl Scan<'_> {
    /// Cheney-scans the freshly promoted global objects on the worklist,
    /// promoting whatever local objects they still point to, and tallies
    /// each one's bytes on its node.
    fn drain_to_global<H: GcHeap>(&mut self, heap: &mut H, include_young: bool) {
        if self.worklist.is_empty() {
            return;
        }
        // The objects are located in this handle, not through `heap`, so
        // their locations outlive the mutable uses of `heap` that scanning
        // makes.
        let global = Arc::clone(heap.global());
        while let Some(obj) = self.worklist.pop() {
            let found = heap.resolve(&global, obj, false);
            let header = header_at(heap, found.location);
            let bytes = header.total_bytes();
            self.tally.add(found.node, bytes as u64);
            self.charge(|cost| cost.charge_scan(found.node, bytes));
            forward_fields(heap, found.location, header, |heap, ptr| {
                self.forward_to_global(heap, ptr, include_young)
            });
        }
    }

    /// Slides the young data to the bottom of the local heap and relocates
    /// every pointer into the moved range: the roots, and the fields of the
    /// moved objects, which are `young` as listed before the slide. Returns
    /// the number of young bytes moved.
    fn slide_young<H: GcHeap>(
        &mut self,
        heap: &mut H,
        roots: &mut [Addr],
        young: &[(Addr, Header)],
    ) -> u64 {
        let vproc = self.vproc;
        let local = heap.local(vproc);
        let local_node = local.node();
        let base = local.base();
        let young_lo = base.add_words(local.young_start());
        let young_hi = base.add_words(local.old_top());
        let young_bytes = ((local.old_top() - local.young_start()) * WORD_BYTES) as u64;

        let delta_words = heap.local_mut(vproc).slide_young_to_bottom();
        if delta_words == 0 {
            return young_bytes;
        }
        let delta_bytes = (delta_words * WORD_BYTES) as u64;
        let relocate = |addr: Addr| -> Addr {
            if addr >= young_lo && addr < young_hi {
                Addr::new(addr.raw() - delta_bytes)
            } else {
                addr
            }
        };

        for root in roots.iter_mut() {
            if !root.is_null() {
                *root = relocate(*root);
            }
        }

        for &(obj, header) in young {
            let at = Location::Local {
                vproc,
                offset: obj.words_from(base) - delta_words,
            };
            forward_fields(heap, at, header, |_, ptr| relocate(ptr));
        }

        self.charge(|cost| cost.charge_copy(local_node, local_node, young_bytes as usize));
        young_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use mgc_heap::{Heap, HeapConfig, Space};
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
        assert_eq!(heap.space_of(young_root), Space::LocalYoung { vproc: 0 });

        let mut roots = vec![young_root];
        let outcome = collector.major(&mut heap, 0, &mut roots);
        assert_eq!(outcome.kind, CollectionKind::Major);
        // The old object (2 words) was promoted.
        assert_eq!(outcome.promoted_bytes, 2 * 8);

        // The young vector stayed in the local heap (slid to the bottom).
        let young_now = roots[0];
        assert!(heap.is_local(young_now));
        assert_eq!(heap.local(0).young_start(), 0);
        // Its field now points at the global copy of the old object.
        let promoted = Addr::new(heap.read_field(young_now, 0));
        assert!(heap.is_global(promoted));
        assert_eq!(heap.payload(promoted), vec![111]);
        assert_eq!(collector.vproc_stats(0).major_collections, 1);
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
        let occupied_before = heap.local(0).occupied_words();
        assert!(occupied_before > 0);

        // Major with no roots: nothing is promoted, the local heap empties.
        let mut no_roots: Vec<Addr> = Vec::new();
        let outcome = collector.major(&mut heap, 0, &mut no_roots);
        assert_eq!(outcome.promoted_bytes, 0);
        assert_eq!(heap.local(0).occupied_words(), 0);
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
        assert_eq!(heap.payload(f0), vec![7, 8]);
        // The local originals forward to the copies.
        assert_eq!(heap.forwarded_to(root_obj), Some(promoted));
        assert_eq!(heap.forwarded_to(leaf), Some(f0));
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
        assert_eq!(heap.payload(promoted), vec![99, 100]);
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
