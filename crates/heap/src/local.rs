//! Per-vproc local heaps with Appel's semi-generational layout
//! (paper §3.1, §3.3, Figures 2 and 3).
//!
//! A local heap is a fixed-size region sized to fit in the node's L3 cache.
//! It is divided into:
//!
//! ```text
//!   0            young_start      old_top        nursery_start        size
//!   +----------------+----------------+---------------+----------------+
//!   |   old data     |   young data   |   (reserve)   |    nursery     |
//!   +----------------+----------------+---------------+----------------+
//! ```
//!
//! * New objects are bump-allocated in the **nursery**.
//! * A **minor** collection copies live nursery objects to the end of the
//!   old-data area (they become the *young data*), then the remaining free
//!   space is split in half and the upper half becomes the new nursery
//!   (Figure 2). The lower half is the reserve that guarantees the next
//!   minor collection always has room for survivors.
//! * A **major** collection copies the live *old* data (everything below
//!   `young_start`) to the global heap and then slides the young data down
//!   to the bottom of the local heap (Figure 3).
//!
//! Because the language is mutation-free, objects only ever point to older
//! objects, so no remembered sets or write barriers are needed; the only
//! pointers into the nursery are the vproc's own roots.

use crate::addr::{Addr, Word, WORD_BYTES};
use crate::error::HeapError;
use crate::header::Header;
use mgc_numa::NodeId;

/// Which part of a local heap an address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalRegion {
    /// The old-data area `[0, young_start)` — candidates for promotion at
    /// the next major collection.
    Old,
    /// The young-data area `[young_start, old_top)` — data copied by the
    /// most recent minor collection; exempt from the next major collection.
    Young,
    /// The reserve gap between the old-data area and the nursery.
    Reserve,
    /// The allocated part of the nursery.
    Nursery,
    /// Unallocated nursery space.
    NurseryFree,
}

/// Statistics maintained by a local heap across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalHeapStats {
    /// Total words ever allocated in the nursery.
    pub nursery_allocated_words: u64,
    /// Number of objects ever allocated in the nursery.
    pub nursery_allocated_objects: u64,
}

/// A per-vproc local heap.
#[derive(Debug, Clone)]
pub struct LocalHeap {
    vproc: usize,
    node: NodeId,
    base: Addr,
    data: Vec<Word>,
    /// End of the old-data area (word offset).
    old_top: usize,
    /// Start of the young-data area (word offset); `young_start <= old_top`.
    young_start: usize,
    /// Start of the nursery (word offset).
    nursery_start: usize,
    /// Next free nursery word (word offset).
    nursery_alloc: usize,
    stats: LocalHeapStats,
}

impl LocalHeap {
    /// Creates a local heap of `size_words` words for vproc `vproc`, based at
    /// address `base`, physically backed by memory on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `size_words` is too small to be useful (< 64 words).
    pub fn new(vproc: usize, node: NodeId, base: Addr, size_words: usize) -> Self {
        assert!(
            size_words >= 64,
            "local heap of {size_words} words is too small"
        );
        let mut heap = LocalHeap {
            vproc,
            node,
            base,
            data: vec![0; size_words],
            old_top: 0,
            young_start: 0,
            nursery_start: 0,
            nursery_alloc: 0,
            stats: LocalHeapStats::default(),
        };
        heap.recompute_nursery();
        heap
    }

    /// The owning vproc's index.
    pub fn vproc(&self) -> usize {
        self.vproc
    }

    /// The NUMA node backing this heap's pages.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Base address of the heap.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Total size in words.
    pub fn size_words(&self) -> usize {
        self.data.len()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * WORD_BYTES
    }

    /// Lifetime allocation statistics.
    pub fn stats(&self) -> LocalHeapStats {
        self.stats
    }

    /// End of the old-data area, as a word offset.
    pub fn old_top(&self) -> usize {
        self.old_top
    }

    /// Start of the young-data area, as a word offset.
    pub fn young_start(&self) -> usize {
        self.young_start
    }

    /// Start of the nursery, as a word offset.
    pub fn nursery_start(&self) -> usize {
        self.nursery_start
    }

    /// Next free nursery slot, as a word offset.
    pub fn nursery_alloc(&self) -> usize {
        self.nursery_alloc
    }

    /// Words already allocated in the nursery.
    pub fn nursery_used_words(&self) -> usize {
        self.nursery_alloc - self.nursery_start
    }

    /// Words still free in the nursery.
    pub fn nursery_free_words(&self) -> usize {
        self.data.len() - self.nursery_alloc
    }

    /// Size of the current nursery in words.
    pub fn nursery_size_words(&self) -> usize {
        self.data.len() - self.nursery_start
    }

    /// Words of old plus young data.
    pub fn occupied_words(&self) -> usize {
        self.old_top
    }

    /// True if `addr` is inside this heap's address range.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base.add_words(self.data.len())
    }

    /// Word offset of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside this heap.
    #[inline]
    pub fn offset_of(&self, addr: Addr) -> usize {
        assert!(
            self.contains(addr),
            "{addr:?} is not inside vproc {}'s local heap",
            self.vproc
        );
        addr.words_from(self.base)
    }

    /// The address of word offset `offset`.
    pub fn addr_of(&self, offset: usize) -> Addr {
        self.base.add_words(offset)
    }

    /// Which region word offset `offset` falls in.
    pub fn region_of_offset(&self, offset: usize) -> LocalRegion {
        if offset < self.young_start {
            LocalRegion::Old
        } else if offset < self.old_top {
            LocalRegion::Young
        } else if offset < self.nursery_start {
            LocalRegion::Reserve
        } else if offset < self.nursery_alloc {
            LocalRegion::Nursery
        } else {
            LocalRegion::NurseryFree
        }
    }

    /// Which region `addr` falls in.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside this heap.
    pub fn region_of(&self, addr: Addr) -> LocalRegion {
        self.region_of_offset(self.offset_of(addr))
    }

    /// Reads the word at word offset `offset`.
    #[inline]
    pub fn read(&self, offset: usize) -> Word {
        self.data[offset]
    }

    /// Every word of the heap, indexed by word offset — what a reader that
    /// has already located an object indexes directly.
    #[inline]
    pub fn words(&self) -> &[Word] {
        &self.data
    }

    /// Writes the word at word offset `offset`.
    #[inline]
    pub fn write(&mut self, offset: usize, value: Word) {
        self.data[offset] = value;
    }

    /// The word offset the nursery ends at — the whole heap's size, whatever
    /// the collections have done to the nursery's start. It is the limit
    /// under which [`LocalHeap::bump`] allocates when nothing else asks.
    #[inline]
    pub fn nursery_end(&self) -> usize {
        self.data.len()
    }

    /// Bump-allocates an object in the nursery if it ends at or below word
    /// offset `limit`, returning its payload address; `None` leaves the heap
    /// untouched. With `limit` at [`LocalHeap::nursery_end`] this fails only
    /// when the nursery is full; a limit of 0 fails every call, which is how
    /// the threaded runtime makes the allocation test its safe point.
    #[inline]
    pub fn bump(&mut self, header: Word, payload: &[Word], limit: usize) -> Option<Addr> {
        assert!(
            !payload.is_empty(),
            "empty objects are not supported; allocate a one-word raw object instead"
        );
        let header_offset = self.nursery_alloc;
        let end = header_offset + 1 + payload.len();
        if end > limit {
            return None;
        }
        self.data[header_offset] = header;
        self.data[header_offset + 1..end].copy_from_slice(payload);
        self.nursery_alloc = end;
        self.stats.nursery_allocated_words += (end - header_offset) as u64;
        self.stats.nursery_allocated_objects += 1;
        Some(self.addr_of(header_offset + 1))
    }

    /// Bump-allocates an object in the nursery. Returns the payload address.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] if the nursery cannot hold the
    /// object; the caller should run a minor collection and retry.
    pub fn alloc(&mut self, header: Word, payload: &[Word]) -> Result<Addr, HeapError> {
        self.bump(header, payload, self.nursery_end())
            .ok_or_else(|| HeapError::NurseryFull {
                requested_words: payload.len() + 1,
                free_words: self.nursery_free_words(),
            })
    }

    /// Bump-allocates an object at the end of the old-data area. This is how
    /// a minor collection copies nursery survivors (they become young data).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OldAreaFull`] if the object would overrun the
    /// nursery; the Appel reserve normally prevents this.
    pub fn alloc_in_old(&mut self, header: Word, payload: &[Word]) -> Result<Addr, HeapError> {
        let header_offset = self.bump_old(payload.len() + 1)?;
        self.data[header_offset] = header;
        self.data[header_offset + 1..header_offset + 1 + payload.len()].copy_from_slice(payload);
        Ok(self.addr_of(header_offset + 1))
    }

    /// [`LocalHeap::alloc_in_old`] for an object already in this heap: its
    /// `total_words` words, from the header at word offset `header_offset`,
    /// are copied straight to the end of the old-data area.
    ///
    /// # Errors
    ///
    /// As [`LocalHeap::alloc_in_old`].
    pub fn copy_into_old(
        &mut self,
        header_offset: usize,
        total_words: usize,
    ) -> Result<Addr, HeapError> {
        let copy = self.bump_old(total_words)?;
        self.data
            .copy_within(header_offset..header_offset + total_words, copy);
        Ok(self.addr_of(copy + 1))
    }

    /// Claims `total_words` at the end of the old-data area, returning the
    /// word offset of the claimed header slot.
    fn bump_old(&mut self, total_words: usize) -> Result<usize, HeapError> {
        assert!(
            total_words > 1,
            "empty objects are not supported; allocate a one-word raw object instead"
        );
        if self.old_top + total_words > self.nursery_start {
            return Err(HeapError::OldAreaFull {
                requested_words: total_words,
            });
        }
        self.old_top += total_words;
        Ok(self.old_top - total_words)
    }

    /// Marks the start of a minor collection: everything currently in the
    /// old-data area ceases to be young; the survivors about to be copied in
    /// become the new young data.
    pub fn begin_minor(&mut self) {
        self.young_start = self.old_top;
    }

    /// Finishes a minor collection: discards the nursery contents and
    /// re-divides the free space, with the upper half becoming the new
    /// nursery (Figure 2).
    pub fn finish_minor(&mut self) {
        self.recompute_nursery();
    }

    /// Finishes a major collection. `new_old_top` is the end of the slid
    /// young data (see [`LocalHeap::slide_young_to_bottom`]); the free space
    /// above it is re-divided as after a minor collection.
    pub fn finish_major(&mut self) {
        self.recompute_nursery();
    }

    /// Slides the young-data area down to the bottom of the heap (Figure 3,
    /// the "Move" arrow), after the old-data area has been evacuated to the
    /// global heap. Returns the number of words the data moved, so the
    /// caller can relocate pointers into the young area.
    ///
    /// After the slide the young data occupies `[0, old_top)` and the
    /// young/old boundary is reset so the kept data remains exempt from
    /// promotion until the next minor collection redefines it.
    pub fn slide_young_to_bottom(&mut self) -> usize {
        let delta = self.young_start;
        if delta == 0 {
            return 0;
        }
        let len = self.old_top - self.young_start;
        self.data.copy_within(self.young_start..self.old_top, 0);
        // Make the vacated range fail fast if something still points there.
        for w in &mut self.data[len..self.old_top] {
            *w = 0;
        }
        self.old_top = len;
        self.young_start = 0;
        delta
    }

    /// Empties the entire local heap (used by tests and by vproc shutdown).
    pub fn clear(&mut self) {
        self.old_top = 0;
        self.young_start = 0;
        self.data.fill(0);
        self.recompute_nursery();
    }

    /// Iterates over the objects in `[from, to)` word offsets, in layout
    /// order, yielding `(payload_addr, header)`. The range must start at an
    /// object header.
    pub fn objects_in(&self, from: usize, to: usize) -> LocalObjects<'_> {
        LocalObjects {
            heap: self,
            offset: from,
            end: to,
        }
    }

    /// Iterates over all allocated nursery objects.
    pub fn nursery_objects(&self) -> LocalObjects<'_> {
        self.objects_in(self.nursery_start, self.nursery_alloc)
    }

    /// Iterates over the young-data objects.
    pub fn young_objects(&self) -> LocalObjects<'_> {
        self.objects_in(self.young_start, self.old_top)
    }

    /// Iterates over the old-data objects (excluding young data).
    pub fn old_objects(&self) -> LocalObjects<'_> {
        self.objects_in(0, self.young_start)
    }

    fn recompute_nursery(&mut self) {
        // The nursery gets the upper half of the free space. Rounding the
        // reserve *up* guarantees the reserve is never smaller than the
        // nursery, so a minor collection always has room for its survivors.
        let free = self.data.len() - self.old_top;
        self.nursery_start = self.old_top + free.div_ceil(2);
        self.nursery_alloc = self.nursery_start;
    }
}

/// Iterator over objects in a region of a local heap; see
/// [`LocalHeap::objects_in`].
#[derive(Debug)]
pub struct LocalObjects<'a> {
    heap: &'a LocalHeap,
    offset: usize,
    end: usize,
}

impl Iterator for LocalObjects<'_> {
    type Item = (Addr, Header);

    fn next(&mut self) -> Option<Self::Item> {
        while self.offset < self.end {
            let word = self.heap.data[self.offset];
            if let Some(header) = Header::decode(word) {
                let addr = self.heap.addr_of(self.offset + 1);
                self.offset += header.total_words();
                return Some((addr, header));
            }
            // Forwarded (dead) object: the evacuation saved the original
            // header in the first payload word so we can skip its footprint
            // without yielding it.
            let saved = Header::decode(self.heap.data[self.offset + 1])
                .expect("forwarded object is missing its saved header");
            self.offset += saved.total_words();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjectKind;

    fn heap() -> LocalHeap {
        LocalHeap::new(0, NodeId::new(1), Addr::new(1 << 22), 1024)
    }

    fn raw_header(len: u64) -> Word {
        Header::new(ObjectKind::Raw, len).encode()
    }

    #[test]
    fn fresh_heap_geometry() {
        let h = heap();
        assert_eq!(h.old_top(), 0);
        assert_eq!(h.young_start(), 0);
        assert_eq!(h.nursery_start(), 512);
        assert_eq!(h.nursery_size_words(), 512);
        assert_eq!(h.nursery_used_words(), 0);
        assert_eq!(h.size_bytes(), 1024 * 8);
    }

    #[test]
    fn nursery_allocation_bumps() {
        let mut h = heap();
        let a = h.alloc(raw_header(2), &[1, 2]).unwrap();
        let b = h.alloc(raw_header(1), &[3]).unwrap();
        assert_eq!(h.region_of(a), LocalRegion::Nursery);
        assert_eq!(h.region_of(b), LocalRegion::Nursery);
        assert_eq!(b.words_from(a), 3);
        assert_eq!(h.nursery_used_words(), 5);
        assert_eq!(h.stats().nursery_allocated_objects, 2);
        assert_eq!(h.stats().nursery_allocated_words, 5);
    }

    #[test]
    fn nursery_overflow_reports_free_space() {
        let mut h = heap();
        let payload = vec![0u64; 400];
        h.alloc(raw_header(400), &payload).unwrap();
        let err = h.alloc(raw_header(400), &payload).unwrap_err();
        assert!(matches!(err, HeapError::NurseryFull { .. }));
    }

    #[test]
    fn bump_allocates_only_below_its_limit() {
        let mut h = heap();
        let start = h.nursery_start();
        // A zeroed limit refuses everything and leaves the heap untouched.
        assert_eq!(h.bump(raw_header(2), &[1, 2], 0), None);
        assert_eq!(h.nursery_used_words(), 0);
        // The object may end exactly at the limit, not one word past it.
        assert_eq!(h.bump(raw_header(2), &[1, 2], start + 2), None);
        let a = h.bump(raw_header(2), &[1, 2], start + 3).unwrap();
        assert_eq!(a, h.addr_of(start + 1));
        assert_eq!(h.stats().nursery_allocated_objects, 1);
        assert_eq!(h.stats().nursery_allocated_words, 3);
    }

    #[test]
    fn minor_cycle_moves_survivors_to_young() {
        let mut h = heap();
        h.alloc(raw_header(2), &[1, 2]).unwrap();
        h.begin_minor();
        // Simulate the collector copying one survivor.
        let copied = h.alloc_in_old(raw_header(2), &[1, 2]).unwrap();
        h.finish_minor();
        assert_eq!(h.region_of(copied), LocalRegion::Young);
        assert_eq!(h.old_top(), 3);
        assert_eq!(h.young_start(), 0);
        // Nursery was re-divided above the survivors: free = 1021, upper half.
        assert_eq!(h.nursery_start(), 3 + (1024usize - 3).div_ceil(2));
        assert_eq!(h.nursery_used_words(), 0);
    }

    #[test]
    fn second_minor_redefines_young() {
        let mut h = heap();
        h.begin_minor();
        h.alloc_in_old(raw_header(1), &[9]).unwrap();
        h.finish_minor();
        h.begin_minor();
        let survivor2 = h.alloc_in_old(raw_header(1), &[8]).unwrap();
        h.finish_minor();
        // First survivor is now old, second is young.
        assert_eq!(h.region_of_offset(1), LocalRegion::Old);
        assert_eq!(h.region_of(survivor2), LocalRegion::Young);
        assert_eq!(h.young_start(), 2);
        assert_eq!(h.old_top(), 4);
    }

    #[test]
    fn slide_young_to_bottom_moves_data_and_geometry() {
        let mut h = heap();
        // Two minor cycles: one old object, one young object.
        h.begin_minor();
        h.alloc_in_old(raw_header(1), &[11]).unwrap();
        h.finish_minor();
        h.begin_minor();
        h.alloc_in_old(raw_header(2), &[21, 22]).unwrap();
        h.finish_minor();
        assert_eq!(h.young_start(), 2);
        assert_eq!(h.old_top(), 5);

        // Major collection: pretend the old object was evacuated, then slide.
        let delta = h.slide_young_to_bottom();
        assert_eq!(delta, 2);
        assert_eq!(h.young_start(), 0);
        assert_eq!(h.old_top(), 3);
        // The young object's payload moved to offsets 1..3.
        assert_eq!(h.read(1), 21);
        assert_eq!(h.read(2), 22);
        h.finish_major();
        assert_eq!(h.nursery_start(), 3 + (1024usize - 3).div_ceil(2));
    }

    #[test]
    fn slide_with_no_old_data_is_noop() {
        let mut h = heap();
        h.begin_minor();
        h.alloc_in_old(raw_header(1), &[5]).unwrap();
        h.finish_minor();
        // young_start == 0 here because there was no pre-existing old data.
        assert_eq!(h.slide_young_to_bottom(), 0);
        assert_eq!(h.read(1), 5);
    }

    #[test]
    fn old_area_overflow_detected() {
        let mut h = heap();
        h.begin_minor();
        let payload = vec![0u64; 600];
        assert!(matches!(
            h.alloc_in_old(raw_header(600), &payload),
            Err(HeapError::OldAreaFull { .. })
        ));
    }

    #[test]
    fn object_iterators_walk_regions() {
        let mut h = heap();
        let a = h.alloc(raw_header(1), &[1]).unwrap();
        let b = h.alloc(raw_header(2), &[2, 3]).unwrap();
        let nursery: Vec<_> = h.nursery_objects().map(|(addr, _)| addr).collect();
        assert_eq!(nursery, vec![a, b]);
        assert_eq!(h.young_objects().count(), 0);
        assert_eq!(h.old_objects().count(), 0);
    }

    #[test]
    fn regions_partition_the_heap() {
        let mut h = heap();
        h.begin_minor();
        h.alloc_in_old(raw_header(1), &[1]).unwrap();
        h.finish_minor();
        h.alloc(raw_header(1), &[2]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for off in 0..h.size_words() {
            seen.insert(h.region_of_offset(off));
        }
        assert!(seen.contains(&LocalRegion::Young));
        assert!(seen.contains(&LocalRegion::Reserve));
        assert!(seen.contains(&LocalRegion::Nursery));
        assert!(seen.contains(&LocalRegion::NurseryFree));
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = heap();
        h.alloc(raw_header(1), &[1]).unwrap();
        h.begin_minor();
        h.alloc_in_old(raw_header(1), &[1]).unwrap();
        h.finish_minor();
        h.clear();
        assert_eq!(h.old_top(), 0);
        assert_eq!(h.nursery_used_words(), 0);
        assert_eq!(h.nursery_start(), 512);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_heap_rejected() {
        let _ = LocalHeap::new(0, NodeId::new(0), Addr::new(0), 8);
    }

    #[test]
    fn contains_and_addresses() {
        let h = heap();
        let inside = h.addr_of(10);
        assert!(h.contains(inside));
        assert_eq!(h.offset_of(inside), 10);
        assert!(!h.contains(Addr::new(8)));
    }
}
