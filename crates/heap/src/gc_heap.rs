//! The heap-mechanism interface the collector algorithms are written
//! against.
//!
//! `mgc-core`'s minor collection, major collection, and promotion are pure
//! *policy*: they decide what to copy and where, but every actual memory
//! operation goes through this trait. Two implementations exist, over one
//! chunk store:
//!
//! * [`WorkerHeap`](crate::WorkerHeap) — one vproc's view: the worker owns
//!   its local heap outright (so the minor-GC path takes no locks at all,
//!   §3.3) and reaches the shared global heap through atomic words and a
//!   lock-free chunk pool;
//! * [`Heap`](crate::Heap) — the discrete-event simulation's whole machine:
//!   every vproc's `WorkerHeap` behind one vproc-indexed interface, each
//!   call handed to the worker that owns the vproc or the address.
//!
//! The trait deliberately exposes only what the collection algorithms need
//! — and the read rule ([`GcHeap::resolve`]), which the mutator and the
//! collector share; mutator-facing allocation stays on the concrete types.
//! A local collection classifies each pointer once, through
//! [`GcHeap::find`], and only the simulated heap charges its work
//! ([`GcHeap::charges_costs`]).

use crate::addr::{Addr, Word};
use crate::chunk::ChunkId;
use crate::descriptor::PointerFields;
use crate::error::HeapError;
use crate::header::{Header, HeaderSlot};
use crate::heap::{EvacTarget, Space};
use crate::local::{LocalHeap, LocalRegion};
use crate::shared::{Resolved, SharedGlobalHeap};
use crate::verify::InvariantViolation;
use mgc_numa::NodeId;
use std::sync::Arc;

/// An object of a vproc's own local heap, as [`GcHeap::find`] found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalObject {
    /// The region holding it.
    pub region: LocalRegion,
    /// Word offset of its first payload word.
    pub offset: usize,
    /// Its header slot: a header, or a forward left by an evacuation.
    pub slot: HeaderSlot,
}

/// Heap mechanism used by the collection algorithms in `mgc-core`.
pub trait GcHeap {
    /// Number of vprocs sharing this heap (the whole machine's count, even
    /// for a per-worker view — the global-collection threshold scales with
    /// it, §3.4).
    fn num_vprocs(&self) -> usize;

    /// Panics unless this view serves `vproc`: a per-worker view serves
    /// only its own. Every collection checks this once, when it starts;
    /// [`GcHeap::local`] and [`GcHeap::local_mut`] then only debug-assert it.
    /// By default it is whatever [`GcHeap::local`] checks.
    fn assert_serves(&self, vproc: usize) {
        self.local(vproc);
    }

    /// Borrow a vproc's local heap. Per-worker views only answer for their
    /// own vproc ([`GcHeap::assert_serves`]).
    fn local(&self, vproc: usize) -> &LocalHeap;

    /// Mutably borrow a vproc's local heap. Per-worker views only answer for
    /// their own vproc ([`GcHeap::assert_serves`]).
    fn local_mut(&mut self, vproc: usize) -> &mut LocalHeap;

    /// Whether collections on this heap charge their work to a cost record
    /// for a memory model. Only the simulated machine's
    /// [`Heap`](crate::Heap) does; a threaded worker's collections compute
    /// no costs.
    fn charges_costs(&self) -> bool {
        false
    }

    /// Which space `addr` belongs to.
    fn space_of(&self, addr: Addr) -> Space;

    /// The one classification of a local collection: the object at `ptr`
    /// with its region, offset and header slot if it lies in `vproc`'s own
    /// local heap, else `None` (the global heap, another vproc's local heap,
    /// or no region).
    #[inline]
    fn find(&self, vproc: usize, ptr: Addr) -> Option<LocalObject> {
        let local = self.local(vproc);
        let offset = local.contains(ptr).then(|| ptr.words_from(local.base()))?;
        Some(LocalObject {
            region: local.region_of_offset(offset),
            offset,
            slot: HeaderSlot::decode(local.read(offset - 1)),
        })
    }

    /// Follows forwarding pointers from `addr` to the current copy of its
    /// object and locates it — the read rule of both backends, stated here
    /// once. `global` must be this heap's global heap: the result borrows it
    /// rather than the heap, so the caller can keep the location while it
    /// uses the heap mutably (`TaskCtx` does until its next safe point, and
    /// a promotion while it scans a promoted object).
    ///
    /// The language is mutation-free (§2.3), so a forwarding pointer is only
    /// ever left in two places: in this worker's **local** heap by a
    /// promotion, and in **global** from-space by a collection that has
    /// flipped but not yet released. A local header is therefore always
    /// checked (a plain slice read). A global header is read only when
    /// `global_may_forward`: the caller passes the collector's
    /// `in_scan_phase` flag, which is set exactly while a budgeted collection
    /// lets mutators run between its increments (barrier leaders write it
    /// with every worker stopped, and every root is re-evacuated before the
    /// release clears it). With the flag clear a global address is final:
    /// resolving it is classify and locate, and the header is not loaded.
    ///
    /// What each backend passes: a threaded worker passes `in_scan_phase`
    /// (`WorkerState::locate`). The simulated backend passes `false`: its
    /// global collection runs between rounds with every task quiescent and
    /// rewrites every root before it returns, so a running mutator never
    /// meets a global forwarding word (`RuntimeState::locate`).
    fn resolve<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        addr: Addr,
        global_may_forward: bool,
    ) -> Resolved<'g>;

    /// True if `addr` lies in any local heap.
    fn is_local(&self, addr: Addr) -> bool;

    /// True if `addr` lies in the global heap.
    fn is_global(&self, addr: Addr) -> bool;

    /// The NUMA node whose memory backs `addr`.
    fn node_of(&self, addr: Addr) -> NodeId;

    /// Reads the header slot of the object at `obj`: a header or a
    /// forwarding pointer.
    fn header_slot(&self, obj: Addr) -> HeaderSlot;

    /// Reads the header of the object at `obj`, panicking on a forward.
    fn header_of(&self, obj: Addr) -> Header {
        self.header_slot(obj).expect_header()
    }

    /// If the object at `obj` has been moved, its new address.
    fn forwarded_to(&self, obj: Addr) -> Option<Addr> {
        self.header_slot(obj).forwarded_to()
    }

    /// Reads payload field `index` of the object at `obj`.
    fn read_field(&self, obj: Addr, index: usize) -> Word;

    /// Reads the whole payload of the object at `obj`.
    fn payload(&self, obj: Addr) -> Vec<Word> {
        let header = self.header_of(obj);
        (0..header.len_words as usize)
            .map(|i| self.read_field(obj, i))
            .collect()
    }

    /// Total size in bytes of the object at `obj`, header included.
    fn object_bytes(&self, obj: Addr) -> usize {
        self.header_of(obj).total_bytes()
    }

    /// The payload indices of the pointer fields for an object with header
    /// `header`, ascending. The iterator borrows nothing, so the caller may
    /// rewrite fields while it runs.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownDescriptor`] for an unregistered mixed
    /// object.
    fn pointer_field_indices(&self, header: Header) -> Result<PointerFields, HeapError>;

    /// Copies the object with header `header` whose first payload word is at
    /// word `offset` of the target vproc's local heap ([`GcHeap::find`]
    /// gives both) into `target`, installing a forwarding pointer, and
    /// returns the new address plus bytes copied. A copy into the global
    /// heap lands in [`GcHeap::promotion_chunk`].
    ///
    /// # Errors
    ///
    /// Propagates allocation errors from the target space.
    fn evacuate(
        &mut self,
        offset: usize,
        header: Header,
        target: EvacTarget,
    ) -> Result<(Addr, usize), HeapError>;

    /// The chunk `vproc`'s copies into the global heap currently go to, if
    /// it has one.
    fn promotion_chunk(&self, vproc: usize) -> Option<ChunkId>;

    /// Number of global-chunk acquisitions so far (each is the
    /// synchronisation point of §3.3; the collector charges for increases).
    fn chunk_acquisitions(&self) -> u64;

    /// The global heap this view allocates promotions in. The collection
    /// trigger reads its occupancy (§3.4); the verifier its chunk states.
    fn global(&self) -> &Arc<SharedGlobalHeap>;

    /// Re-checks the heap invariants of §2.3 over everything this view may
    /// read.
    fn verify_violations(&self) -> Vec<InvariantViolation>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heap, HeapConfig};
    use mgc_numa::NodeId;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small_for_tests(), &[NodeId::new(0)], 1)
    }

    #[test]
    fn trait_and_inherent_methods_agree() {
        let mut heap = heap();
        let obj = heap.alloc_raw(0, &[5, 6]).unwrap();
        let view: &dyn GcHeap = &heap;
        assert_eq!(view.num_vprocs(), 1);
        assert!(view.is_local(obj));
        assert!(!view.is_global(obj));
        assert_eq!(view.read_field(obj, 1), 6);
        assert_eq!(view.payload(obj), vec![5, 6]);
        assert_eq!(view.object_bytes(obj), 24);
        assert_eq!(view.forwarded_to(obj), None);
        assert_eq!(view.chunk_acquisitions(), 0);
        assert_eq!(view.global().bytes_in_use(), 0);
        assert_eq!(view.global().bytes_after_last_collection(), 0);
        assert!(view.verify_violations().is_empty());
    }
}
