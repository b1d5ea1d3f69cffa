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
//! The trait deliberately exposes only what the collection algorithms need;
//! mutator-facing allocation stays on the concrete types.

use crate::addr::{Addr, Word};
use crate::descriptor::PointerFields;
use crate::error::HeapError;
use crate::header::{Header, HeaderSlot};
use crate::heap::{EvacTarget, Space};
use crate::local::LocalHeap;
use crate::shared::SharedGlobalHeap;
use crate::verify::InvariantViolation;
use mgc_numa::NodeId;
use std::sync::Arc;

/// Heap mechanism used by the collection algorithms in `mgc-core`.
pub trait GcHeap {
    /// Number of vprocs sharing this heap (the whole machine's count, even
    /// for a per-worker view — the global-collection threshold scales with
    /// it, §3.4).
    fn num_vprocs(&self) -> usize;

    /// Borrow a vproc's local heap. Per-worker views only answer for their
    /// own vproc.
    fn local(&self, vproc: usize) -> &LocalHeap;

    /// Mutably borrow a vproc's local heap. Per-worker views only answer for
    /// their own vproc.
    fn local_mut(&mut self, vproc: usize) -> &mut LocalHeap;

    /// Which space `addr` belongs to.
    fn space_of(&self, addr: Addr) -> Space;

    /// True if `addr` lies in any local heap.
    fn is_local(&self, addr: Addr) -> bool {
        self.space_of(addr).is_local()
    }

    /// True if `addr` lies in the global heap.
    fn is_global(&self, addr: Addr) -> bool {
        self.space_of(addr).is_global()
    }

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

    /// Writes payload field `index` of the object at `obj` (collector-only:
    /// the mutator language is mutation-free).
    fn write_field(&mut self, obj: Addr, index: usize, value: Word);

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

    /// Copies the object at `obj` into `target`, installing a forwarding
    /// pointer, and returns the new address plus bytes copied.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors from the target space.
    fn evacuate(&mut self, obj: Addr, target: EvacTarget) -> Result<(Addr, usize), HeapError>;

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
