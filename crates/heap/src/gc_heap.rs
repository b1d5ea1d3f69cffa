//! The heap-mechanism interface the collector algorithms are written
//! against.
//!
//! `mgc-core`'s minor collection, major collection, and promotion are pure
//! *policy*: they decide what to copy and where, but every actual memory
//! operation goes through this trait. Two implementations exist:
//!
//! * [`Heap`](crate::Heap) — the discrete-event simulation's monolithic
//!   heap, where one thread owns every vproc's local heap and the global
//!   heap;
//! * [`WorkerHeap`](crate::WorkerHeap) — the real-threads backend's
//!   per-thread view: the worker owns its local heap outright (so the
//!   minor-GC path takes no locks at all, §3.3) and reaches the shared
//!   global heap through atomic words and a lock-free chunk pool.
//!
//! The trait deliberately exposes only what the collection algorithms need;
//! mutator-facing allocation stays on the concrete types.

use crate::addr::{Addr, Word};
use crate::descriptor::PointerFields;
use crate::error::HeapError;
use crate::header::{Header, HeaderSlot};
use crate::heap::{EvacTarget, Space};
use crate::local::LocalHeap;
use mgc_numa::NodeId;

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

    /// Bytes of global-heap chunk space in use — the quantity the global
    /// collection trigger compares against its threshold (§3.4).
    fn global_bytes_in_use(&self) -> usize;

    /// [`GcHeap::global_bytes_in_use`] as it stood when the last global
    /// collection released its from-space (0 before the first) — the figure
    /// the proportional part of the trigger scales.
    fn global_bytes_after_last_collection(&self) -> usize;

    /// Re-checks the heap invariants, returning human-readable violations.
    /// Views that cannot see the whole machine return an empty list.
    fn verify_violations(&self) -> Vec<String> {
        Vec::new()
    }
}

impl GcHeap for crate::Heap {
    fn num_vprocs(&self) -> usize {
        crate::Heap::num_vprocs(self)
    }

    fn local(&self, vproc: usize) -> &LocalHeap {
        crate::Heap::local(self, vproc)
    }

    fn local_mut(&mut self, vproc: usize) -> &mut LocalHeap {
        crate::Heap::local_mut(self, vproc)
    }

    fn space_of(&self, addr: Addr) -> Space {
        crate::Heap::space_of(self, addr)
    }

    fn is_local(&self, addr: Addr) -> bool {
        crate::Heap::is_local(self, addr)
    }

    fn is_global(&self, addr: Addr) -> bool {
        crate::Heap::is_global(self, addr)
    }

    fn node_of(&self, addr: Addr) -> NodeId {
        crate::Heap::node_of(self, addr)
    }

    fn header_slot(&self, obj: Addr) -> HeaderSlot {
        crate::Heap::header_slot(self, obj)
    }

    fn read_field(&self, obj: Addr, index: usize) -> Word {
        crate::Heap::read_field(self, obj, index)
    }

    fn write_field(&mut self, obj: Addr, index: usize, value: Word) {
        crate::Heap::write_field(self, obj, index, value)
    }

    fn pointer_field_indices(&self, header: Header) -> Result<PointerFields, HeapError> {
        crate::Heap::pointer_field_indices(self, header)
    }

    fn evacuate(&mut self, obj: Addr, target: EvacTarget) -> Result<(Addr, usize), HeapError> {
        crate::Heap::evacuate(self, obj, target)
    }

    fn chunk_acquisitions(&self) -> u64 {
        self.stats().chunk_acquisitions
    }

    fn global_bytes_in_use(&self) -> usize {
        self.global().bytes_in_use()
    }

    fn global_bytes_after_last_collection(&self) -> usize {
        self.global().bytes_after_last_collection()
    }

    fn verify_violations(&self) -> Vec<String> {
        crate::verify::verify_heap(self)
            .iter()
            .map(ToString::to_string)
            .collect()
    }
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
        assert_eq!(view.global_bytes_in_use(), 0);
        assert_eq!(view.global_bytes_after_last_collection(), 0);
        assert!(view.verify_violations().is_empty());
    }
}
