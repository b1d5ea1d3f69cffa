//! The interface the collector's entry points are generic over.
//!
//! `mgc-core`'s minor collection, major collection and promotion each have
//! one body over one vproc's [`WorkerHeap`], built on its inherent methods
//! (`find`, `evacuate`, `pointer_field_indices`, ...). Their entry points
//! take a threaded worker's `WorkerHeap`, which serves only its own vproc
//! (so the minor-GC path takes no locks at all, §3.3), or the simulated
//! machine's [`Heap`](crate::Heap), which holds every vproc's `WorkerHeap`
//! and hands out the one asked for. The trait holds what an entry point needs
//! around the body — the worker, the simulated backend's foreign roots, the
//! invariant walk — and the one answer to "where is this address" that the
//! mutator and the collector share: the layout's classifier
//! ([`ThreadedLayout::owner_of`]), the resolver ([`GcHeap::resolve`]) and,
//! for an address known to be final, [`GcHeap::locate`].

use crate::addr::{Addr, Word};
use crate::shared::{
    Location, Resolved, SharedGlobalHeap, ThreadedLayout, ThreadedOwner, WorkerHeap,
};
use crate::verify::InvariantViolation;
use std::sync::Arc;

/// The heap a collection of one vproc runs on.
pub trait GcHeap {
    /// The worker that serves `vproc`: one of a [`Heap`](crate::Heap)'s, or
    /// a [`WorkerHeap`] itself.
    ///
    /// # Panics
    ///
    /// A `WorkerHeap` panics unless `vproc` is its own. Every collection
    /// takes its worker here, so it checks this once, when it starts.
    fn worker_mut(&mut self, vproc: usize) -> &mut WorkerHeap;

    /// Rewrites each of `roots` that lies in another vproc's local heap and
    /// whose object was promoted to that object's global copy; a major
    /// collection of `vproc` runs this first, as its body never reads
    /// another vproc's heap. Only the simulated machine's roots reach other
    /// heaps (its shared roots go to every vproc's collection); a threaded
    /// worker's never do, and by default nothing is rewritten.
    fn redirect_foreign_roots(&self, _vproc: usize, _roots: &mut [Addr]) {}

    /// The machine's address layout, whose [`ThreadedLayout::owner_of`]
    /// classifies an address by arithmetic alone.
    fn layout(&self) -> &ThreadedLayout;

    /// The resolver: follows forwarding pointers from `addr` to the current
    /// copy of its object and locates it — the read rule of both backends,
    /// stated here once. `global` must be this heap's global heap: the
    /// result borrows it rather than the heap, so the caller can keep the
    /// location while it uses the heap mutably (`TaskCtx` does until its
    /// next safe point).
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
    ///
    /// # Panics
    ///
    /// Panics if an address on the way lies in a local heap this heap may
    /// not read (a `WorkerHeap` reads only its own: the
    /// no-cross-heap-pointer invariant of §2.3 was violated), past the
    /// mapped end of a node's global band, or outside every region.
    fn resolve<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        addr: Addr,
        global_may_forward: bool,
    ) -> Resolved<'g>;

    /// The object at `obj` itself, readable, its header slot whatever it
    /// holds: [`GcHeap::resolve`] without following a forward.
    ///
    /// # Panics
    ///
    /// As [`GcHeap::resolve`].
    fn locate(&self, obj: Addr) -> Location<'_, &[Word]>;

    /// True if `addr` lies in any local heap.
    #[inline]
    fn is_local(&self, addr: Addr) -> bool {
        matches!(self.layout().owner_of(addr), ThreadedOwner::Local(_))
    }

    /// True if `addr` lies in the global heap.
    #[inline]
    fn is_global(&self, addr: Addr) -> bool {
        matches!(self.layout().owner_of(addr), ThreadedOwner::Global { .. })
    }

    /// Reads payload field `index` of the object at `obj`.
    ///
    /// # Panics
    ///
    /// As [`GcHeap::locate`].
    #[inline]
    fn read_field(&self, obj: Addr, index: usize) -> Word {
        self.locate(obj).read(index)
    }

    /// The global heap this heap promotes into.
    fn global(&self) -> &Arc<SharedGlobalHeap>;

    /// Re-checks the heap invariants of §2.3 over everything this heap may
    /// read: a `Heap` the whole machine, a `WorkerHeap` its own local heap.
    fn verify_violations(&self) -> Vec<InvariantViolation>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heap, HeapConfig};
    use mgc_numa::NodeId;

    #[test]
    fn trait_and_inherent_methods_agree() {
        let mut heap = Heap::new(HeapConfig::small_for_tests(), &[NodeId::new(0)], 1);
        let obj = heap.alloc_raw(0, &[5, 6]).unwrap();
        let view: &mut dyn GcHeap = &mut heap;
        assert_eq!(view.worker_mut(0).vproc(), 0);
        assert!(view.is_local(obj));
        assert!(!view.is_global(obj));
        assert_eq!(view.read_field(obj, 1), 6);
        assert_eq!(view.global().bytes_in_use(), 0);
        assert_eq!(view.global().bytes_after_last_collection(), 0);
        assert!(view.verify_violations().is_empty());
        assert_eq!(heap.locate(obj).payload(), vec![5, 6]);
        assert_eq!(heap.global().chunk_acquisitions(), 0);
    }
}
