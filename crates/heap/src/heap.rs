//! The heap configuration and the simulated backend's whole-machine view.
//!
//! [`Heap`] holds every vproc's [`WorkerHeap`]. Callers reach the workers
//! directly, by vproc ([`Heap::worker`], [`GcHeap::worker_mut`]), and each
//! worker provides the *mechanism*:
//! allocate an object, read a field, evacuate an object to another space,
//! acquire a global-heap chunk. `Heap` itself builds the machine, registers
//! descriptors and implements [`GcHeap`] for the whole machine. The
//! collection *policy* (when to collect, the Cheney loops, the per-node chunk
//! lists of the global collection) lives in the `mgc-core` crate.

use crate::addr::{Addr, Word};
use crate::descriptor::{Descriptor, DescriptorId, DescriptorTable};
use crate::error::HeapError;
use crate::gc_heap::GcHeap;
use crate::shared::{
    Location, Resolved, SharedGlobalHeap, ThreadedLayout, ThreadedOwner, WorkerHeap,
    NODE_SPAN_BYTES,
};
use crate::verify::InvariantViolation;
use mgc_numa::{AllocPolicy, NodeId, PlacementPolicy};
use std::sync::Arc;

/// Configuration of the heap geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Size of a global-heap chunk in bytes. The paper uses large chunks on
    /// a 128 GB machine; the default here is scaled down to match the scaled
    /// workloads.
    pub chunk_size_bytes: usize,
    /// Size of each vproc's local heap in bytes. The paper sizes local heaps
    /// to fit the node's L3 cache (§3.1).
    pub local_heap_bytes: usize,
    /// Physical placement policy for local heaps and global chunks (§4.3).
    pub policy: AllocPolicy,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            chunk_size_bytes: 256 * 1024,
            local_heap_bytes: 512 * 1024,
            policy: AllocPolicy::Local,
        }
    }
}

impl HeapConfig {
    /// A small configuration convenient for unit tests: 4 KiB chunks and
    /// 16 KiB local heaps.
    pub fn small_for_tests() -> Self {
        HeapConfig {
            chunk_size_bytes: 4 * 1024,
            local_heap_bytes: 16 * 1024,
            policy: AllocPolicy::Local,
        }
    }

    /// Checks the geometry bounds, reporting the first violation. The heap
    /// constructors only round a size up to 64 words and `assert!` that a
    /// chunk fits a band; call this first on knobs from outside (CLI flags,
    /// environment overrides) to get a typed error instead.
    ///
    /// # Errors
    ///
    /// Returns the violated bound: the chunk and local-heap minimums, and a
    /// node's address band ([`NODE_SPAN_BYTES`]) having room for at least
    /// one chunk.
    pub fn validate(&self) -> Result<(), GeometryViolation> {
        let below = |field, bytes, min| Err(GeometryViolation::BelowMinimum { field, bytes, min });
        let (chunk, local) = (self.chunk_size_bytes as u64, self.local_heap_bytes as u64);
        if chunk < MIN_CHUNK_BYTES as u64 {
            return below("chunk_size_bytes", chunk, MIN_CHUNK_BYTES as u64);
        }
        if local < MIN_LOCAL_HEAP_BYTES as u64 {
            return below("local_heap_bytes", local, MIN_LOCAL_HEAP_BYTES as u64);
        }
        if chunk > NODE_SPAN_BYTES {
            return below(
                "NODE_SPAN_BYTES",
                NODE_SPAN_BYTES,
                chunk.next_power_of_two(),
            );
        }
        Ok(())
    }
}

/// Smallest accepted global-heap chunk, in bytes.
pub const MIN_CHUNK_BYTES: usize = 1024;
/// Smallest accepted per-vproc local heap, in bytes.
pub const MIN_LOCAL_HEAP_BYTES: usize = 4096;

/// One violated heap-geometry bound (see [`HeapConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryViolation {
    /// A size is below its minimum.
    BelowMinimum {
        /// The violating [`HeapConfig`] field, or `"NODE_SPAN_BYTES"` when
        /// a node's address band is too small for one chunk.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
        /// The smallest accepted value.
        min: u64,
    },
}

/// Target space for an object evacuation performed by the collector
/// ([`WorkerHeap::evacuate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvacTarget {
    /// Copy to the end of the worker's old-data area (minor collection).
    OldArea,
    /// Copy to the worker's current global-heap chunk (major collection and
    /// promotion).
    GlobalCurrent,
}

/// Heap-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of global-chunk acquisitions (each is a synchronisation point
    /// in the real runtime, §3.3).
    pub chunk_acquisitions: u64,
    /// Words copied by evacuations.
    pub evacuated_words: u64,
}

/// The whole machine's heap, as the discrete-event simulation drives it: one
/// [`WorkerHeap`] per vproc over one [`SharedGlobalHeap`], one
/// [`ThreadedLayout`] and one descriptor table. It holds no memory of its
/// own. Callers reach a vproc's worker directly — [`Heap::worker`] to read,
/// [`GcHeap::worker_mut`] to allocate, promote or collect. What is left here
/// is the whole machine: building it, registering descriptors, and the
/// [`GcHeap`] implementation the collector and the read path use, which
/// sends each address to the worker the classifier names.
///
/// A collection of vproc `v` runs on its worker ([`GcHeap::worker_mut`]);
/// the whole machine takes part only around it: the foreign roots a major
/// collection redirects ([`GcHeap::redirect_foreign_roots`]) and the
/// invariant walk over every heap afterwards ([`GcHeap::verify_violations`]).
#[derive(Debug)]
pub struct Heap {
    layout: ThreadedLayout,
    global: Arc<SharedGlobalHeap>,
    workers: Vec<WorkerHeap>,
}

impl Heap {
    /// Creates a heap for `vproc_nodes.len()` vprocs with the default
    /// ([`PlacementPolicy::NodeLocal`]) promotion-chunk placement.
    /// `vproc_nodes[i]` is the NUMA node of the core that vproc `i` is pinned
    /// to; the page policy ([`HeapConfig::policy`]) decides where the backing
    /// pages of its local heap and of every chunk actually land.
    ///
    /// # Panics
    ///
    /// Panics if `vproc_nodes` is empty, `num_nodes` is zero, or any home
    /// node is out of range.
    pub fn new(config: HeapConfig, vproc_nodes: &[NodeId], num_nodes: usize) -> Self {
        Heap::with_placement(config, vproc_nodes, num_nodes, PlacementPolicy::NodeLocal)
    }

    /// [`Heap::new`] with an explicit promotion-chunk placement policy.
    pub fn with_placement(
        config: HeapConfig,
        vproc_nodes: &[NodeId],
        num_nodes: usize,
        placement: PlacementPolicy,
    ) -> Self {
        let layout = ThreadedLayout::new(&config, vproc_nodes.len(), num_nodes);
        for node in vproc_nodes {
            assert!(
                node.index() < num_nodes,
                "vproc home node {node} out of range (machine has {num_nodes} nodes)"
            );
        }
        let global = Arc::new(
            SharedGlobalHeap::new(layout.chunk_words(), num_nodes)
                .with_placement(placement)
                .with_page_policy(config.policy),
        );
        let descriptors = Arc::new(DescriptorTable::new());
        let workers = vproc_nodes
            .iter()
            .enumerate()
            .map(|(vproc, &home)| {
                WorkerHeap::with_local_node(
                    vproc,
                    layout,
                    home,
                    global.place_page(home),
                    global.clone(),
                    descriptors.clone(),
                )
            })
            .collect();
        Heap {
            layout,
            global,
            workers,
        }
    }

    /// Registers a mixed-object descriptor and returns its ID.
    pub fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        // The workers share the table read-only; re-point them at the grown
        // copy (registration happens a handful of times, before the run).
        let mut table = DescriptorTable::clone(self.workers[0].descriptors_mut());
        let id = table.register(descriptor);
        let table = Arc::new(table);
        for worker in &mut self.workers {
            *worker.descriptors_mut() = table.clone();
        }
        id
    }

    /// Number of vprocs sharing this heap.
    pub fn num_vprocs(&self) -> usize {
        self.workers.len()
    }

    /// Vproc `vproc`'s worker.
    #[inline]
    pub fn worker(&self, vproc: usize) -> &WorkerHeap {
        &self.workers[vproc]
    }

    /// Classifies `addr` once: the index of the worker an access to it goes
    /// to — the owning vproc's for a local address, worker 0's for any other
    /// (every worker reads the global heap alike) — and what the layout says
    /// it is.
    #[inline]
    fn owner_of(&self, addr: Addr) -> (usize, ThreadedOwner) {
        let owner = self.layout.owner_of(addr);
        let worker = match owner {
            ThreadedOwner::Local(vproc) => vproc,
            _ => 0,
        };
        (worker, owner)
    }

    /// Allocates a raw-data object in `vproc`'s nursery.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed.
    pub fn alloc_raw(&mut self, vproc: usize, payload: &[Word]) -> Result<Addr, HeapError> {
        self.workers[vproc].alloc_raw_with(payload.len(), |i| payload[i])
    }

    /// Allocates a pointer-vector object in `vproc`'s nursery. Every element
    /// must be a valid object address or the null word.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed.
    pub fn alloc_vector(&mut self, vproc: usize, elements: &[Word]) -> Result<Addr, HeapError> {
        self.workers[vproc].alloc_vector(elements)
    }
}

impl GcHeap for Heap {
    #[inline]
    fn worker_mut(&mut self, vproc: usize) -> &mut WorkerHeap {
        &mut self.workers[vproc]
    }

    #[inline(always)]
    fn layout(&self) -> &ThreadedLayout {
        &self.layout
    }

    /// The simulated machine hands every vproc's local collection its
    /// shared roots (`Machine::gather_roots`): join slots, continuations,
    /// channel queues and proxies, some of them in other vprocs' heaps.
    fn redirect_foreign_roots(&self, vproc: usize, roots: &mut [Addr]) {
        for root in roots.iter_mut() {
            let (worker, owner) = self.owner_of(*root);
            if matches!(owner, ThreadedOwner::Local(v) if v != vproc) {
                let slot = self.workers[worker].locate_as(owner, *root).header_slot();
                *root = slot.forwarded_to().unwrap_or(*root);
            }
        }
    }

    /// The simulated backend's read path: the address is classified once,
    /// and the worker that owns it (its vproc for a local address, worker 0
    /// for a global one) runs the read rule from that classification. A
    /// local location names the vproc whose heap holds it.
    #[inline(always)]
    fn resolve<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        addr: Addr,
        global_may_forward: bool,
    ) -> Resolved<'g> {
        let (worker, owner) = self.owner_of(addr);
        self.workers[worker].resolve_as(global, owner, addr, global_may_forward)
    }

    #[inline]
    fn locate(&self, obj: Addr) -> Location<'_, &[Word]> {
        let (worker, owner) = self.owner_of(obj);
        self.workers[worker].locate_as(owner, obj)
    }

    fn global(&self) -> &Arc<SharedGlobalHeap> {
        &self.global
    }

    /// The whole machine: the global heap and every local heap.
    fn verify_violations(&self) -> Vec<InvariantViolation> {
        crate::verify::verify_heap(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, ObjectKind};
    use crate::local::LocalRegion;
    use crate::object::i64_to_word;
    use crate::shared::SharedChunkState;

    fn two_vproc_heap() -> Heap {
        Heap::new(
            HeapConfig::small_for_tests(),
            &[NodeId::new(0), NodeId::new(1)],
            2,
        )
    }

    #[test]
    fn construction_places_local_heaps_on_home_nodes() {
        let heap = two_vproc_heap();
        assert_eq!(heap.num_vprocs(), 2);
        assert_eq!(heap.worker(0).local().node(), NodeId::new(0));
        assert_eq!(heap.worker(1).local().node(), NodeId::new(1));
        assert_eq!(heap.worker(1).home_node(), NodeId::new(1));
        // Both local heaps are mapped, back to back; no chunk is yet.
        let local = heap.worker(1).local();
        let last_word = local.base().add_words(local.size_words() - 1);
        assert_eq!(heap.layout().owner_of(last_word), ThreadedOwner::Local(1));
        assert_eq!(local.region_of(last_word), LocalRegion::NurseryFree);
        assert_eq!(heap.layout.local_base(1), local.base());
        assert_eq!(heap.global().num_chunks(), 0);
    }

    #[test]
    fn both_backends_size_a_local_heap_the_same_way() {
        // 20 KiB is not a whole number of 16 KiB chunks: the simulated heap
        // used to round it up to 32 KiB, the threaded layout never did.
        let config = HeapConfig {
            chunk_size_bytes: 16 * 1024,
            local_heap_bytes: 20 * 1024,
            ..HeapConfig::small_for_tests()
        };
        let heap = Heap::new(config, &[NodeId::new(0), NodeId::new(1)], 2);
        let layout = ThreadedLayout::new(&config, 2, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        let table = Arc::new(DescriptorTable::new());
        for vproc in 0..2 {
            let node = NodeId::new(vproc as u16);
            let worker = WorkerHeap::new(vproc, layout, node, global.clone(), table.clone());
            let (sim, threaded) = (heap.worker(vproc).local(), worker.local());
            assert_eq!(sim.size_bytes(), 20 * 1024);
            assert_eq!(sim.size_words(), threaded.size_words());
            assert_eq!(sim.base(), threaded.base());
            assert_eq!(sim.nursery_start(), threaded.nursery_start());
            assert_eq!(sim.nursery_free_words(), threaded.nursery_free_words());
        }
    }

    #[test]
    fn geometry_validates_spans_and_minimums() {
        // The defaults and the test config are valid.
        assert_eq!(HeapConfig::default().validate(), Ok(()));
        assert_eq!(HeapConfig::small_for_tests().validate(), Ok(()));
        // Chunk and local-heap minimums are the classic bounds.
        let tiny_chunk = HeapConfig {
            chunk_size_bytes: 64,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            tiny_chunk.validate(),
            Err(GeometryViolation::BelowMinimum {
                field: "chunk_size_bytes",
                bytes: 64,
                min: MIN_CHUNK_BYTES as u64,
            })
        );
        // A chunk larger than a node's address band could never be mapped.
        let vast_chunk = HeapConfig {
            chunk_size_bytes: (NODE_SPAN_BYTES + 1) as usize,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            vast_chunk.validate(),
            Err(GeometryViolation::BelowMinimum {
                field: "NODE_SPAN_BYTES",
                bytes: NODE_SPAN_BYTES,
                min: 2 * NODE_SPAN_BYTES,
            })
        );
    }

    #[test]
    fn socket_zero_policy_places_everything_on_node_zero() {
        let config = HeapConfig {
            policy: AllocPolicy::SocketZero,
            ..HeapConfig::small_for_tests()
        };
        let mut heap = Heap::new(config, &[NodeId::new(0), NodeId::new(1)], 2);
        assert_eq!(heap.worker(1).local().node(), NodeId::new(0));
        let chunk = heap.worker_mut(1).fresh_current_chunk();
        assert_eq!(heap.global().chunk(chunk).node(), NodeId::new(0));
        // Every lease comes from node 0 whatever the consumer's node, so a
        // node-0 chunk is never "on the wrong node": allocating for a
        // consumer on node 1 keeps filling it instead of leasing per object.
        heap.worker_mut(1).set_promotion_target(NodeId::new(1));
        let header = Header::new(ObjectKind::Raw, 1).encode();
        for _ in 0..8 {
            heap.worker_mut(1).alloc_in_global(header, &[7]).unwrap();
        }
        assert_eq!(heap.worker(1).current_chunk().unwrap().id(), chunk);
        assert_eq!(heap.global().chunk_acquisitions(), 1);
    }

    #[test]
    fn alloc_and_read_back_raw_object() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        assert_eq!(heap.layout().owner_of(obj), ThreadedOwner::Local(0));
        assert_eq!(heap.worker(0).local().region_of(obj), LocalRegion::Nursery);
        assert_eq!(heap.locate(obj).header().len_words, 3);
        assert_eq!(heap.locate(obj).payload(), vec![1, 2, 3]);
        assert_eq!(heap.read_field(obj, 2), 3);
        assert_eq!(heap.locate(obj).header().total_bytes(), 32);
        assert_eq!(heap.resolve(heap.global(), obj, false).node, NodeId::new(0));
    }

    #[test]
    fn vector_fields_are_all_pointers() {
        let mut heap = two_vproc_heap();
        let a = heap.alloc_raw(0, &[i64_to_word(42)]).unwrap();
        let v = heap.alloc_vector(0, &[a.raw(), 0]).unwrap();
        let header = heap.locate(v).header();
        assert!(heap
            .worker(0)
            .pointer_field_indices(header)
            .unwrap()
            .eq([0, 1]));
    }

    #[test]
    fn mixed_objects_respect_descriptors() {
        let mut heap = two_vproc_heap();
        let desc = heap.register_descriptor(Descriptor::new("pair", 2, 0b10));
        let a = heap.alloc_raw(0, &[7]).unwrap();
        let obj = heap.worker_mut(0).alloc_mixed(desc, &[5, a.raw()]).unwrap();
        let header = heap.locate(obj).header();
        assert!(heap
            .worker(0)
            .pointer_field_indices(header)
            .unwrap()
            .eq([1]));
        // Wrong payload size is rejected.
        assert!(matches!(
            heap.worker_mut(0).alloc_mixed(desc, &[1]),
            Err(HeapError::PayloadSizeMismatch { .. })
        ));
    }

    /// Evacuates the object at `obj`, in `vproc`'s local heap, to `target`.
    fn evacuate(heap: &mut Heap, vproc: usize, obj: Addr, target: EvacTarget) -> (Addr, usize) {
        let worker = heap.worker_mut(vproc);
        let (_, offset, slot) = worker.find(obj).unwrap();
        worker
            .evacuate(offset, slot.expect_header(), target)
            .unwrap()
    }

    #[test]
    fn evacuate_to_old_area_installs_forward() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(0, &[9, 8]).unwrap();
        heap.worker_mut(0).local_mut().begin_minor();
        let (copy, bytes) = evacuate(&mut heap, 0, obj, EvacTarget::OldArea);
        assert_eq!(bytes, 24);
        let worker = heap.worker(0);
        assert_eq!(worker.locate(obj).header_slot().forwarded_to(), Some(copy));
        assert_eq!(worker.locate(copy).payload(), vec![9, 8]);
        let region = worker.find(copy).map(|(region, ..)| region);
        assert_eq!(region, Some(LocalRegion::Young));
        assert_eq!(worker.stats().evacuated_words, 3);
    }

    #[test]
    fn evacuate_to_global_uses_current_chunk() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(1, &[4]).unwrap();
        let (copy, _) = evacuate(&mut heap, 1, obj, EvacTarget::GlobalCurrent);
        assert!(heap.is_global(copy));
        let found = heap.resolve(heap.global(), copy, false);
        assert_eq!((found.addr, found.node), (copy, NodeId::new(1)));
        assert_eq!(heap.locate(copy).payload(), vec![4]);
        assert_eq!(heap.global().chunk_acquisitions(), 1);
    }

    #[test]
    fn resolve_chases_a_local_forward_and_names_the_node_of_the_copy() {
        let mut heap = two_vproc_heap();
        let global = heap.global().clone();
        let obj = heap.alloc_raw(1, &[4, 5]).unwrap();
        let found = heap.resolve(&global, obj, false);
        assert_eq!((found.addr, found.node), (obj, NodeId::new(1)));
        assert!(found.location.is_local());
        // Promote vproc 1's object into a chunk on node 0.
        heap.worker_mut(1).set_promotion_target(NodeId::new(0));
        let (copy, _) = evacuate(&mut heap, 1, obj, EvacTarget::GlobalCurrent);
        let found = heap.resolve(&global, obj, false);
        assert_eq!((found.addr, found.node), (copy, NodeId::new(0)));
        let place = found.location.map_local(|v| heap.worker(v).local().words());
        assert!(!place.is_local());
        assert_eq!(place.read(1), 5);
    }

    #[test]
    fn global_allocation_rolls_over_to_fresh_chunk() {
        let mut heap = two_vproc_heap();
        let chunk_words = heap.global().chunk_size_words();
        // Fill most of the first chunk.
        let big = vec![0u64; chunk_words - 2];
        let header = Header::new(ObjectKind::Raw, big.len() as u64).encode();
        heap.worker_mut(0).alloc_in_global(header, &big).unwrap();
        let first = heap.worker(0).current_chunk().unwrap().id();
        // This one does not fit; a fresh chunk is acquired transparently.
        let header2 = Header::new(ObjectKind::Raw, 4).encode();
        let obj = heap
            .worker_mut(0)
            .alloc_in_global(header2, &[1, 2, 3, 4])
            .unwrap();
        let second = heap.worker(0).current_chunk().unwrap().id();
        assert_ne!(first, second);
        assert!(matches!(heap.locate(obj), Location::Global(chunk, _) if chunk.id() == second));
        assert_eq!(heap.global().chunk(first).state(), SharedChunkState::Filled);
    }

    #[test]
    fn oversized_global_objects_are_rejected() {
        let mut heap = two_vproc_heap();
        let too_big = vec![0u64; heap.global().chunk_size_words() + 1];
        let header = Header::new(ObjectKind::Raw, too_big.len() as u64).encode();
        assert!(matches!(
            heap.worker_mut(0).alloc_in_global(header, &too_big),
            Err(HeapError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn space_resolution_distinguishes_regions() {
        let mut heap = two_vproc_heap();
        let nursery_obj = heap.alloc_raw(1, &[1]).unwrap();
        assert!(heap.is_local(nursery_obj) && !heap.is_global(nursery_obj));
        assert_eq!(heap.layout().owner_of(nursery_obj), ThreadedOwner::Local(1));
        let region = heap.worker(1).local().region_of(nursery_obj);
        assert_eq!(region, LocalRegion::Nursery);
        let chunk = heap.worker_mut(0).fresh_current_chunk();
        let base = heap.global().chunk(chunk).base();
        assert!(heap.is_global(base) && !heap.is_local(base));
        assert!(matches!(heap.locate(base), Location::Global(found, 0) if found.id() == chunk));
        assert_eq!(
            heap.layout().owner_of(Addr::new(8)),
            ThreadedOwner::Unmapped
        );
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn reading_unmapped_address_panics() {
        let heap = two_vproc_heap();
        let _ = heap.read_field(Addr::new(8), 0);
    }

    #[test]
    fn retire_current_chunk_clears_ownership() {
        let mut heap = two_vproc_heap();
        let chunk = heap.worker_mut(0).fresh_current_chunk();
        heap.worker_mut(0).retire_current_chunk();
        assert!(heap.worker(0).current_chunk().is_none());
        assert_eq!(heap.global().chunk(chunk).state(), SharedChunkState::Filled);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_home_node_rejected() {
        let _ = Heap::new(HeapConfig::small_for_tests(), &[NodeId::new(9)], 2);
    }
}
