//! The heap configuration and the simulated backend's whole-machine view.
//!
//! [`Heap`] is every vproc's [`WorkerHeap`] behind one vproc-indexed
//! interface. It provides *mechanism* only — allocate an object, read or
//! write a field, evacuate an object to another space, acquire a global-heap
//! chunk — and each operation is a hand-off to the worker that implements it.
//! The collection *policy* (when to collect, the Cheney loops, the per-node
//! chunk lists of the global collection) lives in the `mgc-core` crate.

use crate::addr::{Addr, Word};
use crate::chunk::ChunkId;
use crate::descriptor::{Descriptor, DescriptorId, DescriptorTable};
use crate::error::HeapError;
use crate::gc_heap::GcHeap;
use crate::local::LocalHeap;
use crate::shared::{
    Location, Place, Resolved, SharedGlobalHeap, ThreadedLayout, ThreadedOwner, WorkerHeap,
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
    /// Bytes of global-heap address band reserved per NUMA node (a power of
    /// two). The default, [`NODE_SPAN_BYTES`](crate::NODE_SPAN_BYTES), is
    /// 256 GiB of *virtual* span; host-scale runs may derive it from probed
    /// node memory instead.
    pub node_span_bytes: u64,
    /// Physical placement policy for local heaps and global chunks (§4.3).
    pub policy: AllocPolicy,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            chunk_size_bytes: 256 * 1024,
            local_heap_bytes: 512 * 1024,
            node_span_bytes: crate::shared::NODE_SPAN_BYTES,
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
            node_span_bytes: crate::shared::NODE_SPAN_BYTES,
            policy: AllocPolicy::Local,
        }
    }

    /// The validated geometry view of this configuration.
    pub fn geometry(&self) -> HeapGeometry {
        HeapGeometry {
            chunk_size_bytes: self.chunk_size_bytes,
            local_heap_bytes: self.local_heap_bytes,
            node_span_bytes: self.node_span_bytes,
        }
    }
}

/// Smallest accepted global-heap chunk, in bytes.
pub const MIN_CHUNK_BYTES: usize = 1024;
/// Smallest accepted per-vproc local heap, in bytes.
pub const MIN_LOCAL_HEAP_BYTES: usize = 4096;

/// The geometry knobs of a heap, validated as a unit.
///
/// Construct via [`HeapConfig::geometry`] and call
/// [`HeapGeometry::validate`] before building heaps from untrusted knobs
/// (CLI flags, environment overrides, probed host memory) — the heap
/// constructors `assert!` the same bounds, but this path reports a typed
/// violation instead of panicking mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapGeometry {
    /// Size of a global-heap chunk in bytes.
    pub chunk_size_bytes: usize,
    /// Size of each vproc's local heap in bytes.
    pub local_heap_bytes: usize,
    /// Bytes of global-heap address band per NUMA node.
    pub node_span_bytes: u64,
}

/// One violated heap-geometry bound (see [`HeapGeometry::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryViolation {
    /// A knob is below its minimum.
    BelowMinimum {
        /// The violating [`HeapConfig`] field.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
        /// The smallest accepted value.
        min: u64,
    },
    /// The node span is not a power of two (the `addr → node` shift
    /// arithmetic requires one).
    NotPowerOfTwo {
        /// The violating [`HeapConfig`] field.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
    },
    /// The node span exceeds the largest supported band.
    AboveMaximum {
        /// The violating [`HeapConfig`] field.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
        /// The largest accepted value.
        max: u64,
    },
}

impl HeapGeometry {
    /// Checks every geometry bound, reporting the first violation.
    ///
    /// # Errors
    ///
    /// Returns the violated bound: chunk and local-heap minimums, and for
    /// the node span — power-of-two shape, room for at least one chunk, and
    /// the [`MAX_NODE_SPAN_SHIFT`](crate::MAX_NODE_SPAN_SHIFT) ceiling that
    /// keeps band arithmetic inside `u64`.
    pub fn validate(&self) -> Result<(), GeometryViolation> {
        if self.chunk_size_bytes < MIN_CHUNK_BYTES {
            return Err(GeometryViolation::BelowMinimum {
                field: "chunk_size_bytes",
                bytes: self.chunk_size_bytes as u64,
                min: MIN_CHUNK_BYTES as u64,
            });
        }
        if self.local_heap_bytes < MIN_LOCAL_HEAP_BYTES {
            return Err(GeometryViolation::BelowMinimum {
                field: "local_heap_bytes",
                bytes: self.local_heap_bytes as u64,
                min: MIN_LOCAL_HEAP_BYTES as u64,
            });
        }
        if !self.node_span_bytes.is_power_of_two() {
            return Err(GeometryViolation::NotPowerOfTwo {
                field: "node_span_bytes",
                bytes: self.node_span_bytes,
            });
        }
        if self.node_span_bytes > 1 << crate::shared::MAX_NODE_SPAN_SHIFT {
            return Err(GeometryViolation::AboveMaximum {
                field: "node_span_bytes",
                bytes: self.node_span_bytes,
                max: 1 << crate::shared::MAX_NODE_SPAN_SHIFT,
            });
        }
        if self.node_span_bytes < self.chunk_size_bytes as u64 {
            return Err(GeometryViolation::BelowMinimum {
                field: "node_span_bytes",
                bytes: self.node_span_bytes,
                min: (self.chunk_size_bytes as u64).next_power_of_two(),
            });
        }
        Ok(())
    }
}

/// Which heap space an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// The nursery of a vproc's local heap.
    LocalNursery {
        /// Owning vproc.
        vproc: usize,
    },
    /// The young-data area of a vproc's local heap.
    LocalYoung {
        /// Owning vproc.
        vproc: usize,
    },
    /// The old-data area of a vproc's local heap.
    LocalOld {
        /// Owning vproc.
        vproc: usize,
    },
    /// Free space inside a vproc's local heap (no live object should be
    /// here; reported for diagnostics).
    LocalFree {
        /// Owning vproc.
        vproc: usize,
    },
    /// A global-heap chunk.
    Global {
        /// The chunk.
        chunk: ChunkId,
    },
    /// Outside every mapped region.
    Unmapped,
}

impl Space {
    /// True for any of the local-heap spaces.
    pub fn is_local(self) -> bool {
        matches!(
            self,
            Space::LocalNursery { .. }
                | Space::LocalYoung { .. }
                | Space::LocalOld { .. }
                | Space::LocalFree { .. }
        )
    }

    /// True for the global heap.
    pub fn is_global(self) -> bool {
        matches!(self, Space::Global { .. })
    }

    /// The owning vproc, for local spaces.
    pub fn vproc(self) -> Option<usize> {
        match self {
            Space::LocalNursery { vproc }
            | Space::LocalYoung { vproc }
            | Space::LocalOld { vproc }
            | Space::LocalFree { vproc } => Some(vproc),
            _ => None,
        }
    }
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
/// own. A vproc-keyed operation goes to that vproc's worker; an address-keyed
/// one classifies the address once and goes to the worker that owns it
/// (global addresses to worker 0 — every worker reads the global heap alike).
///
/// A collection of vproc `v` runs on `workers[v]` ([`GcHeap::worker_mut`]);
/// the whole machine takes part only around it, through its [`GcHeap`]
/// implementation: the foreign roots a major collection redirects
/// ([`GcHeap::redirect_foreign_roots`]) and the invariant walk over every
/// heap afterwards ([`GcHeap::verify_violations`]).
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
                .with_node_span_bytes(config.node_span_bytes)
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

    /// Points `vproc`'s subsequent promotions at `node` (the thief's node
    /// around a steal handoff, so the stolen graph lands there under
    /// [`PlacementPolicy::NodeLocal`]; the vproc's home node otherwise).
    pub fn set_promotion_target(&mut self, vproc: usize, node: NodeId) {
        self.workers[vproc].set_promotion_target(node);
    }

    /// The home node (core location) of a vproc.
    pub fn vproc_home_node(&self, vproc: usize) -> NodeId {
        self.workers[vproc].home_node()
    }

    /// Heap-wide counters.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            chunk_acquisitions: self.global.chunk_acquisitions(),
            evacuated_words: self.workers.iter().map(|w| w.stats().evacuated_words).sum(),
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

    /// A vproc's view of the heap.
    pub(crate) fn worker(&self, vproc: usize) -> &WorkerHeap {
        &self.workers[vproc]
    }

    /// Number of vprocs sharing this heap.
    pub fn num_vprocs(&self) -> usize {
        self.workers.len()
    }

    /// Borrow a vproc's local heap.
    #[inline]
    pub fn local(&self, vproc: usize) -> &LocalHeap {
        self.workers[vproc].local()
    }

    /// Classifies `addr` once: the index of the worker an access to it goes
    /// to, and what the layout says it is.
    #[inline]
    fn owner_of(&self, addr: Addr) -> (usize, ThreadedOwner) {
        let owner = self.layout.owner_of(addr);
        let worker = match owner {
            ThreadedOwner::Local(vproc) => vproc,
            _ => 0,
        };
        (worker, owner)
    }

    // ------------------------------------------------------------------
    // Object readers
    // ------------------------------------------------------------------

    /// The [`Place`] of a location [`Heap::resolve`] returned, indexed in
    /// the owning vproc's local heap or the chunk.
    #[inline(always)]
    pub fn place_of<'a>(&'a self, location: Location<'a>) -> Place<'a> {
        match location {
            Location::Local { vproc, .. } => self.workers[vproc].place_of(location),
            Location::Global(chunk, offset) => Place::Global(chunk, offset),
        }
    }

    /// Locates the object at `obj` in the worker that owns it
    /// ([`WorkerHeap::locate`]).
    ///
    /// # Panics
    ///
    /// Panics if `obj` is unmapped.
    #[inline]
    pub fn locate(&self, obj: Addr) -> Place<'_> {
        let (worker, owner) = self.owner_of(obj);
        self.workers[worker].place(owner, obj)
    }

    /// Which space `addr` belongs to.
    pub fn space_of(&self, addr: Addr) -> Space {
        let (worker, owner) = self.owner_of(addr);
        self.workers[worker].space_at(owner, addr)
    }

    /// The NUMA node whose memory backs `addr`.
    pub fn node_of(&self, addr: Addr) -> NodeId {
        let (worker, owner) = self.owner_of(addr);
        self.workers[worker].node_at(owner, addr)
    }

    // ------------------------------------------------------------------
    // Mutator allocation (into the nursery)
    // ------------------------------------------------------------------

    /// Allocates a raw-data object in `vproc`'s nursery.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed.
    pub fn alloc_raw(&mut self, vproc: usize, payload: &[Word]) -> Result<Addr, HeapError> {
        self.alloc_raw_with(vproc, payload.len(), |i| payload[i])
    }

    /// Allocates a raw-data object of `len` words in `vproc`'s nursery,
    /// word `i` written in place as `fill(i)`
    /// ([`WorkerHeap::alloc_raw_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed;
    /// `fill` is then never called.
    #[inline]
    pub fn alloc_raw_with(
        &mut self,
        vproc: usize,
        len: usize,
        fill: impl FnMut(usize) -> Word,
    ) -> Result<Addr, HeapError> {
        self.workers[vproc].alloc_raw_with(len, fill)
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

    /// Allocates a mixed-type object in `vproc`'s nursery.
    ///
    /// # Errors
    ///
    /// As [`WorkerHeap::alloc_mixed`].
    pub fn alloc_mixed(
        &mut self,
        vproc: usize,
        descriptor: DescriptorId,
        payload: &[Word],
    ) -> Result<Addr, HeapError> {
        self.workers[vproc].alloc_mixed(descriptor, payload)
    }

    // ------------------------------------------------------------------
    // Collector allocation (global chunks)
    // ------------------------------------------------------------------

    /// Acquires a fresh current chunk for `vproc`, retiring the previous one
    /// (if any) to the filled state. Returns the new chunk.
    ///
    /// This corresponds to the synchronisation point of §3.3: in the real
    /// runtime this takes a node-local or global lock; here we count it in
    /// [`HeapStats::chunk_acquisitions`] so the scheduler can charge for it.
    pub fn fresh_current_chunk(&mut self, vproc: usize) -> ChunkId {
        self.workers[vproc].fresh_current_chunk()
    }

    /// Drops `vproc`'s claim on its current chunk, marking it filled.
    pub fn retire_current_chunk(&mut self, vproc: usize) {
        self.workers[vproc].retire_current_chunk();
    }

    /// Allocates an object with an explicit header into `vproc`'s current
    /// global chunk, acquiring a fresh chunk transparently when the current
    /// one fills up or sits on the wrong node.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ObjectTooLarge`] if the object cannot fit in any
    /// chunk.
    pub fn alloc_in_global(
        &mut self,
        vproc: usize,
        header: Word,
        payload: &[Word],
    ) -> Result<Addr, HeapError> {
        self.workers[vproc].alloc_in_global(header, payload)
    }
}

impl GcHeap for Heap {
    #[inline]
    fn worker_mut(&mut self, vproc: usize) -> &mut WorkerHeap {
        &mut self.workers[vproc]
    }

    /// The simulated machine hands every vproc's local collection its
    /// shared roots (`Machine::gather_roots`): join slots, continuations,
    /// channel queues and proxies, some of them in other vprocs' heaps.
    fn redirect_foreign_roots(&self, vproc: usize, roots: &mut [Addr]) {
        for root in roots.iter_mut() {
            let (worker, owner) = self.owner_of(*root);
            if matches!(owner, ThreadedOwner::Local(v) if v != vproc) {
                let slot = self.workers[worker].place(owner, *root).header_slot();
                *root = slot.forwarded_to().unwrap_or(*root);
            }
        }
    }

    /// The simulated backend's read path: the address is classified once,
    /// and the worker that owns it (its vproc for a local address, worker 0
    /// for a global one) runs the read rule from that classification.
    #[inline(always)]
    fn resolve<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        addr: Addr,
        global_may_forward: bool,
    ) -> Resolved<'g> {
        let (worker, owner) = self.owner_of(addr);
        self.workers[worker].resolve_from(global, owner, addr, global_may_forward)
    }

    #[inline]
    fn is_local(&self, addr: Addr) -> bool {
        matches!(self.layout.owner_of(addr), ThreadedOwner::Local(_))
    }

    #[inline]
    fn is_global(&self, addr: Addr) -> bool {
        matches!(self.layout.owner_of(addr), ThreadedOwner::Global { .. })
    }

    /// # Panics
    ///
    /// Panics if `obj` is unmapped.
    #[inline]
    fn read_field(&self, obj: Addr, index: usize) -> Word {
        self.locate(obj).read(index)
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
        assert_eq!(heap.local(0).node(), NodeId::new(0));
        assert_eq!(heap.local(1).node(), NodeId::new(1));
        assert_eq!(heap.vproc_home_node(1), NodeId::new(1));
        // Both local heaps are mapped, back to back; no chunk is yet.
        let last_word = heap
            .local(1)
            .base()
            .add_words(heap.local(1).size_words() - 1);
        assert_eq!(heap.space_of(last_word), Space::LocalFree { vproc: 1 });
        assert_eq!(heap.layout.local_base(1), heap.local(1).base());
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
            let (sim, threaded) = (heap.local(vproc), worker.local());
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
        assert_eq!(HeapConfig::default().geometry().validate(), Ok(()));
        assert_eq!(HeapConfig::small_for_tests().geometry().validate(), Ok(()));
        // Chunk and local-heap minimums are the classic bounds.
        let tiny_chunk = HeapConfig {
            chunk_size_bytes: 64,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            tiny_chunk.geometry().validate(),
            Err(GeometryViolation::BelowMinimum {
                field: "chunk_size_bytes",
                bytes: 64,
                min: MIN_CHUNK_BYTES as u64,
            })
        );
        // A non-power-of-two span breaks the addr→node shift.
        let crooked = HeapConfig {
            node_span_bytes: (1 << 30) + 512,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            crooked.geometry().validate(),
            Err(GeometryViolation::NotPowerOfTwo {
                field: "node_span_bytes",
                bytes: (1 << 30) + 512,
            })
        );
        // A span smaller than one chunk can never map anything.
        let sliver = HeapConfig {
            node_span_bytes: 1024,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            sliver.geometry().validate(),
            Err(GeometryViolation::BelowMinimum {
                field: "node_span_bytes",
                bytes: 1024,
                min: 4096,
            })
        );
        // The ceiling keeps band arithmetic inside u64 for any NodeId.
        let vast = HeapConfig {
            node_span_bytes: 1 << 50,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            vast.geometry().validate(),
            Err(GeometryViolation::AboveMaximum {
                field: "node_span_bytes",
                bytes: 1 << 50,
                max: 1 << crate::shared::MAX_NODE_SPAN_SHIFT,
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
        assert_eq!(heap.local(1).node(), NodeId::new(0));
        let chunk = heap.fresh_current_chunk(1);
        assert_eq!(heap.global().chunk(chunk).node(), NodeId::new(0));
        // Every lease comes from node 0 whatever the consumer's node, so a
        // node-0 chunk is never "on the wrong node": allocating for a
        // consumer on node 1 keeps filling it instead of leasing per object.
        heap.set_promotion_target(1, NodeId::new(1));
        let header = Header::new(ObjectKind::Raw, 1).encode();
        for _ in 0..8 {
            heap.alloc_in_global(1, header, &[7]).unwrap();
        }
        assert_eq!(heap.worker(1).current_chunk().unwrap().id(), chunk);
        assert_eq!(heap.stats().chunk_acquisitions, 1);
    }

    #[test]
    fn alloc_and_read_back_raw_object() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        assert_eq!(heap.space_of(obj), Space::LocalNursery { vproc: 0 });
        assert_eq!(heap.locate(obj).header().len_words, 3);
        assert_eq!(heap.locate(obj).payload(), vec![1, 2, 3]);
        assert_eq!(heap.read_field(obj, 2), 3);
        assert_eq!(heap.locate(obj).header().total_bytes(), 32);
        assert_eq!(heap.node_of(obj), NodeId::new(0));
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
        let obj = heap.alloc_mixed(0, desc, &[5, a.raw()]).unwrap();
        let header = heap.locate(obj).header();
        assert!(heap
            .worker(0)
            .pointer_field_indices(header)
            .unwrap()
            .eq([1]));
        // Wrong payload size is rejected.
        assert!(matches!(
            heap.alloc_mixed(0, desc, &[1]),
            Err(HeapError::PayloadSizeMismatch { .. })
        ));
    }

    /// Evacuates the object at `obj`, in `vproc`'s local heap, to `target`.
    fn evacuate(heap: &mut Heap, vproc: usize, obj: Addr, target: EvacTarget) -> (Addr, usize) {
        let worker = heap.worker_mut(vproc);
        let found = worker.find(obj).unwrap();
        let header = found.slot.expect_header();
        worker.evacuate(found.offset, header, target).unwrap()
    }

    #[test]
    fn evacuate_to_old_area_installs_forward() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(0, &[9, 8]).unwrap();
        heap.worker_mut(0).local_mut().begin_minor();
        let (copy, bytes) = evacuate(&mut heap, 0, obj, EvacTarget::OldArea);
        assert_eq!(bytes, 24);
        assert_eq!(heap.locate(obj).header_slot().forwarded_to(), Some(copy));
        assert_eq!(heap.locate(copy).payload(), vec![9, 8]);
        assert_eq!(heap.space_of(copy), Space::LocalYoung { vproc: 0 });
        assert_eq!(heap.stats().evacuated_words, 3);
    }

    #[test]
    fn evacuate_to_global_uses_current_chunk() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(1, &[4]).unwrap();
        let (copy, _) = evacuate(&mut heap, 1, obj, EvacTarget::GlobalCurrent);
        assert!(heap.is_global(copy));
        assert_eq!(heap.node_of(copy), NodeId::new(1));
        assert_eq!(heap.locate(copy).payload(), vec![4]);
        assert_eq!(heap.stats().chunk_acquisitions, 1);
    }

    #[test]
    fn resolve_chases_a_local_forward_and_names_the_node_of_the_copy() {
        let mut heap = two_vproc_heap();
        let global = heap.global().clone();
        let obj = heap.alloc_raw(1, &[4, 5]).unwrap();
        let found = heap.resolve(&global, obj, false);
        assert_eq!((found.addr, found.node), (obj, NodeId::new(1)));
        assert!(heap.place_of(found.location).is_local());
        // Promote vproc 1's object into a chunk on node 0.
        heap.set_promotion_target(1, NodeId::new(0));
        let (copy, _) = evacuate(&mut heap, 1, obj, EvacTarget::GlobalCurrent);
        let found = heap.resolve(&global, obj, false);
        assert_eq!((found.addr, found.node), (copy, NodeId::new(0)));
        let place = heap.place_of(found.location);
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
        heap.alloc_in_global(0, header, &big).unwrap();
        let first = heap.worker(0).current_chunk().unwrap().id();
        // This one does not fit; a fresh chunk is acquired transparently.
        let header2 = Header::new(ObjectKind::Raw, 4).encode();
        let obj = heap.alloc_in_global(0, header2, &[1, 2, 3, 4]).unwrap();
        let second = heap.worker(0).current_chunk().unwrap().id();
        assert_ne!(first, second);
        assert_eq!(heap.space_of(obj), Space::Global { chunk: second });
        assert_eq!(heap.global().chunk(first).state(), SharedChunkState::Filled);
    }

    #[test]
    fn oversized_global_objects_are_rejected() {
        let mut heap = two_vproc_heap();
        let too_big = vec![0u64; heap.global().chunk_size_words() + 1];
        let header = Header::new(ObjectKind::Raw, too_big.len() as u64).encode();
        assert!(matches!(
            heap.alloc_in_global(0, header, &too_big),
            Err(HeapError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn space_resolution_distinguishes_regions() {
        let mut heap = two_vproc_heap();
        let nursery_obj = heap.alloc_raw(0, &[1]).unwrap();
        assert!(heap.space_of(nursery_obj).is_local());
        assert_eq!(heap.space_of(nursery_obj).vproc(), Some(0));
        let chunk = heap.fresh_current_chunk(0);
        let base = heap.global().chunk(chunk).base();
        assert_eq!(heap.space_of(base), Space::Global { chunk });
        assert!(heap.space_of(base).is_global());
        assert_eq!(heap.space_of(Addr::new(8)), Space::Unmapped);
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
        let chunk = heap.fresh_current_chunk(0);
        heap.retire_current_chunk(0);
        assert!(heap.worker(0).current_chunk().is_none());
        assert_eq!(heap.global().chunk(chunk).state(), SharedChunkState::Filled);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_home_node_rejected() {
        let _ = Heap::new(HeapConfig::small_for_tests(), &[NodeId::new(9)], 2);
    }
}
