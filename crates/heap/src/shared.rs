//! The concurrent heap substrate for the real-threads execution backend.
//!
//! The discrete-event simulation owns every memory region from one thread,
//! so its [`Heap`](crate::Heap) can be a plain data structure. Running each
//! vproc on a real OS thread splits the picture exactly along the paper's
//! §3.3 synchronisation boundary:
//!
//! * each worker thread **owns** its [`LocalHeap`] outright — allocation,
//!   minor collections, and major collections touch only thread-local state
//!   and take **no locks at all**;
//! * the **global heap** is shared: chunks store their words in
//!   [`AtomicU64`]s (the mutator language is mutation-free, so global
//!   objects are immutable outside collections and plain acquire/release
//!   atomics suffice), the chunk pool is the lock-free Treiber-stack
//!   [`SharedChunkPool`] — so the promotion path's only synchronisation is
//!   a handful of CAS operations per chunk lease — and the chunk directory
//!   is an append-only list behind an [`RwLock`] that workers shadow with a
//!   thread-local cache so the common-case global read takes no lock.
//!
//! Address arithmetic replaces the simulation's
//! [`AddressSpace`](crate::AddressSpace): worker `w`'s local heap lives at
//! `LOCAL_BASE + w * local_span`, and the global heap is **partitioned by
//! NUMA node** — node `n`'s chunks live in the address band
//! `GLOBAL_BASE + n * NODE_SPAN_BYTES ..`, chunk `i` of that node at
//! `band_base + i * chunk_span`. Classifying an address *and finding the
//! node that backs it* are therefore pure arithmetic; no shared state, no
//! chunk-directory lookup.

use crate::addr::{Addr, Word, WORD_BYTES};
use crate::chunk::ChunkId;
use crate::descriptor::DescriptorTable;
use crate::error::HeapError;
use crate::gc_heap::GcHeap;
use crate::global::SharedChunkPool;
use crate::header::{Header, HeaderSlot, ObjectKind};
use crate::heap::{EvacTarget, HeapConfig, HeapStats, Space};
use crate::local::{LocalHeap, LocalRegion};
use mgc_numa::{NodeId, PlacementPolicy};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Base address of the first worker's local heap.
pub const LOCAL_BASE: u64 = 1 << 20;
/// Base address of the shared global heap (far above any local heap).
pub const GLOBAL_BASE: u64 = 1 << 44;
/// log2 of the *default* per-node global-heap address band
/// ([`HeapConfig::node_span_bytes`] can override the span per heap).
pub const NODE_SPAN_SHIFT: u32 = 38;
/// Default bytes of global-heap address space reserved per NUMA node
/// (256 GiB of *virtual* span — chunks are only mapped as they are
/// acquired). Because every node owns one contiguous band, `addr → node`
/// is a shift. Heaps sized from probed host memory pass their own
/// power-of-two span through [`HeapConfig::node_span_bytes`].
pub const NODE_SPAN_BYTES: u64 = 1 << NODE_SPAN_SHIFT;
/// Largest accepted per-node span (64 TiB): keeps
/// `GLOBAL_BASE + node * span + offset` inside `u64` for every
/// representable [`NodeId`].
pub const MAX_NODE_SPAN_SHIFT: u32 = 46;

/// The NUMA node whose address band contains the global-heap address
/// `addr`, by pure arithmetic. `None` for non-global addresses and for
/// addresses whose band index does not fit a [`NodeId`] (garbage pointers
/// far past any real machine's node count).
pub fn global_node_of(addr: Addr) -> Option<NodeId> {
    let raw = addr.raw();
    if raw < GLOBAL_BASE {
        return None;
    }
    let band = (raw - GLOBAL_BASE) >> NODE_SPAN_SHIFT;
    (band <= u64::from(u16::MAX)).then(|| NodeId::new(band as u16))
}

/// Chunks per directory segment. Small enough that a heap with a handful of
/// chunks wastes little, large enough that a GB-scale heap (hundreds of
/// thousands of chunks) stays at a few hundred segments.
pub const DIR_SEG_CHUNKS: usize = 512;

/// One append-only segment of a [`ChunkDirectory`]. Slots are `OnceLock`s:
/// a published entry never moves and never changes, so holders of a segment
/// `Arc` read it without any lock — including entries published *after*
/// they snapshotted the segment list.
#[derive(Debug)]
pub struct DirSegment {
    slots: Vec<std::sync::OnceLock<Arc<SharedChunk>>>,
}

impl DirSegment {
    fn new() -> Self {
        DirSegment {
            slots: (0..DIR_SEG_CHUNKS)
                .map(|_| std::sync::OnceLock::new())
                .collect(),
        }
    }

    /// The chunk in `slot`, if one has been published there.
    pub fn get(&self, slot: usize) -> Option<&Arc<SharedChunk>> {
        self.slots[slot].get()
    }
}

/// A growable chunk directory: an append-only list of fixed-size
/// [`DirSegment`]s. Unlike a flat `Vec`, growth *appends a segment* — no
/// existing entry is ever moved or reallocated — so readers holding segment
/// `Arc`s (worker thread-local caches, GC work-index snapshots) stay valid
/// across concurrent growth, and refreshing a snapshot clones only the
/// segment list (O(chunks / [`DIR_SEG_CHUNKS`])), not every chunk `Arc`.
#[derive(Debug)]
pub struct ChunkDirectory {
    segments: RwLock<Vec<Arc<DirSegment>>>,
    /// Published length: entries `0..len` are readable. Bumped with
    /// `Release` *after* the slot's `OnceLock` is set.
    len: AtomicUsize,
}

impl ChunkDirectory {
    fn new() -> Self {
        ChunkDirectory {
            segments: RwLock::new(Vec::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no chunk has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunk at `index`, if published.
    pub fn get(&self, index: usize) -> Option<Arc<SharedChunk>> {
        if index >= self.len() {
            return None;
        }
        let segments = self.segments.read().expect("chunk directory poisoned");
        segments
            .get(index / DIR_SEG_CHUNKS)?
            .get(index % DIR_SEG_CHUNKS)
            .cloned()
    }

    /// Appends a chunk, growing by a fresh segment when the last one is
    /// full, and returns its index. Appends are serialised by the caller
    /// (the heap's acquire path holds the flat directory's append lock);
    /// concurrent readers are never blocked out of published entries.
    fn push(&self, chunk: Arc<SharedChunk>) -> usize {
        let index = self.len.load(Ordering::Relaxed);
        let (seg, slot) = (index / DIR_SEG_CHUNKS, index % DIR_SEG_CHUNKS);
        if slot == 0 {
            self.segments
                .write()
                .expect("chunk directory poisoned")
                .push(Arc::new(DirSegment::new()));
        }
        {
            let segments = self.segments.read().expect("chunk directory poisoned");
            segments[seg].slots[slot]
                .set(chunk)
                .expect("directory slots are published exactly once");
        }
        self.len.store(index + 1, Ordering::Release);
        index
    }

    /// A point-in-time view sharing the directory's segments.
    pub fn snapshot(&self) -> DirectorySnapshot {
        DirectorySnapshot {
            segments: self
                .segments
                .read()
                .expect("chunk directory poisoned")
                .clone(),
        }
    }

    /// Materialises the published entries as a flat vector (index order).
    pub fn to_vec(&self) -> Vec<Arc<SharedChunk>> {
        let len = self.len();
        let snapshot = self.snapshot();
        (0..len)
            .map(|i| {
                snapshot
                    .get(i)
                    .expect("published entries are readable")
                    .clone()
            })
            .collect()
    }
}

/// A lock-free view of a [`ChunkDirectory`] taken at some instant. Because
/// segments are append-only, a snapshot can also resolve entries published
/// *after* it was taken, as long as they landed in a segment it already
/// holds — which is what lets worker caches go many promotions between
/// refreshes.
#[derive(Debug, Clone, Default)]
pub struct DirectorySnapshot {
    segments: Vec<Arc<DirSegment>>,
}

impl DirectorySnapshot {
    /// The chunk at `index`, if it is visible through this snapshot.
    pub fn get(&self, index: usize) -> Option<&Arc<SharedChunk>> {
        self.segments
            .get(index / DIR_SEG_CHUNKS)?
            .get(index % DIR_SEG_CHUNKS)
    }
}

/// Lifecycle state of a shared chunk (the payload-free counterpart of
/// [`ChunkState`](crate::ChunkState); the owning vproc of a current chunk is
/// implicit in which worker holds the `Arc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SharedChunkState {
    /// On the free pool.
    Free = 0,
    /// Some worker's current allocation chunk.
    Current = 1,
    /// Filled with live data, nobody's current chunk.
    Filled = 2,
    /// From-space during a global collection.
    FromSpace = 3,
}

impl SharedChunkState {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => SharedChunkState::Free,
            1 => SharedChunkState::Current,
            2 => SharedChunkState::Filled,
            3 => SharedChunkState::FromSpace,
            other => unreachable!("invalid shared chunk state {other}"),
        }
    }
}

/// One fixed-size chunk of the shared global heap.
///
/// Words are atomics so that a worker can bump-allocate promotions into its
/// current chunk while other workers concurrently read objects already
/// published in the same chunk. A chunk has a single writer at any moment:
/// the worker holding it as its current chunk (or, during a global
/// collection, the worker that claimed it off the work index).
#[derive(Debug)]
pub struct SharedChunk {
    id: ChunkId,
    base: Addr,
    /// The chunk's NUMA node. Immutable: the node is baked into the chunk's
    /// address band, so a chunk can never migrate.
    node: NodeId,
    state: AtomicU8,
    /// Bump pointer: next free word offset. Published with `Release` after
    /// the object's words are written, so an `Acquire` reader never sees a
    /// partially initialised object.
    top: AtomicUsize,
    /// Cheney scan pointer used by the parallel global collection.
    scan: AtomicUsize,
    data: Vec<AtomicU64>,
}

impl SharedChunk {
    fn new(id: ChunkId, base: Addr, node: NodeId, size_words: usize) -> Self {
        SharedChunk {
            id,
            base,
            node,
            state: AtomicU8::new(SharedChunkState::Free as u8),
            top: AtomicUsize::new(0),
            scan: AtomicUsize::new(0),
            data: (0..size_words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// This chunk's identifier.
    pub fn id(&self) -> ChunkId {
        self.id
    }

    /// Base address of the chunk.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The NUMA node whose address band (and, physically, whose DRAM) backs
    /// this chunk. Always equal to [`global_node_of`] of any address inside
    /// the chunk.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The chunk's lifecycle state.
    pub fn state(&self) -> SharedChunkState {
        SharedChunkState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Sets the lifecycle state.
    pub fn set_state(&self, state: SharedChunkState) {
        self.state.store(state as u8, Ordering::Release);
    }

    /// Capacity in words.
    pub fn size_words(&self) -> usize {
        self.data.len()
    }

    /// Words currently allocated (published).
    pub fn used_words(&self) -> usize {
        self.top.load(Ordering::Acquire)
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.used_words() * WORD_BYTES
    }

    /// Words still free.
    pub fn free_words(&self) -> usize {
        self.data.len() - self.used_words()
    }

    /// True if `addr` lies inside this chunk.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base.add_words(self.data.len())
    }

    /// Word offset of `addr` within the chunk.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chunk.
    pub fn offset_of(&self, addr: Addr) -> usize {
        assert!(self.contains(addr), "{addr:?} is not inside {:?}", self.id);
        addr.words_from(self.base)
    }

    /// Reads the word at word offset `offset`.
    pub fn read(&self, offset: usize) -> Word {
        self.data[offset].load(Ordering::Acquire)
    }

    /// Writes the word at word offset `offset`.
    pub fn write(&self, offset: usize, value: Word) {
        self.data[offset].store(value, Ordering::Release);
    }

    /// Bump-allocates an object. Only the worker currently owning the chunk
    /// may call this (single writer); concurrent readers are fine.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ChunkFull`] when the object does not fit.
    pub fn alloc(&self, header: Word, payload: &[Word]) -> Result<Addr, HeapError> {
        assert!(
            !payload.is_empty(),
            "empty objects are not supported; allocate a one-word raw object instead"
        );
        let total = payload.len() + 1;
        let top = self.top.load(Ordering::Relaxed);
        if self.data.len() - top < total {
            return Err(HeapError::ChunkFull {
                requested_words: total,
            });
        }
        self.data[top].store(header, Ordering::Release);
        for (i, &word) in payload.iter().enumerate() {
            self.data[top + 1 + i].store(word, Ordering::Release);
        }
        // Publish the object: readers that see the new top see every word.
        self.top.store(top + total, Ordering::Release);
        Ok(self.base.add_words(top + 1))
    }

    /// Atomically installs a forwarding pointer in the header slot of the
    /// object at `obj`, if the slot still holds `expected_header`.
    ///
    /// Used by the parallel global collection: when two workers race to
    /// evacuate the same from-space object, exactly one CAS succeeds; the
    /// loser's already-made copy becomes unreachable garbage and the loser
    /// returns the winner's address.
    ///
    /// # Errors
    ///
    /// Returns the winning forwarding address when the CAS loses.
    pub fn try_forward(
        &self,
        obj: Addr,
        expected_header: Word,
        new_addr: Addr,
    ) -> Result<(), Addr> {
        let slot = self.offset_of(obj.sub_words(1));
        match self.data[slot].compare_exchange(
            expected_header,
            new_addr.raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(current) => match HeaderSlot::decode(current) {
                HeaderSlot::Forwarded(winner) => Err(winner),
                HeaderSlot::Header(_) => unreachable!(
                    "header slot of {obj:?} changed to a different header during a collection"
                ),
            },
        }
    }

    /// The Cheney scan pointer.
    pub fn scan(&self) -> usize {
        self.scan.load(Ordering::Acquire)
    }

    /// Sets the Cheney scan pointer.
    pub fn set_scan(&self, scan: usize) {
        self.scan.store(scan, Ordering::Release);
    }

    /// Resets the chunk to empty and [`SharedChunkState::Free`].
    pub fn reset(&self) {
        self.top.store(0, Ordering::Release);
        self.scan.store(0, Ordering::Release);
        for word in &self.data {
            word.store(0, Ordering::Relaxed);
        }
        self.set_state(SharedChunkState::Free);
    }
}

/// The shared global heap of the real-threads backend, **partitioned by
/// NUMA node**: each node owns a contiguous address band (so `addr → node`
/// is arithmetic, see [`global_node_of`]), its own append-only chunk
/// directory, and its own lock-free Treiber free stack inside the
/// [`SharedChunkPool`]. A flat directory linearises every chunk for the
/// parallel collection's work index.
#[derive(Debug)]
pub struct SharedGlobalHeap {
    chunk_size_words: usize,
    num_nodes: usize,
    /// Which node's pool promotion chunks are leased from (see
    /// [`PlacementPolicy`]); fixed at construction. `Adaptive` is resolved
    /// per lease by the caller through [`SharedGlobalHeap::acquire_as`].
    placement: PlacementPolicy,
    /// Bytes of address band per node (a power of two; default
    /// [`NODE_SPAN_BYTES`]).
    node_span_bytes: u64,
    /// Flat, append-only directory in [`ChunkId`] order (the parallel GC's
    /// work index iterates it).
    chunks: ChunkDirectory,
    /// Per-node directories in address order: `by_node[n]` entry `i` is the
    /// chunk at `GLOBAL_BASE + n * node_span_bytes + i * chunk_size_bytes`.
    by_node: Vec<ChunkDirectory>,
    /// Serialises fresh-chunk mapping (id assignment + the two directory
    /// appends); pooled reuse never takes it.
    grow: std::sync::Mutex<()>,
    pool: SharedChunkPool,
    chunks_in_use: AtomicUsize,
    /// `chunks_in_use` at the end of the last global collection.
    chunks_after_last_collection: AtomicUsize,
    chunks_created: AtomicU64,
    /// Round-robin cursor for [`PlacementPolicy::Interleave`].
    interleave_cursor: AtomicUsize,
}

impl SharedGlobalHeap {
    /// Creates an empty shared global heap with the default
    /// ([`PlacementPolicy::NodeLocal`]) placement and the default
    /// [`NODE_SPAN_BYTES`] per-node address band.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size_words` or `num_nodes` is zero.
    pub fn new(chunk_size_words: usize, num_nodes: usize) -> Self {
        assert!(chunk_size_words > 0, "chunks must be non-empty");
        assert!(num_nodes > 0, "a machine must have at least one node");
        SharedGlobalHeap {
            chunk_size_words,
            num_nodes,
            placement: PlacementPolicy::NodeLocal,
            node_span_bytes: NODE_SPAN_BYTES,
            chunks: ChunkDirectory::new(),
            by_node: (0..num_nodes).map(|_| ChunkDirectory::new()).collect(),
            grow: std::sync::Mutex::new(()),
            pool: SharedChunkPool::new(num_nodes),
            chunks_in_use: AtomicUsize::new(0),
            chunks_after_last_collection: AtomicUsize::new(0),
            chunks_created: AtomicU64::new(0),
            interleave_cursor: AtomicUsize::new(0),
        }
    }

    /// Sets the chunk-lease placement policy (builder-style; call before the
    /// heap is shared between threads).
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the per-node address-band span (builder-style; call before any
    /// chunk is mapped). Heaps sized from probed host memory pass the
    /// validated [`HeapConfig::node_span_bytes`] here.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two, is smaller than one chunk,
    /// or exceeds `1 << `[`MAX_NODE_SPAN_SHIFT`] (callers validate through
    /// [`HeapGeometry`](crate::HeapGeometry) to get a typed error instead).
    pub fn with_node_span_bytes(mut self, bytes: u64) -> Self {
        assert!(
            bytes.is_power_of_two(),
            "the node span must be a power of two"
        );
        assert!(
            bytes >= self.chunk_size_bytes() as u64,
            "the node span must fit at least one chunk"
        );
        assert!(
            bytes <= 1 << MAX_NODE_SPAN_SHIFT,
            "the node span exceeds the supported maximum band"
        );
        self.node_span_bytes = bytes;
        self
    }

    /// The chunk-lease placement policy.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Bytes of global-heap address band per node.
    pub fn node_span_bytes(&self) -> u64 {
        self.node_span_bytes
    }

    /// Resolves a lease node under an explicit *effective* policy. This is
    /// how [`PlacementPolicy::Adaptive`] reaches the heap: the runtime's
    /// controller resolves the adaptive mode to node-local or interleave
    /// first, so the heap only ever executes static behaviours (an
    /// unresolved `Adaptive` behaves as node-local, its cold-start mode).
    pub fn place_node_as(&self, effective: PlacementPolicy, preferred: NodeId) -> NodeId {
        match effective {
            PlacementPolicy::NodeLocal
            | PlacementPolicy::FirstTouch
            | PlacementPolicy::Adaptive => preferred,
            PlacementPolicy::Interleave => {
                let next = self.interleave_cursor.fetch_add(1, Ordering::Relaxed);
                NodeId::new((next % self.num_nodes) as u16)
            }
        }
    }

    /// Chunk size in words.
    pub fn chunk_size_words(&self) -> usize {
        self.chunk_size_words
    }

    /// Chunk size in bytes.
    pub fn chunk_size_bytes(&self) -> usize {
        self.chunk_size_words * WORD_BYTES
    }

    /// Number of NUMA nodes the free pool is segregated by.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The free pool (for inspection).
    pub fn pool(&self) -> &SharedChunkPool {
        &self.pool
    }

    /// Total chunks ever created.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks created from fresh address space.
    pub fn chunks_created(&self) -> u64 {
        self.chunks_created.load(Ordering::Relaxed)
    }

    /// Number of chunks currently in use (not on the free pool).
    pub fn chunks_in_use(&self) -> usize {
        self.chunks_in_use.load(Ordering::Acquire)
    }

    /// Bytes of chunk space in use — the global-collection trigger input
    /// (§3.4).
    pub fn bytes_in_use(&self) -> usize {
        self.chunks_in_use() * self.chunk_size_bytes()
    }

    /// Bytes of chunk space that were in use when the last global collection
    /// finished (0 before the first) — what the proportional trigger scales.
    pub fn bytes_after_last_collection(&self) -> usize {
        self.chunks_after_last_collection.load(Ordering::Acquire) * self.chunk_size_bytes()
    }

    /// Records the current occupancy as what the global collection that just
    /// released its from-space chunks retained. Leader-only, inside the
    /// collection's final barrier: the barrier orders this store before
    /// every worker's next trigger check, so all of them read one value.
    pub fn mark_collection_end(&self) {
        self.chunks_after_last_collection
            .store(self.chunks_in_use(), Ordering::Release);
    }

    /// A snapshot of the chunk directory.
    pub fn snapshot(&self) -> Vec<Arc<SharedChunk>> {
        self.chunks.to_vec()
    }

    /// The chunk at directory index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn chunk_at(&self, index: usize) -> Arc<SharedChunk> {
        self.chunks
            .get(index)
            .expect("chunk index out of directory range")
    }

    /// Acquires a chunk for a worker whose preferred (consumer) node is
    /// `preferred`, first resolving the actual node through the placement
    /// policy, then reusing a chunk pooled on that node, otherwise mapping a
    /// fresh one in the node's address band. The returned chunk is in
    /// [`SharedChunkState::Current`].
    pub fn acquire(&self, preferred: NodeId) -> Arc<SharedChunk> {
        self.acquire_as(self.placement, preferred)
    }

    /// [`SharedGlobalHeap::acquire`] under an explicit effective policy
    /// (see [`SharedGlobalHeap::place_node_as`]).
    pub fn acquire_as(&self, effective: PlacementPolicy, preferred: NodeId) -> Arc<SharedChunk> {
        let node = self.place_node_as(effective, preferred);
        if let Some(id) = self.pool.pop(node) {
            let chunk = self.chunk_at(id.index());
            debug_assert_eq!(chunk.state(), SharedChunkState::Free);
            chunk.set_state(SharedChunkState::Current);
            self.chunks_in_use.fetch_add(1, Ordering::AcqRel);
            return chunk;
        }
        // Map a fresh chunk in `node`'s address band. The grow mutex
        // serialises id assignment and the two directory appends; readers
        // are never blocked (directories grow by appending segments, so
        // published entries stay valid throughout).
        let _grow = self.grow.lock().expect("grow lock poisoned");
        let on_node = &self.by_node[node.index()];
        let id = ChunkId(self.chunks.len() as u32);
        let index_on_node = on_node.len();
        let offset = (index_on_node as u64) * self.chunk_size_bytes() as u64;
        assert!(
            offset + self.chunk_size_bytes() as u64 <= self.node_span_bytes,
            "node {node} exhausted its {}-byte global-heap address band",
            self.node_span_bytes
        );
        let base = Addr::new(GLOBAL_BASE + (node.index() as u64) * self.node_span_bytes + offset);
        let chunk = Arc::new(SharedChunk::new(id, base, node, self.chunk_size_words));
        chunk.set_state(SharedChunkState::Current);
        self.chunks.push(chunk.clone());
        on_node.push(chunk.clone());
        self.chunks_created.fetch_add(1, Ordering::Relaxed);
        self.chunks_in_use.fetch_add(1, Ordering::AcqRel);
        chunk
    }

    /// Returns a chunk to the free pool, clearing its contents.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is already free.
    pub fn release(&self, chunk: &SharedChunk) {
        assert!(
            chunk.state() != SharedChunkState::Free,
            "{:?} released while already free",
            chunk.id()
        );
        chunk.reset();
        self.pool.push(chunk.node(), chunk.id());
        self.chunks_in_use.fetch_sub(1, Ordering::AcqRel);
    }

    /// A segment-sharing snapshot of one node's directory (what worker
    /// caches hold — refreshing clones segment `Arc`s, not chunk `Arc`s).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn snapshot_node_dir(&self, node: NodeId) -> DirectorySnapshot {
        self.by_node[node.index()].snapshot()
    }

    /// Number of chunks mapped in `node`'s address band.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn chunks_on_node(&self, node: NodeId) -> usize {
        self.by_node[node.index()].len()
    }
}

/// The fixed address-space layout of a threaded machine: pure arithmetic
/// replaces the simulation's shared [`AddressSpace`](crate::AddressSpace),
/// so classifying an address is lock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadedLayout {
    num_vprocs: usize,
    num_nodes: usize,
    /// Words per local heap (also the per-worker address stride).
    local_words: usize,
    /// Words per global chunk.
    chunk_words: usize,
    /// log2 of the per-node global-heap address band (from
    /// [`HeapConfig::node_span_bytes`]).
    node_span_shift: u32,
}

/// Who owns an address under a [`ThreadedLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadedOwner {
    /// Inside vproc `0`'s..`n`'s local heap.
    Local(usize),
    /// Inside the global heap: chunk `index` of `node`'s address band (the
    /// index may exceed the number of chunks actually mapped; callers
    /// bound-check against the node directory).
    Global {
        /// The NUMA node whose band contains the address.
        node: usize,
        /// The chunk index within that node's band.
        index: usize,
    },
    /// Outside every region.
    Unmapped,
}

impl ThreadedLayout {
    /// Builds the layout for `num_vprocs` workers on a machine with
    /// `num_nodes` NUMA nodes under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vprocs` or `num_nodes` is zero.
    pub fn new(config: &HeapConfig, num_vprocs: usize, num_nodes: usize) -> Self {
        assert!(num_vprocs > 0, "at least one vproc is required");
        assert!(num_nodes > 0, "a machine must have at least one node");
        let chunk_words = (config.chunk_size_bytes / WORD_BYTES).max(64);
        let local_words = (config.local_heap_bytes / WORD_BYTES).max(64);
        let span = (num_vprocs as u64) * (local_words * WORD_BYTES) as u64;
        assert!(
            LOCAL_BASE + span < GLOBAL_BASE,
            "local heaps would overlap the global heap base"
        );
        assert!(
            config.node_span_bytes.is_power_of_two(),
            "the node span must be a power of two (validate through HeapGeometry)"
        );
        assert!(
            config.node_span_bytes <= 1 << MAX_NODE_SPAN_SHIFT,
            "the node span exceeds the supported maximum band"
        );
        let node_span_shift = config.node_span_bytes.trailing_zeros();
        assert!(
            (chunk_words * WORD_BYTES) as u64 <= config.node_span_bytes,
            "a node's address band must fit at least one chunk"
        );
        ThreadedLayout {
            num_vprocs,
            num_nodes,
            local_words,
            chunk_words,
            node_span_shift,
        }
    }

    /// Number of vprocs in the layout.
    pub fn num_vprocs(&self) -> usize {
        self.num_vprocs
    }

    /// Number of NUMA nodes partitioning the global heap.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Words per local heap.
    pub fn local_words(&self) -> usize {
        self.local_words
    }

    /// Words per global chunk.
    pub fn chunk_words(&self) -> usize {
        self.chunk_words
    }

    /// log2 of the per-node global-heap address band.
    pub fn node_span_shift(&self) -> u32 {
        self.node_span_shift
    }

    /// Bytes of global-heap address band per node.
    pub fn node_span_bytes(&self) -> u64 {
        1 << self.node_span_shift
    }

    /// Base address of vproc `v`'s local heap.
    pub fn local_base(&self, vproc: usize) -> Addr {
        Addr::new(LOCAL_BASE + (vproc * self.local_words * WORD_BYTES) as u64)
    }

    /// Which region `addr` falls in, by pure arithmetic.
    pub fn owner_of(&self, addr: Addr) -> ThreadedOwner {
        let raw = addr.raw();
        if raw >= GLOBAL_BASE {
            let node = ((raw - GLOBAL_BASE) >> self.node_span_shift) as usize;
            if node >= self.num_nodes {
                return ThreadedOwner::Unmapped;
            }
            let offset = (raw - GLOBAL_BASE) & (self.node_span_bytes() - 1);
            let index = (offset as usize) / (self.chunk_words * WORD_BYTES);
            ThreadedOwner::Global { node, index }
        } else if raw >= LOCAL_BASE {
            let vproc = ((raw - LOCAL_BASE) as usize) / (self.local_words * WORD_BYTES);
            if vproc < self.num_vprocs {
                ThreadedOwner::Local(vproc)
            } else {
                ThreadedOwner::Unmapped
            }
        } else {
            ThreadedOwner::Unmapped
        }
    }
}

/// A worker thread's view of the heap: its own [`LocalHeap`] plus the shared
/// global heap. Implements [`GcHeap`], so the generic minor/major/promotion
/// algorithms of `mgc-core` run on it unchanged — with the crucial property
/// that the minor-collection path touches only owned state (no locks,
/// §3.3).
pub struct WorkerHeap {
    vproc: usize,
    layout: ThreadedLayout,
    local: LocalHeap,
    global: Arc<SharedGlobalHeap>,
    descriptors: Arc<DescriptorTable>,
    /// The worker's home node (where its local heap was placed).
    home_node: NodeId,
    /// The node the *consumer* of the next promotion lives on. Defaults to
    /// the home node; the runtime points it at the thief's node for the
    /// duration of a steal handoff (under `NodeLocal` placement), so
    /// promoted graphs land where they are about to be traversed.
    promotion_target: NodeId,
    /// The static policy this worker's chunk leases follow *right now*.
    /// Equals the heap's policy for static policies; under
    /// [`PlacementPolicy::Adaptive`] the runtime's controller retargets it
    /// between `NodeLocal` and `Interleave` as the locality ledger moves.
    effective_placement: PlacementPolicy,
    current: Option<Arc<SharedChunk>>,
    /// Thread-local shadow of the per-node chunk directories; a node's
    /// snapshot shares the directory's append-only segments (so it also
    /// resolves chunks published after it was taken, within known
    /// segments) and is refreshed only when an address points past it.
    cache: RefCell<Vec<DirectorySnapshot>>,
    stats: HeapStats,
}

impl std::fmt::Debug for WorkerHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHeap")
            .field("vproc", &self.vproc)
            .field("node", &self.local.node())
            .field("promotion_target", &self.promotion_target)
            .field("current_chunk", &self.current.as_ref().map(|c| c.id()))
            .finish()
    }
}

impl WorkerHeap {
    /// Creates the heap view for worker `vproc`, whose local heap is placed
    /// on `node` (already resolved through the page-placement policy).
    /// Promotion chunks initially target the same node; the runtime may
    /// retarget them per steal handoff via
    /// [`WorkerHeap::set_promotion_target`].
    pub fn new(
        vproc: usize,
        layout: ThreadedLayout,
        node: NodeId,
        global: Arc<SharedGlobalHeap>,
        descriptors: Arc<DescriptorTable>,
    ) -> Self {
        let base = layout.local_base(vproc);
        let num_nodes = layout.num_nodes();
        // Adaptive controllers cold-start in node-local mode; static
        // policies are their own effective policy.
        let effective_placement = match global.placement() {
            PlacementPolicy::Adaptive => PlacementPolicy::NodeLocal,
            fixed => fixed,
        };
        WorkerHeap {
            vproc,
            layout,
            local: LocalHeap::new(vproc, node, base, layout.local_words()),
            global,
            descriptors,
            home_node: node,
            promotion_target: node,
            effective_placement,
            current: None,
            cache: RefCell::new(vec![DirectorySnapshot::default(); num_nodes]),
            stats: HeapStats::default(),
        }
    }

    /// The owning vproc.
    pub fn vproc(&self) -> usize {
        self.vproc
    }

    /// The worker's home NUMA node.
    pub fn home_node(&self) -> NodeId {
        self.home_node
    }

    /// The node the next promotion's consumer lives on (see
    /// [`WorkerHeap::set_promotion_target`]).
    pub fn promotion_target(&self) -> NodeId {
        self.promotion_target
    }

    /// Points subsequent promotions at `node`'s chunk pool (honoured by
    /// node-binding placement policies; `Interleave` ignores it). The
    /// runtime sets this to the thief's node around a steal handoff and
    /// restores it to the home node afterwards.
    pub fn set_promotion_target(&mut self, node: NodeId) {
        self.promotion_target = node;
    }

    /// The static policy this worker's leases currently follow (differs
    /// from the heap's policy only under [`PlacementPolicy::Adaptive`]).
    pub fn effective_placement(&self) -> PlacementPolicy {
        self.effective_placement
    }

    /// Retargets the worker's effective lease policy. Only meaningful when
    /// the heap's policy is [`PlacementPolicy::Adaptive`] — the runtime's
    /// controller calls this as the locality ledger moves; static policies
    /// never change.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `effective` is itself `Adaptive` — the controller
    /// must resolve a concrete mode.
    pub fn set_effective_placement(&mut self, effective: PlacementPolicy) {
        debug_assert!(
            effective != PlacementPolicy::Adaptive,
            "the adaptive controller resolves to a concrete static policy"
        );
        self.effective_placement = effective;
    }

    /// The shared global heap.
    pub fn shared_global(&self) -> &Arc<SharedGlobalHeap> {
        &self.global
    }

    /// The address layout.
    pub fn layout(&self) -> ThreadedLayout {
        self.layout
    }

    /// This worker's heap counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// The worker's current global chunk, if any.
    pub fn current_chunk(&self) -> Option<&Arc<SharedChunk>> {
        self.current.as_ref()
    }

    // ------------------------------------------------------------------
    // Mutator allocation (into the owned nursery; no synchronisation)
    // ------------------------------------------------------------------

    /// Allocates a raw-data object in the nursery.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed.
    pub fn alloc_raw(&mut self, payload: &[Word]) -> Result<Addr, HeapError> {
        let header = Header::new(ObjectKind::Raw, payload.len() as u64).encode();
        self.local.alloc(header, payload)
    }

    /// Allocates a pointer-vector object in the nursery.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed.
    pub fn alloc_vector(&mut self, elements: &[Word]) -> Result<Addr, HeapError> {
        let header = Header::new(ObjectKind::Vector, elements.len() as u64).encode();
        self.local.alloc(header, elements)
    }

    /// Allocates a mixed-type object in the nursery.
    ///
    /// # Errors
    ///
    /// Mirrors [`Heap::alloc_mixed`](crate::Heap::alloc_mixed).
    pub fn alloc_mixed(
        &mut self,
        descriptor: crate::DescriptorId,
        payload: &[Word],
    ) -> Result<Addr, HeapError> {
        let desc = self
            .descriptors
            .get(descriptor.id())
            .ok_or(HeapError::UnknownDescriptor {
                id: descriptor.id(),
            })?;
        if desc.size_words as usize != payload.len() {
            return Err(HeapError::PayloadSizeMismatch {
                expected: desc.size_words as usize,
                supplied: payload.len(),
            });
        }
        let header = Header::new(ObjectKind::Mixed(descriptor.id()), payload.len() as u64).encode();
        self.local.alloc(header, payload)
    }

    // ------------------------------------------------------------------
    // Global-chunk management
    // ------------------------------------------------------------------

    /// Retires the current chunk (it keeps its data, state becomes
    /// [`SharedChunkState::Filled`]).
    pub fn retire_current_chunk(&mut self) {
        if let Some(chunk) = self.current.take() {
            chunk.set_state(SharedChunkState::Filled);
        }
    }

    fn fresh_current_chunk(&mut self) -> Arc<SharedChunk> {
        self.retire_current_chunk();
        let chunk = self
            .global
            .acquire_as(self.effective_placement, self.promotion_target);
        self.stats.chunk_acquisitions += 1;
        self.current = Some(chunk.clone());
        chunk
    }

    /// True when the current chunk satisfies the promotion target under the
    /// worker's *effective* placement policy (`Interleave` never binds).
    fn current_chunk_matches_target(&self, chunk: &SharedChunk) -> bool {
        !self.effective_placement.binds_node() || chunk.node() == self.promotion_target
    }

    /// Allocates an object into the worker's current global chunk, acquiring
    /// a fresh chunk transparently when the current one fills up — or when
    /// the current chunk's node no longer matches the promotion target under
    /// a node-binding placement policy.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ObjectTooLarge`] if the object cannot fit in any
    /// chunk.
    pub fn alloc_in_global(&mut self, header: Word, payload: &[Word]) -> Result<Addr, HeapError> {
        let total = payload.len() + 1;
        if total > self.global.chunk_size_words() {
            return Err(HeapError::ObjectTooLarge {
                requested_words: total,
                max_words: self.global.chunk_size_words(),
            });
        }
        let chunk = match &self.current {
            Some(chunk) if self.current_chunk_matches_target(chunk) => chunk.clone(),
            _ => self.fresh_current_chunk(),
        };
        match chunk.alloc(header, payload) {
            Ok(addr) => Ok(addr),
            Err(HeapError::ChunkFull { .. }) => self.fresh_current_chunk().alloc(header, payload),
            Err(e) => Err(e),
        }
    }

    /// The shared chunk containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a mapped global address.
    pub fn chunk_of(&self, addr: Addr) -> Arc<SharedChunk> {
        let ThreadedOwner::Global { node, index } = self.layout.owner_of(addr) else {
            panic!("{addr:?} is not a global-heap address");
        };
        {
            let cache = self.cache.borrow();
            if let Some(chunk) = cache[node].get(index) {
                return chunk.clone();
            }
        }
        self.refresh_cached_chunk(addr, node, index)
    }

    /// Cache miss: the node's directory grew a segment since we last looked.
    fn refresh_cached_chunk(&self, addr: Addr, node: usize, index: usize) -> Arc<SharedChunk> {
        let snapshot = self.global.snapshot_node_dir(NodeId::new(node as u16));
        let chunk = snapshot
            .get(index)
            .unwrap_or_else(|| {
                panic!("{addr:?} points past the end of node {node}'s global-heap band")
            })
            .clone();
        self.cache.borrow_mut()[node] = snapshot;
        chunk
    }

    /// Runs `f` against the shared chunk containing `addr` *without*
    /// cloning the `Arc` on the cache-hit path. Every global-heap field
    /// access lands here, and an `Arc` clone per word is two atomic RMWs on
    /// a refcount that every worker reading the chunk shares — under real
    /// parallelism that cache line ping-pongs between cores and serialises
    /// exactly the reads the global heap exists to make shareable.
    fn with_chunk<R>(&self, addr: Addr, f: impl FnOnce(&SharedChunk) -> R) -> R {
        let ThreadedOwner::Global { node, index } = self.layout.owner_of(addr) else {
            panic!("{addr:?} is not a global-heap address");
        };
        {
            let cache = self.cache.borrow();
            if let Some(chunk) = cache[node].get(index) {
                return f(chunk);
            }
        }
        f(&self.refresh_cached_chunk(addr, node, index))
    }

    fn read_word(&self, addr: Addr) -> Word {
        match self.layout.owner_of(addr) {
            ThreadedOwner::Local(v) => {
                assert_eq!(
                    v, self.vproc,
                    "worker {} read from vproc {v}'s local heap — the no-cross-heap-pointer \
                     invariant was violated",
                    self.vproc
                );
                self.local.read(self.local.offset_of(addr))
            }
            ThreadedOwner::Global { .. } => {
                self.with_chunk(addr, |chunk| chunk.read(chunk.offset_of(addr)))
            }
            ThreadedOwner::Unmapped => panic!("read from unmapped address {addr:?}"),
        }
    }

    fn write_word(&mut self, addr: Addr, value: Word) {
        match self.layout.owner_of(addr) {
            ThreadedOwner::Local(v) => {
                assert_eq!(
                    v, self.vproc,
                    "worker {} wrote to vproc {v}'s local heap — the no-cross-heap-pointer \
                     invariant was violated",
                    self.vproc
                );
                let offset = self.local.offset_of(addr);
                self.local.write(offset, value);
            }
            ThreadedOwner::Global { .. } => {
                self.with_chunk(addr, |chunk| chunk.write(chunk.offset_of(addr), value));
            }
            ThreadedOwner::Unmapped => panic!("write to unmapped address {addr:?}"),
        }
    }

    /// Installs a forwarding pointer over a *local* object's header (global
    /// from-space objects go through [`WorkerHeap::cas_forward_global`]).
    fn set_forward_local(&mut self, obj: Addr, target: Addr) {
        debug_assert!(!target.is_null());
        self.write_word(obj.sub_words(1), target.raw());
    }

    /// Race-safe forwarding for the parallel global collection: tries to
    /// install `new_addr` over the from-space object at `obj`.
    ///
    /// # Errors
    ///
    /// Returns the winning address when another worker forwarded first.
    pub fn cas_forward_global(
        &self,
        obj: Addr,
        expected_header: Word,
        new_addr: Addr,
    ) -> Result<(), Addr> {
        let chunk = self.chunk_of(obj);
        chunk.try_forward(obj, expected_header, new_addr)
    }
}

impl GcHeap for WorkerHeap {
    fn num_vprocs(&self) -> usize {
        self.layout.num_vprocs()
    }

    fn local(&self, vproc: usize) -> &LocalHeap {
        assert_eq!(vproc, self.vproc, "a worker heap only serves its own vproc");
        &self.local
    }

    fn local_mut(&mut self, vproc: usize) -> &mut LocalHeap {
        assert_eq!(vproc, self.vproc, "a worker heap only serves its own vproc");
        &mut self.local
    }

    fn space_of(&self, addr: Addr) -> Space {
        match self.layout.owner_of(addr) {
            ThreadedOwner::Unmapped => Space::Unmapped,
            // The flat ChunkId requires a directory lookup (no `Arc` clone
            // on a cache hit: the collector classifies every pointer it
            // meets); the hot-path classifications
            // (`is_local`/`is_global`/`node_of`) stay pure arithmetic via the
            // overrides below.
            ThreadedOwner::Global { .. } => Space::Global {
                chunk: self.with_chunk(addr, |chunk| chunk.id()),
            },
            ThreadedOwner::Local(v) if v == self.vproc => match self.local.region_of(addr) {
                LocalRegion::Old => Space::LocalOld { vproc: v },
                LocalRegion::Young => Space::LocalYoung { vproc: v },
                LocalRegion::Nursery => Space::LocalNursery { vproc: v },
                LocalRegion::Reserve | LocalRegion::NurseryFree => Space::LocalFree { vproc: v },
            },
            // Another worker's local heap: we may classify it (pure
            // arithmetic) but never read it. The collector only needs the
            // owner to decide "not mine — leave the pointer alone".
            ThreadedOwner::Local(v) => Space::LocalOld { vproc: v },
        }
    }

    fn is_local(&self, addr: Addr) -> bool {
        matches!(self.layout.owner_of(addr), ThreadedOwner::Local(_))
    }

    fn is_global(&self, addr: Addr) -> bool {
        matches!(self.layout.owner_of(addr), ThreadedOwner::Global { .. })
    }

    fn node_of(&self, addr: Addr) -> NodeId {
        match self.layout.owner_of(addr) {
            ThreadedOwner::Local(v) if v == self.vproc => self.local.node(),
            ThreadedOwner::Local(_) => self.home_node,
            // Arithmetic: the node is baked into the address band.
            ThreadedOwner::Global { node, .. } => NodeId::new(node as u16),
            ThreadedOwner::Unmapped => panic!("{addr:?} is not mapped to any heap region"),
        }
    }

    fn header_slot(&self, obj: Addr) -> HeaderSlot {
        HeaderSlot::decode(self.read_word(obj.sub_words(1)))
    }

    fn read_field(&self, obj: Addr, index: usize) -> Word {
        self.read_word(obj.add_words(index))
    }

    fn write_field(&mut self, obj: Addr, index: usize, value: Word) {
        self.write_word(obj.add_words(index), value);
    }

    // Bulk payload reads resolve the containing region once and stream the
    // words out, instead of paying the owner classification (and, for
    // global objects, the chunk lookup) on every word. Rope leaves are read
    // this way on the workloads' hot paths.
    fn payload(&self, obj: Addr) -> Vec<Word> {
        match self.layout.owner_of(obj) {
            ThreadedOwner::Local(v) => {
                assert_eq!(
                    v, self.vproc,
                    "worker {} read from vproc {v}'s local heap — the no-cross-heap-pointer \
                     invariant was violated",
                    self.vproc
                );
                let base = self.local.offset_of(obj);
                let header = HeaderSlot::decode(self.local.read(base - 1)).expect_header();
                (0..header.len_words as usize)
                    .map(|i| self.local.read(base + i))
                    .collect()
            }
            ThreadedOwner::Global { .. } => self.with_chunk(obj, |chunk| {
                let base = chunk.offset_of(obj);
                let header = HeaderSlot::decode(chunk.read(base - 1)).expect_header();
                (0..header.len_words as usize)
                    .map(|i| chunk.read(base + i))
                    .collect()
            }),
            ThreadedOwner::Unmapped => panic!("read from unmapped address {obj:?}"),
        }
    }

    fn pointer_field_indices(&self, header: Header) -> Result<Vec<usize>, HeapError> {
        match header.kind {
            ObjectKind::Raw => Ok(Vec::new()),
            ObjectKind::Vector => Ok((0..header.len_words as usize).collect()),
            ObjectKind::Mixed(id) => {
                let descriptor = self
                    .descriptors
                    .get(id)
                    .ok_or(HeapError::UnknownDescriptor { id })?;
                Ok(descriptor.pointer_offsets().collect())
            }
        }
    }

    fn evacuate(&mut self, obj: Addr, target: EvacTarget) -> Result<(Addr, usize), HeapError> {
        let header = self.header_of(obj);
        let payload = self.payload(obj);
        let encoded = header.encode();
        let new_addr = match target {
            EvacTarget::OldArea { vproc } => {
                assert_eq!(
                    vproc, self.vproc,
                    "a worker only evacuates into its own heap"
                );
                self.local.alloc_in_old(encoded, &payload)?
            }
            EvacTarget::GlobalCurrent { vproc } => {
                assert_eq!(
                    vproc, self.vproc,
                    "a worker only fills its own current chunk"
                );
                self.alloc_in_global(encoded, &payload)?
            }
            EvacTarget::Chunk(chunk) => panic!(
                "threaded evacuation into a specific chunk ({chunk:?}) goes through the \
                 parallel global collection, not the generic path"
            ),
        };
        // The original must be in this worker's local heap (minor/major
        // collections and promotions only move owned objects; contended
        // global evacuation uses `cas_forward_global`).
        self.set_forward_local(obj, new_addr);
        // Preserve the header in the first payload word of the dead copy so
        // linear walks of the local heap can still skip it.
        if header.len_words >= 1 {
            self.write_field(obj, 0, encoded);
        }
        self.stats.evacuated_words += header.total_words() as u64;
        Ok((new_addr, header.total_bytes()))
    }

    fn chunk_acquisitions(&self) -> u64 {
        self.stats.chunk_acquisitions
    }

    fn global_bytes_in_use(&self) -> usize {
        self.global.bytes_in_use()
    }

    fn global_bytes_after_last_collection(&self) -> usize {
        self.global.bytes_after_last_collection()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ThreadedLayout, Arc<SharedGlobalHeap>, Arc<DescriptorTable>) {
        let config = HeapConfig::small_for_tests();
        let layout = ThreadedLayout::new(&config, 2, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        (layout, global, Arc::new(DescriptorTable::new()))
    }

    fn worker(
        vproc: usize,
        layout: ThreadedLayout,
        global: &Arc<SharedGlobalHeap>,
        descriptors: &Arc<DescriptorTable>,
    ) -> WorkerHeap {
        WorkerHeap::new(
            vproc,
            layout,
            NodeId::new(vproc as u16 % 2),
            global.clone(),
            descriptors.clone(),
        )
    }

    #[test]
    fn layout_classifies_addresses_arithmetically() {
        let (layout, _, _) = setup();
        let local0 = layout.local_base(0);
        let local1 = layout.local_base(1);
        assert_eq!(layout.owner_of(local0), ThreadedOwner::Local(0));
        assert_eq!(layout.owner_of(local1), ThreadedOwner::Local(1));
        assert_eq!(layout.owner_of(Addr::new(8)), ThreadedOwner::Unmapped);
        assert_eq!(
            layout.owner_of(Addr::new(GLOBAL_BASE)),
            ThreadedOwner::Global { node: 0, index: 0 }
        );
        let second_chunk = Addr::new(GLOBAL_BASE + (layout.chunk_words() * WORD_BYTES) as u64);
        assert_eq!(
            layout.owner_of(second_chunk),
            ThreadedOwner::Global { node: 0, index: 1 }
        );
        // Node 1's band starts one NODE_SPAN above the base.
        let node1 = Addr::new(GLOBAL_BASE + NODE_SPAN_BYTES);
        assert_eq!(
            layout.owner_of(node1),
            ThreadedOwner::Global { node: 1, index: 0 }
        );
        assert_eq!(global_node_of(node1), Some(NodeId::new(1)));
        assert_eq!(global_node_of(Addr::new(GLOBAL_BASE)), Some(NodeId::new(0)));
        assert_eq!(global_node_of(local0), None);
        // A band past the machine's node count is unmapped.
        let beyond = Addr::new(GLOBAL_BASE + 2 * NODE_SPAN_BYTES);
        assert_eq!(layout.owner_of(beyond), ThreadedOwner::Unmapped);
    }

    #[test]
    fn worker_allocates_locally_without_touching_shared_state() {
        let (layout, global, descriptors) = setup();
        let mut w = worker(0, layout, &global, &descriptors);
        let obj = w.alloc_raw(&[1, 2, 3]).unwrap();
        assert_eq!(w.space_of(obj), Space::LocalNursery { vproc: 0 });
        assert_eq!(GcHeap::payload(&w, obj), vec![1, 2, 3]);
        assert_eq!(global.num_chunks(), 0);
    }

    #[test]
    fn global_allocation_and_cross_worker_reads() {
        let (layout, global, descriptors) = setup();
        let mut w0 = worker(0, layout, &global, &descriptors);
        let w1 = worker(1, layout, &global, &descriptors);
        let header = Header::new(ObjectKind::Raw, 2).encode();
        let addr = w0.alloc_in_global(header, &[7, 8]).unwrap();
        // The other worker reads the published object through its own view.
        assert_eq!(GcHeap::payload(&w1, addr), vec![7, 8]);
        assert!(GcHeap::is_global(&w1, addr));
        assert_eq!(global.chunks_in_use(), 1);
        assert_eq!(w0.stats().chunk_acquisitions, 1);
    }

    #[test]
    fn chunk_rollover_acquires_fresh_chunks() {
        let (layout, global, descriptors) = setup();
        let mut w = worker(0, layout, &global, &descriptors);
        let words = global.chunk_size_words();
        let big = vec![0u64; words - 2];
        let header = Header::new(ObjectKind::Raw, big.len() as u64).encode();
        w.alloc_in_global(header, &big).unwrap();
        let first = w.current_chunk().unwrap().id();
        let header2 = Header::new(ObjectKind::Raw, 4).encode();
        w.alloc_in_global(header2, &[1, 2, 3, 4]).unwrap();
        let second = w.current_chunk().unwrap().id();
        assert_ne!(first, second);
        assert_eq!(
            global.chunk_at(first.index()).state(),
            SharedChunkState::Filled
        );
    }

    #[test]
    fn release_returns_chunks_to_the_node_pool() {
        let (layout, global, descriptors) = setup();
        let mut w = worker(1, layout, &global, &descriptors);
        let header = Header::new(ObjectKind::Raw, 1).encode();
        w.alloc_in_global(header, &[9]).unwrap();
        let chunk = w.current_chunk().unwrap().clone();
        w.retire_current_chunk();
        global.release(&chunk);
        assert_eq!(global.chunks_in_use(), 0);
        assert_eq!(global.pool().free_chunks_on(chunk.node()), 1);
        // Reacquiring from the same node reuses it.
        let again = global.acquire(chunk.node());
        assert_eq!(again.id(), chunk.id());
        assert_eq!(again.used_words(), 0, "released chunks are reset");
    }

    #[test]
    fn interleave_placement_round_robins_chunk_nodes() {
        let config = HeapConfig::small_for_tests();
        let layout = ThreadedLayout::new(&config, 1, 2);
        let global = Arc::new(
            SharedGlobalHeap::new(layout.chunk_words(), 2)
                .with_placement(PlacementPolicy::Interleave),
        );
        // All requests prefer node 0, but the leases alternate nodes.
        let nodes: Vec<u16> = (0..4)
            .map(|_| global.acquire(NodeId::new(0)).node().raw())
            .collect();
        assert_eq!(nodes, vec![0, 1, 0, 1]);
    }

    #[test]
    fn node_binding_placement_retargets_the_current_chunk() {
        let (layout, global, descriptors) = setup();
        let mut w = worker(0, layout, &global, &descriptors);
        let header = Header::new(ObjectKind::Raw, 1).encode();
        let home = w.alloc_in_global(header, &[1]).unwrap();
        assert_eq!(global_node_of(home), Some(NodeId::new(0)));
        // Retarget promotions at node 1 (as a steal handoff to a node-1
        // thief does): the current node-0 chunk is set aside and the next
        // allocation lands in node 1's band.
        w.set_promotion_target(NodeId::new(1));
        let away = w.alloc_in_global(header, &[2]).unwrap();
        assert_eq!(global_node_of(away), Some(NodeId::new(1)));
        // Back home: allocations return to node 0.
        w.set_promotion_target(NodeId::new(0));
        let back = w.alloc_in_global(header, &[3]).unwrap();
        assert_eq!(global_node_of(back), Some(NodeId::new(0)));
    }

    #[test]
    fn cas_forward_races_have_one_winner() {
        let (layout, global, descriptors) = setup();
        let mut w0 = worker(0, layout, &global, &descriptors);
        let header = Header::new(ObjectKind::Raw, 1);
        let obj = w0.alloc_in_global(header.encode(), &[5]).unwrap();
        let copy_a = Addr::new(GLOBAL_BASE + 1024 * 1024);
        let copy_b = Addr::new(GLOBAL_BASE + 2 * 1024 * 1024);
        assert!(w0.cas_forward_global(obj, header.encode(), copy_a).is_ok());
        assert_eq!(
            w0.cas_forward_global(obj, header.encode(), copy_b),
            Err(copy_a)
        );
        assert_eq!(GcHeap::forwarded_to(&w0, obj), Some(copy_a));
    }

    #[test]
    fn directory_grows_by_segments_and_snapshots_see_later_entries() {
        let config = HeapConfig::small_for_tests();
        let layout = ThreadedLayout::new(&config, 1, 1);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 1));
        // Take a snapshot while the directory is empty, then grow past one
        // segment boundary.
        let early = global.snapshot_node_dir(NodeId::new(0));
        assert!(early.get(0).is_none());
        let total = DIR_SEG_CHUNKS + 3;
        let chunks: Vec<_> = (0..total).map(|_| global.acquire(NodeId::new(0))).collect();
        assert_eq!(global.num_chunks(), total);
        assert_eq!(global.chunks_on_node(NodeId::new(0)), total);
        // A fresh snapshot resolves every entry; entries keep address order.
        let snap = global.snapshot_node_dir(NodeId::new(0));
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(snap.get(i).unwrap().id(), chunk.id());
        }
        assert!(snap.get(total).is_none());
        // The append-only segments mean the *old* snapshot still can't see
        // anything (it held no segments), but a mid-growth snapshot sees
        // entries published later into segments it already holds.
        let mid = global.snapshot_node_dir(NodeId::new(0));
        let more = global.acquire(NodeId::new(0));
        assert_eq!(mid.get(total).unwrap().id(), more.id());
        // The flat directory agrees.
        assert_eq!(global.snapshot().len(), total + 1);
    }

    #[test]
    fn concurrent_grow_while_promoting_keeps_every_chunk_distinct() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        // Hammer the Treiber free stacks and the directory append path at
        // once: half the acquisitions recycle released chunks, half map
        // fresh ones, racing across two nodes and one segment boundary.
        let config = HeapConfig::small_for_tests();
        let layout = ThreadedLayout::new(&config, 4, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|n| {
                // Concurrent directory readers: resolve every published
                // index while the appends race.
                let global = global.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let node = NodeId::new(n as u16);
                        let len = global.chunks_on_node(node);
                        let snap = global.snapshot_node_dir(node);
                        for i in 0..len {
                            assert_eq!(snap.get(i).unwrap().node(), node);
                        }
                    }
                })
            })
            .collect();
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let global = global.clone();
                std::thread::spawn(move || {
                    let node = NodeId::new((w % 2) as u16);
                    let mut held = Vec::new();
                    let mut seen = Vec::new();
                    for round in 0..300 {
                        let chunk = global.acquire(node);
                        assert_eq!(chunk.node(), node, "leases stay node-local");
                        seen.push(chunk.id());
                        held.push(chunk);
                        // Release every other round so the pool path and the
                        // fresh-map path interleave.
                        if round % 2 == 0 {
                            let chunk = held.remove(0);
                            global.release(&chunk);
                        }
                    }
                    (held, seen)
                })
            })
            .collect();
        let mut in_use = Vec::new();
        for w in workers {
            let (held, seen) = w.join().unwrap();
            assert_eq!(seen.len(), 300);
            in_use.extend(held.into_iter().map(|c| c.id()));
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        // No two workers ever held the same chunk simultaneously.
        let distinct: HashSet<_> = in_use.iter().copied().collect();
        assert_eq!(distinct.len(), in_use.len(), "a chunk was double-leased");
        assert_eq!(global.chunks_in_use(), in_use.len());
        // Every chunk the directory knows is exactly once in it.
        let all = global.snapshot();
        let ids: HashSet<_> = all.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), all.len());
        assert_eq!(global.num_chunks(), all.len());
    }

    #[test]
    fn custom_node_span_places_bands_at_the_configured_stride() {
        let span: u64 = 1 << 20;
        let config = HeapConfig {
            node_span_bytes: span,
            ..HeapConfig::small_for_tests()
        };
        let layout = ThreadedLayout::new(&config, 1, 2);
        assert_eq!(layout.node_span_bytes(), span);
        let global =
            Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2).with_node_span_bytes(span));
        let c0 = global.acquire(NodeId::new(0));
        let c1 = global.acquire(NodeId::new(1));
        assert_eq!(c0.base().raw(), GLOBAL_BASE);
        assert_eq!(c1.base().raw(), GLOBAL_BASE + span);
        // The layout's arithmetic agrees with the heap's band math.
        assert_eq!(
            layout.owner_of(c1.base()),
            ThreadedOwner::Global { node: 1, index: 0 }
        );
        // And the smaller band actually exhausts: a 1 MiB band holds 256
        // four-KiB chunks.
        let per_band = (span / global.chunk_size_bytes() as u64) as usize;
        assert_eq!(per_band, 256);
    }

    #[test]
    #[should_panic(expected = "exhausted its")]
    fn exhausting_a_small_band_panics_clearly() {
        let span: u64 = 8 * 1024;
        let config = HeapConfig {
            node_span_bytes: span,
            ..HeapConfig::small_for_tests()
        };
        let layout = ThreadedLayout::new(&config, 1, 1);
        let global = SharedGlobalHeap::new(layout.chunk_words(), 1).with_node_span_bytes(span);
        // Two 4 KiB chunks fit; the third must fail loudly.
        let _a = global.acquire(NodeId::new(0));
        let _b = global.acquire(NodeId::new(0));
        let _c = global.acquire(NodeId::new(0));
    }

    /// GB-scale geometry smoke: only runs under `MGC_SCALE=bench` (it maps
    /// a quarter-GiB of chunk *payload*, which is too slow for the tier-1
    /// suite). Exercises the segmented directory well past many segment
    /// boundaries with a realistic 256 KiB chunk size.
    #[test]
    fn gb_geometry_smoke_maps_a_quarter_gib_band() {
        if std::env::var("MGC_SCALE").as_deref() != Ok("bench") {
            return;
        }
        let chunk_bytes: usize = 256 * 1024;
        let span: u64 = 1 << 30;
        let config = HeapConfig {
            chunk_size_bytes: chunk_bytes,
            node_span_bytes: span,
            ..HeapConfig::small_for_tests()
        };
        let layout = ThreadedLayout::new(&config, 1, 1);
        let global = SharedGlobalHeap::new(layout.chunk_words(), 1).with_node_span_bytes(span);
        // 1024 chunks × 256 KiB = 256 MiB mapped, crossing two segment
        // boundaries; the last chunk sits just under the 1 GiB band edge.
        let n = 1024;
        let mut last = None;
        for _ in 0..n {
            last = Some(global.acquire(NodeId::new(0)));
        }
        let last = last.unwrap();
        assert_eq!(global.num_chunks(), n);
        assert_eq!(
            last.base().raw(),
            GLOBAL_BASE + ((n - 1) * chunk_bytes) as u64
        );
        assert_eq!(
            layout.owner_of(last.base()),
            ThreadedOwner::Global {
                node: 0,
                index: n - 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "no-cross-heap-pointer")]
    fn foreign_local_reads_fail_fast() {
        let (layout, global, descriptors) = setup();
        let mut w0 = worker(0, layout, &global, &descriptors);
        let w1 = worker(1, layout, &global, &descriptors);
        let obj = w0.alloc_raw(&[1]).unwrap();
        let _ = GcHeap::read_field(&w1, obj, 0);
    }
}
