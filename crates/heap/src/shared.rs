//! The one chunk store and the per-vproc view of it.
//!
//! Both execution backends run on this module: the real-threads backend
//! gives each OS thread one [`WorkerHeap`], the discrete-event simulation
//! steps all of them from one thread behind the vproc-indexed
//! [`Heap`](crate::Heap). The split follows the paper's §3.3
//! synchronisation boundary:
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
//!   is an append-only table of write-once slots, so resolving a global
//!   address to its chunk takes no lock and hands out a plain reference.
//!
//! Addresses are arithmetic: worker `w`'s local heap lives at
//! `LOCAL_BASE + w * local_span`, and the global heap is **partitioned by
//! NUMA node** — node `n`'s chunks live in the address band
//! `GLOBAL_BASE + n * NODE_SPAN_BYTES ..`, chunk `i` of that node at
//! `band_base + i * chunk_span`. Classifying an address *and finding the
//! node that backs it* are therefore pure arithmetic; no shared state, no
//! chunk-directory lookup. Every access a worker makes goes through one
//! primitive, [`WorkerHeap::locate`]: classify the address once (shifts, for
//! the power-of-two geometries every configuration ships), then index the
//! region that holds it — the owned local slice or the shared chunk.

use crate::addr::{Addr, Word, WORD_BYTES};
use crate::chunk::ChunkId;
use crate::descriptor::{DescriptorTable, PointerFields};
use crate::error::HeapError;
use crate::gc_heap::GcHeap;
use crate::global::SharedChunkPool;
use crate::header::{Header, HeaderSlot, ObjectKind};
use crate::heap::{EvacTarget, HeapConfig, HeapStats, Space};
use crate::local::{LocalHeap, LocalRegion};
use crate::storage::{self, STORAGE};
use crate::verify::InvariantViolation;
use mgc_numa::{AllocPolicy, NodeId, PagePlacer, PlacementPolicy};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Chunks in a directory's first segment; every later segment is twice as
/// long as the one before, so a heap with a handful of chunks wastes little
/// and a GB-scale heap (hundreds of thousands of chunks) needs a dozen.
pub const DIR_SEG_CHUNKS: usize = 512;

/// Enough doubling segments for every [`ChunkId`] (a `u32`).
const DIR_SEGMENTS: usize = 24;

/// One directory segment: write-once slots, so a published entry never moves.
type DirSegment = Box<[OnceLock<Arc<SharedChunk>>]>;

/// The segment holding directory entry `index`, and the entry's slot in it.
#[inline(always)]
fn dir_slot(index: usize) -> (usize, usize) {
    let segment = (index / DIR_SEG_CHUNKS + 1).ilog2() as usize;
    let first = ((1usize << segment) - 1) * DIR_SEG_CHUNKS;
    (segment, index - first)
}

/// A growable chunk directory: a fixed spine of doubling segments whose
/// slots are `OnceLock`s. A published entry never moves and never changes,
/// and growth only ever initialises a fresh segment, so readers resolve an
/// index with no lock — including entries published after they first looked
/// — and keep the reference for as long as they hold the directory.
#[derive(Debug)]
struct ChunkDirectory {
    segments: [OnceLock<DirSegment>; DIR_SEGMENTS],
    /// Published length: entries `0..len` are readable. Bumped with
    /// `Release` *after* the slot's `OnceLock` is set.
    len: AtomicUsize,
}

impl ChunkDirectory {
    fn new() -> Self {
        ChunkDirectory {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of published entries.
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The chunk at `index`, if published.
    #[inline(always)]
    fn get(&self, index: usize) -> Option<&Arc<SharedChunk>> {
        let (segment, slot) = dir_slot(index);
        self.segments.get(segment)?.get()?.get(slot)?.get()
    }

    /// Appends a chunk, initialising the next segment when the last one is
    /// full, and returns its index. Appends are serialised by the caller
    /// (the heap's acquire path holds the grow lock); concurrent readers are
    /// never blocked.
    fn push(&self, chunk: Arc<SharedChunk>) -> usize {
        let index = self.len.load(Ordering::Relaxed);
        let (segment, slot) = dir_slot(index);
        let slots = self.segments[segment].get_or_init(|| {
            (0..DIR_SEG_CHUNKS << segment)
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[slot]
            .set(chunk)
            .expect("directory slots are published exactly once");
        self.len.store(index + 1, Ordering::Release);
        index
    }
}

/// Lifecycle state of a chunk (the owning vproc of a current chunk is
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
    /// A free chunk of `size_words` words at `base` on `node`.
    ///
    /// The words come from the process's storage pool, turned into atomics
    /// in place, and are not zeroed: a reused buffer still holds its last
    /// heap's data. Nothing reads it. A chunk starts with its bump pointer
    /// at 0, [`SharedChunk::alloc_with`] writes every word of an object
    /// before it publishes the new top, and every read, walk and scan stops
    /// at [`SharedChunk::used_words`] — the rule [`SharedChunk::reset`]
    /// already relies on when it leaves a released chunk's words behind.
    pub(crate) fn new(id: ChunkId, base: Addr, node: NodeId, size_words: usize) -> Self {
        SharedChunk {
            id,
            base,
            node,
            state: AtomicU8::new(SharedChunkState::Free as u8),
            top: AtomicUsize::new(0),
            scan: AtomicUsize::new(0),
            data: storage::into_atomic(STORAGE.take(size_words)),
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
    #[inline]
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
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base.add_words(self.data.len())
    }

    /// Word offset of `addr` within the chunk.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chunk.
    #[inline]
    pub fn offset_of(&self, addr: Addr) -> usize {
        assert!(self.contains(addr), "{addr:?} is not inside {:?}", self.id);
        addr.words_from(self.base)
    }

    /// Reads the word at word offset `offset`.
    #[inline]
    pub fn read(&self, offset: usize) -> Word {
        self.data[offset].load(Ordering::Acquire)
    }

    /// Writes the word at word offset `offset`.
    #[inline]
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
        self.alloc_with(header, payload.len(), |i| payload[i])
    }

    /// [`SharedChunk::alloc`] with payload word `i` supplied by `word(i)`,
    /// so a collector copies an object straight out of the local heap or a
    /// from-space chunk without staging it in a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ChunkFull`] when the object does not fit.
    pub fn alloc_with(
        &self,
        header: Word,
        payload_words: usize,
        word: impl Fn(usize) -> Word,
    ) -> Result<Addr, HeapError> {
        assert!(
            payload_words > 0,
            "empty objects are not supported; allocate a one-word raw object instead"
        );
        let total = payload_words + 1;
        let top = self.top.load(Ordering::Relaxed);
        if self.data.len() - top < total {
            return Err(HeapError::ChunkFull {
                requested_words: total,
            });
        }
        let slots = &self.data[top..top + total];
        slots[0].store(header, Ordering::Release);
        for (i, slot) in slots[1..].iter().enumerate() {
            slot.store(word(i), Ordering::Release);
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
    fn try_forward(&self, obj: Addr, expected_header: Word, new_addr: Addr) -> Result<(), Addr> {
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

    /// True if every allocated object in this chunk has been scanned.
    pub fn fully_scanned(&self) -> bool {
        self.scan() >= self.used_words()
    }

    /// The objects allocated in this chunk, in allocation order, by payload
    /// address.
    ///
    /// # Panics
    ///
    /// The iterator panics on a forwarding pointer: only from-space chunks
    /// hold any, and a from-space chunk is dead — nothing walks it.
    pub fn objects(&self) -> impl Iterator<Item = Addr> + '_ {
        let mut offset = 0;
        std::iter::from_fn(move || {
            if offset >= self.used_words() {
                return None;
            }
            let header = Header::decode(self.read(offset))
                .expect("a walked chunk holds only objects, never forwards");
            let obj = self.base.add_words(offset + 1);
            offset += header.total_words();
            Some(obj)
        })
    }

    /// Resets the chunk to empty and [`SharedChunkState::Free`]: `top`,
    /// `scan` and the state only. The old words stay behind, unread:
    /// allocation writes every word of an object before it publishes `top`,
    /// and every walk ([`SharedChunk::objects`], the collectors' scan passes,
    /// the verifier) stops at [`SharedChunk::used_words`]. A stale pointer
    /// into a released chunk is caught by the chunk's state, not by zeros.
    pub fn reset(&self) {
        self.top.store(0, Ordering::Release);
        self.scan.store(0, Ordering::Release);
        self.set_state(SharedChunkState::Free);
    }
}

impl Drop for SharedChunk {
    /// Gives the chunk's words back to the storage pool.
    fn drop(&mut self) {
        STORAGE.give(storage::from_atomic(std::mem::take(&mut self.data)));
    }
}

/// The global heap, **partitioned by
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
    /// [`PlacementPolicy`]); fixed at construction.
    placement: PlacementPolicy,
    /// The page policy every lease node is resolved through (§4.3). The
    /// default, [`AllocPolicy::Local`], is the identity: callers that place
    /// their vproc nodes themselves (the threaded backend) lease where they
    /// ask.
    pages: PagePlacer,
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
    /// Per-node stacks of partial chunks: a worker's current chunk that
    /// still had room when its promotion target moved to another node
    /// ([`WorkerHeap::reserve_in_global`]). A partial chunk is `Filled`,
    /// keeps its words below `top` and still counts in `chunks_in_use`.
    partial: SharedChunkPool,
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
            pages: PagePlacer::new(AllocPolicy::Local, num_nodes),
            node_span_bytes: NODE_SPAN_BYTES,
            chunks: ChunkDirectory::new(),
            by_node: (0..num_nodes).map(|_| ChunkDirectory::new()).collect(),
            grow: std::sync::Mutex::new(()),
            pool: SharedChunkPool::new(num_nodes),
            partial: SharedChunkPool::new(num_nodes),
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

    /// Resolves every lease node (and, through
    /// [`SharedGlobalHeap::place_page`], the simulated backend's local
    /// heaps) through `policy` from here on.
    pub(crate) fn with_page_policy(mut self, policy: AllocPolicy) -> Self {
        self.pages = PagePlacer::new(policy, self.num_nodes);
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

    /// The node the page policy backs a region requested from `requesting`
    /// with. Shares the interleave cursor with the chunk leases.
    pub(crate) fn place_page(&self, requesting: NodeId) -> NodeId {
        self.pages.place(requesting)
    }

    /// The one node every lease for a consumer on `preferred` comes from,
    /// or `None` when leases rotate over the nodes — `Interleave` placement,
    /// or an interleaving page policy — so that no chunk is ever on the
    /// wrong one. Both the acquire path and a
    /// worker's "is my current chunk still acceptable" check ask here, so
    /// they cannot disagree (under `SocketZero` the answer is node 0 whatever
    /// the consumer: comparing against `preferred` would lease per object).
    fn bound_lease_node(&self, preferred: NodeId) -> Option<NodeId> {
        if !self.placement.binds_node() {
            return None;
        }
        match self.pages.policy() {
            AllocPolicy::Local | AllocPolicy::FirstTouch => Some(preferred),
            AllocPolicy::SocketZero => Some(NodeId::new(0)),
            AllocPolicy::Interleaved => None,
        }
    }

    /// The node of the next lease when none is bound: the placement policy's
    /// round-robin pick (or `preferred`), resolved through the page policy.
    fn rotating_lease_node(&self, preferred: NodeId) -> NodeId {
        let target = if self.placement.binds_node() {
            preferred
        } else {
            let next = self.interleave_cursor.fetch_add(1, Ordering::Relaxed);
            NodeId::new((next % self.num_nodes) as u16)
        };
        self.pages.place(target)
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

    /// Chunk leases so far — fresh, pooled, or a partial chunk popped to be
    /// continued (each is the synchronisation point of §3.3).
    pub fn chunk_acquisitions(&self) -> u64 {
        self.chunks_created() + self.pool.reused_local() + self.partial.reused_local()
    }

    /// Number of partial chunks waiting on `node`'s stack.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn partial_chunks_on(&self, node: NodeId) -> usize {
        self.partial.free_chunks_on(node)
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

    /// Every chunk in the directory when the call is made, borrowed, in
    /// [`ChunkId`] order.
    pub fn chunks(&self) -> impl Iterator<Item = &Arc<SharedChunk>> + '_ {
        (0..self.num_chunks()).map(|index| self.chunk(ChunkId(index as u32)))
    }

    /// The chunk `id`, borrowed: a lock-free directory index.
    ///
    /// # Panics
    ///
    /// Panics if no chunk has that ID.
    #[inline]
    pub fn chunk(&self, id: ChunkId) -> &Arc<SharedChunk> {
        self.chunks
            .get(id.index())
            .expect("chunk index out of directory range")
    }

    /// Chunk `index` of `node`'s address band — what
    /// [`ThreadedOwner::Global`] names — if one is mapped there. Lock-free,
    /// and the reference lives as long as the heap: chunks are recycled
    /// through the pool, never unmapped.
    #[inline(always)]
    fn chunk_in_band(&self, node: usize, index: usize) -> Option<&SharedChunk> {
        self.by_node.get(node)?.get(index).map(|chunk| &**chunk)
    }

    /// The mapped chunk `index` of `node`'s band, which `addr` points into.
    ///
    /// # Panics
    ///
    /// Panics if no chunk is mapped there.
    #[inline(always)]
    fn band_chunk(&self, node: usize, index: usize, addr: Addr) -> &SharedChunk {
        match self.chunk_in_band(node, index) {
            Some(chunk) => chunk,
            None => unmapped_access(addr, Some(node)),
        }
    }

    /// Acquires a chunk for a worker whose preferred (consumer) node is
    /// `preferred`, first resolving the actual node through the placement
    /// and page policies, then continuing a partial chunk of that node,
    /// else reusing a chunk pooled on it, otherwise mapping a fresh one in
    /// the node's address band. The returned chunk is in
    /// [`SharedChunkState::Current`].
    pub fn acquire(&self, preferred: NodeId) -> Arc<SharedChunk> {
        self.lease(preferred, 1)
    }

    /// [`SharedGlobalHeap::acquire`] for an object of `total_words`: a
    /// popped partial chunk without room for it is left `Filled`, off every
    /// stack, and the next one is tried.
    pub(crate) fn lease(&self, preferred: NodeId, total_words: usize) -> Arc<SharedChunk> {
        let node = self
            .bound_lease_node(preferred)
            .unwrap_or_else(|| self.rotating_lease_node(preferred));
        while let Some(id) = self.partial.pop(node) {
            let chunk = self.chunk(id);
            debug_assert_eq!(chunk.state(), SharedChunkState::Filled);
            if chunk.free_words() >= total_words {
                chunk.set_state(SharedChunkState::Current);
                return Arc::clone(chunk);
            }
        }
        if let Some(id) = self.pool.pop(node) {
            let chunk = self.chunk(id);
            debug_assert_eq!(chunk.state(), SharedChunkState::Free);
            chunk.set_state(SharedChunkState::Current);
            self.chunks_in_use.fetch_add(1, Ordering::AcqRel);
            return Arc::clone(chunk);
        }
        // Map a fresh chunk in `node`'s address band. The grow mutex
        // serialises id assignment and the two directory appends; readers
        // are never blocked (directories grow by initialising segments, so
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

    /// Returns a chunk to the free pool, empty ([`SharedChunk::reset`]; its
    /// old words are not cleared).
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

    /// Puts a worker's current chunk, which still has room, on its node's
    /// partial stack: it becomes `Filled`, and the next lease on that node
    /// continues it. The caller gives up its hold on the chunk.
    fn park(&self, chunk: Arc<SharedChunk>) {
        chunk.set_state(SharedChunkState::Filled);
        self.partial.push(chunk.node(), chunk.id());
    }

    /// Empties every partial stack without counting a lease. Leader-only,
    /// at a global collection's flip: the chunks are `Filled` like any
    /// other and flip with them, so no lease may hand one out afterwards.
    pub fn clear_partial_chunks(&self) {
        for node in 0..self.num_nodes {
            self.partial.clear(NodeId::new(node as u16));
        }
    }
}

/// The fixed address-space layout of a machine: classifying an address is
/// pure arithmetic, so it takes no lock and no table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadedLayout {
    num_vprocs: usize,
    num_nodes: usize,
    /// Bytes per local heap (also the per-worker address stride).
    local: Stride,
    /// Bytes per global chunk.
    chunk: Stride,
    /// log2 of the per-node global-heap address band (from
    /// [`HeapConfig::node_span_bytes`]).
    node_span_shift: u32,
}

/// A region size in bytes with, when it is a power of two, its log2 worked
/// out once — so finding which region an offset falls in is a shift. Every
/// shipped geometry is a power of two; any other size keeps the exact
/// quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stride {
    bytes: u64,
    shift: Option<u32>,
}

impl Stride {
    fn of_words(words: usize) -> Self {
        let bytes = (words * WORD_BYTES) as u64;
        Stride {
            bytes,
            shift: bytes.is_power_of_two().then(|| bytes.trailing_zeros()),
        }
    }

    fn words(self) -> usize {
        self.bytes as usize / WORD_BYTES
    }

    /// `offset / bytes`.
    #[inline]
    fn index_of(self, offset: u64) -> usize {
        (match self.shift {
            Some(shift) => offset >> shift,
            None => offset / self.bytes,
        }) as usize
    }
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
            local: Stride::of_words(local_words),
            chunk: Stride::of_words(chunk_words),
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
        self.local.words()
    }

    /// Words per global chunk.
    pub fn chunk_words(&self) -> usize {
        self.chunk.words()
    }

    /// Bytes of global-heap address band per node.
    pub fn node_span_bytes(&self) -> u64 {
        1 << self.node_span_shift
    }

    /// Base address of vproc `v`'s local heap.
    pub fn local_base(&self, vproc: usize) -> Addr {
        Addr::new(LOCAL_BASE + vproc as u64 * self.local.bytes)
    }

    /// Which region `addr` falls in, by pure arithmetic: compares, and a
    /// shift per power-of-two region size.
    #[inline]
    pub fn owner_of(&self, addr: Addr) -> ThreadedOwner {
        let raw = addr.raw();
        if raw >= GLOBAL_BASE {
            let node = ((raw - GLOBAL_BASE) >> self.node_span_shift) as usize;
            if node >= self.num_nodes {
                return ThreadedOwner::Unmapped;
            }
            let offset = (raw - GLOBAL_BASE) & (self.node_span_bytes() - 1);
            let index = self.chunk.index_of(offset);
            ThreadedOwner::Global { node, index }
        } else if raw >= LOCAL_BASE {
            let vproc = self.local.index_of(raw - LOCAL_BASE);
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

/// One vproc's view of the heap: its own [`LocalHeap`] plus the shared
/// global heap. The minor, major and promotion bodies of `mgc-core` run on
/// it through its inherent methods ([`WorkerHeap::find`],
/// [`WorkerHeap::evacuate`], ...), and the minor-collection path touches only
/// owned state (no locks, §3.3). A worker thread owns one outright; the
/// simulated backend's [`Heap`](crate::Heap) holds one per vproc.
pub struct WorkerHeap {
    vproc: usize,
    layout: ThreadedLayout,
    local: LocalHeap,
    global: Arc<SharedGlobalHeap>,
    descriptors: Arc<DescriptorTable>,
    /// The node of the core the vproc runs on. The local heap's pages sit
    /// wherever the page policy put them (`local.node()`), which is the same
    /// node unless the simulated backend runs a non-local page policy.
    home_node: NodeId,
    /// The node the *consumer* of the next promotion lives on. Defaults to
    /// the home node; the runtime points it at the thief's node for the
    /// duration of a steal handoff (under `NodeLocal` placement), so
    /// promoted graphs land where they are about to be traversed.
    promotion_target: NodeId,
    current: Option<Arc<SharedChunk>>,
    stats: HeapStats,
    /// See [`WorkerHeap::charges_costs`].
    charges_costs: bool,
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
        WorkerHeap {
            charges_costs: false,
            ..Self::with_local_node(vproc, layout, node, node, global, descriptors)
        }
    }

    /// The simulated machine's worker for a vproc running on `home` whose
    /// local heap the page policy backed with `local_node`'s memory; its
    /// collections charge their costs.
    pub(crate) fn with_local_node(
        vproc: usize,
        layout: ThreadedLayout,
        home: NodeId,
        local_node: NodeId,
        global: Arc<SharedGlobalHeap>,
        descriptors: Arc<DescriptorTable>,
    ) -> Self {
        let base = layout.local_base(vproc);
        WorkerHeap {
            vproc,
            layout,
            local: LocalHeap::new(vproc, local_node, base, layout.local_words()),
            global,
            descriptors,
            home_node: home,
            promotion_target: home,
            current: None,
            stats: HeapStats::default(),
            charges_costs: true,
        }
    }

    /// The owning vproc.
    pub fn vproc(&self) -> usize {
        self.vproc
    }

    /// Whether collections on this worker charge their work to a cost
    /// record: true for the simulated machine's workers, whose costs the
    /// memory model reads, and false for a threaded worker's, which then do
    /// no cost arithmetic at all.
    #[inline]
    pub fn charges_costs(&self) -> bool {
        self.charges_costs
    }

    /// Borrow the local heap.
    #[inline]
    pub fn local(&self) -> &LocalHeap {
        &self.local
    }

    /// Mutably borrow the local heap.
    #[inline]
    pub fn local_mut(&mut self) -> &mut LocalHeap {
        &mut self.local
    }

    /// The worker's home NUMA node.
    pub fn home_node(&self) -> NodeId {
        self.home_node
    }

    /// The node whose memory backs the local heap (see `home_node`'s field).
    #[inline]
    pub(crate) fn local_node(&self) -> NodeId {
        self.local.node()
    }

    /// Points subsequent promotions at `node`'s chunk pool (honoured by
    /// node-binding placement policies; `Interleave` ignores it). The
    /// runtime sets this to the thief's node around a steal handoff and
    /// restores it to the home node afterwards.
    pub fn set_promotion_target(&mut self, node: NodeId) {
        self.promotion_target = node;
    }

    /// The descriptor table, replaceable: the simulated backend registers
    /// descriptors after its workers exist.
    pub(crate) fn descriptors_mut(&mut self) -> &mut Arc<DescriptorTable> {
        &mut self.descriptors
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
        self.alloc_raw_with(payload.len(), |i| payload[i])
    }

    /// Allocates a raw-data object of `len` words in the nursery, word `i`
    /// written in place as `fill(i)` ([`LocalHeap::bump_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed;
    /// `fill` is then never called.
    #[inline]
    pub fn alloc_raw_with(
        &mut self,
        len: usize,
        fill: impl FnMut(usize) -> Word,
    ) -> Result<Addr, HeapError> {
        let header = Header::new(ObjectKind::Raw, len as u64).encode();
        self.local.alloc_with(header, len, fill)
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
        let kind = self.mixed_kind(descriptor, payload.len())?;
        let header = Header::new(kind, payload.len() as u64).encode();
        self.local.alloc(header, payload)
    }

    /// The object kind of a `len_words`-word object laid out by
    /// `descriptor`, checked against the registered descriptor.
    ///
    /// # Errors
    ///
    /// [`HeapError::UnknownDescriptor`] or [`HeapError::PayloadSizeMismatch`].
    pub fn mixed_kind(
        &self,
        descriptor: crate::DescriptorId,
        len_words: usize,
    ) -> Result<ObjectKind, HeapError> {
        let desc = self
            .descriptors
            .get(descriptor.id())
            .ok_or(HeapError::UnknownDescriptor {
                id: descriptor.id(),
            })?;
        if desc.size_words as usize != len_words {
            return Err(HeapError::PayloadSizeMismatch {
                expected: desc.size_words as usize,
                supplied: len_words,
            });
        }
        Ok(ObjectKind::Mixed(descriptor.id()))
    }

    /// Bump-allocates an object of `kind` and `len` words in the nursery if
    /// it ends at or below word offset `limit`, word `i` written in place as
    /// `fill(i)` ([`LocalHeap::bump_with`]): the threaded mutator's only test
    /// per object, against its vproc's limit word. A `Mixed` kind must come
    /// from [`WorkerHeap::mixed_kind`].
    #[inline(always)]
    pub fn bump_with(
        &mut self,
        kind: ObjectKind,
        len: usize,
        limit: usize,
        fill: impl FnMut(usize) -> Word,
    ) -> Option<Addr> {
        let header = Header::new(kind, len as u64).encode();
        self.local.bump_with(header, len, limit, fill)
    }

    /// [`WorkerHeap::bump_with`] copying `payload`.
    #[inline]
    pub fn bump(&mut self, kind: ObjectKind, payload: &[Word], limit: usize) -> Option<Addr> {
        self.bump_with(kind, payload.len(), limit, |i| payload[i])
    }

    /// The limit under which [`WorkerHeap::bump`] fills the whole nursery
    /// ([`LocalHeap::nursery_end`]).
    #[inline]
    pub fn nursery_end(&self) -> usize {
        self.local.nursery_end()
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

    /// The consumer node the next lease is asked for: the promotion target,
    /// except under `FirstTouch`, which leases where the promoting vproc
    /// runs whoever consumes the data.
    fn lease_preference(&self) -> NodeId {
        match self.global.placement() {
            PlacementPolicy::FirstTouch => self.home_node,
            _ => self.promotion_target,
        }
    }

    /// Retires the current chunk and leases another one (the synchronisation
    /// point of §3.3, counted in [`HeapStats::chunk_acquisitions`]).
    pub(crate) fn fresh_current_chunk(&mut self) -> ChunkId {
        self.retire_current_chunk();
        self.lease_current(1)
    }

    /// Leases a current chunk with room for `total_words`
    /// ([`SharedGlobalHeap::lease`]); the worker holds none.
    fn lease_current(&mut self, total_words: usize) -> ChunkId {
        let chunk = self.global.lease(self.lease_preference(), total_words);
        self.stats.chunk_acquisitions += 1;
        let id = chunk.id();
        self.current = Some(chunk);
        id
    }

    /// Makes the worker's current global chunk one that can take an object
    /// of `total_words` (header included). A full current chunk is retired.
    /// One with room that sits on another node than the one the placement
    /// and page policies bind this worker's leases to
    /// ([`SharedGlobalHeap::bound_lease_node`]; rotating leases bind none) —
    /// the promotion target switched node — goes back to its node's partial
    /// stack, where the next lease on that node continues it. Either way a
    /// chunk is then leased.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ObjectTooLarge`] if no chunk can hold the object.
    fn reserve_in_global(&mut self, total_words: usize) -> Result<(), HeapError> {
        if total_words > self.global.chunk_size_words() {
            return Err(HeapError::ObjectTooLarge {
                requested_words: total_words,
                max_words: self.global.chunk_size_words(),
            });
        }
        if let Some(chunk) = self.current.as_deref() {
            let prefer = self.lease_preference();
            // A chunk on the node we would ask for is right under every
            // policy; only another node's needs the policies' verdict.
            let right_node = chunk.node() == prefer
                || self
                    .global
                    .bound_lease_node(prefer)
                    .is_none_or(|node| chunk.node() == node);
            match (chunk.free_words() >= total_words, right_node) {
                (true, true) => return Ok(()),
                (true, false) => self
                    .global
                    .park(self.current.take().expect("checked above")),
                (false, _) => self.retire_current_chunk(),
            }
        }
        self.lease_current(total_words);
        Ok(())
    }

    /// The chunk [`WorkerHeap::reserve_in_global`] just made room in.
    fn reserved_chunk(&self) -> &SharedChunk {
        self.current
            .as_deref()
            .expect("reserving global space leaves a current chunk")
    }

    /// Allocates an object into the worker's current global chunk, rolling
    /// over to a fresh one when it is full or on the wrong node.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ObjectTooLarge`] if the object cannot fit in any
    /// chunk.
    pub fn alloc_in_global(&mut self, header: Word, payload: &[Word]) -> Result<Addr, HeapError> {
        self.reserve_in_global(payload.len() + 1)?;
        self.reserved_chunk().alloc(header, payload)
    }

    // ------------------------------------------------------------------
    // Address location (the one primitive every access is built on)
    // ------------------------------------------------------------------

    /// Locates the object at `obj`: classifies the address once and returns
    /// the region that holds it with the object's word offset, so every
    /// further access is an index.
    ///
    /// # Panics
    ///
    /// Panics if `obj` lies in another worker's local heap (the
    /// no-cross-heap-pointer invariant of §2.3 was violated), past the
    /// mapped end of a node's global band, or outside every region.
    #[inline]
    pub fn locate(&self, obj: Addr) -> Place<'_> {
        self.place(self.layout.owner_of(obj), obj)
    }

    /// [`WorkerHeap::locate`] for an address already classified as `owner`.
    #[inline(always)]
    pub(crate) fn place(&self, owner: ThreadedOwner, addr: Addr) -> Place<'_> {
        self.place_of(self.location(&self.global, owner, addr))
    }

    /// Where the object at `addr`, classified as `owner`, lives — with a
    /// global chunk looked up in `global`, this worker's global heap, so the
    /// location borrows that heap rather than the worker.
    #[inline(always)]
    fn location<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        owner: ThreadedOwner,
        addr: Addr,
    ) -> Location<'g> {
        match owner {
            ThreadedOwner::Local(vproc) if vproc == self.vproc => Location::Local {
                vproc,
                offset: self.local.offset_of(addr),
            },
            ThreadedOwner::Global { node, index } => {
                let chunk = global.band_chunk(node, index, addr);
                Location::Global(chunk, chunk.offset_of(addr))
            }
            ThreadedOwner::Local(v) => foreign_local_access(self.vproc, v),
            ThreadedOwner::Unmapped => unmapped_access(addr, None),
        }
    }

    /// The [`Place`] of a location this worker found: a local one indexes
    /// this worker's words again (one slice index), a global one is already
    /// a chunk and offset.
    #[inline(always)]
    pub fn place_of<'a>(&'a self, location: Location<'a>) -> Place<'a> {
        match location {
            Location::Local { vproc, offset } => {
                debug_assert_eq!(vproc, self.vproc, "a location in another worker's heap");
                Place::Local(self.local.words(), offset)
            }
            Location::Global(chunk, offset) => Place::Global(chunk, offset),
        }
    }

    /// Which space `addr` belongs to. Another worker's local heap is
    /// classified by address arithmetic alone, as its old area.
    pub fn space_of(&self, addr: Addr) -> Space {
        self.space_at(self.layout.owner_of(addr), addr)
    }

    /// [`WorkerHeap::space_of`] for an address already classified as `owner`.
    pub(crate) fn space_at(&self, owner: ThreadedOwner, addr: Addr) -> Space {
        match owner {
            // Another worker's local heap: we may classify it (pure
            // arithmetic) but never read it. The collector only needs the
            // owner to decide "not mine — leave the pointer alone".
            ThreadedOwner::Local(v) if v != self.vproc => Space::LocalOld { vproc: v },
            ThreadedOwner::Local(vproc) => {
                match self.local.region_of_offset(self.local.offset_of(addr)) {
                    LocalRegion::Old => Space::LocalOld { vproc },
                    LocalRegion::Young => Space::LocalYoung { vproc },
                    LocalRegion::Nursery => Space::LocalNursery { vproc },
                    LocalRegion::Reserve | LocalRegion::NurseryFree => Space::LocalFree { vproc },
                }
            }
            // A band address no chunk is mapped at is as unmapped as one
            // outside every band.
            ThreadedOwner::Global { node, index } => match self.global.chunk_in_band(node, index) {
                Some(chunk) => Space::Global { chunk: chunk.id() },
                None => Space::Unmapped,
            },
            ThreadedOwner::Unmapped => Space::Unmapped,
        }
    }

    /// The NUMA node whose memory backs `addr`.
    pub fn node_of(&self, addr: Addr) -> NodeId {
        self.node_at(self.layout.owner_of(addr), addr)
    }

    /// [`WorkerHeap::node_of`] for an address already classified as `owner`.
    pub(crate) fn node_at(&self, owner: ThreadedOwner, addr: Addr) -> NodeId {
        match owner {
            ThreadedOwner::Local(v) if v == self.vproc => self.local_node(),
            ThreadedOwner::Local(_) => self.home_node,
            // Arithmetic: the node is baked into the address band.
            ThreadedOwner::Global { node, .. } => NodeId::new(node as u16),
            ThreadedOwner::Unmapped => panic!("{addr:?} is not mapped to any heap region"),
        }
    }

    /// [`WorkerHeap::resolve`] for an address already classified as `owner`
    /// — the one forwarding loop of both backends.
    #[inline(always)]
    pub(crate) fn resolve_from<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        mut owner: ThreadedOwner,
        mut addr: Addr,
        global_may_forward: bool,
    ) -> Resolved<'g> {
        debug_assert!(
            std::ptr::eq(global, &*self.global),
            "resolved against another global heap"
        );
        loop {
            let location = self.location(global, owner, addr);
            let is_final = matches!(location, Location::Global(..)) && !global_may_forward;
            if !is_final {
                if let HeaderSlot::Forwarded(target) = self.place_of(location).header_slot() {
                    addr = target;
                    owner = self.layout.owner_of(addr);
                    continue;
                }
            }
            let node = match location {
                Location::Local { .. } => self.local_node(),
                Location::Global(chunk, _) => chunk.node(),
            };
            return Resolved {
                addr,
                location,
                node,
            };
        }
    }

    // ------------------------------------------------------------------
    // The local collections' primitives
    // ------------------------------------------------------------------

    /// The one classification of a local collection: the object at `ptr`
    /// with its region, offset and header slot if it lies in this worker's
    /// local heap, else `None` (the global heap, another vproc's local heap,
    /// or no region).
    #[inline]
    pub fn find(&self, ptr: Addr) -> Option<LocalObject> {
        let local = &self.local;
        let offset = local.contains(ptr).then(|| ptr.words_from(local.base()))?;
        Some(LocalObject {
            region: local.region_of_offset(offset),
            offset,
            slot: HeaderSlot::decode(local.read(offset - 1)),
        })
    }

    /// The payload indices of the pointer fields for an object with header
    /// `header`, ascending. The iterator borrows nothing, so the caller may
    /// rewrite fields while it runs.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownDescriptor`] for an unregistered mixed
    /// object.
    #[inline]
    pub fn pointer_field_indices(&self, header: Header) -> Result<PointerFields, HeapError> {
        self.descriptors.pointer_fields(header)
    }

    /// Copies this worker's object with header `header`, whose first payload
    /// word is at word `offset` of the local heap ([`WorkerHeap::find`] gives
    /// both), into `target`, installs a forwarding pointer, and returns the
    /// new address plus bytes copied. A copy into the global heap lands in
    /// the [current chunk](WorkerHeap::current_chunk). (Contended global
    /// evacuation is [`WorkerHeap::evacuate_from_space`].)
    ///
    /// # Errors
    ///
    /// Propagates allocation errors from the target space.
    pub fn evacuate(
        &mut self,
        offset: usize,
        header: Header,
        target: EvacTarget,
    ) -> Result<(Addr, usize), HeapError> {
        let encoded = header.encode();
        let len = header.len_words as usize;
        // The words go straight from the local heap to the destination.
        let new_addr = match target {
            EvacTarget::OldArea => self.local.copy_into_old(offset - 1, len + 1)?,
            EvacTarget::GlobalCurrent => {
                self.reserve_in_global(len + 1)?;
                let payload = &self.local.words()[offset..offset + len];
                self.reserved_chunk().alloc(encoded, payload)?
            }
        };
        self.local.write(offset - 1, new_addr.raw());
        // Preserve the header in the first payload word of the dead copy so
        // linear walks of the local heap can still skip it.
        if len >= 1 {
            self.local.write(offset, encoded);
        }
        self.stats.evacuated_words += header.total_words() as u64;
        Ok((new_addr, header.total_bytes()))
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
        match self.locate(obj) {
            Place::Global(chunk, _) => chunk.try_forward(obj, expected_header, new_addr),
            Place::Local(..) => panic!("{obj:?} is not a global-heap address"),
        }
    }

    /// Forwards one pointer for the parallel global collection. A pointer
    /// that is not into a from-space chunk comes back unchanged; otherwise
    /// the object's words go straight into this worker's current to-space
    /// chunk and a CAS on the from-space header slot publishes the copy — or
    /// loses to another worker's, whose address is returned (our copy is
    /// then garbage that dies at the next collection). The second value is
    /// the bytes this call copied and won with, else 0.
    pub fn evacuate_from_space(&mut self, ptr: Addr) -> (Addr, usize) {
        let ThreadedOwner::Global { node, index } = self.layout.owner_of(ptr) else {
            // Local objects never live in from-space: only global chunks flip.
            return (ptr, 0);
        };
        let from = self.global.band_chunk(node, index, ptr);
        if from.state() != SharedChunkState::FromSpace {
            return (ptr, 0);
        }
        let offset = from.offset_of(ptr);
        let encoded = from.read(offset - 1);
        let header = match HeaderSlot::decode(encoded) {
            HeaderSlot::Forwarded(winner) => return (winner, 0),
            HeaderSlot::Header(header) => header,
        };
        // Rolling the to-space chunk over needs the whole worker; `from` is
        // looked up again afterwards (a directory index, no classification).
        self.reserve_in_global(header.total_words())
            .expect("to-space allocation cannot fail during a global collection");
        let from = self.global.band_chunk(node, index, ptr);
        let copy = self
            .reserved_chunk()
            .alloc_with(encoded, header.len_words as usize, |i| {
                from.read(offset + i)
            })
            .expect("the to-space chunk was reserved for this object");
        match from.try_forward(ptr, encoded, copy) {
            Ok(()) => (copy, header.total_bytes()),
            Err(winner) => (winner, 0),
        }
    }
}

#[cold]
#[inline(never)]
fn foreign_local_access(worker: usize, owner: usize) -> ! {
    panic!(
        "worker {worker} reached into vproc {owner}'s local heap — the no-cross-heap-pointer \
         invariant was violated"
    )
}

#[cold]
#[inline(never)]
fn unmapped_access(addr: Addr, band: Option<usize>) -> ! {
    match band {
        Some(node) => panic!("{addr:?} points past the end of node {node}'s global-heap band"),
        None => panic!("access to unmapped address {addr:?}"),
    }
}

/// An object of a worker's own local heap, as [`WorkerHeap::find`] found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalObject {
    /// The region holding it.
    pub region: LocalRegion,
    /// Word offset of its first payload word.
    pub offset: usize,
    /// Its header slot: a header, or a forward left by an evacuation.
    pub slot: HeaderSlot,
}

/// Where [`WorkerHeap::locate`] found an object: the region holding it and
/// the word offset of its first payload word in that region.
#[derive(Debug, Clone, Copy)]
pub enum Place<'a> {
    /// In the worker's own local heap: plain words nobody else touches.
    Local(&'a [Word], usize),
    /// In a chunk of the shared global heap.
    Global(&'a SharedChunk, usize),
}

/// Where [`WorkerHeap::resolve`] found an object, borrowing only the global
/// heap: the owning vproc and word offset of a local object, or the chunk
/// and word offset of a global one. A [`Place`] borrows the worker too; a
/// location becomes one again through [`WorkerHeap::place_of`] (or
/// [`Heap::place_of`](crate::Heap::place_of)), so a mutator can keep a
/// location across reads while it uses its worker mutably.
#[derive(Debug, Clone, Copy)]
pub enum Location<'g> {
    /// In `vproc`'s local heap, at word offset `offset`.
    Local {
        /// The owning vproc.
        vproc: usize,
        /// Word offset of the object's first payload word.
        offset: usize,
    },
    /// In a chunk of the shared global heap, at a word offset.
    Global(&'g SharedChunk, usize),
}

/// An object found by [`WorkerHeap::resolve`]: its current copy, located,
/// and the node the simulated NUMA cost model charges an access to it to.
#[derive(Debug, Clone, Copy)]
pub struct Resolved<'g> {
    /// The current copy's address (the input unless it was forwarded).
    pub addr: Addr,
    /// Where the current copy lives.
    pub location: Location<'g>,
    /// The node whose memory backs it: the local heap's page node, or the
    /// chunk's.
    pub node: NodeId,
}

impl Place<'_> {
    /// True for an object in the worker's own local heap.
    #[inline]
    pub fn is_local(&self) -> bool {
        matches!(self, Place::Local(..))
    }

    /// Payload field `index` of the object.
    #[inline]
    pub fn read(&self, index: usize) -> Word {
        match *self {
            Place::Local(words, offset) => words[offset + index],
            Place::Global(chunk, offset) => chunk.read(offset + index),
        }
    }

    /// Payload fields `first..first + N` of the object, in order: one match
    /// on the region, then `N` loads.
    #[inline(always)]
    pub fn read_fields<const N: usize>(&self, first: usize) -> [Word; N] {
        let mut out = [0; N];
        match *self {
            Place::Local(words, offset) => {
                out.copy_from_slice(&words[offset + first..offset + first + N]);
            }
            Place::Global(chunk, offset) => {
                for (i, word) in out.iter_mut().enumerate() {
                    *word = chunk.read(offset + first + i);
                }
            }
        }
        out
    }

    /// The object's header slot: a header or a forwarding pointer. Always
    /// inlined: the collectors' per-object header checks call it.
    #[inline(always)]
    pub fn header_slot(&self) -> HeaderSlot {
        HeaderSlot::decode(match *self {
            Place::Local(words, offset) => words[offset - 1],
            Place::Global(chunk, offset) => chunk.read(offset - 1),
        })
    }

    /// The object's header.
    ///
    /// # Panics
    ///
    /// Panics if the object has been forwarded.
    #[inline(always)]
    pub fn header(&self) -> Header {
        self.header_slot().expect_header()
    }

    /// Appends the whole payload to `out` (rope leaves are read this way);
    /// allocates only if `out` has to grow.
    #[inline]
    pub fn payload_into(&self, out: &mut Vec<Word>) {
        let len = self.header().len_words as usize;
        match *self {
            Place::Local(words, offset) => out.extend_from_slice(&words[offset..offset + len]),
            Place::Global(chunk, offset) => {
                out.extend((offset..offset + len).map(|i| chunk.read(i)))
            }
        }
    }

    /// The whole payload in a fresh `Vec`: [`Place::payload_into`].
    pub fn payload(&self) -> Vec<Word> {
        let mut out = Vec::new();
        self.payload_into(&mut out);
        out
    }
}

impl GcHeap for WorkerHeap {
    fn worker_mut(&mut self, vproc: usize) -> &mut WorkerHeap {
        assert_eq!(vproc, self.vproc, "a worker heap only serves its own vproc");
        self
    }

    #[inline(always)]
    fn resolve<'g>(
        &self,
        global: &'g SharedGlobalHeap,
        addr: Addr,
        global_may_forward: bool,
    ) -> Resolved<'g> {
        self.resolve_from(global, self.layout.owner_of(addr), addr, global_may_forward)
    }

    #[inline]
    fn is_local(&self, addr: Addr) -> bool {
        matches!(self.layout.owner_of(addr), ThreadedOwner::Local(_))
    }

    #[inline]
    fn is_global(&self, addr: Addr) -> bool {
        matches!(self.layout.owner_of(addr), ThreadedOwner::Global { .. })
    }

    #[inline]
    fn read_field(&self, obj: Addr, index: usize) -> Word {
        self.locate(obj).read(index)
    }

    fn global(&self) -> &Arc<SharedGlobalHeap> {
        &self.global
    }

    /// The per-worker half of the invariant walk: this vproc's local heap,
    /// by address arithmetic and chunk states only — no other worker's
    /// memory is read and no global object is dereferenced, so it is safe
    /// to run while the other workers mutate.
    fn verify_violations(&self) -> Vec<InvariantViolation> {
        crate::verify::verify_local_heap(self)
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

    /// `owner_of` as it was before the shifts: a division per region size.
    fn owner_by_division(
        raw: u64,
        vprocs: usize,
        nodes: usize,
        local_bytes: u64,
        chunk_bytes: u64,
        span: u64,
    ) -> ThreadedOwner {
        if raw >= GLOBAL_BASE {
            let node = ((raw - GLOBAL_BASE) / span) as usize;
            if node >= nodes {
                return ThreadedOwner::Unmapped;
            }
            let index = (((raw - GLOBAL_BASE) % span) / chunk_bytes) as usize;
            ThreadedOwner::Global { node, index }
        } else if raw >= LOCAL_BASE && ((raw - LOCAL_BASE) / local_bytes) < vprocs as u64 {
            ThreadedOwner::Local(((raw - LOCAL_BASE) / local_bytes) as usize)
        } else {
            ThreadedOwner::Unmapped
        }
    }

    #[test]
    fn owner_of_by_shift_agrees_with_division_for_every_geometry() {
        // Power-of-two sizes take the shift, the others the exact quotient;
        // both must classify every address as the division did.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // splitmix64
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let geometries = [
            (4096usize, 16 * 1024usize, 3usize, 2usize, NODE_SPAN_BYTES),
            (256 * 1024, 512 * 1024, 2, 1, NODE_SPAN_BYTES),
            (4096, 16 * 1024, 4, 2, 1 << 20),
            // Neither size a power of two.
            (4096 + 512, 16 * 1024 + 8, 3, 2, 1 << 20),
            (3 * 1024, 40 * 1024, 5, 3, 1 << 22),
            // One of each.
            (4096, 24 * 1024, 2, 2, NODE_SPAN_BYTES),
            (5 * 1024, 16 * 1024, 2, 2, 1 << 20),
        ];
        for (chunk_bytes, local_bytes, vprocs, nodes, span) in geometries {
            let config = HeapConfig {
                chunk_size_bytes: chunk_bytes,
                local_heap_bytes: local_bytes,
                node_span_bytes: span,
                ..HeapConfig::small_for_tests()
            };
            let layout = ThreadedLayout::new(&config, vprocs, nodes);
            assert_eq!(layout.chunk_words() * WORD_BYTES, chunk_bytes);
            assert_eq!(layout.local_words() * WORD_BYTES, local_bytes);
            let (chunk, local) = (chunk_bytes as u64, local_bytes as u64);
            let check = |raw: u64| {
                assert_eq!(
                    layout.owner_of(Addr::new(raw)),
                    owner_by_division(raw, vprocs, nodes, local, chunk, span),
                    "{raw:#x} under chunk {chunk_bytes} local {local_bytes} span {span:#x}"
                );
            };
            // The edges: around both bases, the first and last word of a
            // chunk and of a local heap, the last word of a node band, one
            // past the last vproc's local heap, one past the last band.
            let local_end = LOCAL_BASE + vprocs as u64 * local;
            let global_end = GLOBAL_BASE + nodes as u64 * span;
            for raw in [
                0,
                8,
                LOCAL_BASE - 8,
                LOCAL_BASE,
                LOCAL_BASE + local - 8,
                LOCAL_BASE + local,
                local_end - 8,
                local_end,
                GLOBAL_BASE - 8,
                GLOBAL_BASE,
                GLOBAL_BASE + chunk - 8,
                GLOBAL_BASE + chunk,
                GLOBAL_BASE + 7 * chunk - 8,
                GLOBAL_BASE + span - 8,
                GLOBAL_BASE + span,
                global_end - 8,
                global_end,
            ] {
                check(raw);
            }
            assert_eq!(
                layout.owner_of(Addr::new(local_end)),
                ThreadedOwner::Unmapped
            );
            assert_eq!(
                layout.owner_of(Addr::new(GLOBAL_BASE - 8)),
                ThreadedOwner::Unmapped
            );
            for _ in 0..2_000 {
                // Random words of the local heaps (and a little beyond), and
                // of the node bands (and one band beyond).
                check(LOCAL_BASE + next() % (local_end - LOCAL_BASE + 4 * local) / 8 * 8);
                check(GLOBAL_BASE + next() % ((nodes as u64 + 1) * span) / 8 * 8);
            }
        }
    }

    #[test]
    fn every_access_path_rides_the_one_location_primitive() {
        // A non-power-of-two geometry end to end: allocate, promote by hand,
        // and read local and global objects through every accessor.
        let config = HeapConfig {
            chunk_size_bytes: 4096 + 512,
            local_heap_bytes: 16 * 1024 + 8,
            ..HeapConfig::small_for_tests()
        };
        let layout = ThreadedLayout::new(&config, 2, 2);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 2));
        let descriptors = Arc::new(DescriptorTable::new());
        let mut w1 = worker(1, layout, &global, &descriptors);
        let local = w1.alloc_raw(&[10, 11, 12]).unwrap();
        assert_eq!(w1.space_of(local), Space::LocalNursery { vproc: 1 });
        assert_eq!(w1.read_field(local, 2), 12);
        assert_eq!(w1.locate(local).header().len_words, 3);
        assert_eq!(w1.locate(local).header_slot().forwarded_to(), None);
        assert_eq!(w1.locate(local).payload(), vec![10, 11, 12]);
        // Fill a chunk and a half so the second object is in chunk 1.
        let header = Header::new(ObjectKind::Raw, 400).encode();
        let first = w1.alloc_in_global(header, &[1; 400]).unwrap();
        let second = w1.alloc_in_global(header, &[2; 400]).unwrap();
        assert_eq!(
            layout.owner_of(second),
            ThreadedOwner::Global { node: 1, index: 1 }
        );
        let w0 = worker(0, layout, &global, &descriptors);
        for (obj, value) in [(first, 1), (second, 2)] {
            assert!(w0.is_global(obj) && !w0.is_local(obj));
            assert_eq!(w0.read_field(obj, 399), value);
            assert_eq!(w0.locate(obj).header().len_words, 400);
            assert_eq!(w0.node_of(obj), NodeId::new(1));
            assert_eq!(w0.resolve(&global, obj, true).addr, obj);
        }
        assert_eq!(
            w0.space_of(second),
            Space::Global {
                chunk: w1.current_chunk().unwrap().id()
            }
        );
        // A foreign local address classifies (arithmetic) but never reads.
        assert!(w0.is_local(local));
        assert_eq!(w0.space_of(local), Space::LocalOld { vproc: 1 });
    }

    #[test]
    #[should_panic(expected = "past the end of node 0's global-heap band")]
    fn unmapped_band_addresses_fail_fast() {
        let (layout, global, descriptors) = setup();
        let w0 = worker(0, layout, &global, &descriptors);
        let _ = GcHeap::read_field(&w0, Addr::new(GLOBAL_BASE + 8), 0);
    }

    #[test]
    fn worker_allocates_locally_without_touching_shared_state() {
        let (layout, global, descriptors) = setup();
        let mut w = worker(0, layout, &global, &descriptors);
        let obj = w.alloc_raw(&[1, 2, 3]).unwrap();
        assert_eq!(w.space_of(obj), Space::LocalNursery { vproc: 0 });
        assert_eq!(w.locate(obj).payload(), vec![1, 2, 3]);
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
        assert_eq!(w1.locate(addr).payload(), vec![7, 8]);
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
        assert_eq!(global.chunk(first).state(), SharedChunkState::Filled);
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
    fn node_local_placement_retargets_the_current_chunk() {
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
        // Back home: allocations return to node 0 — into the very chunk
        // left at the switch, right after `home`, not into a fresh one.
        w.set_promotion_target(NodeId::new(0));
        let back = w.alloc_in_global(header, &[3]).unwrap();
        assert_eq!(global_node_of(back), Some(NodeId::new(0)));
        assert_eq!(back, home.add_words(2));
        assert_eq!(global.chunks_created(), 2);
        // The node-1 chunk waits on its node's partial stack in turn.
        assert_eq!(global.partial_chunks_on(NodeId::new(1)), 1);
        assert_eq!(global.partial_chunks_on(NodeId::new(0)), 0);
        assert_eq!(global.chunks_in_use(), 2, "a partial chunk stays in use");
        assert_eq!(global.chunk_acquisitions(), 3);
    }

    /// Promotes `objects` objects of `payload` words (each word the object's
    /// index) through `w`, alternating the promotion target between nodes 0
    /// and 1, and returns them.
    fn promote_alternating(w: &mut WorkerHeap, objects: u64, payload: usize) -> Vec<Addr> {
        (0..objects)
            .map(|i| {
                w.set_promotion_target(NodeId::new((i % 2) as u16));
                let header = Header::new(ObjectKind::Raw, payload as u64).encode();
                w.alloc_in_global(header, &vec![i; payload]).unwrap()
            })
            .collect()
    }

    #[test]
    fn alternating_promotion_targets_continue_one_chunk_per_node() {
        let (layout, global, descriptors) = setup();
        let mut w = worker(0, layout, &global, &descriptors);
        let objs = promote_alternating(&mut w, 100, 1);
        // One chunk per node, each continued at every switch back to it
        // (abandoning the chunk at each switch made one per switch).
        assert_eq!(global.chunks_created(), 2);
        for (i, &obj) in objs.iter().enumerate() {
            assert_eq!(global_node_of(obj), Some(NodeId::new((i % 2) as u16)));
            assert_eq!(w.locate(obj).payload(), vec![i as u64]);
        }
        // Objects of one node sit back to back in its chunk.
        for i in 2..objs.len() {
            assert_eq!(objs[i], objs[i - 2].add_words(2));
        }
    }

    #[test]
    fn a_partial_chunk_too_full_for_the_request_is_retired_for_good() {
        let (layout, global, descriptors) = setup();
        let mut w = worker(0, layout, &global, &descriptors);
        let words = global.chunk_size_words();
        // Leave four free words in a node-0 chunk, then switch node with a
        // two-word object: the chunk has room for it, so it is parked.
        let raw = |len: usize| Header::new(ObjectKind::Raw, len as u64).encode();
        w.alloc_in_global(raw(words - 5), &vec![1; words - 5])
            .unwrap();
        let tight = w.current_chunk().unwrap().clone();
        assert_eq!(tight.free_words(), 4);
        w.set_promotion_target(NodeId::new(1));
        w.alloc_in_global(raw(1), &[2]).unwrap();
        assert_eq!(global.partial_chunks_on(NodeId::new(0)), 1);
        assert_eq!(tight.state(), SharedChunkState::Filled);
        // Back on node 0 with a ten-word object: the popped chunk cannot
        // take it, stays `Filled` off every stack, and a fresh chunk is
        // mapped. The pop still counts as a lease.
        w.set_promotion_target(NodeId::new(0));
        let acquisitions = global.chunk_acquisitions();
        let obj = w.alloc_in_global(raw(9), &[3; 9]).unwrap();
        assert_ne!(w.current_chunk().unwrap().id(), tight.id());
        assert!(!tight.contains(obj));
        assert_eq!(tight.state(), SharedChunkState::Filled);
        assert_eq!(tight.free_words(), 4, "nothing more was written to it");
        assert_eq!(global.partial_chunks_on(NodeId::new(0)), 0);
        assert_eq!(global.chunks_created(), 3);
        assert_eq!(global.chunk_acquisitions(), acquisitions + 2);
        // No later lease on node 0 hands it out again.
        for _ in 0..4 {
            assert_ne!(global.acquire(NodeId::new(0)).id(), tight.id());
        }
    }

    #[test]
    fn policies_that_never_switch_lease_node_create_the_same_chunks() {
        // 100 objects of 101 words alternating targets: five fit a 512-word
        // chunk, so 20 chunks under every policy that leases one node per
        // worker (or rotates) — as many as before partial chunks existed.
        // Node-local placement now creates the same 20 (ten per node); it
        // made 100, one per switch, while each switch abandoned the chunk.
        let policies: [(&str, PlacementPolicy, AllocPolicy); 4] = [
            (
                "socket-zero",
                PlacementPolicy::NodeLocal,
                AllocPolicy::SocketZero,
            ),
            (
                "interleave",
                PlacementPolicy::Interleave,
                AllocPolicy::Local,
            ),
            (
                "first-touch",
                PlacementPolicy::FirstTouch,
                AllocPolicy::Local,
            ),
            ("node-local", PlacementPolicy::NodeLocal, AllocPolicy::Local),
        ];
        for (name, placement, pages) in policies {
            let config = HeapConfig::small_for_tests();
            let layout = ThreadedLayout::new(&config, 1, 2);
            let global = Arc::new(
                SharedGlobalHeap::new(layout.chunk_words(), 2)
                    .with_placement(placement)
                    .with_page_policy(pages),
            );
            let mut w = worker(0, layout, &global, &Arc::new(DescriptorTable::new()));
            let objs = promote_alternating(&mut w, 100, 100);
            assert_eq!(global.chunks_created(), 20, "{name}");
            for (i, &obj) in objs.iter().enumerate() {
                assert_eq!(GcHeap::read_field(&w, obj, 99), i as u64, "{name}");
            }
        }
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
        assert_eq!(w0.locate(obj).header_slot().forwarded_to(), Some(copy_a));

        // The same race through the collector's copy path, for real: two
        // workers evacuate the same from-space objects at once. Whoever
        // loses an object's CAS must come back with the winner's address,
        // and exactly one of the two is credited with its bytes.
        let mut w1 = worker(1, layout, &global, &descriptors);
        let objs: Vec<Addr> = (0..300u64)
            .map(|i| {
                let header = Header::new(ObjectKind::Raw, 3).encode();
                w0.alloc_in_global(header, &[i, i + 1, i + 2]).unwrap()
            })
            .collect();
        w0.retire_current_chunk();
        for chunk in global.chunks() {
            chunk.set_state(SharedChunkState::FromSpace);
        }
        let start = std::sync::Barrier::new(2);
        let race = |w: &mut WorkerHeap| -> Vec<(Addr, usize)> {
            start.wait();
            objs.iter().map(|&obj| w.evacuate_from_space(obj)).collect()
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| race(&mut w0));
            let b = scope.spawn(|| race(&mut w1));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (i, (&(to_a, bytes_a), &(to_b, bytes_b))) in a.iter().zip(&b).enumerate() {
            assert_eq!(to_a, to_b, "object {i} has one surviving copy");
            assert_eq!(bytes_a + bytes_b, 4 * WORD_BYTES, "credited exactly once");
            let i = i as u64;
            assert_eq!(w0.locate(to_a).payload(), vec![i, i + 1, i + 2]);
        }
    }

    #[test]
    fn from_space_evacuation_copies_every_word_and_yields_to_a_lost_race() {
        let (layout, global, descriptors) = setup();
        let mut w0 = worker(0, layout, &global, &descriptors);
        let mut w1 = worker(1, layout, &global, &descriptors);
        // Three shapes in one chunk: one word, interleaved words, and one
        // that fills a whole to-space chunk by itself.
        let words = global.chunk_size_words();
        let big: Vec<Word> = (0..words as u64 - 1).map(|i| i * 3 + 1).collect();
        let shapes: [&[Word]; 3] = [&[7], &[1, 0, 2, 0, 3], &big];
        let objs: Vec<Addr> = shapes
            .iter()
            .map(|payload| {
                let header = Header::new(ObjectKind::Raw, payload.len() as u64).encode();
                w0.alloc_in_global(header, payload).unwrap()
            })
            .collect();
        // Not from-space yet: pointers come back unchanged, nothing copied.
        assert_eq!(w1.evacuate_from_space(objs[1]), (objs[1], 0));
        let local = w1.alloc_raw(&[1]).unwrap();
        assert_eq!(w1.evacuate_from_space(local), (local, 0));
        w0.retire_current_chunk();
        for chunk in global.chunks() {
            assert_eq!(chunk.state(), SharedChunkState::Filled);
            chunk.set_state(SharedChunkState::FromSpace);
        }
        // Worker 1 wins objects 0 and 2 outright.
        for i in [0, 2] {
            let (copy, bytes) = w1.evacuate_from_space(objs[i]);
            assert_ne!(copy, objs[i]);
            assert_eq!(bytes, (shapes[i].len() + 1) * WORD_BYTES);
            assert_eq!(w0.locate(copy).payload(), shapes[i]);
            assert_eq!(w0.locate(objs[i]).header_slot().forwarded_to(), Some(copy));
            // Already forwarded: every later visitor gets the winner, free.
            assert_eq!(w0.evacuate_from_space(objs[i]), (copy, 0));
        }
        // Object 1: worker 0 forwards it between worker 1's copy and its
        // CAS — the interleaving of a lost race, replayed by hand.
        let header = Header::new(ObjectKind::Raw, 5).encode();
        let winner = w0.alloc_in_global(header, shapes[1]).unwrap();
        let loser = w1.alloc_in_global(header, shapes[1]).unwrap();
        w0.cas_forward_global(objs[1], header, winner).unwrap();
        assert_eq!(w1.cas_forward_global(objs[1], header, loser), Err(winner));
        assert_eq!(w1.evacuate_from_space(objs[1]), (winner, 0));
        assert_eq!(w1.locate(winner).payload(), shapes[1]);
        // The from-space payloads are untouched (only the header slot is
        // CAS'd), so a reader still holding the stale address sees the data.
        assert_eq!(GcHeap::read_field(&w1, objs[1], 4), 3);
    }

    #[test]
    fn directory_grows_by_segments_and_readers_see_later_entries() {
        let config = HeapConfig::small_for_tests();
        let layout = ThreadedLayout::new(&config, 1, 1);
        let global = Arc::new(SharedGlobalHeap::new(layout.chunk_words(), 1));
        assert!(global.chunk_in_band(0, 0).is_none());
        // Grow past the first two segment boundaries (512, then 512 + 1024).
        let total = 3 * DIR_SEG_CHUNKS + 3;
        let chunks: Vec<_> = (0..total).map(|_| global.acquire(NodeId::new(0))).collect();
        assert_eq!(global.num_chunks(), total);
        assert_eq!(global.by_node[0].len(), total);
        // Every entry resolves, in address order, to the chunk the acquire
        // returned — the very allocation, not a copy that moved on growth.
        for (i, chunk) in chunks.iter().enumerate() {
            let entry = global.chunk_in_band(0, i).unwrap();
            assert!(std::ptr::eq(entry, &**chunk));
            assert_eq!(entry.base(), layout_base(&global, i));
        }
        assert!(global.chunk_in_band(0, total).is_none());
        assert!(global.chunk_in_band(1, 0).is_none(), "no such node");
        // A reference taken before the directory grew stays valid, and the
        // same reader resolves entries published afterwards.
        let early = global.chunk_in_band(0, 0).unwrap();
        let more = global.acquire(NodeId::new(0));
        assert_eq!(global.chunk_in_band(0, total).unwrap().id(), more.id());
        assert_eq!(early.id(), chunks[0].id());
        // The flat directory agrees.
        assert_eq!(global.chunks().count(), total + 1);
        // Slot arithmetic at the segment edges.
        assert_eq!(dir_slot(0), (0, 0));
        assert_eq!(dir_slot(DIR_SEG_CHUNKS - 1), (0, DIR_SEG_CHUNKS - 1));
        assert_eq!(dir_slot(DIR_SEG_CHUNKS), (1, 0));
        assert_eq!(
            dir_slot(3 * DIR_SEG_CHUNKS - 1),
            (1, 2 * DIR_SEG_CHUNKS - 1)
        );
        assert_eq!(dir_slot(3 * DIR_SEG_CHUNKS), (2, 0));
        assert_eq!(dir_slot(u32::MAX as usize).0, DIR_SEGMENTS - 1);
    }

    fn layout_base(global: &SharedGlobalHeap, index: usize) -> Addr {
        Addr::new(GLOBAL_BASE + (index * global.chunk_size_bytes()) as u64)
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
                        for i in 0..global.by_node[n].len() {
                            assert_eq!(global.chunk_in_band(n, i).unwrap().node(), node);
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
        // No two workers ever held the same chunk simultaneously.
        let distinct: HashSet<_> = in_use.iter().copied().collect();
        assert_eq!(distinct.len(), in_use.len(), "a chunk was double-leased");
        assert_eq!(global.chunks_in_use(), in_use.len());

        // Then four workers on two nodes promote 10,000 objects each,
        // switching target node at every object, so every lease after the
        // first continues a chunk some worker parked — racing on the
        // partial stacks as well as the free stacks and the directory.
        // Two workers holding one chunk at once would race on its bump
        // pointer: an object lost from `used_words`, an address handed out
        // twice, or a torn payload.
        const OBJECTS: u64 = 10_000;
        let descriptors = Arc::new(DescriptorTable::new());
        let promoters: Vec<_> = (0..4u64)
            .map(|w| {
                let mut heap = worker(w as usize, layout, &global, &descriptors);
                std::thread::spawn(move || {
                    let objs: Vec<(Addr, Vec<Word>)> = (0..OBJECTS)
                        .map(|i| {
                            let target = NodeId::new(((w + i) % 2) as u16);
                            heap.set_promotion_target(target);
                            let payload: Vec<Word> =
                                (0..1 + i % 5).map(|k| (w << 48) | (i << 8) | k).collect();
                            let header = Header::new(ObjectKind::Raw, payload.len() as u64);
                            let obj = heap.alloc_in_global(header.encode(), &payload).unwrap();
                            assert_eq!(global_node_of(obj), Some(target));
                            (obj, payload)
                        })
                        .collect();
                    (heap, objs)
                })
            })
            .collect();
        let promoted: Vec<_> = promoters.into_iter().map(|p| p.join().unwrap()).collect();
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        let reader = &promoted[0].0;
        let mut addrs = HashSet::new();
        let mut words = 0;
        for (_, objs) in &promoted {
            for (obj, payload) in objs {
                assert!(addrs.insert(*obj), "{obj:?} handed out twice");
                assert_eq!(&reader.locate(*obj).payload(), payload);
                words += payload.len() + 1;
            }
        }
        let all: Vec<_> = global.chunks().collect();
        let used: usize = all.iter().map(|c| c.used_words()).sum();
        assert_eq!(used, words, "every promoted word is in exactly one chunk");
        // Each worker ends on its own current chunk.
        let current: HashSet<_> = promoted
            .iter()
            .map(|(heap, _)| heap.current_chunk().unwrap().id())
            .collect();
        assert_eq!(current.len(), 4);
        // Every chunk the directory knows is exactly once in it.
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
