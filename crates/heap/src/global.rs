//! The lock-free per-node chunk free lists of the global heap (paper §3.1,
//! §3.4).
//!
//! Chunks carry the NUMA node they were physically allocated on; when a
//! chunk is freed (after a global collection) it goes onto its node's free
//! list and is reused only by vprocs on that node, preserving node affinity.

use crate::chunk::ChunkId;
use mgc_numa::NodeId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Entries per link-table segment (a power of two so indexing is a shift
/// and a mask).
const POOL_SEG_SHIFT: usize = 10;
const POOL_SEG_SIZE: usize = 1 << POOL_SEG_SHIFT;
/// Maximum number of segments, bounding the pool at ~one million chunk ids.
const POOL_MAX_SEGS: usize = 1024;

/// The `next` links of the Treiber stacks, indexed by chunk id. Segments are
/// initialised on first touch (via [`OnceLock`]), so growth never blocks a
/// concurrent pop and steady-state access is a load through a shared
/// reference.
#[derive(Debug)]
struct LinkTable {
    segments: Vec<OnceLock<Box<[AtomicU64]>>>,
}

impl LinkTable {
    fn new() -> Self {
        LinkTable {
            segments: (0..POOL_MAX_SEGS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The link slot of chunk `id`. Slots hold the successor's id + 1
    /// (0 terminates the list).
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the pool's fixed capacity.
    fn slot(&self, id: usize) -> &AtomicU64 {
        let segment = id >> POOL_SEG_SHIFT;
        assert!(
            segment < POOL_MAX_SEGS,
            "chunk id {id} exceeds the pool's {} link slots",
            POOL_MAX_SEGS * POOL_SEG_SIZE
        );
        let segment = self.segments[segment]
            .get_or_init(|| (0..POOL_SEG_SIZE).map(|_| AtomicU64::new(0)).collect());
        &segment[id & (POOL_SEG_SIZE - 1)]
    }
}

/// The lock-free chunk free-list of the
/// [`SharedGlobalHeap`](crate::SharedGlobalHeap).
///
/// Acquiring or releasing a chunk is the only synchronisation point
/// of the promotion path (§3.3), so it must not serialise workers: each
/// node's free list is a **Treiber stack** whose head packs a 32-bit chunk
/// index with a 32-bit ABA tag into one [`AtomicU64`] (the tag advances on
/// every successful push and pop, so a pop that raced with a
/// pop-then-repush of the same chunk cannot CAS a stale head back in). The
/// `next` links live in a segmented table indexed by chunk id; the common
/// case of both `push` and `pop` is a handful of atomic operations and no
/// lock.
#[derive(Debug)]
pub struct SharedChunkPool {
    /// Per-node stack heads: `(tag << 32) | (chunk id + 1)`, 0 = empty.
    heads: Vec<AtomicU64>,
    links: LinkTable,
    /// Per-node free-chunk counts (maintained separately so sizing queries
    /// never walk a concurrently mutating list).
    free_counts: Vec<AtomicUsize>,
    chunks_reused_local: AtomicU64,
}

impl SharedChunkPool {
    /// Creates an empty pool for a machine with `num_nodes` NUMA nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "a machine must have at least one node");
        SharedChunkPool {
            heads: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            links: LinkTable::new(),
            free_counts: (0..num_nodes).map(|_| AtomicUsize::new(0)).collect(),
            chunks_reused_local: AtomicU64::new(0),
        }
    }

    /// Pops a free chunk for a vproc whose preferred node is `node` off that
    /// node's Treiber stack — never another node's: a chunk never changes
    /// node (§3.1). Returns `None` when the caller must map a fresh chunk.
    pub fn pop(&self, node: NodeId) -> Option<ChunkId> {
        let node = node.index();
        let head = &self.heads[node];
        let mut current = head.load(Ordering::Acquire);
        loop {
            let index = (current & u64::from(u32::MAX)) as u32;
            if index == 0 {
                return None;
            }
            let id = index - 1;
            let next = self.links.slot(id as usize).load(Ordering::Acquire);
            let tag = (current >> 32).wrapping_add(1);
            let replacement = (tag << 32) | next;
            match head.compare_exchange_weak(
                current,
                replacement,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_counts[node].fetch_sub(1, Ordering::AcqRel);
                    self.chunks_reused_local.fetch_add(1, Ordering::Relaxed);
                    return Some(ChunkId(id));
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Returns a chunk to `node`'s free list.
    pub fn push(&self, node: NodeId, id: ChunkId) {
        let link = self.links.slot(id.index());
        let head = &self.heads[node.index()];
        let mut current = head.load(Ordering::Acquire);
        loop {
            link.store(current & u64::from(u32::MAX), Ordering::Release);
            let tag = (current >> 32).wrapping_add(1);
            let replacement = (tag << 32) | u64::from(id.0 + 1);
            match head.compare_exchange_weak(
                current,
                replacement,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_counts[node.index()].fetch_add(1, Ordering::AcqRel);
                    return;
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Number of free chunks currently parked on `node`.
    pub fn free_chunks_on(&self, node: NodeId) -> usize {
        self.free_counts[node.index()].load(Ordering::Acquire)
    }

    /// Chunk acquisitions satisfied from a node-local free list.
    pub fn reused_local(&self) -> u64 {
        self.chunks_reused_local.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, ObjectKind};
    use crate::shared::{SharedChunkState, SharedGlobalHeap};

    fn setup() -> SharedGlobalHeap {
        SharedGlobalHeap::new(256, 4)
    }

    #[test]
    fn acquire_creates_then_reuses_with_affinity() {
        let heap = setup();
        let a = heap.acquire(NodeId::new(2));
        assert_eq!(a.state(), SharedChunkState::Current);
        assert_eq!(heap.chunks_created(), 1);
        assert_eq!(a.node(), NodeId::new(2));

        heap.release(&a);
        assert_eq!(heap.pool().free_chunks_on(NodeId::new(2)), 1);

        // A vproc on node 2 gets the same chunk back.
        let b = heap.acquire(NodeId::new(2));
        assert_eq!(a.id(), b.id());
        assert_eq!(heap.pool().reused_local(), 1);

        // A vproc on node 0 does NOT reuse node 2's chunk: affinity.
        heap.release(&b);
        let c = heap.acquire(NodeId::new(0));
        assert_ne!(c.id(), b.id());
        assert_eq!(c.node(), NodeId::new(0));
        assert_eq!(heap.chunks_created(), 2);
        assert_eq!(heap.chunk_acquisitions(), 3);
    }

    #[test]
    fn usage_accounting() {
        let heap = setup();
        let a = heap.acquire(NodeId::new(0));
        let b = heap.acquire(NodeId::new(1));
        b.set_state(SharedChunkState::Filled);
        assert_eq!(heap.chunks_in_use(), 2);
        assert_eq!(heap.bytes_in_use(), 2 * 256 * 8);
        a.alloc(Header::new(ObjectKind::Raw, 3).encode(), &[1, 2, 3])
            .unwrap();
        assert_eq!(a.used_bytes(), 4 * 8);
        heap.release(&b);
        assert_eq!(heap.chunks_in_use(), 1);
        let in_use = heap.snapshot();
        let in_use = in_use
            .iter()
            .filter(|c| c.state() != SharedChunkState::Free);
        assert_eq!(in_use.count(), 1);
        // The after-collection figure only moves when a collection ends.
        assert_eq!(heap.bytes_after_last_collection(), 0);
        heap.mark_collection_end();
        assert_eq!(heap.bytes_after_last_collection(), 256 * 8);
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn double_release_panics() {
        let heap = setup();
        let a = heap.acquire(NodeId::new(0));
        heap.release(&a);
        heap.release(&a);
    }

    #[test]
    fn shared_pool_prefers_node_affinity() {
        let pool = SharedChunkPool::new(2);
        assert_eq!(pool.pop(NodeId::new(0)), None);
        pool.push(NodeId::new(1), ChunkId(9));
        // Node 0 does not take node 1's chunk.
        assert_eq!(pool.pop(NodeId::new(0)), None);
        assert_eq!(pool.free_chunks_on(NodeId::new(1)), 1);
        assert_eq!(pool.pop(NodeId::new(1)), Some(ChunkId(9)));
        assert_eq!(pool.reused_local(), 1);
    }

    #[test]
    fn shared_pool_treiber_stack_is_lifo() {
        let pool = SharedChunkPool::new(1);
        let node = NodeId::new(0);
        pool.push(node, ChunkId(1));
        pool.push(node, ChunkId(2));
        pool.push(node, ChunkId(3));
        assert_eq!(pool.free_chunks_on(node), 3);
        assert_eq!(pool.pop(node), Some(ChunkId(3)));
        assert_eq!(pool.pop(node), Some(ChunkId(2)));
        pool.push(node, ChunkId(7));
        assert_eq!(pool.pop(node), Some(ChunkId(7)));
        assert_eq!(pool.pop(node), Some(ChunkId(1)));
        assert_eq!(pool.pop(node), None);
        assert_eq!(pool.free_chunks_on(node), 0);
    }

    #[test]
    fn shared_pool_concurrent_push_pop_neither_loses_nor_duplicates_chunks() {
        use std::sync::Arc;

        const CHUNKS: u32 = 64;
        let pool = Arc::new(SharedChunkPool::new(1));
        let node = NodeId::new(0);
        for id in 0..CHUNKS {
            pool.push(node, ChunkId(id));
        }

        // Four threads hammer the same node's stack with pop/push cycles —
        // the pop-then-repush of the same id is exactly the ABA pattern the
        // tagged head must survive.
        let held: Vec<Vec<ChunkId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    scope.spawn(move || {
                        let mut held = Vec::new();
                        for round in 0..2000usize {
                            if let Some(id) = pool.pop(node) {
                                if round % 3 == 0 {
                                    pool.push(node, id);
                                } else {
                                    held.push(id);
                                }
                            }
                            if held.len() > 8 {
                                pool.push(node, held.pop().unwrap());
                            }
                        }
                        held
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });

        let mut seen: Vec<u32> = held.into_iter().flatten().map(|id| id.0).collect();
        while let Some(id) = pool.pop(node) {
            seen.push(id.0);
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..CHUNKS).collect::<Vec<_>>(),
            "every chunk must come back exactly once"
        );
    }
}
