//! Spare heap storage, recycled from one heap to the next in a process.
//!
//! Every local heap and every global chunk lives in one fixed-length buffer
//! of words. The collector never gives that memory back while a machine runs
//! (§3.1, §3.4: chunks go back to their node's free list and are leased
//! again), but a process that builds many machines in turn — a figure sweep,
//! a simulated benchmark cell — would still ask the allocator for fresh
//! zeroed storage for each one and fault its pages in again. [`STORAGE`]
//! keeps the buffer of every dropped local heap and chunk and hands it to the
//! next one of exactly the same length, last in first out, so the buffer
//! whose pages were touched most recently goes first.
//!
//! A recycled buffer is **not zeroed**: it holds whatever its last owner
//! wrote. That is sound because no heap reads a word it has not written
//! since it took the buffer; [`LocalHeap::new`](crate::LocalHeap::new) and
//! `SharedChunk::new` each state how.
//!
//! The pool never holds more buffers of a length than were live at once: a
//! buffer enters it only when its owner drops it, and a fresh one is made
//! only when none of that length is spare, so spare plus live buffers never
//! exceed the most that were ever live together.

use crate::addr::Word;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, PoisonError};

/// Spare word buffers by exact length, each length's handed out LIFO.
#[derive(Debug)]
pub(crate) struct StoragePool {
    spare: Mutex<BTreeMap<usize, Vec<Vec<Word>>>>,
}

/// The process's one storage pool: every [`LocalHeap`](crate::LocalHeap)
/// and `SharedChunk` takes its buffer here and gives it back when dropped.
pub(crate) static STORAGE: StoragePool = StoragePool::new();

impl StoragePool {
    /// An empty pool.
    pub(crate) const fn new() -> Self {
        StoragePool {
            spare: Mutex::new(BTreeMap::new()),
        }
    }

    /// A buffer of exactly `len` words: the spare one given back last, with
    /// its old words, or else a fresh zeroed one.
    pub(crate) fn take(&self, len: usize) -> Vec<Word> {
        let spare = self.lock().get_mut(&len).and_then(Vec::pop);
        spare.unwrap_or_else(|| vec![0; len])
    }

    /// Keeps `buffer` for the next [`StoragePool::take`] of its length.
    pub(crate) fn give(&self, buffer: Vec<Word>) {
        if !buffer.is_empty() {
            self.lock().entry(buffer.len()).or_default().push(buffer);
        }
    }

    /// The number of spare buffers of `len` words.
    #[cfg(test)]
    pub(crate) fn spare(&self, len: usize) -> usize {
        self.lock().get(&len).map_or(0, Vec::len)
    }

    /// The map, whether or not a thread panicked holding it: nothing between
    /// a lock and its release can leave the map half-updated.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<usize, Vec<Vec<Word>>>> {
        self.spare.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `words` as atomics, in place: the standard library collects a mapped
/// `vec::IntoIter` into its own allocation when the element layouts match,
/// so the buffer keeps its pointer and no page is copied.
pub(crate) fn into_atomic(words: Vec<Word>) -> Vec<AtomicU64> {
    words.into_iter().map(AtomicU64::new).collect()
}

/// [`into_atomic`] undone, in place.
pub(crate) fn from_atomic(words: Vec<AtomicU64>) -> Vec<Word> {
    words.into_iter().map(AtomicU64::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcHeap, Header, Heap, HeapConfig, ObjectKind};
    use mgc_numa::NodeId;

    #[test]
    fn conversions_keep_the_buffer_in_place() {
        let words: Vec<Word> = (0..4096).collect();
        let ptr = words.as_ptr() as usize;
        let atomics = into_atomic(words);
        assert_eq!(atomics.as_ptr() as usize, ptr, "to atomics copied");
        let words = from_atomic(atomics);
        assert_eq!(words.as_ptr() as usize, ptr, "from atomics copied");
        assert!(words.iter().copied().eq(0..4096), "the words survive");
    }

    #[test]
    fn buffers_are_reused_by_exact_length_last_in_first_out() {
        let pool = StoragePool::new();
        let mut a = pool.take(64);
        let b = pool.take(64);
        let other = pool.take(128);
        assert_eq!(a, vec![0; 64], "a fresh buffer is zeroed");
        a[3] = 7;
        let (a_ptr, b_ptr) = (a.as_ptr(), b.as_ptr());
        pool.give(b);
        pool.give(a);
        pool.give(other);
        assert_eq!((pool.spare(64), pool.spare(128), pool.spare(32)), (2, 1, 0));
        let again = pool.take(64);
        assert_eq!(again.as_ptr(), a_ptr, "the last one given back goes first");
        assert_eq!(again[3], 7, "a reused buffer keeps its words");
        let then = pool.take(64);
        assert_eq!(then.as_ptr(), b_ptr);
        assert_eq!(pool.take(32).len(), 32, "no spare of a length: a fresh one");
        assert_eq!(pool.spare(64), 0);
    }

    /// K identical machines in sequence on a private pool, each taking and
    /// dropping buffers of three lengths in one seeded order and dropping
    /// the rest when it ends: at every step, spare plus live buffers of a
    /// length never exceed the most that were live together, and from the
    /// second machine on every buffer is a reused one.
    #[test]
    fn identical_machines_never_leave_more_spares_than_were_live_at_once() {
        const LENGTHS: [usize; 3] = [64, 96, 128];
        let pool = StoragePool::new();
        let mut peak = [0usize; 3];
        let mut buffers = std::collections::HashSet::new();
        for machine in 0..5 {
            let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut live: Vec<Vec<Word>> = Vec::new();
            for _ in 0..500 {
                if live.is_empty() || next() % 3 != 0 {
                    let buffer = pool.take(LENGTHS[(next() % 3) as usize]);
                    let fresh = buffers.insert(buffer.as_ptr() as usize);
                    assert!(machine == 0 || !fresh, "machine {machine} made a buffer");
                    live.push(buffer);
                } else {
                    let at = (next() as usize) % live.len();
                    pool.give(live.swap_remove(at));
                }
                for (len, peak) in LENGTHS.iter().zip(&mut peak) {
                    let now = live.iter().filter(|b| b.len() == *len).count();
                    *peak = (*peak).max(now);
                    assert!(pool.spare(*len) + now <= *peak, "{len}-word buffers");
                }
            }
            live.drain(..).for_each(|buffer| pool.give(buffer));
            for (len, peak) in LENGTHS.iter().zip(&peak) {
                assert_eq!(pool.spare(*len), *peak, "after machine {machine}");
            }
        }
    }

    /// K identical heaps in sequence through the process's pool, at lengths
    /// no other test uses: each heap takes back every buffer the one before
    /// it gave, and the pool then holds exactly what one heap had live.
    #[test]
    fn identical_heaps_in_sequence_reuse_every_buffer() {
        let (local_words, chunk_words) = (1537, 385);
        let config = HeapConfig {
            chunk_size_bytes: chunk_words * 8,
            local_heap_bytes: local_words * 8,
            ..HeapConfig::small_for_tests()
        };
        let nodes = [NodeId::new(0), NodeId::new(1), NodeId::new(0)];
        let header = Header::new(ObjectKind::Raw, 40).encode();
        let mut chunks = None;
        for machine in 0..4 {
            let mut heap = Heap::new(config, &nodes, 2);
            for vproc in 0..nodes.len() {
                for i in 0..20 {
                    heap.worker_mut(vproc)
                        .alloc_in_global(header, &[i; 40])
                        .unwrap();
                }
            }
            assert_eq!(STORAGE.spare(local_words), 0, "machine {machine}");
            assert_eq!(STORAGE.spare(chunk_words), 0, "machine {machine}");
            let created = heap.global().num_chunks();
            assert_eq!(*chunks.get_or_insert(created), created);
            drop(heap);
            assert_eq!(STORAGE.spare(local_words), nodes.len());
            assert_eq!(STORAGE.spare(chunk_words), created);
        }
    }

    /// Four threads build, fill, read back and drop heaps through the
    /// process's pool at once, each round started together: no buffer is
    /// ever handed to two live heaps.
    #[test]
    fn four_threads_build_and_drop_heaps_through_the_shared_pool() {
        let nodes = [NodeId::new(0), NodeId::new(1)];
        let header = Header::new(ObjectKind::Raw, 2).encode();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let start = &start;
                scope.spawn(move || {
                    for round in 0..25u64 {
                        start.wait();
                        let tag = thread << 32 | round;
                        let mut heap = Heap::new(HeapConfig::small_for_tests(), &nodes, 2);
                        let mut objects = Vec::new();
                        for i in 0..100 {
                            let vproc = (i % 2) as usize;
                            objects.push((heap.alloc_raw(vproc, &[tag, i]).unwrap(), i));
                            let global = heap.worker_mut(vproc).alloc_in_global(header, &[tag, i]);
                            objects.push((global.unwrap(), i));
                        }
                        for (obj, i) in objects {
                            assert_eq!(heap.locate(obj).payload(), [tag, i], "thread {thread}");
                        }
                    }
                });
            }
        });
    }
}
