//! Object model, Appel-style local heaps, and the chunked global heap for
//! the Manticore NUMA garbage collector reproduction.
//!
//! This crate provides the *mechanism* layer of the memory system described
//! in §3 of *Garbage Collection for Multicore NUMA Machines*:
//!
//! * the 64-bit object header word and the raw/vector/mixed object kinds
//!   ([`Header`], [`ObjectKind`], Figure 1 of the paper);
//! * the object-descriptor table standing in for the compiler-generated
//!   scanning functions ([`DescriptorTable`], §3.2);
//! * per-vproc [`LocalHeap`]s with the Appel semi-generational nursery /
//!   young / old geometry (Figures 2 and 3);
//! * the one chunked global heap, [`SharedGlobalHeap`]: chunks in per-node
//!   address bands, leased to vprocs, pooled on lock-free per-node free
//!   lists and reused with node affinity (§3.1, §3.4);
//! * [`WorkerHeap`], one vproc's view — its own local heap plus the shared
//!   global heap — with the evacuation primitive every collection is built
//!   from; the threaded backend gives one to each OS thread, and the
//!   simulated backend's [`Heap`] is all of them behind a vproc-indexed
//!   interface; and
//! * invariant checkers for the two no-cross-heap-pointer rules (§2.3).
//!
//! The collection algorithms themselves (minor, major, promotion, global)
//! live in the `mgc-core` crate.
//!
//! # Example
//!
//! ```
//! use mgc_heap::{Heap, HeapConfig};
//! use mgc_numa::NodeId;
//!
//! // A heap for two vprocs pinned to two different NUMA nodes.
//! let mut heap = Heap::new(HeapConfig::small_for_tests(), &[NodeId::new(0), NodeId::new(1)], 2);
//! let point = heap.alloc_raw(0, &[1, 2, 3])?;
//! let wrapper = heap.alloc_vector(0, &[point.raw()])?;
//! assert_eq!(heap.payload(point), vec![1, 2, 3]);
//! assert_eq!(heap.read_field(wrapper, 0), point.raw());
//! # Ok::<(), mgc_heap::HeapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod chunk;
mod descriptor;
mod error;
mod gc_heap;
mod global;
mod header;
#[allow(clippy::module_inception)]
mod heap;
mod local;
mod object;
mod shared;
mod verify;

pub use addr::{word_as_pointer, Addr, Word, WORD_BYTES};
pub use chunk::ChunkId;
pub use descriptor::{Descriptor, DescriptorId, DescriptorTable, PointerFields};
pub use error::HeapError;
pub use gc_heap::GcHeap;
pub use global::SharedChunkPool;
pub use header::{
    Header, HeaderSlot, ObjectKind, FIRST_MIXED_ID, MAX_ID, MAX_LEN_WORDS, RAW_ID, VECTOR_ID,
};
pub use heap::{
    EvacTarget, GeometryViolation, Heap, HeapConfig, HeapGeometry, HeapStats, Space,
    MIN_CHUNK_BYTES, MIN_LOCAL_HEAP_BYTES,
};
pub use local::{LocalHeap, LocalHeapStats, LocalObjects, LocalRegion};
pub use object::{f64_to_word, i64_to_word, word_to_f64, word_to_i64};
pub use shared::{
    global_node_of, Location, Place, Resolved, SharedChunk, SharedChunkState, SharedGlobalHeap,
    ThreadedLayout, ThreadedOwner, WorkerHeap, DIR_SEG_CHUNKS, GLOBAL_BASE, LOCAL_BASE,
    MAX_NODE_SPAN_SHIFT, NODE_SPAN_BYTES, NODE_SPAN_SHIFT,
};
pub use verify::{verify_global_heap, verify_heap, verify_local_heap, InvariantViolation};
