//! The Manticore NUMA garbage collector: the paper's primary contribution.
//!
//! This crate implements the collection algorithms of *Garbage Collection
//! for Multicore NUMA Machines* (Auhagen, Bergstrom, Fluet, Reppy; 2011) on
//! top of the heap mechanism provided by `mgc-heap`:
//!
//! * **Minor collections** ([`Collector::minor`]) copy live nursery objects
//!   into the old-data area of the same local heap; they need no
//!   synchronisation because nothing outside the vproc can point into its
//!   nursery (§2.3, §3.3, Figure 2).
//! * **Major collections** ([`Collector::major`]) promote the live old data
//!   to the vproc's current global-heap chunk while exempting the young data
//!   that the preceding minor collection just copied (§3.3, Figure 3).
//! * **Promotion** ([`Collector::promote`]) copies a single object graph to
//!   the global heap so it can be shared with another vproc (work stealing
//!   and CML message passing both require this).
//! * **Global collections** ([`Collector::global`]) are stop-the-world,
//!   parallel, copying collections of the global heap organised around
//!   per-node from-space chunk lists and node-affine to-space allocation
//!   (§3.4); both backends run one sequence of their phases
//!   ([`Collector::collect_global`]).
//!
//! Every operation returns a [`GcCost`] describing the CPU time and
//! per-NUMA-node memory traffic it generated; the `mgc-runtime` crate feeds
//! those into the machine's memory model so collector work contends for the
//! same memory controllers and interconnect links as mutator work.
//!
//! # Example
//!
//! ```
//! use mgc_core::{Collector, GcConfig};
//! use mgc_heap::{GcHeap, Heap, HeapConfig};
//! use mgc_numa::NodeId;
//!
//! let mut heap = Heap::new(HeapConfig::small_for_tests(), &[NodeId::new(0)], 1);
//! let mut collector = Collector::new(GcConfig::small_for_tests(), 1, 1);
//!
//! // Allocate a little object graph, then collect with its root.
//! let leaf = heap.alloc_raw(0, &[42])?;
//! let root = heap.alloc_vector(0, &[leaf.raw()])?;
//! let mut roots = vec![root];
//! let outcome = collector.minor(&mut heap, 0, &mut roots);
//! assert!(outcome.copied_bytes > 0);
//! // The root was rewritten to the surviving copy.
//! let leaf = mgc_heap::Addr::new(heap.read_field(roots[0], 0));
//! assert_eq!(heap.locate(leaf).payload(), vec![42]);
//! # Ok::<(), mgc_heap::HeapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod config;
mod cost;
mod global;
pub mod histogram;
mod major;
mod stats;

pub use collector::{Collector, GcOutcome};
pub use config::GcConfig;
pub use cost::{
    GcCost, CHUNK_ACQUIRE_NS, COLLECTION_FIXED_NS, CPU_NS_PER_WORD_COPIED, CPU_NS_PER_WORD_SCANNED,
    GLOBAL_BARRIER_NS,
};
pub use global::{
    evacuate_roots, flip_to_from_space, release_from_space, scan_pass, GlobalOutcome,
    ParallelGcState, Rendezvous, Sequential,
};
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use stats::{CollectionKind, GcStats, PauseStats, PAUSE_BUCKETS};
