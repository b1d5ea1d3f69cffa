//! NUMA topology, placement policies, and a memory cost model.
//!
//! This crate is the hardware substrate for the reproduction of
//! *Garbage Collection for Multicore NUMA Machines* (Auhagen, Bergstrom,
//! Fluet, Reppy; 2011). The paper evaluates the Manticore garbage collector
//! on two machines — a 48-core AMD Opteron 6172 ("Magny Cours") and a
//! 32-core Intel Xeon X7560 — whose memory hierarchies are described in the
//! paper's Appendix A (Figures 8 and 9, Table 1). This crate models them,
//! and **both** execution backends consume the model:
//!
//! * the **simulated** backend uses the [`MemoryModel`] to turn traffic into
//!   virtual time, reproducing the paper's figures without the hardware;
//! * the **threaded** backend (real OS threads in `mgc-runtime`) derives its
//!   worker→node assignment from [`Topology::spread_cores`], partitions the
//!   shared global heap's chunk pool
//!   by [`NodeId`], leases promotion chunks per the [`PlacementPolicy`], and
//!   orders its steal-victim probing same-node-first. The topology is no
//!   longer consumed only by the simulation.
//!
//! The pieces:
//!
//! * [`Topology`] describes packages, nodes (dies with their own memory
//!   controller), cores, per-node DRAM bandwidth, and the inter-node link
//!   bandwidth/latency matrix. The two paper machines are available as
//!   [`Topology::amd_magny_cours_48`] and [`Topology::intel_xeon_32`]; other
//!   machines can be assembled with [`TopologyBuilder`].
//! * [`AllocPolicy`] and [`PagePlacer`] implement the three physical-page
//!   allocation strategies compared in §4.3 of the paper: *local*
//!   (Manticore's default), *interleaved* (GHC-style round robin), and
//!   *socket zero* (everything on node 0).
//! * [`PlacementPolicy`] is the promotion-chunk placement knob of the
//!   threaded backend: whether a steal victim promotes the stolen graph into
//!   a chunk on the thief's node (`NodeLocal`), its own node (`FirstTouch`),
//!   or round-robin across all nodes (`Interleave`). Runtime front doors
//!   expose it as `Experiment::placement(..)` and `MGC_PLACEMENT`.
//! * [`AdaptiveController`] is a hysteresis state machine that samples the
//!   local/remote promoted-bytes split every 32 promotions and counts its
//!   switches between node-local and interleave. No run uses it; the
//!   benchmark's `numa.adaptive_record_ns` probe times it.
//! * [`Topology::host`] probes the machine the process is actually running
//!   on (sysfs node count, `available_parallelism` cores), falling back to
//!   a deterministic single-node model off-Linux.
//! * [`PageMap`] records which node each page of a flat address space was
//!   placed on and answers "which node backs this address?". No run uses
//!   it; the benchmark's `numa.pagemap_node_of_ns` probe times it.
//! * [`MemoryModel`] converts the work a set of virtual processors performed
//!   during a scheduling round (CPU nanoseconds plus a per-destination-node
//!   traffic vector) into elapsed virtual time using a bottleneck ("roofline")
//!   contention model over memory controllers and inter-node links. This is
//!   what turns "everybody is reading node 0's DRAM" into the bus saturation
//!   the paper observes for the socket-zero policy.
//!
//! # Example
//!
//! ```
//! use mgc_numa::{Topology, AllocPolicy, PagePlacer, NodeId};
//!
//! let topo = Topology::amd_magny_cours_48();
//! assert_eq!(topo.num_cores(), 48);
//! assert_eq!(topo.num_nodes(), 8);
//!
//! // Local-allocation policy places pages on the requesting node.
//! let placer = PagePlacer::new(AllocPolicy::Local, topo.num_nodes());
//! assert_eq!(placer.place(NodeId::new(3)), NodeId::new(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod error;
mod ids;
mod memory;
mod pagemap;
mod policy;
mod stats;
mod topology;

pub use adaptive::AdaptiveController;
pub use error::TopologyError;
pub use ids::{CoreId, NodeId, PackageId};
pub use memory::{Bottleneck, MemoryModel, RoundBreakdown, Traffic, VprocRoundCost};
pub use pagemap::{PageMap, PAGE_SIZE};
pub use policy::{AllocPolicy, PagePlacer, PlacementPolicy};
pub use stats::{AccessClass, TrafficStats};
pub use topology::{CacheSpec, CoreSpec, NodeSpec, Topology, TopologyBuilder};
