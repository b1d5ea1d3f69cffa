//! Physical page / chunk placement policies (paper §4.3).
//!
//! The paper compares three strategies for deciding which NUMA node backs a
//! freshly-allocated region of the heap:
//!
//! * **Local** — allocate on the node of the vproc that requested the memory
//!   (Manticore's default; Figure 5).
//! * **Interleaved** — round-robin pages across all nodes, the strategy used
//!   by the Glasgow Haskell Compiler at the time (Figure 6).
//! * **SocketZero** — allocate everything on node 0, the default behaviour a
//!   single-threaded collector sees (Figure 7).

use crate::ids::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which node should back a new page or global-heap chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicy {
    /// Allocate on the node of the requesting vproc (the paper's default).
    #[default]
    Local,
    /// Round-robin allocations across all nodes (GHC-style).
    Interleaved,
    /// Allocate everything on node 0.
    SocketZero,
}

impl AllocPolicy {
    /// All policies, in the order the paper discusses them.
    pub const ALL: [AllocPolicy; 3] = [
        AllocPolicy::Local,
        AllocPolicy::Interleaved,
        AllocPolicy::SocketZero,
    ];

    /// A short lowercase label, useful for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            AllocPolicy::Local => "local",
            AllocPolicy::Interleaved => "interleaved",
            AllocPolicy::SocketZero => "socket0",
        }
    }
}

impl std::fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for AllocPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "local" => Ok(AllocPolicy::Local),
            "interleaved" | "interleave" => Ok(AllocPolicy::Interleaved),
            "socket0" | "socket-zero" | "socketzero" => Ok(AllocPolicy::SocketZero),
            other => Err(format!("unknown allocation policy `{other}`")),
        }
    }
}

/// Where the *global-heap chunks* that receive promoted objects are placed,
/// node-wise (the threaded backend's promotion-at-steal placement knob).
///
/// [`AllocPolicy`] governs where *pages* land when a region is first
/// allocated; `PlacementPolicy` governs which node's chunk pool a worker
/// leases promotion chunks from — in particular whether the victim of a
/// steal promotes the stolen task's graph into a chunk on **its own** node
/// or on the **thief's** node:
///
/// * [`PlacementPolicy::NodeLocal`] — lease from the *consumer's* node: at a
///   steal handoff the stolen graph lands on the thief's node (where it is
///   about to be traversed); publication-driven promotions stay on the
///   promoting worker's node. This is the paper-faithful locality-first
///   choice and the default.
/// * [`PlacementPolicy::Interleave`] — round-robin chunk leases across all
///   nodes (the GHC-style strategy, the locality-blind baseline the figure-8
///   sweep compares against).
/// * [`PlacementPolicy::FirstTouch`] — lease from the node of the worker
///   performing the promotion (the "first toucher"): at a steal handoff the
///   stolen graph lands on the *victim's* node, mirroring what a first-touch
///   operating-system policy would do to pages the victim writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Lease chunks from the consuming worker's node (thief-node at steal).
    #[default]
    NodeLocal,
    /// Round-robin chunk leases across all nodes.
    Interleave,
    /// Lease chunks from the promoting worker's node (victim-node at steal).
    FirstTouch,
}

impl PlacementPolicy {
    /// Every policy, in comparison order (`NodeLocal` vs `Interleave` is
    /// the figure-8 axis).
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::NodeLocal,
        PlacementPolicy::Interleave,
        PlacementPolicy::FirstTouch,
    ];

    /// A short lowercase label, used by `--placement` flags and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::NodeLocal => "node-local",
            PlacementPolicy::Interleave => "interleave",
            PlacementPolicy::FirstTouch => "first-touch",
        }
    }

    /// True when the policy binds a chunk lease to one specific node (so a
    /// current chunk on the wrong node must be retired before promoting);
    /// `Interleave` deliberately does not.
    pub fn binds_node(self) -> bool {
        !matches!(self, PlacementPolicy::Interleave)
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for PlacementPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "node-local" | "node_local" | "nodelocal" => Ok(PlacementPolicy::NodeLocal),
            "interleave" | "interleaved" => Ok(PlacementPolicy::Interleave),
            "first-touch" | "first_touch" | "firsttouch" => Ok(PlacementPolicy::FirstTouch),
            other => Err(format!(
                "unknown placement policy `{other}` (expected `node-local`, `interleave`, or \
                 `first-touch`)"
            )),
        }
    }
}

/// Stateful placer that applies an [`AllocPolicy`].
///
/// The only policy that needs state is `Interleaved`, which keeps a
/// round-robin cursor; the cursor is atomic so a placer can be shared between
/// threads (the real-thread GC tests do this).
#[derive(Debug)]
pub struct PagePlacer {
    policy: AllocPolicy,
    num_nodes: usize,
    cursor: AtomicUsize,
}

impl PagePlacer {
    /// Creates a placer for a machine with `num_nodes` NUMA nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(policy: AllocPolicy, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "a machine must have at least one node");
        PagePlacer {
            policy,
            num_nodes,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The policy this placer applies.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Number of nodes this placer distributes over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Decides the backing node for a new page or chunk requested by a vproc
    /// running on `requesting` node.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mgc_numa::{PagePlacer, AllocPolicy, NodeId};
    /// let p = PagePlacer::new(AllocPolicy::SocketZero, 8);
    /// assert_eq!(p.place(NodeId::new(5)), NodeId::new(0));
    /// ```
    pub fn place(&self, requesting: NodeId) -> NodeId {
        match self.policy {
            AllocPolicy::Local => requesting,
            AllocPolicy::SocketZero => NodeId::new(0),
            AllocPolicy::Interleaved => {
                let next = self.cursor.fetch_add(1, Ordering::Relaxed);
                NodeId::new((next % self.num_nodes) as u16)
            }
        }
    }

    /// Resets the interleave cursor (no effect for other policies). Useful
    /// for reproducible simulation runs.
    pub fn reset(&self) {
        self.cursor.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_places_on_requester() {
        let p = PagePlacer::new(AllocPolicy::Local, 8);
        for n in 0..8u16 {
            assert_eq!(p.place(NodeId::new(n)), NodeId::new(n));
        }
    }

    #[test]
    fn socket_zero_always_node_zero() {
        let p = PagePlacer::new(AllocPolicy::SocketZero, 8);
        for n in 0..8u16 {
            assert_eq!(p.place(NodeId::new(n)), NodeId::new(0));
        }
    }

    #[test]
    fn interleaved_round_robins_regardless_of_requester() {
        let p = PagePlacer::new(AllocPolicy::Interleaved, 4);
        let placements: Vec<_> = (0..8).map(|_| p.place(NodeId::new(3)).index()).collect();
        assert_eq!(placements, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        p.reset();
        assert_eq!(p.place(NodeId::new(0)).index(), 0);
    }

    #[test]
    fn interleaved_is_balanced_over_many_placements() {
        let p = PagePlacer::new(AllocPolicy::Interleaved, 8);
        let mut counts = [0usize; 8];
        for _ in 0..800 {
            counts[p.place(NodeId::new(0)).index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100));
    }

    #[test]
    fn policy_parses_from_str() {
        assert_eq!("local".parse::<AllocPolicy>().unwrap(), AllocPolicy::Local);
        assert_eq!(
            "Interleaved".parse::<AllocPolicy>().unwrap(),
            AllocPolicy::Interleaved
        );
        assert_eq!(
            "socket0".parse::<AllocPolicy>().unwrap(),
            AllocPolicy::SocketZero
        );
        assert!("bogus".parse::<AllocPolicy>().is_err());
    }

    #[test]
    fn labels_are_stable() {
        for p in AllocPolicy::ALL {
            assert_eq!(p.label().parse::<AllocPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_machine_rejected() {
        let _ = PagePlacer::new(AllocPolicy::Local, 0);
    }

    #[test]
    fn placement_policy_labels_round_trip() {
        for p in PlacementPolicy::ALL {
            assert_eq!(p.label().parse::<PlacementPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::NodeLocal);
        assert_eq!(
            "interleaved".parse::<PlacementPolicy>().unwrap(),
            PlacementPolicy::Interleave
        );
        assert_eq!(
            "NODE-LOCAL".parse::<PlacementPolicy>().unwrap(),
            PlacementPolicy::NodeLocal
        );
        assert!("bogus".parse::<PlacementPolicy>().is_err());
        assert_eq!(PlacementPolicy::ALL.len(), 3);
    }

    #[test]
    fn placement_policy_binds_node() {
        assert!(PlacementPolicy::NodeLocal.binds_node());
        assert!(PlacementPolicy::FirstTouch.binds_node());
        assert!(!PlacementPolicy::Interleave.binds_node());
    }
}
