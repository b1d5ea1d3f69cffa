//! Cost accounting for collector work.
//!
//! Every collection returns a [`GcCost`] describing the CPU work it did and
//! the bytes it moved to or from each NUMA node. The runtime feeds these
//! into the `mgc-numa` memory model so that collector work competes for the
//! same memory controllers and links as mutator work — this is how the
//! benefit of node-local collection (and the penalty of socket-zero
//! placement) shows up in the reproduced figures.

use mgc_numa::{NodeId, Traffic, VprocRoundCost};

/// CPU nanoseconds charged per word the collector copies.
pub const CPU_NS_PER_WORD_COPIED: f64 = 1.0;
/// CPU nanoseconds charged per word the collector scans (reads and tests).
pub const CPU_NS_PER_WORD_SCANNED: f64 = 0.6;
/// Fixed CPU nanoseconds charged per collection for entering/leaving the
/// collector (saving registers, flipping spaces, and so on).
pub const COLLECTION_FIXED_NS: f64 = 2_000.0;
/// Cost of acquiring a fresh global-heap chunk: this is the node-local or
/// global synchronisation point described in §3.3.
pub const CHUNK_ACQUIRE_NS: f64 = 1_500.0;
/// Cost per vproc of the global-collection barrier (§3.4 steps 1–3).
pub const GLOBAL_BARRIER_NS: f64 = 25_000.0;

/// Accumulated cost of one or more collector operations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GcCost {
    /// Pure CPU time in nanoseconds.
    pub cpu_ns: f64,
    /// Bytes read from or written to each node (indexed by node id).
    pub bytes_to_node: Vec<u64>,
}

impl GcCost {
    /// Creates an empty cost record for a machine with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GcCost {
            cpu_ns: 0.0,
            bytes_to_node: vec![0; num_nodes],
        }
    }

    /// Charges fixed CPU time.
    pub fn charge_cpu(&mut self, ns: f64) {
        self.cpu_ns += ns;
    }

    /// Charges a copy of `bytes` bytes from memory on `src` to memory on
    /// `dst` (reads on the source node, writes on the destination node) plus
    /// the per-word CPU cost.
    pub fn charge_copy(&mut self, src: NodeId, dst: NodeId, bytes: usize) {
        self.touch(src, bytes as u64);
        self.touch(dst, bytes as u64);
        self.cpu_ns += (bytes as f64 / 8.0) * CPU_NS_PER_WORD_COPIED;
    }

    /// Charges a scan of `bytes` bytes resident on `node`.
    pub fn charge_scan(&mut self, node: NodeId, bytes: usize) {
        self.touch(node, bytes as u64);
        self.cpu_ns += (bytes as f64 / 8.0) * CPU_NS_PER_WORD_SCANNED;
    }

    /// Total bytes of memory traffic this cost represents.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to_node.iter().sum()
    }

    /// Merges another cost into this one.
    pub fn merge(&mut self, other: &GcCost) {
        self.cpu_ns += other.cpu_ns;
        if self.bytes_to_node.len() < other.bytes_to_node.len() {
            self.bytes_to_node.resize(other.bytes_to_node.len(), 0);
        }
        for (i, b) in other.bytes_to_node.iter().enumerate() {
            self.bytes_to_node[i] += b;
        }
    }

    /// Adds this cost onto a vproc's round cost for the memory model.
    pub fn apply_to(&self, round: &mut VprocRoundCost) {
        round.add_cpu_ns(self.cpu_ns);
        for (node, &bytes) in self.bytes_to_node.iter().enumerate() {
            if bytes > 0 {
                round.add_traffic(NodeId::new(node as u16), Traffic::new(bytes, 0));
            }
        }
    }

    fn touch(&mut self, node: NodeId, bytes: u64) {
        if self.bytes_to_node.len() <= node.index() {
            self.bytes_to_node.resize(node.index() + 1, 0);
        }
        self.bytes_to_node[node.index()] += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_numa::CoreId;

    #[test]
    fn copy_charges_both_nodes_and_cpu() {
        let mut cost = GcCost::new(4);
        cost.charge_copy(NodeId::new(0), NodeId::new(2), 64);
        assert_eq!(cost.bytes_to_node, vec![64, 0, 64, 0]);
        assert!((cost.cpu_ns - 8.0 * CPU_NS_PER_WORD_COPIED).abs() < 1e-9);
        assert_eq!(cost.total_bytes(), 128);
    }

    #[test]
    fn scan_charges_one_node() {
        let mut cost = GcCost::new(2);
        cost.charge_scan(NodeId::new(1), 80);
        assert_eq!(cost.bytes_to_node, vec![0, 80]);
        assert!((cost.cpu_ns - 10.0 * CPU_NS_PER_WORD_SCANNED).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_and_grows() {
        let mut a = GcCost::new(1);
        a.charge_cpu(5.0);
        let mut b = GcCost::new(4);
        b.charge_scan(NodeId::new(3), 8);
        a.merge(&b);
        assert_eq!(a.bytes_to_node.len(), 4);
        assert_eq!(a.bytes_to_node[3], 8);
        assert!(a.cpu_ns > 5.0);
    }

    #[test]
    fn apply_to_round_cost() {
        let mut cost = GcCost::new(2);
        cost.charge_copy(NodeId::new(0), NodeId::new(1), 16);
        cost.charge_cpu(3.0);
        let mut round = VprocRoundCost::new(CoreId::new(0), 2);
        cost.apply_to(&mut round);
        assert_eq!(round.traffic_to[0].bytes, 16);
        assert_eq!(round.traffic_to[1].bytes, 16);
        assert!(round.cpu_ns > 0.0);
    }

    #[test]
    fn out_of_range_node_grows_vector() {
        let mut cost = GcCost::new(1);
        cost.charge_scan(NodeId::new(5), 8);
        assert_eq!(cost.bytes_to_node.len(), 6);
    }
}
