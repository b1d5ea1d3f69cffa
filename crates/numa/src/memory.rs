//! The memory cost model: converts per-vproc work into elapsed virtual time.
//!
//! The simulation driver (in `mgc-runtime`) executes vprocs in *rounds*: in
//! each round every runnable vproc performs roughly one scheduling quantum of
//! work and reports what it did as a [`VprocRoundCost`] — CPU nanoseconds
//! plus a vector of bytes/accesses directed at each NUMA node. The
//! [`MemoryModel`] then computes how long the round took on the modelled
//! machine.
//!
//! The model is a *bottleneck* (roofline-style) model. The round cannot be
//! shorter than
//!
//! 1. the longest *serial* cost of any single vproc (its CPU time plus its
//!    memory time at uncontended bandwidth and latency), nor
//! 2. the time any *memory controller* needs to serve all bytes directed at
//!    its node, nor
//! 3. the time any *inter-node link* needs to carry all bytes crossing it.
//!
//! Constraint 1 gives linear scaling for compute-bound, well-partitioned
//! work (DMM, Raytracer). Constraint 2 produces the bus saturation the paper
//! observes when every vproc's data lives on node 0 (Figure 7) and the
//! saturation of the node holding the shared SMVM vector (§4.2). Constraint
//! 3 penalises policies that push most traffic across the narrow 6.4 GB/s
//! HyperTransport links (Figure 6 vs Figure 5).

use crate::ids::{CoreId, NodeId};
use crate::topology::Topology;

/// Memory-level parallelism factor: how many cache-miss latencies overlap.
///
/// Modern out-of-order cores sustain several outstanding misses, so the
/// effective latency cost of a stream of accesses is the raw latency divided
/// by this factor. The value is deliberately conservative.
const DEFAULT_MLP: f64 = 4.0;

/// Traffic from one vproc to one destination node during a round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes read or written.
    pub bytes: u64,
    /// Number of distinct accesses (cache-line granules), used for latency
    /// charging.
    pub accesses: u64,
}

impl Traffic {
    /// Creates a traffic record.
    pub fn new(bytes: u64, accesses: u64) -> Self {
        Traffic { bytes, accesses }
    }

    /// Merges another record into this one.
    pub fn add(&mut self, other: Traffic) {
        self.bytes += other.bytes;
        self.accesses += other.accesses;
    }

    /// True if no traffic was recorded.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0 && self.accesses == 0
    }
}

/// Everything one vproc did during a scheduling round.
#[derive(Debug, Clone, PartialEq)]
pub struct VprocRoundCost {
    /// The core the vproc is pinned to.
    pub core: CoreId,
    /// Pure compute time in nanoseconds.
    pub cpu_ns: f64,
    /// Traffic to each node, indexed by node id. May be shorter than the
    /// machine's node count; missing entries mean zero traffic.
    pub traffic_to: Vec<Traffic>,
}

impl VprocRoundCost {
    /// Creates an empty cost record for a vproc pinned to `core` on a machine
    /// with `num_nodes` nodes.
    pub fn new(core: CoreId, num_nodes: usize) -> Self {
        VprocRoundCost {
            core,
            cpu_ns: 0.0,
            traffic_to: vec![Traffic::default(); num_nodes],
        }
    }

    /// Adds compute time.
    pub fn add_cpu_ns(&mut self, ns: f64) {
        self.cpu_ns += ns;
    }

    /// Adds traffic directed at `node`.
    pub fn add_traffic(&mut self, node: NodeId, traffic: Traffic) {
        if self.traffic_to.len() <= node.index() {
            self.traffic_to.resize(node.index() + 1, Traffic::default());
        }
        self.traffic_to[node.index()].add(traffic);
    }

    /// Total bytes this vproc moved during the round.
    pub fn total_bytes(&self) -> u64 {
        self.traffic_to.iter().map(|t| t.bytes).sum()
    }

    /// True if the vproc did nothing this round.
    pub fn is_idle(&self) -> bool {
        self.cpu_ns == 0.0 && self.traffic_to.iter().all(Traffic::is_empty)
    }
}

/// What limited the duration of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bottleneck {
    /// No vproc did any work.
    Idle,
    /// The critical path was a single vproc's serial (CPU + uncontended
    /// memory) time.
    Compute {
        /// The core of the limiting vproc.
        core: CoreId,
    },
    /// A node's memory controller was saturated.
    MemoryController {
        /// The saturated node.
        node: NodeId,
    },
    /// An inter-node link was saturated.
    Link {
        /// Source node of the saturated link.
        src: NodeId,
        /// Destination node of the saturated link.
        dst: NodeId,
    },
}

/// Result of costing one scheduling round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundBreakdown {
    /// Elapsed virtual time of the round in nanoseconds.
    pub duration_ns: f64,
    /// Which resource set the duration.
    pub bottleneck: Bottleneck,
    /// The largest per-vproc serial cost in the round.
    pub max_serial_ns: f64,
    /// Time each memory controller would need to serve its demand, by node.
    pub controller_ns: Vec<f64>,
    /// Time the busiest link would need, and which link it is.
    pub max_link_ns: f64,
}

/// The cost model for a particular [`Topology`].
#[derive(Debug, Clone)]
pub struct MemoryModel {
    topology: Topology,
}

impl MemoryModel {
    /// Creates a model for `topology`.
    pub fn new(topology: Topology) -> Self {
        MemoryModel { topology }
    }

    /// The topology the model is built over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Uncontended cost in nanoseconds of moving `traffic` from a core on
    /// `src` to memory on `dst`.
    pub fn access_cost_ns(&self, src: NodeId, dst: NodeId, traffic: Traffic) -> f64 {
        if traffic.is_empty() {
            return 0.0;
        }
        let bw = self.topology.bandwidth_gbps(src, dst); // GB/s == bytes/ns
        let lat = self.topology.latency_ns(src, dst);
        traffic.accesses as f64 * lat / DEFAULT_MLP + traffic.bytes as f64 / bw
    }

    /// Serial (uncontended) cost of everything one vproc did in a round.
    pub fn serial_cost_ns(&self, cost: &VprocRoundCost) -> f64 {
        let src = self.topology.node_of_core(cost.core);
        let mem: f64 = cost
            .traffic_to
            .iter()
            .enumerate()
            .map(|(dst, t)| self.access_cost_ns(src, NodeId::new(dst as u16), *t))
            .sum();
        cost.cpu_ns + mem
    }

    /// Costs a full round: all vprocs in `costs` ran concurrently; the round
    /// length is the maximum over the serial critical path and every shared
    /// resource's service time.
    pub fn round_duration(&self, costs: &[VprocRoundCost]) -> RoundBreakdown {
        let num_nodes = self.topology.num_nodes();
        let mut max_serial_ns = 0.0f64;
        let mut max_serial_core = CoreId::new(0);
        let mut controller_bytes = vec![0u64; num_nodes];
        let mut link_bytes = vec![vec![0u64; num_nodes]; num_nodes];

        for cost in costs {
            let serial = self.serial_cost_ns(cost);
            if serial > max_serial_ns {
                max_serial_ns = serial;
                max_serial_core = cost.core;
            }
            let src = self.topology.node_of_core(cost.core);
            for (dst_idx, t) in cost.traffic_to.iter().enumerate() {
                if t.bytes == 0 {
                    continue;
                }
                controller_bytes[dst_idx] += t.bytes;
                if dst_idx != src.index() {
                    link_bytes[src.index()][dst_idx] += t.bytes;
                }
            }
        }

        let controller_ns: Vec<f64> = controller_bytes
            .iter()
            .enumerate()
            .map(|(node, &bytes)| {
                let bw = self
                    .topology
                    .bandwidth_gbps(NodeId::new(node as u16), NodeId::new(node as u16));
                bytes as f64 / bw
            })
            .collect();

        let mut max_controller_ns = 0.0f64;
        let mut max_controller_node = NodeId::new(0);
        for (node, &ns) in controller_ns.iter().enumerate() {
            if ns > max_controller_ns {
                max_controller_ns = ns;
                max_controller_node = NodeId::new(node as u16);
            }
        }

        let mut max_link_ns = 0.0f64;
        let mut max_link = (NodeId::new(0), NodeId::new(0));
        for (src, row) in link_bytes.iter().enumerate() {
            for (dst, &bytes) in row.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                let bw = self
                    .topology
                    .bandwidth_gbps(NodeId::new(src as u16), NodeId::new(dst as u16));
                let ns = bytes as f64 / bw;
                if ns > max_link_ns {
                    max_link_ns = ns;
                    max_link = (NodeId::new(src as u16), NodeId::new(dst as u16));
                }
            }
        }

        let duration_ns = max_serial_ns.max(max_controller_ns).max(max_link_ns);
        let bottleneck = if duration_ns == 0.0 {
            Bottleneck::Idle
        } else if duration_ns <= max_serial_ns {
            Bottleneck::Compute {
                core: max_serial_core,
            }
        } else if max_controller_ns >= max_link_ns {
            Bottleneck::MemoryController {
                node: max_controller_node,
            }
        } else {
            Bottleneck::Link {
                src: max_link.0,
                dst: max_link.1,
            }
        };

        RoundBreakdown {
            duration_ns,
            bottleneck,
            max_serial_ns,
            controller_ns,
            max_link_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amd() -> MemoryModel {
        MemoryModel::new(Topology::amd_magny_cours_48())
    }

    fn local_cost(model: &MemoryModel, core: CoreId, bytes: u64, cpu_ns: f64) -> VprocRoundCost {
        let node = model.topology().node_of_core(core);
        let mut c = VprocRoundCost::new(core, model.topology().num_nodes());
        c.add_cpu_ns(cpu_ns);
        c.add_traffic(node, Traffic::new(bytes, bytes / 64));
        c
    }

    #[test]
    fn idle_round_has_zero_duration() {
        let m = amd();
        let costs = vec![VprocRoundCost::new(CoreId::new(0), 8)];
        let r = m.round_duration(&costs);
        assert_eq!(r.duration_ns, 0.0);
        assert_eq!(r.bottleneck, Bottleneck::Idle);
    }

    #[test]
    fn pure_compute_rounds_scale_perfectly() {
        // P vprocs each doing the same CPU-only work: round duration is
        // independent of P (ideal speedup).
        let m = amd();
        let cores = m.topology().spread_cores(48);
        for p in [1usize, 8, 48] {
            let costs: Vec<_> = cores[..p]
                .iter()
                .map(|&c| {
                    let mut cost = VprocRoundCost::new(c, 8);
                    cost.add_cpu_ns(10_000.0);
                    cost
                })
                .collect();
            let r = m.round_duration(&costs);
            assert!((r.duration_ns - 10_000.0).abs() < 1e-9, "p={p}");
            assert!(matches!(r.bottleneck, Bottleneck::Compute { .. }));
        }
    }

    #[test]
    fn local_traffic_spread_over_nodes_scales() {
        // Each vproc streams 1 MB from its own node: the round should cost
        // about the same whether 1 or 48 vprocs do it (every node has its own
        // controller), i.e. local allocation scales.
        let m = amd();
        let cores = m.topology().spread_cores(48);
        let one = m.round_duration(&[local_cost(&m, cores[0], 1 << 20, 0.0)]);
        let all: Vec<_> = cores
            .iter()
            .map(|&c| local_cost(&m, c, 1 << 20, 0.0))
            .collect();
        let forty_eight = m.round_duration(&all);
        // 6 vprocs share each node's controller, so some slowdown is allowed,
        // but it must be bounded by the per-node sharing factor (6), not by
        // the vproc count (48).
        assert!(forty_eight.duration_ns <= one.duration_ns * 6.5);
    }

    #[test]
    fn socket_zero_traffic_saturates_node_zero() {
        // Every vproc streams from node 0: the duration grows linearly with
        // the number of vprocs — no scaling (Figure 7 collapse).
        let m = amd();
        let cores = m.topology().spread_cores(48);
        let make = |core: CoreId| {
            let mut c = VprocRoundCost::new(core, 8);
            // Streaming traffic: latencies are fully overlapped.
            c.add_traffic(NodeId::new(0), Traffic::new(1 << 20, 0));
            c
        };
        let one = m.round_duration(&[make(cores[0])]);
        let all: Vec<_> = cores.iter().map(|&c| make(c)).collect();
        let forty_eight = m.round_duration(&all);
        assert!(forty_eight.duration_ns > one.duration_ns * 20.0);
        assert!(matches!(
            forty_eight.bottleneck,
            Bottleneck::MemoryController { node } if node == NodeId::new(0)
        ));
    }

    #[test]
    fn remote_traffic_is_slower_than_local_serially() {
        let m = amd();
        let t = Traffic::new(1 << 20, (1 << 20) / 64);
        let local = m.access_cost_ns(NodeId::new(0), NodeId::new(0), t);
        let same_pkg = m.access_cost_ns(NodeId::new(0), NodeId::new(1), t);
        let cross_pkg = m.access_cost_ns(NodeId::new(0), NodeId::new(2), t);
        assert!(local < same_pkg);
        assert!(same_pkg < cross_pkg);
    }

    #[test]
    fn link_bottleneck_detected() {
        // Two vprocs on node 0 both stream from node 2 (cross package):
        // the 6.4 GB/s link limits the round, not node 2's controller.
        let m = amd();
        let cores = m.topology().cores_of_node(NodeId::new(0)).to_vec();
        let make = |core: CoreId| {
            let mut c = VprocRoundCost::new(core, 8);
            c.add_traffic(NodeId::new(2), Traffic::new(8 << 20, 0));
            c
        };
        let costs: Vec<_> = cores.iter().take(6).map(|&c| make(c)).collect();
        let r = m.round_duration(&costs);
        assert!(matches!(r.bottleneck, Bottleneck::Link { .. }));
    }

    #[test]
    fn empty_traffic_costs_nothing() {
        let m = amd();
        assert_eq!(
            m.access_cost_ns(NodeId::new(0), NodeId::new(5), Traffic::default()),
            0.0
        );
    }

    #[test]
    fn serial_cost_includes_cpu_and_memory() {
        let m = amd();
        let mut c = VprocRoundCost::new(CoreId::new(0), 8);
        c.add_cpu_ns(500.0);
        c.add_traffic(NodeId::new(0), Traffic::new(2130, 0));
        // 2130 bytes at 21.3 GB/s = 100 ns.
        let cost = m.serial_cost_ns(&c);
        assert!((cost - 600.0).abs() < 1e-6);
    }

    #[test]
    fn traffic_vector_grows_on_demand() {
        let mut c = VprocRoundCost::new(CoreId::new(0), 2);
        c.add_traffic(NodeId::new(7), Traffic::new(64, 1));
        assert_eq!(c.traffic_to.len(), 8);
        assert_eq!(c.total_bytes(), 64);
        assert!(!c.is_idle());
    }
}
