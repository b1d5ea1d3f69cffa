//! Machine topology: packages, nodes, cores, and the bandwidth/latency
//! matrices between them.
//!
//! The two presets reproduce the machines of the paper's Appendix A:
//!
//! * [`Topology::amd_magny_cours_48`] — a Dell PowerEdge R815 with four AMD
//!   Opteron 6172 packages, each containing two 6-core nodes (Figure 8).
//!   Per Table 1: 21.3 GB/s to local memory, 19.2 GB/s to the sibling node in
//!   the same package, 6.4 GB/s (one 8-bit HT3 link) to nodes on other
//!   packages.
//! * [`Topology::intel_xeon_32`] — a QSSC-S4R with four 8-core Intel Xeon
//!   X7560 packages, one node per package, fully connected by QPI (Figure 9).
//!   Per Table 1: 17.1 GB/s to local memory and 25.6 GB/s across QPI.

use crate::error::TopologyError;
use crate::ids::{CoreId, NodeId, PackageId};

/// Cache sizes for a node, in bytes. Only the L3 size matters to the heap
/// (the paper sizes local heaps to fit in L3, §3.1), but the L1/L2 sizes are
/// kept for completeness and for the cache-aware cost heuristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Per-core L1 data cache size in bytes.
    pub l1_data: usize,
    /// Per-core L2 cache size in bytes.
    pub l2: usize,
    /// Per-node L3 cache size in bytes (the usable portion).
    pub l3: usize,
}

impl CacheSpec {
    /// AMD Opteron 6172: 64 KB L1d, 512 KB L2, 6 MB L3 of which 1 MB is
    /// reserved for the HT Assist probe filter, leaving 5 MB usable.
    pub const fn amd_opteron_6172() -> Self {
        CacheSpec {
            l1_data: 64 * 1024,
            l2: 512 * 1024,
            l3: 5 * 1024 * 1024,
        }
    }

    /// Intel Xeon X7560: 32 KB L1d, 256 KB L2, 24 MB L3 of which 3 MB is
    /// reserved, leaving 21 MB usable.
    pub const fn intel_xeon_x7560() -> Self {
        CacheSpec {
            l1_data: 32 * 1024,
            l2: 256 * 1024,
            l3: 21 * 1024 * 1024,
        }
    }
}

impl Default for CacheSpec {
    fn default() -> Self {
        CacheSpec::amd_opteron_6172()
    }
}

/// Description of one NUMA node (a die with its own memory controller).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// The package (socket) this node belongs to.
    pub package: PackageId,
    /// Cores located on this node.
    pub cores: Vec<CoreId>,
    /// Bandwidth from this node's cores to this node's own DRAM, in GB/s.
    pub local_bandwidth_gbps: f64,
    /// Latency of an access to this node's own DRAM, in nanoseconds.
    pub local_latency_ns: f64,
    /// Cache hierarchy of this node.
    pub cache: CacheSpec,
}

/// Description of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSpec {
    /// The node this core belongs to.
    pub node: NodeId,
    /// The package this core belongs to.
    pub package: PackageId,
}

/// A complete machine description.
///
/// Construct one with [`Topology::amd_magny_cours_48`],
/// [`Topology::intel_xeon_32`], or [`TopologyBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    nodes: Vec<NodeSpec>,
    cores: Vec<CoreSpec>,
    num_packages: usize,
    /// `bandwidth_gbps[src][dst]`: achievable bandwidth from a core on node
    /// `src` to memory on node `dst` in GB/s. The diagonal holds the local
    /// memory bandwidth.
    bandwidth_gbps: Vec<Vec<f64>>,
    /// `latency_ns[src][dst]`: access latency in nanoseconds.
    latency_ns: Vec<Vec<f64>>,
    /// Core clock frequency in GHz (used to convert instruction counts to
    /// nanoseconds in the cost model).
    core_ghz: f64,
}

impl Topology {
    /// The 48-core AMD machine of the paper (Appendix A.1, Figure 8, Table 1).
    ///
    /// Four packages, two nodes per package, six cores per node, 2.1 GHz.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mgc_numa::Topology;
    /// let t = Topology::amd_magny_cours_48();
    /// assert_eq!(t.num_nodes(), 8);
    /// assert_eq!(t.num_cores(), 48);
    /// ```
    pub fn amd_magny_cours_48() -> Self {
        TopologyBuilder::new("amd-opteron-6172-48")
            .core_ghz(2.1)
            .packages(4)
            .nodes_per_package(2)
            .cores_per_node(6)
            .cache(CacheSpec::amd_opteron_6172())
            .local_bandwidth_gbps(21.3)
            .same_package_bandwidth_gbps(19.2)
            .cross_package_bandwidth_gbps(6.4)
            .local_latency_ns(95.0)
            .same_package_latency_ns(130.0)
            .cross_package_latency_ns(220.0)
            .build()
            .expect("preset topology is valid")
    }

    /// The 32-core Intel machine of the paper (Appendix A.2, Figure 9, Table 1).
    ///
    /// Four packages, one node per package, eight cores per node, 2.266 GHz.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mgc_numa::Topology;
    /// let t = Topology::intel_xeon_32();
    /// assert_eq!(t.num_nodes(), 4);
    /// assert_eq!(t.num_cores(), 32);
    /// ```
    pub fn intel_xeon_32() -> Self {
        TopologyBuilder::new("intel-xeon-x7560-32")
            .core_ghz(2.266)
            .packages(4)
            .nodes_per_package(1)
            .cores_per_node(8)
            .cache(CacheSpec::intel_xeon_x7560())
            .local_bandwidth_gbps(17.1)
            .same_package_bandwidth_gbps(17.1)
            .cross_package_bandwidth_gbps(25.6)
            .local_latency_ns(100.0)
            .same_package_latency_ns(100.0)
            .cross_package_latency_ns(160.0)
            .build()
            .expect("preset topology is valid")
    }

    /// The topology of the machine this process is running on, as far as the
    /// host exposes it.
    ///
    /// Node count comes from the sysfs node directories; core count from
    /// [`std::thread::available_parallelism`]. Each host node is modelled as
    /// its own package (the probe cannot see package grouping), with the
    /// builder's AMD-like default bandwidth/latency classes. When the probe
    /// finds nothing — non-Linux platforms, sandboxed CI filesystems — the
    /// fallback is a deterministic single-node machine, so this constructor
    /// never panics and never varies run-to-run on the same host.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mgc_numa::Topology;
    /// let t = Topology::host();
    /// assert!(t.num_nodes() >= 1);
    /// assert!(t.num_cores() >= 1);
    /// ```
    pub fn host() -> Self {
        let nodes = host_numa_nodes().unwrap_or(1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cores_per_node = (cores / nodes).max(1);
        TopologyBuilder::new("host")
            .packages(nodes)
            .nodes_per_package(1)
            .cores_per_node(cores_per_node)
            .build()
            .expect("host topology parameters are non-degenerate by construction")
    }

    /// A tiny two-node topology, convenient for unit tests.
    pub fn dual_node_test() -> Self {
        TopologyBuilder::new("test-dual-node")
            .core_ghz(2.0)
            .packages(2)
            .nodes_per_package(1)
            .cores_per_node(2)
            .local_bandwidth_gbps(20.0)
            .same_package_bandwidth_gbps(20.0)
            .cross_package_bandwidth_gbps(8.0)
            .local_latency_ns(100.0)
            .same_package_latency_ns(100.0)
            .cross_package_latency_ns(200.0)
            .build()
            .expect("preset topology is valid")
    }

    /// The human-readable name of this topology.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of NUMA nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Core clock frequency in GHz.
    pub fn core_ghz(&self) -> f64 {
        self.core_ghz
    }

    /// All node descriptions.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// All core descriptions.
    pub fn cores(&self) -> &[CoreSpec] {
        &self.cores
    }

    /// The node a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for this topology.
    pub fn node_of_core(&self, core: CoreId) -> NodeId {
        self.cores[core.index()].node
    }

    /// The package a node belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this topology.
    fn package_of_node(&self, node: NodeId) -> PackageId {
        self.nodes[node.index()].package
    }

    /// The cores located on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this topology.
    pub fn cores_of_node(&self, node: NodeId) -> &[CoreId] {
        &self.nodes[node.index()].cores
    }

    /// Bandwidth in GB/s from a core on `src` to memory on `dst`
    /// (the diagonal is the local memory bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn bandwidth_gbps(&self, src: NodeId, dst: NodeId) -> f64 {
        self.bandwidth_gbps[src.index()][dst.index()]
    }

    /// Latency in nanoseconds of an access from a core on `src` to memory on
    /// `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn latency_ns(&self, src: NodeId, dst: NodeId) -> f64 {
        self.latency_ns[src.index()][dst.index()]
    }

    /// Classification of an access from `src` to `dst`: local, within the
    /// same package, or across packages.
    pub fn access_class(&self, src: NodeId, dst: NodeId) -> crate::stats::AccessClass {
        use crate::stats::AccessClass;
        if src == dst {
            AccessClass::Local
        } else if self.package_of_node(src) == self.package_of_node(dst) {
            AccessClass::SamePackage
        } else {
            AccessClass::CrossPackage
        }
    }

    /// Picks `n` cores for vprocs, spreading them sparsely across the nodes
    /// in round-robin order. This mirrors §2.2 of the paper: "when there are
    /// less vprocs than processors, they are assigned sparsely across the
    /// nodes to minimize contention on the node-shared L3 cache."
    ///
    /// When `n` exceeds the number of cores the assignment wraps around.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mgc_numa::Topology;
    /// let t = Topology::amd_magny_cours_48();
    /// let cores = t.spread_cores(8);
    /// // One core per node before doubling up anywhere.
    /// let nodes: std::collections::HashSet<_> =
    ///     cores.iter().map(|&c| t.node_of_core(c)).collect();
    /// assert_eq!(nodes.len(), 8);
    /// ```
    pub fn spread_cores(&self, n: usize) -> Vec<CoreId> {
        let num_nodes = self.num_nodes();
        let mut picked = Vec::with_capacity(n);
        let mut per_node_cursor = vec![0usize; num_nodes];
        let mut node = 0usize;
        while picked.len() < n {
            let cores = &self.nodes[node].cores;
            let cursor = &mut per_node_cursor[node];
            let core = cores[*cursor % cores.len()];
            *cursor += 1;
            picked.push(core);
            node = (node + 1) % num_nodes;
        }
        picked
    }

    /// The "most local" table of the paper (Table 1): for each distinct
    /// access class, the modelled bandwidth in GB/s. Returns
    /// `(local, same_package, cross_package)`; `same_package` is `None` for
    /// topologies with a single node per package (the Intel machine).
    pub fn table1_bandwidths(&self) -> (f64, Option<f64>, f64) {
        let local = self.bandwidth_gbps[0][0];
        let mut same_package = None;
        let mut cross_package = local;
        for dst in 0..self.num_nodes() {
            if dst == 0 {
                continue;
            }
            let bw = self.bandwidth_gbps[0][dst];
            if self.package_of_node(NodeId::new(0)) == self.package_of_node(NodeId::new(dst as u16))
            {
                same_package = Some(bw);
            } else {
                cross_package = bw;
            }
        }
        (local, same_package, cross_package)
    }
}

/// Builder for [`Topology`] values.
///
/// The builder assumes a regular machine: `packages` sockets, each with
/// `nodes_per_package` nodes, each with `cores_per_node` cores, and three
/// bandwidth/latency classes (local, same package, cross package). Irregular
/// machines can be modelled by post-processing the matrices, but the paper's
/// machines are regular.
///
/// # Examples
///
/// ```
/// # use mgc_numa::TopologyBuilder;
/// let topo = TopologyBuilder::new("toy")
///     .packages(2)
///     .nodes_per_package(2)
///     .cores_per_node(4)
///     .local_bandwidth_gbps(20.0)
///     .same_package_bandwidth_gbps(16.0)
///     .cross_package_bandwidth_gbps(6.0)
///     .build()?;
/// assert_eq!(topo.num_cores(), 16);
/// # Ok::<(), mgc_numa::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    packages: usize,
    nodes_per_package: usize,
    cores_per_node: usize,
    cache: CacheSpec,
    core_ghz: f64,
    local_bandwidth_gbps: f64,
    same_package_bandwidth_gbps: f64,
    cross_package_bandwidth_gbps: f64,
    local_latency_ns: f64,
    same_package_latency_ns: f64,
    cross_package_latency_ns: f64,
}

impl TopologyBuilder {
    /// Starts a builder with sensible defaults (a 2-package, 4-node machine
    /// with AMD-like bandwidth figures).
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            packages: 2,
            nodes_per_package: 2,
            cores_per_node: 4,
            cache: CacheSpec::default(),
            core_ghz: 2.0,
            local_bandwidth_gbps: 21.3,
            same_package_bandwidth_gbps: 19.2,
            cross_package_bandwidth_gbps: 6.4,
            local_latency_ns: 100.0,
            same_package_latency_ns: 140.0,
            cross_package_latency_ns: 220.0,
        }
    }

    /// Sets the number of packages (sockets).
    pub fn packages(mut self, n: usize) -> Self {
        self.packages = n;
        self
    }

    /// Sets the number of nodes per package.
    pub fn nodes_per_package(mut self, n: usize) -> Self {
        self.nodes_per_package = n;
        self
    }

    /// Sets the number of cores per node.
    pub fn cores_per_node(mut self, n: usize) -> Self {
        self.cores_per_node = n;
        self
    }

    /// Sets the cache hierarchy used for every node.
    pub fn cache(mut self, cache: CacheSpec) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the core clock frequency in GHz.
    pub fn core_ghz(mut self, ghz: f64) -> Self {
        self.core_ghz = ghz;
        self
    }

    /// Sets the local-DRAM bandwidth in GB/s.
    pub fn local_bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.local_bandwidth_gbps = gbps;
        self
    }

    /// Sets the bandwidth to the sibling node within the same package, GB/s.
    pub fn same_package_bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.same_package_bandwidth_gbps = gbps;
        self
    }

    /// Sets the bandwidth to nodes on other packages, GB/s.
    pub fn cross_package_bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.cross_package_bandwidth_gbps = gbps;
        self
    }

    /// Sets the local-DRAM latency in nanoseconds.
    fn local_latency_ns(mut self, ns: f64) -> Self {
        self.local_latency_ns = ns;
        self
    }

    /// Sets the latency to the sibling node within the same package, ns.
    fn same_package_latency_ns(mut self, ns: f64) -> Self {
        self.same_package_latency_ns = ns;
        self
    }

    /// Sets the latency to nodes on other packages, ns.
    fn cross_package_latency_ns(mut self, ns: f64) -> Self {
        self.cross_package_latency_ns = ns;
        self
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the machine would be empty, a node would
    /// have no cores, or any bandwidth is not strictly positive.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.packages == 0 || self.nodes_per_package == 0 {
            return Err(TopologyError::Empty);
        }
        if self.cores_per_node == 0 {
            return Err(TopologyError::EmptyNode { node: 0 });
        }
        for (i, &bw) in [
            self.local_bandwidth_gbps,
            self.same_package_bandwidth_gbps,
            self.cross_package_bandwidth_gbps,
        ]
        .iter()
        .enumerate()
        {
            if bw <= 0.0 {
                return Err(TopologyError::NonPositiveBandwidth { src: i, dst: i });
            }
        }

        let num_nodes = self.packages * self.nodes_per_package;
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut cores = Vec::new();
        for node_idx in 0..num_nodes {
            let package = PackageId::new((node_idx / self.nodes_per_package) as u16);
            let mut node_cores = Vec::with_capacity(self.cores_per_node);
            for _ in 0..self.cores_per_node {
                let core_id = CoreId::new(cores.len() as u16);
                cores.push(CoreSpec {
                    node: NodeId::new(node_idx as u16),
                    package,
                });
                node_cores.push(core_id);
            }
            nodes.push(NodeSpec {
                package,
                cores: node_cores,
                local_bandwidth_gbps: self.local_bandwidth_gbps,
                local_latency_ns: self.local_latency_ns,
                cache: self.cache,
            });
        }

        let mut bandwidth = vec![vec![0.0; num_nodes]; num_nodes];
        let mut latency = vec![vec![0.0; num_nodes]; num_nodes];
        for src in 0..num_nodes {
            for dst in 0..num_nodes {
                let (bw, lat) = if src == dst {
                    (self.local_bandwidth_gbps, self.local_latency_ns)
                } else if nodes[src].package == nodes[dst].package {
                    (
                        self.same_package_bandwidth_gbps,
                        self.same_package_latency_ns,
                    )
                } else {
                    (
                        self.cross_package_bandwidth_gbps,
                        self.cross_package_latency_ns,
                    )
                };
                bandwidth[src][dst] = bw;
                latency[src][dst] = lat;
            }
        }

        Ok(Topology {
            name: self.name,
            nodes,
            cores,
            num_packages: self.packages,
            bandwidth_gbps: bandwidth,
            latency_ns: latency,
            core_ghz: self.core_ghz,
        })
    }
}

/// Number of NUMA nodes the host operating system exposes, if discoverable
/// (Linux sysfs). `None` on other platforms or sandboxed filesystems.
fn host_numa_nodes() -> Option<usize> {
    let entries = std::fs::read_dir("/sys/devices/system/node").ok()?;
    let count = entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.strip_prefix("node")
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        })
        .count();
    (count > 0).then_some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AccessClass;

    #[test]
    fn host_probe_never_panics() {
        // The result depends on the host; only the call's safety is asserted.
        let _ = host_numa_nodes();
    }

    #[test]
    fn amd_preset_matches_table1() {
        let t = Topology::amd_magny_cours_48();
        assert_eq!(t.num_packages, 4);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_cores(), 48);
        let (local, same, cross) = t.table1_bandwidths();
        assert!((local - 21.3).abs() < 1e-9);
        assert_eq!(same, Some(19.2));
        assert!((cross - 6.4).abs() < 1e-9);
    }

    #[test]
    fn intel_preset_matches_table1() {
        let t = Topology::intel_xeon_32();
        assert_eq!(t.num_packages, 4);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_cores(), 32);
        let (local, same, cross) = t.table1_bandwidths();
        assert!((local - 17.1).abs() < 1e-9);
        assert_eq!(same, None);
        assert!((cross - 25.6).abs() < 1e-9);
    }

    #[test]
    fn node_and_package_lookup_consistent() {
        let t = Topology::amd_magny_cours_48();
        for (idx, core) in t.cores().iter().enumerate() {
            let cid = CoreId::new(idx as u16);
            assert_eq!(t.node_of_core(cid), core.node);
            assert!(t.cores_of_node(core.node).contains(&cid));
            assert_eq!(t.package_of_node(core.node), core.package);
        }
    }

    #[test]
    fn amd_nodes_pair_up_into_packages() {
        let t = Topology::amd_magny_cours_48();
        // Nodes 0,1 in package 0; 2,3 in package 1; etc.
        for n in 0..t.num_nodes() {
            assert_eq!(
                t.package_of_node(NodeId::new(n as u16)),
                PackageId::new((n / 2) as u16)
            );
        }
        assert_eq!(
            t.access_class(NodeId::new(0), NodeId::new(1)),
            AccessClass::SamePackage
        );
        assert_eq!(
            t.access_class(NodeId::new(0), NodeId::new(2)),
            AccessClass::CrossPackage
        );
        assert_eq!(
            t.access_class(NodeId::new(3), NodeId::new(3)),
            AccessClass::Local
        );
    }

    #[test]
    fn spread_cores_covers_nodes_before_doubling() {
        let t = Topology::amd_magny_cours_48();
        let cores = t.spread_cores(16);
        let mut per_node = vec![0usize; t.num_nodes()];
        for c in &cores {
            per_node[t.node_of_core(*c).index()] += 1;
        }
        // 16 vprocs on 8 nodes: exactly 2 per node.
        assert!(per_node.iter().all(|&n| n == 2));
        // All picked cores are distinct.
        let set: std::collections::HashSet<_> = cores.iter().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn spread_cores_wraps_beyond_core_count() {
        let t = Topology::dual_node_test();
        let cores = t.spread_cores(10);
        assert_eq!(cores.len(), 10);
    }

    #[test]
    fn builder_rejects_degenerate_machines() {
        assert_eq!(
            TopologyBuilder::new("x").packages(0).build().unwrap_err(),
            TopologyError::Empty
        );
        assert!(matches!(
            TopologyBuilder::new("x").cores_per_node(0).build(),
            Err(TopologyError::EmptyNode { .. })
        ));
        assert!(matches!(
            TopologyBuilder::new("x").local_bandwidth_gbps(0.0).build(),
            Err(TopologyError::NonPositiveBandwidth { .. })
        ));
    }

    #[test]
    fn latency_is_monotone_in_distance() {
        let t = Topology::amd_magny_cours_48();
        let local = t.latency_ns(NodeId::new(0), NodeId::new(0));
        let same_pkg = t.latency_ns(NodeId::new(0), NodeId::new(1));
        let cross_pkg = t.latency_ns(NodeId::new(0), NodeId::new(2));
        assert!(local < same_pkg);
        assert!(same_pkg < cross_pkg);
    }

    #[test]
    fn host_topology_is_valid_and_deterministic() {
        let t = Topology::host();
        assert_eq!(t.name(), "host");
        assert!(t.num_nodes() >= 1);
        assert!(t.num_cores() >= t.num_nodes());
        // One node per package: package grouping is invisible to the probe.
        assert_eq!(t.num_packages, t.num_nodes());
        // Same host, same answer.
        assert_eq!(t, Topology::host());
        // The usual derived machinery works on it.
        let cores = t.spread_cores(t.num_nodes());
        assert_eq!(cores.len(), t.num_nodes());
    }

    #[test]
    fn clone_and_equality() {
        let t = Topology::intel_xeon_32();
        let u = t.clone();
        assert_eq!(t, u);
        assert_ne!(t, Topology::amd_magny_cours_48());
    }
}
