//! Mapping from simulated physical pages to NUMA nodes.
//!
//! The heap hands out addresses in a flat simulated address space; the
//! [`PageMap`] remembers which node each page of that space was placed on, so
//! later accesses can be charged to the right memory controller and link.

use crate::ids::NodeId;

/// Size of a simulated physical page, in bytes (4 KiB, matching x86-64).
pub const PAGE_SIZE: usize = 4096;

/// Tracks the backing node of every page of the simulated address space.
///
/// The address space is sparse in principle, but in this reproduction the
/// heap allocates addresses densely from zero, so a simple growable vector
/// indexed by page number suffices.
#[derive(Debug, Clone, Default)]
pub struct PageMap {
    nodes: Vec<Option<NodeId>>,
}

impl PageMap {
    /// Creates an empty page map.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mgc_numa::{PageMap, NodeId};
    /// let mut pm = PageMap::new();
    /// pm.place(0, 8192, NodeId::new(1));
    /// assert_eq!(pm.node_of(4096), Some(NodeId::new(1)));
    /// assert_eq!(pm.node_of(100_000), None);
    /// ```
    pub fn new() -> Self {
        PageMap { nodes: Vec::new() }
    }

    /// Number of pages that have been placed.
    pub fn mapped_pages(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Records that the byte range `[base, base + len)` is backed by `node`.
    /// Partial pages at either end are attributed to `node` as well.
    pub fn place(&mut self, base: u64, len: usize, node: NodeId) {
        if len == 0 {
            return;
        }
        let first = (base as usize) / PAGE_SIZE;
        let last = ((base as usize) + len - 1) / PAGE_SIZE;
        if self.nodes.len() <= last {
            self.nodes.resize(last + 1, None);
        }
        for page in first..=last {
            self.nodes[page] = Some(node);
        }
    }

    /// Removes the placement of the byte range `[base, base + len)`,
    /// modelling the pages being returned to the OS.
    pub fn unplace(&mut self, base: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = (base as usize) / PAGE_SIZE;
        let last = ((base as usize) + len - 1) / PAGE_SIZE;
        for page in first..=last.min(self.nodes.len().saturating_sub(1)) {
            self.nodes[page] = None;
        }
    }

    /// Returns the node backing the page containing `addr`, if placed.
    pub fn node_of(&self, addr: u64) -> Option<NodeId> {
        self.nodes
            .get((addr as usize) / PAGE_SIZE)
            .copied()
            .flatten()
    }

    /// Bytes resident on each node, indexed by node id. The vector is sized
    /// by the largest node id seen.
    pub fn resident_bytes_per_node(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = Vec::new();
        for node in self.nodes.iter().flatten() {
            if counts.len() <= node.index() {
                counts.resize(node.index() + 1, 0);
            }
            counts[node.index()] += PAGE_SIZE;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_lookup() {
        let mut pm = PageMap::new();
        pm.place(0, PAGE_SIZE * 2, NodeId::new(3));
        assert_eq!(pm.node_of(0), Some(NodeId::new(3)));
        assert_eq!(pm.node_of((PAGE_SIZE * 2 - 1) as u64), Some(NodeId::new(3)));
        assert_eq!(pm.node_of((PAGE_SIZE * 2) as u64), None);
        assert_eq!(pm.mapped_pages(), 2);
    }

    #[test]
    fn partial_pages_are_attributed() {
        let mut pm = PageMap::new();
        pm.place(100, 10, NodeId::new(1));
        assert_eq!(pm.node_of(0), Some(NodeId::new(1)));
        assert_eq!(pm.node_of(4000), Some(NodeId::new(1)));
        assert_eq!(pm.mapped_pages(), 1);
    }

    #[test]
    fn zero_length_place_is_noop() {
        let mut pm = PageMap::new();
        pm.place(0, 0, NodeId::new(1));
        assert_eq!(pm.mapped_pages(), 0);
    }

    #[test]
    fn unplace_releases_pages() {
        let mut pm = PageMap::new();
        pm.place(0, PAGE_SIZE * 4, NodeId::new(2));
        pm.unplace(PAGE_SIZE as u64, PAGE_SIZE * 2);
        assert_eq!(pm.node_of(0), Some(NodeId::new(2)));
        assert_eq!(pm.node_of(PAGE_SIZE as u64), None);
        assert_eq!(pm.node_of((3 * PAGE_SIZE) as u64), Some(NodeId::new(2)));
        assert_eq!(pm.mapped_pages(), 2);
    }

    #[test]
    fn resident_bytes_accounting() {
        let mut pm = PageMap::new();
        pm.place(0, PAGE_SIZE * 3, NodeId::new(0));
        pm.place((PAGE_SIZE * 3) as u64, PAGE_SIZE, NodeId::new(2));
        let resident = pm.resident_bytes_per_node();
        assert_eq!(resident[0], 3 * PAGE_SIZE);
        assert_eq!(resident[1], 0);
        assert_eq!(resident[2], PAGE_SIZE);
    }

    #[test]
    fn replacement_overwrites_node() {
        let mut pm = PageMap::new();
        pm.place(0, PAGE_SIZE, NodeId::new(0));
        pm.place(0, PAGE_SIZE, NodeId::new(5));
        assert_eq!(pm.node_of(10), Some(NodeId::new(5)));
    }
}
