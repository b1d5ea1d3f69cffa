//! Traffic accounting, broken down by locality class.
//!
//! The paper's analysis (§4.2–4.3) reasons about how much of each
//! benchmark's traffic stays on the local memory controller versus crossing
//! HyperTransport/QPI links; [`TrafficStats`] provides that breakdown for a
//! simulation run.

/// Locality class of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Access to the node's own DRAM.
    Local,
    /// Access to the sibling node within the same package.
    SamePackage,
    /// Access to a node on a different package.
    CrossPackage,
}

impl AccessClass {
    /// All classes, from nearest to farthest.
    pub const ALL: [AccessClass; 3] = [
        AccessClass::Local,
        AccessClass::SamePackage,
        AccessClass::CrossPackage,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::Local => "local",
            AccessClass::SamePackage => "same-package",
            AccessClass::CrossPackage => "cross-package",
        }
    }
}

impl std::fmt::Display for AccessClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cumulative traffic statistics for a run, split by locality class and by
/// whether the traffic came from the mutator or the garbage collector.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficStats {
    /// Mutator bytes by class `[local, same-package, cross-package]`.
    pub mutator_bytes: [u64; 3],
    /// GC bytes by class `[local, same-package, cross-package]`.
    pub gc_bytes: [u64; 3],
}

impl TrafficStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records mutator traffic of `bytes` in class `class`.
    pub fn record_mutator(&mut self, class: AccessClass, bytes: u64) {
        self.mutator_bytes[class as usize] += bytes;
    }

    /// Records GC traffic of `bytes` in class `class`.
    pub fn record_gc(&mut self, class: AccessClass, bytes: u64) {
        self.gc_bytes[class as usize] += bytes;
    }

    /// Total bytes moved (mutator plus GC).
    pub fn total_bytes(&self) -> u64 {
        self.mutator_bytes.iter().sum::<u64>() + self.gc_bytes.iter().sum::<u64>()
    }

    /// Total bytes of a class, mutator plus GC.
    pub fn bytes_of(&self, class: AccessClass) -> u64 {
        self.mutator_bytes[class as usize] + self.gc_bytes[class as usize]
    }

    /// Fraction of all traffic that stayed node-local. Returns 1.0 for an
    /// empty record (no traffic is perfectly local).
    pub fn local_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 1.0;
        }
        self.bytes_of(AccessClass::Local) as f64 / total as f64
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..3 {
            self.mutator_bytes[i] += other.mutator_bytes[i];
            self.gc_bytes[i] += other.gc_bytes[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = TrafficStats::new();
        s.record_mutator(AccessClass::Local, 100);
        s.record_mutator(AccessClass::CrossPackage, 50);
        s.record_gc(AccessClass::Local, 25);
        assert_eq!(s.total_bytes(), 175);
        assert_eq!(s.bytes_of(AccessClass::Local), 125);
        assert_eq!(s.bytes_of(AccessClass::SamePackage), 0);
        assert!((s.local_fraction() - 125.0 / 175.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_fully_local() {
        assert_eq!(TrafficStats::new().local_fraction(), 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TrafficStats::new();
        a.record_mutator(AccessClass::Local, 10);
        let mut b = TrafficStats::new();
        b.record_gc(AccessClass::SamePackage, 20);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 30);
        assert_eq!(a.bytes_of(AccessClass::SamePackage), 20);
    }

    #[test]
    fn class_labels() {
        assert_eq!(AccessClass::Local.to_string(), "local");
        assert_eq!(AccessClass::SamePackage.label(), "same-package");
        assert_eq!(AccessClass::CrossPackage.label(), "cross-package");
        assert_eq!(AccessClass::ALL.len(), 3);
    }
}
