//! Collector statistics.

use crate::histogram::{Histogram, HISTOGRAM_BUCKETS};

/// The kind of a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectionKind {
    /// Minor collection: nursery survivors copied into the old-data area.
    Minor,
    /// Major collection: old data promoted to the global heap.
    Major,
    /// Promotion of a single object graph (sharing with another vproc).
    Promotion,
    /// Global stop-the-world parallel collection of the global heap.
    Global,
}

impl CollectionKind {
    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CollectionKind::Minor => "minor",
            CollectionKind::Major => "major",
            CollectionKind::Promotion => "promotion",
            CollectionKind::Global => "global",
        }
    }
}

impl std::fmt::Display for CollectionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Number of log2 buckets in a [`PauseStats`] histogram (alias of
/// [`HISTOGRAM_BUCKETS`], kept for the established pause-telemetry API).
pub const PAUSE_BUCKETS: usize = HISTOGRAM_BUCKETS;

/// A fixed-footprint summary of a series of pause durations.
///
/// Every individual mutator-visible pause (minor, major, or one increment of
/// a global collection) is recorded as it happens; per-vproc records merge
/// losslessly into machine-wide aggregates. This is the shared log2-bucket
/// [`Histogram`] under a pause-flavoured name — see that type for the
/// recording, merge, and percentile semantics.
pub type PauseStats = Histogram;

/// Counters for one vproc's collector activity (or the whole machine's when
/// aggregated).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GcStats {
    /// Number of minor collections.
    pub minor_collections: u64,
    /// Number of major collections.
    pub major_collections: u64,
    /// Number of object promotions.
    pub promotions: u64,
    /// Number of global collections this vproc participated in. Every vproc
    /// takes part in each collection, so a sum over vprocs (as in
    /// [`GcStats::merge`] and the run report built from it) counts one
    /// machine-wide collection once per vproc.
    pub global_collections: u64,
    /// Bytes copied within the local heap by minor collections.
    pub minor_copied_bytes: u64,
    /// Root slots handed to minor collections, summed over all of them — the
    /// root-scan work of the minor path as a count. The threaded backend
    /// hands over only the roots registered since the last local collection,
    /// so there it stays at or below the number of objects allocated.
    pub minor_roots_visited: u64,
    /// Bytes promoted to the global heap by major collections.
    pub major_promoted_bytes: u64,
    /// Bytes promoted to the global heap by explicit promotions.
    pub promotion_bytes: u64,
    /// Bytes copied between global chunks by global collections: the whole
    /// machine's, on the vproc whose leader step ended each collection.
    pub global_copied_bytes: u64,
    /// Pauses for local collections that stayed minor.
    pub minor_pauses: PauseStats,
    /// Pauses for local collections that ran a major (promotion) phase.
    pub major_pauses: PauseStats,
    /// Pauses for global-collection increments (one entry per increment; an
    /// unbudgeted collection is a single increment).
    pub global_pauses: PauseStats,
}

impl GcStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes moved by the collector.
    pub fn total_moved_bytes(&self) -> u64 {
        self.minor_copied_bytes
            + self.major_promoted_bytes
            + self.promotion_bytes
            + self.global_copied_bytes
    }

    /// Total time spent collecting, in nanoseconds (compatibility accessor
    /// over the structured [`PauseStats`] fields).
    pub fn total_pause_ns(&self) -> f64 {
        self.minor_pauses.sum_ns + self.major_pauses.sum_ns + self.global_pauses.sum_ns
    }

    /// All pauses of every kind merged into one record — the series a mutator
    /// on this vproc actually experienced.
    pub fn all_pauses(&self) -> PauseStats {
        let mut all = self.minor_pauses;
        all.merge(&self.major_pauses);
        all.merge(&self.global_pauses);
        all
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &GcStats) {
        self.minor_collections += other.minor_collections;
        self.major_collections += other.major_collections;
        self.promotions += other.promotions;
        self.global_collections += other.global_collections;
        self.minor_copied_bytes += other.minor_copied_bytes;
        self.minor_roots_visited += other.minor_roots_visited;
        self.major_promoted_bytes += other.major_promoted_bytes;
        self.promotion_bytes += other.promotion_bytes;
        self.global_copied_bytes += other.global_copied_bytes;
        self.minor_pauses.merge(&other.minor_pauses);
        self.major_pauses.merge(&other.major_pauses);
        self.global_pauses.merge(&other.global_pauses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = GcStats::new();
        a.minor_collections = 3;
        a.minor_copied_bytes = 100;
        a.minor_roots_visited = 4;
        a.minor_pauses.record(5.0);
        let mut b = GcStats::new();
        b.major_collections = 1;
        b.minor_roots_visited = 3;
        b.major_promoted_bytes = 50;
        b.global_pauses.record(7.0);
        a.merge(&b);
        assert_eq!(a.minor_collections + a.major_collections, 4);
        assert_eq!(a.total_moved_bytes(), 150);
        assert_eq!(a.minor_roots_visited, 7);
        assert!((a.total_pause_ns() - 12.0).abs() < 1e-12);
        let all = a.all_pauses();
        assert_eq!(all.count, 2);
        assert!((all.max_ns - 7.0).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(CollectionKind::Minor.to_string(), "minor");
        assert_eq!(CollectionKind::Global.label(), "global");
        assert_eq!(CollectionKind::Promotion.label(), "promotion");
        assert_eq!(CollectionKind::Major.label(), "major");
    }

    #[test]
    fn pause_stats_is_the_shared_histogram() {
        // The alias keeps the established API: construction, recording, and
        // percentiles all go through `mgc_core::histogram`.
        let mut p = PauseStats::new();
        p.record(100.0);
        let h: Histogram = p;
        assert_eq!(h.count, 1);
        assert_eq!(PAUSE_BUCKETS, HISTOGRAM_BUCKETS);
    }
}
