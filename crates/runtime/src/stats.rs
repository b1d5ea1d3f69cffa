//! Run-level statistics and reports.

use mgc_core::{GcStats, Histogram, PauseStats};
use mgc_numa::TrafficStats;

/// A summary of the end-to-end request latencies a serving program recorded
/// via [`TaskCtx::record_latency_ns`](crate::TaskCtx::record_latency_ns).
///
/// This is the shared log2-bucket [`Histogram`] under a latency-flavoured
/// name — the same tested code as [`PauseStats`], so pause and latency
/// percentiles have identical semantics and merge the same way across
/// vprocs.
pub type LatencyStats = Histogram;

/// Statistics for one vproc over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VprocRunStats {
    /// Tasks executed by this vproc.
    pub tasks_run: u64,
    /// Tasks this vproc stole from other vprocs.
    pub steals: u64,
    /// Steals whose victim lived on this vproc's NUMA node.
    pub steals_same_node: u64,
    /// Steals whose victim lived on another NUMA node (only reached after
    /// same-node victims came up empty, or via the starvation escape hatch).
    pub steals_cross_node: u64,
    /// Objects promoted because work or results crossed vprocs.
    pub lazy_promotions: u64,
    /// Steal requests this vproc serviced as a victim by handing a task
    /// over (threaded backend only).
    pub steal_requests_served: u64,
    /// Steal requests this vproc declined because its private deque was
    /// empty (threaded backend only).
    pub steal_requests_declined: u64,
    /// Times this vproc took the safe-point slow path: an object that did
    /// not fit under its allocation limit word, or a safe-point poll that
    /// found the word zeroed (threaded backend only). Each entry re-arms the
    /// word, so this stays near one (the first, which arms it) + minor
    /// collections + global-collection increments + steal requests
    /// received; a lost re-arm sends every allocation here.
    pub alloc_slow_paths: u64,
    /// Promotion operations performed because work was actually stolen
    /// (the stolen task's roots).
    pub promotions_at_steal: u64,
    /// Promotion operations performed because data was published to a
    /// machine-global structure (continuations, delivered results, channel
    /// messages, proxies).
    pub promotions_at_publish: u64,
    /// Bytes promoted by steal-driven promotions.
    pub promoted_bytes_at_steal: u64,
    /// Bytes promoted by publication-driven promotions.
    pub promoted_bytes_at_publish: u64,
    /// Bytes this vproc promoted into chunks on the consumer's node (the
    /// thief's node for steal promotions, the promoting vproc's own node
    /// for publications and major-collection promotions).
    pub promoted_bytes_local: u64,
    /// Bytes this vproc promoted into chunks on some other node — the
    /// cross-node traffic the `NodeLocal` placement minimises.
    pub promoted_bytes_remote: u64,
    /// Virtual nanoseconds this vproc spent busy (compute + memory + GC).
    pub busy_ns: f64,
    /// Every mutator-visible pause this vproc experienced — minor, major,
    /// and each global-collection increment — as one series. The
    /// kind-classified split lives in the aggregated
    /// [`GcStats`](mgc_core::GcStats).
    pub pauses: PauseStats,
    /// End-to-end latencies of the requests this vproc completed, recorded
    /// by serving programs via
    /// [`TaskCtx::record_latency_ns`](crate::TaskCtx::record_latency_ns)
    /// (empty for batch programs that never record one).
    pub latency: LatencyStats,
}

/// The result of running a program on either execution backend.
///
/// The simulated machine reports virtual time in `elapsed_ns` and leaves
/// `wall_clock_ns` empty; the real-threads backend reports the measured
/// wall-clock duration in **both** (its only notion of time is the real
/// one).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total time of the run, in nanoseconds: virtual time on the simulated
    /// backend, wall-clock time on the threaded backend.
    pub elapsed_ns: f64,
    /// Measured wall-clock nanoseconds (threaded backend only).
    pub wall_clock_ns: Option<f64>,
    /// Number of scheduling rounds executed (simulated backend only).
    pub rounds: u64,
    /// Number of vprocs used.
    pub vprocs: usize,
    /// Total objects allocated in vproc nurseries.
    pub allocated_objects: u64,
    /// Total words allocated in vproc nurseries.
    pub allocated_words: u64,
    /// Per-vproc scheduling statistics.
    pub per_vproc: Vec<VprocRunStats>,
    /// Aggregated collector statistics: the per-vproc sums, so
    /// `global_collections` counts each collection once per vproc.
    pub gc: GcStats,
    /// Machine-wide traffic statistics by locality class.
    pub traffic: TrafficStats,
}

impl RunReport {
    /// Total virtual time in seconds.
    fn elapsed_seconds(&self) -> f64 {
        self.elapsed_ns / 1e9
    }

    /// Total tasks executed across all vprocs.
    pub fn total_tasks(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.tasks_run).sum()
    }

    /// Total steals across all vprocs.
    pub fn total_steals(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.steals).sum()
    }

    /// Total steals whose victim was on the thief's node.
    pub fn steals_same_node(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.steals_same_node).sum()
    }

    /// Total steals that crossed NUMA nodes.
    pub fn steals_cross_node(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.steals_cross_node).sum()
    }

    /// Total bytes promoted into chunks on the consumer's node.
    pub fn promoted_bytes_local(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.promoted_bytes_local).sum()
    }

    /// Total bytes promoted into chunks on a node other than the
    /// consumer's — the cross-node traffic `NodeLocal` placement minimises.
    pub fn promoted_bytes_remote(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.promoted_bytes_remote).sum()
    }

    /// Total bytes promoted to the global heap by major collections and
    /// explicit promotions (the quantity lazy promotion minimises).
    pub fn total_promoted_bytes(&self) -> u64 {
        self.gc.major_promoted_bytes + self.gc.promotion_bytes
    }

    /// Total promotion operations that happened because work was stolen.
    pub fn promotions_at_steal(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.promotions_at_steal).sum()
    }

    /// Total promotion operations that happened because data was published
    /// to a machine-global structure.
    pub fn promotions_at_publish(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.promotions_at_publish).sum()
    }

    /// Total bytes promoted because work was actually stolen.
    pub fn promoted_bytes_at_steal(&self) -> u64 {
        self.per_vproc
            .iter()
            .map(|v| v.promoted_bytes_at_steal)
            .sum()
    }

    /// Total bytes promoted because data was published to a machine-global
    /// structure.
    pub fn promoted_bytes_at_publish(&self) -> u64 {
        self.per_vproc
            .iter()
            .map(|v| v.promoted_bytes_at_publish)
            .sum()
    }

    /// Total steal requests served by victims (threaded backend only).
    pub fn steal_requests_served(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.steal_requests_served).sum()
    }

    /// Total steal requests declined by victims (threaded backend only).
    pub fn steal_requests_declined(&self) -> u64 {
        self.per_vproc
            .iter()
            .map(|v| v.steal_requests_declined)
            .sum()
    }

    /// Total safe-point slow paths across all vprocs (threaded backend
    /// only; see [`VprocRunStats::alloc_slow_paths`]).
    pub fn alloc_slow_paths(&self) -> u64 {
        self.per_vproc.iter().map(|v| v.alloc_slow_paths).sum()
    }

    /// Every pause of every kind across every vproc, merged into one
    /// machine-wide series — what the report's p50/p99/max pause numbers
    /// are computed from.
    pub fn pause_stats(&self) -> PauseStats {
        self.gc.all_pauses()
    }

    /// The largest single mutator-visible pause of the run, in nanoseconds.
    pub fn max_pause_ns(&self) -> f64 {
        self.pause_stats().max_ns
    }

    /// Pauses for global-collection increments only — the series a pause
    /// budget bounds.
    pub fn global_pause_stats(&self) -> PauseStats {
        self.gc.global_pauses
    }

    /// Every recorded request latency across every vproc, merged into one
    /// machine-wide series — what a serving run's p50/p99/p999 numbers are
    /// computed from. Empty for batch programs.
    pub fn latency_stats(&self) -> LatencyStats {
        let mut all = LatencyStats::new();
        for v in &self.per_vproc {
            all.merge(&v.latency);
        }
        all
    }

    /// Number of requests served (latency samples recorded) across all
    /// vprocs. Zero for batch programs.
    pub fn requests_served(&self) -> u64 {
        self.latency_stats().count
    }

    /// Requests served per second of run time (zero when no requests were
    /// served or the run recorded no elapsed time).
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed_seconds();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests_served() as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let report = RunReport {
            elapsed_ns: 2e9,
            wall_clock_ns: None,
            rounds: 10,
            vprocs: 2,
            allocated_objects: 0,
            allocated_words: 0,
            per_vproc: vec![
                VprocRunStats {
                    tasks_run: 5,
                    steals: 1,
                    lazy_promotions: 2,
                    promotions_at_steal: 1,
                    promotions_at_publish: 1,
                    busy_ns: 1e9,
                    ..VprocRunStats::default()
                },
                VprocRunStats {
                    tasks_run: 3,
                    busy_ns: 0.5e9,
                    ..VprocRunStats::default()
                },
            ],
            gc: GcStats::default(),
            traffic: TrafficStats::default(),
        };
        assert_eq!(report.elapsed_seconds(), 2.0);
        assert_eq!(report.total_tasks(), 8);
        assert_eq!(report.total_steals(), 1);
        assert_eq!(report.promotions_at_steal(), 1);
        assert_eq!(report.promotions_at_publish(), 1);
        assert_eq!(report.total_promoted_bytes(), 0);
        assert!(report.pause_stats().is_empty());
        assert_eq!(report.max_pause_ns(), 0.0);
    }

    #[test]
    fn pause_accessors_read_the_merged_gc_series() {
        let mut gc = GcStats::default();
        gc.minor_pauses.record(1_000.0);
        gc.major_pauses.record(5_000.0);
        gc.global_pauses.record(20_000.0);
        gc.global_pauses.record(8_000.0);
        let report = RunReport {
            elapsed_ns: 1e9,
            wall_clock_ns: None,
            rounds: 0,
            vprocs: 1,
            allocated_objects: 0,
            allocated_words: 0,
            per_vproc: vec![VprocRunStats::default()],
            gc,
            traffic: TrafficStats::default(),
        };
        assert_eq!(report.pause_stats().count, 4);
        assert!((report.max_pause_ns() - 20_000.0).abs() < 1e-9);
        assert_eq!(report.global_pause_stats().count, 2);
        assert!((report.gc.total_pause_ns() - 34_000.0).abs() < 1e-9);
    }

    #[test]
    fn latency_accessors_merge_per_vproc_series() {
        let mut a = VprocRunStats::default();
        a.latency.record(1_000.0);
        a.latency.record(3_000.0);
        let mut b = VprocRunStats::default();
        b.latency.record(9_000.0);
        let report = RunReport {
            elapsed_ns: 2e9,
            wall_clock_ns: None,
            rounds: 0,
            vprocs: 2,
            allocated_objects: 0,
            allocated_words: 0,
            per_vproc: vec![a, b],
            gc: GcStats::default(),
            traffic: TrafficStats::default(),
        };
        assert_eq!(report.requests_served(), 3);
        assert!((report.latency_stats().max_ns - 9_000.0).abs() < 1e-9);
        assert!((report.throughput_rps() - 1.5).abs() < 1e-9);

        // Batch programs record nothing: zero served, zero throughput.
        let batch = RunReport {
            per_vproc: vec![VprocRunStats::default()],
            ..report
        };
        assert_eq!(batch.requests_served(), 0);
        assert_eq!(batch.throughput_rps(), 0.0);
    }
}
