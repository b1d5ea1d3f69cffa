//! Collector configuration and tuning knobs.

/// Configuration of the garbage collector's triggers and policies.
///
/// The defaults follow the paper, scaled down to the reproduction's smaller
/// workloads (the paper's global threshold is 32 MB per vproc on a machine
/// with 128 GB of RAM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// A minor collection triggers a major collection when the size of the
    /// freshly re-divided nursery falls below this fraction of the local
    /// heap (§3.3: "when the size of the new nursery area falls below a
    /// certain threshold").
    pub nursery_threshold_fraction: f64,
    /// The *floor* of the global-collection trigger: none is requested while
    /// the bytes of global-heap chunks in use stay at or below
    /// `num_vprocs * global_threshold_per_vproc_bytes` (§3.4: "the number of
    /// vprocs times 32MB"). Above it [`GcConfig::global_growth_factor`] rules.
    pub global_threshold_per_vproc_bytes: usize,
    /// A global collection is requested when the bytes in use exceed
    /// `max(floor, global_growth_factor × bytes in use right after the last
    /// global collection)`, so a collection copies at most about
    /// `factor / (factor − 1)` bytes per byte promoted since the previous
    /// one, however large the live set. `0.0` leaves only the floor — the
    /// paper's fixed rule, under which a live set above the floor is copied
    /// in full at every check; [`GcConfig::paper_scale`] and the figure
    /// pipeline pin it to reproduce the paper's numbers.
    pub global_growth_factor: f64,
    /// Reference mode (threaded backend): when `true`, every task pushed to a
    /// deque has its roots promoted eagerly at publication time — the
    /// pre-lazy-promotion behaviour. The default (`false`) promotes a task's
    /// roots only when the task is actually stolen (§3.1), so promotion
    /// volume is proportional to steals rather than spawns. The
    /// lazy-promotion property test uses the eager mode as the
    /// promotion-volume upper bound.
    pub eager_publication: bool,
    /// When `true`, the heap invariants (§2.3) are re-verified after every
    /// collection; expensive, intended for tests.
    pub verify_after_gc: bool,
    /// Soft per-increment pause budget for global collections, in
    /// microseconds. `None` (the default) preserves the classic behaviour:
    /// the whole collection is one stop-the-world increment. When set, the
    /// threaded backend splits the evacuation into budgeted increments and
    /// releases mutators between them, and the simulated backend models the
    /// same split by slicing each vproc's virtual collection cost into
    /// budget-sized pause increments. The budget bounds the Cheney-scan work
    /// per increment; the ramp-down local collection and root re-evacuation
    /// at the head of each increment add bounded slack on top.
    pub pause_budget_us: Option<u64>,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            nursery_threshold_fraction: 0.20,
            global_threshold_per_vproc_bytes: 2 * 1024 * 1024,
            global_growth_factor: 2.0,
            eager_publication: false,
            verify_after_gc: false,
            pause_budget_us: None,
        }
    }
}

impl GcConfig {
    /// A configuration suitable for unit tests: small thresholds so every
    /// collection kind triggers quickly, and invariant verification enabled.
    pub fn small_for_tests() -> Self {
        GcConfig {
            nursery_threshold_fraction: 0.25,
            global_threshold_per_vproc_bytes: 32 * 1024,
            verify_after_gc: true,
            ..GcConfig::default()
        }
    }

    /// The paper's configuration: a global collection whenever more than
    /// 32 MB of global-heap chunks per vproc are in use — the fixed rule,
    /// with no proportional growth.
    pub fn paper_scale() -> Self {
        GcConfig {
            global_threshold_per_vproc_bytes: 32 * 1024 * 1024,
            global_growth_factor: 0.0,
            ..GcConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_design() {
        let c = GcConfig::default();
        assert!(!c.eager_publication);
        assert!(c.nursery_threshold_fraction > 0.0 && c.nursery_threshold_fraction < 1.0);
    }

    #[test]
    fn paper_scale_uses_32mb_per_vproc() {
        assert_eq!(
            GcConfig::paper_scale().global_threshold_per_vproc_bytes,
            32 * 1024 * 1024
        );
    }

    #[test]
    fn only_paper_scale_pins_the_fixed_global_trigger() {
        assert_eq!(GcConfig::paper_scale().global_growth_factor, 0.0);
        assert_eq!(GcConfig::default().global_growth_factor, 2.0);
        assert_eq!(GcConfig::small_for_tests().global_growth_factor, 2.0);
    }

    #[test]
    fn test_config_verifies() {
        assert!(GcConfig::small_for_tests().verify_after_gc);
    }

    #[test]
    fn pause_budget_defaults_to_unbounded() {
        assert_eq!(GcConfig::default().pause_budget_us, None);
        assert_eq!(GcConfig::paper_scale().pause_budget_us, None);
    }
}
