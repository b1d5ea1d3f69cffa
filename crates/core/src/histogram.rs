//! A fixed-footprint log2-bucket duration histogram.
//!
//! One summary type serves every duration series the runtime reports:
//! collector pauses ([`PauseStats`](crate::PauseStats) is an alias of
//! [`Histogram`]) and request latencies (`LatencyStats` in `mgc-runtime`,
//! the same alias). Keeping them literally the same code means the
//! percentile and merge semantics are tested once and hold everywhere.

/// Number of log2 buckets in a [`Histogram`]. Bucket `i` counts durations in
/// `[2^i, 2^(i+1))` nanoseconds; `2^48` ns is ~3.3 days, far beyond any pause
/// or request latency this runtime can produce, so the last bucket never
/// saturates in practice (out-of-range values are clamped into it rather than
/// dropped).
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed-footprint summary of a series of durations: count, sum, max, and
/// a log2-bucket histogram that supports approximate percentiles.
///
/// Every individual observation (a mutator-visible pause, an end-to-end
/// request latency) is [`record`](Self::record)ed as it happens; per-vproc
/// records [`merge`](Self::merge) losslessly into machine-wide aggregates
/// (counts, sums, and buckets add; max takes the max), so merge order never
/// changes the result.
///
/// Percentiles are bucket-resolution approximations:
/// [`percentile`](Self::percentile) returns the upper bound of the bucket
/// holding the requested rank, capped at the observed maximum — an
/// over-approximation by at most 2x, which is plenty for p50/p99/p999
/// reporting and for a CI gate on the (exact) maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Number of durations recorded.
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds.
    pub sum_ns: f64,
    /// The largest single recorded duration, in nanoseconds (exact, not
    /// bucket-rounded).
    pub max_ns: f64,
    /// Log2 histogram: `buckets[i]` counts durations in `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum_ns: 0.0,
            max_ns: 0.0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Index of the log2 bucket covering a duration of `ns` nanoseconds.
    fn bucket_index(ns: f64) -> usize {
        if ns < 2.0 {
            return 0;
        }
        // floor(log2(ns)) via the integer part; ns >= 2 here so ilog2 >= 1.
        let whole = ns.min(u64::MAX as f64) as u64;
        (whole.ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one duration of `ns` nanoseconds. Non-finite or negative
    /// values are clamped to zero (still counted: an event happened even if
    /// the clock could not size it).
    pub fn record(&mut self, ns: f64) {
        let ns = if ns.is_finite() { ns.max(0.0) } else { 0.0 };
        self.count += 1;
        self.sum_ns += ns;
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        self.buckets[Self::bucket_index(ns)] += 1;
    }

    /// Approximate `p`-th percentile in nanoseconds, `p` in `[0, 100]`
    /// (values outside the range are clamped). Returns the upper bound of
    /// the histogram bucket containing the requested rank, capped at the
    /// exact observed maximum; zero when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = if p.is_finite() {
            p.clamp(0.0, 100.0)
        } else {
            100.0
        };
        // Rank of the requested observation, 1-based: p=0 -> 1, p=100 -> count.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = (1u64 << (i as u32 + 1).min(63)) as f64;
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Merges another record into this one. Associative and commutative:
    /// counts, sums, and buckets add; max takes the max.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_follow_log2() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(1.0), 0);
        assert_eq!(Histogram::bucket_index(1.99), 0);
        assert_eq!(Histogram::bucket_index(2.0), 1);
        assert_eq!(Histogram::bucket_index(3.99), 1);
        assert_eq!(Histogram::bucket_index(4.0), 2);
        assert_eq!(Histogram::bucket_index(1024.0), 10);
        assert_eq!(Histogram::bucket_index(1025.0), 10);
        // Out-of-range values clamp into the last bucket instead of panicking.
        assert_eq!(Histogram::bucket_index(1e30), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut p = Histogram::new();
        assert!(p.is_empty());
        p.record(100.0);
        p.record(300.0);
        p.record(200.0);
        assert_eq!(p.count, 3);
        assert!((p.sum_ns - 600.0).abs() < 1e-9);
        assert!((p.max_ns - 300.0).abs() < 1e-9);
        assert!((p.sum_ns / p.count as f64 - 200.0).abs() < 1e-9);
        // Negative / non-finite clamp to zero but still count.
        p.record(-5.0);
        p.record(f64::NAN);
        assert_eq!(p.count, 5);
        assert!((p.sum_ns - 600.0).abs() < 1e-9);
        assert_eq!(p.buckets[0], 2);
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = Histogram::new();
        assert_eq!(empty.percentile(50.0), 0.0);
        assert_eq!(empty.percentile(100.0), 0.0);

        let mut one = Histogram::new();
        one.record(1000.0);
        // A single observation is every percentile, and the cap keeps the
        // bucket upper bound from over-reporting it.
        assert!((one.percentile(0.0) - 1000.0).abs() < 1e-9);
        assert!((one.percentile(50.0) - 1000.0).abs() < 1e-9);
        assert!((one.percentile(100.0) - 1000.0).abs() < 1e-9);
        // Out-of-range p clamps instead of panicking.
        assert!((one.percentile(-3.0) - 1000.0).abs() < 1e-9);
        assert!((one.percentile(250.0) - 1000.0).abs() < 1e-9);

        // 99 short pauses in [64, 128) and one huge outlier: p50 reads the
        // short bucket's upper bound, p100 the exact max, and p99 still the
        // short bucket (rank 99 of 100).
        let mut p = Histogram::new();
        for _ in 0..99 {
            p.record(100.0);
        }
        p.record(1e9);
        assert!((p.percentile(50.0) - 128.0).abs() < 1e-9);
        assert!((p.percentile(99.0) - 128.0).abs() < 1e-9);
        assert!((p.percentile(100.0) - 1e9).abs() < 1e-3);
    }

    #[test]
    fn percentile_edges_on_empty_single_and_saturated() {
        // Empty: every percentile is zero, including the clamped edges.
        let empty = Histogram::new();
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(empty.percentile(p), 0.0);
        }

        // Single sample: p=0, p=50, and p=100 all resolve to rank 1.
        let mut single = Histogram::new();
        single.record(3.5);
        for p in [0.0, 50.0, 100.0] {
            assert!((single.percentile(p) - 3.5).abs() < 1e-9);
        }

        // Saturated last bucket: values beyond 2^48 ns clamp into bucket 47,
        // whose nominal upper bound (2^48) is far below the recorded values.
        // Every percentile then reads that bound — the documented
        // bucket-resolution behaviour; the exact series maximum stays
        // available in `max_ns`.
        let mut sat = Histogram::new();
        sat.record(1e30);
        sat.record(2e30);
        sat.record(3e30);
        assert_eq!(sat.buckets[HISTOGRAM_BUCKETS - 1], 3);
        let bound = (1u64 << HISTOGRAM_BUCKETS as u32) as f64;
        for p in [0.0, 50.0, 100.0] {
            assert!((sat.percentile(p) - bound).abs() < 1e-9);
        }
        assert!((sat.max_ns - 3e30).abs() < 1e18);
    }

    #[test]
    fn percentile_never_exceeds_max() {
        let mut p = Histogram::new();
        for i in 1..=17u32 {
            p.record(f64::from(i) * 37.0);
        }
        for q in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert!(p.percentile(q) <= p.max_ns);
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for (stats, base) in [(&mut a, 10.0), (&mut b, 1e4), (&mut c, 3e6)] {
            for i in 0..7u32 {
                stats.record(base * f64::from(i + 1));
            }
        }

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        // a ⊕ b == b ⊕ a
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);

        assert_eq!(left.count, 21);
    }

    /// A splitmix64 stream seeded by the case number, so every run sees the
    /// same cases.
    struct CaseRng(u64);

    impl CaseRng {
        fn for_case(case: u64) -> Self {
            let mut rng = CaseRng(0x5EED_C0DE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            rng.next_u64();
            rng.next_u64();
            rng
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform value in `range`.
        fn in_range(&mut self, range: std::ops::Range<u64>) -> u64 {
            range.start + self.next_u64() % (range.end - range.start)
        }
    }

    // Splitting a sample series across per-vproc histograms and merging
    // must report the same percentiles as one histogram fed the
    // concatenation: identical, in fact, since the buckets add exactly
    // and max takes the max. (Agreement within one bucket would do; the
    // merge being lossless gives equality.)
    #[test]
    fn merged_percentiles_match_concatenated() {
        for case in 0..64 {
            let mut rng = CaseRng::for_case(case);
            let len = rng.in_range(1..200);
            let samples: Vec<u64> = (0..len).map(|_| rng.in_range(1..1_000_000_000)).collect();
            let split = rng.in_range(0..200) as usize % samples.len();
            let mut whole = Histogram::new();
            let mut left = Histogram::new();
            let mut right = Histogram::new();
            for (i, &s) in samples.iter().enumerate() {
                let ns = s as f64;
                whole.record(ns);
                if i < split {
                    left.record(ns);
                } else {
                    right.record(ns);
                }
            }
            let mut merged = left;
            merged.merge(&right);
            assert_eq!(merged, whole);
            for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
                let a = merged.percentile(p);
                let b = whole.percentile(p);
                // Within one log2 bucket: a factor of two.
                assert!(a <= b * 2.0 + 1e-9 && b <= a * 2.0 + 1e-9);
            }
        }
    }
}
