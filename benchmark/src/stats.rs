//! The harness arithmetic: medians, quartiles, and percentiles read out of
//! the runtime's log2-bucket [`Histogram`].

use mgc_core::Histogram;

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method), so the spread this benchmark
/// reports is the one the driver computes. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (`p` in `[0, 100]`) of a [`Histogram`], linearly
/// interpolated inside the log2 bucket that holds the requested rank.
///
/// `Histogram::percentile` returns the bucket's upper bound, so a p99 that
/// sits near a bucket edge flips between two powers of two on identical
/// runs; interpolating by rank inside the bucket moves smoothly instead. The
/// last occupied bucket is capped at the exact recorded maximum, so p100 is
/// the maximum.
pub fn percentile_interp(h: &Histogram, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let p = if p.is_finite() {
        p.clamp(0.0, 100.0)
    } else {
        100.0
    };
    let rank = ((p / 100.0) * h.count as f64).ceil().max(1.0) as u64;
    let last = h.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
    let mut seen = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 || seen + n < rank {
            seen += n;
            continue;
        }
        let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
        let mut hi = (1u64 << (i as u32 + 1).min(63)) as f64;
        if i == last {
            hi = hi.min(h.max_ns).max(lo);
        }
        let within = (rank - seen) as f64 / n as f64;
        return lo + within * (hi - lo);
    }
    h.max_ns
}

/// Observations at or above `threshold_ns`, which must be a power of two (a
/// bucket edge), per million — exact, since whole buckets are counted.
pub fn at_or_above_ppm(h: &Histogram, threshold_ns: u64) -> f64 {
    debug_assert!(threshold_ns.is_power_of_two());
    if h.count == 0 {
        return 0.0;
    }
    let first = threshold_ns.ilog2() as usize;
    let over: u64 = h.buckets[first.min(h.buckets.len())..].iter().sum();
    over as f64 * 1e6 / h.count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    /// A deterministic spread of durations over several decades.
    fn synthetic() -> Vec<f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut out: Vec<f64> = (0..20_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let decade = (state % 4) as i32;
                1_000.0 * 10f64.powi(decade) * (1.0 + (state >> 40) as f64 / (1u64 << 24) as f64)
            })
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    #[test]
    fn interpolated_percentiles_are_monotone_and_inside_the_bucket() {
        let samples = synthetic();
        let h = histogram(&samples);
        let mut previous = 0.0;
        for tenth in 0..=1000 {
            let p = tenth as f64 / 10.0;
            let got = percentile_interp(&h, p);
            assert!(got >= previous, "p{p}: {got} < {previous}");
            previous = got;
            // Same log2 bucket as the exact percentile, hence within 2x.
            let exact = exact_percentile(&samples, p);
            let lo = (1u64 << (exact as u64).ilog2()) as f64;
            assert!(
                got >= lo && got <= lo * 2.0,
                "p{p}: {got} outside [{lo}, 2x]"
            );
        }
    }

    #[test]
    fn the_hundredth_percentile_is_the_recorded_maximum() {
        let samples = synthetic();
        let h = histogram(&samples);
        assert_eq!(percentile_interp(&h, 100.0), h.max_ns);
        assert_eq!(percentile_interp(&h, 100.0), *samples.last().unwrap());
        assert_eq!(percentile_interp(&Histogram::new(), 99.0), 0.0);
    }

    #[test]
    fn interpolation_tracks_a_uniform_bucket_closely() {
        // 1,000 samples spread evenly over one bucket, [65,536, 131,072).
        let samples: Vec<f64> = (0..1000).map(|i| 65_536.0 + 65.536 * i as f64).collect();
        let h = histogram(&samples);
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = exact_percentile(&samples, p);
            let got = percentile_interp(&h, p);
            assert!((got - exact).abs() / exact < 0.01, "p{p}: {got} vs {exact}");
        }
    }

    #[test]
    fn quartiles_match_the_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn over_threshold_share_counts_whole_buckets() {
        let h = histogram(&[10.0, 2_000_000.0, 1_048_576.0, 1_048_575.0]);
        assert_eq!(at_or_above_ppm(&h, 1 << 20), 500_000.0);
    }
}
