//! `compare <a.json> <b.json>`: applies the bounds to two result files.
//!
//! One row per workload × end-to-end metric: both medians with quartiles,
//! the ratio `b / a` (its base is `a`'s median), the bound, and a verdict.
//! `regressed` when `b`'s median is worse than `a`'s by more than the bound
//! and by more than the run-to-run spread; `unresolved` when the spread
//! (quartile distance over median, of either side) is wider than the bound
//! and not every run of `b` reads better than every run of `a`; `ok`
//! otherwise. This is the tool for the two-set check: two `run`s of one
//! commit must compare without a `regressed` row.

use crate::json::{get_f64, get_fields};
use crate::metrics::{Better, END_TO_END};
use crate::stats::{quartiles, spread};
use mgc_store::JsonValue;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound and the noise.
    Regressed,
    /// The noise is wider than the bound: cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides one row from the two sides' samples.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (_, median_a, _) = quartiles(a);
    let (_, median_b, _) = quartiles(b);
    if a.is_empty() || b.is_empty() || median_a == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive when b is worse, as a share of a's median.
    let worse = match better {
        Better::Lower => (median_b - median_a) / median_a,
        Better::Higher => (median_a - median_b) / median_a,
    };
    let every_run_better = match better {
        Better::Lower => b.iter().all(|vb| a.iter().all(|va| vb < va)),
        Better::Higher => b.iter().all(|vb| a.iter().all(|va| vb > va)),
    };
    let noise = spread(a).max(spread(b));
    if every_run_better {
        Verdict::Ok
    } else if worse > bound.max(noise) {
        Verdict::Regressed
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn samples(workload: &JsonValue, metric: &str) -> Vec<f64> {
    workload
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(JsonValue::as_array)
        .map(|s| s.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

fn workloads(file: &JsonValue) -> &[JsonValue] {
    file.get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
}

fn failed_share(workload: &JsonValue) -> f64 {
    let attempted = get_f64(workload, "attempted").unwrap_or(0.0);
    if attempted > 0.0 {
        get_f64(workload, "failed").unwrap_or(0.0) / attempted
    } else {
        1.0
    }
}

/// Compares two parsed result files, printing the table. Returns whether
/// the comparison passes: no `regressed` row and no higher failed share.
pub fn compare(a: &JsonValue, b: &JsonValue) -> bool {
    let cores = |f: &JsonValue| f.get("host").and_then(|h| get_f64(h, "host_cores"));
    println!(
        "host_cores: a {:?}, b {:?}; seed: a {:?}, b {:?}",
        cores(a),
        cores(b),
        get_f64(a, "seed"),
        get_f64(b, "seed")
    );
    println!(
        "{:<13} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "a median",
        "a [q1, q3] n",
        "b median",
        "b [q1, q3] n",
        "b/a",
        "bound"
    );
    let mut pass = true;
    for wa in workloads(a) {
        let name = wa.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            println!("{name:<13} missing from b: regressed");
            pass = false;
            continue;
        };
        for metric in &END_TO_END {
            let (sa, sb) = (samples(wa, metric.name), samples(wb, metric.name));
            let (a1, a2, a3) = quartiles(&sa);
            let (b1, b2, b3) = quartiles(&sb);
            // Fewer than two cores cannot resolve a two-thread cell.
            let unresolvable = [cores(a), cores(b)]
                .iter()
                .any(|c| c.is_some_and(|c| c < 2.0))
                && name != "sim-fig5";
            let v = if unresolvable {
                Verdict::Unresolved
            } else {
                verdict(&sa, &sb, metric.better, metric.bound)
            };
            pass &= v != Verdict::Regressed;
            println!(
                "{name:<13} {:<18} {a2:>12.5} {:>25} {b2:>12.5} {:>25} {:>8.4} {:>6.2}  {}",
                metric.name,
                format!("[{a1:.5}, {a3:.5}] {}", sa.len()),
                format!("[{b1:.5}, {b3:.5}] {}", sb.len()),
                if a2 != 0.0 { b2 / a2 } else { f64::NAN },
                metric.bound,
                v.label()
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        let failed_ok = fb <= fa;
        pass &= failed_ok;
        println!(
            "{name:<13} {:<18} {fa:>12.5} {:>25} {fb:>12.5} {:>25} {:>8} {:>6.2}  {}",
            "failed_share",
            "",
            "",
            "",
            0.0,
            if failed_ok { "ok" } else { "regressed" }
        );
        // Counts that repeat exactly on one commit and seed; a difference is
        // information (the collector did different work), not a verdict.
        let exact_b = get_fields(wb, "exact");
        for (key, va) in get_fields(wa, "exact") {
            let vb = exact_b.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            if vb != Some(va) {
                println!(
                    "{name:<13} exact {key}: a {:?}, b {:?}: differs",
                    va.as_f64(),
                    vb.and_then(JsonValue::as_f64)
                );
            }
        }
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_noise() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within the bound.
        assert_eq!(
            verdict(&steady, &[1.05, 1.04, 1.06], Better::Lower, 0.10),
            Verdict::Ok
        );
        // Worse by more than the bound, little noise.
        assert_eq!(
            verdict(&steady, &[1.30, 1.31, 1.29], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            verdict(&steady, &[1.30, 1.31, 1.29], Better::Higher, 0.10),
            Verdict::Ok
        );
        // Spread wider than the bound and overlapping runs: cannot tell.
        let noisy = [1.0, 1.4, 0.8, 1.3, 0.7];
        assert_eq!(
            verdict(&noisy, &[1.05, 1.5, 0.9], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ... unless every run of b reads better than every run of a.
        assert_eq!(
            verdict(&noisy, &[0.5, 0.6, 0.4], Better::Lower, 0.10),
            Verdict::Ok
        );
        // ... and a difference far beyond the noise is still a regression.
        assert_eq!(
            verdict(&noisy, &[3.0, 3.5, 2.9], Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[], &steady, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
