//! What the benchmark prints and writes: the contract's result line, the
//! human-readable tables, and `out/result.json` / `out/trace-result.json`.

use crate::harness::{host_cores, Failure, Measurement, Tally, TraceReport};
use crate::json::{self, Obj};
use crate::metrics::{unit_of, END_TO_END};
use crate::spans::{self_time_by_layer, Span};
use crate::stats::quartiles;
use std::process::Command;

/// Where the numbers came from: core count, compiler and kernel.
pub fn host_json() -> String {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Obj::new()
        .raw("host_cores", host_cores())
        .str("rustc", &rustc)
        .str("kernel", &kernel)
        .finish()
}

fn failures_json(failures: &[Failure]) -> String {
    json::array(failures.iter().map(|f| {
        Obj::new()
            .str("cell", &f.cell)
            .str("reason", &f.reason)
            .str("stderr_tail", &f.stderr_tail)
            .finish()
    }))
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(correct: bool, tally: &Tally, metrics: &[(&str, f64)]) -> String {
    Obj::new()
        .raw("correct", correct)
        .raw("attempted", tally.attempted.max(1))
        .raw("failed", tally.failed)
        .raw("metrics", values_json(metrics))
        .finish()
}

/// `{name: {"value": v, "unit": u}, ...}`.
fn values_json(metrics: &[(&str, f64)]) -> String {
    let mut fields = Obj::new();
    for (name, value) in metrics {
        fields = fields.raw(
            name,
            Obj::new()
                .num("value", *value)
                .str("unit", unit_of(name).unwrap_or(""))
                .finish(),
        );
    }
    fields.finish()
}

/// The end-to-end metrics of a measurement as `(name, median)`; a metric no
/// repetition produced reads 0 (and the measurement is not correct).
pub fn end_to_end_values(m: &Measurement) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|e| (e.name, m.value(e.name).unwrap_or(0.0)))
        .collect()
}

/// One workload's end-to-end table.
pub fn print_measurement(m: &Measurement) {
    println!(
        "{}: {} round(s), {} attempted, {} failed",
        m.workload.name(),
        m.rounds,
        m.tally.attempted,
        m.tally.failed
    );
    for (name, samples) in &m.samples {
        let (q1, q2, q3) = quartiles(samples);
        println!(
            "  {name:<20} {q2:>14.6} {:<4} [q1 {q1:.6}, q3 {q3:.6}, n {}]",
            unit_of(name).unwrap_or(""),
            samples.len()
        );
    }
    print_failures(&m.tally);
}

fn print_failures(tally: &Tally) {
    for f in &tally.failures {
        println!("  FAILED {}: {}", f.cell, f.reason);
        for line in f.stderr_tail.lines() {
            println!("    | {line}");
        }
    }
}

/// One workload's per-layer table, and where the traced time went.
pub fn print_trace(t: &TraceReport) {
    println!(
        "{}: traced, {} attempted, {} failed",
        t.workload.name(),
        t.tally.attempted,
        t.tally.failed
    );
    for (name, value) in &t.per_layer {
        println!("  {name:<34} {value:>16.4} {}", unit_of(name).unwrap_or(""));
    }
    print_failures(&t.tally);
}

/// Self time per layer. Every span's self time is counted once, so the
/// column adds up to the duration of the root spans.
pub fn print_layer_table(spans: &[Span]) {
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    println!(
        "  self time by layer (of {:.3} s traced):",
        total as f64 / 1e9
    );
    for (layer, ns) in self_time_by_layer(spans) {
        println!(
            "    {layer:<12} {:>10.3} s  {:>5.1} %",
            ns as f64 / 1e9,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}

/// A result file: the header, one object per workload, and `"claim": null`
/// last — a benchmark run measures; it claims nothing.
fn file_json(kind: &str, seed: u64, quick: bool, seconds: f64, workloads: Vec<String>) -> String {
    Obj::new()
        .raw("schema", 1)
        .str("kind", kind)
        .raw("host", host_json())
        .raw("seed", seed)
        .raw("quick", quick)
        .num("seconds_per_workload", seconds)
        .raw("workloads", format!("[\n  {}\n]", workloads.join(",\n  ")))
        .raw("claim", "null")
        .finish()
        + "\n"
}

/// `out/result.json`: every workload's end-to-end metrics with their
/// samples, the exact counts, and the failures.
pub fn result_json(measurements: &[Measurement], seed: u64, quick: bool, seconds: f64) -> String {
    let workloads = measurements.iter().map(|m| {
        let mut metrics = Obj::new();
        for (name, samples) in &m.samples {
            let (q1, q2, q3) = quartiles(samples);
            metrics = metrics.raw(
                name,
                Obj::new()
                    .str("unit", unit_of(name).unwrap_or(""))
                    .num("median", q2)
                    .num("q1", q1)
                    .num("q3", q3)
                    .raw("n", samples.len())
                    .raw(
                        "samples",
                        json::array(samples.iter().map(|v| json::num(*v))),
                    )
                    .finish(),
            );
        }
        let mut exact = Obj::new();
        for (key, value) in &m.exact {
            exact = exact.num(key, *value);
        }
        Obj::new()
            .str("name", m.workload.name())
            .raw("rounds", m.rounds)
            .raw("attempted", m.tally.attempted)
            .raw("failed", m.tally.failed)
            .raw("metrics", metrics.finish())
            .raw("exact", exact.finish())
            .raw("failures", failures_json(&m.tally.failures))
            .finish()
    });
    file_json("run", seed, quick, seconds, workloads.collect())
}

/// `out/trace-result.json`: every workload's per-layer metrics.
pub fn trace_result_json(traces: &[TraceReport], seed: u64, quick: bool, seconds: f64) -> String {
    let workloads = traces.iter().map(|t| {
        Obj::new()
            .str("name", t.workload.name())
            .raw("attempted", t.tally.attempted)
            .raw("failed", t.tally.failed)
            .raw("metrics", values_json(&t.per_layer))
            .raw("failures", failures_json(&t.tally.failures))
            .finish()
    });
    file_json("trace", seed, quick, seconds, workloads.collect())
}
