//! Runs the benchmark end to end in quick mode (one round, inputs ÷ 10) and
//! checks its output against `BENCHMARK.json`: every listed metric appears
//! exactly once per workload with its unit, nothing fails, and the files
//! under `benchmark/out/` parse.

use mgc_benchmark::metrics::{END_TO_END, PER_LAYER};
use mgc_benchmark::params::WORKLOADS;
use mgc_store::json::parse;
use mgc_store::JsonValue;
use std::path::PathBuf;
use std::process::Command;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: PathBuf) -> JsonValue {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// `(name, unit, better)` of each metric of a `BENCHMARK.json` list.
fn listed(list: &JsonValue) -> Vec<(String, String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn names(list: &JsonValue) -> Vec<(String, String)> {
    listed(list).into_iter().map(|(n, u, _)| (n, u)).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn benchmark(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mgc-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// Each workload of a result file lists exactly `expected`, no failures.
fn check_result_file(file: &JsonValue, expected: &[(String, String)]) {
    assert!(file.get("claim").is_some_and(JsonValue::is_null));
    assert!(file.get("host").and_then(|h| h.get("host_cores")).is_some());
    let workloads = file.get("workloads").and_then(JsonValue::as_array).unwrap();
    let listed: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS.map(|w| w.name()));
    for workload in workloads {
        let name = workload.get("name").and_then(JsonValue::as_str).unwrap();
        assert_eq!(
            workload.get("failed").and_then(JsonValue::as_u64),
            Some(0),
            "{name}: {:?}",
            workload.get("failures")
        );
        assert!(
            workload
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .unwrap()
                >= 1
        );
        let JsonValue::Object(metrics) = workload.get("metrics").unwrap() else {
            panic!("{name}: metrics is not an object");
        };
        // Same names, same order, each once.
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(got, want, "{name}");
        for ((key, metric), (_, unit)) in metrics.iter().zip(expected) {
            assert!(well_formed(key), "{key}");
            assert_eq!(
                metric.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str()),
                "{name}/{key}"
            );
            let value = metric.get("median").or_else(|| metric.get("value"));
            assert!(
                value
                    .and_then(JsonValue::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}/{key} has no finite value"
            );
        }
    }
}

#[test]
fn quick_run_and_trace_emit_every_listed_metric() {
    let contract = read_json(manifest_dir().join("../BENCHMARK.json"));
    let end_to_end = names(contract.get("end_to_end").unwrap());
    let per_layer = names(contract.get("per_layer").unwrap());

    // BENCHMARK.json and the tables in src/metrics.rs say the same thing.
    let row = |n: &str, u: &str, b: &str| (n.to_string(), u.to_string(), b.to_string());
    assert_eq!(
        listed(contract.get("end_to_end").unwrap()),
        END_TO_END
            .iter()
            .map(|m| row(m.name, m.unit, m.better.label()))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        listed(contract.get("per_layer").unwrap()),
        PER_LAYER
            .iter()
            .map(|m| row(m.name, m.unit, m.better.label()))
            .collect::<Vec<_>>()
    );
    for (bound, metric) in contract
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("bound").and_then(JsonValue::as_f64).unwrap())
        .zip(&END_TO_END)
    {
        assert_eq!(bound, metric.bound, "{}", metric.name);
    }
    let listed: Vec<String> = names_only(contract.get("workloads").unwrap());
    assert_eq!(listed, WORKLOADS.map(|w| w.name().to_string()));

    // The untraced run: every end-to-end metric, for every workload.
    let stdout = benchmark(&["run", "--quick", "--seed", "5"]);
    for (name, _) in &end_to_end {
        assert_eq!(
            stdout.matches(&format!("  {name} ")).count(),
            WORKLOADS.len(),
            "{name} is printed once per workload"
        );
    }
    check_result_file(
        &read_json(manifest_dir().join("out/result.json")),
        &end_to_end,
    );

    // The traced run: every per-layer metric, and a loadable trace.
    benchmark(&["trace", "--quick", "--seed", "5"]);
    check_result_file(
        &read_json(manifest_dir().join("out/trace-result.json")),
        &per_layer,
    );
    let trace = read_json(manifest_dir().join("out/trace.json"));
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    for needed in [
        "workloads.build",
        "workloads.reference",
        "runtime.experiment_run",
        "bench.cell",
        "core.minor",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(JsonValue::as_str) == Some(needed)),
            "no {needed} span in the trace"
        );
    }
    // Parent links point at earlier events.
    for (index, event) in events.iter().enumerate() {
        let parent = event.get("args").and_then(|a| a.get("parent")).unwrap();
        assert!(parent.is_null() || parent.as_u64().unwrap() < index as u64);
    }

    // The contract's form: the last line is the result object.
    let stdout = benchmark(&[
        "--workload",
        "sort-promote",
        "--seed",
        "9",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    let line = parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
    assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
    let JsonValue::Object(metrics) = line.get("metrics").unwrap() else {
        panic!("metrics is not an object");
    };
    assert_eq!(metrics.len(), end_to_end.len());
}

fn names_only(list: &JsonValue) -> Vec<String> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

/// A child that exits non-zero or overruns its timeout is a counted failure
/// with its standard error kept, never a hang or a crash of the harness.
#[test]
fn a_failing_or_hanging_child_becomes_a_failure() {
    use mgc_benchmark::harness::run_child;
    use std::time::{Duration, Instant};
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_mgc-benchmark"));
    let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();

    let failure = run_child(
        &exe,
        "bad/cell",
        &args(&["cell", "--workload", "no-such-workload", "--role", "base"]),
        Duration::from_secs(30),
    )
    .expect_err("an unknown workload exits non-zero");
    assert_eq!(failure.cell, "bad/cell");
    assert!(failure.reason.contains("exited with"), "{}", failure.reason);
    assert!(failure.stderr_tail.contains("no-such-workload"));

    // The full-size churn cell runs for seconds; 50 ms is a timeout.
    let started = Instant::now();
    let failure = run_child(
        &exe,
        "churn-local/1v",
        &args(&[
            "cell",
            "--workload",
            "churn-local",
            "--role",
            "base",
            "--seed",
            "0",
        ]),
        Duration::from_millis(50),
    )
    .expect_err("the cell cannot finish in 50 ms");
    assert!(failure.reason.contains("timed out"), "{}", failure.reason);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the child was killed, not awaited"
    );
}
