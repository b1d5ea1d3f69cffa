//! Command line of the benchmark.
//!
//! ```text
//! mgc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mgc-benchmark run     [--seed <n>] [--seconds <s>] [--quick]
//! mgc-benchmark trace   [--seed <n>] [--seconds <s>] [--quick]
//! mgc-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the driver's contract (`BENCHMARK.json`): one workload,
//! its end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`)
//! as the last line of standard output. `run` and `trace` do the same for
//! all five workloads and write `benchmark/out/`. `cell` and `probes` are
//! what the harness runs in child processes.

use mgc_benchmark::cell::{outcome_to_json, run_cell};
use mgc_benchmark::compare::compare;
use mgc_benchmark::harness::{
    cell_label, measure, run_probes, trace, Measurement, RunOptions, TraceReport,
};
use mgc_benchmark::params::{cell_spec, Role, WorkloadId, WORKLOADS};
use mgc_benchmark::probes::run_probes_json;
use mgc_benchmark::report::{
    contract_line, end_to_end_values, print_layer_table, print_measurement, print_trace,
    result_json, trace_result_json,
};
use mgc_benchmark::spans::{append_spans, chrome_trace_json, Span, Tracer};
use mgc_benchmark::{harness::ProbeReport, out_dir};
use std::process::ExitCode;

/// What one workload measures for when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// `--key value` pairs and bare flags, after the subcommand.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: &[String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = iter.next_if(|next| !next.starts_with("--")).cloned();
                    flags.push((key.to_string(), value));
                }
                None => positional.push(arg.clone()),
            }
        }
        Args { positional, flags }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {text:?}")),
            None if self.has(key) => Err(format!("--{key} needs a value")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<WorkloadId, String> {
        let name = self
            .value("workload")
            .ok_or("--workload <name> is required")?;
        WorkloadId::from_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }

    fn options(&self) -> Result<RunOptions, String> {
        Ok(RunOptions {
            seed: self.parsed("seed", 0)?,
            quick: self.has("quick"),
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.parsed("seconds", DEFAULT_SECONDS)?;
        if seconds.is_finite() && seconds > 0.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be positive, got {seconds}"))
        }
    }
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn finish_run(measurements: &[Measurement], args: &Args) -> Result<bool, String> {
    for m in measurements {
        print_measurement(m);
    }
    let options = args.options()?;
    write_out(
        "result.json",
        &result_json(measurements, options.seed, options.quick, args.seconds()?),
    )?;
    Ok(measurements.iter().all(Measurement::correct))
}

fn finish_trace(traces: &[TraceReport], probes: &ProbeReport, args: &Args) -> Result<bool, String> {
    let mut spans: Vec<Span> = Vec::new();
    for t in traces {
        print_trace(t);
        append_spans(&mut spans, t.spans.clone(), None);
    }
    append_spans(&mut spans, probes.spans.clone(), None);
    print_layer_table(&spans);
    let options = args.options()?;
    write_out("trace.json", &chrome_trace_json(&spans))?;
    write_out(
        "trace-result.json",
        &trace_result_json(traces, options.seed, options.quick, args.seconds()?),
    )?;
    Ok(traces.iter().all(TraceReport::correct))
}

/// The driver's contract: one workload, one result line.
fn contract(args: &Args) -> Result<bool, String> {
    let workload = args.workload()?;
    let options = args.options()?;
    let seconds = args.seconds()?;
    match args.parsed("trace", 0u8)? {
        0 => {
            let m = measure(workload, options, seconds);
            let correct = finish_run(std::slice::from_ref(&m), args)?;
            println!(
                "{}",
                contract_line(correct, &m.tally, &end_to_end_values(&m))
            );
            Ok(correct)
        }
        1 => {
            // The probes run inside the same budget as the traced cells.
            let started = std::time::Instant::now();
            let probes = run_probes(options.quick);
            let remaining = (seconds - started.elapsed().as_secs_f64()).max(1.0);
            let t = trace(workload, options, remaining, &probes);
            let correct = finish_trace(std::slice::from_ref(&t), &probes, args)?;
            println!("{}", contract_line(correct, &t.tally, &t.per_layer));
            Ok(correct)
        }
        other => Err(format!("--trace takes 0 or 1, got {other}")),
    }
}

fn cell(args: &Args) -> Result<bool, String> {
    let workload = args.workload()?;
    let role = args
        .value("role")
        .and_then(Role::from_name)
        .ok_or("--role base|primary is required")?;
    let options = args.options()?;
    let spec = cell_spec(workload, role, options.seed, options.quick);
    let mut tracer = Tracer::new(&cell_label(workload, role), args.has("trace"));
    let outcome = run_cell(&spec, &mut tracer);
    println!("{}", outcome_to_json(&outcome, &tracer.into_spans()));
    Ok(true)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &argv[1..]),
        _ => ("", argv),
    };
    let args = Args::parse(rest);
    match command {
        "" => contract(&args),
        "run" => {
            let (options, seconds) = (args.options()?, args.seconds()?);
            let measurements: Vec<Measurement> = WORKLOADS
                .into_iter()
                .map(|w| measure(w, options, seconds))
                .collect();
            finish_run(&measurements, &args)
        }
        "trace" => {
            let (options, seconds) = (args.options()?, args.seconds()?);
            let probes = run_probes(options.quick);
            let traces: Vec<TraceReport> = WORKLOADS
                .into_iter()
                .map(|w| trace(w, options, seconds, &probes))
                .collect();
            finish_trace(&traces, &probes, &args)
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two result files".into());
            };
            let load = |path: &String| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                mgc_store::json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            Ok(compare(&load(a)?, &load(b)?))
        }
        "cell" => cell(&args),
        "probes" => {
            println!("{}", run_probes_json(args.has("quick"), &out_dir()));
            Ok(true)
        }
        other => Err(format!(
            "unknown command {other:?}; see the top of benchmark/src/main.rs"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mgc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
