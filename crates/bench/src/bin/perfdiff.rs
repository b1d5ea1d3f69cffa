//! The CI perf gate: evaluates the checked-in gate table over a baseline
//! store and the store a fresh sweep was appended to, and exits non-zero
//! when any row fails.
//!
//! ```text
//! perfdiff --baseline results/store --current "$RUNNER_TEMP/store" \
//!          [--gates results/baseline/gates.json]
//! ```
//!
//! `--baseline` and `--current` are results-store directories, each read
//! as the latest record per run-point key. `--gates` names the gate table
//! (see [`mgc_bench::perfdiff`] for its format and the three comparisons);
//! all of its gates run in this one invocation.
//!
//! The Markdown report goes to stdout (the CI job tees it into
//! `$GITHUB_STEP_SUMMARY`), a one-line-per-gate summary to stderr; the
//! exit code is the gate.

use std::path::PathBuf;

fn main() {
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut gates = PathBuf::from("results/baseline/gates.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path = || {
            PathBuf::from(
                args.next()
                    .unwrap_or_else(|| panic!("{arg} requires a path")),
            )
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(path()),
            "--current" => current = Some(path()),
            "--gates" => gates = path(),
            other => panic!(
                "unknown argument `{other}` (expected --baseline <store-dir>, \
                 --current <store-dir>, and optionally --gates <file>)"
            ),
        }
    }
    let baseline = baseline.expect("--baseline <store-dir> is required");
    let current = current.expect("--current <store-dir> is required");

    let (report, summary, failures) = mgc_bench::perfdiff::check(&baseline, &current, &gates)
        .unwrap_or_else(|err| panic!("{err}"));
    println!("{report}");
    eprint!("{summary}");
    if failures > 0 {
        eprintln!("perfdiff: {failures} rows failed");
        std::process::exit(1);
    }
    eprintln!("perfdiff: no row failed");
}
