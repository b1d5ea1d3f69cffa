//! The sweep driver. Two modes:
//!
//! * **no arguments** — regenerates Table 1 and every figure (4–7 on the
//!   simulated machine models, 8 on the threaded backend under node-local
//!   and interleave placement), writing CSV files under `results/`. Control
//!   the workload scale with `MGC_SCALE=tiny|small|bench|paper`.
//! * **`--corpus <manifest.json> [--store <dir>]`** — sweeps the run points
//!   a checked-in corpus manifest describes (`corpus/bench-baseline.json`,
//!   `corpus/serve.json`) and appends them to the results store as one
//!   batch of kind `corpus:<name>`. `--store` overrides the store directory
//!   (default `results/store`); CI sweeps into a scratch directory so its
//!   checks see only what this run measured.

fn main() {
    let mut corpus: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => corpus = Some(args.next().expect("--corpus requires a manifest path")),
            "--store" => {
                store_dir = Some(args.next().expect("--store requires a directory path"));
            }
            other => panic!(
                "unknown argument `{other}` (expected --corpus <manifest> and optionally \
                 --store <dir>, or no arguments for the figure run)"
            ),
        }
    }

    if let Some(manifest) = corpus {
        let store_dir = store_dir.unwrap_or_else(|| mgc_bench::STORE_DIR.to_string());
        mgc_bench::corpus::run_corpus_and_report(
            std::path::Path::new(&manifest),
            std::path::Path::new(&store_dir),
        );
        return;
    }
    assert!(
        store_dir.is_none(),
        "--store applies to --corpus sweeps; the figure run writes CSVs under results/"
    );

    println!("{}", mgc_bench::table1());
    for spec in [
        mgc_bench::figure4(),
        mgc_bench::figure5(),
        mgc_bench::figure6(),
        mgc_bench::figure7(),
    ] {
        mgc_bench::run_and_report(&spec);
    }
    mgc_bench::run_figure8_and_report();
}
