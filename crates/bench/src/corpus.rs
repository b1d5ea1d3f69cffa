//! The corpus sweep harness: a JSON manifest describing a grid of run
//! points, swept by `sweep --corpus <manifest>` and appended to the
//! results store as one batch.
//!
//! A manifest names the corpus, fixes a workload scale and a heap preset,
//! and lists points; each point selects a program, a backend, one or more
//! vproc counts, and optionally a placement policy, a pause budget, a
//! topology, a repetition count, and whether to verify checksums:
//!
//! ```json
//! {
//!   "corpus_schema_version": 1,
//!   "name": "ci-smoke",
//!   "scale": "tiny",
//!   "heap": "small",
//!   "points": [
//!     {"program": "quicksort", "backend": "threaded", "vprocs": [1, 2]},
//!     {"program": "server", "backend": "threaded", "vprocs": [2],
//!      "pause_budget_us": 500}
//!   ]
//! }
//! ```
//!
//! The manifest is parsed with the store's own JSON parser and versioned
//! the same way the store is: an unrecognised `corpus_schema_version` is
//! rejected with an error naming the field, not silently misread.
//!
//! Every sweep the harness runs is a checked-in manifest under `corpus/`:
//! `bench-baseline.json` (the perf-gate axes: six programs × 1/2/4 vprocs ×
//! both backends), `serve.json` (the Request-Server under open-loop load,
//! simulated, threaded, and threaded under a 500 µs pause budget),
//! `host-smoke.json` (one workload on the probed host topology), and
//! `ci-smoke.json` (the tiny grid the trend report sweeps).

use mgc_heap::HeapConfig;
use mgc_numa::{AllocPolicy, PlacementPolicy, Topology};
use mgc_runtime::{Backend, Experiment, Program, RunRecord};
use mgc_server::{ServeParams, ServerProgram, SERVE_QUANTUM_NS};
use mgc_store::json::{self, JsonValue};
use mgc_store::{RunMeta, Store};
use mgc_workloads::{Scale, Workload};
use std::fmt::Write as _;
use std::path::Path;

/// The manifest format this build reads. Bump when a field changes
/// meaning, so older harnesses reject newer manifests loudly.
pub const CORPUS_SCHEMA_VERSION: u64 = 1;

/// A parsed corpus manifest: the sweep grid `sweep --corpus` runs.
#[derive(Debug, Clone)]
pub struct CorpusManifest {
    /// Corpus name; the appended batch records it as kind `corpus:<name>`.
    pub name: String,
    /// Workload scale preset (`tiny`/`small`/`bench`/`paper`).
    pub scale: String,
    /// Heap preset every point runs with.
    pub heap: CorpusHeap,
    /// The run points, swept in manifest order.
    pub points: Vec<CorpusPoint>,
}

/// One manifest entry: a program crossed with a list of vproc counts under
/// one configuration.
#[derive(Debug, Clone)]
pub struct CorpusPoint {
    /// Program key (`dmm`, `raytracer`, `quicksort`, `barnes-hut`, `smvm`,
    /// `churn`, or `server`).
    pub program: String,
    /// Execution backend.
    pub backend: Backend,
    /// Vproc counts to sweep; one record per count.
    pub vprocs: Vec<usize>,
    /// Promotion-chunk placement policy (default node-local).
    pub placement: PlacementPolicy,
    /// Soft global-collection pause budget in µs, if any.
    pub pause_budget_us: Option<u64>,
    /// `"dual-node-test"` (default) or `"host"` — the machine model.
    pub topology: CorpusTopology,
    /// Wall-clock repetitions per threaded point; the median is kept.
    pub reps: usize,
    /// Whether to verify the program checksum at the first vproc count.
    pub verify: bool,
}

/// Which heap geometry a corpus runs with. The bench-scale manifests measure
/// the default geometry; the tiny CI corpora use the small one so that even
/// a tiny input performs many chunk leases and collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusHeap {
    /// [`HeapConfig::default`]: 256 KiB chunks, 512 KiB local heaps.
    Default,
    /// [`HeapConfig::small_for_tests`]: 4 KiB chunks, 16 KiB local heaps.
    Small,
}

impl CorpusHeap {
    fn build(self) -> HeapConfig {
        match self {
            CorpusHeap::Default => HeapConfig::default(),
            CorpusHeap::Small => HeapConfig::small_for_tests(),
        }
    }
}

/// Which machine a corpus point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusTopology {
    /// The two-node, four-core test topology every CI gate uses.
    DualNodeTest,
    /// The probed topology of the machine running the sweep. Vproc counts
    /// are clamped to the cores the probe found, so a host manifest runs on
    /// any machine.
    Host,
}

impl CorpusTopology {
    fn build(self) -> Topology {
        match self {
            CorpusTopology::DualNodeTest => Topology::dual_node_test(),
            CorpusTopology::Host => Topology::host(),
        }
    }
}

/// Parses a scale preset name as the manifest (and `MGC_SCALE`) spells it.
pub fn scale_from_name(name: &str) -> Result<Scale, String> {
    match name {
        "tiny" => Ok(Scale::tiny()),
        "small" => Ok(Scale::small()),
        "bench" => Ok(Scale::bench()),
        "paper" => Ok(Scale::paper()),
        other => Err(format!(
            "unknown scale \"{other}\" (expected tiny, small, bench, or paper)"
        )),
    }
}

/// Program keys a manifest may name, with the workload each resolves to
/// (`server` is special-cased: it is not a figure workload).
pub(crate) const PROGRAM_KEYS: [(&str, Option<Workload>); 7] = [
    ("dmm", Some(Workload::Dmm)),
    ("raytracer", Some(Workload::Raytracer)),
    ("quicksort", Some(Workload::Quicksort)),
    ("barnes-hut", Some(Workload::BarnesHut)),
    ("smvm", Some(Workload::Smvm)),
    ("churn", Some(Workload::Churn)),
    ("server", None),
];

fn resolve_program(key: &str) -> Result<Option<Workload>, String> {
    PROGRAM_KEYS
        .iter()
        .find(|(name, _)| *name == key)
        .map(|(_, workload)| *workload)
        .ok_or_else(|| {
            let known: Vec<&str> = PROGRAM_KEYS.iter().map(|(name, _)| *name).collect();
            format!(
                "unknown program \"{key}\" (expected one of {})",
                known.join(", ")
            )
        })
}

/// Parses a corpus manifest from its JSON text.
pub fn parse_corpus(text: &str) -> Result<CorpusManifest, String> {
    let value = json::parse(text).map_err(|err| format!("corpus manifest: {err}"))?;
    let JsonValue::Object(fields) = &value else {
        return Err("corpus manifest: expected a JSON object".to_string());
    };
    match value
        .get("corpus_schema_version")
        .and_then(JsonValue::as_u64)
    {
        Some(CORPUS_SCHEMA_VERSION) => {}
        _ => {
            return Err(format!(
                "corpus manifest: field \"corpus_schema_version\" is {}, but this build \
                 reads version {CORPUS_SCHEMA_VERSION}",
                value
                    .get("corpus_schema_version")
                    .map_or("absent".to_string(), |v| format!("{v:?}")),
            ))
        }
    }
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "corpus_schema_version" | "name" | "scale" | "heap" | "points"
        ) {
            return Err(format!("corpus manifest: unknown field \"{key}\""));
        }
    }
    let name = value
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("corpus manifest: missing string field \"name\"")?
        .to_string();
    let scale = value
        .get("scale")
        .and_then(JsonValue::as_str)
        .ok_or("corpus manifest: missing string field \"scale\"")?
        .to_string();
    scale_from_name(&scale)?;
    let heap = match value.get("heap") {
        None => CorpusHeap::Small,
        Some(v) => match v.as_str() {
            Some("small") => CorpusHeap::Small,
            Some("default") => CorpusHeap::Default,
            _ => {
                return Err(format!(
                    "corpus manifest: field \"heap\" is {v:?}, expected \"default\" or \"small\""
                ))
            }
        },
    };
    let points = value
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or("corpus manifest: missing array field \"points\"")?;
    if points.is_empty() {
        return Err("corpus manifest: \"points\" is empty".to_string());
    }
    let points = points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            parse_point(point).map_err(|err| format!("corpus manifest: points[{i}]: {err}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CorpusManifest {
        name,
        scale,
        heap,
        points,
    })
}

fn parse_point(value: &JsonValue) -> Result<CorpusPoint, String> {
    let JsonValue::Object(fields) = value else {
        return Err("expected a JSON object".to_string());
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "program"
                | "backend"
                | "vprocs"
                | "placement"
                | "pause_budget_us"
                | "topology"
                | "reps"
                | "verify"
        ) {
            return Err(format!("unknown field \"{key}\""));
        }
    }
    let program = value
        .get("program")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"program\"")?
        .to_string();
    resolve_program(&program)?;
    let backend = value
        .get("backend")
        .and_then(JsonValue::as_str)
        .unwrap_or("threaded")
        .parse::<Backend>()?;
    let vprocs = value
        .get("vprocs")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field \"vprocs\"")?
        .iter()
        .map(|v| {
            v.as_u64()
                .filter(|n| *n >= 1)
                .map(|n| n as usize)
                .ok_or_else(|| format!("bad vproc count {v:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if vprocs.is_empty() {
        return Err("\"vprocs\" is empty".to_string());
    }
    let placement = match value.get("placement").and_then(JsonValue::as_str) {
        Some(name) => name.parse::<PlacementPolicy>()?,
        None => PlacementPolicy::default(),
    };
    let pause_budget_us = match value.get("pause_budget_us") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            format!("bad \"pause_budget_us\" {v:?} (expected a non-negative integer or null)")
        })?),
    };
    let topology = match value.get("topology").and_then(JsonValue::as_str) {
        None | Some("dual-node-test") => CorpusTopology::DualNodeTest,
        Some("host") => CorpusTopology::Host,
        Some(other) => {
            return Err(format!(
                "unknown topology \"{other}\" (expected dual-node-test or host)"
            ))
        }
    };
    let reps = match value.get("reps") {
        None => 1,
        Some(v) => v
            .as_u64()
            .filter(|n| *n >= 1)
            .map(|n| n as usize)
            .ok_or_else(|| format!("bad \"reps\" {v:?} (expected a positive integer)"))?,
    };
    let verify = match value.get("verify") {
        None => true,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("bad \"verify\" {v:?} (expected true or false)"))?,
    };
    Ok(CorpusPoint {
        program,
        backend,
        vprocs,
        placement,
        pause_budget_us,
        topology,
        reps,
        verify,
    })
}

/// Builds the program of one corpus run. `server` maps to the
/// Request-Server with one worker per vproc; everything else is a figure
/// workload at the manifest scale.
fn point_program(point: &CorpusPoint, scale: Scale, vprocs: usize) -> Box<dyn Program> {
    match resolve_program(&point.program).expect("the manifest was validated at parse time") {
        Some(workload) => workload.program(scale),
        None => {
            let mut params = if scale == Scale::bench() || scale == Scale::paper() {
                ServeParams::bench()
            } else {
                ServeParams::small()
            };
            params.workers = vprocs;
            Box::new(ServerProgram::new(params).expect("the serve presets are valid"))
        }
    }
}

/// Runs one (point, vprocs) cell: `reps` wall-clock repetitions on the
/// threaded backend with the median kept, one run on the deterministic
/// simulated backend. This is the harness's only point runner — manifests
/// and figure 8 both come through here.
pub(crate) fn run_cell(
    point: &CorpusPoint,
    scale: Scale,
    heap: CorpusHeap,
    requested_vprocs: usize,
) -> RunRecord {
    let topology = point.topology.build();
    let vprocs = match point.topology {
        CorpusTopology::Host => requested_vprocs.min(topology.num_cores()),
        CorpusTopology::DualNodeTest => requested_vprocs,
    };
    let run_once = |verify: bool| {
        let mut experiment = Experiment::new(point_program(point, scale, vprocs))
            .backend(point.backend)
            .topology(topology.clone())
            .vprocs(vprocs)
            .policy(AllocPolicy::Local)
            .placement(point.placement)
            .heap(heap.build())
            .verify_checksum(verify);
        if point.program == "server" {
            // The simulated serve quantum must leave room for a worker to
            // start behind the generator on the same vproc.
            experiment = experiment.quantum_ns(SERVE_QUANTUM_NS);
        }
        if let Some(budget) = point.pause_budget_us {
            experiment = experiment.gc_pause_budget(budget);
        }
        experiment
            .run()
            .unwrap_or_else(|err| panic!("corpus point {}/{vprocs}v: {err}", point.program))
    };
    // The expected checksum usually means running a sequential reference of
    // the whole program, so it is verified at the first vproc count only —
    // checksum stability across vproc counts is the equivalence suite's job.
    let verify_first = point.verify && requested_vprocs == point.vprocs[0];
    let first = run_once(verify_first);
    if point.backend != Backend::Threaded || point.reps == 1 {
        return first;
    }
    // Only the first repetition pays for checksum verification; its verdict
    // is carried over to whichever repetition ends up the median.
    let checksum_ok = first.checksum_ok;
    let mut records = vec![first];
    for _ in 1..point.reps {
        records.push(run_once(false));
    }
    records.sort_by(|a, b| {
        a.wall_clock_ns()
            .partial_cmp(&b.wall_clock_ns())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut median = records.swap_remove(point.reps / 2);
    median.checksum_ok = checksum_ok;
    median
}

/// Runs every cell of a manifest, in manifest order.
pub fn run_corpus(manifest: &CorpusManifest) -> Vec<RunRecord> {
    let scale = scale_from_name(&manifest.scale).expect("the manifest was validated");
    let mut records = Vec::new();
    for point in &manifest.points {
        for &vprocs in &point.vprocs {
            records.push(run_cell(point, scale, manifest.heap, vprocs));
        }
    }
    records
}

/// One summary line per corpus record, for the console and the CI job
/// summaries: wall-clock next to simulated time, the GC pause tail next to
/// the request-latency tail.
pub fn format_corpus(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>6} {:>9} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "program",
        "backend",
        "vprocs",
        "budget-us",
        "wall-ms",
        "sim-ms",
        "promoted-B",
        "p99-pause",
        "max-pause",
        "p99-lat",
        "rps",
        "checksum"
    );
    for r in records {
        let ms = |ns: Option<f64>| ns.map_or("n/a".to_string(), |v| format!("{:.3}", v / 1e6));
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>6} {:>9} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10.1} {:>8}",
            r.program,
            r.backend.to_string(),
            r.config.num_vprocs,
            r.config
                .gc
                .pause_budget_us
                .map_or("none".to_string(), |us| us.to_string()),
            ms(r.wall_clock_ns()),
            ms(r.simulated_ns()),
            r.report.total_promoted_bytes(),
            ms(Some(r.report.pause_stats().percentile(99.0))),
            ms(Some(r.report.max_pause_ns())),
            ms(Some(r.report.latency_stats().percentile(99.0))),
            r.report.throughput_rps(),
            match r.checksum_ok {
                Some(true) => "ok",
                Some(false) => "MISMATCH",
                None => "n/a",
            },
        );
    }
    out
}

/// Runs a corpus manifest end-to-end: parse, sweep, print the summary, and
/// append one batch of kind `corpus:<name>` to `store_dir`. Returns the
/// appended batch's sequence number.
pub fn run_corpus_and_report(manifest_path: &Path, store_dir: &Path) -> u64 {
    let text = std::fs::read_to_string(manifest_path)
        .unwrap_or_else(|err| panic!("could not read {}: {err}", manifest_path.display()));
    let manifest =
        parse_corpus(&text).unwrap_or_else(|err| panic!("{}: {err}", manifest_path.display()));
    println!(
        "# Corpus {} — scale {}, {} points",
        manifest.name,
        manifest.scale,
        manifest.points.len()
    );
    let records = run_corpus(&manifest);
    println!("{}", format_corpus(&records));
    let meta = RunMeta::capture(&format!("corpus:{}", manifest.name), &manifest.scale);
    let seq = Store::append(store_dir, &meta, &records)
        .unwrap_or_else(|err| panic!("could not append to {}: {err}", store_dir.display()));
    println!(
        "appended batch {seq} ({} records) to {}",
        records.len(),
        store_dir.display()
    );
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_store::RecordKey;

    fn manifest_json(points: &str) -> String {
        format!(
            "{{\"corpus_schema_version\": 1, \"name\": \"test\", \
             \"scale\": \"tiny\", \"points\": [{points}]}}"
        )
    }

    #[test]
    fn parses_a_full_manifest() {
        let m = parse_corpus(&manifest_json(
            "{\"program\": \"quicksort\", \"backend\": \"threaded\", \"vprocs\": [1, 2], \
             \"placement\": \"interleave\", \"pause_budget_us\": 500, \
             \"topology\": \"host\", \"reps\": 3, \"verify\": false}",
        ))
        .unwrap();
        assert_eq!(m.name, "test");
        assert_eq!(m.scale, "tiny");
        assert_eq!(
            m.heap,
            CorpusHeap::Small,
            "the heap preset defaults to small"
        );
        assert_eq!(m.points.len(), 1);
        let p = &m.points[0];
        assert_eq!(p.program, "quicksort");
        assert_eq!(p.backend, Backend::Threaded);
        assert_eq!(p.vprocs, vec![1, 2]);
        assert_eq!(p.placement, PlacementPolicy::Interleave);
        assert_eq!(p.pause_budget_us, Some(500));
        assert_eq!(p.topology, CorpusTopology::Host);
        assert_eq!(p.reps, 3);
        assert!(!p.verify);
    }

    #[test]
    fn defaults_fill_the_optional_fields() {
        let m = parse_corpus(&manifest_json("{\"program\": \"dmm\", \"vprocs\": [1]}")).unwrap();
        let p = &m.points[0];
        assert_eq!(p.backend, Backend::Threaded);
        assert_eq!(p.placement, PlacementPolicy::default());
        assert_eq!(p.pause_budget_us, None);
        assert_eq!(p.topology, CorpusTopology::DualNodeTest);
        assert_eq!(p.reps, 1);
        assert!(p.verify);
    }

    #[test]
    fn rejects_unknown_versions_programs_and_fields() {
        let future = manifest_json("{\"program\": \"dmm\", \"vprocs\": [1]}").replace(
            "\"corpus_schema_version\": 1",
            "\"corpus_schema_version\": 9",
        );
        let err = parse_corpus(&future).unwrap_err();
        assert!(err.contains("corpus_schema_version"), "{err}");
        assert!(err.contains("reads version 1"), "{err}");

        let err =
            parse_corpus(&manifest_json("{\"program\": \"doom\", \"vprocs\": [1]}")).unwrap_err();
        assert!(err.contains("unknown program \"doom\""), "{err}");
        assert!(err.contains("server"), "the error lists the known keys");

        let err = parse_corpus(&manifest_json(
            "{\"program\": \"dmm\", \"vprocs\": [1], \"warp\": 9}",
        ))
        .unwrap_err();
        assert!(err.contains("unknown field \"warp\""), "{err}");

        let err =
            parse_corpus(&manifest_json("{\"program\": \"dmm\", \"vprocs\": []}")).unwrap_err();
        assert!(err.contains("\"vprocs\" is empty"), "{err}");

        let huge = manifest_json("{\"program\": \"dmm\", \"vprocs\": [1]}")
            .replace("\"scale\"", "\"heap\": \"huge\", \"scale\"");
        let err = parse_corpus(&huge).unwrap_err();
        assert!(err.contains("\"heap\" is Str(\"huge\")"), "{err}");
    }

    /// The key set a manifest expands to, without running it.
    fn manifest_keys(manifest: &CorpusManifest) -> Vec<RecordKey> {
        let mut keys = Vec::new();
        for point in &manifest.points {
            let program = match resolve_program(&point.program).unwrap() {
                Some(workload) => workload.label(),
                None => "Request-Server",
            };
            for &vprocs in &point.vprocs {
                keys.push(RecordKey {
                    program: program.to_string(),
                    backend: point.backend.to_string(),
                    vprocs: vprocs as u64,
                    placement: point.placement.to_string(),
                    pause_budget_us: point.pause_budget_us,
                });
            }
        }
        keys
    }

    /// The three checked-in sweep manifests load, and the two that feed the
    /// perf gate expand to exactly the keys of the baseline store's seed
    /// batches — so a fresh sweep re-measures every gated key and no other.
    #[test]
    fn checked_in_manifests_expand_to_the_seed_batch_keys() {
        let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let load = |name: &str| {
            let text = std::fs::read_to_string(format!("{repo}/corpus/{name}.json")).unwrap();
            parse_corpus(&text).unwrap_or_else(|err| panic!("{name}: {err}"))
        };
        let host = load("host-smoke");
        assert_eq!(host.heap, CorpusHeap::Small);
        assert_eq!(host.points[0].topology, CorpusTopology::Host);

        let store = Store::open(format!("{repo}/results/store")).unwrap();
        for (name, seq, records) in [("bench-baseline", 1, 36), ("serve", 2, 3)] {
            let manifest = load(name);
            assert_eq!(manifest.scale, "bench");
            assert_eq!(manifest.heap, CorpusHeap::Default);
            let sort = |mut keys: Vec<RecordKey>| {
                keys.sort_by_key(|k| k.to_string());
                keys
            };
            let seed = store.batch(seq).expect("the seed batch is checked in");
            let seed_keys: Vec<RecordKey> = seed.records.iter().map(|r| r.record_key()).collect();
            assert_eq!(seed_keys.len(), records);
            assert_eq!(sort(manifest_keys(&manifest)), sort(seed_keys), "{name}");
        }
    }

    #[test]
    fn a_tiny_corpus_runs_and_lands_in_the_store() {
        let dir = std::env::temp_dir().join(format!("mgc-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = parse_corpus(&manifest_json(
            "{\"program\": \"quicksort\", \"backend\": \"simulated\", \"vprocs\": [1, 2]}, \
             {\"program\": \"server\", \"backend\": \"simulated\", \"vprocs\": [2], \
              \"pause_budget_us\": 500}",
        ))
        .unwrap();
        let records = run_corpus(&manifest);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].program, "Quicksort");
        assert_eq!(
            records[0].checksum_ok,
            Some(true),
            "the first cell verifies"
        );
        assert_eq!(records[2].program, "Request-Server");
        assert_eq!(records[2].config.gc.pause_budget_us, Some(500));

        let meta = RunMeta::capture("corpus:test", &manifest.scale);
        let seq = Store::append(&dir, &meta, &records).unwrap();
        let store = Store::open(&dir).unwrap();
        let batch = store.batch(seq).unwrap();
        assert_eq!(batch.meta.kind, "corpus:test");
        assert_eq!(batch.records.len(), 3);
        for (record, stored) in records.iter().zip(batch.records.iter()) {
            assert_eq!(stored.raw(), record.to_json());
        }
        let table = format_corpus(&records);
        assert!(table.contains("Quicksort"));
        assert!(table.contains("Request-Server"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
