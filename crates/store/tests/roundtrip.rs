//! End-to-end round-trip: a real `RunRecord` appended to a store, read
//! back through a query, and compared byte-for-byte against what
//! `RunRecord::to_json` emitted.

use std::fs;
use std::path::PathBuf;

use mgc_heap::i64_to_word;
use mgc_runtime::{
    EnvOverrides, Executor, Experiment, Program, RunRecord, TaskResult, TaskSpec,
    RUN_RECORD_SCHEMA_VERSION,
};
use mgc_store::json::{self, JsonValue};
use mgc_store::{Query, RunMeta, Store};

/// A minimal program: one root task returning a constant.
struct Constant(i64);

impl Program for Constant {
    fn name(&self) -> &str {
        "constant"
    }

    fn spawn(&self, executor: &mut dyn Executor) {
        let value = self.0;
        executor.spawn_root(TaskSpec::new("constant", move |ctx| {
            ctx.work(10);
            TaskResult::Value(i64_to_word(value))
        }));
    }

    fn params_json(&self) -> String {
        format!("{{\"value\": {}}}", self.0)
    }
}

fn run_record(value: i64, vprocs: usize) -> RunRecord {
    Experiment::new(Constant(value))
        .env_overrides(EnvOverrides::default())
        .vprocs(vprocs)
        .run()
        .expect("the configuration is valid")
}

/// The checked-in store: two seed batches written at record schema version 2.
fn seed_store() -> Store {
    Store::open(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/store"))
        .expect("the seed store opens")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mgc-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn run_record_to_store_to_query_is_byte_identical() {
    let dir = tempdir("roundtrip");
    let records = [run_record(5, 1), run_record(7, 2)];
    let meta = RunMeta::capture("integration-test", "tiny");
    let seq = Store::append(&dir, &meta, &records).expect("append succeeds");
    assert_eq!(seq, 1);

    let store = Store::open(&dir).expect("the store opens");
    assert_eq!(store.num_records(), 2);

    // Every stored record is the exact text to_json produced.
    for (record, stored) in records.iter().zip(store.records()) {
        assert_eq!(stored.raw(), record.to_json());
        assert_eq!(stored.schema_version(), RUN_RECORD_SCHEMA_VERSION);
    }

    // And the typed query finds it again with the typed fields intact.
    let matches = Query::new()
        .program("constant")
        .backend("simulated")
        .vprocs(2)
        .run(&store);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].raw(), records[1].to_json());
    assert_eq!(matches[0].simulated_ns(), records[1].simulated_ns());

    // The batch meta survives too.
    let batch = store.latest_batch().expect("one batch");
    assert_eq!(batch.meta, meta);
    assert_eq!(batch.meta.kind, "integration-test");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn latest_per_key_resolves_re_runs_across_batches() {
    let dir = tempdir("latest");
    let first = [run_record(5, 1)];
    let second = [run_record(9, 1)];
    Store::append(&dir, &RunMeta::capture("first", "tiny"), &first).unwrap();
    Store::append(&dir, &RunMeta::capture("second", "tiny"), &second).unwrap();

    let store = Store::open(&dir).unwrap();
    assert_eq!(store.batches().len(), 2);
    let latest = Query::new().program("constant").latest_per_key(&store);
    assert_eq!(latest.len(), 1, "both runs share one key");
    assert_eq!(
        latest[0].raw(),
        second[0].to_json(),
        "the newer batch shadows the older one"
    );
    assert_eq!(latest[0].batch_seq(), 2);

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checked_in_version_two_seed_batches_still_open() {
    let store = seed_store();
    for (seq, records) in [(1, 36), (2, 3)] {
        let batch = store.batch(seq).expect("the seed batch is checked in");
        assert_eq!(batch.records.len(), records);
        assert!(batch.records.iter().all(|r| r.schema_version() == 2));
    }
}

/// Version 3 only removed keys: a fresh record's keys are a version-2 seed
/// record's minus the three placement telemetry keys (the adaptive switch
/// count, its decision trail and the per-vproc thread binding).
#[test]
fn a_version_three_record_drops_three_placement_keys_and_adds_none() {
    let keys = |raw: &str| match json::parse(raw).expect("records are JSON") {
        JsonValue::Object(fields) => fields.into_iter().map(|(key, _)| key).collect::<Vec<_>>(),
        other => panic!("a record is an object, not {other:?}"),
    };
    let v2 = keys(seed_store().batch(1).unwrap().records[0].raw());
    let v3 = keys(&run_record(5, 1).to_json());
    assert!(v3.iter().all(|key| v2.contains(key)), "{v3:?} adds a key");
    let dropped: Vec<&String> = v2.iter().filter(|key| !v3.contains(key)).collect();
    assert_eq!(dropped.len(), 3, "{dropped:?}");
    assert!(
        dropped
            .iter()
            .all(|key| key.starts_with("placement_") || key.starts_with("node_")),
        "{dropped:?}"
    );
}
