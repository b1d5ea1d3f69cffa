//! The on-disk store: append-only batch files under a store directory.
//!
//! Layout: one file per appended run, `run-000001.json`, `run-000002.json`,
//! ... in claim order. Each file is
//!
//! ```json
//! {
//!   "store_schema_version": 1,
//!   "meta": {"git_rev": "...", "timestamp_unix": 0, "host_nodes": 1,
//!            "host_cores": 1, "scale": "bench", "kind": "bench-baseline"},
//!   "records": [
//!     {"schema_version": 2, "program": "...", ...},
//!     {"schema_version": 2, "program": "...", ...}
//!   ]
//! }
//! ```
//!
//! with the records exactly as [`mgc_runtime::RunRecord::to_json`] emitted
//! them, one per line. Appending never opens an existing file for writing:
//! a writer claims the next sequence number with `O_CREAT|O_EXCL`
//! (`create_new`) and retries on collision, so concurrent sweeps interleave
//! instead of clobbering each other and history is immutable once written.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use mgc_numa::Topology;
use mgc_runtime::RunRecord;

use crate::json::{JsonValue, Parser};
use crate::record::StoredRecord;
use crate::StoreError;

/// Version of the batch-file layout. Independent of the record schema: this
/// guards the header shape, `schema_version` inside each record guards the
/// record fields.
pub const STORE_SCHEMA_VERSION: u64 = 1;

/// Batch files are `run-NNNNNN.json`; anything else in the directory is
/// ignored (editor droppings, `.gitkeep`, future sidecars).
const BATCH_PREFIX: &str = "run-";
const BATCH_SUFFIX: &str = ".json";

/// How many sequence-number collisions [`Store::append`] tolerates before
/// giving up. Collisions require another writer appending at the same
/// instant, so in practice one retry is already rare.
const APPEND_ATTEMPTS: u32 = 1000;

/// Metadata recorded alongside every appended batch: enough to know where
/// a number came from when reading it months later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Git revision the run was built from (`GITHUB_SHA` in CI, `git
    /// rev-parse` locally, `"unknown"` outside a checkout).
    pub git_rev: String,
    /// Seconds since the Unix epoch when the batch was appended.
    pub timestamp_unix: u64,
    /// NUMA nodes probed on the host that ran the sweep.
    pub host_nodes: u64,
    /// Cores probed on the host that ran the sweep.
    pub host_cores: u64,
    /// Scale preset the sweep ran at (`tiny`/`small`/`bench`/`paper`).
    pub scale: String,
    /// What produced the batch (`"bench-baseline"`, `"serve"`,
    /// `"corpus:<name>"`, ...).
    pub kind: String,
}

impl RunMeta {
    /// Captures metadata for a batch appended right now on this host.
    pub fn capture(kind: &str, scale: &str) -> Self {
        let host = Topology::host();
        RunMeta {
            git_rev: current_git_rev(),
            timestamp_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            host_nodes: host.num_nodes() as u64,
            host_cores: host.num_cores() as u64,
            scale: scale.to_string(),
            kind: kind.to_string(),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"timestamp_unix\": {}, \"host_nodes\": {}, \
             \"host_cores\": {}, \"scale\": \"{}\", \"kind\": \"{}\"}}",
            escape(&self.git_rev),
            self.timestamp_unix,
            self.host_nodes,
            self.host_cores,
            escape(&self.scale),
            escape(&self.kind),
        )
    }

    fn from_value(v: &JsonValue) -> Self {
        let string = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        let number = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        RunMeta {
            git_rev: string("git_rev"),
            timestamp_unix: number("timestamp_unix"),
            host_nodes: number("host_nodes"),
            host_cores: number("host_cores"),
            scale: string("scale"),
            kind: string("kind"),
        }
    }
}

/// Best-effort current revision: CI exposes `GITHUB_SHA`; locally ask git;
/// outside a checkout record `"unknown"` rather than failing the sweep.
fn current_git_rev() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Minimal JSON string escape for metadata values (keys are fixed).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One appended run: its sequence number, metadata, and records.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Sequence number from the file name (`run-000003.json` → 3).
    pub seq: u64,
    /// The metadata recorded when the batch was appended.
    pub meta: RunMeta,
    /// The batch's records, in sweep order.
    pub records: Vec<StoredRecord>,
}

/// A store directory opened for reading: every batch, parsed and ordered
/// by sequence number.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    batches: Vec<Batch>,
}

impl Store {
    /// Opens a store directory, reading every `run-*.json` batch in
    /// sequence order. Fails on a missing directory, unreadable files,
    /// malformed batches, and unknown schema versions — a reader must never
    /// silently run against a store it half-understood.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let mut seqs = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        for entry in entries {
            let entry = entry.map_err(|source| StoreError::Io {
                path: dir.clone(),
                source,
            })?;
            if let Some(seq) = batch_seq_of(&entry.file_name().to_string_lossy()) {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        let mut batches = Vec::with_capacity(seqs.len());
        for seq in seqs {
            let path = batch_path(&dir, seq);
            let text = fs::read_to_string(&path).map_err(|source| StoreError::Io {
                path: path.clone(),
                source,
            })?;
            batches.push(parse_batch(&text, seq, &path.display().to_string())?);
        }
        Ok(Store { dir, batches })
    }

    /// The directory this store reads from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All batches, ordered by sequence number.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// The most recently appended batch.
    pub fn latest_batch(&self) -> Option<&Batch> {
        self.batches.last()
    }

    /// The batch with the given sequence number.
    pub fn batch(&self, seq: u64) -> Option<&Batch> {
        self.batches.iter().find(|b| b.seq == seq)
    }

    /// Every record in the store, batches in sequence order, records in
    /// sweep order within each batch.
    pub fn records(&self) -> impl Iterator<Item = &StoredRecord> {
        self.batches.iter().flat_map(|b| b.records.iter())
    }

    /// Total record count across all batches.
    pub fn num_records(&self) -> usize {
        self.batches.iter().map(|b| b.records.len()).sum()
    }

    /// Appends one batch of records to `dir`, creating the directory if
    /// needed, and returns the claimed sequence number. Never modifies an
    /// existing file: the next free sequence number is claimed with
    /// `create_new`, and a collision with a concurrent writer just moves
    /// on to the following number.
    pub fn append(
        dir: impl AsRef<Path>,
        meta: &RunMeta,
        records: &[RunRecord],
    ) -> Result<u64, StoreError> {
        let lines: Vec<String> = records.iter().map(RunRecord::to_json).collect();
        Self::append_lines(dir, meta, &lines)
    }

    /// The raw-text layer under [`Store::append`]: appends records already
    /// serialised as JSON object lines. Each line is validated as a
    /// well-formed record of a supported schema version before anything is
    /// written, so a bad writer cannot poison the store.
    fn append_lines(
        dir: impl AsRef<Path>,
        meta: &RunMeta,
        lines: &[String],
    ) -> Result<u64, StoreError> {
        let dir = dir.as_ref();
        for (i, line) in lines.iter().enumerate() {
            StoredRecord::from_raw(line, 0, i, "record to append")?;
        }
        fs::create_dir_all(dir).map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let body = render_batch(meta, lines);
        for _ in 0..APPEND_ATTEMPTS {
            let seq = next_seq(dir)?;
            let path = batch_path(dir, seq);
            match fs::File::options().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    file.write_all(body.as_bytes())
                        .map_err(|source| StoreError::Io {
                            path: path.clone(),
                            source,
                        })?;
                    return Ok(seq);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(source) => return Err(StoreError::Io { path, source }),
            }
        }
        Err(StoreError::AppendContention {
            dir: dir.to_path_buf(),
            attempts: APPEND_ATTEMPTS,
        })
    }
}

/// Extracts the sequence number from a batch file name
/// (`run-000042.json` → 42).
fn batch_seq_of(name: &str) -> Option<u64> {
    name.strip_prefix(BATCH_PREFIX)?
        .strip_suffix(BATCH_SUFFIX)?
        .parse()
        .ok()
}

fn batch_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{BATCH_PREFIX}{seq:06}{BATCH_SUFFIX}"))
}

/// One past the highest sequence number currently in `dir`.
fn next_seq(dir: &Path) -> Result<u64, StoreError> {
    let entries = fs::read_dir(dir).map_err(|source| StoreError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut max = 0;
    for entry in entries {
        let entry = entry.map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        if let Some(seq) = batch_seq_of(&entry.file_name().to_string_lossy()) {
            max = max.max(seq);
        }
    }
    Ok(max + 1)
}

/// Renders a batch file body (see the module docs for the layout).
fn render_batch(meta: &RunMeta, lines: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"store_schema_version\": {STORE_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"meta\": {},", meta.to_json());
    let _ = writeln!(out, "  \"records\": [");
    for (i, line) in lines.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {line}{}",
            if i + 1 < lines.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// Parses one batch file. Drives the [`Parser`] by hand so each record's
/// exact byte span can be captured — re-serialising parsed JSON would risk
/// drifting from what `RunRecord::to_json` wrote.
fn parse_batch(text: &str, seq: u64, context: &str) -> Result<Batch, StoreError> {
    let malformed = |message: String| StoreError::Malformed {
        context: context.to_string(),
        message,
    };
    let mut p = Parser::new(text);
    p.skip_ws();
    p.expect(b'{').map_err(|e| malformed(e.to_string()))?;
    let mut version: Option<JsonValue> = None;
    let mut meta = None;
    let mut record_spans: Option<Vec<&str>> = None;
    p.skip_ws();
    if !p.eat(b'}') {
        loop {
            p.skip_ws();
            let key = p.parse_string().map_err(|e| malformed(e.to_string()))?;
            p.skip_ws();
            p.expect(b':').map_err(|e| malformed(e.to_string()))?;
            p.skip_ws();
            match key.as_str() {
                "store_schema_version" => {
                    version = Some(p.value().map_err(|e| malformed(e.to_string()))?);
                }
                "meta" => {
                    let v = p.value().map_err(|e| malformed(e.to_string()))?;
                    meta = Some(RunMeta::from_value(&v));
                }
                "records" => {
                    record_spans = Some(record_array_spans(&mut p, context)?);
                }
                // Unknown header keys are skipped: adding one later must
                // not break older readers (the version field guards
                // incompatible changes).
                _ => {
                    p.value().map_err(|e| malformed(e.to_string()))?;
                }
            }
            p.skip_ws();
            if p.eat(b',') {
                continue;
            }
            p.expect(b'}').map_err(|e| malformed(e.to_string()))?;
            break;
        }
    }
    match version.as_ref().and_then(JsonValue::as_u64) {
        Some(STORE_SCHEMA_VERSION) => {}
        _ => {
            return Err(StoreError::UnknownSchemaVersion {
                field: "store_schema_version",
                found: version
                    .map(|v| match v {
                        JsonValue::Number(raw) => raw,
                        other => format!("{other:?}"),
                    })
                    .unwrap_or_else(|| "absent".to_string()),
                context: context.to_string(),
            });
        }
    }
    let meta = meta.ok_or_else(|| malformed("batch has no \"meta\" header".to_string()))?;
    let records = record_spans
        .ok_or_else(|| malformed("batch has no \"records\" array".to_string()))?
        .into_iter()
        .enumerate()
        .map(|(i, raw)| StoredRecord::from_raw(raw, seq, i, context))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Batch { seq, meta, records })
}

/// Parses a JSON array whose elements are returned as raw byte spans of
/// the input (the elements are validated by parsing, but the returned text
/// is the verbatim source).
fn record_array_spans<'a>(p: &mut Parser<'a>, context: &str) -> Result<Vec<&'a str>, StoreError> {
    let malformed = |message: String| StoreError::Malformed {
        context: context.to_string(),
        message,
    };
    p.expect(b'[').map_err(|e| malformed(e.to_string()))?;
    let mut spans = Vec::new();
    p.skip_ws();
    if p.eat(b']') {
        return Ok(spans);
    }
    loop {
        p.skip_ws();
        let start = p.pos();
        p.value().map_err(|e| malformed(e.to_string()))?;
        spans.push(p.slice(start, p.pos()));
        p.skip_ws();
        if p.eat(b',') {
            continue;
        }
        p.expect(b']').map_err(|e| malformed(e.to_string()))?;
        return Ok(spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(program: &str, vprocs: u64, wall: u64) -> String {
        format!(
            "{{\"schema_version\": 2, \"program\": \"{program}\", \
             \"backend\": \"threaded\", \"vprocs\": {vprocs}, \
             \"placement\": \"node-local\", \"pause_budget_us\": null, \
             \"wall_clock_ns\": {wall}, \"promoted_bytes\": 4096}}"
        )
    }

    fn meta() -> RunMeta {
        RunMeta {
            git_rev: "abc123def456".to_string(),
            timestamp_unix: 1754500000,
            host_nodes: 2,
            host_cores: 8,
            scale: "bench".to_string(),
            kind: "test".to_string(),
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mgc-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_open_round_trips_records_byte_for_byte() {
        let dir = tempdir("roundtrip");
        let lines = vec![
            line("Quicksort", 1, 90000000),
            line("Quicksort", 4, 34000000),
        ];
        let seq = Store::append_lines(&dir, &meta(), &lines).unwrap();
        assert_eq!(seq, 1);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.num_records(), 2);
        let batch = store.latest_batch().unwrap();
        assert_eq!(batch.seq, 1);
        assert_eq!(batch.meta, meta());
        let raws: Vec<&str> = batch.records.iter().map(|r| r.raw()).collect();
        assert_eq!(raws, lines.iter().map(String::as_str).collect::<Vec<_>>());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_never_rewrite_existing_batches() {
        let dir = tempdir("appendonly");
        let first = vec![line("SMVM", 1, 24000000)];
        Store::append_lines(&dir, &meta(), &first).unwrap();
        let first_body = fs::read_to_string(batch_path(&dir, 1)).unwrap();

        let second = vec![line("SMVM", 1, 23000000)];
        let seq = Store::append_lines(&dir, &meta(), &second).unwrap();
        assert_eq!(seq, 2);
        assert_eq!(
            fs::read_to_string(batch_path(&dir, 1)).unwrap(),
            first_body,
            "an append must never touch an existing batch"
        );

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.batches().len(), 2);
        assert_eq!(
            store.batches()[1].records[0].wall_clock_ns(),
            Some(23000000.0)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_all_land_without_clobbering() {
        let dir = tempdir("concurrent");
        fs::create_dir_all(&dir).unwrap();
        const WRITERS: usize = 8;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let dir = dir.clone();
                scope.spawn(move || {
                    let lines = vec![line("Barnes-Hut", w as u64 + 1, 50000000)];
                    Store::append_lines(&dir, &meta(), &lines).unwrap();
                });
            }
        });
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.batches().len(), WRITERS, "every writer landed");
        let seqs: Vec<u64> = store.batches().iter().map(|b| b.seq).collect();
        assert_eq!(seqs, (1..=WRITERS as u64).collect::<Vec<_>>());
        // Each writer's record survived intact — nothing was clobbered.
        let mut vprocs: Vec<u64> = store.records().map(|r| r.vprocs()).collect();
        vprocs.sort_unstable();
        assert_eq!(vprocs, (1..=WRITERS as u64).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_records_are_rejected_before_anything_is_written() {
        let dir = tempdir("validate");
        let err = Store::append_lines(
            &dir,
            &meta(),
            &[
                "{\"schema_version\": 7, \"program\": \"x\", \"backend\": \"threaded\", \
               \"vprocs\": 1}"
                    .to_string(),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::UnknownSchemaVersion { .. }));
        assert!(!dir.exists() || fs::read_dir(&dir).unwrap().next().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_store_schema_version_is_a_typed_error() {
        let dir = tempdir("storever");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            batch_path(&dir, 1),
            "{\"store_schema_version\": 9, \"meta\": {}, \"records\": []}",
        )
        .unwrap();
        let err = Store::open(&dir).unwrap_err();
        match &err {
            StoreError::UnknownSchemaVersion { field, found, .. } => {
                assert_eq!(*field, "store_schema_version");
                assert_eq!(found, "9");
            }
            other => panic!("expected UnknownSchemaVersion, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_a_missing_directory_is_an_io_error() {
        let err = Store::open(tempdir("missing")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }

    #[test]
    fn non_batch_files_are_ignored() {
        let dir = tempdir("ignore");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(".gitkeep"), "").unwrap();
        fs::write(dir.join("notes.txt"), "scribble").unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.batches().is_empty());
        assert_eq!(
            Store::append_lines(&dir, &meta(), &[line("DMM", 1, 1)]).unwrap(),
            1
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_seq_parsing_is_strict() {
        assert_eq!(batch_seq_of("run-000042.json"), Some(42));
        assert_eq!(batch_seq_of("run-1.json"), Some(1));
        assert_eq!(batch_seq_of("run-.json"), None);
        assert_eq!(batch_seq_of("run-abc.json"), None);
        assert_eq!(batch_seq_of("other.json"), None);
        assert_eq!(batch_seq_of("run-000001.json.bak"), None);
    }
}
