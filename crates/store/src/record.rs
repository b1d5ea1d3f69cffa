//! A single stored run result: raw record text plus parsed, typed fields.

use crate::json::{self, JsonValue};
use crate::StoreError;

/// The schema version assumed for records that predate the
/// `schema_version` field; everything the store writes carries
/// [`mgc_runtime::RUN_RECORD_SCHEMA_VERSION`].
pub const LEGACY_RECORD_VERSION: u64 = 1;

/// The identity of a run point across batches: re-running the same point
/// appends a new record with the same key, and
/// [`Query::latest_per_key`](crate::Query::latest_per_key) resolves the
/// newest one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecordKey {
    /// Program name (`"Quicksort"`, `"Request-Server"`, ...).
    pub program: String,
    /// Backend label (`"simulated"` or `"threaded"`).
    pub backend: String,
    /// Number of vprocs the point ran on.
    pub vprocs: u64,
    /// Placement policy label.
    pub placement: String,
    /// GC pause budget in microseconds, `None` when unbudgeted.
    pub pause_budget_us: Option<u64>,
}

impl std::fmt::Display for RecordKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}v/{}",
            self.program, self.backend, self.vprocs, self.placement
        )?;
        match self.pause_budget_us {
            Some(us) => write!(f, "/budget={us}us"),
            None => Ok(()),
        }
    }
}

/// One run record as read from the store: the exact source text it was
/// parsed from, the parsed field tree, and where in the store it came from.
#[derive(Debug, Clone)]
pub struct StoredRecord {
    raw: String,
    fields: JsonValue,
    version: u64,
    batch_seq: u64,
    index: usize,
}

impl StoredRecord {
    /// Parses one record object from its source text. `batch_seq` is the
    /// sequence number of the batch it came from (0 for a record validated
    /// before it is appended) and `index` its position within that batch.
    ///
    /// Rejects records whose `schema_version` is not one this build reads
    /// (absent counts as [`LEGACY_RECORD_VERSION`]) and records missing an
    /// identity field — both with typed errors, so a store poisoned by a
    /// future or foreign writer fails loudly at ingest rather than
    /// producing nonsense diffs later.
    pub fn from_raw(
        raw: &str,
        batch_seq: u64,
        index: usize,
        context: &str,
    ) -> Result<Self, StoreError> {
        let fields = json::parse(raw).map_err(|e| StoreError::Malformed {
            context: context.to_string(),
            message: e.to_string(),
        })?;
        if !matches!(fields, JsonValue::Object(_)) {
            return Err(StoreError::Malformed {
                context: context.to_string(),
                message: "a record must be a JSON object".to_string(),
            });
        }
        let version = match fields.get("schema_version") {
            None => LEGACY_RECORD_VERSION,
            Some(v) => match v.as_u64() {
                Some(n)
                    if (LEGACY_RECORD_VERSION..=mgc_runtime::RUN_RECORD_SCHEMA_VERSION)
                        .contains(&n) =>
                {
                    n
                }
                _ => {
                    return Err(StoreError::UnknownSchemaVersion {
                        field: "schema_version",
                        found: render_found(v),
                        context: context.to_string(),
                    });
                }
            },
        };
        let record = StoredRecord {
            raw: raw.to_string(),
            fields,
            version,
            batch_seq,
            index,
        };
        for field in ["program", "backend", "vprocs"] {
            if record.fields.get(field).is_none() {
                return Err(StoreError::MissingField {
                    field,
                    context: context.to_string(),
                });
            }
        }
        Ok(record)
    }

    /// The exact source text this record was parsed from. Writing this
    /// string back out reproduces the record byte-for-byte.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// The record's `schema_version` ([`LEGACY_RECORD_VERSION`] when the
    /// field is absent).
    pub fn schema_version(&self) -> u64 {
        self.version
    }

    /// Sequence number of the batch this record came from.
    pub fn batch_seq(&self) -> u64 {
        self.batch_seq
    }

    /// Position of this record within its batch.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Raw access to any field of the record.
    pub fn field(&self, key: &str) -> Option<&JsonValue> {
        self.fields.get(key)
    }

    /// A string field; `None` when absent or not a string.
    fn str_field(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(JsonValue::as_str)
    }

    /// An unsigned integer field; `None` when absent, `null`, or not an
    /// integer.
    fn u64_field(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(JsonValue::as_u64)
    }

    /// A numeric field as `f64`; `None` when absent, `null`, or not a
    /// number.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(JsonValue::as_f64)
    }

    /// The program name (validated present at ingest).
    pub fn program(&self) -> &str {
        self.str_field("program").unwrap_or("")
    }

    /// The backend label (validated present at ingest).
    pub fn backend(&self) -> &str {
        self.str_field("backend").unwrap_or("")
    }

    /// The vproc count (validated present at ingest).
    pub fn vprocs(&self) -> u64 {
        self.u64_field("vprocs").unwrap_or(0)
    }

    /// The placement policy label. Records from before placement existed
    /// default to `"node-local"`, the policy those runs actually used.
    pub fn placement(&self) -> &str {
        self.str_field("placement").unwrap_or("node-local")
    }

    /// The GC pause budget in microseconds; `None` when unbudgeted (or on
    /// records from before budgets existed).
    pub fn pause_budget_us(&self) -> Option<u64> {
        self.u64_field("pause_budget_us")
    }

    /// Measured wall-clock nanoseconds; `None` on simulated runs.
    pub fn wall_clock_ns(&self) -> Option<f64> {
        self.f64_field("wall_clock_ns")
    }

    /// Modelled virtual nanoseconds; `None` on threaded runs.
    pub fn simulated_ns(&self) -> Option<f64> {
        self.f64_field("simulated_ns")
    }

    /// Total bytes promoted to the global heap.
    pub fn promoted_bytes(&self) -> Option<u64> {
        self.u64_field("promoted_bytes")
    }

    /// Longest single GC pause in nanoseconds.
    pub fn pause_max_ns(&self) -> Option<f64> {
        self.f64_field("pause_max_ns")
    }

    /// 99th-percentile GC pause in nanoseconds.
    pub fn pause_p99_ns(&self) -> Option<f64> {
        self.f64_field("pause_p99_ns")
    }

    /// 99th-percentile request latency in nanoseconds (0 on runs that
    /// served no requests).
    pub fn latency_p99_ns(&self) -> Option<f64> {
        self.f64_field("latency_p99_ns")
    }

    /// 99.9th-percentile request latency in nanoseconds.
    pub fn latency_p999_ns(&self) -> Option<f64> {
        self.f64_field("latency_p999_ns")
    }

    /// The five-field identity this record is matched across batches by.
    pub fn record_key(&self) -> RecordKey {
        RecordKey {
            program: self.program().to_string(),
            backend: self.backend().to_string(),
            vprocs: self.vprocs(),
            placement: self.placement().to_string(),
            pause_budget_us: self.pause_budget_us(),
        }
    }
}

/// Renders a rejected schema-version value for the error message.
fn render_found(v: &JsonValue) -> String {
    match v {
        JsonValue::Number(raw) => raw.clone(),
        JsonValue::Str(s) => format!("\"{s}\""),
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        _ => "a non-scalar value".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(raw: &str) -> Result<StoredRecord, StoreError> {
        StoredRecord::from_raw(raw, 3, 1, "test input")
    }

    const OK_LINE: &str = "{\"schema_version\": 2, \"program\": \"Quicksort\", \
                           \"backend\": \"threaded\", \"vprocs\": 4, \
                           \"placement\": \"interleave\", \"pause_budget_us\": 500, \
                           \"wall_clock_ns\": 34000000, \"promoted_bytes\": 1024, \
                           \"latency_p99_ns\": 0}";

    #[test]
    fn typed_accessors_read_the_fields() {
        let r = record(OK_LINE).unwrap();
        assert_eq!(r.schema_version(), 2);
        assert_eq!(r.program(), "Quicksort");
        assert_eq!(r.backend(), "threaded");
        assert_eq!(r.vprocs(), 4);
        assert_eq!(r.placement(), "interleave");
        assert_eq!(r.pause_budget_us(), Some(500));
        assert_eq!(r.wall_clock_ns(), Some(34000000.0));
        assert_eq!(r.promoted_bytes(), Some(1024));
        assert_eq!(r.latency_p99_ns(), Some(0.0));
        assert_eq!(r.batch_seq(), 3);
        assert_eq!(r.index(), 1);
        assert_eq!(r.raw(), OK_LINE);
        assert_eq!(
            r.record_key().to_string(),
            "Quicksort/threaded/4v/interleave/budget=500us"
        );
    }

    #[test]
    fn records_without_a_version_are_legacy_v1() {
        let r =
            record("{\"program\": \"SMVM\", \"backend\": \"simulated\", \"vprocs\": 1}").unwrap();
        assert_eq!(r.schema_version(), LEGACY_RECORD_VERSION);
        // Pre-placement records default to the policy they actually ran.
        assert_eq!(r.placement(), "node-local");
        assert_eq!(r.pause_budget_us(), None);
        assert_eq!(r.wall_clock_ns(), None);
    }

    #[test]
    fn unknown_versions_are_a_typed_error_naming_the_field() {
        let err = record(
            "{\"schema_version\": 99, \"program\": \"x\", \
             \"backend\": \"threaded\", \"vprocs\": 1}",
        )
        .unwrap_err();
        match &err {
            StoreError::UnknownSchemaVersion { field, found, .. } => {
                assert_eq!(*field, "schema_version");
                assert_eq!(found, "99");
            }
            other => panic!("expected UnknownSchemaVersion, got {other:?}"),
        }
        assert!(err.to_string().contains("\"schema_version\""), "{err}");
        assert!(err.to_string().contains("99"), "{err}");

        // Non-numeric versions are rejected the same way.
        let err = record(
            "{\"schema_version\": \"v2\", \"program\": \"x\", \
             \"backend\": \"threaded\", \"vprocs\": 1}",
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StoreError::UnknownSchemaVersion {
                field: "schema_version",
                ..
            }
        ));
    }

    #[test]
    fn missing_identity_fields_are_typed_errors() {
        let err = record("{\"schema_version\": 2, \"backend\": \"threaded\", \"vprocs\": 1}")
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::MissingField {
                field: "program",
                ..
            }
        ));
        let err = record("{\"program\": \"x\", \"backend\": \"threaded\"}").unwrap_err();
        assert!(matches!(
            err,
            StoreError::MissingField {
                field: "vprocs",
                ..
            }
        ));
    }

    #[test]
    fn null_wall_clock_reads_as_none() {
        let r = record(
            "{\"program\": \"x\", \"backend\": \"simulated\", \"vprocs\": 2, \
             \"wall_clock_ns\": null, \"simulated_ns\": 123456}",
        )
        .unwrap();
        assert_eq!(r.wall_clock_ns(), None);
        assert_eq!(r.simulated_ns(), Some(123456.0));
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        assert!(matches!(
            record("not json"),
            Err(StoreError::Malformed { .. })
        ));
        assert!(matches!(
            record("[1, 2]"),
            Err(StoreError::Malformed { .. })
        ));
    }
}
