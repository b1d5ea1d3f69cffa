//! The queryable results store behind the bench harness and the CI perf
//! gates.
//!
//! Every sweep — the checked-in baselines, `sweep --corpus`, the CI
//! perf-gate runs — appends one **batch** to a store directory
//! (`results/store/` by default). A batch is a single JSON file holding the
//! run's metadata (git revision, timestamp, host topology, scale, what kind
//! of sweep it was) and the full [`RunRecord`](mgc_runtime::RunRecord)
//! payload of every point in the run, one record per line, byte-for-byte as
//! [`RunRecord::to_json`](mgc_runtime::RunRecord::to_json) emitted it.
//!
//! Three properties the rest of the tree leans on:
//!
//! * **Append-only.** [`Store::append`] claims the next sequence number
//!   with `O_CREAT|O_EXCL` and never rewrites an existing file, so
//!   concurrent writers interleave instead of clobbering and history is
//!   never edited in place.
//! * **Schema-versioned.** Batch headers carry
//!   [`STORE_SCHEMA_VERSION`] and every record
//!   carries the runtime's
//!   [`RUN_RECORD_SCHEMA_VERSION`](mgc_runtime::RUN_RECORD_SCHEMA_VERSION);
//!   ingest rejects versions it does not understand with a typed error
//!   naming the offending field instead of silently misreading the data.
//! * **Raw fidelity.** A [`StoredRecord`] keeps the exact source text of
//!   its record object alongside the parsed fields, so round-tripping a
//!   record through the store is byte-identical.
//!
//! Reading happens through [`Query`]: a typed filter builder
//! (`Query::new().program("Quicksort").backend("threaded").vprocs(4)`)
//! that yields matched records, the latest record per run-point key, or
//! cross-run [`diff`] rows. `perfdiff` and the `trend` report are both
//! built on it; nothing in the tree parses result JSON by hand anymore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod query;
pub mod record;
pub mod store;

pub use json::{JsonError, JsonValue};
pub use query::{diff, DiffRow, Query};
pub use record::{RecordKey, StoredRecord, LEGACY_RECORD_VERSION};
pub use store::{Batch, RunMeta, Store, STORE_SCHEMA_VERSION};

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong opening, appending to, or ingesting into
/// the store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure reading or writing under the store directory.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A batch file or record was not valid JSON or not the shape the
    /// store expects.
    Malformed {
        /// Where the bad input came from (file path or a description).
        context: String,
        /// What the parser objected to.
        message: String,
    },
    /// A schema-version field carried a value this build does not read.
    /// `field` names the offending field — `"schema_version"` on a record,
    /// `"store_schema_version"` on a batch header.
    UnknownSchemaVersion {
        /// The schema-version field that was rejected.
        field: &'static str,
        /// The value found, as source text (may be non-numeric).
        found: String,
        /// Where the rejected value came from.
        context: String,
    },
    /// A record is missing one of the identity fields every version of the
    /// schema requires (`program`, `backend`, `vprocs`).
    MissingField {
        /// The absent field.
        field: &'static str,
        /// Where the incomplete record came from.
        context: String,
    },
    /// The append loop lost the race for a fresh sequence number too many
    /// times in a row.
    AppendContention {
        /// The store directory being appended to.
        dir: PathBuf,
        /// How many sequence numbers were tried.
        attempts: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            StoreError::Malformed { context, message } => {
                write!(f, "{context}: {message}")
            }
            StoreError::UnknownSchemaVersion {
                field,
                found,
                context,
            } => {
                let newest = if *field == "store_schema_version" {
                    STORE_SCHEMA_VERSION
                } else {
                    mgc_runtime::RUN_RECORD_SCHEMA_VERSION
                };
                write!(
                    f,
                    "{context}: field \"{field}\" is {found}, but this build \
                     reads versions {LEGACY_RECORD_VERSION}..={newest}"
                )
            }
            StoreError::MissingField { field, context } => {
                write!(f, "{context}: record is missing \"{field}\"")
            }
            StoreError::AppendContention { dir, attempts } => {
                write!(
                    f,
                    "{}: could not claim a batch sequence number after {attempts} attempts",
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
