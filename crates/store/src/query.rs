//! The typed query API: how readers of the store select records.

use crate::record::{RecordKey, StoredRecord};
use crate::store::Store;

/// A typed filter over stored records, built up fluently:
///
/// ```
/// use mgc_store::Query;
/// let q = Query::new()
///     .program("Quicksort")
///     .backend("threaded")
///     .vprocs(4);
/// # let _ = q;
/// ```
///
/// Every field left unset matches everything. [`Query::run`] returns the
/// matches in store order; [`Query::latest_per_key`] collapses them to the
/// newest record per run-point key.
#[derive(Debug, Clone, Default)]
pub struct Query {
    program: Option<String>,
    backend: Option<String>,
    vprocs: Option<u64>,
    placement: Option<String>,
}

impl Query {
    /// A query matching every record.
    pub fn new() -> Self {
        Query::default()
    }

    /// Keep only records of this program.
    pub fn program(mut self, name: impl Into<String>) -> Self {
        self.program = Some(name.into());
        self
    }

    /// Keep only records from this backend (`"simulated"`/`"threaded"`).
    pub fn backend(mut self, backend: impl Into<String>) -> Self {
        self.backend = Some(backend.into());
        self
    }

    /// Keep only records that ran on this many vprocs.
    pub fn vprocs(mut self, vprocs: u64) -> Self {
        self.vprocs = Some(vprocs);
        self
    }

    /// Keep only records under this placement policy.
    pub fn placement(mut self, placement: impl Into<String>) -> Self {
        self.placement = Some(placement.into());
        self
    }

    /// Whether one record passes every set filter.
    pub fn matches(&self, record: &StoredRecord) -> bool {
        if let Some(p) = &self.program {
            if record.program() != p {
                return false;
            }
        }
        if let Some(b) = &self.backend {
            if record.backend() != b {
                return false;
            }
        }
        if let Some(v) = self.vprocs {
            if record.vprocs() != v {
                return false;
            }
        }
        if let Some(pl) = &self.placement {
            if record.placement() != pl {
                return false;
            }
        }
        true
    }

    /// All matching records in a store, in store order (batches by
    /// sequence number, sweep order within a batch).
    pub fn run<'a>(&self, store: &'a Store) -> Vec<&'a StoredRecord> {
        self.run_over(store.records())
    }

    /// All matching records from any record iterator (a single batch, a
    /// previous query's result, ...), preserving the input order.
    fn run_over<'a>(
        &self,
        records: impl IntoIterator<Item = &'a StoredRecord>,
    ) -> Vec<&'a StoredRecord> {
        records.into_iter().filter(|r| self.matches(r)).collect()
    }

    /// The newest matching record for each run-point key: later batches
    /// shadow earlier ones (and later records shadow earlier ones within a
    /// batch), so re-running a sweep updates the comparison set without
    /// rewriting history. Keys keep first-seen order.
    pub fn latest_per_key<'a>(&self, store: &'a Store) -> Vec<&'a StoredRecord> {
        self.latest_per_key_over(store.records())
    }

    /// [`Query::latest_per_key`] over any record iterator (the input must
    /// be ordered oldest-first, as [`Store::records`] is).
    fn latest_per_key_over<'a>(
        &self,
        records: impl IntoIterator<Item = &'a StoredRecord>,
    ) -> Vec<&'a StoredRecord> {
        let mut keys: Vec<RecordKey> = Vec::new();
        let mut latest: Vec<&'a StoredRecord> = Vec::new();
        for record in records {
            if !self.matches(record) {
                continue;
            }
            let key = record.record_key();
            match keys.iter().position(|k| *k == key) {
                Some(i) => latest[i] = record,
                None => {
                    keys.push(key);
                    latest.push(record);
                }
            }
        }
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        program: &str,
        backend: &str,
        vprocs: u64,
        budget: Option<u64>,
        wall: u64,
        seq: u64,
    ) -> StoredRecord {
        let budget = match budget {
            Some(us) => us.to_string(),
            None => "null".to_string(),
        };
        StoredRecord::from_raw(
            &format!(
                "{{\"schema_version\": 2, \"program\": \"{program}\", \
                 \"backend\": \"{backend}\", \"vprocs\": {vprocs}, \
                 \"placement\": \"node-local\", \"pause_budget_us\": {budget}, \
                 \"wall_clock_ns\": {wall}, \"promoted_bytes\": {}}}",
                wall / 1000
            ),
            seq,
            0,
            "query test",
        )
        .unwrap()
    }

    #[test]
    fn filters_compose() {
        let records = vec![
            record("Quicksort", "threaded", 1, None, 90, 1),
            record("Quicksort", "threaded", 4, None, 34, 1),
            record("Quicksort", "simulated", 4, None, 34, 1),
            record("SMVM", "threaded", 4, None, 24, 1),
            record("Quicksort", "threaded", 4, Some(500), 36, 1),
        ];
        let q = Query::new().program("Quicksort").backend("threaded");
        assert_eq!(q.run_over(&records).len(), 3);
        let four = q.vprocs(4).run_over(&records);
        assert_eq!(four.len(), 2);
        // Input order is kept: the unbudgeted record, then the budgeted one.
        assert_eq!(four[0].wall_clock_ns(), Some(34.0));
        assert_eq!(four[1].wall_clock_ns(), Some(36.0));
        assert_eq!(Query::new().run_over(&records).len(), 5);
    }

    #[test]
    fn latest_per_key_prefers_newer_batches_and_keeps_order() {
        let records = vec![
            record("DMM", "threaded", 1, None, 100, 1),
            record("SMVM", "threaded", 1, None, 50, 1),
            record("DMM", "threaded", 1, None, 90, 2),
            record("DMM", "threaded", 4, None, 40, 2),
        ];
        let latest = Query::new().latest_per_key_over(&records);
        assert_eq!(latest.len(), 3);
        // First-seen key order: DMM/1v, SMVM/1v, DMM/4v.
        assert_eq!(latest[0].program(), "DMM");
        assert_eq!(
            latest[0].wall_clock_ns(),
            Some(90.0),
            "batch 2 shadows batch 1"
        );
        assert_eq!(latest[1].program(), "SMVM");
        assert_eq!(latest[2].vprocs(), 4);
    }
}
