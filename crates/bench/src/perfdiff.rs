//! The CI perf gate: one checked-in gate table
//! (`results/baseline/gates.json`) evaluated over two results-store
//! directories — the baseline and the sweep under test — by one loop.
//!
//! Both sides are read through [`Store::open`] and
//! [`Query::latest_per_key`], so a record is identified by its
//! `(program, backend, vprocs, placement, pause_budget_us)` key and a
//! re-measured key shadows its older batches. CI sweeps into a scratch store
//! directory, so "current" holds only what that run measured and a program
//! that stopped producing points is reported, not silently shadowed by a
//! checked-in seed.
//!
//! Each gate names a record **metric**, a **key filter** (program and/or
//! backend), a **bound**, and one of three **comparisons**:
//!
//! * `ratio-to-baseline-with-floor` — for every baseline record the filter
//!   selects, the current record with the same key must exist and keep
//!   `max(current, floor) / max(baseline, floor)` at or under the bound.
//!   The floor is the noise allowance: sub-floor points are scheduler jitter
//!   (wall clock) or steal-timing nondeterminism (promoted bytes).
//! * `absolute-max` — every current record the filter selects must carry
//!   the metric and keep it at or under the bound. A regression is a
//!   regression even if the baseline already had it.
//! * `speedup-min` — per (program, placement, budget) group of current
//!   records the filter selects, the metric at 1 vproc divided by the metric
//!   at the highest vproc count must reach the bound. Current sweep only: a
//!   baseline recorded on a machine with a different core count says
//!   nothing about scaling here. Nor does a current batch recorded on fewer
//!   cores than the row's vprocs: such a row is `UNRESOLVED` — neither `ok`
//!   nor a failure — whatever ratio it shows.
//!
//! Nothing passes by absence: a baseline key with no current record, a
//! selected record without the metric, and a pinning gate whose filter
//! selects no current record at all each produce a failing row.
//!
//! The report renders as Markdown so the CI job can tee it straight into
//! `$GITHUB_STEP_SUMMARY`.

use std::fmt::Write as _;
use std::path::Path;

use mgc_store::json::{self, JsonValue};
use mgc_store::{Query, RecordKey, Store, StoredRecord};

/// The gate-table format this build reads.
pub const GATES_SCHEMA_VERSION: u64 = 1;

/// Record fields a gate may name as its metric.
const METRICS: [&str; 7] = [
    "wall_clock_ns",
    "simulated_ns",
    "promoted_bytes",
    "pause_max_ns",
    "pause_p99_ns",
    "latency_p99_ns",
    "latency_p999_ns",
];

/// How a gate turns records into a gated value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Comparison {
    /// `ratio-to-baseline-with-floor`: both sides are padded up to `floor`
    /// before the `current / baseline` ratio is taken.
    RatioToBaseline {
        /// The noise floor, in the metric's own unit.
        floor: f64,
    },
    /// `absolute-max`: the current value itself is the gated quantity.
    AbsoluteMax,
    /// `speedup-min`: 1-vproc value over highest-vproc value.
    SpeedupMin,
}

/// One entry of the gate table.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Gate name; entries sharing a name render as one table.
    pub name: String,
    /// The record field the gate reads (one of the store's typed metrics).
    pub metric: String,
    /// Key filter: only records of this program are selected (`None`: all).
    pub program: Option<String>,
    /// Key filter: only records of this backend are selected (`None`: all).
    pub backend: Option<String>,
    /// How the gated value is computed.
    pub comparison: Comparison,
    /// The bound: a maximum for the ratio and absolute comparisons, a
    /// minimum for speedup.
    pub bound: f64,
}

impl Gate {
    fn selects(&self, record: &StoredRecord) -> bool {
        self.program
            .as_deref()
            .is_none_or(|p| p == record.program())
            && self
                .backend
                .as_deref()
                .is_none_or(|b| b == record.backend())
    }

    fn value(&self, record: &StoredRecord) -> Option<f64> {
        record.f64_field(&self.metric)
    }

    /// The filter as a point label, for rows that have no record to name.
    fn filter_label(&self) -> String {
        format!(
            "{}/{}/*",
            self.program.as_deref().unwrap_or("*"),
            self.backend.as_deref().unwrap_or("*")
        )
    }
}

/// Rejects fields of `value` outside `known`, naming the stray one.
fn reject_unknown_fields(value: &JsonValue, known: &[&str], context: &str) -> Result<(), String> {
    let JsonValue::Object(fields) = value else {
        return Err(format!("{context}: expected a JSON object"));
    };
    match fields
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(format!("{context}: unknown field \"{key}\"")),
        None => Ok(()),
    }
}

/// Parses the gate table from its JSON text. An unknown
/// `gates_schema_version`, comparison, metric, or field is rejected with an
/// error naming it — a gate the build half-understands must not run.
pub fn parse_gates(text: &str) -> Result<Vec<Gate>, String> {
    let value = json::parse(text).map_err(|err| format!("gate table: {err}"))?;
    reject_unknown_fields(&value, &["gates_schema_version", "gates"], "gate table")?;
    match value
        .get("gates_schema_version")
        .and_then(JsonValue::as_u64)
    {
        Some(GATES_SCHEMA_VERSION) => {}
        _ => {
            return Err(format!(
                "gate table: field \"gates_schema_version\" is {}, but this build reads \
                 version {GATES_SCHEMA_VERSION}",
                value
                    .get("gates_schema_version")
                    .map_or("absent".to_string(), |v| format!("{v:?}")),
            ))
        }
    }
    value
        .get("gates")
        .and_then(JsonValue::as_array)
        .ok_or("gate table: missing array field \"gates\"")?
        .iter()
        .enumerate()
        .map(|(i, gate)| parse_gate(gate).map_err(|err| format!("gate table: gates[{i}]: {err}")))
        .collect()
}

fn parse_gate(value: &JsonValue) -> Result<Gate, String> {
    reject_unknown_fields(
        value,
        &["name", "metric", "filter", "comparison", "bound", "floor"],
        "gate",
    )?;
    let string = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string field \"{key}\""))
    };
    let number = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_f64)
            .filter(|n| n.is_finite() && *n > 0.0)
            .ok_or_else(|| format!("field \"{key}\" must be a positive number"))
    };
    let metric = string("metric")?;
    if !METRICS.contains(&metric) {
        return Err(format!(
            "field \"metric\" is \"{metric}\", expected one of {}",
            METRICS.join(", ")
        ));
    }
    let comparison = match string("comparison")? {
        "ratio-to-baseline-with-floor" => Comparison::RatioToBaseline {
            floor: number("floor")?,
        },
        "absolute-max" => Comparison::AbsoluteMax,
        "speedup-min" => Comparison::SpeedupMin,
        other => {
            return Err(format!(
                "field \"comparison\" is \"{other}\", expected \
                 ratio-to-baseline-with-floor, absolute-max, or speedup-min"
            ))
        }
    };
    if value.get("floor").is_some() && !matches!(comparison, Comparison::RatioToBaseline { .. }) {
        return Err("field \"floor\" only applies to ratio-to-baseline-with-floor".to_string());
    }
    let filter = value
        .get("filter")
        .ok_or("missing object field \"filter\"")?;
    reject_unknown_fields(filter, &["program", "backend"], "filter")?;
    let filter_field = |key: &str| match filter.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("filter field \"{key}\" must be a string")),
    };
    Ok(Gate {
        name: string("name")?.to_string(),
        metric: metric.to_string(),
        program: filter_field("program")?,
        backend: filter_field("backend")?,
        comparison,
        bound: number("bound")?,
    })
}

/// Verdict for one row of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// The gated value is on the wrong side of the bound.
    Regression,
    /// The record exists but the gated value cannot be computed from it: it
    /// carries no such metric, or (speedup) lacks the 1-vproc or a
    /// multi-vproc point.
    Unmeasured,
    /// No current record: a baseline key the sweep did not re-measure, or a
    /// pinning gate whose filter selects nothing in the sweep.
    Missing,
    /// A speed-up measured on a host with fewer cores than the row's vprocs:
    /// the ratio cannot show scaling, so it is neither [`Verdict::Ok`] nor a
    /// failure.
    Unresolved {
        /// Cores of the host that recorded the row's batch.
        host_cores: u64,
    },
}

/// One row of the report: one gate applied to one run point.
#[derive(Debug, Clone)]
pub struct Row<'g> {
    /// The gate that produced the row.
    pub gate: &'g Gate,
    /// The run point (for speedup, the highest-vproc one); `None` on the
    /// row of a pinning gate whose filter selected no current record.
    pub key: Option<RecordKey>,
    /// What the measurement is held against: the baseline's value (ratio),
    /// the sweep's own 1-vproc value (speedup), nothing (absolute).
    pub reference: Option<f64>,
    /// The current sweep's value of the metric.
    pub measured: Option<f64>,
    /// The gated quantity: the padded ratio, the value itself, or the
    /// speedup.
    pub value: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

impl<'g> Row<'g> {
    /// A row with nothing measured yet: verdict [`Verdict::Missing`] until
    /// [`Row::judged`] says otherwise.
    fn new(gate: &'g Gate, key: Option<RecordKey>) -> Self {
        Row {
            gate,
            key,
            reference: None,
            measured: None,
            value: None,
            verdict: Verdict::Missing,
        }
    }

    /// Sets the gated value and derives the verdict from the gate's bound.
    fn judged(mut self, value: Option<f64>) -> Self {
        self.value = value;
        self.verdict = match (value, self.gate.comparison) {
            (None, _) => Verdict::Unmeasured,
            (Some(v), Comparison::SpeedupMin) if v < self.gate.bound => Verdict::Regression,
            (Some(v), Comparison::RatioToBaseline { .. } | Comparison::AbsoluteMax)
                if v > self.gate.bound =>
            {
                Verdict::Regression
            }
            _ => Verdict::Ok,
        };
        self
    }
}

/// The whole evaluation: every gate's rows, in gate-table order.
#[derive(Debug, Clone)]
pub struct Report<'g> {
    /// One row per (gate, run point).
    pub rows: Vec<Row<'g>>,
    /// Current keys with no baseline counterpart (new programs or axes —
    /// informational, never a failure).
    pub new_points: Vec<RecordKey>,
}

impl<'g> Report<'g> {
    /// The rows that fail the gate (an unresolved row neither passes nor
    /// fails).
    pub fn failures(&self) -> impl Iterator<Item = &Row<'g>> {
        self.rows
            .iter()
            .filter(|r| !matches!(r.verdict, Verdict::Ok | Verdict::Unresolved { .. }))
    }

    /// The speed-up rows recorded on too few cores to judge.
    pub fn unresolved(&self) -> impl Iterator<Item = &Row<'g>> {
        self.rows
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Unresolved { .. }))
    }
}

/// Evaluates every gate over the two record sets (each the latest record
/// per key of its store). `host_cores` maps a current record's batch
/// sequence number to the core count of the host that recorded the batch
/// (`None` when unknown): a speed-up over more vprocs than that is
/// [`Verdict::Unresolved`].
pub fn evaluate<'g>(
    gates: &'g [Gate],
    baseline: &[&StoredRecord],
    current: &[&StoredRecord],
    host_cores: impl Fn(u64) -> Option<u64>,
) -> Report<'g> {
    let mut rows = Vec::new();
    for gate in gates {
        let selected: Vec<&StoredRecord> = current
            .iter()
            .copied()
            .filter(|r| gate.selects(r))
            .collect();
        match gate.comparison {
            Comparison::RatioToBaseline { floor } => {
                for base in baseline.iter().filter(|b| gate.selects(b)) {
                    // A baseline record without the metric (wall clock on
                    // the simulated backend) has nothing to hold against.
                    let Some(reference) = gate.value(base) else {
                        continue;
                    };
                    let key = base.record_key();
                    let matched = selected.iter().find(|c| c.record_key() == key);
                    let mut row = Row::new(gate, Some(key));
                    row.reference = Some(reference);
                    rows.push(match matched {
                        None => row,
                        Some(cur) => {
                            row.measured = gate.value(cur);
                            let ratio = row.measured.map(|m| m.max(floor) / reference.max(floor));
                            row.judged(ratio)
                        }
                    });
                }
            }
            // The two current-sweep-only comparisons pin a program: a filter
            // that selects nothing means the gated benchmark is gone, which
            // must not silently pass.
            _ if selected.is_empty() => rows.push(Row::new(gate, None)),
            Comparison::AbsoluteMax => rows.extend(selected.iter().map(|cur| {
                let mut row = Row::new(gate, Some(cur.record_key()));
                row.measured = gate.value(cur);
                let value = row.measured;
                row.judged(value)
            })),
            Comparison::SpeedupMin => {
                // Group by the key minus the vproc count, first-seen order.
                let mut groups: Vec<(RecordKey, Vec<&StoredRecord>)> = Vec::new();
                for cur in selected {
                    let group_key = RecordKey {
                        vprocs: 0,
                        ..cur.record_key()
                    };
                    match groups.iter_mut().find(|(k, _)| *k == group_key) {
                        Some((_, members)) => members.push(cur),
                        None => groups.push((group_key, vec![cur])),
                    }
                }
                for (_, members) in groups {
                    let top = members
                        .iter()
                        .max_by_key(|r| r.vprocs())
                        .expect("a group has at least one member");
                    let one = members.iter().find(|r| r.vprocs() == 1);
                    let mut row = Row::new(gate, Some(top.record_key()));
                    row.reference = one.and_then(|r| gate.value(r));
                    row.measured = Some(top)
                        .filter(|r| r.vprocs() > 1)
                        .and_then(|r| gate.value(r));
                    let speedup = match (row.reference, row.measured) {
                        (Some(one), Some(top)) if top > 0.0 => Some(one / top),
                        _ => None,
                    };
                    let mut row = row.judged(speedup);
                    let cores = host_cores(top.batch_seq()).filter(|&c| c < top.vprocs());
                    if let (Some(_), Some(host_cores)) = (speedup, cores) {
                        row.verdict = Verdict::Unresolved { host_cores };
                    }
                    rows.push(row);
                }
            }
        }
    }
    let new_points = current
        .iter()
        .map(|c| c.record_key())
        .filter(|key| baseline.iter().all(|b| b.record_key() != *key))
        .collect();
    Report { rows, new_points }
}

/// Renders a metric value: nanosecond metrics as milliseconds, everything
/// else (bytes) as an integer.
fn metric_text(metric: &str, value: Option<f64>) -> String {
    match value {
        None => "—".to_string(),
        Some(v) if metric.ends_with("_ns") => format!("{:.3} ms", v / 1e6),
        Some(v) => format!("{v:.0}"),
    }
}

/// Renders the report as Markdown (for `$GITHUB_STEP_SUMMARY`): one table
/// per gate name, every table in the same shape.
pub fn markdown(report: &Report<'_>) -> String {
    let mut out = String::new();
    let mut heading: Option<&str> = None;
    for (i, row) in report.rows.iter().enumerate() {
        let gate = row.gate;
        if heading != Some(gate.name.as_str()) {
            heading = Some(&gate.name);
            let (how, reference) = match gate.comparison {
                Comparison::RatioToBaseline { floor } => (
                    format!(
                        "ratio to baseline, noise floor {}",
                        metric_text(&gate.metric, Some(floor))
                    ),
                    "baseline",
                ),
                Comparison::AbsoluteMax => ("absolute ceiling".to_string(), "—"),
                Comparison::SpeedupMin => (
                    "1 vproc over highest vprocs, current sweep".to_string(),
                    "at 1 vproc",
                ),
            };
            let _ = writeln!(out, "### Gate `{}` — `{}`, {how}\n", gate.name, gate.metric);
            let _ = writeln!(
                out,
                "| point | {reference} | current | gated value | bound | verdict |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|");
        }
        let times = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v:.2}×"));
        let (value, bound) = match gate.comparison {
            Comparison::AbsoluteMax => (
                metric_text(&gate.metric, row.value),
                format!("≤ {}", metric_text(&gate.metric, Some(gate.bound))),
            ),
            Comparison::RatioToBaseline { .. } => {
                (times(row.value), format!("≤ {}", times(Some(gate.bound))))
            }
            Comparison::SpeedupMin => (times(row.value), format!("≥ {}", times(Some(gate.bound)))),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {value} | {bound} | {} |",
            row.key
                .as_ref()
                .map_or(gate.filter_label(), RecordKey::to_string),
            metric_text(&gate.metric, row.reference),
            metric_text(&gate.metric, row.measured),
            match row.verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regression => "**REGRESSION**".to_string(),
                Verdict::Unmeasured => "**NO TELEMETRY**".to_string(),
                Verdict::Missing => "**MISSING**".to_string(),
                Verdict::Unresolved { host_cores } => format!(
                    "**UNRESOLVED ({host_cores} cores < {} vprocs)**",
                    row.key.as_ref().map_or(0, |k| k.vprocs)
                ),
            },
        );
        // A blank line closes a table before the next gate's heading.
        let next = report.rows.get(i + 1);
        if next.is_none_or(|n| n.gate.name != gate.name) {
            let _ = writeln!(out);
        }
    }
    if !report.new_points.is_empty() {
        let _ = writeln!(out, "New points (no baseline, informational):");
        for key in &report.new_points {
            let _ = writeln!(out, "- {key}");
        }
    }
    out
}

/// The whole gate, as the `perfdiff` binary runs it: loads the gate table
/// and both store directories, evaluates, and returns the Markdown report,
/// a one-line-per-gate summary, and the number of failing rows (the exit
/// code is whether that is zero; an `UNRESOLVED` row is counted in the
/// summary but neither passes nor fails).
pub fn check(
    baseline: &Path,
    current: &Path,
    gates: &Path,
) -> Result<(String, String, usize), String> {
    let text = std::fs::read_to_string(gates).map_err(|e| format!("{}: {e}", gates.display()))?;
    let gates = parse_gates(&text).map_err(|e| format!("{}: {e}", gates.display()))?;
    let open = |dir: &Path| Store::open(dir).map_err(|e| e.to_string());
    let (baseline, current) = (open(baseline)?, open(current)?);
    let report = evaluate(
        &gates,
        &Query::new().latest_per_key(&baseline),
        &Query::new().latest_per_key(&current),
        |seq| current.batch(seq).map(|b| b.meta.host_cores),
    );
    let mut summary = String::new();
    let mut names: Vec<&str> = Vec::new();
    for gate in &gates {
        if names.contains(&gate.name.as_str()) {
            continue;
        }
        names.push(&gate.name);
        let of_gate = |r: &&Row<'_>| r.gate.name == gate.name;
        let _ = writeln!(
            summary,
            "perfdiff: gate `{}`: {} rows, {} failed, {} unresolved",
            gate.name,
            report.rows.iter().filter(of_gate).count(),
            report.failures().filter(of_gate).count(),
            report.unresolved().filter(of_gate).count(),
        );
    }
    Ok((markdown(&report), summary, report.failures().count()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    // Test pins, one gate-table entry each (the checked-in table has the
    // same shapes with the real programs and bounds).
    const WALL: &str = r#"{"name": "wall-clock", "metric": "wall_clock_ns",
        "filter": {"backend": "threaded"},
        "comparison": "ratio-to-baseline-with-floor", "bound": 2.5, "floor": 5000000}"#;
    const PROMOTED: &str = r#"{"name": "promoted-bytes", "metric": "promoted_bytes", "filter": {},
        "comparison": "ratio-to-baseline-with-floor", "bound": 1.5, "floor": 65536}"#;
    const SPEEDUP: &str = r#"{"name": "speedup", "metric": "wall_clock_ns",
        "filter": {"program": "Dmm", "backend": "threaded"},
        "comparison": "speedup-min", "bound": 2.0}"#;
    const PAUSE: &str = r#"{"name": "max-pause", "metric": "pause_max_ns",
        "filter": {"program": "Barnes-Hut", "backend": "threaded"},
        "comparison": "absolute-max", "bound": 20000000}"#;
    const LATENCY: &str = r#"{"name": "latency-p99", "metric": "latency_p99_ns",
        "filter": {"program": "Request-Server", "backend": "threaded"},
        "comparison": "absolute-max", "bound": 25000000}"#;

    fn table(entries: &[&str]) -> String {
        format!(
            "{{\"gates_schema_version\": 1, \"gates\": [{}]}}",
            entries.join(", ")
        )
    }

    /// One machine-written record line: the key fields plus `fields`.
    fn line(program: &str, backend: &str, vprocs: u64, fields: &str) -> String {
        format!(
            "{{\"schema_version\": 2, \"program\": \"{program}\", \"backend\": \"{backend}\", \
             \"vprocs\": {vprocs}, \"placement\": \"node-local\", {fields}}}"
        )
    }

    /// A threaded record with a wall clock (ms) and promoted bytes, plus
    /// `extra` fields (`""` for none).
    fn threaded(program: &str, vprocs: u64, wall_ms: f64, promoted: u64, extra: &str) -> String {
        let wall = wall_ms * 1e6;
        let fields = format!("\"wall_clock_ns\": {wall}, \"promoted_bytes\": {promoted}{extra}");
        line(program, "threaded", vprocs, &fields)
    }

    fn pauses(max_ms: f64) -> String {
        format!(
            ", \"pause_max_ns\": {}, \"pause_p99_ns\": 800000",
            max_ms * 1e6
        )
    }

    fn latency(budget: &str, p99_ms: f64) -> String {
        format!(
            ", \"pause_budget_us\": {budget}, \"latency_p99_ns\": {}, \"latency_p999_ns\": {}",
            p99_ms * 1e6,
            p99_ms * 2e6
        )
    }

    /// The failing rows of one evaluation, as `(gate, program, vprocs,
    /// verdict)` — the identity the acceptance criteria compare.
    type Failing<'a> = Vec<(&'a str, &'a str, Option<u64>, Verdict)>;

    fn identity<'a>(row: &'a Row<'a>) -> (&'a str, &'a str, Option<u64>, Verdict) {
        let program = match &row.key {
            Some(key) => &key.program,
            None => row
                .gate
                .program
                .as_ref()
                .expect("a pinning gate names its program"),
        };
        let vprocs = row.key.as_ref().map(|k| k.vprocs);
        (&row.gate.name, program, vprocs, row.verdict)
    }

    /// Evaluates `entries` over the two record-line sets and checks the
    /// failing rows (and that the Markdown shows each failing verdict).
    fn check_rows(entries: &[&str], baseline: &[String], current: &[String], expected: Failing) {
        let parse = |lines: &[String]| -> Vec<StoredRecord> {
            lines
                .iter()
                .enumerate()
                .map(|(i, l)| StoredRecord::from_raw(l, 1, i, "test record").unwrap())
                .collect()
        };
        let gates = parse_gates(&table(entries)).expect("the test gate table parses");
        let (baseline, current) = (parse(baseline), parse(current));
        let report = evaluate(
            &gates,
            &baseline.iter().collect::<Vec<_>>(),
            &current.iter().collect::<Vec<_>>(),
            |_| None,
        );
        let failing: Failing = report.failures().map(identity).collect();
        assert_eq!(failing, expected, "\n{}", markdown(&report));
        let text = markdown(&report);
        for (_, _, _, verdict) in &expected {
            let label = match verdict {
                Verdict::Regression => "**REGRESSION**",
                Verdict::Unmeasured => "**NO TELEMETRY**",
                Verdict::Missing => "**MISSING**",
                Verdict::Ok | Verdict::Unresolved { .. } => {
                    unreachable!("neither an ok nor an unresolved row is a failure")
                }
            };
            assert!(text.contains(label), "{label} missing from\n{text}");
        }
        if expected.is_empty() && !report.rows.is_empty() {
            assert!(text.contains("| ok |"), "{text}");
        }
    }

    /// The table-driven suite: each row is one named test — gate entries,
    /// baseline records, current records, expected failing rows.
    macro_rules! gate_cases {
        ($($name:ident: $gates:expr, $baseline:expr, $current:expr => $failing:expr;)*) => {$(
            #[test]
            fn $name() {
                check_rows(&$gates, &$baseline, &$current, $failing.to_vec());
            }
        )*};
    }

    use Verdict::{Missing, Regression, Unmeasured};
    const NONE: [(&str, &str, Option<u64>, Verdict); 0] = [];

    gate_cases! {
        identical_sweeps_pass_the_gate:
            [WALL, PROMOTED],
            [threaded("Quicksort", 2, 20.0, 500000, "")],
            [threaded("Quicksort", 2, 20.0, 500000, "")]
            => NONE;
        // 3× wall clock against the 2.5× bound.
        injected_3x_wall_regression_fails_the_gate:
            [WALL, PROMOTED],
            [threaded("Barnes-Hut", 4, 100.0, 257072, "")],
            [threaded("Barnes-Hut", 4, 300.0, 257072, "")]
            => [("wall-clock", "Barnes-Hut", Some(4), Regression)];
        // 2× promoted bytes fails; 0.1 ms → 2 ms and 1 KiB → 60 KiB are 20×
        // and 60× but sit under the 5 ms / 64 KiB noise floors.
        promoted_bytes_regression_fails_and_noise_floor_tolerates_tiny_points:
            [WALL, PROMOTED],
            [threaded("Churn", 2, 50.0, 200000, ""), threaded("Dmm", 1, 0.1, 1024, "")],
            [threaded("Churn", 2, 50.0, 400000, ""), threaded("Dmm", 1, 2.0, 61440, "")]
            => [("promoted-bytes", "Churn", Some(2), Regression)];
        // Records as the runtime writes them: a simulated point's wall clock
        // is `null`, which an unfiltered wall gate has nothing to hold
        // against — it is skipped there, not failed, and still compared by
        // the promoted-bytes gate.
        parses_machine_written_records:
            [&WALL.replace("{\"backend\": \"threaded\"}", "{}"), PROMOTED],
            [threaded("Barnes-Hut", 4, 280.0, 257072, ""),
             line("Barnes-Hut", "simulated", 4, "\"wall_clock_ns\": null, \"promoted_bytes\": 300000")],
            [threaded("Barnes-Hut", 4, 280.0, 257072, ""),
             line("Barnes-Hut", "simulated", 4, "\"wall_clock_ns\": null, \"promoted_bytes\": 900000")]
            => [("promoted-bytes", "Barnes-Hut", Some(4), Regression)];
        // A baseline key the sweep did not re-measure fails every ratio gate
        // that selects it.
        missing_points_are_flagged_and_new_points_reported:
            [WALL, PROMOTED],
            [threaded("Quicksort", 2, 20.0, 500000, ""), threaded("SMVM", 2, 20.0, 500000, "")],
            [threaded("Quicksort", 2, 20.0, 500000, ""), threaded("Raytracer", 2, 20.0, 500000, "")]
            => [("wall-clock", "SMVM", Some(2), Missing),
                ("promoted-bytes", "SMVM", Some(2), Missing)];
        // A budgeted run is a different experiment from an unbudgeted one:
        // the two never compare against each other.
        pause_budget_is_part_of_the_matching_key:
            [WALL],
            [threaded("Barnes-Hut", 4, 50.0, 0, ", \"pause_budget_us\": null")],
            [threaded("Barnes-Hut", 4, 50.0, 0, ", \"pause_budget_us\": 250")]
            => [("wall-clock", "Barnes-Hut", Some(4), Missing)];
        // 100 / 30 = 3.33× against the 2× pin; the simulated point is not
        // selected.
        healthy_scaling_passes_the_speedup_gate:
            [SPEEDUP],
            [],
            [threaded("Dmm", 1, 100.0, 0, ""), threaded("Dmm", 2, 55.0, 0, ""),
             threaded("Dmm", 4, 30.0, 0, ""),
             line("Dmm", "simulated", 4, "\"wall_clock_ns\": null, \"promoted_bytes\": 0")]
            => NONE;
        injected_scaling_regression_fails_the_speedup_gate:
            [SPEEDUP],
            [],
            [threaded("Dmm", 1, 100.0, 0, ""), threaded("Dmm", 4, 90.0, 0, "")]
            => [("speedup", "Dmm", Some(4), Regression)];
        // Quicksort scales poorly but is not pinned; Dmm is pinned but
        // absent from the sweep, and that must be loud.
        unpinned_programs_and_missing_pins_are_handled:
            [SPEEDUP],
            [],
            [threaded("Quicksort", 1, 100.0, 0, ""), threaded("Quicksort", 4, 95.0, 0, "")]
            => [("speedup", "Dmm", None, Missing)];
        single_vproc_only_sweep_cannot_satisfy_a_pin:
            [SPEEDUP],
            [],
            [threaded("Dmm", 1, 100.0, 0, "")]
            => [("speedup", "Dmm", Some(1), Unmeasured)];
        pauses_under_the_pin_pass_the_gate:
            [PAUSE],
            [],
            [threaded("Barnes-Hut", 1, 50.0, 0, &pauses(1.5)),
             threaded("Barnes-Hut", 4, 50.0, 0, &pauses(2.5))]
            => NONE;
        // 50 ms against the absolute 20 ms pin — no baseline involved.
        injected_pause_regression_fails_the_gate:
            [PAUSE],
            [],
            [threaded("Barnes-Hut", 4, 50.0, 0, &pauses(50.0))]
            => [("max-pause", "Barnes-Hut", Some(4), Regression)];
        // An old-schema record (no pause fields) for a pinned program must
        // not silently pass ...
        pinned_points_without_pause_telemetry_fail_loudly:
            [PAUSE],
            [],
            [threaded("Barnes-Hut", 4, 280.0, 0, "")]
            => [("max-pause", "Barnes-Hut", Some(4), Unmeasured)];
        // ... while an unpinned program without telemetry is nobody's row.
        pause_fields_parse_and_default_to_none_on_old_records:
            [PAUSE],
            [],
            [threaded("Barnes-Hut", 4, 280.0, 0, &pauses(2.5)), threaded("Quicksort", 2, 20.0, 0, "")]
            => NONE;
        missing_pause_pins_are_loud:
            [PAUSE],
            [],
            [threaded("Quicksort", 2, 20.0, 0, &pauses(1.0))]
            => [("max-pause", "Barnes-Hut", None, Missing)];
        // Budgeted and unbudgeted serve points are both held to the pin.
        latencies_under_the_pin_pass_the_gate:
            [LATENCY],
            [],
            [threaded("Request-Server", 4, 5000.0, 0, &latency("null", 2.0)),
             threaded("Request-Server", 4, 5000.0, 0, &latency("500", 2.5))]
            => NONE;
        injected_latency_regression_fails_the_gate:
            [LATENCY],
            [],
            [threaded("Request-Server", 4, 5000.0, 0, &latency("null", 80.0))]
            => [("latency-p99", "Request-Server", Some(4), Regression)];
        pinned_points_without_latency_telemetry_fail_loudly:
            [LATENCY],
            [],
            [threaded("Request-Server", 4, 5000.0, 0, "")]
            => [("latency-p99", "Request-Server", Some(4), Unmeasured)];
        latency_fields_parse_and_default_to_none_on_old_records:
            [LATENCY],
            [],
            [threaded("Request-Server", 4, 5000.0, 0, &latency("null", 2.0)),
             threaded("Quicksort", 2, 20.0, 0, "")]
            => NONE;
        missing_latency_pins_are_loud:
            [LATENCY],
            [],
            [threaded("Quicksort", 2, 20.0, 0, &pauses(1.0))]
            => [("latency-p99", "Request-Server", None, Missing)];
    }

    #[test]
    fn new_points_are_listed_but_never_fail() {
        let gates = parse_gates(&table(&[WALL])).unwrap();
        let rec = |l: String| StoredRecord::from_raw(&l, 1, 0, "test record").unwrap();
        let base = rec(threaded("Quicksort", 2, 20.0, 0, ""));
        let fresh = rec(threaded("Raytracer", 2, 20.0, 0, ""));
        let report = evaluate(&gates, &[&base], &[&base, &fresh], |_| None);
        assert_eq!(report.failures().count(), 0);
        assert_eq!(report.new_points, vec![fresh.record_key()]);
        assert!(markdown(&report).contains("- Raytracer/threaded/2v/node-local"));
    }

    // ------------------------------------------------------------------
    // The whole pipeline, through store directories and a gate file.
    // ------------------------------------------------------------------

    /// Appends each batch to a fresh temp store directory, recorded as if on
    /// a host with `host_cores` cores.
    fn store_dir(tag: &str, host_cores: u64, batches: &[Vec<String>]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mgc-perfdiff-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let meta = mgc_store::RunMeta {
            git_rev: "test".to_string(),
            timestamp_unix: 0,
            host_nodes: 1,
            host_cores,
            scale: "tiny".to_string(),
            kind: "test".to_string(),
        };
        for lines in batches {
            Store::append_lines(&dir, &meta, lines).expect("append succeeds");
        }
        dir
    }

    /// Runs [`check`] with `entries` as the gate file and the current store
    /// recorded on `host_cores` cores; returns its result after removing the
    /// scratch directories.
    fn check_stores(
        host_cores: u64,
        tag: &str,
        entries: &[&str],
        baseline: &[Vec<String>],
        current: &[Vec<String>],
    ) -> Result<(String, String, usize), String> {
        let baseline = store_dir(&format!("{tag}-base"), 1, baseline);
        let current = store_dir(&format!("{tag}-cur"), host_cores, current);
        let gates = baseline.join("gates.json");
        std::fs::write(&gates, table(entries)).unwrap();
        let result = check(&baseline, &current, &gates);
        let _ = std::fs::remove_dir_all(&baseline);
        let _ = std::fs::remove_dir_all(&current);
        result
    }

    const ALL_FIVE: [&str; 5] = [WALL, PROMOTED, SPEEDUP, PAUSE, LATENCY];

    fn healthy_sweep() -> Vec<String> {
        vec![
            threaded("Dmm", 1, 100.0, 100000, ""),
            threaded("Dmm", 4, 40.0, 100000, ""),
            threaded("Barnes-Hut", 4, 50.0, 100000, &pauses(2.5)),
            threaded("Request-Server", 4, 5000.0, 100000, &latency("null", 2.0)),
        ]
    }

    #[test]
    fn all_five_gates_pass_on_a_healthy_store() {
        let (report, summary, failures) = check_stores(
            4,
            "healthy",
            &ALL_FIVE,
            &[healthy_sweep()],
            &[healthy_sweep()],
        )
        .unwrap();
        assert_eq!(failures, 0, "{report}");
        for gate in [
            "wall-clock",
            "promoted-bytes",
            "speedup",
            "max-pause",
            "latency-p99",
        ] {
            assert!(report.contains(&format!("### Gate `{gate}`")), "{report}");
            assert!(summary.contains(&format!("gate `{gate}`")), "{summary}");
        }
    }

    /// One appended batch injects a regression for every gate, and each
    /// gate catches its own.
    #[test]
    fn injected_regressions_fail_every_gate_from_the_store() {
        let regressed = vec![
            // 2.5× promoted bytes, well above the 64 KiB floor.
            threaded("Dmm", 1, 100.0, 250000, ""),
            // 7.5× wall clock, which also collapses the 4v/1v speedup to
            // 0.33× against the 2× pin.
            threaded("Dmm", 4, 300.0, 100000, ""),
            // 50 ms max pause against the 20 ms pin.
            threaded("Barnes-Hut", 4, 50.0, 100000, &pauses(50.0)),
            // 80 ms p99 request latency against the 25 ms pin.
            threaded("Request-Server", 4, 5000.0, 100000, &latency("null", 80.0)),
        ];
        // The regressed batch rides on top of the healthy one: latest-per-
        // key means the gate sees only the regressed records.
        let (_, summary, failures) = check_stores(
            4,
            "inject",
            &ALL_FIVE,
            &[healthy_sweep()],
            &[healthy_sweep(), regressed],
        )
        .unwrap();
        assert_eq!(failures, 5, "{summary}");
        assert_eq!(
            summary.matches(", 1 failed").count(),
            5,
            "each of the five gates catches its own: {summary}"
        );
    }

    /// The speedup gate judges a 4-vproc row only on a host with four
    /// cores: on two, even a 3× ratio is `UNRESOLVED`, never `ok`.
    #[test]
    fn an_under_cored_batch_cannot_produce_a_green_speedup_verdict() {
        let sweep = |wall_4v: f64| {
            vec![vec![
                threaded("Dmm", 1, 120.0, 0, ""),
                threaded("Dmm", 4, wall_4v, 0, ""),
            ]]
        };
        let run = |cores: u64, wall_4v: f64| {
            let tag = format!("cores{cores}-{wall_4v}");
            check_stores(cores, &tag, &[SPEEDUP], &[], &sweep(wall_4v)).unwrap()
        };

        let (report, summary, failures) = run(2, 40.0);
        assert_eq!(failures, 0, "{report}");
        assert!(report.contains("| 3.00× |"), "{report}");
        assert!(
            report.contains("UNRESOLVED (2 cores < 4 vprocs)"),
            "{report}"
        );
        assert!(!report.contains("| ok |"), "{report}");
        assert!(
            summary.contains("1 rows, 0 failed, 1 unresolved"),
            "{summary}"
        );

        let (report, summary, failures) = run(4, 40.0);
        assert_eq!(failures, 0, "{report}");
        assert!(report.contains("| ok |"), "{report}");
        assert!(
            summary.contains("1 rows, 0 failed, 0 unresolved"),
            "{summary}"
        );

        // 0.9× with enough cores is a real regression.
        let (report, _, failures) = run(4, 133.0);
        assert_eq!(failures, 1, "{report}");
        assert!(report.contains("**REGRESSION**"), "{report}");
    }

    #[test]
    fn store_directories_load_the_latest_record_per_key() {
        // The older batch regresses 5×; the newer one shadows it.
        let (report, _, failures) = check_stores(
            4,
            "latest",
            &[WALL],
            &[vec![threaded("Quicksort", 4, 40.0, 0, "")]],
            &[
                vec![threaded("Quicksort", 4, 200.0, 0, "")],
                vec![threaded("Quicksort", 4, 34.0, 0, "")],
            ],
        )
        .unwrap();
        assert_eq!(failures, 0, "{report}");
        assert!(report.contains("| 34.000 ms |"), "{report}");
    }

    #[test]
    fn parses_real_run_record_json() {
        use mgc_runtime::{Backend, Experiment};
        use mgc_workloads::{Scale, Workload};
        let record = Experiment::new(Workload::Dmm.program(Scale::tiny()))
            .env_overrides(mgc_runtime::EnvOverrides::default())
            .backend(Backend::Threaded)
            .run()
            .expect("a one-vproc DMM run is valid");
        let sweep = [vec![record.to_json()]];
        let (report, summary, failures) =
            check_stores(4, "real", &[WALL, PROMOTED], &sweep, &sweep).unwrap();
        assert_eq!(failures, 0, "{report}");
        assert!(summary.contains("gate `wall-clock`: 1 rows"), "{summary}");
        assert!(report.contains("Dense-Matrix-Multiply/threaded/1v/node-local"));
    }

    #[test]
    fn future_schema_versions_are_rejected_at_load() {
        let current = store_dir("future", 4, &[]);
        std::fs::write(
            current.join("run-000001.json"),
            "{\"store_schema_version\": 1, \"meta\": {}, \"records\": [\n  \
             {\"schema_version\": 99, \"program\": \"Dmm\", \"backend\": \"threaded\", \
             \"vprocs\": 1, \"wall_clock_ns\": 1, \"promoted_bytes\": 0}\n]}\n",
        )
        .unwrap();
        let gates = current.join("gates.json");
        std::fs::write(&gates, table(&[WALL])).unwrap();
        let err = check(&current, &current, &gates).unwrap_err();
        let _ = std::fs::remove_dir_all(&current);
        assert!(err.contains("\"schema_version\""), "{err}");
        assert!(err.contains("99"), "{err}");
    }

    // ------------------------------------------------------------------
    // The checked-in gate table and baseline store.
    // ------------------------------------------------------------------

    fn checked_in_gates() -> Vec<Gate> {
        let text = std::fs::read_to_string(format!("{REPO}/results/baseline/gates.json")).unwrap();
        parse_gates(&text).expect("the checked-in gate table parses")
    }

    /// `(program, bound)` of every checked-in entry named `gate`.
    fn pins(gate: &str) -> Vec<(String, f64)> {
        checked_in_gates()
            .into_iter()
            .filter(|g| g.name == gate)
            .map(|g| (g.program.unwrap_or_default(), g.bound))
            .collect()
    }

    fn pin_list(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(p, b)| (p.to_string(), *b)).collect()
    }

    #[test]
    fn speedup_thresholds_file_round_trips() {
        assert_eq!(
            pins("speedup"),
            pin_list(&[
                ("Dense-Matrix-Multiply", 2.0),
                ("Raytracer", 2.0),
                ("Synthetic-Churn", 2.0),
                ("Quicksort", 1.5),
                ("SMVM", 1.2),
                ("Barnes-Hut", 1.1),
            ])
        );
    }

    #[test]
    fn pause_thresholds_file_round_trips() {
        assert_eq!(
            pins("max-pause"),
            pin_list(&[
                ("Dense-Matrix-Multiply", 5e6),
                ("Raytracer", 5e6),
                ("Quicksort", 35e6),
                ("Barnes-Hut", 25e6),
                ("SMVM", 10e6),
                ("Synthetic-Churn", 25e6),
            ])
        );
    }

    #[test]
    fn latency_thresholds_file_round_trips() {
        assert_eq!(pins("latency-p99"), pin_list(&[("Request-Server", 2000e6)]));
        // The two ratio gates ride in the same table.
        let gates = checked_in_gates();
        let ratio = |name: &str| {
            let gate = gates.iter().find(|g| g.name == name).unwrap();
            (gate.bound, gate.comparison)
        };
        assert_eq!(
            ratio("wall-clock"),
            (2.5, Comparison::RatioToBaseline { floor: 5e6 })
        );
        assert_eq!(
            ratio("promoted-bytes"),
            (1.5, Comparison::RatioToBaseline { floor: 65536.0 })
        );
    }

    #[test]
    fn gate_tables_with_unknown_versions_comparisons_or_metrics_are_rejected() {
        let err =
            parse_gates(&table(&[WALL]).replace("_version\": 1", "_version\": 9")).unwrap_err();
        assert!(err.contains("\"gates_schema_version\""), "{err}");
        assert!(err.contains("reads version 1"), "{err}");
        let err =
            parse_gates(&table(&[&PAUSE.replace("absolute-max", "relative-min")])).unwrap_err();
        assert!(err.contains("\"comparison\" is \"relative-min\""), "{err}");
        let err =
            parse_gates(&table(&[&PAUSE.replace("pause_max_ns", "pause_mean_ns")])).unwrap_err();
        assert!(err.contains("\"metric\" is \"pause_mean_ns\""), "{err}");
        let err = parse_gates(&table(&[&PAUSE.replace("\"program\"", "\"vprocs\"")])).unwrap_err();
        assert!(err.contains("unknown field \"vprocs\""), "{err}");
        let err = parse_gates(&table(&[&WALL.replace(", \"floor\": 5000000", "")])).unwrap_err();
        assert!(err.contains("\"floor\""), "{err}");
    }

    /// The blind spot this gate used to have: the checked-in seeds sat in
    /// the "current" store and shadowed every baseline key, so a sweep that
    /// measured nothing still compared 36 points and exited 0.
    #[test]
    fn an_empty_current_store_fails_with_every_baseline_key_missing() {
        let baseline = PathBuf::from(format!("{REPO}/results/store"));
        let current = store_dir("empty", 4, &[]);
        let (report, _, failures) = check(
            &baseline,
            &current,
            &PathBuf::from(format!("{REPO}/results/baseline/gates.json")),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&current);
        assert!(failures > 0, "an empty sweep must exit 1");
        let store = Store::open(&baseline).unwrap();
        let keys = Query::new().latest_per_key(&store);
        assert_eq!(keys.len(), 39, "36 bench + 3 serve seed keys");
        for record in keys {
            let row = format!("| {} |", record.record_key());
            assert!(
                report
                    .lines()
                    .any(|l| l.starts_with(&row) && l.ends_with("| **MISSING** |")),
                "{row} not reported missing"
            );
        }
    }

    #[test]
    fn a_dropped_program_is_named_under_every_gate_that_pins_it() {
        let store = Store::open(format!("{REPO}/results/store")).unwrap();
        let baseline = Query::new().latest_per_key(&store);
        let current: Vec<&StoredRecord> = baseline
            .iter()
            .copied()
            .filter(|r| r.program() != "Barnes-Hut")
            .collect();
        let gates = checked_in_gates();
        let report = evaluate(&gates, &baseline, &current, |_| None);
        let missing_under = |gate: &str| {
            report
                .failures()
                .map(identity)
                .filter(|row| (row.0, row.1, row.3) == (gate, "Barnes-Hut", Missing))
                .count()
        };
        assert_eq!(missing_under("wall-clock"), 3, "three threaded keys");
        assert_eq!(missing_under("promoted-bytes"), 6, "both backends");
        assert_eq!(missing_under("speedup"), 1);
        assert_eq!(missing_under("max-pause"), 1);
        assert_eq!(missing_under("latency-p99"), 0, "not a serving program");
    }
}
