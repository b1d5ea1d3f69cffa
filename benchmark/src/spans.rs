//! Spans recorded by the benchmark around its calls into the layers.
//!
//! A span is a name (`<layer>.<call>`), a start, an end, the span that
//! caused it, and the cell it belongs to. Spans are kept in memory and
//! written when the run ends, as Chrome trace-event JSON — the format
//! ROADMAP item 5 will emit from inside the runtime. Times are nanoseconds
//! since the Unix epoch, so spans of the harness and of its child processes
//! share one time line.

use crate::json::{self, Obj};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: String,
    /// Start, in nanoseconds since the Unix epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the Unix epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same list.
    pub parent: Option<usize>,
    /// The cell the span belongs to (`sort-promote/1v`, `probes`).
    pub cell: String,
    /// Counts attached at this boundary.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    index: Option<usize>,
    started: Instant,
}

/// Times every boundary; keeps the spans only when tracing is on, so the
/// untraced run pays for two clock reads and nothing else.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    cell: String,
    origin: Instant,
    origin_unix_ns: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for `cell`; `enabled` decides whether spans are kept.
    pub fn new(cell: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            cell: cell.to_string(),
            origin: Instant::now(),
            origin_unix_ns: unix_now_ns(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin_unix_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span caused by the innermost open one.
    pub fn enter(&mut self, name: &str) -> OpenSpan {
        let index = self.enabled.then(|| {
            let now = self.now_ns();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: now,
                end_ns: now,
                parent: self.stack.last().copied(),
                cell: self.cell.clone(),
                counts: Vec::new(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        OpenSpan {
            index,
            started: Instant::now(),
        }
    }

    /// Ends a span and returns how long it ran, in nanoseconds.
    pub fn exit(&mut self, open: OpenSpan) -> f64 {
        self.exit_with(open, &[])
    }

    /// Ends a span, attaching counts measured at this boundary.
    pub fn exit_with(&mut self, open: OpenSpan, counts: &[(&str, f64)]) -> f64 {
        let elapsed = open.started.elapsed().as_nanos() as f64;
        if let Some(index) = open.index {
            let now = self.now_ns();
            let span = &mut self.spans[index];
            span.end_ns = now;
            span.counts = counts.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            debug_assert_eq!(self.stack.last(), Some(&index), "spans end innermost first");
            self.stack.pop();
        }
        elapsed
    }

    /// Ends a span and files under it the spans another process recorded
    /// while it was open (a child's spans under the harness's `bench.cell`).
    pub fn exit_adopting(&mut self, open: OpenSpan, children: Vec<Span>) -> f64 {
        let index = open.index;
        let elapsed = self.exit(open);
        if index.is_some() {
            append_spans(&mut self.spans, children, index);
        }
        elapsed
    }

    /// The recorded spans (empty when tracing is off).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Each span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, largest first.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(String, u64)> {
    let mut totals: Vec<(String, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        match totals.iter_mut().find(|(layer, _)| layer == span.layer()) {
            Some((_, total)) => *total += own,
            None => totals.push((span.layer().to_string(), own)),
        }
    }
    totals.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    totals
}

/// Appends `more` to `all`, keeping parent links valid. Spans in `more`
/// without a parent are attached to `adopt`.
pub fn append_spans(all: &mut Vec<Span>, more: Vec<Span>, adopt: Option<usize>) {
    let offset = all.len();
    all.extend(more.into_iter().map(|mut span| {
        span.parent = span.parent.map(|p| p + offset).or(adopt);
        span
    }));
}

/// One span as JSON (the form child processes hand to the harness).
pub fn span_to_json(span: &Span) -> String {
    let mut counts = Obj::new();
    for (key, value) in &span.counts {
        counts = counts.num(key, *value);
    }
    Obj::new()
        .str("name", &span.name)
        .raw("start_ns", span.start_ns)
        .raw("end_ns", span.end_ns)
        .raw(
            "parent",
            span.parent.map_or("null".to_string(), |p| p.to_string()),
        )
        .str("cell", &span.cell)
        .raw("counts", counts.finish())
        .finish()
}

/// Parses what [`span_to_json`] wrote.
pub fn span_from_json(value: &mgc_store::JsonValue) -> Option<Span> {
    use mgc_store::JsonValue;
    Some(Span {
        name: value.get("name")?.as_str()?.to_string(),
        start_ns: value.get("start_ns")?.as_u64()?,
        end_ns: value.get("end_ns")?.as_u64()?,
        parent: value
            .get("parent")
            .and_then(JsonValue::as_u64)
            .map(|p| p as usize),
        cell: value.get("cell")?.as_str()?.to_string(),
        counts: json::get_fields(value, "counts")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
    })
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
/// complete events, microsecond timestamps relative to the first span, one
/// process row per cell, and `args` carrying the span's index, its parent's
/// index, its self time, and the attached counts.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let epoch = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut cells: Vec<&str> = Vec::new();
    let own = self_times_ns(spans);
    let events = spans.iter().enumerate().map(|(index, span)| {
        let pid = match cells.iter().position(|c| *c == span.cell) {
            Some(pid) => pid,
            None => {
                cells.push(&span.cell);
                cells.len() - 1
            }
        };
        let mut args = Obj::new()
            .raw("id", index)
            .raw(
                "parent",
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            )
            .str("cell", &span.cell)
            .num("self_us", own[index] as f64 / 1e3);
        for (key, value) in &span.counts {
            args = args.num(key, *value);
        }
        Obj::new()
            .str("name", &span.name)
            .str("cat", span.layer())
            .str("ph", "X")
            .num("ts", (span.start_ns - epoch) as f64 / 1e3)
            .num("dur", span.duration_ns() as f64 / 1e3)
            .raw("pid", pid)
            .raw("tid", 0)
            .raw("args", args.finish())
            .finish()
    });
    let events: Vec<String> = events.collect();
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n  {}\n]}}\n",
        events.join(",\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            cell: "test".to_string(),
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("bench.cell", 0, 100, None),
            // Two adjacent children, then a gap, then a third.
            span("workloads.build", 10, 30, Some(0)),
            span("workloads.reference", 30, 50, Some(0)),
            span("runtime.experiment_run", 60, 90, Some(0)),
            // Nested inside the third: only its parent loses the time.
            span("core.inner", 70, 80, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 20, 20, 10]);
        // Self times add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer[0], ("workloads".to_string(), 40));
        assert_eq!(by_layer.iter().map(|(_, t)| t).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("a.root", 100, 200, None),
            span("b.x", 110, 150, Some(0)),
            span("b.y", 140, 160, Some(0)),
            span("b.z", 190, 250, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let mut tracer = Tracer::new("cell", false);
        let open = tracer.enter("runtime.x");
        assert!(tracer.exit(open) >= 0.0);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_links_parents_and_round_trips_through_json() {
        let mut tracer = Tracer::new("cell", true);
        let outer = tracer.enter("bench.outer");
        let inner = tracer.enter("runtime.inner");
        tracer.exit_with(inner, &[("tasks", 3.0)]);
        tracer.exit(outer);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("tasks".to_string(), 3.0)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        for s in &spans {
            let parsed = mgc_store::json::parse(&span_to_json(s)).unwrap();
            assert_eq!(span_from_json(&parsed).as_ref(), Some(s));
        }
        let mut all = vec![span("bench.cell", 0, 1, None)];
        append_spans(&mut all, spans, Some(0));
        assert_eq!((all[1].parent, all[2].parent), (Some(0), Some(1)));
    }

    #[test]
    fn the_chrome_trace_parses_and_carries_parent_links() {
        let spans = vec![
            span("bench.cell", 1_000, 9_000, None),
            span("runtime.experiment_run", 2_000, 8_000, Some(0)),
        ];
        let parsed = mgc_store::json::parse(&chrome_trace_json(&spans)).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(json::get_f64(&events[1], "ts"), Some(1.0));
        assert_eq!(json::get_f64(&events[1], "dur"), Some(6.0));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(json::get_f64(args, "self_us"), Some(6.0));
    }
}
