//! The exported trace model: completed spans, events, counters and
//! histograms; the reader of the one trace file format, JSONL records as
//! [`crate::StreamSink`] writes them; and the aggregation queries the
//! `citroen-trace` CLI is built on (per-name self/total time, parent/child
//! coverage, flame stacks).

use crate::hist::Histogram;
use citroen_rt::json::Value;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (process-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span (0 = root).
    pub parent: u64,
    /// Span name (aggregation key).
    pub name: String,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// One structured event: a named point-in-time record with integer fields,
/// attributed to the span it was emitted under. The tuning loop's
/// `progress` events (iteration index, budget spent, best-so-far) are the
/// primary producer — every traced run yields a machine-readable
/// convergence curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Event name (e.g. `progress`, `run.meta`).
    pub name: String,
    /// Id of the span the event was emitted under (0 = none).
    pub span: u64,
    /// Dense id of the emitting thread.
    pub thread: u64,
    /// Emission time, nanoseconds since the telemetry epoch.
    pub at_ns: u64,
    /// Named integer payload, in emission order.
    pub fields: Vec<(String, u64)>,
}

impl EventRecord {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// A drained telemetry capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Events, in emission order.
    pub events: Vec<EventRecord>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
}

/// Per-span-name aggregate (the breakdown table's row).
#[derive(Debug, Clone, PartialEq)]
pub struct NameAgg {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus summed direct-children duration.
    pub self_ns: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Sum of direct-children durations, per parent span id.
    ///
    /// Robust against streaming artifacts: record order carries no meaning
    /// (a streamed trace writes children before their parents finish), a
    /// child whose parent record is absent (still open when the stream was
    /// cut) contributes nothing, and each child's contribution is clamped to
    /// its parent's own duration so clock skew cannot produce a child that
    /// "outlasts" its parent.
    pub fn child_time(&self) -> HashMap<u64, u64> {
        let dur_by_id: HashMap<u64, u64> =
            self.spans.iter().map(|s| (s.id, s.dur_ns)).collect();
        let mut m: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent == 0 {
                continue;
            }
            if let Some(&parent_dur) = dur_by_id.get(&s.parent) {
                *m.entry(s.parent).or_insert(0) += s.dur_ns.min(parent_dur);
            }
        }
        m
    }

    /// Aggregate spans by name: count, total time, and self time (total
    /// minus direct children). Sorted by self time, largest first.
    pub fn aggregate(&self) -> Vec<NameAgg> {
        let child = self.child_time();
        let mut by_name: BTreeMap<&str, NameAgg> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(&s.name).or_insert_with(|| NameAgg {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += s.dur_ns;
            e.self_ns += s.dur_ns.saturating_sub(child.get(&s.id).copied().unwrap_or(0));
        }
        let mut rows: Vec<NameAgg> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        rows
    }

    /// Fraction of the summed duration of spans named `parent_name` covered
    /// by their direct children whose names are in `child_names`. `None`
    /// when no such parent span exists.
    ///
    /// Tolerates out-of-order and partial streamed traces: record order is
    /// irrelevant, children of an unfinished (absent) parent are excluded —
    /// as is that parent's own time — and per-child contributions are
    /// clamped to the parent's duration with the final fraction capped at
    /// 1.0, so skewed clocks cannot report more than full coverage.
    pub fn coverage(&self, parent_name: &str, child_names: &[&str]) -> Option<f64> {
        let parents: HashMap<u64, u64> = self
            .spans
            .iter()
            .filter(|s| s.name == parent_name)
            .map(|s| (s.id, s.dur_ns))
            .collect();
        let parent_total: u64 = parents.values().sum();
        if parents.is_empty() || parent_total == 0 {
            return None;
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| child_names.contains(&s.name.as_str()))
            .filter_map(|s| parents.get(&s.parent).map(|&pd| s.dur_ns.min(pd)))
            .sum();
        Some((covered as f64 / parent_total as f64).min(1.0))
    }

    /// Spans sorted by duration, longest first.
    pub fn hottest(&self, n: usize) -> Vec<&SpanRecord> {
        let mut v: Vec<&SpanRecord> = self.spans.iter().collect();
        v.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.id.cmp(&b.id)));
        v.truncate(n);
        v
    }

    /// Collapsed flame stacks: for every span, the semicolon-joined name
    /// chain from its outermost recorded ancestor down to itself, mapped to
    /// its summed *self* time in nanoseconds — the input format standard
    /// flamegraph tools consume (`a;b;c 1234`). Spans whose parent record is
    /// absent (partial traces) root their own stack.
    pub fn flame_stacks(&self) -> BTreeMap<String, u64> {
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let child = self.child_time();
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            let mut chain: Vec<&str> = vec![&s.name];
            let mut cur = s.parent;
            // Defensive bound: a parent cycle in a corrupt trace must not hang.
            for _ in 0..1024 {
                match by_id.get(&cur) {
                    Some(p) if cur != 0 => {
                        chain.push(&p.name);
                        cur = p.parent;
                    }
                    _ => break,
                }
            }
            chain.reverse();
            let self_ns = s.dur_ns.saturating_sub(child.get(&s.id).copied().unwrap_or(0));
            *stacks.entry(chain.join(";")).or_insert(0) += self_ns;
        }
        stacks
    }

    // -- JSONL ---------------------------------------------------------------

    /// Parse a JSONL trace: one record object per line, tagged by its `"t"`
    /// field (`meta`/`span`/`event`/`counter`/`value`). Counter deltas sum
    /// and `value` observations accumulate into histograms, so replaying a
    /// stream reconstructs exactly what an in-memory sink would have
    /// aggregated. Strict: any malformed line is an error (use
    /// [`Trace::parse_jsonl_lossy`] for live/truncated files).
    pub fn parse_jsonl(text: &str) -> Result<Trace, String> {
        let mut t = Trace::new();
        for (lineno, line) in nonempty_lines(text) {
            apply_record_line(&mut t, line).map_err(|e| format!("line {lineno}: {e}"))?;
        }
        Ok(t)
    }

    /// Like [`Trace::parse_jsonl`] but skipping unparseable lines (a live
    /// stream's last line may be mid-write; a crashed run's file may end in
    /// a torn record). Returns the trace and the number of skipped lines.
    pub fn parse_jsonl_lossy(text: &str) -> (Trace, usize) {
        let mut t = Trace::new();
        let mut skipped = 0usize;
        for (_, line) in nonempty_lines(text) {
            if apply_record_line(&mut t, line).is_err() {
                skipped += 1;
            }
        }
        (t, skipped)
    }
}

// ---------------------------------------------------------------------------
// Record parsing
// ---------------------------------------------------------------------------

fn span_from_json(s: &Value) -> Result<SpanRecord, String> {
    let field = |k: &str| -> Result<u64, String> {
        s.get(k).and_then(Value::as_u64).ok_or(format!("span missing '{k}'"))
    };
    Ok(SpanRecord {
        id: field("id")?,
        parent: field("parent")?,
        name: s
            .get("name")
            .and_then(Value::as_str)
            .ok_or("span missing 'name'")?
            .to_string(),
        thread: field("thread")?,
        start_ns: field("start_ns")?,
        dur_ns: field("dur_ns")?,
    })
}

fn event_from_json(e: &Value) -> Result<EventRecord, String> {
    let field = |k: &str| -> Result<u64, String> {
        e.get(k).and_then(Value::as_u64).ok_or(format!("event missing '{k}'"))
    };
    let fields = match e.get("fields") {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|v| (k.clone(), v))
                    .ok_or(format!("event field '{k}' is not an integer"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("event missing 'fields'".into()),
    };
    Ok(EventRecord {
        name: e
            .get("name")
            .and_then(Value::as_str)
            .ok_or("event missing 'name'")?
            .to_string(),
        span: field("span")?,
        thread: field("thread")?,
        at_ns: field("at_ns")?,
        fields,
    })
}

/// Iterate `(1-based line number, line)` over non-empty lines.
fn nonempty_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, l)| (i + 1, l.trim())).filter(|(_, l)| !l.is_empty())
}

/// Apply one JSONL record line to an accumulating trace.
fn apply_record_line(t: &mut Trace, line: &str) -> Result<(), String> {
    let v = Value::parse(line).map_err(|e| e.to_string())?;
    let tag = v.get("t").and_then(Value::as_str).ok_or("record missing 't' tag")?;
    match tag {
        "meta" => {
            let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
            if version != 1 {
                return Err(format!("unsupported stream version {version}"));
            }
        }
        "span" => t.spans.push(span_from_json(&v)?),
        "event" => t.events.push(event_from_json(&v)?),
        "counter" => {
            let name = v.get("name").and_then(Value::as_str).ok_or("counter missing 'name'")?;
            let delta =
                v.get("delta").and_then(Value::as_u64).ok_or("counter missing 'delta'")?;
            *t.counters.entry(name.to_string()).or_insert(0) += delta;
        }
        "value" => {
            let name = v.get("name").and_then(Value::as_str).ok_or("value missing 'name'")?;
            let val = v.get("value").and_then(Value::as_u64).ok_or("value missing 'value'")?;
            t.hists.entry(name.to_string()).or_default().record(val);
        }
        other => return Err(format!("unknown record tag '{other}'")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::HEADER;
    use crate::Record;

    fn span(id: u64, parent: u64, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord { id, parent, name: name.into(), thread: 1, start_ns: start, dur_ns: dur }
    }

    /// The observations behind `sample()`'s `cycles` histogram.
    const CYCLES: [u64; 4] = [1, 2, 3, 1000];

    fn sample() -> Trace {
        let mut t = Trace::new();
        // root(100) -> a(60) -> b(20); a also has sibling b(10) under root.
        t.spans.push(span(2, 1, "a", 10, 60));
        t.spans.push(span(3, 2, "b", 20, 20));
        t.spans.push(span(4, 1, "b", 80, 10));
        t.spans.push(span(1, 0, "root", 0, 100));
        t.counters.insert("compiles".into(), 42);
        let mut h = Histogram::new();
        for v in CYCLES {
            h.record(v);
        }
        t.hists.insert("cycles".into(), h);
        t.events.push(EventRecord {
            name: "progress".into(),
            span: 1,
            thread: 1,
            at_ns: 50,
            fields: vec![("iter".into(), 1), ("best_ns".into(), 900)],
        });
        t
    }

    #[test]
    fn aggregate_self_and_total() {
        let t = sample();
        let rows = t.aggregate();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        let root = get("root");
        assert_eq!((root.count, root.total_ns, root.self_ns), (1, 100, 30)); // 100 - 60 - 10
        let a = get("a");
        assert_eq!((a.count, a.total_ns, a.self_ns), (1, 60, 40)); // 60 - 20
        let b = get("b");
        assert_eq!((b.count, b.total_ns, b.self_ns), (2, 30, 30));
        // Sorted by self time descending.
        assert_eq!(rows[0].name, "a");
    }

    #[test]
    fn coverage_of_named_children() {
        let t = sample();
        // Children of "root" named a or b: 60 + 10 of 100.
        assert!((t.coverage("root", &["a", "b"]).unwrap() - 0.7).abs() < 1e-12);
        assert!((t.coverage("root", &["a"]).unwrap() - 0.6).abs() < 1e-12);
        // b under a is not a direct child of root.
        assert_eq!(t.coverage("missing", &["a"]), None);
    }

    #[test]
    fn out_of_order_and_partial_traces_are_tolerated() {
        // A streamed trace commits children before their parents finish and
        // may be cut at any point. Hand-build an interleaved capture:
        // children first, parents later, one child of a parent that never
        // completed (id 9), and one child whose clock-skewed duration
        // exceeds its parent's.
        let mut t = Trace::new();
        t.spans.push(span(3, 2, "compile", 10, 30)); // child before parent
        t.spans.push(span(4, 2, "measure", 40, 50));
        t.spans.push(span(6, 9, "compile", 200, 10)); // parent 9 never recorded
        t.spans.push(span(5, 2, "skewed", 90, 500)); // dur exceeds parent's
        t.spans.push(span(2, 1, "iteration", 0, 100)); // parent arrives last
        t.spans.push(span(1, 0, "run", 0, 120));

        // child_time: orphan contributes nothing; skewed child clamps to 100.
        let ct = t.child_time();
        assert_eq!(ct.get(&2).copied(), Some(30 + 50 + 100));
        assert!(!ct.contains_key(&9));
        // Self time saturates at zero rather than wrapping.
        let agg = t.aggregate();
        let iter_row = agg.iter().find(|r| r.name == "iteration").unwrap();
        assert_eq!(iter_row.self_ns, 0);
        // Coverage counts only completed parents, clamps, and caps at 1.0.
        let cov = t.coverage("iteration", &["compile", "measure", "skewed"]).unwrap();
        assert!((cov - 1.0).abs() < 1e-12, "{cov}");
        // The orphan's time is excluded from compile+measure coverage.
        assert!((t.coverage("iteration", &["compile", "measure"]).unwrap() - 0.8).abs() < 1e-12);

        // All of the above must be order-independent: any permutation of the
        // record order yields identical aggregates.
        let mut rotated = t.clone();
        rotated.spans.rotate_left(3);
        assert_eq!(rotated.aggregate(), agg);
        assert_eq!(
            rotated.coverage("iteration", &["compile", "measure"]),
            t.coverage("iteration", &["compile", "measure"])
        );
        assert_eq!(rotated.flame_stacks(), t.flame_stacks());
    }

    #[test]
    fn flame_stacks_collapse_by_ancestry() {
        let t = sample();
        let stacks = t.flame_stacks();
        assert_eq!(stacks.get("root").copied(), Some(30));
        assert_eq!(stacks.get("root;a").copied(), Some(40));
        assert_eq!(stacks.get("root;a;b").copied(), Some(20));
        assert_eq!(stacks.get("root;b").copied(), Some(10));
        // Total self time is conserved across the collapse.
        assert_eq!(stacks.values().sum::<u64>(), 100);
    }

    #[test]
    fn hottest_orders_by_duration() {
        let t = sample();
        let hot = t.hottest(2);
        assert_eq!(hot[0].name, "root");
        assert_eq!(hot[1].name, "a");
    }

    /// `sample()` as the stream writer encodes it, its histogram as the
    /// `value` observations that built it.
    fn sample_jsonl() -> String {
        let t = sample();
        let mut out = HEADER.to_string();
        for s in &t.spans {
            Record::Span(s.clone()).write_jsonl(&mut out);
        }
        for e in &t.events {
            Record::Event(e.clone()).write_jsonl(&mut out);
        }
        for (k, v) in &t.counters {
            Record::Counter(k.as_str().into(), *v).write_jsonl(&mut out);
        }
        for v in CYCLES {
            Record::Value("cycles".into(), v).write_jsonl(&mut out);
        }
        out
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample();
        assert_eq!(Trace::parse_jsonl(&sample_jsonl()).unwrap(), t);
        // A header-only stream is the empty trace.
        assert_eq!(Trace::parse_jsonl(HEADER).unwrap(), Trace::new());
        // Counter deltas accumulate across lines.
        let split = "{\"t\":\"counter\",\"name\":\"c\",\"delta\":2}\n\
                     {\"t\":\"counter\",\"name\":\"c\",\"delta\":3}\n";
        assert_eq!(Trace::parse_jsonl(split).unwrap().counters["c"], 5);
    }

    #[test]
    fn jsonl_lossy_skips_torn_lines() {
        let t = sample();
        let mut text = sample_jsonl();
        // Simulate a crash mid-write: truncate the final line.
        text.truncate(text.len() - 10);
        assert!(Trace::parse_jsonl(&text).is_err());
        let (back, skipped) = Trace::parse_jsonl_lossy(&text);
        assert_eq!(skipped, 1);
        assert_eq!(back.spans, t.spans);
        assert_eq!(back.events, t.events);
    }

    #[test]
    fn jsonl_rejects_malformed() {
        assert!(Trace::parse_jsonl("{\"no\":\"tag\"}").is_err());
        assert!(Trace::parse_jsonl("{\"t\":\"mystery\"}").is_err());
        assert!(Trace::parse_jsonl("{\"t\":\"meta\",\"version\":2}").is_err());
        assert!(Trace::parse_jsonl("{\"t\":\"span\",\"id\":1}").is_err());
        assert!(Trace::parse_jsonl("{\"t\":\"counter\",\"name\":\"c\"}").is_err());
        let bad_event = "{\"t\":\"event\",\"name\":\"e\",\"span\":0,\"thread\":1,\"at_ns\":0}";
        assert!(Trace::parse_jsonl(bad_event).is_err());
    }
}
