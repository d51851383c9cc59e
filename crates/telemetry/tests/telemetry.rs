//! Integration tests for the global telemetry state: span nesting, `rt::par`
//! worker attribution, enable/disable cycles, records emitted from sink
//! code, and the disabled fast path.
//!
//! The sink and the span-id stack are process-global, so every test in this
//! binary serialises on one lock (separate test binaries are separate
//! processes and cannot interfere).

use citroen_rt::par::par_map;
use citroen_telemetry as telemetry;
use citroen_telemetry::{EventRecord, SpanRecord, TelemetrySink, Trace};
use std::io::Write;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn serialised() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test must not wedge the rest of the binary.
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` with a fresh in-memory sink installed and return what it recorded.
fn capture(f: impl FnOnce()) -> Trace {
    telemetry::enable();
    f();
    let t = telemetry::take_trace().expect("memory sink holds a trace");
    telemetry::disable();
    t
}

#[test]
fn spans_nest_and_record_parents() {
    let _g = serialised();
    let t = capture(|| {
        let outer = telemetry::span("outer");
        {
            let _inner = telemetry::span("inner");
            let _leaf = telemetry::span_dyn(|| format!("leaf.{}", 7));
        }
        assert_eq!(telemetry::current_span(), outer.id());
        let _sibling = telemetry::span("sibling");
        drop(outer);
    });
    assert_eq!(t.spans.len(), 4);
    let by_name = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap();
    let (outer, inner, leaf, sib) =
        (by_name("outer"), by_name("inner"), by_name("leaf.7"), by_name("sibling"));
    assert_eq!(outer.parent, 0);
    assert_eq!(inner.parent, outer.id);
    assert_eq!(leaf.parent, inner.id);
    assert_eq!(sib.parent, outer.id);
    // Completion order: records land as guards drop. `outer` is dropped
    // before `sibling` goes out of scope — the out-of-order drop is
    // tolerated, and `sibling` keeps the parent captured at open time.
    let order: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(order, ["leaf.7", "inner", "outer", "sibling"]);
    // Children start within the parent and end no later than it.
    for (c, p) in [(inner, outer), (leaf, inner)] {
        assert!(c.start_ns >= p.start_ns);
        assert!(c.start_ns + c.dur_ns <= p.start_ns + p.dur_ns);
    }
}

#[test]
fn install_if_absent_keeps_an_installed_sink() {
    let _g = serialised();
    telemetry::disable();
    assert!(telemetry::install_if_absent(Box::new(telemetry::MemorySink::new())));
    telemetry::counter("kept", 1);
    assert!(!telemetry::install_if_absent(Box::new(telemetry::MemorySink::new())));
    let t = telemetry::take_trace().expect("the first sink is still installed");
    assert_eq!(t.counters.get("kept"), Some(&1), "the second install replaced the first");
    telemetry::disable();
}

#[test]
fn par_workers_attribute_to_calling_span() {
    let _g = serialised();
    let t = capture(|| {
        let _batch = telemetry::span("batch");
        let out = par_map((0..64u64).collect(), |x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x * 2
        });
        assert_eq!(out[63], 126);
    });
    let batch = t.spans.iter().find(|s| s.name == "batch").unwrap();
    let workers: Vec<_> = t.spans.iter().filter(|s| s.name == "par.worker").collect();
    if citroen_rt::par::thread_count(64) <= 1 {
        return; // sequential fallback: no workers to attribute
    }
    assert!(!workers.is_empty());
    for w in &workers {
        assert_eq!(w.parent, batch.id, "worker span must hang off the caller's span");
        assert_ne!(w.thread, batch.thread, "worker spans run on worker threads");
    }
    assert_eq!(t.counters["par.workers"], workers.len() as u64);
    assert!(t.counters.contains_key("par.work_ns"));
    assert!(t.counters.contains_key("par.queue_wait_ns"));
}

#[test]
fn counters_and_histograms_accumulate() {
    let _g = serialised();
    let t = capture(|| {
        telemetry::counter("c.a", 2);
        telemetry::counter("c.a", 3);
        telemetry::counter("c.zero", 0); // no-op, must not create the key
        telemetry::value("h.x", 5);
        telemetry::value("h.x", 4096);
        let _s = telemetry::span("only");
    });
    assert_eq!(t.counters["c.a"], 5);
    assert!(!t.counters.contains_key("c.zero"));
    let h = &t.hists["h.x"];
    assert_eq!((h.count, h.sum, h.min, h.max), (2, 4101, 5, 4096));
}

#[test]
fn disabled_path_records_nothing() {
    let _g = serialised();
    telemetry::disable();
    assert!(!telemetry::is_enabled());
    // All entry points must be inert no-ops.
    let g = telemetry::span("ghost");
    assert_eq!(g.id(), 0);
    assert_eq!(telemetry::current_span(), 0);
    telemetry::counter("ghost.c", 9);
    telemetry::value("ghost.h", 9);
    drop(g);
    assert!(telemetry::take_trace().is_none());
    // Whatever was emitted while disabled must not leak into the next capture.
    let t = capture(|| {
        let _s = telemetry::span("real");
    });
    assert_eq!(t.spans.len(), 1);
    assert_eq!(t.spans[0].name, "real");
    assert!(t.counters.is_empty() && t.hists.is_empty());
}

/// A deterministic workload exercising every record type, with span names
/// that stress JSONL escaping (quotes, newlines, non-ASCII).
fn workload() {
    let _run = telemetry::span("run");
    for i in 0..3u64 {
        let _it = telemetry::span_dyn(|| format!("itér \"{i}\"\nline2"));
        telemetry::counter("iters", 1);
        telemetry::value("cost", 10 + i);
        telemetry::event("progress", &[("iter", i), ("best_ns", 100 - i)]);
    }
}

#[test]
fn stream_sink_replays_to_the_memory_sink_trace() {
    let _g = serialised();
    let mem = capture(workload);

    let path = std::env::temp_dir()
        .join(format!("citroen-telemetry-it-{}.jsonl", std::process::id()));
    telemetry::enable_stream(&path).unwrap();
    workload();
    drop(telemetry::disable()); // joins the writer and flushes the file
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let streamed = Trace::parse_jsonl(&text).unwrap();

    // Identical modulo timestamps and absolute span ids (the id counter is
    // process-global and does not reset between runs).
    assert_eq!(streamed.counters, mem.counters);
    assert_eq!(streamed.hists, mem.hists);
    let names =
        |t: &Trace| t.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&streamed), names(&mem));
    let parent_names = |t: &Trace| -> Vec<(String, String)> {
        t.spans
            .iter()
            .map(|s| {
                let p = t
                    .spans
                    .iter()
                    .find(|q| q.id == s.parent)
                    .map(|q| q.name.clone())
                    .unwrap_or_default();
                (s.name.clone(), p)
            })
            .collect()
    };
    assert_eq!(parent_names(&streamed), parent_names(&mem));
    let events = |t: &Trace| {
        t.events
            .iter()
            .map(|e| (e.name.clone(), e.fields.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(events(&streamed), events(&mem));
    assert_eq!(mem.events.len(), 3);
    assert_eq!(mem.events[2].field("best_ns"), Some(98));
}

#[test]
fn enable_disable_cycles_produce_independent_traces() {
    let _g = serialised();
    let t1 = capture(|| telemetry::counter("cycle", 1));
    let t2 = capture(|| telemetry::counter("cycle", 41));
    assert_eq!(t1.counters["cycle"], 1);
    assert_eq!(t2.counters["cycle"], 41);
    // A guard opened while enabled but dropped after disable must not panic
    // and must not record.
    telemetry::enable();
    let g = telemetry::span("straddler");
    let _ = telemetry::take_trace();
    telemetry::disable();
    drop(g);
    assert!(telemetry::take_trace().is_none());
}

/// Logs every record it receives. Its `record_span`, `add_counter` and
/// `record_event` each record one span, counter, value and event of their
/// own (named `nested.*`, which it only logs), so sink code re-enters the
/// facade while the global sink lock is held.
struct EchoSink(Arc<Mutex<Vec<String>>>);

impl EchoSink {
    fn log(&self, kind: &str, name: &str) {
        self.0.lock().unwrap().push(format!("{kind} {name}"));
        if name.starts_with("outer") && kind != "value" {
            drop(telemetry::span("nested.span"));
            telemetry::counter("nested.counter", 1);
            telemetry::value("nested.value", 1);
            telemetry::event("nested.event", &[]);
        }
    }
}

impl TelemetrySink for EchoSink {
    fn record_span(&mut self, rec: SpanRecord) {
        self.log("span", &rec.name);
    }
    fn add_counter(&mut self, name: &str, _delta: u64) {
        self.log("counter", name);
    }
    fn record_value(&mut self, name: &str, _value: u64) {
        self.log("value", name);
    }
    fn record_event(&mut self, rec: EventRecord) {
        self.log("event", &rec.name);
    }
}

#[test]
fn records_emitted_by_sink_code_arrive_right_after_their_outer_record() {
    let _g = serialised();
    let log = Arc::new(Mutex::new(Vec::new()));
    telemetry::install(Box::new(EchoSink(log.clone())));
    let (done, finished) = mpsc::channel();
    let recorder = std::thread::spawn(move || {
        drop(telemetry::span("outer.span"));
        telemetry::counter("outer.counter", 1);
        telemetry::value("outer.value", 1);
        telemetry::event("outer.event", &[]);
        done.send(()).unwrap();
    });
    if finished.recv_timeout(Duration::from_secs(30)).is_err() {
        // The recorder is stuck holding the global sink lock, which every
        // later test would block on too: fail the whole binary now.
        let _ = writeln!(std::io::stderr(), "FAIL: sink code deadlocked on a nested record");
        std::process::exit(1);
    }
    recorder.join().unwrap();
    telemetry::disable();

    // Each outer record but the value (whose handler records nothing) is
    // followed at once by the four records its handler emitted.
    const KINDS: [&str; 4] = ["span", "counter", "value", "event"];
    let mut want = Vec::new();
    for outer in KINDS {
        want.push(format!("{outer} outer.{outer}"));
        if outer != "value" {
            want.extend(KINDS.map(|k| format!("{k} nested.{k}")));
        }
    }
    assert_eq!(*log.lock().unwrap(), want);
}
