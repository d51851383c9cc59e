//! [`RoutingSink`] under concurrent sessions: several threads interleave
//! spans, counters, and events through the one process-global sink; every
//! record must land in the emitting thread's own per-job stream (none
//! dropped, none crossed), and the metrics hub must attribute counters to
//! the right tenant.
//!
//! One test function: the telemetry facade is process-global, so the
//! scenario owns the whole test binary.

use citroen_serve::{JobSummary, RoutingSink, ServeMetrics, SessionTable, SloConfig};
use citroen_telemetry as telemetry;
use citroen_telemetry::Trace;
use citroen_rt::json::Value;
use std::sync::{Arc, Barrier};

const THREADS: usize = 4;
const RECORDS: usize = 200;

#[test]
fn interleaved_sessions_route_to_their_own_streams_without_loss() {
    let dir = std::env::temp_dir().join(format!("citroen-route-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let table = SessionTable::default();
    let metrics = ServeMetrics::new(SloConfig::default());
    telemetry::install(Box::new(RoutingSink::new(table.clone(), metrics.clone())));

    // All threads start recording at the same instant and yield frequently,
    // maximising interleaving through the shared sink mutex.
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let table = table.clone();
            let metrics = metrics.clone();
            let barrier = barrier.clone();
            let path = dir.join(format!("job{i}.jsonl"));
            std::thread::spawn(move || {
                table.enter(&format!("tenant{i}"), Some(&path));
                metrics.session_started(&format!("tenant{i}"), 0);
                barrier.wait();
                for k in 0..RECORDS {
                    {
                        let _g = telemetry::span_dyn(|| format!("job{i}.op"));
                        telemetry::counter(&format!("job{i}.count"), 1);
                        telemetry::event(&format!("job{i}.event"), &[("k", k as u64)]);
                    }
                    if k % 8 == 0 {
                        std::thread::yield_now();
                    }
                }
                table.leave();
                metrics.session_finished(
                    JobSummary {
                        id: format!("job{i}"),
                        tenant: format!("tenant{i}"),
                        bench: "synthetic".to_string(),
                        exit: "completed".to_string(),
                        queue_ms: 0,
                        run_ms: 1,
                        compiles: 0,
                        passes_reused: 0,
                        measurements: 0,
                        warm_seeds: 0,
                    },
                    Default::default(),
                    Default::default(),
                    0,
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    telemetry::disable();

    // Every stream holds exactly its own thread's records — counts prove
    // nothing was dropped, names prove nothing crossed streams.
    for i in 0..THREADS {
        let path = dir.join(format!("job{i}.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        let t = Trace::parse_jsonl(&text)
            .unwrap_or_else(|e| panic!("stream {i} unparseable: {e}"));
        assert_eq!(t.spans.len(), RECORDS, "stream {i} dropped spans");
        assert!(
            t.spans.iter().all(|s| s.name == format!("job{i}.op")),
            "stream {i} holds foreign spans"
        );
        assert_eq!(
            t.counters.get(&format!("job{i}.count")).copied(),
            Some(RECORDS as u64),
            "stream {i} lost counter increments"
        );
        assert_eq!(t.counters.len(), 1, "stream {i} holds foreign counters");
        assert_eq!(t.events.len(), RECORDS, "stream {i} dropped events");
        assert!(
            t.events.iter().all(|e| e.name == format!("job{i}.event")),
            "stream {i} holds foreign events"
        );
    }

    // The hub attributed each thread's counters to its own tenant.
    let v = Value::parse(&metrics.reply_json()).unwrap();
    let tenants = v.get("tenants").expect("tenants object");
    for i in 0..THREADS {
        let total = tenants
            .get(&format!("tenant{i}"))
            .and_then(|t| t.get("counters"))
            .and_then(|c| c.get(&format!("job{i}.count")))
            .and_then(|c| c.get("total"))
            .and_then(Value::as_u64);
        assert_eq!(total, Some(RECORDS as u64), "tenant{i} counter misattributed");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
