//! Per-session telemetry routing.
//!
//! The telemetry facade is process-global (one sink), but the daemon runs
//! many sessions at once and wants one live-tailable JSONL stream per job
//! and per-tenant metrics. Each session thread enters the shared
//! [`SessionTable`] for the duration of its job, and the installed
//! [`RoutingSink`] multiplexes: sink methods run synchronously on the
//! recording thread, so the record's origin is
//! [`citroen_telemetry::current_thread_id`] (spans and events also carry it
//! explicitly), and one table lookup per record finds the session's tenant
//! and stream.
//!
//! Caveat: records emitted by *worker-pool* threads (per-candidate `compile`
//! spans inside a `batch` sweep) carry the pool thread's id, not the
//! session's, and are dropped — the per-job stream covers the session
//! thread's own spans, counters, and progress events, which is what
//! `citroen-trace show` renders.
//!
//! The sink also feeds the daemon's [`ServeMetrics`] hub (DESIGN.md §12):
//! span durations and counters from session threads flow into the windowed
//! metrics registries *before* being routed to the per-job stream, so the
//! `metrics` verb works with or without `--trace-dir`. The stream, not the
//! hub, keeps the spans themselves.

use crate::metrics::ServeMetrics;
use citroen_telemetry::{current_thread_id, EventRecord, SpanRecord, StreamSink, TelemetrySink};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One running job, as seen from its session thread's records.
struct Session {
    tenant: String,
    stream: Option<StreamSink>,
}

/// Thread-id → running session. A cheap handle: clones share one table,
/// between the installed [`RoutingSink`] and the session threads that enter
/// it.
#[derive(Clone, Default)]
pub struct SessionTable(Arc<Mutex<HashMap<u64, Session>>>);

impl SessionTable {
    /// Attribute the *calling* thread's records to a job of `tenant` until
    /// [`SessionTable::leave`], streaming them as JSONL to `stream` when
    /// given. A stream that cannot be created is reported, not fatal: the
    /// session simply runs without one.
    pub fn enter(&self, tenant: &str, stream: Option<&Path>) {
        let stream = stream.and_then(|path| {
            StreamSink::create(path)
                .map_err(|e| eprintln!("warning: cannot stream to '{}': {e}", path.display()))
                .ok()
        });
        let session = Session { tenant: tenant.to_string(), stream };
        self.0.lock().unwrap().insert(current_thread_id(), session);
    }

    /// Stop attributing the calling thread. The session's stream is flushed
    /// and closed as it drops, outside the table lock.
    pub fn leave(&self) {
        let session = self.0.lock().unwrap().remove(&current_thread_id());
        drop(session);
    }
}

/// The installed process-global sink: looks up the emitting thread's
/// session, feeds the metrics hub, then writes the record to
/// the session's stream (when it has one). Records from threads outside
/// every session are dropped.
pub struct RoutingSink {
    table: SessionTable,
    metrics: Arc<ServeMetrics>,
}

impl RoutingSink {
    /// A sink dispatching through `table` and feeding `metrics`.
    pub fn new(table: SessionTable, metrics: Arc<ServeMetrics>) -> RoutingSink {
        RoutingSink { table, metrics }
    }
}

impl TelemetrySink for RoutingSink {
    fn record_span(&mut self, rec: SpanRecord) {
        let mut sessions = self.table.0.lock().unwrap();
        let Some(s) = sessions.get_mut(&rec.thread) else { return };
        self.metrics.feed_span(&s.tenant, &rec);
        if let Some(stream) = &mut s.stream {
            stream.record_span(rec);
        }
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        let mut sessions = self.table.0.lock().unwrap();
        let Some(s) = sessions.get_mut(&current_thread_id()) else { return };
        self.metrics.feed_counter(&s.tenant, name, delta);
        if let Some(stream) = &mut s.stream {
            stream.add_counter(name, delta);
        }
    }

    fn record_value(&mut self, name: &str, value: u64) {
        let mut sessions = self.table.0.lock().unwrap();
        let stream = sessions.get_mut(&current_thread_id()).and_then(|s| s.stream.as_mut());
        if let Some(stream) = stream {
            stream.record_value(name, value);
        }
    }

    fn record_event(&mut self, rec: EventRecord) {
        let mut sessions = self.table.0.lock().unwrap();
        let stream = sessions.get_mut(&rec.thread).and_then(|s| s.stream.as_mut());
        if let Some(stream) = stream {
            stream.record_event(rec);
        }
    }
}
