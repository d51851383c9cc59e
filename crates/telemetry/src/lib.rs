//! # citroen-telemetry
//!
//! Hierarchical tracing and metrics for the whole tuning stack. CITROEN's
//! value proposition is that cheap compilation statistics steer expensive
//! runtime measurements; this crate makes the *reproduction's own* cost
//! structure observable: where a tuning run spends its budget (compiles vs
//! GP fits vs acquisition maximisation vs simulator runs), how often the
//! caches hit, and how the `rt::par` workers split queue wait from work.
//!
//! Three primitives:
//!
//! - **Spans** ([`span`], [`SpanGuard`]) — RAII-timed, monotonic-clock,
//!   hierarchical regions. Nesting is tracked per thread; `rt::par` workers
//!   attribute their work to the span that called `par_map` through the
//!   function-pointer hooks in [`citroen_rt::par::set_task_hooks`] (installed
//!   automatically by [`install`]).
//! - **Counters** ([`counter`]) — monotonically-increasing named `u64`s
//!   (compiles, cache hits, acquisition evaluations, …).
//! - **Histograms** ([`value`], [`Histogram`]) — fixed power-of-two-bucket
//!   distributions (GP fit iterations, simulated cycles, …).
//! - **Events** ([`event`], [`EventRecord`]) — named point-in-time records
//!   with integer fields, attributed to the emitting span. The tuning
//!   loop's `progress` events are the primary producer: every traced run
//!   yields a machine-readable convergence curve (`citroen-trace curve`).
//!
//! Everything funnels into one process-global [`TelemetrySink`]. The default
//! state has **no sink installed**: every entry point is a single relaxed
//! atomic load and an early return, so the paper-faithful tuning path is not
//! perturbed (see `crates/core/tests/telemetry_identity.rs` and the
//! `micro --telemetry-gate` overhead bound). With the built-in [`MemorySink`]
//! installed ([`enable`]), completed records are pushed under a short-lived
//! global mutex — spans in this codebase are coarse (per pass, per GP fit,
//! per iteration), so lock traffic is negligible next to the timed work.
//!
//! Sink code may itself record: every record goes through one dispatch
//! routine, and a record emitted while that thread is already dispatching
//! is queued on the thread and delivered right after the record being
//! delivered, under the same lock. Re-entering the sink mutex, and so
//! deadlocking on it, cannot happen.
//!
//! Trace files have one format, JSONL: the [`StreamSink`] ([`enable_stream`])
//! writes each record as one line through a dedicated writer thread, so no
//! run is too long to trace, and [`Trace::parse_jsonl`] replays the file
//! into the in-memory form a [`MemorySink`] drains to. The `citroen-trace`
//! binary records such files and renders breakdowns and diffs of them.

#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod stream;
pub mod trace;

pub use hist::Histogram;
pub use stream::StreamSink;
pub use trace::{EventRecord, NameAgg, SpanRecord, Trace};

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

/// Receiver of telemetry records. Exactly one sink is installed at a time
/// (process-global); with none installed every recording entry point is a
/// near-free early return.
pub trait TelemetrySink: Send {
    /// A span finished.
    fn record_span(&mut self, rec: SpanRecord);
    /// Add `delta` to counter `name`.
    fn add_counter(&mut self, name: &str, delta: u64);
    /// Record one observation of `value` into histogram `name`.
    fn record_value(&mut self, name: &str, value: u64);
    /// A structured event was emitted. Default: ignore (sinks predating
    /// events keep working).
    fn record_event(&mut self, rec: EventRecord) {
        let _ = rec;
    }
    /// Give up the accumulated trace, if this sink holds one in memory.
    /// Default: `None` (streaming/custom sinks).
    fn take_trace(&mut self) -> Option<Trace> {
        None
    }
}

/// The built-in sink: accumulates everything into a [`Trace`] in memory.
#[derive(Default)]
pub struct MemorySink {
    trace: Trace,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }
}

impl TelemetrySink for MemorySink {
    fn record_span(&mut self, rec: SpanRecord) {
        self.trace.spans.push(rec);
    }
    fn add_counter(&mut self, name: &str, delta: u64) {
        *self.trace.counters.entry(name.to_string()).or_insert(0) += delta;
    }
    fn record_value(&mut self, name: &str, value: u64) {
        self.trace.hists.entry(name.to_string()).or_default().record(value);
    }
    fn record_event(&mut self, rec: EventRecord) {
        self.trace.events.push(rec);
    }
    fn take_trace(&mut self) -> Option<Trace> {
        Some(std::mem::take(&mut self.trace))
    }
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn TelemetrySink>>> = Mutex::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// The monotonic epoch all span timestamps are relative to (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Stack of open span ids on this thread (innermost last).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The synthetic `par.worker` span a worker thread runs under.
    static WORKER: RefCell<Option<ActiveSpan>> = const { RefCell::new(None) };
    /// Small dense id for this thread (std's ThreadId has no stable integer).
    static THREAD: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Set while this thread runs sink code inside [`dispatch`].
    static DISPATCHING: Cell<bool> = const { Cell::new(false) };
    /// Records emitted by sink code on this thread, awaiting delivery by the
    /// enclosing [`dispatch`].
    static NESTED: RefCell<VecDeque<Record<'static>>> = const { RefCell::new(VecDeque::new()) };
}

/// Whether a sink is installed. A single relaxed load — this is the whole
/// cost of the disabled path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The small dense telemetry id of the calling thread — the same value
/// stamped into this thread's [`SpanRecord`]s and [`EventRecord`]s. Sink
/// methods run synchronously on the recording thread, so a multiplexing
/// sink (e.g. the serve daemon's per-session router) can call this inside
/// `add_counter`/`record_value` — which carry no thread field of their own —
/// to attribute the record to a session.
pub fn current_thread_id() -> u64 {
    THREAD.with(|t| *t)
}

/// Install `sink` as the process-global receiver (replacing any previous
/// one) and enable recording. Also installs the `rt::par` worker hooks on
/// first use so parallel work is attributed to its parent span.
pub fn install(sink: Box<dyn TelemetrySink>) {
    install_par_hooks();
    epoch();
    *SINK.lock().unwrap() = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// [`install`] `sink` unless a sink is installed already; returns whether
/// it was installed. The check and the install hold one lock, so a
/// concurrent [`install`] is never overwritten by this one.
pub fn install_if_absent(sink: Box<dyn TelemetrySink>) -> bool {
    install_par_hooks();
    epoch();
    let mut slot = SINK.lock().unwrap();
    if slot.is_some() {
        return false;
    }
    *slot = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
    true
}

/// [`install`] the built-in in-memory sink.
pub fn enable() {
    install(Box::new(MemorySink::new()));
}

/// [`install`] a [`StreamSink`] writing JSONL records to `path`. Finish the
/// file with `drop(disable())`.
pub fn enable_stream(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    install(Box::new(StreamSink::create(path)?));
    Ok(())
}

/// [`enable_stream`] with a byte cap per file: the stream rotates through
/// `FILE` → `FILE.1` → `FILE.2`, keeping the most recent records and
/// bounding disk usage at about three caps for arbitrarily long runs.
pub fn enable_stream_capped(
    path: impl AsRef<std::path::Path>,
    cap: u64,
) -> std::io::Result<()> {
    install(Box::new(StreamSink::create_with_cap(path, Some(cap))?));
    Ok(())
}

/// Stop recording and remove the sink (returned so callers can drain it).
pub fn disable() -> Option<Box<dyn TelemetrySink>> {
    ENABLED.store(false, Ordering::SeqCst);
    SINK.lock().unwrap().take()
}

/// Drain the accumulated trace out of the installed sink (the sink stays
/// installed and keeps recording into a fresh trace). `None` when disabled
/// or when the sink does not hold an in-memory trace.
pub fn take_trace() -> Option<Trace> {
    SINK.lock().unwrap().as_mut().and_then(|s| s.take_trace())
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// One record on its way to a sink. Counter and histogram names stay
/// borrowed unless the record has to be queued.
pub(crate) enum Record<'a> {
    Span(SpanRecord),
    Event(EventRecord),
    Counter(Cow<'a, str>, u64),
    Value(Cow<'a, str>, u64),
}

/// Ends a [`dispatch`] on drop, unwinding included (serve jobs run under
/// `catch_unwind`): clears the thread's mark, and on unwind the records
/// left undelivered (a dispatch that returns has drained them).
struct DispatchGuard;

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        DISPATCHING.with(|d| d.set(false));
        if std::thread::panicking() {
            NESTED.with(|q| q.borrow_mut().clear());
        }
    }
}

/// Deliver `rec` to the installed sink: the only path from a record to the
/// [`SINK`] lock. A record emitted by sink code finds its thread already
/// dispatching, so it is queued and delivered in order right after the
/// outer record, before the lock is released.
fn dispatch(rec: Record<'_>) {
    if DISPATCHING.with(Cell::get) {
        let owned = match rec {
            Record::Span(s) => Record::Span(s),
            Record::Event(e) => Record::Event(e),
            Record::Counter(n, d) => Record::Counter(Cow::Owned(n.into_owned()), d),
            Record::Value(n, v) => Record::Value(Cow::Owned(n.into_owned()), v),
        };
        NESTED.with(|q| q.borrow_mut().push_back(owned));
        return;
    }
    DISPATCHING.with(|d| d.set(true));
    let _end = DispatchGuard;
    let mut sink = SINK.lock().expect("a telemetry sink panicked while recording");
    let Some(sink) = sink.as_deref_mut() else { return };
    let mut next = Some(rec);
    while let Some(rec) = next {
        match rec {
            Record::Span(s) => sink.record_span(s),
            Record::Event(e) => sink.record_event(e),
            Record::Counter(n, d) => sink.add_counter(&n, d),
            Record::Value(n, v) => sink.record_value(&n, v),
        }
        next = NESTED.with(|q| q.borrow_mut().pop_front());
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    start: Instant,
}

/// RAII guard: the span runs from creation to drop. Inert (zero work on
/// drop) when telemetry was disabled at creation.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// A guard that records nothing (for callers that pre-check
    /// [`is_enabled`] to avoid building a dynamic name).
    pub fn noop() -> SpanGuard {
        SpanGuard(None)
    }

    /// This span's id (0 for inert guards) — usable as an explicit parent.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map(|a| a.id).unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            close_span(a);
        }
    }
}

/// Open a span named `name` under the innermost open span of this thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(open_span(Cow::Borrowed(name), current_span())))
}

/// Open a span with a lazily-built dynamic name (the closure only runs when
/// telemetry is enabled, so the disabled path never allocates).
#[inline]
pub fn span_dyn(name: impl FnOnce() -> String) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(open_span(Cow::Owned(name()), current_span())))
}

/// Id of the innermost open span on this thread (0 = none).
pub fn current_span() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

fn open_span(name: Cow<'static, str>, parent: u64) -> ActiveSpan {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    ActiveSpan { id, parent, name, start: Instant::now() }
}

fn close_span(a: ActiveSpan) {
    let dur_ns = a.start.elapsed().as_nanos() as u64;
    STACK.with(|s| {
        let mut st = s.borrow_mut();
        // Guards normally drop in LIFO order; tolerate out-of-order drops.
        if st.last() == Some(&a.id) {
            st.pop();
        } else {
            st.retain(|&x| x != a.id);
        }
    });
    let rec = SpanRecord {
        id: a.id,
        parent: a.parent,
        name: a.name.into_owned(),
        thread: THREAD.with(|t| *t),
        start_ns: a.start.saturating_duration_since(epoch()).as_nanos() as u64,
        dur_ns,
    };
    dispatch(Record::Span(rec));
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Emit a structured event: a named point-in-time record with integer
/// fields, attributed to the innermost open span on this thread. No-op when
/// disabled — but field *values* are evaluated by the caller, so wrap the
/// call in [`is_enabled`] when building them is not free.
pub fn event(name: &str, fields: &[(&str, u64)]) {
    if !is_enabled() {
        return;
    }
    let rec = EventRecord {
        name: name.to_string(),
        span: current_span(),
        thread: THREAD.with(|t| *t),
        at_ns: Instant::now().saturating_duration_since(epoch()).as_nanos() as u64,
        fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    };
    dispatch(Record::Event(rec));
}

// ---------------------------------------------------------------------------
// Counters and histograms
// ---------------------------------------------------------------------------

/// Add `delta` to counter `name` (no-op when disabled or `delta == 0`).
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    dispatch(Record::Counter(Cow::Borrowed(name), delta));
}

/// Record one observation into histogram `name` (no-op when disabled).
#[inline]
pub fn value(name: &str, v: u64) {
    if !is_enabled() {
        return;
    }
    dispatch(Record::Value(Cow::Borrowed(name), v));
}

// ---------------------------------------------------------------------------
// rt::par worker attribution
// ---------------------------------------------------------------------------

fn install_par_hooks() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        citroen_rt::par::set_task_hooks(citroen_rt::par::TaskHooks {
            capture: hook_capture,
            worker_start: hook_worker_start,
            worker_end: hook_worker_end,
        });
    });
}

fn hook_capture() -> u64 {
    if is_enabled() {
        current_span()
    } else {
        0
    }
}

fn hook_worker_start(parent: u64, queue_wait_ns: u64) {
    if !is_enabled() {
        return;
    }
    counter("par.queue_wait_ns", queue_wait_ns);
    counter("par.workers", 1);
    let a = open_span(Cow::Borrowed("par.worker"), parent);
    WORKER.with(|w| *w.borrow_mut() = Some(a));
}

fn hook_worker_end(work_ns: u64) {
    let worker = WORKER.with(|w| w.borrow_mut().take());
    if let Some(a) = worker {
        counter("par.work_ns", work_ns);
        close_span(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests live in tests/telemetry.rs behind a serialising
    // lock; here only the stateless pieces.

    #[test]
    fn noop_guard_is_inert() {
        let g = SpanGuard::noop();
        assert_eq!(g.id(), 0);
        drop(g); // must not touch the stack
        assert_eq!(current_span(), 0);
    }
}
