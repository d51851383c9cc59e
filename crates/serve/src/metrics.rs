//! The daemon's observability hub: windowed metrics, continuous profiling,
//! and SLO sentinels (DESIGN.md §12).
//!
//! One [`ServeMetrics`] per daemon, shared (`Arc`) between the server's job
//! lifecycle hooks, the installed [`crate::RoutingSink`] (which feeds span
//! durations and counters from session threads, naming their tenant), and
//! the `metrics` protocol verb. The hub keeps only aggregates, behind one
//! mutex; which thread runs which job is the [`crate::SessionTable`]'s
//! business. Every signal recorded here is coarse (per span completion, per
//! job transition), so contention is negligible next to the timed work —
//! `micro --metrics-gate` bounds the per-record cost.
//!
//! Three layers:
//!
//! - **Registries** ([`citroen_telemetry::metrics::MetricsRegistry`]): a
//!   daemon-global registry plus one per tenant, holding windowed counters
//!   (job transitions, compiles, cache traffic), gauges (cache/corpus
//!   sizes), and windowed histograms (queue wait, run wall, span latencies).
//! - **Continuous profiling**: each session thread's spans are sampled into
//!   a bounded per-job [`SpanSample`]; on job completion the sample is
//!   folded through [`Trace::flame_stacks`] into a daemon-wide flame-stack
//!   map, alongside a bounded ring of recent job summaries.
//! - **SLO sentinels** ([`citroen_telemetry::metrics::Sentinel`]): EWMA
//!   watchdogs on queue wait, run wall, compile latency, and the shared
//!   cache hit ratio. A breach flips the daemon's `health` verdict to
//!   `degraded` (recoverable) and emits one `slo.breach.<name>` telemetry
//!   event per ok→breach edge, after the hub lock is released.
//!
//! Determinism: nothing in here feeds back into any session — recording is
//! strictly observational, which is what the 10-seed metrics-on identity
//! test pins.

use citroen_core::SharedCacheStats;
use citroen_rt::json::Value;
use citroen_telemetry::metrics::{MetricsRegistry, Sentinel, SloKind, WindowCfg};
use citroen_telemetry::{Histogram, SpanRecord, Trace};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names whose durations are folded into latency histograms
/// (`span.<name>_us`, microseconds) on the global and tenant registries.
const TRACKED_SPANS: [&str; 3] = ["compile", "measure", "iteration"];

/// Flame-stack entries retained daemon-wide (top by self-time).
const FLAME_CAP: usize = 256;

/// Spans sampled per job for the continuous profiler.
const PROFILE_CAP: usize = 2048;

/// SLO thresholds and EWMA smoothing. Latency thresholds are upper bounds;
/// the hit ratio is a lower bound (0.0 disables it — a ratio never goes
/// negative).
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Queue-wait EWMA ceiling in milliseconds.
    pub queue_ms: f64,
    /// Run-wall EWMA ceiling in milliseconds.
    pub run_ms: f64,
    /// Compile-span EWMA ceiling in microseconds.
    pub compile_us: f64,
    /// Shared-cache hit-ratio EWMA floor (per-job hit-ratio samples).
    pub hit_ratio_min: f64,
    /// EWMA smoothing factor for every sentinel.
    pub alpha: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            queue_ms: 60_000.0,
            run_ms: 300_000.0,
            compile_us: 5_000_000.0,
            hit_ratio_min: 0.0,
            alpha: 0.3,
        }
    }
}

/// One completed job's footprint, kept in the bounded recent ring.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Job id.
    pub id: String,
    /// Tenant the job was grouped under.
    pub tenant: String,
    /// Benchmark name.
    pub bench: String,
    /// Terminal exit: `completed`, `cancelled`, `timed-out`, `panicked`.
    pub exit: String,
    /// Milliseconds spent queued.
    pub queue_ms: u64,
    /// Milliseconds of session wall time.
    pub run_ms: u64,
    /// Compilations performed.
    pub compiles: u64,
    /// Runtime measurements consumed.
    pub measurements: u64,
    /// Transfer warm-start seeds injected.
    pub warm_seeds: u64,
}

/// The spans one session thread recorded, sampled for the continuous
/// profiler: the first [`PROFILE_CAP`] in completion order, and a count of
/// the rest.
#[derive(Debug, Default)]
pub struct SpanSample {
    /// Spans kept.
    pub spans: Vec<SpanRecord>,
    /// Spans recorded past the cap, counted but not kept.
    pub dropped: u64,
}

impl SpanSample {
    /// Keep a copy of `rec` while under the cap; count it otherwise.
    pub fn push(&mut self, rec: &SpanRecord) {
        if self.spans.len() < PROFILE_CAP {
            self.spans.push(rec.clone());
        } else {
            self.dropped += 1;
        }
    }
}

struct TenantScope {
    reg: MetricsRegistry,
    run_sentinel: Sentinel,
}

struct Hub {
    global: MetricsRegistry,
    tenants: BTreeMap<String, TenantScope>,
    sentinels: Vec<Sentinel>,
    flames: BTreeMap<String, u64>,
    spans_sampled: u64,
    spans_dropped: u64,
    recent: VecDeque<JobSummary>,
    cache_last: SharedCacheStats,
}

/// The daemon-wide observability hub. Cheap to clone the `Arc`; all methods
/// take `&self`.
pub struct ServeMetrics {
    epoch: Instant,
    window: WindowCfg,
    slo: SloConfig,
    recent_cap: usize,
    hub: Mutex<Hub>,
}

impl ServeMetrics {
    /// A fresh hub. `window` sets the ring geometry of every registry.
    pub fn new(window: WindowCfg, slo: SloConfig) -> Arc<ServeMetrics> {
        let sentinels = vec![
            Sentinel::new("queue_wait_ms", slo.queue_ms, SloKind::Above, slo.alpha),
            Sentinel::new("run_wall_ms", slo.run_ms, SloKind::Above, slo.alpha),
            Sentinel::new("compile_us", slo.compile_us, SloKind::Above, slo.alpha),
            Sentinel::new("cache_hit_ratio", slo.hit_ratio_min, SloKind::Below, slo.alpha),
        ];
        Arc::new(ServeMetrics {
            epoch: Instant::now(),
            window,
            slo,
            recent_cap: 32,
            hub: Mutex::new(Hub {
                global: MetricsRegistry::new(window),
                tenants: BTreeMap::new(),
                sentinels,
                flames: BTreeMap::new(),
                spans_sampled: 0,
                spans_dropped: 0,
                recent: VecDeque::new(),
                cache_last: SharedCacheStats::default(),
            }),
        })
    }

    /// Milliseconds since the hub was created (the registries' time base).
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Daemon uptime in milliseconds (alias of [`ServeMetrics::now_ms`]).
    pub fn uptime_ms(&self) -> u64 {
        self.now_ms()
    }

    fn tenant_reg<'h>(hub: &'h mut Hub, tenant: &str, window: WindowCfg, slo: &SloConfig) -> &'h mut TenantScope {
        hub.tenants.entry(tenant.to_string()).or_insert_with(|| TenantScope {
            reg: MetricsRegistry::new(window),
            run_sentinel: Sentinel::new("run_wall_ms", slo.run_ms, SloKind::Above, slo.alpha),
        })
    }

    /// Apply `f` to the global registry and to `tenant`'s.
    fn both(&self, hub: &mut Hub, tenant: &str, f: impl Fn(&mut MetricsRegistry)) {
        f(&mut hub.global);
        f(&mut Self::tenant_reg(hub, tenant, self.window, &self.slo).reg);
    }

    /// A job was accepted into the queue.
    pub fn job_queued(&self, tenant: &str) {
        let now = self.now_ms();
        self.both(&mut self.hub.lock().unwrap(), tenant, |r| r.add("jobs.submitted", 1, now));
    }

    /// A queued job was cancelled before any session thread claimed it.
    /// `session_finished` never fires for such a job, so this is what keeps
    /// `jobs.submitted` balanced by terminal counters
    /// (`jobs.done + jobs.failed + jobs.cancelled`).
    pub fn job_cancelled_queued(&self, tenant: &str) {
        let now = self.now_ms();
        self.both(&mut self.hub.lock().unwrap(), tenant, |r| r.add("jobs.cancelled", 1, now));
    }

    /// A session thread claimed a job of `tenant`: records the queue wait.
    pub fn session_started(&self, tenant: &str, queue_wait_ms: u64) {
        let now = self.now_ms();
        let mut breached = Vec::new();
        {
            let mut hub = self.hub.lock().unwrap();
            self.both(&mut hub, tenant, |r| r.observe("queue_wait_ms", queue_wait_ms, now));
            let q = &mut hub.sentinels[0];
            if q.observe(queue_wait_ms as f64) {
                breached.push((q.name.clone(), q.ewma.value().unwrap_or(0.0), q.threshold));
            }
        }
        Self::emit_breaches(&breached);
    }

    /// The session finished (any exit, including panic): fold its sampled
    /// spans into the profile, account its lifecycle numbers, observe the
    /// SLOs, push the summary.
    pub fn session_finished(
        &self,
        job: JobSummary,
        cache: SharedCacheStats,
        corpus_len: u64,
        profile: SpanSample,
    ) {
        let now = self.now_ms();
        let mut breached = Vec::new();
        {
            let mut hub = self.hub.lock().unwrap();

            // Lifecycle counters and run-wall histograms, global + tenant.
            let outcome_key = match job.exit.as_str() {
                "completed" => "jobs.done",
                "panicked" => "jobs.failed",
                _ => "jobs.cancelled",
            };
            self.both(&mut hub, &job.tenant, |r| {
                r.add(outcome_key, 1, now);
                r.add("compiles", job.compiles, now);
                r.add("measurements", job.measurements, now);
                r.add("warm_seeds", job.warm_seeds, now);
                r.observe("run_wall_ms", job.run_ms, now);
            });
            let scope = Self::tenant_reg(&mut hub, &job.tenant, self.window, &self.slo);
            let s = &mut scope.run_sentinel;
            if s.observe(job.run_ms as f64) {
                breached.push((
                    format!("tenant.{}.{}", event_safe(&job.tenant), s.name),
                    s.ewma.value().unwrap_or(0.0),
                    s.threshold,
                ));
            }

            // Shared-cache deltas since the previous completion: windowed
            // counters for traffic, gauges for sizes, a hit-ratio sample
            // for the sentinel.
            let d_hits = cache.hits.saturating_sub(hub.cache_last.hits);
            let d_cross = cache.cross_hits.saturating_sub(hub.cache_last.cross_hits);
            let d_miss = cache.misses.saturating_sub(hub.cache_last.misses);
            let d_evict = cache.evictions.saturating_sub(hub.cache_last.evictions);
            hub.global.add("cache.hits", d_hits, now);
            hub.global.add("cache.cross_hits", d_cross, now);
            hub.global.add("cache.misses", d_miss, now);
            hub.global.add("cache.evictions", d_evict, now);
            hub.global.set_gauge("cache.len", cache.len);
            hub.global.set_gauge("corpus.len", corpus_len);
            hub.cache_last = cache;

            // Continuous profiling: fold the session's sampled spans into the
            // daemon-wide flame stacks.
            hub.spans_sampled += profile.spans.len() as u64;
            hub.spans_dropped += profile.dropped;
            if !profile.spans.is_empty() {
                let trace = Trace { spans: profile.spans, ..Trace::default() };
                for (stack, ns) in trace.flame_stacks() {
                    *hub.flames.entry(stack).or_insert(0) += ns;
                }
                if hub.flames.len() > FLAME_CAP {
                    let mut by_ns: Vec<(String, u64)> =
                        std::mem::take(&mut hub.flames).into_iter().collect();
                    by_ns.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    by_ns.truncate(FLAME_CAP);
                    hub.flames = by_ns.into_iter().collect();
                }
            }

            let recent_cap = self.recent_cap;
            hub.recent.push_back(job.clone());
            while hub.recent.len() > recent_cap {
                hub.recent.pop_front();
            }

            // Sentinels: run wall always; hit ratio only when the job
            // generated cache traffic.
            let r = &mut hub.sentinels[1];
            if r.observe(job.run_ms as f64) {
                breached.push((r.name.clone(), r.ewma.value().unwrap_or(0.0), r.threshold));
            }
            if d_hits + d_miss > 0 {
                let ratio = d_hits as f64 / (d_hits + d_miss) as f64;
                let h = &mut hub.sentinels[3];
                if h.observe(ratio) {
                    breached.push((h.name.clone(), h.ewma.value().unwrap_or(0.0), h.threshold));
                }
            }
        }
        Self::emit_breaches(&breached);
    }

    /// Feed one completed span from a session of `tenant` (called by the
    /// routing sink). Tracked spans land in the latency histograms, and a
    /// `compile` span feeds the compile-latency sentinel.
    pub fn feed_span(&self, tenant: &str, rec: &SpanRecord) {
        if !TRACKED_SPANS.contains(&rec.name.as_str()) {
            return;
        }
        let now = self.now_ms();
        let us = rec.dur_ns / 1_000;
        let key = format!("span.{}_us", rec.name);
        let mut breached = Vec::new();
        {
            let mut hub = self.hub.lock().unwrap();
            self.both(&mut hub, tenant, |r| r.observe(&key, us, now));
            let c = &mut hub.sentinels[2];
            if rec.name == "compile" && c.observe(us as f64) {
                breached.push((c.name.clone(), c.ewma.value().unwrap_or(0.0), c.threshold));
            }
        }
        Self::emit_breaches(&breached);
    }

    /// Feed one counter increment from a session of `tenant` (called by the
    /// routing sink).
    pub fn feed_counter(&self, tenant: &str, name: &str, delta: u64) {
        let now = self.now_ms();
        let mut hub = self.hub.lock().unwrap();
        Self::tenant_reg(&mut hub, tenant, self.window, &self.slo).reg.add(name, delta, now);
    }

    /// Emit one `slo.breach.<name>` event per record. Callers release the
    /// hub lock first: the routing sink takes it under the telemetry sink
    /// lock, so emitting while holding it would invert that lock order.
    fn emit_breaches(breached: &[(String, f64, f64)]) {
        for (name, ewma, threshold) in breached {
            citroen_telemetry::event(
                &format!("slo.breach.{name}"),
                &[("ewma_bits", ewma.to_bits()), ("threshold_bits", threshold.to_bits())],
            );
        }
    }

    /// `true` while no sentinel (global or per-tenant) is in breach.
    pub fn healthy(&self) -> bool {
        let hub = self.hub.lock().unwrap();
        hub.sentinels.iter().all(|s| !s.breached)
            && hub.tenants.values().all(|t| !t.run_sentinel.breached)
    }

    /// The wire spelling of the health verdict: `ok` or `degraded`.
    pub fn health_str(&self) -> &'static str {
        if self.healthy() {
            "ok"
        } else {
            "degraded"
        }
    }

    // -- exposition ---------------------------------------------------------

    /// The `metrics` reply as structured JSON (one line). Readable `f64`s
    /// are carried twice: `*_bits` (`f64::to_bits`, exact) and a formatted
    /// decimal string (for humans; never compared by gates).
    pub fn reply_json(&self) -> String {
        let now = self.now_ms();
        let hub = self.hub.lock().unwrap();
        let healthy = hub.sentinels.iter().all(|s| !s.breached)
            && hub.tenants.values().all(|t| !t.run_sentinel.breached);
        let mut slo: Vec<Value> = hub.sentinels.iter().map(sentinel_json).collect();
        for t in hub.tenants.values() {
            if t.run_sentinel.breached {
                slo.push(sentinel_json(&t.run_sentinel));
            }
        }
        let tenants = Value::Obj(
            hub.tenants
                .iter()
                .map(|(name, t)| {
                    let mut fields = registry_json(&t.reg, now);
                    fields.insert(
                        0,
                        (
                            "health".to_string(),
                            vs(if t.run_sentinel.breached { "degraded" } else { "ok" }),
                        ),
                    );
                    (name.clone(), Value::Obj(fields))
                })
                .collect(),
        );
        let mut stacks: Vec<(&String, &u64)> = hub.flames.iter().collect();
        stacks.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let stacks = Value::Arr(
            stacks
                .into_iter()
                .take(40)
                .map(|(st, ns)| {
                    Value::Obj(vec![
                        ("stack".to_string(), vs(st)),
                        ("ns".to_string(), Value::U64(*ns)),
                    ])
                })
                .collect(),
        );
        let recent = Value::Arr(
            hub.recent
                .iter()
                .rev()
                .map(|j| {
                    Value::Obj(vec![
                        ("id".to_string(), vs(&j.id)),
                        ("tenant".to_string(), vs(&j.tenant)),
                        ("bench".to_string(), vs(&j.bench)),
                        ("exit".to_string(), vs(&j.exit)),
                        ("queue_ms".to_string(), Value::U64(j.queue_ms)),
                        ("run_ms".to_string(), Value::U64(j.run_ms)),
                        ("compiles".to_string(), Value::U64(j.compiles)),
                        ("measurements".to_string(), Value::U64(j.measurements)),
                        ("warm_seeds".to_string(), Value::U64(j.warm_seeds)),
                    ])
                })
                .collect(),
        );
        Value::Obj(vec![
            ("type".to_string(), vs("metrics")),
            ("uptime_ms".to_string(), Value::U64(now)),
            ("health".to_string(), vs(if healthy { "ok" } else { "degraded" })),
            ("window_ms".to_string(), Value::U64(self.window.width_ms)),
            ("windows".to_string(), Value::U64(self.window.ring as u64)),
            ("slo".to_string(), Value::Arr(slo)),
            ("global".to_string(), Value::Obj(registry_json(&hub.global, now))),
            ("tenants".to_string(), tenants),
            (
                "profile".to_string(),
                Value::Obj(vec![
                    ("spans_sampled".to_string(), Value::U64(hub.spans_sampled)),
                    ("spans_dropped".to_string(), Value::U64(hub.spans_dropped)),
                    ("stacks".to_string(), stacks),
                ]),
            ),
            ("recent".to_string(), recent),
        ])
        .emit_compact()
    }

    /// The `metrics` reply in Prometheus-style text exposition, wrapped in a
    /// one-line JSON envelope (`{"type":"metrics","format":"text","text":…}`)
    /// so the NDJSON framing survives.
    pub fn reply_text(&self) -> String {
        let now = self.now_ms();
        let hub = self.hub.lock().unwrap();
        let healthy = hub.sentinels.iter().all(|s| !s.breached)
            && hub.tenants.values().all(|t| !t.run_sentinel.breached);
        let mut t = String::new();
        t.push_str("# TYPE citroen_uptime_ms gauge\n");
        t.push_str(&format!("citroen_uptime_ms {now}\n"));
        t.push_str("# TYPE citroen_health gauge\n");
        t.push_str(&format!("citroen_health {}\n", if healthy { 1 } else { 0 }));
        expose_registry(&mut t, &hub.global, "", now);
        for (name, scope) in &hub.tenants {
            expose_registry(&mut t, &scope.reg, &format!("tenant=\"{}\",", escape_label(name)), now);
        }
        for s in &hub.sentinels {
            t.push_str(&format!(
                "citroen_slo_breached{{name=\"{}\"}} {}\n",
                escape_label(&s.name),
                if s.breached { 1 } else { 0 }
            ));
            t.push_str(&format!(
                "citroen_slo_breaches_total{{name=\"{}\"}} {}\n",
                escape_label(&s.name),
                s.breaches
            ));
        }
        Value::Obj(vec![
            ("type".to_string(), vs("metrics")),
            ("format".to_string(), vs("text")),
            ("uptime_ms".to_string(), Value::U64(now)),
            ("health".to_string(), vs(if healthy { "ok" } else { "degraded" })),
            ("text".to_string(), vs(&t)),
        ])
        .emit_compact()
    }
}

fn vs(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// Escape a Prometheus text-format label value: backslash, double quote,
/// and newline. Tenant names are client-controlled, so they must not be
/// able to corrupt the exposition body.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Clamp a client-controlled string to the event-name-safe charset
/// (`[A-Za-z0-9_-]`, everything else becomes `_`) before splicing it into a
/// `slo.breach.tenant.<name>` event name.
fn event_safe(v: &str) -> String {
    v.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect()
}

/// `12.345`-style decimal rendering for the readable twin of a `*_bits`
/// field.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return v.to_string();
    }
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn sentinel_json(s: &Sentinel) -> Value {
    let ewma = s.ewma.value().unwrap_or(0.0);
    Value::Obj(vec![
        ("name".to_string(), vs(&s.name)),
        (
            "kind".to_string(),
            vs(match s.kind {
                SloKind::Above => "above",
                SloKind::Below => "below",
            }),
        ),
        ("threshold_bits".to_string(), Value::U64(s.threshold.to_bits())),
        ("threshold".to_string(), vs(&fmt_f64(s.threshold))),
        ("ewma_bits".to_string(), Value::U64(ewma.to_bits())),
        ("ewma".to_string(), vs(&fmt_f64(ewma))),
        ("breached".to_string(), Value::U64(s.breached as u64)),
        ("breaches".to_string(), Value::U64(s.breaches)),
    ])
}

fn hist_json(all: &Histogram, recent: &Histogram) -> Value {
    let quant = |h: &Histogram| {
        vec![
            ("count".to_string(), Value::U64(h.count)),
            ("sum".to_string(), Value::U64(h.sum)),
            ("min".to_string(), Value::U64(if h.count > 0 { h.min } else { 0 })),
            ("max".to_string(), Value::U64(h.max)),
            ("p50".to_string(), Value::U64(h.quantile(0.5))),
            ("p90".to_string(), Value::U64(h.quantile(0.9))),
            ("p99".to_string(), Value::U64(h.quantile(0.99))),
        ]
    };
    let mut fields = quant(all);
    fields.push(("recent".to_string(), Value::Obj(quant(recent))));
    Value::Obj(fields)
}

fn registry_json(reg: &MetricsRegistry, now: u64) -> Vec<(String, Value)> {
    let counters = Value::Obj(
        reg.counters()
            .map(|(name, c)| {
                let rate = c.rate_per_sec(&reg.cfg, now);
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("total".to_string(), Value::U64(c.total)),
                        (
                            "win".to_string(),
                            Value::Arr(
                                c.window_deltas(&reg.cfg, now)
                                    .into_iter()
                                    .map(Value::U64)
                                    .collect(),
                            ),
                        ),
                        ("rate_bits".to_string(), Value::U64(rate.to_bits())),
                        ("rate".to_string(), vs(&fmt_f64(rate))),
                    ]),
                )
            })
            .collect(),
    );
    let gauges = Value::Obj(
        reg.gauges().map(|(name, v)| (name.to_string(), Value::U64(v))).collect(),
    );
    let hists = Value::Obj(
        reg.hists()
            .map(|(name, h)| {
                (name.to_string(), hist_json(&h.all, &h.recent(&reg.cfg, now)))
            })
            .collect(),
    );
    vec![
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("hists".to_string(), hists),
    ]
}

fn expose_registry(out: &mut String, reg: &MetricsRegistry, label_prefix: &str, now: u64) {
    for (name, c) in reg.counters() {
        let name = escape_label(name);
        out.push_str(&format!(
            "citroen_counter_total{{{label_prefix}name=\"{name}\"}} {}\n",
            c.total
        ));
        out.push_str(&format!(
            "citroen_counter_rate{{{label_prefix}name=\"{name}\"}} {}\n",
            fmt_f64(c.rate_per_sec(&reg.cfg, now))
        ));
    }
    for (name, v) in reg.gauges() {
        let name = escape_label(name);
        out.push_str(&format!("citroen_gauge{{{label_prefix}name=\"{name}\"}} {v}\n"));
    }
    for (name, h) in reg.hists() {
        let name = escape_label(name);
        out.push_str(&format!(
            "citroen_hist_count{{{label_prefix}name=\"{name}\"}} {}\n",
            h.all.count
        ));
        for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            out.push_str(&format!(
                "citroen_hist_quantile{{{label_prefix}name=\"{name}\",q=\"{qs}\"}} {}\n",
                h.all.quantile(q)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> Arc<ServeMetrics> {
        ServeMetrics::new(WindowCfg::default(), SloConfig::default())
    }

    /// Finish `job` with no cache traffic and no sampled spans.
    fn finish(m: &ServeMetrics, job: JobSummary, corpus_len: u64) {
        m.session_finished(job, Default::default(), corpus_len, SpanSample::default());
    }

    fn job(id: &str, tenant: &str, exit: &str, run_ms: u64) -> JobSummary {
        JobSummary {
            id: id.to_string(),
            tenant: tenant.to_string(),
            bench: "telecom_gsm".to_string(),
            exit: exit.to_string(),
            queue_ms: 2,
            run_ms,
            compiles: 10,
            measurements: 4,
            warm_seeds: 1,
        }
    }

    #[test]
    fn lifecycle_accounting_lands_in_global_and_tenant() {
        let m = hub();
        m.job_queued("a");
        m.session_started("a", 2);
        m.session_finished(
            job("j1", "a", "completed", 7),
            SharedCacheStats { hits: 3, misses: 1, ..Default::default() },
            5,
            SpanSample::default(),
        );
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.global.total("jobs.submitted"), 1);
        assert_eq!(hub.global.total("jobs.done"), 1);
        assert_eq!(hub.global.total("compiles"), 10);
        assert_eq!(hub.global.total("cache.hits"), 3);
        assert_eq!(hub.global.gauge("corpus.len"), Some(5));
        assert_eq!(hub.global.hist("queue_wait_ms").unwrap().count, 1);
        assert_eq!(hub.global.hist("run_wall_ms").unwrap().max, 7);
        let t = &hub.tenants["a"];
        assert_eq!(t.reg.total("jobs.done"), 1);
        assert_eq!(t.reg.hist("run_wall_ms").unwrap().count, 1);
        assert_eq!(hub.recent.len(), 1);
        assert_eq!(hub.recent[0].id, "j1");
    }

    #[test]
    fn cache_deltas_are_incremental_not_cumulative() {
        let m = hub();
        m.session_started("a", 0);
        m.session_finished(
            job("j1", "a", "completed", 1),
            SharedCacheStats { hits: 10, misses: 10, ..Default::default() },
            0,
            SpanSample::default(),
        );
        m.session_started("a", 0);
        m.session_finished(
            job("j2", "a", "completed", 1),
            SharedCacheStats { hits: 12, misses: 10, ..Default::default() },
            0,
            SpanSample::default(),
        );
        let hub = m.hub.lock().unwrap();
        // Second job contributed only the delta (2 hits, 0 misses).
        assert_eq!(hub.global.total("cache.hits"), 12);
        assert_eq!(hub.global.total("cache.misses"), 10);
    }

    #[test]
    fn slo_breach_flips_health_and_recovers() {
        let m = ServeMetrics::new(
            WindowCfg::default(),
            SloConfig { run_ms: 100.0, alpha: 1.0, ..Default::default() },
        );
        assert!(m.healthy());
        m.session_started("a", 0);
        finish(&m, job("j1", "a", "completed", 500), 0);
        assert!(!m.healthy());
        assert_eq!(m.health_str(), "degraded");
        // A fast job brings the EWMA (alpha=1 → last sample) back under.
        m.session_started("a", 0);
        finish(&m, job("j2", "a", "completed", 5), 0);
        assert!(m.healthy());
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.sentinels[1].breaches, 1);
    }

    #[test]
    fn spans_feed_latency_hists_and_sampled_spans_feed_flames() {
        let m = hub();
        let mut sample = SpanSample::default();
        for (name, dur_ns) in [("compile", 5_000), ("measure", 2_000), ("gp.fit", 1_000)] {
            let name = name.to_string();
            let rec = SpanRecord { id: 1, parent: 0, name, thread: 1, start_ns: 0, dur_ns };
            m.feed_span("a", &rec);
            sample.push(&rec);
        }
        {
            let hub = m.hub.lock().unwrap();
            assert_eq!(hub.global.hist("span.compile_us").unwrap().max, 5);
            assert_eq!(hub.global.hist("span.measure_us").unwrap().count, 1);
            assert!(hub.global.hist("span.gp.fit_us").is_none()); // not a tracked hist
            assert_eq!(hub.tenants["a"].reg.hist("span.compile_us").unwrap().count, 1);
        }
        m.session_finished(job("j1", "a", "completed", 1), Default::default(), 0, sample);
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.spans_sampled, 3);
        assert!(hub.flames.contains_key("compile"), "flames: {:?}", hub.flames);
    }

    #[test]
    fn compile_breach_in_sink_path_is_emitted_without_a_lifecycle_hook() {
        // The breach is detected inside sink dispatch, where the global
        // telemetry sink lock is held; its event must still reach the job's
        // stream, with no session_started/session_finished to carry it.
        use crate::telemetry_route::{RoutingSink, SessionTable};
        use citroen_telemetry as telemetry;
        let m = ServeMetrics::new(
            WindowCfg::default(),
            SloConfig { compile_us: 1e-6, alpha: 1.0, ..Default::default() },
        );
        let table = SessionTable::default();
        let path = std::env::temp_dir()
            .join(format!("citroen-compile-breach-{}.jsonl", std::process::id()));
        telemetry::install(Box::new(RoutingSink::new(table.clone(), Some(m.clone()))));
        telemetry::counter("outside.session", 1); // no session yet: dropped
        table.enter("a", Some(&path));
        telemetry::counter("inside.session", 1);
        {
            let _compile = telemetry::span("compile");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let profile = table.leave();
        telemetry::disable();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(m.health_str(), "degraded");
        let streamed = Trace::parse_jsonl(&text).unwrap();
        let events: Vec<&str> = streamed.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(events, ["slo.breach.compile_us"]);
        assert_eq!(profile.spans.len(), 1);
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.tenants["a"].reg.total("inside.session"), 1);
        assert_eq!(hub.tenants["a"].reg.total("outside.session"), 0);
        assert_eq!(hub.sentinels[2].breaches, 1);
    }

    #[test]
    fn cancelled_queued_jobs_balance_submitted() {
        let m = hub();
        m.job_queued("a");
        m.job_cancelled_queued("a");
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.global.total("jobs.submitted"), 1);
        assert_eq!(hub.global.total("jobs.cancelled"), 1);
        assert_eq!(hub.tenants["a"].reg.total("jobs.cancelled"), 1);
    }

    #[test]
    fn hostile_tenant_names_cannot_corrupt_the_text_exposition() {
        let m = hub();
        let tenant = "ev\"il\\ten{ant}";
        m.session_started(tenant, 1);
        finish(&m, job("j1", tenant, "completed", 3), 0);
        let v = Value::parse(&m.reply_text()).expect("envelope still parses");
        let body = v.get("text").and_then(Value::as_str).unwrap().to_string();
        assert!(
            body.contains(r#"tenant="ev\"il\\ten{ant}","#),
            "label value must be escaped: {body}"
        );
        assert!(!body.contains("tenant=\"ev\"il"), "raw quote must not survive");
    }

    #[test]
    fn event_safe_clamps_to_the_event_charset() {
        assert_eq!(event_safe("tenant-9_ok"), "tenant-9_ok");
        assert_eq!(event_safe("a\"b\\c d.e"), "a_b_c_d_e");
    }

    #[test]
    fn feed_counter_reaches_the_named_tenant_only() {
        let m = hub();
        m.feed_counter("t9", "citroen.iterations", 3);
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.tenants["t9"].reg.total("citroen.iterations"), 3);
        assert_eq!(hub.global.total("citroen.iterations"), 0);
    }

    #[test]
    fn replies_are_single_line_parseable_json() {
        let m = hub();
        m.session_started("a", 1);
        finish(&m, job("j1", "a", "completed", 3), 2);
        for line in [m.reply_json(), m.reply_text()] {
            assert!(!line.contains('\n'), "{line}");
            let v = Value::parse(&line).expect("parses");
            assert_eq!(v.get("type").and_then(Value::as_str), Some("metrics"));
            assert_eq!(v.get("health").and_then(Value::as_str), Some("ok"));
        }
        let v = Value::parse(&m.reply_json()).unwrap();
        let done = v
            .get("global")
            .and_then(|g| g.get("counters"))
            .and_then(|c| c.get("jobs.done"))
            .and_then(|c| c.get("total"))
            .and_then(Value::as_u64);
        assert_eq!(done, Some(1));
        let text = Value::parse(&m.reply_text()).unwrap();
        let body = text.get("text").and_then(Value::as_str).unwrap().to_string();
        assert!(body.contains("citroen_health 1"));
        assert!(body.contains("citroen_counter_total{name=\"jobs.done\"} 1"));
    }

    #[test]
    fn fmt_f64_is_compact() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(12.3456), "12.346");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
    }
}
