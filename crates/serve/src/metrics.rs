//! The daemon's observability hub: windowed metrics and SLO sentinels
//! (DESIGN.md §12). It is always on.
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
//! Two layers, plus a bounded ring of recent job summaries:
//!
//! - **Registries** ([`citroen_telemetry::metrics::MetricsRegistry`]): a
//!   daemon-global registry plus one per tenant, holding windowed counters
//!   (job transitions, compiles, cache traffic), gauges (cache/corpus
//!   sizes), and windowed histograms (queue wait, run wall, span latencies),
//!   all over [`WindowCfg::default`]'s six 10 s windows.
//! - **SLO sentinels** ([`citroen_telemetry::metrics::Sentinel`]): EWMA
//!   watchdogs on queue wait, run wall, compile latency, and the shared
//!   cache hit ratio. A breach flips the daemon's `health` verdict to
//!   `degraded` (recoverable) and emits one `slo.breach.<name>` telemetry
//!   event per ok→breach edge, after the hub lock is released.
//!
//! Where a job's wall time went is not kept here: its `--trace-dir` stream
//! holds every session-thread span, and `citroen-trace flame` folds it.
//!
//! Determinism: nothing in here feeds back into any session — recording is
//! strictly observational, which is what the 10-seed identity test pins.

use crate::state::ExecStats;
use citroen_core::{MemoStats, SharedCacheStats};
use citroen_rt::json::Value;
use citroen_telemetry::metrics::{MetricsRegistry, Sentinel, SloKind, WindowCfg};
use citroen_telemetry::{Histogram, SpanRecord};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names whose durations are folded into latency histograms
/// (`span.<name>_us`, microseconds) on the global and tenant registries.
const TRACKED_SPANS: [&str; 3] = ["compile", "measure", "iteration"];

/// Completed jobs kept in the `recent` ring.
const RECENT_CAP: usize = 32;

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
    /// Pass runs skipped by prefix resumption.
    pub passes_reused: u64,
    /// Pass runs skipped by the no-op memo.
    pub passes_skipped: u64,
    /// Runtime measurements consumed.
    pub measurements: u64,
    /// Transfer warm-start seeds injected.
    pub warm_seeds: u64,
}

struct TenantScope {
    reg: MetricsRegistry,
    run_sentinel: Sentinel,
}

struct Hub {
    global: MetricsRegistry,
    tenants: BTreeMap<String, TenantScope>,
    sentinels: Vec<Sentinel>,
    recent: VecDeque<JobSummary>,
    cache_last: SharedCacheStats,
    /// The newest no-op memo reading the gauges show.
    noop_last: MemoStats,
}

impl Hub {
    fn healthy(&self) -> bool {
        self.sentinels.iter().all(|s| !s.breached)
            && self.tenants.values().all(|t| !t.run_sentinel.breached)
    }
}

/// The daemon-wide observability hub. Cheap to clone the `Arc`; all methods
/// take `&self`.
pub struct ServeMetrics {
    epoch: Instant,
    slo: SloConfig,
    hub: Mutex<Hub>,
}

impl ServeMetrics {
    /// A fresh hub whose sentinels follow `slo`.
    pub fn new(slo: SloConfig) -> Arc<ServeMetrics> {
        let sentinels = vec![
            Sentinel::new("queue_wait_ms", slo.queue_ms, SloKind::Above, slo.alpha),
            Sentinel::new("run_wall_ms", slo.run_ms, SloKind::Above, slo.alpha),
            Sentinel::new("compile_us", slo.compile_us, SloKind::Above, slo.alpha),
            Sentinel::new("cache_hit_ratio", slo.hit_ratio_min, SloKind::Below, slo.alpha),
        ];
        Arc::new(ServeMetrics {
            epoch: Instant::now(),
            slo,
            hub: Mutex::new(Hub {
                global: MetricsRegistry::new(WindowCfg::default()),
                tenants: BTreeMap::new(),
                sentinels,
                recent: VecDeque::new(),
                cache_last: SharedCacheStats::default(),
                noop_last: MemoStats::default(),
            }),
        })
    }

    /// Milliseconds since the hub was created (the registries' time base).
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn tenant_reg<'h>(hub: &'h mut Hub, tenant: &str, slo: &SloConfig) -> &'h mut TenantScope {
        hub.tenants.entry(tenant.to_string()).or_insert_with(|| TenantScope {
            reg: MetricsRegistry::new(WindowCfg::default()),
            run_sentinel: Sentinel::new("run_wall_ms", slo.run_ms, SloKind::Above, slo.alpha),
        })
    }

    /// Apply `f` to the global registry and to `tenant`'s.
    fn both(&self, hub: &mut Hub, tenant: &str, f: impl Fn(&mut MetricsRegistry)) {
        f(&mut hub.global);
        f(&mut Self::tenant_reg(hub, tenant, &self.slo).reg);
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

    /// The session finished (any exit, including panic): account its
    /// lifecycle numbers, observe the SLOs, push the summary.
    pub fn session_finished(
        &self,
        job: JobSummary,
        cache: SharedCacheStats,
        exec: ExecStats,
        corpus_len: u64,
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
                r.add("passes_reused", job.passes_reused, now);
                r.add("passes_skipped", job.passes_skipped, now);
                r.add("measurements", job.measurements, now);
                r.add("warm_seeds", job.warm_seeds, now);
                r.observe("run_wall_ms", job.run_ms, now);
            });
            // Tenant names are `[A-Za-z0-9_-]` (checked at submit), so they
            // splice into an event name as they are.
            let scope = Self::tenant_reg(&mut hub, &job.tenant, &self.slo);
            let s = &mut scope.run_sentinel;
            if s.observe(job.run_ms as f64) {
                breached.push((
                    format!("tenant.{}.{}", job.tenant, s.name),
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
            // The execution memo, summed over the program bases, as the
            // `stats` verb reports it. Every one of these readings only
            // grows (an LRU at capacity evicts one entry per insert), so a
            // reading taken before a concurrent job's later one never moves
            // a gauge back.
            let m = exec.memo;
            for (name, v) in [
                ("exec.hits", m.hits),
                ("exec.misses", m.misses),
                ("exec.evictions", m.evictions),
                ("exec.len", m.len),
                ("exec.bases", exec.bases),
            ] {
                let v = hub.global.gauge(name).map_or(v, |old| old.max(v));
                hub.global.set_gauge(name, v);
            }
            // The no-op memo's occupancy falls when a generation is
            // dropped, so its gauges show the newest reading whole instead.
            // Every lookup or insert raises a memo's hits + misses +
            // evictions + len (a dropped generation only moves its count
            // from len to evictions), so of two readings the one with the
            // larger sum is the later, and equal sums read the same state.
            let n = exec.noop;
            let age = |m: MemoStats| m.hits + m.misses + m.evictions + m.len;
            if age(n) >= age(hub.noop_last) {
                hub.noop_last = n;
                for (name, v) in [
                    ("noop.hits", n.hits),
                    ("noop.misses", n.misses),
                    ("noop.evictions", n.evictions),
                    ("noop.len", n.len),
                ] {
                    hub.global.set_gauge(name, v);
                }
            }
            hub.cache_last = cache;

            hub.recent.push_back(job.clone());
            while hub.recent.len() > RECENT_CAP {
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
        Self::tenant_reg(&mut hub, tenant, &self.slo).reg.add(name, delta, now);
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
        self.hub.lock().unwrap().healthy()
    }

    /// The wire spelling of the health verdict: `ok` or `degraded`.
    pub fn health_str(&self) -> &'static str {
        if self.healthy() {
            "ok"
        } else {
            "degraded"
        }
    }

    /// The `metrics` reply: structured JSON on one line. Readable `f64`s
    /// are carried twice: `*_bits` (`f64::to_bits`, exact) and a formatted
    /// decimal string (for humans; never compared by gates).
    pub fn reply_json(&self) -> String {
        let now = self.now_ms();
        let hub = self.hub.lock().unwrap();
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
            ("health".to_string(), vs(if hub.healthy() { "ok" } else { "degraded" })),
            ("window_ms".to_string(), Value::U64(hub.global.cfg.width_ms)),
            ("windows".to_string(), Value::U64(hub.global.cfg.ring as u64)),
            ("slo".to_string(), Value::Arr(slo)),
            ("global".to_string(), Value::Obj(registry_json(&hub.global, now))),
            ("tenants".to_string(), tenants),
            ("recent".to_string(), recent),
        ])
        .emit_compact()
    }
}

fn vs(v: &str) -> Value {
    Value::Str(v.to_string())
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

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_telemetry::Trace;

    fn hub() -> Arc<ServeMetrics> {
        ServeMetrics::new(SloConfig::default())
    }

    /// Finish `job` with no cache traffic.
    fn finish(m: &ServeMetrics, job: JobSummary, corpus_len: u64) {
        m.session_finished(job, Default::default(), Default::default(), corpus_len);
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
            passes_reused: 3,
            passes_skipped: 5,
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
            ExecStats {
                memo: MemoStats { hits: 2, len: 6, ..Default::default() },
                noop: MemoStats { hits: 9, misses: 4, len: 3, ..Default::default() },
                bases: 1,
            },
            5,
        );
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.global.total("jobs.submitted"), 1);
        assert_eq!(hub.global.total("jobs.done"), 1);
        assert_eq!(hub.global.total("compiles"), 10);
        assert_eq!(hub.global.total("passes_reused"), 3);
        assert_eq!(hub.global.total("passes_skipped"), 5);
        assert_eq!(hub.global.gauge("noop.hits"), Some(9));
        assert_eq!(hub.global.gauge("noop.len"), Some(3));
        assert_eq!(hub.global.gauge("exec.hits"), Some(2));
        assert_eq!(hub.global.gauge("exec.len"), Some(6));
        assert_eq!(hub.global.gauge("exec.bases"), Some(1));
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
            Default::default(),
            0,
        );
        m.session_started("a", 0);
        m.session_finished(
            job("j2", "a", "completed", 1),
            SharedCacheStats { hits: 12, misses: 10, ..Default::default() },
            Default::default(),
            0,
        );
        let hub = m.hub.lock().unwrap();
        // Second job contributed only the delta (2 hits, 0 misses).
        assert_eq!(hub.global.total("cache.hits"), 12);
        assert_eq!(hub.global.total("cache.misses"), 10);
    }

    #[test]
    fn slo_breach_flips_health_and_recovers() {
        let m = ServeMetrics::new(SloConfig { run_ms: 100.0, alpha: 1.0, ..Default::default() });
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
    fn spans_feed_latency_hists() {
        let m = hub();
        for (name, dur_ns) in [("compile", 5_000), ("measure", 2_000), ("gp.fit", 1_000)] {
            let name = name.to_string();
            let rec = SpanRecord { id: 1, parent: 0, name, thread: 1, start_ns: 0, dur_ns };
            m.feed_span("a", &rec);
        }
        let hub = m.hub.lock().unwrap();
        assert_eq!(hub.global.hist("span.compile_us").unwrap().max, 5);
        assert_eq!(hub.global.hist("span.measure_us").unwrap().count, 1);
        assert!(hub.global.hist("span.gp.fit_us").is_none()); // not a tracked hist
        assert_eq!(hub.tenants["a"].reg.hist("span.compile_us").unwrap().count, 1);
    }

    #[test]
    fn compile_breach_in_sink_path_is_emitted_without_a_lifecycle_hook() {
        // The breach is detected inside sink dispatch, where the global
        // telemetry sink lock is held; its event must still reach the job's
        // stream, with no session_started/session_finished to carry it.
        use crate::telemetry_route::{RoutingSink, SessionTable};
        use citroen_telemetry as telemetry;
        let m = ServeMetrics::new(SloConfig { compile_us: 1e-6, alpha: 1.0, ..Default::default() });
        let table = SessionTable::default();
        let path = std::env::temp_dir()
            .join(format!("citroen-compile-breach-{}.jsonl", std::process::id()));
        telemetry::install(Box::new(RoutingSink::new(table.clone(), m.clone())));
        telemetry::counter("outside.session", 1); // no session yet: dropped
        table.enter("a", Some(&path));
        telemetry::counter("inside.session", 1);
        {
            let _compile = telemetry::span("compile");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        table.leave();
        telemetry::disable();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(m.health_str(), "degraded");
        let streamed = Trace::parse_jsonl(&text).unwrap();
        let events: Vec<&str> = streamed.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(events, ["slo.breach.compile_us"]);
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
        let line = m.reply_json();
        assert!(!line.contains('\n'), "{line}");
        let v = Value::parse(&line).expect("parses");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("metrics"));
        assert_eq!(v.get("health").and_then(Value::as_str), Some("ok"));
        let done = v
            .get("global")
            .and_then(|g| g.get("counters"))
            .and_then(|c| c.get("jobs.done"))
            .and_then(|c| c.get("total"))
            .and_then(Value::as_u64);
        assert_eq!(done, Some(1));
    }

    #[test]
    fn fmt_f64_is_compact() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(12.3456), "12.346");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
    }
}
