//! Cross-tenant shared state: the compile cache, the once-loaded
//! interaction graph, the shared worker pool, the transfer corpus, and one
//! program base (with its execution memo) per suite program.

use citroen_bo::transfer::TransferEntry;
use citroen_core::{MemoStats, SharedCompileCache, TaskBase};
use citroen_passes::oracle::InteractionGraph;
use citroen_rt::par::WorkerPool;
use std::sync::{Arc, Mutex, OnceLock};

/// Daemon configuration (one per process).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent tuning sessions (session threads). Default 2.
    pub max_concurrent: usize,
    /// Per-job budget cap; submissions above it are rejected with
    /// `over-budget`. Default 200.
    pub max_budget: usize,
    /// Cross-tenant compile-cache capacity in entries (LRU; 0 = unbounded).
    /// Default 4096.
    pub cache_cap: usize,
    /// Persisted `citroen-analyze oracle --json` interaction graph, loaded
    /// once and shared with every session (warm-starting canonicalisation).
    pub graph_path: Option<String>,
    /// Directory for per-job JSONL telemetry streams (`<dir>/<job id>.jsonl`,
    /// readable while live with `citroen-trace show`). `None` = no telemetry.
    pub trace_dir: Option<String>,
    /// SLO sentinel: queue-wait EWMA ceiling, milliseconds.
    pub slo_queue_ms: f64,
    /// SLO sentinel: run-wall EWMA ceiling, milliseconds.
    pub slo_run_ms: f64,
    /// SLO sentinel: compile-span EWMA ceiling, microseconds.
    pub slo_compile_us: f64,
    /// SLO sentinel: shared-cache hit-ratio EWMA floor (0 = disabled).
    pub slo_hit_ratio: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let slo = crate::metrics::SloConfig::default();
        ServeConfig {
            max_concurrent: 2,
            max_budget: 200,
            cache_cap: 4096,
            graph_path: None,
            trace_dir: None,
            slo_queue_ms: slo.queue_ms,
            slo_run_ms: slo.run_ms,
            slo_compile_us: slo.compile_us,
            slo_hit_ratio: slo.hit_ratio_min,
        }
    }
}

/// Shared state every session sees. One instance per daemon; connections
/// served sequentially reuse it, so the cache and corpus keep warming.
pub struct ServeState {
    /// Daemon configuration.
    pub cfg: ServeConfig,
    /// Cross-tenant compile cache, keyed (source-module fingerprint,
    /// canonical genome).
    pub cache: Arc<SharedCompileCache>,
    /// Interaction graph loaded once from [`ServeConfig::graph_path`]
    /// (`None` when unset or unreadable — sessions fall back to per-task
    /// derivation exactly as standalone runs do).
    pub graph: Option<Arc<InteractionGraph>>,
    /// One worker pool shared by all sessions, so N tenants don't spawn
    /// N × threads. Safe for concurrent `map` callers (whole-batch
    /// serialisation in `rt::par`).
    pub pool: Arc<WorkerPool>,
    /// Completed sessions' transfer entries, in completion order.
    pub corpus: Mutex<Vec<TransferEntry>>,
    /// One slot per suite program, filled with its [`TaskBase`] by the
    /// first job that names it and shared by every later one. Bounded by
    /// the suite, since submit rejects any other name.
    bases: Vec<(&'static str, OnceLock<Arc<TaskBase>>)>,
}

/// Execution-memo counters summed over the daemon's program bases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// The summed memo counters and occupancy.
    pub memo: MemoStats,
    /// Program bases built so far.
    pub bases: u64,
}

impl ServeState {
    /// Build the daemon state, loading the interaction graph once.
    pub fn new(cfg: ServeConfig) -> ServeState {
        let graph = cfg.graph_path.as_deref().and_then(|path| {
            let load = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|t| InteractionGraph::from_json(&t));
            match load {
                Ok(g) => Some(Arc::new(g)),
                Err(e) => {
                    eprintln!("warning: ignoring oracle graph '{path}': {e}");
                    None
                }
            }
        });
        let pool = Arc::new(WorkerPool::new(citroen_rt::par::thread_count(8)));
        let cache = Arc::new(SharedCompileCache::new(cfg.cache_cap));
        let bases = citroen_suite::names().map(|name| (name, OnceLock::new())).collect();
        ServeState { cfg, cache, graph, pool, corpus: Mutex::new(Vec::new()), bases }
    }

    /// The shared base of suite program `bench`, built on first use; `None`
    /// for a name outside the suite. Concurrent first users of one program
    /// wait for a single build.
    pub fn base(&self, bench: &str) -> Option<Arc<TaskBase>> {
        let (name, slot) = self.bases.iter().find(|(name, _)| *name == bench)?;
        let base = slot.get_or_init(|| {
            Arc::new(crate::server::job_base(name).expect("suite names build"))
        });
        Some(Arc::clone(base))
    }

    /// Memo counters and occupancy over every base built so far.
    pub fn exec_stats(&self) -> ExecStats {
        let built = self.bases.iter().filter_map(|(_, slot)| slot.get());
        built.fold(ExecStats::default(), |acc, base| ExecStats {
            memo: acc.memo + base.memo_stats(),
            bases: acc.bases + 1,
        })
    }
}
