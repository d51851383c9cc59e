//! Cross-tenant shared state: the compile cache, the once-loaded
//! interaction graph, the shared worker pool, and the transfer corpus.

use citroen_bo::transfer::TransferEntry;
use citroen_core::SharedCompileCache;
use citroen_passes::oracle::InteractionGraph;
use citroen_rt::par::WorkerPool;
use std::sync::{Arc, Mutex};

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
    /// Maintain the observability plane (windowed metrics, continuous
    /// profiling, SLO sentinels; DESIGN.md §12). Default on — the 10-seed
    /// identity gate proves it never perturbs results.
    pub metrics: bool,
    /// Window width of the metrics ring buffers in milliseconds. Default
    /// 10 000 (six windows ≈ one minute of recent history).
    pub metrics_window_ms: u64,
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
            metrics: true,
            metrics_window_ms: 10_000,
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
        ServeState { cfg, cache, graph, pool, corpus: Mutex::new(Vec::new()) }
    }
}
