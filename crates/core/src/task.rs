//! The autotuning task abstraction (paper §5.3.6): wraps a benchmark, a
//! platform and a pass registry into the two operations every tuner needs —
//! *compile* (cheap, yields compilation statistics and a binary fingerprint)
//! and *measure* (expensive, counts against the runtime-measurement budget).
//!
//! Measurements are guarded by differential testing (§5.4.1) and deduplicated
//! by binary fingerprint (identical binaries reuse the cached runtime without
//! consuming budget — the Kulkarni-style redundancy pruning CITROEN's
//! coverage handling builds on).

use citroen_ir::interp::Value;
use citroen_ir::module::Module;
use citroen_passes::{o3_pipeline, PassId, PassManager, Registry, Stats};
use citroen_sim::Platform;
use citroen_suite::Benchmark;
use citroen_rt::rng::StdRng;
use citroen_rt::rng::SeedableRng;
use citroen_telemetry as telemetry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Task configuration.
#[derive(Debug, Clone)]
pub struct TaskConfig {
    /// Pass-sequence length (the paper uses 120; we default to 32 so the
    /// default experiment suite runs in minutes — still a ~10⁴⁹ space).
    pub seq_len: usize,
    /// Runtime measurements per evaluation, averaged (paper: 3).
    pub reps: u32,
    /// Random seed for measurement noise.
    pub seed: u64,
}

impl Default for TaskConfig {
    fn default() -> TaskConfig {
        TaskConfig { seq_len: 32, reps: 3, seed: 0 }
    }
}

/// Wall-time breakdown of a tuning run (Fig. 5.12's categories).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeBreakdown {
    /// Compiling candidates + collecting statistics.
    pub compile: Duration,
    /// Executing binaries for runtime measurements (the profiling cost).
    pub measure: Duration,
    /// Everything else (surrogate model, acquisition — "algorithmic").
    pub model: Duration,
}

/// Error cases surfaced by the task.
#[derive(Debug)]
pub enum TuneError {
    /// The optimised binary behaved differently from the reference.
    DifferentialMismatch {
        /// Pass sequence (per hot module) that produced the bad binary.
        seqs: Vec<Vec<PassId>>,
    },
    /// The binary trapped at runtime.
    Trap(citroen_ir::interp::Trap),
}

/// A phase-ordering autotuning task over one benchmark.
pub struct Task {
    /// The pass registry in play.
    pub registry: Registry,
    /// Evaluation platform.
    pub platform: Platform,
    bench: Benchmark,
    cfg: TaskConfig,
    /// Indices of the modules being tuned (hot modules); all others are
    /// compiled at `-O3`.
    pub hot_modules: Vec<usize>,
    /// `-O3` modules for the cold part (and the baseline).
    o3_modules: Vec<Module>,
    /// Reference output (from the unoptimised sources).
    reference: (Option<Value>, u64),
    /// Baseline `-O3` runtime in (noise-free) seconds.
    pub o3_seconds: f64,
    /// Baseline `-O0` runtime in seconds (for sanity reporting).
    pub o0_seconds: f64,
    /// Cache: binary fingerprint → noise-free seconds.
    runtime_cache: HashMap<u64, f64>,
    rng: StdRng,
    /// Number of budget-consuming measurements so far.
    pub measurements: usize,
    /// Number of compilations so far.
    pub compilations: usize,
    /// Passes executed across all compilations so far — the compile *work*
    /// figure. Unlike `compilations`, this credits the sequence
    /// canonicalizer for shortening a genome even when the shortened form
    /// still has to be compiled.
    pub passes_executed: usize,
    /// Number of measure requests answered from the fingerprint cache.
    pub cache_hits: usize,
    /// Charge cached (duplicate-binary) measurements against the budget.
    /// Off by default (Kulkarni-style redundancy pruning); the coverage
    /// ablation turns it on so duplicated candidates genuinely waste budget,
    /// as they would without the dedup machinery (Table 5.2).
    pub charge_cached: bool,
    /// Wall-time breakdown.
    pub times: TimeBreakdown,
}

impl Task {
    /// Build a task: profile hot modules on the `-O3` build, cache baselines.
    pub fn new(bench: Benchmark, registry: Registry, platform: Platform, cfg: TaskConfig) -> Task {
        let _span = telemetry::span("task.setup");
        let pm = PassManager::new(&registry);
        let o3 = o3_pipeline(&registry);
        let o3_modules: Vec<Module> =
            bench.modules.iter().map(|m| pm.compile(m, &o3).module).collect();

        // Reference behaviour from the unoptimised build.
        let linked0 = bench.link();
        let entry0 = bench.entry_in(&linked0);
        let exec0 = platform
            .execute(&linked0, entry0, &bench.args)
            .unwrap_or_else(|t| panic!("{}: reference run trapped: {t}", bench.name));
        let reference = (exec0.output.ret, exec0.output.mem_digest);
        let o0_seconds = exec0.seconds;

        let linked3 = bench.link_with(Some(&o3_modules));
        let entry3 = bench.entry_in(&linked3);
        let exec3 = platform
            .execute(&linked3, entry3, &bench.args)
            .unwrap_or_else(|t| panic!("{}: -O3 run trapped: {t}", bench.name));
        assert_eq!(
            (exec3.output.ret, exec3.output.mem_digest),
            reference,
            "{}: -O3 build fails differential testing",
            bench.name
        );
        let o3_seconds = exec3.seconds;

        // Hot modules: perf-style profile of the -O3 build (§5.3.1).
        let prof =
            citroen_suite::profile::profile_modules(&bench, Some(&o3_modules), &platform, 0.9);
        let hot_modules = prof.hot.clone();

        Task {
            registry,
            platform,
            bench,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            hot_modules,
            o3_modules,
            reference,
            o3_seconds,
            o0_seconds,
            runtime_cache: HashMap::new(),
            measurements: 0,
            compilations: 0,
            passes_executed: 0,
            cache_hits: 0,
            charge_cached: false,
            times: TimeBreakdown::default(),
        }
    }

    /// Convenience: single hot module (the common cBench case).
    pub fn hot(&self) -> usize {
        self.hot_modules[0]
    }

    /// The benchmark under tuning.
    pub fn benchmark(&self) -> &Benchmark {
        &self.bench
    }

    /// The configured sequence length.
    pub fn seq_len(&self) -> usize {
        self.cfg.seq_len
    }

    /// Compile one hot module with `seq` (cheap; does not consume budget).
    /// Returns the per-module compilation statistics and the fingerprint of
    /// the *whole linked program* with the remaining modules at `-O3`.
    pub fn compile_hot(&mut self, module_idx: usize, seq: &[PassId]) -> (Stats, u64, Module) {
        let _span = telemetry::span("compile");
        let t0 = Instant::now();
        let out = self.compile_hot_pure(module_idx, seq);
        self.note_compilations(1, t0.elapsed());
        self.passes_executed += seq.len();
        out
    }

    /// The side-effect-free half of [`Task::compile_hot`]: compiles through a
    /// shared reference (so worker threads can run it concurrently) and emits
    /// the `task.compilations` counter, but touches no task accounting. The
    /// caller charges the work afterwards with [`Task::note_compilations`];
    /// span attribution is the caller's job too (the batched tuner opens a
    /// per-candidate `compile` span on the worker).
    pub fn compile_hot_pure(&self, module_idx: usize, seq: &[PassId]) -> (Stats, u64, Module) {
        let pm = PassManager::new(&self.registry);
        let res = pm.compile(&self.bench.modules[module_idx], seq);
        telemetry::counter("task.compilations", 1);
        (res.stats, res.fingerprint, res.module)
    }

    /// Charge `n` compilations totalling `elapsed` of wall time against the
    /// task — the sequential bookkeeping half of [`Task::compile_hot_pure`].
    pub fn note_compilations(&mut self, n: usize, elapsed: Duration) {
        self.compilations += n;
        self.times.compile += elapsed;
    }

    /// Assemble the full program with the given per-hot-module optimised
    /// modules (cold modules at `-O3`) and return its linked fingerprint.
    pub fn assemble(&self, optimised_hot: &[(usize, &Module)]) -> (Module, u64) {
        let _span = telemetry::span("link");
        let mut mods = self.o3_modules.clone();
        for (idx, m) in optimised_hot {
            mods[*idx] = (*m).clone();
        }
        let linked = self.bench.link_with(Some(&mods));
        let fp = citroen_ir::print::fingerprint(&linked);
        (linked, fp)
    }

    /// Measure a fully-assembled program. Consumes one budget unit unless
    /// the fingerprint was measured before. Returns noisy averaged seconds.
    pub fn measure_linked(&mut self, linked: &Module, fp: u64) -> Result<f64, TuneError> {
        let _span = telemetry::span("measure");
        if self.runtime_cache.contains_key(&fp) {
            return self.admit_execution(fp, None);
        }
        let outcome = self.execute_linked_pure(linked);
        self.admit_execution(fp, Some(outcome))
    }

    /// Noise-free runtime for a fingerprint measured earlier, if any.
    pub fn cached_runtime(&self, fp: u64) -> Option<f64> {
        self.runtime_cache.get(&fp).copied()
    }

    /// The side-effect-free half of [`Task::measure_linked`]: execute an
    /// assembled program and differential-test it through a shared reference
    /// (worker-thread safe). Touches no budget, cache, RNG, or counters —
    /// admit the outcome sequentially with [`Task::admit_execution`]. Both
    /// arms carry the execution wall time so admission can charge it.
    pub fn execute_linked_pure(
        &self,
        linked: &Module,
    ) -> Result<(f64, Duration), (TuneError, Duration)> {
        let t0 = Instant::now();
        let entry = self.bench.entry_in(linked);
        let exec = match self.platform.execute(linked, entry, &self.bench.args) {
            Ok(e) => e,
            Err(t) => return Err((TuneError::Trap(t), t0.elapsed())),
        };
        if (exec.output.ret, exec.output.mem_digest) != self.reference {
            return Err((TuneError::DifferentialMismatch { seqs: Vec::new() }, t0.elapsed()));
        }
        Ok((exec.seconds, t0.elapsed()))
    }

    /// Sequentially admit one execution outcome (or answer it from the
    /// fingerprint cache when `executed` is `None` or the fingerprint raced
    /// into the cache earlier in the same batch): updates budget accounting
    /// and the runtime cache, then draws the measurement noise from the task
    /// RNG. Admission order defines the noise stream, so the batched tuner
    /// admits strictly in batch order to stay deterministic.
    pub fn admit_execution(
        &mut self,
        fp: u64,
        executed: Option<Result<(f64, Duration), (TuneError, Duration)>>,
    ) -> Result<f64, TuneError> {
        if let Some(&base) = self.runtime_cache.get(&fp) {
            self.cache_hits += 1;
            telemetry::counter("task.cache_hits", 1);
            if self.charge_cached {
                self.measurements += 1;
            }
            // Cached binaries are not re-run, but we still return a noisy
            // observation of the cached ground truth.
            return Ok(self.noisy(base));
        }
        match executed.expect("uncached fingerprint needs an execution outcome") {
            Ok((seconds, elapsed)) => {
                self.runtime_cache.insert(fp, seconds);
                self.measurements += 1;
                telemetry::counter("task.measurements", 1);
                let t = self.noisy(seconds);
                self.times.measure += elapsed;
                Ok(t)
            }
            // Mirror the historical accounting exactly: a differential
            // mismatch charges its execution time, a trap does not (the
            // execute bailed before producing a comparable run).
            Err((e @ TuneError::DifferentialMismatch { .. }, elapsed)) => {
                self.times.measure += elapsed;
                Err(e)
            }
            Err((e, _)) => Err(e),
        }
    }

    fn noisy(&mut self, seconds: f64) -> f64 {
        let mut total = 0.0;
        for _ in 0..self.cfg.reps {
            let z = citroen_sim::sample_standard_normal(&mut self.rng);
            total += seconds * (self.platform.noise_sigma * z).exp();
        }
        total / self.cfg.reps as f64
    }

    /// Compile + link + measure a single-hot-module candidate sequence.
    pub fn measure_seq(&mut self, seq: &[PassId]) -> Result<f64, TuneError> {
        let hot = self.hot();
        let (_, _, module) = self.compile_hot(hot, seq);
        let (linked, fp) = self.assemble(&[(hot, &module)]);
        self.measure_linked(&linked, fp)
    }

    /// Speedup of a measured runtime relative to `-O3`.
    pub fn speedup(&self, seconds: f64) -> f64 {
        self.o3_seconds / seconds
    }

    /// Fingerprint of the *source* (unoptimised) module at `module_idx` —
    /// the module-identity half of the cross-tenant compile-cache key.
    pub fn source_fingerprint(&self, module_idx: usize) -> u64 {
        citroen_ir::print::fingerprint(&self.bench.modules[module_idx])
    }

    /// The task's statistics-space descriptor for GRACE-style transfer: the
    /// compilation statistics of the hot module under the canonical `-O3`
    /// pipeline, as name-sorted `(name, value)` pairs. Deterministic and
    /// side-effect free (no budget, no compile accounting) — it describes
    /// the *program*, not the search.
    pub fn stats_descriptor(&self) -> Vec<(String, f64)> {
        let pm = PassManager::new(&self.registry);
        let res = pm.compile(&self.bench.modules[self.hot()], &o3_pipeline(&self.registry));
        let mut v: Vec<(String, f64)> =
            res.stats.iter().map(|(p, s, n)| (format!("{p}.{s}"), n as f64)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Account model/acquisition time (tuners call this around their own work).
    pub fn add_model_time(&mut self, d: Duration) {
        self.times.model += d;
    }
}

/// A tuning trace shared by every tuner (baselines and CITROEN).
#[derive(Debug, Clone, Default)]
pub struct TuneTrace {
    /// Noisy runtime per budget-consuming measurement, in order.
    pub runtimes: Vec<f64>,
    /// Best (lowest) noisy runtime so far, per measurement.
    pub best_history: Vec<f64>,
    /// The best sequence found (per hot module).
    pub best_seqs: Vec<Vec<PassId>>,
    /// Candidates discarded by coverage filtering (Table 5.2).
    pub coverage_dropped: usize,
    /// Candidates generated in total.
    pub candidates_generated: usize,
    /// Task compile count as of each budget-consuming measurement —
    /// `compiles_history[i]` is how many compilations it took to reach
    /// `best_history[i]`. Populated by `run_citroen` (simpler tuners leave
    /// it empty); the transfer warm-start gate reads it to assert that a
    /// warm-started run reaches a target runtime with fewer compiles.
    pub compiles_history: Vec<usize>,
}

impl TuneTrace {
    /// Record a measurement.
    pub fn record(&mut self, runtime: f64, seqs: Vec<Vec<PassId>>) {
        let better = self.best_history.last().map(|b| runtime < *b).unwrap_or(true);
        self.runtimes.push(runtime);
        if better {
            self.best_seqs = seqs;
        }
        let best = self.best_history.last().copied().unwrap_or(f64::INFINITY).min(runtime);
        self.best_history.push(best);
    }

    /// Best runtime found.
    pub fn best(&self) -> f64 {
        self.best_history.last().copied().unwrap_or(f64::INFINITY)
    }

    /// Compilations consumed up to the first measurement whose best-so-far
    /// runtime is at or below `target`. `None` when the run never reached
    /// `target`, or when the tuner didn't populate `compiles_history`.
    pub fn compiles_to_reach(&self, target: f64) -> Option<usize> {
        let i = self.best_history.iter().position(|&b| b <= target)?;
        self.compiles_history.get(i).copied()
    }

    /// Best-so-far runtime after `n` measurements (∞ if not reached).
    pub fn best_at(&self, n: usize) -> f64 {
        if n == 0 {
            return f64::INFINITY;
        }
        self.best_history.get(n.min(self.best_history.len()) - 1).copied().unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_task() -> Task {
        Task::new(
            citroen_suite::kernels::telecom_gsm(),
            Registry::full(),
            Platform::tx2(),
            TaskConfig::default(),
        )
    }

    #[test]
    fn o3_beats_o0_and_reference_checks() {
        let t = small_task();
        assert!(t.o3_seconds < t.o0_seconds, "O3 {} vs O0 {}", t.o3_seconds, t.o0_seconds);
        assert_eq!(t.hot_modules, vec![0]);
    }

    #[test]
    fn measure_counts_budget_and_caches() {
        let mut t = small_task();
        let o3 = o3_pipeline(&t.registry);
        let r1 = t.measure_seq(&o3).unwrap();
        assert_eq!(t.measurements, 1);
        // Same sequence → same binary → cache hit, no new measurement.
        let r2 = t.measure_seq(&o3).unwrap();
        assert_eq!(t.measurements, 1);
        assert_eq!(t.cache_hits, 1);
        // Both are near the baseline O3 seconds.
        for r in [r1, r2] {
            assert!((r / t.o3_seconds - 1.0).abs() < 0.05, "{r} vs {}", t.o3_seconds);
        }
        assert!(t.compilations >= 2);
        assert!(t.times.compile > Duration::ZERO);
        assert!(t.times.measure > Duration::ZERO);
    }

    #[test]
    fn differential_testing_passes_for_valid_seqs() {
        let mut t = small_task();
        let seq = t.registry.parse_seq("mem2reg,instcombine,gvn,simplifycfg").unwrap();
        let r = t.measure_seq(&seq).unwrap();
        assert!(r > 0.0);
    }

    #[test]
    fn trace_bookkeeping() {
        let mut tr = TuneTrace::default();
        tr.record(2.0, vec![vec![]]);
        tr.record(1.0, vec![vec![PassId(1)]]);
        tr.record(1.5, vec![vec![]]);
        assert_eq!(tr.best(), 1.0);
        assert_eq!(tr.best_at(1), 2.0);
        assert_eq!(tr.best_at(3), 1.0);
        assert_eq!(tr.best_seqs, vec![vec![PassId(1)]]);
    }
}
