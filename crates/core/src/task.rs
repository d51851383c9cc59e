//! The autotuning task abstraction (paper §5.3.6): wraps a benchmark, a
//! platform and a pass registry into the two operations every tuner needs —
//! *compile* (cheap, yields compilation statistics and a binary fingerprint)
//! and *measure* (expensive, counts against the runtime-measurement budget).
//!
//! Measurements are guarded by differential testing (§5.4.1) and deduplicated
//! by binary fingerprint (a binary the session already measured is answered
//! by the execution memo without consuming budget — the Kulkarni-style
//! redundancy pruning CITROEN's coverage handling builds on).
//!
//! A task is two halves: a [`TaskBase`] holding what the program alone
//! determines (the `-O3` build, the reference run, the hot-module profile,
//! and a memo of every binary's execution outcome), shareable across
//! sessions, and the per-session state (seed, budget counters, the set of
//! binaries charged). Sessions over one base simulate each binary at most
//! once while its memo entry lives.

use citroen_ir::interp::Value;
use citroen_ir::module::Module;
use citroen_passes::{o3_pipeline, PassId, PassManager, Prefix, Registry, Stats};
use citroen_sim::Platform;
use citroen_suite::Benchmark;
use citroen_rt::rng::StdRng;
use citroen_rt::rng::SeedableRng;
use citroen_rt::par::WorkerPool;
use crate::cache::BoundedCache;
use citroen_telemetry as telemetry;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};
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
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The optimised binary behaved differently from the reference.
    DifferentialMismatch {
        /// Pass sequence (per hot module) that produced the bad binary.
        seqs: Vec<Vec<PassId>>,
    },
    /// The binary trapped at runtime.
    Trap(citroen_ir::interp::Trap),
}

/// Entries a program's execution memo holds. An entry is a fingerprint and
/// an outcome (tens of bytes), and a daemon job measures at most its budget
/// of distinct binaries, so this covers hundreds of jobs per program.
pub const EXEC_MEMO_CAP: usize = 4096;

/// The memo lock is held only for a lookup or an insert, neither of which
/// can panic, so a poisoned lock is a bug.
const MEMO_POISONED: &str = "execution memo lock poisoned";

/// What one execution request produced: the binary's deterministic outcome
/// (noise-free seconds, a trap, or a differential mismatch) and the
/// simulator wall time it cost, `None` when the memo answered.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Noise-free seconds, or why the binary cannot be measured.
    pub outcome: Result<f64, TuneError>,
    /// Simulator wall time; `None` for a memo hit.
    pub ran: Option<Duration>,
}

/// A snapshot of execution-memo counters (one memo, or a sum of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Executions answered from the memo.
    pub hits: u64,
    /// Executions the simulator ran.
    pub misses: u64,
    /// Entries evicted (LRU).
    pub evictions: u64,
    /// Current entry count.
    pub len: u64,
}

impl std::ops::Add for MemoStats {
    type Output = MemoStats;
    fn add(self, o: MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            len: self.len + o.len,
        }
    }
}

/// The immutable half of a task: everything derived from the benchmark,
/// the pass registry and the platform alone. One base can back any number
/// of sessions (`Arc`-shared across a daemon's jobs); it also owns the
/// program's execution memo, so a binary any of those sessions simulated is
/// never simulated again while its entry lives.
pub struct TaskBase {
    /// The pass registry in play.
    pub registry: Registry,
    /// Evaluation platform.
    pub platform: Platform,
    bench: Benchmark,
    /// Hot modules of the `-O3` profile; each task starts from a copy.
    profiled_hot: Vec<usize>,
    /// `-O3` modules for the cold part (and the baseline).
    o3_modules: Vec<Module>,
    /// Reference output (from the unoptimised sources).
    reference: (Option<Value>, u64),
    /// Baseline `-O3` runtime in (noise-free) seconds.
    pub o3_seconds: f64,
    /// Baseline `-O0` runtime in seconds (for sanity reporting).
    pub o0_seconds: f64,
    /// [`TaskBase::stats_descriptor`], computed on first use.
    descriptor: OnceLock<Vec<(String, f64)>>,
    /// Linked-binary fingerprint → deterministic execution outcome.
    memo: Mutex<BoundedCache<u64, Result<f64, TuneError>>>,
}

impl TaskBase {
    /// Build a program base: compile the `-O3` modules, take the reference
    /// and baseline runs, and profile the hot modules.
    pub fn new(bench: Benchmark, registry: Registry, platform: Platform) -> TaskBase {
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

        TaskBase {
            registry,
            platform,
            bench,
            profiled_hot: prof.hot,
            o3_modules,
            reference,
            o3_seconds,
            o0_seconds,
            descriptor: OnceLock::new(),
            memo: Mutex::new(BoundedCache::new(EXEC_MEMO_CAP)),
        }
    }

    /// The benchmark under tuning.
    pub fn benchmark(&self) -> &Benchmark {
        &self.bench
    }

    /// Compile a run of `(module index, sequence)` jobs sorted by module
    /// and then by sequence, each exactly as [`PassManager::compile`] would
    /// from the source module, but resuming each from the deepest prefix
    /// state an earlier job of the run passed through. In sorted order that
    /// depth is the longest common prefix (LCP) with the job before, and a
    /// job keeps a copy of its state only at the depths later jobs resume
    /// from, so each branch point costs one clone and at most `seq_len`
    /// states live at once. Each job opens its own `compile` span. Returns
    /// the results in job order and the number of pass runs the resumption
    /// skipped.
    pub fn compile_run(&self, jobs: &[(usize, &[PassId])]) -> (Vec<(Stats, u64, Module)>, usize) {
        debug_assert!(jobs.windows(2).all(|w| w[0] < w[1]), "run jobs must be sorted and unique");
        let pm = PassManager::new(&self.registry);
        let lcp = run_lcps(jobs);
        // States along the current job's path, by increasing depth.
        let mut kept: Vec<(usize, Prefix)> = Vec::new();
        let mut reused = 0;
        let mut out = Vec::with_capacity(jobs.len());
        for (i, &(module_idx, seq)) in jobs.iter().enumerate() {
            let _c = telemetry::span("compile");
            let depth = lcp[i];
            while kept.last().is_some_and(|(d, _)| *d > depth) {
                kept.pop();
            }
            // The depths later jobs resume from that lie on this job's path
            // beyond `depth`: the running minima of the LCPs ahead, until
            // one falls to `depth` or below. Deepest first, so the next
            // depth this job reaches is always the last. `again`: a later
            // job resumes at `depth` too, so its state stays kept.
            let mut wants = Vec::new();
            let mut again = false;
            for &l in &lcp[i + 1..] {
                if l <= depth {
                    again = l == depth;
                    break;
                }
                if wants.last().is_none_or(|&w| l < w) {
                    wants.push(l);
                }
            }
            let start = match kept.last() {
                Some((d, _)) if *d == depth && again => kept[kept.len() - 1].1.clone(),
                Some((d, _)) if *d == depth => kept.pop().expect("just seen").1,
                _ => {
                    assert_eq!(depth, 0, "an earlier job of the run keeps every resumed depth");
                    Prefix::source(&self.bench.modules[module_idx])
                }
            };
            reused += depth;
            let res = pm
                .resume(start, &seq[depth..], |k, state| {
                    if wants.last() == Some(&(depth + k)) {
                        wants.pop();
                        kept.push((depth + k, state.clone()));
                    }
                })
                .unwrap_or_else(|e| panic!("{e}"));
            telemetry::counter("task.compilations", 1);
            out.push((res.stats, res.fingerprint, res.module));
        }
        if reused > 0 {
            telemetry::counter("task.passes_reused", reused as u64);
        }
        (out, reused)
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

    /// Execute the assembled program `linked` (fingerprint `fp`) and
    /// differential-test it, or answer from the memo when this binary ran
    /// before. Safe to call from worker threads; touches no budget, RNG or
    /// session counters — a session admits the result with
    /// [`Task::admit_execution`]. The outcome is a pure function of the
    /// binary, so a memo hit returns exactly what a fresh run would.
    pub fn execute(&self, linked: &Module, fp: u64) -> Execution {
        if let Some(outcome) = self.memo.lock().expect(MEMO_POISONED).get(&fp).cloned() {
            return Execution { outcome, ran: None };
        }
        let t0 = Instant::now();
        let entry = self.bench.entry_in(linked);
        let outcome = match self.platform.execute(linked, entry, &self.bench.args) {
            Err(t) => Err(TuneError::Trap(t)),
            Ok(e) if (e.output.ret, e.output.mem_digest) != self.reference => {
                Err(TuneError::DifferentialMismatch { seqs: Vec::new() })
            }
            Ok(e) => Ok(e.seconds),
        };
        let ran = t0.elapsed();
        self.memo.lock().expect(MEMO_POISONED).insert(fp, outcome.clone());
        Execution { outcome, ran: Some(ran) }
    }

    /// The execution memo's lifetime counters and occupancy.
    pub fn memo_stats(&self) -> MemoStats {
        let m = self.memo.lock().expect(MEMO_POISONED);
        let len = m.len() as u64;
        MemoStats { hits: m.hits(), misses: m.misses(), evictions: m.evictions(), len }
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

    /// The program's statistics-space descriptor for GRACE-style transfer:
    /// the compilation statistics of the profiled hot module under the
    /// canonical `-O3` pipeline, as name-sorted `(name, value)` pairs.
    /// Deterministic and side-effect free (no budget, no compile
    /// accounting) — it describes the *program*, not the search. Computed
    /// once per base.
    pub fn stats_descriptor(&self) -> Vec<(String, f64)> {
        self.descriptor
            .get_or_init(|| {
                let pm = PassManager::new(&self.registry);
                let hot = &self.bench.modules[self.profiled_hot[0]];
                let res = pm.compile(hot, &o3_pipeline(&self.registry));
                let mut v: Vec<(String, f64)> =
                    res.stats.iter().map(|(p, s, n)| (format!("{p}.{s}"), n as f64)).collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            })
            .clone()
    }
}

/// Each job's longest common prefix with the job before it in a sorted
/// run: 0 for the first job and across a change of module.
fn run_lcps(jobs: &[(usize, &[PassId])]) -> Vec<usize> {
    (0..jobs.len())
        .map(|i| match i.checked_sub(1).map(|p| (jobs[p], jobs[i])) {
            Some(((ma, a), (mb, b))) if ma == mb => {
                a.iter().zip(b).take_while(|(x, y)| x == y).count()
            }
            _ => 0,
        })
        .collect()
}

/// Cut sorted `jobs` into at most `k` contiguous runs for
/// [`TaskBase::compile_run`] of about equal work, counting a job's work as
/// the passes it runs once resumed: its length less its LCP with the job
/// before. Mutants resume deep and random genomes from the source, so equal
/// job counts would leave one worker idle.
fn split_runs(jobs: &[(usize, &[PassId])], k: usize) -> Vec<std::ops::Range<usize>> {
    let work: Vec<usize> =
        jobs.iter().zip(run_lcps(jobs)).map(|((_, seq), lcp)| seq.len() - lcp).collect();
    let total: usize = work.iter().sum();
    let mut runs = Vec::with_capacity(k);
    let (mut start, mut done) = (0, 0);
    for (i, w) in work.iter().enumerate() {
        // In units of 1/k of the total: the next cut's goal, and the work
        // done before and after job i.
        let (goal, before, after) = (total * (runs.len() + 1), done * k, (done + w) * k);
        if runs.len() + 1 < k && after >= goal {
            // Cut on whichever side of job i lands nearer the goal.
            let at = if goal.saturating_sub(before) < after - goal && i > start { i } else { i + 1 };
            runs.push(start..at);
            start = at;
        }
        done += w;
    }
    if start < jobs.len() {
        runs.push(start..jobs.len());
    }
    runs
}

/// A phase-ordering autotuning task over one benchmark: a shared
/// [`TaskBase`] (read through `Deref`) plus one session's state — its
/// configuration, noise RNG, charged binaries and counters.
pub struct Task {
    base: Arc<TaskBase>,
    cfg: TaskConfig,
    /// Indices of the modules being tuned (hot modules); all others are
    /// compiled at `-O3`. Starts as the base's profile.
    pub hot_modules: Vec<usize>,
    /// Fingerprints of the binaries this session charged a measurement for.
    charged: HashSet<u64>,
    rng: StdRng,
    /// Number of budget-consuming measurements so far.
    pub measurements: usize,
    /// Simulator runs this task performed (memo hits excluded).
    pub executions: usize,
    /// Number of compilations so far.
    pub compilations: usize,
    /// Passes executed across all compilations so far — the compile *work*
    /// figure. Unlike `compilations`, this credits the sequence
    /// canonicalizer for shortening a genome even when the shortened form
    /// still has to be compiled.
    pub passes_executed: usize,
    /// Pass runs a compile sweep skipped by resuming a sequence from a
    /// prefix state an earlier sequence of its run had reached. They are
    /// still counted in `passes_executed`, which stays the nominal work.
    pub passes_reused: usize,
    /// Measure requests for a binary this session had already charged.
    pub cache_hits: usize,
    /// Charge cached (duplicate-binary) measurements against the budget.
    /// Off by default (Kulkarni-style redundancy pruning); the coverage
    /// ablation turns it on so duplicated candidates genuinely waste budget,
    /// as they would without the dedup machinery (Table 5.2).
    pub charge_cached: bool,
    /// Wall-time breakdown.
    pub times: TimeBreakdown,
}

impl std::ops::Deref for Task {
    type Target = TaskBase;
    fn deref(&self) -> &TaskBase {
        &self.base
    }
}

impl Task {
    /// Build a task over a fresh base: profile hot modules on the `-O3`
    /// build, cache baselines.
    pub fn new(bench: Benchmark, registry: Registry, platform: Platform, cfg: TaskConfig) -> Task {
        Task::from_base(Arc::new(TaskBase::new(bench, registry, platform)), cfg)
    }

    /// A fresh session over an existing (possibly shared) base.
    pub fn from_base(base: Arc<TaskBase>, cfg: TaskConfig) -> Task {
        Task {
            hot_modules: base.profiled_hot.clone(),
            base,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            charged: HashSet::new(),
            measurements: 0,
            executions: 0,
            compilations: 0,
            passes_executed: 0,
            passes_reused: 0,
            cache_hits: 0,
            charge_cached: false,
            times: TimeBreakdown::default(),
        }
    }

    /// The shared base, for building further sessions over it.
    pub fn base(&self) -> &Arc<TaskBase> {
        &self.base
    }

    /// Convenience: single hot module (the common cBench case).
    pub fn hot(&self) -> usize {
        self.hot_modules[0]
    }

    /// The configured sequence length.
    pub fn seq_len(&self) -> usize {
        self.cfg.seq_len
    }

    /// Compile one hot module with `seq` (cheap; does not consume budget).
    /// Returns the module's compilation statistics, its fingerprint and the
    /// compiled module.
    pub fn compile_hot(&mut self, module_idx: usize, seq: &[PassId]) -> (Stats, u64, Module) {
        let mut out = self.compile_runs(&WorkerPool::new(1), &[(module_idx, seq.to_vec())]);
        out.pop().expect("one job, one result")
    }

    /// Compile unique `(module index, sequence)` jobs on `pool` and charge
    /// them to the session. The jobs are sorted and cut into one contiguous
    /// run of about equal work per pool worker, so each resumes from the
    /// prefix state a neighbour of its run reached
    /// ([`TaskBase::compile_run`]). Returns the results in `jobs` order.
    /// The compile time charged is the wall clock of the whole call, not
    /// the sum of per-worker times.
    pub(crate) fn compile_runs(
        &mut self,
        pool: &WorkerPool,
        jobs: &[(usize, Vec<PassId>)],
    ) -> Vec<(Stats, u64, Module)> {
        let t0 = Instant::now();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| jobs[a].cmp(&jobs[b]));
        let sorted: Vec<(usize, &[PassId])> =
            order.iter().map(|&j| (jobs[j].0, &jobs[j].1[..])).collect();
        let runs = split_runs(&sorted, pool.workers());
        let base = &*self.base;
        let done = pool.map(runs.clone(), |run| base.compile_run(&sorted[run]));
        let mut compiled: Vec<Option<(Stats, u64, Module)>> = jobs.iter().map(|_| None).collect();
        for (run, (results, reused)) in runs.into_iter().zip(done) {
            self.passes_reused += reused;
            for (pos, res) in run.zip(results) {
                compiled[order[pos]] = Some(res);
            }
        }
        self.compilations += jobs.len();
        self.passes_executed += jobs.iter().map(|(_, seq)| seq.len()).sum::<usize>();
        self.times.compile += t0.elapsed();
        compiled.into_iter().map(|c| c.expect("every job is in one run")).collect()
    }

    /// Measure a fully-assembled program. Consumes one budget unit unless
    /// the fingerprint was measured before. Returns noisy averaged seconds.
    pub fn measure_linked(&mut self, linked: &Module, fp: u64) -> Result<f64, TuneError> {
        let _span = telemetry::span("measure");
        let executed = self.base.execute(linked, fp);
        self.admit_execution(fp, executed)
    }

    /// Sequentially admit one execution of the binary with fingerprint
    /// `fp`: updates budget accounting, then draws the measurement noise
    /// from the task RNG. Admission order defines the noise stream, so the
    /// batched tuner admits strictly in batch order to stay deterministic.
    /// A binary this session already charged (earlier, or earlier in the
    /// same batch) is a cache hit and consumes no budget. A memo-answered
    /// execution is admitted exactly like a fresh one; only the simulator
    /// time it did not cost is left out of `times.measure`.
    pub fn admit_execution(&mut self, fp: u64, executed: Execution) -> Result<f64, TuneError> {
        let Execution { outcome, ran } = executed;
        if ran.is_some() {
            self.executions += 1;
        }
        let ran = ran.unwrap_or_default();
        let seconds = match outcome {
            Ok(seconds) => seconds,
            // Mirror the historical accounting exactly: a differential
            // mismatch charges its execution time, a trap does not (the
            // execute bailed before producing a comparable run).
            Err(e @ TuneError::DifferentialMismatch { .. }) => {
                self.times.measure += ran;
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        if !self.charged.insert(fp) {
            self.cache_hits += 1;
            telemetry::counter("task.cache_hits", 1);
            if self.charge_cached {
                self.measurements += 1;
            }
            // A repeat is not charged, but still returns a noisy
            // observation of the binary's ground truth.
            return Ok(self.noisy(seconds));
        }
        self.measurements += 1;
        telemetry::counter("task.measurements", 1);
        self.times.measure += ran;
        Ok(self.noisy(seconds))
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

    #[test]
    fn runs_cover_the_jobs_in_order_and_balance_the_passes_left_to_run() {
        let p = |v: &[u16]| v.iter().map(|&x| PassId(x)).collect::<Vec<_>>();
        // Four deep mutants of one genome, then four unrelated genomes.
        let seqs: Vec<(usize, Vec<PassId>)> = vec![
            (0, p(&[1, 1, 1, 1, 1, 1, 1, 1])),
            (0, p(&[1, 1, 1, 1, 1, 1, 1, 2])),
            (0, p(&[1, 1, 1, 1, 1, 1, 2, 1])),
            (0, p(&[1, 1, 1, 1, 1, 2, 1, 1])),
            (0, p(&[2, 1, 1, 1, 1, 1, 1, 1])),
            (0, p(&[3, 1, 1, 1, 1, 1, 1, 1])),
            (1, p(&[1, 1, 1, 1, 1, 1, 1, 1])),
            (1, p(&[2, 1, 1, 1, 1, 1, 1, 1])),
        ];
        let jobs: Vec<(usize, &[PassId])> = seqs.iter().map(|(m, s)| (*m, &s[..])).collect();
        let bounds = |jobs: &[(usize, &[PassId])], k| -> Vec<(usize, usize)> {
            split_runs(jobs, k).iter().map(|r| (r.start, r.end)).collect()
        };
        assert_eq!(bounds(&jobs, 1), [(0, 8)]);
        // 8 + 1 + 2 + 3 + 8 passes against 8 + 8 + 8: by work, not by count.
        assert_eq!(bounds(&jobs, 2), [(0, 5), (5, 8)]);
        let three = bounds(&jobs, 3);
        assert_eq!((three[0].0, three[2].1), (0, 8));
        assert!(three.windows(2).all(|w| w[0].1 == w[1].0 && w[0].0 < w[0].1));
        assert_eq!(bounds(&jobs[..1], 4), [(0, 1)]);
        assert!(bounds(&[], 2).is_empty());
    }

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

    /// A gsm base whose execution memo holds at most `cap` entries.
    fn capped_gsm_base(cap: usize) -> TaskBase {
        let mut base = TaskBase::new(
            citroen_suite::kernels::telecom_gsm(),
            Registry::full(),
            Platform::tx2(),
        );
        base.memo = Mutex::new(BoundedCache::new(cap));
        base
    }

    #[test]
    fn exec_memo_is_a_bounded_lru() {
        let base = capped_gsm_base(2);
        let hot = base.profiled_hot[0];
        let o3 = o3_pipeline(&base.registry);
        let (mut compiled, _) = base.compile_run(&[(hot, &o3[..])]);
        let (_, _, module) = compiled.pop().expect("one job, one result");
        let (linked, _) = base.assemble(&[(hot, &module)]);
        // The memo keys on the fingerprint it is given: three keys, one
        // binary, so each key's first request runs the simulator.
        for fp in [1, 2, 3] {
            assert!(base.execute(&linked, fp).ran.is_some());
        }
        assert_eq!(base.memo_stats(), MemoStats { hits: 0, misses: 3, evictions: 1, len: 2 });
        assert!(base.execute(&linked, 3).ran.is_none(), "resident entry answers");
        assert!(base.execute(&linked, 1).ran.is_some(), "least recently used entry was evicted");
        assert_eq!(base.memo_stats(), MemoStats { hits: 1, misses: 4, evictions: 2, len: 2 });
    }

    #[test]
    fn a_repeat_evicted_from_the_memo_is_still_a_free_cache_hit() {
        let mut t = Task::from_base(Arc::new(capped_gsm_base(1)), TaskConfig::default());
        let mut twin = small_task();
        let a = o3_pipeline(&t.registry);
        let b = t.registry.parse_seq("mem2reg,instcombine,gvn,simplifycfg").unwrap();
        let mut runs = Vec::new();
        for seq in [&a, &b, &a] {
            runs.push((t.measure_seq(seq).unwrap(), twin.measure_seq(seq).unwrap()));
        }
        // B evicted A, so the repeat of A re-simulates, but the session
        // already charged A: a cache hit that costs no budget.
        assert_eq!(t.memo_stats().evictions, 2);
        assert_eq!((t.measurements, t.cache_hits, t.executions), (2, 1, 3));
        // The twin's memo answered its repeat; both drew the same noise
        // from the same noise-free seconds.
        assert_eq!((twin.measurements, twin.cache_hits, twin.executions), (2, 1, 2));
        for (got, want) in runs {
            assert_eq!(got.to_bits(), want.to_bits());
        }
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
