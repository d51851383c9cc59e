//! CITROEN (paper §5.3): Bayesian-optimisation phase ordering guided by
//! pass-related compilation statistics.
//!
//! Per iteration: a DES-based generator proposes candidate pass sequences
//! (§5.3.5); every candidate is *compiled* (cheap, parallelisable) to collect
//! its compilation statistics; candidates whose statistics/binaries duplicate
//! already-observed points are filtered (the coverage issue, §5.3.4 /
//! Table 5.2); a GP cost model over statistics features (§5.3.3) scores the
//! rest with a UCB acquisition; the winners are *measured* (expensive,
//! budgeted).
//!
//! The same loop tunes one hot module (the default) or every hot module of a
//! multi-module program under an [`Allocation`] policy (thesis §5.3.1): each
//! module keeps its own generator and incumbent, a candidate is linked with
//! the other modules' incumbents, and one cost model reads the concatenated
//! per-module statistics.

use crate::service::{SessionEnv, SessionExit, SessionResult, SharedCompileCache};
use crate::task::{Execution, Task, TuneTrace};
use citroen_bo::heuristics::DiscreteOneLambda;
use citroen_bo::{draw_mc_eps, greedy_batch, Acquisition, SeqCanonicalizer};
use citroen_gp::{Gp, GpConfig, GpHypers, Mat};
use citroen_ir::module::Module;
use citroen_passes::oracle;
use citroen_passes::{PassId, Stats};
use citroen_rt::par::WorkerPool;
use citroen_rt::rng::StdRng;
use citroen_rt::rng::{Rng, SeedableRng};
use citroen_telemetry as telemetry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Monte-Carlo samples per acquisition evaluation during greedy batch
/// construction (only drawn from when `batch > 1`).
const MC_SAMPLES: usize = 32;

/// Capacity of the compile cache a canonicalising session keeps when no
/// shared cache is attached. Entries hold a full `Module`, so the cap
/// bounds a long run's memory; at 40 candidates a sweep it still spans
/// about 25 sweeps.
const PRIVATE_CACHE_CAP: usize = 1024;

/// Which features the cost model is fitted on (Fig. 5.8/5.9 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Pass-related compilation statistics (CITROEN).
    CompilationStats,
    /// Autophase-style static IR features of the optimised module.
    Autophase,
    /// The raw pass sequence itself (standard-BO features).
    RawSequence,
}

/// Candidate generator (Fig. 5.8 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// Discrete 1+λ ES seeded with the search history (§5.3.5) plus a random
    /// stream for exploration — the AIBO-style ensemble.
    Des,
    /// Pure random sequences.
    Random,
}

/// Budget allocation policy across hot modules (thesis §5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// Adaptive: every module's candidates compete in one acquisition, so
    /// each measurement goes to the module whose candidate scores highest
    /// under the global model (the paper's scheme).
    Adaptive,
    /// Cycle through hot modules in order.
    RoundRobin,
    /// Uniform random module choice.
    Uniform,
}

/// CITROEN configuration.
#[derive(Debug, Clone)]
pub struct CitroenConfig {
    /// UCB exploration weight.
    pub beta: f64,
    /// Candidates generated per iteration and tuned module (the paper
    /// compiles these in parallel; so do we, on the session's worker pool,
    /// when `batch > 1`).
    pub candidates: usize,
    /// Initial random sequences measured before the model starts.
    pub init_random: usize,
    /// Feature source.
    pub features: FeatureKind,
    /// Candidate generator.
    pub generator: GeneratorKind,
    /// Filter candidates with already-seen statistics vectors / binaries.
    pub coverage_filter: bool,
    /// Refit GP hyperparameters every this many iterations.
    pub fit_every: usize,
    /// GP settings.
    pub gp: GpConfig,
    /// DES per-position mutation rate override (`None` = 2/len default).
    pub mutation_rate: Option<f64>,
    /// Warm-start the DES incumbent with a known-good sequence (e.g. the
    /// best sequence found on another program — the thesis' §6.3.2
    /// "program-independent pass correlations" future-work direction).
    pub warm_start: Option<Vec<PassId>>,
    /// Extra genomes injected into the initial design, after the DES
    /// incumbent and before the random fill (which shrinks to keep the total
    /// at `init_random`). The service layer seeds these with statistics-space
    /// nearest-neighbour transfer genomes from completed tenants. Each genome
    /// is resized to the task's sequence length; out-of-range pass ids clamp
    /// to 0. Empty by default (identical RNG stream to previous releases).
    pub init_seeds: Vec<Vec<u16>>,
    /// Canonicalise candidate sequences with the precondition oracle before
    /// compiling: passes proven `CannotFire` on the source module (and not
    /// woken by an earlier kept pass, per the interaction graph) are dropped,
    /// and immediate duplicate runs of idempotent passes
    /// ([`citroen_passes::Pass::is_idempotent`]) collapse, so genomes that
    /// differ only in statically-dead or repeated passes share one
    /// compile-cache entry. Off by default (paper-faithful search).
    pub oracle_prune: bool,
    /// Canonicalise candidate sequences with the fuzz-verified work-class
    /// subsumption matrix ([`citroen_passes::Pass::fires_on`]): a pass whose
    /// fire classes are provably cleared by the kept prefix is dropped, so
    /// `p,p` *and* `p,q,p` no-op patterns share one compile-cache entry.
    /// Module-independent (every drop is a theorem on any input), and usable
    /// with or without `oracle_prune`. Off by default (paper-faithful).
    pub subsume_collapse: bool,
    /// Measurements selected and profiled per model-guided iteration (q).
    /// Every q runs the same loop. At `1` the GP is refitted before each
    /// selection (the paper's sequential loop, model staleness 0) and the
    /// compile and measure maps run on the session thread. At `q > 1` a
    /// greedy qUCB batch is selected, compiled and measured on a persistent
    /// `rt::par` worker pool, and the GP fit overlaps the in-flight
    /// measurements (a one-batch-stale model). Deterministic for a fixed
    /// seed at any q.
    pub batch: usize,
    /// `None` tunes the first hot module with the rest at `-O3`. `Some`
    /// tunes every module in `Task::hot_modules`, spending each measurement
    /// on the module the policy picks: under [`Allocation::Adaptive`] every
    /// module's candidates compete in one acquisition; under the other two
    /// only the chosen module generates candidates.
    pub allocation: Option<Allocation>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CitroenConfig {
    fn default() -> CitroenConfig {
        CitroenConfig {
            beta: 1.96,
            candidates: 40,
            init_random: 8,
            features: FeatureKind::CompilationStats,
            generator: GeneratorKind::Des,
            coverage_filter: true,
            fit_every: 4,
            gp: GpConfig { fit_iters: 25, ..Default::default() },
            mutation_rate: None,
            warm_start: None,
            init_seeds: Vec::new(),
            oracle_prune: false,
            subsume_collapse: false,
            batch: 1,
            allocation: None,
            seed: 0,
        }
    }
}

/// Introspection output: the fitted cost model's most impactful statistics
/// (shortest ARD length-scales) — Table 5.5.
#[derive(Debug, Clone)]
pub struct ImpactReport {
    /// `(feature name, fitted length-scale)`, most impactful first.
    pub ranked: Vec<(String, f64)>,
}

/// Run CITROEN on `task` for `budget` runtime measurements.
///
/// Thin wrapper over [`run_citroen_session`] with a default (standalone)
/// [`SessionEnv`]: no shared cache, no preloaded graph, a private worker
/// pool, and no cancellation — byte-for-byte the historical behaviour.
pub fn run_citroen(task: &mut Task, budget: usize, cfg: &CitroenConfig) -> (TuneTrace, ImpactReport) {
    let r = run_citroen_session(task, budget, cfg, &SessionEnv::default());
    (r.trace, r.report)
}

/// Run one CITROEN session under an explicit service environment.
///
/// The environment attaches the multi-tenant daemon's shared state — a
/// cross-tenant compile cache, a once-loaded interaction graph, a shared
/// worker pool — and a [`crate::SessionCtl`] carrying the tenant id, a
/// cancellation flag, and an optional deadline. Every attachment preserves
/// the per-session trajectory bit-for-bit: compilation is a pure function of
/// (source module, canonical pass sequence), so a shared-cache hit returns
/// exactly what a local compile would have produced, and only the compile
/// counters/telemetry differ from a standalone run at the same seed.
pub fn run_citroen_session(
    task: &mut Task,
    budget: usize,
    cfg: &CitroenConfig,
    env: &SessionEnv,
) -> SessionResult {
    let _run_span = telemetry::span("citroen.run");
    // Run-level metadata event: lets trace consumers compute speedups
    // (`o3_ns / best_ns`) and budget fractions without the CSV row.
    telemetry::event(
        "run.meta",
        &[
            ("o3_ns", (task.o3_seconds * 1e9) as u64),
            ("budget", budget as u64),
            ("seq_len", task.seq_len() as u64),
            ("passes", task.registry.len() as u64),
        ],
    );
    let mut session = Session::new(task, budget, cfg, env);
    let exit = session.run();
    let report = session.report();
    SessionResult { trace: session.trace, report, exit, allocation_log: session.allocation_log }
}

/// One tuned module's share of a configuration: what the cost model reads.
#[derive(Clone)]
struct Part {
    genome: Vec<u16>,
    stats: Stats,
    /// Autophase features (empty unless the model is fitted on them).
    autophase: Vec<f64>,
}

/// One observed point: every tuned module's part, in slot order, and the
/// runtime of the program they linked into.
struct Observation {
    parts: Vec<Part>,
    runtime: f64,
}

/// A compiled candidate for one tuned module: the generated genome, its
/// canonical form, and the compile result.
struct Candidate {
    /// Index into the session's tuned modules.
    slot: usize,
    part: Part,
    eff: Vec<u16>,
    /// Module fingerprint. Untuned modules are fixed at `-O3`, so the tuple
    /// of tuned-module fingerprints identifies the final binary without
    /// linking (the coverage key).
    fp: u64,
    module: Module,
}

/// One tuned module: its generator, canonicaliser and incumbent.
struct HotModule {
    /// Index into the benchmark's modules.
    idx: usize,
    des: DiscreteOneLambda,
    canon: Option<SeqCanonicalizer>,
    /// The source module's fingerprint, which namespaces this module's
    /// genomes in the compile cache.
    src_fp: u64,
    /// This module's part of the best configuration measured so far, which
    /// the other modules' candidates link against. Only kept when more than
    /// one module is tuned.
    inc: Option<Candidate>,
    /// Statistics keys in first-seen order: this module's feature columns.
    keys: Vec<String>,
}

/// A GP fit's inputs, with the feature scale its rows were normalised by.
struct FitInput {
    x: Mat,
    y: Vec<f64>,
    scale: Vec<f64>,
    gp: GpConfig,
}

/// One unit of `measure_and_admit` work on the pool: a configuration's
/// freshly compiled parts (one candidate, or every tuned module for a joint
/// step) linked with the incumbents of the rest, or a model fit.
enum Work {
    Measure(Vec<Candidate>),
    Fit(FitInput),
}

/// A finished [`Work`] item: the parts with their linked fingerprint and
/// execution, or a model.
enum Done {
    Measure(Vec<Candidate>, u64, Execution),
    Fit(Box<(Gp, Vec<f64>)>),
}

/// The state of one tuning session. Every q runs the same phases:
/// [`Session::generate`] → [`Session::compile_sweep`] → [`Session::filter`]
/// → [`note_keys`] → refit → [`Session::select`] →
/// [`Session::measure_and_admit`]. At q = 1 the refit runs inline before
/// every selection; at q > 1 it rides along with the batch's measurements.
struct Session<'a> {
    task: &'a mut Task,
    cfg: &'a CitroenConfig,
    env: &'a SessionEnv,
    budget: usize,
    len: usize,
    npasses: usize,
    /// The tuned modules, in `Task::hot_modules` order (the slots).
    mods: Vec<HotModule>,
    pool: Arc<WorkerPool>,
    rng: StdRng,
    /// MC noise for greedy batch construction comes from a dedicated stream
    /// so the candidate-generation RNG is the same at every q.
    batch_rng: StdRng,
    /// The compile cache: the daemon's shared one, else a private one when
    /// the session canonicalises, else none.
    cache: Option<Arc<SharedCompileCache>>,
    /// Genomes whose compile the session did not run: cache hits and
    /// repeats within a sweep.
    cache_hits: u64,
    obs: Vec<Observation>,
    seen_fps: HashSet<u64>,
    seen_stats: HashSet<String>,
    trace: TuneTrace,
    /// Slot measured at each trace step (`usize::MAX` = a joint step).
    allocation_log: Vec<usize>,
    hypers: Option<GpHypers>,
    /// Selection model and its feature scale.
    model: Option<(Gp, Vec<f64>)>,
    /// Measurement count at the last iteration that added one.
    last_meas: usize,
    stagnant: usize,
    iter: usize,
}

impl<'a> Session<'a> {
    fn new(
        task: &'a mut Task,
        budget: usize,
        cfg: &'a CitroenConfig,
        env: &'a SessionEnv,
    ) -> Session<'a> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (len, npasses) = (task.seq_len(), task.registry.len());
        let hot = match cfg.allocation {
            None => vec![task.hot()],
            Some(_) => task.hot_modules.clone(),
        };
        let mods: Vec<HotModule> = hot
            .into_iter()
            .map(|idx| {
                let mut des = new_des(len, npasses, cfg, &mut rng);
                if let Some(ws) = &cfg.warm_start {
                    let mut g: Vec<u16> = ws.iter().map(|p| p.0).collect();
                    g.resize(len, 0);
                    des.incumbent = g;
                }
                let canon = canonicalizer(task, idx, cfg, env);
                let src_fp = task.source_fingerprint(idx);
                HotModule { idx, des, canon, src_fp, inc: None, keys: Vec::new() }
            })
            .collect();
        // q = 1 maps on the session thread: a 1-worker pool spawns nothing,
        // keeps its spans visible to per-thread trace routing, and never
        // queues on a shared pool. q > 1 sizes its pool for the wider of the
        // two fan-outs (compile sweep; q measurements + 1 fit), or takes the
        // daemon's shared pool so N tenants don't spawn N×threads.
        let pool = match &env.pool {
            _ if cfg.batch <= 1 => Arc::new(WorkerPool::new(1)),
            Some(p) => Arc::clone(p),
            None => Arc::new(WorkerPool::new(citroen_rt::par::thread_count(
                (cfg.candidates * mods.len()).max(cfg.batch + 1),
            ))),
        };
        Session {
            task,
            cfg,
            env,
            budget,
            len,
            npasses,
            mods,
            pool,
            rng,
            batch_rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
            cache: env.shared_cache.clone().or_else(|| {
                (cfg.oracle_prune || cfg.subsume_collapse)
                    .then(|| Arc::new(SharedCompileCache::new(PRIVATE_CACHE_CAP)))
            }),
            cache_hits: 0,
            obs: Vec::new(),
            seen_fps: HashSet::new(),
            seen_stats: HashSet::new(),
            trace: TuneTrace::default(),
            allocation_log: Vec::new(),
            hypers: None,
            model: None,
            last_meas: 0,
            stagnant: 0,
            iter: 0,
        }
    }

    /// The whole search; returns why it stopped.
    fn run(&mut self) -> SessionExit {
        // 1. Initial design: the DES incumbents, any injected transfer seeds,
        //    then a random fill up to `init_random` total. Each step gives
        //    every tuned module a genome and measures them linked together.
        //    With no seeds the random stream is identical to previous
        //    releases.
        let n = self.mods.len();
        let mut first: Vec<Vec<Vec<u16>>> =
            vec![self.mods.iter().map(|m| m.des.incumbent.clone()).collect()];
        for s in &self.cfg.init_seeds {
            let mut g: Vec<u16> =
                s.iter().map(|&v| if (v as usize) < self.npasses { v } else { 0 }).collect();
            g.resize(self.len, 0);
            first.push(vec![g; n]);
        }
        while first.len() < self.cfg.init_random.max(1) {
            first.push(self.random_step());
        }
        let init_span = telemetry::span("init");
        for step in first {
            if let Some(e) = self.env.ctl.interrupted() {
                return e;
            }
            if self.task.measurements >= self.budget {
                break;
            }
            self.observe(step);
            self.progress();
        }
        drop(init_span);

        // 2. Model-guided search.
        self.last_meas = self.task.measurements;
        while self.task.measurements < self.budget {
            if let Some(e) = self.env.ctl.interrupted() {
                return e;
            }
            let _iter_span = telemetry::span("iteration");
            telemetry::counter("citroen.iterations", 1);
            // Candidates link against the other modules' incumbents, which
            // exist once a joint step has been measured.
            let mut cands = Vec::new();
            if n == 1 || self.mods.iter().all(|m| m.inc.is_some()) {
                let genomes = self.generate();
                cands = self.compile_sweep(genomes);
                self.filter(&mut cands);
            }
            if cands.is_empty() {
                // Whole batch redundant (or nothing to link against): take
                // a random probe to escape.
                let step = self.random_step();
                self.observe(step);
            } else {
                let t_model = Instant::now();
                for c in &cands {
                    note_keys(&mut self.mods[c.slot].keys, &c.part.stats);
                }
                if self.cfg.batch <= 1 || self.model.is_none() {
                    self.refit();
                }
                let picks = self.select(&cands);
                // q > 1: the next selection's model trains on the
                // observations as of this barrier, overlapped with the
                // batch's measurements.
                let next_fit = (self.cfg.batch > 1).then(|| self.fit_input());
                self.task.add_model_time(t_model.elapsed());
                let mut slots: Vec<Option<Candidate>> = cands.into_iter().map(Some).collect();
                let picked = picks
                    .iter()
                    .map(|&i| vec![slots[i].take().expect("picks are distinct")])
                    .collect();
                self.measure_and_admit(picked, next_fit);
            }
            self.iter += 1;
            self.progress();
            if self.stagnated() || self.iter > self.budget * 20 {
                break;
            }
        }
        SessionExit::Completed
    }

    fn random_genome(&mut self) -> Vec<u16> {
        (0..self.len).map(|_| self.rng.gen_range(0..self.npasses) as u16).collect()
    }

    /// One random genome per tuned module.
    fn random_step(&mut self) -> Vec<Vec<u16>> {
        (0..self.mods.len()).map(|_| self.random_genome()).collect()
    }

    /// This iteration's candidates, tagged with their slot: for each module
    /// the allocation policy lets generate, DES mutants of its incumbent plus
    /// a random quarter, or all random.
    fn generate(&mut self) -> Vec<(usize, Vec<u16>)> {
        let n = self.mods.len();
        let slots = match self.cfg.allocation {
            Some(Allocation::RoundRobin) => self.iter % n..self.iter % n + 1,
            Some(Allocation::Uniform) if n > 1 => {
                let s = self.rng.gen_range(0..n);
                s..s + 1
            }
            _ => 0..n,
        };
        let n_des = match self.cfg.generator {
            GeneratorKind::Des => (self.cfg.candidates * 3) / 4,
            GeneratorKind::Random => 0,
        };
        let mut v = Vec::with_capacity(slots.len() * self.cfg.candidates);
        for slot in slots {
            v.extend(self.mods[slot].des.ask(&mut self.rng, n_des).into_iter().map(|g| (slot, g)));
            for _ in n_des..self.cfg.candidates {
                v.push((slot, self.random_genome()));
            }
        }
        self.trace.candidates_generated += v.len();
        v
    }

    /// Compile `genomes` (each tagged with its slot) for their statistics.
    /// Each genome is canonicalised by its module's canonicaliser and looked
    /// up in the compile cache; the unique misses compile on the pool
    /// ([`Task::compile_runs`]) and are published to the cache. Lookups
    /// resolve in genome order, so hit accounting is deterministic.
    fn compile_sweep(&mut self, genomes: Vec<(usize, Vec<u16>)>) -> Vec<Candidate> {
        let _span = telemetry::span("batch");
        let tenant = self.env.ctl.tenant;
        let mut jobs: Vec<(usize, Vec<u16>)> = Vec::new();
        let mut job_of: HashMap<(usize, Vec<u16>), usize> = HashMap::new();
        // Per genome: its canonical form and Ok(cached result) | Err(job).
        let mut slots = Vec::with_capacity(genomes.len());
        for (slot, g) in &genomes {
            let m = &self.mods[*slot];
            let eff: Vec<u16> = match &m.canon {
                Some(c) => {
                    let idx: Vec<usize> = g.iter().map(|&v| v as usize).collect();
                    c.canonicalize(&idx).into_iter().map(|v| v as u16).collect()
                }
                None => g.clone(),
            };
            // A hit, from this session or another tenant, is exactly what a
            // local compile would have produced.
            let res = match self.cache.as_ref().and_then(|c| c.get(m.src_fp, &eff, tenant)) {
                Some(hit) => Ok(hit),
                // A miss compiles once per sweep, however often it repeats.
                None => Err(*job_of.entry((*slot, eff.clone())).or_insert_with(|| {
                    jobs.push((*slot, eff.clone()));
                    jobs.len() - 1
                })),
            };
            slots.push((eff, res));
        }
        let seqs: Vec<(usize, Vec<PassId>)> =
            jobs.iter().map(|(slot, eff)| (self.mods[*slot].idx, genome_to_seq(eff))).collect();
        let compiled = self.task.compile_runs(&self.pool, &seqs);
        let hits = (genomes.len() - jobs.len()) as u64;
        self.cache_hits += hits;
        telemetry::counter("citroen.compile_cache_hits", hits);
        // First writer wins in a shared cache; losing a race costs nothing.
        if let Some(c) = &self.cache {
            for ((slot, eff), (stats, fp, module)) in jobs.iter().zip(&compiled) {
                let src_fp = self.mods[*slot].src_fp;
                c.insert(src_fp, eff.clone(), tenant, stats.clone(), *fp, module.clone());
            }
        }
        genomes
            .into_iter()
            .zip(slots)
            .map(|((slot, genome), (eff, res))| {
                let (stats, fp, module) = res.unwrap_or_else(|j| compiled[j].clone());
                let autophase = if self.cfg.features == FeatureKind::Autophase {
                    citroen_passes::autophase::autophase_features(&module)
                } else {
                    Vec::new()
                };
                let part = Part { genome, stats, autophase };
                Candidate { slot, part, eff, fp, module }
            })
            .collect()
    }

    /// Coverage filtering (§5.3.4): candidates whose binary or statistics
    /// vector was already observed, or repeats one kept earlier in this
    /// sweep, carry no new information — skip their profiling.
    fn filter(&mut self, cands: &mut Vec<Candidate>) {
        if !self.cfg.coverage_filter {
            return;
        }
        let before = cands.len();
        cands.retain(|c| {
            let c = std::slice::from_ref(c);
            !self.seen_fps.contains(&self.coverage_fp(c))
                && !self.seen_stats.contains(&self.coverage_sig(c))
        });
        retain_batch_unique(cands, |c| {
            let c = std::slice::from_ref(c);
            (self.coverage_sig(c), self.coverage_fp(c))
        });
        let dropped = before - cands.len();
        telemetry::counter("citroen.coverage_dropped", dropped as u64);
        self.trace.coverage_dropped += dropped;
    }

    /// The binary's coverage key: its module's fingerprint, or with several
    /// tuned modules the FNV-1a mix of every module's fingerprint.
    fn coverage_fp(&self, fresh: &[Candidate]) -> u64 {
        if let ([c], 1) = (fresh, self.mods.len()) {
            return c.fp;
        }
        configuration(&self.mods, fresh).fold(0xcbf2_9ce4_8422_2325, |h, c| {
            c.fp.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
        })
    }

    /// The statistics vector's coverage key: every module's signature.
    fn coverage_sig(&self, fresh: &[Candidate]) -> String {
        let mut sigs = configuration(&self.mods, fresh).map(|c| stats_sig(&c.part.stats));
        let first = sigs.next().unwrap_or_default();
        sigs.fold(first, |acc, s| acc + "|" + &s)
    }

    /// The GP training set as of now. Hyperparameters are re-optimised every
    /// `fit_every` iterations; in between, the fit keeps the last ones.
    fn fit_input(&self) -> FitInput {
        let (x, scale) = scaled_matrix(
            self.obs.iter().map(|o| self.raw_row(o.parts.iter())).collect(),
        );
        let y: Vec<f64> = self.obs.iter().map(|o| o.runtime).collect();
        let mut gp = self.cfg.gp.clone();
        gp.init = self.hypers.clone();
        if self.iter % self.cfg.fit_every != 0 && self.hypers.is_some() {
            gp.fit_iters = 0;
        }
        FitInput { x, y, scale, gp }
    }

    /// Fit the selection model inline, on the observations so far.
    fn refit(&mut self) {
        let model = fit(self.fit_input());
        self.install(model);
    }

    fn install(&mut self, (gp, scale): (Gp, Vec<f64>)) {
        self.hypers = Some(gp.hypers());
        self.model = Some((gp, scale));
    }

    /// Greedy qUCB selection of up to q candidates (indices in pick order).
    /// The first pick is the exact UCB argmax, the paper's q = 1 rule.
    fn select(&mut self, cands: &[Candidate]) -> Vec<usize> {
        let _span = telemetry::span("acquire");
        let (gp, scale) = self.model.as_ref().expect("model fitted before selection");
        let best_raw = self.obs.iter().map(|o| o.runtime).fold(f64::INFINITY, f64::min);
        let best_z = gp.transform().forward(best_raw);
        let xs: Vec<Vec<f64>> = cands
            .iter()
            .map(|c| {
                let parts = configuration(&self.mods, std::slice::from_ref(c)).map(|c| &c.part);
                scale_row(self.raw_row(parts), scale)
            })
            .collect();
        let q = self.cfg.batch.min(self.budget - self.task.measurements).min(cands.len()).max(1);
        let eps = draw_mc_eps(&mut self.batch_rng, MC_SAMPLES, q);
        greedy_batch(gp, Acquisition::Ucb { beta: self.cfg.beta }, best_z, &xs, q, &eps)
    }

    /// A configuration's raw feature row: each tuned module's features over
    /// its own key union, concatenated in slot order. With one tuned module
    /// this is that module's row, built without a copy.
    fn raw_row<'p>(&self, parts: impl Iterator<Item = &'p Part>) -> Vec<f64> {
        let mut row = Vec::new();
        for (p, m) in parts.zip(&self.mods) {
            let r = raw_features(&p.genome, &p.stats, &p.autophase, &m.keys, self.cfg.features);
            if row.is_empty() {
                row = r;
            } else {
                row.extend(r);
            }
        }
        row
    }

    /// Compile and measure one genome per tuned module, linked together
    /// (initial design, random probe).
    fn observe(&mut self, step: Vec<Vec<u16>>) {
        let cands = self.compile_sweep(step.into_iter().enumerate().collect());
        self.measure_and_admit(vec![cands], None);
    }

    /// Measure `picks` on the pool, alongside the overlapped `fit` when
    /// given, then admit the outcomes strictly in pick order: admission
    /// draws the measurement noise from the task RNG, so this order — not
    /// worker timing — defines the stream. Every pick links against the
    /// incumbents as of the call; the batch's best improving pick becomes
    /// the new incumbent afterwards.
    fn measure_and_admit(&mut self, picks: Vec<Vec<Candidate>>, next_fit: Option<FitInput>) {
        let _span = telemetry::span("batch");
        let mut work: Vec<Work> = picks.into_iter().map(Work::Measure).collect();
        work.extend(next_fit.map(Work::Fit));
        let (task, mods): (&Task, &[HotModule]) = (self.task, &self.mods);
        let done = self.pool.map(work, |w| match w {
            Work::Measure(fresh) => {
                let (linked, fp) = match mods {
                    [m] => task.assemble(&[(m.idx, &fresh[0].module)]),
                    _ => task.assemble(
                        &configuration(mods, &fresh)
                            .map(|c| (mods[c.slot].idx, &c.module))
                            .collect::<Vec<_>>(),
                    ),
                };
                let _m = telemetry::span("measure");
                Done::Measure(fresh, fp, task.execute(&linked, fp))
            }
            Work::Fit(input) => Done::Fit(Box::new(fit(input))),
        });
        let mut improved = None;
        for d in done {
            match d {
                // A sequence that miscompiles is discarded (differential
                // testing, §5.4.1); our passes are verified not to.
                Done::Measure(fresh, fp, outcome) => {
                    if let Ok(runtime) = self.task.admit_execution(fp, outcome) {
                        let best = self.trace.best();
                        if let Some(fresh) = self.admit(fresh, runtime).filter(|_| runtime < best)
                        {
                            improved = Some(fresh);
                        }
                    }
                }
                Done::Fit(model) => self.install(*model),
            }
        }
        for c in improved.into_iter().flatten() {
            let slot = c.slot;
            self.mods[slot].inc = Some(c);
        }
    }

    /// Record one measured configuration. Returns its fresh parts when
    /// several modules are tuned, so the caller can make them incumbents.
    fn admit(&mut self, fresh: Vec<Candidate>, runtime: f64) -> Option<Vec<Candidate>> {
        let (fp, sig) = (self.coverage_fp(&fresh), self.coverage_sig(&fresh));
        for c in &fresh {
            let m = &mut self.mods[c.slot];
            m.des.tell(&c.part.genome, runtime);
            note_keys(&mut m.keys, &c.part.stats);
        }
        self.seen_fps.insert(fp);
        self.seen_stats.insert(sig);
        let seqs = configuration(&self.mods, &fresh).map(|c| genome_to_seq(&c.eff)).collect();
        self.trace.record(runtime, seqs);
        self.trace.compiles_history.push(self.task.compilations);
        self.allocation_log.push(if let [c] = &fresh[..] { c.slot } else { usize::MAX });
        if self.mods.len() == 1 {
            let parts = fresh.into_iter().map(|c| c.part).collect();
            self.obs.push(Observation { parts, runtime });
            return None;
        }
        let parts = configuration(&self.mods, &fresh).map(|c| c.part.clone()).collect();
        self.obs.push(Observation { parts, runtime });
        Some(fresh)
    }

    /// Stagnation bookkeeping, once per iteration. On benchmarks whose hot
    /// module collapses to few distinct binaries, most candidates are
    /// duplicates and cached measurements consume no budget: restart the
    /// DES incumbent to escape, and report (`true`) when the search looks
    /// exhausted.
    fn stagnated(&mut self) -> bool {
        if self.task.measurements != self.last_meas {
            self.stagnant = 0;
            self.last_meas = self.task.measurements;
            return false;
        }
        self.stagnant += 1;
        if self.stagnant % 20 == 19 {
            for m in &mut self.mods {
                m.des = new_des(self.len, self.npasses, self.cfg, &mut self.rng);
            }
        }
        self.stagnant > 80
    }

    /// Convergence-curve event, emitted after every budget-consuming step.
    /// Guarded on `is_enabled` so the disabled path builds no field array;
    /// `best_ns == 0` never occurs (runtimes are positive), so consumers can
    /// treat 0 as "no measurement yet".
    fn progress(&self) {
        if !telemetry::is_enabled() {
            return;
        }
        telemetry::event(
            "progress",
            &[
                ("iter", self.iter as u64),
                ("measurements", self.task.measurements as u64),
                ("compilations", self.task.compilations as u64),
                ("cache_hits", self.cache_hits),
                ("coverage_dropped", self.trace.coverage_dropped as u64),
                ("last_ns", to_ns(self.trace.runtimes.last().copied())),
                ("best_ns", to_ns(self.trace.best_history.last().copied())),
            ],
        );
    }

    /// ARD impact report (Table 5.5): shortest length-scales = most impactful.
    /// With several tuned modules each name is prefixed by its module's.
    fn report(&self) -> ImpactReport {
        if self.obs.len() < 3 || self.cfg.features != FeatureKind::CompilationStats {
            return ImpactReport { ranked: Vec::new() };
        }
        let FitInput { x, y, .. } = self.fit_input();
        let gp = Gp::fit(x, &y, GpConfig { fit_iters: 60, ..self.cfg.gp.clone() });
        let modules = &self.task.benchmark().modules;
        let names = self.mods.iter().flat_map(|m| {
            m.keys.iter().map(move |k| match self.mods.len() {
                1 => k.clone(),
                _ => format!("{}/{k}", modules[m.idx].name),
            })
        });
        let mut ranked: Vec<(String, f64)> = names.zip(gp.lengthscales()).collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        ImpactReport { ranked }
    }
}

/// A fresh DES generator for one tuned module, with the configured
/// mutation-rate override applied — at session start and at every
/// stagnation restart alike.
fn new_des(len: usize, npasses: usize, cfg: &CitroenConfig, rng: &mut StdRng) -> DiscreteOneLambda {
    let mut des = DiscreteOneLambda::new(len, npasses, rng);
    if let Some(mr) = cfg.mutation_rate {
        des.mutation_rate = mr;
    }
    des
}

/// Every tuned module's part of the configuration linking `fresh` with the
/// other modules' incumbents, in slot order.
fn configuration<'s>(
    mods: &'s [HotModule],
    fresh: &'s [Candidate],
) -> impl Iterator<Item = &'s Candidate> + 's {
    mods.iter().enumerate().map(move |(slot, m)| {
        fresh
            .iter()
            .find(|c| c.slot == slot)
            .or(m.inc.as_ref())
            .expect("every untuned slot has an incumbent")
    })
}

/// Fit the GP; returns it with the scale its features were normalised by.
fn fit(input: FitInput) -> (Gp, Vec<f64>) {
    let _span = telemetry::span("fit");
    (Gp::fit(input.x, &input.y, input.gp), input.scale)
}

fn genome_to_seq(g: &[u16]) -> Vec<PassId> {
    g.iter().map(|&v| PassId(v)).collect()
}

/// The sequence canonicaliser for module `idx`, when `oracle_prune` or
/// `subsume_collapse` is on. Oracle verdicts on the source module give the
/// dead mask; running each pass once gives the module-local enables edges
/// that keep a dead pass when an earlier kept pass may wake it. An
/// interaction graph attached through [`SessionEnv::graph`] replaces the
/// per-task enables derivation and supplies the work model;
/// `subsume_collapse` adds the module-independent work-class dataflow.
fn canonicalizer(
    task: &Task,
    idx: usize,
    cfg: &CitroenConfig,
    env: &SessionEnv,
) -> Option<SeqCanonicalizer> {
    if !cfg.oracle_prune && !cfg.subsume_collapse {
        return None;
    }
    let graph_inputs =
        env.graph.as_deref().map(|g| oracle::canonicalizer_inputs(&task.registry, g));
    let n = task.registry.len();
    let mut c = if cfg.oracle_prune {
        let src = &task.benchmark().modules[idx];
        let dead = oracle::dead_mask(&oracle::verdicts(&task.registry, src));
        let mask = match &graph_inputs {
            Some((enables, _)) => enables.clone(),
            None => {
                let (enables, _) = oracle::interactions_for_module(&task.registry, src);
                let mut mask = vec![0u64; n];
                for e in &enables {
                    mask[e.from] |= 1 << e.to;
                }
                mask
            }
        };
        SeqCanonicalizer::new(dead, mask).with_idempotence(task.registry.idempotent_mask())
    } else {
        SeqCanonicalizer::new(vec![false; n], vec![0u64; n])
    };
    if cfg.subsume_collapse {
        let (fires, clears, produces) = match graph_inputs.and_then(|(_, w)| w) {
            Some(triple) => triple,
            None => (task.registry.fires_on(), task.registry.clears(), task.registry.produces()),
        };
        c = c.with_subsumption(fires, clears, produces);
    }
    Some(c)
}

/// Seconds → nanosecond event field (0 = absent; runtimes are positive).
fn to_ns(seconds: Option<f64>) -> u64 {
    seconds.map(|s| (s * 1e9) as u64).unwrap_or(0)
}

/// Within-batch coverage dedup (§5.3.4): a candidate is redundant if
/// *either* its statistics signature *or* its binary fingerprint duplicates
/// one already kept in this batch — matching the cross-batch filter, which
/// rejects on either component. (An earlier version keyed on the pair, so
/// two same-stats/different-binary candidates both survived.)
fn retain_batch_unique<T>(batch: &mut Vec<T>, key: impl Fn(&T) -> (String, u64)) {
    let mut sigs: HashSet<String> = HashSet::new();
    let mut fps: HashSet<u64> = HashSet::new();
    batch.retain(|item| {
        let (sig, fp) = key(item);
        if sigs.contains(&sig) || fps.contains(&fp) {
            return false;
        }
        sigs.insert(sig);
        fps.insert(fp);
        true
    });
}

/// A canonical signature of a statistics bag (for coverage dedup).
fn stats_sig(stats: &Stats) -> String {
    let mut s = String::new();
    for (p, st, v) in stats.iter() {
        use std::fmt::Write;
        let _ = write!(s, "{p}.{st}={v};");
    }
    s
}

/// Grow a feature key union with `stats`' keys, in first-seen order.
fn note_keys(keys: &mut Vec<String>, stats: &Stats) {
    for k in stats.keys() {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
}

/// Max-scale raw feature rows into a training matrix, for numeric
/// stability; returns the matrix and the per-column scale.
fn scaled_matrix(raw: Vec<Vec<f64>>) -> (Mat, Vec<f64>) {
    let d = raw.first().map(|r| r.len()).unwrap_or(0);
    let mut scale = vec![1.0f64; d];
    for r in &raw {
        for (i, v) in r.iter().enumerate() {
            scale[i] = scale[i].max(v.abs());
        }
    }
    let rows: Vec<Vec<f64>> = raw
        .into_iter()
        .map(|r| r.iter().enumerate().map(|(i, v)| v / scale[i]).collect())
        .collect();
    (Mat::from_rows(rows), scale)
}

fn raw_features(
    genome: &[u16],
    stats: &Stats,
    autophase: &[f64],
    keys: &[String],
    kind: FeatureKind,
) -> Vec<f64> {
    match kind {
        FeatureKind::CompilationStats => stats_features(stats, keys),
        FeatureKind::Autophase => autophase.iter().map(|v| (1.0 + v).ln()).collect(),
        FeatureKind::RawSequence => genome.iter().map(|&g| g as f64).collect(),
    }
}

/// The `log1p`-compressed statistics vector over `keys`.
fn stats_features(stats: &Stats, keys: &[String]) -> Vec<f64> {
    stats.to_vector(keys).into_iter().map(|v| (1.0 + v).ln()).collect()
}

/// Scale one raw feature row by a fitted matrix's column scale.
fn scale_row(mut r: Vec<f64>, scale: &[f64]) -> Vec<f64> {
    for (i, v) in r.iter_mut().enumerate() {
        if i < scale.len() {
            *v /= scale[i];
        }
    }
    // Pad/truncate to the model dimensionality (keys can grow between fits;
    // the scale vector length is the fitted dimensionality).
    r.resize(scale.len(), 0.0);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use citroen_passes::oracle::InteractionGraph;
    use citroen_passes::Registry;
    use citroen_sim::Platform;

    /// `g` after a round trip through its persisted JSON form.
    fn persisted(g: &InteractionGraph) -> Arc<InteractionGraph> {
        Arc::new(InteractionGraph::from_json(&g.to_json()).expect("graph JSON round-trips"))
    }

    fn gsm_task(seed: u64) -> Task {
        Task::new(
            citroen_suite::kernels::telecom_gsm(),
            Registry::full(),
            Platform::tx2(),
            TaskConfig { seq_len: 16, seed, ..Default::default() },
        )
    }

    #[test]
    fn stagnation_restart_keeps_the_mutation_rate_override() {
        let mut task = gsm_task(1);
        let cfg = CitroenConfig { mutation_rate: Some(1.0 / 32.0), seed: 1, ..Default::default() };
        let env = SessionEnv::default();
        let mut session = Session::new(&mut task, 10, &cfg, &env);
        assert_eq!(session.mods[0].des.mutation_rate, 1.0 / 32.0);
        let before = session.mods[0].des.incumbent.clone();
        // No measurement since the last check: the 19th stagnant iteration
        // restarts every generator.
        session.stagnant = 18;
        assert!(!session.stagnated());
        assert_ne!(session.mods[0].des.incumbent, before, "generator was not restarted");
        assert_eq!(session.mods[0].des.mutation_rate, 1.0 / 32.0);
    }

    /// `bench` with its profiled hot modules topped up to two, so every
    /// allocation policy has a real choice to make.
    fn two_hot_task(bench: citroen_suite::Benchmark, platform: Platform, seed: u64) -> Task {
        let mut task = Task::new(
            bench,
            Registry::full(),
            platform,
            TaskConfig { seq_len: 12, seed, ..Default::default() },
        );
        if task.hot_modules.len() < 2 {
            let extra = (0..task.benchmark().modules.len())
                .find(|i| !task.hot_modules.contains(i))
                .unwrap();
            task.hot_modules.push(extra);
        }
        task
    }

    #[test]
    fn adaptive_allocation_over_one_hot_module_is_the_default_loop() {
        // gsm has one hot module, so tuning every hot module under the
        // adaptive policy must be the default first-hot-module loop, bit for
        // bit, at q = 1 and under batching.
        for batch in [1, 4] {
            let run = |allocation: Option<Allocation>| {
                let mut task = gsm_task(4);
                assert_eq!(task.hot_modules.len(), 1);
                let cfg = CitroenConfig {
                    candidates: 12,
                    init_random: 4,
                    batch,
                    allocation,
                    seed: 4,
                    ..Default::default()
                };
                let r = run_citroen_session(&mut task, 12, &cfg, &SessionEnv::default());
                let names: Vec<String> = r.report.ranked.into_iter().map(|(n, _)| n).collect();
                (crate::service::trace_digest(&r.trace), task.compilations, names)
            };
            let (default, adaptive) = (run(None), run(Some(Allocation::Adaptive)));
            assert!(!default.2.is_empty(), "q={batch}: no impact report to compare");
            assert_eq!(default, adaptive, "q={batch}: adaptive over one module diverged");
        }
    }

    #[test]
    fn adaptive_runs_and_logs_allocation() {
        let mut task = two_hot_task(citroen_suite::speclike::spec_imgproc(), Platform::tx2(), 5);
        let cfg = CitroenConfig {
            allocation: Some(Allocation::Adaptive),
            candidates: 6,
            init_random: 3,
            seed: 5,
            ..Default::default()
        };
        let res = run_citroen_session(&mut task, 14, &cfg, &SessionEnv::default());
        assert_eq!(task.measurements, 14);
        assert!(res.trace.best().is_finite());
        let adaptive_steps: Vec<&usize> =
            res.allocation_log.iter().filter(|m| **m != usize::MAX).collect();
        assert!(!adaptive_steps.is_empty());
    }

    #[test]
    fn round_robin_cycles_modules() {
        let mut task = two_hot_task(citroen_suite::speclike::spec_compress(), Platform::amd(), 9);
        let cfg = CitroenConfig {
            allocation: Some(Allocation::RoundRobin),
            candidates: 4,
            init_random: 2,
            seed: 9,
            ..Default::default()
        };
        let res = run_citroen_session(&mut task, 10, &cfg, &SessionEnv::default());
        let steps: HashSet<usize> =
            res.allocation_log.iter().copied().filter(|m| *m != usize::MAX).collect();
        assert!(steps.len() >= 2, "round robin visited {steps:?}");
    }

    #[test]
    fn citroen_finds_speedup_over_o3_on_gsm() {
        // Quantile check over a 10-seed window rather than one pinned lucky
        // seed: any single seed can draw an unlucky candidate stream, but the
        // median over seeds is a stable property of the tuner. Seeds run in
        // parallel (`par_map` is sequential on single-core hosts).
        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let mut task = gsm_task(seed);
            let cfg =
                CitroenConfig { candidates: 24, init_random: 6, seed, ..Default::default() };
            let (trace, report) = run_citroen(&mut task, 30, &cfg);
            assert_eq!(task.measurements, 30);
            assert!(!report.ranked.is_empty());
            assert!(!trace.best_seqs.is_empty());
            (trace.best() / task.o3_seconds, trace.coverage_dropped)
        });
        let mut ratios: Vec<f64> = runs.iter().map(|(r, _)| *r).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("citroen best/O3 ratios over seeds: {ratios:?}");
        // With a 30-measurement budget the lower quartile must match -O3
        // within noise, the best seed must beat it outright, and even the
        // median seed must stay in -O3's neighbourhood (observed window:
        // 0.99–1.16; the paper's larger speedups need larger budgets).
        let quartile = ratios[ratios.len() / 4];
        let median = ratios[ratios.len() / 2];
        assert!(quartile < 1.02, "lower-quartile ratio {quartile} too weak: {ratios:?}");
        assert!(ratios[0] < 1.0, "no seed in the window beat -O3: {ratios:?}");
        assert!(median < 1.25, "median ratio {median} pathological: {ratios:?}");
        // Coverage filtering must fire somewhere in the window on a 16-long
        // sequence space full of no-op duplicates.
        let dropped: usize = runs.iter().map(|(_, d)| *d).sum();
        assert!(dropped > 0, "expected coverage drops across the seed window");
    }

    #[test]
    fn shared_cache_sessions_are_bit_identical_and_skip_compiles() {
        // The multi-tenant determinism invariant: attaching a shared compile
        // cache (empty or pre-warmed by another tenant) must not perturb the
        // trajectory — only the compile counters. A second tenant replaying
        // the same (spec, seed) against the warmed cache compiles ~nothing.
        use crate::service::{SessionCtl, SharedCompileCache};
        use std::sync::Arc;

        let cfg = CitroenConfig { candidates: 24, init_random: 6, seed: 3, ..Default::default() };
        let mut t1 = gsm_task(3);
        let r1 = run_citroen_session(&mut t1, 10, &cfg, &SessionEnv::default());
        assert_eq!(r1.exit, SessionExit::Completed);

        let cache = Arc::new(SharedCompileCache::new(0));
        let mut t2 = gsm_task(3);
        let env1 = SessionEnv {
            shared_cache: Some(cache.clone()),
            ctl: SessionCtl::new(1),
            ..Default::default()
        };
        let r2 = run_citroen_session(&mut t2, 10, &cfg, &env1);
        let mut t3 = gsm_task(3);
        let env2 = SessionEnv {
            shared_cache: Some(cache.clone()),
            ctl: SessionCtl::new(2),
            ..Default::default()
        };
        let r3 = run_citroen_session(&mut t3, 10, &cfg, &env2);

        let d = crate::service::trace_digest(&r1.trace);
        assert_eq!(d, crate::service::trace_digest(&r2.trace), "empty shared cache perturbed");
        assert_eq!(d, crate::service::trace_digest(&r3.trace), "warmed shared cache perturbed");
        assert!(
            t3.compilations < t2.compilations,
            "warmed tenant compiled {} vs {} — no reuse",
            t3.compilations,
            t2.compilations
        );
        let s = cache.stats();
        assert!(s.cross_hits > 0, "replay tenant never hit the other tenant's entries: {s:?}");
        // Every measurement recorded its running compile count.
        assert_eq!(r1.trace.compiles_history.len(), r1.trace.runtimes.len());
    }

    #[test]
    fn cancelled_and_deadlined_sessions_stop_early() {
        use crate::service::SessionCtl;

        let cfg = CitroenConfig { candidates: 24, init_random: 6, seed: 1, ..Default::default() };
        let ctl = SessionCtl::new(7);
        ctl.cancel();
        let mut task = gsm_task(1);
        let env = SessionEnv { ctl, ..Default::default() };
        let r = run_citroen_session(&mut task, 30, &cfg, &env);
        assert_eq!(r.exit, SessionExit::Cancelled);
        assert_eq!(task.measurements, 0, "cancelled before the first observation");

        let ctl = SessionCtl::new(8).with_deadline(std::time::Instant::now());
        let mut task = gsm_task(1);
        let env = SessionEnv { ctl, ..Default::default() };
        let r = run_citroen_session(&mut task, 30, &cfg, &env);
        assert_eq!(r.exit, SessionExit::TimedOut);
        assert!(task.measurements < 30, "expired deadline did not stop the session");
    }

    #[test]
    fn init_seeds_enter_the_initial_design() {
        // A transfer seed must actually be measured: run with a seed genome
        // and assert its canonical sequence shows up among the first
        // observations' sequences (the seed is observed second, after the
        // DES incumbent).
        let seed_genome: Vec<u16> = vec![5; 16];
        let cfg = CitroenConfig {
            candidates: 24,
            init_random: 6,
            seed: 2,
            init_seeds: vec![seed_genome.clone()],
            ..Default::default()
        };
        let mut task = gsm_task(2);
        let r = run_citroen_session(&mut task, 8, &cfg, &SessionEnv::default());
        assert_eq!(r.exit, SessionExit::Completed);
        // Cold run at the same seed: different trajectory (the seed displaced
        // one random init genome).
        let cold_cfg = CitroenConfig { init_seeds: Vec::new(), ..cfg.clone() };
        let mut cold = gsm_task(2);
        let rc = run_citroen_session(&mut cold, 8, &cold_cfg, &SessionEnv::default());
        assert_ne!(
            crate::service::trace_digest(&r.trace),
            crate::service::trace_digest(&rc.trace),
            "injected seed had no effect on the trajectory"
        );
    }

    #[test]
    fn within_batch_dedup_rejects_on_either_component() {
        // Regression: the within-batch filter used to key on the *pair*
        // `(stats_sig, fp)`, so two candidates sharing a stats signature but
        // not a fingerprint (or vice versa) both survived — contradicting
        // §5.3.4 and the cross-batch filter, which rejects on either match.
        let mut s1 = Stats::new();
        s1.inc("gvn", "eliminated", 3);
        let s2 = s1.clone();

        // Same stats signature, different binaries: one must be dropped.
        let mut batch = vec![(vec![1u16], s1.clone(), 10u64), (vec![2u16], s2.clone(), 20u64)];
        let old_pair_key = {
            let mut pairs = HashSet::new();
            let mut b = batch.clone();
            b.retain(|(_, st, fp)| pairs.insert((stats_sig(st), *fp)));
            b.len()
        };
        assert_eq!(old_pair_key, 2, "the old pair-keyed retain kept both");
        retain_batch_unique(&mut batch, |(_, st, fp)| (stats_sig(st), *fp));
        assert_eq!(batch.len(), 1, "same-stats/different-binary duplicate survived");
        assert_eq!(batch[0].2, 10, "the first occurrence must be the one kept");

        // Same binary, different stats signatures: one must be dropped.
        let mut s3 = Stats::new();
        s3.inc("dce", "removed", 1);
        let mut batch = vec![(vec![1u16], s1, 10u64), (vec![2u16], s3, 10u64)];
        retain_batch_unique(&mut batch, |(_, st, fp)| (stats_sig(st), *fp));
        assert_eq!(batch.len(), 1, "same-binary/different-stats duplicate survived");

        // Fully distinct candidates all survive.
        let mut s4 = Stats::new();
        s4.inc("licm", "hoisted", 2);
        let mut s5 = Stats::new();
        s5.inc("sccp", "folded", 5);
        let mut batch = vec![(vec![1u16], s4, 1u64), (vec![2u16], s5, 2u64)];
        retain_batch_unique(&mut batch, |(_, st, fp)| (stats_sig(st), *fp));
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn feature_kinds_produce_distinct_vectors() {
        let mut task = gsm_task(2);
        let o3 = citroen_passes::o3_pipeline(&task.registry);
        let hot = task.hot();
        let (stats, _, module) = task.compile_hot(hot, &o3);
        let ap = citroen_passes::autophase::autophase_features(&module);
        let keys = stats.keys();
        let genome: Vec<u16> = o3.iter().map(|p| p.0).collect();
        let s = raw_features(&genome, &stats, &ap, &keys, FeatureKind::CompilationStats);
        let a = raw_features(&genome, &stats, &ap, &keys, FeatureKind::Autophase);
        let r = raw_features(&genome, &stats, &ap, &keys, FeatureKind::RawSequence);
        assert_eq!(s.len(), keys.len());
        assert_eq!(a.len(), citroen_passes::autophase::NUM_AUTOPHASE_FEATURES);
        assert_eq!(r.len(), genome.len());
        assert!(s.iter().any(|v| *v > 0.0));
    }

    #[test]
    fn oracle_pruning_cuts_compiles_without_hurting_speedup() {
        // Same 10-seed quantile discipline as the headline tuner test: for
        // each seed run the identical configuration with oracle pruning off
        // and on, then compare the windows. Pruning must cut compilations by
        // ≥15% at the median (canonical-genome cache hits) while the
        // best-found runtime stays no worse at the median.
        //
        // The reduction above credits pruning with the canonical-genome
        // cache, which a session only keeps when it canonicalises. Both arms
        // are also run behind one private unbounded shared cache, as in the
        // subsumption test, so each compiles every distinct genome it visits
        // exactly once and the saving left is pruning's own.
        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let run = |prune: bool, shared: bool| {
                let mut task = gsm_task(seed);
                let cfg = CitroenConfig {
                    candidates: 24,
                    init_random: 6,
                    oracle_prune: prune,
                    seed,
                    ..Default::default()
                };
                let env = SessionEnv {
                    shared_cache: shared
                        .then(|| Arc::new(crate::service::SharedCompileCache::new(0))),
                    ..Default::default()
                };
                let res = run_citroen_session(&mut task, 20, &cfg, &env);
                (res.trace.best() / task.o3_seconds, task.compilations)
            };
            let shared = (run(false, true).1, run(true, true).1);
            ((run(false, false), run(true, false)), shared)
        });
        let shared: Vec<(usize, usize)> = runs.iter().map(|(_, s)| *s).collect();
        let runs: Vec<_> = runs.into_iter().map(|(r, _)| r).collect();
        let own: Vec<(usize, usize)> = runs.iter().map(|((_, a), (_, b))| (*a, *b)).collect();
        eprintln!("compiles per seed (off, on): {own:?}");
        eprintln!("distinct-genome compiles per seed (off, on): {shared:?}");
        let mut reduction: Vec<f64> = runs
            .iter()
            .map(|((_, c_off), (_, c_on))| 1.0 - *c_on as f64 / *c_off as f64)
            .collect();
        reduction.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut off: Vec<f64> = runs.iter().map(|((r, _), _)| *r).collect();
        let mut on: Vec<f64> = runs.iter().map(|(_, (r, _))| *r).collect();
        off.sort_by(|a, b| a.partial_cmp(b).unwrap());
        on.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("compile reduction per seed: {reduction:?}");
        eprintln!("best/O3 off: {off:?}\nbest/O3 on:  {on:?}");
        let median_red = reduction[reduction.len() / 2];
        assert!(
            median_red >= 0.15,
            "median compile reduction {median_red:.3} < 15%: {reduction:?}"
        );
        // Behind the shared cache no seed may compile more with pruning on,
        // and pruning must still save compiles. Measured: 332-362 off vs
        // 238-297 on per seed, 3417 -> 2608 (-23.7%) in total, against
        // 3452 -> 2608 with per-session caches.
        for &(c_off, c_on) in &shared {
            assert!(c_on <= c_off, "oracle pruning added distinct compiles: {shared:?}");
        }
        let saved: usize = shared.iter().map(|(c_off, c_on)| c_off - c_on).sum();
        assert!(saved > 0, "oracle pruning saved no distinct compiles: {shared:?}");
        // "No worse" with a small noise tolerance: the two searches follow
        // different candidate streams, so compare medians, not seeds.
        let (m_off, m_on) = (off[off.len() / 2], on[on.len() / 2]);
        assert!(
            m_on <= m_off * 1.05,
            "median best/O3 degraded with pruning: {m_on:.4} vs {m_off:.4}"
        );
    }

    #[test]
    fn subsumption_collapse_cuts_compiles_without_hurting_speedup() {
        // Same quantile discipline as the oracle-pruning test: for each seed
        // run the identical configuration with the work-class subsumption
        // collapse off and on. Every drop is a module-independent theorem
        // (fuzz-checked by `citroen-analyze subsume`), so compiled artifacts
        // are unchanged; the win is genomes differing only in provable
        // no-op patterns (`p,p`, `dce` after a dce-tailed pass, `p,q,p`)
        // folding onto shared compile-cache entries.
        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let run = |subsume: bool| {
                // Longer sequences than the default gsm task (provable
                // no-op patterns scale with genome length; 32 is well inside
                // the paper's explored range) and an exploitation-heavy
                // mutation rate: most DES candidates then differ from the
                // incumbent in a single position, which is exactly the regime
                // where genomes collide onto one canonical form. Both arms
                // share the config, so the comparison stays honest.
                let mut task = Task::new(
                    citroen_suite::kernels::telecom_gsm(),
                    Registry::full(),
                    Platform::tx2(),
                    TaskConfig { seq_len: 32, seed, ..Default::default() },
                );
                let cfg = CitroenConfig {
                    candidates: 24,
                    init_random: 6,
                    mutation_rate: Some(1.0 / 32.0),
                    subsume_collapse: subsume,
                    seed,
                    ..Default::default()
                };
                // A private unbounded shared cache gives both arms the same
                // caching: each compiles every distinct genome it visits
                // exactly once (the off arm by raw form, the on arm by
                // canonical form). Without it the on arm's canonical-genome
                // cache, which a session only keeps when it canonicalises,
                // would be credited to the collapse.
                let env = SessionEnv {
                    shared_cache: Some(Arc::new(crate::service::SharedCompileCache::new(0))),
                    ..Default::default()
                };
                let res = run_citroen_session(&mut task, 40, &cfg, &env);
                (res.trace.best() / task.o3_seconds, task.compilations)
            };
            (run(false), run(true))
        });
        let compiles: Vec<(usize, usize)> =
            runs.iter().map(|((_, c_off), (_, c_on))| (*c_off, *c_on)).collect();
        let mut off: Vec<f64> = runs.iter().map(|((r, _), _)| *r).collect();
        let mut on: Vec<f64> = runs.iter().map(|(_, (r, _))| *r).collect();
        off.sort_by(|a, b| a.partial_cmp(b).unwrap());
        on.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("distinct-genome compiles per seed (off, on): {compiles:?}");
        eprintln!("best/O3 subsume-off: {off:?}\nbest/O3 subsume-on:  {on:?}");
        // Canonical forms are a coarsening of raw genomes, so on identical
        // trajectories no seed may compile more; the collapse must also
        // fire. Measured: 0-8 compiles saved per seed of 740-810, 15 of
        // 7681 in total.
        for &(c_off, c_on) in &compiles {
            assert!(c_on <= c_off, "subsumption collapse added compiles: {compiles:?}");
        }
        let saved: usize = compiles.iter().map(|(c_off, c_on)| c_off - c_on).sum();
        assert!(saved > 0, "subsumption collapse saved no compiles: {compiles:?}");
        let (m_off, m_on) = (off[off.len() / 2], on[on.len() / 2]);
        assert!(
            m_on <= m_off * 1.05,
            "median best/O3 degraded with subsumption collapse: {m_on:.4} vs {m_off:.4}"
        );
    }

    #[test]
    fn sixteen_class_masks_cut_compiles_beyond_the_twelve_class_model() {
        // The four loop/CFG work classes (CFGS, LICM, IVL, ROT) gave the
        // loop passes and simplifycfg provable `fires_on` masks they did
        // not have under the previous twelve-class model. Quantify the win
        // with the quantile discipline of the other ablations, on the
        // search space where those masks carry the drops: a loop-nest
        // sub-registry (six of its eight passes own the new classes), the
        // regime the alias/dependence analyses sharpened in the first
        // place. Arm A runs the old model — the registry's work triple
        // truncated to the first twelve classes, so any mask reaching into
        // the new bits reverts to `None` (never dropped), exactly the
        // pre-growth declarations — injected through a persisted
        // interaction graph; arm B runs the same graph with the full
        // model. Same seeds, same budget: the full matrix must cut compile
        // work (passes executed — every extra drop shortens the compiled
        // canonical sequence) by >=5% more at unchanged median
        // best-speedup. (On the full 33-pass registry the delta collapses
        // to noise: every loop pass's `produces` is "everything", so with
        // loop passes at 1/33 density the new drops are almost exclusively
        // immediate duplicates, which almost never survive mutation.)
        let loop_registry = || {
            const NAMES: &[&str] = &[
                "mem2reg",
                "loop-simplify",
                "loop-rotate",
                "licm",
                "loop-unroll",
                "loop-deletion",
                "simplifycfg",
                "dce",
            ];
            Registry::from_passes(
                citroen_passes::passes::all_passes()
                    .into_iter()
                    .filter(|p| NAMES.contains(&p.name()))
                    .collect(),
            )
        };
        let reg = loop_registry();
        let task0 = Task::new(
            citroen_suite::kernels::telecom_gsm(),
            loop_registry(),
            Platform::tx2(),
            TaskConfig { seq_len: 32, seed: 1, ..Default::default() },
        );
        let hot = task0.hot();
        let g16 = citroen_passes::oracle::derive_graph(
            &reg,
            &[task0.benchmark().modules[hot].clone()],
        );
        let mut g12 = g16.clone();
        {
            const OLD: u64 = (1 << 12) - 1;
            let w = g12.work.as_mut().expect("derived graph carries a work model");
            w.classes.truncate(12);
            for f in &mut w.fires_on {
                *f = f.filter(|m| m & !OLD == 0);
            }
            for c in &mut w.clears {
                *c &= OLD;
            }
            for p in &mut w.produces {
                *p &= OLD;
            }
        }
        let (g16, g12) = (persisted(&g16), persisted(&g12));

        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let run = |graph: &Arc<InteractionGraph>| {
                let mut task = Task::new(
                    citroen_suite::kernels::telecom_gsm(),
                    loop_registry(),
                    Platform::tx2(),
                    TaskConfig { seq_len: 32, seed, ..Default::default() },
                );
                let cfg = CitroenConfig {
                    candidates: 24,
                    init_random: 6,
                    subsume_collapse: true,
                    seed,
                    ..Default::default()
                };
                let env = SessionEnv { graph: Some(graph.clone()), ..Default::default() };
                let trace = run_citroen_session(&mut task, 40, &cfg, &env).trace;
                (trace.best() / task.o3_seconds, task.passes_executed)
            };
            (run(&g12), run(&g16))
        });
        let mut extra: Vec<f64> = runs
            .iter()
            .map(|((_, w12), (_, w16))| 1.0 - *w16 as f64 / *w12 as f64)
            .collect();
        extra.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut r12: Vec<f64> = runs.iter().map(|((r, _), _)| *r).collect();
        let mut r16: Vec<f64> = runs.iter().map(|(_, (r, _))| *r).collect();
        r12.sort_by(|a, b| a.partial_cmp(b).unwrap());
        r16.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("additional compile-work reduction per seed (16 vs 12 classes): {extra:?}");
        eprintln!("best/O3 12-class: {r12:?}\nbest/O3 16-class: {r16:?}");
        let median_extra = extra[extra.len() / 2];
        assert!(
            median_extra >= 0.05,
            "median additional compile-work reduction {median_extra:.3} < 5%: {extra:?}"
        );
        let (m12, m16) = (r12[r12.len() / 2], r16[r16.len() / 2]);
        assert!(
            m16 <= m12 * 1.05 && m12 <= m16 * 1.05,
            "median best/O3 moved with the grown matrix: {m16:.4} vs {m12:.4}"
        );
    }

    #[test]
    fn oracle_graph_warm_start_matches_per_task_derivation() {
        // Round-trip the interaction graph derived over the task's own hot
        // module through its JSON form and attach it to the session: the
        // canonicalizer inputs are identical, so the whole tuning trajectory
        // (best runtime and compile count) must be bit-identical to the
        // per-task derivation.
        let seed = 7;
        let run = |graph: Option<Arc<InteractionGraph>>| {
            let mut task = gsm_task(seed);
            let cfg = CitroenConfig {
                candidates: 12,
                init_random: 4,
                oracle_prune: true,
                subsume_collapse: true,
                seed,
                ..Default::default()
            };
            let env = SessionEnv { graph, ..Default::default() };
            let trace = run_citroen_session(&mut task, 10, &cfg, &env).trace;
            (trace.best(), task.compilations)
        };
        let task = gsm_task(seed);
        let hot = task.hot();
        let g = citroen_passes::oracle::derive_graph(
            &task.registry,
            &[task.benchmark().modules[hot].clone()],
        );
        let derived = run(None);
        let warm = run(Some(persisted(&g)));
        assert_eq!(derived, warm, "graph warm-start diverged from per-task derivation");
    }
}
