//! AIBO — Acquisition-function-maximiser Initialisation for Bayesian
//! Optimisation (thesis Ch. 4, Algorithm 1).
//!
//! Each iteration, every initialisation strategy (CMA-ES, GA, random, …)
//! generates `k` raw candidates from the *black-box history*; the top-`n` by
//! AF seed a gradient-based AF maximiser; the strategy whose refined
//! candidate has the highest AF wins and its point is evaluated; the
//! evaluated sample is told back to every heuristic.

use crate::acquisition::Acquisition;
use crate::heuristics::{AskTell, CmaEs, GaOpt, RandomOpt};
use crate::maximizer::{boltzmann_select, cmaes_on_af, gaussian_spray, top_n_by_af, GradMaximizer};
use crate::space::Bounds;
use citroen_gp::{Gp, GpConfig, Mat};
use citroen_rt::rng::StdRng;
use citroen_rt::rng::SeedableRng;
use std::time::{Duration, Instant};

/// An AF-maximiser initialisation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Uniform random candidates, top-n by AF (the standard-BO default).
    Random,
    /// GA candidate generator seeded/updated with the black-box history.
    Ga,
    /// CMA-ES candidate generator seeded/updated with the black-box history.
    CmaEs,
    /// Boltzmann sampling over random candidates (BoTorch default).
    Boltzmann,
    /// Gaussian spray around the incumbent best (Spearmint).
    GaussianSpray,
    /// Fresh CMA-ES run directly on the AF surface (no history).
    CmaesOnAf,
}

impl StrategyKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Random => "random",
            StrategyKind::Ga => "ga",
            StrategyKind::CmaEs => "cma-es",
            StrategyKind::Boltzmann => "boltzmann",
            StrategyKind::GaussianSpray => "gaussian-spray",
            StrategyKind::CmaesOnAf => "cmaes-on-af",
        }
    }
}

/// AIBO configuration (defaults follow thesis §4.3.2).
#[derive(Debug, Clone)]
pub struct AiboConfig {
    /// Acquisition function (default UCB with β = 1.96).
    pub af: Acquisition,
    /// Initialisation strategies run per iteration.
    pub strategies: Vec<StrategyKind>,
    /// Raw candidates per strategy (thesis k = 500).
    pub k: usize,
    /// Maximiser starts per strategy (thesis n = 1).
    pub n: usize,
    /// Initial uniform design size (thesis N = 50).
    pub init_samples: usize,
    /// GA population size (thesis 50).
    pub ga_pop: usize,
    /// CMA-ES initial standard deviation (thesis 0.2).
    pub cma_sigma: f64,
    /// Gradient maximiser; `None` reproduces AIBO-none (no refinement).
    pub maximizer: Option<GradMaximizer>,
    /// Batch size (points evaluated per iteration, constant-liar batching).
    pub batch: usize,
    /// Refit GP hyperparameters every this many iterations (warm-started
    /// refactorisation in between).
    pub fit_every: usize,
    /// Base GP configuration.
    pub gp: GpConfig,
    /// Record every refined candidate per iteration (Fig. 4.3 analysis).
    pub record_candidates: bool,
}

impl Default for AiboConfig {
    fn default() -> AiboConfig {
        AiboConfig {
            af: Acquisition::Ucb { beta: 1.96 },
            strategies: vec![StrategyKind::CmaEs, StrategyKind::Ga, StrategyKind::Random],
            k: 500,
            n: 1,
            init_samples: 50,
            ga_pop: 50,
            cma_sigma: 0.2,
            maximizer: Some(GradMaximizer::default()),
            batch: 1,
            fit_every: 4,
            gp: GpConfig::default(),
            record_candidates: false,
        }
    }
}

/// Per-iteration instrumentation (drives Figs. 4.8–4.10, 4.15).
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Index (into `strategies`) of the strategy whose candidate won on AF.
    pub winner: usize,
    /// AF value of each strategy's refined candidate.
    pub af: Vec<f64>,
    /// GP posterior mean of each strategy's candidate.
    pub post_mean: Vec<f64>,
    /// GP posterior variance of each strategy's candidate.
    pub post_var: Vec<f64>,
    /// GA population diversity at this iteration (0 when GA absent).
    pub ga_diversity: f64,
    /// All refined candidates (when `record_candidates`).
    pub candidates: Vec<Vec<f64>>,
}

/// Result of a BO run.
#[derive(Debug, Clone)]
pub struct BoResult {
    /// Evaluated points (problem space).
    pub xs: Vec<Vec<f64>>,
    /// Observed objective values (minimised).
    pub ys: Vec<f64>,
    /// Best-so-far trace, one entry per evaluation.
    pub best_history: Vec<f64>,
    /// Per-iteration instrumentation (empty for the initial design).
    pub records: Vec<IterationRecord>,
    /// Pure algorithmic time (model fitting + AF maximisation), excluding
    /// objective evaluations — Table 4.2's metric.
    pub algo_time: Duration,
}

impl BoResult {
    /// Final best value.
    pub fn best(&self) -> f64 {
        self.best_history.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Run AIBO (or any of its ablations, depending on `cfg.strategies` and
/// `cfg.maximizer`) on `f`, minimising, for `budget` total evaluations.
pub fn run_aibo(
    bounds: &Bounds,
    cfg: &AiboConfig,
    seed: u64,
    budget: usize,
    f: &mut dyn FnMut(&[f64]) -> f64,
) -> BoResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = bounds.dim();
    let mut xs_unit: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut best_history = Vec::new();
    let mut records = Vec::new();
    let mut algo_time = Duration::ZERO;

    // Heuristic state.
    let mut ga = GaOpt::new(d, cfg.ga_pop);
    let mut cma = CmaEs::new(vec![0.5; d], cfg.cma_sigma);
    let mut random = RandomOpt::new(d);

    // Initial design.
    let n0 = cfg.init_samples.min(budget).max(1);
    for _ in 0..n0 {
        let u = bounds.sample_unit(&mut rng);
        let y = f(&bounds.from_unit(&u));
        ga.tell(&u, y);
        cma.tell(&u, y);
        xs_unit.push(u);
        ys.push(y);
        best_history.push(ys.iter().cloned().fold(f64::INFINITY, f64::min));
    }

    let mut hypers = None;
    let mut iter = 0usize;
    while ys.len() < budget {
        let t0 = Instant::now();
        // 1. Fit the surrogate.
        let mut gpc = cfg.gp.clone();
        gpc.init = hypers.clone();
        if !iter.is_multiple_of(cfg.fit_every) && hypers.is_some() {
            gpc.fit_iters = 0;
        }
        let xmat = Mat::from_rows(xs_unit.clone());
        let gp = Gp::fit(xmat, &ys, gpc);
        hypers = Some(gp.hypers());
        let best_raw = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let best_z = gp.transform().forward(best_raw);
        let best_x = xs_unit[ys
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0]
            .clone();

        // 2..3. Per-strategy candidate generation, top-n, refinement.
        let mut per_strategy: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut all_candidates = Vec::new();
        for s in &cfg.strategies {
            let starts = match s {
                StrategyKind::Random => {
                    let raw = random.ask(&mut rng, cfg.k);
                    top_n_by_af(&gp, cfg.af, best_z, raw, cfg.n)
                }
                StrategyKind::Ga => {
                    let raw = ga.ask(&mut rng, cfg.k);
                    top_n_by_af(&gp, cfg.af, best_z, raw, cfg.n)
                }
                StrategyKind::CmaEs => {
                    let raw = cma.ask(&mut rng, cfg.k);
                    top_n_by_af(&gp, cfg.af, best_z, raw, cfg.n)
                }
                StrategyKind::Boltzmann => {
                    let raw = random.ask(&mut rng, cfg.k);
                    boltzmann_select(&gp, cfg.af, best_z, raw, cfg.n, &mut rng)
                }
                StrategyKind::GaussianSpray => {
                    let raw = gaussian_spray(&best_x, 0.1, cfg.k, &mut rng);
                    top_n_by_af(&gp, cfg.af, best_z, raw, cfg.n)
                }
                StrategyKind::CmaesOnAf => {
                    cmaes_on_af(&gp, cfg.af, best_z, d, cfg.k, cfg.n, &mut rng)
                }
            };
            let refined: Vec<(Vec<f64>, f64)> = match &cfg.maximizer {
                Some(gm) => gm.maximize(&gp, cfg.af, best_z, &starts),
                None => starts
                    .into_iter()
                    .map(|x| {
                        let a = cfg.af.eval(&gp, best_z, &x);
                        (x, a)
                    })
                    .collect(),
            };
            let best_for_strategy = refined
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .cloned()
                .unwrap_or_else(|| (bounds.sample_unit(&mut rng), f64::NEG_INFINITY));
            if cfg.record_candidates {
                all_candidates.extend(refined.iter().map(|(x, _)| x.clone()));
            }
            per_strategy.push(best_for_strategy);
        }

        // 4. Pick the overall winner.
        let winner = per_strategy
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let record = IterationRecord {
            winner,
            af: per_strategy.iter().map(|(_, a)| *a).collect(),
            post_mean: per_strategy.iter().map(|(x, _)| gp.predict(x).0).collect(),
            post_var: per_strategy.iter().map(|(x, _)| gp.predict(x).1).collect(),
            ga_diversity: ga.population_diversity(),
            candidates: all_candidates,
        };
        algo_time += t0.elapsed();

        // 5. Evaluate the batch (constant liar for batch > 1: the remaining
        //    batch points come from re-ranking the other strategies).
        let mut batch_points = vec![per_strategy[winner].0.clone()];
        if cfg.batch > 1 {
            let mut others: Vec<(Vec<f64>, f64)> = per_strategy
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != winner)
                .map(|(_, c)| c.clone())
                .collect();
            others.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            for (x, _) in others.into_iter().take(cfg.batch - 1) {
                batch_points.push(x);
            }
            // Fill any remaining slots with fresh random probes.
            while batch_points.len() < cfg.batch {
                batch_points.push(bounds.sample_unit(&mut rng));
            }
        }
        for u in batch_points {
            if ys.len() >= budget {
                break;
            }
            let y = f(&bounds.from_unit(&u));
            ga.tell(&u, y);
            cma.tell(&u, y);
            random.tell(&u, y);
            xs_unit.push(u);
            ys.push(y);
            best_history.push(ys.iter().cloned().fold(f64::INFINITY, f64::min));
        }
        records.push(record);
        iter += 1;
    }

    BoResult {
        xs: xs_unit.iter().map(|u| bounds.from_unit(u)).collect(),
        ys,
        best_history,
        records,
        algo_time,
    }
}

/// Standard-BO variants of Ch. 4's baselines, expressed through AIBO's
/// configuration space.
pub mod presets {
    use super::*;

    /// `BO-grad`: random initialisation + gradient maximiser.
    pub fn bo_grad(k: usize, n: usize) -> AiboConfig {
        AiboConfig {
            strategies: vec![StrategyKind::Random],
            k,
            n,
            ..Default::default()
        }
    }

    /// `BO-random`: random sampling as the whole maximiser.
    pub fn bo_random(k: usize) -> AiboConfig {
        AiboConfig { strategies: vec![StrategyKind::Random], k, n: 1, maximizer: None, ..Default::default() }
    }

    /// `BO-es`: CMA-ES directly maximising the AF.
    pub fn bo_es(evals: usize) -> AiboConfig {
        AiboConfig {
            strategies: vec![StrategyKind::CmaesOnAf],
            k: evals,
            n: 1,
            maximizer: None,
            ..Default::default()
        }
    }

    /// `BO-cmaes_grad` (Fig. 4.13): CMA-ES on the AF, then gradient refine.
    pub fn bo_cmaes_grad(evals: usize) -> AiboConfig {
        AiboConfig { strategies: vec![StrategyKind::CmaesOnAf], k: evals, n: 1, ..Default::default() }
    }

    /// `BO-boltzmann_grad` (Fig. 4.13).
    pub fn bo_boltzmann_grad(k: usize) -> AiboConfig {
        AiboConfig { strategies: vec![StrategyKind::Boltzmann], k, n: 1, ..Default::default() }
    }

    /// `BO-Gaussian_grad` (Fig. 4.13).
    pub fn bo_gaussian_grad(k: usize) -> AiboConfig {
        AiboConfig { strategies: vec![StrategyKind::GaussianSpray], k, n: 1, ..Default::default() }
    }

    /// AIBO ablations (Fig. 4.12).
    pub fn aibo_variant(strategies: Vec<StrategyKind>) -> AiboConfig {
        AiboConfig { strategies, ..Default::default() }
    }
}

/// Pure random search over the bounds (baseline).
pub fn run_random_search(
    bounds: &Bounds,
    seed: u64,
    budget: usize,
    f: &mut dyn FnMut(&[f64]) -> f64,
) -> BoResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut best_history = Vec::new();
    for _ in 0..budget {
        let u = bounds.sample_unit(&mut rng);
        let x = bounds.from_unit(&u);
        let y = f(&x);
        xs.push(x);
        ys.push(y);
        best_history.push(ys.iter().cloned().fold(f64::INFINITY, f64::min));
    }
    BoResult { xs, ys, best_history, records: Vec::new(), algo_time: Duration::ZERO }
}

/// Raw heuristic baselines (GA / CMA-ES applied directly to the objective,
/// Fig. 4.2a).
pub fn run_heuristic(
    bounds: &Bounds,
    which: StrategyKind,
    seed: u64,
    budget: usize,
    f: &mut dyn FnMut(&[f64]) -> f64,
) -> BoResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = bounds.dim();
    let mut opt: Box<dyn AskTell> = match which {
        StrategyKind::Ga => Box::new(GaOpt::new(d, 50)),
        StrategyKind::CmaEs => Box::new(CmaEs::new(vec![0.5; d], 0.2)),
        _ => Box::new(RandomOpt::new(d)),
    };
    let mut xs = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut best_history = Vec::new();
    // Seed with a small random design so GA has a population.
    for _ in 0..(20.min(budget)) {
        let u = bounds.sample_unit(&mut rng);
        let y = f(&bounds.from_unit(&u));
        opt.tell(&u, y);
        xs.push(bounds.from_unit(&u));
        ys.push(y);
        best_history.push(ys.iter().cloned().fold(f64::INFINITY, f64::min));
    }
    while ys.len() < budget {
        let u = &opt.ask(&mut rng, 1)[0];
        let y = f(&bounds.from_unit(u));
        opt.tell(u, y);
        xs.push(bounds.from_unit(u));
        ys.push(y);
        best_history.push(ys.iter().cloned().fold(f64::INFINITY, f64::min));
    }
    BoResult { xs, ys, best_history, records: Vec::new(), algo_time: Duration::ZERO }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ackley(x: &[f64]) -> f64 {
        let d = x.len() as f64;
        let s1: f64 = x.iter().map(|v| v * v).sum::<f64>() / d;
        let s2: f64 =
            x.iter().map(|v| (2.0 * std::f64::consts::PI * v).cos()).sum::<f64>() / d;
        -20.0 * (-0.2 * s1.sqrt()).exp() - s2.exp() + 20.0 + std::f64::consts::E
    }

    fn small_cfg() -> AiboConfig {
        AiboConfig {
            k: 60,
            init_samples: 12,
            gp: GpConfig { fit_iters: 10, yeo_johnson: false, ..Default::default() },
            maximizer: Some(GradMaximizer { iters: 5, lr: 0.05 }),
            ..Default::default()
        }
    }

    #[test]
    fn aibo_beats_random_on_ackley10() {
        let bounds = Bounds::cube(10, -5.0, 10.0);
        let mut evals = |x: &[f64]| ackley(x);
        let aibo = run_aibo(&bounds, &small_cfg(), 1, 60, &mut evals);
        let mut evals2 = |x: &[f64]| ackley(x);
        let rnd = run_random_search(&bounds, 1, 60, &mut evals2);
        assert!(aibo.best() < rnd.best(), "aibo {} vs random {}", aibo.best(), rnd.best());
        // monotone best history
        assert!(aibo
            .best_history
            .windows(2)
            .all(|w| w[1] <= w[0] + 1e-12));
        assert_eq!(aibo.ys.len(), 60);
    }

    #[test]
    fn records_track_strategies() {
        let bounds = Bounds::cube(4, -2.0, 2.0);
        let mut evals = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let res = run_aibo(&bounds, &small_cfg(), 3, 30, &mut evals);
        assert!(!res.records.is_empty());
        for r in &res.records {
            assert_eq!(r.af.len(), 3);
            assert!(r.winner < 3);
            assert!(r.post_var.iter().all(|v| *v >= 0.0));
        }
        assert!(res.algo_time > Duration::ZERO);
    }

    #[test]
    fn batch_mode_fills_budget() {
        let bounds = Bounds::cube(3, 0.0, 1.0);
        let mut cfg = small_cfg();
        cfg.batch = 4;
        let mut evals = |x: &[f64]| x.iter().sum::<f64>();
        let res = run_aibo(&bounds, &cfg, 7, 40, &mut evals);
        assert_eq!(res.ys.len(), 40);
    }

    #[test]
    fn heuristic_baselines_run() {
        let bounds = Bounds::cube(6, -3.0, 3.0);
        for kind in [StrategyKind::Ga, StrategyKind::CmaEs] {
            let mut evals = |x: &[f64]| x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum::<f64>();
            let res = run_heuristic(&bounds, kind, 2, 80, &mut evals);
            assert_eq!(res.ys.len(), 80);
            assert!(res.best() < res.ys[0] + 1e-9);
        }
    }
}
