//! Chapter 4 (AIBO) experiment runners: Figures 4.3–4.15 and Table 4.2.

use crate::{f3, f4, mean, std_dev, ExpCfg, Report};
use citroen_bo::aibo::presets;
use citroen_bo::maximizer::{top_n_by_af, GradMaximizer};
use citroen_bo::{
    run_aibo, run_heuristic, run_hesbo, run_random_search, run_turbo, Acquisition, AiboConfig,
    Bounds, StrategyKind, TurboConfig,
};
use citroen_core::{Task, TaskConfig};
use citroen_gp::{Gp, GpConfig, Mat};
use citroen_passes::Registry;
use citroen_sim::Platform;
use citroen_synthetic::{functions, realworld, FlagSelection};
use citroen_rt::rng::StdRng;
use citroen_rt::rng::SeedableRng;
use citroen_rt::par::par_map;

fn fast_gp() -> GpConfig {
    GpConfig { fit_iters: 12, yeo_johnson: true, ..Default::default() }
}

fn small_aibo() -> AiboConfig {
    AiboConfig { k: 200, init_samples: 20, gp: fast_gp(), ..Default::default() }
}

/// Run a named optimiser on a task, minimising; returns the best-so-far curve.
fn run_optimiser(
    which: &str,
    bounds: &Bounds,
    seed: u64,
    budget: usize,
    f: &mut dyn FnMut(&[f64]) -> f64,
) -> Vec<f64> {
    let res = match which {
        "AIBO" => run_aibo(bounds, &small_aibo(), seed, budget, f),
        "AIBO-none" => {
            let cfg = AiboConfig { maximizer: None, ..small_aibo() };
            run_aibo(bounds, &cfg, seed, budget, f)
        }
        "BO-grad" => {
            let cfg = AiboConfig { gp: fast_gp(), ..presets::bo_grad(400, 2) };
            run_aibo(bounds, &cfg, seed, budget, f)
        }
        "BO-random" => {
            let cfg = AiboConfig { gp: fast_gp(), ..presets::bo_random(400) };
            run_aibo(bounds, &cfg, seed, budget, f)
        }
        "BO-es" => {
            let cfg = AiboConfig { gp: fast_gp(), ..presets::bo_es(200) };
            run_aibo(bounds, &cfg, seed, budget, f)
        }
        "BO-cmaes_grad" => {
            let cfg = AiboConfig { gp: fast_gp(), ..presets::bo_cmaes_grad(200) };
            run_aibo(bounds, &cfg, seed, budget, f)
        }
        "BO-boltzmann_grad" => {
            let cfg = AiboConfig { gp: fast_gp(), ..presets::bo_boltzmann_grad(200) };
            run_aibo(bounds, &cfg, seed, budget, f)
        }
        "BO-Gaussian_grad" => {
            let cfg = AiboConfig { gp: fast_gp(), ..presets::bo_gaussian_grad(200) };
            run_aibo(bounds, &cfg, seed, budget, f)
        }
        "TuRBO" => run_turbo(bounds, &TurboConfig::default(), seed, budget, f),
        "HeSBO" => run_hesbo(bounds, bounds.dim().min(12), seed, budget, f),
        "CMA-ES" => run_heuristic(bounds, StrategyKind::CmaEs, seed, budget, f),
        "GA" => run_heuristic(bounds, StrategyKind::Ga, seed, budget, f),
        "Random" => run_random_search(bounds, seed, budget, f),
        other => panic!("unknown optimiser {other}"),
    };
    res.best_history
}

// ---------------------------------------------------------------------------
// Fig 4.3 — candidate-pool analysis on Ackley
// ---------------------------------------------------------------------------

/// Fig. 4.3: with random AF-maximiser initialisation, compare selecting the
/// next query by AF, at random, or by an oracle over the candidate pool.
/// The AF tracks the oracle closely — the pool itself is the bottleneck.
pub fn fig4_3(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig4_3_candidate_selection",
        &["restarts", "selection", "best_value", "sd"],
    );
    let dim = if cfg.full { 100 } else { 30 };
    let fun = functions::ackley(dim);
    for restarts in [10usize, 100] {
        for selection in ["af", "random", "oracle"] {
            let finals: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                candidate_selection_run(&fun, restarts, selection, seed, cfg.budget)
            });
            rep.row(vec![
                restarts.to_string(),
                selection.to_string(),
                f3(mean(&finals)),
                f3(std_dev(&finals)),
            ]);
        }
    }
    rep.finish(cfg);
}

fn candidate_selection_run(
    fun: &functions::SyntheticFn,
    restarts: usize,
    selection: &str,
    seed: u64,
    budget: usize,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = &fun.bounds;
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for _ in 0..20.min(budget) {
        let u = bounds.sample_unit(&mut rng);
        let y = (fun.f)(&bounds.from_unit(&u));
        xs.push(u);
        ys.push(y);
    }
    let acq = Acquisition::Ucb { beta: 1.96 };
    let gm = GradMaximizer { iters: 6, lr: 0.05 };
    while ys.len() < budget {
        let gp = Gp::fit(Mat::from_rows(xs.clone()), &ys, fast_gp());
        let best_raw = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let best_z = gp.transform().forward(best_raw);
        // Random-initialised multi-start maximisation → a candidate pool.
        let raw: Vec<Vec<f64>> = (0..400).map(|_| bounds.sample_unit(&mut rng)).collect();
        let starts = top_n_by_af(&gp, acq, best_z, raw, restarts);
        let pool = gm.maximize(&gp, acq, best_z, &starts);
        let chosen = match selection {
            "af" => {
                pool.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap().0.clone()
            }
            "random" => pool[rng.gen_range_idx(pool.len())].0.clone(),
            _ => pool
                .iter()
                .min_by(|a, b| {
                    (fun.f)(&bounds.from_unit(&a.0))
                        .partial_cmp(&(fun.f)(&bounds.from_unit(&b.0)))
                        .unwrap()
                })
                .unwrap()
                .0
                .clone(),
        };
        let y = (fun.f)(&bounds.from_unit(&chosen));
        xs.push(chosen);
        ys.push(y);
    }
    ys.iter().cloned().fold(f64::INFINITY, f64::min)
}

trait GenRangeIdx {
    fn gen_range_idx(&mut self, n: usize) -> usize;
}
impl GenRangeIdx for StdRng {
    fn gen_range_idx(&mut self, n: usize) -> usize {
        use citroen_rt::rng::Rng;
        self.gen_range(0..n)
    }
}

// ---------------------------------------------------------------------------
// Fig 4.4 — compiler flag selection
// ---------------------------------------------------------------------------

/// Fig. 4.4: AIBO vs BO-grad on the compiler-flag-selection task.
pub fn fig4_4(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig4_4_flag_selection",
        &["optimiser", "speedup_vs_O3@half", "speedup_vs_O3@full", "sd"],
    );
    for which in ["AIBO", "BO-grad", "Random"] {
        let rows: Vec<(f64, f64)> = par_map((0..cfg.reps).collect(), |seed| {
            let mut task = Task::new(
                citroen_suite::kernels::telecom_gsm(),
                Registry::full(),
                Platform::amd(),
                TaskConfig { seq_len: cfg.seq_len, seed, ..Default::default() },
            );
            let fs = FlagSelection::new(&task);
            let bounds = fs.bounds.clone();
            let o3 = task.o3_seconds;
            let mut obj = |x: &[f64]| fs.evaluate(&mut task, x);
            let hist = run_optimiser(which, &bounds, seed, cfg.budget, &mut obj);
            let half = o3 / hist[hist.len() / 2];
            let full = o3 / hist[hist.len() - 1];
            (half, full)
        });
        let halves: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let fulls: Vec<f64> = rows.iter().map(|r| r.1).collect();
        rep.row(vec![
            which.to_string(),
            f3(mean(&halves)),
            f3(mean(&fulls)),
            f3(std_dev(&fulls)),
        ]);
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 4.5 / 4.6 — synthetic + real-world comparisons
// ---------------------------------------------------------------------------

/// Fig. 4.5: synthetic functions; AIBO vs standard BO, heuristics and
/// high-dimensional BO baselines.
pub fn fig4_5(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig4_5_synthetic",
        &["function", "optimiser", "best@half", "best@full", "sd"],
    );
    let dims: Vec<usize> = if cfg.full { vec![20, 100] } else { vec![20] };
    let optimisers =
        ["AIBO", "BO-grad", "BO-es", "BO-random", "AIBO-none", "TuRBO", "HeSBO", "CMA-ES", "GA", "Random"];
    for d in dims {
        for fun in functions::standard_set(d) {
            for which in optimisers {
                let finals: Vec<(f64, f64)> = par_map((0..cfg.reps).collect(), |seed| {
                    let mut f = |x: &[f64]| (fun.f)(x);
                    let hist =
                        run_optimiser(which, &fun.bounds, seed, cfg.budget, &mut f);
                    (hist[hist.len() / 2], hist[hist.len() - 1])
                });
                let halves: Vec<f64> = finals.iter().map(|r| r.0).collect();
                let fulls: Vec<f64> = finals.iter().map(|r| r.1).collect();
                rep.row(vec![
                    fun.name.clone(),
                    which.to_string(),
                    f3(mean(&halves)),
                    f3(mean(&fulls)),
                    f3(std_dev(&fulls)),
                ]);
            }
        }
    }
    rep.finish(cfg);
}

/// Fig. 4.6: the real-world task stand-ins.
pub fn fig4_6(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig4_6_realworld",
        &["task", "optimiser", "best@half", "best@full", "sd"],
    );
    let optimisers = ["AIBO", "BO-grad", "TuRBO", "CMA-ES", "GA", "Random"];
    for task in realworld::all_tasks() {
        for which in optimisers {
            let finals: Vec<(f64, f64)> = par_map((0..cfg.reps).collect(), |seed| {
                let mut f = |x: &[f64]| (task.f)(x);
                let hist = run_optimiser(which, &task.bounds, seed, cfg.budget, &mut f);
                (hist[hist.len() / 2], hist[hist.len() - 1])
            });
            let halves: Vec<f64> = finals.iter().map(|r| r.0).collect();
            let fulls: Vec<f64> = finals.iter().map(|r| r.1).collect();
            rep.row(vec![
                task.name.clone(),
                which.to_string(),
                f3(mean(&halves)),
                f3(mean(&fulls)),
                f3(std_dev(&fulls)),
            ]);
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 4.7 — different AFs
// ---------------------------------------------------------------------------

/// Fig. 4.7: AIBO vs BO-grad under UCB1 / UCB1.96 / UCB4 / EI.
pub fn fig4_7(cfg: &ExpCfg) {
    let mut rep =
        Report::new("fig4_7_acquisitions", &["function", "AF", "optimiser", "best", "sd"]);
    let afs = [
        Acquisition::Ucb { beta: 1.0 },
        Acquisition::Ucb { beta: 1.96 },
        Acquisition::Ucb { beta: 4.0 },
        Acquisition::Ei,
    ];
    let dim = if cfg.full { 100 } else { 20 };
    for fun in [functions::ackley(dim), functions::rastrigin(dim)] {
        for af in afs {
            for (which, strategies) in [
                ("AIBO", vec![StrategyKind::CmaEs, StrategyKind::Ga, StrategyKind::Random]),
                ("BO-grad", vec![StrategyKind::Random]),
            ] {
                let finals: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                    let c = AiboConfig { af, strategies: strategies.clone(), ..small_aibo() };
                    let mut f = |x: &[f64]| (fun.f)(x);
                    run_aibo(&fun.bounds, &c, seed, cfg.budget, &mut f).best()
                });
                rep.row(vec![
                    fun.name.clone(),
                    af.name(),
                    which.to_string(),
                    f3(mean(&finals)),
                    f3(std_dev(&finals)),
                ]);
            }
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 4.8–4.10 — which strategy wins / over-exploration
// ---------------------------------------------------------------------------

/// Figs. 4.8–4.10: per-strategy counts of AF wins, lowest posterior mean
/// (exploitation) and highest posterior variance (exploration), under
/// several AF settings. Random initialisation should dominate the
/// highest-variance column — the over-exploration finding.
pub fn fig4_8_10(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig4_8_10_strategy_analysis",
        &["AF", "strategy", "af_wins", "lowest_mean_wins", "highest_var_wins"],
    );
    let dim = if cfg.full { 100 } else { 30 };
    let fun = functions::ackley(dim);
    for af in [Acquisition::Ucb { beta: 1.96 }, Acquisition::Ucb { beta: 1.0 }, Acquisition::Ei] {
        let mut wins = [0usize; 3];
        let mut mean_wins = [0usize; 3];
        let mut var_wins = [0usize; 3];
        for seed in 0..cfg.reps {
            let c = AiboConfig { af, ..small_aibo() };
            let mut f = |x: &[f64]| (fun.f)(x);
            let res = run_aibo(&fun.bounds, &c, seed, cfg.budget, &mut f);
            for r in &res.records {
                wins[r.winner] += 1;
                let lm = r
                    .post_mean
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                mean_wins[lm] += 1;
                let hv = r
                    .post_var
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                var_wins[hv] += 1;
            }
        }
        for (i, strat) in ["cma-es", "ga", "random"].iter().enumerate() {
            rep.row(vec![
                af.name(),
                strat.to_string(),
                wins[i].to_string(),
                mean_wins[i].to_string(),
                var_wins[i].to_string(),
            ]);
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 4.11 / 4.12 / 4.13 — over-exploitation, ablations, other inits
// ---------------------------------------------------------------------------

/// Fig. 4.11: the over-exploitation case — AIBO_gacma with a tiny GA
/// population and CMA σ degrades; adding random initialisation recovers.
pub fn fig4_11(cfg: &ExpCfg) {
    let mut rep = Report::new("fig4_11_overexploitation", &["setting", "best", "sd"]);
    let task = realworld::robot_push();
    let settings: Vec<(&str, AiboConfig)> = vec![
        (
            "AIBO_gacma(default)",
            AiboConfig {
                strategies: vec![StrategyKind::CmaEs, StrategyKind::Ga],
                ..small_aibo()
            },
        ),
        (
            "AIBO_gacma(pop3,sigma0.01)",
            AiboConfig {
                strategies: vec![StrategyKind::CmaEs, StrategyKind::Ga],
                ga_pop: 3,
                cma_sigma: 0.01,
                ..small_aibo()
            },
        ),
        (
            "AIBO(pop3,sigma0.01,+random)",
            AiboConfig { ga_pop: 3, cma_sigma: 0.01, ..small_aibo() },
        ),
    ];
    for (label, c) in settings {
        let finals: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
            let mut f = |x: &[f64]| (task.f)(x);
            run_aibo(&task.bounds, &c, seed, cfg.budget, &mut f).best()
        });
        rep.row(vec![label.to_string(), f4(mean(&finals)), f4(std_dev(&finals))]);
    }
    rep.finish(cfg);
}

/// Fig. 4.12: AIBO vs its single-strategy variants.
pub fn fig4_12(cfg: &ExpCfg) {
    let mut rep = Report::new("fig4_12_ablation", &["function", "variant", "best", "sd"]);
    let dim = if cfg.full { 100 } else { 20 };
    let variants: Vec<(&str, Vec<StrategyKind>)> = vec![
        ("AIBO", vec![StrategyKind::CmaEs, StrategyKind::Ga, StrategyKind::Random]),
        ("AIBO_gacma", vec![StrategyKind::CmaEs, StrategyKind::Ga]),
        ("AIBO_ga", vec![StrategyKind::Ga]),
        ("AIBO_cmaes", vec![StrategyKind::CmaEs]),
        ("AIBO_random(BO-grad)", vec![StrategyKind::Random]),
    ];
    for fun in [functions::ackley(dim), functions::rosenbrock(dim)] {
        for (label, strategies) in &variants {
            let finals: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                let c = AiboConfig { strategies: strategies.clone(), ..small_aibo() };
                let mut f = |x: &[f64]| (fun.f)(x);
                run_aibo(&fun.bounds, &c, seed, cfg.budget, &mut f).best()
            });
            rep.row(vec![
                fun.name.clone(),
                label.to_string(),
                f3(mean(&finals)),
                f3(std_dev(&finals)),
            ]);
        }
    }
    rep.finish(cfg);
}

/// Fig. 4.13: AIBO vs non-random initialisation strategies that ignore the
/// black-box history (CMA-ES-on-AF, Boltzmann, Gaussian spray).
pub fn fig4_13(cfg: &ExpCfg) {
    let mut rep = Report::new("fig4_13_other_inits", &["function", "method", "best", "sd"]);
    let dim = if cfg.full { 100 } else { 20 };
    let methods = ["AIBO", "BO-cmaes_grad", "BO-boltzmann_grad", "BO-Gaussian_grad"];
    for fun in [functions::rastrigin(dim), functions::ackley(dim)] {
        for which in methods {
            let finals: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                let mut f = |x: &[f64]| (fun.f)(x);
                let hist = run_optimiser(which, &fun.bounds, seed, cfg.budget, &mut f);
                hist[hist.len() - 1]
            });
            rep.row(vec![
                fun.name.clone(),
                which.to_string(),
                f3(mean(&finals)),
                f3(std_dev(&finals)),
            ]);
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 4.14 / 4.15 / Table 4.2
// ---------------------------------------------------------------------------

/// Fig. 4.14: AIBO hyper-parameters (GA pop / CMA σ; k and n; batch size).
pub fn fig4_14(cfg: &ExpCfg) {
    let mut rep = Report::new("fig4_14_hyperparams", &["function", "setting", "best", "sd"]);
    let dim = if cfg.full { 100 } else { 20 };
    let fun = functions::ackley(dim);
    let settings: Vec<(&str, AiboConfig)> = vec![
        ("default(pop50,s0.2,k200,n1,b1)", small_aibo()),
        ("explore(pop100,s0.5)", AiboConfig { ga_pop: 100, cma_sigma: 0.5, ..small_aibo() }),
        ("exploit(pop10,s0.05)", AiboConfig { ga_pop: 10, cma_sigma: 0.05, ..small_aibo() }),
        ("k800,n4", AiboConfig { k: 800, n: 4, ..small_aibo() }),
        ("k50,n1", AiboConfig { k: 50, n: 1, ..small_aibo() }),
        ("batch5", AiboConfig { batch: 5, ..small_aibo() }),
    ];
    for (label, c) in settings {
        let finals: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
            let mut f = |x: &[f64]| (fun.f)(x);
            run_aibo(&fun.bounds, &c, seed, cfg.budget, &mut f).best()
        });
        rep.row(vec![
            fun.name.clone(),
            label.to_string(),
            f3(mean(&finals)),
            f3(std_dev(&finals)),
        ]);
    }
    rep.finish(cfg);
}

/// Fig. 4.15: GA population diversity under UCB1.96 vs UCB9.
pub fn fig4_15(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig4_15_ga_diversity",
        &["AF", "mean_diversity_early", "mean_diversity_late"],
    );
    let dim = if cfg.full { 100 } else { 30 };
    let fun = functions::ackley(dim);
    for af in [Acquisition::Ucb { beta: 1.96 }, Acquisition::Ucb { beta: 9.0 }] {
        let mut early = Vec::new();
        let mut late = Vec::new();
        for seed in 0..cfg.reps {
            let c = AiboConfig { af, ..small_aibo() };
            let mut f = |x: &[f64]| (fun.f)(x);
            let res = run_aibo(&fun.bounds, &c, seed, cfg.budget, &mut f);
            let n = res.records.len();
            for (i, r) in res.records.iter().enumerate() {
                if i < n / 2 {
                    early.push(r.ga_diversity);
                } else {
                    late.push(r.ga_diversity);
                }
            }
        }
        rep.row(vec![af.name(), f4(mean(&early)), f4(mean(&late))]);
    }
    rep.finish(cfg);
}

/// Table 4.2: pure algorithmic runtime of AIBO vs BO-grad (BO-grad is given
/// the costlier maximisation budget, as in the thesis).
pub fn tab4_2(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "tab4_2_algorithmic_runtime",
        &["function", "optimiser", "algo_seconds", "best"],
    );
    let dim = if cfg.full { 100 } else { 20 };
    let fun = functions::ackley(dim);
    for (label, c) in [
        ("AIBO", small_aibo()),
        (
            "BO-grad(k2000,n10)",
            AiboConfig { gp: fast_gp(), ..presets::bo_grad(2000, 10) },
        ),
    ] {
        let mut f = |x: &[f64]| (fun.f)(x);
        let res = run_aibo(&fun.bounds, &c, 0, cfg.budget, &mut f);
        rep.row(vec![
            fun.name.clone(),
            label.to_string(),
            f3(res.algo_time.as_secs_f64()),
            f3(res.best()),
        ]);
    }
    rep.finish(cfg);
}
