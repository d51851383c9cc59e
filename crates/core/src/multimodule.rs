//! Adaptive multi-module budget allocation (thesis contribution 3, §5.3.1):
//! a single global cost model over the *concatenated* per-module compilation
//! statistics decides, each iteration, which hot module's candidate is most
//! promising to measure — instead of splitting the budget uniformly or
//! round-robin across modules.

use crate::citroen::{note_keys, scale_row, scaled_matrix, stats_features};
use crate::task::{Task, TuneTrace};
use citroen_bo::heuristics::DiscreteOneLambda;
use citroen_bo::Acquisition;
use citroen_gp::{Gp, GpConfig, GpHypers};
use citroen_ir::module::Module;
use citroen_passes::{PassId, Stats};
use citroen_rt::rng::StdRng;
use citroen_rt::rng::{Rng, SeedableRng};
use std::time::Instant;

/// Budget allocation policy across hot modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// Adaptive: measure the module whose best candidate has the highest
    /// acquisition value under the global model (the paper's scheme).
    Adaptive,
    /// Cycle through hot modules in order.
    RoundRobin,
    /// Uniform random module choice.
    Uniform,
}

/// Multi-module tuner configuration.
#[derive(Debug, Clone)]
pub struct MultiModuleConfig {
    /// Allocation policy.
    pub allocation: Allocation,
    /// Candidates generated per module per iteration.
    pub candidates_per_module: usize,
    /// Initial random measurements (whole-program).
    pub init_random: usize,
    /// UCB β.
    pub beta: f64,
    /// GP settings.
    pub gp: GpConfig,
    /// Refit cadence.
    pub fit_every: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for MultiModuleConfig {
    fn default() -> MultiModuleConfig {
        MultiModuleConfig {
            allocation: Allocation::Adaptive,
            candidates_per_module: 16,
            init_random: 6,
            beta: 1.96,
            gp: GpConfig { fit_iters: 20, ..Default::default() },
            fit_every: 4,
            seed: 0,
        }
    }
}

struct ModState {
    idx: usize,
    des: DiscreteOneLambda,
    /// Incumbent optimised module + stats (held while other modules change).
    inc_module: Module,
    inc_stats: Stats,
    inc_seq: Vec<PassId>,
}

/// One observation: concatenated per-module stats → runtime.
struct Obs {
    stats: Vec<Stats>,
    runtime: f64,
}

/// Result of a multi-module run.
pub struct MultiModuleResult {
    /// Standard tuning trace.
    pub trace: TuneTrace,
    /// Module index measured at each step (`usize::MAX` = joint init step).
    pub allocation_log: Vec<usize>,
}

fn measure_joint(
    task: &mut Task,
    mods: &[ModState],
    trace: &mut TuneTrace,
) -> Option<f64> {
    let opt: Vec<(usize, &Module)> = mods.iter().map(|m| (m.idx, &m.inc_module)).collect();
    let (linked, fp) = task.assemble(&opt);
    match task.measure_linked(&linked, fp) {
        Ok(t) => {
            trace.record(t, mods.iter().map(|m| m.inc_seq.clone()).collect());
            Some(t)
        }
        Err(_) => None,
    }
}

/// Run the multi-module tuner on a task with several hot modules.
pub fn run_multimodule(
    task: &mut Task,
    budget: usize,
    cfg: &MultiModuleConfig,
) -> MultiModuleResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let len = task.seq_len();
    let npasses = task.registry.len();
    let hot: Vec<usize> = task.hot_modules.clone();
    let nh = hot.len();
    let mut trace = TuneTrace::default();
    let mut allocation_log = Vec::new();

    // Per-module state.
    let mut mods: Vec<ModState> = hot
        .iter()
        .map(|&idx| {
            let des = DiscreteOneLambda::new(len, npasses, &mut rng);
            let seq: Vec<PassId> = des.incumbent.iter().map(|&v| PassId(v)).collect();
            let (stats, _, module) = task.compile_hot(idx, &seq);
            ModState { idx, des, inc_module: module, inc_stats: stats, inc_seq: seq }
        })
        .collect();

    let mut obs: Vec<Obs> = Vec::new();
    let mut key_unions: Vec<Vec<String>> = vec![Vec::new(); nh];

    // Initial design: random joint configurations.
    for _ in 0..cfg.init_random.max(1) {
        if task.measurements >= budget {
            break;
        }
        for m in &mut mods {
            let g: Vec<u16> = (0..len).map(|_| rng.gen_range(0..npasses) as u16).collect();
            let seq: Vec<PassId> = g.iter().map(|&v| PassId(v)).collect();
            let (stats, _, module) = task.compile_hot(m.idx, &seq);
            m.inc_module = module;
            m.inc_stats = stats;
            m.inc_seq = seq;
        }
        if let Some(t) = measure_joint(task, &mods, &mut trace) {
            for (mi, m) in mods.iter_mut().enumerate() {
                let g: Vec<u16> = m.inc_seq.iter().map(|p| p.0).collect();
                m.des.tell(&g, t);
                note_keys(&mut key_unions[mi], &m.inc_stats);
            }
            obs.push(Obs { stats: mods.iter().map(|m| m.inc_stats.clone()).collect(), runtime: t });
            allocation_log.push(usize::MAX);
        }
    }

    let mut hypers: Option<GpHypers> = None;
    let mut iter = 0usize;
    let mut last_meas = task.measurements;
    let mut stagnant = 0usize;
    while task.measurements < budget {
        let preset_choice = match cfg.allocation {
            Allocation::RoundRobin => Some(iter % nh),
            Allocation::Uniform => Some(rng.gen_range(0..nh)),
            Allocation::Adaptive => None,
        };

        // Fit the global model over the concatenated statistics.
        let t0 = Instant::now();
        let (xmat, scale) = scaled_matrix(
            obs.iter().map(|o| joint_features(&o.stats, &key_unions)).collect(),
        );
        let y: Vec<f64> = obs.iter().map(|o| o.runtime).collect();
        let mut gpc = cfg.gp.clone();
        gpc.init = hypers.clone();
        if iter % cfg.fit_every != 0 && hypers.is_some() {
            gpc.fit_iters = 0;
        }
        let gp = Gp::fit(xmat, &y, gpc);
        hypers = Some(gp.hypers());
        let best_raw = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let best_z = gp.transform().forward(best_raw);
        let acq = Acquisition::Ucb { beta: cfg.beta };
        task.add_model_time(t0.elapsed());

        // Per-module best candidate by AF (others fixed at incumbent).
        let incumbent_stats: Vec<Stats> = mods.iter().map(|m| m.inc_stats.clone()).collect();
        let mut best_per_module: Vec<(f64, Vec<u16>, Stats, Module)> = Vec::new();
        for (mi, m) in mods.iter_mut().enumerate() {
            let cands = m.des.ask(&mut rng, cfg.candidates_per_module);
            trace.candidates_generated += cands.len();
            let mut best: Option<(f64, Vec<u16>, Stats, Module)> = None;
            for g in cands {
                let seq: Vec<PassId> = g.iter().map(|&v| PassId(v)).collect();
                let (stats, _, module) = task.compile_hot(m.idx, &seq);
                let tm = Instant::now();
                let row = incumbent_stats
                    .iter()
                    .enumerate()
                    .map(|(i, inc)| if i == mi { &stats } else { inc });
                let x = scale_row(joint_features(row, &key_unions), &scale);
                let af = acq.eval(&gp, best_z, &x);
                task.add_model_time(tm.elapsed());
                if best.as_ref().map(|(b, ..)| af > *b).unwrap_or(true) {
                    best = Some((af, g, stats, module));
                }
            }
            best_per_module.push(best.expect("candidates generated"));
        }

        let chosen = preset_choice.unwrap_or_else(|| {
            best_per_module
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                .map(|(i, _)| i)
                .unwrap_or(0)
        });
        let (_, g, stats, module) = best_per_module.swap_remove(chosen);
        mods[chosen].inc_module = module;
        mods[chosen].inc_stats = stats;
        mods[chosen].inc_seq = g.iter().map(|&v| PassId(v)).collect();
        if let Some(t) = measure_joint(task, &mods, &mut trace) {
            mods[chosen].des.tell(&g, t);
            for (keys, m) in key_unions.iter_mut().zip(&mods) {
                note_keys(keys, &m.inc_stats);
            }
            obs.push(Obs {
                stats: mods.iter().map(|m| m.inc_stats.clone()).collect(),
                runtime: t,
            });
            allocation_log.push(chosen);
        }
        iter += 1;
        if task.measurements == last_meas {
            stagnant += 1;
            if stagnant > 60 {
                break;
            }
        } else {
            stagnant = 0;
            last_meas = task.measurements;
        }
        if iter > budget * 20 {
            break;
        }
    }

    MultiModuleResult { trace, allocation_log }
}

/// The joint feature row: each module's statistics over its own key union,
/// concatenated in hot-module order.
fn joint_features<'s>(
    stats: impl IntoIterator<Item = &'s Stats>,
    key_unions: &[Vec<String>],
) -> Vec<f64> {
    key_unions.iter().zip(stats).flat_map(|(keys, st)| stats_features(st, keys)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use citroen_passes::Registry;
    use citroen_sim::Platform;

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
    fn adaptive_runs_and_logs_allocation() {
        let mut task =
            two_hot_task(citroen_suite::speclike::spec_imgproc(), Platform::tx2(), 5);
        let cfg = MultiModuleConfig {
            candidates_per_module: 6,
            init_random: 3,
            seed: 5,
            ..Default::default()
        };
        let res = run_multimodule(&mut task, 14, &cfg);
        assert_eq!(task.measurements, 14);
        assert!(res.trace.best().is_finite());
        let adaptive_steps: Vec<&usize> =
            res.allocation_log.iter().filter(|m| **m != usize::MAX).collect();
        assert!(!adaptive_steps.is_empty());
    }

    #[test]
    fn round_robin_cycles_modules() {
        let mut task =
            two_hot_task(citroen_suite::speclike::spec_compress(), Platform::amd(), 9);
        let cfg = MultiModuleConfig {
            allocation: Allocation::RoundRobin,
            candidates_per_module: 4,
            init_random: 2,
            seed: 9,
            ..Default::default()
        };
        let res = run_multimodule(&mut task, 10, &cfg);
        let steps: std::collections::HashSet<usize> = res
            .allocation_log
            .iter()
            .copied()
            .filter(|m| *m != usize::MAX)
            .collect();
        assert!(steps.len() >= 2, "round robin visited {steps:?}");
    }
}
