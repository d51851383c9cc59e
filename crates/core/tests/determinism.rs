//! End-to-end reproducibility: two CITROEN runs with the same seed must
//! produce bit-identical trajectories. This is the contract that lets every
//! figure in EXPERIMENTS.md be regenerated exactly, and it depends on the
//! in-tree `citroen_rt::rng` stream being stable across platforms (no
//! external PRNG crate whose stream could shift under a version bump).

use citroen_core::{
    run_citroen_session, trace_digest, Allocation, CitroenConfig, SessionEnv, Task, TaskConfig,
};
use citroen_passes::Registry;
use citroen_rt::par::WorkerPool;
use std::sync::Arc;
use citroen_sim::Platform;
use citroen_tuners::{CitroenTuner, SeqTuner};

fn gsm_task(seed: u64) -> Task {
    Task::new(
        citroen_suite::kernels::telecom_gsm(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 12, seed, ..Default::default() },
    )
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let tuner = CitroenTuner { seed: 9, cfg: None };
    let mut t1 = gsm_task(9);
    let mut t2 = gsm_task(9);
    let a = tuner.run(&mut t1, 12);
    let b = tuner.run(&mut t2, 12);
    assert_eq!(a.runtimes, b.runtimes, "measured runtimes must replay exactly");
    assert_eq!(a.best_history, b.best_history, "best-so-far curve must replay exactly");
    assert_eq!(a.best_seqs, b.best_seqs, "winning sequences must replay exactly");
    assert_eq!(a.coverage_dropped, b.coverage_dropped);
    assert_eq!(a.candidates_generated, b.candidates_generated);
    assert_eq!(t1.measurements, t2.measurements);
    assert_eq!(t1.compilations, t2.compilations);
}

#[test]
fn different_seeds_diverge() {
    let mut t1 = gsm_task(9);
    let mut t2 = gsm_task(10);
    let a = CitroenTuner { seed: 9, cfg: None }.run(&mut t1, 12);
    let b = CitroenTuner { seed: 10, cfg: None }.run(&mut t2, 12);
    assert_ne!(a.runtimes, b.runtimes, "distinct seeds must explore differently");
}

#[test]
fn multi_module_batched_runs_replay_at_any_pool_width() {
    // Three hot modules under adaptive allocation at q = 4: the trajectory
    // and the per-step module choices depend on the seed only, not on how
    // many workers compile and measure the batch.
    let run = |workers: usize| {
        let mut task = Task::new(
            citroen_suite::speclike::spec_imgproc(),
            Registry::full(),
            Platform::tx2(),
            TaskConfig { seq_len: 12, seed: 3, ..Default::default() },
        );
        for i in 0..task.benchmark().modules.len() {
            if task.hot_modules.len() < 3 && !task.hot_modules.contains(&i) {
                task.hot_modules.push(i);
            }
        }
        assert_eq!(task.hot_modules.len(), 3);
        let cfg = CitroenConfig {
            allocation: Some(Allocation::Adaptive),
            candidates: 6,
            init_random: 3,
            batch: 4,
            seed: 3,
            ..Default::default()
        };
        let pool = Some(Arc::new(WorkerPool::new(workers)));
        let env = SessionEnv { pool, ..Default::default() };
        let r = run_citroen_session(&mut task, 16, &cfg, &env);
        assert_eq!(task.measurements, 16);
        (trace_digest(&r.trace), r.allocation_log, task.compilations)
    };
    let serial = run(1);
    assert!(serial.1.iter().any(|&m| m != usize::MAX), "no model-guided step: {:?}", serial.1);
    assert_eq!(serial, run(2), "a 2-worker pool changed the trajectory");
}
