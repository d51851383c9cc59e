//! End-to-end integration tests spanning all crates: the full
//! benchmark → compile → simulate → tune loop, the paper's headline claims
//! at miniature scale, and the public-API surface the examples rely on.

use citroen::core::{
    run_citroen, run_citroen_session, Allocation, CitroenConfig, FeatureKind, SessionEnv, Task,
    TaskConfig,
};
use citroen::passes::Registry;
use citroen::sim::Platform;
use citroen::tuners::{RandomTuner, SeqTuner};

fn gsm_task(seed: u64) -> Task {
    Task::new(
        citroen::suite::kernels::telecom_gsm(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 16, seed, ..Default::default() },
    )
}

#[test]
fn citroen_beats_random_on_gsm_small_budget() {
    // The paper's headline at miniature scale: with a tight budget, the
    // statistics-guided search finds faster binaries than random search
    // (averaged over seeds).
    let budget = 18;
    let mut citroen_total = 0.0;
    let mut random_total = 0.0;
    for seed in 0..3 {
        let mut t1 = gsm_task(seed);
        let (tr, _) = run_citroen(
            &mut t1,
            budget,
            &CitroenConfig { candidates: 24, init_random: 5, seed, ..Default::default() },
        );
        citroen_total += tr.best() / t1.o3_seconds;

        let mut t2 = gsm_task(seed);
        let tr2 = RandomTuner { seed }.run(&mut t2, budget);
        random_total += tr2.best() / t2.o3_seconds;
    }
    assert!(
        citroen_total <= random_total * 1.02,
        "CITROEN (rel {citroen_total:.3}) should not lose to random (rel {random_total:.3})"
    );
}

#[test]
fn stats_features_beat_raw_sequence_on_jpeg() {
    // Fig. 5.9's claim at miniature scale (averaged over seeds). The DCT
    // kernel is the robust vehicle: its headroom is found reliably with
    // statistics features and reliably missed with raw-sequence features
    // (gsm's optimum is jackpot-dominated at small budgets — see
    // EXPERIMENTS.md).
    let budget = 25;
    let mut stats_total = 0.0;
    let mut raw_total = 0.0;
    for seed in 0..3 {
        let mk = |seed: u64| {
            Task::new(
                citroen::suite::kernels::consumer_jpeg_dct(),
                Registry::full(),
                Platform::tx2(),
                TaskConfig { seq_len: 16, seed, ..Default::default() },
            )
        };
        let mut t1 = mk(seed + 10);
        let (a, _) = run_citroen(
            &mut t1,
            budget,
            &CitroenConfig { candidates: 24, init_random: 5, seed, ..Default::default() },
        );
        stats_total += a.best() / t1.o3_seconds;
        let mut t2 = mk(seed + 10);
        let (b, _) = run_citroen(
            &mut t2,
            budget,
            &CitroenConfig {
                candidates: 24,
                init_random: 5,
                features: FeatureKind::RawSequence,
                seed,
                ..Default::default()
            },
        );
        raw_total += b.best() / t2.o3_seconds;
    }
    // Allow noise but stats features should be at least competitive.
    assert!(
        stats_total <= raw_total * 1.05,
        "stats features {stats_total:.3} vs raw features {raw_total:.3}"
    );
}

#[test]
fn budget_accounting_is_exact_across_tuners() {
    let mut task = gsm_task(1);
    let (trace, _) = run_citroen(&mut task, 9, &CitroenConfig::default());
    assert_eq!(task.measurements, 9);
    assert_eq!(trace.runtimes.len() >= 9, true);
    // Compilations vastly outnumber measurements (the cheap/expensive split).
    assert!(task.compilations > task.measurements);
}

#[test]
fn multimodule_adaptive_runs_end_to_end() {
    let mut task = Task::new(
        citroen::suite::speclike::spec_compress(),
        Registry::full(),
        Platform::amd(),
        TaskConfig { seq_len: 10, ..Default::default() },
    );
    if task.hot_modules.len() < 2 {
        let extra = (0..task.benchmark().modules.len())
            .find(|i| !task.hot_modules.contains(i))
            .unwrap();
        task.hot_modules.push(extra);
    }
    let res = run_citroen_session(
        &mut task,
        10,
        &CitroenConfig {
            allocation: Some(Allocation::Adaptive),
            candidates: 4,
            init_random: 2,
            ..Default::default()
        },
        &SessionEnv::default(),
    );
    assert_eq!(task.measurements, 10);
    assert!(res.trace.best().is_finite());
    assert!(res.trace.best() <= task.o0_seconds);
    // Every trace step names the module it measured, and every sequence
    // set covers every tuned module.
    assert_eq!(res.allocation_log.len(), res.trace.runtimes.len());
    assert_eq!(res.trace.best_seqs.len(), task.hot_modules.len());
}

#[test]
fn impact_report_names_real_statistics() {
    let mut task = gsm_task(4);
    let (_, report) = run_citroen(
        &mut task,
        12,
        &CitroenConfig { candidates: 20, init_random: 5, seed: 4, ..Default::default() },
    );
    assert!(report.ranked.len() >= 5);
    for (name, ls) in report.ranked.iter().take(5) {
        assert!(name.contains('.'), "stat key '{name}' should be pass.stat");
        assert!(*ls > 0.0);
    }
}

#[test]
fn llvm10_registry_tunes_too() {
    let mut task = Task::new(
        citroen::suite::kernels::telecom_crc32(),
        Registry::llvm10(),
        Platform::tx2(),
        TaskConfig { seq_len: 12, ..Default::default() },
    );
    let (trace, _) = run_citroen(
        &mut task,
        8,
        &CitroenConfig { candidates: 16, init_random: 4, ..Default::default() },
    );
    assert_eq!(task.measurements, 8);
    assert!(trace.best().is_finite());
}

#[test]
fn facade_reexports_compose() {
    // The root crate's re-exports must be enough to drive the whole flow
    // (what the README quickstart uses).
    let bench = citroen::suite::kernels::automotive_bitcount();
    let linked = bench.link();
    citroen::ir::verify::assert_valid(&linked);
    let platform = citroen::sim::Platform::tx2();
    let exec = platform.execute(&linked, bench.entry_in(&linked), &bench.args).unwrap();
    assert!(exec.seconds > 0.0);
    let reg = citroen::passes::Registry::full();
    assert!(reg.len() >= 30);
    let fun = citroen::synthetic::functions::ackley(5);
    assert!((fun.f)(&[0.0; 5]).abs() < 1e-9);
}
