//! Properties of the batched (q > 1) tuning loop: fixed-seed determinism,
//! 10-seed quality parity with q = 1, budget accounting, and
//! the bounded compile cache.

use citroen_core::{
    run_citroen, run_citroen_session, CitroenConfig, SessionEnv, SharedCompileCache, Task,
    TaskConfig,
};
use citroen_passes::Registry;
use citroen_sim::Platform;
use std::sync::Arc;

fn gsm_task(seed: u64) -> Task {
    Task::new(
        citroen_suite::kernels::telecom_gsm(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 16, seed, ..Default::default() },
    )
}

fn cfg(seed: u64, batch: usize) -> CitroenConfig {
    CitroenConfig { candidates: 24, init_random: 6, batch, seed, ..Default::default() }
}

fn ratio_window(q: usize, budget: usize) -> Vec<f64> {
    let seeds: Vec<u64> = (1..=10).collect();
    let mut ratios = citroen_rt::par::par_map(seeds, |seed| {
        let mut task = gsm_task(seed);
        let (trace, _) = run_citroen(&mut task, budget, &cfg(seed, q));
        assert_eq!(
            task.measurements, budget,
            "q={q} seed={seed} must consume the whole measurement budget"
        );
        trace.best() / task.o3_seconds
    });
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ratios
}

#[test]
fn batched_median_speedup_matches_sequential() {
    // The batch sizes trade selection freshness for throughput; the paper's
    // quality metric (best-found speedup) must not degrade. Compare 10-seed
    // medians, not per-seed values: q changes the candidate stream, so
    // individual seeds legitimately diverge. The budget gives q=4 a dozen
    // model-guided iterations — at starvation budgets the one-batch-stale
    // model has too few selections for the comparison to be meaningful.
    let r1 = ratio_window(1, 48);
    let r2 = ratio_window(2, 48);
    let r4 = ratio_window(4, 48);
    let med = |v: &[f64]| v[v.len() / 2];
    eprintln!("q=1 ratios: {r1:?}\nq=2 ratios: {r2:?}\nq=4 ratios: {r4:?}");
    eprintln!("medians: q1={} q2={} q4={}", med(&r1), med(&r2), med(&r4));
    for (q, r) in [(2usize, &r2), (4, &r4)] {
        let (m, m1) = (med(r), med(&r1));
        assert!(
            m <= m1 * 1.05,
            "q={q} median best/O3 degraded vs q=1: {m:.4} vs {m1:.4}"
        );
        // And the batched windows must stay anchored to -O3 on their own
        // terms, mirroring the sequential headline test's bounds.
        assert!(r[r.len() / 4] < 1.05, "q={q} lower quartile too weak: {r:?}");
    }
}

#[test]
fn batched_runs_are_deterministic_for_fixed_seed() {
    // Worker timing must not leak into results: selection, admission order,
    // and noise draws are all pinned by the seed.
    let run = || {
        let mut task = gsm_task(7);
        let (trace, _) = run_citroen(&mut task, 24, &cfg(7, 4));
        (
            trace.runtimes,
            trace.best_history,
            trace.best_seqs,
            trace.coverage_dropped,
            task.measurements,
            task.compilations,
            task.cache_hits,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two q=4 runs with the same seed diverged");
}

/// An environment whose compile cache holds at most `cap` entries.
fn capped_cache(cap: usize) -> (Arc<SharedCompileCache>, SessionEnv) {
    let cache = Arc::new(SharedCompileCache::new(cap));
    let env = SessionEnv { shared_cache: Some(cache.clone()), ..Default::default() };
    (cache, env)
}

#[test]
fn a_small_compile_cache_evicts_and_counts() {
    // A tiny cap forces evictions mid-run; the run must still complete
    // its budget (evicted entries recompile) and the cache must count the
    // evictions.
    let (cache, env) = capped_cache(4);
    let mut task = gsm_task(3);
    let config = CitroenConfig { oracle_prune: true, ..cfg(3, 1) };
    let trace = run_citroen_session(&mut task, 12, &config, &env).trace;
    assert_eq!(task.measurements, 12);
    assert!(trace.best().is_finite());
    let evictions = cache.stats().evictions;
    assert!(evictions > 0, "cap of 4 entries must evict during a 12-measurement run");
}

#[test]
fn a_small_compile_cache_under_both_canonicalizer_modes_is_deterministic() {
    // `subsume_collapse` + `oracle_prune` combined canonicalize candidate
    // sequences before the cache lookup, which both shrinks the key space
    // (collapsed duplicates share entries) and changes which keys are live.
    // A tiny cap must still evict, the run must still consume its budget,
    // and canonicalization must not corrupt cache identity — pinned by
    // re-running the same seed and demanding identical results.
    let run = || {
        let (cache, env) = capped_cache(2);
        let mut task = gsm_task(5);
        let config = CitroenConfig { oracle_prune: true, subsume_collapse: true, ..cfg(5, 2) };
        let trace = run_citroen_session(&mut task, 12, &config, &env).trace;
        (trace, task.measurements, task.cache_hits, cache.stats().evictions)
    };
    let (trace, measurements, cache_hits, evictions) = run();
    assert_eq!(measurements, 12);
    assert!(trace.best().is_finite());
    assert!(
        evictions > 0,
        "cap of 2 entries must evict under subsume_collapse + oracle_prune"
    );

    // Same seed, same cap, same modes: evictions and hits are part of the
    // deterministic contract, not timing accidents.
    let (trace2, measurements2, cache_hits2, evictions2) = run();
    assert_eq!(measurements2, measurements);
    assert_eq!(cache_hits2, cache_hits);
    assert_eq!(trace2.runtimes, trace.runtimes);
    assert_eq!(evictions2, evictions, "eviction count must be deterministic for a fixed seed");
}
