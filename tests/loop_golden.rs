//! Golden trajectories of the CITROEN tuning loop.
//!
//! Each row runs one gsm session (sequence length 12, 12 candidates per
//! iteration, 4 initial designs, budget 12) and pins what the loop's
//! structure must never move: the `trace_digest` of the trajectory, the
//! measurement and measurement-cache-hit counts, the compile count, and the
//! ARD impact-report feature names in rank order. Compilation is pure, so a
//! restructured loop with the same trajectory can differ only in how often
//! it compiles; `compilations` is pinned exactly, so a loop that compiles a
//! genome twice (such as a second compile of the q=1 pick) fails the gate
//! even though every digest holds.
//!
//! A second table pins the same loop tuning several modules
//! (`CitroenConfig::allocation`) the same way: one spec_imgproc task with
//! three hot modules under every allocation policy, pinning the
//! `trace_digest`, a digest of the per-step module choices, and the
//! measurement and compile counts.
//!
//! On a mismatch each test prints its whole observed table in the source
//! format below, so an intended trajectory change can be re-pinned by
//! pasting it over `GOLDEN` or `MULTI_GOLDEN`.

use citroen::core::{
    run_citroen_session, trace_digest, Allocation, CitroenConfig, FeatureKind, GeneratorKind,
    SessionCtl, SessionEnv, SharedCompileCache, Task, TaskConfig,
};
use citroen::passes::Registry;
use citroen::sim::Platform;
use std::sync::Arc;

const BUDGET: usize = 12;

/// `(row, seed, trace_digest, measurements, cache_hits, compilations,
/// impact-name digest)`.
type Golden = (&'static str, u64, u64, usize, usize, usize, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("q1-des-stats-cov", 1, 0x2a81a49482aa5679, 12, 0, 100, 0x0084904cf775b940),
    ("q1-des-stats-cov", 2, 0x5545ab6b47a5ad8b, 12, 0, 100, 0x2ae47dec9bbcb2c7),
    ("q1-des-stats-cov", 3, 0x50ca9968f08a88d6, 12, 0, 100, 0x3072ea8734096c63),
    ("q1-des-stats-cov", 4, 0x203c40966ffca4a0, 12, 0, 100, 0x8fcae01b438de604),
    ("q1-des-stats-cov", 5, 0xa9a22bc17011ea45, 12, 0, 100, 0xf7ab960e5d379244),
    ("q1-des-stats-cov", 6, 0x50f98aaa3934ee4e, 12, 0, 100, 0x0e662eb346ccf238),
    ("q1-des-stats-cov", 7, 0x48ec97ec3446a3cd, 12, 0, 100, 0xb788259bc75fb242),
    ("q1-des-stats-cov", 8, 0x4546931aa127e648, 12, 0, 100, 0xf40731a42bf9958d),
    ("q1-des-stats-cov", 9, 0xc1619adfc2ba2193, 12, 1, 112, 0x3501b42c6e4b3067),
    ("q1-des-stats-cov", 10, 0x2bbaccbb4a6aa7d6, 12, 0, 100, 0x43a844b82de03056),
    ("q1-des-stats-nocov", 1, 0x5793cc267fda6e03, 12, 3, 135, 0x0809163757efd537),
    ("q1-des-stats-nocov", 2, 0xfa01ae25bdff40e7, 12, 0, 100, 0x2ae47dec9bbcb2c7),
    ("q1-des-stats-nocov", 3, 0x8f2aaad04b8f0e4d, 12, 2, 124, 0xc2751419a8f8018d),
    ("q1-des-autophase-cov", 1, 0x2d609b40d460b7c7, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-des-autophase-cov", 2, 0xc25e4334fb9e775d, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-des-autophase-cov", 3, 0xbca270e03040aa57, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-des-autophase-nocov", 1, 0x875efbbaf0118188, 12, 2, 123, 0xcbf29ce484222325),
    ("q1-des-autophase-nocov", 2, 0x86150cf87ce754da, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-des-autophase-nocov", 3, 0x290bddcd955f6118, 12, 1, 112, 0xcbf29ce484222325),
    ("q1-random-stats-cov", 1, 0x7d673e35824a13fb, 12, 0, 100, 0x17448ee7c64de05a),
    ("q1-random-stats-cov", 2, 0x2c9b7e534ac5caab, 12, 0, 100, 0xf3047ca148cb15dc),
    ("q1-random-stats-cov", 3, 0x230155cbe603e9cc, 12, 0, 100, 0x27a59bf2da5f950a),
    ("q1-random-stats-nocov", 1, 0xb11f5c90665324f9, 12, 2, 124, 0xdecea0505708ef2a),
    ("q1-random-stats-nocov", 2, 0x224035ed6c0d06e8, 12, 0, 100, 0xf00f71cf369ad5d4),
    ("q1-random-stats-nocov", 3, 0x9571a57f6d1ebd2a, 12, 1, 112, 0x8053dbd189b7f136),
    ("q1-random-autophase-cov", 1, 0xd85be75915b1cec6, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-random-autophase-cov", 2, 0xa36557f5ccde04ca, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-random-autophase-cov", 3, 0x1cbe0a6462576ace, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-random-autophase-nocov", 1, 0xed29f1c9df74d710, 12, 1, 112, 0xcbf29ce484222325),
    ("q1-random-autophase-nocov", 2, 0xba3657472f479ff3, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-random-autophase-nocov", 3, 0x1b11b28ecb2ff90f, 12, 0, 100, 0xcbf29ce484222325),
    ("q1-prune", 1, 0x4510bc8438a01101, 12, 0, 80, 0x0084904cf775b940),
    ("q1-prune", 2, 0x4218e3734b79dca3, 12, 0, 76, 0xbb4afc7bb00988c9),
    ("q1-subsume", 1, 0x47187fb0dbc2c8f0, 12, 0, 100, 0x0084904cf775b940),
    ("q1-subsume", 2, 0x0f2b541719e9444a, 12, 0, 99, 0x2ae47dec9bbcb2c7),
    ("q1-both-cap2", 1, 0x4510bc8438a01101, 12, 0, 90, 0x0084904cf775b940),
    ("q1-both-cap2", 2, 0x4218e3734b79dca3, 12, 0, 91, 0xbb4afc7bb00988c9),
    ("q1-init-seeds", 1, 0x5529bc0fda515a7a, 12, 0, 100, 0x90d2290e0d3110e3),
    ("q1-init-seeds", 2, 0xc7b6bd8a2924ae5e, 12, 0, 100, 0x4bd920dd3c7ccd2d),
    ("q1-replay", 1, 0x2a81a49482aa5679, 12, 0, 0, 0x0084904cf775b940),
    ("q1-replay", 2, 0x5545ab6b47a5ad8b, 12, 0, 0, 0x2ae47dec9bbcb2c7),
    ("q4", 1, 0xfb8127b6309cdb56, 12, 0, 40, 0x24b77a95103c5094),
    ("q4", 2, 0xa9e69077b070a575, 12, 0, 28, 0x8d8cec9320bbf326),
    ("q4", 3, 0xf8b6ac7f29a121c5, 12, 0, 28, 0xf645ec6573339a59),
    ("q4-prune", 1, 0xcb704f1f5d6204c2, 12, 0, 28, 0x24b77a95103c5094),
    ("q4-prune", 2, 0x322c73fe021ef35d, 12, 0, 26, 0x8d8cec9320bbf326),
    ("q4-prune", 3, 0xa82ab40a52064004, 12, 0, 21, 0x02ac83cc5daffe23),
    ("q4-subsume", 1, 0x5d98f5a96b31fc61, 12, 0, 40, 0x24b77a95103c5094),
    ("q4-subsume", 2, 0xc4f1eb3cc11efe34, 12, 0, 28, 0x8d8cec9320bbf326),
    ("q4-subsume", 3, 0xf8b6ac7f29a121c5, 12, 0, 28, 0xf645ec6573339a59),
    ("q4-both-cap2", 1, 0xcb704f1f5d6204c2, 12, 0, 30, 0x24b77a95103c5094),
    ("q4-both-cap2", 2, 0x322c73fe021ef35d, 12, 0, 27, 0x8d8cec9320bbf326),
    ("q4-both-cap2", 3, 0xa82ab40a52064004, 12, 0, 22, 0x02ac83cc5daffe23),
];

/// How a row's session is attached to a compile cache.
#[derive(Clone, Copy)]
enum Cache {
    /// None attached: standalone.
    Standalone,
    /// A second tenant replaying the row through an unbounded shared cache.
    Replay,
    /// A shared cache of this many entries, attached to the session alone.
    Capped(usize),
}

/// One session setup: its row label, the config, and its compile cache.
struct Row {
    label: String,
    seed: u64,
    cfg: CitroenConfig,
    cache: Cache,
}

fn rows() -> Vec<Row> {
    let base =
        |seed: u64| CitroenConfig { candidates: 12, init_random: 4, seed, ..Default::default() };
    let mut rows = Vec::new();
    let mut push = |label: &str,
                    seeds: std::ops::RangeInclusive<u64>,
                    f: &dyn Fn(&mut CitroenConfig),
                    cache: Cache| {
        for seed in seeds {
            let mut cfg = base(seed);
            f(&mut cfg);
            rows.push(Row { label: label.to_string(), seed, cfg, cache });
        }
    };
    for (gname, generator) in [("des", GeneratorKind::Des), ("random", GeneratorKind::Random)] {
        for (fname, features) in
            [("stats", FeatureKind::CompilationStats), ("autophase", FeatureKind::Autophase)]
        {
            for (cname, coverage_filter) in [("cov", true), ("nocov", false)] {
                let seeds = if gname == "des" && fname == "stats" && coverage_filter {
                    1..=10
                } else {
                    1..=3
                };
                let label = format!("q1-{gname}-{fname}-{cname}");
                push(
                    &label,
                    seeds,
                    &|c| {
                        c.generator = generator;
                        c.features = features;
                        c.coverage_filter = coverage_filter;
                    },
                    Cache::Standalone,
                );
            }
        }
    }
    let prune = |c: &mut CitroenConfig| c.oracle_prune = true;
    let subsume = |c: &mut CitroenConfig| c.subsume_collapse = true;
    let both = |c: &mut CitroenConfig| {
        c.oracle_prune = true;
        c.subsume_collapse = true;
    };
    push("q1-prune", 1..=2, &prune, Cache::Standalone);
    push("q1-subsume", 1..=2, &subsume, Cache::Standalone);
    push("q1-both-cap2", 1..=2, &both, Cache::Capped(2));
    push(
        "q1-init-seeds",
        1..=2,
        &|c| c.init_seeds = vec![vec![5; 12], vec![1, 2, 3]],
        Cache::Standalone,
    );
    push("q1-replay", 1..=2, &|_| {}, Cache::Replay);
    push("q4", 1..=3, &|c| c.batch = 4, Cache::Standalone);
    push(
        "q4-prune",
        1..=3,
        &|c| {
            prune(c);
            c.batch = 4;
        },
        Cache::Standalone,
    );
    push(
        "q4-subsume",
        1..=3,
        &|c| {
            subsume(c);
            c.batch = 4;
        },
        Cache::Standalone,
    );
    push(
        "q4-both-cap2",
        1..=3,
        &|c| {
            both(c);
            c.batch = 4;
        },
        Cache::Capped(2),
    );
    rows
}

fn gsm_task(seed: u64) -> Task {
    Task::new(
        citroen::suite::kernels::telecom_gsm(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 12, seed, ..Default::default() },
    )
}

/// FNV-1a over the impact-report names, in rank order.
fn names_digest(names: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in names {
        for byte in name.bytes().chain([0u8]) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn run(row: &Row) -> Golden {
    let label: &'static str = Box::leak(row.label.clone().into_boxed_str());
    let mut task = gsm_task(row.seed);
    let result = match row.cache {
        Cache::Standalone => {
            run_citroen_session(&mut task, BUDGET, &row.cfg, &SessionEnv::default())
        }
        Cache::Replay => {
            // A first tenant fills a shared cache; the pinned session is a
            // second tenant replaying the same (spec, seed) against it.
            let cache = Arc::new(SharedCompileCache::new(0));
            let env = |tenant| SessionEnv {
                shared_cache: Some(cache.clone()),
                ctl: SessionCtl::new(tenant),
                ..Default::default()
            };
            run_citroen_session(&mut gsm_task(row.seed), BUDGET, &row.cfg, &env(1));
            run_citroen_session(&mut task, BUDGET, &row.cfg, &env(2))
        }
        Cache::Capped(cap) => {
            let env = SessionEnv {
                shared_cache: Some(Arc::new(SharedCompileCache::new(cap))),
                ..Default::default()
            };
            run_citroen_session(&mut task, BUDGET, &row.cfg, &env)
        }
    };
    let names: Vec<String> = result.report.ranked.iter().map(|(n, _)| n.clone()).collect();
    (
        label,
        row.seed,
        trace_digest(&result.trace),
        task.measurements,
        task.cache_hits,
        task.compilations,
        names_digest(&names),
    )
}

#[test]
fn tuning_loop_trajectories_match_the_golden_table() {
    let observed = citroen::rt::par::par_map(rows(), |row| run(&row));
    let table: String = observed
        .iter()
        .map(|(l, s, d, m, h, c, n)| {
            format!("    (\"{l}\", {s}, {d:#018x}, {m}, {h}, {c}, {n:#018x}),\n")
        })
        .collect();
    let mut failures = Vec::new();
    if observed.len() != GOLDEN.len() {
        failures.push(format!("{} rows observed, {} pinned", observed.len(), GOLDEN.len()));
    }
    for (got, want) in observed.iter().zip(GOLDEN) {
        let (label, seed) = (want.0, want.1);
        if (got.0, got.1) != (label, seed) {
            failures.push(format!("row order changed at {label} seed {seed}"));
            continue;
        }
        if (got.2, got.3, got.4, got.6) != (want.2, want.3, want.4, want.6) {
            failures.push(format!("{label} seed {seed}: trajectory moved"));
        }
        if got.5 != want.5 {
            failures.push(format!(
                "{label} seed {seed}: {} compilations, pinned {}",
                got.5, want.5
            ));
        }
    }
    assert!(failures.is_empty(), "{}\nobserved table:\n{table}", failures.join("\n"));
}

/// `(policy, seed, trace_digest, allocation-log digest, measurements,
/// compilations)`.
type MultiGolden = (&'static str, u64, u64, u64, usize, usize);

#[rustfmt::skip]
const MULTI_GOLDEN: &[MultiGolden] = &[
    ("adaptive", 1, 0xf56ac7926aeede87, 0x815789b14497aced, 12, 171),
    ("adaptive", 2, 0x34fc8f4e561f4e17, 0x93afe97129b790ae, 12, 171),
    ("round-robin", 1, 0xb9df7f3f448f7846, 0x687f62cadcadb86e, 12, 63),
    ("round-robin", 2, 0xeaa611cc19ca2513, 0x31b8017d4630aaa4, 12, 66),
    ("uniform", 1, 0x5b4cec2a9217f1a0, 0x8f1a9d34ba8482a6, 12, 66),
    ("uniform", 2, 0xc4e15c5603837bbd, 0xdbf19e636aeb5dcf, 12, 63),
];

/// spec_imgproc with its profiled hot modules topped up to three, so every
/// policy has a real allocation choice to make.
fn imgproc_task(seed: u64) -> Task {
    let mut task = Task::new(
        citroen::suite::speclike::spec_imgproc(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 12, seed, ..Default::default() },
    );
    let nmods = task.benchmark().modules.len();
    for i in 0..nmods {
        if task.hot_modules.len() >= 3 {
            break;
        }
        if !task.hot_modules.contains(&i) {
            task.hot_modules.push(i);
        }
    }
    assert_eq!(task.hot_modules.len(), 3, "spec_imgproc has fewer than three modules");
    task
}

/// FNV-1a over the allocation log (`usize::MAX` marks a joint init step).
fn allocation_digest(log: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &m in log {
        for byte in (m as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn multimodule_trajectories_match_the_golden_table() {
    let mut runs = Vec::new();
    for (label, allocation) in [
        ("adaptive", Allocation::Adaptive),
        ("round-robin", Allocation::RoundRobin),
        ("uniform", Allocation::Uniform),
    ] {
        for seed in 1..=2u64 {
            runs.push((label, allocation, seed));
        }
    }
    let observed: Vec<MultiGolden> =
        citroen::rt::par::par_map(runs, |(label, allocation, seed)| {
            let mut task = imgproc_task(seed);
            let cfg = CitroenConfig {
                allocation: Some(allocation),
                candidates: 6,
                init_random: 3,
                seed,
                ..Default::default()
            };
            let res = run_citroen_session(&mut task, BUDGET, &cfg, &SessionEnv::default());
            (
                label,
                seed,
                trace_digest(&res.trace),
                allocation_digest(&res.allocation_log),
                task.measurements,
                task.compilations,
            )
        });
    let table: String = observed
        .iter()
        .map(|(l, s, d, a, m, c)| format!("    (\"{l}\", {s}, {d:#018x}, {a:#018x}, {m}, {c}),\n"))
        .collect();
    assert_eq!(observed, MULTI_GOLDEN, "observed table:\n{table}");
}
