//! The tuning-session workload: in-process CITROEN sessions through the
//! public `Task::new` / `run_citroen` entry points.

use crate::layers;
use crate::report::{geomean, median, peak_rss_mb, quantile, Outcome, J};
use citroen_core::{run_citroen, trace_digest, CitroenConfig, Task, TaskConfig, TuneTrace};
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_suite::Benchmark;
use citroen_telemetry as telemetry;
use std::time::Instant;

/// One tuning workload: a fixed set of sessions on one program.
pub struct TuneWorkload {
    pub name: &'static str,
    program: fn() -> Benchmark,
    /// Measurements selected per model-guided iteration (q).
    batch: usize,
    seq_len: usize,
    budget: usize,
    /// Session seeds; each has its digest and best speedup pinned.
    sessions: &'static [u64],
}

pub const TUNE_SPEC_Q4: TuneWorkload = TuneWorkload {
    name: "tune_spec_q4",
    program: citroen_suite::speclike::spec_imgproc,
    batch: 4,
    seq_len: 24,
    budget: 120,
    sessions: &[1, 2, 3, 4, 5, 6, 7],
};

/// `(session seed, trace_digest, best speedup as f64 bits)`. Sessions are
/// deterministic at any thread count, so these only move when a change
/// alters what the tuner does, not how fast it does it.
const PINS: &[(u64, u64, u64)] = &[
    (1, 0x6c82_3223_bf09_d07f, 0x3ff0_60cd_f911_19b3),
    (2, 0x58a4_02cf_cf11_5d7a, 0x3ff0_64a5_6c61_39a3),
    (3, 0x4aeb_ac02_6c98_e8d3, 0x3ff0_6e90_dc1f_c877),
    (4, 0xd96d_ca17_8f05_e4ad, 0x3ff0_61c8_63b6_0332),
    (5, 0x954a_3d7a_4b06_8f79, 0x3ff0_4f12_2f2c_e1d0),
    (6, 0x27c3_d987_2aef_4add, 0x3ff0_5d54_b0de_5668),
    (7, 0x2292_1e69_a564_7763, 0x3ff0_72dd_7886_79f2),
];

impl TuneWorkload {
    fn task(&self, seed: u64) -> Task {
        Task::new(
            (self.program)(),
            citroen_passes::Registry::full(),
            citroen_sim::Platform::tx2(),
            TaskConfig {
                seq_len: self.seq_len,
                seed,
                ..Default::default()
            },
        )
    }

    /// The paper-default configuration at this workload's q.
    fn config(&self, seed: u64) -> CitroenConfig {
        CitroenConfig {
            batch: self.batch,
            seed,
            ..Default::default()
        }
    }
}

/// One finished session.
struct Session {
    seed: u64,
    setup_s: f64,
    wall_s: f64,
    speedup: f64,
    width: usize,
    task: Task,
    trace: TuneTrace,
}

fn run_session(w: &TuneWorkload, seed: u64) -> Session {
    let t0 = Instant::now();
    let mut task = w.task(seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let (trace, report) = run_citroen(&mut task, w.budget, &w.config(seed));
    let wall_s = t0.elapsed().as_secs_f64();
    let speedup = task.speedup(trace.best());
    Session {
        seed,
        setup_s,
        wall_s,
        speedup,
        width: report.ranked.len(),
        task,
        trace,
    }
}

/// Compare a session against its pins; failures count against the run.
fn check(w: &TuneWorkload, s: &Session, out: &mut Outcome) -> J {
    let digest = trace_digest(&s.trace);
    out.attempted += 1;
    match PINS.iter().find(|p| p.0 == s.seed) {
        Some(&(_, want_digest, want_speedup)) => {
            if digest != want_digest || s.speedup.to_bits() != want_speedup {
                out.fail(format!(
                    "{} session {}: digest {digest:#018x} speedup {} (bits {:#x}), pinned {want_digest:#018x} / {}",
                    w.name,
                    s.seed,
                    s.speedup,
                    s.speedup.to_bits(),
                    f64::from_bits(want_speedup)
                ));
            }
        }
        None => out.fail(format!(
            "{} session {}: no pin; observed ({}, {digest:#018x}, {:#x})",
            w.name,
            s.seed,
            s.seed,
            s.speedup.to_bits()
        )),
    }
    J::Obj(vec![
        ("session_seed".into(), J::Int(s.seed)),
        ("digest".into(), J::Str(format!("{digest:#018x}"))),
        ("speedup".into(), J::Num(s.speedup)),
        ("setup_s".into(), J::Num(s.setup_s)),
        ("wall_s".into(), J::Num(s.wall_s)),
    ])
}

fn session_counts(sessions: &[Session], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&Session) -> usize| sessions.iter().map(f).sum::<usize>() as u64;
    out.count("sessions", sessions.len() as u64);
    out.count("compiles", sum(&|s| s.task.compilations));
    out.count("passes_executed", sum(&|s| s.task.passes_executed));
    out.count("measurements", sum(&|s| s.task.measurements));
    out.count("runtime_cache_hits", sum(&|s| s.task.cache_hits));
    out.count("candidates", sum(&|s| s.trace.candidates_generated));
    out.count("coverage_dropped", sum(&|s| s.trace.coverage_dropped));
}

/// Run `w`: the session set in a seed-dependent order, timed untraced, or
/// traced once for the per-layer numbers.
pub fn run(w: &TuneWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut order = w.sessions.to_vec();
    StdRng::seed_from_u64(seed).shuffle(&mut order);
    if trace {
        run_traced(w, &order, &mut out);
    } else {
        run_timed(w, &order, seconds, &mut out);
    }
    out
}

/// Build `seed`'s task at least 3 times, then until 0.2 s or 100 builds;
/// every build time goes to `builds`, and the median is returned.
fn timed_setups(w: &TuneWorkload, seed: u64, builds: &mut Vec<f64>) -> f64 {
    let mut own = Vec::new();
    let t = Instant::now();
    while own.len() < 3 || (own.len() < 100 && t.elapsed().as_secs_f64() < 0.2) {
        let t0 = Instant::now();
        std::hint::black_box(w.task(seed));
        own.push(t0.elapsed().as_secs_f64());
    }
    builds.extend(&own);
    median(&own)
}

fn run_timed(w: &TuneWorkload, order: &[u64], seconds: f64, out: &mut Outcome) {
    // Sessions in turn through the set, round and round, until the next
    // one is not expected to end within the requested time (every session
    // runs at least once). The host's speed swings within seconds, so each
    // session's wall is the median of its runs, and the set's wall is the
    // sum of those. Each session's set-up is timed on its own builds first.
    let start = Instant::now();
    let (mut builds, mut waits) = (Vec::new(), Vec::new());
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut speedups = Vec::new();
    let mut first = Vec::new();
    for i in 0.. {
        let k = i % order.len();
        if i >= order.len() && start.elapsed().as_secs_f64() + median(&walls[k]) > seconds {
            break;
        }
        waits.push(timed_setups(w, order[k], &mut builds) * 1e3);
        let s = run_session(w, order[k]);
        walls[k].push(s.wall_s);
        let d = check(w, &s, out);
        if i < order.len() {
            speedups.push(s.speedup);
            out.detail.push(d);
            first.push(s);
        }
    }
    session_counts(&first, out);
    out.detail.push(J::Obj(vec![(
        "session_walls_s".into(),
        J::Arr(
            walls
                .iter()
                .map(|v| J::Arr(v.iter().map(|&w| J::Num(w)).collect()))
                .collect(),
        ),
    )]));
    let session_ms: Vec<f64> = walls.iter().map(|v| median(v) * 1e3).collect();
    let tune_wall_s = session_ms.iter().sum::<f64>() / 1e3;
    out.metric("setup_s", median(&builds), "s");
    out.metric("tune_wall_s", tune_wall_s, "s");
    out.metric("best_speedup_geomean", geomean(&speedups), "x");
    out.metric("jobs_per_s", order.len() as f64 / tune_wall_s, "1/s");
    out.metric("job_latency_p50_ms", median(&session_ms), "ms");
    out.metric("job_latency_p90_ms", quantile(&session_ms, 0.9), "ms");
    // A library session waits for its task set-up (the -O3 build and its
    // profile) before the search starts; that is its queue.
    out.metric("queue_wait_p90_ms", quantile(&waits, 0.9), "ms");
    out.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
}

fn run_traced(w: &TuneWorkload, order: &[u64], out: &mut Outcome) {
    let records_before = layers::records();
    telemetry::install(Box::<layers::CountingSink>::default());
    let sessions: Vec<Session> = order.iter().map(|&s| run_session(w, s)).collect();
    let t = telemetry::take_trace().expect("memory sink holds the trace");
    telemetry::disable();
    let records = layers::records() - records_before;

    // The shortest session again, untraced: the tracing overhead.
    let shortest = sessions
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("a session ran");
    let untraced = run_session(w, shortest.seed);
    let overhead = shortest.wall_s / untraced.wall_s;

    for s in sessions.iter().chain(std::iter::once(&untraced)) {
        let d = check(w, s, out);
        out.detail.push(d);
    }
    session_counts(&sessions, out);
    let coverage = layers::from_trace(&t, w.config(0).candidates as u64, out);
    if coverage < 0.9 {
        out.fail(format!(
            "layer self-times cover {coverage:.3} of busy time (< 0.9)"
        ));
    }
    out.metric("telemetry.records", records as f64, "count");
    out.metric("telemetry.trace_overhead_ratio", overhead, "ratio");
    layers::ir_probes(&[(w.program)()], out);
    let width = sessions.iter().map(|s| s.width).max().unwrap_or(1);
    layers::gp_probes(width, out);
    layers::telemetry_probes(out);
    crate::serve_mix::absent_serve_layers(out);
}
