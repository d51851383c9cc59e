//! Per-layer metrics. Most come from the spans and counters the program
//! already emits (read through a `MemorySink` in-process, or from the
//! daemon's `--trace-dir` JSONL); layers without a span are timed from
//! outside by calling their public functions ("probes").

use crate::report::{median, Outcome};
use citroen_gp::{Gp, Mat};
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_suite::Benchmark;
use citroen_telemetry::{
    self as telemetry, EventRecord, MemorySink, SpanRecord, TelemetrySink, Trace,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// The passes whose self time is reported one by one.
const PASSES: [&str; 10] = [
    "licm",
    "loop-rotate",
    "instcombine",
    "gvn",
    "early-cse",
    "mem2reg",
    "slp-vectorizer",
    "loop-unroll",
    "simplifycfg",
    "sccp",
];

/// Sink records seen by [`CountingSink`] since the process started.
static RECORDS: AtomicU64 = AtomicU64::new(0);

/// A `MemorySink` that also counts every record it receives, so the
/// benchmark can report how much telemetry a traced run produces.
#[derive(Default)]
pub struct CountingSink(MemorySink);

impl TelemetrySink for CountingSink {
    fn record_span(&mut self, rec: SpanRecord) {
        RECORDS.fetch_add(1, Ordering::Relaxed);
        self.0.record_span(rec);
    }
    fn add_counter(&mut self, name: &str, delta: u64) {
        RECORDS.fetch_add(1, Ordering::Relaxed);
        self.0.add_counter(name, delta);
    }
    fn record_value(&mut self, name: &str, value: u64) {
        RECORDS.fetch_add(1, Ordering::Relaxed);
        self.0.record_value(name, value);
    }
    fn record_event(&mut self, rec: EventRecord) {
        RECORDS.fetch_add(1, Ordering::Relaxed);
        self.0.record_event(rec);
    }
    fn take_trace(&mut self) -> Option<Trace> {
        self.0.take_trace()
    }
}

/// Records counted so far by every [`CountingSink`].
pub fn records() -> u64 {
    RECORDS.load(Ordering::Relaxed)
}

const MS: f64 = 1e-6;

/// Per-layer metrics from one trace. `candidates` is the session config's
/// candidates per iteration (the coverage-drop ratio's denominator).
/// Returns the share of busy time the layer self-times cover.
pub fn from_trace(t: &Trace, candidates: u64, out: &mut Outcome) -> f64 {
    // Self time subtracts only children on the same thread: a `par.worker`
    // child runs concurrently on a pool thread, not inside its parent.
    let by_id: HashMap<u64, (u64, u64)> = t
        .spans
        .iter()
        .map(|s| (s.id, (s.thread, s.dur_ns)))
        .collect();
    let mut child: HashMap<u64, u64> = HashMap::new();
    let mut busy = 0u64;
    for s in &t.spans {
        match by_id.get(&s.parent) {
            Some(&(thread, dur)) if thread == s.thread => {
                *child.entry(s.parent).or_insert(0) += s.dur_ns.min(dur);
            }
            _ => busy += s.dur_ns,
        }
    }
    let mut total: HashMap<&str, (u64, u64, u64)> = HashMap::new(); // count, total, self
    for s in &t.spans {
        let own = s
            .dur_ns
            .saturating_sub(child.get(&s.id).copied().unwrap_or(0));
        let e = total.entry(s.name.as_str()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 += own;
    }
    let get = |name: &str| total.get(name).copied().unwrap_or((0, 0, 0));
    let counter = |name: &str| t.counters.get(name).copied().unwrap_or(0);

    let (pass_runs, pass_self): (u64, u64) = (
        t.counters
            .iter()
            .filter(|(k, _)| k.starts_with("pass.") && k.ends_with(".runs"))
            .map(|(_, v)| v)
            .sum(),
        total
            .iter()
            .filter(|(k, _)| k.starts_with("pass."))
            .map(|(_, v)| v.2)
            .sum(),
    );
    out.metric(
        "passes.compile_calls",
        counter("task.compilations") as f64,
        "count",
    );
    out.metric("passes.compile_ms", get("compile").1 as f64 * MS, "ms");
    out.metric("passes.pass_runs", pass_runs as f64, "count");
    out.metric("passes.pass_self_ms", pass_self as f64 * MS, "ms");
    for p in PASSES {
        out.metric(
            &format!("passes.{p}.self_ms"),
            get(&format!("pass.{p}")).2 as f64 * MS,
            "ms",
        );
    }

    let generated = counter("citroen.iterations") * candidates;
    let dropped = counter("citroen.coverage_dropped");
    out.metric("core.compile_self_ms", get("compile").2 as f64 * MS, "ms");
    out.metric(
        "core.iteration_self_ms",
        get("iteration").2 as f64 * MS,
        "ms",
    );
    out.metric("core.assemble_calls", get("link").0 as f64, "count");
    out.metric("core.assemble_ms", get("link").1 as f64 * MS, "ms");
    out.metric(
        "core.coverage_drop_ratio",
        ratio(dropped, generated),
        "ratio",
    );

    out.metric("sim.execute_calls", get("sim.execute").0 as f64, "count");
    out.metric("sim.execute_ms", get("sim.execute").1 as f64 * MS, "ms");

    out.metric("gp.fit_calls", get("gp.fit").0 as f64, "count");
    out.metric("gp.fit_ms", get("gp.fit").1 as f64 * MS, "ms");
    out.metric(
        "gp.predict_calls",
        counter("gp.predict.calls") as f64,
        "count",
    );

    let canon = counter("canon.dead_dropped")
        + counter("canon.idem_collapsed")
        + counter("canon.subsume_dropped");
    out.metric("bo.acquire_ms", get("acquire").1 as f64 * MS, "ms");
    out.metric("bo.acq_evals", counter("acq.evals") as f64, "count");
    out.metric("bo.canon_dropped", canon as f64, "count");

    out.metric(
        "rt.par.queue_wait_ms",
        counter("par.queue_wait_ns") as f64 * MS,
        "ms",
    );
    out.metric("rt.par.work_ms", counter("par.work_ns") as f64 * MS, "ms");

    // Everything but the session root's own time is attributed to a layer.
    let coverage = 1.0 - ratio(get("citroen.run").2, busy);
    out.metric("telemetry.layer_coverage", coverage, "ratio");
    out.count("pass_runs", pass_runs);
    out.count("gp_fits", get("gp.fit").0);
    out.count("acq_evals", counter("acq.evals"));
    out.count("sim_executes", get("sim.execute").0);
    coverage
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median per-call time of `f` in nanoseconds: batches sized to about a
/// millisecond, seven of them.
fn per_call_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let one = t0.elapsed().as_nanos().max(1) as f64;
    let reps = ((1e6 / one) as usize).clamp(1, 10_000);
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&samples)
}

/// IR probes: fingerprint and clone of each program's `-O3` build (the
/// module `Task::assemble` prints and the caches copy), averaged over the
/// workload's programs.
pub fn ir_probes(programs: &[Benchmark], out: &mut Outcome) {
    let reg = citroen_passes::Registry::full();
    let pm = citroen_passes::PassManager::new(&reg);
    let o3 = citroen_passes::o3_pipeline(&reg);
    let (mut fp_ns, mut clone_ns) = (Vec::new(), Vec::new());
    for b in programs {
        let mods: Vec<_> = b
            .modules
            .iter()
            .map(|m| pm.compile(m, &o3).module)
            .collect();
        let linked = b.link_with(Some(&mods));
        fp_ns.push(per_call_ns(|| {
            citroen_ir::print::fingerprint(black_box(&linked))
        }));
        clone_ns.push(per_call_ns(|| black_box(&linked).clone()));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.metric("ir.fingerprint_us", mean(&fp_ns) / 1e3, "us");
    out.metric("ir.module_clone_us", mean(&clone_ns) / 1e3, "us");
}

/// GP probes: a fit at n = 60 and n = 240 observations with `width`
/// features, using the tuner's default GP settings.
pub fn gp_probes(width: usize, out: &mut Outcome) {
    let gp_cfg = citroen_core::CitroenConfig::default().gp;
    let width = width.max(1);
    for (n, reps, name) in [(60usize, 5, "gp.fit_n60_ms"), (240, 2, "gp.fit_n240_ms")] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..width).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>().sin()).collect();
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(Gp::fit(Mat::from_rows(rows.clone()), &y, gp_cfg.clone()));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.metric(name, median(&samples), "ms");
    }
}

/// Telemetry probes: cost of one enabled span (open + close into the
/// global sink), alone and with two threads contending. Installs a fresh
/// counting sink and leaves telemetry disabled.
pub fn telemetry_probes(out: &mut Outcome) {
    const N: u32 = 100_000;
    telemetry::install(Box::<CountingSink>::default());
    let spans = |n: u32| {
        for i in 0..n {
            black_box(telemetry::span("bench.probe"));
            black_box(i);
        }
    };
    let one: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            spans(N);
            let ns = t.elapsed().as_nanos() as f64 / N as f64;
            telemetry::take_trace();
            ns
        })
        .collect();
    let two: Vec<f64> = (0..5)
        .map(|_| {
            let barrier = Barrier::new(2);
            let per_thread: Vec<f64> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            let t = Instant::now();
                            spans(N);
                            t.elapsed().as_nanos() as f64 / N as f64
                        })
                    })
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            });
            telemetry::take_trace();
            per_thread.iter().sum::<f64>() / 2.0
        })
        .collect();
    telemetry::disable();
    out.metric("telemetry.span_enabled_ns", median(&one), "ns");
    out.metric("telemetry.span_enabled_2t_ns", median(&two), "ns");
}
