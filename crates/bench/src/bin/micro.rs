//! Micro-benchmarks of the substrates: interpreter throughput, pass-pipeline
//! compile time, GP fitting, SLP vectorisation, cost simulation, and one
//! end-to-end mini CITROEN iteration. These measure the *reproduction's*
//! performance; the paper's tables/figures are regenerated by the
//! `experiments` binary (see EXPERIMENTS.md).
//!
//! Plain `std::time::Instant` harness (no external bench framework, keeping
//! the build hermetic): each kernel runs a few warm-up iterations, then N
//! timed samples, and reports the median, min, and max per-iteration time.
//!
//!     cargo run --release --bin micro [-- SAMPLES]

use std::hint::black_box;
use std::time::Instant;

/// Timed samples per kernel (overridable by the first CLI argument).
const DEFAULT_SAMPLES: usize = 10;
const WARMUP: usize = 2;

fn time_one<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Run `f` WARMUP + `samples` times; report and return median-of-samples.
fn bench<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..WARMUP {
        black_box(f());
    }
    let mut times: Vec<f64> = (0..samples).map(|_| time_one(&mut f)).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    let (min, max) = (times[0], times[times.len() - 1]);
    println!(
        "{name:<32} median {:>12} min {:>12} max {:>12} (n={samples})",
        fmt_secs(median),
        fmt_secs(min),
        fmt_secs(max),
    );
    median
}

/// Time arms `a` and `b` sample by sample after WARMUP rounds of each,
/// alternating which arm runs first, and report and return the medians of
/// each arm and of the per-pair ratios `b / a`. Interleaving exposes both
/// arms to the same drift in host load; timing them as separate blocks of
/// samples does not.
fn paired<A, B>(
    names: [&str; 2],
    samples: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64, f64) {
    for _ in 0..WARMUP {
        black_box(a());
        black_box(b());
    }
    let pairs: Vec<(f64, f64)> = (0..samples)
        .map(|i| {
            if i % 2 == 0 {
                let ta = time_one(&mut a);
                (ta, time_one(&mut b))
            } else {
                let tb = time_one(&mut b);
                (time_one(&mut a), tb)
            }
        })
        .collect();
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(|x, y| x.total_cmp(y));
        xs[xs.len() / 2]
    };
    let ratio = median(pairs.iter().map(|(ta, tb)| tb / ta).collect());
    let med_a = median(pairs.iter().map(|p| p.0).collect());
    let med_b = median(pairs.iter().map(|p| p.1).collect());
    println!(
        "{} median {} vs {} median {}: pair ratio median {ratio:.3} (n={samples} pairs)",
        names[0],
        fmt_secs(med_a),
        names[1],
        fmt_secs(med_b),
    );
    (med_a, med_b, ratio)
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.3} s", s)
    }
}

fn interp_throughput(samples: usize) {
    let bench_k = citroen_suite::kernels::telecom_gsm();
    let linked = bench_k.link();
    let entry = bench_k.entry_in(&linked);
    bench("interp/gsm_o0", samples, || {
        let (out, _) =
            citroen_ir::interp::run_counting(black_box(&linked), entry, &bench_k.args)
                .unwrap();
        out.steps
    });
}

fn o3_pipeline_compile(samples: usize) {
    let bench_k = citroen_suite::kernels::telecom_gsm();
    let reg = citroen_passes::Registry::full();
    let pm = citroen_passes::PassManager::new(&reg);
    let o3 = citroen_passes::o3_pipeline(&reg);
    bench("compile/gsm_o3_pipeline", samples, || {
        pm.compile(black_box(&bench_k.modules[0]), &o3).fingerprint
    });
}

fn slp_on_unrolled(samples: usize) {
    let bench_k = citroen_suite::kernels::consumer_jpeg_dct();
    let reg = citroen_passes::Registry::full();
    let pm = citroen_passes::PassManager::new(&reg);
    let pre = reg.parse_seq("mem2reg,loop-rotate,loop-unroll,instsimplify").unwrap();
    let prepped = pm.compile(&bench_k.modules[0], &pre).module;
    let slp = reg.parse_seq("slp-vectorizer").unwrap();
    bench("passes/slp_on_unrolled_dct", samples, || {
        pm.compile(black_box(&prepped), &slp).stats
    });
}

fn gp_fit(samples: usize) {
    use citroen_gp::{Gp, GpConfig, Mat};
    use citroen_rt::rng::{Rng, SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(1);
    let n = 60;
    let d = 30;
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    let y: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>().sin()).collect();
    bench("gp/fit_60x30", samples, || {
        let gp = Gp::fit(
            Mat::from_rows(rows.clone()),
            &y,
            GpConfig { fit_iters: 10, ..Default::default() },
        );
        gp.lengthscales().to_vec()
    });
}

fn cost_simulation(samples: usize) {
    let bench_k = citroen_suite::kernels::network_dijkstra();
    let linked = bench_k.link();
    let entry = bench_k.entry_in(&linked);
    let platform = citroen_sim::Platform::tx2();
    bench("sim/dijkstra_execute", samples, || {
        platform.execute(&linked, entry, &bench_k.args).unwrap().cycles
    });
}

fn citroen_iteration(samples: usize) {
    use citroen_core::{run_citroen, CitroenConfig, Task, TaskConfig};
    bench("citroen/8_measurements_crc32", samples, || {
        let mut task = Task::new(
            citroen_suite::kernels::telecom_crc32(),
            citroen_passes::Registry::full(),
            citroen_sim::Platform::tx2(),
            TaskConfig { seq_len: 12, ..Default::default() },
        );
        let cfg = CitroenConfig { candidates: 12, init_random: 4, ..Default::default() };
        let (trace, _) = run_citroen(&mut task, 8, &cfg);
        trace.best()
    });
}

/// Per-op cost of the three disabled-path telemetry entry points (one relaxed
/// atomic load each), plus the enabled-path span cost for reference.
fn telemetry_overhead(samples: usize) -> (f64, f64, f64) {
    use citroen_telemetry as telemetry;
    const N: u32 = 1_000_000;
    let per_op = |median: f64| median / N as f64 * 1e9;

    telemetry::disable();
    let span_ns = per_op(bench("telemetry/disabled_span x1M", samples, || {
        for i in 0..N {
            black_box(telemetry::span("bench.op"));
            black_box(i);
        }
    }));
    let dyn_ns = per_op(bench("telemetry/disabled_span_dyn x1M", samples, || {
        for i in 0..N {
            black_box(telemetry::span_dyn(|| format!("bench.op.{i}")));
        }
    }));
    let counter_ns = per_op(bench("telemetry/disabled_counter x1M", samples, || {
        for i in 0..N {
            telemetry::counter("bench.counter", black_box(u64::from(i)));
            telemetry::value("bench.value", black_box(u64::from(i)));
        }
    }));

    telemetry::enable();
    bench("telemetry/enabled_span x100k", samples, || {
        for i in 0..N / 10 {
            black_box(telemetry::span("bench.op"));
            black_box(i);
        }
        telemetry::take_trace().map(|t| t.spans.len())
    });
    telemetry::disable();
    (span_ns, dyn_ns, counter_ns)
}

/// Budget of the small seeded tuning run the telemetry and metrics gates
/// measure against (a ~25 ms gsm session).
const GATE_BUDGET: usize = 8;

/// The seeded gsm tuning run the overhead gates measure against (same shape
/// as `crates/core/tests/telemetry_identity.rs`), to `budget` measurements.
fn gate_tune(seed: u64, budget: usize) -> f64 {
    use citroen_core::{run_citroen, CitroenConfig, Task, TaskConfig};
    let mut task = Task::new(
        citroen_suite::kernels::telecom_gsm(),
        citroen_passes::Registry::full(),
        citroen_sim::Platform::tx2(),
        TaskConfig { seq_len: 16, seed, ..Default::default() },
    );
    let cfg = CitroenConfig { candidates: 16, init_random: 4, seed, ..Default::default() };
    run_citroen(&mut task, budget, &cfg).0.best()
}

/// The tier-1 telemetry gate (`scripts/check.sh`): the disabled path must
/// stay within the pinned per-op budget, and the projected whole-run cost of
/// the instrumentation (call volume of a real traced tuning run × measured
/// per-op cost) must stay under 2% of that run's wall time.
fn telemetry_gate() -> i32 {
    use citroen_telemetry as telemetry;

    // Pinned disabled-path budget (DESIGN.md §7): one relaxed load and an
    // early return, with headroom for noisy CI hosts.
    const BUDGET_NS: f64 = 50.0;
    let (span_ns, dyn_ns, counter_ns) = telemetry_overhead(5);
    println!(
        "\ndisabled path: span {span_ns:.2} ns/op, span_dyn {dyn_ns:.2} ns/op, \
         counter+value {counter_ns:.2} ns/op (budget {BUDGET_NS} ns/op)"
    );
    let worst = span_ns.max(dyn_ns).max(counter_ns);
    if worst > BUDGET_NS {
        eprintln!("FAIL: disabled-path cost {worst:.2} ns/op exceeds {BUDGET_NS} ns/op");
        return 1;
    }

    // Projected instrumentation share of a real tuning run: count the
    // records a traced run produces, cost them at the measured per-op rate,
    // and compare against the untraced run's wall time.
    telemetry::disable();
    let wall = time_one(|| gate_tune(1, GATE_BUDGET));
    telemetry::enable();
    gate_tune(1, GATE_BUDGET);
    let trace = telemetry::take_trace().expect("trace");
    telemetry::disable();
    // Two touch points per span (open + close); counters/values are one each,
    // bounded above by one per span.
    let ops = (trace.spans.len() as f64) * 3.0;
    let frac = ops * worst * 1e-9 / wall;
    println!(
        "projected disabled-instrumentation share: {} ops x {worst:.1} ns over {} wall = {:.3}%",
        ops as u64,
        fmt_secs(wall),
        frac * 100.0
    );
    if frac > 0.02 {
        eprintln!("FAIL: projected instrumentation share {:.3}% exceeds 2%", frac * 100.0);
        return 1;
    }
    println!("telemetry gate OK");
    0
}

/// Measurements per arm of the stream gate's end-to-end pairs.
const STREAM_BUDGET: usize = 32;

/// Interleaved pairs the stream gate's end-to-end ratio is the median of.
const STREAM_PAIRS: usize = 9;

/// The stream-sink overhead gate (`scripts/check.sh`), two checks:
///
/// 1. Tight-loop per-span cost with a `StreamSink` installed stays within a
///    pinned budget. This loop saturates the writer thread, so the number is
///    bounded by disk/serialisation *throughput* (µs/record), not the
///    steady-state recording cost — the budget catches accidental
///    synchronous I/O on the recording side (ms/op), nothing subtler.
/// 2. End-to-end: the same seeded tuning run with a memory sink vs
///    streamed, [`STREAM_PAIRS`] pairs timed back to back; the gated number
///    is the median of the per-pair ratios. Streaming a real run
///    interleaves ~thousands of records with real compile/measure work, far
///    below writer throughput, so the slowdown must stay under 20%. Each
///    arm is a [`STREAM_BUDGET`]-measurement session (a few hundred ms)
///    rather than the ~25 ms [`GATE_BUDGET`] one, whose pairs a shared
///    host's scheduling noise could push past the bound.
fn stream_gate() -> i32 {
    use citroen_telemetry as telemetry;

    // Per-op budget for the enabled streaming path. Generous — the point is
    // to catch accidental synchronous I/O or serialisation on the recording
    // side (~ms/op), not to police allocator noise.
    const BUDGET_NS: f64 = 25_000.0;
    const N: u32 = 100_000;
    let tmp = |name: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!("citroen-stream-gate-{}-{name}.jsonl", std::process::id()));
        p
    };

    let span_path = tmp("spans");
    telemetry::disable();
    telemetry::enable_stream(&span_path).expect("create stream file");
    let median = bench("telemetry/stream_span x100k", 5, || {
        for i in 0..N {
            black_box(telemetry::span("bench.op"));
            black_box(i);
        }
    });
    drop(telemetry::disable());
    let span_ns = median / N as f64 * 1e9;
    let lines = std::fs::read_to_string(&span_path)
        .map(|t| t.lines().count())
        .unwrap_or(0);
    std::fs::remove_file(&span_path).ok();
    println!(
        "\nstream path: {span_ns:.1} ns/span (budget {BUDGET_NS} ns/op); \
         last sample file had {lines} lines"
    );
    if span_ns > BUDGET_NS {
        eprintln!("FAIL: streamed-span cost {span_ns:.1} ns/op exceeds {BUDGET_NS} ns/op");
        return 1;
    }

    // End-to-end overhead: identical seeded runs, untraced vs memory-sink
    // vs streamed. The memory arm isolates the cost the telemetry layer
    // already charges for *being enabled* (span timestamps, TLS, the global
    // mutex); this gate pins the *marginal* cost of streaming over that.
    let untraced = bench("tune/untraced x5", 5, || gate_tune(1, STREAM_BUDGET));
    let run_path = tmp("tune");
    let mut run_lines = 0usize;
    let (memory, streamed, ratio) = paired(
        ["tune/memory-sink", "tune/streamed"],
        STREAM_PAIRS,
        || {
            telemetry::enable();
            let best = gate_tune(1, STREAM_BUDGET);
            telemetry::take_trace();
            telemetry::disable();
            best
        },
        || {
            telemetry::enable_stream(&run_path).expect("create stream file");
            let best = gate_tune(1, STREAM_BUDGET);
            drop(telemetry::disable());
            run_lines = std::fs::read_to_string(&run_path)
                .map(|t| t.lines().count())
                .unwrap_or(0);
            best
        },
    );
    std::fs::remove_file(&run_path).ok();
    let marginal = ratio - 1.0;
    println!(
        "streamed run: {run_lines} records, wall {} vs memory-sink {} (untraced {}) \
         = {:+.1}% marginal streaming cost",
        fmt_secs(streamed),
        fmt_secs(memory),
        fmt_secs(untraced),
        marginal * 100.0
    );
    if marginal > 0.20 {
        eprintln!("FAIL: marginal streaming cost {:.1}% exceeds 20%", marginal * 100.0);
        return 1;
    }
    println!("stream gate OK");
    0
}

/// The batched-tuning gate (`scripts/check.sh`), two checks:
///
/// 1. Determinism: two q=4 runs with the same seed must produce identical
///    traces — worker timing must never leak into results.
/// 2. Wall-clock: the same seeded budget, q=1 vs q=4 (median of 3 each).
///    q=4 amortises one candidate compile sweep over four measurements and
///    runs the sweep, the measurements, and the GP fit on the worker pool,
///    so on a ≥4-core host the whole run must be ≥3× faster. Fewer cores
///    keep only the amortisation win, so the floor drops to 1.5×.
fn batch_gate() -> i32 {
    use citroen_core::{run_citroen, CitroenConfig, Task, TaskConfig, TuneTrace};

    let tune = |seed: u64, batch: usize| -> (f64, TuneTrace, usize) {
        let mut task = Task::new(
            citroen_suite::kernels::telecom_gsm(),
            citroen_passes::Registry::full(),
            citroen_sim::Platform::tx2(),
            TaskConfig { seq_len: 16, seed, ..Default::default() },
        );
        let cfg = CitroenConfig { candidates: 16, init_random: 4, batch, seed, ..Default::default() };
        let t0 = Instant::now();
        let (trace, _) = run_citroen(&mut task, 32, &cfg);
        (t0.elapsed().as_secs_f64(), trace, task.measurements)
    };

    let (_, a, meas_a) = tune(9, 4);
    let (_, b, meas_b) = tune(9, 4);
    if a.runtimes != b.runtimes
        || a.best_history != b.best_history
        || a.best_seqs != b.best_seqs
        || meas_a != meas_b
    {
        eprintln!("FAIL: two q=4 runs with the same seed diverged");
        return 1;
    }
    println!("determinism: two q=4 runs bit-identical ({meas_a} measurements)");

    let median3 = |batch: usize| {
        let mut walls: Vec<f64> = (1..=3).map(|seed| tune(seed, batch).0).collect();
        walls.sort_by(|x, y| x.total_cmp(y));
        walls[1]
    };
    let w1 = median3(1);
    let w4 = median3(4);
    let speedup = w1 / w4;
    let cores = citroen_rt::par::thread_count(usize::MAX);
    let floor = if cores >= 4 { 3.0 } else { 1.5 };
    println!(
        "wall-clock: q=1 {} vs q=4 {} = {speedup:.2}x (floor {floor}x on {cores} worker threads)",
        fmt_secs(w1),
        fmt_secs(w4),
    );
    if speedup < floor {
        eprintln!("FAIL: q=4 wall-clock speedup {speedup:.2}x below the {floor}x floor");
        return 1;
    }
    println!("batch gate OK");
    0
}

/// The observability-plane overhead gate (`scripts/check.sh`), three checks:
///
/// 1. Registry hot path: per-op cost of a windowed counter `add` and a
///    windowed histogram `observe` stays within a pinned budget — these sit
///    behind the daemon's routing sink, so every span and counter of every
///    session pays them.
/// 2. Snapshot cost: a full windowed read-out (per-window deltas, rates,
///    recent-quantile merges) of a representative registry stays under a
///    millisecond, so the `metrics` verb is pollable at dashboard rates.
/// 3. End-to-end: the same seeded tuning run with a plain memory sink vs
///    a sink that additionally does the daemon's metrics work (windowed
///    registry + profile buffer), five pairs timed back to back. The median
///    per-pair marginal cost must stay under 20%.
fn metrics_gate() -> i32 {
    use citroen_telemetry as telemetry;
    use citroen_telemetry::metrics::{MetricsRegistry, WindowCfg};
    use citroen_telemetry::{SpanRecord, TelemetrySink};

    // 1. Hot path. Budget is generous: the path is a BTreeMap probe plus a
    //    ring-slot update (and log-bucket math for observe), ~100ns in
    //    practice; the budget catches accidental O(ring) or allocation work.
    const HOT_BUDGET_NS: f64 = 2_000.0;
    const N: u32 = 1_000_000;
    let mut reg = MetricsRegistry::new(WindowCfg::default());
    let add_ns = bench("metrics/registry_add x1M", 5, || {
        for i in 0..N {
            reg.add("gate.counter", 1, u64::from(i / 1_000));
        }
        reg.total("gate.counter")
    }) / N as f64
        * 1e9;
    let obs_ns = bench("metrics/registry_observe x1M", 5, || {
        for i in 0..N {
            reg.observe("gate.hist", u64::from(i % 1_024), u64::from(i / 1_000));
        }
    }) / N as f64
        * 1e9;
    println!(
        "\nhot path: add {add_ns:.1} ns/op, observe {obs_ns:.1} ns/op \
         (budget {HOT_BUDGET_NS} ns/op)"
    );
    if add_ns.max(obs_ns) > HOT_BUDGET_NS {
        eprintln!(
            "FAIL: registry hot-path cost {:.1} ns/op exceeds {HOT_BUDGET_NS} ns/op",
            add_ns.max(obs_ns)
        );
        return 1;
    }

    // 2. Snapshot: 32 counters + 8 histograms spread over a full ring, read
    //    out the way the `metrics` verb does (deltas + rates + recent
    //    quantiles).
    const SNAP_BUDGET: f64 = 1e-3;
    let mut snap_reg = MetricsRegistry::new(WindowCfg::default());
    for c in 0..32u32 {
        for t in 0..60u64 {
            snap_reg.add(&format!("c{c}"), 1 + u64::from(c), t * 1_000);
        }
    }
    for h in 0..8u32 {
        for v in 0..600u64 {
            snap_reg.observe(&format!("h{h}"), v, v * 100);
        }
    }
    let now = 60_000u64;
    let snap = bench("metrics/snapshot 32c+8h", 5, || {
        let mut acc = 0u64;
        for (_, c) in snap_reg.counters() {
            acc += c.window_deltas(&snap_reg.cfg, now).iter().sum::<u64>();
            acc += c.rate_per_sec(&snap_reg.cfg, now) as u64;
        }
        for (_, h) in snap_reg.hists() {
            let r = h.recent(&snap_reg.cfg, now);
            acc += r.quantile(0.5) + r.quantile(0.99);
        }
        acc
    });
    println!("snapshot: {} per full read-out (budget 1 ms)", fmt_secs(snap));
    if snap > SNAP_BUDGET {
        eprintln!("FAIL: registry snapshot takes {} — over the 1 ms budget", fmt_secs(snap));
        return 1;
    }

    // 3. End-to-end marginal cost of feeding metrics from the sink, using a
    //    local stand-in for the daemon's routing-sink → hub path (tracked-
    //    span latency hists, windowed counters). The stand-in also copies
    //    each span into a bounded buffer, work the daemon does not do, so it
    //    does a superset of the daemon's per-record work and the gate errs
    //    on the strict side.
    struct GateMetricsSink {
        epoch: Instant,
        reg: MetricsRegistry,
        profile: Vec<SpanRecord>,
    }
    impl TelemetrySink for GateMetricsSink {
        fn record_span(&mut self, rec: SpanRecord) {
            let now = self.epoch.elapsed().as_millis() as u64;
            if matches!(rec.name.as_str(), "compile" | "measure" | "iteration") {
                self.reg.observe(&format!("span.{}_us", rec.name), rec.dur_ns / 1_000, now);
            }
            if self.profile.len() < 2_048 {
                self.profile.push(rec);
            }
        }
        fn add_counter(&mut self, name: &str, delta: u64) {
            let now = self.epoch.elapsed().as_millis() as u64;
            self.reg.add(name, delta, now);
        }
        fn record_value(&mut self, name: &str, value: u64) {
            let now = self.epoch.elapsed().as_millis() as u64;
            self.reg.observe(name, value, now);
        }
    }

    telemetry::disable();
    let (memory, metered, ratio) = paired(
        ["tune/memory-sink", "tune/metrics-sink"],
        5,
        || {
            telemetry::enable();
            let best = gate_tune(1, GATE_BUDGET);
            telemetry::take_trace();
            telemetry::disable();
            best
        },
        || {
            telemetry::install(Box::new(GateMetricsSink {
                epoch: Instant::now(),
                reg: MetricsRegistry::new(WindowCfg::default()),
                profile: Vec::new(),
            }));
            let best = gate_tune(1, GATE_BUDGET);
            telemetry::disable();
            best
        },
    );
    let marginal = ratio - 1.0;
    println!(
        "metered run: wall {} vs memory-sink {} = {:+.1}% marginal metrics cost",
        fmt_secs(metered),
        fmt_secs(memory),
        marginal * 100.0
    );
    if marginal > 0.20 {
        eprintln!("FAIL: marginal metrics cost {:.1}% exceeds 20%", marginal * 100.0);
        return 1;
    }
    println!("metrics gate OK");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--telemetry-gate") {
        std::process::exit(telemetry_gate());
    }
    if args.iter().any(|a| a == "--metrics-gate") {
        std::process::exit(metrics_gate());
    }
    if args.iter().any(|a| a == "--stream-gate") {
        std::process::exit(stream_gate());
    }
    if args.iter().any(|a| a == "--batch-gate") {
        std::process::exit(batch_gate());
    }
    let samples = args
        .first()
        .and_then(|a| a.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_SAMPLES);
    println!("micro-benchmarks, median of {samples} samples per kernel\n");
    interp_throughput(samples);
    o3_pipeline_compile(samples);
    slp_on_unrolled(samples);
    gp_fit(samples);
    cost_simulation(samples);
    citroen_iteration(samples);
    telemetry_overhead(samples);
}
