//! Chapter 5 (IPDPS paper) experiment runners: Tables 5.1–5.5, Figures
//! 5.1 and 5.6–5.12, plus the adaptive multi-module allocation study.

use crate::{f3, f4, geomean, mean, std_dev, ExpCfg, Report};
use citroen_core::{run_citroen, Allocation, CitroenConfig, Task, TaskConfig};
use citroen_ir::interp::run_counting;
use citroen_passes::{o3_pipeline, PassManager, Registry};
use citroen_sim::Platform;
use citroen_suite::Benchmark;
use citroen_telemetry as telemetry;
use citroen_tuners::{ablation, baselines, CitroenTuner, SeqTuner};
use citroen_rt::par::par_map;

/// Construct a fresh benchmark by name.
fn bench_by_name(name: &str) -> Benchmark {
    citroen_suite::all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

fn make_task(name: &str, platform: &Platform, cfg: &ExpCfg, seed: u64) -> Task {
    make_task_with_registry(name, platform, cfg, seed, Registry::full())
}

fn make_task_with_registry(
    name: &str,
    platform: &Platform,
    cfg: &ExpCfg,
    seed: u64,
    registry: Registry,
) -> Task {
    Task::new(
        bench_by_name(name),
        registry,
        platform.clone(),
        TaskConfig { seq_len: cfg.seq_len, seed, ..Default::default() },
    )
}

fn platforms(cfg: &ExpCfg) -> Vec<Platform> {
    if cfg.full {
        vec![Platform::tx2(), Platform::amd()]
    } else {
        vec![Platform::tx2()]
    }
}

fn cbench_names() -> Vec<&'static str> {
    citroen_suite::cbench().iter().map(|b| b.name).collect()
}

fn spec_names() -> Vec<&'static str> {
    citroen_suite::spec().iter().map(|b| b.name).collect()
}

/// A focused subset for the ablation-style studies.
fn cbench_subset() -> Vec<&'static str> {
    vec!["telecom_gsm", "telecom_crc32", "automotive_bitcount", "consumer_jpeg_dct", "network_dijkstra"]
}

// ---------------------------------------------------------------------------
// Fig 5.1 + Table 5.1 — the motivating example
// ---------------------------------------------------------------------------

/// Fig. 5.1: the `mem2reg`/`instcombine`/`slp-vectorizer` ordering flips
/// whether the GSM kernel vectorises.
pub fn fig5_1(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig5_1_phase_order_matters",
        &["sequence", "SLP.NumVectorInstructions", "dyn ops", "vectorised?"],
    );
    let bench = bench_by_name("telecom_gsm");
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    for seq in [
        "mem2reg,loop-rotate,loop-unroll,instsimplify,slp-vectorizer",
        "mem2reg,loop-rotate,loop-unroll,instsimplify,instcombine,slp-vectorizer",
    ] {
        let res = pm.compile_named(&bench.modules[0], seq).unwrap();
        let linked = bench.link_with(Some(std::slice::from_ref(&res.module)));
        let entry = bench.entry_in(&linked);
        let (out, _) = run_counting(&linked, entry, &bench.args).unwrap();
        let nvi = res.stats.get("slp", "NumVectorInstructions");
        rep.row(vec![
            seq.to_string(),
            nvi.to_string(),
            out.steps.to_string(),
            if nvi > 0 { "yes".into() } else { "no".into() },
        ]);
    }
    rep.finish(cfg);
}

/// Table 5.1: pass-related compilation statistics vs speedup for five
/// sequences on the GSM kernel.
pub fn tab5_1(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "tab5_1_stats_vs_speedup",
        &["sequence", "SLP.NVI", "mem2reg.NPI", "mem2reg.NP", "instcombine.NC", "speedup_vs_O3"],
    );
    let platform = Platform::tx2();
    let mut task = make_task("telecom_gsm", &platform, cfg, 0);
    let base = "mem2reg,loop-rotate,loop-unroll,instsimplify";
    let seqs = [
        format!("{base},slp-vectorizer"),
        format!("slp-vectorizer,{base}"),
        format!("instcombine,{base},slp-vectorizer"),
        format!("{base},instcombine,slp-vectorizer"),
        format!("{base},slp-vectorizer,instcombine"),
    ];
    for s in &seqs {
        let seq = task.registry.parse_seq(s).unwrap();
        let hot = task.hot();
        let (stats, _, module) = task.compile_hot(hot, &seq);
        let (linked, fp) = task.assemble(&[(hot, &module)]);
        let t = task.measure_linked(&linked, fp).unwrap();
        rep.row(vec![
            s.clone(),
            stats.get("slp", "NumVectorInstructions").to_string(),
            stats.get("mem2reg", "NumPHIInsert").to_string(),
            stats.get("mem2reg", "NumPromoted").to_string(),
            stats.get("instcombine", "NumCombined").to_string(),
            f3(task.speedup(t)),
        ]);
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Tables 5.2–5.5
// ---------------------------------------------------------------------------

/// Table 5.2: the coverage issue — fraction of generated candidates whose
/// statistics/binaries duplicate already-observed points, and the effect of
/// the coverage-aware filter on final speedup.
pub fn tab5_2(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "tab5_2_coverage_issue",
        &["benchmark", "dup_fraction", "speedup_filtered", "speedup_unfiltered"],
    );
    let platform = Platform::tx2();
    for name in cbench_subset() {
        let rows: Vec<(f64, f64, f64)> = par_map((0..cfg.reps).collect(), |seed| {
            let mut t1 = make_task(name, &platform, cfg, seed);
            let c1 = CitroenConfig { seed, ..Default::default() };
            let (tr1, _) = run_citroen(&mut t1, cfg.budget, &c1);
            let dup = tr1.coverage_dropped as f64
                / tr1.candidates_generated.max(1) as f64;
            let s1 = t1.speedup(tr1.best());
            let mut t2 = make_task(name, &platform, cfg, seed);
            // Without coverage handling, duplicated binaries genuinely
            // cost budget (no dedup machinery).
            t2.charge_cached = true;
            let c2 = CitroenConfig { seed, coverage_filter: false, ..Default::default() };
            let (tr2, _) = run_citroen(&mut t2, cfg.budget, &c2);
            let s2 = t2.speedup(tr2.best());
            (dup, s1, s2)
        });
        rep.row(vec![
            name.to_string(),
            f3(mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>())),
            f3(mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>())),
            f3(mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>())),
        ]);
    }
    rep.finish(cfg);
}

/// Table 5.3: the pass universe.
pub fn tab5_3(cfg: &ExpCfg) {
    let mut rep = Report::new("tab5_3_pass_registry", &["id", "pass", "in LLVM10 subset?"]);
    let full = Registry::full();
    let old = Registry::llvm10();
    for id in full.ids() {
        let name = full.name(id);
        rep.row(vec![
            id.0.to_string(),
            name.to_string(),
            if old.by_name(name).is_some() { "yes".into() } else { "no".into() },
        ]);
    }
    println!(
        "registry: {} passes; sequence length {} → search space ≈ {} ^ {}",
        full.len(),
        cfg.seq_len,
        full.len(),
        cfg.seq_len
    );
    rep.finish(cfg);
}

/// Table 5.4: the benchmark suites.
pub fn tab5_4(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "tab5_4_benchmarks",
        &["benchmark", "suite", "modules", "functions", "IR insts", "dyn ops (O0)"],
    );
    for b in citroen_suite::all_benchmarks() {
        let linked = b.link();
        let entry = b.entry_in(&linked);
        let (out, _) = run_counting(&linked, entry, &b.args).unwrap();
        rep.row(vec![
            b.name.to_string(),
            format!("{:?}", b.suite),
            b.modules.len().to_string(),
            linked.funcs.len().to_string(),
            linked.num_insts().to_string(),
            out.steps.to_string(),
        ]);
    }
    rep.finish(cfg);
}

/// Table 5.5: top-5 most impactful compilation statistics per benchmark,
/// via the fitted cost model's ARD length-scales.
pub fn tab5_5(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "tab5_5_impactful_stats",
        &["benchmark", "rank", "statistic", "ARD lengthscale"],
    );
    let platform = Platform::tx2();
    for name in cbench_subset() {
        let mut task = make_task(name, &platform, cfg, 7);
        let c = CitroenConfig { seed: 7, ..Default::default() };
        let (_, report) = run_citroen(&mut task, cfg.budget, &c);
        for (rank, (stat, ls)) in report.ranked.iter().take(5).enumerate() {
            rep.row(vec![name.to_string(), (rank + 1).to_string(), stat.clone(), f4(*ls)]);
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 5.6 / 5.7 — main comparison + budget sweep
// ---------------------------------------------------------------------------

fn all_tuners(seed: u64) -> Vec<Box<dyn SeqTuner>> {
    let mut v: Vec<Box<dyn SeqTuner>> =
        vec![Box::new(CitroenTuner { seed, cfg: None })];
    v.extend(baselines(seed));
    v
}

/// Fig. 5.6 + Fig. 5.7: tuner comparison across the suites, reported at
/// budget checkpoints (the full-budget column is Fig. 5.6; the sweep across
/// checkpoints is Fig. 5.7).
pub fn fig5_6_7(cfg: &ExpCfg) {
    let checkpoints: Vec<usize> =
        vec![cfg.budget / 4, cfg.budget / 2, (3 * cfg.budget) / 4, cfg.budget]
            .into_iter()
            .filter(|c| *c > 0)
            .collect();
    let mut headers = vec!["platform".to_string(), "benchmark".to_string(), "tuner".to_string()];
    for c in &checkpoints {
        headers.push(format!("speedup@{c}"));
    }
    headers.push("sd@final".into());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rep = Report::new("fig5_6_7_tuner_comparison", &hdr_refs);

    let names: Vec<&str> = {
        let mut v = cbench_names();
        v.extend(spec_names());
        if let Some(filter) = &cfg.benchmarks {
            for want in filter {
                assert!(v.contains(&want.as_str()), "--benchmarks: unknown benchmark '{want}'");
            }
            v.retain(|n| filter.iter().any(|w| w == n));
        }
        v
    };
    let tuner_names: Vec<&'static str> =
        all_tuners(0).iter().map(|t| t.name()).collect();

    for platform in platforms(cfg) {
        // Flatten (benchmark × seed × tuner) into independent jobs. Each
        // job reports its convergence curve plus the task's budget
        // accounting (measurements, compilations) for live progress lines.
        let ntuners = tuner_names.len();
        let jobs: Vec<(usize, u64, usize)> = names
            .iter()
            .enumerate()
            .flat_map(|(bi, _)| {
                (0..cfg.reps)
                    .flat_map(move |seed| (0..ntuners).map(move |ti| (bi, seed, ti)))
            })
            .collect();
        let run_job = |(bi, seed, ti): (usize, u64, usize)| {
            let tuner = &all_tuners(seed)[ti];
            let mut task = make_task(names[bi], &platform, cfg, seed);
            let trace = tuner.run(&mut task, cfg.budget);
            eprintln!(
                "[fig5_6] {} / {} / seed {} done (best {:.3}x)",
                names[bi],
                tuner.name(),
                seed,
                task.speedup(trace.best())
            );
            let curve: Vec<f64> =
                checkpoints.iter().map(|&c| task.speedup(trace.best_at(c))).collect();
            (((bi, seed, ti), curve), task.measurements, task.compilations)
        };
        let results: Vec<((usize, u64, usize), Vec<f64>)> = match &cfg.trace_dir {
            // Traced mode: one JSONL stream per cell, cells sequential (the
            // telemetry sink is process-global).
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("--trace-dir {}: {e}", dir.display()));
                jobs.into_iter()
                    .map(|job| {
                        let (bi, seed, ti) = job;
                        let cell = cell_name(&platform.model.name, names[bi], tuner_names[ti], seed);
                        let path = dir.join(format!("{cell}.jsonl"));
                        telemetry::install(Box::new(
                            telemetry::StreamSink::create(&path).unwrap_or_else(|e| {
                                panic!("cannot stream to {}: {e}", path.display())
                            }),
                        ));
                        eprintln!("[trace] {cell}: streaming to {}", path.display());
                        let t0 = std::time::Instant::now();
                        let (res, meas, compiles) = run_job(job);
                        drop(telemetry::disable()); // join writer, flush file
                        eprintln!(
                            "[trace] {cell}: best {:.3}x, {meas}/{} budget, \
                             {compiles} compiles, {:.1}s",
                            res.1.last().copied().unwrap_or(f64::NAN),
                            cfg.budget,
                            t0.elapsed().as_secs_f64()
                        );
                        res
                    })
                    .collect()
            }
            None => par_map(jobs, |job| run_job(job).0),
        };
        for (bi, name) in names.iter().enumerate() {
            for (ti, tname) in tuner_names.iter().enumerate() {
                let mut row =
                    vec![platform.model.name.to_string(), name.to_string(), tname.to_string()];
                for (ci, _) in checkpoints.iter().enumerate() {
                    let vals: Vec<f64> = results
                        .iter()
                        .filter(|((b, _, t), _)| *b == bi && *t == ti)
                        .map(|(_, curve)| curve[ci])
                        .collect();
                    row.push(f3(mean(&vals)));
                }
                let finals: Vec<f64> = results
                    .iter()
                    .filter(|((b, _, t), _)| *b == bi && *t == ti)
                    .map(|(_, curve)| curve[checkpoints.len() - 1])
                    .collect();
                row.push(f3(std_dev(&finals)));
                rep.row(row);
            }
        }
        // Suite geomeans at the final checkpoint.
        for (suite, snames) in [("cBench", cbench_names()), ("SPEC", spec_names())] {
            for (ti, tname) in tuner_names.iter().enumerate() {
                let mut finals = Vec::new();
                for name in &snames {
                    // Recompute cheaply from the CSV rows we just built.
                    for r in rep_rows(&rep, &platform.model.name, name, tname) {
                        finals.push(r);
                    }
                }
                let _ = ti;
                if !finals.is_empty() {
                    rep.row(vec![
                        platform.model.name.to_string(),
                        format!("GEOMEAN({suite})"),
                        tname.to_string(),
                        String::new(),
                        String::new(),
                        String::new(),
                        f3(geomean(&finals)),
                        String::new(),
                    ]);
                }
            }
        }
    }
    rep.finish(cfg);
}

/// File-system-safe trace-file stem for one benchmark×tuner×seed cell.
fn cell_name(platform: &str, bench: &str, tuner: &str, seed: u64) -> String {
    format!("{platform}_{bench}_{tuner}_s{seed}")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '-' })
        .collect()
}

// Pull final-checkpoint speedups back out of the report rows (keeps the
// geomean consistent with what was printed).
fn rep_rows(rep: &Report, platform: &str, bench: &str, tuner: &str) -> Vec<f64> {
    rep.rows()
        .iter()
        .filter(|r| r[0] == platform && r[1] == bench && r[2] == tuner)
        .filter_map(|r| r[r.len() - 2].parse::<f64>().ok())
        .collect()
}

// ---------------------------------------------------------------------------
// Fig 5.8 — ablation study
// ---------------------------------------------------------------------------

/// Fig. 5.8: CITROEN vs its ablations (no statistics features, no DES
/// generator, no coverage filter).
pub fn fig5_8(cfg: &ExpCfg) {
    let mut rep =
        Report::new("fig5_8_ablation", &["benchmark", "variant", "speedup", "sd"]);
    let platform = Platform::tx2();
    for name in cbench_subset() {
        for variant in ["full", "no-stats", "no-des", "no-coverage"] {
            let speedups: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                let mut task = make_task(name, &platform, cfg, seed);
                if variant == "no-coverage" {
                    task.charge_cached = true;
                }
                let c = ablation(variant, seed);
                let (trace, _) = run_citroen(&mut task, cfg.budget, &c);
                task.speedup(trace.best())
            });
            rep.row(vec![
                name.to_string(),
                variant.to_string(),
                f3(mean(&speedups)),
                f3(std_dev(&speedups)),
            ]);
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 5.9 / 5.10 — alternative features, LLVM10 registry
// ---------------------------------------------------------------------------

/// Fig. 5.9: compilation statistics vs Autophase features vs raw sequences.
pub fn fig5_9(cfg: &ExpCfg) {
    let mut rep =
        Report::new("fig5_9_feature_comparison", &["benchmark", "features", "speedup", "sd"]);
    let platform = Platform::tx2();
    use citroen_core::FeatureKind::*;
    for name in cbench_subset() {
        for (label, kind) in [
            ("compilation-stats", CompilationStats),
            ("autophase", Autophase),
            ("raw-seq", RawSequence),
        ] {
            let speedups: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                let mut task = make_task(name, &platform, cfg, seed);
                let c = CitroenConfig { features: kind, seed, ..Default::default() };
                let (trace, _) = run_citroen(&mut task, cfg.budget, &c);
                task.speedup(trace.best())
            });
            rep.row(vec![
                name.to_string(),
                label.to_string(),
                f3(mean(&speedups)),
                f3(std_dev(&speedups)),
            ]);
        }
    }
    rep.finish(cfg);
}

/// Fig. 5.10: CITROEN vs Autophase-features BO under the reduced "LLVM 10"
/// pass universe.
pub fn fig5_10(cfg: &ExpCfg) {
    let mut rep =
        Report::new("fig5_10_llvm10", &["benchmark", "tuner", "speedup_vs_O3", "sd"]);
    let platform = Platform::tx2();
    use citroen_core::FeatureKind::*;
    for name in cbench_subset() {
        for (label, kind) in [("citroen", CompilationStats), ("autophase", Autophase)] {
            let speedups: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                let mut task = make_task_with_registry(
                    name,
                    &platform,
                    cfg,
                    seed,
                    Registry::llvm10(),
                );
                let c = CitroenConfig { features: kind, seed, ..Default::default() };
                let (trace, _) = run_citroen(&mut task, cfg.budget, &c);
                task.speedup(trace.best())
            });
            rep.row(vec![
                name.to_string(),
                label.to_string(),
                f3(mean(&speedups)),
                f3(std_dev(&speedups)),
            ]);
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 5.11 — hyperparameter sensitivity
// ---------------------------------------------------------------------------

/// Fig. 5.11: sensitivity to UCB β, candidate-batch size, DES mutation rate
/// and GP refit cadence.
pub fn fig5_11(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig5_11_hyperparams",
        &["benchmark", "knob", "value", "speedup", "sd"],
    );
    let platform = Platform::tx2();
    let knobs: Vec<(&str, Vec<CitroenConfig>)> = vec![
        (
            "beta",
            vec![1.0, 1.96, 4.0]
                .into_iter()
                .map(|b| CitroenConfig { beta: b, ..Default::default() })
                .collect(),
        ),
        (
            "candidates",
            vec![16, 40, 96]
                .into_iter()
                .map(|c| CitroenConfig { candidates: c, ..Default::default() })
                .collect(),
        ),
        (
            "mutation",
            vec![0.05, 0.1, 0.25]
                .into_iter()
                .map(|m| CitroenConfig { mutation_rate: Some(m), ..Default::default() })
                .collect(),
        ),
        (
            "fit_every",
            vec![1, 4, 8]
                .into_iter()
                .map(|k| CitroenConfig { fit_every: k, ..Default::default() })
                .collect(),
        ),
    ];
    for name in ["telecom_gsm", "consumer_jpeg_dct"] {
        for (knob, variants) in &knobs {
            for c0 in variants {
                let value = match *knob {
                    "beta" => c0.beta.to_string(),
                    "candidates" => c0.candidates.to_string(),
                    "mutation" => c0.mutation_rate.unwrap().to_string(),
                    _ => c0.fit_every.to_string(),
                };
                let speedups: Vec<f64> = par_map((0..cfg.reps).collect(), |seed| {
                    let mut task = make_task(name, &platform, cfg, seed);
                    let c = CitroenConfig { seed, ..c0.clone() };
                    let (trace, _) = run_citroen(&mut task, cfg.budget, &c);
                    task.speedup(trace.best())
                });
                rep.row(vec![
                    name.to_string(),
                    knob.to_string(),
                    value,
                    f3(mean(&speedups)),
                    f3(std_dev(&speedups)),
                ]);
            }
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Fig 5.12 — runtime proportions
// ---------------------------------------------------------------------------

/// Fig. 5.12: proportion of tuning wall time spent compiling candidates,
/// profiling binaries, and in the model/acquisition ("algorithmic") code.
pub fn fig5_12(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "fig5_12_time_proportions",
        &["benchmark", "compile_pct", "measure_pct", "model_pct"],
    );
    let platform = Platform::tx2();
    for name in cbench_subset() {
        let mut task = make_task(name, &platform, cfg, 11);
        let c = CitroenConfig { seed: 11, ..Default::default() };
        let _ = run_citroen(&mut task, cfg.budget, &c);
        let total = (task.times.compile + task.times.measure + task.times.model)
            .as_secs_f64()
            .max(1e-12);
        rep.row(vec![
            name.to_string(),
            f3(task.times.compile.as_secs_f64() / total * 100.0),
            f3(task.times.measure.as_secs_f64() / total * 100.0),
            f3(task.times.model.as_secs_f64() / total * 100.0),
        ]);
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Batched tuning — the Fig 5.12 story under q > 1
// ---------------------------------------------------------------------------

/// Batch-size ablation: wall time, best speedup and the Fig 5.12 time
/// proportions as the per-iteration batch size q grows. q=1 refits the
/// model before every pick (the paper's sequential loop); q>1 selects with greedy qUCB and runs the compile and
/// measurement sweeps on the `rt::par` worker pool, overlapping the GP fit
/// with the measurements. Quality (best-found speedup) should hold roughly
/// flat while wall time drops — compile time amortises over the batch even
/// on one core, and parallelises across cores.
pub fn batch_sweep(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "batch_sweep",
        &["benchmark", "q", "speedup", "sd", "wall_ms", "compile_pct", "measure_pct", "model_pct"],
    );
    let platform = Platform::tx2();
    for name in cbench_subset() {
        for q in [1usize, 2, 4, 8] {
            // Seeds run sequentially: the inner loop already owns the worker
            // pool when q>1, and the wall-clock column must not be polluted
            // by sibling seeds competing for cores.
            let mut speedups = Vec::new();
            let mut walls = Vec::new();
            let mut props = (0.0f64, 0.0f64, 0.0f64);
            for seed in 0..cfg.reps {
                let mut task = make_task(name, &platform, cfg, seed);
                let c = CitroenConfig { batch: q, seed, ..Default::default() };
                let t0 = std::time::Instant::now();
                let (trace, _) = run_citroen(&mut task, cfg.budget, &c);
                walls.push(t0.elapsed().as_secs_f64() * 1e3);
                speedups.push(task.speedup(trace.best()));
                let total = (task.times.compile + task.times.measure + task.times.model)
                    .as_secs_f64()
                    .max(1e-12);
                props.0 += task.times.compile.as_secs_f64() / total * 100.0;
                props.1 += task.times.measure.as_secs_f64() / total * 100.0;
                props.2 += task.times.model.as_secs_f64() / total * 100.0;
            }
            let n = cfg.reps.max(1) as f64;
            rep.row(vec![
                name.to_string(),
                q.to_string(),
                f3(mean(&speedups)),
                f3(std_dev(&speedups)),
                f3(mean(&walls)),
                f3(props.0 / n),
                f3(props.1 / n),
                f3(props.2 / n),
            ]);
        }
    }
    rep.finish(cfg);
}

// ---------------------------------------------------------------------------
// Adaptive multi-module allocation
// ---------------------------------------------------------------------------

/// Thesis contribution 3: adaptive vs round-robin vs uniform budget
/// allocation on the SPEC-like multi-module programs, reporting speedup at
/// checkpoints, the convergence-speed ratio, and the budget measurements
/// each run spent. `speedup@1/2` and `meas_to_95pct` index trace steps,
/// which include repeat binaries the session had already charged.
pub fn adaptive_multimodule(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "adaptive_multimodule",
        &["benchmark", "policy", "speedup@1/2", "speedup@full", "meas_to_95pct", "measurements"],
    );
    let platform = Platform::tx2();
    for name in spec_names() {
        for (label, policy) in [
            ("adaptive", Allocation::Adaptive),
            ("round-robin", Allocation::RoundRobin),
            ("uniform", Allocation::Uniform),
        ] {
            let rows: Vec<(f64, f64, usize, usize)> = par_map((0..cfg.reps).collect(), |seed| {
                let mut task = make_task(name, &platform, cfg, seed);
                if task.hot_modules.len() < 2 {
                    // Ensure the allocation question exists.
                    let extra = (0..task.benchmark().modules.len())
                        .find(|i| !task.hot_modules.contains(i))
                        .unwrap();
                    task.hot_modules.push(extra);
                }
                // The settings this study has always run at.
                let mut c = CitroenConfig {
                    allocation: Some(policy),
                    candidates: 16,
                    init_random: 6,
                    seed,
                    ..Default::default()
                };
                c.gp.fit_iters = 20;
                let (trace, _) = run_citroen(&mut task, cfg.budget, &c);
                let half = task.speedup(trace.best_at(cfg.budget / 2));
                let full = task.speedup(trace.best());
                // trace steps to reach 95% of the final improvement
                let target = task.o3_seconds - 0.95 * (task.o3_seconds - trace.best());
                let reach = trace
                    .best_history
                    .iter()
                    .position(|b| *b <= target)
                    .map(|i| i + 1)
                    .unwrap_or(trace.best_history.len());
                (half, full, reach, task.measurements)
            });
            rep.row(vec![
                name.to_string(),
                label.to_string(),
                f3(mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>())),
                f3(mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>())),
                f3(mean(&rows.iter().map(|r| r.2 as f64).collect::<Vec<_>>())),
                f3(mean(&rows.iter().map(|r| r.3 as f64).collect::<Vec<_>>())),
            ]);
        }
    }
    rep.finish(cfg);
}

/// Extension (thesis §6.3.2 future work): transfer the best sequence found
/// on one program as the DES warm start for another. Reports cold vs warm
/// convergence on every cBench benchmark, with `telecom_gsm` as the donor.
pub fn transfer(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "transfer_warm_start",
        &["benchmark", "mode", "speedup@1/3", "speedup@full"],
    );
    let platform = Platform::tx2();
    // Donor: tune gsm once.
    let mut donor = make_task("telecom_gsm", &platform, cfg, 99);
    let (donor_trace, _) =
        run_citroen(&mut donor, cfg.budget, &CitroenConfig { seed: 99, ..Default::default() });
    let donor_seq = donor_trace.best_seqs[0].clone();
    println!(
        "donor sequence ({}): {}",
        donor.benchmark().name,
        donor.registry.seq_to_string(&donor_seq)
    );
    for name in cbench_names() {
        if name == "telecom_gsm" {
            continue;
        }
        for (mode, warm) in [("cold", None), ("warm", Some(donor_seq.clone()))] {
            let rows: Vec<(f64, f64)> = par_map((0..cfg.reps).collect(), |seed| {
                let mut task = make_task(name, &platform, cfg, seed);
                let c = CitroenConfig {
                    seed,
                    warm_start: warm.clone(),
                    ..Default::default()
                };
                let (tr, _) = run_citroen(&mut task, cfg.budget, &c);
                (
                    task.speedup(tr.best_at(cfg.budget / 3)),
                    task.speedup(tr.best()),
                )
            });
            rep.row(vec![
                name.to_string(),
                mode.to_string(),
                f3(mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>())),
                f3(mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>())),
            ]);
        }
    }
    rep.finish(cfg);
}

/// Sanity experiment: the `-O3` pipeline vs `-O1` vs nothing, per benchmark
/// (not a paper figure; documents the headroom the tuners are exploring).
pub fn headroom(cfg: &ExpCfg) {
    let mut rep = Report::new(
        "headroom",
        &["benchmark", "O0_ms", "O1_speedup", "O3_speedup"],
    );
    let platform = Platform::tx2();
    for b in citroen_suite::all_benchmarks() {
        let reg = Registry::full();
        let pm = PassManager::new(&reg);
        let name = b.name;
        let linked0 = b.link();
        let entry = b.entry_in(&linked0);
        let e0 = platform.execute(&linked0, entry, &b.args).unwrap();
        let o1: Vec<_> =
            b.modules.iter().map(|m| pm.compile(m, &citroen_passes::o1_pipeline(&reg)).module).collect();
        let l1 = b.link_with(Some(&o1));
        let e1 = platform.execute(&l1, b.entry_in(&l1), &b.args).unwrap();
        let o3: Vec<_> = b.modules.iter().map(|m| pm.compile(m, &o3_pipeline(&reg)).module).collect();
        let l3 = b.link_with(Some(&o3));
        let e3 = platform.execute(&l3, b.entry_in(&l3), &b.args).unwrap();
        rep.row(vec![
            name.to_string(),
            f3(e0.seconds * 1e3),
            f3(e0.seconds / e1.seconds),
            f3(e0.seconds / e3.seconds),
        ]);
    }
    rep.finish(cfg);
}
