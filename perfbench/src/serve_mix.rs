//! The `serve_mix` workload: the shipped `citroen-serve` daemon over stdio,
//! driven by one closed-loop client with a fixed number of outstanding jobs.

use crate::layers;
use crate::report::{geomean, median, peak_rss_mb, quantile, Outcome};
use citroen_core::{run_citroen, trace_digest};
use citroen_rt::json::Value;
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_serve::{job_citroen_config, job_task, JobSpec};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Six cBench-like programs, each with a short tuning job (0.09-0.21 s).
const PROGRAMS: [&str; 6] = [
    "telecom_gsm",
    "telecom_crc32",
    "automotive_bitcount",
    "security_sha",
    "network_dijkstra",
    "consumer_jpeg_dct",
];
const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const BUDGET: usize = 16;
const SEQ_LEN: usize = 16;
/// Jobs the client keeps in flight (closed loop).
const OUTSTANDING: usize = 4;
/// Jobs per lap: every program twice. Odd laps replay the lap before.
const LAP: usize = 12;
/// The client polls the `metrics` verb after every this many results.
const METRICS_EVERY: usize = 10;
/// Daemon spawns timed for `setup_s` besides the measured one.
const SETUP_SPAWNS: usize = 40;
/// Longest wait for any single reply before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The job mix: `n` jobs generated from `seed`.
pub fn mix(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut lap = 0;
    while jobs.len() < n {
        let mut next: Vec<JobSpec> = if lap % 2 == 0 {
            let mut programs: Vec<&str> = PROGRAMS.iter().chain(PROGRAMS.iter()).copied().collect();
            rng.shuffle(&mut programs);
            programs
                .into_iter()
                .enumerate()
                .map(|(k, bench)| JobSpec {
                    id: String::new(),
                    bench: bench.to_string(),
                    tenant: TENANTS[rng.gen_range(0..TENANTS.len())].to_string(),
                    budget: BUDGET,
                    seed: rng.gen_range(1..1_000_000u64),
                    seq_len: SEQ_LEN,
                    batch: if k == 5 { 4 } else { 1 },
                    oracle_prune: k == 9,
                    subsume: k == 9,
                    warm: if (jobs.len() + k) % 5 == 4 { 2 } else { 0 },
                    timeout_ms: 0,
                })
                .collect()
        } else {
            // Replay the previous lap under the next tenant, reordered.
            let mut replay: Vec<JobSpec> = jobs[jobs.len() - LAP..].to_vec();
            rng.shuffle(&mut replay);
            for j in &mut replay {
                let t = TENANTS.iter().position(|t| *t == j.tenant).unwrap_or(0);
                j.tenant = TENANTS[(t + 1) % TENANTS.len()].to_string();
            }
            replay
        };
        for j in &mut next {
            j.id = format!("j{}", jobs.len());
            jobs.push(j.clone());
        }
        lap += 1;
    }
    jobs.truncate(n);
    jobs
}

fn submit_line(j: &JobSpec) -> String {
    format!(
        r#"{{"type":"submit","job":{{"id":"{}","bench":"{}","tenant":"{}","budget":{},"seed":{},"seq_len":{},"batch":{},"oracle_prune":{},"subsume":{},"warm":{}}}}}"#,
        j.id,
        j.bench,
        j.tenant,
        j.budget,
        j.seed,
        j.seq_len,
        j.batch,
        j.oracle_prune as u8,
        j.subsume as u8,
        j.warm
    )
}

/// Key of a spec's standalone result: everything but the id and tenant
/// (budget and `seq_len` are the same for every job).
type SpecKey = (String, u64, usize, bool, bool);

fn key(j: &JobSpec) -> SpecKey {
    (j.bench.clone(), j.seed, j.batch, j.oracle_prune, j.subsume)
}

/// Standalone result of one cold spec: digest, speedup bits, feature width.
#[derive(Clone, Copy)]
struct Reference {
    digest: u64,
    speedup_bits: u64,
    width: usize,
}

/// Standalone `run_citroen` results for every distinct cold spec, on two
/// threads, before anything is timed.
fn references(jobs: &[JobSpec]) -> HashMap<SpecKey, Reference> {
    let mut todo: Vec<&JobSpec> = Vec::new();
    for j in jobs.iter().filter(|j| j.warm == 0) {
        if !todo.iter().any(|t| key(t) == key(j)) {
            todo.push(j);
        }
    }
    let one = |j: &JobSpec| {
        let mut task = job_task(j).expect("mix names only suite programs");
        let (trace, report) = run_citroen(&mut task, j.budget, &job_citroen_config(j));
        let speedup = task.o3_seconds / trace.best();
        let r = Reference {
            digest: trace_digest(&trace),
            speedup_bits: speedup.to_bits(),
            width: report.ranked.len(),
        };
        (key(j), r)
    };
    std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                let todo = &todo;
                s.spawn(move || {
                    todo.iter()
                        .skip(h)
                        .step_by(2)
                        .map(|j| one(j))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// A running daemon: its stdin, and its replies stamped on arrival by a
/// reader thread.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    replies: Receiver<(Instant, Value)>,
    reader: Option<std::thread::JoinHandle<()>>,
    spawned: Instant,
}

impl Daemon {
    fn spawn(bin: &Path, trace_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--max-concurrent", "2"]);
        if let Some(dir) = trace_dir {
            cmd.arg("--trace-dir").arg(dir);
        }
        let spawned = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, replies) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                match Value::parse(&line) {
                    Ok(v) => {
                        if tx.send((at, v)).is_err() {
                            break;
                        }
                    }
                    Err(e) => eprintln!("perfbench: unparseable daemon reply ({e}): {line}"),
                }
            }
        });
        let stdin = child.stdin.take();
        Ok(Daemon {
            child,
            stdin,
            replies,
            reader: Some(reader),
            spawned,
        })
    }

    fn send(&mut self, line: &str) -> Result<Instant, String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        let at = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|_| stdin.write_all(b"\n"))
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("write to daemon: {e}"))?;
        Ok(at)
    }

    fn recv(&self) -> Result<(Instant, Value), String> {
        self.replies
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => "daemon reply timed out".to_string(),
                RecvTimeoutError::Disconnected => "daemon closed its output".to_string(),
            })
    }

    /// Next reply of type `ty`, skipping others.
    fn recv_type(&self, ty: &str) -> Result<(Instant, Value), String> {
        loop {
            let (at, v) = self.recv()?;
            if v.get("type").and_then(Value::as_str) == Some(ty) {
                return Ok((at, v));
            }
        }
    }

    /// Time from spawn to the daemon's first reply (to a `stats` request).
    fn first_reply_s(&mut self) -> Result<f64, String> {
        self.send(r#"{"type":"stats"}"#)?;
        let (at, _) = self.recv_type("stats")?;
        Ok(at.duration_since(self.spawned).as_secs_f64())
    }

    /// Graceful shutdown: `shutdown`, wait for `bye`, reap the process.
    fn shutdown(mut self) -> Result<(), String> {
        self.send(r#"{"type":"shutdown"}"#)?;
        self.recv_type("bye")?;
        self.stdin.take();
        self.child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stdin.take();
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Client-side timings of one job.
#[derive(Default, Clone, Copy)]
struct Track {
    submit: Option<Instant>,
    ack: Option<Instant>,
    running: Option<Instant>,
    done: Option<Instant>,
}

fn ms(a: Option<Instant>, b: Option<Instant>) -> Option<f64> {
    Some(b?.duration_since(a?).as_secs_f64() * 1e3)
}

/// What one pass of the mix through one daemon produced.
struct MixRun {
    wall_s: f64,
    first_reply_s: f64,
    latencies_ms: Vec<f64>,
    queue_waits_ms: Vec<f64>,
    run_walls_ms: Vec<f64>,
    acks_us: Vec<f64>,
    metrics_ms: Vec<f64>,
    peak_rss_mb: f64,
    stats: Value,
    results: HashMap<String, Value>,
    errors: Vec<String>,
}

fn drive(bin: &Path, jobs: &[JobSpec], trace_dir: Option<&Path>) -> Result<MixRun, String> {
    let mut d = Daemon::spawn(bin, trace_dir)?;
    let first_reply_s = d.first_reply_s()?;
    let pid = d.child.id().to_string();
    let mut tracks: HashMap<String, Track> = HashMap::new();
    let mut results: HashMap<String, Value> = HashMap::new();
    let mut errors = Vec::new();
    let mut metrics_sent: VecDeque<Instant> = VecDeque::new();
    let mut metrics_ms = Vec::new();
    let (mut next, mut finished) = (0usize, 0usize);
    let start = Instant::now();
    let mut end = start;
    while finished < jobs.len() {
        while next < jobs.len() && next - finished < OUTSTANDING {
            let at = d.send(&submit_line(&jobs[next]))?;
            tracks.insert(
                jobs[next].id.clone(),
                Track {
                    submit: Some(at),
                    ..Track::default()
                },
            );
            next += 1;
        }
        let (at, v) = d.recv()?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        match v.get("type").and_then(Value::as_str).unwrap_or("") {
            "ack" => {
                if let Some(t) = tracks.get_mut(&id) {
                    t.ack.get_or_insert(at);
                }
            }
            "job" if v.get("state").and_then(Value::as_str) == Some("running") => {
                if let Some(t) = tracks.get_mut(&id) {
                    t.running = Some(at);
                }
            }
            "result" => {
                if let Some(t) = tracks.get_mut(&id) {
                    t.done = Some(at);
                }
                results.insert(id, v);
                finished += 1;
                end = at;
                if finished % METRICS_EVERY == 0 {
                    metrics_sent.push_back(d.send(r#"{"type":"metrics"}"#)?);
                }
            }
            "metrics" => {
                if let Some(sent) = metrics_sent.pop_front() {
                    metrics_ms.push(at.duration_since(sent).as_secs_f64() * 1e3);
                }
            }
            "error" => {
                errors.push(format!("daemon error for '{id}': {}", v.emit_compact()));
                if tracks.contains_key(&id) && !results.contains_key(&id) {
                    finished += 1;
                }
            }
            "job" => {
                // Any other state change here is terminal without a result.
                errors.push(format!(
                    "job '{id}' ended without a result: {}",
                    v.emit_compact()
                ));
                finished += 1;
            }
            _ => {}
        }
    }
    d.send(r#"{"type":"stats"}"#)?;
    let (_, stats) = d.recv_type("stats")?;
    let peak = peak_rss_mb(&pid).unwrap_or(0.0);
    d.shutdown()?;

    let all: Vec<&Track> = jobs.iter().filter_map(|j| tracks.get(&j.id)).collect();
    Ok(MixRun {
        wall_s: end.duration_since(start).as_secs_f64(),
        first_reply_s,
        latencies_ms: all.iter().filter_map(|t| ms(t.submit, t.done)).collect(),
        queue_waits_ms: all.iter().filter_map(|t| ms(t.ack, t.running)).collect(),
        run_walls_ms: all.iter().filter_map(|t| ms(t.running, t.done)).collect(),
        acks_us: all
            .iter()
            .filter_map(|t| ms(t.submit, t.ack))
            .map(|m| m * 1e3)
            .collect(),
        metrics_ms,
        peak_rss_mb: peak,
        stats,
        results,
        errors,
    })
}

fn u64_at(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Check every result; return the cold jobs' speedups.
fn check(
    jobs: &[JobSpec],
    run: &MixRun,
    refs: &HashMap<SpecKey, Reference>,
    out: &mut Outcome,
) -> Vec<f64> {
    out.attempted += jobs.len() as u64;
    for e in &run.errors {
        out.fail(e.clone());
    }
    let mut speedups = Vec::new();
    for j in jobs {
        let Some(r) = run.results.get(&j.id) else {
            if !run
                .errors
                .iter()
                .any(|e| e.contains(&format!("'{}'", j.id)))
            {
                out.fail(format!("job '{}' has no result", j.id));
            }
            continue;
        };
        let state = r.get("state").and_then(Value::as_str).unwrap_or("");
        let exit = r.get("exit").and_then(Value::as_str).unwrap_or("");
        if state != "done" || exit != "completed" {
            out.fail(format!("job '{}' ended {state}/{exit}", j.id));
            continue;
        }
        if j.warm > 0 {
            continue;
        }
        let (digest, bits) = (u64_at(r, &["digest"]), u64_at(r, &["speedup_bits"]));
        match refs.get(&key(j)) {
            Some(want) if want.digest == digest && want.speedup_bits == bits => {
                speedups.push(f64::from_bits(bits));
            }
            Some(want) => out.fail(format!(
                "job '{}' ({} seed {}): digest {digest:#x} speedup bits {bits:#x}, standalone {:#x} / {:#x}",
                j.id, j.bench, j.seed, want.digest, want.speedup_bits
            )),
            None => out.fail(format!("job '{}': no standalone reference", j.id)),
        }
    }
    speedups
}

fn mix_counts(jobs: &[JobSpec], run: &MixRun, out: &mut Outcome) {
    let sum = |k: &str| run.results.values().map(|r| u64_at(r, &[k])).sum::<u64>();
    out.count("jobs", jobs.len() as u64);
    out.count(
        "warm_jobs",
        jobs.iter().filter(|j| j.warm > 0).count() as u64,
    );
    out.count("compiles", sum("compiles"));
    out.count("measurements", sum("measurements"));
    out.count("warm_seeds", sum("warm_seeds"));
    for k in ["hits", "cross_hits", "misses", "insertions", "evictions"] {
        out.count(&format!("cache_{k}"), u64_at(&run.stats, &["cache", k]));
    }
    out.count("corpus", u64_at(&run.stats, &["corpus"]));
}

/// Jobs in a run of `seconds`: twelve per second of requested time, which
/// keeps a 2-core host busy for about three quarters of it.
fn job_count(seconds: f64) -> usize {
    ((seconds * 12.0).round() as usize).max(LAP)
}

pub fn run(
    bin: &Path,
    scratch: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = mix(seed, job_count(seconds));
    let refs = references(&jobs);

    if !trace {
        // Set-up: spawn-to-first-reply, over several throwaway daemons and
        // the measured one.
        let mut setups = Vec::new();
        for _ in 0..SETUP_SPAWNS {
            let mut d = Daemon::spawn(bin, None)?;
            setups.push(d.first_reply_s()?);
            d.shutdown()?;
        }
        let r = drive(bin, &jobs, None)?;
        setups.push(r.first_reply_s);
        let speedups = check(&jobs, &r, &refs, &mut out);
        mix_counts(&jobs, &r, &mut out);
        out.metric("setup_s", median(&setups), "s");
        out.metric("tune_wall_s", r.wall_s, "s");
        out.metric("best_speedup_geomean", geomean(&speedups), "x");
        out.metric("jobs_per_s", r.results.len() as f64 / r.wall_s, "1/s");
        out.metric("job_latency_p50_ms", median(&r.latencies_ms), "ms");
        out.metric("job_latency_p90_ms", quantile(&r.latencies_ms, 0.9), "ms");
        out.metric("queue_wait_p90_ms", quantile(&r.queue_waits_ms, 0.9), "ms");
        out.metric("peak_rss_mb", r.peak_rss_mb, "MB");
        return Ok(out);
    }

    // Traced: the mix untraced (client-side serve numbers, overhead base),
    // then again with per-job JSONL streams for the span layers.
    let plain = drive(bin, &jobs, None)?;
    check(&jobs, &plain, &refs, &mut out);
    let dir = scratch.join(format!("serve-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let traced = drive(bin, &jobs, Some(&dir));
    let merged = traced
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|_| read_traces(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    let traced = traced?;
    let (t, records) = merged?;
    check(&jobs, &traced, &refs, &mut out);
    mix_counts(&jobs, &traced, &mut out);

    let candidates = job_citroen_config(&jobs[0]).candidates as u64;
    let coverage = layers::from_trace(&t, candidates, &mut out);
    if coverage < 0.9 {
        out.fail(format!(
            "layer self-times cover {coverage:.3} of busy time (< 0.9)"
        ));
    }
    out.metric("telemetry.records", records as f64, "count");
    out.metric(
        "telemetry.trace_overhead_ratio",
        traced.wall_s / plain.wall_s,
        "ratio",
    );
    let programs: Vec<_> = citroen_suite::cbench()
        .into_iter()
        .filter(|b| PROGRAMS.contains(&b.name))
        .collect();
    layers::ir_probes(&programs, &mut out);
    layers::gp_probes(refs.values().map(|r| r.width).max().unwrap_or(1), &mut out);
    layers::telemetry_probes(&mut out);

    let stats = &plain.stats;
    out.metric("serve.submit_ack_us", median(&plain.acks_us), "us");
    out.metric("serve.run_wall_ms_p50", median(&plain.run_walls_ms), "ms");
    out.metric("serve.metrics_verb_ms", median(&plain.metrics_ms), "ms");
    let hit_ratio = f64::from_bits(u64_at(stats, &["cache", "hit_ratio_bits"]));
    out.metric("serve.cache_hit_ratio", hit_ratio, "ratio");
    out.metric(
        "serve.cache_cross_hits",
        u64_at(stats, &["cache", "cross_hits"]) as f64,
        "count",
    );
    out.metric(
        "serve.cache_evictions",
        u64_at(stats, &["cache", "evictions"]) as f64,
        "count",
    );
    let compiles: u64 = plain
        .results
        .values()
        .map(|r| u64_at(r, &["compiles"]))
        .sum();
    out.metric("serve.compiles", compiles as f64, "count");
    out.metric(
        "serve.corpus_len",
        u64_at(stats, &["corpus"]) as f64,
        "count",
    );
    Ok(out)
}

/// Merge every per-job JSONL stream in `dir` into one trace; also return
/// the number of records (lines) they hold.
fn read_traces(dir: &Path) -> Result<(citroen_telemetry::Trace, u64), String> {
    let mut all = citroen_telemetry::Trace::new();
    let mut records = 0u64;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        records += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        let t = citroen_telemetry::Trace::parse_jsonl(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        all.spans.extend(t.spans);
        all.events.extend(t.events);
        for (k, v) in t.counters {
            *all.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in t.hists {
            all.hists.entry(k).or_default().merge(&h);
        }
    }
    Ok((all, records))
}

/// The serve layer's metrics on a workload that never starts the daemon.
pub fn absent_serve_layers(out: &mut Outcome) {
    for (name, unit) in [
        ("serve.submit_ack_us", "us"),
        ("serve.run_wall_ms_p50", "ms"),
        ("serve.metrics_verb_ms", "ms"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.cache_cross_hits", "count"),
        ("serve.cache_evictions", "count"),
        ("serve.compiles", "count"),
        ("serve.corpus_len", "count"),
    ] {
        out.metric(name, 0.0, unit);
    }
}
