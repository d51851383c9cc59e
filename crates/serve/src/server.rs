//! The daemon: job lifecycle, session threads, and the serve loop.
//!
//! One [`Server`] owns the shared state; [`Server::serve`] reads
//! newline-delimited JSON requests from any `BufRead`, runs accepted jobs on
//! `max_concurrent` session threads, and writes replies (one JSON object per
//! line) to the output. EOF or a `shutdown` request starts a graceful drain:
//! no new jobs are accepted, queued and running jobs finish (cancel still
//! works), and a final `bye` reply is emitted.
//!
//! Determinism: a session's trajectory is a function of its own
//! `(spec, seed)` only. The shared compile cache returns bit-identical
//! results to a local compile, the shared pool affects scheduling but not
//! admission order (strictly-ordered within a session), and session RNGs are
//! private — so a cold job's `result.digest` equals the standalone
//! [`citroen_core::run_citroen`] digest at the same seed, regardless of what
//! other tenants run concurrently. Warm (`warm > 0`) jobs additionally
//! depend on the corpus contents at their start, i.e. on completion order.

use crate::metrics::{JobSummary, ServeMetrics, SloConfig};
use crate::protocol::{self as proto, codes, JobOutcome, JobSpec, JobState, ProtoError, Request};
use crate::state::{ServeConfig, ServeState};
use crate::telemetry_route::{RoutingSink, SessionTable};
use citroen_bo::transfer::{warm_seeds, TransferEntry};
use citroen_core::{
    run_citroen_session, trace_digest, CitroenConfig, SessionCtl, SessionEnv, SessionExit,
    SessionResult, Task, TaskConfig,
};
use citroen_passes::{PassId, Registry};
use citroen_sim::Platform;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Terminal tallies for one serve loop, returned by [`Server::serve`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs finished with a result.
    pub done: u64,
    /// Jobs that panicked or errored.
    pub failed: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Requests rejected with an `error` reply.
    pub rejected: u64,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    ctl: SessionCtl,
    queued_at: Instant,
}

#[derive(Default)]
struct QueueState {
    q: VecDeque<String>,
    open: bool,
}

/// The daemon. Create once; [`Server::serve`] may be called for successive
/// connections — the shared cache and transfer corpus persist across them.
pub struct Server {
    state: ServeState,
    jobs: Mutex<HashMap<String, JobEntry>>,
    queue: Mutex<QueueState>,
    cv: Condvar,
    next_tenant: AtomicU64,
    sessions: SessionTable,
    metrics: Arc<ServeMetrics>,
    started: Instant,
}

/// The session configuration a job spec maps to. Public so the bench client
/// and the determinism gates can rerun the *exact* standalone equivalent.
pub fn job_citroen_config(spec: &JobSpec) -> CitroenConfig {
    CitroenConfig {
        candidates: 24,
        init_random: 6,
        oracle_prune: spec.oracle_prune,
        subsume_collapse: spec.subsume,
        batch: spec.batch.max(1),
        seed: spec.seed,
        ..Default::default()
    }
}

/// Build the tuning task a job spec describes.
pub fn job_task(spec: &JobSpec) -> Option<Task> {
    let bench = citroen_suite::all_benchmarks().into_iter().find(|b| b.name == spec.bench)?;
    Some(Task::new(
        bench,
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: spec.seq_len, seed: spec.seed, ..Default::default() },
    ))
}

impl Server {
    /// Build a daemon over fresh shared state.
    ///
    /// **Process-global side effect**: this may install a routing telemetry
    /// sink (and enable telemetry) for the whole process.
    ///
    /// - `cfg.trace_dir` set: always installs, replacing any previously
    ///   installed sink — the operator explicitly asked for per-job trace
    ///   streams (the last server constructed wins, as in PR 9).
    /// - otherwise: installs **only when no telemetry sink is currently
    ///   installed**, so an embedder's or test's own sink (e.g.
    ///   `MemorySink`) is never silently rerouted. The cost of skipping:
    ///   this server's span-latency histograms stay empty; job lifecycle
    ///   metrics (submitted/done/queue wait/run wall/cache) still work, as
    ///   they bypass the sink.
    pub fn new(cfg: ServeConfig) -> Server {
        if let Some(dir) = cfg.trace_dir.as_deref() {
            let _ = std::fs::create_dir_all(dir);
        }
        let sessions = SessionTable::default();
        let metrics = ServeMetrics::new(SloConfig {
            queue_ms: cfg.slo_queue_ms,
            run_ms: cfg.slo_run_ms,
            compile_us: cfg.slo_compile_us,
            hit_ratio_min: cfg.slo_hit_ratio,
            ..SloConfig::default()
        });
        let sink = Box::new(RoutingSink::new(sessions.clone(), metrics.clone()));
        if cfg.trace_dir.is_some() {
            citroen_telemetry::install(sink);
        } else {
            // Checked and installed under the sink lock: a server built
            // concurrently with `trace_dir` set keeps its routing.
            citroen_telemetry::install_if_absent(sink);
        }
        Server {
            state: ServeState::new(cfg),
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            next_tenant: AtomicU64::new(1),
            sessions,
            metrics,
            started: Instant::now(),
        }
    }

    /// Shared-state handle (for gates inspecting cache counters).
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// The observability hub.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Serve one connection: read requests until EOF or `shutdown`, drain,
    /// emit `bye`, and return the tallies.
    pub fn serve<R: BufRead, W: Write + Send>(&self, input: R, output: W) -> ServeSummary {
        let out = Mutex::new(output);
        let summary = Mutex::new(ServeSummary::default());
        self.queue.lock().unwrap().open = true;

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.state.cfg.max_concurrent.max(1))
                .map(|_| scope.spawn(|| self.worker_loop(&out, &summary)))
                .collect();

            for line in input.lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(_) => break,
                };
                if line.trim().is_empty() {
                    continue;
                }
                match proto::parse_request(&line) {
                    Err(ProtoError { code, msg }) => {
                        summary.lock().unwrap().rejected += 1;
                        send(&out, proto::error_reply(code, &msg, None));
                    }
                    Ok(Request::Submit(spec)) => self.submit(spec, &out, &summary),
                    Ok(Request::Cancel { id }) => self.cancel(&id, &out, &summary),
                    Ok(Request::Status { id }) => self.status(id.as_deref(), &out, &summary),
                    Ok(Request::Stats) => self.stats(&out),
                    Ok(Request::Metrics) => send(&out, self.metrics.reply_json()),
                    Ok(Request::Shutdown) => break,
                }
            }

            // Graceful drain: close the queue, wake idle workers, join.
            self.queue.lock().unwrap().open = false;
            self.cv.notify_all();
            for w in workers {
                let _ = w.join();
            }
        });

        let s = *summary.lock().unwrap();
        send(&out, proto::bye_reply(s.done));
        s
    }

    fn submit(&self, spec: JobSpec, out: &Mutex<impl Write>, summary: &Mutex<ServeSummary>) {
        let reject = |code: &str, msg: &str| {
            summary.lock().unwrap().rejected += 1;
            send(out, proto::error_reply(code, msg, Some(&spec.id)));
        };
        if !proto::valid_job_id(&spec.id) {
            return reject(
                codes::BAD_FIELD,
                &format!(
                    "job id must be 1..={} characters of [A-Za-z0-9._-]",
                    proto::MAX_JOB_ID_LEN
                ),
            );
        }
        if !proto::valid_tenant(&spec.tenant) {
            return reject(
                codes::BAD_FIELD,
                &format!(
                    "tenant must be 1..={} characters of [A-Za-z0-9_-]",
                    proto::MAX_TENANT_LEN
                ),
            );
        }
        if spec.budget == 0 || spec.budget > self.state.cfg.max_budget {
            return reject(
                codes::OVER_BUDGET,
                &format!("budget must be in 1..={}", self.state.cfg.max_budget),
            );
        }
        if spec.seq_len == 0 || spec.seq_len > proto::MAX_SEQ_LEN {
            return reject(
                codes::BAD_FIELD,
                &format!("seq_len must be in 1..={}", proto::MAX_SEQ_LEN),
            );
        }
        if !citroen_suite::all_benchmarks().iter().any(|b| b.name == spec.bench) {
            return reject(codes::UNKNOWN_BENCH, &format!("no benchmark '{}'", spec.bench));
        }
        {
            let mut jobs = self.jobs.lock().unwrap();
            if jobs.contains_key(&spec.id) {
                drop(jobs);
                return reject(codes::DUPLICATE_ID, "job id already used");
            }
            let mut queue = self.queue.lock().unwrap();
            if !queue.open {
                drop(queue);
                drop(jobs);
                return reject(codes::SHUTTING_DOWN, "daemon is draining");
            }
            let tenant = self.next_tenant.fetch_add(1, Ordering::Relaxed);
            jobs.insert(
                spec.id.clone(),
                JobEntry {
                    spec: spec.clone(),
                    state: JobState::Queued,
                    ctl: SessionCtl::new(tenant),
                    queued_at: Instant::now(),
                },
            );
            queue.q.push_back(spec.id.clone());
        }
        self.metrics.job_queued(&spec.tenant);
        self.cv.notify_one();
        summary.lock().unwrap().submitted += 1;
        send(out, proto::ack_reply(&spec.id, JobState::Queued.as_str()));
    }

    fn cancel(&self, id: &str, out: &Mutex<impl Write>, summary: &Mutex<ServeSummary>) {
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.get_mut(id) {
            None => {
                summary.lock().unwrap().rejected += 1;
                send(out, proto::error_reply(codes::UNKNOWN_JOB, "no such job", Some(id)));
            }
            Some(entry) => match entry.state {
                JobState::Queued => {
                    // The worker skips it on dequeue; report terminal now.
                    // No session ever starts, so the metrics plane must
                    // count the terminal state here to balance
                    // `jobs.submitted`.
                    entry.state = JobState::Cancelled;
                    self.metrics.job_cancelled_queued(&entry.spec.tenant);
                    summary.lock().unwrap().cancelled += 1;
                    send(out, proto::job_reply(id, JobState::Cancelled));
                }
                JobState::Running => {
                    // The session observes the flag at its next iteration
                    // boundary and emits the terminal `result` itself.
                    entry.ctl.cancel();
                    send(out, proto::ack_reply(id, "cancelling"));
                }
                terminal => send(out, proto::job_reply(id, terminal)),
            },
        }
    }

    fn status(&self, id: Option<&str>, out: &Mutex<impl Write>, summary: &Mutex<ServeSummary>) {
        let jobs = self.jobs.lock().unwrap();
        match id {
            Some(id) => match jobs.get(id) {
                Some(e) => send(out, proto::job_reply(id, e.state)),
                None => {
                    summary.lock().unwrap().rejected += 1;
                    send(out, proto::error_reply(codes::UNKNOWN_JOB, "no such job", Some(id)));
                }
            },
            None => {
                let mut ids: Vec<&String> = jobs.keys().collect();
                ids.sort();
                for id in ids {
                    send(out, proto::job_reply(id, jobs[id].state));
                }
                let uptime = self.started.elapsed().as_millis() as u64;
                send(out, proto::daemon_reply(uptime, self.metrics.health_str()));
            }
        }
    }

    fn stats(&self, out: &Mutex<impl Write>) {
        let cache = self.state.cache.stats();
        let mut counts: Vec<(JobState, u64)> = [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ]
        .into_iter()
        .map(|s| (s, 0u64))
        .collect();
        for e in self.jobs.lock().unwrap().values() {
            if let Some(c) = counts.iter_mut().find(|(s, _)| *s == e.state) {
                c.1 += 1;
            }
        }
        let corpus = self.state.corpus.lock().unwrap().len() as u64;
        let uptime = self.started.elapsed().as_millis() as u64;
        send(out, proto::stats_reply(&cache, &counts, corpus, uptime, self.metrics.health_str()));
    }

    fn worker_loop(&self, out: &Mutex<impl Write>, summary: &Mutex<ServeSummary>) {
        loop {
            let id = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(id) = queue.q.pop_front() {
                        break id;
                    }
                    if !queue.open {
                        return;
                    }
                    queue = self.cv.wait(queue).unwrap();
                }
            };
            self.run_job(&id, out, summary);
        }
    }

    fn run_job(&self, id: &str, out: &Mutex<impl Write>, summary: &Mutex<ServeSummary>) {
        // Claim the job (it may have been cancelled while queued).
        let (spec, ctl, queue_wait) = {
            let mut jobs = self.jobs.lock().unwrap();
            let entry = jobs.get_mut(id).expect("queued job exists");
            if entry.state != JobState::Queued {
                return; // cancelled while queued; already reported terminal
            }
            entry.state = JobState::Running;
            let mut ctl = entry.ctl.clone();
            if entry.spec.timeout_ms > 0 {
                ctl = ctl.with_deadline(
                    Instant::now() + Duration::from_millis(entry.spec.timeout_ms),
                );
            }
            (entry.spec.clone(), ctl, entry.queued_at.elapsed())
        };
        send(out, proto::job_reply(id, JobState::Running));

        // This thread's records belong to the job, and stream to its JSONL
        // file under `--trace-dir`, until it leaves the session table.
        let trace_dir = self.state.cfg.trace_dir.as_deref();
        let stream = trace_dir.map(|dir| Path::new(dir).join(format!("{id}.jsonl")));
        self.sessions.enter(&spec.tenant, stream.as_deref());
        self.metrics.session_started(&spec.tenant, queue_wait.as_millis() as u64);
        let run_start = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| self.execute(&spec, ctl)));
        self.sessions.leave();

        let (state, outcome) = match ran {
            Ok(outcome) => {
                let state = match outcome.exit.as_str() {
                    "completed" => JobState::Done,
                    _ => JobState::Cancelled,
                };
                (state, outcome)
            }
            Err(_) => (
                JobState::Failed,
                JobOutcome { exit: "panicked".to_string(), ..JobOutcome::default() },
            ),
        };
        self.metrics.session_finished(
            JobSummary {
                id: id.to_string(),
                tenant: spec.tenant.clone(),
                bench: spec.bench.clone(),
                exit: outcome.exit.clone(),
                queue_ms: queue_wait.as_millis() as u64,
                run_ms: run_start.elapsed().as_millis() as u64,
                compiles: outcome.compiles,
                measurements: outcome.measurements,
                warm_seeds: outcome.warm_seeds,
            },
            self.state.cache.stats(),
            self.state.corpus.lock().unwrap().len() as u64,
        );
        {
            let mut jobs = self.jobs.lock().unwrap();
            jobs.get_mut(id).expect("running job exists").state = state;
        }
        {
            let mut s = summary.lock().unwrap();
            match state {
                JobState::Done => s.done += 1,
                JobState::Failed => s.failed += 1,
                JobState::Cancelled => s.cancelled += 1,
                _ => {}
            }
        }
        send(out, proto::result_reply(id, state, &outcome));
    }

    /// Run one tuning session under the shared environment and convert its
    /// result into the wire outcome. Completed sessions feed the corpus.
    fn execute(&self, spec: &JobSpec, ctl: SessionCtl) -> JobOutcome {
        let mut task = job_task(spec).expect("bench validated at submit");
        let mut cfg = job_citroen_config(spec);

        // Transfer warm-start: seed the initial design from the statistics-
        // space nearest neighbours among completed tenants.
        let descriptor = task.stats_descriptor();
        if spec.warm > 0 {
            let corpus = self.state.corpus.lock().unwrap();
            cfg.init_seeds = warm_seeds(&descriptor, &corpus, spec.warm);
        }
        let n_warm = cfg.init_seeds.len() as u64;

        let env = SessionEnv {
            shared_cache: Some(self.state.cache.clone()),
            graph: self.state.graph.clone(),
            pool: Some(self.state.pool.clone()),
            ctl,
        };
        let SessionResult { trace, exit, .. } =
            run_citroen_session(&mut task, spec.budget, &cfg, &env);

        let best = trace.best();
        let speedup = if best.is_finite() && best > 0.0 { task.o3_seconds / best } else { 0.0 };
        if exit == SessionExit::Completed && best.is_finite() {
            if let Some(seq) = trace.best_seqs.first() {
                self.state.corpus.lock().unwrap().push(TransferEntry {
                    name: spec.bench.clone(),
                    descriptor,
                    genome: seq.iter().map(|p| p.0).collect(),
                    best_speedup: speedup,
                });
            }
        }
        JobOutcome {
            exit: match exit {
                SessionExit::Completed => "completed",
                SessionExit::Cancelled => "cancelled",
                SessionExit::TimedOut => "timed-out",
            }
            .to_string(),
            best_ns_bits: if best.is_finite() { best.to_bits() } else { 0 },
            speedup_bits: if speedup > 0.0 { speedup.to_bits() } else { 0 },
            digest: trace_digest(&trace),
            measurements: task.measurements as u64,
            compiles: task.compilations as u64,
            warm_seeds: n_warm,
            best_seq: trace
                .best_seqs
                .first()
                .map(|s| s.iter().map(|p: &PassId| p.0).collect())
                .unwrap_or_default(),
        }
    }
}

fn send(out: &Mutex<impl Write>, line: String) {
    let mut w = out.lock().unwrap();
    let _ = w.write_all(line.as_bytes());
    let _ = w.write_all(b"\n");
    let _ = w.flush();
}
