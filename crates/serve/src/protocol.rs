//! The daemon's wire protocol: newline-delimited JSON, one message per line.
//!
//! Requests (client → daemon):
//!
//! ```json
//! {"type":"submit","job":{"id":"j1","bench":"telecom_gsm","budget":20,"seed":1}}
//! {"type":"cancel","id":"j1"}
//! {"type":"status"}            // or {"type":"status","id":"j1"}
//! {"type":"stats"}
//! {"type":"metrics"}
//! {"type":"shutdown"}
//! ```
//!
//! Replies (daemon → client): `ack`, `error`, `job` (state change),
//! `result` (terminal), `stats`, `metrics` (the observability snapshot as
//! one JSON object, DESIGN.md §12; a job's spans are read from its
//! `--trace-dir` stream instead), `daemon` (uptime/health line closing a
//! full `status`),
//! and `bye` (sent once after the graceful drain). All numbers are unsigned
//! integers ([`citroen_rt::json`] has no float form); fractional values
//! travel as IEEE-754 bit patterns (`f64::to_bits`), which is also what the
//! bit-identity gates compare. Wherever a `*_bits` field appears, a
//! *readable* twin may sit next to it — same name minus the suffix (e.g.
//! `speedup_bits` + `speedup`, `hit_ratio_bits` + `hit_ratio`) — holding a
//! trimmed three-decimal string purely for humans; gates and clients doing
//! exact comparison must use the `_bits` form.
//!
//! A malformed or unacceptable request yields one structured `error` reply
//! and leaves the daemon and every other tenant untouched.

use citroen_rt::json::Value;

/// Machine-readable error codes carried on `error` replies.
pub mod codes {
    /// The line was not valid JSON (or not a JSON object).
    pub const BAD_JSON: &str = "bad-json";
    /// The `type` field is missing or not a known request type.
    pub const UNKNOWN_TYPE: &str = "unknown-type";
    /// A required field is missing or has the wrong shape.
    pub const BAD_FIELD: &str = "bad-field";
    /// A job with this id already exists (any state).
    pub const DUPLICATE_ID: &str = "duplicate-id";
    /// The requested budget is zero or exceeds the daemon's cap.
    pub const OVER_BUDGET: &str = "over-budget";
    /// The named benchmark is not in the suite.
    pub const UNKNOWN_BENCH: &str = "unknown-bench";
    /// The id names no known job.
    pub const UNKNOWN_JOB: &str = "unknown-job";
    /// The daemon is draining and accepts no new jobs.
    pub const SHUTTING_DOWN: &str = "shutting-down";
}

/// The longest pass sequence a job may request: about twice the paper's
/// 120. Every candidate of every iteration is a genome this long, so the
/// bound caps a session's memory and compile work.
pub const MAX_SEQ_LEN: usize = 256;

/// The longest job id a submit may carry.
pub const MAX_JOB_ID_LEN: usize = 128;

/// Whether `id` is an acceptable job id: 1..=[`MAX_JOB_ID_LEN`] characters
/// from `[A-Za-z0-9._-]`. Under `--trace-dir` the id names the job's trace
/// file, so it must hold no path separator.
pub fn valid_job_id(id: &str) -> bool {
    (1..=MAX_JOB_ID_LEN).contains(&id.len())
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// The longest tenant name a submit may carry.
pub const MAX_TENANT_LEN: usize = 128;

/// Whether `tenant` is an acceptable tenant name: 1..=[`MAX_TENANT_LEN`]
/// characters from `[A-Za-z0-9_-]`. The name keys a metrics registry and is
/// spliced into `slo.breach.tenant.<name>.*` event names, so it may hold no
/// `.` either.
pub fn valid_tenant(tenant: &str) -> bool {
    (1..=MAX_TENANT_LEN).contains(&tenant.len())
        && tenant.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-'))
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a session slot.
    Queued,
    /// A session thread is tuning it.
    Running,
    /// Finished; a `result` reply was emitted.
    Done,
    /// The session panicked or errored; a `result` reply was emitted.
    Failed,
    /// Cancelled before or during the run.
    Cancelled,
}

impl JobState {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// `true` for states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// One tuning job as submitted by a tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen unique id.
    pub id: String,
    /// Benchmark name (must be one of [`citroen_suite::names`]).
    pub bench: String,
    /// Tenant the job is grouped under in the metrics plane (per-tenant
    /// registries, rates, health). Defaults to the benchmark name; must
    /// pass [`valid_tenant`].
    pub tenant: String,
    /// Runtime-measurement budget.
    pub budget: usize,
    /// Session RNG seed (also the task's measurement-noise seed).
    pub seed: u64,
    /// Pass-sequence length (default 16; `1..=`[`MAX_SEQ_LEN`]).
    pub seq_len: usize,
    /// Measurements per model-guided iteration (default 1).
    pub batch: usize,
    /// Read by nothing. The protocol no longer parses an `oracle_prune` key
    /// (an unknown key, ignored like any other), so a parsed spec always
    /// holds `false` here. The field stays only so that clients which build
    /// a `JobSpec` literal keep compiling.
    pub oracle_prune: bool,
    /// Read by nothing, like `oracle_prune`: the protocol no longer parses
    /// a `subsume` key, so a parsed spec always holds `false` here. The
    /// field stays only so that clients which build a `JobSpec` literal keep
    /// compiling.
    pub subsume: bool,
    /// Number of statistics-space nearest-neighbour transfer seeds to
    /// inject from the daemon's corpus (0 = cold start, the default).
    pub warm: usize,
    /// Per-job wall-clock timeout in milliseconds (0 = none).
    pub timeout_ms: u64,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a job.
    Submit(JobSpec),
    /// Cancel a queued or running job.
    Cancel {
        /// Target job id.
        id: String,
    },
    /// Report one job's state, or every job's when `id` is absent.
    Status {
        /// Optional target job id.
        id: Option<String>,
    },
    /// Report shared-cache and job counters.
    Stats,
    /// Report the observability snapshot (windowed metrics, SLO
    /// sentinels, recent jobs).
    Metrics,
    /// Stop accepting jobs, drain, and exit.
    Shutdown,
}

/// A request that could not be parsed or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of [`codes`].
    pub code: &'static str,
    /// Human-readable detail.
    pub msg: String,
}

fn err(code: &'static str, msg: impl Into<String>) -> ProtoError {
    ProtoError { code, msg: msg.into() }
}

fn need_str(v: &Value, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| err(codes::BAD_FIELD, format!("missing string field '{key}'")))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ProtoError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| err(codes::BAD_FIELD, format!("missing integer field '{key}'")))
}

fn opt_u64(v: &Value, key: &str, default: u64) -> Result<u64, ProtoError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_u64()
            .ok_or_else(|| err(codes::BAD_FIELD, format!("field '{key}' must be an integer"))),
    }
}

/// Parse one request line. Errors carry the structured code the daemon
/// echoes back; they never abort the read loop.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = Value::parse(line).map_err(|e| err(codes::BAD_JSON, e.to_string()))?;
    let ty = match v.get("type").and_then(Value::as_str) {
        Some(t) => t,
        None => return Err(err(codes::UNKNOWN_TYPE, "missing 'type' field")),
    };
    match ty {
        "submit" => {
            let job = v
                .get("job")
                .ok_or_else(|| err(codes::BAD_FIELD, "missing object field 'job'"))?;
            let bench = need_str(job, "bench")?;
            let tenant = match job.get("tenant").and_then(Value::as_str) {
                Some(t) => t.to_string(),
                None => bench.clone(),
            };
            let spec = JobSpec {
                id: need_str(job, "id")?,
                bench,
                tenant,
                budget: need_u64(job, "budget")? as usize,
                seed: opt_u64(job, "seed", 0)?,
                seq_len: opt_u64(job, "seq_len", 16)? as usize,
                batch: opt_u64(job, "batch", 1)?.max(1) as usize,
                oracle_prune: false,
                subsume: false,
                warm: opt_u64(job, "warm", 0)? as usize,
                timeout_ms: opt_u64(job, "timeout_ms", 0)?,
            };
            Ok(Request::Submit(spec))
        }
        "cancel" => Ok(Request::Cancel { id: need_str(&v, "id")? }),
        "status" => Ok(Request::Status {
            id: v.get("id").and_then(Value::as_str).map(str::to_string),
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(err(codes::UNKNOWN_TYPE, format!("unknown request type '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Reply builders
// ---------------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// `ack` reply: the request was accepted; `state` says what happens next.
pub fn ack_reply(id: &str, state: &str) -> String {
    obj(vec![("type", s("ack")), ("id", s(id)), ("state", s(state))]).emit_compact()
}

/// `error` reply with a structured code.
pub fn error_reply(code: &str, msg: &str, id: Option<&str>) -> String {
    let mut pairs = vec![("type", s("error")), ("code", s(code)), ("msg", s(msg))];
    if let Some(id) = id {
        pairs.push(("id", s(id)));
    }
    obj(pairs).emit_compact()
}

/// `job` reply: a state observation or transition.
pub fn job_reply(id: &str, state: JobState) -> String {
    obj(vec![("type", s("job")), ("id", s(id)), ("state", s(state.as_str()))]).emit_compact()
}

/// Terminal per-job numbers carried on the `result` reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobOutcome {
    /// How the session ended: `completed`, `cancelled`, `timed-out`,
    /// or `panicked`.
    pub exit: String,
    /// Best runtime in seconds, as `f64::to_bits` (0 = no measurement).
    pub best_ns_bits: u64,
    /// Speedup over O3, as `f64::to_bits` (0 = no measurement).
    pub speedup_bits: u64,
    /// [`citroen_core::trace_digest`] of the session trace — the
    /// bit-identity fingerprint the determinism gate compares.
    pub digest: u64,
    /// Runtime measurements consumed.
    pub measurements: u64,
    /// Simulator runs the job performed. A binary an earlier job already
    /// simulated is answered by the program's execution memo and not
    /// counted, so a same-seed replay reports 0.
    pub executions: u64,
    /// Compilations performed by this session (shared-cache hits excluded).
    pub compiles: u64,
    /// Pass runs this session's compile sweeps skipped by resuming a
    /// sequence from a prefix state another sequence of the sweep reached.
    pub passes_reused: u64,
    /// Pass runs this session's compile sweeps skipped because the
    /// program's no-op memo knew they change nothing.
    pub passes_skipped: u64,
    /// Transfer seeds injected into this session's initial design.
    pub warm_seeds: u64,
    /// Best pass-id sequence found.
    pub best_seq: Vec<u16>,
}

/// `result` reply: the job reached a terminal state. `best_ns`/`speedup`
/// are the readable twins of the `_bits` fields (see the module doc).
pub fn result_reply(id: &str, state: JobState, o: &JobOutcome) -> String {
    obj(vec![
        ("type", s("result")),
        ("id", s(id)),
        ("state", s(state.as_str())),
        ("exit", s(&o.exit)),
        ("best_ns_bits", Value::U64(o.best_ns_bits)),
        ("best_ns", s(&crate::metrics::fmt_f64(f64::from_bits(o.best_ns_bits)))),
        ("speedup_bits", Value::U64(o.speedup_bits)),
        ("speedup", s(&crate::metrics::fmt_f64(f64::from_bits(o.speedup_bits)))),
        ("digest", Value::U64(o.digest)),
        ("measurements", Value::U64(o.measurements)),
        ("executions", Value::U64(o.executions)),
        ("compiles", Value::U64(o.compiles)),
        ("passes_reused", Value::U64(o.passes_reused)),
        ("passes_skipped", Value::U64(o.passes_skipped)),
        ("warm_seeds", Value::U64(o.warm_seeds)),
        ("best_seq", Value::Arr(o.best_seq.iter().map(|&p| Value::U64(p as u64)).collect())),
    ])
    .emit_compact()
}

/// `stats` reply: shared-cache counters (including the LRU eviction count),
/// execution-memo counters and occupancy summed over the program bases
/// (`exec`, with `bases` built so far), the no-op memo's likewise (`noop`;
/// a hit is a skipped pass run), job-state counts, transfer-corpus
/// size, daemon uptime, and the current health verdict. `hit_ratio` is the
/// readable twin of `hit_ratio_bits` (see the module doc).
#[allow(clippy::too_many_arguments)]
pub fn stats_reply(
    cache: &citroen_core::SharedCacheStats,
    exec: &crate::state::ExecStats,
    jobs: &[(JobState, u64)],
    corpus: u64,
    uptime_ms: u64,
    health: &str,
) -> String {
    let ratio = if cache.hits + cache.misses > 0 {
        cache.hits as f64 / (cache.hits + cache.misses) as f64
    } else {
        0.0
    };
    obj(vec![
        ("type", s("stats")),
        ("uptime_ms", Value::U64(uptime_ms)),
        ("health", s(health)),
        (
            "cache",
            obj(vec![
                ("hits", Value::U64(cache.hits)),
                ("cross_hits", Value::U64(cache.cross_hits)),
                ("misses", Value::U64(cache.misses)),
                ("insertions", Value::U64(cache.insertions)),
                ("evictions", Value::U64(cache.evictions)),
                ("len", Value::U64(cache.len)),
                ("hit_ratio_bits", Value::U64(ratio.to_bits())),
                ("hit_ratio", s(&crate::metrics::fmt_f64(ratio))),
            ]),
        ),
        (
            "exec",
            obj(vec![
                ("hits", Value::U64(exec.memo.hits)),
                ("misses", Value::U64(exec.memo.misses)),
                ("evictions", Value::U64(exec.memo.evictions)),
                ("len", Value::U64(exec.memo.len)),
                ("bases", Value::U64(exec.bases)),
            ]),
        ),
        (
            "noop",
            obj(vec![
                ("hits", Value::U64(exec.noop.hits)),
                ("misses", Value::U64(exec.noop.misses)),
                ("evictions", Value::U64(exec.noop.evictions)),
                ("len", Value::U64(exec.noop.len)),
            ]),
        ),
        (
            "jobs",
            Value::Obj(
                jobs.iter()
                    .map(|(st, n)| (st.as_str().to_string(), Value::U64(*n)))
                    .collect(),
            ),
        ),
        ("corpus", Value::U64(corpus)),
    ])
    .emit_compact()
}

/// `daemon` reply: the uptime/health line appended to a full `status`
/// listing.
pub fn daemon_reply(uptime_ms: u64, health: &str) -> String {
    obj(vec![
        ("type", s("daemon")),
        ("uptime_ms", Value::U64(uptime_ms)),
        ("health", s(health)),
    ])
    .emit_compact()
}

/// `bye` reply: emitted once after the graceful drain, then the daemon exits.
pub fn bye_reply(done: u64) -> String {
    obj(vec![("type", s("bye")), ("done", Value::U64(done))]).emit_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_submit_with_defaults() {
        let r = parse_request(
            r#"{"type":"submit","job":{"id":"a","bench":"telecom_gsm","budget":10}}"#,
        )
        .unwrap();
        match r {
            Request::Submit(j) => {
                assert_eq!(j.id, "a");
                assert_eq!(j.bench, "telecom_gsm");
                assert_eq!(j.tenant, "telecom_gsm"); // defaults to the bench
                assert_eq!(j.budget, 10);
                assert_eq!(j.seed, 0);
                assert_eq!(j.seq_len, 16);
                assert_eq!(j.batch, 1);
                assert_eq!(j.warm, 0);
                assert_eq!(j.timeout_ms, 0);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn oracle_prune_and_subsume_keys_change_neither_the_spec_nor_the_config() {
        // Older clients still send `"oracle_prune":1` and `"subsume":1`; the
        // keys are no longer read, so they parse like any unknown key: not
        // at all.
        let submit = |extra: &str| {
            let job = format!(r#"{{"id":"a","bench":"telecom_gsm","budget":10{extra}}}"#);
            match parse_request(&format!(r#"{{"type":"submit","job":{job}}}"#)).unwrap() {
                Request::Submit(j) => j,
                other => panic!("wrong parse: {other:?}"),
            }
        };
        let without = submit("");
        for extra in [r#","oracle_prune":1"#, r#","subsume":1"#, r#","oracle_prune":1,"subsume":1"#]
        {
            let with = submit(extra);
            assert_eq!(with, without, "{extra}");
            let config = |j: &JobSpec| format!("{:?}", crate::server::job_citroen_config(j));
            assert_eq!(config(&with), config(&without), "{extra}");
        }
    }

    #[test]
    fn rejects_malformed_lines_with_structured_codes() {
        assert_eq!(parse_request("{oops").unwrap_err().code, codes::BAD_JSON);
        assert_eq!(parse_request(r#"{"id":"x"}"#).unwrap_err().code, codes::UNKNOWN_TYPE);
        assert_eq!(parse_request(r#"{"type":"zap"}"#).unwrap_err().code, codes::UNKNOWN_TYPE);
        assert_eq!(parse_request(r#"{"type":"cancel"}"#).unwrap_err().code, codes::BAD_FIELD);
        assert_eq!(
            parse_request(r#"{"type":"submit","job":{"id":"a","bench":"b"}}"#)
                .unwrap_err()
                .code,
            codes::BAD_FIELD
        );
        assert_eq!(
            parse_request(r#"{"type":"submit","job":{"id":"a","bench":"b","budget":"x"}}"#)
                .unwrap_err()
                .code,
            codes::BAD_FIELD
        );
    }

    #[test]
    fn replies_are_single_line_json() {
        let lines = [
            ack_reply("j1", "queued"),
            error_reply(codes::BAD_JSON, "truncated", None),
            job_reply("j1", JobState::Running),
            result_reply("j1", JobState::Done, &JobOutcome::default()),
            bye_reply(3),
        ];
        for l in &lines {
            assert!(!l.contains('\n'), "{l}");
            Value::parse(l).expect("reply parses back");
        }
    }

    #[test]
    fn status_and_shutdown_round_trip() {
        assert_eq!(parse_request(r#"{"type":"status"}"#).unwrap(), Request::Status { id: None });
        assert_eq!(
            parse_request(r#"{"type":"status","id":"z"}"#).unwrap(),
            Request::Status { id: Some("z".into()) }
        );
        assert_eq!(parse_request(r#"{"type":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"type":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn default_tenants_are_valid() {
        // A submit without a tenant is grouped under its bench name, so
        // every suite name must pass the submit-time tenant check.
        for name in citroen_suite::names() {
            assert!(valid_tenant(name), "{name}");
        }
        assert!(["alpha", "team-x", "t_9"].iter().all(|t| valid_tenant(t)));
    }

    #[test]
    fn parses_metrics_and_explicit_tenant() {
        assert_eq!(parse_request(r#"{"type":"metrics"}"#).unwrap(), Request::Metrics);
        let r = parse_request(
            r#"{"type":"submit","job":{"id":"a","bench":"telecom_gsm","budget":1,"tenant":"team-x"}}"#,
        )
        .unwrap();
        match r {
            Request::Submit(j) => assert_eq!(j.tenant, "team-x"),
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
