//! The observability-inertness gate: with the metrics plane on (it always
//! is), ten seeded jobs served by the daemon produce trace digests
//! bit-identical to standalone `run_citroen` runs at the same seeds —
//! recording is strictly observational and never feeds back into a session.
//! Also sanity-checks the drained hub's `metrics` reply content.
//!
//! Lives in its own integration-test binary: the telemetry sink is
//! process-global, and this test asserts on what the hub accumulated.

use citroen_core::{run_citroen, trace_digest};
use citroen_rt::json::Value;
use citroen_serve::{job_citroen_config, job_task, JobSpec, ServeConfig, Server};
use std::io::Cursor;

fn spec(id: &str, tenant: &str, seed: u64, budget: usize) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        bench: "telecom_gsm".to_string(),
        tenant: tenant.to_string(),
        budget,
        seed,
        seq_len: 16,
        batch: 1,
        oracle_prune: false,
        subsume: false,
        warm: 0,
        timeout_ms: 0,
    }
}

fn submit_line(s: &JobSpec) -> String {
    format!(
        "{{\"type\":\"submit\",\"job\":{{\"id\":\"{}\",\"bench\":\"{}\",\"tenant\":\"{}\",\
         \"budget\":{},\"seed\":{}}}}}",
        s.id, s.bench, s.tenant, s.budget, s.seed
    )
}

#[test]
fn ten_seeds_with_metrics_on_match_standalone_digests() {
    let budget = 4;
    let specs: Vec<JobSpec> = (1..=10u64)
        .map(|seed| spec(&format!("s{seed}"), &format!("tenant{}", seed % 3), seed, budget))
        .collect();

    let server = Server::new(ServeConfig { max_concurrent: 4, ..Default::default() });

    let mut script = String::new();
    for s in &specs {
        script.push_str(&submit_line(s));
        script.push('\n');
    }
    script.push_str("{\"type\":\"shutdown\"}\n");
    let mut out: Vec<u8> = Vec::new();
    let summary = server.serve(Cursor::new(script), &mut out);
    assert_eq!(summary.done, 10, "all ten jobs must complete");

    let text = String::from_utf8(out).unwrap();
    let results: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).unwrap())
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("result"))
        .collect();
    let digest_of = |id: &str| -> u64 {
        results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no result for {id}"))
            .get("digest")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no digest on {id}"))
    };

    // Bit-identity at every seed: the metrics hub observed every one of
    // these sessions (spans, counters, lifecycle) yet none of them diverged
    // from an unobserved standalone run.
    for s in &specs {
        let mut task = job_task(s).unwrap();
        let (trace, _) = run_citroen(&mut task, s.budget, &job_citroen_config(s));
        assert_eq!(
            digest_of(&s.id),
            trace_digest(&trace),
            "job {} (seed {}) diverged from its standalone run with metrics on",
            s.id,
            s.seed
        );
    }

    // The hub actually recorded the work it watched.
    let m = server.metrics();
    assert!(m.healthy(), "default SLOs must not breach on a tiny healthy run");
    let v = Value::parse(&m.reply_json()).unwrap();
    assert_eq!(v.get("type").and_then(Value::as_str), Some("metrics"));
    assert_eq!(v.get("health").and_then(Value::as_str), Some("ok"));
    let global = v.get("global").expect("global registry");
    let done = global
        .get("counters")
        .and_then(|c| c.get("jobs.done"))
        .and_then(|c| c.get("total"))
        .and_then(Value::as_u64);
    assert_eq!(done, Some(10));
    let run_wall = global
        .get("hists")
        .and_then(|h| h.get("run_wall_ms"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64);
    assert_eq!(run_wall, Some(10), "one run-wall sample per completed job");
    // The execution memo's counters and occupancy, as `stats` reports
    // them: ten gsm jobs share one program base, whose memo answered the
    // binaries the jobs had in common.
    let gauge = |name: &str| global.get("gauges").and_then(|g| g.get(name)).and_then(Value::as_u64);
    let exec = server.state().exec_stats();
    assert_eq!(gauge("exec.bases"), Some(1));
    assert_eq!(gauge("exec.hits"), Some(exec.memo.hits));
    assert_eq!(gauge("exec.misses"), Some(exec.memo.misses));
    assert_eq!(gauge("exec.evictions"), Some(exec.memo.evictions));
    assert_eq!(gauge("exec.len"), Some(exec.memo.len));
    assert!(exec.memo.misses > 0 && exec.memo.len > 0, "the jobs simulated binaries");
    // Prefix resumption: the counter sums the jobs' `passes_reused` (these
    // budgets end inside the initial design, whose steps compile one genome
    // each, so the sum may be 0).
    let reused: u64 = results
        .iter()
        .map(|r| r.get("passes_reused").and_then(Value::as_u64).expect("passes_reused on result"))
        .sum();
    let counter = global
        .get("counters")
        .and_then(|c| c.get("passes_reused"))
        .and_then(|c| c.get("total"))
        .and_then(Value::as_u64);
    assert_eq!(counter.unwrap_or(0), reused);
    // The no-op memo: the counter sums the jobs' `passes_skipped`, which sum
    // to the shared base's memo hits, and the gauges read as `stats` does.
    let skipped: u64 = results
        .iter()
        .map(|r| r.get("passes_skipped").and_then(Value::as_u64).expect("passes_skipped on result"))
        .sum();
    let counter = global
        .get("counters")
        .and_then(|c| c.get("passes_skipped"))
        .and_then(|c| c.get("total"))
        .and_then(Value::as_u64);
    assert_eq!(counter.unwrap_or(0), skipped);
    assert_eq!(skipped, exec.noop.hits, "every memo hit is a skip some job made");
    assert!(skipped > 0, "ten jobs over one program repeat no-op pass runs");
    assert_eq!(gauge("noop.hits"), Some(exec.noop.hits));
    assert_eq!(gauge("noop.misses"), Some(exec.noop.misses));
    assert_eq!(gauge("noop.evictions"), Some(exec.noop.evictions));
    assert_eq!(gauge("noop.len"), Some(exec.noop.len));
    assert!(exec.noop.len as usize <= citroen_passes::NOOP_MEMO_CAP);
    let recent = v.get("recent").and_then(Value::as_arr).expect("recent ring");
    assert_eq!(recent.len(), 10);
    // All three tenants got their own registries, each reporting health.
    let tenants = v.get("tenants").expect("tenants object");
    for t in ["tenant0", "tenant1", "tenant2"] {
        assert_eq!(
            tenants.get(t).and_then(|t| t.get("health")).and_then(Value::as_str),
            Some("ok"),
            "missing tenant {t}"
        );
    }
}
