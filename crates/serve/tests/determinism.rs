//! Determinism-under-concurrency gate: jobs served concurrently against the
//! shared state are bit-identical to standalone `run_citroen` runs at the
//! same seeds, cross-tenant cache reuse actually happens, and the jobs share
//! one program base whose memo accounts for every simulator run.

use citroen_core::{run_citroen, trace_digest};
use citroen_rt::json::Value;
use citroen_serve::{job_citroen_config, job_task, JobSpec, ServeConfig, Server};
use std::io::Cursor;

fn spec(id: &str, seed: u64, budget: usize) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        bench: "telecom_gsm".to_string(),
        tenant: "telecom_gsm".to_string(),
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
        "{{\"type\":\"submit\",\"job\":{{\"id\":\"{}\",\"bench\":\"{}\",\"budget\":{},\"seed\":{}}}}}",
        s.id, s.bench, s.budget, s.seed
    )
}

#[test]
fn concurrent_jobs_match_standalone_digests_with_cross_tenant_reuse() {
    // a (seed 5) and b (seed 6) run concurrently on two session threads;
    // c replays a's spec and runs after one of them finishes, so every one
    // of its compiles can hit the shared cache across tenants.
    let budget = 8;
    let a = spec("a", 5, budget);
    let b = spec("b", 6, budget);
    let c = spec("c", 5, budget);

    let server = Server::new(ServeConfig { max_concurrent: 2, ..Default::default() });
    let script = format!(
        "{}\n{}\n{}\n{{\"type\":\"shutdown\"}}\n",
        submit_line(&a),
        submit_line(&b),
        submit_line(&c)
    );
    let mut out: Vec<u8> = Vec::new();
    let summary = server.serve(Cursor::new(script), &mut out);
    assert_eq!(summary.done, 3, "all three jobs must complete");

    let text = String::from_utf8(out).unwrap();
    let results: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).unwrap())
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("result"))
        .collect();
    let field = |id: &str, key: &str| -> u64 {
        results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no result for {id}"))
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no field {key} on {id}"))
    };

    // Standalone replays: the daemon's published config/task builders are
    // the exact session equivalents, so digests must match bit-for-bit.
    for s in [&a, &b, &c] {
        let mut task = job_task(s).unwrap();
        let (trace, _) = run_citroen(&mut task, s.budget, &job_citroen_config(s));
        assert_eq!(
            field(&s.id, "digest"),
            trace_digest(&trace),
            "job {} diverged from its standalone run",
            s.id
        );
        assert_eq!(field(&s.id, "measurements"), task.measurements as u64);
    }
    // Same seed ⇒ same trajectory; different seed ⇒ different one.
    assert_eq!(field("a", "digest"), field("c", "digest"));
    assert_ne!(field("a", "digest"), field("b", "digest"));

    // Cross-tenant sharing is real: c (the replay) found a's compiles in
    // the shared cache, so it compiled strictly less, and the cache counted
    // hits attributed across tenants.
    assert!(
        field("c", "compiles") < field("a", "compiles"),
        "replay tenant compiled {} vs {} — no shared-cache reuse",
        field("c", "compiles"),
        field("a", "compiles")
    );
    let stats = server.state().cache.stats();
    assert!(stats.cross_hits > 0, "no cross-tenant hits recorded: {stats:?}");
    assert!(stats.insertions > 0);

    // One program, one shared base; every simulator run a job reports is
    // one memo miss.
    let exec = server.state().exec_stats();
    assert_eq!(exec.bases, 1, "{exec:?}");
    let runs: u64 = ["a", "b", "c"].iter().map(|id| field(id, "executions")).sum();
    assert_eq!(exec.memo.misses, runs, "{exec:?}");
}
