//! Protocol-robustness gate: malformed and hostile inputs get structured
//! `error` replies and never kill the daemon or other tenants.

use citroen_rt::json::Value;
use citroen_serve::{codes, ServeConfig, ServeSummary, Server};
use citroen_telemetry::Trace;
use std::io::Cursor;

fn run_script(cfg: ServeConfig, script: &str) -> (Vec<Value>, ServeSummary) {
    let server = Server::new(cfg);
    let mut out: Vec<u8> = Vec::new();
    let summary = server.serve(Cursor::new(script.to_string()), &mut out);
    let replies = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("unparseable reply '{l}': {e}")))
        .collect();
    (replies, summary)
}

fn of_type<'a>(replies: &'a [Value], ty: &str) -> Vec<&'a Value> {
    replies
        .iter()
        .filter(|r| r.get("type").and_then(Value::as_str) == Some(ty))
        .collect()
}

fn error_codes(replies: &[Value]) -> Vec<String> {
    of_type(replies, "error")
        .iter()
        .filter_map(|r| r.get("code").and_then(Value::as_str).map(str::to_string))
        .collect()
}

#[test]
fn hostile_input_yields_structured_errors_and_spares_the_tenant() {
    let mut script = String::from(concat!(
        "{oops\n",
        "[1,2,3]\n",
        "{\"id\":\"no-type\"}\n",
        "{\"type\":\"zap\"}\n",
        "{\"type\":\"cancel\"}\n",
        "{\"type\":\"cancel\",\"id\":\"ghost\"}\n",
        "{\"type\":\"status\",\"id\":\"ghost\"}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"ok\",\"bench\":\"telecom_gsm\",\"budget\":6,\"seed\":1}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"ok\",\"bench\":\"telecom_gsm\",\"budget\":6,\"seed\":2}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"nb\",\"bench\":\"no_such_bench\",\"budget\":6}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"ob\",\"bench\":\"telecom_gsm\",\"budget\":100000}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"zb\",\"bench\":\"telecom_gsm\",\"budget\":0}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"mf\",\"bench\":\"telecom_gsm\"}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"bf\",\"bench\":\"telecom_gsm\",\"budget\":\"six\"}}\n",
    ));
    // Tenant names key a metrics registry and splice into SLO event names:
    // anything outside `[A-Za-z0-9_-]{1,128}` is refused, naming the job.
    let long_tenant = "t".repeat(citroen_serve::protocol::MAX_TENANT_LEN + 1);
    let hostile_tenants = [r#"ev\"il"#, "", long_tenant.as_str(), "a.b"];
    for (i, tenant) in hostile_tenants.iter().enumerate() {
        script += &format!(
            "{{\"type\":\"submit\",\"job\":{{\"id\":\"ten{i}\",\"bench\":\"telecom_gsm\",\"budget\":6,\"tenant\":\"{tenant}\"}}}}\n"
        );
    }
    script += "{\"type\":\"stats\"}\n{\"type\":\"shutdown\"}\n";
    let (replies, summary) = run_script(ServeConfig::default(), &script);

    // Every bad line produced exactly one structured error; the daemon
    // survived them all and the one valid job ran to completion.
    let codes_seen = error_codes(&replies);
    for want in [
        codes::BAD_JSON,
        codes::UNKNOWN_TYPE,
        codes::BAD_FIELD,
        codes::UNKNOWN_JOB,
        codes::DUPLICATE_ID,
        codes::UNKNOWN_BENCH,
        codes::OVER_BUDGET,
    ] {
        assert!(codes_seen.iter().any(|c| c == want), "missing error code {want}: {codes_seen:?}");
    }
    let tenant_rejects: Vec<&str> = of_type(&replies, "error")
        .iter()
        .filter(|r| r.get("code").and_then(Value::as_str) == Some(codes::BAD_FIELD))
        .filter_map(|r| r.get("id").and_then(Value::as_str))
        .filter(|id| id.starts_with("ten"))
        .collect();
    assert_eq!(tenant_rejects, ["ten0", "ten1", "ten2", "ten3"]);

    let results = of_type(&replies, "result");
    assert_eq!(results.len(), 1, "exactly one job should reach a terminal result");
    let r = results[0];
    assert_eq!(r.get("id").and_then(Value::as_str), Some("ok"));
    assert_eq!(r.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(r.get("measurements").and_then(Value::as_u64), Some(6));
    assert!(r.get("digest").and_then(Value::as_u64).unwrap() != 0);

    let stats = of_type(&replies, "stats");
    assert_eq!(stats.len(), 1);
    assert_eq!(of_type(&replies, "bye").len(), 1, "graceful drain must emit bye");

    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.done, 1);
    assert_eq!(summary.failed, 0);
    // 7 malformed/unknown-target lines + 6 rejected submits + 4 hostile
    // tenants.
    assert_eq!(summary.rejected, 17);
}

#[test]
fn out_of_range_seq_len_is_rejected_at_submit() {
    // `seq_len: 0` used to panic the session (an empty `gen_range`), and a
    // huge one made it build that-long genomes for every candidate. Both
    // ends of the range are now refused with `bad-field`, naming the job.
    let max = citroen_serve::protocol::MAX_SEQ_LEN;
    let script = format!(
        concat!(
            "{{\"type\":\"submit\",\"job\":{{\"id\":\"zero\",\"bench\":\"telecom_gsm\",\"budget\":4,\"seq_len\":0}}}}\n",
            "{{\"type\":\"submit\",\"job\":{{\"id\":\"over\",\"bench\":\"telecom_gsm\",\"budget\":4,\"seq_len\":{}}}}}\n",
            "{{\"type\":\"submit\",\"job\":{{\"id\":\"huge\",\"bench\":\"telecom_gsm\",\"budget\":4,\"seq_len\":18446744073709551615}}}}\n",
            "{{\"type\":\"submit\",\"job\":{{\"id\":\"ok\",\"bench\":\"telecom_gsm\",\"budget\":4,\"seq_len\":8}}}}\n",
            "{{\"type\":\"shutdown\"}}\n",
        ),
        max + 1
    );
    let (replies, summary) = run_script(ServeConfig::default(), &script);

    let rejected: Vec<&str> = of_type(&replies, "error")
        .iter()
        .filter(|r| r.get("code").and_then(Value::as_str) == Some(codes::BAD_FIELD))
        .filter_map(|r| r.get("id").and_then(Value::as_str))
        .collect();
    assert_eq!(rejected, ["zero", "over", "huge"]);
    let results = of_type(&replies, "result");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].get("id").and_then(Value::as_str), Some("ok"));
    assert_eq!(results[0].get("state").and_then(Value::as_str), Some("done"));
    assert_eq!((summary.submitted, summary.rejected, summary.done), (1, 3, 1));
}

#[test]
fn job_ids_cannot_escape_the_trace_dir() {
    // Under `--trace-dir` a job's id names its trace file, which is created
    // truncating. An id with a path separator, or an absolute one (which
    // `Path::join` lets replace the directory), must never reach the file
    // system: every id outside `[A-Za-z0-9._-]{1,128}` is refused with
    // `bad-field`.
    let pid = std::process::id();
    let root = std::env::temp_dir().join(format!("citroen-idesc-{pid}"));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("traces");
    let abs = std::env::temp_dir().join(format!("citroen-idesc-abs-{pid}"));
    let long = "x".repeat(citroen_serve::protocol::MAX_JOB_ID_LEN + 1);
    let hostile = ["../escape", abs.to_str().unwrap(), "a/b", "", long.as_str()];
    let mut script = String::new();
    // The valid job's budget outlasts the 6-point initial design, so its
    // stream holds model-guided iterations as well.
    for (id, budget) in hostile.iter().map(|id| (*id, 4)).chain([("ok", 8)]) {
        script += &format!(
            "{{\"type\":\"submit\",\"job\":{{\"id\":\"{id}\",\"bench\":\"telecom_gsm\",\"budget\":{budget},\"seed\":1}}}}\n"
        );
    }
    script += "{\"type\":\"shutdown\"}\n";
    let cfg =
        ServeConfig { trace_dir: Some(dir.to_str().unwrap().to_string()), ..Default::default() };
    let (replies, summary) = run_script(cfg, &script);

    let rejected: Vec<&str> = of_type(&replies, "error")
        .iter()
        .filter(|r| r.get("code").and_then(Value::as_str) == Some(codes::BAD_FIELD))
        .filter_map(|r| r.get("id").and_then(Value::as_str))
        .collect();
    assert_eq!(rejected, hostile);
    let results = of_type(&replies, "result");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].get("id").and_then(Value::as_str), Some("ok"));
    assert_eq!(results[0].get("state").and_then(Value::as_str), Some("done"));
    assert_eq!((summary.submitted, summary.rejected, summary.done), (1, 5, 1));

    // Nothing was written beside or outside the trace dir; in it, only the
    // valid job's trace.
    let names = |d: &std::path::Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    assert_eq!(names(&root), ["traces"]);
    assert_eq!(names(&dir), ["ok.jsonl"]);
    assert!(!abs.with_extension("jsonl").exists(), "absolute id wrote outside the dir");

    // The job's stream is where its wall time is read back by layer: it
    // parses strictly, and its session-thread spans fold into flame stacks
    // under the tuning loop's iterations.
    let text = std::fs::read_to_string(dir.join("ok.jsonl")).unwrap();
    let stream = Trace::parse_jsonl(&text).expect("job stream parses");
    let stacks = stream.flame_stacks();
    assert!(!stacks.is_empty(), "job stream holds no spans");
    assert!(
        stacks.keys().any(|k| k.starts_with("citroen.run;iteration")),
        "no stack under citroen.run;iteration: {:?}",
        stacks.keys().collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn queued_jobs_cancel_and_timeouts_fire() {
    // One worker: "slow" occupies it, "victim" waits in the queue and is
    // cancelled there; "expired" carries a 1 ms timeout and stops at its
    // first iteration boundary.
    let script = concat!(
        "{\"type\":\"submit\",\"job\":{\"id\":\"slow\",\"bench\":\"telecom_gsm\",\"budget\":6,\"seed\":1}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"victim\",\"bench\":\"telecom_gsm\",\"budget\":6,\"seed\":2}}\n",
        "{\"type\":\"submit\",\"job\":{\"id\":\"expired\",\"bench\":\"telecom_gsm\",\"budget\":30,\"seed\":3,\"timeout_ms\":1}}\n",
        "{\"type\":\"cancel\",\"id\":\"victim\"}\n",
        "{\"type\":\"shutdown\"}\n",
    );
    let cfg = ServeConfig { max_concurrent: 1, ..Default::default() };
    let (replies, summary) = run_script(cfg, script);

    let results = of_type(&replies, "result");
    let by_id = |id: &str| {
        results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no result for {id}"))
    };
    assert_eq!(by_id("slow").get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(by_id("expired").get("exit").and_then(Value::as_str), Some("timed-out"));
    assert!(
        by_id("expired").get("measurements").and_then(Value::as_u64).unwrap() < 30,
        "expired job ran its whole budget"
    );
    // The queued victim was cancelled via a `job` reply, not a result.
    assert!(of_type(&replies, "job").iter().any(|r| {
        r.get("id").and_then(Value::as_str) == Some("victim")
            && r.get("state").and_then(Value::as_str) == Some("cancelled")
    }));
    assert_eq!(summary.done, 1);
    assert_eq!(summary.cancelled, 2, "victim + expired");
}
