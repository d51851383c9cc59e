//! `citroen-serve`: CITROEN-as-a-service — a multi-tenant tuning daemon.
//!
//! * **serve** (default): accept tuning jobs as newline-delimited JSON on
//!   stdio (or a Unix socket with `--socket`), run up to `--max-concurrent`
//!   sessions concurrently, and share the compile cache, the once-loaded
//!   interaction graph, and the transfer corpus across tenants. EOF or a
//!   `shutdown` request drains gracefully.
//! * **bench**: client mode for the determinism/throughput gate — spawns
//!   `citroen-serve serve` as a subprocess, replays a concurrent job mix
//!   over its stdio, cancels one job mid-run, and asserts every completed
//!   job's trace digest is bit-identical to a standalone in-process run at
//!   the same seed, with cross-tenant cache hits observed and a same-seed
//!   replay answered wholly by the execution memo (zero simulator runs).
//!
//! Protocol and shared-state invariants: DESIGN.md §11.

use citroen_rt::json::Value;
use citroen_serve::{job_citroen_config, job_task, JobSpec, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};

const USAGE: &str = "\
citroen-serve — multi-tenant CITROEN tuning daemon

USAGE:
    citroen-serve [serve] [--socket PATH] [--max-concurrent N] [--max-budget N]
                  [--cache-cap N] [--trace-dir DIR] [--graph FILE]
                  [--slo-queue-ms X] [--slo-run-ms X] [--slo-compile-us X]
                  [--slo-hit-ratio X]
    citroen-serve bench [--budget N] [--max-concurrent N]

MODES:
    serve            read newline-delimited JSON requests on stdin, write
                     replies on stdout (default). With --socket, listen on a
                     Unix socket and serve connections sequentially instead.
    bench            spawn a daemon subprocess and run the determinism /
                     throughput gate against it (exit 0 iff it holds)

OPTIONS:
    --socket PATH        listen on a Unix socket instead of stdio
    --max-concurrent N   concurrent tuning sessions        [default: 2]
    --max-budget N       per-job measurement budget cap    [default: 200]
    --cache-cap N        shared compile-cache entries      [default: 4096]
    --trace-dir DIR      per-job JSONL telemetry streams (readable while
                         live with `citroen-trace show DIR/<job>.jsonl`;
                         `citroen-trace flame` folds one into stacks)
    --graph FILE         persisted `citroen-analyze oracle --json` graph,
                         loaded once and shared with every session
    --budget N           bench mode: per-job budget        [default: 8]

OBSERVABILITY OPTIONS (serve):
    The metrics plane is always on: the `metrics` verb replies with one JSON
    object of windowed counters and histograms (six 10 s windows), SLO
    sentinels and recent jobs. The sentinels' limits:
    --slo-queue-ms X      queue-wait EWMA ceiling, ms     [default: 60000]
    --slo-run-ms X        run-wall EWMA ceiling, ms      [default: 300000]
    --slo-compile-us X    compile-span EWMA ceiling, us [default: 5000000]
    --slo-hit-ratio X     cache hit-ratio EWMA floor (0 disables)
                                                               [default: 0]
";

fn die(msg: &str) -> ! {
    eprintln!("citroen-serve: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn parse_num(args: &mut std::iter::Peekable<std::env::Args>, flag: &str) -> u64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    v.parse().unwrap_or_else(|_| die(&format!("{flag}: bad number '{v}'")))
}

/// An SLO flag's value: finite and non-negative, since a NaN ceiling can
/// never breach and would silently disable its sentinel.
fn parse_f64(args: &mut std::iter::Peekable<std::env::Args>, flag: &str) -> f64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => x,
        _ => die(&format!("{flag}: '{v}' is not a finite non-negative number")),
    }
}

fn main() {
    let mut args = std::env::args().peekable();
    args.next(); // argv[0]

    let mut cfg = ServeConfig::default();
    let mut socket: Option<String> = None;
    let mut bench = false;
    let mut budget = 8usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "serve" => {}
            "bench" => bench = true,
            "--socket" => {
                socket = Some(args.next().unwrap_or_else(|| die("--socket needs a path")))
            }
            "--max-concurrent" => {
                cfg.max_concurrent = parse_num(&mut args, "--max-concurrent").max(1) as usize
            }
            "--max-budget" => cfg.max_budget = parse_num(&mut args, "--max-budget") as usize,
            "--cache-cap" => cfg.cache_cap = parse_num(&mut args, "--cache-cap") as usize,
            "--trace-dir" => {
                cfg.trace_dir = Some(args.next().unwrap_or_else(|| die("--trace-dir needs a dir")))
            }
            "--graph" => {
                cfg.graph_path = Some(args.next().unwrap_or_else(|| die("--graph needs a file")))
            }
            "--budget" => budget = parse_num(&mut args, "--budget") as usize,
            "--slo-queue-ms" => cfg.slo_queue_ms = parse_f64(&mut args, "--slo-queue-ms"),
            "--slo-run-ms" => cfg.slo_run_ms = parse_f64(&mut args, "--slo-run-ms"),
            "--slo-compile-us" => cfg.slo_compile_us = parse_f64(&mut args, "--slo-compile-us"),
            "--slo-hit-ratio" => cfg.slo_hit_ratio = parse_f64(&mut args, "--slo-hit-ratio"),
            other => die(&format!("unknown argument '{other}'")),
        }
    }

    if bench {
        run_bench(cfg, budget);
        return;
    }
    let server = Server::new(cfg);
    match socket {
        None => {
            let stdin = std::io::stdin();
            let summary = server.serve(stdin.lock(), std::io::stdout());
            eprintln!(
                "citroen-serve: drained — {} done, {} failed, {} cancelled, {} rejected",
                summary.done, summary.failed, summary.cancelled, summary.rejected
            );
        }
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .unwrap_or_else(|e| die(&format!("cannot bind '{path}': {e}")));
            eprintln!("citroen-serve: listening on {path} (connections served sequentially)");
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("citroen-serve: accept failed: {e}");
                        continue;
                    }
                };
                let reader = match stream.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(e) => {
                        eprintln!("citroen-serve: clone failed: {e}");
                        continue;
                    }
                };
                let summary = server.serve(reader, stream);
                eprintln!(
                    "citroen-serve: connection drained — {} done, {} failed, {} cancelled",
                    summary.done, summary.failed, summary.cancelled
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// bench mode: the determinism / throughput gate
// ---------------------------------------------------------------------------

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
        "{{\"type\":\"submit\",\"job\":{{\"id\":\"{}\",\"bench\":\"{}\",\"budget\":{},\"seed\":{}}}}}\n",
        s.id, s.bench, s.budget, s.seed
    )
}

fn run_bench(cfg: ServeConfig, budget: usize) {
    let t0 = std::time::Instant::now();
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("no current_exe: {e}")));
    let mut child = std::process::Command::new(&exe)
        .args([
            "serve",
            "--max-concurrent",
            &cfg.max_concurrent.to_string(),
            "--max-budget",
            &cfg.max_budget.to_string(),
            "--cache-cap",
            &cfg.cache_cap.to_string(),
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| die(&format!("cannot spawn daemon: {e}")));
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    // Job mix: `victim` (long) starts first, runs beside `a`, and is
    // cancelled once `a` has its result, so it stops between measurements;
    // `b` runs after `a`; `c` replays `a`'s spec after it, so its compiles
    // can only be served by cross-tenant cache hits and its executions by
    // the program's execution memo.
    let victim = spec("victim", 7, cfg.max_budget);
    let a = spec("a", 5, budget);
    let b = spec("b", 6, budget);
    let c = spec("c", 5, budget);
    for s in [&victim, &a, &b] {
        stdin.write_all(submit_line(s).as_bytes()).expect("daemon stdin");
    }
    stdin.flush().expect("daemon stdin");

    let mut replies: Vec<Value> = Vec::new();
    let mut submitted_c = false;
    let mut failures: Vec<String> = Vec::new();
    for line in stdout.lines() {
        let line = line.expect("daemon stdout");
        let v = Value::parse(&line)
            .unwrap_or_else(|e| die(&format!("unparseable daemon reply '{line}': {e}")));
        let ty = v.get("type").and_then(Value::as_str).unwrap_or("").to_string();
        let id = v.get("id").and_then(Value::as_str).unwrap_or("").to_string();
        replies.push(v);
        match ty.as_str() {
            // Once the replayed spec's original is done, cancel the long job
            // (which has been measuring beside it, so the cancel lands
            // mid-run, at an iteration boundary) and submit the replay
            // (guaranteed to run strictly after the original).
            "result" if id == "a" && !submitted_c => {
                submitted_c = true;
                stdin
                    .write_all(b"{\"type\":\"cancel\",\"id\":\"victim\"}\n")
                    .expect("daemon stdin");
                stdin.write_all(submit_line(&c).as_bytes()).expect("daemon stdin");
                stdin.flush().expect("daemon stdin");
            }
            // Once the replay is done, read the counters and start the drain.
            "result" if id == "c" => {
                stdin.write_all(b"{\"type\":\"stats\"}\n").expect("daemon stdin");
                stdin.write_all(b"{\"type\":\"shutdown\"}\n").expect("daemon stdin");
                stdin.flush().expect("daemon stdin");
            }
            "bye" => break,
            _ => {}
        }
    }
    drop(stdin);
    let status = child.wait().expect("daemon exit status");
    let wall = t0.elapsed();
    if !status.success() {
        failures.push(format!("daemon exited with {status}"));
    }

    let result_of = |id: &str| -> Option<&Value> {
        replies.iter().find(|r| {
            r.get("type").and_then(Value::as_str) == Some("result")
                && r.get("id").and_then(Value::as_str) == Some(id)
        })
    };
    let field = |id: &str, key: &str| -> u64 {
        result_of(id).and_then(|r| r.get(key)).and_then(Value::as_u64).unwrap_or(0)
    };

    // 1. Bit-identity: every completed job equals its standalone run.
    for s in [&a, &b, &c] {
        let mut task = match job_task(s) {
            Some(t) => t,
            None => {
                failures.push(format!("job {}: unknown bench", s.id));
                continue;
            }
        };
        let (trace, _) =
            citroen::core::run_citroen(&mut task, s.budget, &job_citroen_config(s));
        let want = citroen::core::trace_digest(&trace);
        let got = field(&s.id, "digest");
        if got != want {
            failures.push(format!("job {}: digest {got:#x} != standalone {want:#x}", s.id));
        } else {
            println!("bench: job {} bit-identical to standalone (digest {got:#x})", s.id);
        }
    }
    // 2. Cross-tenant reuse: the replay compiled strictly less than the
    //    original it shadows.
    let (ca, cc) = (field("a", "compiles"), field("c", "compiles"));
    if cc >= ca {
        failures.push(format!("no cross-tenant reuse: replay compiled {cc} vs original {ca}"));
    } else {
        println!("bench: cross-tenant reuse — replay compiled {cc} vs original {ca}");
    }
    // 3. Execution memo: the replay simulated nothing, every binary it
    //    measured having run in the original, and the daemon reports the
    //    memo's hits and occupancy.
    let replay_execs = result_of("c").and_then(|r| r.get("executions")).and_then(Value::as_u64);
    let exec_of = |key: &str| -> Option<u64> {
        let stats = replies.iter().find(|r| r.get("type").and_then(Value::as_str) == Some("stats"));
        stats.and_then(|r| r.get("exec")).and_then(|e| e.get(key)).and_then(Value::as_u64)
    };
    match (replay_execs, exec_of("hits"), exec_of("len")) {
        (Some(0), Some(hits), Some(len)) if hits > 0 && len > 0 => println!(
            "bench: replay ran 0 simulations (original {}); memo hits {hits}, entries {len}",
            field("a", "executions")
        ),
        other => failures.push(format!(
            "replay not answered by the execution memo: (executions, hits, len) = {other:?}"
        )),
    }
    // 4. The cancelled job stopped mid-run — after measuring, before its
    //    budget — without poisoning the drain.
    match result_of("victim").map(|r| {
        (
            r.get("exit").and_then(Value::as_str).unwrap_or("").to_string(),
            r.get("measurements").and_then(Value::as_u64).unwrap_or(0),
        )
    }) {
        Some((exit, meas))
            if exit == "cancelled" && 0 < meas && meas < cfg.max_budget as u64 =>
        {
            println!("bench: victim cancelled mid-run after {meas} measurements");
        }
        other => failures.push(format!("victim not cancelled mid-run: {other:?}")),
    }
    // 5. Graceful drain: exactly one bye, all four jobs reached a terminal
    //    result.
    let byes =
        replies.iter().filter(|r| r.get("type").and_then(Value::as_str) == Some("bye")).count();
    if byes != 1 {
        failures.push(format!("expected exactly one bye reply, saw {byes}"));
    }
    for id in ["a", "b", "c", "victim"] {
        if result_of(id).is_none() {
            failures.push(format!("job {id} never reached a terminal result"));
        }
    }

    println!(
        "bench: 4 jobs (3 done, 1 cancelled) over {} session threads in {:.2}s",
        cfg.max_concurrent,
        wall.as_secs_f64()
    );
    if failures.is_empty() {
        println!("bench: determinism/throughput gate passed");
    } else {
        for f in &failures {
            eprintln!("bench FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
