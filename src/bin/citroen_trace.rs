//! `citroen-trace`: capture and analyse telemetry traces of the tuning stack.
//!
//! Capture: **record** runs a small CITROEN tuning run and streams its
//! trace to `--out` through [`telemetry::StreamSink`]. Traces have one
//! format, JSONL (one record per line), which every analysis mode reads.
//!
//! Analysis: **show** (a live, partial or rotated stream: self/total
//! breakdown, hottest spans, counters, histograms; torn lines skipped),
//! **check** (structural assertions — the tier-1 telemetry gate), **diff**
//! (per-name time and counter deltas between two traces, exit 1 past the
//! threshold — the repo's perf-regression gate), **flame** (collapsed stacks
//! for standard flamegraph tools), **curve** (per-run convergence table from
//! the tuner's `progress` events). Every mode but `show` rejects a torn line.
//!
//! Daemon: **top** renders a `citroen-serve` socket's `metrics` verb.
//!
//! Exits 1 on failed checks, 2 on usage and parse errors.

use citroen::core::{run_citroen, CitroenConfig, Task, TaskConfig};
use citroen::telemetry::{self, Trace};
use citroen_passes::Registry;
use citroen_rt::json::Value;
use citroen_sim::Platform;

const USAGE: &str = "\
citroen-trace — telemetry capture and trace analysis

USAGE:
    citroen-trace record --out FILE [--stream-cap N]
                         [--bench NAME] [--budget N] [--seq-len N] [--seed S]
                         [--batch Q]
    citroen-trace show FILE [--top N]
    citroen-trace check FILE [--min-coverage F]
    citroen-trace diff OLD NEW [--threshold PCT] [--span-floor-ms MS]
                       [--counter-floor N]
    citroen-trace flame FILE
    citroen-trace curve FILE
    citroen-trace top --socket PATH [--once | --count N] [--interval-ms MS]

MODES:
    record           run a traced tuning run, streaming its JSONL trace live
                     to --out (required)
    show             breakdown table + hottest spans + counters + histograms
                     of a live/partial stream (torn lines skipped; rotated
                     FILE.2/FILE.1 generations followed oldest-first)
    check            assert expected span kinds and iteration coverage
    diff             per-name time and counter deltas between two traces;
                     exits 1 when any tracked span total or counter grew
                     past the threshold
    flame            collapsed flame stacks ('a;b;c <self_ns>' per line)
    curve            convergence table from the tuner's progress events;
                     exits 1 if the best-so-far column is not monotone
    top              poll a citroen-serve socket's `metrics` verb and render
                     per-tenant rates/quantiles/health; exits 1 when the
                     daemon reports health degraded (--once is the CI SLO
                     gate: one poll, exit 0 healthy / 1 degraded)

RECORD OPTIONS:
    --out FILE       the JSONL trace file to write (required)
    --bench NAME     benchmark to tune            [default: telecom_gsm]
    --budget N       runtime-measurement budget   [default: 12]
    --seq-len N      pass-sequence length         [default: 16]
    --seed S         tuner seed                   [default: 1]
    --batch Q        batched measurement lookahead        [default: 1]
    --stream-cap N   rotate the trace at ~N bytes per file, keeping
                     FILE.1 and FILE.2 (disk bounded at ~3 caps)

DIFF OPTIONS:
    --threshold PCT      max tolerated increase, percent        [default: 25]
    --span-floor-ms MS   ignore span names whose OLD total is under
                         MS milliseconds (too noisy to gate on)  [default: 1]
    --counter-floor N    ignore counters whose OLD value is under N
                                                                [default: 10]

TOP OPTIONS:
    --socket PATH        the daemon's --socket path (required)
    --once               poll once; exit 0 healthy / 1 degraded
    --count N            poll N times, exit per the last verdict
    --interval-ms MS     delay between polls             [default: 1000]
";

fn die(msg: &str) -> ! {
    eprintln!("citroen-trace: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn parse_num(args: &mut std::env::Args, flag: &str) -> u64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    v.parse().unwrap_or_else(|_| die(&format!("{flag}: bad number '{v}'")))
}

/// A float flag's value: finite and non-negative, since a NaN or infinite
/// threshold or floor would silently disable the gate it sets.
fn parse_f64(args: &mut std::env::Args, flag: &str) -> f64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => x,
        _ => die(&format!("{flag}: '{v}' is not a finite non-negative number")),
    }
}

/// A whole trace file, strictly: a torn or malformed line is an error.
fn load(path: &str) -> Trace {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read '{path}': {e}")));
    Trace::parse_jsonl(&text).unwrap_or_else(|e| die(&format!("'{path}': {e}")))
}

/// Nanoseconds → fixed-width human milliseconds.
fn ms(ns: u64) -> String {
    format!("{:10.3}ms", ns as f64 / 1e6)
}

fn main() {
    let mut args = std::env::args();
    args.next(); // argv[0]
    match args.next().as_deref() {
        Some("record") => record(args),
        Some("show") => show(args),
        Some("check") => check(args),
        Some("diff") => diff(args),
        Some("flame") => flame(args),
        Some("curve") => curve(args),
        Some("top") => top(args),
        Some(other) => die(&format!("unknown mode '{other}'")),
        None => die("missing mode"),
    }
}

// ---------------------------------------------------------------------------
// record
// ---------------------------------------------------------------------------

fn record(mut args: std::env::Args) {
    let (mut out, mut bench) = (None::<String>, "telecom_gsm".to_string());
    let mut stream_cap = None::<u64>;
    let (mut budget, mut seq_len, mut seed) = (12usize, 16usize, 1u64);
    let mut batch = 1usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| die("--out needs a file"))),
            "--stream-cap" => stream_cap = Some(parse_num(&mut args, "--stream-cap")),
            "--bench" => bench = args.next().unwrap_or_else(|| die("--bench needs a name")),
            "--budget" => budget = parse_num(&mut args, "--budget") as usize,
            "--seq-len" => seq_len = parse_num(&mut args, "--seq-len") as usize,
            "--seed" => seed = parse_num(&mut args, "--seed"),
            "--batch" => batch = parse_num(&mut args, "--batch") as usize,
            other => die(&format!("record: unknown argument '{other}'")),
        }
    }
    let path = out.unwrap_or_else(|| die("record needs --out FILE"));
    let b = citroen_suite::all_benchmarks()
        .into_iter()
        .find(|b| b.name == bench)
        .unwrap_or_else(|| {
            let names: Vec<&str> =
                citroen_suite::all_benchmarks().iter().map(|b| b.name).collect();
            die(&format!("unknown benchmark '{bench}'; have: {}", names.join(", ")))
        });

    let sink = telemetry::StreamSink::create_with_cap(&path, stream_cap)
        .unwrap_or_else(|e| die(&format!("cannot stream to '{path}': {e}")));
    telemetry::install(Box::new(sink));
    let mut task = Task::new(
        b,
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len, seed, ..Default::default() },
    );
    let cfg = CitroenConfig {
        candidates: 24,
        init_random: 6,
        batch,
        seed,
        ..Default::default()
    };
    let (trace, _) = run_citroen(&mut task, budget, &cfg);

    // Dropping the sink joins the writer thread and flushes the file.
    drop(telemetry::disable());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(&format!("cannot read back '{path}': {e}")));
    let telem = Trace::parse_jsonl(&text)
        .unwrap_or_else(|e| die(&format!("streamed trace '{path}': {e}")));
    eprintln!(
        "[record] {bench}: best {:.3e}s over {} measurements; streamed {} lines \
         ({} spans, {} events) to {path}",
        trace.best(),
        task.measurements,
        text.lines().count(),
        telem.spans.len(),
        telem.events.len()
    );
}

// ---------------------------------------------------------------------------
// show
// ---------------------------------------------------------------------------

/// Render a live/partial JSONL stream: the writer may be mid-line and the
/// run may still be going, so parse lossily and summarise what's there.
///
/// `--stream-cap` writers rotate the stream as `FILE.2` (oldest), `FILE.1`,
/// `FILE` (live); show follows the whole chain oldest-first so the summary
/// covers the full run, not just the most recent generation.
fn show(mut args: std::env::Args) {
    let mut file = None::<String>;
    let mut top = 10usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => top = parse_num(&mut args, "--top") as usize,
            other if file.is_none() => file = Some(other.to_string()),
            other => die(&format!("show: unexpected argument '{other}'")),
        }
    }
    let file = file.unwrap_or_else(|| die("show needs a trace file"));
    let mut t = Trace::default();
    let mut skipped = 0usize;
    let mut generations = 0usize;
    for gen in [format!("{file}.2"), format!("{file}.1"), file.clone()] {
        let text = match std::fs::read_to_string(&gen) {
            Ok(text) => text,
            // Rotated generations are optional; only the live file must exist.
            Err(_) if gen != file => continue,
            Err(e) => die(&format!("cannot read '{gen}': {e}")),
        };
        generations += 1;
        let (part, part_skipped) = Trace::parse_jsonl_lossy(&text);
        skipped += part_skipped;
        t.spans.extend(part.spans);
        t.events.extend(part.events);
        for (name, v) in part.counters {
            *t.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in part.hists {
            t.hists.entry(name).or_default().merge(&h);
        }
    }
    println!(
        "{}{}: {} spans, {} events ({} progress), {} counters, {} histograms{}",
        file,
        if generations > 1 { format!(" (+{} rotated)", generations - 1) } else { String::new() },
        t.spans.len(),
        t.events.len(),
        t.events.iter().filter(|e| e.name == "progress").count(),
        t.counters.len(),
        t.hists.len(),
        if skipped > 0 { format!(" ({skipped} unparseable lines skipped)") } else { String::new() }
    );

    let rows = t.aggregate();
    let wall: u64 = t.spans.iter().filter(|s| s.parent == 0).map(|s| s.dur_ns).sum();
    println!("\n== span breakdown (self time, descending; wall = root spans) ==");
    println!("{:<28} {:>7} {:>12} {:>12} {:>7}", "name", "count", "total", "self", "self%");
    for r in &rows {
        let pct = if wall > 0 { 100.0 * r.self_ns as f64 / wall as f64 } else { 0.0 };
        println!("{:<28} {:>7} {} {} {:>6.1}%", r.name, r.count, ms(r.total_ns), ms(r.self_ns), pct);
    }

    println!("\n== hottest {top} spans ==");
    for s in t.hottest(top) {
        println!("{:<28} {}  (id {}, thread {}, +{})", s.name, ms(s.dur_ns), s.id, s.thread, ms(s.start_ns));
    }

    // Sanitizer-scheduling effectiveness, surfaced ahead of the raw counter
    // dump: how often the S1–S11 re-analysis actually ran vs. was provably
    // skippable.
    let san_runs = t.counters.get("citroen.sanitize.runs").copied().unwrap_or(0);
    let san_skips = t.counters.get("citroen.sanitize.skips").copied().unwrap_or(0);
    if san_runs + san_skips > 0 {
        println!("\n== sanitizer ==");
        println!("{:<32} {san_runs}", "citroen.sanitize.runs");
        println!("{:<32} {san_skips}", "citroen.sanitize.skips");
        let rate = 100.0 * san_skips as f64 / (san_runs + san_skips) as f64;
        println!("{:<32} {rate:.1}%", "sanitize skip rate");
    }

    if !t.counters.is_empty() {
        println!("\n== counters ==");
        for (k, v) in &t.counters {
            println!("{k:<32} {v}");
        }
    }
    if !t.hists.is_empty() {
        println!("\n== histograms ==");
        println!("{:<24} {:>8} {:>12} {:>10} {:>10} {:>10}", "name", "count", "mean", "p50", "p99", "max");
        for (k, h) in &t.hists {
            println!(
                "{k:<24} {:>8} {:>12.1} {:>10} {:>10} {:>10}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max
            );
        }
    }
    if let Some(cov) = t.coverage("iteration", &["compile", "measure", "fit", "acquire", "batch"]) {
        println!("\niteration coverage by compile/measure/fit/acquire/batch: {:.1}%", cov * 100.0);
    }
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

fn check(mut args: std::env::Args) {
    let mut file = None::<String>;
    let mut min_cov = 0.9f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--min-coverage" => min_cov = parse_f64(&mut args, "--min-coverage"),
            other if file.is_none() => file = Some(other.to_string()),
            other => die(&format!("check: unexpected argument '{other}'")),
        }
    }
    let t = load(&file.unwrap_or_else(|| die("check needs a trace file")));

    let mut failed = false;
    let mut fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        failed = true;
    };

    // The span kinds a traced tuning run must produce.
    for required in ["citroen.run", "init", "iteration", "compile", "measure", "fit", "acquire", "gp.fit", "sim.execute"] {
        if !t.spans.iter().any(|s| s.name == required) {
            fail(format!("required span kind '{required}' missing"));
        }
    }
    // And the counters the hot paths bump.
    for required in ["task.compilations", "task.measurements", "citroen.iterations", "gp.predict.calls", "acq.evals"] {
        if !t.counters.contains_key(required) {
            fail(format!("required counter '{required}' missing"));
        }
    }
    match t.coverage("iteration", &["compile", "measure", "fit", "acquire", "batch"]) {
        Some(cov) => {
            println!("iteration coverage: {:.1}% (floor {:.0}%)", cov * 100.0, min_cov * 100.0);
            if cov < min_cov {
                fail(format!(
                    "iteration spans only {:.1}% covered by compile/measure/fit/acquire/batch (need {:.0}%)",
                    cov * 100.0,
                    min_cov * 100.0
                ));
            }
        }
        None => fail("no 'iteration' spans to check coverage on".into()),
    }
    // Parent links must resolve (0 or a recorded span id).
    let ids: std::collections::HashSet<u64> = t.spans.iter().map(|s| s.id).collect();
    let dangling = t.spans.iter().filter(|s| s.parent != 0 && !ids.contains(&s.parent)).count();
    if dangling > 0 {
        fail(format!("{dangling} spans have dangling parent ids"));
    }

    if failed {
        std::process::exit(1);
    }
    println!("trace OK: {} spans, {} counters, {} histograms", t.spans.len(), t.counters.len(), t.hists.len());
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Default time floor below which a span name is too noisy to gate on
/// (1 ms), and the default counter floor below which relative deltas are
/// meaningless. Overridable with `--span-floor-ms` / `--counter-floor`.
const DIFF_MIN_NS: u64 = 1_000_000;
const DIFF_MIN_COUNT: u64 = 10;

/// Compare two traces: every span name's self and total time and every
/// counter, old → new. The gate is on each span name's total time and each
/// counter whose OLD value clears its floor: growth past `--threshold`
/// percent marks the row `REGRESSION` and exits 1.
fn diff(mut args: std::env::Args) {
    let mut files: Vec<String> = Vec::new();
    let mut threshold = 25.0f64;
    let mut span_floor_ns = DIFF_MIN_NS;
    let mut counter_floor = DIFF_MIN_COUNT;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => threshold = parse_f64(&mut args, "--threshold"),
            "--span-floor-ms" => {
                span_floor_ns = (parse_f64(&mut args, "--span-floor-ms") * 1e6) as u64
            }
            "--counter-floor" => counter_floor = parse_num(&mut args, "--counter-floor"),
            other if files.len() < 2 => files.push(other.to_string()),
            other => die(&format!("diff: unexpected argument '{other}'")),
        }
    }
    let [old, new] = &files[..] else { die("diff needs OLD and NEW trace files") };
    let (a, b) = (load(old), load(new));

    let into_map = |t: &Trace| -> std::collections::BTreeMap<String, (u64, u64)> {
        t.aggregate().into_iter().map(|r| (r.name, (r.total_ns, r.self_ns))).collect()
    };
    let (ra, rb) = (into_map(&a), into_map(&b));
    let names: std::collections::BTreeSet<&String> = ra.keys().chain(rb.keys()).collect();
    let mut breaches: Vec<String> = Vec::new();
    // The delta column: a percentage for gated rows, `-` under the floor
    // (or from zero, where relative growth is undefined).
    let mut gate = |what: String, old: u64, new: u64, floor: u64| -> String {
        if old == 0 || old < floor {
            return format!("{:>8}", "-");
        }
        let delta = 100.0 * (new as f64 - old as f64) / old as f64;
        if delta > threshold {
            breaches.push(format!("{what} {delta:+.1}%"));
            return format!("{delta:>+7.1}% <-- REGRESSION");
        }
        format!("{delta:>+7.1}%")
    };

    println!("== {old} -> {new} (gate: total time and counters, threshold +{threshold:.0}%) ==");
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "span name", "old self", "new self", "old total", "new total", "delta"
    );
    // Per span: name, then (total, self) nanoseconds in each trace.
    type Row<'n> = (&'n String, (u64, u64), (u64, u64));
    let mut rows: Vec<Row> = names
        .iter()
        .map(|n| (*n, ra.get(*n).copied().unwrap_or((0, 0)), rb.get(*n).copied().unwrap_or((0, 0))))
        .collect();
    rows.sort_by_key(|(_, (_, sa), (_, sb))| std::cmp::Reverse(sa.abs_diff(*sb)));
    for (n, (ta, sa), (tb, sb)) in rows {
        let delta = gate(format!("span '{n}' total time"), ta, tb, span_floor_ns);
        println!("{n:<28} {} {} {} {} {delta}", ms(sa), ms(sb), ms(ta), ms(tb));
    }

    println!("\n{:<32} {:>12} {:>12} {:>8}", "counter", "old", "new", "delta");
    let keys: std::collections::BTreeSet<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    for k in keys {
        let va = a.counters.get(k).copied().unwrap_or(0);
        let vb = b.counters.get(k).copied().unwrap_or(0);
        let delta = gate(format!("counter '{k}'"), va, vb, counter_floor);
        println!("{k:<32} {va:>12} {vb:>12} {delta}");
    }

    if breaches.is_empty() {
        println!("\ndiff OK: nothing grew more than {threshold:.0}%");
    } else {
        eprintln!("\nFAIL: {} regression(s) past +{threshold:.0}%:", breaches.len());
        for b in &breaches {
            eprintln!("  - {b}");
        }
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// flame
// ---------------------------------------------------------------------------

/// Collapsed-stack output: one `name;name;name <self_ns>` line per distinct
/// stack — the input format standard flamegraph renderers consume.
fn flame(mut args: std::env::Args) {
    let file = args.next().unwrap_or_else(|| die("flame needs a trace file"));
    if let Some(extra) = args.next() {
        die(&format!("flame: unexpected argument '{extra}'"));
    }
    let t = load(&file);
    if t.spans.is_empty() {
        die(&format!("'{file}' contains no spans"));
    }
    for (stack, self_ns) in t.flame_stacks() {
        if self_ns > 0 {
            println!("{stack} {self_ns}");
        }
    }
}

// ---------------------------------------------------------------------------
// curve
// ---------------------------------------------------------------------------

/// Convergence table from the tuner's `progress` events. Self-checking: the
/// best-so-far column must be non-increasing (it tracks a running minimum),
/// so a violation means the event stream is corrupt — exit 1.
fn curve(mut args: std::env::Args) {
    let file = args.next().unwrap_or_else(|| die("curve needs a trace file"));
    if let Some(extra) = args.next() {
        die(&format!("curve: unexpected argument '{extra}'"));
    }
    let t = load(&file);
    let o3_ns = t
        .events
        .iter()
        .find(|e| e.name == "run.meta")
        .and_then(|e| e.field("o3_ns"))
        .filter(|&v| v > 0);
    let progress: Vec<_> = t.events.iter().filter(|e| e.name == "progress").collect();
    if progress.is_empty() {
        eprintln!("citroen-trace: '{file}' has no progress events (not a traced tuning run?)");
        std::process::exit(1);
    }

    println!(
        "{:>5} {:>5} {:>8} {:>6} {:>7} {:>12} {:>12} {:>8}",
        "iter", "meas", "compile", "cache", "dropped", "last", "best", "speedup"
    );
    let mut prev_best = u64::MAX;
    let mut monotone = true;
    for e in &progress {
        let best = e.field("best_ns").unwrap_or(0);
        if best > prev_best {
            monotone = false;
        }
        if best > 0 {
            prev_best = best;
        }
        let speedup = match (o3_ns, best) {
            (Some(o3), b) if b > 0 => format!("{:>7.3}x", o3 as f64 / b as f64),
            _ => format!("{:>8}", "-"),
        };
        println!(
            "{:>5} {:>5} {:>8} {:>6} {:>7} {} {} {}",
            e.field("iter").unwrap_or(0),
            e.field("measurements").unwrap_or(0),
            e.field("compilations").unwrap_or(0),
            e.field("cache_hits").unwrap_or(0),
            e.field("coverage_dropped").unwrap_or(0),
            ms(e.field("last_ns").unwrap_or(0)),
            ms(best),
            speedup
        );
    }
    if !monotone {
        eprintln!("FAIL: best-so-far column is not monotone non-increasing");
        std::process::exit(1);
    }
    println!("\n{} progress events; best-so-far column monotone OK", progress.len());
}

// ---------------------------------------------------------------------------
// top
// ---------------------------------------------------------------------------

/// Lenient field accessors for rendering daemon replies: missing fields
/// render as 0 / "" instead of aborting, so `top` degrades gracefully
/// against older daemons.
fn ju(v: &Value, k: &str) -> u64 {
    v.get(k).and_then(Value::as_u64).unwrap_or(0)
}

fn js<'a>(v: &'a Value, k: &str) -> &'a str {
    v.get(k).and_then(Value::as_str).unwrap_or("")
}

/// Live dashboard over a running daemon's `metrics` verb. The exit code is
/// the last poll's health verdict, which makes `--once` a CI SLO gate: one
/// poll, exit 0 healthy / 1 degraded.
fn top(mut args: std::env::Args) {
    let mut socket = None::<String>;
    let mut count: Option<u64> = None; // None = poll forever
    let mut interval_ms = 1000u64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => {
                socket = Some(args.next().unwrap_or_else(|| die("--socket needs a path")))
            }
            "--once" => count = Some(1),
            "--count" => count = Some(parse_num(&mut args, "--count").max(1)),
            "--interval-ms" => interval_ms = parse_num(&mut args, "--interval-ms"),
            other => die(&format!("top: unexpected argument '{other}'")),
        }
    }
    let socket = socket.unwrap_or_else(|| die("top needs --socket PATH"));

    let mut healthy;
    let mut polls = 0u64;
    loop {
        healthy = render_top(&poll_metrics(&socket));
        polls += 1;
        if matches!(count, Some(n) if polls >= n) {
            break;
        }
        println!();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    std::process::exit(if healthy { 0 } else { 1 });
}

/// One `metrics` poll: connect to the daemon socket, send the verb,
/// half-close the write side (the daemon serves the connection until EOF),
/// and read replies until the metrics line arrives.
fn poll_metrics(socket: &str) -> Value {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(socket)
        .unwrap_or_else(|e| die(&format!("top: cannot connect to '{socket}': {e}")));
    stream
        .write_all(b"{\"type\":\"metrics\"}\n")
        .and_then(|_| stream.shutdown(std::net::Shutdown::Write))
        .unwrap_or_else(|e| die(&format!("top: cannot write to '{socket}': {e}")));
    for line in BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| die(&format!("top: read from '{socket}': {e}")));
        let Ok(v) = Value::parse(&line) else { continue };
        match js(&v, "type").to_string().as_str() {
            "metrics" => return v,
            "error" => {
                die(&format!("top: daemon error: {} ({})", js(&v, "msg"), js(&v, "code")))
            }
            _ => {} // job/status chatter from the connection drain
        }
    }
    die(&format!("top: '{socket}' closed without a metrics reply"))
}

/// Render one dashboard frame from a `metrics` reply; returns `true` when
/// the daemon reports `health: ok`.
fn render_top(v: &Value) -> bool {
    let health = js(v, "health");
    println!(
        "citroen-serve: up {:.1}s  health {health}  (window {}ms x {})",
        ju(v, "uptime_ms") as f64 / 1e3,
        ju(v, "window_ms"),
        ju(v, "windows")
    );

    if let Some(slo) = v.get("slo").and_then(Value::as_arr) {
        println!("\n== SLO sentinels ==");
        println!(
            "{:<28} {:>6} {:>12} {:>12} {:>9} {:>9}",
            "name", "kind", "ewma", "threshold", "breached", "breaches"
        );
        for s in slo {
            println!(
                "{:<28} {:>6} {:>12} {:>12} {:>9} {:>9}",
                js(s, "name"),
                js(s, "kind"),
                js(s, "ewma"),
                js(s, "threshold"),
                if ju(s, "breached") != 0 { "YES" } else { "no" },
                ju(s, "breaches")
            );
        }
    }

    if let Some(g) = v.get("global") {
        if let Some(Value::Obj(counters)) = g.get("counters") {
            if !counters.is_empty() {
                println!("\n== global counters ==");
                println!(
                    "{:<24} {:>10} {:>10}  windows (oldest-first)",
                    "name", "total", "rate/s"
                );
                for (name, c) in counters {
                    let win: Vec<String> = c
                        .get("win")
                        .and_then(Value::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .map(|w| w.as_u64().unwrap_or(0).to_string())
                        .collect();
                    println!(
                        "{name:<24} {:>10} {:>10}  [{}]",
                        ju(c, "total"),
                        js(c, "rate"),
                        win.join(" ")
                    );
                }
            }
        }
        if let Some(Value::Obj(gauges)) = g.get("gauges") {
            if !gauges.is_empty() {
                println!("\n== gauges ==");
                for (name, val) in gauges {
                    println!("{name:<24} {}", val.as_u64().unwrap_or(0));
                }
            }
        }
        if let Some(Value::Obj(hists)) = g.get("hists") {
            if !hists.is_empty() {
                println!("\n== global latency (all-time | recent windows) ==");
                println!(
                    "{:<24} {:>8} {:>8} {:>8} {:>8}  {:>8} {:>8}",
                    "name", "count", "p50", "p90", "p99", "r.count", "r.p99"
                );
                for (name, h) in hists {
                    let r = h.get("recent");
                    println!(
                        "{name:<24} {:>8} {:>8} {:>8} {:>8}  {:>8} {:>8}",
                        ju(h, "count"),
                        ju(h, "p50"),
                        ju(h, "p90"),
                        ju(h, "p99"),
                        r.map(|r| ju(r, "count")).unwrap_or(0),
                        r.map(|r| ju(r, "p99")).unwrap_or(0),
                    );
                }
            }
        }
    }

    if let Some(Value::Obj(tenants)) = v.get("tenants") {
        if !tenants.is_empty() {
            println!("\n== tenants ==");
            println!(
                "{:<20} {:>9} {:>7} {:>7} {:>7} {:>9}",
                "tenant", "health", "done", "failed", "cancel", "compiles"
            );
            for (name, t) in tenants {
                let c = t.get("counters");
                let total =
                    |key: &str| c.and_then(|c| c.get(key)).map(|x| ju(x, "total")).unwrap_or(0);
                println!(
                    "{name:<20} {:>9} {:>7} {:>7} {:>7} {:>9}",
                    js(t, "health"),
                    total("jobs.done"),
                    total("jobs.failed"),
                    total("jobs.cancelled"),
                    total("compiles")
                );
            }
        }
    }

    if let Some(recent) = v.get("recent").and_then(Value::as_arr) {
        if !recent.is_empty() {
            println!("\n== recent jobs (newest first) ==");
            println!(
                "{:<12} {:<16} {:>10} {:>9} {:>9} {:>9}",
                "id", "tenant", "exit", "queue_ms", "run_ms", "compiles"
            );
            for j in recent.iter().take(10) {
                println!(
                    "{:<12} {:<16} {:>10} {:>9} {:>9} {:>9}",
                    js(j, "id"),
                    js(j, "tenant"),
                    js(j, "exit"),
                    ju(j, "queue_ms"),
                    ju(j, "run_ms"),
                    ju(j, "compiles")
                );
            }
        }
    }

    health == "ok"
}
