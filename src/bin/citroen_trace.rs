//! `citroen-trace`: capture and analyse telemetry traces of the tuning stack.
//!
//! Capture: **record** runs a small CITROEN tuning run and streams its
//! trace to `--out` through [`telemetry::StreamSink`]. Traces have one
//! format, JSONL (one record per line), which every analysis mode reads.
//!
//! Analysis: **show** (self/total breakdown, hottest spans, counters,
//! histograms), **check** (structural assertions — the tier-1 telemetry
//! gate), **diff** (per-name time and counter deltas between two traces),
//! **tail** (render a live/partial JSONL stream, torn lines tolerated),
//! **flame** (collapsed stacks for standard flamegraph tools), **curve**
//! (per-run convergence table from the tuner's `progress` events).
//!
//! Regression tracking: **baseline** persists a compact per-span-name/counter
//! summary of a trace; **regress** compares a new trace against it with
//! percentage deltas and exits 1 past the threshold — the repo's
//! perf-regression gate.
//!
//! Exits non-zero on parse failures or failed checks.

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
                         [--oracle] [--subsume] [--batch Q]
    citroen-trace show FILE [--top N] [--json]
    citroen-trace check FILE [--min-coverage F]
    citroen-trace diff OLD NEW
    citroen-trace tail FILE
    citroen-trace flame FILE
    citroen-trace curve FILE
    citroen-trace baseline FILE [--out FILE]
    citroen-trace regress FILE --baseline FILE [--threshold PCT]
                          [--span-floor-ms MS] [--counter-floor N]
    citroen-trace top --socket PATH [--once | --count N] [--interval-ms MS]

MODES:
    record           run a traced tuning run, streaming its JSONL trace live
                     to --out (required)
    show             breakdown table + hottest spans + counters + histograms
                     (--json: machine-readable summary, exit codes unchanged)
    check            assert expected span kinds and iteration coverage
    diff             per-name time deltas and counter deltas between traces
    tail             render a live/partial JSONL stream (torn lines skipped;
                     rotated FILE.1/FILE.2 generations followed oldest-first)
    flame            collapsed flame stacks ('a;b;c <self_ns>' per line)
    curve            convergence table from the tuner's progress events;
                     exits 1 if the best-so-far column is not monotone
    baseline         persist a per-span-name/counter summary for regress
    regress          compare a trace against a stored baseline; exits 1 when
                     any tracked time or counter grew past the threshold
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
    --oracle         enable oracle pruning (canonicalizer counters)
    --subsume        enable work-class subsumption collapse
    --batch Q        batched measurement lookahead        [default: 1]
    --stream-cap N   rotate the trace at ~N bytes per file, keeping
                     FILE.1 and FILE.2 (disk bounded at ~3 caps)

REGRESS OPTIONS:
    --threshold PCT      max tolerated increase, percent        [default: 25]
    --span-floor-ms MS   ignore span names whose baseline total is under
                         MS milliseconds (too noisy to gate on)  [default: 1]
    --counter-floor N    ignore counters whose baseline is under N
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
        Some("tail") => tail(args),
        Some("flame") => flame(args),
        Some("curve") => curve(args),
        Some("baseline") => baseline(args),
        Some("regress") => regress(args),
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
    let (mut oracle, mut subsume, mut batch) = (false, false, 1usize);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| die("--out needs a file"))),
            "--stream-cap" => stream_cap = Some(parse_num(&mut args, "--stream-cap")),
            "--bench" => bench = args.next().unwrap_or_else(|| die("--bench needs a name")),
            "--budget" => budget = parse_num(&mut args, "--budget") as usize,
            "--seq-len" => seq_len = parse_num(&mut args, "--seq-len") as usize,
            "--seed" => seed = parse_num(&mut args, "--seed"),
            "--oracle" => oracle = true,
            "--subsume" => subsume = true,
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
        oracle_prune: oracle,
        subsume_collapse: subsume,
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

fn show(mut args: std::env::Args) {
    let mut file = None::<String>;
    let mut top = 10usize;
    let mut json = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => top = parse_num(&mut args, "--top") as usize,
            "--json" => json = true,
            other if file.is_none() => file = Some(other.to_string()),
            other => die(&format!("show: unexpected argument '{other}'")),
        }
    }
    let t = load(&file.unwrap_or_else(|| die("show needs a trace file")));
    if json {
        println!("{}", show_json(&t, top).emit_pretty());
        return;
    }

    let rows = t.aggregate();
    let wall: u64 = t.spans.iter().filter(|s| s.parent == 0).map(|s| s.dur_ns).sum();
    println!("== span breakdown (self time, descending; wall = root spans) ==");
    println!("{:<28} {:>7} {:>12} {:>12} {:>7}", "name", "count", "total", "self", "self%");
    for r in &rows {
        let pct = if wall > 0 { 100.0 * r.self_ns as f64 / wall as f64 } else { 0.0 };
        println!("{:<28} {:>7} {} {} {:>6.1}%", r.name, r.count, ms(r.total_ns), ms(r.self_ns), pct);
    }

    println!("\n== hottest {top} spans ==");
    for s in t.hottest(top) {
        println!("{:<28} {}  (id {}, thread {}, +{})", s.name, ms(s.dur_ns), s.id, s.thread, ms(s.start_ns));
    }

    // Sanitizer-scheduling and canonicalizer effectiveness, surfaced ahead
    // of the raw counter dump: how often the S1–S11 re-analysis actually ran
    // vs. was provably skippable, and how many passes the subsumption matrix
    // dropped before compilation.
    let san_runs = t.counters.get("citroen.sanitize.runs").copied().unwrap_or(0);
    let san_skips = t.counters.get("citroen.sanitize.skips").copied().unwrap_or(0);
    let subsume_dropped = t.counters.get("canon.subsume_dropped").copied().unwrap_or(0);
    if san_runs + san_skips + subsume_dropped > 0 {
        println!("\n== sanitizer / canonicalizer ==");
        println!("{:<32} {san_runs}", "citroen.sanitize.runs");
        println!("{:<32} {san_skips}", "citroen.sanitize.skips");
        if san_runs + san_skips > 0 {
            let rate = 100.0 * san_skips as f64 / (san_runs + san_skips) as f64;
            println!("{:<32} {rate:.1}%", "sanitize skip rate");
        }
        println!("{:<32} {subsume_dropped}", "canon.subsume_dropped");
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

/// The machine-readable `show` summary, mirroring `citroen-analyze --json`:
/// a `mode`-tagged object with the same information as the text tables.
/// Fractional values travel as `f64::to_bits` (`*_bits`), matching the serve
/// protocol convention.
fn show_json(t: &Trace, top: usize) -> Value {
    let wall: u64 = t.spans.iter().filter(|s| s.parent == 0).map(|s| s.dur_ns).sum();
    let spans = Value::Arr(
        t.aggregate()
            .into_iter()
            .map(|r| {
                Value::Obj(vec![
                    ("name".into(), Value::str(r.name)),
                    ("count".into(), Value::U64(r.count)),
                    ("total_ns".into(), Value::U64(r.total_ns)),
                    ("self_ns".into(), Value::U64(r.self_ns)),
                ])
            })
            .collect(),
    );
    let hottest = Value::Arr(
        t.hottest(top)
            .into_iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::str(s.name.clone())),
                    ("dur_ns".into(), Value::U64(s.dur_ns)),
                    ("id".into(), Value::U64(s.id)),
                    ("thread".into(), Value::U64(s.thread)),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                ])
            })
            .collect(),
    );
    let counters =
        Value::Obj(t.counters.iter().map(|(k, v)| (k.clone(), Value::U64(*v))).collect());
    let hists = Value::Obj(
        t.hists
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::Obj(vec![
                        ("count".into(), Value::U64(h.count)),
                        ("mean_bits".into(), Value::U64(h.mean().to_bits())),
                        ("p50".into(), Value::U64(h.quantile(0.5))),
                        ("p99".into(), Value::U64(h.quantile(0.99))),
                        ("max".into(), Value::U64(h.max)),
                    ]),
                )
            })
            .collect(),
    );
    // The sanitize/subsume effectiveness table from the text output.
    let get = |k: &str| t.counters.get(k).copied().unwrap_or(0);
    let sanitize = Value::Obj(vec![
        ("runs".into(), Value::U64(get("citroen.sanitize.runs"))),
        ("skips".into(), Value::U64(get("citroen.sanitize.skips"))),
        ("subsume_dropped".into(), Value::U64(get("canon.subsume_dropped"))),
    ]);
    let mut fields = vec![
        ("mode".into(), Value::str("show")),
        ("wall_ns".into(), Value::U64(wall)),
        ("spans".into(), spans),
        ("hottest".into(), hottest),
        ("sanitize".into(), sanitize),
        ("counters".into(), counters),
        ("histograms".into(), hists),
    ];
    if let Some(cov) =
        t.coverage("iteration", &["compile", "measure", "fit", "acquire", "batch"])
    {
        fields.push(("iteration_coverage_bits".into(), Value::U64(cov.to_bits())));
    }
    Value::Obj(fields)
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

fn check(mut args: std::env::Args) {
    let mut file = None::<String>;
    let mut min_cov = 0.9f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--min-coverage" => {
                let v = args.next().unwrap_or_else(|| die("--min-coverage needs a value"));
                min_cov = v.parse().unwrap_or_else(|_| die("--min-coverage: bad number"));
            }
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

fn diff(mut args: std::env::Args) {
    let old = args.next().unwrap_or_else(|| die("diff needs OLD and NEW trace files"));
    let new = args.next().unwrap_or_else(|| die("diff needs OLD and NEW trace files"));
    if let Some(extra) = args.next() {
        die(&format!("diff: unexpected argument '{extra}'"));
    }
    let (a, b) = (load(&old), load(&new));

    let into_map = |t: &Trace| -> std::collections::BTreeMap<String, (u64, u64, u64)> {
        t.aggregate().into_iter().map(|r| (r.name, (r.count, r.total_ns, r.self_ns))).collect()
    };
    let (ra, rb) = (into_map(&a), into_map(&b));
    let names: std::collections::BTreeSet<&String> = ra.keys().chain(rb.keys()).collect();

    println!("== span time deltas (new - old, by self time) ==");
    println!("{:<28} {:>14} {:>14} {:>14}", "name", "old self", "new self", "delta");
    let mut rows: Vec<(&String, u64, u64)> = names
        .iter()
        .map(|n| {
            let sa = ra.get(*n).map(|r| r.2).unwrap_or(0);
            let sb = rb.get(*n).map(|r| r.2).unwrap_or(0);
            (*n, sa, sb)
        })
        .collect();
    rows.sort_by_key(|(_, sa, sb)| std::cmp::Reverse(sa.abs_diff(*sb)));
    for (n, sa, sb) in rows {
        let delta = sb as i128 - sa as i128;
        println!("{n:<28} {} {} {:>+13.3}ms", ms(sa), ms(sb), delta as f64 / 1e6);
    }

    println!("\n== counter deltas (new - old) ==");
    let keys: std::collections::BTreeSet<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    for k in keys {
        let va = a.counters.get(k).copied().unwrap_or(0);
        let vb = b.counters.get(k).copied().unwrap_or(0);
        if va != vb {
            println!("{k:<32} {va:>12} -> {vb:<12} ({:+})", vb as i128 - va as i128);
        } else {
            println!("{k:<32} {va:>12} (unchanged)");
        }
    }
}

// ---------------------------------------------------------------------------
// tail
// ---------------------------------------------------------------------------

/// Render a live/partial JSONL stream: the writer may be mid-line and the
/// run may still be going, so parse lossily and summarise what's there.
///
/// `--stream-cap` writers rotate the stream as `FILE.2` (oldest), `FILE.1`,
/// `FILE` (live); tail follows the whole chain oldest-first so the summary
/// covers the full run, not just the most recent generation.
fn tail(mut args: std::env::Args) {
    let file = args.next().unwrap_or_else(|| die("tail needs a trace file"));
    if let Some(extra) = args.next() {
        die(&format!("tail: unexpected argument '{extra}'"));
    }
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
        "{}{}: {} spans, {} events, {} counters, {} histograms{}",
        file,
        if generations > 1 { format!(" (+{} rotated)", generations - 1) } else { String::new() },
        t.spans.len(),
        t.events.len(),
        t.counters.len(),
        t.hists.len(),
        if skipped > 0 { format!(" ({skipped} unparseable lines skipped)") } else { String::new() }
    );
    println!("\n== span breakdown (self time, descending) ==");
    println!("{:<28} {:>7} {:>12} {:>12}", "name", "count", "total", "self");
    for r in t.aggregate() {
        println!("{:<28} {:>7} {} {}", r.name, r.count, ms(r.total_ns), ms(r.self_ns));
    }
    let progress: Vec<_> = t.events.iter().filter(|e| e.name == "progress").collect();
    if let Some(last) = progress.last() {
        println!("\n== last {} progress events (of {}) ==", progress.len().min(5), progress.len());
        for e in progress.iter().rev().take(5).rev() {
            println!(
                "iter {:>4}  meas {:>4}  compiles {:>5}  best {}",
                e.field("iter").unwrap_or(0),
                e.field("measurements").unwrap_or(0),
                e.field("compilations").unwrap_or(0),
                ms(e.field("best_ns").unwrap_or(0)),
            );
        }
        let _ = last;
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
// baseline / regress
// ---------------------------------------------------------------------------

/// Serialise the regression-tracking summary of a trace: per-span-name
/// aggregates plus counter totals. Deliberately excludes wall-clock-free
/// quantities only (counts *and* times are kept — `regress` decides what's
/// stable enough to compare).
fn summary_json(t: &Trace) -> Value {
    let names = Value::Arr(
        t.aggregate()
            .into_iter()
            .map(|r| {
                Value::Obj(vec![
                    ("name".into(), Value::str(r.name)),
                    ("count".into(), Value::U64(r.count)),
                    ("total_ns".into(), Value::U64(r.total_ns)),
                    ("self_ns".into(), Value::U64(r.self_ns)),
                ])
            })
            .collect(),
    );
    let counters = Value::Obj(
        t.counters.iter().map(|(k, v)| (k.clone(), Value::U64(*v))).collect(),
    );
    Value::Obj(vec![
        ("version".into(), Value::U64(1)),
        ("names".into(), names),
        ("counters".into(), counters),
    ])
}

fn baseline(mut args: std::env::Args) {
    let mut file = None::<String>;
    let mut out = None::<String>;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| die("--out needs a file"))),
            other if file.is_none() => file = Some(other.to_string()),
            other => die(&format!("baseline: unexpected argument '{other}'")),
        }
    }
    let t = load(&file.unwrap_or_else(|| die("baseline needs a trace file")));
    let text = summary_json(&t).emit_pretty();
    match out {
        Some(path) => {
            std::fs::write(&path, &text)
                .unwrap_or_else(|e| die(&format!("cannot write '{path}': {e}")));
            eprintln!("[baseline] wrote {} span names, {} counters to {path}",
                t.aggregate().len(), t.counters.len());
        }
        None => println!("{text}"),
    }
}

/// Default time floor below which a span name is too noisy to gate on
/// (1 ms), and the default counter floor below which relative deltas are
/// meaningless. Overridable with `--span-floor-ms` / `--counter-floor`.
const REGRESS_MIN_NS: u64 = 1_000_000;
const REGRESS_MIN_COUNT: u64 = 10;

fn regress(mut args: std::env::Args) {
    let mut file = None::<String>;
    let mut base_path = None::<String>;
    let mut threshold = 25.0f64;
    let mut span_floor_ns = REGRESS_MIN_NS;
    let mut counter_floor = REGRESS_MIN_COUNT;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => {
                base_path = Some(args.next().unwrap_or_else(|| die("--baseline needs a file")))
            }
            "--threshold" => {
                let v = args.next().unwrap_or_else(|| die("--threshold needs a value"));
                threshold = v.parse().unwrap_or_else(|_| die("--threshold: bad number"));
            }
            "--span-floor-ms" => {
                let v = args.next().unwrap_or_else(|| die("--span-floor-ms needs a value"));
                let ms: f64 = v.parse().unwrap_or_else(|_| die("--span-floor-ms: bad number"));
                if !(ms >= 0.0) {
                    die("--span-floor-ms: must be non-negative");
                }
                span_floor_ns = (ms * 1e6) as u64;
            }
            "--counter-floor" => counter_floor = parse_num(&mut args, "--counter-floor"),
            other if file.is_none() => file = Some(other.to_string()),
            other => die(&format!("regress: unexpected argument '{other}'")),
        }
    }
    let t = load(&file.unwrap_or_else(|| die("regress needs a trace file")));
    let base_path = base_path.unwrap_or_else(|| die("regress needs --baseline FILE"));
    let base_text = std::fs::read_to_string(&base_path)
        .unwrap_or_else(|e| die(&format!("cannot read '{base_path}': {e}")));
    let base = Value::parse(&base_text)
        .unwrap_or_else(|e| die(&format!("'{base_path}': {e}")));
    if base.get("version").and_then(Value::as_u64) != Some(1) {
        die(&format!("'{base_path}' is not a version-1 baseline summary"));
    }

    let new_names: std::collections::BTreeMap<String, u64> =
        t.aggregate().into_iter().map(|r| (r.name, r.total_ns)).collect();
    let mut breaches: Vec<String> = Vec::new();
    let pct = |old: u64, new: u64| -> f64 { 100.0 * (new as f64 - old as f64) / old as f64 };

    println!("== regress vs {base_path} (threshold +{threshold:.0}%) ==");
    println!("{:<28} {:>14} {:>14} {:>8}", "span name (total)", "baseline", "current", "delta");
    for entry in base.get("names").and_then(Value::as_arr).unwrap_or(&[]) {
        let (Some(name), Some(old)) = (
            entry.get("name").and_then(Value::as_str),
            entry.get("total_ns").and_then(Value::as_u64),
        ) else {
            die(&format!("'{base_path}': malformed names entry"));
        };
        if old < span_floor_ns {
            continue; // too small to gate on
        }
        let new = new_names.get(name).copied().unwrap_or(0);
        let delta = pct(old, new);
        let mark = if delta > threshold { " <-- REGRESSION" } else { "" };
        println!("{name:<28} {} {} {delta:>+7.1}%{mark}", ms(old), ms(new));
        if delta > threshold {
            breaches.push(format!("span '{name}' total time {delta:+.1}%"));
        }
    }
    println!("\n{:<28} {:>14} {:>14} {:>8}", "counter", "baseline", "current", "delta");
    if let Some(Value::Obj(pairs)) = base.get("counters") {
        for (name, v) in pairs {
            let old = v
                .as_u64()
                .unwrap_or_else(|| die(&format!("'{base_path}': counter '{name}' not integer")));
            if old < counter_floor {
                continue;
            }
            let new = t.counters.get(name).copied().unwrap_or(0);
            let delta = pct(old, new);
            let mark = if delta > threshold { " <-- REGRESSION" } else { "" };
            println!("{name:<28} {old:>14} {new:>14} {delta:>+7.1}%{mark}");
            if delta > threshold {
                breaches.push(format!("counter '{name}' {delta:+.1}%"));
            }
        }
    }

    if breaches.is_empty() {
        println!("\nregress OK: nothing grew more than {threshold:.0}%");
    } else {
        eprintln!("\nFAIL: {} regression(s) past +{threshold:.0}%:", breaches.len());
        for b in &breaches {
            eprintln!("  - {b}");
        }
        std::process::exit(1);
    }
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
