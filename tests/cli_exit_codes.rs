//! Exit-code contract of the `citroen-analyze` and `citroen-trace` binaries:
//! 0 on a clean run, 1 when findings (lint diagnostics, oracle violations,
//! trace-check failures, regressions) exist, 2 on usage errors. CI scripts
//! branch on these codes, so they are pinned here against the real binaries
//! rather than the library functions behind them.

use citroen_ir::builder::FunctionBuilder;
use citroen_ir::inst::Operand;
use citroen_ir::module::Module;
use citroen_ir::types::I64;
use std::path::PathBuf;
use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_citroen-analyze"))
        .args(args)
        .output()
        .expect("spawn citroen-analyze")
}

fn temp_ir(name: &str, m: &Module) -> PathBuf {
    let path = std::env::temp_dir().join(format!("citroen-exit-{}-{name}.ir", std::process::id()));
    std::fs::write(&path, citroen_ir::print::print_module(m)).expect("write temp IR");
    path
}

/// A module with a provable dead store (the only write to a non-escaping
/// alloca that is never read).
fn dirty_module() -> Module {
    let mut m = Module::new("dirty");
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    let slot = b.alloca(8);
    b.store(I64, b.param(0), slot);
    b.ret(Some(Operand::imm64(0)));
    m.add_func(b.finish());
    m
}

fn clean_module() -> Module {
    let mut m = Module::new("clean");
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    b.ret(Some(b.param(0)));
    m.add_func(b.finish());
    m
}

#[test]
fn usage_error_exits_2() {
    let out = analyze(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument"), "{err}");

    // A flag missing its value is also a usage error.
    assert_eq!(analyze(&["--ir"]).status.code(), Some(2));
    assert_eq!(analyze(&["--lint", "--ir", "/no/such/file.ir"]).status.code(), Some(2));
}

#[test]
fn lint_ir_exit_codes_follow_findings() {
    // A module with a provable dead store → findings → exit 1.
    let dirty = temp_ir("dirty", &dirty_module());
    let out = analyze(&["--lint", "--ir", dirty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dead-store"), "{stdout}");

    // The same module has only Warning findings, so --errors-only is clean.
    let strict = analyze(&["--lint", "--errors-only", "--ir", dirty.to_str().unwrap()]);
    assert_eq!(strict.status.code(), Some(0));

    // A clean module → exit 0.
    let clean = temp_ir("clean", &clean_module());
    let out = analyze(&["--lint", "--ir", clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));

    let _ = std::fs::remove_file(dirty);
    let _ = std::fs::remove_file(clean);
}

#[test]
fn lint_json_keeps_exit_codes_and_is_parseable() {
    // --json must not change the exit-code contract: findings → 1, clean → 0.
    let dirty = temp_ir("dirty-json", &dirty_module());
    let out = analyze(&["--lint", "--json", "--ir", dirty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = citroen_rt::json::Value::parse(&stdout)
        .unwrap_or_else(|e| panic!("bad lint JSON ({e}):\n{stdout}"));
    assert_eq!(doc.get("mode").and_then(|v| v.as_str()), Some("lint"));
    let diags = doc.get("diagnostics").and_then(|v| v.as_arr()).expect("diagnostics array");
    assert!(!diags.is_empty());
    assert_eq!(diags[0].get("code").and_then(|v| v.as_str()), Some("dead-store"));
    assert_eq!(doc.get("total").and_then(|v| v.as_u64()), Some(diags.len() as u64));

    let clean = temp_ir("clean-json", &clean_module());
    let out = analyze(&["--lint", "--json", "--ir", clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = citroen_rt::json::Value::parse(&stdout).expect("clean lint JSON");
    assert_eq!(doc.get("total").and_then(|v| v.as_u64()), Some(0));

    let _ = std::fs::remove_file(dirty);
    let _ = std::fs::remove_file(clean);
}

#[test]
fn oracle_json_wraps_campaign_and_graph() {
    let out = analyze(&["oracle", "--smoke", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = citroen_rt::json::Value::parse(&stdout)
        .unwrap_or_else(|e| panic!("bad oracle JSON ({e}):\n{stdout}"));
    assert_eq!(doc.get("mode").and_then(|v| v.as_str()), Some("oracle"));
    let campaign = doc.get("campaign").expect("campaign object");
    assert!(campaign.get("trials").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
    assert_eq!(
        campaign.get("violations").and_then(|v| v.as_arr()).map(<[_]>::len),
        Some(0)
    );
    // The embedded graph subtree must still round-trip as a graph document.
    let graph = citroen_analyze::InteractionGraph::from_json(
        &doc.get("graph").expect("graph object").emit_pretty(),
    )
    .expect("embedded graph round-trips");
    assert!(!graph.passes.is_empty());
}

#[test]
fn oracle_smoke_is_clean_and_emits_the_graph() {
    let out = analyze(&["oracle", "--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // The graph JSON goes to stdout and must round-trip.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let graph = citroen_analyze::InteractionGraph::from_json(&stdout)
        .unwrap_or_else(|e| panic!("bad graph JSON ({e}):\n{stdout}"));
    assert!(!graph.passes.is_empty());
    // The summary (stderr) must witness that verdicts were really executed.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot-fire verdict(s) executed"), "{err}");
    assert!(err.contains("0 violation(s)"), "{err}");
}

#[test]
fn oracle_with_lying_pass_exits_1() {
    let out = analyze(&["oracle", "--smoke", "--with-lying"]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("oracle violation: lying-precondition"), "{err}");
    // ddmin must have shrunk the reproducer to the lying pass alone.
    assert!(err.contains("reduced sequence: lying-precondition"), "{err}");
}

#[test]
fn subsume_with_lying_pass_exits_1() {
    let args = "subsume --with-lying --modules 3 --seqs 8 --max-len 16 --seed 28";
    let out = analyze(&args.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    // ddmin must have shrunk every reproducer to the lie plus its victim.
    let reduced: Vec<&str> =
        err.lines().filter_map(|l| l.strip_prefix("reduced sequence: ")).collect();
    assert_eq!(reduced.len(), 4, "{err}");
    for seq in reduced {
        assert!(seq.starts_with("lying-subsumption,"), "{seq}");
    }
}

#[test]
fn smoke_budget_keeps_explicit_flags() {
    // `--smoke` picks the base budget; an explicit flag applies on top.
    let out = analyze(&["--smoke", "--seed", "5"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("4 modules x 3 sequences (max len 10, seed 0x5)"), "{err}");

    // Without a --seed, mine-edges --smoke runs MineConfig::smoke()'s seed.
    let out = analyze(&["mine-edges", "--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.lines().next().is_some_and(|l| l.ends_with("seed 0x7")), "{err}");
}

// ---------------------------------------------------------------------------
// citroen-trace
// ---------------------------------------------------------------------------

fn trace_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_citroen-trace"))
        .args(args)
        .output()
        .expect("spawn citroen-trace")
}

fn temp_text(name: &str, text: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("citroen-exit-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write temp file");
    path
}

/// A hand-built streamed trace of a plausible tuning run: every span kind
/// and counter `check` requires, spans listed in completion order (children
/// before parents — the streaming order), run.meta + improving progress
/// events for `curve`, and all span totals above the 1 ms floor `diff`
/// compares. `scale` multiplies durations, to fabricate a perturbed run.
fn tuning_jsonl(scale: u64) -> String {
    let s = scale;
    let spans = [
        (2u64, 1u64, "init", 0u64, 1_000_000u64),
        (4, 3, "compile", 1_000_000, 4_000_000),
        (9, 5, "sim.execute", 5_000_000, 2_500_000),
        (5, 3, "measure", 5_000_000, 3_000_000),
        (8, 6, "gp.fit", 8_000_000, 900_000),
        (6, 3, "fit", 8_000_000, 1_000_000),
        (7, 3, "acquire", 9_000_000, 1_000_000),
        (3, 1, "iteration", 1_000_000, 9_500_000),
        (1, 0, "citroen.run", 0, 11_000_000),
    ];
    let mut out = String::from("{\"t\":\"meta\",\"version\":1}\n");
    for (id, parent, name, start, dur) in spans {
        out += &format!(
            "{{\"t\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\
             \"thread\":0,\"start_ns\":{},\"dur_ns\":{}}}\n",
            start * s,
            dur * s
        );
    }
    for (name, delta) in [
        ("task.compilations", 40u64),
        ("task.measurements", 50),
        ("citroen.iterations", 12),
        ("gp.predict.calls", 100),
        ("acq.evals", 200),
    ] {
        out += &format!("{{\"t\":\"counter\",\"name\":\"{name}\",\"delta\":{delta}}}\n");
    }
    out += "{\"t\":\"event\",\"name\":\"run.meta\",\"span\":1,\"thread\":0,\"at_ns\":1,\
            \"fields\":{\"o3_ns\":2000000}}\n";
    for (iter, last, best) in [(0u64, 1_500_000u64, 1_500_000u64), (1, 1_600_000, 1_500_000), (2, 1_200_000, 1_200_000)] {
        out += &format!(
            "{{\"t\":\"event\",\"name\":\"progress\",\"span\":3,\"thread\":0,\"at_ns\":{},\
             \"fields\":{{\"iter\":{iter},\"measurements\":{},\"compilations\":{},\
             \"cache_hits\":{iter},\"coverage_dropped\":0,\"last_ns\":{last},\"best_ns\":{best}}}}}\n",
            (iter + 2) * 2_000_000,
            iter + 4,
            iter + 4
        );
    }
    out
}

/// `tuning_jsonl(1)` (19 lines) plus a torn 20th line, as a crashed writer
/// leaves it.
fn torn_jsonl() -> String {
    tuning_jsonl(1) + "{\"t\":\"span\",\"id\":10,\"par"
}

#[test]
fn trace_check_exits_2_on_a_torn_line_and_names_it() {
    let file = temp_text("torn-check.jsonl", &torn_jsonl());
    let out = trace_bin(&["check", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 20"), "torn line not named: {stderr}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn trace_check_exits_1_when_a_required_span_kind_is_missing() {
    let without_fit: String = tuning_jsonl(1)
        .lines()
        .filter(|l| !l.contains("\"gp.fit\""))
        .map(|l| l.to_string() + "\n")
        .collect();
    let file = temp_text("no-gp-fit.jsonl", &without_fit);
    let out = trace_bin(&["check", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("required span kind 'gp.fit' missing"), "{stderr}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn trace_usage_errors_exit_2() {
    assert_eq!(trace_bin(&[]).status.code(), Some(2));
    let out = trace_bin(&["no-such-mode"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"), "usage not printed");
    // A mode missing its required file argument is also a usage error.
    assert_eq!(trace_bin(&["check"]).status.code(), Some(2));
    assert_eq!(trace_bin(&["diff"]).status.code(), Some(2));
}

#[test]
fn trace_record_writes_a_trace_that_check_accepts() {
    let file = std::env::temp_dir()
        .join(format!("citroen-exit-{}-record.jsonl", std::process::id()));
    let path = file.to_str().unwrap();
    let out = trace_bin(&["record", "--budget", "10", "--out", path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = trace_bin(&["check", path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace OK"));
    let _ = std::fs::remove_file(file);

    // The output file is required.
    let out = trace_bin(&["record", "--budget", "10"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"), "usage error names --out");
}

#[test]
fn trace_check_and_curve_accept_a_streamed_tuning_trace() {
    let good = temp_text("good.jsonl", &tuning_jsonl(1));
    let path = good.to_str().unwrap();

    let out = trace_bin(&["check", path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace OK"));

    let out = trace_bin(&["curve", path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("monotone OK"), "{stdout}");
    assert!(stdout.contains("1.667x"), "speedup column missing: {stdout}"); // 2ms / 1.2ms

    // flame and show both read the same file.
    let out = trace_bin(&["flame", path]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("citroen.run;iteration;compile"), "{stdout}");
    let out = trace_bin(&["show", path]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("progress"), "show shows progress");

    let _ = std::fs::remove_file(good);
}

#[test]
fn trace_show_surfaces_sanitizer_and_canonicalizer_counters() {
    // A hand-built trace carrying the sanitizer-scheduling and canonicalizer
    // counters must surface them in show's dedicated summary block (with the
    // derived skip rate), exit 0, and keep the block absent when the
    // counters are missing.
    let mut with = tuning_jsonl(1);
    for (name, delta) in
        [("citroen.sanitize.runs", 30u64), ("citroen.sanitize.skips", 10), ("canon.subsume_dropped", 7)]
    {
        with += &format!("{{\"t\":\"counter\",\"name\":\"{name}\",\"delta\":{delta}}}\n");
    }
    let file = temp_text("sanitize-counters.jsonl", &with);
    let out = trace_bin(&["show", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== sanitizer / canonicalizer =="), "{stdout}");
    assert!(stdout.contains("citroen.sanitize.runs"), "{stdout}");
    assert!(stdout.contains("citroen.sanitize.skips"), "{stdout}");
    assert!(stdout.contains("canon.subsume_dropped"), "{stdout}");
    assert!(stdout.contains("25.0%"), "skip rate 10/40 missing: {stdout}");
    let _ = std::fs::remove_file(file);

    let without = temp_text("plain-counters.jsonl", &tuning_jsonl(1));
    let out = trace_bin(&["show", without.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("sanitizer / canonicalizer"), "{stdout}");
    let _ = std::fs::remove_file(without);
}

#[test]
fn trace_tail_follows_rotated_stream_generations() {
    // A `--stream-cap` writer rotates FILE → FILE.1 → FILE.2; show must
    // merge the whole chain oldest-first, not just the live file.
    let live = temp_text("rotated.jsonl", &tuning_jsonl(1));
    let path = live.to_str().unwrap();
    std::fs::write(format!("{path}.1"), tuning_jsonl(2)).unwrap();
    std::fs::write(format!("{path}.2"), tuning_jsonl(3)).unwrap();

    let out = trace_bin(&["show", path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 3 generations × 9 spans each, and the header names the rotated files.
    assert!(stdout.contains("(+2 rotated)"), "{stdout}");
    assert!(stdout.contains("27 spans"), "{stdout}");

    // Without rotated siblings the live file alone is summarised, as before.
    std::fs::remove_file(format!("{path}.1")).unwrap();
    std::fs::remove_file(format!("{path}.2")).unwrap();
    let out = trace_bin(&["show", path]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("(+"), "rotated marker without rotated files: {stdout}");
    assert!(stdout.contains("9 spans"), "{stdout}");

    let _ = std::fs::remove_file(live);
}

#[test]
fn trace_curve_exits_1_when_best_so_far_regresses() {
    // Flip the progress stream so best-so-far gets *worse*: corrupt.
    let broken = tuning_jsonl(1)
        .replace("\"best_ns\":1200000", "\"best_ns\":1800000");
    let file = temp_text("nonmono.jsonl", &broken);
    let out = trace_bin(&["curve", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not monotone"), "wrong failure");
    let _ = std::fs::remove_file(file);
}

#[test]
fn trace_regress_exit_codes_follow_the_threshold() {
    let good = temp_text("base-run.jsonl", &tuning_jsonl(1));
    let slow = temp_text("slow-run.jsonl", &tuning_jsonl(3)); // 3× every span
    let (good_s, slow_s) = (good.to_str().unwrap(), slow.to_str().unwrap());

    // Same run vs itself: no deltas, exit 0.
    let out = trace_bin(&["diff", good_s, good_s]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));

    // A 3×-slower run blows through the default 25% threshold: exit 1.
    let out = trace_bin(&["diff", good_s, slow_s]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");

    // ... but a generous threshold tolerates it.
    let out = trace_bin(&["diff", good_s, slow_s, "--threshold", "250"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));

    for f in [good, slow] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn trace_show_skips_a_torn_line() {
    let file = temp_text("torn-show.jsonl", &torn_jsonl());
    let out = trace_bin(&["show", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 unparseable lines skipped"), "{stdout}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn float_flags_reject_nan_and_inf() {
    // A NaN threshold or floor compares false against everything, which
    // would silently disable the gate it sets.
    let good = temp_text("nan-flags.jsonl", &tuning_jsonl(1));
    let path = good.to_str().unwrap();
    let out = trace_bin(&["diff", path, path, "--threshold", "nan"]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stdout));
    let out = trace_bin(&["check", path, "--min-coverage", "inf"]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stdout));
    let _ = std::fs::remove_file(good);

    let out = Command::new(env!("CARGO_BIN_EXE_citroen-serve"))
        .args(["--slo-run-ms", "nan"])
        .output()
        .expect("spawn citroen-serve");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}
