//! `citroen-analyze`: the static-analysis and translation-validation front
//! end. Four modes:
//!
//! * **lint** (`--lint`): run the dataflow lint suite over the shipped
//!   benchmark suite (optionally after `-O3`), or over a single IR file with
//!   `--ir FILE`, and print diagnostics.
//! * **validate** (`validate`): run the shipped benchmark suite through the
//!   `-O3` pipeline with the per-pass translation-validation sanitizer armed
//!   (S1–S11, value-level and alias-aware included) and report any
//!   contradiction.
//! * **alias-oracle** (`alias-oracle`): soundness-fuzz the alias analysis —
//!   every same-block `No`/`Must` answer on generated modules (raw and after
//!   random pipelines) is checked against a concrete interpretation that
//!   records every dynamic access address; violating modules are reduced.
//! * **fuzz** (default, `--smoke` for the 30-second tier-1 budget): random
//!   generated modules × random pass sequences through the verifier, the
//!   sanitizer, an interpreter differential, and the compile path's own
//!   checks, delta-debugging any failure down to a minimal pass sequence +
//!   module reproducer.
//!
//! Progress, violations and summaries go to stderr; stdout carries only
//! machine output (`--json` documents, lint findings). Exits non-zero iff a
//! failure, a soundness violation, or (in lint mode) any diagnostic was
//! found.

use citroen::fuzz::{run_alias_campaign, run_campaign, FuzzConfig, Report};
use citroen_analyze::{filter_severity, lint_module, Severity};
use citroen_passes::manager::{o3_pipeline, PassManager, Registry};
use citroen_rt::json::Value;

const USAGE: &str = "\
citroen-analyze — dataflow lints, soundness fuzzing

USAGE:
    citroen-analyze [--smoke | --modules N --seqs N --max-len N --seed S]
    citroen-analyze alias-oracle [--smoke] [--modules N --seqs N --max-len N --seed S]
    citroen-analyze validate
    citroen-analyze --lint [--o3] [--errors-only] [--json] [--ir FILE]

MODES:
    (default)        fuzz campaign (20 modules x 10 sequences)
    alias-oracle     soundness-fuzz the alias analysis: 200 generated
                     modules, each checked raw and after random pipelines
                     against concrete access addresses
    validate         run the shipped suite through -O3 with the S1-S11
                     translation-validation sanitizer armed
    --smoke          tiny deterministic campaign (tier-1 gate, <30s); explicit
                     options still apply on top of its budget
    --lint           lint the shipped benchmark suite
    --o3             lint after the -O3 pipeline instead of the source IR
    --errors-only    only report Error-severity lints
    --json           emit lint findings as one JSON document on stdout
                     (exit codes unchanged)
    --ir FILE        lint a single IR file instead of the suite

FUZZ OPTIONS:
    --modules N      number of generated modules        [default: 20]
    --seqs N         pass sequences per module          [default: 10]
    --max-len N      maximum sequence length            [default: 16]
    --seed S         campaign seed                      [default: 0xC17B0E]
";

fn parse_num(args: &mut std::iter::Peekable<std::env::Args>, flag: &str) -> u64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.unwrap_or_else(|_| die(&format!("{flag}: bad number '{v}'")))
}

fn die(msg: &str) -> ! {
    eprintln!("citroen-analyze: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().peekable();
    args.next(); // argv[0]

    let mut mode = String::from("fuzz");
    let (mut lint, mut o3, mut errors_only, mut smoke) = (false, false, false, false);
    let (mut with_broken, mut json) = (false, false);
    let (mut modules, mut seqs, mut max_len, mut seed) = (None, None, None, None);
    let mut ir_file: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "validate" | "alias-oracle" => mode = a,
            "--lint" => lint = true,
            "--o3" => o3 = true,
            "--errors-only" => errors_only = true,
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--ir" => {
                ir_file = Some(args.next().unwrap_or_else(|| die("--ir needs a file path")))
            }
            // Test-only: append the miscompiling unroll to the -O3 pipeline
            // so `validate` demonstrates value-level localisation.
            "--with-broken" => with_broken = true,
            "--modules" => modules = Some(parse_num(&mut args, "--modules") as usize),
            "--seqs" => seqs = Some(parse_num(&mut args, "--seqs") as usize),
            "--max-len" => max_len = Some(parse_num(&mut args, "--max-len") as usize),
            "--seed" => seed = Some(parse_num(&mut args, "--seed")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }

    if lint {
        match ir_file {
            Some(path) => std::process::exit(lint_file(&path, errors_only, json)),
            None => std::process::exit(lint_suite(o3, errors_only, json)),
        }
    }
    // `--smoke` picks the base budget; explicit flags apply on top of it.
    let mut cfg = if smoke { FuzzConfig::smoke() } else { FuzzConfig::default() };
    match (mode.as_str(), smoke) {
        // check.sh stage 6 budget: 25 modules x (raw + 1 pipeline) = 50
        // checked states.
        ("alias-oracle", true) => (cfg.modules, cfg.seqs_per_module) = (25, 1),
        ("alias-oracle", false) => (cfg.modules, cfg.seqs_per_module) = (200, 2),
        _ => {}
    }
    cfg.modules = modules.unwrap_or(cfg.modules);
    cfg.seqs_per_module = seqs.unwrap_or(cfg.seqs_per_module);
    cfg.max_seq_len = max_len.unwrap_or(cfg.max_seq_len);
    cfg.seed = seed.unwrap_or(cfg.seed);
    let code = match mode.as_str() {
        "alias-oracle" => {
            header("alias-oracle", &cfg);
            let report = run_alias_campaign(&cfg, |line| eprintln!("{line}"));
            let [no, must] = report.counts;
            print_report(
                "alias-oracle",
                &report,
                &format!("{no} No + {must} Must claim(s) checked"),
            )
        }
        "validate" => validate_mode(with_broken),
        _ => {
            header("fuzz", &cfg);
            let report = run_campaign(&cfg, |line| eprintln!("{line}"));
            print_report("fuzz", &report, "")
        }
    };
    std::process::exit(code)
}

/// The header line of every campaign mode, on stderr.
fn header(mode: &str, cfg: &FuzzConfig) {
    eprintln!(
        "citroen-analyze {mode}: {} modules x {} sequences (max len {}, seed {:#x})",
        cfg.modules, cfg.seqs_per_module, cfg.max_seq_len, cfg.seed
    );
}

/// The one campaign printer: every violation, then the summary line, all on
/// stderr. `counts` phrases the mode's claim counters. Returns the exit
/// code: 1 iff the campaign found a violation.
fn print_report(mode: &str, report: &Report, counts: &str) -> i32 {
    let shown =
        |seq: &str| if seq.is_empty() { "<source IR>".to_string() } else { seq.to_string() };
    for v in &report.violations {
        eprintln!("\n=== {mode} violation: {} (module seed {:#x}) ===", v.label, v.module_seed);
        eprintln!("detail:           {}", v.detail);
        eprintln!("sequence:         {}", shown(&v.seq));
        eprintln!("reduced sequence: {}", shown(&v.reduced_seq));
        eprintln!("reduced module:\n{}", v.reduced_ir);
    }
    let counts = if counts.is_empty() { String::new() } else { format!(", {counts}") };
    eprintln!(
        "citroen-analyze {mode}: {} module(s), {} trial(s){counts}, {} violation(s)",
        report.modules,
        report.trials,
        report.violations.len()
    );
    i32::from(!report.violations.is_empty())
}

/// One lint finding as a JSON object (`--json` mode). `origin` is the
/// benchmark name or file path the finding came from.
fn diag_value(origin: &str, d: &citroen_analyze::Diagnostic) -> Value {
    let mut obj = vec![
        ("origin".into(), Value::str(origin)),
        ("code".into(), Value::str(d.code)),
        (
            "severity".into(),
            Value::str(if d.severity == Severity::Error { "error" } else { "warning" }),
        ),
        ("func".into(), Value::str(&d.func)),
    ];
    if let Some(b) = d.block {
        obj.push(("block".into(), Value::U64(u64::from(b))));
    }
    obj.push(("msg".into(), Value::str(&d.msg)));
    Value::Obj(obj)
}

/// Lint every benchmark in the cBench- and SPEC-like suites (linked form),
/// returning a non-zero exit code iff any diagnostic is produced.
fn lint_suite(after_o3: bool, errors_only: bool, json: bool) -> i32 {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let o3 = o3_pipeline(&reg);
    let mut total = 0usize;
    let mut findings = Vec::new();
    for bench in citroen_suite::cbench().into_iter().chain(citroen_suite::spec()) {
        let mut m = bench.link();
        if after_o3 {
            m = pm.compile(&m, &o3).module;
        }
        let mut diags = lint_module(&m);
        if errors_only {
            diags = filter_severity(diags, Severity::Error);
        }
        for d in &diags {
            if json {
                findings.push(diag_value(bench.name, d));
            } else {
                println!("{}: {d}", bench.name);
            }
        }
        total += diags.len();
    }
    let stage = if after_o3 { "after -O3" } else { "on source IR" };
    if json {
        let doc = Value::Obj(vec![
            ("mode".into(), Value::str("lint")),
            ("stage".into(), Value::str(stage)),
            ("diagnostics".into(), Value::Arr(findings)),
            ("total".into(), Value::U64(total as u64)),
        ]);
        println!("{}", doc.emit_pretty());
    } else {
        eprintln!("citroen-analyze: {total} diagnostic(s) {stage}");
    }
    i32::from(total > 0)
}

/// Lint a single parseable IR file (e.g. a fuzz-reduced reproducer),
/// returning a non-zero exit code iff any diagnostic is produced.
fn lint_file(path: &str, errors_only: bool, json: bool) -> i32 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("--ir {path}: {e}")));
    let m = citroen_ir::parse::parse_module(&text)
        .unwrap_or_else(|e| die(&format!("--ir {path}: parse error: {e}")));
    let mut diags = lint_module(&m);
    if errors_only {
        diags = filter_severity(diags, Severity::Error);
    }
    if json {
        let doc = Value::Obj(vec![
            ("mode".into(), Value::str("lint")),
            ("file".into(), Value::str(path)),
            ("diagnostics".into(), Value::Arr(diags.iter().map(|d| diag_value(path, d)).collect())),
            ("total".into(), Value::U64(diags.len() as u64)),
        ]);
        println!("{}", doc.emit_pretty());
    } else {
        for d in &diags {
            println!("{path}: {d}");
        }
        eprintln!("citroen-analyze: {} diagnostic(s) in {path}", diags.len());
    }
    i32::from(!diags.is_empty())
}

/// Validate mode: compile every shipped benchmark with `-O3` under the
/// armed sanitizer; each pass's pre/post facts are cross-checked at both
/// function (S1–S5) and value (S6–S8) granularity, so a structurally valid
/// miscompile is localised to the offending pass and value.
fn validate_mode(with_broken: bool) -> i32 {
    let mut passes = citroen_passes::passes::all_passes();
    if with_broken {
        passes.push(Box::new(citroen_passes::testing::BrokenUnroll));
    }
    let reg = Registry::from_passes(passes);
    let mut pm = PassManager::new(&reg);
    pm.sanitize = true;
    let mut seq = o3_pipeline(&reg);
    if with_broken {
        // Prepend: the miscompile needs the source IR's store-then-ret loop
        // exits, which -O3 itself rewrites away.
        seq.insert(0, reg.by_name("broken-unroll").expect("registered above"));
    }

    let mut modules: Vec<(String, citroen_ir::Module)> = citroen_suite::cbench()
        .into_iter()
        .chain(citroen_suite::spec())
        .map(|b| (b.name.to_string(), b.link()))
        .collect();
    if with_broken {
        // The shipped suite never has the exact trigger shape, so add the
        // module that does — the run should end with the miscompile pinned
        // to the pass and the dangling value id.
        modules.push(("victim_computed".to_string(), citroen_passes::testing::victim_module_computed()));
    }

    let mut dirty = 0usize;
    for (name, m) in &modules {
        let bench = name.as_str();
        match pm.compile_result(m, &seq) {
            Ok(_) => eprintln!("citroen-analyze validate: {bench}: ok"),
            Err(citroen_passes::manager::CompileError::Sanitize { pass, violations }) => {
                dirty += 1;
                for v in &violations {
                    let at = v
                        .value
                        .map(|id| format!(" (value %{id})"))
                        .unwrap_or_default();
                    eprintln!("citroen-analyze validate: {bench}: pass '{pass}': {v}{at}");
                }
            }
            Err(citroen_passes::manager::CompileError::Verify { pass, errors }) => {
                dirty += 1;
                for e in &errors {
                    eprintln!("citroen-analyze validate: {bench}: pass '{pass}': verifier: {e}");
                }
            }
        }
    }
    eprintln!(
        "citroen-analyze validate: {dirty} miscompiled benchmark(s) under -O3 with the \
         sanitizer armed"
    );
    i32::from(dirty > 0)
}
