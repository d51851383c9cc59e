//! The CITROEN benchmark runner: one workload, one seed, one mode.
//!
//!     perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               [--serve-bin PATH] [--scratch DIR]
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, `metrics`
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`), plus the
//! work `counts`, failure `problems` and per-session `detail` that
//! `run.py` keeps in the result record. Exit 1 on any correctness failure,
//! 2 on a usage error or a refused configuration. Usually run through
//! `run.py`, which builds this runner and the daemon first.

mod layers;
mod report;
mod serve_mix;
mod tune;

use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload tune_spec_q4|serve_mix --seed N --seconds S \
                     --trace 0|1 [--serve-bin PATH] [--scratch DIR]";

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-tmp");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let num = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| die(&format!("{flag}: bad number '{value}'")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()),
            "--seconds" => seconds = Some(num().max(1) as f64),
            "--trace" => trace = Some(num() != 0),
            "--serve-bin" => serve_bin = Some(PathBuf::from(&value)),
            "--scratch" => scratch = PathBuf::from(&value),
            _ => die(&format!("unknown argument '{flag}'")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        die("--workload, --seed, --seconds and --trace are required")
    };

    // Timings of a debug build or of a sanitizing pass manager say nothing
    // about the shipped configuration.
    if cfg!(debug_assertions) {
        die("refusing to time a debug build; build with --release");
    }
    if std::env::var_os("CITROEN_SANITIZE").is_some() {
        die("refusing to time with CITROEN_SANITIZE set");
    }

    let outcome = match workload.as_str() {
        "tune_spec_q4" => tune::run(&tune::TUNE_SPEC_Q4, seed, seconds, trace),
        "serve_mix" => {
            let bin = serve_bin.unwrap_or_else(|| die("serve_mix needs --serve-bin"));
            if let Err(e) = std::fs::create_dir_all(&scratch) {
                die(&format!("cannot create {}: {e}", scratch.display()));
            }
            serve_mix::run(&bin, &scratch, seed, seconds, trace).unwrap_or_else(|e| {
                eprintln!("perfbench: serve_mix aborted: {e}");
                std::process::exit(1)
            })
        }
        other => die(&format!("unknown workload '{other}'")),
    };
    let failed = outcome.failed;
    println!("{}", outcome.into_json());
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
