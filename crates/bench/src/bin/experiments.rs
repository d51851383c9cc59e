//! Experiment dispatcher: `experiments <id> [--reps N] [--budget N]
//! [--seq-len N] [--full] [--out DIR] [--trace-dir DIR] [--benchmarks a,b]`.
//!
//! Ids mirror the paper's tables/figures (DESIGN.md §3). `ch4`, `ch5` and
//! `all` run groups.

use citroen_bench::{ch4, ch5, ExpCfg};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((id, rest)) = args.split_first() else {
        usage();
        return;
    };
    let cfg = ExpCfg::from_args(rest);
    println!(
        "== experiment {id} (reps={}, budget={}, seq_len={}, full={}) ==",
        cfg.reps, cfg.budget, cfg.seq_len, cfg.full
    );
    run(id, &cfg);
}

fn run(id: &str, cfg: &ExpCfg) {
    match id {
        // Chapter 5 (the IPDPS paper)
        "fig5_1" => ch5::fig5_1(cfg),
        "tab5_1" => ch5::tab5_1(cfg),
        "tab5_2" => ch5::tab5_2(cfg),
        "tab5_3" => ch5::tab5_3(cfg),
        "tab5_4" => ch5::tab5_4(cfg),
        "tab5_5" => ch5::tab5_5(cfg),
        "fig5_6" | "fig5_7" | "fig5_6_7" => ch5::fig5_6_7(cfg),
        "fig5_8" => ch5::fig5_8(cfg),
        "fig5_9" => ch5::fig5_9(cfg),
        "fig5_10" => ch5::fig5_10(cfg),
        "fig5_11" => ch5::fig5_11(cfg),
        "fig5_12" => ch5::fig5_12(cfg),
        "batch_sweep" => ch5::batch_sweep(cfg),
        "multimodule" => ch5::adaptive_multimodule(cfg),
        "headroom" => ch5::headroom(cfg),
        "transfer" => ch5::transfer(cfg),
        // Chapter 4 (AIBO)
        "fig4_3" => ch4::fig4_3(cfg),
        "fig4_4" => ch4::fig4_4(cfg),
        "fig4_5" => ch4::fig4_5(cfg),
        "fig4_6" => ch4::fig4_6(cfg),
        "fig4_7" => ch4::fig4_7(cfg),
        "fig4_8_10" => ch4::fig4_8_10(cfg),
        "fig4_11" => ch4::fig4_11(cfg),
        "fig4_12" => ch4::fig4_12(cfg),
        "fig4_13" => ch4::fig4_13(cfg),
        "fig4_14" => ch4::fig4_14(cfg),
        "fig4_15" => ch4::fig4_15(cfg),
        "tab4_2" => ch4::tab4_2(cfg),
        // Groups
        "ch5" => {
            for e in [
                "fig5_1", "tab5_1", "tab5_2", "tab5_3", "tab5_4", "tab5_5", "fig5_6_7",
                "fig5_8", "fig5_9", "fig5_10", "fig5_11", "fig5_12", "batch_sweep",
                "multimodule", "headroom",
            ] {
                println!("\n==== {e} ====");
                run(e, cfg);
            }
        }
        "ch4" => {
            for e in [
                "fig4_3", "fig4_4", "fig4_5", "fig4_6", "fig4_7", "fig4_8_10", "fig4_11",
                "fig4_12", "fig4_13", "fig4_14", "fig4_15", "tab4_2",
            ] {
                println!("\n==== {e} ====");
                run(e, cfg);
            }
        }
        "all" => {
            run("ch5", cfg);
            run("ch4", cfg);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            usage();
        }
    }
}

fn usage() {
    eprintln!(
        "usage: experiments <id> [--reps N] [--budget N] [--seq-len N] [--full] [--out DIR]
                   [--trace-dir DIR] [--benchmarks a,b,c]
ids: fig5_1 tab5_1..tab5_5 fig5_6_7 fig5_8..fig5_12 batch_sweep multimodule headroom
     fig4_3..fig4_15 tab4_2 | ch4 | ch5 | all
fig5_6_7 only: --trace-dir streams one JSONL telemetry trace per
benchmark×tuner×seed cell (cells run sequentially; analyse with
`citroen-trace curve/flame/show`); --benchmarks restricts the grid."
    );
}
