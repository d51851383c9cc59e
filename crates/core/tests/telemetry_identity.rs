//! The telemetry non-interference contract: instrumenting the tuning loop
//! must not change what it computes. Telemetry never touches the RNG, the
//! search state, or the measurement path — so a tuning run with the sink
//! installed must produce *bit-identical* results to the same run with
//! telemetry disabled, across a seed window. This is the counterpart of the
//! `micro --telemetry-gate` overhead bound: one pins the cost, this pins the
//! semantics.

use citroen_core::{run_citroen, CitroenConfig, Task, TaskConfig, TuneTrace};
use citroen_passes::Registry;
use citroen_sim::Platform;
use citroen_telemetry as telemetry;

fn tune_batched(seed: u64, batch: usize) -> (TuneTrace, usize) {
    let mut task = Task::new(
        citroen_suite::kernels::telecom_gsm(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 16, seed, ..Default::default() },
    );
    let cfg = CitroenConfig {
        candidates: 16,
        init_random: 4,
        batch,
        seed,
        ..Default::default()
    };
    let (trace, _) = run_citroen(&mut task, 8, &cfg);
    (trace, task.compilations)
}

fn tune(seed: u64) -> (TuneTrace, usize) {
    tune_batched(seed, 1)
}

/// The tests toggle process-global telemetry state, so they must not
/// interleave under the parallel test harness.
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn enabled_sink_is_result_identical_to_disabled() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Sequential on purpose: the runs toggle process-global telemetry state.
    let seeds: Vec<u64> = (1..=10).collect();
    for &seed in &seeds {
        telemetry::disable();
        let (off, compiles_off) = tune(seed);

        telemetry::enable();
        let (on, compiles_on) = tune(seed);
        let telem = telemetry::take_trace().expect("sink must hold a trace");
        telemetry::disable();

        // Third arm: the same run under the streaming JSONL sink.
        let path = std::env::temp_dir()
            .join(format!("citroen-identity-{}-{seed}.jsonl", std::process::id()));
        telemetry::enable_stream(&path).expect("stream sink");
        let (streamed, compiles_streamed) = tune(seed);
        drop(telemetry::disable()); // joins the writer, flushes the file
        let jsonl = std::fs::read_to_string(&path).expect("trace file");
        std::fs::remove_file(&path).ok();

        // Bit-identical: same noisy runtimes (f64 equality), same best
        // sequences, same bookkeeping, same compile counts — across the
        // disabled, memory-sink, and stream-sink arms.
        assert_eq!(off.runtimes, on.runtimes, "seed {seed}: runtimes diverged");
        assert_eq!(off.best_history, on.best_history, "seed {seed}");
        assert_eq!(off.best_seqs, on.best_seqs, "seed {seed}");
        assert_eq!(off.coverage_dropped, on.coverage_dropped, "seed {seed}");
        assert_eq!(off.candidates_generated, on.candidates_generated, "seed {seed}");
        assert_eq!(compiles_off, compiles_on, "seed {seed}: compile counts diverged");
        assert_eq!(off.runtimes, streamed.runtimes, "seed {seed}: stream arm diverged");
        assert_eq!(off.best_history, streamed.best_history, "seed {seed}: stream arm");
        assert_eq!(off.best_seqs, streamed.best_seqs, "seed {seed}: stream arm");
        assert_eq!(compiles_off, compiles_streamed, "seed {seed}: stream arm compiles");

        // And the enabled run must actually have recorded the tuning loop.
        assert!(telem.spans.iter().any(|s| s.name == "citroen.run"), "seed {seed}");
        assert!(telem.spans.iter().any(|s| s.name == "iteration"), "seed {seed}");
        assert!(telem.counters.get("task.measurements").copied().unwrap_or(0) > 0);

        // The streamed file replays to an equivalent trace: same counters,
        // enough iteration coverage for `citroen-trace check` to accept it.
        let replayed = telemetry::Trace::parse_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e}"));
        assert_eq!(replayed.counters, telem.counters, "seed {seed}: counters diverged");
        assert!(!replayed.events.is_empty(), "seed {seed}: no progress events streamed");
        let cov = replayed
            .coverage("iteration", &["compile", "measure", "fit", "acquire", "batch"])
            .unwrap_or_else(|| panic!("seed {seed}: no iteration spans in replay"));
        assert!(cov >= 0.9, "seed {seed}: iteration coverage {cov:.3} < 0.9");
    }
}

#[test]
fn batched_loop_keeps_the_identity_and_coverage_contract() {
    // The q>1 loop moves compile/measure/fit onto pool workers; telemetry
    // still must not perturb results, and the trace must keep enough
    // `iteration` coverage (via the `batch` spans) for `citroen-trace check`.
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for &seed in &[1u64, 5, 9] {
        telemetry::disable();
        let (off, compiles_off) = tune_batched(seed, 4);

        telemetry::enable();
        let (on, compiles_on) = tune_batched(seed, 4);
        let telem = telemetry::take_trace().expect("sink must hold a trace");
        telemetry::disable();

        assert_eq!(off.runtimes, on.runtimes, "seed {seed}: q=4 runtimes diverged");
        assert_eq!(off.best_history, on.best_history, "seed {seed}: q=4");
        assert_eq!(off.best_seqs, on.best_seqs, "seed {seed}: q=4");
        assert_eq!(off.coverage_dropped, on.coverage_dropped, "seed {seed}: q=4");
        assert_eq!(compiles_off, compiles_on, "seed {seed}: q=4 compile counts");

        assert!(telem.spans.iter().any(|s| s.name == "batch"), "seed {seed}: no batch spans");
        let cov = telem
            .coverage("iteration", &["compile", "measure", "fit", "acquire", "batch"])
            .unwrap_or_else(|| panic!("seed {seed}: no iteration spans"));
        assert!(cov >= 0.9, "seed {seed}: q=4 iteration coverage {cov:.3} < 0.9");
    }
}
