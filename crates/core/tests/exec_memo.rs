//! The shared program base and its execution memo: sessions over one
//! [`TaskBase`] simulate each binary at most once, and a memo answer is
//! indistinguishable from a fresh execution to the session admitting it.

use citroen_core::{
    run_citroen, trace_digest, CitroenConfig, Task, TaskBase, TaskConfig, TuneError,
};
use citroen_ir::interp::Trap;
use citroen_ir::module::Module;
use citroen_ir::Term;
use citroen_passes::{o3_pipeline, Registry};
use citroen_sim::Platform;
use std::sync::Arc;

fn gsm_base() -> Arc<TaskBase> {
    let gsm = citroen_suite::kernels::telecom_gsm();
    Arc::new(TaskBase::new(gsm, Registry::full(), Platform::tx2()))
}

fn session_config(seed: u64) -> TaskConfig {
    TaskConfig { seq_len: 16, seed, ..Default::default() }
}

#[test]
fn a_second_session_on_a_shared_base_simulates_nothing() {
    for batch in [1, 4] {
        let cfg =
            CitroenConfig { candidates: 16, init_random: 4, batch, seed: 3, ..Default::default() };
        let mut alone = Task::from_base(gsm_base(), session_config(3));
        let standalone = trace_digest(&run_citroen(&mut alone, 12, &cfg).0);

        let base = gsm_base();
        let mut first = Task::from_base(Arc::clone(&base), session_config(3));
        let first_digest = trace_digest(&run_citroen(&mut first, 12, &cfg).0);
        let mut second = Task::from_base(Arc::clone(&base), session_config(3));
        let second_digest = trace_digest(&run_citroen(&mut second, 12, &cfg).0);

        assert_eq!(first_digest, standalone, "q={batch}: shared base moved the first session");
        assert_eq!(second_digest, standalone, "q={batch}: memo answers moved the second session");
        assert_eq!(first.executions, alone.executions, "q={batch}");
        assert!(first.executions >= first.measurements, "q={batch}");
        assert_eq!(second.executions, 0, "q={batch}: the replay ran the simulator");
        assert_eq!(second.measurements, first.measurements, "q={batch}");
        let memo = base.memo_stats();
        assert_eq!(memo.misses, first.executions as u64, "q={batch}");
        assert!(memo.hits >= second.measurements as u64, "q={batch}: {memo:?}");
    }
}

/// The program linked with its `-O3` hot module changed by `sabotage`.
fn sabotaged(task: &mut Task, sabotage: impl FnOnce(&mut Module)) -> (Module, u64) {
    let hot = task.hot();
    let (_, _, module) = task.compile_hot(hot, &o3_pipeline(&task.registry));
    let (mut linked, _) = task.assemble(&[(hot, &module)]);
    sabotage(&mut linked);
    let fp = citroen_ir::print::fingerprint(&linked);
    (linked, fp)
}

#[test]
fn traps_and_mismatches_come_back_from_the_memo_unchanged() {
    let base = Arc::new(TaskBase::new(
        citroen_suite::kernels::telecom_crc32(),
        Registry::full(),
        Platform::tx2(),
    ));
    let mut task = Task::from_base(Arc::clone(&base), session_config(1));
    // A miscompile: the CRC polynomial constant changes, so the output does.
    let mismatch = sabotaged(&mut task, |m| {
        for inst in m.funcs.iter_mut().flat_map(|f| &mut f.blocks).flat_map(|b| &mut b.insts) {
            inst.for_each_operand_mut(|op| {
                if let citroen_ir::Operand::ImmI(v, s) = op {
                    if *v == 0xEDB8_8320 {
                        *op = citroen_ir::Operand::ImmI(v.wrapping_add(2), *s);
                    }
                }
            });
        }
    });
    // A trap: every function's entry block ends in `unreachable`.
    let trap = sabotaged(&mut task, |m| {
        for f in &mut m.funcs {
            if let Some(b) = f.blocks.first_mut() {
                b.term = Term::Unreachable;
            }
        }
    });
    let cases = [
        (mismatch, TuneError::DifferentialMismatch { seqs: Vec::new() }),
        (trap, TuneError::Trap(Trap::Unreachable)),
    ];
    for ((linked, fp), want) in &cases {
        let fresh = task.execute(linked, *fp);
        assert!(fresh.ran.is_some(), "first request runs the simulator");
        assert_eq!(fresh.outcome.as_ref().err(), Some(want));
        let memo = task.execute(linked, *fp);
        assert!(memo.ran.is_none(), "second request is a memo answer");
        assert_eq!(memo.outcome, fresh.outcome);
        // A session admitting the memo answer sees the same error and is
        // charged nothing, as for a fresh run.
        let mut other = Task::from_base(Arc::clone(&base), session_config(2));
        assert_eq!(other.measure_linked(linked, *fp).err().as_ref(), Some(want));
        assert_eq!((other.executions, other.measurements), (0, 0));
    }
}
