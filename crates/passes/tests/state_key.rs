//! The no-op memo's state key covers what the structural fingerprint leaves
//! out and a pass can still read: every value's type, each function's
//! value-table length, and (through the source identity) global contents.
//! Variants that differ only there have equal fingerprints and different
//! keys. A memo over that key skips exactly the runs that change nothing:
//! a pass that only counts is never skipped, and a pass that reads global
//! contents is not skipped on one source for a run recorded on another.

use citroen_ir::module::{Function, GlobalInit, Module};
use citroen_ir::print::fingerprint;
use citroen_ir::types::{ScalarTy, Ty, I32, I64};
use citroen_passes::{
    o3_pipeline, NoopMemo, Pass, PassId, PassManager, Prefix, Registry, StateKey, Stats,
};
use citroen_suite::generator::{generate, GenConfig};

fn other_ty(t: Ty) -> Ty {
    let scalar = if t.scalar == ScalarTy::I64 { ScalarTy::I32 } else { ScalarTy::I64 };
    Ty { scalar, lanes: t.lanes }
}

#[test]
fn unprinted_value_types_and_table_lengths_move_the_key_not_the_fingerprint() {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let o3 = o3_pipeline(&reg);
    let mut mods: Vec<Module> = Vec::new();
    for b in citroen_suite::all_benchmarks().into_iter().take(4) {
        for m in b.modules.into_iter().take(2) {
            mods.push(pm.compile(&m, &o3).module);
            mods.push(m);
        }
    }
    for s in 0..3 {
        mods.push(generate(200 + s, &GenConfig::default()));
    }
    let (mut unprinted, mut printed) = (0usize, 0usize);
    for m in &mods {
        let (fp, key) = (fingerprint(m), StateKey::of(0, m));
        assert_ne!(key, StateKey::of(1, m), "{}: the source is part of the key", m.name);
        for fi in 0..m.funcs.len() {
            let mut longer = m.clone();
            longer.funcs[fi].new_value(I32);
            assert_eq!(fingerprint(&longer), fp, "{}: the table length is unprinted", m.name);
            assert_ne!(StateKey::of(0, &longer), key, "{}: a longer value table", m.name);
            for v in 0..m.funcs[fi].value_ty.len() {
                let mut retyped = m.clone();
                retyped.funcs[fi].value_ty[v] = other_ty(m.funcs[fi].value_ty[v]);
                assert_ne!(StateKey::of(0, &retyped), key, "{}: value {v} retyped", m.name);
                if fingerprint(&retyped) == fp {
                    unprinted += 1;
                } else {
                    printed += 1;
                }
            }
        }
    }
    assert!(unprinted > 100 && printed > 100, "both kinds of type seen: {unprinted}, {printed}");
}

/// Records one statistic per run and changes nothing.
struct Counter;

impl Pass for Counter {
    fn name(&self) -> &'static str {
        "counter"
    }
    fn run(&self, _m: &mut Module, stats: &mut Stats) {
        stats.inc("counter", "NumRuns", 1);
    }
}

/// Marks the first function `noinline` when the first global holds only
/// zeros: it reads global contents, which no fingerprint covers.
struct MarkIfZero;

impl Pass for MarkIfZero {
    fn name(&self) -> &'static str {
        "mark-if-zero"
    }
    fn run(&self, m: &mut Module, _stats: &mut Stats) {
        if matches!(&m.globals[0].init, GlobalInit::I32s(v) if v.iter().all(|&x| x == 0)) {
            m.funcs[0].attrs.noinline = true;
        }
    }
}

fn with_global(values: Vec<i32>) -> Module {
    let mut m = Module::new("m");
    m.add_global("g", GlobalInit::I32s(values), false);
    let mut f = Function::new("f", vec![I64], Some(I64));
    f.blocks[0].term = citroen_ir::inst::Term::Ret(Some(citroen_ir::inst::Operand::imm64(0)));
    m.add_func(f);
    m
}

/// `seq` on `m` through `memo`, with `m` as source `source`.
fn via_memo(
    pm: &PassManager<'_>,
    memo: &NoopMemo,
    source: u64,
    m: &Module,
    seq: &[PassId],
) -> (Module, Stats, usize) {
    let r = pm.resume(Prefix::source(m), seq, Some((memo, source)), |_, _| {}).unwrap();
    (r.module, r.stats, r.skipped)
}

#[test]
fn the_memo_skips_only_runs_that_change_nothing() {
    let reg = Registry::from_passes(vec![Box::new(Counter), Box::new(MarkIfZero)]);
    let pm = PassManager::new(&reg);
    let (counter, mark) = (PassId(0), PassId(1));

    // Counting is doing something: the statistics are part of the result.
    let m = with_global(vec![1, 2]);
    let memo = NoopMemo::new();
    let seq = [counter, counter, counter];
    for _ in 0..2 {
        let (_, stats, skipped) = via_memo(&pm, &memo, 0, &m, &seq);
        assert_eq!((stats.get("counter", "NumRuns"), skipped), (3, 0));
    }

    // Two sources that differ only in global contents share fingerprint
    // and value types; a run that changed nothing on one is still run on
    // the other.
    let (zeros, ones) = (with_global(vec![0, 0]), with_global(vec![1, 1]));
    assert_eq!(fingerprint(&zeros), fingerprint(&ones));
    let memo = NoopMemo::new();
    let (kept, _, _) = via_memo(&pm, &memo, 1, &ones, &[mark]);
    assert_eq!(kept, ones);
    let (_, _, skipped) = via_memo(&pm, &memo, 1, &ones, &[mark, mark]);
    assert_eq!(skipped, 2, "a recorded no-op is skipped on its own source");
    let (marked, _, skipped) = via_memo(&pm, &memo, 0, &zeros, &[mark]);
    assert_eq!((marked.funcs[0].attrs.noinline, skipped), (true, 0));
    assert_eq!(marked, pm.compile(&zeros, &[mark]).module);
}
