//! Targeted behavioural tests for individual passes and for the enabling
//! chains the paper's search space is built on — most importantly the
//! Fig. 5.1 interaction: `mem2reg,slp-vectorizer` vectorises the GSM dot
//! product, while `mem2reg,instcombine,slp-vectorizer` does not.

mod common;

use citroen_ir::inst::FuncId;
use citroen_ir::interp::{run_counting, OpClass};
use citroen_passes::manager::{PassManager, Registry};

fn steps(m: &citroen_ir::Module, args: &[citroen_ir::interp::Value]) -> u64 {
    let entry = FuncId((m.funcs.len() - 1) as u32);
    run_counting(m, entry, args).expect("trapped").0.steps
}

#[test]
fn mem2reg_promotes_and_inserts_phis() {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let prog = common::gsm_dot();
    let res = pm.compile_named(&prog.module, "mem2reg").unwrap();
    assert!(res.stats.get("mem2reg", "NumPromoted") >= 2); // acc + iv slot
    assert!(res.stats.get("mem2reg", "NumPHIInsert") >= 2);
    // No allocas/loads of locals remain in the hot function.
    let f = res.module.funcs.last().unwrap();
    let allocas = f
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, citroen_ir::Inst::Alloca { .. }))
        .count();
    assert_eq!(allocas, 0);
}

#[test]
fn fig5_1_phase_order_matters_for_slp() {
    // The paper's motivating example. After full unrolling the dot-product
    // loop, SLP should vectorise when instcombine has NOT widened the
    // multiply chain, and refuse when it has.
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let prog = common::widening_bait(); // already unrolled straight-line MAC

    let good = pm
        .compile_named(&prog.module, "mem2reg,slp-vectorizer")
        .unwrap();
    assert!(
        good.stats.get("slp", "NumVectorInstructions") > 0,
        "mem2reg,slp must vectorise the MAC chain; stats: {}",
        good.stats.to_json()
    );

    let bad = pm
        .compile_named(&prog.module, "mem2reg,instcombine,slp-vectorizer")
        .unwrap();
    assert!(bad.stats.get("instcombine", "NumCombined") > 0, "instcombine must fire");
    assert_eq!(
        bad.stats.get("slp", "NumVectorInstructions"),
        0,
        "widened i64 chains must fail SLP profitability (4×i64 > 128-bit)"
    );

    // And the vectorised binary must actually be faster (fewer dynamic ops).
    let entry = FuncId(0);
    let g = run_counting(&good.module, entry, &[]).unwrap().0.steps;
    let b = run_counting(&bad.module, entry, &[]).unwrap().0.steps;
    assert!(g < b, "vectorised {g} steps !< scalar {b} steps");
}

#[test]
fn rotate_licm_unroll_slp_chain() {
    // The full enabling chain on the loopy GSM kernel: mem2reg → rotate →
    // unroll (const trip) → slp. Check each stage fires.
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let prog = common::gsm_dot();
    let res = pm
        .compile_named(
            &prog.module,
            "mem2reg,simplifycfg,loop-rotate,loop-unroll,instsimplify,slp-vectorizer",
        )
        .unwrap();
    assert!(res.stats.get("loop-rotate", "NumRotated") >= 1, "{}", res.stats.to_json());
    assert!(res.stats.get("loop-unroll", "NumUnrolled") >= 1, "{}", res.stats.to_json());
    assert!(
        res.stats.get("slp", "NumVectorInstructions") > 0,
        "unrolled dot product must SLP-vectorise: {}",
        res.stats.to_json()
    );
    // Dynamic improvement over mem2reg alone.
    let baseline = pm.compile_named(&prog.module, "mem2reg").unwrap();
    assert!(steps(&res.module, &prog.args) < steps(&baseline.module, &prog.args));
}

#[test]
fn licm_needs_rotate_for_loads() {
    // A loop summing x[0] repeatedly: the load of x[0] is invariant but can
    // only be hoisted once the loop is rotated (guaranteed-to-execute).
    use citroen_ir::builder::{counted_loop_mem, FunctionBuilder};
    use citroen_ir::inst::{BinOp, Operand};
    use citroen_ir::module::{GlobalInit, Module};
    use citroen_ir::types::I64;

    let mut m = Module::new("licm_demo");
    let g = m.add_global("x", GlobalInit::I64s(vec![5]), false);
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    let n = b.param(0);
    let acc = b.alloca(8);
    b.store(I64, Operand::imm64(0), acc);
    counted_loop_mem(&mut b, n, |b, _| {
        let x = b.load(I64, Operand::Global(g));
        let a0 = b.load(I64, acc);
        let a1 = b.bin(BinOp::Add, I64, a0, x);
        b.store(I64, a1, acc);
    });
    let r = b.load(I64, acc);
    b.ret(Some(r));
    m.add_func(b.finish());

    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    // Without rotation the accumulator store blocks load hoisting anyway;
    // promote first so the loop body is store-free, then compare.
    let unrotated = pm.compile_named(&m, "mem2reg,licm").unwrap();
    let rotated = pm.compile_named(&m, "mem2reg,loop-rotate,licm").unwrap();
    assert!(
        rotated.stats.get("licm", "NumHoistedLoads")
            > unrotated.stats.get("licm", "NumHoistedLoads"),
        "rotation must enable load hoisting: rotated={} unrotated={}",
        rotated.stats.to_json(),
        unrotated.stats.to_json()
    );
}

#[test]
fn function_attrs_enable_gvn_of_calls() {
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::inst::BinOp;
    use citroen_ir::module::Module;
    use citroen_ir::types::I64;

    let mut m = Module::new("attrs_demo");
    let mut sq = FunctionBuilder::new("square", vec![I64], Some(I64));
    let s = sq.bin(BinOp::Mul, I64, sq.param(0), sq.param(0));
    sq.ret(Some(s));
    let square = m.add_func(sq.finish());
    let mut b = FunctionBuilder::new("main", vec![I64], Some(I64));
    let a = b.call(square, Some(I64), vec![b.param(0)]).unwrap();
    let c = b.call(square, Some(I64), vec![b.param(0)]).unwrap();
    let sum = b.bin(BinOp::Add, I64, a, c);
    b.ret(Some(sum));
    m.add_func(b.finish());

    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let no_attrs = pm.compile_named(&m, "gvn").unwrap();
    assert_eq!(no_attrs.stats.get("gvn", "NumGVNInstr"), 0);
    let with_attrs = pm.compile_named(&m, "function-attrs,gvn").unwrap();
    assert!(with_attrs.stats.get("function-attrs", "NumReadNone") >= 1);
    assert!(
        with_attrs.stats.get("gvn", "NumGVNInstr") >= 1,
        "readnone calls must value-number: {}",
        with_attrs.stats.to_json()
    );
}

#[test]
fn inline_requires_mem2reg_first() {
    // call_chain's helpers are alloca-free, but build one that isn't.
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::inst::{BinOp, Operand};
    use citroen_ir::module::Module;
    use citroen_ir::types::I64;

    let mut m = Module::new("inline_demo");
    let mut h = FunctionBuilder::new("helper", vec![I64], Some(I64));
    let slot = h.alloca(8);
    h.store(I64, h.param(0), slot);
    let v = h.load(I64, slot);
    let r = h.bin(BinOp::Add, I64, v, Operand::imm64(1));
    h.ret(Some(r));
    let helper = m.add_func(h.finish());
    let mut b = FunctionBuilder::new("main", vec![I64], Some(I64));
    let x = b.call(helper, Some(I64), vec![b.param(0)]).unwrap();
    b.ret(Some(x));
    m.add_func(b.finish());

    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let cold = pm.compile_named(&m, "inline").unwrap();
    assert_eq!(cold.stats.get("inline", "NumInlined"), 0, "alloca callee must not inline");
    let warm = pm.compile_named(&m, "mem2reg,inline").unwrap();
    assert_eq!(warm.stats.get("inline", "NumInlined"), 1, "{}", warm.stats.to_json());
}

#[test]
fn tailcallelim_turns_recursion_into_loop() {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let prog = common::tail_recursion();
    let res = pm.compile_named(&prog.module, "tailcallelim").unwrap();
    assert_eq!(res.stats.get("tailcallelim", "NumEliminated"), 1);
    // No call instructions remain.
    let calls: usize = res.module.funcs[0]
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, citroen_ir::Inst::Call { .. }))
        .count();
    assert_eq!(calls, 0);
    // Deep recursion now runs without hitting the call-depth limit.
    let deep = run_counting(&res.module, FuncId(0), &[citroen_ir::interp::Value::I(10_000), citroen_ir::interp::Value::I(0)]);
    assert_eq!(deep.unwrap().0.ret, Some(citroen_ir::interp::Value::I(50_005_000)));
}

#[test]
fn loop_vectorize_handles_map_loops() {
    use citroen_ir::builder::{counted_loop_mem, FunctionBuilder};
    use citroen_ir::inst::{BinOp, Operand};
    use citroen_ir::module::{GlobalInit, Module};
    use citroen_ir::types::{I32, I64};

    // c[i] = a[i] * 3 + b[i], 64 elements.
    let mut m = Module::new("saxpyish");
    let a = m.add_global("a", GlobalInit::I32s((0..64).map(|i| i - 20).collect()), false);
    let bg = m.add_global("b", GlobalInit::I32s((0..64).map(|i| 2 * i).collect()), false);
    let c = m.add_global("c", GlobalInit::Zero(4 * 64), true);
    let mut b = FunctionBuilder::new("map", vec![], Some(I64));
    counted_loop_mem(&mut b, Operand::imm64(64), |b, iv| {
        let aa = b.gep(Operand::Global(a), iv, 4);
        let ba = b.gep(Operand::Global(bg), iv, 4);
        let ca = b.gep(Operand::Global(c), iv, 4);
        let x = b.load(I32, aa);
        let y = b.load(I32, ba);
        let x3 = b.bin(BinOp::Mul, I32, x, Operand::imm32(3));
        let s = b.bin(BinOp::Add, I32, x3, y);
        b.store(I32, s, ca);
    });
    b.ret(Some(Operand::imm64(0)));
    m.add_func(b.finish());

    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "mem2reg,loop-rotate,instsimplify,loop-vectorize").unwrap();
    assert!(
        res.stats.get("loop-vectorize", "NumVectorized") >= 1,
        "{}",
        res.stats.to_json()
    );
    // Fewer dynamic steps and vector ops present.
    let (out, sink) = run_counting(&res.module, FuncId(0), &[]).unwrap();
    assert!(sink.count(OpClass::VecLoad) > 0 && sink.count(OpClass::VecStore) > 0);
    let (base, _) = run_counting(&m, FuncId(0), &[]).unwrap();
    assert!(out.steps < base.steps);
    assert_eq!(out.mem_digest, base.mem_digest);
}

#[test]
fn sccp_folds_through_branches() {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let prog = common::const_maze();
    let res = pm.compile_named(&prog.module, "sccp,simplifycfg").unwrap();
    assert!(res.stats.get("sccp", "NumInstRemoved") > 0);
    // The constant diamond collapses to (at most) straight-line code.
    let f = res.module.funcs.last().unwrap();
    assert!(f.blocks.len() <= 2, "diamond should collapse, got {} blocks", f.blocks.len());
}

#[test]
fn unroll_full_vs_partial() {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    // gsm_dot has a 16-trip loop: full unroll applies after rotation.
    let prog = common::gsm_dot();
    let res =
        pm.compile_named(&prog.module, "mem2reg,loop-rotate,instsimplify,loop-unroll").unwrap();
    assert!(res.stats.get("loop-unroll", "NumFullyUnrolled") >= 1, "{}", res.stats.to_json());
    // branchy_sum's 64-trip loop is multi-block: unroll must leave it alone
    // (not a self-loop), and the module must still behave.
    let prog2 = common::branchy_sum();
    let res2 = pm.compile_named(&prog2.module, "mem2reg,loop-rotate,loop-unroll").unwrap();
    let e2 = FuncId((res2.module.funcs.len() - 1) as u32);
    let (o2, _) = run_counting(&res2.module, e2, &prog2.args).unwrap();
    let (b2, _) = run_counting(&prog2.module, e2, &prog2.args).unwrap();
    assert_eq!(o2.ret, b2.ret);
}

#[test]
fn dse_and_adce_remove_dead_work() {
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::inst::{BinOp, Operand};
    use citroen_ir::module::{GlobalInit, Module};
    use citroen_ir::types::I64;

    let mut m = Module::new("dead_demo");
    let g = m.add_global("g", GlobalInit::Zero(8), true);
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    // dead store (overwritten), dead load, dead arithmetic
    b.store(I64, Operand::imm64(1), Operand::Global(g));
    b.store(I64, Operand::imm64(2), Operand::Global(g));
    let dead_load = b.load(I64, Operand::Global(g));
    let _dead_math = b.bin(BinOp::Mul, I64, dead_load, Operand::imm64(3));
    b.ret(Some(b.param(0)));
    m.add_func(b.finish());

    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "dse,adce").unwrap();
    assert_eq!(res.stats.get("dse", "NumFastStores"), 1);
    assert!(res.stats.get("adce", "NumRemoved") >= 2, "{}", res.stats.to_json());
    assert_eq!(res.module.funcs[0].num_insts(), 1); // only the live store
}

#[test]
fn stats_identify_the_winning_sequence() {
    // Table 5.1's premise: SLP.NumVectorInstructions correlates with speedup.
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let prog = common::widening_bait();
    let seqs = [
        "mem2reg,slp-vectorizer",
        "slp-vectorizer,mem2reg",
        "instcombine,mem2reg,slp-vectorizer",
        "mem2reg,instcombine,slp-vectorizer",
        "mem2reg,slp-vectorizer,instcombine",
    ];
    let mut rows = Vec::new();
    for s in seqs {
        let res = pm.compile_named(&prog.module, s).unwrap();
        let nvi = res.stats.get("slp", "NumVectorInstructions");
        let steps = run_counting(&res.module, FuncId(0), &[]).unwrap().0.steps;
        rows.push((s, nvi, steps));
    }
    // Every sequence with NVI>0 must beat every sequence with NVI==0.
    let best_vec = rows.iter().filter(|r| r.1 > 0).map(|r| r.2).max();
    let worst_scalar = rows.iter().filter(|r| r.1 == 0).map(|r| r.2).min();
    if let (Some(v), Some(s)) = (best_vec, worst_scalar) {
        assert!(v < s, "vectorised sequences must dominate: {rows:?}");
    } else {
        panic!("expected both vectorised and scalar outcomes: {rows:?}");
    }
}
