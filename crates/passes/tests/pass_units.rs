//! Focused per-pass unit tests: each exercises one transformation's specific
//! behaviour and statistics (complementing the corpus-wide differential
//! tests in `differential.rs`).

mod common;

use citroen_ir::builder::{counted_loop_mem, FunctionBuilder};
use citroen_ir::inst::{BinOp, CmpOp, Inst, Operand, Term};
use citroen_ir::interp::{run_counting, OpClass, Value};
use citroen_ir::module::{GlobalInit, Module};
use citroen_ir::types::{I32, I64};
use citroen_ir::FuncId;
use citroen_passes::manager::{PassManager, Registry};

fn run_ret(m: &Module, args: &[Value]) -> Value {
    let entry = FuncId((m.funcs.len() - 1) as u32);
    run_counting(m, entry, args).unwrap().0.ret.unwrap()
}

#[test]
fn constprop_folds_constant_trees() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![], Some(I64));
    let a = b.bin(BinOp::Mul, I64, Operand::imm64(6), Operand::imm64(7));
    let c = b.bin(BinOp::Add, I64, a, Operand::imm64(8));
    let d = b.bin(BinOp::Shl, I64, c, Operand::imm64(1));
    b.ret(Some(d));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "constprop").unwrap();
    assert!(res.stats.get("constprop", "NumFolded") >= 3);
    assert_eq!(res.module.funcs[0].num_insts(), 0, "everything folds to a constant");
    assert_eq!(run_ret(&res.module, &[]), Value::I(100));
}

#[test]
fn instcombine_strength_reduces_mul_to_shl() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    let x = b.bin(BinOp::Mul, I64, b.param(0), Operand::imm64(16));
    b.ret(Some(x));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "instcombine").unwrap();
    let has_shl = res.module.funcs[0]
        .blocks
        .iter()
        .flat_map(|blk| &blk.insts)
        .any(|i| matches!(i, Inst::Bin { op: BinOp::Shl, .. }));
    assert!(has_shl, "mul by 16 should become shl by 4");
    assert_eq!(run_ret(&res.module, &[Value::I(5)]), Value::I(80));
}

#[test]
fn aggressive_instcombine_expands_two_bit_multipliers() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    let x = b.bin(BinOp::Mul, I64, b.param(0), Operand::imm64(10)); // 8 + 2
    b.ret(Some(x));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "aggressive-instcombine").unwrap();
    assert_eq!(res.stats.get("aggressive-instcombine", "NumExpanded"), 1);
    assert_eq!(run_ret(&res.module, &[Value::I(7)]), Value::I(70));
    // x*10 → (x<<3) + (x<<1): no multiplies remain.
    let muls = res.module.funcs[0]
        .blocks
        .iter()
        .flat_map(|blk| &blk.insts)
        .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
        .count();
    assert_eq!(muls, 0);
}

#[test]
fn div_rem_pairs_saves_a_division() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    let q = b.bin(BinOp::SDiv, I64, b.param(0), Operand::imm64(7));
    let r = b.bin(BinOp::SRem, I64, b.param(0), Operand::imm64(7));
    let s = b.bin(BinOp::Add, I64, q, r);
    b.ret(Some(s));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "div-rem-pairs").unwrap();
    assert_eq!(res.stats.get("div-rem-pairs", "NumPairs"), 1);
    // Dynamic division count drops from 2 to 1.
    let entry = FuncId(0);
    let (_, sink) = run_counting(&res.module, entry, &[Value::I(100)]).unwrap();
    assert_eq!(sink.count(OpClass::IntDiv), 1);
    assert_eq!(run_ret(&res.module, &[Value::I(100)]), Value::I(14 + 2));
}

#[test]
fn jump_threading_bypasses_constant_phis() {
    // b0: condbr p → b1 | b2; b1/b2 feed constants into b3's φ; b3 branches
    // on that φ — threading should route b1/b2 straight to their targets.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    let b1 = b.block();
    let b2 = b.block();
    let b3 = b.block();
    let t = b.block();
    let e = b.block();
    let p = b.cmp(CmpOp::Sgt, b.param(0), Operand::imm64(0));
    b.cond_br(p, b1, b2);
    b.switch_to(b1);
    b.br(b3);
    b.switch_to(b2);
    b.br(b3);
    b.switch_to(b3);
    let phi = b.phi(citroen_ir::types::I1, vec![
        (b1, Operand::ImmI(-1, citroen_ir::ScalarTy::I1)),
        (b2, Operand::ImmI(0, citroen_ir::ScalarTy::I1)),
    ]);
    b.cond_br(phi, t, e);
    b.switch_to(t);
    b.ret(Some(Operand::imm64(10)));
    b.switch_to(e);
    b.ret(Some(Operand::imm64(20)));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "jump-threading").unwrap();
    assert!(res.stats.get("jump-threading", "NumThreads") >= 1);
    assert_eq!(run_ret(&res.module, &[Value::I(5)]), Value::I(10));
    assert_eq!(run_ret(&res.module, &[Value::I(-5)]), Value::I(20));
}

#[test]
fn correlated_propagation_specialises_on_equality() {
    // if (x == 3) return x * 100  →  return 300 on that path.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    let t = b.block();
    let e = b.block();
    let c = b.cmp(CmpOp::Eq, b.param(0), Operand::imm64(3));
    b.cond_br(c, t, e);
    b.switch_to(t);
    let y = b.bin(BinOp::Mul, I64, b.param(0), Operand::imm64(100));
    b.ret(Some(y));
    b.switch_to(e);
    b.ret(Some(Operand::imm64(0)));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "correlated-propagation,constprop").unwrap();
    assert!(res.stats.get("correlated-propagation", "NumReplaced") >= 1);
    // After constprop, the multiply on the taken path is gone.
    let muls = res.module.funcs[0]
        .blocks
        .iter()
        .flat_map(|blk| &blk.insts)
        .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
        .count();
    assert_eq!(muls, 0);
    assert_eq!(run_ret(&res.module, &[Value::I(3)]), Value::I(300));
    assert_eq!(run_ret(&res.module, &[Value::I(4)]), Value::I(0));
}

#[test]
fn loop_deletion_removes_dead_counting_loops() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![], Some(I64));
    counted_loop_mem(&mut b, Operand::imm64(100), |_, _| {});
    b.ret(Some(Operand::imm64(42)));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    // mem2reg + rotate put it in self-loop form; deletion then removes it.
    let res = pm.compile_named(&m, "mem2reg,loop-rotate,loop-deletion").unwrap();
    assert_eq!(res.stats.get("loop-deletion", "NumDeleted"), 1);
    let entry = FuncId(0);
    let (out, _) = run_counting(&res.module, entry, &[]).unwrap();
    assert_eq!(out.ret, Some(Value::I(42)));
    assert!(out.steps < 20, "loop must be gone, got {} steps", out.steps);
}

#[test]
fn strength_reduce_replaces_loop_multiplies() {
    // sum += i * 24 inside a loop: the mul becomes an incremented IV.
    let mut m = Module::new("m");
    let g = m.add_global("out", GlobalInit::Zero(8), true);
    let mut b = FunctionBuilder::new("f", vec![], Some(I64));
    counted_loop_mem(&mut b, Operand::imm64(50), |b, iv| {
        let p = b.bin(BinOp::Mul, I64, iv, Operand::imm64(24));
        let cur = b.load(I64, Operand::Global(g));
        let nx = b.bin(BinOp::Add, I64, cur, p);
        b.store(I64, nx, Operand::Global(g));
    });
    let r = b.load(I64, Operand::Global(g));
    b.ret(Some(r));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "mem2reg,loop-rotate,strength-reduce").unwrap();
    assert_eq!(res.stats.get("strength-reduce", "NumReduced"), 1);
    let entry = FuncId(0);
    let (out, sink) = run_counting(&res.module, entry, &[]).unwrap();
    assert_eq!(out.ret, Some(Value::I((0..50).map(|i| i * 24).sum())));
    assert_eq!(sink.count(OpClass::IntMul), 0, "loop multiply must be strength-reduced");
}

#[test]
fn indvars_canonicalises_ne_to_slt() {
    // Build a rotated self-loop with an `!=` latch condition manually.
    let mut m = Module::new("m");
    let mut f = FunctionBuilder::new("f", vec![], Some(I64));
    let header = f.block();
    let exit = f.block();
    let pre = f.current();
    f.br(header);
    f.switch_to(header);
    let iv = f.phi(I64, vec![(pre, Operand::imm64(0))]);
    let next = f.bin(BinOp::Add, I64, iv, Operand::imm64(2));
    let c = f.cmp(CmpOp::Ne, next, Operand::imm64(20));
    f.cond_br(c, header, exit);
    f.switch_to(exit);
    f.ret(Some(Operand::imm64(1)));
    let mut func = f.finish();
    // Patch the back edge of the φ.
    if let Inst::Phi { incoming, .. } = &mut func.blocks[header.idx()].insts[0] {
        incoming.push((header, Operand::Value(next.as_value().unwrap())));
    }
    m.add_func(func);
    citroen_ir::verify::assert_valid(&m);
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "indvars").unwrap();
    assert_eq!(res.stats.get("indvars", "NumLFTR"), 1);
    let has_ne = res.module.funcs[0]
        .blocks
        .iter()
        .flat_map(|blk| &blk.insts)
        .any(|i| matches!(i, Inst::Cmp { op: CmpOp::Ne, .. }));
    assert!(!has_ne);
    assert_eq!(run_ret(&res.module, &[]), Value::I(1));
}

#[test]
fn sroa_splits_struct_like_allocas() {
    // A 16-byte alloca used as two independent i64 slots at offsets 0 and 8.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64, I64], Some(I64));
    let agg = b.alloca(16);
    let hi = b.bin(BinOp::Add, I64, agg, Operand::imm64(8));
    b.store(I64, b.param(0), agg);
    b.store(I64, b.param(1), hi);
    let x = b.load(I64, agg);
    let y = b.load(I64, hi);
    let s = b.bin(BinOp::Add, I64, x, y);
    b.ret(Some(s));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "sroa,mem2reg").unwrap();
    assert_eq!(res.stats.get("sroa", "NumReplaced"), 1);
    assert_eq!(res.stats.get("sroa", "NumSlots"), 2);
    // After sroa + mem2reg, no memory traffic remains.
    let entry = FuncId(0);
    let (out, sink) = run_counting(&res.module, entry, &[Value::I(30), Value::I(12)]).unwrap();
    assert_eq!(out.ret, Some(Value::I(42)));
    assert_eq!(sink.count(OpClass::Load) + sink.count(OpClass::Store), 0);
}

#[test]
fn sink_moves_work_off_the_untaken_path() {
    // An expensive div computed unconditionally but used on one branch only.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64, I64], Some(I64));
    let t = b.block();
    let e = b.block();
    let d = b.bin(BinOp::SDiv, I64, b.param(0), Operand::imm64(3));
    let c = b.cmp(CmpOp::Sgt, b.param(1), Operand::imm64(0));
    b.cond_br(c, t, e);
    b.switch_to(t);
    let u = b.bin(BinOp::Add, I64, d, Operand::imm64(1));
    b.ret(Some(u));
    b.switch_to(e);
    b.ret(Some(Operand::imm64(0)));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "sink").unwrap();
    assert_eq!(res.stats.get("sink", "NumSunk"), 1);
    // On the untaken path no division executes.
    let entry = FuncId(0);
    let (_, sink) = run_counting(&res.module, entry, &[Value::I(9), Value::I(-1)]).unwrap();
    assert_eq!(sink.count(OpClass::IntDiv), 0);
    assert_eq!(run_ret(&res.module, &[Value::I(9), Value::I(1)]), Value::I(4));
}

#[test]
fn early_cse_forwards_stores_to_loads() {
    let mut m = Module::new("m");
    let g = m.add_global("g", GlobalInit::Zero(8), true);
    let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
    b.store(I64, b.param(0), Operand::Global(g));
    let x = b.load(I64, Operand::Global(g)); // forwarded from the store
    let y = b.load(I64, Operand::Global(g)); // CSE'd with x
    let s = b.bin(BinOp::Add, I64, x, y);
    b.ret(Some(s));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "early-cse").unwrap();
    assert!(res.stats.get("early-cse", "NumCSE") >= 2, "{}", res.stats.to_json());
    let entry = FuncId(0);
    let (out, sink) = run_counting(&res.module, entry, &[Value::I(21)]).unwrap();
    assert_eq!(out.ret, Some(Value::I(42)));
    assert_eq!(sink.count(OpClass::Load), 0, "loads must be forwarded away");
}

#[test]
fn loop_idiom_vectorises_memset_loops() {
    let mut m = Module::new("m");
    let g = m.add_global("buf", GlobalInit::Zero(4 * 64), true);
    let mut b = FunctionBuilder::new("f", vec![], Some(I64));
    counted_loop_mem(&mut b, Operand::imm64(64), |b, iv| {
        let a = b.gep(Operand::Global(g), iv, 4);
        b.store(I32, Operand::imm32(9), a);
    });
    b.ret(Some(Operand::imm64(0)));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "mem2reg,loop-rotate,loop-idiom").unwrap();
    assert_eq!(res.stats.get("loop-idiom", "NumIdiom"), 1, "{}", res.stats.to_json());
    let entry = FuncId(0);
    let (out, sink) = run_counting(&res.module, entry, &[]).unwrap();
    assert!(sink.count(OpClass::VecStore) > 0);
    // Behaviour preserved vs the original.
    let (base, _) = run_counting(&m, entry, &[]).unwrap();
    assert_eq!(out.mem_digest, base.mem_digest);
}

#[test]
fn reassociate_improves_gvn_hit_rate() {
    // (a+b) and (b+a): after canonicalisation, GVN unifies them.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![I64, I64], Some(I64));
    let x = b.bin(BinOp::Add, I64, b.param(0), b.param(1));
    let y = b.bin(BinOp::Add, I64, b.param(1), b.param(0));
    let s = b.bin(BinOp::Mul, I64, x, y);
    b.ret(Some(s));
    m.add_func(b.finish());
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let alone = pm.compile_named(&m, "gvn").unwrap();
    let with_reassoc = pm.compile_named(&m, "reassociate,gvn").unwrap();
    // GVN already handles commutativity via canonical keys; reassociate must
    // not regress it, and the result must be a single add.
    let adds = |m: &Module| {
        m.funcs[0]
            .blocks
            .iter()
            .flat_map(|blk| &blk.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count()
    };
    assert_eq!(adds(&alone.module), 1);
    assert_eq!(adds(&with_reassoc.module), 1);
    assert_eq!(run_ret(&with_reassoc.module, &[Value::I(3), Value::I(4)]), Value::I(49));
}

#[test]
fn simplifycfg_flattens_constant_diamonds() {
    let prog = common::const_maze();
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&prog.module, "constprop,simplifycfg").unwrap();
    let f = res.module.funcs.last().unwrap();
    assert_eq!(f.blocks.len(), 1, "constant diamond must flatten to one block");
}

#[test]
fn unreachable_code_is_removed() {
    let mut m = Module::new("m");
    let mut f = citroen_ir::Function::new("f", vec![], Some(I64));
    let dead = f.new_block();
    f.blocks[0].term = Term::Ret(Some(Operand::imm64(1)));
    f.blocks[dead.idx()].term = Term::Ret(Some(Operand::imm64(2)));
    m.add_func(f);
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let res = pm.compile_named(&m, "simplifycfg").unwrap();
    assert_eq!(res.module.funcs[0].blocks.len(), 1);
}
