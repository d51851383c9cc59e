//! IR verifier. Every pass is required to leave modules verifier-clean; the
//! property tests in the passes crate enforce this on random programs.

use crate::analysis::{Cfg, DefUse, DomTree};
use crate::inst::{BinOp, CastKind, Inst, Operand, Term, ValueId};
use crate::module::{Function, Module};
use crate::types::ScalarTy;

/// A verifier diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function where the problem was found.
    pub func: String,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.func, self.msg)
    }
}

/// Verify a whole module; returns all diagnostics found.
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for f in &m.funcs {
        verify_function(m, f, &mut errs);
    }
    errs
}

/// Verify a module and panic with diagnostics if it is malformed. Intended
/// for tests and debug assertions in the pass manager.
pub fn assert_valid(m: &Module) {
    let errs = verify_module(m);
    if !errs.is_empty() {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!("IR verification failed:\n{}\n{}", msgs.join("\n"), crate::print::print_module(m));
    }
}

fn verify_function(m: &Module, f: &Function, errs: &mut Vec<VerifyError>) {
    let err = |errs: &mut Vec<VerifyError>, msg: String| {
        errs.push(VerifyError { func: f.name.clone(), msg })
    };
    if f.is_decl() {
        return; // declarations have nothing to verify
    }

    // Every block id referenced by terminators must exist.
    for (b, blk) in f.iter_blocks() {
        for s in blk.term.successors() {
            if s.idx() >= f.blocks.len() {
                err(errs, format!("b{} branches to nonexistent b{}", b.0, s.0));
                return;
            }
        }
    }

    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let du = DefUse::compute(f);

    // Single definition per value, no redefinition of params, and φs only at
    // the top of a block — one pass over the instructions covers all three.
    // Parameters are defined at function entry, so any instruction targeting
    // one is a redefinition.
    let mut def_count = vec![0u32; f.value_ty.len()];
    for (b, blk) in f.iter_blocks() {
        let mut seen_nonphi = false;
        for inst in &blk.insts {
            if inst.is_phi() {
                if seen_nonphi {
                    err(errs, format!("b{}: phi after non-phi instruction", b.0));
                }
            } else {
                seen_nonphi = true;
            }
            if let Some(d) = inst.dst() {
                if d.idx() >= f.value_ty.len() {
                    err(errs, format!("b{}: defines out-of-range value %{}", b.0, d.0));
                    continue;
                }
                if f.is_param(d) {
                    err(errs, format!("b{}: redefines parameter %{}", b.0, d.0));
                }
                def_count[d.idx()] += 1;
            }
        }
    }
    for (i, &c) in def_count.iter().enumerate() {
        if c > 1 {
            err(errs, format!("value %{i} defined {c} times"));
        }
    }

    // Operand checks: referenced values must be defined somewhere; types must
    // line up for the common instruction kinds; uses must be dominated by defs.
    for (b, blk) in f.iter_blocks() {
        if !cfg.reachable(b) {
            continue; // dominance undefined for unreachable code
        }
        for (idx, inst) in blk.insts.iter().enumerate() {
            let check_op = |op: &Operand, errs: &mut Vec<VerifyError>| {
                match op {
                    Operand::Value(v) => {
                        if v.idx() >= f.value_ty.len() || du.def[v.idx()].is_none() {
                            err(errs, format!("b{}: use of undefined value %{}", b.0, v.0));
                        } else if !inst.is_phi() {
                            check_dominance(f, &dom, &du, b, idx, *v, errs);
                        }
                    }
                    Operand::Global(g) if g.idx() >= m.globals.len() => {
                        err(errs, format!("b{}: reference to nonexistent global @{}", b.0, g.0));
                    }
                    _ => {}
                }
            };
            inst.for_each_operand(|op| check_op(op, errs));

            match inst {
                Inst::Bin { dst, op, lhs, rhs } => {
                    let ty = f.ty(*dst);
                    if op.is_float() != (ty.scalar == ScalarTy::F64) {
                        err(errs, format!("b{}: %{} {} on {}", b.0, dst.0, op.name(), ty));
                    }
                    for o in [lhs, rhs] {
                        let ot = f.operand_ty(o);
                        if ot.scalar != ty.scalar && !o.is_const() {
                            err(
                                errs,
                                format!(
                                    "b{}: %{} operand type {} != result scalar {}",
                                    b.0, dst.0, ot, ty
                                ),
                            );
                        }
                    }
                    if matches!(op, BinOp::Shl | BinOp::AShr | BinOp::LShr)
                        && ty.scalar == ScalarTy::F64
                    {
                        err(errs, format!("b{}: shift on float", b.0));
                    }
                }
                Inst::Cmp { lhs, rhs, .. } => {
                    let lt = f.operand_ty(lhs);
                    let rt = f.operand_ty(rhs);
                    if lt.scalar != rt.scalar && !lhs.is_const() && !rhs.is_const() {
                        err(errs, format!("b{}: cmp between {} and {}", b.0, lt, rt));
                    }
                }
                Inst::Cast { dst, kind, src } => {
                    let to = f.ty(*dst);
                    let from = f.operand_ty(src);
                    let ok = match kind {
                        CastKind::SExt | CastKind::ZExt => {
                            from.scalar.is_int()
                                && to.scalar.is_int()
                                && to.scalar.bits() > from.scalar.bits()
                        }
                        CastKind::Trunc => {
                            from.scalar.is_int()
                                && to.scalar.is_int()
                                && to.scalar.bits() < from.scalar.bits()
                        }
                        CastKind::SiToFp => from.scalar.is_int() && to.scalar == ScalarTy::F64,
                        CastKind::FpToSi => from.scalar == ScalarTy::F64 && to.scalar.is_int(),
                    };
                    if !ok && !src.is_const() {
                        err(errs, format!("b{}: bad cast {} {} -> {}", b.0, kind.name(), from, to));
                    }
                }
                Inst::Call { dst, callee, args } => {
                    if callee.idx() >= m.funcs.len() {
                        err(errs, format!("b{}: call to nonexistent f{}", b.0, callee.0));
                    } else {
                        let cal = &m.funcs[callee.idx()];
                        if args.len() != cal.params.len() {
                            err(
                                errs,
                                format!(
                                    "b{}: call to @{} with {} args, expects {}",
                                    b.0,
                                    cal.name,
                                    args.len(),
                                    cal.params.len()
                                ),
                            );
                        }
                        if dst.is_some() != cal.ret.is_some() {
                            err(errs, format!("b{}: call/return mismatch for @{}", b.0, cal.name));
                        }
                    }
                }
                Inst::Phi { dst, incoming } => {
                    if let Some((bad, _)) =
                        incoming.iter().find(|(p, _)| p.idx() >= f.blocks.len())
                    {
                        err(errs, format!("b{}: phi %{} from nonexistent b{}", b.0, dst.0, bad.0));
                        continue;
                    }
                    let preds = &cfg.preds[b.idx()];
                    let mut blocks: Vec<_> = incoming.iter().map(|(p, _)| *p).collect();
                    blocks.sort_unstable_by_key(|x| x.0);
                    blocks.dedup();
                    if blocks.len() != incoming.len() {
                        err(errs, format!("b{}: phi %{} has duplicate incoming blocks", b.0, dst.0));
                    }
                    let mut ps: Vec<_> = preds.clone();
                    ps.sort_unstable_by_key(|x| x.0);
                    ps.dedup();
                    if blocks != ps {
                        err(
                            errs,
                            format!(
                                "b{}: phi %{} incoming blocks {:?} != predecessors {:?}",
                                b.0,
                                dst.0,
                                blocks.iter().map(|x| x.0).collect::<Vec<_>>(),
                                ps.iter().map(|x| x.0).collect::<Vec<_>>()
                            ),
                        );
                    }
                    // φ operands must dominate the corresponding predecessor's exit.
                    for (p, op) in incoming {
                        if let Operand::Value(v) = op {
                            if v.idx() < du.def.len() {
                                if let Some(crate::analysis::DefSite::Inst { block, .. }) =
                                    &du.def[v.idx()]
                                {
                                    if cfg.reachable(*p) && !dom.dominates(*block, *p) {
                                        err(
                                            errs,
                                            format!(
                                                "b{}: phi %{} operand %{} (def b{}) does not dominate pred b{}",
                                                b.0, dst.0, v.0, block.0, p.0
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                Inst::Reduce { op, .. }
                    if !op.associative() && *op != BinOp::FAdd && *op != BinOp::FMul =>
                {
                    err(errs, format!("b{}: reduce with non-associative {}", b.0, op.name()));
                }
                _ => {}
            }
        }
        // Terminator operand checks.
        if let Term::CondBr { cond, .. } = &blk.term {
            let ct = f.operand_ty(cond);
            if ct.scalar != ScalarTy::I1 && !cond.is_const() {
                err(errs, format!("b{}: condbr on non-i1 {}", b.0, ct));
            }
            if let Operand::Value(v) = cond {
                if v.idx() >= f.value_ty.len() || du.def[v.idx()].is_none() {
                    err(errs, format!("b{}: condbr on undefined %{}", b.0, v.0));
                }
            }
        }
        if let Term::Ret(op) = &blk.term {
            match (op, f.ret) {
                (Some(_), None) => err(errs, format!("b{}: ret with value in void fn", b.0)),
                (None, Some(_)) => err(errs, format!("b{}: ret without value", b.0)),
                _ => {}
            }
        }
    }
}

fn check_dominance(
    f: &Function,
    dom: &DomTree,
    du: &DefUse,
    use_block: crate::inst::BlockId,
    use_idx: usize,
    v: ValueId,
    errs: &mut Vec<VerifyError>,
) {
    match du.def[v.idx()] {
        Some(crate::analysis::DefSite::Param) | None => {}
        Some(crate::analysis::DefSite::Inst { block, inst }) => {
            let ok = if block == use_block { inst < use_idx } else { dom.dominates(block, use_block) };
            if !ok {
                errs.push(VerifyError {
                    func: f.name.clone(),
                    msg: format!(
                        "use of %{} in b{} not dominated by its definition in b{}",
                        v.0, use_block.0, block.0
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{counted_loop_mem, counted_loop_ssa, FunctionBuilder};
    use crate::inst::{BinOp, BlockId, Operand};
    use crate::types::{I32, I64};

    #[test]
    fn valid_function_passes() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let x = b.bin(BinOp::Add, I64, b.param(0), Operand::imm64(1));
        b.ret(Some(x));
        m.add_func(b.finish());
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn loops_pass_verification() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let n = b.param(0);
        let pre = b.current();
        let merged = counted_loop_ssa(&mut b, n, |b, iv, c| {
            let acc = b.phi(I64, vec![(pre, Operand::imm64(0))]);
            let nx = b.bin(BinOp::Add, I64, acc, iv);
            c.feed(acc, nx);
        });
        b.ret(Some(merged[0]));
        m.add_func(b.finish());
        assert_valid(&m);

        let mut m2 = Module::new("m2");
        let mut b2 = FunctionBuilder::new("g", vec![I64], Some(I64));
        let n2 = b2.param(0);
        counted_loop_mem(&mut b2, n2, |_, _| {});
        b2.ret(Some(Operand::imm64(0)));
        m2.add_func(b2.finish());
        assert_valid(&m2);
    }

    #[test]
    fn detects_phi_after_nonphi() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![I64], Some(I64));
        let entry = BlockId(0);
        let x = f.new_value(I64);
        let p = f.new_value(I64);
        f.blocks[0].insts.push(Inst::Bin {
            dst: x,
            op: BinOp::Add,
            lhs: Operand::Value(crate::inst::ValueId(0)), // the i64 param
            rhs: Operand::imm64(1),
        });
        // φ below a non-φ instruction: structurally representable, illegal.
        f.blocks[0].insts.push(Inst::Phi { dst: p, incoming: vec![(entry, Operand::imm64(0))] });
        f.blocks[0].term = Term::Ret(Some(Operand::Value(x)));
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.msg.contains("phi after non-phi")),
            "missing diagnostic: {errs:?}"
        );
    }

    #[test]
    fn detects_non_associative_reduce() {
        use crate::types::Ty;
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(I64));
        let v = f.new_value(Ty::vector(crate::types::ScalarTy::I64, 4));
        let r = f.new_value(I64);
        f.blocks[0].insts.push(Inst::Splat { dst: v, src: Operand::imm64(7) });
        // Sub is not associative: reducing with it has no defined bracketing.
        f.blocks[0].insts.push(Inst::Reduce { dst: r, op: BinOp::Sub, src: Operand::Value(v) });
        f.blocks[0].term = Term::Ret(Some(Operand::Value(r)));
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.msg.contains("non-associative")),
            "missing diagnostic: {errs:?}"
        );
    }

    #[test]
    fn detects_undefined_use() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(I64));
        let v = f.new_value(I64);
        let w = f.new_value(I64);
        f.blocks[0].insts.push(Inst::Bin {
            dst: v,
            op: BinOp::Add,
            lhs: Operand::Value(w), // never defined
            rhs: Operand::imm64(1),
        });
        f.blocks[0].term = Term::Ret(Some(Operand::Value(v)));
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("undefined value")));
    }

    #[test]
    fn detects_type_mismatch() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![I32], Some(I64));
        let v = f.new_value(I64);
        f.blocks[0].insts.push(Inst::Bin {
            dst: v,
            op: BinOp::Add,
            lhs: Operand::Value(ValueId(0)), // i32 into i64 add
            rhs: Operand::imm64(1),
        });
        f.blocks[0].term = Term::Ret(Some(Operand::Value(v)));
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("operand type")));
    }

    #[test]
    fn detects_non_dominating_use() {
        // b0: condbr p, b1, b2 ; b1 defines %v, br b2 ; b2 uses %v — invalid.
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(I64));
        let p = f.new_value(crate::types::I1);
        let v = f.new_value(I64);
        let r = f.new_value(I64);
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.blocks[0].insts.push(Inst::Cmp {
            dst: p,
            op: crate::inst::CmpOp::Eq,
            lhs: Operand::imm64(0),
            rhs: Operand::imm64(0),
        });
        f.blocks[0].term = Term::CondBr { cond: Operand::Value(p), t: b1, f: b2 };
        f.blocks[b1.idx()].insts.push(Inst::Bin {
            dst: v,
            op: BinOp::Add,
            lhs: Operand::imm64(1),
            rhs: Operand::imm64(2),
        });
        f.blocks[b1.idx()].term = Term::Br(b2);
        f.blocks[b2.idx()].insts.push(Inst::Bin {
            dst: r,
            op: BinOp::Add,
            lhs: Operand::Value(v),
            rhs: Operand::imm64(0),
        });
        f.blocks[b2.idx()].term = Term::Ret(Some(Operand::Value(r)));
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("not dominated")));
    }

    #[test]
    fn detects_bad_phi_preds() {
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Some(I64));
        let v = f.new_value(I64);
        let b1 = f.new_block();
        f.blocks[0].term = Term::Br(b1);
        f.blocks[b1.idx()].insts.push(Inst::Phi {
            dst: v,
            incoming: vec![(BlockId(0), Operand::imm64(1)), (BlockId(5), Operand::imm64(2))],
        });
        f.blocks[b1.idx()].term = Term::Ret(Some(Operand::Value(v)));
        m.add_func(f);
        let errs = verify_module(&m);
        assert!(!errs.is_empty());
    }
}
