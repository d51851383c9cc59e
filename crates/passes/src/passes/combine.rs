//! Peephole combining passes: `instcombine` (including the sign-extension
//! widening of the paper's Fig. 5.1), `instsimplify`, `constprop`,
//! `reassociate`, `div-rem-pairs`, `vector-combine`, `aggressive-instcombine`.

use crate::manager::Pass;
use crate::stats::Stats;
use crate::util::{def_sites, dce_function, fold_bin, fold_cast, fold_cmp, replace_uses};
use citroen_ir::inst::{BinOp, CastKind, Inst, Operand, ValueId};
use citroen_ir::module::{Function, Module};
use citroen_ir::types::{ScalarTy, Ty};
use std::collections::HashMap;

/// The `instcombine` pass.
pub struct InstCombine;

impl Pass for InstCombine {
    fn name(&self) -> &'static str {
        "instcombine"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            let budget_insts = f.num_insts() * 4 + 64;
            // Chains fold one level per sweep; iterate to a bounded fixpoint
            // (unrolled loops produce chains as deep as the trip count).
            // DCE runs every round: rewrites leave dead originals behind, and
            // without cleanup the distribute/fold interplay can re-expand
            // them each sweep. The instruction budget is a hard stop against
            // any remaining ping-pong growth.
            for _ in 0..64 {
                let c = combine_sweep(f, true) + widen_mul_sext(f) + distribute_sweep(f);
                n += c;
                dce_function(f);
                if c == 0 || f.num_insts() > budget_insts {
                    break;
                }
            }
            stats.inc("instcombine", "NumCombined", n);
        }
    }
}

/// The `instsimplify` pass: identity/constant simplifications only — never
/// creates new instructions.
pub struct InstSimplify;

impl Pass for InstSimplify {
    fn name(&self) -> &'static str {
        "instsimplify"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for _ in 0..64 {
                let c = combine_sweep(f, false);
                n += c;
                dce_function(f);
                if c == 0 {
                    break;
                }
            }
            stats.inc("instsimplify", "NumSimplified", n);
        }
    }
}

/// The `constprop` pass: fold instructions whose operands are all constant.
pub struct ConstProp;

impl Pass for ConstProp {
    fn name(&self) -> &'static str {
        "constprop"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            loop {
                let c = const_fold_sweep(f);
                n += c;
                if c == 0 {
                    break;
                }
            }
            dce_function(f);
            stats.inc("constprop", "NumFolded", n);
        }
    }
}

/// One constant-folding sweep; returns number of folds.
fn const_fold_sweep(f: &mut Function) -> u64 {
    let mut subst: Vec<(ValueId, Operand)> = Vec::new();
    for blk in &f.blocks {
        for inst in &blk.insts {
            match inst {
                Inst::Bin { dst, op, lhs, rhs } => {
                    if let Some(c) = fold_bin(*op, f.ty(*dst).scalar, lhs, rhs) {
                        if f.ty(*dst).lanes == 1 {
                            subst.push((*dst, c));
                        }
                    }
                }
                Inst::Cmp { dst, op, lhs, rhs } => {
                    if let Some(c) = fold_cmp(*op, lhs, rhs) {
                        subst.push((*dst, c));
                    }
                }
                Inst::Cast { dst, kind, src } => {
                    let from = f.operand_ty(src).scalar;
                    if let Some(c) = fold_cast(*kind, from, f.ty(*dst).scalar, src) {
                        if f.ty(*dst).lanes == 1 {
                            subst.push((*dst, c));
                        }
                    }
                }
                Inst::Select { dst, cond, t, f: fv } => {
                    if let Some(c) = cond.as_const_int() {
                        subst.push((*dst, if c != 0 { *t } else { *fv }));
                    }
                }
                _ => {}
            }
        }
    }
    let n = subst.len() as u64;
    for (v, op) in &subst {
        replace_uses(f, *v, *op);
    }
    // Remove the folded (pure) instructions so repeated sweeps make progress.
    let folded: std::collections::HashSet<ValueId> = subst.into_iter().map(|(v, _)| v).collect();
    if !folded.is_empty() {
        for blk in &mut f.blocks {
            blk.insts.retain(|i| match i.dst() {
                Some(d) => !folded.contains(&d),
                None => true,
            });
        }
    }
    n
}

/// Shared identity/simplification sweep; `create` permits transforms that
/// build new instruction forms (mul→shl, constant re-association).
fn combine_sweep(f: &mut Function, create: bool) -> u64 {
    let mut n = const_fold_sweep(f);
    // In-place rewrites of single instructions.
    let mut subst: Vec<(ValueId, Operand)> = Vec::new();
    let sites = def_sites(f);
    let mut edits: Vec<(usize, usize, Inst)> = Vec::new();

    for (bi, blk) in f.blocks.iter().enumerate() {
        for (ii, inst) in blk.insts.iter().enumerate() {
            if let Inst::Bin { dst, op, lhs, rhs } = inst {
                let ty = f.ty(*dst);
                if ty.lanes != 1 {
                    continue;
                }
                let s = ty.scalar;
                let (mut lhs, mut rhs, mut op) = (*lhs, *rhs, *op);
                let mut changed = false;
                // Canonicalise: constant to the right for commutative ops.
                if op.commutative() && lhs.is_const() && !rhs.is_const() {
                    std::mem::swap(&mut lhs, &mut rhs);
                    changed = true;
                }
                let rc = rhs.as_const_int();
                // Identities.
                let identity: Option<Operand> = match (op, rc) {
                    (BinOp::Add, Some(0))
                    | (BinOp::Sub, Some(0))
                    | (BinOp::Or, Some(0))
                    | (BinOp::Xor, Some(0))
                    | (BinOp::Shl, Some(0))
                    | (BinOp::AShr, Some(0))
                    | (BinOp::LShr, Some(0))
                    | (BinOp::SDiv, Some(1))
                    | (BinOp::Mul, Some(1)) => Some(lhs),
                    (BinOp::Mul, Some(0)) | (BinOp::And, Some(0)) => {
                        Some(Operand::ImmI(0, s))
                    }
                    (BinOp::And, Some(-1)) => Some(lhs),
                    (BinOp::SRem, Some(1)) => Some(Operand::ImmI(0, s)),
                    _ => None,
                };
                let same = lhs == rhs && !lhs.is_const();
                let identity = identity.or(match op {
                    BinOp::Sub | BinOp::Xor if same => Some(Operand::ImmI(0, s)),
                    BinOp::And | BinOp::Or | BinOp::SMin | BinOp::SMax if same => Some(lhs),
                    _ => None,
                });
                if let Some(to) = identity {
                    subst.push((*dst, to));
                    n += 1;
                    continue;
                }
                if create {
                    // mul x, 2^k -> shl x, k
                    if op == BinOp::Mul && s.is_int() {
                        if let Some(c) = rc {
                            if c > 1 && (c & (c - 1)) == 0 {
                                op = BinOp::Shl;
                                rhs = Operand::ImmI(c.trailing_zeros() as i64, s);
                                changed = true;
                                n += 1;
                            }
                        }
                    }
                    // (x op c1) op c2 -> x op (c1 . c2) for associative int ops.
                    if op.associative() && s.is_int() {
                        if let Some(c2) = rhs.as_const_int() {
                            if let Some(Inst::Bin { op: op2, lhs: l2, rhs: r2, .. }) =
                                crate::util::def_of(f, &sites, &lhs)
                            {
                                if *op2 == op {
                                    if let Some(c1) = r2.as_const_int() {
                                        if let Some(folded) = fold_bin(
                                            op,
                                            s,
                                            &Operand::ImmI(c1, s),
                                            &Operand::ImmI(c2, s),
                                        ) {
                                            lhs = *l2;
                                            rhs = folded;
                                            changed = true;
                                            n += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                if changed {
                    edits.push((bi, ii, Inst::Bin { dst: *dst, op, lhs, rhs }));
                }
            } else if let Inst::Select { dst, cond: _, t, f: fv } = inst {
                if t == fv {
                    subst.push((*dst, *t));
                    n += 1;
                }
            } else if let Inst::Cast { dst, kind: CastKind::SExt, src } = inst {
                // sext(sext x) -> sext x (to the final width).
                if let Some(Inst::Cast { kind: CastKind::SExt, src: inner, .. }) =
                    crate::util::def_of(f, &sites, src)
                {
                    let inner = *inner;
                    edits.push((bi, ii, Inst::Cast { dst: *dst, kind: CastKind::SExt, src: inner }));
                    n += 1;
                }
            }
        }
    }
    for (bi, ii, inst) in edits {
        f.blocks[bi].insts[ii] = inst;
    }
    for (v, op) in subst {
        replace_uses(f, v, op);
    }
    n
}

/// Distribute scaling over offset adds: `mul(add(x, c1), c2)` becomes
/// `add(mul(x, c2), c1*c2)` (and likewise for `shl`), when the inner add has
/// a single use. This exposes `base + const` address shapes to the symbolic
/// address analysis after loop unrolling.
fn distribute_sweep(f: &mut Function) -> u64 {
    let sites = def_sites(f);
    // Single-use check for the inner add.
    let mut uses: HashMap<ValueId, u32> = HashMap::new();
    for blk in &f.blocks {
        for inst in &blk.insts {
            inst.for_each_operand(|op| {
                if let Some(v) = op.as_value() {
                    *uses.entry(v).or_insert(0) += 1;
                }
            });
        }
        blk.term.for_each_operand(|op| {
            if let Some(v) = op.as_value() {
                *uses.entry(v).or_insert(0) += 1;
            }
        });
    }
    struct Plan {
        bi: usize,
        ii: usize,
        dst: ValueId,
        x: Operand,
        scale_op: BinOp,
        scale: i64,
        folded_off: i64,
        s: ScalarTy,
    }
    let mut plans: Vec<Plan> = Vec::new();
    for (bi, blk) in f.blocks.iter().enumerate() {
        for (ii, inst) in blk.insts.iter().enumerate() {
            let Inst::Bin { dst, op, lhs, rhs } = inst else { continue };
            let ty = f.ty(*dst);
            if ty.lanes != 1 || !ty.scalar.is_int() {
                continue;
            }
            let Some(c2) = rhs.as_const_int() else { continue };
            // Skip dead results: rewriting them only feeds further sweeps.
            if uses.get(dst).copied().unwrap_or(0) == 0 {
                continue;
            }
            let scale = match op {
                BinOp::Mul => c2,
                BinOp::Shl if (0..32).contains(&c2) => 1i64 << c2,
                _ => continue,
            };
            let Some(inner) = lhs.as_value() else { continue };
            if uses.get(&inner) != Some(&1) {
                continue;
            }
            let Some(Inst::Bin { op: BinOp::Add, lhs: il, rhs: ir, .. }) =
                crate::util::def_of(f, &sites, lhs)
            else {
                continue;
            };
            let (x, c1) = if let Some(c1) = ir.as_const_int() {
                (*il, c1)
            } else if let Some(c1) = il.as_const_int() {
                (*ir, c1)
            } else {
                continue;
            };
            plans.push(Plan {
                bi,
                ii,
                dst: *dst,
                x,
                scale_op: *op,
                scale: c2,
                folded_off: ty.scalar.wrap(c1.wrapping_mul(scale)),
                s: ty.scalar,
            });
        }
    }
    let count = plans.len() as u64;
    plans.sort_by_key(|p| std::cmp::Reverse((p.bi, p.ii)));
    for p in plans {
        let scaled = f.new_value(Ty::scalar(p.s));
        let insts = &mut f.blocks[p.bi].insts;
        insts[p.ii] = Inst::Bin {
            dst: p.dst,
            op: BinOp::Add,
            lhs: Operand::Value(scaled),
            rhs: Operand::ImmI(p.folded_off, p.s),
        };
        insts.insert(
            p.ii,
            Inst::Bin { dst: scaled, op: p.scale_op, lhs: p.x, rhs: Operand::ImmI(p.scale, p.s) },
        );
    }
    count
}

/// The Fig. 5.1(c) transform: `sext64(mul32(sext32(a16), sext32(b16)))` is
/// rewritten to `mul64(sext64(a16), sext64(b16))`, removing one sign
/// extension per chain — a local win that later defeats SLP profitability
/// (the vector would be 4×i64 = 256 bits > the 128-bit machine vector).
fn widen_mul_sext(f: &mut Function) -> u64 {
    let sites = def_sites(f);
    // Count uses of every value.
    let mut uses: HashMap<ValueId, u32> = HashMap::new();
    for blk in &f.blocks {
        for inst in &blk.insts {
            inst.for_each_operand(|op| {
                if let Some(v) = op.as_value() {
                    *uses.entry(v).or_insert(0) += 1;
                }
            });
        }
        blk.term.for_each_operand(|op| {
            if let Some(v) = op.as_value() {
                *uses.entry(v).or_insert(0) += 1;
            }
        });
    }

    // Find: w = sext(mul) where mul = mul i32 (sext a) (sext b), the mul's
    // only use is w, and each inner sext widens an i16/i8 source.
    struct Plan {
        wide_block: usize,
        wide_idx: usize,
        wide_dst: ValueId,
        a_src: Operand,
        b_src: Operand,
        mul_op: BinOp,
        to: Ty,
    }
    let mut plans: Vec<Plan> = Vec::new();
    for (bi, blk) in f.blocks.iter().enumerate() {
        for (ii, inst) in blk.insts.iter().enumerate() {
            let Inst::Cast { dst: wide_dst, kind: CastKind::SExt, src } = inst else { continue };
            let to = f.ty(*wide_dst);
            if to.scalar != ScalarTy::I64 || to.lanes != 1 {
                continue;
            }
            let Some(mul_v) = src.as_value() else { continue };
            if uses.get(&mul_v).copied().unwrap_or(0) != 1 {
                continue;
            }
            let Some(Inst::Bin { op, lhs, rhs, .. }) = crate::util::def_of(f, &sites, src)
            else {
                continue;
            };
            if !matches!(op, BinOp::Mul | BinOp::Add) {
                continue;
            }
            let mid_bits = f.operand_ty(src).scalar.bits();
            let inner = |o: &Operand| -> Option<(Operand, u32)> {
                match crate::util::def_of(f, &sites, o) {
                    Some(Inst::Cast { kind: CastKind::SExt, src: s2, .. }) => {
                        let t = f.operand_ty(s2);
                        (t.scalar.bits() < 64 && t.lanes == 1)
                            .then_some((*s2, t.scalar.bits()))
                    }
                    _ => None,
                }
            };
            let (Some((a_src, a_bits)), Some((b_src, b_bits))) = (inner(lhs), inner(rhs))
            else {
                continue;
            };
            // The narrow op must provably not wrap, or widening changes the
            // result: mul needs a_bits+b_bits <= mid_bits; add needs one spare bit.
            let safe = match op {
                BinOp::Mul => a_bits + b_bits <= mid_bits,
                _ => a_bits.max(b_bits) < mid_bits,
            };
            if !safe {
                continue;
            }
            plans.push(Plan {
                wide_block: bi,
                wide_idx: ii,
                wide_dst: *wide_dst,
                a_src,
                b_src,
                mul_op: *op,
                to,
            });
        }
    }
    let count = plans.len() as u64;
    // Apply in reverse instruction order so indices stay valid per block.
    plans.sort_by_key(|p| std::cmp::Reverse((p.wide_block, p.wide_idx)));
    for p in plans {
        let va = f.new_value(p.to);
        let vb = f.new_value(p.to);
        let insts = &mut f.blocks[p.wide_block].insts;
        // Replace the outer sext with: sext a; sext b; mul64 — defining the
        // original wide value so no use rewriting is needed.
        insts[p.wide_idx] =
            Inst::Bin { dst: p.wide_dst, op: p.mul_op, lhs: Operand::Value(va), rhs: Operand::Value(vb) };
        insts.insert(p.wide_idx, Inst::Cast { dst: vb, kind: CastKind::SExt, src: p.b_src });
        insts.insert(p.wide_idx, Inst::Cast { dst: va, kind: CastKind::SExt, src: p.a_src });
    }
    count
}

/// The `reassociate` pass: put the operands of commutative, associative
/// integer operations in canonical order (values first, constant last).
/// Moving constants outward through a chain is left to instcombine's
/// associative fold.
pub struct Reassociate;

impl Pass for Reassociate {
    fn name(&self) -> &'static str {
        "reassociate"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            let mut edits: Vec<(usize, usize, Inst)> = Vec::new();
            for (bi, blk) in f.blocks.iter().enumerate() {
                for (ii, inst) in blk.insts.iter().enumerate() {
                    let Inst::Bin { dst, op, lhs, rhs } = inst else { continue };
                    if !op.associative() {
                        continue;
                    }
                    let ty = f.ty(*dst);
                    if ty.lanes != 1 || !ty.scalar.is_int() {
                        continue;
                    }
                    // Canonical operand order for commutative ops: smaller
                    // value-id first, constants last — improves GVN hit rate.
                    if op.commutative() {
                        let key = |o: &Operand| match o {
                            Operand::Value(v) => (0u8, v.0 as i64),
                            Operand::Global(g) => (1, g.0 as i64),
                            Operand::ImmI(c, _) => (2, *c),
                            Operand::ImmF(x) => (2, x.to_bits() as i64),
                        };
                        if key(lhs) > key(rhs) {
                            edits.push((
                                bi,
                                ii,
                                Inst::Bin { dst: *dst, op: *op, lhs: *rhs, rhs: *lhs },
                            ));
                            n += 1;
                        }
                    }
                }
            }
            for (bi, ii, inst) in edits {
                f.blocks[bi].insts[ii] = inst;
            }
            stats.inc("reassociate", "NumReassoc", n);
        }
    }
}

/// The `div-rem-pairs` pass: when both `x / c` and `x % c` exist in a block,
/// rewrite the remainder as `x - (x / c) * c`, saving a hardware division.
pub struct DivRemPairs;

impl Pass for DivRemPairs {
    fn name(&self) -> &'static str {
        "div-rem-pairs"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for bi in 0..f.blocks.len() {
                // map (lhs,rhs) -> value of sdiv
                let mut divs: HashMap<(OperandKeyed, OperandKeyed), ValueId> = HashMap::new();
                let mut rewrites: Vec<(usize, ValueId, Operand, Operand, ValueId)> = Vec::new();
                for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
                    if let Inst::Bin { dst, op, lhs, rhs } = inst {
                        let ty = f.ty(*dst);
                        if ty.lanes != 1 || !ty.scalar.is_int() {
                            continue;
                        }
                        match op {
                            BinOp::SDiv => {
                                divs.insert((keyed(lhs), keyed(rhs)), *dst);
                            }
                            BinOp::SRem => {
                                if let Some(d) = divs.get(&(keyed(lhs), keyed(rhs))) {
                                    rewrites.push((ii, *dst, *lhs, *rhs, *d));
                                }
                            }
                            _ => {}
                        }
                    }
                }
                for (ii, dst, lhs, rhs, div) in rewrites.into_iter().rev() {
                    let ty = f.ty(dst);
                    let prod = f.new_value(ty);
                    let insts = &mut f.blocks[bi].insts;
                    insts[ii] =
                        Inst::Bin { dst, op: BinOp::Sub, lhs, rhs: Operand::Value(prod) };
                    insts.insert(
                        ii,
                        Inst::Bin { dst: prod, op: BinOp::Mul, lhs: Operand::Value(div), rhs },
                    );
                    n += 1;
                }
            }
            stats.inc("div-rem-pairs", "NumPairs", n);
        }
    }
}

/// Hashable operand key.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
enum OperandKeyed {
    V(u32),
    I(i64, ScalarTy),
    F(u64),
    G(u32),
}

fn keyed(op: &Operand) -> OperandKeyed {
    match op {
        Operand::Value(v) => OperandKeyed::V(v.0),
        Operand::ImmI(c, s) => OperandKeyed::I(*c, *s),
        Operand::ImmF(x) => OperandKeyed::F(x.to_bits()),
        Operand::Global(g) => OperandKeyed::G(g.0),
    }
}

/// The `vector-combine` pass: peepholes on vector code produced by the
/// vectorisers (extract-of-splat, reduce-of-splat, element-wise ops on splats).
pub struct VectorCombine;

impl Pass for VectorCombine {
    fn name(&self) -> &'static str {
        "vector-combine"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let sites = def_sites(f);
            let mut subst: Vec<(ValueId, Operand)> = Vec::new();
            for blk in &f.blocks {
                for inst in &blk.insts {
                    // extractlane(splat x, i) -> x
                    if let Inst::ExtractLane { dst, src, .. } = inst {
                        if let Some(Inst::Splat { src: inner, .. }) =
                            crate::util::def_of(f, &sites, src)
                        {
                            subst.push((*dst, *inner));
                        }
                    }
                }
            }
            let n = subst.len() as u64;
            for (v, op) in subst {
                replace_uses(f, v, op);
            }
            dce_function(f);
            stats.inc("vector-combine", "NumCombined", n);
        }
    }
}

/// The `aggressive-instcombine` pass: costlier patterns run late in -O3 —
/// multiplies by constants with two set bits become shift-add chains.
pub struct AggressiveInstCombine;

impl Pass for AggressiveInstCombine {
    fn name(&self) -> &'static str {
        "aggressive-instcombine"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for bi in 0..f.blocks.len() {
                let mut rewrites: Vec<(usize, ValueId, Operand, u32, u32, ScalarTy)> = Vec::new();
                for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
                    if let Inst::Bin { dst, op: BinOp::Mul, lhs, rhs } = inst {
                        let ty = f.ty(*dst);
                        if ty.lanes != 1 || !ty.scalar.is_int() {
                            continue;
                        }
                        if let Some(c) = rhs.as_const_int() {
                            if c > 0 && c.count_ones() == 2 {
                                let hi = 63 - c.leading_zeros();
                                let lo = c.trailing_zeros();
                                rewrites.push((ii, *dst, *lhs, hi, lo, ty.scalar));
                            }
                        }
                    }
                }
                for (ii, dst, lhs, hi, lo, s) in rewrites.into_iter().rev() {
                    let ty = Ty::scalar(s);
                    let a = f.new_value(ty);
                    let b = f.new_value(ty);
                    let insts = &mut f.blocks[bi].insts;
                    insts[ii] =
                        Inst::Bin { dst, op: BinOp::Add, lhs: Operand::Value(a), rhs: Operand::Value(b) };
                    insts.insert(
                        ii,
                        Inst::Bin { dst: b, op: BinOp::Shl, lhs, rhs: Operand::ImmI(lo as i64, s) },
                    );
                    insts.insert(
                        ii,
                        Inst::Bin { dst: a, op: BinOp::Shl, lhs, rhs: Operand::ImmI(hi as i64, s) },
                    );
                    n += 1;
                }
            }
            stats.inc("aggressive-instcombine", "NumExpanded", n);
        }
    }
}
