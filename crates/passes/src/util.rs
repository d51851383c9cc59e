//! Shared rewriting utilities used by the transformation passes.

use citroen_ir::analysis::Cfg;
use citroen_ir::inst::{BinOp, BlockId, CastKind, CmpOp, Inst, Operand, Term, ValueId};
use citroen_ir::module::Function;
use citroen_ir::types::ScalarTy;
use std::collections::HashMap;

/// Replace every use of `from` (in instructions and terminators) with `to`.
pub fn replace_uses(f: &mut Function, from: ValueId, to: Operand) {
    let rewrite = |op: &mut Operand| {
        if let Operand::Value(v) = op {
            if *v == from {
                *op = to;
            }
        }
    };
    for blk in &mut f.blocks {
        for inst in &mut blk.insts {
            inst.for_each_operand_mut(rewrite);
        }
        blk.term.for_each_operand_mut(rewrite);
    }
}

/// Map from each value to the (block, index) of its defining instruction.
pub fn def_sites(f: &Function) -> HashMap<ValueId, (BlockId, usize)> {
    let mut m = HashMap::with_capacity(f.value_ty.len());
    for (b, blk) in f.iter_blocks() {
        for (i, inst) in blk.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                m.insert(d, (b, i));
            }
        }
    }
    m
}

/// Look up the defining instruction of an operand, if it is a value defined by
/// an instruction (not a parameter).
pub fn def_of<'f>(
    f: &'f Function,
    sites: &HashMap<ValueId, (BlockId, usize)>,
    op: &Operand,
) -> Option<&'f Inst> {
    let v = op.as_value()?;
    let (b, i) = sites.get(&v)?;
    Some(&f.blocks[b.idx()].insts[*i])
}

/// Constant-fold an integer/float binary op over constant operands.
pub fn fold_bin(op: BinOp, s: ScalarTy, lhs: &Operand, rhs: &Operand) -> Option<Operand> {
    match (lhs, rhs) {
        (Operand::ImmI(a, _), Operand::ImmI(b, _)) if s.is_int() => {
            let (a, b) = (s.sext(*a), s.sext(*b));
            use BinOp::*;
            let bits = s.bits().min(64);
            let mask = (bits - 1) as i64;
            let r = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                SDiv => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_div(b)
                }
                SRem => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_rem(b)
                }
                And => a & b,
                Or => a | b,
                Xor => a ^ b,
                Shl => a.wrapping_shl((b & mask) as u32),
                AShr => a.wrapping_shr((b & mask) as u32),
                LShr => ((s.zext(a) as u64) >> ((b & mask) as u64)) as i64,
                SMin => a.min(b),
                SMax => a.max(b),
                _ => return None,
            };
            Some(Operand::ImmI(s.wrap(r), s))
        }
        (Operand::ImmF(a), Operand::ImmF(b)) => {
            use BinOp::*;
            let r = match op {
                FAdd => a + b,
                FSub => a - b,
                FMul => a * b,
                FDiv => a / b,
                SMin => a.min(*b),
                SMax => a.max(*b),
                _ => return None,
            };
            Some(Operand::ImmF(r))
        }
        _ => None,
    }
}

/// Constant-fold a comparison over constant operands; returns an `i1` immediate.
pub fn fold_cmp(op: CmpOp, lhs: &Operand, rhs: &Operand) -> Option<Operand> {
    use CmpOp::*;
    let b = match (lhs, rhs) {
        (Operand::ImmI(a, sa), Operand::ImmI(c, sc)) => {
            let (a, c) = (sa.sext(*a), sc.sext(*c));
            match op {
                Eq => a == c,
                Ne => a != c,
                Slt => a < c,
                Sle => a <= c,
                Sgt => a > c,
                Sge => a >= c,
            }
        }
        (Operand::ImmF(a), Operand::ImmF(c)) => match op {
            Eq => a == c,
            Ne => a != c,
            Slt => a < c,
            Sle => a <= c,
            Sgt => a > c,
            Sge => a >= c,
        },
        _ => return None,
    };
    Some(Operand::ImmI(if b { -1 } else { 0 }, ScalarTy::I1))
}

/// Constant-fold a cast of a constant operand.
pub fn fold_cast(kind: CastKind, from: ScalarTy, to: ScalarTy, src: &Operand) -> Option<Operand> {
    match src {
        Operand::ImmI(v, _) => {
            let v = from.sext(*v);
            Some(match kind {
                CastKind::SExt => Operand::ImmI(v, to),
                CastKind::ZExt => Operand::ImmI(from.zext(v), to),
                CastKind::Trunc => Operand::ImmI(to.wrap(v), to),
                CastKind::SiToFp => Operand::ImmF(v as f64),
                CastKind::FpToSi => return None,
            })
        }
        Operand::ImmF(x) => match kind {
            CastKind::FpToSi => {
                let v = if x.is_nan() { 0 } else { *x as i64 };
                Some(Operand::ImmI(to.wrap(v), to))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Delete blocks unreachable from the entry: rewrites φ-nodes of surviving
/// blocks to drop incoming edges from removed predecessors, compacts the block
/// list, and renumbers branch targets. Returns the number of removed blocks.
pub fn remove_unreachable_blocks(f: &mut Function) -> usize {
    let cfg = Cfg::compute(f);
    let n = f.blocks.len();
    let reachable: Vec<bool> = (0..n).map(|i| cfg.reachable(BlockId(i as u32))).collect();
    let removed = reachable.iter().filter(|r| !**r).count();
    if removed == 0 {
        return 0;
    }
    // Drop φ incomings from unreachable preds.
    for (i, blk) in f.blocks.iter_mut().enumerate() {
        if !reachable[i] {
            continue;
        }
        for inst in &mut blk.insts {
            if let Inst::Phi { incoming, .. } = inst {
                incoming.retain(|(p, _)| reachable[p.idx()]);
            }
        }
    }
    // Compact: old id -> new id.
    let mut remap = vec![BlockId(u32::MAX); n];
    let mut next = 0u32;
    for i in 0..n {
        if reachable[i] {
            remap[i] = BlockId(next);
            next += 1;
        }
    }
    let old_blocks = std::mem::take(&mut f.blocks);
    for (i, mut blk) in old_blocks.into_iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        for inst in &mut blk.insts {
            if let Inst::Phi { incoming, .. } = inst {
                for (p, _) in incoming.iter_mut() {
                    *p = remap[p.idx()];
                }
            }
        }
        blk.term.for_each_successor_mut(|s| *s = remap[s.idx()]);
        f.blocks.push(blk);
    }
    // Degenerate single-incoming φs become copies.
    simplify_single_incoming_phis(f);
    removed
}

/// Replace φs with exactly one incoming edge by their operand.
pub fn simplify_single_incoming_phis(f: &mut Function) -> usize {
    let mut replaced = 0;
    loop {
        let mut subst: Option<(ValueId, Operand)> = None;
        'scan: for blk in &f.blocks {
            for inst in &blk.insts {
                if let Inst::Phi { dst, incoming } = inst {
                    if incoming.len() == 1 && incoming[0].1 != Operand::Value(*dst) {
                        subst = Some((*dst, incoming[0].1));
                        break 'scan;
                    }
                }
            }
        }
        match subst {
            None => break,
            Some((dst, op)) => {
                replace_uses(f, dst, op);
                for blk in &mut f.blocks {
                    blk.insts.retain(|i| i.dst() != Some(dst));
                }
                replaced += 1;
            }
        }
    }
    replaced
}

/// Read-only mirror of [`dce_function`]'s first sweep: whether it would
/// remove at least one instruction. A first sweep that removes nothing makes
/// the whole fixpoint a no-op, so `false` here proves `dce_function` cannot
/// change the function — the fact pass preconditions need, since several
/// passes run `dce_function` unconditionally as cleanup.
pub fn would_dce(f: &Function) -> bool {
    let mut uses = vec![0u32; f.value_ty.len()];
    for blk in &f.blocks {
        for inst in &blk.insts {
            inst.for_each_operand(|op| {
                if let Operand::Value(v) = op {
                    uses[v.idx()] += 1;
                }
            });
        }
        blk.term.for_each_operand(|op| {
            if let Operand::Value(v) = op {
                uses[v.idx()] += 1;
            }
        });
    }
    f.blocks.iter().flat_map(|b| &b.insts).any(|inst| match inst.dst() {
        Some(d) => !inst.has_side_effects() && !inst.reads_memory() && uses[d.idx()] == 0,
        None => false,
    })
}

/// Read-only mirror of [`simplify_single_incoming_phis`]: whether any φ
/// would be replaced by its sole incoming operand.
pub fn has_simplifiable_phi(f: &Function) -> bool {
    f.blocks.iter().flat_map(|b| &b.insts).any(|inst| {
        matches!(inst, Inst::Phi { dst, incoming }
            if incoming.len() == 1 && incoming[0].1 != Operand::Value(*dst))
    })
}

/// Whether any block is unreachable from the entry (read-only mirror of
/// [`remove_unreachable_blocks`] finding work to do).
pub fn has_unreachable_blocks(f: &Function) -> bool {
    let cfg = Cfg::compute(f);
    (0..f.blocks.len()).any(|i| !cfg.reachable(BlockId(i as u32)))
}

/// Remove pure instructions whose results are unused; iterates to a fixpoint.
/// Returns the number of instructions removed.
pub fn dce_function(f: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        let mut uses = vec![0u32; f.value_ty.len()];
        for blk in &f.blocks {
            for inst in &blk.insts {
                inst.for_each_operand(|op| {
                    if let Operand::Value(v) = op {
                        uses[v.idx()] += 1;
                    }
                });
            }
            blk.term.for_each_operand(|op| {
                if let Operand::Value(v) = op {
                    uses[v.idx()] += 1;
                }
            });
        }
        let mut any = false;
        for blk in &mut f.blocks {
            let before = blk.insts.len();
            blk.insts.retain(|inst| match inst.dst() {
                Some(d) if !inst.has_side_effects() && !inst.reads_memory() => {
                    // Allocas are pure-ish: removable when unused.
                    uses[d.idx()] > 0
                }
                _ => true,
            });
            if blk.insts.len() != before {
                any = true;
                removed += before - blk.insts.len();
            }
        }
        if !any {
            break;
        }
    }
    removed
}

/// Symbolic linear address: a sorted multiset of `(atom, coefficient)` terms
/// plus a constant byte offset: `addr = Σ cᵢ·atomᵢ + offset` (a SCEV-lite
/// decomposition). Two addresses with equal term multisets differ by a known
/// constant, which is what SLP's consecutive-access detection and DSE's
/// overwrite detection need — including through `iv*2`-style scaled indexing
/// and loop-carried pointers.
#[derive(Debug, Clone, PartialEq)]
pub struct AddrExpr {
    /// Non-constant `(operand, coefficient)` terms, sorted canonically.
    /// Empty means a constant address.
    pub atoms: Vec<(Operand, i64)>,
    /// Constant byte offset.
    pub offset: i64,
}

impl AddrExpr {
    /// The single base operand, when the address is exactly `base + const`.
    pub fn single_base(&self) -> Option<Operand> {
        if self.atoms.len() == 1 && self.atoms[0].1 == 1 {
            Some(self.atoms[0].0)
        } else {
            None
        }
    }

    /// The first atom (canonical stand-in); `None` when constant.
    pub fn base(&self) -> Option<Operand> {
        self.atoms.first().map(|(a, _)| *a)
    }

    /// Stable sort/hash key for grouping.
    pub fn atoms_key(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (a, c) in &self.atoms {
            match a {
                Operand::Value(v) => {
                    let _ = write!(s, "{c}*v{};", v.0);
                }
                Operand::Global(g) => {
                    let _ = write!(s, "{c}*g{};", g.0);
                }
                Operand::ImmI(x, t) => {
                    let _ = write!(s, "{c}*i{}:{};", x, t.bits());
                }
                Operand::ImmF(x) => {
                    let _ = write!(s, "{c}*f{};", x.to_bits());
                }
            }
        }
        s
    }

    /// Coefficient of a specific atom (0 if absent).
    pub fn coeff_of(&self, op: &Operand) -> i64 {
        self.atoms.iter().find(|(a, _)| a == op).map(|(_, c)| *c).unwrap_or(0)
    }

    /// Global atoms appearing with coefficient 1 (array bases, used by alias
    /// reasoning over distinct arrays).
    pub fn globals(&self) -> Vec<citroen_ir::inst::GlobalId> {
        self.atoms
            .iter()
            .filter_map(|(a, c)| match a {
                Operand::Global(g) if *c == 1 => Some(*g),
                _ => None,
            })
            .collect()
    }
}

fn atom_rank(op: &Operand) -> (u8, u64) {
    match op {
        Operand::Value(v) => (0, v.0 as u64),
        Operand::Global(g) => (1, g.0 as u64),
        Operand::ImmI(c, _) => (2, *c as u64),
        Operand::ImmF(x) => (3, x.to_bits()),
    }
}

/// Decompose an address operand into `Σ cᵢ·atomᵢ + offset` by walking
/// `add`/`sub`/`mul-const`/`shl-const` trees (all i64 wrapping arithmetic, so
/// the decomposition is exact). Used by SLP, DSE, GVN load numbering, SROA
/// and the loop vectoriser's stride analysis.
pub fn addr_expr(
    f: &Function,
    sites: &HashMap<ValueId, (BlockId, usize)>,
    op: &Operand,
) -> AddrExpr {
    let mut atoms: Vec<(Operand, i64)> = Vec::new();
    let mut offset = 0i64;
    let mut work: Vec<(Operand, i64)> = vec![(*op, 1)];
    let mut budget = 64;
    while let Some((cur, coeff)) = work.pop() {
        budget -= 1;
        if budget == 0 || atoms.len() > 8 {
            atoms.push((cur, coeff));
            continue;
        }
        if let Some(c) = cur.as_const_int() {
            offset = offset.wrapping_add(c.wrapping_mul(coeff));
            continue;
        }
        // Only 64-bit scalar arithmetic decomposes exactly (narrower types
        // wrap at their own width).
        let ty = f.operand_ty(&cur);
        if ty.scalar != citroen_ir::types::ScalarTy::I64 || ty.lanes != 1 {
            atoms.push((cur, coeff));
            continue;
        }
        match def_of(f, sites, &cur) {
            Some(Inst::Bin { op: BinOp::Add, lhs, rhs, .. }) => {
                work.push((*lhs, coeff));
                work.push((*rhs, coeff));
            }
            Some(Inst::Bin { op: BinOp::Sub, lhs, rhs, .. }) => {
                work.push((*lhs, coeff));
                work.push((*rhs, coeff.wrapping_neg()));
            }
            Some(Inst::Bin { op: BinOp::Mul, lhs, rhs, .. }) => {
                if let Some(c) = rhs.as_const_int() {
                    work.push((*lhs, coeff.wrapping_mul(c)));
                } else if let Some(c) = lhs.as_const_int() {
                    work.push((*rhs, coeff.wrapping_mul(c)));
                } else {
                    atoms.push((cur, coeff));
                }
            }
            Some(Inst::Bin { op: BinOp::Shl, lhs, rhs, .. }) => {
                match rhs.as_const_int() {
                    Some(k) if (0..32).contains(&k) => {
                        work.push((*lhs, coeff.wrapping_mul(1i64 << k)));
                    }
                    _ => atoms.push((cur, coeff)),
                }
            }
            _ => atoms.push((cur, coeff)),
        }
    }
    // Combine like terms, drop zero coefficients, sort canonically.
    atoms.sort_by_key(|(a, _)| atom_rank(a));
    let mut combined: Vec<(Operand, i64)> = Vec::with_capacity(atoms.len());
    for (a, c) in atoms {
        match combined.last_mut() {
            Some((la, lc)) if *la == a => *lc = lc.wrapping_add(c),
            _ => combined.push((a, c)),
        }
    }
    combined.retain(|(_, c)| *c != 0);
    AddrExpr { atoms: combined, offset }
}

/// Conservative may-alias test between `[a, a+sa)` and `[b, b+sb)`.
///
/// Distinct-global reasoning assumes in-bounds accesses (the C object model):
/// an index expression on one array is assumed not to reach into another.
pub fn may_alias(a: &AddrExpr, sa: u32, b: &AddrExpr, sb: u32) -> bool {
    if a.atoms == b.atoms {
        // Same symbolic base: disjoint constant ranges don't alias.
        let (lo1, hi1) = (a.offset, a.offset + sa as i64);
        let (lo2, hi2) = (b.offset, b.offset + sb as i64);
        return lo1 < hi2 && lo2 < hi1;
    }
    // Addresses anchored at distinct single globals never alias.
    let (ga, gb) = (a.globals(), b.globals());
    if ga.len() == 1 && gb.len() == 1 && ga[0] != gb[0] {
        return false;
    }
    true
}

/// Whether the terminator of `blk` is a trivial `br` and the block is empty of
/// instructions — a forwarding block.
pub fn is_forwarding_block(f: &Function, b: BlockId) -> Option<BlockId> {
    let blk = &f.blocks[b.idx()];
    if blk.insts.is_empty() {
        if let Term::Br(t) = blk.term {
            if t != b {
                return Some(t);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::inst::GlobalId;
    use citroen_ir::types::I64;

    #[test]
    fn fold_bin_wraps_at_width() {
        let r = fold_bin(
            BinOp::Add,
            ScalarTy::I16,
            &Operand::ImmI(32767, ScalarTy::I16),
            &Operand::ImmI(1, ScalarTy::I16),
        )
        .unwrap();
        assert_eq!(r, Operand::ImmI(-32768, ScalarTy::I16));
        // div by zero refuses to fold
        assert!(fold_bin(BinOp::SDiv, ScalarTy::I64, &Operand::imm64(1), &Operand::imm64(0))
            .is_none());
    }

    #[test]
    fn fold_cmp_and_cast() {
        assert_eq!(
            fold_cmp(CmpOp::Slt, &Operand::imm64(1), &Operand::imm64(2)),
            Some(Operand::ImmI(-1, ScalarTy::I1))
        );
        assert_eq!(
            fold_cast(CastKind::SExt, ScalarTy::I16, ScalarTy::I64, &Operand::ImmI(-1, ScalarTy::I16)),
            Some(Operand::ImmI(-1, ScalarTy::I64))
        );
        assert_eq!(
            fold_cast(CastKind::ZExt, ScalarTy::I16, ScalarTy::I64, &Operand::ImmI(-1, ScalarTy::I16)),
            Some(Operand::ImmI(65535, ScalarTy::I64))
        );
        assert_eq!(
            fold_cast(CastKind::Trunc, ScalarTy::I64, ScalarTy::I8, &Operand::imm64(257)),
            Some(Operand::ImmI(1, ScalarTy::I8))
        );
    }

    #[test]
    fn addr_expr_walks_add_chains() {
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let base = b.param(0);
        let a1 = b.bin(BinOp::Add, I64, base, Operand::imm64(8));
        let a2 = b.bin(BinOp::Add, I64, a1, Operand::imm64(4));
        let l = b.load(I64, a2);
        b.ret(Some(l));
        let f = b.finish();
        let sites = def_sites(&f);
        let e = addr_expr(&f, &sites, &a2);
        assert_eq!(e.single_base(), Some(base));
        assert_eq!(e.offset, 12);
    }

    #[test]
    fn addr_expr_multiset_atoms() {
        // addr = base + x + 4 + x2: two value atoms, const folded out.
        let mut b = FunctionBuilder::new("f", vec![I64, I64, I64], Some(I64));
        let s1 = b.bin(BinOp::Add, I64, b.param(0), b.param(1));
        let s2 = b.bin(BinOp::Add, I64, s1, Operand::imm64(4));
        let s3 = b.bin(BinOp::Add, I64, s2, b.param(2));
        let l = b.load(I64, s3);
        b.ret(Some(l));
        let f = b.finish();
        let sites = def_sites(&f);
        let e = addr_expr(&f, &sites, &s3);
        assert_eq!(e.atoms.len(), 3);
        assert_eq!(e.offset, 4);
        // Same atoms in another association compare equal.
        let e2 = {
            let mut b = FunctionBuilder::new("g", vec![I64, I64, I64], Some(I64));
            let t1 = b.bin(BinOp::Add, I64, b.param(2), b.param(0));
            let t2 = b.bin(BinOp::Add, I64, t1, b.param(1));
            let t3 = b.bin(BinOp::Add, I64, t2, Operand::imm64(4));
            let l = b.load(I64, t3);
            b.ret(Some(l));
            let f2 = b.finish();
            let sites2 = def_sites(&f2);
            addr_expr(&f2, &sites2, &t3)
        };
        assert_eq!(e.atoms, e2.atoms);
        assert_eq!(e.atoms_key(), e2.atoms_key());
    }

    fn at(op: Operand, offset: i64) -> AddrExpr {
        AddrExpr { atoms: vec![(op, 1)], offset }
    }

    #[test]
    fn alias_rules() {
        let g0 = at(Operand::Global(GlobalId(0)), 0);
        let g1 = at(Operand::Global(GlobalId(1)), 0);
        assert!(!may_alias(&g0, 8, &g1, 8));
        let g0_off8 = at(Operand::Global(GlobalId(0)), 8);
        assert!(!may_alias(&g0, 8, &g0_off8, 8));
        let g0_off4 = at(Operand::Global(GlobalId(0)), 4);
        assert!(may_alias(&g0, 8, &g0_off4, 8));
        let unk = at(Operand::Value(ValueId(0)), 0);
        assert!(may_alias(&unk, 1, &g0, 1));
        // Global + index vs a different global + the same index: disjoint arrays.
        let gx0 = AddrExpr {
            atoms: vec![(Operand::Value(ValueId(3)), 1), (Operand::Global(GlobalId(0)), 1)],
            offset: 0,
        };
        let gx1 = AddrExpr {
            atoms: vec![(Operand::Value(ValueId(3)), 1), (Operand::Global(GlobalId(1)), 1)],
            offset: 0,
        };
        assert!(!may_alias(&gx0, 8, &gx1, 8));
    }

    #[test]
    fn dce_removes_chains() {
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let x = b.bin(BinOp::Add, I64, b.param(0), Operand::imm64(1));
        let _dead = b.bin(BinOp::Mul, I64, x, Operand::imm64(3)); // unused
        let _dead2 = b.bin(BinOp::Add, I64, _dead, Operand::imm64(1)); // uses dead
        b.ret(Some(x));
        let mut f = b.finish();
        let n = dce_function(&mut f);
        assert_eq!(n, 2);
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn read_only_mirrors_agree_with_mutators() {
        // Dead chain: would_dce says yes, dce_function removes it, then no.
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let x = b.bin(BinOp::Add, I64, b.param(0), Operand::imm64(1));
        let _dead = b.bin(BinOp::Mul, I64, x, Operand::imm64(3));
        b.ret(Some(x));
        let mut f = b.finish();
        assert!(would_dce(&f));
        assert!(dce_function(&mut f) > 0);
        assert!(!would_dce(&f));
        assert_eq!(dce_function(&mut f), 0);

        // Live-only function: mirror predicts the no-op.
        let mut b = FunctionBuilder::new("g", vec![I64], Some(I64));
        let y = b.bin(BinOp::Add, I64, b.param(0), Operand::imm64(2));
        b.ret(Some(y));
        let mut g = b.finish();
        assert!(!would_dce(&g));
        assert_eq!(dce_function(&mut g), 0);
        assert!(!has_simplifiable_phi(&g));
        assert_eq!(simplify_single_incoming_phis(&mut g), 0);
        assert!(!has_unreachable_blocks(&g));
        assert_eq!(remove_unreachable_blocks(&mut g), 0);

        // Unreachable block: mirror sees it, mutator removes it, mirror clears.
        let mut b = FunctionBuilder::new("h", vec![], Some(I64));
        let dead = b.block();
        b.ret(Some(Operand::imm64(0)));
        b.switch_to(dead);
        b.ret(Some(Operand::imm64(1)));
        let mut h = b.finish();
        assert!(has_unreachable_blocks(&h));
        assert_eq!(remove_unreachable_blocks(&mut h), 1);
        assert!(!has_unreachable_blocks(&h));
    }

    #[test]
    fn narrow_fold_i16() {
        // i16 mul that overflows 16 bits must wrap
        let r = fold_bin(
            BinOp::Mul,
            ScalarTy::I16,
            &Operand::ImmI(300, ScalarTy::I16),
            &Operand::ImmI(300, ScalarTy::I16),
        )
        .unwrap();
        if let Operand::ImmI(v, _) = r {
            assert_eq!(v, ScalarTy::I16.sext(90000));
        } else {
            panic!();
        }
    }
}
