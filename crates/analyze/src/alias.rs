//! Intraprocedural flow-sensitive alias analysis.
//!
//! Answers must/may/no-alias queries between pairs of memory accesses of one
//! function, combining two independent sound arguments:
//!
//! 1. **Symbolic decomposition** ([`SymAddr`]): every address operand is
//!    decomposed into `Σ coeffᵢ·atomᵢ + const` over wrapping `i64` arithmetic
//!    by walking `add`/`sub`/`mul`-by-const/`shl`-by-const chains of scalar
//!    `i64` defs. Values the walk cannot see through (loads, calls, φs,
//!    parameters, casts, narrow arithmetic) become opaque atoms, so the
//!    decomposition is *exact* — in any single execution state two addresses
//!    with equal canonical decompositions are equal, and two with equal atom
//!    lists differ by exactly the (wrapping) difference of their constant
//!    offsets. SSA gives the flow-sensitivity: an atom names the value the
//!    program computed at its def, so both sides of a query are compared in
//!    the same state.
//! 2. **Root classification** (via [`memeffects::classify_addr`]): addresses
//!    rooted at distinct in-bounds globals, at a global vs. the alloca stack,
//!    or at two distinct allocas cannot overlap, because the interpreter lays
//!    globals out disjointly at the bottom of memory and bump-allocates
//!    allocas above them (two live allocas of one invocation never share
//!    bytes; re-executing an alloca yields a fresh region). The interval of
//!    the offset-from-root refines same-root queries.
//!
//! Lattice and termination: the per-value points-to domain is
//! `Root × Interval` — `Root` is the flat lattice `None ⊏ {Global(g),
//! Stack(v)} ⊏ Unknown` and offsets live in the interval domain. φ/select
//! joins stay on the same root or go to ⊤; cycles are cut by the classifier's
//! memo table (in-progress values read as ⊤) and a depth bound, so one pass
//! over the (finite) SSA value graph terminates. The symbolic walk is bounded
//! by an atom budget and strictly decreasing work-list weight.
//!
//! The answers are *checkable*: `citroen-analyze alias-oracle` replays every
//! `No`/`Must` verdict against concrete interpreter runs (see
//! [`crate::aliasoracle`] and the root crate's `fuzz::run_alias_campaign`).

use crate::intervals::{FunctionIntervals, Interval};
use crate::memeffects::{classify_addr, Access, Root};
use citroen_ir::inst::{BinOp, Inst, Operand, ValueId};
use citroen_ir::module::{Function, Module};
use citroen_ir::types::ScalarTy;
use std::collections::HashMap;

/// Answer of an alias query between two `(address, size)` accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasResult {
    /// The byte ranges provably never overlap (in any state where both
    /// addresses are evaluated).
    No,
    /// Overlap cannot be ruled out.
    May,
    /// The start addresses are provably equal in every such state.
    Must,
}

/// One term of a symbolic address: an opaque SSA value or a global base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// An SSA value the decomposition does not see through.
    Value(u32),
    /// The base address of module global `g`.
    Global(u32),
}

/// Exact symbolic form of an address: `Σ coeff·atom + offset` over wrapping
/// `i64` arithmetic. Terms are sorted, coalesced and zero-coefficient-free,
/// so equal decompositions mean equal concrete addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymAddr {
    /// Non-constant terms `(atom, coefficient)`, canonically sorted.
    pub terms: Vec<(Atom, i64)>,
    /// Constant byte offset (wrapping `i64`).
    pub offset: i64,
}

impl SymAddr {
    /// Whether the address is `atom + const` for a single unit-coefficient atom.
    pub fn single_base(&self) -> Option<Atom> {
        match self.terms.as_slice() {
            [(a, 1)] => Some(*a),
            _ => None,
        }
    }
}

/// Alias queries over one function. Construction precomputes def sites and
/// alloca sizes; each query is then a pair of bounded walks.
pub struct AliasAnalysis<'a> {
    m: &'a Module,
    f: &'a Function,
    fi: &'a FunctionIntervals,
    /// Defining instruction index per value: `(block, inst)`.
    def_site: HashMap<u32, (usize, usize)>,
    /// Bytes reserved by each alloca, keyed by its dst value.
    alloca_bytes: HashMap<u32, u32>,
}

impl<'a> AliasAnalysis<'a> {
    /// Build the analysis for function `f` of `m` with its interval facts.
    pub fn new(m: &'a Module, f: &'a Function, fi: &'a FunctionIntervals) -> AliasAnalysis<'a> {
        let mut def_site = HashMap::new();
        let mut alloca_bytes = HashMap::new();
        for (bi, blk) in f.blocks.iter().enumerate() {
            for (ii, inst) in blk.insts.iter().enumerate() {
                if let Some(d) = inst.dst() {
                    def_site.insert(d.0, (bi, ii));
                }
                if let Inst::Alloca { dst, bytes } = inst {
                    alloca_bytes.insert(dst.0, *bytes);
                }
            }
        }
        AliasAnalysis { m, f, fi, def_site, alloca_bytes }
    }

    /// The function under analysis.
    pub fn function(&self) -> &Function {
        self.f
    }

    /// Exact symbolic decomposition of an address operand.
    pub fn symbolic(&self, op: &Operand) -> SymAddr {
        let mut terms: Vec<(Atom, i64)> = Vec::new();
        let mut offset = 0i64;
        // (operand, coefficient) work list; budget bounds pathological chains.
        let mut work: Vec<(Operand, i64)> = vec![(*op, 1)];
        let mut budget = 64u32;
        while let Some((cur, coeff)) = work.pop() {
            if coeff == 0 {
                continue;
            }
            budget = budget.saturating_sub(1);
            match cur {
                Operand::ImmI(v, _) => offset = offset.wrapping_add(v.wrapping_mul(coeff)),
                Operand::ImmF(_) => terms.push((Atom::Value(u32::MAX), coeff)),
                Operand::Global(g) => terms.push((Atom::Global(g.0), coeff)),
                Operand::Value(v) => {
                    let def = self.def_site.get(&v.0).map(|&(b, i)| &self.f.blocks[b].insts[i]);
                    let decomposable = budget > 0
                        && terms.len() <= 8
                        && self.f.ty(v) == citroen_ir::types::I64;
                    match def {
                        Some(Inst::Bin { op: BinOp::Add, lhs, rhs, .. }) if decomposable => {
                            work.push((*lhs, coeff));
                            work.push((*rhs, coeff));
                        }
                        Some(Inst::Bin { op: BinOp::Sub, lhs, rhs, .. }) if decomposable => {
                            work.push((*lhs, coeff));
                            work.push((*rhs, coeff.wrapping_neg()));
                        }
                        Some(Inst::Bin { op: BinOp::Mul, lhs, rhs, .. }) if decomposable => {
                            match (lhs.as_const_int(), rhs.as_const_int()) {
                                (_, Some(c)) => work.push((*lhs, coeff.wrapping_mul(c))),
                                (Some(c), _) => work.push((*rhs, coeff.wrapping_mul(c))),
                                _ => terms.push((Atom::Value(v.0), coeff)),
                            }
                        }
                        Some(Inst::Bin { op: BinOp::Shl, lhs, rhs, .. }) if decomposable => {
                            match rhs.as_const_int() {
                                // The interpreter masks shift amounts by 63.
                                Some(k) => work.push((
                                    *lhs,
                                    coeff.wrapping_mul(1i64.wrapping_shl(k as u32 & 63)),
                                )),
                                None => terms.push((Atom::Value(v.0), coeff)),
                            }
                        }
                        _ => terms.push((Atom::Value(v.0), coeff)),
                    }
                }
            }
        }
        // Canonicalise: sort, coalesce, drop zeros.
        terms.sort_unstable_by_key(|&(a, _)| a);
        let mut canon: Vec<(Atom, i64)> = Vec::with_capacity(terms.len());
        for (a, c) in terms {
            match canon.last_mut() {
                Some((pa, pc)) if *pa == a => *pc = pc.wrapping_add(c),
                _ => canon.push((a, c)),
            }
        }
        canon.retain(|&(_, c)| c != 0);
        SymAddr { terms: canon, offset }
    }

    /// Root classification of an address operand (memeffects machinery).
    pub fn classify(&self, op: &Operand) -> Access {
        classify_addr(self.f, self.fi, op)
    }

    fn global_in_bounds(&self, a: &Access, bytes: u32) -> bool {
        match a.root {
            Root::Global(g) => {
                (g as usize) < self.m.globals.len()
                    && !a.offset.is_bottom()
                    && a.offset.lo >= 0
                    && a.offset.hi + bytes as i128
                        <= self.m.globals[g as usize].init.bytes() as i128
            }
            _ => false,
        }
    }

    fn stack_in_bounds(&self, a: &Access, bytes: u32) -> bool {
        match a.root {
            Root::Stack(v) => match self.alloca_bytes.get(&v) {
                Some(&size) => {
                    !a.offset.is_bottom()
                        && a.offset.lo >= 0
                        && a.offset.hi + bytes as i128 <= size as i128
                }
                None => false,
            },
            _ => false,
        }
    }

    /// Alias relation between access `a` of `sa` bytes and access `b` of `sb`
    /// bytes. `Must` means equal start addresses; `No` means the byte ranges
    /// `[a, a+sa)` and `[b, b+sb)` are disjoint.
    pub fn alias(&self, a: &Operand, sa: u32, b: &Operand, sb: u32) -> AliasResult {
        // Argument 1: exact symbolic difference.
        let xa = self.symbolic(a);
        let xb = self.symbolic(b);
        if xa.terms == xb.terms {
            // Addresses differ by exactly d (wrapping, as the machine computes
            // them); the ranges overlap iff d ∈ (-sa, sb) mod 2⁶⁴.
            let d = (xa.offset as u64).wrapping_sub(xb.offset as u64);
            if d == 0 {
                return AliasResult::Must;
            }
            if d >= sb as u64 && d.wrapping_neg() >= sa as u64 {
                return AliasResult::No;
            }
            // Certain partial overlap: not a must-start-alias, not disjoint.
            return AliasResult::May;
        }

        // Argument 2: independent roots / refined same-root offsets.
        let ca = self.classify(a);
        let cb = self.classify(b);
        match (ca.root, cb.root) {
            // Distinct globals are laid out disjointly, but only in-bounds
            // accesses are confined to their own global.
            (Root::Global(ga), Root::Global(gb))
                if ga != gb && self.global_in_bounds(&ca, sa) && self.global_in_bounds(&cb, sb) =>
            {
                return AliasResult::No;
            }
            (Root::Global(ga), Root::Global(gb))
                if ga == gb && self.global_in_bounds(&ca, sa) && self.global_in_bounds(&cb, sb) =>
            {
                // In-bounds offsets cannot wrap; disjoint intervals mean
                // disjoint ranges, singleton equal offsets mean must.
                if ca.offset.hi + sa as i128 <= cb.offset.lo
                    || cb.offset.hi + sb as i128 <= ca.offset.lo
                {
                    return AliasResult::No;
                }
                if let (Some(x), Some(y)) = (ca.offset.as_const(), cb.offset.as_const()) {
                    if x == y {
                        return AliasResult::Must;
                    }
                }
            }
            // Globals live below the alloca region; a forward-offset stack
            // access can never reach down into an in-bounds global access.
            (Root::Global(_), Root::Stack(_))
                if self.global_in_bounds(&ca, sa)
                    && !cb.offset.is_bottom()
                    && cb.offset.lo >= 0 =>
            {
                return AliasResult::No;
            }
            (Root::Stack(_), Root::Global(_))
                if self.global_in_bounds(&cb, sb)
                    && !ca.offset.is_bottom()
                    && ca.offset.lo >= 0 =>
            {
                return AliasResult::No;
            }
            // Two live allocas of one invocation never share bytes.
            (Root::Stack(va), Root::Stack(vb))
                if va != vb && self.stack_in_bounds(&ca, sa) && self.stack_in_bounds(&cb, sb) =>
            {
                return AliasResult::No;
            }
            (Root::Stack(va), Root::Stack(vb))
                if va == vb && self.stack_in_bounds(&ca, sa) && self.stack_in_bounds(&cb, sb) =>
            {
                if ca.offset.hi + sa as i128 <= cb.offset.lo
                    || cb.offset.hi + sb as i128 <= ca.offset.lo
                {
                    return AliasResult::No;
                }
                if let (Some(x), Some(y)) = (ca.offset.as_const(), cb.offset.as_const()) {
                    if x == y {
                        return AliasResult::Must;
                    }
                }
            }
            _ => {}
        }
        AliasResult::May
    }

    /// Whether the ranges provably cannot overlap.
    pub fn no_alias(&self, a: &Operand, sa: u32, b: &Operand, sb: u32) -> bool {
        self.alias(a, sa, b, sb) == AliasResult::No
    }

    /// Whether the start addresses are provably equal.
    pub fn must_alias(&self, a: &Operand, sa: u32, b: &Operand, sb: u32) -> bool {
        self.alias(a, sa, b, sb) == AliasResult::Must
    }

    /// The provably-confined root region of a `bytes`-wide access at `addr`:
    /// `Some((root, touched))` when the access is in bounds of its global or
    /// alloca root region, with `touched` the byte-index interval it can
    /// reach within that region. `None` means the access is not provably
    /// confined (unknown root, absolute address, or possible out-of-bounds).
    pub fn confined_root(&self, addr: &Operand, bytes: u32) -> Option<(Root, Interval)> {
        let a = self.classify(addr);
        let in_bounds = match a.root {
            Root::Global(_) => self.global_in_bounds(&a, bytes),
            Root::Stack(_) => self.stack_in_bounds(&a, bytes),
            _ => false,
        };
        if !in_bounds {
            return None;
        }
        // In-bounds offsets are confined to the (small) region size, so the
        // touched-range arithmetic cannot overflow.
        Some((a.root, Interval { lo: a.offset.lo, hi: a.offset.hi + bytes as i128 - 1 }))
    }

    /// Whether every atom of `sym` is defined outside the given blocks (by
    /// index) — i.e. the address re-evaluates to the same bytes on every
    /// iteration of a loop made of exactly those blocks. Parameters and
    /// globals are always invariant.
    pub fn atoms_invariant_outside(&self, sym: &SymAddr, blocks: &[usize]) -> bool {
        sym.terms.iter().all(|&(a, _)| match a {
            Atom::Global(_) => true,
            Atom::Value(v) => match self.def_site.get(&v) {
                Some(&(b, _)) => !blocks.contains(&b),
                None => (v as usize) < self.f.params.len(), // param or undef
            },
        })
    }

    /// The defining block index of a value, if it has one.
    pub fn def_block(&self, v: ValueId) -> Option<usize> {
        self.def_site.get(&v.0).map(|&(b, _)| b)
    }
}

/// Byte width of the access made by a load destination or store type.
pub fn access_bytes(f: &Function, inst: &Inst) -> Option<(Operand, u32)> {
    match inst {
        Inst::Load { dst, addr } => Some((*addr, f.ty(*dst).bytes())),
        Inst::Store { ty, addr, .. } => Some((*addr, ty.bytes())),
        _ => None,
    }
}

/// Scalar type helper used by consumers printing access descriptions.
pub fn scalar_name(s: ScalarTy) -> &'static str {
    match s {
        ScalarTy::I1 => "i1",
        ScalarTy::I8 => "i8",
        ScalarTy::I16 => "i16",
        ScalarTy::I32 => "i32",
        ScalarTy::I64 => "i64",
        ScalarTy::F64 => "f64",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals;
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::module::{GlobalInit, Module};
    use citroen_ir::types::I64;

    fn with_func(
        build: impl FnOnce(&mut Module, &mut FunctionBuilder) -> Vec<(Operand, u32)>,
    ) -> (Module, Vec<(Operand, u32)>) {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64, I64], Some(I64));
        let accesses = build(&mut m, &mut b);
        b.ret(Some(Operand::imm64(0)));
        m.add_func(b.finish());
        (m, accesses)
    }

    fn query(m: &Module, a: &(Operand, u32), b: &(Operand, u32)) -> AliasResult {
        let iv = intervals::analyze_module(m);
        let aa = AliasAnalysis::new(m, &m.funcs[0], &iv.funcs[0]);
        aa.alias(&a.0, a.1, &b.0, b.1)
    }

    #[test]
    fn same_base_disjoint_offsets_no_alias() {
        let (m, acc) = with_func(|_, b| {
            let base = b.param(0);
            let a1 = b.bin(BinOp::Add, I64, base, Operand::imm64(8));
            let a2 = b.bin(BinOp::Add, I64, base, Operand::imm64(16));
            vec![(a1, 8), (a2, 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::No);
    }

    #[test]
    fn same_base_same_offset_must_alias() {
        let (m, acc) = with_func(|_, b| {
            let base = b.param(0);
            let a1 = b.bin(BinOp::Add, I64, base, Operand::imm64(8));
            let a2 = b.bin(BinOp::Add, I64, Operand::imm64(8), base);
            vec![(a1, 8), (a2, 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::Must);
    }

    #[test]
    fn same_base_partial_overlap_is_may() {
        let (m, acc) = with_func(|_, b| {
            let base = b.param(0);
            let a1 = b.bin(BinOp::Add, I64, base, Operand::imm64(8));
            let a2 = b.bin(BinOp::Add, I64, base, Operand::imm64(12));
            vec![(a1, 8), (a2, 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::May);
    }

    #[test]
    fn distinct_globals_no_alias_only_in_bounds() {
        let (m, acc) = with_func(|m, _| {
            let g1 = m.add_global("a", GlobalInit::Zero(8), true);
            let g2 = m.add_global("b", GlobalInit::Zero(8), true);
            vec![(Operand::Global(g1), 8), (Operand::Global(g2), 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::No);
        // Out of bounds: a 16-byte access from g1 spills into g2's storage.
        assert_eq!(query(&m, &(acc[0].0, 16), &acc[1]), AliasResult::May);
    }

    #[test]
    fn global_vs_alloca_no_alias() {
        let (m, acc) = with_func(|m, b| {
            let g = m.add_global("a", GlobalInit::Zero(8), true);
            let s = b.alloca(8);
            vec![(Operand::Global(g), 8), (s, 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::No);
    }

    #[test]
    fn distinct_allocas_no_alias() {
        let (m, acc) = with_func(|_, b| {
            let s1 = b.alloca(8);
            let s2 = b.alloca(16);
            vec![(s1, 8), (s2, 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::No);
    }

    #[test]
    fn unknown_values_are_may() {
        let (m, acc) = with_func(|_, b| {
            vec![(b.param(0), 8), (b.param(1), 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::May);
    }

    #[test]
    fn scaled_index_decomposition() {
        // base + 8*i vs base + 8*i + 4 with 4-byte accesses: disjoint.
        let (m, acc) = with_func(|_, b| {
            let base = b.param(0);
            let i = b.param(1);
            let s = b.bin(BinOp::Shl, I64, i, Operand::imm64(3));
            let a1 = b.bin(BinOp::Add, I64, base, s);
            let a2 = b.bin(BinOp::Add, I64, a1, Operand::imm64(4));
            vec![(a1, 4), (a2, 4)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::No);
    }

    #[test]
    fn mul_by_const_matches_shl() {
        // 8*i written as mul and as shl decompose identically.
        let (m, acc) = with_func(|_, b| {
            let base = b.param(0);
            let i = b.param(1);
            let s1 = b.bin(BinOp::Shl, I64, i, Operand::imm64(3));
            let s2 = b.bin(BinOp::Mul, I64, i, Operand::imm64(8));
            let a1 = b.bin(BinOp::Add, I64, base, s1);
            let a2 = b.bin(BinOp::Add, I64, base, s2);
            vec![(a1, 8), (a2, 8)]
        });
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::Must);
    }

    #[test]
    fn narrow_arithmetic_is_opaque() {
        // An i32 add must NOT be decomposed (it wraps at 32 bits).
        let (m, acc) = with_func(|_, b| {
            use citroen_ir::inst::CastKind;
            use citroen_ir::types::I32;
            let x = b.cast(CastKind::Trunc, I32, b.param(0));
            let y = b.bin(BinOp::Add, I32, x, Operand::imm64(8));
            let w = b.cast(CastKind::SExt, I64, y);
            let v = b.cast(CastKind::SExt, I64, x);
            vec![(w, 4), (v, 4)]
        });
        // w = sext(x+8 mod 2³²) is NOT always v+8; the analysis must say May.
        assert_eq!(query(&m, &acc[0], &acc[1]), AliasResult::May);
    }
}
