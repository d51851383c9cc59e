//! Redundancy elimination: `gvn`, `early-cse`, `sccp`, `dce`, `adce`, `dse`,
//! `sink` and `correlated-propagation`.
//!
//! GVN honours function attributes: calls to `readnone` functions are pure
//! and value-numberable, and `readonly`/`readnone` calls do not clobber load
//! equivalence — this is the `function-attrs` interaction the paper uses to
//! argue that compilation statistics see transformations that IR-syntax
//! features cannot (§3.4).

use crate::manager::Pass;
use crate::stats::Stats;
use crate::util::{
    addr_expr, def_sites, dce_function, fold_bin, fold_cast, fold_cmp, may_alias,
    remove_unreachable_blocks, replace_uses, AddrExpr,
};
use citroen_ir::analysis::{Cfg, DomTree};
use citroen_ir::inst::{BlockId, CastKind, Inst, Operand, Term, ValueId};
use citroen_ir::module::{Function, Module};
use citroen_ir::types::Ty;
use std::collections::{HashMap, HashSet};

/// Hashable canonical operand.
#[derive(PartialEq, Eq, Hash, Clone, Copy, Debug, PartialOrd, Ord)]
enum OpKey {
    V(u32),
    I(i64, u8),
    F(u64),
    G(u32),
}

/// A load's address key: the address expression's atoms with their
/// scales, its constant offset, and the access size in bytes.
type LoadKey = (Vec<(OpKey, i64)>, i64, u8);

fn opkey(op: &Operand) -> OpKey {
    match op {
        Operand::Value(v) => OpKey::V(v.0),
        Operand::ImmI(c, s) => OpKey::I(*c, s.bits() as u8),
        Operand::ImmF(x) => OpKey::F(x.to_bits()),
        Operand::Global(g) => OpKey::G(g.0),
    }
}

/// Canonical hashable key of a pure instruction.
#[derive(PartialEq, Eq, Hash, Clone, Debug)]
enum InstKey {
    Bin(citroen_ir::inst::BinOp, Ty, OpKey, OpKey),
    Cmp(citroen_ir::inst::CmpOp, OpKey, OpKey),
    Cast(CastKind, Ty, OpKey),
    Select(OpKey, OpKey, OpKey),
    Splat(Ty, OpKey),
    Extract(OpKey, u8),
    Reduce(citroen_ir::inst::BinOp, OpKey),
    PureCall(u32, Vec<OpKey>),
    #[allow(dead_code)] // reserved for cross-block load numbering
    Load(Ty, OpKey, i64, u64),
}

fn pure_key(f: &Function, m: &Module, inst: &Inst) -> Option<(InstKey, ValueId)> {
    match inst {
        Inst::Bin { dst, op, lhs, rhs } => {
            let (mut a, mut b) = (opkey(lhs), opkey(rhs));
            if op.commutative() && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            Some((InstKey::Bin(*op, f.ty(*dst), a, b), *dst))
        }
        Inst::Cmp { dst, op, lhs, rhs } => {
            Some((InstKey::Cmp(*op, opkey(lhs), opkey(rhs)), *dst))
        }
        Inst::Cast { dst, kind, src } => Some((InstKey::Cast(*kind, f.ty(*dst), opkey(src)), *dst)),
        Inst::Select { dst, cond, t, f: fv } => {
            Some((InstKey::Select(opkey(cond), opkey(t), opkey(fv)), *dst))
        }
        Inst::Splat { dst, src } => Some((InstKey::Splat(f.ty(*dst), opkey(src)), *dst)),
        Inst::ExtractLane { dst, src, lane } => Some((InstKey::Extract(opkey(src), *lane), *dst)),
        Inst::Reduce { dst, op, src } => Some((InstKey::Reduce(*op, opkey(src)), *dst)),
        Inst::Call { dst: Some(d), callee, args } => {
            if m.funcs[callee.idx()].attrs.readnone {
                Some((InstKey::PureCall(callee.0, args.iter().map(opkey).collect()), *d))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The `gvn` pass: dominator-scoped value numbering of pure instructions plus
/// block-local redundant-load elimination and store-to-load forwarding.
pub struct Gvn;

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for fi in 0..m.funcs.len() {
            let (ni, nl) = gvn_function(m, fi, true);
            stats.inc("gvn", "NumGVNInstr", ni);
            stats.inc("gvn", "NumGVNLoad", nl);
        }
    }
}

/// The `early-cse` pass: the block-local version of GVN.
pub struct EarlyCse;

impl Pass for EarlyCse {
    fn name(&self) -> &'static str {
        "early-cse"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for fi in 0..m.funcs.len() {
            let (ni, nl) = gvn_function(m, fi, false);
            stats.inc("early-cse", "NumCSE", ni + nl);
        }
    }
}

/// Returns (pure insts eliminated, loads eliminated/forwarded).
fn gvn_function(m: &mut Module, fi: usize, dom_scoped: bool) -> (u64, u64) {
    let f = &m.funcs[fi];
    if f.is_decl() {
        return (0, 0);
    }
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let sites = def_sites(f);

    // Substitutions found; applied at the end.
    let mut subst: Vec<(ValueId, Operand)> = Vec::new();
    let mut loads = 0u64;
    let mut pures = 0u64;

    // Dominator-tree walk with scoped pure-value table.
    let mut table: HashMap<InstKey, Operand> = HashMap::new();
    enum Step {
        Enter(BlockId),
        Undo(Vec<(InstKey, Option<Operand>)>),
    }
    let order: Vec<BlockId> = if dom_scoped {
        // preorder DFS of the dom tree via explicit agenda below
        vec![BlockId(0)]
    } else {
        cfg.rpo.clone()
    };
    let mut agenda: Vec<Step> = order.into_iter().rev().map(Step::Enter).collect();
    let known_subst: HashMap<ValueId, Operand> = HashMap::new();
    let mut known = known_subst;

    while let Some(step) = agenda.pop() {
        match step {
            Step::Undo(entries) => {
                for (k, old) in entries {
                    match old {
                        Some(v) => {
                            table.insert(k, v);
                        }
                        None => {
                            table.remove(&k);
                        }
                    }
                }
            }
            Step::Enter(b) => {
                if !dom_scoped {
                    table.clear();
                }
                let mut undo: Vec<(InstKey, Option<Operand>)> = Vec::new();
                // Block-local memory state.
                let mut memgen = 0u64;
                let mut avail_loads: HashMap<LoadKey, (Operand, u64)> = HashMap::new();
                let f = &m.funcs[fi];
                for inst in &f.blocks[b.idx()].insts {
                    // Resolve operands through already-found substitutions so
                    // chains collapse in one pass.
                    let resolve = |op: &Operand| -> Operand {
                        let mut cur = *op;
                        for _ in 0..8 {
                            match cur {
                                Operand::Value(v) => match known.get(&v) {
                                    Some(n) => cur = *n,
                                    None => break,
                                },
                                _ => break,
                            }
                        }
                        cur
                    };
                    match inst {
                        Inst::Load { dst, addr } => {
                            let a = resolve(addr);
                            let e = addr_expr(f, &sites, &a);
                            let ty = f.ty(*dst);
                            let key = (e.atoms.iter().map(|(a, c)| (opkey(a), *c)).collect::<Vec<_>>(), e.offset, ty.bytes() as u8);
                            match avail_loads.get(&key) {
                                Some((v, g)) if *g == memgen && ty.lanes == 1 => {
                                    subst.push((*dst, *v));
                                    known.insert(*dst, *v);
                                    loads += 1;
                                }
                                _ => {
                                    avail_loads.insert(key, (Operand::Value(*dst), memgen));
                                }
                            }
                        }
                        Inst::Store { ty, val, addr } => {
                            let a = resolve(addr);
                            let e = addr_expr(f, &sites, &a);
                            memgen += 1;
                            // Forward the stored value to later loads.
                            let key = (e.atoms.iter().map(|(a, c)| (opkey(a), *c)).collect::<Vec<_>>(), e.offset, ty.bytes() as u8);
                            avail_loads.insert(key, (resolve(val), memgen));
                        }
                        Inst::Call { callee, .. } => {
                            let attrs = m.funcs[callee.idx()].attrs;
                            if !attrs.readnone && !attrs.readonly {
                                memgen += 1; // may write anywhere
                            }
                            if let Some((key, d)) = pure_key(f, m, inst) {
                                let key = remap_key(key, &known);
                                match table.get(&key) {
                                    Some(v) => {
                                        subst.push((d, *v));
                                        known.insert(d, *v);
                                        pures += 1;
                                    }
                                    None => {
                                        undo.push((key.clone(), table.get(&key).cloned()));
                                        table.insert(key, Operand::Value(d));
                                    }
                                }
                            }
                        }
                        other => {
                            if let Some((key, d)) = pure_key(f, m, other) {
                                let key = remap_key(key, &known);
                                match table.get(&key) {
                                    Some(v) => {
                                        subst.push((d, *v));
                                        known.insert(d, *v);
                                        pures += 1;
                                    }
                                    None => {
                                        undo.push((key.clone(), None));
                                        table.insert(key, Operand::Value(d));
                                    }
                                }
                            }
                        }
                    }
                }
                if dom_scoped {
                    agenda.push(Step::Undo(undo));
                    for &c in dom.children[b.idx()].iter().rev() {
                        agenda.push(Step::Enter(c));
                    }
                }
            }
        }
    }

    let f = &mut m.funcs[fi];
    for (v, op) in &subst {
        // Resolve transitively to the final representative.
        let mut to = *op;
        for _ in 0..subst.len() {
            match to {
                Operand::Value(x) => match known.get(&x) {
                    Some(n) if *n != to => to = *n,
                    _ => break,
                },
                _ => break,
            }
        }
        replace_uses(f, *v, to);
    }
    // Delete the replaced definitions outright — including redundant loads,
    // which plain DCE conservatively keeps (they read memory) but which are
    // provably equivalent to their replacement here.
    if !subst.is_empty() {
        let dead: std::collections::HashSet<ValueId> =
            subst.iter().map(|(v, _)| *v).collect();
        for blk in &mut f.blocks {
            blk.insts.retain(|i| match i.dst() {
                Some(d) => !dead.contains(&d),
                None => true,
            });
        }
    }
    dce_function(f);
    (pures, loads)
}

/// Rewrite value references inside a key through the substitution map, so
/// `add(x, y)` and `add(x', y)` unify once `x' → x` is known.
fn remap_key(key: InstKey, known: &HashMap<ValueId, Operand>) -> InstKey {
    let r = |k: OpKey| -> OpKey {
        match k {
            OpKey::V(v) => {
                let mut cur = ValueId(v);
                for _ in 0..8 {
                    match known.get(&cur) {
                        Some(Operand::Value(n)) => cur = *n,
                        Some(other) => return opkey(other),
                        None => break,
                    }
                }
                OpKey::V(cur.0)
            }
            other => other,
        }
    };
    match key {
        InstKey::Bin(op, ty, a, b) => {
            let (mut a, mut b) = (r(a), r(b));
            if op.commutative() && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            InstKey::Bin(op, ty, a, b)
        }
        InstKey::Cmp(op, a, b) => InstKey::Cmp(op, r(a), r(b)),
        InstKey::Cast(k, t, a) => InstKey::Cast(k, t, r(a)),
        InstKey::Select(c, t, f) => InstKey::Select(r(c), r(t), r(f)),
        InstKey::Splat(t, a) => InstKey::Splat(t, r(a)),
        InstKey::Extract(a, l) => InstKey::Extract(r(a), l),
        InstKey::Reduce(op, a) => InstKey::Reduce(op, r(a)),
        InstKey::PureCall(c, args) => InstKey::PureCall(c, args.into_iter().map(r).collect()),
        InstKey::Load(t, b, o, g) => InstKey::Load(t, r(b), o, g),
    }
}

/// The `dce` pass: remove unused pure instructions.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let n = dce_function(f) as u64;
            stats.inc("dce", "NumRemoved", n);
        }
    }
}

/// The `adce` pass: aggressive DCE — liveness is seeded only from
/// side-effecting roots, so dead loads and dead pure call results die too.
pub struct Adce;

impl Pass for Adce {
    fn name(&self) -> &'static str {
        "adce"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        // Liveness of calls depends on callee attributes.
        for fi in 0..m.funcs.len() {
            let n = adce_function(m, fi);
            stats.inc("adce", "NumRemoved", n);
        }
    }
}

fn adce_function(m: &mut Module, fi: usize) -> u64 {
    let f = &m.funcs[fi];
    let nv = f.value_ty.len();
    let mut live = vec![false; nv];
    let mut work: Vec<ValueId> = Vec::new();
    let mark = |v: &Operand, live: &mut Vec<bool>, work: &mut Vec<ValueId>| {
        if let Operand::Value(x) = v {
            if !live[x.idx()] {
                live[x.idx()] = true;
                work.push(*x);
            }
        }
    };
    // Roots: terminator operands, stores, non-pure calls (their args).
    for blk in &f.blocks {
        blk.term.for_each_operand(|op| mark(op, &mut live, &mut work));
        for inst in &blk.insts {
            let rooted = match inst {
                Inst::Store { .. } => true,
                Inst::Call { callee, .. } => !m.funcs[callee.idx()].attrs.readnone,
                _ => false,
            };
            if rooted {
                inst.for_each_operand(|op| mark(op, &mut live, &mut work));
                if let Some(d) = inst.dst() {
                    live[d.idx()] = true;
                }
            }
        }
    }
    let sites = def_sites(f);
    while let Some(v) = work.pop() {
        if let Some((b, i)) = sites.get(&v) {
            f.blocks[b.idx()].insts[*i].for_each_operand(|op| mark(op, &mut live, &mut work));
        }
    }
    let f = &mut m.funcs[fi];
    let mut removed = 0u64;
    for blk in &mut f.blocks {
        let before = blk.insts.len();
        blk.insts.retain(|inst| match inst.dst() {
            Some(d) => live[d.idx()] || matches!(inst, Inst::Store { .. }),
            None => true,
        });
        removed += (before - blk.insts.len()) as u64;
    }
    removed
}

/// The `dse` pass: block-local dead-store elimination.
pub struct Dse;

impl Pass for Dse {
    fn name(&self) -> &'static str {
        "dse"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for fi in 0..m.funcs.len() {
            let mut n = 0u64;
            let f = &m.funcs[fi];
            let sites = def_sites(f);
            let mut dead: Vec<(usize, usize)> = Vec::new();
            for (bi, blk) in f.blocks.iter().enumerate() {
                // Backward scan: `overwritten` holds store ranges that will be
                // written again before any possible read.
                let mut overwritten: Vec<(AddrExpr, u32)> = Vec::new();
                for (ii, inst) in blk.insts.iter().enumerate().rev() {
                    match inst {
                        Inst::Store { ty, addr, .. } => {
                            let e = addr_expr(f, &sites, addr);
                            let sz = ty.bytes();
                            let covered = overwritten.iter().any(|(o, osz)| {
                                o.atoms == e.atoms
                                    && o.offset <= e.offset
                                    && o.offset + *osz as i64 >= e.offset + sz as i64
                            });
                            if covered {
                                dead.push((bi, ii));
                                n += 1;
                            } else {
                                overwritten.push((e, sz));
                            }
                        }
                        Inst::Load { addr, .. } => {
                            let e = addr_expr(f, &sites, addr);
                            let lsz = f
                                .ty(inst.dst().unwrap())
                                .bytes();
                            overwritten.retain(|(o, osz)| !may_alias(o, *osz, &e, lsz));
                        }
                        Inst::Call { callee, .. } if !m.funcs[callee.idx()].attrs.readnone => {
                            overwritten.clear();
                        }
                        _ => {}
                    }
                }
            }
            let f = &mut m.funcs[fi];
            // Remove in descending instruction order per block.
            dead.sort_unstable_by(|a, b| b.cmp(a));
            for (bi, ii) in dead {
                f.blocks[bi].insts.remove(ii);
            }
            stats.inc("dse", "NumFastStores", n);
        }
    }
}

/// The `sink` pass: move pure single-block-use instructions into the unique
/// successor that uses them, off the other branch path.
pub struct Sink;

impl Pass for Sink {
    fn name(&self) -> &'static str {
        "sink"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            let cfg = Cfg::compute(f);
            // For each block with a condbr, find sinkable insts.
            let mut moves: Vec<(usize, usize, usize)> = Vec::new(); // (from_block, inst, to_block)
            for (b, blk) in f.iter_blocks() {
                let Term::CondBr { t, f: fb, .. } = blk.term else { continue };
                if t == fb {
                    continue;
                }
                for (ii, inst) in blk.insts.iter().enumerate() {
                    if inst.has_side_effects() || inst.reads_memory() || inst.is_phi() {
                        continue;
                    }
                    let Some(d) = inst.dst() else { continue };
                    if matches!(inst, Inst::Alloca { .. }) {
                        continue;
                    }
                    // All uses must live in exactly one successor with a single pred.
                    let mut use_blocks: HashSet<u32> = HashSet::new();
                    for (ub, ublk) in f.iter_blocks() {
                        let mut used = false;
                        for i2 in &ublk.insts {
                            i2.for_each_operand(|op| used |= op.as_value() == Some(d));
                        }
                        ublk.term.for_each_operand(|op| used |= op.as_value() == Some(d));
                        if used {
                            use_blocks.insert(ub.0);
                        }
                    }
                    if use_blocks.len() != 1 {
                        continue;
                    }
                    let target = BlockId(*use_blocks.iter().next().unwrap());
                    if (target == t || target == fb)
                        && cfg.preds[target.idx()].len() == 1
                        && f.blocks[target.idx()].num_phis() == 0
                    {
                        // Later instructions of b must not depend on d (pure
                        // chains are handled one inst per run).
                        let later_use = blk.insts[ii + 1..]
                            .iter()
                            .any(|i2| {
                                let mut u = false;
                                i2.for_each_operand(|op| u |= op.as_value() == Some(d));
                                u
                            });
                        let term_use = {
                            let mut u = false;
                            blk.term.for_each_operand(|op| u |= op.as_value() == Some(d));
                            u
                        };
                        if !later_use && !term_use && target != b {
                            moves.push((b.idx(), ii, target.idx()));
                        }
                    }
                }
            }
            // Apply one move per source block per run (indices shift otherwise).
            let mut seen: HashSet<usize> = HashSet::new();
            moves.retain(|(fb, _, _)| seen.insert(*fb));
            for (fb, ii, tb) in moves {
                let inst = f.blocks[fb].insts.remove(ii);
                f.blocks[tb].insts.insert(0, inst);
                n += 1;
            }
            stats.inc("sink", "NumSunk", n);
        }
    }
}

/// The `correlated-propagation` pass: on the taken edge of `x == c`, replace
/// dominated uses of `x` with `c` (and symmetrically for `!=` on the false edge).
pub struct CorrelatedPropagation;

impl Pass for CorrelatedPropagation {
    fn name(&self) -> &'static str {
        "correlated-propagation"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(f, &cfg);
            let sites = def_sites(f);
            // (value to replace, constant, subtree root)
            let mut facts: Vec<(ValueId, Operand, BlockId)> = Vec::new();
            for (_b, blk) in f.iter_blocks() {
                let Term::CondBr { cond, t, f: fb } = &blk.term else { continue };
                let Some(Inst::Cmp { op, lhs, rhs, .. }) =
                    crate::util::def_of(f, &sites, cond)
                else {
                    continue;
                };
                let (var, konst) = match (lhs.as_value(), rhs.is_const()) {
                    (Some(v), true) => (v, *rhs),
                    _ => continue,
                };
                use citroen_ir::inst::CmpOp::*;
                let (edge_target, holds_eq) = match op {
                    Eq => (*t, true),
                    Ne => (*fb, true),
                    _ => continue,
                };
                if !holds_eq {
                    continue;
                }
                // The fact holds in blocks dominated by edge_target only if
                // edge_target's sole pred is this block (edge dominance).
                if cfg.preds[edge_target.idx()].len() == 1 {
                    facts.push((var, konst, edge_target));
                }
            }
            for (var, konst, root) in facts {
                // Collect dom subtree of root.
                let mut subtree: Vec<BlockId> = vec![root];
                let mut i = 0;
                while i < subtree.len() {
                    for &c in &dom.children[subtree[i].idx()] {
                        subtree.push(c);
                    }
                    i += 1;
                }
                let inside: HashSet<u32> = subtree.iter().map(|b| b.0).collect();
                for bi in 0..f.blocks.len() {
                    let in_subtree = inside.contains(&(bi as u32));
                    for inst in &mut f.blocks[bi].insts {
                        if let Inst::Phi { incoming, .. } = inst {
                            for (p, op) in incoming.iter_mut() {
                                if inside.contains(&p.0) && op.as_value() == Some(var) {
                                    *op = konst;
                                    n += 1;
                                }
                            }
                        } else if in_subtree {
                            inst.for_each_operand_mut(|op| {
                                if op.as_value() == Some(var) {
                                    *op = konst;
                                    n += 1;
                                }
                            });
                        }
                    }
                    if in_subtree {
                        f.blocks[bi].term.for_each_operand_mut(|op| {
                            if op.as_value() == Some(var) {
                                *op = konst;
                                n += 1;
                            }
                        });
                    }
                }
            }
            stats.inc("correlated-propagation", "NumReplaced", n);
        }
    }
}

/// The `sccp` pass: sparse conditional constant propagation with CFG
/// reachability (constants discovered through branches feed back into the
/// lattice).
pub struct Sccp;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Lattice {
    Top,
    Const(OperandConst),
    Bottom,
}

#[derive(Clone, Copy, PartialEq, Debug)]
struct OperandConst(Operand);

impl Pass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let (ni, nb) = sccp_function(f);
            stats.inc("sccp", "NumInstRemoved", ni);
            stats.inc("sccp", "NumDeadBlocks", nb);
        }
    }
}

fn sccp_function(f: &mut Function) -> (u64, u64) {
    if f.is_decl() {
        return (0, 0);
    }
    let nv = f.value_ty.len();
    let mut state: Vec<Lattice> = vec![Lattice::Top; nv];
    for s in state.iter_mut().take(f.params.len()) {
        *s = Lattice::Bottom;
    }
    let mut block_exec = vec![false; f.blocks.len()];
    block_exec[0] = true;
    let mut edge_exec: HashSet<(u32, u32)> = HashSet::new();

    let op_state = |op: &Operand, state: &[Lattice]| -> Lattice {
        match op {
            Operand::Value(v) => state[v.idx()],
            c => Lattice::Const(OperandConst(*c)),
        }
    };
    let meet = |a: Lattice, b: Lattice| -> Lattice {
        match (a, b) {
            (Lattice::Top, x) | (x, Lattice::Top) => x,
            (Lattice::Const(x), Lattice::Const(y)) if x == y => a,
            _ => Lattice::Bottom,
        }
    };

    // Fixpoint iteration (functions are small; simple re-sweeping converges fast).
    for _round in 0..64 {
        let mut changed = false;
        for (b, blk) in f.iter_blocks() {
            if !block_exec[b.idx()] {
                continue;
            }
            for inst in &blk.insts {
                let new = match inst {
                    Inst::Phi { dst, incoming } => {
                        let mut acc = Lattice::Top;
                        for (p, op) in incoming {
                            if edge_exec.contains(&(p.0, b.0)) {
                                acc = meet(acc, op_state(op, &state));
                            }
                        }
                        Some((*dst, acc))
                    }
                    Inst::Bin { dst, op, lhs, rhs } => {
                        let (a, c) = (op_state(lhs, &state), op_state(rhs, &state));
                        let v = match (a, c) {
                            (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                            (Lattice::Const(x), Lattice::Const(y)) => {
                                match fold_bin(*op, f.ty(*dst).scalar, &x.0, &y.0) {
                                    Some(r) if f.ty(*dst).lanes == 1 => {
                                        Lattice::Const(OperandConst(r))
                                    }
                                    _ => Lattice::Bottom,
                                }
                            }
                            _ => Lattice::Top,
                        };
                        Some((*dst, v))
                    }
                    Inst::Cmp { dst, op, lhs, rhs } => {
                        let (a, c) = (op_state(lhs, &state), op_state(rhs, &state));
                        let v = match (a, c) {
                            (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                            (Lattice::Const(x), Lattice::Const(y)) => match fold_cmp(*op, &x.0, &y.0)
                            {
                                Some(r) => Lattice::Const(OperandConst(r)),
                                None => Lattice::Bottom,
                            },
                            _ => Lattice::Top,
                        };
                        Some((*dst, v))
                    }
                    Inst::Cast { dst, kind, src } => {
                        let a = op_state(src, &state);
                        let from = f.operand_ty(src).scalar;
                        let v = match a {
                            Lattice::Bottom => Lattice::Bottom,
                            Lattice::Const(x) => {
                                match fold_cast(*kind, from, f.ty(*dst).scalar, &x.0) {
                                    Some(r) if f.ty(*dst).lanes == 1 => {
                                        Lattice::Const(OperandConst(r))
                                    }
                                    _ => Lattice::Bottom,
                                }
                            }
                            Lattice::Top => Lattice::Top,
                        };
                        Some((*dst, v))
                    }
                    Inst::Select { dst, cond, t, f: fv } => {
                        let v = match op_state(cond, &state) {
                            Lattice::Bottom => meet(op_state(t, &state), op_state(fv, &state))
                                .bottom_if_top(),
                            Lattice::Const(c) => {
                                if matches!(c.0.as_const_int(), Some(x) if x != 0) {
                                    op_state(t, &state)
                                } else {
                                    op_state(fv, &state)
                                }
                            }
                            Lattice::Top => Lattice::Top,
                        };
                        Some((*dst, v))
                    }
                    // Memory/calls/vector introduce unknowns.
                    other => other.dst().map(|d| (d, Lattice::Bottom)),
                };
                if let Some((d, v)) = new {
                    let merged = match (state[d.idx()], v) {
                        (Lattice::Top, x) => x,
                        (cur, x) => meet(cur, x),
                    };
                    if merged != state[d.idx()] {
                        state[d.idx()] = merged;
                        changed = true;
                    }
                }
            }
            // Terminator → edge executability.
            let mark_edge = |p: BlockId, s: BlockId,
                                 block_exec: &mut Vec<bool>,
                                 edge_exec: &mut HashSet<(u32, u32)>,
                                 changed: &mut bool| {
                if edge_exec.insert((p.0, s.0)) {
                    *changed = true;
                }
                if !block_exec[s.idx()] {
                    block_exec[s.idx()] = true;
                    *changed = true;
                }
            };
            match &blk.term {
                Term::Br(s) => mark_edge(b, *s, &mut block_exec, &mut edge_exec, &mut changed),
                Term::CondBr { cond, t, f: fb } => match op_state(cond, &state) {
                    Lattice::Const(c) => {
                        let s = if matches!(c.0.as_const_int(), Some(x) if x != 0) { *t } else { *fb };
                        mark_edge(b, s, &mut block_exec, &mut edge_exec, &mut changed);
                    }
                    Lattice::Bottom => {
                        mark_edge(b, *t, &mut block_exec, &mut edge_exec, &mut changed);
                        mark_edge(b, *fb, &mut block_exec, &mut edge_exec, &mut changed);
                    }
                    Lattice::Top => {}
                },
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Apply: substitute constants, rewrite provably-one-way branches.
    let mut n_inst = 0u64;
    let mut consts: Vec<(ValueId, Operand)> = Vec::new();
    for (i, s) in state.iter().enumerate() {
        if let Lattice::Const(c) = s {
            if i >= f.params.len() {
                consts.push((ValueId(i as u32), c.0));
            }
        }
    }
    for (v, c) in &consts {
        replace_uses(f, *v, *c);
        n_inst += 1;
    }
    // Branch folding from edge executability.
    for (bi, &live) in block_exec.iter().enumerate() {
        if !live {
            continue;
        }
        let b = BlockId(bi as u32);
        if let Term::CondBr { t, f: fb, .. } = f.blocks[bi].term.clone() {
            let te = edge_exec.contains(&(b.0, t.0));
            let fe = edge_exec.contains(&(b.0, fb.0));
            if te != fe {
                let (live, dead) = if te { (t, fb) } else { (fb, t) };
                f.blocks[bi].term = Term::Br(live);
                if live != dead {
                    for inst in &mut f.blocks[dead.idx()].insts {
                        if let Inst::Phi { incoming, .. } = inst {
                            incoming.retain(|(p, _)| *p != b);
                        }
                    }
                }
            }
        }
    }
    let nb = remove_unreachable_blocks(f) as u64;
    crate::util::simplify_single_incoming_phis(f);
    let removed = dce_function(f) as u64;
    (n_inst.max(removed), nb)
}

trait BottomIfTop {
    fn bottom_if_top(self) -> Lattice;
}
impl BottomIfTop for Lattice {
    fn bottom_if_top(self) -> Lattice {
        match self {
            Lattice::Top => Lattice::Top,
            x => x,
        }
    }
}
