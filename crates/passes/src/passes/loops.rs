//! Loop passes: `loop-simplify`, `loop-rotate`, `licm`, `indvars`,
//! `loop-unroll`, `loop-deletion`, `strength-reduce`.
//!
//! The transforms handle the canonical shapes our front end produces: the
//! two-block while-loop that `counted_loop_mem` + `mem2reg` yield, and the
//! single-block do-while ("self-loop") that `loop-rotate` produces. The
//! enabling chains mirror LLVM's: *rotate* turns while-loops into do-whiles,
//! which lets *licm* hoist loads (guaranteed-to-execute) and gives *unroll* /
//! the vectorisers their canonical single-block form.

use crate::manager::Pass;
use crate::stats::Stats;
use crate::util::{dce_function, replace_uses, simplify_single_incoming_phis};
use citroen_analyze::alias::access_bytes;
use citroen_analyze::memeffects::{MemEffects, Root};
use citroen_analyze::{AliasAnalysis, AliasResult, ModuleEffects, ModuleIntervals};
use citroen_ir::analysis::{Cfg, DomTree, Loop, LoopInfo};
use citroen_ir::inst::{BinOp, BlockId, CmpOp, Inst, Operand, Term, ValueId};
use citroen_ir::module::{Function, Module};
use citroen_ir::types::I64;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// Shared loop-shape analysis
// ---------------------------------------------------------------------------

/// A single-block rotated loop: `H: φs; insts; condbr c, H, E`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SelfLoop {
    pub header: BlockId,
    pub preheader: BlockId,
    pub exit: BlockId,
}

/// Find self-loops with a unique preheader.
pub(crate) fn find_self_loops(f: &Function) -> Vec<SelfLoop> {
    let cfg = Cfg::compute(f);
    let mut out = Vec::new();
    for (b, blk) in f.iter_blocks() {
        if !cfg.reachable(b) {
            continue;
        }
        let Term::CondBr { t, f: fb, .. } = blk.term else { continue };
        let (back, exit) = if t == b && fb != b {
            (t, fb)
        } else if fb == b && t != b {
            (fb, t)
        } else {
            continue;
        };
        let _ = back;
        // Unique out-of-loop predecessor.
        let outside: Vec<BlockId> =
            cfg.preds[b.idx()].iter().copied().filter(|p| *p != b).collect();
        if outside.len() != 1 {
            continue;
        }
        out.push(SelfLoop { header: b, preheader: outside[0], exit });
    }
    out
}

/// Induction variable of a self-loop.
#[derive(Debug, Clone)]
pub(crate) struct IvInfo {
    /// The φ holding the IV.
    pub phi: ValueId,
    /// Initial value (preheader incoming).
    pub init: Operand,
    /// `next = phi + step`.
    pub next: ValueId,
    /// Constant step.
    pub step: i64,
    /// Comparison predicate of the latch condition.
    pub cmp_op: CmpOp,
    /// Loop bound operand.
    pub bound: Operand,
    /// Whether the comparison tests `next` (true) or `phi` (false).
    pub cmp_on_next: bool,
    /// Whether the `true` edge of the condbr continues the loop.
    pub true_continues: bool,
}

/// Recognise the canonical IV of a self-loop: a φ whose back edge is
/// `add(phi, const)` and whose (or whose successor's) comparison controls the
/// latch.
pub(crate) fn analyze_iv(f: &Function, sl: &SelfLoop) -> Option<IvInfo> {
    let blk = &f.blocks[sl.header.idx()];
    let Term::CondBr { cond, t, .. } = &blk.term else { return None };
    let cond_v = cond.as_value()?;
    let true_continues = *t == sl.header;
    // The latch condition must be a cmp defined in the header.
    let (cmp_op, cmp_lhs, bound) = blk.insts.iter().find_map(|i| match i {
        Inst::Cmp { dst, op, lhs, rhs } if *dst == cond_v => Some((*op, *lhs, *rhs)),
        _ => None,
    })?;
    // Try each φ as the IV.
    for inst in blk.insts.iter().take_while(|i| i.is_phi()) {
        let Inst::Phi { dst: phi, incoming } = inst else { continue };
        if incoming.len() != 2 {
            continue;
        }
        let init = incoming.iter().find(|(p, _)| *p == sl.preheader)?.1;
        let back = incoming.iter().find(|(p, _)| *p == sl.header)?.1;
        let next = back.as_value()?;
        // next = add(phi, step)
        let step = blk.insts.iter().find_map(|i| match i {
            Inst::Bin { dst, op: BinOp::Add, lhs, rhs } if *dst == next => {
                match (lhs.as_value(), rhs.as_const_int()) {
                    (Some(l), Some(c)) if l == *phi => Some(c),
                    _ => match (lhs.as_const_int(), rhs.as_value()) {
                        (Some(c), Some(r)) if r == *phi => Some(c),
                        _ => None,
                    },
                }
            }
            _ => None,
        });
        let Some(step) = step else { continue };
        if step == 0 {
            continue;
        }
        let cmp_on_next = if cmp_lhs.as_value() == Some(next) {
            true
        } else if cmp_lhs.as_value() == Some(*phi) {
            false
        } else {
            continue;
        };
        // Bound must be loop-invariant: a constant or defined outside the header.
        if let Some(bv) = bound.as_value() {
            let defined_in_header =
                blk.insts.iter().any(|i| i.dst() == Some(bv));
            if defined_in_header {
                continue;
            }
        }
        return Some(IvInfo {
            phi: *phi,
            init,
            next,
            step,
            cmp_op,
            bound,
            cmp_on_next,
            true_continues,
        });
    }
    None
}

/// Compute the constant trip count of a self-loop by symbolic simulation,
/// bounded to `limit` iterations. Requires constant init and bound.
pub(crate) fn const_trip_count(iv: &IvInfo, limit: u64) -> Option<u64> {
    let init = iv.init.as_const_int()?;
    let bound = iv.bound.as_const_int()?;
    let mut i = init;
    let mut trips = 0u64;
    loop {
        // One iteration executes, then the latch test decides continuation.
        trips += 1;
        if trips > limit {
            return None;
        }
        let next = i.wrapping_add(iv.step);
        let probe = if iv.cmp_on_next { next } else { i };
        let c = match iv.cmp_op {
            CmpOp::Eq => probe == bound,
            CmpOp::Ne => probe != bound,
            CmpOp::Slt => probe < bound,
            CmpOp::Sle => probe <= bound,
            CmpOp::Sgt => probe > bound,
            CmpOp::Sge => probe >= bound,
        };
        let continue_loop = if iv.true_continues { c } else { !c };
        if !continue_loop {
            return Some(trips);
        }
        i = next;
    }
}

/// Clone the non-φ body of a self-loop header once, appending the clones to
/// `out` with fresh destinations; `env` maps original values to their
/// current-iteration operands and is updated with the new φ values afterwards.
fn clone_body_once(
    f: &mut Function,
    header: BlockId,
    env: &mut HashMap<ValueId, Operand>,
    out: &mut Vec<Inst>,
) {
    let insts: Vec<Inst> = f.blocks[header.idx()].insts.clone();
    let remap = |env: &HashMap<ValueId, Operand>, op: &Operand| -> Operand {
        match op {
            Operand::Value(v) => env.get(v).copied().unwrap_or(*op),
            other => *other,
        }
    };
    for inst in insts.iter().skip_while(|i| i.is_phi()) {
        let mut cloned = inst.clone();
        cloned.for_each_operand_mut(|op| *op = remap(env, op));
        if let Some(old_dst) = inst.dst() {
            let new_dst = f.new_value(f.ty(old_dst));
            set_dst(&mut cloned, new_dst);
            env.insert(old_dst, Operand::Value(new_dst));
        }
        out.push(cloned);
    }
    // Advance φs: their next-iteration value is the remapped back-edge operand.
    let mut phi_updates: Vec<(ValueId, Operand)> = Vec::new();
    for inst in insts.iter().take_while(|i| i.is_phi()) {
        if let Inst::Phi { dst, incoming } = inst {
            let back = incoming
                .iter()
                .find(|(p, _)| *p == header)
                .map(|(_, v)| remap(env, v))
                .expect("self-loop phi has a back edge");
            phi_updates.push((*dst, back));
        }
    }
    for (d, v) in phi_updates {
        env.insert(d, v);
    }
}

pub(crate) fn set_dst(inst: &mut Inst, new: ValueId) {
    match inst {
        Inst::Bin { dst, .. }
        | Inst::Cmp { dst, .. }
        | Inst::Cast { dst, .. }
        | Inst::Alloca { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::Phi { dst, .. }
        | Inst::Select { dst, .. }
        | Inst::Splat { dst, .. }
        | Inst::ExtractLane { dst, .. }
        | Inst::Reduce { dst, .. } => *dst = new,
        Inst::Call { dst, .. } => {
            if let Some(d) = dst {
                *d = new;
            }
        }
        Inst::Store { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// loop-simplify
// ---------------------------------------------------------------------------

/// The `loop-simplify` pass: give every natural loop a dedicated preheader.
pub struct LoopSimplify;

impl Pass for LoopSimplify {
    fn name(&self) -> &'static str {
        "loop-simplify"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for _ in 0..8 {
                if !insert_one_preheader(f) {
                    break;
                }
                n += 1;
            }
            stats.inc("loop-simplify", "NumPreheaders", n);
        }
    }
}

fn insert_one_preheader(f: &mut Function) -> bool {
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let li = LoopInfo::compute(f, &cfg, &dom);
    for l in &li.loops {
        if l.preheader.is_some() {
            continue;
        }
        let header = l.header;
        let outside: Vec<BlockId> = cfg.preds[header.idx()]
            .iter()
            .copied()
            .filter(|p| !l.contains(*p))
            .collect();
        if outside.len() < 2 {
            continue; // entry-block header (no outside pred) — leave alone
        }
        // New preheader P: outside preds retarget to P; P br H; φ split.
        let p = f.new_block();
        f.blocks[p.idx()].term = Term::Br(header);
        for &q in &outside {
            f.blocks[q.idx()].term.for_each_successor_mut(|s| {
                if *s == header {
                    *s = p;
                }
            });
        }
        // Split header φs: entries from outside preds move into a φ in P.
        let mut new_phis: Vec<Inst> = Vec::new();
        let mut hdr_rewrites: Vec<(usize, Vec<(BlockId, Operand)>)> = Vec::new();
        let header_phis: Vec<(usize, Inst)> = f.blocks[header.idx()]
            .insts
            .iter()
            .enumerate()
            .take_while(|(_, i)| i.is_phi())
            .map(|(i, inst)| (i, inst.clone()))
            .collect();
        for (pi, inst) in header_phis {
            let Inst::Phi { dst, incoming } = inst else { unreachable!() };
            let (out_in, keep): (Vec<_>, Vec<_>) =
                incoming.into_iter().partition(|(q, _)| outside.contains(q));
            let ty = f.ty(dst);
            let pv = f.new_value(ty);
            new_phis.push(Inst::Phi { dst: pv, incoming: out_in });
            let mut merged = keep;
            merged.push((p, Operand::Value(pv)));
            hdr_rewrites.push((pi, merged));
        }
        for (pi, merged) in hdr_rewrites {
            if let Inst::Phi { incoming, .. } = &mut f.blocks[header.idx()].insts[pi] {
                *incoming = merged;
            }
        }
        f.blocks[p.idx()].insts = new_phis;
        simplify_single_incoming_phis(f);
        return true;
    }
    false
}

// ---------------------------------------------------------------------------
// loop-rotate
// ---------------------------------------------------------------------------

/// The `loop-rotate` pass: turn two-block while-loops into guarded do-whiles.
pub struct LoopRotate;

impl Pass for LoopRotate {
    fn name(&self) -> &'static str {
        "loop-rotate"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for _ in 0..8 {
                // Rotation redirects exit edges, which can strip the next
                // loop's preheader; restore loop-simplify form as we go
                // (bounded — preheader insertion can ping-pong on irregular
                // CFGs produced by adversarial pass orders).
                for _ in 0..16 {
                    if !insert_one_preheader(f) {
                        break;
                    }
                }
                if !rotate_one(f) {
                    break;
                }
                n += 1;
            }
            if n > 0 {
                // Fold the now φ-only header into the body so the loop takes
                // its canonical single-block form (LLVM's rotate does the
                // same via its SimplifyCFG utilities).
                crate::passes::simplifycfg::merge_straightline(f);
            }
            simplify_single_incoming_phis(f);
            dce_function(f);
            stats.inc("loop-rotate", "NumRotated", n);
        }
    }
}

/// Everything `rotate_one` needs to rewrite a rotatable while-loop, gathered
/// by the read-only search [`plan_rotate`].
struct RotatePlan {
    h: BlockId,
    pre: BlockId,
    latch: BlockId,
    exit: BlockId,
    body_succ: BlockId,
    /// Whether the `true` edge of the header condbr enters the loop body.
    enter_on_true: bool,
    cond: Operand,
    /// Header φs as `(dst, init-from-preheader, back-from-latch)`.
    phis: Vec<(ValueId, Operand, Operand)>,
    /// Header non-φ instructions (the latch-condition computation).
    cond_insts: Vec<Inst>,
    loop_blocks: Vec<BlockId>,
}

/// Read-only mirror of the rotation candidate test: the first natural loop
/// passing every legality check, with the data the rewrite needs. `None` is
/// a proof that `rotate_one` cannot change `f`.
fn plan_rotate(f: &Function) -> Option<RotatePlan> {
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let li = LoopInfo::compute(f, &cfg, &dom);

    for l in &li.loops {
        let h = l.header;
        // While-shape: header exits the loop.
        let Term::CondBr { cond, t, f: fb } = f.blocks[h.idx()].term.clone() else { continue };
        let (body_succ, exit) = if l.contains(t) && !l.contains(fb) {
            (t, fb)
        } else if l.contains(fb) && !l.contains(t) {
            (fb, t)
        } else {
            continue;
        };
        if body_succ == h {
            continue; // already a do-while self-loop
        }
        let Some(pre) = l.preheader else { continue };
        // The guard is spliced into the preheader, replacing its terminator —
        // only legal when the preheader unconditionally enters this loop
        // (loop-simplify form). A conditional preheader (e.g. the latch of a
        // preceding loop) must not be clobbered.
        if !matches!(f.blocks[pre.idx()].term, Term::Br(b) if b == h) {
            continue;
        }
        if l.latches.len() != 1 {
            continue;
        }
        let latch = l.latches[0];
        if latch == h {
            continue;
        }
        // The latch must end in an unconditional branch to the header.
        if !matches!(f.blocks[latch.idx()].term, Term::Br(b) if b == h) {
            continue;
        }
        // Exit must have no other in-loop preds.
        if cfg.preds[exit.idx()].iter().any(|p| l.contains(*p) && *p != h) {
            continue;
        }
        // Header non-φ instructions may only be used by the header itself.
        let hdr_defs: Vec<ValueId> = f.blocks[h.idx()]
            .insts
            .iter()
            .skip_while(|i| i.is_phi())
            .filter_map(|i| i.dst())
            .collect();
        let mut used_outside = false;
        for (b, blk) in f.iter_blocks() {
            if b == h {
                continue;
            }
            for inst in &blk.insts {
                inst.for_each_operand(|op| {
                    if let Some(v) = op.as_value() {
                        used_outside |= hdr_defs.contains(&v);
                    }
                });
            }
            blk.term.for_each_operand(|op| {
                if let Some(v) = op.as_value() {
                    used_outside |= hdr_defs.contains(&v);
                }
            });
        }
        if used_outside {
            continue;
        }
        // Header loads can trap; cloning them into the guard would execute
        // them when the loop may not run — only pure header bodies rotate.
        if f.blocks[h.idx()]
            .insts
            .iter()
            .skip_while(|i| i.is_phi())
            .any(|i| i.has_side_effects() || i.reads_memory() || matches!(i, Inst::Alloca { .. }))
        {
            continue;
        }

        // Gather φ info: (dst, init operand from pre, back operand from latch).
        let mut phis: Vec<(ValueId, Operand, Operand)> = Vec::new();
        let mut bad_phi = false;
        for inst in f.blocks[h.idx()].insts.iter().take_while(|i| i.is_phi()) {
            let Inst::Phi { dst, incoming } = inst else { unreachable!() };
            let init = incoming.iter().find(|(p, _)| *p == pre).map(|(_, v)| *v);
            let back = incoming.iter().find(|(p, _)| *p == latch).map(|(_, v)| *v);
            match (init, back) {
                (Some(i), Some(b)) if incoming.len() == 2 => phis.push((*dst, i, b)),
                _ => bad_phi = true,
            }
        }
        if bad_phi {
            continue;
        }
        let cond_insts: Vec<Inst> = f.blocks[h.idx()]
            .insts
            .iter()
            .skip_while(|i| i.is_phi())
            .cloned()
            .collect();
        return Some(RotatePlan {
            h,
            pre,
            latch,
            exit,
            body_succ,
            enter_on_true: body_succ == t,
            cond,
            phis,
            cond_insts,
            loop_blocks: l.blocks.clone(),
        });
    }
    None
}

fn rotate_one(f: &mut Function) -> bool {
    let Some(plan) = plan_rotate(f) else { return false };
    let RotatePlan {
        h,
        pre,
        latch,
        exit,
        body_succ,
        enter_on_true,
        cond,
        phis,
        cond_insts,
        loop_blocks,
    } = plan;
    {
        // 1. Clone cond computation into the preheader with φ→init.
        let init_env: HashMap<ValueId, Operand> =
            phis.iter().map(|(d, i, _)| (*d, *i)).collect();
        let mut guard_env = init_env.clone();
        let mut guard_out: Vec<Inst> = Vec::new();
        clone_insts(f, &cond_insts, &mut guard_env, &mut guard_out);
        let guard_cond = map_operand(&guard_env, &cond);
        f.blocks[pre.idx()].insts.extend(guard_out);
        // The guard enters the loop through the header (which keeps the φs
        // and falls through to the body), or skips to the exit.
        f.blocks[pre.idx()].term = if enter_on_true {
            Term::CondBr { cond: guard_cond, t: h, f: exit }
        } else {
            Term::CondBr { cond: guard_cond, t: exit, f: h }
        };

        // 2. Clone cond computation into the latch with φ→back, replacing its br.
        let back_env: HashMap<ValueId, Operand> =
            phis.iter().map(|(d, _, b)| (*d, *b)).collect();
        let mut latch_env = back_env.clone();
        let mut latch_out: Vec<Inst> = Vec::new();
        clone_insts(f, &cond_insts, &mut latch_env, &mut latch_out);
        let latch_cond = map_operand(&latch_env, &cond);
        f.blocks[latch.idx()].insts.extend(latch_out);
        f.blocks[latch.idx()].term = if enter_on_true {
            Term::CondBr { cond: latch_cond, t: h, f: exit }
        } else {
            Term::CondBr { cond: latch_cond, t: exit, f: h }
        };

        // 3. Header: keep φs, drop cond insts, fall through to the body.
        let keep: Vec<Inst> =
            f.blocks[h.idx()].insts.iter().take_while(|i| i.is_phi()).cloned().collect();
        f.blocks[h.idx()].insts = keep;
        f.blocks[h.idx()].term = Term::Br(body_succ);

        // 4. Exit φs: preds change from {h, ...} to {pre, latch, ...}. For
        //    entries from h with value v: v is an h-φ (split into init/back
        //    substitutions) or loop-invariant (duplicated).
        let phi_map_init: HashMap<ValueId, Operand> = init_env;
        let phi_map_back: HashMap<ValueId, Operand> = back_env;
        for inst in &mut f.blocks[exit.idx()].insts {
            if let Inst::Phi { incoming, .. } = inst {
                if let Some(pos) = incoming.iter().position(|(p, _)| *p == h) {
                    let (_, v) = incoming.remove(pos);
                    let vi = map_operand(&phi_map_init, &v);
                    let vb = map_operand(&phi_map_back, &v);
                    incoming.push((pre, vi));
                    incoming.push((latch, vb));
                }
            }
        }
        // 5. Uses of h-φs outside the loop (beyond the exit φs we just fixed)
        //    need merge φs in the exit block.
        let loop_blocks: HashSet<u32> = loop_blocks.iter().map(|b| b.0).collect();
        for (d, i, b) in &phis {
            let mut outside_use = false;
            for (bb, blk) in f.iter_blocks() {
                if loop_blocks.contains(&bb.0) {
                    continue;
                }
                for inst in &blk.insts {
                    if inst.is_phi() && bb == exit {
                        continue; // already rewritten
                    }
                    inst.for_each_operand(|op| outside_use |= op.as_value() == Some(*d));
                }
                blk.term.for_each_operand(|op| outside_use |= op.as_value() == Some(*d));
            }
            if outside_use {
                let ty = f.ty(*d);
                let merged = f.new_value(ty);
                f.blocks[exit.idx()]
                    .insts
                    .insert(0, Inst::Phi { dst: merged, incoming: vec![(pre, *i), (latch, *b)] });
                // Replace uses outside the loop and outside this new φ.
                let mut patch: Vec<(usize, usize)> = Vec::new();
                for (bb, blk) in f.iter_blocks() {
                    if loop_blocks.contains(&bb.0) {
                        continue;
                    }
                    for (ii, inst) in blk.insts.iter().enumerate() {
                        if bb == exit && ii == 0 {
                            continue;
                        }
                        let mut uses = false;
                        inst.for_each_operand(|op| uses |= op.as_value() == Some(*d));
                        if uses {
                            patch.push((bb.idx(), ii));
                        }
                    }
                }
                for (bb, ii) in patch {
                    f.blocks[bb].insts[ii].for_each_operand_mut(|op| {
                        if op.as_value() == Some(*d) {
                            *op = Operand::Value(merged);
                        }
                    });
                }
                for bb in 0..f.blocks.len() {
                    if loop_blocks.contains(&(bb as u32)) {
                        continue;
                    }
                    f.blocks[bb].term.for_each_operand_mut(|op| {
                        if op.as_value() == Some(*d) {
                            *op = Operand::Value(merged);
                        }
                    });
                }
            }
        }
    }
    true
}

fn clone_insts(
    f: &mut Function,
    insts: &[Inst],
    env: &mut HashMap<ValueId, Operand>,
    out: &mut Vec<Inst>,
) {
    for inst in insts {
        let mut cloned = inst.clone();
        cloned.for_each_operand_mut(|op| *op = map_operand(env, op));
        if let Some(old) = inst.dst() {
            let nv = f.new_value(f.ty(old));
            set_dst(&mut cloned, nv);
            env.insert(old, Operand::Value(nv));
        }
        out.push(cloned);
    }
}

fn map_operand(env: &HashMap<ValueId, Operand>, op: &Operand) -> Operand {
    match op {
        Operand::Value(v) => env.get(v).copied().unwrap_or(*op),
        other => *other,
    }
}

// ---------------------------------------------------------------------------
// licm
// ---------------------------------------------------------------------------

/// The `licm` pass: hoist loop-invariant computation to the preheader. Pure
/// ops hoist from any loop position; loads additionally require (a) that no
/// store or call in the loop can write the loaded bytes — stores must be
/// provably `NoAlias` by the alias analysis and callees provably unable to
/// touch the load's root region per their memory-effect summaries — and (b)
/// a block that dominates every exit (guaranteed to execute per iteration),
/// which in practice means rotated loops — the classic rotate→licm synergy.
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for fi in 0..m.funcs.len() {
            let mut hoisted = 0u64;
            let mut loads = 0u64;
            // Every hoist moves one instruction out of a loop and never adds
            // one, so the in-loop instruction count strictly decreases:
            // bounding rounds by the function size guarantees a true
            // fixpoint.
            let bound = m.funcs[fi].num_insts() + 1;
            for _ in 0..bound {
                let (h, l) = hoist_one(m, fi);
                hoisted += h;
                loads += l;
                if h + l == 0 {
                    break;
                }
            }
            stats.inc("licm", "NumHoisted", hoisted + loads);
            stats.inc("licm", "NumHoistedLoads", loads);
        }
    }
}

fn hoist_one(m: &mut Module, fidx: usize) -> (u64, u64) {
    let intervals = citroen_analyze::interval_analysis(m);
    let effects = citroen_analyze::memeffects::analyze_module(m, &intervals);
    match find_hoistable(m, fidx, &intervals, &effects) {
        Some((pre, b, ii, is_load)) => {
            let f = &mut m.funcs[fidx];
            let moved = f.blocks[b.idx()].insts.remove(ii);
            f.blocks[pre.idx()].insts.push(moved);
            if is_load {
                (0, 1)
            } else {
                (1, 0)
            }
        }
        None => (0, 0),
    }
}

/// Read-only mirror of `hoist_one`'s search: the first hoistable instruction
/// across the loops of function `fidx`, as `(preheader, block, index,
/// is_load)`. `None` is a proof that `hoist_one` cannot change the function.
fn find_hoistable(
    m: &Module,
    fidx: usize,
    intervals: &ModuleIntervals,
    effects: &ModuleEffects,
) -> Option<(BlockId, BlockId, usize, bool)> {
    let f = &m.funcs[fidx];
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let li = LoopInfo::compute(f, &cfg, &dom);
    let aa = AliasAnalysis::new(m, f, &intervals.funcs[fidx]);

    for l in &li.loops {
        let Some(pre) = l.preheader else { continue };
        // Values defined inside the loop.
        let mut defined_in: HashSet<ValueId> = HashSet::new();
        for &b in &l.blocks {
            for inst in &f.blocks[b.idx()].insts {
                if let Some(d) = inst.dst() {
                    defined_in.insert(d);
                }
            }
        }
        let invariant_op = |op: &Operand, defined_in: &HashSet<ValueId>| match op {
            Operand::Value(v) => !defined_in.contains(v),
            _ => true,
        };
        // Blocks with an edge leaving the loop: a hoisted trapping op is only
        // safe if its block dominates all of them (guaranteed to execute).
        let exiting: Vec<BlockId> = l
            .blocks
            .iter()
            .copied()
            .filter(|&b| {
                f.blocks[b.idx()].term.successors().iter().any(|s| !l.contains(*s))
            })
            .collect();

        for &b in &l.blocks {
            for (ii, inst) in f.blocks[b.idx()].insts.iter().enumerate() {
                if inst.is_phi() || matches!(inst, Inst::Alloca { .. }) {
                    continue;
                }
                let mut ops_invariant = true;
                inst.for_each_operand(|op| ops_invariant &= invariant_op(op, &defined_in));
                if !ops_invariant {
                    continue;
                }
                let hoistable = if inst.has_side_effects() {
                    false
                } else if let Inst::Load { .. } = inst {
                    // Loads: guaranteed to execute (dominates every exit) so
                    // no new trap appears, and nothing in the loop can write
                    // the loaded bytes, so every iteration reloads the value
                    // the preheader would produce.
                    exiting.iter().all(|&x| dom.dominates(b, x))
                        && no_aliasing_writes(f, &aa, effects, l, inst)
                } else if let Inst::Bin { op, rhs, .. } = inst {
                    // Division hoisting may introduce a trap on a path that
                    // never executed it; require a non-zero constant divisor
                    // or guaranteed execution.
                    if matches!(op, BinOp::SDiv | BinOp::SRem) {
                        matches!(rhs.as_const_int(), Some(c) if c != 0)
                            || exiting.iter().all(|&x| dom.dominates(b, x))
                    } else {
                        true
                    }
                } else {
                    !inst.reads_memory()
                };
                if hoistable {
                    return Some((pre, b, ii, matches!(inst, Inst::Load { .. })));
                }
            }
        }
    }
    None
}

/// Whether no store or call anywhere in loop `l` can write the bytes read by
/// `load`: every store must be provably `NoAlias` and every callee provably
/// unable to write the load's location.
fn no_aliasing_writes(
    f: &Function,
    aa: &AliasAnalysis,
    effects: &ModuleEffects,
    l: &Loop,
    load: &Inst,
) -> bool {
    let Some((laddr, lbytes)) = access_bytes(f, load) else { return false };
    for &b in &l.blocks {
        for inst in &f.blocks[b.idx()].insts {
            match inst {
                Inst::Store { .. } => {
                    let Some((saddr, sbytes)) = access_bytes(f, inst) else { return false };
                    if aa.alias(&laddr, lbytes, &saddr, sbytes) != AliasResult::No {
                        return false;
                    }
                }
                Inst::Call { callee, .. }
                    if call_may_clobber(aa, &effects.funcs[callee.idx()], &laddr, lbytes) =>
                {
                    return false;
                }
                _ => {}
            }
        }
    }
    true
}

/// Whether calling the function summarised by `ce` can write the `bytes` at
/// `addr` (caller view). Callee stack frames are bump-allocated strictly
/// above the caller's live frame, so a load confined to an in-bounds global
/// or caller alloca only sees callee writes that provably reach that region;
/// an unconfined address can collide with any write at all.
fn call_may_clobber(aa: &AliasAnalysis, ce: &MemEffects, addr: &Operand, bytes: u32) -> bool {
    match aa.confined_root(addr, bytes) {
        Some((Root::Global(g), touched)) => !ce.cannot_write_range(g, touched.lo, touched.hi),
        Some((Root::Stack(_), _)) => ce.writes_unknown,
        _ => ce.writes_unknown || ce.writes_stack || !ce.may_write.is_empty(),
    }
}

// ---------------------------------------------------------------------------
// indvars
// ---------------------------------------------------------------------------

/// The `indvars` pass: canonicalise latch predicates (`!=` → `slt` when
/// provably equivalent) and delete dead induction φ cycles.
pub struct IndVars;

impl Pass for IndVars {
    fn name(&self) -> &'static str {
        "indvars"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut lftr = 0u64;
            for sl in find_self_loops(f) {
                let Some(iv) = analyze_iv(f, &sl) else { continue };
                // `next != bound` with positive step, const init/bound, and
                // bound reachable exactly (divisibility) rewrites to slt.
                if iv.cmp_op == CmpOp::Ne && iv.true_continues && iv.step > 0 {
                    if let (Some(i0), Some(bnd)) =
                        (iv.init.as_const_int(), iv.bound.as_const_int())
                    {
                        let span = bnd.wrapping_sub(i0);
                        if span > 0 && span % iv.step == 0 {
                            // find the cmp inst and flip Ne -> Slt
                            let blk = &mut f.blocks[sl.header.idx()].insts;
                            for inst in blk.iter_mut() {
                                if let Inst::Cmp { op, .. } = inst {
                                    if *op == CmpOp::Ne {
                                        *op = CmpOp::Slt;
                                        lftr += 1;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Dead IV cycles: φ used only by its own update add.
            let dead = remove_dead_iv_cycles(f);
            stats.inc("indvars", "NumLFTR", lftr);
            stats.inc("indvars", "NumElimIV", dead);
        }
    }
}

fn remove_dead_iv_cycles(f: &mut Function) -> u64 {
    let mut removed = 0u64;
    loop {
        // uses excluding φ self-cycles
        let mut uses: HashMap<ValueId, Vec<ValueId>> = HashMap::new(); // used value -> users
        let mut def_inst: HashMap<ValueId, Inst> = HashMap::new();
        for blk in &f.blocks {
            for inst in &blk.insts {
                if let Some(d) = inst.dst() {
                    def_inst.insert(d, inst.clone());
                }
                let user = inst.dst();
                inst.for_each_operand(|op| {
                    if let (Some(v), Some(u)) = (op.as_value(), user) {
                        uses.entry(v).or_default().push(u);
                    }
                });
            }
            blk.term.for_each_operand(|op| {
                if let Some(v) = op.as_value() {
                    uses.entry(v).or_default().push(v); // terminator marker (self)
                }
            });
        }
        let mut victim: Option<(ValueId, ValueId)> = None;
        for (v, inst) in &def_inst {
            let Inst::Phi { incoming, .. } = inst else { continue };
            // φ v whose only user is an add `a`, and a's only user is v.
            let users = uses.get(v).cloned().unwrap_or_default();
            let distinct: HashSet<ValueId> = users.iter().copied().collect();
            if distinct.len() != 1 {
                continue;
            }
            let a = *distinct.iter().next().unwrap();
            if a == *v {
                continue;
            }
            let Some(Inst::Bin { .. }) = def_inst.get(&a) else { continue };
            let a_users: HashSet<ValueId> =
                uses.get(&a).cloned().unwrap_or_default().into_iter().collect();
            if a_users.len() == 1 && a_users.contains(v) {
                // the add must be the φ's back edge
                if incoming.iter().any(|(_, op)| op.as_value() == Some(a)) {
                    victim = Some((*v, a));
                    break;
                }
            }
        }
        match victim {
            None => break,
            Some((v, a)) => {
                for blk in &mut f.blocks {
                    blk.insts.retain(|i| i.dst() != Some(v) && i.dst() != Some(a));
                }
                removed += 1;
            }
        }
    }
    removed
}

// ---------------------------------------------------------------------------
// loop-unroll
// ---------------------------------------------------------------------------

/// The `loop-unroll` pass: fully unroll small constant-trip self-loops, and
/// 4× partial-unroll larger ones with divisible trip counts. Unrolling is the
/// main producer of the straight-line isomorphic code SLP feeds on.
pub struct LoopUnroll;

/// Full-unroll limit on `trip * body size`.
const FULL_UNROLL_BUDGET: u64 = 256;
/// Maximum trip count considered for full unrolling.
const FULL_UNROLL_TRIP: u64 = 64;
/// Partial unroll factor.
const PARTIAL_FACTOR: u64 = 4;
/// Maximum body size for partial unrolling.
const PARTIAL_BODY: usize = 24;

impl Pass for LoopUnroll {
    fn name(&self) -> &'static str {
        "loop-unroll"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut full = 0u64;
            let mut partial = 0u64;
            // Unrolling never creates a self-loop (full unrolls straighten
            // one; partials only grow a body), and per loop at most a few
            // partial rounds fit the budget before body size or trip
            // divisibility gives out — so the candidate supply is bounded by
            // the initial self-loop count. The cleanup sweeps can unlock a
            // candidate (e.g. dce removing an unused alloca from a body), so
            // re-run the search after each cleanup until nothing fires: the
            // final state provably holds no candidate.
            let outer = find_self_loops(f).len() as u64 * 8 + 1;
            for _ in 0..outer {
                let mut n = 0u64;
                loop {
                    match unroll_one(f) {
                        Some(true) => {
                            full += 1;
                            n += 1;
                        }
                        Some(false) => {
                            partial += 1;
                            n += 1;
                        }
                        None => break,
                    }
                }
                if n == 0 {
                    break;
                }
                simplify_single_incoming_phis(f);
                dce_function(f);
            }
            stats.inc("loop-unroll", "NumFullyUnrolled", full);
            stats.inc("loop-unroll", "NumUnrolled", full + partial);
        }
    }
}

/// Read-only mirror of `unroll_one`'s search: the first self-loop passing
/// the IV/body/trip screens, as `(loop, trip, full?)`.
fn find_unrollable(f: &Function) -> Option<(SelfLoop, u64, bool)> {
    for sl in find_self_loops(f) {
        let Some(iv) = analyze_iv(f, &sl) else { continue };
        let body_len =
            f.blocks[sl.header.idx()].insts.iter().filter(|i| !i.is_phi()).count();
        // Calls make cloning legal but budget-hostile; skip bodies with calls.
        if f.blocks[sl.header.idx()]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Call { .. } | Inst::Alloca { .. }))
        {
            continue;
        }
        let trip = const_trip_count(&iv, FULL_UNROLL_TRIP.max(4096));
        if let Some(trip) = trip {
            if trip <= FULL_UNROLL_TRIP && trip * body_len as u64 <= FULL_UNROLL_BUDGET {
                return Some((sl, trip, true));
            }
            if trip % PARTIAL_FACTOR == 0 && body_len <= PARTIAL_BODY {
                return Some((sl, trip, false));
            }
        }
    }
    None
}

/// Returns Some(true) for a full unroll, Some(false) for partial, None if no
/// loop was transformed.
fn unroll_one(f: &mut Function) -> Option<bool> {
    let (sl, trip, is_full) = find_unrollable(f)?;
    if is_full {
        full_unroll(f, &sl, trip);
        Some(true)
    } else {
        partial_unroll(f, &sl, PARTIAL_FACTOR);
        Some(false)
    }
}

fn full_unroll(f: &mut Function, sl: &SelfLoop, trip: u64) {
    let h = sl.header;
    // Initial env: φ → preheader incoming.
    let mut env: HashMap<ValueId, Operand> = HashMap::new();
    let mut phi_ids: Vec<ValueId> = Vec::new();
    for inst in f.blocks[h.idx()].insts.iter().take_while(|i| i.is_phi()) {
        if let Inst::Phi { dst, incoming } = inst {
            let init = incoming
                .iter()
                .find(|(p, _)| *p == sl.preheader)
                .map(|(_, v)| *v)
                .expect("preheader incoming");
            env.insert(*dst, init);
            phi_ids.push(*dst);
        }
    }
    let mut out: Vec<Inst> = Vec::new();
    // Outside uses of a φ mean "its value during the final iteration", i.e.
    // the value entering the last body copy — snapshot it before that copy
    // advances the φs one step further (using the post-loop value instead
    // would be off by one iteration).
    let mut phi_at_last: HashMap<ValueId, Operand> = HashMap::new();
    for k in 0..trip {
        if k == trip - 1 {
            phi_at_last = phi_ids.iter().map(|p| (*p, env[p])).collect();
        }
        clone_body_once(f, h, &mut env, &mut out);
    }
    // Replace the header contents with the straight line and branch to exit.
    let originals: Vec<ValueId> =
        f.blocks[h.idx()].insts.iter().filter_map(|i| i.dst()).collect();
    f.blocks[h.idx()].insts = out;
    f.blocks[h.idx()].term = Term::Br(sl.exit);
    // Outside uses of loop-defined values: body values resolve through the
    // final env (last executed copy); φs through the final-iteration snapshot.
    for v in originals {
        let rep = phi_at_last.get(&v).copied().or_else(|| env.get(&v).copied());
        if let Some(final_op) = rep {
            replace_uses(f, v, final_op);
        }
    }
    // Exit φs: the edge is still from h; incomings were rewritten above.
}

fn partial_unroll(f: &mut Function, sl: &SelfLoop, factor: u64) {
    let h = sl.header;
    let phis: Vec<Inst> =
        f.blocks[h.idx()].insts.iter().take_while(|i| i.is_phi()).cloned().collect();
    let body: Vec<Inst> =
        f.blocks[h.idx()].insts.iter().skip_while(|i| i.is_phi()).cloned().collect();
    // env starts as identity on φs (iteration state stays in the φs).
    let mut env: HashMap<ValueId, Operand> = HashMap::new();
    let mut phi_ids: Vec<ValueId> = Vec::new();
    for inst in &phis {
        if let Inst::Phi { dst, .. } = inst {
            env.insert(*dst, Operand::Value(*dst));
            phi_ids.push(*dst);
        }
    }
    // `factor - 1` fresh-id copies for the leading iterations of each group…
    let mut out: Vec<Inst> = Vec::new();
    for _ in 0..factor - 1 {
        clone_body_once(f, h, &mut env, &mut out);
    }
    // φ values entering the final copy of the group (see outside-use fix-up).
    let phi_at_last: HashMap<ValueId, Operand> =
        phi_ids.iter().map(|p| (*p, env[p])).collect();
    // …then the final copy KEEPS the original instructions and dst ids, with
    // operands remapped to the previous copy. Every use outside the loop —
    // exit-φ incomings and directly dominated uses alike — therefore still
    // names a defined value, and it is the value of the last executed
    // iteration, exactly as before unrolling. The φ back edges and the latch
    // condition also reference those original ids, so both stay untouched.
    for inst in &body {
        let mut cloned = inst.clone();
        cloned.for_each_operand_mut(|op| *op = map_operand(&env, op));
        if let Some(d) = inst.dst() {
            // Later body insts must read THIS copy's result, not the
            // previous clone's: the original id is live again from here on.
            env.insert(d, Operand::Value(d));
        }
        out.push(cloned);
    }
    let mut insts = phis;
    insts.extend(out);
    f.blocks[h.idx()].insts = insts;
    // Outside uses of a φ mean "its value during the final iteration", which
    // after unrolling is the φ advanced through the factor-1 leading copies
    // (the φ itself now only carries the value at each group entry). Uses
    // inside the rebuilt header (first copy, φ back edges) must keep reading
    // the φ, so the rewrite skips the header block.
    for (p, rep) in &phi_at_last {
        if matches!(rep, Operand::Value(v) if v == p) {
            continue; // factor == 1: nothing advanced
        }
        let rewrite = |op: &mut Operand| {
            if op.as_value() == Some(*p) {
                *op = *rep;
            }
        };
        for bi in 0..f.blocks.len() {
            if bi == h.idx() {
                continue;
            }
            for inst in &mut f.blocks[bi].insts {
                inst.for_each_operand_mut(rewrite);
            }
            f.blocks[bi].term.for_each_operand_mut(rewrite);
        }
    }
}

// ---------------------------------------------------------------------------
// loop-deletion
// ---------------------------------------------------------------------------

/// The `loop-deletion` pass: remove provably-finite self-loops with no side
/// effects whose values are unused outside.
pub struct LoopDeletion;

impl Pass for LoopDeletion {
    fn name(&self) -> &'static str {
        "loop-deletion"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            // Each deletion consumes one header block, so the candidate
            // supply is bounded by the block count; iterating one past that
            // guarantees the final round found nothing.
            for _ in 0..=f.blocks.len() {
                let Some(sl) = deletion_candidate(f) else { break };
                let h = sl.header;
                // Delete: preheader jumps straight to the exit.
                f.blocks[sl.preheader.idx()].term.for_each_successor_mut(|s| {
                    if *s == h {
                        *s = sl.exit;
                    }
                });
                // Exit φs: entries from h replaced by entries from preheader.
                for inst in &mut f.blocks[sl.exit.idx()].insts {
                    if let Inst::Phi { incoming, .. } = inst {
                        for (p, _) in incoming.iter_mut() {
                            if *p == h {
                                *p = sl.preheader;
                            }
                        }
                    }
                }
                crate::util::remove_unreachable_blocks(f);
                n += 1;
            }
            stats.inc("loop-deletion", "NumDeleted", n);
        }
    }
}

/// Read-only mirror of `LoopDeletion`'s search: the first self-loop that is
/// pure, provably finite, and whose values never escape the header.
fn deletion_candidate(f: &Function) -> Option<SelfLoop> {
    for sl in find_self_loops(f) {
        let h = sl.header;
        let blk = &f.blocks[h.idx()];
        if blk.insts.iter().any(|i| {
            i.has_side_effects() || i.reads_memory() || matches!(i, Inst::Alloca { .. })
        }) {
            continue;
        }
        // Finite?
        let Some(iv) = analyze_iv(f, &sl) else { continue };
        if const_trip_count(&iv, 1 << 20).is_none() {
            continue;
        }
        // No loop value used outside.
        let defs: HashSet<ValueId> = blk.insts.iter().filter_map(|i| i.dst()).collect();
        let mut escaped = false;
        for (b, oblk) in f.iter_blocks() {
            if b == h {
                continue;
            }
            for inst in &oblk.insts {
                inst.for_each_operand(|op| {
                    if let Some(v) = op.as_value() {
                        escaped |= defs.contains(&v);
                    }
                });
            }
            oblk.term.for_each_operand(|op| {
                if let Some(v) = op.as_value() {
                    escaped |= defs.contains(&v);
                }
            });
        }
        if escaped {
            continue;
        }
        return Some(sl);
    }
    None
}

// ---------------------------------------------------------------------------
// strength-reduce
// ---------------------------------------------------------------------------

/// The `strength-reduce` pass: `mul(iv, c)` inside a self-loop becomes an
/// incrementally updated secondary induction variable (classic LSR).
pub struct StrengthReduce;

impl Pass for StrengthReduce {
    fn name(&self) -> &'static str {
        "strength-reduce"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for _ in 0..4 {
                if !reduce_one(f) {
                    break;
                }
                n += 1;
            }
            stats.inc("strength-reduce", "NumReduced", n);
        }
    }
}

fn reduce_one(f: &mut Function) -> bool {
    for sl in find_self_loops(f) {
        let Some(iv) = analyze_iv(f, &sl) else { continue };
        let h = sl.header;
        // Find `mul(iv.phi, c)` in the body.
        let found = f.blocks[h.idx()].insts.iter().enumerate().find_map(|(ii, inst)| {
            match inst {
                Inst::Bin { dst, op: BinOp::Mul, lhs, rhs } => {
                    match (lhs.as_value(), rhs.as_const_int()) {
                        (Some(l), Some(c)) if l == iv.phi && c != 0 => Some((ii, *dst, c)),
                        _ => None,
                    }
                }
                Inst::Bin { dst, op: BinOp::Shl, lhs, rhs } => {
                    match (lhs.as_value(), rhs.as_const_int()) {
                        (Some(l), Some(k)) if l == iv.phi && (0..32).contains(&k) => {
                            Some((ii, *dst, 1i64 << k))
                        }
                        _ => None,
                    }
                }
                _ => None,
            }
        });
        let Some((ii, dst, c)) = found else { continue };
        let ty = f.ty(dst);
        if ty != I64 {
            continue;
        }
        // j = phi [pre: init*c], [h: j + step*c]; replace the mul with j.
        let j = f.new_value(ty);
        let jnext = f.new_value(ty);
        let init_c = match iv.init {
            Operand::ImmI(v, s) => Operand::ImmI(s.wrap(v.wrapping_mul(c)), s),
            other => {
                // init*c must be computed in the preheader.
                let pv = f.new_value(ty);
                f.blocks[sl.preheader.idx()].insts.push(Inst::Bin {
                    dst: pv,
                    op: BinOp::Mul,
                    lhs: other,
                    rhs: Operand::ImmI(c, ty.scalar),
                });
                Operand::Value(pv)
            }
        };
        let step_c = iv.step.wrapping_mul(c);
        let hdr = &mut f.blocks[h.idx()].insts;
        // Replace the mul with `jnext = add j, step*c` is wrong — the mul
        // equals j (current iteration), so substitute dst -> j and keep the
        // increment separate.
        hdr[ii] = Inst::Bin {
            dst: jnext,
            op: BinOp::Add,
            lhs: Operand::Value(j),
            rhs: Operand::ImmI(step_c, ty.scalar),
        };
        hdr.insert(
            0,
            Inst::Phi {
                dst: j,
                incoming: vec![(sl.preheader, init_c), (h, Operand::Value(jnext))],
            },
        );
        replace_uses(f, dst, Operand::Value(j));
        return true;
    }
    false
}
