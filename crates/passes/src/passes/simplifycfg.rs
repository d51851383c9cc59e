//! Control-flow simplification: constant-branch folding, block merging,
//! forwarding-block elimination — plus a simple `jump-threading` pass.

use crate::manager::Pass;
use crate::stats::Stats;
use crate::util::{
    is_forwarding_block, remove_unreachable_blocks, simplify_single_incoming_phis,
};
use citroen_ir::analysis::Cfg;
use citroen_ir::inst::{BlockId, Inst, Operand, Term};
use citroen_ir::module::{Function, Module};
use std::collections::HashSet;

/// The `simplifycfg` pass.
pub struct SimplifyCfg;

impl Pass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplifycfg"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            // Iterate the local simplifications to a true fixpoint. The bound
            // is a termination measure, not a heuristic: every one of the five
            // rewrites strictly decreases `blocks + condbrs + φs` and none of
            // them ever increases it, so `measure + 1` rounds always reach the
            // fixpoint.
            let measure = f.blocks.len()
                + f.blocks
                    .iter()
                    .map(|b| {
                        b.num_phis()
                            + usize::from(matches!(b.term, Term::CondBr { .. }))
                    })
                    .sum::<usize>();
            for _ in 0..=measure {
                let mut changed = 0;
                changed += fold_constant_branches(f);
                changed += remove_unreachable_blocks(f);
                changed += merge_straightline(f);
                changed += bypass_forwarding_blocks(f);
                changed += simplify_single_incoming_phis(f);
                n += changed as u64;
                if changed == 0 {
                    break;
                }
            }
            stats.inc("simplifycfg", "NumSimpl", n);
        }
    }
}

/// `condbr const, T, F` → `br` (and `condbr c, T, T` → `br T`), dropping the
/// dead edge from the φs of the no-longer-successor.
pub(crate) fn fold_constant_branches(f: &mut Function) -> usize {
    let mut n = 0;
    for bi in 0..f.blocks.len() {
        let b = BlockId(bi as u32);
        let (taken, dead) = match &f.blocks[bi].term {
            Term::CondBr { cond, t, f: fb } => {
                if t == fb {
                    (*t, None)
                } else if let Operand::ImmI(c, _) = cond {
                    if *c != 0 {
                        (*t, Some(*fb))
                    } else {
                        (*fb, Some(*t))
                    }
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        f.blocks[bi].term = Term::Br(taken);
        if let Some(d) = dead {
            remove_phi_edge(f, d, b);
        }
        n += 1;
    }
    n
}

/// Remove the incoming entry for `pred` from every φ of `block`.
fn remove_phi_edge(f: &mut Function, block: BlockId, pred: BlockId) {
    for inst in &mut f.blocks[block.idx()].insts {
        if let Inst::Phi { incoming, .. } = inst {
            incoming.retain(|(p, _)| *p != pred);
        }
    }
}

/// Merge `b -> s` when `s` is `b`'s unique successor and `b` is `s`'s unique
/// predecessor. φ incomings referring to `s` in `s`'s successors are renamed.
pub(crate) fn merge_straightline(f: &mut Function) -> usize {
    let mut n = 0;
    loop {
        let cfg = Cfg::compute(f);
        let mut candidate: Option<(BlockId, BlockId)> = None;
        for (b, blk) in f.iter_blocks() {
            if !cfg.reachable(b) {
                continue;
            }
            if let Term::Br(s) = blk.term {
                if s != b && cfg.preds[s.idx()].len() == 1 && f.blocks[s.idx()].num_phis() == 0 {
                    candidate = Some((b, s));
                    break;
                }
            }
        }
        let Some((b, s)) = candidate else { break };
        let succ_insts = std::mem::take(&mut f.blocks[s.idx()].insts);
        let succ_term = std::mem::replace(&mut f.blocks[s.idx()].term, Term::Unreachable);
        f.blocks[b.idx()].insts.extend(succ_insts);
        f.blocks[b.idx()].term = succ_term;
        // Successors of s now see b as the pred.
        for t in f.blocks[b.idx()].term.successors() {
            for inst in &mut f.blocks[t.idx()].insts {
                if let Inst::Phi { incoming, .. } = inst {
                    for (p, _) in incoming.iter_mut() {
                        if *p == s {
                            *p = b;
                        }
                    }
                }
            }
        }
        remove_unreachable_blocks(f);
        n += 1;
    }
    n
}

/// Retarget edges that go through an empty `br`-only block, when doing so
/// keeps φ incoming lists valid.
pub(crate) fn bypass_forwarding_blocks(f: &mut Function) -> usize {
    let mut n = 0;
    let nb = f.blocks.len();
    for ei in 0..nb {
        let e = BlockId(ei as u32);
        let Some(t) = is_forwarding_block(f, e) else { continue };
        let cfg = Cfg::compute(f);
        if !cfg.reachable(e) {
            continue;
        }
        // The forwarding block must not be a φ-relevant merge point we can't
        // preserve: every pred p of e must not already be a pred of t.
        let preds_e: Vec<BlockId> = cfg.preds[e.idx()].clone();
        let preds_t: HashSet<BlockId> = cfg.preds[t.idx()].iter().copied().collect();
        if preds_e.is_empty() || e == t {
            continue;
        }
        if preds_e.iter().any(|p| preds_t.contains(p) || *p == e) {
            continue;
        }
        // Rewrite each pred's terminator e -> t.
        for &p in &preds_e {
            f.blocks[p.idx()].term.for_each_successor_mut(|s| {
                if *s == e {
                    *s = t;
                }
            });
        }
        // t's φs: replace the entry from e with one entry per pred of e.
        for inst in &mut f.blocks[t.idx()].insts {
            if let Inst::Phi { incoming, .. } = inst {
                if let Some(pos) = incoming.iter().position(|(p, _)| *p == e) {
                    let (_, val) = incoming.remove(pos);
                    for &p in &preds_e {
                        incoming.push((p, val));
                    }
                }
            }
        }
        remove_unreachable_blocks(f);
        n += 1;
        // Block ids shifted; restart scanning from a consistent state.
        return n + bypass_forwarding_blocks(f);
    }
    n
}

/// The `jump-threading` pass: when a block consists solely of φs and a condbr
/// whose condition is one of the φs with constant incomings, thread each
/// constant-pred edge directly to its known destination.
pub struct JumpThreading;

impl Pass for JumpThreading {
    fn name(&self) -> &'static str {
        "jump-threading"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for _ in 0..4 {
                let t = thread_once(f);
                n += t as u64;
                if t == 0 {
                    break;
                }
            }
            stats.inc("jump-threading", "NumThreads", n);
        }
    }
}

/// A block to thread through: its id, its one φ, and the (predecessor,
/// destination) edges that bypass it.
type Threading = (BlockId, citroen_ir::inst::ValueId, Vec<(BlockId, BlockId)>);

fn thread_once(f: &mut Function) -> usize {
    let cfg = Cfg::compute(f);
    // Find: block B with exactly one φ, no other insts, condbr on that φ.
    let mut found: Option<Threading> = None;
    for (b, blk) in f.iter_blocks() {
        if !cfg.reachable(b) || blk.insts.len() != 1 {
            continue;
        }
        let Inst::Phi { dst, incoming } = &blk.insts[0] else { continue };
        let Term::CondBr { cond, t, f: fb } = &blk.term else { continue };
        if cond.as_value() != Some(*dst) || t == fb || *t == b || *fb == b {
            continue;
        }
        let (t, fb) = (*t, *fb);
        // Preds with a constant incoming can be threaded.
        let threadable: Vec<(BlockId, BlockId)> = incoming
            .iter()
            .filter_map(|(p, op)| {
                op.as_const_int().map(|c| (*p, if c != 0 { t } else { fb }))
            })
            .collect();
        if threadable.is_empty() {
            continue;
        }
        // Safety: the target must not end up with duplicate preds, and the
        // targets' φs must be extendable (they gain an edge from p with the
        // same value they had from B).
        let preds_t: HashSet<BlockId> = cfg.preds[t.idx()].iter().copied().collect();
        let preds_f: HashSet<BlockId> = cfg.preds[fb.idx()].iter().copied().collect();
        let ok = threadable.iter().all(|(p, dest)| {
            let existing = if *dest == t { &preds_t } else { &preds_f };
            !existing.contains(p) && *p != b
        });
        // Also require each threaded pred appear once (condbr t==f already excluded).
        if !ok {
            continue;
        }
        found = Some((b, *dst, threadable));
        break;
    }
    if let Some((b_id, b_phi, threadable)) = found {
        // Apply: for each (p, dest): p's edge b -> dest; dest's φs gain an
        // entry (p, value-they-had-for-b), with references to B's φ replaced
        // by the constant p carried; B's φ loses its entry for p.
        for (p, dest) in &threadable {
            let carried = f.blocks[b_id.idx()]
                .insts
                .first()
                .and_then(|inst| match inst {
                    Inst::Phi { incoming, .. } => {
                        incoming.iter().find(|(q, _)| q == p).map(|(_, v)| *v)
                    }
                    _ => None,
                })
                .expect("threaded pred must have a phi entry");
            f.blocks[p.idx()].term.for_each_successor_mut(|s| {
                if *s == b_id {
                    *s = *dest;
                }
            });
            for inst in &mut f.blocks[dest.idx()].insts {
                if let Inst::Phi { incoming, .. } = inst {
                    if let Some((_, v)) = incoming.iter().find(|(q, _)| *q == b_id).copied() {
                        let val = match v {
                            Operand::Value(vid) if vid == b_phi => carried,
                            other => other,
                        };
                        incoming.push((*p, val));
                    }
                }
            }
            if let Inst::Phi { incoming, .. } = &mut f.blocks[b_id.idx()].insts[0] {
                incoming.retain(|(q, _)| q != p);
            }
        }
        simplify_single_incoming_phis(f);
        remove_unreachable_blocks(f);
        1
    } else {
        0
    }
}
