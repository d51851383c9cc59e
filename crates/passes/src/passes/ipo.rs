//! Interprocedural passes: `inline`, `function-attrs`, `tailcallelim`.
//!
//! `function-attrs` is the paper's example (§3.4) of a transformation whose
//! effect is invisible to syntax-level IR features: it only flips attribute
//! bits, but those bits unlock GVN/LICM/ADCE treatment of calls and reduce
//! the simulator's call cost. Its compilation statistics are the only static
//! signal that it did anything.

use crate::manager::Pass;
use crate::stats::Stats;
use citroen_ir::inst::{BlockId, FuncId, Inst, Operand, Term, ValueId};
use citroen_ir::module::{Function, Module};
use std::collections::HashMap;

/// Maximum callee size (instructions) eligible for inlining.
const INLINE_THRESHOLD: usize = 48;
/// Maximum number of inlines per module per pass run.
const INLINE_BUDGET: usize = 24;

/// The `inline` pass.
pub struct Inline;

impl Pass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        let mut n = 0u64;
        for _ in 0..INLINE_BUDGET {
            if !inline_one(m) {
                break;
            }
            n += 1;
        }
        stats.inc("inline", "NumInlined", n);
    }
}

fn inlinable(m: &Module, caller: FuncId, callee: FuncId) -> bool {
    if caller == callee {
        return false;
    }
    let f = &m.funcs[callee.idx()];
    if f.is_decl() || f.attrs.noinline || f.num_insts() > INLINE_THRESHOLD {
        return false;
    }
    // Direct self-recursion in the callee keeps it out too.
    let self_call = f.blocks.iter().any(|b| {
        b.insts.iter().any(|i| matches!(i, Inst::Call { callee: c, .. } if *c == callee))
    });
    if self_call {
        return false;
    }
    // Allocas in the callee would need hoist-and-clear treatment when the
    // call site sits in a loop; mem2reg usually removes them first — the
    // mem2reg→inline enabling chain.
    let has_alloca =
        f.blocks.iter().any(|b| b.insts.iter().any(|i| matches!(i, Inst::Alloca { .. })));
    !has_alloca
}

fn inline_one(m: &mut Module) -> bool {
    // Find a call site with an inlinable callee.
    let mut site: Option<(usize, BlockId, usize, FuncId)> = None;
    'outer: for (fi, f) in m.funcs.iter().enumerate() {
        for (b, blk) in f.iter_blocks() {
            for (ii, inst) in blk.insts.iter().enumerate() {
                if let Inst::Call { callee, .. } = inst {
                    if inlinable(m, FuncId(fi as u32), *callee) {
                        site = Some((fi, b, ii, *callee));
                        break 'outer;
                    }
                }
            }
        }
    }
    let Some((fi, b, ii, callee_id)) = site else { return false };
    let callee = m.funcs[callee_id.idx()].clone();
    let caller = &mut m.funcs[fi];

    // Remove the call; remember its pieces.
    let Inst::Call { dst: call_dst, args, .. } = caller.blocks[b.idx()].insts.remove(ii) else {
        unreachable!()
    };

    // Split block b at the (removed) call: `cont` gets the tail + b's term.
    let cont = caller.new_block();
    let tail: Vec<Inst> = caller.blocks[b.idx()].insts.split_off(ii);
    let old_term = std::mem::replace(&mut caller.blocks[b.idx()].term, Term::Unreachable);
    caller.blocks[cont.idx()].insts = tail;
    caller.blocks[cont.idx()].term = old_term;
    // φs in b's former successors now see `cont` as the predecessor.
    let succs: Vec<BlockId> = caller.blocks[cont.idx()].term.successors();
    for s in succs {
        for inst in &mut caller.blocks[s.idx()].insts {
            if let Inst::Phi { incoming, .. } = inst {
                for (p, _) in incoming.iter_mut() {
                    if *p == b {
                        *p = cont;
                    }
                }
            }
        }
    }

    // Clone callee blocks/values into the caller.
    let mut val_map: HashMap<ValueId, Operand> = HashMap::new();
    for (pi, arg) in args.iter().enumerate() {
        val_map.insert(ValueId(pi as u32), *arg);
    }
    let block_base = caller.blocks.len() as u32;
    let block_map = |cb: BlockId| BlockId(block_base + cb.0);
    for _ in 0..callee.blocks.len() {
        caller.new_block();
    }
    // Fresh values for callee-defined values.
    for (vi, ty) in callee.value_ty.iter().enumerate().skip(callee.params.len()) {
        let nv = caller.new_value(*ty);
        val_map.insert(ValueId(vi as u32), Operand::Value(nv));
    }
    let map_op = |val_map: &HashMap<ValueId, Operand>, op: &Operand| -> Operand {
        match op {
            Operand::Value(v) => val_map[v],
            other => *other,
        }
    };
    let mut rets: Vec<(BlockId, Option<Operand>)> = Vec::new();
    for (cb, cblk) in callee.iter_blocks() {
        let nb = block_map(cb);
        let mut insts = Vec::with_capacity(cblk.insts.len());
        for inst in &cblk.insts {
            let mut cloned = inst.clone();
            cloned.for_each_operand_mut(|op| *op = map_op(&val_map, op));
            if let Some(d) = inst.dst() {
                let Operand::Value(nd) = val_map[&d] else { unreachable!() };
                super::loops::set_dst(&mut cloned, nd);
            }
            if let Inst::Phi { incoming, .. } = &mut cloned {
                for (p, _) in incoming.iter_mut() {
                    *p = block_map(*p);
                }
            }
            insts.push(cloned);
        }
        let term = match &cblk.term {
            Term::Br(t) => Term::Br(block_map(*t)),
            Term::CondBr { cond, t, f } => Term::CondBr {
                cond: map_op(&val_map, cond),
                t: block_map(*t),
                f: block_map(*f),
            },
            Term::Ret(v) => {
                let mapped = v.as_ref().map(|op| map_op(&val_map, op));
                rets.push((nb, mapped));
                Term::Br(cont)
            }
            Term::Unreachable => Term::Unreachable,
        };
        caller.blocks[nb.idx()].insts = insts;
        caller.blocks[nb.idx()].term = term;
    }
    // Enter the inlined body.
    caller.blocks[b.idx()].term = Term::Br(block_map(callee.entry()));

    // Wire the return value.
    if let Some(dst) = call_dst {
        let ret_op = match rets.len() {
            0 => None,
            1 => rets[0].1,
            _ => {
                // Merge with a φ in `cont`.
                let ty = caller.ty(dst);
                let merged = caller.new_value(ty);
                let incoming: Vec<(BlockId, Operand)> = rets
                    .iter()
                    .map(|(rb, v)| (*rb, v.expect("non-void callee must return values")))
                    .collect();
                caller.blocks[cont.idx()].insts.insert(0, Inst::Phi { dst: merged, incoming });
                Some(Operand::Value(merged))
            }
        };
        if let Some(op) = ret_op {
            crate::util::replace_uses(caller, dst, op);
        }
    }
    crate::util::remove_unreachable_blocks(caller);
    true
}

/// The `function-attrs` pass: infer `readnone`/`readonly` bottom-up.
pub struct FunctionAttrs;

impl Pass for FunctionAttrs {
    fn name(&self) -> &'static str {
        "function-attrs"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        // Start optimistic (readnone) and knock bits off to a fixpoint.
        // Unknown (declaration) bodies are assumed to read and write memory;
        // allocas imply local traffic which loads/stores already capture.
        let (reads, writes) = infer_memory_bits(m);
        let mut newly_readnone = 0u64;
        let mut newly_readonly = 0u64;
        for (fi, f) in m.funcs.iter_mut().enumerate() {
            let rn = !reads[fi] && !writes[fi];
            let ro = !writes[fi] && !rn;
            if rn && !f.attrs.readnone {
                f.attrs.readnone = true;
                newly_readnone += 1;
            }
            if ro && !f.attrs.readonly {
                f.attrs.readonly = true;
                newly_readonly += 1;
            }
        }
        stats.inc("function-attrs", "NumReadNone", newly_readnone);
        stats.inc("function-attrs", "NumReadOnly", newly_readonly);
    }
}

/// `function-attrs`' bottom-up reads/writes inference.
fn infer_memory_bits(m: &Module) -> (Vec<bool>, Vec<bool>) {
    let n = m.funcs.len();
    let mut reads = vec![false; n];
    let mut writes = vec![false; n];
    for (fi, f) in m.funcs.iter().enumerate() {
        if f.is_decl() {
            reads[fi] = true;
            writes[fi] = true;
            continue;
        }
        for blk in &f.blocks {
            for inst in &blk.insts {
                match inst {
                    Inst::Load { .. } => reads[fi] = true,
                    Inst::Store { .. } => writes[fi] = true,
                    _ => {}
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for (fi, f) in m.funcs.iter().enumerate() {
            for blk in &f.blocks {
                for inst in &blk.insts {
                    if let Inst::Call { callee, .. } = inst {
                        let c = callee.idx();
                        if reads[c] && !reads[fi] {
                            reads[fi] = true;
                            changed = true;
                        }
                        if writes[c] && !writes[fi] {
                            writes[fi] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    (reads, writes)
}

/// The `tailcallelim` pass: turn direct tail recursion into a loop.
pub struct TailCallElim;

impl Pass for TailCallElim {
    fn name(&self) -> &'static str {
        "tailcallelim"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        let mut n = 0u64;
        for fi in 0..m.funcs.len() {
            n += tce_function(&mut m.funcs[fi], FuncId(fi as u32));
        }
        stats.inc("tailcallelim", "NumEliminated", n);
    }
}

fn tce_function(f: &mut Function, self_id: FuncId) -> u64 {
    if f.is_decl() {
        return 0;
    }
    // Find tail sites: last inst is `call self`, terminator returns its result
    // (or both are void).
    let mut sites: Vec<BlockId> = Vec::new();
    for (b, blk) in f.iter_blocks() {
        let Some(Inst::Call { dst, callee, .. }) = blk.insts.last() else { continue };
        if *callee != self_id {
            continue;
        }
        let tail = match (&blk.term, dst) {
            (Term::Ret(Some(Operand::Value(rv))), Some(d)) => rv == d,
            (Term::Ret(None), None) => true,
            _ => false,
        };
        if tail {
            sites.push(b);
        }
    }
    if sites.is_empty() {
        return 0;
    }
    // New header: move the entry block's body into a fresh block H; the entry
    // becomes `br H`. Parameters become φs in H.
    let entry = f.entry();
    let h = f.new_block();
    let insts = std::mem::take(&mut f.blocks[entry.idx()].insts);
    let term = std::mem::replace(&mut f.blocks[entry.idx()].term, Term::Br(h));
    f.blocks[h.idx()].insts = insts;
    f.blocks[h.idx()].term = term;
    // Successor φs referencing entry as pred now come from H.
    let succs = f.blocks[h.idx()].term.successors();
    for s in succs {
        for inst in &mut f.blocks[s.idx()].insts {
            if let Inst::Phi { incoming, .. } = inst {
                for (p, _) in incoming.iter_mut() {
                    if *p == entry {
                        *p = h;
                    }
                }
            }
        }
    }
    // `sites` listing entry must be remapped (its body now lives in H).
    let sites: Vec<BlockId> =
        sites.into_iter().map(|b| if b == entry { h } else { b }).collect();

    // Param φs: fresh values, then rewrite all param uses, then fix incomings.
    let params: Vec<ValueId> = (0..f.params.len() as u32).map(ValueId).collect();
    let mut phi_of: HashMap<ValueId, ValueId> = HashMap::new();
    for &p in &params {
        let ty = f.ty(p);
        let v = f.new_value(ty);
        phi_of.insert(p, v);
    }
    for (&p, &v) in &phi_of {
        crate::util::replace_uses(f, p, Operand::Value(v));
    }
    // Tail sites: capture args (already rewritten to use φ values), drop the
    // call, branch back to H.
    let mut site_args: Vec<(BlockId, Vec<Operand>)> = Vec::new();
    for &sb in &sites {
        let Some(Inst::Call { args, .. }) = f.blocks[sb.idx()].insts.pop() else {
            unreachable!()
        };
        site_args.push((sb, args));
        f.blocks[sb.idx()].term = Term::Br(h);
    }
    // Build the φs (inserted at the top of H).
    for (pi, &p) in params.iter().enumerate().rev() {
        let v = phi_of[&p];
        let mut incoming = vec![(entry, Operand::Value(p))];
        for (sb, args) in &site_args {
            incoming.push((*sb, args[pi]));
        }
        f.blocks[h.idx()].insts.insert(0, Inst::Phi { dst: v, incoming });
    }
    sites.len() as u64
}
