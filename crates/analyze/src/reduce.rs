//! Delta debugging: minimise failing pass sequences and failing modules.
//!
//! Two reducers, both oracle-driven (the caller supplies a `fails` predicate
//! that must stay true while the input shrinks):
//!
//! - [`ddmin`] is the classic Zeller/Hildebrandt chunk-removal loop over any
//!   list — the fuzzer uses it on pass sequences.
//! - [`reduce_module`] shrinks an IR module by trying candidate edits
//!   (conditional-branch simplification, instruction deletion with uses
//!   replaced by zero, unreachable-block removal) and keeping an edit only if
//!   the module still verifies *and* still fails. Verifier gating means the
//!   edits themselves can be crude; anything structurally broken is simply
//!   rejected.

use citroen_ir::inst::{BlockId, Inst, Operand, Term};
use citroen_ir::module::{Function, Module};
use citroen_ir::verify::verify_module;

/// Minimise `input` to a (1-minimal) sublist for which `fails` still returns
/// true. Preserves element order. Assumes `fails(input)` is true; the result
/// may be empty if the empty list also fails.
pub fn ddmin<T: Clone>(input: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = input.to_vec();
    let mut n = 2usize;
    while !cur.is_empty() && n >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            // Candidate = everything except cur[start..end].
            let mut cand: Vec<T> = Vec::with_capacity(cur.len() - (end - start));
            cand.extend_from_slice(&cur[..start]);
            cand.extend_from_slice(&cur[end..]);
            if cand.len() < cur.len() && fails(&cand) {
                cur = cand;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= cur.len() {
                break; // single-element granularity exhausted: 1-minimal
            }
            n = (n * 2).min(cur.len().max(2));
        }
    }
    cur
}

/// Shrink `m` while `fails` keeps returning true on the (always
/// verifier-clean) candidate. Returns the reduced module with unreachable
/// blocks removed and block ids compacted.
pub fn reduce_module(m: &Module, mut fails: impl FnMut(&Module) -> bool) -> Module {
    let mut cur = m.clone();
    loop {
        let mut progress = false;

        // 0. Terminator replacement: end any block in a plain `ret 0`, which
        //    cuts loops and tails in one step.
        for fi in 0..cur.funcs.len() {
            let Some(ret) = zero_ret(&cur.funcs[fi]) else { continue };
            let mut bi = 0;
            while bi < cur.funcs[fi].blocks.len() {
                if cur.funcs[fi].blocks[bi].term != ret {
                    let mut cand = cur.clone();
                    cand.funcs[fi].blocks[bi].term = ret.clone();
                    if accept(&mut cand, &mut fails) {
                        cur = cand;
                        progress = true;
                    }
                }
                bi += 1;
            }
        }

        // 1. Branch simplification: each CondBr to each of its arms. Accepted
        //    candidates compact the block list, so bounds are re-read every
        //    iteration instead of being hoisted.
        for fi in 0..cur.funcs.len() {
            let mut bi = 0;
            while bi < cur.funcs[fi].blocks.len() {
                let Term::CondBr { t, f, .. } = cur.funcs[fi].blocks[bi].term else {
                    bi += 1;
                    continue;
                };
                for target in [t, f] {
                    let mut cand = cur.clone();
                    cand.funcs[fi].blocks[bi].term = Term::Br(target);
                    if accept(&mut cand, &mut fails) {
                        cur = cand;
                        progress = true;
                        break;
                    }
                }
                bi += 1;
            }
        }

        // 2. Unreachable-block removal (shrinks the block count the branch
        //    edits opened up).
        {
            let mut cand = cur.clone();
            let mut removed = false;
            for f in &mut cand.funcs {
                removed |= remove_unreachable_blocks(f);
            }
            if removed && accept(&mut cand, &mut fails) {
                cur = cand;
                progress = true;
            }
        }

        // 2a. Single-incoming φs become plain copies of their operand.
        for fi in 0..cur.funcs.len() {
            let mut bi = 0;
            while bi < cur.funcs[fi].blocks.len() {
                if let Some(cand) = elim_single_phi(&cur, fi, bi) {
                    let mut cand = cand;
                    if accept(&mut cand, &mut fails) {
                        cur = cand;
                        progress = true;
                        continue;
                    }
                }
                bi += 1;
            }
        }

        // 2b. Merge straight-line `br` chains (b → t where b is t's only
        //     predecessor), collapsing the block count.
        for fi in 0..cur.funcs.len() {
            let mut bi = 0;
            while bi < cur.funcs[fi].blocks.len() {
                if let Some(cand) = merge_chain(&cur, fi, bi) {
                    let mut cand = cand;
                    if accept(&mut cand, &mut fails) {
                        cur = cand;
                        progress = true;
                        continue;
                    }
                }
                bi += 1;
            }
        }

        // 2c. Forward edges through empty `br` blocks (p → b → t becomes
        //     p → t), which collapses empty loop latches.
        for fi in 0..cur.funcs.len() {
            let mut bi = 0;
            while bi < cur.funcs[fi].blocks.len() {
                if let Some(cand) = forward_empty_block(&cur, fi, bi) {
                    let mut cand = cand;
                    if accept(&mut cand, &mut fails) {
                        cur = cand;
                        progress = true;
                        continue;
                    }
                }
                bi += 1;
            }
        }

        // 3. Instruction deletion, uses replaced by a zero immediate.
        for fi in 0..cur.funcs.len() {
            let mut bi = 0;
            while bi < cur.funcs[fi].blocks.len() {
                let mut ii = 0;
                while ii < cur.funcs[fi].blocks[bi].insts.len() {
                    if let Some(cand) = delete_inst(&cur, fi, bi, ii) {
                        let mut cand = cand;
                        if accept(&mut cand, &mut fails) {
                            cur = cand;
                            progress = true;
                            continue; // same index now holds the next inst
                        }
                    }
                    ii += 1;
                }
                bi += 1;
            }
        }

        if !progress {
            break;
        }
    }
    cur
}

/// Normalise a candidate (drop stale φ edges, compact blocks) and test it:
/// it is accepted only if it still verifies and still fails.
fn accept(cand: &mut Module, fails: &mut impl FnMut(&Module) -> bool) -> bool {
    for f in cand.funcs.iter_mut() {
        remove_unreachable_blocks(f);
        cleanup_phis(f);
    }
    verify_module(cand).is_empty() && fails(cand)
}

/// The `ret 0` terminator matching the function's return type, if it has an
/// immediate form.
fn zero_ret(f: &Function) -> Option<Term> {
    match f.ret {
        None => Some(Term::Ret(None)),
        Some(ty) if ty.lanes == 1 && ty.scalar.is_int() => {
            Some(Term::Ret(Some(Operand::ImmI(0, ty.scalar))))
        }
        Some(ty) if ty.lanes == 1 => Some(Term::Ret(Some(Operand::ImmF(0.0)))),
        Some(_) => None, // vector returns have no immediate operand form
    }
}

/// Candidate replacing the first single-incoming φ of block `bi` with its
/// operand (all uses rewritten, φ deleted). `None` if no such φ.
fn elim_single_phi(m: &Module, fi: usize, bi: usize) -> Option<Module> {
    let f = &m.funcs[fi];
    let (ii, dst, rep) = f.blocks[bi].insts.iter().enumerate().find_map(|(i, inst)| {
        match inst {
            Inst::Phi { dst, incoming } if incoming.len() == 1 => {
                Some((i, *dst, incoming[0].1))
            }
            _ => None,
        }
    })?;
    let mut cand = m.clone();
    cand.funcs[fi].blocks[bi].insts.remove(ii);
    let func = &mut cand.funcs[fi];
    for blk in &mut func.blocks {
        for inst in &mut blk.insts {
            inst.for_each_operand_mut(&mut |op: &mut Operand| {
                if *op == Operand::Value(dst) {
                    *op = rep;
                }
            });
        }
        blk.term.for_each_operand_mut(&mut |op: &mut Operand| {
            if *op == Operand::Value(dst) {
                *op = rep;
            }
        });
    }
    Some(cand)
}

/// Candidate merging block `bi` with its unique `Br` successor `t`, when `bi`
/// is `t`'s only predecessor and `t` has no φs. `None` if the shape does not
/// apply.
fn merge_chain(m: &Module, fi: usize, bi: usize) -> Option<Module> {
    let f = &m.funcs[fi];
    let Term::Br(t) = f.blocks[bi].term else { return None };
    if t.idx() == bi {
        return None;
    }
    // t must have exactly one incoming edge (ours) and no φs.
    let mut incoming_edges = 0;
    for blk in &f.blocks {
        for s in blk.term.successors() {
            if s == t {
                incoming_edges += 1;
            }
        }
    }
    if incoming_edges != 1 || f.blocks[t.idx()].num_phis() != 0 {
        return None;
    }
    let mut cand = m.clone();
    let func = &mut cand.funcs[fi];
    let tail = std::mem::take(&mut func.blocks[t.idx()].insts);
    let term = std::mem::replace(&mut func.blocks[t.idx()].term, Term::Unreachable);
    func.blocks[bi].insts.extend(tail);
    func.blocks[bi].term = term;
    Some(cand)
}

/// Candidate retargeting every edge into the empty `br`-only block `bi`
/// directly to its successor. `None` when the shape does not apply (the block
/// has instructions, branches to itself, or the successor has φs that would
/// need new incoming edges).
fn forward_empty_block(m: &Module, fi: usize, bi: usize) -> Option<Module> {
    let f = &m.funcs[fi];
    if !f.blocks[bi].insts.is_empty() {
        return None;
    }
    let Term::Br(t) = f.blocks[bi].term else { return None };
    if t.idx() == bi || f.blocks[t.idx()].num_phis() != 0 {
        return None;
    }
    let b_id = BlockId(bi as u32);
    let mut cand = m.clone();
    let mut changed = false;
    for (pi, blk) in cand.funcs[fi].blocks.iter_mut().enumerate() {
        if pi == bi {
            continue;
        }
        blk.term.for_each_successor_mut(&mut |s: &mut BlockId| {
            if *s == b_id {
                *s = t;
                changed = true;
            }
        });
    }
    changed.then_some(cand)
}

/// Candidate with instruction `ii` of block `bi` removed; value uses are
/// replaced by a typed zero. `None` if the instruction cannot be deleted
/// this way (vector-typed result — no immediate operand form exists).
fn delete_inst(m: &Module, fi: usize, bi: usize, ii: usize) -> Option<Module> {
    let f = &m.funcs[fi];
    let inst = &f.blocks[bi].insts[ii];
    let replacement = match inst.dst() {
        None => None,
        Some(d) => {
            let ty = f.ty(d);
            if ty.lanes != 1 {
                return None;
            }
            Some(if ty.scalar.is_int() {
                Operand::ImmI(0, ty.scalar)
            } else {
                Operand::ImmF(0.0)
            })
        }
    };
    let mut cand = m.clone();
    let removed = cand.funcs[fi].blocks[bi].insts.remove(ii);
    if let (Some(d), Some(rep)) = (removed.dst(), replacement) {
        let func = &mut cand.funcs[fi];
        for blk in &mut func.blocks {
            for inst in &mut blk.insts {
                inst.for_each_operand_mut(&mut |op: &mut Operand| {
                    if *op == Operand::Value(d) {
                        *op = rep;
                    }
                });
            }
            blk.term.for_each_operand_mut(&mut |op: &mut Operand| {
                if *op == Operand::Value(d) {
                    *op = rep;
                }
            });
        }
    }
    Some(cand)
}

/// Drop blocks unreachable from the entry and renumber the rest. Returns
/// whether anything was removed.
fn remove_unreachable_blocks(f: &mut Function) -> bool {
    if f.blocks.is_empty() {
        return false;
    }
    let cfg = citroen_ir::analysis::Cfg::compute(f);
    let n = f.blocks.len();
    let mut map: Vec<Option<BlockId>> = vec![None; n];
    let mut next = 0u32;
    for (i, m) in map.iter_mut().enumerate() {
        if cfg.reachable(BlockId(i as u32)) {
            *m = Some(BlockId(next));
            next += 1;
        }
    }
    if next as usize == n {
        return false;
    }
    let mut old = std::mem::take(&mut f.blocks);
    for (i, blk) in old.drain(..).enumerate() {
        if map[i].is_some() {
            f.blocks.push(blk);
        }
    }
    for blk in &mut f.blocks {
        blk.term.for_each_successor_mut(&mut |s: &mut BlockId| {
            *s = map[s.idx()].expect("edge from reachable to unreachable block");
        });
        for inst in &mut blk.insts {
            if let Inst::Phi { incoming, .. } = inst {
                incoming.retain(|(p, _)| map[p.idx()].is_some());
                for (p, _) in incoming.iter_mut() {
                    *p = map[p.idx()].unwrap();
                }
            }
        }
    }
    true
}

/// Drop φ edges whose source is no longer a predecessor (after branch edits)
/// and deduplicate. Keeps the φ itself even with a single edge — the verifier
/// accepts that as long as edges match predecessors.
fn cleanup_phis(f: &mut Function) {
    let cfg = citroen_ir::analysis::Cfg::compute(f);
    for (bi, blk) in f.blocks.iter_mut().enumerate() {
        let preds = &cfg.preds[bi];
        for inst in &mut blk.insts {
            if let Inst::Phi { incoming, .. } = inst {
                let mut seen = Vec::new();
                incoming.retain(|(p, _)| {
                    let keep = preds.contains(p) && !seen.contains(p);
                    if keep {
                        seen.push(*p);
                    }
                    keep
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_ir::builder::{counted_loop_mem, FunctionBuilder};
    use citroen_ir::inst::BinOp;
    use citroen_ir::module::GlobalInit;
    use citroen_ir::types::I64;

    #[test]
    fn ddmin_finds_minimal_pair() {
        let input: Vec<i32> = (0..20).collect();
        let out = ddmin(&input, |s| s.contains(&3) && s.contains(&17));
        assert_eq!(out, vec![3, 17]);
    }

    #[test]
    fn ddmin_single_culprit() {
        let input: Vec<i32> = (0..7).collect();
        let out = ddmin(&input, |s| s.contains(&5));
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn ddmin_keeps_order() {
        let input = vec![9, 1, 8, 2, 7, 3];
        let out = ddmin(&input, |s| {
            let a = s.iter().position(|&x| x == 8);
            let b = s.iter().position(|&x| x == 3);
            matches!((a, b), (Some(i), Some(j)) if i < j)
        });
        assert_eq!(out, vec![8, 3]);
    }

    #[test]
    fn module_reducer_shrinks_loop_to_store() {
        // A loop storing to @out; the interesting property is "some store to
        // @out remains". The reducer should strip the loop entirely.
        let mut m = Module::new("m");
        let g = m.add_global("out", GlobalInit::Zero(2048), true);
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let n = b.param(0);
        counted_loop_mem(&mut b, n, |b, iv| {
            let x = b.bin(BinOp::Mul, I64, iv, Operand::imm64(3));
            let masked = b.bin(BinOp::And, I64, x, Operand::imm64(255));
            let addr = b.gep(Operand::Global(g), masked, 8);
            b.store(I64, Operand::imm64(1), addr);
        });
        b.ret(Some(Operand::imm64(0)));
        m.add_func(b.finish());

        let has_store = |m: &Module| {
            m.funcs.iter().any(|f| {
                f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, Inst::Store { .. }))
            })
        };
        assert!(has_store(&m));
        let red = reduce_module(&m, has_store);
        assert!(verify_module(&red).is_empty());
        assert!(has_store(&red));
        let f = &red.funcs[0];
        assert!(
            f.blocks.len() <= 2,
            "loop should be gone, got {} blocks:\n{}",
            f.blocks.len(),
            citroen_ir::print::print_module(&red)
        );
        assert!(f.num_insts() <= 2, "only the store (and maybe its addr) should remain");
    }
}
