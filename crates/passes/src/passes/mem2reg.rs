//! `mem2reg` — promote memory slots to SSA registers — and `sroa` — scalar
//! replacement of aggregates. These are the gatekeeper passes of the paper's
//! motivating example (Fig. 5.1): SLP vectorisation can only see values that
//! live in registers, so `mem2reg` must run before `slp-vectorizer`.

use crate::manager::Pass;
use crate::stats::Stats;
use crate::util::{addr_expr, def_sites, remove_unreachable_blocks, replace_uses};
use citroen_ir::analysis::{Cfg, DomTree};
use citroen_ir::inst::{BlockId, Inst, Operand, ValueId};
use citroen_ir::module::{Function, Module};
use citroen_ir::types::{ScalarTy, Ty};
use std::collections::{HashMap, HashSet};

/// The `mem2reg` pass.
pub struct Mem2Reg;

impl Pass for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            promote_function(f, stats);
        }
    }
}

struct Promotable {
    alloca: ValueId,
    ty: Ty,
    def_blocks: Vec<BlockId>,
}

/// Find allocas whose address is used *only* directly as the pointer operand
/// of scalar loads/stores of one consistent type.
fn find_promotable(f: &Function) -> Vec<Promotable> {
    // usage[v] = (ok_so_far, access type, def blocks)
    let mut cands: HashMap<ValueId, (Option<Ty>, Vec<BlockId>, u32)> = HashMap::new();
    for blk in &f.blocks {
        for inst in &blk.insts {
            if let Inst::Alloca { dst, bytes } = inst {
                cands.insert(*dst, (None, Vec::new(), *bytes));
            }
        }
    }
    if cands.is_empty() {
        return Vec::new();
    }
    let mut disqualified: HashSet<ValueId> = HashSet::new();
    let observe = |cands: &mut HashMap<ValueId, (Option<Ty>, Vec<BlockId>, u32)>,
                       disq: &mut HashSet<ValueId>,
                       v: ValueId,
                       access: Option<(Ty, Option<BlockId>)>| {
        if let Some((ty_slot, defs, bytes)) = cands.get_mut(&v) {
            match access {
                None => {
                    disq.insert(v);
                }
                Some((ty, store_block)) => {
                    if ty.is_vector() || ty.bytes() > *bytes {
                        disq.insert(v);
                        return;
                    }
                    match ty_slot {
                        None => *ty_slot = Some(ty),
                        Some(t) if *t != ty => {
                            disq.insert(v);
                            return;
                        }
                        _ => {}
                    }
                    if let Some(b) = store_block {
                        defs.push(b);
                    }
                }
            }
        }
    };

    for (b, blk) in f.iter_blocks() {
        for inst in &blk.insts {
            match inst {
                Inst::Load { dst, addr } => {
                    if let Some(v) = addr.as_value() {
                        observe(&mut cands, &mut disqualified, v, Some((f.ty(*dst), None)));
                    }
                }
                Inst::Store { ty, val, addr } => {
                    // The address may be stored as a value — that's an escape.
                    if let Some(v) = val.as_value() {
                        observe(&mut cands, &mut disqualified, v, None);
                    }
                    if let Some(v) = addr.as_value() {
                        observe(&mut cands, &mut disqualified, v, Some((*ty, Some(b))));
                    }
                }
                other => {
                    other.for_each_operand(|op| {
                        if let Some(v) = op.as_value() {
                            observe(&mut cands, &mut disqualified, v, None);
                        }
                    });
                }
            }
        }
        blk.term.for_each_operand(|op| {
            if let Some(v) = op.as_value() {
                observe(&mut cands, &mut disqualified, v, None);
            }
        });
    }
    let mut out: Vec<Promotable> = cands
        .into_iter()
        .filter(|(v, _)| !disqualified.contains(v))
        .filter_map(|(v, (ty, defs, _))| {
            // Allocas never accessed: droppable by DCE; don't bother here.
            ty.map(|ty| Promotable { alloca: v, ty, def_blocks: defs })
        })
        .collect();
    out.sort_by_key(|p| p.alloca);
    out
}

fn promote_function(f: &mut Function, stats: &mut Stats) {
    // φ placement requires every pred of a reachable block to be visited.
    remove_unreachable_blocks(f);
    let promotable = find_promotable(f);
    if promotable.is_empty() {
        return;
    }
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);

    // Insert φs at the iterated dominance frontier of each alloca's stores.
    // phi_of[(block, cand_idx)] -> φ value.
    let mut phi_of: HashMap<(BlockId, usize), ValueId> = HashMap::new();
    let mut num_phis = 0u64;
    for (ci, cand) in promotable.iter().enumerate() {
        let mut work: Vec<BlockId> = cand.def_blocks.clone();
        let mut placed: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &df in &dom.frontier[b.idx()] {
                if placed.insert(df) {
                    let v = f.new_value(cand.ty);
                    // Placeholder φ; incomings filled during renaming.
                    f.blocks[df.idx()]
                        .insts
                        .insert(0, Inst::Phi { dst: v, incoming: Vec::new() });
                    phi_of.insert((df, ci), v);
                    num_phis += 1;
                    work.push(df);
                }
            }
        }
    }

    // Renaming walk over the dominator tree.
    let idx_of: HashMap<ValueId, usize> =
        promotable.iter().enumerate().map(|(i, p)| (p.alloca, i)).collect();
    let zero_of = |ty: Ty| -> Operand {
        if ty.scalar == ScalarTy::F64 {
            Operand::ImmF(0.0)
        } else {
            Operand::ImmI(0, ty.scalar)
        }
    };
    // Allocas are zero-initialised by the interpreter, so the incoming value
    // at the entry is a typed zero, keeping load-before-store semantics exact.
    let mut stacks: Vec<Vec<Operand>> =
        promotable.iter().map(|p| vec![zero_of(p.ty)]).collect();

    // Collected rewrites: load value -> replacement operand.
    let mut load_subst: Vec<(ValueId, Operand)> = Vec::new();
    // (block, inst-index) of loads/stores/allocas to delete.
    let mut to_delete: HashSet<(u32, usize)> = HashSet::new();
    // φ incoming fills: (block, φ value, pred, operand).
    let mut phi_fill: Vec<(BlockId, ValueId, BlockId, Operand)> = Vec::new();

    // Iterative DFS preorder with explicit push/pop of value stacks.
    enum Action {
        Visit(BlockId),
        Pop(Vec<usize>), // candidate indices whose stacks to pop once
    }
    let mut agenda = vec![Action::Visit(BlockId(0))];
    while let Some(action) = agenda.pop() {
        match action {
            Action::Pop(cis) => {
                for ci in cis {
                    stacks[ci].pop();
                }
            }
            Action::Visit(b) => {
                let mut pushed: Vec<usize> = Vec::new();
                // φs inserted for candidates define new current values first.
                for (key, v) in phi_of.iter() {
                    if key.0 == b {
                        stacks[key.1].push(Operand::Value(*v));
                        pushed.push(key.1);
                    }
                }
                for (i, inst) in f.blocks[b.idx()].insts.iter().enumerate() {
                    match inst {
                        Inst::Alloca { dst, .. } if idx_of.contains_key(dst) => {
                            to_delete.insert((b.0, i));
                        }
                        Inst::Load { dst, addr } => {
                            if let Some(ci) =
                                addr.as_value().and_then(|v| idx_of.get(&v)).copied()
                            {
                                let cur = *stacks[ci].last().unwrap();
                                load_subst.push((*dst, cur));
                                to_delete.insert((b.0, i));
                            }
                        }
                        Inst::Store { val, addr, .. } => {
                            if let Some(ci) =
                                addr.as_value().and_then(|v| idx_of.get(&v)).copied()
                            {
                                stacks[ci].push(*val);
                                pushed.push(ci);
                                to_delete.insert((b.0, i));
                            }
                        }
                        _ => {}
                    }
                }
                // Fill φ incomings of successors for this edge.
                for s in f.blocks[b.idx()].term.successors() {
                    for (key, v) in phi_of.iter() {
                        if key.0 == s {
                            let cur = *stacks[key.1].last().unwrap();
                            phi_fill.push((s, *v, b, cur));
                        }
                    }
                }
                // Schedule stack pops after the subtree, then visit dom children.
                agenda.push(Action::Pop(pushed));
                for &c in &dom.children[b.idx()] {
                    agenda.push(Action::Visit(c));
                }
            }
        }
    }

    // Apply φ fills. A load replaced by another promoted load's value chains
    // through load_subst, so resolve substitutions transitively first.
    let subst_map: HashMap<ValueId, Operand> = load_subst.iter().cloned().collect();
    let resolve = |mut op: Operand| -> Operand {
        for _ in 0..subst_map.len() + 1 {
            match op {
                Operand::Value(v) => match subst_map.get(&v) {
                    Some(next) => op = *next,
                    None => break,
                },
                _ => break,
            }
        }
        op
    };
    for (blk, phi, pred, op) in phi_fill {
        let op = resolve(op);
        for inst in &mut f.blocks[blk.idx()].insts {
            if let Inst::Phi { dst, incoming } = inst {
                if *dst == phi {
                    incoming.push((pred, op));
                    break;
                }
            }
        }
    }
    // Rewrite load uses.
    for (from, _) in &load_subst {
        let to = resolve(Operand::Value(*from));
        replace_uses(f, *from, to);
    }
    // φ operands that referenced promoted loads also need resolution (handled
    // above because replace_uses rewrites φ operands too).

    // Delete the promoted loads/stores/allocas (descending index per block).
    let mut by_block: HashMap<u32, Vec<usize>> = HashMap::new();
    for (b, i) in to_delete {
        by_block.entry(b).or_default().push(i);
    }
    for (b, mut idxs) in by_block {
        idxs.sort_unstable_by(|a, c| c.cmp(a));
        for i in idxs {
            f.blocks[b as usize].insts.remove(i);
        }
    }
    // φs whose incomings are all identical (or single-pred) simplify away.
    crate::util::simplify_single_incoming_phis(f);

    stats.inc("mem2reg", "NumPromoted", promotable.len() as u64);
    stats.inc("mem2reg", "NumPHIInsert", num_phis);
}

/// The `sroa` pass: split allocas accessed at constant offsets into scalar
/// allocas, so `mem2reg` can promote them.
pub struct Sroa;

impl Pass for Sroa {
    fn name(&self) -> &'static str {
        "sroa"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            sroa_function(f, stats);
        }
        // SROA's job in LLVM includes promotion; keep ours minimal (split
        // only) — the split slots are then promoted by a later mem2reg.
    }
}

fn sroa_function(f: &mut Function, stats: &mut Stats) {
    let sites = def_sites(f);
    // Find allocas > 8 bytes whose every use is an address chain ending in a
    // scalar access at a constant offset.
    let mut alloca_list: Vec<(ValueId, u32)> = Vec::new();
    for blk in &f.blocks {
        for inst in &blk.insts {
            if let Inst::Alloca { dst, bytes } = inst {
                if *bytes > 8 {
                    alloca_list.push((*dst, *bytes));
                }
            }
        }
    }
    if alloca_list.is_empty() {
        return;
    }

    // Collect accesses by walking loads/stores and decomposing addresses.
    // accesses[alloca] -> Vec<(offset, ty)>
    let mut accesses: HashMap<ValueId, Vec<(i64, Ty)>> = HashMap::new();
    let mut bad: HashSet<ValueId> = HashSet::new();
    let allocas: HashSet<ValueId> = alloca_list.iter().map(|(v, _)| *v).collect();

    for blk in &f.blocks {
        for inst in &blk.insts {
            match inst {
                Inst::Load { dst, addr } => {
                    let e = addr_expr(f, &sites, addr);
                    if let Some(v) = e.single_base().and_then(|b| b.as_value()) {
                        if allocas.contains(&v) {
                            accesses.entry(v).or_default().push((e.offset, f.ty(*dst)));
                        }
                    }
                }
                Inst::Store { ty, val, addr } => {
                    let e = addr_expr(f, &sites, addr);
                    if let Some(v) = e.single_base().and_then(|b| b.as_value()) {
                        if allocas.contains(&v) {
                            accesses.entry(v).or_default().push((e.offset, *ty));
                        }
                    }
                    // Storing a derived pointer escapes the alloca.
                    let ev = addr_expr(f, &sites, val);
                    if let Some(v) = ev.single_base().and_then(|b| b.as_value()) {
                        if allocas.contains(&v) {
                            bad.insert(v);
                        }
                    }
                }
                other => {
                    // Any other use of the alloca or a derived pointer is only
                    // acceptable if it is the `add` forming an access chain —
                    // approximated by allowing adds with const and rejecting
                    // everything else that isn't consumed as an address.
                    if !matches!(other, Inst::Bin { op: citroen_ir::inst::BinOp::Add, .. }
                        | Inst::Bin { op: citroen_ir::inst::BinOp::Sub, .. })
                    {
                        other.for_each_operand(|op| {
                            let e = addr_expr(f, &sites, op);
                            if let Some(v) = e.single_base().and_then(|b| b.as_value()) {
                                if allocas.contains(&v) {
                                    bad.insert(v);
                                }
                            }
                        });
                    }
                }
            }
        }
        blk.term.for_each_operand(|op| {
            let e = addr_expr(f, &sites, op);
            if let Some(v) = e.single_base().and_then(|b| b.as_value()) {
                if allocas.contains(&v) {
                    bad.insert(v);
                }
            }
        });
    }

    let mut split = 0u64;
    for (alloca, bytes) in alloca_list {
        if bad.contains(&alloca) {
            continue;
        }
        let Some(accs) = accesses.get(&alloca) else { continue };
        // Group by offset; require type consistency and disjoint ranges.
        let mut slots: HashMap<i64, Ty> = HashMap::new();
        let mut ok = true;
        for (off, ty) in accs {
            if ty.is_vector() || *off < 0 || *off + ty.bytes() as i64 > bytes as i64 {
                ok = false;
                break;
            }
            match slots.get(off) {
                None => {
                    slots.insert(*off, *ty);
                }
                Some(t) if t != ty => {
                    ok = false;
                    break;
                }
                _ => {}
            }
        }
        if !ok || slots.is_empty() {
            continue;
        }
        let mut ranges: Vec<(i64, i64)> =
            slots.iter().map(|(o, t)| (*o, *o + t.bytes() as i64)).collect();
        ranges.sort_unstable();
        if ranges.windows(2).any(|w| w[0].1 > w[1].0) {
            continue; // overlapping accesses — leave to the conservative path
        }

        // Create one alloca per slot (inserted right after the original).
        let Some(&(ab, ai)) = sites.get(&alloca) else { continue };
        let mut offsets: Vec<i64> = slots.keys().copied().collect();
        offsets.sort_unstable();
        let mut slot_value: HashMap<i64, ValueId> = HashMap::new();
        for (k, off) in offsets.iter().enumerate() {
            let ty = slots[off];
            let v = f.new_value(citroen_ir::types::I64);
            f.blocks[ab.idx()]
                .insts
                .insert(ai + 1 + k, Inst::Alloca { dst: v, bytes: ty.bytes() });
            slot_value.insert(*off, v);
        }
        // Rewrite each access's address operand to the matching slot value.
        // Phase 1 (immutable): find (block, inst) accesses of this alloca and
        // their offsets. Phase 2 (mutable): patch the address operands.
        let sites2 = def_sites(f);
        let mut patches: Vec<(usize, usize, ValueId)> = Vec::new();
        for (bi, blk) in f.blocks.iter().enumerate() {
            for (ii, inst) in blk.insts.iter().enumerate() {
                if let Inst::Load { addr, .. } | Inst::Store { addr, .. } = inst {
                    let e = addr_expr(f, &sites2, addr);
                    if e.single_base().and_then(|b| b.as_value()) == Some(alloca) {
                        if let Some(nv) = slot_value.get(&e.offset) {
                            patches.push((bi, ii, *nv));
                        }
                    }
                }
            }
        }
        for (bi, ii, nv) in patches {
            match &mut f.blocks[bi].insts[ii] {
                Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                    *addr = Operand::Value(nv);
                }
                _ => unreachable!(),
            }
        }
        split += 1;
        stats.inc("sroa", "NumSlots", slots.len() as u64);
    }
    if split > 0 {
        // The original allocas and their address arithmetic are now dead.
        crate::util::dce_function(f);
    }
    stats.inc("sroa", "NumReplaced", split);
}
