//! Vectorisation: `slp-vectorizer`, `loop-vectorize` and `loop-idiom`.
//!
//! The SLP vectoriser implements the paper's motivating pattern (Fig. 5.1):
//! a sum-reduction over isomorphic multiplies fed by consecutive loads becomes
//! vector loads + a vector multiply + a horizontal reduction — but only when
//! the widest lane type fits the machine vector (W × bits ≤ 128). That
//! profitability check is exactly what `instcombine`'s sign-extension widening
//! defeats when it runs between `mem2reg` and `slp-vectorizer`.

use crate::manager::Pass;
use crate::stats::Stats;
use crate::util::{addr_expr, dce_function, def_sites, replace_uses};
use citroen_ir::inst::{BinOp, CastKind, CmpOp, Inst, Operand, ValueId};
use citroen_ir::module::{Function, Module};
use citroen_ir::types::{ScalarTy, Ty};
use std::collections::{HashMap, HashSet};

/// Machine vector width assumed by profitability checks (bits). Matches the
/// 128-bit NEON/SSE class vectors of the paper's evaluation platforms.
pub const VECTOR_BITS: u32 = 128;
/// SLP group width.
const W: usize = 4;

// ---------------------------------------------------------------------------
// slp-vectorizer
// ---------------------------------------------------------------------------

/// The `slp-vectorizer` pass.
pub struct SlpVectorizer;

impl Pass for SlpVectorizer {
    fn name(&self) -> &'static str {
        "slp-vectorizer"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut emitted = 0u64;
            let mut chains = 0u64;
            for _ in 0..8 {
                let e = slp_reduce_once(f);
                if e == 0 {
                    break;
                }
                emitted += e;
                chains += 1;
                // The replaced scalar chain is dead but still present; clean
                // it up so the next round doesn't re-vectorise dead code.
                dce_function(f);
            }
            stats.inc("slp", "NumVectorInstructions", emitted);
            stats.inc("slp", "NumVectorized", chains);
        }
    }
}

/// One lane of a reduction chain: `mul(sext?(load a), sext?(load b))`,
/// `mul(load, load)`, or a bare (possibly sign-extended) load.
#[derive(Debug, Clone)]
struct Lane {
    /// Load of the first input (block inst index).
    a_load: usize,
    /// Element scalar type of the first input.
    a_elem: ScalarTy,
    /// Symbolic base (atoms key) + offset of the first input.
    a_base: String,
    a_off: i64,
    /// Second input, if the lane is a multiply.
    b: Option<(usize, ScalarTy, String, i64)>,
    /// The type multiplication/summation happens in (widest type in the tree).
    work: ScalarTy,
    /// Whether the loads are widened by sext before the multiply.
    sexted: bool,
    /// The lane's root value (term of the add chain).
    root: ValueId,
}

/// Try to vectorise one sum-reduction chain in some block; returns the number
/// of vector instructions emitted (0 = nothing found).
fn slp_reduce_once(f: &mut Function) -> u64 {
    let sites = def_sites(f);
    // Count uses (a chain element must have exactly one use: the next add).
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

    for bi in 0..f.blocks.len() {
        // Linearise add chains rooted in this block.
        let blk = &f.blocks[bi];
        let in_block: HashSet<ValueId> = blk.insts.iter().filter_map(|i| i.dst()).collect();
        for (ri, root_inst) in blk.insts.iter().enumerate() {
            let Inst::Bin { dst: root, op: BinOp::Add, .. } = root_inst else { continue };
            let ty = f.ty(*root);
            if ty.lanes != 1 || !ty.scalar.is_int() {
                continue;
            }
            // Root: an add not consumed by another same-type add in this block.
            let consumed_by_add = blk.insts.iter().any(|i| match i {
                Inst::Bin { op: BinOp::Add, lhs, rhs, dst } => {
                    f.ty(*dst).scalar == ty.scalar
                        && (lhs.as_value() == Some(*root) || rhs.as_value() == Some(*root))
                }
                _ => false,
            });
            if consumed_by_add {
                continue;
            }
            // Collect chain terms by walking left spine of single-use adds.
            let mut terms: Vec<Operand> = Vec::new();
            let mut stack = vec![Operand::Value(*root)];
            let mut chain_members: HashSet<ValueId> = HashSet::new();
            while let Some(op) = stack.pop() {
                let is_chain_add = op.as_value().filter(|v| in_block.contains(v)).and_then(|v| {
                    match crate::util::def_of(f, &sites, &Operand::Value(v)) {
                        Some(Inst::Bin { op: BinOp::Add, lhs, rhs, dst })
                            if f.ty(*dst).scalar == ty.scalar
                                && (*dst == *root || uses.get(dst) == Some(&1)) =>
                        {
                            Some((v, *lhs, *rhs))
                        }
                        _ => None,
                    }
                });
                match is_chain_add {
                    Some((v, l, r)) => {
                        chain_members.insert(v);
                        stack.push(l);
                        stack.push(r);
                    }
                    None => terms.push(op),
                }
            }
            if terms.len() < W {
                continue;
            }
            // Classify each term as a Lane if possible.
            let lanes: Vec<Option<Lane>> = terms
                .iter()
                .map(|t| classify_lane(f, &sites, &uses, &in_block, t, ty.scalar))
                .collect();
            // Greedily group W consecutive-memory lanes.
            let candidates: Vec<&Lane> = lanes.iter().flatten().collect();
            let Some(group) = find_group(&candidates) else { continue };
            // Profitability: W lanes of the work type must fit the machine.
            let work_bits = group[0].work.bits();
            if work_bits * W as u32 > VECTOR_BITS {
                continue; // e.g. 4×i64 after instcombine widening — rejected
            }
            // Safety: no store/call between the earliest involved load and root.
            let mut min_idx = ri;
            for l in &group {
                min_idx = min_idx.min(l.a_load);
                if let Some((bidx, ..)) = l.b {
                    min_idx = min_idx.min(bidx);
                }
            }
            let unsafe_between = f.blocks[bi].insts[min_idx..ri]
                .iter()
                .any(|i| matches!(i, Inst::Store { .. } | Inst::Call { .. }));
            if unsafe_between {
                continue;
            }

            // Emit the vector code before the root.
            let emitted = emit_reduction(f, bi, ri, *root, &group, &terms, ty.scalar);
            return emitted;
        }
    }
    0
}

fn classify_lane(
    f: &Function,
    sites: &HashMap<ValueId, (citroen_ir::inst::BlockId, usize)>,
    uses: &HashMap<ValueId, u32>,
    in_block: &HashSet<ValueId>,
    term: &Operand,
    sum_ty: ScalarTy,
) -> Option<Lane> {
    let v = term.as_value()?;
    if !in_block.contains(&v) || uses.get(&v) != Some(&1) {
        return None;
    }
    let inst = crate::util::def_of(f, sites, term)?;
    // Widening-reduction lane: `sext(mul)` — the multiply runs in a narrow
    // type and each product is sign-extended before summation. Hardware
    // supports this directly (widening multiply-accumulate), so the lane's
    // work type is the *multiply's* type; the reduce widens. This is the
    // exact Fig. 5.1 shape, and what instcombine's widening destroys.
    if let Inst::Cast { kind: CastKind::SExt, src, dst } = inst {
        if f.ty(*dst).scalar == sum_ty {
            if let Some(mv) = src.as_value() {
                if in_block.contains(&mv) && uses.get(&mv) == Some(&1) {
                    if let Some(Inst::Bin { op: BinOp::Mul, lhs, rhs, dst: mdst }) =
                        crate::util::def_of(f, sites, src)
                    {
                        let work = f.ty(*mdst).scalar;
                        let a = lane_input(f, sites, uses, in_block, lhs)?;
                        let b = lane_input(f, sites, uses, in_block, rhs)?;
                        if a.3 != b.3 {
                            return None;
                        }
                        return Some(Lane {
                            a_load: a.0,
                            a_elem: a.1,
                            a_base: a.2 .0.clone(),
                            a_off: a.2 .1,
                            b: Some((b.0, b.1, b.2 .0.clone(), b.2 .1)),
                            work,
                            sexted: a.3,
                            root: v,
                        });
                    }
                }
            }
        }
    }
    match inst {
        Inst::Bin { op: BinOp::Mul, lhs, rhs, dst } => {
            let work = f.ty(*dst).scalar;
            if work != sum_ty {
                return None;
            }
            let a = lane_input(f, sites, uses, in_block, lhs)?;
            let b = lane_input(f, sites, uses, in_block, rhs)?;
            if a.3 != b.3 {
                return None; // both sexted or both direct
            }
            Some(Lane {
                a_load: a.0,
                a_elem: a.1,
                a_base: a.2 .0.clone(),
                a_off: a.2 .1,
                b: Some((b.0, b.1, b.2 .0.clone(), b.2 .1)),
                work,
                sexted: a.3,
                root: v,
            })
        }
        _ => {
            let a = lane_input(f, sites, uses, in_block, term)?;
            if a.1 != sum_ty && !a.3 {
                return None;
            }
            Some(Lane {
                a_load: a.0,
                a_elem: a.1,
                a_base: a.2 .0.clone(),
                a_off: a.2 .1,
                b: None,
                work: sum_ty,
                sexted: a.3,
                root: v,
            })
        }
    }
}

/// An input to a lane: a load, optionally behind a single-use sext.
/// Returns (load inst index, element type, (base, offset), was_sexted).
fn lane_input(
    f: &Function,
    sites: &HashMap<ValueId, (citroen_ir::inst::BlockId, usize)>,
    uses: &HashMap<ValueId, u32>,
    in_block: &HashSet<ValueId>,
    op: &Operand,
) -> Option<(usize, ScalarTy, (String, i64), bool)> {
    let v = op.as_value()?;
    if !in_block.contains(&v) || uses.get(&v) != Some(&1) {
        return None;
    }
    match crate::util::def_of(f, sites, op)? {
        Inst::Load { dst, addr } => {
            let ty = f.ty(*dst);
            if ty.lanes != 1 || !ty.scalar.is_int() {
                return None;
            }
            let (_, idx) = sites.get(dst)?;
            let e = addr_expr(f, sites, addr);
            Some((*idx, ty.scalar, (e.atoms_key(), e.offset), false))
        }
        Inst::Cast { kind: CastKind::SExt, src, .. } => {
            let lv = src.as_value()?;
            if uses.get(&lv) != Some(&1) {
                return None;
            }
            match crate::util::def_of(f, sites, src)? {
                Inst::Load { dst, addr } => {
                    let ty = f.ty(*dst);
                    if ty.lanes != 1 || !ty.scalar.is_int() {
                        return None;
                    }
                    let (_, idx) = sites.get(dst)?;
                    let e = addr_expr(f, sites, addr);
                    Some((*idx, ty.scalar, (e.atoms_key(), e.offset), true))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Find W lanes whose `a` (and `b`, if present) loads are consecutive.
fn find_group(cands: &[&Lane]) -> Option<Vec<Lane>> {
    if cands.len() < W {
        return None;
    }
    // Sort by a-offset within the same base; try windows of W.
    let mut sorted: Vec<&Lane> = cands.to_vec();
    sorted.sort_by(|x, y| (x.a_base.as_str(), x.a_off).cmp(&(y.a_base.as_str(), y.a_off)));
    for win in sorted.windows(W) {
        let a0 = win[0];
        let step = a0.a_elem.bytes() as i64;
        let shapes_match = win.iter().all(|l| {
            l.a_elem == a0.a_elem
                && l.work == a0.work
                && l.sexted == a0.sexted
                && l.b.is_some() == a0.b.is_some()
                && l.a_base == a0.a_base
        });
        if !shapes_match {
            continue;
        }
        let consecutive_a =
            win.iter().enumerate().all(|(i, l)| l.a_off == a0.a_off + step * i as i64);
        if !consecutive_a {
            continue;
        }
        if let Some((_, b_elem, ref b_base, b_off0)) = a0.b {
            let bstep = b_elem.bytes() as i64;
            let consecutive_b = win.iter().enumerate().all(|(i, l)| match &l.b {
                Some((_, be, bb, bo)) => {
                    *be == b_elem && bb == b_base && *bo == b_off0 + bstep * i as i64
                }
                None => false,
            });
            if !consecutive_b {
                continue;
            }
        }
        return Some(win.iter().map(|l| (*l).clone()).collect());
    }
    None
}

/// Emit vector loads (+casts) + mul + reduce before `root`; rebuild the add
/// chain over the remaining scalar terms plus the reduction result.
fn emit_reduction(
    f: &mut Function,
    bi: usize,
    root_idx: usize,
    root: ValueId,
    group: &[Lane],
    all_terms: &[Operand],
    sum_scalar: ScalarTy,
) -> u64 {
    let lane0 = &group[0];
    let elem = lane0.a_elem;
    let vload_ty = Ty::vector(elem, W as u8);
    let vwork_ty = Ty::vector(lane0.work, W as u8);
    let mut emitted = 0u64;
    let mut new_insts: Vec<Inst> = Vec::new();

    // Vector load of the a-side: address of lane with smallest offset. The
    // group's a-loads are consecutive starting at group[0] (find_group sorts).
    let a_addr = load_addr(f, bi, lane0.a_load);
    let va = f.new_value(vload_ty);
    new_insts.push(Inst::Load { dst: va, addr: a_addr });
    emitted += 1;
    let mut a_val = Operand::Value(va);
    if lane0.sexted {
        let vca = f.new_value(vwork_ty);
        new_insts.push(Inst::Cast { dst: vca, kind: CastKind::SExt, src: a_val });
        a_val = Operand::Value(vca);
        emitted += 1;
    }
    let reduced_input = if let Some((b_idx0, b_elem, ..)) = lane0.b {
        let b_addr = load_addr(f, bi, b_idx0);
        let vb = f.new_value(Ty::vector(b_elem, W as u8));
        new_insts.push(Inst::Load { dst: vb, addr: b_addr });
        emitted += 1;
        let mut b_val = Operand::Value(vb);
        if lane0.sexted {
            let vcb = f.new_value(vwork_ty);
            new_insts.push(Inst::Cast { dst: vcb, kind: CastKind::SExt, src: b_val });
            b_val = Operand::Value(vcb);
            emitted += 1;
        }
        let vm = f.new_value(vwork_ty);
        new_insts.push(Inst::Bin { dst: vm, op: BinOp::Mul, lhs: a_val, rhs: b_val });
        emitted += 1;
        Operand::Value(vm)
    } else {
        a_val
    };
    let red = f.new_value(Ty::scalar(sum_scalar));
    new_insts.push(Inst::Reduce { dst: red, op: BinOp::Add, src: reduced_input });
    emitted += 1;

    // Rebuild the chain: remaining terms + reduction.
    let grouped: HashSet<ValueId> = group.iter().map(|l| l.root).collect();
    let mut operands: Vec<Operand> = all_terms
        .iter()
        .filter(|t| match t.as_value() {
            Some(v) => !grouped.contains(&v),
            None => true,
        })
        .copied()
        .collect();
    operands.push(Operand::Value(red));
    // Left-fold into a fresh chain; the final value replaces `root`.
    let mut acc = operands[0];
    for t in &operands[1..] {
        let nv = f.new_value(Ty::scalar(sum_scalar));
        new_insts.push(Inst::Bin { dst: nv, op: BinOp::Add, lhs: acc, rhs: *t });
        acc = nv.into_operand();
    }
    // Insert before root; then retarget root's uses and let DCE collect the
    // scalar chain.
    let insert_at = root_idx;
    let blk = &mut f.blocks[bi];
    for (k, inst) in new_insts.into_iter().enumerate() {
        blk.insts.insert(insert_at + k, inst);
    }
    replace_uses(f, root, acc);
    emitted
}

trait IntoOperand {
    fn into_operand(self) -> Operand;
}
impl IntoOperand for ValueId {
    fn into_operand(self) -> Operand {
        Operand::Value(self)
    }
}

fn load_addr(f: &Function, bi: usize, load_idx: usize) -> Operand {
    match &f.blocks[bi].insts[load_idx] {
        Inst::Load { addr, .. } => *addr,
        _ => panic!("lane index does not point at a load"),
    }
}

// ---------------------------------------------------------------------------
// loop-vectorize & loop-idiom
// ---------------------------------------------------------------------------

/// The `loop-vectorize` pass: vectorise map-style self-loops with unit-stride
/// memory accesses and constant trip counts divisible by the vector width.
pub struct LoopVectorize;

impl Pass for LoopVectorize {
    fn name(&self) -> &'static str {
        "loop-vectorize"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for _ in 0..4 {
                if !vectorize_one_loop(f, false) {
                    break;
                }
                n += 1;
            }
            stats.inc("loop-vectorize", "NumVectorized", n);
        }
    }
}

/// The `loop-idiom` pass: recognise memset-style loops (store of an invariant
/// value with unit stride) and widen them — the degenerate no-load case of
/// loop vectorisation.
pub struct LoopIdiom;

impl Pass for LoopIdiom {
    fn name(&self) -> &'static str {
        "loop-idiom"
    }
    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            let mut n = 0u64;
            for _ in 0..4 {
                if !vectorize_one_loop(f, true) {
                    break;
                }
                n += 1;
            }
            stats.inc("loop-idiom", "NumIdiom", n);
        }
    }
}

/// Everything the transform needs from the (read-only) screening walk: the
/// loop header, the IV increment to restep, and the vectorisable data graph.
struct VecPlan {
    h: citroen_ir::inst::BlockId,
    iv_next: ValueId,
    data: HashSet<ValueId>,
}

/// Read-only mirror of `vectorize_one_loop`'s *complete* screen set — IV
/// shape, trip divisibility, single φ, per-instruction data-graph closure
/// with unit-stride addresses, store/load base disjointness, and the
/// vector-width profitability cut. Returns the plan for the first loop that
/// passes everything, so `plan_vectorize(f, io).is_some()` is exactly "the
/// pass would fire".
fn plan_vectorize(f: &Function, idiom_only: bool) -> Option<VecPlan> {
    use super::loops::{analyze_iv, const_trip_count, find_self_loops};
    let wf = W as u64;
    for sl in find_self_loops(f) {
        let Some(iv) = analyze_iv(f, &sl) else { continue };
        if iv.step != 1 || !iv.true_continues || iv.cmp_op != CmpOp::Slt || !iv.cmp_on_next {
            continue;
        }
        let Some(trip) = const_trip_count(&iv, 1 << 20) else { continue };
        if trip % wf != 0 || trip < wf {
            continue;
        }
        let h = sl.header;
        let sites = def_sites(f);
        let in_loop: HashSet<ValueId> =
            f.blocks[h.idx()].insts.iter().filter_map(|i| i.dst()).collect();

        // Only the IV φ is allowed (map loops carry no other state).
        let phis = f.blocks[h.idx()].insts.iter().filter(|i| i.is_phi()).count();
        if phis != 1 {
            continue;
        }
        // Classify instructions: address/iv scalar backbone vs data graph.
        // Data values flow load → pure ops → store.
        let mut load_elems: Vec<ScalarTy> = Vec::new();
        let mut data: HashSet<ValueId> = HashSet::new();
        let mut store_bases: Vec<String> = Vec::new();
        let mut load_bases: Vec<String> = Vec::new();
        let mut ok = true;
        let mut has_store = false;
        for inst in &f.blocks[h.idx()].insts {
            match inst {
                Inst::Load { dst, addr } => {
                    let ty = f.ty(*dst);
                    if idiom_only || ty.lanes != 1 {
                        ok = false;
                        break;
                    }
                    match stride_of(f, &sites, addr, iv.phi, &in_loop) {
                        Some((s, base)) if s == ty.scalar.bytes() as i64 => {
                            load_bases.push(base);
                        }
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                    data.insert(*dst);
                    load_elems.push(ty.scalar);
                }
                Inst::Store { ty, val, addr } => {
                    has_store = true;
                    if ty.lanes != 1 {
                        ok = false;
                        break;
                    }
                    match stride_of(f, &sites, addr, iv.phi, &in_loop) {
                        Some((s, base)) if s == ty.scalar.bytes() as i64 => {
                            store_bases.push(base);
                        }
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                    // Stored value must be data-graph or invariant.
                    if let Some(v) = val.as_value() {
                        if in_loop.contains(&v) && !data.contains(&v) {
                            ok = false;
                            break;
                        }
                    }
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    let uses_data = [lhs, rhs]
                        .iter()
                        .any(|o| o.as_value().map(|v| data.contains(&v)).unwrap_or(false));
                    if uses_data {
                        // All value operands must be data or invariant.
                        let mut good = true;
                        for o in [lhs, rhs] {
                            if let Some(v) = o.as_value() {
                                if in_loop.contains(&v) && !data.contains(&v) {
                                    good = false;
                                }
                            }
                        }
                        if !good {
                            ok = false;
                            break;
                        }
                        data.insert(*dst);
                    }
                }
                Inst::Cast { dst, src, .. } => {
                    if let Some(v) = src.as_value() {
                        if data.contains(&v) {
                            data.insert(*dst);
                        }
                    }
                }
                Inst::Cmp { .. } | Inst::Phi { .. } => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || !has_store {
            continue;
        }
        if idiom_only && !load_elems.is_empty() {
            continue;
        }
        // Alias safety: every load base must differ from every store base,
        // and stores must be pairwise disjoint (vector stores widen each
        // access, so nearby scalar stores would interleave differently).
        if load_bases.iter().any(|l| store_bases.iter().any(|s| l == s || overlapping(l, s))) {
            continue;
        }
        let mut stores_disjoint = true;
        for i in 0..store_bases.len() {
            for j in i + 1..store_bases.len() {
                if overlapping(&store_bases[i], &store_bases[j]) {
                    stores_disjoint = false;
                }
            }
        }
        if !stores_disjoint {
            continue;
        }
        // Profitability: widest data lane × W must fit the machine vector.
        let mut widest = 0u32;
        for inst in &f.blocks[h.idx()].insts {
            if let Some(d) = inst.dst() {
                if data.contains(&d) {
                    widest = widest.max(f.ty(d).scalar.bits());
                }
            }
            if let Inst::Store { ty, .. } = inst {
                widest = widest.max(ty.scalar.bits());
            }
        }
        if widest * W as u32 > VECTOR_BITS {
            continue;
        }
        return Some(VecPlan { h, iv_next: iv.next, data });
    }
    None
}

/// A unit-stride address inside a loop: `invariant-terms + iv * scale + off`.
fn stride_of(
    f: &Function,
    sites: &HashMap<ValueId, (citroen_ir::inst::BlockId, usize)>,
    op: &Operand,
    iv: ValueId,
    in_loop: &HashSet<ValueId>,
) -> Option<(i64, String)> {
    // Walk the add tree collecting terms.
    let mut terms: Vec<Operand> = Vec::new();
    let mut stack = vec![*op];
    let mut depth = 0;
    while let Some(t) = stack.pop() {
        depth += 1;
        if depth > 32 {
            return None;
        }
        match crate::util::def_of(f, sites, &t) {
            Some(Inst::Bin { op: BinOp::Add, lhs, rhs, .. })
                if t.as_value().map(|v| in_loop.contains(&v)).unwrap_or(false) =>
            {
                stack.push(*lhs);
                stack.push(*rhs);
            }
            _ => terms.push(t),
        }
    }
    let mut scale: Option<i64> = None;
    let mut base_desc = String::new();
    let mut konst = 0i64;
    for t in terms {
        if let Some(c) = t.as_const_int() {
            konst += c;
            continue;
        }
        if t.as_value() == Some(iv) {
            if scale.replace(1).is_some() {
                return None;
            }
            continue;
        }
        // iv * c or iv << k?
        let scaled = match crate::util::def_of(f, sites, &t) {
            Some(Inst::Bin { op: BinOp::Mul, lhs, rhs, .. }) => {
                match (lhs.as_value(), rhs.as_const_int()) {
                    (Some(l), Some(c)) if l == iv => Some(c),
                    _ => None,
                }
            }
            Some(Inst::Bin { op: BinOp::Shl, lhs, rhs, .. }) => {
                match (lhs.as_value(), rhs.as_const_int()) {
                    (Some(l), Some(k)) if l == iv && (0..32).contains(&k) => Some(1 << k),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(c) = scaled {
            if scale.replace(c).is_some() {
                return None;
            }
            continue;
        }
        // Otherwise the term must be loop-invariant.
        if let Some(v) = t.as_value() {
            if in_loop.contains(&v) {
                return None;
            }
        }
        base_desc.push_str(&format!("{t:?};"));
    }
    scale.map(|s| (s, format!("{base_desc}+{konst}")))
}

fn vectorize_one_loop(f: &mut Function, idiom_only: bool) -> bool {
    let wf = W as u64;
    let Some(VecPlan { h, iv_next, data }) = plan_vectorize(f, idiom_only) else {
        return false;
    };
    // Transform: data values become vectors; loads/stores widen; the IV
    // steps by W; invariant operands of data ops are splatted.
    let insts: Vec<Inst> = f.blocks[h.idx()].insts.clone();
    let mut out: Vec<Inst> = Vec::new();
    let mut vec_of: HashMap<ValueId, ValueId> = HashMap::new();
    let mut splat_cache: HashMap<String, ValueId> = HashMap::new();
    for inst in &insts {
        match inst {
            Inst::Phi { .. } => out.push(inst.clone()),
            Inst::Load { dst, addr } if data.contains(dst) => {
                let ty = f.ty(*dst);
                let vd = f.new_value(Ty::vector(ty.scalar, W as u8));
                vec_of.insert(*dst, vd);
                out.push(Inst::Load { dst: vd, addr: *addr });
            }
            Inst::Store { ty, val, addr } => {
                let vty = Ty::vector(ty.scalar, W as u8);
                let vval = vector_operand(
                    f,
                    &mut out,
                    &mut splat_cache,
                    &vec_of,
                    val,
                    vty,
                );
                out.push(Inst::Store { ty: vty, val: vval, addr: *addr });
            }
            Inst::Bin { dst, op, lhs, rhs } if data.contains(dst) => {
                let ty = f.ty(*dst);
                let vty = Ty::vector(ty.scalar, W as u8);
                let vl = vector_operand(f, &mut out, &mut splat_cache, &vec_of, lhs, vty);
                let vr = vector_operand(f, &mut out, &mut splat_cache, &vec_of, rhs, vty);
                let vd = f.new_value(vty);
                vec_of.insert(*dst, vd);
                out.push(Inst::Bin { dst: vd, op: *op, lhs: vl, rhs: vr });
            }
            Inst::Cast { dst, kind, src } if data.contains(dst) => {
                let ty = f.ty(*dst);
                let vty = Ty::vector(ty.scalar, W as u8);
                let src_ty = f.operand_ty(src);
                let vsrc =
                    vector_operand(f, &mut out, &mut splat_cache, &vec_of,
                                   src, Ty::vector(src_ty.scalar, W as u8));
                let vd = f.new_value(vty);
                vec_of.insert(*dst, vd);
                out.push(Inst::Cast { dst: vd, kind: *kind, src: vsrc });
            }
            Inst::Bin { dst, op, lhs, rhs: _ } => {
                // Scalar backbone: the IV increment changes step 1 -> W.
                if *dst == iv_next {
                    out.push(Inst::Bin {
                        dst: *dst,
                        op: *op,
                        lhs: *lhs,
                        rhs: Operand::ImmI(wf as i64, f.ty(*dst).scalar),
                    });
                } else {
                    out.push(inst.clone());
                }
            }
            other => out.push(other.clone()),
        }
    }
    f.blocks[h.idx()].insts = out;
    dce_function(f);
    true
}

/// Conservative textual-base overlap check (same symbolic base description).
fn overlapping(a: &str, b: &str) -> bool {
    // Same invariant terms with offsets within one vector width apart would
    // overlap; textual equality already covers the same-array case, and
    // different globals produce different descriptions. Differing constants
    // on the same base are treated as overlapping to stay safe.
    let base = |s: &str| s.rsplit_once('+').map(|(b, _)| b.to_string()).unwrap_or_default();
    base(a) == base(b)
}

fn vector_operand(
    f: &mut Function,
    out: &mut Vec<Inst>,
    splat_cache: &mut HashMap<String, ValueId>,
    vec_of: &HashMap<ValueId, ValueId>,
    op: &Operand,
    vty: Ty,
) -> Operand {
    if let Some(v) = op.as_value() {
        if let Some(vv) = vec_of.get(&v) {
            return Operand::Value(*vv);
        }
    }
    // Invariant or constant: splat it (cached per operand+type).
    let key = format!("{op:?}@{vty}");
    if let Some(v) = splat_cache.get(&key) {
        return Operand::Value(*v);
    }
    let sv = f.new_value(vty);
    out.push(Inst::Splat { dst: sv, src: *op });
    splat_cache.insert(key, sv);
    Operand::Value(sv)
}
