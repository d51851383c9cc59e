//! Per-value dataflow fingerprints and the cross-pass value correspondence map.
//!
//! Every SSA value gets a 64-bit *dataflow fingerprint*: a stable hash of its
//! defining opcode, its static immediates, and the fingerprints of its
//! operands, iterated to a fixpoint so φ-cycles refine like
//! Weisfeiler–Lehman colourings. Two values with equal fingerprints have (up
//! to hash collision) the same pure dataflow slice — the same expression over
//! the same parameters, constants, globals and memory operations — so a
//! correct pass that keeps both computes the same concrete values through
//! them on every run.
//!
//! [`correspond`] matches values *across* a pass boundary: a pre-pass value
//! pairs with a post-pass value iff their fingerprint is unique among the
//! reachable values of each side. Unique-unique matching is deliberately
//! partial — ambiguity (two identical adds) yields no pair rather than a
//! guess — which is what makes the sanitizer's per-value contradiction
//! checks (S6–S8 in [`crate::sanitize`]) sound: every reported pair really
//! is the same computation before and after.
//!
//! Fingerprints normalise what passes legally permute: commutative binary
//! operands and `eq`/`ne` comparisons hash order-insensitively, `sgt`/`sge`
//! canonicalise to their swapped `slt`/`sle` form, and φ-incomings hash as a
//! multiset without their predecessor block ids (block renumbering must not
//! break matching). Refinement runs a bounded number of sweeps; acyclic
//! slices converge to round-independent hashes, and cyclic slices get the
//! full [`ROUNDS`]-sweep view on both sides of a pass, so fingerprints stay
//! comparable either way.

use crate::intervals::{FunctionIntervals, Interval};
use crate::memeffects::{classify_addr, Root};
use citroen_ir::analysis::{allocas, Cfg, DomTree};
use citroen_ir::inst::{BlockId, CmpOp, Inst, Operand, ValueId};
use citroen_ir::module::{Function, Module};
use citroen_ir::print::Fnv64;
use citroen_ir::types::Ty;
use std::collections::HashMap;

/// Maximum fingerprint-refinement sweeps. Acyclic dataflow converges after
/// `depth` sweeps and further sweeps are no-ops, so early exit is equivalent
/// to running all of them; φ-cycles never converge and run the full budget on
/// both sides of a pass, keeping the hashes comparable.
pub const ROUNDS: u32 = 64;

/// One reachable store to a global, with its value-level localisation.
#[derive(Debug, Clone)]
pub struct GlobalStore {
    /// Global written.
    pub global: u32,
    /// Block the store sits in.
    pub block: u32,
    /// Stored SSA value id, if the operand is a value (immediates are `None`).
    pub val: Option<u32>,
    /// Fingerprint of the stored operand.
    pub fp: u64,
    /// Interval of the stored operand (⊤ for float/vector stores).
    pub interval: Interval,
}

/// Per-value facts of one function: fingerprints, reachability, intervals,
/// and the load/store classifications the per-value sanitizer rules consume.
#[derive(Debug, Clone)]
pub struct ValueFacts {
    /// Dataflow fingerprint per value (index = `ValueId`). Values defined in
    /// unreachable blocks keep fingerprint 0 and are never matched.
    pub fp: Vec<u64>,
    /// Whether the value is a parameter or defined in a CFG-reachable block.
    pub reachable: Vec<bool>,
    /// Interval per value (copied from the interval analysis).
    pub interval: Vec<Interval>,
    /// Loads that provably read an *uninitialised* (hence always-zero) stack
    /// slot: in-bounds load from an alloca with no store anywhere that could
    /// touch it, in a call-free function with no unattributable stores.
    pub zero_loads: Vec<u32>,
    /// Loads that provably read a *non-zero* value when executed: a
    /// whole-slot load dominated by a store, where every store to the slot
    /// writes an interval excluding zero (same call-free guards).
    pub nonzero_loads: Vec<u32>,
    /// Reachable stores to globals, for value-level must-store localisation.
    pub stores: Vec<GlobalStore>,
    /// The function contains call instructions (disables the single-store
    /// and uninitialised-slot reasoning above).
    pub has_calls: bool,
    /// Refinement sweeps actually run (for tests; `ROUNDS` means a φ-cycle
    /// kept the colouring churning to the cap).
    pub rounds: u32,
}

fn h2(tag: &str, a: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(tag.as_bytes());
    h.write_u64(a);
    h.finish()
}

fn ty_tag(t: Ty) -> u64 {
    (t.scalar.bytes() as u64) << 9 | (t.scalar.is_int() as u64) << 8 | t.lanes as u64
}

fn operand_fp(fp: &[u64], op: &Operand) -> u64 {
    match op {
        Operand::Value(v) => fp[v.idx()],
        Operand::ImmI(c, s) => {
            let mut h = Fnv64::new();
            h.write(b"imm");
            h.write(s.name().as_bytes());
            h.write_u64(s.sext(*c) as u64);
            h.finish()
        }
        Operand::ImmF(x) => h2("immf", x.to_bits()),
        Operand::Global(g) => h2("global", g.0 as u64),
    }
}

/// Hash an operand pair order-insensitively (for commutative operations).
fn unordered(h: &mut Fnv64, a: u64, b: u64) {
    h.write_u64(a.min(b));
    h.write_u64(a.max(b));
}

fn inst_fp(m: &Module, f: &Function, fp: &[u64], inst: &Inst) -> u64 {
    let mut h = Fnv64::new();
    if let Some(d) = inst.dst() {
        h.write_u64(ty_tag(f.ty(d)));
    }
    let ofp = |op: &Operand| operand_fp(fp, op);
    match inst {
        Inst::Bin { op, lhs, rhs, .. } => {
            h.write(b"bin");
            h.write(op.name().as_bytes());
            if op.commutative() {
                unordered(&mut h, ofp(lhs), ofp(rhs));
            } else {
                h.write_u64(ofp(lhs));
                h.write_u64(ofp(rhs));
            }
        }
        Inst::Cmp { op, lhs, rhs, .. } => {
            // `a sgt b` ⇔ `b slt a`: canonicalise to the swapped form so a
            // pass normalising predicates does not break matching.
            let (op, lhs, rhs) = match op {
                CmpOp::Sgt | CmpOp::Sge => (op.swapped(), rhs, lhs),
                _ => (*op, lhs, rhs),
            };
            h.write(b"cmp");
            h.write(op.name().as_bytes());
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                unordered(&mut h, ofp(lhs), ofp(rhs));
            } else {
                h.write_u64(ofp(lhs));
                h.write_u64(ofp(rhs));
            }
        }
        Inst::Cast { kind, src, .. } => {
            h.write(b"cast");
            h.write(kind.name().as_bytes());
            h.write_u64(ofp(src));
        }
        Inst::Alloca { bytes, .. } => {
            h.write(b"alloca");
            h.write_u64(*bytes as u64);
        }
        Inst::Load { dst, addr } => {
            h.write(b"load");
            h.write_u64(f.ty(*dst).bytes() as u64);
            h.write_u64(ofp(addr));
        }
        Inst::Store { .. } => {}
        Inst::Call { callee, args, .. } => {
            h.write(b"call");
            // Hash the callee by name: pass pipelines may delete dead
            // functions and renumber the rest.
            if let Some(cf) = m.funcs.get(callee.idx()) {
                h.write(cf.name.as_bytes());
            }
            for a in args {
                h.write_u64(ofp(a));
            }
        }
        Inst::Phi { incoming, .. } => {
            h.write(b"phi");
            h.write_u64(incoming.len() as u64);
            // Multiset of incoming value fingerprints; predecessor block ids
            // are deliberately excluded (renumbering must not break matches).
            let mut acc = 0u64;
            for (_, op) in incoming {
                acc = acc.wrapping_add(h2("inc", ofp(op)));
            }
            h.write_u64(acc);
        }
        Inst::Select { cond, t, f: fv, .. } => {
            h.write(b"select");
            h.write_u64(ofp(cond));
            h.write_u64(ofp(t));
            h.write_u64(ofp(fv));
        }
        Inst::Splat { src, .. } => {
            h.write(b"splat");
            h.write_u64(ofp(src));
        }
        Inst::ExtractLane { src, lane, .. } => {
            h.write(b"extractlane");
            h.write_u64(*lane as u64);
            h.write_u64(ofp(src));
        }
        Inst::Reduce { op, src, .. } => {
            h.write(b"reduce");
            h.write(op.name().as_bytes());
            h.write_u64(ofp(src));
        }
    }
    h.finish()
}

/// Compute the per-value facts of `f`, given its interval analysis results.
pub fn value_facts(m: &Module, f: &Function, fi: &FunctionIntervals) -> ValueFacts {
    let nv = f.value_ty.len();
    let mut fp = vec![0u64; nv];
    let mut reachable = vec![false; nv];
    for i in 0..f.params.len() {
        fp[i] = h2("param", i as u64);
        reachable[i] = true;
    }
    let interval: Vec<Interval> = (0..nv)
        .map(|i| fi.val.get(i).copied().unwrap_or_else(Interval::top))
        .collect();
    if f.blocks.is_empty() {
        return ValueFacts {
            fp,
            reachable,
            interval,
            zero_loads: Vec::new(),
            nonzero_loads: Vec::new(),
            stores: Vec::new(),
            has_calls: false,
            rounds: 0,
        };
    }
    let cfg = Cfg::compute(f);
    for &b in &cfg.rpo {
        for inst in &f.blocks[b.idx()].insts {
            if let Some(d) = inst.dst() {
                reachable[d.idx()] = true;
            }
        }
    }

    // Fixpoint refinement over the reachable defs in RPO.
    let mut rounds = 0;
    for round in 1..=ROUNDS {
        rounds = round;
        let mut changed = false;
        for &b in &cfg.rpo {
            for inst in &f.blocks[b.idx()].insts {
                let Some(d) = inst.dst() else { continue };
                let nf = inst_fp(m, f, &fp, inst);
                if nf != fp[d.idx()] {
                    fp[d.idx()] = nf;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let (zero_loads, nonzero_loads, stores, has_calls) = classify_memory(f, fi, &cfg, &fp);
    ValueFacts { fp, reachable, interval, zero_loads, nonzero_loads, stores, has_calls, rounds }
}

/// Walk the reachable instructions once, classifying every memory access, and
/// derive the always-zero / provably-non-zero load sets plus the global-store
/// localisation list.
/// A reachable store to an alloca: block, instruction index, size, offset
/// and stored range.
type SlotStore = (u32, usize, u32, Interval, Interval);

fn classify_memory(
    f: &Function,
    fi: &FunctionIntervals,
    cfg: &Cfg,
    fp: &[u64],
) -> (Vec<u32>, Vec<u32>, Vec<GlobalStore>, bool) {
    let slot_bytes: HashMap<u32, u32> =
        allocas(f).into_iter().map(|(v, _, _, bytes)| (v.0, bytes)).collect();
    // Per-alloca reachable stores: (block, inst index, size, offset, stored range).
    let mut slot_stores: HashMap<u32, Vec<SlotStore>> = HashMap::new();
    // Candidate loads: (value, block, inst index, size, offset, alloca).
    let mut slot_loads: Vec<(ValueId, u32, usize, u32, Interval, u32)> = Vec::new();
    let mut stores = Vec::new();
    let mut has_calls = false;
    // A store the slot analysis cannot attribute (unknown root, or a stack
    // store that may run past its own slot) could hit any frame byte.
    let mut wild_store = false;

    for (b, blk) in f.iter_blocks() {
        if !cfg.reachable(b) {
            continue;
        }
        for (ii, inst) in blk.insts.iter().enumerate() {
            match inst {
                Inst::Call { .. } => has_calls = true,
                Inst::Store { ty, val, addr } => {
                    let a = classify_addr(f, fi, addr);
                    let stored_iv = if ty.lanes == 1 && ty.scalar.is_int() {
                        fi.operand(f, val)
                    } else {
                        Interval::top()
                    };
                    match a.root {
                        Root::Global(g) => stores.push(GlobalStore {
                            global: g,
                            block: b.0,
                            val: val.as_value().map(|v| v.0),
                            fp: operand_fp(fp, val),
                            interval: stored_iv,
                        }),
                        Root::Stack(slot) => {
                            let in_bounds = slot_bytes.get(&slot).is_some_and(|&sb| {
                                !a.offset.is_bottom()
                                    && a.offset.lo >= 0
                                    && a.offset.hi + ty.bytes() as i128 <= sb as i128
                            });
                            if in_bounds {
                                slot_stores.entry(slot).or_default().push((
                                    b.0,
                                    ii,
                                    ty.bytes(),
                                    a.offset,
                                    stored_iv,
                                ));
                            } else {
                                wild_store = true;
                            }
                        }
                        Root::None | Root::Unknown => wild_store = true,
                    }
                }
                Inst::Load { dst, addr } => {
                    let a = classify_addr(f, fi, addr);
                    if let Root::Stack(slot) = a.root {
                        let bytes = f.ty(*dst).bytes();
                        let in_bounds = slot_bytes.get(&slot).is_some_and(|&sb| {
                            !a.offset.is_bottom()
                                && a.offset.lo >= 0
                                && a.offset.hi + bytes as i128 <= sb as i128
                        });
                        if in_bounds {
                            slot_loads.push((*dst, b.0, ii, bytes, a.offset, slot));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let mut zero_loads = Vec::new();
    let mut nonzero_loads = Vec::new();
    // With a call in the function some callee could write the frame through
    // an escaped address; with a wild store any byte may be written. Either
    // way the slot reasoning is off.
    if !has_calls && !wild_store {
        let dom = DomTree::compute(f, cfg);
        for &(v, lb, li, lbytes, ref loff, slot) in &slot_loads {
            match slot_stores.get(&slot) {
                // Never-stored slot: allocas are zero-initialised, so every
                // in-bounds load reads zero.
                None => zero_loads.push(v.0),
                Some(ss) => {
                    // Whole-slot scalar discipline only: load and every store
                    // cover offset 0 with the same width, every stored range
                    // excludes zero, and some store dominates the load.
                    let whole = |off: &Interval, sz: u32| {
                        off.lo == 0 && off.hi == 0 && sz == lbytes
                    };
                    let all_nonzero = whole(loff, lbytes)
                        && ss.iter().all(|(_, _, sz, off, iv)| {
                            whole(off, *sz) && !iv.is_bottom() && !iv.contains(0)
                        });
                    let dominated = ss.iter().any(|&(sb, si, ..)| {
                        let (sb, lb) = (BlockId(sb), BlockId(lb));
                        (sb != lb && dom.dominates(sb, lb)) || (sb == lb && si < li)
                    });
                    if all_nonzero && dominated {
                        nonzero_loads.push(v.0);
                    }
                }
            }
        }
    }
    zero_loads.sort_unstable();
    nonzero_loads.sort_unstable();
    (zero_loads, nonzero_loads, stores, has_calls)
}

/// Match values across a pass boundary: pairs `(pre, post)` whose fingerprint
/// is unique among the reachable values of *each* side. Sorted by pre id.
pub fn correspond(pre: &ValueFacts, post: &ValueFacts) -> Vec<(ValueId, ValueId)> {
    fn uniques(vf: &ValueFacts) -> HashMap<u64, Option<u32>> {
        // fp -> Some(id) if unique, None if seen more than once.
        let mut m: HashMap<u64, Option<u32>> = HashMap::new();
        for (i, &h) in vf.fp.iter().enumerate() {
            if !vf.reachable[i] {
                continue;
            }
            m.entry(h)
                .and_modify(|e| *e = None)
                .or_insert(Some(i as u32));
        }
        m
    }
    let a = uniques(pre);
    let b = uniques(post);
    let mut pairs: Vec<(ValueId, ValueId)> = a
        .iter()
        .filter_map(|(h, pa)| {
            let pa = (*pa)?;
            let pb = (*b.get(h)?)?;
            Some((ValueId(pa), ValueId(pb)))
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals;
    use citroen_ir::builder::{counted_loop_ssa, FunctionBuilder};
    use citroen_ir::inst::BinOp;
    use citroen_ir::module::{GlobalInit, Module};
    use citroen_ir::types::I64;

    fn facts(m: &Module) -> Vec<ValueFacts> {
        let iv = intervals::analyze_module(m);
        m.funcs
            .iter()
            .enumerate()
            .map(|(fi, f)| value_facts(m, f, &iv.funcs[fi]))
            .collect()
    }

    #[test]
    fn identical_functions_self_correspond() {
        let mut m = Module::new("m");
        let g = m.add_global("out", GlobalInit::Zero(8), true);
        let mut b = FunctionBuilder::new("f", vec![I64, I64], Some(I64));
        let s = b.bin(BinOp::Add, I64, b.param(0), b.param(1));
        let t = b.bin(BinOp::Mul, I64, s, Operand::imm64(3));
        b.store(I64, t, Operand::Global(g));
        b.ret(Some(t));
        m.add_func(b.finish());
        let vf = &facts(&m)[0];
        let pairs = correspond(vf, vf);
        // Every reachable value with a unique fingerprint maps to itself.
        assert!(pairs.iter().all(|(a, b)| a == b), "{pairs:?}");
        assert!(pairs.len() >= 4, "params + both bins should match: {pairs:?}");
        assert_eq!(vf.stores.len(), 1);
        assert_eq!(vf.stores[0].val, Some(t.as_value().unwrap().0));
    }

    #[test]
    fn commutative_swap_preserves_fingerprints() {
        let build = |swapped: bool| {
            let mut m = Module::new("m");
            let mut b = FunctionBuilder::new("f", vec![I64, I64], Some(I64));
            let (x, y) = (b.param(0), b.param(1));
            let s = if swapped {
                b.bin(BinOp::Add, I64, y, x)
            } else {
                b.bin(BinOp::Add, I64, x, y)
            };
            b.ret(Some(s));
            m.add_func(b.finish());
            m
        };
        let (ma, mb) = (build(false), build(true));
        let (fa, fb) = (facts(&ma), facts(&mb));
        let pairs = correspond(&fa[0], &fb[0]);
        // The add matches across the operand swap; subtraction would not.
        let add = ma.funcs[0].blocks[0].insts[0].dst().unwrap();
        assert!(pairs.contains(&(add, add)), "{pairs:?}");
    }

    #[test]
    fn phi_cycle_reaches_fixpoint_and_matches() {
        // counted_loop_ssa builds φ-cyclic induction and accumulator values;
        // the refinement must terminate and a module must still correspond
        // to its clone.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let n = b.param(0);
        let pre = b.current();
        let merged = counted_loop_ssa(&mut b, n, |b, iv, carried| {
            let acc = b.phi(I64, vec![(pre, Operand::imm64(0))]);
            let next = b.bin(BinOp::Add, I64, acc, iv);
            carried.feed(acc, next);
        });
        b.ret(Some(merged[0]));
        m.add_func(b.finish());
        let vf = &facts(&m)[0];
        assert!(vf.rounds <= ROUNDS);
        let pairs = correspond(vf, vf);
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|(a, b)| a == b), "{pairs:?}");
    }

    #[test]
    fn multi_function_modules_keep_facts_separate() {
        let mut m = Module::new("m");
        let mut cb = FunctionBuilder::new("callee", vec![I64], Some(I64));
        let d = cb.bin(BinOp::Mul, I64, cb.param(0), Operand::imm64(2));
        cb.ret(Some(d));
        let callee = m.add_func(cb.finish());
        let mut b = FunctionBuilder::new("main", vec![I64], Some(I64));
        let v = b.call(callee, Some(I64), vec![b.param(0)]).unwrap();
        b.ret(Some(v));
        m.add_func(b.finish());
        let fs = facts(&m);
        assert_eq!(fs.len(), 2);
        assert!(fs[1].has_calls);
        assert!(!fs[0].has_calls);
        // The callee's double and the caller's call have distinct prints.
        assert!(correspond(&fs[0], &fs[0]).iter().all(|(a, b)| a == b));
    }

    #[test]
    fn uninitialised_slot_load_is_zero_load() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Some(I64));
        let a = b.alloca(8);
        let v = b.load(I64, a);
        b.ret(Some(v));
        m.add_func(b.finish());
        let vf = &facts(&m)[0];
        assert_eq!(vf.zero_loads, vec![v.as_value().unwrap().0]);
        assert!(vf.nonzero_loads.is_empty());
    }

    #[test]
    fn dominating_nonzero_store_is_nonzero_load() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Some(I64));
        let a = b.alloca(8);
        b.store(I64, Operand::imm64(7), a);
        let v = b.load(I64, a);
        b.ret(Some(v));
        m.add_func(b.finish());
        let vf = &facts(&m)[0];
        assert!(vf.zero_loads.is_empty());
        assert_eq!(vf.nonzero_loads, vec![v.as_value().unwrap().0]);
    }

    #[test]
    fn possible_zero_store_blocks_nonzero_proof() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let a = b.alloca(8);
        b.store(I64, b.param(0), a); // parameter may be zero
        let v = b.load(I64, a);
        b.ret(Some(v));
        m.add_func(b.finish());
        let vf = &facts(&m)[0];
        assert!(vf.zero_loads.is_empty());
        assert!(vf.nonzero_loads.is_empty());
    }
}
