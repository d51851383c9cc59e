//! Deliberately broken passes for sanitizer and fuzzer tests.
//!
//! These are NOT registered in any production [`Registry`](crate::Registry);
//! tests build private registries around them (via
//! [`Registry::from_passes`](crate::Registry::from_passes)) to prove the
//! translation-validation layer catches well-formed miscompiles. The bug
//! modelled here is the PR 1 partial-unroll regression: a loop-boundary
//! clone that silently drops the side effects of the block it copies.

use crate::manager::Pass;
use crate::stats::Stats;
use citroen_analyze::oracle::{Facts, Verdict};
use citroen_ir::analysis::{Cfg, DomTree, LoopInfo};
use citroen_ir::inst::{Inst, Term};
use citroen_ir::module::Module;

/// A miscompiling "unroll": for the first loop whose exit block has no φs and
/// defines no values, it clones the exit block *without its stores* and
/// redirects the loop's exit edge to the clone. The result is structurally
/// valid — every verifier check passes — but any side effect of the original
/// exit block is lost, exactly the shape of bug the sanitizer exists for.
pub struct BrokenUnroll;

impl Pass for BrokenUnroll {
    fn name(&self) -> &'static str {
        "broken-unroll"
    }

    fn run(&self, m: &mut Module, stats: &mut Stats) {
        for f in &mut m.funcs {
            if f.is_decl() {
                continue;
            }
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(f, &cfg);
            let li = LoopInfo::compute(f, &cfg, &dom);

            // Find a loop exit edge (from, to) leaving the loop whose target
            // is φ-free and defines nothing (so cloning needs no renaming).
            let mut edge = None;
            'outer: for l in &li.loops {
                for &b in &l.blocks {
                    for &s in &cfg.succs[b.idx()] {
                        if !l.contains(s)
                            && f.blocks[s.idx()].insts.iter().all(|i| i.dst().is_none())
                        {
                            edge = Some((b, s));
                            break 'outer;
                        }
                    }
                }
            }
            let Some((from, to)) = edge else { continue };

            // Clone the exit block minus its stores, then retarget the edge.
            let mut clone = f.blocks[to.idx()].clone();
            clone.insts.retain(|i| !matches!(i, Inst::Store { .. }));
            let new_b = f.new_block();
            f.blocks[new_b.idx()] = clone;
            f.blocks[from.idx()].term.for_each_successor_mut(&mut |s: &mut citroen_ir::inst::BlockId| {
                if *s == to {
                    *s = new_b;
                }
            });
            // φs in the *successors of the exit block* would now see a new
            // predecessor; the φ-free/def-free constraint plus terminator
            // cloning keeps those successors' φ edges matched only if they
            // had none from `to` — restrict to exits ending in ret to stay
            // verifier-clean in every case.
            if !matches!(f.blocks[new_b.idx()].term, Term::Ret(_)) {
                // Revert: not the shape this bug needs.
                f.blocks[from.idx()].term.for_each_successor_mut(&mut |s: &mut citroen_ir::inst::BlockId| {
                    if *s == new_b {
                        *s = to;
                    }
                });
                f.blocks.pop();
                continue;
            }
            stats.inc(self.name(), "exit_blocks_cloned", 1);
        }
    }
}

/// A pass whose precondition lies: it always claims
/// [`CannotFire`](Verdict::CannotFire), yet `run` always records a statistic
/// and, when a commutable `Bin` instruction exists, swaps its operands —
/// changing the module fingerprint while preserving semantics. The bug is
/// invisible to the verifier *and* the sanitizer; only the oracle soundness
/// campaign (`citroen-analyze oracle`) can convict it, which is exactly what
/// the regression tests use it to prove.
pub struct LyingPrecondition;

impl Pass for LyingPrecondition {
    fn name(&self) -> &'static str {
        "lying-precondition"
    }

    fn run(&self, m: &mut Module, stats: &mut Stats) {
        // Always-nonzero stats: already a theorem violation on its own.
        stats.inc(self.name(), "invocations", 1);
        'swap: for f in &mut m.funcs {
            for b in &mut f.blocks {
                for i in &mut b.insts {
                    if let Inst::Bin { op, lhs, rhs, .. } = i {
                        if op.commutative() && lhs != rhs {
                            std::mem::swap(lhs, rhs);
                            stats.inc(self.name(), "operands_swapped", 1);
                            break 'swap;
                        }
                    }
                }
            }
        }
    }

    fn precondition(&self, _m: &Module, _facts: &Facts) -> Verdict {
        Verdict::CannotFire
    }
}

/// A pass whose `CannotFire` claim rests on an unsound *alias* judgment.
/// `run` performs honest store→load forwarding — a load whose address is the
/// structurally identical operand of an earlier same-block store, with no
/// intervening store or call, provably reads the stored value, so every use
/// of the load is rewritten to the store's operand (semantics-preserving,
/// verifier-clean) — and records, as statistics, every computed-address load
/// its alias scan examined along the way. The precondition mirrors the scan
/// but only believes an address can be alias-relevant when it is a *literal
/// global*, silently assuming computed addresses (allocas, pointer
/// arithmetic) never resolve to anything. On any module whose memory traffic
/// flows through computed addresses the verdict is a lie, and only the
/// oracle soundness campaign (`citroen-analyze oracle`) can convict it.
pub struct LyingAliasPrecondition;

/// Same-block store→load forwarding candidates over structurally identical
/// address operands. `globals_only` is the lie: restricting the scan to
/// literal-global addresses is exactly the unsound "computed addresses never
/// must-alias" assumption the precondition makes.
fn forwarding_candidate(m: &Module, globals_only: bool) -> Option<(usize, usize, usize)> {
    use citroen_ir::inst::Operand;
    for (fi, f) in m.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (li, inst) in b.insts.iter().enumerate() {
                let Inst::Load { dst, addr } = inst else { continue };
                if globals_only && !matches!(addr, Operand::Global(_)) {
                    continue;
                }
                let lty = f.ty(*dst);
                for j in (0..li).rev() {
                    match &b.insts[j] {
                        Inst::Store { ty, addr: saddr, .. } => {
                            if saddr == addr && *ty == lty {
                                return Some((fi, bi, li));
                            }
                            break; // any other store: stop, could clobber
                        }
                        Inst::Call { .. } => break,
                        _ => {}
                    }
                }
            }
        }
    }
    None
}

impl Pass for LyingAliasPrecondition {
    fn name(&self) -> &'static str {
        "lying-alias-precondition"
    }

    fn run(&self, m: &mut Module, stats: &mut Stats) {
        // The census the precondition's model forgets: every computed-address
        // load is an access the alias scan had to examine (and could, in a
        // sharper module state, forward through).
        let examined: usize = m
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(i, Inst::Load { addr: citroen_ir::inst::Operand::Value(_), .. })
            })
            .count();
        if examined > 0 {
            stats.inc(self.name(), "computed_loads_examined", examined as u64);
        }
        let Some((fi, bi, li)) = forwarding_candidate(m, false) else { return };
        let f = &mut m.funcs[fi];
        let (dst, val) = {
            let insts = &f.blocks[bi].insts;
            let Inst::Load { dst, .. } = &insts[li] else { unreachable!() };
            let store = insts[..li]
                .iter()
                .rev()
                .find_map(|i| if let Inst::Store { val, .. } = i { Some(*val) } else { None });
            (*dst, store.expect("candidate has a store"))
        };
        for b in &mut f.blocks {
            for i in &mut b.insts {
                i.for_each_operand_mut(|op| {
                    if *op == citroen_ir::inst::Operand::Value(dst) {
                        *op = val;
                    }
                });
            }
            b.term.for_each_operand_mut(|op| {
                if *op == citroen_ir::inst::Operand::Value(dst) {
                    *op = val;
                }
            });
        }
        stats.inc(self.name(), "loads_forwarded", 1);
    }

    fn precondition(&self, m: &Module, _facts: &Facts) -> Verdict {
        if forwarding_candidate(m, true).is_some() {
            Verdict::MayFire { evidence: "literal-global forwarding candidate".to_string() }
        } else {
            Verdict::CannotFire // the lie, whenever a computed-address candidate exists
        }
    }
}

/// A pass whose work-class model lies: [`clears`](Pass::clears) claims every
/// work class is exhausted after it runs, yet `run` changes nothing — so any
/// later pass the subsumption canonicalizer drops on its account can still
/// fire. The pass itself is semantics-preserving, verifier-clean,
/// sanitizer-clean, and even upholds its (trivial) precondition; only the
/// subsumption soundness campaign (`citroen-analyze subsume`) can convict
/// the false theorem, which is exactly what the regression tests use it for.
pub struct LyingSubsumption;

impl Pass for LyingSubsumption {
    fn name(&self) -> &'static str {
        "lying-subsumption"
    }

    fn run(&self, _m: &mut Module, _stats: &mut Stats) {}

    fn clears(&self) -> u64 {
        crate::work::ALL // the lie: "nothing can fire after me"
    }

    fn produces(&self) -> u64 {
        0
    }
}

/// A loop whose exit block stores a sentinel to `@out` and returns — the
/// minimal shape [`BrokenUnroll`] miscompiles. Shared by the sanitizer and
/// reducer tests.
pub fn victim_module() -> Module {
    use citroen_ir::builder::{counted_loop_mem, FunctionBuilder};
    use citroen_ir::inst::Operand;
    use citroen_ir::module::GlobalInit;
    use citroen_ir::types::I64;
    let mut m = Module::new("victim");
    let g = m.add_global("out", GlobalInit::Zero(8), true);
    let mut b = FunctionBuilder::new("main", vec![I64], Some(I64));
    let n = b.param(0);
    counted_loop_mem(&mut b, n, |_, _| {});
    b.store(I64, Operand::imm64(42), Operand::Global(g));
    b.ret(Some(Operand::imm64(0)));
    m.add_func(b.finish());
    m
}

/// [`victim_module`] with the exit-block store writing a *computed* value
/// (the loop's induction load) instead of a constant. The dropped store then
/// dangles a value the correspondence map can still match, which is what
/// lets the sanitizer's S7 rule localise the miscompile to a value id.
pub fn victim_module_computed() -> Module {
    use citroen_ir::builder::{counted_loop_mem, FunctionBuilder};
    use citroen_ir::inst::Operand;
    use citroen_ir::module::GlobalInit;
    use citroen_ir::types::I64;
    let mut m = Module::new("victim_computed");
    let g = m.add_global("out", GlobalInit::Zero(8), true);
    let mut b = FunctionBuilder::new("main", vec![I64], Some(I64));
    let n = b.param(0);
    // A value with a unique dataflow fingerprint (the two induction loads
    // collide with each other, so they cannot anchor the correspondence).
    // Defined in the entry block, it dominates the exit — the exit block
    // itself stays def-free so the broken unroll still fires on it.
    let k = b.bin(citroen_ir::inst::BinOp::Mul, I64, n, Operand::imm64(7));
    counted_loop_mem(&mut b, n, |_, _| {});
    b.store(I64, k, Operand::Global(g));
    b.ret(Some(Operand::imm64(0)));
    m.add_func(b.finish());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_ir::verify::verify_module;

    #[test]
    fn broken_unroll_is_verifier_clean_but_drops_the_store() {
        let mut m = victim_module();
        let stores = |m: &Module| {
            m.funcs[0]
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, Inst::Store { .. }))
                .count()
        };
        let before = stores(&m);
        let mut stats = Stats::new();
        BrokenUnroll.run(&mut m, &mut stats);
        // The bug is invisible to the structural verifier...
        assert!(verify_module(&m).is_empty(), "{:?}", verify_module(&m));
        // ...but the observable store on the hot exit path is gone.
        assert!(stores(&m) < before + 1, "clone should not add stores");
        use citroen_ir::inst::FuncId;
        use citroen_ir::interp::{run_counting, Value};
        let (out, _) = run_counting(&m, FuncId(0), &[Value::I(7)]).expect("runs fine");
        let (clean, _) =
            run_counting(&victim_module(), FuncId(0), &[Value::I(7)]).expect("runs fine");
        assert_ne!(out.mem_digest, clean.mem_digest, "the miscompile must be observable");
    }

    #[test]
    fn lying_alias_precondition_is_convicted_by_the_oracle_checker() {
        // A store→load pair through an alloca: the honest forwarding in
        // `run` fires, but the precondition's "computed addresses never
        // must-alias" rule sees no literal-global candidate and claims
        // CannotFire. The oracle checker must observe the contradiction.
        use citroen_ir::builder::FunctionBuilder;
        use citroen_ir::inst::Operand;
        use citroen_ir::module::GlobalInit;
        use citroen_ir::types::I64;
        let mut m = Module::new("alias_victim");
        let g = m.add_global("out", GlobalInit::Zero(8), true);
        let mut b = FunctionBuilder::new("main", vec![], Some(I64));
        let a = b.alloca(8);
        b.store(I64, Operand::imm64(42), a);
        let v = b.load(I64, a);
        b.store(I64, v, Operand::Global(g));
        b.ret(Some(Operand::imm64(0)));
        m.add_func(b.finish());

        let verdict = crate::oracle::check_cannot_fire(&LyingAliasPrecondition, &m);
        let msg = verdict.expect("oracle checker must convict the alias lie");
        assert!(msg.contains("lying-alias-precondition"), "{msg}");

        // The transform itself is honest: forwarding preserves semantics.
        use citroen_ir::inst::FuncId;
        use citroen_ir::interp::run_counting;
        let mut fwd = m.clone();
        let mut stats = Stats::new();
        LyingAliasPrecondition.run(&mut fwd, &mut stats);
        assert!(!stats.is_empty(), "run must fire on the victim");
        assert!(verify_module(&fwd).is_empty(), "{:?}", verify_module(&fwd));
        let (before, _) = run_counting(&m, FuncId(0), &[]).expect("runs fine");
        let (after, _) = run_counting(&fwd, FuncId(0), &[]).expect("runs fine");
        assert_eq!(before.mem_digest, after.mem_digest, "forwarding is semantics-preserving");
    }

    #[test]
    fn lying_precondition_is_convicted_by_the_oracle_checker() {
        // Semantics-preserving, verifier-clean, sanitizer-clean — but the
        // CannotFire theorem is violated and the checker must say so.
        let verdict = crate::oracle::check_cannot_fire(&LyingPrecondition, &victim_module());
        let msg = verdict.expect("oracle checker must convict the lying pass");
        assert!(msg.contains("lying-precondition"), "{msg}");

        // Sanity: the honest registry stays clean on the same module, so the
        // conviction above is about the lie, not the module.
        let reg = crate::Registry::full();
        assert_eq!(crate::oracle::check_registry(&reg, &victim_module()), None);
    }
}
