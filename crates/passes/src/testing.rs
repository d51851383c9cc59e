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
}
