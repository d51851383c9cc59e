//! Registry-level soundness checks behind the sequence canonicaliser: the
//! registry's declared work-class model, the no-op theorem every predicted
//! drop rests on, and the pairwise subsumption matrix checked on a module.

use crate::manager::{Pass, PassId, Registry};
use crate::stats::Stats;
use crate::work;
use citroen_ir::module::Module;

pub use citroen_analyze::oracle::WorkModel;

/// The registry's declared work-class model ([`crate::work`]).
pub fn work_model(reg: &Registry) -> WorkModel {
    WorkModel {
        classes: work::NAMES.iter().map(|n| n.to_string()).collect(),
        fires_on: reg.fires_on(),
        clears: reg.clears(),
        produces: reg.produces(),
    }
}

/// The no-op theorem behind every pruning claim: run `pass` on `m` in place;
/// it must leave the module fingerprint unchanged and record no statistics.
/// Returns the breach (a changed fingerprint, or the recorded statistics'
/// keys), or `None` when the pass was a no-op.
pub fn noop_breach(pass: &dyn Pass, m: &mut Module) -> Option<String> {
    let before = citroen_ir::print::fingerprint(m);
    let mut stats = Stats::new();
    pass.run(m, &mut stats);
    if citroen_ir::print::fingerprint(m) != before {
        Some("changed the module fingerprint".to_string())
    } else if !stats.is_empty() {
        Some(format!("recorded statistics: {}", stats.keys().join(", ")))
    } else {
        None
    }
}

/// Every statically claimed subsumption edge `p → q` of the registry's work
/// model (`fires_on(q) ⊆ clears(p)`), checked on `m`: after `p` runs, `q`
/// must be a no-op. Returns the first contradiction, tagged with the edge.
/// The chain-level generalisation (the absent-set dataflow across whole
/// sequences) is exercised by the `citroen-analyze subsume` fuzz campaign.
pub fn check_subsumption_matrix(reg: &Registry, m: &Module) -> Option<(PassId, PassId, String)> {
    work_model(reg).subsumed_pairs().into_iter().find_map(|(p, q)| {
        let (p, q) = (PassId(p as u16), PassId(q as u16));
        let mut cur = m.clone();
        reg.pass(p).run(&mut cur, &mut Stats::new());
        let breach = noop_breach(reg.pass(q), &mut cur)?;
        let (pn, qn) = (reg.pass(p).name(), reg.pass(q).name());
        Some((p, q, format!("subsumption '{pn}' → '{qn}' violated: '{qn}' {breach}")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::inst::Operand;
    use citroen_ir::types::I64;

    /// `ret 1` — nothing for any pass to do.
    fn trivial_module() -> Module {
        let mut m = Module::new("trivial");
        let mut b = FunctionBuilder::new("main", vec![], Some(I64));
        b.ret(Some(Operand::imm64(1)));
        m.add_func(b.finish());
        m
    }

    #[test]
    fn work_model_matrix_generalises_the_idempotence_diagonal() {
        let reg = Registry::full();
        let model = work_model(&reg);
        let pairs = model.subsumed_pairs();
        // Every self-clearing pass with a declared fire mask must subsume
        // itself (the idempotence diagonal), and the dce column must extend
        // beyond it. loop-rotate declares a mask without the diagonal: it is
        // not idempotent (rotation can re-expose rotatable shapes), so its
        // clears mask is empty by design.
        for (i, fires) in model.fires_on.iter().enumerate() {
            if let Some(fm) = fires {
                if fm & !model.clears[i] == 0 {
                    assert!(pairs.contains(&(i, i)), "missing diagonal for {}", reg.names()[i]);
                } else {
                    assert_eq!(reg.names()[i], "loop-rotate", "unexpected non-self-clearing mask");
                }
            }
        }
        let dce = reg.by_name("dce").unwrap().0 as usize;
        let dce_col = pairs.iter().filter(|(_, q)| *q == dce).count();
        assert!(dce_col >= 8, "expected a populated dce column, got {dce_col}");
        // Known off-diagonal edges from unconditional trailing dce sweeps.
        for p in ["gvn", "instcombine", "sccp", "adce"] {
            let pi = reg.by_name(p).unwrap().0 as usize;
            assert!(pairs.contains(&(pi, dce)), "missing {p} → dce edge");
        }
    }

    #[test]
    fn subsumption_matrix_holds_on_victim_and_trivial_modules() {
        let reg = Registry::full();
        assert_eq!(check_subsumption_matrix(&reg, &crate::testing::victim_module()), None);
        assert_eq!(check_subsumption_matrix(&reg, &trivial_module()), None);
    }
}
