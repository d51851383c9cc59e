//! Registry-level oracle driver: per-pass verdicts for a module, and the
//! static pass-interaction graph derived from pairwise verdict flips.
//!
//! The per-pass precondition analyses live on each [`Pass`] impl; this module
//! runs them across a whole [`Registry`], computing the shared
//! [`Facts`] bundle once per module. On top of that it derives the
//! interaction graph: pass `A` *enables* pass `B` when running `A` on a
//! module flips `B`'s verdict from `CannotFire` to `MayFire` (and *disables*
//! for the reverse flip). The graph is existential over a corpus — an edge
//! means the flip was observed on at least `count` modules — which is exactly
//! the over-approximation sequence canonicalisation needs: only drop a dead
//! pass when no earlier pass is known to wake it.

use crate::manager::{Pass, PassId, Registry};
use crate::stats::Stats;
use crate::work;
use citroen_analyze::oracle::{compute_facts, Interaction, Verdict};
use citroen_ir::module::Module;

pub use citroen_analyze::oracle::{InteractionGraph, WorkModel};

/// Verdicts for every registered pass on `m`, in registry id order. The
/// dataflow fact bundle is computed once and shared across all passes.
pub fn verdicts(reg: &Registry, m: &Module) -> Vec<Verdict> {
    let facts = compute_facts(m);
    reg.ids().into_iter().map(|id| reg.pass(id).precondition(m, &facts)).collect()
}

/// `mask[p]` is true iff pass `p` is statically dead (`CannotFire`) on the
/// module the verdicts were computed for.
pub fn dead_mask(verdicts: &[Verdict]) -> Vec<bool> {
    verdicts.iter().map(Verdict::is_cannot_fire).collect()
}

/// For each pass `A` in `reg`: run `A` once on a clone of `m` and diff the
/// verdict vector before/after. Returns `(enables, disables)` edge lists with
/// `count == 1`, suitable for accumulation by [`derive_graph`].
pub fn interactions_for_module(
    reg: &Registry,
    m: &Module,
) -> (Vec<Interaction>, Vec<Interaction>) {
    let before = verdicts(reg, m);
    let mut enables = Vec::new();
    let mut disables = Vec::new();
    for (a, id) in reg.ids().into_iter().enumerate() {
        let mut after_m = m.clone();
        let mut stats = Stats::new();
        reg.pass(id).run(&mut after_m, &mut stats);
        let after = verdicts(reg, &after_m);
        for b in 0..before.len() {
            match (before[b].is_cannot_fire(), after[b].is_cannot_fire()) {
                (true, false) => enables.push(Interaction { from: a, to: b, count: 1 }),
                (false, true) => disables.push(Interaction { from: a, to: b, count: 1 }),
                _ => {}
            }
        }
    }
    (enables, disables)
}

/// Derive the interaction graph over a module corpus: accumulate the
/// per-module edges of [`interactions_for_module`], summing observation
/// counts for repeated edges.
pub fn derive_graph(reg: &Registry, corpus: &[Module]) -> InteractionGraph {
    let mut graph = InteractionGraph {
        passes: reg.names().iter().map(|n| n.to_string()).collect(),
        enables: Vec::new(),
        disables: Vec::new(),
        modules: corpus.len() as u64,
        work: Some(work_model(reg)),
    };
    let accumulate = |edges: &mut Vec<Interaction>, observed: Vec<Interaction>| {
        for o in observed {
            match edges.iter_mut().find(|e| e.from == o.from && e.to == o.to) {
                Some(e) => e.count += o.count,
                None => edges.push(o),
            }
        }
    };
    for m in corpus {
        let (en, dis) = interactions_for_module(reg, m);
        accumulate(&mut graph.enables, en);
        accumulate(&mut graph.disables, dis);
    }
    graph.enables.sort_by_key(|e| (e.from, e.to));
    graph.disables.sort_by_key(|e| (e.from, e.to));
    graph
}

/// The registry's declared work-class model ([`crate::work`]), in the
/// serialisable form the interaction-graph JSON carries.
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

/// Re-index a persisted interaction graph onto `reg` for the tuner's
/// `SeqCanonicalizer` warm-start: per-registry-id enables masks (edges
/// naming passes absent from the registry are dropped) and, when the graph
/// carries a work model, the `(fires_on, clears, produces)` mask triple with
/// the conservative `(None, 0, ALL)` row for any pass the graph doesn't
/// know. This is what lets a daemon skip the per-task
/// `interactions_for_module` derivation entirely.
#[allow(clippy::type_complexity)]
pub fn canonicalizer_inputs(
    reg: &Registry,
    g: &InteractionGraph,
) -> (Vec<u64>, Option<(Vec<Option<u64>>, Vec<u64>, Vec<u64>)>) {
    let n = reg.len();
    // graph index for each registry id, and the reverse.
    let gid: Vec<Option<usize>> =
        reg.names().iter().map(|name| g.passes.iter().position(|p| p == name)).collect();
    let mut rid = std::collections::HashMap::new();
    for (r, gi) in gid.iter().enumerate() {
        if let Some(gi) = gi {
            rid.insert(*gi, r);
        }
    }
    let mut enables = vec![0u64; n];
    for e in &g.enables {
        if let (Some(&f), Some(&t)) = (rid.get(&e.from), rid.get(&e.to)) {
            enables[f] |= 1 << t;
        }
    }
    let work = g.work.as_ref().map(|w| {
        let mut fires: Vec<Option<u64>> = vec![None; n];
        let mut clears = vec![0u64; n];
        let mut produces = vec![u64::MAX; n];
        for (r, gi) in gid.iter().enumerate() {
            if let Some(gi) = gi {
                fires[r] = w.fires_on[*gi];
                clears[r] = w.clears[*gi];
                produces[r] = w.produces[*gi];
            }
        }
        (fires, clears, produces)
    });
    (enables, work)
}

/// One soundness check: does `pass` uphold its `CannotFire` theorem on `m`?
/// Returns `None` when the verdict is `MayFire` (nothing to check) or the
/// theorem holds; `Some(description)` on a contradiction.
pub fn check_cannot_fire(pass: &dyn Pass, m: &Module) -> Option<String> {
    if !pass.precondition(m, &compute_facts(m)).is_cannot_fire() {
        return None;
    }
    let breach = noop_breach(pass, &mut m.clone())?;
    Some(format!("pass '{}' claimed cannot-fire but {breach}", pass.name()))
}

/// [`check_cannot_fire`] across a whole registry. Returns the first
/// contradiction, tagged with the offending [`PassId`].
pub fn check_registry(reg: &Registry, m: &Module) -> Option<(PassId, String)> {
    reg.ids().into_iter().find_map(|id| check_cannot_fire(reg.pass(id), m).map(|d| (id, d)))
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
    fn trivial_module_kills_most_passes() {
        let reg = Registry::full();
        let v = verdicts(&reg, &trivial_module());
        assert_eq!(v.len(), reg.len());
        let dead = dead_mask(&v).iter().filter(|&&d| d).count();
        // A `ret 1` module should be statically dead for the vast majority
        // of the registry; require a strong majority so regressions that
        // weaken preconditions to always-MayFire are caught.
        assert!(dead >= reg.len() * 3 / 4, "only {dead}/{} passes cannot-fire", reg.len());
    }

    #[test]
    fn cannot_fire_verdicts_hold_on_victim_module() {
        let reg = Registry::full();
        assert_eq!(check_registry(&reg, &crate::testing::victim_module()), None);
        assert_eq!(check_registry(&reg, &trivial_module()), None);
    }

    #[test]
    fn graph_indexes_match_registry_order() {
        let reg = Registry::full();
        let corpus = vec![crate::testing::victim_module(), trivial_module()];
        let g = derive_graph(&reg, &corpus);
        assert_eq!(g.passes, reg.names().iter().map(|n| n.to_string()).collect::<Vec<_>>());
        assert_eq!(g.modules, 2);
        for e in g.enables.iter().chain(&g.disables) {
            assert!(e.from < reg.len() && e.to < reg.len());
            assert!(e.count >= 1 && e.count <= 2);
        }
        // mem2reg on the victim module promotes the alloca; that must wake
        // at least one downstream pass, so the graph cannot be edge-free.
        assert!(!g.enables.is_empty(), "expected at least one enables edge");
        // The derived graph carries the registry's work model.
        let w = g.work.as_ref().expect("derive_graph attaches the work model");
        assert_eq!(w.fires_on.len(), reg.len());
        assert_eq!(w.classes.len(), crate::work::NUM_CLASSES as usize);
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
    fn canonicalizer_inputs_round_trip_through_json() {
        let reg = Registry::full();
        let g = derive_graph(&reg, &[crate::testing::victim_module()]);
        let back = InteractionGraph::from_json(&g.to_json()).unwrap();
        let (enables, work) = canonicalizer_inputs(&reg, &back);
        // Same registry, same order: the remap must reproduce the graph's
        // own mask form and the registry's declared work model exactly.
        assert_eq!(enables, back.enables_mask());
        let (fires, clears, produces) = work.expect("derived graph carries a work model");
        assert_eq!(fires, reg.fires_on());
        assert_eq!(clears, reg.clears());
        assert_eq!(produces, reg.produces());
        // A reduced registry only keeps rows for passes it knows.
        let old = Registry::llvm10();
        let (en_old, work_old) = canonicalizer_inputs(&old, &back);
        assert_eq!(en_old.len(), old.len());
        let (fires_old, _, _) = work_old.unwrap();
        assert_eq!(fires_old.len(), old.len());
    }

    #[test]
    fn subsumption_matrix_holds_on_victim_and_trivial_modules() {
        let reg = Registry::full();
        assert_eq!(check_subsumption_matrix(&reg, &crate::testing::victim_module()), None);
        assert_eq!(check_subsumption_matrix(&reg, &trivial_module()), None);
    }
}
