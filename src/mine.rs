//! Empirical subsumption-edge mining with fuzz-gated promotion.
//!
//! The static work matrix ([`work_model`](citroen_passes::oracle::work_model))
//! proves `(p, q)` edges — "`q` cannot fire immediately after `p`" — from
//! declared masks. Mining goes the other way round: trace real compilations
//! (the shipped suite × random pass sequences, each pass instrumented with a
//! fingerprint + statistics probe), record every adjacent pair, and treat
//! pairs where `q` was a no-op in *every* observation as candidate edges.
//!
//! An empirical candidate is a hypothesis, not a theorem, so promotion is
//! gated: candidates already implied by the static matrix are set aside
//! (nothing new), and each remaining edge must survive an executed-drop fuzz
//! campaign — the same no-op theorem check `citroen-analyze subsume` runs —
//! on generated modules: random prefix pipeline, then `p`, then `q`, where
//! `q` must leave the fingerprint unchanged and record zero statistics every
//! time. Surviving edges are reported as promoted; any counterexample
//! refutes the edge with the trial that broke it.
//!
//! Promoted edges are exactly the shape the sequence canonicalizer could
//! consume as extra drop rules; they are reported (not auto-installed) so a
//! human can decide whether to encode the underlying fact as a `fires_on`/
//! `clears` mask, which the static matrix then proves for free.

use crate::fuzz::{random_seq, seeded_module};
use citroen_ir::module::Module;
use citroen_passes::oracle::{noop_breach, work_model};
use citroen_passes::{PassId, PassManager, Registry};
use citroen_rt::rng::{Rng, SeedableRng, StdRng};

/// Mining + promotion knobs.
#[derive(Debug, Clone)]
pub struct MineConfig {
    /// Random sequences traced per corpus module during mining.
    pub mine_seqs: usize,
    /// Length of each traced sequence.
    pub mine_len: usize,
    /// Minimum no-op observations before a pair becomes a candidate.
    pub min_observations: usize,
    /// Executed-drop trials per candidate edge during promotion.
    pub promote_trials: usize,
    /// Deterministic seed for both phases.
    pub seed: u64,
}

impl Default for MineConfig {
    fn default() -> MineConfig {
        MineConfig {
            mine_seqs: 40,
            mine_len: 8,
            min_observations: 3,
            promote_trials: 500,
            seed: 0xED6E5,
        }
    }
}

impl MineConfig {
    /// The small deterministic budget behind `mine-edges --smoke`.
    pub fn smoke() -> MineConfig {
        MineConfig { mine_seqs: 8, mine_len: 6, min_observations: 2, promote_trials: 40, seed: 7 }
    }
}

/// One mined adjacency hypothesis.
#[derive(Debug, Clone)]
pub struct MinedEdge {
    /// The leading pass.
    pub p: PassId,
    /// The pass observed to never fire immediately after `p`.
    pub q: PassId,
    /// How many traced adjacencies supported the hypothesis.
    pub observations: usize,
}

/// A candidate refuted during promotion.
#[derive(Debug, Clone)]
pub struct RefutedEdge {
    /// The refuted hypothesis.
    pub edge: MinedEdge,
    /// What the counterexample trial observed.
    pub detail: String,
    /// Seed of the generated module that refuted it.
    pub module_seed: u64,
}

/// Mining + promotion outcome.
#[derive(Debug, Clone, Default)]
pub struct MineReport {
    /// Adjacent-pair observations traced in total.
    pub adjacencies: u64,
    /// Distinct ordered pairs observed at least once.
    pub pairs_seen: usize,
    /// Candidates discarded because the static matrix already proves them.
    pub statically_implied: Vec<MinedEdge>,
    /// Candidates that survived every executed-drop trial.
    pub promoted: Vec<MinedEdge>,
    /// Candidates refuted by a counterexample.
    pub refuted: Vec<RefutedEdge>,
    /// Executed-drop trials run during promotion.
    pub drop_trials: u64,
}

/// Phase 1: trace the shipped suite under random sequences and collect
/// adjacency statistics. Returns `(supported, report)` where `supported`
/// holds every pair whose every observation was a no-op.
fn mine_candidates(
    reg: &Registry,
    cfg: &MineConfig,
    rng: &mut StdRng,
    report: &mut MineReport,
    progress: &mut impl FnMut(&str),
) -> Vec<MinedEdge> {
    use std::collections::HashMap;
    // (p, q) -> (observations, q fired at least once)
    let mut obs: HashMap<(u16, u16), (usize, bool)> = HashMap::new();
    let corpus: Vec<(String, Module)> = citroen_suite::cbench()
        .into_iter()
        .chain(citroen_suite::spec())
        .map(|b| (b.name.to_string(), b.link()))
        .collect();
    for (name, m) in &corpus {
        progress(&format!("mining {name} ({} seqs)", cfg.mine_seqs));
        for _ in 0..cfg.mine_seqs {
            let seq = random_seq(reg, rng, cfg.mine_len);
            let mut cur = m.clone();
            let mut prev: Option<PassId> = None;
            for &id in &seq {
                let fired = noop_breach(reg.pass(id), &mut cur).is_some();
                if let Some(p) = prev {
                    report.adjacencies += 1;
                    let e = obs.entry((p.0, id.0)).or_insert((0, false));
                    e.0 += 1;
                    e.1 |= fired;
                }
                prev = Some(id);
            }
        }
    }
    report.pairs_seen = obs.len();
    let mut out: Vec<MinedEdge> = obs
        .into_iter()
        .filter(|&(_, (n, fired))| !fired && n >= cfg.min_observations)
        .map(|((p, q), (n, _))| MinedEdge { p: PassId(p), q: PassId(q), observations: n })
        .collect();
    out.sort_by_key(|e| (e.p.0, e.q.0));
    out
}

/// Phase 2: executed-drop promotion. A candidate `(p, q)` survives iff on
/// every trial — generated module, random prefix pipeline, then `p` — the
/// subsequent `q` is a no-op.
fn promote(
    reg: &Registry,
    pm: &PassManager<'_>,
    edge: &MinedEdge,
    cfg: &MineConfig,
    rng: &mut StdRng,
    report: &mut MineReport,
) -> Result<(), RefutedEdge> {
    for _ in 0..cfg.promote_trials {
        report.drop_trials += 1;
        let (module_seed, module) = seeded_module(rng);
        let prefix_len = rng.gen_range(0..=4);
        let mut seq = random_seq(reg, rng, prefix_len);
        seq.push(edge.p);
        let Ok(mut res) = pm.compile_result(&module, &seq) else { continue };
        if noop_breach(reg.pass(edge.q), &mut res.module).is_some() {
            return Err(RefutedEdge {
                edge: edge.clone(),
                detail: format!(
                    "'{}' fired after [{}] on a generated module",
                    reg.pass(edge.q).name(),
                    reg.seq_to_string(&seq)
                ),
                module_seed,
            });
        }
    }
    Ok(())
}

/// Run both phases. `progress` receives one line per corpus module and per
/// promoted/refuted edge.
pub fn run_mine_campaign(cfg: &MineConfig, mut progress: impl FnMut(&str)) -> MineReport {
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    pm.verify_each = false;
    pm.sanitize = false;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = MineReport::default();

    let candidates = mine_candidates(&reg, cfg, &mut rng, &mut report, &mut progress);

    // Static exclusion: the matrix already proves these, so executing them
    // again would only re-derive the subsume campaign.
    let static_pairs = work_model(&reg).subsumed_pairs();
    let (novel, implied): (Vec<_>, Vec<_>) = candidates
        .into_iter()
        .partition(|e| !static_pairs.contains(&(e.p.0 as usize, e.q.0 as usize)));
    report.statically_implied = implied;

    for edge in novel {
        let label = format!(
            "{} -> {} ({} obs)",
            reg.pass(edge.p).name(),
            reg.pass(edge.q).name(),
            edge.observations
        );
        match promote(&reg, &pm, &edge, cfg, &mut rng, &mut report) {
            Ok(()) => {
                progress(&format!("promoted {label} after {} trials", cfg.promote_trials));
                report.promoted.push(edge);
            }
            Err(refuted) => {
                progress(&format!("refuted {label}: {}", refuted.detail));
                report.refuted.push(refuted);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mine_finds_and_gates_candidates() {
        let cfg = MineConfig::smoke();
        let report = run_mine_campaign(&cfg, |_| {});
        assert!(report.adjacencies > 0, "tracing must observe adjacencies");
        assert!(report.pairs_seen > 0);
        // Statically-implied edges exist in any traced corpus of this size
        // (idempotent pass repeated adjacently is the degenerate case).
        assert!(
            !report.statically_implied.is_empty(),
            "expected some mined pairs to be statically implied"
        );
        // Every promoted edge went through the executed-drop gate.
        if !report.promoted.is_empty() {
            assert!(report.drop_trials >= cfg.promote_trials as u64);
        }
        // No candidate may be both promoted and refuted.
        for p in &report.promoted {
            assert!(
                !report.refuted.iter().any(|r| r.edge.p == p.p && r.edge.q == p.q),
                "edge both promoted and refuted"
            );
        }
    }

    #[test]
    fn refutation_is_possible() {
        // A fabricated candidate that is certainly false — instcombine
        // after dce (dce never exhausts algebraic rewrites) — must be
        // refuted by the executed-drop gate, proving the gate has teeth.
        let reg = Registry::full();
        let mut pm = PassManager::new(&reg);
        pm.verify_each = false;
        pm.sanitize = false;
        let p = reg.by_name("dce").expect("registered");
        let q = reg.by_name("instcombine").expect("registered");
        let edge = MinedEdge { p, q, observations: 1 };
        let cfg = MineConfig { promote_trials: 60, seed: 3, ..MineConfig::smoke() };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut report = MineReport::default();
        let res = promote(&reg, &pm, &edge, &cfg, &mut rng, &mut report);
        assert!(res.is_err(), "instcombine-after-dce must fire on some generated module");
    }
}
