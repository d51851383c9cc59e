//! Soundness campaigns for the pass pipeline and its pruning claims: random
//! generated modules × random pass sequences, driven by one loop.
//!
//! * [`run_campaign`] checks each trial five ways — the structural
//!   verifier, the translation-validation sanitizer, an interpreter
//!   differential (return value + mutable-memory digest against the
//!   unoptimised module), the structural fingerprint against the printed
//!   text, and a compile resumed half-way against the straight one.
//! * [`run_oracle_campaign`] executes every `CannotFire` precondition verdict
//!   seen along an evolving sequence.
//! * [`run_subsumption_campaign`] executes every drop the sequence
//!   canonicalizer's absent-work dataflow predicts.
//! * [`run_alias_campaign`] checks every same-block `No`/`Must` alias answer
//!   against concrete access addresses.
//!
//! The oracle and subsumption claims reduce to one theorem, checked by
//! [`noop_breach`]: the pass leaves the fingerprint unchanged and records
//! no statistics. Every finding is delta-debugged before being reported: the
//! pass sequence is minimised with [`ddmin`](citroen_analyze::reduce::ddmin)
//! and the module is shrunk with
//! [`reduce_module`](citroen_analyze::reduce::reduce_module), so the report
//! contains a small parseable reproducer rather than a 300-line random
//! program.

use citroen_analyze::reduce::{ddmin, reduce_module};
use citroen_ir::interp::{run, CountingSink, Limits, Trap, Value};
use citroen_ir::module::Module;
use citroen_ir::FuncId;
use citroen_passes::oracle::noop_breach;
use citroen_ir::print::{fingerprint, print_module};
use citroen_passes::{CompileError, PassId, PassManager, Prefix, Registry, Stats};
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_suite::generator::{generate, GenConfig};

/// Campaign size knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random modules to generate.
    pub modules: usize,
    /// Random pass sequences tried per module.
    pub seqs_per_module: usize,
    /// Maximum sequence length (lengths are drawn uniformly from 1..=max).
    pub max_seq_len: usize,
    /// Campaign seed; every trial derives deterministically from it.
    pub seed: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { modules: 20, seqs_per_module: 10, max_seq_len: 16, seed: 0xC17B0E }
    }
}

impl FuzzConfig {
    /// The tiny deterministic budget behind `citroen-analyze --smoke`.
    pub fn smoke() -> FuzzConfig {
        FuzzConfig { modules: 4, seqs_per_module: 3, max_seq_len: 10, seed: 1 }
    }
}

/// A campaign finding, reduced to a small reproducer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What broke: the failure kind (`verify`, `sanitize`, `differential`),
    /// the pass whose no-op claim was contradicted, or the contradicted alias
    /// answer (`no-alias`, `must-alias`).
    pub label: String,
    /// Seed of the generated module that exposed it.
    pub module_seed: u64,
    /// The sequence it surfaced under (comma-separated pass names; empty for
    /// a raw module).
    pub seq: String,
    /// The ddmin-minimised sequence that still surfaces it. The alias
    /// campaign reduces only the module, so there it equals `seq`.
    pub reduced_seq: String,
    /// The reduced module, printed as parseable IR.
    pub reduced_ir: String,
    /// What the check observed.
    pub detail: String,
}

/// Campaign outcome, one shape for every campaign.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Modules generated.
    pub modules: usize,
    /// Trials run: module × sequence pairs (alias: module states checked).
    pub trials: usize,
    /// The campaign's two claim counters. Oracle: `[CannotFire verdicts
    /// executed, verdicts computed]`; subsume: `[predicted drops executed,
    /// positions simulated]`; alias: `[No claims, Must claims]`. The fuzz
    /// campaign leaves them zero.
    pub counts: [u64; 2],
    /// Reduced violations, in discovery order.
    pub violations: Vec<Violation>,
}

/// Interpreter fuel for fuzz trials — far above any generated program's step
/// count, low enough that a reducer candidate with an accidental infinite
/// loop terminates promptly.
const FUZZ_STEPS: u64 = 5_000_000;

/// The generator puts a module's entry function last.
fn entry(m: &Module) -> FuncId {
    FuncId((m.funcs.len() - 1) as u32)
}

fn observe(m: &Module) -> Result<(Option<Value>, u64), Trap> {
    let mut sink = CountingSink::new();
    let limits = Limits { max_steps: FUZZ_STEPS, ..Limits::default() };
    let out = run(m, entry(m), &[], &mut sink, limits)?;
    Ok((out.ret, out.mem_digest))
}

/// Vary the generator shape per module so the campaign covers helper-call,
/// deep-nest and straight-line extremes rather than one average shape.
fn varied_config(rng: &mut StdRng) -> GenConfig {
    GenConfig {
        helpers: rng.gen_range(0..=3),
        trip_range: (rng.gen_range(2..16), rng.gen_range(16..64)),
        max_depth: rng.gen_range(1..=3),
        stmts: rng.gen_range(2..=8),
    }
}

/// Draw a module seed and a generator shape from `rng`, in that order, and
/// generate the module.
pub(crate) fn seeded_module(rng: &mut StdRng) -> (u64, Module) {
    let module_seed: u64 = rng.gen();
    let module = generate(module_seed, &varied_config(rng));
    (module_seed, module)
}

/// `len` passes drawn uniformly from `reg`.
pub(crate) fn random_seq(reg: &Registry, rng: &mut StdRng, len: usize) -> Vec<PassId> {
    (0..len).map(|_| reg.ids()[rng.gen_range(0..reg.len())]).collect()
}

/// The generation loop every campaign shares: `cfg.modules` seeded modules,
/// each announced through `progress` and handed to `per_module` together
/// with the campaign's RNG, report and progress sink.
fn each_module<P: FnMut(&str)>(
    cfg: &FuzzConfig,
    what: &str,
    mut progress: P,
    mut per_module: impl FnMut(&mut StdRng, &mut Report, &mut P, u64, &Module),
) -> Report {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = Report::default();
    for mi in 0..cfg.modules {
        report.modules += 1;
        let (module_seed, module) = seeded_module(&mut rng);
        progress(&format!(
            "{what} module {}/{} (seed {module_seed:#x}, {} insts)",
            mi + 1,
            cfg.modules,
            module.num_insts()
        ));
        per_module(&mut rng, &mut report, &mut progress, module_seed, &module);
    }
    report
}

/// The campaign driver: `cfg.seqs_per_module` random sequences per generated
/// module, each run through `trial`. A trial returns the first breach as
/// `(label, detail)` and adds to the report's counters. A breach is reduced
/// before it is reported — first the sequence, then the module under it —
/// by re-running `trial` with scratch counters and keeping a step only while
/// the *same* label still breaks, so reduction cannot drift to an unrelated
/// failure.
fn drive(
    cfg: &FuzzConfig,
    reg: &Registry,
    what: &str,
    progress: impl FnMut(&str),
    trial: impl Fn(&Module, &[PassId], &mut [u64; 2]) -> Option<(String, String)>,
) -> Report {
    each_module(cfg, what, progress, |rng, report, progress, module_seed, module| {
        for _ in 0..cfg.seqs_per_module {
            report.trials += 1;
            let len = rng.gen_range(1..=cfg.max_seq_len);
            let seq = random_seq(reg, rng, len);
            let Some((label, detail)) = trial(module, &seq, &mut report.counts) else { continue };
            progress(&format!("  VIOLATION ({label}) — reducing"));
            let same = |m: &Module, s: &[PassId]| {
                trial(m, s, &mut [0; 2]).is_some_and(|(l, _)| l == label)
            };
            let min_seq = ddmin(&seq, |s| same(module, s));
            let reduced = reduce_module(module, |m| same(m, &min_seq));
            report.violations.push(Violation {
                label,
                module_seed,
                seq: reg.seq_to_string(&seq),
                reduced_seq: reg.seq_to_string(&min_seq),
                reduced_ir: print_module(&reduced),
                detail,
            });
        }
    })
}

/// Fuzz trial: does `seq` break `m` in any observable way? Labels are the
/// failure kinds `verify`, `sanitize` and `differential`, plus two checks of
/// the compile path itself: `fingerprint` (the structural fingerprints of
/// the source and the result are equal exactly when their printed texts and
/// attributes are) and `resume` (the compile split at `len/2` and resumed
/// from the first half's state equals the straight one).
fn fuzz_trial(pm: &PassManager<'_>, m: &Module, seq: &[PassId]) -> Option<(String, String)> {
    let res = match pm.compile_result(m, seq) {
        Ok(res) => res,
        Err(e) => {
            let kind = match e {
                CompileError::Verify { .. } => "verify",
                CompileError::Sanitize { .. } => "sanitize",
            };
            return Some((kind.to_string(), e.to_string()));
        }
    };
    let printed = |m: &Module| {
        (print_module(m), m.funcs.iter().map(|f| f.attrs).collect::<Vec<_>>())
    };
    let (fp_src, same_text) = (fingerprint(m), printed(m) == printed(&res.module));
    if (fp_src == res.fingerprint) != same_text {
        let detail = format!(
            "fingerprints {fp_src:#x} -> {:#x}, but the printed texts are {}",
            res.fingerprint,
            if same_text { "equal" } else { "different" }
        );
        return Some(("fingerprint".to_string(), detail));
    }
    let half = seq.len() / 2;
    let resumed = pm.compile_result(m, &seq[..half]).and_then(|h| {
        pm.resume(Prefix { module: h.module, stats: h.stats }, &seq[half..], |_, _| {})
    });
    // Debug text compares every field, as `==` does, but NaN immediates alike.
    let same = |a: &Module, b: &Module| a == b || format!("{a:?}") == format!("{b:?}");
    let breach = match resumed {
        Ok(r) if same(&r.module, &res.module)
            && r.stats == res.stats
            && r.fingerprint == res.fingerprint => None,
        Ok(_) => Some("a different result".to_string()),
        Err(e) => Some(e.to_string()),
    };
    if let Some(b) = breach {
        return Some(("resume".to_string(), format!("resumed at pass {half} of {}: {b}", seq.len())));
    }
    let detail = match (observe(m), observe(&res.module)) {
        (Ok(a), Ok(b)) if a != b => format!("(result, memory digest) {a:?} became {b:?}"),
        // Trap introduced by optimisation is a differential failure too.
        (Ok(_), Err(t)) => format!("optimisation introduced a trap: {t}"),
        // A module that traps before optimisation is outside the contract
        // (generated programs never trap); don't blame the passes for it.
        _ => return None,
    };
    Some(("differential".to_string(), detail))
}

/// Oracle trial: step `seq` through an evolving clone of `m`, executing
/// every `CannotFire` verdict as a no-op theorem. The label is the lying
/// pass.
fn oracle_trial(
    reg: &Registry,
    m: &Module,
    seq: &[PassId],
    counts: &mut [u64; 2],
) -> Option<(String, String)> {
    let mut cur = m.clone();
    for &id in seq {
        let pass = reg.pass(id);
        counts[1] += 1;
        let facts = citroen_analyze::oracle::compute_facts(&cur);
        if pass.precondition(&cur, &facts).is_cannot_fire() {
            counts[0] += 1;
            if let Some(breach) = noop_breach(pass, &mut cur) {
                return Some((pass.name().to_string(), format!("cannot-fire pass {breach}")));
            }
        } else {
            pass.run(&mut cur, &mut Stats::new());
        }
    }
    None
}

/// Subsumption trial: step `seq` through an evolving clone of `m`, running
/// the *same* absent-work dataflow the
/// [`SeqCanonicalizer`](citroen_bo::SeqCanonicalizer) runs — `maybe` starts
/// all-ones and each kept pass applies `(maybe | produces) & !clears` — and
/// executing every pass it would have dropped as a no-op theorem. Dropped
/// passes do not advance the dataflow (they provably changed nothing),
/// mirroring the canonicalizer exactly. The label is the pass that was
/// predicted subsumed but fired anyway; the false claim lives in the kept
/// prefix (an overstated `clears` or an understated `produces`/`fires_on`).
fn subsumption_trial(
    reg: &Registry,
    m: &Module,
    seq: &[PassId],
    counts: &mut [u64; 2],
) -> Option<(String, String)> {
    let (fires, clears, produces) = (reg.fires_on(), reg.clears(), reg.produces());
    let mut cur = m.clone();
    let mut maybe = u64::MAX;
    for &id in seq {
        let (pass, i) = (reg.pass(id), id.0 as usize);
        counts[1] += 1;
        if fires[i].is_some_and(|f| f & maybe == 0) {
            counts[0] += 1;
            if let Some(breach) = noop_breach(pass, &mut cur) {
                return Some((
                    pass.name().to_string(),
                    format!("predicted-subsumed pass {breach}"),
                ));
            }
        } else {
            pass.run(&mut cur, &mut Stats::new());
            maybe = (maybe | produces[i]) & !clears[i];
        }
    }
    None
}

/// Fuzz the shipped registry: random generated modules × random sequences
/// through the verifier, the sanitizer and the interpreter differential.
/// `progress` receives one line per module (pass `|_| {}` to silence).
pub fn run_campaign(cfg: &FuzzConfig, progress: impl FnMut(&str)) -> Report {
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    pm.verify_each = true;
    pm.sanitize = true;
    drive(cfg, &reg, "fuzz", progress, |m, seq, _| fuzz_trial(&pm, m, seq))
}

/// Soundness-fuzz the precondition oracle of every pass in `reg`: every
/// `CannotFire` verdict seen along a random sequence is executed and must
/// change nothing.
pub fn run_oracle_campaign(cfg: &FuzzConfig, reg: &Registry, progress: impl FnMut(&str)) -> Report {
    drive(cfg, reg, "oracle", progress, |m, seq, counts| oracle_trial(reg, m, seq, counts))
}

/// Soundness-fuzz the work-class subsumption matrix of `reg`. This exercises
/// all three mask claims at once — `fires_on` (the no-op certificate),
/// `clears` (the postcondition), and `produces` (the frame condition) — in
/// exactly the composition the search uses them.
pub fn run_subsumption_campaign(
    cfg: &FuzzConfig,
    reg: &Registry,
    progress: impl FnMut(&str),
) -> Report {
    drive(cfg, reg, "subsume", progress, |m, seq, counts| subsumption_trial(reg, m, seq, counts))
}

/// Soundness-fuzz the alias analysis: every `No`/`Must` answer for same-block
/// access pairs is a theorem about all executions, checked here against the
/// brute-force witness — a concrete interpretation recording every dynamic
/// access's address (see [`citroen_analyze::aliasoracle`]). Each generated
/// module is checked raw and after random pass pipelines (optimised shapes —
/// rotated loops, forwarded loads — are where an unsound analysis would
/// bite). A violating state is reduced over the module only, keeping a
/// contradicted claim reachable.
pub fn run_alias_campaign(cfg: &FuzzConfig, progress: impl FnMut(&str)) -> Report {
    use citroen_analyze::aliasoracle;
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    pm.verify_each = false;
    pm.sanitize = false;
    // A trapping or runaway module is no witness either way.
    let contradiction =
        |m: &Module| aliasoracle::check_module(m, entry(m), FUZZ_STEPS).ok()?.into_iter().next();
    let check = |m: &Module,
                 module_seed,
                 seq: String,
                 report: &mut Report,
                 progress: &mut dyn FnMut(&str)| {
        report.trials += 1;
        let (no, must) = aliasoracle::claim_count(m);
        report.counts[0] += no as u64;
        report.counts[1] += must as u64;
        let Some(v) = contradiction(m) else { return };
        progress(&format!("  VIOLATION ({v}) — reducing"));
        let reduced = reduce_module(m, |cand| contradiction(cand).is_some());
        report.violations.push(Violation {
            label: format!("{:?}-alias", v.claim.result).to_lowercase(),
            module_seed,
            reduced_seq: seq.clone(),
            seq,
            reduced_ir: print_module(&reduced),
            detail: v.to_string(),
        });
    };
    each_module(cfg, "alias", progress, |rng, report, progress, module_seed, module| {
        check(module, module_seed, String::new(), report, progress);
        for _ in 0..cfg.seqs_per_module {
            let len = rng.gen_range(1..=cfg.max_seq_len);
            let seq = random_seq(&reg, rng, len);
            let Ok(res) = pm.compile_result(module, &seq) else { continue };
            check(&res.module, module_seed, reg.seq_to_string(&seq), report, progress);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_clean() {
        // The shipped passes must survive a small deterministic campaign;
        // this is the `cargo test` face of `citroen-analyze --smoke`.
        let report = run_campaign(&FuzzConfig::smoke(), |_| {});
        assert!(report.trials >= 12);
        for f in &report.violations {
            panic!(
                "fuzz failure ({}: {}) seed {:#x}\n  seq: {}\n  reduced seq: {}\n{}",
                f.label, f.detail, f.module_seed, f.seq, f.reduced_seq, f.reduced_ir
            );
        }
    }

    #[test]
    fn oracle_smoke_campaign_is_clean() {
        // Every shipped precondition must uphold its CannotFire theorem on
        // a small deterministic campaign (the full 500-trial version runs in
        // release via `citroen-analyze oracle` / scripts/check.sh).
        let cfg = FuzzConfig { modules: 6, seqs_per_module: 5, max_seq_len: 12, seed: 7 };
        let report = run_oracle_campaign(&cfg, &Registry::full(), |_| {});
        assert_eq!(report.trials, 30);
        // The campaign only proves something if verdicts were actually
        // executed: a trivially-MayFire oracle would make this test vacuous.
        let [checked, verdicts] = report.counts;
        assert!(
            checked >= verdicts / 10,
            "only {checked}/{verdicts} verdicts were CannotFire — oracle too weak to test"
        );
        for v in &report.violations {
            panic!(
                "oracle violation: pass '{}' ({}) seed {:#x}\n  seq: {}\n  reduced: {}\n{}",
                v.label, v.detail, v.module_seed, v.seq, v.reduced_seq, v.reduced_ir
            );
        }
    }

    #[test]
    fn subsumption_smoke_campaign_is_clean() {
        // Every claimed work-class theorem (fires_on/clears/produces of the
        // shipped registry) must survive a small deterministic campaign; the
        // full 500-trial version runs via `citroen-analyze subsume`.
        let cfg = FuzzConfig { modules: 6, seqs_per_module: 5, max_seq_len: 12, seed: 7 };
        let report = run_subsumption_campaign(&cfg, &Registry::full(), |_| {});
        assert_eq!(report.trials, 30);
        // Vacuity guard: the campaign only proves something if drops were
        // actually predicted and executed.
        let [drops, positions] = report.counts;
        assert!(
            drops > 0,
            "no drops predicted over {positions} positions — matrix too weak to test"
        );
        for v in &report.violations {
            panic!(
                "subsumption violation: pass '{}' ({}) seed {:#x}\n  seq: {}\n  reduced: {}\n{}",
                v.label, v.detail, v.module_seed, v.seq, v.reduced_seq, v.reduced_ir
            );
        }
    }

    #[test]
    fn subsumption_campaign_convicts_lying_clears() {
        // A registry spiked with the pass that claims `clears == ALL` while
        // doing nothing must produce violations, and ddmin must shrink every
        // reproducer to the lie plus the one pass it falsely subsumed.
        let mut passes = citroen_passes::passes::all_passes();
        passes.push(Box::new(citroen_passes::testing::LyingSubsumption));
        let reg = Registry::from_passes(passes);
        let cfg = FuzzConfig { modules: 3, seqs_per_module: 8, max_seq_len: 16, seed: 28 };
        let report = run_subsumption_campaign(&cfg, &reg, |_| {});
        assert!(
            !report.violations.is_empty(),
            "the lying clears claim must be caught ({} trials)",
            report.trials
        );
        for v in &report.violations {
            let parts: Vec<&str> = v.reduced_seq.split(',').collect();
            assert_eq!(
                parts.first().copied(),
                Some("lying-subsumption"),
                "reduction must pin the lie first: {}",
                v.reduced_seq
            );
            assert_eq!(
                parts.len(),
                2,
                "minimal reproducer is the lie plus its victim: {}",
                v.reduced_seq
            );
            assert!(!v.reduced_ir.is_empty());
        }
    }

    #[test]
    fn alias_campaign_is_clean_and_exercises_both_claims() {
        let cfg = FuzzConfig { modules: 6, seqs_per_module: 3, max_seq_len: 10, seed: 0xA11A5 };
        let report = run_alias_campaign(&cfg, |_| {});
        assert_eq!(report.modules, 6);
        assert!(report.trials >= 6, "raw modules always checked: {}", report.trials);
        let [no, must] = report.counts;
        assert!(no > 0, "campaign must test No claims");
        assert!(must > 0, "campaign must test Must claims");
        for v in &report.violations {
            panic!(
                "alias violation: seed {:#x} seq [{}]\n  {}\n{}",
                v.module_seed, v.seq, v.detail, v.reduced_ir
            );
        }
    }

    #[test]
    fn oracle_campaign_convicts_lying_alias_precondition() {
        // The alias-flavoured lie: CannotFire claimed whenever the only
        // forwarding candidates flow through computed addresses. Generated
        // modules carry alloca-backed store→load pairs, so the campaign must
        // catch it, and ddmin must pin each reproducer to the lie alone.
        let mut passes = citroen_passes::passes::all_passes();
        passes.push(Box::new(citroen_passes::testing::LyingAliasPrecondition));
        let reg = Registry::from_passes(passes);
        let cfg = FuzzConfig { modules: 3, seqs_per_module: 8, max_seq_len: 16, seed: 11 };
        let report = run_oracle_campaign(&cfg, &reg, |_| {});
        assert!(
            !report.violations.is_empty(),
            "the alias lie must be caught ({} trials)",
            report.trials
        );
        for v in &report.violations {
            assert_eq!(
                v.label, "lying-alias-precondition",
                "only the spiked pass may be convicted"
            );
            assert_eq!(
                v.reduced_seq, "lying-alias-precondition",
                "ddmin must shrink the sequence to the lie alone"
            );
            assert!(!v.reduced_ir.is_empty());
        }
    }

    #[test]
    fn oracle_campaign_convicts_lying_precondition() {
        // A registry spiked with the deliberately lying pass must produce
        // violations, and ddmin must reduce each reproducer to the lie alone.
        let mut passes = citroen_passes::passes::all_passes();
        passes.push(Box::new(citroen_passes::testing::LyingPrecondition));
        let reg = Registry::from_passes(passes);
        // The lying pass is 1 of 33, so keep enough slots that some drawn
        // sequence deterministically contains it under this seed.
        let cfg = FuzzConfig { modules: 3, seqs_per_module: 8, max_seq_len: 16, seed: 11 };
        let report = run_oracle_campaign(&cfg, &reg, |_| {});
        assert!(
            !report.violations.is_empty(),
            "the lying pass must be caught ({} trials)",
            report.trials
        );
        for v in &report.violations {
            assert_eq!(v.label, "lying-precondition", "only the spiked pass may be convicted");
            assert_eq!(
                v.reduced_seq, "lying-precondition",
                "ddmin must shrink the sequence to the lie alone"
            );
            assert!(!v.reduced_ir.is_empty());
        }
    }
}
