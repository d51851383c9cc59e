//! Pass registry, pass manager and the reference optimisation pipelines.
//!
//! The tuners search over *sequences of pass ids* ([`PassSeq`]); the manager
//! applies a sequence to a module, collecting per-pass [`Stats`]. This is the
//! stand-in for driving `opt -stats -stats-json` (DESIGN.md §1).

use crate::noop::{NoopMemo, StateKey};
use crate::passes;
use crate::stats::Stats;
use citroen_ir::module::Module;
use citroen_ir::verify;
use citroen_telemetry as telemetry;

/// A transformation pass.
pub trait Pass: Sync + Send {
    /// Stable pass name (used in statistics keys and pipelines).
    fn name(&self) -> &'static str;
    /// Transform `m`, recording statistics.
    fn run(&self, m: &mut Module, stats: &mut Stats);
}

/// Index of a pass in the [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PassId(pub u16);

/// A pass sequence — the genome the phase-ordering tuners search over.
pub type PassSeq = Vec<PassId>;

/// The set of passes available to the tuner.
pub struct Registry {
    passes: Vec<Box<dyn Pass>>,
    /// Each pass's telemetry names, in id order.
    names: Vec<TraceNames>,
}

/// A pass's telemetry names: its span (`pass.<name>`) and its run and
/// statistics counters (`pass.<name>.runs`, `pass.<name>.stats`).
#[derive(Clone, Copy)]
struct TraceNames {
    span: &'static str,
    runs: &'static str,
    stats: &'static str,
}

impl TraceNames {
    /// The names of pass `name`, built once per distinct name in the
    /// process and shared by every registry, so a traced pass run formats
    /// nothing and the strings leak at most once each.
    fn of(name: &'static str) -> TraceNames {
        static INTERNED: std::sync::Mutex<Vec<(&'static str, TraceNames)>> =
            std::sync::Mutex::new(Vec::new());
        let mut interned = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, t)) = interned.iter().find(|(n, _)| *n == name) {
            return *t;
        }
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let t = TraceNames {
            span: leak(format!("pass.{name}")),
            runs: leak(format!("pass.{name}.runs")),
            stats: leak(format!("pass.{name}.stats")),
        };
        interned.push((name, t));
        t
    }
}

impl Registry {
    /// The full registry (every pass in this crate), mirroring the paper's
    /// "76 passes of LLVM 17 -O3" universe (Table 5.3).
    pub fn full() -> Registry {
        Registry::from_passes(passes::all_passes())
    }

    /// A registry over an explicit pass list. Used by tests that need extra
    /// (e.g. deliberately broken) passes alongside the real ones.
    pub fn from_passes(passes: Vec<Box<dyn Pass>>) -> Registry {
        let names = passes.iter().map(|p| TraceNames::of(p.name())).collect();
        Registry { passes, names }
    }

    /// A reduced registry standing in for the older "LLVM 10" pass universe
    /// used in Fig. 5.10 (no vectorisers beyond basic SLP, no aggressive
    /// combines, no modern loop passes).
    pub fn llvm10() -> Registry {
        let keep = [
            "mem2reg",
            "sroa",
            "simplifycfg",
            "instcombine",
            "instsimplify",
            "early-cse",
            "gvn",
            "sccp",
            "dce",
            "adce",
            "dse",
            "reassociate",
            "licm",
            "loop-simplify",
            "loop-rotate",
            "loop-unroll",
            "loop-deletion",
            "indvars",
            "inline",
            "jump-threading",
            "constprop",
            "sink",
            "slp-vectorizer",
            "tailcallelim",
        ];
        let passes = passes::all_passes()
            .into_iter()
            .filter(|p| keep.contains(&p.name()))
            .collect();
        Registry::from_passes(passes)
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Pass by id.
    pub fn pass(&self, id: PassId) -> &dyn Pass {
        self.passes[id.0 as usize].as_ref()
    }

    /// Name of a pass id.
    pub fn name(&self, id: PassId) -> &'static str {
        self.pass(id).name()
    }

    /// Find a pass id by name.
    pub fn by_name(&self, name: &str) -> Option<PassId> {
        self.passes.iter().position(|p| p.name() == name).map(|i| PassId(i as u16))
    }

    /// All pass ids.
    pub fn ids(&self) -> Vec<PassId> {
        (0..self.passes.len()).map(|i| PassId(i as u16)).collect()
    }

    /// All pass names, in id order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Parse a comma/space separated list of pass names into a sequence.
    pub fn parse_seq(&self, s: &str) -> Result<PassSeq, String> {
        s.split([',', ' '])
            .filter(|t| !t.is_empty())
            .map(|t| self.by_name(t).ok_or_else(|| format!("unknown pass '{t}'")))
            .collect()
    }

    /// Render a sequence as comma-separated names.
    pub fn seq_to_string(&self, seq: &[PassId]) -> String {
        seq.iter().map(|id| self.name(*id)).collect::<Vec<_>>().join(",")
    }
}

/// Outcome of compiling a module with a pass sequence.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The optimised module.
    pub module: Module,
    /// Compilation statistics collected across the sequence.
    pub stats: Stats,
    /// Structural fingerprint of the optimised module (the "binary hash").
    pub fingerprint: u64,
    /// Pass runs of the sequence a no-op memo answered (0 without one).
    pub skipped: usize,
}

/// A compile's state after a prefix of its sequence: the module so far and
/// the statistics the prefix recorded. Resuming the rest of the sequence
/// from it reaches exactly what the whole sequence reaches from the source,
/// since a pass reads nothing but the module and `Stats` only sums.
#[derive(Debug, Clone)]
pub struct Prefix {
    /// The module after the prefix.
    pub module: Module,
    /// Statistics the prefix recorded.
    pub stats: Stats,
}

impl Prefix {
    /// The empty prefix of any sequence on `m`.
    pub fn source(m: &Module) -> Prefix {
        Prefix { module: m.clone(), stats: Stats::new() }
    }
}

/// Why a compilation was rejected mid-pipeline.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// A pass left the module structurally malformed.
    Verify {
        /// Name of the offending pass.
        pass: &'static str,
        /// Verifier diagnostics.
        errors: Vec<verify::VerifyError>,
    },
    /// A pass kept the module well-formed but the translation-validation
    /// sanitizer proved it changed observable semantics.
    Sanitize {
        /// Name of the offending pass.
        pass: &'static str,
        /// Sanitizer contradictions.
        violations: Vec<citroen_analyze::sanitize::Violation>,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Verify { pass, errors } => {
                let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                write!(f, "pass '{pass}' broke the IR: {}", msgs.join("; "))
            }
            CompileError::Sanitize { pass, violations } => {
                let msgs: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                write!(f, "pass '{pass}' failed translation validation: {}", msgs.join("; "))
            }
        }
    }
}

/// Applies pass sequences to modules.
pub struct PassManager<'r> {
    registry: &'r Registry,
    /// Verify the module after every pass (slower; used by tests and fuzzing).
    pub verify_each: bool,
    /// Run the translation-validation sanitizer after every pass (slower
    /// still). Defaults to the `verify_each` default; `CITROEN_SANITIZE=1`/`0`
    /// overrides in either direction.
    pub sanitize: bool,
}

impl<'r> PassManager<'r> {
    /// Manager over `registry`. Verification and sanitizing between passes
    /// are enabled in debug builds by default; `CITROEN_SANITIZE` overrides
    /// the latter.
    pub fn new(registry: &'r Registry) -> PassManager<'r> {
        let sanitize = match std::env::var("CITROEN_SANITIZE").ok().as_deref() {
            Some("0") => false,
            Some(_) => true,
            None => cfg!(debug_assertions),
        };
        PassManager { registry, verify_each: cfg!(debug_assertions), sanitize }
    }

    /// Apply `seq` to a copy of `m`, returning the optimised module, the
    /// collected statistics, and the binary fingerprint. Panics if a pass
    /// breaks verification or translation validation — the contract every
    /// pass must uphold; use [`PassManager::compile_result`] to observe the
    /// failure instead (the fuzzer does).
    pub fn compile(&self, m: &Module, seq: &[PassId]) -> CompileResult {
        match self.compile_result(m, seq) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Apply `seq` to a copy of `m`; a verifier or sanitizer rejection is
    /// returned as an error naming the offending pass.
    pub fn compile_result(&self, m: &Module, seq: &[PassId]) -> Result<CompileResult, CompileError> {
        self.resume(Prefix::source(m), seq, None, |_, _| {})
    }

    /// Continue a compile from `state` through `seq`. After the `k`-th pass
    /// of `seq`, `at(k, &state)` sees the state so far, so a caller can
    /// keep the states that other sequences sharing this prefix resume
    /// from. The sanitizer's facts are computed from `state.module`, as
    /// they are from the source in [`PassManager::compile_result`], so a
    /// resumed compile is checked the way the straight one is.
    ///
    /// With `noop = Some((memo, source))`, where `source` identifies the
    /// source module `state` was reached from (see [`StateKey::of`]), a
    /// pass the memo knows changes nothing on the current state is skipped
    /// (`at` still sees its step), and a pass run that records no
    /// statistics and leaves the state key unchanged is recorded. The
    /// result is the one the compile reaches without a memo; the module
    /// doc of [`crate::noop`] argues why.
    pub fn resume(
        &self,
        mut state: Prefix,
        seq: &[PassId],
        noop: Option<(&NoopMemo, u64)>,
        mut at: impl FnMut(usize, &Prefix),
    ) -> Result<CompileResult, CompileError> {
        let mut facts = if self.sanitize {
            Some(citroen_analyze::sanitize::module_facts(&state.module))
        } else {
            None
        };
        let key_of = |m: &Module| noop.map(|(_, source)| StateKey::of(source, m));
        // The current state's fingerprint, from its key when there is one.
        let fp_of = |key: Option<StateKey>, m: &Module| {
            key.map_or_else(|| citroen_ir::print::fingerprint(m), |k| k.fingerprint())
        };
        let mut key = key_of(&state.module);
        let mut skipped = 0;
        // Sanitizer-guided scheduling: a pass that recorded zero statistics
        // *and* left the module fingerprint unchanged provably changed
        // nothing, so the S1–S8 re-analysis is a tautology (pre == post) and
        // is skipped. The fingerprint re-check (not the stats alone) keeps
        // the skip sound against a pass that mutates without counting.
        let mut fp_before = facts.as_ref().map(|_| fp_of(key, &state.module));
        for (k, &id) in seq.iter().enumerate() {
            if let (Some((memo, _)), Some(before)) = (noop, key) {
                if memo.skips(before, id) {
                    skipped += 1;
                    at(k + 1, &state);
                    continue;
                }
            }
            let pass = self.registry.pass(id);
            let names = self.registry.names[id.0 as usize];
            let Prefix { module, stats } = &mut state;
            let stats_total_before = stats.total();
            {
                let _pass_span = telemetry::span(names.span);
                pass.run(module, stats);
                if telemetry::is_enabled() {
                    telemetry::counter(names.runs, 1);
                    telemetry::counter(names.stats, stats.total() - stats_total_before);
                }
            }
            if self.verify_each {
                let _verify_span = telemetry::span("verify");
                let errors = verify::verify_module(module);
                if !errors.is_empty() {
                    return Err(CompileError::Verify { pass: pass.name(), errors });
                }
            }
            let key_now = key_of(module);
            let counted = stats.total() != stats_total_before;
            if let Some(pre) = &facts {
                let _sanitize_span = telemetry::span("sanitize");
                let fp_now = fp_of(key_now, module);
                if !counted && Some(fp_now) == fp_before {
                    telemetry::counter("citroen.sanitize.skips", 1);
                } else {
                    telemetry::counter("citroen.sanitize.runs", 1);
                    let post = citroen_analyze::sanitize::module_facts(module);
                    let violations = citroen_analyze::sanitize::check(pre, &post);
                    if !violations.is_empty() {
                        return Err(CompileError::Sanitize { pass: pass.name(), violations });
                    }
                    facts = Some(post);
                    fp_before = Some(fp_now);
                }
            }
            if let (Some((memo, _)), Some(before)) = (noop, key) {
                if !counted && key_now == key {
                    memo.record(before, id);
                }
            }
            key = key_now;
            at(k + 1, &state);
        }
        let fingerprint = fp_of(key, &state.module);
        Ok(CompileResult { module: state.module, stats: state.stats, fingerprint, skipped })
    }

    /// Apply a sequence given by pass names.
    pub fn compile_named(&self, m: &Module, names: &str) -> Result<CompileResult, String> {
        let seq = self.registry.parse_seq(names)?;
        Ok(self.compile(m, &seq))
    }
}

/// The reference `-O3`-style pipeline over the full registry. This is the
/// baseline every speedup in the experiments is measured against, mirroring
/// the structure (not the exact content) of LLVM's -O3: scalar cleanup,
/// inlining, loop canonicalisation + transforms, redundancy elimination,
/// vectorisation, late cleanup.
pub fn o3_pipeline(reg: &Registry) -> PassSeq {
    const NAMES: &[&str] = &[
        "mem2reg",
        "early-cse",
        "simplifycfg",
        "instcombine",
        "inline",
        "function-attrs",
        "sroa",
        "mem2reg",
        "early-cse",
        "jump-threading",
        "correlated-propagation",
        "simplifycfg",
        "instcombine",
        "tailcallelim",
        "reassociate",
        "loop-simplify",
        "loop-rotate",
        "licm",
        "simplifycfg",
        "instcombine",
        "indvars",
        "loop-idiom",
        "loop-deletion",
        "loop-unroll",
        "gvn",
        "sccp",
        "instcombine",
        "jump-threading",
        "correlated-propagation",
        "dse",
        "licm",
        "adce",
        "simplifycfg",
        "instcombine",
        "loop-vectorize",
        "slp-vectorizer",
        "vector-combine",
        "instcombine",
        "strength-reduce",
        "div-rem-pairs",
        "simplifycfg",
        "sink",
        "adce",
        "constprop",
    ];
    // Passes absent from a reduced registry (e.g. the LLVM-10-style subset)
    // are simply skipped — that registry's own "-O3".
    NAMES.iter().filter_map(|n| reg.by_name(n)).collect()
}

/// A shorter `-O1`-style cleanup pipeline.
pub fn o1_pipeline(reg: &Registry) -> PassSeq {
    const NAMES: &[&str] =
        &["mem2reg", "simplifycfg", "instcombine", "early-cse", "dce", "simplifycfg"];
    NAMES.iter().map(|n| reg.by_name(n).expect("O1 pass missing")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_everything_o3_needs() {
        let reg = Registry::full();
        assert!(reg.len() >= 30, "registry too small: {}", reg.len());
        let o3 = o3_pipeline(&reg);
        assert!(o3.len() >= 40);
        // names round-trip
        let s = reg.seq_to_string(&o3);
        let back = reg.parse_seq(&s).unwrap();
        assert_eq!(back, o3);
    }

    #[test]
    fn llvm10_registry_is_a_subset() {
        let full = Registry::full();
        let old = Registry::llvm10();
        assert!(old.len() < full.len());
        assert!(old.by_name("loop-vectorize").is_none());
        assert!(old.by_name("mem2reg").is_some());
    }

    #[test]
    fn unknown_pass_is_an_error() {
        let reg = Registry::full();
        assert!(reg.parse_seq("mem2reg,bogus").is_err());
    }
}
