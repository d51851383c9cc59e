//! Golden reports of the `citroen-analyze` soundness campaigns.
//!
//! Each row runs one campaign at the configuration of its unit test in
//! `src/fuzz.rs` / `src/mine.rs` (the `--smoke` fuzz budget, the clean and
//! lying-registry oracle and subsumption runs, the alias run, and
//! `MineConfig::smoke()`) and pins its trial count and every counter it
//! reports. A second table pins each violation: its label (failure kind or
//! pass name), module seed, original and reduced sequence, and an FNV digest
//! of the reduced module's IR. Mined edges refuted during promotion are
//! pinned the same way, labelled `p -> q`, with the refuting trial's detail
//! in the sequence column.
//!
//! Campaigns are seeded, so any change to an RNG draw, a trial, a counter or
//! a reducer moves a row. On a mismatch a test prints its whole observed
//! table in the source format below, so an intended change can be re-pinned
//! by pasting it over the table.

use citroen::fuzz::{
    run_alias_campaign, run_campaign, run_oracle_campaign, run_subsumption_campaign, FuzzConfig,
    Report,
};
use citroen::ir::print::Fnv64;
use citroen::mine::{run_mine_campaign, MineConfig};
use citroen::passes::{Pass, Registry};

/// `(campaign, counters)`.
type CampaignRow = (&'static str, &'static str);

/// `(campaign, label, module seed, sequence, reduced sequence, reduced-IR digest)`.
type ViolationRow = (&'static str, &'static str, u64, &'static str, &'static str, u64);

#[rustfmt::skip]
const CAMPAIGN_GOLDEN: &[CampaignRow] = &[
    ("fuzz-smoke", "trials=12 violations=0"),
    ("oracle-clean", "trials=30 checked_cannot_fire=152 verdicts=213 violations=0"),
    ("oracle-lying", "trials=24 checked_cannot_fire=147 verdicts=195 violations=6"),
    ("oracle-lying-alias", "trials=24 checked_cannot_fire=147 verdicts=195 violations=6"),
    ("subsume-clean", "trials=30 checked_drops=5 positions=213 violations=0"),
    ("subsume-lying", "trials=24 checked_drops=11 positions=190 violations=4"),
    ("alias", "modules=6 trials=24 no_claims=296 must_claims=89 violations=0"),
    ("mine-smoke", "adjacencies=520 pairs_seen=403 implied=1 (0xb4699180af04fa3b) promoted=49 (0x9065b0e10c324900) refuted=27 drop_trials=2112"),
];

#[rustfmt::skip]
const VIOLATION_GOLDEN: &[ViolationRow] = &[
    ("oracle-lying", "lying-precondition", 0xdc1abbcc6a694280, "function-attrs,div-rem-pairs,strength-reduce,loop-rotate,inline,loop-rotate,tailcallelim,instsimplify,early-cse,lying-precondition,dce,dse,dce,dce,dse,early-cse", "lying-precondition", 0x8ace76df919501e1),
    ("oracle-lying", "lying-precondition", 0xab8f1c512563fe11, "mem2reg,simplifycfg,loop-deletion,function-attrs,inline,dse,lying-precondition,loop-simplify,mem2reg,loop-idiom,loop-simplify,licm,loop-deletion", "lying-precondition", 0x22c6c7cea1217493),
    ("oracle-lying", "lying-precondition", 0xab8f1c512563fe11, "gvn,lying-precondition,instsimplify,instcombine,dce,instsimplify,lying-precondition,loop-idiom", "lying-precondition", 0x22c6c7cea1217493),
    ("oracle-lying", "lying-precondition", 0xab8f1c512563fe11, "gvn,loop-idiom,aggressive-instcombine,lying-precondition,reassociate,mem2reg,instsimplify,loop-deletion,mem2reg", "lying-precondition", 0x22c6c7cea1217493),
    ("oracle-lying", "lying-precondition", 0xab8f1c512563fe11, "sink,div-rem-pairs,early-cse,simplifycfg,licm,instcombine,loop-rotate,vector-combine,lying-precondition,inline,jump-threading", "lying-precondition", 0x22c6c7cea1217493),
    ("oracle-lying", "lying-precondition", 0xab8f1c512563fe11, "jump-threading,div-rem-pairs,loop-unroll,lying-precondition,inline,simplifycfg,reassociate,sroa,sccp", "lying-precondition", 0x22c6c7cea1217493),
    ("oracle-lying-alias", "lying-alias-precondition", 0xdc1abbcc6a694280, "function-attrs,div-rem-pairs,strength-reduce,loop-rotate,inline,loop-rotate,tailcallelim,instsimplify,early-cse,lying-alias-precondition,dce,dse,dce,dce,dse,early-cse", "lying-alias-precondition", 0x210b2dcfcd9ad7e9),
    ("oracle-lying-alias", "lying-alias-precondition", 0xab8f1c512563fe11, "mem2reg,simplifycfg,loop-deletion,function-attrs,inline,dse,lying-alias-precondition,loop-simplify,mem2reg,loop-idiom,loop-simplify,licm,loop-deletion", "lying-alias-precondition", 0xbadb5f834a4fe487),
    ("oracle-lying-alias", "lying-alias-precondition", 0xab8f1c512563fe11, "gvn,lying-alias-precondition,instsimplify,instcombine,dce,instsimplify,lying-alias-precondition,loop-idiom", "lying-alias-precondition", 0xbadb5f834a4fe487),
    ("oracle-lying-alias", "lying-alias-precondition", 0xab8f1c512563fe11, "gvn,loop-idiom,aggressive-instcombine,lying-alias-precondition,reassociate,mem2reg,instsimplify,loop-deletion,mem2reg", "lying-alias-precondition", 0xbadb5f834a4fe487),
    ("oracle-lying-alias", "lying-alias-precondition", 0xab8f1c512563fe11, "sink,div-rem-pairs,early-cse,simplifycfg,licm,instcombine,loop-rotate,vector-combine,lying-alias-precondition,inline,jump-threading", "lying-alias-precondition", 0xbadb5f834a4fe487),
    ("oracle-lying-alias", "lying-alias-precondition", 0xab8f1c512563fe11, "jump-threading,div-rem-pairs,loop-unroll,lying-alias-precondition,inline,simplifycfg,reassociate,sroa,sccp", "lying-alias-precondition", 0xbadb5f834a4fe487),
    ("subsume-lying", "function-attrs", 0xe720ca2f4721d108, "vector-combine,lying-subsumption,function-attrs,loop-unroll,div-rem-pairs,mem2reg,adce,loop-deletion,loop-rotate,early-cse,div-rem-pairs", "lying-subsumption,function-attrs", 0xc18bee14332a145c),
    ("subsume-lying", "dce", 0xfa33f62109e5c00a, "jump-threading,lying-subsumption,loop-simplify,dce,sink,loop-vectorize,gvn,vector-combine,licm,early-cse,loop-vectorize,loop-simplify,vector-combine,loop-rotate,indvars", "lying-subsumption,dce", 0x924e64672eb4228f),
    ("subsume-lying", "mem2reg", 0x7c6b61b6cb90279b, "early-cse,loop-deletion,strength-reduce,lying-subsumption,loop-deletion,mem2reg,reassociate,correlated-propagation,licm,mem2reg,sroa,aggressive-instcombine,constprop,gvn,inline,div-rem-pairs", "lying-subsumption,mem2reg", 0xcd1992d37886c3b7),
    ("subsume-lying", "early-cse", 0x7c6b61b6cb90279b, "lying-subsumption,early-cse,mem2reg,simplifycfg,sccp,lying-subsumption,adce,mem2reg,instcombine,early-cse,dse,loop-vectorize,early-cse", "lying-subsumption,early-cse", 0xa6d72f5af6f36048),
    ("mine-smoke", "simplifycfg -> early-cse", 0x7b4d3acc6aca7592, "'early-cse' fired after [dce,licm,simplifycfg] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "instsimplify -> function-attrs", 0x22962e5f260fea1f, "'function-attrs' fired after [loop-idiom,jump-threading,correlated-propagation,mem2reg,instsimplify] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "constprop -> adce", 0x52b07d8f7b803569, "'adce' fired after [constprop] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "reassociate -> function-attrs", 0x3484be39387238e9, "'function-attrs' fired after [vector-combine,indvars,reassociate] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "div-rem-pairs -> loop-rotate", 0xaba2e42f88a8b93c, "'loop-rotate' fired after [div-rem-pairs] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "vector-combine -> simplifycfg", 0x99795a4695cf8a87, "'simplifycfg' fired after [inline,sccp,vector-combine] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "vector-combine -> dse", 0x0a5d4d93b5b3711f, "'dse' fired after [early-cse,licm,vector-combine] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "aggressive-instcombine -> instsimplify", 0x33695723bef37a7c, "'instsimplify' fired after [aggressive-instcombine] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "gvn -> constprop", 0xc325e0a2b7699de8, "'constprop' fired after [indvars,loop-vectorize,jump-threading,function-attrs,gvn] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "sccp -> gvn", 0xc8ae3e1ec531ff58, "'gvn' fired after [strength-reduce,aggressive-instcombine,reassociate,sccp] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "sccp -> function-attrs", 0xd0790d7fe369f323, "'function-attrs' fired after [loop-idiom,dse,gvn,sccp] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "adce -> sccp", 0x31e1b2054a71cf75, "'sccp' fired after [div-rem-pairs,sink,licm,adce] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "adce -> function-attrs", 0xfa4c94e24055a5d3, "'function-attrs' fired after [instsimplify,adce] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "correlated-propagation -> constprop", 0x9ce84efe458b6582, "'constprop' fired after [div-rem-pairs,slp-vectorizer,loop-simplify,correlated-propagation] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "correlated-propagation -> vector-combine", 0xcec612b0fbf70ab1, "'vector-combine' fired after [correlated-propagation] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "loop-simplify -> reassociate", 0x63e256f14c4c2df5, "'reassociate' fired after [dse,tailcallelim,div-rem-pairs,licm,loop-simplify] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "loop-simplify -> dce", 0xc73f5a1550d4b662, "'dce' fired after [sink,mem2reg,loop-unroll,loop-simplify] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "loop-rotate -> licm", 0xf6cfb80acf6ebd7e, "'licm' fired after [mem2reg,function-attrs,loop-rotate] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "licm -> vector-combine", 0x5173ff9fc73942c9, "'vector-combine' fired after [inline,licm] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "indvars -> dse", 0xfeb84db0a35732e4, "'dse' fired after [gvn,instcombine,loop-deletion,inline,indvars] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "loop-unroll -> dse", 0x2656eeea69ca0878, "'dse' fired after [tailcallelim,licm,early-cse,loop-unroll] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "loop-unroll -> inline", 0x42f715731781ef05, "'inline' fired after [loop-unroll,strength-reduce,function-attrs,loop-unroll] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "slp-vectorizer -> constprop", 0x2bc8573819572b7a, "'constprop' fired after [slp-vectorizer] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "slp-vectorizer -> loop-rotate", 0x2077328a2a780da6, "'loop-rotate' fired after [vector-combine,mem2reg,slp-vectorizer] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "loop-idiom -> adce", 0x42ff08c270b6d821, "'adce' fired after [div-rem-pairs,loop-idiom] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "function-attrs -> early-cse", 0x5a072058d5a364e8, "'early-cse' fired after [indvars,loop-simplify,vector-combine,function-attrs] on a generated module", "", 0xcbf29ce484222325),
    ("mine-smoke", "tailcallelim -> function-attrs", 0x06f2fd67c116dc03, "'function-attrs' fired after [gvn,aggressive-instcombine,early-cse,tailcallelim] on a generated module", "", 0xcbf29ce484222325),
];

/// Observed rows, with owned strings.
#[derive(Default)]
struct Observed {
    campaigns: Vec<(&'static str, String)>,
    violations: Vec<(&'static str, String, u64, String, String, u64)>,
}

impl Observed {
    fn violation(
        &mut self,
        campaign: &'static str,
        label: &str,
        seed: u64,
        seq: &str,
        reduced: &str,
        ir: &str,
    ) {
        let mut h = Fnv64::new();
        h.write(ir.as_bytes());
        self.violations.push((
            campaign,
            label.into(),
            seed,
            seq.into(),
            reduced.into(),
            h.finish(),
        ));
    }

    /// One campaign row (its counters rendered by the caller) and its
    /// violations.
    fn report(&mut self, campaign: &'static str, counters: String, r: &Report) {
        self.campaigns.push((campaign, counters));
        for v in &r.violations {
            self.violation(
                campaign,
                &v.label,
                v.module_seed,
                &v.seq,
                &v.reduced_seq,
                &v.reduced_ir,
            );
        }
    }
}

fn small(modules: usize, seqs_per_module: usize, max_seq_len: usize, seed: u64) -> FuzzConfig {
    FuzzConfig { modules, seqs_per_module, max_seq_len, seed }
}

fn spiked(lie: Box<dyn Pass>) -> Registry {
    let mut passes = citroen::passes::passes::all_passes();
    passes.push(lie);
    Registry::from_passes(passes)
}

fn observe() -> Observed {
    let mut o = Observed::default();

    let r = run_campaign(&FuzzConfig::smoke(), |_| {});
    let counters = format!("trials={} violations={}", r.trials, r.violations.len());
    o.report("fuzz-smoke", counters, &r);

    let oracle_rows: [(&'static str, FuzzConfig, Registry); 3] = [
        ("oracle-clean", small(6, 5, 12, 7), Registry::full()),
        (
            "oracle-lying",
            small(3, 8, 16, 11),
            spiked(Box::new(citroen::passes::testing::LyingPrecondition)),
        ),
        (
            "oracle-lying-alias",
            small(3, 8, 16, 11),
            spiked(Box::new(citroen::passes::testing::LyingAliasPrecondition)),
        ),
    ];
    for (name, cfg, reg) in &oracle_rows {
        let r = run_oracle_campaign(cfg, reg, |_| {});
        let [checked, verdicts] = r.counts;
        let counters = format!(
            "trials={} checked_cannot_fire={checked} verdicts={verdicts} violations={}",
            r.trials,
            r.violations.len()
        );
        o.report(name, counters, &r);
    }

    let subsume_rows: [(&'static str, FuzzConfig, Registry); 2] = [
        ("subsume-clean", small(6, 5, 12, 7), Registry::full()),
        (
            "subsume-lying",
            small(3, 8, 16, 28),
            spiked(Box::new(citroen::passes::testing::LyingSubsumption)),
        ),
    ];
    for (name, cfg, reg) in &subsume_rows {
        let r = run_subsumption_campaign(cfg, reg, |_| {});
        let [drops, positions] = r.counts;
        let counters = format!(
            "trials={} checked_drops={drops} positions={positions} violations={}",
            r.trials,
            r.violations.len()
        );
        o.report(name, counters, &r);
    }

    let r = run_alias_campaign(&small(6, 3, 10, 0xA11A5), |_| {});
    let [no, must] = r.counts;
    let counters = format!(
        "modules={} trials={} no_claims={no} must_claims={must} violations={}",
        r.modules,
        r.trials,
        r.violations.len()
    );
    o.report("alias", counters, &r);

    let r = run_mine_campaign(&MineConfig::smoke(), |_| {});
    let reg = Registry::full();
    let edge = |p, q| format!("{} -> {}", reg.pass(p).name(), reg.pass(q).name());
    let edges = |es: &[citroen::mine::MinedEdge]| {
        let mut h = Fnv64::new();
        es.iter()
            .for_each(|e| h.write(format!("{} {};", edge(e.p, e.q), e.observations).as_bytes()));
        h.finish()
    };
    o.campaigns.push((
        "mine-smoke",
        format!(
            "adjacencies={} pairs_seen={} implied={} ({:#018x}) promoted={} ({:#018x}) refuted={} \
             drop_trials={}",
            r.adjacencies,
            r.pairs_seen,
            r.statically_implied.len(),
            edges(&r.statically_implied),
            r.promoted.len(),
            edges(&r.promoted),
            r.refuted.len(),
            r.drop_trials
        ),
    ));
    for v in &r.refuted {
        o.violation("mine-smoke", &edge(v.edge.p, v.edge.q), v.module_seed, &v.detail, "", "");
    }
    o
}

#[test]
fn campaign_reports_match_the_golden_tables() {
    let o = observe();
    let campaigns_match =
        o.campaigns.iter().map(|(c, s)| (*c, s.as_str())).eq(CAMPAIGN_GOLDEN.iter().copied());
    let violations_match = o
        .violations
        .iter()
        .map(|(c, l, s, q, r, d)| (*c, l.as_str(), *s, q.as_str(), r.as_str(), *d))
        .eq(VIOLATION_GOLDEN.iter().copied());
    if !(campaigns_match && violations_match) {
        eprintln!("observed CAMPAIGN_GOLDEN:");
        for (c, s) in &o.campaigns {
            eprintln!("    (\"{c}\", \"{s}\"),");
        }
        eprintln!("observed VIOLATION_GOLDEN:");
        for (c, l, s, q, r, d) in &o.violations {
            eprintln!("    (\"{c}\", \"{l}\", {s:#018x}, \"{q}\", \"{r}\", {d:#018x}),");
        }
        panic!("campaign reports moved (campaigns match: {campaigns_match}, violations match: {violations_match})");
    }
}
