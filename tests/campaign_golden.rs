//! Golden reports of the `citroen-analyze` soundness campaigns.
//!
//! Each row runs one campaign at the configuration of its unit test in
//! `src/fuzz.rs` (the `--smoke` fuzz budget and the alias run) and pins its
//! module and trial counts, every counter it reports and its violation
//! count.
//!
//! Campaigns are seeded, so any change to an RNG draw, a trial or a counter
//! moves a row. On a mismatch the test prints its whole observed table in
//! the source format below, so an intended change can be re-pinned by
//! pasting it over the table.

use citroen::fuzz::{run_alias_campaign, run_campaign, FuzzConfig};

/// `(campaign, counters)`.
type CampaignRow = (&'static str, &'static str);

#[rustfmt::skip]
const CAMPAIGN_GOLDEN: &[CampaignRow] = &[
    ("fuzz-smoke", "trials=12 violations=0"),
    ("alias", "modules=6 trials=24 no_claims=296 must_claims=89 violations=0"),
];

fn observe() -> Vec<(&'static str, String)> {
    let r = run_campaign(&FuzzConfig::smoke(), |_| {});
    let fuzz = format!("trials={} violations={}", r.trials, r.violations.len());

    let cfg = FuzzConfig { modules: 6, seqs_per_module: 3, max_seq_len: 10, seed: 0xA11A5 };
    let r = run_alias_campaign(&cfg, |_| {});
    let [no, must] = r.counts;
    let alias = format!(
        "modules={} trials={} no_claims={no} must_claims={must} violations={}",
        r.modules,
        r.trials,
        r.violations.len()
    );
    vec![("fuzz-smoke", fuzz), ("alias", alias)]
}

#[test]
fn campaign_reports_match_the_golden_tables() {
    let observed = observe();
    if !observed.iter().map(|(c, s)| (*c, s.as_str())).eq(CAMPAIGN_GOLDEN.iter().copied()) {
        eprintln!("observed CAMPAIGN_GOLDEN:");
        for (c, s) in &observed {
            eprintln!("    (\"{c}\", \"{s}\"),");
        }
        panic!("campaign reports moved");
    }
}
