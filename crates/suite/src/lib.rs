//! # citroen-suite
//!
//! Benchmark programs standing in for cBench and SPEC CPU 2017 (paper §5.4.3,
//! Table 5.4): hand-written compute kernels in the CITROEN IR, larger
//! multi-module "SPEC-like" programs, a seeded random program generator, and
//! a perf-style hot-module profiler.

#![warn(missing_docs)]

pub mod generator;
pub mod kernels;
pub mod profile;
pub mod speclike;

use citroen_ir::interp::Value;
use citroen_ir::module::Module;
use citroen_ir::FuncId;

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// cBench-like: small kernels, one or two modules, large headroom.
    CBench,
    /// SPEC-like: multi-module, larger, small headroom over -O3.
    Spec,
}

/// A benchmark program: one or more IR modules plus a workload.
pub struct Benchmark {
    /// Benchmark name (e.g. `telecom_gsm`).
    pub name: &'static str,
    /// Suite classification.
    pub suite: SuiteKind,
    /// Source modules; these are the paper's per-file optimisation units.
    pub modules: Vec<Module>,
    /// Name of the entry function (defined in one of the modules).
    pub entry: &'static str,
    /// Workload arguments for the entry function.
    pub args: Vec<Value>,
}

impl Benchmark {
    /// Link the (possibly separately optimised) modules into one executable
    /// module. Pass `None` to link the unoptimised sources.
    pub fn link_with(&self, optimised: Option<&[Module]>) -> Module {
        let mods = optimised.unwrap_or(&self.modules);
        citroen_ir::link(self.name, mods)
            .unwrap_or_else(|e| panic!("benchmark {} failed to link: {e}", self.name))
    }

    /// Link the unoptimised sources.
    pub fn link(&self) -> Module {
        self.link_with(None)
    }

    /// The entry function id within a linked module.
    pub fn entry_in(&self, linked: &Module) -> FuncId {
        linked
            .func_by_name(self.entry)
            .unwrap_or_else(|| panic!("entry '{}' missing in {}", self.entry, self.name))
    }
}

/// A suite program's name and constructor.
type Entry = (&'static str, fn() -> Benchmark);

/// The cBench-like suite's constructors, by program name.
const CBENCH: [Entry; 10] = [
    ("telecom_gsm", kernels::telecom_gsm),
    ("telecom_crc32", kernels::telecom_crc32),
    ("telecom_adpcm", kernels::telecom_adpcm),
    ("automotive_bitcount", kernels::automotive_bitcount),
    ("automotive_susan", kernels::automotive_susan),
    ("automotive_shellsort", kernels::automotive_shellsort),
    ("security_sha", kernels::security_sha),
    ("network_dijkstra", kernels::network_dijkstra),
    ("office_stringsearch", kernels::office_stringsearch),
    ("consumer_jpeg_dct", kernels::consumer_jpeg_dct),
];

/// The SPEC-like suite's constructors, by program name.
const SPEC: [Entry; 3] = [
    ("spec_compress", speclike::spec_compress),
    ("spec_imgproc", speclike::spec_imgproc),
    ("spec_simul", speclike::spec_simul),
];

/// The cBench-like suite.
pub fn cbench() -> Vec<Benchmark> {
    CBENCH.iter().map(|(_, build)| build()).collect()
}

/// The SPEC-like multi-module suite.
pub fn spec() -> Vec<Benchmark> {
    SPEC.iter().map(|(_, build)| build()).collect()
}

/// Every benchmark.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = cbench();
    v.extend(spec());
    v
}

/// Every benchmark's name, in [`all_benchmarks`] order, without building
/// any program.
pub fn names() -> impl Iterator<Item = &'static str> {
    CBENCH.iter().chain(&SPEC).map(|(name, _)| *name)
}

/// Build the one benchmark called `name`, if the suite has it.
pub fn by_name(name: &str) -> Option<Benchmark> {
    CBENCH.iter().chain(&SPEC).find(|(n, _)| *n == name).map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_ir::interp::run_counting;

    #[test]
    fn names_and_by_name_match_the_built_suite() {
        let built: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(names().collect::<Vec<_>>(), built);
        for name in built {
            assert_eq!(by_name(name).map(|b| b.name), Some(name));
        }
        assert!(by_name("no_such_program").is_none());
    }

    #[test]
    fn all_benchmarks_link_verify_and_run() {
        for b in all_benchmarks() {
            let linked = b.link();
            citroen_ir::verify::assert_valid(&linked);
            let entry = b.entry_in(&linked);
            let (out, sink) = run_counting(&linked, entry, &b.args)
                .unwrap_or_else(|t| panic!("{} trapped: {t}", b.name));
            assert!(out.ret.is_some(), "{} must return a checksum", b.name);
            assert!(
                sink.total > 5_000,
                "{} too small to be a benchmark: {} dynamic ops",
                b.name,
                sink.total
            );
            assert!(
                sink.total < 5_000_000,
                "{} too big for a tuning evaluation unit: {} dynamic ops",
                b.name,
                sink.total
            );
        }
    }

    #[test]
    fn suites_have_paper_shape() {
        let cb = cbench();
        let sp = spec();
        assert!(cb.len() >= 10, "cBench-like suite too small");
        assert!(sp.len() >= 3, "SPEC-like suite too small");
        assert!(cb.iter().all(|b| b.suite == SuiteKind::CBench));
        assert!(sp.iter().all(|b| b.suite == SuiteKind::Spec));
        // SPEC-like programs are multi-module.
        assert!(sp.iter().all(|b| b.modules.len() >= 4));
    }

    #[test]
    fn benchmarks_are_deterministic() {
        for b in all_benchmarks().into_iter().take(4) {
            let linked = b.link();
            let entry = b.entry_in(&linked);
            let (a, _) = run_counting(&linked, entry, &b.args).unwrap();
            let (c, _) = run_counting(&linked, entry, &b.args).unwrap();
            assert_eq!(a.ret, c.ret);
            assert_eq!(a.mem_digest, c.mem_digest);
        }
    }
}
