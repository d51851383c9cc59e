//! Concrete soundness oracle for the alias analysis.
//!
//! [`alias`](crate::alias) answers [`No`](AliasResult::No) and
//! [`Must`](AliasResult::Must) as *theorems* about every execution; the
//! sanitizer rules (S9–S11) and the loop dependence graphs lean on them.
//! This module checks the theorems the brute-force way: record every dynamic
//! memory access with its static site (via the interpreter's
//! [`EventSink::mem_site`] hook), group accesses into
//! per-block dynamic *instances* (one execution of one block in one function
//! activation), and compare each claimed pair's concrete addresses:
//!
//! - `No` for `(a, sa)` vs `(b, sb)` ⇒ `[a, a+sa)` and `[b, b+sb)` are
//!   disjoint in every instance that executes both accesses;
//! - `Must` ⇒ the start addresses are equal in every such instance.
//!
//! Claims are same-block pairs only: within one block instance each SSA
//! value has exactly one concrete value, which is the world the symbolic
//! difference argument reasons about. (Cross-block queries are exercised
//! indirectly — the dependence graphs and sanitizer are built on the same
//! `alias` entry point — but their per-iteration semantics has no single
//! concrete witness to compare against.)
//!
//! The campaign driver (`citroen-analyze alias-oracle`) runs this over
//! hundreds of generated modules and reduces any violating module with
//! [`reduce_module`](crate::reduce::reduce_module), keeping the violated
//! claim reachable.

use crate::alias::{access_bytes, AliasAnalysis, AliasResult};
use crate::intervals;
use citroen_ir::inst::FuncId;
use citroen_ir::interp::{self, EventSink, Limits, OpClass, Trap};
use citroen_ir::module::Module;
use std::collections::HashMap;

/// A `No`/`Must` answer for a same-block access pair, identified by static
/// site (function, block, instruction indices `a < b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasClaim {
    /// Function index.
    pub func: usize,
    /// Block index.
    pub block: usize,
    /// First access's instruction index within the block.
    pub a: usize,
    /// Second access's instruction index (`a < b`).
    pub b: usize,
    /// Byte widths of the two accesses.
    pub bytes: (u32, u32),
    /// The claimed relation (never [`AliasResult::May`]).
    pub result: AliasResult,
}

/// A claim contradicted by a concrete execution.
#[derive(Debug, Clone)]
pub struct AliasViolation {
    /// The contradicted claim.
    pub claim: AliasClaim,
    /// Concrete start addresses observed in the violating block instance.
    pub addrs: (u64, u64),
}

impl std::fmt::Display for AliasViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.claim;
        write!(
            f,
            "func {} block {}: claimed {:?} for insts {} ({}B) and {} ({}B), \
             but observed addrs {:#x} and {:#x}",
            c.func, c.block, c.result, c.a, c.bytes.0, c.b, c.bytes.1, self.addrs.0, self.addrs.1
        )
    }
}

/// Every `No`/`Must` answer the analysis gives for same-block access pairs
/// of `m`. `May` answers claim nothing and are not recorded.
pub fn same_block_claims(m: &Module) -> Vec<AliasClaim> {
    let iv = intervals::analyze_module(m);
    let mut claims = Vec::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        if f.is_decl() {
            continue;
        }
        let aa = AliasAnalysis::new(m, f, &iv.funcs[fi]);
        for (bi, blk) in f.blocks.iter().enumerate() {
            let accesses: Vec<(usize, citroen_ir::inst::Operand, u32)> = blk
                .insts
                .iter()
                .enumerate()
                .filter_map(|(ii, inst)| access_bytes(f, inst).map(|(op, sz)| (ii, op, sz)))
                .collect();
            for (x, &(ia, opa, sa)) in accesses.iter().enumerate() {
                for &(ib, opb, sb) in &accesses[x + 1..] {
                    let result = aa.alias(&opa, sa, &opb, sb);
                    if matches!(result, AliasResult::May) {
                        continue;
                    }
                    claims.push(AliasClaim {
                        func: fi,
                        block: bi,
                        a: ia,
                        b: ib,
                        bytes: (sa, sb),
                        result,
                    });
                }
            }
        }
    }
    claims
}

/// One recorded dynamic access.
#[derive(Debug, Clone, Copy)]
struct Rec {
    act: u32,
    func: u32,
    block: u32,
    inst: u32,
    addr: u64,
}

/// Sink that attributes every access to its site and function activation.
#[derive(Default)]
struct RecordingSink {
    recs: Vec<Rec>,
    stack: Vec<u32>,
    next_act: u32,
}

impl EventSink for RecordingSink {
    fn op(&mut self, _class: OpClass, _lanes: u8) {}
    fn mem(&mut self, _addr: u64, _bytes: u32, _store: bool) {}
    fn branch(&mut self, _site: u32, _taken: bool) {}
    fn enter_function(&mut self, _f: FuncId) {
        self.stack.push(self.next_act);
        self.next_act += 1;
    }
    fn exit_function(&mut self) {
        self.stack.pop();
    }
    fn mem_site(&mut self, f: FuncId, block: u32, inst: u32, addr: u64, _bytes: u32, _store: bool) {
        let act = *self.stack.last().expect("access outside any activation");
        self.recs.push(Rec { act, func: f.0, block, inst, addr });
    }
}

/// Check `claims` against a recorded access stream. Exposed for unit tests;
/// campaign callers use [`check_module`].
fn check_claims(claims: &[AliasClaim], recs: &[Rec]) -> Vec<AliasViolation> {
    // Index claims by (func, block) for instance lookup.
    let mut by_site: HashMap<(u32, u32), Vec<&AliasClaim>> = HashMap::new();
    for c in claims {
        by_site.entry((c.func as u32, c.block as u32)).or_default().push(c);
    }
    // Split the stream into block instances: within one activation, a block
    // instance emits its accesses in strictly increasing instruction order,
    // so a repeat or regress of the index starts the next instance.
    let mut cur: HashMap<(u32, u32, u32), HashMap<u32, u64>> = HashMap::new();
    let mut out = Vec::new();
    let flush = |insts: &HashMap<u32, u64>, func: u32, block: u32, out: &mut Vec<AliasViolation>| {
        let Some(claims) = by_site.get(&(func, block)) else { return };
        for c in claims {
            let (Some(&aa), Some(&ab)) = (insts.get(&(c.a as u32)), insts.get(&(c.b as u32)))
            else {
                continue;
            };
            let bad = match c.result {
                AliasResult::No => {
                    aa < ab + c.bytes.1 as u64 && ab < aa + c.bytes.0 as u64
                }
                AliasResult::Must => aa != ab,
                AliasResult::May => false,
            };
            if bad {
                out.push(AliasViolation { claim: **c, addrs: (aa, ab) });
            }
        }
    };
    for r in recs {
        let key = (r.act, r.func, r.block);
        let slot = cur.entry(key).or_default();
        if slot.contains_key(&r.inst) || slot.keys().any(|&k| k > r.inst) {
            flush(slot, r.func, r.block, &mut out);
            slot.clear();
        }
        slot.insert(r.inst, r.addr);
    }
    for ((_, func, block), insts) in &cur {
        flush(insts, *func, *block, &mut out);
    }
    out
}

/// Compute all same-block claims for `m`, execute it from `entry` with no
/// arguments, and return every claim a concrete block instance contradicts.
/// A trapping module proves nothing and is reported as the trap.
pub fn check_module(m: &Module, entry: FuncId, max_steps: u64) -> Result<Vec<AliasViolation>, Trap> {
    let claims = same_block_claims(m);
    let mut sink = RecordingSink::default();
    let limits = Limits { max_steps, ..Limits::default() };
    interp::run(m, entry, &[], &mut sink, limits)?;
    Ok(check_claims(&claims, &sink.recs))
}

/// Number of `No`/`Must` claims [`check_module`] would test on `m` (for
/// campaign reporting).
pub fn claim_count(m: &Module) -> (usize, usize) {
    let claims = same_block_claims(m);
    let no = claims.iter().filter(|c| matches!(c.result, AliasResult::No)).count();
    (no, claims.len() - no)
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::inst::Operand;
    use citroen_ir::module::GlobalInit;
    use citroen_ir::interp::Value;
    use citroen_ir::types::I64;

    /// store @a; store @b; load @a — distinct globals, in-bounds.
    fn two_globals() -> Module {
        let mut m = Module::new("m");
        let ga = m.add_global("a", GlobalInit::Zero(8), true);
        let gb = m.add_global("b", GlobalInit::Zero(8), true);
        let mut b = FunctionBuilder::new("main", vec![], Some(I64));
        b.store(I64, Operand::imm64(1), Operand::Global(ga));
        b.store(I64, Operand::imm64(2), Operand::Global(gb));
        let v = b.load(I64, Operand::Global(ga));
        b.ret(Some(v));
        m.add_func(b.finish());
        m
    }

    #[test]
    fn claims_cover_no_and_must() {
        let m = two_globals();
        let claims = same_block_claims(&m);
        assert!(
            claims.iter().any(|c| matches!(c.result, AliasResult::No)),
            "distinct globals must claim No: {claims:?}"
        );
        assert!(
            claims.iter().any(|c| matches!(c.result, AliasResult::Must)),
            "same global same offset must claim Must: {claims:?}"
        );
    }

    #[test]
    fn concrete_execution_upholds_the_claims() {
        let m = two_globals();
        let v = check_module(&m, FuncId(0), 1 << 20).expect("runs");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn checker_detects_a_planted_lie() {
        // Fabricate a claim the real analysis would never make: the two
        // distinct-global stores "must" alias. The concrete run must convict.
        let m = two_globals();
        let mut claims = same_block_claims(&m);
        let no = claims
            .iter()
            .position(|c| matches!(c.result, AliasResult::No))
            .expect("has a No claim");
        claims[no].result = AliasResult::Must;
        let mut sink = RecordingSink::default();
        interp::run(&m, FuncId(0), &[], &mut sink, Limits::default()).expect("runs");
        let v = check_claims(&claims, &sink.recs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0].claim.result, AliasResult::Must));

        // And the dual: claim No for the must-aliasing store/load pair.
        let mut claims = same_block_claims(&m);
        let must = claims
            .iter()
            .position(|c| matches!(c.result, AliasResult::Must))
            .expect("has a Must claim");
        claims[must].result = AliasResult::No;
        let v = check_claims(&claims, &sink.recs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0].claim.result, AliasResult::No));
    }

    #[test]
    fn loop_instances_are_split_per_iteration() {
        // A counted loop storing then loading the same global: every
        // iteration is its own instance, and the Must claim holds in each.
        let mut m = Module::new("m");
        let g = m.add_global("out", GlobalInit::Zero(8), true);
        let mut b = FunctionBuilder::new("main", vec![I64], Some(I64));
        let n = b.param(0);
        citroen_ir::builder::counted_loop_mem(&mut b, n, |b, _| {
            b.store(I64, Operand::imm64(3), Operand::Global(g));
            let v = b.load(I64, Operand::Global(g));
            b.store(I64, v, Operand::Global(g));
        });
        b.ret(Some(Operand::imm64(0)));
        m.add_func(b.finish());
        let claims = same_block_claims(&m);
        assert!(claims.iter().any(|c| matches!(c.result, AliasResult::Must)));
        let mut sink = RecordingSink::default();
        interp::run(&m, FuncId(0), &[Value::I(5)], &mut sink, Limits::default()).expect("runs");
        assert!(sink.recs.len() >= 15, "5 iterations x 3 accesses: {}", sink.recs.len());
        let v = check_claims(&claims, &sink.recs);
        assert!(v.is_empty(), "{v:?}");
    }
}
