//! Per-pass translation-validation sanitizer.
//!
//! After every pass, the pass manager re-runs the interval and memory-effects
//! analyses and compares the new facts against the pre-pass facts. Because
//! both fact sets are sound over-approximations of the *same* concrete
//! semantics (a correct pass preserves semantics), certain relations must
//! hold between them; a pass that breaks one of the relations below has
//! provably changed observable behaviour, however well-formed its output.
//!
//! Naive "facts must only refine" is *not* sound — a legal transformation can
//! make an analysis less precise (e.g. replacing a constant with a loop-
//! carried recurrence defeats the interval domain). All checks here are
//! *contradiction* checks guarded by must-information:
//!
//! - **S1 ret-range**: if either side proves the function returns on every
//!   run, both return intervals over-approximate the same non-empty concrete
//!   set, so they must intersect.
//! - **S2 return-existence**: a side that proves termination contradicts a
//!   side with no reachable `ret` at all.
//! - **S3 must/may writes**: a global written on every terminating run on one
//!   side cannot be provably never-written on the other (both directions).
//! - **S4 stored ranges**: if both sides must-write `g`, the final value of
//!   `g` on a terminating run lies in both stored-range over-approximations,
//!   so the ranges must intersect.
//! - **S5 attribute consistency**: `readnone`/`readonly` function attributes
//!   contradict a proven must-write on the same side.
//!
//! The *value-level* rules use the [`crate::valmap`] correspondence (values
//! matched across the pass by a fingerprint unique on both sides — the same
//! pure dataflow slice, hence the same concrete values on every run):
//!
//! - **S6 matched intervals**: both sides' intervals over-approximate the
//!   same concrete value set, so two non-⊥ intervals must intersect. This
//!   localises interprocedural bugs to the exact call-site value.
//! - **S7 matched must-stores**: (a) when a must-written global provably
//!   cannot be written on the other side (the S3 condition), every store to
//!   it is reported with its block and stored value — the dangling value;
//!   (b) when both sides must-write `g` through exactly one local store, the
//!   stored values' intervals must intersect (the final value of `g` lies in
//!   both).
//! - **S8 load initialisation**: a matched load that provably reads a
//!   non-zero value (every store to its slot excludes zero and one dominates
//!   the load) cannot become a provably-uninitialised always-zero load on
//!   the other side.
//!
//! The *alias-aware* rules (S9–S11) use the [`crate::alias`] points-to
//! analysis and the [`crate::depgraph`] loop dependence graphs to prove
//! *where a value concretely comes from*, then cross-check that provenance
//! through the value correspondence:
//!
//! - **S9 final-slot stores**: when every reachable store of a call-free
//!   function that could touch global `g` resolves (via the alias analysis)
//!   to the *same* exact slot in a *single* block, the function-final value
//!   of that slot is the block's textually-last store — so the two sides'
//!   last-store intervals must intersect. Unlike S4 (which joins all stored
//!   ranges), S9 is order-sensitive: a pass that reorders two may-aliasing
//!   stores to the same slot flips the provable final value and trips it.
//! - **S10 loop-independent forwarding**: a load with a same-iteration
//!   must-alias RAW dependence on a dominating store (per the loop
//!   dependence graph, with no intervening may-alias write or clobbering
//!   call) concretely reads that store's value — so the stored interval
//!   must intersect the matched post-pass load's interval. A hoist or
//!   unroll that breaks the dependence (the load now reads a stale value)
//!   produces a disjoint pair.
//! - **S11 must-alias forwarding**: the straight-line version of S10 — the
//!   same must-alias store→load forwarding proof outside any loop. This
//!   sharpens S6: the forwarded interval can be far tighter than the load's
//!   own interval (the interval domain does not track memory).
//!
//! S3/S4/S7 additionally assume the function terminates on at least one input
//! whenever it has a reachable `ret`; S6–S8 (and the forwarded intervals
//! behind S10/S11) assume a pass that preserves a value's dataflow slice
//! computes the same values through it — no pass in this repository (or
//! LLVM) repurposes a kept instruction via distant compensation, so neither
//! assumption can be exploited (DESIGN.md §9).

use crate::alias::{AliasAnalysis, AliasResult};
use crate::depgraph::{self, RefKind};
use crate::intervals::{self, Interval, ModuleIntervals};
use crate::memeffects::{self, MemEffects, ModuleEffects, Root};
use crate::valmap::{self, ValueFacts};
use citroen_ir::analysis::Cfg;
use citroen_ir::inst::{Inst, Operand};
use citroen_ir::module::Module;
use std::collections::HashMap;

/// Analysis facts for one function, snapshotted between passes.
#[derive(Debug, Clone)]
pub struct FunctionFacts {
    /// Function name (facts are matched by name across passes).
    pub name: String,
    /// Whether the function declares a return value.
    pub has_ret_ty: bool,
    /// Over-approximation of the returned value across all runs.
    pub ret: Interval,
    /// Memory-effects summary.
    pub eff: MemEffects,
    /// `readnone` attribute at snapshot time.
    pub readnone: bool,
    /// `readonly` attribute at snapshot time.
    pub readonly: bool,
    /// Per-value facts: fingerprints, intervals, load/store classification.
    pub vals: ValueFacts,
    /// Alias-derived provenance facts (S9–S11).
    pub alias: AliasSanFacts,
}

/// The provable final store to one exact global slot (S9).
#[derive(Debug, Clone)]
pub struct SlotLast {
    /// Global the slot belongs to.
    pub global: u32,
    /// Byte offset of the slot within the global.
    pub off: i64,
    /// Slot width in bytes.
    pub bytes: u32,
    /// Interval of the textually-last store's operand.
    pub interval: Interval,
    /// SSA value id of that operand, when it is a value.
    pub val: Option<u32>,
    /// Block holding every store to the slot.
    pub block: u32,
}

/// Alias-analysis-derived facts consumed by the S9–S11 sanitizer rules.
#[derive(Debug, Clone, Default)]
pub struct AliasSanFacts {
    /// `(load value id, provable loaded interval, loop-independent dep?)`:
    /// loads whose value provably equals a dominating same-block must-alias
    /// store's operand (no intervening may-alias write or clobbering call).
    /// The flag marks forwardings the loop dependence graph confirms as a
    /// same-iteration must RAW dependence (S10); the rest are straight-line
    /// (S11).
    pub forwarded: Vec<(u32, Interval, bool)>,
    /// Exact slots whose function-final value is provable (S9).
    pub slots: Vec<SlotLast>,
}

/// Facts for every function of a module.
#[derive(Debug, Clone)]
pub struct ModuleFacts {
    /// Per-function facts, in module order.
    pub funcs: Vec<FunctionFacts>,
}

/// Snapshot the sanitizer facts of `m`.
pub fn module_facts(m: &Module) -> ModuleFacts {
    let iv = intervals::analyze_module(m);
    let eff = memeffects::analyze_module(m, &iv);
    let funcs = m
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| FunctionFacts {
            name: f.name.clone(),
            has_ret_ty: f.ret.is_some(),
            ret: iv.funcs[fi].ret,
            eff: eff.funcs[fi].clone(),
            readnone: f.attrs.readnone,
            readonly: f.attrs.readonly,
            vals: valmap::value_facts(m, f, &iv.funcs[fi]),
            alias: alias_san_facts(m, fi, &iv, &eff),
        })
        .collect();
    ModuleFacts { funcs }
}

/// Whether a summarised call may write the `bytes` at `addr`.
fn call_may_write(
    aa: &AliasAnalysis<'_>,
    ce: &MemEffects,
    addr: &Operand,
    bytes: u32,
) -> bool {
    match aa.confined_root(addr, bytes) {
        Some((Root::Global(g), t)) => !ce.cannot_write_range(g, t.lo, t.hi),
        Some((Root::Stack(_), _)) => ce.writes_unknown,
        _ => ce.writes_unknown || ce.writes_stack || !ce.may_write.is_empty(),
    }
}

/// Compute the alias-derived provenance facts of function `fi`.
fn alias_san_facts(
    m: &Module,
    fi: usize,
    iv: &ModuleIntervals,
    eff: &ModuleEffects,
) -> AliasSanFacts {
    let f = &m.funcs[fi];
    if f.is_decl() {
        return AliasSanFacts::default();
    }
    let fiv = &iv.funcs[fi];
    let aa = AliasAnalysis::new(m, f, fiv);
    let cfg = Cfg::compute(f);
    let me = &eff.funcs[fi];
    let graphs = depgraph::loop_dep_graphs(m, fi, iv, eff);

    // Forwarded loads: backward same-block scan to the nearest must-alias
    // store of identical width, aborting on any may-alias store or
    // potentially-writing call in between. A hit proves the load's concrete
    // value is the store's operand on every execution of the block.
    let mut forwarded = Vec::new();
    for &b in &cfg.rpo {
        let insts = &f.blocks[b.idx()].insts;
        for (li, inst) in insts.iter().enumerate() {
            let Inst::Load { dst, addr } = inst else { continue };
            let ty = f.ty(*dst);
            if ty.lanes != 1 || !ty.scalar.is_int() {
                continue;
            }
            let lb = ty.bytes();
            let mut found: Option<Interval> = None;
            for j in (0..li).rev() {
                match &insts[j] {
                    Inst::Store { ty: sty, val, addr: saddr } => {
                        match aa.alias(addr, lb, saddr, sty.bytes()) {
                            AliasResult::Must
                                if sty.bytes() == lb
                                    && sty.lanes == 1
                                    && sty.scalar.is_int() =>
                            {
                                found = Some(fiv.operand(f, val));
                                break;
                            }
                            AliasResult::No => {}
                            _ => break,
                        }
                    }
                    Inst::Call { callee, .. }
                        if call_may_write(&aa, &eff.funcs[callee.idx()], addr, lb) =>
                    {
                        break;
                    }
                    _ => {}
                }
            }
            let Some(fwd) = found else { continue };
            if fwd.is_bottom() {
                continue;
            }
            // A same-block must store→load pair inside a loop shows up in
            // that loop's dependence graph as a same-iteration must RAW dep.
            let in_loop = graphs.iter().any(|g| {
                g.refs.iter().enumerate().any(|(ri, r)| {
                    r.block == b.idx()
                        && r.inst == li
                        && r.kind == RefKind::Load
                        && g.deps.iter().any(|d| !d.carried && d.must && (d.a == ri || d.b == ri))
                })
            });
            forwarded.push((dst.0, fwd, in_loop));
        }
    }

    // Final slots: group reachable stores by the exact global slot the alias
    // analysis resolves them to. A slot survives only if every store to its
    // global shares the same (offset, width) and block, no unresolved store
    // may alias it, and the function is call-free with fully attributable
    // writes — then the textually-last store is the provable final writer.
    struct SlotAcc {
        off: i128,
        bytes: u32,
        addr0: Operand,
        block: usize,
        last: (Interval, Option<u32>),
        consistent: bool,
    }
    let has_calls = cfg
        .rpo
        .iter()
        .any(|b| f.blocks[b.idx()].insts.iter().any(|i| matches!(i, Inst::Call { .. })));
    let mut slots = Vec::new();
    if !me.writes_unknown && !has_calls {
        let mut per_g: HashMap<u32, SlotAcc> = HashMap::new();
        let mut unresolved: Vec<(Operand, u32)> = Vec::new();
        for &b in &cfg.rpo {
            for inst in &f.blocks[b.idx()].insts {
                let Inst::Store { ty, val, addr } = inst else { continue };
                let a = aa.classify(addr);
                let exact = matches!(aa.confined_root(addr, ty.bytes()), Some((Root::Global(_), _)))
                    && a.offset.lo == a.offset.hi;
                let Root::Global(g) = a.root else {
                    unresolved.push((*addr, ty.bytes()));
                    continue;
                };
                if !exact {
                    unresolved.push((*addr, ty.bytes()));
                    continue;
                }
                let last = (fiv.operand(f, val), val.as_value().map(|v| v.0));
                per_g
                    .entry(g)
                    .and_modify(|s| {
                        if s.off != a.offset.lo || s.bytes != ty.bytes() || s.block != b.idx() {
                            s.consistent = false;
                        } else {
                            s.last = last;
                        }
                    })
                    .or_insert(SlotAcc {
                        off: a.offset.lo,
                        bytes: ty.bytes(),
                        addr0: *addr,
                        block: b.idx(),
                        last,
                        consistent: true,
                    });
            }
        }
        for (g, s) in per_g {
            if !s.consistent || !me.must_write.contains(&g) || s.last.0.is_bottom() {
                continue;
            }
            if unresolved
                .iter()
                .any(|(a, ab)| aa.alias(a, *ab, &s.addr0, s.bytes) != AliasResult::No)
            {
                continue;
            }
            slots.push(SlotLast {
                global: g,
                off: s.off as i64,
                bytes: s.bytes,
                interval: s.last.0,
                val: s.last.1,
                block: s.block as u32,
            });
        }
        slots.sort_by_key(|s| (s.global, s.off));
    }
    AliasSanFacts { forwarded, slots }
}

/// One sanitizer finding: a provable semantic contradiction between the
/// pre-pass and post-pass facts of a function.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule tripped (`S1`–`S11`).
    pub rule: &'static str,
    /// Function the contradiction is in.
    pub func: String,
    /// Explanation with the contradicting facts.
    pub msg: String,
    /// Post-pass value id the contradiction localises to, when the rule is
    /// value-level (S6–S8); function-level rules leave this `None`.
    pub value: Option<u32>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sanitizer {}: {}: {}", self.rule, self.func, self.msg)
    }
}

/// Cross-check post-pass facts against pre-pass facts. Empty result =
/// no provable contradiction.
pub fn check(pre: &ModuleFacts, post: &ModuleFacts) -> Vec<Violation> {
    let mut out = Vec::new();
    for pre_f in &pre.funcs {
        // Passes may delete (dead) functions; match by name and skip removed.
        let Some(post_f) = post.funcs.iter().find(|f| f.name == pre_f.name) else {
            continue;
        };
        check_function(pre_f, post_f, &mut out);
        value_checks(pre_f, post_f, &mut out);
        alias_checks(pre_f, post_f, &mut out);
        self_check(post_f, &mut out);
    }
    out
}

fn check_function(pre: &FunctionFacts, post: &FunctionFacts, out: &mut Vec<Violation>) {
    let viol = |rule, msg| Violation { rule, func: pre.name.clone(), msg, value: None };
    let terminates = pre.eff.must_return || post.eff.must_return;

    // S1: both ret intervals over-approximate the same non-empty value set.
    if terminates
        && pre.has_ret_ty
        && post.has_ret_ty
        && !pre.ret.is_bottom()
        && !post.ret.is_bottom()
        && pre.ret.meet(&post.ret).is_bottom()
    {
        out.push(viol(
            "S1",
            format!(
                "return ranges cannot both hold: {} before vs {} after",
                pre.ret, post.ret
            ),
        ));
    }

    // S2: proven-terminating function must still have a reachable ret.
    if pre.has_ret_ty && post.has_ret_ty {
        if pre.eff.must_return && post.ret.is_bottom() {
            out.push(viol(
                "S2",
                "function provably returned a value before the pass; afterwards no \
                 reachable ret remains"
                    .into(),
            ));
        }
        if post.eff.must_return && pre.ret.is_bottom() {
            out.push(viol(
                "S2",
                "function provably returns a value after the pass; beforehand no \
                 reachable ret existed"
                    .into(),
            ));
        }
    }

    // S3: must-writes on one side vs provable never-writes on the other.
    for &g in &pre.eff.must_write {
        if post.eff.cannot_write(g) {
            out.push(viol(
                "S3",
                format!(
                    "global g{g} was written on every terminating run before the pass, \
                     but afterwards it provably cannot be written"
                ),
            ));
        }
    }
    for &g in &post.eff.must_write {
        if pre.eff.cannot_write(g) {
            out.push(viol(
                "S3",
                format!(
                    "global g{g} is written on every terminating run after the pass, \
                     but beforehand it provably could not be written"
                ),
            ));
        }
    }

    // S4: the final value of a must-written global lies in both stored ranges.
    for &g in &pre.eff.must_write {
        if !post.eff.must_write.contains(&g) {
            continue;
        }
        let (Some(a), Some(b)) = (pre.eff.stored.get(&g), post.eff.stored.get(&g)) else {
            continue;
        };
        if !a.is_bottom() && !b.is_bottom() && a.meet(b).is_bottom() {
            out.push(viol(
                "S4",
                format!(
                    "values stored to g{g} cannot agree: {a} before vs {b} after"
                ),
            ));
        }
    }
}

/// Value-level rules S6–S8 over the fingerprint correspondence.
fn value_checks(pre: &FunctionFacts, post: &FunctionFacts, out: &mut Vec<Violation>) {
    let pairs = valmap::correspond(&pre.vals, &post.vals);
    let pre_to_post: HashMap<u32, u32> =
        pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
    let post_to_pre: HashMap<u32, u32> =
        pairs.iter().map(|(a, b)| (b.0, a.0)).collect();

    // S6: matched values over-approximate the same concrete set.
    for &(va, vb) in &pairs {
        let (ia, ib) = (pre.vals.interval[va.idx()], post.vals.interval[vb.idx()]);
        if !ia.is_bottom() && !ib.is_bottom() && ia.meet(&ib).is_bottom() {
            out.push(Violation {
                rule: "S6",
                func: pre.name.clone(),
                value: Some(vb.0),
                msg: format!(
                    "matched value %{} (now %{}) cannot hold both ranges: {ia} before \
                     vs {ib} after",
                    va.0, vb.0
                ),
            });
        }
    }

    // S7a: a must-written global that provably cannot be written on the other
    // side — report every store to it, naming the dangling stored value.
    let dangling = |side: &FunctionFacts,
                    matched: &HashMap<u32, u32>,
                    g: u32,
                    when: &str,
                    out: &mut Vec<Violation>| {
        for s in side.vals.stores.iter().filter(|s| s.global == g) {
            let (desc, value) = match s.val {
                Some(v) => match matched.get(&v) {
                    Some(&mv) => (format!("value %{v} (still computed as %{mv})"), Some(mv)),
                    None => (format!("value %{v}"), None),
                },
                None => ("a constant".to_string(), None),
            };
            out.push(Violation {
                rule: "S7",
                func: side.name.clone(),
                value,
                msg: format!(
                    "store of {desc} to g{g} in b{} was on every terminating path \
                     {when} the pass; the other side provably never writes g{g} — \
                     the store dangles",
                    s.block
                ),
            });
        }
    };
    for &g in &pre.eff.must_write {
        if post.eff.cannot_write(g) {
            dangling(pre, &pre_to_post, g, "before", out);
        }
    }
    for &g in &post.eff.must_write {
        if pre.eff.cannot_write(g) {
            dangling(post, &post_to_pre, g, "after", out);
        }
    }

    // S7b: both sides must-write `g` through exactly one local store (no
    // calls, no unattributable writes): the final value of `g` lies in both
    // stored intervals, so they must intersect.
    if !pre.vals.has_calls
        && !post.vals.has_calls
        && !pre.eff.writes_unknown
        && !post.eff.writes_unknown
    {
        for &g in &pre.eff.must_write {
            if !post.eff.must_write.contains(&g) {
                continue;
            }
            fn only(side: &FunctionFacts, g: u32) -> Option<&crate::valmap::GlobalStore> {
                let mut it = side.vals.stores.iter().filter(|s| s.global == g);
                match (it.next(), it.next()) {
                    (Some(s), None) => Some(s),
                    _ => None,
                }
            }
            let (Some(sa), Some(sb)) = (only(pre, g), only(post, g)) else { continue };
            if !sa.interval.is_bottom()
                && !sb.interval.is_bottom()
                && sa.interval.meet(&sb.interval).is_bottom()
            {
                out.push(Violation {
                    rule: "S7",
                    func: pre.name.clone(),
                    value: sb.val,
                    msg: format!(
                        "the single store to g{g} cannot agree: {} in b{} before vs \
                         {} in b{} after",
                        sa.interval, sa.block, sb.interval, sb.block
                    ),
                });
            }
        }
    }

    // S8: a matched load provably non-zero on one side cannot be a
    // provably-uninitialised (always-zero) load on the other.
    let s8 = |nz: &FunctionFacts, nzv: u32, zv: u32, when: &str| Violation {
        rule: "S8",
        func: nz.name.clone(),
        value: Some(zv),
        msg: format!(
            "load %{nzv} provably read a non-zero value {when} the pass, but its \
             matched load %{zv} reads a provably-uninitialised (always-zero) slot",
        ),
    };
    for &(va, vb) in &pairs {
        if pre.vals.nonzero_loads.binary_search(&va.0).is_ok()
            && post.vals.zero_loads.binary_search(&vb.0).is_ok()
        {
            out.push(s8(pre, va.0, vb.0, "before"));
        }
        if post.vals.nonzero_loads.binary_search(&vb.0).is_ok()
            && pre.vals.zero_loads.binary_search(&va.0).is_ok()
        {
            out.push(s8(post, vb.0, va.0, "after"));
        }
    }
}

/// Alias-aware rules S9–S11 over the provenance facts.
fn alias_checks(pre: &FunctionFacts, post: &FunctionFacts, out: &mut Vec<Violation>) {
    // S9: both sides prove the function-final value of the same exact slot;
    // the concrete final value (observable at return) lies in both last-store
    // intervals, so they must intersect. Both sides must also must-write the
    // global — otherwise "no terminating run writes it" makes the final
    // value the initial one and the last-store claim is vacuous.
    for sa in &pre.alias.slots {
        let Some(sb) = post
            .alias
            .slots
            .iter()
            .find(|s| s.global == sa.global && s.off == sa.off && s.bytes == sa.bytes)
        else {
            continue;
        };
        if !pre.eff.must_write.contains(&sa.global) || !post.eff.must_write.contains(&sa.global) {
            continue;
        }
        if !sa.interval.is_bottom()
            && !sb.interval.is_bottom()
            && sa.interval.meet(&sb.interval).is_bottom()
        {
            out.push(Violation {
                rule: "S9",
                func: pre.name.clone(),
                value: sb.val,
                msg: format!(
                    "final store to g{}+{} ({} bytes) cannot agree: {} in b{} before vs \
                     {} in b{} after — stores to the slot were reordered or retargeted",
                    sa.global, sa.off, sa.bytes, sa.interval, sa.block, sb.interval, sb.block
                ),
            });
        }
    }

    // S10/S11: a load provably forwarding a must-alias store's value on one
    // side over-approximates the matched value's concrete set, so it must
    // agree with whatever the other side knows about that value — its plain
    // interval, and (sharper) its own forwarded interval when both sides
    // prove a forwarding.
    let pairs = valmap::correspond(&pre.vals, &post.vals);
    let fwd_pre: HashMap<u32, (Interval, bool)> =
        pre.alias.forwarded.iter().map(|&(v, i, l)| (v, (i, l))).collect();
    let fwd_post: HashMap<u32, (Interval, bool)> =
        post.alias.forwarded.iter().map(|&(v, i, l)| (v, (i, l))).collect();
    for &(va, vb) in &pairs {
        let fa = fwd_pre.get(&va.0);
        let fb = fwd_post.get(&vb.0);
        let mut clash = |ia: Interval, ib: Interval, in_loop: bool, what: &str| {
            if !ia.is_bottom() && !ib.is_bottom() && ia.meet(&ib).is_bottom() {
                let (rule, how) = if in_loop {
                    ("S10", "a same-iteration must-alias RAW dependence")
                } else {
                    ("S11", "a dominating must-alias store")
                };
                out.push(Violation {
                    rule,
                    func: pre.name.clone(),
                    value: Some(vb.0),
                    msg: format!(
                        "load %{} provably forwards {how} with value {ia} before the \
                         pass, but its matched value %{} {what} the disjoint range \
                         {ib} afterwards",
                        va.0, vb.0
                    ),
                });
            }
        };
        match (fa, fb) {
            (Some(&(ia, la)), Some(&(ib, lb))) => {
                clash(ia, ib, la || lb, "provably forwards")
            }
            (Some(&(ia, la)), None) => {
                clash(ia, post.vals.interval[vb.idx()], la, "holds")
            }
            (None, Some(&(ib, lb))) => {
                clash(pre.vals.interval[va.idx()], ib, lb, "provably forwards")
            }
            (None, None) => {}
        }
    }
}

/// Checks that must hold within a single fact set.
fn self_check(f: &FunctionFacts, out: &mut Vec<Violation>) {
    // S5: attributes claim no writes, but a write provably happens.
    if (f.readnone || f.readonly) && !f.eff.must_write.is_empty() {
        out.push(Violation {
            rule: "S5",
            func: f.name.clone(),
            value: None,
            msg: format!(
                "function is marked {} but provably writes globals {:?} on every \
                 terminating run",
                if f.readnone { "readnone" } else { "readonly" },
                f.eff.must_write
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_ir::builder::FunctionBuilder;
    use citroen_ir::inst::Operand;
    use citroen_ir::module::{GlobalInit, Module};
    use citroen_ir::types::I64;

    fn store_ret_module(stored: i64, ret: i64) -> Module {
        let mut m = Module::new("m");
        let g = m.add_global("out", GlobalInit::Zero(8), true);
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        b.store(I64, Operand::imm64(stored), Operand::Global(g));
        b.ret(Some(Operand::imm64(ret)));
        m.add_func(b.finish());
        m
    }

    #[test]
    fn identical_modules_are_clean() {
        let m = store_ret_module(42, 0);
        let f = module_facts(&m);
        assert!(check(&f, &f).is_empty());
    }

    #[test]
    fn changed_return_value_is_s1() {
        let pre = module_facts(&store_ret_module(42, 5));
        let post = module_facts(&store_ret_module(42, 6));
        let v = check(&pre, &post);
        assert!(v.iter().any(|v| v.rule == "S1"), "{v:?}");
    }

    #[test]
    fn dropped_store_is_s3() {
        let pre = module_facts(&store_ret_module(42, 0));
        let mut m = Module::new("m");
        m.add_global("out", GlobalInit::Zero(8), true);
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        b.ret(Some(Operand::imm64(0)));
        m.add_func(b.finish());
        let post = module_facts(&m);
        let v = check(&pre, &post);
        assert!(v.iter().any(|v| v.rule == "S3"), "{v:?}");
    }

    #[test]
    fn changed_stored_value_is_s4() {
        let pre = module_facts(&store_ret_module(42, 0));
        let post = module_facts(&store_ret_module(7, 0));
        let v = check(&pre, &post);
        assert!(v.iter().any(|v| v.rule == "S4"), "{v:?}");
    }

    #[test]
    fn lost_precision_alone_is_not_a_violation() {
        // A post-pass analysis that knows strictly less (wider ranges, fewer
        // must-writes) must NOT trip the sanitizer: precision loss is legal.
        let pre = module_facts(&store_ret_module(42, 0));
        let mut post = pre.clone();
        post.funcs[0].ret = Interval::top();
        post.funcs[0].eff.must_write.clear();
        post.funcs[0].eff.must_return = false;
        assert!(check(&pre, &post).is_empty());
    }

    #[test]
    fn changed_callee_return_is_s6_at_call_site() {
        // The caller's call value matches across the pass (same callee name,
        // same args); a broken rewrite of the callee's return shows up as
        // disjoint intervals at the matched call site.
        fn call_ret_module(c: i64) -> Module {
            let mut m = Module::new("m");
            let mut cb = FunctionBuilder::new("callee", vec![], Some(I64));
            cb.ret(Some(Operand::imm64(c)));
            let callee = m.add_func(cb.finish());
            let mut b = FunctionBuilder::new("main", vec![], Some(I64));
            let v = b.call(callee, Some(I64), vec![]).unwrap();
            b.ret(Some(v));
            m.add_func(b.finish());
            m
        }
        let pre = module_facts(&call_ret_module(5));
        let post = module_facts(&call_ret_module(9));
        let v = check(&pre, &post);
        let s6 = v.iter().find(|v| v.rule == "S6").expect(&format!("{v:?}"));
        assert_eq!(s6.func, "main");
        assert!(s6.value.is_some());
    }

    #[test]
    fn dropped_ssa_store_is_s7_with_dangling_value() {
        fn build(with_store: bool) -> Module {
            let mut m = Module::new("m");
            let g = m.add_global("out", GlobalInit::Zero(8), true);
            let mut b = FunctionBuilder::new("f", vec![citroen_ir::types::I64], Some(I64));
            let v = b.bin(citroen_ir::inst::BinOp::Add, I64, b.param(0), Operand::imm64(1));
            if with_store {
                b.store(I64, v, Operand::Global(g));
            }
            b.ret(Some(Operand::imm64(0)));
            m.add_func(b.finish());
            m
        }
        let pre = module_facts(&build(true));
        let post = module_facts(&build(false));
        let v = check(&pre, &post);
        let s7 = v.iter().find(|v| v.rule == "S7").expect(&format!("{v:?}"));
        // The stored value still exists on the post side — the violation
        // names it as the dangling value.
        assert_eq!(s7.value, Some(1), "{s7:?}");
        assert!(s7.msg.contains("dangles"), "{s7:?}");
    }

    #[test]
    fn uninitialised_matched_load_is_s8() {
        fn build(with_store: bool) -> Module {
            let mut m = Module::new("m");
            let mut b = FunctionBuilder::new("f", vec![], Some(I64));
            let a = b.alloca(8);
            if with_store {
                b.store(I64, Operand::imm64(7), a);
            }
            let v = b.load(I64, a);
            b.ret(Some(v));
            m.add_func(b.finish());
            m
        }
        let pre = module_facts(&build(true));
        let post = module_facts(&build(false));
        let v = check(&pre, &post);
        assert!(v.iter().any(|v| v.rule == "S8" && v.value.is_some()), "{v:?}");
    }

    #[test]
    fn readonly_with_must_write_is_s5() {
        let mut m = store_ret_module(42, 0);
        m.funcs[0].attrs.readonly = true;
        let f = module_facts(&m);
        let v = check(&f, &f);
        assert!(v.iter().any(|v| v.rule == "S5"), "{v:?}");
    }

    #[test]
    fn reordered_slot_stores_are_s9() {
        // Two stores to the same global slot; swapping them changes the
        // provable final value, which S9's order-sensitive check catches
        // (S4's joined ranges still intersect, so it stays silent).
        fn build(first: i64, second: i64) -> Module {
            let mut m = Module::new("m");
            let g = m.add_global("out", GlobalInit::Zero(8), true);
            let mut b = FunctionBuilder::new("f", vec![], Some(I64));
            b.store(I64, Operand::imm64(first), Operand::Global(g));
            b.store(I64, Operand::imm64(second), Operand::Global(g));
            b.ret(Some(Operand::imm64(0)));
            m.add_func(b.finish());
            m
        }
        let pre = module_facts(&build(7, 42));
        let post = module_facts(&build(42, 7));
        let v = check(&pre, &post);
        assert!(v.iter().any(|v| v.rule == "S9"), "{v:?}");
        assert!(!v.iter().any(|v| v.rule == "S4"), "{v:?}");
        // Same order on both sides: clean.
        assert!(check(&pre, &pre).is_empty());
    }

    #[test]
    fn broken_forwarding_is_s11_with_value() {
        // A load forwarding a must-alias store of 42 through an alloca; the
        // "pass" replaces the stored value with 7 while the matched load's
        // interval follows — the forwarded interval of the pre side then
        // contradicts the post side's matched value.
        fn build(stored: i64) -> Module {
            let mut m = Module::new("m");
            let g = m.add_global("out", GlobalInit::Zero(8), true);
            let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
            let a = b.alloca(8);
            b.store(I64, Operand::imm64(stored), a);
            let v = b.load(I64, a);
            // Keep the load's slice alive and observable.
            b.store(I64, v, Operand::Global(g));
            b.ret(Some(Operand::imm64(0)));
            m.add_func(b.finish());
            m
        }
        let pre = module_facts(&build(42));
        assert!(
            pre.funcs[0].alias.forwarded.iter().any(|(_, iv, _)| iv.as_const() == Some(42)),
            "expected a forwarded load: {:?}",
            pre.funcs[0].alias.forwarded
        );
        let post = module_facts(&build(7));
        let v = check(&pre, &post);
        let s11 = v.iter().find(|v| v.rule == "S11").expect(&format!("{v:?}"));
        assert!(s11.value.is_some(), "{s11:?}");
        assert!(check(&pre, &pre).is_empty());
    }

    #[test]
    fn in_loop_forwarding_is_s10() {
        // The same forwarding proof inside a loop body: the dependence graph
        // classifies it as a same-iteration must RAW dep, so a broken pair
        // reports as S10 (loop dependence broken) rather than S11.
        fn build(stored: i64) -> Module {
            let mut m = Module::new("m");
            let g = m.add_global("out", GlobalInit::Zero(8), true);
            let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
            let n = b.param(0);
            citroen_ir::builder::counted_loop_mem(&mut b, n, |b, _| {
                b.store(I64, Operand::imm64(stored), Operand::Global(g));
                let v = b.load(I64, Operand::Global(g));
                b.store(I64, v, Operand::Global(g));
            });
            b.ret(Some(Operand::imm64(0)));
            m.add_func(b.finish());
            m
        }
        let pre = module_facts(&build(42));
        assert!(
            pre.funcs[0].alias.forwarded.iter().any(|&(_, iv, in_loop)| {
                iv.as_const() == Some(42) && in_loop
            }),
            "expected an in-loop forwarded load: {:?}",
            pre.funcs[0].alias.forwarded
        );
        let post = module_facts(&build(7));
        let v = check(&pre, &post);
        assert!(v.iter().any(|v| v.rule == "S10"), "{v:?}");
        assert!(check(&pre, &pre).is_empty());
    }

    #[test]
    fn precision_loss_keeps_s9_s11_silent() {
        // Dropping the post side's provenance facts entirely (a pass that
        // defeats the alias analysis) must not trip the alias rules: they
        // only fire on contradictions, never on lost precision.
        let pre = module_facts(&store_ret_module(42, 0));
        let mut post = pre.clone();
        post.funcs[0].alias = AliasSanFacts::default();
        assert!(check(&pre, &post).is_empty());
    }
}
