//! The structural fingerprint's contract: two modules get equal fingerprints
//! exactly when they print equally and carry the same function attributes.
//! Checked on suite modules, random generated modules and compile results of
//! both, over every single-field variant of a module this file can make:
//! some change a printed field (the fingerprint must move) and some only a
//! field the printer leaves out (it must not). A field left out of the hash
//! shows as a variant whose text moved while its fingerprint did not.
//! (Compile results alone would not show it: among 558 of them over the
//! suite, no two that printed equally were different modules.)
//!
//! The printer, and so the fingerprint, leaves out global contents and the
//! `mutable`/`external` flags; that is sound only while no pass writes
//! `Module::globals`, which the last test holds every pass to.

use citroen_ir::inst::{
    BinOp, BlockId, CastKind, CmpOp, FuncId, GlobalId, Inst, Operand, Term, ValueId,
};
use citroen_ir::module::{FnAttrs, Function, GlobalInit, Module};
use citroen_ir::print::{fingerprint, print_module};
use citroen_ir::types::{ScalarTy, Ty, F64, I1, I32, I64};
use citroen_passes::{o3_pipeline, PassId, PassManager, Registry, Stats};
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_suite::generator::{generate, GenConfig};

/// What the fingerprint must partition by: the text and the attributes.
type Printed = (String, Vec<(bool, bool, bool)>);

fn printed(m: &Module) -> Printed {
    let attrs = |a: FnAttrs| (a.readnone, a.readonly, a.noinline);
    (
        print_module(m),
        m.funcs.iter().map(|f| attrs(f.attrs)).collect(),
    )
}

fn random_seq(reg: &Registry, rng: &mut StdRng, len: usize) -> Vec<PassId> {
    (0..len)
        .map(|_| PassId(rng.gen_range(0..reg.len()) as u16))
        .collect()
}

/// `m` with `f` applied.
fn with(m: &Module, f: impl FnOnce(&mut Module)) -> Module {
    let mut v = m.clone();
    f(&mut v);
    v
}

fn other_scalar(s: ScalarTy) -> ScalarTy {
    if s == ScalarTy::I64 {
        ScalarTy::I32
    } else {
        ScalarTy::I64
    }
}

fn other_ty(t: Ty) -> Ty {
    Ty {
        scalar: other_scalar(t.scalar),
        lanes: t.lanes,
    }
}

/// Variants of one operand: each changes what it prints, except the NaN
/// payload, which prints as `NaN` either way.
fn operand_variants(op: Operand) -> Vec<Operand> {
    match op {
        Operand::Value(v) => vec![
            Operand::Value(ValueId(v.0 + 1)),
            Operand::Global(GlobalId(v.0)),
        ],
        Operand::Global(g) => vec![
            Operand::Global(GlobalId(g.0 + 1)),
            Operand::Value(ValueId(g.0)),
        ],
        Operand::ImmI(v, s) => vec![
            Operand::ImmI(v.wrapping_add(1), s),
            Operand::ImmI(v, other_scalar(s)),
            Operand::ImmF(v as f64),
        ],
        Operand::ImmF(x) => vec![
            Operand::ImmF(x + 1.0),
            Operand::ImmF(-x),
            Operand::ImmF(f64::NAN),
            Operand::ImmF(f64::from_bits(f64::NAN.to_bits() ^ 1)),
            Operand::ImmF(-f64::NAN),
        ],
    }
}

/// Every single-field variant of instruction `inst` this test makes, in a
/// function of `n_values` values.
fn inst_variants(inst: &Inst, n_values: u32) -> Vec<Inst> {
    let mut out = Vec::new();
    let mut n_ops = 0;
    inst.for_each_operand(|_| n_ops += 1);
    for k in 0..n_ops {
        let mut cur = None;
        let mut i = 0;
        inst.for_each_operand(|o| {
            if i == k {
                cur = Some(*o);
            }
            i += 1;
        });
        for new in operand_variants(cur.expect("k < operand count")) {
            let mut v = inst.clone();
            let mut i = 0;
            v.for_each_operand_mut(|o| {
                if i == k {
                    *o = new;
                }
                i += 1;
            });
            out.push(v);
        }
    }
    let mut v = inst.clone();
    match &mut v {
        Inst::Bin { op, .. } => {
            *op = if *op == BinOp::Add {
                BinOp::Sub
            } else {
                BinOp::Add
            };
            out.push(v.clone());
        }
        Inst::Cmp { op, .. } => {
            *op = if *op == CmpOp::Eq {
                CmpOp::Ne
            } else {
                CmpOp::Eq
            };
            out.push(v.clone());
        }
        Inst::Cast { kind, .. } => {
            *kind = if *kind == CastKind::SExt {
                CastKind::ZExt
            } else {
                CastKind::SExt
            };
            out.push(v.clone());
        }
        Inst::Alloca { bytes, .. } => {
            *bytes += 1;
            out.push(v.clone());
        }
        Inst::Store { ty, .. } => {
            *ty = other_ty(*ty);
            out.push(v.clone());
        }
        Inst::Call { callee, .. } => {
            *callee = FuncId(callee.0 + 1);
            out.push(v.clone());
            let mut w = inst.clone();
            if let Inst::Call { dst, .. } = &mut w {
                *dst = match dst {
                    Some(_) => None,
                    None => Some(ValueId(0)),
                };
                out.push(w.clone());
            }
            let mut w = inst.clone();
            if let Inst::Call { args, .. } = &mut w {
                args.push(Operand::imm64(0));
            }
            out.push(w);
        }
        Inst::Phi { incoming, .. } => {
            if let Some((b, _)) = incoming.first_mut() {
                *b = BlockId(b.0 + 1);
                out.push(v.clone());
            }
            let mut w = inst.clone();
            if let Inst::Phi { incoming, .. } = &mut w {
                incoming.pop();
            }
            out.push(w);
        }
        Inst::ExtractLane { lane, .. } => {
            *lane += 1;
            out.push(v.clone());
        }
        Inst::Reduce { op, .. } => {
            *op = if *op == BinOp::Add {
                BinOp::Mul
            } else {
                BinOp::Add
            };
            out.push(v.clone());
        }
        Inst::Load { .. } | Inst::Select { .. } | Inst::Splat { .. } => {}
    }
    if let Some(d) = inst.dst() {
        let mut w = inst.clone();
        let moved = ValueId((d.0 + 1) % n_values);
        match &mut w {
            Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Alloca { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Phi { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Splat { dst, .. }
            | Inst::ExtractLane { dst, .. }
            | Inst::Reduce { dst, .. } => *dst = moved,
            Inst::Call { dst, .. } => *dst = Some(moved),
            Inst::Store { .. } => {}
        }
        out.push(w);
    }
    out
}

fn term_variants(t: &Term) -> Vec<Term> {
    let next = |b: BlockId| BlockId(b.0 + 1);
    let mut out = vec![Term::Unreachable, Term::Ret(None)];
    match t {
        Term::Br(b) => out.push(Term::Br(next(*b))),
        Term::CondBr { cond, t, f } => {
            out.push(Term::CondBr {
                cond: *cond,
                t: next(*t),
                f: *f,
            });
            out.push(Term::CondBr {
                cond: *cond,
                t: *t,
                f: next(*f),
            });
            out.push(Term::Br(*t));
            for c in operand_variants(*cond) {
                out.push(Term::CondBr {
                    cond: c,
                    t: *t,
                    f: *f,
                });
            }
        }
        Term::Ret(Some(op)) => out.extend(
            operand_variants(*op)
                .into_iter()
                .map(|o| Term::Ret(Some(o))),
        ),
        Term::Ret(None) => out.push(Term::Ret(Some(Operand::imm64(0)))),
        Term::Unreachable => {}
    }
    out.retain(|v| v != t);
    out
}

/// Every single-field variant of `m` this test makes, printed or not.
fn variants(m: &Module) -> Vec<Module> {
    let mut out = vec![with(m, |v| v.name.push('x'))];
    for (gi, g) in m.globals.iter().enumerate() {
        out.push(with(m, |v| v.globals[gi].name.push('x')));
        out.push(with(m, |v| v.globals[gi].mutable = !g.mutable));
        out.push(with(m, |v| v.globals[gi].external = !g.external));
        let n = g.init.bytes();
        out.push(with(m, |v| v.globals[gi].init = GlobalInit::Zero(n + 1)));
        out.push(with(m, |v| {
            v.globals[gi].init = GlobalInit::I8s(vec![1; n as usize])
        }));
        out.push(with(m, |v| match &mut v.globals[gi].init {
            GlobalInit::I8s(x) => x.iter_mut().for_each(|e| *e = e.wrapping_add(1)),
            GlobalInit::I16s(x) => x.iter_mut().for_each(|e| *e = e.wrapping_add(1)),
            GlobalInit::I32s(x) => x.iter_mut().for_each(|e| *e = e.wrapping_add(1)),
            GlobalInit::I64s(x) => x.iter_mut().for_each(|e| *e = e.wrapping_add(1)),
            GlobalInit::F64s(x) => x.iter_mut().for_each(|e| *e += 1.0),
            GlobalInit::Zero(_) => {}
        }));
    }
    for (fi, f) in m.funcs.iter().enumerate() {
        out.push(with(m, |v| v.funcs[fi].name.push('x')));
        out.push(with(m, |v| v.funcs[fi].attrs.readnone ^= true));
        out.push(with(m, |v| v.funcs[fi].attrs.readonly ^= true));
        out.push(with(m, |v| v.funcs[fi].attrs.noinline ^= true));
        out.push(with(m, |v| {
            v.funcs[fi].ret = if f.ret.is_some() { None } else { Some(I64) }
        }));
        out.push(with(m, |v| v.funcs[fi].ret = f.ret.map(other_ty)));
        out.push(with(m, |v| v.funcs[fi].params.push(F64)));
        if !f.params.is_empty() {
            out.push(with(m, |v| v.funcs[fi].params[0] = other_ty(f.params[0])));
        }
        out.push(with(m, |v| {
            v.funcs[fi].new_block();
        }));
        out.push(with(m, |v| {
            v.funcs[fi].new_value(I32);
        }));
        for (bi, blk) in f.blocks.iter().enumerate() {
            for t in term_variants(&blk.term) {
                out.push(with(m, |v| v.funcs[fi].blocks[bi].term = t));
            }
            for (ii, inst) in blk.insts.iter().enumerate() {
                out.push(with(m, |v| {
                    v.funcs[fi].blocks[bi].insts.remove(ii);
                }));
                for new in inst_variants(inst, f.value_ty.len() as u32) {
                    out.push(with(m, |v| v.funcs[fi].blocks[bi].insts[ii] = new));
                }
                // The destination's type: printed on some lines only.
                if let Some(d) = inst.dst() {
                    let t = other_ty(f.ty(d));
                    out.push(with(m, |v| v.funcs[fi].value_ty[d.idx()] = t));
                }
            }
        }
    }
    out
}

/// A module using every instruction and terminator kind, a NaN immediate
/// among its operands, and two functions (one `void`, with attributes).
fn every_kind() -> Module {
    let mut m = Module::new("kinds");
    let g = m.add_global("tbl", GlobalInit::I32s(vec![1, 2, 3, 4]), true);
    let mut f = Function::new("k", vec![I64, F64], Some(I64));
    let (b1, b2, b3) = (f.new_block(), f.new_block(), f.new_block());
    let (p0, v4) = (Operand::Value(ValueId(0)), Ty::vector(ScalarTy::I64, 4));
    let mut val = |t: Ty| f.new_value(t);
    let (sum, lt, wide, slot, ld, ret) =
        (val(I64), val(I1), val(I64), val(I64), val(I64), val(I64));
    let (splat, lane, red, sel, phi) = (val(v4), val(I64), val(I64), val(I64), val(I64));
    let op = Operand::Value;
    let entry = vec![
        Inst::Bin {
            dst: sum,
            op: BinOp::Add,
            lhs: p0,
            rhs: Operand::imm64(1),
        },
        Inst::Cmp {
            dst: lt,
            op: CmpOp::Slt,
            lhs: op(sum),
            rhs: Operand::imm32(10),
        },
        Inst::Cast {
            dst: wide,
            kind: CastKind::SExt,
            src: op(lt),
        },
        Inst::Alloca {
            dst: slot,
            bytes: 16,
        },
        Inst::Store {
            ty: I64,
            val: op(wide),
            addr: op(slot),
        },
        Inst::Load {
            dst: ld,
            addr: Operand::Global(g),
        },
        Inst::Call {
            dst: Some(ret),
            callee: FuncId(1),
            args: vec![op(ld), Operand::ImmF(1.5), Operand::ImmF(f64::NAN)],
        },
        Inst::Call {
            dst: None,
            callee: FuncId(1),
            args: vec![],
        },
        Inst::Splat {
            dst: splat,
            src: op(ld),
        },
        Inst::ExtractLane {
            dst: lane,
            src: op(splat),
            lane: 2,
        },
        Inst::Reduce {
            dst: red,
            op: BinOp::Add,
            src: op(splat),
        },
        Inst::Select {
            dst: sel,
            cond: op(lt),
            t: op(lane),
            f: op(red),
        },
    ];
    f.blocks[0].insts = entry;
    f.blocks[0].term = Term::CondBr {
        cond: op(lt),
        t: b1,
        f: b2,
    };
    f.blocks[b1.idx()].term = Term::Br(b2);
    f.blocks[b2.idx()].insts = vec![Inst::Phi {
        dst: phi,
        incoming: vec![(BlockId(0), op(sel)), (b1, Operand::ImmF(-0.0))],
    }];
    f.blocks[b2.idx()].term = Term::Ret(Some(op(phi)));
    f.blocks[b3.idx()].term = Term::Unreachable;
    m.add_func(f);
    let mut v = Function::new("v", vec![], None);
    v.attrs.readonly = true;
    v.blocks[0].term = Term::Ret(None);
    m.add_func(v);
    m
}

#[test]
fn every_single_field_variant_moves_the_fingerprint_exactly_when_it_moves_the_text() {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let o3 = o3_pipeline(&reg);
    let mut mods: Vec<Module> = vec![every_kind()];
    for b in citroen_suite::all_benchmarks().into_iter().take(4) {
        for m in b.modules.into_iter().take(2) {
            mods.push(pm.compile(&m, &o3).module);
            mods.push(m);
        }
    }
    let mut rng = StdRng::seed_from_u64(0xF1A9);
    for s in 0..3 {
        let m = generate(100 + s, &GenConfig::default());
        mods.push(pm.compile(&m, &random_seq(&reg, &mut rng, 8)).module);
        mods.push(m);
    }
    let (mut moved, mut kept) = (0usize, 0usize);
    for m in &mods {
        let (text, fp) = (printed(m), fingerprint(m));
        for v in variants(m) {
            let same_text = printed(&v) == text;
            assert_eq!(
                fingerprint(&v) == fp,
                same_text,
                "module {}: a variant whose text is {} has {} fingerprint:\n{}",
                m.name,
                if same_text { "unchanged" } else { "changed" },
                if same_text { "a different" } else { "the same" },
                print_module(&v)
            );
            if same_text {
                kept += 1;
            } else {
                moved += 1;
            }
        }
    }
    assert!(
        moved > 1000 && kept > 100,
        "both sides exercised: {moved} moved, {kept} kept"
    );
}

#[test]
fn no_pass_touches_globals() {
    let reg = Registry::full();
    let mut rng = StdRng::seed_from_u64(0x610B);
    for b in citroen_suite::all_benchmarks() {
        for src in &b.modules {
            for _ in 0..3 {
                let mut m = src.clone();
                for id in random_seq(&reg, &mut rng, 16) {
                    reg.pass(id).run(&mut m, &mut Stats::new());
                    assert!(
                        m.globals == src.globals,
                        "{} changed the globals of {}/{}",
                        reg.name(id),
                        b.name,
                        src.name
                    );
                }
            }
        }
    }
}
