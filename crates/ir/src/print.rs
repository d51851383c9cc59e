//! Textual printing of the IR and stable structural fingerprinting.
//!
//! The fingerprint is what the tuners use to detect that two different pass
//! sequences produced the *same binary* (Kulkarni-style redundancy pruning,
//! and the coverage bookkeeping of CITROEN §5.3.4).

use crate::inst::{Inst, Operand, Term};
use crate::module::{Function, GlobalInit, Module};
use crate::types::Ty;
use std::fmt::Write as _;

fn op_str(_f: &Function, op: &Operand) -> String {
    match op {
        Operand::Value(v) => format!("%{}", v.0),
        Operand::ImmI(v, s) => format!("{} {v}", s.name()),
        Operand::ImmF(v) => format!("f64 {v:?}"),
        Operand::Global(g) => format!("@{}", g.0),
    }
}

/// Render one function as text.
pub fn print_function(f: &Function) -> String {
    let mut s = String::new();
    let params: Vec<String> =
        f.params.iter().enumerate().map(|(i, t)| format!("{t} %{i}")).collect();
    let ret = f.ret.map(|t| t.to_string()).unwrap_or_else(|| "void".into());
    let _ = writeln!(s, "func @{}({}) -> {} {{", f.name, params.join(", "), ret);
    for (b, blk) in f.iter_blocks() {
        let _ = writeln!(s, "b{}:", b.0);
        for inst in &blk.insts {
            let line = match inst {
                Inst::Bin { dst, op, lhs, rhs } => format!(
                    "%{} = {}.{} {}, {}",
                    dst.0,
                    op.name(),
                    f.ty(*dst),
                    op_str(f, lhs),
                    op_str(f, rhs)
                ),
                Inst::Cmp { dst, op, lhs, rhs } => {
                    format!("%{} = cmp.{} {}, {}", dst.0, op.name(), op_str(f, lhs), op_str(f, rhs))
                }
                Inst::Cast { dst, kind, src } => {
                    format!("%{} = {} {} to {}", dst.0, kind.name(), op_str(f, src), f.ty(*dst))
                }
                Inst::Alloca { dst, bytes } => format!("%{} = alloca {}", dst.0, bytes),
                Inst::Load { dst, addr } => {
                    format!("%{} = load {}, {}", dst.0, f.ty(*dst), op_str(f, addr))
                }
                Inst::Store { ty, val, addr } => {
                    format!("store {}, {}, {}", ty, op_str(f, val), op_str(f, addr))
                }
                Inst::Call { dst, callee, args } => {
                    let a: Vec<String> = args.iter().map(|x| op_str(f, x)).collect();
                    match dst {
                        Some(d) => format!("%{} = call f{}({})", d.0, callee.0, a.join(", ")),
                        None => format!("call f{}({})", callee.0, a.join(", ")),
                    }
                }
                Inst::Phi { dst, incoming } => {
                    let a: Vec<String> = incoming
                        .iter()
                        .map(|(b, o)| format!("[b{}: {}]", b.0, op_str(f, o)))
                        .collect();
                    format!("%{} = phi {} {}", dst.0, f.ty(*dst), a.join(", "))
                }
                Inst::Select { dst, cond, t, f: fv } => format!(
                    "%{} = select {}, {}, {}",
                    dst.0,
                    op_str(f, cond),
                    op_str(f, t),
                    op_str(f, fv)
                ),
                Inst::Splat { dst, src } => {
                    format!("%{} = splat {} {}", dst.0, f.ty(*dst), op_str(f, src))
                }
                Inst::ExtractLane { dst, src, lane } => {
                    format!("%{} = extractlane {}, {}", dst.0, op_str(f, src), lane)
                }
                Inst::Reduce { dst, op, src } => {
                    format!("%{} = reduce.{} {}", dst.0, op.name(), op_str(f, src))
                }
            };
            let _ = writeln!(s, "  {line}");
        }
        let t = match &blk.term {
            Term::Br(b) => format!("br b{}", b.0),
            Term::CondBr { cond, t, f: fb } => {
                format!("condbr {}, b{}, b{}", op_str(f, cond), t.0, fb.0)
            }
            Term::Ret(Some(op)) => format!("ret {}", op_str(f, op)),
            Term::Ret(None) => "ret".into(),
            Term::Unreachable => "unreachable".into(),
        };
        let _ = writeln!(s, "  {t}");
    }
    let _ = writeln!(s, "}}");
    s
}

/// Render a whole module as text.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "module {}", m.name);
    for (i, g) in m.globals.iter().enumerate() {
        let kind = match &g.init {
            GlobalInit::Zero(n) => format!("zero[{n}]"),
            GlobalInit::I8s(v) => format!("i8[{}]", v.len()),
            GlobalInit::I16s(v) => format!("i16[{}]", v.len()),
            GlobalInit::I32s(v) => format!("i32[{}]", v.len()),
            GlobalInit::I64s(v) => format!("i64[{}]", v.len()),
            GlobalInit::F64s(v) => format!("f64[{}]", v.len()),
        };
        let _ = writeln!(s, "global @{i} {} : {kind}", g.name);
    }
    for f in &m.funcs {
        s.push_str(&print_function(f));
    }
    s
}

/// 64-bit FNV-1a — stable across platforms and Rust releases, unlike
/// `DefaultHasher`, so fingerprints can be persisted.
#[derive(Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Fresh hasher with the standard offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf29ce484222325)
    }
    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    /// Absorb a u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    /// Final digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable structural fingerprint of a module (the "binary hash"): equal
/// exactly when the modules print equally ([`print_module`]) and carry the
/// same function attributes, which affect codegen (call cost) but not the
/// printed body.
///
/// The hash is taken straight from the IR, a word at a time, over exactly
/// the fields the printer renders, in a prefix-free encoding (a tag or a
/// length before every variable part), so no text is built. What the
/// printer leaves out is left out here too: global contents and the
/// `mutable`/`external` flags, and the types of values whose type the
/// printed line does not show. Omitting global contents is sound for the
/// uses this hash has (binary identity of pass-sequence outputs, the
/// no-op checks): globals are fixed at build time, and no pass writes
/// `Module::globals` (the pass suite's `no_pass_touches_globals` test
/// holds every registered pass to that). Names are hashed by length and
/// bytes; a name containing the printer's own delimiters is the one case
/// where the two relations could part, and no builder makes one.
pub fn fingerprint(m: &Module) -> u64 {
    let mut h = Words::new();
    h.bytes(m.name.as_bytes());
    h.word(m.globals.len() as u64);
    for g in &m.globals {
        h.bytes(g.name.as_bytes());
        let (kind, len) = match &g.init {
            GlobalInit::Zero(n) => (0, *n as u64),
            GlobalInit::I8s(v) => (1, v.len() as u64),
            GlobalInit::I16s(v) => (2, v.len() as u64),
            GlobalInit::I32s(v) => (3, v.len() as u64),
            GlobalInit::I64s(v) => (4, v.len() as u64),
            GlobalInit::F64s(v) => (5, v.len() as u64),
        };
        h.word(kind << 56 | len);
    }
    h.word(m.funcs.len() as u64);
    for f in &m.funcs {
        hash_function(&mut h, f);
    }
    h.finish()
}

/// Hash of every function's value-type table: its length and each type, in
/// order. This is the part of a function [`fingerprint`] leaves out besides
/// global contents: the printer shows some values' types only (a `cmp`
/// prints none) and never the table's length, yet a pass may read both
/// (the next fresh value's id is the length). A key over the fingerprint
/// and this hash tells apart every two modules with the same globals, but
/// for NaN payloads, which the printer and the fingerprint treat alike.
pub fn value_types(m: &Module) -> u64 {
    let mut h = Words::new();
    h.word(m.funcs.len() as u64);
    for f in &m.funcs {
        h.word(f.value_ty.len() as u64);
        for &t in &f.value_ty {
            h.word(ty_word(t));
        }
    }
    h.finish()
}

/// A type as the printer distinguishes it: scalar kind and lane count.
fn ty_word(t: Ty) -> u64 {
    t.scalar as u64 | (t.lanes as u64) << 8
}

/// Stands for "no type" in a slot that may hold one (a `void` return, a
/// line that prints no type); no [`ScalarTy`](crate::types::ScalarTy) has
/// discriminant 255, so no [`ty_word`] equals it.
const NO_TY: u64 = 0xff;

/// An instruction's or terminator's lead word: its tag, one small operand
/// field (an op, cast kind or lane), a [`ty_word`] or [`NO_TY`], and a
/// 32-bit id (the destination value, or a target block).
fn lead(tag: u64, small: u64, ty: u64, id: u32) -> u64 {
    tag | small << 8 | ty << 16 | (id as u64) << 32
}

fn hash_function(h: &mut Words, f: &Function) {
    h.bytes(f.name.as_bytes());
    let attrs = f.attrs.readnone as u64
        | (f.attrs.readonly as u64) << 1
        | (f.attrs.noinline as u64) << 2;
    let ret = f.ret.map_or(NO_TY, ty_word);
    h.word(attrs | ret << 8 | (f.params.len() as u64) << 32);
    for &t in &f.params {
        h.word(ty_word(t));
    }
    h.word(f.blocks.len() as u64);
    for blk in &f.blocks {
        h.word(blk.insts.len() as u64);
        for inst in &blk.insts {
            match inst {
                Inst::Bin { dst, op, lhs, rhs } => {
                    h.word(lead(1, *op as u64, ty_word(f.ty(*dst)), dst.0));
                    h.operand(lhs);
                    h.operand(rhs);
                }
                Inst::Cmp { dst, op, lhs, rhs } => {
                    h.word(lead(2, *op as u64, NO_TY, dst.0));
                    h.operand(lhs);
                    h.operand(rhs);
                }
                Inst::Cast { dst, kind, src } => {
                    h.word(lead(3, *kind as u64, ty_word(f.ty(*dst)), dst.0));
                    h.operand(src);
                }
                Inst::Alloca { dst, bytes } => {
                    h.word(lead(4, 0, NO_TY, dst.0));
                    h.word(*bytes as u64);
                }
                Inst::Load { dst, addr } => {
                    h.word(lead(5, 0, ty_word(f.ty(*dst)), dst.0));
                    h.operand(addr);
                }
                Inst::Store { ty, val, addr } => {
                    h.word(lead(6, 0, ty_word(*ty), 0));
                    h.operand(val);
                    h.operand(addr);
                }
                Inst::Call { dst, callee, args } => {
                    h.word(match dst {
                        Some(d) => lead(7, 0, NO_TY, d.0),
                        None => lead(8, 0, NO_TY, 0),
                    });
                    h.word(callee.0 as u64 | (args.len() as u64) << 32);
                    for a in args {
                        h.operand(a);
                    }
                }
                Inst::Phi { dst, incoming } => {
                    h.word(lead(9, 0, ty_word(f.ty(*dst)), dst.0));
                    h.word(incoming.len() as u64);
                    for (b, o) in incoming {
                        h.word(b.0 as u64);
                        h.operand(o);
                    }
                }
                Inst::Select { dst, cond, t, f: fv } => {
                    h.word(lead(10, 0, NO_TY, dst.0));
                    h.operand(cond);
                    h.operand(t);
                    h.operand(fv);
                }
                Inst::Splat { dst, src } => {
                    h.word(lead(11, 0, ty_word(f.ty(*dst)), dst.0));
                    h.operand(src);
                }
                Inst::ExtractLane { dst, src, lane } => {
                    h.word(lead(12, *lane as u64, NO_TY, dst.0));
                    h.operand(src);
                }
                Inst::Reduce { dst, op, src } => {
                    h.word(lead(13, *op as u64, NO_TY, dst.0));
                    h.operand(src);
                }
            }
        }
        match &blk.term {
            Term::Br(b) => h.word(lead(20, 0, NO_TY, b.0)),
            Term::CondBr { cond, t, f: fb } => {
                h.word(lead(21, 0, NO_TY, t.0));
                h.word(fb.0 as u64);
                h.operand(cond);
            }
            Term::Ret(Some(op)) => {
                h.word(lead(22, 0, NO_TY, 0));
                h.operand(op);
            }
            Term::Ret(None) => h.word(lead(23, 0, NO_TY, 0)),
            Term::Unreachable => h.word(lead(24, 0, NO_TY, 0)),
        }
    }
}

/// The word-at-a-time hasher behind [`fingerprint`]. Each step is a
/// bijection of the state for a fixed input word (xor, multiply by an odd
/// constant, xor-shift), so two word streams of one length that differ in a
/// single word never collide; [`Words::finish`] avalanches the state.
struct Words(u64);

impl Words {
    fn new() -> Words {
        Words(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ x >> 32;
    }

    /// A length, then the bytes eight at a time (the last word zero-padded).
    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// An operand as [`op_str`] distinguishes it: a tag word carrying a
    /// value or global id or an immediate's scalar type, then the
    /// immediate's bits. Every NaN prints as `NaN`, so NaNs hash alike.
    #[inline]
    fn operand(&mut self, op: &Operand) {
        match op {
            Operand::Value(v) => self.word(1 << 56 | v.0 as u64),
            Operand::Global(g) => self.word(2 << 56 | g.0 as u64),
            Operand::ImmI(v, s) => {
                self.word(3 << 56 | *s as u64);
                self.word(*v as u64);
            }
            Operand::ImmF(v) => {
                self.word(4 << 56);
                self.word(if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() });
            }
        }
    }

    fn finish(self) -> u64 {
        let mut x = self.0;
        x = (x ^ x >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ x >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ x >> 31
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Operand};
    use crate::types::I64;

    fn sample() -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let x = b.bin(BinOp::Add, I64, b.param(0), Operand::imm64(1));
        b.ret(Some(x));
        m.add_func(b.finish());
        m
    }

    #[test]
    fn print_contains_expected_tokens() {
        let m = sample();
        let s = print_module(&m);
        assert!(s.contains("func @f(i64 %0) -> i64"));
        assert!(s.contains("add.i64"));
        assert!(s.contains("ret %1"));
    }

    #[test]
    fn fingerprint_stable_and_sensitive() {
        let m1 = sample();
        let m2 = sample();
        assert_eq!(fingerprint(&m1), fingerprint(&m2));
        let mut m3 = sample();
        // Change the constant — fingerprint must change.
        if let Inst::Bin { rhs, .. } = &mut m3.funcs[0].blocks[0].insts[0] {
            *rhs = Operand::imm64(2);
        }
        assert_ne!(fingerprint(&m1), fingerprint(&m3));
        // Changing attrs also changes the fingerprint.
        let mut m4 = sample();
        m4.funcs[0].attrs.readnone = true;
        assert_ne!(fingerprint(&m1), fingerprint(&m4));
    }

    #[test]
    fn fingerprint_follows_the_printed_text() {
        let with_imm = |x: f64| {
            let mut m = sample();
            if let Inst::Bin { rhs, .. } = &mut m.funcs[0].blocks[0].insts[0] {
                *rhs = Operand::ImmF(x);
            }
            m
        };
        // Every NaN prints as `NaN`; the two zeros print apart.
        let nan = f64::from_bits(f64::NAN.to_bits() | 1);
        assert_eq!(print_module(&with_imm(nan)), print_module(&with_imm(-f64::NAN)));
        assert_eq!(fingerprint(&with_imm(nan)), fingerprint(&with_imm(-f64::NAN)));
        assert_ne!(fingerprint(&with_imm(0.0)), fingerprint(&with_imm(-0.0)));
        // Global contents and flags are not printed, their shape is.
        let mut a = sample();
        a.add_global("g", GlobalInit::I32s(vec![1, 2]), false);
        let mut b = sample();
        b.add_global("g", GlobalInit::I32s(vec![3, 4]), true);
        assert_eq!(print_module(&a), print_module(&b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.globals[0].init = GlobalInit::I32s(vec![3]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf29ce484222325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }
}
