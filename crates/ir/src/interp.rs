//! Reference interpreter.
//!
//! Executes a [`Module`] and streams *dynamic events* (per-op-class counts,
//! memory accesses, branch outcomes) into an [`EventSink`]. The performance
//! simulator (`citroen-sim`) implements the sink with a cache model and branch
//! predictor to turn a trace into estimated seconds; differential testing
//! compares the returned value and memory digest between the unoptimised and
//! optimised module.

use crate::inst::{BinOp, CastKind, CmpOp, FuncId, Inst, Operand, Term};
use crate::module::{GlobalInit, Module};
use crate::print::Fnv64;
use crate::types::{ScalarTy, MAX_LANES};

/// A runtime value. Vectors are stored inline (`MAX_LANES` slots + a length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer scalar (canonical sign-extended form).
    I(i64),
    /// Float scalar.
    F(f64),
    /// Integer vector.
    IV([i64; MAX_LANES as usize], u8),
    /// Float vector.
    FV([f64; MAX_LANES as usize], u8),
}

impl Value {
    /// Extract an integer scalar; panics on other variants (verifier rules
    /// make this unreachable on valid IR).
    pub fn as_i(&self) -> i64 {
        match self {
            Value::I(v) => *v,
            other => panic!("expected int scalar, got {other:?}"),
        }
    }
    /// Extract a float scalar.
    pub fn as_f(&self) -> f64 {
        match self {
            Value::F(v) => *v,
            other => panic!("expected float scalar, got {other:?}"),
        }
    }
}

/// Dynamic operation classes, the vocabulary of the machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// Integer add/sub/logic/shift/min/max and compares.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide/remainder.
    IntDiv,
    /// Float add/sub.
    FpAlu,
    /// Float multiply.
    FpMul,
    /// Float divide.
    FpDiv,
    /// Conversion.
    Cast,
    /// Scalar load.
    Load,
    /// Scalar store.
    Store,
    /// Unconditional branch.
    Br,
    /// Conditional branch.
    CondBr,
    /// Function call (overhead at the call site).
    Call,
    /// Function return.
    Ret,
    /// φ resolution (register shuffling).
    Phi,
    /// Select.
    Select,
    /// Vector integer ALU op.
    VecIntAlu,
    /// Vector integer multiply.
    VecIntMul,
    /// Vector float op.
    VecFp,
    /// Vector load.
    VecLoad,
    /// Vector store.
    VecStore,
    /// Horizontal reduction.
    Reduce,
    /// Scalar broadcast.
    Splat,
    /// Stack allocation.
    Alloca,
}

/// Number of op classes (array sizing).
pub const NUM_OP_CLASSES: usize = 23;

impl OpClass {
    /// Dense index for table lookups.
    pub fn idx(self) -> usize {
        self as usize
    }
    /// All classes, in `idx` order.
    pub fn all() -> [OpClass; NUM_OP_CLASSES] {
        use OpClass::*;
        [
            IntAlu, IntMul, IntDiv, FpAlu, FpMul, FpDiv, Cast, Load, Store, Br, CondBr, Call,
            Ret, Phi, Select, VecIntAlu, VecIntMul, VecFp, VecLoad, VecStore, Reduce, Splat,
            Alloca,
        ]
    }
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        use OpClass::*;
        match self {
            IntAlu => "int_alu",
            IntMul => "int_mul",
            IntDiv => "int_div",
            FpAlu => "fp_alu",
            FpMul => "fp_mul",
            FpDiv => "fp_div",
            Cast => "cast",
            Load => "load",
            Store => "store",
            Br => "br",
            CondBr => "condbr",
            Call => "call",
            Ret => "ret",
            Phi => "phi",
            Select => "select",
            VecIntAlu => "vec_int_alu",
            VecIntMul => "vec_int_mul",
            VecFp => "vec_fp",
            VecLoad => "vec_load",
            VecStore => "vec_store",
            Reduce => "reduce",
            Splat => "splat",
            Alloca => "alloca",
        }
    }
}

/// Receives the dynamic event stream of an execution.
pub trait EventSink {
    /// One dynamic operation of class `class` with `lanes` SIMD lanes (1 for scalars).
    fn op(&mut self, class: OpClass, lanes: u8);
    /// A memory access at byte address `addr` of `bytes` bytes.
    fn mem(&mut self, addr: u64, bytes: u32, store: bool);
    /// Same access, attributed to its static site (function, block,
    /// instruction index). Default: ignored — only site-level tools (the
    /// alias soundness oracle) pay for recording.
    fn mem_site(&mut self, f: FuncId, block: u32, inst: u32, addr: u64, bytes: u32, store: bool) {
        let _ = (f, block, inst, addr, bytes, store);
    }
    /// A conditional-branch outcome at static site `site`.
    fn branch(&mut self, site: u32, taken: bool);
    /// Control entered function `f` (perf-style attribution hook).
    fn enter_function(&mut self, f: FuncId) {
        let _ = f;
    }
    /// Control returned from the current function.
    fn exit_function(&mut self) {}
}

/// Sink that only counts per-class totals. Used by tests and as a cheap trace
/// summary.
#[derive(Debug, Clone)]
pub struct CountingSink {
    /// Dynamic count per op class.
    pub counts: [u64; NUM_OP_CLASSES],
    /// Total dynamic operations.
    pub total: u64,
    /// Taken-branch count.
    pub taken: u64,
    /// Conditional branch count.
    pub cond_branches: u64,
}

impl CountingSink {
    /// Zeroed counters.
    pub fn new() -> CountingSink {
        CountingSink { counts: [0; NUM_OP_CLASSES], total: 0, taken: 0, cond_branches: 0 }
    }
    /// Count for one class.
    pub fn count(&self, c: OpClass) -> u64 {
        self.counts[c.idx()]
    }
}

impl Default for CountingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for CountingSink {
    fn op(&mut self, class: OpClass, _lanes: u8) {
        self.counts[class.idx()] += 1;
        self.total += 1;
    }
    fn mem(&mut self, _addr: u64, _bytes: u32, _store: bool) {}
    fn branch(&mut self, _site: u32, taken: bool) {
        self.cond_branches += 1;
        if taken {
            self.taken += 1;
        }
    }
}

/// Execution traps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Integer division by zero.
    DivByZero,
    /// Access outside the memory image.
    OutOfBounds(u64),
    /// Exceeded the dynamic step limit.
    StepLimit,
    /// Exceeded the call-depth limit.
    CallDepth,
    /// Ran out of stack space for allocas.
    StackOverflow,
    /// Executed an `unreachable` terminator.
    Unreachable,
    /// Read of a register never written (malformed IR slipped through).
    UndefRead,
    /// Call of an unresolved declaration (module was not linked).
    UnresolvedCall,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum dynamic operations before [`Trap::StepLimit`].
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: u32,
    /// Stack bytes available for allocas.
    pub stack_bytes: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_steps: 200_000_000, max_depth: 64, stack_bytes: 1 << 20 }
    }
}

/// Result of a successful execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutput {
    /// Return value of the entry function.
    pub ret: Option<Value>,
    /// Total dynamic operations executed.
    pub steps: u64,
    /// FNV digest of all mutable globals after execution — combined with
    /// `ret`, this is the observable behaviour differential testing compares.
    pub mem_digest: u64,
}

/// Byte-addressed flat memory image: globals at the bottom, alloca stack on top.
struct Memory {
    data: Vec<u8>,
    global_addr: Vec<u64>,
    sp: u64,
    limit: u64,
}

const GLOBAL_BASE: u64 = 0x1000;

impl Memory {
    /// Lay out and initialise the globals of `m`; reserve `stack_bytes` on top.
    fn new(m: &Module, stack_bytes: u64) -> Memory {
        let mut addr = GLOBAL_BASE;
        let mut global_addr = Vec::with_capacity(m.globals.len());
        for g in &m.globals {
            global_addr.push(addr);
            addr += (g.init.bytes() as u64 + 7) & !7;
        }
        let global_end = addr;
        let total = global_end + stack_bytes;
        let mut data = vec![0u8; total as usize];
        for (g, &base) in m.globals.iter().zip(&global_addr) {
            let b = base as usize;
            match &g.init {
                GlobalInit::Zero(_) => {}
                GlobalInit::I8s(v) => {
                    for (i, x) in v.iter().enumerate() {
                        data[b + i] = *x as u8;
                    }
                }
                GlobalInit::I16s(v) => {
                    for (i, x) in v.iter().enumerate() {
                        data[b + 2 * i..b + 2 * i + 2].copy_from_slice(&x.to_le_bytes());
                    }
                }
                GlobalInit::I32s(v) => {
                    for (i, x) in v.iter().enumerate() {
                        data[b + 4 * i..b + 4 * i + 4].copy_from_slice(&x.to_le_bytes());
                    }
                }
                GlobalInit::I64s(v) => {
                    for (i, x) in v.iter().enumerate() {
                        data[b + 8 * i..b + 8 * i + 8].copy_from_slice(&x.to_le_bytes());
                    }
                }
                GlobalInit::F64s(v) => {
                    for (i, x) in v.iter().enumerate() {
                        data[b + 8 * i..b + 8 * i + 8].copy_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            }
        }
        Memory { data, global_addr, sp: global_end, limit: total }
    }

    /// Address of global `g`.
    fn global_addr(&self, g: usize) -> u64 {
        self.global_addr[g]
    }

    /// Bounds check `bytes` bytes at `addr`; an access whose end does not
    /// fit in 64 bits is out of bounds, not wrapped.
    fn check(&self, addr: u64, bytes: u32) -> Result<usize, Trap> {
        match addr.checked_add(bytes as u64) {
            Some(end) if addr >= GLOBAL_BASE && end <= self.limit => Ok(addr as usize),
            _ => Err(Trap::OutOfBounds(addr)),
        }
    }

    /// Read a scalar of type `ty` at `addr` (canonical sign-extended form for ints).
    fn read(&self, ty: ScalarTy, addr: u64) -> Result<Cell, Trap> {
        let a = self.check(addr, ty.bytes())?;
        let raw = match ty.bytes() {
            1 => self.data[a] as i64,
            2 => i16::from_le_bytes([self.data[a], self.data[a + 1]]) as i64,
            4 => i32::from_le_bytes(self.data[a..a + 4].try_into().unwrap()) as i64,
            _ => i64::from_le_bytes(self.data[a..a + 8].try_into().unwrap()),
        };
        Ok(if ty == ScalarTy::F64 {
            Cell::F(f64::from_bits(raw as u64))
        } else {
            Cell::I(ty.sext(raw))
        })
    }

    /// Write a scalar of type `ty` at `addr`.
    fn write(&mut self, ty: ScalarTy, addr: u64, v: Cell) -> Result<(), Trap> {
        let a = self.check(addr, ty.bytes())?;
        let bits = v.bits();
        match ty.bytes() {
            1 => self.data[a] = bits as u8,
            2 => self.data[a..a + 2].copy_from_slice(&(bits as i16).to_le_bytes()),
            4 => self.data[a..a + 4].copy_from_slice(&(bits as i32).to_le_bytes()),
            _ => self.data[a..a + 8].copy_from_slice(&bits.to_le_bytes()),
        }
        Ok(())
    }

    /// Read `lanes` consecutive elements of type `s` at `addr`.
    fn read_vector(&self, s: ScalarTy, lanes: u8, addr: u64) -> Result<Value, Trap> {
        if s == ScalarTy::F64 {
            let mut xs = [0.0; MAX_LANES as usize];
            for (i, x) in xs.iter_mut().enumerate().take(lanes as usize) {
                *x = self.read(s, lane_addr(addr, i, s)?)?.as_f();
            }
            Ok(Value::FV(xs, lanes))
        } else {
            let mut xs = [0i64; MAX_LANES as usize];
            for (i, x) in xs.iter_mut().enumerate().take(lanes as usize) {
                *x = self.read(s, lane_addr(addr, i, s)?)?.as_i();
            }
            Ok(Value::IV(xs, lanes))
        }
    }

    /// Write the first `lanes` elements of vector `v` as type `s` at `addr`.
    fn write_vector(&mut self, s: ScalarTy, lanes: u8, addr: u64, v: &Value) -> Result<(), Trap> {
        match v {
            Value::IV(xs, _) => {
                for (i, x) in xs.iter().enumerate().take(lanes as usize) {
                    self.write(s, lane_addr(addr, i, s)?, Cell::I(*x))?;
                }
            }
            Value::FV(xs, _) => {
                for (i, x) in xs.iter().enumerate().take(lanes as usize) {
                    self.write(s, lane_addr(addr, i, s)?, Cell::F(*x))?;
                }
            }
            _ => return Err(Trap::UndefRead),
        }
        Ok(())
    }

    fn alloca(&mut self, bytes: u32) -> Result<u64, Trap> {
        let addr = (self.sp + 7) & !7;
        if addr + bytes as u64 > self.limit {
            return Err(Trap::StackOverflow);
        }
        self.sp = addr + bytes as u64;
        // Allocas are zero-initialised for determinism (LLVM would give undef;
        // zeroing keeps differential testing meaningful for sloppy kernels).
        self.data[addr as usize..self.sp as usize].fill(0);
        Ok(addr)
    }

    /// Digest of the mutable-global region (observable program state).
    fn digest(&self, m: &Module) -> u64 {
        let mut h = Fnv64::new();
        for (g, &base) in m.globals.iter().zip(&self.global_addr) {
            if g.mutable {
                let b = base as usize;
                h.write(&self.data[b..b + g.init.bytes() as usize]);
            }
        }
        h.finish()
    }
}

/// Address of lane `i` of a vector of `s` elements at `addr`; a lane past
/// the top of the address space is out of bounds, not wrapped.
fn lane_addr(addr: u64, i: usize, s: ScalarTy) -> Result<u64, Trap> {
    addr.checked_add(i as u64 * s.bytes() as u64).ok_or(Trap::OutOfBounds(addr))
}

/// One register of a frame, at most 16 bytes. Scalars are held inline; a
/// vector lives in the frame's lane array and the register holds its slot,
/// so scalar code never copies lane storage on an operand read or a result
/// write.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Never written; reading it traps with [`Trap::UndefRead`].
    Undef,
    /// Integer scalar (canonical sign-extended form).
    I(i64),
    /// Float scalar.
    F(f64),
    /// Vector: index into [`Frame::vecs`].
    V(u32),
}

impl Cell {
    fn as_i(self) -> i64 {
        match self {
            Cell::I(v) => v,
            other => panic!("expected int scalar, got {other:?}"),
        }
    }

    fn as_f(self) -> f64 {
        match self {
            Cell::F(v) => v,
            other => panic!("expected float scalar, got {other:?}"),
        }
    }

    /// The scalar's bit pattern as stored to memory.
    fn bits(self) -> i64 {
        match self {
            Cell::I(x) => x,
            Cell::F(x) => x.to_bits() as i64,
            _ => panic!("vector value in scalar store"),
        }
    }
}

/// The registers of one activation: a [`Cell`] per value of the function,
/// plus a lane array holding its vector values. Only values that receive a
/// vector (vector-typed values, in valid IR) get a lane slot; a value keeps
/// its slot for the life of the frame.
struct Frame {
    regs: Vec<Cell>,
    vecs: Vec<Value>,
}

impl Frame {
    fn new(values: usize) -> Frame {
        Frame { regs: vec![Cell::Undef; values], vecs: Vec::new() }
    }

    /// Write a value to register `d`.
    fn put(&mut self, d: usize, v: Value) {
        match v {
            Value::I(x) => self.regs[d] = Cell::I(x),
            Value::F(x) => self.regs[d] = Cell::F(x),
            Value::IV(..) | Value::FV(..) => match self.regs[d] {
                Cell::V(s) => self.vecs[s as usize] = v,
                _ => {
                    self.regs[d] = Cell::V(self.vecs.len() as u32);
                    self.vecs.push(v);
                }
            },
        }
    }

    /// Write `c`, read from this frame, to register `d`.
    fn set(&mut self, d: usize, c: Cell) {
        match c {
            Cell::V(s) => self.put(d, self.vecs[s as usize]),
            c => self.regs[d] = c,
        }
    }

    /// The value a defined register holds.
    fn value(&self, c: Cell) -> Value {
        match c {
            Cell::I(x) => Value::I(x),
            Cell::F(x) => Value::F(x),
            Cell::V(s) => self.vecs[s as usize],
            Cell::Undef => unreachable!("undefined registers trap on read"),
        }
    }
}

struct Interp<'m, S: EventSink> {
    m: &'m Module,
    mem: Memory,
    sink: &'m mut S,
    steps: u64,
    limits: Limits,
}

impl<'m, S: EventSink> Interp<'m, S> {
    fn step(&mut self, class: OpClass, lanes: u8) -> Result<(), Trap> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(Trap::StepLimit);
        }
        self.sink.op(class, lanes);
        Ok(())
    }

    #[inline]
    fn get(&self, fr: &Frame, op: &Operand) -> Result<Cell, Trap> {
        match op {
            Operand::Value(v) => match fr.regs[v.idx()] {
                Cell::Undef => Err(Trap::UndefRead),
                c => Ok(c),
            },
            Operand::ImmI(v, s) => Ok(Cell::I(s.sext(*v))),
            Operand::ImmF(v) => Ok(Cell::F(*v)),
            Operand::Global(g) => Ok(Cell::I(self.mem.global_addr(g.idx()) as i64)),
        }
    }

    /// Run `fid` in activation `fr`, whose parameter registers the caller
    /// has filled.
    fn call(&mut self, fid: FuncId, mut fr: Frame, depth: u32) -> Result<Option<Value>, Trap> {
        if depth > self.limits.max_depth {
            return Err(Trap::CallDepth);
        }
        let f = &self.m.funcs[fid.idx()];
        if f.blocks.is_empty() {
            return Err(Trap::UnresolvedCall);
        }
        self.sink.enter_function(fid);
        let saved_sp = self.mem.sp;
        let mut block = f.entry();
        let mut prev = f.entry();
        // φ results are staged so every φ of a block reads the values live
        // at the end of `prev`; staged vectors are copied out of their slots.
        let mut phi_buf: Vec<(u32, Cell)> = Vec::new();
        let mut phi_vecs: Vec<Value> = Vec::new();

        'outer: loop {
            let blk = &f.blocks[block.idx()];
            // Resolve φs atomically against the predecessor `prev`.
            let nphi = blk.insts.iter().take_while(|i| i.is_phi()).count();
            for inst in &blk.insts[..nphi] {
                if let Inst::Phi { dst, incoming } = inst {
                    let (_, op) = incoming
                        .iter()
                        .find(|(p, _)| *p == prev)
                        .ok_or(Trap::UndefRead)?;
                    let mut c = self.get(&fr, op)?;
                    if let Cell::V(s) = c {
                        phi_vecs.push(fr.vecs[s as usize]);
                        c = Cell::V(phi_vecs.len() as u32 - 1);
                    }
                    phi_buf.push((dst.0, c));
                    self.step(OpClass::Phi, 1)?;
                }
            }
            for (d, c) in phi_buf.drain(..) {
                match c {
                    Cell::V(k) => fr.put(d as usize, phi_vecs[k as usize]),
                    c => fr.regs[d as usize] = c,
                }
            }
            phi_vecs.clear();

            for (ii, inst) in blk.insts.iter().enumerate().skip(nphi) {
                match inst {
                    Inst::Phi { .. } => unreachable!(),
                    Inst::Bin { dst, op, lhs, rhs } => {
                        let ty = f.ty(*dst);
                        let a = self.get(&fr, lhs)?;
                        let b = self.get(&fr, rhs)?;
                        let class = bin_class(*op, ty.lanes);
                        if ty.lanes == 1 {
                            let r = if op.is_float() || ty.scalar == ScalarTy::F64 {
                                Cell::F(float_bin(*op, a.as_f(), b.as_f()))
                            } else {
                                Cell::I(scalar_bin(*op, ty.scalar, a.as_i(), b.as_i())?)
                            };
                            self.step(class, 1)?;
                            fr.regs[dst.idx()] = r;
                        } else {
                            let r = vector_bin(*op, ty.scalar, &fr.value(a), &fr.value(b))?;
                            self.step(class, ty.lanes)?;
                            fr.put(dst.idx(), r);
                        }
                    }
                    Inst::Cmp { dst, op, lhs, rhs } => {
                        let a = self.get(&fr, lhs)?;
                        let b = self.get(&fr, rhs)?;
                        let r = exec_cmp(*op, a, b);
                        self.step(OpClass::IntAlu, 1)?;
                        fr.regs[dst.idx()] = Cell::I(if r { -1 } else { 0 });
                    }
                    Inst::Cast { dst, kind, src } => {
                        let to = f.ty(*dst);
                        let v = self.get(&fr, src)?;
                        let from = f.operand_ty(src);
                        if let Cell::V(s) = v {
                            let r = cast_vector(*kind, from.scalar, to.scalar, &fr.vecs[s as usize]);
                            self.step(OpClass::Cast, to.lanes)?;
                            fr.put(dst.idx(), r);
                        } else {
                            let r = cast_scalar(*kind, from.scalar, to.scalar, v);
                            self.step(OpClass::Cast, to.lanes)?;
                            fr.regs[dst.idx()] = r;
                        }
                    }
                    Inst::Alloca { dst, bytes } => {
                        let a = self.mem.alloca(*bytes)?;
                        self.step(OpClass::Alloca, 1)?;
                        fr.regs[dst.idx()] = Cell::I(a as i64);
                    }
                    Inst::Load { dst, addr } => {
                        let ty = f.ty(*dst);
                        let a = self.get(&fr, addr)?.as_i() as u64;
                        if ty.lanes == 1 {
                            let v = self.mem.read(ty.scalar, a)?;
                            self.sink.mem(a, ty.scalar.bytes(), false);
                            self.sink.mem_site(fid, block.0, ii as u32, a, ty.scalar.bytes(), false);
                            self.step(OpClass::Load, 1)?;
                            fr.regs[dst.idx()] = v;
                        } else {
                            let v = self.mem.read_vector(ty.scalar, ty.lanes, a)?;
                            self.sink.mem(a, ty.bytes(), false);
                            self.sink.mem_site(fid, block.0, ii as u32, a, ty.bytes(), false);
                            self.step(OpClass::VecLoad, ty.lanes)?;
                            fr.put(dst.idx(), v);
                        }
                    }
                    Inst::Store { ty, val, addr } => {
                        let v = self.get(&fr, val)?;
                        let a = self.get(&fr, addr)?.as_i() as u64;
                        if ty.lanes == 1 {
                            self.mem.write(ty.scalar, a, v)?;
                            self.sink.mem(a, ty.scalar.bytes(), true);
                            self.sink.mem_site(fid, block.0, ii as u32, a, ty.scalar.bytes(), true);
                            self.step(OpClass::Store, 1)?;
                        } else {
                            self.mem.write_vector(ty.scalar, ty.lanes, a, &fr.value(v))?;
                            self.sink.mem(a, ty.bytes(), true);
                            self.sink.mem_site(fid, block.0, ii as u32, a, ty.bytes(), true);
                            self.step(OpClass::VecStore, ty.lanes)?;
                        }
                    }
                    Inst::Call { dst, callee, args } => {
                        let mut callee_fr = Frame::new(self.m.funcs[callee.idx()].value_ty.len());
                        for (i, a) in args.iter().enumerate() {
                            let c = self.get(&fr, a)?;
                            callee_fr.put(i, fr.value(c));
                        }
                        self.step(OpClass::Call, 1)?;
                        let r = self.call(*callee, callee_fr, depth + 1)?;
                        if let Some(d) = dst {
                            fr.put(d.idx(), r.ok_or(Trap::UndefRead)?);
                        }
                    }
                    Inst::Select { dst, cond, t, f: fv } => {
                        let c = self.get(&fr, cond)?.as_i();
                        let r = if c != 0 { self.get(&fr, t)? } else { self.get(&fr, fv)? };
                        self.step(OpClass::Select, 1)?;
                        fr.set(dst.idx(), r);
                    }
                    Inst::Splat { dst, src } => {
                        let ty = f.ty(*dst);
                        let r = match self.get(&fr, src)? {
                            Cell::I(x) => Value::IV([x; MAX_LANES as usize], ty.lanes),
                            Cell::F(x) => Value::FV([x; MAX_LANES as usize], ty.lanes),
                            other => fr.value(other),
                        };
                        self.step(OpClass::Splat, ty.lanes)?;
                        fr.put(dst.idx(), r);
                    }
                    Inst::ExtractLane { dst, src, lane } => {
                        let r = match self.get(&fr, src)? {
                            Cell::V(s) => match &fr.vecs[s as usize] {
                                Value::IV(xs, n) if *lane < *n => Cell::I(xs[*lane as usize]),
                                Value::FV(xs, n) if *lane < *n => Cell::F(xs[*lane as usize]),
                                _ => return Err(Trap::UndefRead),
                            },
                            _ => return Err(Trap::UndefRead),
                        };
                        self.step(OpClass::IntAlu, 1)?;
                        fr.regs[dst.idx()] = r;
                    }
                    Inst::Reduce { dst, op, src } => {
                        let ty = f.ty(*dst);
                        let r = match self.get(&fr, src)? {
                            Cell::V(s) => exec_reduce(*op, ty.scalar, &fr.vecs[s as usize])?,
                            _ => return Err(Trap::UndefRead),
                        };
                        self.step(OpClass::Reduce, 1)?;
                        fr.regs[dst.idx()] = r;
                    }
                }
            }

            match &blk.term {
                Term::Br(b) => {
                    self.step(OpClass::Br, 1)?;
                    prev = block;
                    block = *b;
                }
                Term::CondBr { cond, t, f: fb } => {
                    let c = self.get(&fr, cond)?.as_i() != 0;
                    let site = (fid.0 << 16) | block.0;
                    self.sink.branch(site, c);
                    self.step(OpClass::CondBr, 1)?;
                    prev = block;
                    block = if c { *t } else { *fb };
                }
                Term::Ret(op) => {
                    self.step(OpClass::Ret, 1)?;
                    let r = match op {
                        Some(o) => Some(fr.value(self.get(&fr, o)?)),
                        None => None,
                    };
                    self.mem.sp = saved_sp;
                    self.sink.exit_function();
                    break 'outer Ok(r);
                }
                Term::Unreachable => break 'outer Err(Trap::Unreachable),
            }
        }
    }
}

fn bin_class(op: BinOp, lanes: u8) -> OpClass {
    use BinOp::*;
    if lanes > 1 {
        match op {
            Mul => OpClass::VecIntMul,
            FAdd | FSub | FMul | FDiv => OpClass::VecFp,
            _ => OpClass::VecIntAlu,
        }
    } else {
        match op {
            Mul => OpClass::IntMul,
            SDiv | SRem => OpClass::IntDiv,
            FAdd | FSub => OpClass::FpAlu,
            FMul => OpClass::FpMul,
            FDiv => OpClass::FpDiv,
            _ => OpClass::IntAlu,
        }
    }
}

fn scalar_bin(op: BinOp, ty: ScalarTy, a: i64, b: i64) -> Result<i64, Trap> {
    use BinOp::*;
    let bits = ty.bits().min(64);
    let shift_mask = (bits - 1) as i64;
    let r = match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        SDiv => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_div(b)
        }
        SRem => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_rem(b)
        }
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a.wrapping_shl((b & shift_mask) as u32),
        AShr => ty.sext(a).wrapping_shr((b & shift_mask) as u32),
        LShr => ((ty.zext(a) as u64) >> ((b & shift_mask) as u64)) as i64,
        SMin => a.min(b),
        SMax => a.max(b),
        _ => unreachable!("float op on ints"),
    };
    Ok(ty.wrap(r))
}

fn float_bin(op: BinOp, a: f64, b: f64) -> f64 {
    use BinOp::*;
    match op {
        FAdd => a + b,
        FSub => a - b,
        FMul => a * b,
        FDiv => a / b,
        SMin => a.min(b),
        SMax => a.max(b),
        _ => unreachable!("int op on floats"),
    }
}

/// Lane-wise binary op over the first operand's lanes.
fn vector_bin(op: BinOp, s: ScalarTy, a: &Value, b: &Value) -> Result<Value, Trap> {
    match (a, b) {
        (Value::IV(xs, n), Value::IV(ys, _)) => {
            let mut out = [0i64; MAX_LANES as usize];
            for i in 0..(*n as usize) {
                out[i] = scalar_bin(op, s, xs[i], ys[i])?;
            }
            Ok(Value::IV(out, *n))
        }
        (Value::FV(xs, n), Value::FV(ys, _)) => {
            let mut out = [0.0; MAX_LANES as usize];
            for i in 0..(*n as usize) {
                out[i] = float_bin(op, xs[i], ys[i]);
            }
            Ok(Value::FV(out, *n))
        }
        _ => Err(Trap::UndefRead),
    }
}

fn exec_cmp(op: CmpOp, a: Cell, b: Cell) -> bool {
    use CmpOp::*;
    match (a, b) {
        (Cell::F(x), Cell::F(y)) => match op {
            Eq => x == y,
            Ne => x != y,
            Slt => x < y,
            Sle => x <= y,
            Sgt => x > y,
            Sge => x >= y,
        },
        _ => {
            let (x, y) = (a.as_i(), b.as_i());
            match op {
                Eq => x == y,
                Ne => x != y,
                Slt => x < y,
                Sle => x <= y,
                Sgt => x > y,
                Sge => x >= y,
            }
        }
    }
}

fn cast_scalar(kind: CastKind, from: ScalarTy, to: ScalarTy, v: Cell) -> Cell {
    match kind {
        // Registers hold canonical sign-extended values, so SExt to a wider
        // type is the identity on the representation.
        CastKind::SExt => Cell::I(v.as_i()),
        CastKind::ZExt => Cell::I(from.zext(v.as_i())),
        CastKind::Trunc => Cell::I(to.wrap(v.as_i())),
        CastKind::SiToFp => Cell::F(v.as_i() as f64),
        CastKind::FpToSi => {
            let x = v.as_f();
            let clamped = if x.is_nan() { 0 } else { x as i64 };
            Cell::I(to.wrap(clamped))
        }
    }
}

/// Vector casts apply element-wise.
fn cast_vector(kind: CastKind, from: ScalarTy, to: ScalarTy, v: &Value) -> Value {
    match v {
        Value::IV(xs, n) => {
            let mut out_i = [0i64; MAX_LANES as usize];
            let mut out_f = [0.0f64; MAX_LANES as usize];
            let is_f = to == ScalarTy::F64;
            for i in 0..(*n as usize) {
                match cast_scalar(kind, from, to, Cell::I(xs[i])) {
                    Cell::I(r) => out_i[i] = r,
                    Cell::F(r) => out_f[i] = r,
                    _ => unreachable!(),
                }
            }
            if is_f {
                Value::FV(out_f, *n)
            } else {
                Value::IV(out_i, *n)
            }
        }
        Value::FV(xs, n) => {
            let mut out_i = [0i64; MAX_LANES as usize];
            for i in 0..(*n as usize) {
                if let Cell::I(r) = cast_scalar(kind, from, to, Cell::F(xs[i])) {
                    out_i[i] = r;
                }
            }
            Value::IV(out_i, *n)
        }
        _ => unreachable!("lane slots hold vectors"),
    }
}

fn exec_reduce(op: BinOp, s: ScalarTy, v: &Value) -> Result<Cell, Trap> {
    match v {
        Value::IV(xs, n) => {
            let mut acc = xs[0];
            for &x in xs.iter().take(*n as usize).skip(1) {
                acc = scalar_bin(op, s, acc, x)?;
            }
            Ok(Cell::I(acc))
        }
        Value::FV(xs, n) => {
            let mut acc = xs[0];
            for &x in xs.iter().take(*n as usize).skip(1) {
                acc = float_bin(op, acc, x);
            }
            Ok(Cell::F(acc))
        }
        _ => Err(Trap::UndefRead),
    }
}

/// Execute `entry(args…)` in module `m`, streaming events into `sink`.
pub fn run<S: EventSink>(
    m: &Module,
    entry: FuncId,
    args: &[Value],
    sink: &mut S,
    limits: Limits,
) -> Result<ExecOutput, Trap> {
    let mem = Memory::new(m, limits.stack_bytes);
    let mut interp = Interp { m, mem, sink, steps: 0, limits };
    let mut fr = Frame::new(m.funcs[entry.idx()].value_ty.len());
    for (i, a) in args.iter().enumerate() {
        fr.put(i, *a);
    }
    let ret = interp.call(entry, fr, 0)?;
    let digest = interp.mem.digest(m);
    Ok(ExecOutput { ret, steps: interp.steps, mem_digest: digest })
}

/// Convenience: run with a counting sink and default limits.
pub fn run_counting(
    m: &Module,
    entry: FuncId,
    args: &[Value],
) -> Result<(ExecOutput, CountingSink), Trap> {
    let mut sink = CountingSink::new();
    let out = run(m, entry, args, &mut sink, Limits::default())?;
    Ok((out, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{counted_loop_mem, counted_loop_ssa, FunctionBuilder};
    use crate::module::Module;
    use crate::types::{I16, I64};

    fn run1(m: &Module, args: &[Value]) -> (ExecOutput, CountingSink) {
        run_counting(m, FuncId(0), args).expect("execution trapped")
    }

    #[test]
    fn register_cell_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<Cell>() <= 16, "{} bytes", std::mem::size_of::<Cell>());
    }

    #[test]
    fn arithmetic() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64, I64], Some(I64));
        let s = b.bin(BinOp::Add, I64, b.param(0), b.param(1));
        let d = b.bin(BinOp::Mul, I64, s, Operand::imm64(3));
        b.ret(Some(d));
        m.add_func(b.finish());
        let (out, sink) = run1(&m, &[Value::I(2), Value::I(5)]);
        assert_eq!(out.ret, Some(Value::I(21)));
        assert_eq!(sink.count(OpClass::IntAlu), 1);
        assert_eq!(sink.count(OpClass::IntMul), 1);
    }

    #[test]
    fn narrow_width_wrapping() {
        // i16 add wraps at 16 bits.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I16], Some(I16));
        let s = b.bin(BinOp::Add, I16, b.param(0), Operand::ImmI(1, ScalarTy::I16));
        b.ret(Some(s));
        m.add_func(b.finish());
        let (out, _) = run1(&m, &[Value::I(32767)]);
        assert_eq!(out.ret, Some(Value::I(-32768)));
    }

    #[test]
    fn ssa_loop_sum() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("sum", vec![I64], Some(I64));
        let n = b.param(0);
        let pre = b.current();
        let merged = counted_loop_ssa(&mut b, n, |b, iv, c| {
            let acc = b.phi(I64, vec![(pre, Operand::imm64(0))]);
            let nx = b.bin(BinOp::Add, I64, acc, iv);
            c.feed(acc, nx);
        });
        b.ret(Some(merged[0]));
        m.add_func(b.finish());
        let (out, _) = run1(&m, &[Value::I(10)]);
        assert_eq!(out.ret, Some(Value::I(45)));
        // zero trip count takes the guard path
        let (out0, _) = run1(&m, &[Value::I(0)]);
        assert_eq!(out0.ret, Some(Value::I(0)));
    }

    #[test]
    fn mem_loop_and_globals() {
        // Sum a global i32 array of length n via an O0-style loop.
        let mut m = Module::new("m");
        let g = m.add_global("a", GlobalInit::I32s(vec![3, 1, 4, 1, 5]), false);
        let mut b = FunctionBuilder::new("sum", vec![I64], Some(I64));
        let n = b.param(0);
        let acc_slot = b.alloca(8);
        b.store(I64, Operand::imm64(0), acc_slot);
        counted_loop_mem(&mut b, n, |b, iv| {
            let addr = b.gep(Operand::Global(g), iv, 4);
            let x = b.load(crate::types::I32, addr);
            let x64 = b.cast(CastKind::SExt, I64, x);
            let acc = b.load(I64, acc_slot);
            let nx = b.bin(BinOp::Add, I64, acc, x64);
            b.store(I64, nx, acc_slot);
        });
        let r = b.load(I64, acc_slot);
        b.ret(Some(r));
        m.add_func(b.finish());
        crate::verify::assert_valid(&m);
        let (out, sink) = run1(&m, &[Value::I(5)]);
        assert_eq!(out.ret, Some(Value::I(14)));
        assert!(sink.count(OpClass::Load) > 10); // acc + array + iv loads
    }

    #[test]
    fn call_and_mutable_global_digest() {
        let mut m = Module::new("m");
        let g = m.add_global("out", GlobalInit::Zero(8), true);
        // callee: store its arg to @out and return arg*2
        let mut cb = FunctionBuilder::new("callee", vec![I64], Some(I64));
        cb.store(I64, cb.param(0), Operand::Global(g));
        let r = cb.bin(BinOp::Mul, I64, cb.param(0), Operand::imm64(2));
        cb.ret(Some(r));
        let callee = m.add_func(cb.finish());
        let mut b = FunctionBuilder::new("main", vec![I64], Some(I64));
        let v = b.call(callee, Some(I64), vec![b.param(0)]).unwrap();
        b.ret(Some(v));
        m.add_func(b.finish());
        let main = m.func_by_name("main").unwrap();

        let (o1, s1) = run_counting(&m, main, &[Value::I(7)]).unwrap();
        assert_eq!(o1.ret, Some(Value::I(14)));
        assert_eq!(s1.count(OpClass::Call), 1);
        let (o2, _) = run_counting(&m, main, &[Value::I(8)]).unwrap();
        assert_ne!(o1.mem_digest, o2.mem_digest, "digest must observe global writes");
    }

    #[test]
    fn vector_ops() {
        use crate::types::Ty;
        let v4 = Ty::vector(ScalarTy::I32, 4);
        let mut m = Module::new("m");
        let g = m.add_global("a", GlobalInit::I32s(vec![1, 2, 3, 4]), false);
        let h = m.add_global("b", GlobalInit::I32s(vec![10, 20, 30, 40]), false);
        let mut b = FunctionBuilder::new("dot", vec![], Some(crate::types::I32));
        let x = b.load(v4, Operand::Global(g));
        let y = b.load(v4, Operand::Global(h));
        let p = b.bin(BinOp::Mul, v4, x, y);
        let doubled = b.bin(BinOp::Add, v4, p, p); // 2*products
        let r = b.reduce(BinOp::Add, ScalarTy::I32, doubled);
        b.ret(Some(r));
        m.add_func(b.finish());
        let (out, sink) = run_counting(&m, FuncId(0), &[]).unwrap();
        // dot = 1*10+2*20+3*30+4*40 = 300, doubled = 600
        assert_eq!(out.ret, Some(Value::I(600)));
        assert_eq!(sink.count(OpClass::VecLoad), 2);
        assert_eq!(sink.count(OpClass::VecIntMul), 1);
        assert_eq!(sink.count(OpClass::Reduce), 1);
    }

    #[test]
    fn traps() {
        // div by zero
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let d = b.bin(BinOp::SDiv, I64, Operand::imm64(1), b.param(0));
        b.ret(Some(d));
        m.add_func(b.finish());
        let r = run_counting(&m, FuncId(0), &[Value::I(0)]);
        assert_eq!(r.unwrap_err(), Trap::DivByZero);

        // out of bounds
        let mut m2 = Module::new("m");
        let mut b2 = FunctionBuilder::new("f", vec![], Some(I64));
        let v = b2.load(I64, Operand::imm64(0));
        b2.ret(Some(v));
        m2.add_func(b2.finish());
        assert!(matches!(run_counting(&m2, FuncId(0), &[]), Err(Trap::OutOfBounds(_))));

        // infinite loop hits the step limit
        let mut m3 = Module::new("m");
        let mut b3 = FunctionBuilder::new("f", vec![], Some(I64));
        let l = b3.block();
        b3.br(l);
        b3.switch_to(l);
        b3.br(l);
        m3.add_func(b3.finish());
        let mut sink = CountingSink::new();
        let r = run(
            &m3,
            FuncId(0),
            &[],
            &mut sink,
            Limits { max_steps: 1000, ..Limits::default() },
        );
        assert_eq!(r.unwrap_err(), Trap::StepLimit);
    }

    #[test]
    fn shifts_and_logic() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![I64], Some(I64));
        let a = b.bin(BinOp::Shl, I64, b.param(0), Operand::imm64(3));
        let c = b.bin(BinOp::AShr, I64, a, Operand::imm64(1));
        let d = b.bin(BinOp::Xor, I64, c, Operand::imm64(0xff));
        b.ret(Some(d));
        m.add_func(b.finish());
        let (out, _) = run1(&m, &[Value::I(5)]);
        assert_eq!(out.ret, Some(Value::I((5i64 << 3 >> 1) ^ 0xff)));
    }

    #[test]
    fn float_ops() {
        use crate::types::F64;
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![F64, F64], Some(F64));
        let s = b.bin(BinOp::FMul, F64, b.param(0), b.param(1));
        let d = b.bin(BinOp::FAdd, F64, s, Operand::ImmF(0.5));
        b.ret(Some(d));
        m.add_func(b.finish());
        let (out, sink) = run1(&m, &[Value::F(2.0), Value::F(3.0)]);
        assert_eq!(out.ret, Some(Value::F(6.5)));
        assert_eq!(sink.count(OpClass::FpMul), 1);
        assert_eq!(sink.count(OpClass::FpAlu), 1);
    }
}
