//! Reference interpreter.
//!
//! Executes a [`Module`] and streams *dynamic events* (per-op-class counts,
//! memory accesses, branch outcomes) into an [`EventSink`]. The performance
//! simulator (`citroen-sim`) implements the sink with a cache model and branch
//! predictor to turn a trace into estimated seconds; differential testing
//! compares the returned value and memory digest between the unoptimised and
//! optimised module.
//!
//! [`run`] first lowers the module into a flat program of typed ops: every
//! operand becomes a register index (immediates and global addresses sit in
//! a per-function constant pool appended to the register file), each op's
//! value type and [`OpClass`] are decided once, and every CFG edge carries
//! its list of φ copies. The loop then only dispatches ops. `run` is
//! generic over the sink, so it is monomorphised in the sink's crate; every
//! non-generic helper the loop calls is `#[inline]` so that it can be
//! inlined there too.

use std::collections::HashMap;

use crate::inst::{BinOp, BlockId, CastKind, CmpOp, FuncId, Inst, Operand, Term, ValueId};
use crate::module::{Function, GlobalInit, Module};
use crate::print::Fnv64;
use crate::types::{ScalarTy, Ty, I64, MAX_LANES};

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

    /// Bounds check `bytes` bytes at `addr`; an access whose end does not
    /// fit in 64 bits is out of bounds, not wrapped.
    #[inline]
    fn check(&self, addr: u64, bytes: u32) -> Result<usize, Trap> {
        match addr.checked_add(bytes as u64) {
            Some(end) if addr >= GLOBAL_BASE && end <= self.limit => Ok(addr as usize),
            _ => Err(Trap::OutOfBounds(addr)),
        }
    }

    /// Read a scalar of type `ty` at `addr` (canonical sign-extended form for ints).
    #[inline]
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
    #[inline]
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
    #[inline]
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
    #[inline]
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

    #[inline]
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
#[inline]
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
    #[inline]
    fn as_i(self) -> i64 {
        match self {
            Cell::I(v) => v,
            other => panic!("expected int scalar, got {other:?}"),
        }
    }

    #[inline]
    fn as_f(self) -> f64 {
        match self {
            Cell::F(v) => v,
            other => panic!("expected float scalar, got {other:?}"),
        }
    }

    /// The scalar's bit pattern as stored to memory.
    #[inline]
    fn bits(self) -> i64 {
        match self {
            Cell::I(x) => x,
            Cell::F(x) => x.to_bits() as i64,
            _ => panic!("vector value in scalar store"),
        }
    }
}

/// The registers of one activation: the [`FuncCode::template`] registers of
/// its function, plus a lane array holding its vector values. Only values
/// that receive a vector (vector-typed values, in valid IR) get a lane
/// slot; a value keeps its slot for the life of the frame.
#[derive(Default)]
struct Frame {
    regs: Vec<Cell>,
    vecs: Vec<Value>,
}

impl Frame {
    /// Start an activation of `code`: every value undefined, the constant
    /// pool loaded.
    #[inline]
    fn reset(&mut self, code: &FuncCode) {
        self.regs.clear();
        self.regs.extend_from_slice(&code.template);
        self.vecs.clear();
    }

    /// Write a value to register `d`.
    #[inline]
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
    #[inline]
    fn set(&mut self, d: usize, c: Cell) {
        match c {
            Cell::V(s) => self.put(d, self.vecs[s as usize]),
            c => self.regs[d] = c,
        }
    }

    /// The value a defined register holds.
    #[inline]
    fn value(&self, c: Cell) -> Value {
        match c {
            Cell::I(x) => Value::I(x),
            Cell::F(x) => Value::F(x),
            Cell::V(s) => self.vecs[s as usize],
            Cell::Undef => unreachable!("undefined registers trap on read"),
        }
    }

    /// Read register `r`; an undefined register traps.
    #[inline]
    fn get(&self, r: Reg) -> Result<Cell, Trap> {
        match self.regs[r as usize] {
            Cell::Undef => Err(Trap::UndefRead),
            c => Ok(c),
        }
    }

    /// Read integer register `r`.
    #[inline]
    fn get_i(&self, r: Reg) -> Result<i64, Trap> {
        Ok(self.get(r)?.as_i())
    }
}

/// Index of a register in a [`Frame`]: a value of the function, or a slot of
/// its constant pool.
type Reg = u32;

/// Register index that no frame has: an operand naming a value the
/// function does not define lowers to it, so only executing that operand
/// panics (on the out-of-range index), not lowering it.
const NO_REG: Reg = Reg::MAX;

/// One lowered instruction or terminator. Operands are register indices
/// (immediates and global addresses live in the constant pool), and the
/// value type and op class of each instruction are decided once, at
/// lowering. Memory ops keep their original `(block, instruction index)`
/// site, counting φs, for [`EventSink::mem_site`].
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `add i64`, the most frequent dynamic op.
    AddI64 { dst: Reg, a: Reg, b: Reg },
    /// Any other integer scalar binary op.
    BinI { op: BinOp, ty: ScalarTy, class: OpClass, dst: Reg, a: Reg, b: Reg },
    /// Float scalar binary op.
    BinF { op: BinOp, class: OpClass, dst: Reg, a: Reg, b: Reg },
    /// Lane-wise vector binary op.
    BinV { op: BinOp, s: ScalarTy, lanes: u8, class: OpClass, dst: Reg, a: Reg, b: Reg },
    /// Comparison (integer or float, by operand).
    Cmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// Scalar sign extension: the identity on the canonical register form.
    SExt { dst: Reg, src: Reg },
    /// Any other conversion, scalar or lane-wise.
    Cast { kind: CastKind, from: ScalarTy, to: ScalarTy, lanes: u8, dst: Reg, src: Reg },
    /// Stack allocation.
    Alloca { bytes: u32, dst: Reg },
    /// Scalar load.
    Load { ty: ScalarTy, dst: Reg, addr: Reg, block: u32, inst: u32 },
    /// Vector load.
    LoadV { s: ScalarTy, lanes: u8, dst: Reg, addr: Reg, block: u32, inst: u32 },
    /// Scalar store.
    Store { ty: ScalarTy, val: Reg, addr: Reg, block: u32, inst: u32 },
    /// Vector store.
    StoreV { s: ScalarTy, lanes: u8, val: Reg, addr: Reg, block: u32, inst: u32 },
    /// Call; the argument registers are `FuncCode::args[args..args + nargs]`
    /// and `dst` is [`NO_REG`] for a call whose result is unused.
    Call { callee: u32, dst: Reg, args: u32, nargs: u32 },
    /// Select.
    Select { dst: Reg, cond: Reg, t: Reg, f: Reg },
    /// Scalar broadcast.
    Splat { lanes: u8, dst: Reg, src: Reg },
    /// Lane extraction.
    ExtractLane { lane: u8, dst: Reg, src: Reg },
    /// Horizontal reduction.
    Reduce { op: BinOp, s: ScalarTy, dst: Reg, src: Reg },
    /// A φ after a non-φ instruction (rejected by the verifier).
    MisplacedPhi,
    /// Unconditional branch along edge `edge` of [`FuncCode::edges`].
    Br { edge: u32 },
    /// Conditional branch; `site` is the branch predictor's static site.
    CondBr { cond: Reg, t: u32, f: u32, site: u32 },
    /// Return; `val` is [`NO_REG`] for `ret void`.
    Ret { val: Reg },
    /// `unreachable`.
    Unreachable,
}

/// A CFG edge: where control lands and the φ copies it performs.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// First op of the target block.
    pc: u32,
    /// The target's φs, in order, as `FuncCode::copies[copies.0..copies.1]`.
    copies: (u32, u32),
}

/// One function lowered for execution.
struct FuncCode {
    /// The ops of every block in block order, each block ending in its
    /// terminator. Empty for a declaration.
    ops: Vec<Op>,
    /// Register-file template: `Undef` for each value, then one register
    /// that stays undefined (the source of a φ copy along an edge the φ has
    /// no incoming value for), then the constant pool.
    template: Vec<Cell>,
    /// Number of values; registers `0..values` are the function's values.
    values: usize,
    /// CFG edges; edge 0 enters the entry block from itself, which is how φs
    /// of the entry block resolve on the first visit.
    edges: Vec<Edge>,
    /// `(dst, src)` φ copies of all edges.
    copies: Vec<(Reg, Reg)>,
    /// Argument registers of all calls.
    args: Vec<Reg>,
}

/// Lowers one function into a [`FuncCode`].
struct Lowering<'a> {
    f: &'a Function,
    global_addr: &'a [u64],
    code: FuncCode,
    consts: HashMap<(bool, u64), Reg>,
    block_pc: Vec<u32>,
}

impl Lowering<'_> {
    /// The register holding operand `o`; immediates and global addresses
    /// get a constant-pool slot.
    fn reg(&mut self, o: &Operand) -> Reg {
        let c = match o {
            Operand::Value(v) if v.idx() < self.code.values => return v.0,
            Operand::Value(_) => return NO_REG,
            Operand::ImmI(v, s) => Cell::I(s.sext(*v)),
            Operand::ImmF(x) => Cell::F(*x),
            Operand::Global(g) => match self.global_addr.get(g.idx()) {
                Some(&a) => Cell::I(a as i64),
                None => return NO_REG,
            },
        };
        let key = match c {
            Cell::F(x) => (true, x.to_bits()),
            c => (false, c.as_i() as u64),
        };
        let template = &mut self.code.template;
        *self.consts.entry(key).or_insert_with(|| {
            template.push(c);
            template.len() as Reg - 1
        })
    }

    fn dst(&self, v: ValueId) -> Reg {
        if v.idx() < self.code.values {
            v.0
        } else {
            NO_REG
        }
    }

    /// The type of `v`; `I64` for a value the function lacks, whose op
    /// panics when executed.
    fn ty(&self, v: ValueId) -> Ty {
        self.f.value_ty.get(v.idx()).copied().unwrap_or(I64)
    }

    /// The edge from block `from` to block `to`, with its φ copies.
    fn edge(&mut self, from: BlockId, to: BlockId) -> u32 {
        let undef = self.code.values as Reg;
        let start = self.code.copies.len();
        // A branch to a block the function lacks lands past its ops, so only
        // taking it panics.
        let mut pc = u32::MAX;
        if let Some(blk) = self.f.blocks.get(to.idx()) {
            pc = self.block_pc[to.idx()];
            for inst in blk.insts.iter().take_while(|i| i.is_phi()) {
                let Inst::Phi { dst, incoming } = inst else { unreachable!() };
                let src = match incoming.iter().find(|(p, _)| *p == from) {
                    Some((_, o)) => self.reg(o),
                    None => undef,
                };
                self.code.copies.push((self.dst(*dst), src));
            }
        }
        let copies = (start as u32, self.code.copies.len() as u32);
        self.code.edges.push(Edge { pc, copies });
        self.code.edges.len() as u32 - 1
    }

    fn inst(&mut self, block: u32, ii: u32, inst: &Inst) -> Op {
        match inst {
            Inst::Phi { .. } => Op::MisplacedPhi,
            Inst::Bin { dst, op, lhs, rhs } => {
                let ty = self.ty(*dst);
                let (a, b, dst) = (self.reg(lhs), self.reg(rhs), self.dst(*dst));
                let class = bin_class(*op, ty.lanes);
                if ty.lanes > 1 {
                    Op::BinV { op: *op, s: ty.scalar, lanes: ty.lanes, class, dst, a, b }
                } else if op.is_float() || ty.scalar == ScalarTy::F64 {
                    Op::BinF { op: *op, class, dst, a, b }
                } else if *op == BinOp::Add && ty.scalar == ScalarTy::I64 {
                    Op::AddI64 { dst, a, b }
                } else {
                    Op::BinI { op: *op, ty: ty.scalar, class, dst, a, b }
                }
            }
            Inst::Cmp { dst, op, lhs, rhs } => {
                Op::Cmp { op: *op, a: self.reg(lhs), b: self.reg(rhs), dst: self.dst(*dst) }
            }
            Inst::Cast { dst, kind, src } => {
                let from = match src {
                    Operand::Value(v) => self.ty(*v),
                    o => self.f.operand_ty(o),
                };
                let to = self.ty(*dst);
                let (src, dst) = (self.reg(src), self.dst(*dst));
                if *kind == CastKind::SExt && from.lanes == 1 && to.lanes == 1 {
                    Op::SExt { dst, src }
                } else {
                    let (kind, lanes) = (*kind, to.lanes);
                    Op::Cast { kind, from: from.scalar, to: to.scalar, lanes, dst, src }
                }
            }
            Inst::Alloca { dst, bytes } => Op::Alloca { bytes: *bytes, dst: self.dst(*dst) },
            Inst::Load { dst, addr } => {
                let ty = self.ty(*dst);
                let (addr, dst) = (self.reg(addr), self.dst(*dst));
                if ty.lanes == 1 {
                    Op::Load { ty: ty.scalar, dst, addr, block, inst: ii }
                } else {
                    Op::LoadV { s: ty.scalar, lanes: ty.lanes, dst, addr, block, inst: ii }
                }
            }
            Inst::Store { ty, val, addr } => {
                let (val, addr) = (self.reg(val), self.reg(addr));
                if ty.lanes == 1 {
                    Op::Store { ty: ty.scalar, val, addr, block, inst: ii }
                } else {
                    Op::StoreV { s: ty.scalar, lanes: ty.lanes, val, addr, block, inst: ii }
                }
            }
            Inst::Call { dst, callee, args } => {
                let start = self.code.args.len() as u32;
                for a in args {
                    let r = self.reg(a);
                    self.code.args.push(r);
                }
                let dst = dst.map_or(NO_REG, |d| self.dst(d));
                Op::Call { callee: callee.0, dst, args: start, nargs: args.len() as u32 }
            }
            Inst::Select { dst, cond, t, f } => Op::Select {
                cond: self.reg(cond),
                t: self.reg(t),
                f: self.reg(f),
                dst: self.dst(*dst),
            },
            Inst::Splat { dst, src } => {
                Op::Splat { lanes: self.ty(*dst).lanes, src: self.reg(src), dst: self.dst(*dst) }
            }
            Inst::ExtractLane { dst, src, lane } => {
                Op::ExtractLane { lane: *lane, src: self.reg(src), dst: self.dst(*dst) }
            }
            Inst::Reduce { dst, op, src } => {
                let s = self.ty(*dst).scalar;
                Op::Reduce { op: *op, s, src: self.reg(src), dst: self.dst(*dst) }
            }
        }
    }

    fn term(&mut self, fid: FuncId, b: BlockId, t: &Term) -> Op {
        match t {
            Term::Br(to) => Op::Br { edge: self.edge(b, *to) },
            Term::CondBr { cond, t, f } => Op::CondBr {
                cond: self.reg(cond),
                t: self.edge(b, *t),
                f: self.edge(b, *f),
                site: (fid.0 << 16) | b.0,
            },
            Term::Ret(val) => Op::Ret { val: val.as_ref().map_or(NO_REG, |o| self.reg(o)) },
            Term::Unreachable => Op::Unreachable,
        }
    }
}

impl FuncCode {
    /// Lower function `fid` of a module whose globals sit at `global_addr`.
    fn lower(fid: FuncId, f: &Function, global_addr: &[u64]) -> FuncCode {
        let values = f.value_ty.len();
        let mut block_pc = Vec::with_capacity(f.blocks.len());
        let mut pc = 0;
        for blk in &f.blocks {
            block_pc.push(pc);
            pc += (blk.insts.len() - blk.num_phis() + 1) as u32;
        }
        let code = FuncCode {
            ops: Vec::with_capacity(pc as usize),
            template: vec![Cell::Undef; values + 1],
            values,
            edges: Vec::new(),
            copies: Vec::new(),
            args: Vec::new(),
        };
        let mut l = Lowering { f, global_addr, code, consts: HashMap::new(), block_pc };
        if f.blocks.is_empty() {
            return l.code;
        }
        let entry = f.entry();
        l.edge(entry, entry);
        for (b, blk) in f.iter_blocks() {
            let nphi = blk.num_phis();
            for (ii, inst) in blk.insts.iter().enumerate().skip(nphi) {
                let op = l.inst(b.0, ii as u32, inst);
                l.code.ops.push(op);
            }
            let op = l.term(fid, b, &blk.term);
            l.code.ops.push(op);
        }
        l.code
    }
}

struct Interp<'a, S: EventSink> {
    prog: &'a [FuncCode],
    mem: Memory,
    sink: &'a mut S,
    steps: u64,
    limits: Limits,
    /// Frames of returned activations, reused by later calls.
    pool: Vec<Frame>,
    /// Staged φ results of the edge being taken, and the vectors they copy.
    phi_buf: Vec<(Reg, Cell)>,
    phi_vecs: Vec<Value>,
}

impl<'a, S: EventSink> Interp<'a, S> {
    #[inline]
    fn step(&mut self, class: OpClass, lanes: u8) -> Result<(), Trap> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(Trap::StepLimit);
        }
        self.sink.op(class, lanes);
        Ok(())
    }

    /// Take edge `e` of `f`: resolve the target's φs in order, each counting
    /// one `Phi` step, and return the target's first op. Results are staged
    /// so that every φ reads the values live at the end of the predecessor;
    /// staged vectors are copied out of their slots.
    #[inline]
    fn take_edge(&mut self, f: &FuncCode, fr: &mut Frame, e: u32) -> Result<usize, Trap> {
        let edge = f.edges[e as usize];
        for &(dst, src) in &f.copies[edge.copies.0 as usize..edge.copies.1 as usize] {
            let mut c = fr.get(src)?;
            if let Cell::V(s) = c {
                self.phi_vecs.push(fr.vecs[s as usize]);
                c = Cell::V(self.phi_vecs.len() as u32 - 1);
            }
            self.phi_buf.push((dst, c));
            self.step(OpClass::Phi, 1)?;
        }
        for (d, c) in self.phi_buf.drain(..) {
            match c {
                Cell::V(k) => fr.put(d as usize, self.phi_vecs[k as usize]),
                c => fr.regs[d as usize] = c,
            }
        }
        self.phi_vecs.clear();
        Ok(edge.pc as usize)
    }

    /// Run `fid` in activation `fr`, whose parameter registers the caller
    /// has filled.
    fn call(&mut self, fid: u32, fr: &mut Frame, depth: u32) -> Result<Option<Value>, Trap> {
        if depth > self.limits.max_depth {
            return Err(Trap::CallDepth);
        }
        let prog = self.prog;
        let f = &prog[fid as usize];
        if f.ops.is_empty() {
            return Err(Trap::UnresolvedCall);
        }
        self.sink.enter_function(FuncId(fid));
        let saved_sp = self.mem.sp;
        let ops = &f.ops[..];
        let mut pc = self.take_edge(f, fr, 0)?;
        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::AddI64 { dst, a, b } => {
                    let r = fr.get_i(a)?.wrapping_add(fr.get_i(b)?);
                    self.step(OpClass::IntAlu, 1)?;
                    fr.regs[dst as usize] = Cell::I(r);
                }
                Op::BinI { op, ty, class, dst, a, b } => {
                    let (a, b) = (fr.get(a)?, fr.get(b)?);
                    let r = scalar_bin(op, ty, a.as_i(), b.as_i())?;
                    self.step(class, 1)?;
                    fr.regs[dst as usize] = Cell::I(r);
                }
                Op::BinF { op, class, dst, a, b } => {
                    let (a, b) = (fr.get(a)?, fr.get(b)?);
                    let r = float_bin(op, a.as_f(), b.as_f());
                    self.step(class, 1)?;
                    fr.regs[dst as usize] = Cell::F(r);
                }
                Op::BinV { op, s, lanes, class, dst, a, b } => {
                    let (a, b) = (fr.get(a)?, fr.get(b)?);
                    let r = vector_bin(op, s, &fr.value(a), &fr.value(b))?;
                    self.step(class, lanes)?;
                    fr.put(dst as usize, r);
                }
                Op::Cmp { op, dst, a, b } => {
                    let r = exec_cmp(op, fr.get(a)?, fr.get(b)?);
                    self.step(OpClass::IntAlu, 1)?;
                    fr.regs[dst as usize] = Cell::I(if r { -1 } else { 0 });
                }
                Op::SExt { dst, src } => {
                    let v = fr.get_i(src)?;
                    self.step(OpClass::Cast, 1)?;
                    fr.regs[dst as usize] = Cell::I(v);
                }
                Op::Cast { kind, from, to, lanes, dst, src } => {
                    let v = fr.get(src)?;
                    if let Cell::V(s) = v {
                        let r = cast_vector(kind, from, to, &fr.vecs[s as usize]);
                        self.step(OpClass::Cast, lanes)?;
                        fr.put(dst as usize, r);
                    } else {
                        let r = cast_scalar(kind, from, to, v);
                        self.step(OpClass::Cast, lanes)?;
                        fr.regs[dst as usize] = r;
                    }
                }
                Op::Alloca { bytes, dst } => {
                    let a = self.mem.alloca(bytes)?;
                    self.step(OpClass::Alloca, 1)?;
                    fr.regs[dst as usize] = Cell::I(a as i64);
                }
                Op::Load { ty, dst, addr, block, inst } => {
                    let a = fr.get_i(addr)? as u64;
                    let v = self.mem.read(ty, a)?;
                    self.sink.mem(a, ty.bytes(), false);
                    self.sink.mem_site(FuncId(fid), block, inst, a, ty.bytes(), false);
                    self.step(OpClass::Load, 1)?;
                    fr.regs[dst as usize] = v;
                }
                Op::LoadV { s, lanes, dst, addr, block, inst } => {
                    let a = fr.get_i(addr)? as u64;
                    let v = self.mem.read_vector(s, lanes, a)?;
                    let bytes = s.bytes() * lanes as u32;
                    self.sink.mem(a, bytes, false);
                    self.sink.mem_site(FuncId(fid), block, inst, a, bytes, false);
                    self.step(OpClass::VecLoad, lanes)?;
                    fr.put(dst as usize, v);
                }
                Op::Store { ty, val, addr, block, inst } => {
                    let v = fr.get(val)?;
                    let a = fr.get_i(addr)? as u64;
                    self.mem.write(ty, a, v)?;
                    self.sink.mem(a, ty.bytes(), true);
                    self.sink.mem_site(FuncId(fid), block, inst, a, ty.bytes(), true);
                    self.step(OpClass::Store, 1)?;
                }
                Op::StoreV { s, lanes, val, addr, block, inst } => {
                    let v = fr.get(val)?;
                    let a = fr.get_i(addr)? as u64;
                    self.mem.write_vector(s, lanes, a, &fr.value(v))?;
                    let bytes = s.bytes() * lanes as u32;
                    self.sink.mem(a, bytes, true);
                    self.sink.mem_site(FuncId(fid), block, inst, a, bytes, true);
                    self.step(OpClass::VecStore, lanes)?;
                }
                Op::Call { callee, dst, args, nargs } => {
                    let code = &prog[callee as usize];
                    let args = &f.args[args as usize..(args + nargs) as usize];
                    // Arguments may fill value registers only, never the
                    // constant pool behind them.
                    let n = args.len();
                    assert!(n <= code.values, "{n} arguments to {} values", code.values);
                    let mut callee_fr = self.pool.pop().unwrap_or_default();
                    callee_fr.reset(code);
                    for (i, &a) in args.iter().enumerate() {
                        let c = fr.get(a)?;
                        callee_fr.put(i, fr.value(c));
                    }
                    self.step(OpClass::Call, 1)?;
                    let r = self.call(callee, &mut callee_fr, depth + 1);
                    self.pool.push(callee_fr);
                    let r = r?;
                    if dst != NO_REG {
                        fr.put(dst as usize, r.ok_or(Trap::UndefRead)?);
                    }
                }
                Op::Select { dst, cond, t, f } => {
                    let c = fr.get_i(cond)?;
                    let r = if c != 0 { fr.get(t)? } else { fr.get(f)? };
                    self.step(OpClass::Select, 1)?;
                    fr.set(dst as usize, r);
                }
                Op::Splat { lanes, dst, src } => {
                    let r = match fr.get(src)? {
                        Cell::I(x) => Value::IV([x; MAX_LANES as usize], lanes),
                        Cell::F(x) => Value::FV([x; MAX_LANES as usize], lanes),
                        other => fr.value(other),
                    };
                    self.step(OpClass::Splat, lanes)?;
                    fr.put(dst as usize, r);
                }
                Op::ExtractLane { lane, dst, src } => {
                    let r = match fr.get(src)? {
                        Cell::V(s) => match &fr.vecs[s as usize] {
                            Value::IV(xs, n) if lane < *n => Cell::I(xs[lane as usize]),
                            Value::FV(xs, n) if lane < *n => Cell::F(xs[lane as usize]),
                            _ => return Err(Trap::UndefRead),
                        },
                        _ => return Err(Trap::UndefRead),
                    };
                    self.step(OpClass::IntAlu, 1)?;
                    fr.regs[dst as usize] = r;
                }
                Op::Reduce { op, s, dst, src } => {
                    let r = match fr.get(src)? {
                        Cell::V(v) => exec_reduce(op, s, &fr.vecs[v as usize])?,
                        _ => return Err(Trap::UndefRead),
                    };
                    self.step(OpClass::Reduce, 1)?;
                    fr.regs[dst as usize] = r;
                }
                Op::MisplacedPhi => unreachable!("φ after a non-φ instruction"),
                Op::Br { edge } => {
                    self.step(OpClass::Br, 1)?;
                    pc = self.take_edge(f, fr, edge)?;
                }
                Op::CondBr { cond, t, f: fe, site } => {
                    let c = fr.get_i(cond)? != 0;
                    self.sink.branch(site, c);
                    self.step(OpClass::CondBr, 1)?;
                    pc = self.take_edge(f, fr, if c { t } else { fe })?;
                }
                Op::Ret { val } => {
                    self.step(OpClass::Ret, 1)?;
                    let r = if val == NO_REG { None } else { Some(fr.value(fr.get(val)?)) };
                    self.mem.sp = saved_sp;
                    self.sink.exit_function();
                    return Ok(r);
                }
                Op::Unreachable => return Err(Trap::Unreachable),
            }
        }
    }
}

#[inline]
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

#[inline]
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

#[inline]
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
#[inline]
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

#[inline]
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

#[inline]
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
#[inline]
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

#[inline]
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
///
/// The module is first lowered into a flat op program (see [`Op`]), which is
/// then executed; the lowering is private to this run.
pub fn run<S: EventSink>(
    m: &Module,
    entry: FuncId,
    args: &[Value],
    sink: &mut S,
    limits: Limits,
) -> Result<ExecOutput, Trap> {
    let mem = Memory::new(m, limits.stack_bytes);
    let prog: Vec<FuncCode> = m
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| FuncCode::lower(FuncId(i as u32), f, &mem.global_addr))
        .collect();
    let mut interp = Interp {
        prog: &prog,
        mem,
        sink,
        steps: 0,
        limits,
        pool: Vec::new(),
        phi_buf: Vec::new(),
        phi_vecs: Vec::new(),
    };
    let code = &prog[entry.idx()];
    assert!(args.len() <= code.values, "{} arguments to {} values", args.len(), code.values);
    let mut fr = Frame::default();
    fr.reset(code);
    for (i, a) in args.iter().enumerate() {
        fr.put(i, *a);
    }
    let ret = interp.call(entry.0, &mut fr, 0)?;
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
    fn lowered_op_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Op>() <= 32, "{} bytes", std::mem::size_of::<Op>());
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
