//! Golden executions of the reference interpreter under the machine model.
//!
//! Every suite program runs at -O0, at -O3, and under one fixed sequence
//! that makes the SLP vectoriser fire (`mem2reg,slp-vectorizer`), on both
//! evaluation platforms. Each row pins one FNV digest over everything an
//! execution reports: the return value, the mutable-global digest, the
//! step count, the exact bits of the estimated cycles, the per-class
//! dynamic op counts, and the bits of the L1-miss and mispredict rates.
//! Cycles are an `f64` sum in event order, so any reordering of the event
//! stream, or any change in what a program computes, moves a digest.
//!
//! A second table, `STREAM_GOLDEN`, pins the interpreter's raw event
//! stream independently of any machine model: one FNV digest over every
//! sink call in order (`op` with its lanes, `mem`, `mem_site` with its
//! block and instruction index, `branch`, and the function enter/exit
//! hooks). `TRAP_GOLDEN` does the same for small programs that trap, pinning
//! the trap and the events emitted before it.
//!
//! On a mismatch a test prints its whole observed table in the source
//! format below, so an intended semantic change can be re-pinned by
//! pasting it over the table.

use citroen::ir::builder::{counted_loop_ssa, FunctionBuilder};
use citroen::ir::interp::{run, EventSink, Limits, OpClass, Trap, Value};
use citroen::ir::print::Fnv64;
use citroen::ir::types::{ScalarTy, Ty, I64};
use citroen::ir::{BinOp, CastKind, CmpOp, FuncId, Function, GlobalInit, Module, Operand, Term, ValueId};
use citroen::passes::{o3_pipeline, PassManager, PassSeq, Registry};
use citroen::sim::{Execution, Platform};
use citroen::suite::{all_benchmarks, Benchmark};

/// `(benchmark, config, platform, execution digest)`.
type Golden = (&'static str, &'static str, &'static str, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("telecom_gsm", "O0", "tx2", 0x0dd8e53eceecf266),
    ("telecom_gsm", "O0", "amd", 0xa68bfa0218796cbe),
    ("telecom_gsm", "O3", "tx2", 0x1453e648295965d7),
    ("telecom_gsm", "O3", "amd", 0x8348134ae4a8c093),
    ("telecom_gsm", "slp", "tx2", 0x0b5757071fbb5f15),
    ("telecom_gsm", "slp", "amd", 0xb89e367932791353),
    ("telecom_crc32", "O0", "tx2", 0xf7dcf48edd40e0ad),
    ("telecom_crc32", "O0", "amd", 0x57714ad22cb44147),
    ("telecom_crc32", "O3", "tx2", 0xc2503f726f32669b),
    ("telecom_crc32", "O3", "amd", 0x8e3b41d2f781493b),
    ("telecom_crc32", "slp", "tx2", 0xc14ce3e11337cba8),
    ("telecom_crc32", "slp", "amd", 0x220e445accda0191),
    ("telecom_adpcm", "O0", "tx2", 0x55c215d224592c7e),
    ("telecom_adpcm", "O0", "amd", 0x9569a042ce1c3e60),
    ("telecom_adpcm", "O3", "tx2", 0xa77afb47bc92b2d4),
    ("telecom_adpcm", "O3", "amd", 0x617a78142068ae14),
    ("telecom_adpcm", "slp", "tx2", 0x6e8adb7200b5fee5),
    ("telecom_adpcm", "slp", "amd", 0xf58c491321929af6),
    ("automotive_bitcount", "O0", "tx2", 0x5aae1cda5007dfb8),
    ("automotive_bitcount", "O0", "amd", 0xac74b0f114e21928),
    ("automotive_bitcount", "O3", "tx2", 0xbc2f8e60f70697c0),
    ("automotive_bitcount", "O3", "amd", 0x15b6622415407d4f),
    ("automotive_bitcount", "slp", "tx2", 0xfdcb55b2305f7606),
    ("automotive_bitcount", "slp", "amd", 0x93bd123b5d9e6aae),
    ("automotive_susan", "O0", "tx2", 0x38696757e7b166b1),
    ("automotive_susan", "O0", "amd", 0x2d3a35fb945fe442),
    ("automotive_susan", "O3", "tx2", 0x47959e128e4fee08),
    ("automotive_susan", "O3", "amd", 0x3c34c70823780f9e),
    ("automotive_susan", "slp", "tx2", 0x2ccbcd9a6efd8590),
    ("automotive_susan", "slp", "amd", 0x3f767ac2b1a09cdc),
    ("automotive_shellsort", "O0", "tx2", 0x61f56714babd3624),
    ("automotive_shellsort", "O0", "amd", 0x45225daf6d3c2deb),
    ("automotive_shellsort", "O3", "tx2", 0x164a9d7bdeb4c820),
    ("automotive_shellsort", "O3", "amd", 0xde5c86512e93e708),
    ("automotive_shellsort", "slp", "tx2", 0x1f16c61abc95d809),
    ("automotive_shellsort", "slp", "amd", 0xec068ac05a56efe4),
    ("security_sha", "O0", "tx2", 0x1e0b004c3d313041),
    ("security_sha", "O0", "amd", 0xa95168215ae504dd),
    ("security_sha", "O3", "tx2", 0xa92bc3c481356194),
    ("security_sha", "O3", "amd", 0x5a30cc2380874dbc),
    ("security_sha", "slp", "tx2", 0xdeb4c8b572d7fa47),
    ("security_sha", "slp", "amd", 0xd8b2c19ae735f40f),
    ("network_dijkstra", "O0", "tx2", 0x88931184980ad5d3),
    ("network_dijkstra", "O0", "amd", 0x9646b039626692ea),
    ("network_dijkstra", "O3", "tx2", 0x282f375fee7089fe),
    ("network_dijkstra", "O3", "amd", 0x9243ee25b2cec15e),
    ("network_dijkstra", "slp", "tx2", 0x22080d1916fc6e39),
    ("network_dijkstra", "slp", "amd", 0xf5495d40906c42a0),
    ("office_stringsearch", "O0", "tx2", 0xf77542feb3e4b001),
    ("office_stringsearch", "O0", "amd", 0xad7d0b79d074d343),
    ("office_stringsearch", "O3", "tx2", 0xca771ba2691a6aad),
    ("office_stringsearch", "O3", "amd", 0x604cf781421c3c90),
    ("office_stringsearch", "slp", "tx2", 0xf6e7349d3a66b484),
    ("office_stringsearch", "slp", "amd", 0xa2a95bdf4c764c6c),
    ("consumer_jpeg_dct", "O0", "tx2", 0xbb5814eee602bc14),
    ("consumer_jpeg_dct", "O0", "amd", 0x8e8cc1281e463247),
    ("consumer_jpeg_dct", "O3", "tx2", 0x96c8f12ff20f9e91),
    ("consumer_jpeg_dct", "O3", "amd", 0x576c8360fba8af27),
    ("consumer_jpeg_dct", "slp", "tx2", 0xe70f74c9af679233),
    ("consumer_jpeg_dct", "slp", "amd", 0x1e46352ca12c3276),
    ("spec_compress", "O0", "tx2", 0x8853d6eae85b094f),
    ("spec_compress", "O0", "amd", 0x5a4a6bce7a0684cc),
    ("spec_compress", "O3", "tx2", 0xdf1185a6693e5b0b),
    ("spec_compress", "O3", "amd", 0xbababa7fa7167f62),
    ("spec_compress", "slp", "tx2", 0xa951f35be4f4ec3a),
    ("spec_compress", "slp", "amd", 0x295d7fb3cdfd6e1d),
    ("spec_imgproc", "O0", "tx2", 0x87f006f66dea6178),
    ("spec_imgproc", "O0", "amd", 0xdd23d98374461ab5),
    ("spec_imgproc", "O3", "tx2", 0xdbc7a98150c95f59),
    ("spec_imgproc", "O3", "amd", 0x2c625ebd96b2b02a),
    ("spec_imgproc", "slp", "tx2", 0xb0adaa430095554d),
    ("spec_imgproc", "slp", "amd", 0x4ed85e5b118e500b),
    ("spec_simul", "O0", "tx2", 0xea125e68613396d0),
    ("spec_simul", "O0", "amd", 0x5b509f0186a360f4),
    ("spec_simul", "O3", "tx2", 0x87b88dba96de2334),
    ("spec_simul", "O3", "amd", 0xe54c53a797338db6),
    ("spec_simul", "slp", "tx2", 0xeedacd71da4e9fa0),
    ("spec_simul", "slp", "amd", 0x01a98f02964282de),
];

const VECTOR_CLASSES: [OpClass; 7] = [
    OpClass::VecIntAlu,
    OpClass::VecIntMul,
    OpClass::VecFp,
    OpClass::VecLoad,
    OpClass::VecStore,
    OpClass::Reduce,
    OpClass::Splat,
];

fn value_words(v: &Value, h: &mut Fnv64) {
    match v {
        Value::I(x) => {
            h.write_u64(1);
            h.write_u64(*x as u64);
        }
        Value::F(x) => {
            h.write_u64(2);
            h.write_u64(x.to_bits());
        }
        Value::IV(xs, n) => {
            h.write_u64(3);
            h.write_u64(*n as u64);
            xs.iter().take(*n as usize).for_each(|x| h.write_u64(*x as u64));
        }
        Value::FV(xs, n) => {
            h.write_u64(4);
            h.write_u64(*n as u64);
            xs.iter().take(*n as usize).for_each(|x| h.write_u64(x.to_bits()));
        }
    }
}

fn digest(e: &Execution) -> u64 {
    let mut h = Fnv64::new();
    match &e.output.ret {
        Some(v) => value_words(v, &mut h),
        None => h.write_u64(0),
    }
    h.write_u64(e.output.mem_digest);
    h.write_u64(e.output.steps);
    h.write_u64(e.cycles.to_bits());
    e.counts.iter().for_each(|c| h.write_u64(*c));
    h.write_u64(e.l1_miss_rate.to_bits());
    h.write_u64(e.mispredict_rate.to_bits());
    h.finish()
}

/// Compile every module of `b` with `seq` (`None`: unoptimised) and link.
fn build(pm: &PassManager, b: &Benchmark, seq: Option<&PassSeq>) -> Module {
    match seq {
        None => b.link(),
        Some(seq) => {
            let mods: Vec<Module> = b.modules.iter().map(|m| pm.compile(m, seq).module).collect();
            b.link_with(Some(&mods))
        }
    }
}

#[test]
fn suite_executions_are_bit_identical_to_the_pinned_table() {
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    // Verification and sanitizing between passes cannot change the
    // compiled module; skipping them keeps the debug-build test fast.
    pm.verify_each = false;
    pm.sanitize = false;
    let o3 = o3_pipeline(&reg);
    let slp = reg.parse_seq("mem2reg,slp-vectorizer").unwrap();
    let configs: [(&str, Option<&PassSeq>); 3] = [("O0", None), ("O3", Some(&o3)), ("slp", Some(&slp))];
    let platforms = [("tx2", Platform::tx2()), ("amd", Platform::amd())];

    let mut observed: Vec<Golden> = Vec::new();
    let mut vector_ops = 0u64;
    for b in all_benchmarks() {
        for (cname, seq) in &configs {
            let linked = build(&pm, &b, *seq);
            let entry = b.entry_in(&linked);
            for (pname, p) in &platforms {
                let e = p
                    .execute(&linked, entry, &b.args)
                    .unwrap_or_else(|t| panic!("{} {cname} {pname} trapped: {t}", b.name));
                vector_ops += VECTOR_CLASSES.iter().map(|c| e.counts[c.idx()]).sum::<u64>();
                observed.push((b.name, *cname, *pname, digest(&e)));
            }
        }
    }
    assert!(vector_ops > 0, "no suite program executed a vector op: the lane path is uncovered");

    if observed.as_slice() != GOLDEN {
        eprintln!("observed table:");
        for (b, c, p, d) in &observed {
            eprintln!("    (\"{b}\", \"{c}\", \"{p}\", {d:#018x}),");
        }
        for (got, want) in observed.iter().zip(GOLDEN) {
            assert_eq!(got, want, "execution digest moved");
        }
        assert_eq!(observed.len(), GOLDEN.len(), "row count moved");
    }
}

/// Hashes every sink call, in order, with its arguments.
struct StreamDigest {
    h: Fnv64,
    events: u64,
}

impl StreamDigest {
    fn new() -> StreamDigest {
        StreamDigest { h: Fnv64::new(), events: 0 }
    }

    fn event(&mut self, words: &[u64]) {
        self.events += 1;
        words.iter().for_each(|w| self.h.write_u64(*w));
    }
}

impl EventSink for StreamDigest {
    fn op(&mut self, class: OpClass, lanes: u8) {
        self.event(&[1, class.idx() as u64, lanes as u64]);
    }
    fn mem(&mut self, addr: u64, bytes: u32, store: bool) {
        self.event(&[2, addr, bytes as u64, store as u64]);
    }
    fn mem_site(&mut self, f: FuncId, block: u32, inst: u32, addr: u64, bytes: u32, store: bool) {
        self.event(&[3, f.0 as u64, block as u64, inst as u64, addr, bytes as u64, store as u64]);
    }
    fn branch(&mut self, site: u32, taken: bool) {
        self.event(&[4, site as u64, taken as u64]);
    }
    fn enter_function(&mut self, f: FuncId) {
        self.event(&[5, f.0 as u64]);
    }
    fn exit_function(&mut self) {
        self.event(&[6]);
    }
}

/// `(benchmark, config, sink calls, event-stream digest)`.
type StreamGolden = (&'static str, &'static str, u64, u64);

#[rustfmt::skip]
const STREAM_GOLDEN: &[StreamGolden] = &[
    ("telecom_gsm", "O0", 48176, 0xfef41f4909e1ff48),
    ("telecom_gsm", "O3", 21047, 0x667b5e9387c854db),
    ("telecom_gsm", "slp", 30386, 0x2e06bb98ff8ced87),
    ("telecom_crc32", "O0", 121366, 0x589def8f458202b0),
    ("telecom_crc32", "O3", 26629, 0x347e17558a5a83ab),
    ("telecom_crc32", "slp", 59403, 0x0d53de563c90aa79),
    ("telecom_adpcm", "O0", 68430, 0x066b2aeb010f2e4b),
    ("telecom_adpcm", "O3", 39206, 0x03ff1f9ec2150d9e),
    ("telecom_adpcm", "slp", 42014, 0xad5c6e0c98647603),
    ("automotive_bitcount", "O0", 199152, 0x911383f87b22e9b5),
    ("automotive_bitcount", "O3", 90060, 0xbdffcbe4f8cab90b),
    ("automotive_bitcount", "slp", 101354, 0x8e2f5a5969676db4),
    ("automotive_susan", "O0", 435471, 0x04421b772edb746c),
    ("automotive_susan", "O3", 170344, 0x9819d1f4a239cfc7),
    ("automotive_susan", "slp", 281413, 0xed19fc57c8a7c166),
    ("automotive_shellsort", "O0", 107848, 0x58e80dedb045eb63),
    ("automotive_shellsort", "O3", 75361, 0x8e3d46192644e14c),
    ("automotive_shellsort", "slp", 77779, 0xde4ac2288586c46a),
    ("security_sha", "O0", 57749, 0x7d25f8467100d483),
    ("security_sha", "O3", 34380, 0xb0017dabac2448d7),
    ("security_sha", "slp", 44132, 0x813255c0e44b96a9),
    ("network_dijkstra", "O0", 139425, 0xb61d6c7c174c3fe5),
    ("network_dijkstra", "O3", 99697, 0xe89223efec78305e),
    ("network_dijkstra", "slp", 105223, 0x863215054566d138),
    ("office_stringsearch", "O0", 113074, 0x988daa654deb99f4),
    ("office_stringsearch", "O3", 51619, 0xe25328e2357fe1a4),
    ("office_stringsearch", "slp", 59795, 0x6e9d1630698aa079),
    ("consumer_jpeg_dct", "O0", 10909, 0xb16c1e88d937d826),
    ("consumer_jpeg_dct", "O3", 3716, 0x7ece0204d3c872ff),
    ("consumer_jpeg_dct", "slp", 6726, 0xba44d040a2057386),
    ("spec_compress", "O0", 190380, 0xbfc499cdf2e6c801),
    ("spec_compress", "O3", 137221, 0x77dde7678744cd49),
    ("spec_compress", "slp", 144894, 0x1a471783e77dc39d),
    ("spec_imgproc", "O0", 965347, 0x434318ecfa5aca80),
    ("spec_imgproc", "O3", 475543, 0xcf2678c569db753d),
    ("spec_imgproc", "slp", 553746, 0xd2a6ce288afaa960),
    ("spec_simul", "O0", 309917, 0x38ec861ddcf6afd1),
    ("spec_simul", "O3", 133186, 0x039b5c25a94fa5ec),
    ("spec_simul", "slp", 177905, 0xee32cf19fff84c1d),
];

#[test]
fn suite_event_streams_are_bit_identical_to_the_pinned_table() {
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    pm.verify_each = false;
    pm.sanitize = false;
    let o3 = o3_pipeline(&reg);
    let slp = reg.parse_seq("mem2reg,slp-vectorizer").unwrap();
    let configs: [(&str, Option<&PassSeq>); 3] = [("O0", None), ("O3", Some(&o3)), ("slp", Some(&slp))];
    let limits = Platform::tx2().limits;

    let mut observed = Vec::new();
    for b in all_benchmarks() {
        for (cname, seq) in &configs {
            let linked = build(&pm, &b, *seq);
            let entry = b.entry_in(&linked);
            let mut sink = StreamDigest::new();
            let out = run(&linked, entry, &b.args, &mut sink, limits)
                .unwrap_or_else(|t| panic!("{} {cname} trapped: {t}", b.name));
            sink.h.write_u64(out.steps);
            observed.push(row(b.name, cname, sink.events, sink.h.finish()));
        }
    }
    let want: Vec<String> = STREAM_GOLDEN.iter().map(|(b, c, n, d)| row(b, c, *n, *d)).collect();
    check_table("STREAM_GOLDEN", &observed, &want);
}

/// Compare `observed` with the pinned rows, as source lines; on a mismatch
/// print the whole observed table in source form and fail on the first
/// differing row.
fn check_table(name: &str, observed: &[String], want: &[String]) {
    if observed != want {
        eprintln!("observed {name}:");
        observed.iter().for_each(|r| eprintln!("    {r}"));
        for (got, want) in observed.iter().zip(want) {
            assert_eq!(got, want, "{name} row moved");
        }
        assert_eq!(observed.len(), want.len(), "{name} row count moved");
    }
}

/// One table row in the source format of the tables above.
fn row(name: &str, tag: &str, events: u64, digest: u64) -> String {
    format!("(\"{name}\", \"{tag}\", {events}, {digest:#018x}),")
}

/// `(program, trap, sink calls before the trap, digest of those calls)`.
type TrapGolden = (&'static str, &'static str, u64, u64);

#[rustfmt::skip]
const TRAP_GOLDEN: &[TrapGolden] = &[
    ("div-scalar", "DivByZero", 13, 0xe01e2e7723611e04),
    ("div-vector-lane", "DivByZero", 18, 0x65fcfc73570263e7),
    ("oob-load", "OutOfBounds(1099511627781)", 13, 0xe01e2e7723611e04),
    ("oob-vector-store", "OutOfBounds(1052704)", 13, 0xdfef013d2bf59b74),
    ("step-limit", "StepLimit", 75, 0x093fde28a6f9914a),
    ("call-depth", "CallDepth", 386, 0xe5e377eb6079bdea),
    ("stack-overflow", "StackOverflow", 25, 0x5cb783f18b1ff3e0),
    ("phi-missing-edge", "UndefRead", 17, 0x73c475a74fa72ecf),
    ("phi-entry-edge", "UndefRead", 1, 0xfd29b2d10195eb20),
    ("unreachable", "Unreachable", 15, 0x16e15df205718aea),
    ("unresolved-call", "UnresolvedCall", 13, 0xe5028091e4fd8c8f),
];

/// A module of one function `f() -> i64` built by `body`, plus the globals
/// `a = [5, 6, 7, 8]` and `z = [1, 0, 1, 1]` (i32).
fn one_fn(body: impl FnOnce(&mut FunctionBuilder, Operand, Operand)) -> Module {
    let mut m = Module::new("m");
    let a = Operand::Global(m.add_global("a", GlobalInit::I32s(vec![5, 6, 7, 8]), true));
    let z = Operand::Global(m.add_global("z", GlobalInit::I32s(vec![1, 0, 1, 1]), false));
    let mut b = FunctionBuilder::new("f", vec![], Some(I64));
    body(&mut b, a, z);
    m.add_func(b.finish());
    m
}

/// Some memory and branch traffic ahead of a trap: load `a[0]`, store it
/// to `a[1]`, branch on it, and return the loaded value widened to i64.
fn prelude(b: &mut FunctionBuilder, a: Operand) -> Operand {
    let i32t = Ty::scalar(ScalarTy::I32);
    let x = b.load(i32t, a);
    let a1 = b.gep(a, Operand::imm64(1), 4);
    b.store(i32t, x, a1);
    let c = b.cmp(CmpOp::Sgt, x, Operand::ImmI(0, ScalarTy::I32));
    let (t, f) = (b.block(), b.block());
    b.cond_br(c, t, f);
    b.switch_to(f);
    b.ret(Some(Operand::imm64(-1)));
    b.switch_to(t);
    b.cast(CastKind::SExt, I64, x)
}

fn trap_programs() -> Vec<(&'static str, Module, Limits)> {
    let v4 = Ty::vector(ScalarTy::I32, 4);
    let small = |max_steps| Limits { max_steps, ..Limits::default() };
    let mut progs = Vec::new();

    progs.push(("div-scalar", one_fn(|b, a, _| {
        let x = prelude(b, a);
        let zero = b.bin(BinOp::Sub, I64, x, x);
        let q = b.bin(BinOp::SDiv, I64, x, zero);
        b.ret(Some(q));
    }), Limits::default()));

    progs.push(("div-vector-lane", one_fn(|b, a, z| {
        prelude(b, a);
        let xs = b.load(v4, a);
        let zs = b.load(v4, z);
        let q = b.bin(BinOp::SRem, v4, xs, zs);
        let r = b.reduce(BinOp::Add, ScalarTy::I32, q);
        let r64 = b.cast(CastKind::SExt, I64, r);
        b.ret(Some(r64));
    }), Limits::default()));

    progs.push(("oob-load", one_fn(|b, a, _| {
        let x = prelude(b, a);
        let far = b.bin(BinOp::Add, I64, x, Operand::imm64(1 << 40));
        let y = b.load(I64, far);
        b.ret(Some(y));
    }), Limits::default()));

    progs.push(("oob-vector-store", one_fn(|b, a, _| {
        prelude(b, a);
        let v = b.splat(v4, Operand::ImmI(3, ScalarTy::I32));
        // Lanes 0 and 1 fit below the top of memory (0x101020); lane 2 does not.
        b.store(v4, v, Operand::imm64(0x10_1018));
        b.ret(Some(Operand::imm64(0)));
    }), Limits::default()));

    progs.push(("step-limit", one_fn(|b, a, _| {
        let x = prelude(b, a);
        let pre = b.current();
        let sums = counted_loop_ssa(b, Operand::imm64(100), |b, iv, c| {
            let acc = b.phi(I64, vec![(pre, x)]);
            let nx = b.bin(BinOp::Add, I64, acc, iv);
            c.feed(acc, nx);
        });
        b.ret(Some(sums[0]));
    }), small(60)));

    // Unbounded recursion, storing the depth to `a` on the way down.
    let mut m = Module::new("m");
    let a = Operand::Global(m.add_global("a", GlobalInit::Zero(8), true));
    let mut b = FunctionBuilder::new("rec", vec![I64], Some(I64));
    b.store(I64, b.param(0), a);
    let d = b.bin(BinOp::Add, I64, b.param(0), Operand::imm64(1));
    let r = b.call(FuncId(0), Some(I64), vec![d]).unwrap();
    b.ret(Some(r));
    m.add_func(b.finish());
    let mut main = FunctionBuilder::new("main", vec![], Some(I64));
    let r = main.call(FuncId(0), Some(I64), vec![Operand::imm64(0)]).unwrap();
    main.ret(Some(r));
    m.add_func(main.finish());
    progs.push(("call-depth", m, Limits::default()));

    // Recursion that allocas 1 KiB per frame in a 5000-byte stack.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("grow", vec![], Some(I64));
    let p = b.alloca(1024);
    b.store(I64, Operand::imm64(9), p);
    let r = b.call(FuncId(0), Some(I64), vec![]).unwrap();
    b.ret(Some(r));
    m.add_func(b.finish());
    progs.push(("stack-overflow", m, Limits { stack_bytes: 5000, ..Limits::default() }));

    // The join's second φ has no incoming value for the edge taken; its
    // first φ resolves (and counts a step) before the trap.
    progs.push(("phi-missing-edge", one_fn(|b, a, _| {
        let x = prelude(b, a);
        let (l, r, join) = (b.block(), b.block(), b.block());
        let c = b.cmp(CmpOp::Slt, x, Operand::imm64(0));
        b.cond_br(c, l, r);
        b.switch_to(l);
        b.br(join);
        b.switch_to(r);
        b.br(join);
        b.switch_to(join);
        let p = b.phi(I64, vec![(l, Operand::imm64(1)), (r, x)]);
        let q = b.phi(I64, vec![(l, Operand::imm64(2))]);
        let s = b.bin(BinOp::Add, I64, p, q);
        b.ret(Some(s));
    }), Limits::default()));

    // An entry-block φ resolves along the entry edge on the first visit:
    // here it reads a value the block defines later, so it traps.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", vec![], Some(I64));
    let entry = b.current();
    let next = ValueId(1);
    let p = b.phi(I64, vec![(entry, Operand::Value(next))]);
    let n = b.bin(BinOp::Add, I64, p, Operand::imm64(1));
    assert_eq!(n, Operand::Value(next));
    b.ret(Some(n));
    m.add_func(b.finish());
    progs.push(("phi-entry-edge", m, Limits::default()));

    let mut m = one_fn(|b, a, _| {
        let x = prelude(b, a);
        let (f, t) = (b.block(), b.block());
        let c = b.cmp(CmpOp::Sgt, x, Operand::imm64(0));
        b.cond_br(c, t, f);
        b.switch_to(f);
        b.ret(Some(x));
        b.switch_to(t);
        b.ret(None);
    });
    // The builder has no `unreachable`; the taken successor gets one here.
    m.funcs[0].blocks.iter_mut().last().unwrap().term = Term::Unreachable;
    progs.push(("unreachable", m, Limits::default()));

    let mut m = one_fn(|b, a, _| {
        let x = prelude(b, a);
        let r = b.call(FuncId(1), Some(I64), vec![x]).unwrap();
        b.ret(Some(r));
    });
    m.add_func(Function::decl("ext", vec![I64], Some(I64)));
    progs.push(("unresolved-call", m, Limits::default()));
    progs
}

#[test]
fn trap_sites_and_event_prefixes_are_pinned() {
    let mut observed = Vec::new();
    for (name, m, limits) in trap_programs() {
        let mut sink = StreamDigest::new();
        let entry = m.func_by_name("main").unwrap_or(FuncId(0));
        let trap: Trap = run(&m, entry, &[], &mut sink, limits)
            .map(|o| panic!("{name} returned {:?} instead of trapping", o.ret))
            .unwrap_err();
        observed.push(row(name, &format!("{trap:?}"), sink.events, sink.h.finish()));
    }
    let want: Vec<String> = TRAP_GOLDEN.iter().map(|(p, t, n, d)| row(p, t, *n, *d)).collect();
    check_table("TRAP_GOLDEN", &observed, &want);
}
