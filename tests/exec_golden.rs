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
//! On a mismatch the test prints the whole observed table in the source
//! format below, so an intended semantic change can be re-pinned by
//! pasting it over `GOLDEN`.

use citroen::ir::interp::{OpClass, Value};
use citroen::ir::print::Fnv64;
use citroen::ir::Module;
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
