//! Golden Gaussian-process fits.
//!
//! `Gp::fit` runs on fixed xorshift data for every combination of
//! n ∈ {8, 60, 130}, d ∈ {1, 16}, both kernel families and
//! `fit_iters` ∈ {0, 25, 60}, plus one warm-started refit. Each row pins
//! one FNV digest over the exact bits of the fitted hyperparameters, the
//! log marginal likelihood, and the posterior (mean, variance) at fixed
//! queries. The Adam trajectory feeds every gradient bit back into the
//! hyperparameters, so any reordered floating-point operation in the
//! kernel, the gradient sum or the solves moves a digest.
//!
//! On a mismatch the test prints the whole observed table in the source
//! format below, so an intended numerical change can be re-pinned by
//! pasting it over `GOLDEN`.

use citroen::gp::{Gp, GpConfig, KernelKind, Mat};
use citroen::ir::print::Fnv64;

/// `(row, digest)`.
type Golden = (&'static str, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("n8-d1-matern-it0", 0x992b1abd66dfa12c),
    ("n8-d1-matern-it25", 0xedde7eaeddc9a2d5),
    ("n8-d1-matern-it60", 0x4ba5e7d5980d92ce),
    ("n8-d1-rbf-it0", 0xf713d9f60a54e72b),
    ("n8-d1-rbf-it25", 0x2bac6f2dfd251acf),
    ("n8-d1-rbf-it60", 0x6b06789bc1cc65d1),
    ("n8-d16-matern-it0", 0x6fbb0e2ade559d04),
    ("n8-d16-matern-it25", 0xb9abbb2839a1d298),
    ("n8-d16-matern-it60", 0xdc497b15619a579f),
    ("n8-d16-rbf-it0", 0x2d5bcd819f59d7c6),
    ("n8-d16-rbf-it25", 0x507a57a3b5789d24),
    ("n8-d16-rbf-it60", 0xaed6c7cdcb132933),
    ("n60-d1-matern-it0", 0xc4a150d9fcaa8eff),
    ("n60-d1-matern-it25", 0x93c0db61ff1d8cd5),
    ("n60-d1-matern-it60", 0xb08bd6e9fcb6ab08),
    ("n60-d1-rbf-it0", 0x872b1fe228a485a7),
    ("n60-d1-rbf-it25", 0x625cf1e491aa98e7),
    ("n60-d1-rbf-it60", 0x20e255e30c1257f1),
    ("n60-d16-matern-it0", 0x6568ff5317209444),
    ("n60-d16-matern-it25", 0x035ee3f722f6b5e0),
    ("n60-d16-matern-it60", 0xe589923c42e5e4af),
    ("n60-d16-rbf-it0", 0x9c8be3caa9d97184),
    ("n60-d16-rbf-it25", 0xfa56d66e4164b244),
    ("n60-d16-rbf-it60", 0x1a436a825b2979fc),
    ("n130-d1-matern-it0", 0x85d8cb5ec6fdf750),
    ("n130-d1-matern-it25", 0xb442ae30cdc35074),
    ("n130-d1-matern-it60", 0x57b7ec156c3a3605),
    ("n130-d1-rbf-it0", 0x138021b19346d080),
    ("n130-d1-rbf-it25", 0xc1a1b5a9751c011b),
    ("n130-d1-rbf-it60", 0xe17849143796b6ba),
    ("n130-d16-matern-it0", 0x6efb026b2835f548),
    ("n130-d16-matern-it25", 0x5ef25d3267fc1d1e),
    ("n130-d16-matern-it60", 0xb4c32196778bff4b),
    ("n130-d16-rbf-it0", 0x72858f6093c5d0b3),
    ("n130-d16-rbf-it25", 0x05966f245cf58d3c),
    ("n130-d16-rbf-it60", 0x9adccc27e5ea4125),
    ("warm-n60-to-n130-d16-matern-it25", 0x5c004d0ab79dc8ed),
];

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    fn point(&mut self, d: usize) -> Vec<f64> {
        (0..d).map(|_| self.next()).collect()
    }
}

/// `n` points in `[0,1]^d` with a smooth, skewed positive target, plus
/// three query points from the same stream.
fn data(n: usize, d: usize) -> (Mat, Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ (n as u64 * 131 + d as u64));
    let rows: Vec<Vec<f64>> = (0..n).map(|_| rng.point(d)).collect();
    let y = rows
        .iter()
        .map(|r| {
            let s: f64 = r.iter().enumerate().map(|(i, x)| x / (1.0 + i as f64)).sum();
            (3.0 * s).sin().exp() + 0.1 * rng.next()
        })
        .collect();
    let queries = (0..3).map(|_| rng.point(d)).collect();
    (Mat::from_rows(rows), y, queries)
}

fn digest(gp: &Gp, queries: &[Vec<f64>]) -> u64 {
    let mut h = Fnv64::new();
    let hy = gp.hypers();
    hy.log_ls.iter().for_each(|l| h.write_u64(l.to_bits()));
    h.write_u64(hy.log_sf2.to_bits());
    h.write_u64(hy.log_noise.to_bits());
    h.write_u64(gp.log_marginal().to_bits());
    for q in queries {
        let (m, v) = gp.predict(q);
        h.write_u64(m.to_bits());
        h.write_u64(v.to_bits());
    }
    h.finish()
}

fn observed() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for n in [8, 60, 130] {
        for d in [1, 16] {
            let (x, y, queries) = data(n, d);
            for (kname, kernel) in [("matern", KernelKind::Matern52), ("rbf", KernelKind::Rbf)] {
                for fit_iters in [0, 25, 60] {
                    let cfg = GpConfig { kernel, fit_iters, ..Default::default() };
                    let gp = Gp::fit(x.clone(), &y, cfg);
                    rows.push((format!("n{n}-d{d}-{kname}-it{fit_iters}"), digest(&gp, &queries)));
                }
            }
        }
    }
    // Warm start: the n=60 fit's hyperparameters seed a refit on n=130.
    let (x60, y60, _) = data(60, 16);
    let (x130, y130, queries) = data(130, 16);
    let first = Gp::fit(x60, &y60, GpConfig { fit_iters: 25, ..Default::default() });
    let cfg = GpConfig { fit_iters: 25, init: Some(first.hypers()), ..Default::default() };
    let warm = Gp::fit(x130, &y130, cfg);
    rows.push(("warm-n60-to-n130-d16-matern-it25".to_string(), digest(&warm, &queries)));
    rows
}

#[test]
fn gp_fits_are_bit_identical_to_the_pinned_table() {
    let observed = observed();
    let matches = observed.len() == GOLDEN.len()
        && observed.iter().zip(GOLDEN).all(|((r, d), (gr, gd))| r == gr && d == gd);
    if !matches {
        eprintln!("observed table:");
        for (r, d) in &observed {
            eprintln!("    (\"{r}\", {d:#018x}),");
        }
        for ((r, d), (gr, gd)) in observed.iter().zip(GOLDEN) {
            assert_eq!((r.as_str(), *d), (*gr, *gd), "GP digest moved");
        }
        assert_eq!(observed.len(), GOLDEN.len(), "row count moved");
    }
}
