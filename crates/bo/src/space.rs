//! Continuous box search spaces. BO internals operate on the unit cube; the
//! bounds map to/from problem space (thesis §4.3.2 "we re-scale the input
//! domain to `[0,1]^d`").

use citroen_rt::rng::Rng;

/// A box-bounded continuous search space.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Lower bound per dimension.
    pub lo: Vec<f64>,
    /// Upper bound per dimension.
    pub hi: Vec<f64>,
}

impl Bounds {
    /// Uniform bounds `[lo, hi]^d`.
    pub fn cube(d: usize, lo: f64, hi: f64) -> Bounds {
        assert!(hi > lo);
        Bounds { lo: vec![lo; d], hi: vec![hi; d] }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Map a unit-cube point into problem space.
    pub fn from_unit(&self, u: &[f64]) -> Vec<f64> {
        u.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&ui, (&l, &h))| l + ui.clamp(0.0, 1.0) * (h - l))
            .collect()
    }

    /// Map a problem-space point into the unit cube.
    pub fn to_unit(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&xi, (&l, &h))| ((xi - l) / (h - l)).clamp(0.0, 1.0))
            .collect()
    }

    /// Sample a uniform point in the unit cube.
    pub fn sample_unit(&self, rng: &mut impl Rng) -> Vec<f64> {
        (0..self.dim()).map(|_| rng.gen_range(0.0..1.0)).collect()
    }
}

/// Clamp a unit-cube point in place.
pub fn clamp_unit(x: &mut [f64]) {
    for v in x {
        *v = v.clamp(0.0, 1.0);
    }
}

/// Pass-sequence canonicalisation by the work-class subsumption dataflow.
///
/// The discrete face of the search space: genomes decode to pass sequences,
/// and some passes provably change nothing where they stand. Dropping those
/// passes maps many raw genomes onto one canonical sequence, turning
/// duplicate candidate evaluations into compile-cache hits without changing
/// what any candidate compiles to.
///
/// Deliberately dependency-free (plain indices + bitmasks) so `citroen-bo`
/// needs no view of the pass registry: callers supply each pass's work-class
/// masks. Canonicalisation tracks the set of work classes that may still be
/// present down the kept sequence — `maybe' = (maybe | produces[p]) &
/// !clears[p]`, clears winning because it is a postcondition — and drops
/// pass `q` wherever its fire mask is known and disjoint from that set. That
/// covers both `p, p` (`p` clears its own fire bit) and `p, q, p` (when `q`
/// neither produces nor re-enables `p`'s work). Every drop is a theorem on
/// any module, fuzz-checked by `citroen-analyze subsume`.
#[derive(Debug, Clone)]
pub struct SeqCanonicalizer {
    /// Per-pass: work classes whose presence is necessary for the pass to
    /// fire (`None` = unknown, never dropped).
    pub fires_on: Vec<Option<u64>>,
    /// Per-pass: work classes provably absent after the pass runs.
    pub clears: Vec<u64>,
    /// Per-pass: work classes the pass may create.
    pub produces: Vec<u64>,
}

impl SeqCanonicalizer {
    /// Build from the per-pass work-class masks (from the registry), all
    /// indexed by pass id.
    pub fn new(
        fires_on: Vec<Option<u64>>,
        clears: Vec<u64>,
        produces: Vec<u64>,
    ) -> SeqCanonicalizer {
        assert_eq!(clears.len(), fires_on.len(), "masks must cover the same passes");
        assert_eq!(produces.len(), fires_on.len(), "masks must cover the same passes");
        SeqCanonicalizer { fires_on, clears, produces }
    }

    /// Canonicalise `seq` (pass indices): drop pass `p` at each position iff
    /// the subsumption dataflow proves every work class it fires on is
    /// absent.
    pub fn canonicalize(&self, seq: &[usize]) -> Vec<usize> {
        // Work classes that may still be present. Unknown at sequence start:
        // everything. Only kept passes update it — a dropped pass provably
        // changed nothing.
        let mut maybe = u64::MAX;
        let mut out: Vec<usize> = Vec::with_capacity(seq.len());
        let mut subsume_dropped = 0u64;
        for &p in seq {
            debug_assert!(p < self.fires_on.len(), "pass index out of range");
            if let Some(fires) = self.fires_on[p] {
                if fires & maybe == 0 {
                    subsume_dropped += 1;
                    continue;
                }
            }
            maybe = (maybe | self.produces[p]) & !self.clears[p];
            out.push(p);
        }
        citroen_telemetry::counter("canon.subsume_dropped", subsume_dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_rt::rng::StdRng;
    use citroen_rt::rng::SeedableRng;

    #[test]
    fn unit_roundtrip() {
        let b = Bounds::cube(3, -5.0, 10.0);
        let x = vec![-5.0, 2.5, 10.0];
        let u = b.to_unit(&x);
        assert!((u[0] - 0.0).abs() < 1e-12);
        assert!((u[1] - 0.5).abs() < 1e-12);
        assert!((u[2] - 1.0).abs() < 1e-12);
        let back = b.from_unit(&u);
        for (a, c) in back.iter().zip(&x) {
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn subsumption_collapses_adjacent_and_pqp_patterns() {
        // Three passes over a 2-class universe. Passes 0 and 1 fire on (and
        // clear) their own class and produce nothing; pass 2 is unknown
        // (never dropped) and produces everything.
        let fires = vec![Some(0b01), Some(0b10), None];
        let clears = vec![0b01, 0b10, 0];
        let produces = vec![0, 0, u64::MAX];
        let c = SeqCanonicalizer::new(fires, clears, produces);
        // Adjacent duplicate: `p` clears its own fire class.
        assert_eq!(c.canonicalize(&[0, 0, 1]), vec![0, 1]);
        // p,q,p: pass 1 between two 0s neither produces nor re-enables
        // class 0, so the second 0 still drops.
        assert_eq!(c.canonicalize(&[0, 1, 0]), vec![0, 1]);
        // An unknown pass in between re-produces everything: no drop.
        assert_eq!(c.canonicalize(&[0, 2, 0]), vec![0, 2, 0]);
        // Both classes cleared, later duplicates of either pass drop.
        assert_eq!(c.canonicalize(&[1, 0, 0, 1]), vec![1, 0]);
    }

    #[test]
    fn subsumption_clears_win_over_produces() {
        // Pass 0 produces everything but clears class 0 — a trailing-dce
        // style pass. Pass 1 fires on class 0 only: dropped right after 0.
        let fires = vec![None, Some(0b01)];
        let clears = vec![0b01, 0];
        let produces = vec![u64::MAX, u64::MAX];
        let c = SeqCanonicalizer::new(fires, clears, produces);
        assert_eq!(c.canonicalize(&[0, 1]), vec![0]);
        // But before any pass has run, class 0 may be present: kept.
        assert_eq!(c.canonicalize(&[1, 0]), vec![1, 0]);
    }

    #[test]
    fn sampling_in_bounds() {
        let b = Bounds::cube(10, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let u = b.sample_unit(&mut rng);
            assert!(u.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
