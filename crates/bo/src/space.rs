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
    fn sampling_in_bounds() {
        let b = Bounds::cube(10, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let u = b.sample_unit(&mut rng);
            assert!(u.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
