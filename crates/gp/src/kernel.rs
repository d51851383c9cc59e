//! ARD kernels (Matérn-5/2 and RBF) with analytic hyperparameter gradients.

/// Kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Matérn ν = 5/2 — the thesis' default (§4.3.2).
    Matern52,
    /// Squared exponential.
    Rbf,
}

/// An ARD kernel: per-dimension length-scales plus a signal variance, all in
/// log-space for unconstrained optimisation.
#[derive(Debug, Clone)]
pub struct ArdKernel {
    /// Kernel family.
    pub kind: KernelKind,
    /// Per-dimension log length-scales.
    pub log_ls: Vec<f64>,
    /// Log signal variance.
    pub log_sf2: f64,
}

const SQRT5: f64 = 2.236_067_977_499_79;

impl ArdKernel {
    /// Kernel with all length-scales set to `ls0`.
    pub fn new(kind: KernelKind, dims: usize, ls0: f64, sf2: f64) -> ArdKernel {
        ArdKernel { kind, log_ls: vec![ls0.ln(); dims], log_sf2: sf2.ln() }
    }

    /// Number of input dimensions.
    pub fn dims(&self) -> usize {
        self.log_ls.len()
    }

    /// Length-scales in natural space (for ARD relevance ranking, Table 5.5).
    pub fn lengthscales(&self) -> Vec<f64> {
        self.log_ls.iter().map(|l| l.exp()).collect()
    }

    /// The kernel with its scales taken out of log space, for evaluating
    /// many pairs at these hyperparameters.
    pub fn scaled(&self) -> ScaledKernel {
        ScaledKernel { kind: self.kind, ls: self.lengthscales(), sf2: self.log_sf2.exp() }
    }

    /// Kernel value `k(x, y)`. Evaluating many pairs? Use [`ArdKernel::scaled`].
    pub fn k(&self, x: &[f64], y: &[f64]) -> f64 {
        self.scaled().k(x, y)
    }
}

/// An [`ArdKernel`] at fixed hyperparameters with `exp` already applied to
/// every log scale, so the pairwise loops of a kernel-matrix build, a
/// gradient pass or a posterior make no `exp` call per length-scale. Every
/// value and gradient is bit-identical to evaluating from the log scales:
/// `exp` is deterministic, and the per-dimension division `(xᵢ-yᵢ)/lᵢ` is
/// kept (multiplying by `1/lᵢ` would round differently).
#[derive(Debug, Clone)]
pub struct ScaledKernel {
    kind: KernelKind,
    ls: Vec<f64>,
    sf2: f64,
}

impl ScaledKernel {
    /// Scaled squared distance `r² = Σ (xᵢ-yᵢ)²/lᵢ²`. Symmetric bit for
    /// bit: `x-y` is exactly `-(y-x)` in IEEE arithmetic.
    fn r2(&self, x: &[f64], y: &[f64]) -> f64 {
        let mut s = 0.0;
        for ((a, b), l) in x.iter().zip(y).zip(&self.ls) {
            let d = (a - b) / l;
            s += d * d;
        }
        s
    }

    /// Kernel value `k(x, y)`.
    pub fn k(&self, x: &[f64], y: &[f64]) -> f64 {
        let sf2 = self.sf2;
        let r2 = self.r2(x, y);
        match self.kind {
            KernelKind::Rbf => sf2 * (-0.5 * r2).exp(),
            KernelKind::Matern52 => {
                let r = r2.sqrt();
                sf2 * (1.0 + SQRT5 * r + 5.0 * r2 / 3.0) * (-SQRT5 * r).exp()
            }
        }
    }

    /// Kernel value plus gradients: writes `dk/dlog_ls` into `dls` (one
    /// entry per dimension) and returns `(k, dk/dlog_sf2)`.
    pub fn k_grad(&self, x: &[f64], y: &[f64], dls: &mut [f64]) -> (f64, f64) {
        let sf2 = self.sf2;
        let dls = &mut dls[..x.len()];
        // `dls` first holds the per-dimension terms (xᵢ-yᵢ)²/lᵢ²; r² sums
        // them in dimension order, as `r2` does.
        for ((p, (a, b)), l) in dls.iter_mut().zip(x.iter().zip(y)).zip(&self.ls) {
            let di = (a - b) / l;
            *p = di * di;
        }
        let r2 = dls.iter().fold(0.0, |s, p| s + p);
        match self.kind {
            KernelKind::Rbf => {
                let k = sf2 * (-0.5 * r2).exp();
                // dk/dlog li = k · per_dim[i]   (since d(-r²/2)/dlog li = per_dim[i])
                dls.iter_mut().for_each(|p| *p *= k);
                (k, k)
            }
            KernelKind::Matern52 => {
                let r = r2.sqrt();
                let e = (-SQRT5 * r).exp();
                let k = sf2 * (1.0 + SQRT5 * r + 5.0 * r2 / 3.0) * e;
                // dk/dr = -sf2 · (5r/3)(1 + √5 r) e^{-√5 r}
                // dr/dlog li = -per_dim[i]/r  (for r > 0)
                if r < 1e-12 {
                    dls.fill(0.0);
                } else {
                    let dkdr = -sf2 * (5.0 * r / 3.0) * (1.0 + SQRT5 * r) * e;
                    dls.iter_mut().for_each(|p| *p = dkdr * (-*p / r));
                }
                (k, k)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(kind: KernelKind) {
        let mut k = ArdKernel::new(kind, 3, 0.7, 1.3);
        k.log_ls = vec![0.2, -0.4, 0.1];
        let x = [0.3, 0.9, -0.2];
        let y = [-0.1, 0.4, 0.5];
        let mut grads = [0.0; 3];
        let (kv, gsf) = k.scaled().k_grad(&x, &y, &mut grads);
        assert_eq!(kv.to_bits(), k.k(&x, &y).to_bits(), "{kind:?}: k_grad value differs from k");
        let eps = 1e-6;
        for i in 0..3 {
            let mut kp = k.clone();
            kp.log_ls[i] += eps;
            let mut km = k.clone();
            km.log_ls[i] -= eps;
            let num = (kp.k(&x, &y) - km.k(&x, &y)) / (2.0 * eps);
            assert!(
                (num - grads[i]).abs() < 1e-6,
                "{kind:?} dim {i}: numeric {num} vs analytic {}",
                grads[i]
            );
        }
        let mut kp = k.clone();
        kp.log_sf2 += eps;
        let mut km = k.clone();
        km.log_sf2 -= eps;
        let num = (kp.k(&x, &y) - km.k(&x, &y)) / (2.0 * eps);
        assert!((num - gsf).abs() < 1e-6, "{kind:?} sf2: {num} vs {gsf}");
    }

    #[test]
    fn gradients_match_numeric_matern() {
        numeric_grad(KernelKind::Matern52);
    }

    #[test]
    fn gradients_match_numeric_rbf() {
        numeric_grad(KernelKind::Rbf);
    }

    #[test]
    fn kernel_properties() {
        let k = ArdKernel::new(KernelKind::Matern52, 2, 1.0, 2.0);
        let x = [0.5, -0.5];
        // k(x,x) = sf²
        assert!((k.k(&x, &x) - 2.0).abs() < 1e-12);
        // symmetry and decay
        let y = [1.5, 0.5];
        assert!((k.k(&x, &y) - k.k(&y, &x)).abs() < 1e-15);
        assert!(k.k(&x, &y) < k.k(&x, &x));
        let z = [5.0, 5.0];
        assert!(k.k(&x, &z) < k.k(&x, &y));
    }

    #[test]
    fn ard_scales_matter() {
        // A long length-scale in one dimension makes it irrelevant.
        let mut k = ArdKernel::new(KernelKind::Matern52, 2, 1.0, 1.0);
        k.log_ls = vec![0.0, 10.0f64.ln() * 3.0]; // dim 1 effectively ignored
        let a = [0.0, 0.0];
        let b = [0.0, 5.0];
        assert!(k.k(&a, &b) > 0.99, "irrelevant dim should not decay the kernel");
        let c = [1.5, 0.0];
        assert!(k.k(&a, &c) < 0.7, "relevant dim must decay it");
    }
}
