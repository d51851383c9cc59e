//! Gaussian-process regression with analytic-gradient marginal-likelihood
//! fitting — the surrogate model of both AIBO (Ch. 4) and CITROEN's cost
//! model over compilation statistics (Ch. 5).

use crate::kernel::{ArdKernel, KernelKind, ScaledKernel};
use crate::linalg::{chol_inverse, chol_logdet, chol_solve, cholesky, Mat};
use crate::transform::OutputTransform;

/// GP configuration; bounds follow the thesis (§4.3.2): length-scale ∈
/// [0.005, 20], noise variance ∈ [1e-6, 0.01].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Kernel family.
    pub kernel: KernelKind,
    /// Length-scale bounds (natural space).
    pub ls_bounds: (f64, f64),
    /// Noise-variance bounds (natural space).
    pub noise_bounds: (f64, f64),
    /// Signal-variance bounds (natural space).
    pub sf2_bounds: (f64, f64),
    /// Adam iterations for hyperparameter fitting.
    pub fit_iters: usize,
    /// Adam learning rate (log-space).
    pub lr: f64,
    /// Apply a Yeo–Johnson output transform.
    pub yeo_johnson: bool,
    /// Warm-start hyperparameters (from a previous fit); `fit_iters == 0`
    /// with a warm start just refactorises at the given hyperparameters.
    pub init: Option<GpHypers>,
}

/// A snapshot of GP hyperparameters for warm starting.
#[derive(Debug, Clone)]
pub struct GpHypers {
    /// Per-dimension log length-scales.
    pub log_ls: Vec<f64>,
    /// Log signal variance.
    pub log_sf2: f64,
    /// Log noise variance.
    pub log_noise: f64,
}

impl Default for GpConfig {
    fn default() -> GpConfig {
        GpConfig {
            kernel: KernelKind::Matern52,
            ls_bounds: (0.005, 20.0),
            noise_bounds: (1e-6, 0.01),
            sf2_bounds: (0.05, 20.0),
            fit_iters: 40,
            lr: 0.08,
            yeo_johnson: true,
            init: None,
        }
    }
}

/// A fitted GP posterior.
pub struct Gp {
    x: Mat,
    /// Transformed, standardised targets.
    z: Vec<f64>,
    kernel: ArdKernel,
    /// `kernel` out of log space, for the posterior's pairwise loops.
    scaled: ScaledKernel,
    log_noise: f64,
    chol: Mat,
    alpha: Vec<f64>,
    transform: OutputTransform,
    cfg: GpConfig,
}

impl Gp {
    /// Fit a GP to `(x, y)`. `x` is `n × d` (inputs should be pre-scaled to
    /// `[0,1]^d`, as the thesis does); `y` are raw objective values.
    pub fn fit(x: Mat, y: &[f64], cfg: GpConfig) -> Gp {
        let _fit_span = citroen_telemetry::span("gp.fit");
        citroen_telemetry::value("gp.fit_iters", cfg.fit_iters as u64);
        citroen_telemetry::value("gp.fit_obs", x.rows as u64);
        assert_eq!(x.rows, y.len());
        assert!(x.rows > 0, "cannot fit a GP to zero observations");
        let transform =
            if cfg.yeo_johnson { OutputTransform::fit(y) } else { OutputTransform::identity() };
        let z: Vec<f64> = y.iter().map(|&v| transform.forward(v)).collect();

        let d = x.cols;
        let mut kernel = ArdKernel::new(cfg.kernel, d, 0.5, 1.0);
        let mut log_noise = (1e-3f64).ln();
        if let Some(init) = &cfg.init {
            if init.log_ls.len() == d {
                kernel.log_ls = init.log_ls.clone();
                kernel.log_sf2 = init.log_sf2;
                log_noise = init.log_noise;
            }
        }

        // Adam in log-hyperparameter space with analytic gradients.
        let np = d + 2;
        let mut m = vec![0.0; np];
        let mut v = vec![0.0; np];
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        for t in 1..=cfg.fit_iters {
            let (_, grad) = log_marginal_and_grad(&x, &z, &kernel, log_noise);
            let Some(grad) = grad else { break };
            for i in 0..np {
                let g = -grad[i]; // maximise
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mh = m[i] / (1.0 - b1.powi(t as i32));
                let vh = v[i] / (1.0 - b2.powi(t as i32));
                let step = cfg.lr * mh / (vh.sqrt() + eps);
                if i < d {
                    kernel.log_ls[i] =
                        (kernel.log_ls[i] - step).clamp(cfg.ls_bounds.0.ln(), cfg.ls_bounds.1.ln());
                } else if i == d {
                    kernel.log_sf2 = (kernel.log_sf2 - step)
                        .clamp(cfg.sf2_bounds.0.ln(), cfg.sf2_bounds.1.ln());
                } else {
                    log_noise = (log_noise - step)
                        .clamp(cfg.noise_bounds.0.ln(), cfg.noise_bounds.1.ln());
                }
            }
        }

        let scaled = kernel.scaled();
        let (chol, alpha) = factorise(&x, &z, &scaled, log_noise);
        Gp { x, z, kernel, scaled, log_noise, chol, alpha, transform, cfg }
    }

    /// Posterior mean and variance at `q` (model/transformed space).
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        citroen_telemetry::counter("gp.predict.calls", 1);
        let n = self.x.rows;
        let mut kstar = vec![0.0; n];
        for i in 0..n {
            kstar[i] = self.scaled.k(self.x.row(i), q);
        }
        let mean: f64 = kstar.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let vsolve = chol_solve(&self.chol, &kstar);
        let kss = self.scaled.k(q, q);
        let var = (kss - kstar.iter().zip(&vsolve).map(|(a, b)| a * b).sum::<f64>()).max(1e-12);
        (mean, var)
    }

    /// Posterior mean mapped back to raw objective space.
    pub fn predict_raw_mean(&self, q: &[f64]) -> f64 {
        let (m, _) = self.predict(q);
        self.transform.inverse(m)
    }

    /// Draw `s` joint posterior samples at `q` using the reparameterisation
    /// trick (for Monte-Carlo acquisition functions): `μ + σ·ε`.
    pub fn sample_at(&self, q: &[f64], eps: &[f64]) -> Vec<f64> {
        let (mu, var) = self.predict(q);
        let sd = var.sqrt();
        eps.iter().map(|e| mu + sd * e).collect()
    }

    /// The fitted ARD length-scales (shorter ⇒ more impactful input —
    /// Table 5.5's relevance ranking).
    pub fn lengthscales(&self) -> Vec<f64> {
        self.kernel.lengthscales()
    }

    /// The output transform (to map incumbents into model space).
    pub fn transform(&self) -> &OutputTransform {
        &self.transform
    }

    /// Fitted noise variance.
    pub fn noise(&self) -> f64 {
        self.log_noise.exp()
    }

    /// Log marginal likelihood at the fitted hyperparameters.
    pub fn log_marginal(&self) -> f64 {
        let (lml, _) = log_marginal_and_grad(&self.x, &self.z, &self.kernel, self.log_noise);
        lml
    }

    /// Number of training points.
    pub fn n(&self) -> usize {
        self.x.rows
    }

    /// Input dimensionality.
    pub fn dims(&self) -> usize {
        self.x.cols
    }

    /// Configuration used to fit.
    pub fn config(&self) -> &GpConfig {
        &self.cfg
    }

    /// Snapshot of the fitted hyperparameters (for warm starting).
    pub fn hypers(&self) -> GpHypers {
        GpHypers {
            log_ls: self.kernel.log_ls.clone(),
            log_sf2: self.kernel.log_sf2,
            log_noise: self.log_noise,
        }
    }
}

/// `K + noise·I` over the rows of `x`. Only the lower triangle is
/// evaluated: `k(xᵢ, xⱼ)` equals `k(xⱼ, xᵢ)` bit for bit, so mirroring it
/// gives the matrix a full evaluation would.
fn kernel_matrix(x: &Mat, kernel: &ScaledKernel, noise: f64) -> Mat {
    let n = x.rows;
    let mut kmat = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.k(x.row(i), x.row(j)) + if i == j { noise } else { 0.0 };
            kmat.set(i, j, v);
            kmat.set(j, i, v);
        }
    }
    kmat
}

fn factorise(x: &Mat, z: &[f64], kernel: &ScaledKernel, log_noise: f64) -> (Mat, Vec<f64>) {
    let kmat = kernel_matrix(x, kernel, log_noise.exp());
    let l = cholesky(&kmat).expect("kernel matrix must be PD with noise");
    let alpha = chol_solve(&l, z);
    (l, alpha)
}

/// Log marginal likelihood and its gradient w.r.t. `[log_ls.., log_sf2,
/// log_noise]`. Gradient is `None` if the factorisation failed.
fn log_marginal_and_grad(
    x: &Mat,
    z: &[f64],
    kernel: &ArdKernel,
    log_noise: f64,
) -> (f64, Option<Vec<f64>>) {
    let n = x.rows;
    let d = kernel.dims();
    let noise = log_noise.exp();
    let kernel = kernel.scaled();
    let kmat = kernel_matrix(x, &kernel, noise);
    let Ok(l) = cholesky(&kmat) else {
        return (f64::NEG_INFINITY, None);
    };
    let alpha = chol_solve(&l, z);
    let lml = -0.5 * z.iter().zip(&alpha).map(|(a, b)| a * b).sum::<f64>()
        - 0.5 * chol_logdet(&l)
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

    // dL/dθ = ½ tr((ααᵀ − K⁻¹) dK/dθ), summed pair by pair in row-major
    // order (the order fixes every bit of the Adam trajectory).
    let kinv = chol_inverse(&l);
    let mut grad = vec![0.0; d + 2];
    let mut gls = vec![0.0; d];
    for i in 0..n {
        for j in 0..n {
            let w = alpha[i] * alpha[j] - kinv.get(i, j);
            let (_, gsf) = kernel.k_grad(x.row(i), x.row(j), &mut gls);
            for (acc, g) in grad.iter_mut().zip(&gls) {
                *acc += 0.5 * w * g;
            }
            grad[d] += 0.5 * w * gsf;
            if i == j {
                grad[d + 1] += 0.5 * w * noise; // dK/dlog_noise = noise·I
            }
        }
    }
    (lml, Some(grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid1d(n: usize) -> (Mat, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let y: Vec<f64> =
            xs.iter().map(|&x| (6.0 * x).sin() + 0.5 * x).collect();
        let m = Mat::from_rows(xs.into_iter().map(|x| vec![x]).collect());
        (m, y)
    }

    #[test]
    fn gp_interpolates_smooth_function() {
        let (x, y) = grid1d(20);
        let gp = Gp::fit(x, &y, GpConfig { yeo_johnson: false, ..Default::default() });
        for (i, &q) in [0.12f64, 0.37, 0.81].iter().enumerate() {
            let truth = (6.0 * q).sin() + 0.5 * q;
            let (m, v) = gp.predict(&[q]);
            assert!(
                (m - truth).abs() < 0.15,
                "query {i}: mean {m} vs truth {truth} (var {v})"
            );
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (x, y) = grid1d(10);
        let gp = Gp::fit(x, &y, GpConfig { yeo_johnson: false, ..Default::default() });
        let (_, v_in) = gp.predict(&[0.5]);
        let (_, v_out) = gp.predict(&[3.0]);
        assert!(v_out > 5.0 * v_in, "v_out={v_out} v_in={v_in}");
    }

    #[test]
    fn fitting_improves_marginal_likelihood() {
        let (x, y) = grid1d(24);
        let unfit = Gp::fit(
            x.clone(),
            &y,
            GpConfig { fit_iters: 0, yeo_johnson: false, ..Default::default() },
        );
        let fit = Gp::fit(
            x,
            &y,
            GpConfig { fit_iters: 60, yeo_johnson: false, ..Default::default() },
        );
        assert!(
            fit.log_marginal() > unfit.log_marginal(),
            "fit {} vs unfit {}",
            fit.log_marginal(),
            unfit.log_marginal()
        );
    }

    #[test]
    fn mll_gradient_matches_numeric() {
        let (x, y) = grid1d(8);
        let kernel = ArdKernel::new(KernelKind::Matern52, 1, 0.4, 1.2);
        let log_noise = (3e-3f64).ln();
        let (_, grad) = log_marginal_and_grad(&x, &y, &kernel, log_noise);
        let grad = grad.unwrap();
        let eps = 1e-5;
        // log length-scale
        let mut kp = kernel.clone();
        kp.log_ls[0] += eps;
        let mut km = kernel.clone();
        km.log_ls[0] -= eps;
        let num = (log_marginal_and_grad(&x, &y, &kp, log_noise).0
            - log_marginal_and_grad(&x, &y, &km, log_noise).0)
            / (2.0 * eps);
        assert!((num - grad[0]).abs() < 1e-4 * (1.0 + num.abs()), "ls: {num} vs {}", grad[0]);
        // log noise
        let num_n = (log_marginal_and_grad(&x, &y, &kernel, log_noise + eps).0
            - log_marginal_and_grad(&x, &y, &kernel, log_noise - eps).0)
            / (2.0 * eps);
        assert!(
            (num_n - grad[2]).abs() < 1e-4 * (1.0 + num_n.abs()),
            "noise: {num_n} vs {}",
            grad[2]
        );
    }

    #[test]
    fn ard_identifies_relevant_dimension() {
        // y depends on dim 0 only; the fitted ARD length-scale for dim 1
        // should be (much) longer — the Table 5.5 mechanism.
        let n = 40;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut s = 1234u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 16) % 1000) as f64 / 1000.0
        };
        for _ in 0..n {
            let a = rnd();
            let b = rnd();
            rows.push(vec![a, b]);
            y.push((8.0 * a).sin());
        }
        let gp = Gp::fit(
            Mat::from_rows(rows),
            &y,
            GpConfig { fit_iters: 80, yeo_johnson: false, ..Default::default() },
        );
        let ls = gp.lengthscales();
        assert!(
            ls[1] > 1.5 * ls[0],
            "irrelevant dim must get a longer length-scale: {ls:?}"
        );
    }
}
