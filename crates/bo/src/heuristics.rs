//! Heuristic black-box optimisers with ask/tell interfaces (thesis §2.2):
//! a genetic algorithm (tournament selection, SBX crossover, polynomial
//! mutation — the pymoo defaults of §4.3.2), CMA-ES (full covariance
//! adaptation with CSA step-size control), and the discrete 1+λ evolution
//! strategy used for pass-sequence generation in Chapter 5.
//!
//! In AIBO these never optimise the objective themselves; their candidate
//! generators seed the acquisition-function maximiser, and the AF-chosen
//! evaluated sample is *told* back (Fig. 4.2c).

use citroen_gp::Mat;
use citroen_rt::rng::StdRng;
use citroen_rt::rng::Rng;

/// Ask/tell interface over the continuous unit cube (minimisation).
pub trait AskTell {
    /// Generate `k` candidate points.
    fn ask(&mut self, rng: &mut StdRng, k: usize) -> Vec<Vec<f64>>;
    /// Report an evaluated sample.
    fn tell(&mut self, x: &[f64], y: f64);
    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Genetic algorithm
// ---------------------------------------------------------------------------

/// Genetic algorithm state.
pub struct GaOpt {
    dim: usize,
    pop_size: usize,
    /// `(x, fitness)` sorted ascending by fitness (best first).
    pop: Vec<(Vec<f64>, f64)>,
    /// SBX distribution index.
    eta_x: f64,
    /// Polynomial-mutation distribution index.
    eta_m: f64,
    /// Crossover probability (pymoo default 0.5 per thesis §4.3.2).
    pub crossover_prob: f64,
}

impl GaOpt {
    /// GA over `dim` dimensions with the given population size.
    pub fn new(dim: usize, pop_size: usize) -> GaOpt {
        GaOpt { dim, pop_size: pop_size.max(2), pop: Vec::new(), eta_x: 15.0, eta_m: 20.0, crossover_prob: 0.5 }
    }

    /// Seed the population with evaluated points.
    pub fn seed(&mut self, points: &[(Vec<f64>, f64)]) {
        for (x, y) in points {
            self.tell(x, *y);
        }
    }

    fn tournament<'a>(&'a self, rng: &mut StdRng) -> &'a [f64] {
        let a = rng.gen_range(0..self.pop.len());
        let b = rng.gen_range(0..self.pop.len());
        // pop is sorted best-first, so the smaller index wins.
        let w = a.min(b);
        &self.pop[w].0
    }

    fn sbx(&self, rng: &mut StdRng, p1: &[f64], p2: &[f64]) -> Vec<f64> {
        let mut child = vec![0.0; self.dim];
        for i in 0..self.dim {
            if rng.gen_bool(self.crossover_prob) {
                let u: f64 = rng.gen_range(0.0..1.0);
                let beta = if u <= 0.5 {
                    (2.0 * u).powf(1.0 / (self.eta_x + 1.0))
                } else {
                    (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (self.eta_x + 1.0))
                };
                let c = 0.5 * ((1.0 + beta) * p1[i] + (1.0 - beta) * p2[i]);
                child[i] = c.clamp(0.0, 1.0);
            } else {
                child[i] = p1[i];
            }
        }
        child
    }

    fn mutate(&self, rng: &mut StdRng, x: &mut [f64]) {
        let pm = 1.0 / self.dim as f64;
        for v in x.iter_mut() {
            if rng.gen_bool(pm) {
                let u: f64 = rng.gen_range(0.0..1.0);
                let delta = if u < 0.5 {
                    (2.0 * u).powf(1.0 / (self.eta_m + 1.0)) - 1.0
                } else {
                    1.0 - (2.0 * (1.0 - u)).powf(1.0 / (self.eta_m + 1.0))
                };
                *v = (*v + delta).clamp(0.0, 1.0);
            }
        }
    }

    /// Current population diversity: mean pairwise Euclidean distance
    /// (Fig. 4.15's metric).
    pub fn population_diversity(&self) -> f64 {
        let n = self.pop.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut pairs = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let d: f64 = self.pop[i]
                    .0
                    .iter()
                    .zip(&self.pop[j].0)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                total += d;
                pairs += 1.0;
            }
        }
        total / pairs
    }
}

impl AskTell for GaOpt {
    fn ask(&mut self, rng: &mut StdRng, k: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|_| {
                if self.pop.len() < 2 {
                    return (0..self.dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                }
                let p1 = self.tournament(rng).to_vec();
                let p2 = self.tournament(rng).to_vec();
                let mut child = self.sbx(rng, &p1, &p2);
                self.mutate(rng, &mut child);
                child
            })
            .collect()
    }

    fn tell(&mut self, x: &[f64], y: f64) {
        let pos = self.pop.partition_point(|(_, f)| *f <= y);
        self.pop.insert(pos, (x.to_vec(), y));
        self.pop.truncate(self.pop_size);
    }

    fn name(&self) -> &'static str {
        "ga"
    }
}

// ---------------------------------------------------------------------------
// CMA-ES
// ---------------------------------------------------------------------------

/// CMA-ES state (thesis §2.2.2, eqs. 2.7–2.12), adapted to the one-sample-
/// per-iteration regime of AIBO by buffering told samples into generations.
pub struct CmaEs {
    dim: usize,
    mean: Vec<f64>,
    sigma: f64,
    c: Mat,
    // Eigen decomposition cache: C = B diag(D²) Bᵀ.
    b: Mat,
    d: Vec<f64>,
    eigen_stale: usize,
    p_sigma: Vec<f64>,
    p_c: Vec<f64>,
    // Strategy parameters.
    lambda: usize,
    mu: usize,
    weights: Vec<f64>,
    mueff: f64,
    cc: f64,
    cs: f64,
    c1: f64,
    cmu: f64,
    damps: f64,
    chi_n: f64,
    /// Buffer of told samples for the next generation update.
    gen_buf: Vec<(Vec<f64>, f64)>,
    generation: u64,
}

impl CmaEs {
    /// New CMA-ES centred at `mean0` with initial step size `sigma0`
    /// (thesis default 0.2 on the unit cube).
    pub fn new(mean0: Vec<f64>, sigma0: f64) -> CmaEs {
        let n = mean0.len();
        let nf = n as f64;
        let lambda = 4 + (3.0 * nf.ln()).floor() as usize;
        let mu = lambda / 2;
        let mut weights: Vec<f64> =
            (0..mu).map(|i| ((mu as f64 + 0.5).ln() - ((i + 1) as f64).ln()).max(0.0)).collect();
        let sum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= sum;
        }
        let mueff = 1.0 / weights.iter().map(|w| w * w).sum::<f64>();
        let cc = (4.0 + mueff / nf) / (nf + 4.0 + 2.0 * mueff / nf);
        let cs = (mueff + 2.0) / (nf + mueff + 5.0);
        let c1 = 2.0 / ((nf + 1.3) * (nf + 1.3) + mueff);
        let cmu = (1.0 - c1)
            .min(2.0 * (mueff - 2.0 + 1.0 / mueff) / ((nf + 2.0) * (nf + 2.0) + mueff));
        let damps = 1.0 + 2.0 * ((mueff - 1.0) / (nf + 1.0)).sqrt().max(0.0) + cs;
        let chi_n = nf.sqrt() * (1.0 - 1.0 / (4.0 * nf) + 1.0 / (21.0 * nf * nf));
        CmaEs {
            dim: n,
            mean: mean0,
            sigma: sigma0,
            c: Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 }),
            b: Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 }),
            d: vec![1.0; n],
            eigen_stale: 0,
            p_sigma: vec![0.0; n],
            p_c: vec![0.0; n],
            lambda,
            mu,
            weights,
            mueff,
            cc,
            cs,
            c1,
            cmu,
            damps,
            chi_n,
            gen_buf: Vec::new(),
            generation: 0,
        }
    }

    /// Current step size.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Current mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    fn refresh_eigen(&mut self) {
        let (b, d2) = jacobi_eigen(&self.c, 8);
        self.b = b;
        self.d = d2.iter().map(|&v| v.max(1e-20).sqrt()).collect();
        self.eigen_stale = 0;
    }

    fn sample(&self, rng: &mut StdRng) -> Vec<f64> {
        let n = self.dim;
        let z: Vec<f64> = (0..n).map(|_| standard_normal(rng)).collect();
        // x = m + σ · B · (D ∘ z)
        let mut y = vec![0.0; n];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for (j, zj) in z.iter().enumerate() {
                s += self.b.get(i, j) * self.d[j] * zj;
            }
            *yi = s;
        }
        (0..n).map(|i| (self.mean[i] + self.sigma * y[i]).clamp(0.0, 1.0)).collect()
    }

    /// One full CMA update from a ranked generation (best first).
    fn update_generation(&mut self) {
        let n = self.dim;
        let mut generation = std::mem::take(&mut self.gen_buf);
        generation.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        generation.truncate(self.mu);
        let old_mean = self.mean.clone();
        // New mean (eq. 2.8).
        let mut new_mean = vec![0.0; n];
        for (k, (x, _)) in generation.iter().enumerate() {
            for i in 0..n {
                new_mean[i] += self.weights[k] * x[i];
            }
        }
        // Handle short generations (fewer than mu points told).
        if generation.len() < self.mu {
            let scale: f64 = self.weights[..generation.len()].iter().sum();
            if scale > 1e-12 {
                for v in &mut new_mean {
                    *v /= scale;
                }
            } else {
                new_mean = old_mean.clone();
            }
        }
        self.mean = new_mean;

        // C^{-1/2} (m' - m)/σ  via the eigen cache.
        let delta: Vec<f64> =
            (0..n).map(|i| (self.mean[i] - old_mean[i]) / self.sigma.max(1e-12)).collect();
        let mut cinv_half_delta = vec![0.0; n];
        // C^{-1/2} = B D^{-1} Bᵀ
        let mut tmp = vec![0.0; n];
        for (j, t) in tmp.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, di) in delta.iter().enumerate() {
                s += self.b.get(i, j) * di;
            }
            *t = s / self.d[j].max(1e-12);
        }
        for (i, c) in cinv_half_delta.iter_mut().enumerate() {
            let mut s = 0.0;
            for (j, t) in tmp.iter().enumerate() {
                s += self.b.get(i, j) * t;
            }
            *c = s;
        }

        // Evolution paths (eqs. 2.9, 2.11).
        let cs = self.cs;
        let norm_fac = (cs * (2.0 - cs) * self.mueff).sqrt();
        for (p, c) in self.p_sigma.iter_mut().zip(&cinv_half_delta) {
            *p = (1.0 - cs) * *p + norm_fac * c;
        }
        let ps_norm: f64 = self.p_sigma.iter().map(|v| v * v).sum::<f64>().sqrt();
        let hsig = ps_norm
            / (1.0 - (1.0 - cs).powi(2 * (self.generation as i32 + 1))).sqrt()
            / self.chi_n
            < 1.4 + 2.0 / (n as f64 + 1.0);
        let cc = self.cc;
        let ccf = (cc * (2.0 - cc) * self.mueff).sqrt();
        for (p, d) in self.p_c.iter_mut().zip(&delta) {
            *p = (1.0 - cc) * *p + if hsig { ccf * d } else { 0.0 };
        }

        // Covariance update (eq. 2.12): rank-one + rank-mu.
        let c1 = self.c1;
        let cmu = self.cmu;
        let keep = 1.0 - c1 - cmu;
        for i in 0..n {
            for j in 0..n {
                let mut v = keep * self.c.get(i, j) + c1 * self.p_c[i] * self.p_c[j];
                for (k, (x, _)) in generation.iter().enumerate() {
                    let yi = (x[i] - old_mean[i]) / self.sigma.max(1e-12);
                    let yj = (x[j] - old_mean[j]) / self.sigma.max(1e-12);
                    v += cmu * self.weights[k] * yi * yj;
                }
                self.c.set(i, j, v);
            }
        }

        // Step size (eq. 2.10).
        self.sigma *= ((cs / self.damps) * (ps_norm / self.chi_n - 1.0)).exp();
        self.sigma = self.sigma.clamp(1e-8, 2.0);
        self.generation += 1;
        self.eigen_stale += 1;
        if self.eigen_stale >= (1 + self.dim / 10).min(10) {
            self.refresh_eigen();
        }
    }
}

impl AskTell for CmaEs {
    fn ask(&mut self, rng: &mut StdRng, k: usize) -> Vec<Vec<f64>> {
        (0..k).map(|_| self.sample(rng)).collect()
    }

    fn tell(&mut self, x: &[f64], y: f64) {
        self.gen_buf.push((x.to_vec(), y));
        if self.gen_buf.len() >= self.lambda {
            self.update_generation();
        }
    }

    fn name(&self) -> &'static str {
        "cma-es"
    }
}

/// Pure random search (the default AF-maximiser initialisation in most BO
/// packages, and the exploration backstop inside AIBO).
pub struct RandomOpt {
    dim: usize,
}

impl RandomOpt {
    /// Random search over `dim` dimensions.
    pub fn new(dim: usize) -> RandomOpt {
        RandomOpt { dim }
    }
}

impl AskTell for RandomOpt {
    fn ask(&mut self, rng: &mut StdRng, k: usize) -> Vec<Vec<f64>> {
        (0..k).map(|_| (0..self.dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect()
    }
    fn tell(&mut self, _x: &[f64], _y: f64) {}
    fn name(&self) -> &'static str {
        "random"
    }
}

// ---------------------------------------------------------------------------
// Discrete 1+λ evolution strategy
// ---------------------------------------------------------------------------

/// Discrete 1+λ ES over fixed-length sequences from an alphabet of size
/// `choices` (thesis §2.2.3) — CITROEN's pass-sequence generator substrate.
#[derive(Debug, Clone)]
pub struct DiscreteOneLambda {
    /// Sequence length.
    pub len: usize,
    /// Alphabet size (number of passes).
    pub choices: usize,
    /// Current incumbent genome.
    pub incumbent: Vec<u16>,
    /// Incumbent fitness (minimised); `None` until first tell.
    pub best: Option<f64>,
    /// Per-position mutation probability.
    pub mutation_rate: f64,
    /// Probability that a mutation step also swaps a random segment.
    pub swap_prob: f64,
}

impl DiscreteOneLambda {
    /// Fresh incumbent drawn uniformly.
    pub fn new(len: usize, choices: usize, rng: &mut StdRng) -> DiscreteOneLambda {
        let incumbent = (0..len).map(|_| rng.gen_range(0..choices) as u16).collect();
        DiscreteOneLambda {
            len,
            choices,
            incumbent,
            best: None,
            mutation_rate: 2.0 / len as f64,
            swap_prob: 0.3,
        }
    }

    /// Generate `k` mutants of the incumbent.
    pub fn ask(&self, rng: &mut StdRng, k: usize) -> Vec<Vec<u16>> {
        (0..k).map(|_| self.mutate(rng)).collect()
    }

    /// One mutant: point substitutions plus an occasional segment swap
    /// (order matters in phase ordering, so swaps explore reorderings).
    pub fn mutate(&self, rng: &mut StdRng) -> Vec<u16> {
        let mut g = self.incumbent.clone();
        let mut changed = false;
        for v in g.iter_mut() {
            if rng.gen_bool(self.mutation_rate.clamp(0.0, 1.0)) {
                // Substitute with a *different* symbol.
                let nv = rng.gen_range(0..self.choices.max(2) - 1) as u16;
                *v = if nv >= *v { nv + 1 } else { nv } % self.choices as u16;
                changed = true;
            }
        }
        if rng.gen_bool(self.swap_prob) && self.len >= 2 {
            let a = rng.gen_range(0..self.len);
            let b = rng.gen_range(0..self.len);
            if a != b && g[a] != g[b] {
                g.swap(a, b);
                changed = true;
            }
        }
        if !changed {
            let i = rng.gen_range(0..self.len);
            g[i] = (g[i] + 1) % self.choices as u16;
        }
        g
    }

    /// Report an evaluated genome; adopts it if it improves the incumbent.
    pub fn tell(&mut self, g: &[u16], y: f64) {
        if self.best.map(|b| y < b).unwrap_or(true) {
            self.best = Some(y);
            self.incumbent = g.to_vec();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared numerics
// ---------------------------------------------------------------------------

/// Box–Muller standard normal.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Returns `(B, d)`
/// with `A ≈ B diag(d) Bᵀ`, eigenvectors in columns of `B`.
pub fn jacobi_eigen(a: &Mat, sweeps: usize) -> (Mat, Vec<f64>) {
    let n = a.rows;
    let mut m = a.clone();
    let mut v = Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
    for _ in 0..sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m.get(i, j) * m.get(i, j);
            }
        }
        if off < 1e-20 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let d = (0..n).map(|i| m.get(i, i)).collect();
    (v, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_rt::rng::SeedableRng;

    fn sphere(x: &[f64]) -> f64 {
        // minimum at 0.7 per dimension
        x.iter().map(|v| (v - 0.7) * (v - 0.7)).sum()
    }

    #[test]
    fn jacobi_diagonalises() {
        let a = Mat::from_rows(vec![
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, -0.2],
            vec![0.5, -0.2, 2.0],
        ]);
        let (b, d) = jacobi_eigen(&a, 12);
        // Reconstruct A = B diag(d) Bᵀ.
        for i in 0..3 {
            for j in 0..3 {
                let r: f64 = (0..3).map(|k| b.get(i, k) * d[k] * b.get(j, k)).sum();
                assert!((r - a.get(i, j)).abs() < 1e-8, "({i},{j})");
            }
        }
        // Trace preserved.
        let tr: f64 = d.iter().sum();
        assert!((tr - 9.0).abs() < 1e-8);
    }

    #[test]
    fn ga_improves_on_sphere() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ga = GaOpt::new(6, 20);
        // seed with random points
        for _ in 0..20 {
            let x: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            let y = sphere(&x);
            ga.tell(&x, y);
        }
        let before = ga.pop[0].1;
        for _ in 0..300 {
            let xs = ga.ask(&mut rng, 1);
            let y = sphere(&xs[0]);
            ga.tell(&xs[0], y);
        }
        let after = ga.pop[0].1;
        assert!(after < before * 0.2, "GA did not improve: {before} -> {after}");
        assert!(ga.population_diversity() >= 0.0);
    }

    #[test]
    fn cmaes_converges_on_sphere() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut es = CmaEs::new(vec![0.5; 8], 0.2);
        let mut best = f64::INFINITY;
        for _ in 0..600 {
            let xs = es.ask(&mut rng, 1);
            let y = sphere(&xs[0]);
            best = best.min(y);
            es.tell(&xs[0], y);
        }
        assert!(best < 0.01, "CMA-ES best {best}");
        // Mean should drift toward the optimum at 0.7.
        let drift: f64 =
            es.mean().iter().map(|m| (m - 0.7).abs()).sum::<f64>() / es.mean().len() as f64;
        assert!(drift < 0.25, "mean drift {drift}");
    }

    #[test]
    fn cmaes_sigma_adapts() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut es = CmaEs::new(vec![0.7; 4], 0.2);
        for _ in 0..400 {
            let xs = es.ask(&mut rng, 1);
            let y = sphere(&xs[0]);
            es.tell(&xs[0], y);
        }
        // Near the optimum the step size should have shrunk.
        assert!(es.sigma() < 0.2, "sigma {}", es.sigma());
    }

    #[test]
    fn des_keeps_best_incumbent() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut des = DiscreteOneLambda::new(16, 8, &mut rng);
        // Fitness: count of positions equal to 3 (minimise negative count).
        let fit = |g: &[u16]| -(g.iter().filter(|&&v| v == 3).count() as f64);
        let mut best = f64::INFINITY;
        for _ in 0..400 {
            let muts = des.ask(&mut rng, 4);
            for g in muts {
                let y = fit(&g);
                best = best.min(y);
                des.tell(&g, y);
            }
        }
        assert!(best <= -10.0, "DES should pack 3s, best {best}");
        assert_eq!(des.best, Some(best));
    }

    #[test]
    fn des_mutants_differ_from_incumbent() {
        let mut rng = StdRng::seed_from_u64(2);
        let des = DiscreteOneLambda::new(24, 16, &mut rng);
        for g in des.ask(&mut rng, 10) {
            assert_eq!(g.len(), 24);
            assert!(g != des.incumbent || des.incumbent.is_empty());
        }
    }
}
