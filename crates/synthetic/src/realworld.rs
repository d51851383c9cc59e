//! Stand-ins for Chapter 4's real-world tasks (Table 4.1). Each preserves the
//! original's dimensionality and qualitative landscape; see DESIGN.md §1.
//! All tasks are phrased as *minimisation* (negated reward where needed).

use citroen_bo::Bounds;

/// A task's objective: a point in the search bounds to its cost.
pub type Objective = Box<dyn Fn(&[f64]) -> f64 + Sync + Send>;

/// A real-world-style task.
pub struct RealWorldTask {
    /// Task name.
    pub name: String,
    /// Search bounds.
    pub bounds: Bounds,
    /// Objective (minimised).
    pub f: Objective,
}

/// Rover trajectory planning (60-D, `[0,1]^60`): 30 waypoints in the unit
/// square define a piecewise-linear path from start (0.05,0.05) to goal
/// (0.95,0.95); cost integrates a field of Gaussian obstacles along the path
/// plus start/goal misses. Mirrors Wang et al.'s rover task structure.
pub fn rover_trajectory() -> RealWorldTask {
    // Fixed obstacle field (deterministic).
    let obstacles: Vec<(f64, f64, f64)> = vec![
        (0.3, 0.3, 0.10),
        (0.5, 0.45, 0.09),
        (0.7, 0.6, 0.11),
        (0.4, 0.7, 0.08),
        (0.6, 0.2, 0.08),
        (0.2, 0.55, 0.07),
        (0.8, 0.85, 0.07),
        (0.55, 0.8, 0.08),
    ];
    let cost_at = move |x: f64, y: f64| -> f64 {
        obstacles
            .iter()
            .map(|&(ox, oy, r)| {
                let d2 = (x - ox) * (x - ox) + (y - oy) * (y - oy);
                (-d2 / (2.0 * r * r)).exp()
            })
            .sum::<f64>()
    };
    let f = move |w: &[f64]| -> f64 {
        // Waypoints: start, 30 control points, goal.
        let mut pts = vec![(0.05, 0.05)];
        for c in w.chunks(2) {
            pts.push((c[0], c[1]));
        }
        pts.push((0.95, 0.95));
        let mut cost = 0.0;
        let mut length = 0.0;
        for seg in pts.windows(2) {
            let (x0, y0) = seg[0];
            let (x1, y1) = seg[1];
            let steps = 8;
            for s in 0..steps {
                let t = (s as f64 + 0.5) / steps as f64;
                let (x, y) = (x0 + t * (x1 - x0), y0 + t * (y1 - y0));
                cost += cost_at(x, y) / steps as f64;
            }
            length += ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
        }
        // Reward in the original peaks at 5; we minimise cost + length penalty.
        cost + 0.5 * length
    };
    RealWorldTask { name: "Rover60".into(), bounds: Bounds::cube(60, 0.0, 1.0), f: Box::new(f) }
}

/// Robot pushing (14-D): two hands, each parameterised by start position (2),
/// push direction (2), push distance (1), contact radius (1) and a spin
/// nuisance dimension (1). Objects at fixed spots must reach fixed goals; the
/// sparse-ish reward structure (nothing happens unless a push line passes
/// near an object) mirrors the original task's difficulty.
pub fn robot_push() -> RealWorldTask {
    let objects = [(0.3f64, 0.4f64), (0.7f64, 0.6f64)];
    let goals = [(0.8f64, 0.2f64), (0.2f64, 0.85f64)];
    let f = move |w: &[f64]| -> f64 {
        let mut pos = objects;
        for h in 0..2 {
            let base = h * 7;
            let (sx, sy) = (w[base], w[base + 1]);
            let (mut dx, mut dy) = (w[base + 2] - 0.5, w[base + 3] - 0.5);
            let norm = (dx * dx + dy * dy).sqrt().max(1e-9);
            dx /= norm;
            dy /= norm;
            let dist = w[base + 4];
            let radius = 0.05 + 0.1 * w[base + 5];
            // w[base+6] is a nuisance (spin) dimension.
            for obj in pos.iter_mut() {
                // Closest approach of the push segment to the object.
                let rel = (obj.0 - sx, obj.1 - sy);
                let along = (rel.0 * dx + rel.1 * dy).clamp(0.0, dist);
                let (cx, cy) = (sx + along * dx, sy + along * dy);
                let d = ((obj.0 - cx).powi(2) + (obj.1 - cy).powi(2)).sqrt();
                if d < radius {
                    // The object is carried to the end of the push.
                    let carry = (dist - along).max(0.0);
                    obj.0 = (obj.0 + dx * carry).clamp(0.0, 1.0);
                    obj.1 = (obj.1 + dy * carry).clamp(0.0, 1.0);
                }
            }
        }
        pos.iter()
            .zip(goals.iter())
            .map(|(p, g)| ((p.0 - g.0).powi(2) + (p.1 - g.1).powi(2)).sqrt())
            .sum()
    };
    RealWorldTask { name: "RobotPush14".into(), bounds: Bounds::cube(14, 0.0, 1.0), f: Box::new(f) }
}

/// Lasso-DNA stand-in (180-D): weighted-Lasso penalty tuning on a synthetic,
/// highly correlated "DNA-like" binary design matrix. The objective runs a
/// fixed number of coordinate-descent sweeps and reports validation MSE, so
/// the parameter space is structured and correlated as in the original.
pub fn lasso_dna() -> RealWorldTask {
    const P: usize = 180;
    const N: usize = 80;
    // Deterministic correlated binary design matrix.
    let mut x = vec![[0f64; P]; N];
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for row in x.iter_mut() {
        let mut prev = 0.0;
        for v in row.iter_mut() {
            // Markov structure: adjacent loci correlate (linkage).
            let p = if prev > 0.5 { 0.75 } else { 0.25 };
            *v = if rnd() < p { 1.0 } else { 0.0 };
            prev = *v;
        }
    }
    // Sparse ground-truth effect.
    let mut beta = [0f64; P];
    for k in 0..10 {
        beta[k * 17 % P] = if k % 2 == 0 { 1.0 } else { -0.8 };
    }
    let y: Vec<f64> = x
        .iter()
        .map(|row| row.iter().zip(beta.iter()).map(|(a, b)| a * b).sum::<f64>())
        .collect();
    let split = N * 3 / 4;

    let f = move |w: &[f64]| -> f64 {
        // w are per-feature penalty weights in [0,1] → λ_j ∈ [0.001, 1].
        let lambda: Vec<f64> = w.iter().map(|v| 0.001 + v.clamp(0.0, 1.0)).collect();
        let mut theta = vec![0f64; P];
        // Precomputed column norms over the training split.
        for _ in 0..12 {
            for j in 0..P {
                let mut num = 0.0;
                let mut den = 0.0;
                for i in 0..split {
                    let pred_others: f64 = x[i]
                        .iter()
                        .zip(theta.iter())
                        .enumerate()
                        .filter(|(k, _)| *k != j)
                        .map(|(_, (a, t))| a * t)
                        .sum();
                    let r = y[i] - pred_others;
                    num += x[i][j] * r;
                    den += x[i][j] * x[i][j];
                }
                let den = den.max(1e-9);
                let raw = num / den;
                let thr = lambda[j] / den * split as f64 * 0.05;
                theta[j] = raw.signum() * (raw.abs() - thr).max(0.0);
            }
        }
        // Validation MSE.
        let mut mse = 0.0;
        for i in split..N {
            let pred: f64 = x[i].iter().zip(theta.iter()).map(|(a, t)| a * t).sum();
            mse += (y[i] - pred) * (y[i] - pred);
        }
        mse / (N - split) as f64
    };
    RealWorldTask { name: "LassoDNA180".into(), bounds: Bounds::cube(P, 0.0, 1.0), f: Box::new(f) }
}

/// HalfCheetah-like stand-in (102-D): a linear policy `a = W s` controlling a
/// chain of 6 masses connected by springs on a line; reward is forward
/// progress minus control cost over 120 simulated steps. Like the MuJoCo
/// task, the objective is a non-convex, high-dimensional policy search with
/// strongly coupled parameters.
pub fn cheetah_like() -> RealWorldTask {
    const BODIES: usize = 6;
    const SDIM: usize = 17; // 6 pos + 6 vel + 4 phase features + bias
    const ADIM: usize = 6;
    let f = move |w: &[f64]| -> f64 {
        // W is ADIM × SDIM = 102.
        let mut pos = [0f64; BODIES];
        let mut vel = [0f64; BODIES];
        for (i, p) in pos.iter_mut().enumerate() {
            *p = i as f64 * 0.5;
        }
        let mut reward = 0.0;
        let dt = 0.05;
        for step in 0..120 {
            let t = step as f64 * dt;
            // State features.
            let mut s = [0f64; SDIM];
            for i in 0..BODIES {
                s[i] = pos[i] - pos[0] - i as f64 * 0.5; // relative extension
                s[BODIES + i] = vel[i];
            }
            s[12] = (3.0 * t).sin();
            s[13] = (3.0 * t).cos();
            s[14] = (7.0 * t).sin();
            s[15] = (7.0 * t).cos();
            s[16] = 1.0;
            // Actions: forces on each body.
            let mut act = [0f64; ADIM];
            for (a, arow) in act.iter_mut().enumerate() {
                let mut sum = 0.0;
                for (k, sv) in s.iter().enumerate() {
                    sum += w[a * SDIM + k] * sv;
                }
                *arow = sum.tanh();
            }
            // Physics: springs between neighbours + ground friction that only
            // resists backward motion (so coordinated waves move forward).
            let mut force = [0f64; BODIES];
            for i in 0..BODIES - 1 {
                let ext = pos[i + 1] - pos[i] - 0.5;
                let k = 8.0;
                force[i] += k * ext;
                force[i + 1] -= k * ext;
            }
            for i in 0..BODIES {
                force[i] += act[i] * 2.0;
                // Anisotropic friction.
                let fr = if vel[i] < 0.0 { 3.0 } else { 0.4 };
                force[i] -= fr * vel[i];
            }
            for i in 0..BODIES {
                vel[i] += dt * force[i];
                pos[i] += dt * vel[i];
            }
            let ctrl_cost: f64 = act.iter().map(|a| a * a).sum::<f64>() * 0.01;
            reward += vel.iter().sum::<f64>() / BODIES as f64 * dt - ctrl_cost;
        }
        -reward // minimise
    };
    RealWorldTask {
        name: "Cheetah102".into(),
        bounds: Bounds::cube(102, -1.0, 1.0),
        f: Box::new(f),
    }
}

/// The four real-world-style tasks.
pub fn all_tasks() -> Vec<RealWorldTask> {
    vec![robot_push(), rover_trajectory(), cheetah_like(), lasso_dna()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_rt::rng::StdRng;
    use citroen_rt::rng::{Rng, SeedableRng};

    #[test]
    fn tasks_have_expected_dims() {
        let t = all_tasks();
        assert_eq!(t[0].bounds.dim(), 14);
        assert_eq!(t[1].bounds.dim(), 60);
        assert_eq!(t[2].bounds.dim(), 102);
        assert_eq!(t[3].bounds.dim(), 180);
    }

    #[test]
    fn objectives_are_deterministic_and_vary() {
        // Seed chosen for the in-tree rng stream: RobotPush14's objective is
        // constant on "miss" configurations, so the probe points must not
        // both land on that plateau.
        let mut rng = StdRng::seed_from_u64(2);
        for t in all_tasks() {
            let d = t.bounds.dim();
            let x1: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
            let p1 = t.bounds.from_unit(&x1);
            let a = (t.f)(&p1);
            let b = (t.f)(&p1);
            assert_eq!(a, b, "{} must be deterministic", t.name);
            let x2: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
            let c = (t.f)(&t.bounds.from_unit(&x2));
            assert_ne!(a, c, "{} must vary with input", t.name);
        }
    }

    #[test]
    fn push_rewards_hitting_objects() {
        let t = robot_push();
        // A miss: hands parked in corners pushing nowhere.
        let miss = vec![0.0; 14];
        let f_miss = (t.f)(&miss);
        // A decent push: hand 0 starts left of object 0, pushes toward goal 0.
        let mut hit = vec![0.0; 14];
        hit[0] = 0.15; // sx
        hit[1] = 0.47; // sy
        hit[2] = 0.9; // dx (→ right)
        hit[3] = 0.37; // dy (↓ slightly)
        hit[4] = 0.6; // distance
        hit[5] = 0.5; // radius
        let f_hit = (t.f)(&hit);
        assert!(f_hit < f_miss, "hit {f_hit} should beat miss {f_miss}");
    }

    #[test]
    fn cheetah_rewards_movement() {
        let t = cheetah_like();
        let idle = vec![0.0; 102];
        let f_idle = (t.f)(&idle);
        // Some sinusoid-coupled policy should do better than idle for at
        // least one of a few probes.
        let mut best = f64::INFINITY;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let w: Vec<f64> = (0..102).map(|_| rng.gen_range(-0.5..0.5)).collect();
            best = best.min((t.f)(&w));
        }
        assert!(best < f_idle, "some random policy should beat idle ({best} vs {f_idle})");
    }
}
