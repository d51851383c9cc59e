//! Minimal dense linear algebra: row-major matrices, Cholesky factorisation
//! with adaptive jitter, and triangular solves. Everything the GP needs,
//! nothing more.

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Build from row-major data.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Mat {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        assert!(rows.iter().all(|x| x.len() == c), "ragged rows");
        Mat { rows: r, cols: c, data: rows.into_iter().flatten().collect() }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Append a row.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }
}

/// Cholesky factorisation `A = L Lᵀ` (lower-triangular `L`). Adds increasing
/// diagonal jitter on failure, up to `1e-4 · mean(diag)`.
pub fn cholesky(a: &Mat) -> Result<Mat, &'static str> {
    assert_eq!(a.rows, a.cols);
    let n = a.rows;
    let mean_diag: f64 = (0..n).map(|i| a.get(i, i)).sum::<f64>() / n.max(1) as f64;
    let mut jitter = 0.0;
    for attempt in 0..6 {
        match try_cholesky(a, jitter) {
            Some(l) => return Ok(l),
            None => {
                jitter = mean_diag.abs().max(1e-12) * 1e-10 * 10f64.powi(attempt * 2);
            }
        }
    }
    Err("matrix not positive definite even with jitter")
}

fn try_cholesky(a: &Mat, jitter: f64) -> Option<Mat> {
    let n = a.rows;
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j) + if i == j { jitter } else { 0.0 };
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Some(l)
}

/// Solve `L x = b` (forward substitution, `L` lower-triangular).
pub fn solve_lower(l: &Mat, b: &[f64]) -> Vec<f64> {
    let n = l.rows;
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l.get(i, k) * x[k];
        }
        x[i] = s / l.get(i, i);
    }
    x
}

/// Solve `Lᵀ x = b` (backward substitution).
pub fn solve_lower_t(l: &Mat, b: &[f64]) -> Vec<f64> {
    let n = l.rows;
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in i + 1..n {
            s -= l.get(k, i) * x[k];
        }
        x[i] = s / l.get(i, i);
    }
    x
}

/// Solve `A x = b` given the Cholesky factor of `A`.
pub fn chol_solve(l: &Mat, b: &[f64]) -> Vec<f64> {
    solve_lower_t(l, &solve_lower(l, b))
}

/// Compute `A⁻¹` given the Cholesky factor of `A`: column `j` is
/// `chol_solve(l, eⱼ)`, bit for bit. Columns are solved eight at a time
/// with their operations interleaved, so the dependent subtractions of one
/// column's substitution overlap with its neighbours' instead of waiting on
/// each other; each column still runs exactly the operations of its own
/// solve, in the same order.
pub fn chol_inverse(l: &Mat) -> Mat {
    const B: usize = 8;
    let n = l.rows;
    let mut inv = Mat::zeros(n, n);
    // `x[k*B + c]`: element k of the block's column c, first the forward
    // solution, then (in place) the backward one.
    let mut x = vec![0.0; n * B];
    for j0 in (0..n).step_by(B) {
        // Forward substitution, L y = e_j.
        for i in 0..n {
            let mut s = [0.0; B];
            if (j0..j0 + B).contains(&i) {
                s[i - j0] = 1.0;
            }
            let (done, rest) = x.split_at_mut(i * B);
            for (k, xk) in done.chunks_exact(B).enumerate() {
                let lik = l.get(i, k);
                for c in 0..B {
                    s[c] -= lik * xk[c];
                }
            }
            let lii = l.get(i, i);
            for c in 0..B {
                rest[c] = s[c] / lii;
            }
        }
        // Backward substitution, Lᵀ x = y.
        for i in (0..n).rev() {
            let (head, done) = x.split_at_mut((i + 1) * B);
            let xi = &mut head[i * B..];
            let mut s = [0.0; B];
            s.copy_from_slice(xi);
            for (k, xk) in done.chunks_exact(B).enumerate() {
                let lki = l.get(i + 1 + k, i);
                for c in 0..B {
                    s[c] -= lki * xk[c];
                }
            }
            let lii = l.get(i, i);
            for c in 0..B {
                xi[c] = s[c] / lii;
            }
        }
        for c in 0..B.min(n - j0) {
            for i in 0..n {
                inv.set(i, j0 + c, x[i * B + c]);
            }
        }
    }
    inv
}

/// Log-determinant of `A` from its Cholesky factor: `2 Σ ln L_ii`.
pub fn chol_logdet(l: &Mat) -> f64 {
    (0..l.rows).map(|i| l.get(i, i).ln()).sum::<f64>() * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Mat {
        // A = M Mᵀ + I for a fixed M — guaranteed SPD.
        let m = Mat::from_rows(vec![
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.5, -0.3],
            vec![0.7, -0.2, 2.0],
        ]);
        Mat::from_fn(3, 3, |i, j| {
            (0..3).map(|k| m.get(i, k) * m.get(j, k)).sum::<f64>() + if i == j { 1.0 } else { 0.0 }
        })
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let r: f64 = (0..3).map(|k| l.get(i, k) * l.get(j, k)).sum();
                assert!((r - a.get(i, j)).abs() < 1e-10, "({i},{j}): {r} vs {}", a.get(i, j));
            }
        }
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = chol_solve(&l, &b);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_and_logdet() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let inv = chol_inverse(&l);
        // A · A⁻¹ = I
        for i in 0..3 {
            for j in 0..3 {
                let v: f64 = (0..3).map(|k| a.get(i, k) * inv.get(k, j)).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-9);
            }
        }
        // logdet matches the product of eigen-free computation via L
        let ld = chol_logdet(&l);
        assert!(ld.is_finite());
    }

    #[test]
    fn inverse_columns_are_the_solves_bit_for_bit() {
        // 11 columns: one full block of eight plus a partial one.
        let n = 11;
        let m = Mat::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 1.7);
        let a = Mat::from_fn(n, n, |i, j| {
            (0..n).map(|k| m.get(i, k) * m.get(j, k)).sum::<f64>() + if i == j { 0.5 } else { 0.0 }
        });
        let l = cholesky(&a).unwrap();
        let inv = chol_inverse(&l);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = chol_solve(&l, &e);
            for (i, c) in col.iter().enumerate() {
                assert_eq!(inv.get(i, j).to_bits(), c.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-deficient PSD matrix: ones * onesᵀ.
        let a = Mat::from_fn(4, 4, |_, _| 1.0);
        let l = cholesky(&a).expect("jitter should rescue");
        assert!(l.get(3, 3) > 0.0);
    }

    #[test]
    fn matvec_and_push_row() {
        let mut m = Mat::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        m.push_row(&[5.0, 6.0]);
        assert_eq!(m.rows, 3);
        assert_eq!(m.row(2), &[5.0, 6.0]);
    }
}
