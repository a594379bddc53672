//! Small dense linear-algebra routines needed by the PCA baseline:
//! modified Gram–Schmidt orthonormalization and a Jacobi eigensolver for
//! small symmetric matrices, plus the digamma function used by LDA's
//! variational updates.

use crate::Matrix;

/// Orthonormalizes the columns of `a` (n × k, k ≤ n) in place via modified
/// Gram–Schmidt. Columns that become numerically zero are re-seeded from the
/// identity-ish basis to keep Q full rank.
pub fn gram_schmidt_columns(a: &mut Matrix) {
    let (n, k) = a.shape();
    assert!(k <= n, "need at least as many rows as columns");
    for j in 0..k {
        let orig_norm = (0..n).map(|r| a.get(r, j) * a.get(r, j)).sum::<f32>().sqrt();
        // Subtract projections onto previous columns.
        for p in 0..j {
            let mut dot = 0.0f32;
            for r in 0..n {
                dot += a.get(r, j) * a.get(r, p);
            }
            for r in 0..n {
                let v = a.get(r, j) - dot * a.get(r, p);
                a.set(r, j, v);
            }
        }
        let mut norm = 0.0f32;
        for r in 0..n {
            norm += a.get(r, j) * a.get(r, j);
        }
        let mut norm = norm.sqrt();
        // Relative threshold: f32 cancellation in the projections leaves
        // residuals around 1e-7·‖col‖, which must count as "zero".
        if norm < 1e-4 * orig_norm.max(1e-6) {
            // Degenerate column: replace with a canonical vector and redo
            // the projections once.
            for r in 0..n {
                a.set(r, j, if r == j { 1.0 } else { 0.0 });
            }
            for p in 0..j {
                let mut dot = 0.0f32;
                for r in 0..n {
                    dot += a.get(r, j) * a.get(r, p);
                }
                for r in 0..n {
                    let v = a.get(r, j) - dot * a.get(r, p);
                    a.set(r, j, v);
                }
            }
            norm = (0..n).map(|r| a.get(r, j) * a.get(r, j)).sum::<f32>().sqrt().max(1e-8);
        }
        let inv = 1.0 / norm;
        for r in 0..n {
            a.set(r, j, a.get(r, j) * inv);
        }
    }
}

/// Eigendecomposition of a small symmetric matrix via cyclic Jacobi
/// rotations. Returns `(eigenvalues, eigenvectors)` sorted by decreasing
/// eigenvalue; eigenvectors are the *columns* of the returned matrix.
pub fn jacobi_eigen(sym: &Matrix) -> (Vec<f32>, Matrix) {
    let n = sym.rows();
    assert_eq!(sym.cols(), n, "matrix must be square");
    let mut a = sym.clone();
    let mut v = Matrix::identity(n);
    for _sweep in 0..100 {
        // Largest off-diagonal magnitude decides convergence.
        let mut off = 0.0f32;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(a.get(i, j).abs());
            }
        }
        if off < 1e-9 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-12 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q of A.
                for i in 0..n {
                    let aip = a.get(i, p);
                    let aiq = a.get(i, q);
                    a.set(i, p, c * aip - s * aiq);
                    a.set(i, q, s * aip + c * aiq);
                }
                for i in 0..n {
                    let api = a.get(p, i);
                    let aqi = a.get(q, i);
                    a.set(p, i, c * api - s * aqi);
                    a.set(q, i, s * api + c * aqi);
                }
                // Accumulate rotations into V.
                for i in 0..n {
                    let vip = v.get(i, p);
                    let viq = v.get(i, q);
                    v.set(i, p, c * vip - s * viq);
                    v.set(i, q, s * vip + c * viq);
                }
            }
        }
    }
    let mut pairs: Vec<(f32, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
    let eigvals: Vec<f32> = pairs.iter().map(|&(l, _)| l).collect();
    let mut eigvecs = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            eigvecs.set(r, new_col, v.get(r, old_col));
        }
    }
    (eigvals, eigvecs)
}

/// Digamma function ψ(x) for x > 0 (recurrence + asymptotic series), used by
/// LDA's variational E-step `E[log θ_t] = ψ(γ_t) − ψ(Σ γ)`.
pub fn digamma(mut x: f32) -> f32 {
    assert!(x > 0.0, "digamma defined for positive arguments here");
    let mut result = 0.0f64;
    let mut xd = x as f64;
    while xd < 6.0 {
        result -= 1.0 / xd;
        xd += 1.0;
    }
    x = xd as f32;
    let _ = x;
    let inv = 1.0 / xd;
    let inv2 = inv * inv;
    result += xd.ln() - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0));
    result as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gram_schmidt_produces_orthonormal_columns() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Matrix::glorot_uniform(10, 4, &mut rng);
        gram_schmidt_columns(&mut a);
        for i in 0..4 {
            for j in 0..4 {
                let mut dot = 0.0f32;
                for r in 0..10 {
                    dot += a.get(r, i) * a.get(r, j);
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-4, "({i},{j}): {dot}");
            }
        }
    }

    #[test]
    fn gram_schmidt_handles_dependent_columns() {
        // Second column is a multiple of the first.
        let mut a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        gram_schmidt_columns(&mut a);
        let mut dot = 0.0;
        for r in 0..3 {
            dot += a.get(r, 0) * a.get(r, 1);
        }
        assert!(dot.abs() < 1e-4);
    }

    #[test]
    fn jacobi_diagonal_matrix_is_trivial() {
        let mut d = Matrix::zeros(3, 3);
        d.set(0, 0, 3.0);
        d.set(1, 1, 1.0);
        d.set(2, 2, 2.0);
        let (vals, _) = jacobi_eigen(&d);
        assert!((vals[0] - 3.0).abs() < 1e-5);
        assert!((vals[1] - 2.0).abs() < 1e-5);
        assert!((vals[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn jacobi_reconstructs_symmetric_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Matrix::glorot_uniform(5, 5, &mut rng);
        // A = B·Bᵀ is symmetric PSD.
        let a = b.matmul_transb(&b);
        let (vals, vecs) = jacobi_eigen(&a);
        // Check A·v = λ·v for the top eigenpair.
        let v0: Vec<f32> = (0..5).map(|r| vecs.get(r, 0)).collect();
        let av = a.matmul(&Matrix::from_vec(5, 1, v0.clone()));
        for (x, &vi) in av.as_slice().iter().zip(v0.iter()) {
            assert!((x - vals[0] * vi).abs() < 1e-3, "{x} vs {}", vals[0] * vi);
        }
        // Eigenvalues of a PSD matrix are non-negative (tolerate roundoff).
        assert!(vals.iter().all(|&l| l > -1e-4));
    }

    #[test]
    fn digamma_matches_known_values() {
        // ψ(1) = −γ, ψ(0.5) = −γ − 2 ln 2.
        let gamma = 0.577_215_7_f32;
        assert!((digamma(1.0) + gamma).abs() < 1e-4);
        assert!((digamma(0.5) + gamma + 2.0 * std::f32::consts::LN_2).abs() < 1e-4);
        // Recurrence ψ(x+1) = ψ(x) + 1/x.
        for &x in &[0.3f32, 1.7, 5.5, 20.0] {
            assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-4);
        }
    }
}
