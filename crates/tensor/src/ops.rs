//! Vector kernels shared by every model in the workspace.
//!
//! All functions operate on plain slices so they compose with both [`crate::Matrix`]
//! rows and ad-hoc buffers without copies.

/// Dot product of two equal-length slices.
///
/// Routed through the [`crate::simd`] dispatch: the scalar reference runs
/// `chunks_exact(8)` with eight independent partial sums (breaking the
/// loop-carried add dependency), the AVX2 backend uses a wider FMA
/// accumulator tree. Callers that dot many rows against the same vector
/// should hoist `(crate::simd::active().dot)` out of the loop.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    (crate::simd::active().dot)(a, b)
}

/// `y += alpha * x`, routed through the [`crate::simd`] dispatch.
///
/// There is no loop-carried dependency (each `y[i]` is independent), so the
/// scalar reference is a plain loop the compiler already vectorizes; the
/// AVX2 backend mainly buys explicit FMA contraction.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    (crate::simd::active().axpy)(alpha, x, y)
}

/// `y *= alpha` in place. Element-wise with no dependency chain; see
/// [`axpy`] for why it needs no manual unrolling.
#[inline]
pub fn scale(alpha: f32, y: &mut [f32]) {
    y.iter_mut().for_each(|v| *v *= alpha);
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two vectors.
#[inline]
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Normalizes `a` to unit L2 norm in place; leaves the zero vector untouched.
pub fn l2_normalize(a: &mut [f32]) {
    let n = l2_norm(a);
    if n > 0.0 {
        scale(1.0 / n, a);
    }
}

/// Cosine similarity; 0 when either vector is zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Numerically stable in-place softmax.
pub fn softmax_in_place(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in logits.iter_mut() {
        *v *= inv;
    }
}

/// Numerically stable in-place log-softmax.
pub fn log_softmax_in_place(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum = logits.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
    for v in logits.iter_mut() {
        *v -= log_sum;
    }
}

/// Total-order comparator for descending score sorts (best first) that
/// ranks NaN strictly worse than every real score, so a broken score sinks
/// to the end of a ranked list. The common
/// `partial_cmp(..).unwrap_or(Equal)` idiom instead makes NaN compare equal
/// to *everything*, which strands it at an arbitrary position — and with
/// `total_cmp` alone, positive NaN sorts *first* in a descending sort.
#[inline]
pub fn nan_last_desc(a: f32, b: f32) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// The same total order as [`nan_last_desc`], ascending (worst score
/// first): NaN sorts before every real score.
#[inline]
pub fn nan_first_asc(a: f32, b: f32) -> std::cmp::Ordering {
    nan_last_desc(b, a)
}

/// Index of the largest element; `None` for an empty slice.
pub fn argmax(a: &[f32]) -> Option<usize> {
    a.iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
}

/// Mean of a slice; 0 for an empty slice.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population variance of a slice; 0 for slices shorter than 2.
pub fn variance(a: &[f32]) -> f32 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / a.len() as f32
}

/// Sigmoid with clamping to avoid overflow in `exp`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let x = x.clamp(-30.0, 30.0);
    1.0 / (1.0 + (-x).exp())
}

/// `log(sigmoid(x))` computed stably.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    // log σ(x) = -log(1 + e^{-x}) = -softplus(-x)
    -softplus(-x)
}

/// Numerically stable softplus `log(1 + e^x)`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Returns the indices of the `k` largest values in `scores`, in descending
/// score order. Uses `select_nth_unstable` to avoid a full sort — the recall
/// path of the look-alike system calls this over the whole account catalogue.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    if k < scores.len() {
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
    }
    idx.sort_unstable_by(|&a, &b| {
        scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal)
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        l2_normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_similarity_bounds() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![101.0, 102.0, 103.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut a = vec![1000.0, 0.0, -1000.0];
        softmax_in_place(&mut a);
        assert!(a.iter().all(|v| v.is_finite()));
        assert!((a[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = vec![0.5, -1.0, 2.0, 0.0];
        let mut sm = logits.clone();
        softmax_in_place(&mut sm);
        let mut lsm = logits.clone();
        log_softmax_in_place(&mut lsm);
        for (l, s) in lsm.iter().zip(sm.iter()) {
            assert!((l - s.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_and_stats() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_sigmoid_consistent_with_sigmoid() {
        for &x in &[-5.0f32, -0.5, 0.0, 0.5, 5.0] {
            assert!((log_sigmoid(x) - sigmoid(x).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn top_k_returns_descending_best() {
        let scores = vec![0.1, 0.9, 0.5, 0.7, 0.2];
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 2]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&scores, 99).len(), 5);
    }

    #[test]
    fn nan_last_desc_sorts_nan_to_the_bottom() {
        let mut v = [f32::NAN, 1.0, f32::NAN, 3.0, 2.0];
        v.sort_by(|a, b| nan_last_desc(*a, *b));
        assert_eq!(&v[..3], &[3.0, 2.0, 1.0]);
        assert!(v[3].is_nan() && v[4].is_nan());
        // Negative NaN must not sneak to the top the way total_cmp alone allows.
        let mut w = [-f32::NAN, 5.0, f32::NAN, -5.0];
        w.sort_by(|a, b| nan_last_desc(*a, *b));
        assert_eq!(&w[..2], &[5.0, -5.0]);
        assert!(w[2].is_nan() && w[3].is_nan());
    }

    #[test]
    fn nan_first_asc_sorts_nan_to_the_top() {
        let mut v = [2.0, f32::NAN, 1.0, 3.0, f32::NAN];
        v.sort_by(|a, b| nan_first_asc(*a, *b));
        assert!(v[0].is_nan() && v[1].is_nan());
        assert_eq!(&v[2..], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn nan_comparators_are_total_orders() {
        // Antisymmetry + consistency over a mixed sample — sort_by panics on
        // comparators violating strict weak ordering, so a full sort is itself
        // the strongest available check; here we verify pairwise reversal.
        let sample = [f32::NAN, -f32::NAN, f32::INFINITY, -1.0, 0.0, 7.5];
        for &a in &sample {
            for &b in &sample {
                assert_eq!(nan_last_desc(a, b), nan_last_desc(b, a).reverse());
                assert_eq!(nan_first_asc(a, b), nan_last_desc(b, a));
            }
        }
    }
}
