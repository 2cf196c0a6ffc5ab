//! Rank-1 update (`dger` equivalent) and column scaling — the BLAS2
//! building blocks of unblocked Gaussian elimination.

use ca_matrix::{max_abs, max_abs_lanes, MatViewMut, Scalar};

/// `A := A + alpha * x * yᵀ` where `x` has `A.nrows()` and `y` has
/// `A.ncols()` elements.
///
/// # Panics
/// If the vector lengths do not match `A`'s shape.
pub fn ger<T: Scalar>(alpha: T, x: &[T], y: &[T], mut a: MatViewMut<'_, T>) {
    assert_eq!(x.len(), a.nrows(), "x length must equal row count");
    assert_eq!(y.len(), a.ncols(), "y length must equal column count");
    for (j, &yj) in y.iter().enumerate() {
        let s = alpha * yj;
        if s != T::ZERO {
            let col = a.col_mut(j);
            for (ci, &xi) in col.iter_mut().zip(x) {
                *ci += s * xi;
            }
        }
    }
}

/// `x := alpha * x` over a column slice.
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x {
        *v *= alpha;
    }
}

/// Index of the element of maximum absolute value (`idamax`), or `None` for
/// an empty slice. The first of equal maxima wins; NaN entries are skipped
/// unless every entry is NaN, in which case index 0 is returned.
pub fn iamax<T: Scalar>(x: &[T]) -> Option<usize> {
    const CHUNK: usize = 256;
    let mut best = (-T::ONE, 0);
    for (c, chunk) in x.chunks(CHUNK).enumerate() {
        fold_first_max(&mut best, c * CHUNK, chunk);
    }
    (!x.is_empty()).then_some(best.1)
}

/// Folds `chunk`, whose first element has index `at`, into the running
/// `(|value|, index)` of [`iamax`] (start it at `(-1, 0)`): a vectorised
/// maximum per chunk, and a search for its position only in the few chunks
/// that raise the running maximum — out of line, so the search costs the
/// caller's loop neither registers nor code.
#[inline(always)]
pub(crate) fn fold_first_max<T: Scalar>(best: &mut (T, usize), at: usize, chunk: &[T]) {
    if max_abs_lanes(chunk).iter().any(|&lane| lane > best.0) {
        raise_first_max(best, at, chunk);
    }
}

#[cold]
#[inline(never)]
fn raise_first_max<T: Scalar>(best: &mut (T, usize), at: usize, chunk: &[T]) {
    let m = max_abs(chunk);
    // `None` only for an all-NaN chunk, whose `m` is the 0 floor.
    if let Some(i) = position_of(chunk, m) {
        *best = (m, at + i);
    }
}

/// [`iamax`] of a slice (`0` for an empty or all-NaN one) in one search,
/// inlined into the caller: [`max_abs`], then [`position_of`] it.
#[inline(always)]
pub(crate) fn first_max<T: Scalar>(x: &[T]) -> usize {
    position_of(x, max_abs(x)).unwrap_or(0)
}

/// The first position of `x` whose `|x|` is `m`, eight elements at a time.
#[inline(always)]
fn position_of<T: Scalar>(x: &[T], m: T) -> Option<usize> {
    let hit = |v: &T| v.abs() == m;
    let (chunks, _) = x.as_chunks::<8>();
    let c = chunks.iter().position(|c| c.iter().any(hit)).unwrap_or(chunks.len());
    x[8 * c..].iter().position(hit).map(|i| 8 * c + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::Matrix;

    #[test]
    fn ger_matches_outer_product() {
        let mut a = Matrix::zeros(3, 2);
        ger(2.0, &[1.0, 2.0, 3.0], &[10.0, 20.0], a.view_mut());
        assert_eq!(a, Matrix::from_rows(3, 2, &[20.0, 40.0, 40.0, 80.0, 60.0, 120.0]));
    }

    #[test]
    fn ger_accumulates() {
        let mut a = Matrix::identity(2);
        ger(1.0, &[1.0, 1.0], &[1.0, 1.0], a.view_mut());
        assert_eq!(a, Matrix::from_rows(2, 2, &[2.0, 1.0, 1.0, 2.0]));
    }

    #[test]
    fn iamax_finds_largest_magnitude() {
        assert_eq!(iamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(iamax(&[0.0, 0.0]), Some(0));
        assert_eq!(iamax::<f64>(&[]), None);
        // NaN never beats a real maximum.
        assert_eq!(iamax(&[1.0, f64::NAN, 3.0]), Some(2));
        // Same semantics in f32.
        assert_eq!(iamax(&[1.0f32, f32::NAN, -3.0]), Some(2));
    }

    #[test]
    fn iamax_first_maximum_wins_across_chunks_and_nan_is_skipped() {
        // Longer than two chunks; the maximum appears in the first and the
        // third, a larger negative one only in the second.
        let mut x = vec![0.25f64; 700];
        (x[3], x[600]) = (7.0, 7.0);
        assert_eq!(iamax(&x), Some(3));
        x[300] = -9.0;
        x[301] = 9.0;
        assert_eq!(iamax(&x), Some(300));
        // All NaN: index 0; NaN then zeros: the first zero.
        assert_eq!(iamax(&[f64::NAN; 300]), Some(0));
        let mut y = vec![f64::NAN; 300];
        (y[270], y[299]) = (0.0, -0.0);
        assert_eq!(iamax(&y), Some(270));
        // Against the plain loop on a random column with ties.
        let r = ca_matrix::random_uniform(1000, 1, &mut ca_matrix::seeded_rng(3));
        let v: Vec<f64> = r.as_slice().iter().map(|v| (v * 20.0).round()).collect();
        let plain = (0..v.len()).fold(0, |b, i| if v[i].abs() > v[b].abs() { i } else { b });
        assert_eq!(iamax(&v), Some(plain));
    }

    #[test]
    fn scal_scales_in_place() {
        let mut x = vec![1.0, -2.0, 4.0];
        scal(0.5, &mut x);
        assert_eq!(x, vec![0.5, -1.0, 2.0]);
    }
}
