//! Row permutations in the two representations LAPACK-style factorizations
//! need: pivot sequences (`ipiv`, as produced by partial pivoting) and
//! explicit permutation vectors.

use crate::scalar::Scalar;
use crate::view::MatViewMut;

/// A sequence of row interchanges, LAPACK `ipiv`-style but 0-based:
/// step `k` swaps row `offset + k` with row `ipiv[k]` (global indices).
///
/// Applying the sequence in order reproduces exactly the permutation a
/// pivoted factorization performed; applying it in reverse order undoes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PivotSeq {
    /// Global row index swapped with row `offset + k` at step `k`.
    pub ipiv: Vec<usize>,
    /// Global row index of the first pivot position.
    pub offset: usize,
}

impl PivotSeq {
    /// Empty sequence starting at `offset`.
    pub fn new(offset: usize) -> Self {
        Self { ipiv: Vec::new(), offset }
    }

    /// Number of interchanges.
    pub fn len(&self) -> usize {
        self.ipiv.len()
    }

    /// `true` if there are no interchanges.
    pub fn is_empty(&self) -> bool {
        self.ipiv.is_empty()
    }

    /// Records that step `k = len()` swaps row `offset + len()` with `row`.
    pub fn push(&mut self, row: usize) {
        debug_assert!(
            row >= self.offset + self.ipiv.len(),
            "pivot row must not precede its position"
        );
        self.ipiv.push(row);
    }

    /// Applies the interchanges, in order, to the rows of `a` ([`laswp`]).
    ///
    /// `a` must be a view whose row `0` corresponds to global row `0`
    /// (i.e. a full-height block of the matrix being factored).
    pub fn apply<T: Scalar>(&self, a: MatViewMut<'_, T>) {
        laswp(a, self.ipiv.iter().enumerate().map(|(k, &p)| (self.offset + k, p)));
    }

    /// Applies the interchanges in reverse order (the inverse permutation).
    pub fn apply_inverse<T: Scalar>(&self, a: MatViewMut<'_, T>) {
        laswp(a, self.ipiv.iter().enumerate().rev().map(|(k, &p)| (self.offset + k, p)));
    }

    /// Composes into an explicit permutation `perm` of `0..m`:
    /// after the call, `perm[i]` is the original index of the row that ends
    /// up at position `i` when the interchanges are applied to `0..m`.
    pub fn to_permutation(&self, m: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..m).collect();
        for (k, &p) in self.ipiv.iter().enumerate() {
            perm.swap(self.offset + k, p);
        }
        perm
    }

    /// Appends another sequence whose offset continues this one.
    pub fn extend(&mut self, other: &PivotSeq) {
        debug_assert_eq!(
            other.offset,
            self.offset + self.ipiv.len(),
            "pivot sequences must be contiguous"
        );
        self.ipiv.extend_from_slice(&other.ipiv);
    }
}

/// Swaps row `r` with row `p` of `a` for each `(r, p)` of `swaps`, in order,
/// over every column — LAPACK's `dlaswp`. Like it, walks the columns rather
/// than the rows, so a column block touches only its own columns' pages;
/// four columns at a time, so that their swaps overlap.
pub fn laswp<T: Scalar>(
    mut a: MatViewMut<'_, T>,
    swaps: impl Iterator<Item = (usize, usize)> + Clone,
) {
    let n = a.ncols();
    let mut j = 0;
    while j + 4 <= n {
        let (c0, rest) = a.sub(0, j, a.nrows(), 4).split_at_col(1);
        let (c1, rest) = rest.split_at_col(1);
        let (c2, c3) = rest.split_at_col(1);
        let mut cols = [c0, c1, c2, c3];
        let [c0, c1, c2, c3] = cols.each_mut().map(|c| c.col_mut(0));
        for (r, p) in swaps.clone() {
            c0.swap(r, p);
            c1.swap(r, p);
            c2.swap(r, p);
            c3.swap(r, p);
        }
        j += 4;
    }
    for j in j..n {
        let col = a.col_mut(j);
        for (r, p) in swaps.clone() {
            col.swap(r, p);
        }
    }
}

/// Applies an explicit permutation to the rows of a matrix view:
/// row `i` of the result is row `perm[i]` of the input.
///
/// Allocates a scratch column; use on full-height views.
pub fn permute_rows<T: Scalar>(perm: &[usize], mut a: MatViewMut<'_, T>) {
    assert_eq!(perm.len(), a.nrows(), "permutation length must match row count");
    let mut scratch = vec![T::ZERO; a.nrows()];
    for j in 0..a.ncols() {
        let col = a.col_mut(j);
        for (i, &p) in perm.iter().enumerate() {
            scratch[i] = col[p];
        }
        col.copy_from_slice(&scratch);
    }
}

/// Checks that `perm` is a permutation of `0..perm.len()`.
pub fn is_permutation(perm: &[usize]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p >= perm.len() || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Inverts an explicit permutation.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn pivot_seq_apply_and_inverse_cancel() {
        let mut a = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let orig = a.clone();
        let mut ps = PivotSeq::new(0);
        ps.push(3);
        ps.push(1);
        ps.push(4);
        ps.apply(a.view_mut());
        assert_ne!(a, orig);
        ps.apply_inverse(a.view_mut());
        assert_eq!(a, orig);
    }

    #[test]
    fn to_permutation_matches_apply() {
        let m = 6;
        let mut ps = PivotSeq::new(1);
        ps.push(4);
        ps.push(2);
        ps.push(5);
        let perm = ps.to_permutation(m);
        assert!(is_permutation(&perm));

        let mut a = Matrix::from_fn(m, 1, |i, _| i as f64);
        ps.apply(a.view_mut());
        for i in 0..m {
            assert_eq!(a[(i, 0)], perm[i] as f64);
        }
    }

    #[test]
    fn permute_rows_matches_permutation_semantics() {
        let a0 = Matrix::from_fn(4, 3, |i, j| (10 * i + j) as f64);
        let mut a = a0.clone();
        let perm = vec![2, 0, 3, 1];
        permute_rows(&perm, a.view_mut());
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(a[(i, j)], a0[(perm[i], j)]);
            }
        }
    }

    #[test]
    fn invert_permutation_is_inverse() {
        let perm = vec![3, 1, 4, 0, 2];
        let inv = invert_permutation(&perm);
        for i in 0..perm.len() {
            assert_eq!(inv[perm[i]], i);
            assert_eq!(perm[inv[i]], i);
        }
    }

    #[test]
    fn is_permutation_rejects_bad_input() {
        assert!(is_permutation(&[0, 1, 2]));
        assert!(is_permutation(&[]));
        assert!(!is_permutation(&[0, 0, 2]));
        assert!(!is_permutation(&[0, 3]));
    }

    #[test]
    fn extend_concatenates_contiguous_sequences() {
        let mut p1 = PivotSeq::new(0);
        p1.push(2);
        p1.push(3);
        let mut p2 = PivotSeq::new(2);
        p2.push(4);
        p1.extend(&p2);
        assert_eq!(p1.len(), 3);
        assert_eq!(p1.ipiv, vec![2, 3, 4]);
    }
}
