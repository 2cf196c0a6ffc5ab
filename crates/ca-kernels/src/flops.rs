//! Floating-point operation counts for each kernel class.
//!
//! Used twice: by the benchmark harness to convert measured times into
//! GFlop/s using the *useful* flop count (the LAPACK convention — both MKL
//! and the paper report `GFlops = flops_LAPACK / time`), and by the
//! multicore simulator to assign costs to tasks (there the *actual* flops
//! performed matter, including CA redundancy).

/// Flops of `C += A·B` with `C` being `m × n` and inner dimension `k`.
///
/// Packing on the BLIS-style path moves data but performs no arithmetic:
/// the copies are charged in [`crate::traffic::gemm`], never here, so
/// GFlop/s stays the LAPACK useful-flops convention.
pub fn gemm(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Flops of a triangular solve with an `n × n` triangle and `m` RHS rows
/// (side = right: `B(m×n) := B·T⁻¹`).
pub fn trsm_right(m: usize, n: usize) -> f64 {
    m as f64 * (n as f64) * (n as f64)
}

/// Flops of a triangular solve with an `m × m` triangle applied from the
/// left to an `m × n` block.
pub fn trsm_left(m: usize, n: usize) -> f64 {
    n as f64 * (m as f64) * (m as f64)
}

/// Flops of LU with partial pivoting of an `m × n` matrix (`m ≥ n`):
/// `n²(m − n/3)` — the LAPACK `dgetrf` operation count
/// (`(2/3)n³` when square).
pub fn getrf(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    n * n * (m - n / 3.0)
}

/// Flops of Householder QR of an `m × n` matrix (`m ≥ n`):
/// `2n²(m − n/3)` — the LAPACK `dgeqrf` count (`(4/3)n³` when square).
pub fn geqrf(m: usize, n: usize) -> f64 {
    2.0 * getrf(m, n)
}

/// Flops of applying a `k`-reflector compact-WY block to an `m × n` block
/// (`dlarfb`): `4mnk` to leading order (two gemm-like sweeps), plus the
/// small `k²n` triangular multiply.
pub fn larfb(m: usize, n: usize, k: usize) -> f64 {
    4.0 * m as f64 * n as f64 * k as f64 + (k * k) as f64 * n as f64
}

/// Stored entries of an `r × k` upper trapezoid (`A[i, j] = 0` for `i > j`).
pub fn upper_trapezoid_len(r: usize, k: usize) -> usize {
    (0..k).map(|j| (j + 1).min(r)).sum()
}

/// Flops of the structured tree-node application
/// ([`crate::larfb_left_multi`] with an identity top block) onto `n`
/// columns: two sweeps over the `v_len` stored entries of the lower blocks
/// of `V` (`r·k` for a dense `r × k` block, [`upper_trapezoid_len`] for a
/// triangle-on-triangle node) plus the `k²n` multiply by `T`. A node of two
/// `k × k` triangles comes to `≈3k²n`, against [`larfb`]'s dense `9k²n`.
pub fn larfb_node(v_len: usize, n: usize, k: usize) -> f64 {
    (4 * v_len + k * k) as f64 * n as f64
}

/// Flops of `dtstrf` as implemented here (dense GEPP of the stacked
/// `(b + r) × b` pair).
pub fn tstrf(r: usize, b: usize) -> f64 {
    getrf(b + r, b)
}

/// Flops of `dssssm`: pair interchange (free), `b × w` triangular solve and
/// an `r × w × b` gemm.
pub fn ssssm(r: usize, b: usize, w: usize) -> f64 {
    trsm_left(b, w) + gemm(r, w, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_counts_match_classics() {
        let n = 1000usize;
        assert!((getrf(n, n) - 2.0 / 3.0 * 1e9).abs() < 1e6);
        assert!((geqrf(n, n) - 4.0 / 3.0 * 1e9).abs() < 1e6);
    }

    #[test]
    fn node_application_skips_the_known_zeros() {
        let (k, n) = (64, 100);
        // Two stacked k x k triangles: ~3k²n, a third of the dense count.
        let node = larfb_node(upper_trapezoid_len(k, k), n, k);
        let ratio = node / larfb(2 * k, n, k);
        assert!(ratio > 0.33 && ratio < 0.35, "ratio {ratio}");
        // A short last participant holds fewer entries still.
        assert_eq!(upper_trapezoid_len(2, 4), 1 + 2 + 2 + 2);
    }

    #[test]
    fn gemm_count() {
        assert_eq!(gemm(2, 3, 4), 48.0);
    }
}
