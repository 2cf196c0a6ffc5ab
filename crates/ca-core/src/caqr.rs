//! CAQR: communication-avoiding QR.
//!
//! [`caqr_seq`] is the sequential reference (Algorithm 2 in program order);
//! [`caqr`] executes the same task decomposition on the worker pool. Both
//! are generic over the working precision and produce [`QrFactors`]: `R`
//! packed in the matrix plus the TSQR tree's `Q` representation (in-place
//! leaf reflectors + per-node scratch), with `Q`/`Qᵀ` application and
//! thin-`Q` reconstruction.

use crate::dag_caqr::CaqrPlan;
use crate::error::{require_finite, FactorError};
use crate::jobs::try_plan_with;
use crate::params::{num_panels, partition_rows, CaParams};
use crate::tsqr::{eliminate, leaf_qr, panel_apply, plan_panel, NodePlan, PanelQ};
use ca_kernels::{trsm_left_upper_notrans, Kernel, Trans, VRest};
use ca_matrix::{MatViewMut, Matrix, Scalar};
use ca_sched::{run_plan, FactorOptions};

/// The result of a CAQR/TSQR factorization.
#[derive(Debug)]
pub struct QrFactors<T: Scalar = f64> {
    /// Factored matrix: `R` in the upper triangle, leaf Householder vectors
    /// below the diagonal (tree-node reflectors live in [`PanelQ`] scratch;
    /// rows that only a TS node stacked keep their input there).
    pub a: Matrix<T>,
    /// Per-panel `Q` representation, in factorization order.
    pub panels: Vec<PanelQ<T>>,
}

impl<T: Kernel> QrFactors<T> {
    /// The upper-triangular/trapezoidal factor `R` (`min(m,n) × n`).
    pub fn r(&self) -> Matrix<T> {
        self.a.upper()
    }

    /// Applies `Qᵀ` to `c` in place (`c` must have `m` rows).
    pub fn apply_qt(&self, c: &mut Matrix<T>) {
        self.apply(c, Trans::Yes);
    }

    /// Applies `Q` to `c` in place (`c` must have `m` rows).
    pub fn apply_q(&self, c: &mut Matrix<T>) {
        self.apply(c, Trans::No);
    }

    fn apply(&self, c: &mut Matrix<T>, trans: Trans) {
        assert_eq!(c.nrows(), self.a.nrows(), "row count mismatch with Q");
        let one = |p: &PanelQ<T>| panel_apply(1, p, &p.leaf_blocks(&self.a), c.view_mut(), trans);
        match trans {
            Trans::Yes => self.panels.iter().for_each(one),
            Trans::No => self.panels.iter().rev().for_each(one),
        }
    }

    /// The thin orthogonal factor `Q` (`m × min(m,n)`).
    pub fn q_thin(&self) -> Matrix<T> {
        let m = self.a.nrows();
        let k = m.min(self.a.ncols());
        let mut q = Matrix::zeros(m, k);
        for i in 0..k {
            q[(i, i)] = T::ONE;
        }
        self.apply_q(&mut q);
        q
    }

    /// Relative residual `‖A − Q·R‖_F / ‖A‖_F` against the original matrix,
    /// accumulated in `f64` whatever the working precision.
    pub fn residual(&self, a0: &Matrix<T>) -> f64 {
        let q = self.q_thin();
        let r = Matrix::from_fn(q.ncols(), self.a.ncols(), |i, j| {
            if i <= j {
                self.a[(i, j)]
            } else {
                T::ZERO
            }
        });
        ca_matrix::qr_residual(&a0.to_f64(), &q.to_f64(), &r.to_f64())
    }

    /// Orthogonality `‖I − QᵀQ‖_F` of the thin factor (in `f64`).
    pub fn orthogonality(&self) -> f64 {
        ca_matrix::orthogonality(&self.q_thin().to_f64())
    }

    /// Least-squares solve: `x = argmin ‖A·x − rhs‖₂` via `R⁻¹ (Qᵀ rhs)`
    /// (full-column-rank `A`, `m ≥ n`).
    pub fn solve_ls(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let m = self.a.nrows();
        let n = self.a.ncols();
        assert!(m >= n, "least squares needs a tall matrix");
        assert_eq!(rhs.nrows(), m, "rhs row mismatch");
        let mut qtb = rhs.clone();
        self.apply_qt(&mut qtb);
        let mut x = Matrix::from_fn(n, rhs.ncols(), |i, j| qtb[(i, j)]);
        let r = self.a.block(0, 0, n, n);
        let rmat = Matrix::from_fn(n, n, |i, j| if i <= j { r.at(i, j) } else { T::ZERO });
        trsm_left_upper_notrans(rmat.view(), x.view_mut());
        x
    }
}

/// The CAQR panel loop — Algorithm 2 in program order — over a column
/// window: `a` holds every row of columns `d0..d0 + a.ncols()` of the matrix
/// being factored, so the panel at window column `lc` has its diagonal at
/// global row `d0 + lc`. Per panel: leaf QR of each row group, then the
/// reduction tree's nodes, on the calling thread (they touch only the
/// panel's own columns); then the panel's `Qᵀ` — every leaf, then every
/// node — applied to the window columns right of it by [`panel_apply`],
/// one column split over `workers` lanes (the factors are bitwise the same
/// at every count). The panels' `Q` representations are appended to
/// `panels`, with [`PanelQ::c0`] the panel's *global* column.
pub fn caqr_panels<T: Kernel>(
    mut a: MatViewMut<'_, T>,
    d0: usize,
    p: &CaParams,
    workers: usize,
    panels: &mut Vec<PanelQ<T>>,
) {
    let (m, ws) = (a.nrows(), a.ncols());
    let mut lc = 0usize;
    while lc < ws && d0 + lc < m {
        let k0 = d0 + lc;
        let w = p.b.min(ws - lc);
        let part = partition_rows(m, k0, p.b, p.tr);
        let plan = plan_panel(&part, w, p.tree);
        let (left, right) = a.rb().split_at_col(lc + w);
        let mut pan = left.into_sub(0, lc, m, w);
        let leaf = |grp: &usize| {
            let rows = part.group(*grp);
            leaf_qr(pan.sub(rows.start, 0, rows.len(), w), rows)
        };
        let leaves: Vec<_> = plan.leaves.iter().map(leaf).collect();
        let node = |(node, rest): &(NodePlan, VRest)| {
            let mut parts = pan.rb().split_rows(&node.row_ranges);
            let (top, below) = parts.split_at_mut(1);
            let below: Vec<_> = below.iter().map(|p| p.as_ref()).collect();
            eliminate(top[0].rb(), &below, node, *rest)
        };
        let nodes = plan.nodes.iter().map(node).collect();
        let panel = PanelQ { k0, c0: k0, w, k: (m - k0).min(w), leaves, nodes };
        let pan = pan.as_ref();
        let vs: Vec<_> =
            panel.leaves.iter().map(|l| pan.sub(l.rows.start, 0, l.rows.len(), l.kv)).collect();
        panel_apply(workers, &panel, &vs, right, Trans::Yes);
        panels.push(panel);
        lc += w;
    }
}

/// Sequential CAQR (Algorithm 2 in program order), consuming `a` — generic
/// over the working precision: [`caqr_panels`] over the whole matrix.
pub fn caqr_seq<T: Kernel>(mut a: Matrix<T>, p: &CaParams) -> QrFactors<T> {
    let mut panels = Vec::with_capacity(num_panels(a.nrows(), a.ncols(), p.b));
    caqr_panels(a.view_mut(), 0, p, 1, &mut panels);
    QrFactors { a, panels }
}

/// Multithreaded CAQR (Algorithm 2): task-graph execution with the
/// lookahead-of-1 priority rule on `p.threads` workers.
///
/// # Panics
/// If a worker task panics (the `try_*` entry points report that as an
/// error instead).
pub fn caqr<T: Kernel>(a: Matrix<T>, p: &CaParams) -> QrFactors<T> {
    run_plan(CaqrPlan::build(a.nrows(), a.ncols(), p), a, p.threads, &FactorOptions::default())
        .unwrap_or_else(|e| panic!("{}", FactorError::from(e)))
        .0
}

/// TSQR as a standalone tall-and-skinny factorization: a single panel of
/// width `n` reduced over `tr` row blocks (the paper's TSQR benchmark).
pub fn tsqr_factor<T: Kernel>(a: Matrix<T>, tr: usize, p: &CaParams) -> QrFactors<T> {
    let n = a.ncols();
    let params = CaParams { b: n.max(1), tr, ..*p };
    caqr_seq(a, &params)
}

/// Fallible multithreaded CAQR: pre-scans the input for NaN/Inf (which
/// would silently poison the Householder reflectors) and reports worker
/// failure as [`FactorError::TaskFailed`] instead of panicking. QR needs no
/// pivot-breakdown handling — orthogonal transforms cannot blow up.
pub fn try_caqr<T: Kernel>(a: Matrix<T>, p: &CaParams) -> Result<QrFactors<T>, FactorError> {
    try_caqr_with(a, p, &FactorOptions::default()).map(|(f, _)| f)
}

/// [`try_caqr`] under explicit [`FactorOptions`] — fault injection,
/// snapshot/replay recovery, checked execution, in any combination — also
/// returning the executor's [`ca_sched::RunReport`] (see
/// [`crate::try_calu_with`]).
pub fn try_caqr_with<T: Kernel>(
    a: Matrix<T>,
    p: &CaParams,
    opts: &FactorOptions,
) -> Result<(QrFactors<T>, ca_sched::RunReport), FactorError> {
    require_finite(&a)?;
    try_plan_with(CaqrPlan::build(a.nrows(), a.ncols(), p), a, p, opts)
}

/// [`try_caqr`] returning the scheduler's full [`ca_sched::Profile`] of the
/// run alongside the factors (see [`crate::try_calu_profiled`]).
pub fn try_caqr_profiled<T: Kernel>(
    a: Matrix<T>,
    p: &CaParams,
) -> Result<(QrFactors<T>, ca_sched::Profile), FactorError> {
    try_caqr_with(a, p, &FactorOptions::default()).map(|(f, report)| (f, report.profile()))
}

/// Fallible standalone TSQR with the input pre-scan of [`try_caqr`].
pub fn try_tsqr_factor<T: Kernel>(
    a: Matrix<T>,
    tr: usize,
    p: &CaParams,
) -> Result<QrFactors<T>, FactorError> {
    require_finite(&a)?;
    Ok(tsqr_factor(a, tr, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreeShape;
    use ca_matrix::seeded_rng;

    fn check_seq(m: usize, n: usize, b: usize, tr: usize, tree: TreeShape, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut p = CaParams::new(b, tr, 1);
        p.tree = tree;
        let f = caqr_seq(a0.clone(), &p);
        let res = f.residual(&a0);
        let orth = f.orthogonality();
        let scale = 1e-12 * (m.max(n) as f64);
        assert!(res < scale, "residual {res} for {m}x{n} b={b} tr={tr} {tree:?}");
        assert!(orth < scale, "orthogonality {orth} for {m}x{n} b={b} tr={tr} {tree:?}");
    }

    #[test]
    fn square_multi_panel() {
        check_seq(64, 64, 16, 4, TreeShape::Binary, 1);
        check_seq(60, 60, 16, 4, TreeShape::Flat, 2); // ragged last panel
        check_seq(100, 100, 25, 2, TreeShape::Binary, 3);
    }

    #[test]
    fn tall_skinny() {
        check_seq(400, 24, 8, 8, TreeShape::Binary, 4);
        check_seq(333, 30, 10, 4, TreeShape::Flat, 5);
        check_seq(500, 10, 10, 8, TreeShape::Binary, 6); // single panel
    }

    #[test]
    fn kary_and_hybrid_trees() {
        check_seq(256, 48, 16, 8, TreeShape::Kary(4), 30);
        check_seq(256, 48, 16, 8, TreeShape::Hybrid { flat_width: 4 }, 31);
    }

    #[test]
    fn odd_shapes() {
        check_seq(97, 53, 13, 3, TreeShape::Binary, 7);
        check_seq(41, 41, 100, 2, TreeShape::Binary, 8); // b > n
        check_seq(129, 65, 32, 5, TreeShape::Flat, 9);
    }

    #[test]
    fn r_matches_lapack_style_qr_up_to_signs() {
        let m = 90;
        let n = 30;
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(10));
        let f = caqr_seq(a0.clone(), &CaParams::new(10, 4, 1));
        let r = f.r();
        let mut aref = a0.clone();
        let mut tau = Vec::new();
        ca_kernels::geqr2(aref.view_mut(), &mut tau);
        let rref = aref.upper();
        for i in 0..n {
            for j in i..n {
                assert!(
                    (r[(i, j)].abs() - rref[(i, j)].abs()).abs() < 1e-10,
                    "R mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn least_squares_recovers_planted_solution() {
        let m = 200;
        let n = 12;
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(11));
        let x_true = ca_matrix::random_uniform(n, 2, &mut seeded_rng(12));
        let b = a0.matmul(&x_true);
        let f = tsqr_factor(a0, 8, &CaParams::new(100, 8, 1));
        let x = f.solve_ls(&b);
        let err = ca_matrix::norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-10, "LS error {err}");
    }

    #[test]
    fn apply_q_then_qt_roundtrips() {
        let m = 70;
        let n = 20;
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(13));
        let f = caqr_seq(a0, &CaParams::new(8, 4, 1));
        let c0 = ca_matrix::random_uniform(m, 4, &mut seeded_rng(14));
        let mut c = c0.clone();
        f.apply_q(&mut c);
        f.apply_qt(&mut c);
        let err = ca_matrix::norm_max(c.sub_matrix(&c0).view());
        assert!(err < 1e-11, "roundtrip error {err}");
    }

    #[test]
    fn tsqr_equals_caqr_single_panel() {
        let m = 300;
        let n = 16;
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(15));
        let f1 = tsqr_factor(a0.clone(), 4, &CaParams::new(100, 4, 1));
        let mut p = CaParams::new(16, 4, 1);
        p.tree = TreeShape::Binary;
        let f2 = caqr_seq(a0, &p);
        // Same single-panel factorization: identical R.
        assert_eq!(f1.a.as_slice(), f2.a.as_slice());
    }
}
