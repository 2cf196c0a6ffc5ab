//! CALU: communication-avoiding LU with tournament pivoting.
//!
//! [`calu_seq_factor`] is the sequential reference (exactly Algorithm 1
//! executed in program order); [`calu`] runs the same computation as a task
//! graph on the `ca-sched` worker pool. Both are generic over the working precision and
//! write LAPACK-`dgetrf`-compatible output: packed `L\U` in place plus a
//! global interchange sequence.

use crate::dag_calu::CaluPlan;
use crate::error::{require_finite, FactorError, DEFAULT_GROWTH_LIMIT};
use crate::jobs::try_plan_with;
use crate::params::CaParams;
use crate::tslu::factor_panel;
use ca_kernels::{gemm, split_cols, trsm_left_lower_unit, trsm_left_upper_notrans, Kernel, Trans};
use ca_matrix::{lu_residual, MatView, MatViewMut, Matrix, PivotSeq, Scalar};
use ca_sched::{run_plan, FactorOptions};

/// Numerical diagnostics collected while factoring, one entry per panel.
#[derive(Clone, Debug, Default)]
pub struct LuStats {
    /// Per-panel element-growth estimate `max|L_KK\U_KK| / max|panel
    /// input|` of the selection finally used, in panel order.
    pub panel_growth: Vec<f64>,
    /// Global column indices (`k0`) of panels where tournament instability
    /// forced a plain-GEPP refactorization.
    pub fallback_panels: Vec<usize>,
}

impl LuStats {
    /// The largest per-panel growth estimate observed (`0` when empty).
    pub fn max_growth(&self) -> f64 {
        self.panel_growth.iter().fold(0.0f64, |a, &g| a.max(g))
    }
}

/// The result of an LU factorization: packed factors plus pivots.
#[derive(Clone, Debug)]
pub struct LuFactors<T: Scalar = f64> {
    /// Packed factors: unit-lower `L` strictly below the diagonal, `U` on
    /// and above (LAPACK `dgetrf` layout).
    pub lu: Matrix<T>,
    /// Global row interchanges (offset 0, length `min(m, n)`).
    pub pivots: PivotSeq,
    /// First column where a panel hit an exactly-zero pivot, if any.
    pub breakdown: Option<usize>,
    /// Per-panel growth estimates and GEPP-fallback record.
    pub stats: LuStats,
}

impl<T: Kernel> LuFactors<T> {
    /// Explicit permutation: entry `i` is the original row now at position `i`.
    pub fn permutation(&self) -> Vec<usize> {
        self.pivots.to_permutation(self.lu.nrows())
    }

    /// The unit-lower factor `L` (`m × min(m,n)`).
    pub fn l(&self) -> Matrix<T> {
        self.lu.unit_lower()
    }

    /// The upper factor `U` (`min(m,n) × n`).
    pub fn u(&self) -> Matrix<T> {
        self.lu.upper()
    }

    /// Relative residual `‖ΠA − LU‖_F / ‖A‖_F` against the original matrix,
    /// accumulated in `f64` whatever the working precision.
    pub fn residual(&self, a0: &Matrix<T>) -> f64 {
        lu_residual(&a0.to_f64(), &self.permutation(), &self.l().to_f64(), &self.u().to_f64())
    }

    /// Determinant of a square factored matrix:
    /// `det(A) = sign(Π) · Π U_ii` (accumulated in `f64`).
    pub fn det(&self) -> f64 {
        let n = self.lu.nrows();
        assert_eq!(self.lu.ncols(), n, "determinant requires square A");
        let mut d = 1.0f64;
        for i in 0..n {
            d *= self.lu[(i, i)].to_f64();
        }
        // Parity of the interchange sequence: each ipiv[k] != offset+k swap
        // flips the sign.
        for (k, &p) in self.pivots.ipiv.iter().enumerate() {
            if p != self.pivots.offset + k {
                d = -d;
            }
        }
        d
    }

    /// Solves `A·X = rhs` in place using the factors (square `A` only).
    ///
    /// # Panics
    /// If the factored matrix is not square or shapes mismatch.
    pub fn solve_in_place(&self, rhs: &mut Matrix<T>) {
        let n = self.lu.nrows();
        assert_eq!(self.lu.ncols(), n, "solve requires a square factorization");
        assert_eq!(rhs.nrows(), n, "rhs row count mismatch");
        self.pivots.apply(rhs.view_mut());
        trsm_left_lower_unit(self.lu.view(), rhs.view_mut());
        trsm_left_upper_notrans(self.lu.view(), rhs.view_mut());
    }

    /// Convenience wrapper returning the solution.
    pub fn solve(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut x = rhs.clone();
        self.solve_in_place(&mut x);
        x
    }
}

/// What the CALU panel loop records, accumulated over every column window a
/// caller feeds to [`calu_panels`]: one for a resident matrix, one per
/// superpanel out of core.
#[derive(Clone, Debug, Default)]
pub struct LuPanelLog {
    /// Per-panel interchange sequences in panel order (each `offset` is the
    /// panel's global diagonal).
    pub panel_pivots: Vec<PivotSeq>,
    /// First column where a panel hit an exactly-zero pivot, if any.
    pub breakdown: Option<usize>,
    /// Per-panel growth estimates and GEPP-fallback record.
    pub stats: LuStats,
}

/// The CALU panel loop — Algorithm 1 in program order — over a column
/// window: `a` holds every row of columns `d0..d0 + a.ncols()` of the matrix
/// being factored, so the panel at window column `lc` has its diagonal at
/// global row `d0 + lc`. Per panel: tournament pivoting + packed panel
/// factorization (TSLU) on the calling thread, then [`lu_panel_update`] of
/// the window columns right of the panel — one column split over `workers`
/// lanes (the factors are bitwise the same at every count).
///
/// Interchanges for the columns *left* of each panel are the caller's
/// business: they commute with everything the loop does, so an in-core
/// caller applies `log.panel_pivots` once the loop returns and an
/// out-of-core caller defers them to its fix-up sweep.
pub fn calu_panels<T: Kernel>(
    mut a: MatViewMut<'_, T>,
    d0: usize,
    p: &CaParams,
    workers: usize,
    log: &mut LuPanelLog,
) {
    let m = a.nrows();
    let ws = a.ncols();
    let mut lc = 0usize;
    while lc < ws && d0 + lc < m {
        let k0 = d0 + lc;
        let w = p.b.min(ws - lc);

        let outcome = factor_panel(a.sub(0, lc, m, w), k0, p.b, p.tr, p.tree, p.growth_limit);
        if log.breakdown.is_none() {
            log.breakdown = outcome.breakdown.map(|c| k0 + c);
        }
        log.stats.panel_growth.push(outcome.growth);
        if outcome.fallback {
            log.stats.fallback_panels.push(k0);
        }

        let (panel_cols, trailing) = a.rb().split_at_col(lc + w);
        let l = panel_cols.as_ref().sub(k0, lc, m - k0, outcome.pivots.len());
        lu_panel_update(workers, &outcome.pivots, l, trailing);

        log.panel_pivots.push(outcome.pivots);
        lc += w;
    }
}

/// One factored panel's update of the columns `c` (every row of the
/// matrix): its interchanges `pv`, the `U` block row by unit-lower
/// triangular solve, and the rank-`k` update below it, where `l` is the
/// panel's `[L_kk; L_below]` (rows `pv.offset..m` of its `k = pv.len()`
/// columns). One [`split_cols`] of `c` over `workers` lanes carries all
/// three, so each lane touches only its own columns.
pub fn lu_panel_update<T: Kernel>(
    workers: usize,
    pv: &PivotSeq,
    l: MatView<'_, T>,
    c: MatViewMut<'_, T>,
) {
    let (k0, k) = (pv.offset, pv.len());
    split_cols(workers, c, |_, mut c| {
        pv.apply(c.rb());
        let cw = c.ncols();
        let (top, below) = c.split_at_row(k0 + k);
        let mut u_row = top.into_sub(k0, 0, k, cw);
        trsm_left_lower_unit(l.sub(0, 0, k, k), u_row.rb());
        gemm(
            Trans::No,
            Trans::No,
            -T::ONE,
            l.sub(k, 0, l.nrows() - k, k),
            u_row.as_ref(),
            T::ONE,
            below,
        );
    });
}

/// Sequential CALU, the reference every other route reproduces bit for bit
/// (generic over the working precision — `calu_seq_factor::<f32>` is the
/// single-precision path).
///
/// This is Algorithm 1 run on one thread: [`calu_panels`] over the whole
/// matrix, then each panel's interchanges applied to the columns left of it.
pub fn calu_seq_factor<T: Kernel>(mut a: Matrix<T>, p: &CaParams) -> LuFactors<T> {
    let mut log = LuPanelLog::default();
    calu_panels(a.view_mut(), 0, p, 1, &mut log);
    let m = a.nrows();
    let mut pivots = PivotSeq::new(0);
    for pv in &log.panel_pivots {
        if pv.offset > 0 {
            pv.apply(a.block_mut(0, 0, m, pv.offset));
        }
        pivots.extend(pv);
    }
    LuFactors { lu: a, pivots, breakdown: log.breakdown, stats: log.stats }
}

/// Multithreaded CALU (Algorithm 1): builds the task dependency graph and
/// executes it on `p.threads` workers with the lookahead-of-1 priority rule.
///
/// # Panics
/// If a worker task panics (the `try_*` entry points report that as an
/// error instead).
pub fn calu<T: Kernel>(a: Matrix<T>, p: &CaParams) -> LuFactors<T> {
    run_plan(CaluPlan::build(a.nrows(), a.ncols(), p), a, p.threads, &FactorOptions::default())
        .unwrap_or_else(|e| panic!("{}", FactorError::from(e)))
        .0
}

/// TSLU as a standalone factorization of a tall-and-skinny matrix: a single
/// panel of width `n` (the paper's TSLU benchmark configuration).
pub fn tslu_factor<T: Kernel>(a: Matrix<T>, tr: usize, p: &CaParams) -> LuFactors<T> {
    let params = CaParams { b: a.ncols().max(1), tr, ..*p };
    calu_seq_factor(a, &params)
}

/// The `try_calu` contract ahead of the run, whoever owns the workers
/// ([`try_calu_with`] one-shot, [`crate::calu_serve_graph`] served): the
/// NaN/Inf pre-scan, then the parameters with growth monitoring on — the
/// finite [`DEFAULT_GROWTH_LIMIT`] substituted when the caller left it
/// disabled. [`check_factors`] under the same parameters is the half that
/// follows the run.
pub(crate) fn monitored<T: Scalar>(a: &Matrix<T>, p: &CaParams) -> Result<CaParams, FactorError> {
    require_finite(a)?;
    Ok(if p.growth_limit.is_finite() { *p } else { p.with_growth_limit(DEFAULT_GROWTH_LIMIT) })
}

/// Maps post-factorization diagnostics to the `try_*` error contract:
/// exact breakdown wins, then any panel whose growth (even after the GEPP
/// fallback) broke the limit. A successful fallback is *not* an error —
/// the degradation is recorded in [`LuStats::fallback_panels`].
pub(crate) fn check_factors<T: Scalar>(
    f: LuFactors<T>,
    p: &CaParams,
) -> Result<LuFactors<T>, FactorError> {
    if let Some(col) = f.breakdown {
        return Err(FactorError::ZeroPivot { col });
    }
    for (panel, &g) in f.stats.panel_growth.iter().enumerate() {
        if g > p.growth_limit {
            return Err(FactorError::GrowthExplosion { col: panel * p.b, growth: g });
        }
    }
    Ok(f)
}

/// Fallible multithreaded CALU: pre-scans the input for NaN/Inf, monitors
/// per-panel element growth (falling back to plain GEPP on tournament
/// instability), and reports exact singularity and worker-task failure as
/// errors instead of poisoned factors.
pub fn try_calu<T: Kernel>(a: Matrix<T>, p: &CaParams) -> Result<LuFactors<T>, FactorError> {
    try_calu_with(a, p, &FactorOptions::default()).map(|(f, _)| f)
}

/// [`try_calu`] under explicit [`FactorOptions`] — fault injection,
/// snapshot/replay recovery, checked execution, in any combination — also
/// returning the executor's [`ca_sched::RunReport`] (wall-clock timeline
/// usable with [`ca_sched::ascii_gantt`], the run's
/// [`ca_sched::RunReport::profile`] and [`ca_sched::RunReport::recovery`]).
/// The numerical contract is that of [`try_calu`] whatever the options;
/// under `retry` the run climbs the whole recovery ladder of a served job
/// ([`crate::jobs`]): the factors are probed against the input, and
/// corrupted factors or a task out of replays are answered by factoring the
/// input again, which gives the same bits.
pub fn try_calu_with<T: Kernel>(
    a: Matrix<T>,
    p: &CaParams,
    opts: &FactorOptions,
) -> Result<(LuFactors<T>, ca_sched::RunReport), FactorError> {
    let params = monitored(&a, p)?;
    try_plan_with(CaluPlan::build(a.nrows(), a.ncols(), &params), a, &params, opts)
}

/// [`try_calu`] returning the scheduler's full [`ca_sched::Profile`] of the
/// run alongside the factors — lifecycle records for every task,
/// per-kernel-class flop/byte totals for roofline attribution, and the
/// ready-queue depth. It is the same run as [`try_calu`] (every run is
/// recorded) with the profile view built. Derive the report with
/// [`ca_sched::Profile::metrics`] or a Perfetto-loadable trace with
/// [`ca_sched::Profile::chrome_trace`].
pub fn try_calu_profiled<T: Kernel>(
    a: Matrix<T>,
    p: &CaParams,
) -> Result<(LuFactors<T>, ca_sched::Profile), FactorError> {
    try_calu_with(a, p, &FactorOptions::default()).map(|(f, report)| (f, report.profile()))
}

/// Fallible standalone TSLU with the same contract as [`try_calu`].
pub fn try_tslu_factor<T: Kernel>(
    a: Matrix<T>,
    tr: usize,
    p: &CaParams,
) -> Result<LuFactors<T>, FactorError> {
    let params = monitored(&a, &CaParams { b: a.ncols().max(1), tr, ..*p })?;
    check_factors(tslu_factor(a, tr, &params), &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreeShape;
    use ca_matrix::seeded_rng;

    fn check_seq(m: usize, n: usize, b: usize, tr: usize, tree: TreeShape, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut params = CaParams::new(b, tr, 1);
        params.tree = tree;
        let f = calu_seq_factor(a0.clone(), &params);
        assert!(f.breakdown.is_none(), "breakdown {m}x{n} b={b} tr={tr}");
        assert_eq!(f.pivots.len(), m.min(n));
        let res = f.residual(&a0);
        assert!(res < 1e-12, "residual {res} for {m}x{n} b={b} tr={tr} {tree:?}");
    }

    #[test]
    fn square_matrices_multiple_panels() {
        check_seq(64, 64, 16, 4, TreeShape::Binary, 1);
        check_seq(100, 100, 25, 2, TreeShape::Binary, 2);
        check_seq(60, 60, 16, 4, TreeShape::Flat, 3); // ragged last panel
    }

    #[test]
    fn kary_and_hybrid_trees_factor_correctly() {
        check_seq(256, 64, 16, 8, TreeShape::Kary(4), 30);
        check_seq(256, 64, 16, 8, TreeShape::Hybrid { flat_width: 4 }, 31);
        check_seq(100, 100, 25, 6, TreeShape::Kary(3), 32);
    }

    #[test]
    fn tall_skinny_matrices() {
        check_seq(500, 40, 10, 8, TreeShape::Binary, 4);
        check_seq(333, 30, 10, 4, TreeShape::Flat, 5);
        check_seq(1000, 10, 10, 8, TreeShape::Binary, 6); // single panel
    }

    #[test]
    fn odd_shapes_and_block_sizes() {
        check_seq(97, 53, 13, 3, TreeShape::Binary, 7);
        check_seq(53, 97, 13, 3, TreeShape::Binary, 8); // wide
        check_seq(41, 41, 41, 2, TreeShape::Binary, 9); // one panel exactly
        check_seq(41, 41, 100, 2, TreeShape::Binary, 10); // b > n
    }

    #[test]
    fn b_equals_one_is_partial_pivoting_exactly() {
        // Paper §II: "when b = 1 or Tr = 1, CALU is equivalent to partial
        // pivoting". With b = 1 the tournament over single columns picks
        // the max-magnitude entry, exactly like GEPP.
        let m = 24;
        let n = 24;
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(11));
        let f = calu_seq_factor(a0.clone(), &CaParams::new(1, 4, 1));
        let mut r = a0.clone();
        let info = ca_kernels::getf2(r.view_mut());
        assert_eq!(f.pivots.ipiv, info.pivots.ipiv, "pivot sequences differ");
        for j in 0..n {
            for i in 0..m {
                assert_eq!(f.lu[(i, j)], r[(i, j)], "factors differ at ({i},{j})");
            }
        }
    }

    #[test]
    fn tr_one_gives_partial_pivoting_pivots() {
        let a0 = ca_matrix::random_uniform(60, 24, &mut seeded_rng(12));
        let f = calu_seq_factor(a0.clone(), &CaParams::new(8, 1, 1));
        let mut r = a0.clone();
        let info = ca_kernels::getf2(r.view_mut());
        assert_eq!(f.pivots.ipiv, info.pivots.ipiv);
    }

    #[test]
    fn solve_square_system() {
        let n = 50;
        let a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(13));
        let x_true = ca_matrix::random_uniform(n, 3, &mut seeded_rng(14));
        let b = a0.matmul(&x_true);
        let f = calu_seq_factor(a0.clone(), &CaParams::new(10, 4, 1));
        let x = f.solve(&b);
        let err = ca_matrix::norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-9, "solve error {err}");
    }

    #[test]
    fn determinant_of_known_matrices() {
        // det(I) = 1; det of a permutation-like matrix = ±1; 2x2 known.
        let f = calu_seq_factor(ca_matrix::Matrix::<f64>::identity(6), &CaParams::new(2, 2, 1));
        assert!((f.det() - 1.0).abs() < 1e-12);
        let a = ca_matrix::Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let f = calu_seq_factor(a, &CaParams::new(1, 1, 1));
        assert!((f.det() + 2.0).abs() < 1e-12, "det {}", f.det());
        // det is invariant to tournament parameters.
        let a = ca_matrix::random_uniform(30, 30, &mut seeded_rng(40));
        let d1 = calu_seq_factor(a.clone(), &CaParams::new(5, 4, 1)).det();
        let d2 = calu_seq_factor(a, &CaParams::new(30, 1, 1)).det();
        assert!((d1 - d2).abs() < 1e-9 * d1.abs().max(1.0), "{d1} vs {d2}");
    }

    #[test]
    fn tslu_factor_single_panel() {
        let a0 = ca_matrix::random_uniform(400, 20, &mut seeded_rng(15));
        let f = tslu_factor(a0.clone(), 8, &CaParams::new(100, 8, 1));
        assert!(f.residual(&a0) < 1e-12);
    }

    #[test]
    fn singular_matrix_reports_breakdown_column() {
        // An exactly-zero column makes GEPP hit an exact zero pivot when
        // elimination reaches it (floating-point near-singularity would only
        // give tiny pivots, which is not a breakdown).
        let n = 20;
        let mut a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(16));
        for i in 0..n {
            a0[(i, 7)] = 0.0;
        }
        let f = calu_seq_factor(a0, &CaParams::new(5, 2, 1));
        assert!(f.breakdown.is_some());
    }

    #[test]
    fn growth_factor_comparable_to_gepp() {
        // Stability sanity: tournament pivoting growth within 4x of GEPP on
        // random matrices.
        let n = 96;
        let a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(17));
        let f = calu_seq_factor(a0.clone(), &CaParams::new(16, 8, 1));
        let g_calu = ca_matrix::growth_factor(&a0, &f.u());
        let mut r = a0.clone();
        ca_kernels::getf2(r.view_mut());
        let g_gepp = ca_matrix::growth_factor(&a0, &r.upper());
        assert!(g_calu < 4.0 * g_gepp + 4.0, "CALU growth {g_calu} vs GEPP {g_gepp}");
    }

    #[test]
    fn panel_growth_is_the_full_panel_scan_bit_for_bit() {
        // The growth estimate's denominator is folded from per-leaf maxima;
        // it must equal a scan of the whole panel input (what the root task
        // used to do), NaN entries skipped, on every path.
        fn scan(values: impl Iterator<Item = f64>) -> f64 {
            values.fold(0.0f64, |m, x| m.max(x.abs()))
        }
        let (m, b) = (96, 16);
        let mut rng = seeded_rng(50);
        let random = ca_matrix::random_uniform(m, b, &mut rng);
        // GEPP's worst case on top (growth 2^(b-1)), small entries below.
        let wilkinson = Matrix::from_fn(m, b, |i, j| match (i < b, i.cmp(&j)) {
            (true, _) if j == b - 1 => 1.0,
            (true, std::cmp::Ordering::Equal) => 1.0,
            (true, std::cmp::Ordering::Greater) => -1.0,
            (true, std::cmp::Ordering::Less) => 0.0,
            (false, _) => 1e-3 * random[(i, j)],
        });
        let mut nan = random.clone();
        nan[(70, 3)] = f64::NAN;
        nan[(5, 9)] = f64::NAN;
        for (what, a0) in [("random", &random), ("wilkinson", &wilkinson), ("nan", &nan)] {
            for tr in [1, 4] {
                let seq = calu_seq_factor(a0.clone(), &CaParams::new(b, tr, 1));
                let dag = calu(a0.clone(), &CaParams::new(b, tr, 2));
                for (path, f) in [("sequential", &seq), ("dag", &dag)] {
                    // One panel: its input is `a0`, its packed top block the
                    // first `b` rows of the factors.
                    let top =
                        scan((0..b).flat_map(|j| (0..b).map(move |i| (i, j))).map(|ij| f.lu[ij]));
                    let want = top / scan(a0.as_slice().iter().copied());
                    assert_eq!(f.stats.panel_growth.len(), 1);
                    assert_eq!(
                        f.stats.panel_growth[0].to_bits(),
                        want.to_bits(),
                        "{what} tr={tr} {path}"
                    );
                }
            }
        }
        assert!(calu_seq_factor(wilkinson, &CaParams::new(b, 1, 1)).stats.max_growth() > 1e4);
    }
}
