//! LAPACK-style blocked Householder QR — the vendor (`MKL_dgeqrf`)
//! stand-in: BLAS2 `dgeqr2` panel + `dlarft`, then `dlarfb` trailing update
//! (optionally parallelized over column strips like a multithreaded BLAS).

use ca_kernels::{flops, traffic};
use ca_kernels::{geqr2, larfb_left, larft, Trans};
use ca_matrix::Matrix;
use ca_sched::{row_blocks, BlockTracker, KernelClass, TaskGraph, TaskKind, TaskLabel, TaskMeta};

/// Result of blocked QR: per-panel compact-WY `T` factors (reflectors stay
/// packed in the matrix), enough to apply `Q`/`Qᵀ`.
pub struct BlockedQr {
    /// Per-panel `(k0, width, T)` in factorization order.
    pub panels: Vec<(usize, usize, Matrix)>,
}

impl BlockedQr {
    /// Applies `Qᵀ` to `c` in place, given the factored matrix `a`.
    pub fn apply_qt(&self, a: &Matrix, c: &mut Matrix) {
        for (k0, w, t) in &self.panels {
            let m = a.nrows();
            let v = a.block(*k0, *k0, m - k0, *w);
            larfb_left(Trans::Yes, v, t.view(), c.block_mut(*k0, 0, m - k0, c.ncols()));
        }
    }

    /// Applies `Q` to `c` in place, given the factored matrix `a`.
    pub fn apply_q(&self, a: &Matrix, c: &mut Matrix) {
        for (k0, w, t) in self.panels.iter().rev() {
            let m = a.nrows();
            let v = a.block(*k0, *k0, m - k0, *w);
            larfb_left(Trans::No, v, t.view(), c.block_mut(*k0, 0, m - k0, c.ncols()));
        }
    }

    /// Thin explicit `Q` (`m × min(m,n)`).
    pub fn q_thin(&self, a: &Matrix) -> Matrix {
        let m = a.nrows();
        let k = m.min(a.ncols());
        let mut q = Matrix::zeros(m, k);
        for i in 0..k {
            q[(i, i)] = 1.0;
        }
        self.apply_q(a, &mut q);
        q
    }
}

/// Blocked `dgeqrf` in place with panel width `nb`; `threads > 1`
/// parallelizes the `dlarfb` trailing update over column strips.
pub fn geqrf_blocked(a: &mut Matrix, nb: usize, threads: usize) -> BlockedQr {
    assert!(nb > 0, "panel width must be positive");
    let m = a.nrows();
    let n = a.ncols();
    let kmax = m.min(n);
    let mut panels = Vec::new();

    let mut k0 = 0usize;
    while k0 < kmax {
        let w = nb.min(kmax - k0);
        // BLAS2 panel.
        let mut tau = Vec::new();
        geqr2(a.block_mut(k0, k0, m - k0, w), &mut tau);
        let kv = tau.len();
        let mut t = Matrix::zeros(kv, kv);
        larft(a.block(k0, k0, m - k0, kv), &tau, t.view_mut());

        // Trailing update: C := Qᵀ C over column strips.
        if k0 + w < n {
            let (panel_cols, trailing) = a.view_mut().split_at_col(k0 + w);
            let v = panel_cols.as_ref().sub(k0, k0, m - k0, kv);
            let c = trailing.into_sub(k0, 0, m - k0, n - k0 - w);
            crate::for_each_column_strip(c, threads, |_, cj| {
                larfb_left(Trans::Yes, v, t.view(), cj);
            });
        }
        panels.push((k0, w, t));
        k0 += w;
    }
    BlockedQr { panels }
}

/// Task graph of blocked `dgeqrf` for the multicore simulator.
pub fn geqrf_blocked_task_graph(m: usize, n: usize, nb: usize, strips: usize) -> TaskGraph<()> {
    let kmax = m.min(n);
    let nsteps = kmax.div_ceil(nb);
    let nbk = n.div_ceil(nb);
    let mbk = m.div_ceil(nb);
    let mut g: TaskGraph<()> = TaskGraph::new();
    let mut tracker = BlockTracker::new(mbk, nbk);

    for step in 0..nsteps {
        let k0 = step * nb;
        let w = nb.min(kmax - k0);
        let meta = TaskMeta::new(
            TaskLabel::new(TaskKind::Panel, step, 0, step),
            flops::geqrf(m - k0, w),
        )
        .with_bytes(traffic::geqr2(m - k0, w))
        .with_priority(((nsteps - step) as i64) * 1000 + 900)
        .with_class(KernelClass::QrBlas2);
        let panel = g.add_task(meta, ());
        tracker.write(&mut g, panel, row_blocks(k0..m, nb), step..step + 1);

        if k0 + w < n {
            // Column strips of the dlarfb update, block-grid aligned so the
            // strips of one panel write disjoint blocks.
            let cols = k0 + w..n;
            let strip_cols = cols.len().div_ceil(strips).div_ceil(nb).max(1) * nb;
            let mut c0 = cols.start;
            while c0 < cols.end {
                let c1 = (c0 + strip_cols).min(cols.end);
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Update, step, 0, c0 / nb),
                    flops::larfb(m - k0, c1 - c0, w),
                )
                .with_bytes(traffic::larfb(m - k0, c1 - c0, w))
                .with_priority(((nsteps - step) as i64) * 1000 + 100)
                .with_class(KernelClass::Larfb);
                let s = g.add_task(meta, ());
                tracker.read(&mut g, s, row_blocks(k0..m, nb), step..step + 1);
                tracker.write(&mut g, s, row_blocks(k0..m, nb), (c0 / nb)..c1.div_ceil(nb));
                c0 = c1;
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{orthogonality, qr_residual, seeded_rng};

    fn check(m: usize, n: usize, nb: usize, threads: usize, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut a = a0.clone();
        let qr = geqrf_blocked(&mut a, nb, threads);
        let q = qr.q_thin(&a);
        let r = a.upper();
        let scale = 1e-12 * (m.max(n) as f64);
        assert!(orthogonality(&q) < scale, "Q not orthogonal {m}x{n}");
        let res = qr_residual(&a0, &q, &r);
        assert!(res < scale, "residual {res} for {m}x{n} nb={nb}");
    }

    #[test]
    fn blocked_qr_various_shapes() {
        check(64, 64, 16, 1, 1);
        check(120, 40, 16, 1, 2);
        check(97, 61, 13, 1, 3);
        check(50, 50, 50, 1, 4); // single panel
    }

    #[test]
    fn parallel_update_matches_sequential() {
        let a0 = ca_matrix::random_uniform(150, 150, &mut seeded_rng(5));
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        geqrf_blocked(&mut a1, 32, 1);
        geqrf_blocked(&mut a2, 32, 4);
        assert_eq!(a1.as_slice(), a2.as_slice());
    }

    #[test]
    fn qt_q_roundtrip() {
        let a0 = ca_matrix::random_uniform(60, 20, &mut seeded_rng(6));
        let mut a = a0.clone();
        let qr = geqrf_blocked(&mut a, 8, 1);
        let c0 = ca_matrix::random_uniform(60, 3, &mut seeded_rng(7));
        let mut c = c0.clone();
        qr.apply_qt(&a, &mut c);
        qr.apply_q(&a, &mut c);
        let err = ca_matrix::norm_max(c.sub_matrix(&c0).view());
        assert!(err < 1e-12);
    }

    #[test]
    fn task_graph_valid() {
        let g = geqrf_blocked_task_graph(1000, 500, 100, 8);
        g.validate();
        assert!(g.total_flops() >= flops::geqrf(1000, 500) * 0.95);
    }
}
