//! LAPACK-style blocked Householder QR — the vendor (`MKL_dgeqrf`)
//! stand-in: per step one BLAS2 `dgeqr2` + `dlarft` panel task, then one
//! `dlarfb` task per column strip of the trailing matrix (the multithreaded
//! BLAS3 update), as a [`ca_sched::Plan`].

use crate::column_strips;
use ca_kernels::{flops, traffic};
use ca_kernels::{geqr2, larfb_left, larft, Trans};
use ca_matrix::{ElemRect, Matrix};
use ca_sched::{KernelClass, Plan, PlanBuilder, Slot, TaskKind, TaskLabel, TaskMeta};

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

/// Builder of the task DAG of blocked `dgeqrf`.
pub struct BlockedQrPlan;

impl BlockedQrPlan {
    /// Plan for an `m × n` matrix with panel width `nb`, the trailing update
    /// of each step cut into at most `strips` block-aligned column strips.
    pub fn build(m: usize, n: usize, nb: usize, strips: usize) -> Plan<f64, (Matrix, BlockedQr)> {
        assert!(nb > 0, "panel width must be positive");
        let kmax = m.min(n);
        let nsteps = kmax.div_ceil(nb);
        let mut pb = PlanBuilder::<f64>::new(nb, m, n);
        // Per step, the slot of its panel's `(k0, width, T)`.
        let mut ts: Vec<Slot<(usize, usize, Matrix)>> = Vec::with_capacity(nsteps);

        for step in 0..nsteps {
            let k0 = step * nb;
            let w = nb.min(kmax - k0);
            let pr = ((nsteps - step) as i64) * 1000;
            // Panel: BLAS2, on the critical path, single task.
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Panel, step, 0, step),
                flops::geqrf(m - k0, w),
            )
            .with_bytes(traffic::geqr2(m - k0, w))
            .with_priority(pr + 900)
            .with_class(KernelClass::QrBlas2);
            let t_slot = pb.slot();
            let mut t = pb.task(meta);
            let panel = t.writes_rect(ElemRect::new(k0..m, k0..k0 + w));
            t.writes_slot(t_slot);
            t.run(move |cx| {
                let mut panel = cx.view_mut(panel);
                let mut tau = Vec::new();
                geqr2(panel.rb(), &mut tau);
                let kv = tau.len();
                let mut t = Matrix::zeros(kv, kv);
                larft(panel.as_ref().sub(0, 0, m - k0, kv), &tau, t.view_mut());
                cx.put(t_slot, (k0, w, t));
            });
            ts.push(t_slot);

            for cols in column_strips(k0 + w..n, nb, strips) {
                let (c0, wc) = (cols.start, cols.len());
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Update, step, 0, c0 / nb),
                    flops::larfb(m - k0, wc, w),
                )
                .with_bytes(traffic::larfb(m - k0, wc, w))
                .with_priority(pr + 100)
                .with_class(KernelClass::Larfb);
                let mut t = pb.task(meta);
                t.reads_slot(t_slot);
                let v = t.reads_rect(ElemRect::new(k0..m, k0..k0 + w));
                let strip = t.writes_rect(ElemRect::new(k0..m, cols));
                t.run(move |cx| {
                    let (_, _, t) = cx.get(t_slot);
                    let v = cx.view(v.block(k0, k0, m - k0, t.nrows()));
                    larfb_left(Trans::Yes, v, t.view(), cx.view_mut(strip));
                });
            }
        }

        pb.finish(move |a, slots| {
            let panels = ts.into_iter().map(|t| slots.take(t)).collect::<Option<_>>()?;
            Some((a, BlockedQr { panels }))
        })
    }
}

/// Blocked `dgeqrf` in place with panel width `nb` on `threads` workers:
/// the `dlarfb` trailing update of each step runs as up to `threads` column
/// strips; the panel factorization is always one sequential BLAS2 task.
///
/// # Panics
/// If a worker task panics.
pub fn geqrf_blocked(a: &mut Matrix, nb: usize, threads: usize) -> BlockedQr {
    crate::run_in_place(BlockedQrPlan::build(a.nrows(), a.ncols(), nb, threads), a, threads)
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
        let plan = BlockedQrPlan::build(1000, 500, 100, 8);
        let g = plan.graph();
        g.validate();
        assert!(g.total_flops() >= flops::geqrf(1000, 500) * 0.95);
    }
}
