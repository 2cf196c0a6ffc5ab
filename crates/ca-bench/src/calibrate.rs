//! Host calibration: measures the single-thread throughput (flops/s) of
//! every kernel class on this machine. The multicore simulator divides task
//! flop counts by these throughputs, so simulated GFlop/s are anchored to
//! what the kernels actually achieve here — only the core count is virtual
//! (see DESIGN.md, hardware substitution).

use ca_core::tsqr::{node_apply, node_qr, NodePlan};
use ca_kernels::flops;
use ca_matrix::{seeded_rng, Matrix, SharedMatrix};
use ca_sched::KernelClass;
use std::collections::HashMap;
use std::time::Instant;

/// Measured flops-per-second by kernel class, plus stream bandwidth.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Calibration {
    /// flops/s per kernel class (keys serialized as class names).
    pub throughput: HashMap<String, f64>,
    /// Single-core memory bandwidth in bytes/s (large-copy stream measure),
    /// used by the roofline cost model.
    pub bandwidth: f64,
}

fn key(c: KernelClass) -> String {
    format!("{c:?}")
}

impl Calibration {
    /// Throughput for a class, falling back to the `Other` entry.
    pub fn flops_per_sec(&self, c: KernelClass) -> f64 {
        self.throughput
            .get(&key(c))
            .or_else(|| self.throughput.get(&key(KernelClass::Other)))
            .copied()
            .unwrap_or(1e9)
    }

    /// A fixed reference calibration (used by tests and for reproducible
    /// simulated figures independent of host noise). Ratios follow what the
    /// measured pass typically reports on commodity x86: BLAS3 ≈ 3–5× the
    /// BLAS2 panels. `Trsm`, `LuRecursive`, `QrRecursive` and `QrBlas2` are
    /// set from the measured pass on the reference AVX-512 host, as fractions
    /// of its `Gemm` rate: the Task-L solve at 0.77 of gemm, and on the
    /// 20000 x 100 panel (copy charged) `rgetf2` at 0.44, `geqr3` at 0.26 and
    /// `geqr2` at 0.067.
    pub fn reference() -> Self {
        let mut t = HashMap::new();
        t.insert(key(KernelClass::Gemm), 3.0e9);
        t.insert(key(KernelClass::Trsm), 2.3e9);
        t.insert(key(KernelClass::Larfb), 2.5e9);
        t.insert(key(KernelClass::LuBlas2), 0.8e9);
        t.insert(key(KernelClass::LuRecursive), 1.3e9);
        t.insert(key(KernelClass::QrBlas2), 0.2e9);
        t.insert(key(KernelClass::QrRecursive), 0.8e9);
        t.insert(key(KernelClass::Memory), 1.0e9);
        t.insert(key(KernelClass::Other), 1.0e9);
        Self { throughput: t, bandwidth: 8.0e9 }
    }
}

/// Times `f` (which performs `fl` flops per call), repeating until at least
/// `min_time` has elapsed; returns flops/s.
fn time_kernel(mut f: impl FnMut(), fl: f64, min_time: f64) -> f64 {
    // Warm-up.
    f();
    let mut reps = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= min_time {
            return fl * reps as f64 / dt;
        }
        reps = reps.saturating_mul(2).min(1 << 20);
    }
}

/// Measures all kernel classes. `quick` shrinks problem sizes and the
/// minimum timing window (for tests / smoke runs).
pub fn calibrate(quick: bool) -> Calibration {
    let mut rng = seeded_rng(12345);
    let (mt, b) = if quick { (2000, 50) } else { (20_000, 100) };
    let min_time = if quick { 0.02 } else { 0.25 };
    let mut t = HashMap::new();

    // Gemm: tall panel times block row — the trailing-update shape.
    {
        let l = ca_matrix::random_uniform(mt, b, &mut rng);
        let u = ca_matrix::random_uniform(b, b, &mut rng);
        let mut c = Matrix::zeros(mt, b);
        let fl = flops::gemm(mt, b, b);
        let tput = time_kernel(
            || {
                ca_kernels::gemm(
                    ca_kernels::Trans::No,
                    ca_kernels::Trans::No,
                    -1.0,
                    l.view(),
                    u.view(),
                    1.0,
                    c.view_mut(),
                )
            },
            fl,
            min_time,
        );
        t.insert(key(KernelClass::Gemm), tput);
    }

    // Trsm: the Task-L shape (tall block times b×b triangle).
    {
        let mut u = ca_matrix::random_uniform(b, b, &mut rng);
        for i in 0..b {
            for j in 0..i {
                u[(i, j)] = 0.0;
            }
            u[(i, i)] += 2.0;
        }
        let mut c = ca_matrix::random_uniform(mt, b, &mut rng);
        let fl = flops::trsm_right(mt, b);
        let tput = time_kernel(
            || ca_kernels::trsm_right_upper_notrans(u.view(), c.view_mut()),
            fl,
            min_time,
        );
        t.insert(key(KernelClass::Trsm), tput);
    }

    // Larfb: the three shapes CAQR's S tasks take — a tall leaf, a short
    // leaf whose triangular products weigh as much as its gemms, and a tree
    // node of two stacked triangles. The class rate is that of running one
    // of each (total flops over total seconds): a tree pairs every leaf
    // with about one node, and the tall block's near-gemm number alone
    // would flatter the short tasks.
    {
        let (mut total_fl, mut total_s) = (0.0, 0.0);
        let mut add = |fl: f64, rate: f64| {
            total_fl += fl;
            total_s += fl / rate;
        };
        for leaf in [mt, 2 * b] {
            let mut v = ca_matrix::random_uniform(leaf, b, &mut rng);
            let mut tt = Matrix::zeros(b, b);
            ca_kernels::geqr3(v.view_mut(), tt.view_mut());
            let mut c = ca_matrix::random_uniform(leaf, b, &mut rng);
            let fl = flops::larfb(leaf, b, b);
            let apply = || ca_kernels::larfb_left(ca_kernels::Trans::Yes, v.view(), tt.view(), c.view_mut());
            add(fl, time_kernel(apply, fl, min_time));
        }
        // `node_qr` reads only the upper triangle of each participant.
        let stack = SharedMatrix::new(ca_matrix::random_uniform(2 * b, b, &mut rng));
        let plan = NodePlan { level: 0, participants: vec![0, 1], row_ranges: vec![0..b, b..2 * b], kk: b };
        let node = node_qr(&stack, 0, b, &plan);
        let c = SharedMatrix::new(ca_matrix::random_uniform(2 * b, b, &mut rng));
        let fl = flops::larfb_node(flops::upper_trapezoid_len(b, b), b, b);
        add(fl, time_kernel(|| node_apply(&node, &c, 0..b, ca_kernels::Trans::Yes), fl, min_time));
        t.insert(key(KernelClass::Larfb), total_fl / total_s);
    }

    // Panel kernels on the tall-panel shape, fresh input per repetition via
    // restore-from-copy (the copy cost is charged; panels are factored once
    // per panel in reality, so warm-cache repetition would flatter them).
    let a0 = ca_matrix::random_uniform(mt, b, &mut rng);
    {
        let mut a = a0.clone();
        let fl = flops::getrf(mt, b);
        let tput = time_kernel(
            || {
                a.view_mut().copy_from(a0.view());
                ca_kernels::getf2(a.view_mut());
            },
            fl,
            min_time,
        );
        t.insert(key(KernelClass::LuBlas2), tput);
    }
    {
        let mut a = a0.clone();
        let fl = flops::getrf(mt, b);
        let tput = time_kernel(
            || {
                a.view_mut().copy_from(a0.view());
                ca_kernels::rgetf2(a.view_mut());
            },
            fl,
            min_time,
        );
        t.insert(key(KernelClass::LuRecursive), tput);
    }
    {
        let mut a = a0.clone();
        let mut tau = Vec::new();
        let fl = flops::geqrf(mt, b);
        let tput = time_kernel(
            || {
                a.view_mut().copy_from(a0.view());
                ca_kernels::geqr2(a.view_mut(), &mut tau);
            },
            fl,
            min_time,
        );
        t.insert(key(KernelClass::QrBlas2), tput);
    }
    {
        let mut a = a0.clone();
        let mut tt = Matrix::zeros(b, b);
        let fl = flops::geqrf(mt, b);
        let tput = time_kernel(
            || {
                a.view_mut().copy_from(a0.view());
                ca_kernels::geqr3(a.view_mut(), tt.view_mut());
            },
            fl,
            min_time,
        );
        t.insert(key(KernelClass::QrRecursive), tput);
    }

    // Memory class: row swaps over a tall panel, expressed as "flops"/s with
    // one nominal flop per element moved.
    {
        let mut a = a0.clone();
        let swaps = b;
        let fl = (swaps * b) as f64;
        let tput = time_kernel(
            || {
                for k in 0..swaps {
                    a.swap_rows(k, mt - 1 - k);
                }
            },
            fl,
            min_time,
        );
        t.insert(key(KernelClass::Memory), tput);
    }

    t.insert(key(KernelClass::Other), t[&key(KernelClass::Gemm)]);

    // Stream bandwidth: copy a buffer far larger than cache.
    let bandwidth = {
        let len = if quick { 4 << 20 } else { 32 << 20 }; // elements
        let src = vec![1.0f64; len];
        let mut dst = vec![0.0f64; len];
        let bytes = 16.0 * len as f64; // read + write
        time_kernel(
            || {
                dst.copy_from_slice(&src);
                std::hint::black_box(dst[len / 2]);
            },
            bytes,
            min_time,
        )
    };
    Calibration { throughput: t, bandwidth }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_produces_sane_numbers() {
        let c = calibrate(true);
        for class in [
            KernelClass::Gemm,
            KernelClass::Trsm,
            KernelClass::Larfb,
            KernelClass::LuBlas2,
            KernelClass::LuRecursive,
            KernelClass::QrBlas2,
            KernelClass::QrRecursive,
        ] {
            let f = c.flops_per_sec(class);
            assert!(f > 1e6 && f < 1e12, "{class:?}: {f}");
        }
    }

    #[test]
    fn reference_calibration_orders_blas_levels() {
        let c = Calibration::reference();
        assert!(c.flops_per_sec(KernelClass::Gemm) > c.flops_per_sec(KernelClass::LuBlas2));
        assert!(c.flops_per_sec(KernelClass::LuRecursive) > c.flops_per_sec(KernelClass::LuBlas2));
        assert!(c.flops_per_sec(KernelClass::QrRecursive) > c.flops_per_sec(KernelClass::QrBlas2));
    }

    #[test]
    fn unknown_class_falls_back() {
        let c = Calibration::reference();
        assert!(c.flops_per_sec(KernelClass::Other) > 0.0);
    }

    #[test]
    fn bandwidth_is_measured_and_sane() {
        let c = calibrate(true);
        assert!(c.bandwidth > 1e8 && c.bandwidth < 1e12, "bandwidth {}", c.bandwidth);
    }
}
