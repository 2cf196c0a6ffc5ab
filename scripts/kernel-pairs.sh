#!/usr/bin/env bash
# One-process A/B timing of the small-shape kernel rows against a parent
# revision: the kernel rows of EXPERIMENTS.md "PR 38" and "PR 40".
#
#   scripts/kernel-pairs.sh <parent-rev|dir> [pairs=21] [min-batch-ms=3]
#
# Builds <parent-rev> in a git worktree under target/kernel-pairs/ (a
# directory given in its place is used as the parent checkout as it is),
# copies the parent's ca-kernels and ca-matrix into a temporary workspace
# under renamed packages, and links them next to the working tree's crates
# into one throwaway binary. Per row it times batches of calls on both
# sides in alternation (the side that goes first alternating), and prints
# the median time of each side, the median of the per-pair ratios
# head/parent with its quartiles, and in how many pairs head was faster.
# Both sides are built with every loop aligned to a cache line and jumps
# kept off 32-byte boundaries (-align-loops=64,
# -x86-branches-within-32B-boundaries): without them, where a hot loop
# happens to land moves identical code by up to 18 % between the two sides
# on AVX-512 Xeons (f32 `gemm` 32³ read 1.18× in an A/A run, 1.015× with
# the jump padding), and an edit to one kernel moved another's time by up
# to 35 %. KERNEL_PAIRS_RUSTFLAGS replaces those flags ("" builds as the
# benchmark does). CA_KERNELS_BACKEND pins both sides'
# dispatch; KERNEL_PAIRS_ROWS='<a>|<b>|…' keeps only the rows whose name
# contains one of the substrings.
# The table is evidence, not a gate: the exit status is non-zero only when
# the build or a run fails.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,26p' "$0" >&2; exit 2; }
rev=$1 pairs=${2:-21} batch_ms=${3:-3}
root=$(git rev-parse --show-toplevel)
cd "$root"

if [ -d "$rev" ]; then
    parent=$(cd "$rev" && pwd)
else
    parent=$root/target/kernel-pairs/parent
    git worktree remove --force "$parent" 2>/dev/null || true
    git worktree add --force --detach "$parent" "$rev" >&2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/harness/src"
for c in ca-kernels ca-matrix; do
    cp -r "$parent/crates/$c" "$work/parent/$c"
    rm -rf "$work/parent/$c/tests" "$work/parent/$c/benches"
    sed -i "s/^name = \"$c\"/name = \"$c-parent\"/" "$work/parent/$c/Cargo.toml"
done

cat >"$work/Cargo.toml" <<EOF
[workspace]
members = ["parent/ca-kernels", "parent/ca-matrix", "harness"]
resolver = "2"

[workspace.package]
version = "0.1.0"
edition = "2021"
license = "MIT OR Apache-2.0"

[workspace.dependencies]
ca-matrix = { package = "ca-matrix-parent", path = "parent/ca-matrix" }
rand = { path = "$root/vendor/rand", default-features = false, features = ["std", "std_rng", "small_rng"] }
proptest = { path = "$root/vendor/proptest" }
serde = { path = "$root/vendor/serde", features = ["derive"] }

[profile.release]
debug = true
lto = false
codegen-units = 16
EOF

cat >"$work/harness/Cargo.toml" <<EOF
[package]
name = "kernel-pairs"
version = "0.1.0"
edition = "2021"

[dependencies]
head_kernels = { package = "ca-kernels", path = "$root/crates/ca-kernels" }
head_matrix = { package = "ca-matrix", path = "$root/crates/ca-matrix" }
parent_kernels = { package = "ca-kernels-parent", path = "../parent/ca-kernels" }
parent_matrix = { package = "ca-matrix-parent", path = "../parent/ca-matrix" }
EOF

cat >"$work/harness/src/main.rs" <<'EOF'
/// One kernel call of a row; `f32` says the precision.
#[derive(Clone, Copy)]
enum Op {
    Rgetf2(usize, usize),
    /// Left lower unit (`true`) or right upper non-unit, order, free dimension.
    Trsm(bool, usize, usize),
    /// `op(A) = Aᵀ`, m, n, k.
    Gemm(bool, usize, usize, usize),
    Geqr3(usize, usize),
    /// V rows, reflectors, C columns.
    Larfb(usize, usize, usize),
    /// A TT node apply: reflectors, C columns.
    Tt(usize, usize),
}

/// Deterministic inputs in [-1, 1), the same on both sides.
fn fill(m: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (0..m * n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

macro_rules! side {
    ($name:ident, $k:ident, $m:ident) => {
        mod $name {
            use super::{fill, Op};
            use $k::{Diag, Kernel, Side, Trans, Uplo, VRest};
            use $m::Matrix;
            use std::time::Instant;

            fn mat<T: Kernel>(m: usize, n: usize, seed: u64, f: impl Fn(usize, usize, f64) -> f64) -> Matrix<T> {
                let v = fill(m, n, seed);
                let a: Matrix<f64> = Matrix::from_fn(m, n, |i, j| f(i, j, v[i + j * m]));
                Matrix::from_f64(&a)
            }

            /// Seconds per call over `reps` calls, inputs prepared outside the clock.
            pub fn time<T: Kernel>(op: Op, reps: usize) -> f64 {
                let rand = |_: usize, _: usize, x: f64| x;
                match op {
                    Op::Rgetf2(m, n) => {
                        let a0 = mat::<T>(m, n, 1, rand);
                        let mut a: Vec<_> = (0..reps).map(|_| a0.clone()).collect();
                        let t = Instant::now();
                        a.iter_mut().for_each(|a| drop($k::rgetf2(a.view_mut())));
                        t.elapsed().as_secs_f64() / reps as f64
                    }
                    Op::Trsm(left, n, free) => {
                        let tri = mat::<T>(n, n, 2, |i, j, x| if i == j { 2.0 + x.abs() } else { x / n as f64 });
                        let (r, c) = if left { (n, free) } else { (free, n) };
                        let b0 = mat::<T>(r, c, 3, rand);
                        let mut b: Vec<_> = (0..reps).map(|_| b0.clone()).collect();
                        let t = Instant::now();
                        for b in &mut b {
                            if left {
                                $k::trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, tri.view(), b.view_mut());
                            } else {
                                $k::trsm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, tri.view(), b.view_mut());
                            }
                        }
                        t.elapsed().as_secs_f64() / reps as f64
                    }
                    Op::Gemm(ta, m, n, k) => {
                        let a = if ta { mat::<T>(k, m, 4, rand) } else { mat::<T>(m, k, 4, rand) };
                        let b = mat::<T>(k, n, 5, rand);
                        let c0 = mat::<T>(m, n, 6, rand);
                        let mut c: Vec<_> = (0..reps).map(|_| c0.clone()).collect();
                        let ta = if ta { Trans::Yes } else { Trans::No };
                        let t = Instant::now();
                        for c in &mut c {
                            $k::gemm(ta, Trans::No, -T::ONE, a.view(), b.view(), T::ONE, c.view_mut());
                        }
                        t.elapsed().as_secs_f64() / reps as f64
                    }
                    Op::Geqr3(m, n) => {
                        let a0 = mat::<T>(m, n, 7, rand);
                        let mut a: Vec<_> = (0..reps).map(|_| a0.clone()).collect();
                        let mut tt = Matrix::<T>::zeros(n, n);
                        let t = Instant::now();
                        a.iter_mut().for_each(|a| $k::geqr3(a.view_mut(), tt.view_mut()));
                        t.elapsed().as_secs_f64() / reps as f64
                    }
                    Op::Larfb(m, k, n) => {
                        let v = mat::<T>(m, k, 8, |_, _, x| x / m as f64);
                        let tf = mat::<T>(k, k, 9, |i, j, x| if i <= j { x } else { 0.0 });
                        let c0 = mat::<T>(m, n, 10, rand);
                        let mut c: Vec<_> = (0..reps).map(|_| c0.clone()).collect();
                        let t = Instant::now();
                        for c in &mut c {
                            $k::larfb_left(Trans::Yes, v.view(), tf.view(), c.view_mut());
                        }
                        t.elapsed().as_secs_f64() / reps as f64
                    }
                    Op::Tt(k, n) => {
                        let v = mat::<T>(k, k, 11, |i, j, x| if i <= j { x / k as f64 } else { 0.0 });
                        let tf = mat::<T>(k, k, 12, |i, j, x| if i <= j { x } else { 0.0 });
                        let c0 = mat::<T>(2 * k, n, 13, rand);
                        let mut c: Vec<_> = (0..reps).map(|_| c0.clone()).collect();
                        let t = Instant::now();
                        for c in &mut c {
                            let (top, bot) = c.view_mut().split_at_row(k);
                            $k::larfb_left_multi(Trans::Yes, None, &[v.view()], VRest::UpperTrapezoid, tf.view(), top, &mut [bot]);
                        }
                        t.elapsed().as_secs_f64() / reps as f64
                    }
                }
            }
        }
    };
}
side!(head, head_kernels, head_matrix);
side!(parent, parent_kernels, parent_matrix);

fn quartiles(mut x: Vec<f64>) -> [f64; 3] {
    x.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let p = q * (x.len() - 1) as f64;
        let (i, f) = (p.floor() as usize, p - p.floor());
        x[i] + f * (x[(i + 1).min(x.len() - 1)] - x[i])
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pairs: usize = args[1].parse().expect("pairs");
    let batch = args[2].parse::<f64>().expect("batch ms") / 1e3;
    let only = std::env::var("KERNEL_PAIRS_ROWS").unwrap_or_default();
    use Op::*;
    let rows: &[(&str, bool, Op)] = &[
        ("rgetf2 64x64", false, Rgetf2(64, 64)),
        ("rgetf2 128x64", false, Rgetf2(128, 64)),
        ("rgetf2 192x64", false, Rgetf2(192, 64)),
        ("rgetf2 64x16", false, Rgetf2(64, 16)),
        ("rgetf2 12500x100", false, Rgetf2(12500, 100)),
        ("trsm_left_lower_unit 64x64", false, Trsm(true, 64, 64)),
        ("trsm_right_upper_notrans 64x64", false, Trsm(false, 64, 64)),
        ("trsm_left_lower_unit 64x704", false, Trsm(true, 64, 704)),
        ("gemm 32x32x32", false, Gemm(false, 32, 32, 32)),
        ("gemm 64x64x64", false, Gemm(false, 64, 64, 64)),
        ("gemm T,N 16x16x64", false, Gemm(true, 16, 16, 64)),
        ("gemm T,N 32x64x64", false, Gemm(true, 32, 64, 64)),
        ("gemm T,N 32x64x128", false, Gemm(true, 32, 64, 128)),
        ("geqr3 16x16", false, Geqr3(16, 16)),
        ("geqr3 64x16", false, Geqr3(64, 16)),
        ("geqr3 64x32", false, Geqr3(64, 32)),
        ("geqr3 64x64", false, Geqr3(64, 64)),
        ("geqr3 128x64", false, Geqr3(128, 64)),
        ("geqr3 192x64", false, Geqr3(192, 64)),
        ("geqr3 256x64", false, Geqr3(256, 64)),
        ("geqr3 12500x100", false, Geqr3(12500, 100)),
        ("larfb_left 64x64 on 64", false, Larfb(64, 64, 64)),
        ("larfb_left 128x64 on 64", false, Larfb(128, 64, 64)),
        ("larfb_left 192x64 on 64", false, Larfb(192, 64, 64)),
        ("larfb_left 512x64 on 64", false, Larfb(512, 64, 64)),
        ("larfb_left 1024x32 on 64", false, Larfb(1024, 32, 64)),
        ("larfb_left 1024x32 on 32", false, Larfb(1024, 32, 32)),
        ("larfb_left 256x64 on 192", false, Larfb(256, 64, 192)),
        ("TT node apply 64 on 64", false, Tt(64, 64)),
        ("TT node apply 64 on 192", false, Tt(64, 192)),
        ("f32 rgetf2 64x64", true, Rgetf2(64, 64)),
        ("f32 rgetf2 128x64", true, Rgetf2(128, 64)),
        ("f32 gemm 32x32x32", true, Gemm(false, 32, 32, 32)),
        ("f32 gemm 64x64x64", true, Gemm(false, 64, 64, 64)),
        ("f32 geqr3 64x64", true, Geqr3(64, 64)),
    ];
    let backend = head_kernels::gemm_backend();
    println!("{pairs} alternating pairs per row, backend {backend} (head) / {} (parent)", parent_kernels::gemm_backend());
    println!("{:<32}{:>12}{:>12}  {:<26}{}", "kernel", "parent us", "head us", "head/parent [q1, q3]", "head faster");
    let mut worst = 0f64;
    for &(name, f32, op) in rows.iter().filter(|r| only.split('|').any(|o| r.0.contains(o))) {
        let run = |head: bool, reps: usize| match (head, f32) {
            (true, false) => head::time::<f64>(op, reps),
            (true, true) => head::time::<f32>(op, reps),
            (false, false) => parent::time::<f64>(op, reps),
            (false, true) => parent::time::<f32>(op, reps),
        };
        // Warm both sides, then size a batch to about `batch` seconds.
        let one = (run(true, 1) + run(false, 1) + run(true, 1)) / 3.0;
        let reps = ((batch / one).ceil() as usize).clamp(1, 4096);
        let (mut h, mut p, mut ratio) = (vec![], vec![], vec![]);
        for i in 0..pairs {
            let (th, tp) = if i % 2 == 0 {
                let th = run(true, reps);
                (th, run(false, reps))
            } else {
                let tp = run(false, reps);
                (run(true, reps), tp)
            };
            h.push(th);
            p.push(tp);
            ratio.push(th / tp);
        }
        let wins = ratio.iter().filter(|&&r| r < 1.0).count();
        let [q1, med, q3] = quartiles(ratio);
        worst = worst.max(med);
        let us = |x: Vec<f64>| quartiles(x)[1] * 1e6;
        println!(
            "{name:<32}{:>12.3}{:>12.3}  {:<26}{wins}/{pairs}",
            us(p),
            us(h),
            format!("{med:.3} [{q1:.3}, {q3:.3}]")
        );
    }
    println!("largest median ratio: {worst:.3}");
}
EOF

flags=${KERNEL_PAIRS_RUSTFLAGS--C llvm-args=-align-loops=64 -C llvm-args=-x86-branches-within-32B-boundaries}
(cd "$work" && RUSTFLAGS="$flags" cargo build --release --offline --quiet -p kernel-pairs) >&2
"$work/target/release/kernel-pairs" "$pairs" "$batch_ms"
