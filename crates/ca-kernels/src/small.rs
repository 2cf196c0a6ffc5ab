//! The small-shape toolkit (DESIGN.md §10, "Small shapes"): what the
//! register-speed paths of [`crate::gemm`], [`crate::trsm`],
//! [`crate::rgetf2`] and [`crate::geqr3`] share.
//!
//! - [`walk`] covers a row range with register blocks of a const height,
//!   top-down or bottom-up, and [`chunk`]/[`chunk_mut`] give a block's rows
//!   of a column as an array;
//! - [`update`] is the register-block update `acc −= Σⱼ colⱼ·wⱼ`;
//! - [`Block`] is a stack block with straight and transposed loads and
//!   stores;
//! - [`Bounds`] is the per-backend table of every switch between paths that
//!   give the same bits, held in [`KernelSpec::bounds`](crate::KernelSpec).
//!
//! Every piece gives each element the operations of the plain loop in the
//! same order: which block an element lands in decides its operations only
//! where a caller folds by lane (QR's sums of squares), and those callers
//! fix their heights.

use crate::gemm::{nmul_add, SmallGemm, Trans, KC, LANES};
use ca_matrix::{MatView, MatViewMut, Scalar};
use core::mem::MaybeUninit;
use core::ops::Range;

/// Every register-block height, largest first.
pub(crate) const HEIGHTS: &[usize] = &[LANES, 32, 16, 8, 1];

/// What a [`walk`] visits: rows `r0..r0 + R` as one register block. A
/// visitor's state is inlined away only while no field's address reaches an
/// out-of-line call: state such a call writes (`rgetf2`'s running pivot)
/// sits behind a reference to a local, or the whole visitor stays in memory
/// (`rgetf2` ran 4–11 % slower so).
pub(crate) trait Rows {
    fn rows<const R: usize>(&mut self, r0: usize);
}

/// Covers `rows` with blocks whose heights come from `heights` (a subset of
/// [`HEIGHTS`], largest first, ending in 1). Top-down each block is the
/// largest that fits. Bottom-up each is the smallest that covers what is
/// left, reaching above `rows.start` where the rows exist (the caller
/// discards what it computes there), else the largest that fits below the
/// last: no row runs alone while eight rows exist above it.
#[inline(always)]
pub(crate) fn walk(rows: Range<usize>, heights: &[usize], up: bool, v: &mut impl Rows) {
    let Range { start, mut end } = rows;
    if !up {
        let mut next = start;
        for &h in heights {
            match h {
                LANES => run::<LANES>(&mut next, end, v),
                32 => run::<32>(&mut next, end, v),
                16 => run::<16>(&mut next, end, v),
                8 => run::<8>(&mut next, end, v),
                _ => run::<1>(&mut next, end, v),
            }
        }
        return;
    }
    while end > start {
        let need = end - start;
        let cover = heights.iter().rev().copied().find(|&h| h >= need).unwrap_or(heights[0]);
        let r = if cover <= end { cover } else { largest(heights, end) };
        match r {
            LANES => v.rows::<LANES>(end - r),
            32 => v.rows::<32>(end - r),
            16 => v.rows::<16>(end - r),
            8 => v.rows::<8>(end - r),
            _ => v.rows::<1>(end - r),
        }
        end -= r.min(need);
    }
}

/// As many blocks of `R` rows from `next` as fit below `end`.
#[inline(always)]
fn run<const R: usize>(next: &mut usize, end: usize, v: &mut impl Rows) {
    while *next + R <= end {
        v.rows::<R>(*next);
        *next += R;
    }
}

/// The largest of `heights` that is at most `n` (`n ≥ 1`).
#[inline(always)]
fn largest(heights: &[usize], n: usize) -> usize {
    heights.iter().copied().find(|&h| h <= n).unwrap_or(1)
}

/// `x[r0..r0 + R]` as an array.
#[inline(always)]
pub(crate) fn chunk<T, const R: usize>(x: &[T], r0: usize) -> &[T; R] {
    &x[r0..r0 + R].as_chunks().0[0]
}

/// `x[r0..r0 + R]` as a mutable array.
#[inline(always)]
pub(crate) fn chunk_mut<T, const R: usize>(x: &mut [T], r0: usize) -> &mut [T; R] {
    &mut x[r0..r0 + R].as_chunks_mut().0[0]
}

/// The register-block update `acc −= Σⱼ colⱼ·wⱼ`, `j` in the order of
/// `cols`, with the backend's multiply-add: LU's elimination step, QR's
/// `c − V·w` and `trsm`'s substitution are all this loop.
#[inline(always)]
pub(crate) fn update<'a, T: Scalar, const FMA: bool, const R: usize>(
    acc: &mut [T; R],
    cols: impl IntoIterator<Item = (&'a [T; R], T)>,
) {
    for (col, w) in cols {
        for (acc, &x) in acc.iter_mut().zip(col) {
            *acc = nmul_add::<T, FMA>(x, w, *acc);
        }
    }
}

/// Up to `N` columns of `ROWS` rows on the stack, each column written whole
/// when it is loaded (zeros past the source) and nothing initialised before:
/// a block costs only what is loaded into it. Aligned to a cache line, so
/// where the block lands in a stack frame does not decide whether its
/// vector loads split lines.
#[repr(C, align(64))]
pub(crate) struct Block<T, const ROWS: usize, const N: usize> {
    cols: [[MaybeUninit<T>; ROWS]; N],
    len: usize,
}

impl<T: Scalar, const ROWS: usize, const N: usize> Block<T, ROWS, N> {
    #[inline(always)]
    pub(crate) fn new() -> Self {
        Block { cols: [[MaybeUninit::uninit(); ROWS]; N], len: 0 }
    }

    /// `N` columns of zeros (all-zero bytes are `+0` for both float types),
    /// the first `a.ncols()` holding `a`'s.
    #[inline(always)]
    pub(crate) fn zeroed(a: MatView<'_, T>) -> Self {
        let mut b = Block { cols: [[MaybeUninit::zeroed(); ROWS]; N], len: N };
        for (j, col) in b.cols_mut().iter_mut().enumerate().take(a.ncols()) {
            col[..a.nrows()].copy_from_slice(a.col(j));
        }
        b
    }

    /// Column `p` := row `p` of `a`, then zeros: `a`'s columns become the
    /// block's rows.
    #[inline(always)]
    pub(crate) fn load_t(&mut self, a: MatView<'_, T>) {
        let cols = &mut self.cols[..a.nrows()];
        for i in 0..ROWS {
            if i < a.ncols() {
                for (col, &v) in cols.iter_mut().zip(a.col(i)) {
                    col[i] = MaybeUninit::new(v);
                }
            } else {
                cols.iter_mut().for_each(|col| col[i] = MaybeUninit::new(T::ZERO));
            }
        }
        self.len = a.nrows();
    }

    /// Column `j` of `a` := the first `a.nrows()` rows of column `j`.
    #[inline(always)]
    pub(crate) fn store(&self, mut a: MatViewMut<'_, T>) {
        let m = a.nrows();
        for (j, col) in self.cols().iter().enumerate().take(a.ncols()) {
            a.col_mut(j).copy_from_slice(&col[..m]);
        }
    }

    /// Row `p` of `a` := the first `a.ncols()` rows of column `p`.
    #[inline(always)]
    pub(crate) fn store_t(&self, mut a: MatViewMut<'_, T>) {
        let cols = self.cols();
        for i in 0..a.ncols() {
            for (x, col) in a.col_mut(i).iter_mut().zip(cols) {
                *x = col[i];
            }
        }
    }

    /// The loaded columns.
    #[inline(always)]
    pub(crate) fn cols(&self) -> &[[T; ROWS]] {
        // SAFETY: the first `len` columns were written whole by a load, and
        // `[MaybeUninit<T>; ROWS]` has the layout of `[T; ROWS]`.
        unsafe { core::slice::from_raw_parts(self.cols.as_ptr().cast(), self.len) }
    }

    /// The loaded columns, mutably.
    #[inline(always)]
    pub(crate) fn cols_mut(&mut self) -> &mut [[T; ROWS]] {
        // SAFETY: as in `cols`.
        unsafe { core::slice::from_raw_parts_mut(self.cols.as_mut_ptr().cast(), self.len) }
    }
}

/// `X` on a cache-line boundary: where a stack table lands in a frame then
/// does not decide whether its vector loads split lines.
#[repr(C, align(64))]
pub(crate) struct Line<X>(pub(crate) X);

/// Every switch between two paths that give the same bits, for one backend
/// and precision. Each bound is where the path it admits measured faster,
/// with the switch forced both ways in one process; the tables behind them
/// are EXPERIMENTS.md "PR 38" (`gemm` N,N, `rgetf2`) and "PR 40" (`gemm`
/// T,N, `geqr3`). A function of the operand shape alone, so every route —
/// DAG, sequential, out-of-core, served — runs the same code on a shape.
pub(crate) struct Bounds<T: Scalar> {
    /// [`crate::gemm`] without packing, on the microkernel's arithmetic;
    /// `None` where it lost everywhere: at f32 the unpacked tiles do not
    /// vectorise (2–20× slower), on the scalar backend up to 7 % slower.
    pub(crate) gemm: Option<SmallGemm<T>>,
    /// Largest `op(A)` (`m·k`) the unpacked `gemm` takes: 32 KiB at f64, so
    /// `A` stays in L1 while the tiles sweep `B`.
    pub(crate) gemm_a: usize,
    /// Largest `C` per unit of depth (`m·n / k`) the unpacked `gemm` takes
    /// for `op(A) = A`: at `k` = 16 it won up to `m·n` ≈ 3 000 and lost
    /// from ≈ 3 800; at `k` = 32 and 64 it won to about twice and three
    /// times that.
    pub(crate) gemm_c_per_k: usize,
    /// Rows of `op(A) = Aᵀ` up to which the unpacked `gemm` takes any depth;
    /// past them it needs `k ≥ m`. At 16 rows it won at every width and
    /// depth (0.41–0.99×); at 32–64 rows depths below `m` lost by up to 27 %
    /// and depths from `m` on won by 6–29 % on all shapes but one.
    pub(crate) gemm_t_rows: usize,
    /// Rows up to which `rgetf2`'s base case walks bottom-up with a
    /// separate pivot pass; taller views walk top-down with the pivot search
    /// folded in. Short against top-down: 0.91× at 64 rows, 0.95× at 128,
    /// 1.01× at 192, 1.05–1.17× from 384 rows to a 12500-row leaf.
    pub(crate) lu_short_rows: usize,
    /// Rows up to which `geqr3`'s base case runs on a padded stack copy of
    /// the panel. Short view against the row-block path at 16 / 64 / 128
    /// rows: AVX-512 0.66 / 0.80 / 0.94× (f64), AVX2 0.73 / 0.92 / 1.13×,
    /// scalar 0.93 / 1.16 / 1.27×; f32 within a few percent of f64.
    pub(crate) qr_short_rows: usize,
}

impl<T: Scalar> Bounds<T> {
    /// The AVX-512 table (the `gemm` entry is filled in at f64).
    pub(crate) const AVX512: Self = Bounds {
        gemm: None,
        gemm_a: 4096,
        gemm_c_per_k: 128,
        gemm_t_rows: 16,
        lu_short_rows: 128,
        qr_short_rows: 128,
    };
    /// The AVX2 table: `geqr3`'s short view breaks even at 80 rows.
    pub(crate) const AVX2: Self = Bounds { qr_short_rows: 64, ..Self::AVX512 };
    /// The scalar table: `geqr3`'s short view breaks even at 32 rows.
    pub(crate) const SCALAR: Self = Bounds { qr_short_rows: 32, ..Self::AVX512 };

    /// Whether `gemm` with an `m × k` `op(A)` into an `m × n` `C` takes
    /// the unpacked path: one `KC` block deep, `A` within
    /// [`Bounds::gemm_a`], and `C` within [`Bounds::gemm_c_per_k`]
    /// (`op(A) = A`) or `A` within [`Bounds::gemm_t_rows`] or as deep as it
    /// is tall (`op(A) = Aᵀ`).
    pub(crate) fn gemm_fits(&self, ta: Trans, m: usize, n: usize, k: usize) -> bool {
        k <= KC
            && m * k <= self.gemm_a
            && match ta {
                Trans::No => m * n <= self.gemm_c_per_k * k,
                Trans::Yes => m <= self.gemm_t_rows || m <= k,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_available_backends, mul_add, on_backend};
    use ca_matrix::Matrix;

    /// Records every block a walk hands out.
    struct Seen(Vec<(usize, usize)>);

    impl Rows for Seen {
        fn rows<const R: usize>(&mut self, r0: usize) {
            self.0.push((r0, R));
        }
    }

    #[test]
    fn walks_cover_every_row_once_in_both_directions() {
        let sets: [&[usize]; 2] = [HEIGHTS, &[LANES, 8, 1]];
        for heights in sets {
            for start in [0, 1, 5, 8, 20, 63] {
                for len in 0..=200 {
                    for up in [false, true] {
                        let mut seen = Seen(vec![]);
                        walk(start..start + len, heights, up, &mut seen);
                        let mut hits = vec![0; start + len];
                        for &(r0, r) in &seen.0 {
                            assert!(heights.contains(&r), "height {r} from {heights:?}");
                            (r0..r0 + r).for_each(|i| hits[i] += 1);
                        }
                        let what = format!("{heights:?} {start}..{} up={up}", start + len);
                        assert!(hits[start..].iter().all(|&h| h == 1), "{what}: {:?}", seen.0);
                        if !up {
                            assert!(hits[..start].iter().all(|&h| h == 0), "{what}");
                        }
                        // Bottom-up, a row runs alone only where fewer than
                        // eight rows lie above it.
                        if up && heights == HEIGHTS {
                            let singles = seen.0.iter().filter(|&&(r0, r)| r == 1 && r0 >= 8);
                            assert!(singles.count() <= usize::from(len > 0), "{what}");
                        }
                    }
                }
            }
        }
    }

    on_backend! {
        /// The building blocks against plain loops on one backend.
        mod probe = probe_body(seed: u64)
    }

    #[inline(always)]
    fn probe_body<T: Scalar, const FMA: bool>(seed: u64) {
        for_heights::<T, FMA, 1>(seed);
        for_heights::<T, FMA, 8>(seed);
        for_heights::<T, FMA, 16>(seed);
        for_heights::<T, FMA, 32>(seed);
        for_heights::<T, FMA, LANES>(seed);
    }

    fn for_heights<T: Scalar, const FMA: bool, const R: usize>(seed: u64) {
        let mut rng = ca_matrix::seeded_rng(seed + R as u64);
        let x: Matrix<T> = Matrix::from_f64(&ca_matrix::random_uniform(R + 3, 7, &mut rng));
        let x = x.view();
        let w: Vec<T> = (0..7).map(|j| x.at(0, j)).collect();
        let bits = |v: &[T]| v.iter().map(|x| x.to_bits_u64()).collect::<Vec<_>>();

        // The block update, rows 3..3 + R of the first six columns.
        let mut acc = *chunk::<T, R>(x.col(0), 3);
        update::<T, FMA, R>(&mut acc, (1..6).map(|j| (chunk(x.col(j), 3), w[j])));
        let mut plain = x.col(0)[3..3 + R].to_vec();
        for (i, p) in plain.iter_mut().enumerate() {
            for (j, &b) in w.iter().enumerate().take(6).skip(1) {
                let a = x.col(j)[3 + i];
                *p = if FMA { mul_add::<T, true>(-a, b, *p) } else { *p - a * b };
            }
        }
        assert_eq!(bits(&acc), bits(&plain), "update R={R} FMA={FMA}");

        // Straight and transposed round trips, padding zeros included.
        let (m, n) = (R, 5);
        let src = x.sub(1, 0, m, n);
        let blk = Block::<T, { LANES + 8 }, 8>::zeroed(src);
        for (j, col) in blk.cols().iter().enumerate() {
            let want: Vec<T> = (0..LANES + 8)
                .map(|i| if j < n && i < m { src.at(i, j) } else { T::ZERO })
                .collect();
            assert_eq!(bits(col), bits(&want), "straight load R={R} column {j}");
        }
        let mut back = Matrix::<T>::zeros(m, n);
        blk.store(back.view_mut());
        assert_eq!(bits(back.as_slice()), bits(&src.to_vec()), "straight store R={R}");

        let src = x.sub(0, 0, R + 3, R.min(7));
        let mut blk = Block::<T, R, { LANES + 3 }>::new();
        blk.load_t(src);
        assert_eq!(blk.cols().len(), R + 3);
        for (p, col) in blk.cols().iter().enumerate() {
            let want: Vec<T> =
                (0..R).map(|i| if i < src.ncols() { src.at(p, i) } else { T::ZERO }).collect();
            assert_eq!(bits(col), bits(&want), "transposed load R={R} column {p}");
        }
        let mut back = Matrix::<T>::zeros(R + 3, R.min(7));
        blk.store_t(back.view_mut());
        assert_eq!(bits(back.as_slice()), bits(&src.to_vec()), "transposed store R={R}");
    }

    #[test]
    fn blocks_and_updates_equal_plain_loops_on_every_backend_with_and_without_fma() {
        probe_body::<f64, false>(1);
        probe_body::<f64, true>(2);
        probe_body::<f32, false>(3);
        probe_body::<f32, true>(4);
        for backend in gemm_available_backends() {
            // SAFETY: `gemm_available_backends` lists only backends this CPU runs.
            unsafe {
                match backend {
                    "scalar" => (probe::scalar::<f64>(5), probe::scalar::<f32>(6)),
                    #[cfg(target_arch = "x86_64")]
                    "avx2-fma" => (probe::avx2::<f64>(7), probe::avx2::<f32>(8)),
                    #[cfg(target_arch = "x86_64")]
                    _ => (probe::avx512::<f64>(9), probe::avx512::<f32>(10)),
                }
            };
        }
    }
}
