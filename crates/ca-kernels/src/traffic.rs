//! Memory-traffic estimates (bytes moved between memory and cache) for each
//! kernel class — the *communication* that communication-avoiding
//! algorithms minimize.
//!
//! The estimates are the standard blocked-algorithm counts: each operand is
//! charged once per pass over it, assuming the `b × b`-scale working set
//! fits cache but the tall operands do not. They feed the simulator's
//! roofline cost model (`max(flops/throughput, bytes/bandwidth)`), which is
//! what makes BLAS2 kernels bandwidth-bound and BLAS3 kernels compute-bound
//! in simulated runs — the mechanism behind the paper's BLAS2/BLAS3 gap.

const W: f64 = 8.0; // bytes per f64

/// `C += A·B` with `C` `m × n`, inner dimension `k`, on the packed
/// BLIS-style path: packing copies are real memory traffic and are charged
/// here so the roofline GB/s attribution stays honest.
///
/// Per the blocked loop structure (`jc` over `NC`, `pc` over `KC`, `ic` over
/// `MC` — constants re-exported by this crate):
/// * every `KC × NC` tile of B is packed exactly once — B is read and
///   pack-written once in total (`2·k·n` words);
/// * every `MC × KC` block of A is re-packed for each `jc` sweep — A is
///   read and pack-written `⌈n/NC⌉` times (`2·m·k·⌈n/NC⌉` words);
/// * C streams through once per `pc` sweep — read and written `⌈k/KC⌉`
///   times (`2·m·n·⌈k/KC⌉` words).
pub fn gemm(m: usize, n: usize, k: usize) -> f64 {
    let a_sweeps = n.div_ceil(crate::NC).max(1) as f64;
    let c_sweeps = k.div_ceil(crate::KC).max(1) as f64;
    W * (2.0 * (m * k) as f64 * a_sweeps + 2.0 * (k * n) as f64 + 2.0 * (m * n) as f64 * c_sweeps)
}

/// Packing a `rows × cols` operand block into a contiguous microkernel
/// image (a scheduler pack task): the source is read once, the image
/// written once.
pub fn pack(rows: usize, cols: usize) -> f64 {
    W * 2.0 * (rows * cols) as f64
}

/// One packed-image tile multiply `C += Apack·Bpack` (`C` `m × n`, depth
/// `k`): the images stream in once per `pc` sweep they survive in cache,
/// C is read and written once per sweep. Packing traffic is charged to the
/// pack tasks ([`pack`]), not here.
pub fn gemm_packed(m: usize, n: usize, k: usize) -> f64 {
    let c_sweeps = k.div_ceil(crate::KC).max(1) as f64;
    W * ((m * k) as f64 + (k * n) as f64 + 2.0 * (m * n) as f64 * c_sweeps)
}

/// Right triangular solve `B := B·U⁻¹`, `B` `m × n`: read U, read+write B.
pub fn trsm_right(m: usize, n: usize) -> f64 {
    W * ((n * n / 2) as f64 + 2.0 * (m * n) as f64)
}

/// Left triangular solve over an `m × n` block.
pub fn trsm_left(m: usize, n: usize) -> f64 {
    W * ((m * m / 2) as f64 + 2.0 * (m * n) as f64)
}

/// Compact-WY application to an `m × n` block with `k` reflectors:
/// read V and T, read+write C, plus the `k × n` W workspace twice.
pub fn larfb(m: usize, n: usize, k: usize) -> f64 {
    W * ((m * k) as f64 + (k * k / 2) as f64 + 2.0 * (m * n) as f64 + 2.0 * (k * n) as f64)
}

/// Structured tree-node application onto `n` columns of the `rows` stacked
/// rows (top block included): read the `v_len` stored entries of the lower
/// blocks of `V` (see [`crate::flops::larfb_node`]) and `T`, read+write C,
/// plus the two `k × n` workspaces.
pub fn larfb_node(v_len: usize, rows: usize, n: usize, k: usize) -> f64 {
    W * ((v_len + k * k / 2) as f64 + 2.0 * (rows * n) as f64 + 2.0 * (k * n) as f64)
}

/// BLAS2 GEPP of an `m × n` panel: the trailing block is re-read and
/// re-written once per column — `n` passes over O(m·n) data. This is the
/// term TSLU's single-pass-per-level structure avoids.
pub fn getf2(m: usize, n: usize) -> f64 {
    // sum_j 2·(m-j)(n-j) words ≈ 2·m·n²/2 for m >> n.
    let (mf, nf) = (m as f64, n as f64);
    W * (mf * nf * nf - nf * nf * nf / 3.0).max(2.0 * mf * nf)
}

/// Recursive GEPP: BLAS3-like — each half-panel recursion passes over the
/// panel a logarithmic number of times.
pub fn rgetf2(m: usize, n: usize) -> f64 {
    let passes = (n.max(2) as f64).log2().ceil();
    W * 2.0 * (m * n) as f64 * passes
}

/// BLAS2 Householder QR of an `m × n` panel (same column-at-a-time pattern
/// as [`getf2`], with twice the arithmetic per pass).
pub fn geqr2(m: usize, n: usize) -> f64 {
    getf2(m, n)
}

/// Recursive QR: logarithmic passes, like [`rgetf2`].
pub fn geqr3(m: usize, n: usize) -> f64 {
    rgetf2(m, n)
}

/// Row interchanges: `swaps` row pairs over `n` columns, read+write both.
pub fn laswp(swaps: usize, n: usize) -> f64 {
    W * 4.0 * (swaps * n) as f64
}

/// Sequential communication lower bound, in **bytes**, for an out-of-core
/// LU factorization of an `m × n` matrix with a fast memory of
/// `mem_bytes` bytes and `elem_bytes`-byte elements.
///
/// Demmel–Grigori–Hoemmen–Langou (arXiv 0806.2159) extend the
/// Hong–Kung/Irony–Toledo–Tiskin argument across every level of the memory
/// hierarchy: any schedule of the O(n³) LU arithmetic moves
/// `Ω(#flops / √M)` words across a boundary with `M` words of fast memory
/// on its near side — on top of the *compulsory* traffic of reading the
/// input once and writing the factors once (`2mn` words). The bound used
/// here is the sum of both terms with unit constants:
///
/// ```text
///   words ≥ 2·m·n + flops_getrf(m, n) / √M
/// ```
///
/// `tests/ooc.rs` gates the measured tile-store byte count against `1.5×`
/// this bound.
pub fn ooc_lu_lower_bound(m: usize, n: usize, mem_bytes: usize, elem_bytes: usize) -> f64 {
    ooc_lower_bound(m, n, crate::flops::getrf(m, n), mem_bytes, elem_bytes)
}

/// Sequential communication lower bound, in bytes, for out-of-core QR —
/// [`ooc_lu_lower_bound`] with the `geqrf` flop count (CAQR performs the
/// same `Θ(flops/√M)` word movement, arXiv 0806.2159 §4).
pub fn ooc_qr_lower_bound(m: usize, n: usize, mem_bytes: usize, elem_bytes: usize) -> f64 {
    ooc_lower_bound(m, n, crate::flops::geqrf(m, n), mem_bytes, elem_bytes)
}

fn ooc_lower_bound(m: usize, n: usize, flops: f64, mem_bytes: usize, elem_bytes: usize) -> f64 {
    assert!(mem_bytes > 0 && elem_bytes > 0, "empty memory budget");
    let mem_words = (mem_bytes / elem_bytes).max(1) as f64;
    let compulsory = 2.0 * (m * n) as f64;
    elem_bytes as f64 * (compulsory + flops / mem_words.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blas2_panel_moves_far_more_than_blas3() {
        // 20000 x 100 panel: dgetf2 re-traverses the panel ~100 times,
        // rgetf2 ~7 times.
        let b2 = getf2(20_000, 100);
        let rec = rgetf2(20_000, 100);
        assert!(b2 > 5.0 * rec, "blas2 {b2} vs recursive {rec}");
    }

    #[test]
    fn gemm_traffic_counts_packing_copies() {
        // 100³ fits inside one cache block in every dimension: each operand
        // is read once and pack-written once, C is read+written once.
        let t = gemm(100, 100, 100);
        assert_eq!(t, 8.0 * (2.0 * 10_000.0 + 2.0 * 10_000.0 + 2.0 * 10_000.0));
    }

    #[test]
    fn gemm_traffic_charges_repacking_across_sweeps() {
        // k > KC: C streams once per pc sweep. n > NC: A repacked per jc
        // sweep. Both must exceed the single-block model.
        let single = gemm(64, 64, 64) / (64.0 * 64.0);
        let deep = gemm(64, 64, 4 * crate::KC) / (64.0 * 4.0 * crate::KC as f64);
        assert!(deep < 4.0 * single, "deep-k traffic should amortize A/B reads");
        let wide = gemm(64, 4 * crate::NC, 64);
        let narrow = gemm(64, crate::NC, 64);
        assert!(wide > 3.9 * narrow, "wide-n must charge A repacking per sweep");
    }

    #[test]
    fn gemm_arithmetic_intensity_grows_with_size() {
        // flops/byte must grow ~linearly with the block size: that is why
        // BLAS3 becomes compute-bound.
        let ai = |s: usize| crate::flops::gemm(s, s, s) / gemm(s, s, s);
        assert!(ai(200) > 3.0 * ai(50));
    }

    #[test]
    fn swap_traffic_scales_with_width() {
        assert_eq!(laswp(10, 100), 8.0 * 4.0 * 1000.0);
    }

    #[test]
    fn ooc_bound_has_compulsory_floor_and_shrinks_with_memory() {
        let n = 4096;
        // With the whole matrix resident, the bound approaches the
        // compulsory read-input + write-factors traffic.
        let huge = ooc_lu_lower_bound(n, n, 64 << 30, 8);
        let compulsory = 8.0 * 2.0 * (n * n) as f64;
        assert!(huge < 1.1 * compulsory, "huge-memory bound {huge} vs {compulsory}");
        // Shrinking memory 4× grows the bandwidth term by 2×.
        let small = ooc_lu_lower_bound(n, n, 128 << 20, 8) - compulsory;
        let tiny = ooc_lu_lower_bound(n, n, 32 << 20, 8) - compulsory;
        assert!((tiny / small - 2.0).abs() < 1e-9, "sqrt scaling: {tiny} vs {small}");
        // QR moves twice the flops, so twice the bandwidth term.
        let qr = ooc_qr_lower_bound(n, n, 128 << 20, 8) - compulsory;
        assert!((qr / small - 2.0).abs() < 1e-9);
    }
}
