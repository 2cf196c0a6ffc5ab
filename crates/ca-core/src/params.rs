//! Algorithm parameters and the row partitioning shared by every component.
//!
//! The paper's two tuning knobs are the panel width `b` and the number of
//! panel tasks `Tr` (threads cooperating on one panel). At iteration `K`,
//! the active rows (from the panel's diagonal down) are divided into at most
//! `Tr` contiguous groups of whole `b`-blocks — Algorithm 1 lines 5–7.

/// Shape of the reduction tree used by TSLU/TSQR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeShape {
    /// Binary tree of height `log2(Tr)`: optimal parallel communication.
    Binary,
    /// Tree of height 1: all `Tr` candidate sets reduce in a single node.
    /// The paper finds this "an efficient alternative" on shared memory.
    Flat,
    /// `k`-ary tree: every node merges up to `k` children (the paper's §II
    /// "generalization to any reduction tree"; `Kary(2) == Binary`).
    Kary(usize),
    /// Flat reduction over groups of `flat_width` leaves at the first
    /// level, binary above — the tree of Hadri et al. (LAWN 222) that the
    /// paper's conclusion discusses.
    Hybrid {
        /// Leaves merged per first-level node.
        flat_width: usize,
    },
}

/// Parameters of multithreaded CALU / CAQR.
#[derive(Clone, Copy, Debug)]
pub struct CaParams {
    /// Panel (block) width `b`.
    pub b: usize,
    /// Number of panel tasks `Tr` — leaf blocks per panel.
    pub tr: usize,
    /// Reduction tree shape.
    pub tree: TreeShape,
    /// Number of worker threads for the parallel executor.
    pub threads: usize,
    /// Whether the scheduler applies the lookahead-of-1 priority rule.
    pub lookahead: bool,
    /// Trailing-update task width in **block columns** (the paper's §V
    /// future-work parameter `B = update_blocks · b`): each `U`/`S` task
    /// covers this many panels' worth of columns, reducing task count and
    /// improving BLAS3 granularity at some loss of parallel slack. `1`
    /// reproduces the published algorithm.
    pub update_blocks: usize,
    /// Ceiling on the per-panel element-growth estimate
    /// `max|L_KK\U_KK| / max|panel input|`. When a tournament's winner
    /// exceeds it, the panel is refactored with plain partial pivoting
    /// (GEPP) over all active rows and the fallback is recorded in
    /// [`crate::LuFactors`] stats. The default `f64::INFINITY` disables
    /// monitoring (the paper's algorithm verbatim); the `try_*` entry
    /// points substitute [`crate::DEFAULT_GROWTH_LIMIT`] when the limit is
    /// left infinite.
    pub growth_limit: f64,
}

impl CaParams {
    /// Parameters with the paper's defaults: binary tree, lookahead on.
    pub fn new(b: usize, tr: usize, threads: usize) -> Self {
        assert!(b > 0, "panel width must be positive");
        assert!(tr > 0, "need at least one panel task");
        assert!(threads > 0, "need at least one thread");
        Self {
            b,
            tr,
            tree: TreeShape::Binary,
            threads,
            lookahead: true,
            update_blocks: 1,
            growth_limit: f64::INFINITY,
        }
    }

    /// Switches to a flat (height-1) reduction tree.
    pub fn with_flat_tree(mut self) -> Self {
        self.tree = TreeShape::Flat;
        self
    }

    /// Disables the lookahead priority rule (ablation).
    pub fn without_lookahead(mut self) -> Self {
        self.lookahead = false;
        self
    }

    /// Sets the trailing-update width to `blocks` block columns
    /// (`B = blocks · b`, the paper's §V two-level blocking).
    pub fn with_update_blocking(mut self, blocks: usize) -> Self {
        assert!(blocks > 0, "update width must be positive");
        self.update_blocks = blocks;
        self
    }

    /// Enables growth monitoring with the given per-panel ceiling (see
    /// [`CaParams::growth_limit`]). `NaN` limits are rejected.
    pub fn with_growth_limit(mut self, limit: f64) -> Self {
        assert!(!limit.is_nan(), "growth limit must not be NaN");
        self.growth_limit = limit;
        self
    }
}

/// The row partitioning of the active matrix at one panel iteration.
///
/// All units are *rows* (not blocks); groups always start at multiples of
/// `b` relative to the panel start, and only the final group can be ragged
/// when `m` is not a multiple of `b`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowPartition {
    /// First active row (the panel's diagonal row).
    pub start: usize,
    /// One-past-last row (`m`).
    pub end: usize,
    /// Group boundaries: group `i` spans rows `bounds[i]..bounds[i+1]`.
    pub bounds: Vec<usize>,
}

impl RowPartition {
    /// Number of groups (≤ `Tr`).
    pub fn ngroups(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Row range of group `i`.
    pub fn group(&self, i: usize) -> core::ops::Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }

    /// Number of rows in group `i`.
    pub fn group_rows(&self, i: usize) -> usize {
        self.bounds[i + 1] - self.bounds[i]
    }
}

/// Partitions rows `start..m` into at most `tr` groups of whole `b`-blocks,
/// following Algorithm 1: each group gets `ceil(active_blocks / tr)` block
/// rows; the last block may be ragged if `b` does not divide `m`.
///
/// # Panics
/// If `start >= m`.
pub fn partition_rows(m: usize, start: usize, b: usize, tr: usize) -> RowPartition {
    assert!(start < m, "no active rows: start {start} >= m {m}");
    // Active block rows, counting a ragged final block.
    let active_blocks = (m - start).div_ceil(b);
    let per_group = active_blocks.div_ceil(tr);
    let mut bounds = vec![start];
    let mut row = start;
    while row < m {
        row = (row + per_group * b).min(m);
        bounds.push(row);
    }
    RowPartition { start, end: m, bounds }
}

/// Number of `b`-wide column panels a `m × n` factorization iterates over
/// (`min(m, n)` columns get factored).
pub fn num_panels(m: usize, n: usize, b: usize) -> usize {
    m.min(n).div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition() {
        let p = partition_rows(800, 0, 100, 4);
        assert_eq!(p.ngroups(), 4);
        assert_eq!(p.group(0), 0..200);
        assert_eq!(p.group(3), 600..800);
    }

    #[test]
    fn partition_with_offset_and_raggedness() {
        // m = 750, start = 100 (after one panel), b = 100: 7 active blocks
        // (6 full + 1 of 50 rows), tr = 4 -> 2 blocks per group.
        let p = partition_rows(750, 100, 100, 4);
        assert_eq!(p.ngroups(), 4);
        assert_eq!(p.group(0), 100..300);
        assert_eq!(p.group(1), 300..500);
        assert_eq!(p.group(2), 500..700);
        assert_eq!(p.group(3), 700..750);
    }

    #[test]
    fn fewer_groups_than_tr_when_matrix_is_short() {
        let p = partition_rows(250, 0, 100, 8);
        // 3 blocks, 8 groups requested -> 1 block per group, 3 groups.
        assert_eq!(p.ngroups(), 3);
        assert_eq!(p.group(2), 200..250);
    }

    #[test]
    fn single_group_tr1() {
        let p = partition_rows(1000, 300, 100, 1);
        assert_eq!(p.ngroups(), 1);
        assert_eq!(p.group(0), 300..1000);
    }

    #[test]
    fn groups_cover_active_rows_exactly() {
        for &(m, start, b, tr) in
            &[(103, 0, 10, 4), (1000, 450, 37, 7), (64, 32, 32, 16), (99, 98, 100, 3)]
        {
            let p = partition_rows(m, start, b, tr);
            assert_eq!(p.bounds[0], start);
            assert_eq!(*p.bounds.last().unwrap(), m);
            assert!(p.ngroups() <= tr);
            for i in 0..p.ngroups() {
                assert!(p.group_rows(i) > 0, "empty group {i} for {m},{start},{b},{tr}");
            }
        }
    }

    #[test]
    fn num_panels_counts_min_dimension() {
        assert_eq!(num_panels(1000, 250, 100), 3);
        assert_eq!(num_panels(250, 1000, 100), 3);
        assert_eq!(num_panels(100, 100, 100), 1);
        assert_eq!(num_panels(101, 101, 100), 2);
    }

    #[test]
    #[should_panic(expected = "no active rows")]
    fn empty_partition_rejected() {
        partition_rows(100, 100, 10, 2);
    }
}
