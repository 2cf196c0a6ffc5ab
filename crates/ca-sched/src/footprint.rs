//! First-class task access footprints.
//!
//! The DAG builders declare each task's reads/writes to
//! [`crate::BlockTracker`] to infer dependency edges. An [`AccessMap`]
//! retains those declarations, so the static verifier
//! ([`crate::verify_graph`]) can prove that every conflicting pair of tasks
//! is ordered, a task body's slot leases are checked against them, and the
//! retry protocol knows which elements to snapshot.
//!
//! A footprint is a list of element rectangles ([`ElemRect`]) over an
//! `m × n` element space. Block coordinates are a builder convenience
//! resolved to rects at declaration time by [`crate::BlockTracker`]; the map
//! keeps the block size `b` only as the cell size of the spatial index its
//! consumers bucket rects by. An abstract grid (the unit tests, simulator
//! graphs) is the unit-cell case `b = 1`.
//!
//! What tasks hand each other outside the matrix — pivots, `T` factors,
//! tournament candidates, pack images — is declared the same way: each
//! [`crate::Slot`] of side storage is one element of a side column the map keeps
//! beside the matrix (slot `s` is element `(s, n)`), and each slot is an
//! index cell of its own, never shared with the matrix or another slot.
//! Slot rects infer, verify and lint like any other rect; only the retry
//! protocol's write-set, which touches matrix elements, skips them
//! ([`AccessMap::matrix_writes`]).

use crate::task::TaskId;
use ca_matrix::ElemRect;

/// Per-task declared read/write element rects over an `m × n` space and
/// its side column of slots.
///
/// Built as a side effect of the [`crate::BlockTracker`] declarations;
/// retrieve it with [`crate::BlockTracker::into_access_map`] and hand it
/// (together with the graph) to [`crate::verify_graph`] or
/// [`crate::Timeline::check_write_exclusion`]; a [`crate::Plan`] keeps its
/// own, which its task bodies' slot leases are checked against and whose
/// matrix write rects [`crate::FactorOptions::retry`] snapshots.
#[derive(Clone, Debug)]
pub struct AccessMap {
    b: usize,
    m: usize,
    n: usize,
    slots: usize,
    /// Per task: matrix rects first, then slot rects.
    reads: Vec<Vec<ElemRect>>,
    writes: Vec<Vec<ElemRect>>,
}

impl AccessMap {
    /// An empty map over an `m × n` space with unit index cells.
    pub fn new(m: usize, n: usize) -> Self {
        Self::with_geometry(1, m, n)
    }

    /// An empty map over an `m × n` matrix indexed by `b × b` cells.
    pub(crate) fn with_geometry(b: usize, m: usize, n: usize) -> Self {
        assert!(b > 0, "zero cell size");
        Self { b, m, n, slots: 0, reads: Vec::new(), writes: Vec::new() }
    }

    /// The geometry `(b, m, n)`: index cell size and matrix extent.
    pub fn geometry(&self) -> (usize, usize, usize) {
        (self.b, self.m, self.n)
    }

    /// Dimensions `(mb, nb)` of the cell grid `b` induces on `m × n`.
    pub fn grid(&self) -> (usize, usize) {
        (self.m.div_ceil(self.b), self.n.div_ceil(self.b))
    }

    /// Number of index cells: the matrix grid's, then one per slot.
    pub(crate) fn cell_count(&self) -> usize {
        let (mb, nb) = self.grid();
        mb * nb + self.slots
    }

    /// The index cells `rect` touches, each with the part of `rect` inside
    /// it: the `b × b` cells of the matrix grid it overlaps, or the slot's
    /// own cell. The one bucketing the tracker and the verifier share.
    pub(crate) fn cells(&self, rect: ElemRect) -> impl Iterator<Item = (usize, ElemRect)> + '_ {
        let ((mb, nb), b) = (self.grid(), self.b);
        let slot = (rect.col0 >= self.n).then_some((mb * nb + rect.row0, rect));
        let (rows, cols) = match slot {
            Some(_) => (0..0, 0..0),
            None => (rect.row0 / b..rect.row1.div_ceil(b), rect.col0 / b..rect.col1.div_ceil(b)),
        };
        let grid = cols.flat_map(move |bj| {
            rows.clone().filter_map(move |bi| {
                let cell = ElemRect::new(bi * b..(bi + 1) * b, bj * b..(bj + 1) * b);
                rect.intersection(&cell).map(|clip| (bi + bj * mb, clip))
            })
        });
        grid.chain(slot)
    }

    /// Slot `s`, the element `(s, n)` of the side column.
    pub(crate) fn slot_rect(&self, s: usize) -> ElemRect {
        ElemRect::new(s..s + 1, self.n..self.n + 1)
    }

    /// Number of slots allocated.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// A fresh slot's index.
    pub(crate) fn new_slot(&mut self) -> usize {
        self.slots += 1;
        self.slots - 1
    }

    /// Whether `rect` may be declared: inside the matrix, or one allocated
    /// slot.
    pub(crate) fn in_bounds(&self, rect: &ElemRect) -> bool {
        if rect.col0 < self.n {
            return rect.row1 <= self.m && rect.col1 <= self.n;
        }
        rect.row0 < self.slots && *rect == self.slot_rect(rect.row0)
    }

    /// One past the highest task id with any recorded rect.
    pub fn tasks(&self) -> usize {
        self.reads.len().max(self.writes.len())
    }

    /// Total number of recorded rects (reads + writes), slots included.
    pub fn region_count(&self) -> usize {
        self.reads.iter().chain(self.writes.iter()).map(Vec::len).sum()
    }

    fn record(vec: &mut Vec<Vec<ElemRect>>, n: usize, task: TaskId, rect: ElemRect) {
        if rect.is_empty() {
            return;
        }
        if task >= vec.len() {
            vec.resize_with(task + 1, Vec::new);
        }
        let rects = &mut vec[task];
        let at = if rect.col0 < n { rects.partition_point(|r| r.col0 < n) } else { rects.len() };
        rects.insert(at, rect);
    }

    /// Records that `task` reads `rect` (empty rects are dropped).
    pub fn record_read(&mut self, task: TaskId, rect: ElemRect) {
        Self::record(&mut self.reads, self.n, task, rect);
    }

    /// Records that `task` writes `rect` (empty rects are dropped).
    pub fn record_write(&mut self, task: TaskId, rect: ElemRect) {
        Self::record(&mut self.writes, self.n, task, rect);
    }

    /// Declared read rects of `task`, the slots it reads included (empty
    /// for a task that declared none).
    pub fn reads(&self, task: TaskId) -> &[ElemRect] {
        self.reads.get(task).map_or(&[], Vec::as_slice)
    }

    /// Declared write rects of `task`, the slots it fills included.
    pub fn writes(&self, task: TaskId) -> &[ElemRect] {
        self.writes.get(task).map_or(&[], Vec::as_slice)
    }

    /// The matrix part of `rects`: its prefix before the first slot rect.
    fn matrix_part<'a>(&self, rects: &'a [ElemRect]) -> &'a [ElemRect] {
        &rects[..rects.partition_point(|r| r.col0 < self.n)]
    }

    /// Declared write rects of `task` on the matrix, slots left out: the
    /// write-set the retry protocol snapshots.
    pub(crate) fn matrix_writes(&self, task: TaskId) -> &[ElemRect] {
        self.matrix_part(self.writes(task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_rects() {
        let mut m = AccessMap::new(4, 4);
        m.record_read(0, ElemRect::new(0..2, 0..1));
        m.record_write(0, ElemRect::new(2..4, 0..1));
        m.record_write(2, ElemRect::new(0..1, 1..2));
        assert_eq!(m.tasks(), 3);
        assert_eq!(m.region_count(), 3);
        assert_eq!(m.reads(0), &[ElemRect::new(0..2, 0..1)]);
        assert_eq!(m.writes(0), &[ElemRect::new(2..4, 0..1)]);
        assert!(m.reads(1).is_empty());
        assert!(m.writes(1).is_empty());
        assert!(m.reads(7).is_empty(), "out-of-range task has empty footprint");
    }

    #[test]
    fn empty_rects_are_dropped() {
        let mut m = AccessMap::new(4, 4);
        m.record_read(0, ElemRect::new(2..2, 0..4));
        m.record_write(0, ElemRect::new(0..4, 1..1));
        assert_eq!(m.region_count(), 0);
        assert_eq!(m.tasks(), 0);
    }

    #[test]
    fn geometry_induces_the_cell_grid() {
        let m = AccessMap::with_geometry(4, 10, 7);
        assert_eq!(m.geometry(), (4, 10, 7));
        assert_eq!(m.grid(), (3, 2));
        assert_eq!(AccessMap::new(5, 3).geometry(), (1, 5, 3));
        assert_eq!(AccessMap::new(5, 3).grid(), (5, 3));
    }
}
