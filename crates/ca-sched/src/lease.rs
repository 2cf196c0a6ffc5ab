//! Leases: a task body touches only what its task declared.
//!
//! Every declaration a [`crate::PlanBuilder`] task makes returns a handle —
//! a [`Read`] or [`Write`] of an element rect, or a typed [`Slot`] of side
//! storage — and the body, run with a [`TaskCx`], opens the matrix and the
//! slots through those handles only. Each open is checked, in every run:
//! the handle must belong to the running task, a narrowed rect
//! ([`Read::block`], [`Write::block`]) must lie inside the declared one, a
//! slot must be one the task declared, and a mutable view may not overlap
//! any other view the body opened. A failed check ends the body and fails
//! its run with [`SoundnessError::UndeclaredAccess`] (or
//! [`SoundnessError::Race`] for two overlapping views of one body), naming
//! the task's label and the rect.
//!
//! So the edges the tracker infers from the declarations, which
//! [`crate::verify_graph`] proves order every conflicting pair, cover every
//! access a body can make. That is the argument for the one `unsafe` left
//! in the path from a plan to the matrix, in [`TaskCx::view`] and
//! [`TaskCx::view_mut`].

use crate::footprint::AccessMap;
use crate::task::{TaskId, TaskLabel};
use crate::verify::SoundnessError;
use ca_matrix::{ElemRect, MatView, MatViewMut, Scalar, SharedMatrix};
use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// What a declaration leases: the rect it declared for its task, and the
/// part of it a handle names.
#[derive(Clone, Copy, Debug)]
struct Lease {
    task: TaskId,
    declared: ElemRect,
    rect: ElemRect,
}

impl Lease {
    fn block(self, i: usize, j: usize, r: usize, c: usize) -> Self {
        Self { rect: ElemRect::new(i..i + r, j..j + c), ..self }
    }
}

/// A declared read of matrix elements ([`crate::TaskDecl::reads`]), opened
/// with [`TaskCx::view`].
#[derive(Clone, Copy, Debug)]
pub struct Read(Lease);

/// A declared write of matrix elements ([`crate::TaskDecl::writes`]),
/// opened with [`TaskCx::view_mut`] — or [`TaskCx::view`]: a task may read
/// what it writes.
#[derive(Clone, Copy, Debug)]
pub struct Write(Lease);

impl Read {
    pub(crate) fn new(task: TaskId, rect: ElemRect) -> Self {
        Self(Lease { task, declared: rect, rect })
    }

    /// The `r × c` elements at `(i, j)` (matrix coordinates) of this read;
    /// opening it checks they lie inside the declared rect.
    pub fn block(self, i: usize, j: usize, r: usize, c: usize) -> Self {
        Self(self.0.block(i, j, r, c))
    }
}

impl Write {
    pub(crate) fn new(task: TaskId, rect: ElemRect) -> Self {
        Self(Lease { task, declared: rect, rect })
    }

    /// The `r × c` elements at `(i, j)` (matrix coordinates) of this write;
    /// opening it checks they lie inside the declared rect.
    pub fn block(self, i: usize, j: usize, r: usize, c: usize) -> Self {
        Self(self.0.block(i, j, r, c))
    }
}

impl From<Write> for Read {
    fn from(w: Write) -> Self {
        Self(w.0)
    }
}

/// One slot of side storage holding a `V` ([`crate::PlanBuilder::slot`]):
/// what one task leaves for others outside the matrix — pivots, `T`
/// factors, tournament candidates, pack images. Declared as one element of
/// the plan's [`AccessMap`] side column, so the edges it carries are
/// inferred and proven like any other.
pub struct Slot<V> {
    index: usize,
    value: PhantomData<fn() -> V>,
}

impl<V> Slot<V> {
    pub(crate) fn new(index: usize) -> Self {
        Self { index, value: PhantomData }
    }

    pub(crate) fn index(self) -> usize {
        self.index
    }
}

impl<V> Clone for Slot<V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for Slot<V> {}

impl<V> core::fmt::Debug for Slot<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Slot({})", self.index)
    }
}

/// A plan's side storage: one value per [`Slot`], filled once by the task
/// that declared writing it. A plan's gather takes the filled values out.
pub struct Slots(Vec<OnceLock<Box<dyn Any + Send + Sync>>>);

impl Slots {
    pub(crate) fn new(n: usize) -> Self {
        Self((0..n).map(|_| OnceLock::new()).collect())
    }

    fn get<V: 'static>(&self, s: Slot<V>) -> Option<&V> {
        self.0.get(s.index)?.get()?.downcast_ref()
    }

    /// Fills `s` unless it holds a value already.
    fn fill<V: Send + Sync + 'static>(&self, s: Slot<V>, v: V) {
        if let Some(cell) = self.0.get(s.index) {
            let _ = cell.set(Box::new(v));
        }
    }

    /// Slot `s`'s value, taken out: `None` if no task filled it.
    pub fn take<V: 'static>(&mut self, s: Slot<V>) -> Option<V> {
        let value = self.0.get_mut(s.index)?.take()?;
        value.downcast().ok().map(|v| *v)
    }
}

/// What a task body runs with: its own leases on the plan's matrix and
/// slots ([`TaskCx::view`], [`TaskCx::view_mut`], [`TaskCx::get`],
/// [`TaskCx::put`]), each open checked against the task's declarations.
pub struct TaskCx<'r, T: Scalar> {
    task: TaskId,
    label: TaskLabel,
    matrix: &'r SharedMatrix<T>,
    access: &'r AccessMap,
    slots: &'r Slots,
    /// Where a failed check leaves its error for the run.
    violation: &'r OnceLock<SoundnessError>,
    /// The rects this body opened so far, and whether mutably.
    opened: RefCell<Vec<(ElemRect, bool)>>,
}

impl<'r, T: Scalar> TaskCx<'r, T> {
    pub(crate) fn new(
        task: TaskId,
        label: TaskLabel,
        matrix: &'r SharedMatrix<T>,
        access: &'r AccessMap,
        slots: &'r Slots,
        violation: &'r OnceLock<SoundnessError>,
    ) -> Self {
        Self { task, label, matrix, access, slots, violation, opened: RefCell::new(Vec::new()) }
    }

    /// A view of the elements `h` names.
    #[allow(clippy::disallowed_methods)] // the lease is the block's contract
    pub fn view(&self, h: impl Into<Read>) -> MatView<'_, T> {
        let r = self.open(h.into().0, false);
        // SAFETY: see the module docs — the rect lies inside this task's
        // declared footprint, which the graph orders against every
        // conflicting task's, and no mutable view of this body overlaps it.
        unsafe { self.matrix.block(r.row0, r.col0, r.row1 - r.row0, r.col1 - r.col0) }
    }

    /// A mutable view of the elements `h` names.
    #[allow(clippy::mut_from_ref)] // the lease, not the borrow, is exclusive
    #[allow(clippy::disallowed_methods)] // the lease is the block's contract
    pub fn view_mut(&self, h: Write) -> MatViewMut<'_, T> {
        let r = self.open(h.0, true);
        // SAFETY: as in `view`, and no other view of this body overlaps it.
        unsafe { self.matrix.block_mut(r.row0, r.col0, r.row1 - r.row0, r.col1 - r.col0) }
    }

    /// The value in slot `s`, which this task declared reading.
    ///
    /// # Panics
    /// If no task filled `s` yet, which the graph's edges rule out.
    pub fn get<V: 'static>(&self, s: Slot<V>) -> &V {
        self.check_slot(s.index, false);
        match self.slots.get(s) {
            Some(v) => v,
            None => panic!("task {} read slot {} before a task filled it", self.label, s.index),
        }
    }

    /// Fills slot `s`, which this task declared writing. A second fill (a
    /// replayed body) leaves the first value: the replay computes the same.
    pub fn put<V: Send + Sync + 'static>(&self, s: Slot<V>, v: V) {
        self.check_slot(s.index, true);
        self.slots.fill(s, v);
    }

    fn check_slot(&self, s: usize, write: bool) {
        let rect = self.access.slot_rect(s);
        let declared =
            if write { self.access.writes(self.task) } else { self.access.reads(self.task) };
        if !declared.contains(&rect) {
            self.fail(self.undeclared(write, rect));
        }
    }

    /// Checks `lease` for this task and records it; the rect to open.
    fn open(&self, lease: Lease, write: bool) -> ElemRect {
        let rect = lease.rect;
        if lease.task != self.task || !lease.declared.contains(&rect) {
            self.fail(self.undeclared(write, rect));
        }
        let mut opened = self.opened.borrow_mut();
        let clash =
            opened.iter().find(|(o, w)| (write || *w) && o.overlaps(&rect)).map(|(o, _)| *o);
        if let Some(both) = clash.and_then(|o| o.intersection(&rect)) {
            let label = self.label.to_string();
            let (rows, cols) = ((both.row0, both.row1), (both.col0, both.col1));
            self.fail(SoundnessError::Race { first: label.clone(), second: label, rows, cols });
        }
        opened.push((rect, write));
        rect
    }

    fn undeclared(&self, write: bool, r: ElemRect) -> SoundnessError {
        let (rows, cols) = ((r.row0, r.row1), (r.col0, r.col1));
        SoundnessError::UndeclaredAccess { task: self.label.to_string(), write, rows, cols }
    }

    /// Ends the body: `e` becomes the run's error, and the unwind its
    /// task's failure.
    fn fail(&self, e: SoundnessError) -> ! {
        let message = e.to_string();
        let _ = self.violation.set(e);
        std::panic::resume_unwind(Box::new(LeaseViolation(message)))
    }
}

/// What a body that broke its lease unwinds with: the failure is the
/// body's own, so a replay would fail alike, and the retry protocol returns
/// it at once.
pub(crate) struct LeaseViolation(pub(crate) String);
