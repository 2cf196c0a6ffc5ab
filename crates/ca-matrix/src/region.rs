//! Rect region algebra — normalized sets of disjoint element rectangles.
//!
//! [`RegionSet`] is the footprint currency of rect-granular static analysis:
//! the verifier resolves every task's declared footprint to a set of
//! [`ElemRect`]s and needs exact union / intersection / difference over them
//! to decide conflict, coverage, and liveness questions. The representation
//! is a list of pairwise-disjoint non-empty rectangles, kept lightly
//! coalesced so footprints that tile a larger rectangle collapse back into
//! it instead of fragmenting without bound.
//!
//! The operations are deliberately simple (no interval trees): footprint
//! sets are small — a handful of rects per task, block-aligned in the common
//! case — and the verifier's cost is dominated by the happens-before
//! closure, not the algebra. Correctness is what matters here, and the
//! proptest suite checks every operation against a dense bitmap oracle.

use core::fmt;
use core::ops::Range;

/// Half-open element rectangle `rows × cols` of a matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElemRect {
    /// First row (inclusive).
    pub row0: usize,
    /// Past-the-end row.
    pub row1: usize,
    /// First column (inclusive).
    pub col0: usize,
    /// Past-the-end column.
    pub col1: usize,
}

impl ElemRect {
    /// Rectangle covering `rows × cols`.
    pub fn new(rows: Range<usize>, cols: Range<usize>) -> Self {
        Self { row0: rows.start, row1: rows.end, col0: cols.start, col1: cols.end }
    }

    /// `true` if the rectangle contains no elements.
    pub fn is_empty(&self) -> bool {
        self.row0 >= self.row1 || self.col0 >= self.col1
    }

    /// `true` if the rectangles share at least one element.
    pub fn overlaps(&self, o: &ElemRect) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.row0 < o.row1
            && o.row0 < self.row1
            && self.col0 < o.col1
            && o.col0 < self.col1
    }

    /// The overlapping rectangle, or `None` if the rectangles are disjoint.
    pub fn intersection(&self, o: &ElemRect) -> Option<ElemRect> {
        let r = ElemRect {
            row0: self.row0.max(o.row0),
            row1: self.row1.min(o.row1),
            col0: self.col0.max(o.col0),
            col1: self.col1.min(o.col1),
        };
        (!r.is_empty()).then_some(r)
    }

    /// `true` if `o` lies entirely inside `self` (empty `o` always does).
    pub fn contains(&self, o: &ElemRect) -> bool {
        o.is_empty()
            || (self.row0 <= o.row0
                && o.row1 <= self.row1
                && self.col0 <= o.col0
                && o.col1 <= self.col1)
    }
}

impl fmt::Display for ElemRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rows {}..{} × cols {}..{}", self.row0, self.row1, self.col0, self.col1)
    }
}

/// A set of matrix elements represented as disjoint rectangles.
///
/// Invariants (checked by the test oracle): stored rectangles are non-empty
/// and pairwise disjoint. Two `RegionSet`s covering the same elements may
/// differ in their rectangle decomposition, so `PartialEq` is deliberately
/// *semantic*: it compares covered elements, not representations.
#[derive(Clone, Debug, Default)]
pub struct RegionSet {
    rects: Vec<ElemRect>,
}

/// Appends the up-to-four parts of `a ∖ b` to `out`.
fn subtract_into(a: &ElemRect, b: &ElemRect, out: &mut Vec<ElemRect>) {
    if !a.overlaps(b) {
        if !a.is_empty() {
            out.push(*a);
        }
        return;
    }
    let r0 = a.row0.max(b.row0);
    let r1 = a.row1.min(b.row1);
    let parts = [
        ElemRect { row0: a.row0, row1: r0, col0: a.col0, col1: a.col1 },
        ElemRect { row0: r1, row1: a.row1, col0: a.col0, col1: a.col1 },
        ElemRect { row0: r0, row1: r1, col0: a.col0, col1: a.col0.max(b.col0) },
        ElemRect { row0: r0, row1: r1, col0: a.col1.min(b.col1), col1: a.col1 },
    ];
    out.extend(parts.into_iter().filter(|p| !p.is_empty()));
}

impl RegionSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set covering exactly `rect`.
    pub fn from_rect(rect: ElemRect) -> Self {
        let mut s = Self::new();
        s.insert(rect);
        s
    }

    /// The union of `rects`.
    pub fn from_rects<I: IntoIterator<Item = ElemRect>>(rects: I) -> Self {
        let mut s = Self::new();
        for r in rects {
            s.insert(r);
        }
        s
    }

    /// `true` if the set covers no elements.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The disjoint rectangles making up the set.
    pub fn rects(&self) -> &[ElemRect] {
        &self.rects
    }

    /// Number of elements covered.
    pub fn area(&self) -> usize {
        self.rects.iter().map(|r| (r.row1 - r.row0) * (r.col1 - r.col0)).sum()
    }

    /// Adds `rect` to the set (no-op for an empty rect).
    pub fn insert(&mut self, rect: ElemRect) {
        if rect.is_empty() {
            return;
        }
        // Insert only the parts not already covered, preserving disjointness.
        let mut fresh = vec![rect];
        for have in &self.rects {
            let mut next = Vec::with_capacity(fresh.len());
            for part in &fresh {
                subtract_into(part, have, &mut next);
            }
            fresh = next;
            if fresh.is_empty() {
                return;
            }
        }
        self.rects.extend(fresh);
        self.coalesce();
    }

    /// `true` if the set shares at least one element with `rect`.
    pub fn intersects(&self, rect: &ElemRect) -> bool {
        self.rects.iter().any(|r| r.overlaps(rect))
    }

    /// `true` if the two sets share at least one element.
    pub fn intersects_set(&self, other: &RegionSet) -> bool {
        // Iterate over the smaller list in the outer loop.
        let (a, b) = if self.rects.len() <= other.rects.len() {
            (&self.rects, &other.rects)
        } else {
            (&other.rects, &self.rects)
        };
        a.iter().any(|r| b.iter().any(|s| r.overlaps(s)))
    }

    /// `true` if every element of `rect` is in the set.
    pub fn covers(&self, rect: &ElemRect) -> bool {
        if rect.is_empty() {
            return true;
        }
        let mut rest = vec![*rect];
        for have in &self.rects {
            let mut next = Vec::with_capacity(rest.len());
            for part in &rest {
                subtract_into(part, have, &mut next);
            }
            rest = next;
            if rest.is_empty() {
                return true;
            }
        }
        false
    }

    /// The elements in both `self` and `rect`.
    pub fn intersect_rect(&self, rect: &ElemRect) -> RegionSet {
        // Pairwise intersections of disjoint rects stay disjoint.
        let rects = self.rects.iter().filter_map(|r| r.intersection(rect)).collect();
        RegionSet { rects }
    }

    /// The elements in both sets.
    pub fn intersect(&self, other: &RegionSet) -> RegionSet {
        let mut out = RegionSet::new();
        for r in &other.rects {
            out.rects.extend(self.intersect_rect(r).rects);
        }
        out
    }

    /// Removes every element of `rect` from the set.
    pub fn subtract_rect(&mut self, rect: &ElemRect) {
        if rect.is_empty() || self.rects.is_empty() {
            return;
        }
        let mut next = Vec::with_capacity(self.rects.len());
        for r in &self.rects {
            subtract_into(r, rect, &mut next);
        }
        self.rects = next;
    }

    /// Removes every element of `other` from the set.
    pub fn subtract(&mut self, other: &RegionSet) {
        for r in &other.rects {
            self.subtract_rect(r);
        }
    }

    /// The union of both sets.
    pub fn union(&self, other: &RegionSet) -> RegionSet {
        let mut out = self.clone();
        for r in &other.rects {
            out.insert(*r);
        }
        out
    }

    /// Adds every rect of `other` to the set.
    pub fn union_in_place(&mut self, other: &RegionSet) {
        for r in &other.rects {
            self.insert(*r);
        }
    }

    /// Merges pairs of rectangles that share a full edge until no pair does,
    /// bounding fragmentation when inserts tile a larger rectangle. Callers
    /// accumulating many unions (e.g. cumulative footprints along a task
    /// graph) should coalesce periodically to keep set sizes bounded.
    pub fn coalesce(&mut self) {
        let mut merged = true;
        while merged {
            merged = false;
            'outer: for i in 0..self.rects.len() {
                for j in i + 1..self.rects.len() {
                    let (a, b) = (self.rects[i], self.rects[j]);
                    let same_cols = a.col0 == b.col0 && a.col1 == b.col1;
                    let same_rows = a.row0 == b.row0 && a.row1 == b.row1;
                    let row_adjacent = a.row1 == b.row0 || b.row1 == a.row0;
                    let col_adjacent = a.col1 == b.col0 || b.col1 == a.col0;
                    if (same_cols && row_adjacent) || (same_rows && col_adjacent) {
                        self.rects[i] = ElemRect {
                            row0: a.row0.min(b.row0),
                            row1: a.row1.max(b.row1),
                            col0: a.col0.min(b.col0),
                            col1: a.col1.max(b.col1),
                        };
                        self.rects.swap_remove(j);
                        merged = true;
                        break 'outer;
                    }
                }
            }
        }
    }
}

impl PartialEq for RegionSet {
    /// Semantic equality: both sets cover exactly the same elements,
    /// regardless of how each decomposes them into rectangles.
    fn eq(&self, other: &Self) -> bool {
        self.rects.iter().all(|r| other.covers(r)) && other.rects.iter().all(|r| self.covers(r))
    }
}

impl Eq for RegionSet {}

impl fmt::Display for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rects.is_empty() {
            return write!(f, "∅");
        }
        for (i, r) in self.rects.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "[{r}]")?;
        }
        Ok(())
    }
}

impl FromIterator<ElemRect> for RegionSet {
    fn from_iter<I: IntoIterator<Item = ElemRect>>(iter: I) -> Self {
        Self::from_rects(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(rows: Range<usize>, cols: Range<usize>) -> ElemRect {
        ElemRect::new(rows, cols)
    }

    #[test]
    fn rect_overlap_and_containment() {
        let a = rect(0..4, 0..4);
        let b = rect(2..6, 2..6);
        let c = rect(4..8, 0..4);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.contains(&rect(1..3, 1..3)));
        assert!(!a.contains(&b));
        assert!(a.contains(&rect(2..2, 0..4)), "empty rect is contained anywhere");
        assert!(!rect(0..0, 0..4).overlaps(&a), "empty rect overlaps nothing");
    }

    /// Dense bitmap over a `DIM × DIM` universe — the oracle the algebra is
    /// checked against.
    const DIM: usize = 12;

    #[derive(Clone, PartialEq)]
    struct Bitmap([bool; DIM * DIM]);

    impl Bitmap {
        fn empty() -> Self {
            Bitmap([false; DIM * DIM])
        }

        fn from_rects(rects: &[ElemRect]) -> Self {
            let mut b = Self::empty();
            for r in rects {
                b.set(r);
            }
            b
        }

        fn set(&mut self, r: &ElemRect) {
            for i in r.row0..r.row1.min(DIM) {
                for j in r.col0..r.col1.min(DIM) {
                    self.0[i * DIM + j] = true;
                }
            }
        }

        fn count(&self) -> usize {
            self.0.iter().filter(|&&b| b).count()
        }

        fn zip(&self, o: &Bitmap, f: impl Fn(bool, bool) -> bool) -> Bitmap {
            let mut out = Self::empty();
            for (k, slot) in out.0.iter_mut().enumerate() {
                *slot = f(self.0[k], o.0[k]);
            }
            out
        }
    }

    /// Checks the representation invariant and that `set` covers exactly the
    /// elements of `want`.
    fn assert_matches(set: &RegionSet, want: &Bitmap, what: &str) {
        for r in set.rects() {
            assert!(!r.is_empty(), "{what}: empty rect stored");
        }
        for (i, a) in set.rects().iter().enumerate() {
            for b in &set.rects()[i + 1..] {
                assert!(!a.overlaps(b), "{what}: overlapping rects {a} and {b}");
            }
        }
        let got = Bitmap::from_rects(set.rects());
        assert!(got == *want, "{what}: covered elements differ from oracle");
        assert_eq!(set.area(), want.count(), "{what}: area");
    }

    #[test]
    fn insert_deduplicates_and_coalesces() {
        let mut s = RegionSet::new();
        s.insert(rect(0..4, 0..4));
        s.insert(rect(0..4, 0..4));
        assert_eq!(s.rects().len(), 1);
        s.insert(rect(0..4, 4..8));
        assert_eq!(s.rects().len(), 1, "edge-adjacent rects coalesce");
        assert_eq!(s.area(), 32);
        s.insert(rect(2..6, 2..6));
        assert_eq!(s.area(), 32 + 8);
    }

    #[test]
    fn subtract_splits_rects() {
        let mut s = RegionSet::from_rect(rect(0..8, 0..8));
        s.subtract_rect(&rect(2..6, 2..6));
        assert_eq!(s.area(), 64 - 16);
        assert!(!s.intersects(&rect(3..4, 3..4)));
        assert!(s.intersects(&rect(0..1, 0..1)));
        assert!(s.covers(&rect(6..8, 0..8)));
        assert!(!s.covers(&rect(0..8, 0..8)));
    }

    #[test]
    fn intersect_is_exact() {
        let a = RegionSet::from_rects([rect(0..4, 0..8), rect(6..8, 0..8)]);
        let b = RegionSet::from_rect(rect(2..7, 4..6));
        let i = a.intersect(&b);
        assert_eq!(i.area(), 6); // 2×2 from the top band, 1×2 from the bottom
        assert!(a.intersects_set(&b));
        assert!(!a.intersects_set(&RegionSet::from_rect(rect(4..6, 0..8))));
    }

    #[test]
    fn semantic_equality_ignores_decomposition() {
        let a = RegionSet::from_rects([rect(0..4, 0..2), rect(0..4, 2..4)]);
        let b = RegionSet::from_rect(rect(0..4, 0..4));
        assert_eq!(a, b);
        assert_ne!(a, RegionSet::from_rect(rect(0..4, 0..5)));
    }

    #[test]
    fn empty_rects_are_ignored() {
        let mut s = RegionSet::new();
        s.insert(rect(3..3, 0..10));
        assert!(s.is_empty());
        assert!(s.covers(&rect(5..5, 0..99)));
        assert!(!s.intersects(&rect(0..1, 0..1)));
    }

    fn draw_rect(prng: &mut proptest::test_runner::Prng) -> ElemRect {
        let d = (DIM + 1) as u64;
        let (r0, r1) = (prng.below(d) as usize, prng.below(d) as usize);
        let (c0, c1) = (prng.below(d) as usize, prng.below(d) as usize);
        ElemRect { row0: r0.min(r1), row1: r0.max(r1), col0: c0.min(c1), col1: c0.max(c1) }
    }

    /// Up to 7 random (possibly empty, possibly overlapping) rects in the
    /// `DIM × DIM` universe. The vendored proptest shim has no tuple or
    /// collection strategies, so this implements `Strategy` directly.
    struct ArbRects;

    impl Strategy for ArbRects {
        type Value = Vec<ElemRect>;
        fn sample(&self, prng: &mut proptest::test_runner::Prng) -> Vec<ElemRect> {
            let len = prng.below(8) as usize;
            (0..len).map(|_| draw_rect(prng)).collect()
        }
    }

    /// One random rect (empty allowed).
    struct ArbRect;

    impl Strategy for ArbRect {
        type Value = ElemRect;
        fn sample(&self, prng: &mut proptest::test_runner::Prng) -> ElemRect {
            draw_rect(prng)
        }
    }

    fn arb_rect() -> impl Strategy<Value = ElemRect> {
        ArbRect
    }

    fn arb_rects() -> impl Strategy<Value = Vec<ElemRect>> {
        ArbRects
    }

    fn cases() -> ProptestConfig {
        ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 })
    }

    proptest! {
        #![proptest_config(cases())]

        #[test]
        fn union_matches_bitmap_oracle(ra in arb_rects(), rb in arb_rects()) {
            let a = RegionSet::from_rects(ra.iter().copied());
            let b = RegionSet::from_rects(rb.iter().copied());
            let ba = Bitmap::from_rects(&ra);
            let bb = Bitmap::from_rects(&rb);
            assert_matches(&a, &ba, "build a");
            assert_matches(&b, &bb, "build b");
            assert_matches(&a.union(&b), &ba.zip(&bb, |x, y| x || y), "union");
            for r in &ra {
                prop_assert!(a.covers(r));
            }
        }

        #[test]
        fn intersect_matches_bitmap_oracle(ra in arb_rects(), rb in arb_rects()) {
            let a = RegionSet::from_rects(ra.iter().copied());
            let b = RegionSet::from_rects(rb.iter().copied());
            let ba = Bitmap::from_rects(&ra);
            let bb = Bitmap::from_rects(&rb);
            let want = ba.zip(&bb, |x, y| x && y);
            assert_matches(&a.intersect(&b), &want, "intersect");
            prop_assert_eq!(a.intersects_set(&b), want.count() > 0);
        }

        #[test]
        fn subtract_matches_bitmap_oracle(ra in arb_rects(), rb in arb_rects()) {
            let mut a = RegionSet::from_rects(ra.iter().copied());
            let b = RegionSet::from_rects(rb.iter().copied());
            let ba = Bitmap::from_rects(&ra);
            let bb = Bitmap::from_rects(&rb);
            a.subtract(&b);
            assert_matches(&a, &ba.zip(&bb, |x, y| x && !y), "subtract");
        }

        #[test]
        fn covers_matches_bitmap_oracle(ra in arb_rects(), probe in arb_rect()) {
            let a = RegionSet::from_rects(ra.iter().copied());
            let ba = Bitmap::from_rects(&ra);
            let bp = Bitmap::from_rects(&[probe]);
            let want = bp.zip(&ba, |p, x| p && !x).count() == 0;
            prop_assert_eq!(a.covers(&probe), want);
            prop_assert_eq!(
                a.intersects(&probe),
                bp.zip(&ba, |p, x| p && x).count() > 0
            );
        }
    }
}
