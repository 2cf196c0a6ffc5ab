//! Reduction-tree topology for TSLU/TSQR.
//!
//! A tree over `g` leaves is flattened into a list of [`ReduceNode`]s in
//! execution order. Each node merges the *current* candidate sets of a group
//! of leaves into the candidate slot of the first participant. After the
//! last node, leaf 0's slot holds the panel result.

use crate::params::TreeShape;

/// One reduction step: the candidate sets currently held by `participants`
/// (leaf slot indices) are stacked and reduced into slot `participants[0]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReduceNode {
    /// Tree level, starting at 1 (leaves are level 0).
    pub level: usize,
    /// Slot indices whose candidates this node consumes; result goes to
    /// `participants[0]`.
    pub participants: Vec<usize>,
}

/// Builds the reduction schedule for `g` leaf groups.
///
/// * `Binary`: level `l` pairs slot `i` with slot `i + 2^(l-1)` for every
///   `i` divisible by `2^l` (Algorithm 1 lines 11–18). Unpaired slots pass
///   through. Height `ceil(log2 g)`.
/// * `Flat`: a single node consuming all `g` slots (height 1).
/// * `Kary(k)`: every level merges runs of up to `k` active slots
///   (height `ceil(log_k g)`; `k = 2` coincides with `Binary`).
/// * `Hybrid { flat_width }`: one flat level over groups of `flat_width`
///   leaves, then binary reduction of the winners.
///
/// For `g == 1` the schedule is empty: the leaf factorization already is the
/// panel result.
pub fn reduction_schedule(g: usize, shape: TreeShape) -> Vec<ReduceNode> {
    assert!(g > 0, "need at least one group");
    if g == 1 {
        return Vec::new();
    }
    let fan = |level: usize| -> usize {
        match shape {
            TreeShape::Binary => 2,
            TreeShape::Flat => g,
            TreeShape::Kary(k) => {
                assert!(k >= 2, "k-ary tree needs k >= 2");
                k
            }
            TreeShape::Hybrid { flat_width } => {
                assert!(flat_width >= 2, "hybrid tree needs flat_width >= 2");
                if level == 1 {
                    flat_width
                } else {
                    2
                }
            }
        }
    };

    let mut nodes = Vec::new();
    let mut active: Vec<usize> = (0..g).collect();
    let mut level = 1usize;
    while active.len() > 1 {
        let k = fan(level);
        let mut next = Vec::with_capacity(active.len().div_ceil(k));
        for chunk in active.chunks(k) {
            if chunk.len() >= 2 {
                nodes.push(ReduceNode { level, participants: chunk.to_vec() });
            }
            next.push(chunk[0]);
        }
        assert!(next.len() < active.len(), "reduction must make progress");
        active = next;
        level += 1;
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_four_leaves_matches_paper_figure() {
        // Paper §II: A1..A4, level 1 reduces (1,2) and (3,4); level 2
        // reduces the winners. 0-indexed: (0,1), (2,3), then (0,2).
        let s = reduction_schedule(4, TreeShape::Binary);
        assert_eq!(
            s,
            vec![
                ReduceNode { level: 1, participants: vec![0, 1] },
                ReduceNode { level: 1, participants: vec![2, 3] },
                ReduceNode { level: 2, participants: vec![0, 2] },
            ]
        );
    }

    #[test]
    fn binary_non_power_of_two() {
        // 6 leaves: level 1: (0,1),(2,3),(4,5); level 2: (0,2); 4 passes;
        // level 3: (0,4).
        let s = reduction_schedule(6, TreeShape::Binary);
        assert_eq!(s.len(), 5);
        assert_eq!(s[3], ReduceNode { level: 2, participants: vec![0, 2] });
        assert_eq!(s[4], ReduceNode { level: 3, participants: vec![0, 4] });
    }

    #[test]
    fn binary_five_leaves_reaches_everyone() {
        let s = reduction_schedule(5, TreeShape::Binary);
        // Everyone's candidates must flow into slot 0.
        let mut merged: Vec<bool> = vec![false; 5];
        merged[0] = true;
        for n in &s {
            assert_eq!(n.participants[0] % 2, 0);
            for &p in &n.participants[1..] {
                merged[p] = true;
            }
        }
        assert!(merged.iter().all(|&x| x), "some leaf never reduced: {s:?}");
    }

    #[test]
    fn flat_is_single_node() {
        let s = reduction_schedule(8, TreeShape::Flat);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].participants, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn single_leaf_needs_no_reduction() {
        assert!(reduction_schedule(1, TreeShape::Binary).is_empty());
        assert!(reduction_schedule(1, TreeShape::Flat).is_empty());
    }

    #[test]
    fn two_leaves_identical_for_both_shapes() {
        let b = reduction_schedule(2, TreeShape::Binary);
        let f = reduction_schedule(2, TreeShape::Flat);
        assert_eq!(b.len(), 1);
        assert_eq!(f.len(), 1);
        assert_eq!(b[0].participants, f[0].participants);
    }

    #[test]
    fn kary_two_equals_binary() {
        for g in [2usize, 3, 4, 5, 7, 8, 16] {
            assert_eq!(
                reduction_schedule(g, TreeShape::Binary),
                reduction_schedule(g, TreeShape::Kary(2)),
                "g = {g}"
            );
        }
    }

    #[test]
    fn kary_four_has_fewer_levels() {
        let s = reduction_schedule(16, TreeShape::Kary(4));
        assert_eq!(s.iter().map(|n| n.level).max(), Some(2));
        assert_eq!(s.len(), 4 + 1);
        assert_eq!(s[0].participants, vec![0, 1, 2, 3]);
        assert_eq!(s[4].participants, vec![0, 4, 8, 12]);
    }

    #[test]
    fn hybrid_flat_then_binary() {
        // 16 leaves, flat_width 4: level 1 reduces 4 groups of 4; winners
        // {0,4,8,12} reduce binarily in 2 more levels.
        let s = reduction_schedule(16, TreeShape::Hybrid { flat_width: 4 });
        let lv: Vec<Vec<&ReduceNode>> =
            (1..=3).map(|l| s.iter().filter(|n| n.level == l).collect()).collect();
        assert_eq!(s.len(), 4 + 2 + 1);
        assert_eq!(lv[0].len(), 4);
        assert_eq!(lv[0][0].participants.len(), 4);
        assert_eq!(lv[1].len(), 2);
        assert_eq!(lv[1][0].participants, vec![0, 4]);
        assert_eq!(lv[2][0].participants, vec![0, 8]);
    }

    #[test]
    fn every_shape_reduces_everyone_to_slot_zero() {
        for shape in [
            TreeShape::Binary,
            TreeShape::Flat,
            TreeShape::Kary(3),
            TreeShape::Kary(5),
            TreeShape::Hybrid { flat_width: 3 },
        ] {
            for g in [2usize, 5, 9, 16] {
                let s = reduction_schedule(g, shape);
                let mut merged = vec![false; g];
                merged[0] = true;
                for n in &s {
                    for &p in &n.participants[1..] {
                        assert!(!merged[p], "slot {p} consumed twice ({shape:?}, g={g})");
                        merged[p] = true;
                    }
                }
                assert!(merged.iter().all(|&x| x), "{shape:?} g={g}: {s:?}");
            }
        }
    }
}
