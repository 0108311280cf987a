#![warn(missing_docs)]

//! Transitive closure over match pairs.
//!
//! The multi-pass approach (§2.4) runs several independent sorted-
//! neighborhood passes, each emitting pairs of tuple ids its equational
//! theory declared equivalent, and then unions them: "The results will be a
//! union of all pairs discovered by all independent runs, with no
//! duplicates, plus all those pairs that can be inferred by transitivity of
//! equality." §3.3 notes the closure runs over a pair set at least an order
//! of magnitude smaller than the record database and cites fast
//! multiprocessor closure algorithms; a union-find forest gives the same
//! result in near-linear time.
//!
//! * [`UnionFind`] — the forest with path halving and union by rank.
//! * [`PairSet`] — a deduplicating accumulator of undirected pairs.
//! * [`provenance::ProvenanceLog`] — the spanning-forest edge log keeping
//!   the evidence (rule, pass, batch, trace) behind every merge, plus
//!   [`provenance::ClusterSizes`] cluster-size telemetry.
//! * [`ClassRing`] — a circular member list per class, so one class can be
//!   listed in O(class) without sweeping the forest.

pub mod pairs;
pub mod provenance;
pub mod ring;
pub mod unionfind;

pub use pairs::PairSet;
pub use provenance::{ClusterSizes, MergeEdge, ProvenanceLog};
pub use ring::ClassRing;
pub use unionfind::UnionFind;

/// Computes the transitive closure of `pairs` over the id space `0..n` and
/// returns the equivalence classes with at least two members, each sorted
/// ascending, classes ordered by their smallest member.
///
/// This is the one-shot convenience entry; pipelines that stream pairs use
/// [`UnionFind`] directly.
///
/// ```
/// use mp_closure::close_pairs;
/// let classes = close_pairs(6, [(0, 1), (1, 2), (4, 5)]);
/// assert_eq!(classes, vec![vec![0, 1, 2], vec![4, 5]]);
/// ```
pub fn close_pairs<I>(n: usize, pairs: I) -> Vec<Vec<u32>>
where
    I: IntoIterator<Item = (u32, u32)>,
{
    let mut uf = UnionFind::new(n);
    for (a, b) in pairs {
        uf.union(a, b);
    }
    uf.classes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_pairs_chains_transitively() {
        let classes = close_pairs(5, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(classes, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn close_pairs_empty_input() {
        assert!(close_pairs(10, []).is_empty());
        assert!(close_pairs(0, []).is_empty());
    }

    #[test]
    fn singletons_not_reported() {
        let classes = close_pairs(4, [(1, 2)]);
        assert_eq!(classes, vec![vec![1, 2]]);
    }
}
