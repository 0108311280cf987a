//! Balanced division of histogram bins into contiguous cluster subranges.

use crate::histogram::KeyHistogram;

/// A partition of the `B` histogram bins into `C` contiguous subranges with
/// approximately equal key mass, supporting `O(log B)` key → cluster lookup
/// ("The complexity of this mapping is, at worst, log B").
///
/// ```
/// use mp_paper::{KeyHistogram, RangePartition};
/// let keys = ["ADAMS", "BAKER", "CLARK", "DAVIS", "EVANS", "FORD"];
/// let h = KeyHistogram::from_keys(keys.iter().copied(), 1);
/// let p = RangePartition::build(&h, 3);
/// assert_eq!(p.clusters(), 3);
/// // Lexicographic order is preserved across clusters.
/// assert!(p.cluster_of("ADAMS") <= p.cluster_of("FORD"));
/// ```
#[derive(Debug, Clone)]
pub struct RangePartition {
    /// `starts[c]` = first bin of cluster `c`; `starts[0] == 0`, strictly
    /// increasing, length `C`.
    starts: Vec<usize>,
    prefix_len: usize,
}

impl RangePartition {
    /// Divides the histogram's bins into `clusters` subranges so that each
    /// carries close to `total/C` keys (greedy sweep over the cumulative
    /// distribution, the standard equi-depth construction).
    ///
    /// # Panics
    ///
    /// Panics when `clusters` is 0 or exceeds the bin count.
    pub fn build(histogram: &KeyHistogram, clusters: usize) -> Self {
        assert!(clusters >= 1, "need at least one cluster");
        assert!(
            clusters <= histogram.bins(),
            "C = {clusters} exceeds B = {} bins",
            histogram.bins()
        );
        let cum = histogram.cumulative();
        let total = histogram.total();
        let mut starts = Vec::with_capacity(clusters);
        starts.push(0usize);
        // The c-th boundary targets cumulative mass c/C; binary search the
        // cumulative array for the first bin reaching it.
        for c in 1..clusters {
            let target = (total as f64 * c as f64 / clusters as f64).round() as u64;
            let mut bin = cum.partition_point(|&m| m < target).saturating_sub(1);
            // Boundaries must be strictly increasing and leave enough bins
            // for the remaining clusters.
            let min_bin = starts[c - 1] + 1;
            let max_bin = histogram.bins() - (clusters - c);
            bin = bin.clamp(min_bin, max_bin);
            starts.push(bin);
        }
        RangePartition {
            starts,
            prefix_len: histogram.prefix_len(),
        }
    }

    /// Number of clusters `C`.
    pub fn clusters(&self) -> usize {
        self.starts.len()
    }

    /// The cluster a key belongs to (`O(log B)` via binary search, though
    /// the bin computation itself is `O(prefix_len)`).
    pub fn cluster_of(&self, key: &str) -> usize {
        // Reuse histogram bin indexing through a throwaway empty histogram
        // would cost an allocation; recompute the index directly instead.
        let bin = bin_index(key, self.prefix_len);
        self.starts.partition_point(|&s| s <= bin) - 1
    }

    /// First bin of each cluster (for diagnostics and tests).
    pub fn boundaries(&self) -> &[usize] {
        &self.starts
    }
}

fn bin_index(key: &str, prefix_len: usize) -> usize {
    use crate::histogram::ALPHABET;
    let bytes = key.as_bytes();
    let mut idx = 0usize;
    for i in 0..prefix_len {
        let bucket = match bytes.get(i) {
            Some(&b) if b.to_ascii_uppercase().is_ascii_uppercase() => {
                1 + (b.to_ascii_uppercase() - b'A') as usize
            }
            _ => 0,
        };
        idx = idx * ALPHABET + bucket;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn skewed_keys(n: usize) -> Vec<String> {
        // Zipf-ish skew: half the keys start with S, the rest spread out.
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    format!("SMITH{i}")
                } else {
                    let c = (b'A' + (i % 26) as u8) as char;
                    format!("{c}NAME{i}")
                }
            })
            .collect()
    }

    #[test]
    fn every_key_lands_in_exactly_one_cluster() {
        let keys = skewed_keys(1_000);
        let h = KeyHistogram::from_keys(keys.iter().map(String::as_str), 3);
        let p = RangePartition::build(&h, 32);
        for k in &keys {
            let c = p.cluster_of(k);
            assert!(c < p.clusters());
        }
    }

    #[test]
    fn clusters_preserve_key_order() {
        let keys = skewed_keys(500);
        let h = KeyHistogram::from_keys(keys.iter().map(String::as_str), 3);
        let p = RangePartition::build(&h, 16);
        let mut sorted = keys.clone();
        sorted.sort();
        let clusters: Vec<usize> = sorted.iter().map(|k| p.cluster_of(k)).collect();
        assert!(clusters.windows(2).all(|w| w[0] <= w[1]), "non-monotone");
    }

    #[test]
    fn balance_is_reasonable_under_skew() {
        let keys = skewed_keys(10_000);
        let h = KeyHistogram::from_keys(keys.iter().map(String::as_str), 3);
        let c = 8;
        let p = RangePartition::build(&h, c);
        let mut loads = vec![0usize; c];
        for k in &keys {
            loads[p.cluster_of(k)] += 1;
        }
        let ideal = keys.len() / c;
        // With 3-letter bins, only pathological skew (one identical prefix
        // holding > 1/C of all keys) can exceed ~2x ideal; our half-SMITH
        // workload concentrates 50% in one bin, so the max cluster carries
        // about half the data — verify the rest is balanced.
        let max = *loads.iter().max().unwrap();
        assert!(max >= ideal, "max {max} < ideal {ideal}?");
        let others: Vec<usize> = loads.iter().copied().filter(|&l| l != max).collect();
        let other_max = others.iter().copied().max().unwrap();
        assert!(
            other_max <= 2 * ideal + 1,
            "non-hot clusters unbalanced: {loads:?}"
        );
    }

    #[test]
    fn single_cluster_catches_all() {
        let keys = ["A", "M", "Z"];
        let h = KeyHistogram::from_keys(keys.into_iter(), 1);
        let p = RangePartition::build(&h, 1);
        for k in keys {
            assert_eq!(p.cluster_of(k), 0);
        }
    }

    #[test]
    fn clusters_equal_bins_degenerates_to_identity_ranges() {
        let h = KeyHistogram::from_keys(["A", "B"].into_iter(), 1);
        let p = RangePartition::build(&h, 27);
        assert_eq!(p.clusters(), 27);
        assert_eq!(p.boundaries(), (0..27).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "exceeds B")]
    fn too_many_clusters_rejected() {
        let h = KeyHistogram::from_keys(std::iter::empty(), 1);
        RangePartition::build(&h, 28);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_clusters_rejected() {
        let h = KeyHistogram::from_keys(std::iter::empty(), 1);
        RangePartition::build(&h, 0);
    }

    proptest! {
        #[test]
        fn lookup_total_and_monotone(
            keys in proptest::collection::vec("[A-Z]{1,8}", 1..200),
            c in 1usize..20,
        ) {
            let c = c.min(27);
            let h = KeyHistogram::from_keys(keys.iter().map(String::as_str), 2);
            let p = RangePartition::build(&h, c);
            prop_assert_eq!(p.clusters(), c);
            let mut sorted = keys.clone();
            sorted.sort();
            let mut prev = 0usize;
            for k in &sorted {
                let cl = p.cluster_of(k);
                prop_assert!(cl < c);
                prop_assert!(cl >= prev);
                prev = cl;
            }
        }
    }
}
