//! Frequency histograms over key prefixes.

/// Alphabet size per key character: 26 letters plus one bucket for
/// everything else ("26 letters plus the space", paper footnote 1).
pub const ALPHABET: usize = 27;

fn char_bucket(c: u8) -> usize {
    let u = c.to_ascii_uppercase();
    if u.is_ascii_uppercase() {
        1 + (u - b'A') as usize
    } else {
        0
    }
}

/// A `27^prefix_len`-bin frequency histogram over the first `prefix_len`
/// characters of keys.
///
/// The paper computes such histograms offline ("This information can be
/// gathered off-line before applying the clustering method"), either from a
/// known field distribution or from a random sample; both constructors are
/// provided.
///
/// ```
/// use mp_paper::KeyHistogram;
/// let h = KeyHistogram::from_keys(["ADAMS", "BAKER", "BROWN"].into_iter(), 2);
/// assert_eq!(h.bins(), 27 * 27);
/// assert_eq!(h.total(), 3);
/// assert!(h.frequency(h.bin_of("BROWN")) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct KeyHistogram {
    counts: Vec<u64>,
    total: u64,
    prefix_len: usize,
}

impl KeyHistogram {
    /// Builds the histogram from a full scan of the keys.
    ///
    /// # Panics
    ///
    /// Panics when `prefix_len` is 0 or large enough to overflow the bin
    /// space (`27^prefix_len` must fit in memory; 1–4 are sensible).
    pub fn from_keys<'a, I>(keys: I, prefix_len: usize) -> Self
    where
        I: Iterator<Item = &'a str>,
    {
        assert!((1..=6).contains(&prefix_len), "prefix length must be 1..=6");
        let bins = ALPHABET.pow(prefix_len as u32);
        let mut counts = vec![0u64; bins];
        let mut total = 0u64;
        for key in keys {
            counts[Self::bin_index(key, prefix_len)] += 1;
            total += 1;
        }
        KeyHistogram {
            counts,
            total,
            prefix_len,
        }
    }

    /// Number of bins `B`.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Number of keys observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Prefix length this histogram was built with.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// The bin index of a key.
    pub fn bin_of(&self, key: &str) -> usize {
        Self::bin_index(key, self.prefix_len)
    }

    /// Raw count of a bin.
    pub fn count(&self, bin: usize) -> u64 {
        self.counts[bin]
    }

    /// Normalized frequency `b_i` of a bin (0 when no keys were observed).
    pub fn frequency(&self, bin: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[bin] as f64 / self.total as f64
        }
    }

    /// Cumulative counts — `cum[i]` = keys in bins `0..i`; length `B + 1`.
    pub(crate) fn cumulative(&self) -> Vec<u64> {
        let mut cum = Vec::with_capacity(self.counts.len() + 1);
        cum.push(0);
        let mut acc = 0u64;
        for &c in &self.counts {
            acc += c;
            cum.push(acc);
        }
        cum
    }

    fn bin_index(key: &str, prefix_len: usize) -> usize {
        let mut idx = 0usize;
        let bytes = key.as_bytes();
        for i in 0..prefix_len {
            let bucket = bytes.get(i).map_or(0, |&b| char_bucket(b));
            idx = idx * ALPHABET + bucket;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_index_is_lexicographic() {
        let h = KeyHistogram::from_keys(std::iter::empty(), 3);
        // Ordering of bins must follow ordering of (uppercased) prefixes so
        // that contiguous bin ranges are contiguous key ranges.
        assert!(h.bin_of("AAA") < h.bin_of("AAB"));
        assert!(h.bin_of("AZZ") < h.bin_of("BAA"));
        assert!(h.bin_of("ABC") < h.bin_of("ABD"));
        // Short keys pad with the catch-all bucket 0, sorting first.
        assert!(h.bin_of("A") < h.bin_of("AA"));
        assert!(h.bin_of("") < h.bin_of("A"));
    }

    #[test]
    fn case_insensitive_and_non_alpha_bucket() {
        let h = KeyHistogram::from_keys(std::iter::empty(), 2);
        assert_eq!(h.bin_of("ab"), h.bin_of("AB"));
        assert_eq!(h.bin_of("3M"), h.bin_of("#M"));
        assert_eq!(h.bin_of(" X"), h.bin_of("9X"));
    }

    #[test]
    fn counts_and_frequencies() {
        let keys = ["ADAMS", "ADLER", "BAKER", "BAKER", "ZWEIG"];
        let h = KeyHistogram::from_keys(keys.into_iter(), 3);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(h.bin_of("BAKER")), 2);
        assert!((h.frequency(h.bin_of("BAKER")) - 0.4).abs() < 1e-12);
        assert_eq!(h.count(h.bin_of("QQQ")), 0);
        let sum: f64 = (0..h.bins()).map(|b| h.frequency(b)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram() {
        let h = KeyHistogram::from_keys(std::iter::empty(), 1);
        assert_eq!(h.total(), 0);
        assert_eq!(h.frequency(0), 0.0);
        assert_eq!(h.bins(), 27);
    }

    #[test]
    fn paper_bin_space_for_three_letters() {
        let h = KeyHistogram::from_keys(std::iter::empty(), 3);
        assert_eq!(h.bins(), 27 * 27 * 27);
    }

    #[test]
    fn cumulative_monotone_and_totals() {
        let keys = ["AA", "AB", "BA", "ZZ"];
        let h = KeyHistogram::from_keys(keys.into_iter(), 2);
        let cum = h.cumulative();
        assert_eq!(cum[0], 0);
        assert_eq!(*cum.last().unwrap(), 4);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn zero_prefix_rejected() {
        KeyHistogram::from_keys(std::iter::empty(), 0);
    }
}
