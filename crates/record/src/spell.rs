//! Corpus-based spelling correction for the city field (§3.2).
//!
//! The paper uses Bickel's fourth-generation-language approach (CACM 1987)
//! over a corpus of 18,670 U.S. city names, chosen "for its simplicity and
//! speed", reporting a 1.5–2.0% accuracy improvement. We implement the same
//! idea: a similarity-keyed index into a corpus of correctly spelled words,
//! with a bounded edit-distance confirmation so corrections are conservative
//! (a wrong "correction" is worse than none).

use crate::text::FieldStr;
use mp_strsim::levenshtein_bounded;
use std::collections::{HashMap, HashSet};

/// Dictionary-backed spelling corrector.
///
/// Candidates are retrieved through two cheap similarity keys — the first
/// letter and the length bucket — then confirmed with an edit distance bound
/// of [`SpellCorrector::max_distance`]. Inputs found verbatim in the corpus
/// are returned unchanged.
///
/// ```
/// use mp_record::SpellCorrector;
/// let sc = SpellCorrector::new(["CHICAGO", "HOUSTON", "PHOENIX"], 2);
/// assert_eq!(sc.correct("CHICGO"), Some("CHICAGO"));
/// assert_eq!(sc.correct("HOUSTON"), Some("HOUSTON"));
/// assert_eq!(sc.correct("XYZZY"), None);
/// ```
#[derive(Debug, Clone)]
pub struct SpellCorrector {
    /// Exact-membership set.
    corpus: HashSet<String>,
    /// (first letter, length) → words, the similarity-key index.
    index: HashMap<(u8, usize), Vec<String>>,
    /// Maximum accepted edit distance for a correction.
    max_distance: usize,
}

impl SpellCorrector {
    /// Builds a corrector over a corpus of correctly spelled (upper-case)
    /// words. `max_distance` bounds how aggressive corrections may be; the
    /// paper's conservative setting corresponds to `2`.
    pub fn new<I, S>(corpus: I, max_distance: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut set = HashSet::new();
        let mut index: HashMap<(u8, usize), Vec<String>> = HashMap::new();
        for word in corpus {
            let word: String = word.into();
            if word.is_empty() || !set.insert(word.clone()) {
                continue;
            }
            index.entry(sim_key(&word)).or_default().push(word);
        }
        SpellCorrector {
            corpus: set,
            index,
            max_distance,
        }
    }

    /// Maximum accepted edit distance for a correction.
    pub fn max_distance(&self) -> usize {
        self.max_distance
    }

    /// Number of distinct corpus words.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Attempts to correct `word`.
    ///
    /// Returns `Some(corpus word)` when the input is already correct or a
    /// unique-best candidate lies within the distance bound; `None` when
    /// nothing in the corpus is close enough. Ambiguous ties at the same
    /// distance resolve to the lexicographically first candidate so the
    /// correction is deterministic.
    pub fn correct(&self, word: &str) -> Option<&str> {
        if word.is_empty() {
            return None;
        }
        if let Some(exact) = self.corpus.get(word) {
            return Some(exact);
        }
        let (first, len) = sim_key(word);
        let mut best: Option<(&str, usize)> = None;
        // Probe neighbouring length buckets under the same first letter, and
        // — because the first letter itself may be mistyped — all first
        // letters at the exact length as a fallback.
        let lo = len.saturating_sub(self.max_distance);
        let hi = len + self.max_distance;
        for l in lo..=hi {
            self.scan_bucket((first, l), word, &mut best);
        }
        if best.is_none() {
            for b in b'A'..=b'Z' {
                if b != first {
                    self.scan_bucket((b, len), word, &mut best);
                }
            }
        }
        best.map(|(w, _)| w)
    }

    /// Corrects `word` in place when a correction is found; reports whether
    /// a change was made.
    pub fn correct_in_place(&self, word: &mut FieldStr) -> bool {
        match self.correct(word) {
            Some(fixed) if fixed != word.as_str() => {
                word.set(fixed);
                true
            }
            _ => false,
        }
    }

    fn scan_bucket<'a>(
        &'a self,
        key: (u8, usize),
        word: &str,
        best: &mut Option<(&'a str, usize)>,
    ) {
        let Some(bucket) = self.index.get(&key) else {
            return;
        };
        for cand in bucket {
            let bound = best.map_or(self.max_distance, |(_, d)| d.min(self.max_distance));
            if let Some(d) = levenshtein_bounded(word, cand, bound) {
                let better = match best {
                    Some((bw, bd)) => d < *bd || (d == *bd && cand.as_str() < *bw),
                    None => true,
                };
                if better {
                    *best = Some((cand, d));
                }
            }
        }
    }
}

fn sim_key(word: &str) -> (u8, usize) {
    let first = word
        .bytes()
        .next()
        .map(|b| b.to_ascii_uppercase())
        .unwrap_or(0);
    (first, word.chars().count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cities() -> SpellCorrector {
        SpellCorrector::new(
            [
                "NEW YORK", "CHICAGO", "HOUSTON", "PHOENIX", "DALLAS", "AUSTIN", "BOSTON",
                "DENVER", "SEATTLE", "PORTLAND",
            ],
            2,
        )
    }

    #[test]
    fn exact_match_returned_unchanged() {
        let sc = cities();
        assert_eq!(sc.correct("CHICAGO"), Some("CHICAGO"));
        assert_eq!(sc.corpus_len(), 10);
    }

    #[test]
    fn single_typo_classes_corrected() {
        let sc = cities();
        assert_eq!(sc.correct("CHICAG"), Some("CHICAGO")); // deletion
        assert_eq!(sc.correct("CHHICAGO"), Some("CHICAGO")); // insertion
        assert_eq!(sc.correct("CHICAGP"), Some("CHICAGO")); // substitution
        assert_eq!(sc.correct("CIHCAGO"), Some("CHICAGO")); // transposition (2 edits)
    }

    #[test]
    fn mistyped_first_letter_still_found() {
        let sc = cities();
        assert_eq!(sc.correct("XHICAGO"), Some("CHICAGO"));
    }

    #[test]
    fn distance_bound_respected() {
        let sc = cities();
        assert_eq!(sc.correct("CHICXXX"), None); // 3 edits away
        assert_eq!(sc.correct("Q"), None);
        assert_eq!(sc.correct(""), None);
    }

    #[test]
    fn ambiguity_resolves_deterministically() {
        // AUSTIN and BOSTON are both distance 2 from "AOSTON".
        let sc = SpellCorrector::new(["AUSTIN", "BOSTON"], 2);
        let fix = sc.correct("AOSTON").unwrap();
        assert_eq!("AOSTON".pipe_fix(&sc), fix);
        // Deterministic: repeated calls agree.
        assert_eq!(sc.correct("AOSTON").unwrap(), fix);
    }

    trait PipeFix {
        fn pipe_fix(self, sc: &SpellCorrector) -> FieldStr;
    }
    impl PipeFix for &str {
        fn pipe_fix(self, sc: &SpellCorrector) -> FieldStr {
            let mut word = FieldStr::from(self);
            sc.correct_in_place(&mut word);
            word
        }
    }

    #[test]
    fn correct_in_place_reports_change() {
        let sc = cities();
        let mut w = FieldStr::from("DENVR");
        assert!(sc.correct_in_place(&mut w));
        assert_eq!(w, "DENVER");
        let mut same = FieldStr::from("DENVER");
        assert!(!sc.correct_in_place(&mut same));
        let mut unknown = FieldStr::from("GOTHAM CITY");
        assert!(!sc.correct_in_place(&mut unknown));
        assert_eq!(unknown, "GOTHAM CITY");
    }

    #[test]
    fn duplicate_corpus_entries_deduplicated() {
        let sc = SpellCorrector::new(["A", "A", "A"], 1);
        assert_eq!(sc.corpus_len(), 1);
    }
}
