//! Accuracy scoring against ground truth, matching the paper's metrics.

use mp_closure::PairSet;
use mp_datagen::GroundTruth;

/// Accuracy of a detected pair set relative to ground truth.
///
/// * `percent_detected` — Fig. 2(a)'s "percent of correctly detected
///   duplicated pairs": true pairs found / true pairs, ×100.
/// * `percent_false_positive` — Fig. 2(b)'s "percent of those records
///   incorrectly marked as duplicates": false pairs / pairs found, ×100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// True duplicate pairs in the ground truth.
    pub true_pairs: u64,
    /// Pairs the method reported.
    pub found_pairs: u64,
    /// Reported pairs that are real duplicates.
    pub true_found: u64,
    /// Reported pairs that are not duplicates.
    pub false_found: u64,
    /// Recall percentage.
    pub percent_detected: f64,
    /// False-positive percentage of reported pairs.
    pub percent_false_positive: f64,
}

impl Evaluation {
    /// Scores `found` (typically closure output) against `truth`: a found
    /// pair is true when its two records share an entity, which the truth
    /// answers per pair without materializing its true pairs.
    pub fn score(found: &PairSet, truth: &GroundTruth) -> Self {
        let true_found = found
            .iter()
            .filter(|&(a, b)| truth.is_true_pair(a, b))
            .count() as u64;
        let true_pairs = truth.true_pair_count();
        let found_pairs = found.len() as u64;
        let false_found = found_pairs - true_found;
        Evaluation {
            true_pairs,
            found_pairs,
            true_found,
            false_found,
            percent_detected: percent(true_found, true_pairs),
            percent_false_positive: percent(false_found, found_pairs),
        }
    }

    /// Precision percentage (100 − false-positive percentage when any pair
    /// was found; 100 for an empty result).
    pub fn percent_precision(&self) -> f64 {
        if self.found_pairs == 0 {
            100.0
        } else {
            100.0 - self.percent_false_positive
        }
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeySpec, MergePurge};
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_record::{EntityId, Record, RecordId};
    use mp_rules::NativeEmployeeTheory;

    /// The scoring `Evaluation::score` replaced: a hash set of every true
    /// pair, probed once per found pair. Kept as the oracle.
    fn score_reference(found: &PairSet, truth: &GroundTruth) -> Evaluation {
        let truth_set: std::collections::HashSet<(u32, u32)> = truth.true_pairs().collect();
        let true_found = found.iter().filter(|p| truth_set.contains(p)).count() as u64;
        let false_found = found.len() as u64 - true_found;
        let true_pairs = truth.true_pair_count();
        let found_pairs = found.len() as u64;
        Evaluation {
            true_pairs,
            found_pairs,
            true_found,
            false_found,
            percent_detected: percent(true_found, true_pairs),
            percent_false_positive: percent(false_found, found_pairs),
        }
    }

    #[test]
    fn entity_column_scoring_matches_the_pair_set_oracle() {
        let theory = NativeEmployeeTheory::new();
        for (seed, unlabelled_every) in [(71, 0), (72, 3), (73, 1)] {
            let mut db = DatabaseGenerator::new(
                GeneratorConfig::new(1500)
                    .duplicate_fraction(0.5)
                    .seed(seed),
            )
            .generate();
            // Drop the label of every k-th record (all of them for k = 1):
            // those records are singletons in truth but can still be found.
            if unlabelled_every > 0 {
                for r in db.records.iter_mut().step_by(unlabelled_every) {
                    r.entity = None;
                }
            }
            let truth = GroundTruth::from_records(&db.records);
            let result = MergePurge::new(&theory)
                .pass(KeySpec::last_name_key(), 8)
                .pass(KeySpec::address_key(), 8)
                .run(&mut db.records);
            assert!(
                result.closed_pairs.len() > 100,
                "seed {seed} found too little"
            );
            let got = Evaluation::score(&result.closed_pairs, &truth);
            assert_eq!(
                got,
                score_reference(&result.closed_pairs, &truth),
                "seed {seed}"
            );
            if unlabelled_every == 1 {
                assert_eq!((got.true_pairs, got.true_found), (0, 0));
            }
        }
    }

    fn truth_of(classes: &[&[u32]], total: u32) -> GroundTruth {
        let mut records = Vec::new();
        let mut entity_of = std::collections::HashMap::new();
        for (e, class) in classes.iter().enumerate() {
            for &id in *class {
                entity_of.insert(id, e as u32);
            }
        }
        let mut next_entity = classes.len() as u32;
        for id in 0..total {
            let mut r = Record::empty(RecordId(id));
            let e = entity_of.get(&id).copied().unwrap_or_else(|| {
                let e = next_entity;
                next_entity += 1;
                e
            });
            r.entity = Some(EntityId(e));
            records.push(r);
        }
        GroundTruth::from_records(&records)
    }

    #[test]
    fn perfect_detection() {
        let truth = truth_of(&[&[0, 1, 2]], 5);
        let found: PairSet = [(0, 1), (0, 2), (1, 2)].into_iter().collect();
        let e = Evaluation::score(&found, &truth);
        assert_eq!(e.percent_detected, 100.0);
        assert_eq!(e.percent_false_positive, 0.0);
        assert_eq!(e.percent_precision(), 100.0);
        assert_eq!(e.true_found, 3);
    }

    #[test]
    fn partial_detection_with_false_positive() {
        let truth = truth_of(&[&[0, 1], &[2, 3]], 6);
        // Found one real pair and one bogus pair.
        let found: PairSet = [(0, 1), (4, 5)].into_iter().collect();
        let e = Evaluation::score(&found, &truth);
        assert_eq!(e.true_pairs, 2);
        assert_eq!(e.true_found, 1);
        assert_eq!(e.false_found, 1);
        assert_eq!(e.percent_detected, 50.0);
        assert_eq!(e.percent_false_positive, 50.0);
    }

    #[test]
    fn empty_found_set() {
        let truth = truth_of(&[&[0, 1]], 3);
        let e = Evaluation::score(&PairSet::new(), &truth);
        assert_eq!(e.percent_detected, 0.0);
        assert_eq!(e.percent_false_positive, 0.0);
        assert_eq!(e.percent_precision(), 100.0);
    }

    #[test]
    fn no_true_pairs_all_false() {
        let truth = truth_of(&[], 4);
        let found: PairSet = [(0, 1)].into_iter().collect();
        let e = Evaluation::score(&found, &truth);
        assert_eq!(e.percent_detected, 0.0);
        assert_eq!(e.percent_false_positive, 100.0);
    }
}
