//! Ground-truth bookkeeping for generated databases.

use mp_record::{EntityId, Record, RecordId};
use std::collections::HashMap;

/// The hidden mapping from entities to the records that describe them.
///
/// Accuracy in the paper is measured over *pairs*: the percentage of
/// "duplicated pairs" correctly found (Fig. 2). A class of `k` records for
/// one entity contributes `k·(k−1)/2` true pairs, which is exactly what a
/// perfect merge followed by transitive closure would produce.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// The records of each entity (in insertion order), one entry per
    /// distinct entity.
    classes: Vec<Vec<RecordId>>,
    /// record id → 1 + its entity's index in `classes`, 0 for a record
    /// without an entity: the column [`GroundTruth::is_true_pair`] reads.
    class_of: Vec<u32>,
    total_records: usize,
}

impl GroundTruth {
    /// Builds ground truth from a record list (records lacking an entity id
    /// are treated as unique singleton entities and contribute no pairs).
    pub fn from_records(records: &[Record]) -> Self {
        let mut slot_of: HashMap<EntityId, u32> = HashMap::new();
        let mut classes: Vec<Vec<RecordId>> = Vec::new();
        let ids = records.iter().map(|r| r.id.index() + 1).max().unwrap_or(0);
        let mut class_of = vec![0; ids];
        for r in records {
            if let Some(e) = r.entity {
                let slot = *slot_of.entry(e).or_insert_with(|| {
                    classes.push(Vec::new());
                    classes.len() as u32
                });
                classes[slot as usize - 1].push(r.id);
                class_of[r.id.index()] = slot;
            }
        }
        GroundTruth {
            classes,
            class_of,
            total_records: records.len(),
        }
    }

    /// True when records `a` and `b` (by id) are two different records of
    /// one entity — a pair [`GroundTruth::true_pairs`] yields. O(1): two
    /// lookups in the per-record entity column, no pair set.
    pub fn is_true_pair(&self, a: u32, b: u32) -> bool {
        let class = |id: u32| self.class_of.get(id as usize).copied().unwrap_or(0);
        a != b && class(a) != 0 && class(a) == class(b)
    }

    /// Number of records the truth covers (including singletons).
    pub fn total_records(&self) -> usize {
        self.total_records
    }

    /// Number of distinct entities that have at least one record with an
    /// entity id.
    pub fn entity_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of true duplicate pairs: Σ k·(k−1)/2 over entity classes.
    pub fn true_pair_count(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| {
                let k = c.len() as u64;
                k * (k - 1) / 2
            })
            .sum()
    }

    /// Iterates over every true duplicate pair as `(low, high)` record ids.
    pub fn true_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.classes.iter().flat_map(|class| {
            class.iter().enumerate().flat_map(move |(i, &a)| {
                class[i + 1..].iter().map(move |&b| {
                    let (x, y) = (a.0.min(b.0), a.0.max(b.0));
                    (x, y)
                })
            })
        })
    }

    /// True when records `a` and `b` describe the same entity.
    pub fn same_entity(&self, a: &Record, b: &Record) -> bool {
        match (a.entity, b.entity) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The duplicate classes (entities with ≥ 2 records), each sorted by
    /// record id, classes sorted by smallest member — the same canonical
    /// shape `UnionFind::classes` produces, enabling direct comparison.
    pub fn duplicate_classes(&self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = self
            .classes
            .iter()
            .filter(|c| c.len() > 1)
            .map(|c| {
                let mut v: Vec<u32> = c.iter().map(|r| r.0).collect();
                v.sort_unstable();
                v
            })
            .collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, entity: Option<u32>) -> Record {
        let mut r = Record::empty(RecordId(id));
        r.entity = entity.map(EntityId);
        r
    }

    #[test]
    fn pair_counting() {
        let records = vec![
            record(0, Some(1)),
            record(1, Some(1)),
            record(2, Some(1)),
            record(3, Some(2)),
            record(4, Some(3)),
            record(5, Some(3)),
            record(6, None),
        ];
        let t = GroundTruth::from_records(&records);
        assert_eq!(t.total_records(), 7);
        assert_eq!(t.entity_count(), 3);
        assert_eq!(t.true_pair_count(), 3 + 1);
        let mut pairs: Vec<_> = t.true_pairs().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2), (4, 5)]);
    }

    #[test]
    fn true_pairs_are_exactly_the_pairs_the_column_accepts() {
        let records = vec![
            record(0, Some(1)),
            record(1, Some(1)),
            record(2, None),
            record(3, Some(2)),
            record(4, Some(1)),
            record(5, None),
        ];
        let t = GroundTruth::from_records(&records);
        let listed: std::collections::HashSet<_> = t.true_pairs().collect();
        for a in 0..8 {
            for b in 0..8 {
                let want = listed.contains(&(a.min(b), a.max(b)));
                assert_eq!(t.is_true_pair(a, b), want, "({a}, {b})");
            }
        }
    }

    #[test]
    fn same_entity_requires_both_ids() {
        let a = record(0, Some(5));
        let b = record(1, Some(5));
        let c = record(2, Some(6));
        let d = record(3, None);
        let t = GroundTruth::from_records(&[a.clone(), b.clone(), c.clone(), d.clone()]);
        assert!(t.same_entity(&a, &b));
        assert!(!t.same_entity(&a, &c));
        assert!(!t.same_entity(&a, &d));
        assert!(!t.same_entity(&d, &d));
    }

    #[test]
    fn duplicate_classes_canonical_shape() {
        let records = vec![
            record(0, Some(9)),
            record(1, Some(8)),
            record(2, Some(9)),
            record(3, Some(8)),
            record(4, Some(7)),
        ];
        let t = GroundTruth::from_records(&records);
        assert_eq!(t.duplicate_classes(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn empty_truth() {
        let t = GroundTruth::from_records(&[]);
        assert_eq!(t.true_pair_count(), 0);
        assert_eq!(t.entity_count(), 0);
        assert!(t.duplicate_classes().is_empty());
    }
}
