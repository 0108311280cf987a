//! The purge phase: consolidating each duplicate class into one survivor.
//!
//! §5: "In many applications the purge phase requires complex functions to
//! extract or 'deduce' relevant information from merged records ... The
//! rule base comes in handy here as well. The consequent of the rules can
//! be programmed to specify selective extraction, purging, and even
//! deduction." The rule DSL's optional `purge { field <- strategy }` block
//! declares per-field survivorship; this module executes it over the
//! closure's equivalence classes.

use mp_record::{Field, Record, RecordId};
use mp_rules::{PurgeSpec, Survivorship};
use std::collections::HashMap;

/// Executes field survivorship over duplicate classes.
///
/// ```
/// use merge_purge::purge::Purger;
/// use mp_record::{Field, Record, RecordId};
/// use mp_rules::Survivorship;
///
/// let mut a = Record::empty(RecordId(0));
/// a.first_name = "ROB".into();
/// let mut b = Record::empty(RecordId(1));
/// b.first_name = "ROBERT".into();
///
/// let purger = Purger::new(Survivorship::First).with(Field::FirstName, Survivorship::Longest);
/// let survivor = purger.consolidate(&[&a, &b]);
/// assert_eq!(survivor.first_name, "ROBERT");
/// ```
#[derive(Debug, Clone)]
pub struct Purger {
    default: Survivorship,
    per_field: HashMap<Field, Survivorship>,
}

impl Default for Purger {
    /// Defaults every field to [`Survivorship::Longest`] — "prefer the most
    /// complete value", the common production choice.
    fn default() -> Self {
        Purger::new(Survivorship::Longest)
    }
}

impl Purger {
    /// A purger applying `default` to every field.
    pub fn new(default: Survivorship) -> Self {
        Purger {
            default,
            per_field: HashMap::new(),
        }
    }

    /// Overrides the strategy for one field.
    #[must_use]
    pub fn with(mut self, field: Field, strategy: Survivorship) -> Self {
        self.per_field.insert(field, strategy);
        self
    }

    /// Builds a purger from a rule program's `purge { ... }` block;
    /// unassigned fields use `default`.
    pub fn from_spec(spec: &PurgeSpec, default: Survivorship) -> Self {
        let mut p = Purger::new(default);
        for (field, strategy) in &spec.assignments {
            p.per_field.insert(*field, *strategy);
        }
        p
    }

    /// The strategy that will be applied to `field`.
    pub fn strategy(&self, field: Field) -> Survivorship {
        self.per_field.get(&field).copied().unwrap_or(self.default)
    }

    /// Consolidates one duplicate class (in input order) into a survivor
    /// record. The survivor takes the first record's id and entity.
    ///
    /// # Panics
    ///
    /// Panics on an empty class.
    pub fn consolidate(&self, class: &[&Record]) -> Record {
        assert!(!class.is_empty(), "cannot consolidate an empty class");
        let mut out = Record::empty(class[0].id);
        out.entity = class[0].entity;
        for field in Field::ALL {
            out.field_mut(field).set(self.survive(field, class));
        }
        out
    }

    fn survive<'a>(&self, field: Field, class: &[&'a Record]) -> &'a str {
        let values = class.iter().map(|r| r.field(field));
        match self.strategy(field) {
            Survivorship::First => class[0].field(field),
            Survivorship::FirstNonEmpty => values.into_iter().find(|v| !v.is_empty()).unwrap_or(""),
            Survivorship::Longest => {
                // Manual scan: `max_by_key` keeps the *last* maximum, but
                // ties must resolve to the earliest record.
                let mut best = "";
                let mut best_len = 0usize;
                for (i, v) in values.enumerate() {
                    let len = v.chars().count();
                    if len > best_len || i == 0 {
                        best = v;
                        best_len = len;
                    }
                }
                best
            }
            Survivorship::MostFrequent => {
                let mut counts: HashMap<&str, (usize, usize)> = HashMap::new();
                for (i, v) in class.iter().map(|r| r.field(field)).enumerate() {
                    if v.is_empty() {
                        continue;
                    }
                    let entry = counts.entry(v).or_insert((0, i));
                    entry.0 += 1;
                }
                counts
                    .into_iter()
                    .max_by(|(_, (ca, ia)), (_, (cb, ib))| {
                        ca.cmp(cb).then(ib.cmp(ia)) // higher count, then earlier
                    })
                    .map(|(v, _)| v)
                    .unwrap_or_default()
            }
        }
    }

    /// Purges an entire database: every duplicate class collapses to its
    /// consolidated survivor and every unmatched record passes through.
    /// Output ids are renumbered positionally; the result is duplicate-free
    /// with respect to `classes`.
    pub fn purge(&self, records: &[Record], classes: &[Vec<u32>]) -> Vec<Record> {
        let mut in_class = vec![false; records.len()];
        for class in classes {
            for &id in class {
                in_class[id as usize] = true;
            }
        }
        let survivors: HashMap<u32, Record> = classes
            .iter()
            .map(|class| {
                let members: Vec<&Record> = class.iter().map(|&i| &records[i as usize]).collect();
                (class[0], self.consolidate(&members))
            })
            .collect();
        let mut out = Vec::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            if !in_class[i] {
                out.push(r.clone());
            } else if let Some(survivor) = survivors.get(&(i as u32)) {
                out.push(survivor.clone());
            }
            // class members other than the representative are dropped
        }
        for (i, r) in out.iter_mut().enumerate() {
            r.id = RecordId(i as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, first: &str, middle: &str, city: &str) -> Record {
        let mut r = Record::empty(RecordId(id));
        r.first_name = first.into();
        r.middle_initial = middle.into();
        r.city = city.into();
        r
    }

    #[test]
    fn strategies_behave_as_documented() {
        let a = rec(0, "ROB", "", "NYC");
        let b = rec(1, "ROBERT", "J", "NYC");
        let c = rec(2, "BOB", "J", "BOSTON");
        let class = [&a, &b, &c];

        let first = Purger::new(Survivorship::First).consolidate(&class);
        assert_eq!(first.first_name, "ROB");
        assert_eq!(first.middle_initial, "");

        let fne = Purger::new(Survivorship::FirstNonEmpty).consolidate(&class);
        assert_eq!(fne.middle_initial, "J");

        let longest = Purger::new(Survivorship::Longest).consolidate(&class);
        assert_eq!(longest.first_name, "ROBERT");

        let freq = Purger::new(Survivorship::MostFrequent).consolidate(&class);
        assert_eq!(freq.city, "NYC");
        assert_eq!(freq.middle_initial, "J");
    }

    #[test]
    fn most_frequent_ties_resolve_to_earliest() {
        let a = rec(0, "ANNA", "", "X");
        let b = rec(1, "ANNE", "", "Y");
        let p = Purger::new(Survivorship::MostFrequent);
        assert_eq!(p.consolidate(&[&a, &b]).first_name, "ANNA");
        assert_eq!(p.consolidate(&[&b, &a]).first_name, "ANNE");
    }

    #[test]
    fn all_empty_field_survives_as_empty() {
        let a = rec(0, "", "", "");
        let b = rec(1, "", "", "");
        for s in [
            Survivorship::First,
            Survivorship::FirstNonEmpty,
            Survivorship::Longest,
            Survivorship::MostFrequent,
        ] {
            assert_eq!(Purger::new(s).consolidate(&[&a, &b]).first_name, "");
        }
    }

    #[test]
    fn per_field_override_and_spec() {
        let spec = PurgeSpec {
            assignments: vec![
                (Field::FirstName, Survivorship::Longest),
                (Field::City, Survivorship::MostFrequent),
            ],
        };
        let p = Purger::from_spec(&spec, Survivorship::First);
        assert_eq!(p.strategy(Field::FirstName), Survivorship::Longest);
        assert_eq!(p.strategy(Field::City), Survivorship::MostFrequent);
        assert_eq!(p.strategy(Field::Zip), Survivorship::First);
    }

    #[test]
    fn purge_collapses_classes_and_renumbers() {
        let records = vec![
            rec(0, "A", "", "X"),
            rec(1, "LONGER", "", "X"),
            rec(2, "UNIQUE", "", "Y"),
            rec(3, "B", "", "Z"),
            rec(4, "BB", "", "Z"),
        ];
        let classes = vec![vec![0, 1], vec![3, 4]];
        let out = Purger::default().purge(&records, &classes);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].first_name, "LONGER"); // survivor of {0,1}
        assert_eq!(out[1].first_name, "UNIQUE"); // pass-through
        assert_eq!(out[2].first_name, "BB"); // survivor of {3,4}
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.id, RecordId(i as u32));
        }
    }

    #[test]
    fn purge_with_no_classes_is_identity_modulo_ids() {
        let records = vec![rec(0, "A", "", ""), rec(1, "B", "", "")];
        let out = Purger::default().purge(&records, &[]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].first_name, "A");
    }

    #[test]
    #[should_panic(expected = "empty class")]
    fn empty_class_panics() {
        Purger::default().consolidate(&[]);
    }
}
