//! The database generator proper.

use crate::config::GeneratorConfig;
use crate::corrupt::corrupt;
use crate::geo;
use crate::names::{FirstNamePool, SurnamePool};
use crate::truth::GroundTruth;
use crate::typo::TypoModel;
use mp_record::{EntityId, Record, RecordId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Size of the surname pool — the paper's "list of 63000 real names".
const SURNAME_POOL_SIZE: usize = 63_000;

/// Size of the given-name pool (a realistic population of distinct given
/// names; the canonical nickname-covered names come first).
const FIRST_NAME_POOL_SIZE: usize = 1_200;

/// A generated database together with its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedDatabase {
    /// The concatenated record list (originals and duplicates interleaved
    /// when shuffling is enabled), ids positional from zero.
    pub records: Vec<Record>,
    /// Exact duplicate classes for evaluation.
    pub truth: GroundTruth,
    /// How many records are corrupted duplicates (the rest are originals).
    pub duplicate_count: usize,
}

/// Generates employee-style databases with controlled duplication and error.
///
/// ```
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// let db = DatabaseGenerator::new(GeneratorConfig::new(200).seed(1)).generate();
/// let dup = DatabaseGenerator::new(GeneratorConfig::new(200).seed(1)).generate();
/// assert_eq!(db.records, dup.records); // fully deterministic
/// ```
#[derive(Debug)]
pub struct DatabaseGenerator {
    config: GeneratorConfig,
    surnames: SurnamePool,
    first_names: FirstNamePool,
    typos: TypoModel,
}

impl DatabaseGenerator {
    /// A generator for the given configuration. Building the 63,000-name
    /// pool costs a few milliseconds and is reused across `generate` calls.
    pub fn new(config: GeneratorConfig) -> Self {
        DatabaseGenerator {
            config,
            surnames: SurnamePool::new(SURNAME_POOL_SIZE),
            first_names: FirstNamePool::new(FIRST_NAME_POOL_SIZE),
            typos: TypoModel::default(),
        }
    }

    /// The configuration this generator runs with.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the database: originals, then duplicates of a random
    /// selection, then (by default) a global shuffle and positional id
    /// assignment.
    pub fn generate(&self) -> GeneratedDatabase {
        let n = self.config.originals;
        let mut records: Vec<Record> = Vec::with_capacity(n + n / 2);

        // Originals come from the population seed so several configs can
        // share one entity space; duplication noise uses the main seed.
        let mut pop_rng =
            StdRng::seed_from_u64(self.config.population_seed.unwrap_or(self.config.seed));
        for i in 0..n {
            records.push(self.fresh_record(i as u32, &mut pop_rng));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Select originals for duplication.
        let selected: Vec<usize> = (0..n)
            .filter(|_| rng.gen_bool(self.config.duplicate_fraction))
            .collect();
        let mut duplicate_count = 0usize;
        for &orig_idx in &selected {
            let copies = duplicate_copies(self.config.max_duplicates, &mut rng);
            for _ in 0..copies {
                let mut dup = records[orig_idx].clone();
                corrupt(
                    &mut dup,
                    &self.config.errors,
                    &self.typos,
                    &self.surnames,
                    &mut rng,
                );
                records.push(dup);
                duplicate_count += 1;
            }
        }

        if self.config.shuffle {
            records.shuffle(&mut rng);
        }
        for (i, r) in records.iter_mut().enumerate() {
            r.id = RecordId(i as u32);
        }
        let truth = GroundTruth::from_records(&records);
        GeneratedDatabase {
            records,
            truth,
            duplicate_count,
        }
    }

    fn fresh_record(&self, entity: u32, rng: &mut StdRng) -> Record {
        let mut r = Record::empty(RecordId(0)); // positional id assigned later
        r.entity = Some(EntityId(entity));
        r.ssn = format!("{:09}", rng.gen_range(0..1_000_000_000u64)).into();
        r.first_name.set(self.first_names.sample_skewed(rng));
        if rng.gen_bool(0.7) {
            let initial = char::from(b'A' + rng.gen_range(0..26));
            r.middle_initial.set(initial.encode_utf8(&mut [0; 4]));
        }
        r.last_name.set(self.surnames.sample_skewed(rng));
        let (num, street) = geo::random_street(rng);
        r.street_number = num.into();
        r.street_name = street.into();
        r.apartment = geo::random_apartment(rng).into();
        let city = geo::random_city(rng);
        r.city.set(city.name);
        r.state.set(city.state);
        r.zip = geo::random_zip(city, rng).into();
        r
    }
}

/// Number of duplicates for one selected record: geometric with halving
/// probability, truncated at `max`. Most selected records duplicate once;
/// the mean for max = 5 is ~1.84, which reproduces the paper's record
/// counts (7,500 originals at 50% -> 13,751 records, i.e. ~1.67 duplicates
/// per selected record).
fn duplicate_copies<R: Rng>(max: usize, rng: &mut R) -> usize {
    let mut copies = 1;
    while copies < max && rng.gen_bool(0.5) {
        copies += 1;
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorProfile;
    use std::collections::HashMap;

    #[test]
    fn record_counts_and_truth_agree() {
        let db = DatabaseGenerator::new(
            GeneratorConfig::new(500)
                .duplicate_fraction(0.4)
                .max_duplicates_per_record(3)
                .seed(21),
        )
        .generate();
        assert_eq!(db.records.len(), 500 + db.duplicate_count);
        assert_eq!(db.truth.total_records(), db.records.len());
        // Expected duplicates: 500 * 0.4 * E[1..=3] = 500 * 0.4 * 2 = 400.
        assert!(
            db.duplicate_count > 250 && db.duplicate_count < 560,
            "duplicate count {} outside plausible range",
            db.duplicate_count
        );
    }

    #[test]
    fn ids_positional_after_shuffle() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(100).seed(22)).generate();
        for (i, r) in db.records.iter().enumerate() {
            assert_eq!(r.id, RecordId(i as u32));
        }
    }

    #[test]
    fn entity_class_sizes_within_bounds() {
        let cfg = GeneratorConfig::new(300)
            .duplicate_fraction(0.5)
            .max_duplicates_per_record(5)
            .seed(23);
        let db = DatabaseGenerator::new(cfg).generate();
        let mut sizes: HashMap<u32, usize> = HashMap::new();
        for r in &db.records {
            *sizes.entry(r.entity.unwrap().0).or_default() += 1;
        }
        for (&e, &k) in &sizes {
            assert!((1..=6).contains(&k), "entity {e} has {k} records");
        }
        assert_eq!(sizes.len(), 300);
    }

    #[test]
    fn zero_duplication_yields_no_pairs() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(100).duplicate_fraction(0.0).seed(24))
            .generate();
        assert_eq!(db.duplicate_count, 0);
        assert_eq!(db.truth.true_pair_count(), 0);
        assert_eq!(db.records.len(), 100);
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let a = DatabaseGenerator::new(GeneratorConfig::new(50).seed(1)).generate();
        let b = DatabaseGenerator::new(GeneratorConfig::new(50).seed(1)).generate();
        let c = DatabaseGenerator::new(GeneratorConfig::new(50).seed(2)).generate();
        assert_eq!(a.records, b.records);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn duplicates_usually_differ_from_original_under_default_profile() {
        let db = DatabaseGenerator::new(
            GeneratorConfig::new(200)
                .duplicate_fraction(1.0)
                .max_duplicates_per_record(1)
                .errors(ErrorProfile::default())
                .no_shuffle()
                .seed(25),
        )
        .generate();
        // Without shuffling, originals are 0..200, duplicates 200...
        let mut identical = 0;
        for dup in &db.records[200..] {
            let orig = db.records[..200]
                .iter()
                .find(|o| o.entity == dup.entity)
                .unwrap();
            let mut o = orig.clone();
            let mut d = dup.clone();
            o.id = RecordId(0);
            d.id = RecordId(0);
            if o == d {
                identical += 1;
            }
        }
        let frac = identical as f64 / db.duplicate_count as f64;
        assert!(
            frac < 0.3,
            "{identical} of {} duplicates unchanged",
            db.duplicate_count
        );
    }

    #[test]
    fn shared_population_seed_gives_same_entities_different_noise() {
        let a = DatabaseGenerator::new(
            GeneratorConfig::new(100)
                .population_seed(9)
                .duplicate_fraction(0.0)
                .seed(1),
        )
        .generate();
        let b = DatabaseGenerator::new(
            GeneratorConfig::new(100)
                .population_seed(9)
                .duplicate_fraction(0.5)
                .seed(2),
        )
        .generate();
        // Original entities coincide across the two sources...
        let originals_b: Vec<&Record> = b
            .records
            .iter()
            .filter(|r| {
                // an original keeps its clean fields: find the matching a-record
                a.records
                    .iter()
                    .any(|o| o.entity == r.entity && o.ssn == r.ssn && o.last_name == r.last_name)
            })
            .collect();
        assert!(
            originals_b.len() >= 100,
            "only {} of b's records match a's originals",
            originals_b.len()
        );
        // ...while the noisy copies differ between sources.
        assert_ne!(a.records.len(), b.records.len());
    }

    #[test]
    fn ssn_and_zip_shapes() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(100).seed(26)).generate();
        for r in &db.records {
            assert_eq!(r.ssn.len(), 9, "ssn {:?}", r.ssn);
            assert_eq!(r.zip.len(), 5, "zip {:?}", r.zip);
        }
    }
}
