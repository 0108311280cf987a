//! Property-based tests for the core engines' invariants.

use merge_purge::{window_scan, KeyPart, KeySpec, MultiPass, SortedNeighborhood};
use mp_closure::PairSet;
use mp_record::{Field, Record, RecordId};
use mp_rules::EquationalTheory;
use proptest::prelude::*;

/// Theory matching records with equal last names (cheap, deterministic).
struct SameLast;
impl EquationalTheory for SameLast {
    fn matches(&self, a: &Record, b: &Record) -> bool {
        !a.last_name.is_empty() && a.last_name == b.last_name
    }
    fn name(&self) -> &str {
        "same-last"
    }
}

fn records_from(lasts: &[String]) -> Vec<Record> {
    lasts
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut r = Record::empty(RecordId(i as u32));
            r.last_name = l.clone().into();
            r
        })
        .collect()
}

/// Oracle: all pairs within `w` positions of each other in `order` that
/// the theory matches.
fn naive_window_pairs(records: &[Record], order: &[u32], w: usize) -> Vec<(u32, u32)> {
    let mut out = PairSet::new();
    for i in 0..order.len() {
        for j in (i + 1)..order.len().min(i + w) {
            let (a, b) = (&records[order[i] as usize], &records[order[j] as usize]);
            if SameLast.matches(a, b) {
                out.insert(a.id.0, b.id.0);
            }
        }
    }
    out.sorted()
}

proptest! {
    /// The incremental window scan equals the all-pairs-within-w oracle.
    #[test]
    fn window_scan_matches_naive_oracle(
        lasts in proptest::collection::vec("[A-C]{0,2}", 0..60),
        w in 2usize..12,
    ) {
        let records = records_from(&lasts);
        let order: Vec<u32> = (0..records.len() as u32).collect();
        let mut pairs = PairSet::new();
        window_scan(&records, &order, w, &SameLast, &mut pairs);
        prop_assert_eq!(pairs.sorted(), naive_window_pairs(&records, &order, w));
    }

    /// Window monotonicity: growing w never loses pairs.
    #[test]
    fn larger_window_is_superset(
        lasts in proptest::collection::vec("[A-D]{1,3}", 2..50),
        w in 2usize..8,
    ) {
        let records = records_from(&lasts);
        let snm_small = SortedNeighborhood::new(KeySpec::last_name_key(), w)
            .run(&records, &SameLast);
        let snm_big = SortedNeighborhood::new(KeySpec::last_name_key(), w + 5)
            .run(&records, &SameLast);
        for (a, b) in snm_small.pairs.iter() {
            prop_assert!(snm_big.pairs.contains(a, b));
        }
    }

    /// Closure output is consistent: closed pairs = expansion of classes,
    /// and every input pair lands inside one class.
    #[test]
    fn closure_consistency(
        lasts in proptest::collection::vec("[A-B]{1,2}", 2..40),
        w in 2usize..6,
    ) {
        let records = records_from(&lasts);
        let result = MultiPass::new()
            .sorted(KeySpec::last_name_key(), w)
            .run(&records, &SameLast);
        let expanded: usize = result
            .classes
            .iter()
            .map(|c| c.len() * (c.len() - 1) / 2)
            .sum();
        prop_assert_eq!(expanded, result.closed_pairs.len());
        for pass in &result.passes {
            for (a, b) in pass.pairs.iter() {
                prop_assert!(result.closed_pairs.contains(a, b));
            }
        }
    }

    /// Key extraction is deterministic, uppercase-alphanumeric, and prefix
    /// transforms bound the length.
    #[test]
    fn key_extraction_invariants(
        last in "\\PC{0,20}",
        first in "\\PC{0,20}",
        n in 1usize..8,
    ) {
        let mut r = Record::empty(RecordId(0));
        r.last_name = last.into();
        r.first_name = first.into();
        let spec = KeySpec::new(
            "t",
            vec![
                KeyPart::Prefix(Field::LastName, n),
                KeyPart::FirstNonBlank(Field::FirstName),
            ],
        );
        let k1 = spec.extract(&r);
        let k2 = spec.extract(&r);
        prop_assert_eq!(&k1, &k2);
        // One source char can uppercase to several (e.g. 'ᾼ' -> "ΑΙ"),
        // so FirstNonBlank contributes up to 3 chars.
        prop_assert!(k1.chars().count() <= n + 3);
        // Case-folded: re-uppercasing must be a no-op (some Unicode chars
        // have no uppercase form and pass through unchanged).
        prop_assert_eq!(k1.to_uppercase(), k1.clone());
    }

    /// The generator's database always evaluates cleanly end to end with
    /// the real theory (no panics across random small configs).
    #[test]
    fn pipeline_never_panics_on_random_configs(
        originals in 1usize..80,
        dup in 0.0f64..1.0,
        w in 2usize..10,
        seed in 0u64..1_000,
    ) {
        use mp_datagen::{DatabaseGenerator, GeneratorConfig};
        use mp_rules::NativeEmployeeTheory;
        let db = DatabaseGenerator::new(
            GeneratorConfig::new(originals)
                .duplicate_fraction(dup)
                .seed(seed),
        )
        .generate();
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::new()
            .sorted(KeySpec::last_name_key(), w)
            .run(&db.records, &theory);
        prop_assert!(result.closed_pairs.len() >= result.passes[0].pairs.len() / 2);
    }
}
