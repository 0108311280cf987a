//! Field-level corruption of duplicate records.

use crate::config::ErrorProfile;
use crate::names::random_variant;
use crate::typo::TypoModel;
use crate::{geo, names};
use mp_record::{Field, FieldStr, Record};
use rand::Rng;

/// Salutations occasionally prepended to first names (§2.1: "salutations
/// are at times included").
const SALUTATIONS: [&str; 4] = ["MR", "MRS", "MS", "DR"];

/// Applies the error profile to a duplicate record in place.
///
/// The original record is never touched; only copies are corrupted, exactly
/// as in the paper's generator where "errors \[are\] introduced in the
/// duplicate records" (§3.1).
pub fn corrupt<R: Rng>(
    record: &mut Record,
    profile: &ErrorProfile,
    typos: &TypoModel,
    surnames: &names::SurnamePool,
    rng: &mut R,
) {
    // Gross SSN errors: the §2.4 motivating example.
    if rng.gen_bool(profile.ssn_transpose_prob) {
        transpose_adjacent_digits(&mut record.ssn, rng);
    }
    if rng.gen_bool(profile.ssn_digit_error_prob) {
        replace_one_digit(&mut record.ssn, rng);
    }

    // Name-level changes.
    if rng.gen_bool(profile.last_name_change_prob) {
        record.last_name.set(surnames.sample(rng));
    }
    if rng.gen_bool(profile.nickname_prob) {
        if let Some(variant) = random_variant(&record.first_name, rng) {
            record.first_name.set(variant);
        }
    }
    if rng.gen_bool(profile.salutation_prob) {
        let sal = SALUTATIONS[rng.gen_range(0..SALUTATIONS.len())];
        record.first_name = format!("{sal} {}", record.first_name).into();
    }
    if rng.gen_bool(profile.name_swap_prob) && !record.middle_initial.is_empty() {
        std::mem::swap(&mut record.first_name, &mut record.middle_initial);
    }

    // The person moved: regenerate the whole address consistently.
    if rng.gen_bool(profile.address_change_prob) {
        let (num, street) = geo::random_street(rng);
        record.street_number = num.into();
        record.street_name = street.into();
        record.apartment = geo::random_apartment(rng).into();
        let city = geo::random_city(rng);
        record.city.set(city.name);
        record.state.set(city.state);
        record.zip = geo::random_zip(city, rng).into();
    }

    // Missing optional fields.
    if rng.gen_bool(profile.missing_field_prob) {
        record.middle_initial.set("");
    }
    if rng.gen_bool(profile.missing_field_prob) {
        record.apartment.set("");
    }

    // Per-character typographical noise over the text fields.
    for field in [
        Field::FirstName,
        Field::LastName,
        Field::StreetName,
        Field::City,
    ] {
        if rng.gen_bool(profile.field_typo_prob) {
            let mut text = record.field(field).to_string();
            typos.apply_noise(&mut text, profile.typos_per_field, rng);
            record.field_mut(field).set(&text);
        }
    }
}

fn transpose_adjacent_digits<R: Rng>(s: &mut FieldStr, rng: &mut R) {
    let mut bytes: Vec<u8> = s.bytes().collect();
    if bytes.len() < 2 {
        return;
    }
    // Pick a position where the swap actually changes the string, if any.
    let candidates: Vec<usize> = (0..bytes.len() - 1)
        .filter(|&i| bytes[i] != bytes[i + 1])
        .collect();
    if candidates.is_empty() {
        return;
    }
    let i = candidates[rng.gen_range(0..candidates.len())];
    bytes.swap(i, i + 1);
    s.set(std::str::from_utf8(&bytes).expect("digits are ASCII"));
}

fn replace_one_digit<R: Rng>(s: &mut FieldStr, rng: &mut R) {
    let mut bytes: Vec<u8> = s.bytes().collect();
    if bytes.is_empty() {
        return;
    }
    let i = rng.gen_range(0..bytes.len());
    let mut d = b'0' + rng.gen_range(0..10);
    while d == bytes[i] {
        d = b'0' + rng.gen_range(0..10);
    }
    bytes[i] = d;
    s.set(std::str::from_utf8(&bytes).expect("digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::SurnamePool;
    use mp_record::RecordId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_record() -> Record {
        let mut r = Record::empty(RecordId(0));
        r.ssn = "123456789".into();
        r.first_name = "ROBERT".into();
        r.middle_initial = "J".into();
        r.last_name = "JOHNSON".into();
        r.street_number = "42".into();
        r.street_name = "MAIN STREET".into();
        r.city = "CHICAGO".into();
        r.state = "IL".into();
        r.zip = "60601".into();
        r
    }

    #[test]
    fn full_profile_changes_something_usually() {
        let mut rng = StdRng::seed_from_u64(11);
        let typos = TypoModel::default();
        let pool = SurnamePool::new(1_000);
        let profile = ErrorProfile::heavy();
        let mut changed = 0;
        for _ in 0..100 {
            let mut dup = base_record();
            corrupt(&mut dup, &profile, &typos, &pool, &mut rng);
            if dup != base_record() {
                changed += 1;
            }
        }
        assert!(changed > 90, "only {changed}/100 duplicates changed");
    }

    #[test]
    fn zero_profile_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(12);
        let typos = TypoModel::default();
        let pool = SurnamePool::new(10);
        let profile = ErrorProfile {
            typos_per_field: 0.0,
            field_typo_prob: 0.0,
            ssn_transpose_prob: 0.0,
            ssn_digit_error_prob: 0.0,
            last_name_change_prob: 0.0,
            nickname_prob: 0.0,
            address_change_prob: 0.0,
            salutation_prob: 0.0,
            missing_field_prob: 0.0,
            name_swap_prob: 0.0,
        };
        let mut dup = base_record();
        corrupt(&mut dup, &profile, &typos, &pool, &mut rng);
        assert_eq!(dup, base_record());
    }

    #[test]
    fn ssn_transposition_preserves_digit_multiset() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let mut s = FieldStr::from("193456782");
            transpose_adjacent_digits(&mut s, &mut rng);
            let mut a: Vec<u8> = s.bytes().collect();
            let mut b: Vec<u8> = "193456782".bytes().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            assert_ne!(s, "193456782");
        }
    }

    #[test]
    fn transpose_handles_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut empty = FieldStr::new();
        transpose_adjacent_digits(&mut empty, &mut rng);
        assert!(empty.is_empty());
        let mut one = FieldStr::from("7");
        transpose_adjacent_digits(&mut one, &mut rng);
        assert_eq!(one, "7");
        let mut same = FieldStr::from("1111");
        transpose_adjacent_digits(&mut same, &mut rng);
        assert_eq!(same, "1111");
    }

    #[test]
    fn digit_replacement_changes_exactly_one_position() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..50 {
            let mut s = FieldStr::from("123456789");
            replace_one_digit(&mut s, &mut rng);
            let diffs = s
                .bytes()
                .zip("123456789".bytes())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diffs, 1);
        }
    }

    #[test]
    fn address_change_keeps_city_state_zip_consistent() {
        let mut rng = StdRng::seed_from_u64(16);
        let typos = TypoModel::default();
        let pool = SurnamePool::new(10);
        let profile = ErrorProfile {
            address_change_prob: 1.0,
            field_typo_prob: 0.0,
            typos_per_field: 0.0,
            ssn_transpose_prob: 0.0,
            ssn_digit_error_prob: 0.0,
            last_name_change_prob: 0.0,
            nickname_prob: 0.0,
            salutation_prob: 0.0,
            missing_field_prob: 0.0,
            name_swap_prob: 0.0,
        };
        for _ in 0..20 {
            let mut dup = base_record();
            corrupt(&mut dup, &profile, &typos, &pool, &mut rng);
            assert_eq!(dup.zip.len(), 5);
            // zip prefix must match one of the seed cities with this name.
            assert!(!dup.city.is_empty());
            assert_eq!(dup.state.len(), 2);
        }
    }
}
