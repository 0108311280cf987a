//! Property-based tests for the metric invariants the merge/purge rule
//! engine relies on: identity, symmetry, triangle inequality, bounds, and
//! agreement between the exact / bounded / buffered edit-distance variants.

use mp_strsim::{
    damerau_levenshtein, jaro, jaro_winkler, keyboard_distance, lcs_length, lcs_similarity,
    levenshtein, levenshtein_bounded, ngram_similarity, normalized_levenshtein, nysiis, soundex,
    soundex_eq, EditBuffer,
};
use proptest::prelude::*;

/// ASCII-ish strings resembling the record fields the pipeline sees.
fn field() -> impl Strategy<Value = String> {
    "[A-Z0-9 '\\-]{0,16}"
}

proptest! {
    #[test]
    fn levenshtein_identity(a in field()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    #[test]
    fn levenshtein_symmetry(a in field(), b in field()) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn levenshtein_triangle(a in field(), b in field(), c in field()) {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_length_bounds(a in field(), b in field()) {
        let d = levenshtein(&a, &b);
        let la = a.chars().count();
        let lb = b.chars().count();
        prop_assert!(d >= la.abs_diff(lb));
        prop_assert!(d <= la.max(lb));
    }

    #[test]
    fn bounded_agrees_with_exact(a in field(), b in field(), max in 0usize..20) {
        let exact = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, max) {
            Some(d) => prop_assert_eq!(d, exact),
            None => prop_assert!(exact > max),
        }
    }

    #[test]
    fn buffer_agrees_with_exact(a in field(), b in field()) {
        let mut buf = EditBuffer::new();
        prop_assert_eq!(buf.distance(&a, &b), levenshtein(&a, &b));
    }

    #[test]
    fn damerau_at_most_levenshtein(a in field(), b in field()) {
        prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
        // And at most one cheaper per transposition: lev <= 2 * dam.
        prop_assert!(levenshtein(&a, &b) <= 2 * damerau_levenshtein(&a, &b).max(1));
    }

    #[test]
    fn damerau_symmetry(a in field(), b in field()) {
        prop_assert_eq!(damerau_levenshtein(&a, &b), damerau_levenshtein(&b, &a));
    }

    #[test]
    fn normalized_in_unit_interval(a in field(), b in field()) {
        let s = normalized_levenshtein(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        if a == b {
            prop_assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn jaro_bounds_and_identity(a in field(), b in field()) {
        let j = jaro(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(jaro(&a, &a), 1.0);
        let jw = jaro_winkler(&a, &b);
        prop_assert!(jw >= j - 1e-12);
        prop_assert!(jw <= 1.0 + 1e-12);
    }

    #[test]
    fn jaro_symmetry(a in field(), b in field()) {
        prop_assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn keyboard_distance_bounds(a in field(), b in field()) {
        let kd = keyboard_distance(&a, &b);
        prop_assert!(kd >= 0.0);
        prop_assert!(kd <= levenshtein(&a, &b) as f64 + 1e-9);
        // Substitutions cost at least 0.5, so kd >= lev / 2.
        prop_assert!(kd >= levenshtein(&a, &b) as f64 / 2.0 - 1e-9);
    }

    #[test]
    fn soundex_shape(a in field()) {
        let c = soundex(&a);
        prop_assert_eq!(c.len(), 4);
        let mut bytes = c.bytes();
        let first = bytes.next().unwrap();
        prop_assert!(first.is_ascii_uppercase() || first == b'0');
        prop_assert!(bytes.all(|b| b.is_ascii_digit()));
    }

    /// Names over few letters, in both cases, with digits and punctuation,
    /// so that codes often collide and some names have no letters; each
    /// name is also paired with its own lower case, whose code is equal.
    #[test]
    fn soundex_eq_is_equal_codes_with_letters(
        a in "[SsMmTtHhWwYyAaDd0-9 '\\-]{0,10}",
        b in "[SsMmTtHhWwYyAaDd0-9 '\\-]{0,10}",
    ) {
        for (x, y) in [(&a, &b), (&a, &a.to_lowercase()), (&b, &format!("{b}{a}"))] {
            let (cx, cy) = (soundex(x), soundex(y));
            prop_assert_eq!(soundex_eq(x, y), cx == cy && cx != "0000", "{:?} {:?}", x, y);
        }
    }

    #[test]
    fn soundex_insensitive_to_case(a in "[A-Za-z]{1,12}") {
        prop_assert_eq!(soundex(&a), soundex(&a.to_lowercase()));
    }

    #[test]
    fn nysiis_shape(a in field()) {
        let c = nysiis(&a);
        prop_assert!(c.len() <= 6);
        prop_assert!(c.bytes().all(|b| b.is_ascii_uppercase()));
    }

    #[test]
    fn ngram_bounds_and_identity(a in field(), b in field(), n in 1usize..4) {
        let s = ngram_similarity(&a, &b, n);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        prop_assert!((ngram_similarity(&a, &a, n) - 1.0).abs() < 1e-12);
        prop_assert!((s - ngram_similarity(&b, &a, n)).abs() < 1e-12);
    }

    #[test]
    fn lcs_bounds(a in field(), b in field()) {
        let l = lcs_length(&a, &b);
        prop_assert!(l <= a.chars().count().min(b.chars().count()));
        prop_assert_eq!(lcs_length(&a, &a), a.chars().count());
        let s = lcs_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn single_edit_has_distance_one(a in "[A-Z]{2,12}", idx in 0usize..12, cb in b'A'..=b'Z') {
        let c = cb as char;
        let chars: Vec<char> = a.chars().collect();
        let i = idx % chars.len();
        if chars[i] != c {
            let mut mutated = chars.clone();
            mutated[i] = c;
            let m: String = mutated.into_iter().collect();
            prop_assert_eq!(levenshtein(&a, &m), 1);
            prop_assert_eq!(damerau_levenshtein(&a, &m), 1);
        }
    }

    #[test]
    fn adjacent_transposition_is_one_damerau(a in "[A-Z]{2,12}", idx in 0usize..11) {
        let mut chars: Vec<char> = a.chars().collect();
        let i = idx % (chars.len() - 1);
        if chars[i] != chars[i + 1] {
            chars.swap(i, i + 1);
            let m: String = chars.into_iter().collect();
            prop_assert_eq!(damerau_levenshtein(&a, &m), 1);
        }
    }
}
