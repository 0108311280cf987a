//! Record conditioning: the cheap, purely syntactic cleanup pass run over
//! every record before keys are extracted (§2.2 "after conditioning the
//! records" / §3.2 pre-processing).
//!
//! The pass works in place. Each field is canonicalised into one scratch
//! buffer (shared across a whole [`condition_all`] slice), edited there,
//! and copied back into the field, so a record whose conditioned fields
//! fit inline ([`FieldStr`](crate::FieldStr)) costs no allocation.

use crate::nickname::NicknameTable;
use crate::record::Record;

/// Honorifics stripped from name fields.
const SALUTATIONS: [&str; 8] = ["MR", "MRS", "MS", "DR", "MISS", "PROF", "REV", "HON"];

/// Generational suffixes stripped from last-name fields.
const SUFFIXES: [&str; 7] = ["JR", "SR", "II", "III", "IV", "ESQ", "PHD"];

/// Street-type abbreviations expanded to a canonical long form, so that
/// "MAIN ST" and "MAIN STREET" compare equal before any fuzzy matching.
const STREET_ABBREVS: [(&str, &str); 12] = [
    ("ST", "STREET"),
    ("AVE", "AVENUE"),
    ("AV", "AVENUE"),
    ("BLVD", "BOULEVARD"),
    ("RD", "ROAD"),
    ("DR", "DRIVE"),
    ("LN", "LANE"),
    ("CT", "COURT"),
    ("PL", "PLACE"),
    ("SQ", "SQUARE"),
    ("HWY", "HIGHWAY"),
    ("PKWY", "PARKWAY"),
];

/// Upper-cases, trims, and collapses internal whitespace runs to single
/// spaces; also drops periods and commas (common punctuation noise).
///
/// ```
/// use mp_record::normalize::canonical;
/// assert_eq!(canonical("  j.  smith, "), "J SMITH");
/// ```
pub fn canonical(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    canonical_into(s, &mut out);
    out
}

/// [`canonical`] written into `out` (cleared first), so a caller with a
/// reused buffer allocates nothing.
fn canonical_into(s: &str, out: &mut String) {
    out.clear();
    let mut pending_space = false;
    for c in s.chars() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if c == '.' || c == ',' {
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        if c.is_ascii() {
            out.push(c.to_ascii_uppercase());
        } else {
            out.extend(c.to_uppercase());
        }
    }
}

/// Removes a leading salutation token ("MR", "DR", ...) from a name.
pub fn strip_salutation(name: &str) -> &str {
    for sal in SALUTATIONS {
        if let Some(rest) = name.strip_prefix(sal) {
            if let Some(rest) = rest.strip_prefix(' ') {
                return rest;
            }
        }
    }
    name
}

/// Removes a trailing generational suffix ("JR", "III", ...) from a name.
pub fn strip_suffix(name: &str) -> &str {
    for suf in SUFFIXES {
        if let Some(rest) = name.strip_suffix(suf) {
            if let Some(rest) = rest.strip_suffix(' ') {
                return rest;
            }
        }
    }
    name
}

/// Expands trailing street-type abbreviations ("ST" → "STREET").
///
/// Only the final token is considered, which is where street types appear;
/// expanding interior tokens would corrupt names like "ST JOHNS AVENUE".
pub fn expand_street(street: &str) -> String {
    let mut out = street.to_string();
    expand_street_in_place(&mut out);
    out
}

/// [`expand_street`] on the string itself: the final token is replaced
/// by its long form, everything before it stays where it is.
fn expand_street_in_place(street: &mut String) {
    let Some((head, last)) = street.rsplit_once(' ') else {
        return;
    };
    if let Some((_, long)) = STREET_ABBREVS.iter().find(|(abbr, _)| *abbr == last) {
        street.truncate(head.len() + 1);
        street.push_str(long);
    }
}

/// Conditions one record in place: canonical form for every field, name
/// cleanup, street expansion, and nickname substitution on the first name.
///
/// This is the paper's "create keys / conditioning" O(N) pass, minus key
/// extraction (which the core crate fuses into its sort phase).
pub fn condition(record: &mut Record, nicknames: &NicknameTable) {
    condition_with(record, nicknames, &mut String::new());
}

/// Conditions a whole list of records, sharing one scratch buffer.
pub fn condition_all(records: &mut [Record], nicknames: &NicknameTable) {
    let mut scratch = String::new();
    for r in records {
        condition_with(r, nicknames, &mut scratch);
    }
}

/// [`condition`] through a caller's scratch buffer. Each field is
/// canonicalised into `scratch`, edited there, and copied back with
/// [`FieldStr::set`](crate::FieldStr::set). A caller conditioning records
/// one at a time as they stream past keeps one scratch buffer for all of
/// them.
pub fn condition_with(record: &mut Record, nicknames: &NicknameTable, scratch: &mut String) {
    digits_into(&record.ssn, scratch);
    record.ssn.set(scratch);

    canonical_into(&record.first_name, scratch);
    let first = strip_salutation(scratch);
    record
        .first_name
        .set(nicknames.common_form(first).unwrap_or(first));

    canonical_into(&record.middle_initial, scratch);
    let initial = scratch.chars().next().map_or(0, char::len_utf8);
    record.middle_initial.set(&scratch[..initial]);

    canonical_into(&record.last_name, scratch);
    record.last_name.set(strip_suffix(scratch));

    canonical_into(&record.street_name, scratch);
    expand_street_in_place(scratch);
    record.street_name.set(scratch);

    for field in [
        &mut record.street_number,
        &mut record.apartment,
        &mut record.city,
        &mut record.state,
    ] {
        canonical_into(field, scratch);
        field.set(scratch);
    }

    digits_into(&record.zip, scratch);
    record.zip.set(scratch);
}

/// The ASCII digits of `s`, written into `out` (cleared first).
fn digits_into(s: &str, out: &mut String) {
    out.clear();
    out.extend(s.chars().filter(char::is_ascii_digit));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::record::RecordId;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The allocating conditioning pass the in-place one replaced: a fresh
    /// `String` for every step of every field. Kept as the oracle.
    fn condition_reference(record: &mut Record, nicknames: &NicknameTable) {
        fn canonical(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            let mut pending_space = false;
            for c in s.chars() {
                if c.is_whitespace() {
                    pending_space = !out.is_empty();
                    continue;
                }
                if c == '.' || c == ',' {
                    continue;
                }
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                for u in c.to_uppercase() {
                    out.push(u);
                }
            }
            out
        }
        fn expand_street(street: &str) -> String {
            match street.rsplit_once(' ') {
                Some((head, last)) => {
                    for (abbr, long) in STREET_ABBREVS {
                        if last == abbr {
                            return format!("{head} {long}");
                        }
                    }
                    street.to_string()
                }
                None => street.to_string(),
            }
        }
        record.ssn = record
            .ssn
            .chars()
            .filter(char::is_ascii_digit)
            .collect::<String>()
            .into();
        let first = canonical(&record.first_name);
        let first = strip_salutation(&first);
        record.first_name = nicknames.common_form(first).unwrap_or(first).into();
        let mut initial = canonical(&record.middle_initial);
        initial.truncate(
            initial
                .char_indices()
                .nth(1)
                .map_or(initial.len(), |(i, _)| i),
        );
        record.middle_initial = initial.into();
        record.last_name = strip_suffix(&canonical(&record.last_name)).into();
        record.street_number = canonical(&record.street_number).into();
        record.street_name = expand_street(&canonical(&record.street_name)).into();
        record.apartment = canonical(&record.apartment).into();
        record.city = canonical(&record.city).into();
        record.state = canonical(&record.state).into();
        record.zip = record
            .zip
            .chars()
            .filter(char::is_ascii_digit)
            .collect::<String>()
            .into();
    }

    /// Field fragments: every salutation, suffix and street abbreviation,
    /// nicknames, case and punctuation noise, non-ASCII whitespace
    /// (U+00A0, U+3000, and U+000B, which `char::is_whitespace` counts
    /// but `is_ascii_whitespace` does not), and characters whose
    /// upper-case form is longer than they are (`ß` → `SS`, `ﬁ` → `FI`).
    const PALETTE: &[&str] = &[
        "", " ", "  ", "\t", "\u{a0}", "\u{3000}", "\u{b}", ".", ",", ". ", "mr", "MR", "MRS",
        "MS", "DR", "MISS", "PROF", "REV", "HON", "JR", "SR", "II", "III", "IV", "ESQ", "PHD",
        "ST", "AVE", "AV", "BLVD", "RD", "LN", "CT", "PL", "SQ", "HWY", "PKWY", "st", "bob", "BOB",
        "Joe", "GIUSEPPE", "smith", "O'NEILL", "ß", "ﬁ", "straße", "é", "ǅ", "ΐ", "中", "x", "7",
        "12-34", "a-b",
    ];

    fn text(picks: &[usize]) -> String {
        picks.iter().map(|&i| PALETTE[i]).collect()
    }

    fn record_of(picks: &[Vec<usize>]) -> Record {
        let mut r = Record::empty(RecordId(0));
        for (f, p) in Field::ALL.into_iter().zip(picks) {
            *r.field_mut(f) = text(p).into();
        }
        r
    }

    proptest! {
        #[test]
        fn in_place_conditioning_matches_the_allocating_oracle(
            picks in vec(vec(0usize..PALETTE.len(), 0..7), 10..11),
            unicode in vec("\\PC{0,12}", 10..11),
        ) {
            let nicks = NicknameTable::standard();
            let mut records = vec![record_of(&picks), Record::empty(RecordId(1))];
            for (f, v) in Field::ALL.into_iter().zip(&unicode) {
                records[1].field_mut(f).set(v);
            }
            for r in &records {
                let mut want = r.clone();
                condition_reference(&mut want, &nicks);
                let mut got = r.clone();
                condition(&mut got, &nicks);
                prop_assert_eq!(&got, &want);
            }
            // One scratch buffer across a slice gives the same answers.
            let mut want = records.clone();
            want.iter_mut().for_each(|r| condition_reference(r, &nicks));
            condition_all(&mut records, &nicks);
            prop_assert_eq!(records, want);
        }
    }

    /// Every salutation, suffix and street abbreviation as the first and
    /// as the last token of every field, plus the empty field.
    #[test]
    fn every_special_token_first_or_last_matches_the_oracle() {
        let nicks = NicknameTable::standard();
        let tokens = SALUTATIONS
            .into_iter()
            .chain(SUFFIXES)
            .chain(STREET_ABBREVS.map(|(abbr, _)| abbr));
        for token in tokens {
            for value in [
                String::new(),
                token.to_string(),
                format!("{token} MAIN"),
                format!("main {token}"),
                format!(" {token}. x ,{token} "),
                format!("{}\u{a0}ß", token.to_lowercase()),
            ] {
                let mut r = Record::empty(RecordId(0));
                for f in Field::ALL {
                    r.field_mut(f).set(&value);
                }
                let mut want = r.clone();
                condition_reference(&mut want, &nicks);
                condition(&mut r, &nicks);
                assert_eq!(r, want, "field value {value:?}");
            }
        }
    }

    #[test]
    fn canonical_uppercases_and_collapses() {
        assert_eq!(canonical("  two   words "), "TWO WORDS");
        assert_eq!(canonical("a.b,c"), "ABC");
        assert_eq!(canonical(""), "");
        assert_eq!(canonical("   "), "");
    }

    #[test]
    fn salutations_stripped_only_as_leading_token() {
        assert_eq!(strip_salutation("MR JONES"), "JONES");
        assert_eq!(strip_salutation("DR DRE"), "DRE");
        // "DREW" starts with "DR" but is not a salutation token.
        assert_eq!(strip_salutation("DREW"), "DREW");
        assert_eq!(strip_salutation("MRS"), "MRS");
    }

    #[test]
    fn suffixes_stripped_only_as_trailing_token() {
        assert_eq!(strip_suffix("SMITH JR"), "SMITH");
        assert_eq!(strip_suffix("KING III"), "KING");
        // "NAJR" ends with "JR" but is not a suffix token.
        assert_eq!(strip_suffix("NAJR"), "NAJR");
    }

    #[test]
    fn street_expansion_final_token_only() {
        assert_eq!(expand_street("MAIN ST"), "MAIN STREET");
        assert_eq!(expand_street("AMSTERDAM AVE"), "AMSTERDAM AVENUE");
        assert_eq!(expand_street("ST JOHNS AVE"), "ST JOHNS AVENUE");
        assert_eq!(expand_street("BROADWAY"), "BROADWAY");
        assert_eq!(expand_street(""), "");
    }

    #[test]
    fn condition_full_record() {
        let mut r = Record::empty(RecordId(0));
        r.ssn = "123-45-6789".into();
        r.first_name = "mr. bob".into();
        r.middle_initial = "ja".into();
        r.last_name = "o'neill jr".into();
        r.street_name = "w 120th st".into();
        r.city = "new  york".into();
        r.zip = "10027-1234".into();
        let nicks = NicknameTable::standard();
        condition(&mut r, &nicks);
        assert_eq!(r.ssn, "123456789");
        assert_eq!(r.first_name, "ROBERT"); // BOB -> ROBERT via nickname table
        assert_eq!(r.middle_initial, "J");
        assert_eq!(r.last_name, "O'NEILL");
        assert_eq!(r.street_name, "W 120TH STREET");
        assert_eq!(r.city, "NEW YORK");
        assert_eq!(r.zip, "100271234");
    }

    #[test]
    fn condition_is_idempotent() {
        let mut r = Record::empty(RecordId(0));
        r.first_name = "Mr. Joe".into();
        r.last_name = "Smith Jr".into();
        r.street_name = "Main St".into();
        let nicks = NicknameTable::standard();
        condition(&mut r, &nicks);
        let once = r.clone();
        condition(&mut r, &nicks);
        assert_eq!(r, once);
    }
}
