//! The default 26-rule equational theory for the employee domain.
//!
//! The paper wrote "an OPS5 rule program consisting of 26 rules for this
//! particular domain of employee records" (§2.3). This module carries our
//! equivalent program in the rule DSL; [`crate::NativeEmployeeTheory`]
//! is its compiled form (the paper's OPS5 → C step, done by the rule
//! compiler). The agreement suite holds the compiled form to the
//! interpreter pair for pair on generated data.
//!
//! The rules are grouped by the error class they recover (see the
//! generator's `mp_datagen::ErrorProfile` for the corresponding noise):
//! SSN-anchored matches, name+address matches (including the paper's
//! worked example), phonetic and typewriter variants, moved-person rules,
//! city/zip typos, missing-field fallbacks, and swapped-name repairs.

use crate::eval::RuleProgram;

/// DSL source of the employee theory (26 rules).
pub const EMPLOYEE_RULES_SRC: &str = r#"
// ---- Group A: SSN-anchored (5 rules) -------------------------------------

rule exact_ssn_close_last {
    when not is_empty(r1.ssn)
     and r1.ssn == r2.ssn
     and differ_slightly(r1.last_name, r2.last_name, 0.4)
    then match
}

rule exact_ssn_close_first {
    when not is_empty(r1.ssn)
     and r1.ssn == r2.ssn
     and differ_slightly(r1.first_name, r2.first_name, 0.4)
    then match
}

rule exact_ssn_same_zip {
    when not is_empty(r1.ssn)
     and r1.ssn == r2.ssn
     and not is_empty(r1.zip)
     and r1.zip == r2.zip
    then match
}

rule ssn_transposed_close_names {
    when digits_transposed(r1.ssn, r2.ssn)
     and differ_slightly(r1.last_name, r2.last_name, 0.3)
     and (differ_slightly(r1.first_name, r2.first_name, 0.3)
          or initials_match(r1.first_name, r2.first_name)
          or nickname_eq(r1.first_name, r2.first_name))
    then match
}

rule ssn_one_digit_off_same_address {
    when edit_distance(r1.ssn, r2.ssn) <= 1
     and r1.street_number == r2.street_number
     and not is_empty(r1.street_number)
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
    then match
}

// ---- Group B: name + address (6 rules) -----------------------------------

// The worked example of section 2.3 of the paper.
rule same_last_close_first_same_address {
    when r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and differ_slightly(r1.first_name, r2.first_name, 0.3)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
    then match
}

rule close_last_same_first_same_address {
    when differ_slightly(r1.last_name, r2.last_name, 0.25)
     and r1.first_name == r2.first_name
     and not is_empty(r1.first_name)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
    then match
}

rule close_names_same_address_and_zip {
    when not is_empty(r1.last_name)
     and not is_empty(r1.zip)
     and differ_slightly(r1.last_name, r2.last_name, 0.25)
     and differ_slightly(r1.first_name, r2.first_name, 0.25)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.7
     and r1.zip == r2.zip
    then match
}

rule nickname_same_last_same_zip {
    when nickname_eq(r1.first_name, r2.first_name)
     and r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.zip == r2.zip
     and not is_empty(r1.zip)
    then match
}

rule nickname_same_last_same_address {
    when nickname_eq(r1.first_name, r2.first_name)
     and r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
    then match
}

rule initials_same_last_same_address {
    when initials_match(r1.first_name, r2.first_name)
     and r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.85
    then match
}

// ---- Group C: phonetic (3 rules) ------------------------------------------

rule soundex_last_same_first_same_address {
    when soundex_eq(r1.last_name, r2.last_name)
     and r1.first_name == r2.first_name
     and not is_empty(r1.first_name)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
    then match
}

rule nysiis_last_initials_same_zip_street {
    when nysiis_eq(r1.last_name, r2.last_name)
     and initials_match(r1.first_name, r2.first_name)
     and r1.zip == r2.zip
     and not is_empty(r1.zip)
     and r1.street_number == r2.street_number
    then match
}

rule soundex_both_names_same_city_street {
    when soundex_eq(r1.last_name, r2.last_name)
     and soundex_eq(r1.first_name, r2.first_name)
     and r1.city == r2.city
     and not is_empty(r1.city)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.75
    then match
}

// ---- Group D: typewriter / jaro / q-gram (3 rules) -------------------------

rule keyboard_last_same_first_same_city {
    when keyboard_dist(r1.last_name, r2.last_name) <= 1.0
     and r1.first_name == r2.first_name
     and not is_empty(r1.first_name)
     and r1.city == r2.city
     and r1.street_number == r2.street_number
    then match
}

rule jaro_names_same_address {
    when jaro_winkler(r1.last_name, r2.last_name) >= 0.92
     and jaro_winkler(r1.first_name, r2.first_name) >= 0.9
     and r1.street_number == r2.street_number
     and not is_empty(r1.street_number)
     and edit_sim(r1.street_name, r2.street_name) >= 0.7
    then match
}

rule trigram_street_same_names {
    when trigram_sim(r1.street_name, r2.street_name) >= 0.75
     and r1.street_number == r2.street_number
     and r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and (r1.first_name == r2.first_name
          or initials_match(r1.first_name, r2.first_name))
    then match
}

// ---- Group E: moved person (2 rules) ---------------------------------------

rule moved_same_name_similar_ssn {
    when r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.first_name == r2.first_name
     and not is_empty(r1.first_name)
     and edit_distance(r1.ssn, r2.ssn) <= 2
    then match
}

rule moved_same_full_name_with_middle {
    when r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.first_name == r2.first_name
     and not is_empty(r1.first_name)
     and r1.middle_initial == r2.middle_initial
     and not is_empty(r1.middle_initial)
     and edit_distance(r1.ssn, r2.ssn) <= 3
    then match
}

// ---- Group F: city / zip / state errors (3 rules) ---------------------------

rule city_typo_same_rest {
    when r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.first_name == r2.first_name
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
     and differ_slightly(r1.city, r2.city, 0.35)
    then match
}

rule zip_error_same_rest {
    when r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.first_name == r2.first_name
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
     and edit_distance(r1.zip, r2.zip) <= 2
    then match
}

// Deliberately the loosest rule of the program: two records with the same
// full (compatible) name in the same city are declared equivalent. This is
// what catches same-city movers — and what produces the small false-positive
// rate of Fig. 2(b), since distinct people do share names (especially under
// the Zipf-skewed name distribution of real data).
rule same_full_name_same_city {
    when r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.first_name == r2.first_name
     and not is_empty(r1.first_name)
     and (r1.middle_initial == r2.middle_initial
          or is_empty(r1.middle_initial)
          or is_empty(r2.middle_initial))
     and r1.city == r2.city
     and not is_empty(r1.city)
    then match
}

// ---- Group G: missing fields / swapped names (4 rules) ----------------------

rule empty_first_same_ssn_last {
    when (is_empty(r1.first_name) or is_empty(r2.first_name))
     and r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and r1.ssn == r2.ssn
     and not is_empty(r1.ssn)
    then match
}

rule empty_street_same_ssn_city {
    when (is_empty(r1.street_name) or is_empty(r2.street_name))
     and r1.ssn == r2.ssn
     and not is_empty(r1.ssn)
     and r1.city == r2.city
     and not is_empty(r1.city)
    then match
}

rule apartment_anchor_close_names {
    when r1.apartment == r2.apartment
     and not is_empty(r1.apartment)
     and r1.street_number == r2.street_number
     and differ_slightly(r1.last_name, r2.last_name, 0.3)
     and (initials_match(r1.first_name, r2.first_name)
          or differ_slightly(r1.first_name, r2.first_name, 0.3))
    then match
}

rule swapped_first_and_middle {
    when r1.first_name == r2.middle_initial
     and r1.middle_initial == r2.first_name
     and not is_empty(r1.first_name)
     and not is_empty(r1.middle_initial)
     and r1.last_name == r2.last_name
     and (r1.ssn == r2.ssn or r1.zip == r2.zip)
    then match
}
"#;

/// Compiles the employee theory. The source is a crate constant, so failure
/// is a programming error and panics.
pub fn employee_program() -> RuleProgram {
    RuleProgram::compile(EMPLOYEE_RULES_SRC).expect("built-in employee rules must compile")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EquationalTheory;
    use mp_record::{Record, RecordId};

    #[test]
    fn has_exactly_26_rules() {
        assert_eq!(employee_program().rule_count(), 26);
    }

    fn base() -> Record {
        let mut r = Record::empty(RecordId(0));
        r.ssn = "123456789".into();
        r.first_name = "ROBERT".into();
        r.middle_initial = "J".into();
        r.last_name = "JOHNSON".into();
        r.street_number = "42".into();
        r.street_name = "MAIN STREET".into();
        r.apartment = "APT 3B".into();
        r.city = "CHICAGO".into();
        r.state = "IL".into();
        r.zip = "60601".into();
        r
    }

    #[test]
    fn identical_records_match() {
        let p = employee_program();
        let a = base();
        assert!(p.matches(&a, &a.clone()));
    }

    #[test]
    fn ssn_transposition_recovered() {
        let p = employee_program();
        let a = base();
        let mut b = base();
        b.ssn = "213456789".into(); // adjacent transposition
        assert!(p.matches(&a, &b));
        assert_eq!(p.matching_rule(&a, &b), Some("ssn_transposed_close_names"));
    }

    #[test]
    fn nickname_recovered() {
        let p = employee_program();
        let a = base();
        let mut b = base();
        b.first_name = "BOB".into();
        b.ssn = "999999999".into();
        assert!(p.matches(&a, &b));
    }

    #[test]
    fn moved_person_recovered() {
        let p = employee_program();
        let a = base();
        let mut b = base();
        b.street_number = "7".into();
        b.street_name = "ELM AVENUE".into();
        b.city = "BOSTON".into();
        b.state = "MA".into();
        b.zip = "02101".into();
        b.ssn = "123456780".into(); // one digit off
        assert!(p.matches(&a, &b));
    }

    #[test]
    fn unrelated_records_do_not_match() {
        let p = employee_program();
        let a = base();
        let mut b = Record::empty(RecordId(1));
        b.ssn = "987654321".into();
        b.first_name = "XENIA".into();
        b.last_name = "QUARTERMAINE".into();
        b.street_number = "9999".into();
        b.street_name = "DESOLATION ROW".into();
        b.city = "RENO".into();
        b.state = "NV".into();
        b.zip = "89501".into();
        assert!(!p.matches(&a, &b));
    }

    #[test]
    fn blank_records_do_not_match() {
        let p = employee_program();
        let a = Record::empty(RecordId(0));
        let b = Record::empty(RecordId(1));
        assert!(!p.matches(&a, &b));
    }
}
