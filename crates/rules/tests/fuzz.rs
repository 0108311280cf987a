//! Robustness properties of the rule-language front end: the lexer,
//! parser, and type checker must reject garbage with an error — never
//! panic — and accepted programs must evaluate without panicking. The
//! back end likewise: a rule of any length or nesting lowers to bytecode or
//! is refused with a positioned capacity error.

use mp_rules::{CompileError, CompiledTheory, EquationalTheory, RuleProgram};
use proptest::prelude::*;

proptest! {
    /// Arbitrary byte soup never panics the compiler pipeline.
    #[test]
    fn compile_never_panics_on_arbitrary_input(src in "\\PC*") {
        let _ = RuleProgram::compile(&src);
    }

    /// Arbitrary *token-shaped* soup never panics either (denser coverage
    /// of parser states than raw bytes).
    #[test]
    fn compile_never_panics_on_token_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("rule".to_string()),
                Just("when".to_string()),
                Just("then".to_string()),
                Just("match".to_string()),
                Just("purge".to_string()),
                Just("and".to_string()),
                Just("or".to_string()),
                Just("not".to_string()),
                Just("r1".to_string()),
                Just("r2".to_string()),
                Just(".".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just(",".to_string()),
                Just("==".to_string()),
                Just("<-".to_string()),
                Just(">=".to_string()),
                Just("last_name".to_string()),
                Just("is_empty".to_string()),
                Just("longest".to_string()),
                Just("0.5".to_string()),
                Just("\"str\"".to_string()),
                Just("true".to_string()),
            ],
            0..40,
        )
    ) {
        let src = toks.join(" ");
        let _ = RuleProgram::compile(&src);
    }

    /// Programs built from a tiny well-formed template always compile and
    /// evaluate on arbitrary record contents without panicking.
    #[test]
    fn wellformed_programs_evaluate_safely(
        threshold in 0.0f64..1.0,
        field in prop_oneof![
            Just("last_name"), Just("first_name"), Just("city"), Just("ssn")
        ],
        a in "\\PC{0,24}",
        b in "\\PC{0,24}",
    ) {
        let src = format!(
            "rule t {{ when differ_slightly(r1.{field}, r2.{field}, {threshold}) \
             or soundex_eq(r1.{field}, r2.{field}) then match }}"
        );
        let program = RuleProgram::compile(&src).expect("template compiles");
        let mut r1 = mp_record::Record::empty(mp_record::RecordId(0));
        let mut r2 = mp_record::Record::empty(mp_record::RecordId(1));
        *r1.field_mut(field.parse().unwrap()) = a.into();
        *r2.field_mut(field.parse().unwrap()) = b.into();
        // Must not panic, and must be symmetric for symmetric predicates.
        prop_assert_eq!(program.matches(&r1, &r2), program.matches(&r2, &r1));
    }

    /// Rules of any length and operand nesting either lower to bytecode
    /// (both lowerings, same verdict as the interpreter) or are refused with
    /// a capacity error — register banks are sized by nesting, so length
    /// alone never exhausts them.
    #[test]
    fn long_and_deep_rules_compile_or_fail_cleanly(
        conjuncts in 1usize..400,
        depth in 0usize..300,
        kernel in prop_oneof![Just("r1.ssn == r2.ssn"), Just("edit_sim(r1.city, r2.city) >= 0.5")],
    ) {
        let mut operand = "r1.ssn".to_string();
        for _ in 0..depth {
            operand = format!("prefix({operand}, 9)");
        }
        let mut parts = vec![kernel; conjuncts];
        let deep = format!("not is_empty({operand})");
        parts.push(&deep);
        let src = format!("rule long {{ when {} then match }}", parts.join(" and "));
        match RuleProgram::compile(&src) {
            Ok(interp) => {
                prop_assert!(depth <= 256);
                let mut a = mp_record::Record::empty(mp_record::RecordId(0));
                a.ssn = "123456789".into();
                a.city = "AUSTIN".into();
                let b = a.clone();
                let planned = CompiledTheory::compile(&src).expect("the interpreter accepted it");
                let unplanned = CompiledTheory::compile_unplanned(&src).expect("likewise");
                prop_assert!(interp.matches(&a, &b));
                prop_assert!(planned.matches(&a, &b));
                prop_assert!(unplanned.matches(&a, &b));
            }
            Err(CompileError::Capacity(e)) => {
                prop_assert!(depth > 256, "refused at depth {}: {}", depth, e);
                prop_assert!(CompiledTheory::compile(&src).is_err());
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }
}
