//! Decision-agreement suite for the rule compiler: the bytecode VM
//! (planned, calibrated, and unplanned) and the native theory (the
//! statically planned employee program under its own name) must make
//! bit-identical decisions — boolean verdicts *and* first-match rule
//! attribution — with the tree-walking interpreter, on the full 26-rule
//! employee theory over noisy generated databases and on random
//! well-typed rule programs over random record pairs.

use mp_datagen::{DatabaseGenerator, ErrorProfile, GeneratorConfig};
use mp_record::{Record, RecordId};
use mp_rules::projection::Row;
use mp_rules::{
    employee_program, CompiledTheory, EquationalTheory, NativeEmployeeTheory, Plan, PlanStats,
    RuleProgram, EMPLOYEE_RULES_SRC,
};
use proptest::TestRng;

mod random;
use random::{random_program, random_record, scan};

fn noisy_db(n: usize, seed: u64, profile: ErrorProfile) -> Vec<Record> {
    DatabaseGenerator::new(
        GeneratorConfig::new(n)
            .duplicate_fraction(0.6)
            .max_duplicates_per_record(3)
            .errors(profile)
            .seed(seed),
    )
    .generate()
    .records
}

/// Hand-built employee pairs and whether the theory matches them: a
/// nickname with the same last name and zip, first name and middle
/// initial swapped, and two unrelated people.
fn spot_check_pairs() -> Vec<(Record, Record, bool)> {
    let mut a = Record::empty(RecordId(0));
    a.ssn = "123456789".into();
    a.first_name = "WILLIAM".into();
    a.last_name = "TURNER".into();
    a.street_number = "9".into();
    a.street_name = "ELM STREET".into();
    a.zip = "10001".into();

    let mut nickname = a.clone();
    nickname.ssn = "000000000".into();
    nickname.first_name = "BILL".into();

    let mut middle = a.clone();
    middle.middle_initial = "Q".into();
    let mut swapped = a.clone();
    swapped.middle_initial = "WILLIAM".into();
    swapped.first_name = "Q".into();

    let mut z = Record::empty(RecordId(1));
    z.ssn = "555555555".into();
    z.first_name = "AGATHA".into();
    z.last_name = "VILLANUEVA".into();
    z.street_number = "777".into();
    z.street_name = "OCEAN PARKWAY".into();
    z.zip = "90210".into();

    vec![
        (a.clone(), nickname, true),
        (middle, swapped, true),
        (a, z, false),
    ]
}

/// All five implementations of the employee theory — the interpreter, the
/// planned, unplanned and calibrated VMs, and the native theory — agree
/// on verdict and attribution on every near-neighbor pair of three noisy
/// databases and on the spot-check pairs, and the native verdict is
/// symmetric.
#[test]
fn employee_theory_agreement_on_generated_databases() {
    let interp = employee_program();
    let native = NativeEmployeeTheory::new();
    let planned = CompiledTheory::compile(EMPLOYEE_RULES_SRC).unwrap();
    let unplanned = CompiledTheory::compile_unplanned(EMPLOYEE_RULES_SRC).unwrap();
    let spot_checks = spot_check_pairs();

    let mut fired = 0u32;
    for (seed, profile) in [
        (201, ErrorProfile::light()),
        (202, ErrorProfile::default()),
        (203, ErrorProfile::heavy()),
    ] {
        let records = noisy_db(70, seed, profile);
        // Calibrate a plan on this database's adjacent pairs, so the
        // measured-selectivity path is exercised too.
        let sample: Vec<(&Record, &Record)> = records.windows(2).map(|w| (&w[0], &w[1])).collect();
        let calibrated =
            CompiledTheory::from_program(&interp, Some(&Plan::calibrated(&interp, &sample)));
        let theories: [(&str, &dyn EquationalTheory); 4] = [
            ("native", &native),
            ("planned", &planned),
            ("unplanned", &unplanned),
            ("calibrated", &calibrated),
        ];
        let check = |a: &Record, b: &Record| {
            let want = interp.matching_rule_id(a, b);
            for (name, theory) in theories {
                assert_eq!(
                    want,
                    theory.matching_rule_id(a, b),
                    "{name}: {a:?} vs {b:?}"
                );
                assert_eq!(
                    want.is_some(),
                    theory.matches(a, b),
                    "{name}: {a:?} vs {b:?}"
                );
            }
            assert_eq!(
                want.is_some(),
                native.matches(b, a),
                "native is not symmetric on {a:?} vs {b:?}"
            );
            want
        };

        for i in 0..records.len() {
            for j in i + 1..records.len().min(i + 9) {
                fired += u32::from(check(&records[i], &records[j]).is_some());
            }
        }
        for (a, b, matches) in &spot_checks {
            assert_eq!(check(a, b).is_some(), *matches, "{a:?} vs {b:?}");
        }
    }
    assert!(fired > 20, "suite too easy: only {fired} matching pairs");
}

/// Rule-name tables agree across all implementations, so attribution ids
/// mean the same rule everywhere.
#[test]
fn rule_name_tables_agree() {
    let interp = employee_program();
    let compiled = CompiledTheory::compile(EMPLOYEE_RULES_SRC).unwrap();
    assert_eq!(interp.rule_names(), compiled.rule_names());
    let native = NativeEmployeeTheory::new();
    assert_eq!(native.rule_names(), compiled.rule_names());
    assert_eq!(native.name(), "native-employee");
    assert_eq!(compiled.rules_compiled(), 26);
}

// ---------------------------------------------------------------------------
// Random well-typed rule programs: interpreter == VM on random record pairs.
// ---------------------------------------------------------------------------

/// Every lowering of `src` — the unplanned VM (no cascade: the reference),
/// the statically planned VM, a VM calibrated on `pairs`, and one planned
/// with the rule order reversed — returns the interpreter's verdict and
/// first-match attribution on every pair.
fn assert_all_lowerings_agree(src: &str, pairs: &[(Record, Record)]) {
    let interp = RuleProgram::compile(src).expect("generated program is well-typed");
    let sample: Vec<(&Record, &Record)> = pairs.iter().map(|(a, b)| (a, b)).collect();
    let reversed = PlanStats {
        fired: (0..interp.rule_count() as u64).collect(),
        misses: 0,
    };
    let lowerings = [
        ("unplanned", CompiledTheory::compile_unplanned(src).unwrap()),
        ("planned", CompiledTheory::compile(src).unwrap()),
        (
            "calibrated",
            CompiledTheory::from_program(&interp, Some(&Plan::calibrated(&interp, &sample))),
        ),
        (
            "reversed",
            CompiledTheory::from_program(&interp, Some(&Plan::with_stats(interp.ast(), &reversed))),
        ),
    ];
    for (a, b) in pairs {
        let want = interp.matching_rule_id(a, b);
        for (name, vm) in &lowerings {
            assert_eq!(
                want,
                vm.matching_rule_id(a, b),
                "{name} VM disagrees on\n{src}\n{a:?}\n{b:?}"
            );
            assert_eq!(want.is_some(), vm.matches(a, b), "{name}: {src}");
        }
    }
}

/// The core compiler property: for random well-typed programs and random
/// record pairs, the interpreter and every lowering return identical
/// verdicts and identical first-match attribution.
#[test]
fn random_programs_interpreter_and_vm_agree() {
    proptest::run_cases("random_programs_interpreter_and_vm_agree", |rng| {
        let src = random_program(rng);
        let pairs: Vec<(Record, Record)> = (0..8)
            .map(|pair| {
                let a = random_record(rng, pair * 2, None);
                let b = random_record(rng, pair * 2 + 1, Some(&a));
                (a, b)
            })
            .collect();
        assert_all_lowerings_agree(&src, &pairs);
    });
}

/// Past the cascade's 64-block mask: 70 rules, each gated by its own
/// distinct atom (plus shared ones in both polarities), so blocks 64..70
/// run ungated under every plan — and under the reversed plan it is source
/// rules 5..0 that do.
#[test]
fn seventy_rules_with_seventy_distinct_atoms_agree() {
    let src: String = (0..70)
        .map(|i| {
            let shared = match i % 3 {
                0 => "r1.last_name == r2.last_name",
                1 => "r1.last_name != r2.last_name",
                _ => "edit_sim(r1.last_name, r2.last_name) >= 0.5",
            };
            format!("rule g{i} {{ when r1.zip == \"{i}\" and {shared} and not is_empty(r2.city) then match }}\n")
        })
        .collect();
    let mut rng = TestRng::new("seventy_rules_with_seventy_distinct_atoms_agree", 0);
    let mut fired = 0;
    let pairs: Vec<(Record, Record)> = (0..400)
        .map(|pair| {
            let mut a = random_record(&mut rng, pair * 2, None);
            a.zip = rng.below(72).to_string().into();
            let b = random_record(&mut rng, pair * 2 + 1, Some(&a));
            (a, b)
        })
        .collect();
    assert_all_lowerings_agree(&src, &pairs);
    let interp = RuleProgram::compile(&src).unwrap();
    for (a, b) in &pairs {
        fired += u32::from(interp.matching_rule_id(a, b).is_some_and(|id| id >= 64));
    }
    assert!(
        fired > 5,
        "suite too easy: {fired} pairs fired a rule past 64"
    );
}

// ---------------------------------------------------------------------------
// The projection: rows reject only pairs the theory would call a miss.
// ---------------------------------------------------------------------------

/// A run of `n` random records in which each is now and then a noisy
/// near-duplicate of the one before, so window pairs match sometimes.
fn random_run(rng: &mut TestRng, n: u32) -> Vec<Record> {
    let mut out: Vec<Record> = Vec::new();
    for id in 0..n {
        let r = random_record(rng, id, out.last());
        out.push(r);
    }
    out
}

/// Every planned lowering of `src` — static, calibrated on `pairs`,
/// rule order reversed — with its name.
fn planned_lowerings(
    src: &str,
    pairs: &[(&Record, &Record)],
) -> Vec<(&'static str, CompiledTheory)> {
    let interp = RuleProgram::compile(src).expect("generated program is well-typed");
    let reversed = PlanStats {
        fired: (0..interp.rule_count() as u64).collect(),
        misses: 0,
    };
    vec![
        ("planned", CompiledTheory::compile(src).unwrap()),
        (
            "calibrated",
            CompiledTheory::from_program(&interp, Some(&Plan::calibrated(&interp, pairs))),
        ),
        (
            "reversed",
            CompiledTheory::from_program(&interp, Some(&Plan::with_stats(interp.ast(), &reversed))),
        ),
    ]
}

/// Whether `theory`'s projection rejects `(a, b)`.
fn rejects(theory: &CompiledTheory, a: &Record, b: &Record) -> Option<bool> {
    let p = theory.projection()?;
    let (mut ra, mut rb) = (Row::default(), Row::default());
    p.project(a, &mut ra);
    p.project(b, &mut rb);
    Some(p.rejects(&ra, &rb))
}

/// A pair the projection rejects is a miss: `matches` is false and no
/// rule is attributed. Random programs carry every atom shape — `!=`
/// (wanted false), field against constant, cross-field, the Cheap
/// kernels — in both polarities.
#[test]
fn a_pair_the_projection_rejects_is_a_miss() {
    let (mut rejected, mut kept) = (0u32, 0u32);
    proptest::run_cases("a_pair_the_projection_rejects_is_a_miss", |rng| {
        let src = random_program(rng);
        let records = random_run(rng, 16);
        let pairs: Vec<(&Record, &Record)> = records.iter().zip(&records[1..]).collect();
        for (name, theory) in planned_lowerings(&src, &pairs) {
            for i in 0..records.len() {
                for j in i.saturating_sub(3)..i {
                    let (a, b) = (&records[j], &records[i]);
                    match rejects(&theory, a, b) {
                        Some(true) => {
                            rejected += 1;
                            assert!(!theory.matches(a, b), "{name}: {src}\n{a:?}\n{b:?}");
                            assert_eq!(theory.matching_rule_id(a, b), None, "{name}: {src}");
                        }
                        _ => kept += 1,
                    }
                }
            }
        }
    });
    assert!(rejected > 0 && kept > 0, "{rejected} rejected, {kept} kept");
}

/// A scan that rejects on rows finds the same matches, attributes the
/// same rules, and leaves the same rule counters and memo hits as one
/// that evaluates every pair.
#[test]
fn projected_scans_find_and_count_what_unprojected_scans_do() {
    proptest::run_cases(
        "projected_scans_find_and_count_what_unprojected_scans_do",
        |rng| {
            let src = random_program(rng);
            let records = random_run(rng, 24);
            let w = 2 + rng.below(5) as usize;
            let pairs: Vec<(&Record, &Record)> = records.iter().zip(&records[1..]).collect();
            for (name, theory) in planned_lowerings(&src, &pairs) {
                assert_eq!(
                    scan(&theory, &records, w, true),
                    scan(&theory, &records, w, false),
                    "{name} w={w}: {src}"
                );
            }
        },
    );
}

/// `!=` atoms are wanted false, so equal columns (which prove nothing)
/// must leave their blocks live; field-against-constant atoms and
/// constant-only atoms are decided exactly in the rows.
#[test]
fn not_equal_and_constant_atoms_scan_exactly() {
    let src = r#"
        rule differ { when r1.ssn != r2.ssn and r1.last_name == r2.last_name then match }
        rule austin { when r2.city == "AUSTIN" and r1.zip == r2.zip then match }
        rule never { when "A" == "B" and r1.first_name == r2.first_name then match }
        rule cross { when r1.first_name == r2.last_name and not is_empty(r2.last_name) then match }
        rule initials { when initials_match(r1.first_name, r2.first_name)
                         and not digits_transposed(r1.ssn, r2.ssn) then match }
    "#;
    let mut rng = TestRng::new("not_equal_and_constant_atoms_scan_exactly", 0);
    let mut records = random_run(&mut rng, 200);
    for (i, r) in records.iter_mut().enumerate() {
        r.last_name = ["SMITH", "JONES"][i % 2].into();
        r.city = ["AUSTIN", "DALLAS", ""][i % 3].into();
        r.zip = ["78701", "75201"][i / 3 % 2].into();
        r.first_name = ["J", "JONES", "JOSE", ""][i % 4].into();
    }
    let theory = CompiledTheory::compile(src).unwrap();
    assert!(theory.projection().is_some());
    let projected = scan(&theory, &records, 6, true);
    assert_eq!(projected, scan(&theory, &records, 6, false));
    for rule in 0..5 {
        let fired = projected.3[rule];
        assert_eq!(fired > 0, rule != 2, "rule {rule} fired {fired} times");
    }
}

/// Past the 64-block mask there is no projection: the scan evaluates
/// every pair, as before.
#[test]
fn seventy_rules_have_no_projection() {
    let src: String = (0..70)
        .map(|i| {
            format!("rule g{i} {{ when r1.zip == \"{i}\" and r1.ssn == r2.ssn then match }}\n")
        })
        .collect();
    let theory = CompiledTheory::compile(&src).unwrap();
    assert!(theory.projection().is_none());
    let mut rng = TestRng::new("seventy_rules_have_no_projection", 0);
    let records = random_run(&mut rng, 40);
    assert_eq!(
        scan(&theory, &records, 5, true),
        scan(&theory, &records, 5, false)
    );
}

/// The employee theory over a noisy database, compiled and as the native
/// theory: the rows reject almost every window pair, the compiled scan
/// stays the unprojected one, and the native scan on rows is the
/// interpreter's scan.
#[test]
fn employee_theory_scans_exactly_on_rows() {
    let compiled = CompiledTheory::compile(EMPLOYEE_RULES_SRC).unwrap();
    let native = NativeEmployeeTheory::new();
    let mut records = noisy_db(400, 5, ErrorProfile::default());
    records.sort_by(|a, b| a.last_name.as_str().cmp(b.last_name.as_str()));
    let projected = scan(&compiled, &records, 10, true);
    assert_eq!(projected, scan(&compiled, &records, 10, false));
    assert!(!projected.0.is_empty());
    assert_eq!(
        scan(&native, &records, 10, true),
        scan(&employee_program(), &records, 10, false)
    );
    let theories: [(&str, &dyn EquationalTheory); 2] =
        [("compiled", &compiled), ("native", &native)];
    for (name, theory) in theories {
        let p = theory
            .projection()
            .unwrap_or_else(|| panic!("{name}: the employee theory projects"));
        let rows: Vec<Row> = records
            .iter()
            .map(|r| {
                let mut row = Row::default();
                p.project(r, &mut row);
                row
            })
            .collect();
        let (mut pairs, mut rejected) = (0u32, 0u32);
        for i in 1..rows.len() {
            for j in i.saturating_sub(9)..i {
                pairs += 1;
                rejected += u32::from(p.rejects(&rows[j], &rows[i]));
            }
        }
        assert!(
            rejected * 10 > pairs * 9,
            "{name}: {rejected} of {pairs} rejected"
        );
    }
}

// ---------------------------------------------------------------------------
// Disassembly golden: the paper's worked example compiles to a stable,
// documented listing (docs/RULE_COMPILER.md walks through this output).
// ---------------------------------------------------------------------------

/// The §2.3 example rule used in docs and the disassembly golden.
const PAPER_EXAMPLE_SRC: &str = "\
rule same_last_close_first_same_address {
    when r1.last_name == r2.last_name
     and not is_empty(r1.last_name)
     and differ_slightly(r1.first_name, r2.first_name, 0.3)
     and r1.street_number == r2.street_number
     and edit_sim(r1.street_name, r2.street_name) >= 0.8
    then match
}
";

#[test]
fn disassembly_of_paper_example_matches_golden() {
    let theory = CompiledTheory::compile(PAPER_EXAMPLE_SRC).unwrap();
    let golden = include_str!("golden/disasm_paper_example.txt");
    assert_eq!(
        theory.disassemble(),
        golden,
        "disassembly drifted from tests/golden/disasm_paper_example.txt; if the\n\
         compiler or planner change is intentional, regenerate the golden file\n\
         (print CompiledTheory::compile(PAPER_EXAMPLE_SRC)?.disassemble()) and\n\
         update the worked example in docs/RULE_COMPILER.md to match"
    );
}
