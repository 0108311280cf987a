//! Decision-agreement suite for the rule compiler: the bytecode VM
//! (planned, calibrated, and unplanned) must make bit-identical decisions —
//! boolean verdicts *and* first-match rule attribution — with the
//! tree-walking interpreter and the hand-coded native theory, on the full
//! 26-rule employee theory over noisy generated databases and on random
//! well-typed rule programs over random record pairs.

use mp_datagen::{DatabaseGenerator, ErrorProfile, GeneratorConfig};
use mp_record::{Record, RecordId};
use mp_rules::{
    employee_program, CompiledTheory, EquationalTheory, NativeEmployeeTheory, Plan, PlanStats,
    RuleProgram, EMPLOYEE_RULES_SRC,
};
use proptest::TestRng;

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

/// All five implementations of the employee theory agree — verdict and
/// attribution — on every near-neighbor pair of three noisy databases.
#[test]
fn employee_theory_agreement_on_generated_databases() {
    let interp = employee_program();
    let native = NativeEmployeeTheory::new();
    let planned = CompiledTheory::compile(EMPLOYEE_RULES_SRC).unwrap();
    let unplanned = CompiledTheory::compile_unplanned(EMPLOYEE_RULES_SRC).unwrap();

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

        for i in 0..records.len() {
            for j in i + 1..records.len().min(i + 9) {
                let (a, b) = (&records[i], &records[j]);
                let want = interp.matching_rule_id(a, b);
                assert_eq!(
                    want,
                    native.matching_rule_id(a, b),
                    "native: {a:?} vs {b:?}"
                );
                assert_eq!(
                    want,
                    planned.matching_rule_id(a, b),
                    "planned: {a:?} vs {b:?}"
                );
                assert_eq!(
                    want,
                    unplanned.matching_rule_id(a, b),
                    "unplanned: {a:?} vs {b:?}"
                );
                assert_eq!(
                    want,
                    calibrated.matching_rule_id(a, b),
                    "calibrated: {a:?} vs {b:?}"
                );
                assert_eq!(want.is_some(), planned.matches(a, b));
                fired += u32::from(want.is_some());
            }
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
    assert_eq!(
        NativeEmployeeTheory::new().rule_names(),
        compiled.rule_names()
    );
    assert_eq!(compiled.rules_compiled(), 26);
}

// ---------------------------------------------------------------------------
// Random well-typed rule programs: interpreter == VM on random record pairs.
// ---------------------------------------------------------------------------

const FIELDS: [&str; 6] = [
    "last_name",
    "first_name",
    "city",
    "ssn",
    "street_name",
    "zip",
];

/// Literals the field-vs-literal conjuncts compare against; random records
/// draw them now and then so those conjuncts hold sometimes.
const LITERALS: [&str; 3] = ["", "A", "78701"];

/// One random well-typed boolean conjunct over a random field pair. Shapes
/// 0–5 and 15–18 are guard atoms when they land at the top level of a rule
/// (every polarity, cross-field, field-vs-literal, the Cheap kernels);
/// 19–20 nest the same atoms under `or`, where they must stay in the block;
/// 21 compares temp strings, never an atom.
fn random_conjunct(rng: &mut TestRng) -> String {
    let f = FIELDS[rng.below(FIELDS.len() as u64) as usize];
    let g = FIELDS[rng.below(FIELDS.len() as u64) as usize];
    let lit = LITERALS[rng.below(LITERALS.len() as u64) as usize];
    let t = format!("{:.4}", rng.unit_f64());
    match rng.below(28) {
        0 => format!("r1.{f} == r2.{f}"),
        1 => format!("r1.{f} != r2.{g}"),
        2 => format!("r1.{f} == r2.{g}"),
        3 => format!("not (r1.{f} == r2.{f})"),
        4 => format!("r{}.{f} == \"{lit}\"", 1 + rng.below(2)),
        5 => format!("\"{lit}\" != r{}.{f}", 1 + rng.below(2)),
        6 => format!("differ_slightly(r1.{f}, r2.{f}, {t})"),
        7 => format!("edit_sim(r1.{f}, r2.{f}) >= {t}"),
        8 => format!("jaro(r1.{f}, r2.{f}) > {t}"),
        9 => format!("jaro_winkler(r1.{f}, r2.{f}) >= {t}"),
        10 => format!("lcs_sim(r1.{f}, r2.{f}) >= {t}"),
        11 => format!("trigram_sim(r1.{f}, r2.{f}) >= {t}"),
        12 => format!("ngram_sim(r1.{f}, r2.{f}, {}) >= {t}", 1 + rng.below(3)),
        13 => format!("edit_distance(r1.{f}, r2.{f}) <= {}", rng.below(4)),
        14 => format!("damerau(r1.{f}, r2.{f}) <= {}", rng.below(4)),
        15 => {
            let not = ["", "not "][rng.below(2) as usize];
            format!("{not}initials_match(r1.{f}, r2.{f})")
        }
        16 => {
            let not = ["", "not "][rng.below(2) as usize];
            format!("{not}digits_transposed(r1.ssn, r2.ssn)")
        }
        17 => format!("not is_empty(r1.{f})"),
        18 => format!("is_empty(r{}.{f})", 1 + rng.below(2)),
        19 => format!("(r1.{f} == r2.{f} or is_empty(r1.{g}) or r2.{g} == \"{lit}\")"),
        20 => format!("not (initials_match(r1.{f}, r2.{f}) or r1.{g} != r2.{g})"),
        21 => {
            let n = 1 + rng.below(5);
            let which = if rng.below(2) == 0 {
                "prefix"
            } else {
                "suffix"
            };
            format!("{which}(r1.{f}, {n}) == {which}(r2.{f}, {n})")
        }
        22 => format!("is_empty(suffix(r1.{f}, {}))", rng.below(3)),
        23 => format!("len(r1.{f}) >= {}", rng.below(8)),
        24 => format!(
            "keyboard_dist(r1.{f}, r2.{f}) < {:.3}",
            rng.unit_f64() * 4.0
        ),
        25 => {
            let p = ["soundex_eq", "nysiis_eq", "nickname_eq"][rng.below(3) as usize];
            format!("{p}(r1.{f}, r2.{f})")
        }
        26 => format!("is_empty(r1.{f}) == is_empty(r2.{f})"),
        _ => format!("(soundex_eq(r1.{f}, r2.{f}) or edit_sim(r1.{g}, r2.{g}) >= {t})"),
    }
}

/// A random well-typed program of 1–6 rules with 1–5 conjuncts each. The
/// conjunct mix makes rules of only guard atoms, rules with none, and the
/// same atom wanted true by one rule and false by another all common.
fn random_program(rng: &mut TestRng) -> String {
    let rules = 1 + rng.below(6);
    (0..rules)
        .map(|r| {
            let conjuncts: Vec<String> = (0..1 + rng.below(5))
                .map(|_| random_conjunct(rng))
                .collect();
            // `g{r}`, not `r{r}`: `r1`/`r2` are reserved record refs.
            format!(
                "rule g{r} {{ when {} then match }}",
                conjuncts.join(" and ")
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn random_string(rng: &mut TestRng, max_len: u64) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHMNSTZ0123456789 ";
    if rng.below(6) == 0 {
        return LITERALS[rng.below(LITERALS.len() as u64) as usize].to_string();
    }
    (0..rng.below(max_len + 1))
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char)
        .collect()
}

/// A random record, sometimes a noisy near-duplicate of `base` so rules
/// actually fire (pure random pairs almost never match).
fn random_record(rng: &mut TestRng, id: u32, base: Option<&Record>) -> Record {
    let mut r = Record::empty(RecordId(id));
    match base {
        Some(base) if rng.below(2) == 0 => {
            r = base.clone();
            r.id = RecordId(id);
            // Perturb one field: truncate, append, or replace.
            let f = mp_record::Field::ALL[rng.below(10) as usize];
            let mut v = r.field(f).to_string();
            match rng.below(3) {
                0 => {
                    v.pop();
                }
                1 => v.push('X'),
                _ => v = random_string(rng, 6),
            }
            r.field_mut(f).set(&v);
        }
        _ => {
            for f in mp_record::Field::ALL {
                *r.field_mut(f) = random_string(rng, 8).into();
            }
        }
    }
    r
}

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
