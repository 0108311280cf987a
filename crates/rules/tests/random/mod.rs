//! Random well-typed rule programs and records, and a window scan at the
//! rules level. Shared by the agreement suite and the projection's unit
//! tests (which include this file by path), so it names the crate as
//! `mp_rules` from both.

#![allow(dead_code)]

use mp_record::{Record, RecordId};
use mp_rules::projection::Row;
use mp_rules::{
    CompiledTheory, EquationalTheory, NativeEmployeeTheory, RuleFiringCounter, RuleProgram,
};
use proptest::TestRng;

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
pub fn random_conjunct(rng: &mut TestRng) -> String {
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
pub fn random_program(rng: &mut TestRng) -> String {
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

pub fn random_string(rng: &mut TestRng, max_len: u64) -> String {
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
pub fn random_record(rng: &mut TestRng, id: u32, base: Option<&Record>) -> Record {
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

/// What a scan found and what it counted: the matches as `(earlier,
/// later, rule)` positions, then the rule counter's evaluations, misses
/// and per-rule firings, then the theory's memo hits during the scan.
pub type Scanned = (Vec<(usize, usize, usize)>, u64, u64, Vec<u64>, u64);

/// A theory [`scan`] runs, with the memo hits it has counted so far
/// (0 for a theory that does not report them).
pub trait Scannable: EquationalTheory {
    fn memo_hits(&self) -> u64 {
        0
    }
}

impl Scannable for CompiledTheory {
    fn memo_hits(&self) -> u64 {
        self.subexpr_hits()
    }
}

impl Scannable for NativeEmployeeTheory {}

impl Scannable for RuleProgram {}

/// Every pair of `records` at most `w − 1` positions apart, evaluated
/// through a [`RuleFiringCounter`] the way a window scan does it: with
/// `project`, a pair the theory's projection rejects is counted as a miss
/// in bulk and never evaluated; without, every pair is evaluated.
pub fn scan(theory: &impl Scannable, records: &[Record], w: usize, project: bool) -> Scanned {
    let hits = theory.memo_hits();
    let counter = RuleFiringCounter::new(theory);
    let projection = counter.projection().filter(|_| project);
    let rows: Vec<Row> = match projection {
        Some(p) => records
            .iter()
            .map(|r| {
                let mut row = Row::default();
                p.project(r, &mut row);
                row
            })
            .collect(),
        None => Vec::new(),
    };
    let (mut found, mut rejected) = (Vec::new(), 0);
    for i in 1..records.len() {
        for j in i.saturating_sub(w - 1)..i {
            if projection.is_some_and(|p| p.rejects(&rows[j], &rows[i])) {
                rejected += 1;
                continue;
            }
            if let Some(rule) = counter.matching_rule_id(&records[j], &records[i]) {
                found.push((j, i, rule));
            }
        }
    }
    counter.projected_misses(rejected);
    (
        found,
        counter.evaluations(),
        counter.misses(),
        counter.fired(),
        theory.memo_hits() - hits,
    )
}
