//! The guard cascade projected onto small per-record rows, so a window
//! scan can reject most pairs without reading either record.
//!
//! The cascade ([`CompiledTheory`](crate::CompiledTheory)) decides a pair
//! a miss when every gated block is vetoed by some atom. Each atom is a
//! cheap test of raw fields, and its operands come from the first record,
//! the second, constants, or one of each record. A [`Projection`] splits
//! the atoms along that line:
//!
//! * an atom that reads one record (and constants) is evaluated exactly,
//!   once per record, into the row's *veto masks* — one for the record as
//!   `r1`, one for it as `r2`;
//! * an atom that reads one field of each record becomes a *pair test* on
//!   a column of each row: a 32-bit fingerprint for `==`, a byte-multiset
//!   signature for `digits_transposed`, the first character for
//!   `initials_match`;
//! * an atom that reads neither is folded into the blocks every pair
//!   starts with.
//!
//! A pair's live blocks are then
//! `base & !(old.veto_r1 | new.veto_r2 | need_true of every differing test)`.
//!
//! **Exactness.** Each column is a function of its field's string, so two
//! values that differ prove the strings differ, which proves the atom
//! false: unequal strings are not `==`; strings with different byte
//! multisets are not one adjacent transposition apart; strings with
//! different first characters do not match as initials. A differing test
//! therefore vetoes only blocks the cascade vetoes too. *Equal* column
//! values prove nothing (two strings may share a fingerprint), so a pair
//! test never vetoes a block that needs its atom false, and never reads
//! an atom as true. The live set is a superset of the cascade's
//! survivors: a pair it empties is one the cascade rejects, so the
//! theory would have returned "no match" without running a block, and
//! any other pair is handed to the theory unchanged.

use crate::compile::{Atom, CompiledProgram, StrSrc, GATED_BLOCKS};
use crate::plan::GuardKind;
use crate::vm::atom_holds;
use mp_record::{Field, Record, RecordId};

/// What a column holds about its field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    /// [`fingerprint`]: operands of a two-record `==`.
    Fingerprint,
    /// [`signature`]: operands of a two-record `digits_transposed`.
    Signature,
    /// [`initial`]: operands of a two-record `initials_match`.
    Initial,
}

impl Column {
    fn of(kind: GuardKind) -> Option<Column> {
        match kind {
            GuardKind::StrEq => Some(Column::Fingerprint),
            GuardKind::DigitsTransposed => Some(Column::Signature),
            GuardKind::InitialsMatch => Some(Column::Initial),
            GuardKind::IsEmpty => None,
        }
    }

    fn value(self, s: &str) -> u32 {
        match self {
            Column::Fingerprint => fingerprint(s),
            Column::Signature => signature(s),
            Column::Initial => initial(s),
        }
    }
}

/// Pair tests a projection evaluates at once: one slot each in a row's
/// two column arrays. A program with more keeps the first `SLOTS` in
/// cascade order (most expected vetoes first); dropping a test only keeps
/// more blocks live, so it costs rejections, never exactness.
const SLOTS: usize = 16;

/// One record's projection: its veto masks and, for each pair test, the
/// value it compares on this record's side. A scan keeps one per record
/// in its window.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// Blocks this record vetoes as `r1` (index 0) and as `r2` (index 1).
    veto: [u64; 2],
    /// Test `t`'s value with this record as `r1`...
    as_r1: [u32; SLOTS],
    /// ...and as `r2`. The two differ only for a test across two fields.
    as_r2: [u32; SLOTS],
}

/// A column: a [`Column`] kind of one field, computed once per row.
type Source = (Field, Column);

/// Vetoes a field's emptiness decides: blocks vetoed when it is empty and
/// when it is not, for the record as `r1` (index 0) and as `r2` (index 1).
#[derive(Debug, Clone, Copy)]
struct Emptiness {
    field: Field,
    if_empty: [u64; 2],
    if_full: [u64; 2],
}

/// A compiled theory's guard cascade as rows and pair tests (see the
/// module docs). Built once per theory; a scan fills one [`Row`] per
/// record entering its window and asks [`Projection::rejects`] of each
/// pair.
#[derive(Debug, Clone)]
pub struct Projection {
    /// The gated blocks no constant atom vetoes.
    base: u64,
    /// The columns rows compute.
    columns: Vec<Source>,
    /// Per test slot, the columns it compares: `r1`'s, then `r2`'s.
    tests: Vec<(usize, usize, u64)>,
    /// The blocks each byte of a pair's differing-test mask vetoes:
    /// `kills[k][m]` is the union of `need_true` over the tests `8k + i`
    /// with bit `i` set in `m`.
    kills: Box<[[u64; 256]; SLOTS / 8]>,
    /// `is_empty` atoms, folded per field.
    empties: Vec<Emptiness>,
    /// Every other atom of one record: side (0 = `r1`, 1 = `r2`) and the
    /// atom.
    row_atoms: Vec<(usize, Atom)>,
    str_consts: Vec<String>,
}

/// Which record an operand reads: 0 for `r1`, 1 for `r2`, none for a
/// constant. Guard operands are never temp strings.
fn side(s: StrSrc) -> Option<(usize, Field)> {
    match s {
        StrSrc::R1(f) => Some((0, f)),
        StrSrc::R2(f) => Some((1, f)),
        StrSrc::Const(_) | StrSrc::Tmp(_) => None,
    }
}

impl Projection {
    /// The projection of a planned program's cascade, or `None` when there
    /// is nothing to project: no atoms (an unplanned program), or blocks
    /// past the 64-bit mask, which run on every pair anyway.
    pub(crate) fn of(prog: &CompiledProgram) -> Option<Projection> {
        if prog.atoms.is_empty() || prog.blocks.len() > GATED_BLOCKS {
            return None;
        }
        let mut p = Projection {
            base: prog.gated,
            columns: Vec::new(),
            tests: Vec::new(),
            kills: Box::new([[0; 256]; SLOTS / 8]),
            empties: Vec::new(),
            row_atoms: Vec::new(),
            str_consts: prog.str_consts.clone(),
        };
        for atom in &prog.atoms {
            match (side(atom.a), side(atom.b)) {
                (Some((sa, fa)), Some((sb, fb))) if sa != sb => {
                    let fields = if sa == 0 { [fa, fb] } else { [fb, fa] };
                    p.pair_atom(atom, fields);
                }
                (None, None) => {
                    let blank = Record::empty(RecordId(0));
                    if atom_holds(atom, &p.str_consts, &blank, &blank) {
                        p.base &= !atom.need_false;
                    } else {
                        p.base &= !atom.need_true;
                    }
                }
                (Some((s, f)), _) | (_, Some((s, f))) if atom.kind == GuardKind::IsEmpty => {
                    p.empty_veto(s, f, atom.need_false, atom.need_true);
                }
                (Some((s, _)), _) | (_, Some((s, _))) => p.row_atoms.push((s, *atom)),
            }
        }
        for (t, &(.., need_true)) in p.tests.iter().enumerate() {
            for (m, kill) in p.kills[t / 8].iter_mut().enumerate() {
                if m >> (t % 8) & 1 == 1 {
                    *kill |= need_true;
                }
            }
        }
        Some(p)
    }

    /// Folds "side `s`'s `field` empty vetoes `if_empty`, non-empty vetoes
    /// `if_full`" into the field's [`Emptiness`].
    fn empty_veto(&mut self, s: usize, field: Field, if_empty: u64, if_full: u64) {
        let i = match self.empties.iter().position(|e| e.field == field) {
            Some(i) => i,
            None => {
                self.empties.push(Emptiness {
                    field,
                    if_empty: [0; 2],
                    if_full: [0; 2],
                });
                self.empties.len() - 1
            }
        };
        self.empties[i].if_empty[s] |= if_empty;
        self.empties[i].if_full[s] |= if_full;
    }

    /// The column of `source`, added if new.
    fn column(&mut self, source: Source) -> usize {
        match self.columns.iter().position(|&c| c == source) {
            Some(i) => i,
            None => {
                self.columns.push(source);
                self.columns.len() - 1
            }
        }
    }

    /// Adds the pair test of an atom reading field `fields[0]` of `r1` and
    /// `fields[1]` of `r2`.
    fn pair_atom(&mut self, atom: &Atom, [old, new]: [Field; 2]) {
        if atom.need_true == 0 {
            // Columns prove only "false": nothing to veto.
            return;
        }
        let kind = Column::of(atom.kind).expect("a two-operand atom");
        if kind == Column::Initial {
            // `initials_match` is false when either operand is empty: a fact
            // about one record, so exact in its row.
            self.empty_veto(0, old, atom.need_true, 0);
            self.empty_veto(1, new, atom.need_true, 0);
        }
        let cols = (self.column((old, kind)), self.column((new, kind)));
        match self.tests.iter().position(|t| (t.0, t.1) == cols) {
            Some(t) => self.tests[t].2 |= atom.need_true,
            None if self.tests.len() < SLOTS => self.tests.push((cols.0, cols.1, atom.need_true)),
            None => {}
        }
    }

    /// Fills `row` with `rec`'s test values and veto masks.
    pub fn project(&self, rec: &Record, row: &mut Row) {
        let mut values = [0u32; 3 * Field::ALL.len()];
        for (v, &(field, kind)) in values.iter_mut().zip(&self.columns) {
            *v = kind.value(rec.field(field));
        }
        for (t, &(r1, r2, _)) in self.tests.iter().enumerate() {
            row.as_r1[t] = values[r1];
            row.as_r2[t] = values[r2];
        }
        let mut veto = [0; 2];
        for e in &self.empties {
            let m = if rec.field(e.field).is_empty() {
                e.if_empty
            } else {
                e.if_full
            };
            veto = [veto[0] | m[0], veto[1] | m[1]];
        }
        for (s, atom) in &self.row_atoms {
            veto[*s] |= if atom_holds(atom, &self.str_consts, rec, rec) {
                atom.need_false
            } else {
                atom.need_true
            };
        }
        row.veto = veto;
    }

    /// The blocks of the pair (`r1` projected into `old`, `r2` into `new`)
    /// that its rows leave live: a superset of the cascade's survivors.
    /// Straight-line: one compare per test slot, then one table lookup
    /// per eight slots.
    #[inline]
    pub fn live(&self, old: &Row, new: &Row) -> u64 {
        let mut differ = 0u32;
        for (t, (a, b)) in old.as_r1.iter().zip(&new.as_r2).enumerate() {
            differ |= u32::from(a != b) << t;
        }
        let mut dead = old.veto[0] | new.veto[1];
        for (k, kills) in self.kills.iter().enumerate() {
            dead |= kills[(differ >> (8 * k)) as usize & 0xFF];
        }
        self.base & !dead
    }

    /// Whether the rows prove the pair a miss: the cascade vetoes every
    /// block, so the theory would return "no match" without running one.
    #[inline]
    pub fn rejects(&self, old: &Row, new: &Row) -> bool {
        self.live(old, new) == 0
    }
}

/// A 32-bit fingerprint of a string: 0 for the empty string, never 0
/// otherwise. Unequal fingerprints prove unequal strings; equal ones
/// prove nothing.
fn fingerprint(s: &str) -> u32 {
    #[cfg(test)]
    if tests::collapsed() {
        return 1;
    }
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let b = s.as_bytes();
    let n = b.len();
    let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("eight bytes"));
    let half = |i: usize| {
        u64::from(u32::from_le_bytes(
            b[i..i + 4].try_into().expect("four bytes"),
        ))
    };
    // Fixed-size loads only: overlapping words cover every byte.
    let (x, y) = match n {
        0 => return 0,
        1..=3 => (
            u64::from(b[0]) << 16 | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]),
            0,
        ),
        4..=8 => (half(0), half(n - 4)),
        _ => {
            let mut x = 0;
            let mut i = 0;
            while i + 8 < n {
                x = (x ^ word(i)).wrapping_mul(K).rotate_left(23);
                i += 8;
            }
            (x, word(n - 8))
        }
    };
    let h = (x ^ (n as u64) << 56).wrapping_mul(K) ^ y;
    let h = (h ^ h >> 31).wrapping_mul(K);
    ((h >> 32) as u32).max(1)
}

/// A signature of a string's byte multiset: a sum of mixed byte values,
/// so any permutation of the bytes (a transposition included) keeps it.
/// Unequal signatures prove the strings are no permutation of each other.
fn signature(s: &str) -> u32 {
    #[cfg(test)]
    if tests::collapsed() {
        return 1;
    }
    s.bytes()
        .fold(0u32, |sum, b| sum.wrapping_add(BYTE_MIX[usize::from(b)]))
}

/// Each byte value's summand in [`signature`]: a mixed, non-linear image
/// of the byte, so that different multisets rarely share a sum.
static BYTE_MIX: [u32; 256] = {
    let mut mix = [0; 256];
    let mut b = 0;
    while b < 256 {
        let x = (b as u32 + 1).wrapping_mul(0x9E37_79B1);
        mix[b] = (x ^ (x >> 15)).wrapping_mul(0x85EB_CA6B);
        b += 1;
    }
    mix
};

/// The first character plus one; 0 for the empty string.
fn initial(s: &str) -> u32 {
    #[cfg(test)]
    if tests::collapsed() {
        return 1;
    }
    s.chars().next().map_or(0, |c| c as u32 + 1)
}

#[cfg(test)]
#[path = "../tests/random/mod.rs"]
mod random;

#[cfg(test)]
mod tests {
    use super::random::{random_program, random_record, scan};
    use super::*;
    use crate::{CompiledTheory, EquationalTheory, RuleProgram};
    use std::cell::Cell;

    thread_local! {
        static COLLAPSED: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether this thread's columns map every string to one value.
    pub(super) fn collapsed() -> bool {
        COLLAPSED.with(Cell::get)
    }

    /// Runs `f` with every column of this thread collapsed to one value.
    fn with_collapsed_columns<R>(f: impl FnOnce() -> R) -> R {
        COLLAPSED.with(|c| c.set(true));
        let r = f();
        COLLAPSED.with(|c| c.set(false));
        r
    }

    #[test]
    fn columns_prove_only_inequality() {
        assert_eq!(fingerprint(""), 0);
        assert_ne!(fingerprint("A"), 0);
        assert_ne!(fingerprint("SMITH"), fingerprint("SMYTH"));
        assert_eq!(signature("123456789"), signature("123456798"));
        assert_ne!(signature("123456789"), signature("123456788"));
        assert_eq!(signature("13"), signature("31"));
        assert_ne!(signature("13"), signature("22"));
        assert_eq!(initial(""), 0);
        assert_eq!(initial("JOSE"), initial("J"));
        assert_ne!(initial("\0"), 0);
    }

    #[test]
    fn unplanned_and_wide_programs_have_no_projection() {
        let src = "rule r { when r1.ssn == r2.ssn then match }";
        assert!(CompiledTheory::compile(src).unwrap().projection().is_some());
        assert!(CompiledTheory::compile_unplanned(src)
            .unwrap()
            .projection()
            .is_none());
        assert!(RuleProgram::compile(src).unwrap().projection().is_none());
        let wide: String = (0..65)
            .map(|i| format!("rule g{i} {{ when r1.zip == \"{i}\" then match }}\n"))
            .collect();
        assert!(CompiledTheory::compile(&wide)
            .unwrap()
            .projection()
            .is_none());
        let none = "rule r { when edit_sim(r1.ssn, r2.ssn) > 0.5 then match }";
        assert!(CompiledTheory::compile(none)
            .unwrap()
            .projection()
            .is_none());
    }

    #[test]
    fn constant_atoms_fold_into_every_pair() {
        let t = CompiledTheory::compile(
            r#"rule a { when "X" == "Y" and r1.ssn == r2.ssn then match }
               rule b { when "X" != "Y" and r1.zip == r2.zip then match }"#,
        )
        .unwrap();
        let p = t.projection().unwrap();
        let row = Row::default();
        // Rule a can never fire; rule b survives equal columns.
        assert_eq!(p.live(&row, &row).count_ones(), 1);
    }

    /// With every column collapsed to one value no pair test vetoes
    /// anything, so only the exact row vetoes reject: scans must still
    /// give the unprojected scan's pairs and counters.
    #[test]
    fn collapsed_columns_scan_exactly() {
        with_collapsed_columns(|| {
            proptest::run_cases("collapsed_columns_scan_exactly", |rng| {
                let src = random_program(rng);
                let records: Vec<Record> = (0..24)
                    .scan(None, |prev: &mut Option<Record>, id| {
                        let r = random_record(rng, id, prev.as_ref());
                        *prev = Some(r.clone());
                        Some(r)
                    })
                    .collect();
                let theory = CompiledTheory::compile(&src).unwrap();
                assert_eq!(
                    scan(&theory, &records, 6, true),
                    scan(&theory, &records, 6, false),
                    "{src}"
                );
            });
        });
    }
}
