//! The rule bytecode VM and [`CompiledTheory`], the planned, compiled
//! counterpart of [`crate::RuleProgram`].
//!
//! Every pair first meets the **guard cascade** (`CompiledTheory::survivors`):
//! the program's cheap raw-field tests, hoisted out of the rules and
//! evaluated at most once each, veto every block that needs the other
//! answer. Most window pairs lose all their blocks there and are decided
//! without touching the scratch state or the interpreter loop; only the
//! surviving blocks run.
//!
//! Execution is allocation-free on the hot path: each thread keeps one
//! `VmScratch` (register banks, temp strings, kernel scratch buffers, and
//! the per-pair memo) in a thread-local, re-sized only when a different
//! program runs on the thread. The memo uses epoch stamping — advancing a
//! counter per record pair instead of clearing the table — so starting a
//! pair costs O(1) regardless of memo size.
//!
//! Decisions are bit-identical to the interpreter's: every opcode calls the
//! same shared builtin implementation (or a [`ScratchBuffers`] method
//! tested bit-identical to it), and first-match *attribution* stays exact
//! even though blocks run in planned order — rules are pure, so the
//! first-firing rule in source order is simply the minimum original index
//! among all firing rules, which [`EquationalTheory::matching_rule_id`]
//! computes by skipping any block that could not improve on the best
//! firing block found so far.

use crate::ast::{CmpOp, Program, PurgeSpec};
use crate::builtins::{shared, Ctx};
use crate::compile::{
    compile_program, Atom, BoolKernel, CompiledProgram, NumKernel, NumSrc, Op, StrSrc, GATED_BLOCKS,
};
use crate::eval::RuleProgram;
use crate::plan::{GuardKind, Plan};
use crate::{CompileError, EquationalTheory, Projection};
use mp_record::{NicknameTable, Record};
use mp_strsim::{self as ss, ScratchBuffers};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread mutable state for one executing program: the three register
/// banks, kernel scratch buffers, and the epoch-stamped per-pair memo.
#[derive(Default)]
struct VmScratch {
    buffers: ScratchBuffers,
    bools: Vec<bool>,
    nums: Vec<f64>,
    tmps: Vec<String>,
    memo_stamp: Vec<u32>,
    memo_val: Vec<f64>,
    epoch: u32,
    program_id: u64,
}

thread_local! {
    static SCRATCH: RefCell<VmScratch> = RefCell::new(VmScratch::default());
}

/// A rule program lowered to planned bytecode, usable anywhere an
/// [`EquationalTheory`] is (the engine, the daemon, the CLI).
///
/// Same decisions as [`RuleProgram`], and the form the product runs:
/// [`crate::NativeEmployeeTheory`] is the employee program compiled here.
///
/// ```
/// use mp_rules::{CompiledTheory, EquationalTheory};
/// use mp_record::{Record, RecordId};
///
/// let theory = CompiledTheory::compile(
///     "rule same_ssn { when r1.ssn == r2.ssn and not is_empty(r1.ssn) then match }",
/// )
/// .unwrap();
/// let mut a = Record::empty(RecordId(0));
/// let mut b = Record::empty(RecordId(1));
/// a.ssn = "123456789".into();
/// b.ssn = "123456789".into();
/// assert!(theory.matches(&a, &b));
/// assert_eq!(theory.matching_rule(&a, &b), Some("same_ssn"));
/// ```
pub struct CompiledTheory {
    prog: CompiledProgram,
    program: Program,
    rule_names: Vec<String>,
    ctx: Ctx,
    name: String,
    planned: bool,
    subexpr_hits: AtomicU64,
    projection: Option<Box<Projection>>,
}

impl CompiledTheory {
    /// Parses, checks, and compiles a rule program with the static plan
    /// ([`Plan::of`]) and the standard nickname table.
    pub fn compile(src: &str) -> Result<Self, CompileError> {
        Self::compile_with(src, NicknameTable::standard())
    }

    /// [`CompiledTheory::compile`] with a custom nickname table.
    pub fn compile_with(src: &str, nicknames: NicknameTable) -> Result<Self, CompileError> {
        let rules = RuleProgram::compile_with(src, nicknames)?;
        let plan = Plan::of(rules.ast());
        Ok(Self::from_program(&rules, Some(&plan)))
    }

    /// Compiles without a plan: blocks and conjuncts keep source order,
    /// nothing is memoized, and the guard cascade is empty (every block
    /// runs as written). The `--no-plan` escape hatch, the straight-lowering
    /// reference the planned VM is tested against, and the "compiled"
    /// (versus "compiled+planned") benchmark leg.
    pub fn compile_unplanned(src: &str) -> Result<Self, CompileError> {
        let rules = RuleProgram::compile(src)?;
        Ok(Self::from_program(&rules, None))
    }

    /// Lowers an already-interpreted program, optionally under a plan — the
    /// entry point for calibrated plans
    /// ([`Plan::calibrated`](crate::Plan::calibrated)).
    pub fn from_program(rules: &RuleProgram, plan: Option<&Plan>) -> Self {
        let program = rules.ast().clone();
        let prog = compile_program(&program, plan)
            .expect("RuleProgram::compile checked the program fits the bytecode format");
        let rule_names = program.rules.iter().map(|r| r.name.clone()).collect();
        let projection = Projection::of(&prog).map(Box::new);
        CompiledTheory {
            prog,
            program,
            rule_names,
            ctx: Ctx {
                nicknames: rules.ctx().nicknames.clone(),
            },
            name: "dsl-compiled".to_string(),
            planned: plan.is_some(),
            subexpr_hits: AtomicU64::new(0),
            projection,
        }
    }

    /// The program's `purge { ... }` survivorship spec, if any.
    pub fn purge_spec(&self) -> Option<&PurgeSpec> {
        self.program.purge.as_ref()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.prog.blocks.len()
    }

    /// Rules lowered to bytecode — feeds the `rules_compiled` counter.
    pub fn rules_compiled(&self) -> u64 {
        self.prog.blocks.len() as u64
    }

    /// Kernel evaluations answered from the per-pair memo instead of
    /// recomputed, accumulated across all pairs (and threads) this theory
    /// has evaluated — feeds the `subexpr_hits` counter.
    pub fn subexpr_hits(&self) -> u64 {
        self.subexpr_hits.load(Ordering::Relaxed)
    }

    /// Whether this theory was compiled under a plan.
    pub fn is_planned(&self) -> bool {
        self.planned
    }

    /// The name of the first rule (in source order) that fires for this
    /// pair, if any — the "explain" entry point.
    pub fn matching_rule(&self, a: &Record, b: &Record) -> Option<&str> {
        self.matching_rule_id(a, b)
            .map(|i| self.rule_names[i].as_str())
    }

    /// Human-readable bytecode listing (see `docs/RULE_COMPILER.md` for a
    /// walkthrough of the format).
    pub fn disassemble(&self) -> String {
        self.prog.disassemble(&self.rule_names)
    }

    /// Runs `f` with per-pair scratch prepared: scratch resized for this
    /// program if the thread last ran a different one, memo epoch advanced.
    fn with_pair_scratch<R>(&self, f: impl FnOnce(&mut VmScratch, u32, &mut u64) -> R) -> R {
        SCRATCH.with(|cell| {
            let mut s = cell.borrow_mut();
            if s.program_id != self.prog.id {
                s.program_id = self.prog.id;
                s.bools.clear();
                s.bools.resize(self.prog.bool_regs, false);
                s.nums.clear();
                s.nums.resize(self.prog.num_regs, 0.0);
                s.tmps.clear();
                s.tmps.resize(self.prog.tmp_slots, String::new());
                s.memo_stamp.clear();
                s.memo_stamp.resize(self.prog.memo_slots, 0);
                s.memo_val.clear();
                s.memo_val.resize(self.prog.memo_slots, 0.0);
                s.epoch = 0;
            }
            s.epoch = s.epoch.wrapping_add(1);
            if s.epoch == 0 {
                // u32 wrapped: stale stamps could alias the new epoch, so
                // reset once every ~4 billion pairs.
                s.memo_stamp.fill(0);
                s.epoch = 1;
            }
            let epoch = s.epoch;
            let mut hits = 0u64;
            let r = f(&mut s, epoch, &mut hits);
            if hits > 0 {
                self.subexpr_hits.fetch_add(hits, Ordering::Relaxed);
            }
            r
        })
    }
}

impl CompiledTheory {
    /// Step 0 of every evaluation, the guard cascade: starts with every
    /// gated block live, walks the atoms in their fixed order — skipping
    /// one no live block depends on — and clears the blocks each result
    /// vetoes. Returns the surviving blocks (bit = planned position); zero
    /// the moment nothing is live. Touches nothing but the two records.
    #[inline]
    fn survivors(&self, a: &Record, b: &Record) -> u64 {
        let mut live = self.prog.gated;
        for atom in &self.prog.atoms {
            if live & (atom.need_true | atom.need_false) == 0 {
                continue;
            }
            live &= !if atom_holds(atom, &self.prog.str_consts, a, b) {
                atom.need_false
            } else {
                atom.need_true
            };
            if live == 0 {
                break;
            }
        }
        live
    }

    /// The one evaluation path: cascade, then the surviving blocks in
    /// planned order. With `exact`, returns the source-order first firing
    /// rule; without, any firing rule.
    #[inline]
    fn decide(&self, a: &Record, b: &Record, exact: bool) -> Option<usize> {
        let mut live = self.survivors(a, b);
        let (gated, ungated) = self
            .prog
            .blocks
            .split_at(self.prog.blocks.len().min(GATED_BLOCKS));
        if live == 0 && ungated.is_empty() {
            return None;
        }
        let surviving = std::iter::from_fn(|| {
            (live != 0).then(|| {
                let pos = live.trailing_zeros();
                live &= live - 1;
                &gated[pos as usize]
            })
        });
        self.with_pair_scratch(|s, epoch, hits| {
            let mut best: Option<usize> = None;
            for blk in surviving.chain(ungated) {
                // Rules are pure: the source-order first match is the
                // minimum original index among firing rules, so a block
                // that cannot improve on the current best is skipped.
                if best.is_some_and(|id| blk.orig >= id) {
                    continue;
                }
                if exec_block(&self.prog, blk.start, a, b, &self.ctx, s, epoch, hits) {
                    best = Some(blk.orig);
                    if !exact {
                        break;
                    }
                }
            }
            best
        })
    }
}

impl EquationalTheory for CompiledTheory {
    fn matches(&self, a: &Record, b: &Record) -> bool {
        self.decide(a, b, false).is_some()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn matching_rule_id(&self, a: &Record, b: &Record) -> Option<usize> {
        self.decide(a, b, true)
    }

    fn rule_names(&self) -> Vec<String> {
        self.rule_names.clone()
    }

    fn projection(&self) -> Option<&Projection> {
        self.projection.as_deref()
    }
}

/// Evaluates one guard atom. Its operands are raw fields or constants, so
/// no temp strings (and no scratch of any kind) are involved.
#[inline]
pub(crate) fn atom_holds(atom: &Atom, consts: &[String], r1: &Record, r2: &Record) -> bool {
    let a = str_of(atom.a, r1, r2, consts, &[]);
    let b = || str_of(atom.b, r1, r2, consts, &[]);
    match atom.kind {
        GuardKind::StrEq => a == b(),
        GuardKind::IsEmpty => a.is_empty(),
        GuardKind::InitialsMatch => shared::initials_match(a, b()),
        GuardKind::DigitsTransposed => shared::digits_transposed(a, b()),
    }
}

fn str_of<'a>(
    s: StrSrc,
    r1: &'a Record,
    r2: &'a Record,
    consts: &'a [String],
    tmps: &'a [String],
) -> &'a str {
    match s {
        StrSrc::R1(f) => r1.field(f),
        StrSrc::R2(f) => r2.field(f),
        StrSrc::Const(i) => &consts[i as usize],
        StrSrc::Tmp(i) => &tmps[i as usize],
    }
}

fn num_of(n: NumSrc, nums: &[f64], consts: &[f64]) -> f64 {
    match n {
        NumSrc::Reg(i) => nums[i as usize],
        NumSrc::Const(i) => consts[i as usize],
    }
}

#[allow(clippy::too_many_arguments)]
fn num_kernel(
    k: NumKernel,
    a: StrSrc,
    b: StrSrc,
    n: Option<NumSrc>,
    r1: &Record,
    r2: &Record,
    prog: &CompiledProgram,
    buffers: &mut ScratchBuffers,
    nums: &[f64],
    tmps: &[String],
) -> f64 {
    let sa = str_of(a, r1, r2, &prog.str_consts, tmps);
    let sb = str_of(b, r1, r2, &prog.str_consts, tmps);
    match k {
        NumKernel::EditDistance => buffers.levenshtein(sa, sb) as f64,
        NumKernel::NormLev => buffers.normalized_levenshtein(sa, sb),
        NumKernel::Damerau => buffers.damerau_levenshtein(sa, sb) as f64,
        NumKernel::Jaro => buffers.jaro(sa, sb),
        NumKernel::JaroWinkler => buffers.jaro_winkler(sa, sb),
        NumKernel::Keyboard => buffers.keyboard_distance(sa, sb),
        NumKernel::Ngram => {
            // Same clamp as the interpreted builtin.
            let nv = num_of(n.expect("ngram carries n"), nums, &prog.num_consts);
            buffers.ngram_similarity(sa, sb, nv.max(1.0) as usize)
        }
        NumKernel::Trigram => buffers.trigram_similarity(sa, sb),
        NumKernel::Lcs => buffers.lcs_similarity(sa, sb),
    }
}

#[allow(clippy::too_many_arguments)]
fn bool_kernel(
    k: BoolKernel,
    a: StrSrc,
    b: StrSrc,
    n: Option<NumSrc>,
    r1: &Record,
    r2: &Record,
    ctx: &Ctx,
    prog: &CompiledProgram,
    buffers: &mut ScratchBuffers,
    nums: &[f64],
    tmps: &[String],
) -> bool {
    let sa = str_of(a, r1, r2, &prog.str_consts, tmps);
    let sb = str_of(b, r1, r2, &prog.str_consts, tmps);
    match k {
        BoolKernel::SoundexEq => ss::soundex_eq(sa, sb),
        BoolKernel::NysiisEq => shared::nysiis_eq(sa, sb),
        BoolKernel::NicknameEq => ctx.nicknames.equivalent(sa, sb),
        BoolKernel::InitialsMatch => shared::initials_match(sa, sb),
        BoolKernel::DigitsTransposed => shared::digits_transposed(sa, sb),
        BoolKernel::DifferSlightly => {
            let t = num_of(
                n.expect("differ_slightly carries t"),
                nums,
                &prog.num_consts,
            );
            buffers.differ_slightly(sa, sb, t)
        }
    }
}

/// Executes one rule block; returns whether the rule fired.
#[allow(clippy::too_many_arguments)]
fn exec_block(
    prog: &CompiledProgram,
    start: usize,
    r1: &Record,
    r2: &Record,
    ctx: &Ctx,
    s: &mut VmScratch,
    epoch: u32,
    hits: &mut u64,
) -> bool {
    let VmScratch {
        buffers,
        bools,
        nums,
        tmps,
        memo_stamp,
        memo_val,
        ..
    } = s;
    let mut pc = start;
    loop {
        match &prog.code[pc] {
            Op::JumpIfTrue(r, t) => {
                if bools[*r as usize] {
                    pc = *t;
                    continue;
                }
            }
            Op::JumpIfFalse(r, t) => {
                if !bools[*r as usize] {
                    pc = *t;
                    continue;
                }
            }
            Op::Fire => return true,
            Op::Fail => return false,
            Op::LoadBool { val, dst } => bools[*dst as usize] = *val,
            Op::NotBool { src, dst } => bools[*dst as usize] = !bools[*src as usize],
            Op::StrEq { a, b, ne, dst } => {
                let sa = str_of(*a, r1, r2, &prog.str_consts, tmps);
                let sb = str_of(*b, r1, r2, &prog.str_consts, tmps);
                bools[*dst as usize] = (sa == sb) != *ne;
            }
            Op::NumCmp { op, a, b, dst } => {
                let x = num_of(*a, nums, &prog.num_consts);
                let y = num_of(*b, nums, &prog.num_consts);
                bools[*dst as usize] = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                };
            }
            Op::BoolCmp { a, b, ne, dst } => {
                bools[*dst as usize] = (bools[*a as usize] == bools[*b as usize]) != *ne;
            }
            Op::NumKernel {
                k,
                a,
                b,
                n,
                memo,
                dst,
            } => {
                let v = match memo {
                    Some(slot) => {
                        let i = *slot as usize;
                        if memo_stamp[i] == epoch {
                            *hits += 1;
                            memo_val[i]
                        } else {
                            let v = num_kernel(*k, *a, *b, *n, r1, r2, prog, buffers, nums, tmps);
                            memo_stamp[i] = epoch;
                            memo_val[i] = v;
                            v
                        }
                    }
                    None => num_kernel(*k, *a, *b, *n, r1, r2, prog, buffers, nums, tmps),
                };
                nums[*dst as usize] = v;
            }
            Op::BoolKernel {
                k,
                a,
                b,
                n,
                memo,
                dst,
            } => {
                let v = match memo {
                    Some(slot) => {
                        let i = *slot as usize;
                        if memo_stamp[i] == epoch {
                            *hits += 1;
                            memo_val[i] != 0.0
                        } else {
                            let v =
                                bool_kernel(*k, *a, *b, *n, r1, r2, ctx, prog, buffers, nums, tmps);
                            memo_stamp[i] = epoch;
                            memo_val[i] = if v { 1.0 } else { 0.0 };
                            v
                        }
                    }
                    None => bool_kernel(*k, *a, *b, *n, r1, r2, ctx, prog, buffers, nums, tmps),
                };
                bools[*dst as usize] = v;
            }
            Op::StrLen { s, dst } => {
                let sv = str_of(*s, r1, r2, &prog.str_consts, tmps);
                nums[*dst as usize] = sv.chars().count() as f64;
            }
            Op::IsEmpty { s, dst } => {
                bools[*dst as usize] = str_of(*s, r1, r2, &prog.str_consts, tmps).is_empty();
            }
            Op::Contains { a, b, dst } => {
                let sa = str_of(*a, r1, r2, &prog.str_consts, tmps);
                let sb = str_of(*b, r1, r2, &prog.str_consts, tmps);
                bools[*dst as usize] = sa.contains(sb);
            }
            Op::StartsWith { a, b, dst } => {
                let sa = str_of(*a, r1, r2, &prog.str_consts, tmps);
                let sb = str_of(*b, r1, r2, &prog.str_consts, tmps);
                bools[*dst as usize] = sa.starts_with(sb);
            }
            Op::StrSlice { suffix, s, n, dst } => {
                // Same clamp as the interpreted prefix/suffix builtins.
                let count = num_of(*n, nums, &prog.num_consts).max(0.0) as usize;
                let mut out = std::mem::take(&mut tmps[*dst as usize]);
                out.clear();
                {
                    let full = str_of(*s, r1, r2, &prog.str_consts, tmps);
                    out.push_str(if *suffix {
                        shared::char_suffix(full, count)
                    } else {
                        shared::char_prefix(full, count)
                    });
                }
                tmps[*dst as usize] = out;
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_record::RecordId;

    fn rec(first: &str, last: &str, ssn: &str) -> Record {
        let mut r = Record::empty(RecordId(0));
        r.first_name = first.into();
        r.last_name = last.into();
        r.ssn = ssn.into();
        r
    }

    /// Every interpreter test case must agree with the VM; the dedicated
    /// agreement suite in `tests/` covers the 26-rule theory and random
    /// programs — these are fast smoke checks on each opcode family.
    fn agree(src: &str, a: &Record, b: &Record) {
        let interp = RuleProgram::compile(src).unwrap();
        let planned = CompiledTheory::compile(src).unwrap();
        let unplanned = CompiledTheory::compile_unplanned(src).unwrap();
        assert_eq!(
            interp.matches(a, b),
            planned.matches(a, b),
            "planned: {src}"
        );
        assert_eq!(
            interp.matches(a, b),
            unplanned.matches(a, b),
            "unplanned: {src}"
        );
        assert_eq!(
            interp.matching_rule_id(a, b),
            planned.matching_rule_id(a, b),
            "attribution: {src}"
        );
        assert_eq!(
            interp.matching_rule_id(a, b),
            unplanned.matching_rule_id(a, b),
            "unplanned attribution: {src}"
        );
    }

    #[test]
    fn paper_example_rule_fires_identically() {
        let src = r#"
            rule paper_example {
                when r1.last_name == r2.last_name
                 and differ_slightly(r1.first_name, r2.first_name, 0.3)
                 and r1.street_number == r2.street_number
                 and r1.street_name == r2.street_name
                then match
            }
        "#;
        let mut a = rec("MICHAEL", "SMITH", "1");
        a.street_number = "42".into();
        a.street_name = "MAIN STREET".into();
        let mut b = rec("MICHAL", "SMITH", "2");
        b.street_number = "42".into();
        b.street_name = "MAIN STREET".into();
        let t = CompiledTheory::compile(src).unwrap();
        assert!(t.matches(&a, &b));
        assert_eq!(t.matching_rule(&a, &b), Some("paper_example"));
        agree(src, &a, &b);
        b.last_name = "JONES".into();
        assert!(!t.matches(&a, &b));
        agree(src, &a, &b);
    }

    #[test]
    fn every_opcode_family_agrees_with_interpreter() {
        let cases = [
            r#"rule r { when r1.city == "AUSTIN" or r2.city != "AUSTIN" then match }"#,
            "rule r { when len(r1.last_name) >= 3 and len(r2.last_name) <= 10 then match }",
            "rule r { when is_empty(r1.city) == is_empty(r2.city) then match }",
            "rule r { when not is_empty(r1.ssn) and digits_transposed(r1.ssn, r2.ssn) then match }",
            "rule r { when soundex_eq(r1.last_name, r2.last_name) or nysiis_eq(r1.last_name, r2.last_name) then match }",
            "rule r { when nickname_eq(r1.first_name, r2.first_name) then match }",
            "rule r { when initials_match(r1.first_name, r2.first_name) then match }",
            "rule r { when edit_distance(r1.ssn, r2.ssn) <= 2 then match }",
            "rule r { when jaro_winkler(r1.last_name, r2.last_name) > 0.9 then match }",
            "rule r { when keyboard_dist(r1.first_name, r2.first_name) < 1.5 then match }",
            "rule r { when ngram_sim(r1.last_name, r2.last_name, 2) >= 0.5 then match }",
            "rule r { when trigram_sim(r1.last_name, r2.last_name) >= 0.5 then match }",
            "rule r { when lcs_sim(r1.last_name, r2.last_name) >= 0.6 then match }",
            "rule r { when damerau(r1.ssn, r2.ssn) <= 1 then match }",
            r#"rule r { when contains(r1.street_name, "MAIN") and starts_with(r2.street_name, "M") then match }"#,
            "rule r { when prefix(r1.last_name, 4) == prefix(r2.last_name, 4) then match }",
            "rule r { when suffix(r1.ssn, 4) == suffix(r2.ssn, 4) then match }",
            "rule r { when edit_sim(prefix(r1.last_name, 5), prefix(r2.last_name, 5)) >= 0.7 then match }",
            "rule r { when true and not false then match }",
            "rule r { when differ_slightly(r1.last_name, r2.last_name, len(r1.city)) then match }",
        ];
        let pairs = [
            (
                rec("MICHAEL", "SMITH", "123456789"),
                rec("MICHAL", "SMYTH", "123456798"),
            ),
            (
                rec("BOB", "JOHNSON", "111223333"),
                rec("ROBERT", "JOHNSEN", "111223333"),
            ),
            (rec("J", "HERNANDEZ", ""), rec("JOSE", "HERNANDES", "")),
            (rec("", "", ""), rec("", "", "")),
            (
                rec("ANNA", "KOWALSKI", "987654321"),
                rec("ANNE", "KOWALSKY", "987654312"),
            ),
        ];
        for src in cases {
            for (a, b) in &pairs {
                let mut a = a.clone();
                let mut b = b.clone();
                a.city = "AUSTIN".into();
                a.street_name = "MAIN STREET".into();
                b.street_name = "MAINE ST".into();
                agree(src, &a, &b);
            }
        }
    }

    #[test]
    fn planned_attribution_is_first_match_in_source_order() {
        // Rule order in the plan differs from source order (b fires far
        // more often), yet the reported id must stay the source-order
        // first match.
        let src = r#"
            rule a { when r1.last_name == r2.last_name then match }
            rule b { when r1.ssn == r2.ssn then match }
        "#;
        let rules = RuleProgram::compile(src).unwrap();
        let mut plan = Plan::of(rules.ast());
        plan.rule_order.reverse(); // force b's block first
        let t = CompiledTheory::from_program(&rules, Some(&plan));
        let a = rec("X", "SMITH", "1");
        let b = rec("Y", "SMITH", "1");
        // Both rules fire; attribution must be rule 0 (a).
        assert_eq!(t.matching_rule_id(&a, &b), Some(0));
        assert_eq!(t.matching_rule(&a, &b), Some("a"));
    }

    #[test]
    fn memo_hits_accumulate() {
        let src = r#"
            rule a { when edit_sim(r1.last_name, r2.last_name) >= 0.95 then match }
            rule b { when edit_sim(r1.last_name, r2.last_name) >= 0.1
                      and r1.first_name == r2.first_name then match }
        "#;
        let t = CompiledTheory::compile(src).unwrap();
        let a = rec("JO", "SMITH", "1");
        let b = rec("JO", "SMITHE", "2");
        assert_eq!(t.subexpr_hits(), 0);
        // matching_rule_id runs both blocks (rule a misses at 0.95, rule b
        // fires): the second edit_sim must be a memo hit.
        assert_eq!(t.matching_rule_id(&a, &b), Some(1));
        assert_eq!(t.subexpr_hits(), 1);
        // A fresh pair re-computes (epoch advanced), then hits again.
        assert_eq!(t.matching_rule_id(&a, &b), Some(1));
        assert_eq!(t.subexpr_hits(), 2);
    }

    #[test]
    fn a_pair_the_cascade_vetoes_never_reaches_the_scratch_state() {
        // Both rules are gated by `first_name ==`; rule b would hit the
        // memo if its block ran.
        let src = r#"
            rule a { when r1.first_name == r2.first_name
                      and edit_sim(r1.last_name, r2.last_name) >= 0.95 then match }
            rule b { when r1.first_name == r2.first_name
                      and edit_sim(r1.last_name, r2.last_name) >= 0.1 then match }
        "#;
        let t = CompiledTheory::compile(src).unwrap();
        let epoch = || SCRATCH.with(|s| (s.borrow().program_id, s.borrow().epoch));
        let a = rec("JO", "SMITH", "1");
        let vetoed = rec("AL", "SMITHE", "2");
        let before = epoch();
        assert_ne!(
            before.0, t.prog.id,
            "this thread has not run the program yet"
        );
        assert_eq!(t.matching_rule_id(&a, &vetoed), None);
        assert!(!t.matches(&a, &vetoed));
        assert_eq!(epoch(), before, "scratch untouched: not even re-keyed");
        assert_eq!(t.subexpr_hits(), 0);

        // A surviving pair runs both blocks: one epoch, one memo hit.
        let survivor = rec("JO", "SMITHE", "2");
        assert_eq!(t.matching_rule_id(&a, &survivor), Some(1));
        assert_eq!(epoch(), (t.prog.id, 1));
        assert_eq!(t.subexpr_hits(), 1);
        assert_eq!(t.matching_rule_id(&a, &vetoed), None);
        assert_eq!(epoch(), (t.prog.id, 1));
        assert_eq!(t.subexpr_hits(), 1);

        // The unplanned lowering has no cascade: every pair takes an epoch.
        let u = CompiledTheory::compile_unplanned(src).unwrap();
        assert_eq!(u.matching_rule_id(&a, &vetoed), None);
        assert_eq!(epoch(), (u.prog.id, 1));
    }

    #[test]
    fn rules_past_the_mask_width_still_decide_and_attribute() {
        // 70 rules; only rule 67 (ungated) or rule 3 (gated) can fire.
        let src: String = (0..70)
            .map(|i| {
                format!("rule g{i} {{ when r1.ssn == \"{i}\" and r1.last_name == r2.last_name then match }}\n")
            })
            .collect();
        let a = rec("X", "SMITH", "67");
        let b = rec("Y", "SMITH", "0");
        let t = CompiledTheory::compile(&src).unwrap();
        assert_eq!(t.matching_rule_id(&a, &b), Some(67));
        assert!(t.matches(&a, &b));
        agree(&src, &a, &b);
        agree(&src, &rec("X", "SMITH", "3"), &b);
        agree(&src, &rec("X", "JONES", "67"), &b);
        agree(&src, &rec("X", "SMITH", "70"), &b);
        // Reversed plan: source rules 69..6 are gated, 5..0 are not.
        let rules = RuleProgram::compile(&src).unwrap();
        let mut plan = Plan::of(rules.ast());
        plan.rule_order.reverse();
        let r = CompiledTheory::from_program(&rules, Some(&plan));
        assert_eq!(r.matching_rule_id(&a, &b), Some(67));
        assert_eq!(r.matching_rule_id(&rec("X", "SMITH", "3"), &b), Some(3));
        assert_eq!(r.matching_rule_id(&rec("X", "JONES", "3"), &b), None);
    }

    #[test]
    fn unplanned_theory_reports_zero_hits() {
        let src = r#"
            rule a { when edit_sim(r1.last_name, r2.last_name) >= 0.95 then match }
            rule b { when edit_sim(r1.last_name, r2.last_name) >= 0.1 then match }
        "#;
        let t = CompiledTheory::compile_unplanned(src).unwrap();
        let a = rec("JO", "SMITH", "1");
        let b = rec("JO", "SMITHE", "2");
        let _ = t.matching_rule_id(&a, &b);
        assert_eq!(t.subexpr_hits(), 0);
        assert!(!t.is_planned());
    }

    #[test]
    fn counters_and_metadata() {
        let t = CompiledTheory::compile("rule r { when r1.ssn == r2.ssn then match }").unwrap();
        assert_eq!(t.rule_count(), 1);
        assert_eq!(t.rules_compiled(), 1);
        assert_eq!(t.name(), "dsl-compiled");
        assert!(t.is_planned());
        assert_eq!(t.rule_names(), vec!["r".to_string()]);
        assert!(t.purge_spec().is_none());
        assert!(t.disassemble().contains("g0  str_eq r1.ssn, r2.ssn"));
    }
}
