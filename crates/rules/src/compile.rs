//! Lowering of checked rule ASTs to flat register bytecode.
//!
//! The interpreter in [`crate::eval`] walks the AST for every record pair,
//! allocating an argument `Vec` per call and re-matching on expression
//! shape. This module does all of that once, at compile time: field names
//! resolve to [`mp_record::Field`] slots, literals go into deduplicated
//! constant pools, `and`/`or` short-circuiting becomes jumps, and every
//! builtin becomes a dedicated opcode whose operands are registers or
//! constant-pool indices. The hot loop ([`crate::vm`]) then executes a flat
//! `Vec<Op>` with no name lookups and no per-pair allocation.
//!
//! Three register banks exist per program, sized at compile time and reused
//! across pairs: booleans, numbers (`f64`), and temporary strings (targets
//! of `prefix`/`suffix`, the only string-producing builtins). A fourth
//! per-pair store — the memo — caches expensive kernel results so a
//! subexpression shared by several rules (or by a planner-split
//! `differ_slightly`) is computed at most once per record pair; see
//! [`assign_memo`].
//!
//! Under a [`Plan`], lowering also builds the **guard cascade**: top-level
//! conjuncts that are cheap tests of raw fields ([`crate::plan::guard_of`])
//! leave their blocks for a program-wide [`Atom`] table the VM consults
//! before it runs any bytecode; see [`collect_atoms`].
//!
//! Lowering never changes semantics: each opcode calls the same shared
//! implementation the interpreter's builtins call (or a scratch-buffer
//! method tested bit-identical to it), so compiled decisions are
//! bit-identical to interpreted ones. The one non-trivial rewrite —
//! `differ_slightly(a, b, t)` with a literal threshold becoming
//! `normalized_levenshtein(a, b) >= 1.0 - t` — uses the same `1.0 - t`
//! subtraction the kernel itself performs, folded at compile time.

use crate::ast::{CmpOp, Expr, Program, RecordRef};
use crate::builtins::CostClass;
use crate::plan::{conjuncts, guard_of, p_true, GuardKind, Plan};
use crate::token::Pos;
use crate::value::Type;
use mp_record::Field;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of a string operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StrSrc {
    /// A field of the first record.
    R1(Field),
    /// A field of the second record.
    R2(Field),
    /// An entry in the string constant pool.
    Const(u16),
    /// A temporary string slot (output of `StrSlice`).
    Tmp(u8),
}

/// Source of a numeric operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NumSrc {
    /// A numeric register.
    Reg(u8),
    /// An entry in the `f64` constant pool.
    Const(u16),
}

/// Number-valued string kernels (all [`CostClass::Expensive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NumKernel {
    /// `edit_distance` — Levenshtein distance.
    EditDistance,
    /// `edit_sim` — normalized Levenshtein similarity (also the planned
    /// form of constant-threshold `differ_slightly`).
    NormLev,
    /// `damerau` — Damerau-Levenshtein distance.
    Damerau,
    /// `jaro`.
    Jaro,
    /// `jaro_winkler`.
    JaroWinkler,
    /// `keyboard_dist` — QWERTY-weighted edit distance.
    Keyboard,
    /// `ngram_sim(a, b, n)` — takes the `n` operand.
    Ngram,
    /// `trigram_sim` — `ngram_sim` fixed at n = 3.
    Trigram,
    /// `lcs_sim` — longest-common-subsequence similarity.
    Lcs,
}

impl NumKernel {
    pub(crate) fn name(self) -> &'static str {
        match self {
            NumKernel::EditDistance => "edit_distance",
            NumKernel::NormLev => "edit_sim",
            NumKernel::Damerau => "damerau",
            NumKernel::Jaro => "jaro",
            NumKernel::JaroWinkler => "jaro_winkler",
            NumKernel::Keyboard => "keyboard_dist",
            NumKernel::Ngram => "ngram_sim",
            NumKernel::Trigram => "trigram_sim",
            NumKernel::Lcs => "lcs_sim",
        }
    }
}

/// Boolean-valued string kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BoolKernel {
    /// `soundex_eq`.
    SoundexEq,
    /// `nysiis_eq`.
    NysiisEq,
    /// `nickname_eq` — consults the program's nickname table.
    NicknameEq,
    /// `initials_match`.
    InitialsMatch,
    /// `digits_transposed`.
    DigitsTransposed,
    /// `differ_slightly` with a *dynamic* threshold operand (the literal-
    /// threshold case is decomposed into `NormLev` + `NumCmp` instead).
    DifferSlightly,
}

impl BoolKernel {
    pub(crate) fn name(self) -> &'static str {
        match self {
            BoolKernel::SoundexEq => "soundex_eq",
            BoolKernel::NysiisEq => "nysiis_eq",
            BoolKernel::NicknameEq => "nickname_eq",
            BoolKernel::InitialsMatch => "initials_match",
            BoolKernel::DigitsTransposed => "digits_transposed",
            BoolKernel::DifferSlightly => "differ_slightly",
        }
    }

    pub(crate) fn cost(self) -> CostClass {
        match self {
            BoolKernel::SoundexEq | BoolKernel::NysiisEq | BoolKernel::NicknameEq => {
                CostClass::Moderate
            }
            BoolKernel::InitialsMatch | BoolKernel::DigitsTransposed => CostClass::Cheap,
            BoolKernel::DifferSlightly => CostClass::Expensive,
        }
    }
}

/// One bytecode instruction. Jump targets are absolute instruction indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Jump when the boolean register is true.
    JumpIfTrue(u8, usize),
    /// Jump when the boolean register is false.
    JumpIfFalse(u8, usize),
    /// The current rule fires: evaluation ends with a match.
    Fire,
    /// The current rule fails: fall through to the next block.
    Fail,
    /// `dst = val`.
    LoadBool { val: bool, dst: u8 },
    /// `dst = !src`.
    NotBool { src: u8, dst: u8 },
    /// `dst = (a == b)`, or `!=` when `ne`.
    StrEq {
        a: StrSrc,
        b: StrSrc,
        ne: bool,
        dst: u8,
    },
    /// `dst = a <op> b` over numbers.
    NumCmp {
        op: CmpOp,
        a: NumSrc,
        b: NumSrc,
        dst: u8,
    },
    /// `dst = (a == b)` over booleans, or `!=` when `ne`.
    BoolCmp { a: u8, b: u8, ne: bool, dst: u8 },
    /// `dst = kernel(a, b[, n])`, optionally memoized per pair.
    NumKernel {
        k: NumKernel,
        a: StrSrc,
        b: StrSrc,
        n: Option<NumSrc>,
        memo: Option<u16>,
        dst: u8,
    },
    /// `dst = kernel(a, b[, n])`, optionally memoized per pair.
    BoolKernel {
        k: BoolKernel,
        a: StrSrc,
        b: StrSrc,
        n: Option<NumSrc>,
        memo: Option<u16>,
        dst: u8,
    },
    /// `dst = char count of s` (the `len` builtin).
    StrLen { s: StrSrc, dst: u8 },
    /// `dst = s.is_empty()`.
    IsEmpty { s: StrSrc, dst: u8 },
    /// `dst = a.contains(b)`.
    Contains { a: StrSrc, b: StrSrc, dst: u8 },
    /// `dst = a.starts_with(b)`.
    StartsWith { a: StrSrc, b: StrSrc, dst: u8 },
    /// `tmp[dst] = prefix/suffix(s, n)` by char count.
    StrSlice {
        suffix: bool,
        s: StrSrc,
        n: NumSrc,
        dst: u8,
    },
}

/// One rule's code block: `start` is the index of its first instruction;
/// `orig` is the rule's index in source order (used for exact first-match
/// attribution when blocks are emitted in planned order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    pub(crate) orig: usize,
    pub(crate) start: usize,
}

/// Blocks the guard cascade can gate: one bit each in an [`Atom`]'s masks.
/// Blocks at planned positions past this keep all their conjuncts and
/// always run.
pub(crate) const GATED_BLOCKS: usize = u64::BITS as usize;

/// One entry of the guard cascade: a cheap test of raw operands, and the
/// blocks (bit = planned position) that cannot fire unless it comes out
/// true, respectively false. Operands are never [`StrSrc::Tmp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Atom {
    pub(crate) kind: GuardKind,
    pub(crate) a: StrSrc,
    /// Equal to `a` for the one-operand [`GuardKind::IsEmpty`].
    pub(crate) b: StrSrc,
    pub(crate) need_true: u64,
    pub(crate) need_false: u64,
}

/// A rule program exceeds what the bytecode format can address (256
/// registers per bank from expression nesting, 65,536 constants per pool).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityError {
    msg: String,
    pos: Pos,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.msg, self.pos)
    }
}

impl std::error::Error for CapacityError {}

static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(1);

/// A fully lowered rule program: flat code, constant pools, and the
/// register/memo sizes the VM needs to allocate scratch state.
#[derive(Debug)]
pub(crate) struct CompiledProgram {
    /// Flat instruction stream; blocks are contiguous, in planned order.
    pub(crate) code: Vec<Op>,
    /// One entry per rule, in planned (emission) order.
    pub(crate) blocks: Vec<Block>,
    /// The guard cascade, in evaluation order (empty without a plan).
    pub(crate) atoms: Vec<Atom>,
    /// The blocks live before any atom is evaluated: one bit per block, up
    /// to [`GATED_BLOCKS`].
    pub(crate) gated: u64,
    /// Deduplicated string literals.
    pub(crate) str_consts: Vec<String>,
    /// Deduplicated numeric literals (dedup by bit pattern).
    pub(crate) num_consts: Vec<f64>,
    /// Boolean registers needed (deepest expression nesting of any block).
    pub(crate) bool_regs: usize,
    /// Numeric registers needed (likewise).
    pub(crate) num_regs: usize,
    /// Temporary string slots needed (likewise).
    pub(crate) tmp_slots: usize,
    /// Per-pair memo slots (0 when CSE is disabled).
    pub(crate) memo_slots: usize,
    /// Process-unique id, used by the VM to invalidate thread-local scratch
    /// when a different program runs on the same thread.
    pub(crate) id: u64,
}

/// Lowers a checked program. With a [`Plan`], rules and conjuncts are
/// emitted in planned order, guard atoms are hoisted into the cascade, and
/// shared kernels get memo slots; without one, source order is kept, every
/// conjunct stays in its block, and no memoization happens.
pub(crate) fn compile_program(
    program: &Program,
    plan: Option<&Plan>,
) -> Result<CompiledProgram, CapacityError> {
    let mut c = Compiler::default();
    let n = program.rules.len();
    let rule_order: Vec<usize> = match plan {
        Some(p) => p.rule_order().to_vec(),
        None => (0..n).collect(),
    };
    let atoms = match plan {
        Some(_) => collect_atoms(program, &rule_order, &mut c)?,
        None => Vec::new(),
    };
    for (pos, &orig) in rule_order.iter().enumerate() {
        let rule = &program.rules[orig];
        c.block_begin(orig);
        let parts = conjuncts(&rule.condition);
        let order: Vec<usize> = match plan {
            Some(p) => p.conjunct_order(orig).to_vec(),
            None => (0..parts.len()).collect(),
        };
        let hoisted = plan.is_some() && pos < GATED_BLOCKS;
        // A conjunct's value is dead once its jump has tested it, so every
        // conjunct of the block lands in the same register.
        let dst = c.alloc_bool(rule.pos)?;
        let mut fail_jumps = Vec::new();
        for &ci in &order {
            if hoisted && guard_of(parts[ci]).is_some() {
                continue;
            }
            c.compile_bool_into(parts[ci], dst)?;
            fail_jumps.push(c.code.len());
            c.code.push(Op::JumpIfFalse(dst, usize::MAX));
        }
        c.code.push(Op::Fire);
        let fail_pc = c.code.len();
        c.code.push(Op::Fail);
        for j in fail_jumps {
            if let Op::JumpIfFalse(_, target) = &mut c.code[j] {
                *target = fail_pc;
            }
        }
    }
    let memo_slots = if plan.is_some_and(|p| p.cse) {
        assign_memo(&mut c.code)
    } else {
        0
    };
    let gated = match n.min(GATED_BLOCKS) {
        GATED_BLOCKS => u64::MAX,
        k => (1 << k) - 1,
    };
    Ok(CompiledProgram {
        code: c.code,
        blocks: c.blocks,
        atoms,
        gated,
        str_consts: c.str_consts,
        num_consts: c.num_consts,
        bool_regs: c.max_bool,
        num_regs: c.max_num,
        tmp_slots: c.max_tmp,
        memo_slots,
        id: NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed),
    })
}

/// Builds the guard cascade: every guard-form top-level conjunct
/// ([`guard_of`]) of every gated block, deduplicated program-wide, each
/// atom recording which blocks need it true and which need it false.
/// Hoisting is sound because builtins are pure and a rule is a
/// conjunction — a block an atom vetoes is a block that would have failed.
///
/// Atoms come out in the fixed order the VM walks them: most expected
/// vetoes first — the sum, over the blocks an atom gates, of the prior
/// probability that it rejects the block (so one `street_number ==`
/// shared by fifteen rules leads, and a `not is_empty` that almost always
/// holds trails the equality it accompanies and is usually skipped, its
/// blocks already dead) — with the Cheap kernels, which scan their
/// operands, after every compare-or-measure test; ties in source order.
fn collect_atoms(
    program: &Program,
    rule_order: &[usize],
    c: &mut Compiler,
) -> Result<Vec<Atom>, CapacityError> {
    let mut position = vec![0; rule_order.len()];
    for (pos, &orig) in rule_order.iter().enumerate() {
        position[orig] = pos;
    }
    let mut atoms: Vec<(Atom, f64)> = Vec::new();
    for (orig, rule) in program.rules.iter().enumerate() {
        if position[orig] >= GATED_BLOCKS {
            continue;
        }
        let bit = 1u64 << position[orig];
        for part in conjuncts(&rule.condition) {
            let Some(guard) = guard_of(part) else {
                continue;
            };
            let a = c.compile_str(guard.a)?;
            let b = match guard.b {
                Some(b) => c.compile_str(b)?,
                None => a,
            };
            let i = match atoms
                .iter()
                .position(|(t, _)| (t.kind, t.a, t.b) == (guard.kind, a, b))
            {
                Some(i) => i,
                None => {
                    let fresh = Atom {
                        kind: guard.kind,
                        a,
                        b,
                        need_true: 0,
                        need_false: 0,
                    };
                    atoms.push((fresh, 0.0));
                    atoms.len() - 1
                }
            };
            let (atom, vetoes) = &mut atoms[i];
            if guard.want {
                atom.need_true |= bit;
            } else {
                atom.need_false |= bit;
            }
            *vetoes += 1.0 - p_true(part);
        }
    }
    // Stable: equal keys keep first-occurrence (source) order.
    atoms.sort_by(|(x, vx), (y, vy)| {
        (x.kind.is_kernel().cmp(&y.kind.is_kernel())).then(vy.total_cmp(vx))
    });
    Ok(atoms.into_iter().map(|(atom, _)| atom).collect())
}

/// Takes the next register of a bank, or reports the bank (256 registers,
/// reached only through expression nesting) exhausted at `pos`.
fn alloc(next: &mut usize, max: &mut usize, bank: &str, pos: Pos) -> Result<u8, CapacityError> {
    let r = u8::try_from(*next).map_err(|_| CapacityError {
        msg: format!("expression nests more than 256 {bank} registers deep"),
        pos,
    })?;
    *next += 1;
    *max = (*max).max(*next);
    Ok(r)
}

fn pool_index(i: usize, pool: &str, pos: Pos) -> Result<u16, CapacityError> {
    u16::try_from(i).map_err(|_| CapacityError {
        msg: format!("more than 65536 distinct {pool} constants"),
        pos,
    })
}

#[derive(Default)]
struct Compiler {
    code: Vec<Op>,
    blocks: Vec<Block>,
    str_consts: Vec<String>,
    num_consts: Vec<f64>,
    next_bool: usize,
    next_num: usize,
    next_tmp: usize,
    max_bool: usize,
    max_num: usize,
    max_tmp: usize,
}

impl Compiler {
    fn block_begin(&mut self, orig: usize) {
        self.blocks.push(Block {
            orig,
            start: self.code.len(),
        });
        // Registers are per-pair scratch; each block starts from r0.
        self.next_bool = 0;
        self.next_num = 0;
        self.next_tmp = 0;
    }

    fn alloc_bool(&mut self, pos: Pos) -> Result<u8, CapacityError> {
        alloc(&mut self.next_bool, &mut self.max_bool, "boolean", pos)
    }

    fn alloc_num(&mut self, pos: Pos) -> Result<u8, CapacityError> {
        alloc(&mut self.next_num, &mut self.max_num, "numeric", pos)
    }

    fn alloc_tmp(&mut self, pos: Pos) -> Result<u8, CapacityError> {
        alloc(&mut self.next_tmp, &mut self.max_tmp, "temp-string", pos)
    }

    fn num_const(&mut self, v: f64, pos: Pos) -> Result<u16, CapacityError> {
        let i = match self
            .num_consts
            .iter()
            .position(|c| c.to_bits() == v.to_bits())
        {
            Some(i) => i,
            None => {
                self.num_consts.push(v);
                self.num_consts.len() - 1
            }
        };
        pool_index(i, "numeric", pos)
    }

    fn str_const(&mut self, s: &str, pos: Pos) -> Result<u16, CapacityError> {
        let i = match self.str_consts.iter().position(|c| c == s) {
            Some(i) => i,
            None => {
                self.str_consts.push(s.to_string());
                self.str_consts.len() - 1
            }
        };
        pool_index(i, "string", pos)
    }

    /// Compiles a boolean expression so its value lands in `dst`. Every
    /// register taken on the way is dead once it has, and is released: the
    /// banks are sized by expression nesting, not by rule length.
    fn compile_bool_into(&mut self, e: &Expr, dst: u8) -> Result<(), CapacityError> {
        let mark = (self.next_bool, self.next_num, self.next_tmp);
        self.lower_bool(e, dst)?;
        (self.next_bool, self.next_num, self.next_tmp) = mark;
        Ok(())
    }

    fn lower_bool(&mut self, e: &Expr, dst: u8) -> Result<(), CapacityError> {
        match e {
            Expr::Bool(v, _) => self.code.push(Op::LoadBool { val: *v, dst }),
            Expr::Not(inner, _) => {
                self.compile_bool_into(inner, dst)?;
                self.code.push(Op::NotBool { src: dst, dst });
            }
            Expr::And(parts, _) | Expr::Or(parts, _) => {
                let is_and = matches!(e, Expr::And(..));
                let mut exit_jumps = Vec::new();
                for (i, part) in parts.iter().enumerate() {
                    self.compile_bool_into(part, dst)?;
                    if i + 1 < parts.len() {
                        exit_jumps.push(self.code.len());
                        self.code.push(if is_and {
                            Op::JumpIfFalse(dst, usize::MAX)
                        } else {
                            Op::JumpIfTrue(dst, usize::MAX)
                        });
                    }
                }
                let end = self.code.len();
                for j in exit_jumps {
                    match &mut self.code[j] {
                        Op::JumpIfFalse(_, t) | Op::JumpIfTrue(_, t) => *t = end,
                        _ => unreachable!(),
                    }
                }
            }
            Expr::Cmp(op, lhs, rhs, pos) => {
                let ty = crate::semantic::infer(lhs).expect("checked by semantic pass");
                match ty {
                    Type::Str => {
                        let a = self.compile_str(lhs)?;
                        let b = self.compile_str(rhs)?;
                        let ne = matches!(op, CmpOp::Ne);
                        self.code.push(Op::StrEq { a, b, ne, dst });
                    }
                    Type::Num => {
                        let a = self.compile_num(lhs)?;
                        let b = self.compile_num(rhs)?;
                        self.code.push(Op::NumCmp { op: *op, a, b, dst });
                    }
                    Type::Bool => {
                        let ra = self.alloc_bool(*pos)?;
                        self.compile_bool_into(lhs, ra)?;
                        let rb = self.alloc_bool(*pos)?;
                        self.compile_bool_into(rhs, rb)?;
                        let ne = matches!(op, CmpOp::Ne);
                        self.code.push(Op::BoolCmp {
                            a: ra,
                            b: rb,
                            ne,
                            dst,
                        });
                    }
                }
            }
            Expr::Call(name, args, pos) => self.compile_bool_call(name, args, *pos, dst)?,
            Expr::FieldRef(..) | Expr::Num(..) | Expr::Str(..) => {
                unreachable!("non-bool expression rejected by type checker")
            }
        }
        Ok(())
    }

    fn compile_bool_call(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: Pos,
        dst: u8,
    ) -> Result<(), CapacityError> {
        match name {
            "is_empty" => {
                let s = self.compile_str(&args[0])?;
                self.code.push(Op::IsEmpty { s, dst });
            }
            "contains" => {
                let a = self.compile_str(&args[0])?;
                let b = self.compile_str(&args[1])?;
                self.code.push(Op::Contains { a, b, dst });
            }
            "starts_with" => {
                let a = self.compile_str(&args[0])?;
                let b = self.compile_str(&args[1])?;
                self.code.push(Op::StartsWith { a, b, dst });
            }
            "differ_slightly" => {
                let a = self.compile_str(&args[0])?;
                let b = self.compile_str(&args[1])?;
                if let Expr::Num(t, _) = args[2] {
                    // differ_slightly(a, b, t) ⇔ edit_sim(a, b) >= 1.0 - t,
                    // with 1.0 - t folded here using the exact f64
                    // subtraction the kernel performs at runtime. The
                    // similarity lands in a register keyed only by (a, b),
                    // so rules with *different* thresholds over the same
                    // field pair share one memoized Levenshtein.
                    let r = self.alloc_num(pos)?;
                    self.code.push(Op::NumKernel {
                        k: NumKernel::NormLev,
                        a,
                        b,
                        n: None,
                        memo: None,
                        dst: r,
                    });
                    let cutoff = self.num_const(1.0 - t, pos)?;
                    self.code.push(Op::NumCmp {
                        op: CmpOp::Ge,
                        a: NumSrc::Reg(r),
                        b: NumSrc::Const(cutoff),
                        dst,
                    });
                } else {
                    let n = self.compile_num(&args[2])?;
                    self.code.push(Op::BoolKernel {
                        k: BoolKernel::DifferSlightly,
                        a,
                        b,
                        n: Some(n),
                        memo: None,
                        dst,
                    });
                }
            }
            _ => {
                let k = match name {
                    "soundex_eq" => BoolKernel::SoundexEq,
                    "nysiis_eq" => BoolKernel::NysiisEq,
                    "nickname_eq" => BoolKernel::NicknameEq,
                    "initials_match" => BoolKernel::InitialsMatch,
                    "digits_transposed" => BoolKernel::DigitsTransposed,
                    other => unreachable!("unknown bool builtin {other:?}"),
                };
                let a = self.compile_str(&args[0])?;
                let b = self.compile_str(&args[1])?;
                self.code.push(Op::BoolKernel {
                    k,
                    a,
                    b,
                    n: None,
                    memo: None,
                    dst,
                });
            }
        }
        Ok(())
    }

    fn compile_num(&mut self, e: &Expr) -> Result<NumSrc, CapacityError> {
        match e {
            Expr::Num(v, pos) => Ok(NumSrc::Const(self.num_const(*v, *pos)?)),
            Expr::Call(name, args, pos) => match name.as_str() {
                "len" => {
                    let s = self.compile_str(&args[0])?;
                    let dst = self.alloc_num(*pos)?;
                    self.code.push(Op::StrLen { s, dst });
                    Ok(NumSrc::Reg(dst))
                }
                _ => {
                    let k = match name.as_str() {
                        "edit_distance" => NumKernel::EditDistance,
                        "edit_sim" => NumKernel::NormLev,
                        "damerau" => NumKernel::Damerau,
                        "jaro" => NumKernel::Jaro,
                        "jaro_winkler" => NumKernel::JaroWinkler,
                        "keyboard_dist" => NumKernel::Keyboard,
                        "ngram_sim" => NumKernel::Ngram,
                        "trigram_sim" => NumKernel::Trigram,
                        "lcs_sim" => NumKernel::Lcs,
                        other => unreachable!("unknown numeric builtin {other:?}"),
                    };
                    let a = self.compile_str(&args[0])?;
                    let b = self.compile_str(&args[1])?;
                    let n = match k {
                        NumKernel::Ngram => Some(self.compile_num(&args[2])?),
                        _ => None,
                    };
                    let dst = self.alloc_num(*pos)?;
                    self.code.push(Op::NumKernel {
                        k,
                        a,
                        b,
                        n,
                        memo: None,
                        dst,
                    });
                    Ok(NumSrc::Reg(dst))
                }
            },
            _ => unreachable!("non-numeric expression rejected by type checker"),
        }
    }

    fn compile_str(&mut self, e: &Expr) -> Result<StrSrc, CapacityError> {
        match e {
            Expr::FieldRef(RecordRef::R1, f, _) => Ok(StrSrc::R1(*f)),
            Expr::FieldRef(RecordRef::R2, f, _) => Ok(StrSrc::R2(*f)),
            Expr::Str(s, pos) => Ok(StrSrc::Const(self.str_const(s, *pos)?)),
            Expr::Call(name, args, pos) => {
                let suffix = match name.as_str() {
                    "prefix" => false,
                    "suffix" => true,
                    other => unreachable!("unknown string builtin {other:?}"),
                };
                let s = self.compile_str(&args[0])?;
                let n = self.compile_num(&args[1])?;
                let dst = self.alloc_tmp(*pos)?;
                self.code.push(Op::StrSlice { suffix, s, n, dst });
                Ok(StrSrc::Tmp(dst))
            }
            _ => unreachable!("non-string expression rejected by type checker"),
        }
    }
}

/// Canonical identity of a memoizable kernel call. `Tmp` operands are
/// excluded by the caller (a tmp slot's content depends on block-local
/// code, so the same slot number does not imply the same string), and `n`
/// must be a constant for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoKey {
    Num(NumKernel, StrSrc, StrSrc, Option<u16>),
    Bool(BoolKernel, StrSrc, StrSrc, Option<u16>),
}

fn memo_key(op: &Op) -> Option<MemoKey> {
    let stable = |s: &StrSrc| !matches!(s, StrSrc::Tmp(_));
    let const_n = |n: &Option<NumSrc>| match n {
        None => Some(None),
        Some(NumSrc::Const(i)) => Some(Some(*i)),
        Some(NumSrc::Reg(_)) => None,
    };
    match op {
        Op::NumKernel { k, a, b, n, .. } if stable(a) && stable(b) => {
            // Every numeric kernel is Expensive — always worth a slot.
            const_n(n).map(|n| MemoKey::Num(*k, *a, *b, n))
        }
        Op::BoolKernel { k, a, b, n, .. }
            if stable(a) && stable(b) && k.cost() >= CostClass::Moderate =>
        {
            const_n(n).map(|n| MemoKey::Bool(*k, *a, *b, n))
        }
        _ => None,
    }
}

/// Gives a per-pair memo slot to every kernel call whose canonical form
/// appears at least twice in the program. Returns the slot count. Slots are
/// numbered in first-occurrence order, so disassembly is deterministic.
fn assign_memo(code: &mut [Op]) -> usize {
    let mut counts: HashMap<MemoKey, u32> = HashMap::new();
    let mut first_seen: Vec<MemoKey> = Vec::new();
    for op in code.iter() {
        if let Some(key) = memo_key(op) {
            let c = counts.entry(key).or_insert(0);
            if *c == 0 {
                first_seen.push(key);
            }
            *c += 1;
        }
    }
    let mut slots: HashMap<MemoKey, u16> = HashMap::new();
    for key in first_seen {
        if counts[&key] >= 2 {
            // Past 65,536 slots a shared kernel is simply recomputed.
            let Ok(slot) = u16::try_from(slots.len()) else {
                break;
            };
            slots.insert(key, slot);
        }
    }
    for op in code.iter_mut() {
        if let Some(slot) = memo_key(op).and_then(|k| slots.get(&k).copied()) {
            match op {
                Op::NumKernel { memo, .. } | Op::BoolKernel { memo, .. } => *memo = Some(slot),
                _ => unreachable!(),
            }
        }
    }
    slots.len()
}

impl CompiledProgram {
    /// Human-readable listing of the whole program: header, constant pools,
    /// the guard cascade in evaluation order (each atom with the blocks that
    /// need it true / false), then each block with its planned position,
    /// original rule index and name, the guards that gate it (`!g` = needed
    /// false), and numbered instructions. Stable for a fixed program + plan
    /// (golden-tested).
    pub(crate) fn disassemble(&self, rule_names: &[String]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; {} rules, {} guards, {} ops, {} bool regs, {} num regs, {} tmp slots, {} memo slots",
            self.blocks.len(),
            self.atoms.len(),
            self.code.len(),
            self.bool_regs,
            self.num_regs,
            self.tmp_slots,
            self.memo_slots,
        );
        for (i, v) in self.num_consts.iter().enumerate() {
            let _ = writeln!(out, "; num[{i}] = {v}");
        }
        for (i, s) in self.str_consts.iter().enumerate() {
            let _ = writeln!(out, "; str[{i}] = {s:?}");
        }
        if !self.atoms.is_empty() {
            let _ = writeln!(out, "\nguards:");
        }
        let blocks_of = |mask: u64| {
            let set: Vec<String> = (0..GATED_BLOCKS)
                .filter(|pos| mask >> pos & 1 == 1)
                .map(|pos| pos.to_string())
                .collect();
            if set.is_empty() {
                "-".to_string()
            } else {
                set.join(",")
            }
        };
        for (i, atom) in self.atoms.iter().enumerate() {
            let test = match atom.kind {
                GuardKind::StrEq => "str_eq",
                GuardKind::IsEmpty => "is_empty",
                GuardKind::InitialsMatch => "initials_match",
                GuardKind::DigitsTransposed => "digits_transposed",
            };
            let operands = match atom.kind {
                GuardKind::IsEmpty => self.fmt_str(atom.a),
                _ => format!("{}, {}", self.fmt_str(atom.a), self.fmt_str(atom.b)),
            };
            let _ = writeln!(
                out,
                "  g{i}  {test} {operands}  ; true for blocks {}; false for blocks {}",
                blocks_of(atom.need_true),
                blocks_of(atom.need_false),
            );
        }
        for (pos, block) in self.blocks.iter().enumerate() {
            let end = self
                .blocks
                .get(pos + 1)
                .map_or(self.code.len(), |b| b.start);
            let name = rule_names.get(block.orig).map_or("?", |s| s.as_str());
            let _ = write!(out, "\nblock {pos} (rule {} {name:?})", block.orig);
            let bit = 1u64.checked_shl(pos as u32).unwrap_or(0);
            for (i, atom) in self.atoms.iter().enumerate() {
                if atom.need_true & bit != 0 {
                    let _ = write!(out, " g{i}");
                }
                if atom.need_false & bit != 0 {
                    let _ = write!(out, " !g{i}");
                }
            }
            let _ = writeln!(out, ":");
            for pc in block.start..end {
                let _ = writeln!(out, "  {pc:04}  {}", self.fmt_op(&self.code[pc]));
            }
        }
        out
    }

    fn fmt_str(&self, s: StrSrc) -> String {
        match s {
            StrSrc::R1(f) => format!("r1.{}", f.name()),
            StrSrc::R2(f) => format!("r2.{}", f.name()),
            StrSrc::Const(i) => format!("str[{i}]"),
            StrSrc::Tmp(i) => format!("tmp{i}"),
        }
    }

    fn fmt_num(&self, n: NumSrc) -> String {
        match n {
            NumSrc::Reg(i) => format!("n{i}"),
            NumSrc::Const(i) => format!("num[{i}]"),
        }
    }

    fn fmt_op(&self, op: &Op) -> String {
        let memo_sfx = |m: &Option<u16>| match m {
            Some(slot) => format!("  ; memo[{slot}]"),
            None => String::new(),
        };
        match op {
            Op::JumpIfTrue(r, t) => format!("jump_if_true b{r} -> {t:04}"),
            Op::JumpIfFalse(r, t) => format!("jump_if_false b{r} -> {t:04}"),
            Op::Fire => "fire".to_string(),
            Op::Fail => "fail".to_string(),
            Op::LoadBool { val, dst } => format!("load_bool {val} -> b{dst}"),
            Op::NotBool { src, dst } => format!("not b{src} -> b{dst}"),
            Op::StrEq { a, b, ne, dst } => format!(
                "str_{} {}, {} -> b{dst}",
                if *ne { "ne" } else { "eq" },
                self.fmt_str(*a),
                self.fmt_str(*b)
            ),
            Op::NumCmp { op, a, b, dst } => format!(
                "num_cmp {} {} {} -> b{dst}",
                self.fmt_num(*a),
                op.symbol(),
                self.fmt_num(*b)
            ),
            Op::BoolCmp { a, b, ne, dst } => format!(
                "bool_{} b{a}, b{b} -> b{dst}",
                if *ne { "ne" } else { "eq" }
            ),
            Op::NumKernel {
                k,
                a,
                b,
                n,
                memo,
                dst,
            } => {
                let n_part = n.map_or(String::new(), |n| format!(", {}", self.fmt_num(n)));
                format!(
                    "{} {}, {}{n_part} -> n{dst}{}",
                    k.name(),
                    self.fmt_str(*a),
                    self.fmt_str(*b),
                    memo_sfx(memo)
                )
            }
            Op::BoolKernel {
                k,
                a,
                b,
                n,
                memo,
                dst,
            } => {
                let n_part = n.map_or(String::new(), |n| format!(", {}", self.fmt_num(n)));
                format!(
                    "{} {}, {}{n_part} -> b{dst}{}",
                    k.name(),
                    self.fmt_str(*a),
                    self.fmt_str(*b),
                    memo_sfx(memo)
                )
            }
            Op::StrLen { s, dst } => format!("len {} -> n{dst}", self.fmt_str(*s)),
            Op::IsEmpty { s, dst } => format!("is_empty {} -> b{dst}", self.fmt_str(*s)),
            Op::Contains { a, b, dst } => format!(
                "contains {}, {} -> b{dst}",
                self.fmt_str(*a),
                self.fmt_str(*b)
            ),
            Op::StartsWith { a, b, dst } => format!(
                "starts_with {}, {} -> b{dst}",
                self.fmt_str(*a),
                self.fmt_str(*b)
            ),
            Op::StrSlice { suffix, s, n, dst } => format!(
                "{} {}, {} -> tmp{dst}",
                if *suffix { "suffix" } else { "prefix" },
                self.fmt_str(*s),
                self.fmt_num(*n)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str, planned: bool) -> (CompiledProgram, Program) {
        let program = parse(src).unwrap();
        crate::semantic::check(&program).unwrap();
        let plan = planned.then(|| Plan::of(&program));
        (compile_program(&program, plan.as_ref()).unwrap(), program)
    }

    #[test]
    fn blocks_follow_source_order_without_plan() {
        let (p, _) = compile_src(
            r#"
            rule a { when r1.ssn == r2.ssn then match }
            rule b { when r1.city == r2.city then match }
            "#,
            false,
        );
        assert_eq!(p.blocks.len(), 2);
        assert_eq!(p.blocks[0].orig, 0);
        assert_eq!(p.blocks[1].orig, 1);
        assert_eq!(p.memo_slots, 0);
        // Each block: StrEq, JumpIfFalse, Fire, Fail.
        assert_eq!(p.code.len(), 8);
        assert!(matches!(p.code[2], Op::Fire));
        assert!(matches!(p.code[3], Op::Fail));
    }

    #[test]
    fn constant_pools_dedup() {
        let (p, _) = compile_src(
            r#"
            rule a { when r1.city == "AUSTIN" and r2.city == "AUSTIN" then match }
            rule b { when edit_sim(r1.last_name, r2.last_name) >= 0.8
                      and edit_sim(r1.first_name, r2.first_name) >= 0.8 then match }
            "#,
            false,
        );
        assert_eq!(p.str_consts, vec!["AUSTIN".to_string()]);
        assert_eq!(p.num_consts, vec![0.8]);
    }

    #[test]
    fn const_threshold_differ_slightly_decomposes_to_norm_lev() {
        let (p, _) = compile_src(
            "rule r { when differ_slightly(r1.city, r2.city, 0.25) then match }",
            false,
        );
        assert!(p.code.iter().any(|op| matches!(
            op,
            Op::NumKernel {
                k: NumKernel::NormLev,
                ..
            }
        )));
        assert!(!p.code.iter().any(|op| matches!(op, Op::BoolKernel { .. })));
        // The folded cutoff is the kernel's own 1.0 - t.
        assert_eq!(p.num_consts, vec![1.0 - 0.25]);
    }

    #[test]
    fn shared_kernels_get_memo_slots_only_when_planned() {
        let src = r#"
            rule a { when edit_sim(r1.last_name, r2.last_name) >= 0.8 then match }
            rule b { when edit_sim(r1.last_name, r2.last_name) >= 0.6
                      and r1.city == r2.city then match }
            rule c { when jaro(r1.first_name, r2.first_name) >= 0.9 then match }
        "#;
        let (unplanned, _) = compile_src(src, false);
        assert_eq!(unplanned.memo_slots, 0);
        let (planned, _) = compile_src(src, true);
        // edit_sim(last_name) appears twice -> one slot; jaro appears once.
        assert_eq!(planned.memo_slots, 1);
        let memoized: Vec<_> = planned
            .code
            .iter()
            .filter(|op| matches!(op, Op::NumKernel { memo: Some(0), .. }))
            .collect();
        assert_eq!(memoized.len(), 2);
    }

    #[test]
    fn different_thresholds_share_one_memo_slot() {
        // The decomposition means thresholds 0.4 and 0.25 over the same
        // field pair hit the same NormLev slot.
        let (p, _) = compile_src(
            r#"
            rule a { when differ_slightly(r1.last_name, r2.last_name, 0.4) then match }
            rule b { when differ_slightly(r1.last_name, r2.last_name, 0.25)
                      and r1.city == r2.city then match }
            "#,
            true,
        );
        assert_eq!(p.memo_slots, 1);
    }

    #[test]
    fn tmp_string_kernels_are_never_memoized() {
        let (p, _) = compile_src(
            r#"
            rule a { when edit_sim(prefix(r1.last_name, 4), prefix(r2.last_name, 4)) >= 0.8 then match }
            rule b { when edit_sim(prefix(r1.last_name, 4), prefix(r2.last_name, 4)) >= 0.6 then match }
            "#,
            true,
        );
        assert_eq!(p.memo_slots, 0);
        assert!(p.tmp_slots >= 2);
    }

    #[test]
    fn disassembly_mentions_fields_and_memo() {
        let (p, prog) = compile_src(
            r#"
            rule a { when edit_sim(r1.last_name, r2.last_name) >= 0.8 then match }
            rule b { when edit_sim(r1.last_name, r2.last_name) >= 0.6 then match }
            "#,
            true,
        );
        let names: Vec<String> = prog.rules.iter().map(|r| r.name.clone()).collect();
        let text = p.disassemble(&names);
        assert!(
            text.contains("edit_sim r1.last_name, r2.last_name"),
            "{text}"
        );
        assert!(text.contains("; memo[0]"), "{text}");
        assert!(text.contains("block 0 (rule 0 \"a\")"), "{text}");
        assert!(text.contains("fire"), "{text}");
    }

    #[test]
    fn guards_leave_their_blocks_for_one_shared_atom_table() {
        let (p, _) = compile_src(
            r#"
            rule a { when r1.ssn == r2.ssn and not is_empty(r1.ssn)
                      and edit_sim(r1.city, r2.city) >= 0.8 then match }
            rule b { when r1.ssn != r2.ssn and r1.zip == "78701" then match }
            rule c { when (r1.ssn == r2.ssn or is_empty(r1.zip))
                      and prefix(r1.zip, 3) == prefix(r2.zip, 3) then match }
            "#,
            true,
        );
        // ssn== (both polarities, one atom), is_empty(ssn), zip=="78701".
        assert_eq!(p.atoms.len(), 3);
        assert_eq!(p.gated, 0b111);
        let ssn_eq = p
            .atoms
            .iter()
            .find(|t| t.kind == GuardKind::StrEq && t.b == StrSrc::R2(Field::Ssn))
            .unwrap();
        assert_eq!((ssn_eq.need_true, ssn_eq.need_false), (0b001, 0b010));
        assert_eq!(p.atoms[0], *ssn_eq, "gates two blocks, so it leads");
        let empty = p.atoms.iter().find(|t| t.kind == GuardKind::IsEmpty);
        assert_eq!(empty.map(|t| (t.need_true, t.need_false)), Some((0, 0b001)));
        // Rule b is all guards: its block is `fire; fail`. Rule c has none
        // at top level (`or` group, temp operands): nothing hoisted.
        let len =
            |i: usize| p.blocks.get(i + 1).map_or(p.code.len(), |b| b.start) - p.blocks[i].start;
        assert_eq!(len(1), 2);
        assert!(p
            .atoms
            .iter()
            .all(|t| (t.need_true | t.need_false) & 0b100 == 0));
        assert_eq!(
            p.code
                .iter()
                .filter(|op| matches!(op, Op::StrEq { .. }))
                .count(),
            2,
            "only rule c's two string comparisons stay in bytecode"
        );
    }

    #[test]
    fn without_a_plan_the_cascade_is_empty() {
        let (p, _) = compile_src(
            "rule a { when r1.ssn == r2.ssn and not is_empty(r1.ssn) then match }",
            false,
        );
        assert!(p.atoms.is_empty());
        assert_eq!(p.gated, 0b1);
        // StrEq, Jump, IsEmpty, Not, Jump, Fire, Fail: lowered as written.
        assert_eq!(p.code.len(), 7);
    }

    #[test]
    fn blocks_past_the_mask_width_keep_their_guards() {
        let src: String = (0..GATED_BLOCKS + 3)
            .map(|i| {
                format!("rule g{i} {{ when r1.ssn == r2.ssn and r1.zip == \"{i}\" then match }}\n")
            })
            .collect();
        let (p, _) = compile_src(&src, true);
        assert_eq!(p.gated, u64::MAX);
        assert_eq!(p.atoms.len(), 1 + GATED_BLOCKS);
        assert_eq!(p.atoms[0].need_true, u64::MAX);
        for (pos, blk) in p.blocks.iter().enumerate() {
            let end = p.blocks.get(pos + 1).map_or(p.code.len(), |b| b.start);
            let want = if pos < GATED_BLOCKS { 2 } else { 6 };
            assert_eq!(end - blk.start, want, "block {pos}");
        }
    }

    #[test]
    fn register_banks_are_sized_by_nesting_not_rule_length() {
        let long = (0..300)
            .map(|_| "edit_sim(r1.city, r2.city) >= 0.5")
            .collect::<Vec<_>>()
            .join(" and ");
        let (p, _) = compile_src(&format!("rule long {{ when {long} then match }}"), false);
        assert_eq!((p.bool_regs, p.num_regs), (1, 1));
        let (p, _) = compile_src(
            "rule r { when (is_empty(r1.city) == (len(r1.zip) > len(r2.zip)))
                       and edit_sim(prefix(r1.ssn, 3), suffix(r2.ssn, 3)) > 0.5 then match }",
            false,
        );
        assert_eq!((p.bool_regs, p.num_regs, p.tmp_slots), (3, 2, 2));
    }

    #[test]
    fn exhausted_capacity_is_a_positioned_error() {
        let mut operand = "r1.ssn".to_string();
        for _ in 0..257 {
            operand = format!("prefix({operand}, 9)");
        }
        let src = format!("rule deep {{\n when is_empty({operand}) then match }}");
        let program = parse(&src).unwrap();
        crate::semantic::check(&program).unwrap();
        let text = match compile_program(&program, None) {
            Err(e) => e.to_string(),
            Ok(p) => panic!("compiled with {} tmp slots", p.tmp_slots),
        };
        assert!(text.contains("256 temp-string registers"), "{text}");
        assert!(text.contains(" at 2:"), "{text}");
    }
}
