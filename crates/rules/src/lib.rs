#![warn(missing_docs)]

//! A declarative rule language for merge/purge equational theories.
//!
//! §2.3: "a natural approach to specifying an equational theory and making
//! it practical would be the use of a declarative rule language." The paper
//! wrote its 26-rule employee theory in OPS5, then recoded it in C for
//! speed. Here the compiler does the recoding:
//!
//! * a small rule DSL — lexer → parser → type checker → tree-walking
//!   evaluator — for experimentation ([`RuleProgram`]);
//! * a compiler from the same checked AST to a planned, register-based
//!   bytecode VM ([`CompiledTheory`]): field names resolve to slots at
//!   compile time, the rules' cheap field tests become a guard cascade
//!   that rejects most pairs before any bytecode runs (and projects onto
//!   per-record rows a window scan rejects pairs on), the remaining
//!   predicates are reordered cheapest-and-most-selective first
//!   ([`Plan`]), and shared kernel calls are memoized per record pair —
//!   same decisions as the interpreter (see `docs/RULE_COMPILER.md`);
//! * [`NativeEmployeeTheory`], the built-in employee theory the product
//!   runs by default: the compiled, statically planned
//!   [`EMPLOYEE_RULES_SRC`];
//! * the [`EquationalTheory`] trait they all implement, which the
//!   window-scan phase calls for every candidate pair.
//!
//! # The language
//!
//! ```text
//! rule same-name-address {
//!     when last_name equal
//!      and first_name differ_slightly(0.25)
//!      and address equal
//!     then match
//! }
//! ```
//!
//! is sugar-free in this implementation; the real grammar is expression
//! based:
//!
//! ```text
//! rule same_name_address {
//!     when r1.last_name == r2.last_name
//!      and differ_slightly(r1.first_name, r2.first_name, 0.25)
//!      and r1.street_number == r2.street_number
//!      and edit_sim(r1.street_name, r2.street_name) >= 0.75
//!     then match
//! }
//! ```
//!
//! A program is a disjunction of rules: two records are equivalent when any
//! rule fires. See [`builtins`] for the predicate library (edit, phonetic,
//! typewriter distances, nickname equivalence, and friends).
//!
//! # Example
//!
//! Compile a program once, then evaluate record pairs. [`RuleProgram`] is
//! the tree-walking interpreter; [`CompiledTheory`] lowers the same source
//! to planned bytecode and makes bit-identical decisions, faster:
//!
//! ```
//! use mp_rules::{CompiledTheory, EquationalTheory, RuleProgram};
//! use mp_record::{Record, RecordId};
//!
//! let src = r#"
//!     rule same_person {
//!         when r1.ssn == r2.ssn
//!          and differ_slightly(r1.last_name, r2.last_name, 0.3)
//!         then match
//!     }
//! "#;
//! let interpreted = RuleProgram::compile(src).unwrap();
//! let compiled = CompiledTheory::compile(src).unwrap();
//!
//! let mut a = Record::empty(RecordId(0));
//! a.ssn = "123456789".into();
//! a.last_name = "HERNANDEZ".into();
//! let mut b = a.clone();
//! b.id = RecordId(1);
//! b.last_name = "HERNANDES".into();
//! assert!(interpreted.matches(&a, &b));
//! assert!(compiled.matches(&a, &b));
//! assert_eq!(compiled.matching_rule(&a, &b), Some("same_person"));
//! ```

pub mod ast;
pub mod builtins;
pub(crate) mod compile;
pub mod display;
pub mod employee;
pub mod eval;
pub mod lexer;
pub mod native;
pub mod observe;
pub mod parser;
pub mod plan;
pub mod projection;
pub mod semantic;
pub mod token;
pub mod value;
pub mod vm;

pub use ast::{Expr, Program, PurgeSpec, Rule, Survivorship};
pub use builtins::CostClass;
pub use compile::CapacityError;
pub use display::{print_program, programs_equivalent};
pub use employee::{employee_program, EMPLOYEE_RULES_SRC};
pub use eval::RuleProgram;
pub use native::NativeEmployeeTheory;
pub use observe::RuleFiringCounter;
pub use parser::ParseError;
pub use plan::{Plan, PlanStats};
pub use projection::Projection;
pub use semantic::TypeError;
pub use vm::CompiledTheory;

use mp_record::Record;

// The shared test module (`tests/random`) names this crate `mp_rules` from
// the unit tests too.
#[cfg(test)]
extern crate self as mp_rules;

/// The equational theory interface: decides whether two records describe
/// the same real-world entity.
///
/// Implementations must be pure functions of the two records (the window
/// scan may evaluate a pair in any order and from any thread).
pub trait EquationalTheory: Sync {
    /// `true` when the theory declares `a` and `b` equivalent.
    fn matches(&self, a: &Record, b: &Record) -> bool;

    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Index (into [`EquationalTheory::rule_names`]) of the first rule that
    /// declares `a ≡ b`, or `None` when the pair does not match. Theories
    /// are ordered first-match-wins disjunctions, so "first" is
    /// well-defined; the default treats the whole theory as one anonymous
    /// rule `0`.
    fn matching_rule_id(&self, a: &Record, b: &Record) -> Option<usize> {
        self.matches(a, b).then_some(0)
    }

    /// The theory's rule names, indexed by
    /// [`EquationalTheory::matching_rule_id`]. The default single-rule view
    /// reuses the theory name.
    fn rule_names(&self) -> Vec<String> {
        vec![self.name().to_string()]
    }

    /// The theory's guard cascade projected onto per-record rows, when it
    /// has one: a window scan that keeps a [`projection::Row`] per record
    /// in its window rejects a pair on the rows alone when
    /// [`Projection::rejects`] says so, and hands every other pair to the
    /// theory. A rejected pair is one [`EquationalTheory::matches`] would
    /// have answered `false` (see [`projection`] for why). The default is
    /// `None`: the scan evaluates every pair.
    fn projection(&self) -> Option<&Projection> {
        None
    }

    /// Reports `pairs` evaluations that a scan decided as misses on the
    /// [`EquationalTheory::projection`] rows instead of calling the theory.
    /// A scan calls it once per band; an observing wrapper counts them as
    /// evaluations where no rule fired. The default ignores them.
    fn projected_misses(&self, _pairs: u64) {}
}

impl<T: EquationalTheory + ?Sized> EquationalTheory for &T {
    fn matches(&self, a: &Record, b: &Record) -> bool {
        (**self).matches(a, b)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn matching_rule_id(&self, a: &Record, b: &Record) -> Option<usize> {
        (**self).matching_rule_id(a, b)
    }

    fn rule_names(&self) -> Vec<String> {
        (**self).rule_names()
    }

    fn projection(&self) -> Option<&Projection> {
        (**self).projection()
    }

    fn projected_misses(&self, pairs: u64) {
        (**self).projected_misses(pairs)
    }
}

/// Errors surfaced when compiling a rule program.
#[derive(Debug)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// The program parsed but is ill-typed.
    Type(TypeError),
    /// The program is well-typed but too large for the bytecode format.
    Capacity(CapacityError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Type(e) => write!(f, "type error: {e}"),
            CompileError::Capacity(e) => write!(f, "capacity error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

impl From<CapacityError> for CompileError {
    fn from(e: CapacityError) -> Self {
        CompileError::Capacity(e)
    }
}
