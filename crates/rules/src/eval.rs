//! Compiled (interpreted) rule programs.

use crate::ast::{CmpOp, Expr, Program, RecordRef};
use crate::builtins::{lookup, Builtin, Ctx};
use crate::semantic::check;
use crate::value::Value;
use crate::{CompileError, EquationalTheory};
use mp_record::{NicknameTable, Record};

/// A parsed, type-checked, executable rule program.
///
/// Calls are pre-resolved to builtin function pointers at compile time, so
/// evaluation is a direct tree walk with no name lookups. This is still the
/// "OPS5" path of the paper — flexible but slower than the compiled
/// [`crate::CompiledTheory`], which the agreement suite holds to it.
pub struct RuleProgram {
    program: Program,
    resolved: Vec<CompiledRule>,
    ctx: Ctx,
    name: String,
}

struct CompiledRule {
    name: String,
    cond: CExpr,
}

/// Expression with calls resolved to `&'static Builtin`.
pub(crate) enum CExpr {
    Or(Vec<CExpr>),
    And(Vec<CExpr>),
    Not(Box<CExpr>),
    Cmp(CmpOp, Box<CExpr>, Box<CExpr>),
    Call(&'static Builtin, Vec<CExpr>),
    FieldRef(RecordRef, mp_record::Field),
    Num(f64),
    Str(String),
    Bool(bool),
}

impl RuleProgram {
    /// Parses, type-checks, and resolves a rule program with the standard
    /// nickname table.
    pub fn compile(src: &str) -> Result<Self, CompileError> {
        Self::compile_with(src, NicknameTable::standard())
    }

    /// [`RuleProgram::compile`] with a custom nickname table.
    pub fn compile_with(src: &str, nicknames: NicknameTable) -> Result<Self, CompileError> {
        let program = crate::parser::parse(src)?;
        check(&program)?;
        // Every theory built from this program (`CompiledTheory::from_program`
        // is infallible) lowers at most what the straight lowering does, so
        // a program that is too large for the bytecode is rejected here.
        crate::compile::compile_program(&program, None)?;
        let resolved = program
            .rules
            .iter()
            .map(|r| CompiledRule {
                name: r.name.clone(),
                cond: resolve(&r.condition),
            })
            .collect();
        Ok(RuleProgram {
            program,
            resolved,
            ctx: Ctx { nicknames },
            name: "rule-dsl".to_string(),
        })
    }

    /// The parsed AST (for tooling and tests).
    pub fn ast(&self) -> &Program {
        &self.program
    }

    /// The program's `purge { ... }` survivorship spec, if it declared one.
    pub fn purge_spec(&self) -> Option<&crate::ast::PurgeSpec> {
        self.program.purge.as_ref()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.resolved.len()
    }

    /// The evaluation context (nickname table) this program runs with.
    pub(crate) fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// The name of the first rule that fires for this pair, if any —
    /// the "explain" entry point.
    pub fn matching_rule(&self, a: &Record, b: &Record) -> Option<&str> {
        self.resolved
            .iter()
            .find(|r| eval(&r.cond, a, b, &self.ctx).as_bool())
            .map(|r| r.name.as_str())
    }
}

impl EquationalTheory for RuleProgram {
    fn matches(&self, a: &Record, b: &Record) -> bool {
        self.resolved
            .iter()
            .any(|r| eval(&r.cond, a, b, &self.ctx).as_bool())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn matching_rule_id(&self, a: &Record, b: &Record) -> Option<usize> {
        self.resolved
            .iter()
            .position(|r| eval(&r.cond, a, b, &self.ctx).as_bool())
    }

    fn rule_names(&self) -> Vec<String> {
        self.resolved.iter().map(|r| r.name.clone()).collect()
    }
}

pub(crate) fn resolve(e: &Expr) -> CExpr {
    match e {
        Expr::Or(parts, _) => CExpr::Or(parts.iter().map(resolve).collect()),
        Expr::And(parts, _) => CExpr::And(parts.iter().map(resolve).collect()),
        Expr::Not(inner, _) => CExpr::Not(Box::new(resolve(inner))),
        Expr::Cmp(op, l, r, _) => CExpr::Cmp(*op, Box::new(resolve(l)), Box::new(resolve(r))),
        Expr::Call(name, args, _) => CExpr::Call(
            lookup(name).expect("checked by semantic pass"),
            args.iter().map(resolve).collect(),
        ),
        Expr::FieldRef(rec, field, _) => CExpr::FieldRef(*rec, *field),
        Expr::Num(n, _) => CExpr::Num(*n),
        Expr::Str(s, _) => CExpr::Str(s.clone()),
        Expr::Bool(b, _) => CExpr::Bool(*b),
    }
}

pub(crate) fn eval<'a>(e: &'a CExpr, r1: &'a Record, r2: &'a Record, ctx: &Ctx) -> Value<'a> {
    match e {
        CExpr::Bool(b) => Value::Bool(*b),
        CExpr::Num(n) => Value::Num(*n),
        CExpr::Str(s) => Value::str(s),
        CExpr::FieldRef(RecordRef::R1, f) => Value::str(r1.field(*f)),
        CExpr::FieldRef(RecordRef::R2, f) => Value::str(r2.field(*f)),
        CExpr::Not(inner) => Value::Bool(!eval(inner, r1, r2, ctx).as_bool()),
        CExpr::And(parts) => Value::Bool(parts.iter().all(|p| eval(p, r1, r2, ctx).as_bool())),
        CExpr::Or(parts) => Value::Bool(parts.iter().any(|p| eval(p, r1, r2, ctx).as_bool())),
        CExpr::Cmp(op, l, r) => {
            let lv = eval(l, r1, r2, ctx);
            let rv = eval(r, r1, r2, ctx);
            let res = match (op, &lv, &rv) {
                (CmpOp::Eq, _, _) => lv == rv,
                (CmpOp::Ne, _, _) => lv != rv,
                (CmpOp::Gt, Value::Num(a), Value::Num(b)) => a > b,
                (CmpOp::Ge, Value::Num(a), Value::Num(b)) => a >= b,
                (CmpOp::Lt, Value::Num(a), Value::Num(b)) => a < b,
                (CmpOp::Le, Value::Num(a), Value::Num(b)) => a <= b,
                _ => unreachable!("ordering on non-numbers rejected by type checker"),
            };
            Value::Bool(res)
        }
        CExpr::Call(builtin, args) => {
            let vals: Vec<Value<'a>> = args.iter().map(|a| eval(a, r1, r2, ctx)).collect();
            (builtin.eval)(&vals, ctx)
        }
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

    #[test]
    fn paper_example_rule_fires() {
        // The §2.3 example rule, in this DSL.
        let p = RuleProgram::compile(
            r#"
            rule paper_example {
                when r1.last_name == r2.last_name
                 and differ_slightly(r1.first_name, r2.first_name, 0.3)
                 and r1.street_number == r2.street_number
                 and r1.street_name == r2.street_name
                then match
            }
            "#,
        )
        .unwrap();
        let mut a = rec("MICHAEL", "SMITH", "1");
        a.street_number = "42".into();
        a.street_name = "MAIN STREET".into();
        let mut b = rec("MICHAEL", "SMITH", "2");
        b.street_number = "42".into();
        b.street_name = "MAIN STREET".into();
        b.first_name = "MICHAL".into(); // one deletion
        assert!(p.matches(&a, &b));
        assert_eq!(p.matching_rule(&a, &b), Some("paper_example"));
        b.last_name = "JONES".into();
        assert!(!p.matches(&a, &b));
        assert_eq!(p.matching_rule(&a, &b), None);
    }

    #[test]
    fn disjunction_of_rules_any_fires() {
        let p = RuleProgram::compile(
            r#"
            rule by_ssn { when r1.ssn == r2.ssn and not is_empty(r1.ssn) then match }
            rule by_name { when r1.last_name == r2.last_name and nickname_eq(r1.first_name, r2.first_name) then match }
            "#,
        )
        .unwrap();
        assert_eq!(p.rule_count(), 2);
        let a = rec("BOB", "JOHNSON", "111");
        let b = rec("ROBERT", "JOHNSON", "222");
        assert!(p.matches(&a, &b));
        assert_eq!(p.matching_rule(&a, &b), Some("by_name"));
        let c = rec("ALICE", "KLEIN", "111");
        let d = rec("ZOE", "MARSH", "111");
        assert_eq!(p.matching_rule(&c, &d), Some("by_ssn"));
    }

    #[test]
    fn literals_and_not() {
        let p = RuleProgram::compile(
            r#"rule r { when not is_empty(r1.city) and r1.city == "AUSTIN" then match }"#,
        )
        .unwrap();
        let mut a = rec("A", "B", "1");
        let b = a.clone();
        assert!(!p.matches(&a, &b));
        a.city = "AUSTIN".into();
        assert!(p.matches(&a, &b));
    }

    #[test]
    fn numeric_comparisons_all_operators() {
        let p = RuleProgram::compile(
            r#"
            rule r {
                when len(r1.last_name) >= 3
                 and len(r1.last_name) <= 10
                 and len(r1.first_name) > 0
                 and len(r2.first_name) < 100
                 and edit_distance(r1.ssn, r2.ssn) != 9
                 and len(r1.ssn) == len(r2.ssn)
                then match
            }
            "#,
        )
        .unwrap();
        let a = rec("JO", "ABCD", "123");
        let b = rec("JO", "ABCD", "124");
        assert!(p.matches(&a, &b));
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(matches!(
            RuleProgram::compile("rule r { when @@ then match }"),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            RuleProgram::compile("rule r { when len(r1.city) then match }"),
            Err(CompileError::Type(_))
        ));
    }

    #[test]
    fn symmetric_rule_is_symmetric_in_practice() {
        let p = RuleProgram::compile(
            "rule r { when soundex_eq(r1.last_name, r2.last_name) then match }",
        )
        .unwrap();
        let a = rec("X", "SMITH", "1");
        let b = rec("Y", "SMYTH", "2");
        assert_eq!(p.matches(&a, &b), p.matches(&b, &a));
    }
}
