//! Predicate planning for compiled rule programs.
//!
//! The compiler (`crate::compile`) lowers rules exactly as written; this
//! module decides *what order* to evaluate them in. A [`Plan`] carries four
//! independent decisions the VM applies without changing any decision the
//! theory makes:
//!
//! 1. **Within a rule**, the top-level `and` conjuncts are reordered
//!    cheapest-and-most-selective-first. Conjuncts are pure predicates, so
//!    any permutation preserves the conjunction's value; the planner sorts
//!    by expected cost per rejected pair, `cost / (1 − P(true))`, the
//!    classic short-circuit ordering criterion.
//! 2. **Across rules**, blocks are emitted most-frequently-firing-first
//!    (when firing statistics are available). A program is a disjunction,
//!    so `matches` is order-independent; the VM keeps first-match-wins
//!    *attribution* exact by continuing to scan blocks whose original index
//!    is smaller than the best firing block found so far. On a miss every
//!    rule is evaluated regardless of order, so this only speeds up hits —
//!    the conjunct ordering and the memo do the heavy lifting.
//! 3. **Common subexpressions** — identical kernel calls appearing in two
//!    or more places program-wide (one `edit_sim(r1.last_name,
//!    r2.last_name)` shared by four rules, say) — are given per-pair memo
//!    slots, so each distinct kernel/field-pair combination is computed at
//!    most once per record pair.
//! 4. **The guard cascade** — top-level conjuncts that are cheap,
//!    scratch-free tests of raw fields (`guard_of`: string (in)equality,
//!    `is_empty`, `initials_match`, `digits_transposed`, and `not` of
//!    these) are hoisted out of their blocks into one program-wide atom
//!    table. The VM evaluates each atom at most once per pair and lets it
//!    veto every rule that needs the other answer, so a typical non-match
//!    is decided without running any bytecode. A rule is a conjunction of
//!    pure predicates: a vetoed block is a block that would have failed.
//!    Conjunct ordering (decision 1) therefore only matters for the
//!    *residual* conjuncts — the kernels, `or` groups and `prefix`/`suffix`
//!    tests that stay in the block.
//!
//! Cost comes from each builtin's static [`CostClass`]; selectivity comes
//! from static per-predicate priors, optionally replaced by measured rates
//! when the plan is [`Plan::calibrated`] against sample record pairs using
//! the per-rule firing statistics [`RuleFiringCounter`] collects.

use crate::ast::{CmpOp, Expr, Program};
use crate::builtins::{lookup, CostClass};
use crate::eval::RuleProgram;
use crate::observe::RuleFiringCounter;
use crate::EquationalTheory;
use mp_record::Record;

/// Conjunct true-rates below this never count as "free" — keeps the
/// expected-cost ratio finite for predicates that were always true in the
/// calibration sample.
const MIN_REJECT_RATE: f64 = 0.01;

/// Calibration evaluates each conjunct on at most this many sample pairs.
const CALIBRATION_CAP: usize = 2_048;

/// An evaluation order for a rule program. Produced by the constructors
/// here, consumed by [`crate::CompiledTheory`]. Plans never change what a
/// program decides — only how fast it decides it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Block emission order: original rule indices, most-likely-to-fire
    /// first.
    pub(crate) rule_order: Vec<usize>,
    /// Per original rule: permutation of its top-level `and` conjuncts
    /// (identity for rules whose condition is not a conjunction).
    pub(crate) conjunct_orders: Vec<Vec<usize>>,
    /// Whether shared kernel calls get per-pair memo slots.
    pub(crate) cse: bool,
}

/// Firing statistics feeding across-rule ordering, extracted from a
/// [`RuleFiringCounter`] or supplied directly.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Per-rule firing counts, in original rule order.
    pub fired: Vec<u64>,
    /// Evaluations where no rule fired.
    pub misses: u64,
}

impl PlanStats {
    /// Snapshot of the statistics a firing counter has accumulated.
    pub fn from_counter<T: EquationalTheory>(counter: &RuleFiringCounter<T>) -> Self {
        PlanStats {
            fired: counter.fired(),
            misses: counter.misses(),
        }
    }
}

impl Plan {
    /// A plan from the static cost model alone: conjuncts ordered by
    /// `cost / (1 − P(true))` with prior selectivities, rules left in
    /// source order, memoization enabled.
    pub fn of(program: &Program) -> Self {
        Self::build(program, None, None)
    }

    /// [`Plan::of`], with rules additionally ordered by measured firing
    /// counts (descending; ties keep source order).
    pub fn with_stats(program: &Program, stats: &PlanStats) -> Self {
        Self::build(program, Some(&stats.fired), None)
    }

    /// A plan calibrated against sample record pairs: rule order comes from
    /// a [`RuleFiringCounter`] run over `pairs`, and each top-level
    /// conjunct's selectivity is measured on the sample (capped at
    /// `CALIBRATION_CAP` = 2,048 pairs) instead of using priors. Deterministic
    /// for a fixed program and sample. Falls back to [`Plan::of`] when
    /// `pairs` is empty.
    pub fn calibrated(rules: &RuleProgram, pairs: &[(&Record, &Record)]) -> Self {
        let program = rules.ast();
        if pairs.is_empty() {
            return Self::of(program);
        }
        let counted = RuleFiringCounter::new(rules);
        for &(a, b) in pairs {
            let _ = counted.matching_rule_id(a, b);
        }
        let fired = counted.fired();

        let sample = &pairs[..pairs.len().min(CALIBRATION_CAP)];
        let measured: Vec<Vec<f64>> = program
            .rules
            .iter()
            .map(|rule| {
                conjuncts(&rule.condition)
                    .iter()
                    .map(|c| {
                        let resolved = crate::eval::resolve(c);
                        let t = sample
                            .iter()
                            .filter(|(a, b)| {
                                crate::eval::eval(&resolved, a, b, rules.ctx()).as_bool()
                            })
                            .count();
                        t as f64 / sample.len() as f64
                    })
                    .collect()
            })
            .collect();
        Self::build(program, Some(&fired), Some(&measured))
    }

    fn build(program: &Program, fired: Option<&[u64]>, measured: Option<&[Vec<f64>]>) -> Self {
        let n = program.rules.len();
        let mut rule_order: Vec<usize> = (0..n).collect();
        if let Some(fired) = fired {
            // Stable sort: ties (and the all-zero cold start) keep source
            // order, so plans are deterministic.
            rule_order.sort_by_key(|&i| std::cmp::Reverse(fired.get(i).copied().unwrap_or(0)));
        }
        let conjunct_orders = program
            .rules
            .iter()
            .enumerate()
            .map(|(i, rule)| {
                let parts = conjuncts(&rule.condition);
                let mut order: Vec<usize> = (0..parts.len()).collect();
                let ranks: Vec<f64> = parts
                    .iter()
                    .enumerate()
                    .map(|(j, part)| {
                        let p = measured
                            .and_then(|m| m.get(i).and_then(|r| r.get(j)).copied())
                            .unwrap_or_else(|| p_true(part));
                        expr_cost(part) / (1.0 - p).max(MIN_REJECT_RATE)
                    })
                    .collect();
                // Stable by rank; equal ranks keep source order.
                order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));
                order
            })
            .collect();
        Plan {
            rule_order,
            conjunct_orders,
            cse: true,
        }
    }

    /// The planned block order, as original rule indices.
    pub fn rule_order(&self) -> &[usize] {
        &self.rule_order
    }

    /// The planned evaluation order of `rule`'s top-level conjuncts, as
    /// indices into the source-order conjunct list.
    pub fn conjunct_order(&self, rule: usize) -> &[usize] {
        &self.conjunct_orders[rule]
    }
}

/// The top-level conjuncts of a rule condition: the parts of an `and`, or
/// the whole expression when it is not a conjunction.
pub(crate) fn conjuncts(condition: &Expr) -> Vec<&Expr> {
    match condition {
        Expr::And(parts, _) => parts.iter().collect(),
        other => vec![other],
    }
}

/// The test a guard atom performs on its raw operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardKind {
    /// `a == b` over strings (`!=` is the same atom, wanted false).
    StrEq,
    /// `is_empty(a)`.
    IsEmpty,
    /// `initials_match(a, b)` — a [`CostClass::Cheap`] kernel.
    InitialsMatch,
    /// `digits_transposed(a, b)` — a [`CostClass::Cheap`] kernel.
    DigitsTransposed,
}

impl GuardKind {
    /// The Cheap kernels scan their operands; the cascade tries them after
    /// the tests that only compare or measure.
    pub(crate) fn is_kernel(self) -> bool {
        matches!(self, GuardKind::InitialsMatch | GuardKind::DigitsTransposed)
    }
}

/// A top-level conjunct in guard form: the rule needs `kind(a[, b])` to
/// come out as `want`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Guard<'e> {
    pub(crate) kind: GuardKind,
    pub(crate) a: &'e Expr,
    /// `None` for the one-operand `is_empty`.
    pub(crate) b: Option<&'e Expr>,
    pub(crate) want: bool,
}

/// Classifies a top-level conjunct as a guard atom, if it is one: a pure,
/// scratch-free, at most Cheap-class predicate whose operands are raw
/// fields or string literals. Anything under an `or`, any `prefix`/`suffix`
/// operand (a temp string), and every Moderate/Expensive kernel is not.
pub(crate) fn guard_of(e: &Expr) -> Option<Guard<'_>> {
    let raw = |e: &Expr| matches!(e, Expr::FieldRef(..) | Expr::Str(..));
    match e {
        Expr::Not(inner, _) => guard_of(inner).map(|g| Guard { want: !g.want, ..g }),
        Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), l, r, _) if raw(l) && raw(r) => Some(Guard {
            kind: GuardKind::StrEq,
            a: l,
            b: Some(r),
            want: *op == CmpOp::Eq,
        }),
        Expr::Call(name, args, _) if args.iter().all(raw) => {
            let kind = match name.as_str() {
                "is_empty" => GuardKind::IsEmpty,
                "initials_match" => GuardKind::InitialsMatch,
                "digits_transposed" => GuardKind::DigitsTransposed,
                _ => return None,
            };
            Some(Guard {
                kind,
                a: &args[0],
                b: args.get(1),
                want: true,
            })
        }
        _ => None,
    }
}

/// Abstract evaluation cost of an expression, in [`CostClass::weight`]
/// units. Comparisons cost a little; field references and literals are
/// free; calls cost their builtin's class.
fn expr_cost(e: &Expr) -> f64 {
    match e {
        Expr::Or(parts, _) | Expr::And(parts, _) => parts.iter().map(expr_cost).sum(),
        Expr::Not(inner, _) => expr_cost(inner),
        Expr::Cmp(_, l, r, _) => 2.0 + expr_cost(l) + expr_cost(r),
        Expr::Call(name, args, _) => {
            let own = lookup(name).map_or(CostClass::Moderate.weight(), |b| b.cost.weight());
            own + args.iter().map(expr_cost).sum::<f64>()
        }
        Expr::FieldRef(..) | Expr::Num(..) | Expr::Str(..) | Expr::Bool(..) => 0.0,
    }
}

/// Prior probability that a predicate holds on a random near-neighbor pair.
/// These only matter relative to each other; calibration replaces them with
/// measured rates.
pub(crate) fn p_true(e: &Expr) -> f64 {
    match e {
        Expr::Bool(b, _) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Not(inner, _) => 1.0 - p_true(inner),
        Expr::And(parts, _) => parts.iter().map(p_true).product(),
        Expr::Or(parts, _) => 1.0 - parts.iter().map(|p| 1.0 - p_true(p)).product::<f64>(),
        Expr::Cmp(op, l, r, _) => match op {
            // Window neighbors share a sort key, but full-field equality is
            // still the most selective common predicate.
            CmpOp::Eq => {
                if matches!(**l, Expr::Str(..)) || matches!(**r, Expr::Str(..)) {
                    0.05
                } else {
                    0.08
                }
            }
            CmpOp::Ne => 0.9,
            // Threshold tests on similarity kernels.
            _ => 0.15,
        },
        Expr::Call(name, ..) => match name.as_str() {
            "is_empty" => 0.1,
            "nickname_eq" => 0.05,
            "digits_transposed" => 0.02,
            "initials_match" => 0.15,
            "soundex_eq" | "nysiis_eq" => 0.12,
            "differ_slightly" => 0.15,
            "contains" | "starts_with" => 0.2,
            _ => 0.5,
        },
        Expr::FieldRef(..) | Expr::Num(..) | Expr::Str(..) => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::employee::employee_program;

    #[test]
    fn static_plan_keeps_rule_order_and_enables_cse() {
        let rules = employee_program();
        let plan = Plan::of(rules.ast());
        assert_eq!(plan.rule_order, (0..26).collect::<Vec<_>>());
        assert!(plan.cse);
        assert_eq!(plan.conjunct_orders.len(), 26);
    }

    #[test]
    fn conjunct_orders_are_permutations() {
        let rules = employee_program();
        let plan = Plan::of(rules.ast());
        for (rule, order) in rules.ast().rules.iter().zip(&plan.conjunct_orders) {
            let n = conjuncts(&rule.condition).len();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "rule {}", rule.name);
        }
    }

    #[test]
    fn cheap_equality_ordered_before_expensive_kernels() {
        // The paper's worked example. Its equalities and its `not is_empty`
        // are guards — decided by the cascade before the block runs — and
        // the conjunct order ranks what stays in the block, the two DP
        // kernels, by `cost / (1 − p)`.
        let rules = employee_program();
        let plan = Plan::of(rules.ast());
        let idx = rules
            .ast()
            .rules
            .iter()
            .position(|r| r.name == "same_last_close_first_same_address")
            .unwrap();
        let parts = conjuncts(&rules.ast().rules[idx].condition);
        let guards: Vec<usize> = (0..parts.len())
            .filter(|&c| guard_of(parts[c]).is_some())
            .collect();
        // Source conjuncts: last_name ==, not is_empty(last_name),
        // differ_slightly(first_name), street_number ==, edit_sim(street).
        assert_eq!(guards, vec![0, 1, 3]);
        assert!(
            !guard_of(parts[1]).unwrap().want,
            "`not is_empty` wants false"
        );
        let residual: Vec<usize> = plan
            .conjunct_order(idx)
            .iter()
            .copied()
            .filter(|c| !guards.contains(c))
            .collect();
        let rank = |c: usize| expr_cost(parts[c]) / (1.0 - p_true(parts[c]));
        // differ_slightly costs 64, edit_sim(..) >= t costs 64 + 2.
        assert_eq!(residual, vec![2, 4]);
        assert!(rank(2) < rank(4));
    }

    #[test]
    fn guards_are_cheap_tests_of_raw_operands_only() {
        let cond = |src: &str| {
            let program = crate::parser::parse(&format!("rule r {{ when {src} then match }}"));
            program.unwrap().rules.remove(0).condition
        };
        let kind = |src: &str| guard_of(&cond(src)).map(|g| (g.kind, g.want));
        assert_eq!(
            kind("r1.first_name == r2.middle_initial"),
            Some((GuardKind::StrEq, true))
        );
        assert_eq!(
            kind("r1.city != \"AUSTIN\""),
            Some((GuardKind::StrEq, false))
        );
        assert_eq!(
            kind("not not is_empty(r2.zip)"),
            Some((GuardKind::IsEmpty, true))
        );
        assert_eq!(
            kind("not digits_transposed(r1.ssn, r2.ssn)"),
            Some((GuardKind::DigitsTransposed, false))
        );
        assert_eq!(
            kind("initials_match(r1.first_name, r2.first_name)"),
            Some((GuardKind::InitialsMatch, true))
        );
        // Temp-string operands, costlier kernels, and anything under `or`.
        assert_eq!(kind("prefix(r1.ssn, 3) == prefix(r2.ssn, 3)"), None);
        assert_eq!(kind("is_empty(suffix(r1.ssn, 3))"), None);
        assert_eq!(kind("soundex_eq(r1.city, r2.city)"), None);
        assert_eq!(kind("len(r1.city) == len(r2.city)"), None);
        assert_eq!(kind("is_empty(r1.city) == is_empty(r2.city)"), None);
        assert_eq!(kind("r1.city == r2.city or is_empty(r1.city)"), None);
    }

    #[test]
    fn stats_reorder_rules_by_firing_counts() {
        let rules = employee_program();
        let mut fired = vec![0u64; 26];
        fired[7] = 100;
        fired[3] = 50;
        let plan = Plan::with_stats(
            rules.ast(),
            &PlanStats {
                fired,
                misses: 1_000,
            },
        );
        assert_eq!(plan.rule_order[0], 7);
        assert_eq!(plan.rule_order[1], 3);
        // The remaining (all-zero) rules keep source order.
        let rest: Vec<usize> = plan.rule_order[2..].to_vec();
        let expected: Vec<usize> = (0..26).filter(|&i| i != 7 && i != 3).collect();
        assert_eq!(rest, expected);
    }

    #[test]
    fn calibrated_on_empty_sample_is_static_plan() {
        let rules = employee_program();
        assert_eq!(Plan::calibrated(&rules, &[]), Plan::of(rules.ast()));
    }
}
