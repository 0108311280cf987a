//! The employee theory the product runs by default.
//!
//! The paper recoded its OPS5 rules "directly in C to obtain speed-up over
//! the OPS5 implementation" (§2.3, footnote 2). Here the rule compiler takes
//! that step: [`NativeEmployeeTheory`] is [`EMPLOYEE_RULES_SRC`] compiled
//! under the static plan ([`crate::Plan::of`]), with no calibration, so its
//! decisions, rule names and guard-cascade projection are the compiled
//! program's. Only its reported name differs: `native-employee`.

use crate::{CompiledTheory, EquationalTheory, Projection, EMPLOYEE_RULES_SRC};
use mp_record::Record;

/// The 26-rule employee theory, compiled and statically planned.
///
/// ```
/// use mp_rules::{EquationalTheory, NativeEmployeeTheory};
/// use mp_record::{Record, RecordId};
/// let theory = NativeEmployeeTheory::new();
/// let mut a = Record::empty(RecordId(0));
/// a.ssn = "123456789".into();
/// a.last_name = "SMITH".into();
/// let mut b = a.clone();
/// b.last_name = "SMYTH".into();
/// assert!(theory.matches(&a, &b)); // exact_ssn_close_last
/// ```
pub struct NativeEmployeeTheory(CompiledTheory);

impl NativeEmployeeTheory {
    /// [`EMPLOYEE_RULES_SRC`] under the static plan, with the standard
    /// nickname table.
    pub fn new() -> Self {
        NativeEmployeeTheory(
            CompiledTheory::compile(EMPLOYEE_RULES_SRC)
                .expect("the built-in employee theory compiles"),
        )
    }
}

impl Default for NativeEmployeeTheory {
    fn default() -> Self {
        Self::new()
    }
}

impl EquationalTheory for NativeEmployeeTheory {
    fn matches(&self, a: &Record, b: &Record) -> bool {
        self.0.matches(a, b)
    }

    fn name(&self) -> &str {
        "native-employee"
    }

    fn matching_rule_id(&self, a: &Record, b: &Record) -> Option<usize> {
        self.0.matching_rule_id(a, b)
    }

    fn rule_names(&self) -> Vec<String> {
        self.0.rule_names()
    }

    fn projection(&self) -> Option<&Projection> {
        self.0.projection()
    }

    fn projected_misses(&self, pairs: u64) {
        self.0.projected_misses(pairs)
    }
}
