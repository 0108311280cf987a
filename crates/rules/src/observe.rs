//! Rule-level attribution: a wrapper theory that counts which rule fired.
//!
//! The paper tuned its 26-rule theory by looking at which rules actually
//! decided equivalences (§2.3). [`RuleFiringCounter`] makes that observable
//! in any run: it wraps an [`EquationalTheory`] and, on every evaluation,
//! records which rule (by index) fired first — or that none did — into
//! lock-free atomic counters shared across worker threads. Each thread
//! bumps tallies of its own, on cache lines of their own, so threads
//! scanning side by side never contend for one line; reads sum the
//! shards.

use crate::{EquationalTheory, Projection};
use mp_record::Record;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Wraps a theory and counts per-rule firings and misses.
///
/// The wrapped theory's `matches` becomes `matching_rule_id(..).is_some()`,
/// so engines that only ask the boolean question still feed the counters.
/// Because rule lists are ordered first-match-wins disjunctions, a firing
/// of rule `i` also means rules `i+1..R` were never evaluated for that pair
/// — [`RuleFiringCounter::conditions_short_circuited`] totals those saved
/// evaluations.
///
/// ```
/// use mp_rules::{observe::RuleFiringCounter, EquationalTheory, NativeEmployeeTheory};
/// use mp_record::{Record, RecordId};
///
/// let counted = RuleFiringCounter::new(NativeEmployeeTheory::new());
/// let mut a = Record::empty(RecordId(0));
/// a.ssn = "123456789".into();
/// a.last_name = "SMITH".into();
/// let mut b = a.clone();
/// b.last_name = "SMYTH".into();
/// assert!(counted.matches(&a, &b)); // fires rule 0: exact_ssn_close_last
/// assert_eq!(counted.fired()[0], 1);
/// assert_eq!(counted.misses(), 0);
/// ```
pub struct RuleFiringCounter<T> {
    inner: T,
    rules: usize,
    /// [`SHARDS`] shards of `lines_per_shard` cache lines each; a shard's
    /// tallies are `fired` in rule order, then `misses`.
    lines: Box<[Line]>,
    lines_per_shard: usize,
}

/// One cache line of tallies.
#[repr(align(64))]
#[derive(Default)]
struct Line([AtomicU64; 8]);

/// How many threads can count without sharing a line; a thread past that
/// many shares its shard with an earlier one (still exact, just slower).
const SHARDS: usize = 32;

/// The shard the calling thread counts into: handed out in the order
/// threads first count, once per thread.
fn shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

impl<T: EquationalTheory> RuleFiringCounter<T> {
    /// Wraps `inner`, with one counter per rule.
    pub fn new(inner: T) -> Self {
        let rules = inner.rule_names().len();
        let lines_per_shard = (rules + 1).div_ceil(8);
        RuleFiringCounter {
            inner,
            rules,
            lines: (0..SHARDS * lines_per_shard)
                .map(|_| Line::default())
                .collect(),
            lines_per_shard,
        }
    }

    /// Tally `i` (a rule, or `rules` for misses) of shard `s`.
    fn tally(&self, s: usize, i: usize) -> &AtomicU64 {
        &self.lines[s * self.lines_per_shard + i / 8].0[i % 8]
    }

    /// Tally `i` summed over every shard.
    fn total(&self, i: usize) -> u64 {
        (0..SHARDS)
            .map(|s| self.tally(s, i).load(Ordering::Relaxed))
            .sum()
    }

    /// Counts one evaluation whose first firing rule was `id`.
    ///
    /// # Panics
    ///
    /// When `id` names no rule of the wrapped theory.
    fn note(&self, id: Option<usize>) {
        let i = id.unwrap_or(self.rules);
        assert!(i <= self.rules, "rule {i} of a {}-rule theory", self.rules);
        self.tally(shard(), i).fetch_add(1, Ordering::Relaxed);
    }

    /// The wrapped theory.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Firing counts in rule order.
    pub fn fired(&self) -> Vec<u64> {
        (0..self.rules).map(|i| self.total(i)).collect()
    }

    /// Evaluations where no rule fired.
    pub fn misses(&self) -> u64 {
        self.total(self.rules)
    }

    /// Total evaluations observed (firings + misses).
    pub fn evaluations(&self) -> u64 {
        self.fired().iter().sum::<u64>() + self.misses()
    }

    /// Rule conditions never evaluated because an earlier rule fired first:
    /// Σ over rules `fired[i] · (R − 1 − i)`.
    pub fn conditions_short_circuited(&self) -> u64 {
        let r = self.rules as u64;
        self.fired()
            .iter()
            .enumerate()
            .map(|(i, &n)| n * (r - 1 - i as u64))
            .sum()
    }
}

impl<T: EquationalTheory> EquationalTheory for RuleFiringCounter<T> {
    fn matches(&self, a: &Record, b: &Record) -> bool {
        self.matching_rule_id(a, b).is_some()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn matching_rule_id(&self, a: &Record, b: &Record) -> Option<usize> {
        let id = self.inner.matching_rule_id(a, b);
        self.note(id);
        id
    }

    fn rule_names(&self) -> Vec<String> {
        self.inner.rule_names()
    }

    fn projection(&self) -> Option<&Projection> {
        self.inner.projection()
    }

    fn projected_misses(&self, pairs: u64) {
        self.tally(shard(), self.rules)
            .fetch_add(pairs, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NativeEmployeeTheory;
    use mp_record::RecordId;

    fn ssn_pair() -> (Record, Record) {
        let mut a = Record::empty(RecordId(0));
        a.ssn = "123456789".into();
        a.last_name = "SMITH".into();
        let mut b = a.clone();
        b.id = RecordId(1);
        b.last_name = "SMYTH".into();
        (a, b)
    }

    #[test]
    fn counts_firings_misses_and_short_circuits() {
        let t = RuleFiringCounter::new(NativeEmployeeTheory::new());
        let (a, b) = ssn_pair();
        assert!(t.matches(&a, &b));
        assert!(t.matches(&a, &b));
        let stranger = Record::empty(RecordId(2));
        assert!(!t.matches(&a, &stranger));
        let fired = t.fired();
        assert_eq!(fired.len(), 26);
        assert_eq!(fired[0], 2, "exact_ssn_close_last fired twice");
        assert_eq!(fired[1..].iter().sum::<u64>(), 0);
        assert_eq!(t.misses(), 1);
        assert_eq!(t.evaluations(), 3);
        // Rule 0 firing twice skips rules 1..=25 twice.
        assert_eq!(t.conditions_short_circuited(), 2 * 25);
    }

    #[test]
    fn counting_is_thread_safe() {
        let t = RuleFiringCounter::new(NativeEmployeeTheory::new());
        let (a, b) = ssn_pair();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (t, a, b) = (&t, &a, &b);
                scope.spawn(move || {
                    for _ in 0..500 {
                        assert!(t.matches(a, b));
                    }
                });
            }
        });
        assert_eq!(t.fired()[0], 2_000);
        assert_eq!(t.evaluations(), 2_000);
    }

    #[test]
    fn default_theory_view_is_single_anonymous_rule() {
        struct AlwaysNo;
        impl EquationalTheory for AlwaysNo {
            fn matches(&self, _: &Record, _: &Record) -> bool {
                false
            }
            fn name(&self) -> &str {
                "always-no"
            }
        }
        let t = RuleFiringCounter::new(AlwaysNo);
        assert_eq!(t.rule_names(), vec!["always-no".to_string()]);
        let a = Record::empty(RecordId(0));
        assert!(!t.matches(&a, &a));
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn threads_counting_side_by_side_sum_to_the_single_thread_tallies() {
        use mp_datagen::{DatabaseGenerator, GeneratorConfig};
        let db = DatabaseGenerator::new(GeneratorConfig::new(400).duplicate_fraction(0.5).seed(9))
            .generate();
        // Neighbours in id order plus every duplicate with its original:
        // misses and firings of several rules.
        let mut pairs: Vec<(usize, usize)> = (1..db.records.len()).map(|i| (i - 1, i)).collect();
        for (i, a) in db.records.iter().enumerate() {
            for (j, b) in db.records.iter().enumerate().skip(i + 1) {
                if db.truth.same_entity(a, b) {
                    pairs.push((i, j));
                }
            }
        }
        let evaluate = |t: &RuleFiringCounter<NativeEmployeeTheory>| {
            for &(i, j) in &pairs {
                t.matches(&db.records[i], &db.records[j]);
            }
        };
        let one = RuleFiringCounter::new(NativeEmployeeTheory::new());
        evaluate(&one);
        assert!(one.fired().iter().filter(|&&n| n > 0).count() > 1);
        assert!(one.misses() > 0);

        let threads = 6;
        let many = RuleFiringCounter::new(NativeEmployeeTheory::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| evaluate(&many));
            }
        });
        let times = |v: Vec<u64>| v.into_iter().map(|n| n * threads).collect::<Vec<_>>();
        assert_eq!(many.fired(), times(one.fired()));
        assert_eq!(many.misses(), one.misses() * threads);
        assert_eq!(many.evaluations(), one.evaluations() * threads);
        assert_eq!(
            many.conditions_short_circuited(),
            one.conditions_short_circuited() * threads
        );
    }
}
