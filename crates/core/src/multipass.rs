//! The multi-pass approach (§2.4): independent runs with different keys and
//! small windows, unioned by transitive closure.

use crate::banded::per_core;
use crate::key::KeySpec;
use crate::snm::{PassResult, SortedNeighborhood};
use mp_closure::{PairSet, UnionFind};
use mp_metrics::{
    span, AttributionReport, Counter, NoopObserver, PassAttribution, Phase, PipelineObserver,
};
use mp_record::Record;
use mp_rules::EquationalTheory;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Result of a multi-pass run.
#[derive(Debug, Clone)]
pub struct MultiPassResult {
    /// Per-pass results, in configuration order.
    pub passes: Vec<PassResult>,
    /// Union of all pass pairs *plus* transitively inferred pairs.
    pub closed_pairs: PairSet,
    /// Equivalence classes (each a sorted list of record ids, ≥ 2 members).
    pub classes: Vec<Vec<u32>>,
    /// Time spent computing the transitive closure.
    pub closure_time: Duration,
    /// Per-pass provenance: which pass first found each matched pair, and
    /// how many pairs each pass contributed that no other pass found.
    pub attribution: AttributionReport,
}

impl MultiPassResult {
    /// Runs the purge phase over this result's classes: each duplicate
    /// group collapses to one survivor under `purger`, everything else
    /// passes through, ids renumbered.
    pub fn purge(&self, records: &[Record], purger: &crate::purge::Purger) -> Vec<Record> {
        purger.purge(records, &self.classes)
    }

    /// Pairs found by at least one pass, before the closure added inferred
    /// pairs.
    pub fn union_pair_count(&self) -> usize {
        let mut union = PairSet::new();
        for p in &self.passes {
            union.merge(&p.pairs);
        }
        union.len()
    }
}

/// A configured multi-pass run.
///
/// "Execute several independent runs of the sorted neighborhood method,
/// each time using a different key and a relatively small window ... then
/// apply the transitive closure to those pairs of records" (§2.4).
///
/// ```
/// use merge_purge::{KeySpec, MultiPass};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let db = DatabaseGenerator::new(GeneratorConfig::new(300).seed(9)).generate();
/// let mp = MultiPass::standard_three(10);
/// let result = mp.run(&db.records, &NativeEmployeeTheory::new());
/// assert!(result.closed_pairs.len() >= result.union_pair_count());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultiPass {
    passes: Vec<SortedNeighborhood>,
    prune: bool,
}

impl MultiPass {
    /// An empty multi-pass run; add passes with [`MultiPass::sorted`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables closure-aware pruning: one union-find is threaded through
    /// every pass in order, so window pairs whose records are already in
    /// the same equivalence class — whether connected earlier in the same
    /// pass or by any previous pass — skip rule evaluation entirely.
    ///
    /// Pruning changes no closed pair (the closure over emitted matches is
    /// identical — the pruned pairs' endpoints are already connected via
    /// previously emitted matches). Per-pass `pairs`/`matches` counts
    /// shrink, [`mp_metrics::Counter::RuleInvocations`] drops, and the
    /// skipped work is reported as [`mp_metrics::Counter::PairsPruned`].
    /// [`mp_metrics::Counter::Comparisons`] still counts every window
    /// candidate, keeping the §3.5 closed form exact.
    ///
    /// Off by default; the [`crate::MergePurge`] pipeline turns it on.
    pub fn with_pruning(mut self) -> Self {
        self.prune = true;
        self
    }

    /// Adds a sorted-neighborhood pass.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2`.
    pub fn sorted(mut self, key: KeySpec, window: usize) -> Self {
        self.passes.push(SortedNeighborhood::new(key, window));
        self
    }

    /// The paper's three standard passes (last name, first name, address)
    /// with a common window size.
    pub fn standard_three(window: usize) -> Self {
        let mut mp = MultiPass::new();
        for key in KeySpec::standard_three() {
            mp = mp.sorted(key, window);
        }
        mp
    }

    /// Runs every pass serially, then computes the transitive closure.
    ///
    /// # Panics
    ///
    /// Panics when no passes are configured.
    pub fn run(&self, records: &[Record], theory: &dyn EquationalTheory) -> MultiPassResult {
        self.run_observed(records, theory, &NoopObserver)
    }

    /// Like [`MultiPass::run`], reporting per-pass counters, phase timings,
    /// and closure statistics to `observer`.
    ///
    /// # Panics
    ///
    /// Panics when no passes are configured.
    pub fn run_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> MultiPassResult {
        assert!(
            !self.passes.is_empty(),
            "multi-pass run needs at least one pass"
        );
        let mut uf = self.prune.then(|| UnionFind::new(records.len()));
        let passes: Vec<PassResult> = self
            .passes
            .iter()
            .map(|p| p.run_in_bands(records, theory, uf.as_mut(), observer, per_core()))
            .collect();
        let result = Self::close_observed(records.len(), passes, observer);
        observer.run_complete();
        result
    }

    /// Computes the closure over already-executed passes (used by the
    /// parallel engine, which runs passes concurrently).
    pub fn close(universe: usize, passes: Vec<PassResult>) -> MultiPassResult {
        Self::close_observed(universe, passes, &NoopObserver)
    }

    /// Like [`MultiPass::close`], reporting closure statistics: input pair
    /// instances, pairs discarded as redundant (already connected — the
    /// cross-pass duplicates and transitively implied pairs), the closed
    /// pair count, and closure time.
    pub fn close_observed(
        universe: usize,
        passes: Vec<PassResult>,
        observer: &dyn PipelineObserver,
    ) -> MultiPassResult {
        let t0 = Instant::now();
        let _closure_span = span(observer, "closure_merge");
        let mut uf = UnionFind::new(universe);
        let mut input_pairs = 0u64;
        let mut redundant_pairs = 0u64;
        // Provenance: for every distinct matched pair, the earliest pass
        // that found it and how many passes found it in total.
        let mut provenance: HashMap<u64, (u32, u32)> = HashMap::new();
        for (pass_idx, p) in passes.iter().enumerate() {
            for (a, b) in p.pairs.iter() {
                input_pairs += 1;
                if !uf.union(a, b) {
                    redundant_pairs += 1;
                }
                let entry = provenance
                    .entry((u64::from(a) << 32) | u64::from(b))
                    .or_insert((pass_idx as u32, 0));
                entry.1 += 1;
            }
        }
        let classes = uf.classes();
        let mut closed_pairs = PairSet::with_capacity(passes.iter().map(|p| p.pairs.len()).sum());
        for class in &classes {
            for i in 0..class.len() {
                for j in i + 1..class.len() {
                    closed_pairs.insert(class[i], class[j]);
                }
            }
        }
        let mut attribution = AttributionReport {
            passes: passes
                .iter()
                .enumerate()
                .map(|(i, p)| PassAttribution {
                    pass: i,
                    key: p.key_name.clone(),
                    window: p.window,
                    pairs_found: p.pairs.len() as u64,
                    pairs_first_found: 0,
                    pairs_unique: 0,
                })
                .collect(),
            distinct_matched_pairs: provenance.len() as u64,
            closure_inferred_pairs: closed_pairs.len() as u64 - provenance.len() as u64,
        };
        for &(first, occurrences) in provenance.values() {
            let pa = &mut attribution.passes[first as usize];
            pa.pairs_first_found += 1;
            if occurrences == 1 {
                pa.pairs_unique += 1;
            }
        }
        drop(_closure_span);
        let closure_time = t0.elapsed();
        observer.add(Counter::ClosureInputPairs, input_pairs);
        observer.add(Counter::ClosureDedupedPairs, redundant_pairs);
        observer.add(Counter::ClosedPairs, closed_pairs.len() as u64);
        observer.phase_ns(Phase::Closure, closure_time.as_nanos() as u64);
        MultiPassResult {
            passes,
            closed_pairs,
            classes,
            closure_time,
            attribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;

    fn db(n: usize, seed: u64) -> mp_datagen::GeneratedDatabase {
        DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate()
    }

    fn count_true(pairs: &PairSet, db: &mp_datagen::GeneratedDatabase) -> usize {
        pairs
            .iter()
            .filter(|&(a, b)| {
                db.truth
                    .same_entity(&db.records[a as usize], &db.records[b as usize])
            })
            .count()
    }

    #[test]
    fn multipass_beats_every_single_pass() {
        // The paper's core claim, at small scale.
        let db = db(800, 51);
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::standard_three(10).run(&db.records, &theory);
        let multi_true = count_true(&result.closed_pairs, &db);
        for pass in &result.passes {
            let single_true = count_true(&pass.pairs, &db);
            assert!(
                multi_true >= single_true,
                "multi {multi_true} < single {single_true} ({})",
                pass.key_name
            );
        }
        assert!(multi_true > 0);
    }

    #[test]
    fn closure_adds_inferred_pairs() {
        let db = db(600, 52);
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::standard_three(10).run(&db.records, &theory);
        assert!(result.closed_pairs.len() >= result.union_pair_count());
        // Classes expand to exactly the closed pairs.
        let from_classes: usize = result
            .classes
            .iter()
            .map(|c| c.len() * (c.len() - 1) / 2)
            .sum();
        assert_eq!(from_classes, result.closed_pairs.len());
    }

    #[test]
    fn single_pass_multipass_equals_that_pass_closed() {
        let db = db(200, 54);
        let theory = NativeEmployeeTheory::new();
        let mp = MultiPass::new().sorted(KeySpec::last_name_key(), 6);
        let result = mp.run(&db.records, &theory);
        // Closure can only add pairs within classes found by the one pass.
        assert!(result.closed_pairs.len() >= result.passes[0].pairs.len());
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn empty_multipass_rejected() {
        MultiPass::new().run(&[], &NativeEmployeeTheory::new());
    }

    #[test]
    fn pruned_multipass_same_closure_fewer_evaluations() {
        let db = db(700, 55);
        let theory = NativeEmployeeTheory::new();
        let plain = MultiPass::standard_three(10).run(&db.records, &theory);
        let pruned = MultiPass::standard_three(10)
            .with_pruning()
            .run(&db.records, &theory);

        // Identical candidate work and identical final answer.
        let sum = |r: &MultiPassResult, f: fn(&crate::PassStats) -> u64| -> u64 {
            r.passes.iter().map(|p| f(&p.stats)).sum()
        };
        assert_eq!(
            sum(&plain, |s| s.comparisons),
            sum(&pruned, |s| s.comparisons)
        );
        assert_eq!(plain.closed_pairs.sorted(), pruned.closed_pairs.sorted());
        assert_eq!(plain.classes, pruned.classes);

        // Strictly less rule work: cross-pass rediscoveries alone guarantee
        // pruning on a 50%-duplicate database.
        let pruned_evals = sum(&pruned, |s| s.rule_evaluations);
        let pruned_skips = sum(&pruned, |s| s.pairs_pruned);
        assert!(pruned_skips > 0, "expected cross-pass pruning");
        assert!(pruned_evals < sum(&plain, |s| s.rule_evaluations));
        assert_eq!(pruned_evals + pruned_skips, sum(&pruned, |s| s.comparisons));
    }

    #[test]
    fn attribution_accounts_for_every_distinct_pair() {
        let db = db(700, 57);
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::standard_three(10).run(&db.records, &theory);
        let attr = &result.attribution;
        assert_eq!(attr.passes.len(), 3);
        assert_eq!(attr.passes[0].key, "last-name");
        assert_eq!(attr.passes[0].window, 10);

        // First-found counts partition the distinct pair set.
        let first_found: u64 = attr.passes.iter().map(|p| p.pairs_first_found).sum();
        assert_eq!(first_found, attr.distinct_matched_pairs);
        assert_eq!(
            attr.distinct_matched_pairs,
            result.union_pair_count() as u64
        );
        assert_eq!(
            attr.closure_inferred_pairs,
            result.closed_pairs.len() as u64 - attr.distinct_matched_pairs
        );
        for p in &attr.passes {
            assert!(p.pairs_unique <= p.pairs_first_found);
            assert!(p.pairs_first_found <= p.pairs_found);
        }
        // Pass 0 is first in order, so everything it found it found first.
        assert_eq!(attr.passes[0].pairs_first_found, attr.passes[0].pairs_found);
        // With three different keys some overlap and some unique finds are
        // both expected on a 50%-duplicate database.
        assert!(attr.passes.iter().any(|p| p.pairs_unique > 0));
        assert!(attr
            .passes
            .iter()
            .any(|p| p.pairs_unique < p.pairs_found || p.pairs_first_found < p.pairs_found));
    }

    #[test]
    fn pruned_attribution_is_disjoint_by_construction() {
        // Under pruning a pair reaching a later pass would have been pruned
        // if any earlier pass had connected its records, so every emitted
        // pair is first-found and unique.
        let db = db(500, 58);
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::standard_three(10)
            .with_pruning()
            .run(&db.records, &theory);
        for p in &result.attribution.passes {
            assert_eq!(p.pairs_found, p.pairs_first_found);
            assert_eq!(p.pairs_found, p.pairs_unique);
        }
    }
}
