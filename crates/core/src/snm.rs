//! The sorted-neighborhood method (§2.2): create keys → sort → window scan
//! — and the pass scaffold ([`PassRun`]) every in-memory engine runs on.

use crate::banded::{per_core, scan_in_bands};
use crate::key::{KeyArena, KeySpec};
use crate::radix::sorted_order_radix;
use crate::window::{ScanCounts, WindowScan};
use mp_closure::{PairSet, UnionFind};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, Phase, PipelineObserver, SpanGuard};
use mp_record::Record;
use mp_rules::EquationalTheory;
use std::time::{Duration, Instant};

/// Phase timings and counters for one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// Time to extract keys (the paper folds this into sorting; we track it
    /// separately and report the sum where the paper reports one number).
    pub create_keys: Duration,
    /// Time to sort the (key, record) list.
    pub sort: Duration,
    /// Time for the window-scan merge phase.
    pub window_scan: Duration,
    /// Candidate pair comparisons produced by the window scan (the §3.5
    /// `(w−1)(N − w/2)` quantity; unaffected by pruning).
    pub comparisons: u64,
    /// Pairs actually evaluated by the equational theory. Equals
    /// [`PassStats::comparisons`] on unpruned runs; lower when
    /// closure-aware pruning skipped already-connected pairs.
    pub rule_evaluations: u64,
    /// Candidate pairs skipped by closure-aware pruning (zero when the
    /// pass ran unpruned).
    pub pairs_pruned: u64,
    /// Matching pairs emitted (before closure, deduplicated).
    pub matches: usize,
}

impl PassStats {
    /// Total wall-clock of the pass.
    pub fn total(&self) -> Duration {
        self.create_keys + self.sort + self.window_scan
    }
}

/// Result of one sorted-neighborhood pass.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Key used for the pass.
    pub key_name: String,
    /// Window size used.
    pub window: usize,
    /// Deduplicated matching pairs found in the window scan.
    pub pairs: PairSet,
    /// Phase timings.
    pub stats: PassStats,
    /// Pair comparisons per band of the window scan (one entry when it ran
    /// in one band). The shared-nothing simulation uses the max/total ratio
    /// of this vector as the parallel scan makespan.
    pub worker_comparisons: Vec<u64>,
}

/// What an engine's scan phase hands back to [`PassRun::scan`].
#[derive(Debug, Default)]
pub struct Scanned {
    /// Deduplicated matching pairs.
    pub pairs: PairSet,
    /// The scan's work, summed over every segment and band.
    pub counts: ScanCounts,
    /// Comparisons per band (one entry for a scan in one band).
    pub worker_comparisons: Vec<u64>,
}

/// The scaffold of one pass: the `pass` span, per-phase spans and
/// [`PassStats`] timing, and the observer reports. An engine is the three
/// closures it hands to [`keys`](Self::keys), [`sort`](Self::sort) and
/// [`scan`](Self::scan) — how it produces ordered segments, and on how
/// many threads.
pub struct PassRun<'o> {
    observer: &'o dyn PipelineObserver,
    key_name: String,
    window: usize,
    stats: PassStats,
    _pass_span: Option<SpanGuard>,
}

impl<'o> PassRun<'o> {
    /// Opens the `pass` span, labelled `"<key> w=<window><variant>"`.
    pub fn begin(
        observer: &'o dyn PipelineObserver,
        key: &KeySpec,
        window: usize,
        variant: &str,
    ) -> Self {
        PassRun {
            observer,
            key_name: key.name().to_string(),
            window,
            stats: PassStats::default(),
            _pass_span: span_labeled(observer, "pass", || {
                format!("{} w={window}{variant}", key.name())
            }),
        }
    }

    /// Runs `work` under a `span_name` span and charges its time to `phase`.
    fn timed<T>(
        &self,
        phase: Phase,
        span_name: &'static str,
        work: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t = Instant::now();
        let done = {
            let _s = span(self.observer, span_name);
            work()
        };
        let took = t.elapsed();
        self.observer.phase_ns(phase, took.as_nanos() as u64);
        (done, took)
    }

    /// Phase 1: runs `build` (key extraction plus whatever partitioning
    /// the engine derives from the keys) for `records` records.
    pub fn keys<T>(&mut self, records: usize, build: impl FnOnce() -> T) -> T {
        let (built, took) = self.timed(Phase::CreateKeys, "key_build", build);
        self.stats.create_keys = took;
        self.observer.add(Counter::RecordsKeyed, records as u64);
        built
    }

    /// Phase 2: runs `sort`. Engines that sort inside their scan phase
    /// (merge-fused, parallel clustering) skip this call.
    pub fn sort<T>(&mut self, sort: impl FnOnce() -> T) -> T {
        let (sorted, took) = self.timed(Phase::Sort, "sort", sort);
        self.stats.sort = took;
        sorted
    }

    /// Phase 3: runs `scan` with the pass's [`WindowScan`] under `theory`,
    /// then reports the counters and closes the pass.
    pub fn scan(
        mut self,
        theory: &dyn EquationalTheory,
        scan: impl FnOnce(&WindowScan<'_>) -> Scanned,
    ) -> PassResult {
        let t = Instant::now();
        let scanned = scan(&WindowScan::new(self.window, theory, self.observer));
        self.stats.window_scan = t.elapsed();
        self.stats.comparisons = scanned.counts.comparisons;
        self.stats.rule_evaluations = scanned.counts.rule_evaluations;
        self.stats.pairs_pruned = scanned.counts.pairs_pruned;
        self.stats.matches = scanned.pairs.len();
        scanned.counts.report(self.observer);
        self.observer
            .add(Counter::Matches, self.stats.matches as u64);
        self.observer
            .phase_ns(Phase::WindowScan, self.stats.window_scan.as_nanos() as u64);
        PassResult {
            key_name: self.key_name,
            window: self.window,
            pairs: scanned.pairs,
            stats: self.stats,
            worker_comparisons: scanned.worker_comparisons,
        }
    }
}

/// One configured sorted-neighborhood pass.
///
/// ```
/// use merge_purge::{KeySpec, SortedNeighborhood};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let db = DatabaseGenerator::new(GeneratorConfig::new(300).seed(3)).generate();
/// let snm = SortedNeighborhood::new(KeySpec::last_name_key(), 10);
/// let result = snm.run(&db.records, &NativeEmployeeTheory::new());
/// assert!(result.pairs.len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SortedNeighborhood {
    key: KeySpec,
    window: usize,
}

impl SortedNeighborhood {
    /// A pass sorting on `key` and scanning with a `window`-record window.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2`.
    pub fn new(key: KeySpec, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        SortedNeighborhood { key, window }
    }

    /// Runs the three phases over `records` and returns the matched pairs.
    pub fn run(&self, records: &[Record], theory: &dyn EquationalTheory) -> PassResult {
        self.run_observed(records, theory, &NoopObserver)
    }

    /// Like [`SortedNeighborhood::run`], reporting counters and phase
    /// timings to `observer`. Counters are reported in bulk per phase, so
    /// observation adds no per-comparison work.
    pub fn run_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        self.run_pruned_observed(records, theory, None, observer)
    }

    /// Like [`SortedNeighborhood::run_observed`], with closure-aware
    /// pruning when a union-find is given: window pairs whose records are
    /// already connected in `uf` skip rule evaluation, and every match
    /// found is unioned into `uf`.
    ///
    /// Passing the same union-find across successive passes (as
    /// [`crate::MultiPass`] does when pruning is enabled) also prunes
    /// pairs rediscovered by a later pass. Candidate comparisons are
    /// counted identically to the unpruned run; only
    /// [`Counter::RuleInvocations`] shrinks, with the difference reported
    /// as [`Counter::PairsPruned`].
    ///
    /// The scan runs in one band per core and is folded back into exactly
    /// the serial scan's pairs, closure, counters and theory calls (see
    /// [`PrunedSink`](crate::window::PrunedSink)).
    pub fn run_pruned_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        uf: Option<&mut UnionFind>,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        self.run_in_bands(records, theory, uf, observer, per_core())
    }

    /// [`run_pruned_observed`](Self::run_pruned_observed) with the scan in
    /// `bands` bands (at most one per position). The result is the same on
    /// every band count; a multi-pass run scans in one band per core, and
    /// the parallel engines (§4) name their processor count here.
    #[doc(hidden)]
    pub fn run_in_bands(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        uf: Option<&mut UnionFind>,
        observer: &dyn PipelineObserver,
        bands: usize,
    ) -> PassResult {
        let mut pass = PassRun::begin(observer, &self.key, self.window, "");
        let keys = pass.keys(records.len(), || KeyArena::extract(&self.key, records));
        // Indices by key; stable, so equal keys keep input order and runs
        // are deterministic.
        let order = pass.sort(|| sorted_order_radix(&keys, observer));
        pass.scan(theory, |scan| {
            scan_in_bands(scan, records, &[&order], uf, observer, bands)
        })
    }
}

/// Stable comparison sort of record indices by key: the oracle the radix
/// property tests compare against.
#[cfg(test)]
pub(crate) fn sorted_order(keys: &KeyArena) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_by(|&a, &b| keys.get(a as usize).cmp(keys.get(b as usize)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_record::RecordId;
    use mp_rules::NativeEmployeeTheory;

    #[test]
    fn finds_duplicates_in_generated_data() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(400).duplicate_fraction(0.5).seed(31))
            .generate();
        let theory = NativeEmployeeTheory::new();
        let result =
            SortedNeighborhood::new(KeySpec::last_name_key(), 10).run(&db.records, &theory);
        // Some but not all true pairs are found by one pass (50-70% in the
        // paper; loose bounds here for a small DB).
        let truth = db.truth.true_pair_count();
        assert!(truth > 0);
        assert!(!result.pairs.is_empty(), "no pairs found");
        assert!(result.stats.comparisons > 0);
        assert_eq!(result.stats.matches, result.pairs.len());
        assert_eq!(result.key_name, "last-name");
    }

    #[test]
    fn wider_window_finds_at_least_as_much() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(300).duplicate_fraction(0.5).seed(32))
            .generate();
        let theory = NativeEmployeeTheory::new();
        let narrow = SortedNeighborhood::new(KeySpec::last_name_key(), 3).run(&db.records, &theory);
        let wide = SortedNeighborhood::new(KeySpec::last_name_key(), 20).run(&db.records, &theory);
        assert!(wide.pairs.len() >= narrow.pairs.len());
        // Every narrow pair is also found by the wide window.
        for (a, b) in narrow.pairs.iter() {
            assert!(wide.pairs.contains(a, b));
        }
        assert!(wide.stats.comparisons > narrow.stats.comparisons);
    }

    #[test]
    fn deterministic_across_runs() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(200).seed(33)).generate();
        let theory = NativeEmployeeTheory::new();
        let snm = SortedNeighborhood::new(KeySpec::first_name_key(), 5);
        let a = snm.run(&db.records, &theory);
        let b = snm.run(&db.records, &theory);
        assert_eq!(a.pairs.sorted(), b.pairs.sorted());
        assert_eq!(a.stats.comparisons, b.stats.comparisons);
    }

    #[test]
    fn empty_input_is_fine() {
        let theory = NativeEmployeeTheory::new();
        let result = SortedNeighborhood::new(KeySpec::last_name_key(), 4).run(&[], &theory);
        assert!(result.pairs.is_empty());
        assert_eq!(result.stats.comparisons, 0);
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let mut records = Vec::new();
        for i in 0..5u32 {
            let mut r = Record::empty(RecordId(i));
            r.last_name = "SAME".into();
            records.push(r);
        }
        let keys = KeyArena::extract(&KeySpec::last_name_key(), &records);
        assert_eq!(sorted_order(&keys), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_window_rejected() {
        SortedNeighborhood::new(KeySpec::last_name_key(), 1);
    }

    #[test]
    fn pruned_pass_same_closure_fewer_evaluations() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(500).duplicate_fraction(0.6).seed(34))
            .generate();
        let theory = NativeEmployeeTheory::new();
        let snm = SortedNeighborhood::new(KeySpec::last_name_key(), 12);
        let plain = snm.run(&db.records, &theory);

        let mut uf = UnionFind::new(db.records.len());
        let pruned = snm.run_pruned_observed(&db.records, &theory, Some(&mut uf), &NoopObserver);

        // Candidate comparisons identical; evaluations strictly fewer once
        // any window holds three mutually matching records.
        assert_eq!(pruned.stats.comparisons, plain.stats.comparisons);
        assert_eq!(
            pruned.stats.comparisons,
            pruned.stats.rule_evaluations + pruned.stats.pairs_pruned
        );
        assert!(pruned.stats.pairs_pruned > 0, "no pruning on a 60%-dup DB?");

        // The closure over emitted pairs is identical.
        let mut uf_plain = UnionFind::new(db.records.len());
        for (a, b) in plain.pairs.iter() {
            uf_plain.union(a, b);
        }
        assert_eq!(uf.classes(), uf_plain.classes());
    }
}
