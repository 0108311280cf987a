//! The merge-phase-fused variant of the sorted-neighborhood method.
//!
//! §2.2: "In \[9\], we describe the sorted-neighborhood method as a
//! generalization of band joins and provide an alternative algorithm ...
//! based on the *duplicate elimination* algorithm described in [Bitton &
//! DeWitt 83]. This duplicate elimination algorithm takes advantage of the
//! fact that 'matching' records will come together during different phases
//! of the Sort phase."
//!
//! [`MergeScanSnm`] implements that idea: a bottom-up merge sort where
//! *every* merge level window-scans its output as it is produced. The last
//! level's output is the fully sorted list, so its scan alone reproduces
//! the classic sorted-neighborhood result exactly; the scans of earlier
//! levels see intermediate orders in which some matching records are
//! *closer* than in the final order (they may later drift apart beyond the
//! window), so the union strictly dominates the classic method's recall at
//! equal window size — at the cost of extra comparisons per level.

use merge_purge::snm::{PassRun, Scanned};
use merge_purge::{radix_order_by, KeyArena, KeySpec, PassResult};
use mp_metrics::{span, NoopObserver, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;

/// Sorted-neighborhood with window scanning fused into every merge level.
///
/// ```
/// use merge_purge::{KeySpec, SortedNeighborhood};
/// use mp_paper::MergeScanSnm;
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let db = DatabaseGenerator::new(GeneratorConfig::new(400).seed(3)).generate();
/// let theory = NativeEmployeeTheory::new();
/// let classic = SortedNeighborhood::new(KeySpec::last_name_key(), 8).run(&db.records, &theory);
/// let fused = MergeScanSnm::new(KeySpec::last_name_key(), 8).run(&db.records, &theory);
/// // Everything the classic pass finds, the fused pass finds too.
/// assert!(classic.pairs.iter().all(|(a, b)| fused.pairs.contains(a, b)));
/// ```
#[derive(Debug, Clone)]
pub struct MergeScanSnm {
    key: KeySpec,
    window: usize,
    /// Initial run length for the bottom-up sort (runs are sorted in
    /// memory, then merged pairwise level by level).
    run_length: usize,
}

impl MergeScanSnm {
    /// A fused pass with the given key and window (initial run length
    /// defaults to `64`, a few windows' worth).
    ///
    /// # Panics
    ///
    /// Panics when `window < 2`.
    pub fn new(key: KeySpec, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        MergeScanSnm {
            key,
            window,
            run_length: 64,
        }
    }

    /// Overrides the initial run length (must be ≥ 2).
    #[must_use]
    pub fn run_length(mut self, run_length: usize) -> Self {
        assert!(run_length >= 2, "run length must be at least 2");
        self.run_length = run_length;
        self
    }

    /// Runs the fused sort+scan over `records`.
    pub fn run(&self, records: &[Record], theory: &dyn EquationalTheory) -> PassResult {
        self.run_observed(records, theory, &NoopObserver)
    }

    /// Like [`MergeScanSnm::run`], reporting counters and phase timings to
    /// `observer`. The fused sort+scan reports as [`mp_metrics::Phase::WindowScan`]
    /// (its sorting work is inseparable from its scanning).
    pub fn run_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        let mut pass = PassRun::begin(observer, &self.key, self.window, " merge-fused");
        let keys = pass.keys(records.len(), || KeyArena::extract(&self.key, records));

        // Sort and scan fused: a bottom-up merge sort in which the initial
        // runs and every merge level's output are window-scanned.
        pass.scan(theory, |window| {
            let _s = span(observer, "window_scan");
            let mut out = Scanned::default();
            let mut scan = |run: &[u32]| {
                window.band(records, run, 0..run.len(), &mut out.pairs, &mut out.counts);
            };
            let n = records.len();
            let mut runs: Vec<Vec<u32>> = (0..n)
                .step_by(self.run_length)
                .map(|start| {
                    let end = (start + self.run_length).min(n);
                    let by_key = radix_order_by(end - start, |i| keys.get(start + i));
                    let run: Vec<u32> = by_key.order.iter().map(|&i| start as u32 + i).collect();
                    scan(&run);
                    run
                })
                .collect();
            while runs.len() > 1 {
                let mut next = Vec::with_capacity(runs.len().div_ceil(2));
                let mut iter = runs.into_iter();
                while let Some(a) = iter.next() {
                    match iter.next() {
                        Some(b) => {
                            // Runs are formed left to right, so `a`'s ids
                            // precede `b`'s and ties prefer `a`: stable.
                            let merged = merge_sorted(&a, &b, |x, y| {
                                keys.get(x as usize) <= keys.get(y as usize)
                            });
                            scan(&merged);
                            next.push(merged);
                        }
                        None => next.push(a),
                    }
                }
                runs = next;
            }
            out.worker_comparisons = vec![out.counts.comparisons];
            out
        })
    }
}

/// Stable two-way merge of index runs that are each sorted under `le`
/// ("not after"): ties take from `a` first.
fn merge_sorted(a: &[u32], b: &[u32], le: impl Fn(u32, u32) -> bool) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if le(a[i], b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use merge_purge::SortedNeighborhood;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;

    fn db(n: usize, seed: u64) -> mp_datagen::GeneratedDatabase {
        DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate()
    }

    #[test]
    fn superset_of_classic_snm() {
        let db = db(600, 8801);
        let theory = NativeEmployeeTheory::new();
        for w in [4usize, 10] {
            let classic =
                SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
            let fused = MergeScanSnm::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
            for (a, b) in classic.pairs.iter() {
                assert!(fused.pairs.contains(a, b), "missing classic pair w={w}");
            }
            assert!(fused.pairs.len() >= classic.pairs.len());
        }
    }

    #[test]
    fn finds_strictly_more_with_enough_duplication() {
        // With heavy duplication and a small window, intermediate orders
        // catch pairs the final order separates.
        let db = db(1_500, 8802);
        let theory = NativeEmployeeTheory::new();
        let w = 3;
        let classic =
            SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
        let fused = MergeScanSnm::new(KeySpec::last_name_key(), w)
            .run_length(16)
            .run(&db.records, &theory);
        assert!(
            fused.pairs.len() > classic.pairs.len(),
            "fused {} vs classic {}",
            fused.pairs.len(),
            classic.pairs.len()
        );
    }

    #[test]
    fn costs_more_comparisons_per_level() {
        let db = db(500, 8803);
        let theory = NativeEmployeeTheory::new();
        let w = 6;
        let classic =
            SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
        let fused = MergeScanSnm::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
        assert!(fused.stats.comparisons > classic.stats.comparisons);
        // Bounded by levels: ~log2(N/run_length)+1 full scans.
        let levels = ((db.records.len() as f64 / 64.0).log2().ceil() + 1.0) as u64;
        assert!(fused.stats.comparisons <= classic.stats.comparisons * (levels + 1));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let theory = NativeEmployeeTheory::new();
        let fused = MergeScanSnm::new(KeySpec::last_name_key(), 4).run(&[], &theory);
        assert!(fused.pairs.is_empty());
        // Exactly one record (no duplication) must produce zero comparisons.
        let one =
            DatabaseGenerator::new(GeneratorConfig::new(1).duplicate_fraction(0.0).seed(8804))
                .generate();
        assert_eq!(one.records.len(), 1);
        let fused = MergeScanSnm::new(KeySpec::last_name_key(), 4).run(&one.records, &theory);
        assert_eq!(fused.stats.comparisons, 0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_run_length_rejected() {
        let _ = MergeScanSnm::new(KeySpec::last_name_key(), 4).run_length(1);
    }
}
