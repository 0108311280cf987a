//! The parallel sorted-neighborhood method (§4.1).

use crate::{parallel_extract_keys, psort::parallel_sorted_order, scan_fragments};
use merge_purge::snm::PassRun;
use merge_purge::window::{FoundList, ScanCounts};
use merge_purge::{KeySpec, PassResult};
use mp_metrics::{span, Counter, NoopObserver, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;

/// Parallel sorted-neighborhood pass over `P` worker threads.
///
/// The sorted list is fragmented into `P` contiguous pieces; "the fragment
/// assigned to processor i should replicate the last w−1 records from the
/// fragment assigned to site i−1" so no cross-boundary pair is missed. Each
/// worker window-scans its fragment into a private found-list; the
/// coordinator folds the lists in fragment order. Fragments do not prune:
/// a worker cannot see the matches of the fragments before it.
///
/// ```
/// use mp_parallel::ParallelSnm;
/// use merge_purge::KeySpec;
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let db = DatabaseGenerator::new(GeneratorConfig::new(400).seed(8)).generate();
/// let psnm = ParallelSnm::new(KeySpec::last_name_key(), 10, 4);
/// let result = psnm.run(&db.records, &NativeEmployeeTheory::new());
/// assert!(result.pairs.len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSnm {
    key: KeySpec,
    window: usize,
    processors: usize,
}

impl ParallelSnm {
    /// A parallel pass with the given key, window, and processor count.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2` or `processors == 0`.
    pub fn new(key: KeySpec, window: usize, processors: usize) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        assert!(processors >= 1, "need at least one processor");
        ParallelSnm {
            key,
            window,
            processors,
        }
    }

    /// Runs create-keys, parallel sort, and band-replicated parallel window
    /// scan. The result is bit-identical to the serial
    /// [`merge_purge::SortedNeighborhood`] with the same key and window.
    pub fn run(&self, records: &[Record], theory: &dyn EquationalTheory) -> PassResult {
        self.run_observed(records, theory, &NoopObserver)
    }

    /// Like [`ParallelSnm::run`], reporting counters and phase timings to
    /// `observer`: per-worker fragment count, comparisons against records
    /// replicated from the previous fragment's band, and the coordinator's
    /// partial-result merge time. Workers report in bulk after joining, so
    /// observation adds no synchronization to the scan.
    pub fn run_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        let (p, w) = (self.processors, self.window);
        let mut pass = PassRun::begin(observer, &self.key, w, &format!(" P={p}"));
        let keys = pass.keys(records.len(), || {
            parallel_extract_keys(&self.key, records, p)
        });
        let order = pass.sort(|| parallel_sorted_order(&keys, p, observer));
        let n = order.len();
        let chunk = n.div_ceil(p).max(1);
        // Comparisons against records replicated from the previous
        // fragment's band: position `i` reaches `start - lo` entries left
        // of its fragment's `start`.
        let band_comparisons: usize = (0..n)
            .map(|i| (i / chunk * chunk).saturating_sub(i.saturating_sub(w - 1)))
            .sum();
        observer.add(Counter::BandOverlapComparisons, band_comparisons as u64);
        pass.scan(theory, |window| {
            let order = &order;
            let workers = (0..n).step_by(chunk).map(|start| {
                move || {
                    let end = (start + chunk).min(n);
                    // The fragment head (first w-1 slots) is where
                    // band-replicated records are consulted; it gets its
                    // own child span. Fragment 0 has no band but keeps the
                    // same span shape (truncated windows).
                    let head_end = (start + w - 1).clamp(start.max(1), end);
                    let mut sink = FoundList::new(0, false);
                    let mut counts = ScanCounts::default();
                    let mut scan = |name, band| {
                        let _s = span(observer, name);
                        window.band(records, order, band, &mut sink, &mut counts);
                    };
                    scan("band_overlap", start..head_end);
                    scan("scan", head_end..end);
                    (counts, sink.found)
                }
            });
            scan_fragments(records, workers.collect(), observer)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merge_purge::SortedNeighborhood;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;

    #[test]
    fn window_larger_than_fragment_still_correct() {
        // Fragments smaller than the window stress the band logic.
        let db = DatabaseGenerator::new(GeneratorConfig::new(60).duplicate_fraction(0.8).seed(82))
            .generate();
        let theory = NativeEmployeeTheory::new();
        let w = 25;
        let serial =
            SortedNeighborhood::new(KeySpec::first_name_key(), w).run(&db.records, &theory);
        let parallel = ParallelSnm::new(KeySpec::first_name_key(), w, 8).run(&db.records, &theory);
        assert_eq!(parallel.pairs.sorted(), serial.pairs.sorted());
    }

    #[test]
    fn empty_input() {
        let theory = NativeEmployeeTheory::new();
        let r = ParallelSnm::new(KeySpec::last_name_key(), 5, 4).run(&[], &theory);
        assert!(r.pairs.is_empty());
        assert_eq!(r.stats.comparisons, 0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        ParallelSnm::new(KeySpec::last_name_key(), 5, 0);
    }
}
