//! The parallel sorted-neighborhood method (§4.1).

use merge_purge::{KeySpec, PassConfig, PassResult};
use mp_metrics::{NoopObserver, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;

/// Parallel sorted-neighborhood pass over `P` processors.
///
/// The sorted list is cut into `P` contiguous bands; "the fragment
/// assigned to processor i should replicate the last w−1 records from the
/// fragment assigned to site i−1", as each band's backward window does.
/// The bands do not prune: none sees the matches of the bands before it.
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
/// assert_eq!(result.worker_comparisons.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSnm {
    pass: PassConfig,
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
            pass: PassConfig::Sorted { key, window },
            processors,
        }
    }

    /// Runs create-keys, sort, and the window scan in `P` bands. The
    /// result is bit-identical to the serial
    /// [`merge_purge::SortedNeighborhood`] with the same key and window.
    pub fn run(&self, records: &[Record], theory: &dyn EquationalTheory) -> PassResult {
        self.run_observed(records, theory, &NoopObserver)
    }

    /// Like [`ParallelSnm::run`], reporting counters, phase timings and
    /// spans (a `window_scan` labelled `band=K` per band) to `observer`.
    pub fn run_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        self.pass
            .run_in_bands(records, theory, None, observer, self.processors)
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
