//! The parallel engines (§4), on the product's banded scan.
//!
//! The paper's shared-nothing multiprocessor is simulated with OS threads.
//! §4.1 cuts the sorted list into `P` fragments, each replicating the last
//! `w − 1` records of the one before it; §4.2 hands clusters to
//! processors. Every in-memory pass already scans in such bands: a pass
//! here is that pass scanned unpruned in exactly `P` bands — band 0 on the
//! pass's thread, band `K` on a `scan-K` lane — and only match pairs flow
//! back, folded in band order.
//!
//! Concurrent multi-pass execution makes §4.1's estimate real: the paper
//! estimated it as "approximately the maximum time taken by any
//! independent run plus the time to compute the closure"; threads run the
//! passes concurrently and measure it.

use crate::clustering::{ClusteringConfig, ClusteringMethod};
use merge_purge::{fan_out, KeySpec, MultiPass, MultiPassResult, PassResult, SortedNeighborhood};
use mp_metrics::{span, NoopObserver, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;

/// Parallel sorted-neighborhood pass over `P` processors (§4.1).
///
/// The sorted list is cut into `P` contiguous bands; "the fragment
/// assigned to processor i should replicate the last w−1 records from the
/// fragment assigned to site i−1", as each band's backward window does.
/// The bands do not prune: none sees the matches of the bands before it.
///
/// ```
/// use mp_paper::ParallelSnm;
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
    pass: SortedNeighborhood,
    processors: usize,
}

impl ParallelSnm {
    /// A parallel pass with the given key, window, and processor count.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2` or `processors == 0`.
    pub fn new(key: KeySpec, window: usize, processors: usize) -> Self {
        assert!(processors >= 1, "need at least one processor");
        ParallelSnm {
            pass: SortedNeighborhood::new(key, window),
            processors,
        }
    }

    /// Runs create-keys, sort, and the window scan in `P` bands. The
    /// result is bit-identical to the serial [`SortedNeighborhood`] with
    /// the same key and window.
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

/// Parallel clustering pass (§4.2): the key space is histogrammed into
/// `C·P` clusters, each sorted, and the clusters in order are
/// window-scanned in `P` bands. The paper hands whole clusters to
/// processors; a band here may end inside a cluster (the next band's
/// window reaches back across the cut), so the bands' loads stay within
/// one position of each other.
///
/// ```
/// use mp_paper::{ClusteringConfig, ParallelClustering};
/// use merge_purge::KeySpec;
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let db = DatabaseGenerator::new(GeneratorConfig::new(400).seed(4)).generate();
/// let pc = ParallelClustering::new(
///     KeySpec::last_name_key(),
///     ClusteringConfig { clusters: 100, histogram_prefix: 3, cluster_key_len: 6, window: 10 },
///     4,
/// );
/// let result = pc.run(&db.records, &NativeEmployeeTheory::new());
/// assert!(result.pairs.len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelClustering {
    pass: ClusteringMethod,
    processors: usize,
}

impl ParallelClustering {
    /// A parallel clustering pass. `config.clusters` counts clusters *per
    /// processor* (the paper runs "100 clusters per processor").
    ///
    /// # Panics
    ///
    /// Panics when `window < 2`, `clusters == 0`, or `processors == 0`.
    pub fn new(key: KeySpec, config: ClusteringConfig, processors: usize) -> Self {
        assert!(config.clusters >= 1, "need a cluster per processor");
        assert!(processors >= 1, "need at least one processor");
        let clusters = config.clusters * processors;
        ParallelClustering {
            pass: ClusteringMethod::new(key, ClusteringConfig { clusters, ..config }),
            processors,
        }
    }

    /// Runs the parallel clustering method. The result is the serial
    /// [`ClusteringMethod`]'s over `C·P` clusters.
    pub fn run(&self, records: &[Record], theory: &dyn EquationalTheory) -> PassResult {
        self.run_observed(records, theory, &NoopObserver)
    }

    /// Like [`ParallelClustering::run`], reporting to `observer`.
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

/// Strategy for each concurrent pass.
#[derive(Debug, Clone)]
pub enum ParallelPass {
    /// A [`ParallelSnm`] pass.
    Snm(ParallelSnm),
    /// A [`ParallelClustering`] pass.
    Clustering(ParallelClustering),
}

/// Runs all passes concurrently (each in its own processor count's
/// bands), then computes the transitive closure. Panics on no passes.
pub fn parallel_multipass(
    passes: &[ParallelPass],
    records: &[Record],
    theory: &dyn EquationalTheory,
) -> MultiPassResult {
    parallel_multipass_observed(passes, records, theory, &NoopObserver)
}

/// Like [`parallel_multipass`], reporting counters and phase timings to
/// `observer`. Pass 0 runs on the calling thread and pass `P` on a
/// `pass-P` lane, side by side, so phase times accumulated across passes
/// can exceed wall-clock time; counters are exact sums across all passes.
///
/// # Panics
///
/// Panics when `passes` is empty.
pub fn parallel_multipass_observed(
    passes: &[ParallelPass],
    records: &[Record],
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) -> MultiPassResult {
    assert!(!passes.is_empty(), "need at least one pass");
    let _run_span = span(observer, "run");
    let results = fan_out(
        passes.iter().collect(),
        |p| format!("pass-{p}"),
        |_, pass| match pass {
            ParallelPass::Snm(p) => p.run_observed(records, theory, observer),
            ParallelPass::Clustering(p) => p.run_observed(records, theory, observer),
        },
    );
    let result = MultiPass::close_observed(records.len(), results, observer);
    observer.run_complete();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn snm_empty_input() {
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

    #[test]
    fn matches_serial_clustering_with_same_total_clusters() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(500).duplicate_fraction(0.5).seed(91))
            .generate();
        let theory = NativeEmployeeTheory::new();
        // Serial with C = 24 total == parallel with 8 per proc x 3 procs,
        // because cluster contents and per-cluster scans are identical
        // regardless of which processor executes them.
        let serial = ClusteringMethod::new(
            KeySpec::last_name_key(),
            ClusteringConfig {
                clusters: 24,
                histogram_prefix: 3,
                cluster_key_len: 6,
                window: 8,
            },
        )
        .run(&db.records, &theory);
        let parallel = ParallelClustering::new(
            KeySpec::last_name_key(),
            ClusteringConfig {
                clusters: 8,
                histogram_prefix: 3,
                cluster_key_len: 6,
                window: 8,
            },
            3,
        )
        .run(&db.records, &theory);
        assert_eq!(parallel.pairs.sorted(), serial.pairs.sorted());
        assert_eq!(parallel.stats.comparisons, serial.stats.comparisons);
    }

    #[test]
    fn processor_count_does_not_change_results() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(300).duplicate_fraction(0.4).seed(92))
            .generate();
        let theory = NativeEmployeeTheory::new();
        // Keep total clusters fixed at 24 while varying P.
        let mut baseline: Option<Vec<(u32, u32)>> = None;
        for (per_proc, procs) in [(24, 1), (12, 2), (6, 4), (3, 8)] {
            let r = ParallelClustering::new(
                KeySpec::first_name_key(),
                ClusteringConfig {
                    clusters: per_proc,
                    histogram_prefix: 3,
                    cluster_key_len: 6,
                    window: 6,
                },
                procs,
            )
            .run(&db.records, &theory);
            let sorted = r.pairs.sorted();
            match &baseline {
                None => baseline = Some(sorted),
                Some(b) => assert_eq!(&sorted, b, "procs = {procs}"),
            }
        }
    }

    #[test]
    fn cluster_count_clamped_to_bins() {
        // 1-letter histogram has 27 bins; asking for 100x4 clusters must
        // not panic.
        let db = DatabaseGenerator::new(GeneratorConfig::new(100).seed(93)).generate();
        let theory = NativeEmployeeTheory::new();
        let r = ParallelClustering::new(
            KeySpec::last_name_key(),
            ClusteringConfig {
                clusters: 100,
                histogram_prefix: 1,
                cluster_key_len: 6,
                window: 4,
            },
            4,
        )
        .run(&db.records, &theory);
        assert!(r.stats.comparisons > 0 || r.pairs.is_empty());
    }

    #[test]
    fn clustering_empty_input() {
        let theory = NativeEmployeeTheory::new();
        let r = ParallelClustering::new(
            KeySpec::last_name_key(),
            ClusteringConfig::paper_serial(4),
            2,
        )
        .run(&[], &theory);
        assert!(r.pairs.is_empty());
    }

    #[test]
    fn concurrent_multipass_equals_serial_multipass() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(400).duplicate_fraction(0.5).seed(95))
            .generate();
        let theory = NativeEmployeeTheory::new();
        let serial = MultiPass::standard_three(8).run(&db.records, &theory);
        let passes: Vec<ParallelPass> = KeySpec::standard_three()
            .into_iter()
            .map(|k| ParallelPass::Snm(ParallelSnm::new(k, 8, 2)))
            .collect();
        let parallel = parallel_multipass(&passes, &db.records, &theory);
        assert_eq!(parallel.closed_pairs.sorted(), serial.closed_pairs.sorted());
        assert_eq!(parallel.classes, serial.classes);
    }

    #[test]
    fn mixed_pass_kinds() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(200).seed(96)).generate();
        let theory = NativeEmployeeTheory::new();
        let passes = vec![
            ParallelPass::Snm(ParallelSnm::new(KeySpec::last_name_key(), 6, 2)),
            ParallelPass::Clustering(ParallelClustering::new(
                KeySpec::address_key(),
                ClusteringConfig {
                    clusters: 10,
                    histogram_prefix: 3,
                    cluster_key_len: 6,
                    window: 6,
                },
                2,
            )),
        ];
        let result = parallel_multipass(&passes, &db.records, &theory);
        assert_eq!(result.passes.len(), 2);
        assert!(result.closed_pairs.len() >= result.passes[0].pairs.len());
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn empty_passes_rejected() {
        let theory = NativeEmployeeTheory::new();
        parallel_multipass(&[], &[], &theory);
    }
}
