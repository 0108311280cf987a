//! The parallel clustering method (§4.2).

use merge_purge::{ClusteringConfig, KeySpec, PassConfig, PassResult};
use mp_metrics::{NoopObserver, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;

/// Parallel clustering pass: the key space is histogrammed into `C·P`
/// clusters, each sorted, and the clusters in order are window-scanned in
/// `P` bands. The paper hands whole clusters to processors; a band here
/// may end inside a cluster (the next band's window reaches back across
/// the cut), so the bands' loads stay within one position of each other.
///
/// ```
/// use mp_parallel::ParallelClustering;
/// use merge_purge::{ClusteringConfig, KeySpec};
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
    pass: PassConfig,
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
        assert!(config.window >= 2, "window must hold at least two records");
        assert!(config.clusters >= 1, "need a cluster per processor");
        assert!(processors >= 1, "need at least one processor");
        let clusters = config.clusters * processors;
        let config = ClusteringConfig { clusters, ..config };
        ParallelClustering {
            pass: PassConfig::Clustered { key, config },
            processors,
        }
    }

    /// Runs the parallel clustering method. The result is the serial
    /// [`merge_purge::ClusteringMethod`]'s over `C·P` clusters.
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

#[cfg(test)]
mod tests {
    use super::*;
    use merge_purge::ClusteringMethod;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;

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
    fn empty_input() {
        let theory = NativeEmployeeTheory::new();
        let r = ParallelClustering::new(
            KeySpec::last_name_key(),
            ClusteringConfig::paper_serial(4),
            2,
        )
        .run(&[], &theory);
        assert!(r.pairs.is_empty());
    }
}
