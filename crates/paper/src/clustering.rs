//! The clustering method (§2.2.1): histogram-partition the key space, then
//! run the sorted-neighborhood method inside each cluster.

use crate::histogram::KeyHistogram;
use crate::partition::RangePartition;
use merge_purge::snm::PassRun;
use merge_purge::{
    fan_out, per_core, radix_order_by, scan_in_bands, KeyArena, KeySpec, PassResult,
};
use mp_closure::UnionFind;
use mp_metrics::{NoopObserver, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;

/// Configuration of the clustering method.
#[derive(Debug, Clone)]
pub struct ClusteringConfig {
    /// Number of clusters `C` (the paper uses 32 serially — the merge-sort
    /// fan-out — and 100 per processor in parallel).
    pub clusters: usize,
    /// Characters of the key prefix used for the histogram bins (the paper
    /// maps the first three letters into a 27³ space).
    pub histogram_prefix: usize,
    /// Length of the *fixed-size* cluster key used to sort within clusters.
    ///
    /// This is the deliberate accuracy handicap of the clustering method:
    /// "the clustering method uses the fixed-sized key extracted during its
    /// clustering phase to later sort each cluster ... the sorted-
    /// neighborhood method used the complete length of the strings in the
    /// key field" (§3.4). Records equal on the truncated key keep input
    /// order, so matches that a full-key sort would bring adjacent may stay
    /// separated.
    pub cluster_key_len: usize,
    /// Window size for the per-cluster scans.
    pub window: usize,
}

impl ClusteringConfig {
    /// The paper's serial setup: 32 clusters, 3-letter histogram, and a
    /// fixed key truncated to 12 characters (the full variable-length keys
    /// average 16-22, so the truncation reproduces the paper's modest
    /// accuracy edge for SNM without crippling the clustering method).
    pub fn paper_serial(window: usize) -> Self {
        ClusteringConfig {
            clusters: 32,
            histogram_prefix: 3,
            cluster_key_len: 12,
            window,
        }
    }
}

/// The clustering method for one key.
///
/// ```
/// use merge_purge::KeySpec;
/// use mp_paper::{ClusteringConfig, ClusteringMethod};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let db = DatabaseGenerator::new(GeneratorConfig::new(300).seed(5)).generate();
/// let cm = ClusteringMethod::new(KeySpec::last_name_key(), ClusteringConfig::paper_serial(10));
/// let result = cm.run(&db.records, &NativeEmployeeTheory::new());
/// assert!(result.pairs.len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ClusteringMethod {
    key: KeySpec,
    config: ClusteringConfig,
}

impl ClusteringMethod {
    /// A clustering pass over `key` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the window is below 2 or the cluster count is 0.
    pub fn new(key: KeySpec, config: ClusteringConfig) -> Self {
        assert!(config.window >= 2, "window must hold at least two records");
        assert!(config.clusters >= 1, "need at least one cluster");
        ClusteringMethod { key, config }
    }

    /// Runs cluster-data + per-cluster sorted-neighborhood. The cluster
    /// scans run as one position sequence cut into a band per core, with
    /// the serial scan's result.
    ///
    /// The `create_keys` stat covers key extraction and histogram/partition
    /// construction; `sort` covers the per-cluster sorts; `window_scan` the
    /// per-cluster scans.
    pub fn run(&self, records: &[Record], theory: &dyn EquationalTheory) -> PassResult {
        self.run_observed(records, theory, &NoopObserver)
    }

    /// Like [`ClusteringMethod::run`], reporting counters and phase timings
    /// to `observer` (in bulk, once per phase).
    pub fn run_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        self.run_pruned_observed(records, theory, None, observer)
    }

    /// Like [`ClusteringMethod::run_observed`], with closure-aware pruning
    /// when a union-find is given: per-cluster window pairs already
    /// connected in `uf` skip rule evaluation, and every match found is
    /// unioned into `uf`.
    pub fn run_pruned_observed(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        uf: Option<&mut UnionFind>,
        observer: &dyn PipelineObserver,
    ) -> PassResult {
        self.run_in_bands(records, theory, uf, observer, per_core())
    }

    /// [`run_pruned_observed`](Self::run_pruned_observed) with the cluster
    /// scans in `bands` bands (the parallel engine's processor count).
    pub(crate) fn run_in_bands(
        &self,
        records: &[Record],
        theory: &dyn EquationalTheory,
        uf: Option<&mut UnionFind>,
        observer: &dyn PipelineObserver,
        bands: usize,
    ) -> PassResult {
        let config = &self.config;
        let mut pass = PassRun::begin(observer, &self.key, config.window, " clustered");
        let (keys, mut clusters) = pass.keys(records.len(), || {
            let mut keys = KeyArena::extract(&self.key, records);
            keys.truncate_keys(config.cluster_key_len);
            let clusters = partition_clusters(&keys, config.histogram_prefix, config.clusters);
            (keys, clusters)
        });
        // The sorts are independent of the scans, so they run together
        // under one span, contiguous groups of clusters on `bands`
        // workers; records equal on the fixed-size key keep input order,
        // so the split changes no cluster's order.
        pass.sort(|| {
            let per_worker = clusters.len().div_ceil(bands).max(1);
            fan_out(
                clusters.chunks_mut(per_worker).collect(),
                |b| format!("cluster-sort-{b}"),
                |_, group| {
                    for cluster in group.iter_mut() {
                        let by_key =
                            radix_order_by(cluster.len(), |i| keys.get(cluster[i] as usize));
                        *cluster = by_key.order.iter().map(|&i| cluster[i as usize]).collect();
                    }
                },
            );
        });
        // Clusters are scanned in cluster order, so pruning sees matches
        // from earlier clusters.
        pass.scan(theory, |scan| {
            let segments: Vec<&[u32]> = clusters.iter().map(Vec::as_slice).collect();
            scan_in_bands(scan, records, &segments, uf, observer, bands)
        })
    }
}

/// Histogram-partitions the (already truncated) `keys` into at most
/// `clusters` balanced ranges — never more than the histogram has bins —
/// and assigns every record index to its range, in input order.
fn partition_clusters(keys: &KeyArena, histogram_prefix: usize, clusters: usize) -> Vec<Vec<u32>> {
    let histogram = KeyHistogram::from_keys(keys.iter(), histogram_prefix);
    let partition = RangePartition::build(&histogram, clusters.min(histogram.bins()));
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); partition.clusters()];
    for (i, k) in keys.iter().enumerate() {
        out[partition.cluster_of(k)].push(i as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use merge_purge::{MultiPass, MultiPassResult, SortedNeighborhood};
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;

    fn db(n: usize, seed: u64) -> mp_datagen::GeneratedDatabase {
        DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.4).seed(seed))
            .generate()
    }

    #[test]
    fn finds_duplicates() {
        let db = db(400, 41);
        let cm =
            ClusteringMethod::new(KeySpec::last_name_key(), ClusteringConfig::paper_serial(10));
        let r = cm.run(&db.records, &NativeEmployeeTheory::new());
        assert!(!r.pairs.is_empty());
        assert!(r.stats.comparisons > 0);
    }

    #[test]
    fn accuracy_at_most_snm_with_same_key_window() {
        // §3.4: "In all cases the accuracy of the sorted-neighborhood edged
        // higher than the accuracy of the clustering method" — because of
        // the fixed-size cluster key. Verify the mechanism: clustering finds
        // no pair that full-key SNM with the same window plus cluster
        // boundaries would fundamentally rule out, and typically finds
        // fewer.
        let db = db(600, 42);
        let theory = NativeEmployeeTheory::new();
        let w = 10;
        let snm = SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
        let cm = ClusteringMethod::new(KeySpec::last_name_key(), ClusteringConfig::paper_serial(w))
            .run(&db.records, &theory);
        let snm_true = count_true(&snm.pairs, &db);
        let cm_true = count_true(&cm.pairs, &db);
        assert!(
            cm_true <= snm_true,
            "clustering ({cm_true}) beat SNM ({snm_true})?"
        );
        assert!(cm_true > 0);
    }

    fn count_true(pairs: &mp_closure::PairSet, db: &mp_datagen::GeneratedDatabase) -> usize {
        pairs
            .iter()
            .filter(|&(a, b)| {
                db.truth
                    .same_entity(&db.records[a as usize], &db.records[b as usize])
            })
            .count()
    }

    #[test]
    fn comparisons_never_exceed_global_snm() {
        // Clustering only removes candidate comparisons (across cluster
        // boundaries), never adds them.
        let db = db(300, 43);
        let theory = NativeEmployeeTheory::new();
        let w = 8;
        let snm = SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
        let cm = ClusteringMethod::new(KeySpec::last_name_key(), ClusteringConfig::paper_serial(w))
            .run(&db.records, &theory);
        assert!(cm.stats.comparisons <= snm.stats.comparisons);
    }

    #[test]
    fn single_cluster_equals_snm_on_truncated_key() {
        // With C = 1 the clustering method degenerates to SNM sorted on the
        // truncated key.
        let db = db(200, 44);
        let theory = NativeEmployeeTheory::new();
        let config = ClusteringConfig {
            clusters: 1,
            histogram_prefix: 3,
            cluster_key_len: usize::MAX, // no truncation
            window: 6,
        };
        let cm = ClusteringMethod::new(KeySpec::last_name_key(), config).run(&db.records, &theory);
        let snm = SortedNeighborhood::new(KeySpec::last_name_key(), 6).run(&db.records, &theory);
        assert_eq!(cm.pairs.sorted(), snm.pairs.sorted());
    }

    #[test]
    fn deterministic() {
        let db = db(150, 45);
        let theory = NativeEmployeeTheory::new();
        let cm = ClusteringMethod::new(KeySpec::address_key(), ClusteringConfig::paper_serial(5));
        assert_eq!(
            cm.run(&db.records, &theory).pairs.sorted(),
            cm.run(&db.records, &theory).pairs.sorted()
        );
    }

    /// A sorted pass then a clustering pass, sharing one union-find when
    /// pruned, closed together.
    fn sorted_then_clustered(db: &mp_datagen::GeneratedDatabase, prune: bool) -> MultiPassResult {
        let theory = NativeEmployeeTheory::new();
        let mut uf = prune.then(|| UnionFind::new(db.records.len()));
        let sorted = SortedNeighborhood::new(KeySpec::last_name_key(), 8).run_pruned_observed(
            &db.records,
            &theory,
            uf.as_mut(),
            &NoopObserver,
        );
        let clustered =
            ClusteringMethod::new(KeySpec::first_name_key(), ClusteringConfig::paper_serial(8))
                .run_pruned_observed(&db.records, &theory, uf.as_mut(), &NoopObserver);
        MultiPass::close(db.records.len(), vec![sorted, clustered])
    }

    #[test]
    fn mixed_sorted_and_clustered_passes() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(300).duplicate_fraction(0.5).seed(53))
            .generate();
        let result = sorted_then_clustered(&db, false);
        assert_eq!(result.passes.len(), 2);
        assert!(!result.closed_pairs.is_empty());
    }

    #[test]
    fn pruned_clustered_passes_also_agree() {
        let db = DatabaseGenerator::new(GeneratorConfig::new(400).duplicate_fraction(0.5).seed(56))
            .generate();
        let plain = sorted_then_clustered(&db, false);
        let pruned = sorted_then_clustered(&db, true);
        assert_eq!(plain.closed_pairs.sorted(), pruned.closed_pairs.sorted());
        let skips: u64 = pruned.passes.iter().map(|p| p.stats.pairs_pruned).sum();
        assert!(skips > 0);
    }

    #[test]
    fn empty_input() {
        let cm = ClusteringMethod::new(KeySpec::last_name_key(), ClusteringConfig::paper_serial(4));
        let r = cm.run(&[], &NativeEmployeeTheory::new());
        assert!(r.pairs.is_empty());
    }
}
