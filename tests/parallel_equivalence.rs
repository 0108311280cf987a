//! Cross-crate equivalence: the parallel engines must reproduce the serial
//! engines' results exactly, for every processor count, at the full
//! multi-pass level.

use merge_purge::KeySpec;
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_paper::{ClusteringConfig, ParallelClustering, ParallelSnm};
use mp_rules::NativeEmployeeTheory;

#[test]
fn parallel_clustering_invariant_under_processor_count_with_fixed_total_clusters() {
    let mut db = DatabaseGenerator::new(
        GeneratorConfig::new(1_000)
            .duplicate_fraction(0.4)
            .seed(4002),
    )
    .generate();
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let theory = NativeEmployeeTheory::new();
    let total = 36;
    let mut baseline = None;
    for procs in [1usize, 2, 3, 4, 6] {
        let config = ClusteringConfig {
            clusters: total / procs,
            histogram_prefix: 3,
            cluster_key_len: 12,
            window: 7,
        };
        let r = ParallelClustering::new(KeySpec::address_key(), config, procs)
            .run(&db.records, &theory);
        let sorted = r.pairs.sorted();
        match &baseline {
            None => baseline = Some(sorted),
            Some(b) => assert_eq!(&sorted, b, "procs = {procs}"),
        }
    }
}

#[test]
fn worker_comparisons_sum_to_total() {
    let db = DatabaseGenerator::new(GeneratorConfig::new(800).duplicate_fraction(0.5).seed(4003))
        .generate();
    let theory = NativeEmployeeTheory::new();
    for procs in [1usize, 3, 5] {
        let r = ParallelSnm::new(KeySpec::last_name_key(), 11, procs).run(&db.records, &theory);
        assert_eq!(
            r.worker_comparisons.iter().sum::<u64>(),
            r.stats.comparisons,
            "procs = {procs}"
        );
        assert!(r.worker_comparisons.len() <= procs);
    }
}
