//! Parallel merge/purge: concurrent independent passes, each internally
//! parallel, exactly the §4 configuration — and a verification that the
//! parallel engines return bit-identical results to the serial ones.
//!
//! Run with: `cargo run --release --example parallel_dedup`

use merge_purge::{Evaluation, KeySpec, MultiPass};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_paper::{
    parallel_multipass, ClusteringConfig, ParallelClustering, ParallelPass, ParallelSnm,
};
use mp_rules::NativeEmployeeTheory;
use std::time::Instant;

fn main() {
    let procs = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut db = DatabaseGenerator::new(
        GeneratorConfig::new(20_000)
            .duplicate_fraction(0.4)
            .seed(11),
    )
    .generate();
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    println!(
        "{} records, {} true pairs, {} worker threads per pass",
        db.records.len(),
        db.truth.true_pair_count(),
        procs
    );
    let theory = NativeEmployeeTheory::new();

    // Three concurrent passes, each scanned in `procs` bands: two SNM
    // passes and one histogram-clustered pass (100 clusters per processor).
    let passes = vec![
        ParallelPass::Snm(ParallelSnm::new(KeySpec::last_name_key(), 10, procs)),
        ParallelPass::Snm(ParallelSnm::new(KeySpec::first_name_key(), 10, procs)),
        ParallelPass::Clustering(ParallelClustering::new(
            KeySpec::address_key(),
            ClusteringConfig {
                clusters: 100,
                histogram_prefix: 3,
                cluster_key_len: 12,
                window: 10,
            },
            procs,
        )),
    ];

    let t0 = Instant::now();
    let parallel = parallel_multipass(&passes, &db.records, &theory);
    let parallel_time = t0.elapsed();

    let t1 = Instant::now();
    let serial = MultiPass::standard_three(10).run(&db.records, &theory);
    let serial_time = t1.elapsed();

    let eval = Evaluation::score(&parallel.closed_pairs, &db.truth);
    println!(
        "parallel multi-pass: {} groups, {:.1}% detected, wall {parallel_time:.1?}",
        parallel.classes.len(),
        eval.percent_detected
    );
    let eval_s = Evaluation::score(&serial.closed_pairs, &db.truth);
    println!(
        "serial   multi-pass: {} groups, {:.1}% detected, wall {serial_time:.1?}",
        serial.classes.len(),
        eval_s.percent_detected
    );

    // The SNM engines are exact: same key + window => same pairs, serial or
    // parallel, any processor count. (The third pass differs by design —
    // the clustering method trades a little accuracy for locality.)
    let serial_last = &serial.passes[0];
    let parallel_last = &parallel.passes[0];
    assert_eq!(
        serial_last.pairs.sorted(),
        parallel_last.pairs.sorted(),
        "parallel SNM must be bit-identical to serial"
    );
    println!(
        "\nverified: parallel last-name pass produced the exact same {} pairs \
         as the serial pass",
        parallel_last.pairs.len()
    );
    println!(
        "per-band comparison split of the last-name pass: {:?}",
        parallel_last.worker_comparisons
    );
}
