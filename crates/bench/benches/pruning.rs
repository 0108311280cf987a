//! Multi-pass hot path: with and without closure-aware pruning.
//!
//! `unpruned_w6` runs the native theory over every window pair;
//! `pruned_w6` adds closure-aware pruning, skipping rule evaluation for
//! window pairs already connected in the shared union-find. Closed pairs
//! are identical in both. See also the `pruning` binary, which measures the
//! same configurations at 10k records (`BENCH_pruning.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use merge_purge::MultiPass;
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_rules::NativeEmployeeTheory;

fn bench_pruning(c: &mut Criterion) {
    let mut db = DatabaseGenerator::new(
        GeneratorConfig::new(3_000)
            .duplicate_fraction(0.5)
            .max_duplicates_per_record(5)
            .seed(7),
    )
    .generate();
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let theory = NativeEmployeeTheory::new();

    let mut g = c.benchmark_group("multipass_pruning");
    g.bench_function("unpruned_w6", |b| {
        b.iter(|| {
            let r = MultiPass::standard_three(6).run(black_box(&db.records), &theory);
            black_box(r.closed_pairs.len())
        });
    });
    g.bench_function("pruned_w6", |b| {
        b.iter(|| {
            let r = MultiPass::standard_three(6)
                .with_pruning()
                .run(black_box(&db.records), &theory);
            black_box(r.closed_pairs.len())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
