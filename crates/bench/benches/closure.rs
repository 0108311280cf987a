//! Transitive-closure benchmarks: the multi-pass approach's extra cost
//! beyond its passes (§3.3 argues it is small because the pair set is an
//! order of magnitude smaller than the database).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mp_closure::{PairSet, UnionFind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pair workload shaped like multi-pass output: mostly chains of 2-5
/// records with many repeated discoveries across passes.
fn workload(n_records: usize, n_pairs: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let base = rng.gen_range(0..n_records.saturating_sub(5)) as u32;
        let off = rng.gen_range(1..5) as u32;
        pairs.push((base, base + off));
    }
    pairs
}

fn bench_closure(c: &mut Criterion) {
    let mut g = c.benchmark_group("closure");
    for &n in &[10_000usize, 100_000] {
        let pairs = workload(n, n / 2, 42);
        g.bench_with_input(BenchmarkId::new("union_find", n), &pairs, |b, pairs| {
            b.iter(|| {
                let mut uf = UnionFind::new(n);
                for &(x, y) in pairs {
                    uf.union(x, y);
                }
                black_box(uf.set_count())
            });
        });
        g.bench_with_input(
            BenchmarkId::new("union_find_with_classes", n),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    let mut uf = UnionFind::new(n);
                    for &(x, y) in pairs {
                        uf.union(x, y);
                    }
                    black_box(uf.classes().len())
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("pair_set_dedup", n), &pairs, |b, pairs| {
            b.iter(|| {
                let mut ps = PairSet::with_capacity(pairs.len());
                for &(x, y) in pairs {
                    ps.insert(x, y);
                }
                black_box(ps.len())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_closure);
criterion_main!(benches);
