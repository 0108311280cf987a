//! Multi-pass hot-path speedup: closure-aware pruning.
//!
//! Runs the paper's three standard passes over one seeded database in two
//! configurations and reports wall time plus the §3.5 work counters:
//!
//! 1. `scratch`   — the native theory (reusable per-thread scratch
//!    buffers), no pruning.
//! 2. `optimized` — the same plus closure-aware pruning (window pairs
//!    already connected in the shared union-find skip rule evaluation
//!    entirely).
//!
//! The closed pairs of both runs are asserted identical, so the delta is
//! pure saved work.
//!
//! The committed `BENCH_pruning.json` also carries `baseline_alloc_best_ns`
//! and the two speedups over it. That leg ran a frozen copy of the theory
//! whose kernels allocated per call; the copy is gone, so those three
//! figures are pinned at their recorded values, not rebuilt: a rerun prints
//! its report and saves it only where `--out` says.
//!
//! Usage: `cargo run --release -p mp-bench --bin pruning
//!         [--records N] [--window W] [--duplicates F] [--max-dups K]
//!         [--seed S] [--iters K] [--out FILE]`

use merge_purge::{MultiPass, MultiPassResult};
use mp_bench::Args;
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_record::Record;
use mp_rules::{EquationalTheory, NativeEmployeeTheory};
use std::time::{Duration, Instant};

fn total(result: &MultiPassResult, f: fn(&merge_purge::PassStats) -> u64) -> u64 {
    result.passes.iter().map(|p| f(&p.stats)).sum()
}

/// One timed multi-pass run.
fn timed<T: EquationalTheory>(
    records: &[Record],
    theory: &T,
    window: usize,
    prune: bool,
) -> (Duration, MultiPassResult) {
    let passes = MultiPass::standard_three(window);
    let passes = if prune { passes.with_pruning() } else { passes };
    let t = Instant::now();
    let r = passes.run(records, theory);
    (t.elapsed(), r)
}

fn main() {
    let args = Args::from_env();
    let originals: usize = args.get("records", 10_000);
    // Default to a small window: the paper's central result (§4) is that
    // several passes with a small window beat one pass with a large one,
    // and small windows are where neighbors are similar enough to reach
    // the distance kernels this benchmark exercises.
    let window: usize = args.get("window", 6);
    let duplicates: f64 = args.get("duplicates", 0.5);
    let max_dups: usize = args.get("max-dups", 5);
    let seed: u64 = args.get("seed", 7);
    let iters: usize = args.get("iters", 7);
    let out: String = args.get("out", String::new());

    let mut db = DatabaseGenerator::new(
        GeneratorConfig::new(originals)
            .duplicate_fraction(duplicates)
            .max_duplicates_per_record(max_dups)
            .seed(seed),
    )
    .generate();
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    println!(
        "# pruning bench — {} records ({} originals), window {window}, 3 passes, best of {iters}",
        db.records.len(),
        originals
    );

    let theory = NativeEmployeeTheory::new();

    // Interleave the two configurations within each iteration — and swap
    // their order every iteration — so slow drift in machine load or clock
    // speed hits both equally.
    let mut best = [Duration::MAX; 2];
    let mut results: [Option<MultiPassResult>; 2] = [None, None];
    for i in 0..iters.max(1) {
        for leg in 0..2 {
            let leg = (leg + i) % 2;
            let (t, r) = timed(&db.records, &theory, window, leg == 1);
            best[leg] = best[leg].min(t);
            results[leg] = Some(r);
        }
    }
    let [best_scratch, best_pruned] = best;
    let [scratch, pruned] = results.map(|r| r.expect("at least one iteration"));

    assert_eq!(
        scratch.closed_pairs.sorted(),
        pruned.closed_pairs.sorted(),
        "pruning changed the closed pairs"
    );

    let comparisons = total(&scratch, |s| s.comparisons);
    assert_eq!(comparisons, total(&pruned, |s| s.comparisons));
    let evals_plain = total(&scratch, |s| s.rule_evaluations);
    let evals_pruned = total(&pruned, |s| s.rule_evaluations);
    let pairs_pruned = total(&pruned, |s| s.pairs_pruned);
    let speedup_pruning = best_scratch.as_secs_f64() / best_pruned.as_secs_f64();

    println!("scratch  (reused buffers, unpruned): {best_scratch:>12.3?}  ({evals_plain} rule evaluations)");
    println!("optimized (scratch + pruning):       {best_pruned:>12.3?}  ({evals_pruned} rule evaluations, {pairs_pruned} pruned, {speedup_pruning:.2}x over scratch)");
    println!("identical {} closed pairs", scratch.closed_pairs.len());

    let json = format!(
        "{{\n  \"records\": {},\n  \"window\": {window},\n  \"passes\": 3,\n  \"iters\": {iters},\n  \
         \"scratch_best_ns\": {},\n  \"pruned_best_ns\": {},\n  \
         \"speedup_pruning_only\": {speedup_pruning:.4},\n  \
         \"comparisons\": {comparisons},\n  \"rule_evaluations_unpruned\": {evals_plain},\n  \
         \"rule_evaluations_pruned\": {evals_pruned},\n  \"pairs_pruned\": {pairs_pruned},\n  \
         \"closed_pairs\": {},\n  \"closed_pairs_identical\": true\n}}\n",
        db.records.len(),
        best_scratch.as_nanos(),
        best_pruned.as_nanos(),
        scratch.closed_pairs.len(),
    );
    print!("{json}");
    if !out.is_empty() {
        std::fs::write(&out, json).expect("write bench report");
        println!("wrote {out}");
    }
}
