//! Figure 3: clustering method vs sorted-neighborhood method, serial.
//!
//! Paper setup: 250,000 originals, 35% selected for ≤5 duplicates each →
//! 468,730 records on one Sparc 5; three independent runs per method (last
//! name / first name / address key), 32 clusters for the clustering method,
//! plus the multi-pass closure over the three runs.
//!
//! * Fig. 3(a): average single-pass time and multi-pass total time.
//! * Fig. 3(b): accuracy of each method's single passes and multi-pass.
//!
//! Defaults scale to 40,000 originals; `--records 250000` approaches paper
//! scale.
//!
//! Usage: `cargo run --release -p mp-bench --bin fig3 [--records N] [--seed S]`

use merge_purge::{Evaluation, KeySpec, MultiPass, SortedNeighborhood};
use mp_bench::{fig3_database, header, pct, row, sec_cell, secs, Args};
use mp_paper::{ClusteringConfig, ClusteringMethod};
use mp_rules::NativeEmployeeTheory;

fn main() {
    let args = Args::from_env();
    let originals: usize = args.get("records", 40_000);
    let seed: u64 = args.get("seed", 3);

    let mut db = fig3_database(originals, seed);
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    println!(
        "# Figure 3 — {} originals → {} records, {} true pairs, 32 clusters",
        originals,
        db.records.len(),
        db.truth.true_pair_count()
    );

    let theory = NativeEmployeeTheory::new();
    let keys = KeySpec::standard_three();
    let windows = [2usize, 5, 10, 20];

    println!("\n## (a) Time: average single-pass and multi-pass total (seconds)");
    header(&[
        "window",
        "SNM avg single",
        "Cluster avg single",
        "SNM multi-pass",
        "Cluster multi-pass",
    ]);
    let mut acc_rows: Vec<Vec<String>> = Vec::new();
    for &w in &windows {
        let mut snm_passes = Vec::new();
        let mut cl_passes = Vec::new();
        for key in &keys {
            snm_passes.push(SortedNeighborhood::new(key.clone(), w).run(&db.records, &theory));
            cl_passes.push(
                ClusteringMethod::new(key.clone(), ClusteringConfig::paper_serial(w))
                    .run(&db.records, &theory),
            );
        }
        let avg = |passes: &[merge_purge::PassResult]| {
            passes.iter().map(|p| secs(p.stats.total())).sum::<f64>() / passes.len() as f64
        };
        let snm_avg = avg(&snm_passes);
        let cl_avg = avg(&cl_passes);

        let snm_single_acc: Vec<f64> = snm_passes
            .iter()
            .map(|p| {
                Evaluation::score(
                    &MultiPass::close(db.records.len(), vec![p.clone()]).closed_pairs,
                    &db.truth,
                )
                .percent_detected
            })
            .collect();
        let cl_single_acc: Vec<f64> = cl_passes
            .iter()
            .map(|p| {
                Evaluation::score(
                    &MultiPass::close(db.records.len(), vec![p.clone()]).closed_pairs,
                    &db.truth,
                )
                .percent_detected
            })
            .collect();

        let snm_multi = MultiPass::close(db.records.len(), snm_passes);
        let cl_multi = MultiPass::close(db.records.len(), cl_passes);
        let snm_multi_time: f64 = snm_multi
            .passes
            .iter()
            .map(|p| secs(p.stats.total()))
            .sum::<f64>()
            + secs(snm_multi.closure_time);
        let cl_multi_time: f64 = cl_multi
            .passes
            .iter()
            .map(|p| secs(p.stats.total()))
            .sum::<f64>()
            + secs(cl_multi.closure_time);
        row(&[
            w.to_string(),
            sec_cell(snm_avg),
            sec_cell(cl_avg),
            sec_cell(snm_multi_time),
            sec_cell(cl_multi_time),
        ]);

        let snm_multi_acc = Evaluation::score(&snm_multi.closed_pairs, &db.truth).percent_detected;
        let cl_multi_acc = Evaluation::score(&cl_multi.closed_pairs, &db.truth).percent_detected;
        acc_rows.push(vec![
            w.to_string(),
            pct(snm_single_acc.iter().sum::<f64>() / 3.0),
            pct(cl_single_acc.iter().sum::<f64>() / 3.0),
            pct(snm_multi_acc),
            pct(cl_multi_acc),
        ]);
    }

    println!("\n## (b) Accuracy: average single-pass and multi-pass (percent detected)");
    header(&[
        "window",
        "SNM avg single",
        "Cluster avg single",
        "SNM multi-pass",
        "Cluster multi-pass",
    ]);
    for cells in acc_rows {
        row(&cells);
    }

    println!(
        "\nPaper shape check: clustering single passes are faster than SNM single \
         passes; SNM accuracy edges higher than clustering (fixed-size cluster key); \
         multi-pass jumps over 90% for w > 4 at a time cost roughly 3x a single pass."
    );
}
