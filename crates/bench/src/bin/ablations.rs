//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Key choice** (§2.2/§2.4: "the effectiveness of this approach is
//!    based on the quality of the chosen keys"): accuracy per principal
//!    field, including the deliberately bad SSN-principal key.
//! 2. **Cluster key length** (§3.4's explanation of Fig. 3b): accuracy of
//!    the clustering method as the fixed cluster key grows.
//! 3. **Merge-fused scanning** (§2.2's duplicate-elimination variant):
//!    recall and cost vs the classic separate-phases method.
//! 4. **LPT vs round-robin load balancing** (§4.2): makespan of cluster
//!    assignments under key skew.
//!
//! Usage: `cargo run --release -p mp-bench --bin ablations [--records N]`

use merge_purge::{Evaluation, KeySpec, MultiPass, SortedNeighborhood};
use mp_bench::{fig2_database, header, pct, row, Args};
use mp_paper::{lpt_assign, ClusteringConfig, ClusteringMethod, MergeScanSnm};
use mp_rules::NativeEmployeeTheory;

fn main() {
    let args = Args::from_env();
    let originals: usize = args.get("records", 8_000);
    let seed: u64 = args.get("seed", 11);
    let w: usize = args.get("window", 10);

    let mut db = fig2_database(originals, seed);
    mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
    let n = db.records.len();
    let theory = NativeEmployeeTheory::new();
    println!("# Ablations — {n} records, w = {w}");

    // ---- 1. Key choice -----------------------------------------------------
    println!("\n## 1. Key choice (single pass, w = {w})");
    header(&["principal key", "% detected", "% false positive"]);
    let keys = [
        KeySpec::last_name_key(),
        KeySpec::first_name_key(),
        KeySpec::address_key(),
        KeySpec::ssn_key(),
    ];
    for key in &keys {
        let pass = SortedNeighborhood::new(key.clone(), w).run(&db.records, &theory);
        let eval = Evaluation::score(&MultiPass::close(n, vec![pass]).closed_pairs, &db.truth);
        row(&[
            key.name().to_string(),
            pct(eval.percent_detected),
            format!("{:.3}%", eval.percent_false_positive),
        ]);
    }
    println!(
        "(the ssn key is the §2.4 cautionary tale: transposed digits scatter \
         duplicates across the sort — but exact-SSN duplicates sort perfectly, \
         so its accuracy reflects how many duplicates kept a clean SSN)"
    );

    // ---- 2. Cluster key length ----------------------------------------------
    println!("\n## 2. Fixed cluster-key length (clustering method, 32 clusters)");
    header(&["cluster key chars", "% detected", "gap vs full-key SNM"]);
    let snm_acc = {
        let pass = SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&db.records, &theory);
        Evaluation::score(&MultiPass::close(n, vec![pass]).closed_pairs, &db.truth).percent_detected
    };
    for len in [4usize, 6, 9, 12, 16, 24] {
        let cm = ClusteringMethod::new(
            KeySpec::last_name_key(),
            ClusteringConfig {
                clusters: 32,
                histogram_prefix: 3,
                cluster_key_len: len,
                window: w,
            },
        )
        .run(&db.records, &theory);
        let acc = Evaluation::score(&MultiPass::close(n, vec![cm]).closed_pairs, &db.truth)
            .percent_detected;
        row(&[
            len.to_string(),
            pct(acc),
            format!("{:+.1}pp", acc - snm_acc),
        ]);
    }
    println!("(SNM with the full variable-length key: {snm_acc:.1}%)");

    // ---- 3. Merge-fused scanning ---------------------------------------------
    println!("\n## 3. Classic SNM vs merge-fused scanning (duplicate-elimination variant)");
    header(&["method", "% detected", "comparisons"]);
    for small_w in [3usize, w] {
        let classic =
            SortedNeighborhood::new(KeySpec::last_name_key(), small_w).run(&db.records, &theory);
        let fused = MergeScanSnm::new(KeySpec::last_name_key(), small_w)
            .run_length(32)
            .run(&db.records, &theory);
        for (name, pass) in [("classic", classic), ("merge-fused", fused)] {
            let eval = Evaluation::score(
                &MultiPass::close(n, vec![pass.clone()]).closed_pairs,
                &db.truth,
            );
            row(&[
                format!("{name} (w = {small_w})"),
                pct(eval.percent_detected),
                pass.stats.comparisons.to_string(),
            ]);
        }
    }

    // ---- 4. LPT vs round-robin -------------------------------------------------
    println!("\n## 4. LPT vs round-robin cluster assignment (8 processors)");
    // Cluster sizes from an actual partition of this database.
    let keys_v: Vec<String> = db
        .records
        .iter()
        .map(|r| KeySpec::last_name_key().extract(r))
        .collect();
    let hist = mp_paper::KeyHistogram::from_keys(keys_v.iter().map(String::as_str), 3);
    let part = mp_paper::RangePartition::build(&hist, 100);
    let mut sizes = vec![0u64; part.clusters()];
    for k in &keys_v {
        sizes[part.cluster_of(k)] += 1;
    }
    let procs = 8;
    let lpt = lpt_assign(&sizes, procs);
    // Round-robin: cluster i -> processor i mod P.
    let mut rr_loads = vec![0u64; procs];
    for (i, &s) in sizes.iter().enumerate() {
        rr_loads[i % procs] += s;
    }
    let rr_makespan = rr_loads.iter().copied().max().unwrap_or(0);
    let ideal = sizes.iter().sum::<u64>() as f64 / procs as f64;
    header(&["strategy", "makespan (records)", "vs ideal"]);
    row(&[
        "LPT".into(),
        lpt.makespan().to_string(),
        format!("{:+.1}%", 100.0 * (lpt.makespan() as f64 / ideal - 1.0)),
    ]);
    row(&[
        "round-robin".into(),
        rr_makespan.to_string(),
        format!("{:+.1}%", 100.0 * (rr_makespan as f64 / ideal - 1.0)),
    ]);
}
