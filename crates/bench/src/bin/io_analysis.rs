//! §3.5 I/O-bound analysis: number of data passes per method, measured.
//!
//! "In the first case, the sorted-neighborhood method, one pass is needed
//! to create keys, log N passes to globally sort the entire database, and
//! one final pass for the window scanning phase. ... In the second case,
//! the clustering method, one pass is needed to assign the records to
//! clusters followed by another pass where each individual cluster is
//! independently processed ... The clustering method, with approximately
//! only 2 passes, would dominate the global sorted-neighborhood method."
//!
//! This binary runs both *disk-resident* engines under a shrinking memory
//! budget and prints the measured pass counts, records moved, and wall
//! time — making the multi-pass I/O cost of §3.5's third case concrete as
//! well (r independent runs multiply everything by r).
//!
//! Usage: `cargo run --release -p mp-bench --bin io_analysis [--records N]`

use merge_purge::KeySpec;
use mp_bench::{header, row, sec_cell, secs, Args};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_extsort::ExternalConfig;
use mp_paper::{ExternalClustering, ExternalSnm};
use mp_rules::NativeEmployeeTheory;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let originals: usize = args.get("records", 30_000);
    let seed: u64 = args.get("seed", 8);
    let w: usize = args.get("window", 10);

    let db = DatabaseGenerator::new(
        GeneratorConfig::new(originals)
            .duplicate_fraction(0.5)
            .max_duplicates_per_record(5)
            .seed(seed),
    )
    .generate();
    let n = db.records.len();

    let work = std::env::temp_dir().join(format!("mp-io-analysis-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create work dir");
    let input = work.join("db.mp");
    mp_record::io::write_records(
        std::fs::File::create(&input).expect("create input"),
        &db.records,
    )
    .expect("write input");

    println!("# §3.5 I/O analysis — {n} records on disk, w = {w}, fan-in 16");
    println!(
        "\nSNM passes = 1 (runs) + ceil(log16(N/M)) (merge levels) + 1 (scan); \
         clustering = 2 always.\n"
    );

    let theory = NativeEmployeeTheory::new();
    header(&[
        "memory budget M",
        "method",
        "data passes",
        "records read",
        "records written",
        "pairs found",
        "wall time",
    ]);
    for m in [n + 1, n / 4, n / 16, n / 64] {
        let config = ExternalConfig {
            memory_records: m,
            fan_in: 16,
            ..ExternalConfig::default()
        };
        let t0 = Instant::now();
        let snm = ExternalSnm::new(KeySpec::last_name_key(), w, config)
            .run(&input, &work, &theory)
            .expect("external snm");
        let snm_time = secs(t0.elapsed());
        row(&[
            m.to_string(),
            "sorted-neighborhood".into(),
            snm.io.data_passes().to_string(),
            snm.io.records_read.to_string(),
            snm.io.records_written.to_string(),
            snm.pairs.len().to_string(),
            sec_cell(snm_time),
        ]);

        let clusters = (n / m.max(1) * 4).clamp(8, 512);
        let t1 = Instant::now();
        match ExternalClustering::new(KeySpec::last_name_key(), clusters, w, config)
            .run(&input, &work, &theory)
        {
            Ok(cl) => {
                let cl_time = secs(t1.elapsed());
                row(&[
                    m.to_string(),
                    format!("clustering ({clusters} clusters)"),
                    cl.io.data_passes().to_string(),
                    cl.io.records_read.to_string(),
                    cl.io.records_written.to_string(),
                    cl.pairs.len().to_string(),
                    sec_cell(cl_time),
                ]);
            }
            Err(e) => {
                // §2.2.1's skew caveat made concrete: a histogram bin is
                // indivisible, so the hottest key prefix bounds how small
                // the memory budget can go.
                row(&[
                    m.to_string(),
                    format!("clustering ({clusters} clusters)"),
                    "infeasible".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("hot cluster exceeds budget ({e})"),
                ]);
            }
        }
    }

    println!(
        "\nPaper shape check: as memory shrinks, SNM pays extra merge passes \
         (2 → 3 → 4 ...) while clustering stays at exactly 2; the multi-pass \
         approach multiplies either count by r = 3 runs."
    );
    let _ = std::fs::remove_dir_all(&work);
}
