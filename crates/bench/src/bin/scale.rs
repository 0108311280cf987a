//! Scale benchmark: records/second for the full multi-pass merge/purge
//! at 100k / 1M / 10M records, across execution engines.
//!
//! Legs per size:
//!
//! * `serial`   — in-memory [`MultiPass`]
//! * `parallel` — banded [`mp_paper`] passes (all cores)
//! * `extsort`  — disk-spilling [`BulkLoader`] under a memory budget (the
//!   `mergepurge load` pipeline)
//!
//! Every leg must close the *identical* pair set at every size it runs —
//! the benchmark asserts this, so a run doubles as an equivalence check.
//! Rows carry `"strategy": "radix"` (the one key sort) so they share a
//! schema with the committed rows from when the sort was selectable.
//!
//! Usage:
//!   cargo run --release -p mp-bench --bin scale -- \
//!     [--sizes 100000,1000000,10000000] [--window 10] [--seed 11] \
//!     [--memory-budget 1000000] [--out BENCH_scale.json] [--append] \
//!     [--truth]
//!
//! `--sizes` takes *total* record counts (originals + duplicates are
//! derived to land near each total). `--append` merges new entries into
//! an existing report instead of overwriting — the CI scale-smoke job
//! uses it to keep the 100k leg fresh without discarding the big runs.
//! `--truth` scores the closed pairs against the generator's ground
//! truth (the paper's Fig. 2 metrics) and adds the accuracy fields to
//! every entry, so a scale run reports accuracy alongside throughput.

use merge_purge::{Evaluation, KeySpec, MultiPass};
use mp_bench::Args;
use mp_closure::PairSet;
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_extsort::{BulkLoader, ExternalConfig};
use mp_paper::{parallel_multipass, ParallelPass, ParallelSnm};
use mp_rules::NativeEmployeeTheory;
use std::path::Path;
use std::time::Instant;

fn keys() -> Vec<KeySpec> {
    vec![KeySpec::last_name_key(), KeySpec::first_name_key()]
}

const ENGINES: [&str; 3] = ["serial", "parallel", "extsort"];

struct Outcome {
    wall_secs: f64,
    pairs: Vec<(u32, u32)>,
    comparisons: u64,
    data_passes: u32,
}

fn run_leg(
    engine: &str,
    records: &[mp_record::Record],
    input: &Path,
    work: &Path,
    window: usize,
    budget: usize,
    theory: &NativeEmployeeTheory,
) -> Outcome {
    let t0 = Instant::now();
    match engine {
        "serial" => {
            let mut mp = MultiPass::new();
            for key in keys() {
                mp = mp.sorted(key, window);
            }
            let r = mp.run(records, theory);
            Outcome {
                wall_secs: t0.elapsed().as_secs_f64(),
                pairs: r.closed_pairs.sorted(),
                comparisons: r.passes.iter().map(|p| p.stats.comparisons).sum(),
                data_passes: 0,
            }
        }
        "parallel" => {
            let procs = std::thread::available_parallelism().map_or(1, |p| p.get());
            let passes: Vec<ParallelPass> = keys()
                .into_iter()
                .map(|k| ParallelPass::Snm(ParallelSnm::new(k, window, procs)))
                .collect();
            let r = parallel_multipass(&passes, records, theory);
            Outcome {
                wall_secs: t0.elapsed().as_secs_f64(),
                pairs: r.closed_pairs.sorted(),
                comparisons: r.passes.iter().map(|p| p.stats.comparisons).sum(),
                data_passes: 0,
            }
        }
        "extsort" => {
            let config = ExternalConfig {
                memory_records: budget,
                ..ExternalConfig::default()
            };
            let mut loader = BulkLoader::new(config);
            for key in keys() {
                loader = loader.pass(key, window);
            }
            let mut r = loader.load(input, work, theory).expect("extsort leg");
            // BulkOutcome carries the *matched* pairs; expand the closure
            // into closed pairs so the identity check compares like with
            // like (MultiPassResult::closed_pairs is post-closure).
            let mut pairs = Vec::new();
            for class in r.closure.classes() {
                for i in 0..class.len() {
                    for j in i + 1..class.len() {
                        pairs.push((class[i], class[j]));
                    }
                }
            }
            pairs.sort_unstable();
            Outcome {
                wall_secs: t0.elapsed().as_secs_f64(),
                pairs,
                comparisons: r.comparisons,
                data_passes: r.stats.io.data_passes(),
            }
        }
        other => panic!("unknown engine {other}"),
    }
}

/// One report entry, rendered as a single JSON object line. With
/// `--truth` the entry also carries the Fig. 2 accuracy metrics (shared
/// by all legs of a size: the pairs are asserted identical).
fn entry_json(
    total: usize,
    engine: &str,
    o: &Outcome,
    window: usize,
    budget: usize,
    eval: Option<&Evaluation>,
) -> String {
    let accuracy = eval.map_or(String::new(), |e| {
        format!(
            ", \"percent_detected\": {:.2}, \"percent_false_positive\": {:.3}, \
             \"percent_precision\": {:.2}",
            e.percent_detected,
            e.percent_false_positive,
            e.percent_precision(),
        )
    });
    format!(
        "  {{\"records\": {total}, \"engine\": \"{engine}\", \"strategy\": \"radix\", \
         \"window\": {window}, \"memory_budget\": {budget}, \
         \"wall_secs\": {:.3}, \"records_per_sec\": {:.0}, \
         \"closed_pairs\": {}, \"comparisons\": {}, \"data_passes\": {}{accuracy}}}",
        o.wall_secs,
        total as f64 / o.wall_secs.max(1e-9),
        o.pairs.len(),
        o.comparisons,
        o.data_passes,
    )
}

/// Writes `entries` as a JSON array; with `append`, merges before the
/// closing bracket of an existing array file.
fn write_report(out: &str, entries: &[String], append: bool) {
    let body = entries.join(",\n");
    let existing = append.then(|| std::fs::read_to_string(out).ok()).flatten();
    let doc = match existing {
        Some(text) => {
            let trimmed = text.trim_end();
            let head = trimmed
                .strip_suffix(']')
                .expect("existing report must be a JSON array")
                .trim_end()
                .trim_end_matches(',');
            if head.trim() == "[" {
                format!("[\n{body}\n]\n")
            } else {
                format!("{head},\n{body}\n]\n")
            }
        }
        None => format!("[\n{body}\n]\n"),
    };
    std::fs::write(out, doc).expect("write bench report");
    println!("wrote {out}");
}

fn main() {
    let args = Args::from_env();
    let sizes_raw: String = args.get("sizes", "100000,1000000,10000000".to_string());
    let sizes: Vec<usize> = sizes_raw
        .split(',')
        .map(|s| s.trim().parse().expect("--sizes takes record counts"))
        .collect();
    let window: usize = args.get("window", 10);
    let seed: u64 = args.get("seed", 11);
    let budget: usize = args.get("memory-budget", 1_000_000);
    let out: String = args.get("out", "BENCH_scale.json".to_string());
    let append = args.has("append");
    let score_truth = args.has("truth");

    let theory = NativeEmployeeTheory::new();
    let work_root = std::env::temp_dir().join(format!("mp-scale-{}", std::process::id()));
    std::fs::create_dir_all(&work_root).expect("create work root");
    let mut entries = Vec::new();

    for &total in &sizes {
        // duplicate_fraction 0.4 with max 5 per original lands the
        // generated total ~1.36x the originals; solve for the originals.
        let originals = (total as f64 / 1.36) as usize;
        let t0 = Instant::now();
        let db = DatabaseGenerator::new(
            GeneratorConfig::new(originals)
                .duplicate_fraction(0.4)
                .seed(seed),
        )
        .generate();
        let n = db.records.len();
        let input = work_root.join(format!("db-{total}.mp"));
        mp_record::io::write_records(
            std::fs::File::create(&input).expect("create input"),
            &db.records,
        )
        .expect("write input");
        println!(
            "\n# scale {n} records (asked {total}), generated + written in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        println!(
            "{:<22} {:>12} {:>14} {:>14} {:>12}",
            "leg", "wall", "records/s", "comparisons", "data passes"
        );

        let mut reference: Option<Vec<(u32, u32)>> = None;
        let mut eval: Option<Evaluation> = None;
        for engine in ENGINES {
            let work = work_root.join(format!("work-{total}-{engine}"));
            std::fs::create_dir_all(&work).expect("create leg work dir");
            let o = run_leg(engine, &db.records, &input, &work, window, budget, &theory);
            let _ = std::fs::remove_dir_all(&work);
            println!(
                "{engine:<22} {:>11.2}s {:>14.0} {:>14} {:>12}",
                o.wall_secs,
                n as f64 / o.wall_secs.max(1e-9),
                o.comparisons,
                o.data_passes,
            );
            match &reference {
                None => {
                    // Score once per size: every later leg is asserted to
                    // close the identical pair set, so the accuracy is a
                    // property of the size, not the leg.
                    if score_truth {
                        let found: PairSet = o.pairs.iter().copied().collect();
                        eval = Some(Evaluation::score(&found, &db.truth));
                    }
                    reference = Some(o.pairs.clone());
                }
                Some(want) => assert_eq!(
                    want, &o.pairs,
                    "{engine} closed different pairs at {n} records"
                ),
            }
            entries.push(entry_json(n, engine, &o, window, budget, eval.as_ref()));
        }
        println!("closed pairs identical across all {} legs", ENGINES.len());
        if let Some(e) = &eval {
            println!(
                "accuracy: detected {:.1}%   false-positive {:.3}%   precision {:.1}%   \
                 ({} true pairs)",
                e.percent_detected,
                e.percent_false_positive,
                e.percent_precision(),
                e.true_pairs,
            );
        }
        let _ = std::fs::remove_file(&input);
    }

    let _ = std::fs::remove_dir_all(&work_root);
    write_report(&out, &entries, append);
}
