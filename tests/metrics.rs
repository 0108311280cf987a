//! Pipeline instrumentation: exact counter values, sequential/parallel
//! agreement, and byte-identical `--stats` output across runs.

use merge_purge::{KeySpec, MergePurge, MultiPass, SortedNeighborhood};
use merge_purge_repro::metrics::{Counter, MetricsRecorder};
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_paper::{parallel_multipass_observed, ParallelPass, ParallelSnm};
use mp_rules::NativeEmployeeTheory;
use std::path::PathBuf;
use std::process::Command;

fn db_1k() -> mp_datagen::GeneratedDatabase {
    DatabaseGenerator::new(
        GeneratorConfig::new(1_000)
            .duplicate_fraction(0.4)
            .seed(20260807),
    )
    .generate()
}

/// §3.5 cost model: a w-window scan over N sorted records performs
/// Σ_{i=1}^{N−1} min(i, w−1) = (w−1)(N − w/2) comparisons for N ≥ w.
fn snm_comparisons(n: u64, w: u64) -> u64 {
    (1..n).map(|i| i.min(w - 1)).sum()
}

#[test]
fn single_pass_snm_counters_are_exact() {
    let db = db_1k();
    let theory = NativeEmployeeTheory::new();
    let n = db.records.len() as u64;
    let w = 10u64;

    let recorder = MetricsRecorder::new();
    let result = SortedNeighborhood::new(KeySpec::last_name_key(), w as usize).run_observed(
        &db.records,
        &theory,
        &recorder,
    );

    assert_eq!(recorder.get(Counter::RecordsKeyed), n);
    // Exact closed-form comparison count, cross-checked against the pass's
    // own accounting.
    assert_eq!(recorder.get(Counter::Comparisons), snm_comparisons(n, w));
    assert_eq!(recorder.get(Counter::Comparisons), result.stats.comparisons);
    assert_eq!(
        recorder.get(Counter::Comparisons),
        (w - 1) * n - (w - 1) * w / 2
    );
    assert_eq!(
        recorder.get(Counter::RuleInvocations),
        recorder.get(Counter::Comparisons)
    );
    assert_eq!(recorder.get(Counter::Matches), result.pairs.len() as u64);
    assert!(
        recorder.get(Counter::Matches) > 0,
        "seeded DB must contain matches"
    );
    // No closure ran.
    assert_eq!(recorder.get(Counter::ClosureInputPairs), 0);
    assert_eq!(recorder.get(Counter::ClosedPairs), 0);
}

#[test]
fn three_pass_multipass_counters_are_exact() {
    let db = db_1k();
    let theory = NativeEmployeeTheory::new();
    let n = db.records.len() as u64;
    let w = 8u64;

    let recorder = MetricsRecorder::new();
    let result =
        MultiPass::standard_three(w as usize).run_observed(&db.records, &theory, &recorder);

    assert_eq!(result.passes.len(), 3);
    assert_eq!(recorder.get(Counter::RecordsKeyed), 3 * n);
    assert_eq!(
        recorder.get(Counter::Comparisons),
        3 * snm_comparisons(n, w)
    );
    let per_pass: u64 = result.passes.iter().map(|p| p.stats.comparisons).sum();
    assert_eq!(recorder.get(Counter::Comparisons), per_pass);
    let matches: u64 = result.passes.iter().map(|p| p.pairs.len() as u64).sum();
    assert_eq!(recorder.get(Counter::Matches), matches);

    // Closure accounting: every pass pair goes in; a pair is "deduped" when
    // its endpoints were already connected; successful unions are exactly
    // Σ (|class| − 1); the closed pair count is Σ C(|class|, 2).
    assert_eq!(recorder.get(Counter::ClosureInputPairs), matches);
    let union_successes: u64 = result.classes.iter().map(|c| c.len() as u64 - 1).sum();
    assert_eq!(
        recorder.get(Counter::ClosureDedupedPairs),
        matches - union_successes
    );
    let closed: u64 = result
        .classes
        .iter()
        .map(|c| (c.len() * (c.len() - 1) / 2) as u64)
        .sum();
    assert_eq!(recorder.get(Counter::ClosedPairs), closed);
    assert_eq!(
        recorder.get(Counter::ClosedPairs),
        result.closed_pairs.len() as u64
    );
}

#[test]
fn counters_are_deterministic_across_runs() {
    let db = db_1k();
    let theory = NativeEmployeeTheory::new();
    let mut reports = Vec::new();
    for _ in 0..2 {
        let recorder = MetricsRecorder::new();
        let _ = MultiPass::standard_three(10).run_observed(&db.records, &theory, &recorder);
        let counters: Vec<(Counter, u64)> =
            Counter::ALL.iter().map(|&c| (c, recorder.get(c))).collect();
        reports.push(counters);
    }
    assert_eq!(reports[0], reports[1]);
}

#[test]
fn sequential_and_parallel_match_counts_agree() {
    let db = db_1k();
    let theory = NativeEmployeeTheory::new();
    let w = 9;

    let sequential = MetricsRecorder::new();
    let serial = MultiPass::standard_three(w).run_observed(&db.records, &theory, &sequential);

    let passes: Vec<ParallelPass> = KeySpec::standard_three()
        .into_iter()
        .map(|k| ParallelPass::Snm(ParallelSnm::new(k, w, 4)))
        .collect();
    let concurrent = MetricsRecorder::new();
    let parallel = parallel_multipass_observed(&passes, &db.records, &theory, &concurrent);

    assert_eq!(
        sequential.get(Counter::Matches),
        concurrent.get(Counter::Matches)
    );
    assert_eq!(
        sequential.get(Counter::Comparisons),
        concurrent.get(Counter::Comparisons)
    );
    assert_eq!(
        sequential.get(Counter::ClosedPairs),
        concurrent.get(Counter::ClosedPairs)
    );
    assert_eq!(serial.closed_pairs.sorted(), parallel.closed_pairs.sorted());
}

#[test]
fn full_pipeline_report_names_every_counter() {
    let mut db = db_1k();
    let theory = NativeEmployeeTheory::new();
    let recorder = MetricsRecorder::new();
    let _ = MergePurge::new(&theory)
        .pass(KeySpec::last_name_key(), 10)
        .pass(KeySpec::first_name_key(), 10)
        .run_observed(&mut db.records, &recorder);
    let report = recorder.report();
    for c in Counter::ALL {
        assert_eq!(
            report.counter(c.name()),
            Some(recorder.get(c)),
            "{}",
            c.name()
        );
    }
    assert!(report.to_json().contains("\"comparisons\""));
}

// ---------------------------------------------------------------------------
// CLI: `mergepurge --stats` emits byte-identical counters across runs.
// ---------------------------------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mergepurge"))
}

/// A directory of the calling test's own: tests run on parallel threads
/// and each removes its directory when it ends.
fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-metrics-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The counters section of a `--stats` report (everything before the
/// phase timings, which legitimately vary run to run).
fn counters_section(json: &str) -> String {
    json.split("\"phases_ns\"").next().unwrap().to_string()
}

#[test]
fn stats_counters_byte_identical_across_cli_runs() {
    let dir = work_dir("identical");
    let db = dir.join("db10k.mp");
    let out = bin()
        .args(["generate", "--out", db.to_str().unwrap()])
        .args(["--records", "10000", "--duplicates", "0.3", "--seed", "7"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut sections = Vec::new();
    for run in 0..2 {
        let stats = dir.join(format!("stats-{run}.json"));
        let out = bin()
            .args(["dedupe", "--input", db.to_str().unwrap()])
            .args(["--stats", stats.to_str().unwrap()])
            .output()
            .expect("run dedupe");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&stats).unwrap();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"phases_ns\""), "{json}");
        sections.push(counters_section(&json));
    }
    assert_eq!(
        sections[0], sections[1],
        "counter sections must be byte-identical"
    );
    // Sanity: real work was counted.
    assert!(sections[0].contains("\"records_keyed\""));
    assert!(!sections[0].contains("\"comparisons\": 0,"));
    assert!(
        counter_value(&sections[0], "radix_passes") > 0,
        "dedupe orders its keys with the radix sort"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Extracts one counter value from a `--stats` JSON report.
fn counter_value(json: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\": ");
    let idx = json
        .find(&pat)
        .unwrap_or_else(|| panic!("counter {name} missing from report"));
    json[idx + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn pruned_cli_run_skips_rule_work_but_matches_unpruned_pairs() {
    let dir = work_dir("prune");
    let db = dir.join("db10k.mp");
    let out = bin()
        .args(["generate", "--out", db.to_str().unwrap()])
        .args(["--records", "10000", "--duplicates", "0.3", "--seed", "7"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut reports = Vec::new();
    let mut pairs = Vec::new();
    for mode in ["pruned", "plain"] {
        let stats = dir.join(format!("stats-{mode}.json"));
        let pairs_out = dir.join(format!("pairs-{mode}.txt"));
        let mut cmd = bin();
        cmd.args(["dedupe", "--input", db.to_str().unwrap()])
            .args(["--stats", stats.to_str().unwrap()])
            .args(["--pairs-out", pairs_out.to_str().unwrap()]);
        if mode == "plain" {
            cmd.arg("--no-prune");
        }
        let out = cmd.output().expect("run dedupe");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        reports.push(std::fs::read_to_string(&stats).unwrap());
        pairs.push(std::fs::read(&pairs_out).unwrap());
    }
    let (pruned, plain) = (&reports[0], &reports[1]);

    // The final answer is byte-identical; only the work differs.
    assert_eq!(pairs[0], pairs[1], "closed pairs must not change");
    assert_eq!(
        counter_value(pruned, "comparisons"),
        counter_value(plain, "comparisons"),
        "pruning must not change the candidate pair count"
    );
    assert!(counter_value(pruned, "pairs_pruned") > 0);
    assert_eq!(counter_value(plain, "pairs_pruned"), 0);
    assert!(
        counter_value(pruned, "rule_invocations") < counter_value(plain, "rule_invocations"),
        "pruning must evaluate strictly fewer pairs"
    );
    assert_eq!(
        counter_value(pruned, "rule_invocations") + counter_value(pruned, "pairs_pruned"),
        counter_value(pruned, "comparisons")
    );

    let _ = std::fs::remove_dir_all(&dir);
}
