//! Structured-tracing integration tests: the counter invariant across every
//! engine configuration, serial/parallel attribution agreement, span-tree
//! shape, Chrome-trace export, and the `--stats -` / `--trace` CLI paths.

use merge_purge::{KeySpec, MultiPass, SortedNeighborhood};
use merge_purge_repro::metrics::MetricsRecorder;
use mp_closure::UnionFind;
use mp_datagen::{DatabaseGenerator, GeneratorConfig};
use mp_extsort::ExternalConfig;
use mp_metrics::chrome_trace_json;
use mp_paper::{
    parallel_multipass_observed, ClusteringConfig, ClusteringMethod, ExternalSnm, MergeScanSnm,
    ParallelPass, ParallelSnm,
};
use mp_rules::NativeEmployeeTheory;
use std::path::PathBuf;
use std::process::Command;

fn db(n: usize, seed: u64) -> mp_datagen::GeneratedDatabase {
    DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.4).seed(seed)).generate()
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-tracing-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Satellite (a): `comparisons == rule_invocations + pairs_pruned` holds at
// pipeline end for every configuration.
// ---------------------------------------------------------------------------

type EngineRun<'a> = Box<dyn Fn(&MetricsRecorder) + 'a>;

#[test]
fn counter_invariant_holds_for_every_engine_configuration() {
    let db = db(900, 41);
    let theory = NativeEmployeeTheory::new();

    let configs: Vec<(&str, EngineRun<'_>)> = vec![
        (
            "single-pass snm",
            Box::new(|r: &MetricsRecorder| {
                SortedNeighborhood::new(KeySpec::last_name_key(), 8).run_observed(
                    &db.records,
                    &theory,
                    r,
                );
            }),
        ),
        (
            "multi-pass unpruned",
            Box::new(|r| {
                MultiPass::standard_three(8).run_observed(&db.records, &theory, r);
            }),
        ),
        (
            "multi-pass pruned",
            Box::new(|r| {
                MultiPass::standard_three(8)
                    .with_pruning()
                    .run_observed(&db.records, &theory, r);
            }),
        ),
        (
            "clustering",
            Box::new(|r| {
                ClusteringMethod::new(KeySpec::last_name_key(), ClusteringConfig::paper_serial(8))
                    .run_observed(&db.records, &theory, r);
            }),
        ),
        (
            "pruned clustered then sorted pass",
            Box::new(|r| {
                let mut uf = UnionFind::new(db.records.len());
                ClusteringMethod::new(KeySpec::last_name_key(), ClusteringConfig::paper_serial(8))
                    .run_pruned_observed(&db.records, &theory, Some(&mut uf), r);
                SortedNeighborhood::new(KeySpec::first_name_key(), 8).run_pruned_observed(
                    &db.records,
                    &theory,
                    Some(&mut uf),
                    r,
                );
            }),
        ),
        (
            "merge-fused snm",
            Box::new(|r| {
                MergeScanSnm::new(KeySpec::last_name_key(), 8).run_observed(
                    &db.records,
                    &theory,
                    r,
                );
            }),
        ),
        (
            "parallel multi-pass",
            Box::new(|r| {
                let passes: Vec<ParallelPass> = KeySpec::standard_three()
                    .into_iter()
                    .map(|k| ParallelPass::Snm(ParallelSnm::new(k, 8, 3)))
                    .collect();
                parallel_multipass_observed(&passes, &db.records, &theory, r);
            }),
        ),
    ];

    for (name, run) in configs {
        let recorder = MetricsRecorder::new();
        run(&recorder);
        recorder
            .check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    // External SNM reads from disk, so it gets its own setup.
    let dir = work_dir("invariant");
    let input = dir.join("db.mp");
    mp_record::io::write_records(std::fs::File::create(&input).unwrap(), &db.records).unwrap();
    let recorder = MetricsRecorder::new();
    ExternalSnm::new(
        KeySpec::last_name_key(),
        8,
        ExternalConfig {
            memory_records: 100,
            fan_in: 4,
            ..ExternalConfig::default()
        },
    )
    .run_observed(&input, &dir, &theory, &recorder)
    .unwrap();
    recorder
        .check_invariants()
        .unwrap_or_else(|e| panic!("external snm: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Satellite (c): serial and parallel runs produce identical attribution.
// ---------------------------------------------------------------------------

#[test]
fn serial_and_parallel_runs_produce_identical_attribution() {
    let db = db(1_000, 42);
    let theory = NativeEmployeeTheory::new();
    let w = 9;

    let serial_rec = MetricsRecorder::new();
    let serial = MultiPass::standard_three(w).run_observed(&db.records, &theory, &serial_rec);

    let passes: Vec<ParallelPass> = KeySpec::standard_three()
        .into_iter()
        .map(|k| ParallelPass::Snm(ParallelSnm::new(k, w, 4)))
        .collect();
    let parallel_rec = MetricsRecorder::new().with_tracing();
    let parallel = parallel_multipass_observed(&passes, &db.records, &theory, &parallel_rec);

    // Attribution is a pure function of the per-pass pair sets, which the
    // band-replicated fragments reproduce exactly — so provenance, not just
    // totals, must agree between the engines.
    assert_eq!(serial.attribution, parallel.attribution);
    let first_found: u64 = serial
        .attribution
        .passes
        .iter()
        .map(|p| p.pairs_first_found)
        .sum();
    assert_eq!(first_found, serial.attribution.distinct_matched_pairs);
    assert!(serial.attribution.distinct_matched_pairs > 0);
}

// ---------------------------------------------------------------------------
// Span trees: shape of the serial run, one track per thread in parallel
// runs, and a Perfetto-loadable Chrome export.
// ---------------------------------------------------------------------------

#[test]
fn serial_multipass_span_tree_has_expected_shape() {
    let db = db(600, 43);
    let theory = NativeEmployeeTheory::new();
    let recorder = MetricsRecorder::new().with_tracing();
    let _ = MultiPass::standard_three(6).run_observed(&db.records, &theory, &recorder);

    let tracks = recorder.drain_spans();
    // The run's own track, then each pass's scan bands past the first, one
    // per further core, each on a fresh `scan-K` thread.
    let bands = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(tracks.len(), 1 + 3 * (bands - 1), "one track per scan band");
    let mut lanes: Vec<(String, &str, Option<String>)> = tracks[1..]
        .iter()
        .flat_map(|t| {
            t.spans
                .iter()
                .map(|s| (t.thread_name.clone(), s.name, s.label.clone()))
        })
        .collect();
    lanes.sort();
    let mut want: Vec<_> = (0..3)
        .flat_map(|_| 1..bands)
        .map(|k| {
            (
                format!("scan-{k}"),
                "window_scan",
                Some(format!("band={k}")),
            )
        })
        .collect();
    want.sort();
    assert_eq!(lanes, want, "each band's scan on its own lane");
    let roots = tracks[0].tree();
    let pass_nodes: Vec<_> = roots.iter().filter(|n| n.name == "pass").collect();
    assert_eq!(pass_nodes.len(), 3);
    for pass in &pass_nodes {
        let children: Vec<&str> = pass.children.iter().map(|c| c.name).collect();
        assert_eq!(
            children,
            ["key_build", "sort", "window_scan"],
            "pass phases in order"
        );
        assert!(pass.label.as_deref().unwrap_or("").contains("w=6"));
        // Band 0 scans on this thread, then the fold replays the others.
        let scan: Vec<_> = pass.children[2]
            .children
            .iter()
            .map(|c| (c.name, c.label.clone().unwrap_or_default()))
            .collect();
        assert_eq!(scan.len(), 2);
        assert_eq!(scan[0], ("window_scan", "band=0".to_string()));
        assert_eq!(scan[1].0, "scan_fold");
        assert!(scan[1].1.starts_with("deferred="), "{scan:?}");
        // Children nest inside the parent's time interval.
        for c in &pass.children {
            assert!(c.start_ns >= pass.start_ns);
            assert!(c.start_ns + c.dur_ns <= pass.start_ns + pass.dur_ns + 1_000);
        }
    }
    assert_eq!(
        roots.iter().filter(|n| n.name == "closure_merge").count(),
        1
    );

    // A second drain yields nothing: the collector is consumed.
    assert!(recorder.drain_spans().is_empty());
}

#[test]
fn parallel_run_records_one_track_per_thread_and_exports_chrome_trace() {
    let db = db(800, 44);
    let theory = NativeEmployeeTheory::new();
    let procs = 3;
    let passes: Vec<ParallelPass> = KeySpec::standard_three()
        .into_iter()
        .map(|k| ParallelPass::Snm(ParallelSnm::new(k, 7, procs)))
        .collect();

    let recorder = MetricsRecorder::new().with_tracing();
    let _ = parallel_multipass_observed(&passes, &db.records, &theory, &recorder);
    let tracks = recorder.drain_spans();

    // Pass 0 runs on the calling thread and passes 1 and 2 on lanes
    // `pass-1` and `pass-2`; every pass scans band 0 on its own thread and
    // band K on a `scan-K` thread of its own.
    let lanes = 1 + (passes.len() - 1) + passes.len() * (procs - 1);
    assert_eq!(tracks.len(), lanes, "one track per thread");
    let spans = |t: &mp_metrics::TrackSpans| -> Vec<String> {
        t.spans
            .iter()
            .map(|s| match &s.label {
                Some(label) if s.name != "pass" => format!("{} {label}", s.name),
                _ => s.name.to_string(),
            })
            .collect()
    };
    let pass = [
        "pass",
        "key_build",
        "sort",
        "window_scan",
        "window_scan band=0",
        "scan_fold deferred=0",
    ]
    .map(String::from);
    let run = [
        &["run".to_string()],
        &pass[..],
        &["closure_merge".to_string()],
    ]
    .concat();
    assert_eq!(spans(&tracks[0]), run, "the run, pass 0 and the closure");
    let mut got: Vec<(String, Vec<String>)> = tracks[1..]
        .iter()
        .map(|t| (t.thread_name.clone(), spans(t)))
        .collect();
    got.sort();
    let mut want: Vec<(String, Vec<String>)> = (1..passes.len())
        .map(|p| (format!("pass-{p}"), pass.to_vec()))
        .chain((0..passes.len()).flat_map(|_| {
            (1..procs).map(|k| (format!("scan-{k}"), vec![format!("window_scan band={k}")]))
        }))
        .collect();
    want.sort();
    assert_eq!(got, want, "a lane per pass after the first and per band");
    let all_names: Vec<&str> = tracks
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.name))
        .collect();

    let json = chrome_trace_json(&tracks);
    // One thread_name metadata event per track, complete events for spans,
    // and distinct tids so Perfetto renders one horizontal track each.
    assert_eq!(
        json.matches("\"ph\":\"M\"").count(),
        tracks.len(),
        "thread metadata per track"
    );
    assert!(json.matches("\"ph\":\"X\"").count() >= all_names.len());
    for t in &tracks {
        assert!(json.contains(&format!("\"tid\":{}", t.track)));
    }
}

// ---------------------------------------------------------------------------
// CLI: `--stats -` writes the report to stdout; `--trace` writes a Chrome
// trace with complete events; attribution + rules render before phases_ns
// (inside the deterministic section).
// ---------------------------------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mergepurge"))
}

#[test]
fn cli_stats_dash_prints_report_to_stdout_and_trace_loads() {
    let dir = work_dir("cli");
    let db = dir.join("db.mp");
    let trace = dir.join("trace.json");
    let out = bin()
        .args(["generate", "--out", db.to_str().unwrap()])
        .args(["--records", "2000", "--duplicates", "0.3", "--seed", "11"])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["dedupe", "--input", db.to_str().unwrap()])
        .args([
            "--stats",
            "-",
            "--trace",
            trace.to_str().unwrap(),
            "--progress",
        ])
        .output()
        .expect("run dedupe");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // With `--stats -` stdout is pure JSON: human output goes to stderr.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{stdout}");
    for section in [
        "\"schema\": 3",
        "\"counters\"",
        "\"attribution\"",
        "\"rules\"",
        "\"phases_ns\"",
        "\"latency\"",
        "\"span_tree\"",
    ] {
        assert!(json.contains(section), "missing {section} in:\n{json}");
    }
    // Deterministic sections precede wall-clock ones.
    let phases_at = json.find("\"phases_ns\"").unwrap();
    assert!(json.find("\"attribution\"").unwrap() < phases_at);
    assert!(json.find("\"rules\"").unwrap() < phases_at);
    assert!(json.find("\"latency\"").unwrap() > phases_at);
    // Quantiles made it into the latency section.
    for q in ["\"p50_ns\"", "\"p95_ns\"", "\"p99_ns\""] {
        assert!(json.contains(q), "missing {q}");
    }

    // The progress heartbeat went to stderr, not stdout.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("progress:"), "{stderr}");
    assert!(!stdout.contains("progress:"));

    // The Chrome trace is JSON with >0 complete events and named tracks.
    let trace_json = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_json.contains("\"traceEvents\""));
    assert!(trace_json.matches("\"ph\":\"X\"").count() > 0);
    assert!(trace_json.contains("\"thread_name\""));

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden file: the deterministic section of the seeded 10k report is
// checked in; any counter, attribution, or rule-count drift fails here.
// ---------------------------------------------------------------------------

#[test]
fn seeded_10k_deterministic_section_matches_golden_file() {
    let dir = work_dir("golden");
    let db = dir.join("db10k.mp");
    let stats = dir.join("stats.json");
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
    let deterministic = json.split("\"phases_ns\"").next().unwrap();
    let golden = include_str!("golden/stats_10k_counters.json");
    assert_eq!(
        deterministic, golden,
        "deterministic report section drifted from tests/golden/stats_10k_counters.json; \
         if the change is intentional, regenerate the golden file (see docs/TRACING.md)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
