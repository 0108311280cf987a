//! `mp-ledger-layers` — the per-layer half of the ledger benchmark.
//!
//! Called by the harness during a traced run with that run's own generated
//! files. It links the library crates, calls each layer's *public*
//! functions on those inputs, records a span around every call, and writes
//! one JSON document (`metrics`, `checks`, `notes`, `spans`) for the harness
//! to merge. Nothing inside the library is instrumented.
//!
//! The centre piece is the *staged replay*: the exact work of
//! `MergePurge::run` rebuilt call by call from public layer functions
//! (condition → per key: extract, sort, pruned scan → closure). Its layer
//! spans must add up to the in-process pipeline's wall time
//! (`ledger.coverage_share`), and that plus parsing must explain the
//! `dedupe` process the harness timed from outside.

mod args;
mod ledger;

use args::Args;
use ledger::Ledger;
use merge_purge::incremental::IncrementalMergePurge;
use merge_purge::snm::{PassResult, PassStats};
use merge_purge::window::{window_scan, window_scan_pruned};
use merge_purge::{sorted_order_radix, CostModel, KeyArena, KeySpec, MergePurge, MultiPass};
use merge_purge_repro::serve::{ingest_request, json::Json as WireJson};
use mp_closure::{PairSet, UnionFind};
use mp_extsort::{BulkLoader, ExternalConfig, ExternalSorter};
use mp_ledger::check::fnv1a;
use mp_ledger::pipeline::SplitMix;
use mp_ledger::stats::median;
use mp_metrics::{MetricsRecorder, NoopObserver, Phase};
use mp_parallel::{parallel_multipass, ParallelPass, ParallelSnm};
use mp_record::{io as rio, normalize, NicknameTable, Record};
use mp_rules::{
    CompiledTheory, EquationalTheory, NativeEmployeeTheory, Plan, RuleProgram, EMPLOYEE_RULES_SRC,
};
use mp_store::{Journal, MatchStore};
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;

/// Adjacent input pairs the CLI calibrates the rule planner on.
const CALIBRATION_PAIRS: usize = 2_048;
/// Near-neighbour pairs sampled for the kernel and theory timings.
const SAMPLED_PAIRS: usize = 60_000;
/// Calls a micro-timed kernel must make for its span to mean anything.
const MIN_CALLS: usize = 200_000;
/// Below this pipeline wall time (a `--smoke` run) two runs of the same work
/// differ by more than the ledger's 10% tolerance from cache warmth alone.
const MIN_JUDGEABLE_S: f64 = 0.5;

/// A theory that never matches: scanning with it costs the loop and the
/// `records[order[i]]` gather and nothing else.
struct NeverMatches;

impl EquationalTheory for NeverMatches {
    fn matches(&self, a: &Record, b: &Record) -> bool {
        // Touch both records so the gather cannot be optimised away.
        black_box(a.id.0 ^ b.id.0);
        false
    }

    fn name(&self) -> &str {
        "never-matches"
    }
}

fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    rio::read_records(BufReader::new(file)).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// The comparison sort `SortedNeighborhood` uses (its helper is private):
/// a stable index sort by key.
fn comparison_order(keys: &KeyArena) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_by(|&a, &b| keys.get(a as usize).cmp(keys.get(b as usize)));
    order
}

/// The compiled theory exactly as `mergepurge dedupe --theory dsl-compiled`
/// builds it: plan calibrated on adjacent pairs of the raw input.
fn compiled_as_cli(raw: &[Record]) -> CompiledTheory {
    let program = RuleProgram::compile(EMPLOYEE_RULES_SRC).expect("built-in rules compile");
    let n = (raw.len() - 1).min(CALIBRATION_PAIRS);
    let pairs: Vec<(&Record, &Record)> = (0..n).map(|i| (&raw[i], &raw[i + 1])).collect();
    CompiledTheory::from_program(&program, Some(&Plan::calibrated(&program, &pairs)))
}

fn main() -> std::process::ExitCode {
    match real_main() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mp-ledger-layers: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1).collect())?;
    let mut l = Ledger::new();
    let keys = KeySpec::standard_three();
    let w = args.window;
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("mkdir {}: {e}", args.work.display()))?;

    // ---- record: parse and condition -------------------------------------
    let (raw, parse_s) = l.time("record.parse", || read_records(&args.base));
    let raw = raw?;
    let n = raw.len();
    if n < 2 * w {
        return Err(format!("{n} records are too few for window {w}"));
    }
    l.metric("record.parse_ns_per_record", "ns", parse_s * 1e9 / n as f64);

    let native = NativeEmployeeTheory::new();
    let (compiled, calibrate_and_compile_s) =
        l.time("rules.compile_calibrated", || compiled_as_cli(&raw));
    let theory: &dyn EquationalTheory = match args.theory.as_str() {
        "native" => &native,
        "dsl-compiled" => &compiled,
        other => return Err(format!("unknown theory {other:?}")),
    };

    // ---- the in-process pipeline, as the CLI calls it ----------------------
    // Timed once before and once after the staged replay: the host drifts by
    // tens of percent within seconds, and the mean of the two brackets cancels
    // a drift that the replay in between also saw.
    let pipeline = |l: &mut Ledger| {
        let mut piped = raw.clone();
        l.time("core.multipass", || {
            let mut p = MergePurge::new(theory);
            for key in &keys {
                p = p.pass(key.clone(), w);
            }
            p.run(&mut piped)
        })
    };
    let (result, before_s) = pipeline(&mut l);

    // ---- the staged replay: the same work from public layer calls ---------
    let staged = l.begin("ledger.staged_replay");
    let mut records = raw.clone();
    let nicknames = NicknameTable::standard();
    let ((), condition_s) = l.time_in(staged, "record.condition", || {
        normalize::condition_all(&mut records, &nicknames)
    });
    l.metric(
        "record.condition_ns_per_record",
        "ns",
        condition_s * 1e9 / n as f64,
    );
    let mut uf = UnionFind::new(n);
    let (mut key_s, mut sort_s, mut scan_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut comparisons, mut evaluations, mut pruned, mut matches) = (0u64, 0u64, 0u64, 0u64);
    let mut passes = Vec::new();
    let mut orders = Vec::new();
    for key in &keys {
        let (arena, t) = l.time_in(staged, "core.key.extract", || {
            KeyArena::extract(key, &records)
        });
        key_s.push(t);
        let (order, t) = l.time_in(staged, "core.sort.comparison", || comparison_order(&arena));
        sort_s.push(t);
        let mut pairs = PairSet::new();
        let (counts, t) = l.time_in(staged, "core.window.scan_pruned", || {
            window_scan_pruned(&records, &order, w, theory, &mut uf, &mut pairs)
        });
        scan_s.push(t);
        comparisons += counts.comparisons;
        evaluations += counts.rule_evaluations;
        pruned += counts.pairs_pruned;
        matches += pairs.len() as u64;
        passes.push(PassResult {
            key_name: key.name().to_string(),
            window: w,
            pairs,
            stats: PassStats::default(),
            worker_comparisons: vec![counts.comparisons],
        });
        orders.push((arena, order));
    }
    let (closed, close_s) = l.time_in(staged, "closure.close", || MultiPass::close(n, passes));
    l.end(staged);
    let (again, after_s) = pipeline(&mut l);
    l.check(
        "MergePurge::run closes to the same pairs twice",
        again.closed_pairs.len() == result.closed_pairs.len(),
    );
    drop(again);
    let multipass_s = (before_s + after_s) / 2.0;
    l.metric("core.multipass_s", "s", multipass_s);
    let layer_sum = condition_s + key_s.iter().chain(&sort_s).chain(&scan_s).sum::<f64>() + close_s;
    let coverage = layer_sum / multipass_s;
    l.metric("ledger.coverage_share", "ratio", coverage);
    if multipass_s >= MIN_JUDGEABLE_S {
        l.check(
            &format!(
                "ledger.coverage_share {coverage:.3} is at least 0.90 of the in-process pipeline"
            ),
            coverage >= 0.90,
        );
    } else {
        l.note(format!(
            "pipeline ran {multipass_s:.3} s: too short to judge ledger.coverage_share {coverage:.3}"
        ));
    }
    l.metric(
        "core.key.extract_ns_per_record",
        "ns",
        key_s.iter().sum::<f64>() * 1e9 / (3 * n) as f64,
    );
    l.metric(
        "core.sort.comparison_ns_per_record",
        "ns",
        sort_s.iter().sum::<f64>() * 1e9 / (3 * n) as f64,
    );
    l.metric(
        "rules.match_share",
        "ratio",
        matches as f64 / evaluations as f64,
    );
    l.check(
        &format!(
            "comparisons {comparisons} == rule_invocations {evaluations} + pairs_pruned {pruned}"
        ),
        comparisons == evaluations + pruned,
    );
    l.check(
        "staged replay and MergePurge::run close to the same pairs",
        closed.closed_pairs.sorted() == result.closed_pairs.sorted(),
    );
    // The CLI wrote its closed pairs one `a\tb` per line, sorted.
    let listing: String = result
        .closed_pairs
        .sorted()
        .iter()
        .map(|(a, b)| format!("{a}\t{b}\n"))
        .collect();
    let cli_pairs =
        std::fs::read(&args.pairs).map_err(|e| format!("read {}: {e}", args.pairs.display()))?;
    l.check(
        "in-process closed pairs are byte-identical to the CLI's --pairs-out file",
        fnv1a(listing.as_bytes()) == fnv1a(&cli_pairs) && listing.len() == cli_pairs.len(),
    );
    if args.theory != "native" {
        // Native and dsl-compiled must decide alike on this input.
        let mut again = raw.clone();
        let native_pairs = {
            let mut p = MergePurge::new(&native);
            for key in &keys {
                p = p.pass(key.clone(), w);
            }
            p.run(&mut again).closed_pairs.sorted()
        };
        l.check(
            "native and dsl-compiled pair files are byte-identical",
            native_pairs == result.closed_pairs.sorted(),
        );
    }

    // ---- the ledger against the process the harness timed -----------------
    let explained = parse_s + multipass_s;
    l.metric("ledger.cli_overhead_s", "s", args.dedupe_s - explained);
    l.metric(
        "ledger.dedupe_explained_share",
        "ratio",
        explained / args.dedupe_s,
    );
    l.note(format!(
        "dedupe_s {:.3} s = parse {:.3} + condition {:.3} + keys {:.3} + sort {:.3} + scan {:.3} + closure {:.3} \
         + in-pipeline remainder {:.3} + uncovered {:.3} (process start, plan calibration {:.3}, --eval scoring, \
         pair-file writing, teardown)",
        args.dedupe_s,
        parse_s,
        condition_s,
        key_s.iter().sum::<f64>(),
        sort_s.iter().sum::<f64>(),
        scan_s.iter().sum::<f64>(),
        close_s,
        multipass_s - layer_sum,
        args.dedupe_s - explained,
        calibrate_and_compile_s,
    ));

    // ---- §3.5 cost model fitted from the spans ----------------------------
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let model = CostModel::fit(n, w, mean(&sort_s), mean(&scan_s), close_s, close_s);
    let predicted = model.multi_pass_time(n, keys.len(), w);
    let measured = multipass_s - condition_s;
    l.metric("costmodel.c_ns", "ns", model.c * 1e9);
    l.metric("costmodel.alpha", "ratio", model.alpha);
    l.metric(
        "costmodel.pred_error_pct",
        "%",
        (predicted - measured) / measured * 100.0,
    );

    // ---- core.sort, radix --------------------------------------------------
    let mut radix_s = 0.0;
    for (arena, order) in &orders {
        let (radix, t) = l.time("core.sort.radix", || {
            sorted_order_radix(arena, &NoopObserver)
        });
        radix_s += t;
        l.check(
            "radix and comparison sorts produce the same permutation",
            &radix == order,
        );
    }
    l.metric(
        "core.sort.radix_ns_per_record",
        "ns",
        radix_s * 1e9 / (3 * n) as f64,
    );

    // ---- core.window: one last-name pass, native theory --------------------
    let order = &orders[0].1;
    let mut pairs = PairSet::new();
    let (plain, t) = l.time("core.window.scan", || {
        window_scan(&records, order, w, &native, &mut pairs)
    });
    l.metric(
        "core.window.scan_ns_per_comparison",
        "ns",
        t * 1e9 / plain as f64,
    );
    let mut pairs = PairSet::new();
    let mut fresh = UnionFind::new(n);
    let (counts, t) = l.time("core.window.scan_pruned.native", || {
        window_scan_pruned(&records, order, w, &native, &mut fresh, &mut pairs)
    });
    l.metric(
        "core.window.scan_pruned_ns_per_comparison",
        "ns",
        t * 1e9 / counts.comparisons as f64,
    );
    let mut none = PairSet::new();
    let (bare, t) = l.time("core.window.scan_overhead", || {
        window_scan(&records, order, w, &NeverMatches, &mut none)
    });
    l.metric(
        "core.window.scan_overhead_ns_per_comparison",
        "ns",
        t * 1e9 / bare as f64,
    );
    l.metric(
        "core.window.comparisons",
        "count",
        counts.comparisons as f64,
    );
    l.metric(
        "core.window.rule_invocations",
        "count",
        counts.rule_evaluations as f64,
    );
    l.metric(
        "core.window.pruned_share",
        "ratio",
        counts.pairs_pruned as f64 / counts.comparisons as f64,
    );
    l.check(
        "one-pass comparisons == rule_invocations + pairs_pruned, and equal the unpruned scan's",
        counts.comparisons == counts.rule_evaluations + counts.pairs_pruned
            && plain == counts.comparisons
            && bare == plain,
    );

    // ---- near-neighbour pairs for strsim and rules -------------------------
    // A seeded stride through the last-name order, partner 1..w-1 places back:
    // the pairs the window actually produces, not random strings.
    let mut rng = SplitMix(args.seed ^ 0x9a1f);
    let stride = ((n - w) / SAMPLED_PAIRS).max(1);
    let sample: Vec<(&Record, &Record)> = (w..n)
        .step_by(stride)
        .map(|i| {
            let back = 1 + (rng.next_u64() as usize) % (w - 1);
            (
                &records[order[i - back] as usize],
                &records[order[i] as usize],
            )
        })
        .collect();
    let (hits, misses): (Vec<_>, Vec<_>) = sample
        .iter()
        .copied()
        .partition(|(a, b)| native.matches(a, b));
    l.note(format!(
        "sampled {} near-neighbour pairs: {} match, {} do not",
        sample.len(),
        hits.len(),
        misses.len()
    ));
    if hits.is_empty() || misses.is_empty() {
        return Err("the pair sample holds only matches or only non-matches".into());
    }

    // ---- strsim kernels on the sampled pairs' names and streets ------------
    let strings: Vec<(&str, &str)> = sample
        .iter()
        .flat_map(|(a, b)| {
            [
                (a.last_name.as_str(), b.last_name.as_str()),
                (a.street_name.as_str(), b.street_name.as_str()),
            ]
        })
        .collect();
    let reps = MIN_CALLS.div_ceil(strings.len());
    let kernel = |l: &mut Ledger, name: &str, f: &dyn Fn(&str, &str)| {
        let ((), t) = l.time(&format!("strsim.{name}"), || {
            for _ in 0..reps {
                for &(a, b) in &strings {
                    f(black_box(a), black_box(b));
                }
            }
        });
        l.metric(
            &format!("strsim.{name}_ns_per_call"),
            "ns",
            t * 1e9 / (reps * strings.len()) as f64,
        );
    };
    kernel(&mut l, "levenshtein", &|a, b| {
        black_box(mp_strsim::levenshtein(a, b));
    });
    kernel(&mut l, "levenshtein_bounded", &|a, b| {
        black_box(mp_strsim::levenshtein_bounded(a, b, 2));
    });
    kernel(&mut l, "damerau", &|a, b| {
        black_box(mp_strsim::damerau_levenshtein(a, b));
    });
    kernel(&mut l, "jaro_winkler", &|a, b| {
        black_box(mp_strsim::jaro_winkler(a, b));
    });
    kernel(&mut l, "keyboard", &|a, b| {
        black_box(mp_strsim::keyboard_distance(a, b));
    });
    kernel(&mut l, "trigram", &|a, b| {
        black_box(mp_strsim::trigram_similarity(a, b));
    });
    // The phonetic codes take one string; code both sides of each pair.
    kernel(&mut l, "soundex", &|a, b| {
        black_box((mp_strsim::soundex(a), mp_strsim::soundex(b)));
    });
    kernel(&mut l, "nysiis", &|a, b| {
        black_box((mp_strsim::nysiis(a), mp_strsim::nysiis(b)));
    });
    // Two codes per pair: halve the per-pair figure into a per-call one.
    l.halve("strsim.soundex_ns_per_call");
    l.halve("strsim.nysiis_ns_per_call");

    // ---- rules: native and VM, matching and non-matching pairs -------------
    let rule_time = |l: &mut Ledger,
                     name: &str,
                     theory: &dyn EquationalTheory,
                     pairs: &[(&Record, &Record)],
                     expect: bool| {
        let reps = MIN_CALLS.div_ceil(pairs.len());
        let (agree, t) = l.time(&format!("rules.{name}"), || {
            let mut agree = true;
            for _ in 0..reps {
                for &(a, b) in pairs {
                    agree &= black_box(theory.matches(black_box(a), black_box(b))) == expect;
                }
            }
            agree
        });
        l.check(
            &format!("rules.{name}: every sampled pair decided as the native theory decides"),
            agree,
        );
        l.metric(
            &format!("rules.{name}_ns_per_pair"),
            "ns",
            t * 1e9 / (reps * pairs.len()) as f64,
        );
        t / reps as f64
    };
    let native_total = rule_time(&mut l, "native_match", &native, &hits, true)
        + rule_time(&mut l, "native_nonmatch", &native, &misses, false);
    let vm_total = rule_time(&mut l, "vm_match", &compiled, &hits, true)
        + rule_time(&mut l, "vm_nonmatch", &compiled, &misses, false);
    l.metric(
        "rules.vm_over_native_ratio",
        "ratio",
        vm_total / native_total,
    );
    let (_, t) = l.time("rules.compile", || {
        CompiledTheory::compile(EMPLOYEE_RULES_SRC).expect("built-in rules compile")
    });
    l.metric("rules.compile_ms", "ms", t * 1e3);
    let program = RuleProgram::compile(EMPLOYEE_RULES_SRC).expect("built-in rules compile");
    let adjacent: Vec<(&Record, &Record)> = (0..(n - 1).min(CALIBRATION_PAIRS))
        .map(|i| (&raw[i], &raw[i + 1]))
        .collect();
    let (_, t) = l.time("rules.calibrate", || Plan::calibrated(&program, &adjacent));
    l.metric("rules.calibrate_ms", "ms", t * 1e3);

    // ---- closure ------------------------------------------------------------
    let matched = closed
        .passes
        .iter()
        .flat_map(|p| p.pairs.sorted())
        .collect::<Vec<_>>();
    let mut uf = UnionFind::new(n);
    let ((), t) = l.time("closure.union", || {
        for &(a, b) in &matched {
            black_box(uf.union(a, b));
        }
    });
    l.metric(
        "closure.union_ns_per_op",
        "ns",
        t * 1e9 / matched.len() as f64,
    );
    let ((), t) = l.time("closure.find", || {
        for x in 0..n as u32 {
            black_box(uf.find(x));
        }
    });
    l.metric("closure.find_ns_per_op", "ns", t * 1e9 / n as f64);
    let closed_list = closed.closed_pairs.sorted();
    let (set, t) = l.time("closure.pairset_insert", || {
        let mut set = PairSet::new();
        for &(a, b) in &closed_list {
            set.insert(a, b);
        }
        set
    });
    l.metric(
        "closure.pairset_insert_ns_per_op",
        "ns",
        t * 1e9 / closed_list.len() as f64,
    );
    l.check(
        "re-inserted closed pairs keep their count",
        set.len() == closed_list.len(),
    );
    drop((set, closed_list, matched));

    // ---- parallel -------------------------------------------------------------
    let procs = std::thread::available_parallelism().map_or(1, |p| p.get());
    let par_passes: Vec<ParallelPass> = keys
        .iter()
        .map(|k| ParallelPass::Snm(ParallelSnm::new(k.clone(), w, procs)))
        .collect();
    let (par, par_s) = l.time("parallel.multipass", || {
        parallel_multipass(&par_passes, &records, theory)
    });
    l.metric("parallel.multipass_s", "s", par_s);
    l.metric(
        "parallel.speedup_vs_serial",
        "ratio",
        (multipass_s - condition_s) / par_s,
    );
    l.note(format!(
        "parallel.multipass ran with procs = available_parallelism = {procs}"
    ));
    l.check(
        "parallel and serial engines close to the same pairs",
        par.closed_pairs.len() == result.closed_pairs.len(),
    );
    drop((par, orders, closed, result, records));

    // ---- extsort --------------------------------------------------------------
    let config = ExternalConfig {
        memory_records: args.budget,
        ..ExternalConfig::default()
    };
    let observer = MetricsRecorder::new();
    let (run, _) = l.time("extsort.sort", || {
        ExternalSorter::new(KeySpec::last_name_key(), config).sort_observed(
            &args.base,
            &args.work.join("sort"),
            false,
            &observer,
        )
    });
    let run = run.map_err(|e| format!("external sort: {e}"))?;
    let phase_s = |p: Phase| observer.phase_total_ns(p) as f64 / 1e9;
    l.metric(
        "extsort.run_formation_records_per_s",
        "1/s",
        n as f64 / phase_s(Phase::RunFormation),
    );
    // A file that fits the budget forms one run and merges nothing.
    let merge_s = phase_s(Phase::RunMerge);
    l.metric(
        "extsort.merge_records_per_s",
        "1/s",
        if merge_s > 0.0 {
            n as f64 / merge_s
        } else {
            0.0
        },
    );
    l.check("external sort kept every record", run.records == n);
    run.cleanup();
    let mut loader = BulkLoader::new(config);
    for key in &keys {
        loader = loader.pass(key.clone(), w);
    }
    let (bulk, t) = l.time("extsort.bulkload", || {
        loader.load(&args.base, &args.work.join("bulk"), theory)
    });
    let bulk = bulk.map_err(|e| format!("bulk load: {e}"))?;
    l.metric("extsort.bulkload_s", "s", t);
    l.metric(
        "extsort.data_passes",
        "count",
        f64::from(bulk.stats.io.data_passes()),
    );
    l.metric(
        "extsort.records_spilled",
        "count",
        bulk.stats.io.records_written as f64,
    );

    // ---- store and core.incremental, on the store `mergepurge load` built -----
    let snapshot_bytes = std::fs::metadata(args.store.join(mp_store::SNAPSHOT_FILE))
        .map_err(|e| format!("stat the loaded snapshot: {e}"))?
        .len();
    let mb = snapshot_bytes as f64 / 1e6;
    let (opened, t) = l.time("store.open", || MatchStore::open(&args.store));
    let (mut store, loaded) = opened.map_err(|e| format!("open {}: {e}", args.store.display()))?;
    l.metric("store.open_mb_per_s", "MB/s", mb / t);
    let snapshot = loaded
        .snapshot
        .ok_or("the loaded store holds no snapshot")?;
    l.check(
        "BulkLoader::load found the pairs `mergepurge load` committed",
        bulk.pairs.len() == snapshot.pairs.len() && bulk.records == snapshot.records.len(),
    );
    drop(bulk);
    l.metric(
        "store.snapshot_bytes_per_record",
        "B",
        snapshot_bytes as f64 / snapshot.records.len() as f64,
    );
    let (encoded, t) = l.time("store.snapshot_encode", || snapshot.encode());
    l.metric(
        "store.snapshot_encode_mb_per_s",
        "MB/s",
        encoded.len() as f64 / 1e6 / t,
    );
    l.check(
        "re-encoding the snapshot reproduces the file size",
        encoded.len() as u64 == snapshot_bytes,
    );
    drop(encoded);
    let (written, t) = l.time("store.write_snapshot", || store.write_snapshot(&snapshot));
    written.map_err(|e| format!("write snapshot: {e}"))?;
    l.metric("store.snapshot_write_mb_per_s", "MB/s", mb / t);

    let configured = keys
        .iter()
        .fold(IncrementalMergePurge::new(), |e, k| e.pass(k.clone(), w));
    let (engine, t) = l.time("core.incremental.restore", || configured.restore(snapshot));
    let mut engine = engine?;
    l.metric("core.incremental.restore_ms", "ms", t * 1e3);
    let incoming = read_records(&args.ingest)?;
    let batches: Vec<&[Record]> = incoming
        .chunks_exact(args.batch_records)
        .take(args.batches)
        .collect();
    if batches.len() < args.batches {
        return Err(format!(
            "ingest file holds {} full batches, need {}",
            batches.len(),
            args.batches
        ));
    }
    let mut add_ms = Vec::new();
    for batch in &batches {
        let owned = batch.to_vec();
        let ((), t) = l.time("core.incremental.add_batch", || {
            engine.add_batch(owned, theory)
        });
        add_ms.push(t * 1e3);
    }
    l.metric("core.incremental.add_batch_ms", "ms", median(&add_ms));
    l.check(
        "engine holds the base plus every batch",
        engine.records().len() == n + args.batches * args.batch_records,
    );
    let (_, t) = l.time("core.incremental.to_snapshot", || engine.to_snapshot());
    l.metric("core.incremental.to_snapshot_ms", "ms", t * 1e3);
    // What every `query-matches` pays today: a clone of the closure, then
    // every class rebuilt.
    let class_ms: Vec<f64> = (0..5)
        .map(|_| l.time("closure.classes", || engine.classes()).1 * 1e3)
        .collect();
    l.metric("closure.classes_ms", "ms", median(&class_ms));
    drop(engine);

    let journal_path = args.work.join("bench.mpj");
    let (mut journal, _) =
        Journal::open(&journal_path).map_err(|e| format!("open journal: {e}"))?;
    let mut append_ms = Vec::new();
    for batch in batches.iter().take(20) {
        let (seq, t) = l.time("store.journal_append", || journal.append(batch, None));
        seq.map_err(|e| format!("journal append: {e}"))?;
        append_ms.push(t * 1e3);
    }
    l.metric("store.journal_append_ms", "ms", median(&append_ms));
    let journal_bytes = std::fs::metadata(&journal_path)
        .map_err(|e| e.to_string())?
        .len();
    l.metric(
        "store.journal_bytes_per_record",
        "B",
        journal_bytes as f64 / (append_ms.len() * args.batch_records) as f64,
    );

    // ---- serve.json: one ingest frame -------------------------------------------
    let frame_reps = 20;
    let (frame, t) = l.time("serve.json.encode", || {
        let mut frame = String::new();
        for _ in 0..frame_reps {
            frame = ingest_request(black_box(batches[0]));
        }
        frame
    });
    l.metric(
        "serve.json.encode_ns_per_record",
        "ns",
        t * 1e9 / (frame_reps * args.batch_records) as f64,
    );
    let (parsed, t) = l.time("serve.json.parse", || {
        let mut ok = true;
        for _ in 0..frame_reps {
            ok &= WireJson::parse(black_box(&frame)).is_ok();
        }
        ok
    });
    l.metric(
        "serve.json.parse_ns_per_record",
        "ns",
        t * 1e9 / (frame_reps * args.batch_records) as f64,
    );
    l.check(
        "the daemon's parser accepts the client's ingest frame",
        parsed,
    );

    let _ = std::fs::remove_dir_all(&args.work);
    l.write(&args.out)
}
