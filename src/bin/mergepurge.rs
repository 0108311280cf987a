//! `mergepurge` — command-line merge/purge over flat record files.
//!
//! ```text
//! mergepurge generate --records 10000 --duplicates 0.4 --out db.mp
//! mergepurge dedupe   --input db.mp --window 10 --classes-out groups.txt
//! mergepurge dedupe   --input db.mp --rules my_rules.mpr --eval
//! mergepurge purge    --input db.mp --rules my_rules.mpr --out clean.mp
//! mergepurge explain  --input db.mp --a 17 --b 241
//! ```
//!
//! The record file format is the pipe-separated flat format of
//! `mp_record::io` (one record per line: entity column + ten fields).

use merge_purge::{Evaluation, KeySpec, MergePurge, MergePurgeResult, Purger};
use mp_datagen::{DatabaseGenerator, GeneratorConfig, GroundTruth};
use mp_metrics::{
    chrome_trace_json, span, Counter, FlightRecorder, KernelTime, MetricsRecorder,
    PipelineObserver, RuleFiringReport, SpanTreeTrack,
};
use mp_record::{io as rio, Record};
use mp_rules::{
    CompiledTheory, EquationalTheory, NativeEmployeeTheory, Plan, RuleFiringCounter, RuleProgram,
    Survivorship,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = Flags::parse(&args[1..]);
    let result = match command.as_str() {
        "generate" => generate(&flags),
        "dedupe" => dedupe(&flags, false),
        "purge" => dedupe(&flags, true),
        "eval" => eval_cmd(&flags),
        "load" => load_cmd(&flags),
        "explain" => explain(&flags),
        "serve" => serve_cmd(&flags),
        "send" => send_cmd(&flags),
        "top" => top_cmd(&flags),
        "trace" => trace_cmd(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
mergepurge — sorted-neighborhood merge/purge (Hernandez & Stolfo, SIGMOD 1995)

commands:
  generate  --out FILE [--records N] [--duplicates F] [--max-dups K] [--seed S]
  dedupe    --input FILE [--rules FILE] [--theory T] [--no-plan] [--window W]
            [--keys a,b,c] [--pairs-out FILE] [--classes-out FILE] [--eval]
            [--stats FILE|-] [--trace FILE] [--progress] [--kernel-stats]
            [--no-prune]
  purge     --input FILE --out FILE [--rules FILE] [--theory T] [--no-plan]
            [--window W] [--keys a,b,c] [--stats FILE|-] [--trace FILE]
            [--progress] [--kernel-stats] [--no-prune]
  eval      --input FILE [--truth FILE] [--rules FILE] [--theory T]
            [--window W] [--keys a,b,c] [--no-plan] [--no-prune]
  explain   --input FILE --a ID --b ID [--rules FILE] [--theory T]
            | (--socket PATH | --addr HOST:PORT) --a ID --b ID
  load      --input FILE --store DIR [--window W] [--keys a,b,c]
            [--rules FILE] [--theory T] [--work-dir DIR]
            [--memory-budget N] [--fan-in N] [--sort-threads N]
            [--stats FILE|-] [--trace FILE]
  serve     --socket PATH --store DIR [--window W] [--keys a,b,c]
            [--rules FILE] [--theory T] [--listen HOST:PORT]
            [--queue-depth N] [--snapshot-every N] [--slow-batch-ms T]
            [--large-cluster-threshold N]
            [--bulk-load FILE] [--memory-budget N] [--fan-in N]
            [--sort-threads N]
            [--stats FILE] [--trace FILE] [--metrics-addr HOST:PORT]
            [--log FILE] [--log-level error|warn|info|debug]
            [--log-max-bytes N] [--log-keep N] [--progress] [--quiet]
  send      (--socket PATH | --addr HOST:PORT) --cmd CMD
            [--input FILE] [--id N] [--json RAW]
  top       (--socket PATH | --addr HOST:PORT) [--interval-ms N]
            [--iterations N] [--json]
  trace     (--socket PATH | --addr HOST:PORT) [--out FILE]

--stats FILE writes a JSON pipeline report (comparison, match, and closure
counters, per-pass attribution, per-rule firing counts, per-phase timings,
rule-latency quantiles, and the timed span tree) collected by mp-metrics;
`--stats -` prints the report to stdout (status lines move to stderr, so
the output pipes cleanly into jq). The section before the
\"phases_ns\" key is deterministic for a fixed input and configuration. See
docs/METRICS.md for the schema and docs/TRACING.md for the tracing layer.

--trace FILE writes a Chrome trace-event JSON (load it in Perfetto or
chrome://tracing; one track per thread, so parallel fragments get their own
rows). --progress prints a records/s + ETA heartbeat to stderr.
--kernel-stats additionally times the string-distance kernels.

--no-prune disables closure-aware pruning: by default window pairs already
known to be duplicates (transitively, across passes) skip rule evaluation,
reported as the pairs_pruned counter. Pruning never changes the closed
pairs, so the final groups are identical either way.

eval scores the pipeline's closed pairs against ground truth (the
paper's Fig. 2 metrics): recall, false-positive rate, and precision.
Ground truth comes from --truth FILE (a record file whose entity column
labels the true duplicates, e.g. a generate output) or, without it, from
the entity column of --input itself.

explain answers \"why are these two records duplicates?\". Offline
(--input) it re-evaluates the pair against the theory and names the
first rule that fires. Against a running daemon (--socket or --addr) it
walks the durable provenance forest and prints the full evidence chain —
every merge edge connecting the two records with its rule, pass, batch
sequence, and trace id (docs/PROVENANCE.md). serve's
--large-cluster-threshold N (default 100) raises the cluster_merged
event to warn level when a batch merges a cluster of at least N records.

keys: comma-separated from {last_name, first_name, address, ssn};
      default last_name,first_name,address (the paper's three runs).
rules: a rule-DSL program file; without one the DSL theories fall back to
       the built-in 26-rule employee theory source.

--theory T picks the equational-theory implementation:
  native        the built-in 26-rule employee theory, compiled under the
                static plan (default without --rules; rejects --rules)
  dsl           tree-walking rule interpreter
  dsl-compiled  the rule DSL lowered to a planned bytecode VM (default when
                --rules is given) — same decisions as dsl; see
                docs/RULE_COMPILER.md
dedupe/purge calibrate the dsl-compiled planner on a sample of input pairs;
serve uses the static cost-model plan. --no-plan compiles without predicate
reordering or common-subexpression memoization (bit-identical results,
slower). Compiled runs add the rules_compiled and subexpr_hits counters to
--stats reports.

load cold-loads a record file into an empty durable store through the
external-sort bulk pipeline (mp-extsort): the full database is never
materialized, so a 10M-record file loads under the --memory-budget
record cap (default 100000 records per run, resident as their encoded
bytes and sort keys, each record parsed once; spill runs and the
record copy the commit reads go to --work-dir, default STORE/bulk-tmp,
which is removed again whether the load succeeds or fails). A non-empty store is left untouched (exit
failure). --stats/--trace report the load like dedupe's (span tree
bulk_load > run_formation, bulk_pass, snapshot_commit; see
docs/TRACING.md). See docs/SCALING.md for the tuning model.

serve --bulk-load FILE runs the same cold load before the store opens
(readyz stays 503 throughout) and skips it harmlessly when the store
already has state, so a restart is safe. The same external-sort flags
apply. A running daemon with an empty store also accepts `send --cmd
bulk-load --input FILE`, where FILE is a *daemon-local* path.

serve runs the batch-ingest daemon on a Unix socket (plus TCP with
--listen; same wire protocol), backed by the durable match-store at
--store (crash-safe snapshots + batch journal; see docs/SERVING.md and
docs/INCREMENTAL.md); each pass of an ingest scans in max(1, cores /
passes) bands, and the band count never changes the answer. send is the
matching client over either
transport: --cmd is one of ingest-batch (reads --input), bulk-load
(sends --input as a daemon-local path), query-matches (needs --id),
stats, snapshot, metrics, trace, healthz, readyz,
shutdown; --json RAW sends a raw request instead. serve's
--stats/--trace write the pipeline report / Chrome trace on shutdown.

serve tracing (docs/TRACING.md): every acked batch carries a
process-unique trace_id (on the wire ack, the batch_ingested event, and
its spans); the daemon keeps the last batches' spans in an in-memory
flight recorder, dumpable live via the trace command, `send --cmd
trace`, or GET /trace on --metrics-addr. --slow-batch-ms T pins batches
slower than T ms in the recorder and logs slow_batch events with a
per-phase critical-path breakdown.

serve observability (docs/OBSERVABILITY.md): --metrics-addr serves
Prometheus text /metrics plus /healthz, /readyz, and /trace over HTTP;
--log writes a leveled JSONL event log (rotated past --log-max-bytes
through --log-keep generations, default 1); --progress prints a periodic
heartbeat line to stderr; --quiet suppresses all serve status/heartbeat
stderr output. top polls a running daemon's stats and renders an
in-place refreshing terminal view of rolling 1m/5m/15m rates,
batch-latency quantiles, queue pressure, snapshot staleness, tracing
state, a match-quality panel (cluster-size histogram, largest cluster,
top rules by firings, rolling selectivity); --iterations 0 = run until
interrupted. top --json prints the same data as machine-readable JSON
frames (one by default). trace
fetches the flight-recorder dump into a Perfetto-loadable file.";

/// Minimal `--flag value` parser.
struct Flags(Vec<String>);

impl Flags {
    fn parse(raw: &[String]) -> Self {
        Flags(raw.to_vec())
    }

    fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.0
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --{name} value {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.0.iter().any(|a| a == &flag)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

/// Prints a human-readable status line: stdout normally, stderr when the
/// machine-readable report owns stdout (`--stats -`).
macro_rules! status {
    ($to_stderr:expr, $($arg:tt)*) => {
        if $to_stderr { eprintln!($($arg)*) } else { println!($($arg)*) }
    };
}

fn generate(flags: &Flags) -> Result<(), String> {
    let out = flags.require("out")?;
    let records: usize = flags.get_parsed("records", 10_000)?;
    let duplicates: f64 = flags.get_parsed("duplicates", 0.3)?;
    let max_dups: usize = flags.get_parsed("max-dups", 5)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let db = DatabaseGenerator::new(
        GeneratorConfig::new(records)
            .duplicate_fraction(duplicates)
            .max_duplicates_per_record(max_dups)
            .seed(seed),
    )
    .generate();
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    rio::write_records(file, &db.records).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} records ({} originals + {} duplicates, {} true pairs) to {out}",
        db.records.len(),
        records,
        db.duplicate_count,
        db.truth.true_pair_count()
    );
    Ok(())
}

fn load_records(flags: &Flags) -> Result<Vec<Record>, String> {
    let input = flags.require("input")?;
    let file = File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    rio::read_records(BufReader::new(file)).map_err(|e| format!("parse {input}: {e}"))
}

fn parse_keys(flags: &Flags) -> Result<Vec<KeySpec>, String> {
    let spec = flags.get("keys").unwrap_or("last_name,first_name,address");
    spec.split(',')
        .map(|name| match name.trim() {
            "last_name" => Ok(KeySpec::last_name_key()),
            "first_name" => Ok(KeySpec::first_name_key()),
            "address" => Ok(KeySpec::address_key()),
            "ssn" => Ok(KeySpec::ssn_key()),
            other => Err(format!(
                "unknown key {other:?} (expected last_name, first_name, address, or ssn)"
            )),
        })
        .collect()
}

/// Parses the external-sort resource flags shared by `load` and
/// `serve --bulk-load`: `--memory-budget` (records resident in the sort),
/// `--fan-in` (runs merged at once), `--sort-threads` (run-formation
/// threads).
fn parse_external(flags: &Flags) -> Result<mp_extsort::ExternalConfig, String> {
    let mut ext = mp_extsort::ExternalConfig::default();
    ext.memory_records = flags.get_parsed("memory-budget", ext.memory_records)?;
    if ext.memory_records < 2 {
        return Err("--memory-budget must be at least 2 records".into());
    }
    ext.fan_in = flags.get_parsed("fan-in", ext.fan_in)?;
    if ext.fan_in < 2 {
        return Err("--fan-in must be at least 2".into());
    }
    ext.threads = flags.get_parsed("sort-threads", ext.threads)?;
    if ext.threads == 0 {
        return Err("--sort-threads must be at least 1".into());
    }
    Ok(ext)
}

/// `mergepurge load` — cold-load a record file into an empty durable
/// store through the external-sort bulk pipeline. The store comes up
/// exactly as if a daemon had ingested the whole file as batch 1.
fn load_cmd(flags: &Flags) -> Result<(), String> {
    use merge_purge_repro::bulk::{bulk_load_store, BulkStoreConfig};
    let input = flags.require("input")?;
    let store = flags.require("store")?;
    let window: usize = flags.get_parsed("window", 10)?;
    if window < 2 {
        return Err("--window must be at least 2".into());
    }
    let cfg = BulkStoreConfig {
        window,
        keys: parse_keys(flags)?,
        external: parse_external(flags)?,
    };
    let work = flags
        .get("work-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(store).join("bulk-tmp"));
    let theory = Theory::load(flags, None)?;
    let stats_dest = flags.get("stats").map(str::to_string);
    let trace_path = flags.get("trace").map(str::to_string);
    let to_stderr = stats_dest.as_deref() == Some("-");
    let mut recorder = MetricsRecorder::new();
    if stats_dest.is_some() || trace_path.is_some() {
        recorder = recorder.with_tracing();
    }
    let started = std::time::Instant::now();
    let report = bulk_load_store(
        std::path::Path::new(store),
        std::path::Path::new(input),
        &work,
        &cfg,
        theory.as_dyn(),
        &recorder,
    )?;
    let Some(report) = report else {
        return Err(format!(
            "store {store} is not empty; load only cold-starts empty stores \
             (use `serve` + ingest-batch for increments)"
        ));
    };
    let secs = started.elapsed().as_secs_f64();
    write_report(
        &recorder,
        stats_dest.as_deref(),
        trace_path.as_deref(),
        |_| {},
    )?;
    status!(
        to_stderr,
        "loaded {} records -> {store} in {secs:.1}s ({:.0} records/s)",
        report.records,
        report.records as f64 / secs.max(1e-9),
    );
    status!(
        to_stderr,
        "  {} pairs, {} comparisons, {} snapshot bytes, {} data passes \
         ({} records read, {} spilled)",
        report.pairs,
        report.comparisons,
        report.snapshot_bytes,
        report.io.data_passes(),
        report.io.records_read,
        report.io.records_written,
    );
    Ok(())
}

/// Writes what `--trace FILE` and `--stats FILE|-` ask for from a traced
/// `recorder`: the Chrome trace first, then the pipeline report with the
/// same span tracks attached (`complete` adds command-specific sections).
/// Confirmation lines follow the `status!` convention.
fn write_report(
    recorder: &MetricsRecorder,
    stats_dest: Option<&str>,
    trace_path: Option<&str>,
    complete: impl FnOnce(&mut mp_metrics::PipelineReport),
) -> Result<(), String> {
    if stats_dest.is_none() && trace_path.is_none() {
        return Ok(());
    }
    let to_stderr = stats_dest == Some("-");
    // Drain once; the Chrome trace and the report share the tracks.
    let tracks = recorder.drain_spans();
    if let Some(path) = trace_path {
        let json = chrome_trace_json(&tracks);
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        status!(
            to_stderr,
            "wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)"
        );
    }
    if let Some(dest) = stats_dest {
        let mut report = recorder.report();
        report.span_tree = tracks.into_iter().map(SpanTreeTrack::from).collect();
        complete(&mut report);
        let json = report.to_json();
        if dest == "-" {
            println!("{json}");
        } else {
            std::fs::write(dest, json).map_err(|e| format!("write {dest}: {e}"))?;
            println!("wrote pipeline stats to {dest}");
        }
    }
    Ok(())
}

/// Adjacent input pairs sampled to calibrate the rule planner.
const CALIBRATION_PAIRS: usize = 2_048;

/// The theory selected by `--theory`/`--rules`: the built-in employee
/// theory, the DSL interpreter, or the planned bytecode VM.
enum Theory {
    Native(NativeEmployeeTheory),
    Program(RuleProgram),
    Compiled(CompiledTheory),
}

impl Theory {
    /// Resolves `--theory` (default: `dsl-compiled` when `--rules` is
    /// given, `native` otherwise) and loads the rule source — `--rules
    /// FILE`, or the built-in 26-rule employee theory for the DSL theories
    /// without one. With `calibrate` records, the compiled theory's plan is
    /// calibrated on up to [`CALIBRATION_PAIRS`] adjacent input pairs;
    /// `--no-plan` compiles in source order with no memoization.
    fn load(flags: &Flags, calibrate: Option<&[Record]>) -> Result<Self, String> {
        let has_rules = flags.get("rules").is_some();
        let kind = match flags.get("theory") {
            Some(k) => k,
            None if has_rules => "dsl-compiled",
            None => "native",
        };
        if flags.has("no-plan") && kind != "dsl-compiled" {
            return Err("--no-plan only applies to --theory dsl-compiled".into());
        }
        match kind {
            "native" => {
                if has_rules {
                    return Err(
                        "--theory native ignores --rules (the native theory is built in); \
                         drop one of the two flags"
                            .into(),
                    );
                }
                Ok(Theory::Native(NativeEmployeeTheory::new()))
            }
            "dsl" | "dsl-compiled" => {
                let (src, origin) = match flags.get("rules") {
                    Some(path) => (
                        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?,
                        path.to_string(),
                    ),
                    None => (
                        mp_rules::EMPLOYEE_RULES_SRC.to_string(),
                        "built-in employee theory".to_string(),
                    ),
                };
                let program = RuleProgram::compile(&src).map_err(|e| format!("{origin}: {e}"))?;
                if kind == "dsl" {
                    return Ok(Theory::Program(program));
                }
                if flags.has("no-plan") {
                    return Ok(Theory::Compiled(CompiledTheory::from_program(
                        &program, None,
                    )));
                }
                let plan = match calibrate {
                    Some(records) if records.len() >= 2 => {
                        let n = (records.len() - 1).min(CALIBRATION_PAIRS);
                        let pairs: Vec<(&Record, &Record)> =
                            (0..n).map(|i| (&records[i], &records[i + 1])).collect();
                        Plan::calibrated(&program, &pairs)
                    }
                    _ => Plan::of(program.ast()),
                };
                Ok(Theory::Compiled(CompiledTheory::from_program(
                    &program,
                    Some(&plan),
                )))
            }
            other => Err(format!(
                "unknown --theory {other:?} (expected native, dsl, or dsl-compiled)"
            )),
        }
    }

    fn as_dyn(&self) -> &dyn EquationalTheory {
        match self {
            Theory::Native(t) => t,
            Theory::Program(p) => p,
            Theory::Compiled(c) => c,
        }
    }

    fn purger(&self) -> Purger {
        let spec = match self {
            Theory::Program(p) => p.purge_spec(),
            Theory::Compiled(c) => c.purge_spec(),
            Theory::Native(_) => None,
        };
        spec.map(|spec| Purger::from_spec(spec, Survivorship::Longest))
            .unwrap_or_default()
    }

    /// Adds the compiler counters to the pipeline report (zeros stay
    /// absent-by-value for the native and interpreted theories).
    fn record_compiler_counters(&self, recorder: &MetricsRecorder) {
        if let Theory::Compiled(c) = self {
            recorder.add(Counter::RulesCompiled, c.rules_compiled());
            recorder.add(Counter::SubexprHits, c.subexpr_hits());
        }
    }
}

fn run_passes(
    flags: &Flags,
    records: &mut [Record],
    recorder: &MetricsRecorder,
    count_rules: bool,
) -> Result<(MergePurgeResult, Theory, Option<RuleFiringReport>), String> {
    let window: usize = flags.get_parsed("window", 10)?;
    if window < 2 {
        return Err("--window must be at least 2".into());
    }
    let keys = parse_keys(flags)?;
    let theory = Theory::load(flags, Some(records))?;
    let counter = count_rules.then(|| RuleFiringCounter::new(theory.as_dyn()));
    let run = |t: &dyn EquationalTheory| {
        let mut pipeline = MergePurge::new(t);
        if flags.has("no-prune") {
            pipeline = pipeline.without_pruning();
        }
        for key in keys {
            pipeline = pipeline.pass(key, window);
        }
        pipeline.run_observed(records, recorder)
    };
    let result = match &counter {
        Some(c) => run(c),
        None => run(theory.as_dyn()),
    };
    let rules = counter.map(|c| RuleFiringReport {
        theory: c.name().to_string(),
        evaluations: c.evaluations(),
        misses: c.misses(),
        conditions_short_circuited: c.conditions_short_circuited(),
        fired: c.rule_names().into_iter().zip(c.fired()).collect(),
    });
    Ok((result, theory, rules))
}

/// §3.5 expected window-scan comparisons, `(w−1)(N − w/2)` per pass.
fn expected_comparisons(n: u64, window: u64, passes: u64) -> u64 {
    let w = window.min(n.max(1));
    (w - 1) * (n - w / 2) * passes
}

fn dedupe(flags: &Flags, purge: bool) -> Result<(), String> {
    let stats_dest = flags.get("stats").map(str::to_string);
    let trace_path = flags.get("trace").map(str::to_string);
    let want_report = stats_dest.is_some() || trace_path.is_some();
    // With `--stats -` the report owns stdout; everything human-readable
    // moves to stderr so the output pipes cleanly into `jq` and friends.
    let to_stderr = stats_dest.as_deref() == Some("-");
    let kernel_stats = flags.has("kernel-stats");

    let mut recorder = MetricsRecorder::new();
    if want_report {
        recorder = recorder.with_tracing();
    }
    let mut records = {
        let _parse = span(&recorder, "parse");
        load_records(flags)?
    };
    if flags.has("progress") {
        let window: u64 = flags.get_parsed("window", 10u64)?;
        let passes = parse_keys(flags)?.len() as u64;
        let total = expected_comparisons(records.len() as u64, window, passes);
        recorder = recorder.with_progress("comparisons", total);
    }
    if kernel_stats {
        mp_strsim::timing::reset();
        mp_strsim::timing::set_enabled(true);
    }
    let (result, theory, rules) = run_passes(flags, &mut records, &recorder, want_report)?;
    if kernel_stats {
        mp_strsim::timing::set_enabled(false);
    }
    theory.record_compiler_counters(&recorder);
    if let Some(pm) = recorder.progress() {
        pm.finish();
    }

    write_report(
        &recorder,
        stats_dest.as_deref(),
        trace_path.as_deref(),
        |report| {
            report.attribution = Some(result.attribution.clone());
            report.rules = rules;
            if kernel_stats {
                report.kernels = mp_strsim::timing::snapshot()
                    .into_iter()
                    .map(|(name, calls, total_ns)| KernelTime {
                        name,
                        calls,
                        total_ns,
                    })
                    .collect();
            }
        },
    )?;
    if !want_report && kernel_stats {
        for (name, calls, total_ns) in mp_strsim::timing::snapshot() {
            if calls > 0 {
                println!("  kernel {name:<24} {calls:>10} calls  {total_ns:>12} ns");
            }
        }
    }

    let found: usize = result.classes.iter().map(|c| c.len() - 1).sum();
    status!(
        to_stderr,
        "{} records -> {} duplicate groups ({} records shadowed)",
        records.len(),
        result.classes.len(),
        found
    );
    for pass in &result.passes {
        status!(
            to_stderr,
            "  pass [{:>10}] w={:<3} {:>8} pairs, {:>10} comparisons, {:>10} pruned, {:?}",
            pass.key_name,
            pass.window,
            pass.pairs.len(),
            pass.stats.comparisons,
            pass.stats.pairs_pruned,
            pass.stats.total()
        );
    }

    if flags.has("eval") {
        let truth = GroundTruth::from_records(&records);
        if truth.true_pair_count() == 0 {
            status!(
                to_stderr,
                "(no ground-truth entity ids in input; --eval skipped)"
            );
        } else {
            let eval = Evaluation::score(&result.closed_pairs, &truth);
            status!(
                to_stderr,
                "accuracy: {:.1}% of {} true pairs detected, {:.3}% false positives",
                eval.percent_detected,
                eval.true_pairs,
                eval.percent_false_positive
            );
        }
    }

    if let Some(path) = flags.get("pairs-out") {
        write_lines(path, |f| {
            for (a, b) in result.closed_pairs.sorted() {
                writeln!(f, "{a}\t{b}")?;
            }
            Ok(())
        })?;
        status!(
            to_stderr,
            "wrote {} pairs to {path}",
            result.closed_pairs.len()
        );
    }
    if let Some(path) = flags.get("classes-out") {
        write_lines(path, |f| {
            for class in &result.classes {
                let ids: Vec<String> = class.iter().map(u32::to_string).collect();
                writeln!(f, "{}", ids.join("\t"))?;
            }
            Ok(())
        })?;
        status!(to_stderr, "wrote {} groups to {path}", result.classes.len());
    }

    if purge {
        let out = flags.require("out")?;
        let purger = theory.purger();
        let survivors = result.purge(&records, &purger);
        let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        rio::write_records(file, &survivors).map_err(|e| format!("write {out}: {e}"))?;
        status!(
            to_stderr,
            "purged: {} -> {} records written to {out}",
            records.len(),
            survivors.len()
        );
    }
    Ok(())
}

/// Creates `path` and writes it through a buffer with `body`; an error
/// from any write or from the final flush names the file.
fn write_lines(
    path: &str,
    body: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    body(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("write {path}: {e}"))
}

/// `mergepurge eval` — run the pipeline and score its closed pairs
/// against ground truth (the paper's Fig. 2 metrics). Truth comes from
/// `--truth FILE` (a record file whose entity column labels the real
/// duplicates) or, without it, from the input's own entity column.
fn eval_cmd(flags: &Flags) -> Result<(), String> {
    let mut records = load_records(flags)?;
    let truth = match flags.get("truth") {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            let truth_records = rio::read_records(BufReader::new(file))
                .map_err(|e| format!("parse {path}: {e}"))?;
            if truth_records.len() != records.len() {
                return Err(format!(
                    "--truth {path} holds {} records but the input holds {}; \
                     both files must describe the same database",
                    truth_records.len(),
                    records.len()
                ));
            }
            GroundTruth::from_records(&truth_records)
        }
        None => GroundTruth::from_records(&records),
    };
    if truth.true_pair_count() == 0 {
        return Err("ground truth has no duplicate pairs (no entity ids?); \
             pass --truth FILE with labeled records"
            .into());
    }
    let recorder = MetricsRecorder::new();
    let (result, _theory, _) = run_passes(flags, &mut records, &recorder, false)?;
    let eval = Evaluation::score(&result.closed_pairs, &truth);
    println!(
        "{} records, {} true pairs, {} found ({} true + {} false)",
        records.len(),
        eval.true_pairs,
        eval.found_pairs,
        eval.true_found,
        eval.false_found
    );
    println!(
        "detected {:.1}%   false-positive {:.3}%   precision {:.1}%",
        eval.percent_detected,
        eval.percent_false_positive,
        eval.percent_precision()
    );
    Ok(())
}

fn serve_cmd(flags: &Flags) -> Result<(), String> {
    use merge_purge_repro::serve::{serve, ServeConfig};
    let socket = flags.require("socket")?;
    let store = flags.require("store")?;
    let window: usize = flags.get_parsed("window", 10)?;
    if window < 2 {
        return Err("--window must be at least 2".into());
    }
    let mut config = ServeConfig::new(socket, store);
    config.window = window;
    config.keys = parse_keys(flags)?;
    config.listen = flags.get("listen").map(str::to_string);
    config.queue_depth = flags.get_parsed("queue-depth", 4)?;
    if config.queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    config.snapshot_every = flags.get_parsed("snapshot-every", 0)?;
    config.metrics_addr = flags.get("metrics-addr").map(str::to_string);
    config.log_file = flags.get("log").map(std::path::PathBuf::from);
    if let Some(level) = flags.get("log-level") {
        config.log_level =
            merge_purge_repro::serve::eventlog::Level::parse(level).ok_or_else(|| {
                format!("invalid --log-level {level:?} (expected error, warn, info, or debug)")
            })?;
    }
    config.log_max_bytes = flags.get_parsed(
        "log-max-bytes",
        merge_purge_repro::serve::eventlog::DEFAULT_MAX_BYTES,
    )?;
    if config.log_max_bytes == 0 {
        return Err("--log-max-bytes must be at least 1".into());
    }
    config.log_keep =
        flags.get_parsed("log-keep", merge_purge_repro::serve::eventlog::DEFAULT_KEEP)?;
    if config.log_keep == 0 {
        return Err("--log-keep must be at least 1".into());
    }
    config.slow_batch_ms = flags.get_parsed("slow-batch-ms", 0)?;
    config.large_cluster_threshold = flags.get_parsed("large-cluster-threshold", 100)?;
    config.bulk_load = flags.get("bulk-load").map(std::path::PathBuf::from);
    config.bulk = parse_external(flags)?;
    config.quiet = flags.has("quiet");
    config.progress = flags.has("progress");
    let stats_path = flags.get("stats").map(str::to_string);
    let trace_path = flags.get("trace").map(str::to_string);

    // The daemon sees records incrementally, so the compiled plan is the
    // static one (no calibration sample exists up front).
    let theory = Theory::load(flags, None)?;
    let theory_dyn = theory.as_dyn();
    // Tracing is always on for serve: the flight recorder is what the
    // live `trace` command and GET /trace answer from, and the per-batch
    // drain keeps the span buffers from accumulating.
    let recorder = MetricsRecorder::new().with_tracing();
    let flight = FlightRecorder::default();
    serve(&config, theory_dyn, &recorder, &flight)?;
    theory.record_compiler_counters(&recorder);

    // The daemon has drained; attach the observability artifacts. The
    // per-batch spans already sit in the flight recorder — whatever
    // recorded after its last in-daemon sweep (the `serve` root span)
    // joins them as one final entry so the dump covers the whole run.
    let tracks = recorder.drain_spans();
    if let Some(path) = &trace_path {
        flight.record("serve", 0, false, tracks.clone());
        std::fs::write(path, flight.chrome_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &stats_path {
        let mut report = recorder.report();
        report.span_tree = tracks.into_iter().map(SpanTreeTrack::from).collect();
        std::fs::write(path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote pipeline stats to {path}");
    }
    Ok(())
}

/// Where `send`/`top` talk to: the daemon's Unix socket or its TCP
/// listener. Same framing either way.
enum Target {
    Unix(std::path::PathBuf),
    Tcp(String),
}

impl Target {
    fn parse(flags: &Flags) -> Result<Target, String> {
        match (flags.get("socket"), flags.get("addr")) {
            (Some(s), None) => Ok(Target::Unix(s.into())),
            (None, Some(a)) => Ok(Target::Tcp(a.to_string())),
            (Some(_), Some(_)) => Err("--socket and --addr are mutually exclusive".into()),
            (None, None) => Err("need --socket PATH or --addr HOST:PORT".into()),
        }
    }

    fn request(&self, payload: &str) -> Result<String, String> {
        match self {
            Target::Unix(socket) => merge_purge_repro::serve::request(socket, payload)
                .map_err(|e| format!("request to {}: {e}", socket.display())),
            Target::Tcp(addr) => merge_purge_repro::serve::request_tcp(addr, payload)
                .map_err(|e| format!("request to {addr}: {e}")),
        }
    }

    fn display(&self) -> String {
        match self {
            Target::Unix(socket) => socket.display().to_string(),
            Target::Tcp(addr) => format!("tcp://{addr}"),
        }
    }
}

fn send_cmd(flags: &Flags) -> Result<(), String> {
    use merge_purge_repro::serve::ingest_request;
    let target = Target::parse(flags)?;
    let payload = if let Some(raw) = flags.get("json") {
        raw.to_string()
    } else {
        match flags.require("cmd")? {
            "ingest-batch" => {
                let batch = load_records(flags)?;
                ingest_request(&batch)
            }
            "bulk-load" => {
                // The path travels to the daemon, which opens it locally —
                // absolutize so a relative client path still resolves there.
                let input = flags.require("input")?;
                let path =
                    std::fs::canonicalize(input).map_err(|e| format!("resolve {input}: {e}"))?;
                use merge_purge_repro::serve::json::Json;
                Json::Obj(vec![
                    ("cmd".into(), Json::Str("bulk-load".into())),
                    ("path".into(), Json::Str(path.display().to_string())),
                ])
                .to_string()
            }
            "query-matches" => {
                let id: u32 = flags
                    .require("id")?
                    .parse()
                    .map_err(|_| "invalid --id value")?;
                format!("{{\"cmd\":\"query-matches\",\"id\":{id}}}")
            }
            cmd @ ("stats" | "snapshot" | "metrics" | "trace" | "healthz" | "readyz"
            | "shutdown") => {
                format!("{{\"cmd\":\"{cmd}\"}}")
            }
            other => {
                return Err(format!(
                    "unknown --cmd {other:?} (expected ingest-batch, bulk-load, \
                     query-matches, stats, snapshot, metrics, trace, healthz, readyz, \
                     or shutdown)"
                ))
            }
        }
    };
    let response = target.request(&payload)?;
    let parsed = merge_purge_repro::serve::json::Json::parse(&response).ok();
    // A `metrics` reply embeds the Prometheus text and a `trace` reply
    // the Chrome trace JSON; print those raw so the output pipes
    // straight into promtool / Perfetto without unwrapping.
    let embedded = parsed.as_ref().and_then(|v| {
        v.get("exposition")
            .or_else(|| v.get("trace"))
            .and_then(|e| e.as_str())
    });
    match embedded {
        Some(raw) => print!("{raw}"),
        None => println!("{response}"),
    }
    // Mirror the daemon's verdict in the exit code so shell scripts can
    // branch on `send` directly.
    let ok = parsed
        .and_then(|v| v.get("ok").and_then(|o| o.as_bool()))
        .unwrap_or(false);
    if ok {
        Ok(())
    } else {
        Err("daemon reported failure (see response above)".into())
    }
}

/// `mergepurge top` — poll a running daemon's `stats` and render an
/// in-place refreshing operational view (rates, queue, latency
/// quantiles, snapshot staleness).
fn top_cmd(flags: &Flags) -> Result<(), String> {
    use merge_purge_repro::serve::json::Json;
    let target = Target::parse(flags)?;
    let json_mode = flags.has("json");
    let interval_ms: u64 = flags.get_parsed("interval-ms", 2000)?;
    // 0 = forever; --json defaults to a single frame so scripts get one
    // document per invocation unless they ask for a stream.
    let iterations: u64 = flags.get_parsed("iterations", if json_mode { 1 } else { 0 })?;
    let mut frame = 0u64;
    loop {
        let reply = target.request("{\"cmd\":\"stats\"}")?;
        let stats = Json::parse(&reply).map_err(|e| format!("bad stats reply: {e}"))?;
        if stats.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("daemon error: {reply}"));
        }
        if json_mode {
            // One machine-readable digest per line; no ANSI control
            // sequences, so the stream pipes cleanly into jq.
            println!("{}", top_json(&stats, &target.display()));
        } else {
            if frame > 0 {
                // Clear and home between frames only, so single-shot output
                // (--iterations 1, as used in tests and CI) stays plain text.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top(&stats, &target.display()));
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        frame += 1;
        if iterations > 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Builds the `top --json` digest frame: the daemon's `stats` sections
/// that matter operationally, re-keyed under a stable envelope with the
/// polled target, so each line is a self-describing sample.
fn top_json(stats: &merge_purge_repro::serve::json::Json, socket: &str) -> String {
    use merge_purge_repro::serve::json::Json;
    let section = |key: &str| stats.get(key).cloned().unwrap_or(Json::Null);
    let fields = vec![
        ("target".to_string(), Json::Str(socket.to_string())),
        ("schema".to_string(), section("schema")),
        ("seq".to_string(), section("seq")),
        ("health".to_string(), section("health")),
        ("store".to_string(), section("store")),
        ("windows".to_string(), section("windows")),
        ("tracing".to_string(), section("tracing")),
        ("quality".to_string(), section("quality")),
    ];
    Json::Obj(fields).to_string()
}

/// Formats a nanosecond latency for humans (µs/ms/s).
fn human_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Renders one `top` frame from a schema-6 `stats` reply.
fn render_top(stats: &merge_purge_repro::serve::json::Json, socket: &str) -> String {
    use merge_purge_repro::serve::json::Json;
    let num = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
    let health = stats.get("health");
    let store = stats.get("store");
    let h = |key: &str| num(health.and_then(|h| h.get(key)));
    let yn = |key: &str| {
        if health.and_then(|o| o.get(key)).and_then(Json::as_bool) == Some(true) {
            "yes"
        } else {
            "NO"
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "mergepurge top — {socket}\n\
         up {}s   ready {}   alive {}   seq {}\n\
         records {}   groups {}   duplicates {}   queue {}/{}   journal lag {}   backpressure {}\n",
        h("uptime_secs"),
        yn("ready"),
        yn("alive"),
        num(stats.get("seq")),
        num(store.and_then(|s| s.get("records"))),
        num(store.and_then(|s| s.get("duplicate_groups"))),
        num(store.and_then(|s| s.get("duplicate_records"))),
        h("queue_depth"),
        h("queue_capacity"),
        h("journal_lag"),
        h("backpressure_waits"),
    ));
    match health
        .and_then(|o| o.get("snapshot_age_secs"))
        .and_then(Json::as_u64)
    {
        Some(age) => out.push_str(&format!(
            "snapshot {} bytes, {age}s old\n",
            h("snapshot_bytes")
        )),
        None => out.push_str("snapshot none yet\n"),
    }
    if let Some(tracing) = stats.get("tracing") {
        let fnum = |key: &str| match tracing.get(key) {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        };
        out.push_str(&format!(
            "trace {}   flight {}/{} pinned   imbalance(1m) {:.2}   reconcile p99 {}\n",
            tracing
                .get("last_trace_id")
                .and_then(Json::as_str)
                .unwrap_or("-"),
            num(tracing.get("flight_entries")),
            num(tracing.get("flight_pinned")),
            fnum("imbalance_1m"),
            human_ns(fnum("reconcile_p99_ns") as u64),
        ));
    }
    out.push_str(&format!(
        "\n{:<8}{:>12}{:>12}{:>12}{:>12}{:>10}{:>10}{:>10}\n",
        "window", "records/s", "cmp/s", "rules/s", "matches/s", "p50", "p95", "p99"
    ));
    if let Some(windows) = stats.get("windows").and_then(Json::as_array) {
        for w in windows {
            let rate = |key: &str| {
                w.get(&format!("{key}_per_sec"))
                    .map(|v| match v {
                        Json::Num(n) => format!("{n:.1}"),
                        _ => "0.0".into(),
                    })
                    .unwrap_or_else(|| "0.0".into())
            };
            out.push_str(&format!(
                "{:<8}{:>12}{:>12}{:>12}{:>12}{:>10}{:>10}{:>10}\n",
                w.get("window").and_then(Json::as_str).unwrap_or("?"),
                rate("records"),
                rate("comparisons"),
                rate("rule_invocations"),
                rate("matches"),
                human_ns(num(w.get("batch_p50_ns"))),
                human_ns(num(w.get("batch_p95_ns"))),
                human_ns(num(w.get("batch_p99_ns"))),
            ));
        }
    }
    if let Some(quality) = stats.get("quality") {
        let qnum = |key: &str| num(quality.get(key));
        let fnum = |key: &str| match quality.get(key) {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        };
        out.push_str(&format!(
            "\nquality: {} clusters   largest {}   merge edges {}   selectivity(1m) {:.4}\n",
            qnum("clusters"),
            qnum("largest_cluster"),
            qnum("merge_edges"),
            fnum("selectivity_1m"),
        ));
        if let Some(hist) = quality.get("cluster_size_hist").and_then(Json::as_array) {
            let buckets: Vec<String> = hist
                .iter()
                .map(|b| format!("{}+:{}", num(b.get("size_min")), num(b.get("count"))))
                .collect();
            if !buckets.is_empty() {
                out.push_str(&format!("cluster sizes  {}\n", buckets.join("  ")));
            }
        }
        if let Some(rules) = quality.get("rules").and_then(Json::as_array) {
            // Top five rules by firings — the theory's workhorses.
            let mut by_firings: Vec<(&Json, u64)> =
                rules.iter().map(|r| (r, num(r.get("firings")))).collect();
            by_firings.sort_by_key(|&(_, f)| std::cmp::Reverse(f));
            for (r, firings) in by_firings.iter().take(5).filter(|&&(_, f)| f > 0) {
                out.push_str(&format!(
                    "  rule {:<32} {:>10} firings\n",
                    r.get("rule").and_then(Json::as_str).unwrap_or("?"),
                    firings,
                ));
            }
        }
    }
    out
}

/// `mergepurge trace` — pull the flight recorder's retained batch spans
/// from a running daemon and write them as a Chrome trace JSON file that
/// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
fn trace_cmd(flags: &Flags) -> Result<(), String> {
    use merge_purge_repro::serve::json::Json;
    let target = Target::parse(flags)?;
    let out = flags.get("out").unwrap_or("flight.trace.json");
    let reply = target.request("{\"cmd\":\"trace\"}")?;
    let parsed = Json::parse(&reply).map_err(|e| format!("bad trace reply: {e}"))?;
    if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("daemon error: {reply}"));
    }
    let dump = parsed
        .get("trace")
        .and_then(Json::as_str)
        .ok_or("trace reply missing the `trace` document")?;
    std::fs::write(out, dump).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!(
        "wrote {out}: {} retained batches ({} pinned slow) from {}",
        parsed.get("entries").and_then(Json::as_u64).unwrap_or(0),
        parsed.get("pinned").and_then(Json::as_u64).unwrap_or(0),
        target.display(),
    );
    Ok(())
}

/// `mergepurge explain` against a running daemon: ask the engine worker
/// for the provenance evidence chain between two record ids and render
/// it hop by hop.
fn explain_live(flags: &Flags) -> Result<(), String> {
    use merge_purge_repro::serve::json::Json;
    let target = Target::parse(flags)?;
    let a: u32 = flags.require("a")?.parse().map_err(|_| "invalid --a id")?;
    let b: u32 = flags.require("b")?.parse().map_err(|_| "invalid --b id")?;
    let reply = target.request(&format!("{{\"cmd\":\"explain\",\"a\":{a},\"b\":{b}}}"))?;
    let parsed = Json::parse(&reply).map_err(|e| format!("bad explain reply: {e}"))?;
    if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("daemon error: {reply}"));
    }
    let seq = parsed.get("seq").and_then(Json::as_u64).unwrap_or(0);
    if parsed.get("connected").and_then(Json::as_bool) != Some(true) {
        println!("records {a} and {b} are in different duplicate classes (as of seq {seq})");
        return Ok(());
    }
    let chain: &[Json] = parsed.get("chain").and_then(Json::as_array).unwrap_or(&[]);
    if chain.is_empty() {
        println!(
            "records {a} and {b} are connected with no recorded merge edges \
             (same id, or a bulk-loaded base — see docs/PROVENANCE.md)"
        );
        return Ok(());
    }
    println!(
        "records {a} and {b} are duplicates: {} merge edge(s) connect them (as of seq {seq})",
        chain.len()
    );
    for (i, e) in chain.iter().enumerate() {
        let num = |key: &str| e.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "  {:>3}. {} ~ {}  rule `{}` (id {})  pass {}  batch {}  trace {}",
            i + 1,
            num("a"),
            num("b"),
            e.get("rule").and_then(Json::as_str).unwrap_or("?"),
            num("rule_id"),
            num("pass"),
            num("batch_seq"),
            e.get("trace_id").and_then(Json::as_str).unwrap_or("-"),
        );
    }
    Ok(())
}

fn explain(flags: &Flags) -> Result<(), String> {
    // With a daemon target, walk the live provenance forest; the offline
    // path below re-evaluates the pair against the theory instead.
    if flags.get("socket").is_some() || flags.get("addr").is_some() {
        return explain_live(flags);
    }
    let mut records = load_records(flags)?;
    let a: usize = flags.require("a")?.parse().map_err(|_| "invalid --a id")?;
    let b: usize = flags.require("b")?.parse().map_err(|_| "invalid --b id")?;
    if a >= records.len() || b >= records.len() {
        return Err(format!(
            "record ids out of range (file has {})",
            records.len()
        ));
    }
    mp_record::normalize::condition_all(&mut records, &mp_record::NicknameTable::standard());
    let theory = Theory::load(flags, None)?;
    let (ra, rb) = (&records[a], &records[b]);
    println!("record {a}: {ra:?}");
    println!("record {b}: {rb:?}");
    let theory = theory.as_dyn();
    match theory.matching_rule_id(ra, rb) {
        Some(id) => println!("MATCH via rule `{}`", theory.rule_names()[id]),
        None => println!("no rule fires for this pair"),
    }
    Ok(())
}
