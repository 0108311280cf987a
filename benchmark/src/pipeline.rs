//! One run of one workload: set-up, then the pipeline a user drives —
//! `dedupe` → `load` → `serve` (recover) → mixed open-loop traffic →
//! checkpoint → one more journaled batch → crash → reopen — timed from
//! outside the program and checked for correct output at every step.

use crate::check::{self, decimal_before, number_before, Truth};
use crate::json::Json;
use crate::loadgen::{self, Sample, Schedule};
use crate::proc::{self, Daemon, ProcReport};
use crate::span::{Recorder, SpanId};
use crate::stats;
use crate::wire::{self, Client};
use crate::workload::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Times the inputs are generated and read back; `setup_s` is the median.
/// The contract `BENCHMARK.json` is written to asks for set-up to be repeated
/// within a run.
const SETUPS: usize = 3;
/// Cold starts of the daemon on the freshly loaded store (`kill -9` between).
/// Sub-second and partly disk-bound, so one sample is not enough.
const RECOVERIES: usize = 5;
/// `snapshot` round trips after the traffic. Disk-bound, and the first two
/// after a burst of journal writes run half again as long as the rest
/// (0.92, 0.96, 0.58, 0.57, 0.57 s): the median of five is the slowest of
/// the three steady ones, so one disturbed sample moves it into the other
/// population. The median of seven has a steady sample on either side.
const CHECKPOINTS: usize = 7;
/// The traced run's sharded leg replays this much of the schedule.
const SHARDS2_TRAFFIC_MS: u64 = 15_000;
/// The end-to-end latency of a request kind is this percentile of the open
/// loop: what a request pays when neither a queue nor the host's other
/// tenants stand in its way, with ten samples below it at 100 ingests. The
/// host this benchmark is judged on slows memory-bound work by a third for
/// minutes at a time; medians and tails follow that (ranges of 33-51 % over
/// twelve runs of the same code), the tenth percentile does not (12-23 %).
const FLOOR: u32 = 10;
/// Medians and tails are per-layer metrics of the traced run: the highest
/// percentiles with at least ten samples beyond them at 100 ingests and 310
/// queries.
const INGEST_TAIL: u32 = 90;
const QUERY_TAIL: u32 = 95;
/// Patience for any single reply or daemon start.
const PATIENCE: Duration = Duration::from_secs(120);

/// Trace-viewer rows.
const TRACK_MAIN: u32 = 1;
const TRACK_INGEST: u32 = 2;
const TRACK_QUERY: u32 = 3;
/// Row for spans imported from the layers program.
const TRACK_LAYERS: u32 = 4;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value: the median of the samples, or the exact count.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(name: &str, unit: &str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value: stats::median(samples),
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// A single measured or counted value.
    pub fn exact(name: &str, unit: &str, value: f64) -> Metric {
        Metric::median(name, unit, &[value])
    }

    /// Percentile `p` of `samples` (n, min and max describe all of them).
    pub fn percentile(name: &str, unit: &str, samples: &[f64], p: f64) -> Metric {
        Metric {
            value: stats::percentile(samples, p),
            ..Metric::median(name, unit, samples)
        }
    }
}

/// Operations attempted and failed, with what failed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Process runs, wire requests and output checks attempted.
    pub attempted: u64,
    /// Those that errored, were refused, never completed, or mismatched.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; records `what` when it failed. Returns `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn bulk(&mut self, n: usize, failed: usize, what: &str) {
        self.attempted += n as u64;
        if failed > 0 {
            self.failed += failed as u64;
            self.failures.push(format!("{failed} of {n} {what} failed"));
        }
    }
}

/// Where the built programs live and where runs may write.
#[derive(Debug, Clone)]
pub struct Env {
    /// `mergepurge`, built from the checkout.
    pub bin: PathBuf,
    /// `mp-ledger-layers`, built only for traced runs.
    pub layers_bin: Option<PathBuf>,
    /// Scratch root (`benchmark/out`).
    pub out_root: PathBuf,
    /// Parsed `benchmark/expected/seed11.json`, when the seed is 11.
    pub expected: Option<Json>,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The (possibly smoke-scaled) workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the open-loop traffic segment, seconds.
    pub seconds: f64,
    /// Record spans and run the per-layer legs.
    pub trace: bool,
    /// Sizes were divided for `--smoke`: pinned expectations do not apply.
    pub smoke: bool,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// End-to-end metrics (always measured).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Operation accounting.
    pub tally: Tally,
    /// Free-form remarks for the human report.
    pub notes: Vec<String>,
}

/// SplitMix64: the harness's own seeded generator for query ids.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The generated inputs of a run.
struct Inputs {
    base: PathBuf,
    base_bytes: u64,
    ingest: PathBuf,
    truth: Truth,
    payloads: Vec<String>,
}

/// The daemon under test plus how to reach it.
struct Server<'a> {
    env: &'a Env,
    socket: PathBuf,
    args: Vec<String>,
    daemon: Option<Daemon>,
}

impl<'a> Server<'a> {
    fn new(env: &'a Env, dir: &Path, store: &str, w: &Workload, extra: &[&str]) -> Server<'a> {
        let socket = dir.join(format!("{store}.sock"));
        let mut args = vec![
            "serve".to_string(),
            "--socket".into(),
            socket.display().to_string(),
            "--store".into(),
            dir.join(store).display().to_string(),
            "--quiet".into(),
        ];
        args.extend(w.engine_flags());
        args.extend(extra.iter().map(|s| s.to_string()));
        Server {
            env,
            socket,
            args,
            daemon: None,
        }
    }

    /// Spawns the daemon and waits for the first `readyz` success.
    /// Returns spawn-to-ready seconds.
    fn start(&mut self) -> Result<f64, String> {
        self.kill();
        let _ = std::fs::remove_file(&self.socket);
        let mut daemon = Daemon::spawn(Command::new(&self.env.bin).args(&self.args))
            .map_err(|e| format!("spawn serve: {e}"))?;
        let socket = self.socket.clone();
        let mut died = false;
        let ready = proc::poll_until(PATIENCE, Duration::from_millis(2), || {
            died = daemon.exited();
            died || wire::request_once(&socket, &wire::simple("readyz"), PATIENCE).is_ok()
        });
        let took = daemon.spawned.elapsed().as_secs_f64();
        if died || !ready {
            return Err(format!(
                "serve {} before readyz",
                if died { "exited" } else { "timed out" }
            ));
        }
        self.daemon = Some(daemon);
        Ok(took)
    }

    fn request(&self, payload: &str) -> Result<Json, String> {
        wire::request_once(&self.socket, payload, PATIENCE)
    }

    /// The deterministic `store` section of a `stats` reply.
    fn store_stats(&self) -> Result<Json, String> {
        let reply = self.request(&wire::simple("stats"))?;
        reply
            .get("store")
            .cloned()
            .ok_or_else(|| "stats reply has no store section".to_string())
    }

    fn rss_mb(&self) -> Option<f64> {
        self.daemon.as_ref().and_then(Daemon::rss_mb)
    }

    /// `kill -9` and reap.
    fn kill(&mut self) {
        if let Some(mut d) = self.daemon.take() {
            d.kill();
        }
    }
}

/// Result of one open-loop traffic phase.
struct Traffic {
    ingest: Vec<Sample>,
    query: Vec<Sample>,
}

struct Run<'a> {
    env: &'a Env,
    spec: &'a RunSpec,
    dir: PathBuf,
    rec: Recorder,
    root: SpanId,
    tally: Tally,
    notes: Vec<String>,
}

impl Run<'_> {
    /// Runs one `mergepurge` command inside a span and tallies it.
    fn cli(&mut self, name: &str, parent: SpanId, args: &[String]) -> Result<ProcReport, String> {
        let span = self.rec.begin(name, parent, 0, TRACK_MAIN);
        let report = proc::run(Command::new(&self.env.bin).args(args));
        self.rec.end(span);
        let report = report.map_err(|e| format!("{name}: {e}"))?;
        self.tally.op(report.success, || {
            format!(
                "{name} exited non-zero: {}",
                report.stderr.trim().lines().last().unwrap_or("")
            )
        });
        Ok(report)
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    /// Generates both input files and everything derived from them.
    fn set_up(&mut self, parent: SpanId, ingest_batches: usize) -> Result<Inputs, String> {
        let w = self.spec.workload;
        // The ingest file needs `ingest_batches` full batches; duplicates only
        // add records, so this many originals always suffice.
        let ingest_originals = ingest_batches * w.batch_records;
        let generate = |run: &mut Self, file: &str, originals: usize, seed: u64| {
            run.cli(
                "cli.generate",
                parent,
                &[
                    "generate".into(),
                    "--out".into(),
                    run.path(file),
                    "--records".into(),
                    originals.to_string(),
                    "--duplicates".into(),
                    workload::DUPLICATES.into(),
                    "--seed".into(),
                    seed.to_string(),
                ],
            )
        };
        let base_report = generate(self, "base.mp", w.originals, self.spec.seed)?;
        generate(self, "ingest.mp", ingest_originals, self.spec.seed + 1)?;
        let base = self.dir.join("base.mp");
        let ingest = self.dir.join("ingest.mp");
        let truth = Truth::read(&base)?;
        let said = number_before(&base_report.stdout, " records (");
        self.tally.op(said == Some(truth.records() as u64), || {
            format!(
                "generate said {said:?} records, file holds {}",
                truth.records()
            )
        });
        let lines: Vec<String> = std::fs::read_to_string(&ingest)
            .map_err(|e| format!("read ingest file: {e}"))?
            .lines()
            .take(ingest_batches * w.batch_records)
            .map(str::to_string)
            .collect();
        if lines.len() < ingest_batches * w.batch_records {
            return Err(format!("ingest file holds only {} records", lines.len()));
        }
        let payloads = lines
            .chunks(w.batch_records)
            .map(wire::ingest_batch)
            .collect();
        let base_bytes = std::fs::metadata(&base).map_err(|e| e.to_string())?.len();
        Ok(Inputs {
            base,
            base_bytes,
            ingest,
            truth,
            payloads,
        })
    }

    /// Checks the first `dedupe` run's outputs against the oracle and, for
    /// the default seed, the pinned expectations.
    fn check_dedupe(&mut self, out: &str, inputs: &Inputs) -> Result<check::PairsReport, String> {
        let pairs = check::score_pairs(&self.dir.join("pairs.tsv"), &inputs.truth);
        let pairs = match pairs {
            Ok(p) => p,
            Err(e) => {
                self.tally.op(false, || format!("pairs file: {e}"));
                return Err(e);
            }
        };
        let records = number_before(out, " records ->");
        let groups = number_before(out, " duplicate groups");
        let wrote = number_before(out, " pairs to ");
        let truth_said = number_before(out, " true pairs detected");
        let cli_detected = decimal_before(out, "% of ");
        let cli_false = decimal_before(out, "% false positives");
        self.tally
            .op(records == Some(inputs.truth.records() as u64), || {
                format!(
                    "dedupe read {records:?} records, input holds {}",
                    inputs.truth.records()
                )
            });
        self.tally.op(wrote == Some(pairs.pairs), || {
            format!(
                "dedupe said it wrote {wrote:?} pairs, file holds {}",
                pairs.pairs
            )
        });
        self.tally
            .op(truth_said == Some(inputs.truth.true_pairs), || {
                format!(
                    "dedupe counted {truth_said:?} true pairs, oracle {}",
                    inputs.truth.true_pairs
                )
            });
        // The CLI prints one and three decimals; the oracle must round to them.
        let agrees = |cli: Option<f64>, oracle: f64, half_ulp: f64| {
            cli.is_some_and(|c| (c - oracle).abs() <= half_ulp + 1e-9)
        };
        self.tally.op(
            agrees(cli_detected, pairs.percent_detected, 0.05)
                && agrees(cli_false, pairs.percent_false_positive, 0.0005),
            || {
                format!(
                    "accuracy mismatch: CLI {cli_detected:?}% / {cli_false:?}%, oracle {:.3}% / {:.4}%",
                    pairs.percent_detected, pairs.percent_false_positive
                )
            },
        );
        let w = self.spec.workload;
        let pinned = match (&self.env.expected, self.spec.smoke) {
            (Some(doc), false) => check::expected_for(doc, w.name),
            _ => None,
        };
        if let Some(want) = pinned {
            let got = check::Expected {
                records: inputs.truth.records() as u64,
                groups: groups.unwrap_or(0),
                closed_pairs: pairs.pairs,
                pairs_fnv1a: format!("{:016x}", pairs.fnv1a),
            };
            self.tally.op(got == want, || {
                format!("pinned output mismatch: got {got:?}, want {want:?}")
            });
        }
        self.notes.push(format!(
            "{}: {} records, {} groups, {} closed pairs, pairs fnv1a {:016x}",
            w.name,
            inputs.truth.records(),
            groups.unwrap_or(0),
            pairs.pairs,
            pairs.fnv1a
        ));
        Ok(pairs)
    }

    /// Runs `--shards`-agnostic `load` into `store`, returning the report.
    fn load(
        &mut self,
        parent: SpanId,
        inputs: &Inputs,
        store: &str,
        extra: &[&str],
    ) -> Result<ProcReport, String> {
        let _ = std::fs::remove_dir_all(self.dir.join(store));
        let w = self.spec.workload;
        let mut args = vec![
            "load".to_string(),
            "--input".into(),
            inputs.base.display().to_string(),
            "--store".into(),
            self.path(store),
            "--memory-budget".into(),
            w.memory_budget.to_string(),
        ];
        args.extend(w.engine_flags());
        args.extend(extra.iter().map(|s| s.to_string()));
        self.cli("cli.load", parent, &args)
    }

    /// Drives the two-connection open loop for one ingest interval per payload.
    fn traffic(
        &mut self,
        parent: SpanId,
        server: &Server<'_>,
        payloads: &[String],
        records: u64,
        name: &str,
    ) -> Result<Traffic, String> {
        let w = self.spec.workload;
        let batches = payloads.len();
        let span_ms = workload::INGEST_INTERVAL_MS * batches as u64;
        let ingest_schedule = Schedule {
            offset: Duration::ZERO,
            interval: Duration::from_millis(workload::INGEST_INTERVAL_MS),
            count: batches,
        };
        let query_schedule = Schedule {
            offset: Duration::from_millis(workload::QUERY_OFFSET_MS),
            interval: Duration::from_millis(w.query_interval_ms),
            count: (span_ms / w.query_interval_ms) as usize,
        };
        let mut rng = SplitMix(self.spec.seed ^ 0x5eed_01d5);
        let ids: Vec<u64> = (0..query_schedule.count)
            .map(|_| rng.next_u64() % records)
            .collect();

        let connect =
            || Client::connect(&server.socket, PATIENCE).map_err(|e| format!("connect: {e}"));
        let (mut conn_a, mut conn_b) = (connect()?, connect()?);
        let span = self.rec.begin(name, parent, 0, TRACK_MAIN);
        let start = Instant::now() + Duration::from_millis(20);
        let (ingest, query) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                loadgen::drive(start, &ingest_schedule, |k| {
                    conn_a.request(&payloads[k]).is_ok()
                })
            });
            let b = s.spawn(|| {
                loadgen::drive(start, &query_schedule, |k| {
                    conn_b
                        .request(&wire::query_matches(ids[k]))
                        .is_ok_and(|r| class_contains(&r, ids[k]))
                })
            });
            (
                a.join().expect("ingest thread panicked"),
                b.join().expect("query thread panicked"),
            )
        });
        self.rec.end(span);
        for (samples, what, track, base) in [
            (&ingest, "ingest-batch", TRACK_INGEST, 1u64),
            (&query, "query-matches", TRACK_QUERY, 1_000_001u64),
        ] {
            for (k, s) in samples.iter().enumerate() {
                // Outer span from the due time, inner from the actual send: the
                // outer's self time is how late the generator ran.
                let run = base + k as u64;
                let (due, sent, done) = (
                    self.rec.ns_at(s.due),
                    self.rec.ns_at(s.sent),
                    self.rec.ns_at(s.done),
                );
                let outer =
                    self.rec
                        .record(&format!("request.{what}"), span, run, track, due, done);
                self.rec
                    .record(&format!("wire.{what}"), outer, run, track, sent, done);
            }
        }
        Ok(Traffic { ingest, query })
    }
}

/// Whether a `query-matches` reply's class holds the queried id.
fn class_contains(reply: &Json, id: u64) -> bool {
    reply
        .get("class")
        .and_then(Json::as_array)
        .is_some_and(|c| c.iter().any(|v| v.as_u64() == Some(id)))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `spec` and returns its metrics. `Err` means the harness could not
/// run the workload at all (nothing to report); wrong outputs and failed
/// operations are reported through the tally instead.
pub fn run(env: &Env, spec: &RunSpec) -> Result<(RunOutput, Recorder), String> {
    let w = spec.workload;
    let dir = env.out_root.join(format!(
        "{}-s{}-t{}",
        w.name,
        spec.seed,
        u8::from(spec.trace)
    ));
    let rec = Recorder::new(spec.trace);
    let root = rec.begin(&format!("run.{}", w.name), SpanId::ROOT, 0, TRACK_MAIN);
    let mut run = Run {
        env,
        spec,
        dir,
        rec,
        root,
        tally: Tally::default(),
        notes: Vec::new(),
    };
    let _ = std::fs::remove_dir_all(&run.dir);
    std::fs::create_dir_all(&run.dir).map_err(|e| format!("mkdir {}: {e}", run.dir.display()))?;
    let result = run.pipeline();
    run.rec.end(run.root);
    let _ = std::fs::remove_dir_all(&run.dir);
    let (e2e, layers) = result?;
    Ok((
        RunOutput {
            e2e,
            layers,
            tally: run.tally,
            notes: run.notes,
        },
        run.rec,
    ))
}

impl Run<'_> {
    /// The run: one pass through the whole pipeline. `load`, the traffic
    /// segment and a 5 s `dedupe` run once; the shorter operations are
    /// repeated and reported as medians.
    fn pipeline(&mut self) -> Result<(Vec<Metric>, Vec<Metric>), String> {
        let w = self.spec.workload;
        let root = self.root;
        let batches = ((self.spec.seconds * 1e3 / workload::INGEST_INTERVAL_MS as f64).ceil()
            as usize)
            .max(2);
        // Traced runs ingest a few extra batches on the idle daemon first.
        let idle_batches = if self.spec.trace { 5 } else { 0 };

        // ---- set-up: everything before the first timed operation ----------
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut inputs = None;
        for k in 0..SETUPS {
            let span = self.rec.begin("setup", root, k as u64, TRACK_MAIN);
            let t = Instant::now();
            inputs = Some(self.set_up(span, batches + idle_batches + 1)?);
            setup_s.push(t.elapsed().as_secs_f64());
            self.rec.end(span);
        }
        let inputs = inputs.expect("SETUPS is at least one");
        let n_base = inputs.truth.records() as u64;

        // ---- dedupe ----------------------------------------------------------
        let mut dedupe_args = vec![
            "dedupe".to_string(),
            "--input".into(),
            inputs.base.display().to_string(),
            "--eval".into(),
            "--pairs-out".into(),
            self.path("pairs.tsv"),
        ];
        dedupe_args.extend(w.engine_flags());
        let dedupe = self.cli("cli.dedupe", root, &dedupe_args)?;
        let scored = self.check_dedupe(&dedupe.stdout, &inputs)?;
        let mut dedupe_s = vec![dedupe.wall_s];
        for _ in 1..w.dedupe_runs {
            dedupe_s.push(self.cli("cli.dedupe", root, &dedupe_args)?.wall_s);
        }
        let dedupe_s = Metric::median("dedupe_s", "s", &dedupe_s);

        // ---- load ------------------------------------------------------------
        let load = self.load(root, &inputs, "store", &[])?;
        let loaded = number_before(&load.stdout, " records ->");
        self.tally.op(loaded == Some(n_base), || {
            format!("load read {loaded:?} records, input holds {n_base}")
        });
        let store_bytes = proc::dir_bytes(&self.dir.join("store")).map_err(|e| e.to_string())?;
        if self.spec.trace {
            // The layers program restores engines from the freshly loaded store.
            copy_dir(&self.dir.join("store"), &self.dir.join("store-preload"))?;
        }

        // ---- recover: cold starts on the loaded store ------------------------
        let mut server = Server::new(self.env, &self.dir, "store", &w, &[]);
        let mut recover_s = Vec::with_capacity(RECOVERIES);
        let mut loaded_stats: Option<String> = None;
        for i in 0..RECOVERIES {
            let span = self.rec.begin("serve.start", root, i as u64, TRACK_MAIN);
            let started = server.start();
            self.rec.end(span);
            let ok = self.tally.op(started.is_ok(), || {
                format!("serve start {i}: {}", started.clone().unwrap_err())
            });
            if !ok {
                return Err("the daemon would not start on the loaded store".into());
            }
            recover_s.push(started.expect("checked above"));
            let stats = server.store_stats();
            self.tally.op(stats.is_ok(), || {
                format!("stats after start {i}: {}", stats.clone().unwrap_err())
            });
            let stats = stats.unwrap_or(Json::Null);
            let printed = stats.to_string();
            match &loaded_stats {
                None => {
                    let says = |k: &str| stats.get(k).and_then(Json::as_u64);
                    let want_pairs = number_before(&load.stdout, " pairs, ");
                    let want_cmp = number_before(&load.stdout, " comparisons, ");
                    self.tally.op(
                        says("records") == Some(n_base)
                            && says("batches_applied") == Some(1)
                            && says("distinct_pairs") == want_pairs
                            && says("comparisons") == want_cmp,
                        || format!("served store disagrees with what load reported: {printed}"),
                    );
                    loaded_stats = Some(printed);
                }
                // Every restart after a kill -9 must serve the same store.
                Some(first) => {
                    self.tally.op(&printed == first, || {
                        format!("store differs after kill -9 (start {i})")
                    });
                }
            }
        }

        // ---- traced only: the idle daemon, one request at a time -------------
        let idle = if self.spec.trace {
            Some(self.idle_probes(
                &server,
                &inputs.payloads[batches..batches + idle_batches],
                n_base,
            )?)
        } else {
            None
        };

        // ---- mixed open-loop traffic: one contiguous segment -----------------
        let traffic = self.traffic(
            root,
            &server,
            &inputs.payloads[..batches],
            n_base,
            "traffic",
        )?;
        let serve_rss = server.rss_mb();
        self.tally.op(serve_rss.is_some(), || {
            "daemon gone after the traffic".into()
        });
        let ingest = loadgen::summarize(
            &traffic.ingest,
            Duration::from_millis(workload::INGEST_INTERVAL_MS),
        );
        let query = loadgen::summarize(&traffic.query, Duration::from_millis(w.query_interval_ms));
        self.tally
            .bulk(traffic.ingest.len(), ingest.failed, "ingest-batch requests");
        self.tally
            .bulk(traffic.query.len(), query.failed, "query-matches requests");
        let (Some(serve_rss), false, false) = (
            serve_rss,
            ingest.latencies_ms.is_empty(),
            query.latencies_ms.is_empty(),
        ) else {
            return Err("no request of the traffic phase succeeded".into());
        };

        let total_batches = (batches + idle_batches) as u64;
        let after = server.store_stats();
        self.tally.op(after.is_ok(), || {
            format!("stats after traffic: {}", after.clone().unwrap_err())
        });
        let after = after.unwrap_or(Json::Null);
        let want_records = n_base + total_batches * w.batch_records as u64;
        self.tally.op(
            after.get("records").and_then(Json::as_u64) == Some(want_records)
                && after.get("batches_applied").and_then(Json::as_u64) == Some(1 + total_batches),
            || {
                format!(
                    "after traffic want {want_records} records in {} batches, store says {after}",
                    1 + total_batches
                )
            },
        );
        let after = after.to_string();

        // ---- checkpoint --------------------------------------------------------
        let mut checkpoint_s = Vec::with_capacity(CHECKPOINTS);
        for i in 0..CHECKPOINTS {
            let span = self.rec.begin("wire.snapshot", root, i as u64, TRACK_MAIN);
            let t = Instant::now();
            let reply = server.request(&wire::simple("snapshot"));
            checkpoint_s.push(t.elapsed().as_secs_f64());
            self.rec.end(span);
            self.tally.op(reply.is_ok(), || {
                format!("snapshot {i}: {}", reply.clone().unwrap_err())
            });
        }
        let unchanged = server.store_stats().map(|s| s.to_string());
        self.tally
            .op(unchanged.as_deref() == Ok(after.as_str()), || {
                format!("checkpointing changed the store: {unchanged:?}")
            });

        // ---- one more journaled batch, crash, reopen ---------------------------
        // The restart must rebuild the acknowledged state from the snapshot
        // *and* the journal frame written after it.
        let span = self.rec.begin("wire.ingest-batch", root, 0, TRACK_MAIN);
        let last = server.request(inputs.payloads.last().expect("set-up built payloads"));
        self.rec.end(span);
        self.tally.op(last.is_ok(), || {
            format!("ingest after checkpoint: {}", last.clone().unwrap_err())
        });
        let acknowledged = server.store_stats();
        let says = |k: &str| {
            acknowledged
                .as_ref()
                .ok()
                .and_then(|s| s.get(k))
                .and_then(Json::as_u64)
        };
        self.tally.op(
            says("records") == Some(want_records + w.batch_records as u64)
                && says("batches_applied") == Some(2 + total_batches),
            || format!("the post-checkpoint batch is not in the store: {acknowledged:?}"),
        );
        let acknowledged = acknowledged.map(|s| s.to_string());
        server.kill();
        let span = self.rec.begin("serve.start.reopen", root, 0, TRACK_MAIN);
        let reopened = server.start();
        self.rec.end(span);
        if self.tally.op(reopened.is_ok(), || {
            format!("reopen after kill -9: {}", reopened.clone().unwrap_err())
        }) {
            let now = server.store_stats().map(|s| s.to_string());
            self.tally.op(now == acknowledged, || {
                format!("store differs after kill -9: {now:?} vs {acknowledged:?}")
            });
        }
        let reopen_s = reopened.unwrap_or(0.0);
        server.kill();

        // ---- the end-to-end metrics --------------------------------------------
        let e2e = vec![
            Metric::median("setup_s", "s", &setup_s),
            dedupe_s.clone(),
            Metric::exact("dedupe_peak_rss_mb", "MB", dedupe.peak_rss_mb),
            Metric::exact("percent_detected", "%", scored.percent_detected),
            Metric::exact(
                "percent_precision",
                "%",
                100.0 - scored.percent_false_positive,
            ),
            Metric::exact("load_s", "s", load.wall_s),
            Metric::exact("load_peak_rss_mb", "MB", load.peak_rss_mb),
            Metric::median("recover_s", "s", &recover_s),
            Metric::median("checkpoint_s", "s", &checkpoint_s),
            Metric::exact(
                "store_bytes_per_input_byte",
                "ratio",
                store_bytes as f64 / inputs.base_bytes as f64,
            ),
            Metric::percentile(
                &format!("ingest_p{FLOOR}_ms"),
                "ms",
                &ingest.latencies_ms,
                FLOOR.into(),
            ),
            Metric::percentile(
                &format!("query_p{FLOOR}_ms"),
                "ms",
                &query.latencies_ms,
                FLOOR.into(),
            ),
            Metric::exact("serve_rss_mb", "MB", serve_rss),
        ];
        // Medians and tails: printed by every run, declared (unbounded) as
        // per-layer metrics of the traced one.
        let spread_out: Vec<Metric> = [
            ("ingest", &ingest.latencies_ms, INGEST_TAIL),
            ("query", &query.latencies_ms, QUERY_TAIL),
        ]
        .into_iter()
        .flat_map(|(what, lat, tail)| {
            [50, tail]
                .map(|p| Metric::percentile(&format!("serve.{what}_p{p}_ms"), "ms", lat, p.into()))
        })
        .collect();
        self.notes.push(format!(
            "{}: over the whole segment (no bound) {}",
            w.name,
            spread_out
                .iter()
                .map(|m| format!("{} {:.2} ms", m.name, m.value))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for (what, n, tail) in [
            ("ingest", ingest.latencies_ms.len(), INGEST_TAIL),
            ("query", query.latencies_ms.len(), QUERY_TAIL),
        ] {
            if stats::highest_supported_percentile(n).is_none_or(|p| p < tail) {
                self.notes.push(format!(
                    "{what}: only {n} samples, p{tail} has fewer than {} beyond it - not comparable",
                    stats::TAIL_SAMPLES_BEYOND
                ));
            }
        }
        self.notes.push(format!(
            "{}: percent_false_positive {:.4} %; reopen with one journaled batch {:.3} s; {} batches and {} queries in {:.1} s",
            w.name,
            scored.percent_false_positive,
            reopen_s,
            traffic.ingest.len(),
            traffic.query.len(),
            batches as f64 * workload::INGEST_INTERVAL_MS as f64 / 1e3,
        ));

        // ---- traced only: per-layer metrics ------------------------------------
        let mut layers = Vec::new();
        if let Some(idle) = idle {
            layers.extend(idle.metrics.iter().cloned());
            layers.push(Metric::exact(
                "serve.query_wait_ms",
                "ms",
                stats::percentile(&query.latencies_ms, 50.0) - idle.query_idle_ms,
            ));
            layers.extend(spread_out);
            layers.push(Metric::exact(
                "serve.late_share",
                "ratio",
                (ingest.late + query.late) as f64
                    / (traffic.ingest.len() + traffic.query.len()) as f64,
            ));
            layers.push(Metric::exact(
                "serve.loadgen_max_lag_ms",
                "ms",
                ingest.max_lag_ms.max(query.max_lag_ms),
            ));
            layers.push(Metric::exact("serve.reopen_replay_s", "s", reopen_s));
            layers.extend(self.shards2(root, &inputs, n_base)?);
            layers.extend(self.layers_program(
                root,
                &inputs,
                inputs.payloads.len(),
                dedupe_s.value,
            )?);
        }
        Ok((e2e, layers))
    }
}

/// What the closed-loop probes of the idle daemon measured.
struct Idle {
    metrics: Vec<Metric>,
    query_idle_ms: f64,
}

impl Run<'_> {
    /// Closed loop, one connection, the daemon otherwise idle: what each
    /// command costs with no queueing at all.
    fn idle_probes(
        &mut self,
        server: &Server<'_>,
        spare: &[String],
        records: u64,
    ) -> Result<Idle, String> {
        let leg = self.rec.begin("leg.idle", self.root, 0, TRACK_MAIN);
        let mut client =
            Client::connect(&server.socket, PATIENCE).map_err(|e| format!("connect: {e}"))?;
        let mut rng = SplitMix(self.spec.seed ^ 0x1d1e);
        let mut probe =
            |run: &mut Self, name: &str, n: usize, payload: &mut dyn FnMut(usize) -> String| {
                let mut samples = Vec::with_capacity(n);
                let mut failed = 0;
                for k in 0..n {
                    let body = payload(k);
                    let span = run.rec.begin(name, leg, k as u64 + 1, TRACK_MAIN);
                    let t = Instant::now();
                    let reply = client.request(&body);
                    samples.push(t.elapsed());
                    run.rec.end(span);
                    failed += usize::from(reply.is_err());
                }
                run.tally.bulk(n, failed, name);
                samples
            };
        let healthz = probe(self, "wire.healthz", 200, &mut |_| wire::simple("healthz"));
        let explain = probe(self, "wire.explain", 200, &mut |_| {
            wire::explain(rng.next_u64() % records, rng.next_u64() % records)
        });
        let query = probe(self, "wire.query-matches", 20, &mut |_| {
            wire::query_matches(rng.next_u64() % records)
        });
        let ingest = probe(self, "wire.ingest-batch", spare.len(), &mut |k| {
            spare[k].clone()
        });
        self.rec.end(leg);
        let us = |d: &[Duration]| d.iter().map(|d| d.as_secs_f64() * 1e6).collect::<Vec<_>>();
        let msv = |d: &[Duration]| d.iter().copied().map(ms).collect::<Vec<_>>();
        let query_idle = Metric::median("serve.query_idle_ms", "ms", &msv(&query));
        Ok(Idle {
            query_idle_ms: query_idle.value,
            metrics: vec![
                Metric::median("serve.wire.healthz_roundtrip_us", "us", &us(&healthz)),
                Metric::median("serve.explain_idle_us", "us", &us(&explain)),
                query_idle,
                Metric::median("serve.ingest_idle_ms", "ms", &msv(&ingest)),
            ],
        })
    }

    /// The first [`SHARDS2_TRAFFIC_MS`] of the same schedule against
    /// `serve --shards 2`, on a store loaded with `--shards 2`: prices the
    /// sharded backend against the single-worker one.
    fn shards2(
        &mut self,
        parent: SpanId,
        inputs: &Inputs,
        records: u64,
    ) -> Result<Vec<Metric>, String> {
        let leg = self.rec.begin("leg.shards2", parent, 0, TRACK_MAIN);
        let w = self.spec.workload;
        self.load(leg, inputs, "store2", &["--shards", "2"])?;
        let mut server = Server::new(self.env, &self.dir, "store2", &w, &["--shards", "2"]);
        let started = server.start();
        if !self.tally.op(started.is_ok(), || {
            format!("serve --shards 2: {}", started.clone().unwrap_err())
        }) {
            return Err("the sharded daemon would not start".into());
        }
        let batches = inputs
            .payloads
            .len()
            .min((SHARDS2_TRAFFIC_MS / workload::INGEST_INTERVAL_MS) as usize);
        let traffic = self.traffic(
            leg,
            &server,
            &inputs.payloads[..batches],
            records,
            "traffic.shards2",
        )?;
        server.kill();
        self.rec.end(leg);
        let ingest = loadgen::summarize(
            &traffic.ingest,
            Duration::from_millis(workload::INGEST_INTERVAL_MS),
        );
        let query = loadgen::summarize(&traffic.query, Duration::from_millis(w.query_interval_ms));
        self.tally.bulk(
            traffic.ingest.len(),
            ingest.failed,
            "shards2 ingest-batch requests",
        );
        self.tally.bulk(
            traffic.query.len(),
            query.failed,
            "shards2 query-matches requests",
        );
        if ingest.latencies_ms.is_empty() || query.latencies_ms.is_empty() {
            return Err("no request against the sharded daemon succeeded".into());
        }
        Ok(vec![
            Metric::percentile(
                "serve.shards2_ingest_p50_ms",
                "ms",
                &ingest.latencies_ms,
                50.0,
            ),
            Metric::percentile(
                "serve.shards2_query_p50_ms",
                "ms",
                &query.latencies_ms,
                50.0,
            ),
        ])
    }

    /// Runs the separately built layers program on this run's own inputs and
    /// imports its metrics, checks and spans.
    fn layers_program(
        &mut self,
        parent: SpanId,
        inputs: &Inputs,
        batches: usize,
        dedupe_s: f64,
    ) -> Result<Vec<Metric>, String> {
        let bin = self
            .env
            .layers_bin
            .clone()
            .ok_or("traced run without the layers program")?;
        let w = self.spec.workload;
        let out = self.dir.join("layers.json");
        let span = self.rec.begin("layers", parent, 0, TRACK_MAIN);
        let started = self.rec.ns_at(Instant::now());
        let report = proc::run(Command::new(&bin).args([
            "--base".to_string(),
            inputs.base.display().to_string(),
            "--ingest".into(),
            inputs.ingest.display().to_string(),
            "--store".into(),
            self.path("store-preload"),
            "--work".into(),
            self.path("layers-work"),
            "--window".into(),
            w.window.to_string(),
            "--theory".into(),
            w.theory.unwrap_or("native").into(),
            "--budget".into(),
            w.memory_budget.to_string(),
            "--batches".into(),
            batches.to_string(),
            "--batch-records".into(),
            w.batch_records.to_string(),
            "--seed".into(),
            self.spec.seed.to_string(),
            "--dedupe-s".into(),
            dedupe_s.to_string(),
            "--pairs".into(),
            self.path("pairs.tsv"),
            "--out".into(),
            out.display().to_string(),
        ]))
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
        self.rec.end(span);
        if !self.tally.op(report.success, || {
            format!("layers program failed: {}", report.stderr.trim())
        }) {
            return Err(format!(
                "the layers program failed: {}",
                report.stderr.trim()
            ));
        }
        let doc = std::fs::read_to_string(&out).map_err(|e| format!("read layers output: {e}"))?;
        let doc = Json::parse(&doc).map_err(|e| format!("layers output: {e}"))?;
        for c in doc.get("checks").and_then(Json::as_array).unwrap_or(&[]) {
            let what = c
                .get("what")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            self.tally
                .op(c.get("ok").and_then(Json::as_bool) == Some(true), || {
                    format!("layer check failed: {what}")
                });
        }
        for n in doc.get("notes").and_then(Json::as_array).unwrap_or(&[]) {
            self.notes.extend(n.as_str().map(str::to_string));
        }
        // Spans arrive with their own ids and an epoch at the program's start.
        let spans = doc.get("spans").and_then(Json::as_array).unwrap_or(&[]);
        let mut ids: Vec<SpanId> = Vec::with_capacity(spans.len());
        for s in spans {
            let num = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
            let parent = s
                .get("parent")
                .and_then(Json::as_u64)
                .map_or(span, |p| ids[p as usize]);
            ids.push(self.rec.record(
                s.get("name").and_then(Json::as_str).unwrap_or("?"),
                parent,
                0,
                TRACK_LAYERS,
                started + num("start_ns"),
                started + num("end_ns"),
            ));
        }
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("layers output has no metrics")?;
        metrics
            .iter()
            .map(|m| {
                Some(Metric::exact(
                    m.get("name")?.as_str()?,
                    m.get("unit")?.as_str()?,
                    m.get("value")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "malformed metric in the layers output".to_string())
    }
}

/// Copies the regular files of `from` into a fresh `to` (stores are flat or
/// one level deep).
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_reports_median_with_range() {
        let m = Metric::median("x", "s", &[3.0, 1.0, 2.0]);
        assert_eq!((m.value, m.n, m.min, m.max), (2.0, 3, 1.0, 3.0));
        let p = Metric::percentile(
            "y",
            "ms",
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            90.0,
        );
        assert_eq!((p.value, p.n), (9.0, 10));
    }

    #[test]
    fn tally_counts_failures_with_their_reason() {
        let mut t = Tally::default();
        assert!(t.op(true, || unreachable!()));
        assert!(!t.op(false, || "dedupe exited non-zero".into()));
        t.bulk(10, 2, "query-matches requests");
        t.bulk(5, 0, "ingest-batch requests");
        assert_eq!((t.attempted, t.failed), (17, 3));
        assert_eq!(t.failures.len(), 2);
    }

    #[test]
    fn query_reply_must_contain_the_queried_id() {
        let reply = Json::parse(r#"{"ok":true,"id":5,"class":[5,42],"seq":1}"#).unwrap();
        assert!(class_contains(&reply, 5));
        assert!(!class_contains(&reply, 6));
        assert!(!class_contains(&Json::parse(r#"{"ok":true}"#).unwrap(), 5));
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix(11);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix(11);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix(12);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
