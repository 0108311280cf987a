//! Batch-serving daemon for incremental merge/purge.
//!
//! The paper's monthly cycle (§1) wants a *standing service*: the cleaned
//! base lives in memory, new batches arrive on a socket, and the state
//! survives restarts through the durable match-store. This module is that
//! daemon: a server speaking a tiny length-prefixed JSON protocol over a
//! Unix domain socket and (with `--listen`) TCP — both transports share
//! the same framing and dispatch (see `docs/SERVING.md` for the wire
//! format) — backed by [`merge_purge::incremental::DurableIncremental`],
//! the one durable engine.
//!
//! # Protocol
//!
//! Every frame is a 4-byte little-endian length followed by that many
//! bytes of UTF-8 JSON. Requests are objects with a `"cmd"` key:
//!
//! * `ingest-batch` — `{"cmd":"ingest-batch","records":[<line>, ...]}`
//!   where each line is the pipe-separated flat format of
//!   `mp_record::io`. Replies `{"ok":true,"seq":S,...}` only after the
//!   batch is fsync'd to the journal *and* folded into the engine.
//! * `bulk-load` — `{"cmd":"bulk-load","path":"/path/on/daemon.mp"}`:
//!   `serve --bulk-load` without the restart. The worker closes the
//!   empty store, cold-loads the *daemon-local* flat record file into it
//!   through the one bulk commit `mergepurge load` runs
//!   ([`crate::bulk::bulk_load_store`]), and reopens it through the same
//!   open startup runs — so there is one way to fill a serving store.
//!   Refused unless the store is empty; the state is fingerprint-
//!   identical to ingesting the whole file as one `ingest-batch`. To
//!   load *before* the daemon accepts traffic (readyz held 503
//!   throughout), use `serve --bulk-load` or `mergepurge load` — see
//!   `docs/SCALING.md`.
//! * `query-matches` — `{"cmd":"query-matches","id":N}` replies with the
//!   record's duplicate class (including itself). Answered on the
//!   connection's own thread from the read view the engine worker
//!   publishes before acknowledging each batch: O(class), never queued
//!   behind a write, consistent as of the reply's `seq`.
//! * `explain` — `{"cmd":"explain","a":N,"b":N}` walks the provenance
//!   spanning forest and replies with the ordered evidence chain that
//!   connects the two records: each hop names the record pair, the
//!   equational-theory rule that matched it, the pass, the batch
//!   sequence, and (when known) the batch's trace id. `connected:false`
//!   with an empty chain when the records are in different classes.
//!   See `docs/PROVENANCE.md`.
//! * `snapshot` — forces a checkpoint; replies with the byte count.
//! * `stats` — replies with a deterministic `store` section (identical
//!   across kill/restart for the same acknowledged batches), a
//!   process-local `process` section, the `seq` watermark, live
//!   `health`/`windows`/`tracing`/`quality` sections (reply schema 6).
//!   Rendered on the connection's own thread from the same published
//!   view `query-matches` reads, so it never queues behind a write and
//!   every engine number in it is as of its `seq`.
//! * `metrics` — the Prometheus text exposition, embedded in a JSON
//!   reply; also served raw over HTTP via `--metrics-addr`.
//! * `trace` — the flight recorder's retained batch spans as one
//!   Chrome trace-event JSON document (also raw at `GET /trace` on the
//!   metrics listener).
//! * `healthz` / `readyz` — liveness and readiness probes (answered from
//!   shared state, never queued behind the engine).
//! * `shutdown` — graceful drain: in-flight batches complete, a final
//!   snapshot is written, the socket is unlinked, the process exits 0.
//!
//! Ingest goes through a *bounded* queue; when it is full the connection
//! thread blocks until the engine drains a slot (backpressure — counted
//! in `mergepurge_backpressure_waits_total` and visible as a not-ready
//! `readyz`) instead of buffering unboundedly or failing fast.
//! `SIGTERM`/`SIGINT` trigger exactly the drain the `shutdown` command
//! does: the accept loop stops and queues the same drain job, so a
//! signal leaves the same final checkpoint (logged with trigger
//! `shutdown`).
//!
//! Ingest bands: the engine worker appends each batch to the store's one
//! journal, then scans it in `max(1, cores ÷ passes)` bands per pass
//! (`ingest_bands`); the passes already run side by side, so that
//! fills the host's cores. A band count never changes the answer: the
//! fold reproduces the one-band scan bit for bit.
//!
//! Observability: `--metrics-addr` serves `/metrics`, `/healthz`,
//! `/readyz`, and `/trace` over HTTP; `--log` writes a leveled JSONL
//! event log rotated through `--log-keep` generations; see [`obs`],
//! [`eventlog`], [`http`], and `docs/OBSERVABILITY.md`.
//!
//! Tracing: every ingested batch is assigned a process-unique
//! `trace_id`, stamped on the wire ack, the `batch_ingested` event, and
//! the span set the batch leaves behind. After each batch the worker
//! drains the span collector and deposits the batch's spans in the
//! [`FlightRecorder`] (bounded ring, last-K batches), from which the
//! `trace` command and `GET /trace` serve a live Perfetto-loadable
//! dump. Batches slower than `--slow-batch-ms` are *pinned* in the ring
//! and logged as `slow_batch` events with a per-phase critical-path
//! breakdown ([`obs::PhaseBreakdown`]). See `docs/TRACING.md`.

use merge_purge::incremental::{DurableIncremental, IncrementalMergePurge, RecoveryReport};
use merge_purge::KeySpec;
use mp_metrics::{
    span, span_labeled, Counter, FlightRecorder, MetricsRecorder, PipelineObserver, TrackSpans,
};
use mp_record::{io as rio, Record};
use mp_rules::EquationalTheory;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

pub mod eventlog;
pub mod http;
pub mod json;
pub mod obs;

use eventlog::{EventLog, Level};
use json::Json;
use obs::{ObsState, PhaseBreakdown, ReadView};

/// Frames larger than this are rejected (protocol error, not a panic).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// How long a serving thread blocks on a socket read before re-checking
/// the shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to bind (unlinked on graceful shutdown).
    pub socket: PathBuf,
    /// Durable match-store directory.
    pub store_dir: PathBuf,
    /// Sorted-neighborhood window, shared by all passes.
    pub window: usize,
    /// Pass keys, in order. Must match the store's snapshot when reopening.
    pub keys: Vec<KeySpec>,
    /// `host:port` to additionally serve the wire protocol over TCP
    /// (same framing as the Unix socket); `None` disables it.
    pub listen: Option<String>,
    /// Bound of the engine worker's job queue; a full queue blocks the
    /// sender (backpressure), never drops.
    pub queue_depth: usize,
    /// Checkpoint automatically after this many ingested batches
    /// (0 = only on `snapshot`/`shutdown`).
    pub snapshot_every: u64,
    /// `host:port` to serve Prometheus `/metrics` (plus `/healthz` and
    /// `/readyz`) over HTTP; `None` disables the listener.
    pub metrics_addr: Option<String>,
    /// Structured JSONL event-log path (`None` disables the log).
    pub log_file: Option<PathBuf>,
    /// Minimum event level written to the log.
    pub log_level: Level,
    /// Event-log rotation threshold in bytes.
    pub log_max_bytes: u64,
    /// Rotated event-log generations retained (`FILE.1` … `FILE.N`;
    /// clamped to at least 1).
    pub log_keep: usize,
    /// Batches slower than this many milliseconds are pinned in the
    /// flight recorder and logged as `slow_batch` events (0 disables
    /// the threshold; batches still enter the unpinned ring).
    pub slow_batch_ms: u64,
    /// A batch whose largest merge produces a cluster of at least this
    /// many records raises the `cluster_merged` event to warn level —
    /// the early signal for a too-loose rule gluing the base together
    /// (0 disables the warning; the event still logs at info).
    pub large_cluster_threshold: u32,
    /// Suppresses all status/heartbeat stderr output.
    pub quiet: bool,
    /// Prints a periodic throughput heartbeat line to stderr
    /// (suppressed by `quiet`).
    pub progress: bool,
    /// Flat record file to cold-load through the external-sort pipeline
    /// before the store opens (`--bulk-load`). Runs only when the store
    /// is empty — a restart over a committed load skips it — and holds
    /// `readyz` at 503 until the load and the subsequent open finish.
    pub bulk_load: Option<PathBuf>,
    /// External-sort limits (memory budget, fan-in, threads) for the
    /// bulk-load paths: `--bulk-load` and the `bulk-load` wire command.
    pub bulk: mp_extsort::ExternalConfig,
}

impl ServeConfig {
    /// A config with the paper's default three passes and window 10.
    pub fn new(socket: impl Into<PathBuf>, store_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            store_dir: store_dir.into(),
            window: 10,
            keys: vec![
                KeySpec::last_name_key(),
                KeySpec::first_name_key(),
                KeySpec::address_key(),
            ],
            listen: None,
            queue_depth: 4,
            snapshot_every: 0,
            metrics_addr: None,
            log_file: None,
            log_level: Level::Info,
            log_max_bytes: eventlog::DEFAULT_MAX_BYTES,
            log_keep: eventlog::DEFAULT_KEEP,
            slow_batch_ms: 0,
            large_cluster_threshold: 100,
            quiet: false,
            progress: false,
            bulk_load: None,
            bulk: mp_extsort::ExternalConfig::default(),
        }
    }

    /// Cold-loads `input` into this daemon's store through the one bulk
    /// commit, [`crate::bulk::bulk_load_store`], with this daemon's
    /// passes and external-sort limits, spilling under
    /// `STORE/bulk-tmp`. Both bulk-load paths run it: `--bulk-load` before
    /// the store opens, the `bulk-load` job while it is closed. `Ok(None)`:
    /// the store already holds state and was left untouched.
    fn load_store(
        &self,
        input: &Path,
        theory: &dyn EquationalTheory,
        recorder: &MetricsRecorder,
    ) -> Result<Option<crate::bulk::BulkStoreReport>, String> {
        let cfg = crate::bulk::BulkStoreConfig {
            window: self.window,
            keys: self.keys.clone(),
            external: self.bulk,
        };
        crate::bulk::bulk_load_store(
            &self.store_dir,
            input,
            &self.store_dir.join("bulk-tmp"),
            &cfg,
            theory,
            recorder,
        )
    }
}

/// Process-wide shutdown flag, shared with the C signal handler.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `SIGTERM`/`SIGINT` handlers that set the shutdown flag. The
/// handler only stores an atomic, which is async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal` is the C library's, declared with its C signature;
    // `handler` is an `extern "C" fn(i32)` that lives for the whole program
    // and only stores an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// One queued unit of work for the single engine-owning worker thread.
/// FIFO order is the serialization point: `reply` is sent only after the
/// worker has durably processed `work`.
struct Job {
    work: Work,
    reply: mpsc::Sender<String>,
}

/// What the engine worker is asked to do. Reads are not here: connection
/// threads answer `query-matches`, `stats` and the probes from the
/// published [`ReadView`].
enum Work {
    Ingest(Vec<Record>),
    BulkLoad(PathBuf),
    Explain(u32, u32),
    Snapshot,
    Shutdown,
}

fn err_json(msg: &str) -> String {
    let mut obj = vec![("ok".to_string(), Json::Bool(false))];
    obj.push(("error".to_string(), Json::Str(msg.to_string())));
    Json::Obj(obj).to_string()
}

/// Reports what opening the store recovered: the stderr status line, the
/// `journal_replayed` event, and, when the journal lost bytes,
/// `corrupt_tail_truncated`.
fn report_recovery(
    obs: &ObsState,
    quiet: bool,
    durable: &DurableIncremental,
    recovery: &RecoveryReport,
) {
    let engine = durable.engine();
    if !quiet {
        eprintln!(
            "mergepurge serve: {} records, {} batches applied ({} replayed from journal{})",
            engine.records().len(),
            engine.batches_applied(),
            recovery.batches_replayed,
            if recovery.truncated_bytes > 0 {
                ", corrupt tail truncated"
            } else {
                ""
            },
        );
    }
    obs.event(
        Level::Info,
        "journal_replayed",
        vec![
            (
                "snapshot_loaded".into(),
                Json::Bool(recovery.snapshot_loaded),
            ),
            (
                "batches_in_snapshot".into(),
                Json::Num(recovery.batches_in_snapshot as f64),
            ),
            (
                "batches_replayed".into(),
                Json::Num(recovery.batches_replayed as f64),
            ),
        ],
    );
    if recovery.truncated_bytes > 0 || recovery.truncation_reason.is_some() {
        obs.event(
            Level::Warn,
            "corrupt_tail_truncated",
            vec![
                (
                    "truncated_bytes".into(),
                    Json::Num(recovery.truncated_bytes as f64),
                ),
                (
                    "reason".into(),
                    Json::Str(
                        recovery
                            .truncation_reason
                            .clone()
                            .unwrap_or_else(|| "unknown".into()),
                    ),
                ),
            ],
        );
    }
}

/// `serve --bulk-load`: cold-loads `input` before the store opens. A
/// store that already holds state is left alone, so a restart over a
/// committed load is a no-op.
fn load_at_startup(
    config: &ServeConfig,
    input: &Path,
    theory: &dyn EquationalTheory,
    recorder: &MetricsRecorder,
    obs: &ObsState,
) -> Result<(), String> {
    obs.event(
        Level::Info,
        "bulk_load_started",
        vec![("input".into(), Json::Str(input.display().to_string()))],
    );
    match config.load_store(input, theory, recorder) {
        Ok(Some(report)) => {
            if !config.quiet {
                eprintln!(
                    "mergepurge serve: bulk-loaded {} records ({} pairs, {} snapshot bytes, {} data passes) from {}",
                    report.records,
                    report.pairs,
                    report.snapshot_bytes,
                    report.io.data_passes(),
                    input.display(),
                );
            }
            obs.event(
                Level::Info,
                "bulk_load_complete",
                vec![
                    ("records".into(), Json::Num(report.records as f64)),
                    ("pairs".into(), Json::Num(report.pairs as f64)),
                    ("comparisons".into(), Json::Num(report.comparisons as f64)),
                    (
                        "snapshot_bytes".into(),
                        Json::Num(report.snapshot_bytes as f64),
                    ),
                    (
                        "data_passes".into(),
                        Json::Num(report.io.data_passes() as f64),
                    ),
                ],
            );
            Ok(())
        }
        Ok(None) => {
            if !config.quiet {
                eprintln!("mergepurge serve: bulk load skipped (store already holds state)");
            }
            obs.event(
                Level::Info,
                "bulk_load_skipped",
                vec![(
                    "reason".into(),
                    Json::Str("store already holds state".into()),
                )],
            );
            Ok(())
        }
        Err(e) => Err(format!("bulk load {}: {e}", input.display())),
    }
}

/// Bands each pass of an ingest scans in: one per core the passes leave,
/// `max(1, cores ÷ passes)`, since the passes already run side by side.
/// The counterpart of `dedupe`'s one band per core.
fn ingest_bands(passes: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (cores / passes.max(1)).max(1)
}

/// Opens the store at `config.store_dir` — snapshot restored, journal
/// replayed in [`ingest_bands`] bands — and reports what recovery found.
/// Runs at startup, and again in the `bulk-load` job to serve what the
/// load committed.
fn open_store(
    config: &ServeConfig,
    theory: &dyn EquationalTheory,
    recorder: &MetricsRecorder,
    obs: &ObsState,
) -> Result<DurableIncremental, String> {
    if config.keys.is_empty() {
        return Err("at least one pass key is required".into());
    }
    let configure = |mut e: IncrementalMergePurge| {
        for key in &config.keys {
            e = e.pass(key.clone(), config.window);
        }
        e
    };
    let (durable, recovery) = DurableIncremental::open(
        &config.store_dir,
        ingest_bands(config.keys.len()),
        configure,
        theory,
        recorder,
    )
    .map_err(|e| format!("open store {}: {e}", config.store_dir.display()))?;
    report_recovery(obs, config.quiet, &durable, &recovery);
    Ok(durable)
}

/// Runs the daemon until `shutdown` (command or signal). Blocks.
///
/// `theory` decides record equivalence; `recorder` collects counters and
/// (when tracing is enabled) the `serve > batch > ingest/snapshot` span
/// tree, which the worker drains per batch into `flight` — the caller
/// keeps the recorder so it can dump the retained spans after exit
/// (`mergepurge serve --trace`). Returns after the final snapshot is
/// written and the socket unlinked.
///
/// # Errors
///
/// Socket bind/store-open failures, a pass-configuration mismatch
/// against the stored snapshot, or a store the `bulk-load` job could not
/// reopen.
pub fn serve(
    config: &ServeConfig,
    theory: &(dyn EquationalTheory + Sync),
    recorder: &MetricsRecorder,
    flight: &FlightRecorder,
) -> Result<(), String> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();
    let _serve_span = span(recorder, "serve");

    let log = match &config.log_file {
        Some(path) => Some(EventLog::open(
            path,
            config.log_level,
            config.log_max_bytes,
            config.log_keep,
        )?),
        None => None,
    };
    let obs = ObsState::new(config.queue_depth, log);
    obs.beat();
    obs.event(
        Level::Info,
        "starting",
        vec![
            (
                "store".into(),
                Json::Str(config.store_dir.display().to_string()),
            ),
            (
                "socket".into(),
                Json::Str(config.socket.display().to_string()),
            ),
        ],
    );

    // Bind the metrics listener *before* opening the store: journal
    // replay can take a while, and `readyz` must be able to answer 503
    // (not connection-refused) during it.
    let metrics_listener = match &config.metrics_addr {
        Some(addr) => {
            let l = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("bind metrics addr {addr}: {e}"))?;
            let bound = l.local_addr().map_err(|e| e.to_string())?;
            if !config.quiet {
                eprintln!("mergepurge serve: metrics on http://{bound}/metrics");
            }
            obs.event(
                Level::Info,
                "metrics_listening",
                vec![("addr".into(), Json::Str(bound.to_string()))],
            );
            Some(l)
        }
        None => None,
    };

    let result = std::thread::scope(|scope| {
        let obs = &obs;
        if let Some(l) = metrics_listener {
            scope.spawn(move || http::serve_http(l, obs, recorder, flight, &SHUTDOWN));
        }
        let out = (|| -> Result<(), String> {
            // Cold load, before the store opens and long before
            // `set_replay_complete`: `readyz` answers 503 for the whole
            // load + open, exactly like a long journal replay.
            if let Some(input) = &config.bulk_load {
                load_at_startup(config, input, theory, recorder, obs)?;
            }
            let durable = open_store(config, theory, recorder, obs)?;
            let worker = Worker {
                config,
                theory,
                recorder,
                flight,
                obs,
                rule_names: theory.rule_names().into(),
                trace_nonce: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0)
                    ^ u64::from(std::process::id()),
                trace_seq: 0,
                last_trace_id: None,
            };
            // Before any listener binds: the first connection already
            // reads the recovered state.
            worker.publish(&durable);
            obs.set_replay_complete();
            // Sweep the startup spans (load + journal replay) into their
            // own flight entry so the first batch's entry holds only its
            // own spans.
            flight.record("startup", 0, false, recorder.drain_spans());

            // Stale socket file from an unclean previous run: remove,
            // then bind.
            let _ = std::fs::remove_file(&config.socket);
            let listener = UnixListener::bind(&config.socket)
                .map_err(|e| format!("bind {}: {e}", config.socket.display()))?;
            listener.set_nonblocking(true).map_err(|e| e.to_string())?;
            if !config.quiet {
                eprintln!("mergepurge serve: listening on {}", config.socket.display());
            }
            // The optional TCP transport shares framing and dispatch with
            // the Unix socket; it gets its own accept thread below.
            let tcp_listener = match &config.listen {
                Some(addr) => {
                    let l = TcpListener::bind(addr)
                        .map_err(|e| format!("bind tcp listener {addr}: {e}"))?;
                    l.set_nonblocking(true).map_err(|e| e.to_string())?;
                    let bound = l.local_addr().map_err(|e| e.to_string())?;
                    if !config.quiet {
                        eprintln!("mergepurge serve: listening on tcp://{bound}");
                    }
                    obs.event(
                        Level::Info,
                        "listening_tcp",
                        vec![("addr".into(), Json::Str(bound.to_string()))],
                    );
                    Some(l)
                }
                None => None,
            };
            obs.set_accepting(true);
            obs.event(
                Level::Info,
                "listening",
                vec![(
                    "socket".into(),
                    Json::Str(config.socket.display().to_string()),
                )],
            );

            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
            let engine = std::thread::Builder::new()
                .name("engine".into())
                .spawn_scoped(scope, move || worker.run(durable, rx))
                .expect("spawn engine worker");
            let front = Front {
                tx,
                obs,
                recorder,
                flight,
            };
            if let Some(tcp) = tcp_listener {
                let front = front.clone();
                scope.spawn(move || {
                    let accept = || tcp.accept().map(|(stream, _)| stream);
                    accept_loop(
                        accept,
                        TcpStream::set_read_timeout,
                        "tcp accept",
                        scope,
                        &front,
                    );
                });
            }
            let accept = || listener.accept().map(|(stream, _)| stream);
            accept_loop(
                accept,
                UnixStream::set_read_timeout,
                "accept",
                scope,
                &front,
            );
            obs.set_accepting(false);

            // A signal, the `shutdown` command and a poisoned store all
            // end the accept loop. Drain: ask the worker to checkpoint
            // and stop (a no-op if a `shutdown` command already did), then
            // let connection threads time out.
            let (ack_tx, ack_rx) = mpsc::channel();
            obs.job_enqueued();
            let drain = Job {
                work: Work::Shutdown,
                reply: ack_tx,
            };
            if front.tx.send(drain).is_ok() {
                let _ = ack_rx.recv_timeout(Duration::from_secs(30));
            } else {
                obs.job_dequeued();
            }
            drop(front);
            engine
                .join()
                .unwrap_or_else(|_| Err("engine worker panicked".into()))
        })();
        // The HTTP thread (if any) polls this flag; set it on every exit
        // path so the scope can close.
        SHUTDOWN.store(true, Ordering::SeqCst);
        out
    });
    result?;

    let _ = std::fs::remove_file(&config.socket);
    if !config.quiet {
        eprintln!("mergepurge serve: drained, snapshot written, socket removed");
    }
    obs.event(Level::Info, "stopped", vec![]);
    Ok(())
}

/// The last acknowledged journal sequence number (0 before any batch):
/// the watermark `stats` and `query-matches` replies carry so clients can
/// correlate answers with journal position.
fn last_seq(durable: &DurableIncremental) -> u64 {
    durable.store().next_seq().saturating_sub(1)
}

/// The `{"ok":true,"bytes":N}` reply of a checkpoint, or the error
/// prefixed with `what`.
fn checkpoint_reply(written: Result<u64, String>, what: &str) -> String {
    match written {
        Ok(bytes) => Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("bytes".into(), Json::Num(bytes as f64)),
        ])
        .to_string(),
        Err(e) => err_json(&format!("{what} failed: {e}")),
    }
}

/// The engine worker: the one thread that owns the
/// [`DurableIncremental`]. Jobs are applied strictly in FIFO order, which
/// is what makes the journal replayable, and every job that can change
/// state publishes the new state before it is acknowledged.
struct Worker<'env> {
    config: &'env ServeConfig,
    theory: &'env (dyn EquationalTheory + Sync),
    recorder: &'env MetricsRecorder,
    flight: &'env FlightRecorder,
    obs: &'env ObsState,
    /// The theory's rule table, fixed for the daemon's lifetime and
    /// shared by every published view: `explain` replies and the quality
    /// stats name rules by id.
    rule_names: Arc<[String]>,
    /// Process-unique trace-id prefix (wall millis XOR pid), so ids from
    /// successive daemon runs over the same store never collide in
    /// shipped logs.
    trace_nonce: u64,
    trace_seq: u64,
    last_trace_id: Option<String>,
}

impl Worker<'_> {
    fn mint_trace_id(&mut self) -> String {
        let id = format!("{:08x}-{:08x}", self.trace_nonce, self.trace_seq);
        self.trace_seq += 1;
        id
    }

    /// Applies jobs until the drain job (or until every sender is gone),
    /// then sweeps the last spans into the flight recorder so a `--trace`
    /// dump written after exit includes the final checkpoint's.
    ///
    /// # Errors
    ///
    /// The `bulk-load` job could not reopen the store: the daemon has no
    /// store left to serve.
    fn run(mut self, mut durable: DurableIncremental, rx: Receiver<Job>) -> Result<(), String> {
        let mut last_heartbeat_line = 0u64;
        loop {
            // Bounded wait so the worker heartbeat stays fresh while idle
            // (healthz liveness).
            let Job { work, reply } = match rx.recv_timeout(Duration::from_millis(250)) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.obs.beat();
                    if self.config.progress && !self.config.quiet {
                        heartbeat_line(self.obs, &mut last_heartbeat_line);
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            self.obs.job_dequeued();
            self.obs.beat();
            let is_drain = matches!(work, Work::Shutdown);
            let msg = match work {
                Work::Ingest(batch) => self.ingest(&mut durable, batch),
                Work::BulkLoad(input) => match self.bulk_load(durable, &input) {
                    Ok((reopened, msg)) => {
                        durable = reopened;
                        msg
                    }
                    Err(e) => {
                        let _ = reply.send(err_json(&format!("bulk load failed: {e}")));
                        return Err(e);
                    }
                },
                Work::Explain(a, b) => self.explain(&durable, a, b),
                Work::Snapshot => self.snapshot(&mut durable),
                Work::Shutdown => self.drain(&mut durable, &rx),
            };
            let _ = reply.send(msg);
            if is_drain {
                break;
            }
        }
        let trace_id = self.mint_trace_id();
        self.flight.record(
            trace_id,
            last_seq(&durable),
            false,
            self.recorder.drain_spans(),
        );
        Ok(())
    }

    /// An `ingest-batch` job: the engine journals (fsync) and folds the
    /// batch; then the batch is logged, a due `--snapshot-every`
    /// checkpoint runs, and its spans are decomposed and settled — all
    /// before the ack.
    fn ingest(&mut self, durable: &mut DurableIncremental, batch: Vec<Record>) -> String {
        let (recorder, obs) = (self.recorder, self.obs);
        let n = batch.len();
        let trace_id = self.mint_trace_id();
        let started = Instant::now();
        let before = [
            recorder.get(Counter::Comparisons),
            recorder.get(Counter::RuleInvocations),
            recorder.get(Counter::Matches),
        ];
        // The batch span is scoped so its guard records before the
        // per-batch drain below.
        let msg = {
            let _batch_span = span_labeled(recorder, "batch", || {
                format!("trace={trace_id} seq={}", durable.store().next_seq())
            });
            let ingested = durable.ingest(batch, Some(&trace_id), self.theory, recorder);
            match ingested.map_err(|e| e.to_string()) {
                Ok(seq) => {
                    let dur_ns = started.elapsed().as_nanos() as u64;
                    self.log_batch(durable, seq, n, &trace_id, dur_ns, before);
                    let every = self.config.snapshot_every;
                    if every > 0 && durable.batches_since_checkpoint() >= every {
                        // A failure is logged; the batch itself is already
                        // durable in the journal.
                        let _ = self.checkpoint(durable, "snapshot-every");
                    }
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("seq".into(), Json::Num(seq as f64)),
                        ("trace_id".into(), Json::Str(trace_id.clone())),
                        ("records".into(), Json::Num(n as f64)),
                        (
                            "total_records".into(),
                            Json::Num(durable.engine().records().len() as f64),
                        ),
                    ])
                    .to_string()
                }
                Err(e) => {
                    obs.event(
                        Level::Error,
                        "ingest_failed",
                        vec![
                            ("error".into(), Json::Str(e.clone())),
                            ("trace_id".into(), Json::Str(trace_id.clone())),
                        ],
                    );
                    // An ingest fails only on a journal write, after which
                    // the store refuses every later append; a restart's
                    // recovery drops what the write left.
                    self.stop_serving(&e);
                    err_json(&format!("ingest failed: {e}"))
                }
            }
        };
        // All of the batch's spans are closed now (band threads joined,
        // batch guard dropped above): decompose the critical path, then
        // settle.
        let total_ns = started.elapsed().as_nanos() as u64;
        let tracks = recorder.drain_spans();
        let mut slow = false;
        if !tracks.is_empty() {
            let phases = PhaseBreakdown::from_tracks(&tracks);
            obs.record_batch_phases(&phases);
            let threshold_ms = self.config.slow_batch_ms;
            slow = threshold_ms > 0 && total_ns >= threshold_ms.saturating_mul(1_000_000);
            if slow {
                let mut fields = vec![
                    ("trace_id".into(), Json::Str(trace_id.clone())),
                    ("duration_ms".into(), Json::Num(total_ns as f64 / 1e6)),
                    ("threshold_ms".into(), Json::Num(threshold_ms as f64)),
                ];
                fields.extend(phases.event_fields());
                obs.event(Level::Warn, "slow_batch", fields);
            }
        }
        self.settle(durable, trace_id, slow, tracks);
        msg
    }

    /// Accounts an acknowledged batch: the rolling windows, the
    /// `batch_ingested` event, and `cluster_merged` when the batch grew a
    /// cluster (at warn level from `--large-cluster-threshold` up).
    fn log_batch(
        &self,
        durable: &DurableIncremental,
        seq: u64,
        n: usize,
        trace_id: &str,
        dur_ns: u64,
        before: [u64; 3],
    ) {
        let (recorder, obs) = (self.recorder, self.obs);
        let matches = recorder.get(Counter::Matches).saturating_sub(before[2]);
        obs.record_batch(
            n as u64,
            recorder.get(Counter::Comparisons).saturating_sub(before[0]),
            recorder
                .get(Counter::RuleInvocations)
                .saturating_sub(before[1]),
            matches,
            dur_ns,
        );
        let fields = vec![
            ("batch_seq".into(), Json::Num(seq as f64)),
            ("trace_id".into(), Json::Str(trace_id.into())),
            ("records".into(), Json::Num(n as f64)),
            ("matches".into(), Json::Num(matches as f64)),
            (
                "total_records".into(),
                Json::Num(durable.engine().records().len() as f64),
            ),
            ("duration_ms".into(), Json::Num((dur_ns / 1_000_000) as f64)),
        ];
        obs.event(Level::Info, "batch_ingested", fields);
        if let Some((ea, eb, size)) = durable.engine().last_batch_largest_merge() {
            let threshold = self.config.large_cluster_threshold;
            let level = if threshold > 0 && size >= threshold {
                Level::Warn
            } else {
                Level::Info
            };
            obs.event(
                level,
                "cluster_merged",
                vec![
                    ("a".into(), Json::Num(ea as f64)),
                    ("b".into(), Json::Num(eb as f64)),
                    ("size".into(), Json::Num(size as f64)),
                    ("threshold".into(), Json::Num(threshold as f64)),
                    ("batch_seq".into(), Json::Num(seq as f64)),
                    ("trace_id".into(), Json::Str(trace_id.into())),
                ],
            );
        }
    }

    /// A `bulk-load` job: fills the empty store with `input` (a
    /// daemon-local file) through the one bulk commit `mergepurge load`
    /// and `serve --bulk-load` run, then serves it through the open
    /// startup runs. The store is closed for the load — dropping the
    /// engine closes its journal — so the commit lands in a quiescent
    /// directory; a failed load reopens the still-empty store. Returns the
    /// engine to serve from and the reply.
    ///
    /// # Errors
    ///
    /// The store could not be reopened; the daemon is stopping.
    fn bulk_load(
        &mut self,
        durable: DurableIncremental,
        input: &Path,
    ) -> Result<(DurableIncremental, String), String> {
        let (recorder, obs) = (self.recorder, self.obs);
        let trace_id = self.mint_trace_id();
        let started = Instant::now();
        let batch_span = span_labeled(recorder, "batch", || format!("trace={trace_id} bulk-load"));
        let engine = durable.engine();
        let (durable, loaded) = if engine.batches_applied() != 0 || !engine.records().is_empty() {
            let held = format!(
                "bulk-load requires an empty store (this one holds {} records from {} batches); \
                 use ingest-batch for increments",
                engine.records().len(),
                engine.batches_applied()
            );
            (durable, Err(held))
        } else {
            drop(durable);
            let loaded = self
                .config
                .load_store(input, self.theory, recorder)
                .and_then(|report| {
                    report.ok_or_else(|| {
                        "bulk-load requires an empty store (this one holds a checkpoint); \
                         use ingest-batch for increments"
                            .to_string()
                    })
                });
            match open_store(self.config, self.theory, recorder, obs) {
                Ok(reopened) => (reopened, loaded),
                Err(e) => {
                    self.stop_serving(&e);
                    return Err(e);
                }
            }
        };
        drop(batch_span);
        let msg = match loaded {
            Ok(report) => {
                // Counted like the batch it is, and like the checkpoint
                // it commits.
                recorder.add(Counter::BatchesIngested, 1);
                recorder.add(Counter::SnapshotBytes, report.snapshot_bytes);
                obs.event(
                    Level::Info,
                    "bulk_loaded",
                    vec![
                        ("trace_id".into(), Json::Str(trace_id.clone())),
                        ("input".into(), Json::Str(input.display().to_string())),
                        ("records".into(), Json::Num(report.records as f64)),
                        ("pairs".into(), Json::Num(report.pairs as f64)),
                        (
                            "snapshot_bytes".into(),
                            Json::Num(report.snapshot_bytes as f64),
                        ),
                        (
                            "duration_ms".into(),
                            Json::Num(started.elapsed().as_millis() as f64),
                        ),
                    ],
                );
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("seq".into(), Json::Num(last_seq(&durable) as f64)),
                    ("trace_id".into(), Json::Str(trace_id.clone())),
                    ("records".into(), Json::Num(report.records as f64)),
                    ("pairs".into(), Json::Num(report.pairs as f64)),
                    (
                        "snapshot_bytes".into(),
                        Json::Num(report.snapshot_bytes as f64),
                    ),
                    (
                        "total_records".into(),
                        Json::Num(durable.engine().records().len() as f64),
                    ),
                ])
                .to_string()
            }
            Err(e) => {
                obs.event(
                    Level::Error,
                    "bulk_load_failed",
                    vec![
                        ("error".into(), Json::Str(e.clone())),
                        ("trace_id".into(), Json::Str(trace_id.clone())),
                    ],
                );
                err_json(&format!("bulk load failed: {e}"))
            }
        };
        let tracks = recorder.drain_spans();
        self.settle(&durable, trace_id, false, tracks);
        Ok((durable, msg))
    }

    /// An `explain` job: the provenance chain connecting `a` and `b`, or
    /// `connected:false` when they are in different classes.
    fn explain(&self, durable: &DurableIncremental, a: u32, b: u32) -> String {
        self.obs.event(
            Level::Debug,
            "explain",
            vec![
                ("a".into(), Json::Num(a as f64)),
                ("b".into(), Json::Num(b as f64)),
            ],
        );
        let n = durable.engine().records().len();
        if (a as usize) >= n || (b as usize) >= n {
            return err_json(&format!(
                "record id out of range ({n} records): a={a} b={b}"
            ));
        }
        let chain = durable.engine().explain(a, b);
        let evidence = chain
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("a".into(), Json::Num(e.a as f64)),
                    ("b".into(), Json::Num(e.b as f64)),
                    (
                        "rule".into(),
                        Json::Str(
                            obs::rule_name(&self.rule_names, e.rule_id as usize).into_owned(),
                        ),
                    ),
                    ("rule_id".into(), Json::Num(e.rule_id as f64)),
                    ("pass".into(), Json::Num(e.pass as f64)),
                    ("batch_seq".into(), Json::Num(e.batch_seq as f64)),
                    (
                        "trace_id".into(),
                        match &e.trace_id {
                            Some(t) => Json::Str(t.clone()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("a".into(), Json::Num(a as f64)),
            ("b".into(), Json::Num(b as f64)),
            ("connected".into(), Json::Bool(chain.is_some())),
            ("chain".into(), Json::Arr(evidence)),
            ("seq".into(), Json::Num(last_seq(durable) as f64)),
        ])
        .to_string()
    }

    /// A `snapshot` job: a checkpoint under its own `batch` span.
    fn snapshot(&mut self, durable: &mut DurableIncremental) -> String {
        let trace_id = self.mint_trace_id();
        let written = {
            let _snap_span = span_labeled(self.recorder, "batch", || {
                format!("trace={trace_id} snapshot")
            });
            self.checkpoint(durable, "snapshot-cmd")
        };
        let tracks = self.recorder.drain_spans();
        self.settle(durable, trace_id, false, tracks);
        checkpoint_reply(written, "snapshot")
    }

    /// The drain job — the `shutdown` command, or the accept loop's drain
    /// after a signal: stop accepting, refuse what queued behind it, and
    /// write the final checkpoint.
    fn drain(&mut self, durable: &mut DurableIncremental, rx: &Receiver<Job>) -> String {
        SHUTDOWN.store(true, Ordering::SeqCst);
        self.obs.set_accepting(false);
        self.obs.event(Level::Info, "shutdown_begun", vec![]);
        // Jobs accepted after the shutdown request sit behind it in the
        // queue; refuse them.
        while let Ok(late) = rx.try_recv() {
            self.obs.job_dequeued();
            let _ = late.reply.send(err_json("shutting-down"));
        }
        let written = self.checkpoint(durable, "shutdown");
        self.publish(durable);
        checkpoint_reply(written, "final snapshot")
    }

    /// Writes a checkpoint and logs it: `checkpoint_written` with what
    /// triggered it (`snapshot-every`, `snapshot-cmd` or `shutdown`), or
    /// `checkpoint_failed`.
    fn checkpoint(&self, durable: &mut DurableIncremental, trigger: &str) -> Result<u64, String> {
        let written = durable.checkpoint(self.recorder).map_err(|e| e.to_string());
        match &written {
            Ok(bytes) => self.obs.event(
                Level::Info,
                "checkpoint_written",
                vec![
                    ("bytes".into(), Json::Num(*bytes as f64)),
                    ("trigger".into(), Json::Str(trigger.into())),
                ],
            ),
            Err(e) => {
                eprintln!("mergepurge serve: checkpoint failed: {e}");
                self.obs.event(
                    Level::Error,
                    "checkpoint_failed",
                    vec![("error".into(), Json::Str(e.clone()))],
                );
            }
        }
        written
    }

    /// Stops taking traffic once this process cannot trust its store — a
    /// failed journal write, or a store the `bulk-load` job could not
    /// reopen. A restart recovers from what is on disk.
    fn stop_serving(&self, e: &str) {
        eprintln!("mergepurge serve: store poisoned, shutting down: {e}");
        self.obs.event(Level::Error, "store_poisoned", vec![]);
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// The tail of every job that can change state: its closed spans
    /// become one flight entry (pinned when `slow`), its trace id the last
    /// one, and the new state is published — all before the ack.
    fn settle(
        &mut self,
        durable: &DurableIncremental,
        trace_id: String,
        slow: bool,
        tracks: Vec<TrackSpans>,
    ) {
        self.flight
            .record(trace_id.clone(), last_seq(durable), slow, tracks);
        self.last_trace_id = Some(trace_id);
        self.publish(durable);
    }

    /// Publishes what other threads may know of the engine as one
    /// [`ReadView`], after every job that can change it and before that
    /// job is acknowledged: every read renders from it.
    fn publish(&self, durable: &DurableIncremental) {
        let engine = durable.engine();
        let sizes = engine.cluster_sizes();
        let (duplicate_groups, duplicate_records) = engine.duplicate_counts();
        self.obs.publish(ReadView {
            ring: engine.class_ring().clone(),
            seq: last_seq(durable),
            records: engine.records().len() as u64,
            batches_applied: engine.batches_applied(),
            comparisons: engine.comparisons(),
            distinct_pairs: engine.pairs().len() as u64,
            duplicate_groups,
            duplicate_records,
            passes: engine.pass_counters(),
            batches_since_checkpoint: durable.batches_since_checkpoint(),
            snapshot: durable.store().snapshot_meta(),
            cluster_hist: sizes.histogram().to_vec(),
            largest_cluster: u64::from(sizes.largest()),
            merge_edges: engine.provenance().edges.len() as u64,
            rule_names: Arc::clone(&self.rule_names),
            rule_firings: engine.provenance().rule_firings.clone(),
            last_trace_id: self.last_trace_id.clone(),
        });
    }
}

/// Prints the `--progress` heartbeat line (at most every 10 s; called
/// from the worker's idle ticks).
fn heartbeat_line(obs: &ObsState, last: &mut u64) {
    let now = obs.now_secs();
    if now < *last + 10 {
        return;
    }
    *last = now;
    let w = obs.ring.window(now, 60);
    let view = obs.view();
    eprintln!(
        "mergepurge serve: up {}s, {} records, seq {}, queue {}/{}, 1m {:.1} rec/s, p99 {:.1} ms",
        obs.uptime_secs(),
        view.records,
        view.seq,
        obs.queue_depth(),
        obs.queue_capacity(),
        w.rate(mp_metrics::rolling::WindowCounter::Records),
        w.latency_quantile_ns(0.99) as f64 / 1e6,
    );
}

/// What connection threads serve from: the job queue into the engine
/// worker, and the shared state — the published view among it — that
/// reads, probes and scrapes answer from without queueing.
#[derive(Clone)]
struct Front<'a> {
    tx: SyncSender<Job>,
    obs: &'a ObsState,
    recorder: &'a MetricsRecorder,
    flight: &'a FlightRecorder,
}

/// Accepts connections until shutdown — `accept` polls the non-blocking
/// Unix socket or `--listen` TCP port, same framing and dispatch either
/// way — and serves each on its own scoped thread, once `arm_timeout` has
/// armed its read timeout of [`POLL`], the connection's shutdown poll.
fn accept_loop<'scope, 'env, S: Read + Write + Send + 'scope>(
    accept: impl Fn() -> io::Result<S>,
    arm_timeout: fn(&S, Option<Duration>) -> io::Result<()>,
    what: &str,
    scope: &'scope Scope<'scope, 'env>,
    front: &Front<'env>,
) {
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => {
                let _ = arm_timeout(&stream, Some(POLL));
                let front = front.clone();
                scope.spawn(move || handle_conn(stream, &front));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("mergepurge serve: {what} failed: {e}");
                break;
            }
        }
    }
}

/// Serves one client connection until EOF or shutdown.
fn handle_conn(mut stream: impl Read + Write, front: &Front<'_>) {
    // Ends at a clean EOF or shutdown (`Ok(None)`) and on any read error.
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let response = dispatch(&frame, front);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Parses one request frame and routes it: probe/scrape commands,
/// `query-matches` and `stats` answer from shared state immediately, on
/// this connection's thread; everything else goes through the job queue to
/// the engine worker.
fn dispatch(frame: &str, front: &Front<'_>) -> String {
    let Front {
        tx,
        obs,
        recorder,
        flight,
    } = front;
    let req = match Json::parse(frame) {
        Ok(v) => v,
        Err(e) => return err_json(&format!("bad json: {e}")),
    };
    let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
        return err_json("missing \"cmd\"");
    };
    match cmd {
        // The drained queue refuses late jobs with this same reply.
        "query-matches" | "stats" if SHUTDOWN.load(Ordering::SeqCst) => err_json("shutting-down"),
        "ingest-batch" => {
            let Some(lines) = req.get("records").and_then(Json::as_array) else {
                return err_json("ingest-batch needs a \"records\" array");
            };
            let mut text = String::new();
            for l in lines {
                let Some(s) = l.as_str() else {
                    return err_json("\"records\" entries must be strings");
                };
                text.push_str(s);
                text.push('\n');
            }
            let batch = match rio::read_records(text.as_bytes()) {
                Ok(b) => b,
                Err(e) => return err_json(&format!("bad record line: {e}")),
            };
            if batch.is_empty() {
                return err_json("empty batch");
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            // Bounded backpressure: a full queue blocks this connection
            // thread (counted, and visible as a not-ready `readyz`)
            // until the engine drains a slot — never an unbounded
            // buffer, never a dropped batch.
            obs.job_enqueued();
            let job = Job {
                work: Work::Ingest(batch),
                reply: reply_tx,
            };
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    obs.backpressure_waited();
                    if tx.send(job).is_err() {
                        obs.job_dequeued();
                        return err_json("shutting-down");
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    obs.job_dequeued();
                    return err_json("shutting-down");
                }
            }
            reply_rx
                .recv()
                .unwrap_or_else(|_| err_json("shutting-down"))
        }
        "query-matches" => {
            let Some(id) = req.get("id").and_then(Json::as_u64) else {
                return err_json("query-matches needs a numeric \"id\"");
            };
            if id > u64::from(u32::MAX) {
                return err_json("id out of range");
            }
            obs.event(
                Level::Debug,
                "query_matches",
                vec![("id".into(), Json::Num(id as f64))],
            );
            query_matches_json(&obs.view(), id as u32)
        }
        "explain" => {
            let (Some(a), Some(b)) = (
                req.get("a").and_then(Json::as_u64),
                req.get("b").and_then(Json::as_u64),
            ) else {
                return err_json("explain needs numeric \"a\" and \"b\"");
            };
            if a > u64::from(u32::MAX) || b > u64::from(u32::MAX) {
                return err_json("id out of range");
            }
            enqueue_and_wait(tx, obs, Work::Explain(a as u32, b as u32))
        }
        "bulk-load" => {
            let Some(path) = req.get("path").and_then(Json::as_str) else {
                return err_json("bulk-load needs a \"path\" string (daemon-local file)");
            };
            enqueue_and_wait(tx, obs, Work::BulkLoad(PathBuf::from(path)))
        }
        "snapshot" => enqueue_and_wait(tx, obs, Work::Snapshot),
        // Reads, probes and scrapes never touch the worker queue: they
        // must answer even when the engine is busy or backed up.
        "stats" => {
            obs.event(Level::Debug, "stats", vec![]);
            obs.stats_json(recorder, flight)
        }
        "metrics" => Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("format".into(), Json::Str("prometheus-0.0.4".into())),
            ("exposition".into(), Json::Str(obs.exposition(recorder))),
        ])
        .to_string(),
        "trace" => Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("format".into(), Json::Str("chrome-trace-json".into())),
            ("entries".into(), Json::Num(flight.len() as f64)),
            ("pinned".into(), Json::Num(flight.pinned_len() as f64)),
            ("trace".into(), Json::Str(flight.chrome_json())),
        ])
        .to_string(),
        "healthz" => obs.healthz_json(),
        "readyz" => obs.readyz_json(),
        "shutdown" => {
            SHUTDOWN.store(true, Ordering::SeqCst);
            enqueue_and_wait(tx, obs, Work::Shutdown)
        }
        other => err_json(&format!("unknown cmd {other:?}")),
    }
}

/// The `query-matches` reply for `id` as of `view`: a range check, a walk
/// of the record's own class, the encode. O(class), whatever the store
/// holds, and no other thread is involved.
fn query_matches_json(view: &ReadView, id: u32) -> String {
    if (id as usize) >= view.ring.len() {
        return err_json(&format!(
            "record id {id} out of range ({} records)",
            view.ring.len()
        ));
    }
    let class = view.ring.class_of(id);
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("id".into(), Json::Num(id as f64)),
        (
            "class".into(),
            Json::Arr(class.iter().map(|&r| Json::Num(r as f64)).collect()),
        ),
        ("seq".into(), Json::Num(view.seq as f64)),
    ])
    .to_string()
}

/// Sends a (non-ingest) job, blocking for queue space, and awaits the
/// worker's reply. These serialize behind any queued ingests.
fn enqueue_and_wait(tx: &SyncSender<Job>, obs: &ObsState, work: Work) -> String {
    let (reply, reply_rx) = mpsc::channel();
    obs.job_enqueued();
    if tx.send(Job { work, reply }).is_err() {
        obs.job_dequeued();
        return err_json("shutting-down");
    }
    reply_rx
        .recv()
        .unwrap_or_else(|_| err_json("shutting-down"))
}

// ---- framing ---------------------------------------------------------

/// Writes one `u32`-little-endian-length-prefixed UTF-8 frame.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_frame(stream: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before a length prefix, or
/// once shutdown is flagged.
///
/// Resumable across read timeouts: the serving sockets arm a 100 ms read
/// timeout as their shutdown poll, and a timeout means "check the
/// shutdown flag and keep waiting" wherever in the frame it lands — a
/// slow peer's partial prefix or payload is kept, never discarded.
/// Clients arm no read timeout, so for them this is a plain blocking
/// read. The payload buffer grows 64 KiB at a time as bytes arrive,
/// never straight to the length a peer declares.
///
/// # Errors
///
/// Socket failures, oversized frames (> [`MAX_FRAME`]), invalid UTF-8,
/// and `UnexpectedEof` when the peer closes inside a frame.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<String>> {
    let mut payload = Vec::new();
    if !read_payload(stream, &mut payload)? {
        return Ok(None);
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// How much payload buffer [`read_frame`] adds at a time: what a frame
/// holds in memory tracks the bytes its peer has actually sent.
const FRAME_CHUNK: usize = 64 * 1024;

/// Reads one length prefix and its payload into `payload`, growing it a
/// [`FRAME_CHUNK`] at a time. `Ok(false)` means stop serving this
/// connection cleanly (see [`fill_with_shutdown`]).
fn read_payload(stream: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    if !fill_with_shutdown(stream, &mut len_buf, true)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let len = len as usize;
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(FRAME_CHUNK), 0);
        if !fill_with_shutdown(stream, &mut payload[filled..], false)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Fills `buf`, keeping what has arrived across read timeouts and
/// checking the shutdown flag at each one. `Ok(false)` means stop serving
/// this connection cleanly: shutdown was flagged, or — only when
/// `frame_start` — the peer closed before sending a byte.
///
/// # Errors
///
/// Socket failures, and `UnexpectedEof` when the peer closes inside a
/// frame (a torn frame is not a clean close).
fn fill_with_shutdown(
    stream: &mut impl Read,
    buf: &mut [u8],
    frame_start: bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if frame_start && filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed inside a frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if SHUTDOWN.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// ---- client helpers --------------------------------------------------

/// Sends one request frame to a running daemon and returns the response.
///
/// # Errors
///
/// Connection or framing failures, or a connection the daemon closed
/// without replying.
pub fn request(socket: &Path, payload: &str) -> io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    write_frame(&mut stream, payload)?;
    read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed without replying",
        )
    })
}

/// Sends one request frame over TCP to a daemon started with `--listen`
/// and returns the response. Same framing as [`request`].
///
/// # Errors
///
/// Connection or framing failures, or a connection the daemon closed
/// without replying.
pub fn request_tcp(addr: &str, payload: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, payload)?;
    read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed without replying",
        )
    })
}

/// Builds an `ingest-batch` request from records (serialized to the flat
/// pipe format line-by-line).
pub fn ingest_request(records: &[Record]) -> String {
    let mut buf = Vec::new();
    rio::write_records(&mut buf, records).expect("in-memory write cannot fail");
    let lines = String::from_utf8(buf).expect("flat format is UTF-8");
    Json::Obj(vec![
        ("cmd".into(), Json::Str("ingest-batch".into())),
        (
            "records".into(),
            Json::Arr(lines.lines().map(|l| Json::Str(l.to_string())).collect()),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"stats\"}").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("{\"cmd\":\"stats\"}")
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A peer that declares the largest frame, sends 1 KiB and hangs up
    /// costs the reader about what it sent, not what it declared.
    #[test]
    fn declared_frame_length_is_not_allocated_before_bytes_arrive() {
        let mut wire = MAX_FRAME.to_le_bytes().to_vec();
        wire.extend_from_slice(&[b'x'; 1024]);
        let mut payload = Vec::new();
        let torn = read_payload(&mut &wire[..], &mut payload).unwrap_err();
        assert_eq!(torn.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            payload.capacity() <= 1024 + FRAME_CHUNK,
            "{} bytes reserved for 1024 received",
            payload.capacity()
        );
        let torn = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(torn.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A peer that stalls longer than the socket's read timeout — inside
    /// the length prefix, or inside the payload — loses nothing: the
    /// partial bytes are kept, the frame parses, and so does the next one
    /// on the same connection.
    #[test]
    fn slow_peer_frames_survive_read_timeouts() {
        let stall = POLL * 5 / 2;
        let (mut peer, mut conn) = UnixStream::pair().unwrap();
        conn.set_read_timeout(Some(POLL)).unwrap();
        let frame = |payload: &str| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, payload).unwrap();
            bytes
        };
        let (first, second, third) = (
            frame("{\"cmd\":\"healthz\"}"),
            frame("{\"cmd\":\"query-matches\",\"id\":17}"),
            frame("{\"cmd\":\"readyz\"}"),
        );
        let writer = std::thread::spawn(move || {
            // Two prefix bytes, a stall, the rest.
            peer.write_all(&first[..2]).unwrap();
            std::thread::sleep(stall);
            peer.write_all(&first[2..]).unwrap();
            // Prefix and half the payload, a stall, the rest.
            let half = 4 + (second.len() - 4) / 2;
            peer.write_all(&second[..half]).unwrap();
            std::thread::sleep(stall);
            peer.write_all(&second[half..]).unwrap();
            // The stream is still in step.
            peer.write_all(&third).unwrap();
            // Closing inside a frame is a torn frame, not a clean close.
            peer.write_all(&third[..6]).unwrap();
        });
        for want in ["healthz", "query-matches", "readyz"] {
            let got = read_frame(&mut conn).unwrap().unwrap();
            assert!(got.contains(want), "{got} should be the {want} frame");
        }
        writer.join().unwrap();
        let torn = read_frame(&mut conn).unwrap_err();
        assert_eq!(torn.kind(), io::ErrorKind::UnexpectedEof);
        // And with nothing in flight, a close is clean.
        let (peer, mut conn) = UnixStream::pair().unwrap();
        drop(peer);
        assert_eq!(read_frame(&mut conn).unwrap(), None);
    }

    #[test]
    fn query_reply_lists_the_class_as_of_the_view() {
        let mut ring = mp_closure::ClassRing::new(4);
        ring.splice(3, 1);
        let view = ReadView {
            ring,
            seq: 9,
            ..ReadView::default()
        };
        assert_eq!(
            query_matches_json(&view, 3),
            "{\"ok\":true,\"id\":3,\"class\":[1,3],\"seq\":9}"
        );
        assert_eq!(
            query_matches_json(&view, 0),
            "{\"ok\":true,\"id\":0,\"class\":[0],\"seq\":9}"
        );
        assert_eq!(
            query_matches_json(&view, 4),
            err_json("record id 4 out of range (4 records)")
        );
    }

    /// Reads never enter the job queue. With no engine worker behind it —
    /// the job receiver dropped — a `Front` still answers every read and
    /// probe from the published view, and refuses what needs the worker.
    #[test]
    fn reads_answer_without_a_worker_and_jobs_are_refused() {
        let obs = ObsState::new(4, None);
        let mut ring = mp_closure::ClassRing::new(2);
        ring.splice(1, 0);
        obs.publish(ReadView {
            ring,
            seq: 1,
            records: 2,
            ..ReadView::default()
        });
        obs.set_replay_complete();
        obs.set_accepting(true);
        obs.beat();
        let (recorder, flight) = (MetricsRecorder::new(), FlightRecorder::default());
        let (tx, rx) = mpsc::sync_channel(4);
        drop(rx);
        let front = Front {
            tx,
            obs: &obs,
            recorder: &recorder,
            flight: &flight,
        };
        for cmd in ["stats", "metrics", "healthz", "readyz"] {
            let reply = dispatch(&format!(r#"{{"cmd":"{cmd}"}}"#), &front);
            assert!(reply.starts_with(r#"{"ok":true"#), "{cmd}: {reply}");
        }
        assert_eq!(
            dispatch(r#"{"cmd":"query-matches","id":1}"#, &front),
            r#"{"ok":true,"id":1,"class":[0,1],"seq":1}"#
        );
        let mut record = Record::empty(mp_record::RecordId(0));
        record.last_name = "ANA".into();
        for job in [
            r#"{"cmd":"explain","a":0,"b":1}"#.to_string(),
            r#"{"cmd":"snapshot"}"#.to_string(),
            ingest_request(&[record]),
        ] {
            assert_eq!(dispatch(&job, &front), err_json("shutting-down"), "{job}");
        }
        assert_eq!(obs.queue_depth(), 0, "refused jobs leave no queue depth");
    }

    #[test]
    fn ingest_request_round_trips_records() {
        use mp_record::RecordId;
        let mut r = Record::empty(RecordId(0));
        r.last_name = "O'BRIEN \"q\"".into(); // quotes exercise JSON escaping
        r.first_name = "ANA".into();
        let req = ingest_request(std::slice::from_ref(&r));
        let parsed = Json::parse(&req).unwrap();
        assert_eq!(
            parsed.get("cmd").and_then(Json::as_str),
            Some("ingest-batch")
        );
        assert_eq!(
            parsed
                .get("records")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            1
        );
    }
}
