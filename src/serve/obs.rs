//! Live operational state of the serving daemon — the engine view the
//! worker publishes, rolling-window rates, health/readiness, queue
//! pressure — and every reply rendered from it: `stats`, the Prometheus
//! exposition and the probes.
//!
//! One [`ObsState`] is shared (by reference, under the daemon's thread
//! scope) between the engine worker, connection threads and the
//! `--metrics-addr` HTTP listener. Every engine number a reader sees comes
//! from one [`ReadView`], which the worker publishes after each job that
//! can change the engine and before that job's ack; the readers — `stats`,
//! `query-matches`, `metrics`/`healthz`/`readyz`, `GET /metrics` and the
//! `--progress` heartbeat — render on their own thread from that view plus
//! what is local to this process (queue, heartbeat, rolling rings,
//! histograms, all atomics). The view's lock is held for an `Arc` clone or
//! swap, so no read waits for a write (the event log has its own mutex and
//! is only touched when `--log` is set).
//!
//! `docs/OBSERVABILITY.md` documents every exported metric name, the
//! window semantics, and the probe contracts.

use super::eventlog::{EventLog, Level};
use super::json::Json;
use merge_purge::incremental::PassCounters;
use mp_closure::ClassRing;
use mp_metrics::rolling::{RollingRing, WindowCounter, WINDOWS};
use mp_metrics::{
    Counter, FlightRecorder, LatencyHistogram, MetricsRecorder, PipelineObserver, PromWriter,
    TrackSpans,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// The worker heartbeat age past which `healthz` reports the daemon
/// dead. The worker beats at least every 250 ms when idle, so a stale
/// heartbeat means the engine thread is wedged (or grinding through a
/// single enormous batch — see `docs/OBSERVABILITY.md`).
pub const HEARTBEAT_STALE_SECS: u64 = 30;

/// The engine as of acknowledged batch `seq`: all that readers know of
/// engine state. Immutable once published, so a reply rendered from one
/// view is consistent as of its `seq`.
#[derive(Debug, Default)]
pub struct ReadView {
    /// The class-member ring `query-matches` walks.
    pub ring: ClassRing,
    /// Last acknowledged journal sequence number (0 before any batch).
    pub seq: u64,
    /// Records in the engine.
    pub records: u64,
    /// Batches folded into the engine.
    pub batches_applied: u64,
    /// Pair comparisons over every batch.
    pub comparisons: u64,
    /// Distinct matched pairs.
    pub distinct_pairs: u64,
    /// Duplicate classes: clusters of two or more records.
    pub duplicate_groups: u64,
    /// Records in duplicate classes beyond one per class.
    pub duplicate_records: u64,
    /// Per-pass attribution counters, in pass order.
    pub passes: Vec<PassCounters>,
    /// Batches journaled but not yet absorbed by a checkpoint.
    pub batches_since_checkpoint: u64,
    /// Size and mtime of the last checkpoint (`None` before the first).
    pub snapshot: Option<(u64, SystemTime)>,
    /// Log2 cluster-size histogram: `cluster_hist[i]` counts clusters
    /// whose size `s` has `floor(log2(s)) == i` (bucket 0 = singletons).
    pub cluster_hist: Vec<u64>,
    /// Size of the largest cluster (1 when nothing merged yet).
    pub largest_cluster: u64,
    /// Merge edges in the provenance spanning forest.
    pub merge_edges: u64,
    /// The theory's rule table, shared by every view.
    pub rule_names: Arc<[String]>,
    /// Matches attributed to each rule, by rule id.
    pub rule_firings: Vec<u64>,
    /// The trace id of the last job that changed the engine.
    pub last_trace_id: Option<String>,
}

impl ReadView {
    /// Seconds since the last checkpoint was written (`None` before the
    /// first).
    pub fn snapshot_age_secs(&self) -> Option<u64> {
        let (_, mtime) = self.snapshot?;
        Some(
            SystemTime::now()
                .duration_since(mtime)
                .map_or(0, |d| d.as_secs()),
        )
    }
}

/// Rule `id`'s name in the theory's rule table `names`, or `rule-<id>`
/// past its end.
pub fn rule_name(names: &[String], id: usize) -> Cow<'_, str> {
    match names.get(id) {
        Some(name) => Cow::Borrowed(name),
        None => Cow::Owned(format!("rule-{id}")),
    }
}

/// Per-batch critical-path decomposition, extracted from the batch's
/// drained spans: where did the wall-clock go — the critical pass
/// (inserting its keys into its order, then its slowest band's window
/// scan), the reconcile fold, or the journal fsync?
///
/// The passes run side by side, each keying and merging the batch and
/// then scanning it in bands of its own, so a batch waits for its
/// slowest pass: its *leg* is its `key_merge` plus its slowest band, and
/// the pass with the longest leg is the critical one. Summing the passes
/// would report CPU time, not the wall clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// The critical pass's `key_merge` time (key extraction + order
    /// insertion).
    pub key_merge_ns: u64,
    /// `shard_scan` time per band, summed over the passes, as
    /// `(shard, ns)` — the CPU time band K cost the batch.
    pub scan_ns: Vec<(usize, u64)>,
    /// The critical pass's slowest band scan time (0 with no scan).
    pub scan_max_ns: u64,
    /// The band that took `scan_max_ns`.
    pub slowest_shard: Option<usize>,
    /// The critical pass: the longest `key_merge` + slowest band.
    pub slowest_pass: Option<usize>,
    /// Total `closure_reconcile` time (the fold of every pass's bands).
    pub reconcile_ns: u64,
    /// `shard_ingest` (journal append + fsync) time.
    pub journal_ns: u64,
    /// `1000 · max/mean` of the per-band scan times — the batch's band
    /// imbalance as a milli-ratio (0 with fewer than two active bands).
    pub imbalance_milli: u64,
}

/// Parses the number after `key=` in a span label made of
/// space-separated `key=N` fields (`pass=P shard=K`, `shard=K seq=S`).
fn label_field(label: &str, key: &str) -> Option<usize> {
    label
        .split(' ')
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

impl PhaseBreakdown {
    /// Decomposes one batch's drained tracks by span name: per pass its
    /// `key_merge` and its `shard_scan` durations per band (an unlabeled
    /// span counts as pass 0, band 0), the `closure_reconcile` total, and
    /// the `shard_ingest` total (the journal-fsync leg); then picks the
    /// critical pass.
    pub fn from_tracks(tracks: &[TrackSpans]) -> Self {
        // pass -> (key_merge ns, band -> scan ns)
        let mut legs: BTreeMap<usize, (u64, BTreeMap<usize, u64>)> = BTreeMap::new();
        let mut out = PhaseBreakdown::default();
        for t in tracks {
            for s in &t.spans {
                let field = |key| {
                    s.label
                        .as_deref()
                        .and_then(|l| label_field(l, key))
                        .unwrap_or(0)
                };
                match s.name {
                    "shard_scan" => {
                        let scans = &mut legs.entry(field("pass")).or_default().1;
                        *scans.entry(field("shard")).or_default() += s.dur_ns();
                    }
                    "key_merge" => legs.entry(field("pass")).or_default().0 += s.dur_ns(),
                    "closure_reconcile" => out.reconcile_ns += s.dur_ns(),
                    "shard_ingest" => out.journal_ns += s.dur_ns(),
                    _ => {}
                }
            }
        }
        let mut bands: BTreeMap<usize, u64> = BTreeMap::new();
        for (_, scans) in legs.values() {
            for (&k, &ns) in scans {
                *bands.entry(k).or_default() += ns;
            }
        }
        // `max_by_key` keeps the last of equal maxima: walk backwards so
        // ties go to the lower band and the lower pass.
        let longest = legs
            .iter()
            .rev()
            .map(|(&p, (merge_ns, scans))| {
                let slowest = scans
                    .iter()
                    .rev()
                    .max_by_key(|&(_, &ns)| ns)
                    .map(|(&k, &ns)| (k, ns));
                let leg = merge_ns + slowest.map_or(0, |(_, ns)| ns);
                (leg, p, *merge_ns, slowest)
            })
            .max_by_key(|&(leg, ..)| leg);
        if let Some((_, p, merge_ns, slowest)) = longest {
            out.slowest_pass = Some(p);
            out.key_merge_ns = merge_ns;
            if let Some((k, ns)) = slowest {
                out.scan_max_ns = ns;
                out.slowest_shard = Some(k);
            }
        }
        out.scan_ns = bands.into_iter().collect();
        if out.scan_ns.len() >= 2 {
            let sum: u64 = out.scan_ns.iter().map(|&(_, ns)| ns).sum();
            let max = out.scan_ns.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
            let mean = sum as f64 / out.scan_ns.len() as f64;
            if mean > 0.0 {
                out.imbalance_milli = (max as f64 / mean * 1000.0).round() as u64;
            }
        }
        out
    }

    /// Which leg of the critical path dominated the batch: the critical
    /// pass's `"shard_scan"` (slowest band) or `"key_merge"`, the
    /// `"reconcile"` fold, or `"journal_fsync"` (ties go to the earlier
    /// name).
    pub fn critical_phase(&self) -> &'static str {
        let legs = [
            ("shard_scan", self.scan_max_ns),
            ("key_merge", self.key_merge_ns),
            ("reconcile", self.reconcile_ns),
            ("journal_fsync", self.journal_ns),
        ];
        // `max_by_key` keeps the last of equal maxima: walk backwards.
        let longest = legs.into_iter().rev().max_by_key(|&(_, ns)| ns);
        longest.map_or("shard_scan", |(name, _)| name)
    }

    /// The event-log/`slow_batch` field list for this breakdown, in
    /// milliseconds (trace durations are ns; events report ms).
    pub fn event_fields(&self) -> Vec<(String, Json)> {
        let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
        let mut fields = vec![
            (
                "critical_phase".into(),
                Json::Str(self.critical_phase().into()),
            ),
            ("key_merge_ms".into(), ms(self.key_merge_ns)),
            ("scan_max_ms".into(), ms(self.scan_max_ns)),
            ("reconcile_ms".into(), ms(self.reconcile_ns)),
            ("journal_ms".into(), ms(self.journal_ns)),
            (
                "imbalance".into(),
                Json::Num(self.imbalance_milli as f64 / 1000.0),
            ),
        ];
        if let Some(p) = self.slowest_pass {
            fields.push(("slowest_pass".into(), Json::Num(p as f64)));
        }
        if let Some(k) = self.slowest_shard {
            fields.push(("slowest_shard".into(), Json::Num(k as f64)));
        }
        fields
    }
}

/// Shared observability state for one daemon process.
#[derive(Debug)]
pub struct ObsState {
    start: Instant,
    /// Rolling-window event ring (5 s buckets, 15 m span).
    pub ring: RollingRing,
    /// Cumulative batch-ingest latency histogram (journal append +
    /// engine fold, per acknowledged batch).
    pub batch_latency: LatencyHistogram,
    /// Cumulative reconciliation latency (`closure_reconcile` span
    /// durations: the fold of every pass's bands).
    pub reconcile: LatencyHistogram,
    /// Rolling band-imbalance ring: each batch's `max/mean` band-scan
    /// ratio recorded as a milli-ratio "latency" sample, so the standard
    /// windows answer mean imbalance over 1m/5m/15m.
    imbalance_ring: RollingRing,
    /// Jobs currently queued for the engine worker.
    queue_depth: AtomicU64,
    queue_capacity: u64,
    replay_complete: AtomicBool,
    accepting: AtomicBool,
    heartbeat_ms: AtomicU64,
    backpressure_waits: AtomicU64,
    /// The last published [`ReadView`].
    view: Mutex<Arc<ReadView>>,
    /// Structured event log (`--log`), if configured.
    pub log: Option<EventLog>,
}

impl ObsState {
    /// Fresh state for a daemon with the given ingest-queue capacity,
    /// holding the view of an empty store until the first publish.
    pub fn new(queue_capacity: usize, log: Option<EventLog>) -> Self {
        ObsState {
            start: Instant::now(),
            ring: RollingRing::standard(),
            batch_latency: LatencyHistogram::new(),
            reconcile: LatencyHistogram::new(),
            imbalance_ring: RollingRing::standard(),
            queue_depth: AtomicU64::new(0),
            queue_capacity: queue_capacity as u64,
            replay_complete: AtomicBool::new(false),
            accepting: AtomicBool::new(false),
            heartbeat_ms: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
            view: Mutex::new(Arc::new(ReadView::default())),
            log,
        }
    }

    /// Makes `view` the one every later read renders from. The engine
    /// worker calls it after every job that can change the engine and
    /// before that job's ack, so a client that has seen an ack reads that
    /// batch.
    pub fn publish(&self, view: ReadView) {
        // Bound so the superseded view is freed after the lock is released.
        let _superseded = std::mem::replace(&mut *self.lock_view(), Arc::new(view));
    }

    /// The last published view.
    pub fn view(&self) -> Arc<ReadView> {
        Arc::clone(&self.lock_view())
    }

    fn lock_view(&self) -> std::sync::MutexGuard<'_, Arc<ReadView>> {
        self.view
            .lock()
            .expect("no panic while holding the view lock")
    }

    /// Seconds since the daemon process started (the ring's clock).
    pub fn now_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Daemon uptime in whole seconds.
    pub fn uptime_secs(&self) -> u64 {
        self.now_secs()
    }

    /// Emits a structured event when `--log` is configured.
    pub fn event(&self, level: Level, event: &str, fields: Vec<(String, Json)>) {
        if let Some(log) = &self.log {
            log.event(level, event, fields);
        }
    }

    // ---- worker heartbeat / probes -----------------------------------

    /// Marks the engine worker as alive *now*. Called on every job and
    /// idle tick.
    pub fn beat(&self) {
        self.heartbeat_ms
            .store(self.start.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Seconds since the engine worker last beat.
    pub fn heartbeat_age_secs(&self) -> u64 {
        let now_ms = self.start.elapsed().as_millis() as u64;
        now_ms.saturating_sub(self.heartbeat_ms.load(Ordering::Relaxed)) / 1000
    }

    /// Liveness: has the engine worker made progress recently?
    pub fn worker_alive(&self) -> bool {
        self.heartbeat_age_secs() < HEARTBEAT_STALE_SECS
    }

    /// Marks journal replay finished (readiness precondition).
    pub fn set_replay_complete(&self) {
        self.replay_complete.store(true, Ordering::SeqCst);
    }

    /// Whether startup journal replay has finished.
    pub fn replay_complete(&self) -> bool {
        self.replay_complete.load(Ordering::SeqCst)
    }

    /// Flips whether the daemon is accepting work (false during startup
    /// and once shutdown begins).
    pub fn set_accepting(&self, accepting: bool) {
        self.accepting.store(accepting, Ordering::SeqCst);
    }

    /// Readiness verdict: `Ok(())` when the daemon should receive
    /// traffic, `Err(reason)` otherwise. Ready means journal replay is
    /// complete, the daemon is accepting (not shutting down), and the
    /// ingest queue is below its high-watermark (capacity).
    pub fn readiness(&self) -> Result<(), &'static str> {
        if !self.replay_complete() {
            return Err("journal replay in progress");
        }
        if !self.accepting.load(Ordering::SeqCst) {
            return Err("not accepting (starting up or shutting down)");
        }
        if self.queue_depth() >= self.queue_capacity {
            return Err("ingest queue at high-watermark");
        }
        Ok(())
    }

    // ---- queue & backpressure ----------------------------------------

    /// Notes a job enqueued for the worker.
    pub fn job_enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a job dequeued by the worker.
    pub fn job_dequeued(&self) {
        // Saturating: a drain path that consumes jobs it never counted
        // must not underflow the gauge.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The ingest queue's capacity (the backpressure threshold).
    pub fn queue_capacity(&self) -> u64 {
        self.queue_capacity
    }

    /// Counts one ingest request that found the queue full and fell
    /// back to a blocking enqueue (and logs it at debug).
    pub fn backpressure_waited(&self) {
        self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
        self.event(
            Level::Debug,
            "backpressure_wait",
            vec![
                ("queue_depth".into(), Json::Num(self.queue_depth() as f64)),
                (
                    "queue_capacity".into(),
                    Json::Num(self.queue_capacity as f64),
                ),
            ],
        );
    }

    /// Total backpressure waits so far.
    pub fn backpressure_waits(&self) -> u64 {
        self.backpressure_waits.load(Ordering::Relaxed)
    }

    /// Rolling rule selectivity: matches per rule invocation over the
    /// last `window_secs` seconds (0 when no rule ran in the window).
    pub fn selectivity(&self, window_secs: u64) -> f64 {
        let w = self.ring.window(self.now_secs(), window_secs);
        let invocations = w.count(WindowCounter::RuleInvocations);
        if invocations == 0 {
            return 0.0;
        }
        w.count(WindowCounter::Matches) as f64 / invocations as f64
    }

    // ---- batch accounting --------------------------------------------

    /// Records one acknowledged batch: feeds the rolling ring (records,
    /// batch, comparison/rule/match deltas) and the cumulative latency
    /// histogram.
    pub fn record_batch(
        &self,
        records: u64,
        comparisons: u64,
        rule_invocations: u64,
        matches: u64,
        duration_ns: u64,
    ) {
        let now = self.now_secs();
        self.ring.add(now, WindowCounter::Records, records);
        self.ring.add(now, WindowCounter::Batches, 1);
        self.ring.add(now, WindowCounter::Comparisons, comparisons);
        self.ring
            .add(now, WindowCounter::RuleInvocations, rule_invocations);
        self.ring.add(now, WindowCounter::Matches, matches);
        self.ring.record_latency(now, duration_ns);
        self.batch_latency.record(duration_ns);
    }

    /// Feeds one batch's per-phase decomposition (from its drained
    /// trace) into the reconcile histogram and the rolling imbalance
    /// ring.
    pub fn record_batch_phases(&self, phases: &PhaseBreakdown) {
        if phases.reconcile_ns > 0 {
            self.reconcile.record(phases.reconcile_ns);
        }
        if phases.imbalance_milli > 0 {
            self.imbalance_ring
                .record_latency(self.now_secs(), phases.imbalance_milli);
        }
    }

    /// Mean band-imbalance ratio (`max/mean` scan time per batch) over
    /// the last `window_secs` seconds; 0 when no batch scanned in two or
    /// more bands inside the window.
    pub fn imbalance_mean(&self, window_secs: u64) -> f64 {
        let w = self.imbalance_ring.window(self.now_secs(), window_secs);
        w.latency_mean_ns() as f64 / 1000.0
    }

    // ---- JSON views (wire commands & extended stats) -----------------

    /// The `healthz` reply: liveness of the engine worker.
    pub fn healthz_json(&self) -> String {
        let alive = self.worker_alive();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(alive)),
            ("alive".into(), Json::Bool(alive)),
            (
                "heartbeat_age_secs".into(),
                Json::Num(self.heartbeat_age_secs() as f64),
            ),
            ("uptime_secs".into(), Json::Num(self.uptime_secs() as f64)),
        ])
        .to_string()
    }

    /// The `readyz` reply: readiness to receive traffic.
    pub fn readyz_json(&self) -> String {
        let verdict = self.readiness();
        let mut obj = vec![
            ("ok".into(), Json::Bool(verdict.is_ok())),
            ("ready".into(), Json::Bool(verdict.is_ok())),
            ("replay_complete".into(), Json::Bool(self.replay_complete())),
            ("queue_depth".into(), Json::Num(self.queue_depth() as f64)),
            (
                "queue_capacity".into(),
                Json::Num(self.queue_capacity as f64),
            ),
        ];
        if let Err(reason) = verdict {
            obj.push(("reason".into(), Json::Str(reason.to_string())));
        }
        Json::Obj(obj).to_string()
    }

    /// The `stats` reply (schema 6), rendered on the caller's thread from
    /// the last published view. The `store` object is **deterministic**: a
    /// pure function of the acknowledged batch sequence, so it compares
    /// equal across single-process, kill/restart and bulk-loaded runs
    /// (CI enforces this) — schemas 3 through 6 only *add* sections
    /// around it. `seq` is the view's acknowledged-journal watermark, and
    /// every engine number in the reply is as of it; `process` is local to
    /// this daemon process; `health` and `windows` are live observability
    /// views; `tracing` (schema 5) reports the last trace id and the
    /// flight recorder's fill; `quality` (schema 6) reports the
    /// cluster-size distribution, the provenance edge count, and per-rule
    /// firings with rolling selectivity (see `docs/OBSERVABILITY.md`).
    /// Counters are read one by
    /// one: a full recorder report would drain the span buffers an
    /// in-flight batch still owns.
    pub fn stats_json(&self, recorder: &MetricsRecorder, flight: &FlightRecorder) -> String {
        let view = self.view();
        let num = |n: u64| Json::Num(n as f64);
        let passes = view.passes.iter().map(|p| {
            Json::Obj(vec![
                ("key".into(), Json::Str(p.key_name.clone())),
                ("window".into(), num(p.window as u64)),
                ("pairs_found".into(), num(p.pairs_found)),
                ("pairs_first_found".into(), num(p.pairs_first_found)),
            ])
        });
        let store = Json::Obj(vec![
            ("records".into(), num(view.records)),
            ("batches_applied".into(), num(view.batches_applied)),
            ("comparisons".into(), num(view.comparisons)),
            ("distinct_pairs".into(), num(view.distinct_pairs)),
            ("duplicate_groups".into(), num(view.duplicate_groups)),
            ("duplicate_records".into(), num(view.duplicate_records)),
            ("passes".into(), Json::Arr(passes.collect())),
        ]);
        let counter = |c| num(recorder.get(c));
        let process = Json::Obj(vec![
            ("batches_ingested".into(), counter(Counter::BatchesIngested)),
            ("journal_replays".into(), counter(Counter::JournalReplays)),
            ("snapshot_bytes".into(), counter(Counter::SnapshotBytes)),
            (
                "corrupt_tail_truncations".into(),
                counter(Counter::CorruptTailTruncations),
            ),
            (
                "batches_since_checkpoint".into(),
                num(view.batches_since_checkpoint),
            ),
        ]);
        let last_trace_id = view.last_trace_id.clone().map_or(Json::Null, Json::Str);
        let tracing = Json::Obj(vec![
            ("last_trace_id".into(), last_trace_id),
            ("flight_entries".into(), num(flight.len() as u64)),
            ("flight_pinned".into(), num(flight.pinned_len() as u64)),
            ("imbalance_1m".into(), Json::Num(self.imbalance_mean(60))),
            (
                "reconcile_p99_ns".into(),
                num(self.reconcile.snapshot().p99_ns),
            ),
        ]);
        let hist = view.cluster_hist.iter().enumerate();
        let hist = hist.filter(|&(_, &count)| count > 0).map(|(i, &count)| {
            Json::Obj(vec![
                ("size_min".into(), num(1 << i)),
                ("count".into(), num(count)),
            ])
        });
        let rules = view.rule_firings.iter().enumerate().map(|(i, &firings)| {
            Json::Obj(vec![
                (
                    "rule".into(),
                    Json::Str(rule_name(&view.rule_names, i).into_owned()),
                ),
                ("rule_id".into(), num(i as u64)),
                ("firings".into(), num(firings)),
            ])
        });
        let quality = Json::Obj(vec![
            ("largest_cluster".into(), num(view.largest_cluster)),
            ("clusters".into(), num(view.duplicate_groups)),
            ("merge_edges".into(), num(view.merge_edges)),
            ("cluster_size_hist".into(), Json::Arr(hist.collect())),
            ("rules".into(), Json::Arr(rules.collect())),
            ("selectivity_1m".into(), Json::Num(self.selectivity(60))),
            ("selectivity_5m".into(), Json::Num(self.selectivity(300))),
        ]);
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("schema".into(), Json::Num(6.0)),
            ("seq".into(), num(view.seq)),
            ("store".into(), store),
            ("process".into(), process),
            ("health".into(), self.health_json(&view)),
            ("windows".into(), self.windows_json()),
            ("tracing".into(), tracing),
            ("quality".into(), quality),
        ])
        .to_string()
    }

    /// The `health` section of the `stats` reply.
    pub fn health_json(&self, view: &ReadView) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let mut obj = vec![
            ("ready".into(), Json::Bool(self.readiness().is_ok())),
            ("alive".into(), Json::Bool(self.worker_alive())),
            ("uptime_secs".into(), num(self.uptime_secs())),
            ("heartbeat_age_secs".into(), num(self.heartbeat_age_secs())),
            ("queue_depth".into(), num(self.queue_depth())),
            ("queue_capacity".into(), num(self.queue_capacity)),
            ("journal_lag".into(), num(view.batches_since_checkpoint)),
            ("backpressure_waits".into(), num(self.backpressure_waits())),
            (
                "snapshot_bytes".into(),
                num(view.snapshot.map_or(0, |s| s.0)),
            ),
        ];
        if let Some(age) = view.snapshot_age_secs() {
            obj.push(("snapshot_age_secs".into(), num(age)));
        }
        Json::Obj(obj)
    }

    /// The `windows` section of the extended `stats` reply: one object
    /// per standard window with event totals, per-second rates, and
    /// batch-ingest latency quantiles.
    pub fn windows_json(&self) -> Json {
        let now = self.now_secs();
        Json::Arr(
            WINDOWS
                .iter()
                .map(|&(label, secs)| {
                    let w = self.ring.window(now, secs);
                    let mut obj = vec![
                        ("window".into(), Json::Str(label.to_string())),
                        ("secs".into(), Json::Num(secs as f64)),
                    ];
                    for c in WindowCounter::ALL {
                        obj.push((c.name().to_string(), Json::Num(w.count(c) as f64)));
                        obj.push((
                            format!("{}_per_sec", c.name()),
                            Json::Num((w.rate(c) * 1000.0).round() / 1000.0),
                        ));
                    }
                    obj.push((
                        "batch_p50_ns".into(),
                        Json::Num(w.latency_quantile_ns(0.50) as f64),
                    ));
                    obj.push((
                        "batch_p95_ns".into(),
                        Json::Num(w.latency_quantile_ns(0.95) as f64),
                    ));
                    obj.push((
                        "batch_p99_ns".into(),
                        Json::Num(w.latency_quantile_ns(0.99) as f64),
                    ));
                    obj.push((
                        "batch_mean_ns".into(),
                        Json::Num(w.latency_mean_ns() as f64),
                    ));
                    Json::Obj(obj)
                })
                .collect(),
        )
    }

    // ---- Prometheus exposition ---------------------------------------

    /// Renders the full Prometheus text exposition: every mp-metrics
    /// counter, the serving gauges, rolling-window rate/quantile
    /// families, and the cumulative batch-ingest latency histogram
    /// (plus the rule-eval histogram when tracing is enabled).
    pub fn exposition(&self, recorder: &MetricsRecorder) -> String {
        let view = self.view();
        let mut w = PromWriter::new();
        for c in Counter::ALL {
            w.counter(
                &format!("mergepurge_{}_total", c.name()),
                &format!("Cumulative mp-metrics counter `{}`.", c.name()),
                recorder.get(c),
            );
        }
        w.counter(
            "mergepurge_backpressure_waits_total",
            "Ingest requests that blocked on a full queue before enqueueing.",
            self.backpressure_waits(),
        );
        w.gauge(
            "mergepurge_uptime_seconds",
            "Seconds since the daemon started.",
            self.uptime_secs() as f64,
        );
        w.gauge(
            "mergepurge_records",
            "Records resident in the incremental engine.",
            view.records as f64,
        );
        w.gauge(
            "mergepurge_sequence",
            "Last acknowledged journal sequence number.",
            view.seq as f64,
        );
        w.gauge(
            "mergepurge_queue_depth",
            "Jobs queued for the engine worker.",
            self.queue_depth() as f64,
        );
        w.gauge(
            "mergepurge_queue_capacity",
            "Ingest queue capacity (the backpressure threshold).",
            self.queue_capacity as f64,
        );
        w.gauge(
            "mergepurge_journal_lag_batches",
            "Batches journaled but not yet absorbed by a checkpoint.",
            view.batches_since_checkpoint as f64,
        );
        w.gauge(
            "mergepurge_snapshot_size_bytes",
            "Size of the last checkpoint (0 before the first).",
            view.snapshot.map_or(0, |s| s.0) as f64,
        );
        if let Some(age) = view.snapshot_age_secs() {
            w.gauge(
                "mergepurge_snapshot_age_seconds",
                "Seconds since the last checkpoint was written.",
                age as f64,
            );
        }
        w.gauge(
            "mergepurge_ready",
            "1 when the daemon is ready for traffic (see readyz).",
            if self.readiness().is_ok() { 1.0 } else { 0.0 },
        );
        w.gauge(
            "mergepurge_worker_alive",
            "1 when the engine worker heartbeat is fresh (see healthz).",
            if self.worker_alive() { 1.0 } else { 0.0 },
        );
        w.gauge(
            "mergepurge_worker_heartbeat_age_seconds",
            "Seconds since the engine worker last made progress.",
            self.heartbeat_age_secs() as f64,
        );

        // Match-quality families (see docs/PROVENANCE.md for the lineage
        // they ride on).
        w.gauge(
            "mergepurge_largest_cluster_size",
            "Size of the largest duplicate cluster.",
            view.largest_cluster as f64,
        );
        w.gauge(
            "mergepurge_duplicate_clusters",
            "Duplicate clusters (size >= 2) in the engine.",
            view.duplicate_groups as f64,
        );
        // Cumulative le-buckets from the log2 histogram: bucket i covers
        // sizes [2^i, 2^(i+1)-1], so its upper bound is 2^(i+1)-1.
        let hist = &view.cluster_hist;
        let last_bucket = hist.iter().rposition(|&c| c > 0);
        let le_labels: Vec<String> = (0..=last_bucket.unwrap_or(0))
            .map(|i| ((1u64 << (i + 1)) - 1).to_string())
            .collect();
        let mut cluster_samples: Vec<(Vec<(&str, &str)>, u64)> = Vec::new();
        let mut cumulative = 0u64;
        if last_bucket.is_some() {
            for (i, le) in le_labels.iter().enumerate() {
                cumulative += hist.get(i).copied().unwrap_or(0);
                cluster_samples.push((vec![("le", le.as_str())], cumulative));
            }
        }
        cluster_samples.push((vec![("le", "+Inf")], hist.iter().sum()));
        w.counter_family(
            "mergepurge_cluster_size_bucket",
            "Clusters with size <= le (log2-bucketed; singletons included).",
            &cluster_samples,
        );
        if !view.rule_firings.is_empty() {
            let names: Vec<_> = (0..view.rule_firings.len())
                .map(|i| rule_name(&view.rule_names, i))
                .collect();
            let firings: Vec<(Vec<(&str, &str)>, u64)> = names
                .iter()
                .zip(&view.rule_firings)
                .map(|(name, &f)| (vec![("rule", name.as_ref())], f))
                .collect();
            w.counter_family(
                "mergepurge_rule_firings_total",
                "Matches attributed to each equational-theory rule.",
                &firings,
            );
        }
        let selectivity: Vec<(Vec<(&str, &str)>, f64)> = WINDOWS
            .iter()
            .map(|&(label, secs)| (vec![("window", label)], self.selectivity(secs)))
            .collect();
        w.gauge_family(
            "mergepurge_rule_selectivity",
            "Rolling matches per rule invocation (how selective the theory is).",
            &selectivity,
        );

        let now = self.now_secs();
        let snaps: Vec<_> = WINDOWS
            .iter()
            .map(|&(label, secs)| (label, self.ring.window(now, secs)))
            .collect();
        let mut rate_samples = Vec::new();
        for (label, snap) in &snaps {
            for c in WindowCounter::ALL {
                rate_samples.push((
                    vec![("counter", c.name()), ("window", *label)],
                    snap.rate(c),
                ));
            }
        }
        w.gauge_family(
            "mergepurge_window_rate",
            "Rolling-window event rate per second (counter x window).",
            &rate_samples,
        );
        let mut q_samples = Vec::new();
        let quantile_labels = [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];
        for (label, snap) in &snaps {
            for (qname, q) in quantile_labels {
                q_samples.push((
                    vec![("window", *label), ("quantile", qname)],
                    snap.latency_quantile_ns(q) as f64 / 1e9,
                ));
            }
        }
        w.gauge_family(
            "mergepurge_window_batch_latency_seconds",
            "Rolling-window batch-ingest latency quantiles.",
            &q_samples,
        );

        w.histogram_ns(
            "mergepurge_batch_ingest_duration_seconds",
            "Batch ingest latency (journal append + engine fold).",
            &self.batch_latency.snapshot(),
        );
        if let Some(h) = recorder.rule_latency() {
            w.histogram_ns(
                "mergepurge_rule_eval_duration_seconds",
                "Sampled rule-evaluation latency (tracing enabled).",
                &h.snapshot(),
            );
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_requires_replay_accepting_and_queue_headroom() {
        let obs = ObsState::new(2, None);
        assert!(obs.readiness().is_err(), "not ready before replay");
        obs.set_replay_complete();
        assert!(obs.readiness().is_err(), "not ready before accepting");
        obs.set_accepting(true);
        assert!(obs.readiness().is_ok());
        obs.job_enqueued();
        obs.job_enqueued();
        assert!(obs.readiness().is_err(), "full queue is not ready");
        obs.job_dequeued();
        assert!(obs.readiness().is_ok());
        obs.set_accepting(false);
        assert!(obs.readiness().is_err(), "draining is not ready");
    }

    #[test]
    fn queue_depth_never_underflows() {
        let obs = ObsState::new(4, None);
        obs.job_dequeued();
        assert_eq!(obs.queue_depth(), 0);
    }

    #[test]
    fn stats_and_exposition_render_one_view() {
        let recorder = MetricsRecorder::new().with_tracing();
        let flight = FlightRecorder::default();
        let obs = ObsState::new(4, None);
        obs.publish(ReadView {
            seq: 7,
            records: 30,
            duplicate_groups: 4,
            largest_cluster: 3,
            batches_since_checkpoint: 2,
            cluster_hist: vec![20, 4],
            rule_names: vec!["exact".to_string()].into(),
            rule_firings: vec![6, 1],
            ..ReadView::default()
        });
        {
            let _in_flight = mp_metrics::span(&recorder, "batch");
        }
        let stats = Json::parse(&obs.stats_json(&recorder, &flight)).unwrap();
        let text = obs.exposition(&recorder);
        let at = |path: &[&str]| {
            let v = path.iter().try_fold(&stats, |v, k| v.get(k)).unwrap();
            v.as_u64().unwrap()
        };
        for (path, sample) in [
            (&["seq"][..], "mergepurge_sequence 7"),
            (&["store", "records"], "mergepurge_records 30"),
            (
                &["health", "journal_lag"],
                "mergepurge_journal_lag_batches 2",
            ),
            (
                &["quality", "largest_cluster"],
                "mergepurge_largest_cluster_size 3",
            ),
            (&["quality", "clusters"], "mergepurge_duplicate_clusters 4"),
        ] {
            let (_, want) = sample.rsplit_once(' ').unwrap();
            assert_eq!(at(path).to_string(), want, "{path:?}");
            assert!(text.contains(&format!("{sample}\n")), "{sample}");
        }
        let rules = stats.get("quality").and_then(|q| q.get("rules")).unwrap();
        assert_eq!(
            rules.to_string(),
            r#"[{"rule":"exact","rule_id":0,"firings":6},{"rule":"rule-1","rule_id":1,"firings":1}]"#
        );
        assert!(text.contains("mergepurge_rule_firings_total{rule=\"rule-1\"} 1\n"));
        assert_eq!(recorder.drain_spans().len(), 1, "stats drained no spans");
    }

    /// docs/OBSERVABILITY.md names every family the exposition of a
    /// traced daemon emits, and every name in its tables is one
    /// the exposition emits.
    #[test]
    fn every_emitted_family_is_documented_and_every_documented_name_is_emitted() {
        let docs = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/docs/OBSERVABILITY.md"
        ));
        let names = |text: &str| -> Vec<String> {
            let word = |c: char| c.is_ascii_alphanumeric() || "_<>".contains(c);
            let tokens = text.split(|c: char| !word(c));
            tokens
                .filter(|t| t.starts_with("mergepurge_"))
                .map(str::to_owned)
                .collect()
        };
        let documented = names(docs);
        let obs = ObsState::new(4, None);
        obs.publish(ReadView {
            snapshot: Some((100, SystemTime::now())),
            rule_names: vec!["exact".to_string()].into(),
            rule_firings: vec![1],
            ..ReadView::default()
        });
        let text = obs.exposition(&MetricsRecorder::new().with_tracing());
        let emitted: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
            .collect();
        let counters: Vec<String> = Counter::ALL
            .iter()
            .map(|c| format!("mergepurge_{}_total", c.name()))
            .collect();
        for family in &emitted {
            let by_pattern = counters.iter().any(|c| c == family)
                && documented
                    .iter()
                    .any(|d| d == "mergepurge_<counter_name>_total");
            assert!(
                by_pattern || documented.iter().any(|d| d == family),
                "{family} is emitted but not in docs/OBSERVABILITY.md"
            );
        }
        let tables = docs.lines().filter(|l| l.starts_with('|'));
        for name in tables.flat_map(names) {
            assert!(
                emitted.contains(&name.as_str()),
                "{name} is documented but not emitted"
            );
        }
    }

    #[test]
    fn exposition_contains_every_counter_and_parses_line_by_line() {
        let recorder = MetricsRecorder::new();
        recorder.add(Counter::Comparisons, 123);
        let obs = ObsState::new(4, None);
        obs.set_replay_complete();
        obs.set_accepting(true);
        obs.record_batch(100, 5_000, 5_000, 12, 2_000_000);
        let text = obs.exposition(&recorder);
        for c in Counter::ALL {
            assert!(
                text.contains(&format!("mergepurge_{}_total", c.name())),
                "missing counter {}",
                c.name()
            );
        }
        assert!(text.contains("mergepurge_comparisons_total 123\n"));
        assert!(text.contains("mergepurge_ready 1\n"));
        assert!(text.contains("mergepurge_window_rate{counter=\"records\",window=\"1m\"}"));
        assert!(text.contains("mergepurge_batch_ingest_duration_seconds_count 1\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }

    fn span(
        name: &'static str,
        label: Option<&str>,
        start_ns: u64,
        dur_ns: u64,
    ) -> mp_metrics::SpanRecord {
        mp_metrics::SpanRecord {
            name,
            label: label.map(str::to_owned),
            depth: 0,
            start_ns,
            end_ns: start_ns + dur_ns,
        }
    }

    fn track(track: u32, spans: Vec<mp_metrics::SpanRecord>) -> TrackSpans {
        TrackSpans {
            track,
            thread_name: format!("t{track}"),
            spans,
        }
    }

    #[test]
    fn phase_breakdown_decomposes_scan_reconcile_and_fsync() {
        let tracks = vec![
            track(
                0,
                vec![
                    span("batch", Some("trace=x seq=1"), 0, 10_000),
                    span("key_merge", None, 20, 60),
                    span("shard_scan", Some("shard=0"), 100, 3_000),
                    span("closure_reconcile", None, 4_000, 1_500),
                    span("key_merge", None, 5_600, 40),
                ],
            ),
            track(1, vec![span("shard_scan", Some("shard=1"), 100, 1_000)]),
            track(
                2,
                vec![
                    span("shard_ingest", Some("shard=0 seq=1"), 50, 1_200),
                    span("shard_ingest", Some("shard=1 seq=1"), 1_250, 1_000),
                ],
            ),
        ];
        let bd = PhaseBreakdown::from_tracks(&tracks);
        assert_eq!(bd.key_merge_ns, 100, "summed over the passes");
        assert_eq!(bd.scan_ns, vec![(0, 3_000), (1, 1_000)]);
        assert_eq!(bd.scan_max_ns, 3_000);
        assert_eq!(bd.slowest_shard, Some(0));
        assert_eq!(bd.reconcile_ns, 1_500);
        assert_eq!(bd.journal_ns, 2_200, "the serial appends add up");
        // max/mean = 3000/2000 = 1.5 → 1500 milli.
        assert_eq!(bd.imbalance_milli, 1_500);
        assert_eq!(bd.critical_phase(), "shard_scan");
        let fields = bd.event_fields();
        assert!(fields
            .iter()
            .any(|(k, v)| k == "imbalance" && *v == Json::Num(1.5)));
        assert!(fields
            .iter()
            .any(|(k, v)| k == "slowest_shard" && *v == Json::Num(0.0)));
        assert!(fields
            .iter()
            .any(|(k, v)| k == "key_merge_ms" && *v == Json::Num(0.0001)));

        // Reconcile-dominated batch.
        let bd2 = PhaseBreakdown::from_tracks(&[track(
            0,
            vec![
                span("shard_scan", Some("shard=0"), 0, 100),
                span("closure_reconcile", None, 200, 5_000),
            ],
        )]);
        assert_eq!(bd2.critical_phase(), "reconcile");
        assert_eq!(bd2.imbalance_milli, 0, "one band has no imbalance");

        // A batch whose key insertion outlasts its scan, and the tie rule.
        let bd3 = PhaseBreakdown::from_tracks(&[track(
            0,
            vec![
                span("key_merge", None, 0, 900),
                span("shard_scan", Some("shard=0"), 900, 400),
            ],
        )]);
        assert_eq!(bd3.critical_phase(), "key_merge");
        assert_eq!(PhaseBreakdown::default().critical_phase(), "shard_scan");
    }

    /// Three passes side by side: pass 0's long key merge is the batch's
    /// critical path even though the passes' scans add up to far more.
    /// Summing `key_merge` and each band over the passes (CPU time) would
    /// blame the scan.
    #[test]
    fn phase_breakdown_follows_the_slowest_of_concurrent_passes() {
        let tracks = vec![
            track(
                0,
                vec![
                    span("batch", Some("trace=x seq=1"), 0, 4_400),
                    span("key_merge", Some("pass=0"), 0, 3_000),
                    span("shard_scan", Some("pass=0 shard=0"), 3_000, 600),
                    span("closure_reconcile", None, 4_000, 300),
                ],
            ),
            track(
                1,
                vec![span("shard_scan", Some("pass=0 shard=1"), 3_000, 1_000)],
            ),
            track(
                2,
                vec![
                    span("key_merge", Some("pass=1"), 0, 200),
                    span("shard_scan", Some("pass=1 shard=0"), 200, 2_000),
                ],
            ),
            track(
                3,
                vec![span("shard_scan", Some("pass=1 shard=1"), 200, 1_800)],
            ),
            track(
                4,
                vec![
                    span("key_merge", Some("pass=2"), 0, 200),
                    span("shard_scan", Some("pass=2 shard=0"), 200, 2_200),
                ],
            ),
            track(
                5,
                vec![span("shard_scan", Some("pass=2 shard=1"), 200, 1_600)],
            ),
        ];
        let bd = PhaseBreakdown::from_tracks(&tracks);
        // Legs: pass 0 = 3000 + 1000, pass 1 = 200 + 2000, pass 2 = 200 + 2200.
        assert_eq!(bd.critical_phase(), "key_merge");
        assert_eq!(
            bd.key_merge_ns, 3_000,
            "the critical pass's merge, not the sum"
        );
        assert_eq!(bd.scan_max_ns, 1_000, "the critical pass's slowest band");
        // Per band, summed over the passes: what the imbalance ratio reads.
        assert_eq!(bd.scan_ns, vec![(0, 4_800), (1, 4_400)]);
        assert_eq!(bd.reconcile_ns, 300);
        let fields = bd.event_fields();
        for (key, want) in [
            ("slowest_pass", 0.0),
            ("slowest_shard", 1.0),
            ("scan_max_ms", 0.001),
        ] {
            assert!(
                fields
                    .iter()
                    .any(|(k, v)| k == key && *v == Json::Num(want)),
                "{key} != {want}: {fields:?}"
            );
        }

        // Shorten pass 0's merge and pass 2 becomes the critical path.
        let mut tracks = tracks;
        tracks[0].spans[1] = span("key_merge", Some("pass=0"), 0, 500);
        let bd = PhaseBreakdown::from_tracks(&tracks);
        assert_eq!(bd.slowest_pass, Some(2));
        assert_eq!((bd.key_merge_ns, bd.scan_max_ns), (200, 2_200));
        assert_eq!(bd.slowest_shard, Some(0));
        assert_eq!(bd.critical_phase(), "shard_scan");
    }

    #[test]
    fn batch_phases_feed_histograms_ring_and_exposition() {
        let recorder = MetricsRecorder::new();
        let obs = ObsState::new(4, None);
        obs.record_batch_phases(&PhaseBreakdown {
            key_merge_ns: 300_000,
            scan_ns: vec![(0, 4_000_000), (1, 1_000_000)],
            scan_max_ns: 4_000_000,
            slowest_shard: Some(0),
            slowest_pass: Some(0),
            reconcile_ns: 700_000,
            journal_ns: 2_000_000,
            imbalance_milli: 1_600,
        });
        assert!((obs.imbalance_mean(60) - 1.6).abs() < 1e-9);
        let stats = obs.stats_json(&recorder, &FlightRecorder::default());
        let stats = Json::parse(&stats).unwrap();
        let tracing = stats.get("tracing").unwrap();
        assert_eq!(
            tracing.get("reconcile_p99_ns").and_then(Json::as_u64),
            Some(obs.reconcile.snapshot().p99_ns)
        );
        assert_eq!(obs.reconcile.snapshot().count, 1);
        assert_eq!(tracing.get("imbalance_1m"), Some(&Json::Num(1.6)));
        // The per-band numbers live in `stats` and `slow_batch` events,
        // not in exposition families of their own.
        let text = obs.exposition(&recorder);
        assert!(!text.contains("shard"), "{text}");
        assert!(!text.contains("mergepurge_reconcile_seconds"), "{text}");
    }

    #[test]
    fn windows_json_has_all_three_windows_with_rates() {
        let obs = ObsState::new(4, None);
        obs.record_batch(60, 600, 600, 6, 1_000_000);
        let windows = obs.windows_json();
        let arr = windows.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        for w in arr {
            assert!(w.get("records").and_then(Json::as_u64) == Some(60));
            assert!(w.get("batch_p99_ns").and_then(Json::as_u64).unwrap() > 0);
            assert!(w.get("records_per_sec").is_some());
        }
    }
}
