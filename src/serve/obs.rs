//! Live operational state of the serving daemon: rolling-window rates,
//! health/readiness, queue pressure, snapshot staleness, and the
//! Prometheus exposition that surfaces all of it.
//!
//! One [`ObsState`] is shared (by reference, under the daemon's thread
//! scope) between the engine worker (which records batch work and
//! publishes engine gauges, per shard too when running `--shards`),
//! connection threads (which count backpressure waits), and the scrape
//! paths — the `metrics`/`healthz`/`readyz`
//! wire commands and the `--metrics-addr` HTTP listener. Everything is
//! atomics; nothing on the serving path takes a lock (the event log has
//! its own mutex and is only touched when `--log` is set).
//!
//! `docs/OBSERVABILITY.md` documents every exported metric name, the
//! window semantics, and the probe contracts.

use super::eventlog::{EventLog, Level};
use super::json::Json;
use mp_metrics::rolling::{RollingRing, WindowCounter, WINDOWS};
use mp_metrics::{
    Counter, LatencyHistogram, MetricsRecorder, PipelineObserver, PromWriter, TrackSpans,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The worker heartbeat age past which `healthz` reports the daemon
/// dead. The worker beats at least every 250 ms when idle, so a stale
/// heartbeat means the engine thread is wedged (or grinding through a
/// single enormous batch — see `docs/OBSERVABILITY.md`).
pub const HEARTBEAT_STALE_SECS: u64 = 30;

/// Per-shard observability: one slot per shard journal when the daemon
/// runs with `--shards N` (N >= 2). All atomics; read by the scrape
/// paths, written by the engine worker.
#[derive(Debug, Default)]
pub struct ShardObs {
    replay_complete: AtomicBool,
    journal_replays: AtomicU64,
    records: AtomicU64,
    /// Cumulative per-shard window-scan latency: each batch's band-K
    /// `shard_scan` span durations summed over its passes, recorded from
    /// the batch's drained trace.
    scan: LatencyHistogram,
}

/// Per-batch critical-path decomposition, extracted from the batch's
/// drained spans: where did the wall-clock go — the critical pass
/// (inserting its keys into its order, then its slowest band's window
/// scan), the reconcile fold, or the shard journals' fsyncs?
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
    /// Summed `shard_ingest` (journal append + fsync) time: the shards'
    /// appends run one after another on the engine worker.
    pub journal_ns: u64,
    /// `1000 · max/mean` of the per-band scan times — the batch's shard
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

/// Match-quality view published by the engine worker after every batch:
/// the cluster-size distribution and the per-rule firing counters from
/// the provenance log. Everything here is a copy — the scrape paths
/// never touch the engine.
#[derive(Debug, Default, Clone)]
pub struct QualitySnapshot {
    /// Log2 cluster-size histogram: `hist[i]` counts clusters whose
    /// size `s` satisfies `floor(log2(s)) == i` (bucket 0 = singletons).
    pub hist: Vec<u64>,
    /// Size of the largest duplicate cluster (1 when no merges yet).
    pub largest: u64,
    /// Clusters of size >= 2 (duplicate groups).
    pub clusters: u64,
    /// Merge edges in the provenance spanning forest.
    pub edges: u64,
    /// Per-rule firing counters, `(rule_name, firings)`, in rule-table
    /// order.
    pub rules: Vec<(String, u64)>,
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
    /// durations: the fold of every pass's bands, on every daemon;
    /// exported as a Prometheus family by sharded daemons only).
    pub reconcile: LatencyHistogram,
    /// Rolling shard-imbalance ring: each batch's `max/mean` shard-scan
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
    /// Per-shard slots; empty until [`ObsState::init_shards`] runs
    /// (single-worker daemons never initialise it).
    shards: OnceLock<Vec<ShardObs>>,
    // Engine gauges, published by the worker after every job.
    records: AtomicU64,
    last_seq: AtomicU64,
    journal_lag: AtomicU64,
    snapshot_bytes: AtomicU64,
    snapshot_mtime_ms: AtomicU64, // Unix ms of the last checkpoint; 0 = none
    /// Match-quality copy (own mutex, like the event log: touched once
    /// per batch by the worker and briefly by scrapes — never on the
    /// per-comparison path).
    quality: Mutex<QualitySnapshot>,
    /// Structured event log (`--log`), if configured.
    pub log: Option<EventLog>,
}

impl ObsState {
    /// Fresh state for a daemon with the given ingest-queue capacity.
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
            shards: OnceLock::new(),
            records: AtomicU64::new(0),
            last_seq: AtomicU64::new(0),
            journal_lag: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            snapshot_mtime_ms: AtomicU64::new(0),
            quality: Mutex::new(QualitySnapshot::default()),
            log,
        }
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
    /// complete (on *every* shard when sharded), the daemon is accepting
    /// (not shutting down), and the ingest queue is below its
    /// high-watermark (capacity).
    pub fn readiness(&self) -> Result<(), &'static str> {
        if !self.replay_complete() {
            return Err("journal replay in progress");
        }
        if let Some(shards) = self.shards.get() {
            if shards
                .iter()
                .any(|s| !s.replay_complete.load(Ordering::SeqCst))
            {
                return Err("shard journal replay in progress");
            }
        }
        if !self.accepting.load(Ordering::SeqCst) {
            return Err("not accepting (starting up or shutting down)");
        }
        if self.queue_depth() >= self.queue_capacity {
            return Err("ingest queue at high-watermark");
        }
        Ok(())
    }

    // ---- shards ------------------------------------------------------

    /// Allocates per-shard observability slots. Called once at startup
    /// by sharded daemons, before journal replay begins; single-worker
    /// daemons never call it.
    pub fn init_shards(&self, n: usize) {
        let _ = self
            .shards
            .set((0..n).map(|_| ShardObs::default()).collect());
    }

    /// Number of shard slots (0 for single-worker daemons).
    pub fn shard_count(&self) -> usize {
        self.shards.get().map_or(0, Vec::len)
    }

    fn shard(&self, k: usize) -> Option<&ShardObs> {
        self.shards.get().and_then(|s| s.get(k))
    }

    /// Marks shard `k`'s journal replay finished. Readiness requires
    /// *all* shards to have replayed.
    pub fn set_shard_replay_complete(&self, k: usize) {
        if let Some(s) = self.shard(k) {
            s.replay_complete.store(true, Ordering::SeqCst);
        }
    }

    /// Whether shard `k` has finished replaying its journal.
    pub fn shard_replay_complete(&self, k: usize) -> bool {
        self.shard(k)
            .is_some_and(|s| s.replay_complete.load(Ordering::SeqCst))
    }

    /// Publishes shard `k`'s replayed-frame count (non-empty journal
    /// frames applied at startup).
    pub fn set_shard_journal_replays(&self, k: usize, n: u64) {
        if let Some(s) = self.shard(k) {
            s.journal_replays.store(n, Ordering::Relaxed);
        }
    }

    /// Non-empty journal frames shard `k` replayed at startup.
    pub fn shard_journal_replays(&self, k: usize) -> u64 {
        self.shard(k)
            .map_or(0, |s| s.journal_replays.load(Ordering::Relaxed))
    }

    /// Publishes the number of records owned by shard `k`.
    pub fn set_shard_records(&self, k: usize, n: u64) {
        if let Some(s) = self.shard(k) {
            s.records.store(n, Ordering::Relaxed);
        }
    }

    /// Records owned by shard `k` (gauge copy).
    pub fn shard_records(&self, k: usize) -> u64 {
        self.shard(k)
            .map_or(0, |s| s.records.load(Ordering::Relaxed))
    }

    /// The `shards` section of the extended `stats` reply: one object
    /// per shard, or `None` for single-worker daemons.
    pub fn shards_json(&self) -> Option<Json> {
        let shards = self.shards.get()?;
        Some(Json::Arr(
            (0..shards.len())
                .map(|k| {
                    Json::Obj(vec![
                        ("shard".into(), Json::Num(k as f64)),
                        ("records".into(), Json::Num(self.shard_records(k) as f64)),
                        (
                            "journal_replays".into(),
                            Json::Num(self.shard_journal_replays(k) as f64),
                        ),
                        (
                            "replay_complete".into(),
                            Json::Bool(self.shard_replay_complete(k)),
                        ),
                        (
                            "scan_p50_ns".into(),
                            Json::Num(self.shard_scan_quantile_ns(k, 0.50) as f64),
                        ),
                        (
                            "scan_p99_ns".into(),
                            Json::Num(self.shard_scan_quantile_ns(k, 0.99) as f64),
                        ),
                    ])
                })
                .collect(),
        ))
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

    // ---- engine gauges (published by the worker) ---------------------

    /// Publishes the engine-owned gauges: record count, last
    /// acknowledged sequence, journal lag (batches since checkpoint),
    /// and snapshot size/mtime.
    pub fn publish_engine(
        &self,
        records: u64,
        last_seq: u64,
        journal_lag: u64,
        snapshot_meta: Option<(u64, std::time::SystemTime)>,
    ) {
        self.records.store(records, Ordering::Relaxed);
        self.last_seq.store(last_seq, Ordering::Relaxed);
        self.journal_lag.store(journal_lag, Ordering::Relaxed);
        if let Some((bytes, mtime)) = snapshot_meta {
            self.snapshot_bytes.store(bytes, Ordering::Relaxed);
            let ms = mtime
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            self.snapshot_mtime_ms.store(ms, Ordering::Relaxed);
        }
    }

    /// Publishes the engine's match-quality view (cluster-size
    /// distribution + per-rule firings); called by the worker after
    /// every batch, alongside the engine gauges.
    pub fn publish_quality(&self, q: QualitySnapshot) {
        if let Ok(mut slot) = self.quality.lock() {
            *slot = q;
        }
    }

    /// A copy of the last published match-quality view.
    pub fn quality(&self) -> QualitySnapshot {
        self.quality.lock().map(|q| q.clone()).unwrap_or_default()
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

    /// Records in the engine (gauge copy).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Last acknowledged journal sequence number (0 before any batch).
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Batches journaled but not yet absorbed by a checkpoint.
    pub fn journal_lag(&self) -> u64 {
        self.journal_lag.load(Ordering::Relaxed)
    }

    /// Size of the last checkpoint in bytes (0 before any checkpoint).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }

    /// Seconds since the last checkpoint was written, or `None` when no
    /// checkpoint exists yet.
    pub fn snapshot_age_secs(&self) -> Option<u64> {
        let ms = self.snapshot_mtime_ms.load(Ordering::Relaxed);
        if ms == 0 {
            return None;
        }
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Some(now_ms.saturating_sub(ms) / 1000)
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
    /// trace) into the per-shard scan histograms, the reconcile
    /// histogram, and the rolling imbalance ring.
    pub fn record_batch_phases(&self, phases: &PhaseBreakdown) {
        for &(k, ns) in &phases.scan_ns {
            if let Some(s) = self.shard(k) {
                s.scan.record(ns);
            }
        }
        if phases.reconcile_ns > 0 {
            self.reconcile.record(phases.reconcile_ns);
        }
        if phases.imbalance_milli > 0 {
            self.imbalance_ring
                .record_latency(self.now_secs(), phases.imbalance_milli);
        }
    }

    /// Shard `k`'s cumulative scan-latency quantile in nanoseconds
    /// (0 when no scans recorded).
    pub fn shard_scan_quantile_ns(&self, k: usize, q: f64) -> u64 {
        self.shard(k).map_or(0, |s| s.scan.quantile_ns(q))
    }

    /// Mean shard-imbalance ratio (`max/mean` scan time per batch) over
    /// the last `window_secs` seconds; 0 when no sharded batch landed in
    /// the window.
    pub fn imbalance_mean(&self, window_secs: u64) -> f64 {
        let w = self.imbalance_ring.window(self.now_secs(), window_secs);
        w.latency_mean_ns() as f64 / 1000.0
    }

    /// Worst shard-imbalance ratio inside the window (0 when empty).
    pub fn imbalance_max(&self, window_secs: u64) -> f64 {
        let w = self.imbalance_ring.window(self.now_secs(), window_secs);
        w.latency_max_ns as f64 / 1000.0
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
        if let Some(shards) = self.shards.get() {
            let replayed = (0..shards.len())
                .filter(|&k| self.shard_replay_complete(k))
                .count();
            obj.push(("shards".into(), Json::Num(shards.len() as f64)));
            obj.push(("shards_replayed".into(), Json::Num(replayed as f64)));
        }
        if let Err(reason) = verdict {
            obj.push(("reason".into(), Json::Str(reason.to_string())));
        }
        Json::Obj(obj).to_string()
    }

    /// The `health` section of the extended `stats` reply.
    pub fn health_json(&self) -> Json {
        let mut obj = vec![
            ("ready".into(), Json::Bool(self.readiness().is_ok())),
            ("alive".into(), Json::Bool(self.worker_alive())),
            ("uptime_secs".into(), Json::Num(self.uptime_secs() as f64)),
            (
                "heartbeat_age_secs".into(),
                Json::Num(self.heartbeat_age_secs() as f64),
            ),
            ("queue_depth".into(), Json::Num(self.queue_depth() as f64)),
            (
                "queue_capacity".into(),
                Json::Num(self.queue_capacity as f64),
            ),
            ("journal_lag".into(), Json::Num(self.journal_lag() as f64)),
            (
                "backpressure_waits".into(),
                Json::Num(self.backpressure_waits() as f64),
            ),
            (
                "snapshot_bytes".into(),
                Json::Num(self.snapshot_bytes() as f64),
            ),
        ];
        if let Some(age) = self.snapshot_age_secs() {
            obj.push(("snapshot_age_secs".into(), Json::Num(age as f64)));
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
            self.records() as f64,
        );
        w.gauge(
            "mergepurge_sequence",
            "Last acknowledged journal sequence number.",
            self.last_seq() as f64,
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
            self.journal_lag() as f64,
        );
        w.gauge(
            "mergepurge_snapshot_size_bytes",
            "Size of the last checkpoint (0 before the first).",
            self.snapshot_bytes() as f64,
        );
        if let Some(age) = self.snapshot_age_secs() {
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

        // Match-quality families (from the worker's last published
        // snapshot; see docs/PROVENANCE.md for the lineage they ride on).
        let q = self.quality();
        w.gauge(
            "mergepurge_largest_cluster_size",
            "Size of the largest duplicate cluster.",
            q.largest as f64,
        );
        w.gauge(
            "mergepurge_duplicate_clusters",
            "Duplicate clusters (size >= 2) in the engine.",
            q.clusters as f64,
        );
        // Cumulative le-buckets from the log2 histogram: bucket i covers
        // sizes [2^i, 2^(i+1)-1], so its upper bound is 2^(i+1)-1.
        let last_bucket = q.hist.iter().rposition(|&c| c > 0);
        let le_labels: Vec<String> = (0..=last_bucket.unwrap_or(0))
            .map(|i| ((1u64 << (i + 1)) - 1).to_string())
            .collect();
        let mut cluster_samples: Vec<(Vec<(&str, &str)>, u64)> = Vec::new();
        let mut cumulative = 0u64;
        if last_bucket.is_some() {
            for (i, le) in le_labels.iter().enumerate() {
                cumulative += q.hist.get(i).copied().unwrap_or(0);
                cluster_samples.push((vec![("le", le.as_str())], cumulative));
            }
        }
        cluster_samples.push((vec![("le", "+Inf")], q.hist.iter().sum()));
        w.counter_family(
            "mergepurge_cluster_size_bucket",
            "Clusters with size <= le (log2-bucketed; singletons included).",
            &cluster_samples,
        );
        if !q.rules.is_empty() {
            let firings: Vec<(Vec<(&str, &str)>, u64)> = q
                .rules
                .iter()
                .map(|(name, f)| (vec![("rule", name.as_str())], *f))
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

        if let Some(shards) = self.shards.get() {
            let labels: Vec<String> = (0..shards.len()).map(|k| k.to_string()).collect();
            let replays: Vec<_> = labels
                .iter()
                .enumerate()
                .map(|(k, l)| (vec![("shard", l.as_str())], self.shard_journal_replays(k)))
                .collect();
            w.counter_family(
                "mergepurge_shard_journal_replays_total",
                "Non-empty journal frames each shard replayed at startup.",
                &replays,
            );
            let records: Vec<_> = labels
                .iter()
                .enumerate()
                .map(|(k, l)| (vec![("shard", l.as_str())], self.shard_records(k) as f64))
                .collect();
            w.gauge_family(
                "mergepurge_shard_records",
                "Records owned by each shard.",
                &records,
            );
            let ready: Vec<_> = labels
                .iter()
                .enumerate()
                .map(|(k, l)| {
                    (
                        vec![("shard", l.as_str())],
                        if self.shard_replay_complete(k) {
                            1.0
                        } else {
                            0.0
                        },
                    )
                })
                .collect();
            w.gauge_family(
                "mergepurge_shard_ready",
                "1 when the shard has finished journal replay.",
                &ready,
            );
            let quantile_labels = [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];
            let mut scan_samples = Vec::new();
            for (k, l) in labels.iter().enumerate() {
                for (qname, q) in quantile_labels {
                    scan_samples.push((
                        vec![("shard", l.as_str()), ("quantile", qname)],
                        self.shard_scan_quantile_ns(k, q) as f64 / 1e9,
                    ));
                }
            }
            w.gauge_family(
                "mergepurge_shard_scan_seconds",
                "Cumulative per-shard window-scan latency quantiles: each batch's band-K scan time summed over its passes (from batch traces).",
                &scan_samples,
            );
            let imbalance_samples: Vec<_> = WINDOWS
                .iter()
                .map(|&(label, secs)| (vec![("window", label)], self.imbalance_mean(secs)))
                .collect();
            w.gauge_family(
                "mergepurge_shard_imbalance_ratio",
                "Mean max/mean shard-scan time ratio per batch over the rolling window.",
                &imbalance_samples,
            );
            w.histogram_ns(
                "mergepurge_reconcile_seconds",
                "Cross-shard reconciliation (closure_reconcile) latency per batch.",
                &self.reconcile.snapshot(),
            );
        }

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
    fn readiness_requires_every_shard_to_finish_replay() {
        let obs = ObsState::new(4, None);
        obs.init_shards(4);
        obs.set_replay_complete();
        obs.set_accepting(true);
        for k in 0..3 {
            obs.set_shard_replay_complete(k);
        }
        assert_eq!(
            obs.readiness(),
            Err("shard journal replay in progress"),
            "3 of 4 shards replayed is not ready"
        );
        obs.set_shard_replay_complete(3);
        assert!(obs.readiness().is_ok(), "all shards replayed is ready");
        let ready = obs.readyz_json();
        assert!(
            ready.contains("\"shards\":4"),
            "readyz shard count: {ready}"
        );
        assert!(ready.contains("\"shards_replayed\":4"));
    }

    #[test]
    fn shard_slots_track_replays_and_records() {
        let obs = ObsState::new(4, None);
        obs.init_shards(2);
        assert_eq!(obs.shard_count(), 2);
        obs.set_shard_journal_replays(1, 7);
        obs.set_shard_records(0, 40);
        assert_eq!(obs.shard_journal_replays(1), 7);
        assert_eq!(obs.shard_records(0), 40);
        let shards = obs.shards_json().expect("shards configured");
        let arr = shards.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[1].get("journal_replays").and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(arr[0].get("records").and_then(Json::as_u64), Some(40));
        assert_eq!(
            ObsState::new(4, None).shards_json(),
            None,
            "single-worker daemons have no shards section"
        );
    }

    #[test]
    fn exposition_labels_shard_families_by_shard_number() {
        let recorder = MetricsRecorder::new();
        let obs = ObsState::new(4, None);
        obs.init_shards(3);
        obs.set_shard_journal_replays(2, 5);
        obs.set_shard_records(1, 11);
        obs.set_shard_replay_complete(0);
        let text = obs.exposition(&recorder);
        assert!(text.contains("mergepurge_shard_journal_replays_total{shard=\"2\"} 5\n"));
        assert!(text.contains("mergepurge_shard_records{shard=\"1\"} 11\n"));
        assert!(text.contains("mergepurge_shard_ready{shard=\"0\"} 1\n"));
        assert!(text.contains("mergepurge_shard_ready{shard=\"1\"} 0\n"));
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
        // Per band, summed over the passes: what the shard histograms get.
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
        obs.init_shards(2);
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
        assert_eq!(obs.shard_scan_quantile_ns(0, 1.0), 4_000_000);
        assert_eq!(obs.shard_scan_quantile_ns(1, 1.0), 1_000_000);
        assert!((obs.imbalance_mean(60) - 1.6).abs() < 1e-9);
        assert!((obs.imbalance_max(60) - 1.6).abs() < 1e-9);
        let shards = obs.shards_json().unwrap();
        let arr = shards.as_array().unwrap();
        assert_eq!(
            arr[0].get("scan_p99_ns").and_then(Json::as_u64),
            Some(4_000_000)
        );
        let text = obs.exposition(&recorder);
        assert!(
            text.contains("mergepurge_shard_scan_seconds{shard=\"0\",quantile=\"0.99\"} 0.004\n"),
            "{text}"
        );
        assert!(text.contains("mergepurge_shard_imbalance_ratio{window=\"1m\"} 1.6\n"));
        assert!(text.contains("mergepurge_reconcile_seconds_count 1\n"));
        // Single-worker daemons expose none of the shard families.
        let solo = ObsState::new(4, None).exposition(&recorder);
        assert!(!solo.contains("mergepurge_shard_imbalance_ratio"));
        assert!(!solo.contains("mergepurge_reconcile_seconds"));
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
