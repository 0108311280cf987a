#![warn(missing_docs)]

//! Pipeline observability for the merge/purge engines.
//!
//! Every engine hot path (key creation, sort, window scan, closure, the
//! parallel workers, external sorting) reports progress through a
//! [`PipelineObserver`]. The trait's methods default to no-ops and
//! [`NoopObserver`] is a zero-sized implementation, so un-instrumented runs
//! pay only a dead-branch per phase — counters are accumulated *in bulk*
//! (one `add` per phase, not per comparison), never inside inner loops.
//!
//! [`MetricsRecorder`] is the default real observer: lock-free atomic
//! counters plus per-phase monotonic nanosecond totals, aggregated into a
//! serializable [`PipelineReport`] (the CLI's `--stats` output).
//!
//! # The §3.5 cost model, in counters
//!
//! The paper's analysis says a `w`-record window sliding over `N` sorted
//! records performs `Σ_{i=1}^{N−1} min(i, w−1) = (w−1)(N − w/2)` pair
//! comparisons per pass (for `N ≥ w`). [`Counter::Comparisons`] counts
//! exactly those candidate pairs, so the closed form is checkable against a
//! live recorder:
//!
//! ```
//! use mp_metrics::{Counter, MetricsRecorder, PipelineObserver};
//!
//! // The window-scan loop reports one comparison per candidate pair; here
//! // we replay the §3.5 formula the engines produce organically.
//! let (n, w) = (1_000u64, 10u64);
//! let comparisons: u64 = (1..n).map(|i| i.min(w - 1)).sum();
//! assert_eq!(comparisons, (w - 1) * n - (w - 1) * w / 2); // (w−1)(N − w/2)
//!
//! let m = MetricsRecorder::new();
//! m.add(Counter::Comparisons, comparisons);
//! assert_eq!(m.get(Counter::Comparisons), 8_955);
//! ```
//!
//! With closure-aware pruning, [`Counter::Comparisons`] still counts every
//! candidate pair the window produces (the formula above holds), while
//! [`Counter::RuleInvocations`] counts only the pairs actually handed to
//! the equational theory and [`Counter::PairsPruned`] the pairs skipped
//! because their records were already in the same equivalence class:
//! `comparisons == rule_invocations + pairs_pruned` on pruned scans.

pub mod prom;
pub mod rolling;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use prom::PromWriter;
pub use rolling::{RollingRing, WindowCounter, WindowSnapshot};

pub use mp_trace::{
    chrome_trace_json, FlightEntry, FlightRecorder, HistogramSnapshot, LatencyHistogram,
    ProgressMeter, SpanGuard, SpanNode, SpanRecord, TraceCollector, TrackSpans,
    LATENCY_SAMPLE_MASK,
};

/// Version of the `--stats` JSON report layout. Bumped to 2 when the span
/// tree, attribution, rule-firing, and latency sections were added (the
/// schema-1 `counters`/`phases_ns` sections are unchanged), and to 3 when
/// the parallel engines' `worker_fragments` and `band_overlap_comparisons`
/// counters and `coordinator_merge` phase went.
pub const REPORT_SCHEMA: u32 = 3;

/// Monotonic event counters the engines report.
///
/// Counters are additive across passes and workers: a three-pass run
/// reports the *sum* of its passes' comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Sort keys extracted (one per record per pass).
    RecordsKeyed,
    /// Record-pair comparisons attempted by window scans.
    Comparisons,
    /// Equational-theory (rule engine) invocations. Equals
    /// [`Counter::Comparisons`] for window scans, but purge/merge phases may
    /// invoke the theory outside a scan.
    RuleInvocations,
    /// Candidate pairs skipped by closure-aware pruning: the window
    /// produced the pair, but its two records were already known to be in
    /// the same equivalence class, so the (expensive) rule evaluation was
    /// skipped. Always zero on unpruned scans; on pruned scans
    /// `comparisons == rule_invocations + pairs_pruned`.
    PairsPruned,
    /// Matching pairs emitted by passes (deduplicated within a pass).
    Matches,
    /// Pair instances fed to the transitive closure (pass-pair multiset).
    ClosureInputPairs,
    /// Input pairs the closure discarded as redundant — already connected
    /// when processed, i.e. deduplicated across passes or transitively
    /// implied by earlier pairs.
    ClosureDedupedPairs,
    /// Pairs in the closed (transitive-closure-expanded) result.
    ClosedPairs,
    /// Sorted runs formed by the external sorter.
    SortRuns,
    /// Of those, runs whose formation *spilled*: the chunk filled the
    /// memory budget before the input was exhausted, so the sorter was
    /// genuinely external for that run (a run covering the whole input
    /// never spilled). `spill_runs < sort_runs` means the final,
    /// short run fit in memory.
    SpillRuns,
    /// Bytes spilled to run files by the external sorter.
    BytesSpilled,
    /// Total inputs across external merge steps (sum of each merge's
    /// fan-in; divide by the number of merges for the mean fan-in).
    MergeFanIn,
    /// Batches ingested by the incremental engine in this process (journal
    /// replay does not count — see [`Counter::JournalReplays`]).
    BatchesIngested,
    /// Journaled batches replayed during store recovery (crash/restart).
    JournalReplays,
    /// Bytes written by match-store snapshot checkpoints.
    SnapshotBytes,
    /// Corrupt or torn journal tails detected and truncated during store
    /// recovery. Nonzero means a crash landed mid-append and the store
    /// dropped the unacknowledged tail — by design, never silently loaded.
    CorruptTailTruncations,
    /// DSL rules lowered to bytecode by the rule compiler (one increment
    /// per rule per compiled theory; zero for interpreted or native runs).
    RulesCompiled,
    /// Common-subexpression memo hits inside the rule VM: kernel
    /// evaluations answered from the per-pair memo instead of recomputed.
    SubexprHits,
    /// Scatter passes executed by the LSD radix key sort (constant-byte
    /// columns are detected by the histogram pre-pass and skipped, so this
    /// is ≤ the prefix width per sort).
    RadixPasses,
}

impl Counter {
    /// Every counter, in stable report order.
    pub const ALL: [Counter; 19] = [
        Counter::RecordsKeyed,
        Counter::Comparisons,
        Counter::RuleInvocations,
        Counter::PairsPruned,
        Counter::Matches,
        Counter::ClosureInputPairs,
        Counter::ClosureDedupedPairs,
        Counter::ClosedPairs,
        Counter::SortRuns,
        Counter::SpillRuns,
        Counter::BytesSpilled,
        Counter::MergeFanIn,
        Counter::BatchesIngested,
        Counter::JournalReplays,
        Counter::SnapshotBytes,
        Counter::CorruptTailTruncations,
        Counter::RulesCompiled,
        Counter::SubexprHits,
        Counter::RadixPasses,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RecordsKeyed => "records_keyed",
            Counter::Comparisons => "comparisons",
            Counter::RuleInvocations => "rule_invocations",
            Counter::PairsPruned => "pairs_pruned",
            Counter::Matches => "matches",
            Counter::ClosureInputPairs => "closure_input_pairs",
            Counter::ClosureDedupedPairs => "closure_deduped_pairs",
            Counter::ClosedPairs => "closed_pairs",
            Counter::SortRuns => "sort_runs",
            Counter::SpillRuns => "spill_runs",
            Counter::BytesSpilled => "bytes_spilled",
            Counter::MergeFanIn => "merge_fan_in",
            Counter::BatchesIngested => "batches_ingested",
            Counter::JournalReplays => "journal_replays",
            Counter::SnapshotBytes => "snapshot_bytes",
            Counter::CorruptTailTruncations => "corrupt_tail_truncations",
            Counter::RulesCompiled => "rules_compiled",
            Counter::SubexprHits => "subexpr_hits",
            Counter::RadixPasses => "radix_passes",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Pipeline phases whose wall-clock time the engines report.
///
/// Times are monotonic nanosecond totals: concurrent workers' phase times
/// sum, so a phase total can exceed wall-clock on multi-threaded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Record conditioning (normalization, nicknames, spell correction).
    Condition,
    /// Sort-key extraction.
    CreateKeys,
    /// Sorting (or per-cluster sorting for the clustering method).
    Sort,
    /// The window-scan merge phase.
    WindowScan,
    /// Transitive closure over pass pairs.
    Closure,
    /// External sort: forming sorted runs.
    RunFormation,
    /// External sort: merging runs.
    RunMerge,
}

impl Phase {
    /// Every phase, in stable report order.
    pub const ALL: [Phase; 7] = [
        Phase::Condition,
        Phase::CreateKeys,
        Phase::Sort,
        Phase::WindowScan,
        Phase::Closure,
        Phase::RunFormation,
        Phase::RunMerge,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Condition => "condition",
            Phase::CreateKeys => "create_keys",
            Phase::Sort => "sort",
            Phase::WindowScan => "window_scan",
            Phase::Closure => "closure",
            Phase::RunFormation => "run_formation",
            Phase::RunMerge => "run_merge",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Observer of engine progress. All methods default to no-ops so
/// implementations opt into exactly what they need; implementations must be
/// thread-safe because parallel workers report concurrently.
pub trait PipelineObserver: Send + Sync {
    /// Adds `n` to `counter`.
    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Adds `ns` nanoseconds to `phase`'s total.
    #[inline]
    fn phase_ns(&self, phase: Phase, ns: u64) {
        let _ = (phase, ns);
    }

    /// The span collector, when structured tracing is enabled. Engines open
    /// spans through [`span`]/[`span_labeled`], so the disabled path costs
    /// exactly this one `None` branch.
    #[inline]
    fn tracer(&self) -> Option<&TraceCollector> {
        None
    }

    /// Histogram receiving sampled rule-evaluation latencies, when enabled.
    #[inline]
    fn rule_latency(&self) -> Option<&LatencyHistogram> {
        None
    }

    /// Progress heartbeat meter, when enabled.
    #[inline]
    fn progress(&self) -> Option<&ProgressMeter> {
        None
    }

    /// Called once when a pipeline run finishes, after all counters are in.
    /// Implementations may validate cross-counter invariants here (see
    /// [`MetricsRecorder::check_invariants`]).
    #[inline]
    fn run_complete(&self) {}
}

/// Opens a named span on `observer`'s collector; `None` (one branch, no
/// allocation) when tracing is disabled.
#[inline]
pub fn span(observer: &dyn PipelineObserver, name: &'static str) -> Option<SpanGuard> {
    observer.tracer().map(|t| t.span(name))
}

/// Like [`span`], with a dynamic label (key name, fragment index, …). The
/// label closure only runs when tracing is enabled.
#[inline]
pub fn span_labeled(
    observer: &dyn PipelineObserver,
    name: &'static str,
    label: impl FnOnce() -> String,
) -> Option<SpanGuard> {
    observer.tracer().map(|t| t.span_labeled(name, label()))
}

/// Optional per-comparison instrumentation threaded into window scans.
///
/// Bundles the (rare) hooks that must be consulted inside the scan's inner
/// loop, so the scan signature stays stable as hooks are added. Both fields
/// are `None` in un-instrumented runs and the whole struct is two words;
/// checking it costs one branch per hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanHooks<'a> {
    /// Sampled rule-evaluation latency histogram (sites time every
    /// [`LATENCY_SAMPLE_MASK`]`+1`-th evaluation).
    pub latency: Option<&'a LatencyHistogram>,
    /// Progress meter ticked once per window position.
    pub progress: Option<&'a ProgressMeter>,
}

impl<'a> ScanHooks<'a> {
    /// No instrumentation (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// The hooks `observer` exposes.
    pub fn from_observer(observer: &'a dyn PipelineObserver) -> Self {
        ScanHooks {
            latency: observer.rule_latency(),
            progress: observer.progress(),
        }
    }
}

/// Zero-cost observer for un-instrumented runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PipelineObserver for NoopObserver {}

/// The default real observer: lock-free atomic counters and per-phase
/// nanosecond totals.
///
/// ```
/// use mp_metrics::{Counter, MetricsRecorder, PipelineObserver};
/// let m = MetricsRecorder::new();
/// m.add(Counter::Comparisons, 10);
/// m.add(Counter::Comparisons, 5);
/// assert_eq!(m.get(Counter::Comparisons), 15);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    counters: [AtomicU64; Counter::ALL.len()],
    phases: [AtomicU64; Phase::ALL.len()],
    tracer: Option<TraceCollector>,
    rule_latency: Option<LatencyHistogram>,
    progress: Option<ProgressMeter>,
}

impl MetricsRecorder {
    /// A recorder with all counters and phase totals at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables structured tracing: timed spans (drained into the report's
    /// `span_tree` and available for Chrome-trace export) and the sampled
    /// rule-evaluation latency histogram.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.tracer = Some(TraceCollector::new());
        self.rule_latency = Some(LatencyHistogram::new());
        self
    }

    /// Enables progress heartbeat lines on stderr, expecting `total` units
    /// of `what` (e.g. the §3.5 expected comparison count).
    #[must_use]
    pub fn with_progress(mut self, what: &'static str, total: u64) -> Self {
        self.progress = Some(ProgressMeter::new(what, total));
        self
    }

    /// Drains the span collector (empty when tracing is disabled or already
    /// drained). Use for Chrome-trace export via [`chrome_trace_json`];
    /// note [`MetricsRecorder::report`] also drains, so export first or
    /// reuse the drained tracks for both.
    pub fn drain_spans(&self) -> Vec<TrackSpans> {
        self.tracer
            .as_ref()
            .map(TraceCollector::drain)
            .unwrap_or_default()
    }

    /// Checks cross-counter invariants, notably the pruning accounting
    /// identity `comparisons == rule_invocations + pairs_pruned` (§3.5 cost
    /// model: every window candidate pair is either handed to the
    /// equational theory or pruned as closure-redundant — never both,
    /// never neither). Holds for every engine configuration: single- and
    /// multi-pass SNM, clustering, merge-fused, parallel, and external.
    pub fn check_invariants(&self) -> Result<(), String> {
        let comparisons = self.get(Counter::Comparisons);
        let evals = self.get(Counter::RuleInvocations);
        let pruned = self.get(Counter::PairsPruned);
        if comparisons != evals + pruned {
            return Err(format!(
                "counter invariant violated: comparisons ({comparisons}) != \
                 rule_invocations ({evals}) + pairs_pruned ({pruned})"
            ));
        }
        let input = self.get(Counter::ClosureInputPairs);
        let deduped = self.get(Counter::ClosureDedupedPairs);
        if deduped > input {
            return Err(format!(
                "counter invariant violated: closure_deduped_pairs ({deduped}) > \
                 closure_input_pairs ({input})"
            ));
        }
        Ok(())
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Total nanoseconds recorded for `phase`.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phases[phase.index()].load(Ordering::Relaxed)
    }

    /// Resets every counter and phase total to zero.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for p in &self.phases {
            p.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot of all counters and phase totals, plus — when tracing is
    /// enabled — the drained span tree and latency histogram. Draining
    /// consumes the recorded spans, so to *also* export a Chrome trace,
    /// call [`MetricsRecorder::drain_spans`] first and attach the tracks to
    /// the report yourself (see the CLI).
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            schema: REPORT_SCHEMA,
            counters: Counter::ALL
                .iter()
                .map(|&c| CounterValue {
                    name: c.name(),
                    value: self.get(c),
                })
                .collect(),
            attribution: None,
            rules: None,
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseTime {
                    name: p.name(),
                    ns: self.phase_total_ns(p),
                })
                .collect(),
            latency: self
                .rule_latency
                .as_ref()
                .map(|h| {
                    vec![NamedHistogram {
                        name: "rule_eval",
                        hist: h.snapshot(),
                    }]
                })
                .unwrap_or_default(),
            span_tree: self
                .drain_spans()
                .into_iter()
                .map(SpanTreeTrack::from)
                .collect(),
            kernels: Vec::new(),
        }
    }
}

impl PipelineObserver for MetricsRecorder {
    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn phase_ns(&self, phase: Phase, ns: u64) {
        self.phases[phase.index()].fetch_add(ns, Ordering::Relaxed);
    }

    #[inline]
    fn tracer(&self) -> Option<&TraceCollector> {
        self.tracer.as_ref()
    }

    #[inline]
    fn rule_latency(&self) -> Option<&LatencyHistogram> {
        self.rule_latency.as_ref()
    }

    #[inline]
    fn progress(&self) -> Option<&ProgressMeter> {
        self.progress.as_ref()
    }

    /// Debug builds assert the counter invariants at pipeline end; release
    /// builds skip the check (it is also covered by tests).
    fn run_complete(&self) {
        if cfg!(debug_assertions) {
            if let Err(msg) = self.check_invariants() {
                panic!("{msg}");
            }
        }
    }
}

/// Times a phase and reports it to an observer when dropped.
///
/// ```
/// use mp_metrics::{MetricsRecorder, Phase, Stopwatch};
/// let m = MetricsRecorder::new();
/// {
///     let _t = Stopwatch::start(&m, Phase::Sort);
///     // ... sorting work ...
/// }
/// // Drop reported the elapsed time.
/// let _ = m.phase_total_ns(Phase::Sort);
/// ```
pub struct Stopwatch<'a> {
    observer: &'a dyn PipelineObserver,
    phase: Phase,
    start: Instant,
}

impl<'a> Stopwatch<'a> {
    /// Starts timing `phase`.
    pub fn start(observer: &'a dyn PipelineObserver, phase: Phase) -> Self {
        Stopwatch {
            observer,
            phase,
            start: Instant::now(),
        }
    }
}

impl Drop for Stopwatch<'_> {
    fn drop(&mut self) {
        self.observer
            .phase_ns(self.phase, self.start.elapsed().as_nanos() as u64);
    }
}

/// One named counter value in a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterValue {
    /// Stable counter name ([`Counter::name`]).
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One named phase total in a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTime {
    /// Stable phase name ([`Phase::name`]).
    pub name: &'static str,
    /// Accumulated nanoseconds.
    pub ns: u64,
}

/// What one pass contributed to the closed result (paper §3.3: independent
/// passes over different keys, union-closed at the end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassAttribution {
    /// Zero-based pass index (pass order is part of the configuration).
    pub pass: usize,
    /// Sort-key name of the pass.
    pub key: String,
    /// Window size of the pass.
    pub window: usize,
    /// Matching pairs the pass emitted.
    pub pairs_found: u64,
    /// Of those, pairs no *earlier* pass had already emitted (provenance:
    /// the first pass to find a pair owns it).
    pub pairs_first_found: u64,
    /// Pairs *no other* pass emitted at all — lost if this pass is dropped
    /// (before closure re-inference). The paper's multi-pass argument made
    /// observable.
    pub pairs_unique: u64,
}

/// Per-pass provenance of the final duplicate set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttributionReport {
    /// One entry per pass, in pass order.
    pub passes: Vec<PassAttribution>,
    /// Distinct pairs emitted across all passes (≤ Σ `pairs_found`).
    pub distinct_matched_pairs: u64,
    /// Pairs present only in the transitive closure of the matched pairs —
    /// duplicates no pass found directly, inferred via `a≡b ∧ b≡c ⇒ a≡c`.
    pub closure_inferred_pairs: u64,
}

/// Per-rule firing counts for an ordered, first-match-wins rule list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuleFiringReport {
    /// Name of the equational theory the counts describe.
    pub theory: String,
    /// Total theory evaluations observed by the counter wrapper.
    pub evaluations: u64,
    /// Evaluations where no rule fired.
    pub misses: u64,
    /// Rule conditions never evaluated because an earlier rule in the
    /// ordered list fired first (Σ over rules `fired[i] · (R − 1 − i)`).
    pub conditions_short_circuited: u64,
    /// `(rule name, times fired)` in rule order, including zero-fired rules.
    pub fired: Vec<(String, u64)>,
}

/// A named latency histogram snapshot in a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedHistogram {
    /// What was timed (`"rule_eval"`, …).
    pub name: &'static str,
    /// The snapshot.
    pub hist: HistogramSnapshot,
}

/// One string-kernel's accumulated time (see `mp-strsim` kernel timing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTime {
    /// Kernel name (`"levenshtein"`, `"jaro"`, …).
    pub name: &'static str,
    /// Calls observed.
    pub calls: u64,
    /// Total nanoseconds across those calls.
    pub total_ns: u64,
}

/// The reconstructed span forest of one thread/track.
#[derive(Debug, Clone)]
pub struct SpanTreeTrack {
    /// Stable per-run track index (opening thread is track 0).
    pub track: u32,
    /// Thread name at registration time.
    pub thread_name: String,
    /// Root spans in start order.
    pub roots: Vec<SpanNode>,
}

impl From<TrackSpans> for SpanTreeTrack {
    fn from(t: TrackSpans) -> Self {
        SpanTreeTrack {
            track: t.track,
            thread_name: t.thread_name.clone(),
            roots: t.tree(),
        }
    }
}

/// Aggregated snapshot of a [`MetricsRecorder`], in stable order.
///
/// The **deterministic section** — everything `to_json` renders before the
/// `"phases_ns"` key: `schema`, `counters`, `attribution`, `rules` — is
/// byte-stable for a fixed seed and configuration. Everything from
/// `"phases_ns"` on (`latency`, `span_tree`, `kernels`) is wall-clock and
/// varies run to run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Report layout version ([`REPORT_SCHEMA`]).
    pub schema: u32,
    /// All counters, in [`Counter::ALL`] order.
    pub counters: Vec<CounterValue>,
    /// Per-pass provenance of the final duplicates (multi-pass runs).
    pub attribution: Option<AttributionReport>,
    /// Per-rule firing counts (when the theory was wrapped in a counter).
    pub rules: Option<RuleFiringReport>,
    /// All phase totals, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseTime>,
    /// Latency histograms (empty unless tracing was enabled).
    pub latency: Vec<NamedHistogram>,
    /// Timed span forest per thread (empty unless tracing was enabled).
    pub span_tree: Vec<SpanTreeTrack>,
    /// String-kernel timings (empty unless kernel timing was enabled).
    pub kernels: Vec<KernelTime>,
}

impl PipelineReport {
    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Renders the report as pretty-printed JSON.
    ///
    /// Serialization is hand-rolled: the workspace has no serializer
    /// dependency, and a fixed field order keeps the
    /// deterministic section (everything before `"phases_ns"`) byte-stable
    /// across runs. Optional sections are omitted entirely when absent, so
    /// presence is also deterministic for a fixed configuration.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", self.schema));
        out.push_str("  \"counters\": {\n");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    \"{}\": {}{sep}\n", c.name, c.value));
        }
        out.push_str("  },\n");
        if let Some(attr) = &self.attribution {
            out.push_str("  \"attribution\": {\n    \"passes\": [\n");
            for (i, p) in attr.passes.iter().enumerate() {
                let sep = if i + 1 == attr.passes.len() { "" } else { "," };
                out.push_str(&format!(
                    "      {{\"pass\": {}, \"key\": {}, \"window\": {}, \
                     \"pairs_found\": {}, \"pairs_first_found\": {}, \
                     \"pairs_unique\": {}}}{sep}\n",
                    p.pass,
                    json_string(&p.key),
                    p.window,
                    p.pairs_found,
                    p.pairs_first_found,
                    p.pairs_unique
                ));
            }
            out.push_str("    ],\n");
            out.push_str(&format!(
                "    \"distinct_matched_pairs\": {},\n",
                attr.distinct_matched_pairs
            ));
            out.push_str(&format!(
                "    \"closure_inferred_pairs\": {}\n  }},\n",
                attr.closure_inferred_pairs
            ));
        }
        if let Some(rules) = &self.rules {
            out.push_str("  \"rules\": {\n");
            out.push_str(&format!(
                "    \"theory\": {},\n",
                json_string(&rules.theory)
            ));
            out.push_str(&format!("    \"evaluations\": {},\n", rules.evaluations));
            out.push_str(&format!("    \"misses\": {},\n", rules.misses));
            out.push_str(&format!(
                "    \"conditions_short_circuited\": {},\n",
                rules.conditions_short_circuited
            ));
            out.push_str("    \"fired\": {\n");
            for (i, (name, count)) in rules.fired.iter().enumerate() {
                let sep = if i + 1 == rules.fired.len() { "" } else { "," };
                out.push_str(&format!("      {}: {count}{sep}\n", json_string(name)));
            }
            out.push_str("    }\n  },\n");
        }
        out.push_str("  \"phases_ns\": {\n");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i + 1 == self.phases.len() { "" } else { "," };
            out.push_str(&format!("    \"{}\": {}{sep}\n", p.name, p.ns));
        }
        out.push_str("  }");
        if !self.latency.is_empty() {
            out.push_str(",\n  \"latency\": {\n");
            for (i, h) in self.latency.iter().enumerate() {
                let sep = if i + 1 == self.latency.len() { "" } else { "," };
                let buckets = h
                    .hist
                    .buckets
                    .iter()
                    .map(|(lo, n)| format!("[{lo}, {n}]"))
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!(
                    "    \"{}\": {{\"samples\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
                     \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"buckets\": [{buckets}]}}{sep}\n",
                    h.name,
                    h.hist.count,
                    h.hist.mean_ns(),
                    h.hist.p50_ns,
                    h.hist.p95_ns,
                    h.hist.p99_ns,
                    h.hist.max_ns
                ));
            }
            out.push_str("  }");
        }
        if !self.span_tree.is_empty() {
            out.push_str(",\n  \"span_tree\": [\n");
            for (i, t) in self.span_tree.iter().enumerate() {
                let sep = if i + 1 == self.span_tree.len() {
                    ""
                } else {
                    ","
                };
                out.push_str(&format!(
                    "    {{\"track\": {}, \"thread\": {}, \"spans\": [",
                    t.track,
                    json_string(&t.thread_name)
                ));
                for (j, node) in t.roots.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    push_span_node(&mut out, node);
                }
                out.push_str(&format!("]}}{sep}\n"));
            }
            out.push_str("  ]");
        }
        if !self.kernels.is_empty() {
            out.push_str(",\n  \"kernels\": {\n");
            for (i, k) in self.kernels.iter().enumerate() {
                let sep = if i + 1 == self.kernels.len() { "" } else { "," };
                out.push_str(&format!(
                    "    \"{}\": {{\"calls\": {}, \"total_ns\": {}}}{sep}\n",
                    k.name, k.calls, k.total_ns
                ));
            }
            out.push_str("  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Renders `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders one span node (and its children) as compact JSON.
fn push_span_node(out: &mut String, node: &SpanNode) {
    out.push_str(&format!(
        "{{\"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}",
        node.name, node.start_ns, node.dur_ns
    ));
    if let Some(label) = &node.label {
        out.push_str(&format!(", \"label\": {}", json_string(label)));
    }
    if !node.children.is_empty() {
        out.push_str(", \"children\": [");
        for (i, c) in node.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_span_node(out, c);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRecorder::new();
        m.add(Counter::Comparisons, 7);
        m.add(Counter::Comparisons, 3);
        m.add(Counter::Matches, 1);
        assert_eq!(m.get(Counter::Comparisons), 10);
        assert_eq!(m.get(Counter::Matches), 1);
        assert_eq!(m.get(Counter::ClosedPairs), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = MetricsRecorder::new();
        m.add(Counter::SortRuns, 4);
        m.phase_ns(Phase::Sort, 123);
        m.reset();
        assert_eq!(m.get(Counter::SortRuns), 0);
        assert_eq!(m.phase_total_ns(Phase::Sort), 0);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let m = MetricsRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        m.add(Counter::Comparisons, 1);
                        m.phase_ns(Phase::WindowScan, 2);
                    }
                });
            }
        });
        assert_eq!(m.get(Counter::Comparisons), THREADS * PER_THREAD);
        assert_eq!(
            m.phase_total_ns(Phase::WindowScan),
            2 * THREADS * PER_THREAD
        );
    }

    #[test]
    fn concurrent_mixed_counters_do_not_interfere() {
        let m = MetricsRecorder::new();
        std::thread::scope(|s| {
            for (i, &c) in Counter::ALL.iter().enumerate() {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        m.add(c, (i + 1) as u64);
                    }
                });
            }
        });
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(m.get(c), 1_000 * (i + 1) as u64, "{}", c.name());
        }
    }

    #[test]
    fn stopwatch_reports_on_drop() {
        let m = MetricsRecorder::new();
        {
            let _t = Stopwatch::start(&m, Phase::Closure);
            std::hint::black_box(0u64);
        }
        // Monotonic clocks can legally report 0ns for a tiny span; the drop
        // itself must have fired exactly once and never panic.
        let first = m.phase_total_ns(Phase::Closure);
        {
            let _t = Stopwatch::start(&m, Phase::Closure);
        }
        assert!(m.phase_total_ns(Phase::Closure) >= first);
    }

    #[test]
    fn report_names_are_stable_and_json_wellformed() {
        let m = MetricsRecorder::new();
        m.add(Counter::Comparisons, 42);
        m.phase_ns(Phase::Sort, 9);
        let report = m.report();
        assert_eq!(report.counter("comparisons"), Some(42));
        assert_eq!(report.counter("nonexistent"), None);
        let json = report.to_json();
        assert!(json.contains("\"comparisons\": 42"));
        assert!(json.contains("\"sort\": 9"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Identical recorder state must render byte-identical JSON.
        assert_eq!(json, m.report().to_json());
    }

    #[test]
    fn noop_observer_ignores_everything() {
        let n = NoopObserver;
        n.add(Counter::Comparisons, u64::MAX);
        n.phase_ns(Phase::Sort, u64::MAX);
        assert!(n.tracer().is_none());
        assert!(n.rule_latency().is_none());
        assert!(n.progress().is_none());
        n.run_complete();
    }

    #[test]
    fn span_helper_is_none_without_tracing_and_records_with_it() {
        let plain = MetricsRecorder::new();
        assert!(span(&plain, "run").is_none());
        assert!(span_labeled(&plain, "pass", || unreachable!(
            "label closure must not run"
        ))
        .is_none());

        let traced = MetricsRecorder::new().with_tracing();
        {
            let _run = span(&traced, "run");
            let _pass = span_labeled(&traced, "pass", || "key=last".into());
        }
        let tracks = traced.drain_spans();
        assert_eq!(tracks.len(), 1);
        let tree = tracks[0].tree();
        assert_eq!(tree[0].name, "run");
        assert_eq!(tree[0].children[0].label.as_deref(), Some("key=last"));
    }

    #[test]
    fn invariant_check_catches_mismatch() {
        let m = MetricsRecorder::new();
        m.add(Counter::Comparisons, 10);
        m.add(Counter::RuleInvocations, 7);
        m.add(Counter::PairsPruned, 3);
        assert!(m.check_invariants().is_ok());
        m.run_complete();
        m.add(Counter::PairsPruned, 1);
        assert!(m.check_invariants().is_err());
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "run_complete only asserts in debug builds"
    )]
    #[should_panic(expected = "counter invariant violated")]
    fn run_complete_panics_on_violation_in_debug() {
        let m = MetricsRecorder::new();
        m.add(Counter::Comparisons, 1);
        m.run_complete();
    }

    #[test]
    fn report_includes_tracing_sections_when_enabled() {
        let m = MetricsRecorder::new().with_tracing();
        {
            let _run = span(&m, "run");
        }
        m.rule_latency().unwrap().record(150);
        let json = m.report().to_json();
        assert!(json.contains(&format!("\"schema\": {REPORT_SCHEMA}")));
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"span_tree\""));
        assert!(json.contains("\"name\": \"run\""));
        // Both wall-clock sections render after the deterministic prefix.
        let phases_at = json.find("\"phases_ns\"").unwrap();
        assert!(json.find("\"latency\"").unwrap() > phases_at);
        assert!(json.find("\"span_tree\"").unwrap() > phases_at);
    }

    #[test]
    fn report_renders_attribution_rules_and_kernels() {
        let m = MetricsRecorder::new();
        let mut report = m.report();
        report.attribution = Some(AttributionReport {
            passes: vec![PassAttribution {
                pass: 0,
                key: "last_name".into(),
                window: 6,
                pairs_found: 10,
                pairs_first_found: 10,
                pairs_unique: 4,
            }],
            distinct_matched_pairs: 10,
            closure_inferred_pairs: 2,
        });
        report.rules = Some(RuleFiringReport {
            theory: "native-employee".into(),
            evaluations: 100,
            misses: 90,
            conditions_short_circuited: 50,
            fired: vec![("exact_ssn".into(), 7), ("never".into(), 0)],
        });
        report.kernels = vec![KernelTime {
            name: "levenshtein",
            calls: 3,
            total_ns: 999,
        }];
        let json = report.to_json();
        for needle in [
            "\"attribution\"",
            "\"pairs_unique\": 4",
            "\"distinct_matched_pairs\": 10",
            "\"closure_inferred_pairs\": 2",
            "\"rules\"",
            "\"exact_ssn\": 7",
            "\"never\": 0",
            "\"conditions_short_circuited\": 50",
            "\"kernels\"",
            "\"levenshtein\": {\"calls\": 3, \"total_ns\": 999}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Deterministic sections precede phases_ns; kernels follow it.
        let phases_at = json.find("\"phases_ns\"").unwrap();
        assert!(json.find("\"attribution\"").unwrap() < phases_at);
        assert!(json.find("\"rules\"").unwrap() < phases_at);
        assert!(json.find("\"kernels\"").unwrap() > phases_at);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn scan_hooks_from_observer_mirror_enabled_state() {
        let plain = MetricsRecorder::new();
        let hooks = ScanHooks::from_observer(&plain);
        assert!(hooks.latency.is_none() && hooks.progress.is_none());
        let traced = MetricsRecorder::new()
            .with_tracing()
            .with_progress("comparisons", 100);
        let hooks = ScanHooks::from_observer(&traced);
        assert!(hooks.latency.is_some() && hooks.progress.is_some());
    }
}
