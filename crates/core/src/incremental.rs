//! Incremental merge/purge for the paper's monthly business cycle.
//!
//! §1 motivates merge/purge with a recurring workload: "It is not uncommon
//! for large businesses to acquire scores of databases each month ... that
//! need to be analyzed within a few days." Rerunning the full multi-pass
//! process over the ever-growing base each month wastes almost all of its
//! comparisons on old-vs-old pairs that previous cycles already decided.
//!
//! [`IncrementalMergePurge`] keeps, per pass, the sorted key order of the
//! records seen so far. A new batch of B records is key-extracted, sorted,
//! and *inserted* into each pass's order of N by search — O(B log B +
//! B log N) key comparisons, no walk over the old keys — and the window
//! scan visits only the at most B·w positions where a pair can have a new
//! member. What an ingest still does once per stored record is move `u32`s
//! (the order shifting to make room), at memcpy speed.
//!
//! **Soundness relative to from-scratch runs**: inserting records can only
//! *increase* the distance between two old records in a pass's sorted
//! order, so any old-old pair within the window of a from-scratch run over
//! the concatenation was within the window of some earlier cycle and has
//! already been found. The accumulated incremental pair set is therefore a
//! superset of the from-scratch pair set for the same keys and window — it
//! never misses anything a full rerun would find (a test enforces this).
//!
//! # Durability
//!
//! The in-memory engine is deliberately a pure deterministic fold over the
//! batch sequence: `state = fold(add_batch, empty, batches)`. That makes
//! crash recovery trivial to reason about — [`DurableIncremental`] pairs
//! the engine with an [`mp_store::MatchStore`] so that every batch is
//! journaled (fsync'd) *before* it is applied, and a checkpoint
//! ([`DurableIncremental::checkpoint`]) streams the engine state — borrowed
//! through [`IncrementalMergePurge::view`], never copied — into a snapshot
//! file replaced atomically. On restart the snapshot is
//! restored and the journal's unabsorbed batches are replayed through the
//! exact same [`IncrementalMergePurge::add_batch_sharded`] code path, so a
//! kill/restart sequence reaches byte-identical pairs, comparisons, and
//! closure classes as an uninterrupted run (tests enforce this too).

use crate::banded::{deal, Band};
use crate::fan_out;
use crate::key::{KeyArena, KeySpec};
use crate::radix::{chunked_str_cmp, insert_sorted};
use crate::window::{Found, FoundList, ScanCounts, WindowScan};
use mp_closure::{ClassRing, ClusterSizes, MergeEdge, PairSet, ProvenanceLog, UnionFind};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, PipelineObserver};
use mp_record::{Record, RecordId};
use mp_rules::EquationalTheory;
use mp_store::{borrowed, MatchStore, Snapshot, SnapshotView, StoreError};
use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;

/// One pass's persisted state. Re-exported so crates that build engine
/// state without the engine (the bulk loader in `mp-extsort`) produce the
/// store's own type and need no dependency on `mp-store`.
pub use mp_store::PassSnapshot;

/// State of one pass: the key function, plus everything a snapshot
/// persists for the pass (key list, sorted order over all records seen so
/// far, cumulative match attribution) held as the store's own
/// [`PassSnapshot`], so a checkpoint borrows it as it stands.
#[derive(Debug)]
struct PassState {
    key: KeySpec,
    snap: PassSnapshot,
}

/// Per-pass attribution counters, in pass order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCounters {
    /// The pass's key name (`KeySpec::name`).
    pub key_name: String,
    /// The pass's window size.
    pub window: usize,
    /// Matching comparisons this pass produced (counts re-finds).
    pub pairs_found: u64,
    /// Matching comparisons that were new to the global pair set.
    pub pairs_first_found: u64,
}

/// Accumulating multi-pass merge/purge over arriving batches.
///
/// ```
/// use merge_purge::{incremental::IncrementalMergePurge, KeySpec};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let theory = NativeEmployeeTheory::new();
/// let mut inc = IncrementalMergePurge::new()
///     .pass(KeySpec::last_name_key(), 10)
///     .pass(KeySpec::first_name_key(), 10);
///
/// let month1 = DatabaseGenerator::new(GeneratorConfig::new(500).seed(1)).generate();
/// let month2 = DatabaseGenerator::new(GeneratorConfig::new(500).seed(2)).generate();
/// inc.add_batch(month1.records, &theory);
/// inc.add_batch(month2.records, &theory);
/// let classes = inc.classes();
/// assert!(!classes.is_empty());
/// ```
#[derive(Debug)]
pub struct IncrementalMergePurge {
    passes: Vec<PassState>,
    records: Vec<Record>,
    pairs: PairSet,
    /// Union-find closure maintained eagerly as pairs are found.
    closure: UnionFind,
    /// Spanning-forest merge lineage: one edge per successful union, plus
    /// the batch-trace table and per-rule firing counts. O(N) memory.
    provenance: ProvenanceLog,
    /// Cluster-size accounting (log2 histogram, largest, count), updated
    /// on every union. Not persisted — rebuilt from the closure on restore.
    cluster_sizes: ClusterSizes,
    /// Circular member list per closure class, spliced on every successful
    /// union, so one record's class is listed in O(class). Derived state
    /// with `cluster_sizes`' lifecycle: not persisted, rebuilt on restore.
    ring: ClassRing,
    /// When false, scans skip rule attribution and no edges are recorded
    /// (the overhead-bench baseline). Defaults to true.
    record_provenance: bool,
    /// Largest merged cluster of the most recent batch: `(a, b, combined
    /// size)` of the union that produced it. `None` when the batch merged
    /// nothing (or provenance was never consulted — it is always tracked).
    last_batch_largest_merge: Option<(u32, u32, u32)>,
    /// Comparisons performed across all batches (for cost accounting).
    comparisons: u64,
    /// Number of batches folded in so far.
    batches_applied: u64,
}

impl Default for IncrementalMergePurge {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalMergePurge {
    /// An empty incremental pipeline; add passes before the first batch.
    pub fn new() -> Self {
        IncrementalMergePurge {
            passes: Vec::new(),
            records: Vec::new(),
            pairs: PairSet::new(),
            closure: UnionFind::new(0),
            provenance: ProvenanceLog::new(),
            cluster_sizes: ClusterSizes::new(0),
            ring: ClassRing::new(0),
            record_provenance: true,
            last_batch_largest_merge: None,
            comparisons: 0,
            batches_applied: 0,
        }
    }

    /// Disables merge-lineage recording: scans skip rule attribution and
    /// the edge log stays empty. Only the provenance-overhead bench wants
    /// this; cluster-size accounting stays on either way.
    #[must_use]
    pub fn without_provenance(mut self) -> Self {
        self.record_provenance = false;
        self
    }

    /// Adds a sorted-neighborhood pass.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2` or when records have already been added
    /// (pass configuration is fixed at first use).
    #[must_use]
    pub fn pass(mut self, key: KeySpec, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        assert!(
            self.records.is_empty(),
            "passes must be configured before the first batch"
        );
        self.passes.push(PassState {
            snap: PassSnapshot {
                key_name: key.name().to_string(),
                window: window as u32,
                pairs_found: 0,
                pairs_first_found: 0,
                keys: KeyArena::new(),
                order: Vec::new(),
            },
            key,
        });
        self
    }

    /// Records accumulated so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Match pairs accumulated so far (before closure).
    pub fn pairs(&self) -> &PairSet {
        &self.pairs
    }

    /// Total pair comparisons across all batches.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of batches folded in so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Per-pass attribution counters, in pass order.
    pub fn pass_counters(&self) -> Vec<PassCounters> {
        self.passes
            .iter()
            .map(|p| PassCounters {
                key_name: p.snap.key_name.clone(),
                window: p.snap.window as usize,
                pairs_found: p.snap.pairs_found,
                pairs_first_found: p.snap.pairs_first_found,
            })
            .collect()
    }

    /// The merge lineage accumulated so far: spanning-forest edges, the
    /// batch-trace table, and per-rule firing counts.
    pub fn provenance(&self) -> &ProvenanceLog {
        &self.provenance
    }

    /// Cluster-size accounting (log2 histogram, largest cluster, count of
    /// multi-record clusters), current as of the last batch.
    pub fn cluster_sizes(&self) -> &ClusterSizes {
        &self.cluster_sizes
    }

    /// The class-member ring, current as of the last batch. Cloning it
    /// gives a self-contained, immutable answer to every
    /// [`class_of`](Self::class_of) query as of that batch — what the
    /// daemon publishes to its connection threads.
    pub fn class_ring(&self) -> &ClassRing {
        &self.ring
    }

    /// Largest merged cluster of the most recent batch, as `(a, b,
    /// combined size)` of the union that produced it.
    pub fn last_batch_largest_merge(&self) -> Option<(u32, u32, u32)> {
        self.last_batch_largest_merge
    }

    /// Attaches an ingest trace id to the most recently applied batch, so
    /// explain chains can point back at the request that merged a pair.
    /// Call right after [`add_batch`](Self::add_batch); idempotent for the
    /// same batch (first trace wins), no-op before the first batch or with
    /// provenance recording off.
    pub fn note_batch_trace(&mut self, trace: &str) {
        if self.record_provenance && self.batches_applied > 0 {
            self.provenance
                .note_batch_trace(self.batches_applied, trace);
        }
    }

    /// Walks the merge forest and returns the ordered evidence chain
    /// proving `a` and `b` were merged: each hop names the record pair, the
    /// rule (by id into the theory's [`rule_names`] table), the pass, the
    /// batch sequence, and the ingest trace id when one was recorded.
    ///
    /// `Some(vec![])` when `a == b`; `None` when the two records are not
    /// in the same closure class (or an id is out of range).
    ///
    /// [`rule_names`]: mp_rules::EquationalTheory::rule_names
    pub fn explain(&self, a: u32, b: u32) -> Option<Vec<Evidence>> {
        if a as usize >= self.records.len() || b as usize >= self.records.len() {
            return None;
        }
        let chain = self.provenance.explain(a, b)?;
        Some(
            chain
                .into_iter()
                .map(|e| Evidence {
                    a: e.a,
                    b: e.b,
                    pass: e.pass,
                    rule_id: e.rule_id,
                    batch_seq: e.batch_seq,
                    trace_id: self.provenance.trace_for(e.batch_seq).map(String::from),
                })
                .collect(),
        )
    }

    /// Ingests a batch: renumbers its records to follow the base, inserts
    /// it into every pass's order, and scans only new-involving pairs.
    ///
    /// # Panics
    ///
    /// Panics when no passes are configured.
    pub fn add_batch(&mut self, batch: Vec<Record>, theory: &dyn EquationalTheory) {
        self.add_batch_sharded(batch, theory, 1, &NoopObserver);
    }

    /// Like [`add_batch`](Self::add_batch), but deals every pass's window
    /// scan out to `bands` bands in contiguous shares of the visited
    /// positions, then folds the banded results back in (pass, band) order
    /// — the reconciliation step.
    ///
    /// **Concurrency**: the passes are the paper's independent runs (§2.3)
    /// — each reads the shared records and writes only its own key list
    /// and order — so they run side by side, [`fan_out`] over the passes
    /// and, inside each, over its bands: `passes × bands` workers, pass 0
    /// band 0 on the calling thread, the rest on threads named `pass-P`
    /// and `pass-P-band-K` (one flight-recorder lane each). A batch costs
    /// its slowest pass plus the fold, not the sum of the passes.
    ///
    /// **What is visited**: a window pair has a new member only when the
    /// later position lies at most `w − 1` past a new record's, so the scan
    /// covers those positions (`touched_ranges`: at most `B·w` of them,
    /// ascending) and no others. A first batch into an empty engine touches
    /// every position.
    ///
    /// **Equivalence**: a window pair `(prev, i)` is owned by the band that
    /// contains the *later* position `i`; the scan's backward window
    /// reaches across the left band boundary (band replication, as in
    /// §4.1), so boundary pairs are evaluated exactly once by
    /// exactly one band. Because the incremental scan never mutates the
    /// merged order while scanning, a band's comparisons are independent of
    /// every other band and every other pass, and folding results in
    /// (pass, band) order reproduces the one-thread discovery sequence bit
    /// for bit: same comparisons, same `pairs_found` attribution, same
    /// closure, same provenance. Tests enforce this for arbitrary pass and
    /// band counts.
    ///
    /// Every band scans into a [`FoundList`] that skips old-old pairs
    /// (decided in earlier cycles) and evaluates every other candidate —
    /// unpruned, because the committed pair set is defined as every window
    /// match. With provenance off the cheaper boolean theory entry point
    /// is used and every rule id is 0.
    ///
    /// Each pass opens a `key_merge` span (label `pass=P`) around key
    /// extraction and the insertion and a `shard_scan` span (label
    /// `pass=P shard=K`) per band, on its worker's track; a
    /// `closure_reconcile` span on the calling thread covers the fold.
    /// `observer` receives the batch's `RecordsKeyed`, scan counters and
    /// `Matches`, so ingest, replay and `--stats` are fed identically.
    ///
    /// # Panics
    ///
    /// Panics when no passes are configured or `bands` is 0.
    pub fn add_batch_sharded(
        &mut self,
        mut batch: Vec<Record>,
        theory: &dyn EquationalTheory,
        bands: usize,
        observer: &dyn PipelineObserver,
    ) {
        assert!(bands >= 1, "need at least one band");
        assert!(
            !self.passes.is_empty(),
            "configure passes before adding batches"
        );
        let old_len = self.records.len() as u32;
        for (i, r) in batch.iter_mut().enumerate() {
            r.id = RecordId(old_len + i as u32);
        }
        let keyed = batch.len() as u64;
        self.records.append(&mut batch);
        self.closure.grow(self.records.len());
        self.cluster_sizes.grow(self.records.len());
        self.ring.grow(self.records.len());
        self.batches_applied += 1;
        self.last_batch_largest_merge = None;

        let (records, attribute) = (&self.records, self.record_provenance);
        let run_pass = |p: usize, state: &mut PassState| {
            let landed = {
                let _merge = span_labeled(observer, "key_merge", || format!("pass={p}"));
                merge_pass(state, records, old_len)
            };
            let pass = &state.snap;
            let window = WindowScan::new(pass.window as usize, theory, observer);
            let touched = touched_ranges(&landed, pass.window as usize, pass.order.len());
            let scan = |k: usize, band: Band| {
                let _scan = span_labeled(observer, "shard_scan", || format!("pass={p} shard={k}"));
                let mut sink = FoundList::new(old_len, attribute);
                let mut counts = ScanCounts::default();
                for (_, range) in band.pieces {
                    let (before, len) = (counts.comparisons, range.len() as u64);
                    window.band(records, &pass.order, range, &mut sink, &mut counts);
                    debug_assert!(
                        counts.comparisons - before >= len,
                        "a touched position has a new record in its window"
                    );
                }
                (counts, sink.found)
            };
            fan_out(
                deal(&touched, bands),
                |k| format!("pass-{p}-band-{k}"),
                scan,
            )
        };
        let results: Vec<Vec<(ScanCounts, Vec<Found>)>> = fan_out(
            self.passes.iter_mut().collect(),
            |p| format!("pass-{p}"),
            run_pass,
        );

        let _reconcile = span(observer, "closure_reconcile");
        for (p, bands) in results.iter().enumerate() {
            observer.add(Counter::RecordsKeyed, keyed);
            for (counts, found) in bands {
                counts.report(observer);
                observer.add(Counter::Matches, found.len() as u64);
                self.fold_scan(p, counts.comparisons, found);
            }
        }
    }

    /// Folds one band's scan result into pass `p`'s counters, the global
    /// pair set, the closure, and the merge lineage, preserving the band's
    /// discovery order. An edge is recorded only for a *successful* union
    /// (the spanning forest), so the log stays O(N); rule firings count
    /// every match in discovery order so replay regenerates them exactly.
    fn fold_scan(&mut self, p: usize, comparisons: u64, found: &[Found]) {
        self.comparisons += comparisons;
        let pass = &mut self.passes[p].snap;
        for &(prev, new_id, rule_id) in found {
            pass.pairs_found += 1;
            if self.record_provenance {
                self.provenance.note_firing(rule_id);
            }
            if self.pairs.insert(prev, new_id) {
                pass.pairs_first_found += 1;
                let ra = self.closure.find(prev);
                let rb = self.closure.find(new_id);
                if self.closure.union(prev, new_id) {
                    if self.record_provenance {
                        // The scan yields window order (prev may carry the
                        // larger id); edges are stored low-high.
                        self.provenance.record_edge(MergeEdge {
                            a: prev.min(new_id),
                            b: prev.max(new_id),
                            pass: p as u32,
                            rule_id,
                            batch_seq: self.batches_applied,
                        });
                    }
                    let root = self.closure.find(prev);
                    let combined = self.cluster_sizes.merge(ra, rb, root);
                    self.ring.splice(ra, rb);
                    if self
                        .last_batch_largest_merge
                        .is_none_or(|(_, _, s)| combined > s)
                    {
                        self.last_batch_largest_merge = Some((prev, new_id, combined));
                    }
                }
            }
        }
    }

    /// Transitive closure over everything found so far: every class with
    /// at least two members, members ascending, classes by smallest member.
    ///
    /// This is the O(store) oracle — it clones the forest and sweeps every
    /// id — kept for tests and measurement. Serving paths ask
    /// [`class_of`](Self::class_of) for one class or
    /// [`duplicate_counts`](Self::duplicate_counts) for the totals.
    pub fn classes(&self) -> Vec<Vec<u32>> {
        self.closure.clone().classes()
    }

    /// The duplicate class of record `id`, itself included, ascending —
    /// `[id]` when it never merged. O(class): a walk of the member ring,
    /// no `find`, no sweep. Agrees with [`classes`](Self::classes) for
    /// every id (tests enforce this).
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a record of this engine.
    pub fn class_of(&self, id: u32) -> Vec<u32> {
        self.ring.class_of(id)
    }

    /// Number of duplicate groups (closure classes with at least two
    /// members) and of duplicate records (members beyond each group's
    /// first), read off the incrementally maintained [`ClusterSizes`] —
    /// what `classes()` would count, without building a class.
    pub fn duplicate_counts(&self) -> (u64, u64) {
        let groups = self.cluster_sizes.cluster_count();
        let singletons = self.cluster_sizes.histogram()[0];
        (groups, self.records.len() as u64 - singletons - groups)
    }

    /// Borrows the full engine state as the view the store's snapshot
    /// encoder takes. Nothing is copied except the pair set, which is
    /// sorted into a fresh list (the engine keeps it hashed); hand the
    /// encoder the records with [`mp_store::borrowed`].
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            n_records: self.records.len() as u64,
            passes: self.passes.iter().map(|p| &p.snap).collect(),
            pairs: Cow::Owned(self.pairs.sorted()),
            closure: &self.closure,
            provenance: &self.provenance,
            comparisons: self.comparisons,
            batches_applied: self.batches_applied,
        }
    }

    /// Copies the full engine state into an owned [`Snapshot`]
    /// ([`IncrementalMergePurge::view`], made owned). No durable path
    /// needs the copy — checkpoints encode straight from the view — so
    /// this is for tests and measurement.
    pub fn to_snapshot(&self) -> Snapshot {
        self.view().into_snapshot(self.records.clone())
    }

    /// Restores engine state from a snapshot into a configured-but-empty
    /// pipeline. The configured passes must match the snapshot's passes
    /// (same count, key names, and windows, in order): the snapshot stores
    /// key *names*, not key functions, so the caller supplies the same
    /// [`KeySpec`]s the snapshot was built with.
    ///
    /// # Errors
    ///
    /// A message naming the first mismatch between the configured passes
    /// and the snapshot, or `"records already added"` when `self` is not
    /// empty.
    pub fn restore(mut self, snap: Snapshot) -> Result<Self, String> {
        if !self.records.is_empty() {
            return Err("restore requires an empty engine (records already added)".into());
        }
        if self.passes.len() != snap.passes.len() {
            return Err(format!(
                "configured {} passes but snapshot has {}",
                self.passes.len(),
                snap.passes.len()
            ));
        }
        for (i, (p, s)) in self.passes.iter_mut().zip(snap.passes).enumerate() {
            if p.snap.key_name != s.key_name {
                return Err(format!(
                    "pass {i}: configured key {:?} but snapshot has {:?}",
                    p.snap.key_name, s.key_name
                ));
            }
            if p.snap.window != s.window {
                return Err(format!(
                    "pass {i}: configured window {} but snapshot has {}",
                    p.snap.window, s.window
                ));
            }
            p.snap = s;
        }
        self.records = snap.records;
        let mut pairs = PairSet::with_capacity(snap.pairs.len());
        for &(a, b) in &snap.pairs {
            pairs.insert(a, b);
        }
        self.pairs = pairs;
        self.closure = snap.closure;
        self.provenance = snap.provenance;
        // Sizes and ring are pure functions of the (validated) closure;
        // recomputing both in one sweep keeps the snapshot format free of
        // derived state.
        (self.cluster_sizes, self.ring) = ClusterSizes::rebuild(&self.closure);
        self.comparisons = snap.comparisons;
        self.batches_applied = snap.batches_applied;
        Ok(self)
    }
}

/// One hop of an explain chain: the record pair a spanning-forest edge
/// merged, with its full attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Lower record id of the merged pair.
    pub a: u32,
    /// Higher record id of the merged pair.
    pub b: u32,
    /// Index of the pass whose window scan found the pair.
    pub pass: u32,
    /// Index into the theory's rule-name table of the rule that fired.
    pub rule_id: u32,
    /// Journal sequence number of the batch whose scan merged the pair.
    pub batch_seq: u64,
    /// Ingest trace id recorded for that batch, when one was.
    pub trace_id: Option<String>,
}

/// Extracts `pass`'s keys for the new records `old_len..` of `records`,
/// sorts the batch and inserts it into the pass's order. Returns the
/// positions the new records landed on, ascending.
fn merge_pass(pass: &mut PassState, records: &[Record], old_len: u32) -> Vec<usize> {
    let PassState { key, snap: pass } = pass;

    for r in &records[old_len as usize..] {
        pass.keys.push_with(|buf| key.extract_into_append(r, buf));
    }
    let keys = &pass.keys;
    let key = |id: u32| keys.get(id as usize);
    let mut batch_order: Vec<u32> = (old_len..records.len() as u32).collect();
    batch_order.sort_by(|&a, &b| chunked_str_cmp(key(a), key(b)));

    // Old record ids are always smaller, so ties keep old first —
    // matching a from-scratch stable sort.
    insert_sorted(&mut pass.order, &batch_order, keys, |old, new| {
        chunked_str_cmp(key(old), key(new)).is_le()
    })
}

/// The scan positions that can hold a window pair with a new member, given
/// the ascending positions `landed` the new records took in an order of
/// `n`: the `window` positions from each new record's own on, clipped to
/// the scan's `1..n` and coalesced into ascending disjoint ranges. Every
/// other position holds an old record whose whole window is old.
fn touched_ranges(landed: &[usize], window: usize, n: usize) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    for &at in landed {
        let (from, to) = (at.max(1), (at + window).min(n));
        match out.last_mut() {
            Some(last) if from <= last.end => last.end = to,
            _ if from < to => out.push(from..to),
            _ => {}
        }
    }
    out
}

/// What [`DurableIncremental::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was found and restored.
    pub snapshot_loaded: bool,
    /// Batches the snapshot had already absorbed.
    pub batches_in_snapshot: u64,
    /// Journaled batches replayed through [`IncrementalMergePurge::add_batch_sharded`].
    pub batches_replayed: u64,
    /// Bytes chopped off a torn/corrupt journal tail (0 when clean).
    pub truncated_bytes: u64,
    /// Why the tail was truncated, when it was.
    pub truncation_reason: Option<String>,
}

/// An [`IncrementalMergePurge`] engine wired to a durable [`MatchStore`]:
/// every ingested batch is journaled (fsync'd) before it is applied, and
/// checkpoints write an atomic snapshot.
///
/// Each batch's window scans run in the `bands` the store was opened
/// with. The band count is not part of the store: every band count
/// reaches the same pairs, closure, provenance and snapshot bytes, so a
/// store may be reopened with any.
///
/// The replay contract: reopening a store directory reconstructs *exactly*
/// the state of the process that wrote it, because recovery replays the
/// journal's unabsorbed batches through the same deterministic
/// [`IncrementalMergePurge::add_batch_sharded`] fold the original process
/// ran.
///
/// ```
/// use merge_purge::{incremental::DurableIncremental, KeySpec};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_metrics::NoopObserver;
/// use mp_rules::NativeEmployeeTheory;
///
/// let dir = std::env::temp_dir().join(format!("mp-inc-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let theory = NativeEmployeeTheory::new();
/// let obs = NoopObserver;
/// let passes = |e: merge_purge::incremental::IncrementalMergePurge| {
///     e.pass(KeySpec::last_name_key(), 10)
/// };
/// let db = DatabaseGenerator::new(GeneratorConfig::new(200).seed(7)).generate();
/// let mid = db.records.len() / 2;
///
/// // First process: ingest two batches — journaled, but never checkpointed.
/// let (mut d, _) = DurableIncremental::open(&dir, 1, passes, &theory, &obs).unwrap();
/// d.ingest(db.records[..mid].to_vec(), None, &theory, &obs).unwrap();
/// d.ingest(db.records[mid..].to_vec(), None, &theory, &obs).unwrap();
/// let classes = d.engine().classes();
/// let comparisons = d.engine().comparisons();
/// drop(d); // "kill -9": no snapshot was written
///
/// // Restart: the journal replays both batches deterministically.
/// let (d2, report) = DurableIncremental::open(&dir, 1, passes, &theory, &obs).unwrap();
/// assert_eq!(report.batches_replayed, 2);
/// assert!(!report.snapshot_loaded);
/// assert_eq!(d2.engine().classes(), classes);
/// assert_eq!(d2.engine().comparisons(), comparisons);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct DurableIncremental {
    engine: IncrementalMergePurge,
    store: MatchStore,
    bands: usize,
    batches_since_checkpoint: u64,
}

impl DurableIncremental {
    /// Opens (creating if needed) the store at `dir`, restores the last
    /// snapshot into the engine `configure` sets up, and replays the
    /// journaled batches the snapshot missed through
    /// [`IncrementalMergePurge::add_batch_sharded`] in `bands` bands,
    /// re-attaching the trace id each frame carried so explain chains
    /// survive replay byte-identically. Later ingests scan in `bands`
    /// bands too.
    ///
    /// Runs under a `load` span. A truncated journal is reported
    /// (`Counter::CorruptTailTruncations`, plus a stderr line — never
    /// silent); `Counter::JournalReplays` counts the replayed batches.
    /// `configure` must configure the same passes every time the same
    /// store is opened (the snapshot records key names and windows and
    /// restore validates them).
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt snapshot, a directory laid out as a
    /// sharded store, or a pass-configuration mismatch against the stored
    /// snapshot (as [`StoreError::Corrupt`]).
    ///
    /// # Panics
    ///
    /// Panics when `bands` is 0 or when `configure` sets up no pass.
    pub fn open(
        dir: impl AsRef<Path>,
        bands: usize,
        configure: impl FnOnce(IncrementalMergePurge) -> IncrementalMergePurge,
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> Result<(DurableIncremental, RecoveryReport), StoreError> {
        let _load = span(observer, "load");
        let (store, loaded) = MatchStore::open(dir.as_ref())?;
        if loaded.truncated() {
            observer.add(Counter::CorruptTailTruncations, 1);
            eprintln!(
                "mp-store: truncated {} corrupt journal byte(s) at {}: {}",
                loaded.truncated_bytes,
                dir.as_ref().display(),
                loaded.truncation_reason.as_deref().unwrap_or("unknown"),
            );
        }

        let mut engine = configure(IncrementalMergePurge::new());
        let mut report = RecoveryReport {
            snapshot_loaded: false,
            batches_in_snapshot: 0,
            batches_replayed: 0,
            truncated_bytes: loaded.truncated_bytes,
            truncation_reason: loaded.truncation_reason,
        };
        if let Some(snap) = loaded.snapshot {
            report.snapshot_loaded = true;
            report.batches_in_snapshot = snap.batches_applied;
            engine = engine.restore(snap).map_err(StoreError::Corrupt)?;
        }
        for b in loaded.replayable {
            engine.add_batch_sharded(b.records, theory, bands, observer);
            if let Some(t) = &b.trace {
                engine.note_batch_trace(t);
            }
            report.batches_replayed += 1;
        }
        observer.add(Counter::JournalReplays, report.batches_replayed);
        Ok((
            DurableIncremental {
                engine,
                store,
                bands,
                batches_since_checkpoint: report.batches_replayed,
            },
            report,
        ))
    }

    /// Ingests one batch durably: the store's append — one fsync'd
    /// frame carrying `trace`, so replay keeps lineage attribution — then
    /// the in-memory fold in the engine's bands. Returns the batch's
    /// sequence number.
    ///
    /// Increments `Counter::BatchesIngested` (plus the comparison/match
    /// counters for the scan work) and runs under an `ingest` span
    /// (labelled `trace=T` when traced).
    ///
    /// # Errors
    ///
    /// A failed journal append; the batch is then *not* applied (it was
    /// never acknowledged, so no state diverges), and the store refuses
    /// every later append until it is reopened ([`MatchStore::poisoned`]).
    pub fn ingest(
        &mut self,
        batch: Vec<Record>,
        trace: Option<&str>,
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> Result<u64, StoreError> {
        let _ingest = match trace {
            Some(t) => span_labeled(observer, "ingest", || format!("trace={t}")),
            None => span(observer, "ingest"),
        };
        let seq = self.store.append_batch(&batch, trace, observer)?;
        self.engine
            .add_batch_sharded(batch, theory, self.bands, observer);
        if let Some(t) = trace {
            self.engine.note_batch_trace(t);
        }
        observer.add(Counter::BatchesIngested, 1);
        self.batches_since_checkpoint += 1;
        Ok(seq)
    }

    /// Writes an atomic snapshot of the current engine state — encoded
    /// straight from the borrowed engine, no intermediate copy — and
    /// resets the journal. Returns the snapshot size in bytes (also
    /// added to `Counter::SnapshotBytes`); runs under a `snapshot` span.
    ///
    /// # Errors
    ///
    /// I/O failure writing the snapshot; the store still recovers from the
    /// previous snapshot + journal.
    pub fn checkpoint(&mut self, observer: &dyn PipelineObserver) -> Result<u64, StoreError> {
        let _snap = span(observer, "snapshot");
        let bytes = self
            .store
            .commit_snapshot(&self.engine.view(), borrowed(self.engine.records()))?;
        observer.add(Counter::SnapshotBytes, bytes);
        self.batches_since_checkpoint = 0;
        Ok(bytes)
    }

    /// The in-memory engine (records, pairs, closure, counters).
    pub fn engine(&self) -> &IncrementalMergePurge {
        &self.engine
    }

    /// The underlying store.
    pub fn store(&self) -> &MatchStore {
        &self.store
    }

    /// Batches applied since the last checkpoint (replayed ones count:
    /// they live only in the journal until the next checkpoint).
    pub fn batches_since_checkpoint(&self) -> u64 {
        self.batches_since_checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipass::MultiPass;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_metrics::NoopObserver;
    use mp_rules::NativeEmployeeTheory;
    use mp_store::JOURNAL_FILE;
    use std::path::PathBuf;

    fn batches(seed: u64, n: usize, parts: usize) -> Vec<Vec<Record>> {
        let db = DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate();
        let chunk = db.records.len().div_ceil(parts);
        db.records.chunks(chunk).map(<[Record]>::to_vec).collect()
    }

    fn scratch_pairs(records: &[Record], w: usize) -> Vec<(u32, u32)> {
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::new()
            .sorted(KeySpec::last_name_key(), w)
            .sorted(KeySpec::first_name_key(), w)
            .run(records, &theory);
        let mut union = PairSet::new();
        for p in &result.passes {
            union.merge(&p.pairs);
        }
        union.sorted()
    }

    #[test]
    fn incremental_is_superset_of_from_scratch() {
        let theory = NativeEmployeeTheory::new();
        let w = 8;
        let mut inc = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), w)
            .pass(KeySpec::first_name_key(), w);
        for batch in batches(9001, 600, 4) {
            inc.add_batch(batch, &theory);
        }
        let scratch = scratch_pairs(inc.records(), w);
        for (a, b) in &scratch {
            assert!(
                inc.pairs().contains(*a, *b),
                "from-scratch pair ({a},{b}) missed by incremental"
            );
        }
        // And the extras are few (pairs that drifted apart as data grew).
        let extra = inc.pairs().len() - scratch.len();
        assert!(
            extra <= scratch.len() / 2,
            "too many extras: {extra} over {}",
            scratch.len()
        );
    }

    #[test]
    fn single_batch_equals_from_scratch_exactly() {
        let theory = NativeEmployeeTheory::new();
        let w = 10;
        let db =
            DatabaseGenerator::new(GeneratorConfig::new(400).duplicate_fraction(0.5).seed(9002))
                .generate();
        let mut inc = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), w)
            .pass(KeySpec::first_name_key(), w);
        inc.add_batch(db.records.clone(), &theory);
        assert_eq!(inc.pairs().sorted(), scratch_pairs(&db.records, w));
    }

    #[test]
    fn incremental_does_far_fewer_comparisons_than_reruns() {
        let theory = NativeEmployeeTheory::new();
        let w = 10;
        // Eight monthly cycles: the rerun cost grows quadratically with the
        // number of cycles while incremental stays linear.
        let parts = batches(9003, 800, 8);
        let mut inc = IncrementalMergePurge::new().pass(KeySpec::last_name_key(), w);
        let mut rerun_comparisons = 0u64;
        let mut all: Vec<Record> = Vec::new();
        for batch in parts {
            inc.add_batch(batch.clone(), &theory);
            // The naive alternative: full rerun over the concatenation.
            all.extend(batch);
            for (i, r) in all.iter_mut().enumerate() {
                r.id = RecordId(i as u32);
            }
            let full =
                crate::snm::SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&all, &theory);
            rerun_comparisons += full.stats.comparisons;
        }
        assert!(
            inc.comparisons() < rerun_comparisons / 2,
            "incremental {} vs rerun {}",
            inc.comparisons(),
            rerun_comparisons
        );
    }

    #[test]
    fn classes_accumulate_across_batches() {
        let theory = NativeEmployeeTheory::new();
        let mut inc = IncrementalMergePurge::new().pass(KeySpec::last_name_key(), 6);
        let parts = batches(9004, 300, 3);
        let mut last = 0usize;
        for batch in parts {
            inc.add_batch(batch, &theory);
            let classes = inc.classes();
            assert!(classes.len() >= last || !classes.is_empty());
            last = classes.len();
        }
        assert!(last > 0);
    }

    proptest::proptest! {
        /// `stats` reports duplicates from [`ClusterSizes`] and
        /// `query-matches` lists a class off the [`ClassRing`]; both must
        /// say what `classes()` would, after every batch and after a
        /// restore (which rebuilds sizes and ring from the closure).
        #[test]
        fn derived_state_matches_classes_after_batches_and_restore(
            seed in 0u64..500,
            originals in 1usize..120,
            parts in 1usize..5,
        ) {
            let theory = NativeEmployeeTheory::new();
            let counted = |e: &IncrementalMergePurge| {
                let classes = e.classes();
                let extra: usize = classes.iter().map(|c| c.len() - 1).sum();
                (classes.len() as u64, extra as u64)
            };
            let listed = |e: &IncrementalMergePurge| -> Vec<Vec<u32>> {
                (0..e.records().len() as u32).map(|id| e.class_of(id)).collect()
            };
            let oracle = |e: &IncrementalMergePurge| {
                let mut want: Vec<Vec<u32>> =
                    (0..e.records().len() as u32).map(|id| vec![id]).collect();
                for class in e.classes() {
                    for &id in &class {
                        want[id as usize] = class.clone();
                    }
                }
                want
            };
            let mut inc = two_pass(IncrementalMergePurge::new());
            proptest::prop_assert_eq!(inc.duplicate_counts(), (0, 0));
            for batch in batches(seed, originals, parts) {
                inc.add_batch(batch, &theory);
                proptest::prop_assert_eq!(inc.duplicate_counts(), counted(&inc));
                proptest::prop_assert_eq!(listed(&inc), oracle(&inc));
            }
            let restored = two_pass(IncrementalMergePurge::new())
                .restore(inc.to_snapshot())
                .unwrap();
            proptest::prop_assert_eq!(restored.duplicate_counts(), counted(&inc));
            proptest::prop_assert_eq!(listed(&restored), oracle(&inc));
        }
    }

    proptest::proptest! {
        /// The sparse scan's shape: the touched ranges are exactly the
        /// positions of `1..n` with a new record at most `w − 1` before
        /// them (or on them) — ascending, disjoint, never more than `B·w`
        /// however large the store — and dealing them out neither drops
        /// nor reorders a position and keeps the bands within one of each
        /// other.
        #[test]
        fn touched_ranges_cover_new_windows_and_nothing_else(
            slots in proptest::collection::vec(0usize..400, 0..12),
            old in 0usize..400,
            w in 2usize..12,
            shards in 1usize..9,
        ) {
            // Where `insert_sorted` lands a batch: ascending slots of the
            // old order, each shifted by the batch entries before it.
            let mut slots: Vec<usize> = slots.iter().map(|s| s % (old + 1)).collect();
            slots.sort_unstable();
            let landed: Vec<usize> = slots.iter().enumerate().map(|(j, s)| s + j).collect();
            let n = old + landed.len();

            let touched = touched_ranges(&landed, w, n);
            let visited: Vec<usize> = touched.iter().cloned().flatten().collect();
            let want: Vec<usize> = (1..n)
                .filter(|&i| landed.iter().any(|&at| at <= i && i < at + w))
                .collect();
            proptest::prop_assert_eq!(&visited, &want);
            proptest::prop_assert!(visited.len() <= landed.len() * w);
            proptest::prop_assert!(touched.iter().all(|r| 1 <= r.start && r.start < r.end));
            proptest::prop_assert!(touched.windows(2).all(|p| p[0].end < p[1].start));

            let shares = deal(&touched, shards);
            proptest::prop_assert_eq!(shares.len(), shards);
            let sizes: Vec<usize> = shares
                .iter()
                .map(|share| share.pieces.iter().map(|(_, r)| r.len()).sum())
                .collect();
            proptest::prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            let dealt: Vec<usize> = shares
                .into_iter()
                .flat_map(|share| share.pieces.into_iter().flat_map(|(_, r)| r))
                .collect();
            proptest::prop_assert_eq!(&dealt, &want);
        }
    }

    #[test]
    fn first_batch_touches_every_position() {
        let landed: Vec<usize> = (0..50).collect();
        assert_eq!(touched_ranges(&landed, 6, 50), vec![1..50]);
        assert_eq!(touched_ranges(&[0], 6, 1), Vec::<Range<usize>>::new());
    }

    #[test]
    #[should_panic(expected = "before the first batch")]
    fn pass_after_batch_rejected() {
        let theory = NativeEmployeeTheory::new();
        let mut inc = IncrementalMergePurge::new().pass(KeySpec::last_name_key(), 4);
        inc.add_batch(vec![Record::empty(RecordId(0))], &theory);
        let _ = inc.pass(KeySpec::first_name_key(), 4);
    }

    #[test]
    #[should_panic(expected = "configure passes")]
    fn batch_without_passes_rejected() {
        let theory = NativeEmployeeTheory::new();
        IncrementalMergePurge::new().add_batch(vec![], &theory);
    }

    // ---- persistence ----------------------------------------------------

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-inc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn two_pass(e: IncrementalMergePurge) -> IncrementalMergePurge {
        e.pass(KeySpec::last_name_key(), 8)
            .pass(KeySpec::first_name_key(), 8)
    }

    /// Everything that must be identical across crash/recovery paths.
    fn fingerprint(e: &IncrementalMergePurge) -> (Vec<(u32, u32)>, u64, u64, Vec<PassCounters>) {
        (
            e.pairs().sorted(),
            e.comparisons(),
            e.batches_applied(),
            e.pass_counters(),
        )
    }

    #[test]
    fn snapshot_restore_round_trip_then_diverge_identically() {
        let theory = NativeEmployeeTheory::new();
        let parts = batches(9005, 500, 4);
        let mut a = two_pass(IncrementalMergePurge::new());
        for b in &parts[..3] {
            a.add_batch(b.clone(), &theory);
        }
        let mut b = two_pass(IncrementalMergePurge::new())
            .restore(a.to_snapshot())
            .unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.classes(), b.classes());
        // The restored engine folds the next batch exactly like the original.
        a.add_batch(parts[3].clone(), &theory);
        b.add_batch(parts[3].clone(), &theory);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.classes(), b.classes());
    }

    #[test]
    fn restore_rejects_mismatched_passes() {
        let theory = NativeEmployeeTheory::new();
        let mut a = two_pass(IncrementalMergePurge::new());
        a.add_batch(batches(9006, 100, 1).remove(0), &theory);
        let snap = a.to_snapshot();
        // Wrong pass count.
        let err = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), 8)
            .restore(snap.clone())
            .unwrap_err();
        assert!(err.contains("1 passes"), "{err}");
        // Wrong key in slot 1.
        let err = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), 8)
            .pass(KeySpec::address_key(), 8)
            .restore(snap.clone())
            .unwrap_err();
        assert!(err.contains("pass 1"), "{err}");
        // Wrong window.
        let err = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), 8)
            .pass(KeySpec::first_name_key(), 4)
            .restore(snap)
            .unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn kill_restart_between_every_batch_is_deterministic() {
        let theory = NativeEmployeeTheory::new();
        let obs = NoopObserver;
        let parts = batches(9007, 500, 4);

        // Golden: one uninterrupted process, never checkpointing.
        let dir_a = tmp_dir("golden");
        let (mut a, _) = DurableIncremental::open(&dir_a, 1, two_pass, &theory, &obs).unwrap();
        for b in &parts {
            a.ingest(b.clone(), None, &theory, &obs).unwrap();
        }
        let want = fingerprint(a.engine());
        let want_classes = a.engine().classes();

        // Kill -9 (drop without checkpoint) and reopen between every batch.
        let dir_b = tmp_dir("killer");
        for (i, b) in parts.iter().enumerate() {
            let (mut d, report) =
                DurableIncremental::open(&dir_b, 1, two_pass, &theory, &obs).unwrap();
            assert_eq!(report.batches_replayed, i as u64);
            d.ingest(b.clone(), None, &theory, &obs).unwrap();
        }
        let (d, _) = DurableIncremental::open(&dir_b, 1, two_pass, &theory, &obs).unwrap();
        assert_eq!(fingerprint(d.engine()), want);
        assert_eq!(d.engine().classes(), want_classes);

        // Checkpoint mid-way, kill, reopen, finish: same answer again.
        let dir_c = tmp_dir("checkpointed");
        let (mut d, _) = DurableIncremental::open(&dir_c, 1, two_pass, &theory, &obs).unwrap();
        d.ingest(parts[0].clone(), None, &theory, &obs).unwrap();
        d.ingest(parts[1].clone(), None, &theory, &obs).unwrap();
        d.checkpoint(&obs).unwrap();
        assert_eq!(d.batches_since_checkpoint(), 0);
        d.ingest(parts[2].clone(), None, &theory, &obs).unwrap();
        drop(d);
        let (mut d, report) = DurableIncremental::open(&dir_c, 1, two_pass, &theory, &obs).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.batches_in_snapshot, 2);
        assert_eq!(report.batches_replayed, 1);
        d.ingest(parts[3].clone(), None, &theory, &obs).unwrap();
        assert_eq!(fingerprint(d.engine()), want);
        assert_eq!(d.engine().classes(), want_classes);

        for dir in [dir_a, dir_b, dir_c] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn mid_journal_truncation_recovers_and_reingest_converges() {
        let theory = NativeEmployeeTheory::new();
        let obs = NoopObserver;
        let parts = batches(9008, 400, 3);

        let dir = tmp_dir("torn");
        let (mut d, _) = DurableIncremental::open(&dir, 1, two_pass, &theory, &obs).unwrap();
        let mut journal_len_after = Vec::new();
        for b in &parts {
            d.ingest(b.clone(), None, &theory, &obs).unwrap();
            journal_len_after.push(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len());
        }
        drop(d);

        // Tear the last frame mid-payload, as a crash during append would.
        let journal = dir.join(JOURNAL_FILE);
        let torn = (journal_len_after[1] + journal_len_after[2]) / 2;
        let data = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &data[..torn as usize]).unwrap();

        let (mut d, report) = DurableIncremental::open(&dir, 1, two_pass, &theory, &obs).unwrap();
        assert!(report.truncated_bytes > 0, "torn tail must be reported");
        assert!(report.truncation_reason.is_some());
        assert_eq!(report.batches_replayed, 2, "intact prefix replays");

        // The torn batch was never acknowledged; the client re-sends it and
        // the result matches an uninterrupted 3-batch run.
        d.ingest(parts[2].clone(), None, &theory, &obs).unwrap();
        let mut golden = two_pass(IncrementalMergePurge::new());
        for b in &parts {
            golden.add_batch(b.clone(), &theory);
        }
        assert_eq!(fingerprint(d.engine()), fingerprint(&golden));
        assert_eq!(d.engine().classes(), golden.classes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
