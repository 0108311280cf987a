//! The merge phase: the one window-scan kernel every engine feeds.
//!
//! "If the size of the window is w records, then every new record entering
//! the window is compared with the previous w − 1 records to find
//! 'matching' records" (§2.2). That sentence is the private kernel of
//! [`WindowScan`]; it is the only place in engine code where an equational
//! theory is applied to a window pair. Two *drivers* decide which positions
//! it visits — [`WindowScan::band`] over a borrowed permutation (the serial
//! scan, every cluster, every parallel fragment, every incremental band)
//! and [`WindowScan::stream`] over a record stream that recycles the
//! records it evicts (the external engines) — and a [`ScanSink`] decides
//! what happens around each evaluation: plain accumulation ([`PairSet`]),
//! closure-aware pruning ([`PrunedSink`]), or an ordered found-list a
//! coordinator folds later ([`FoundList`]). Everything is monomorphised
//! over the sink; the theory is the only dynamic call in the loop.
//!
//! When the theory has a [`Projection`] — its guard cascade compiled into
//! small per-record rows — a driver keeps the rows of the last `w`
//! positions in a ring, projects each record once as it enters the
//! window, and asks the rows before the theory: a pair they reject is
//! one the theory would call a miss without running a rule, so it is
//! counted as an evaluation and never reaches the records. The driver
//! picks the row path once per band, and only when the band makes enough
//! pairs per row for the rows to pay (`PAIRS_PER_ROW`); the rejections
//! are reported to the theory once per band
//! ([`EquationalTheory::projected_misses`]), so counting wrappers still
//! count every evaluation.
//!
//! An in-memory pass (`SortedNeighborhood`, `ClusteringMethod`, and so
//! `dedupe` and `purge`) calls [`WindowScan::band`] once per core: its
//! position sequence is cut into contiguous bands, band 0 scans on the
//! calling thread through the real [`PrunedSink`], and every later band
//! scans on a `scan-K` lane through a speculative sink holding a copy of
//! the pass-start closure. That sink prunes what its own view connects,
//! evaluates the rest, and *defers* a pair whose two classes both have a
//! member before the band's start — the only pairs a match in an earlier
//! band could have connected. A serial fold then replays every later
//! band against the real closure, so the pairs, the closure, the counts
//! and the theory calls are the serial scan's on any core count (the
//! proof sketch is on [`PrunedSink`]).

use mp_closure::{PairSet, UnionFind};
use mp_metrics::{Counter, NoopObserver, PipelineObserver, ScanHooks, LATENCY_SAMPLE_MASK};
use mp_record::prefetch::prefetch_lines;
use mp_record::{Record, RecordId};
use mp_rules::projection::Row;
use mp_rules::{EquationalTheory, Projection};
use std::collections::VecDeque;
use std::ops::{AddAssign, Range};
use std::time::Instant;

/// Work accounting of one window scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Candidate pairs the window produced (the §3.5 `(w−1)(N − w/2)`
    /// quantity — identical whether or not pruning is enabled).
    pub comparisons: u64,
    /// Pairs actually handed to the equational theory.
    pub rule_evaluations: u64,
    /// Pairs skipped because both records were already in the same
    /// equivalence class. `comparisons == rule_evaluations + pairs_pruned`.
    pub pairs_pruned: u64,
}

impl ScanCounts {
    /// Reports the scan's work to `observer` — the single site where
    /// [`Counter::Comparisons`], [`Counter::RuleInvocations`] and
    /// [`Counter::PairsPruned`] are fed, so the three can never disagree
    /// about which scan they describe.
    pub fn report(&self, observer: &dyn PipelineObserver) {
        observer.add(Counter::Comparisons, self.comparisons);
        observer.add(Counter::RuleInvocations, self.rule_evaluations);
        observer.add(Counter::PairsPruned, self.pairs_pruned);
    }
}

impl AddAssign for ScanCounts {
    fn add_assign(&mut self, other: Self) {
        self.comparisons += other.comparisons;
        self.rule_evaluations += other.rule_evaluations;
        self.pairs_pruned += other.pairs_pruned;
    }
}

/// One window candidate as a sink sees it. `prev_at` / `new_at` are the
/// driver's names for the two records — indices into `records` for
/// [`WindowScan::band`], record ids for [`WindowScan::stream`] — and cost
/// nothing to read; the records cost a cache miss until the theory has
/// touched them.
pub struct Candidate<'a> {
    /// Name of the earlier record.
    pub prev_at: u32,
    /// Name of the record entering the window.
    pub new_at: u32,
    /// The earlier record.
    pub old: &'a Record,
    /// The record entering the window.
    pub new: &'a Record,
}

/// What happens around each evaluation of a window scan. Before the theory
/// runs a sink may rule a pair out twice over: as *not a candidate* (never
/// counted), then as *implied* (counted as a comparison and as pruned).
pub trait ScanSink {
    /// The lowest name a candidate of `new_at` can bear: a predecessor named
    /// below it is not a window candidate at all, and is passed over on its
    /// name, before its record is touched. This filters predecessors inside
    /// a visited window only; which positions are visited is the caller's
    /// choice of bands.
    #[inline]
    fn candidates_from(&self, _new_at: u32) -> u32 {
        0
    }

    /// Whether the closure already implies the candidate's answer, so that
    /// evaluating it could add nothing.
    #[inline]
    fn is_implied(&mut self, _pair: &Candidate<'_>) -> bool {
        false
    }

    /// Whether matches need the id of the rule that fired (the theory's
    /// dearer entry point); otherwise `rule` is always 0.
    #[inline]
    fn attribute(&self) -> bool {
        false
    }

    /// Receives a matching candidate.
    fn matched(&mut self, pair: &Candidate<'_>, rule: u32);
}

/// The plain sink: every candidate is evaluated, matches accumulate.
impl ScanSink for PairSet {
    #[inline]
    fn matched(&mut self, pair: &Candidate<'_>, _rule: u32) {
        self.insert(pair.old.id.0, pair.new.id.0);
    }
}

/// Closure-aware pruning (§3.3 applied *inside* the scan): pairs whose
/// records are already connected in `uf` skip rule evaluation, and every
/// match is unioned into `uf` as it is found. Once `a≡b` and `b≡c` are
/// known the window pair `(a, c)` contributes nothing new to the closure;
/// Kejriwal & Miranker ("On the Complexity of Sorted Neighborhood") show
/// such redundant re-checks dominate the comparison budget as windows grow.
///
/// Build one per pass and feed it every segment of the pass: construction
/// walks the whole union-find once.
///
/// **Scanned in bands.** A pass in memory feeds this sink only its first
/// band, one per core; band `k` from position `S` on scans against its
/// own *view* — the pass-start closure plus the band's own matches — and
/// the calling thread folds the bands back in order, replaying this
/// sink's decision for each of their pairs. Why that is the serial scan:
///
/// * the view is always a subset of the serial closure at the same pair
///   (it holds the pass-start closure and matches the serial scan also
///   finds), so a pair the view connects is one the serial scan prunes;
/// * the serial closure adds to the view only matches of earlier bands,
///   whose records both lie before `S`, and matches of deferred pairs,
///   whose classes both reach before `S`; so a pair the serial closure
///   connects and the view does not has both classes reaching a position
///   before `S`. The band defers every pair whose two classes both reach
///   before `S`, and the fold decides them against the real closure:
///   pruned if it connects them, evaluated otherwise. Every other pair the
///   band decides as the serial scan does.
#[derive(Debug)]
pub struct PrunedSink<'a> {
    uf: &'a mut UnionFind,
    /// `connected` can only hold between records that have each been
    /// merged at least once, so the union-find walk sits behind one byte
    /// load per endpoint — with sparse duplicates almost every candidate
    /// short-circuits here.
    linked: Vec<bool>,
    pairs: &'a mut PairSet,
}

impl<'a> PrunedSink<'a> {
    /// A pruning sink over `uf`, which must span every record id that can
    /// appear; matches are inserted into `pairs`.
    pub fn new(uf: &'a mut UnionFind, pairs: &'a mut PairSet) -> Self {
        let linked = (0..uf.len() as u32).map(|x| !uf.is_singleton(x)).collect();
        PrunedSink { uf, linked, pairs }
    }

    /// Whether records `a` and `b` (by id) are already connected: the
    /// pruning decision, asked by the scan and by the banded scan's fold.
    #[inline]
    pub(crate) fn connects(&mut self, a: u32, b: u32) -> bool {
        self.linked[a as usize] && self.linked[b as usize] && self.uf.connected(a, b)
    }

    /// Whether record `id` has ever been merged: until it has, nothing
    /// connects it.
    #[inline]
    pub(crate) fn merged(&self, id: u32) -> bool {
        self.linked[id as usize]
    }

    /// Records the match `a ≡ b` (by id): inserted into the pairs and
    /// unioned into the closure.
    #[inline]
    pub(crate) fn join(&mut self, a: u32, b: u32) {
        self.pairs.insert(a, b);
        self.uf.union(a, b);
        self.linked[a as usize] = true;
        self.linked[b as usize] = true;
    }
}

impl ScanSink for PrunedSink<'_> {
    #[inline]
    fn is_implied(&mut self, pair: &Candidate<'_>) -> bool {
        self.connects(pair.old.id.0, pair.new.id.0)
    }

    #[inline]
    fn matched(&mut self, pair: &Candidate<'_>, _rule: u32) {
        self.join(pair.old.id.0, pair.new.id.0);
    }
}

/// One match as a found-list carries it: `(prev_at, new_at, rule id)`, the
/// records under the names their driver gave them.
pub type Found = (u32, u32, u32);

/// The sink of every concurrent scan: matches are appended in exact scan
/// order and touched by nothing else, so a coordinator can fold several
/// bands' lists in band order and reproduce the serial scan's discovery
/// sequence — first-found rule attribution included — bit for bit.
///
/// With an `old_len` it drops the old-old pairs inside each visited window
/// and nothing more: the incremental engine, its only such user, bands the
/// scan over the positions a new record touches, so no window it is shown
/// is old throughout.
#[derive(Debug)]
pub struct FoundList {
    old_len: u32,
    attribute: bool,
    /// The matches, in scan order.
    pub found: Vec<Found>,
}

impl FoundList {
    /// A found-list that treats pairs with both positions below `old_len`
    /// as non-candidates (pass 0 to take every pair) and records rule ids
    /// when `attribute` is set.
    pub fn new(old_len: u32, attribute: bool) -> Self {
        FoundList {
            old_len,
            attribute,
            found: Vec::new(),
        }
    }
}

impl ScanSink for FoundList {
    #[inline]
    fn candidates_from(&self, new_at: u32) -> u32 {
        // Old against old was compared when closer, in an earlier cycle.
        if new_at < self.old_len {
            self.old_len
        } else {
            0
        }
    }

    #[inline]
    fn attribute(&self) -> bool {
        self.attribute
    }

    #[inline]
    fn matched(&mut self, pair: &Candidate<'_>, rule: u32) {
        self.found.push((pair.prev_at, pair.new_at, rule));
    }
}

/// How many positions ahead of the one entering the window
/// [`WindowScan::band`] prefetches the record's cache lines, which hold its
/// field bytes too (every field of at most 22 bytes is inline).
const RECORD_AHEAD: usize = 4;

/// A projection row costs about what this many rejected pairs save (on
/// the employee theory at w = 40: ≈ 150 ns to project a record, ≈ 65 ns
/// saved per pair the rows reject), so a band scans on rows only when it
/// makes at least this many pairs per row.
const PAIRS_PER_ROW: usize = 3;

/// What stays fixed across every segment of a pass: the window size, the
/// theory, and the observer's per-comparison hooks (sampled rule latency,
/// progress heartbeat). The two methods are the position drivers.
#[derive(Clone, Copy)]
pub struct WindowScan<'a> {
    window: usize,
    theory: &'a dyn EquationalTheory,
    hooks: ScanHooks<'a>,
}

impl<'a> WindowScan<'a> {
    /// A scan of `window`-record windows under `theory`, instrumented with
    /// whatever hooks `observer` exposes.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2` (a window of one record can compare
    /// nothing).
    pub fn new(
        window: usize,
        theory: &'a dyn EquationalTheory,
        observer: &'a dyn PipelineObserver,
    ) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        WindowScan {
            window,
            theory,
            hooks: ScanHooks::from_observer(observer),
        }
    }

    /// The window size `w`.
    pub(crate) fn window(&self) -> usize {
        self.window
    }

    /// Evaluates one pair outside the drivers — the banded scan's fold
    /// deciding a pair a band deferred. `n` is the pair's evaluation
    /// ordinal for the latency sampler.
    pub(crate) fn evaluate(&self, old: &Record, new: &Record, n: u64) -> bool {
        self.eval_pair(old, new, false, n).is_some()
    }

    /// Applies the theory to one candidate, timing every
    /// [`LATENCY_SAMPLE_MASK`]`+1`-th evaluation into the latency histogram
    /// when one is hooked. `n` is the pre-increment evaluation ordinal.
    /// Returns the rule that fired (0 unless `attribute`).
    #[inline]
    fn eval_pair(&self, old: &Record, new: &Record, attribute: bool, n: u64) -> Option<u32> {
        let eval = || {
            if attribute {
                self.theory
                    .matching_rule_id(old, new)
                    .map(|rule| rule as u32)
            } else {
                self.theory.matches(old, new).then_some(0)
            }
        };
        if let Some(h) = self.hooks.latency {
            if n & LATENCY_SAMPLE_MASK == 0 {
                let t = Instant::now();
                let matched = eval();
                h.record(t.elapsed().as_nanos() as u64);
                return matched;
            }
        }
        eval()
    }

    /// The kernel: one record entering the window at position `new_pos`
    /// meets its predecessors, farthest first. A predecessor arrives as its
    /// name, its position and a way to reach its record, so one named
    /// below `from` (the sink's [`candidates_from`](ScanSink::candidates_from))
    /// is passed over on the name alone, and a pair whose projection rows
    /// prove it a miss is counted as an evaluation without either record
    /// being read. A pair whose evaluation the latency sampler times is
    /// always evaluated, so the histogram times the theory.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn position<'r, S: ScanSink, W: Rows, R: FnOnce() -> &'r Record>(
        &self,
        new_at: u32,
        new_pos: usize,
        new: &Record,
        from: u32,
        predecessors: impl Iterator<Item = (u32, usize, R)>,
        sink: &mut S,
        counts: &mut ScanCounts,
        rows: &mut W,
    ) {
        let attribute = sink.attribute();
        let sampling = self.hooks.latency.is_some();
        let before = counts.comparisons;
        for (prev_at, prev_pos, old) in predecessors.filter(|&(prev_at, ..)| prev_at >= from) {
            let (old, n) = (old(), counts.rule_evaluations);
            let pair = Candidate {
                prev_at,
                new_at,
                old,
                new,
            };
            counts.comparisons += 1;
            if sink.is_implied(&pair) {
                counts.pairs_pruned += 1;
                continue;
            }
            counts.rule_evaluations += 1;
            if !(sampling && n & LATENCY_SAMPLE_MASK == 0) && rows.rejects(prev_pos, new_pos) {
                continue;
            }
            if let Some(rule) = self.eval_pair(old, new, attribute, n) {
                sink.matched(&pair, rule);
            }
        }
        if let Some(p) = self.hooks.progress {
            p.tick(counts.comparisons - before);
        }
    }

    /// Band driver: scans window positions `band` of `order` (indices into
    /// `records`, already sorted by key), adding its work to `counts`.
    /// Position `i` meets the up-to-`w−1` entries before it, reaching left
    /// of `band.start` when it must — the §4.1 band replication that makes
    /// a fragment boundary invisible — so contiguous bands covering
    /// `1..order.len()` evaluate every window pair exactly once between
    /// them. A driver scanning one pass in several bands hands every band
    /// the same `counts`, so the latency sampler's evaluation ordinal runs
    /// on across them instead of restarting at each band's coldest pair.
    ///
    /// The key order scatters `records`, so every position entering the
    /// window is a cache miss. A record's field bytes sit in its own 256
    /// bytes (four or five cache lines), so that miss is the only one; the
    /// driver knows the positions ahead and prefetches the record four
    /// positions on. A band's first window — the `w−1` predecessors it
    /// reaches back to, and the first positions of the lookahead — is
    /// primed the same way before the first comparison. Nothing past
    /// `band.end` is prefetched or indexed.
    pub fn band<S: ScanSink>(
        &self,
        records: &[Record],
        order: &[u32],
        band: Range<usize>,
        sink: &mut S,
        counts: &mut ScanCounts,
    ) {
        let positions = &order[band.start.max(1).min(band.end)..band.end];
        match self.theory.projection().filter(|_| {
            let dense = positions
                .iter()
                .filter(|&&p| sink.candidates_from(p) == 0)
                .count();
            self.rows_pay(dense, positions.len())
        }) {
            Some(projection) => {
                let mut ring = Ring::new(projection, self.window);
                self.band_with(records, order, band, sink, counts, &mut ring);
                ring.report(self.theory);
            }
            None => self.band_with(records, order, band, sink, counts, &mut NoRows),
        }
    }

    /// Whether a band of `positions` positions, `dense` of which meet
    /// every predecessor in their window, makes enough pairs for its rows
    /// to pay: at least [`PAIRS_PER_ROW`] per row it projects (one per
    /// position and one per predecessor it reaches back to). A scan of a
    /// whole pass does; a sparse ingest band, where each old position
    /// meets only the new records in its window, does not.
    fn rows_pay(&self, dense: usize, positions: usize) -> bool {
        dense * (self.window - 1) >= PAIRS_PER_ROW * (positions + self.window - 1)
    }

    fn band_with<S: ScanSink, W: Rows>(
        &self,
        records: &[Record],
        order: &[u32],
        band: Range<usize>,
        sink: &mut S,
        counts: &mut ScanCounts,
        rows: &mut W,
    ) {
        let (start, order) = (band.start.max(1), &order[..band.end]);
        if start >= order.len() {
            return;
        }
        let first = start.saturating_sub(self.window - 1);
        let record = |p: &u32| &records[*p as usize];
        order[first..order.len().min(start + RECORD_AHEAD)]
            .iter()
            .for_each(|p| prefetch_lines(record(p)));
        for (at, p) in order.iter().enumerate().take(start).skip(first) {
            rows.enter(at, record(p));
        }
        for i in start..order.len() {
            if let Some(p) = order.get(i + RECORD_AHEAD) {
                prefetch_lines(record(p));
            }
            let lo = i.saturating_sub(self.window - 1);
            let from = sink.candidates_from(order[i]);
            let new = record(&order[i]);
            rows.enter(i, new);
            let predecessors = order[lo..i]
                .iter()
                .zip(lo..)
                .map(|(&p, at)| (p, at, move || &records[p as usize]));
            self.position(order[i], i, new, from, predecessors, sink, counts, rows);
        }
    }

    /// Stream driver: scans records arriving in key order from `next`,
    /// holding only the last `w−1` of them (moved in, never cloned). Visits
    /// the exact comparison sequence of [`band`](Self::band) over the same
    /// order.
    ///
    /// `next` fills the slot it is handed with the next record and returns
    /// `true`, or returns `false` at the end of the stream. Once the
    /// window is full, the slot is the record the window just evicted, so
    /// a `next` that decodes into it (as the external engines' run readers
    /// do) writes the new record where the window keeps it, still in
    /// cache, instead of building it elsewhere and moving it in.
    ///
    /// # Errors
    ///
    /// The first error `next` returns; matches found so far stay in `sink`.
    pub fn stream<S: ScanSink, E>(
        &self,
        next: impl FnMut(&mut Record) -> Result<bool, E>,
        sink: &mut S,
    ) -> Result<ScanCounts, E> {
        // A stream is one long band of positions that meet every
        // predecessor: `w − 1` pairs a row.
        match self
            .theory
            .projection()
            .filter(|_| self.window > PAIRS_PER_ROW)
        {
            Some(projection) => {
                let mut ring = Ring::new(projection, self.window);
                let scanned = self.stream_with(next, sink, &mut ring);
                ring.report(self.theory);
                scanned
            }
            None => self.stream_with(next, sink, &mut NoRows),
        }
    }

    fn stream_with<S: ScanSink, E, W: Rows>(
        &self,
        mut next: impl FnMut(&mut Record) -> Result<bool, E>,
        sink: &mut S,
        rows: &mut W,
    ) -> Result<ScanCounts, E> {
        let mut counts = ScanCounts::default();
        let mut held: VecDeque<Record> = VecDeque::with_capacity(self.window);
        let mut slot = Record::empty(RecordId(0));
        let mut at = 0;
        while next(&mut slot)? {
            let new = &slot;
            let from = sink.candidates_from(new.id.0);
            rows.enter(at, new);
            let predecessors = held
                .iter()
                .zip(at - held.len()..)
                .map(|(r, pos)| (r.id.0, pos, move || r));
            self.position(
                new.id.0,
                at,
                new,
                from,
                predecessors,
                sink,
                &mut counts,
                rows,
            );
            let spare = if held.len() == self.window - 1 {
                held.pop_front().expect("a full window")
            } else {
                Record::empty(RecordId(0))
            };
            held.push_back(std::mem::replace(&mut slot, spare));
            at += 1;
        }
        Ok(counts)
    }
}

/// What a driver keeps about the records in its window besides the
/// records: the rows of the theory's [`Projection`], or nothing. The
/// driver picks one per band, so each kernel is monomorphised for it.
trait Rows {
    /// Takes in the record entering the window at position `at`.
    fn enter(&mut self, at: usize, record: &Record);

    /// Whether the rows of positions `old` and `new` prove the pair a
    /// miss, so the theory need not see it.
    fn rejects(&mut self, old: usize, new: usize) -> bool;
}

/// The theory has no projection: every pair goes to the theory.
struct NoRows;

impl Rows for NoRows {
    #[inline]
    fn enter(&mut self, _at: usize, _record: &Record) {}

    #[inline]
    fn rejects(&mut self, _old: usize, _new: usize) -> bool {
        false
    }
}

/// The projection rows of the last `w` positions, in a ring of a power of
/// two at least `w` long, so a position's slot is its low bits. A row is
/// made once, when its record enters the window (the record is in cache
/// then: the driver prefetched it), and every pair it meets there reads
/// rows before it reads records. Nothing outlives the band, so the
/// memory is O(w).
struct Ring<'p> {
    projection: &'p Projection,
    rows: Vec<Row>,
    mask: usize,
    /// Pairs the rows rejected: misses the theory never saw.
    rejected: u64,
}

impl<'p> Ring<'p> {
    fn new(projection: &'p Projection, window: usize) -> Self {
        let len = window.next_power_of_two();
        Ring {
            projection,
            rows: vec![Row::default(); len],
            mask: len - 1,
            rejected: 0,
        }
    }

    /// Tells the theory how many evaluations the rows decided, once per
    /// band, so a counting wrapper still counts every one.
    fn report(&self, theory: &dyn EquationalTheory) {
        if self.rejected > 0 {
            theory.projected_misses(self.rejected);
        }
    }
}

impl Rows for Ring<'_> {
    #[inline]
    fn enter(&mut self, at: usize, record: &Record) {
        self.projection
            .project(record, &mut self.rows[at & self.mask]);
    }

    #[inline]
    fn rejects(&mut self, old: usize, new: usize) -> bool {
        let rejected = self
            .projection
            .rejects(&self.rows[old & self.mask], &self.rows[new & self.mask]);
        self.rejected += u64::from(rejected);
        rejected
    }
}

/// Slides a `window`-record window over `order` and applies `theory` to
/// every pair inside it, accumulating matches into `pairs`. Returns the
/// number of pair comparisons performed — `(N − w/2 ish) · (w − 1)` —
/// which the cost model and benches consume. This is the unpruned
/// reference the pruned scan is tested against.
///
/// # Panics
///
/// Panics when `window < 2`.
pub fn window_scan(
    records: &[Record],
    order: &[u32],
    window: usize,
    theory: &dyn EquationalTheory,
    pairs: &mut PairSet,
) -> u64 {
    let mut counts = ScanCounts::default();
    WindowScan::new(window, theory, &NoopObserver).band(
        records,
        order,
        0..order.len(),
        pairs,
        &mut counts,
    );
    counts.comparisons
}

/// Like [`window_scan`] through a [`PrunedSink`]. Passing a union-find
/// carried over from previous passes prunes cross-pass duplicates too —
/// the multi-pass engine does exactly that. Pruning changes no closed pair
/// (tested).
///
/// # Panics
///
/// Panics when `window < 2`.
pub fn window_scan_pruned(
    records: &[Record],
    order: &[u32],
    window: usize,
    theory: &dyn EquationalTheory,
    uf: &mut UnionFind,
    pairs: &mut PairSet,
) -> ScanCounts {
    let mut sink = PrunedSink::new(uf, pairs);
    let mut counts = ScanCounts::default();
    WindowScan::new(window, theory, &NoopObserver).band(
        records,
        order,
        0..order.len(),
        &mut sink,
        &mut counts,
    );
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_metrics::MetricsRecorder;
    use mp_record::RecordId;
    use mp_rules::{CompiledTheory, RuleFiringCounter, EMPLOYEE_RULES_SRC};

    /// Theory matching records with equal last names.
    struct SameLast;
    impl EquationalTheory for SameLast {
        fn matches(&self, a: &Record, b: &Record) -> bool {
            !a.last_name.is_empty() && a.last_name == b.last_name
        }
        fn name(&self) -> &str {
            "same-last"
        }
    }

    fn records(lasts: &[&str]) -> Vec<Record> {
        lasts
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut r = Record::empty(RecordId(i as u32));
                r.last_name = (*l).to_string().into();
                r
            })
            .collect()
    }

    #[test]
    fn adjacent_matches_found_with_minimal_window() {
        let recs = records(&["A", "A", "B", "C", "C"]);
        let order: Vec<u32> = (0..recs.len() as u32).collect();
        let mut pairs = PairSet::new();
        window_scan(&recs, &order, 2, &SameLast, &mut pairs);
        assert_eq!(pairs.sorted(), vec![(0, 1), (3, 4)]);
    }

    #[test]
    fn matches_beyond_window_are_missed() {
        // The fundamental SNM limitation the multi-pass approach fixes.
        let recs = records(&["A", "B", "C", "A"]);
        let order: Vec<u32> = (0..4).collect();
        let mut pairs = PairSet::new();
        window_scan(&recs, &order, 3, &SameLast, &mut pairs);
        assert!(pairs.is_empty());
        let mut pairs = PairSet::new();
        window_scan(&recs, &order, 4, &SameLast, &mut pairs);
        assert_eq!(pairs.sorted(), vec![(0, 3)]);
    }

    #[test]
    fn comparison_count_matches_formula() {
        let recs = records(&["A"; 10]);
        let order: Vec<u32> = (0..10).collect();
        let mut pairs = PairSet::new();
        let w = 4;
        let c = window_scan(&recs, &order, w, &SameLast, &mut pairs);
        // First w-1 entries compare with fewer: sum_{i=1}^{N-1} min(i, w-1).
        let expected: u64 = (1..10u64).map(|i| i.min(w as u64 - 1)).sum();
        assert_eq!(c, expected);
        // All 45 pairs of equal records within distance 3 match.
        assert_eq!(pairs.len() as u64, expected);
    }

    #[test]
    fn order_indirection_respected() {
        // Records sorted differently from their id order.
        let recs = records(&["Z", "A", "Z"]);
        let order = vec![1u32, 0, 2]; // A, Z, Z
        let mut pairs = PairSet::new();
        window_scan(&recs, &order, 2, &SameLast, &mut pairs);
        assert_eq!(pairs.sorted(), vec![(0, 2)]);
    }

    #[test]
    fn window_larger_than_list_is_fine() {
        let recs = records(&["A", "A"]);
        let order = vec![0u32, 1];
        let mut pairs = PairSet::new();
        let c = window_scan(&recs, &order, 100, &SameLast, &mut pairs);
        assert_eq!(c, 1);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let recs = records(&[]);
        let mut pairs = PairSet::new();
        assert_eq!(window_scan(&recs, &[], 2, &SameLast, &mut pairs), 0);
        let recs = records(&["A"]);
        assert_eq!(window_scan(&recs, &[0], 2, &SameLast, &mut pairs), 0);
        assert!(pairs.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn window_of_one_rejected() {
        let recs = records(&["A"]);
        let mut pairs = PairSet::new();
        window_scan(&recs, &[0], 1, &SameLast, &mut pairs);
    }

    #[test]
    fn pruned_scan_skips_transitively_implied_pairs() {
        // Three equal records in one window: after 0-1 and 0-2 match, the
        // 1-2 pair is implied by transitivity and must be pruned.
        let recs = records(&["A", "A", "A"]);
        let order: Vec<u32> = (0..3).collect();
        let mut uf = UnionFind::new(3);
        let mut pairs = PairSet::new();
        let counts = window_scan_pruned(&recs, &order, 3, &SameLast, &mut uf, &mut pairs);
        assert_eq!(counts.comparisons, 3);
        assert_eq!(counts.rule_evaluations, 2);
        assert_eq!(counts.pairs_pruned, 1);
        assert_eq!(
            counts.comparisons,
            counts.rule_evaluations + counts.pairs_pruned
        );
        // The emitted pairs close to the same classes as the unpruned scan.
        assert_eq!(uf.classes(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn pruned_scan_same_candidate_count_and_closure_as_unpruned() {
        let lasts: Vec<&str> = ["A", "B", "A", "C", "B", "A", "C", "C", "B", "A"].to_vec();
        let recs = records(&lasts);
        let order: Vec<u32> = (0..recs.len() as u32).collect();
        for w in [2usize, 4, 8] {
            let mut plain_pairs = PairSet::new();
            let plain = window_scan(&recs, &order, w, &SameLast, &mut plain_pairs);

            let mut uf = UnionFind::new(recs.len());
            let mut pruned_pairs = PairSet::new();
            let counts =
                window_scan_pruned(&recs, &order, w, &SameLast, &mut uf, &mut pruned_pairs);
            assert_eq!(counts.comparisons, plain, "w={w}");
            assert!(counts.rule_evaluations <= plain);

            // Same closure: union the unpruned pairs and compare classes.
            let mut uf_plain = UnionFind::new(recs.len());
            for (a, b) in plain_pairs.iter() {
                uf_plain.union(a, b);
            }
            assert_eq!(uf.classes(), uf_plain.classes(), "w={w}");
        }
    }

    /// Scans `order` in the contiguous `bands` with one count, the way a
    /// driver scans one pass in pieces.
    fn scan_bands(
        scan: &WindowScan<'_>,
        recs: &[Record],
        order: &[u32],
        bands: impl IntoIterator<Item = Range<usize>>,
    ) -> (ScanCounts, Vec<Found>) {
        let mut sink = FoundList::new(0, false);
        let mut counts = ScanCounts::default();
        for band in bands {
            scan.band(recs, order, band, &mut sink, &mut counts);
        }
        (counts, sink.found)
    }

    #[test]
    fn every_split_into_bands_finds_what_one_band_finds() {
        // The lookahead runs four positions past the one scanned; bands
        // that end at `order.len()`, bands shorter than the lookahead and
        // orders shorter than it must all stay inside `order`.
        let lasts = ["A", "B", "A", "A", "C", "B", "A", "C", "C", "B", "A", "B"];
        for n in 0..=lasts.len() {
            let recs = records(&lasts[..n]);
            let order: Vec<u32> = (0..n as u32).rev().collect();
            for w in 2..=5 {
                let scan = WindowScan::new(w, &SameLast, &NoopObserver);
                let whole = scan_bands(&scan, &recs, &order, std::iter::once(0..n));
                // Bit `c` of `cuts` starts a band at position `c + 2`; the
                // first band starts at 0 or 1 by the lowest bit.
                for cuts in 0..1u32 << n.saturating_sub(1) {
                    let mut starts = vec![(cuts & 1) as usize];
                    starts.extend((2..n).filter(|c| cuts >> (c - 1) & 1 == 1));
                    let bands: Vec<Range<usize>> = starts
                        .iter()
                        .zip(starts.iter().skip(1).chain([&n]))
                        .map(|(&a, &b)| a..b.max(a))
                        .collect();
                    let split = scan_bands(&scan, &recs, &order, bands.clone());
                    assert_eq!(split, whole, "n={n} w={w} bands={bands:?}");
                }
            }
        }
    }

    #[test]
    fn latency_sampler_runs_on_across_a_pass_split_into_bands() {
        let recs = records(&["A"; 200]);
        let order: Vec<u32> = (0..200).collect();
        let sampled = |bands: &[Range<usize>]| {
            let observer = MetricsRecorder::new().with_tracing();
            let scan = WindowScan::new(4, &SameLast, &observer);
            let (counts, _) = scan_bands(&scan, &recs, &order, bands.iter().cloned());
            let samples = observer.rule_latency().expect("tracing hooks latency");
            (counts.rule_evaluations, samples.count())
        };
        let (evaluations, samples) = sampled(std::slice::from_ref(&(0..200)));
        assert_eq!(samples, evaluations.div_ceil(LATENCY_SAMPLE_MASK + 1));
        // 29 bands of seven: a fresh ordinal per band would time 29 pairs
        // (each band's first) where one pass times one in 32.
        let bands: Vec<Range<usize>> = (0..200).step_by(7).map(|s| s..(s + 7).min(200)).collect();
        assert_eq!(sampled(&bands), (evaluations, samples));
    }

    /// Forwards everything but the projection: the record path.
    struct Unprojected<'a>(&'a dyn EquationalTheory);

    impl EquationalTheory for Unprojected<'_> {
        fn matches(&self, a: &Record, b: &Record) -> bool {
            self.0.matches(a, b)
        }
        fn name(&self) -> &str {
            self.0.name()
        }
        fn matching_rule_id(&self, a: &Record, b: &Record) -> Option<usize> {
            self.0.matching_rule_id(a, b)
        }
        fn rule_names(&self) -> Vec<String> {
            self.0.rule_names()
        }
    }

    #[test]
    fn scans_that_reject_on_rows_are_the_theory_scans() {
        let mut records = DatabaseGenerator::new(
            GeneratorConfig::new(400)
                .duplicate_fraction(0.6)
                .max_duplicates_per_record(3)
                .seed(3),
        )
        .generate()
        .records;
        for (i, r) in records.iter_mut().enumerate() {
            r.id = RecordId(i as u32);
        }
        let mut order: Vec<u32> = (0..records.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&records[a as usize], &records[b as usize]);
            (a.last_name.as_str(), a.id).cmp(&(b.last_name.as_str(), b.id))
        });
        let compiled = CompiledTheory::compile(EMPLOYEE_RULES_SRC).unwrap();
        assert!(compiled.projection().is_some());
        let n = order.len();
        // Everything a scan leaves behind: per driver and band split, the
        // counts and the found-list, then the rule counter's tallies.
        let run = |theory: &dyn EquationalTheory| {
            let counter = RuleFiringCounter::new(theory);
            let scan = WindowScan::new(10, &counter, &NoopObserver);
            let one = scan_bands(&scan, &records, &order, std::iter::once(0..n));
            let split = scan_bands(&scan, &records, &order, [0..7, 7..150, 150..n]);
            let mut sink = FoundList::new(0, true);
            let mut next = order.iter().map(|&p| records[p as usize].clone());
            let streamed = scan
                .stream(
                    |slot: &mut Record| Ok::<_, ()>(next.next().map(|r| *slot = r).is_some()),
                    &mut sink,
                )
                .unwrap();
            let tallies = (counter.evaluations(), counter.misses(), counter.fired());
            (one, split, streamed, sink.found, tallies)
        };
        let projected = run(&compiled);
        assert_eq!(projected, run(&Unprojected(&compiled)));
        assert!(!projected.0 .1.is_empty(), "the scan finds matches");
        assert_eq!(projected.4 .0, 3 * projected.0 .0.rule_evaluations);
    }

    #[test]
    fn pruned_scan_with_preconnected_union_find_prunes_cross_pass() {
        // Simulates a second pass: the union-find already knows 0≡1.
        let recs = records(&["A", "A"]);
        let order = vec![0u32, 1];
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        let mut pairs = PairSet::new();
        let counts = window_scan_pruned(&recs, &order, 2, &SameLast, &mut uf, &mut pairs);
        assert_eq!(counts.comparisons, 1);
        assert_eq!(counts.rule_evaluations, 0);
        assert_eq!(counts.pairs_pruned, 1);
        assert!(pairs.is_empty());
    }
}
