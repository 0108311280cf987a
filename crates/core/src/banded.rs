//! The in-memory pass scan on every core: §4's band split applied to one
//! pruned pass, with a serial fold that makes the result the serial
//! scan's, bit for bit.
//!
//! A pass's *position sequence* is its segments in order and each
//! segment's positions in order — one sorted list for
//! [`SortedNeighborhood`](crate::SortedNeighborhood), the clusters for
//! `mp_paper::ClusteringMethod`. [`scan_in_bands`] cuts
//! it into contiguous bands ([`deal`]; a cut may fall inside a segment or
//! between two) and scans the bands side by side through [`fan_out`] —
//! one band per core ([`per_core`]) unless the caller names a count.
//! Band 0 runs on the calling thread through the real [`PrunedSink`];
//! every other band runs on a `scan-K` lane through a [`Speculation`],
//! which prunes against its own copy of the pass-start closure. One band
//! is the serial scan, on the same path.
//!
//! # Why a band may prune, evaluate or defer
//!
//! Band `k` starts at position `S`. Its *view* is the pass-start closure
//! plus the matches the band itself found. Every pair the band owns has
//! its later record at a position `≥ S`; every pair an earlier band owns
//! has both records before `S`.
//!
//! * **The view is a subset of the serial closure** at the same pair. The
//!   serial closure holds the pass-start closure and every match found
//!   before the pair, which includes every match the band found (see
//!   below: the band evaluates a pair only when the serial scan does).
//!   So a pair the view connects is one the serial scan prunes.
//! * **A pair the serial closure connects but the view does not has both
//!   classes reaching before `S`.** The serial closure adds two kinds of
//!   edges to the view: matches of earlier bands, whose records both lie
//!   before `S`, and matches of deferred pairs, whose classes both
//!   already reached before `S`. A path from `a`'s view class to `b`'s
//!   leaves each through such an edge, so each class has a member before
//!   `S` — its *reach*, the first position of any member, is below `S`.
//!
//! So a band decides every pair the serial scan would decide the same way
//! except those whose two classes both reach before `S`: it *defers*
//! them, and a match from an earlier band is the only thing that could
//! make the serial answer differ. The band's matches and deferrals go
//! into one event list, in scan order.
//!
//! # The fold
//!
//! After the join, the calling thread re-walks every band `k ≥ 1` in band
//! order, by record id and without touching a record, and replays the
//! [`PrunedSink`] decision for each pair against the real closure: a pair
//! it connects is pruned; otherwise a listed match is inserted and
//! unioned, a deferred pair is evaluated now, and any other pair was
//! evaluated by its band and did not match. Pairs, union-find state,
//! [`ScanCounts`] and the multiset of theory calls come out as the serial
//! scan's on every core count. Without pruning there is nothing to defer:
//! each band collects its matches and the fold inserts them in band order.

use crate::fanout::fan_out;
use crate::snm::Scanned;
use crate::window::{Candidate, PrunedSink, ScanCounts, ScanSink, WindowScan};
use mp_closure::{PairSet, UnionFind};
use mp_metrics::{span, span_labeled, PipelineObserver};
use mp_record::Record;
use std::iter;
use std::ops::Range;

/// The band count a pass's scan runs in unless its caller names one: one
/// band per core.
pub fn per_core() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Shares positions `0..n` out in `bands` contiguous ranges of near-equal
/// length, in order; earlier ranges take the remainder, and ranges are
/// empty when `bands` exceeds `n`.
///
/// A scan band owns the window pairs whose *later* element falls inside
/// it; [`WindowScan::band`]'s backward window reaches across the left
/// boundary — the band-replication seam — so every boundary pair is still
/// evaluated exactly once. The external sorter cuts a chunk of records
/// with it to fan run formation out across worker threads.
pub fn band_ranges(n: usize, bands: usize) -> Vec<Range<usize>> {
    let mut end = 0;
    (0..bands)
        .map(|k| {
            let start = end;
            end += n / bands + usize::from(k < n % bands);
            start..end
        })
        .collect()
}

/// Scans `segments` (each an ordered run of record indices) under one
/// `window_scan` span in `bands` bands (at least one, at most one per
/// position) — pruned against `uf` when a union-find is given, into a
/// plain [`PairSet`] otherwise. The result is the serial scan's on any
/// band count, with one entry per band in its `worker_comparisons`.
pub fn scan_in_bands(
    scan: &WindowScan<'_>,
    records: &[Record],
    segments: &[&[u32]],
    uf: Option<&mut UnionFind>,
    observer: &dyn PipelineObserver,
    bands: usize,
) -> Scanned {
    let _s = span(observer, "window_scan");
    let lens: Vec<Range<usize>> = segments.iter().map(|s| 0..s.len()).collect();
    let n: usize = segments.iter().map(|s| s.len()).sum();
    let bands = deal(&lens, bands.clamp(1, n.max(1)));
    let pass = Pass {
        scan,
        records,
        segments,
        bands: &bands,
        observer,
    };
    let mut pairs = PairSet::new();
    let per_band = match uf {
        Some(uf) => pass.pruned(uf, &mut pairs),
        None => pass.plain(&mut pairs),
    };
    let mut counts = ScanCounts::default();
    for &band in &per_band {
        counts += band;
    }
    Scanned {
        pairs,
        counts,
        worker_comparisons: per_band.iter().map(|c| c.comparisons).collect(),
    }
}

/// One band: a contiguous run of the positions [`deal`] shares out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Band {
    /// How many positions the bands before this one hold.
    pub(crate) start: usize,
    /// The band's positions in order, as `(i, piece)`: `piece` is a
    /// nonempty part of the `i`-th dealt range.
    pub(crate) pieces: Vec<(usize, Range<usize>)>,
}

/// Deals the positions of `ranges`, in order, out in `bands` contiguous
/// bands of near-equal size ([`band_ranges`] over their count), so bands
/// stay balanced however the positions are spread over the ranges. A band
/// may end inside a range or between two.
pub(crate) fn deal(ranges: &[Range<usize>], bands: usize) -> Vec<Band> {
    let n = ranges.iter().map(Range::len).sum();
    let mut rest = ranges.iter().cloned().enumerate();
    let (mut i, mut current) = (0, 0..0);
    band_ranges(n, bands)
        .into_iter()
        .map(|share| {
            let mut pieces = Vec::new();
            let mut wanted = share.len();
            while wanted > 0 {
                if current.is_empty() {
                    (i, current) = rest.next().expect("the bands add up to the positions");
                    continue;
                }
                let take = wanted.min(current.len());
                pieces.push((i, current.start..current.start + take));
                current.start += take;
                wanted -= take;
            }
            Band {
                start: share.start,
                pieces,
            }
        })
        .collect()
}

/// Where band `K` scans into: band 0 into the caller's real sink, every
/// other band into a sink of its own that the fold reads afterwards.
enum Lane<'f, F, S> {
    Caller(&'f mut F),
    Worker(S),
}

/// What stays fixed while one pass is scanned in bands.
struct Pass<'p, 'w> {
    scan: &'p WindowScan<'w>,
    records: &'p [Record],
    segments: &'p [&'p [u32]],
    bands: &'p [Band],
    observer: &'p dyn PipelineObserver,
}

impl Pass<'_, '_> {
    /// Scans band `k` into `lanes[k]`, side by side: each band under a
    /// `window_scan` span labelled `band=K`, band 0 on the calling thread
    /// and band `K` on a `scan-K` lane. Returns band 0's counts and every
    /// other band's counts and sink, in band order.
    fn scan_lanes<F, S>(&self, lanes: Vec<Lane<'_, F, S>>) -> (ScanCounts, Vec<(ScanCounts, S)>)
    where
        F: ScanSink + Send,
        S: ScanSink + Send,
    {
        let items: Vec<_> = self.bands.iter().zip(lanes).collect();
        let mut results = fan_out(
            items,
            |k| format!("scan-{k}"),
            |k, (band, lane)| {
                let _b = span_labeled(self.observer, "window_scan", || format!("band={k}"));
                let mut counts = ScanCounts::default();
                let worker = match lane {
                    Lane::Caller(sink) => {
                        self.scan_band(band, sink, &mut counts);
                        None
                    }
                    Lane::Worker(mut sink) => {
                        self.scan_band(band, &mut sink, &mut counts);
                        Some(sink)
                    }
                };
                (counts, worker)
            },
        )
        .into_iter();
        let (first, _) = results.next().expect("a pass has at least one band");
        let rest = results
            .map(|(counts, sink)| {
                (
                    counts,
                    sink.expect("bands after 0 scan into their own sink"),
                )
            })
            .collect();
        (first, rest)
    }

    fn scan_band<S: ScanSink>(&self, band: &Band, sink: &mut S, counts: &mut ScanCounts) {
        for (s, positions) in &band.pieces {
            let order = self.segments[*s];
            self.scan
                .band(self.records, order, positions.clone(), sink, counts);
        }
    }

    /// The unpruned scan: bands collect their matches, the fold inserts
    /// them in band order. Returns each band's counts.
    fn plain(&self, pairs: &mut PairSet) -> Vec<ScanCounts> {
        let lanes = iter::once(Lane::Caller(&mut *pairs))
            .chain(
                self.bands[1..]
                    .iter()
                    .map(|_| Lane::Worker(Collected::default())),
            )
            .collect();
        let (first, rest) = self.scan_lanes(lanes);
        let _f = span_labeled(self.observer, "scan_fold", || "deferred=0".to_string());
        let mut per_band = vec![first];
        for (band_counts, collected) in rest {
            per_band.push(band_counts);
            for (a, b) in collected.0 {
                pairs.insert(a, b);
            }
        }
        per_band
    }

    /// The pruned scan: band 0 against the real closure, every other band
    /// speculating against the pass-start closure, then the fold. Returns
    /// each band's counts as the serial scan makes them.
    fn pruned(&self, uf: &mut UnionFind, pairs: &mut PairSet) -> Vec<ScanCounts> {
        let ids: Vec<u32> = self.records.iter().map(|r| r.id.0).collect();
        let speculations = self.speculations(uf, &ids);
        let mut sink = PrunedSink::new(uf, pairs);
        let lanes = iter::once(Lane::Caller(&mut sink))
            .chain(speculations.into_iter().map(Lane::Worker))
            .collect();
        let (first, rest) = self.scan_lanes(lanes);
        let deferred: usize = rest.iter().map(|(_, s)| s.deferred()).sum();
        let _f = span_labeled(self.observer, "scan_fold", || {
            format!("deferred={deferred}")
        });
        let mut per_band = vec![first];
        for ((band_counts, speculation), band) in rest.iter().zip(&self.bands[1..]) {
            let folded = self.fold(band, &speculation.events, &ids, &mut sink);
            debug_assert_eq!(folded.comparisons, band_counts.comparisons);
            per_band.push(folded);
        }
        per_band
    }

    /// One [`Speculation`] per band after the first, each starting from
    /// the pass-start closure `uf`.
    fn speculations<'q>(&'q self, uf: &UnionFind, ids: &[u32]) -> Vec<Speculation<'q>> {
        let Some((last, middle)) = self.bands[1..].split_last() else {
            return Vec::new();
        };
        let start = uf.clone();
        let linked: Vec<bool> = (0..start.len() as u32)
            .map(|x| !start.is_singleton(x))
            .collect();
        let w = self.scan.window();
        // Only a merged record's class can hold a member before a band: a
        // pass that starts with none (the first) marks nothing.
        let any_linked = start.set_count() < start.len();
        let mut sequence = self.segments.iter().flat_map(|s| s.iter().copied());
        let mut seen = 0;
        let mut early = vec![false; start.len()];
        let mut speculation = |band: &Band, mut uf: UnionFind, linked: Vec<bool>| {
            // Mark the classes with a member before the band: the sequence
            // up to its start, read on from where the previous band's
            // prefix stopped.
            if any_linked {
                for name in sequence.by_ref().take(band.start - seen) {
                    let id = ids[name as usize];
                    if linked[id as usize] {
                        early[uf.find(id) as usize] = true;
                    }
                }
                seen = band.start;
            }
            let margin = band.pieces.first().map_or(&[][..], |(s, positions)| {
                &self.segments[*s][positions.start.saturating_sub(w - 1)..positions.start]
            });
            Speculation {
                uf,
                linked,
                early: early.clone(),
                margin,
                seen: 0,
                events: Vec::new(),
            }
        };
        let mut out: Vec<Speculation<'q>> = middle
            .iter()
            .map(|band| speculation(band, start.clone(), linked.clone()))
            .collect();
        out.push(speculation(last, start, linked));
        out
    }

    /// Replays `band`'s pairs against the real closure in `sink`, in scan
    /// order, with the band's `events`; returns the serial scan's counts
    /// for the band. Touches a record only to evaluate a deferred pair.
    fn fold(
        &self,
        band: &Band,
        events: &[(u64, Event)],
        ids: &[u32],
        sink: &mut PrunedSink<'_>,
    ) -> ScanCounts {
        let w = self.scan.window();
        let (mut comparisons, mut pruned) = (0u64, 0u64);
        let mut events = events.iter();
        let mut next = events.next();
        // The ordinal of the next event's pair; past every pair once none
        // is left.
        let at = |e: Option<&(u64, Event)>| e.map_or(u64::MAX, |e| e.0);
        for (s, positions) in &band.pieces {
            // The positions `WindowScan::band` visits, and the window
            // predecessors the first of them reaches back to.
            let from = positions.start.max(1);
            if from >= positions.end {
                continue;
            }
            let first = from.saturating_sub(w - 1);
            let names = &self.segments[*s][first..positions.end];
            let window_ids: Vec<u32> = names.iter().map(|&p| ids[p as usize]).collect();
            for i in from - first..names.len() {
                let b = window_ids[i];
                let mut j = (first + i).saturating_sub(w - 1) - first;
                let end = comparisons + (i - j) as u64;
                while j < i {
                    // While `b` has never been merged none of its pairs is
                    // connected: up to its next event they are pairs its
                    // band evaluated and found no match.
                    if !sink.merged(b) {
                        let skip_to = at(next).min(end);
                        j += (skip_to - comparisons) as usize;
                        comparisons = skip_to;
                        if j == i {
                            break;
                        }
                    }
                    let (a, old) = (window_ids[j], names[j]);
                    let event = (at(next) == comparisons).then(|| {
                        let e = next.expect("an event sits at this ordinal").1;
                        next = events.next();
                        e
                    });
                    // The serial scan's evaluation ordinal for this pair,
                    // should it be evaluated.
                    let evaluated = comparisons - pruned;
                    j += 1;
                    comparisons += 1;
                    if sink.connects(a, b) {
                        debug_assert!(
                            event != Some(Event::Matched),
                            "a band matched a pair its view cannot connect"
                        );
                        pruned += 1;
                        continue;
                    }
                    let matched = match event {
                        Some(Event::Matched) => true,
                        Some(Event::Deferred) => self.scan.evaluate(
                            &self.records[old as usize],
                            &self.records[names[i] as usize],
                            evaluated,
                        ),
                        None => false,
                    };
                    if matched {
                        sink.join(a, b);
                    }
                }
            }
        }
        debug_assert!(next.is_none(), "every event belongs to a pair");
        ScanCounts {
            comparisons,
            rule_evaluations: comparisons - pruned,
            pairs_pruned: pruned,
        }
    }
}

/// What a band records for the fold about one of its pairs, by the pair's
/// ordinal in the band's scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The band evaluated the pair and it matched.
    Matched,
    /// Both classes reach before the band: only the fold can decide.
    Deferred,
}

/// The sink of a band after the first in a pruned scan: prunes what its
/// own view of the closure — the pass-start closure plus its own matches
/// — connects, evaluates the rest, and defers a pair whose two classes
/// both have a member before the band's start (see the module docs).
struct Speculation<'p> {
    uf: UnionFind,
    /// As [`PrunedSink`]'s: whether a record id has ever been merged.
    linked: Vec<bool>,
    /// Per linked class root: whether a member lies before the band's
    /// start (its `reach` is below the start).
    early: Vec<bool>,
    /// The records before the band's start that its first positions reach
    /// back to, by index: the only singletons before the start it meets.
    margin: &'p [u32],
    /// Pairs seen so far: the next pair's ordinal.
    seen: u64,
    /// Matches and deferrals, in scan order.
    events: Vec<(u64, Event)>,
}

impl Speculation<'_> {
    fn deferred(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.1 == Event::Deferred)
            .count()
    }

    /// Whether record `id`'s class has a member before the band's start;
    /// `name` is its index.
    fn early(&mut self, id: u32, name: u32) -> bool {
        if self.linked[id as usize] {
            self.early[self.uf.find(id) as usize]
        } else {
            self.margin.contains(&name)
        }
    }
}

impl ScanSink for Speculation<'_> {
    #[inline]
    fn is_implied(&mut self, pair: &Candidate<'_>) -> bool {
        let ordinal = self.seen;
        self.seen += 1;
        let (a, b) = (pair.old.id.0, pair.new.id.0);
        // The entering record sits at or past the band's start: never
        // merged, nothing connects it and its class has nothing earlier.
        if !self.linked[b as usize] {
            return false;
        }
        let rb = self.uf.find(b);
        let early_a = if self.linked[a as usize] {
            let ra = self.uf.find(a);
            if ra == rb {
                return true;
            }
            self.early[ra as usize]
        } else {
            self.margin.contains(&pair.prev_at)
        };
        if early_a && self.early[rb as usize] {
            self.events.push((ordinal, Event::Deferred));
            return true;
        }
        false
    }

    #[inline]
    fn matched(&mut self, pair: &Candidate<'_>, _rule: u32) {
        self.events.push((self.seen - 1, Event::Matched));
        let (a, b) = (pair.old.id.0, pair.new.id.0);
        let early = self.early(a, pair.prev_at) | self.early(b, pair.new_at);
        self.uf.union(a, b);
        let root = self.uf.find(a);
        self.early[root as usize] = early;
        self.linked[a as usize] = true;
        self.linked[b as usize] = true;
    }
}

/// The sink of a band after the first in an unpruned scan: its matches by
/// record id, in scan order.
#[derive(Default)]
struct Collected(Vec<(u32, u32)>);

impl ScanSink for Collected {
    #[inline]
    fn matched(&mut self, pair: &Candidate<'_>, _rule: u32) {
        self.0.push((pair.old.id.0, pair.new.id.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_metrics::{MetricsRecorder, NoopObserver};
    use mp_record::RecordId;
    use mp_rules::EquationalTheory;
    use std::sync::Mutex;

    /// Matches records agreeing on at least two of last name, first name
    /// and city — not transitive, so passes and bands meet classes joined
    /// elsewhere — and logs every pair it is asked about, by record id.
    #[derive(Default)]
    struct Recording(Mutex<Vec<(u32, u32)>>);

    impl EquationalTheory for Recording {
        fn matches(&self, a: &Record, b: &Record) -> bool {
            self.0.lock().unwrap().push((a.id.0, b.id.0));
            let same = [
                a.last_name == b.last_name,
                a.first_name == b.first_name,
                a.city == b.city,
            ];
            same.iter().filter(|&&s| s).count() >= 2
        }
        fn name(&self) -> &str {
            "recording"
        }
    }

    impl Recording {
        /// The calls so far as an unordered multiset, and forgets them.
        fn take_sorted(&self) -> Vec<(u32, u32)> {
            let mut log = std::mem::take(&mut *self.0.lock().unwrap());
            log.sort_unstable();
            log
        }
    }

    /// Record `i` carries the three fields in base-3 digits of `codes[i]`
    /// and the id `ids(i)`.
    fn records(codes: &[u32], ids: impl Fn(usize) -> u32) -> Vec<Record> {
        let letter = |c: u32| ["A", "B", "C"][c as usize % 3].to_string();
        codes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut r = Record::empty(RecordId(ids(i)));
                r.last_name = letter(c).into();
                r.first_name = letter(c / 3).into();
                r.city = letter(c / 9).into();
                r
            })
            .collect()
    }

    /// The serial scan every band count must reproduce: one sink fed every
    /// segment in order.
    fn serial(
        scan: &WindowScan<'_>,
        records: &[Record],
        segments: &[&[u32]],
        uf: Option<&mut UnionFind>,
    ) -> (ScanCounts, PairSet) {
        let (mut counts, mut pairs) = (ScanCounts::default(), PairSet::new());
        match uf {
            Some(uf) => {
                let mut sink = PrunedSink::new(uf, &mut pairs);
                for seg in segments {
                    scan.band(records, seg, 0..seg.len(), &mut sink, &mut counts);
                }
            }
            None => {
                for seg in segments {
                    scan.band(records, seg, 0..seg.len(), &mut pairs, &mut counts);
                }
            }
        }
        (counts, pairs)
    }

    fn forest(uf: &UnionFind) -> Vec<u8> {
        let mut bytes = Vec::new();
        uf.encode_into(&mut bytes);
        bytes
    }

    proptest::proptest! {
        /// Every band count scans every pass — sorted (one segment) or
        /// clustered (several), pruned against a union-find carried across
        /// the passes or unpruned — exactly as the serial scan does: same
        /// counts, pairs, closure (to the forest's bytes) and theory calls,
        /// with each band's comparisons reported on their own.
        #[test]
        fn every_band_count_is_the_serial_scan(
            codes in proptest::collection::vec(0u32..27, 0..70),
            w in 2usize..=12,
            passes in proptest::collection::vec(0u32..64, 1..4),
            reversed_ids in 0u32..2,
        ) {
            let n = codes.len();
            let recs = records(&codes, |i| if reversed_ids == 1 { (n - 1 - i) as u32 } else { i as u32 });
            let field = |r: &Record, k: u32| match k % 3 {
                0 => r.last_name.clone(),
                1 => r.first_name.clone(),
                _ => r.city.clone(),
            };
            // Pass `p`: sorted on field `p`, and cut into clusters of
            // `spec / 2 % 8 + 1` positions when `spec` is odd.
            let orders: Vec<(Vec<u32>, usize)> = passes
                .iter()
                .enumerate()
                .map(|(p, &spec)| {
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    order.sort_by_key(|&i| field(&recs[i as usize], p as u32));
                    let cluster = if spec % 2 == 1 { (spec / 2 % 8 + 1) as usize } else { n.max(1) };
                    (order, cluster)
                })
                .collect();
            let theory = Recording::default();
            let scan = WindowScan::new(w, &theory, &NoopObserver);
            for prune in [true, false] {
                let mut want_uf = UnionFind::new(n);
                let want: Vec<_> = orders
                    .iter()
                    .map(|(order, cluster)| {
                        let segments: Vec<&[u32]> = order.chunks(*cluster).collect();
                        let uf = prune.then_some(&mut want_uf);
                        let (counts, pairs) = serial(&scan, &recs, &segments, uf);
                        (counts, pairs.sorted(), theory.take_sorted())
                    })
                    .collect();
                for bands in 1..=8 {
                    let mut uf = UnionFind::new(n);
                    for ((order, cluster), want) in orders.iter().zip(&want) {
                        let segments: Vec<&[u32]> = order.chunks(*cluster).collect();
                        let scanned = scan_in_bands(
                            &scan, &recs, &segments, prune.then_some(&mut uf), &NoopObserver, bands,
                        );
                        let per_band = &scanned.worker_comparisons;
                        proptest::prop_assert_eq!(per_band.len(), bands.min(n.max(1)));
                        proptest::prop_assert_eq!(per_band.iter().sum::<u64>(), scanned.counts.comparisons);
                        let got = (scanned.counts, scanned.pairs.sorted(), theory.take_sorted());
                        proptest::prop_assert_eq!(&got, want, "bands={} w={} prune={}", bands, w, prune);
                    }
                    proptest::prop_assert_eq!(forest(&uf), forest(&want_uf), "bands={}", bands);
                    proptest::prop_assert_eq!(uf.classes(), want_uf.clone().classes());
                }
            }
        }
    }

    #[test]
    fn a_pair_joined_only_by_an_earlier_band_is_deferred_and_pruned_unevaluated() {
        // Window 3 over six records in id order, two bands: 0..3 and 3..6.
        // An earlier pass joined 1 and 3; band 0 matches 1 with 2. Band 1's
        // pair (2, 3) is connected only through that match: its view holds
        // {1, 3} and a singleton 2, both before its start, so it defers the
        // pair and the fold prunes it.
        let recs = records(&[0, 1, 1, 1, 2, 0], |i| i as u32);
        struct SameLast(Mutex<Vec<(u32, u32)>>);
        impl EquationalTheory for SameLast {
            fn matches(&self, a: &Record, b: &Record) -> bool {
                self.0.lock().unwrap().push((a.id.0, b.id.0));
                a.last_name == b.last_name
            }
            fn name(&self) -> &str {
                "same-last"
            }
        }
        let theory = SameLast(Mutex::new(Vec::new()));
        let observer = MetricsRecorder::new().with_tracing();
        let scan = WindowScan::new(3, &theory, &observer);
        let order: Vec<u32> = (0..6).collect();
        let carried = || {
            let mut uf = UnionFind::new(6);
            uf.union(1, 3);
            uf
        };
        let mut uf = carried();
        let scanned = scan_in_bands(&scan, &recs, &[&order], Some(&mut uf), &observer, 2);

        let mut want_uf = carried();
        let (want_counts, want_pairs) = serial(&scan, &recs, &[&order], Some(&mut want_uf));
        assert_eq!(scanned.counts, want_counts);
        assert_eq!(
            want_counts,
            ScanCounts {
                comparisons: 9,
                rule_evaluations: 7,
                pairs_pruned: 2
            }
        );
        assert_eq!(scanned.pairs.sorted(), want_pairs.sorted());
        assert_eq!(scanned.pairs.sorted(), vec![(1, 2)]);
        assert_eq!(forest(&uf), forest(&want_uf));
        let log = theory.0.lock().unwrap().clone();
        assert_eq!(log.len(), 14, "seven evaluations per scan");
        assert!(
            !log.iter().any(|&(a, b)| (a.min(b), a.max(b)) == (2, 3)),
            "{log:?}"
        );

        let labels: Vec<(String, String)> = observer
            .drain_spans()
            .iter()
            .flat_map(|t| t.spans.iter())
            .map(|s| (s.name.to_string(), s.label.clone().unwrap_or_default()))
            .collect();
        assert!(
            labels.contains(&("scan_fold".into(), "deferred=1".into())),
            "{labels:?}"
        );
        assert!(
            labels.contains(&("window_scan".into(), "band=1".into())),
            "{labels:?}"
        );
    }

    #[test]
    fn band_ranges_cover_scan_positions_exactly_once() {
        for n in [0usize, 1, 2, 3, 10, 97] {
            for shards in 1..=8usize {
                let ranges = band_ranges(n, shards);
                assert_eq!(ranges.len(), shards);
                let mut next = 0usize;
                for range in &ranges {
                    assert_eq!(range.start, next, "gap/overlap at n={n} shards={shards}");
                    assert!(range.end >= range.start);
                    next = range.end;
                }
                assert_eq!(next, n, "positions 0..{n} not covered");
            }
        }
    }

    #[test]
    fn bands_cut_the_position_sequence_across_segments() {
        let (a, b, c) = ([0u32, 1, 2], [3u32], [4u32, 5, 6, 7]);
        let segments: [&[u32]; 3] = [&a, &b, &c];
        let lens = [0..3, 0..1, 0..4];
        let starts = |bands| {
            deal(&lens, bands)
                .iter()
                .map(|b| b.start)
                .collect::<Vec<_>>()
        };
        assert_eq!(starts(1), vec![0]);
        assert_eq!(starts(3), vec![0, 3, 6]);
        let three = deal(&lens, 3);
        assert_eq!(three[0].pieces, vec![(0, 0..3)]);
        assert_eq!(three[1].pieces, vec![(1, 0..1), (2, 0..2)]);
        assert_eq!(three[2].pieces, vec![(2, 2..4)]);
        // An empty range holds no position, so no band holds a piece of it.
        assert_eq!(
            deal(&[0..2, 5..5, 7..9], 2)
                .into_iter()
                .map(|b| b.pieces)
                .collect::<Vec<_>>(),
            vec![vec![(0, 0..2)], vec![(2, 7..9)]]
        );

        // A scan makes at most one band per position, and at least one.
        let recs = records(&[0, 1, 2, 3, 4, 5, 6, 7], |i| i as u32);
        let theory = Recording::default();
        let scan = WindowScan::new(3, &theory, &NoopObserver);
        let bands_of = |segments: &[&[u32]], bands| {
            scan_in_bands(&scan, &recs, segments, None, &NoopObserver, bands)
                .worker_comparisons
                .len()
        };
        assert_eq!(bands_of(&segments, 20), 8, "at most one band per position");
        assert_eq!(bands_of(&[], 4), 1);
    }
}
