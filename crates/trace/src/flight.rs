//! In-memory flight recorder: a bounded ring of recent per-batch span
//! sets, retained inside a live process for after-the-fact latency
//! forensics.
//!
//! A one-shot CLI run drains its [`TraceCollector`](crate::TraceCollector)
//! once at exit; a long-running daemon cannot — by the time someone asks
//! "why was that batch slow?", the spans would be gone. The
//! [`FlightRecorder`] keeps them: after each unit of work (a batch), the
//! owner drains the collector (cheap — the per-thread track buffers are
//! reused across drains) and deposits the resulting [`TrackSpans`] here
//! under that batch's `trace_id`. The ring holds the last
//! [`capacity`](FlightRecorder::capacity) unpinned entries; entries
//! *pinned* at record time (e.g. batches over a slow-batch threshold)
//! survive ring eviction in a second bounded region, so an incident stays
//! inspectable even after traffic has churned the ring.
//!
//! [`FlightRecorder::chrome_json`] merges everything retained into one
//! Chrome trace-event document on a shared timeline (all entries come
//! from the same collector epoch), one lane per recording thread —
//! loadable in Perfetto exactly like a `--trace` file.

use crate::chrome::chrome_trace_json;
use crate::span::{SpanRecord, TrackSpans};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Default number of unpinned batch entries retained (and the bound on
/// pinned entries, counted separately).
pub const DEFAULT_CAPACITY: usize = 64;

/// One recorded unit of work: the spans every thread produced for it.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// The process-unique trace id the coordinator minted for this batch.
    pub trace_id: String,
    /// The batch's journal sequence number (0 for non-batch entries such
    /// as startup replay).
    pub seq: u64,
    /// Whether the entry is pinned (exempt from ring eviction).
    pub pinned: bool,
    /// Per-thread spans, as drained from the collector.
    pub tracks: Vec<TrackSpans>,
}

/// Bounded ring of recent [`FlightEntry`]s plus a bounded pinned region.
///
/// Locking: one mutex around the whole ring, taken once per recorded
/// batch and once per dump. Recording happens on the single engine
/// worker thread; dumps come from scrape threads — contention is one
/// lock hand-off per batch, never on the span hot path (spans go through
/// the collector's per-thread buffers first).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Entries in record order; pinned ones are exempt from the unpinned
    /// ring bound but counted against the same capacity separately.
    entries: VecDeque<FlightEntry>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` unpinned entries (and up to
    /// `capacity` pinned ones on top).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs room for one entry");
        FlightRecorder {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The unpinned-entry bound this recorder was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deposits one batch's drained tracks. Entries with no spans are
    /// dropped silently (an idle drain records nothing). When the ring is
    /// full the oldest *unpinned* entry is evicted; when the pinned
    /// region is also full, the oldest pinned entry goes too, so memory
    /// stays bounded no matter how many batches trip the slow threshold.
    pub fn record(
        &self,
        trace_id: impl Into<String>,
        seq: u64,
        pinned: bool,
        tracks: Vec<TrackSpans>,
    ) {
        if tracks.iter().all(|t| t.spans.is_empty()) {
            return;
        }
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        inner.entries.push_back(FlightEntry {
            trace_id: trace_id.into(),
            seq,
            pinned,
            tracks,
        });
        let over_unpinned = inner
            .entries
            .iter()
            .filter(|e| !e.pinned)
            .count()
            .saturating_sub(self.capacity);
        for _ in 0..over_unpinned {
            if let Some(idx) = inner.entries.iter().position(|e| !e.pinned) {
                inner.entries.remove(idx);
            }
        }
        let over_pinned = inner
            .entries
            .iter()
            .filter(|e| e.pinned)
            .count()
            .saturating_sub(self.capacity);
        for _ in 0..over_pinned {
            if let Some(idx) = inner.entries.iter().position(|e| e.pinned) {
                inner.entries.remove(idx);
            }
        }
    }

    /// Entries currently retained (unpinned + pinned).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .entries
            .len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pinned entries currently retained.
    pub fn pinned_len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .entries
            .iter()
            .filter(|e| e.pinned)
            .count()
    }

    /// Trace ids of every retained entry, oldest first.
    pub fn trace_ids(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .entries
            .iter()
            .map(|e| e.trace_id.clone())
            .collect()
    }

    /// Clones every retained entry, oldest first (for reports/tests).
    pub fn entries(&self) -> Vec<FlightEntry> {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .entries
            .iter()
            .cloned()
            .collect()
    }

    /// Merges every retained entry into one Chrome trace-event document.
    ///
    /// All entries were drained from the same collector, so their
    /// timestamps share one epoch and one timeline; spans are regrouped
    /// by *thread name* (one Perfetto lane per named worker — e.g. one
    /// per `pass-P-band-K` scan thread, even though each batch's scoped
    /// threads register fresh track ids) and sorted by start time within
    /// each lane.
    pub fn chrome_json(&self) -> String {
        let merged = self.merged_tracks();
        chrome_trace_json(&merged)
    }

    /// The retained spans regrouped into one [`TrackSpans`] per thread
    /// name; each lane keeps the smallest track id it has seen so lane
    /// order is registration order. Unnamed threads fall back to their
    /// track-unique `thread-<track>` names and so never merge.
    pub fn merged_tracks(&self) -> Vec<TrackSpans> {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        // thread name -> (lane id, spans)
        let mut by_name: Vec<(u32, String, Vec<SpanRecord>)> = Vec::new();
        for entry in &inner.entries {
            for t in &entry.tracks {
                match by_name
                    .iter_mut()
                    .find(|(_, name, _)| *name == t.thread_name)
                {
                    Some((lane, _, spans)) => {
                        *lane = (*lane).min(t.track);
                        spans.extend(t.spans.iter().cloned());
                    }
                    None => by_name.push((t.track, t.thread_name.clone(), t.spans.clone())),
                }
            }
        }
        drop(inner);
        by_name.sort_by_key(|(track, _, _)| *track);
        by_name
            .into_iter()
            .map(|(track, thread_name, mut spans)| {
                spans.sort_by_key(|s| (s.start_ns, s.depth));
                TrackSpans {
                    track,
                    thread_name,
                    spans,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceCollector;

    fn tracks_with(tracer: &TraceCollector, name: &'static str, label: String) -> Vec<TrackSpans> {
        {
            let _s = tracer.span_labeled(name, label);
        }
        tracer.drain()
    }

    #[test]
    fn ring_retains_the_last_k_unpinned_entries() {
        let tracer = TraceCollector::new();
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            let tracks = tracks_with(&tracer, "batch", format!("seq={i}"));
            rec.record(format!("t{i}"), i, false, tracks);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.trace_ids(), ["t2", "t3", "t4"]);
    }

    #[test]
    fn pinned_entries_survive_ring_eviction() {
        let tracer = TraceCollector::new();
        let rec = FlightRecorder::new(2);
        let tracks = tracks_with(&tracer, "batch", "slow".into());
        rec.record("slow", 1, true, tracks);
        for i in 2..8u64 {
            let tracks = tracks_with(&tracer, "batch", format!("seq={i}"));
            rec.record(format!("t{i}"), i, false, tracks);
        }
        assert_eq!(rec.pinned_len(), 1);
        assert!(rec.trace_ids().contains(&"slow".to_string()));
        assert_eq!(rec.len(), 3, "2 unpinned + 1 pinned");
    }

    #[test]
    fn pinned_region_is_bounded_too() {
        let tracer = TraceCollector::new();
        let rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            let tracks = tracks_with(&tracer, "batch", format!("seq={i}"));
            rec.record(format!("p{i}"), i, true, tracks);
        }
        assert_eq!(rec.pinned_len(), 2, "oldest pinned entries evicted");
        assert_eq!(rec.trace_ids(), ["p3", "p4"]);
    }

    #[test]
    fn empty_drains_are_not_recorded() {
        let rec = FlightRecorder::new(4);
        rec.record("empty", 1, false, Vec::new());
        let tracer = TraceCollector::new();
        rec.record("no-spans", 2, false, tracer.drain());
        assert!(rec.is_empty());
    }

    #[test]
    fn chrome_dump_merges_entries_onto_one_lane_per_thread() {
        let tracer = TraceCollector::new();
        let rec = FlightRecorder::new(8);
        for i in 0..3u64 {
            {
                let _b = tracer.span_labeled("batch", format!("trace=t{i}"));
                std::thread::scope(|scope| {
                    for _ in 0..2 {
                        let tracer = &tracer;
                        scope.spawn(move || {
                            let _s = tracer.span("shard_ingest");
                        });
                    }
                });
            }
            rec.record(format!("t{i}"), i, false, tracer.drain());
        }
        let json = rec.chrome_json();
        // Scoped worker threads re-register per scope, so lane count is
        // at least main + 2; each lane gets exactly one metadata event.
        let lanes = json.matches("\"ph\":\"M\"").count();
        assert!(lanes >= 3, "expected >= 3 lanes, got {lanes}:\n{json}");
        assert_eq!(json.matches("\"name\":\"batch\"").count(), 3);
        assert_eq!(json.matches("\"name\":\"shard_ingest\"").count(), 6);
        for i in 0..3 {
            assert!(json.contains(&format!("trace=t{i}")));
        }
    }

    #[test]
    fn named_worker_threads_share_one_lane_across_entries() {
        let tracer = TraceCollector::new();
        let rec = FlightRecorder::new(8);
        for i in 0..3u64 {
            std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .name("shard-0".into())
                    .spawn_scoped(scope, || {
                        let _s = tracer.span("shard_ingest");
                    })
                    .unwrap();
            });
            rec.record(format!("t{i}"), i, false, tracer.drain());
        }
        let merged = rec.merged_tracks();
        assert_eq!(merged.len(), 1, "same-named threads merge onto one lane");
        assert_eq!(merged[0].thread_name, "shard-0");
        assert_eq!(merged[0].spans.len(), 3);
    }

    #[test]
    fn merged_tracks_sort_spans_by_start_time() {
        let tracer = TraceCollector::new();
        let rec = FlightRecorder::new(8);
        for i in 0..2u64 {
            let tracks = tracks_with(&tracer, "batch", format!("seq={i}"));
            rec.record(format!("t{i}"), i, false, tracks);
        }
        let merged = rec.merged_tracks();
        assert_eq!(merged.len(), 1, "one lane for the single test thread");
        let starts: Vec<u64> = merged[0].spans.iter().map(|s| s.start_ns).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
