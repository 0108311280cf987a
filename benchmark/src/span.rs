//! The harness's own span recorder. Spans are recorded around every call
//! into a layer and every CLI / wire operation *from the benchmark's
//! files* — nothing here hooks into the program. Spans stay in memory and
//! are dumped as Chrome trace-event JSON when the run ends.
//!
//! With the recorder disabled (an untraced run) every method is a no-op,
//! which is what "measured with tracing off" means for this harness.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer / operation name.
    pub name: String,
    /// Identifier shared by the spans of one request (0 for the run itself).
    pub run: u64,
    /// Display row in the trace viewer (one per harness thread).
    pub track: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; pass it to [`Recorder::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The "no parent" handle.
    pub const ROOT: SpanId = SpanId(None);
}

/// In-memory span store shared by the harness threads.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every method a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, mut span: Span) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicked thread");
        span.id = spans.len();
        spans.push(span);
        SpanId(Some(spans.len() - 1))
    }

    /// Opens a span now.
    pub fn begin(&self, name: &str, parent: SpanId, run: u64, track: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.ns_at(Instant::now());
        self.push(Span {
            id: 0,
            parent: parent.0,
            name: name.to_string(),
            run,
            track,
            start_ns: now,
            end_ns: now,
        })
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&self, id: SpanId) {
        if let (true, Some(i)) = (self.enabled, id.0) {
            let now = self.ns_at(Instant::now());
            self.spans
                .lock()
                .expect("span store poisoned by a panicked thread")[i]
                .end_ns = now;
        }
    }

    /// Records an interval measured elsewhere (a request timed by the load
    /// generator, or a span imported from the layers program).
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        run: u64,
        track: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        self.push(Span {
            id: 0,
            parent: parent.0,
            name: name.to_string(),
            run,
            track,
            start_ns,
            end_ns,
        })
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicked thread")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children clipped to the parent, overlapping
/// children counted once). Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time per span name, sorted by descending time — the ledger's
/// "where did the wall go" table.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64)> {
    let selfs = self_times_ns(spans);
    let mut totals: Vec<(String, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(selfs) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some(entry) => entry.1 += t,
            None => totals.push((s.name.clone(), t)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    totals
}

/// Chrome trace-event JSON (complete events, microsecond timestamps);
/// loads in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.track))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("run", Json::Num(s.run as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            run: 0,
            track: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            // Overlaps `a` on [30, 40): that stretch is covered only once.
            span(2, Some(0), "b", 30, 60),
            // Sticks out past the parent: clipped to [90, 100).
            span(3, Some(0), "c", 90, 130),
            span(4, Some(1), "a.inner", 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 40, 10]);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![
            span(0, None, "root", 0, 50),
            span(1, Some(0), "x", 0, 20),
            span(2, Some(0), "y", 20, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn by_name_totals_are_sorted_descending() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "scan", 0, 30),
            span(2, Some(0), "sort", 30, 40),
            span(3, Some(0), "scan", 40, 90),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![
                ("scan".to_string(), 80),
                ("root".to_string(), 10),
                ("sort".to_string(), 10)
            ]
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        let id = rec.begin("x", SpanId::ROOT, 0, 0);
        rec.end(id);
        rec.record("y", id, 1, 0, 0, 5);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn enabled_recorder_links_parents_and_dumps_chrome_json() {
        let rec = Recorder::new(true);
        let outer = rec.begin("outer", SpanId::ROOT, 0, 1);
        let inner = rec.begin("inner", outer, 7, 1);
        rec.end(inner);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = Json::parse(&chrome_trace(&spans)).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            2
        );
    }
}
