//! What the layers program accumulates and hands back to the harness:
//! spans around every layer call, the metrics derived from them, the
//! cross-checks, and free-form notes.

use mp_ledger::json::Json;
use mp_ledger::span::{Recorder, SpanId};
use std::path::Path;
use std::time::Instant;

/// Accumulated results of one layers run.
pub struct Ledger {
    rec: Recorder,
    metrics: Vec<(String, String, f64)>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
}

impl Ledger {
    /// An empty ledger whose span clock starts now.
    pub fn new() -> Ledger {
        Ledger {
            rec: Recorder::new(true),
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Opens a top-level span that groups child spans.
    pub fn begin(&mut self, name: &str) -> SpanId {
        self.rec.begin(name, SpanId::ROOT, 0, 0)
    }

    /// Closes a span opened with [`Ledger::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.rec.end(id);
    }

    /// Runs `f` inside a top-level span; returns its result and seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.time_in(SpanId::ROOT, name, f)
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time_in<T>(&mut self, parent: SpanId, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.rec.begin(name, parent, 0, 0);
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.rec.end(span);
        (out, secs)
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics
            .push((name.to_string(), unit.to_string(), value));
    }

    /// Halves an already recorded metric (a span that timed two calls per item).
    pub fn halve(&mut self, name: &str) {
        let metric = self
            .metrics
            .iter_mut()
            .find(|m| m.0 == name)
            .expect("metric was recorded");
        metric.2 /= 2.0;
    }

    /// Records a cross-check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// Records a remark for the human report.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Writes everything as one JSON document to `out`.
    pub fn write(&self, out: &Path) -> Result<(), String> {
        let spans = self.rec.spans();
        let doc = Json::obj([
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|(name, unit, value)| {
                            Json::obj([
                                ("name", Json::Str(name.clone())),
                                ("unit", Json::Str(unit.clone())),
                                ("value", Json::Num(*value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|(what, ok)| {
                            Json::obj([("what", Json::Str(what.clone())), ("ok", Json::Bool(*ok))])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::Str(s.name.clone())),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(out, doc.to_string()).map_err(|e| format!("write {}: {e}", out.display()))
    }
}
