//! Prometheus text-format (version 0.0.4) exposition rendering.
//!
//! The build environment has no Prometheus client crate, and the format
//! is deliberately simple: `# HELP` / `# TYPE` comment lines followed by
//! `name{labels} value` samples. [`PromWriter`] renders exactly that,
//! including the cumulative-bucket re-encoding a Prometheus `histogram`
//! requires from mp-trace's log2 nanosecond histograms.
//!
//! ```
//! use mp_metrics::prom::PromWriter;
//!
//! let mut w = PromWriter::new();
//! w.counter("mp_comparisons_total", "Pair comparisons.", 42);
//! w.gauge("mp_queue_depth", "Jobs queued.", 3.0);
//! let text = w.finish();
//! assert!(text.contains("# TYPE mp_comparisons_total counter"));
//! assert!(text.contains("mp_comparisons_total 42"));
//! ```

use crate::HistogramSnapshot;

/// Incremental builder for one exposition document.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` sample value. Prometheus accepts any Go-parseable
/// float; integral values print without a fraction for readability.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&escape_label(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
    }

    /// Emits a monotonic counter (one unlabeled sample).
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value as f64);
    }

    /// Emits a gauge (one unlabeled sample).
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// Emits a gauge family: one sample per label set, one shared
    /// `HELP`/`TYPE` header.
    pub fn gauge_family(&mut self, name: &str, help: &str, samples: &[(Vec<(&str, &str)>, f64)]) {
        self.header(name, help, "gauge");
        for (labels, value) in samples {
            self.sample(name, labels, *value);
        }
    }

    /// Emits a counter family: one sample per label set (e.g. one per
    /// rule), one shared `HELP`/`TYPE` header.
    pub fn counter_family(&mut self, name: &str, help: &str, samples: &[(Vec<(&str, &str)>, u64)]) {
        self.header(name, help, "counter");
        for (labels, value) in samples {
            self.sample(name, labels, *value as f64);
        }
    }

    /// Emits a Prometheus `histogram` re-bucketed from a log2 nanosecond
    /// [`HistogramSnapshot`]: cumulative `_bucket{le="<seconds>"}` lines
    /// for every non-empty log2 bucket, the mandatory `le="+Inf"` bucket,
    /// and `_sum` (seconds) / `_count` samples.
    pub fn histogram_ns(&mut self, name: &str, help: &str, hist: &HistogramSnapshot) {
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        for &(lower_ns, n) in &hist.buckets {
            cumulative += n;
            // Inclusive upper bound of the log2 bucket starting at
            // `lower_ns`: 1 for the zero bucket, 2·lower − 1 otherwise.
            let upper_ns = if lower_ns == 0 { 1 } else { 2 * lower_ns - 1 };
            let le = format!("{}", upper_ns as f64 / 1e9);
            self.sample(&format!("{name}_bucket"), &[("le", &le)], cumulative as f64);
        }
        self.sample(
            &format!("{name}_bucket"),
            &[("le", "+Inf")],
            hist.count as f64,
        );
        self.sample(&format!("{name}_sum"), &[], hist.sum_ns as f64 / 1e9);
        self.sample(&format!("{name}_count"), &[], hist.count as f64);
    }

    /// The rendered exposition document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyHistogram;

    #[test]
    fn counters_and_gauges_render_headers_and_samples() {
        let mut w = PromWriter::new();
        w.counter("x_total", "Help text.", 7);
        w.gauge("y", "A gauge.", 1.5);
        let text = w.finish();
        assert!(text.contains("# HELP x_total Help text.\n# TYPE x_total counter\nx_total 7\n"));
        assert!(text.contains("# TYPE y gauge\ny 1.5\n"));
    }

    #[test]
    fn gauge_family_shares_one_header() {
        let mut w = PromWriter::new();
        w.gauge_family(
            "rate",
            "Rates.",
            &[
                (vec![("window", "1m")], 2.0),
                (vec![("window", "5m"), ("counter", "records")], 0.5),
            ],
        );
        let text = w.finish();
        assert_eq!(text.matches("# TYPE rate gauge").count(), 1);
        assert!(text.contains("rate{window=\"1m\"} 2\n"));
        assert!(text.contains("rate{window=\"5m\",counter=\"records\"} 0.5\n"));
    }

    #[test]
    fn counter_family_shares_one_header() {
        let mut w = PromWriter::new();
        w.counter_family(
            "rule_firings_total",
            "Per-rule firings.",
            &[(vec![("rule", "0")], 3), (vec![("rule", "1")], 0)],
        );
        let text = w.finish();
        assert_eq!(text.matches("# TYPE rule_firings_total counter").count(), 1);
        assert!(text.contains("rule_firings_total{rule=\"0\"} 3\n"));
        assert!(text.contains("rule_firings_total{rule=\"1\"} 0\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.gauge_family("g", "h", &[(vec![("k", "a\"b\\c\nd")], 1.0)]);
        assert!(w.finish().contains("g{k=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 1_000, 1_000_000] {
            h.record(ns);
        }
        let mut w = PromWriter::new();
        w.histogram_ns("lat_seconds", "Latency.", &h.snapshot());
        let text = w.finish();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_count 4\n"));
        // _sum is the nanosecond total in seconds.
        assert!(text.contains("lat_seconds_sum 0.0010013\n"), "{text}");
        // Bucket counts must be cumulative and monotone, ending at +Inf.
        let mut last = 0.0;
        let mut saw_inf = false;
        for line in text.lines().filter(|l| l.starts_with("lat_seconds_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be monotone: {line}");
            last = v;
            if line.contains("le=\"+Inf\"") {
                saw_inf = true;
                assert_eq!(v, 4.0);
            }
        }
        assert!(saw_inf);
    }

    #[test]
    fn empty_histogram_renders_only_inf_sum_count() {
        let h = LatencyHistogram::new();
        let mut w = PromWriter::new();
        w.histogram_ns("e", "Empty.", &h.snapshot());
        let text = w.finish();
        assert!(text.contains("e_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("e_sum 0\n"));
        assert!(text.contains("e_count 0\n"));
    }
}
