//! Printing results: the human table, the one-line JSON result the driver
//! reads, and the `--repeat` agree/disagree comparison against the bounds
//! fixed in `BENCHMARK.json`.

use crate::json::Json;
use crate::pipeline::{Metric, RunOutput};
use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the reference median by which it may get worse
    /// (`None` for per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness itself uses.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// `run_seconds`.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Declared end-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Declared per-layer metrics.
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    /// Parses the manifest text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json has no {key}"))?
                .iter()
                .map(|m| {
                    Some(Declared {
                        name: m.get("name")?.as_str()?.to_string(),
                        unit: m.get("unit")?.as_str()?.to_string(),
                        lower_is_better: m.get("better")?.as_str()? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or(format!("malformed metric under {key}"))
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_array)
                .ok_or("no workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// Prints `metrics` one per line: name, value, unit, sample count and range.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        if m.n > 1 {
            println!(
                "  {:<width$}  {:>14.4} {:<6} (n={}, min {:.4}, max {:.4})",
                m.name, m.value, m.unit, m.n, m.min, m.max
            );
        } else {
            println!("  {:<width$}  {:>14.4} {:<6}", m.name, m.value, m.unit);
        }
    }
}

/// Prints what a run attempted, what failed and any remarks.
pub fn print_tally(out: &RunOutput) {
    let t = &out.tally;
    println!(
        "  failed_share {:.6} ratio ({} failed of {} attempted)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for f in &t.failures {
        println!("  FAILED: {f}");
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
}

/// The last line of a driver-mode run: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(out: &RunOutput, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(out.tally.failed == 0)),
        ("attempted", Json::Num(out.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(out.tally.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// Names declared in the manifest but missing from a run, and the reverse.
pub fn undeclared_or_missing(declared: &[Declared], measured: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    for d in declared {
        if !measured.iter().any(|m| m.name == d.name) {
            problems.push(format!("declared but not measured: {}", d.name));
        }
    }
    for m in measured {
        if !declared.iter().any(|d| d.name == m.name) {
            problems.push(format!("measured but not declared: {}", m.name));
        }
    }
    problems
}

/// How far `value` is worse than `reference`, as a share of the reference
/// (negative when it is better).
pub fn worse_by(declared: &Declared, reference: f64, value: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    let change = (value - reference) / reference.abs();
    if declared.lower_is_better {
        change
    } else {
        -change
    }
}

/// End-to-end metrics that are pure functions of the generated input. For a
/// fixed seed every run must reproduce them to the last digit; the bound
/// `BENCHMARK.json` gives them only absorbs their variation between seeds.
pub const EXACT: [&str; 3] = [
    "percent_detected",
    "percent_precision",
    "store_bytes_per_input_byte",
];

/// One row of the `--repeat` table: a metric on a workload across sets.
#[derive(Debug, Clone)]
pub struct Agreement {
    /// Workload name.
    pub workload: String,
    /// The declared metric.
    pub declared: Declared,
    /// The metric's value in every set, in run order.
    pub values: Vec<f64>,
}

impl Agreement {
    /// Worst excursion of any later set beyond the first, in the worse
    /// direction, as a share of the first.
    pub fn worst(&self) -> f64 {
        self.values[1..]
            .iter()
            .map(|&v| worse_by(&self.declared, self.values[0], v))
            .fold(0.0, f64::max)
    }

    /// Whether every later set stayed within the metric's bound of the
    /// first; an [`EXACT`] metric must repeat it exactly.
    pub fn agrees(&self) -> bool {
        if EXACT.contains(&self.declared.name.as_str()) {
            return self.values.iter().all(|&v| v == self.values[0]);
        }
        self.worst() <= self.declared.bound.unwrap_or(f64::INFINITY)
    }
}

/// Prints the agree/disagree table; returns whether every row agreed.
pub fn print_agreement(rows: &[Agreement]) -> bool {
    println!(
        "{:<12} {:<28} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "worst", "bound"
    );
    let mut all = true;
    for r in rows {
        let (q1, q3) = stats::quartiles(&r.values);
        let ok = r.agrees();
        all &= ok;
        println!(
            "{:<12} {:<28} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.declared.name,
            stats::median(&r.values),
            q1,
            q3,
            stats::spread(&r.values) * 100.0,
            r.worst() * 100.0,
            r.declared.bound.unwrap_or(0.0) * 100.0,
            if ok { "agree" } else { "DISAGREE" }
        );
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Tally;

    fn declared(name: &str, lower: bool, bound: f64) -> Declared {
        Declared {
            name: name.into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn manifest_is_read_with_bounds_and_directions() {
        let m = Manifest::parse(
            r#"{"command":["x"],"paths":["benchmark"],"run_seconds":24,
                "workloads":[{"name":"a","why":"."},{"name":"b","why":"."}],
                "end_to_end":[{"name":"t_s","unit":"s","better":"lower","bound":0.1},
                              {"name":"hit","unit":"%","better":"higher","bound":0.01}],
                "per_layer":[{"name":"l.x","unit":"ns","better":"lower"}]}"#,
        )
        .unwrap();
        assert_eq!(m.run_seconds, 24.0);
        assert_eq!(m.workloads, ["a", "b"]);
        assert_eq!(m.end_to_end[0], declared("t_s", true, 0.1));
        assert!(!m.end_to_end[1].lower_is_better);
        assert_eq!(m.per_layer[0].bound, None);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(&declared("t", true, 0.1), 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(&declared("t", true, 0.1), 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(&declared("r", false, 0.1), 10.0, 9.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn agreement_judges_later_sets_against_the_first() {
        let row = |values: &[f64]| Agreement {
            workload: "w".into(),
            declared: declared("t_s", true, 0.05),
            values: values.to_vec(),
        };
        assert!(row(&[10.0, 10.4, 9.0]).agrees());
        assert!(!row(&[10.0, 10.6]).agrees());
        // Exact metrics agree only when they repeat exactly, whatever their bound.
        let exact = |values: &[f64]| Agreement {
            declared: declared("percent_detected", false, 0.01),
            ..row(values)
        };
        assert!(exact(&[86.5, 86.5, 86.5]).agrees());
        assert!(!exact(&[86.5, 86.5, 86.6]).agrees());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let out = RunOutput {
            e2e: vec![Metric::exact("setup_s", "s", 0.8127)],
            layers: vec![],
            tally: Tally {
                attempted: 1000,
                failed: 0,
                failures: vec![],
            },
            notes: vec![],
        };
        let line = result_line(&out, &out.e2e);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    #[test]
    fn declared_and_measured_names_must_coincide() {
        let d = vec![declared("a", true, 0.1), declared("b", true, 0.1)];
        let m = vec![Metric::exact("a", "s", 1.0), Metric::exact("c", "s", 1.0)];
        assert_eq!(undeclared_or_missing(&d, &m).len(), 2);
        assert!(undeclared_or_missing(&d[..1], &m[..1]).is_empty());
    }
}
