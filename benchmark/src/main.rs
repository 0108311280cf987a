//! `mp-ledger` — the one command of the ledger benchmark.
//!
//! ```text
//! mp-ledger                       every workload, untraced then traced; all metrics
//! mp-ledger --repeat 5            five untraced sets; agree/disagree table against the bounds
//! mp-ledger --smoke               every size / 20 — checks the harness, numbers not comparable
//! mp-ledger --workload W --seed N --seconds S --trace 0|1
//!                                 one run; last stdout line is the JSON result (driver mode)
//! ```
//!
//! Run it from the repository root (`cargo run --release --manifest-path
//! benchmark/Cargo.toml --`): it builds `mergepurge` from the checkout it
//! stands in, and for traced runs the `benchmark/layers` program.

use mp_ledger::json::Json;
use mp_ledger::pipeline::{self, Env, Metric, RunOutput, RunSpec};
use mp_ledger::report::{self, Agreement, Manifest};
use mp_ledger::span;
use mp_ledger::workload::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const DEFAULT_SEED: u64 = 11;
const SMOKE_DIVISOR: usize = 20;

struct Args(Vec<String>);

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("invalid {name} value {v:?}")))
            .transpose()
    }
}

/// Builds a binary with cargo, offline, and returns where it landed.
fn build(manifest: Option<&str>, bin: &str, default_target: &str) -> Result<PathBuf, String> {
    let started = Instant::now();
    let mut cmd = Command::new("cargo");
    cmd.args(["build", "--release", "--offline", "--quiet", "--bin", bin]);
    if let Some(m) = manifest {
        cmd.args(["--manifest-path", m]);
    }
    let status = cmd.status().map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {bin} failed"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| default_target.to_string());
    let path = Path::new(&target).join("release").join(bin);
    if !path.is_file() {
        return Err(format!("{} was not produced by the build", path.display()));
    }
    eprintln!(
        "built {} in {:.1}s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(path)
}

fn environment(seed: u64, traced: bool) -> Result<Env, String> {
    let bin = build(None, "mergepurge", "target")?;
    let layers_bin = traced
        .then(|| {
            build(
                Some("benchmark/layers/Cargo.toml"),
                "mp-ledger-layers",
                "benchmark/layers/target",
            )
        })
        .transpose()?;
    let expected = if seed == DEFAULT_SEED {
        let text = std::fs::read_to_string("benchmark/expected/seed11.json")
            .map_err(|e| format!("benchmark/expected/seed11.json: {e}"))?;
        Some(Json::parse(&text).map_err(|e| format!("benchmark/expected/seed11.json: {e}"))?)
    } else {
        None
    };
    Ok(Env {
        bin,
        layers_bin,
        out_root: PathBuf::from("benchmark/out"),
        expected,
    })
}

/// Runs one workload once; a traced run also leaves its Chrome trace behind.
fn run_once(env: &Env, spec: &RunSpec) -> Result<RunOutput, String> {
    let (out, recorder) = pipeline::run(env, spec)?;
    if spec.trace {
        let spans = recorder.spans();
        let path = env
            .out_root
            .join(format!("trace-{}.json", spec.workload.name));
        std::fs::create_dir_all(&env.out_root).map_err(|e| e.to_string())?;
        std::fs::write(&path, span::chrome_trace(&spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "wrote {} ({} spans); self time by span name:",
            path.display(),
            spans.len()
        );
        for (name, ns) in span::self_time_by_name(&spans).into_iter().take(12) {
            println!("  {:<28} {:>10.3} s", name, ns as f64 / 1e9);
        }
    }
    Ok(out)
}

/// Median over the timing metrics of how much slower the traced run's
/// end-to-end numbers were, percent.
fn trace_overhead_pct(untraced: &[Metric], traced: &[Metric]) -> f64 {
    let ratios: Vec<f64> = untraced
        .iter()
        .filter(|m| matches!(m.unit.as_str(), "s" | "ms") && m.name != "setup_s")
        .filter_map(|u| {
            let t = traced.iter().find(|t| t.name == u.name)?;
            Some((t.value - u.value) / u.value * 100.0)
        })
        .collect();
    mp_ledger::stats::median(&ratios)
}

fn real_main() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    let manifest_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let manifest = Manifest::parse(&manifest_text)?;
    if !manifest
        .workloads
        .iter()
        .eq(workload::WORKLOADS.iter().map(|w| w.name))
    {
        return Err(format!(
            "BENCHMARK.json names the workloads {:?}, the harness has {:?}",
            manifest.workloads,
            workload::WORKLOADS.map(|w| w.name)
        ));
    }
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let smoke = args.has("--smoke");
    let seconds = args.parsed::<f64>("--seconds")?.unwrap_or(if smoke {
        manifest.run_seconds / 12.0
    } else {
        manifest.run_seconds
    });
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let shape = |w: &Workload| if smoke { w.scaled(SMOKE_DIVISOR) } else { *w };
    let selected: Vec<Workload> = match args.get("--workload") {
        Some(name) => vec![shape(
            workload::find(name).ok_or(format!("unknown workload {name:?}"))?,
        )],
        None => workload::WORKLOADS.iter().map(shape).collect(),
    };
    let spec = |w: Workload, trace: bool| RunSpec {
        workload: w,
        seed,
        seconds,
        trace,
        smoke,
    };
    if smoke {
        println!("SMOKE RUN: every size divided by {SMOKE_DIVISOR}; numbers are NOT comparable to any other run");
    }

    // Driver mode: one run, the JSON result as the last line.
    if let (Some(_), Some(trace)) = (args.get("--workload"), args.parsed::<u8>("--trace")?) {
        let traced = trace != 0;
        let env = environment(seed, traced)?;
        let out = run_once(&env, &spec(selected[0], traced))?;
        let (title, metrics, declared) = if traced {
            (
                "per-layer metrics (traced run)",
                &out.layers,
                &manifest.per_layer,
            )
        } else {
            (
                "end-to-end metrics (tracing off)",
                &out.e2e,
                &manifest.end_to_end,
            )
        };
        report::print_metrics(
            &format!("{} seed {seed}: {title}", selected[0].name),
            metrics,
        );
        report::print_tally(&out);
        let mismatch = report::undeclared_or_missing(declared, metrics);
        for m in &mismatch {
            println!("  MANIFEST MISMATCH: {m}");
        }
        println!("{}", report::result_line(&out, metrics));
        return Ok(out.tally.failed == 0 && mismatch.is_empty());
    }

    // Repeat mode: N untraced sets of the same code, judged against the bounds.
    if let Some(sets) = args.parsed::<usize>("--repeat")? {
        if sets < 2 {
            return Err("--repeat needs at least 2 sets".into());
        }
        let env = environment(seed, false)?;
        let mut rows: Vec<Agreement> = Vec::new();
        let mut clean = true;
        for set in 0..sets {
            for w in &selected {
                let out = run_once(&env, &spec(*w, false))?;
                report::print_metrics(
                    &format!("set {} of {sets}, {} seed {seed}", set + 1, w.name),
                    &out.e2e,
                );
                report::print_tally(&out);
                clean &= out.tally.failed == 0;
                for d in &manifest.end_to_end {
                    let value = out
                        .e2e
                        .iter()
                        .find(|m| m.name == d.name)
                        .ok_or(format!("{} not measured", d.name))?
                        .value;
                    match rows
                        .iter_mut()
                        .find(|r| r.workload == w.name && r.declared.name == d.name)
                    {
                        Some(row) => row.values.push(value),
                        None => rows.push(Agreement {
                            workload: w.name.to_string(),
                            declared: d.clone(),
                            values: vec![value],
                        }),
                    }
                }
            }
        }
        let agreed = report::print_agreement(&rows);
        println!(
            "{}",
            if agreed {
                "every metric agrees within its bound"
            } else {
                "SOME METRICS DISAGREE"
            }
        );
        return Ok(clean && agreed);
    }

    // Suite mode: every selected workload, untraced then traced.
    let env = environment(seed, true)?;
    let mut clean = true;
    for w in &selected {
        let untraced = run_once(&env, &spec(*w, false))?;
        report::print_metrics(
            &format!("{} seed {seed}: end-to-end metrics (tracing off)", w.name),
            &untraced.e2e,
        );
        report::print_tally(&untraced);
        let traced = run_once(&env, &spec(*w, true))?;
        report::print_metrics(
            &format!("{} seed {seed}: per-layer metrics (traced run)", w.name),
            &traced.layers,
        );
        println!(
            "  {:<28} {:>14.4} %      (traced vs untraced end-to-end timings)",
            "trace_overhead_pct",
            trace_overhead_pct(&untraced.e2e, &traced.e2e)
        );
        report::print_tally(&traced);
        let mut mismatch = report::undeclared_or_missing(&manifest.end_to_end, &untraced.e2e);
        mismatch.extend(report::undeclared_or_missing(
            &manifest.per_layer,
            &traced.layers,
        ));
        for m in &mismatch {
            println!("  MANIFEST MISMATCH: {m}");
        }
        clean &= untraced.tally.failed == 0 && traced.tally.failed == 0 && mismatch.is_empty();
    }
    println!(
        "{}",
        if clean {
            "all outputs correct"
        } else {
            "WRONG OUTPUTS OR FAILED OPERATIONS - see above"
        }
    );
    Ok(clean)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mp-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
