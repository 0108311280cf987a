//! Command line of the layers program (all flags are required; the harness
//! is the only caller).

use std::path::PathBuf;

/// Parsed arguments.
pub struct Args {
    /// The run's generated base file.
    pub base: PathBuf,
    /// The run's generated ingest file.
    pub ingest: PathBuf,
    /// A private copy of the store `mergepurge load` built from `base`.
    pub store: PathBuf,
    /// Scratch directory (created, then removed).
    pub work: PathBuf,
    /// The `--pairs-out` file `mergepurge dedupe` wrote for `base`.
    pub pairs: PathBuf,
    /// Where to write the JSON result.
    pub out: PathBuf,
    /// Window of every pass.
    pub window: usize,
    /// `native` or `dsl-compiled`.
    pub theory: String,
    /// External-sort memory budget, records.
    pub budget: usize,
    /// Ingest batches to apply in-process.
    pub batches: usize,
    /// Records per batch.
    pub batch_records: usize,
    /// The run's seed.
    pub seed: u64,
    /// The `dedupe` process wall time the harness measured, seconds.
    pub dedupe_s: f64,
}

impl Args {
    /// Parses `--flag value` pairs.
    pub fn parse(raw: Vec<String>) -> Result<Args, String> {
        let get = |name: &str| {
            raw.iter()
                .position(|a| a == name)
                .and_then(|i| raw.get(i + 1))
                .cloned()
                .ok_or_else(|| format!("{name} is required"))
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("invalid {name} value {v:?}"))
        }
        let args = Args {
            base: get("--base")?.into(),
            ingest: get("--ingest")?.into(),
            store: get("--store")?.into(),
            work: get("--work")?.into(),
            pairs: get("--pairs")?.into(),
            out: get("--out")?.into(),
            window: num("--window", get("--window")?)?,
            theory: get("--theory")?,
            budget: num("--budget", get("--budget")?)?,
            batches: num("--batches", get("--batches")?)?,
            batch_records: num("--batch-records", get("--batch-records")?)?,
            seed: num("--seed", get("--seed")?)?,
            dedupe_s: num("--dedupe-s", get("--dedupe-s")?)?,
        };
        if args.window < 2 || args.budget < 2 || args.batches == 0 || args.batch_records == 0 {
            return Err("--window and --budget must be at least 2, --batches and --batch-records at least 1".into());
        }
        Ok(args)
    }
}
