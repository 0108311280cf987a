//! Disk-resident sorted-neighborhood method.

use crate::runfile::RunReader;
use crate::sorter::ExternalSorter;
use crate::{ExternalConfig, ExternalOutcome};
use merge_purge::window::WindowScan;
use merge_purge::KeySpec;
use mp_closure::PairSet;
use mp_metrics::{span, span_labeled, Counter, NoopObserver, Phase, PipelineObserver};
use mp_record::Record;
use mp_rules::EquationalTheory;
use std::io;
use std::path::Path;
use std::time::Instant;

/// External sorted-neighborhood pass: external merge sort (key creation and
/// conditioning fused into run formation), then a streaming window scan
/// holding only `w` records in memory.
///
/// Total data passes: `1 (runs) + ceil(log_F(N/M)) (merges) + 1 (scan)` —
/// the paper's "2 + log N passes" (§3.5) with the log taken base-F over
/// runs.
#[derive(Debug, Clone)]
pub struct ExternalSnm {
    sorter: ExternalSorter,
    window: usize,
}

impl ExternalSnm {
    /// An external SNM pass.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2` or the config is degenerate.
    pub fn new(key: KeySpec, window: usize, config: ExternalConfig) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        ExternalSnm {
            sorter: ExternalSorter::new(key, config),
            window,
        }
    }

    /// Runs over the flat record file at `input`, with temporaries under
    /// `work_dir`. Conditioning is applied during run formation.
    pub fn run(
        &self,
        input: &Path,
        work_dir: &Path,
        theory: &dyn EquationalTheory,
    ) -> io::Result<ExternalOutcome> {
        self.run_observed(input, work_dir, theory, &NoopObserver)
    }

    /// Like [`ExternalSnm::run`], reporting external-sort statistics (run
    /// counts, bytes spilled, merge fan-in) and window-scan counters to
    /// `observer`.
    pub fn run_observed(
        &self,
        input: &Path,
        work_dir: &Path,
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> io::Result<ExternalOutcome> {
        let _run_span = span_labeled(observer, "run", || {
            format!("extsort {} w={}", self.sorter.key().name(), self.window)
        });
        let sorted = self.sorter.sort_observed(input, work_dir, true, observer)?;
        let mut io_stats = sorted.io;
        observer.add(Counter::RecordsKeyed, sorted.records as u64);

        // Final pass: streaming window scan over the sorted run.
        io_stats.sweeps += 1;
        let t_scan = Instant::now();
        let _scan_span = span(observer, "window_scan");
        let mut reader = RunReader::open(&sorted.path)?;
        let mut pairs = PairSet::new();
        let mut key = String::new();
        let next = |slot: &mut Record| {
            let more = reader.next_into(&mut key, slot)?;
            io_stats.records_read += u64::from(more);
            io::Result::Ok(more)
        };
        let counts = WindowScan::new(self.window, theory, observer).stream(next, &mut pairs)?;
        drop(_scan_span);
        observer.phase_ns(Phase::WindowScan, t_scan.elapsed().as_nanos() as u64);
        counts.report(observer);
        observer.add(Counter::Matches, pairs.len() as u64);
        observer.run_complete();

        let records = sorted.records;
        sorted.cleanup();
        Ok(ExternalOutcome {
            pairs,
            io: io_stats,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_record::io as rio;
    use mp_rules::NativeEmployeeTheory;
    use std::path::PathBuf;

    fn work_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-xsnm-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn pass_count_is_two_plus_merge_levels() {
        let dir = work_dir("passes");
        let db = DatabaseGenerator::new(GeneratorConfig::new(300).seed(6002)).generate();
        let input = dir.join("db.mp");
        rio::write_records(std::fs::File::create(&input).unwrap(), &db.records).unwrap();
        let n = db.records.len();
        let theory = NativeEmployeeTheory::new();

        // Everything fits: 1 run, no merges: 2 passes total.
        let fits = ExternalSnm::new(
            KeySpec::last_name_key(),
            5,
            ExternalConfig {
                memory_records: n + 1,
                fan_in: 16,
                ..ExternalConfig::default()
            },
        );
        assert_eq!(fits.run(&input, &dir, &theory).unwrap().io.data_passes(), 2);

        // Tiny memory, fan-in 2: 2 + ceil(log2(runs)) passes.
        let m = 20;
        let runs = n.div_ceil(m);
        let tiny = ExternalSnm::new(
            KeySpec::last_name_key(),
            5,
            ExternalConfig {
                memory_records: m,
                fan_in: 2,
                ..ExternalConfig::default()
            },
        );
        let expect = 2 + (runs as f64).log2().ceil() as u32;
        assert_eq!(
            tiny.run(&input, &dir, &theory).unwrap().io.data_passes(),
            expect
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
