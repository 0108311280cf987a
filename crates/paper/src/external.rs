//! The disk-resident methods whose data passes §3.5 compares: the
//! sorted-neighborhood method over an external merge sort, and the
//! clustering method's "approximately only 2 passes" alternative.

use crate::histogram::KeyHistogram;
use crate::partition::RangePartition;
use merge_purge::key::truncate_chars as truncate;
use merge_purge::window::WindowScan;
use merge_purge::{radix_order_by, window_scan, KeySpec};
use mp_closure::PairSet;
use mp_extsort::runfile::{RunReader, RunWriter};
use mp_extsort::sorter::TempFile;
use mp_extsort::{ExternalConfig, ExternalSorter, IoStats};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, Phase, PipelineObserver};
use mp_record::{io as rio, Record, RecordId};
use mp_rules::EquationalTheory;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;
use std::time::Instant;

/// Result of an external merge/purge pass.
#[derive(Debug)]
pub struct ExternalOutcome {
    /// Deduplicated matching pairs (same semantics as the in-memory
    /// engines).
    pub pairs: PairSet,
    /// Measured I/O accounting.
    pub io: IoStats,
    /// Number of records processed.
    pub records: usize,
}

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

/// External clustering pass.
///
/// Pass 1 streams the input, conditions, extracts keys, and scatters each
/// record into one of `C` cluster files by histogram range partition; pass
/// 2 loads each cluster (which must fit in the memory budget `M`, the
/// paper's premise: "we desire a cluster to be main memory based"), sorts
/// it on the fixed-size cluster key, and window-scans it. The partition
/// comes from a histogram computed on a bounded sample — the paper's
/// "gathered off-line" step — so the whole method is two data passes
/// regardless of N.
#[derive(Debug, Clone)]
pub struct ExternalClustering {
    key: KeySpec,
    clusters: usize,
    histogram_prefix: usize,
    cluster_key_len: usize,
    window: usize,
    config: ExternalConfig,
    /// Records sampled for the offline histogram.
    sample_size: usize,
}

impl ExternalClustering {
    /// An external clustering pass with the paper's defaults (3-letter
    /// histogram space, 12-character fixed cluster key).
    ///
    /// # Panics
    ///
    /// Panics when `window < 2` or `clusters == 0`.
    pub fn new(key: KeySpec, clusters: usize, window: usize, config: ExternalConfig) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        assert!(clusters >= 1, "need at least one cluster");
        ExternalClustering {
            key,
            clusters,
            histogram_prefix: 3,
            cluster_key_len: 12,
            window,
            config,
            sample_size: 10_000,
        }
    }

    /// Runs over the flat record file at `input`, temporaries under
    /// `work_dir`; the cluster files are gone when it returns, on every
    /// path.
    ///
    /// # Errors
    ///
    /// Besides I/O failures, fails with `InvalidData` naming the cluster
    /// and the budget when a cluster holds more than
    /// `config.memory_records` records.
    pub fn run(
        &self,
        input: &Path,
        work_dir: &Path,
        theory: &dyn EquationalTheory,
    ) -> io::Result<ExternalOutcome> {
        std::fs::create_dir_all(work_dir)?;
        let mut io_stats = IoStats::default();
        let nicknames = mp_record::NicknameTable::standard();

        // Offline: histogram from a bounded sample (not counted as a data
        // pass, matching the paper's accounting).
        let partition = self.sample_partition(input, &nicknames)?;

        // Pass 1: scatter into cluster files.
        io_stats.sweeps += 1;
        let pid = std::process::id();
        let files: Vec<TempFile> = (0..partition.clusters())
            .map(|c| TempFile::new(work_dir.join(format!("cluster-{c}-{pid}.tmp"))))
            .collect();
        let mut writers: Vec<RunWriter> = files
            .iter()
            .map(|f| RunWriter::create(f.path()))
            .collect::<io::Result<_>>()?;
        let mut stream = rio::RecordStream::new(BufReader::new(File::open(input)?));
        let mut buf = String::new();
        let mut total = 0usize;
        for record in &mut stream {
            let mut record =
                record.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            mp_record::normalize::condition(&mut record, &nicknames);
            self.key.extract_into(&record, &mut buf);
            let truncated = truncate(&buf, self.cluster_key_len);
            let c = partition.cluster_of(truncated);
            writers[c].write(truncated, &record)?;
            total += 1;
            io_stats.records_read += 1;
        }
        for w in writers {
            io_stats.records_written += w.finish()?;
        }

        // Pass 2: per-cluster in-memory sort + window scan.
        io_stats.sweeps += 1;
        let mut pairs = PairSet::new();
        for (c, file) in files.iter().enumerate() {
            let mut reader = RunReader::open(file.path())?;
            let mut keys: Vec<String> = Vec::new();
            let mut records: Vec<Record> = Vec::new();
            let (mut key, mut record) = (String::new(), Record::empty(RecordId(0)));
            while reader.next_into(&mut key, &mut record)? {
                keys.push(std::mem::take(&mut key));
                records.push(std::mem::replace(&mut record, Record::empty(RecordId(0))));
                io_stats.records_read += 1;
                if records.len() > self.config.memory_records {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "cluster {c} exceeds the memory budget of {} records; \
                             increase the cluster count",
                            self.config.memory_records
                        ),
                    ));
                }
            }
            let order = radix_order_by(keys.len(), |i| &keys[i]).order;
            window_scan(&records, &order, self.window, theory, &mut pairs);
        }

        Ok(ExternalOutcome {
            pairs,
            io: io_stats,
            records: total,
        })
    }

    fn sample_partition(
        &self,
        input: &Path,
        nicknames: &mp_record::NicknameTable,
    ) -> io::Result<RangePartition> {
        let mut stream = rio::RecordStream::new(BufReader::new(File::open(input)?));
        let mut buf = String::new();
        let mut sampled: Vec<String> = Vec::with_capacity(self.sample_size.min(4096));
        for record in stream.by_ref().take(self.sample_size) {
            let mut record =
                record.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            mp_record::normalize::condition(&mut record, nicknames);
            self.key.extract_into(&record, &mut buf);
            sampled.push(truncate(&buf, self.cluster_key_len).to_string());
        }
        let histogram =
            KeyHistogram::from_keys(sampled.iter().map(String::as_str), self.histogram_prefix);
        let clusters = self.clusters.min(histogram.bins());
        Ok(RangePartition::build(&histogram, clusters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusteringConfig, ClusteringMethod};
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;
    use std::path::PathBuf;

    fn work_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-xpaper-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_db(n: usize, seed: u64, dir: &Path) -> (PathBuf, mp_datagen::GeneratedDatabase) {
        let db = DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate();
        let input = dir.join("db.mp");
        rio::write_records(std::fs::File::create(&input).unwrap(), &db.records).unwrap();
        (input, db)
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

    #[test]
    fn always_exactly_two_data_passes() {
        let dir = work_dir("two");
        let (input, db) = write_db(500, 7001, &dir);
        let theory = NativeEmployeeTheory::new();
        for clusters in [8usize, 32] {
            let xc = ExternalClustering::new(
                KeySpec::last_name_key(),
                clusters,
                8,
                ExternalConfig {
                    memory_records: 1_000,
                    fan_in: 16,
                    ..ExternalConfig::default()
                },
            );
            let outcome = xc.run(&input, &dir, &theory).unwrap();
            assert_eq!(outcome.io.data_passes(), 2, "clusters = {clusters}");
            assert_eq!(outcome.records, db.records.len());
            assert!(!outcome.pairs.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finds_same_true_pairs_as_in_memory_clustering_roughly() {
        // The external variant uses a sampled histogram, so cluster
        // boundaries can differ slightly from the full-scan in-memory
        // method; require ≥ 95% agreement on found pairs.
        let dir = work_dir("agree");
        let (input, mut db) = write_db(600, 7002, &dir);
        mp_record::normalize::condition_all(&mut db.records, &mp_record::NicknameTable::standard());
        let theory = NativeEmployeeTheory::new();
        let mem = ClusteringMethod::new(
            KeySpec::last_name_key(),
            ClusteringConfig {
                clusters: 16,
                histogram_prefix: 3,
                cluster_key_len: 12,
                window: 8,
            },
        )
        .run(&db.records, &theory);
        let ext = ExternalClustering::new(
            KeySpec::last_name_key(),
            16,
            8,
            ExternalConfig {
                memory_records: 5_000,
                fan_in: 16,
                ..ExternalConfig::default()
            },
        )
        .run(&input, &dir, &theory)
        .unwrap();
        let mem_pairs: std::collections::HashSet<_> = mem.pairs.iter().collect();
        let shared = ext.pairs.iter().filter(|p| mem_pairs.contains(p)).count();
        assert!(
            shared as f64 >= 0.95 * mem_pairs.len() as f64,
            "only {shared}/{} pairs agree",
            mem_pairs.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_cluster_reports_clear_error() {
        let dir = work_dir("oversize");
        let (input, _) = write_db(300, 7003, &dir);
        let theory = NativeEmployeeTheory::new();
        let xc = ExternalClustering::new(
            KeySpec::last_name_key(),
            2, // two clusters of ~300 records...
            4,
            ExternalConfig {
                memory_records: 50,
                fan_in: 16,
                ..ExternalConfig::default()
            }, // ...but only 50 fit
        );
        let err = xc.run(&input, &dir, &theory).unwrap_err();
        assert!(err.to_string().contains("memory budget"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_over_budget_cluster_leaves_no_cluster_file() {
        let dir = work_dir("leak");
        let (input, _) = write_db(50, 7004, &dir);
        let work = dir.join("work");
        let xc = ExternalClustering::new(
            KeySpec::last_name_key(),
            1,
            4,
            ExternalConfig {
                memory_records: 5,
                ..ExternalConfig::default()
            },
        );
        let err = xc
            .run(&input, &work, &NativeEmployeeTheory::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "cluster 0 exceeds the memory budget of 5 records; increase the cluster count"
        );
        let left: Vec<_> = std::fs::read_dir(&work)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
