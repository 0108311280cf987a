//! Disk-resident clustering method — the "approximately only 2 passes"
//! alternative of §3.5.

use crate::runfile::{RunReader, RunWriter};
use crate::{ExternalConfig, ExternalOutcome, IoStats};
use merge_purge::key::truncate_chars as truncate;
use merge_purge::{window_scan, KeySpec};
use mp_closure::PairSet;
use mp_cluster::{KeyHistogram, RangePartition};
use mp_record::{io as rio, Record, RecordId};
use mp_rules::EquationalTheory;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};

/// External clustering pass.
///
/// Pass 1 streams the input, conditions, extracts keys, and scatters each
/// record into one of `C` cluster files by histogram range partition; pass
/// 2 loads each cluster (which must fit in the memory budget), sorts it on
/// the fixed-size cluster key, and window-scans it. The partition comes
/// from a histogram computed on a bounded sample — the paper's "gathered
/// off-line" step — so the whole method is two data passes regardless of N.
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
    /// `work_dir`.
    ///
    /// # Errors
    ///
    /// Besides I/O failures, fails with `InvalidData` when a cluster
    /// exceeds the memory budget (the paper's premise is that clusters are
    /// sized to fit: "we desire a cluster to be main memory based").
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
        io_stats.add_sweep();
        let pid = std::process::id();
        let paths: Vec<PathBuf> = (0..partition.clusters())
            .map(|c| work_dir.join(format!("cluster-{c}-{pid}.tmp")))
            .collect();
        let mut writers: Vec<RunWriter> = paths
            .iter()
            .map(|p| RunWriter::create(p))
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
        io_stats.add_sweep();
        let mut pairs = PairSet::new();
        for path in &paths {
            let mut reader = RunReader::open(path)?;
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
                            "cluster {} exceeds the memory budget of {} records; \
                             increase the cluster count",
                            path.display(),
                            self.config.memory_records
                        ),
                    ));
                }
            }
            let mut order: Vec<u32> = (0..records.len() as u32).collect();
            order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
            window_scan(&records, &order, self.window, theory, &mut pairs);
        }

        for p in paths {
            let _ = std::fs::remove_file(p);
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
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_rules::NativeEmployeeTheory;
    use std::path::PathBuf;

    fn work_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-xcl-{tag}-{}", std::process::id()));
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
        let mem = merge_purge::ClusteringMethod::new(
            KeySpec::last_name_key(),
            merge_purge::ClusteringConfig {
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
}
