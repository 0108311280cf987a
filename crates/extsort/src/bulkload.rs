//! Spill-aware bulk load: cold-start a durable merge/purge state from a
//! flat record file without ever holding the full database in memory.
//!
//! The incremental engine's `add_batch` is the right tool for monthly
//! deltas, but cold-loading an entire 10M-record database through it
//! means an in-memory sort of every pass's key list at once. The bulk
//! loader replaces that with the external pipeline: per pass, an
//! [`ExternalSorter`] run formation + merge (bounded by
//! `memory_records`), then a *streaming* window scan over the sorted run
//! holding only the window's worth of records.
//!
//! # Fingerprint equivalence
//!
//! The loader is constructed to be **fingerprint-identical** to feeding
//! the same file to `IncrementalMergePurge::add_batch` as one batch
//! (condition off, exactly like daemon ingest): same pairs, same
//! comparison count, same per-pass `pairs_found`/`pairs_first_found`
//! attribution, same closure classes, same per-pass key order. The
//! ingredients, mirroring the run-merge invariants in the crate docs:
//!
//! * record ids are positional (`RecordStream` assigns them), so the
//!   external sort's (key, id) order equals the engine's stable
//!   key sort;
//! * the streaming scan visits window positions in ascending order and
//!   each window farthest-predecessor-first — `WindowScan::stream` here
//!   and the engine's `WindowScan::band` are two drivers of one kernel;
//! * passes fold into the global pair set and closure sequentially, in
//!   configuration order, as `add_batch` does.
//!
//! A bulk-loaded state therefore checkpoints to a snapshot that a
//! restarted daemon cannot distinguish from one built by ingesting the
//! whole file as a single batch — `batches_applied` is 1 by definition.
//!
//! What stays in memory: per-pass keys and order (a few dozen bytes per
//! record), the pair set, and the union-find — never the records
//! themselves. Peak record residency is `memory_records` during run
//! formation and `window` during the scan.

use crate::runfile::RunReader;
use crate::sorter::ExternalSorter;
use crate::{ExternalConfig, IoStats};
use merge_purge::incremental::PassSnapshot;
use merge_purge::window::{Candidate, ScanSink, WindowScan};
use merge_purge::KeySpec;
use mp_closure::{PairSet, UnionFind};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, Phase, PipelineObserver};
use mp_rules::EquationalTheory;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Aggregate accounting for one bulk load.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkLoadStats {
    /// Records loaded.
    pub records: u64,
    /// Pair comparisons across all passes.
    pub comparisons: u64,
    /// Distinct matching pairs found.
    pub pairs: u64,
    /// Sort + scan I/O summed over all passes (each pass sweeps the
    /// input independently, exactly as §3.5 charges the multi-pass
    /// method).
    pub io: IoStats,
}

/// Everything a bulk load reconstructs: the same state
/// `IncrementalMergePurge::add_batch` would have built from the file as
/// one batch, minus the in-memory record list (stream the records back
/// from the input file when materializing a snapshot).
#[derive(Debug)]
pub struct BulkOutcome {
    /// Number of records loaded (ids are `0..records`).
    pub records: usize,
    /// Per-pass state in configuration order — the durable snapshot's own
    /// per-pass type (`keys` indexed by record id, `order` the sorted
    /// permutation), so committing it converts nothing.
    pub passes: Vec<PassSnapshot>,
    /// Global deduplicated pair set.
    pub pairs: PairSet,
    /// Transitive closure over the pairs.
    pub closure: UnionFind,
    /// Total pair comparisons.
    pub comparisons: u64,
    /// Aggregate accounting.
    pub stats: BulkLoadStats,
}

/// Multi-pass bulk loader over a flat record file.
///
/// ```
/// use merge_purge::KeySpec;
/// use mp_extsort::{BulkLoader, ExternalConfig};
/// use mp_record::io as rio;
/// use mp_rules::NativeEmployeeTheory;
///
/// let dir = std::env::temp_dir().join(format!("mp-bulk-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let db = mp_datagen::DatabaseGenerator::new(
///     mp_datagen::GeneratorConfig::new(300).duplicate_fraction(0.5).seed(11),
/// )
/// .generate();
/// let n = db.records.len(); // base records plus generated duplicates
/// let input = dir.join("db.mp");
/// rio::write_records(std::fs::File::create(&input).unwrap(), &db.records).unwrap();
///
/// let theory = NativeEmployeeTheory::new();
/// let outcome = BulkLoader::new(ExternalConfig {
///     memory_records: 64, // force spilling even at 300 records
///     ..ExternalConfig::default()
/// })
/// .pass(KeySpec::last_name_key(), 10)
/// .pass(KeySpec::first_name_key(), 10)
/// .load(&input, &dir, &theory)
/// .unwrap();
/// assert_eq!(outcome.records, n);
/// assert!(!outcome.pairs.is_empty());
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct BulkLoader {
    passes: Vec<(KeySpec, usize)>,
    config: ExternalConfig,
}

impl BulkLoader {
    /// A loader with no passes yet; add at least one before loading.
    pub fn new(config: ExternalConfig) -> Self {
        BulkLoader {
            passes: Vec::new(),
            config,
        }
    }

    /// Adds a sorted-neighborhood pass.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2`.
    #[must_use]
    pub fn pass(mut self, key: KeySpec, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        self.passes.push((key, window));
        self
    }

    /// Bulk-loads the flat record file at `input`, spilling under
    /// `work_dir`.
    ///
    /// # Errors
    ///
    /// I/O failures reading the input or managing spill files.
    ///
    /// # Panics
    ///
    /// Panics when no passes are configured.
    pub fn load(
        &self,
        input: &Path,
        work_dir: &Path,
        theory: &dyn EquationalTheory,
    ) -> io::Result<BulkOutcome> {
        self.load_observed(input, work_dir, theory, &NoopObserver)
    }

    /// Like [`BulkLoader::load`], reporting per-pass sort statistics (see
    /// [`ExternalSorter::sort_observed`]) plus the scan counters
    /// (`Comparisons`, `RuleInvocations`, `Matches`, `RecordsKeyed`) the
    /// durable ingest path reports, under a `bulk_load` span.
    pub fn load_observed(
        &self,
        input: &Path,
        work_dir: &Path,
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> io::Result<BulkOutcome> {
        assert!(
            !self.passes.is_empty(),
            "configure passes before bulk loading"
        );
        let _load_span = span(observer, "bulk_load");
        let mut out = BulkOutcome {
            records: 0,
            passes: Vec::with_capacity(self.passes.len()),
            pairs: PairSet::new(),
            closure: UnionFind::new(0),
            comparisons: 0,
            stats: BulkLoadStats::default(),
        };

        for (key, window) in &self.passes {
            let _pass_span = span_labeled(observer, "bulk_pass", || {
                format!("{} w={window}", key.name())
            });
            // Sort: run formation + merge, bounded by memory_records.
            // Ingest does not condition (batches arrive pre-conditioned),
            // so neither does the bulk path.
            let sorter = ExternalSorter::new(key.clone(), self.config);
            let sorted = sorter.sort_observed(input, work_dir, false, observer)?;

            if out.passes.is_empty() {
                out.records = sorted.records;
                out.closure.grow(sorted.records);
            } else if sorted.records != out.records {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "input changed between passes: {} then {} records",
                        out.records, sorted.records
                    ),
                ));
            }

            let mut pass = PassSnapshot {
                key_name: key.name().to_string(),
                window: *window as u32,
                pairs_found: 0,
                pairs_first_found: 0,
                keys: vec![String::new(); sorted.records],
                order: Vec::with_capacity(sorted.records),
            };
            observer.add(Counter::RecordsKeyed, sorted.records as u64);

            // Streaming window scan over the sorted run, rebuilding the
            // pass's key list and order as the records go by.
            let t_scan = Instant::now();
            let _scan_span = span(observer, "window_scan");
            let mut reader = RunReader::open(&sorted.path)?;
            let mut io_read = 0u64;
            let next = || {
                let entry = reader.next_entry()?;
                io::Result::Ok(entry.map(|(run_key, record)| {
                    io_read += 1;
                    pass.keys[record.id.0 as usize] = run_key;
                    pass.order.push(record.id.0);
                    record
                }))
            };
            let mut sink = BulkSink {
                pairs: &mut out.pairs,
                closure: &mut out.closure,
                pairs_found: &mut pass.pairs_found,
                pairs_first_found: &mut pass.pairs_first_found,
            };
            let counts = WindowScan::new(*window, theory, observer).stream(next, &mut sink)?;
            observer.phase_ns(Phase::WindowScan, t_scan.elapsed().as_nanos() as u64);
            counts.report(observer);
            observer.add(Counter::Matches, pass.pairs_found);

            out.comparisons += counts.comparisons;
            out.stats.io.records_read += sorted.io.records_read + io_read;
            out.stats.io.records_written += sorted.io.records_written;
            out.stats.io.sweeps += sorted.io.data_passes() + 1; // + the scan sweep
            sorted.cleanup();
            out.passes.push(pass);
        }

        out.stats.records = out.records as u64;
        out.stats.comparisons = out.comparisons;
        out.stats.pairs = out.pairs.len() as u64;
        Ok(out)
    }
}

/// The bulk sink: every window match counts for its pass, and the ones
/// new to the global pair set extend the closure — what the incremental
/// engine's fold does to a found-list, applied as the matches arrive.
/// Unpruned, like incremental ingest: the committed pair set is defined
/// as every window match.
struct BulkSink<'a> {
    pairs: &'a mut PairSet,
    closure: &'a mut UnionFind,
    pairs_found: &'a mut u64,
    pairs_first_found: &'a mut u64,
}

impl ScanSink for BulkSink<'_> {
    #[inline]
    fn matched(&mut self, pair: &Candidate<'_>, _rule: u32) {
        *self.pairs_found += 1;
        if self.pairs.insert(pair.prev_at, pair.new_at) {
            *self.pairs_first_found += 1;
            self.closure.union(pair.prev_at, pair.new_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merge_purge::IncrementalMergePurge;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_record::{io as rio, Record};
    use mp_rules::NativeEmployeeTheory;
    use std::path::PathBuf;

    fn work_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-bulk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_db(n: usize, seed: u64, dir: &Path) -> (PathBuf, Vec<Record>) {
        let db = DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate();
        let path = dir.join("input.mp");
        rio::write_records(std::fs::File::create(&path).unwrap(), &db.records).unwrap();
        (path, db.records)
    }

    /// The equivalence the whole design hangs on: a spilled bulk load is
    /// fingerprint-identical to one in-memory `add_batch` of the same
    /// file, for every thread count.
    #[test]
    fn bulk_load_matches_add_batch_fingerprint() {
        let theory = NativeEmployeeTheory::new();
        let dir = work_dir("fp");
        let (input, records) = write_db(600, 7001, &dir);

        let mut engine = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), 10)
            .pass(KeySpec::first_name_key(), 8);
        engine.add_batch(records, &theory);
        let snap = engine.to_snapshot();

        for threads in [1usize, 3] {
            let outcome = BulkLoader::new(ExternalConfig {
                memory_records: 97, // forces several spilled runs
                fan_in: 3,
                threads,
            })
            .pass(KeySpec::last_name_key(), 10)
            .pass(KeySpec::first_name_key(), 8)
            .load(&input, &dir, &theory)
            .unwrap();

            let tag = format!("threads={threads}");
            assert_eq!(outcome.records, snap.records.len(), "{tag}");
            assert_eq!(outcome.comparisons, engine.comparisons(), "{tag}");
            assert_eq!(outcome.pairs.sorted(), snap.pairs, "{tag}");
            assert_eq!(outcome.closure.clone().classes(), engine.classes(), "{tag}");
            for (b, s) in outcome.passes.iter().zip(&snap.passes) {
                assert_eq!(b.key_name, s.key_name, "{tag}");
                assert_eq!(b.window, s.window, "{tag}");
                assert_eq!(b.pairs_found, s.pairs_found, "{tag}");
                assert_eq!(b.pairs_first_found, s.pairs_first_found, "{tag}");
                assert_eq!(b.keys, s.keys, "{tag}");
                assert_eq!(b.order, s.order, "{tag}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_input_loads_empty_state() {
        let theory = NativeEmployeeTheory::new();
        let dir = work_dir("empty");
        let input = dir.join("empty.mp");
        std::fs::write(&input, "").unwrap();
        let outcome = BulkLoader::new(ExternalConfig::default())
            .pass(KeySpec::last_name_key(), 4)
            .load(&input, &dir, &theory)
            .unwrap();
        assert_eq!(outcome.records, 0);
        assert_eq!(outcome.comparisons, 0);
        assert!(outcome.pairs.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "configure passes")]
    fn load_without_passes_rejected() {
        let theory = NativeEmployeeTheory::new();
        let dir = work_dir("nopass");
        let input = dir.join("empty.mp");
        std::fs::write(&input, "").unwrap();
        let _ = BulkLoader::new(ExternalConfig::default()).load(&input, &dir, &theory);
    }
}
