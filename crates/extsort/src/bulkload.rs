//! Spill-aware bulk load: cold-start a durable merge/purge state from a
//! flat record file without ever holding the full database in memory.
//!
//! The incremental engine's `add_batch` is the right tool for monthly
//! deltas, but cold-loading an entire 10M-record database through it
//! means an in-memory sort of every pass's key list at once. The bulk
//! loader replaces that with the external pipeline, priced in data passes
//! the way §3.5 prices it:
//!
//! 1. **one input sweep forms every pass's runs** — each
//!    `memory_records` chunk is parsed from text once, then keyed,
//!    radix-sorted and spilled as binary frames once per pass key;
//! 2. **per pass, intermediate merge levels** (`fan_in` runs at a time)
//!    run only while more than `fan_in` runs remain;
//! 3. **the last merge level streams into the scan**: a
//!    [`MergeStream`] over the remaining runs feeds `WindowScan::stream`
//!    directly, holding only the window's worth of records. The fully
//!    merged run is never written or re-read.
//!
//! A load over `k` passes therefore costs `1 + Σ_pass (levels + 1)` data
//! passes, where `levels` is the pass's intermediate merge levels (zero
//! while the input forms at most `fan_in` runs per pass): four for the
//! standard three keys.
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
//! formation (one key's arena at a time per thread) and `window` during
//! the scan.

use crate::sorter::{check_config, form_runs, merge_levels, MergeStream};
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
    /// The whole load's I/O: the one input sweep that forms every pass's
    /// runs (N records read, `k·N` written), then per pass each
    /// intermediate merge level (N read, N written) and the streamed final
    /// level feeding the scan (N read). `data_passes()` is
    /// `1 + Σ_pass (levels + 1)`.
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

    /// Like [`BulkLoader::load`], reporting the sort statistics of
    /// [`ExternalSorter::sort_observed`](crate::ExternalSorter::sort_observed)
    /// summed over passes, plus the scan counters (`Comparisons`,
    /// `RuleInvocations`, `Matches`, `RecordsKeyed`) the durable ingest
    /// path reports. Spans: one `run_formation` (with its `run_gen` and
    /// `spill` children), then per pass a `bulk_pass` holding `merge` (only
    /// when intermediate levels run) and `window_scan`. The caller opens
    /// the enclosing `bulk_load` span, so a commit can sit beside them.
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
        check_config(&self.config);

        // The one sweep over the input: every pass's runs. Ingest does not
        // condition (batches arrive pre-conditioned), so neither does the
        // bulk path.
        let keys: Vec<KeySpec> = self.passes.iter().map(|(key, _)| key.clone()).collect();
        let formed = {
            let _formation_span = span(observer, "run_formation");
            form_runs(&keys, &self.config, input, work_dir, false, observer)?
        };
        let records = formed.records;
        let mut out = BulkOutcome {
            records,
            passes: Vec::with_capacity(self.passes.len()),
            pairs: PairSet::new(),
            closure: UnionFind::new(records),
            comparisons: 0,
            stats: BulkLoadStats {
                io: formed.io,
                ..BulkLoadStats::default()
            },
        };

        for (k, ((key, window), runs)) in self.passes.iter().zip(formed.runs).enumerate() {
            let _pass_span = span_labeled(observer, "bulk_pass", || {
                format!("{} w={window}", key.name())
            });
            // Intermediate levels until at most fan_in runs remain; the
            // last level is never written — it streams into the scan.
            let io = &mut out.stats.io;
            let runs = merge_levels(
                runs,
                self.config.fan_in,
                &self.config,
                work_dir,
                k,
                io,
                observer,
            )?;
            io.add_sweep();
            if runs.len() > 1 {
                observer.add(Counter::MergeFanIn, runs.len() as u64);
            }

            let mut pass = PassSnapshot {
                key_name: key.name().to_string(),
                window: *window as u32,
                pairs_found: 0,
                pairs_first_found: 0,
                keys: vec![String::new(); records],
                order: Vec::with_capacity(records),
            };
            observer.add(Counter::RecordsKeyed, records as u64);

            // Streaming window scan over the merged runs, rebuilding the
            // pass's key list and order as the records go by.
            let t_scan = Instant::now();
            let _scan_span = span(observer, "window_scan");
            let mut merged = MergeStream::open(&runs)?;
            let next = || {
                let entry = merged.next_entry()?;
                io::Result::Ok(entry.map(|(run_key, record)| {
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
            out.stats.io.records_read += merged.records_read();
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

    fn key_sets() -> [Vec<(KeySpec, usize)>; 3] {
        [
            vec![(KeySpec::last_name_key(), 10)],
            vec![
                (KeySpec::last_name_key(), 10),
                (KeySpec::first_name_key(), 8),
            ],
            vec![
                (KeySpec::last_name_key(), 6),
                (KeySpec::first_name_key(), 8),
                (KeySpec::address_key(), 5),
            ],
        ]
    }

    fn loader(passes: &[(KeySpec, usize)], config: ExternalConfig) -> BulkLoader {
        passes.iter().fold(BulkLoader::new(config), |l, (key, w)| {
            l.pass(key.clone(), *w)
        })
    }

    /// The equivalence the whole design hangs on: a spilled bulk load is
    /// fingerprint-identical to one in-memory `add_batch` of the same
    /// file, for 1, 2 and 3 pass keys, every fan-in and every thread
    /// count. The budget forms more runs than any fan-in here, so
    /// intermediate levels run before the streamed one.
    #[test]
    fn bulk_load_matches_add_batch_fingerprint() {
        let theory = NativeEmployeeTheory::new();
        let dir = work_dir("fp");
        let (input, records) = write_db(600, 7001, &dir);
        let memory_records = 37;
        assert!(records.len().div_ceil(memory_records) > 16);

        for passes in key_sets() {
            let mut engine = IncrementalMergePurge::new();
            for (key, w) in &passes {
                engine = engine.pass(key.clone(), *w);
            }
            engine.add_batch(records.clone(), &theory);
            let snap = engine.to_snapshot();

            for fan_in in [2usize, 3, 16] {
                for threads in 1..=3usize {
                    let config = ExternalConfig {
                        memory_records,
                        fan_in,
                        threads,
                    };
                    let outcome = loader(&passes, config).load(&input, &dir, &theory).unwrap();
                    let tag = format!("keys={} fan_in={fan_in} threads={threads}", passes.len());
                    assert_eq!(outcome.records, snap.records.len(), "{tag}");
                    assert_eq!(outcome.comparisons, engine.comparisons(), "{tag}");
                    assert_eq!(outcome.pairs.sorted(), snap.pairs, "{tag}");
                    assert_eq!(outcome.closure.clone().classes(), engine.classes(), "{tag}");
                    assert_eq!(outcome.passes.len(), snap.passes.len(), "{tag}");
                    for (b, s) in outcome.passes.iter().zip(&snap.passes) {
                        assert_eq!(b.key_name, s.key_name, "{tag}");
                        assert_eq!(b.window, s.window, "{tag}");
                        assert_eq!(b.pairs_found, s.pairs_found, "{tag}");
                        assert_eq!(b.pairs_first_found, s.pairs_first_found, "{tag}");
                        assert_eq!(b.keys, s.keys, "{tag}");
                        assert_eq!(b.order, s.order, "{tag}");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The pass accounting: one sweep forms every pass's runs, then each
    /// pass pays its intermediate levels plus the streamed final level.
    #[test]
    fn io_stats_count_one_sweep_plus_levels_per_pass() {
        let theory = NativeEmployeeTheory::new();
        let dir = work_dir("io");
        let (input, records) = write_db(400, 7002, &dir);
        let n = records.len() as u64;
        for passes in key_sets() {
            for (memory_records, fan_in) in [(n as usize + 1, 16usize), (50, 16), (50, 4), (23, 2)]
            {
                let config = ExternalConfig {
                    memory_records,
                    fan_in,
                    threads: 1,
                };
                let outcome = loader(&passes, config).load(&input, &dir, &theory).unwrap();
                let mut runs = n.div_ceil(memory_records as u64);
                let mut levels = 0u64;
                while runs > fan_in as u64 {
                    runs = runs.div_ceil(fan_in as u64);
                    levels += 1;
                }
                let k = passes.len() as u64;
                let io = outcome.stats.io;
                let tag = format!("keys={k} m={memory_records} f={fan_in} levels={levels}");
                assert_eq!(u64::from(io.data_passes()), 1 + k * (levels + 1), "{tag}");
                assert_eq!(io.records_written, k * n * (1 + levels), "{tag}");
                assert_eq!(io.records_read, n + k * n * (levels + 1), "{tag}");
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
