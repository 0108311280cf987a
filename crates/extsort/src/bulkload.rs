//! Spill-aware bulk load: cold-start a durable merge/purge state from a
//! flat record file without ever holding the full database in memory.
//!
//! The incremental engine's `add_batch` is the right tool for monthly
//! deltas, but cold-loading an entire 10M-record database through it
//! means an in-memory sort of every pass's key list at once. The bulk
//! loader replaces that with the external pipeline, priced in data passes
//! the way §3.5 prices it:
//!
//! 1. **one input sweep forms every pass's runs** — each record is parsed
//!    from text once, its key appended to every pass's chunk arena, its
//!    run-frame body encoded once, and its snapshot encoding appended to a
//!    record spill; every `memory_records` records each pass key's arena
//!    is radix-sorted and spilled as key + body frames;
//! 2. **per pass, intermediate merge levels** (`fan_in` runs at a time)
//!    run only while more than `fan_in` runs remain;
//! 3. **the last merge level streams into the scan**: a
//!    [`MergeStream`] over the remaining runs feeds `WindowScan::stream`
//!    directly, holding only the window's worth of records. The fully
//!    merged run is never written or re-read;
//! 4. **one fold** takes the passes' matches into the pair set and the
//!    closure.
//!
//! The record spill ([`BulkOutcome::records_spill`]) is what a commit
//! copies into the snapshot's `RECS`, so a load parses its input once.
//!
//! Steps 2 and 3 are a pass's own: §4 runs the passes of a multi-pass
//! run on processors of their own, and so does the loader — each pass
//! merges and scans on a worker of its own (pass `K` on lane
//! `bulk-pass-K`, pass 0 on the calling thread), collecting its matches
//! in scan order. The fold then runs on the calling thread, pass by pass
//! in configuration order. A load costs its run formation, its slowest
//! pass and the fold, not the sum of the passes. Run formation itself is
//! not spread over the keys: it sets the load's peak memory, and one
//! chunk keyed per key at a time keeps that peak where a serial load has
//! it.
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
//!   configuration order, each pass's matches in scan order, as
//!   `add_batch` does. The scan is unpruned — it never reads the
//!   closure — so a pass's matches do not depend on when the other
//!   passes run, and folding them afterwards gives the counters, the
//!   pairs and the union order (hence the closure forest and the
//!   snapshot bytes) of a load that scanned its passes one after
//!   another.
//!
//! A bulk-loaded state therefore checkpoints to a snapshot that a
//! restarted daemon cannot distinguish from one built by ingesting the
//! whole file as a single batch — `batches_applied` is 1 by definition.
//!
//! What stays in memory: per pass, its keys in one [`KeyArena`] (a span
//! and the key's bytes, ≈ 24 bytes a key) and its order (4 bytes a
//! record), both filled by record id as the merged entries arrive, plus
//! the pass's match list until the fold; then the pair set and the
//! union-find — never the records themselves. All of these are allocated
//! on the calling thread before the passes start (the arena's byte buffer
//! sized exactly from run formation's key bytes), so the workers only
//! fill them. During run formation one chunk is resident: its
//! `memory_records` encoded record bodies and, per pass key, their keys —
//! never a chunk of parsed records; a record lives parsed only while it
//! is keyed and encoded. During the scans each pass holds one window of
//! records, the passes' windows side by side; the merge decodes into the
//! record the window evicts, and a record's fields are held inline, so a
//! scan allocates nothing per record.

use crate::sorter::{check_config, form_runs, merge_levels, MergeStream, RecordSpill};
use crate::{ExternalConfig, IoStats};
use merge_purge::incremental::PassSnapshot;
use merge_purge::window::{FoundList, WindowScan};
use merge_purge::{fan_out, KeyArena, KeySpec};
use mp_closure::{PairSet, UnionFind};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, Phase, PipelineObserver};
use mp_record::Record;
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
/// one batch, with the records left on disk in the record spill run
/// formation wrote, ready to be copied into a snapshot.
#[derive(Debug)]
pub struct BulkOutcome {
    /// Number of records loaded (ids are `0..records`).
    pub records: usize,
    /// The records in id order and the snapshot's record encoding, under
    /// the work dir until this outcome is dropped:
    /// [`RecordSpill::source`] commits them as `RECS` with no second
    /// parse of the input.
    pub records_spill: RecordSpill,
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
    /// `spill` children), then per pass, on the pass's own lane, a
    /// `bulk_pass` holding `merge` (only when intermediate levels run) and
    /// `window_scan`; the passes overlap, so [`Phase::WindowScan`] sums
    /// their scans. The caller opens the enclosing `bulk_load` span, so a
    /// commit can sit beside them.
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
            form_runs(&keys, &self.config, input, work_dir, false, true, observer)?
        };
        let records = formed.records;

        // Every buffer that outlives a pass's worker is allocated here, on
        // the calling thread, and sized before the workers start: the
        // order, the key arena (its byte buffer exactly), the match list.
        // Workers only fill them, so what a worker allocates for itself is
        // freed when it finishes and the load's peak stays that of a serial
        // load. A pass finds matches for a fraction of its records (about a
        // third at w = 40); past `records` its list grows on the worker.
        let lanes: Vec<_> = self
            .passes
            .iter()
            .zip(formed.runs)
            .zip(formed.key_bytes)
            .map(|(((key, window), runs), key_bytes)| {
                let pass = PassSnapshot {
                    key_name: key.name().to_string(),
                    window: *window as u32,
                    pairs_found: 0,
                    pairs_first_found: 0,
                    keys: KeyArena::with_slots(records, key_bytes),
                    order: Vec::with_capacity(records),
                };
                let mut found = FoundList::new(0, false);
                found.found.reserve_exact(records);
                (pass, runs, found)
            })
            .collect();

        // The passes are independent until their matches meet in the pair
        // set and the closure, so each merges and scans on its own worker.
        let scanned = fan_out(
            lanes,
            |k| format!("bulk-pass-{k}"),
            |k, (mut pass, runs, mut found)| {
                let _pass_span = span_labeled(observer, "bulk_pass", || {
                    format!("{} w={}", pass.key_name, pass.window)
                });
                // Intermediate levels until at most fan_in runs remain; the
                // last level is never written — it streams into the scan.
                let mut io = IoStats::default();
                let runs = merge_levels(
                    runs,
                    self.config.fan_in,
                    &self.config,
                    work_dir,
                    k,
                    &mut io,
                    observer,
                )?;
                io.add_sweep();
                if runs.len() > 1 {
                    observer.add(Counter::MergeFanIn, runs.len() as u64);
                }
                observer.add(Counter::RecordsKeyed, records as u64);

                // Streaming window scan over the merged runs, filling the
                // pass's key arena and order as the records go by.
                let t_scan = Instant::now();
                let _scan_span = span(observer, "window_scan");
                let mut merged = MergeStream::open(&runs)?;
                let mut run_key = String::new();
                let next = |slot: &mut Record| {
                    let more = merged.next_into(&mut run_key, slot)?;
                    if more {
                        pass.keys.set(slot.id.0 as usize, &run_key);
                        pass.order.push(slot.id.0);
                    }
                    io::Result::Ok(more)
                };
                let counts = WindowScan::new(pass.window as usize, theory, observer)
                    .stream(next, &mut found)?;
                observer.phase_ns(Phase::WindowScan, t_scan.elapsed().as_nanos() as u64);
                counts.report(observer);
                observer.add(Counter::Matches, found.found.len() as u64);
                io.records_read += merged.records_read();
                io::Result::Ok((pass, found.found, counts.comparisons, io))
            },
        );

        // One fold in configuration order, each pass's matches in scan
        // order: what the serial load did as the matches arrived. Every
        // match counts for its pass; the ones new to the global pair set
        // count as first found and extend the closure, in found order.
        let mut out = BulkOutcome {
            records,
            records_spill: formed
                .spill
                .expect("run formation was asked for a record spill"),
            passes: Vec::with_capacity(self.passes.len()),
            pairs: PairSet::new(),
            closure: UnionFind::new(records),
            comparisons: 0,
            stats: BulkLoadStats {
                io: formed.io,
                ..BulkLoadStats::default()
            },
        };
        for scan in scanned {
            let (mut pass, found, comparisons, io) = scan?;
            pass.pairs_found = found.len() as u64;
            for &(a, b, _) in &found {
                if out.pairs.insert(a, b) {
                    pass.pairs_first_found += 1;
                    out.closure.union(a, b);
                }
            }
            out.comparisons += comparisons;
            out.stats.io.records_read += io.records_read;
            out.stats.io.records_written += io.records_written;
            out.stats.io.sweeps += io.sweeps;
            out.passes.push(pass);
        }

        out.stats.records = out.records as u64;
        out.stats.comparisons = out.comparisons;
        out.stats.pairs = out.pairs.len() as u64;
        Ok(out)
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

    /// The passes scan side by side and fold afterwards, and that changes
    /// nothing: a three-key load equals three one-key loads folded one
    /// after another in configuration order. Each pass keeps the keys and
    /// order its own load builds; `pairs_found` is its own pair count (a
    /// pass meets each window pair once); `pairs_first_found` counts the
    /// pairs no earlier pass found; the pairs are the union and the
    /// classes its closure.
    #[test]
    fn a_three_key_load_equals_one_key_loads_folded_in_order() {
        let theory = NativeEmployeeTheory::new();
        let dir = work_dir("fold");
        let (input, _) = write_db(500, 7003, &dir);
        let config = ExternalConfig {
            memory_records: 41,
            fan_in: 3,
            threads: 2,
        };
        let [_, _, passes] = key_sets();
        let outcome = loader(&passes, config).load(&input, &dir, &theory).unwrap();
        assert_eq!(outcome.passes.len(), 3);

        let mut pairs = PairSet::new();
        let mut closure = UnionFind::new(outcome.records);
        let mut comparisons = 0;
        for (got, pass) in outcome.passes.iter().zip(&passes) {
            let single = loader(std::slice::from_ref(pass), config)
                .load(&input, &dir, &theory)
                .unwrap();
            let want = &single.passes[0];
            let tag = want.key_name.as_str();
            assert_eq!(got.key_name, want.key_name);
            assert_eq!(got.window, want.window, "{tag}");
            assert_eq!(got.keys, want.keys, "{tag}");
            assert_eq!(got.order, want.order, "{tag}");
            assert_eq!(want.pairs_found, single.pairs.len() as u64, "{tag}");
            assert_eq!(got.pairs_found, want.pairs_found, "{tag}");
            let mut first_found = 0;
            for (a, b) in single.pairs.sorted() {
                if pairs.insert(a, b) {
                    first_found += 1;
                    closure.union(a, b);
                }
            }
            assert_eq!(got.pairs_first_found, first_found, "{tag}");
            comparisons += single.comparisons;
        }
        assert!(pairs.len() < outcome.passes.iter().map(|p| p.pairs_found).sum::<u64>() as usize);
        assert_eq!(outcome.comparisons, comparisons);
        assert_eq!(outcome.pairs.sorted(), pairs.sorted());
        assert_eq!(outcome.closure.clone().classes(), closure.classes());
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
