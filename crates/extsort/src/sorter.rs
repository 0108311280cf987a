//! External merge sort over keyed run files.
//!
//! See the crate docs for the spill format and the run-merge invariants;
//! the short version is that every run is written sorted by **(key,
//! record id)** and the F-way merge breaks key ties by smaller id, so any
//! partition of the input into contiguous runs — one per memory-budget
//! chunk, or several per chunk when run formation fans out across threads
//! — merges to the exact order an in-memory stable sort would produce.

use crate::runfile::{RunReader, RunWriter};
use crate::{ExternalConfig, IoStats};
use merge_purge::{band_ranges, chunked_str_cmp, sorted_order_radix, KeyArena, KeySpec};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, Phase, PipelineObserver};
use mp_record::{io as rio, Record};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// External merge sort: run formation (fused with key extraction and
/// optional conditioning) followed by F-way merge levels.
///
/// Sorting is stable with respect to record ids on equal keys, which makes
/// the final order identical to the in-memory engines' stable sort — and
/// therefore the window scan results identical too.
#[derive(Debug, Clone)]
pub struct ExternalSorter {
    key: KeySpec,
    config: ExternalConfig,
}

/// A fully sorted run on disk plus the accounting that produced it.
pub struct SortedRun {
    /// Path of the final sorted run file.
    pub path: PathBuf,
    /// Number of records.
    pub records: usize,
    /// I/O accounting so far (run formation + merge levels).
    pub io: IoStats,
    /// Intermediate files created (caller removes them with
    /// [`SortedRun::cleanup`]).
    pub temp_files: Vec<PathBuf>,
}

impl SortedRun {
    /// Removes the final run and any leftover temporaries.
    pub fn cleanup(self) {
        for f in self.temp_files {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_file(self.path);
    }
}

/// What one run-formation worker produced: its run file plus the
/// accounting folded back into the chunk totals.
struct FormedRun {
    path: PathBuf,
    records_written: u64,
    bytes: u64,
}

impl ExternalSorter {
    /// A sorter for the given key and resource limits.
    ///
    /// # Panics
    ///
    /// Panics when the memory budget is zero, the fan-in is below 2, or
    /// the thread count is zero.
    pub fn new(key: KeySpec, config: ExternalConfig) -> Self {
        assert!(config.memory_records >= 1, "memory budget must be positive");
        assert!(config.fan_in >= 2, "fan-in must be at least 2");
        assert!(
            config.threads >= 1,
            "need at least one run-formation thread"
        );
        ExternalSorter { key, config }
    }

    /// Sorts the flat record file at `input` into a single keyed run under
    /// `work_dir`. `condition` applies §3.2 conditioning during run
    /// formation (the paper folds conditioning and key creation into one
    /// pass).
    pub fn sort(&self, input: &Path, work_dir: &Path, condition: bool) -> io::Result<SortedRun> {
        self.sort_observed(input, work_dir, condition, &NoopObserver)
    }

    /// Like [`ExternalSorter::sort`], reporting external-sort statistics to
    /// `observer`: initial run count ([`Counter::SortRuns`]), runs formed
    /// from full memory-budget chunks ([`Counter::SpillRuns`]), bytes
    /// written to run and merge files ([`Counter::BytesSpilled`]), total
    /// runs fed into merge steps ([`Counter::MergeFanIn`]), radix scatter
    /// passes over all runs ([`Counter::RadixPasses`]), and run-formation /
    /// run-merge phase times.
    pub fn sort_observed(
        &self,
        input: &Path,
        work_dir: &Path,
        condition: bool,
        observer: &dyn PipelineObserver,
    ) -> io::Result<SortedRun> {
        std::fs::create_dir_all(work_dir)?;
        let _ext_span = span(observer, "extsort");
        let mut io_stats = IoStats::default();
        let mut temp_files = Vec::new();

        // Pass 1: run formation. Stream M records at a time, condition,
        // extract keys, sort in memory, write a run (or one run per worker
        // thread). At no point do more than M records live in memory.
        let nicknames = mp_record::NicknameTable::standard();
        let mut stream = rio::RecordStream::new(BufReader::new(File::open(input)?));
        io_stats.add_sweep();

        let t_runs = Instant::now();
        let mut bytes_spilled = 0u64;
        let mut spill_runs = 0u64;
        let mut total = 0usize;
        let mut runs: Vec<PathBuf> = Vec::new();
        let mut chunk: Vec<Record> = Vec::with_capacity(self.config.memory_records);
        let mut done = false;
        while !done {
            chunk.clear();
            while chunk.len() < self.config.memory_records {
                match stream.next() {
                    Some(Ok(r)) => chunk.push(r),
                    Some(Err(e)) => {
                        return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                    }
                    None => {
                        done = true;
                        break;
                    }
                }
            }
            if chunk.is_empty() {
                break;
            }
            total += chunk.len();
            io_stats.records_read += chunk.len() as u64;
            let budget_full = chunk.len() == self.config.memory_records;

            let formed = self.form_runs(
                &mut chunk,
                runs.len(),
                work_dir,
                condition.then_some(&nicknames),
                observer,
            )?;
            for run in formed {
                io_stats.records_written += run.records_written;
                bytes_spilled += run.bytes;
                spill_runs += u64::from(budget_full);
                runs.push(run.path);
            }
        }
        observer.add(Counter::SortRuns, runs.len() as u64);
        observer.add(Counter::SpillRuns, spill_runs);
        observer.phase_ns(Phase::RunFormation, t_runs.elapsed().as_nanos() as u64);

        // Merge levels: F runs at a time until one remains.
        let t_merge = Instant::now();
        let _merge_span = span(observer, "merge");
        let mut merge_inputs = 0u64;
        let mut level = 0usize;
        while runs.len() > 1 {
            io_stats.add_sweep();
            let mut next: Vec<PathBuf> = Vec::new();
            for (g, group) in runs.chunks(self.config.fan_in).enumerate() {
                let path = work_dir.join(format!("merge-{level}-{g}-{}.tmp", std::process::id()));
                let (read, written) = merge_group(group, &path)?;
                merge_inputs += group.len() as u64;
                io_stats.records_read += read;
                io_stats.records_written += written;
                bytes_spilled += std::fs::metadata(&path)?.len();
                next.push(path);
            }
            temp_files.extend(runs);
            level += 1;
            runs = next;
        }
        drop(_merge_span);
        observer.add(Counter::MergeFanIn, merge_inputs);
        observer.add(Counter::BytesSpilled, bytes_spilled);
        observer.phase_ns(Phase::RunMerge, t_merge.elapsed().as_nanos() as u64);

        let path = runs.pop().unwrap_or_else(|| {
            // Empty input: produce an empty run file for uniformity.
            let p = work_dir.join(format!("run-empty-{}.tmp", std::process::id()));
            let _ = RunWriter::create(&p).and_then(RunWriter::finish);
            p
        });
        Ok(SortedRun {
            path,
            records: total,
            io: io_stats,
            temp_files,
        })
    }

    /// Conditions, keys, sorts, and spills one memory-budget chunk as
    /// `threads` contiguous sub-runs (one when `threads == 1`). Worker `k`
    /// owns `chunk[bands[k]]`; because record ids ascend in input order,
    /// each sub-run is (key, id)-sorted and the merge invariants make the
    /// final order independent of the split.
    fn form_runs(
        &self,
        chunk: &mut [Record],
        first_run: usize,
        work_dir: &Path,
        nicknames: Option<&mp_record::NicknameTable>,
        observer: &dyn PipelineObserver,
    ) -> io::Result<Vec<FormedRun>> {
        let threads = self.config.threads.min(chunk.len()).max(1);
        // band_ranges splits 1-based scan positions; shift to 0-based
        // slice offsets to carve the chunk.
        let bands: Vec<(usize, usize)> = band_ranges(chunk.len() + 1, threads)
            .into_iter()
            .map(|(a, b)| (a - 1, b - 1))
            .collect();

        let run_one = |slice: &mut [Record], run_idx: usize| -> io::Result<FormedRun> {
            let gen_span = span_labeled(observer, "run_gen", || format!("run {run_idx}"));
            if let Some(table) = nicknames {
                mp_record::normalize::condition_all(slice, table);
            }
            let keys = KeyArena::extract(&self.key, slice);
            let order = sorted_order_radix(&keys, observer);
            drop(gen_span);

            let _spill_span = span_labeled(observer, "spill", || format!("run {run_idx}"));
            let path = work_dir.join(format!("run-{run_idx}-{}.tmp", std::process::id()));
            let mut w = RunWriter::create(&path)?;
            for &i in &order {
                w.write(keys.get(i as usize), &slice[i as usize])?;
            }
            let records_written = w.finish()?;
            let bytes = std::fs::metadata(&path)?.len();
            Ok(FormedRun {
                path,
                records_written,
                bytes,
            })
        };

        if threads == 1 {
            return Ok(vec![run_one(chunk, first_run)?]);
        }

        // Carve the chunk into disjoint mutable bands and form each band's
        // run on its own scoped thread.
        let mut slices: Vec<&mut [Record]> = Vec::with_capacity(threads);
        let mut rest = chunk;
        let mut offset = 0usize;
        for &(from, to) in &bands {
            let (band, tail) = rest.split_at_mut(to - offset);
            debug_assert_eq!(offset, from);
            slices.push(band);
            rest = tail;
            offset = to;
        }
        let results: Vec<io::Result<FormedRun>> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .into_iter()
                .enumerate()
                .map(|(k, band)| {
                    let run_one = &run_one;
                    scope.spawn(move || run_one(band, first_run + k))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        results.into_iter().collect()
    }

    /// The configured key.
    pub fn key(&self) -> &KeySpec {
        &self.key
    }
}

struct HeapEntry {
    key: String,
    id: u32,
    record: Record,
    source: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: reverse. Ties by record id keep the order identical to
        // the in-memory stable sort (ids are positional in the input).
        chunked_str_cmp(&other.key, &self.key).then_with(|| other.id.cmp(&self.id))
    }
}

fn merge_group(group: &[PathBuf], out: &Path) -> io::Result<(u64, u64)> {
    let mut readers: Vec<RunReader> = group
        .iter()
        .map(|p| RunReader::open(p))
        .collect::<io::Result<_>>()?;
    let mut heap = BinaryHeap::with_capacity(readers.len());
    let mut read = 0u64;
    for (i, r) in readers.iter_mut().enumerate() {
        if let Some((key, record)) = r.next_entry()? {
            read += 1;
            heap.push(HeapEntry {
                key,
                id: record.id.0,
                record,
                source: i,
            });
        }
    }
    let mut w = RunWriter::create(out)?;
    while let Some(top) = heap.pop() {
        w.write(&top.key, &top.record)?;
        if let Some((key, record)) = readers[top.source].next_entry()? {
            read += 1;
            heap.push(HeapEntry {
                key,
                id: record.id.0,
                record,
                source: top.source,
            });
        }
    }
    let written = w.finish()?;
    Ok((read, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};

    fn work_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-extsort-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_db(n: usize, seed: u64, dir: &Path) -> (PathBuf, mp_datagen::GeneratedDatabase) {
        let db = DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate();
        let path = dir.join("input.mp");
        let mut f = std::fs::File::create(&path).unwrap();
        rio::write_records(&mut f, &db.records).unwrap();
        (path, db)
    }

    fn read_ids(path: &Path) -> Vec<u32> {
        let mut reader = RunReader::open(path).unwrap();
        let mut got = Vec::new();
        while let Some((_, r)) = reader.next_entry().unwrap() {
            got.push(r.id.0);
        }
        got
    }

    #[test]
    fn external_sort_order_matches_in_memory_stable_sort() {
        let dir = work_dir("order");
        let (input, db) = write_db(500, 5001, &dir);
        let key = KeySpec::last_name_key();
        let sorter = ExternalSorter::new(
            key.clone(),
            ExternalConfig {
                memory_records: 64,
                fan_in: 4,
                ..ExternalConfig::default()
            },
        );
        let sorted = sorter.sort(&input, &dir, false).unwrap();

        // In-memory reference order.
        let keys: Vec<String> = db.records.iter().map(|r| key.extract(r)).collect();
        let mut expect: Vec<u32> = (0..db.records.len() as u32).collect();
        expect.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));

        assert_eq!(read_ids(&sorted.path), expect);
        sorted.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_thread_count_and_budget_produces_the_identical_run() {
        let dir = work_dir("matrix");
        let (input, db) = write_db(700, 5005, &dir);
        let key = KeySpec::last_name_key();

        let reference = {
            let sorter = ExternalSorter::new(key.clone(), ExternalConfig::default());
            let sorted = sorter.sort(&input, &dir, false).unwrap();
            let ids = read_ids(&sorted.path);
            sorted.cleanup();
            ids
        };
        assert_eq!(reference.len(), db.records.len());

        for threads in [1usize, 2, 3] {
            for memory in [48usize, 701] {
                let sorter = ExternalSorter::new(
                    key.clone(),
                    ExternalConfig {
                        memory_records: memory,
                        fan_in: 4,
                        threads,
                    },
                );
                let sorted = sorter.sort(&input, &dir, false).unwrap();
                assert_eq!(
                    read_ids(&sorted.path),
                    reference,
                    "threads={threads} memory={memory}"
                );
                sorted.cleanup();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pass_count_matches_formula() {
        let dir = work_dir("passes");
        let (input, db) = write_db(400, 5002, &dir);
        let n = db.records.len();
        for (m, f) in [(50usize, 2usize), (100, 4), (1_000, 16)] {
            let sorter = ExternalSorter::new(
                KeySpec::last_name_key(),
                ExternalConfig {
                    memory_records: m,
                    fan_in: f,
                    ..ExternalConfig::default()
                },
            );
            let sorted = sorter.sort(&input, &dir, false).unwrap();
            let runs = n.div_ceil(m).max(1);
            let merge_levels = if runs <= 1 {
                0
            } else {
                (runs as f64).log(f as f64).ceil() as u32
            };
            assert_eq!(
                sorted.io.data_passes(),
                1 + merge_levels,
                "m={m} f={f} runs={runs}"
            );
            sorted.cleanup();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_runs_counts_full_budget_chunks() {
        use mp_metrics::MetricsRecorder;
        let dir = work_dir("spill");
        let (input, db) = write_db(250, 5003, &dir);
        let n = db.records.len();
        let m = 100usize;
        let sorter = ExternalSorter::new(
            KeySpec::last_name_key(),
            ExternalConfig {
                memory_records: m,
                fan_in: 16,
                ..ExternalConfig::default()
            },
        );
        let recorder = MetricsRecorder::new();
        let sorted = sorter
            .sort_observed(&input, &dir, false, &recorder)
            .unwrap();
        assert_eq!(recorder.get(Counter::SortRuns), n.div_ceil(m) as u64);
        // Full chunks spill; the final short chunk does not.
        assert_eq!(recorder.get(Counter::SpillRuns), (n / m) as u64);
        sorted.cleanup();

        // An input that fits in one chunk forms one non-spill run.
        let recorder = MetricsRecorder::new();
        let roomy = ExternalSorter::new(KeySpec::last_name_key(), ExternalConfig::default());
        let sorted = roomy.sort_observed(&input, &dir, false, &recorder).unwrap();
        assert_eq!(recorder.get(Counter::SortRuns), 1);
        assert_eq!(recorder.get(Counter::SpillRuns), 0);
        sorted.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_formation_reports_radix_scatter_passes() {
        use mp_metrics::MetricsRecorder;
        let dir = work_dir("radixcnt");
        let (input, _) = write_db(200, 5004, &dir);
        let sorter = ExternalSorter::new(KeySpec::last_name_key(), ExternalConfig::default());
        let recorder = MetricsRecorder::new();
        let sorted = sorter
            .sort_observed(&input, &dir, false, &recorder)
            .unwrap();
        assert!(recorder.get(Counter::RadixPasses) > 0);
        sorted.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_input_sorts_to_empty_run() {
        let dir = work_dir("empty");
        let input = dir.join("empty.mp");
        std::fs::write(&input, "").unwrap();
        let sorter = ExternalSorter::new(KeySpec::last_name_key(), ExternalConfig::default());
        let sorted = sorter.sort(&input, &dir, false).unwrap();
        assert_eq!(sorted.records, 0);
        let mut reader = RunReader::open(&sorted.path).unwrap();
        assert!(reader.next_entry().unwrap().is_none());
        sorted.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conditioning_during_run_formation() {
        let dir = work_dir("cond");
        let mut r = Record::empty(mp_record::RecordId(0));
        r.first_name = "mr. bob".into();
        r.last_name = "smith jr".into();
        let input = dir.join("one.mp");
        let mut f = std::fs::File::create(&input).unwrap();
        rio::write_records(&mut f, &[r]).unwrap();

        let sorter = ExternalSorter::new(KeySpec::last_name_key(), ExternalConfig::default());
        let sorted = sorter.sort(&input, &dir, true).unwrap();
        let mut reader = RunReader::open(&sorted.path).unwrap();
        let (_, rec) = reader.next_entry().unwrap().unwrap();
        assert_eq!(rec.first_name, "ROBERT");
        assert_eq!(rec.last_name, "SMITH");
        sorted.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
