//! External merge sort over keyed run files.
//!
//! See the crate docs for the spill format and the run-merge invariants;
//! the short version is that every run is written sorted by **(key,
//! record id)** and the F-way merge breaks key ties by smaller id, so any
//! partition of the input into contiguous runs — one per memory-budget
//! chunk, or several per chunk when run formation fans out across threads
//! — merges to the exact order an in-memory stable sort would produce.
//!
//! Run formation (`form_runs`) sweeps the input once for any number of
//! keys and touches each record once: it is parsed (and conditioned),
//! its key appended to every key's arena, its frame body (id, entity,
//! fields) encoded into the chunk's one body buffer — and, for a bulk
//! load, its snapshot encoding appended to a [`RecordSpill`] — and then
//! dropped. What a chunk holds is therefore its encoded bodies and its
//! keys, never parsed records. When the chunk is full each key's arena is
//! radix-sorted and its run written as key + body per sorted record, a
//! copy out of one contiguous buffer. [`ExternalSorter`] is that sweep
//! with one key followed by merge levels down to a single run; the bulk
//! loader merges each key's runs down to `fan_in` and streams the last
//! level through a [`MergeStream`] into its window scan. An intermediate
//! level copies each frame to its output verbatim once it has read the
//! key and id it orders by; only the last level decodes records.

use crate::runfile::{put_body, Frame, RunReader, RunWriter};
use crate::{ExternalConfig, IoStats};
use merge_purge::{band_ranges, chunked_str_cmp, fan_out, radix_order_by, KeyArena, KeySpec};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, Phase, PipelineObserver};
use mp_record::{io as rio, NicknameTable, Record};
use mp_store::codec::{self, Crc32};
use mp_store::EncodedRecords;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fs::File;
use std::io::{self, BufReader, Write};
use std::ops::Range;
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
    /// Path of the final sorted run file (the caller removes it with
    /// [`SortedRun::cleanup`]; every intermediate file is already gone).
    pub path: PathBuf,
    /// Number of records.
    pub records: usize,
    /// I/O accounting so far (run formation + merge levels).
    pub io: IoStats,
}

impl SortedRun {
    /// Removes the final run.
    pub fn cleanup(self) {
        let _ = std::fs::remove_file(self.path);
    }
}

/// A spill file this process owns, removed when dropped — so every exit
/// path (success, `?` error, panic) cleans up after itself.
#[doc(hidden)]
#[derive(Debug)]
pub struct TempFile(PathBuf);

impl TempFile {
    /// Takes ownership of the (not yet created) file at `path`.
    pub fn new(path: PathBuf) -> Self {
        TempFile(path)
    }

    /// Where the file is.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Hands the file to the caller, who becomes responsible for it.
    fn keep(mut self) -> PathBuf {
        std::mem::take(&mut self.0)
    }
}

impl AsRef<Path> for TempFile {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if !self.0.as_os_str().is_empty() {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// What one sweep of the input formed: per key (in the order given), its
/// sorted runs in input order and the total length of its keys.
pub(crate) struct FormedRuns {
    pub(crate) runs: Vec<Vec<TempFile>>,
    pub(crate) key_bytes: Vec<usize>,
    pub(crate) records: usize,
    /// One sweep: every record read once, written once per key.
    pub(crate) io: IoStats,
    /// The records in input order, when the sweep was asked to keep them.
    pub(crate) spill: Option<RecordSpill>,
}

/// The records one run formation read, in input order and in the
/// snapshot's record encoding (`mp_store::codec::put_snapshot_record`), with the
/// length and CRC-32 taken as they were written: what a bulk load commits
/// as its snapshot's `RECS` without parsing its input a second time. The
/// file goes when this is dropped.
#[derive(Debug)]
pub struct RecordSpill {
    file: TempFile,
    records: u64,
    len: u64,
    crc: u32,
}

impl RecordSpill {
    /// Opens the spill as a snapshot record source, which checks the
    /// length and CRC-32 recorded at formation as it copies.
    ///
    /// # Errors
    ///
    /// Opening the spill file failed.
    pub fn source(&self) -> io::Result<EncodedRecords<File>> {
        Ok(EncodedRecords::new(
            File::open(self.file.path())?,
            self.records,
            self.len,
            self.crc,
        ))
    }
}

/// Writes a [`RecordSpill`]: records encode into one buffer, which is
/// checksummed and written out a block at a time.
struct RecordSpillWriter {
    file: TempFile,
    out: File,
    buf: Vec<u8>,
    records: u64,
    len: u64,
    crc: Crc32,
}

/// Record-spill bytes buffered before they are checksummed and written.
const SPILL_BLOCK: usize = 64 << 10;

impl RecordSpillWriter {
    fn create(work_dir: &Path) -> io::Result<Self> {
        let file = TempFile(work_dir.join(format!("records-{}.tmp", std::process::id())));
        let out = File::create(file.path())?;
        Ok(RecordSpillWriter {
            file,
            out,
            buf: Vec::with_capacity(SPILL_BLOCK + 4096),
            records: 0,
            len: 0,
            crc: Crc32::new(),
        })
    }

    fn push(&mut self, record: &Record) -> io::Result<()> {
        codec::put_snapshot_record(&mut self.buf, record);
        self.records += 1;
        if self.buf.len() >= SPILL_BLOCK {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.crc.update(&self.buf);
        self.len += self.buf.len() as u64;
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    fn finish(mut self) -> io::Result<RecordSpill> {
        self.flush()?;
        Ok(RecordSpill {
            file: self.file,
            records: self.records,
            len: self.len,
            crc: self.crc.finalize(),
        })
    }
}

/// One memory-budget chunk as run formation holds it: per key, the
/// chunk's keys in input order, and every record's run-frame body (id,
/// entity, fields), encoded once, back to back. The parsed records
/// themselves are gone by the time the chunk is full.
struct Chunk {
    keys: Vec<KeyArena>,
    bodies: Vec<u8>,
    /// Where each record's body ends in `bodies`, and its bytes' sum.
    ends: Vec<(usize, u8)>,
}

impl Chunk {
    fn new(keys: usize, records: usize) -> Self {
        // Sized for the budget up to a point; a huge budget grows into it.
        let records = records.min(1 << 16);
        Chunk {
            keys: (0..keys)
                .map(|_| KeyArena::with_capacity(records, 20))
                .collect(),
            bodies: Vec::new(),
            ends: Vec::with_capacity(records),
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn push(&mut self, record: &Record, keys: &[KeySpec]) {
        for (arena, key) in self.keys.iter_mut().zip(keys) {
            arena.push_with(|buf| key.extract_into_append(record, buf));
        }
        let sum = put_body(&mut self.bodies, record);
        self.ends.push((self.bodies.len(), sum));
    }

    /// Record `i`'s body and its bytes' sum.
    fn body(&self, i: usize) -> (&[u8], u8) {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p].0);
        let (end, sum) = self.ends[i];
        (&self.bodies[start..end], sum)
    }

    fn clear(&mut self) {
        self.keys.iter_mut().for_each(KeyArena::clear);
        self.bodies.clear();
        self.ends.clear();
    }
}

impl ExternalSorter {
    /// A sorter for the given key and resource limits.
    ///
    /// # Panics
    ///
    /// Panics when the memory budget is zero, the fan-in is below 2, or
    /// the thread count is zero.
    pub fn new(key: KeySpec, config: ExternalConfig) -> Self {
        check_config(&config);
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
        let _ext_span = span(observer, "extsort");
        let formed = form_runs(
            std::slice::from_ref(&self.key),
            &self.config,
            input,
            work_dir,
            condition,
            false,
            observer,
        )?;
        let mut io_stats = formed.io;
        let runs = formed
            .runs
            .into_iter()
            .next()
            .expect("one key, one run list");
        let mut runs = merge_levels(runs, 1, &self.config, work_dir, 0, &mut io_stats, observer)?;

        let path = match runs.pop() {
            Some(run) => run.keep(),
            None => {
                // Empty input: produce an empty run file for uniformity.
                let empty =
                    TempFile(work_dir.join(format!("run-empty-{}.tmp", std::process::id())));
                RunWriter::create(empty.path())?.finish()?;
                empty.keep()
            }
        };
        Ok(SortedRun {
            path,
            records: formed.records,
            io: io_stats,
        })
    }

    /// The configured key.
    pub fn key(&self) -> &KeySpec {
        &self.key
    }
}

pub(crate) fn check_config(config: &ExternalConfig) {
    assert!(config.memory_records >= 1, "memory budget must be positive");
    assert!(config.fan_in >= 2, "fan-in must be at least 2");
    assert!(
        config.threads >= 1,
        "need at least one run-formation thread"
    );
}

/// Run formation for every key in one sweep of `input`: each record is
/// parsed (and conditioned) once, its key appended to every key's arena,
/// its run-frame body encoded once into the chunk, and its snapshot
/// encoding appended to the record spill when `spill_records` asks for
/// one; then it is dropped.
/// Every `memory_records` records, and at the end, each key's arena is
/// radix-sorted and spilled as key + body per record — as `threads`
/// contiguous sub-runs, so each key's run list is in input order. At no
/// point are more than `memory_records` records' bodies and keys in
/// memory, and never a parsed chunk.
///
/// Reports [`Counter::SortRuns`], [`Counter::SpillRuns`] and the run bytes
/// of [`Counter::BytesSpilled`] summed over keys, plus
/// [`Phase::RunFormation`]; opens `run_gen` and `spill` spans per run.
pub(crate) fn form_runs(
    keys: &[KeySpec],
    config: &ExternalConfig,
    input: &Path,
    work_dir: &Path,
    condition: bool,
    spill_records: bool,
    observer: &dyn PipelineObserver,
) -> io::Result<FormedRuns> {
    std::fs::create_dir_all(work_dir)?;
    sweep_stale(work_dir);
    let t_runs = Instant::now();
    let nicknames = condition.then(NicknameTable::standard);
    let stream = rio::RecordStream::new(BufReader::new(File::open(input)?));
    let mut spill = if spill_records {
        Some(RecordSpillWriter::create(work_dir)?)
    } else {
        None
    };
    let mut io_stats = IoStats::default();
    io_stats.add_sweep();

    let mut runs: Vec<Vec<TempFile>> = keys.iter().map(|_| Vec::new()).collect();
    let mut key_bytes = vec![0usize; keys.len()];
    let (mut next_run, mut bytes_spilled, mut spill_runs) = (0usize, 0u64, 0u64);
    let mut chunk = Chunk::new(keys.len(), config.memory_records);
    let mut scratch = String::new();
    let mut emit = |chunk: &Chunk| -> io::Result<()> {
        io_stats.records_read += chunk.len() as u64;
        let budget_full = chunk.len() == config.memory_records;
        let bands = spill_chunk(chunk, keys, config.threads, next_run, work_dir, observer)?;
        next_run += bands.len();
        for (k, arena) in chunk.keys.iter().enumerate() {
            key_bytes[k] += arena.bytes();
        }
        for band in bands {
            for (k, run) in band.into_iter().enumerate() {
                bytes_spilled += std::fs::metadata(run.path())?.len();
                spill_runs += u64::from(budget_full);
                runs[k].push(run);
            }
        }
        Ok(())
    };
    for record in stream {
        let mut record =
            record.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(table) = &nicknames {
            mp_record::normalize::condition_with(&mut record, table, &mut scratch);
        }
        chunk.push(&record, keys);
        if let Some(spill) = &mut spill {
            spill.push(&record)?;
        }
        if chunk.len() == config.memory_records {
            emit(&chunk)?;
            chunk.clear();
        }
    }
    if chunk.len() > 0 {
        emit(&chunk)?;
    }
    let records = io_stats.records_read as usize;
    io_stats.records_written = (records * keys.len()) as u64;
    observer.add(
        Counter::SortRuns,
        runs.iter().map(Vec::len).sum::<usize>() as u64,
    );
    observer.add(Counter::SpillRuns, spill_runs);
    observer.add(Counter::BytesSpilled, bytes_spilled);
    observer.phase_ns(Phase::RunFormation, t_runs.elapsed().as_nanos() as u64);
    Ok(FormedRuns {
        runs,
        key_bytes,
        records,
        io: io_stats,
        spill: spill.map(RecordSpillWriter::finish).transpose()?,
    })
}

/// Per key, sorts and spills one chunk as `threads` contiguous sub-runs
/// (one when `threads == 1`), each frame the key plus the record's body
/// copied out of the chunk. Worker `b` owns the `b`-th band of the chunk
/// and returns its run per key; because record ids ascend in input order,
/// each sub-run is (key, id)-sorted and the merge invariants make the
/// final order independent of the split.
fn spill_chunk(
    chunk: &Chunk,
    keys: &[KeySpec],
    threads: usize,
    first_run: usize,
    work_dir: &Path,
    observer: &dyn PipelineObserver,
) -> io::Result<Vec<Vec<TempFile>>> {
    let run_one = |band: Range<usize>, run_idx: usize| -> io::Result<Vec<TempFile>> {
        keys.iter()
            .zip(&chunk.keys)
            .enumerate()
            .map(|(k, (key, arena))| {
                let label = || format!("run {run_idx} {}", key.name());
                let gen_span = span_labeled(observer, "run_gen", label);
                let sorted = radix_order_by(band.len(), |i| arena.get(band.start + i));
                observer.add(Counter::RadixPasses, sorted.passes as u64);
                drop(gen_span);

                let _spill_span = span_labeled(observer, "spill", label);
                let run = TempFile(
                    work_dir.join(format!("run-{k}-{run_idx}-{}.tmp", std::process::id())),
                );
                let mut w = RunWriter::create(run.path())?;
                for &i in &sorted.order {
                    let i = band.start + i as usize;
                    let (body, sum) = chunk.body(i);
                    w.write_body(arena.get(i), body, sum)?;
                }
                w.finish()?;
                Ok(run)
            })
            .collect()
    };

    let threads = threads.min(chunk.len()).max(1);
    // Disjoint bands of the chunk, each spilled by a worker of its own
    // (band 0 on this thread).
    fan_out(
        band_ranges(chunk.len(), threads),
        |b| format!("run-band-{b}"),
        |b, band| run_one(band, first_run + b),
    )
    .into_iter()
    .collect()
}

/// Merges `runs` `fan_in` at a time, one full level after another, until
/// at most `target` remain — each level one sweep over the key's data.
/// A group's inputs are deleted as soon as it is merged. `tag` (the key's
/// index) keeps concurrent keys' merge files apart.
///
/// Reports [`Counter::MergeFanIn`], the merge bytes of
/// [`Counter::BytesSpilled`] and [`Phase::RunMerge`], under a `merge` span
/// — all only when a level runs.
pub(crate) fn merge_levels(
    mut runs: Vec<TempFile>,
    target: usize,
    config: &ExternalConfig,
    work_dir: &Path,
    tag: usize,
    io_stats: &mut IoStats,
    observer: &dyn PipelineObserver,
) -> io::Result<Vec<TempFile>> {
    if runs.len() <= target {
        return Ok(runs);
    }
    let t_merge = Instant::now();
    let _merge_span = span(observer, "merge");
    let (mut fed, mut bytes_spilled) = (0u64, 0u64);
    let mut level = 0usize;
    while runs.len() > target {
        io_stats.add_sweep();
        let mut next = Vec::with_capacity(runs.len().div_ceil(config.fan_in));
        let mut rest = runs.into_iter();
        loop {
            let group: Vec<TempFile> = rest.by_ref().take(config.fan_in).collect();
            if group.is_empty() {
                break;
            }
            let out = TempFile(work_dir.join(format!(
                "merge-{tag}-{level}-{}-{}.tmp",
                next.len(),
                std::process::id()
            )));
            let (read, written) = merge_group(&group, out.path())?;
            io_stats.records_read += read;
            io_stats.records_written += written;
            fed += group.len() as u64;
            bytes_spilled += std::fs::metadata(out.path())?.len();
            next.push(out);
        }
        runs = next;
        level += 1;
    }
    observer.add(Counter::MergeFanIn, fed);
    observer.add(Counter::BytesSpilled, bytes_spilled);
    observer.phase_ns(Phase::RunMerge, t_merge.elapsed().as_nanos() as u64);
    Ok(runs)
}

/// One merge step: a [`MergeStream`] over `group` drained into a run at
/// `out`, each frame copied as read. Returns `(records read, records
/// written)`.
fn merge_group(group: &[TempFile], out: &Path) -> io::Result<(u64, u64)> {
    let mut merged = MergeStream::open(group)?;
    let mut w = RunWriter::create(out)?;
    let mut frame = Frame::default();
    while merged.next_frame(&mut frame)? {
        w.write_frame(&frame)?;
    }
    Ok((merged.records_read(), w.finish()?))
}

/// Removes the run, merge and record-spill files a dead process left in
/// `work_dir` — names end in the owner's pid, and a SIGKILLed load cannot
/// clean up after itself. Runs only where `/proc` can tell a live pid
/// from a dead one; files of live processes (this one included) are left
/// alone.
fn sweep_stale(work_dir: &Path) {
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(work_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".tmp")) else {
            continue;
        };
        if !["run-", "merge-", "records-"]
            .iter()
            .any(|prefix| stem.starts_with(prefix))
        {
            continue;
        }
        let pid = stem.rsplit('-').next().and_then(|p| p.parse::<u32>().ok());
        if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// An F-way merge over (key, id)-sorted run files, yielding every entry
/// in (key, id) order: the one heap merge behind both the intermediate
/// merge levels and the bulk loader's streamed final level.
///
/// The heap holds each run's head frame read only as far as its key and
/// id. [`MergeStream::next_into`] decodes the smallest into the caller's
/// key and record; an intermediate level takes the frame itself and
/// copies it to its output run verbatim.
pub struct MergeStream {
    readers: Vec<RunReader>,
    heap: BinaryHeap<HeapEntry>,
    read: u64,
}

impl MergeStream {
    /// Opens every run in `runs` and primes the heap with their heads.
    pub fn open<P: AsRef<Path>>(runs: &[P]) -> io::Result<Self> {
        let mut readers: Vec<RunReader> = runs
            .iter()
            .map(|p| RunReader::open(p.as_ref()))
            .collect::<io::Result<_>>()?;
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (source, reader) in readers.iter_mut().enumerate() {
            let mut head = HeapEntry {
                frame: Frame::default(),
                source,
            };
            if reader.next_frame(&mut head.frame)? {
                heap.push(head);
            }
        }
        let read = heap.len() as u64;
        Ok(MergeStream {
            readers,
            heap,
            read,
        })
    }

    /// Decodes the smallest remaining entry by (key, id) into `key` and
    /// `record` and returns `true`, or returns `false` once every run is
    /// drained.
    ///
    /// # Errors
    ///
    /// A run that fails to decode; the stream is then unusable.
    pub fn next_into(&mut self, key: &mut String, record: &mut Record) -> io::Result<bool> {
        self.advance(|head| head.decode_into(key, record))
    }

    /// Swaps the smallest remaining entry's frame into `frame` and returns
    /// `true`, or returns `false` once every run is drained.
    fn next_frame(&mut self, frame: &mut Frame) -> io::Result<bool> {
        self.advance(|head| {
            std::mem::swap(frame, head);
            Ok(())
        })
    }

    /// Hands the smallest head frame to `take`, then refills it from its
    /// run in place: one sift-down (when the guard drops) instead of a
    /// pop and a push.
    fn advance(&mut self, take: impl FnOnce(&mut Frame) -> io::Result<()>) -> io::Result<bool> {
        let Some(mut top) = self.heap.peek_mut() else {
            return Ok(false);
        };
        take(&mut top.frame)?;
        let head = &mut *top;
        if self.readers[head.source].next_frame(&mut head.frame)? {
            self.read += 1;
        } else {
            PeekMut::pop(top);
        }
        Ok(true)
    }

    /// Entries read from the runs so far.
    pub fn records_read(&self) -> u64 {
        self.read
    }
}

struct HeapEntry {
    frame: Frame,
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
        chunked_str_cmp(&other.frame.key, &self.frame.key)
            .then_with(|| other.frame.id.cmp(&self.frame.id))
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_record::RecordId;

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
        let (mut key, mut r) = (String::new(), Record::empty(RecordId(0)));
        let mut got = Vec::new();
        while reader.next_into(&mut key, &mut r).unwrap() {
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

    /// Intermediate levels copy frames without decoding them: after five
    /// levels the sorted run is byte for byte what encoding every record
    /// afresh, in (key, id) order, writes.
    #[test]
    fn merge_levels_copy_frames_byte_for_byte() {
        let dir = work_dir("verbatim");
        let (input, db) = write_db(700, 5007, &dir);
        let key = KeySpec::last_name_key();
        let sorter = ExternalSorter::new(
            key.clone(),
            ExternalConfig {
                memory_records: 48,
                fan_in: 2,
                ..ExternalConfig::default()
            },
        );
        let sorted = sorter.sort(&input, &dir, false).unwrap();
        assert!(sorted.io.data_passes() >= 3, "{:?}", sorted.io);

        let keys: Vec<String> = db.records.iter().map(|r| key.extract(r)).collect();
        let mut order: Vec<usize> = (0..db.records.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let want = dir.join("want.run");
        let mut w = RunWriter::create(&want).unwrap();
        for i in order {
            w.write(&keys[i], &db.records[i]).unwrap();
        }
        w.finish().unwrap();
        assert!(std::fs::read(&sorted.path).unwrap() == std::fs::read(&want).unwrap());
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
        let (mut key, mut r) = (String::new(), Record::empty(RecordId(0)));
        assert!(!reader.next_into(&mut key, &mut r).unwrap());
        sorted.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A malformed line in the second chunk fails the sort after the
    /// first chunk's run was spilled — and takes that run with it.
    #[test]
    fn failed_sort_leaves_no_spill_files() {
        let dir = work_dir("fail");
        let (input, _) = write_db(300, 5006, &dir);
        let mut text = std::fs::read_to_string(&input).unwrap();
        let second_chunk = text.match_indices('\n').nth(150).unwrap().0 + 1;
        text.insert_str(second_chunk, "not|a|record\n");
        std::fs::write(&input, text).unwrap();
        let work = dir.join("work");
        for threads in [1usize, 2] {
            let sorter = ExternalSorter::new(
                KeySpec::last_name_key(),
                ExternalConfig {
                    memory_records: 100,
                    fan_in: 2,
                    threads,
                },
            );
            let err = sorter
                .sort(&input, &work, false)
                .err()
                .expect("corrupt input");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                entries(&work).is_empty(),
                "threads={threads}: {:?}",
                entries(&work)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Run formation sweeps away the spill files of dead processes and
    /// leaves live processes' files and foreign files alone.
    #[test]
    fn stale_spills_of_dead_processes_are_swept() {
        let dir = work_dir("sweep");
        let (input, _) = write_db(50, 5007, &dir);
        let work = dir.join("work");
        std::fs::create_dir_all(&work).unwrap();
        // pid_max is at most 2^22 on Linux, so u32::MAX is never alive.
        let dead = u32::MAX;
        let live = std::process::id();
        for name in [
            format!("run-0-3-{dead}.tmp"),
            format!("merge-1-0-2-{dead}.tmp"),
            format!("records-{dead}.tmp"),
            format!("run-0-0-{live}.tmp.keep"),
            "notes.txt".to_string(),
        ] {
            std::fs::write(work.join(name), "x").unwrap();
        }
        let sorted = ExternalSorter::new(KeySpec::last_name_key(), ExternalConfig::default())
            .sort(&input, &work, false)
            .unwrap();
        sorted.cleanup();
        let mut want = vec!["notes.txt".to_string(), format!("run-0-0-{live}.tmp.keep")];
        if !Path::new("/proc/self").exists() {
            // No way to tell a dead pid: nothing is swept.
            want.push(format!("merge-1-0-2-{dead}.tmp"));
            want.push(format!("records-{dead}.tmp"));
            want.push(format!("run-0-3-{dead}.tmp"));
            want.sort();
        }
        assert_eq!(entries(&work), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_stream_breaks_key_ties_by_id() {
        let dir = work_dir("ties");
        let runs: Vec<PathBuf> = [[("B", 1u32), ("B", 4)], [("A", 9), ("B", 2)]]
            .iter()
            .enumerate()
            .map(|(i, entries)| {
                let path = dir.join(format!("tie-{i}.run"));
                let mut w = RunWriter::create(&path).unwrap();
                for &(key, id) in entries {
                    w.write(key, &Record::empty(mp_record::RecordId(id)))
                        .unwrap();
                }
                w.finish().unwrap();
                path
            })
            .collect();
        let mut merged = MergeStream::open(&runs).unwrap();
        let (mut key, mut record) = (String::new(), Record::empty(RecordId(0)));
        let mut got = Vec::new();
        while merged.next_into(&mut key, &mut record).unwrap() {
            got.push((key.clone(), record.id.0));
        }
        let want: Vec<(String, u32)> = [("A", 9), ("B", 1), ("B", 2), ("B", 4)]
            .iter()
            .map(|&(k, id)| (k.to_string(), id))
            .collect();
        assert_eq!(got, want);
        assert_eq!(merged.records_read(), 4);
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
        let (mut key, mut rec) = (String::new(), Record::empty(RecordId(0)));
        assert!(reader.next_into(&mut key, &mut rec).unwrap());
        assert_eq!(rec.first_name, "ROBERT");
        assert_eq!(rec.last_name, "SMITH");
        sorted.cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
