#![warn(missing_docs)]

//! Durable match-store for incremental merge/purge.
//!
//! The paper's §1 motivating workload is a *monthly cycle*: each month a
//! new batch of records is merged against the ever-growing cleaned base.
//! The natural production shape is therefore a long-lived service holding
//! accumulated state — records, per-pass sorted key indexes, the matched
//! pair set, and the union-find closure — that must survive process
//! restarts and crashes mid-batch. This crate is that persistence layer:
//!
//! * [`Snapshot`] — a versioned binary checkpoint of the full state, every
//!   section CRC-32-protected ([`snapshot`] documents the layout);
//! * [`Journal`] — an append-only batch log with torn-tail detection and
//!   truncation ([`journal`] documents the recovery semantics);
//! * [`MatchStore`] — the directory-level API tying them together:
//!   `state = last snapshot + journals replayed`, with one journal per
//!   shard beside the one snapshot ([`sharded`] documents the layouts and
//!   the complete-scatter recovery).
//!
//! # Crash safety
//!
//! Batches are `fsync`ed to the journal before they are acknowledged or
//! applied. Every file that is *replaced* rather than appended to — the
//! snapshot, the sharded manifest, a journal being reset — goes through
//! one private routine, `replace_file`: write a temporary sibling,
//! `fsync` it, atomically rename it into place, then `fsync` the
//! directory (and remove the temporary on any error). A reader therefore
//! sees either the old file or the new one, never a torn write, and that
//! ordering rule lives in exactly one function. Snapshot bytes likewise
//! come from exactly one encoder ([`SnapshotView`]), which borrows the
//! producer's state instead of copying it, and reach disk through one
//! writer ([`replace_snapshot`]) whatever the layout. A corrupt or torn
//! journal tail is detected (CRC / framing), truncated, and surfaced in
//! [`LoadedState::truncation_reasons`]; a corrupt snapshot is a hard
//! [`StoreError::Corrupt`], never silently loaded. A journal write that
//! fails poisons the store: it refuses appends until it is reopened, so
//! no acknowledged batch lands behind bytes that recovery will cut.
//!
//! ```
//! use mp_store::{MatchStore, Snapshot};
//! use mp_closure::UnionFind;
//! use mp_record::{Record, RecordId};
//!
//! let dir = std::env::temp_dir().join(format!("mp-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let (mut store, loaded) = MatchStore::open(&dir).unwrap();
//! assert!(loaded.snapshot.is_none());
//!
//! // Journal a batch (durable once this returns), then checkpoint.
//! let batch = vec![Record::empty(RecordId(0))];
//! let seq = store.append_batch(&[&batch], None, &mp_metrics::NoopObserver).unwrap();
//! assert_eq!(seq, 1);
//! let snap = Snapshot {
//!     records: batch,
//!     passes: vec![],
//!     pairs: vec![],
//!     closure: UnionFind::new(1),
//!     comparisons: 0,
//!     batches_applied: 1,
//!     provenance: mp_closure::ProvenanceLog::new(),
//! };
//! store.write_snapshot(&snap).unwrap();
//!
//! // Reopen: the snapshot loads, and the journal has nothing to replay.
//! drop(store);
//! let (_store, loaded) = MatchStore::open(&dir).unwrap();
//! assert_eq!(loaded.snapshot.unwrap().batches_applied, 1);
//! assert!(loaded.replayable.is_empty());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod codec;
pub mod journal;
pub mod sharded;
pub mod snapshot;

pub use journal::{Journal, JournalBatch, JournalRecovery, JOURNAL_VERSION};
pub use sharded::MANIFEST_FILE;
pub use snapshot::{borrowed, PassSnapshot, Snapshot, SnapshotView, SNAPSHOT_VERSION};

use mp_metrics::{span_labeled, PipelineObserver};
use mp_record::Record;
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// File name of the snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.mps";
/// File name of the batch journal inside a store directory.
pub const JOURNAL_FILE: &str = "journal.mpj";

/// Errors produced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// On-disk data failed validation (bad magic, CRC mismatch, structural
    /// inconsistency). The message names the file and section.
    Corrupt(String),
    /// An earlier journal write failed; the store refuses appends until
    /// it is reopened. The message names the failed write.
    Poisoned(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::Poisoned(msg) => {
                write!(f, "store refuses appends until reopened: {msg}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) | StoreError::Poisoned(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Atomically replaces the file at `path` with what `write` produces —
/// the one place the store's crash-ordering rule lives:
///
/// 1. create `<path>.tmp` and let `write` fill it;
/// 2. `fsync` the temporary (its bytes are durable before they are
///    visible);
/// 3. `rename` it over `path` — the commit point: a crash before it
///    leaves the old file, a crash after it the new one, never a mix;
/// 4. `fsync` the directory so the rename itself survives a crash.
///
/// On any error before the rename the temporary is removed, so a failed
/// commit leaves nothing behind (a *crash* can still leave one; the
/// `open` paths sweep `*.tmp`). Returns what `write` returned.
pub(crate) fn replace_file<T>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let committed: Result<T, StoreError> = (|| {
        let mut file = File::create(&tmp)?;
        let out = write(&mut file)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(out)
    })();
    if committed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    let out = committed?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(out)
}

/// Atomically replaces `dir/snapshot.mps` with the state `view` borrows —
/// the one snapshot writer behind every store layout: a checkpoint
/// ([`MatchStore::commit_snapshot`]) and a bulk load's commit. The snapshot streams to disk through the one
/// encoder with the records pulled one at a time from `records` —
/// [`borrowed`] for resident state, a file stream for a bulk load — so
/// nothing is copied or buffered whole. Returns the snapshot size in
/// bytes.
///
/// The rename is the commit point; the caller resets the journals the
/// snapshot now covers afterwards. Until it does, their frames sit at or
/// below the snapshot's watermark and recovery filters them out.
///
/// # Errors
///
/// I/O failures, a record-iterator error, or a record-count mismatch
/// against [`SnapshotView::n_records`]; on every error path the old
/// snapshot (if any) stays in place and no temporary file is left behind.
pub fn replace_snapshot<'r>(
    dir: &Path,
    view: &SnapshotView<'_>,
    records: impl Iterator<Item = io::Result<Cow<'r, Record>>>,
) -> Result<u64, StoreError> {
    replace_file(&dir.join(SNAPSHOT_FILE), |file| {
        view.write_to(file, records)
    })
}

/// Reads and validates `dir/snapshot.mps`, or `None` when no checkpoint
/// has ever been written there.
fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>, StoreError> {
    match File::open(dir.join(SNAPSHOT_FILE)) {
        Ok(mut f) => {
            let mut data = Vec::new();
            f.read_to_end(&mut data)?;
            Ok(Some(Snapshot::decode(&data)?))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Everything [`MatchStore::open_shards`] found on disk.
#[derive(Debug)]
pub struct LoadedState {
    /// The last checkpoint, if one has ever been written.
    pub snapshot: Option<Snapshot>,
    /// Batches every journal holds and the snapshot has not absorbed, in
    /// sequence order; replay these (oldest first) to reconstruct the
    /// pre-crash state. A sharded batch is its shard frames reassembled
    /// in record-id order. Each carries the trace id of its original
    /// ingest, if one was journaled, so provenance annotations replay
    /// identically.
    pub replayable: Vec<JournalBatch>,
    /// Per-shard count of *non-empty* frames among the replayable batches
    /// (an empty frame is sequence padding, not replay work).
    pub shard_replays: Vec<u64>,
    /// Bytes cut from torn tails and orphan frames, over every journal.
    pub truncated_bytes: u64,
    /// One reason per journal that lost bytes (prefixed `shard k: ` in a
    /// sharded store).
    pub truncation_reasons: Vec<String>,
}

impl LoadedState {
    /// True when a torn, corrupt or orphaned journal tail was removed.
    pub fn truncated(&self) -> bool {
        !self.truncation_reasons.is_empty()
    }
}

/// A durable match-store directory: `snapshot.mps` plus one batch journal
/// per shard — the root `journal.mpj` for one shard, `manifest.mpm` and
/// `shard-k/journal.mpj` for N ≥ 2 ([`sharded`] documents that layout).
///
/// The store itself is engine-agnostic — it persists and recovers bytes
/// with strong integrity checking; the incremental engine in the core
/// crate decides what the state means, how a batch is routed to shards,
/// and how to replay it.
#[derive(Debug)]
pub struct MatchStore {
    dir: PathBuf,
    journals: Vec<Journal>,
    next_seq: u64,
    /// Why an earlier journal write failed: appends are refused until
    /// the store is reopened, whose recovery drops what that write left.
    poisoned: Option<String>,
}

impl MatchStore {
    /// [`MatchStore::open_shards`] with one shard: the single-worker
    /// layout.
    pub fn open(dir: impl AsRef<Path>) -> Result<(MatchStore, LoadedState), StoreError> {
        Self::open_shards(dir, 1)
    }

    /// Opens (creating if needed) the store at `dir` with `shards`
    /// journals and loads its state.
    ///
    /// Stale temporary files from interrupted writes are removed. Every
    /// journal is scanned and torn tails truncated (see [`journal`]);
    /// frames already covered by the snapshot are filtered out. A batch
    /// is replayable iff *every* journal holds its frame: trailing frames
    /// of an incomplete scatter (the batch was never acknowledged) are
    /// physically truncated, so their sequence numbers are reused. One
    /// shard is the N = 1 case of that rule.
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt manifest or snapshot, a sequence gap below
    /// the replayable watermark, or a store made with another shard count
    /// (the shard count is fixed at creation, and the other layout's
    /// journals would never be replayed).
    ///
    /// # Panics
    ///
    /// Panics when `shards` is 0.
    pub fn open_shards(
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<(MatchStore, LoadedState), StoreError> {
        assert!(shards >= 1, "need at least one shard");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A crash during a replace can leave a temp file; it was never
        // renamed into place, so it is dead weight.
        for stale in [SNAPSHOT_FILE, JOURNAL_FILE, MANIFEST_FILE] {
            let _ = std::fs::remove_file(dir.join(format!("{stale}.tmp")));
        }
        let paths = sharded::journal_paths(&dir, shards)?;
        let snapshot = read_snapshot(&dir)?;
        let watermark = snapshot.as_ref().map_or(0, |s| s.batches_applied);

        let mut journals = Vec::with_capacity(shards);
        let mut recoveries = Vec::with_capacity(shards);
        let mut truncated_bytes = 0u64;
        let mut truncation_reasons = Vec::new();
        let label = |k: usize| match shards {
            1 => String::new(),
            _ => format!("shard {k}: "),
        };
        for (k, path) in paths.iter().enumerate() {
            let (journal, mut rec) = Journal::open(path)?;
            truncated_bytes += rec.truncated_bytes;
            if let Some(r) = &rec.truncation_reason {
                truncation_reasons.push(format!("{}{r}", label(k)));
            }
            Journal::filter_replayable(&mut rec, watermark)?;
            journals.push(journal);
            recoveries.push(rec);
        }
        // The last complete sequence is the minimum of the journals' tails.
        let last_complete = recoveries
            .iter()
            .map(|r| r.batches.last().map_or(watermark, |b| b.seq))
            .min()
            .unwrap_or(watermark);

        let mut shard_replays = vec![0u64; shards];
        let mut replayable: Vec<JournalBatch> = (watermark + 1..=last_complete)
            .map(|seq| JournalBatch {
                seq,
                records: Vec::new(),
                trace: None,
            })
            .collect();
        for (k, (journal, rec)) in journals.iter_mut().zip(&mut recoveries).enumerate() {
            let orphans = rec.batches.iter().filter(|b| b.seq > last_complete).count();
            if orphans > 0 {
                let kept = |(s, e): &(u64, u64)| (*s <= last_complete).then_some(*e);
                let end = rec.frame_ends.iter().filter_map(kept).max();
                let end = end.unwrap_or(journal::HEADER_LEN as u64);
                let file_len = rec.frame_ends.last().map_or(end, |&(_, e)| e);
                journal.truncate_to(end, last_complete + 1)?;
                truncated_bytes += file_len - end;
                truncation_reasons.push(format!(
                    "{}dropped {orphans} orphan frame(s) of an incomplete scatter \
                     (batch never acknowledged)",
                    label(k)
                ));
                rec.batches.retain(|b| b.seq <= last_complete);
            }
            journal.bump_next_seq(last_complete + 1);
            for b in std::mem::take(&mut rec.batches) {
                shard_replays[k] += u64::from(!b.records.is_empty());
                let slot = &mut replayable[(b.seq - watermark - 1) as usize];
                if slot.records.is_empty() {
                    slot.records = b.records;
                } else {
                    slot.records.extend(b.records);
                }
                // Every frame of a batch journals the same trace.
                slot.trace = slot.trace.take().or(b.trace);
            }
        }
        if shards > 1 {
            // Shard frames carry global ids; id order is arrival order.
            for b in &mut replayable {
                b.records.sort_by_key(|r| r.id.0);
            }
        }

        Ok((
            MatchStore {
                dir,
                journals,
                next_seq: last_complete + 1,
                poisoned: None,
            },
            LoadedState {
                snapshot,
                replayable,
                shard_replays,
                truncated_bytes,
                truncation_reasons,
            },
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shard journals (fixed at store creation).
    pub fn shards(&self) -> usize {
        self.journals.len()
    }

    /// Sequence number the next appended batch will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Why the store refuses appends, when an earlier journal write
    /// failed ([`MatchStore::append_batch`]).
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Size in bytes and modification time of the current snapshot file,
    /// or `None` when no checkpoint has ever been written. The
    /// modification time is the wall-clock moment of the last atomic
    /// snapshot rename, so `now − mtime` is the snapshot's *staleness* —
    /// the serving daemon exports it as the `snapshot_age_seconds` gauge.
    pub fn snapshot_meta(&self) -> Option<(u64, std::time::SystemTime)> {
        let md = std::fs::metadata(self.dir.join(SNAPSHOT_FILE)).ok()?;
        Some((md.len(), md.modified().ok()?))
    }

    /// Journals one batch as one frame per shard journal, in shard order
    /// on the calling thread, every frame with the same sequence number
    /// (an empty frame keeps a shard's sequence in step) and each
    /// `fsync`ed; the batch is durable when this returns its sequence
    /// number. Append *before* applying the batch in memory: on a crash
    /// the journals replay it, and an unjournaled batch was never
    /// acknowledged. `trace` is the ingest trace id each frame persists
    /// (replay re-annotates provenance with it). Each append runs under a
    /// `shard_ingest` span labelled `shard=k seq=S trace=T`.
    ///
    /// # Errors
    ///
    /// A failed write, after which every later append is refused
    /// ([`StoreError::Poisoned`]) until the store is reopened: a frame
    /// written in part, or written to some journals only, belongs to a
    /// batch that was never acknowledged, and only the reopen's recovery
    /// removes it. Appending behind it would put an acknowledged batch
    /// where recovery cuts.
    ///
    /// # Panics
    ///
    /// Panics unless `frames` holds one frame per shard journal.
    pub fn append_batch<R: AsRef<[Record]>>(
        &mut self,
        frames: &[R],
        trace: Option<&str>,
        observer: &dyn PipelineObserver,
    ) -> Result<u64, StoreError> {
        assert_eq!(frames.len(), self.journals.len(), "one frame per shard");
        if let Some(why) = &self.poisoned {
            return Err(StoreError::Poisoned(why.clone()));
        }
        let seq = self.next_seq;
        for (k, (journal, frame)) in self.journals.iter_mut().zip(frames).enumerate() {
            let _span = span_labeled(observer, "shard_ingest", || {
                format!("shard={k} seq={seq} trace={}", trace.unwrap_or("-"))
            });
            if let Err(e) = journal.append(frame.as_ref(), trace) {
                self.poisoned = Some(format!("shard {k} append at seq {seq}: {e}"));
                return Err(e);
            }
        }
        self.next_seq += 1;
        Ok(seq)
    }

    /// Atomically replaces the snapshot with the state `view` borrows
    /// ([`replace_snapshot`]) and resets every journal, whose batches the
    /// snapshot now covers. Returns the snapshot size in bytes.
    ///
    /// Crash-ordering: the snapshot rename is the commit point. A crash
    /// before it keeps the old snapshot + full journals; a crash after it
    /// leaves frames at or below the new watermark, which the next open
    /// filters out, whichever journals had already been reset.
    ///
    /// # Errors
    ///
    /// I/O failures, a record-iterator error, or a record-count mismatch
    /// against [`SnapshotView::n_records`]; on every such error the old
    /// snapshot (if any) and the journals stay in place and no temporary
    /// file is left behind. A failed journal reset poisons the store, as a
    /// failed append does.
    pub fn commit_snapshot<'r>(
        &mut self,
        view: &SnapshotView<'_>,
        records: impl Iterator<Item = io::Result<Cow<'r, Record>>>,
    ) -> Result<u64, StoreError> {
        let bytes = replace_snapshot(&self.dir, view, records)?;
        self.next_seq = view.batches_applied + 1;
        for (k, journal) in self.journals.iter_mut().enumerate() {
            if let Err(e) = journal.reset(self.next_seq) {
                self.poisoned = Some(format!("shard {k} journal reset: {e}"));
                return Err(e);
            }
        }
        Ok(bytes)
    }

    /// [`MatchStore::commit_snapshot`] of an owned [`Snapshot`].
    pub fn write_snapshot(&mut self, snap: &Snapshot) -> Result<u64, StoreError> {
        self.commit_snapshot(&snap.view(), borrowed(&snap.records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_closure::UnionFind;
    use mp_metrics::NoopObserver;
    use mp_record::RecordId;
    use std::io::Write;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn batch(tag: u32, n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let mut r = Record::empty(RecordId(i));
                r.last_name = format!("B{tag}R{i}");
                r
            })
            .collect()
    }

    fn snap_of(records: Vec<Record>, batches_applied: u64) -> Snapshot {
        let n = records.len();
        Snapshot {
            records,
            passes: vec![],
            pairs: vec![],
            closure: UnionFind::new(n),
            comparisons: 0,
            batches_applied,
            provenance: mp_closure::ProvenanceLog::new(),
        }
    }

    #[test]
    fn journal_then_snapshot_then_journal() {
        let dir = tmp_dir("cycle");
        let (mut store, loaded) = MatchStore::open(&dir).unwrap();
        assert!(loaded.snapshot.is_none() && loaded.replayable.is_empty());
        store
            .append_batch(&[batch(1, 2)], None, &NoopObserver)
            .unwrap();
        store
            .append_batch(&[batch(2, 2)], None, &NoopObserver)
            .unwrap();
        drop(store);

        // Crash before any snapshot: both batches replay.
        let (mut store, loaded) = MatchStore::open(&dir).unwrap();
        assert!(loaded.snapshot.is_none());
        assert_eq!(loaded.replayable.len(), 2);
        assert_eq!(store.next_seq(), 3);

        // Snapshot absorbs them; journal resets.
        let mut all = batch(1, 2);
        all.extend(batch(2, 2));
        store.write_snapshot(&snap_of(all, 2)).unwrap();
        store
            .append_batch(&[batch(3, 1)], None, &NoopObserver)
            .unwrap();
        drop(store);

        let (_, loaded) = MatchStore::open(&dir).unwrap();
        assert_eq!(loaded.snapshot.as_ref().unwrap().batches_applied, 2);
        assert_eq!(loaded.replayable.len(), 1);
        assert_eq!(loaded.replayable[0].seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_snapshot_rename_and_journal_reset_is_handled() {
        let dir = tmp_dir("rename-crash");
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        store
            .append_batch(&[batch(1, 2)], None, &NoopObserver)
            .unwrap();
        store
            .append_batch(&[batch(2, 2)], None, &NoopObserver)
            .unwrap();
        drop(store);
        // Simulate the crash window: write the snapshot file directly
        // without touching the journal (as if we died mid-write_snapshot).
        let mut all = batch(1, 2);
        all.extend(batch(2, 2));
        std::fs::write(dir.join(SNAPSHOT_FILE), snap_of(all, 2).encode()).unwrap();

        let (store, loaded) = MatchStore::open(&dir).unwrap();
        assert_eq!(loaded.snapshot.as_ref().unwrap().batches_applied, 2);
        assert!(
            loaded.replayable.is_empty(),
            "stale journal frames must be filtered by sequence number"
        );
        assert_eq!(store.next_seq(), 3, "seq resumes above the watermark");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_commit_leaves_no_temp_file_and_the_old_state_recovers() {
        let dir = tmp_dir("failed-commit");
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        store
            .append_batch(&[batch(1, 3)], None, &NoopObserver)
            .unwrap();
        store.write_snapshot(&snap_of(batch(1, 3), 1)).unwrap();
        store
            .append_batch(&[batch(2, 2)], None, &NoopObserver)
            .unwrap();
        let good_snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let good_journal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();

        let mut all = batch(1, 3);
        all.extend(batch(2, 2));
        let next = snap_of(all.clone(), 2);
        // A record source that dies half way, then one that comes up short.
        let dying = borrowed(&all)
            .take(2)
            .chain(std::iter::once(Err(io::Error::other("input vanished"))));
        let err = store.commit_snapshot(&next.view(), dying).unwrap_err();
        assert!(err.to_string().contains("input vanished"), "{err}");
        let err = store
            .commit_snapshot(&next.view(), borrowed(&all[..4]))
            .unwrap_err();
        assert!(err.to_string().contains("yielded 4"), "{err}");

        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
        assert_eq!(
            std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
            good_snapshot
        );
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).unwrap(), good_journal);
        drop(store);
        let (mut store, loaded) = MatchStore::open(&dir).unwrap();
        assert_eq!(loaded.snapshot.unwrap().batches_applied, 1);
        assert_eq!(loaded.replayable.len(), 1, "journal still replays batch 2");
        // And the store is still writable: the real commit goes through.
        store.write_snapshot(&next).unwrap();
        assert_eq!(store.next_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_append_refuses_every_later_append_until_reopen() {
        let dir = tmp_dir("failed-append");
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        store
            .append_batch(&[batch(1, 3)], None, &NoopObserver)
            .unwrap();
        // The next append writes part of its frame, then fails: the torn
        // bytes land on disk and the handle turns read-only.
        let path = dir.join(JOURNAL_FILE);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"MPJF\x02\0\0\0").unwrap();
        let writable = store.journals[0].swap_file(std::fs::File::open(&path).unwrap());
        let err = store.append_batch(&[batch(2, 2)], None, &NoopObserver);
        assert!(matches!(err, Err(StoreError::Io(_))), "{err:?}");
        // The fault clears, but the store still refuses: an acknowledged
        // batch behind the torn bytes would be cut by the next open.
        store.journals[0].swap_file(writable);
        match store.append_batch(&[batch(3, 2)], None, &NoopObserver) {
            Err(StoreError::Poisoned(msg)) => assert!(msg.contains("seq 2"), "{msg}"),
            other => panic!("a poisoned store must refuse appends: {other:?}"),
        }
        assert!(store.poisoned().is_some());
        drop(store);

        // Reopen: the torn frame is cut, exactly the acknowledged batch
        // replays, and appends resume at the refused sequence number.
        let (mut store, loaded) = MatchStore::open(&dir).unwrap();
        assert!(loaded.truncated() && loaded.truncated_bytes == 8);
        assert_eq!(loaded.replayable.len(), 1);
        assert_eq!(loaded.replayable[0].records, batch(1, 3));
        assert_eq!(
            store
                .append_batch(&[batch(4, 1)], None, &NoopObserver)
                .unwrap(),
            2
        );
        drop(store);
        let (_, loaded) = MatchStore::open(&dir).unwrap();
        let replayed: Vec<_> = loaded
            .replayable
            .iter()
            .map(|b| b.records.clone())
            .collect();
        assert_eq!(replayed, vec![batch(1, 3), batch(4, 1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_shard_append_refuses_later_appends_and_drops_its_orphans() {
        let dir = tmp_dir("failed-scatter");
        let (mut store, _) = MatchStore::open_shards(&dir, 2).unwrap();
        let frames = |tag: u32| [batch(tag, 1), batch(tag + 100, 1)];
        store.append_batch(&frames(1), None, &NoopObserver).unwrap();
        // Shard 0 journals batch 2; shard 1's append fails.
        let path = dir.join("shard-1").join(JOURNAL_FILE);
        let writable = store.journals[1].swap_file(std::fs::File::open(&path).unwrap());
        assert!(store.append_batch(&frames(2), None, &NoopObserver).is_err());
        store.journals[1].swap_file(writable);
        assert!(matches!(
            store.append_batch(&frames(3), None, &NoopObserver),
            Err(StoreError::Poisoned(_))
        ));
        drop(store);
        let (_, loaded) = MatchStore::open_shards(&dir, 2).unwrap();
        assert_eq!(loaded.replayable.len(), 1, "only the acknowledged batch");
        assert!(loaded.truncation_reasons[0].starts_with("shard 0: dropped 1 orphan"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_file_removes_its_temp_when_the_writer_fails() {
        let dir = tmp_dir("replace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        replace_file(&path, |f| Ok(f.write_all(b"old")?)).unwrap();
        let err = replace_file(&path, |f| {
            f.write_all(b"half of the new")?;
            Err::<(), _>(StoreError::Corrupt("writer gave up".into()))
        })
        .unwrap_err();
        assert!(err.to_string().contains("gave up"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert!(!dir.join("target.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = tmp_dir("corrupt-snap");
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        store.write_snapshot(&snap_of(batch(1, 3), 1)).unwrap();
        drop(store);
        let path = dir.join(SNAPSHOT_FILE);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        match MatchStore::open(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("snapshot"), "{msg}"),
            other => panic!("corrupt snapshot must not load: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_meta_tracks_the_checkpoint_file() {
        let dir = tmp_dir("meta");
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        assert!(store.snapshot_meta().is_none(), "no checkpoint yet");
        let written = store.write_snapshot(&snap_of(batch(1, 3), 1)).unwrap();
        let (bytes, mtime) = store.snapshot_meta().expect("checkpoint exists");
        assert_eq!(bytes, written);
        assert!(mtime <= std::time::SystemTime::now());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_cleaned_up() {
        let dir = tmp_dir("stale-tmp");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{SNAPSHOT_FILE}.tmp")), b"half a snapshot").unwrap();
        let (_store, loaded) = MatchStore::open(&dir).unwrap();
        assert!(loaded.snapshot.is_none());
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
