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
//!   `state = last snapshot + journal replayed`, as `snapshot.mps` and
//!   `journal.mpj` in one directory.
//!
//! # Crash safety
//!
//! Batches are `fsync`ed to the journal before they are acknowledged or
//! applied. Every file that is *replaced* rather than appended to — the
//! snapshot, or the journal being reset — goes through
//! one private routine, `replace_file`: write a temporary sibling,
//! `fsync` it, atomically rename it into place, then `fsync` the
//! directory (and remove the temporary on any error). A reader therefore
//! sees either the old file or the new one, never a torn write, and that
//! ordering rule lives in exactly one function. Snapshot bytes likewise
//! come from exactly one encoder ([`SnapshotView`]), which borrows the
//! producer's state instead of copying it, and reach disk through one
//! writer ([`replace_snapshot`]). A corrupt or torn
//! journal tail is detected (CRC / framing), truncated, and surfaced in
//! [`LoadedState::truncation_reason`]; a corrupt snapshot is a hard
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
//! let seq = store.append_batch(&batch, None, &mp_metrics::NoopObserver).unwrap();
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
pub mod snapshot;

pub use journal::{Journal, JournalBatch, JournalRecovery, JOURNAL_VERSION};
pub use snapshot::{
    borrowed, EncodedRecords, PassSnapshot, RecordBytes, RecordSource, Snapshot, SnapshotView,
    SNAPSHOT_VERSION,
};

use mp_metrics::{span_labeled, PipelineObserver};
use mp_record::Record;
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
    /// The directory holds a store layout this build does not open. The
    /// message names the file and the migration.
    Unsupported(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::Poisoned(msg) => {
                write!(f, "store refuses appends until reopened: {msg}")
            }
            StoreError::Unsupported(msg) => write!(f, "unsupported store layout: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) | StoreError::Poisoned(_) | StoreError::Unsupported(_) => None,
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
/// the one snapshot writer: a checkpoint
/// ([`MatchStore::commit_snapshot`]) and a bulk load's commit. The
/// snapshot streams to disk through the one encoder with the records
/// pulled from `records` — [`borrowed`] for resident state, a bulk load's
/// record spill as [`EncodedRecords`] — so nothing is buffered whole.
/// Returns the snapshot size in bytes.
///
/// The rename is the commit point; the caller resets the journal the
/// snapshot now covers afterwards. Until it does, its frames sit at or
/// below the snapshot's watermark and recovery filters them out.
///
/// # Errors
///
/// I/O failures, a record-source error (encoded records that fail their
/// length or CRC check included), or a record-count mismatch against
/// [`SnapshotView::n_records`]; on every error path the old snapshot (if
/// any) stays in place and no temporary file is left behind.
pub fn replace_snapshot(
    dir: &Path,
    view: &SnapshotView<'_>,
    records: impl RecordSource,
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

/// Everything [`MatchStore::open`] found on disk.
#[derive(Debug)]
pub struct LoadedState {
    /// The last checkpoint, if one has ever been written.
    pub snapshot: Option<Snapshot>,
    /// Journaled batches the snapshot has not absorbed, in sequence
    /// order; replay these (oldest first) to reconstruct the pre-crash
    /// state. Each carries the trace id of its original ingest, if one
    /// was journaled, so provenance annotations replay identically.
    pub replayable: Vec<JournalBatch>,
    /// Bytes cut from a torn or corrupt journal tail (0 on a clean open).
    pub truncated_bytes: u64,
    /// Why the journal lost bytes, when it did.
    pub truncation_reason: Option<String>,
}

impl LoadedState {
    /// True when a torn or corrupt journal tail was removed.
    pub fn truncated(&self) -> bool {
        self.truncated_bytes > 0 || self.truncation_reason.is_some()
    }
}

/// Refuses a directory laid out as a sharded store (a `manifest.mpm`, or
/// a `shard-k/journal.mpj`), naming the file and touching nothing: its
/// journals would otherwise never replay.
fn refuse_sharded_layout(dir: &Path) -> Result<(), StoreError> {
    let refuse = |file: PathBuf| {
        Err(StoreError::Unsupported(format!(
            "{} belongs to a sharded store, which this build does not open: checkpoint \
             it with the build that wrote it (`send --cmd snapshot`), then remove \
             manifest.mpm and every shard-*/ directory",
            file.display()
        )))
    };
    let manifest = dir.join("manifest.mpm");
    if manifest.exists() {
        return refuse(manifest);
    }
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let journal = entry.path().join(JOURNAL_FILE);
        if entry.file_name().to_string_lossy().starts_with("shard-") && journal.exists() {
            return refuse(journal);
        }
    }
    Ok(())
}

/// A durable match-store directory: `snapshot.mps` plus the batch
/// journal `journal.mpj`.
///
/// The store itself is engine-agnostic — it persists and recovers bytes
/// with strong integrity checking; the incremental engine in the core
/// crate decides what the state means and how to replay it.
#[derive(Debug)]
pub struct MatchStore {
    dir: PathBuf,
    journal: Journal,
    /// Why an earlier journal write failed: appends are refused until
    /// the store is reopened, whose recovery drops what that write left.
    poisoned: Option<String>,
}

impl MatchStore {
    /// Opens (creating if needed) the store at `dir` and loads its state.
    ///
    /// Stale temporary files from interrupted writes are removed. The
    /// journal is scanned and a torn tail truncated (see [`journal`]);
    /// frames already covered by the snapshot are filtered out.
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt snapshot, a sequence gap below the
    /// replayable watermark, or a directory laid out as a sharded store
    /// ([`StoreError::Unsupported`], naming the file; nothing in the
    /// directory is modified).
    pub fn open(dir: impl AsRef<Path>) -> Result<(MatchStore, LoadedState), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        refuse_sharded_layout(&dir)?;
        std::fs::create_dir_all(&dir)?;
        // A crash during a replace can leave a temp file; it was never
        // renamed into place, so it is dead weight.
        for stale in [SNAPSHOT_FILE, JOURNAL_FILE] {
            let _ = std::fs::remove_file(dir.join(format!("{stale}.tmp")));
        }
        let snapshot = read_snapshot(&dir)?;
        let watermark = snapshot.as_ref().map_or(0, |s| s.batches_applied);
        let (mut journal, mut recovery) = Journal::open(&dir.join(JOURNAL_FILE))?;
        Journal::filter_replayable(&mut recovery, watermark)?;
        journal.bump_next_seq(watermark + 1);
        Ok((
            MatchStore {
                dir,
                journal,
                poisoned: None,
            },
            LoadedState {
                snapshot,
                replayable: recovery.batches,
                truncated_bytes: recovery.truncated_bytes,
                truncation_reason: recovery.truncation_reason,
            },
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next appended batch will receive.
    pub fn next_seq(&self) -> u64 {
        self.journal.next_seq()
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

    /// Journals one batch as one `fsync`ed frame; the batch is durable
    /// when this returns its sequence number. Append *before* applying
    /// the batch in memory: on a crash the journal replays it, and an
    /// unjournaled batch was never acknowledged. `trace` is the ingest
    /// trace id the frame persists (replay re-annotates provenance with
    /// it). Runs under a `shard_ingest` span labelled
    /// `shard=0 seq=S trace=T`.
    ///
    /// # Errors
    ///
    /// A failed write, after which every later append is refused
    /// ([`StoreError::Poisoned`]) until the store is reopened: a frame
    /// written in part belongs to a batch that was never acknowledged,
    /// and only the reopen's recovery removes it. Appending behind it
    /// would put an acknowledged batch where recovery cuts.
    pub fn append_batch(
        &mut self,
        records: &[Record],
        trace: Option<&str>,
        observer: &dyn PipelineObserver,
    ) -> Result<u64, StoreError> {
        if let Some(why) = &self.poisoned {
            return Err(StoreError::Poisoned(why.clone()));
        }
        let seq = self.journal.next_seq();
        let _span = span_labeled(observer, "shard_ingest", || {
            format!("shard=0 seq={seq} trace={}", trace.unwrap_or("-"))
        });
        self.journal.append(records, trace).inspect_err(|e| {
            self.poisoned = Some(format!("append at seq {seq}: {e}"));
        })
    }

    /// Atomically replaces the snapshot with the state `view` borrows
    /// ([`replace_snapshot`]) and resets the journal, whose batches the
    /// snapshot now covers. Returns the snapshot size in bytes.
    ///
    /// Crash-ordering: the snapshot rename is the commit point. A crash
    /// before it keeps the old snapshot + full journal; a crash after it
    /// leaves frames at or below the new watermark, which the next open
    /// filters out.
    ///
    /// # Errors
    ///
    /// I/O failures, a record-iterator error, or a record-count mismatch
    /// against [`SnapshotView::n_records`]; on every such error the old
    /// snapshot (if any) and the journal stay in place and no temporary
    /// file is left behind. A failed journal reset poisons the store, as a
    /// failed append does.
    pub fn commit_snapshot(
        &mut self,
        view: &SnapshotView<'_>,
        records: impl RecordSource,
    ) -> Result<u64, StoreError> {
        let bytes = replace_snapshot(&self.dir, view, records)?;
        self.journal
            .reset(view.batches_applied + 1)
            .inspect_err(|e| self.poisoned = Some(format!("journal reset: {e}")))?;
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
                r.last_name = format!("B{tag}R{i}").into();
                r
            })
            .collect()
    }

    /// A snapshot of `records`, renumbered by position as a snapshot's
    /// records are.
    fn snap_of(mut records: Vec<Record>, batches_applied: u64) -> Snapshot {
        let n = records.len();
        for (i, r) in records.iter_mut().enumerate() {
            r.id = RecordId(i as u32);
        }
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
            .append_batch(&batch(1, 2), None, &NoopObserver)
            .unwrap();
        store
            .append_batch(&batch(2, 2), None, &NoopObserver)
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
            .append_batch(&batch(3, 1), None, &NoopObserver)
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
            .append_batch(&batch(1, 2), None, &NoopObserver)
            .unwrap();
        store
            .append_batch(&batch(2, 2), None, &NoopObserver)
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

    /// A commit fed encoded records — a bulk load's record spill — writes
    /// the bytes a commit of the same records does; one whose bytes differ
    /// from what was recorded when they were written, in length or in CRC,
    /// fails and leaves the directory as it found it: no snapshot, no
    /// temporary file.
    #[test]
    fn encoded_records_commit_only_when_their_length_and_crc_hold() {
        let records = batch(1, 40);
        let snap = snap_of(records.clone(), 1);
        let mut encoded = Vec::new();
        for r in &records {
            codec::put_snapshot_record(&mut encoded, r);
        }
        let (n, len, crc) = (40, encoded.len() as u64, codec::crc32(&encoded));

        let dir = tmp_dir("encoded-good");
        std::fs::create_dir_all(&dir).unwrap();
        let source = EncodedRecords::new(encoded.as_slice(), n, len, crc);
        replace_snapshot(&dir, &snap.view(), source).unwrap();
        assert_eq!(
            std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
            snap.encode()
        );
        std::fs::remove_dir_all(&dir).unwrap();

        let mut flipped = encoded.clone();
        flipped[len as usize / 2] ^= 0x20;
        let cases: [(&str, &[u8], u64, u32, &str); 4] = [
            (
                "recorded length too short",
                &encoded,
                len - 1,
                crc,
                "run past",
            ),
            (
                "recorded length too long",
                &encoded,
                len + 1,
                crc,
                "end after",
            ),
            (
                "source cut short",
                &encoded[..len as usize - 3],
                len,
                crc,
                "end after",
            ),
            ("a byte differs", &flipped, len, crc, "CRC-32"),
        ];
        for (what, bytes, len, crc, says) in cases {
            let dir = tmp_dir("encoded-bad");
            std::fs::create_dir_all(&dir).unwrap();
            let source = EncodedRecords::new(bytes, n, len, crc);
            let err = replace_snapshot(&dir, &snap.view(), source).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{what}: {err}");
            assert!(err.to_string().contains(says), "{what}: {err}");
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert!(names.is_empty(), "{what}: {names:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn failed_commit_leaves_no_temp_file_and_the_old_state_recovers() {
        let dir = tmp_dir("failed-commit");
        let (mut store, _) = MatchStore::open(&dir).unwrap();
        store
            .append_batch(&batch(1, 3), None, &NoopObserver)
            .unwrap();
        store.write_snapshot(&snap_of(batch(1, 3), 1)).unwrap();
        store
            .append_batch(&batch(2, 2), None, &NoopObserver)
            .unwrap();
        let good_snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let good_journal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();

        let mut all = batch(1, 3);
        all.extend(batch(2, 2));
        let next = snap_of(all, 2);
        let all = &next.records;
        // A record source that dies half way, then one that comes up short.
        let dying = borrowed(all)
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
            .append_batch(&batch(1, 3), None, &NoopObserver)
            .unwrap();
        // The next append writes part of its frame, then fails: the torn
        // bytes land on disk and the handle turns read-only.
        let path = dir.join(JOURNAL_FILE);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"MPJF\x02\0\0\0").unwrap();
        let writable = store.journal.swap_file(std::fs::File::open(&path).unwrap());
        let err = store.append_batch(&batch(2, 2), None, &NoopObserver);
        assert!(matches!(err, Err(StoreError::Io(_))), "{err:?}");
        // The fault clears, but the store still refuses: an acknowledged
        // batch behind the torn bytes would be cut by the next open.
        store.journal.swap_file(writable);
        match store.append_batch(&batch(3, 2), None, &NoopObserver) {
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
                .append_batch(&batch(4, 1), None, &NoopObserver)
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

    /// Every file of `dir`, relative path to bytes.
    fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(tree(&path));
            } else {
                out.push((path.clone(), std::fs::read(&path).unwrap()));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn a_sharded_store_is_refused_by_name_and_left_untouched() {
        let legacy = |name: &str, files: &[&str]| {
            let dir = tmp_dir(name);
            std::fs::create_dir_all(dir.join("shard-0")).unwrap();
            for (i, file) in files.iter().enumerate() {
                std::fs::write(dir.join(file), [b'x', i as u8]).unwrap();
            }
            dir
        };
        for (name, files, named) in [
            (
                "legacy-manifest",
                &["manifest.mpm", "snapshot.mps", "shard-0/journal.mpj"][..],
                "manifest.mpm",
            ),
            ("legacy-shard", &["shard-0/journal.mpj"][..], "shard-0"),
            (
                "legacy-tmp",
                &["manifest.mpm", "snapshot.mps.tmp"][..],
                "manifest.mpm",
            ),
        ] {
            let dir = legacy(name, files);
            let before = tree(&dir);
            match MatchStore::open(&dir) {
                Err(StoreError::Unsupported(msg)) => {
                    assert!(msg.contains(named), "{msg}");
                    assert!(msg.contains("remove"), "names the migration: {msg}");
                }
                other => panic!("{name}: a sharded store must be refused: {other:?}"),
            }
            assert_eq!(tree(&dir), before, "{name}: refusal modifies nothing");
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
