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
//!   `state = last snapshot + journal replayed`.
//!
//! # Crash safety
//!
//! Batches are `fsync`ed to the journal before they are acknowledged or
//! applied. Every file that is *replaced* rather than appended to — the
//! snapshot, a shard's snapshot slice, the sharded manifest, a journal
//! being reset — goes through one private routine, `replace_file`: write
//! a temporary sibling, `fsync` it, atomically rename it into place, then
//! `fsync` the directory (and remove the temporary on any error). A
//! reader therefore sees either the old file or the new one, never a torn
//! write, and that ordering rule lives in exactly one function. Snapshot
//! bytes likewise come from exactly one encoder ([`SnapshotView`]),
//! which borrows the producer's state instead of copying it. A corrupt or
//! torn journal tail is detected (CRC / framing), truncated, and surfaced
//! in [`LoadedState::recovery`]; a corrupt snapshot is a hard
//! [`StoreError::Corrupt`], never silently loaded.
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
//! let seq = store.append_batch(&batch, None).unwrap();
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
pub use sharded::{
    merge_shard_snapshots, write_shard_snapshot, ShardSnapshot, ShardedLoaded, ShardedStore,
    MANIFEST_FILE,
};
pub use snapshot::{borrowed, PassSnapshot, Snapshot, SnapshotView, SNAPSHOT_VERSION};

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
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
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

/// Everything [`MatchStore::open`] found on disk.
#[derive(Debug)]
pub struct LoadedState {
    /// The last checkpoint, if one has ever been written.
    pub snapshot: Option<Snapshot>,
    /// Journaled batches the snapshot has not absorbed, in sequence order;
    /// replay these (oldest first) to reconstruct the pre-crash state.
    /// Each carries the trace id of its original ingest, if one was
    /// journaled, so provenance annotations replay identically.
    pub replayable: Vec<JournalBatch>,
    /// Journal scan outcome, including any torn-tail truncation.
    pub recovery: JournalRecovery,
}

/// A durable match-store directory: `snapshot.mps` + `journal.mpj`.
///
/// The store itself is engine-agnostic — it persists and recovers bytes
/// with strong integrity checking; the incremental engine in the core
/// crate decides what the state means and how to replay a batch.
#[derive(Debug)]
pub struct MatchStore {
    dir: PathBuf,
    journal: Journal,
}

impl MatchStore {
    /// Opens (creating if needed) the store at `dir` and loads its state.
    ///
    /// Stale temporary files from interrupted snapshot writes are removed.
    /// The journal is scanned and torn tails truncated (see
    /// [`journal`]); frames already covered by the snapshot are filtered
    /// out of [`LoadedState::replayable`].
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt snapshot, or a snapshot/journal sequence gap.
    pub fn open(dir: impl AsRef<Path>) -> Result<(MatchStore, LoadedState), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A crash during a snapshot write can leave a temp file; it was
        // never renamed into place, so it is dead weight.
        for stale in [
            dir.join(format!("{SNAPSHOT_FILE}.tmp")),
            dir.join(format!("{JOURNAL_FILE}.tmp")),
        ] {
            let _ = std::fs::remove_file(stale);
        }

        let snap_path = dir.join(SNAPSHOT_FILE);
        let snapshot = match File::open(&snap_path) {
            Ok(mut f) => {
                let mut data = Vec::new();
                f.read_to_end(&mut data)?;
                Some(Snapshot::decode(&data)?)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let (mut journal, mut recovery) = Journal::open(&dir.join(JOURNAL_FILE))?;
        let batches_applied = snapshot.as_ref().map_or(0, |s| s.batches_applied);
        Journal::filter_replayable(&mut recovery, batches_applied)?;
        journal.bump_next_seq(batches_applied + recovery.batches.len() as u64 + 1);

        let replayable = std::mem::take(&mut recovery.batches);
        Ok((
            MatchStore { dir, journal },
            LoadedState {
                snapshot,
                replayable,
                recovery,
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

    /// Size in bytes and modification time of the current snapshot file,
    /// or `None` when no checkpoint has ever been written. The
    /// modification time is the wall-clock moment of the last atomic
    /// snapshot rename, so `now − mtime` is the snapshot's *staleness* —
    /// the serving daemon exports it as the `snapshot_age_seconds` gauge.
    pub fn snapshot_meta(&self) -> Option<(u64, std::time::SystemTime)> {
        let md = std::fs::metadata(self.dir.join(SNAPSHOT_FILE)).ok()?;
        Some((md.len(), md.modified().ok()?))
    }

    /// Journals one batch (fsync'd; durable when this returns) and returns
    /// its sequence number. Append *before* applying the batch in memory:
    /// on a crash the journal replays it, and an unjournaled batch was
    /// never acknowledged. `trace` is the ingest trace id to persist with
    /// the frame (replay re-annotates provenance with it).
    pub fn append_batch(
        &mut self,
        records: &[Record],
        trace: Option<&str>,
    ) -> Result<u64, StoreError> {
        self.journal.append(records, trace)
    }

    /// Atomically replaces the snapshot with the state `view` borrows and
    /// resets the journal, whose batches the snapshot now covers. The
    /// snapshot streams to disk through the one encoder
    /// ([`SnapshotView`]) with the records pulled one at a time from
    /// `records` — [`borrowed`] for resident state, a file stream for a
    /// bulk load — so nothing is copied or buffered whole. Returns the
    /// snapshot size in bytes.
    ///
    /// Crash-ordering: the snapshot rename is the commit point. A crash
    /// before it keeps the old snapshot + full journal; a crash after it
    /// but before the journal reset leaves old frames whose sequence
    /// numbers the next [`MatchStore::open`] filters out.
    ///
    /// # Errors
    ///
    /// I/O failures, a record-iterator error, or a record-count mismatch
    /// against [`SnapshotView::n_records`]; on every error path the old
    /// snapshot (if any) and the journal stay in place and no temporary
    /// file is left behind.
    pub fn commit_snapshot<'r>(
        &mut self,
        view: &SnapshotView<'_>,
        records: impl Iterator<Item = io::Result<Cow<'r, Record>>>,
    ) -> Result<u64, StoreError> {
        let bytes = replace_file(&self.dir.join(SNAPSHOT_FILE), |file| {
            view.write_to(file, records)
        })?;
        self.journal.reset(view.batches_applied + 1)?;
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
        store.append_batch(&batch(1, 2), None).unwrap();
        store.append_batch(&batch(2, 2), None).unwrap();
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
        store.append_batch(&batch(3, 1), None).unwrap();
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
        store.append_batch(&batch(1, 2), None).unwrap();
        store.append_batch(&batch(2, 2), None).unwrap();
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
        store.append_batch(&batch(1, 3), None).unwrap();
        store.write_snapshot(&snap_of(batch(1, 3), 1)).unwrap();
        store.append_batch(&batch(2, 2), None).unwrap();
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
