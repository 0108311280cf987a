//! Store layouts: one journal per shard beside the one snapshot.
//!
//! A sharded store partitions every batch's records by key band into N
//! journals. The checkpoint is not partitioned: every store keeps the same
//! `snapshot.mps`, written by the same encoder ([`crate::replace_snapshot`]),
//! so the layouts differ only in where their journals live. This module
//! owns that difference; [`crate::MatchStore`] owns the journals and the
//! complete-scatter recovery, and knows nothing about routing.
//!
//! # On-disk layout
//!
//! ```text
//! store/                  one shard          N >= 2 shards
//!   snapshot.mps          the checkpoint     the checkpoint
//!   journal.mpj           the journal        -
//!   manifest.mpm          -                  shard count, fixed at creation
//!   shard-k/journal.mpj   -                  shard k's journal
//! ```
//!
//! The manifest marks a directory as sharded: a one-shard open refuses a
//! directory that has one, and an N-shard open refuses a single-worker
//! store (a `snapshot.mps` or `journal.mpj` without a manifest) or a
//! manifest with another count, so no layout's journals are ever silently
//! ignored.
//!
//! # Scatter protocol
//!
//! Every ingested batch is journaled as **one frame per shard journal,
//! all carrying the same sequence number** — shards without records for
//! the batch get an empty frame, keeping every journal's sequence stream
//! identical. Records are journaled with their *global* ids already
//! assigned, so a replayed batch is reassembled by concatenating the
//! shard frames and sorting by id.
//!
//! A batch is acknowledged only after **all** shard appends have
//! `fsync`ed. Recovery therefore treats a sequence number as replayable
//! iff it is present in *every* shard journal; trailing frames of an
//! incomplete scatter (present in some shards only — the batch was never
//! acknowledged) are physically truncated via [`crate::Journal::truncate_to`]
//! so their sequence numbers can be reused.
//!
//! # Checkpoint protocol
//!
//! Replace `snapshot.mps` — the rename is the commit point — then reset
//! every journal. A crash before the rename keeps the old snapshot and
//! every journal; a crash after it leaves frames at or below the new
//! watermark, which recovery filters out, whichever journals had already
//! been reset.

use crate::codec::{self, Reader};
use crate::{replace_file, StoreError, JOURNAL_FILE, SNAPSHOT_FILE};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the manifest inside a sharded store directory.
pub const MANIFEST_FILE: &str = "manifest.mpm";
/// Manifest format version. Version 2 holds the shard count alone: the
/// checkpoint epoch of version 1 (which pointed at per-shard snapshot
/// slices) went with the slices.
pub const MANIFEST_VERSION: u32 = 2;

const MANIFEST_MAGIC: &[u8; 4] = b"MPMF";

fn encode_manifest(shards: u32) -> Vec<u8> {
    let payload = shards.to_le_bytes();
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_manifest(data: &[u8]) -> Result<u32, StoreError> {
    let corrupt = |msg: &str| StoreError::Corrupt(format!("manifest: {msg}"));
    if data.len() < 12 {
        return Err(corrupt("file too short"));
    }
    if &data[..4] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version == 1 {
        let shards = data.get(12..16).map_or("N".into(), |b| {
            u32::from_le_bytes(b.try_into().unwrap()).to_string()
        });
        return Err(corrupt(&format!(
            "version 1 stores keep per-shard snapshot slices, which this build no longer \
             reads; rebuild the store from its input with `mergepurge load --shards {shards}`"
        )));
    }
    if version != MANIFEST_VERSION {
        return Err(corrupt(&format!("unknown version {version}")));
    }
    let crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let payload = &data[12..];
    if codec::crc32(payload) != crc {
        return Err(corrupt("CRC mismatch"));
    }
    let mut r = Reader::new(payload);
    let shards = (|| {
        let shards = r.u32()?;
        r.finish()?;
        Ok::<_, String>(shards)
    })()
    .map_err(|e| corrupt(&e))?;
    if shards == 0 {
        return Err(corrupt("zero shards"));
    }
    Ok(shards)
}

/// The shard count a sharded store's manifest declares, or `None` when
/// `dir` has no manifest (a single-worker store, or no store yet).
fn manifest_shards(dir: &Path) -> Result<Option<u32>, StoreError> {
    match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(data) => decode_manifest(&data).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The journal paths of a `shards`-shard store at `dir`, after checking
/// the directory is that layout — writing the manifest of a new sharded
/// store and creating its shard directories. Refuses, writing nothing, a
/// store made with another shard count.
pub(crate) fn journal_paths(dir: &Path, shards: usize) -> Result<Vec<PathBuf>, StoreError> {
    let refuse = |msg: String| {
        Err(StoreError::Corrupt(format!(
            "store at {} {msg} (shard count is fixed at store creation)",
            dir.display()
        )))
    };
    match manifest_shards(dir)? {
        None if shards == 1 => return Ok(vec![dir.join(JOURNAL_FILE)]),
        Some(m) if shards == 1 => {
            return refuse(format!(
                "has {m} shards but was opened single-worker: open it with --shards {m}"
            ))
        }
        Some(m) if m as usize != shards => {
            return refuse(format!(
                "has {m} shards but {shards} were configured: open it with --shards {m}"
            ))
        }
        Some(_) => {}
        None if dir.join(SNAPSHOT_FILE).exists() || dir.join(JOURNAL_FILE).exists() => {
            return refuse(format!(
                "is a single-worker store but {shards} shards were configured: open it \
                 without --shards"
            ))
        }
        None => {
            let bytes = encode_manifest(shards as u32);
            replace_file(&dir.join(MANIFEST_FILE), |file| Ok(file.write_all(&bytes)?))?;
        }
    }
    (0..shards)
        .map(|k| {
            let sd = dir.join(format!("shard-{k}"));
            std::fs::create_dir_all(&sd)?;
            let _ = std::fs::remove_file(sd.join(format!("{JOURNAL_FILE}.tmp")));
            Ok(sd.join(JOURNAL_FILE))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{borrowed, replace_snapshot, MatchStore, Snapshot};
    use mp_closure::{ProvenanceLog, UnionFind};
    use mp_metrics::NoopObserver;
    use mp_record::{Record, RecordId};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-sharded-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(id: u32, last: &str) -> Record {
        let mut r = Record::empty(RecordId(id));
        r.last_name = last.into();
        r
    }

    fn scatter(store: &mut MatchStore, frames: &[Vec<Record>]) -> u64 {
        store.append_batch(frames, None, &NoopObserver).unwrap()
    }

    #[test]
    fn complete_scatters_replay_and_reassemble_by_id() {
        let dir = tmp_dir("replay");
        let (mut store, loaded) = MatchStore::open_shards(&dir, 2).unwrap();
        assert!(loaded.snapshot.is_none() && loaded.replayable.is_empty());
        // Batch 1: records 0,1,2 — 0 and 2 to shard 0, 1 to shard 1.
        scatter(
            &mut store,
            &[vec![rec(0, "A"), rec(2, "C")], vec![rec(1, "B")]],
        );
        // Batch 2: record 3 to shard 1 only; shard 0 gets the empty frame.
        scatter(&mut store, &[vec![], vec![rec(3, "D")]]);
        drop(store);

        let (store, loaded) = MatchStore::open_shards(&dir, 2).unwrap();
        assert_eq!(loaded.replayable.len(), 2);
        assert_eq!(loaded.replayable[0].seq, 1);
        assert_eq!(
            loaded.replayable[0].records,
            vec![rec(0, "A"), rec(1, "B"), rec(2, "C")],
            "reassembled in global id order"
        );
        assert_eq!(loaded.replayable[1].records, vec![rec(3, "D")]);
        // Non-empty frames only: shard 0 replayed 1, shard 1 replayed 2.
        assert_eq!(loaded.shard_replays, vec![1, 2]);
        assert_eq!(store.next_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_scatter_is_truncated_and_its_seq_reused() {
        let dir = tmp_dir("orphan");
        let (mut store, _) = MatchStore::open_shards(&dir, 3).unwrap();
        scatter(&mut store, &[vec![rec(0, "A")], vec![rec(1, "B")], vec![]]);
        // Crash mid-scatter of batch 2: only shard 0's frame landed.
        store.journals[0].append(&[rec(2, "C")], None).unwrap();
        drop(store);

        let (store, loaded) = MatchStore::open_shards(&dir, 3).unwrap();
        assert_eq!(loaded.replayable.len(), 1, "orphan batch must not replay");
        assert!(loaded.truncated_bytes > 0);
        assert!(
            loaded
                .truncation_reasons
                .iter()
                .any(|r| r.starts_with("shard 0: ") && r.contains("orphan")),
            "{:?}",
            loaded.truncation_reasons
        );
        // Every journal now appends at seq 2 — the orphan's seq is reused.
        assert_eq!(store.next_seq(), 2);
        for j in &store.journals {
            assert_eq!(j.next_seq(), 2);
        }
        drop(store);
        // And the store reopens clean.
        let (_store, loaded) = MatchStore::open_shards(&dir, 3).unwrap();
        assert!(!loaded.truncated());
        assert_eq!(loaded.truncated_bytes, 0);
        assert_eq!(loaded.replayable.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_is_the_single_store_snapshot_in_every_crash_window() {
        let dir = tmp_dir("checkpoint");
        let (mut store, _) = MatchStore::open_shards(&dir, 2).unwrap();
        scatter(&mut store, &[vec![rec(0, "ADAMS")], vec![rec(1, "ZHU")]]);
        let snap = Snapshot {
            records: vec![rec(0, "ADAMS"), rec(1, "ZHU")],
            passes: vec![],
            pairs: vec![],
            closure: UnionFind::new(2),
            provenance: ProvenanceLog::new(),
            comparisons: 1,
            batches_applied: 1,
        };

        // Crash mid-write: a temporary that never got renamed is swept,
        // and the journals still replay the batch.
        std::fs::write(dir.join(format!("{SNAPSHOT_FILE}.tmp")), b"half a snapshot").unwrap();
        drop(store);
        let (store, loaded) = MatchStore::open_shards(&dir, 2).unwrap();
        assert!(loaded.snapshot.is_none());
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        assert_eq!(loaded.replayable.len(), 1, "journal still replays");

        // Crash after the rename but before any journal reset: the frames
        // sit at the new watermark and are filtered.
        let written = replace_snapshot(store.dir(), &snap.view(), borrowed(&snap.records)).unwrap();
        assert_eq!(store.snapshot_meta().map(|m| m.0), Some(written));
        assert_eq!(
            std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
            snap.encode()
        );
        drop(store);
        let (mut store, loaded) = MatchStore::open_shards(&dir, 2).unwrap();
        assert_eq!(loaded.snapshot.as_ref().unwrap().encode(), snap.encode());
        assert!(
            loaded.replayable.is_empty(),
            "frames at or below the watermark are filtered"
        );
        assert_eq!(store.next_seq(), 2);

        // Only shard 0 reset before the crash: still nothing to replay, and
        // the next scatter continues at seq 2 on both shards.
        store.journals[0].reset(2).unwrap();
        drop(store);
        let (mut store, loaded) = MatchStore::open_shards(&dir, 2).unwrap();
        assert!(loaded.replayable.is_empty());
        assert_eq!(scatter(&mut store, &[vec![], vec![rec(2, "BAKER")]]), 2);
        drop(store);
        let (_s, loaded) = MatchStore::open_shards(&dir, 2).unwrap();
        assert_eq!(loaded.replayable.len(), 1);
        assert_eq!(loaded.replayable[0].seq, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_is_fixed_at_creation() {
        let dir = tmp_dir("fixed");
        drop(MatchStore::open_shards(&dir, 3).unwrap());
        match MatchStore::open_shards(&dir, 4) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("3 shards"), "{msg}"),
            other => panic!("shard-count mismatch must be rejected: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_sharded_store_refuses_a_single_worker_open() {
        let dir = tmp_dir("layout-sharded");
        drop(MatchStore::open_shards(&dir, 2).unwrap());
        match MatchStore::open(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("--shards 2"), "{msg}"),
            other => panic!("a sharded store must not open single-worker: {other:?}"),
        }
        assert!(!dir.join(JOURNAL_FILE).exists(), "refusal writes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_single_worker_store_refuses_a_sharded_open() {
        let dir = tmp_dir("layout-single");
        drop(MatchStore::open(&dir).unwrap());
        match MatchStore::open_shards(&dir, 2) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("without --shards"), "{msg}"),
            other => panic!("a single-worker store must not open sharded: {other:?}"),
        }
        assert!(!dir.join(MANIFEST_FILE).exists(), "refusal writes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_version_1_manifest_names_the_rebuild() {
        let dir = tmp_dir("manifest-v1");
        drop(MatchStore::open_shards(&dir, 2).unwrap());
        // Version 1 held the shard count and a checkpoint epoch.
        let mut v1 = encode_manifest(2);
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&7u64.to_le_bytes());
        std::fs::write(dir.join(MANIFEST_FILE), v1).unwrap();
        match MatchStore::open_shards(&dir, 2) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("`mergepurge load --shards 2`"), "{msg}")
            }
            other => panic!("a version-1 manifest must be refused: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_and_byte_corruption_of_the_manifest_is_an_error() {
        let bytes = encode_manifest(4);
        assert_eq!(decode_manifest(&bytes).unwrap(), 4);
        for len in 0..bytes.len() {
            assert!(
                decode_manifest(&bytes[..len]).is_err(),
                "truncated to {len}"
            );
        }
        for i in 0..bytes.len() {
            for mask in 1..=255u8 {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                assert!(
                    decode_manifest(&bad).is_err(),
                    "byte {i} xor {mask:#04x} went undetected"
                );
            }
        }
        assert!(decode_manifest(&encode_manifest(0)).is_err(), "zero shards");
    }
}
