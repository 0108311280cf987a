//! Sharded durable store: N per-shard journals + snapshots under one
//! directory, recombining to exactly the single-store state.
//!
//! The serving daemon's sharded mode partitions records by key band and
//! gives each shard worker its own journal and snapshot files, so ingest
//! `fsync`s run concurrently. This module owns the disk layout and the
//! recovery/merge logic; it knows nothing about routing (the caller
//! supplies a `shard_of` function when splitting a snapshot).
//!
//! # On-disk layout
//!
//! ```text
//! store/
//!   manifest.mpm          shard count + committed snapshot epoch
//!   shard-0/
//!     journal.mpj         standard journal (see `journal`)
//!     snapshot-<E>.mps    this shard's slice of checkpoint epoch E
//!   shard-1/
//!     ...
//! ```
//!
//! # Scatter protocol
//!
//! Every ingested batch is scattered as **one frame per shard journal,
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
//! acknowledged) are physically truncated via [`Journal::truncate_to`]
//! so their sequence numbers can be reused.
//!
//! # Checkpoint protocol (two-phase)
//!
//! 1. The coordinator builds each shard's slice of the engine state with
//!    [`SnapshotView::shard_slice`] and every shard writes its
//!    `snapshot-<E>.mps` for the *new* epoch E (atomic replace, via
//!    [`write_shard_snapshot`]).
//! 2. The coordinator atomically rewrites the manifest pointing at E
//!    ([`ShardedStore::commit_epoch`]) — the commit point — then every
//!    shard resets its journal.
//!
//! A crash before the manifest flip leaves stale epoch-E files (removed
//! on the next open); a crash after the flip but before some journal
//! resets leaves frames at-or-below the new watermark (filtered out on
//! replay, exactly as in the single store).

use crate::codec::{self, Reader};
use crate::journal::{Journal, JournalBatch, JournalRecovery};
use crate::snapshot::{PassSnapshot, Snapshot, SnapshotView};
use crate::{replace_file, StoreError, JOURNAL_FILE};
use mp_closure::{MergeEdge, ProvenanceLog, UnionFind};
use mp_record::Record;
use std::borrow::Cow;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File name of the manifest inside a sharded store directory.
pub const MANIFEST_FILE: &str = "manifest.mpm";
/// Manifest format version.
pub const MANIFEST_VERSION: u32 = 1;
/// Shard-snapshot format version. Version 2 added the provenance slice:
/// ordinal-tagged merge edges (owned like pairs, by the shard of the
/// larger id) plus the duplicated batch-trace and rule-firing tables.
pub const SHARD_SNAPSHOT_VERSION: u32 = 2;

const MANIFEST_MAGIC: &[u8; 4] = b"MPMF";
const SHARD_SNAPSHOT_MAGIC: &[u8; 8] = b"MPSSHARD";
const JOURNAL_HEADER_LEN: u64 = 8;

/// Everything [`ShardedStore::open`] recovered from disk.
#[derive(Debug)]
pub struct ShardedLoaded {
    /// The last committed checkpoint, merged back into a global snapshot.
    pub snapshot: Option<Snapshot>,
    /// Fully-scattered batches the snapshot has not absorbed, in sequence
    /// order, each reassembled (id-sorted) across shards, carrying the
    /// ingest trace id its scatter frames journaled (if any).
    pub replayable: Vec<JournalBatch>,
    /// One open journal per shard, in shard order, positioned to append
    /// at the next sequence number. The caller hands each to its worker.
    pub journals: Vec<Journal>,
    /// Per-shard count of *non-empty* frames among the replayable batches
    /// (empty scatter frames are sequence padding, not replay work).
    pub shard_replays: Vec<u64>,
    /// Total bytes dropped across all shards (torn tails + orphan frames).
    pub truncated_bytes: u64,
    /// One reason per shard that lost bytes, prefixed with the shard index.
    pub truncation_reasons: Vec<String>,
    /// Sequence number the next ingested batch must use.
    pub next_seq: u64,
}

/// Coordinator handle over a sharded store directory: layout, manifest,
/// and checkpoint commit. Journals are owned by the caller's shard
/// workers (returned from [`ShardedStore::open`] via [`ShardedLoaded`]).
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    shards: usize,
    epoch: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct Manifest {
    shards: u32,
    epoch: u64,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_u32(&mut payload, m.shards);
    codec::put_u64(&mut payload, m.epoch);
    let mut out = Vec::with_capacity(12 + payload.len() + 4);
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_manifest(data: &[u8]) -> Result<Manifest, StoreError> {
    let corrupt = |msg: &str| StoreError::Corrupt(format!("manifest: {msg}"));
    if data.len() < 12 {
        return Err(corrupt("file too short"));
    }
    if &data[..4] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != MANIFEST_VERSION {
        return Err(corrupt(&format!("unknown version {version}")));
    }
    let crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let payload = &data[12..];
    if codec::crc32(payload) != crc {
        return Err(corrupt("CRC mismatch"));
    }
    let mut r = Reader::new(payload);
    let m = (|| {
        let shards = r.u32()?;
        let epoch = r.u64()?;
        r.finish()?;
        Ok::<_, String>(Manifest { shards, epoch })
    })()
    .map_err(|e| corrupt(&e))?;
    if m.shards == 0 {
        return Err(corrupt("zero shards"));
    }
    Ok(m)
}

fn snapshot_file_name(epoch: u64) -> String {
    format!("snapshot-{epoch}.mps")
}

/// Parses the epoch out of a `snapshot-<E>.mps` file name.
fn parse_snapshot_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".mps")?
        .parse()
        .ok()
}

impl ShardedStore {
    /// Opens (creating if needed) the sharded store at `dir` with the
    /// given shard count, recovering the committed snapshot epoch and the
    /// fully-scattered journal suffix. Stale temp files and
    /// uncommitted-epoch snapshot files are removed; orphan frames from an
    /// incomplete scatter are truncated (reported, never silent).
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt manifest or shard snapshot, a shard-count
    /// mismatch against the manifest, or a sequence gap below the
    /// complete-scatter watermark (real corruption, not a torn tail).
    ///
    /// # Panics
    ///
    /// Panics when `shards` is 0.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<(ShardedStore, ShardedLoaded), StoreError> {
        assert!(shards >= 1, "need at least one shard");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let _ = std::fs::remove_file(dir.join(format!("{MANIFEST_FILE}.tmp")));

        let manifest_path = dir.join(MANIFEST_FILE);
        let epoch = match std::fs::read(&manifest_path) {
            Ok(data) => {
                let m = decode_manifest(&data)?;
                if m.shards != shards as u32 {
                    return Err(StoreError::Corrupt(format!(
                        "store at {} has {} shards but {} were configured \
                         (shard count is fixed at store creation)",
                        dir.display(),
                        m.shards,
                        shards
                    )));
                }
                m.epoch
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let store = ShardedStore {
                    dir: dir.clone(),
                    shards,
                    epoch: 0,
                };
                store.write_manifest(0)?;
                0
            }
            Err(e) => return Err(e.into()),
        };

        let mut journals = Vec::with_capacity(shards);
        let mut recoveries: Vec<JournalRecovery> = Vec::with_capacity(shards);
        let mut truncated_bytes = 0u64;
        let mut truncation_reasons = Vec::new();
        for k in 0..shards {
            let sd = dir.join(format!("shard-{k}"));
            std::fs::create_dir_all(&sd)?;
            for entry in std::fs::read_dir(&sd)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let stale_tmp = name.ends_with(".tmp");
                let stale_snap = matches!(parse_snapshot_epoch(&name), Some(e) if e != epoch);
                if stale_tmp || stale_snap {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
            let (j, rec) = Journal::open(&sd.join(JOURNAL_FILE))?;
            truncated_bytes += rec.truncated_bytes;
            if let Some(r) = &rec.truncation_reason {
                truncation_reasons.push(format!("shard {k}: {r}"));
            }
            journals.push(j);
            recoveries.push(rec);
        }

        let snapshot = if epoch > 0 {
            let mut parts = Vec::with_capacity(shards);
            for (k, _) in journals.iter().enumerate() {
                let path = dir
                    .join(format!("shard-{k}"))
                    .join(snapshot_file_name(epoch));
                let data = std::fs::read(&path).map_err(|e| {
                    StoreError::Corrupt(format!(
                        "committed epoch {epoch} is missing shard {k}'s snapshot ({e})"
                    ))
                })?;
                parts.push(ShardSnapshot::decode(&data)?);
            }
            Some(merge_shard_snapshots(&parts)?)
        } else {
            None
        };
        let watermark = snapshot.as_ref().map_or(0, |s| s.batches_applied);

        for rec in &mut recoveries {
            Journal::filter_replayable(rec, watermark)?;
        }
        // A batch is replayable iff every shard holds its frame: the last
        // complete sequence is the minimum of the per-shard tails.
        let last_complete = recoveries
            .iter()
            .map(|r| r.batches.last().map_or(watermark, |b| b.seq))
            .min()
            .unwrap_or(watermark);

        let mut shard_replays = vec![0u64; shards];
        let mut replayable: Vec<JournalBatch> = (watermark + 1..=last_complete)
            .map(|s| JournalBatch {
                seq: s,
                records: Vec::new(),
                trace: None,
            })
            .collect();
        for (k, rec) in recoveries.iter_mut().enumerate() {
            let orphans = rec.batches.iter().filter(|b| b.seq > last_complete).count();
            if orphans > 0 {
                let end = rec
                    .frame_ends
                    .iter()
                    .filter(|(s, _)| *s <= last_complete)
                    .map(|(_, e)| *e)
                    .max()
                    .unwrap_or(JOURNAL_HEADER_LEN);
                let file_len = rec
                    .frame_ends
                    .last()
                    .map_or(JOURNAL_HEADER_LEN, |(_, e)| *e);
                journals[k].truncate_to(end, last_complete + 1)?;
                truncated_bytes += file_len - end;
                truncation_reasons.push(format!(
                    "shard {k}: dropped {orphans} orphan frame(s) of an incomplete scatter \
                     (batch never acknowledged)"
                ));
                rec.batches.retain(|b| b.seq <= last_complete);
            }
            journals[k].bump_next_seq(last_complete + 1);
            for b in std::mem::take(&mut rec.batches) {
                if !b.records.is_empty() {
                    shard_replays[k] += 1;
                }
                let slot = &mut replayable[(b.seq - watermark - 1) as usize];
                slot.records.extend(b.records);
                // Every scatter frame of a batch journals the same trace;
                // the first one seen stands for all.
                if slot.trace.is_none() {
                    slot.trace = b.trace;
                }
            }
        }
        // Scattered frames carry global ids; id order is the arrival order.
        for b in &mut replayable {
            b.records.sort_by_key(|r| r.id.0);
        }

        Ok((
            ShardedStore { dir, shards, epoch },
            ShardedLoaded {
                snapshot,
                replayable,
                journals,
                shard_replays,
                truncated_bytes,
                truncation_reasons,
                next_seq: last_complete + 1,
            },
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards (fixed at store creation).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The committed checkpoint epoch (0 = no checkpoint yet).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Directory of shard `k` (`store/shard-k/`).
    pub fn shard_dir(&self, k: usize) -> PathBuf {
        self.dir.join(format!("shard-{k}"))
    }

    fn write_manifest(&self, epoch: u64) -> Result<(), StoreError> {
        let bytes = encode_manifest(&Manifest {
            shards: self.shards as u32,
            epoch,
        });
        replace_file(&self.dir.join(MANIFEST_FILE), |file| {
            Ok(file.write_all(&bytes)?)
        })
    }

    /// Commits checkpoint epoch `epoch`: atomically rewrites the manifest
    /// (the 2PC commit point — every shard's `snapshot-<epoch>.mps` must
    /// already be durable) and removes the previous epoch's snapshot
    /// files. After this the caller resets the shard journals.
    ///
    /// # Errors
    ///
    /// I/O failure writing the manifest; the old epoch then remains
    /// committed and the new files are cleaned up on the next open.
    pub fn commit_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        let old = self.epoch;
        self.write_manifest(epoch)?;
        self.epoch = epoch;
        if old > 0 {
            for k in 0..self.shards {
                let _ = std::fs::remove_file(self.shard_dir(k).join(snapshot_file_name(old)));
            }
        }
        Ok(())
    }

    /// Total size and newest modification time across the committed
    /// epoch's shard snapshot files, or `None` before the first
    /// checkpoint (mirrors `MatchStore::snapshot_meta`).
    pub fn snapshot_meta(&self) -> Option<(u64, std::time::SystemTime)> {
        if self.epoch == 0 {
            return None;
        }
        let mut bytes = 0u64;
        let mut mtime: Option<std::time::SystemTime> = None;
        for k in 0..self.shards {
            let md =
                std::fs::metadata(self.shard_dir(k).join(snapshot_file_name(self.epoch))).ok()?;
            bytes += md.len();
            let m = md.modified().ok()?;
            mtime = Some(mtime.map_or(m, |t| t.max(m)));
        }
        Some((bytes, mtime?))
    }
}

/// Durably writes one shard's snapshot slice for `epoch` into
/// `shard_dir` (atomic replace: temp + fsync + rename + dir fsync). Phase one of
/// the checkpoint 2PC; the file is invisible to recovery until
/// [`ShardedStore::commit_epoch`] flips the manifest. Returns the byte
/// count written.
///
/// # Errors
///
/// I/O failure; the store still recovers from the committed epoch.
pub fn write_shard_snapshot(shard_dir: &Path, epoch: u64, bytes: &[u8]) -> Result<u64, StoreError> {
    replace_file(&shard_dir.join(snapshot_file_name(epoch)), |file| {
        file.write_all(bytes)?;
        Ok(bytes.len() as u64)
    })
}

/// One pass's slice of a shard snapshot: the global attribution meta
/// (duplicated into every shard for cross-validation) plus the keys of
/// this shard's owned records, aligned with [`ShardSnapshot::records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPassSlice {
    /// The pass's key name (global, duplicated).
    pub key_name: String,
    /// The pass's window size (global, duplicated).
    pub window: u32,
    /// Global `pairs_found` for this pass (duplicated).
    pub pairs_found: u64,
    /// Global `pairs_first_found` for this pass (duplicated).
    pub pairs_first_found: u64,
    /// Extracted key of each owned record, in [`ShardSnapshot::records`]
    /// order.
    pub keys: Vec<String>,
}

/// One shard's slice of a checkpoint: its owned records (global ids),
/// per-pass keys for those records, its owned pairs, and the global
/// scalars duplicated for cross-shard consistency checks. Pass *order*
/// indexes are not stored — they are recomputed on merge, because the
/// incremental engine's order is always the stable `(key, id)` sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// This slice's shard index.
    pub shard: u32,
    /// Total shard count (duplicated).
    pub shards: u32,
    /// Global comparison count (duplicated).
    pub comparisons: u64,
    /// Global batches-applied watermark (duplicated).
    pub batches_applied: u64,
    /// Global record count (duplicated; reassembly must reach it).
    pub total_records: u64,
    /// Per-pass meta + this shard's key slices, in pass order.
    pub passes: Vec<ShardPassSlice>,
    /// Records owned by this shard, ascending global id.
    pub records: Vec<Record>,
    /// Matched pairs owned by this shard (the shard owning the pair's
    /// larger id), sorted ascending.
    pub pairs: Vec<(u32, u32)>,
    /// Provenance edges owned by this shard (same ownership rule as
    /// pairs: the shard of the edge's larger id), each tagged with its
    /// global ordinal in the log so the merge restores the exact original
    /// order — explain chains stay byte-identical across split/merge.
    pub edges: Vec<(u64, MergeEdge)>,
    /// Global batch-trace table (duplicated into every shard).
    pub batch_traces: Vec<(u64, String)>,
    /// Global per-rule firing counts (duplicated into every shard).
    pub rule_firings: Vec<u64>,
}

impl ShardSnapshot {
    /// Serializes the slice: magic + version + CRC-protected payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        codec::put_u32(&mut p, self.shard);
        codec::put_u32(&mut p, self.shards);
        codec::put_u64(&mut p, self.comparisons);
        codec::put_u64(&mut p, self.batches_applied);
        codec::put_u64(&mut p, self.total_records);
        codec::put_u32(&mut p, self.passes.len() as u32);
        for pass in &self.passes {
            codec::put_str(&mut p, &pass.key_name);
            codec::put_u32(&mut p, pass.window);
            codec::put_u64(&mut p, pass.pairs_found);
            codec::put_u64(&mut p, pass.pairs_first_found);
            codec::put_u32(&mut p, pass.keys.len() as u32);
            for k in &pass.keys {
                codec::put_str(&mut p, k);
            }
        }
        codec::put_records(&mut p, &self.records);
        codec::put_u64(&mut p, self.pairs.len() as u64);
        for &(a, b) in &self.pairs {
            codec::put_u32(&mut p, a);
            codec::put_u32(&mut p, b);
        }
        codec::put_u64(&mut p, self.edges.len() as u64);
        for &(ord, e) in &self.edges {
            codec::put_u64(&mut p, ord);
            codec::put_u32(&mut p, e.a);
            codec::put_u32(&mut p, e.b);
            codec::put_u32(&mut p, e.pass);
            codec::put_u32(&mut p, e.rule_id);
            codec::put_u64(&mut p, e.batch_seq);
        }
        codec::put_u32(&mut p, self.batch_traces.len() as u32);
        for (seq, trace) in &self.batch_traces {
            codec::put_u64(&mut p, *seq);
            codec::put_str(&mut p, trace);
        }
        codec::put_u32(&mut p, self.rule_firings.len() as u32);
        for &f in &self.rule_firings {
            codec::put_u64(&mut p, f);
        }

        let mut out = Vec::with_capacity(24 + p.len());
        out.extend_from_slice(SHARD_SNAPSHOT_MAGIC);
        out.extend_from_slice(&SHARD_SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(&codec::crc32(&p).to_le_bytes());
        out.extend_from_slice(&p);
        out
    }

    /// Parses and validates a slice written by [`ShardSnapshot::encode`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic/version, CRC mismatch, or a
    /// structural inconsistency (key slices misaligned with records,
    /// pairs out of range).
    pub fn decode(data: &[u8]) -> Result<ShardSnapshot, StoreError> {
        let corrupt = |msg: String| StoreError::Corrupt(format!("shard snapshot: {msg}"));
        if data.len() < 24 {
            return Err(corrupt(format!("file too short ({} bytes)", data.len())));
        }
        if &data[..8] != SHARD_SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != SHARD_SNAPSHOT_VERSION {
            return Err(corrupt(format!("unknown version {version}")));
        }
        // Compared against the bytes present, never added to: the length
        // is outside the CRC.
        let len = u64::from_le_bytes(data[12..20].try_into().unwrap());
        let crc = u32::from_le_bytes(data[20..24].try_into().unwrap());
        if (data.len() - 24) as u64 != len {
            return Err(corrupt(format!(
                "payload length {len} disagrees with file size {}",
                data.len()
            )));
        }
        let payload = &data[24..];
        if codec::crc32(payload) != crc {
            return Err(corrupt("CRC mismatch".into()));
        }

        let mut r = Reader::new(payload);
        let snap = (|| {
            let shard = r.u32()?;
            let shards = r.u32()?;
            let comparisons = r.u64()?;
            let batches_applied = r.u64()?;
            let total_records = r.u64()?;
            let np = r.u32()? as usize;
            let mut passes = Vec::with_capacity(np.min(64));
            for _ in 0..np {
                let key_name = r.str()?;
                let window = r.u32()?;
                let pairs_found = r.u64()?;
                let pairs_first_found = r.u64()?;
                let nk = r.u32()? as usize;
                let mut keys = Vec::with_capacity(nk.min(r.remaining()));
                for _ in 0..nk {
                    keys.push(r.str()?);
                }
                passes.push(ShardPassSlice {
                    key_name,
                    window,
                    pairs_found,
                    pairs_first_found,
                    keys,
                });
            }
            let records = codec::take_records(&mut r)?;
            let n = r.u64()? as usize;
            let mut pairs = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
            for _ in 0..n {
                pairs.push((r.u32()?, r.u32()?));
            }
            let ne = r.u64()? as usize;
            let mut edges = Vec::with_capacity(ne.min(r.remaining() / 32 + 1));
            for _ in 0..ne {
                let ord = r.u64()?;
                edges.push((
                    ord,
                    MergeEdge {
                        a: r.u32()?,
                        b: r.u32()?,
                        pass: r.u32()?,
                        rule_id: r.u32()?,
                        batch_seq: r.u64()?,
                    },
                ));
            }
            let nt = r.u32()? as usize;
            let mut batch_traces = Vec::with_capacity(nt.min(r.remaining() / 12 + 1));
            for _ in 0..nt {
                let seq = r.u64()?;
                batch_traces.push((seq, r.str()?));
            }
            let nf = r.u32()? as usize;
            let mut rule_firings = Vec::with_capacity(nf.min(r.remaining() / 8 + 1));
            for _ in 0..nf {
                rule_firings.push(r.u64()?);
            }
            r.finish()?;
            Ok::<_, String>(ShardSnapshot {
                shard,
                shards,
                comparisons,
                batches_applied,
                total_records,
                passes,
                records,
                pairs,
                edges,
                batch_traces,
                rule_firings,
            })
        })()
        .map_err(corrupt)?;

        if snap.shard >= snap.shards {
            return Err(corrupt(format!(
                "shard index {} out of range for {} shards",
                snap.shard, snap.shards
            )));
        }
        for (i, pass) in snap.passes.iter().enumerate() {
            if pass.keys.len() != snap.records.len() {
                return Err(corrupt(format!(
                    "pass {i}: {} keys for {} owned records",
                    pass.keys.len(),
                    snap.records.len()
                )));
            }
        }
        if snap
            .pairs
            .iter()
            .any(|&(a, b)| a >= b || b as u64 >= snap.total_records)
        {
            return Err(corrupt("pair out of range or not (low, high)".into()));
        }
        if snap
            .records
            .iter()
            .any(|rec| rec.id.0 as u64 >= snap.total_records)
        {
            return Err(corrupt("record id out of range".into()));
        }
        if snap.edges.iter().any(|&(_, e)| {
            e.a as u64 >= snap.total_records
                || e.b as u64 >= snap.total_records
                || e.batch_seq == 0
                || e.batch_seq > snap.batches_applied
        }) {
            return Err(corrupt("provenance edge out of range".into()));
        }
        Ok(snap)
    }
}

impl SnapshotView<'_> {
    /// Builds shard `shard`'s slice of the state this view borrows — the
    /// one slice builder, called one shard at a time by the daemon's
    /// checkpoint and by the sharded cold load, so at most one shard's
    /// records are ever copied at once. `owner[id]` is the shard of record
    /// `id` (the caller's routing decision); a pair or provenance edge is
    /// owned by the shard of its larger id. `records` yields every record
    /// in id order (see [`crate::borrowed`]); only the owned ones are
    /// kept. The inverse is [`merge_shard_snapshots`].
    ///
    /// # Errors
    ///
    /// An error from the record iterator, or [`StoreError::Corrupt`] when
    /// it yields a different number of records than the view declares.
    ///
    /// # Panics
    ///
    /// Panics when `owner` does not cover exactly the view's records or
    /// names a shard `>= shards`.
    pub fn shard_slice<'r>(
        &self,
        shard: usize,
        shards: usize,
        owner: &[u8],
        records: impl Iterator<Item = io::Result<Cow<'r, Record>>>,
    ) -> Result<ShardSnapshot, StoreError> {
        assert!(shard < shards, "shard {shard} of {shards}");
        assert_eq!(owner.len() as u64, self.n_records, "one owner per record");
        assert!(
            owner.iter().all(|&k| (k as usize) < shards),
            "owner names a shard outside 0..{shards}"
        );
        let owns = |id: u32| owner[id as usize] as usize == shard;

        let mut owned = Vec::new();
        let mut yielded = 0u64;
        for record in records {
            let record = record?;
            if yielded < self.n_records && owns(yielded as u32) {
                owned.push(record.into_owned());
            }
            yielded += 1;
        }
        if yielded != self.n_records {
            return Err(StoreError::Corrupt(format!(
                "shard slice: declared {} records but the source yielded {yielded}",
                self.n_records
            )));
        }
        let passes = self
            .passes
            .iter()
            .map(|p| ShardPassSlice {
                key_name: p.key_name.clone(),
                window: p.window,
                pairs_found: p.pairs_found,
                pairs_first_found: p.pairs_first_found,
                keys: owned
                    .iter()
                    .map(|r| p.keys[r.id.0 as usize].clone())
                    .collect(),
            })
            .collect();
        Ok(ShardSnapshot {
            shard: shard as u32,
            shards: shards as u32,
            comparisons: self.comparisons,
            batches_applied: self.batches_applied,
            total_records: self.n_records,
            passes,
            records: owned,
            pairs: self
                .pairs
                .iter()
                .copied()
                .filter(|&(_, b)| owns(b))
                .collect(),
            edges: (0u64..)
                .zip(self.provenance.edges.iter().copied())
                .filter(|(_, e)| owns(e.a.max(e.b)))
                .collect(),
            batch_traces: self.provenance.batch_traces.clone(),
            rule_firings: self.provenance.rule_firings.clone(),
        })
    }
}

/// Recombines per-shard slices into the global [`Snapshot`], validating
/// cross-shard consistency (every duplicated scalar must agree) and
/// structural completeness (record ids must reassemble to a contiguous
/// range). Pass orders are recomputed as the stable `(key, id)` sort —
/// exactly the order the incremental engine maintains — and the closure
/// is rebuilt from the merged pair set (union-find classes are a
/// function of the pair partition, not of union order).
///
/// # Errors
///
/// [`StoreError::Corrupt`] naming the first inconsistency.
pub fn merge_shard_snapshots(parts: &[ShardSnapshot]) -> Result<Snapshot, StoreError> {
    let corrupt = |msg: String| StoreError::Corrupt(format!("shard snapshot merge: {msg}"));
    let first = parts
        .first()
        .ok_or_else(|| corrupt("no shard slices".into()))?;
    if parts.len() != first.shards as usize {
        return Err(corrupt(format!(
            "{} slices for a {}-shard store",
            parts.len(),
            first.shards
        )));
    }
    for (k, p) in parts.iter().enumerate() {
        if p.shard as usize != k {
            return Err(corrupt(format!(
                "slice {k} labels itself shard {}",
                p.shard
            )));
        }
        let same = p.shards == first.shards
            && p.comparisons == first.comparisons
            && p.batches_applied == first.batches_applied
            && p.total_records == first.total_records
            && p.batch_traces == first.batch_traces
            && p.rule_firings == first.rule_firings
            && p.passes.len() == first.passes.len()
            && p.passes.iter().zip(first.passes.iter()).all(|(a, b)| {
                a.key_name == b.key_name
                    && a.window == b.window
                    && a.pairs_found == b.pairs_found
                    && a.pairs_first_found == b.pairs_first_found
            });
        if !same {
            return Err(corrupt(format!(
                "shard {k} disagrees with shard 0 on the duplicated global state"
            )));
        }
    }

    let total = first.total_records as usize;
    let mut records: Vec<Option<Record>> = vec![None; total];
    let mut keys: Vec<Vec<String>> = vec![vec![String::new(); total]; first.passes.len()];
    for part in parts {
        for (i, rec) in part.records.iter().enumerate() {
            let id = rec.id.0 as usize;
            if records[id].is_some() {
                return Err(corrupt(format!("record {id} owned by two shards")));
            }
            records[id] = Some(rec.clone());
            for (p, pass) in part.passes.iter().enumerate() {
                keys[p][id] = pass.keys[i].clone();
            }
        }
    }
    let records: Vec<Record> = records
        .into_iter()
        .enumerate()
        .map(|(id, r)| r.ok_or_else(|| corrupt(format!("record {id} owned by no shard"))))
        .collect::<Result<_, _>>()?;

    let mut pairs: Vec<(u32, u32)> = parts.iter().flat_map(|p| p.pairs.iter().copied()).collect();
    pairs.sort_unstable();
    if pairs.windows(2).any(|w| w[0] == w[1]) {
        return Err(corrupt("duplicate pair across shards".into()));
    }
    let mut closure = UnionFind::new(total);
    for &(a, b) in &pairs {
        closure.union(a, b);
    }

    // Reassemble the edge log in its exact original order: every edge
    // carries its global ordinal, and together the shards must hold the
    // contiguous range 0..n with no duplicates.
    let mut tagged: Vec<(u64, MergeEdge)> =
        parts.iter().flat_map(|p| p.edges.iter().copied()).collect();
    tagged.sort_unstable_by_key(|&(ord, _)| ord);
    for (i, &(ord, _)) in tagged.iter().enumerate() {
        if ord != i as u64 {
            return Err(corrupt(format!(
                "provenance edge ordinals are not contiguous (expected {i}, found {ord})"
            )));
        }
    }
    let provenance = ProvenanceLog {
        edges: tagged.into_iter().map(|(_, e)| e).collect(),
        batch_traces: first.batch_traces.clone(),
        rule_firings: first.rule_firings.clone(),
    };

    let passes = first
        .passes
        .iter()
        .zip(keys)
        .map(|(meta, keys)| {
            // The engine's order invariant: ids stably sorted by key
            // (batch sorts are stable, merges keep old-before-new on
            // ties, and old ids are always smaller).
            let mut order: Vec<u32> = (0..total as u32).collect();
            order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
            PassSnapshot {
                key_name: meta.key_name.clone(),
                window: meta.window,
                pairs_found: meta.pairs_found,
                pairs_first_found: meta.pairs_first_found,
                keys,
                order,
            }
        })
        .collect();

    Ok(Snapshot {
        records,
        passes,
        pairs,
        closure,
        provenance,
        comparisons: first.comparisons,
        batches_applied: first.batches_applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_record::RecordId;

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

    /// Every shard's slice of `snap`, routed by `shard_of`.
    fn split_snapshot(
        snap: &Snapshot,
        shards: usize,
        shard_of: impl Fn(&Record) -> usize,
    ) -> Vec<ShardSnapshot> {
        let owner: Vec<u8> = snap.records.iter().map(|r| shard_of(r) as u8).collect();
        let view = snap.view();
        (0..shards)
            .map(|k| {
                view.shard_slice(k, shards, &owner, crate::borrowed(&snap.records))
                    .unwrap()
            })
            .collect()
    }

    /// A structurally consistent global snapshot whose order really is
    /// the stable (key, id) sort, as the engine maintains.
    fn sample_snapshot() -> Snapshot {
        let names = ["ADAMS", "ZHU", "BAKER", "ADAMS", "MILLER", "BAKER"];
        let records: Vec<Record> = names
            .iter()
            .enumerate()
            .map(|(i, n)| rec(i as u32, n))
            .collect();
        let keys: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let mut order: Vec<u32> = (0..records.len() as u32).collect();
        order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let pairs = vec![(0, 3), (2, 5)];
        let mut closure = UnionFind::new(records.len());
        for &(a, b) in &pairs {
            closure.union(a, b);
        }
        let mut provenance = ProvenanceLog::new();
        provenance.record_edge(MergeEdge {
            a: 0,
            b: 3,
            pass: 0,
            rule_id: 1,
            batch_seq: 1,
        });
        provenance.record_edge(MergeEdge {
            a: 2,
            b: 5,
            pass: 0,
            rule_id: 0,
            batch_seq: 2,
        });
        provenance.note_batch_trace(1, "cafef00d-00000001");
        provenance.note_firing(1);
        provenance.note_firing(0);
        Snapshot {
            records,
            passes: vec![PassSnapshot {
                key_name: "last-name".into(),
                window: 4,
                pairs_found: 3,
                pairs_first_found: 2,
                keys,
                order,
            }],
            pairs,
            closure,
            provenance,
            comparisons: 17,
            batches_applied: 2,
        }
    }

    #[test]
    fn split_merge_round_trip_restores_the_global_snapshot() {
        let snap = sample_snapshot();
        for shards in 1..=4usize {
            let parts = split_snapshot(&snap, shards, |r| {
                (r.last_name.as_bytes().first().copied().unwrap_or(b'A') as usize) % shards
            });
            assert_eq!(parts.len(), shards);
            // Encode/decode every slice on the way through.
            let decoded: Vec<ShardSnapshot> = parts
                .iter()
                .map(|p| ShardSnapshot::decode(&p.encode()).unwrap())
                .collect();
            assert_eq!(decoded, parts);
            let merged = merge_shard_snapshots(&decoded).unwrap();
            assert_eq!(merged.records, snap.records);
            assert_eq!(merged.passes, snap.passes);
            assert_eq!(merged.pairs, snap.pairs);
            assert_eq!(
                merged.provenance, snap.provenance,
                "edge log must reassemble in its exact original order"
            );
            assert_eq!(merged.comparisons, snap.comparisons);
            assert_eq!(merged.batches_applied, snap.batches_applied);
            assert_eq!(
                merged.closure.clone().classes(),
                snap.closure.clone().classes()
            );
        }
    }

    #[test]
    fn merge_rejects_inconsistent_slices() {
        let snap = sample_snapshot();
        let parts = split_snapshot(&snap, 2, |r| usize::from(r.id.0 % 2 == 1));
        // Disagreeing duplicated scalar.
        let mut bad = parts.clone();
        bad[1].comparisons += 1;
        assert!(merge_shard_snapshots(&bad).is_err());
        // Missing record.
        let mut bad = parts.clone();
        bad[1].records.pop();
        bad[1].passes[0].keys.pop();
        assert!(merge_shard_snapshots(&bad).is_err());
        // Duplicate pair.
        let mut bad = parts.clone();
        let p = bad[0].pairs.first().or(bad[1].pairs.first()).copied();
        if let Some(p) = p {
            bad[0].pairs.push(p);
            bad[1].pairs.push(p);
            bad[0].pairs.sort_unstable();
            bad[1].pairs.sort_unstable();
            assert!(merge_shard_snapshots(&bad).is_err());
        }
        // Wrong slice count.
        assert!(merge_shard_snapshots(&parts[..1]).is_err());
    }

    #[test]
    fn shard_snapshot_byte_flips_are_detected() {
        let snap = sample_snapshot();
        let part = split_snapshot(&snap, 2, |r| (r.id.0 % 2) as usize).remove(0);
        let bytes = part.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                ShardSnapshot::decode(&bad).is_err(),
                "byte flip at {i} went undetected"
            );
        }
    }

    #[test]
    fn shard_snapshot_length_near_u64_max_is_corrupt() {
        let snap = sample_snapshot();
        let part = split_snapshot(&snap, 2, |r| (r.id.0 % 2) as usize).remove(0);
        let bytes = part.encode();
        for len in [u64::MAX, u64::MAX - 23, 0] {
            let mut bad = bytes.clone();
            bad[12..20].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(ShardSnapshot::decode(&bad), Err(StoreError::Corrupt(_))),
                "len {len}"
            );
        }
    }

    // ---- store-level recovery -------------------------------------------

    fn scatter(journals: &mut [Journal], frames: &[Vec<Record>]) -> u64 {
        let mut seq = 0;
        for (j, frame) in journals.iter_mut().zip(frames) {
            seq = j.append(frame, None).unwrap();
        }
        seq
    }

    #[test]
    fn complete_scatters_replay_and_reassemble_by_id() {
        let dir = tmp_dir("replay");
        let (_store, mut loaded) = ShardedStore::open(&dir, 2).unwrap();
        assert!(loaded.snapshot.is_none() && loaded.replayable.is_empty());
        // Batch 1: records 0,1,2 — 0 and 2 to shard 0, 1 to shard 1.
        scatter(
            &mut loaded.journals,
            &[vec![rec(0, "A"), rec(2, "C")], vec![rec(1, "B")]],
        );
        // Batch 2: record 3 to shard 1 only; shard 0 gets the empty frame.
        scatter(&mut loaded.journals, &[vec![], vec![rec(3, "D")]]);
        drop(loaded);

        let (_store, loaded) = ShardedStore::open(&dir, 2).unwrap();
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
        assert_eq!(loaded.next_seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_scatter_is_truncated_and_its_seq_reused() {
        let dir = tmp_dir("orphan");
        let (_store, mut loaded) = ShardedStore::open(&dir, 3).unwrap();
        scatter(
            &mut loaded.journals,
            &[vec![rec(0, "A")], vec![rec(1, "B")], vec![]],
        );
        // Crash mid-scatter of batch 2: only shard 0's frame landed.
        loaded.journals[0].append(&[rec(2, "C")], None).unwrap();
        drop(loaded);

        let (_store, loaded) = ShardedStore::open(&dir, 3).unwrap();
        assert_eq!(loaded.replayable.len(), 1, "orphan batch must not replay");
        assert!(loaded.truncated_bytes > 0);
        assert!(
            loaded
                .truncation_reasons
                .iter()
                .any(|r| r.contains("orphan")),
            "{:?}",
            loaded.truncation_reasons
        );
        // Every journal now appends at seq 2 — the orphan's seq is reused.
        for j in &loaded.journals {
            assert_eq!(j.next_seq(), 2);
        }
        drop(loaded);
        // And the store reopens clean.
        let (_store, loaded) = ShardedStore::open(&dir, 3).unwrap();
        assert_eq!(loaded.truncated_bytes, 0);
        assert_eq!(loaded.replayable.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_commit_and_crash_windows() {
        let dir = tmp_dir("epoch");
        let (mut store, mut loaded) = ShardedStore::open(&dir, 2).unwrap();
        scatter(
            &mut loaded.journals,
            &[vec![rec(0, "ADAMS")], vec![rec(1, "ZHU")]],
        );

        // Phase 1: write both slices for epoch 1...
        let snap = Snapshot {
            records: vec![rec(0, "ADAMS"), rec(1, "ZHU")],
            passes: vec![],
            pairs: vec![],
            closure: UnionFind::new(2),
            provenance: ProvenanceLog::new(),
            comparisons: 1,
            batches_applied: 1,
        };
        let parts = split_snapshot(&snap, 2, |r| (r.id.0 % 2) as usize);
        for (k, part) in parts.iter().enumerate() {
            write_shard_snapshot(&store.shard_dir(k), 1, &part.encode()).unwrap();
        }

        // Crash before commit: epoch-1 files are stale and removed.
        drop(loaded);
        let (_s2, loaded) = ShardedStore::open(&dir, 2).unwrap();
        assert!(loaded.snapshot.is_none(), "uncommitted epoch must not load");
        assert!(!store.shard_dir(0).join("snapshot-1.mps").exists());
        assert_eq!(loaded.replayable.len(), 1, "journal still replays");
        drop(loaded);

        // Redo phase 1, then commit; crash before the journal resets.
        for (k, part) in parts.iter().enumerate() {
            write_shard_snapshot(&store.shard_dir(k), 1, &part.encode()).unwrap();
        }
        store.commit_epoch(1).unwrap();
        assert_eq!(store.epoch(), 1);
        let (s3, loaded) = ShardedStore::open(&dir, 2).unwrap();
        assert_eq!(s3.epoch(), 1);
        let merged = loaded.snapshot.as_ref().unwrap();
        assert_eq!(merged.batches_applied, 1);
        assert_eq!(merged.records.len(), 2);
        assert!(
            loaded.replayable.is_empty(),
            "frames at or below the watermark are filtered"
        );
        assert_eq!(loaded.next_seq, 2);
        assert!(s3.snapshot_meta().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_is_fixed_at_creation() {
        let dir = tmp_dir("fixed");
        let (_store, _loaded) = ShardedStore::open(&dir, 3).unwrap();
        match ShardedStore::open(&dir, 4) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("3 shards"), "{msg}"),
            other => panic!("shard-count mismatch must be rejected: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
