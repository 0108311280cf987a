//! Append-only batch journal with torn-tail recovery.
//!
//! The journal makes every ingested batch durable *before* it is applied to
//! the in-memory state: `state = last snapshot + journal replayed`. A batch
//! is acknowledged only after its frame has been `fsync`ed, so a crash at
//! any point loses at most an unacknowledged batch.
//!
//! # On-disk layout
//!
//! ```text
//! header  : magic  b"MPJL"            (4 bytes)
//!           version u32 = 2           (4 bytes)
//! frame*  : magic  b"MPJF"            (4 bytes)
//!           seq     u64               (batch sequence number, 1-based)
//!           len     u64               (payload byte length)
//!           crc     u32               (CRC-32 of payload)
//!           payload                   (u32 count + encoded records,
//!                                      then u32 trace flag [+ trace string])
//! ```
//!
//! Version 2 appended the trace tail to the frame payload: the ingest
//! trace id rides the journal so replay can re-annotate the provenance
//! log with the *original* trace of each batch, keeping the merge
//! lineage byte-identical across crash recovery.
//!
//! # Recovery semantics
//!
//! On open the whole file is scanned front to back. The first frame that is
//! short, has a bad magic, an out-of-order sequence number, a CRC mismatch,
//! or an undecodable payload marks the start of a *torn tail*: the file is
//! truncated back to the end of the last good frame and the number of
//! dropped bytes is reported in [`JournalRecovery::truncated_bytes`]. A
//! corrupt tail is therefore detected and removed — never silently loaded —
//! and the journal is immediately appendable again.

use crate::codec::{self, Reader};
use crate::{replace_file, StoreError};
use mp_record::Record;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const JOURNAL_MAGIC: &[u8; 4] = b"MPJL";
const FRAME_MAGIC: &[u8; 4] = b"MPJF";
/// Journal format version written into the header.
pub const JOURNAL_VERSION: u32 = 2;
const HEADER_LEN: usize = 8;
const FRAME_HEADER_LEN: usize = 4 + 8 + 8 + 4;

/// One recovered journal frame: the batch, its sequence number, and the
/// ingest trace id the frame carried (absent for untraced appends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalBatch {
    /// Batch sequence number (1-based, contiguous after filtering).
    pub seq: u64,
    /// The journaled records.
    pub records: Vec<Record>,
    /// Trace id of the ingest that journaled this batch, if any.
    pub trace: Option<String>,
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every intact journaled batch, in sequence order.
    pub batches: Vec<JournalBatch>,
    /// Bytes removed from a torn/corrupt tail (0 on a clean open).
    pub truncated_bytes: u64,
    /// Human-readable reason for the truncation, when one happened.
    pub truncation_reason: Option<String>,
}

impl JournalRecovery {
    /// True when a torn or corrupt tail was detected and removed.
    pub fn truncated(&self) -> bool {
        self.truncated_bytes > 0 || self.truncation_reason.is_some()
    }
}

/// Append handle over the journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    next_seq: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, scanning and
    /// validating every frame. Torn tails are truncated as described in the
    /// module docs; a missing or mangled *header* truncates to an empty
    /// journal (the file is only ever header-less mid-creation).
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Unsupported`] naming the version
    /// when the header is intact but of another format version and frames
    /// follow it — a journal an older or newer build wrote. Its frames are
    /// acknowledged batches this build cannot read, so the file is left
    /// byte for byte as it was. A journal of another version that holds
    /// only its header (what a checkpoint leaves) carries no batch and is
    /// started afresh.
    pub fn open(path: &Path) -> Result<(Journal, JournalRecovery), StoreError> {
        let mut recovery = JournalRecovery::default();
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }

        let mut good_end = 0usize;
        let mut last_seq: Option<u64> = None;
        let version = (data.len() >= HEADER_LEN && &data[..4] == JOURNAL_MAGIC)
            .then(|| u32::from_le_bytes(data[4..8].try_into().unwrap()));
        if let Some(v) = version.filter(|&v| v != JOURNAL_VERSION && data.len() > HEADER_LEN) {
            return Err(StoreError::Unsupported(format!(
                "{}: journal format version {v}, but this build reads version \
                 {JOURNAL_VERSION}; checkpoint the store with the build that wrote it \
                 (`send --cmd snapshot`), which empties the journal",
                path.display(),
            )));
        }
        if version == Some(JOURNAL_VERSION) {
            good_end = HEADER_LEN;
            loop {
                let rest = &data[good_end..];
                if rest.is_empty() {
                    break;
                }
                match Self::scan_frame(rest, last_seq) {
                    Ok((batch, frame_len)) => {
                        last_seq = Some(batch.seq);
                        recovery.batches.push(batch);
                        good_end += frame_len;
                    }
                    Err(reason) => {
                        recovery.truncation_reason = Some(reason);
                        break;
                    }
                }
            }
        } else if !data.is_empty() {
            recovery.truncation_reason = Some(match version {
                Some(v) => format!("empty journal of format version {v} started afresh"),
                None => "journal header missing or mangled".into(),
            });
        }

        recovery.truncated_bytes = (data.len() - good_end) as u64;
        if recovery.truncated() {
            // Drop the tail on disk, then fall through to the append path.
            let f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            f.set_len(good_end as u64)?;
            f.sync_all()?;
        }

        let mut file = OpenOptions::new().append(true).create(true).open(path)?;
        if good_end == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(JOURNAL_MAGIC);
            header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
        }
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                // `scan_frame` keeps only frames whose seq has a successor.
                next_seq: last_seq.map_or(1, |s| s + 1),
            },
            recovery,
        ))
    }

    /// Parses one frame from `rest`; returns `(batch, total frame bytes)`
    /// or the reason this frame starts a torn tail. The first frame
    /// of a file may carry any sequence number (a post-snapshot
    /// [`Journal::reset`] renumbers); later frames must be contiguous.
    fn scan_frame(rest: &[u8], last_seq: Option<u64>) -> Result<(JournalBatch, usize), String> {
        if rest.len() < FRAME_HEADER_LEN {
            return Err(format!(
                "partial frame header ({} of {FRAME_HEADER_LEN} bytes)",
                rest.len()
            ));
        }
        if &rest[..4] != FRAME_MAGIC {
            return Err("bad frame magic".into());
        }
        // The header is outside the payload CRC: a sequence number with no
        // successor, or a length past the file, is a torn tail.
        let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let len = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[20..24].try_into().unwrap());
        if seq.checked_add(1).is_none() {
            return Err(format!("frame sequence {seq} has no successor"));
        }
        if let Some(last) = last_seq {
            if last.checked_add(1) != Some(seq) {
                return Err(format!("sequence jump: frame {seq} after {last}"));
            }
        }
        let body = &rest[FRAME_HEADER_LEN..];
        if len > body.len() as u64 {
            return Err(format!(
                "partial frame payload ({} of {len} bytes)",
                body.len()
            ));
        }
        let payload = &body[..len as usize];
        if codec::crc32(payload) != crc {
            return Err(format!("CRC mismatch on frame {seq}"));
        }
        let mut r = Reader::new(payload);
        let records = codec::take_records(&mut r).map_err(|e| format!("frame {seq}: {e}"))?;
        let trace = match r.u32().map_err(|e| format!("frame {seq}: {e}"))? {
            0 => None,
            1 => Some(r.str().map_err(|e| format!("frame {seq}: {e}"))?),
            other => return Err(format!("frame {seq}: bad trace flag {other}")),
        };
        r.finish().map_err(|e| format!("frame {seq}: {e}"))?;
        Ok((
            JournalBatch {
                seq,
                records,
                trace,
            },
            FRAME_HEADER_LEN + payload.len(),
        ))
    }

    /// Sequence number the next appended batch will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Raises the next sequence number to at least `min_next`. The store
    /// calls this after loading a snapshot: a crash between the snapshot
    /// rename and the journal reset leaves an empty-looking journal whose
    /// scan-derived counter would restart at 1, below the snapshot's
    /// watermark.
    pub fn bump_next_seq(&mut self, min_next: u64) {
        self.next_seq = self.next_seq.max(min_next);
    }

    /// Appends one batch as a CRC-protected frame and `fsync`s, carrying
    /// the ingest `trace` id (if any) so replay can reproduce it. The
    /// batch is durable when this returns; the assigned sequence number
    /// is returned.
    pub fn append(&mut self, records: &[Record], trace: Option<&str>) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        let mut payload = Vec::new();
        codec::put_records(&mut payload, records);
        match trace {
            None => codec::put_u32(&mut payload, 0),
            Some(t) => {
                codec::put_u32(&mut payload, 1);
                codec::put_str(&mut payload, t);
            }
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(FRAME_MAGIC);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_all()?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Atomically replaces the journal with a fresh, empty one whose next
    /// sequence number is `next_seq` (the crate's one write-temp + fsync +
    /// rename + dir-fsync routine). Called after a snapshot has made the
    /// journaled batches redundant.
    pub fn reset(&mut self, next_seq: u64) -> Result<(), StoreError> {
        replace_file(&self.path, |file| {
            file.write_all(JOURNAL_MAGIC)?;
            file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
            Ok(())
        })?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.next_seq = next_seq;
        Ok(())
    }

    /// Swaps the append handle for `file`, returning the old one: lets a
    /// test make the next append fail (a read-only handle) and recover.
    #[cfg(test)]
    pub(crate) fn swap_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }

    /// The replay filter: keeps only batches a snapshot has not yet
    /// absorbed, and checks the survivors are contiguous from
    /// `batches_applied + 1` (a gap means the snapshot and journal disagree
    /// — corruption, not a torn tail).
    pub fn filter_replayable(
        recovery: &mut JournalRecovery,
        batches_applied: u64,
    ) -> Result<(), StoreError> {
        recovery.batches.retain(|b| b.seq > batches_applied);
        for (want, b) in (batches_applied + 1..).zip(recovery.batches.iter()) {
            if b.seq != want {
                return Err(StoreError::Corrupt(format!(
                    "journal gap: snapshot holds batches 1..={batches_applied} but the next \
                     journal frame is {} (expected {want})",
                    b.seq
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_record::{Record, RecordId};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.mpj")
    }

    fn batch(tag: u32, n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let mut r = Record::empty(RecordId(i));
                r.last_name = format!("L{tag}-{i}").into();
                r
            })
            .collect()
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = tmp("replay");
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert!(rec.batches.is_empty() && !rec.truncated());
        assert_eq!(j.append(&batch(1, 3), Some("trace-1")).unwrap(), 1);
        assert_eq!(j.append(&batch(2, 2), None).unwrap(), 2);
        drop(j);
        let (j2, rec) = Journal::open(&path).unwrap();
        assert!(!rec.truncated());
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.batches[0].seq, 1);
        assert_eq!(rec.batches[0].records, batch(1, 3));
        assert_eq!(rec.batches[0].trace.as_deref(), Some("trace-1"));
        assert_eq!(rec.batches[1].records, batch(2, 2));
        assert_eq!(rec.batches[1].trace, None);
        assert_eq!(j2.next_seq(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_journal_stays_appendable() {
        let path = tmp("torn");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&batch(1, 4), Some("t1")).unwrap();
        j.append(&batch(2, 4), Some("t2")).unwrap();
        drop(j);
        // Simulate a crash mid-append: chop 5 bytes off the last frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert!(rec.truncated());
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.batches.len(), 1, "only the intact frame survives");
        // The journal is clean again: appends resume at the right seq.
        assert_eq!(j.append(&batch(9, 1), None).unwrap(), 2);
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(!rec.truncated());
        assert_eq!(rec.batches.len(), 2);
    }

    #[test]
    fn flipped_payload_byte_fails_crc_and_truncates() {
        let path = tmp("crc");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&batch(1, 4), None).unwrap();
        let after_first = std::fs::metadata(&path).unwrap().len();
        j.append(&batch(2, 4), None).unwrap();
        drop(j);
        let mut data = std::fs::read(&path).unwrap();
        let flip = after_first as usize + FRAME_HEADER_LEN + 3;
        data[flip] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(rec.truncated());
        assert!(rec.truncation_reason.unwrap().contains("CRC"));
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            after_first,
            "file truncated back to the last good frame"
        );
    }

    /// Overwrites the `seq` field of the frame starting at `frame_at`
    /// (outside the payload CRC).
    fn patch_seq(path: &Path, frame_at: usize, seq: u64) {
        let mut data = std::fs::read(path).unwrap();
        data[frame_at + 4..frame_at + 12].copy_from_slice(&seq.to_le_bytes());
        std::fs::write(path, &data).unwrap();
    }

    #[test]
    fn last_frame_with_max_seq_is_a_torn_tail() {
        // One frame numbered u64::MAX: no next sequence number exists.
        let path = tmp("maxseq-last");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&batch(1, 2), None).unwrap();
        drop(j);
        patch_seq(&path, HEADER_LEN, u64::MAX);
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert!(rec.truncated() && rec.batches.is_empty());
        assert!(rec.truncation_reason.unwrap().contains("successor"));
        assert_eq!(j.append(&batch(2, 1), None).unwrap(), 1);
    }

    #[test]
    fn frame_after_max_seq_does_not_overflow() {
        // Frame u64::MAX followed by another: its predecessor check must
        // not compute `u64::MAX + 1`.
        let path = tmp("maxseq-next");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&batch(1, 2), None).unwrap();
        j.append(&batch(2, 2), None).unwrap();
        drop(j);
        patch_seq(&path, HEADER_LEN, u64::MAX);
        let (j, rec) = Journal::open(&path).unwrap();
        assert!(rec.truncated() && rec.batches.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN as u64);
        assert_eq!(j.next_seq(), 1);
    }

    /// A journal of another format version holds batches this build
    /// cannot read: opening it is an error that names the version, and
    /// the file keeps every byte. Holding only its header, it carries no
    /// batch and starts afresh.
    #[test]
    fn a_journal_of_another_version_is_refused_and_left_untouched() {
        let path = tmp("other-version");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&batch(1, 3), Some("t-1")).unwrap();
        j.append(&batch(2, 2), None).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let err = Journal::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Unsupported(_)), "{err}");
        let version = format!("journal format version {}", JOURNAL_VERSION + 1);
        assert!(err.to_string().contains(&version), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "file untouched");

        std::fs::write(&path, &bytes[..HEADER_LEN]).unwrap();
        let (j, rec) = Journal::open(&path).unwrap();
        assert!(rec.batches.is_empty() && rec.truncated(), "{rec:?}");
        assert_eq!(j.next_seq(), 1);
        let mut fresh = JOURNAL_MAGIC.to_vec();
        fresh.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        assert_eq!(std::fs::read(&path).unwrap(), fresh);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_empties_and_renumbers() {
        let path = tmp("reset");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&batch(1, 2), None).unwrap();
        j.append(&batch(2, 2), None).unwrap();
        j.reset(3).unwrap();
        assert_eq!(j.append(&batch(3, 2), Some("t3")).unwrap(), 3);
        drop(j);
        let (_, mut rec) = Journal::open(&path).unwrap();
        // Fresh journal holds only the post-reset batch, renumbered.
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].seq, 3);
        assert_eq!(rec.batches[0].trace.as_deref(), Some("t3"));
        // Replay filtering against the snapshot watermark keeps it.
        assert!(Journal::filter_replayable(&mut rec, 2).is_ok());
        assert_eq!(rec.batches.len(), 1);
    }

    #[test]
    fn filter_detects_gaps() {
        let jb = |seq: u64| JournalBatch {
            seq,
            records: batch(seq as u32, 1),
            trace: None,
        };
        let mut rec = JournalRecovery {
            batches: vec![jb(4), jb(5)],
            ..Default::default()
        };
        assert!(Journal::filter_replayable(&mut rec, 2).is_err());
        let mut ok = JournalRecovery {
            batches: vec![jb(3), jb(4)],
            ..Default::default()
        };
        Journal::filter_replayable(&mut ok, 2).unwrap();
        assert_eq!(ok.batches.len(), 2);
    }
}
