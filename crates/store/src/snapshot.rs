//! Versioned binary snapshot of accumulated incremental merge/purge state.
//!
//! A snapshot is a self-contained checkpoint: the records seen so far, each
//! pass's sorted key index, the matched pair set with per-pass attribution,
//! the union-find closure forest, and the counters needed to resume cost
//! accounting. `state = snapshot + journal replayed` — see
//! [`crate::MatchStore`].
//!
//! # On-disk layout
//!
//! ```text
//! header   : magic   b"MPSTORE\0"     (8 bytes)
//!            version u32 = 3
//!            count   u32              (number of sections)
//! section* : tag     [u8; 4]          ("META" "RECS" "PASS" "PAIR" "CLOS" "PROV")
//!            len     u64              (payload byte length)
//!            crc     u32              (CRC-32 of payload)
//!            payload
//! ```
//!
//! The payloads, integers little-endian, `varint` LEB128
//! ([`codec::put_varint`]):
//!
//! ```text
//! META : comparisons u64, batches_applied u64, records u64, pairs u64
//! RECS : n u32, then n records, each:           (no id: ids are positional)
//!          entity flag u8 [+ entity u32], 10 × field length varint,
//!          the ten fields' bytes back to back
//! PASS : passes u32, then per pass:
//!          key name (u32 length + bytes), window u32,
//!          pairs_found u64, pairs_first_found u64,
//!          n u32, order n × u32, n × key length varint,
//!          the n keys' bytes back to back, in order sequence
//! PAIR : n u64, then n × (low u32, high u32), ascending
//! CLOS : the closure forest (mp_closure::UnionFind::encode_into)
//! PROV : the provenance log (mp_closure::ProvenanceLog::encode_into)
//! ```
//!
//! A record decodes with one UTF-8 check over its ten fields' bytes
//! ([`codec::take_snapshot_record`]). A pass is stored as its sorted run:
//! the order, then the keys in that order. One sequential sweep per pass
//! checks the UTF-8 of the run's keys once, that every key ends on a
//! character boundary, that the order is a permutation of the records (a
//! bitmap), and that the run is strictly ascending by (key, id) — the
//! order a stable sort by key gives. The same sweep hands the run's bytes
//! to the pass's [`KeyArena`] whole, so its buffer is in sorted order and
//! a restored pass scans its keys sequentially.
//!
//! # Versions
//!
//! Version 2 added the `PROV` section: the merge-provenance log
//! ([`mp_closure::ProvenanceLog`]) — spanning-forest edges, per-batch
//! trace ids, and per-rule firing counts — so the evidence behind every
//! merge survives checkpoints. Version 3 changed `RECS` and `PASS` only.
//! Version 2 held each record in the journal's encoding
//! ([`codec::put_record`]: id, entity, ten `u32`-length-prefixed fields)
//! and each pass as its keys in id order (a `u32` count, then
//! `u32`-length-prefixed keys) followed by its order (a `u32` count, then
//! the ids). [`Snapshot::decode`] reads both versions and holds a version-2
//! order to the same checks as a version-3 run; the encoder writes only
//! version 3, so a store's next checkpoint upgrades it.
//!
//! There is one encoder, [`SnapshotView::encode`]'s streaming core: every
//! producer (a checkpoint borrowing the live engine, a bulk load copying
//! the record spill its run formation wrote, an owned [`Snapshot`]) hands
//! it a borrowed [`SnapshotView`] plus a [`RecordSource`], and it emits
//! the six sections in the order above through an incremental CRC — no
//! section, let alone the file, is ever built in memory first.
//!
//! Section CRCs are verified on load; any mismatch, unknown version, or
//! structural inconsistency (e.g. a pass index referencing a record that
//! does not exist, or out of key order) is a [`StoreError::Corrupt`] — a
//! damaged snapshot is *reported*, never silently loaded. Unknown section
//! tags are skipped so newer writers can add sections without breaking
//! older readers.

use crate::codec::{self, Crc32, Reader};
use crate::StoreError;
use mp_closure::{ProvenanceLog, UnionFind};
use mp_record::{KeyArena, Record, RecordId};
use std::borrow::Cow;
use std::io::{self, Seek, SeekFrom, Write};

const SNAPSHOT_MAGIC: &[u8; 8] = b"MPSTORE\0";
/// Snapshot format version written into the header.
pub const SNAPSHOT_VERSION: u32 = 3;
/// The older version [`Snapshot::decode`] still reads.
const SNAPSHOT_VERSION_2: u32 = 2;

/// One pass's persisted state: configuration (for validation on load),
/// attribution counters, and the sorted key index that lets the next batch
/// of B records be inserted by search — O(B log B + B log N) key
/// comparisons and one block move of the order — instead of a full resort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassSnapshot {
    /// Display name of the pass's key (`KeySpec::name` in the core crate);
    /// checked against the runtime configuration on load.
    pub key_name: String,
    /// Window size of the pass.
    pub window: u32,
    /// Matching pairs this pass's scans emitted (cumulative, incl. pairs
    /// other passes also found).
    pub pairs_found: u64,
    /// Of those, pairs no earlier scan of any pass had already recorded.
    pub pairs_first_found: u64,
    /// Extracted sort key per record, indexed by record id, in one arena.
    pub keys: KeyArena,
    /// Record ids in sorted key order (stable: ties keep smaller id first).
    pub order: Vec<u32>,
}

/// A complete, loadable checkpoint of incremental merge/purge state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All records accumulated so far, ids positional.
    pub records: Vec<Record>,
    /// Per-pass sorted key indexes and attribution, in pass order.
    pub passes: Vec<PassSnapshot>,
    /// Distinct matched pairs, sorted ascending.
    pub pairs: Vec<(u32, u32)>,
    /// Union-find closure over `0..records.len()`.
    pub closure: UnionFind,
    /// Pair comparisons performed across all absorbed batches.
    pub comparisons: u64,
    /// Number of batches this snapshot has absorbed; journal frames with
    /// `seq <= batches_applied` are skipped on replay.
    pub batches_applied: u64,
    /// Merge provenance: spanning-forest edges, batch trace ids, and
    /// per-rule firing counts. Empty for states whose closure predates
    /// the log (e.g. cold bulk loads, which union pairs without per-merge
    /// evidence).
    pub provenance: ProvenanceLog,
}

impl Snapshot {
    /// Borrows this snapshot as the view the encoder takes (records are
    /// handed to the encoder separately; see [`borrowed`]).
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            n_records: self.records.len() as u64,
            passes: self.passes.iter().collect(),
            pairs: Cow::Borrowed(&self.pairs),
            closure: &self.closure,
            provenance: &self.provenance,
            comparisons: self.comparisons,
            batches_applied: self.batches_applied,
        }
    }

    /// Serializes the snapshot into its on-disk byte representation:
    /// [`SnapshotView::encode`] over [`Snapshot::view`].
    ///
    /// # Panics
    ///
    /// When a record's id is not its position, or a pass holds a
    /// different number of keys than its order: the layout stores
    /// neither.
    pub fn encode(&self) -> Vec<u8> {
        self.view()
            .encode(borrowed(&self.records))
            .expect("a snapshot of positional records encodes into memory")
    }

    /// Parses and validates a snapshot produced by [`Snapshot::encode`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on a bad magic/version, a section CRC
    /// mismatch, or any structural inconsistency.
    pub fn decode(data: &[u8]) -> Result<Snapshot, StoreError> {
        let corrupt = |msg: String| StoreError::Corrupt(format!("snapshot: {msg}"));
        if data.len() < 16 {
            return Err(corrupt(format!("file too short ({} bytes)", data.len())));
        }
        if &data[..8] != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_2 {
            return Err(corrupt(format!(
                "format version {version} (this build reads {SNAPSHOT_VERSION_2} and \
                 {SNAPSHOT_VERSION})"
            )));
        }
        let v2 = version == SNAPSHOT_VERSION_2;
        // Neither the section count nor a section length is under any CRC:
        // both are checked against the bytes actually present before they
        // size an allocation or a slice (every section header is 16 bytes).
        let count = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;

        let mut sections: Vec<([u8; 4], u32, &[u8])> =
            Vec::with_capacity(count.min((data.len() - 16) / 16));
        let mut off = 16usize;
        for i in 0..count {
            if data.len() - off < 16 {
                return Err(corrupt(format!("section {i}: truncated header")));
            }
            let tag: [u8; 4] = data[off..off + 4].try_into().unwrap();
            let len = u64::from_le_bytes(data[off + 4..off + 12].try_into().unwrap());
            let crc = u32::from_le_bytes(data[off + 12..off + 16].try_into().unwrap());
            off += 16;
            if len > (data.len() - off) as u64 {
                return Err(corrupt(format!("section {i}: truncated payload")));
            }
            let payload = &data[off..off + len as usize];
            sections.push((tag, crc, payload));
            off += payload.len();
        }
        if off != data.len() {
            return Err(corrupt(format!("{} trailing bytes", data.len() - off)));
        }
        // A section's payload is handed out only once its CRC holds.
        let find = |tag: &[u8; 4]| -> Result<&[u8], StoreError> {
            let name = String::from_utf8_lossy(tag);
            let &(_, crc, payload) = sections
                .iter()
                .find(|(t, _, _)| t == tag)
                .ok_or_else(|| corrupt(format!("missing section {name:?}")))?;
            if codec::crc32(payload) != crc {
                return Err(corrupt(format!("section {name:?}: CRC mismatch")));
            }
            Ok(payload)
        };

        let mut r = Reader::new(find(b"META")?);
        let (comparisons, batches_applied, n_records, n_pairs) = (|| {
            let c = r.u64()?;
            let b = r.u64()?;
            let nr = r.u64()?;
            let np = r.u64()?;
            r.finish()?;
            Ok::<_, String>((c, b, nr as usize, np as usize))
        })()
        .map_err(|e| corrupt(format!("META: {e}")))?;

        let records = || {
            let mut r = Reader::new(find(b"RECS")?);
            let records = if v2 {
                codec::take_records(&mut r)
            } else {
                take_records(&mut r)
            }
            .and_then(|recs| r.finish().map(|()| recs))
            .map_err(|e| corrupt(format!("RECS: {e}")))?;
            if records.len() != n_records {
                return Err(corrupt(format!(
                    "META says {n_records} records, RECS holds {}",
                    records.len()
                )));
            }
            Ok(records)
        };

        // Everything else is checked against META's record count, which
        // `records` holds RECS to.
        let indexes = || {
            let mut r = Reader::new(find(b"PASS")?);
            let passes = (|| {
                let np = r.u32()? as usize;
                let mut passes = Vec::with_capacity(np.min(64));
                for i in 0..np {
                    passes.push(take_pass(&mut r, i, n_records, v2)?);
                }
                r.finish()?;
                Ok::<_, String>(passes)
            })()
            .map_err(|e| corrupt(format!("PASS: {e}")))?;

            let mut r = Reader::new(find(b"PAIR")?);
            let pairs = (|| {
                let n = r.u64()? as usize;
                let mut pairs = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
                for _ in 0..n {
                    pairs.push((r.u32()?, r.u32()?));
                }
                r.finish()?;
                Ok::<_, String>(pairs)
            })()
            .map_err(|e| corrupt(format!("PAIR: {e}")))?;
            if pairs.len() != n_pairs {
                return Err(corrupt(format!(
                    "META says {n_pairs} pairs, PAIR holds {}",
                    pairs.len()
                )));
            }
            if pairs
                .iter()
                .any(|&(a, b)| a >= b || b as usize >= n_records)
            {
                return Err(corrupt("PAIR: pair out of range or not (low, high)".into()));
            }

            let closure =
                UnionFind::decode(find(b"CLOS")?).map_err(|e| corrupt(format!("CLOS: {e}")))?;
            if closure.len() != n_records {
                return Err(corrupt(format!(
                    "closure covers {} elements but there are {n_records} records",
                    closure.len(),
                )));
            }

            let provenance =
                ProvenanceLog::decode(find(b"PROV")?).map_err(|e| corrupt(format!("PROV: {e}")))?;
            for (i, e) in provenance.edges.iter().enumerate() {
                if e.a as usize >= n_records || e.b as usize >= n_records {
                    return Err(corrupt(format!("PROV: edge {i} references missing record")));
                }
                if e.batch_seq == 0 || e.batch_seq > batches_applied {
                    return Err(corrupt(format!(
                        "PROV: edge {i} from batch {} outside 1..={batches_applied}",
                        e.batch_seq
                    )));
                }
            }
            Ok((passes, pairs, closure, provenance))
        };

        // The records are most of the bytes and need nothing from the
        // other sections: they decode on the calling thread while a second
        // thread checks and decodes the rest, so an open costs the larger
        // of the two rather than their sum.
        let (records, indexes) = std::thread::scope(|s| {
            let indexes = s.spawn(indexes);
            let records = records();
            let indexes = indexes
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (records, indexes)
        });
        let records = records?;
        let (passes, pairs, closure, provenance) = indexes?;

        Ok(Snapshot {
            records,
            passes,
            pairs,
            closure,
            comparisons,
            batches_applied,
            provenance,
        })
    }
}

/// Reads a version-3 `RECS` payload: a `u32` count, then that many
/// [`codec::take_snapshot_record`]s, numbered by position.
fn take_records(r: &mut Reader<'_>) -> Result<Vec<Record>, String> {
    let n = r.u32()? as usize;
    // `n` is unchecked: a record takes at least 11 bytes (entity flag and
    // ten lengths), so the bytes present cap the pre-allocation.
    let mut records = Vec::with_capacity(n.min(r.remaining() / 11));
    for id in 0..n {
        records.push(codec::take_snapshot_record(r, RecordId(id as u32))?);
    }
    Ok(records)
}

/// Reads pass `i` of a `PASS` payload over `records` records: its header,
/// then its index as a version-3 sorted run or, when `v2`, as version 2's
/// id-ordered keys and order.
fn take_pass(
    r: &mut Reader<'_>,
    i: usize,
    records: usize,
    v2: bool,
) -> Result<PassSnapshot, String> {
    let key_name = r.str()?;
    let window = r.u32()?;
    let pairs_found = r.u64()?;
    let pairs_first_found = r.u64()?;
    let (keys, order) = if v2 {
        take_index_v2(r, records)
    } else {
        take_run(r, records)
    }
    .map_err(|e| format!("pass {i}: {e}"))?;
    Ok(PassSnapshot {
        key_name,
        window,
        pairs_found,
        pairs_first_found,
        keys,
        order,
    })
}

/// Reads a pass stored as its sorted run over `n` records — the order, the
/// key lengths, the keys in order sequence — in one sweep that checks the
/// run ([`RunCheck`]) and lays each key's span into an arena over the
/// run's bytes.
fn take_run(r: &mut Reader<'_>, n: usize) -> Result<(KeyArena, Vec<u32>), String> {
    let count = r.u32()? as usize;
    if count != n {
        return Err(format!("{count} keys for {n} records"));
    }
    let ids = r.take(n * 4)?;
    // Sum the lengths first, so the blob is located and checked as UTF-8
    // once; the sweep reads them again from `lens`.
    let mut lens = *r;
    let mut bytes = 0usize;
    for _ in 0..n {
        bytes = bytes
            .checked_add(r.varint()? as usize)
            .ok_or("key lengths overflow")?;
    }
    if bytes > u32::MAX as usize {
        return Err(format!("{bytes} key bytes exceed 4 GiB"));
    }
    let blob =
        std::str::from_utf8(r.take(bytes)?).map_err(|_| "invalid UTF-8 in keys".to_string())?;

    let mut order = Vec::with_capacity(n);
    let mut spans = vec![(0u32, 0u32); n];
    let mut check = RunCheck::new(n);
    let mut start = 0usize;
    for (at, id) in ids.chunks_exact(4).enumerate() {
        let id = u32::from_le_bytes(id.try_into().unwrap());
        let end = start + lens.varint()? as usize;
        let key = blob
            .get(start..end)
            .ok_or_else(|| format!("key at order position {at} ends inside a character"))?;
        check.next(at, id, |_| key)?;
        spans[id as usize] = (start as u32, (end - start) as u32);
        order.push(id);
        start = end;
    }
    Ok((KeyArena::from_parts(blob.to_owned(), spans), order))
}

/// Reads a version-2 pass index over `n` records: its keys in id order,
/// then its order, held to the checks a version-3 run passes. The walk
/// reads the keys in order sequence, out of buffer order; it runs once
/// per legacy store, whose next checkpoint writes version 3.
fn take_index_v2(r: &mut Reader<'_>, n: usize) -> Result<(KeyArena, Vec<u32>), String> {
    let keys = take_keys_v2(r)?;
    let count = r.u32()? as usize;
    if keys.len() != n || count != n {
        return Err(format!(
            "index sizes ({} keys, {count} order) disagree with {n} records",
            keys.len()
        ));
    }
    let order = (0..n).map(|_| r.u32()).collect::<Result<Vec<u32>, _>>()?;
    let mut check = RunCheck::new(n);
    for (at, &id) in order.iter().enumerate() {
        check.next(at, id, |id| keys.get(id))?;
    }
    Ok((keys, order))
}

/// Reads version 2's key list — a `u32` count, then each key as a
/// length-prefixed string — into one arena, in id order. A first walk over
/// the length prefixes checks every key against the bytes present and sums
/// their lengths, so neither the claimed count nor a claimed length sizes
/// an allocation, and the buffer is allocated once, exactly.
fn take_keys_v2(r: &mut Reader<'_>) -> Result<KeyArena, String> {
    let n = r.u32()? as usize;
    let mut walk = *r;
    let mut bytes = 0usize;
    for _ in 0..n {
        let len = walk.u32()? as usize;
        walk.skip(len)?;
        bytes += len;
    }
    let mut keys = KeyArena::with_slots(n, bytes);
    for i in 0..n {
        keys.set(i, r.str_ref()?);
    }
    Ok(keys)
}

/// Checks a pass's order entry by entry, in order sequence: every id names
/// one of the `n` records, none repeats (a bitmap), and each (key, id)
/// follows the one before it strictly. `n` entries passing all three are a
/// permutation sorted the way a stable sort by key sorts.
struct RunCheck<'k> {
    n: usize,
    seen: Vec<u64>,
    prev: Option<(&'k str, u32)>,
}

impl<'k> RunCheck<'k> {
    fn new(n: usize) -> Self {
        RunCheck {
            n,
            seen: vec![0; n.div_ceil(64)],
            prev: None,
        }
    }

    /// Checks the entry at order position `at`: record `id`, whose key
    /// `key` returns once `id` is known to be in range.
    fn next(
        &mut self,
        at: usize,
        id: u32,
        key: impl FnOnce(usize) -> &'k str,
    ) -> Result<(), String> {
        let i = id as usize;
        if i >= self.n {
            return Err(format!(
                "order position {at} names record {id} of {}",
                self.n
            ));
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.seen[word] & bit != 0 {
            return Err(format!("order position {at} repeats record {id}"));
        }
        self.seen[word] |= bit;
        let entry = (key(i), id);
        if self.prev.is_some_and(|prev| prev >= entry) {
            return Err(format!(
                "order position {at} (record {id}) breaks the (key, id) order"
            ));
        }
        self.prev = Some(entry);
        Ok(())
    }
}

/// Borrowed view of everything a snapshot stores *except* the records,
/// which the encoder pulls from a [`RecordSource`] — a slice of resident
/// records ([`borrowed`]) for a checkpoint, the record spill run
/// formation wrote ([`EncodedRecords`]) for a bulk load that never
/// materializes them.
///
/// Every producer of durable state (the incremental engine, the bulk
/// loader, an owned [`Snapshot`]) hands the store one of these, so a
/// commit copies nothing it does not have to: the only owned part is the
/// sorted pair list, which no producer keeps in sorted form.
#[derive(Debug, Clone)]
pub struct SnapshotView<'a> {
    /// Number of records the iterator will yield (ids `0..n_records`).
    pub n_records: u64,
    /// Per-pass state, in pass order.
    pub passes: Vec<&'a PassSnapshot>,
    /// Distinct matched pairs, sorted ascending.
    pub pairs: Cow<'a, [(u32, u32)]>,
    /// Union-find closure over `0..n_records`.
    pub closure: &'a UnionFind,
    /// Merge provenance log (empty for bulk loads, whose closure is
    /// rebuilt from pairs without per-merge evidence).
    pub provenance: &'a ProvenanceLog,
    /// Pair comparisons performed.
    pub comparisons: u64,
    /// Batches the snapshot absorbs (1 for a cold bulk load).
    pub batches_applied: u64,
}

/// The record source of a state whose records are resident: each one
/// borrowed, none cloned.
pub fn borrowed(records: &[Record]) -> impl Iterator<Item = io::Result<Cow<'_, Record>>> {
    records.iter().map(|r| Ok(Cow::Borrowed(r)))
}

/// One piece of a `RECS` payload as a [`RecordSource`] hands it over.
#[derive(Debug, Clone, Copy)]
pub enum RecordBytes<'a> {
    /// A record, encoded with [`codec::put_snapshot_record`] on its way in.
    Record(&'a Record),
    /// Records already in that encoding, cut anywhere.
    Encoded(&'a [u8]),
}

/// What fills a snapshot's `RECS` section, in id order: any iterator of
/// records ([`borrowed`] for resident state), encoded as they pass, or
/// bytes already in the record encoding ([`EncodedRecords`]).
pub trait RecordSource {
    /// Hands every record to `put`, in id order, and returns how many
    /// there were.
    ///
    /// # Errors
    ///
    /// An error of the source or of `put`.
    fn put_records(
        self,
        put: impl FnMut(RecordBytes<'_>) -> io::Result<()>,
    ) -> Result<u64, StoreError>;
}

impl<'r, I: Iterator<Item = io::Result<Cow<'r, Record>>>> RecordSource for I {
    fn put_records(
        self,
        mut put: impl FnMut(RecordBytes<'_>) -> io::Result<()>,
    ) -> Result<u64, StoreError> {
        let mut yielded = 0u64;
        for record in self {
            put(RecordBytes::Record(record?.as_ref()))?;
            yielded += 1;
        }
        Ok(yielded)
    }
}

/// Records already in the snapshot's record encoding — one
/// [`codec::put_snapshot_record`] after another, ids `0..`, nothing
/// else — read from
/// `reader`, with the count, byte length and CRC-32 recorded when they
/// were written. A bulk load spills its records this way as it forms its
/// runs, so its commit copies bytes instead of parsing its input again.
///
/// The copy checks the length and the digest as it goes: a source that
/// runs long, ends short or differs in any byte fails the commit, which
/// then leaves no snapshot behind. The count is taken on trust; bytes
/// that pass both checks are the bytes that were written.
#[derive(Debug)]
pub struct EncodedRecords<R> {
    reader: R,
    records: u64,
    len: u64,
    crc: u32,
}

impl<R: io::Read> EncodedRecords<R> {
    /// `records` records in `len` bytes whose CRC-32 is `crc`, to be read
    /// from `reader`.
    pub fn new(reader: R, records: u64, len: u64, crc: u32) -> Self {
        EncodedRecords {
            reader,
            records,
            len,
            crc,
        }
    }
}

impl<R: io::Read> RecordSource for EncodedRecords<R> {
    fn put_records(
        mut self,
        mut put: impl FnMut(RecordBytes<'_>) -> io::Result<()>,
    ) -> Result<u64, StoreError> {
        let corrupt =
            |what: String| StoreError::Corrupt(format!("snapshot: encoded records {what}"));
        let mut block = vec![0u8; SECTION_CHUNK];
        let (mut len, mut crc) = (0u64, Crc32::new());
        loop {
            let n = match self.reader.read(&mut block) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            len += n as u64;
            if len > self.len {
                return Err(corrupt(format!("run past the {} bytes recorded", self.len)));
            }
            crc.update(&block[..n]);
            put(RecordBytes::Encoded(&block[..n]))?;
        }
        if len != self.len {
            return Err(corrupt(format!("end after {len} of {} bytes", self.len)));
        }
        if crc.finalize() != self.crc {
            return Err(corrupt(
                "fail the CRC-32 recorded when they were written".into(),
            ));
        }
        Ok(self.records)
    }
}

/// Payload bytes buffered before they are checksummed and written out.
const SECTION_CHUNK: usize = 64 << 10;

/// One open snapshot section: payload accumulates in `buf` and leaves
/// through [`Section::spill`] in chunks, each folded into the running
/// length and CRC on its way out, so no section is ever held whole.
struct Section<'w, W: Write> {
    out: &'w mut W,
    buf: Vec<u8>,
    len: u64,
    crc: Crc32,
}

impl<W: Write> Section<'_, W> {
    fn flush(&mut self) -> io::Result<()> {
        self.crc.update(&self.buf);
        self.len += self.buf.len() as u64;
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Writes the buffered payload out once it is a chunk long; call
    /// between items.
    fn spill(&mut self) -> io::Result<()> {
        if self.buf.len() >= SECTION_CHUNK {
            self.flush()?;
        }
        Ok(())
    }
}

/// Writes one section: the tag, a 12-byte length/CRC placeholder, the
/// payload `body` produces, then seeks back and patches the real length
/// and digest in.
fn write_section<W: Write + Seek>(
    out: &mut W,
    tag: &[u8; 4],
    body: impl FnOnce(&mut Section<'_, W>) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    out.write_all(tag)?;
    let patch_at = out.stream_position()?;
    out.write_all(&[0u8; 12])?;
    let mut section = Section {
        out: &mut *out,
        buf: Vec::new(),
        len: 0,
        crc: Crc32::new(),
    };
    body(&mut section)?;
    section.flush()?;
    let (len, crc) = (section.len, section.crc.finalize());
    let end = out.stream_position()?;
    out.seek(SeekFrom::Start(patch_at))?;
    out.write_all(&len.to_le_bytes())?;
    out.write_all(&crc.to_le_bytes())?;
    out.seek(SeekFrom::Start(end))?;
    Ok(())
}

impl SnapshotView<'_> {
    /// The one snapshot encoder: streams the header and the six sections
    /// (`META`, `RECS`, `PASS`, `PAIR`, `CLOS`, `PROV`) to `out` and
    /// returns the byte count. Every snapshot byte this crate writes —
    /// checkpoint, bulk-load commit, [`Snapshot::encode`] — comes from
    /// here.
    ///
    /// `records` must yield exactly [`SnapshotView::n_records`] records
    /// with positional ids; each is encoded (or copied, when it comes
    /// encoded) and dropped, so peak memory is one chunk regardless of
    /// database size.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure, an error from the record source, or
    /// [`StoreError::Corrupt`] when the source yields a different number
    /// of records than declared (the snapshot would fail its own
    /// validation on load, so it is never written silently) or encoded
    /// records fail their length or CRC check.
    pub(crate) fn write_to<W: Write + Seek>(
        &self,
        out: &mut W,
        records: impl RecordSource,
    ) -> Result<u64, StoreError> {
        out.write_all(SNAPSHOT_MAGIC)?;
        out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        out.write_all(&6u32.to_le_bytes())?;

        write_section(out, b"META", |s| {
            codec::put_u64(&mut s.buf, self.comparisons);
            codec::put_u64(&mut s.buf, self.batches_applied);
            codec::put_u64(&mut s.buf, self.n_records);
            codec::put_u64(&mut s.buf, self.pairs.len() as u64);
            Ok(())
        })?;

        write_section(out, b"RECS", |s| {
            codec::put_u32(&mut s.buf, self.n_records as u32);
            let mut position = 0u32;
            let yielded = records.put_records(|piece| {
                match piece {
                    RecordBytes::Record(r) => {
                        // The layout has no id: a record's id is where it is.
                        if r.id.0 != position {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidInput,
                                format!(
                                    "snapshot: record {position} has id {}; snapshot \
                                     records are positional",
                                    r.id.0
                                ),
                            ));
                        }
                        position += 1;
                        codec::put_snapshot_record(&mut s.buf, r)
                    }
                    RecordBytes::Encoded(bytes) => s.buf.extend_from_slice(bytes),
                }
                s.spill()
            })?;
            if yielded != self.n_records {
                return Err(StoreError::Corrupt(format!(
                    "snapshot: declared {} records but the source yielded {yielded}",
                    self.n_records
                )));
            }
            Ok(())
        })?;

        write_section(out, b"PASS", |s| {
            codec::put_u32(&mut s.buf, self.passes.len() as u32);
            for p in &self.passes {
                codec::put_str(&mut s.buf, &p.key_name);
                codec::put_u32(&mut s.buf, p.window);
                codec::put_u64(&mut s.buf, p.pairs_found);
                codec::put_u64(&mut s.buf, p.pairs_first_found);
                if p.keys.len() != p.order.len() {
                    return Err(StoreError::Corrupt(format!(
                        "snapshot: pass {:?} holds {} keys for an order of {}",
                        p.key_name,
                        p.keys.len(),
                        p.order.len()
                    )));
                }
                // The sorted run: the order, then every key's length and
                // bytes in order sequence.
                codec::put_u32(&mut s.buf, p.order.len() as u32);
                for &o in &p.order {
                    codec::put_u32(&mut s.buf, o);
                    s.spill()?;
                }
                let runs = p.keys.key_runs(&p.order, |len| {
                    codec::put_varint(&mut s.buf, len as u32);
                    s.spill()
                })?;
                for run in runs {
                    for chunk in run.as_bytes().chunks(SECTION_CHUNK) {
                        s.buf.extend_from_slice(chunk);
                        s.spill()?;
                    }
                }
            }
            Ok(())
        })?;

        write_section(out, b"PAIR", |s| {
            codec::put_u64(&mut s.buf, self.pairs.len() as u64);
            for &(a, b) in self.pairs.iter() {
                codec::put_u32(&mut s.buf, a);
                codec::put_u32(&mut s.buf, b);
                s.spill()?;
            }
            Ok(())
        })?;

        write_section(out, b"CLOS", |s| {
            self.closure.encode_into(&mut s.buf);
            Ok(())
        })?;

        write_section(out, b"PROV", |s| {
            self.provenance.encode_into(&mut s.buf);
            Ok(())
        })?;

        out.flush()?;
        Ok(out.stream_position()?)
    }

    /// The snapshot's on-disk bytes, in memory (what a commit of this
    /// view and these records writes to `snapshot.mps`).
    ///
    /// # Errors
    ///
    /// An error from the record source, or a record-count mismatch
    /// against [`SnapshotView::n_records`].
    pub fn encode(&self, records: impl RecordSource) -> Result<Vec<u8>, StoreError> {
        let mut out = io::Cursor::new(Vec::new());
        self.write_to(&mut out, records)?;
        Ok(out.into_inner())
    }

    /// Copies what the view borrows (and takes `records`) into an owned
    /// [`Snapshot`].
    pub fn into_snapshot(self, records: Vec<Record>) -> Snapshot {
        Snapshot {
            records,
            passes: self.passes.iter().map(|&p| p.clone()).collect(),
            pairs: self.pairs.into_owned(),
            closure: self.closure.clone(),
            provenance: self.provenance.clone(),
            comparisons: self.comparisons,
            batches_applied: self.batches_applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_record::RecordId;

    fn arena<'k>(keys: impl IntoIterator<Item = &'k str>) -> KeyArena {
        let mut arena = KeyArena::new();
        keys.into_iter().for_each(|k| arena.push_str(k));
        arena
    }

    /// Four records over two passes: `last-name` keys `L0..L3` (order
    /// `0 1 2 3`) and `first-name` keys `F0 F1 F0 F1`, whose ties the
    /// order breaks by id (`0 2 1 3`). Record 1 has an entity and a
    /// multi-byte field longer than a field holds inline.
    fn sample() -> Snapshot {
        let mut records: Vec<Record> = (0..4)
            .map(|i| {
                let mut r = Record::empty(RecordId(i));
                r.last_name = format!("L{i}").into();
                r.first_name = format!("F{}", i % 2).into();
                r
            })
            .collect();
        records[1].entity = Some(mp_record::EntityId(9));
        records[1].street_name = "RUE DES ÉCOLES PRÈS DE LA GARE".into();
        let mut closure = UnionFind::new(4);
        closure.union(0, 2);
        let mut provenance = ProvenanceLog::new();
        provenance.record_edge(mp_closure::MergeEdge {
            a: 0,
            b: 2,
            pass: 0,
            rule_id: 1,
            batch_seq: 1,
        });
        provenance.note_batch_trace(1, "cafef00d-00000001");
        provenance.note_firing(1);
        Snapshot {
            passes: vec![
                PassSnapshot {
                    key_name: "last-name".into(),
                    window: 4,
                    pairs_found: 1,
                    pairs_first_found: 1,
                    keys: arena(records.iter().map(|r| r.last_name.as_str())),
                    order: vec![0, 1, 2, 3],
                },
                PassSnapshot {
                    key_name: "first-name".into(),
                    window: 3,
                    pairs_found: 0,
                    pairs_first_found: 0,
                    keys: arena(records.iter().map(|r| r.first_name.as_str())),
                    order: vec![0, 2, 1, 3],
                },
            ],
            records,
            pairs: vec![(0, 2)],
            closure,
            comparisons: 6,
            batches_applied: 2,
            provenance,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.records, snap.records);
        assert_eq!(back.passes, snap.passes);
        assert_eq!(back.pairs, snap.pairs);
        assert_eq!(back.comparisons, 6);
        assert_eq!(back.batches_applied, 2);
        assert_eq!(back.closure.clone().classes(), vec![vec![0, 2]]);
        assert_eq!(back.provenance, snap.provenance);
    }

    /// The single-byte changes every test below applies to every byte.
    const FLIPS: [u8; 3] = [0x01, 0x80, 0xFF];

    #[test]
    fn every_flipped_byte_is_detected() {
        // Change each byte of the encoding in turn, three ways: decode
        // must say `Corrupt` — a payload byte fails its CRC, a framing
        // byte (header, section tag, length or CRC) fails the framing
        // checks — and never panic or load wrong content.
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for flip in FLIPS {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                match Snapshot::decode(&bad) {
                    Err(StoreError::Corrupt(_)) => {}
                    other => panic!("byte {i} ^ {flip:#04x}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    /// The decoders behind the CRC are total: every single-byte change of
    /// every section payload, re-checksummed so the CRC passes, either
    /// decodes (a field letter changed is still a snapshot) or is
    /// `Corrupt` — never a panic, never another error.
    #[test]
    fn every_payload_byte_flip_under_a_valid_crc_decodes_or_is_corrupt() {
        let bytes = sample().encode();
        let mut off = 16;
        while off < bytes.len() {
            let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
            for i in off + 16..off + 16 + len {
                for flip in FLIPS {
                    let mut bad = bytes.clone();
                    bad[i] ^= flip;
                    let crc = codec::crc32(&bad[off + 16..off + 16 + len]);
                    bad[off + 12..off + 16].copy_from_slice(&crc.to_le_bytes());
                    match Snapshot::decode(&bad) {
                        Ok(_) | Err(StoreError::Corrupt(_)) => {}
                        Err(e) => panic!("byte {i} ^ {flip:#04x}: {e}"),
                    }
                }
            }
            off += 16 + len;
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(Snapshot::decode(&bytes[..cut]), Err(StoreError::Corrupt(_))),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    /// `bytes` with the `PASS` payload swapped for `payload` under a valid
    /// CRC, so only the payload's own structure can be at fault.
    fn with_pass_payload(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
        with_payload(bytes, b"PASS", payload)
    }

    /// `bytes` with the `tag` section's payload swapped for `payload`
    /// under a valid CRC.
    fn with_payload(bytes: &[u8], swap: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = bytes[..16].to_vec();
        let mut off = 16;
        while off < bytes.len() {
            let tag = &bytes[off..off + 4];
            let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
            let body = &bytes[off + 16..off + 16 + len];
            let body = if tag == swap { payload } else { body };
            out.extend_from_slice(tag);
            codec::put_u64(&mut out, body.len() as u64);
            codec::put_u32(&mut out, codec::crc32(body));
            out.extend_from_slice(body);
            off += 16 + len;
        }
        out
    }

    /// One pass's sorted run as raw parts: a claimed key count, the order,
    /// the claimed key lengths and the key bytes.
    struct Run<'a> {
        count: u32,
        order: Vec<u32>,
        lens: Vec<u32>,
        keys: &'a [u8],
    }

    impl Run<'_> {
        /// The sample's `last-name` run.
        fn last_name() -> Self {
            Run {
                count: 4,
                order: vec![0, 1, 2, 3],
                lens: vec![2; 4],
                keys: b"L0L1L2L3",
            }
        }
    }

    /// A `PASS` payload holding the sample's two passes, with `last` as
    /// the `last-name` run and the sample's own `first-name` run.
    fn pass_payload(last: &Run<'_>) -> Vec<u8> {
        let first = Run {
            count: 4,
            order: vec![0, 2, 1, 3],
            lens: vec![2; 4],
            keys: b"F0F0F1F1",
        };
        let mut p = Vec::new();
        codec::put_u32(&mut p, 2);
        for (name, window, found, run) in [("last-name", 4, 1, last), ("first-name", 3, 0, &first)]
        {
            codec::put_str(&mut p, name);
            codec::put_u32(&mut p, window);
            codec::put_u64(&mut p, found);
            codec::put_u64(&mut p, found);
            codec::put_u32(&mut p, run.count);
            run.order.iter().for_each(|&o| codec::put_u32(&mut p, o));
            run.lens.iter().for_each(|&l| codec::put_varint(&mut p, l));
            p.extend_from_slice(run.keys);
        }
        p
    }

    /// Decodes `bytes` with `run` as the `last-name` pass and expects
    /// `Corrupt` naming the pass and `says`.
    fn expect_corrupt_run(bytes: &[u8], run: &Run<'_>, what: &str, says: &str) {
        match Snapshot::decode(&with_pass_payload(bytes, &pass_payload(run))) {
            Err(StoreError::Corrupt(msg)) => assert!(
                msg.contains("PASS: pass 0: ") && msg.contains(says),
                "{what}: {msg}"
            ),
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    /// Each payload carries a valid CRC and breaks the key run one way:
    /// the decoder must say `Corrupt` without panicking and without
    /// allocating what a claimed count or length asks for.
    #[test]
    fn a_broken_key_run_under_a_valid_crc_is_corrupt() {
        let bytes = sample().encode();
        assert_eq!(
            with_pass_payload(&bytes, &pass_payload(&Run::last_name())),
            bytes,
            "the template rebuilds the sample's own PASS"
        );
        let cases: [(&str, Run<'_>, &str); 9] = [
            (
                "key count above the bytes",
                Run {
                    count: u32::MAX,
                    ..Run::last_name()
                },
                "keys for 4 records",
            ),
            (
                "key count one too many",
                Run {
                    count: 5,
                    order: vec![0, 1, 2, 3, 4],
                    lens: vec![2; 5],
                    keys: b"L0L1L2L3L4",
                },
                "5 keys for 4 records",
            ),
            (
                "fewer keys than records",
                Run {
                    count: 3,
                    order: vec![0, 1, 2],
                    lens: vec![2; 3],
                    keys: b"L0L1L2",
                },
                "3 keys for 4 records",
            ),
            (
                "key length past the payload end",
                Run {
                    lens: vec![2, 2, 2, 200],
                    ..Run::last_name()
                },
                "unexpected end",
            ),
            (
                "key lengths past 4 GiB",
                Run {
                    lens: vec![2, 2, 2, u32::MAX],
                    ..Run::last_name()
                },
                "exceed 4 GiB",
            ),
            (
                "non-UTF-8 key bytes",
                Run {
                    keys: b"L0\xff\xfeL2L3",
                    ..Run::last_name()
                },
                "invalid UTF-8",
            ),
            (
                "a key ending inside a character",
                Run {
                    lens: vec![2, 1, 2, 2],
                    keys: "L0É2L3".as_bytes(),
                    ..Run::last_name()
                },
                "key at order position 1 ends inside a character",
            ),
            (
                "an order entry out of range",
                Run {
                    order: vec![0, 1, 2, 4],
                    ..Run::last_name()
                },
                "order position 3 names record 4 of 4",
            ),
            (
                "keys out of key order",
                Run {
                    keys: b"L0L2L1L3",
                    ..Run::last_name()
                },
                "order position 2 (record 2) breaks the (key, id) order",
            ),
        ];
        for (what, run, says) in cases {
            expect_corrupt_run(&bytes, &run, what, says);
        }
    }

    /// The order is checked, not trusted after its CRC: a repeated id and
    /// a swap of the first and last entries (both with the keys following
    /// the order, so only the order is wrong) are each `Corrupt`, naming
    /// the pass and the position.
    #[test]
    fn an_order_that_repeats_an_id_or_breaks_key_order_is_corrupt() {
        let bytes = sample().encode();
        expect_corrupt_run(
            &bytes,
            &Run {
                order: vec![0, 0, 2, 3],
                keys: b"L0L0L2L3",
                ..Run::last_name()
            },
            "a repeated id",
            "order position 1 repeats record 0",
        );
        expect_corrupt_run(
            &bytes,
            &Run {
                order: vec![3, 1, 2, 0],
                keys: b"L3L1L2L0",
                ..Run::last_name()
            },
            "first and last swapped",
            "order position 1 (record 1) breaks the (key, id) order",
        );
        // Equal keys must appear in id order.
        expect_corrupt_run(
            &bytes,
            &Run {
                order: vec![1, 0, 2, 3],
                keys: b"L0L0L2L3",
                ..Run::last_name()
            },
            "equal keys with ids descending",
            "order position 1 (record 0) breaks the (key, id) order",
        );
    }

    /// The sample as version 2 wrote it, with `pass` as its `PASS`
    /// payload: version 2 in the header, `RECS` in the journal's record
    /// encoding.
    fn v2_sample(pass: &[u8]) -> Vec<u8> {
        let mut recs = Vec::new();
        codec::put_records(&mut recs, &sample().records);
        let mut bytes = with_payload(&with_pass_payload(&sample().encode(), pass), b"RECS", &recs);
        bytes[8..12].copy_from_slice(&SNAPSHOT_VERSION_2.to_le_bytes());
        bytes
    }

    /// A version-2 `PASS` payload for the sample: the `last-name` pass with
    /// its keys given as raw `(claimed length, bytes)` after a claimed key
    /// count and its order given, then the sample's `first-name` pass.
    fn v2_pass_payload(key_count: u32, keys: &[(u32, &[u8])], order: &[u32]) -> Vec<u8> {
        let mut p = Vec::new();
        codec::put_u32(&mut p, 2);
        let first: [(u32, &[u8]); 4] = [(2, b"F0"), (2, b"F1"), (2, b"F0"), (2, b"F1")];
        for (name, window, found, count, keys, order) in [
            ("last-name", 4, 1, key_count, keys, order),
            ("first-name", 3, 0, 4, &first[..], &[0, 2, 1, 3][..]),
        ] {
            codec::put_str(&mut p, name);
            codec::put_u32(&mut p, window);
            codec::put_u64(&mut p, found);
            codec::put_u64(&mut p, found);
            codec::put_u32(&mut p, count);
            for &(len, key) in keys {
                codec::put_u32(&mut p, len);
                p.extend_from_slice(key);
            }
            codec::put_u32(&mut p, order.len() as u32);
            order.iter().for_each(|&o| codec::put_u32(&mut p, o));
        }
        p
    }

    const V2_KEYS: [(u32, &[u8]); 4] = [(2, b"L0"), (2, b"L1"), (2, b"L2"), (2, b"L3")];

    #[test]
    fn a_v2_snapshot_decodes_to_the_state_v3_encodes() {
        let v2 = v2_sample(&v2_pass_payload(4, &V2_KEYS, &[0, 1, 2, 3]));
        let back = Snapshot::decode(&v2).unwrap();
        assert_eq!(back.records, sample().records);
        assert_eq!(back.passes, sample().passes);
        assert_eq!(back.encode(), sample().encode());
    }

    /// Each version-2 payload carries a valid CRC and breaks the key list
    /// or the order one way: the decoder must say `Corrupt`, naming the
    /// pass, without panicking and without allocating what a claimed
    /// count or length asks for.
    #[test]
    fn a_broken_key_list_under_a_valid_crc_is_corrupt() {
        let keys = V2_KEYS;
        let order = [0, 1, 2, 3];
        let cases: [(&str, Vec<u8>, &str); 8] = [
            (
                "key count above the bytes",
                v2_pass_payload(u32::MAX, &keys, &order),
                "unexpected end",
            ),
            (
                "key count one too many",
                v2_pass_payload(5, &keys, &order),
                "index sizes (5 keys",
            ),
            (
                "key length past the payload end",
                v2_pass_payload(4, &[keys[0], keys[1], keys[2], (u32::MAX, b"L3")], &order),
                "unexpected end",
            ),
            (
                "non-UTF-8 key bytes",
                v2_pass_payload(4, &[keys[0], (2, b"\xff\xfe"), keys[2], keys[3]], &order),
                "invalid UTF-8",
            ),
            (
                "fewer keys than records",
                v2_pass_payload(3, &keys[..3], &order),
                "index sizes (3 keys, 4 order)",
            ),
            (
                "more keys than records",
                v2_pass_payload(5, &[keys[0], keys[1], keys[2], keys[3], (2, b"L4")], &order),
                "index sizes (5 keys, 4 order)",
            ),
            (
                "a repeated id",
                v2_pass_payload(4, &keys, &[0, 0, 2, 3]),
                "order position 1 repeats record 0",
            ),
            (
                "first and last swapped",
                v2_pass_payload(4, &keys, &[3, 1, 2, 0]),
                "order position 1 (record 1) breaks the (key, id) order",
            ),
        ];
        for (what, payload, says) in cases {
            match Snapshot::decode(&v2_sample(&payload)) {
                Err(StoreError::Corrupt(msg)) => assert!(
                    msg.contains("PASS: pass 0: ") && msg.contains(says),
                    "{what}: {msg}"
                ),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn sections_longer_than_a_chunk_keep_their_crc() {
        // Enough records that RECS and PASS spill several chunks: the
        // patched length and CRC must cover all of them.
        let mut snap = sample();
        snap.passes.truncate(1);
        snap.records = (0..8000)
            .map(|i| {
                let mut r = Record::empty(RecordId(i));
                r.last_name = format!("LASTNAME-{i:06}").into();
                r
            })
            .collect();
        let n = snap.records.len();
        snap.passes[0].keys = arena(snap.records.iter().map(|r| r.last_name.as_str()));
        snap.passes[0].order = (0..n as u32).collect();
        snap.closure.grow(n);
        let bytes = snap.encode();
        assert!(bytes.len() > 4 * SECTION_CHUNK);
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.records, snap.records);
        assert_eq!(back.passes, snap.passes);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn encoder_rejects_record_count_mismatch_and_source_errors() {
        let snap = sample();
        let mut view = snap.view();
        view.n_records += 1; // lie
        let err = view.encode(borrowed(&snap.records)).unwrap_err();
        assert!(err.to_string().contains("yielded"), "{err}");

        let failing = borrowed(&snap.records)
            .take(2)
            .chain(std::iter::once(Err(io::Error::other("source went away"))));
        let err = snap.view().encode(failing).unwrap_err();
        assert!(err.to_string().contains("source went away"), "{err}");
    }

    #[test]
    fn view_into_snapshot_is_the_identity() {
        let snap = sample();
        let back = snap.view().into_snapshot(snap.records.clone());
        assert_eq!(back.encode(), snap.encode());
    }

    /// The uncovered framing fields: the section count and every section
    /// length, each set to zero, its type's maximum, and one off the true
    /// value either way, must be reported as corruption — never an
    /// allocation the file cannot back, never a panic.
    #[test]
    fn mangled_section_count_and_lengths_are_corrupt() {
        let bytes = sample().encode();
        let expect_corrupt = |bad: &[u8], what: &str| match Snapshot::decode(bad) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        };

        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        for c in [0, u32::MAX, count - 1, count + 1] {
            let mut bad = bytes.clone();
            bad[12..16].copy_from_slice(&c.to_le_bytes());
            expect_corrupt(&bad, &format!("count {c}"));
        }

        let mut off = 16;
        for i in 0..count {
            let len_at = off + 4;
            let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
            // The last value wraps `payload start + len` around to zero.
            let wrap = u64::MAX - (off as u64 + 16) + 1;
            for l in [0, u64::MAX, len - 1, len + 1, wrap] {
                let mut bad = bytes.clone();
                bad[len_at..len_at + 8].copy_from_slice(&l.to_le_bytes());
                expect_corrupt(&bad, &format!("section {i} len {l}"));
            }
            off += 16 + len as usize;
        }
        assert_eq!(off, bytes.len());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample().encode();
        bytes[8] = 99;
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
