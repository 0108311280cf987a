//! Little-endian binary primitives shared by the snapshot and journal
//! encoders.
//!
//! Everything the store writes is built from five shapes: `u32`, `u64`,
//! LEB128 lengths, length-prefixed UTF-8 strings, and length-prefixed byte
//! blobs. The [`Reader`] is bounds-checked on every read and never panics
//! on corrupt input — decode errors surface as `Err(String)` that the
//! store wraps in [`crate::StoreError::Corrupt`].
//!
//! Records have two encodings. A journal frame holds [`put_record`]'s: the
//! id, the entity, then each field as a `u32` length and its bytes. A
//! snapshot's `RECS` holds [`put_snapshot_record`]'s, which is a third
//! smaller and decodes with one UTF-8 check a record: no id (a snapshot's
//! records are positional), then the entity, the ten field lengths as
//! LEB128, and the ten fields' bytes back to back.
//!
//! Every byte the store writes or reads back also passes through one
//! checksum, [`Crc32`] (CRC-32/IEEE). It folds 16 bytes per step with
//! slicing-by-16 tables yet yields the same digest as the textbook
//! bytewise loop, so stores written by any earlier build verify unchanged.
//! The CRC covers payloads only: the framing around them (section counts
//! and lengths, frame sequence numbers) is checked against the bytes
//! actually present, with overflow-free arithmetic, before anything is
//! allocated or sliced.

use mp_record::{EntityId, Field, Record, RecordId};

/// Appends a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as LEB128: seven bits a byte, lowest first, the top bit
/// set on every byte but the last. A key or field length under 128 takes
/// one byte.
pub fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a string as `u32` byte length + UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked sequential reader over an encoded byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "unexpected end of data: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Steps over `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), String> {
        self.take(n).map(drop)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a [`put_varint`] value. Only the shortest encoding of a
    /// `u32` is accepted, so a value has one encoding and re-encodes to
    /// the bytes it came from.
    pub fn varint(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for i in 0..5 {
            let b = self.take(1)?[0];
            if i == 4 && b > 0x0F {
                return Err("LEB128 value overflows u32".into());
            }
            v |= u32::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err("LEB128 value not in its shortest form".into());
                }
                return Ok(v);
            }
        }
        Err("LEB128 value overflows u32".into())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        self.str_ref().map(String::from)
    }

    /// Reads a length-prefixed UTF-8 string in place, copying nothing.
    pub fn str_ref(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    /// Fails unless every byte has been consumed — encoders write exact
    /// payloads, so trailing garbage means corruption.
    pub fn finish(self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after payload", self.remaining()));
        }
        Ok(())
    }
}

/// Appends one record as a journal frame holds it: id, optional entity,
/// then the ten data fields in [`Field::ALL`] order, each a
/// length-prefixed string.
pub fn put_record(out: &mut Vec<u8>, r: &Record) {
    put_u32(out, r.id.0);
    put_entity(out, r.entity);
    for f in Field::ALL {
        put_str(out, r.field(f));
    }
}

/// Reads one record written by [`put_record`].
pub fn take_record(r: &mut Reader<'_>) -> Result<Record, String> {
    let id = RecordId(r.u32()?);
    let mut rec = Record::empty(id);
    rec.entity = take_entity(r)?;
    for f in Field::ALL {
        rec.field_mut(f).set(r.str_ref()?);
    }
    Ok(rec)
}

/// Appends one record as a snapshot's `RECS` holds it: optional entity,
/// the ten field lengths as LEB128 in [`Field::ALL`] order, then the ten
/// fields' bytes back to back. The id is not written: a snapshot's
/// records are positional.
pub fn put_snapshot_record(out: &mut Vec<u8>, r: &Record) {
    put_entity(out, r.entity);
    let fields = Field::ALL.map(|f| r.field(f));
    for field in fields {
        put_varint(out, field.len() as u32);
    }
    for field in fields {
        out.extend_from_slice(field.as_bytes());
    }
}

/// Reads one record written by [`put_snapshot_record`] as record `id`.
/// The fields' bytes pass one UTF-8 check together, and every field must
/// end on a character boundary; a field longer than a
/// [`mp_record::FieldStr`] holds inline is the only allocation.
pub fn take_snapshot_record(r: &mut Reader<'_>, id: RecordId) -> Result<Record, String> {
    let mut rec = Record::empty(id);
    rec.entity = take_entity(r)?;
    let mut ends = [0usize; Field::ALL.len()];
    let mut end = 0usize;
    for e in &mut ends {
        end = end
            .checked_add(r.varint()? as usize)
            .ok_or("field lengths overflow")?;
        *e = end;
    }
    let text = std::str::from_utf8(r.take(end)?)
        .map_err(|_| format!("record {}: invalid UTF-8 in its fields", id.0))?;
    let mut start = 0;
    for (f, end) in Field::ALL.into_iter().zip(ends) {
        let field = text
            .get(start..end)
            .ok_or_else(|| format!("record {}: field {f:?} ends inside a character", id.0))?;
        rec.field_mut(f).set(field);
        start = end;
    }
    Ok(rec)
}

fn put_entity(out: &mut Vec<u8>, entity: Option<EntityId>) {
    match entity {
        Some(EntityId(e)) => {
            out.push(1);
            put_u32(out, e);
        }
        None => out.push(0),
    }
}

fn take_entity(r: &mut Reader<'_>) -> Result<Option<EntityId>, String> {
    match r.take(1)?[0] {
        0 => Ok(None),
        1 => Ok(Some(EntityId(r.u32()?))),
        other => Err(format!("invalid entity flag {other}")),
    }
}

/// Appends a batch as `u32` count + records.
pub fn put_records(out: &mut Vec<u8>, records: &[Record]) {
    put_u32(out, records.len() as u32);
    for rec in records {
        put_record(out, rec);
    }
}

/// Reads a batch written by [`put_records`].
pub fn take_records(r: &mut Reader<'_>) -> Result<Vec<Record>, String> {
    let n = r.u32()? as usize;
    // Cap the pre-allocation: `n` is attacker/corruption-controlled.
    let mut out = Vec::with_capacity(n.min(r.remaining() / 16 + 1));
    for _ in 0..n {
        out.push(take_record(r)?);
    }
    Ok(out)
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-16.
///
/// Every snapshot section and journal frame carries the CRC of its payload;
/// a mismatch on load is treated as corruption, never silently accepted.
/// The digest is the standard one (init and final XOR `0xFFFF_FFFF`), so
/// how many bytes a step folds is invisible on disk.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 over a byte stream; feeding chunks through
/// [`Crc32::update`] yields the same digest [`crc32`] computes over their
/// concatenation, so streamed writers (the bulk-load snapshot path) can
/// checksum payloads they never hold in one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    crc: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { crc: 0xFFFF_FFFF }
    }

    /// Folds `data` into the running digest: 16 bytes per step through
    /// sixteen lookup tables, the last `len % 16` bytes one at a time.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.crc;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            // The running CRC folds into the first four bytes; byte `j`
            // of the block is then advanced past the `15 - j` bytes after
            // it by table `15 - j`.
            let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][x as u8 as usize]
                ^ t[14][(x >> 8) as u8 as usize]
                ^ t[13][(x >> 16) as u8 as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.crc = crc;
    }

    /// The digest of everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.crc
    }
}

/// Slicing-by-16 lookup tables (16 KiB), built at compile time. Table 0
/// is the classic bytewise table for the reflected polynomial
/// `0xEDB8_8320`; table `k` advances a byte's contribution through `k`
/// further zero bytes, so `t[k][i] = (t[k-1][i] >> 8) ^ t[0][t[k-1][i] & 0xFF]`.
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The reference: the plain one-byte-per-step table loop.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        // Longer than one 16-byte step, with a tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn every_short_length_matches_the_reference() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=64 {
            assert_eq!(crc32(&data[..n]), crc32_bytewise(&data[..n]), "len {n}");
        }
    }

    proptest! {
        #[test]
        fn chunked_kernel_matches_the_reference(
            data in vec(0u8..=255, 0..4097),
            cuts in vec(0usize..=4096, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([data.len()]) {
                h.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(h.finalize(), crc32_bytewise(&data));
        }
    }

    #[test]
    fn incremental_crc_matches_one_shot_for_any_chunking() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let want = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 999, 1000] {
            let mut h = Crc32::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), want, "chunk size {chunk}");
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_str(&mut buf, "HERNANDEZ");
        put_str(&mut buf, "");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.str().unwrap(), "HERNANDEZ");
        assert_eq!(r.str().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn record_roundtrip_with_and_without_entity() {
        let mut a = Record::empty(RecordId(42));
        a.entity = Some(EntityId(7));
        a.first_name = "MAURICIO".into();
        a.last_name = "HERNANDEZ".into();
        a.zip = "10027".into();
        let b = Record::empty(RecordId(0));
        let mut buf = Vec::new();
        put_records(&mut buf, &[a.clone(), b.clone()]);
        let mut r = Reader::new(&buf);
        assert_eq!(take_records(&mut r).unwrap(), vec![a, b]);
        r.finish().unwrap();
    }

    #[test]
    fn varint_roundtrip_and_shortest_form() {
        let values = [0, 1, 127, 128, 300, 16_383, 16_384, u32::MAX - 1, u32::MAX];
        let mut buf = Vec::new();
        values.iter().for_each(|&v| put_varint(&mut buf, v));
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
        for (what, bad) in [
            ("overlong zero", &[0x80, 0x00][..]),
            ("past u32", &[0xFF, 0xFF, 0xFF, 0xFF, 0x1F]),
            ("six bytes", &[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]),
            ("cut short", &[0x80]),
        ] {
            assert!(Reader::new(bad).varint().is_err(), "{what}");
        }
    }

    #[test]
    fn snapshot_record_roundtrip_numbers_by_position() {
        let mut a = Record::empty(RecordId(0));
        a.entity = Some(EntityId(7));
        a.first_name = "MAURICIO".into();
        a.street_name = "RUE DES ÉCOLES PRÈS DE LA GARE".into();
        let b = Record::empty(RecordId(1));
        let mut buf = Vec::new();
        put_snapshot_record(&mut buf, &a);
        put_snapshot_record(&mut buf, &b);
        let mut r = Reader::new(&buf);
        assert_eq!(take_snapshot_record(&mut r, RecordId(0)).unwrap(), a);
        assert_eq!(take_snapshot_record(&mut r, RecordId(1)).unwrap(), b);
        r.finish().unwrap();
    }

    #[test]
    fn a_snapshot_record_field_ending_inside_a_character_is_an_error() {
        let mut a = Record::empty(RecordId(0));
        a.first_name = "É".into();
        let mut buf = Vec::new();
        put_snapshot_record(&mut buf, &a);
        // Entity flag, then the lengths: SSN 0, first name 2. Move one
        // byte of the first name into the SSN: both fields now split É.
        assert_eq!(&buf[..3], &[0, 0, 2]);
        buf[1..3].copy_from_slice(&[1, 1]);
        let err = take_snapshot_record(&mut Reader::new(&buf), RecordId(0)).unwrap_err();
        assert!(err.contains("inside a character"), "{err}");
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_garbage() {
        let mut buf = Vec::new();
        put_str(&mut buf, "STOLFO");
        assert!(Reader::new(&buf[..buf.len() - 1]).str().is_err());
        buf.push(0xAA);
        let mut r = Reader::new(&buf);
        r.str().unwrap();
        assert!(r.finish().is_err());
    }
}
