//! Keyed run files: one length-prefixed binary frame per record.
//!
//! Key extraction happens once, during run formation ("the creation of the
//! keys was integrated into the sorting phase", §3.5); merge levels and the
//! final window scan read the key back instead of recomputing it. The
//! record's tuple id is stored explicitly because the base flat format
//! assigns ids positionally and runs permute the order.
//!
//! Everything after the key — the body — is encoded once per record
//! while run formation holds it (`put_body`); each key's run then writes
//! its frames from the key and that one encoding, so a chunk is resident
//! as encoded bytes and keys, not as parsed records. Reading back,
//! [`RunReader::next_into`] decodes into the caller's key and record;
//! an intermediate merge level reads each checksummed frame only as far
//! as its key and id and copies its bytes to the next run verbatim.
//!
//! # Frame layout
//!
//! Every integer is an unsigned LEB128 varint; every string is a varint
//! byte length followed by that many UTF-8 bytes.
//!
//! ```text
//! frame   = len body sum          len = byte length of body + sum (≥ 1)
//! body    = key id entity field×10   (the ten fields in `Field::ALL` order)
//! entity  = 0 for none, e + 1 for Some(EntityId(e))
//! sum     = the body's bytes summed mod 256
//! trailer = 0x00 count            count = number of frames; then end of file
//! ```
//!
//! Against the `key|id|record` text line it replaces, a frame spends a
//! length byte per string where the line spent a separator, a varint where
//! it spent decimal digits, and the checksum byte where it spent the
//! newline. It is at most two bytes larger (an entity flag where the entity
//! column was empty, a second length byte for frames of 128 bytes or more)
//! and in practice smaller, since every varint id from 10 up undercuts its
//! digits (tested on generated records, with and without entity ids).
//! The checksum byte catches any single-byte corruption and
//! the trailer any truncation, so a run file reads back either completely
//! or as `InvalidData` — never as a silently shorter or different run.

use mp_record::{EntityId, Field, Record, RecordId};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Buffer size for run-file readers and writers: a merge holds `fan_in`
/// readers open at once, and sequential spill I/O wants large requests.
const IO_BUF: usize = 64 * 1024;

/// Writes `(key, record)` frames to a run file.
pub struct RunWriter {
    out: BufWriter<File>,
    body: Vec<u8>,
    written: u64,
}

impl RunWriter {
    /// Creates (truncates) the run file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(RunWriter {
            out: BufWriter::with_capacity(IO_BUF, File::create(path)?),
            body: Vec::with_capacity(256),
            written: 0,
        })
    }

    /// Appends one keyed record. Keys and fields may hold any UTF-8,
    /// separators and newlines included.
    pub fn write(&mut self, key: &str, record: &Record) -> io::Result<()> {
        let mut body = std::mem::take(&mut self.body);
        body.clear();
        let sum = put_body(&mut body, record);
        let written = self.write_body(key, &body, sum);
        self.body = body;
        written
    }

    /// Appends one frame from a key and a record body [`put_body`] encoded
    /// earlier, with the byte sum it returned: run formation encodes each
    /// record once and copies its body into every key's run.
    pub(crate) fn write_body(&mut self, key: &str, body: &[u8], body_sum: u8) -> io::Result<()> {
        let mut key_len = [0; 10];
        let key_len = varint(key.len() as u64, &mut key_len);
        let sum = checksum(key_len)
            .wrapping_add(checksum(key.as_bytes()))
            .wrapping_add(body_sum);
        let len = key_len.len() + key.len() + body.len() + 1;
        self.out.write_all(varint(len as u64, &mut [0; 10]))?;
        self.out.write_all(key_len)?;
        self.out.write_all(key.as_bytes())?;
        self.out.write_all(body)?;
        self.out.write_all(&[sum])?;
        self.written += 1;
        Ok(())
    }

    /// Appends a frame read from another run, byte for byte.
    pub(crate) fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.out
            .write_all(varint(frame.bytes.len() as u64, &mut [0; 10]))?;
        self.out.write_all(&frame.bytes)?;
        self.written += 1;
        Ok(())
    }

    /// Writes the trailer, flushes, and returns how many records were
    /// written. A run file without its trailer does not read back.
    pub fn finish(mut self) -> io::Result<u64> {
        self.out.write_all(&[0])?;
        self.out.write_all(varint(self.written, &mut [0; 10]))?;
        self.out.flush()?;
        Ok(self.written)
    }
}

/// Appends a record's frame body after the key — its id, its entity and
/// the ten fields — to `out`, returning those bytes' sum mod 256.
pub(crate) fn put_body(out: &mut Vec<u8>, record: &Record) -> u8 {
    let start = out.len();
    put_varint(out, u64::from(record.id.0));
    put_varint(out, record.entity.map_or(0, |e| u64::from(e.0) + 1));
    for f in Field::ALL {
        put_str(out, record.field(f));
    }
    checksum(&out[start..])
}

/// Streams `(key, record)` frames back from a run file.
pub struct RunReader {
    input: BufReader<File>,
    /// Bytes of the file not yet consumed: no length prefix may claim
    /// more, so a corrupt prefix can neither over-read nor over-allocate.
    remaining: u64,
    frame: Vec<u8>,
    read: u64,
    done: bool,
}

impl RunReader {
    /// Opens the run file at `path`.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let remaining = file.metadata()?.len();
        Ok(RunReader {
            input: BufReader::with_capacity(IO_BUF, file),
            remaining,
            frame: Vec::with_capacity(256),
            read: 0,
            done: false,
        })
    }

    /// Decodes the next keyed record into `key` and `record`, replacing
    /// what they held, and returns `true`; returns `false` after the
    /// trailer.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any short, oversized or malformed frame, a bad
    /// checksum, a missing or wrong trailer, or bytes after it. The
    /// buffers then hold no meaningful entry.
    pub fn next_into(&mut self, key: &mut String, record: &mut Record) -> io::Result<bool> {
        if !self.read_frame()? {
            return Ok(false);
        }
        let mut cur = Cursor(frame_body(&self.frame));
        record.id = cur.key_and_id(key)?;
        cur.rest_into(record)?;
        Ok(true)
    }

    /// Reads the next frame into `frame`, decoded as far as its key and
    /// id, and returns `true`; returns `false` after the trailer. Errors
    /// as [`RunReader::next_into`]'s, except that the fields are checked
    /// only when the frame is decoded.
    pub(crate) fn next_frame(&mut self, frame: &mut Frame) -> io::Result<bool> {
        if !self.read_frame()? {
            return Ok(false);
        }
        std::mem::swap(&mut self.frame, &mut frame.bytes);
        let mut cur = Cursor(frame_body(&frame.bytes));
        frame.id = cur.key_and_id(&mut frame.key)?;
        frame.rest = frame.bytes.len() - 1 - cur.0.len();
        Ok(true)
    }

    /// Reads the next frame's body and checksum byte into `self.frame`
    /// and checks the sum, or checks the trailer and returns `false`.
    fn read_frame(&mut self) -> io::Result<bool> {
        if self.done {
            return Ok(false);
        }
        let len = self.varint()?;
        if len == 0 {
            if self.varint()? != self.read || self.remaining != 0 {
                return Err(corrupt("bad run-file trailer"));
            }
            self.done = true;
            return Ok(false);
        }
        if len > self.remaining {
            return Err(corrupt("frame length exceeds the run file"));
        }
        self.frame.resize(len as usize, 0);
        self.input.read_exact(&mut self.frame)?;
        self.remaining -= len;
        if checksum(frame_body(&self.frame)) != self.frame[self.frame.len() - 1] {
            return Err(corrupt("frame checksum mismatch"));
        }
        self.read += 1;
        Ok(true)
    }

    /// One varint from the file, bounded by what remains of it.
    fn varint(&mut self) -> io::Result<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            if self.remaining == 0 {
                return Err(corrupt("run file ends mid-frame"));
            }
            let mut b = [0u8];
            self.input.read_exact(&mut b)?;
            self.remaining -= 1;
            value |= u64::from(b[0] & 0x7f) << shift;
            if b[0] & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(corrupt("varint overflows u64"))
    }
}

/// A frame read back by [`RunReader::next_frame`]: its bytes after the
/// length prefix, checksummed, and decoded as far as the key and record
/// id a merge orders by.
pub(crate) struct Frame {
    /// The body and its checksum byte.
    bytes: Vec<u8>,
    pub(crate) key: String,
    pub(crate) id: RecordId,
    /// Offset in `bytes` of what follows the id.
    rest: usize,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            bytes: Vec::new(),
            key: String::new(),
            id: RecordId(0),
            rest: 0,
        }
    }
}

impl Frame {
    /// Decodes the whole frame into `key` and `record`.
    pub(crate) fn decode_into(&self, key: &mut String, record: &mut Record) -> io::Result<()> {
        key.clone_from(&self.key);
        record.id = self.id;
        Cursor(&frame_body(&self.bytes)[self.rest..]).rest_into(record)
    }
}

/// A frame's body: its bytes without the trailing checksum byte.
fn frame_body(frame: &[u8]) -> &[u8] {
    &frame[..frame.len() - 1]
}

/// Decoding position inside one checksummed frame body.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn varint(&mut self) -> io::Result<u64> {
        let mut value = 0u64;
        for (i, &b) in self.0.iter().enumerate().take(10) {
            value |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.0 = &self.0[i + 1..];
                return Ok(value);
            }
        }
        Err(corrupt("truncated or overlong varint"))
    }

    /// Decodes one string.
    fn str(&mut self) -> io::Result<&str> {
        let len = self.varint()?;
        if len > self.0.len() as u64 {
            return Err(corrupt("string length exceeds the frame"));
        }
        let (bytes, rest) = self.0.split_at(len as usize);
        self.0 = rest;
        std::str::from_utf8(bytes).map_err(|_| corrupt("invalid UTF-8 in frame"))
    }

    /// Decodes the key into `key`, replacing what it held, and the
    /// record id after it.
    fn key_and_id(&mut self, key: &mut String) -> io::Result<RecordId> {
        key.clear();
        key.push_str(self.str()?);
        let id = u32::try_from(self.varint()?).map_err(|_| corrupt("record id overflows u32"))?;
        Ok(RecordId(id))
    }

    /// Decodes what follows the id — the entity and the ten fields — into
    /// `record`, and checks that nothing follows them.
    fn rest_into(mut self, record: &mut Record) -> io::Result<()> {
        record.entity = match self.varint()? {
            0 => None,
            e => Some(EntityId(
                u32::try_from(e - 1).map_err(|_| corrupt("entity id overflows u32"))?,
            )),
        };
        for f in Field::ALL {
            record.field_mut(f).set(self.str()?);
        }
        if !self.0.is_empty() {
            return Err(corrupt("trailing bytes in frame"));
        }
        Ok(())
    }
}

/// LEB128-encodes `v` into `buf`, returning the bytes used.
fn varint(mut v: u64, buf: &mut [u8; 10]) -> &[u8] {
    let mut n = 0;
    while v >= 0x80 {
        buf[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    &buf[..=n]
}

fn put_varint(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(varint(v, &mut [0; 10]));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn checksum(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0u8, |acc, &b| acc.wrapping_add(b))
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn work_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-extsort-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The next entry decoded into buffers of its own.
    fn fresh(reader: &mut RunReader) -> io::Result<Option<(String, Record)>> {
        let (mut key, mut record) = (String::new(), Record::empty(RecordId(0)));
        Ok(reader
            .next_into(&mut key, &mut record)?
            .then_some((key, record)))
    }

    fn read_all(path: &Path) -> io::Result<Vec<(String, Record)>> {
        let mut reader = RunReader::open(path)?;
        let mut out = Vec::new();
        while let Some(entry) = fresh(&mut reader)? {
            out.push(entry);
        }
        Ok(out)
    }

    #[test]
    fn roundtrip_preserves_key_id_and_fields() {
        let path = work_path("roundtrip.run");
        let mut r = Record::empty(RecordId(4242));
        r.entity = Some(EntityId(7));
        r.last_name = "HERNANDEZ".into();
        r.city = "NEW YORK".into();

        let mut w = RunWriter::create(&path).unwrap();
        w.write("HERNANDEZM123456", &r).unwrap();
        w.write("ZKEY", &r).unwrap();
        assert_eq!(w.finish().unwrap(), 2);

        let mut reader = RunReader::open(&path).unwrap();
        let (k1, r1) = fresh(&mut reader).unwrap().unwrap();
        assert_eq!(k1, "HERNANDEZM123456");
        assert_eq!(r1, r);
        let (k2, _) = fresh(&mut reader).unwrap().unwrap();
        assert_eq!(k2, "ZKEY");
        assert!(fresh(&mut reader).unwrap().is_none());
        assert!(fresh(&mut reader).unwrap().is_none(), "the end is sticky");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_run_roundtrips() {
        let path = work_path("empty.run");
        assert_eq!(RunWriter::create(&path).unwrap().finish().unwrap(), 0);
        assert!(read_all(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_run_does_not_read_back() {
        let path = work_path("unfinished.run");
        let mut w = RunWriter::create(&path).unwrap();
        w.write("K", &Record::empty(RecordId(3))).unwrap();
        w.out.flush().unwrap();
        drop(w);
        let err = read_all(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    /// A run of frames is no larger than the text lines it replaced, on
    /// the records the generator produces (with and without entity ids).
    #[test]
    fn frames_are_no_larger_than_text_lines() {
        let path = work_path("size.run");
        let db = mp_datagen::DatabaseGenerator::new(mp_datagen::GeneratorConfig::new(300).seed(3))
            .generate();
        let key = merge_purge::KeySpec::last_name_key();
        for strip_entity in [false, true] {
            let mut w = RunWriter::create(&path).unwrap();
            let mut text = 0usize;
            for r in &db.records {
                let mut r = r.clone();
                if strip_entity {
                    r.entity = None;
                }
                let k = key.extract(&r);
                let mut line = format!("{k}|{}|", r.id.0).into_bytes();
                mp_record::io::write_records(&mut line, std::slice::from_ref(&r)).unwrap();
                text += line.len();
                w.write(&k, &r).unwrap();
            }
            w.finish().unwrap();
            let binary = std::fs::metadata(&path).unwrap().len() as usize;
            assert!(
                binary <= text,
                "{binary} > {text} (entity stripped: {strip_entity})"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Characters the text format could not carry, multi-byte UTF-8, and
    /// the empty string.
    const PALETTE: [&str; 8] = ["", "|", "\n", "A", "z", "9", "é", "日本"];

    fn text(picks: &[usize]) -> String {
        picks.iter().map(|&i| PALETTE[i]).collect()
    }

    proptest! {
        #[test]
        fn arbitrary_frames_roundtrip(
            picks in vec(vec(0usize..PALETTE.len(), 0..6), 12..13),
            ids in vec(0u32..=u32::MAX, 2..3),
            entity in 0u32..3,
        ) {
            let path = work_path(&format!("prop-{}.run", ids[0]));
            let mut r = Record::empty(RecordId(ids[0]));
            r.entity = match entity {
                0 => None,
                1 => Some(EntityId(ids[1])),
                _ => Some(EntityId(u32::MAX)),
            };
            for (f, p) in Field::ALL.into_iter().zip(&picks[2..]) {
                *r.field_mut(f) = text(p).into();
            }
            let keys = [text(&picks[0]), text(&picks[1]), String::new()];
            let mut w = RunWriter::create(&path).unwrap();
            for k in &keys {
                w.write(k, &r).unwrap();
            }
            prop_assert_eq!(w.finish().unwrap(), 3);
            let back = read_all(&path).unwrap();
            let want: Vec<(String, Record)> = keys.iter().map(|k| (k.clone(), r.clone())).collect();
            prop_assert_eq!(back, want);
            std::fs::remove_file(&path).unwrap();
        }

        /// Decoding every frame into one reused key and record equals a
        /// fresh decode of each: a long field followed by a short or empty
        /// one leaves nothing of the long one behind, and an entity goes
        /// from `Some` to `None`.
        #[test]
        fn decoding_into_one_reused_slot_equals_fresh_decodes(
            picks in vec(vec(0usize..PALETTE.len(), 0..12), 11..12),
            shrink in vec(0usize..12, 11..12),
            id in 0u32..=u32::MAX,
        ) {
            let path = work_path(&format!("reuse-{id}.run"));
            let mut long = Record::empty(RecordId(id));
            long.entity = Some(EntityId(id / 2));
            for (f, p) in Field::ALL.into_iter().zip(&picks[1..]) {
                *long.field_mut(f) = text(p).into();
            }
            // The same record with every field (and the key) cut short.
            let mut short = long.clone();
            short.id = RecordId(id / 3);
            short.entity = None;
            for (f, &n) in Field::ALL.into_iter().zip(&shrink[1..]) {
                let field = short.field_mut(f);
                let cut = field.char_indices().nth(n).map_or(field.len(), |(at, _)| at);
                let kept = field[..cut].to_string();
                field.set(&kept);
            }
            let long_key = text(&picks[0]);
            let short_key: String = long_key.chars().take(shrink[0]).collect();
            let mut w = RunWriter::create(&path).unwrap();
            for (k, r) in [(&long_key, &long), (&short_key, &short), (&long_key, &long), (&String::new(), &short)] {
                w.write(k, r).unwrap();
            }
            w.finish().unwrap();

            let want = read_all(&path).unwrap();
            let mut reader = RunReader::open(&path).unwrap();
            let (mut key, mut record) = (String::new(), Record::empty(RecordId(0)));
            let mut got = Vec::new();
            while reader.next_into(&mut key, &mut record).unwrap() {
                got.push((key.clone(), record.clone()));
            }
            prop_assert_eq!(got.len(), 4);
            prop_assert_eq!(got, want);
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// Totality: every truncation and every single-byte corruption of a
    /// small run file reads back as `Err` — never a panic, never a
    /// shorter or altered run. (`RunReader` never sizes a buffer past
    /// what remains of the file, so no case can allocate more than it.)
    #[test]
    fn every_truncation_and_byte_corruption_is_an_error() {
        let path = work_path("totality.run");
        let mut a = Record::empty(RecordId(300));
        a.entity = Some(EntityId(9));
        a.last_name = "SMITH".into();
        a.city = "NEW YORK".into();
        let mut b = Record::empty(RecordId(2));
        b.first_name = "日本|\n".into();
        let mut w = RunWriter::create(&path).unwrap();
        w.write("SMITH300", &a).unwrap();
        w.write("", &b).unwrap();
        w.write("Z", &a).unwrap();
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_eq!(read_all(&path).unwrap().len(), 3);

        let check = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            assert!(read_all(&path).is_err(), "{what} read back as Ok");
        };
        for cut in 0..good.len() {
            check(&good[..cut], &format!("truncation to {cut} bytes"));
        }
        let mut bad = good.clone();
        for at in 0..good.len() {
            for flip in 1..=255u8 {
                bad[at] = good[at] ^ flip;
                check(&bad, &format!("byte {at} xor {flip:#04x}"));
            }
            bad[at] = good[at];
        }
        let mut extended = good.clone();
        extended.push(0);
        check(&extended, "a byte after the trailer");
        std::fs::remove_file(&path).unwrap();
    }
}
