//! Sort-key specification and extraction.
//!
//! §2.4: "A key is defined to be a sequence of a subset of attributes, or
//! substrings within the attributes, chosen from the record. ... Attributes
//! that appear first in the key have a higher priority than those appearing
//! after them." Key extraction is knowledge-intensive and error-prone by
//! design — keys inherit the corruption of the fields they are built from,
//! which is exactly why no single key suffices and the multi-pass approach
//! wins.

use crate::prefetch::prefetch;
use crate::{Field, Record};
use std::ops::Range;

/// One component of a key, applied to a field in priority order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPart {
    /// The entire field value.
    Full(Field),
    /// The first `n` characters of the field.
    Prefix(Field, usize),
    /// The first non-blank character of the field (the paper's example uses
    /// "the first non blank character of the first name sub-field"). Note
    /// that a character whose uppercase form expands (e.g. 'ᾼ' → "ΑΙ")
    /// contributes every expanded character.
    FirstNonBlank(Field),
    /// The first `n` decimal digits found in the field ("the first six
    /// digits of the social security field").
    Digits(Field, usize),
}

impl KeyPart {
    /// Appends this part's contribution for `record` to `out`, upper-cased,
    /// with non-alphanumerics dropped so punctuation noise cannot reorder
    /// the sort.
    pub fn append(&self, record: &Record, out: &mut String) {
        match *self {
            KeyPart::Full(f) => push_clean(record.field(f), usize::MAX, out),
            KeyPart::Prefix(f, n) => push_clean(record.field(f), n, out),
            KeyPart::FirstNonBlank(f) => {
                if let Some(c) = record.field(f).chars().find(|c| !c.is_whitespace()) {
                    for u in c.to_uppercase() {
                        out.push(u);
                    }
                }
            }
            KeyPart::Digits(f, n) => {
                out.extend(record.field(f).chars().filter(char::is_ascii_digit).take(n));
            }
        }
    }
}

fn push_clean(s: &str, limit: usize, out: &mut String) {
    // Conditioned records are pure ASCII, so the common case avoids the
    // unicode uppercase machinery and runs byte-at-a-time.
    if s.is_ascii() {
        out.extend(
            s.bytes()
                .filter(u8::is_ascii_alphanumeric)
                .map(|b| b.to_ascii_uppercase() as char)
                .take(limit),
        );
        return;
    }
    out.extend(
        s.chars()
            .filter(|c| c.is_alphanumeric())
            .flat_map(char::to_uppercase)
            .take(limit),
    );
}

/// An ordered sequence of [`KeyPart`]s, named for reports.
///
/// ```
/// use mp_record::KeySpec;
/// use mp_record::{Record, RecordId};
/// let mut r = Record::empty(RecordId(0));
/// r.last_name = "O'BRIEN".into();
/// r.first_name = " MAURICIO".into();
/// r.ssn = "123-45-6789".into();
/// assert_eq!(KeySpec::last_name_key().extract(&r), "OBRIENM123456");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpec {
    name: String,
    parts: Vec<KeyPart>,
}

impl KeySpec {
    /// A key from explicit parts.
    pub fn new(name: impl Into<String>, parts: Vec<KeyPart>) -> Self {
        KeySpec {
            name: name.into(),
            parts,
        }
    }

    /// Display name of the key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component parts.
    pub fn parts(&self) -> &[KeyPart] {
        &self.parts
    }

    /// Extracts the key for one record into a fresh string.
    pub fn extract(&self, record: &Record) -> String {
        let mut out = String::with_capacity(24);
        self.extract_into(record, &mut out);
        out
    }

    /// Extracts the key, appending into a caller-provided buffer (cleared
    /// first). The create-keys phase runs this for every record; reusing the
    /// buffer keeps it allocation-free.
    pub fn extract_into(&self, record: &Record, out: &mut String) {
        out.clear();
        self.extract_into_append(record, out);
    }

    /// Extracts the key, appending to `out` *without* clearing it first —
    /// the building block [`KeyArena`] uses to pack every key of a pass
    /// into one buffer.
    pub fn extract_into_append(&self, record: &Record, out: &mut String) {
        for part in &self.parts {
            part.append(record, out);
        }
    }

    /// Paper run 1: last name principal, then first initial, then the first
    /// six SSN digits.
    pub fn last_name_key() -> Self {
        KeySpec::new(
            "last-name",
            vec![
                KeyPart::Full(Field::LastName),
                KeyPart::FirstNonBlank(Field::FirstName),
                KeyPart::Digits(Field::Ssn, 6),
            ],
        )
    }

    /// Paper run 2: first name principal.
    pub fn first_name_key() -> Self {
        KeySpec::new(
            "first-name",
            vec![
                KeyPart::Full(Field::FirstName),
                KeyPart::FirstNonBlank(Field::LastName),
                KeyPart::Digits(Field::Ssn, 6),
            ],
        )
    }

    /// Paper run 3: street address principal (street name, then number,
    /// then city prefix).
    pub fn address_key() -> Self {
        KeySpec::new(
            "address",
            vec![
                KeyPart::Full(Field::StreetName),
                KeyPart::Digits(Field::StreetNumber, 6),
                KeyPart::Prefix(Field::City, 4),
            ],
        )
    }

    /// An SSN-principal key (the §2.4 example of a *bad* principal field
    /// when digits transpose).
    pub fn ssn_key() -> Self {
        KeySpec::new(
            "ssn",
            vec![
                KeyPart::Digits(Field::Ssn, 9),
                KeyPart::Prefix(Field::LastName, 4),
            ],
        )
    }

    /// The three standard paper keys, in the order used for the figures.
    pub fn standard_three() -> Vec<KeySpec> {
        vec![
            KeySpec::last_name_key(),
            KeySpec::first_name_key(),
            KeySpec::address_key(),
        ]
    }
}

/// Arena of extracted sort keys: one shared byte buffer plus
/// `(offset, len)` spans, indexed by record position.
///
/// The create-keys phase used to build one heap `String` per record per
/// pass; for a three-pass run over a million records that is three million
/// allocations before any comparison happens. The arena stores every key
/// contiguously in a single buffer and hands out `&str` slices, so a pass
/// performs O(1) allocations (amortized growth of two vectors) regardless
/// of record count. A stored pass keeps its keys the same way, indexed by
/// record id: about 24 bytes a key (a span and the bytes) where a `String`
/// per key cost its 24-byte header plus a heap block.
///
/// A span is a position in the buffer, not a place in line: keys may be
/// [`set`](KeyArena::set) in any id order, so the buffer need not follow
/// id order, and equality is key by key.
///
/// ```
/// use mp_record::{KeyArena, KeySpec};
/// use mp_record::{Record, RecordId};
///
/// let mut r = Record::empty(RecordId(0));
/// r.last_name = "HERNANDEZ".into();
/// let arena = KeyArena::extract(&KeySpec::last_name_key(), std::slice::from_ref(&r));
/// assert_eq!(arena.len(), 1);
/// assert_eq!(arena.get(0), "HERNANDEZ");
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyArena {
    buf: String,
    spans: Vec<(u32, u32)>,
}

impl KeyArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena pre-sized for `records` keys of ~`avg_key_len` bytes.
    pub fn with_capacity(records: usize, avg_key_len: usize) -> Self {
        KeyArena {
            buf: String::with_capacity(records * avg_key_len),
            spans: Vec::with_capacity(records),
        }
    }

    /// An arena of `keys` empty keys with room for exactly `bytes` key
    /// bytes, to be filled by id, in any order, with [`KeyArena::set`].
    pub fn with_slots(keys: usize, bytes: usize) -> Self {
        KeyArena {
            buf: String::with_capacity(bytes),
            spans: vec![(0, 0); keys],
        }
    }

    /// An arena over `buf` whose record `i` has the key
    /// `buf[spans[i].0..spans[i].0 + spans[i].1]`: a stored pass's keys,
    /// laid out in whatever order the store kept them, taken over without
    /// copying a key.
    ///
    /// Every span must lie within `buf` and start and end on character
    /// boundaries; [`get`](KeyArena::get) panics on one that does not, so
    /// a decoder checks them before it hands them over.
    pub fn from_parts(buf: String, spans: Vec<(u32, u32)>) -> Self {
        debug_assert!(spans.iter().all(|&(start, len)| buf
            .get(start as usize..start as usize + len as usize)
            .is_some()));
        KeyArena { buf, spans }
    }

    /// Extracts `key` for every record into a fresh arena.
    ///
    /// # Panics
    ///
    /// Panics if the total key bytes exceed `u32::MAX` (≈4 GiB of key
    /// text; beyond that the external-sort path is the right tool).
    pub fn extract(key: &KeySpec, records: &[Record]) -> Self {
        let mut arena = KeyArena::with_capacity(records.len(), 20);
        for r in records {
            arena.push_with(|buf| key.extract_into_append(r, buf));
        }
        arena
    }

    /// Appends one key produced by `fill`, which appends bytes to the
    /// arena's buffer (and must not touch what is already there).
    pub fn push_with(&mut self, fill: impl FnOnce(&mut String)) {
        let span = self.append_with(fill);
        self.spans.push(span);
    }

    /// Appends `key` to the buffer and makes it record `i`'s key, replacing
    /// the span `i` had. Ids may be set in any order; the buffer keeps the
    /// order they were set in.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not below [`len`](KeyArena::len), or past 4 GiB
    /// of key bytes.
    pub fn set(&mut self, i: usize, key: &str) {
        self.spans[i] = self.append_with(|buf| buf.push_str(key));
    }

    fn append_with(&mut self, fill: impl FnOnce(&mut String)) -> (u32, u32) {
        let start = self.buf.len();
        fill(&mut self.buf);
        let len = self.buf.len() - start;
        assert!(
            self.buf.len() <= u32::MAX as usize,
            "key arena exceeds 4 GiB"
        );
        (start as u32, len as u32)
    }

    /// Appends a ready-made key string.
    pub fn push_str(&mut self, key: &str) {
        self.push_with(|buf| buf.push_str(key));
    }

    /// Key of record `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let (start, len) = self.spans[i];
        &self.buf[start as usize..(start + len) as usize]
    }

    /// Where record `i`'s span sits, for a prefetch: [`get`](KeyArena::get)
    /// reads the span before it can address the key's bytes. Computing the
    /// address reads nothing.
    #[inline]
    pub fn span_addr(&self, i: usize) -> *const u8 {
        self.spans.as_ptr().wrapping_add(i).cast()
    }

    /// Where record `i`'s key bytes start, for a prefetch: reads the span
    /// but not the bytes, which [`get`](KeyArena::get) touches to check
    /// its slice.
    #[inline]
    pub fn key_addr(&self, i: usize) -> *const u8 {
        self.buf.as_ptr().wrapping_add(self.spans[i].0 as usize)
    }

    /// The keys of records `ids`, in that sequence, in as few slices as
    /// it can: keys that lie back to back in the buffer (a pass restored
    /// from its stored sorted run, walked in sorted order) come out as one
    /// slice. A first walk over the spans hands `len` each key's length in
    /// turn and notes the slices; the spans lie out of id order, so it
    /// prefetches 16 steps ahead, and the slices returned prefetch their
    /// bytes 8 slices ahead. A walk over keys out of buffer order (an
    /// arena filled in id order) so overlaps its cache misses instead of
    /// meeting them one at a time.
    ///
    /// # Errors
    ///
    /// The first error `len` returns; the walk stops there.
    ///
    /// # Panics
    ///
    /// When an id is not below [`len`](KeyArena::len).
    pub fn key_runs<E>(
        &self,
        ids: &[u32],
        mut len: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<impl Iterator<Item = &str> + '_, E> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        for (step, &id) in ids.iter().enumerate() {
            if let Some(&far) = ids.get(step + 16) {
                prefetch(self.span_addr(far as usize));
            }
            let (start, key_len) = self.spans[id as usize];
            let (start, end) = (start as usize, start as usize + key_len as usize);
            len(key_len as usize)?;
            match runs.last_mut() {
                Some(run) if run.end == start => run.end = end,
                _ => runs.push(start..end),
            }
        }
        Ok((0..runs.len()).map(move |step| {
            if let Some(near) = runs.get(step + 8) {
                prefetch(self.buf.as_ptr().wrapping_add(near.start));
            }
            &self.buf[runs[step].clone()]
        }))
    }

    /// Cuts every key to its first `chars` characters, in place — the
    /// clustering method's fixed-size key (§3.4).
    pub fn truncate_keys(&mut self, chars: usize) {
        for i in 0..self.spans.len() {
            let len = truncate_chars(self.get(i), chars).len();
            self.spans[i].1 = len as u32;
        }
    }

    /// Bytes the buffer holds: the keys' total length, unless keys were
    /// cut or replaced since they went in.
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }

    /// Removes every key, keeping the buffers' capacity for the next fill.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.spans.clear();
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the arena holds no keys.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over the keys in record order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.spans
            .iter()
            .map(|&(start, len)| &self.buf[start as usize..(start + len) as usize])
    }

    /// Appends every key of `other`, renumbering them after this arena's
    /// keys (the parallel engines build one arena per worker chunk and
    /// concatenate — a straight memcpy, not a per-key reallocation).
    pub fn append(&mut self, other: &KeyArena) {
        let base = self.buf.len();
        assert!(
            base + other.buf.len() <= u32::MAX as usize,
            "key arena exceeds 4 GiB"
        );
        self.buf.push_str(&other.buf);
        self.spans.extend(
            other
                .spans
                .iter()
                .map(|&(start, len)| (start + base as u32, len)),
        );
    }
}

impl PartialEq for KeyArena {
    /// Key by key: the same keys under the same ids, wherever each sits in
    /// its buffer.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for KeyArena {}

/// The first `chars` characters of `s`.
pub fn truncate_chars(s: &str, chars: usize) -> &str {
    match s.char_indices().nth(chars) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordId;

    fn sample() -> Record {
        let mut r = Record::empty(RecordId(0));
        r.ssn = "123456789".into();
        r.first_name = "MAURICIO".into();
        r.last_name = "HERNANDEZ".into();
        r.street_number = "500".into();
        r.street_name = "WEST 120TH STREET".into();
        r.city = "NEW YORK".into();
        r
    }

    #[test]
    fn key_runs_coalesce_keys_back_to_back_and_report_every_length() {
        let mut arena = KeyArena::new();
        ["B", "", "AA", "C"].iter().for_each(|k| arena.push_str(k));
        for (ids, want_runs, want_lens) in [
            (&[0, 1, 2, 3][..], vec!["BAAC"], vec![1, 0, 2, 1]),
            (&[1, 2, 0, 3][..], vec!["AA", "B", "C"], vec![0, 2, 1, 1]),
            (&[3, 2][..], vec!["C", "AA"], vec![1, 2]),
            (&[][..], vec![], vec![]),
        ] {
            let mut lens = Vec::new();
            let runs: Vec<&str> = arena
                .key_runs(ids, |len| {
                    lens.push(len);
                    Ok::<_, ()>(())
                })
                .unwrap()
                .collect();
            assert_eq!((&runs, &lens), (&want_runs, &want_lens), "{ids:?}");
            let keys: String = ids.iter().map(|&i| arena.get(i as usize)).collect();
            assert_eq!(runs.concat(), keys, "{ids:?}");
        }
        let mut seen = 0;
        let stopped = arena.key_runs(&[0, 1, 2, 3], |_| {
            seen += 1;
            if seen == 2 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!((stopped.err(), seen), (Some("stop"), 2));
    }

    #[test]
    fn paper_key_shapes() {
        let r = sample();
        assert_eq!(KeySpec::last_name_key().extract(&r), "HERNANDEZM123456");
        assert_eq!(KeySpec::first_name_key().extract(&r), "MAURICIOH123456");
        assert_eq!(KeySpec::address_key().extract(&r), "WEST120THSTREET500NEWY");
        assert_eq!(KeySpec::ssn_key().extract(&r), "123456789HERN");
    }

    #[test]
    fn punctuation_and_case_insensitive() {
        let mut a = sample();
        a.last_name = "o'brien-SMITH".into();
        let mut b = sample();
        b.last_name = "OBRIENSMITH".into();
        let k = KeySpec::new("t", vec![KeyPart::Full(Field::LastName)]);
        assert_eq!(k.extract(&a), k.extract(&b));
    }

    #[test]
    fn prefix_and_digit_truncation() {
        let r = sample();
        let k = KeySpec::new(
            "t",
            vec![
                KeyPart::Prefix(Field::City, 3),
                KeyPart::Digits(Field::Ssn, 2),
            ],
        );
        // "NEW YORK" -> alphanumerics "NEWYORK" -> prefix 3 "NEW".
        assert_eq!(k.extract(&r), "NEW12");
    }

    #[test]
    fn first_non_blank_of_empty_contributes_nothing() {
        let mut r = sample();
        r.first_name = "   ".into();
        let k = KeySpec::new("t", vec![KeyPart::FirstNonBlank(Field::FirstName)]);
        assert_eq!(k.extract(&r), "");
        r.first_name = "  joe".into();
        assert_eq!(k.extract(&r), "J");
    }

    #[test]
    fn extract_into_reuses_buffer() {
        let r = sample();
        let k = KeySpec::last_name_key();
        let mut buf = String::from("STALE");
        k.extract_into(&r, &mut buf);
        assert_eq!(buf, "HERNANDEZM123456");
    }

    #[test]
    fn corrupted_principal_field_corrupts_key_head() {
        // §2.4: errors in the principal field move records far apart.
        let a = sample();
        let mut b = sample();
        b.last_name = "GERNANDEZ".into(); // typo in first character
        let k = KeySpec::last_name_key();
        assert_ne!(k.extract(&a).as_bytes()[0], k.extract(&b).as_bytes()[0]);
        // But the head of the first-name key (the full first name) is
        // unaffected; only the trailing last-initial component changes.
        let k2 = KeySpec::first_name_key();
        assert_eq!(k2.extract(&a)[..8], k2.extract(&b)[..8]);
    }

    #[test]
    fn arena_matches_per_record_extraction() {
        let records: Vec<Record> = (0..5u32)
            .map(|i| {
                let mut r = sample();
                r.id = RecordId(i);
                r.last_name = format!("NAME{i}").into();
                r
            })
            .collect();
        let key = KeySpec::last_name_key();
        let arena = KeyArena::extract(&key, &records);
        assert_eq!(arena.len(), 5);
        assert!(!arena.is_empty());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(arena.get(i), key.extract(r));
        }
        let collected: Vec<&str> = arena.iter().collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[3], arena.get(3));
    }

    #[test]
    fn arena_append_renumbers_spans() {
        let mut a = KeyArena::new();
        a.push_str("ALPHA");
        a.push_str("");
        let mut b = KeyArena::new();
        b.push_str("BETA");
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), "ALPHA");
        assert_eq!(a.get(1), "");
        assert_eq!(a.get(2), "BETA");
    }

    #[test]
    fn an_arena_set_out_of_buffer_order_equals_one_filled_in_id_order() {
        let keys = ["MILLER", "", "ABE", "MILLER", "ZED"];
        let mut in_order = KeyArena::new();
        keys.iter().for_each(|k| in_order.push_str(k));

        let bytes = keys.iter().map(|k| k.len()).sum();
        let mut scattered = KeyArena::with_slots(keys.len(), bytes);
        for i in [3, 0, 4, 1, 2] {
            scattered.set(i, keys[i]);
        }
        assert_eq!(scattered.buf, "MILLERMILLERZEDABE");
        assert_eq!(scattered.buf.capacity(), bytes, "sized exactly");
        assert_eq!(scattered, in_order);
        assert!(scattered.iter().eq(in_order.iter()));
        assert!(scattered.iter().eq(keys));

        let mut other = scattered.clone();
        other.set(2, "ABF");
        assert_ne!(other, in_order, "one key differs");
        other.set(2, "ABE");
        assert_eq!(other, in_order, "its old bytes stay behind, unread");
        in_order.push_str("");
        assert_ne!(scattered, in_order, "one key more");
    }

    #[test]
    fn arena_empty_input() {
        let arena = KeyArena::extract(&KeySpec::last_name_key(), &[]);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn standard_three_distinct_names() {
        let keys = KeySpec::standard_three();
        assert_eq!(keys.len(), 3);
        let names: std::collections::HashSet<&str> = keys.iter().map(KeySpec::name).collect();
        assert_eq!(names.len(), 3);
    }
}
