//! Flat-file persistence for record lists.
//!
//! One record per line, fields separated by `|` (which never occurs in
//! generated data and is rejected on write). The ground-truth entity id is
//! stored first so evaluation can reload it; production exports simply leave
//! the column empty.
//!
//! There is one parser, [`RecordStream`]: [`read_records`] collects it,
//! and the bulk loader and the daemon's ingest stream it. It reads every
//! line into one reused buffer and copies each field into the record
//! itself, so a record of fields that fit inline allocates nothing.

use crate::record::{EntityId, Record, RecordId};
use std::fmt;
use std::io::{self, BufRead, BufWriter, Write};

/// Number of `|`-separated columns per line: the entity column plus the ten
/// data fields.
const COLUMNS: usize = 1 + crate::field::Field::ALL.len();

/// Error produced while reading a record file.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line did not have exactly the expected number of columns (the
    /// entity column plus the ten data fields).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Number of columns found.
        columns: usize,
    },
    /// The entity column held something other than an integer or blank.
    BadEntity {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Malformed { line, columns } => {
                write!(
                    f,
                    "line {line}: expected {COLUMNS} columns, found {columns}"
                )
            }
            ReadError::BadEntity { line } => write!(f, "line {line}: invalid entity id"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Writes records in the flat format; field values containing `|` or a
/// newline are rejected with `InvalidData`.
///
/// Output goes through a [`BufWriter`], so a file handle costs one
/// `write` per buffer, not per record; the final flush's error is
/// returned.
pub fn write_records<W: Write>(w: W, records: &[Record]) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let mut line = String::new();
    for r in records {
        line.clear();
        if let Some(EntityId(e)) = r.entity {
            line.push_str(&e.to_string())
        }
        for f in crate::field::Field::ALL {
            let v = r.field(f);
            if v.contains(['|', '\n']) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("field {f} of {} contains a separator", r.id),
                ));
            }
            line.push('|');
            line.push_str(v);
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// Reads records written by [`write_records`], assigning sequential
/// [`RecordId`]s from zero (the id is positional, exactly as in the
/// concatenated list the paper sorts). Stops at the first error.
pub fn read_records<R: BufRead>(r: R) -> Result<Vec<Record>, ReadError> {
    RecordStream::new(r).collect()
}

/// Streams records from a flat file one at a time, assigning positional
/// ids — the one parser behind [`read_records`], and the memory-bounded
/// reader the external-memory engines and the daemon's ingest use.
///
/// Every line is read into one reused buffer and split in place, and each
/// field is copied into its [`FieldStr`](crate::FieldStr), so only a field
/// longer than 22 bytes allocates. Blank lines are skipped (they take no
/// id but do count as lines), a trailing `\r` before the newline is
/// dropped, and invalid UTF-8 is an [`ReadError::Io`] error.
pub struct RecordStream<R: BufRead> {
    reader: R,
    line: String,
    line_no: usize,
    next_id: u32,
}

impl<R: BufRead> RecordStream<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        RecordStream {
            reader,
            line: String::new(),
            line_no: 0,
            next_id: 0,
        }
    }
}

impl<R: BufRead> Iterator for RecordStream<R> {
    type Item = Result<Record, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line.clear();
            let read = self.reader.read_line(&mut self.line);
            if matches!(read, Ok(0)) {
                return None;
            }
            self.line_no += 1;
            if let Err(e) = read {
                return Some(Err(e.into()));
            }
            let line = match self.line.strip_suffix('\n') {
                Some(l) => l.strip_suffix('\r').unwrap_or(l),
                None => &self.line,
            };
            if line.is_empty() {
                continue;
            }
            let record = parse_line(line, self.line_no, RecordId(self.next_id));
            self.next_id += u32::from(record.is_ok());
            return Some(record);
        }
    }
}

/// Parses one non-empty line in a single pass over its columns; the
/// column count is checked before the entity, as errors are reported.
fn parse_line(line: &str, line_no: usize, id: RecordId) -> Result<Record, ReadError> {
    let mut cols = line.split('|');
    let entity = cols.next().unwrap_or_default();
    let mut rec = Record::empty(id);
    let mut columns = 1;
    for (field, value) in crate::field::Field::ALL.into_iter().zip(cols.by_ref()) {
        columns += 1;
        rec.field_mut(field).set(value);
    }
    columns += cols.count();
    if columns != COLUMNS {
        return Err(ReadError::Malformed {
            line: line_no,
            columns,
        });
    }
    rec.entity = if entity.is_empty() {
        None
    } else {
        let e = entity
            .parse()
            .map_err(|_| ReadError::BadEntity { line: line_no })?;
        Some(EntityId(e))
    };
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;

    fn sample(n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let mut r = Record::empty(RecordId(i));
                r.entity = (i % 2 == 0).then_some(EntityId(i * 10));
                r.first_name = format!("FIRST{i}").into();
                r.last_name = format!("LAST{i}").into();
                r.zip = "10027".into();
                r
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let records = sample(5);
        let mut buf = Vec::new();
        write_records(&mut buf, &records).unwrap();
        let back = read_records(buf.as_slice()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_fields_and_missing_entity_roundtrip() {
        let mut r = Record::empty(RecordId(0));
        r.city = "AUSTIN".into();
        let mut buf = Vec::new();
        write_records(&mut buf, &[r.clone()]).unwrap();
        let back = read_records(buf.as_slice()).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn separator_in_field_rejected() {
        let mut r = Record::empty(RecordId(0));
        r.city = "BAD|CITY".into();
        let err = write_records(Vec::new(), &[r]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = read_records("a|b|c\n".as_bytes()).unwrap_err();
        match err {
            ReadError::Malformed { line, columns } => {
                assert_eq!(line, 1);
                assert_eq!(columns, 3);
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn bad_entity_reported() {
        let line = format!("xx{}\n", "|".repeat(COLUMNS - 1));
        let err = read_records(line.as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::BadEntity { line: 1 }));
    }

    #[test]
    fn stream_matches_batch_reader() {
        let records = sample(6);
        let mut buf = Vec::new();
        write_records(&mut buf, &records).unwrap();
        let streamed: Vec<Record> = RecordStream::new(buf.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, records);
    }

    #[test]
    fn stream_reports_errors_with_line_numbers() {
        let text = "a|b|c\n";
        let mut stream = RecordStream::new(text.as_bytes());
        match stream.next().unwrap() {
            Err(ReadError::Malformed { line, .. }) => assert_eq!(line, 1),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// What a reader made of an input: the records' (id, entity, first
    /// name) up to the first error, and that error.
    type Outcome = (Vec<(u32, Option<u32>, String)>, Option<String>);

    fn outcome(results: impl IntoIterator<Item = Result<Record, ReadError>>) -> Outcome {
        let mut records = Vec::new();
        for r in results {
            match r {
                Ok(r) => records.push((r.id.0, r.entity.map(|e| e.0), r.first_name.to_string())),
                Err(ReadError::Io(e)) => return (records, Some(format!("io {:?}", e.kind()))),
                Err(e) => return (records, Some(e.to_string())),
            }
        }
        (records, None)
    }

    #[test]
    fn both_readers_agree_on_every_line_shape() {
        let row = |entity: &str, first: &str| format!("{entity}|1|{first}||||||||");
        let good = row("7", "ANN");
        let eleven_cols = format!("{good}|");
        let ten_cols = good.replacen('|', "", 1);
        let ann = |id: u32, entity: Option<u32>| (id, entity, "ANN".to_string());
        let cases: Vec<(&str, Vec<u8>, Outcome)> = vec![
            (
                "crlf line endings",
                format!("{good}\r\n{}\r\n", row("", "ANN")).into_bytes(),
                (vec![ann(0, Some(7)), ann(1, None)], None),
            ),
            (
                "blank lines take no id but count as lines",
                format!("\n{good}\n\r\n\n{good}\n{ten_cols}\n").into_bytes(),
                (
                    vec![ann(0, Some(7)), ann(1, Some(7))],
                    Some("line 6: expected 11 columns, found 10".into()),
                ),
            ),
            (
                "no trailing newline",
                format!("{good}\n{good}").into_bytes(),
                (vec![ann(0, Some(7)), ann(1, Some(7))], None),
            ),
            (
                "a lone carriage return stays in the last field",
                format!("{good}\r").into_bytes(),
                (vec![ann(0, Some(7))], None),
            ),
            (
                "ten columns",
                format!("{good}\n{ten_cols}\n{good}\n").into_bytes(),
                (
                    vec![ann(0, Some(7))],
                    Some("line 2: expected 11 columns, found 10".into()),
                ),
            ),
            (
                "twelve columns",
                format!("{eleven_cols}\n").into_bytes(),
                (vec![], Some("line 1: expected 11 columns, found 12".into())),
            ),
            (
                "bad entity",
                format!("{good}\n{}\n", row("7x", "ANN")).into_bytes(),
                (
                    vec![ann(0, Some(7))],
                    Some("line 2: invalid entity id".into()),
                ),
            ),
            (
                "a column count error wins over a bad entity",
                format!("x{ten_cols}\n").into_bytes(),
                (vec![], Some("line 1: expected 11 columns, found 10".into())),
            ),
            (
                "invalid utf-8",
                [good.as_bytes(), b"\n", &[0xff, 0xfe], b"|\n"].concat(),
                (vec![ann(0, Some(7))], Some("io InvalidData".into())),
            ),
        ];
        for (name, input, want) in cases {
            let streamed = outcome(RecordStream::new(input.as_slice()));
            assert_eq!(streamed, want, "{name}: RecordStream");
            // `read_records` returns every record or the first error.
            let batch = outcome(match read_records(input.as_slice()) {
                Ok(records) => records.into_iter().map(Ok).collect(),
                Err(e) => vec![Err(e)],
            });
            let (records, err) = want;
            let want = if err.is_some() {
                (vec![], err)
            } else {
                (records, None)
            };
            assert_eq!(batch, want, "{name}: read_records");
        }
        let last = read_records(format!("{good}\r").as_bytes()).unwrap();
        assert_eq!(last[0].zip, "\r");
    }

    #[test]
    fn blank_lines_skipped_and_ids_positional() {
        let records = sample(3);
        let mut buf = Vec::new();
        write_records(&mut buf, &records).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.insert(0, '\n');
        let back = read_records(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 3);
        for (i, r) in back.iter().enumerate() {
            assert_eq!(r.id, RecordId(i as u32));
            assert_eq!(r.field(Field::FirstName), format!("FIRST{i}"));
        }
    }
}
