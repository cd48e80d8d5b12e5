//! CSV reader/writer, from scratch (RFC 4180 quoting).
//!
//! Icewafl's Fig. 2 pipeline reads batch input and persists clean and
//! dirty streams; this module provides that I/O for [`Tuple`]s under a
//! [`Schema`].
//!
//! One record codec serves both the eager functions ([`read_csv`],
//! [`write_csv`]) and the streaming adapters in
//! [`crate::stream_io`], and it allocates nothing per field beyond the
//! `Str` values themselves:
//!
//! * **Reading.** A record is one line, continued across line breaks
//!   while a quote is open. A record without `"` splits into borrowed
//!   fields; a quoted one runs the RFC 4180 state machine into a
//!   reused buffer. Arity is checked before any value is parsed. A
//!   quoted `Str` field is literal text — quoting is how the writer
//!   protects commas, quotes, line breaks and edge whitespace — unless
//!   it spells NULL ([`Value::is_null_token`]); every other field goes
//!   through [`Value::parse`].
//! * **Writing.** Values format straight into a reused line buffer.
//!   Only `Str` fields that need it are quoted: those holding a comma,
//!   a quote, CR or LF, or starting or ending with whitespace the
//!   reader would otherwise trim.
//!
//! What stays lossy is inherent to the NULL conventions: an empty
//! string, or one spelling a NULL token such as `NA`, reads back as
//! NULL.

use icewafl_types::{DataType, Error, Result, Schema, Tuple, Value};
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// `write_csv` hands its buffer to the writer whenever it grows past
/// this many bytes.
const WRITE_CHUNK: usize = 64 * 1024;

/// Whether a `Str` field must be quoted to read back as itself.
fn needs_quotes(field: &str) -> bool {
    field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
        || field.starts_with(char::is_whitespace)
        || field.ends_with(char::is_whitespace)
}

/// Appends one text field, RFC 4180-quoted when needed.
fn write_field(out: &mut String, field: &str) {
    if !needs_quotes(field) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Appends one value's field; NULL is the empty field.
fn encode_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => {}
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => write_field(out, s),
        Value::Timestamp(t) => {
            let _ = write!(out, "{t}");
        }
    }
}

/// Appends one record and its `\n` terminator.
pub(crate) fn encode_record(out: &mut String, values: &[Value]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_value(out, v);
    }
    out.push('\n');
}

/// Appends the header record: the schema's attribute names, in order.
pub(crate) fn encode_header(out: &mut String, schema: &Schema) {
    for (i, f) in schema.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(out, &f.name);
    }
    out.push('\n');
}

/// Writes a header plus one line per tuple.
pub fn write_csv(w: &mut impl Write, schema: &Schema, tuples: &[Tuple]) -> Result<()> {
    let mut buf = String::with_capacity(WRITE_CHUNK + 4096);
    encode_header(&mut buf, schema);
    for t in tuples {
        encode_record(&mut buf, t.values());
        if buf.len() >= WRITE_CHUNK {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    w.write_all(buf.as_bytes())?;
    Ok(())
}

/// Whether `s` holds an odd number of `"` — the record it ends still
/// has a quote open.
fn odd_quotes(s: &str) -> bool {
    s.bytes().filter(|&b| b == b'"').count() % 2 == 1
}

/// What [`read_record`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extent {
    /// End of input: no record.
    End,
    /// A complete record spanning this many lines.
    Lines(usize),
    /// A quote still open at end of input: the record holds this many
    /// lines, everything from its first line on — a stray quote, not a
    /// field, in all likelihood.
    Unterminated(usize),
}

/// Reads the next record into `record`, without its line terminator:
/// one line, continued across line breaks while a quote is open.
pub(crate) fn read_record(r: &mut impl BufRead, record: &mut String) -> std::io::Result<Extent> {
    record.clear();
    if r.read_line(record)? == 0 {
        return Ok(Extent::End);
    }
    let mut lines = 1;
    let mut open = odd_quotes(record);
    while open {
        let from = record.len();
        if r.read_line(record)? == 0 {
            break;
        }
        lines += 1;
        open ^= odd_quotes(&record[from..]);
    }
    let len = record.trim_end_matches(['\n', '\r']).len();
    record.truncate(len);
    Ok(if open {
        Extent::Unterminated(lines)
    } else {
        Extent::Lines(lines)
    })
}

/// Parses one field. A quoted `Str` field is literal text unless it
/// spells NULL; everything else goes through [`Value::parse`].
fn parse_field(raw: &str, quoted: bool, dtype: DataType) -> Result<Value> {
    if quoted && dtype == DataType::Str && !Value::is_null_token(raw) {
        Ok(Value::Str(raw.to_owned()))
    } else {
        Value::parse(raw, dtype)
    }
}

fn check_arity(fields: usize, schema: &Schema) -> Result<()> {
    if fields != schema.len() {
        return Err(Error::SchemaMismatch {
            detail: format!("CSV row has {fields} fields, schema has {}", schema.len()),
        });
    }
    Ok(())
}

/// One field of a split record: its byte range into the text it was
/// split from, and whether any part of it was quoted.
type FieldSpan = (usize, usize, bool);

/// Splits and parses records, reusing its buffers from one record to
/// the next.
#[derive(Debug, Default)]
pub(crate) struct RecordParser {
    /// Unescaped text of the fields of the last quoted record.
    text: String,
    /// The last record's fields, indexing the record itself (unquoted)
    /// or `text` (quoted).
    fields: Vec<FieldSpan>,
}

impl RecordParser {
    /// Parses one record (without its line terminator) against the
    /// schema. Errors come in order: an unterminated quote, the arity,
    /// then the first value that does not parse.
    pub(crate) fn parse(&mut self, record: &str, schema: &Schema) -> Result<Tuple> {
        let (text, fields) = self.split(record)?;
        check_arity(fields.len(), schema)?;
        let mut values = Vec::with_capacity(schema.len());
        for (&(start, end, quoted), f) in fields.iter().zip(schema.fields()) {
            values.push(parse_field(&text[start..end], quoted, f.dtype)?);
        }
        Ok(Tuple::new(values))
    }

    /// Checks a header record against the schema's attribute names, in
    /// order.
    pub(crate) fn validate_header(&mut self, record: &str, schema: &Schema) -> Result<()> {
        let (text, fields) = self.split(record)?;
        let header: Vec<&str> = fields.iter().map(|&(s, e, _)| &text[s..e]).collect();
        let expected: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
        if header != expected {
            return Err(Error::SchemaMismatch {
                detail: format!("CSV header {header:?} does not match schema {expected:?}"),
            });
        }
        Ok(())
    }

    /// Splits `record` into its fields, returned with the text they
    /// index: the record itself when it holds no quote (fields are
    /// borrowed as they stand), else the state machine's unescaped copy.
    fn split<'a>(&'a mut self, record: &'a str) -> Result<(&'a str, &'a [FieldSpan])> {
        if self.split_unquoted(record) {
            Ok((record, &self.fields))
        } else {
            self.split_quoted(record)?;
            Ok((&self.text, &self.fields))
        }
    }

    /// The fast path: one scan records the field ranges of a record
    /// without quotes. Returns `false` at the first `"` — the record
    /// needs the state machine.
    fn split_unquoted(&mut self, record: &str) -> bool {
        self.fields.clear();
        let mut start = 0;
        for (i, &b) in record.as_bytes().iter().enumerate() {
            match b {
                b',' => {
                    self.fields.push((start, i, false));
                    start = i + 1;
                }
                b'"' => return false,
                _ => {}
            }
        }
        self.fields.push((start, record.len(), false));
        true
    }

    /// The RFC 4180 state machine: unescapes every field of `record`
    /// into `text`, recording where each lies. A `"` opens a quote
    /// anywhere outside one; inside, `""` is a literal quote and a lone
    /// `"` closes it.
    fn split_quoted(&mut self, record: &str) -> Result<()> {
        self.text.clear();
        self.fields.clear();
        let bytes = record.as_bytes();
        let (mut in_quotes, mut quoted) = (false, false);
        let mut field_start = 0;
        // Start of the literal run not yet copied into `text`; runs only
        // ever break at ASCII `"` or `,`, so every slice is on a char
        // boundary.
        let mut run = 0;
        let mut i = 0;
        while i < bytes.len() {
            match (in_quotes, bytes[i]) {
                (true, b'"') => {
                    self.text.push_str(&record[run..i]);
                    if bytes.get(i + 1) == Some(&b'"') {
                        self.text.push('"');
                        i += 1;
                    } else {
                        in_quotes = false;
                    }
                    run = i + 1;
                }
                (false, b'"') => {
                    self.text.push_str(&record[run..i]);
                    in_quotes = true;
                    quoted = true;
                    run = i + 1;
                }
                (false, b',') => {
                    self.text.push_str(&record[run..i]);
                    self.fields.push((field_start, self.text.len(), quoted));
                    field_start = self.text.len();
                    quoted = false;
                    run = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if in_quotes {
            return Err(Error::parse(record, "CSV record (unterminated quote)"));
        }
        self.text.push_str(&record[run..]);
        self.fields.push((field_start, self.text.len(), quoted));
        Ok(())
    }
}

/// Reads a CSV with a header line, parsing fields per the schema's
/// types. The header must name exactly the schema's attributes, in
/// order.
pub fn read_csv(r: &mut impl BufRead, schema: &Schema) -> Result<Vec<Tuple>> {
    let mut record = String::new();
    if read_record(r, &mut record)? == Extent::End {
        return Err(Error::parse("", "CSV header"));
    }
    let mut parser = RecordParser::default();
    parser.validate_header(&record, schema)?;
    let mut tuples = Vec::new();
    let mut row = 0usize;
    // A quote still open at end of input reaches the parser, which
    // reports it as an unterminated quote.
    while read_record(r, &mut record)? != Extent::End {
        if record.is_empty() {
            continue;
        }
        row += 1;
        tuples.push(parser.parse(&record, schema).map_err(|e| match e {
            // Shape errors name the offending row; parse errors already
            // echo the offending input verbatim.
            Error::SchemaMismatch { detail } => Error::SchemaMismatch {
                detail: format!("CSV row {row}: {detail}"),
            },
            other => other,
        })?);
    }
    Ok(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_types::{DataType, Timestamp};
    use std::io::Cursor;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("x", DataType::Float),
            ("label", DataType::Str),
        ])
        .unwrap()
    }

    fn sample() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Timestamp(Timestamp::from_ymd(2016, 2, 27).unwrap()),
                Value::Float(1.5),
                Value::Str("plain".into()),
            ]),
            Tuple::new(vec![
                Value::Timestamp(Timestamp::from_ymd(2016, 2, 28).unwrap()),
                Value::Null,
                Value::Str("with,comma and \"quotes\"".into()),
            ]),
        ]
    }

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &schema(), &sample()).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("Time,x,label\n"));
        assert!(text.contains(r#""with,comma and ""quotes""""#));
        let back = read_csv(&mut Cursor::new(buf), &schema()).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn null_round_trips_as_empty_field() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &schema(), &sample()).unwrap();
        let back = read_csv(&mut Cursor::new(buf), &schema()).unwrap();
        assert!(back[1].get(1).unwrap().is_null());
    }

    #[test]
    fn rejects_wrong_header() {
        let data = "a,b,c\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        let data = "Time,x,label\n2016-02-27 00:00:00,1.5\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn shape_errors_name_the_offending_row() {
        let data = "Time,x,label\n\
            2016-02-27 00:00:00,1.5,ok\n\
            2016-02-27 01:00:00,2.5\n";
        let err = read_csv(&mut Cursor::new(data.as_bytes()), &schema()).unwrap_err();
        assert!(
            err.to_string().contains("CSV row 2"),
            "error locates the bad row: {err}"
        );
    }

    #[test]
    fn rejects_unterminated_quote() {
        let data = "Time,x,label\n2016-02-27 00:00:00,1.5,\"broken\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn rejects_unparseable_value() {
        let data = "Time,x,label\n2016-02-27 00:00:00,not-a-number,ok\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn skips_blank_lines_and_handles_crlf() {
        let data = "Time,x,label\r\n2016-02-27 00:00:00,1.5,ok\r\n\r\n";
        let back = read_csv(&mut Cursor::new(data.as_bytes()), &schema()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].get(2).unwrap().as_str().unwrap(), "ok");
    }

    #[test]
    fn empty_file_errors() {
        assert!(read_csv(&mut Cursor::new(&b""[..]), &schema()).is_err());
    }

    /// The two regressions of the old line-at-a-time reader: a quoted
    /// line break failed with "unterminated quote", and an unquoted
    /// trailing CR was trimmed away with the line terminator.
    #[test]
    fn quoted_line_breaks_and_carriage_returns_round_trip() {
        let s = Schema::from_pairs([("Time", DataType::Timestamp), ("s", DataType::Str)]).unwrap();
        let tuples: Vec<Tuple> = ["two\nlines", "cr\r", "\r\n", "a\r\nb", " edge ", "plain"]
            .iter()
            .enumerate()
            .map(|(i, text)| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i as i64 * 1000)),
                    Value::Str((*text).into()),
                ])
            })
            .collect();
        let mut buf = Vec::new();
        write_csv(&mut buf, &s, &tuples).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("\"two\nlines\""), "LF quoted: {text:?}");
        assert!(text.contains("\"cr\r\"\n"), "CR quoted: {text:?}");
        assert!(text.ends_with(",plain\n"), "plain text unquoted: {text:?}");
        let back = read_csv(&mut Cursor::new(buf), &s).unwrap();
        assert_eq!(back, tuples);
    }

    #[test]
    fn crlf_files_keep_quoted_line_breaks() {
        let s = Schema::from_pairs([("Time", DataType::Timestamp), ("s", DataType::Str)]).unwrap();
        let data = "Time,s\r\n2016-02-27 00:00:00,\"one\r\ntwo\"\r\n";
        let back = read_csv(&mut Cursor::new(data.as_bytes()), &s).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].get(1).unwrap().as_str(), Some("one\r\ntwo"));
    }

    #[test]
    fn unterminated_quote_spanning_to_eof_is_an_error() {
        let data = "Time,x,label\n2016-02-27 00:00:00,1.5,\"open\nstill open\n";
        let err = read_csv(&mut Cursor::new(data.as_bytes()), &schema()).unwrap_err();
        assert!(err.to_string().contains("unterminated quote"), "{err}");
        // A stray quote before many good rows: an error, echoing only the
        // start of the swallowed text.
        let mut data = String::from("Time,x,label\n2016-02-27 00:00:00,1.5,\"stray\n");
        for _ in 0..1000 {
            data.push_str("2016-02-27 01:00:00,2.5,fine\n");
        }
        let err = read_csv(&mut Cursor::new(data.as_bytes()), &schema())
            .unwrap_err()
            .to_string();
        assert!(err.contains("unterminated quote"), "{err}");
        assert!(err.len() < 160, "{err}");
    }

    #[test]
    fn arity_is_checked_before_values_on_both_parsers() {
        // A short record with an unparseable value reports the arity,
        // quoted or not.
        for row in ["bad-date,1.5", "bad-date,\"1.5\""] {
            let data = format!("Time,x,label\n{row}\n");
            let err = read_csv(&mut Cursor::new(data.as_bytes()), &schema()).unwrap_err();
            assert!(
                err.to_string()
                    .contains("CSV row 1: CSV row has 2 fields, schema has 3"),
                "{row}: {err}"
            );
        }
    }

    #[test]
    fn quoted_null_tokens_stay_null() {
        let data = "Time,x,label\n2016-02-27 00:00:00,\"NA\",\"NA\"\n";
        let back = read_csv(&mut Cursor::new(data.as_bytes()), &schema()).unwrap();
        assert!(back[0].get(1).unwrap().is_null());
        assert!(back[0].get(2).unwrap().is_null());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn all_types() -> Schema {
            Schema::from_pairs([
                ("Time", DataType::Timestamp),
                ("i", DataType::Int),
                ("x", DataType::Float),
                ("b", DataType::Bool),
                ("s", DataType::Str),
                ("t", DataType::Str),
            ])
            .unwrap()
        }

        /// Text built from the characters that stress the codec: commas,
        /// quotes, CR, LF and spaces among plain letters.
        const HOSTILE_TEXT: &str = "[ab ,\"\r\n\u{e9}]{0,12}";

        /// Unquoted text: no quote, and no line break (a record is one
        /// line unless a quote is open).
        const UNQUOTED_RECORD: &str = "[a-c ,.0-9]{0,30}";

        /// One row over [`all_types`]; `b` picks NULL, `true` or `false`.
        fn row(
            (ts, i): (i64, Option<i64>),
            (x, b): (Option<f64>, u8),
            s: String,
            t: String,
        ) -> Tuple {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(ts)),
                i.map_or(Value::Null, Value::Int),
                x.map_or(Value::Null, Value::Float),
                match b {
                    0 => Value::Null,
                    b => Value::Bool(b == 1),
                },
                Value::Str(s),
                Value::Str(t),
            ])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `write_csv` → `read_csv` is the identity on every value
            /// type, whatever commas, quotes, CRs, LFs and spaces the
            /// text holds. Only the empty string reads back as NULL
            /// (the alphabet cannot spell another NULL token).
            #[test]
            fn write_then_read_is_the_identity(
                rows in proptest::collection::vec(
                    (
                        (0i64..4_000_000_000_000, proptest::option::of(i64::MIN..i64::MAX)),
                        (proptest::option::of(-1e12f64..1e12), 0u8..3),
                        HOSTILE_TEXT,
                        HOSTILE_TEXT,
                    ),
                    0..20,
                )
            ) {
                let schema = all_types();
                let tuples: Vec<Tuple> = rows.into_iter().map(|(a, b, s, t)| row(a, b, s, t)).collect();
                let expected: Vec<Tuple> = tuples
                    .iter()
                    .map(|t| {
                        Tuple::new(
                            t.values()
                                .iter()
                                .map(|v| match v {
                                    Value::Str(s) if s.is_empty() => Value::Null,
                                    v => v.clone(),
                                })
                                .collect(),
                        )
                    })
                    .collect();
                let mut buf = Vec::new();
                write_csv(&mut buf, &schema, &tuples).unwrap();
                let back = read_csv(&mut Cursor::new(buf), &schema).unwrap();
                prop_assert_eq!(back, expected);
            }

            /// On a record without quotes the borrowed-field fast path
            /// and the RFC 4180 state machine split identically.
            #[test]
            fn fast_and_quoted_parsers_agree_on_unquoted_records(record in UNQUOTED_RECORD) {
                let mut parser = RecordParser::default();
                prop_assert!(parser.split_unquoted(&record));
                let fast: Vec<(String, bool)> = parser
                    .fields
                    .iter()
                    .map(|&(s, e, q)| (record[s..e].to_string(), q))
                    .collect();
                parser.split_quoted(&record).unwrap();
                let slow: Vec<(String, bool)> = parser
                    .fields
                    .iter()
                    .map(|&(s, e, q)| (parser.text[s..e].to_string(), q))
                    .collect();
                prop_assert_eq!(&fast, &slow);
                prop_assert!(fast.iter().all(|(_, quoted)| !quoted));
                prop_assert_eq!(fast.len(), record.split(',').count());
            }
        }
    }
}
