//! Streaming CSV I/O: lazy [`Source`]/[`Sink`] adapters so a pollution
//! job can read and persist streams without materializing them first —
//! the input/output edges of the paper's Fig. 2 pipeline.

use crate::csv::{self, Extent, RecordParser};
use icewafl_stream::{Sink, Source};
use icewafl_types::{Result, Schema, Tuple};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Lazily parses tuples from CSV. The header is validated at
/// construction; malformed data rows are counted and skipped (dirty
/// inputs are this library's business, after all) — check
/// [`CsvTupleSource::bad_rows_handle`] after the run. Records share
/// [`read_csv`](crate::read_csv)'s codec, so a quoted field may span
/// line breaks; a malformed record counts every line it spans.
///
/// A quote still open at end of input fails the run instead: the
/// record it opened swallowed every line after it, and skipping them
/// as one bad record would truncate the stream with a success.
pub struct CsvTupleSource<R> {
    reader: R,
    schema: Schema,
    record: String,
    parser: RecordParser,
    /// Lines consumed so far, the header included.
    lines: usize,
    bad_rows: Arc<AtomicUsize>,
}

impl<R: BufRead + Send> CsvTupleSource<R> {
    /// Opens a source over `reader`, validating the header against the
    /// schema.
    pub fn new(mut reader: R, schema: Schema) -> Result<Self> {
        let mut record = String::new();
        let lines = match csv::read_record(&mut reader, &mut record)? {
            Extent::End => return Err(icewafl_types::Error::parse("", "CSV header")),
            Extent::Lines(n) | Extent::Unterminated(n) => n,
        };
        let mut parser = RecordParser::default();
        parser.validate_header(&record, &schema)?;
        Ok(CsvTupleSource {
            reader,
            schema,
            record,
            parser,
            lines,
            bad_rows: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// A shared counter of skipped malformed rows (lines of malformed
    /// records), usable after the source has been consumed by a
    /// pipeline.
    pub fn bad_rows_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.bad_rows)
    }
}

impl<R: BufRead + Send> Source<Tuple> for CsvTupleSource<R> {
    fn next(&mut self) -> Option<Tuple> {
        loop {
            let first_line = self.lines + 1;
            let lines = match csv::read_record(&mut self.reader, &mut self.record) {
                Ok(Extent::End) => return None,
                Ok(Extent::Lines(n)) => n,
                // Like an I/O error below, this is no dirty row: poison
                // the pipeline rather than end the stream early.
                Ok(Extent::Unterminated(n)) => panic!(
                    "CSV source: the quote opened on line {first_line} is never closed \
                     ({n} lines to end of input)"
                ),
                // An I/O error is not a dirty row — ending the stream
                // here would silently truncate it. Poison the pipeline
                // instead: the panic is caught by the stage harness and
                // surfaced as a typed `Error::Pipeline` naming the
                // source.
                Err(e) => panic!("CSV source I/O error: {e}"),
            };
            self.lines += lines;
            if self.record.is_empty() {
                continue;
            }
            match self.parser.parse(&self.record, &self.schema) {
                Ok(tuple) => return Some(tuple),
                Err(_) => {
                    self.bad_rows.fetch_add(lines, Ordering::Relaxed);
                    continue;
                }
            }
        }
    }
}

/// Writes tuples as CSV, emitting the header up front; records share
/// [`write_csv`](crate::write_csv)'s encoder.
pub struct CsvTupleSink<W> {
    writer: W,
    schema: Schema,
    line: String,
    wrote_header: bool,
}

impl<W: Write + Send> CsvTupleSink<W> {
    /// Creates a sink; the header is written before the first record.
    pub fn new(writer: W, schema: Schema) -> Self {
        CsvTupleSink {
            writer,
            schema,
            line: String::new(),
            wrote_header: false,
        }
    }

    fn write_header(&mut self) {
        self.line.clear();
        csv::encode_header(&mut self.line, &self.schema);
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            panic!("CSV sink I/O error writing header: {e}");
        }
        self.wrote_header = true;
    }
}

impl<W: Write + Send> Sink<Tuple> for CsvTupleSink<W> {
    fn write(&mut self, record: Tuple) {
        if !self.wrote_header {
            self.write_header();
        }
        self.line.clear();
        csv::encode_record(&mut self.line, record.values());
        // A swallowed write error would truncate the dirty stream with a
        // success exit code; panic instead — the sink stage catches it
        // and fails the run with a typed error.
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            panic!("CSV sink I/O error: {e}");
        }
    }

    fn finish(&mut self) {
        if !self.wrote_header {
            self.write_header();
        }
        if let Err(e) = self.writer.flush() {
            panic!("CSV sink I/O error on flush: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_stream::prelude::*;
    use icewafl_types::{DataType, Timestamp, Value};
    use std::io::Cursor;
    use std::sync::Mutex;

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    const CSV: &str = "Time,x\n\
        2016-02-27 00:00:00,1.5\n\
        2016-02-27 01:00:00,\n\
        2016-02-27 02:00:00,3.5\n";

    #[test]
    fn source_streams_tuples_lazily() {
        let src = CsvTupleSource::new(Cursor::new(CSV.as_bytes()), schema()).unwrap();
        let out = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get(1).unwrap(), &Value::Float(1.5));
        assert!(out[1].get(1).unwrap().is_null());
    }

    #[test]
    fn source_skips_malformed_rows_and_counts_them() {
        let csv = "Time,x\nnot-a-date,oops\n2016-02-27 00:00:00,2.0\nbad,row,extra\n";
        let src = CsvTupleSource::new(Cursor::new(csv.as_bytes()), schema()).unwrap();
        let bad = src.bad_rows_handle();
        let out = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(bad.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn source_rejects_wrong_header() {
        assert!(CsvTupleSource::new(Cursor::new(&b"a,b\n"[..]), schema()).is_err());
        assert!(CsvTupleSource::new(Cursor::new(&b""[..]), schema()).is_err());
    }

    /// A Write impl sharing its buffer so the test can inspect it after
    /// the sink was consumed by the pipeline.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_round_trips_through_a_pipeline() {
        let buf = SharedBuf::default();
        let src = CsvTupleSource::new(Cursor::new(CSV.as_bytes()), schema()).unwrap();
        DataStream::from_source(src, WatermarkStrategy::none())
            .execute_into(CsvTupleSink::new(buf.clone(), schema()))
            .unwrap();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(written, CSV);
    }

    #[test]
    fn empty_stream_still_writes_header() {
        let buf = SharedBuf::default();
        DataStream::from_vec(Vec::<Tuple>::new())
            .execute_into(CsvTupleSink::new(buf.clone(), schema()))
            .unwrap();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(written, "Time,x\n");
    }

    #[test]
    fn source_to_sink_with_transformation() {
        let buf = SharedBuf::default();
        let src = CsvTupleSource::new(Cursor::new(CSV.as_bytes()), schema()).unwrap();
        DataStream::from_source(src, WatermarkStrategy::none())
            .map(|mut t: Tuple| {
                if let Some(x) = t.get(1).and_then(Value::as_f64) {
                    t.replace(1, Value::Float(x * 2.0));
                }
                t
            })
            .execute_into(CsvTupleSink::new(buf.clone(), schema()))
            .unwrap();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(written.contains(",3\n"), "1.5 doubled: {written}");
        assert!(written.contains(",7\n"), "3.5 doubled: {written}");
    }

    /// A writer that fails every write (a full disk, a closed pipe).
    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_io_error_poisons_the_pipeline_with_a_typed_failure() {
        let tuples = vec![Tuple::new(vec![
            Value::Timestamp(Timestamp(0)),
            Value::Float(1.0),
        ])];
        let err = DataStream::from_vec(tuples)
            .execute_into(CsvTupleSink::new(FailingWriter, schema()))
            .unwrap_err();
        assert_eq!(err.stage(), "sink");
        assert!(
            err.error.message.contains("CSV sink I/O error"),
            "typed failure carries the I/O detail: {err}"
        );
    }

    /// A reader that serves some valid CSV, then fails mid-stream.
    struct FailingReader;
    impl std::io::Read for FailingReader {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("connection reset"))
        }
    }

    #[test]
    fn source_io_error_poisons_the_pipeline_instead_of_truncating() {
        let head = "Time,x\n2016-02-27 00:00:00,1.5\n";
        let reader =
            std::io::BufReader::new(std::io::Read::chain(Cursor::new(head), FailingReader));
        let src = CsvTupleSource::new(reader, schema()).unwrap();
        let err = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap_err();
        assert!(
            err.error.message.contains("CSV source I/O error"),
            "mid-stream I/O failure is a typed error, not a short read: {err}"
        );
    }

    #[test]
    fn stray_quote_left_open_fails_the_run_instead_of_truncating() {
        let csv = "Time,x\n\
            2016-02-27 00:00:00,1.5\n\
            2016-02-27 01:00:00,\"2.5\n\
            2016-02-27 02:00:00,3.5\n\
            2016-02-27 03:00:00,4.5\n";
        let src = CsvTupleSource::new(Cursor::new(csv.as_bytes()), schema()).unwrap();
        let err = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap_err();
        assert!(
            err.error
                .message
                .contains("quote opened on line 3 is never closed (3 lines to end of input)"),
            "{err}"
        );
    }

    #[test]
    fn malformed_multi_line_record_counts_every_line_it_spans() {
        // Two stray quotes pair up across lines 3–5 into one record whose
        // second field is no float: its three lines are the bad rows.
        let csv = "Time,x\n\
            2016-02-27 00:00:00,1.5\n\
            2016-02-27 01:00:00,\"2.5\n\
            2016-02-27 02:00:00,3.5\n\
            2016-02-27 03:00:00,4\"5\n\
            2016-02-27 04:00:00,5.5\n";
        let src = CsvTupleSource::new(Cursor::new(csv.as_bytes()), schema()).unwrap();
        let bad = src.bad_rows_handle();
        let out = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].get(1).unwrap(), &Value::Float(5.5));
        assert_eq!(bad.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn round_trip_with_quoted_strings() {
        let s = Schema::from_pairs([("Time", DataType::Timestamp), ("s", DataType::Str)]).unwrap();
        let tuples = vec![Tuple::new(vec![
            Value::Timestamp(Timestamp(0)),
            Value::Str("a,\"b\"".into()),
        ])];
        let buf = SharedBuf::default();
        DataStream::from_vec(tuples.clone())
            .execute_into(CsvTupleSink::new(buf.clone(), s.clone()))
            .unwrap();
        let written = buf.0.lock().unwrap().clone();
        let src = CsvTupleSource::new(Cursor::new(written), s).unwrap();
        let back = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(back, tuples);
    }

    #[test]
    fn source_reads_quoted_line_breaks_and_carriage_returns() {
        let s = Schema::from_pairs([("Time", DataType::Timestamp), ("s", DataType::Str)]).unwrap();
        let tuples: Vec<Tuple> = ["two\nlines", "cr\r", "crlf\r\ninside", " padded "]
            .iter()
            .enumerate()
            .map(|(i, text)| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i as i64 * 1000)),
                    Value::Str((*text).into()),
                ])
            })
            .collect();
        let buf = SharedBuf::default();
        DataStream::from_vec(tuples.clone())
            .execute_into(CsvTupleSink::new(buf.clone(), s.clone()))
            .unwrap();
        let written = buf.0.lock().unwrap().clone();
        let src = CsvTupleSource::new(Cursor::new(written), s).unwrap();
        let bad = src.bad_rows_handle();
        let back = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(back, tuples);
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Good records (`ok == 1`) stream through and every bad one — wrong
            /// arity or an unparseable value, anywhere in the input — is
            /// counted and skipped, never ending the stream early.
            #[test]
            fn source_counts_and_skips_bad_rows(
                rows in proptest::collection::vec((0u8..2, 0u8..3, -1e6f64..1e6), 0..40)
            ) {
                let mut csv = String::from("Time,x\n");
                let mut good = Vec::new();
                for (i, (ok, kind, x)) in rows.iter().enumerate() {
                    let ts = Timestamp(i as i64 * 1000);
                    if *ok == 1 {
                        csv.push_str(&format!("{ts},{x}\n"));
                        good.push(Tuple::new(vec![Value::Timestamp(ts), Value::Float(*x)]));
                    } else {
                        csv.push_str(match kind {
                            0 => "2016-02-27 00:00:00,1.5,extra\n",
                            1 => "not-a-date,1.5\n",
                            _ => "2016-02-27 00:00:00,\"not a float\"\n",
                        });
                    }
                }
                let src = CsvTupleSource::new(Cursor::new(csv.into_bytes()), schema()).unwrap();
                let bad = src.bad_rows_handle();
                let back = DataStream::from_source(src, WatermarkStrategy::none())
                    .collect()
                    .unwrap();
                prop_assert_eq!(back, good);
                prop_assert_eq!(
                    bad.load(Ordering::Relaxed),
                    rows.iter().filter(|(ok, _, _)| *ok == 0).count()
                );
            }
        }
    }
}
