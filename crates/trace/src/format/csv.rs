//! SNIA-style CSV trace format.
//!
//! One record per line:
//!
//! ```text
//! timestamp_us,op,lba,sectors[,issue_us,complete_us]
//! ```
//!
//! * `timestamp_us` — block-layer arrival, fractional microseconds;
//! * `op` — `R` or `W`;
//! * `lba`, `sectors` — integers (512-byte units);
//! * `issue_us`, `complete_us` — optional device-side timestamps
//!   (present for `Tsdev`-known traces, both or neither).
//!
//! Lines starting with `#` and blank lines are ignored. The writer emits a
//! commented header. A timestamp whose nanoseconds do not fit in `u64`
//! is a parse error, never a saturated value.
//!
//! # Integer-exact codec
//!
//! Timestamps are stored as integer nanoseconds, so both directions skip
//! the `f64` round trip whenever it cannot change the result:
//!
//! * **Decode.** A line whose fields are all canonical — a timestamp of
//!   the form `digits{1,12}[.digits{1,3}]`, an op of exactly `R` or `W`,
//!   decimal `lba`/`sectors` that fit their types with non-zero sectors
//!   and an extent `lba + sectors` that fits in `u64`, and (with timing)
//!   completion no earlier than issue — converts straight to integers.
//!   Every other line (whitespace, `+`, exponents, more than 3 fraction
//!   digits, 13+ integer digits, `r`/`read`, zero sectors, overflowing
//!   extents, inverted timing, comments, blanks) takes the general `f64` parser,
//!   which owns every error message and line number. The two paths agree
//!   on every canonical line: its timestamps are below 10^15 ns, where
//!   `(f64 parse × 1000).round()` lands within 0.2 ns of the exact value
//!   (the parsed µs value is off by at most 2^-14 µs, about 0.06 ns, and
//!   rounding the product adds at most 2^-4 ns), so it rounds to it.
//! * **Encode.** Below 10^15 ns a timestamp is rendered as `ns / 1000`,
//!   `.`, `ns % 1000` padded to 3 digits. There the `f64` quotient
//!   `as_usecs_f64()` is within 2^-12 µs of exact — far from any
//!   3-decimal rounding boundary — so this is byte-identical to
//!   `{:.3}` of it. At or above the bound the writer keeps `{:.3}`. Each
//!   chunk is rendered into one reused buffer and written with a single
//!   `write_all`.

use std::io::{self, BufRead, Write};

use crate::error::TraceError;
use crate::op::OpType;
use crate::record::{BlockRecord, ServiceTiming};
use crate::sink::{drain_trace, RecordSink};
use crate::source::{collect_source, RecordSource, DEFAULT_CHUNK};
use crate::time::SimInstant;
use crate::trace::{Trace, TraceMeta};

/// Serialises `trace` to CSV — a thin whole-trace drain over [`CsvSink`],
/// so streaming and whole-trace serialisation are byte-identical by
/// construction.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the writer fails. A `&mut Vec<u8>` or
/// `&mut File` can be passed for `w` (writers are taken by value per
/// C-RW-VALUE; pass `&mut w` to retain ownership).
///
/// # Examples
///
/// ```
/// use tt_trace::{format::csv, BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)],
/// );
/// let mut buf = Vec::new();
/// csv::write_csv(&trace, &mut buf)?;
/// let text = String::from_utf8(buf).unwrap();
/// assert!(text.contains("3.000,R,0,8"));
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn write_csv<W: Write>(trace: &Trace, w: W) -> Result<(), TraceError> {
    let mut sink = CsvSink::new(w, trace.meta().name.clone());
    drain_trace(trace, &mut sink, DEFAULT_CHUNK)?;
    Ok(())
}

/// Streaming CSV writer: accepts records chunk by chunk ([`RecordSink`]
/// impl) and emits exactly the bytes [`write_csv`] would for the same
/// records (property-tested).
///
/// The commented header is written before the first record (or at
/// [`RecordSink::finish`] for empty streams).
///
/// # Examples
///
/// ```
/// use tt_trace::format::csv::CsvSink;
/// use tt_trace::sink::RecordSink;
/// use tt_trace::{BlockRecord, OpType, time::SimInstant};
///
/// let mut out = Vec::new();
/// let mut sink = CsvSink::new(&mut out, "demo");
/// sink.push_chunk(&[BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)])?;
/// sink.finish()?;
/// assert!(String::from_utf8(out).unwrap().contains("3.000,R,0,8"));
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct CsvSink<W> {
    writer: W,
    name: String,
    header_written: bool,
    buf: Vec<u8>,
}

impl<W: Write> CsvSink<W> {
    /// Creates a sink writing to `writer`; `name` goes into the commented
    /// header (the trace name [`write_csv`] records).
    pub fn new(writer: W, name: impl Into<String>) -> Self {
        CsvSink {
            writer,
            name: name.into(),
            header_written: false,
            buf: Vec::new(),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn ensure_header(&mut self) -> Result<(), TraceError> {
        if !self.header_written {
            writeln!(self.writer, "# trace: {}", self.name)?;
            writeln!(
                self.writer,
                "# timestamp_us,op,lba,sectors[,issue_us,complete_us]"
            )?;
            self.header_written = true;
        }
        Ok(())
    }
}

impl<W: Write> RecordSink for CsvSink<W> {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        self.ensure_header()?;
        let buf = &mut self.buf;
        buf.clear();
        for rec in records {
            push_usecs(buf, rec.arrival);
            buf.extend_from_slice(&[b',', rec.op.code() as u8, b',']);
            push_uint(buf, rec.lba);
            buf.push(b',');
            push_uint(buf, u64::from(rec.sectors));
            if let Some(t) = rec.timing {
                buf.push(b',');
                push_usecs(buf, t.issue);
                buf.push(b',');
                push_usecs(buf, t.complete);
            }
            buf.push(b'\n');
        }
        self.writer.write_all(buf)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.ensure_header()?;
        self.writer.flush()?;
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "csv"
    }
}

/// Parses a CSV trace from `r`.
///
/// Records are sorted by arrival if the file is out of order.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with the offending line number on malformed
/// input, or [`TraceError::Io`] on read failure.
///
/// # Examples
///
/// ```
/// use tt_trace::format::csv;
///
/// let text = "# header\n10.5,R,100,8\n20.0,W,200,16,21.0,95.5\n";
/// let trace = csv::read_csv(text.as_bytes(), "demo")?;
/// assert_eq!(trace.len(), 2);
/// assert!(trace.get(1).unwrap().timing.is_some());
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn read_csv<R: BufRead + Send>(r: R, name: &str) -> Result<Trace, TraceError> {
    let mut source = CsvSource::new(r);
    collect_source(
        &mut source,
        TraceMeta::named(name).with_source("csv"),
        DEFAULT_CHUNK,
    )
}

/// Streaming CSV reader: yields parsed records chunk by chunk without
/// materialising the file ([`RecordSource`] impl).
///
/// # Examples
///
/// ```
/// use tt_trace::format::csv::CsvSource;
/// use tt_trace::source::RecordSource;
///
/// let text = "1.0,R,0,8\n2.0,W,8,16\n";
/// let mut source = CsvSource::new(text.as_bytes());
/// let mut buf = Vec::new();
/// assert_eq!(source.next_chunk(&mut buf, 1)?, 1);
/// assert_eq!(source.next_chunk(&mut buf, 10)?, 1);
/// assert_eq!(source.next_chunk(&mut buf, 10)?, 0);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct CsvSource<R> {
    reader: R,
    line: Vec<u8>,
    lineno: usize,
}

impl<R: BufRead> CsvSource<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        CsvSource {
            reader,
            line: Vec::new(),
            lineno: 0,
        }
    }
}

impl<R: BufRead + Send> RecordSource for CsvSource<R> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        while appended < max {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                break;
            }
            if let Some(rec) = parse_canonical(&self.line) {
                self.lineno += 1;
                out.push(rec);
                appended += 1;
                continue;
            }
            // Like `read_line`, a line that is not UTF-8 is an I/O error
            // and does not count towards the line numbers.
            let text = std::str::from_utf8(&self.line).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            self.lineno += 1;
            let trimmed = text.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            out.push(parse_line(trimmed, self.lineno)?);
            appended += 1;
        }
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        "csv"
    }
}

fn parse_line(line: &str, lineno: usize) -> Result<BlockRecord, TraceError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 4 && fields.len() != 6 {
        return Err(TraceError::parse_at(
            format!("expected 4 or 6 fields, got {}", fields.len()),
            lineno,
        ));
    }

    let arrival = parse_usecs(fields[0], "timestamp_us", lineno)?;
    let op = fields[1]
        .parse()
        .map_err(|_| TraceError::parse_at(format!("bad op {:?}", fields[1]), lineno))?;
    let lba: u64 = fields[2]
        .parse()
        .map_err(|_| TraceError::parse_at(format!("bad lba {:?}", fields[2]), lineno))?;
    let sectors: u32 = fields[3]
        .parse()
        .map_err(|_| TraceError::parse_at(format!("bad sectors {:?}", fields[3]), lineno))?;
    if sectors == 0 {
        return Err(TraceError::parse_at("sectors must be non-zero", lineno));
    }
    if !BlockRecord::extent_fits(lba, sectors) {
        return Err(TraceError::parse_at(
            format!("extent lba {lba} + {sectors} sectors overflows the LBA space"),
            lineno,
        ));
    }

    let mut rec = BlockRecord::new(arrival, lba, sectors, op);
    if fields.len() == 6 {
        let issue = parse_usecs(fields[4], "issue_us", lineno)?;
        let complete = parse_usecs(fields[5], "complete_us", lineno)?;
        if complete < issue {
            return Err(TraceError::parse_at("completion precedes issue", lineno));
        }
        rec = rec.with_timing(ServiceTiming::new(issue, complete));
    }
    Ok(rec)
}

fn parse_usecs(field: &str, what: &str, lineno: usize) -> Result<SimInstant, TraceError> {
    let us: f64 = field
        .parse()
        .map_err(|_| TraceError::parse_at(format!("bad {what} {field:?}"), lineno))?;
    if !us.is_finite() || us < 0.0 {
        return Err(TraceError::parse_at(
            format!("{what} must be finite and non-negative"),
            lineno,
        ));
    }
    let ns = (us * 1_000.0).round();
    if ns >= U64_LIMIT {
        return Err(TraceError::parse_at(
            format!("{what} {field:?} overflows u64 nanoseconds"),
            lineno,
        ));
    }
    Ok(SimInstant::from_nanos(ns as u64))
}

/// 2^64 as `f64`: the smallest float whose conversion to `u64` would
/// saturate.
pub(crate) const U64_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// Timestamps below this many nanoseconds take the integer codec; see the
/// module docs for why it is exact there.
const EXACT_NS: u64 = 1_000_000_000_000_000;

/// Parses a line whose fields are all canonical (see the module docs)
/// straight to integers, or returns `None` so the caller falls back to
/// [`parse_line`]. `line` may still end in `\n` or `\r\n`.
fn parse_canonical(line: &[u8]) -> Option<BlockRecord> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let mut fields = line.split(|&b| b == b',');
    let arrival = canonical_usecs(fields.next()?)?;
    let op = match fields.next()? {
        b"R" => OpType::Read,
        b"W" => OpType::Write,
        _ => return None,
    };
    let lba = canonical_uint(fields.next()?)?;
    let sectors = u32::try_from(canonical_uint(fields.next()?)?)
        .ok()
        .filter(|&s| s != 0 && BlockRecord::extent_fits(lba, s))?;
    let rec = BlockRecord::new(arrival, lba, sectors, op);
    match (fields.next(), fields.next(), fields.next()) {
        (None, _, _) => Some(rec),
        (Some(issue), Some(complete), None) => {
            let issue = canonical_usecs(issue)?;
            let complete = canonical_usecs(complete)?;
            (complete >= issue).then(|| rec.with_timing(ServiceTiming::new(issue, complete)))
        }
        _ => None,
    }
}

/// A non-empty run of ASCII digits that fits in `u64`.
fn canonical_uint(field: &[u8]) -> Option<u64> {
    if field.is_empty() {
        return None;
    }
    field.iter().try_fold(0u64, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// A timestamp of the form `digits{1,12}[.digits{1,3}]`, in exact
/// nanoseconds (always below [`EXACT_NS`]).
fn canonical_usecs(field: &[u8]) -> Option<SimInstant> {
    let (int, frac) = match field.iter().position(|&b| b == b'.') {
        Some(dot) => (&field[..dot], &field[dot + 1..]),
        None => (field, &b"000"[..]),
    };
    if int.len() > 12 || frac.is_empty() || frac.len() > 3 {
        return None;
    }
    let scale = [100, 10, 1][frac.len() - 1];
    let ns = canonical_uint(int)? * 1_000 + canonical_uint(frac)? * scale;
    Some(SimInstant::from_nanos(ns))
}

/// Appends `ns` as fractional microseconds with 3 decimals — exactly what
/// `{:.3}` of [`SimInstant::as_usecs_f64`] prints.
fn push_usecs(buf: &mut Vec<u8>, t: SimInstant) {
    let ns = t.as_nanos();
    if ns >= EXACT_NS {
        buf.extend_from_slice(format!("{:.3}", t.as_usecs_f64()).as_bytes());
        return;
    }
    push_uint(buf, ns / 1_000);
    let frac = ns % 1_000;
    buf.extend_from_slice(&[
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
}

/// Appends `v` in decimal.
fn push_uint(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn sample_trace() -> Trace {
        let recs = vec![
            BlockRecord::new(SimInstant::from_usecs(0), 100, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(250), 500, 16, OpType::Write).with_timing(
                ServiceTiming::new(SimInstant::from_usecs(251), SimInstant::from_usecs(400)),
            ),
        ];
        Trace::from_records(TraceMeta::named("t"), recs)
    }

    #[test]
    fn round_trip_preserves_records() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let back = read_csv(buf.as_slice(), "t").unwrap();
        assert_eq!(back.records(), trace.records());
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# c\n\n1.0,R,0,8\n  \n";
        let t = read_csv(text.as_bytes(), "x").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reports_line_numbers() {
        let text = "1.0,R,0,8\nbogus line\n";
        let err = read_csv(text.as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn rejects_zero_sectors() {
        let err = read_csv("1.0,R,0,0\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("non-zero"));
    }

    #[test]
    fn rejects_overflowing_extents() {
        let max = u64::MAX;
        for line in [format!("0.000,R,{max},8"), format!("0.000,W,{},2", max - 1)] {
            let text = format!("1.0,R,0,8\n{line}\n");
            let err = read_csv(text.as_bytes(), "x").unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("line 2") && msg.contains("overflows"), "{msg}");
        }
        // The last sector of the LBA space is still addressable.
        let text = format!("0.000,R,{},8\n", max - 8);
        assert_eq!(read_csv(text.as_bytes(), "x").unwrap().len(), 1);
    }

    #[test]
    fn rejects_negative_timestamp() {
        let err = read_csv("-1.0,R,0,8\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("non-negative"));
    }

    #[test]
    fn rejects_out_of_range_timestamps() {
        for text in [
            "1.0,R,0,8\n1e300,W,8,8\n",
            "1.0,R,0,8\n2.0,W,8,8,3.0,18446744073709552\n",
        ] {
            let err = read_csv(text.as_bytes(), "x").unwrap_err();
            assert!(err.to_string().contains("line 2"), "{err}");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
        // Just below 2^64 ns still loads.
        let t = read_csv("18446744073709000,R,0,8\n".as_bytes(), "x").unwrap();
        assert!(t.get(0).unwrap().arrival.as_nanos() > 18_446_744_073_000_000_000);
    }

    #[test]
    fn canonical_and_general_parsers_agree() {
        let lines = [
            "0,R,0,1",
            "7.5,W,18446744069414584320,4294967295",
            "999999999999.999,R,1,8,999999999999.999,999999999999.999",
            "000012.010,W,0010,08,13.1,14",
            "1.0,R,0,8\r\n",
        ];
        for line in lines {
            let fast = parse_canonical(line.as_bytes()).expect(line);
            assert_eq!(fast, parse_line(line.trim(), 1).unwrap(), "{line}");
        }
        // Non-canonical spellings fall back to the general parser.
        for line in [
            " 1.0,R,0,8",
            "+1.0,R,0,8",
            "1e3,R,0,8",
            "1.0001,R,0,8",
            "1.,R,0,8",
            ".5,R,0,8",
            "1000000000000,R,0,8",
            "1.0,r,0,8",
            "1.0,R,+0,8",
            "1.0,R,0,0",
            "1.0,R,0,4294967296",
            "1.0,R,18446744073709551616,8",
            "1.0,R,18446744073709551615,1",
            "1.0,R,0,8,5.0,2.0",
            "1.0,R,0,8,",
            "1.0,R,0,8,1.0",
        ] {
            assert_eq!(parse_canonical(line.as_bytes()), None, "{line}");
        }
    }

    #[test]
    fn non_utf8_line_is_an_io_error() {
        let err = read_csv(&b"1.0,R,0,8\n\xff,R,0,8\n"[..], "x").unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "{err}");
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn rejects_inverted_timing() {
        let err = read_csv("1.0,R,0,8,5.0,2.0\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("precedes"));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = read_csv("1.0,R,0\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("4 or 6"));
    }

    #[test]
    fn sorts_out_of_order_input() {
        let text = "20.0,R,0,8\n10.0,W,0,8\n";
        let t = read_csv(text.as_bytes(), "x").unwrap();
        assert_eq!(t.inter_arrival(0).unwrap(), SimDuration::from_usecs(10));
        assert!(t.get(0).unwrap().op.is_write());
    }

    #[test]
    fn sub_microsecond_precision_survives() {
        let text = "1.234,R,0,8\n";
        let t = read_csv(text.as_bytes(), "x").unwrap();
        assert_eq!(t.get(0).unwrap().arrival.as_nanos(), 1_234);
    }
}
