//! TTB — the workspace's native **binary columnar** trace format.
//!
//! CSV parsing dominates reload-heavy workflows: every re-analysis of a
//! multi-GB trace pays full text tokenisation again. TTB serialises the
//! columnar [`TraceStore`] layout directly, so loading is a validated bulk
//! read straight into the struct-of-arrays columns — no per-record text
//! parsing, no row materialisation. Convert once
//! (`tt-cli convert trace.csv trace.ttb`), reload many times at memory-copy
//! speed.
//!
//! # Layout
//!
//! All integers are little-endian. A file is a header, column *blocks*,
//! and a mandatory end-of-stream trailer:
//!
//! ```text
//! header:
//!   magic    [u8; 4]  = "TTB1"
//!   version  u16      = 2   (version 1 files are still read)
//!   reserved u16      = 0
//!   name_len u32, name [u8; name_len]   (UTF-8 trace name)
//! block (repeated):
//!   count      u32    records in this block (> 0)
//!   timing_tag u8     0 = untimed, 1 = all timed, 2 = mixed
//!   pad        0–7 zero bytes (v2) aligning `arrivals` to 8 in the file
//!   arrivals   count × u64   (nanoseconds)
//!   lbas       count × u64
//!   sectors    count × u32
//!   ops        count × u8    (0 = read, 1 = write)
//!   timing_tag 1: pad 0–7 zero bytes (v2), then
//!                 issues count × u64, completes count × u64
//!   timing_tag 2: presence bitmap ⌈count/8⌉ bytes (LSB-first), then
//!                 issue u64 + complete u64 per *timed* record, in order
//! trailer:
//!   count = 0  u32    the end-of-stream marker (blocks are never empty)
//!   total      u64    records in the whole file (validated on read)
//! ```
//!
//! Blocks let the streaming endpoints work without `Seek`: [`TtbSink`]
//! writes each pushed chunk as one block, [`TtbSource`] decodes one block
//! at a time, and the whole-trace fast paths ([`write_ttb`] /
//! [`read_ttb`]) move column slices in bulk. Files written with different
//! chunk sizes differ in block boundaries but decode to identical traces —
//! round-trip identity is at the record level (property-tested:
//! `CSV → TTB → CSV` is byte-identical at any chunk size).
//!
//! Version 2 adds the alignment pads (computed from the absolute file
//! offset, so reader and writer always agree) purely to serve the
//! **zero-copy mapped view**: with every machine-word column starting on
//! its natural boundary, [`MmapTrace`] can validate a single-block file
//! once and lend its columns straight out of the page cache as typed
//! slices ([`Columns`]) — no bulk copy, O(1) resident growth for the load
//! step. Version 1 files (and multi-block or otherwise unmappable v2
//! files) stay fully readable everywhere; the mapped view transparently
//! falls back to the copying decode for them.
//!
//! Corrupt input is rejected, never decoded into garbage records — by the
//! bulk reader, the streaming source, *and* the mapped view alike: the
//! magic, version, and reserved bytes are checked, truncation anywhere —
//! including a cut landing exactly on a block boundary, which the trailer's
//! record count catches — yields a "truncated TTB file" parse error naming
//! the missing section, trailing bytes after the trailer are rejected, and
//! decoded values are validated (op bytes, non-zero sectors, timing
//! ordering, plausible block sizes, zero pads) before any record is built.

use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;

use crate::error::TraceError;
use crate::op::OpType;
use crate::record::{BlockRecord, ServiceTiming};
use crate::sink::RecordSink;
use crate::source::RecordSource;
use crate::store::{Columns, TraceStore};
use crate::time::SimInstant;
use crate::trace::{Trace, TraceMeta};

/// The four magic bytes opening every TTB file (a brand, not a version —
/// the version lives in the header field that follows).
pub const MAGIC: [u8; 4] = *b"TTB1";

/// The newest format version this build writes (and reads, alongside every
/// earlier one down to version 1).
pub const VERSION: u16 = 2;

/// Records per block written by the whole-trace fast path
/// ([`write_ttb`]); bounds the scratch memory of block-at-a-time readers.
pub const WRITE_BLOCK: usize = 1 << 20;

/// Upper bound accepted for a block's record count — far above any block
/// this crate writes; counts beyond it mean a corrupt or hostile file and
/// are rejected before any allocation.
const MAX_BLOCK_RECORDS: u32 = 1 << 27;

/// Upper bound accepted for the header's name length.
const MAX_NAME_BYTES: u32 = 1 << 12;

const TIMING_NONE: u8 = 0;
const TIMING_ALL: u8 = 1;
const TIMING_MIXED: u8 = 2;

/// Serialises `trace` to TTB, moving the columnar store out in bulk — no
/// row is ever assembled. Blocks hold up to [`WRITE_BLOCK`] records.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the writer fails.
///
/// # Examples
///
/// ```
/// use tt_trace::{format::ttb, BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)],
/// );
/// let mut buf = Vec::new();
/// ttb::write_ttb(&trace, &mut buf)?;
/// let back = ttb::read_ttb(buf.as_slice(), "demo")?;
/// assert_eq!(back.records(), trace.records());
/// assert_eq!(back.meta().source, "ttb");
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn write_ttb<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceError> {
    let mut pos = write_header(&mut w, &trace.meta().name)?;
    let store = trace.columns();
    let timings = store.timing_column();
    let mut start = 0;
    while start < store.len() {
        let end = store.len().min(start + WRITE_BLOCK);
        let block_timings = if timings.is_empty() {
            &[]
        } else {
            &timings[start..end]
        };
        pos += write_block(
            &mut w,
            pos,
            &store.arrivals()[start..end],
            &store.lbas()[start..end],
            &store.sectors()[start..end],
            &store.ops()[start..end],
            block_timings,
        )?;
        start = end;
    }
    write_trailer(&mut w, store.len() as u64)?;
    w.flush()?;
    Ok(())
}

/// Parses a TTB trace from `r`, bulk-reading each block's columns straight
/// into the store. `name` is recorded in the trace metadata (the file's
/// embedded name is provenance only, matching the CSV reader's contract).
///
/// # Errors
///
/// Returns [`TraceError::Format`] on a bad magic, unsupported version, or
/// non-zero reserved bytes, [`TraceError::Parse`] on truncation or corrupt
/// block contents, and [`TraceError::Io`] on read failure.
pub fn read_ttb<R: Read>(r: R, name: &str) -> Result<Trace, TraceError> {
    let mut r = CountingReader::new(r);
    let (_, version) = read_header(&mut r)?;
    let mut arrivals = Vec::new();
    let mut lbas = Vec::new();
    let mut sectors = Vec::new();
    let mut ops = Vec::new();
    let mut timings: Vec<Option<ServiceTiming>> = Vec::new();
    let mut scratch = Vec::new();
    loop {
        let block = match read_block(&mut r, &mut scratch, version)? {
            Decoded::End { total } => {
                check_trailer_total(total, arrivals.len() as u64)?;
                ensure_eof(&mut r)?;
                break;
            }
            Decoded::Block(block) => block,
        };
        let before = arrivals.len();
        arrivals.extend_from_slice(&block.arrivals);
        lbas.extend_from_slice(&block.lbas);
        sectors.extend_from_slice(&block.sectors);
        ops.extend_from_slice(&block.ops);
        match block.timings {
            Some(t) => {
                // First timed block after untimed ones: backfill.
                if timings.is_empty() && before > 0 {
                    timings.resize(before, None);
                }
                timings.extend_from_slice(&t);
            }
            None => {
                if !timings.is_empty() {
                    timings.resize(before + block.arrivals.len(), None);
                }
            }
        }
    }
    let store = TraceStore::from_columns(arrivals, lbas, sectors, ops, timings)
        .map_err(|e| TraceError::parse(format!("corrupt TTB file: {e}")))?;
    Ok(Trace::from_store(
        TraceMeta::named(name).with_source("ttb"),
        store,
    ))
}

impl Trace {
    /// Serialises the trace to TTB — the columnar fast path; see
    /// [`write_ttb`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the writer fails.
    pub fn write_ttb<W: Write>(&self, w: W) -> Result<(), TraceError> {
        write_ttb(self, w)
    }

    /// Parses a TTB trace — the columnar fast path; see [`read_ttb`].
    ///
    /// # Errors
    ///
    /// Propagates [`read_ttb`]'s errors.
    pub fn read_ttb<R: Read>(r: R, name: &str) -> Result<Trace, TraceError> {
        read_ttb(r, name)
    }
}

/// Writes the file header, returning its length in bytes (the position
/// the first block starts at — block pads are computed from it).
fn write_header<W: Write>(w: &mut W, name: &str) -> Result<u64, TraceError> {
    // Over-long names are truncated on a char boundary — cutting a
    // multi-byte character in half would write a file the reader then
    // rejects as non-UTF-8.
    let mut cut = name.len().min(MAX_NAME_BYTES as usize);
    while !name.is_char_boundary(cut) {
        cut -= 1;
    }
    let name_bytes = &name.as_bytes()[..cut];
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u16.to_le_bytes())?;
    w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
    w.write_all(name_bytes)?;
    Ok(12 + name_bytes.len() as u64)
}

/// Copies (up to) `N` bytes into a fixed array for a `from_le_bytes`
/// decode — the panic-free replacement for `try_into().expect(..)` on
/// slices that `chunks_exact`/`take` already sized. A short slice (which
/// those callers rule out) zero-extends instead of aborting.
fn le_bytes<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(bytes) {
        *o = *b;
    }
    out
}

/// Zero bytes needed to advance `pos` to the next 8-byte boundary.
fn pad8(pos: u64) -> usize {
    ((8 - pos % 8) % 8) as usize
}

/// Writes one block from column slices (`timings` empty = untimed block).
/// `pos` is the block's absolute file offset — the v2 alignment pads are a
/// pure function of it, so readers recompute them exactly. Returns the
/// bytes written.
fn write_block<W: Write>(
    w: &mut W,
    pos: u64,
    arrivals: &[SimInstant],
    lbas: &[u64],
    sectors: &[u32],
    ops: &[OpType],
    timings: &[Option<ServiceTiming>],
) -> Result<u64, TraceError> {
    const ZERO_PAD: [u8; 7] = [0; 7];
    debug_assert!(!arrivals.is_empty() && arrivals.len() <= MAX_BLOCK_RECORDS as usize);
    let n = arrivals.len();
    let timed = timings.iter().filter(|t| t.is_some()).count();
    let tag = match timed {
        0 => TIMING_NONE,
        t if t == n => TIMING_ALL,
        _ => TIMING_MIXED,
    };
    w.write_all(&(n as u32).to_le_bytes())?;
    w.write_all(&[tag])?;
    // The v2 pad that 8-aligns the arrival column in the file.
    let pad = pad8(pos + 4 + 1);
    w.write_all(&ZERO_PAD[..pad])?;

    let mut buf = Vec::with_capacity(n * 8);
    for a in arrivals {
        buf.extend_from_slice(&a.as_nanos().to_le_bytes());
    }
    for l in lbas {
        buf.extend_from_slice(&l.to_le_bytes());
    }
    for s in sectors {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    for op in ops {
        buf.push(u8::from(op.is_write()));
    }
    match tag {
        TIMING_ALL => {
            // Re-align for the issue/complete u64 columns (the
            // arrivals..ops section is 21n bytes, any residue mod 8).
            buf.resize(buf.len() + pad8(buf.len() as u64), 0);
            // The writer chose TIMING_ALL because every record is timed,
            // so flatten visits all n entries.
            for t in timings.iter().flatten() {
                buf.extend_from_slice(&t.issue.as_nanos().to_le_bytes());
            }
            for t in timings.iter().flatten() {
                buf.extend_from_slice(&t.complete.as_nanos().to_le_bytes());
            }
        }
        TIMING_MIXED => {
            let mut bitmap = vec![0u8; n.div_ceil(8)];
            for (i, t) in timings.iter().enumerate() {
                if t.is_some() {
                    bitmap[i / 8] |= 1 << (i % 8);
                }
            }
            buf.extend_from_slice(&bitmap);
            for t in timings.iter().flatten() {
                buf.extend_from_slice(&t.issue.as_nanos().to_le_bytes());
                buf.extend_from_slice(&t.complete.as_nanos().to_le_bytes());
            }
        }
        _ => {}
    }
    w.write_all(&buf)?;
    Ok(4 + 1 + pad as u64 + buf.len() as u64)
}

/// The end-of-stream trailer: a zero block count (blocks are never empty)
/// followed by the file's total record count.
fn write_trailer<W: Write>(w: &mut W, total: u64) -> Result<(), TraceError> {
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&total.to_le_bytes())?;
    Ok(())
}

/// Validates the trailer's record count against what was actually decoded
/// — the check that catches files truncated exactly on a block boundary.
fn check_trailer_total(total: u64, decoded: u64) -> Result<(), TraceError> {
    if total != decoded {
        return Err(TraceError::parse(format!(
            "truncated TTB file: trailer records {total} records but {decoded} were decoded"
        )));
    }
    Ok(())
}

/// Rejects bytes after the end-of-stream trailer.
fn ensure_eof(r: &mut impl Read) -> Result<(), TraceError> {
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => Ok(()),
        Ok(_) => Err(TraceError::parse(
            "corrupt TTB stream: trailing data after the end-of-stream trailer",
        )),
        Err(e) => Err(TraceError::Io(e.to_string())),
    }
}

/// What [`read_block`] found next in the stream.
enum Decoded {
    /// A column block.
    Block(DecodedBlock),
    /// The end-of-stream trailer carrying the file's total record count.
    End {
        /// Total records the writer claims the file holds.
        total: u64,
    },
}

/// One decoded block: validated columns ready for bulk appends.
#[derive(Debug)]
struct DecodedBlock {
    arrivals: Vec<SimInstant>,
    lbas: Vec<u64>,
    sectors: Vec<u32>,
    ops: Vec<OpType>,
    /// `None` = untimed block; `Some` is exactly one entry per record.
    timings: Option<Vec<Option<ServiceTiming>>>,
}

impl DecodedBlock {
    fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Assembles record `i` (used by the streaming [`TtbSource`]).
    fn record(&self, i: usize) -> BlockRecord {
        BlockRecord {
            arrival: self.arrivals[i],
            lba: self.lbas[i],
            sectors: self.sectors[i],
            op: self.ops[i],
            timing: self.timings.as_ref().and_then(|t| t[i]),
        }
    }
}

/// Reads exactly `buf.len()` bytes, turning short reads into a clear
/// truncation error naming `what`.
fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::parse(format!(
                "truncated TTB file: unexpected end of data while reading {what}"
            ))
        } else {
            TraceError::Io(e.to_string())
        }
    })
}

/// A reader that tracks its absolute position — the v2 alignment pads are
/// a function of the file offset, which plain `Read` does not expose.
#[derive(Debug)]
struct CountingReader<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> CountingReader<R> {
    fn new(inner: R) -> Self {
        CountingReader { inner, pos: 0 }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Consumes a v2 alignment pad at the reader's current position and
/// rejects non-zero pad bytes (they can only mean corruption). No-op for
/// version-1 streams, which carry no pads.
fn skip_pad<R: Read>(r: &mut CountingReader<R>, version: u16) -> Result<(), TraceError> {
    if version < 2 {
        return Ok(());
    }
    let mut pad = [0u8; 7];
    let take = pad8(r.pos);
    read_exact(r, &mut pad[..take], "an alignment pad")?;
    if pad[..take].iter().any(|&b| b != 0) {
        return Err(TraceError::parse(
            "corrupt TTB block: non-zero alignment padding",
        ));
    }
    Ok(())
}

/// Validates the header, returning the embedded trace name and the file's
/// format version.
fn read_header(r: &mut impl Read) -> Result<(String, u16), TraceError> {
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic, "the magic bytes")?;
    if magic != MAGIC {
        return Err(TraceError::format(format!(
            "not a TTB file: magic bytes {magic:?} (expected {MAGIC:?})"
        )));
    }
    let mut u16buf = [0u8; 2];
    read_exact(r, &mut u16buf, "the version")?;
    let version = u16::from_le_bytes(u16buf);
    if version == 0 || version > VERSION {
        return Err(TraceError::format(format!(
            "unsupported TTB version {version} (this build reads versions 1-{VERSION}); \
             re-convert the trace or upgrade"
        )));
    }
    read_exact(r, &mut u16buf, "the reserved bytes")?;
    if u16::from_le_bytes(u16buf) != 0 {
        return Err(TraceError::format(
            "corrupt TTB header: reserved bytes are not zero",
        ));
    }
    let mut u32buf = [0u8; 4];
    read_exact(r, &mut u32buf, "the name length")?;
    let name_len = u32::from_le_bytes(u32buf);
    if name_len > MAX_NAME_BYTES {
        return Err(TraceError::format(format!(
            "corrupt TTB header: implausible name length {name_len}"
        )));
    }
    let mut name = vec![0u8; name_len as usize];
    read_exact(r, &mut name, "the trace name")?;
    let name = String::from_utf8(name)
        .map_err(|_| TraceError::format("corrupt TTB header: trace name is not UTF-8"))?;
    Ok((name, version))
}

/// Decodes the next block or the end-of-stream trailer. `scratch` is a
/// reusable byte buffer for the bulk column reads; `version` selects the
/// pad handling (v2 aligns its machine-word columns).
fn read_block<R: Read>(
    r: &mut CountingReader<R>,
    scratch: &mut Vec<u8>,
    version: u16,
) -> Result<Decoded, TraceError> {
    let mut u32buf = [0u8; 4];
    read_exact(
        r,
        &mut u32buf,
        "a block record count (or the end-of-stream trailer)",
    )?;
    let n = u32::from_le_bytes(u32buf);
    if n == 0 {
        // The trailer: zero count + total record count.
        let mut u64buf = [0u8; 8];
        read_exact(r, &mut u64buf, "the end-of-stream trailer")?;
        return Ok(Decoded::End {
            total: u64::from_le_bytes(u64buf),
        });
    }
    if n > MAX_BLOCK_RECORDS {
        return Err(TraceError::parse(format!(
            "corrupt TTB block: implausible record count {n}"
        )));
    }
    let n = n as usize;
    let mut tag = [0u8; 1];
    read_exact(r, &mut tag, "a block timing tag")?;
    let tag = tag[0];
    if tag > TIMING_MIXED {
        return Err(TraceError::parse(format!(
            "corrupt TTB block: unknown timing tag {tag}"
        )));
    }
    skip_pad(r, version)?;

    let mut arrivals: Vec<SimInstant> = Vec::new();
    read_column(r, scratch, n * 8, "the arrival column", |bytes| {
        arrivals.extend(u64s(bytes).map(SimInstant::from_nanos));
        Ok(())
    })?;

    let mut lbas: Vec<u64> = Vec::new();
    read_column(r, scratch, n * 8, "the LBA column", |bytes| {
        lbas.extend(u64s(bytes));
        Ok(())
    })?;

    let mut sectors: Vec<u32> = Vec::new();
    read_column(r, scratch, n * 4, "the sector column", |bytes| {
        for c in bytes.chunks_exact(4) {
            let s = u32::from_le_bytes(le_bytes::<4>(c));
            let i = sectors.len();
            if s == 0 {
                return Err(TraceError::parse(format!(
                    "corrupt TTB block: zero-sector record at block offset {i}"
                )));
            }
            if !BlockRecord::extent_fits(lbas[i], s) {
                return Err(overflowing_extent(i));
            }
            sectors.push(s);
        }
        Ok(())
    })?;

    let mut ops: Vec<OpType> = Vec::new();
    read_column(r, scratch, n, "the op column", |bytes| {
        for &b in bytes {
            ops.push(match b {
                0 => OpType::Read,
                1 => OpType::Write,
                other => {
                    return Err(TraceError::parse(format!(
                        "corrupt TTB block: unknown op byte {other} at block offset {}",
                        ops.len()
                    )))
                }
            });
        }
        Ok(())
    })?;

    let timings = match tag {
        TIMING_ALL => {
            skip_pad(r, version)?;
            let mut issues: Vec<u64> = Vec::new();
            read_column(r, scratch, n * 8, "the issue column", |bytes| {
                issues.extend(u64s(bytes));
                Ok(())
            })?;
            let mut col = Vec::new();
            read_column(r, scratch, n * 8, "the completion column", |bytes| {
                for complete in u64s(bytes) {
                    let i = col.len();
                    col.push(Some(decode_timing(issues[i], complete, i)?));
                }
                Ok(())
            })?;
            Some(col)
        }
        TIMING_MIXED => {
            let mut bitmap: Vec<u8> = Vec::new();
            read_column(r, scratch, n.div_ceil(8), "the timing bitmap", |bytes| {
                bitmap.extend_from_slice(bytes);
                Ok(())
            })?;
            let timed: Vec<usize> = (0..n)
                .filter(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
                .collect();
            let mut pair = [0u8; 16];
            let mut col = vec![None; n];
            for &i in &timed {
                read_exact(r, &mut pair, "a timing pair")?;
                let issue = u64::from_le_bytes(le_bytes::<8>(&pair[..8]));
                let complete = u64::from_le_bytes(le_bytes::<8>(&pair[8..]));
                col[i] = Some(decode_timing(issue, complete, i)?);
            }
            Some(col)
        }
        _ => None,
    };

    Ok(Decoded::Block(DecodedBlock {
        arrivals,
        lbas,
        sectors,
        ops,
        timings,
    }))
}

/// Upper bound on one scratch read while decoding a column (a multiple of
/// 8 so u64 columns chunk cleanly).
const READ_CHUNK_BYTES: usize = 1 << 20;

/// Reads a `total`-byte column section in bounded pieces, handing each to
/// `consume`. Output vectors grow only as data actually arrives, so a
/// corrupt block count advertising gigabytes that the file does not
/// contain fails with a truncation error after at most one bounded
/// buffer — it cannot drive a huge up-front allocation.
fn read_column(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
    total: usize,
    what: &str,
    mut consume: impl FnMut(&[u8]) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut remaining = total;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK_BYTES);
        scratch.resize(take, 0);
        read_exact(r, scratch, what)?;
        consume(&scratch[..take])?;
        remaining -= take;
    }
    Ok(())
}

/// Decodes a byte slice (length a multiple of 8) as little-endian u64s.
fn u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(le_bytes::<8>(c)))
}

/// The error for a record whose extent `lba + sectors` overflows `u64`.
fn overflowing_extent(i: usize) -> TraceError {
    TraceError::parse(format!(
        "corrupt TTB block: LBA extent overflows u64 at block offset {i}"
    ))
}

/// Validates a decoded timing pair ([`ServiceTiming::new`] would panic on
/// inverted input, which corrupt files must not be able to trigger).
fn decode_timing(issue: u64, complete: u64, i: usize) -> Result<ServiceTiming, TraceError> {
    if complete < issue {
        return Err(TraceError::parse(format!(
            "corrupt TTB block: completion precedes issue at block offset {i}"
        )));
    }
    Ok(ServiceTiming {
        issue: SimInstant::from_nanos(issue),
        complete: SimInstant::from_nanos(complete),
    })
}

/// Streaming TTB reader: decodes one block at a time and yields its
/// records chunk by chunk ([`RecordSource`] impl), holding at most one
/// block's **columns** in memory — the adapter that lets TTB flow through
/// every record-at-a-time consumer (`pump`, replay, the `Pipeline`
/// stages).
///
/// The decode is incremental at the record level: rows are assembled
/// straight from the decoded block columns as each chunk is pulled,
/// never buffered as a whole-block row vector. Per-block scratch is
/// therefore the columns alone (~29 bytes/record) rather than columns
/// plus rows (~77 bytes/record) — the bound that makes larger
/// [`WRITE_BLOCK`] sizes viable for streaming consumers.
///
/// Whole-trace loads should prefer [`read_ttb`], which appends the decoded
/// columns in bulk and never assembles rows.
///
/// # Examples
///
/// ```
/// use tt_trace::format::ttb::{self, TtbSource};
/// use tt_trace::source::RecordSource;
/// use tt_trace::{BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(1), 0, 8, OpType::Read)],
/// );
/// let mut buf = Vec::new();
/// ttb::write_ttb(&trace, &mut buf)?;
///
/// let mut source = TtbSource::new(buf.as_slice());
/// let mut out = Vec::new();
/// assert_eq!(source.next_chunk(&mut out, 16)?, 1);
/// assert_eq!(source.next_chunk(&mut out, 16)?, 0);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TtbSource<R> {
    reader: CountingReader<R>,
    /// The header's format version, once it has been read.
    version: Option<u16>,
    /// Set once the end-of-stream trailer validated.
    finished: bool,
    /// Records yielded so far, checked against the trailer's total.
    yielded: u64,
    /// The current decoded block's columns, and the next record index to
    /// assemble out of them.
    block: Option<(DecodedBlock, usize)>,
    scratch: Vec<u8>,
}

impl<R: Read> TtbSource<R> {
    /// Wraps a reader positioned at the start of a TTB file.
    pub fn new(reader: R) -> Self {
        TtbSource {
            reader: CountingReader::new(reader),
            version: None,
            finished: false,
            yielded: 0,
            block: None,
            scratch: Vec::new(),
        }
    }
}

impl<R: Read + Send> RecordSource for TtbSource<R> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let version = match self.version {
            Some(v) => v,
            None => {
                let (_, v) = read_header(&mut self.reader)?;
                self.version = Some(v);
                v
            }
        };
        let mut appended = 0;
        while appended < max && !self.finished {
            if self
                .block
                .as_ref()
                .is_none_or(|(block, pos)| *pos >= block.len())
            {
                match read_block(&mut self.reader, &mut self.scratch, version)? {
                    Decoded::Block(block) => self.block = Some((block, 0)),
                    Decoded::End { total } => {
                        check_trailer_total(total, self.yielded)?;
                        ensure_eof(&mut self.reader)?;
                        self.finished = true;
                        break;
                    }
                }
            }
            // Assemble records on demand straight from the block columns —
            // no whole-block row vector is ever built. The refill above
            // either installed a block or finished the stream (break).
            let Some((block, pos)) = self.block.as_mut() else {
                break;
            };
            let take = (block.len() - *pos).min(max - appended);
            out.reserve(take);
            for i in *pos..*pos + take {
                out.push(block.record(i));
            }
            *pos += take;
            appended += take;
            self.yielded += take as u64;
        }
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        "ttb"
    }
}

/// Streaming TTB writer: each pushed chunk becomes one column block
/// ([`RecordSink`] impl). Chunk size therefore shapes block boundaries —
/// files written at different chunk sizes differ in bytes but decode to
/// identical traces. [`write_ttb`] is byte-identical to draining through
/// this sink at [`WRITE_BLOCK`] records per chunk (property-tested).
///
/// # Examples
///
/// ```
/// use tt_trace::format::ttb::{self, TtbSink};
/// use tt_trace::sink::RecordSink;
/// use tt_trace::{BlockRecord, OpType, time::SimInstant};
///
/// let mut buf = Vec::new();
/// let mut sink = TtbSink::new(&mut buf, "demo");
/// sink.push_chunk(&[BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)])?;
/// sink.finish()?;
/// assert_eq!(ttb::read_ttb(buf.as_slice(), "demo")?.len(), 1);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TtbSink<W> {
    writer: W,
    name: String,
    header_written: bool,
    /// Records written so far — recorded in the end-of-stream trailer.
    written: u64,
    /// Absolute file position — block alignment pads depend on it.
    pos: u64,
    // Reused column scratch buffers, so steady-state pushes do not allocate.
    arrivals: Vec<SimInstant>,
    lbas: Vec<u64>,
    sectors: Vec<u32>,
    ops: Vec<OpType>,
    timings: Vec<Option<ServiceTiming>>,
}

impl<W: Write> TtbSink<W> {
    /// Creates a sink writing to `writer`; `name` goes into the header
    /// (the trace name [`write_ttb`] records).
    pub fn new(writer: W, name: impl Into<String>) -> Self {
        TtbSink {
            writer,
            name: name.into(),
            header_written: false,
            written: 0,
            pos: 0,
            arrivals: Vec::new(),
            lbas: Vec::new(),
            sectors: Vec::new(),
            ops: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn ensure_header(&mut self) -> Result<(), TraceError> {
        if !self.header_written {
            self.pos = write_header(&mut self.writer, &self.name)?;
            self.header_written = true;
        }
        Ok(())
    }
}

impl<W: Write> RecordSink for TtbSink<W> {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        self.ensure_header()?;
        // Oversized pushes are split so no block exceeds what readers (and
        // MAX_BLOCK_RECORDS validation) expect to buffer.
        for piece in records.chunks(WRITE_BLOCK) {
            self.arrivals.clear();
            self.lbas.clear();
            self.sectors.clear();
            self.ops.clear();
            self.timings.clear();
            for rec in piece {
                self.arrivals.push(rec.arrival);
                self.lbas.push(rec.lba);
                self.sectors.push(rec.sectors);
                self.ops.push(rec.op);
                self.timings.push(rec.timing);
            }
            self.pos += write_block(
                &mut self.writer,
                self.pos,
                &self.arrivals,
                &self.lbas,
                &self.sectors,
                &self.ops,
                &self.timings,
            )?;
            self.written += piece.len() as u64;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.ensure_header()?;
        write_trailer(&mut self.writer, self.written)?;
        self.writer.flush()?;
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "ttb"
    }
}

/// A `.ttb` trace opened as a **read-only memory mapping** — the zero-copy
/// load path.
///
/// [`read_ttb`] pays one full copy of every column into heap `Vec`s on
/// every reload. `MmapTrace` maps the file instead, validates the
/// header/blocks/trailer **once** at open, and then lends the columns
/// straight out of the page cache as a borrowed [`Columns`] view — the
/// same view an owned [`TraceStore`] lends, so
/// grouping, statistics, inference, and schedule building run identically
/// on either (property-tested bit-identical).
///
/// # Zero-copy conditions and the fallback
///
/// The in-place view requires a **single-block** file (whole-column
/// contiguity) whose machine-word columns are 8-/4-byte aligned (TTB v2
/// pads guarantee this; see the module docs), already arrival-sorted, on a
/// little-endian target. Every file written by [`write_ttb`] /
/// [`Trace::write_ttb`] / `format::save_trace` with up to [`WRITE_BLOCK`]
/// records qualifies. Anything else — v1 files, multi-block streams,
/// unsorted blocks, big-endian hosts — transparently falls back to the
/// copying decode (exactly [`read_ttb`]'s result); [`MmapTrace::is_zero_copy`]
/// reports which path was taken. Timing columns are the one exception to
/// "no copy": their on-disk layout (split issue/complete columns or
/// bitmap + pairs) differs from the in-memory `Option<ServiceTiming>`
/// shape, so `Tsdev`-known traces pay an O(timed) decode of the timing
/// section only.
///
/// # Safety and corrupt input
///
/// All validation runs **before** any typed view exists: op bytes, sector
/// counts, timing order, pad bytes, the trailer's record total, and
/// trailing garbage are checked with bounds-checked reads, and the typed
/// casts themselves re-check alignment/length
/// ([`mmap::as_u64s`](crate::mmap::as_u64s)). Corrupt, truncated, or
/// tampered files are rejected with the same [`TraceError`]s the bulk
/// reader produces — never UB, never a garbage record. See
/// [`crate::mmap`] for the mapping-lifetime caveat shared by all mapped
/// I/O.
///
/// # Examples
///
/// ```
/// use tt_trace::format::ttb::MmapTrace;
/// use tt_trace::{BlockRecord, GroupedTrace, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)],
/// );
/// let path = std::env::temp_dir().join("tt_mmap_doc.ttb");
/// trace.write_ttb(std::fs::File::create(&path).unwrap()).unwrap();
///
/// let mapped = MmapTrace::open(&path)?;
/// assert!(mapped.is_zero_copy());
/// let grouped = GroupedTrace::build_columns(mapped.columns());
/// assert_eq!(grouped.total_members(), 1);
/// std::fs::remove_file(&path).ok();
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct MmapTrace {
    map: crate::mmap::Mmap,
    meta: TraceMeta,
    repr: Repr,
}

/// How the mapped trace stores its columns.
#[derive(Debug)]
enum Repr {
    /// Byte ranges into the map, validated and alignment-checked at open;
    /// timings (if any) decoded owned because their disk layout differs
    /// from the in-memory shape.
    Mapped {
        len: usize,
        arrivals: Range<usize>,
        lbas: Range<usize>,
        sectors: Range<usize>,
        ops: Range<usize>,
        timings: Vec<Option<ServiceTiming>>,
        timed: usize,
    },
    /// Copying-decode fallback (v1 / multi-block / unsorted / big-endian).
    Owned(TraceStore),
}

impl MmapTrace {
    /// Maps and validates the `.ttb` file at `path`. The trace name is the
    /// file stem, mirroring [`format::load_trace`](crate::format::load_trace).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the file cannot be opened or
    /// mapped, and the TTB validation errors ([`TraceError::Format`] /
    /// [`TraceError::Parse`]) for corrupt or truncated contents.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapTrace, TraceError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        let map = crate::mmap::Mmap::map_file(&file)?;
        MmapTrace::from_map(map, &crate::format::stem(path))
    }

    /// Validates an already-created mapping; `name` is recorded in the
    /// trace metadata (source `"ttb"`, matching [`read_ttb`]).
    ///
    /// # Errors
    ///
    /// The same validation errors as [`MmapTrace::open`].
    pub fn from_map(map: crate::mmap::Mmap, name: &str) -> Result<MmapTrace, TraceError> {
        let (map, repr) = match map_layout(map.bytes())? {
            Some(mapped) => (map, mapped),
            // Readable but not mappable in place: decode exactly as the
            // bulk reader would (including the arrival sort) — and drop
            // the mapping, which the owned columns never touch again
            // (keeping it would pin the raw file bytes next to the
            // decoded store, doubling the footprint).
            None => {
                let store = read_ttb(map.bytes(), name)?.into_store();
                (
                    crate::mmap::Mmap::from_bytes(Vec::new()),
                    Repr::Owned(store),
                )
            }
        };
        Ok(MmapTrace {
            map,
            meta: TraceMeta::named(name).with_source("ttb"),
            repr,
        })
    }

    /// The trace metadata (name from the open path or caller, source
    /// `"ttb"`).
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Mapped { len, .. } => *len,
            Repr::Owned(store) => store.len(),
        }
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the main columns are served from the mapping in place;
    /// `false` when the copying fallback decoded them.
    #[must_use]
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }

    /// The borrowed column view — feed it to
    /// [`GroupedTrace::build_columns`](crate::GroupedTrace::build_columns),
    /// `TraceStats::compute_columns`, `tt_core::infer_columns`, or the
    /// `tt_sim` schedule builders.
    #[must_use]
    pub fn columns(&self) -> Columns<'_> {
        match &self.repr {
            Repr::Owned(store) => store.view(),
            Repr::Mapped {
                len,
                arrivals,
                lbas,
                sectors,
                ops,
                timings,
                timed,
            } => {
                let bytes = self.map.bytes();
                // The casts re-check what open() validated; the mapping is
                // immutable and owned by self, so they cannot regress.
                let arrivals = SimInstant::slice_from_nanos(
                    crate::mmap::as_u64s(&bytes[arrivals.clone()])
                        // lint:allow(panic) -- open() proved this column aligned; the mapping is immutable, so the re-check cannot regress
                        .expect("column alignment validated at open"),
                );
                let lbas = crate::mmap::as_u64s(&bytes[lbas.clone()])
                    // lint:allow(panic) -- open() proved this column aligned; the mapping is immutable, so the re-check cannot regress
                    .expect("column alignment validated at open");
                let sectors = crate::mmap::as_u32s(&bytes[sectors.clone()])
                    // lint:allow(panic) -- open() proved this column aligned; the mapping is immutable, so the re-check cannot regress
                    .expect("column alignment validated at open");
                let ops = OpType::slice_from_bytes(&bytes[ops.clone()])
                    // lint:allow(panic) -- open() validated every op byte; the mapping is immutable, so the re-check cannot regress
                    .expect("op bytes validated at open");
                debug_assert_eq!(arrivals.len(), *len);
                Columns::from_raw_parts(arrivals, lbas, sectors, ops, timings, *timed)
            }
        }
    }

    /// Copies the mapped view into an owned [`Trace`] — the ownership
    /// fallback for consumers that must mutate (idle injection, transform
    /// stages).
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        match &self.repr {
            Repr::Owned(store) => Trace::from_store(self.meta.clone(), store.clone()),
            Repr::Mapped { .. } => Trace::from_store(self.meta.clone(), self.columns().to_store()),
        }
    }
}

/// A bounds-checked cursor over the mapped bytes, mirroring
/// [`read_exact`]'s truncation errors so the mapped and streamed paths
/// reject the same file with the same message.
struct MapCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MapCursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        if self.bytes.len() - self.pos < n {
            return Err(TraceError::parse(format!(
                "truncated TTB file: unexpected end of data while reading {what}"
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u32(&mut self, what: &str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(le_bytes::<4>(self.take(4, what)?)))
    }

    fn take_u64(&mut self, what: &str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(le_bytes::<8>(self.take(8, what)?)))
    }

    /// Consumes and validates a v2 alignment pad (see [`skip_pad`]).
    fn take_pad(&mut self, version: u16) -> Result<(), TraceError> {
        if version < 2 {
            return Ok(());
        }
        let pad = self.take(pad8(self.pos as u64), "an alignment pad")?;
        if pad.iter().any(|&b| b != 0) {
            return Err(TraceError::parse(
                "corrupt TTB block: non-zero alignment padding",
            ));
        }
        Ok(())
    }
}

/// Decodes a byte range (any alignment) as little-endian u64 timing halves.
fn unaligned_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(le_bytes::<8>(c)))
}

/// Walks a mapped TTB file and returns the in-place column layout, `None`
/// when the file is valid but not mappable in place (multi-block,
/// misaligned columns, unsorted arrivals, big-endian host — the caller
/// then runs the copying decode), or an error for corrupt/truncated input.
///
/// Every validation the bulk reader performs runs here too, on the same
/// strings, so a bad file is rejected identically under both paths.
#[allow(clippy::too_many_lines)]
fn map_layout(bytes: &[u8]) -> Result<Option<Repr>, TraceError> {
    // Header: reuse the streamed validation verbatim (&[u8] implements
    // Read), then pick the walk up at the consumed offset.
    let mut header = bytes;
    let (_, version) = read_header(&mut header)?;
    let mut cur = MapCursor {
        bytes,
        pos: bytes.len() - header.len(),
    };

    let n = cur.take_u32("a block record count (or the end-of-stream trailer)")?;
    if n == 0 {
        // An empty trace: trailer only.
        let total = cur.take_u64("the end-of-stream trailer")?;
        check_trailer_total(total, 0)?;
        if cur.pos != bytes.len() {
            return Err(TraceError::parse(
                "corrupt TTB stream: trailing data after the end-of-stream trailer",
            ));
        }
        return Ok(Some(Repr::Mapped {
            len: 0,
            arrivals: 0..0,
            lbas: 0..0,
            sectors: 0..0,
            ops: 0..0,
            timings: Vec::new(),
            timed: 0,
        }));
    }
    if n > MAX_BLOCK_RECORDS {
        return Err(TraceError::parse(format!(
            "corrupt TTB block: implausible record count {n}"
        )));
    }
    let n = n as usize;
    let tag = cur.take(1, "a block timing tag")?[0];
    if tag > TIMING_MIXED {
        return Err(TraceError::parse(format!(
            "corrupt TTB block: unknown timing tag {tag}"
        )));
    }
    cur.take_pad(version)?;

    let arrivals_start = cur.pos;
    let arrivals_bytes = cur.take(n * 8, "the arrival column")?;
    let lbas_start = cur.pos;
    let lbas_bytes = cur.take(n * 8, "the LBA column")?;
    let sectors_start = cur.pos;
    let sectors_bytes = cur.take(n * 4, "the sector column")?;
    let ops_start = cur.pos;
    let ops_bytes = cur.take(n, "the op column")?;

    // Content validation happens on the raw bytes, before any typed view,
    // so corrupt values are rejected even when the casts would later fail
    // on alignment. Op bytes first: they need no alignment.
    if let Some(bad) = ops_bytes.iter().position(|&b| b > 1) {
        return Err(TraceError::parse(format!(
            "corrupt TTB block: unknown op byte {} at block offset {bad}",
            ops_bytes[bad]
        )));
    }
    // Sectors: a zero-length request must be rejected under any alignment.
    if let Some(bad) = sectors_bytes
        .chunks_exact(4)
        .position(|c| c == [0, 0, 0, 0])
    {
        return Err(TraceError::parse(format!(
            "corrupt TTB block: zero-sector record at block offset {bad}"
        )));
    }
    if let Some(bad) = unaligned_u64s(lbas_bytes)
        .zip(sectors_bytes.chunks_exact(4))
        .position(|(lba, s)| !BlockRecord::extent_fits(lba, u32::from_le_bytes(le_bytes::<4>(s))))
    {
        return Err(overflowing_extent(bad));
    }

    // Timing section: always decoded owned (the disk layout differs from
    // the in-memory Option<ServiceTiming> shape), with the same value
    // validation as the streamed reader.
    let (timings, timed) = match tag {
        TIMING_ALL => {
            cur.take_pad(version)?;
            let issues = cur.take(n * 8, "the issue column")?;
            let completes = cur.take(n * 8, "the completion column")?;
            let mut col = Vec::with_capacity(n);
            for (i, (issue, complete)) in unaligned_u64s(issues)
                .zip(unaligned_u64s(completes))
                .enumerate()
            {
                col.push(Some(decode_timing(issue, complete, i)?));
            }
            (col, n)
        }
        TIMING_MIXED => {
            let bitmap = cur.take(n.div_ceil(8), "the timing bitmap")?;
            let timed_idx: Vec<usize> = (0..n)
                .filter(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
                .collect();
            let pairs = cur.take(timed_idx.len() * 16, "a timing pair")?;
            let mut col = vec![None; n];
            for (&i, pair) in timed_idx.iter().zip(pairs.chunks_exact(16)) {
                let issue = u64::from_le_bytes(le_bytes::<8>(&pair[..8]));
                let complete = u64::from_le_bytes(le_bytes::<8>(&pair[8..]));
                col[i] = Some(decode_timing(issue, complete, i)?);
            }
            let timed = timed_idx.len();
            // Normalise the all-None case exactly like
            // TraceStore::from_columns, so mapped and owned stores agree.
            if timed == 0 {
                (Vec::new(), 0)
            } else {
                (col, timed)
            }
        }
        _ => (Vec::new(), 0),
    };

    // Trailer next — a second data block means a multi-block file, which
    // cannot lend whole-column slices: fall back to the copying decode
    // (which also re-validates the remaining blocks).
    let next = cur.take_u32("a block record count (or the end-of-stream trailer)")?;
    if next != 0 {
        return Ok(None);
    }
    let total = cur.take_u64("the end-of-stream trailer")?;
    check_trailer_total(total, n as u64)?;
    if cur.pos != bytes.len() {
        return Err(TraceError::parse(
            "corrupt TTB stream: trailing data after the end-of-stream trailer",
        ));
    }

    // Structure and contents are valid. In-place viewing additionally
    // needs aligned machine-word columns (v1 files lack the pads), a
    // little-endian host, and arrival order (a read-only map cannot be
    // sorted) — otherwise decode.
    let Some(arrivals) = crate::mmap::as_u64s(arrivals_bytes) else {
        return Ok(None);
    };
    if crate::mmap::as_u32s(sectors_bytes).is_none() {
        return Ok(None);
    }
    if arrivals.windows(2).any(|w| w[0] > w[1]) {
        return Ok(None);
    }

    Ok(Some(Repr::Mapped {
        len: n,
        arrivals: arrivals_start..arrivals_start + n * 8,
        lbas: lbas_start..lbas_start + n * 8,
        sectors: sectors_start..sectors_start + n * 4,
        ops: ops_start..ops_start + n,
        timings,
        timed,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::drain_trace;
    use crate::source::collect_source;
    use crate::time::SimDuration;

    fn rec(us: u64, lba: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read)
    }

    fn timed(us: u64, lba: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, 16, OpType::Write).with_timing(
            ServiceTiming::new(
                SimInstant::from_usecs(us + 1),
                SimInstant::from_usecs(us + 90),
            ),
        )
    }

    fn sample(kind: &str) -> Trace {
        let recs = match kind {
            "untimed" => vec![rec(0, 100), rec(5, 108), rec(90, 4000)],
            "timed" => vec![timed(0, 100), timed(5, 108), timed(90, 4000)],
            _ => vec![rec(0, 100), timed(5, 108), rec(90, 4000), timed(95, 0)],
        };
        Trace::from_records(TraceMeta::named("t"), recs)
    }

    #[test]
    fn round_trips_all_timing_shapes() {
        for kind in ["untimed", "timed", "mixed"] {
            let trace = sample(kind);
            let mut buf = Vec::new();
            write_ttb(&trace, &mut buf).unwrap();
            let back = read_ttb(buf.as_slice(), "t").unwrap();
            assert_eq!(back.records(), trace.records(), "{kind}");
            assert_eq!(back.columns(), trace.columns(), "{kind}");
            assert_eq!(back.meta().name, "t");
            assert_eq!(back.meta().source, "ttb");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::with_meta(TraceMeta::named("empty"));
        let mut buf = Vec::new();
        write_ttb(&trace, &mut buf).unwrap();
        let back = read_ttb(buf.as_slice(), "empty").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn trace_methods_mirror_free_functions() {
        let trace = sample("mixed");
        let mut via_fn = Vec::new();
        write_ttb(&trace, &mut via_fn).unwrap();
        let mut via_method = Vec::new();
        trace.write_ttb(&mut via_method).unwrap();
        assert_eq!(via_method, via_fn);
        let back = Trace::read_ttb(via_method.as_slice(), "t").unwrap();
        assert_eq!(back.records(), trace.records());
    }

    #[test]
    fn source_streams_across_block_boundaries() {
        let recs: Vec<BlockRecord> = (0..100).map(|i| rec(i * 3, i * 8)).collect();
        let trace = Trace::from_records(TraceMeta::named("t"), recs);
        let mut buf = Vec::new();
        // Many small blocks via the sink.
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 7).unwrap();
        for chunk in [1usize, 3, 64, 1000] {
            let mut source = TtbSource::new(buf.as_slice());
            let back = collect_source(&mut source, trace.meta().clone(), chunk).unwrap();
            assert_eq!(back.records(), trace.records(), "chunk {chunk}");
        }
    }

    #[test]
    fn write_ttb_equals_sink_at_write_block_chunks() {
        let trace = sample("mixed");
        let mut whole = Vec::new();
        write_ttb(&trace, &mut whole).unwrap();
        let mut streamed = Vec::new();
        let mut sink = TtbSink::new(&mut streamed, "t");
        drain_trace(&trace, &mut sink, WRITE_BLOCK).unwrap();
        assert_eq!(streamed, whole);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_ttb(&b"NOPE00000000"[..], "t").unwrap_err();
        assert!(err.to_string().contains("not a TTB file"), "{err}");
    }

    #[test]
    fn rejects_future_version() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        buf[4] = 99;
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        assert!(err.to_string().contains("re-convert"), "{err}");
    }

    #[test]
    fn rejects_nonzero_reserved_bytes() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        buf[6] = 1;
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn rejects_truncation_everywhere() {
        // A two-block file, so the cuts include header boundaries, both
        // block interiors, the inter-block boundary, and the trailer.
        let trace = sample("mixed");
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 2).unwrap();
        // Every proper prefix must fail with a truncation error, never
        // decode a partial trace. (Prefix len 0..8 also covers header
        // truncation; the cut on the block boundary is caught by the
        // missing end-of-stream trailer.)
        for cut in 1..buf.len() {
            let truncated = &buf[..cut];
            match read_ttb(truncated, "t") {
                Err(e) => assert!(
                    e.to_string().contains("truncated TTB file"),
                    "cut {cut}: {e}"
                ),
                Ok(t) => panic!("cut {cut} decoded {} records", t.len()),
            }
        }
    }

    #[test]
    fn rejects_cut_on_block_boundary_and_trailer_tampering() {
        let trace = sample("untimed"); // 3 records
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 2).unwrap(); // blocks of 2 + 1
        const TRAILER: usize = 12;

        // Cut exactly at the block boundary (whole first block survives):
        // without the trailer this used to decode 2 records silently. The
        // v2 block length includes the alignment pad after the 5-byte
        // block header.
        let header_len = 12 + "t".len();
        let block1_len = 4 + 1 + pad8(header_len as u64 + 5) + 2 * (8 + 8 + 4 + 1);
        let cut = &buf[..header_len + block1_len];
        let err = read_ttb(cut, "t").unwrap_err();
        assert!(err.to_string().contains("truncated TTB file"), "{err}");

        // Drop the *last block* but keep a (re-attached) trailer claiming
        // the full count: the total mismatch must be caught.
        let block2_start = (header_len + block1_len) as u64;
        let block2_len = 4 + 1 + pad8(block2_start + 5) + (8 + 8 + 4 + 1);
        let mut forged = buf[..buf.len() - TRAILER - block2_len].to_vec();
        forged.extend_from_slice(&buf[buf.len() - TRAILER..]);
        let err = read_ttb(forged.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("3 records but 2"), "{err}");

        // Trailing bytes after the trailer are rejected.
        let mut trailing = buf.clone();
        trailing.push(0);
        let err = read_ttb(trailing.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("trailing data"), "{err}");

        // The streaming source applies the same checks.
        let mut source = TtbSource::new(forged.as_slice());
        let err = collect_source(&mut source, TraceMeta::named("t"), 64).unwrap_err();
        assert!(err.to_string().contains("3 records but 2"), "{err}");

        // The untampered file still reads fine.
        assert_eq!(read_ttb(buf.as_slice(), "t").unwrap().len(), 3);
    }

    #[test]
    fn rejects_corrupt_block_contents() {
        const TRAILER: usize = 12; // 0u32 marker + u64 total at the end

        // Zero sectors.
        let mut buf = Vec::new();
        let trace = Trace::from_records(TraceMeta::named("t"), vec![rec(0, 0)]);
        write_ttb(&trace, &mut buf).unwrap();
        let sectors_off = buf.len() - TRAILER - 1 - 4; // ops (1) + sectors (4)
        buf[sectors_off..sectors_off + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("zero-sector"), "{err}");

        // Bad op byte.
        let mut buf = Vec::new();
        write_ttb(&trace, &mut buf).unwrap();
        let op_off = buf.len() - TRAILER - 1;
        buf[op_off] = 7;
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("op byte 7"), "{err}");

        // Inverted timing.
        let mut buf = Vec::new();
        let trace = Trace::from_records(TraceMeta::named("t"), vec![timed(0, 0)]);
        write_ttb(&trace, &mut buf).unwrap();
        let issue_off = buf.len() - TRAILER - 16;
        buf[issue_off..issue_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("precedes issue"), "{err}");
    }

    #[test]
    fn rejects_overflowing_extents() {
        // The writer does not validate extents, so a hostile file is one
        // write away; every reader must refuse it.
        let hostile =
            Trace::from_records(TraceMeta::named("t"), vec![rec(0, 0), rec(1, u64::MAX - 7)]);
        let mut buf = Vec::new();
        write_ttb(&hostile, &mut buf).unwrap();
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("block offset 1"), "{err}");
        let mut source = TtbSource::new(buf.as_slice());
        let err = collect_source(&mut source, TraceMeta::named("t"), 64).unwrap_err();
        assert!(err.to_string().contains("extent overflows"), "{err}");
        let err = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(buf), "t").unwrap_err();
        assert!(err.to_string().contains("extent overflows"), "{err}");

        // The last sector of the LBA space is still addressable.
        let edge = Trace::from_records(TraceMeta::named("t"), vec![rec(0, u64::MAX - 8)]);
        let mut buf = Vec::new();
        write_ttb(&edge, &mut buf).unwrap();
        let back = read_ttb(buf.as_slice(), "t").unwrap();
        assert_eq!(back.columns(), edge.columns());
    }

    #[test]
    fn rejects_implausible_counts() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        // Header is 12 + name; name "t" = 1 byte, so the block count sits
        // at offset 13.
        buf[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(
            err.to_string().contains("implausible record count"),
            "{err}"
        );

        let mut head = MAGIC.to_vec();
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&0u16.to_le_bytes());
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_ttb(head.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("implausible name length"), "{err}");
    }

    #[test]
    fn huge_advertised_count_fails_as_truncation_without_huge_allocation() {
        // A tiny file whose block count passes the plausibility cap but
        // advertises ~1 GiB of column data: the bounded column reads must
        // fail on the first missing piece, not reserve the advertised
        // gigabytes first.
        let mut buf = Vec::new();
        write_header(&mut buf, "t").unwrap();
        buf.extend_from_slice(&(MAX_BLOCK_RECORDS - 1).to_le_bytes());
        buf.push(TIMING_NONE);
        buf.extend_from_slice(&[0u8; 64]); // far less than the 8n promised
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("truncated TTB file"), "{err}");
    }

    #[test]
    fn long_names_truncate_on_char_boundaries() {
        // A multi-byte character straddling the 4096-byte cap must not be
        // cut in half — the written file has to read back cleanly.
        let name = format!("{}é", "x".repeat(MAX_NAME_BYTES as usize - 1));
        let trace = Trace::from_records(TraceMeta::named(name), vec![rec(0, 0)]);
        let mut buf = Vec::new();
        write_ttb(&trace, &mut buf).unwrap();
        let back = read_ttb(buf.as_slice(), "t").unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn rejects_unknown_timing_tag() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        buf[17] = 9; // timing tag right after the 4-byte count at 13.
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("timing tag 9"), "{err}");
    }

    #[test]
    fn unsorted_blocks_are_sorted_on_load() {
        // Hand-build a file whose blocks are internally sorted but
        // mutually out of order: read_ttb must arrival-sort like every
        // other loader.
        let a = Trace::from_records(TraceMeta::named("t"), vec![rec(100, 0)]);
        let b = Trace::from_records(TraceMeta::named("t"), vec![rec(10, 8)]);
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        sink.push_chunk(a.records()).unwrap();
        sink.push_chunk(b.records()).unwrap();
        sink.finish().unwrap();
        let back = read_ttb(buf.as_slice(), "t").unwrap();
        assert_eq!(back.start().unwrap(), SimInstant::from_usecs(10));
        assert_eq!(back.span(), SimDuration::from_usecs(90));
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tt_ttb_{}_{name}", std::process::id()))
    }

    /// Hand-builds a version-1 file (no alignment pads) for back-compat
    /// coverage: one untimed block of `lbas.len()` records at 10us spacing.
    fn v1_file(lbas: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b't');
        buf.extend_from_slice(&(lbas.len() as u32).to_le_bytes());
        buf.push(TIMING_NONE);
        for i in 0..lbas.len() {
            buf.extend_from_slice(&(i as u64 * 10_000).to_le_bytes());
        }
        for &l in lbas {
            buf.extend_from_slice(&l.to_le_bytes());
        }
        for _ in lbas {
            buf.extend_from_slice(&8u32.to_le_bytes());
        }
        buf.extend_from_slice(&vec![0u8; lbas.len()]); // ops: all reads
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(lbas.len() as u64).to_le_bytes());
        buf
    }

    #[test]
    fn v1_files_still_read() {
        let buf = v1_file(&[100, 200, 300]);
        let back = read_ttb(buf.as_slice(), "t").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.columns().lbas(), &[100, 200, 300]);
        // The streaming source reads v1 too.
        let mut source = TtbSource::new(buf.as_slice());
        let streamed = collect_source(&mut source, TraceMeta::named("t"), 2).unwrap();
        assert_eq!(streamed.records(), back.records());
    }

    #[test]
    fn mmap_open_is_zero_copy_and_identical_to_bulk_read() {
        for kind in ["untimed", "timed", "mixed"] {
            let trace = sample(kind);
            let path = temp(&format!("zc_{kind}.ttb"));
            write_ttb(&trace, std::fs::File::create(&path).unwrap()).unwrap();

            let mapped = MmapTrace::open(&path).unwrap();
            assert!(mapped.is_zero_copy(), "{kind}");
            assert_eq!(mapped.len(), trace.len(), "{kind}");
            let cols = mapped.columns();
            assert_eq!(cols.arrivals(), trace.columns().arrivals(), "{kind}");
            assert_eq!(cols.lbas(), trace.columns().lbas(), "{kind}");
            assert_eq!(cols.sectors(), trace.columns().sectors(), "{kind}");
            assert_eq!(cols.ops(), trace.columns().ops(), "{kind}");
            assert_eq!(
                cols.timing_column(),
                trace.columns().timing_column(),
                "{kind}"
            );
            assert_eq!(cols.timed_count(), trace.columns().timed_count());
            // The ownership fallback reproduces the bulk read exactly.
            let bulk = read_ttb(
                std::io::BufReader::new(std::fs::File::open(&path).unwrap()),
                &mapped.meta().name,
            )
            .unwrap();
            assert_eq!(mapped.to_trace(), bulk, "{kind}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mmap_zero_record_trace() {
        let path = temp("empty.ttb");
        let trace = Trace::with_meta(TraceMeta::named("empty"));
        write_ttb(&trace, std::fs::File::create(&path).unwrap()).unwrap();
        let mapped = MmapTrace::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(mapped.is_zero_copy());
        assert_eq!(mapped.columns().len(), 0);
        assert!(mapped.columns().timing_column().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_multi_block_files_fall_back_to_decode() {
        let recs: Vec<BlockRecord> = (0..50).map(|i| rec(i * 3, i * 8)).collect();
        let trace = Trace::from_records(TraceMeta::named("t"), recs);
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 7).unwrap(); // many blocks
        let mapped = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(buf), "t").unwrap();
        assert!(!mapped.is_zero_copy());
        assert_eq!(mapped.len(), 50);
        assert_eq!(mapped.columns().lbas(), trace.columns().lbas());
    }

    #[test]
    fn mmap_v1_unaligned_columns_fall_back_to_decode() {
        // v1 files carry no pads: with a 1-byte name the u64 columns sit
        // at offset 18 — odd alignment for 8-byte loads. The mapped view
        // must stay correct (copying decode), never cast unaligned.
        let buf = v1_file(&[100, 200, 300]);
        let bulk = read_ttb(buf.as_slice(), "t").unwrap();
        let mapped = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(buf), "t").unwrap();
        assert!(!mapped.is_zero_copy());
        assert_eq!(mapped.to_trace(), bulk);
    }

    #[test]
    fn mmap_unsorted_single_block_falls_back_and_sorts() {
        let a = Trace::from_records(TraceMeta::named("t"), vec![rec(100, 0), rec(110, 8)]);
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        // One block, internally out of order (the sink writes verbatim).
        sink.push_chunk(&[a.records()[1], a.records()[0]]).unwrap();
        sink.finish().unwrap();
        let mapped = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(buf), "t").unwrap();
        assert!(!mapped.is_zero_copy());
        assert!(mapped.columns().is_sorted());
        assert_eq!(mapped.columns().arrivals(), a.columns().arrivals());
    }

    /// Every corruption the bulk reader rejects, the mapped view rejects
    /// with the same message — no panic, no UB, no garbage records.
    #[test]
    fn mmap_rejects_corruption_identically_to_bulk_reader() {
        let trace = sample("mixed");
        let mut good = Vec::new();
        write_ttb(&trace, &mut good).unwrap();

        let mapped_err = |bytes: &[u8]| {
            MmapTrace::from_map(crate::mmap::Mmap::from_bytes(bytes.to_vec()), "t")
                .err()
                .map(|e| e.to_string())
        };

        // Truncation at every cut, including a file shorter than the
        // header and a cut exactly on the trailer.
        for cut in 0..good.len() {
            let bulk = read_ttb(&good[..cut], "t").unwrap_err().to_string();
            let mapped = mapped_err(&good[..cut]).unwrap_or_else(|| panic!("cut {cut} accepted"));
            assert_eq!(mapped, bulk, "cut {cut}");
        }

        // Targeted corruptions: bad magic, future version, reserved bytes,
        // non-zero pad, bad op byte, trailing garbage, trailer mismatch.
        let mutate = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = good.clone();
            f(&mut bad);
            let bulk = read_ttb(bad.as_slice(), "t").unwrap_err().to_string();
            let mapped = mapped_err(&bad).expect("corruption accepted");
            assert_eq!(mapped, bulk);
            bulk
        };
        assert!(mutate(&|b| b[0] = b'X').contains("not a TTB file"));
        assert!(mutate(&|b| b[4] = 99).contains("version 99"));
        assert!(mutate(&|b| b[6] = 1).contains("reserved"));
        // Name "t": block header at 13, pad bytes at 18..24.
        assert!(mutate(&|b| b[18] = 7).contains("alignment padding"));
        assert!(mutate(&|b| b.push(0)).contains("trailing data"));
        let trailer_total = good.len() - 8;
        assert!(mutate(&|b| b[trailer_total] ^= 0xFF).contains("records but"));
    }

    #[test]
    fn ttb_is_denser_than_csv() {
        let trace = sample("timed");
        let mut ttb = Vec::new();
        write_ttb(&trace, &mut ttb).unwrap();
        let mut csv = Vec::new();
        crate::format::csv::write_csv(&trace, &mut csv).unwrap();
        // 37 bytes/record fixed (timed) vs ~50+ of text — and no parsing.
        assert!(
            ttb.len() < csv.len(),
            "ttb {} vs csv {}",
            ttb.len(),
            csv.len()
        );
    }
}
