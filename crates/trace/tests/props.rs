//! Property-based tests for the trace data model.

use proptest::prelude::*;

use tt_trace::format::{blk, csv, ttb};
use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::{
    classify_columns, classify_sequentiality, BlockRecord, GroupedTrace, OpType, RecordSource,
    ServiceTiming, Trace, TraceMeta, TraceStats,
};

/// Nanoseconds at or above this bound take the CSV codec's `f64`
/// fallback.
const CSV_EXACT_NS: u64 = 1_000_000_000_000_000;

fn arb_record() -> impl Strategy<Value = BlockRecord> {
    (
        // Short traces, plus arrivals on both sides of the CSV codec's
        // 10^15-ns bound (kept below 2^51 ns, where the `f64` fallback
        // still round-trips exactly).
        prop_oneof![0u64..10_000_000_000, 0u64..2 * CSV_EXACT_NS],
        0u64..1_000_000_000,
        1u32..2048,
        proptest::bool::ANY,
    )
        .prop_map(|(t_ns, lba, sectors, write)| {
            BlockRecord::new(
                SimInstant::from_nanos(t_ns),
                lba,
                sectors,
                if write { OpType::Write } else { OpType::Read },
            )
        })
}

/// Records that may carry device-side timing (issue after arrival,
/// completion after issue), exercising the `Tsdev`-known format paths.
fn arb_timed_record() -> impl Strategy<Value = BlockRecord> {
    (
        arb_record(),
        proptest::bool::ANY,
        0u64..1_000_000,
        0u64..10_000_000,
    )
        .prop_map(|(rec, timed, issue_off_ns, service_ns)| {
            if timed {
                let issue = rec.arrival + SimDuration::from_nanos(issue_off_ns);
                rec.with_timing(ServiceTiming::new(
                    issue,
                    issue + SimDuration::from_nanos(service_ns),
                ))
            } else {
                rec
            }
        })
}

/// The timestamp parse the CSV reader used before its integer codec:
/// `f64` microseconds, scaled and rounded to nanoseconds.
fn f64_path_nanos(field: &str) -> u64 {
    (field.trim().parse::<f64>().unwrap() * 1_000.0).round() as u64
}

/// A canonical CSV timestamp (`digits{1,12}[.digits{1,3}]`) or, with 13
/// integer digits, the first spelling past the canonical form.
fn arb_usecs_text() -> impl Strategy<Value = String> {
    (1u32..14, 0u64..u64::MAX, 0u32..4, 0u64..1_000).prop_map(|(digits, raw, places, frac)| {
        let low = if digits == 1 {
            0
        } else {
            10u64.pow(digits - 1)
        };
        let int = low + raw % (10u64.pow(digits) - low);
        match places {
            0 => int.to_string(),
            _ => format!(
                "{int}.{:0width$}",
                frac % 10u64.pow(places),
                width = places as usize
            ),
        }
    })
}

/// Nanosecond instants near zero, across the whole canonical range, and on
/// both sides of the codec's 10^15-ns bound.
fn arb_codec_nanos() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..10_000_000,
        0u64..CSV_EXACT_NS,
        CSV_EXACT_NS - 5_000..CSV_EXACT_NS + 5_000,
        CSV_EXACT_NS..100 * CSV_EXACT_NS,
        CSV_EXACT_NS..u64::MAX,
    ]
}

/// Spellings the CSV reader accepts but the integer codec does not, each
/// paired with the canonical spelling it must decode like.
fn respell(line: &str, how: u64) -> String {
    let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
    match how {
        0 => fields[0] = format!(" {}", fields[0]),
        1 => fields[0] = format!("+{}", fields[0]),
        2 => fields[0] = format!("{}e0", fields[0]),
        3 => fields[0] = format!("{:.4}", fields[0].parse::<f64>().unwrap()),
        4 => fields[1] = fields[1].to_lowercase(),
        5 => fields[1] = if fields[1] == "R" { "read" } else { "write" }.to_string(),
        6 => fields[2] = format!("+{}", fields[2]),
        _ => fields[3] = format!("{}\t", fields[3]),
    }
    fields.join(",")
}

proptest! {
    /// The CSV reader's integer codec decodes every canonical timestamp to
    /// the nanoseconds the `f64` path gives, for 0-3 fraction digits and
    /// 1-13 integer digits, in the arrival and both timing fields.
    #[test]
    fn csv_fast_decode_equals_f64_path(
        arrival in arb_usecs_text(),
        issue in arb_usecs_text(),
        complete in arb_usecs_text(),
    ) {
        let line = format!("{arrival},W,7,8");
        let trace = csv::read_csv(line.as_bytes(), "p").unwrap();
        let rec = trace.get(0).unwrap();
        prop_assert_eq!(rec.arrival.as_nanos(), f64_path_nanos(&arrival));

        let timed = format!("{arrival},R,7,8,{issue},{complete}");
        match csv::read_csv(timed.as_bytes(), "p") {
            Ok(trace) => {
                let t = trace.get(0).unwrap().timing.unwrap();
                prop_assert_eq!(t.issue.as_nanos(), f64_path_nanos(&issue));
                prop_assert_eq!(t.complete.as_nanos(), f64_path_nanos(&complete));
            }
            Err(e) => {
                prop_assert!(f64_path_nanos(&complete) < f64_path_nanos(&issue));
                prop_assert_eq!(
                    e.to_string(),
                    "parse error at line 1: completion precedes issue"
                );
            }
        }
    }

    /// The CSV writer's integer codec prints exactly what `{:.3}` of the
    /// `f64` microseconds prints, below, at and above the 10^15-ns bound.
    #[test]
    fn csv_fast_encode_equals_format(ns in arb_codec_nanos()) {
        let t = SimInstant::from_nanos(ns);
        let mut out = Vec::new();
        let mut sink = csv::CsvSink::new(&mut out, "p");
        tt_trace::RecordSink::push_chunk(
            &mut sink,
            &[BlockRecord::new(t, 0, 8, OpType::Read)
                .with_timing(ServiceTiming::new(t, t))],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let line = text.lines().last().unwrap();
        let us = format!("{:.3}", t.as_usecs_f64());
        prop_assert_eq!(line, format!("{us},R,0,8,{us},{us}"));
    }

    /// Non-canonical spellings take the general parser and decode to the
    /// same record as the canonical spelling; invalid lines keep their
    /// errors and line numbers.
    #[test]
    fn csv_noncanonical_spellings_decode_alike(
        rec in arb_timed_record(),
        how in 0u64..8,
        lineno in 1usize..5,
    ) {
        let mut buf = Vec::new();
        csv::write_csv(&Trace::from_records(TraceMeta::named("p"), vec![rec]), &mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let canonical = text.lines().last().unwrap();
        let padding = "# pad\n".repeat(lineno - 1);

        let respelled = format!("{padding}{}\n", respell(canonical, how));
        let back = csv::read_csv(respelled.as_bytes(), "p").unwrap();
        let fast = csv::read_csv(canonical.as_bytes(), "p").unwrap();
        prop_assert_eq!(back.records(), fast.records());
        if rec.arrival.as_nanos() < CSV_EXACT_NS {
            prop_assert_eq!(fast.records(), &[rec][..]);
        }

        let fields: Vec<&str> = canonical.split(',').collect();
        let zero = format!("{padding}{},{},{},0\n", fields[0], fields[1], fields[2]);
        let err = csv::read_csv(zero.as_bytes(), "p").unwrap_err();
        prop_assert_eq!(
            err.to_string(),
            format!("parse error at line {lineno}: sectors must be non-zero")
        );
        let inverted = format!("{padding}{},{},{},{},2.000,1.999\n",
            fields[0], fields[1], fields[2], fields[3]);
        let err = csv::read_csv(inverted.as_bytes(), "p").unwrap_err();
        prop_assert_eq!(
            err.to_string(),
            format!("parse error at line {lineno}: completion precedes issue")
        );
    }

    /// from_records produces arrival-sorted traces for any input order.
    #[test]
    fn from_records_always_sorted(recs in prop::collection::vec(arb_record(), 0..200)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        prop_assert!(trace
            .records()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    /// Inter-arrival count is always len-1 (or 0) and all gaps non-negative
    /// by construction; their sum telescopes to the span.
    #[test]
    fn gaps_telescope_to_span(recs in prop::collection::vec(arb_record(), 2..200)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let total: SimDuration = trace.inter_arrivals().sum();
        prop_assert_eq!(total, trace.span());
        prop_assert_eq!(trace.inter_arrivals().count(), trace.len() - 1);
    }

    /// Rebase moves the first arrival to zero and is gap-preserving.
    #[test]
    fn rebase_preserves_gaps(recs in prop::collection::vec(arb_record(), 1..100)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let rebased = trace.rebased();
        prop_assert_eq!(rebased.start(), Some(SimInstant::ZERO));
        let a: Vec<SimDuration> = trace.inter_arrivals().collect();
        let b: Vec<SimDuration> = rebased.inter_arrivals().collect();
        prop_assert_eq!(a, b);
    }

    /// Grouping partitions the records: every index appears exactly once.
    #[test]
    fn grouping_is_a_partition(recs in prop::collection::vec(arb_record(), 0..150)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let grouped = GroupedTrace::build(&trace);
        let mut seen: Vec<usize> = grouped
            .iter()
            .flat_map(|(_, g)| g.indices.iter().copied())
            .collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..trace.len()).collect();
        prop_assert_eq!(seen, expect);
    }

    /// Sequentiality classification matches the pairwise definition.
    #[test]
    fn sequentiality_matches_definition(recs in prop::collection::vec(arb_record(), 1..100)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let classes = classify_sequentiality(&trace);
        for (i, class) in classes.iter().enumerate() {
            let expected = i > 0
                && trace.records()[i].lba == trace.records()[i - 1].end_lba();
            prop_assert_eq!(class.is_sequential(), expected);
        }
    }

    /// CSV round-trips arbitrary traces losslessly (ns resolution).
    #[test]
    fn csv_round_trip(recs in prop::collection::vec(arb_record(), 0..100)) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        csv::write_csv(&trace, &mut buf).unwrap();
        let back = csv::read_csv(buf.as_slice(), "p").unwrap();
        prop_assert_eq!(back.records(), trace.records());
    }

    /// Duration arithmetic: saturating_sub never underflows and add/sub
    /// round-trips when no clamping happened.
    #[test]
    fn duration_saturation(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let diff = da.saturating_sub(db);
        if a >= b {
            prop_assert_eq!(diff + db, da);
        } else {
            prop_assert_eq!(diff, SimDuration::ZERO);
        }
    }

    /// The streaming CSV source produces byte-identical traces to the
    /// in-memory reader, for any trace and any chunk size.
    #[test]
    fn csv_streaming_equals_in_memory(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        csv::write_csv(&trace, &mut buf).unwrap();

        let whole = csv::read_csv(buf.as_slice(), "p").unwrap();
        let mut source = csv::CsvSource::new(buf.as_slice());
        let streamed = tt_trace::collect_source(
            &mut source,
            TraceMeta::named("p").with_source("csv"),
            chunk,
        )
        .unwrap();
        prop_assert_eq!(streamed.records(), whole.records());
        prop_assert_eq!(&streamed, &whole);
    }

    /// The streaming blkparse source produces byte-identical traces to the
    /// in-memory reader, for any timed/untimed trace and any chunk size.
    #[test]
    fn blk_streaming_equals_in_memory(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        blk::write_blk(&trace, &mut buf).unwrap();

        let whole = blk::read_blk(buf.as_slice(), "p").unwrap();
        let mut source = blk::BlkSource::new(buf.as_slice());
        let streamed = tt_trace::collect_source(
            &mut source,
            TraceMeta::named("p").with_source("blkparse"),
            chunk,
        )
        .unwrap();
        prop_assert_eq!(streamed.records(), whole.records());
        prop_assert_eq!(&streamed, &whole);
    }

    /// Parallel grouping is bit-identical to the sequential single pass,
    /// for any trace and any worker count.
    #[test]
    fn parallel_grouping_is_deterministic(
        recs in prop::collection::vec(arb_record(), 0..200),
        workers in 2usize..6,
    ) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let seq = GroupedTrace::build_sequential(&trace);
        tt_par::set_threads(workers);
        let par = GroupedTrace::build_parallel(&trace);
        tt_par::set_threads(0);
        prop_assert_eq!(seq, par);
    }

    /// The streaming CSV sink emits byte-identical output to the
    /// whole-trace writer, for any trace and any chunk size.
    #[test]
    fn csv_sink_equals_write_csv(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut whole = Vec::new();
        csv::write_csv(&trace, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let mut sink = csv::CsvSink::new(&mut streamed, "p");
        tt_trace::drain_trace(&trace, &mut sink, chunk).unwrap();
        prop_assert_eq!(streamed, whole);
    }

    /// The streaming blkparse sink emits byte-identical output to the
    /// whole-trace writer (the Q/D/C sequence counter survives chunk
    /// boundaries), for any trace and any chunk size.
    #[test]
    fn blk_sink_equals_write_blk(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut whole = Vec::new();
        blk::write_blk(&trace, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let mut sink = blk::BlkSink::new(&mut streamed);
        tt_trace::drain_trace(&trace, &mut sink, chunk).unwrap();
        prop_assert_eq!(streamed, whole);
    }

    /// `CsvSource → CsvSink` pass-through reproduces a CSV trace file byte
    /// for byte, at arbitrary read and write chunk sizes — the fully
    /// streamed format-conversion identity.
    #[test]
    fn csv_source_to_sink_is_byte_identical(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        read_chunk in 1usize..40,
        write_chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut file = Vec::new();
        csv::write_csv(&trace, &mut file).unwrap();

        // Stream source → rechunk → sink, without a Trace in between.
        let mut out = Vec::new();
        let mut source = csv::CsvSource::new(file.as_slice());
        let mut sink = csv::CsvSink::new(&mut out, "p");
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if source.next_chunk(&mut buf, read_chunk).unwrap() == 0 {
                break;
            }
            for piece in buf.chunks(write_chunk) {
                sink.push_chunk(piece).unwrap();
            }
        }
        use tt_trace::RecordSink as _;
        sink.finish().unwrap();
        prop_assert_eq!(out, file);
    }

    /// TTB round-trips arbitrary traces losslessly: the columnar
    /// whole-trace paths (`TraceStore → TTB → TraceStore`) reproduce every
    /// column bit for bit, including optional per-record timing.
    #[test]
    fn ttb_round_trip_is_lossless(recs in prop::collection::vec(arb_timed_record(), 0..120)) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        ttb::write_ttb(&trace, &mut buf).unwrap();
        let back = ttb::read_ttb(buf.as_slice(), "p").unwrap();
        prop_assert_eq!(back.columns(), trace.columns());
        prop_assert_eq!(back.records(), trace.records());
    }

    /// The streaming TTB endpoints agree with the columnar bulk paths at
    /// any read/write chunk size: a file written block-by-block through
    /// `TtbSink` decodes to the same trace through both `read_ttb` and a
    /// chunked `TtbSource`, and vice versa for `write_ttb` output.
    #[test]
    fn ttb_streaming_equals_bulk(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        write_chunk in 1usize..40,
        read_chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);

        let mut bulk = Vec::new();
        ttb::write_ttb(&trace, &mut bulk).unwrap();
        let mut streamed = Vec::new();
        let mut sink = ttb::TtbSink::new(&mut streamed, "p");
        tt_trace::drain_trace(&trace, &mut sink, write_chunk).unwrap();

        // Block boundaries differ with the chunk size, but every route to
        // records produces the same trace.
        for bytes in [&bulk, &streamed] {
            let whole = ttb::read_ttb(bytes.as_slice(), "p").unwrap();
            prop_assert_eq!(whole.records(), trace.records());
            let mut source = ttb::TtbSource::new(bytes.as_slice());
            let chunked = tt_trace::collect_source(
                &mut source,
                TraceMeta::named("p").with_source("ttb"),
                read_chunk,
            )
            .unwrap();
            prop_assert_eq!(chunked.records(), trace.records());
        }
    }

    /// The mapped view and the owned store are interchangeable: grouping,
    /// statistics, and sequentiality over `MmapTrace` columns equal the
    /// owned-trace results, and the mapped trace materialises back to the
    /// bulk-read trace exactly — for single-block files (the zero-copy
    /// shape) and multi-block streams (the copying fallback) alike.
    #[test]
    fn mapped_view_equals_owned_columns(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut bulk = Vec::new();
        ttb::write_ttb(&trace, &mut bulk).unwrap();
        let mut streamed = Vec::new();
        let mut sink = ttb::TtbSink::new(&mut streamed, "p");
        tt_trace::drain_trace(&trace, &mut sink, chunk).unwrap();
        for bytes in [bulk, streamed] {
            let mapped =
                ttb::MmapTrace::from_map(tt_trace::mmap::Mmap::from_bytes(bytes), "p").unwrap();
            let cols = mapped.columns();
            prop_assert_eq!(
                GroupedTrace::build_columns(cols),
                GroupedTrace::build(&trace)
            );
            prop_assert_eq!(
                TraceStats::compute_columns(cols),
                TraceStats::compute(&trace)
            );
            prop_assert_eq!(classify_columns(cols), classify_sequentiality(&trace));
            prop_assert_eq!(mapped.to_trace().columns(), trace.columns());
        }
    }

    /// `CsvSource → TtbSink → TtbSource → CsvSink` reproduces the CSV file
    /// byte for byte at any chunk sizes — the binary cache is lossless for
    /// exactly what the text format carries.
    #[test]
    fn csv_through_ttb_is_byte_identical(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        to_ttb_chunk in 1usize..40,
        to_csv_chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut file = Vec::new();
        csv::write_csv(&trace, &mut file).unwrap();

        let mut cache = Vec::new();
        tt_trace::pump(
            &mut csv::CsvSource::new(file.as_slice()),
            &mut ttb::TtbSink::new(&mut cache, "p"),
            to_ttb_chunk,
        )
        .unwrap();
        let mut out = Vec::new();
        tt_trace::pump(
            &mut ttb::TtbSource::new(cache.as_slice()),
            &mut csv::CsvSink::new(&mut out, "p"),
            to_csv_chunk,
        )
        .unwrap();
        prop_assert_eq!(out, file);
    }

    /// `BlkSource → BlkSink` pass-through reproduces a blkparse trace file
    /// byte for byte, at arbitrary chunk sizes (completion matching on the
    /// read side, sequence numbering on the write side). Timing presence
    /// is uniform across the trace: blkparse's FIFO completion matching is
    /// inherently ambiguous when timed and untimed requests share a
    /// `(op, lba, sectors)` key, so only uniform streams round-trip
    /// bytewise.
    #[test]
    fn blk_source_to_sink_is_byte_identical(
        recs in prop::collection::vec(arb_record(), 0..120),
        timed in proptest::bool::ANY,
        chunk in 1usize..40,
    ) {
        let recs: Vec<BlockRecord> = recs
            .into_iter()
            .map(|rec| {
                if timed {
                    let issue = rec.arrival + SimDuration::from_nanos(1_500);
                    rec.with_timing(ServiceTiming::new(
                        issue,
                        issue + SimDuration::from_nanos(rec.lba % 1_000_000 + 1),
                    ))
                } else {
                    rec
                }
            })
            .collect();
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut file = Vec::new();
        blk::write_blk(&trace, &mut file).unwrap();

        let mut out = Vec::new();
        let transferred = tt_trace::pump(
            &mut blk::BlkSource::new(file.as_slice()),
            &mut blk::BlkSink::new(&mut out),
            chunk,
        )
        .unwrap();
        prop_assert_eq!(transferred, trace.len());
        prop_assert_eq!(out, file);
    }
}
