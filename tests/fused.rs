//! The fused-executor contract: a multi-stage `Pipeline` chain run fused
//! (stage workers + bounded channels) is **bit-identical** to the
//! materialised stage-at-a-time executor — across chunk sizes, worker
//! counts, chain shapes, and terminals — while never materialising the
//! intermediate stream (witnessed by the channel probe). Plus the
//! multi-stream fan-in: merge determinism under duplicate arrivals, and
//! pipeline concurrent replay matching the direct `tt_sim` reference.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use tracetracker::prelude::*;
use tracetracker::trace::format::csv::CsvSink;
use tracetracker::workloads::faults;
use tracetracker::FUSED_CHANNEL_CHUNKS;

/// One decade-old workload trace, built once and shared by every case.
fn old_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let entry = catalog::find("MSNFS").expect("workload in catalog");
        let session = generate_session("MSNFS", &entry.profile, 600, 0xF5ED);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    })
}

/// Builds the canonical two-stage co-evaluation chain over `old`:
/// reconstruct onto a flash array, then replay the result on a second
/// array in `mode`.
fn chain<'env>(
    old: &'env Trace,
    d1: &'env mut dyn BlockDevice,
    d2: &'env mut dyn BlockDevice,
    mode: StreamReplay,
    chunk: usize,
    workers: usize,
) -> Pipeline<'env> {
    Pipeline::from_trace_ref(old)
        .chunk_size(chunk)
        .parallel(workers)
        .reconstruct(d1, TraceTracker::new())
        .replay(d2, mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: a fused `reconstruct → replay` chain is
    /// bit-identical to the materialised chain — collected trace (records
    /// *and* metadata) and streamed sink bytes — at any chunk size and
    /// worker count, in both replay modes, on a clean replay device and
    /// under every named fault scenario (transient errors and their
    /// retries included).
    #[test]
    fn fused_chain_equals_materialised(
        chunk in 1usize..200,
        workers in 0usize..5,
        closed in proptest::bool::ANY,
        fault_seed in 0u64..1000,
    ) {
        let old = old_trace();
        let mode = if closed {
            StreamReplay::ClosedLoop
        } else {
            StreamReplay::OpenLoop { time_scale: 1.0 }
        };
        let plans = std::iter::once(None).chain(
            faults::SCENARIO_NAMES
                .iter()
                .map(|name| faults::scenario(name, fault_seed)),
        );
        for plan in plans {
            let label = format!("{plan:?}");
            // The replay-stage device: a fresh array, behind the plan if any.
            let replay_device = || -> Box<dyn BlockDevice> {
                let array = presets::intel_750_array();
                match &plan {
                    Some(plan) => Box::new(FaultyDevice::new(array, plan.clone())),
                    None => Box::new(array),
                }
            };

            let mut d1 = presets::intel_750_array();
            let mut d2 = replay_device();
            let fused = chain(old, &mut d1, &mut *d2, mode, chunk, workers)
                .collect()
                .unwrap();

            let mut d3 = presets::intel_750_array();
            let mut d4 = replay_device();
            let materialised = chain(old, &mut d3, &mut *d4, mode, chunk, workers)
                .materialize()
                .collect()
                .unwrap();
            prop_assert_eq!(&fused, &materialised, "{}", label);
            prop_assert_eq!(fused.meta(), materialised.meta(), "{}", label);

            // The sink-terminated run streams the same bytes.
            let mut fused_bytes = Vec::new();
            let mut d5 = presets::intel_750_array();
            let mut d6 = replay_device();
            chain(old, &mut d5, &mut *d6, mode, chunk, workers)
                .write_to(&mut CsvSink::new(&mut fused_bytes, old.meta().name.clone()))
                .unwrap();
            let mut mat_bytes = Vec::new();
            let mut d7 = presets::intel_750_array();
            let mut d8 = replay_device();
            chain(old, &mut d7, &mut *d8, mode, chunk, workers)
                .materialize()
                .write_to(&mut CsvSink::new(&mut mat_bytes, old.meta().name.clone()))
                .unwrap();
            prop_assert_eq!(fused_bytes, mat_bytes, "{}", label);
        }
        tt_par::set_threads(0);
    }

    /// Merging streams with heavy arrival-timestamp collisions is
    /// deterministic: equal to a stable sort of the concatenated tagged
    /// records by (arrival, stream index), at any chunk size.
    #[test]
    fn multi_source_merge_with_duplicate_arrivals(
        streams in prop::collection::vec(
            prop::collection::vec((0u64..40, 0u64..1_000_000), 0..60),
            1..5,
        ),
        chunk in 1usize..64,
    ) {
        // Coarse arrival grid (0..40us) over up to 60 records per stream:
        // ties within and across streams are the norm, not the exception.
        let streams: Vec<Vec<BlockRecord>> = streams
            .into_iter()
            .map(|recs| {
                let mut recs: Vec<BlockRecord> = recs
                    .into_iter()
                    .map(|(us, lba)| {
                        BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read)
                    })
                    .collect();
                recs.sort_by_key(|r| r.arrival); // per-stream order contract
                recs
            })
            .collect();

        let mut reference: Vec<(u32, BlockRecord)> = streams
            .iter()
            .enumerate()
            .flat_map(|(i, recs)| recs.iter().map(move |&r| (i as u32, r)))
            .collect();
        reference.sort_by_key(|(stream, rec)| (rec.arrival, *stream));

        let mut multi = MultiSource::new(
            streams
                .iter()
                .enumerate()
                .map(|(i, recs)| {
                    (
                        format!("s{i}"),
                        Box::new(tracetracker::trace::source::VecSource::new(recs.clone()))
                            as Box<dyn RecordSource>,
                    )
                })
                .collect(),
        )
        .with_chunk(chunk);
        let mut merged = Vec::new();
        while multi.next_tagged(&mut merged, chunk).unwrap() > 0 {}

        prop_assert_eq!(merged.len(), reference.len());
        for (got, (stream, rec)) in merged.iter().zip(&reference) {
            prop_assert_eq!(got.stream, *stream);
            prop_assert_eq!(&got.record, rec);
        }
    }
}

/// A terminal sink that notes how many chunks had crossed the probed
/// stage boundary when the first record reached it.
struct FirstPushWitness {
    probe: Arc<ChannelProbe>,
    chunks_at_first_push: Option<usize>,
    records: usize,
}

impl RecordSink for FirstPushWitness {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        self.chunks_at_first_push.get_or_insert(self.probe.chunks());
        self.records += records.len();
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "first-push witness"
    }
}

/// The "never a second trace" witness: across a fused chain the channel
/// probe sees many chunks flow but never more than the channel capacity
/// in flight, so peak intermediate buffering is `capacity × chunk`
/// records — independent of the trace length. The replay stage also
/// streams: its first records reach the terminal after a few chunks, not
/// after the whole stream, in both modes and at every worker count.
#[test]
fn fused_chain_bounds_intermediate_buffering() {
    let old = old_trace();
    let chunk = 16; // 600 records -> ~38 chunks through the boundary
    let modes = [
        StreamReplay::ClosedLoop,
        StreamReplay::OpenLoop { time_scale: 1.0 },
    ];
    for mode in modes {
        for workers in [1usize, 2] {
            let label = format!("{mode:?} w={workers}");
            let probe = Arc::new(ChannelProbe::new());
            let mut d1 = presets::intel_750_array();
            let mut d2 = presets::intel_750_array();
            let mut witness = FirstPushWitness {
                probe: Arc::clone(&probe),
                chunks_at_first_push: None,
                records: 0,
            };
            chain(old, &mut d1, &mut d2, mode, chunk, workers)
                .channel_probe(&probe)
                .write_to(&mut witness)
                .unwrap();
            assert_eq!(witness.records, old.len(), "{label}");

            let min_chunks = old.len() / chunk;
            assert!(
                probe.chunks() >= min_chunks,
                "{label}: expected >= {min_chunks} chunks through the boundary, saw {}",
                probe.chunks()
            );
            assert!(
                probe.peak_depth() <= FUSED_CHANNEL_CHUNKS,
                "{label}: peak depth {} exceeded the channel capacity {FUSED_CHANNEL_CHUNKS}",
                probe.peak_depth()
            );
            // The bound is what makes this streaming: peak in-flight records
            // are a small constant multiple of the chunk size, far below the
            // stream.
            assert!(probe.peak_depth() * chunk < old.len() / 2, "{label}");
            // Backpressure keeps the producer within the channel capacity
            // (plus the chunks in the consumer's hands) of the terminal.
            let first = witness.chunks_at_first_push.unwrap();
            assert!(
                first <= FUSED_CHANNEL_CHUNKS + 2,
                "{label}: {first} of {} chunks had crossed before the first terminal push",
                probe.chunks()
            );
        }
    }
    tt_par::set_threads(0);
}

/// A three-stage chain exercises a worker-to-worker channel boundary
/// (stage 1 feeds stage 2 off the calling thread) — still bit-identical
/// to the materialised executor.
#[test]
fn three_stage_chain_fused_equals_materialised() {
    let old = old_trace();
    let run = |materialise: bool| {
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let mut d3 = presets::intel_750_array();
        let p = Pipeline::from_trace_ref(old)
            .chunk_size(37)
            .reconstruct(&mut d1, TraceTracker::new())
            .replay(&mut d2, StreamReplay::OpenLoop { time_scale: 1.0 })
            .replay(&mut d3, StreamReplay::ClosedLoop);
        let p = if materialise { p.materialize() } else { p };
        p.collect().unwrap()
    };
    assert_eq!(run(false), run(true));
}

/// A chain ending in an analysis terminal routes through the same fused
/// executor and matches the materialised analysis exactly.
#[test]
fn fused_chain_analysis_terminals_match() {
    let old = old_trace();
    let analyse = |materialise: bool| {
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let p = Pipeline::from_trace_ref(old)
            .chunk_size(64)
            .reconstruct(&mut d1, Revision::new())
            .replay(&mut d2, StreamReplay::ClosedLoop);
        let p = if materialise { p.materialize() } else { p };
        p.stats().unwrap()
    };
    assert_eq!(analyse(false), analyse(true));
}

/// Errors cross stage boundaries: a failing terminal sink surfaces its
/// own error from a fused chain (the upstream workers shut down instead
/// of hanging or masking it).
#[test]
fn fused_chain_propagates_sink_errors() {
    struct FailingSink;
    impl RecordSink for FailingSink {
        fn push_chunk(&mut self, _: &[BlockRecord]) -> Result<(), TraceError> {
            Err(TraceError::Io("disk full (test)".to_string()))
        }
        fn finish(&mut self) -> Result<(), TraceError> {
            Ok(())
        }
        fn sink_name(&self) -> &str {
            "failing"
        }
    }

    let old = old_trace();
    let mut d1 = presets::intel_750_array();
    let mut d2 = presets::intel_750_array();
    let err = Pipeline::from_trace_ref(old)
        .chunk_size(32)
        .reconstruct(&mut d1, TraceTracker::new())
        .replay(&mut d2, StreamReplay::ClosedLoop)
        .write_to(&mut FailingSink)
        .unwrap_err();
    assert!(err.to_string().contains("disk full"), "{err}");
}

/// Multi-stream concurrent replay through the Pipeline API equals the
/// sequential per-trace reference: schedules built per input trace, fed
/// to the tagged concurrent core directly.
#[test]
fn pipeline_replay_concurrent_matches_direct_reference() {
    let tenant = |name: &str, n: usize, seed: u64| {
        let entry = catalog::find(name).expect("workload in catalog");
        let session = generate_session(name, &entry.profile, n, seed);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    };
    let traces = vec![
        tenant("MSNFS", 300, 1),
        tenant("webusers", 220, 2),
        tenant("homes", 180, 3),
    ];

    for mode in [
        StreamReplay::OpenLoop { time_scale: 1.0 },
        StreamReplay::ClosedLoop,
    ] {
        // Reference: per-trace schedules through the tt_sim core.
        let schedules: Vec<Schedule> = traces
            .iter()
            .map(|t| match mode {
                StreamReplay::OpenLoop { time_scale } => Schedule::open_loop(t, time_scale),
                StreamReplay::ClosedLoop => Schedule::closed_loop(t),
            })
            .collect();
        let mut ref_dev = presets::intel_750_array();
        let reference = replay_concurrent_tagged(
            &mut ref_dev,
            &schedules,
            "concurrent",
            ReplayConfig::default(),
        );

        // Pipeline, at several chunk sizes.
        for chunk in [1usize, 19, 100_000] {
            let mut dev = presets::intel_750_array();
            let out = Pipeline::from_trace_refs(&traces)
                .chunk_size(chunk)
                .replay_concurrent(&mut dev, mode)
                .replay_outcome()
                .unwrap();
            assert_eq!(out.outcome.trace, reference.outcome.trace, "chunk {chunk}");
            assert_eq!(out.stream_of, reference.stream_of);
            assert_eq!(out.outcome.makespan, reference.outcome.makespan);

            // Per-stream demux partitions the merged trace exactly and
            // preserves each tenant's request stream.
            let mut dev2 = presets::intel_750_array();
            let per_stream = Pipeline::from_trace_refs(&traces)
                .chunk_size(chunk)
                .replay_concurrent(&mut dev2, mode)
                .collect_all()
                .unwrap();
            assert_eq!(per_stream.len(), traces.len());
            let names: Vec<String> = traces.iter().map(|t| t.meta().name.clone()).collect();
            assert_eq!(per_stream, reference.split_traces(&names));
            for (tenant_out, tenant_in) in per_stream.iter().zip(&traces) {
                assert_eq!(tenant_out.len(), tenant_in.len());
            }
        }
    }
}

/// Without a replay stage the multi-stream terminals are exactly N
/// independent single-stream pipelines (collect_all / stats_per_stream),
/// and collect_merged is the stable arrival merge of the inputs.
#[test]
fn multi_pipeline_without_stage_matches_single_stream_runs() {
    let entry = catalog::find("MSNFS").unwrap();
    let t1 = {
        let session = generate_session("MSNFS", &entry.profile, 120, 7);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    };
    let t2 = {
        let session = generate_session("MSNFS", &entry.profile, 90, 8);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    };
    let traces = vec![t1.clone(), t2.clone()];

    let all = Pipeline::from_trace_refs(&traces).collect_all().unwrap();
    assert_eq!(all[0], t1);
    assert_eq!(all[1], t2);

    let stats = Pipeline::from_trace_refs(&traces)
        .stats_per_stream()
        .unwrap();
    assert_eq!(stats[0], TraceStats::compute(&t1));
    assert_eq!(stats[1], TraceStats::compute(&t2));

    let merged = Pipeline::from_trace_refs(&traces).collect_merged().unwrap();
    assert_eq!(merged.len(), t1.len() + t2.len());
    assert!(merged
        .records()
        .windows(2)
        .all(|w| w[0].arrival <= w[1].arrival));
}

/// write_paths demultiplexes a concurrent replay into per-stream files
/// whose contents round-trip to the demuxed traces.
#[test]
fn multi_pipeline_write_paths_round_trips() {
    let entry = catalog::find("webusers").unwrap();
    let make = |seed: u64| {
        let session = generate_session("webusers", &entry.profile, 80, seed);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    };
    let traces = vec![make(1), make(2)];
    let dir = std::env::temp_dir();
    let paths = [dir.join("tt_fused_ws0.ttb"), dir.join("tt_fused_ws1.csv")];

    let mut dev = presets::intel_750_array();
    let stats = Pipeline::from_trace_refs(&traces)
        .replay_concurrent(&mut dev, StreamReplay::ClosedLoop)
        .write_paths(&paths)
        .unwrap();
    assert_eq!(stats.len(), 2);

    let mut dev2 = presets::intel_750_array();
    let expect = Pipeline::from_trace_refs(&traces)
        .replay_concurrent(&mut dev2, StreamReplay::ClosedLoop)
        .collect_all()
        .unwrap();
    for (path, expect) in paths.iter().zip(&expect) {
        let back = Pipeline::from_path(path).collect().unwrap();
        assert_eq!(back.records(), expect.records());
        std::fs::remove_file(path).ok();
    }

    // Path-count mismatch fails before any work.
    let err = Pipeline::from_trace_refs(&traces)
        .write_paths(&[dir.join("tt_fused_one.csv")])
        .unwrap_err();
    assert!(err.to_string().contains("one output per stream"), "{err}");
}
