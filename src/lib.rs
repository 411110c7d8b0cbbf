#![forbid(unsafe_code)]
//! # TraceTracker — hardware/software co-evaluation for I/O workload reconstruction
//!
//! A full reproduction of *TraceTracker: Hardware/Software Co-Evaluation
//! for Large-Scale I/O Workload Reconstruction* (Kwon et al., IISWC 2017),
//! built as a Rust workspace around a **streaming, columnar, parallel**
//! trace pipeline:
//!
//! | crate | contents |
//! |---|---|
//! | [`trace`] (`tt-trace`) | block-trace data model: columnar [`TraceStore`](trace::TraceStore) (struct-of-arrays), streaming [`RecordSource`](trace::RecordSource) readers, single-pass grouping, CSV/blkparse/TTB formats |
//! | [`stats`] (`tt-stats`) | ECDF/PDF numerics over borrowed sample slices, Algorithm 1 steepness, pchip/spline interpolation |
//! | [`device`] (`tt-device`) | HDD, flash SSD / array, linear device models |
//! | [`sim`] (`tt-sim`) | discrete-event replay engine, blktrace-style collector, chunked source-to-sink streaming replay ([`sim::replay_source_into`]), streamed concurrent replay ([`sim::replay_concurrent_sources`]) |
//! | [`workloads`] (`tt-workloads`) | 31-workload Table I catalog, session generator |
//! | [`core`] (`tt-core`) | inference (parallel per-group CDF analysis), reconstruction methods, verification, reports |
//! | [`par`] (`tt-par`) | deterministic scoped-thread parallel helpers behind grouping/inference, plus the bounded SPSC channel ([`par::bounded`]) behind the fused executor |
//!
//! Traces live in struct-of-arrays columns, are consumed chunk-by-chunk
//! from disk, and fan grouping + per-group CDF analysis out across cores —
//! with **bit-identical** results at any worker count
//! ([`par::set_threads`]). External dependencies (`serde`, `rand`,
//! `proptest`) are satisfied by offline stand-ins under
//! `compat/`, so the workspace builds with no registry access.
//!
//! This facade re-exports every crate, adds the [`Pipeline`] builder —
//! the public API the CLI, examples, and applications compose the
//! workspace through — and offers a [`prelude`].
//!
//! ## Quickstart: the `Pipeline` API
//!
//! `RecordSource → stages → RecordSink`: start a pipeline from a file, a
//! streaming source, or a trace; chain transform stages; end in a
//! collected trace, a streamed sink, or an analysis result.
//!
//! ```
//! use tracetracker::prelude::*;
//!
//! // 1. A decade-old trace: webusers behaviour on a 2007 disk.
//! let entry = catalog::find("webusers").unwrap();
//! let session = generate_session("webusers", &entry.profile, 300, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! // 2. Revive it on an all-flash array with TraceTracker
//! //    (`from_trace_ref` borrows — the old trace is not copied).
//! let mut new_node = presets::intel_750_array();
//! let revived = Pipeline::from_trace_ref(&old)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .collect()
//!     .unwrap();
//! assert_eq!(revived.len(), old.len());
//!
//! // Analysis terminals ride the same builder:
//! let estimate = Pipeline::from_trace_ref(&old)
//!     .infer(&InferenceConfig::default())
//!     .unwrap()
//!     .estimate;
//! assert!(estimate.beta_ns_per_sector >= 0.0);
//! ```
//!
//! ## Streaming quickstart
//!
//! When a pipeline ends in a sink ([`Pipeline::write_to`] /
//! [`Pipeline::write_path`]), the final stage pushes records into it chunk
//! by chunk as they are produced — reconstructing a trace **to disk**
//! holds one trace in memory, never two. Sources stream the same way on
//! the read side.
//!
//! ```
//! use tracetracker::prelude::*;
//! use tracetracker::trace::format::csv::{CsvSink, CsvSource};
//!
//! let file = "# trace\n0.0,R,0,8\n150.5,R,8,8\n900.0,W,5000,16\n";
//!
//! // Stream-parse → reconstruct → stream-serialise, 64Ki records a chunk.
//! let mut device = presets::intel_750_array();
//! let mut out = Vec::new();
//! let stats = Pipeline::from_source(CsvSource::new(file.as_bytes()), "demo")
//!     .reconstruct(&mut device, TraceTracker::new())
//!     .write_to(&mut CsvSink::new(&mut out, "demo"))
//!     .unwrap();
//! assert_eq!(stats.records, 3);
//! assert!(String::from_utf8(out).unwrap().starts_with("# trace: demo"));
//!
//! // Or replay the stream against a device, source to sink, without
//! // building either trace.
//! let mut source = CsvSource::new(file.as_bytes());
//! let mut out = Vec::new();
//! let replayed = replay_source_into(
//!     &mut device,
//!     &mut source,
//!     StreamReplay::OpenLoop { time_scale: 1.0 },
//!     65_536,
//!     ReplayConfig::default(),
//!     &mut CsvSink::new(&mut out, "demo"),
//! ).unwrap();
//! assert_eq!(replayed.stats.records, 3);
//! ```
//!
//! The pre-`Pipeline` free functions (`infer`, `Reconstructor::
//! reconstruct`, `write_csv`, …) remain available and are thin drains over
//! the same streaming code paths — byte-identical output, property-tested.
//!
//! ## Fused chains: `reconstruct → replay` without the middle trace
//!
//! Multi-stage chains run on the **fused streaming executor** by default:
//! each transform stage is a worker on its own scoped thread, connected
//! to the next by a bounded chunk channel ([`par::bounded`], capacity
//! [`FUSED_CHANNEL_CHUNKS`] chunks — the backpressure bound). The paper's
//! co-evaluation chain therefore holds the input trace plus a handful of
//! in-flight chunks, never a materialised intermediate trace:
//!
//! ```
//! use tracetracker::prelude::*;
//!
//! let entry = catalog::find("MSNFS").unwrap();
//! let session = generate_session("MSNFS", &entry.profile, 200, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! // Reconstruct onto a flash array AND replay the result closed-loop on
//! // a second array, in one fused pass: replay consumes reconstructed
//! // chunks the moment the simulated device produces them.
//! let mut new_node = presets::intel_750_array();
//! let mut probe_node = presets::intel_750_array();
//! let probe = std::sync::Arc::new(ChannelProbe::new());
//! let serviced = Pipeline::from_trace_ref(&old)
//!     .channel_probe(&probe)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .replay(&mut probe_node, StreamReplay::ClosedLoop)
//!     .collect()
//!     .unwrap();
//! assert_eq!(serviced.len(), old.len());
//! // The probe witnesses the bound: never more than the channel capacity
//! // in flight between the two stages.
//! assert!(probe.peak_depth() <= tracetracker::FUSED_CHANNEL_CHUNKS);
//! ```
//!
//! Fused and materialised ([`Pipeline::materialize`]) execution are
//! **bit-identical** at any chunk size and worker count
//! (property-tested); ordering is part of the executor contract — every
//! stage consumes and emits records in arrival order, so nothing is ever
//! re-sorted between stages. One caveat is algorithmic, not executor
//! overhead: a *mid-chain* reconstruction stage collects its own input
//! first, because timing inference reads its whole input trace.
//!
//! ## Multi-stream fan-in: the co-evaluation scenarios
//!
//! [`Pipeline::from_paths`] / [`Pipeline::from_sources`] /
//! [`Pipeline::from_traces`] / [`Pipeline::from_trace_refs`] open a
//! [`MultiPipeline`]: N input streams, each record tagged with its origin
//! stream, merged in arrival order ([`trace::MultiSource`]). The
//! [`MultiPipeline::replay_concurrent`] stage routes the streams through
//! the shared-device concurrent replay core
//! ([`sim::replay_concurrent_sources`]) — several tenants, one storage
//! box — pulling each stream chunk by chunk, and the per-stream terminals
//! ([`MultiPipeline::collect_all`], [`MultiPipeline::write_paths`],
//! [`MultiPipeline::stats_per_stream`]) demultiplex the merged result by
//! tag. `tt-cli replay a.csv b.csv c.csv` is the command-line spelling.
//! See `examples/multi_tenant.rs` for the full consolidation study.
//!
//! ## Reload-heavy workflows: the TTB binary cache
//!
//! Re-analysing the same trace many times pays CSV parsing on every
//! reload. Convert once to the native binary columnar format
//! ([`trace::format::ttb`], extension `.ttb`) and reloads become validated
//! bulk reads straight into the columnar store — one `write_path` away:
//!
//! ```no_run
//! use tracetracker::prelude::*;
//!
//! // Convert once (also: `tt-cli convert trace.csv trace.ttb`)...
//! Pipeline::from_path("trace.csv").write_path("trace.ttb").unwrap();
//! // ...reload many, ~an order of magnitude faster than parsing the CSV.
//! let trace = Pipeline::from_path("trace.ttb").collect().unwrap();
//! # let _ = trace;
//! ```
//!
//! The cache is lossless (`CSV → TTB → CSV` is byte-identical,
//! property-tested) and corrupt or truncated files are rejected with
//! clear errors; see `examples/binary_cache.rs` for the full workflow.
//!
//! ## Zero-copy analysis: the memory-mapped `.ttb` view
//!
//! Even the bulk read pays one full copy of every column into heap
//! `Vec`s. Stage-less **analysis terminals** on a `.ttb` input skip it:
//! the file is memory-mapped ([`trace::MmapTrace`]) and the columns are
//! grouped/inferred/summarised **in place**, straight out of the page
//! cache — O(1) resident growth for the load step:
//!
//! ```no_run
//! use tracetracker::prelude::*;
//!
//! // Mapped automatically: no bulk copy before the analysis starts.
//! let cfg = InferenceConfig::default();
//! let result = Pipeline::from_path("trace.ttb").infer(&cfg).unwrap();
//! # let _ = result;
//! ```
//!
//! Safety and equivalence contract: the map is validated once at open
//! (header, blocks, trailer, op bytes, sector counts, timing order,
//! alignment pads), misaligned or corrupt files can never reach a typed
//! view, and every analysis result is **bit-identical** to the bulk-read
//! path (property-tested). Files that cannot be viewed in place —
//! TTB v1, multi-block streams, unsorted blocks — transparently fall back
//! to the copying decode, as do consumers that need ownership (transform
//! stages, [`Pipeline::verify`]'s idle injection). Knobs:
//! [`Pipeline::mmap`] (default on) and `tt-cli --mmap`/`--no-mmap`; the
//! exact zero-copy conditions live in [`trace::format::ttb`].
//!
//! ## Observability & tuning: the flight recorder and `auto()`
//!
//! Attach a [`FlightRecorder`] and every run reports **per-stage** timing:
//! busy time, time blocked sending into a full downstream queue, time
//! blocked starving on an empty upstream one — measured at the bounded
//! channel boundaries with a monotonic clock — plus record/chunk counts
//! and queue high-water marks. The assembled [`FlightLog`] renders as
//! one line of JSON ([`FlightLog::to_json`], the shape `tt-cli --timings`
//! emits) or one human line per stage ([`FlightLog::render`]). Recording
//! only observes: outputs are **bit-identical** with the recorder on or
//! off, and the bench gates its overhead below 5%
//! (see [`par::telemetry`] for the exact contract).
//!
//! ```
//! use std::sync::Arc;
//! use tracetracker::prelude::*;
//! use tracetracker::FlightRecorder;
//!
//! let entry = catalog::find("MSNFS").unwrap();
//! let session = generate_session("MSNFS", &entry.profile, 300, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! let mut new_node = presets::intel_750_array();
//! let mut replay_node = presets::intel_750_array();
//! let recorder = Arc::new(FlightRecorder::new());
//! Pipeline::from_trace_ref(&old)
//!     .flight_recorder(&recorder)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .replay(&mut replay_node, StreamReplay::ClosedLoop)
//!     .collect()
//!     .unwrap();
//!
//! let log = recorder.flight_log();
//! assert_eq!(log.stages.len(), 3); // load + reconstruct + replay
//! println!("{}", log.render());
//! ```
//!
//! [`Pipeline::auto`] closes the loop: it picks the worker count, chunk
//! size and channel capacity itself — the capacity from a short
//! calibration prefix timed by a private recorder (see [`tune`] for the
//! policy). Every knob is output-invariant, so `auto()` is always safe;
//! `tt-cli --parallel auto` is the command-line spelling.
//! `examples/flight_recorder.rs` walks through reading a flight log and
//! what each imbalance means.

#![warn(missing_docs)]

pub use tt_core as core;
pub use tt_device as device;
pub use tt_par as par;
pub use tt_sim as sim;
pub use tt_stats as stats;
pub use tt_trace as trace;
pub use tt_workloads as workloads;

mod multi_pipeline;
mod pipeline;
pub mod tune;

pub use multi_pipeline::MultiPipeline;
pub use pipeline::{Pipeline, FUSED_CHANNEL_CHUNKS};
pub use tt_par::telemetry::{ChannelStats, FlightLog, FlightRecorder, StageReport};

/// One-stop imports for applications using the pipeline end to end.
pub mod prelude {
    pub use crate::multi_pipeline::MultiPipeline;
    pub use crate::pipeline::Pipeline;
    pub use tt_core::{
        infer, infer_columns, verify_injection, Acceleration, Decomposition, DeviceEstimate,
        Dynamic, FixedThreshold, InferenceConfig, InferenceResult, Reconstructor, Revision,
        TraceTracker, VerifyConfig,
    };
    pub use tt_device::{
        presets, BlockDevice, FaultPlan, FaultyDevice, IoRequest, ServiceFault, ServiceOutcome,
    };
    pub use tt_par::bounded::ChannelProbe;
    pub use tt_par::telemetry::{FlightLog, FlightRecorder, StageReport};
    pub use tt_sim::{
        replay, replay_concurrent, replay_concurrent_sources, replay_concurrent_tagged,
        replay_into, replay_source_into, ConcurrentOutcome, FaultEvent, FaultStats, IssueMode,
        ReplayConfig, RetryPolicy, Schedule, ScheduledOp, StreamReplay,
    };
    pub use tt_trace::{
        time::{SimDuration, SimInstant},
        BlockRecord, Columns, ErrorPolicy, GroupedTrace, MmapTrace, MultiSource, OpType,
        QuarantineLog, RecordSink, RecordSource, SinkStats, TaggedRecord, TolerantSource, Trace,
        TraceError, TraceMeta, TraceSink, TraceStats, TraceStore,
    };
    pub use tt_workloads::{catalog, generate_session, inject_idle, Session, WorkloadProfile};
}
