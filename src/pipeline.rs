//! The composable [`Pipeline`] builder: `RecordSource → stages →
//! RecordSink`.
//!
//! Every consumer of the workspace used to hand-wire the same sequence —
//! open a file, pick a format reader, collect, group, infer, reconstruct,
//! pick a format writer, save. [`Pipeline`] makes that sequence the public
//! API: one builder chains an input ([`Pipeline::from_path`],
//! [`Pipeline::from_source`], [`Pipeline::from_trace`]) through transform
//! stages ([`Pipeline::reconstruct`], [`Pipeline::replay`]) into a
//! terminal ([`Pipeline::collect`], [`Pipeline::write_to`],
//! [`Pipeline::write_path`], or the analysis terminals
//! [`Pipeline::group`], [`Pipeline::infer`], [`Pipeline::stats`],
//! [`Pipeline::verify`]).
//!
//! # The fused streaming executor
//!
//! Multi-stage pipelines run **fused** by default: every transform stage
//! is a worker on its own scoped thread, connected to the next stage by a
//! bounded chunk channel ([`tt_par::bounded`], capacity a small multiple
//! of [`Pipeline::chunk_size`]). Records flow stage-to-stage chunk by
//! chunk the moment they are produced, so a `reconstruct → replay` chain
//! holds the input trace plus a handful of **in-flight chunks** — never a
//! materialised intermediate trace. When a stage falls behind, the
//! channel's capacity is the backpressure: the upstream worker blocks
//! instead of buffering. [`Pipeline::materialize`] is the escape hatch
//! back to the classic stage-at-a-time executor (run a stage, collect its
//! trace, feed the next); the two are **bit-identical** on every chain at
//! every chunk size and worker count (property-tested), and
//! [`Pipeline::channel_probe`] exposes the peak channel depth that proves
//! the fused bound held.
//!
//! Two contracts make the fusion exact rather than approximate:
//!
//! * **Ordering** — every stage consumes and emits records in arrival
//!   order (reconstruction's §IV post-processing is an online prefix
//!   transform; replay issues monotonically), so no stage needs to re-sort
//!   what flows through a channel, and stable ties keep their upstream
//!   order.
//! * **Stage appetite** — a replay stage is record-incremental and
//!   consumes its channel directly ([`tt_sim::replay_source_into`]); a
//!   reconstruction stage infers timing from its *whole* input, so a
//!   mid-chain reconstruction collects its own input first — that trace is
//!   the algorithm's requirement, not executor overhead, and chains where
//!   reconstruction comes first (the paper's `reconstruct → replay`
//!   co-evaluation shape) stay fully streaming.
//!
//! The final stage additionally **streams into the terminal**: when a
//! pipeline ends in a sink, the last transform pushes records
//! chunk-by-chunk into it ([`Reconstructor::reconstruct_into`],
//! [`tt_sim::replay_into`]) as the simulated device produces them.
//! Pipelines with no transform stage still materialise the input once
//! (traces are arrival-sorted; sorting needs the whole trace) and then
//! stream it out column-by-column without ever building row caches.
//!
//! # Multi-stream fan-in
//!
//! [`Pipeline::from_paths`] / [`Pipeline::from_sources`] /
//! [`Pipeline::from_traces`] open a [`MultiPipeline`]: N tagged input
//! streams, a [`MultiPipeline::replay_concurrent`] stage that routes them
//! through the shared-device concurrent replay core, and per-stream
//! terminals ([`MultiPipeline::collect_all`],
//! [`MultiPipeline::write_paths`], [`MultiPipeline::stats_per_stream`])
//! that demultiplex the merged result.
//!
//! Stage-less **analysis** of a `.ttb` input goes one step further: the
//! file is memory-mapped ([`tt_trace::MmapTrace`]) and its columns are
//! analysed *in place* — no bulk copy at all for single-block v2 files
//! (the kind every whole-trace write produces), with a transparent
//! copying fallback otherwise and bit-identical results on every path.
//! [`Pipeline::mmap`] is the knob (default on), `tt-cli --no-mmap` the
//! command-line escape hatch.
//!
//! Outputs are identical to calling the underlying free functions by hand:
//! the free functions *are* drains over the same streaming code paths
//! (property-tested).
//!
//! # Examples
//!
//! Revive an old trace on a flash array and collect the result:
//!
//! ```
//! use tracetracker::prelude::*;
//!
//! let entry = catalog::find("MSNFS").unwrap();
//! let session = generate_session("MSNFS", &entry.profile, 300, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! let mut new_node = presets::intel_750_array();
//! let revived = Pipeline::from_trace_ref(&old)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .collect()
//!     .unwrap();
//! assert_eq!(revived.len(), old.len());
//! ```

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tt_core::{
    infer, infer_columns, verify_injection, InferenceConfig, InferenceResult, Reconstructor,
};
use tt_device::BlockDevice;
use tt_par::bounded::{self, ChannelProbe};
use tt_par::telemetry::{ChannelStats, FlightRecorder};
use tt_sim::{replay_into, replay_source_into, ReplayConfig, Schedule, StreamReplay};
use tt_trace::sink::{drain_trace, RecordSink, SinkStats};
use tt_trace::source::{collect_source, RecordSource, DEFAULT_CHUNK};
use tt_trace::time::SimDuration;
use tt_trace::tolerant::{ErrorPolicy, TolerantSource};
use tt_trace::{
    format, BlockRecord, GroupedTrace, MmapTrace, Trace, TraceError, TraceMeta, TraceStats,
};

pub use crate::multi_pipeline::MultiPipeline;

/// Where a pipeline's records come from.
enum Input<'env> {
    /// A trace file, format detected by extension at execution time.
    Path(PathBuf),
    /// Any streaming source, with the metadata the collected trace carries.
    Source {
        source: Box<dyn RecordSource + 'env>,
        meta: TraceMeta,
    },
    /// An already-materialised trace.
    Trace(Trace),
    /// A borrowed trace — analysis and single-stage pipelines run without
    /// copying it.
    TraceRef(&'env Trace),
    /// A borrowed, already-validated mapping — the resident-service input:
    /// many concurrent pipelines share one `Arc<MmapTrace>`, and stage-less
    /// analysis terminals read its columns in place.
    Mapped(&'env MmapTrace),
}

/// A record-transform stage.
pub(crate) enum Stage<'env> {
    /// Reconstruction: old trace + target device → new trace.
    Reconstruct {
        device: &'env mut dyn BlockDevice,
        method: Box<dyn Reconstructor + 'env>,
    },
    /// Replay: re-issue the request stream against a device.
    Replay {
        device: &'env mut dyn BlockDevice,
        mode: StreamReplay,
        config: ReplayConfig,
    },
}

impl Stage<'_> {
    /// The stage's label in flight logs and `Debug` output.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Stage::Reconstruct { .. } => "reconstruct",
            Stage::Replay { .. } => "replay",
        }
    }

    /// A snapshot clone of the stage's device, for calibration runs that
    /// must not perturb the real device ([`crate::tune`]).
    pub(crate) fn snapshot_device(&self) -> Option<Box<dyn BlockDevice>> {
        match self {
            Stage::Reconstruct { device, .. } => device.snapshot(),
            Stage::Replay { device, .. } => device.snapshot(),
        }
    }

    /// Runs the stage materialised against a *caller-provided* device —
    /// the calibration shape: [`run_stage`] on a snapshot clone, leaving
    /// the stage (and its real device) untouched.
    pub(crate) fn run_calibration(
        &self,
        trace: &Trace,
        device: &mut dyn BlockDevice,
        chunk: usize,
    ) -> Result<Trace, TraceError> {
        match self {
            Stage::Reconstruct { method, .. } => Ok(method.reconstruct(trace, device)),
            Stage::Replay { mode, config, .. } => {
                let mut sink = tt_trace::TraceSink::new(
                    TraceMeta::named(trace.meta().name.clone()).with_source("tt-sim collector"),
                );
                // The sink is in-memory, but a faulty device with an abort
                // policy can still fail the replay — propagate it.
                replay_stage_into(device, trace, *mode, *config, &mut sink, chunk)?;
                Ok(sink.into_trace())
            }
        }
    }
}

/// A composable trace pipeline: input → transform stages → terminal.
///
/// See the crate-level docs for the overall shape. The builder is
/// consumed by its terminal; configuration methods
/// ([`Pipeline::chunk_size`], [`Pipeline::parallel`]) apply to the whole
/// run.
#[must_use = "a Pipeline does nothing until a terminal (collect/write_to/…) runs it"]
pub struct Pipeline<'env> {
    input: Input<'env>,
    stages: Vec<Stage<'env>>,
    chunk: usize,
    /// `true` once [`Pipeline::chunk_size`] was called — [`Pipeline::auto`]
    /// only tunes knobs the caller left untouched.
    chunk_set: bool,
    threads: Option<usize>,
    use_mmap: bool,
    fused: bool,
    /// Fused stage-boundary channel capacity, in chunks
    /// (default [`FUSED_CHANNEL_CHUNKS`]).
    capacity: Option<usize>,
    auto: bool,
    probe: Option<Arc<ChannelProbe>>,
    recorder: Option<Arc<FlightRecorder>>,
    on_error: ErrorPolicy,
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let input = match &self.input {
            Input::Path(p) => format!("path {}", p.display()),
            Input::Source { meta, .. } => format!("source {:?}", meta.name),
            Input::Trace(ref t) => format!("trace {:?} ({} records)", t.meta().name, t.len()),
            Input::TraceRef(t) => format!("trace {:?} ({} records)", t.meta().name, t.len()),
            Input::Mapped(m) => format!("mapped {:?} ({} records)", m.meta().name, m.len()),
        };
        let stages: Vec<&str> = self.stages.iter().map(Stage::label).collect();
        f.debug_struct("Pipeline")
            .field("input", &input)
            .field("stages", &stages)
            .field("chunk", &self.chunk)
            .field("threads", &self.threads)
            .field("mmap", &self.use_mmap)
            .field("fused", &self.fused)
            .field("auto", &self.auto)
            .finish()
    }
}

impl<'env> Pipeline<'env> {
    fn new(input: Input<'env>) -> Self {
        Pipeline {
            input,
            stages: Vec::new(),
            chunk: DEFAULT_CHUNK,
            chunk_set: false,
            threads: None,
            use_mmap: true,
            fused: true,
            capacity: None,
            auto: false,
            probe: None,
            recorder: None,
            on_error: ErrorPolicy::Abort,
        }
    }

    /// Starts a pipeline from a trace file; the format is detected from
    /// the extension (`.csv`/`.txt`/`.trace` for CSV, `.blk` for blkparse
    /// text, `.ttb` for the binary columnar format), and the file is read
    /// at execution time — text formats parse chunk-by-chunk, TTB is
    /// bulk-read straight into the columnar store.
    pub fn from_path(path: impl AsRef<Path>) -> Self {
        Pipeline::new(Input::Path(path.as_ref().to_path_buf()))
    }

    /// Starts a pipeline from any [`RecordSource`]; `name` becomes the
    /// collected trace's name.
    pub fn from_source(source: impl RecordSource + 'env, name: impl Into<String>) -> Self {
        let meta = TraceMeta::named(name).with_source(source.source_name());
        Pipeline::new(Input::Source {
            source: Box::new(source),
            meta,
        })
    }

    /// Starts a pipeline from an already-materialised trace.
    pub fn from_trace(trace: Trace) -> Self {
        Pipeline::new(Input::Trace(trace))
    }

    /// Starts a pipeline from a *borrowed* trace: analysis terminals and
    /// single-stage pipelines run without copying it (only a no-stage
    /// [`Pipeline::collect`] clones, since it must return an owned trace).
    /// Prefer this over `from_trace(trace.clone())` when the caller keeps
    /// using the trace — for the multi-GB traces this API targets, the
    /// clone doubles peak memory.
    pub fn from_trace_ref(trace: &'env Trace) -> Self {
        Pipeline::new(Input::TraceRef(trace))
    }

    /// Starts a pipeline from a *borrowed, already-open* mapping — the
    /// resident-service shape: a long-running process (`tt-serve`) opens
    /// each `.ttb` once ([`MmapTrace::open`], typically cached in a
    /// [`tt_trace::MmapRegistry`]) and then builds a fresh per-request
    /// pipeline over the shared mapping for every query.
    ///
    /// Stage-less **analysis terminals** ([`Pipeline::group`],
    /// [`Pipeline::infer`], [`Pipeline::stats`]) read the mapped columns
    /// in place — no copy, no re-validation, and any number of concurrent
    /// pipelines may share one mapping (the [`tt_trace::Columns`] borrow
    /// model guarantees aliasing safety; results are bit-identical to a
    /// single reader, property-tested). Transform stages and
    /// [`Pipeline::verify`] need an owned, mutable trace and copy the
    /// mapped columns out first ([`MmapTrace::to_trace`]) — results are
    /// bit-identical on every path, exactly as with [`Pipeline::mmap`].
    pub fn from_mapped(mapped: &'env MmapTrace) -> Self {
        Pipeline::new(Input::Mapped(mapped))
    }

    /// Sets the records-per-chunk used by streaming reads and writes
    /// (default [`DEFAULT_CHUNK`], clamped to at least 1).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self.chunk_set = true;
        self
    }

    /// Caps the worker threads used by grouping and inference (`0` = all
    /// cores, `1` = sequential). Parallel and sequential runs are
    /// bit-identical — the knob trades cores for wall-clock only.
    ///
    /// Replay stages ignore the knob: every replay stage runs the one
    /// sequential replay core, over the trace's schedule ops
    /// ([`tt_sim::replay_into`]) or, for a fused stage fed by an upstream
    /// stage, straight off its channel ([`tt_sim::replay_source_into`]),
    /// overlapping the stage before it. Sharding a stage's replay across
    /// cores at quiescent cuts measured slower than this sequential core
    /// on two cores, so the pipeline does not shard.
    ///
    /// The cap is applied via [`tt_par::set_threads`] when the pipeline
    /// executes and, like the CLI's `--parallel` flag, it is
    /// **process-global**: it stays in effect for later work until set
    /// again.
    pub fn parallel(mut self, workers: usize) -> Self {
        self.threads = Some(workers);
        self
    }

    /// Enables or disables the **memory-mapped** `.ttb` load path
    /// (default: enabled).
    ///
    /// When a stage-less pipeline starts from a `.ttb` path and ends in an
    /// analysis terminal ([`Pipeline::group`], [`Pipeline::infer`],
    /// [`Pipeline::stats`], [`Pipeline::verify`]), the file is mapped
    /// ([`MmapTrace`]) instead of bulk-read: validation runs once and the
    /// columns are analysed *in place*, skipping the copy into heap `Vec`s
    /// entirely for v2 single-block files (see
    /// [`tt_trace::format::ttb`](tt_trace::format::ttb) for the exact
    /// zero-copy conditions and the transparent copying fallback).
    /// Transform stages need an owned, mutable trace, so staged pipelines
    /// — and [`Pipeline::verify`], which injects idle into a copy — fall
    /// back to ownership; results are bit-identical on every path
    /// (property-tested).
    pub fn mmap(mut self, enabled: bool) -> Self {
        self.use_mmap = enabled;
        self
    }

    /// Switches a multi-stage pipeline back to the classic
    /// **stage-at-a-time** executor: each stage runs to completion and
    /// materialises its whole output trace before the next stage starts.
    ///
    /// Chains run **fused** by default — stages pipelined on worker
    /// threads, connected by bounded chunk channels, holding in-flight
    /// chunks instead of intermediate traces (see the module docs for the
    /// executor contract). Results are bit-identical either way
    /// (property-tested); materialising trades the peak-memory and
    /// pipelining win for a simpler single-threaded execution — useful
    /// for debugging and as the reference the fused executor is tested
    /// against.
    pub fn materialize(mut self) -> Self {
        self.fused = false;
        self
    }

    /// Attaches a traffic probe to every fused stage-boundary channel.
    ///
    /// After the terminal runs, [`ChannelProbe::peak_depth`] is the peak
    /// number of in-flight chunks buffered at any stage boundary (≤ the
    /// channel capacity by construction) and [`ChannelProbe::chunks`] the
    /// total chunks that flowed — the observable witness that a fused
    /// chain never materialised its intermediate stream. Single-stage and
    /// materialised runs never touch the probe.
    pub fn channel_probe(mut self, probe: &Arc<ChannelProbe>) -> Self {
        self.probe = Some(Arc::clone(probe));
        self
    }

    /// Sets the fused stage-boundary channel capacity, in chunks (default
    /// [`FUSED_CHANNEL_CHUNKS`], clamped to at least 1). A larger bound
    /// absorbs burstier stage imbalance at the cost of more in-flight
    /// memory; like every knob it never changes results — only peak memory
    /// and wall clock.
    pub fn channel_capacity(mut self, chunks: usize) -> Self {
        self.capacity = Some(chunks.max(1));
        self
    }

    /// Attaches a **flight recorder**: when the terminal runs, the
    /// recorder collects per-stage busy / blocked-on-send /
    /// blocked-on-recv time (measured at the bounded-channel boundaries
    /// with a monotonic clock), record and chunk counts, and queue
    /// high-water marks. Read the result with
    /// [`FlightRecorder::flight_log`] after the terminal returns.
    ///
    /// Recording only observes — outputs are **bit-identical** with the
    /// recorder on or off (property-tested), and the bench gates its
    /// overhead below 5%. See [`tt_par::telemetry`] for the exact
    /// recording contract.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tracetracker::prelude::*;
    /// use tracetracker::FlightRecorder;
    ///
    /// let entry = catalog::find("MSNFS").unwrap();
    /// let session = generate_session("MSNFS", &entry.profile, 300, 7);
    /// let mut node = presets::enterprise_hdd_2007();
    /// let old = session.materialize(&mut node, false).trace;
    ///
    /// let mut ssd = presets::intel_750_array();
    /// let mut fast = presets::intel_750_array();
    /// let recorder = Arc::new(FlightRecorder::new());
    /// Pipeline::from_trace_ref(&old)
    ///     .reconstruct(&mut ssd, TraceTracker::new())
    ///     .replay(&mut fast, StreamReplay::ClosedLoop)
    ///     .flight_recorder(&recorder)
    ///     .collect()
    ///     .unwrap();
    /// let log = recorder.flight_log();
    /// assert_eq!(log.stages.len(), 3); // load + reconstruct + replay
    /// for stage in &log.stages {
    ///     assert!(stage.busy + stage.send_wait + stage.recv_wait <= stage.wall);
    /// }
    /// ```
    pub fn flight_recorder(mut self, recorder: &Arc<FlightRecorder>) -> Self {
        self.recorder = Some(Arc::clone(recorder));
        self
    }

    /// Sets the pipeline's **error budget**: how malformed input records
    /// are handled when a text-format input (CSV / blkparse) is decoded.
    ///
    /// The default, [`ErrorPolicy::Abort`], keeps today's behaviour — any
    /// decode error fails the run. [`ErrorPolicy::Skip`] (`skip:N` on the
    /// CLI) tolerates up to `N` malformed records, logging each with its
    /// 1-based line number into the policy's [`QuarantineLog`]
    /// (keep a clone of the policy to read the report);
    /// [`ErrorPolicy::Quarantine`] is an unlimited budget. Only
    /// *recoverable* per-record parse errors are subject to the policy —
    /// I/O errors, structural format errors, and invariant violations
    /// always abort. Binary TTB inputs and in-memory inputs have no
    /// per-record decode step, so the knob is a no-op for them.
    ///
    /// The surviving records are exactly the clean subset of the input:
    /// a tolerant run over a dirty file is bit-identical to an abort run
    /// over the same file with the bad lines deleted (property-tested).
    ///
    /// [`QuarantineLog`]: tt_trace::tolerant::QuarantineLog
    pub fn on_error(mut self, policy: ErrorPolicy) -> Self {
        self.on_error = policy;
        self
    }

    /// Lets the pipeline **pick its own knobs**: worker count, chunk size
    /// and fused channel capacity. The worker count goes to all cores
    /// (every knob is output-invariant, so there is no accuracy reason to
    /// hold back); the chunk size scales with the input; and for chains of
    /// two or more stages a short **calibration prefix** of the input runs
    /// against snapshot clones of the stage devices, a private
    /// [`FlightRecorder`] times each stage, and the observed stall ratios
    /// pick the channel capacity (balanced stages get deeper buffering to
    /// absorb bursts; a persistent bottleneck keeps the default — extra
    /// depth would only add memory in front of it). See [`crate::tune`]
    /// for the exact policy.
    ///
    /// Knobs the caller already set explicitly ([`Pipeline::chunk_size`],
    /// [`Pipeline::parallel`], [`Pipeline::channel_capacity`]) are left
    /// alone. Calibration uses device snapshots, so the real devices see
    /// the workload exactly once — outputs stay **bit-identical** to any
    /// fixed setting (`tt-cli --parallel auto` is byte-compared against
    /// `--parallel 1` in CI).
    pub fn auto(mut self) -> Self {
        self.auto = true;
        self
    }

    /// Starts a **multi-stream** pipeline from several trace files — the
    /// fan-in front end: per-stream tags, arrival-ordered merge, and the
    /// [`MultiPipeline::replay_concurrent`] stage. See [`MultiPipeline`].
    pub fn from_paths<P: AsRef<Path>>(paths: impl IntoIterator<Item = P>) -> MultiPipeline<'env> {
        MultiPipeline::from_paths(paths)
    }

    /// Starts a multi-stream pipeline from `(name, source)` pairs; stream
    /// order fixes the tag indices (and tie-break rank on duplicate
    /// arrivals). See [`MultiPipeline`].
    pub fn from_sources(
        sources: Vec<(String, Box<dyn RecordSource + 'env>)>,
    ) -> MultiPipeline<'env> {
        MultiPipeline::from_sources(sources)
    }

    /// Starts a multi-stream pipeline from already-materialised traces,
    /// one stream per trace. See [`MultiPipeline`].
    pub fn from_traces(traces: Vec<Trace>) -> MultiPipeline<'env> {
        MultiPipeline::from_traces(traces)
    }

    /// Starts a multi-stream pipeline from *borrowed* traces — no copies;
    /// the streams read straight off the columns. See [`MultiPipeline`].
    pub fn from_trace_refs(traces: &'env [Trace]) -> MultiPipeline<'env> {
        MultiPipeline::from_trace_refs(traces)
    }

    /// The mapped view of the input, when this pipeline qualifies for the
    /// mmap fast path: `.ttb` path input, no transform stages, knob
    /// enabled. Any open/validation *error* falls back to `None` — the
    /// ordinary load path re-raises it with the file-path context, keeping
    /// error behaviour identical whether the knob is on or off.
    fn try_mmap(&self) -> Option<MmapTrace> {
        if !self.use_mmap || !self.stages.is_empty() {
            return None;
        }
        let Input::Path(path) = &self.input else {
            return None;
        };
        if format::TraceFormat::from_path(path) != Ok(format::TraceFormat::Ttb) {
            return None;
        }
        if let Some(workers) = self.threads {
            tt_par::set_threads(workers);
        }
        MmapTrace::open(path).ok()
    }

    /// The shared mapped columns, when this pipeline is a stage-less run
    /// over a [`Pipeline::from_mapped`] input — the borrow outlives the
    /// builder (it comes from the caller's mapping, lifetime `'env`), so
    /// analysis terminals consume the view after the builder is gone.
    fn shared_columns(&self) -> Option<tt_trace::Columns<'env>> {
        if !self.stages.is_empty() {
            return None;
        }
        let mapped: &'env MmapTrace = match &self.input {
            Input::Mapped(mapped) => mapped,
            _ => return None,
        };
        if let Some(workers) = self.threads {
            tt_par::set_threads(workers);
        }
        Some(mapped.columns())
    }

    /// Appends a reconstruction stage: the current trace is treated as the
    /// *old* workload and re-targeted to `device` with `method`
    /// ([`TraceTracker`](tt_core::TraceTracker) and friends). When this is
    /// the final stage before a sink terminal, records stream into the
    /// sink as the simulated device produces them.
    pub fn reconstruct(
        mut self,
        device: &'env mut dyn BlockDevice,
        method: impl Reconstructor + 'env,
    ) -> Self {
        self.stages.push(Stage::Reconstruct {
            device,
            method: Box::new(method),
        });
        self
    }

    /// Appends a replay stage: the current request stream is re-issued
    /// against `device` open- or closed-loop ([`StreamReplay`]), collecting
    /// the serviced trace blktrace-style. The device is **not** reset
    /// first — a warm cache/head position can be intentional, matching
    /// [`tt_sim::replay`].
    pub fn replay(mut self, device: &'env mut dyn BlockDevice, mode: StreamReplay) -> Self {
        self.stages.push(Stage::Replay {
            device,
            mode,
            config: ReplayConfig::default(),
        });
        self
    }

    /// Like [`Pipeline::replay`] with an explicit [`ReplayConfig`] (e.g. to
    /// collect a `Tsdev`-unknown trace without device-side timing).
    pub fn replay_with(
        mut self,
        device: &'env mut dyn BlockDevice,
        mode: StreamReplay,
        config: ReplayConfig,
    ) -> Self {
        self.stages.push(Stage::Replay {
            device,
            mode,
            config,
        });
        self
    }

    /// Applies the worker-count knob, loads the input trace (borrowed
    /// when the input was [`Pipeline::from_trace_ref`]), runs the
    /// autotuner when [`Pipeline::auto`] asked for it, and returns the
    /// trace with the stages and resolved execution knobs.
    fn load_input(self) -> Result<(Cow<'env, Trace>, Vec<Stage<'env>>, Exec), TraceError> {
        if let Some(workers) = self.threads {
            tt_par::set_threads(workers);
        } else if self.auto {
            // Every knob is output-invariant, so auto always takes all
            // cores — there is nothing to trade but wall clock.
            tt_par::set_threads(0);
        }
        let load_started = Instant::now();
        let policy = self.on_error;
        let trace: Cow<'env, Trace> = match self.input {
            Input::Path(path) => {
                let tolerant_text = !policy.is_abort()
                    && format::TraceFormat::from_path(&path)
                        .is_ok_and(|f| f != format::TraceFormat::Ttb);
                if tolerant_text {
                    // Error-budget decode: stream the text format through a
                    // TolerantSource so malformed lines are skipped (and
                    // quarantined) instead of failing the run. TTB is
                    // binary-columnar — no per-record decode to tolerate —
                    // so it stays on the bulk path below.
                    let meta = format::meta_for_path(&path)?;
                    let source =
                        format::open_source(&path).map_err(|e| with_path_context(e, &path))?;
                    let mut tolerant = TolerantSource::new(source, policy);
                    Cow::Owned(
                        collect_source(&mut tolerant, meta, self.chunk)
                            .map_err(|e| with_path_context(e, &path))?,
                    )
                } else {
                    // `load_trace` takes the fastest per-format route: TTB
                    // is bulk-read straight into the columns, text formats
                    // stream through their RecordSource.
                    Cow::Owned(
                        format::load_trace(&path, self.chunk)
                            .map_err(|e| with_path_context(e, &path))?,
                    )
                }
            }
            Input::Source { mut source, meta } => {
                if policy.is_abort() {
                    Cow::Owned(collect_source(&mut *source, meta, self.chunk)?)
                } else {
                    let mut tolerant = TolerantSource::new(source, policy);
                    Cow::Owned(collect_source(&mut tolerant, meta, self.chunk)?)
                }
            }
            Input::Trace(trace) => Cow::Owned(trace),
            Input::TraceRef(trace) => Cow::Borrowed(trace),
            // Stages and owning terminals copy the mapped columns out once
            // (stage-less analysis terminals never reach here — they read
            // the mapping in place via `shared_columns`).
            Input::Mapped(mapped) => Cow::Owned(mapped.to_trace()),
        };
        if let Some(rec) = &self.recorder {
            rec.record_stage(0, "load", load_started.elapsed(), trace.len(), None, None);
        }
        let mut chunk = self.chunk;
        let mut capacity = self.capacity.unwrap_or(FUSED_CHANNEL_CHUNKS);
        if self.auto {
            let plan = crate::tune::plan(&trace, &self.stages, self.chunk);
            if !self.chunk_set {
                chunk = plan.chunk;
            }
            if self.capacity.is_none() {
                capacity = plan.capacity;
            }
        }
        if let Some(rec) = &self.recorder {
            rec.set_knobs(chunk, capacity);
        }
        Ok((
            trace,
            self.stages,
            Exec {
                chunk,
                fused: self.fused,
                capacity,
                probe: self.probe,
                recorder: self.recorder,
            },
        ))
    }

    /// Runs the whole pipeline into memory, keeping a borrowed input
    /// borrowed when no stage touched it — the zero-copy path behind the
    /// analysis terminals. Staged pipelines run through [`execute`] into
    /// an in-memory sink whose metadata matches what the stages would
    /// have produced themselves.
    fn collect_ref(self) -> Result<Cow<'env, Trace>, TraceError> {
        let (trace, stages, exec) = self.load_input()?;
        let Some(last) = stages.last() else {
            return Ok(trace);
        };
        let mut sink = tt_trace::TraceSink::new(final_meta(&trace.meta().name, last));
        execute(trace, stages, &mut sink, &exec)?;
        Ok(Cow::Owned(sink.into_trace()))
    }

    /// Runs the pipeline, materialising the final trace in memory.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s (open, parse, format detection).
    pub fn collect(self) -> Result<Trace, TraceError> {
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
        }
        let collected = self.collect_ref()?.into_owned();
        if let Some(rec) = &recorder {
            rec.finish();
        }
        Ok(collected)
    }

    /// Runs the pipeline, streaming the final records into `sink` chunk by
    /// chunk. With the fused executor (the default) a multi-stage chain
    /// holds the input trace plus in-flight chunks; the one exception is a
    /// reconstruction stage fed by an earlier stage, which must collect
    /// its own input first (inference reads the whole trace — see the
    /// module docs). Returns push statistics (record count, first/last
    /// arrival).
    ///
    /// # Errors
    ///
    /// Propagates input and sink [`TraceError`]s.
    pub fn write_to(self, sink: &mut dyn RecordSink) -> Result<SinkStats, TraceError> {
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
        }
        let (trace, stages, exec) = self.load_input()?;
        let stats = execute(trace, stages, sink, &exec)?;
        if let Some(rec) = &recorder {
            rec.finish();
        }
        Ok(stats)
    }

    /// Runs the pipeline, streaming the final records into the trace file
    /// at `path` (format by extension) — [`Pipeline::write_to`] with the
    /// sink opened for you.
    ///
    /// # Errors
    ///
    /// Propagates input, format-detection, and I/O [`TraceError`]s.
    pub fn write_path(self, path: impl AsRef<Path>) -> Result<SinkStats, TraceError> {
        // Validate the output format before any work: a typo'd extension
        // must fail in microseconds, not after parsing and reconstructing
        // a multi-GB input.
        let out_format = format::TraceFormat::from_path(path.as_ref())?;
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
        }
        let (trace, stages, exec) = self.load_input()?;
        if stages.is_empty() && out_format == format::TraceFormat::Ttb {
            // Columnar fast path: a stage-less pipeline ending in TTB moves
            // the store's columns out in bulk — no row is ever assembled.
            let stats = SinkStats {
                records: trace.len(),
                first: trace.start(),
                last: trace.end(),
            };
            let write_started = Instant::now();
            format::save_trace(&trace, path, exec.chunk)?;
            if let Some(rec) = &recorder {
                rec.record_stage(
                    1,
                    "write",
                    write_started.elapsed(),
                    stats.records,
                    None,
                    None,
                );
                rec.finish();
            }
            return Ok(stats);
        }
        // Reconstruction and replay both name their output after the input
        // trace, so the sink's name (the CSV header) is known up front.
        let mut sink = format::create_sink(path, &trace.meta().name)?;
        let stats = execute(trace, stages, &mut *sink, &exec)?;
        if let Some(rec) = &recorder {
            rec.finish();
        }
        Ok(stats)
    }

    /// Terminal: partitions the final trace by (sequentiality × op × size)
    /// — the paper's §III grouping.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn group(self) -> Result<GroupedTrace, TraceError> {
        let recorder = self.begin_analysis();
        if let Some(cols) = self.shared_columns() {
            let started = Instant::now();
            let out = GroupedTrace::build_columns(cols);
            record_terminal(&recorder, "group", started, cols.len());
            return Ok(out);
        }
        let mmap_started = Instant::now();
        if let Some(mapped) = self.try_mmap() {
            record_load(&recorder, mmap_started, mapped.len());
            let started = Instant::now();
            let out = GroupedTrace::build_columns(mapped.columns());
            record_terminal(&recorder, "group", started, mapped.len());
            return Ok(out);
        }
        let trace = self.collect_ref()?;
        let started = Instant::now();
        let out = GroupedTrace::build(&trace);
        record_terminal(&recorder, "group", started, trace.len());
        Ok(out)
    }

    /// Terminal: runs the paper's timing inference on the final trace.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn infer(self, config: &InferenceConfig) -> Result<InferenceResult, TraceError> {
        let recorder = self.begin_analysis();
        if let Some(cols) = self.shared_columns() {
            let started = Instant::now();
            let out = infer_columns(cols, config);
            record_terminal(&recorder, "infer", started, cols.len());
            return Ok(out);
        }
        let mmap_started = Instant::now();
        if let Some(mapped) = self.try_mmap() {
            record_load(&recorder, mmap_started, mapped.len());
            let started = Instant::now();
            let out = infer_columns(mapped.columns(), config);
            record_terminal(&recorder, "infer", started, mapped.len());
            return Ok(out);
        }
        let trace = self.collect_ref()?;
        let started = Instant::now();
        let out = infer(&trace, config);
        record_terminal(&recorder, "infer", started, trace.len());
        Ok(out)
    }

    /// Terminal: Table-I style summary statistics of the final trace.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn stats(self) -> Result<TraceStats, TraceError> {
        let recorder = self.begin_analysis();
        if let Some(cols) = self.shared_columns() {
            let started = Instant::now();
            let out = TraceStats::compute_columns(cols);
            record_terminal(&recorder, "stats", started, cols.len());
            return Ok(out);
        }
        let mmap_started = Instant::now();
        if let Some(mapped) = self.try_mmap() {
            record_load(&recorder, mmap_started, mapped.len());
            let started = Instant::now();
            let out = TraceStats::compute_columns(mapped.columns());
            record_terminal(&recorder, "stats", started, mapped.len());
            return Ok(out);
        }
        let trace = self.collect_ref()?;
        let started = Instant::now();
        let out = TraceStats::compute(&trace);
        record_terminal(&recorder, "stats", started, trace.len());
        Ok(out)
    }

    /// Terminal: the paper's §V-A injected-idle verification on the final
    /// trace. Injection mutates arrivals, so even the mapped path works on
    /// an owned copy of the mapped columns.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn verify(
        self,
        period: SimDuration,
        config: &tt_core::VerifyConfig,
    ) -> Result<tt_core::InjectionVerification, TraceError> {
        let recorder = self.begin_analysis();
        let mmap_started = Instant::now();
        if let Some(mapped) = self.try_mmap() {
            record_load(&recorder, mmap_started, mapped.len());
            let started = Instant::now();
            let out = verify_injection(&mapped.to_trace(), period, config);
            record_terminal(&recorder, "verify", started, mapped.len());
            return Ok(out);
        }
        let trace = self.collect_ref()?;
        let started = Instant::now();
        let out = verify_injection(&trace, period, config);
        record_terminal(&recorder, "verify", started, trace.len());
        Ok(out)
    }

    /// Opens a recorder run for an analysis terminal, stamping the knobs
    /// as currently configured (the `collect_ref` fallback re-stamps them
    /// after autotuning). Returns the recorder handle for the terminal's
    /// own stage.
    fn begin_analysis(&self) -> Option<Arc<FlightRecorder>> {
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
            rec.set_knobs(self.chunk, self.capacity.unwrap_or(FUSED_CHANNEL_CHUNKS));
        }
        recorder
    }
}

/// Records a fast-path mmap open as the run's "load" stage.
fn record_load(recorder: &Option<Arc<FlightRecorder>>, started: Instant, records: usize) {
    if let Some(rec) = recorder {
        rec.record_stage(0, "load", started.elapsed(), records, None, None);
    }
}

/// Records an analysis terminal's own stage and closes the run —
/// `usize::MAX` orders it after every load/transform stage.
fn record_terminal(
    recorder: &Option<Arc<FlightRecorder>>,
    label: &str,
    started: Instant,
    records: usize,
) {
    if let Some(rec) = recorder {
        rec.record_stage(usize::MAX, label, started.elapsed(), records, None, None);
        rec.finish();
    }
}

/// Prefixes errors raised while reading a file with the file they came
/// from — parser errors only know line numbers and mid-read I/O errors
/// nothing at all, which is useless across multiple inputs. Errors that
/// already name the path (file-open failures do) are left alone.
pub(crate) fn with_path_context(err: TraceError, path: &Path) -> TraceError {
    let p = path.display().to_string();
    let prefix = |message: String| {
        if message.contains(&p) {
            message
        } else {
            format!("{p}: {message}")
        }
    };
    match err {
        TraceError::Parse { message, line } => TraceError::Parse {
            message: prefix(message),
            line,
        },
        TraceError::InvalidRecord { index, message } => TraceError::InvalidRecord {
            index,
            message: prefix(message),
        },
        TraceError::Io(message) => TraceError::Io(prefix(message)),
        other => other,
    }
}

/// Streams a replay of `trace` under `mode` into `sink` — the one replay
/// helper behind both the materialised and the sink-terminated stage, so
/// the closed/open-loop semantics stay defined in exactly one place
/// ([`Schedule::closed_loop_ops`] / [`Schedule::open_loop_ops`]).
fn replay_stage_into(
    device: &mut dyn BlockDevice,
    trace: &Trace,
    mode: StreamReplay,
    config: ReplayConfig,
    sink: &mut dyn RecordSink,
    chunk: usize,
) -> Result<SinkStats, TraceError> {
    let out = match mode {
        StreamReplay::ClosedLoop => replay_into(
            device,
            Schedule::closed_loop_ops(trace),
            config,
            sink,
            chunk,
        )?,
        StreamReplay::OpenLoop { time_scale } => replay_into(
            device,
            Schedule::open_loop_ops(trace, time_scale),
            config,
            sink,
            chunk,
        )?,
    };
    Ok(out.stats)
}

/// Runs one stage materialised (used for every stage except a final one
/// feeding a sink).
fn run_stage(trace: &Trace, stage: Stage<'_>, chunk: usize) -> Result<Trace, TraceError> {
    match stage {
        Stage::Reconstruct { device, method } => Ok(method.reconstruct(trace, device)),
        Stage::Replay {
            device,
            mode,
            config,
        } => {
            let mut sink = tt_trace::TraceSink::new(
                TraceMeta::named(trace.meta().name.clone()).with_source("tt-sim collector"),
            );
            // The sink is in-memory, but a faulty device with an abort
            // policy can still fail the replay — propagate it.
            replay_stage_into(device, trace, mode, config, &mut sink, chunk)?;
            Ok(sink.into_trace())
        }
    }
}

/// Runs one stage with a materialised input trace, streaming its output
/// into `sink` — the shape of a chain's *first* stage (and of every stage
/// under the materialised executor).
fn run_stage_into(
    stage: Stage<'_>,
    trace: &Trace,
    sink: &mut dyn RecordSink,
    chunk: usize,
) -> Result<SinkStats, TraceError> {
    match stage {
        Stage::Reconstruct { device, method } => {
            method.reconstruct_into(trace, device, sink, chunk)
        }
        Stage::Replay {
            device,
            mode,
            config,
        } => replay_stage_into(device, trace, mode, config, sink, chunk),
    }
}

/// Runs one stage with a **streamed** input, streaming its output into
/// `sink` — the shape of every non-first stage under the fused executor.
///
/// A replay stage is record-incremental and consumes the stream directly
/// ([`replay_source_into`]); a reconstruction stage infers timing from its
/// whole input, so it collects the stream into this stage's one input
/// trace first — the algorithm's requirement, not executor overhead.
fn run_stage_streamed(
    stage: Stage<'_>,
    source: &mut dyn RecordSource,
    name: &str,
    sink: &mut dyn RecordSink,
    chunk: usize,
) -> Result<SinkStats, TraceError> {
    match stage {
        Stage::Reconstruct { device, method } => {
            let collected = collect_source(
                source,
                TraceMeta::named(name).with_source("tt-sim collector"),
                chunk,
            )?;
            method.reconstruct_into(&collected, device, sink, chunk)
        }
        Stage::Replay {
            device,
            mode,
            config,
        } => {
            let out = replay_source_into(device, source, mode, chunk, config, sink)?;
            Ok(out.stats)
        }
    }
}

/// Runs the final stage streamed into `sink` (or drains the trace when no
/// stage is left).
fn write_stage(
    trace: &Trace,
    last: Option<Stage<'_>>,
    sink: &mut dyn RecordSink,
    chunk: usize,
) -> Result<SinkStats, TraceError> {
    match last {
        None => {
            let stats = SinkStats {
                records: trace.len(),
                first: trace.start(),
                last: trace.end(),
            };
            drain_trace(trace, sink, chunk)?;
            Ok(stats)
        }
        Some(stage) => run_stage_into(stage, trace, sink, chunk),
    }
}

/// The metadata a staged pipeline's collected output carries — matching
/// what the materialised executor's final stage would have produced, so
/// fused and materialised `collect()` results are identical including
/// provenance.
fn final_meta(name: &str, stage: &Stage<'_>) -> TraceMeta {
    match stage {
        Stage::Reconstruct { method, .. } => {
            TraceMeta::named(name).with_source(method.source_label())
        }
        Stage::Replay { .. } => TraceMeta::named(name).with_source("tt-sim collector"),
    }
}

/// In-flight chunks a fused stage-boundary channel may hold by default —
/// the backpressure bound: a fused chain buffers at most this many chunks
/// of [`Pipeline::chunk_size`] records between any two stages (the "small
/// multiple of the chunk size" of the executor contract).
/// [`Pipeline::channel_capacity`] overrides it; [`Pipeline::auto`] may
/// raise it for balanced chains.
pub const FUSED_CHANNEL_CHUNKS: usize = 4;

/// The resolved execution knobs a terminal hands the executor — what the
/// builder's five knob methods (plus the autotuner) boil down to.
struct Exec {
    chunk: usize,
    fused: bool,
    capacity: usize,
    probe: Option<Arc<ChannelProbe>>,
    recorder: Option<Arc<FlightRecorder>>,
}

/// What flows between fused stages: a chunk of records, or the upstream
/// stage's failure being forwarded so the terminal reports it (and never
/// mistakes a failed upstream for a clean end-of-stream).
type Msg = Result<Vec<BlockRecord>, TraceError>;

/// A [`RecordSource`] over a fused stage-boundary channel: yields the
/// upstream stage's chunks in order, re-raising a forwarded upstream
/// error, and treating a closed channel as end-of-stream.
struct ChannelSource {
    rx: bounded::Receiver<Msg>,
    buf: Vec<BlockRecord>,
    pos: usize,
    done: bool,
}

impl ChannelSource {
    fn new(rx: bounded::Receiver<Msg>) -> Self {
        ChannelSource {
            rx,
            buf: Vec::new(),
            pos: 0,
            done: false,
        }
    }
}

impl RecordSource for ChannelSource {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        while appended < max && !self.done {
            if self.pos >= self.buf.len() {
                match self.rx.recv() {
                    Some(Ok(chunk)) => {
                        self.buf = chunk;
                        self.pos = 0;
                        continue;
                    }
                    Some(Err(e)) => {
                        self.done = true;
                        return Err(e);
                    }
                    None => {
                        self.done = true;
                        break;
                    }
                }
            }
            let take = (self.buf.len() - self.pos).min(max - appended);
            out.extend_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            appended += take;
        }
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        "fused stage"
    }
}

/// A [`RecordSink`] over a fused stage-boundary channel: each pushed chunk
/// becomes one bounded-channel message (blocking when the downstream stage
/// is `FUSED_CHANNEL_CHUNKS` chunks behind — the backpressure). A closed
/// channel (the downstream stage died) surfaces as an error so the running
/// stage aborts promptly; the worker then defers to the downstream
/// stage's own failure.
struct ChannelSink<'a> {
    tx: &'a bounded::Sender<Msg>,
    disconnected: bool,
}

impl RecordSink for ChannelSink<'_> {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        if self.tx.send(Ok(records.to_vec())).is_err() {
            self.disconnected = true;
            return Err(TraceError::Io(
                "fused pipeline: downstream stage closed".to_string(),
            ));
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        // End-of-stream is signalled by dropping the sender when the
        // worker returns; nothing to flush.
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "fused stage"
    }
}

/// One fused worker: runs `stage` off its input (the pipeline input trace
/// for the first stage, the upstream channel otherwise) into the
/// downstream channel. Returns the records the stage emitted, and an
/// error only when it could not be forwarded downstream; forwarded and
/// deferred-to-downstream failures surface at the terminal instead.
fn stage_worker(
    stage: Stage<'_>,
    input: &Trace,
    upstream: Option<bounded::Receiver<Msg>>,
    name: &str,
    tx: &bounded::Sender<Msg>,
    chunk: usize,
) -> (Option<TraceError>, usize) {
    let mut out = ChannelSink {
        tx,
        disconnected: false,
    };
    let result = match upstream {
        None => run_stage_into(stage, input, &mut out, chunk),
        Some(rx) => run_stage_streamed(stage, &mut ChannelSource::new(rx), name, &mut out, chunk),
    };
    let disconnected = out.disconnected;
    match result {
        Ok(stats) => (None, stats.records),
        // The downstream stage hung up first: its own failure is the one
        // the terminal reports; this stage just stops.
        Err(_) if disconnected => (None, 0),
        Err(e) => match tx.send(Err(e)) {
            Ok(()) => (None, 0),
            // Downstream vanished between the failure and the forward —
            // report it from here so it cannot get lost.
            Err(msg) => (Some(msg.expect_err("only failures are sent back")), 0),
        },
    }
}

/// The one executor dispatch point behind every sink-terminated run
/// ([`Pipeline::write_to`], [`Pipeline::write_path`], and the staged
/// [`Pipeline::collect`] path): chains of two or more stages run
/// [`fused_chain`] unless [`Pipeline::materialize`] asked otherwise;
/// everything else runs stage-at-a-time with the last stage streaming
/// into `sink`.
fn execute(
    mut trace: Cow<'_, Trace>,
    mut stages: Vec<Stage<'_>>,
    sink: &mut dyn RecordSink,
    exec: &Exec,
) -> Result<SinkStats, TraceError> {
    if exec.fused && stages.len() >= 2 {
        return fused_chain(&trace, stages, sink, exec);
    }
    let last = stages.pop();
    let mut index = 1;
    for stage in stages {
        let label = stage.label();
        let started = Instant::now();
        trace = Cow::Owned(run_stage(&trace, stage, exec.chunk)?);
        if let Some(rec) = &exec.recorder {
            rec.record_stage(index, label, started.elapsed(), trace.len(), None, None);
        }
        index += 1;
    }
    let label = last.as_ref().map_or("write", Stage::label);
    let started = Instant::now();
    let stats = write_stage(&trace, last, sink, exec.chunk)?;
    if let Some(rec) = &exec.recorder {
        rec.record_stage(index, label, started.elapsed(), stats.records, None, None);
    }
    Ok(stats)
}

/// The fused executor: stages pipelined on scoped worker threads, chained
/// by bounded chunk channels, the last stage running on the calling
/// thread straight into `sink`. See the module docs for the contract.
///
/// With a recorder attached, every stage boundary gets its own
/// [`ChannelStats`] block: the producer worker owns its send-waits, the
/// consumer its recv-waits, and each worker records its own wall clock —
/// so the assembled flight log attributes every blocked nanosecond to the
/// stage that was blocked. The probe (when also attached) keeps its
/// all-boundaries aggregation contract via a second stats block on the
/// same channels.
fn fused_chain(
    trace: &Trace,
    mut stages: Vec<Stage<'_>>,
    sink: &mut dyn RecordSink,
    exec: &Exec,
) -> Result<SinkStats, TraceError> {
    // lint:allow(panic) -- the sole caller (execute) dispatches here only when stages.len() >= 2
    let last = stages.pop().expect("fused chains have at least two stages");
    let worker_count = stages.len();
    let input_name = trace.meta().name.clone();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(worker_count);
        let mut prev_rx: Option<bounded::Receiver<Msg>> = None;
        let mut prev_stats: Option<Arc<ChannelStats>> = None;
        for (i, stage) in stages.into_iter().enumerate() {
            let boundary = exec
                .recorder
                .as_ref()
                .map(|_| Arc::new(ChannelStats::new()));
            let mut stats = Vec::new();
            if let Some(probe) = &exec.probe {
                stats.push(probe.stats());
            }
            if let Some(boundary) = &boundary {
                stats.push(Arc::clone(boundary));
            }
            let (tx, rx) = bounded::channel_instrumented(exec.capacity, stats);
            let upstream = prev_rx.take();
            let in_stats = prev_stats.take();
            let out_stats = boundary.clone();
            let name = input_name.clone();
            let recorder = exec.recorder.clone();
            let chunk = exec.chunk;
            handles.push(scope.spawn(move || {
                let label = stage.label();
                let started = Instant::now();
                let (error, records) = stage_worker(stage, trace, upstream, &name, &tx, chunk);
                if let Some(rec) = &recorder {
                    rec.record_stage(
                        i + 1,
                        label,
                        started.elapsed(),
                        records,
                        in_stats,
                        out_stats,
                    );
                }
                error
            }));
            prev_rx = Some(rx);
            prev_stats = boundary;
        }
        // lint:allow(panic) -- the worker loop above ran at least once (two-stage minimum), installing prev_rx
        let rx = prev_rx.expect("at least one worker stage");
        let last_label = last.label();
        let started = Instant::now();
        let final_result = run_stage_streamed(
            last,
            &mut ChannelSource::new(rx),
            &input_name,
            sink,
            exec.chunk,
        );
        if let Some(rec) = &exec.recorder {
            let records = final_result.as_ref().map_or(0, |s| s.records);
            rec.record_stage(
                worker_count + 1,
                last_label,
                started.elapsed(),
                records,
                prev_stats.take(),
                None,
            );
        }
        let mut worker_error: Option<TraceError> = None;
        for handle in handles {
            if let Some(e) = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p))
            {
                worker_error.get_or_insert(e);
            }
        }
        match (final_result, worker_error) {
            (Err(e), _) => Err(e),
            (Ok(_), Some(e)) => Err(e),
            (Ok(stats), None) => Ok(stats),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::{Revision, TraceTracker};
    use tt_device::presets;
    use tt_sim::{replay, Schedule};
    use tt_trace::format::csv::CsvSink;
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType};
    use tt_workloads::{catalog, generate_session};

    fn old_trace(n: usize, seed: u64) -> Trace {
        let entry = catalog::find("MSNFS").unwrap();
        let session = generate_session("MSNFS", &entry.profile, n, seed);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    }

    #[test]
    fn collect_equals_free_function_reconstruct() {
        let old = old_trace(300, 5);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let direct = TraceTracker::new().reconstruct(&old, &mut d1);
        let piped = Pipeline::from_trace(old)
            .reconstruct(&mut d2, TraceTracker::new())
            .collect()
            .unwrap();
        assert_eq!(piped, direct);
    }

    #[test]
    fn write_to_streams_the_same_bytes_as_write_csv() {
        let old = old_trace(300, 6);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();

        let direct = Revision::new().reconstruct(&old, &mut d1);
        let mut whole = Vec::new();
        tt_trace::format::csv::write_csv(&direct, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let stats = Pipeline::from_trace(old)
            .chunk_size(17)
            .reconstruct(&mut d2, Revision::new())
            .write_to(&mut CsvSink::new(&mut streamed, direct.meta().name.clone()))
            .unwrap();
        assert_eq!(stats.records, direct.len());
        assert_eq!(streamed, whole);
    }

    #[test]
    fn replay_stage_equals_schedule_replay() {
        let old = old_trace(200, 7);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let direct = replay(
            &mut d1,
            &Schedule::open_loop(&old, 1.0),
            &old.meta().name,
            ReplayConfig::default(),
        );
        let piped = Pipeline::from_trace(old)
            .replay(&mut d2, StreamReplay::OpenLoop { time_scale: 1.0 })
            .collect()
            .unwrap();
        assert_eq!(piped.records(), direct.trace.records());
    }

    #[test]
    fn passthrough_write_sorts_like_the_loaders() {
        // Unsorted source input: the pipeline must produce the same bytes
        // as collect-then-write (which sorts).
        let recs = vec![
            BlockRecord::new(SimInstant::from_usecs(30), 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(10), 8, 8, OpType::Write),
        ];
        let trace = Trace::from_records(TraceMeta::named("x"), recs.clone());
        let mut whole = Vec::new();
        tt_trace::format::csv::write_csv(&trace, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let stats = Pipeline::from_source(tt_trace::source::VecSource::new(recs), "x")
            .write_to(&mut CsvSink::new(&mut streamed, "x"))
            .unwrap();
        assert_eq!(stats.records, 2);
        assert_eq!(streamed, whole);
    }

    #[test]
    fn from_trace_ref_matches_from_trace() {
        let old = old_trace(200, 10);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let owned = Pipeline::from_trace(old.clone())
            .reconstruct(&mut d1, TraceTracker::new())
            .collect()
            .unwrap();
        let borrowed = Pipeline::from_trace_ref(&old)
            .reconstruct(&mut d2, TraceTracker::new())
            .collect()
            .unwrap();
        assert_eq!(owned, borrowed);
        // The borrowed input is untouched and still usable.
        assert_eq!(old.len(), 200);
    }

    #[test]
    fn ttb_write_path_and_from_path_round_trip() {
        // The stage-less TTB fast path (bulk columnar write) and the TTB
        // bulk load must agree with the in-memory trace exactly.
        let old = old_trace(300, 12);
        let path = std::env::temp_dir().join("tt_pipeline_cache.ttb");
        let stats = Pipeline::from_trace_ref(&old).write_path(&path).unwrap();
        assert_eq!(stats.records, old.len());
        assert_eq!(stats.first, old.start());
        let back = Pipeline::from_path(&path).collect().unwrap();
        assert_eq!(back.records(), old.records());
        assert_eq!(back.columns(), old.columns());
        assert_eq!(back.meta().source, "ttb");

        // A staged pipeline ending in .ttb streams through TtbSink and
        // decodes to the same records as the materialised equivalent.
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let staged = std::env::temp_dir().join("tt_pipeline_staged.ttb");
        Pipeline::from_trace_ref(&old)
            .chunk_size(17)
            .reconstruct(&mut d1, TraceTracker::new())
            .write_path(&staged)
            .unwrap();
        let direct = TraceTracker::new().reconstruct(&old, &mut d2);
        let streamed = Pipeline::from_path(&staged).collect().unwrap();
        assert_eq!(streamed.records(), direct.records());

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&staged).ok();
    }

    #[test]
    fn ttb_analysis_terminals_map_the_file_and_match_every_path() {
        let old = old_trace(300, 13);
        let path = std::env::temp_dir().join("tt_pipeline_mmap.ttb");
        Pipeline::from_trace_ref(&old).write_path(&path).unwrap();

        let cfg = InferenceConfig::default();
        // In-memory, mapped (default), and forced-bulk paths must agree
        // exactly on every analysis terminal.
        let g_mem = Pipeline::from_trace_ref(&old).group().unwrap();
        let g_map = Pipeline::from_path(&path).group().unwrap();
        let g_bulk = Pipeline::from_path(&path).mmap(false).group().unwrap();
        assert_eq!(g_map, g_mem);
        assert_eq!(g_bulk, g_mem);

        let s_mem = Pipeline::from_trace_ref(&old).stats().unwrap();
        assert_eq!(Pipeline::from_path(&path).stats().unwrap(), s_mem);

        let i_mem = Pipeline::from_trace_ref(&old).infer(&cfg).unwrap();
        assert_eq!(Pipeline::from_path(&path).infer(&cfg).unwrap(), i_mem);

        let vcfg = tt_core::VerifyConfig::default();
        let period = SimDuration::from_msecs(10);
        let v_mem = Pipeline::from_trace_ref(&old)
            .verify(period, &vcfg)
            .unwrap();
        let v_map = Pipeline::from_path(&path).verify(period, &vcfg).unwrap();
        assert_eq!(v_map, v_mem);

        // A corrupt file errors identically with the knob on or off.
        let mut bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() / 2;
        bytes.truncate(cut);
        let bad = std::env::temp_dir().join("tt_pipeline_mmap_bad.ttb");
        std::fs::write(&bad, &bytes).unwrap();
        let e_map = Pipeline::from_path(&bad).stats().unwrap_err().to_string();
        let e_bulk = Pipeline::from_path(&bad)
            .mmap(false)
            .stats()
            .unwrap_err()
            .to_string();
        assert_eq!(e_map, e_bulk);
        assert!(e_map.contains("truncated TTB file"), "{e_map}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn write_path_rejects_bad_extensions_before_any_work() {
        let old = old_trace(50, 11);
        let mut dev = presets::intel_750_array();
        let err = Pipeline::from_trace_ref(&old)
            .reconstruct(&mut dev, TraceTracker::new())
            .write_path("/tmp/tt_pipeline_out.parquet")
            .err()
            .unwrap();
        assert!(err.to_string().contains("parquet"), "{err}");
        assert!(!std::path::Path::new("/tmp/tt_pipeline_out.parquet").exists());
    }

    #[test]
    fn parse_errors_name_the_file() {
        let path = std::env::temp_dir().join("tt_pipeline_bad.csv");
        std::fs::write(&path, "not a valid line\n").unwrap();
        let err = Pipeline::from_path(&path).collect().err().unwrap();
        let msg = err.to_string();
        assert!(msg.contains("tt_pipeline_bad.csv"), "{msg}");
        assert!(msg.contains("line 1"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_errors_name_the_file_exactly_once() {
        // File-open failures already embed the path; the pipeline's error
        // context must not prefix it a second time.
        let err = Pipeline::from_path("/definitely/not/here.csv")
            .collect()
            .err()
            .unwrap();
        let msg = err.to_string();
        assert_eq!(msg.matches("not/here.csv").count(), 1, "{msg}");
    }

    #[test]
    fn analysis_terminals_run() {
        let old = old_trace(200, 8);
        let grouped = Pipeline::from_trace(old.clone()).group().unwrap();
        assert!(grouped.group_count() > 0);
        let stats = Pipeline::from_trace(old.clone()).stats().unwrap();
        assert_eq!(stats.requests, old.len());
        let result = Pipeline::from_trace(old)
            .infer(&InferenceConfig::default())
            .unwrap();
        assert!(result.estimate.beta_ns_per_sector >= 0.0);
    }
}
