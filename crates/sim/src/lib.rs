#![forbid(unsafe_code)]
//! # tt-sim — discrete-event replay engine
//!
//! Replays block-request schedules against [`tt_device`] models, standing in
//! for the paper's real-time `sleep()`-and-issue hardware emulation (§IV)
//! and its `blktrace` collection:
//!
//! * [`EventQueue`] / [`Engine`] — a minimal deterministic DES core;
//! * [`Schedule`] / [`ScheduledOp`] / [`IssueMode`] — replay inputs with the
//!   paper's sync/async request semantics (Fig 2b);
//! * [`replay`] — executes a schedule on a device, producing a collected
//!   trace plus per-request [`ServiceOutcome`](tt_device::ServiceOutcome)s;
//! * [`try_replay_records`] / [`replay_into`] / [`replay_source_into`] —
//!   the same replay as a *stream*: records are visited, or pushed into
//!   any [`RecordSink`](tt_trace::RecordSink), the moment the device
//!   produces them, with the ops coming from an iterator or straight off a
//!   [`RecordSource`](tt_trace::RecordSource) — the adapters the
//!   `tracetracker::Pipeline` replay stage and the streaming
//!   reconstruction paths in `tt-core` run on;
//! * [`replay_concurrent`] / [`replay_concurrent_sources`] — several
//!   streams sharing one device on the discrete-event engine;
//! * [`Collector`] — blktrace-style Q/D/C record assembly;
//! * [`replay_sharded`] — the same replay fanned across CPU cores at
//!   **quiescent cuts**, bit-identical to sequential. No library path
//!   calls it; it stays as the benchmark's measured alternative to the
//!   sequential core.
//!
//! Every single-stream entry point runs **one** issue/retry loop, so the
//! paper's issue rule (a sync request waits for its predecessor's
//! completion, an async one follows its predecessor's issue) and the
//! retry/backoff semantics are defined once: a streamed replay equals the
//! schedule replay of the same trace on clean and faulty devices alike.
//!
//! ## Parallel replay correctness (quiescent cuts)
//!
//! Sharded replay splits an open-loop schedule wherever the device is
//! *provably idle*: running `Bᵢ = max(Bᵢ₋₁, rᵢ) + service_bound(reqᵢ)`
//! (seeded with the device's `busy_bound`) bounds every internal next-free
//! instant from above, so an arrival `rⱼ ≥ Bⱼ₋₁` observes a drained
//! device — its queueing from time-state is zero on the real device *and*
//! on a fresh snapshot alike. Positional state (sequentiality, head
//! position, wear counters) is a pure function of the request sequence and
//! is fast-forwarded into each partition's snapshot without timing math.
//! Partitions replay at absolute time and concatenate; the result is
//! bit-identical to the sequential replay **by construction**, and every
//! schedule that cannot be split this way (closed-loop, saturated, or on a
//! model without the snapshot contract) transparently runs the sequential
//! core. The full argument lives on [`quiescent_cuts`] and
//! [`replay_sharded`].
//!
//! ## Example: same user behaviour, two devices
//!
//! ```
//! use tt_device::{presets, IoRequest};
//! use tt_sim::{replay, IssueMode, ReplayConfig, Schedule, ScheduledOp};
//! use tt_trace::{time::SimDuration, OpType};
//!
//! // One user session: 50 random 4KB reads, 1ms think time between them.
//! let schedule: Schedule = (0..50)
//!     .map(|i| ScheduledOp {
//!         pre_delay: SimDuration::from_msecs(1),
//!         request: IoRequest::new(OpType::Read, (i * 7919) % 1_000_000 * 8, 8),
//!         mode: IssueMode::Sync,
//!     })
//!     .collect();
//!
//! let mut old = presets::enterprise_hdd_2007();
//! let mut new = presets::intel_750_array();
//! let on_old = replay(&mut old, &schedule, "old", ReplayConfig::default());
//! let on_new = replay(&mut new, &schedule, "new", ReplayConfig::default());
//!
//! // Identical think times, very different makespans:
//! assert!(on_old.makespan > on_new.makespan);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod engine;
mod queue;
mod replay;
mod shard;

pub use collector::Collector;
pub use engine::Engine;
pub use queue::EventQueue;
pub use replay::{
    replay, replay_concurrent, replay_concurrent_sources, replay_concurrent_tagged, replay_into,
    replay_source_into, try_replay_records, ConcurrentOutcome, FaultEvent, FaultStats, IssueMode,
    ReplayConfig, ReplayOutcome, RetryPolicy, Schedule, ScheduledOp, StreamReplay, StreamedReplay,
};
pub use shard::{quiescent_cuts, replay_sharded};
