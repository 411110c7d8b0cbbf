//! Time-partitioned parallel replay at quiescent cuts.
//!
//! Replay is inherently sequential: request `i`'s queueing depends on the
//! device state left behind by request `i − 1`. This module breaks that
//! chain at **quiescent cuts** — schedule points where the device is
//! *provably idle* — and replays the resulting partitions concurrently on
//! per-partition device snapshots, bit-identical to the sequential replay
//! by construction.
//!
//! # The quiescent-cut argument
//!
//! Every model implementing the snapshot contract
//! ([`BlockDevice::snapshot`] / [`BlockDevice::service_bound`] /
//! [`BlockDevice::busy_bound`] / [`BlockDevice::fast_forward`]) promises:
//! servicing a request issued at `r` leaves every internal next-free
//! instant (and the completion) at or below `max(busy, r) + bound`, where
//! `busy` bounds the latest next-free instant beforehand. Running the
//! recurrence
//!
//! ```text
//! B₋₁ = busy_bound(initial state)
//! Bᵢ  = max(Bᵢ₋₁, rᵢ) + service_bound(requestᵢ)
//! ```
//!
//! over an open-loop schedule (where the ready times `rᵢ` are pre-delay
//! prefix sums, independent of the device) yields a monotone upper bound
//! on every resource residue after request `i`. A cut before request `j`
//! is **quiescent** iff `Bⱼ₋₁ ≤ rⱼ`: every queue, actuator, channel and
//! plane has drained by the time request `j` becomes ready.
//!
//! At such a cut the device's *time-state* is invisible to the rest of the
//! schedule — any `max(next_free, start)` resolves to `start`, exactly as
//! it would on a device whose residues are zero. Only *positional* state
//! (sequentiality detection, head track, wear counters) carries over, and
//! that is a pure function of the request sequence: each partition's
//! snapshot is advanced past the preceding requests with the timing-free
//! [`BlockDevice::fast_forward`]. Partitions replay at **absolute** time
//! (the first operation's pre-delay is replaced by its absolute ready
//! instant), so clock-dependent models (HDD rotation) see the same
//! instants as the sequential replay. Stitching is plain concatenation
//! plus a max over partition makespans.
//!
//! Anything that breaks the argument falls back to the sequential core,
//! transparently: closed-loop or `Sync` operations (ready times depend on
//! completions), a model without the snapshot contract, a single worker,
//! a nested fan-out, or a schedule with no usable cuts (saturated traces).
//!
//! # Status: a measured alternative, not a library path
//!
//! No replay path of the library calls this module: the `Pipeline` replay
//! stages, `tt-cli` and `tt-serve` all run the sequential core, which
//! measured faster than sharding on the 2-core machines CI and the
//! benchmark run on. [`replay_sharded`] stays public as the benchmark's
//! measured alternative — the per-layer `replay.open_sharded_s` probe and
//! the `tt-bench` `replay_shard` lane time it against sequential
//! [`replay`](crate::replay) — and retires with them.

use std::convert::Infallible;

use tt_device::{BlockDevice, ServiceOutcome};
use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::{BlockRecord, Trace, TraceMeta};

use crate::collector::Collector;
use crate::replay::{
    drive, replay, FaultEvent, ReplayConfig, ReplayOutcome, Schedule, ScheduledOp,
};

/// Replayed (record, outcome) pairs, as the sharded core stitches them.
type ReplayedPairs = Vec<(BlockRecord, ServiceOutcome)>;

/// All quiescent cut indices of `ops` on `device` in its current state: a
/// cut at index `j` means the device is provably idle by the time op `j`
/// becomes ready, so the schedule may be split before it.
///
/// Returns `None` when the schedule cannot be analysed — any non-`Async`
/// operation (ready times then depend on completions), or a device that
/// does not expose [`BlockDevice::busy_bound`] /
/// [`BlockDevice::service_bound`]. Sharded replay treats `None` exactly
/// like "no cuts": it falls back to the sequential core.
///
/// # Examples
///
/// ```
/// use tt_device::{IoRequest, LinearDevice, LinearDeviceConfig};
/// use tt_sim::{quiescent_cuts, IssueMode, ScheduledOp};
/// use tt_trace::{time::SimDuration, OpType};
///
/// let device = LinearDevice::new(LinearDeviceConfig::default());
/// let ops: Vec<ScheduledOp> = (0..4)
///     .map(|_| ScheduledOp {
///         pre_delay: SimDuration::from_secs(60), // far above any bound
///         request: IoRequest::new(OpType::Read, 0, 8),
///         mode: IssueMode::Async,
///     })
///     .collect();
/// // A minute of idle time between 4 KB requests: every gap is quiescent.
/// assert_eq!(quiescent_cuts(&device, &ops), Some(vec![1, 2, 3]));
/// ```
#[must_use]
pub fn quiescent_cuts<D: BlockDevice + ?Sized>(
    device: &D,
    ops: &[ScheduledOp],
) -> Option<Vec<usize>> {
    let mut busy = device.busy_bound()?;
    let mut ready = SimInstant::ZERO;
    let mut cuts = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !op.mode.is_async() {
            return None;
        }
        ready += op.pre_delay;
        if i > 0 && busy <= ready {
            cuts.push(i);
        }
        busy = busy.max(ready) + device.service_bound(&op.request)?;
    }
    Some(cuts)
}

/// Partition starts as `(first op index, absolute ready instant)` pairs —
/// [`quiescent_cuts`] coalesced so every partition (except possibly the
/// last) holds enough operations to be worth a worker, with the leading
/// partition at index 0 prepended.
fn plan_partitions<D: BlockDevice + ?Sized>(
    device: &D,
    ops: &[ScheduledOp],
    workers: usize,
) -> Option<Vec<(usize, SimInstant)>> {
    // Over-split ~4× relative to the worker count so the dynamic claim in
    // `par_map` can balance uneven partition costs.
    let min_len = (ops.len() / (workers.max(1) * 4)).max(1);
    let mut busy = device.busy_bound()?;
    let mut ready = SimInstant::ZERO;
    let mut parts: Vec<(usize, SimInstant)> = Vec::new();
    let mut current_len = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if !op.mode.is_async() {
            return None;
        }
        ready += op.pre_delay;
        if i == 0 {
            parts.push((0, ready));
        } else if current_len >= min_len && busy <= ready {
            parts.push((i, ready));
            current_len = 0;
        }
        current_len += 1;
        busy = busy.max(ready) + device.service_bound(&op.request)?;
    }
    // A single partition is just a sequential replay with extra steps.
    if parts.len() < 2 {
        return None;
    }
    Some(parts)
}

/// One snapshot per partition: the time-state of `device` as it stands,
/// the positional state fast-forwarded past every preceding operation.
fn shard_devices<D: BlockDevice + ?Sized>(
    device: &D,
    ops: &[ScheduledOp],
    parts: &[(usize, SimInstant)],
) -> Option<Vec<Box<dyn BlockDevice>>> {
    let mut seed = device.snapshot()?;
    let mut devices: Vec<Box<dyn BlockDevice>> = Vec::with_capacity(parts.len());
    let mut next_part = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if next_part < parts.len() && parts[next_part].0 == i {
            devices.push(seed.snapshot()?);
            next_part += 1;
            if next_part == parts.len() {
                break;
            }
        }
        seed.fast_forward(&op.request);
    }
    Some(devices)
}

/// What one partition worker hands back: schedule-ordered records (built
/// exactly as the sequential collector builds them) and the partition's
/// absolute makespan.
struct PartitionResult {
    records: Vec<(BlockRecord, ServiceOutcome)>,
    makespan: SimDuration,
    /// Fault events with indices already offset to whole-schedule
    /// positions. (Shardable devices never fail transiently — an
    /// error-capable `FaultyDevice` refuses `snapshot()` — so this is
    /// empty in practice; threading it keeps the stitching honest.)
    faults: Vec<FaultEvent>,
}

/// The sharded replay core: plans partitions, replays them concurrently
/// on snapshots, stitches the results, and advances `device`'s positional
/// state past the whole schedule. `None` means "shard conditions not met
/// — run the sequential core instead".
///
/// After a `Some` return the shared `device` holds the **replay-final
/// contract state**: positional state identical to a sequential replay's,
/// time residues at or below the returned makespan — so any later request
/// issued at or after the makespan behaves exactly as it would on the
/// sequentially-replayed device.
fn try_replay_sharded_core<D: BlockDevice + ?Sized>(
    device: &mut D,
    ops: &[ScheduledOp],
    config: ReplayConfig,
) -> Option<(ReplayedPairs, SimDuration, Vec<FaultEvent>)> {
    let workers = tt_par::threads();
    if workers <= 1 || tt_par::in_worker() || ops.len() < 2 {
        return None;
    }
    let parts = plan_partitions(device, ops, workers)?;
    let devices = shard_devices(device, ops, &parts)?;

    let tasks: Vec<(Box<dyn BlockDevice>, usize, usize, SimInstant)> = devices
        .into_iter()
        .zip(parts.iter())
        .enumerate()
        .map(|(p, (dev, &(start, ready)))| {
            let end = parts.get(p + 1).map_or(ops.len(), |&(next, _)| next);
            (dev, start, end, ready)
        })
        .collect();

    let results: Vec<PartitionResult> =
        tt_par::par_map_owned(tasks, |(mut dev, start, end, first_ready)| {
            // Replay at absolute time: the first operation's pre-delay is
            // replaced by its absolute ready instant (drive() bases the first
            // op at t = 0), the rest chain off it unchanged.
            let first = ScheduledOp {
                pre_delay: first_ready - SimInstant::ZERO,
                ..ops[start]
            };
            let chained = std::iter::once(first)
                .chain(ops[start + 1..end].iter().copied())
                .map(Ok::<_, Infallible>);
            let mut records = Vec::with_capacity(end - start);
            let mut faults = Vec::new();
            let Ok(makespan) = drive(
                &mut *dev,
                chained,
                config.retry,
                &mut faults,
                |arrival, request, outcome| {
                    records.push((
                        Collector::record_for(
                            arrival,
                            request,
                            &outcome,
                            config.record_device_timing,
                        ),
                        outcome,
                    ));
                    Ok(())
                },
            );
            for event in &mut faults {
                event.index += start;
            }
            PartitionResult {
                records,
                makespan,
                faults,
            }
        });

    let mut stitched: Vec<(BlockRecord, ServiceOutcome)> = Vec::with_capacity(ops.len());
    let mut makespan = SimDuration::ZERO;
    let mut faults: Vec<FaultEvent> = Vec::new();
    for result in results {
        debug_assert!(
            match (stitched.last(), result.records.first()) {
                (Some((prev, _)), Some((next, _))) => prev.arrival <= next.arrival,
                _ => true,
            },
            "partition stitching must preserve arrival order"
        );
        stitched.extend(result.records);
        faults.extend(result.faults);
        makespan = makespan.max(result.makespan);
    }

    // The shared device serviced nothing itself — advance its positional
    // state past the whole schedule so it ends in the contract state.
    for op in ops {
        device.fast_forward(&op.request);
    }
    Some((stitched, makespan, faults))
}

/// Sharded [`replay`]: identical output (collected trace, per-request
/// outcomes, makespan — bit for bit, property-tested), computed across
/// [`tt_par::threads`] workers when the schedule and device allow it.
///
/// Falls back to the sequential [`replay`] transparently when they do not
/// (see the module docs for the exact conditions), so it is always safe
/// to call. On the sharded path the device afterwards holds the
/// replay-final contract state: positional state identical to the
/// sequential replay's, time residues at or below the makespan — any
/// request issued at or after the makespan behaves identically on either.
///
/// # Examples
///
/// ```
/// use tt_device::{presets, IoRequest};
/// use tt_sim::{replay, replay_sharded, IssueMode, ReplayConfig, Schedule, ScheduledOp};
/// use tt_trace::{time::SimDuration, OpType};
///
/// let schedule: Schedule = (0..64)
///     .map(|i| ScheduledOp {
///         pre_delay: SimDuration::from_msecs(50),
///         request: IoRequest::new(OpType::Read, i * 1024, 8),
///         mode: IssueMode::Async,
///     })
///     .collect();
/// tt_par::set_threads(4);
/// let mut sharded_dev = presets::intel_750_array();
/// let sharded = replay_sharded(&mut sharded_dev, &schedule, "demo", ReplayConfig::default());
/// tt_par::set_threads(1);
/// let mut seq_dev = presets::intel_750_array();
/// let sequential = replay(&mut seq_dev, &schedule, "demo", ReplayConfig::default());
/// tt_par::set_threads(0);
/// assert_eq!(sharded.trace, sequential.trace);
/// assert_eq!(sharded.makespan, sequential.makespan);
/// ```
pub fn replay_sharded<D: BlockDevice + ?Sized>(
    device: &mut D,
    schedule: &Schedule,
    name: &str,
    config: ReplayConfig,
) -> ReplayOutcome {
    match try_replay_sharded_core(device, schedule.ops(), config) {
        Some((pairs, makespan, faults)) => {
            let (records, outcomes): (Vec<BlockRecord>, Vec<ServiceOutcome>) =
                pairs.into_iter().unzip();
            ReplayOutcome {
                trace: Trace::from_records(
                    TraceMeta::named(name).with_source("tt-sim collector"),
                    records,
                ),
                outcomes,
                makespan,
                faults,
            }
        }
        None => replay(device, schedule, name, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay_into, replay_source_into, IssueMode, StreamReplay};
    use tt_device::{
        presets, FlashArray, FlashConfig, FlashSsd, HddConfig, HddDevice, IoRequest, LinearDevice,
        LinearDeviceConfig,
    };
    use tt_trace::sink::TraceSink;
    use tt_trace::source::VecSource;
    use tt_trace::OpType;

    /// Serialises every test that touches the process-global worker count.
    static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    type DeviceFactory = (&'static str, Box<dyn Fn() -> Box<dyn BlockDevice>>);

    /// Every shardable model family, as fresh-device factories.
    fn device_factories() -> Vec<DeviceFactory> {
        vec![
            (
                "linear",
                Box::new(|| {
                    Box::new(LinearDevice::new(LinearDeviceConfig::default()))
                        as Box<dyn BlockDevice>
                }) as Box<dyn Fn() -> Box<dyn BlockDevice>>,
            ),
            (
                "linear-unserialized",
                Box::new(|| {
                    Box::new(LinearDevice::new(LinearDeviceConfig {
                        serialize: false,
                        ..LinearDeviceConfig::default()
                    })) as Box<dyn BlockDevice>
                }),
            ),
            (
                "hdd",
                Box::new(|| Box::new(HddDevice::new(HddConfig::default())) as Box<dyn BlockDevice>),
            ),
            (
                "flash-gc",
                Box::new(|| {
                    Box::new(FlashSsd::new(FlashConfig {
                        gc_every_writes: 3,
                        ..FlashConfig::default()
                    })) as Box<dyn BlockDevice>
                }),
            ),
            (
                "flash-array",
                Box::new(|| {
                    Box::new(FlashArray::new(FlashConfig::default(), 4, 128))
                        as Box<dyn BlockDevice>
                }),
            ),
            (
                "intel-750-array",
                Box::new(|| Box::new(presets::intel_750_array()) as Box<dyn BlockDevice>),
            ),
        ]
    }

    /// A bursty open-loop trace: dense zero-ish gap runs separated by long
    /// idle stretches, so some cuts exist but not between every pair.
    fn bursty_trace(n: usize, seed: u64) -> Trace {
        let mut lcg = Lcg(seed);
        let mut arrival = SimInstant::ZERO;
        let records: Vec<BlockRecord> = (0..n)
            .map(|_| {
                let gap_us = match lcg.next() % 8 {
                    0 => 200_000 + lcg.next() % 200_000, // long idle: quiescent
                    1..=3 => 0,                          // back-to-back burst
                    _ => lcg.next() % 50,                // tight burst
                };
                arrival += SimDuration::from_usecs(gap_us);
                let op = if lcg.next().is_multiple_of(3) {
                    OpType::Write
                } else {
                    OpType::Read
                };
                let sectors = [8u32, 16, 64][(lcg.next() % 3) as usize];
                BlockRecord::new(arrival, (lcg.next() % 500_000) * 8, sectors, op)
            })
            .collect();
        Trace::from_records(TraceMeta::named("bursty"), records)
    }

    fn assert_outcome_eq(a: &ReplayOutcome, b: &ReplayOutcome, ctx: &str) {
        assert_eq!(a.trace, b.trace, "{ctx}: trace diverged");
        assert_eq!(a.outcomes, b.outcomes, "{ctx}: outcomes diverged");
        assert_eq!(a.makespan, b.makespan, "{ctx}: makespan diverged");
    }

    #[test]
    fn sharded_replay_is_bit_identical_across_workers() {
        let _guard = THREADS.lock().unwrap();
        let trace = bursty_trace(300, 0xC0FFEE);
        for (label, make) in device_factories() {
            let open = Schedule::open_loop(&trace, 1.0);
            let closed = Schedule::closed_loop(&trace);
            // Sanity: the schedule really has cuts on this model, so the
            // multi-worker runs exercise the sharded path and not just the
            // fallback.
            assert!(
                !quiescent_cuts(&*make(), open.ops()).unwrap().is_empty(),
                "{label}: bursty schedule should have quiescent cuts"
            );
            let baseline_open = replay(&mut *make(), &open, "t", ReplayConfig::default());
            let baseline_closed = replay(&mut *make(), &closed, "t", ReplayConfig::default());
            for workers in 0..=5 {
                tt_par::set_threads(workers);
                let sharded = replay_sharded(&mut *make(), &open, "t", ReplayConfig::default());
                assert_outcome_eq(
                    &sharded,
                    &baseline_open,
                    &format!("{label} w={workers} open"),
                );
                // Closed-loop schedules cannot shard; the fallback must be
                // transparent.
                let fallback = replay_sharded(&mut *make(), &closed, "t", ReplayConfig::default());
                assert_outcome_eq(
                    &fallback,
                    &baseline_closed,
                    &format!("{label} w={workers} closed"),
                );
            }
            tt_par::set_threads(0);
        }
    }

    /// The sharded replay lands on the records and makespan of both
    /// streaming sequential paths — over schedule ops and over a record
    /// source — at every chunk size and worker count.
    #[test]
    fn sharded_replay_matches_streamed_replays() {
        let _guard = THREADS.lock().unwrap();
        let trace = bursty_trace(250, 0xBEEF);
        let device = || FlashArray::new(FlashConfig::default(), 4, 128);
        let mut sharded = Vec::new();
        for workers in [0usize, 2, 5] {
            tt_par::set_threads(workers);
            let open = Schedule::open_loop(&trace, 1.0);
            sharded.push(replay_sharded(
                &mut device(),
                &open,
                "seq",
                ReplayConfig::default(),
            ));
        }
        tt_par::set_threads(0);
        for chunk in [1usize, 7, 64, 1000] {
            let mut ops_sink = TraceSink::new(TraceMeta::named("seq"));
            let from_ops = replay_into(
                &mut device(),
                Schedule::open_loop_ops(&trace, 1.0),
                ReplayConfig::default(),
                &mut ops_sink,
                chunk,
            )
            .unwrap();
            let ops_trace = ops_sink.into_trace();
            let mut src_sink = TraceSink::new(TraceMeta::named("seq"));
            let from_source = replay_source_into(
                &mut device(),
                &mut VecSource::new(trace.records().to_vec()),
                StreamReplay::OpenLoop { time_scale: 1.0 },
                chunk,
                ReplayConfig::default(),
                &mut src_sink,
            )
            .unwrap();
            assert_eq!(from_source, from_ops, "chunk={chunk}");
            assert_eq!(src_sink.into_trace(), ops_trace, "chunk={chunk}");
            for out in &sharded {
                assert_eq!(out.makespan, from_ops.makespan, "chunk={chunk}");
                assert_eq!(out.trace.records(), ops_trace.records(), "chunk={chunk}");
            }
        }
    }

    #[test]
    fn zero_gap_schedule_has_no_cuts_and_falls_back() {
        let _guard = THREADS.lock().unwrap();
        let ops: Vec<ScheduledOp> = (0..40)
            .map(|i| ScheduledOp {
                pre_delay: SimDuration::ZERO,
                request: IoRequest::new(OpType::Read, i * 64, 8),
                mode: IssueMode::Async,
            })
            .collect();
        let device = LinearDevice::new(LinearDeviceConfig::default());
        assert_eq!(quiescent_cuts(&device, &ops), Some(Vec::new()));

        let schedule: Schedule = ops.iter().copied().collect();
        let baseline = replay(
            &mut LinearDevice::new(LinearDeviceConfig::default()),
            &schedule,
            "t",
            ReplayConfig::default(),
        );
        tt_par::set_threads(4);
        let sharded = replay_sharded(
            &mut LinearDevice::new(LinearDeviceConfig::default()),
            &schedule,
            "t",
            ReplayConfig::default(),
        );
        tt_par::set_threads(0);
        assert_outcome_eq(&sharded, &baseline, "saturated fallback");
    }

    #[test]
    fn one_giant_gap_cuts_exactly_once() {
        let _guard = THREADS.lock().unwrap();
        let ops: Vec<ScheduledOp> = (0..100)
            .map(|i| ScheduledOp {
                pre_delay: if i == 50 {
                    SimDuration::from_secs(60)
                } else {
                    SimDuration::ZERO
                },
                request: IoRequest::new(OpType::Read, i * 64, 8),
                mode: IssueMode::Async,
            })
            .collect();
        let device = LinearDevice::new(LinearDeviceConfig::default());
        assert_eq!(quiescent_cuts(&device, &ops), Some(vec![50]));

        let schedule: Schedule = ops.iter().copied().collect();
        let baseline = replay(
            &mut LinearDevice::new(LinearDeviceConfig::default()),
            &schedule,
            "t",
            ReplayConfig::default(),
        );
        tt_par::set_threads(4);
        let sharded = replay_sharded(
            &mut LinearDevice::new(LinearDeviceConfig::default()),
            &schedule,
            "t",
            ReplayConfig::default(),
        );
        tt_par::set_threads(0);
        assert_outcome_eq(&sharded, &baseline, "single cut");
    }

    #[test]
    fn gap_exactly_at_threshold_is_quiescent() {
        let _guard = THREADS.lock().unwrap();
        let device = LinearDevice::new(LinearDeviceConfig::default());
        let request = IoRequest::new(OpType::Read, 0, 8);
        // A fresh device is idle, so B₀ is exactly op 0's service bound;
        // making op 1 ready at precisely that instant probes the `≤` in
        // the cut condition.
        let bound = device.service_bound(&request).unwrap();
        let ops = vec![
            ScheduledOp {
                pre_delay: SimDuration::ZERO,
                request,
                mode: IssueMode::Async,
            },
            ScheduledOp {
                pre_delay: bound,
                request,
                mode: IssueMode::Async,
            },
        ];
        assert_eq!(quiescent_cuts(&device, &ops), Some(vec![1]));

        let schedule: Schedule = ops.iter().copied().collect();
        let baseline = replay(
            &mut LinearDevice::new(LinearDeviceConfig::default()),
            &schedule,
            "t",
            ReplayConfig::default(),
        );
        tt_par::set_threads(2);
        let sharded = replay_sharded(
            &mut LinearDevice::new(LinearDeviceConfig::default()),
            &schedule,
            "t",
            ReplayConfig::default(),
        );
        tt_par::set_threads(0);
        assert_outcome_eq(&sharded, &baseline, "threshold cut");
    }

    #[test]
    fn sync_ops_defeat_cut_analysis() {
        let device = LinearDevice::new(LinearDeviceConfig::default());
        let ops = vec![ScheduledOp {
            pre_delay: SimDuration::from_secs(60),
            request: IoRequest::new(OpType::Read, 0, 8),
            mode: IssueMode::Sync,
        }];
        assert_eq!(quiescent_cuts(&device, &ops), None);
    }

    #[test]
    fn device_ends_in_replay_final_contract_state() {
        let _guard = THREADS.lock().unwrap();
        let trace = bursty_trace(200, 0xDEAD);
        let schedule = Schedule::open_loop(&trace, 1.0);
        for (label, make) in device_factories() {
            let mut seq_dev = make();
            let baseline = replay(&mut *seq_dev, &schedule, "t", ReplayConfig::default());
            tt_par::set_threads(4);
            let mut shard_dev = make();
            let sharded = replay_sharded(&mut *shard_dev, &schedule, "t", ReplayConfig::default());
            tt_par::set_threads(0);
            assert_outcome_eq(&sharded, &baseline, label);
            // Any request issued at or after the makespan must behave
            // identically on the sequentially- and sharded-replayed device.
            let probe_at = SimInstant::ZERO + baseline.makespan + SimDuration::from_secs(1);
            for probe in [
                IoRequest::new(OpType::Write, 123_456 * 8, 64),
                IoRequest::new(OpType::Read, 123_456 * 8 + 64, 8),
            ] {
                assert_eq!(
                    seq_dev.service(&probe, probe_at),
                    shard_dev.service(&probe, probe_at),
                    "{label}: post-replay device state diverged"
                );
            }
        }
    }
}
