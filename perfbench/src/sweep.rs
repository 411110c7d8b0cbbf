//! The catalog sweep: the paper's evaluation mode, in process.
//!
//! Set-up materialises every catalog workload twice from one seeded
//! session: OLD on the 2007 HDD and NEW on the flash array, with device
//! timing only for the collections that recorded it (MSPS, MSRC). One
//! pass then, per workload, infers and decomposes OLD, reconstructs it
//! with all five methods on a fresh array each, and scores every
//! reconstruction against NEW and the inferred idle against the
//! session's ground truth. The pass's scores are the fidelity metrics.

use std::time::Instant;

use tracetracker::core::report::GapStats;
use tracetracker::core::{
    infer, Acceleration, Decomposition, Dynamic, FixedThreshold, InferenceConfig, Reconstructor,
    Revision, TraceTracker,
};
use tracetracker::device::presets;
use tracetracker::trace::time::SimDuration;
use tracetracker::trace::{GroupedTrace, Trace};
use tracetracker::workloads::{catalog, generate_session, WorkloadSet};

use crate::inputs::sub_seed;
use crate::spans::Tracer;

/// Requests per workload trace: tens of thousands, so one trace's
/// columns fit in a core's L2.
pub const REQUESTS: usize = 20_000;

/// Idle shorter than this counts as none (the paper's 100 µs floor).
pub const IDLE_FLOOR: SimDuration = SimDuration::from_usecs(100);

/// The five methods in a fixed order, with their metric labels.
pub const METHODS: [&str; 5] = [
    "tracetracker",
    "dynamic",
    "fixed-th",
    "revision",
    "acceleration",
];

fn method(label: &str) -> Box<dyn Reconstructor> {
    match label {
        "dynamic" => Box::new(Dynamic::new()),
        "fixed-th" => Box::new(FixedThreshold::paper_default()),
        "revision" => Box::new(Revision::new()),
        "acceleration" => Box::new(Acceleration::x100()),
        _ => Box::new(TraceTracker::new()),
    }
}

/// One catalog workload's OLD/NEW pair and its ground-truth idle.
#[derive(Debug)]
pub struct Case {
    pub old: Trace,
    pub new: Trace,
    /// Number and total of the session's idle periods above the floor.
    pub true_idle_count: usize,
    pub true_idle_total: SimDuration,
}

/// Builds every case. Deterministic in `seed`.
pub fn setup(seed: u64, requests: usize, tracer: &mut Tracer) -> Vec<Case> {
    catalog::all()
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            let session = tracer.time("setup.generate", || {
                generate_session(
                    entry.name,
                    &entry.profile,
                    requests,
                    sub_seed(seed, i as u64),
                )
            });
            let timing = matches!(entry.set, WorkloadSet::Msps | WorkloadSet::Msrc);
            let (old, new) = tracer.time("setup.materialize", || {
                let old = session
                    .materialize(&mut presets::enterprise_hdd_2007(), timing)
                    .trace;
                let new = session
                    .materialize(&mut presets::intel_750_array(), timing)
                    .trace;
                (old, new)
            });
            let idle: Vec<SimDuration> = session
                .ground_truth_idle()
                .into_iter()
                .filter(|&t| t > IDLE_FLOOR)
                .collect();
            Case {
                old,
                new,
                true_idle_count: idle.len(),
                true_idle_total: idle.iter().copied().sum(),
            }
        })
        .collect()
}

/// The fidelity scores of one pass. Every field is a pure function of
/// the cases, so passes over the same cases must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Scores {
    /// Mean over workloads of 100·(1 − |inferred − true| ÷ true) idle
    /// count above the floor.
    pub idle_freq_acc: f64,
    /// The same for total idle time above the floor.
    pub idle_period_acc: f64,
    /// Workloads where TraceTracker has the lowest mean |ΔTintt| against
    /// NEW.
    pub tt_wins: usize,
    /// TraceTracker's mean |ΔTintt| against NEW, averaged over workloads,
    /// in µs.
    pub tt_tintt_err_us: f64,
    /// Per workload, each method's mean |ΔTintt| in ns (METHODS order).
    pub errors_ns: Vec<[u64; 5]>,
}

/// What one pass produced besides its scores.
#[derive(Debug, Default)]
pub struct PassStats {
    /// OLD records reconstructed, summed over methods.
    pub records_reconstructed: usize,
    /// Wall time of each workload's evaluation, in ms.
    pub workload_ms: Vec<f64>,
    /// Groups the grouping layer formed, summed over workloads (traced
    /// passes only).
    pub groups: usize,
}

fn accuracy(inferred: f64, truth: f64) -> f64 {
    100.0 * (1.0 - (inferred - truth).abs() / truth)
}

/// Runs one evaluation pass over `cases`.
pub fn pass(cases: &[Case], tracer: &mut Tracer) -> (Scores, PassStats) {
    let config = InferenceConfig::default();
    let mut stats = PassStats::default();
    let mut freq = Vec::new();
    let mut period = Vec::new();
    let mut errors_ns = Vec::with_capacity(cases.len());
    for case in cases {
        let started = Instant::now();
        let unit = tracer.begin("sweep.workload");
        if tracer.enabled() {
            // Grouping runs inside inference too; the probe times it on
            // its own.
            let grouped = tracer.time("group", || GroupedTrace::build(&case.old));
            stats.groups += grouped.group_count();
        }
        let inferred = tracer.time("infer", || infer(&case.old, &config));
        let decomp = tracer.time("decompose", || {
            Decomposition::compute(&case.old, &inferred.estimate)
        });
        if case.true_idle_count > 0 {
            freq.push(accuracy(
                decomp.idle_count(IDLE_FLOOR) as f64,
                case.true_idle_count as f64,
            ));
            let inferred_total: SimDuration = decomp
                .tidle
                .iter()
                .copied()
                .filter(|&t| t > IDLE_FLOOR)
                .sum();
            period.push(accuracy(
                inferred_total.as_usecs_f64(),
                case.true_idle_total.as_usecs_f64(),
            ));
        }
        let mut errs = [0u64; 5];
        for (slot, label) in errs.iter_mut().zip(METHODS) {
            let m = method(label);
            let rebuilt = tracer.time(&format!("reconstruct.{label}"), || {
                m.reconstruct(&case.old, &mut presets::intel_750_array())
            });
            stats.records_reconstructed += case.old.len();
            *slot = tracer.time("score", || {
                GapStats::compare(&rebuilt, &case.new).mean_abs.as_nanos()
            });
        }
        errors_ns.push(errs);
        tracer.end(unit);
        stats
            .workload_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let tt_wins = errors_ns
        .iter()
        .filter(|e| e[1..].iter().all(|&other| e[0] < other))
        .count();
    let tt_err: Vec<f64> = errors_ns.iter().map(|e| e[0] as f64 / 1e3).collect();
    let scores = Scores {
        idle_freq_acc: mean(&freq),
        idle_period_acc: mean(&period),
        tt_wins,
        tt_tintt_err_us: mean(&tt_err),
        errors_ns,
    };
    (scores, stats)
}
