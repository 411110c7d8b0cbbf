//! Timing inference from old block traces (paper §III-§IV).
//!
//! The pipeline, per operation type:
//!
//! 1. partition requests into (sequentiality × op × size) groups;
//! 2. rank the per-size sequential CDFs of `Tintt` by **steepness**
//!    (Algorithm 1's PDF-outlier proxy);
//! 3. interpolate the two steepest CDFs (pchip by default) and locate their
//!    maximum-derivative points `T'` — the per-group `Tslat` estimates.
//!    Each group's PDF (step 2) and CDF come from one histogram of its
//!    gaps on a fixed linear-then-log grid, so no sample is sorted; the
//!    derivative is scanned at six points per knot interval;
//! 4. solve the linear model: `β = ΔT / |size₁ − size₂|`,
//!    `Tcdel = T'₁ − β·size₁`;
//! 5. estimate `Tmovd` from the steepest *random* group:
//!    `Tmovd = T'rand − (Tcdel + coeff·size)`.
//!
//! Degenerate workloads (uniform request size, single op type) fall back to
//! coarser estimators; every fallback is reported in the diagnostics.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use tt_stats::{examine_steepness, CubicSpline, DiscretePdf, Ecdf, Pchip};
use tt_trace::time::SimDuration;
use tt_trace::{Columns, Group, GroupKey, GroupedTrace, OpType, Sequentiality, Trace};

use crate::inference::estimate::DeviceEstimate;

/// How `ΔT` — the service-time offset between the two steepest per-size
/// CDFs — is extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaEstimator {
    /// Horizontal distance between the two CDFs' maximum-derivative points.
    /// This is what the paper's `CDF(diff)` construction (Fig 6) measures
    /// when the two CDFs are shifted copies, and is robust when they are
    /// not. Default.
    SteepestOffset,
    /// Paper-literal: interpolate `CDF₁(t) − CDF₂(t)` and read the `Tintt`
    /// at the maximum of its derivative. Kept for the ablation bench; on
    /// step-like CDFs this lands on the *earlier* rise rather than the
    /// offset, which is why [`DeltaEstimator::SteepestOffset`] is the
    /// default.
    CdfDiff,
}

/// Which interpolant differentiates the CDFs (paper §IV prefers pchip;
/// spline is kept for the Fig 9 / ablation comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterpolationKind {
    /// Monotone piecewise cubic Hermite (shape-preserving).
    Pchip,
    /// Natural cubic spline (oscillates on step data).
    Spline,
}

/// Inference tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Minimum `Tintt` samples for a group to join the steepness ranking.
    pub min_group_samples: usize,
    /// Grid points of the `ΔT` derivative scan under
    /// [`DeltaEstimator::CdfDiff`]; unused otherwise (the steepest-rise
    /// scan samples six points per knot interval).
    pub grid_samples: usize,
    /// PDF bin width for Algorithm 1, microseconds.
    pub pdf_bin_us: f64,
    /// `ΔT` extraction strategy.
    pub delta_estimator: DeltaEstimator,
    /// CDF interpolation scheme.
    pub interpolation: InterpolationKind,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            min_group_samples: 20,
            grid_samples: 1_500,
            pdf_bin_us: 1.0,
            delta_estimator: DeltaEstimator::SteepestOffset,
            interpolation: InterpolationKind::Pchip,
        }
    }
}

/// Diagnostics for one analysed group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupAnalysis {
    /// Request size of the group, sectors.
    pub sectors: u32,
    /// Operation type.
    pub op: OpType,
    /// Sequentiality of the group.
    pub seq: Sequentiality,
    /// Number of `Tintt` samples.
    pub samples: usize,
    /// Algorithm 1 steepness score.
    pub steepness: f64,
    /// Location of the CDF's steepest rise (the group `Tslat` estimate),
    /// microseconds.
    pub rise_usec: f64,
}

/// Which estimator produced an operation's coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpFallback {
    /// Two sequential groups of distinct sizes — the full §III method.
    None,
    /// Sequential groups existed for only one size; random groups of a
    /// second size filled in (their shared `Tmovd` cancels in `ΔT`).
    MixedSequentiality,
    /// A single usable group: its whole rise is attributed to `Tsdev`
    /// (`Tcdel = 0`).
    SingleGroup,
    /// No per-size group was large enough; all of the op's gaps were pooled
    /// into one CDF.
    PooledCdf,
    /// The op does not occur in the trace; parameters copied from the other
    /// op.
    CopiedFromOtherOp,
}

/// Per-operation inference output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpInference {
    /// Per-sector device-time coefficient (β or η), nanoseconds.
    pub coeff_ns_per_sector: f64,
    /// Channel delay estimate.
    pub tcdel: SimDuration,
    /// The steepest group used.
    pub steep1: Option<GroupAnalysis>,
    /// The second group used.
    pub steep2: Option<GroupAnalysis>,
    /// Which estimator path ran.
    pub fallback: OpFallback,
}

/// Full inference output: the recovered device model plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResult {
    /// The recovered linear device model.
    pub estimate: DeviceEstimate,
    /// Read-side diagnostics.
    pub read: OpInference,
    /// Write-side diagnostics.
    pub write: OpInference,
    /// The random group that yielded `Tmovd`, if any.
    pub tmovd_source: Option<GroupAnalysis>,
}

/// Runs the full timing inference on a trace.
///
/// Works from timestamps alone — device-side timing on the records is
/// ignored here (it is exploited later, in
/// [`Decomposition`](crate::Decomposition)). An empty or degenerate trace yields an
/// all-zero estimate with the corresponding fallbacks set.
///
/// # Examples
///
/// ```
/// use tt_core::{infer, InferenceConfig};
/// use tt_device::{LinearDevice, LinearDeviceConfig};
/// use tt_workloads::{generate_session, WorkloadProfile};
///
/// let session = generate_session("demo", &WorkloadProfile::default(), 2_000, 3);
/// let mut device = LinearDevice::new(LinearDeviceConfig::default());
/// let trace = session.materialize(&mut device, false).trace;
///
/// let result = infer(&trace, &InferenceConfig::default());
/// assert!(result.estimate.beta_ns_per_sector >= 0.0);
/// ```
#[must_use]
pub fn infer(trace: &Trace, config: &InferenceConfig) -> InferenceResult {
    infer_columns(trace.view(), config)
}

/// [`infer`] over a borrowed column view — the entry point shared by owned
/// traces and memory-mapped `.ttb` files
/// ([`MmapTrace`](tt_trace::MmapTrace)), with bit-identical results either
/// way: inference is a pure function of the grouped partition, which
/// [`GroupedTrace::build_columns`] builds identically from both.
#[must_use]
pub fn infer_columns(cols: Columns<'_>, config: &InferenceConfig) -> InferenceResult {
    let grouped = GroupedTrace::build_columns(cols);
    let analyses = analyse_all(&grouped, config);

    let read = infer_op(&grouped, &analyses, OpType::Read, config);
    let write = infer_op(&grouped, &analyses, OpType::Write, config);

    // Copy parameters across when one op is entirely missing.
    let (read, write) = match (read, write) {
        (Some(r), Some(w)) => (r, w),
        (Some(r), None) => (
            r,
            OpInference {
                fallback: OpFallback::CopiedFromOtherOp,
                steep1: None,
                steep2: None,
                ..r
            },
        ),
        (None, Some(w)) => (
            OpInference {
                fallback: OpFallback::CopiedFromOtherOp,
                steep1: None,
                steep2: None,
                ..w
            },
            w,
        ),
        (None, None) => {
            let empty = OpInference {
                coeff_ns_per_sector: 0.0,
                tcdel: SimDuration::ZERO,
                steep1: None,
                steep2: None,
                fallback: OpFallback::CopiedFromOtherOp,
            };
            (empty, empty)
        }
    };

    // Tmovd: every random group proposes `rise − (Tcdel + coeff·size)`.
    // Groups dominated by asynchronous back-to-back gaps propose negative
    // values (their rise sits below the linear service estimate) and carry
    // no seek information — they are skipped. Of the positive proposals the
    // *median* is kept: single groups whose rise locked onto an idle mode
    // rather than the seek mode would otherwise drag the estimate by
    // orders of magnitude.
    let mut candidates: Vec<(SimDuration, GroupAnalysis)> = {
        let mut groups: Vec<GroupAnalysis> = analyses
            .iter()
            .filter(|(k, _)| k.seq == Sequentiality::Random)
            .map(|(_, a)| *a)
            .collect();
        groups.sort_by(|a, b| b.steepness.total_cmp(&a.steepness));
        groups
            .into_iter()
            .filter_map(|g| {
                let op_inf = if g.op.is_read() { &read } else { &write };
                let base = op_inf.tcdel.as_usecs_f64()
                    + op_inf.coeff_ns_per_sector * f64::from(g.sectors) / 1_000.0;
                (g.rise_usec > base).then(|| (SimDuration::from_usecs_f64(g.rise_usec - base), g))
            })
            .collect()
    };
    let (tmovd, tmovd_source) = if candidates.is_empty() {
        (SimDuration::ZERO, None)
    } else {
        // The candidate list is not used again: sort it in place for the
        // median instead of sorting a clone.
        candidates.sort_by_key(|&(d, _)| d);
        let (d, g) = candidates[candidates.len() / 2];
        (d, Some(g))
    };

    InferenceResult {
        estimate: DeviceEstimate {
            beta_ns_per_sector: read.coeff_ns_per_sector,
            eta_ns_per_sector: write.coeff_ns_per_sector,
            tcdel_read: read.tcdel,
            tcdel_write: write.tcdel,
            tmovd,
        },
        read,
        write,
        tmovd_source,
    }
}

/// Geometric growth of bin widths beyond the linear region (≈5% relative
/// resolution, ~47 bins per decade).
const LOG_BIN_RATIO: f64 = 1.05;

/// Slots `0..LINEAR_SLOTS` are the linear bins `[k·bin, (k+1)·bin)` up to
/// `10·bin` (a sample of exactly `10·bin` lands in slot 10); slot
/// `LINEAR_SLOTS + k` is the `k`-th logarithmic bin above it.
const LINEAR_SLOTS: usize = 11;

/// The linear bin width inference quantises with (clamped away from 0).
fn grid_bin(config: &InferenceConfig) -> f64 {
    config.pdf_bin_us.max(1e-3)
}

/// Histogram of latency samples (µs) on a linear-then-logarithmic grid:
/// fixed `bin`-wide bins up to `10·bin`, then geometrically growing bins.
/// Latency data spans six decades (µs channel delays to minute-long
/// idles); fixed-width bins either starve the millisecond region of mass
/// or blur the microsecond region.
///
/// One pass counts samples per slot; each occupied slot's centre — the
/// value every sample in it quantises to — is computed once. The grid has
/// at most about 900 slots, so the PDF and the CDF of a group are built
/// from its histogram without quantising or sorting the samples.
struct GapHistogram {
    bin: f64,
    counts: Vec<u64>,
    n: usize,
}

impl GapHistogram {
    fn new(bin: f64) -> Self {
        GapHistogram {
            bin,
            counts: Vec::new(),
            n: 0,
        }
    }

    /// Counts non-negative samples (µs).
    fn add(&mut self, samples_us: impl IntoIterator<Item = f64>) {
        let threshold = self.bin * 10.0;
        let ln_ratio = LOG_BIN_RATIO.ln();
        for x in samples_us {
            let slot = if x <= threshold {
                (x / self.bin).floor() as usize
            } else {
                LINEAR_SLOTS + ((x / threshold).ln() / ln_ratio).floor() as usize
            };
            if slot >= self.counts.len() {
                self.counts.resize(slot + 1, 0);
            }
            self.counts[slot] += 1;
            self.n += 1;
        }
    }

    /// Centre of `slot` — bit for bit the value the quantiser maps the
    /// slot's samples to.
    fn centre(&self, slot: usize) -> f64 {
        if slot < LINEAR_SLOTS {
            (slot as f64 + 0.5) * self.bin
        } else {
            let idx = (slot - LINEAR_SLOTS) as f64;
            self.bin * 10.0 * LOG_BIN_RATIO.powf(idx + 0.5)
        }
    }

    /// Occupied bins as `(centre, count)`, centres ascending. Each run —
    /// linear, logarithmic — ascends with its slot, but the last linear
    /// centre (`10.5·bin`) falls between the first two log centres, so the
    /// runs are merged by centre.
    fn bins(&self) -> Vec<(f64, u64)> {
        let occupied = |slots: std::ops::Range<usize>| {
            slots
                .filter_map(|s| {
                    let c = *self.counts.get(s)?;
                    (c > 0).then(|| (self.centre(s), c))
                })
                .collect::<Vec<_>>()
        };
        let linear = occupied(0..LINEAR_SLOTS.min(self.counts.len()));
        let log = occupied(LINEAR_SLOTS..self.counts.len());
        let mut merged = Vec::with_capacity(linear.len() + log.len());
        let (mut i, mut j) = (0, 0);
        while i < linear.len() && j < log.len() {
            if linear[i].0 <= log[j].0 {
                merged.push(linear[i]);
                i += 1;
            } else {
                merged.push(log[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&linear[i..]);
        merged.extend_from_slice(&log[j..]);
        merged
    }
}

/// Empirical CDF support of [`GapHistogram::bins`] (distinct values,
/// ascending): `(value, cumulative count / n)` per bin — exactly the
/// `(i+1)/n` fractions [`Ecdf::points`] assigns the sorted samples.
fn cdf_support(bins: &[(f64, u64)]) -> Vec<(f64, f64)> {
    let n = bins.iter().map(|&(_, c)| c).sum::<u64>() as f64;
    let mut cumulative = 0u64;
    bins.iter()
        .map(|&(v, c)| {
            cumulative += c;
            (v, cumulative as f64 / n)
        })
        .collect()
}

/// Width of the bin whose centre is `c` on the [`GapHistogram`] grid.
fn bin_width_at(c: f64, bin: f64) -> f64 {
    let threshold = bin * 10.0;
    if c <= threshold {
        bin
    } else {
        c * (LOG_BIN_RATIO.sqrt() - 1.0 / LOG_BIN_RATIO.sqrt())
    }
}

/// Analyses one group's `Tintt` samples (µs, non-negative): Algorithm 1
/// steepness of the binned PDF + steepest rise of the binned CDF, both
/// read off one [`GapHistogram`].
fn analyse_samples(
    key: GroupKey,
    samples_us: impl ExactSizeIterator<Item = f64>,
    config: &InferenceConfig,
) -> Option<GroupAnalysis> {
    if samples_us.len() < config.min_group_samples {
        return None;
    }
    let mut hist = GapHistogram::new(grid_bin(config));
    hist.add(samples_us);
    let bins = hist.bins();
    let pdf = DiscretePdf::from_sorted_counts(&bins)?;
    let steep = examine_steepness(&pdf);
    let rise = steepest_rise(&bins, config)?;
    Some(GroupAnalysis {
        sectors: key.sectors,
        op: key.op,
        seq: key.seq,
        samples: hist.n,
        steepness: steep.steepness,
        rise_usec: rise,
    })
}

/// A group's `Tintt` samples in microseconds.
fn gaps_usec(group: &Group) -> impl ExactSizeIterator<Item = f64> + '_ {
    group.inter_arrivals.iter().map(|d| d.as_usecs_f64())
}

/// Runs [`analyse_samples`] over **every** group, fanned out across cores
/// with `tt_par` (sequential when one worker is configured). Each group is
/// binned straight off its `inter_arrivals`, with no sample buffer.
///
/// Each group's analysis is a pure function of its own samples, and results
/// are keyed back by `GroupKey`, so the map is bit-identical regardless of
/// worker count. Analysing once up front also deduplicates work the
/// per-op/per-fallback passes previously repeated.
fn analyse_all(
    grouped: &GroupedTrace,
    config: &InferenceConfig,
) -> BTreeMap<GroupKey, GroupAnalysis> {
    let entries: Vec<(GroupKey, &Group)> = grouped.iter().map(|(k, g)| (*k, g)).collect();
    let analyses = tt_par::par_map(&entries, |(key, group)| {
        analyse_samples(*key, gaps_usec(group), config)
    });
    entries
        .iter()
        .zip(analyses)
        .filter_map(|(&(key, _), analysis)| analysis.map(|a| (key, a)))
        .collect()
}

/// Location of the CDF's steepest rise using the configured interpolant.
///
/// Works on `CDF(log₁₀ Tintt)` — the coordinate the paper plots every CDF
/// in (Figs 1, 5, 12, 15). Steepness per *decade*, not per microsecond,
/// makes a service-time mode concentrated within a third of a decade beat
/// both the exponential spray of asynchronous back-to-back gaps below it
/// and the decade-wide lognormal idle mass above it.
///
/// `bins` are the occupied `(centre, count)` bins of the samples'
/// [`GapHistogram`] on the linear-then-log grid. Their empirical CDF is
/// re-expressed as flat-then-jump knot pairs at that resolution (an extra
/// knot carrying the previous cumulative value one bin before each support
/// point), and the interpolant's maximum derivative is located inside the
/// jump segments by [`interval_slopes`]. Returns the rise location in
/// microseconds; `None` for an empty histogram.
fn steepest_rise(bins: &[(f64, u64)], config: &InferenceConfig) -> Option<f64> {
    let bin = grid_bin(config);
    let support = cdf_support(bins);
    let first = support.first()?.0;

    // Step-shaped knots in log10 coordinates:
    // ... (log(x_k − w_k), F_{k−1}), (log(x_k), F_k) ...
    let mut knots: Vec<(f64, f64)> = Vec::with_capacity(support.len() * 2);
    let mut prev_f = 0.0;
    for &(x, f) in &support {
        let w = bin_width_at(x, bin);
        let ledge = (x - w).max(x / 2.0).log10();
        let xl = x.log10();
        if knots.last().is_none_or(|&(lx, _)| lx < ledge - 1e-12) {
            knots.push((ledge, prev_f));
        }
        knots.push((xl, f));
        prev_f = f;
    }
    if knots.len() < 2 {
        return Some(first.max(0.0));
    }
    let slopes = match config.interpolation {
        InterpolationKind::Pchip => interval_slopes(&Pchip::new(knots.clone()).ok()?, &knots),
        InterpolationKind::Spline => {
            interval_slopes(&CubicSpline::new(knots.clone()).ok()?, &knots)
        }
    };

    // The paper's Fig 5 taxonomy warns that "multi maxima" CDFs defeat a
    // plain global-maximum rule: an idle mode can out-steepen the service
    // mode (each idle value is service + constant, so it inherits the
    // service mode's compactness). Service time is the *lower envelope* of
    // the gap distribution, so among all rises within a factor of the
    // steepest we keep the earliest one.
    const KEEP: f64 = 0.4;
    let max_slope = slopes
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    let rise_log = slopes
        .iter()
        .find(|&&(_, s)| s >= max_slope * KEEP)
        .map_or(knots[0].0, |&(x, _)| x);
    Some(10f64.powf(rise_log))
}

/// Intervals per parallel grid-scan chunk: grids shorter than this are
/// scanned sequentially (thread spawn would cost more than the scan), and
/// chunks never drop below it, bounding worker count for mid-size grids.
const GRID_PAR_MIN_CHUNK: usize = 1024;

/// Maximum derivative location and magnitude inside every knot interval,
/// in ascending-x order. (A uniform grid over the whole domain would skip
/// the bin-wide jump segments entirely when the domain spans milliseconds.)
/// Each interval's six points are evaluated with
/// [`derivative_in`](tt_stats::Interpolant::derivative_in), so the scan
/// needs no interval search.
///
/// The scan fans out across cores via `tt_par` for large grids — the
/// within-group parallelism that keeps one dominant group from bounding
/// the whole inference speedup (Amdahl). Each interval's best point is a
/// pure function of that interval, and per-chunk results concatenate in
/// interval order, so parallel and sequential scans are **bit-identical**
/// at any worker count (property-tested).
fn interval_slopes<I>(interp: &I, knots: &[(f64, f64)]) -> Vec<(f64, f64)>
where
    I: tt_stats::Interpolant + Sync,
{
    const PER_INTERVAL: usize = 5;
    let scan_interval = |i: usize, w: &[(f64, f64)]| {
        let mut best = (w[0].0, f64::NEG_INFINITY);
        for j in 0..=PER_INTERVAL {
            let t = j as f64 / PER_INTERVAL as f64;
            let x = w[0].0 + (w[1].0 - w[0].0) * t;
            let d = interp.derivative_in(i, x);
            if d > best.1 {
                best = (x, d);
            }
        }
        best
    };
    let intervals = knots.len().saturating_sub(1);
    tt_par::par_chunk_map(intervals, GRID_PAR_MIN_CHUNK, |range| {
        knots[range.start..range.end + 1]
            .windows(2)
            .enumerate()
            .map(|(j, w)| scan_interval(range.start + j, w))
            .collect::<Vec<(f64, f64)>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Analyses for one `(sequentiality, op)` stratum, in size (key) order.
fn stratum(
    analyses: &BTreeMap<GroupKey, GroupAnalysis>,
    seq: Sequentiality,
    op: OpType,
) -> impl Iterator<Item = GroupAnalysis> + '_ {
    analyses
        .iter()
        .filter(move |(k, _)| k.seq == seq && k.op == op)
        .map(|(_, a)| *a)
}

/// Per-op inference over the precomputed per-group analyses. `None` when
/// the op has no gaps at all.
fn infer_op(
    grouped: &GroupedTrace,
    analyses: &BTreeMap<GroupKey, GroupAnalysis>,
    op: OpType,
    config: &InferenceConfig,
) -> Option<OpInference> {
    // Rank qualifying sequential groups by steepness.
    let mut analysed: Vec<GroupAnalysis> =
        stratum(analyses, Sequentiality::Sequential, op).collect();
    analysed.sort_by(|a, b| b.steepness.total_cmp(&a.steepness));

    let steep1 = analysed.first().copied();
    let steep2 = steep1.and_then(|s1| analysed.iter().find(|g| g.sectors != s1.sectors).copied());

    match (steep1, steep2) {
        (Some(s1), Some(s2)) => Some(solve_pair(s1, s2, OpFallback::None, grouped, config)),
        (Some(s1), None) => {
            // Try a random group of a different size: Tmovd cancels in ΔT.
            let rand = stratum(analyses, Sequentiality::Random, op)
                .filter(|g| g.sectors != s1.sectors)
                .max_by(|a, b| a.steepness.total_cmp(&b.steepness));
            match rand {
                Some(s2) => Some(solve_pair(
                    s1,
                    s2,
                    OpFallback::MixedSequentiality,
                    grouped,
                    config,
                )),
                None => Some(single_group(s1)),
            }
        }
        (None, _) => {
            // No usable sequential group; try per-size random groups first.
            let mut rand: Vec<GroupAnalysis> =
                stratum(analyses, Sequentiality::Random, op).collect();
            rand.sort_by(|a, b| b.steepness.total_cmp(&a.steepness));
            let r1 = rand.first().copied();
            let r2 = r1.and_then(|s1| rand.iter().find(|g| g.sectors != s1.sectors).copied());
            match (r1, r2) {
                (Some(s1), Some(s2)) => Some(solve_pair(
                    s1,
                    s2,
                    OpFallback::MixedSequentiality,
                    grouped,
                    config,
                )),
                (Some(s1), None) => Some(single_group(s1)),
                (None, _) => pooled_op(grouped, op, config),
            }
        }
    }
}

/// Full two-group solve: `β = ΔT/|Δsize|`, `Tcdel = T'₁ − β·size₁`.
fn solve_pair(
    s1: GroupAnalysis,
    s2: GroupAnalysis,
    fallback: OpFallback,
    grouped: &GroupedTrace,
    config: &InferenceConfig,
) -> OpInference {
    let delta_t_us = match config.delta_estimator {
        DeltaEstimator::SteepestOffset => (s1.rise_usec - s2.rise_usec).abs(),
        DeltaEstimator::CdfDiff => cdf_diff_delta(&s1, &s2, grouped, config)
            .unwrap_or_else(|| (s1.rise_usec - s2.rise_usec).abs()),
    };
    let delta_size = f64::from(s1.sectors.abs_diff(s2.sectors));
    let coeff_ns = (delta_t_us * 1_000.0 / delta_size).max(0.0);
    let tcdel_us = (s1.rise_usec - coeff_ns * f64::from(s1.sectors) / 1_000.0).max(0.0);
    OpInference {
        coeff_ns_per_sector: coeff_ns,
        tcdel: SimDuration::from_usecs_f64(tcdel_us),
        steep1: Some(s1),
        steep2: Some(s2),
        fallback,
    }
}

/// Paper-literal `ΔT`: interpolate `CDF₁ − CDF₂` on the merged support and
/// return the location of the maximum derivative magnitude.
fn cdf_diff_delta(
    s1: &GroupAnalysis,
    s2: &GroupAnalysis,
    grouped: &GroupedTrace,
    config: &InferenceConfig,
) -> Option<f64> {
    let fetch = |g: &GroupAnalysis| -> Option<Ecdf> {
        let key = tt_trace::GroupKey {
            seq: g.seq,
            op: g.op,
            sectors: g.sectors,
        };
        Ecdf::new(grouped.get(&key)?.inter_arrivals_usec())
    };
    let a = fetch(s1)?;
    let b = fetch(s2)?;
    let mut diff = a.difference(&b);
    diff.dedup_by(|x, y| x.0 == y.0);
    if diff.len() < 2 {
        return None;
    }
    let pchip = Pchip::new(diff).ok()?;
    // Scan |D'(t)| for its peak location, fanned out across cores for
    // large grids. Per-chunk winners are folded in chunk order with a
    // strict comparison, so the earliest strict maximum wins exactly as in
    // a sequential scan — parallel == sequential bit for bit.
    let (lo, hi) = tt_stats::Interpolant::domain(&pchip);
    let n = config.grid_samples.max(2);
    let step = (hi - lo) / (n - 1) as f64;
    let best = tt_par::par_chunk_map(n, GRID_PAR_MIN_CHUNK, |range| {
        let mut local = (lo, f64::NEG_INFINITY);
        for i in range {
            let x = lo + step * i as f64;
            let d = tt_stats::Interpolant::derivative(&pchip, x).abs();
            if d > local.1 {
                local = (x, d);
            }
        }
        local
    })
    .into_iter()
    .fold((lo, f64::NEG_INFINITY), |best, cand| {
        if cand.1 > best.1 {
            cand
        } else {
            best
        }
    });
    Some(best.0)
}

fn single_group(s1: GroupAnalysis) -> OpInference {
    OpInference {
        coeff_ns_per_sector: (s1.rise_usec * 1_000.0 / f64::from(s1.sectors)).max(0.0),
        tcdel: SimDuration::ZERO,
        steep1: Some(s1),
        steep2: None,
        fallback: OpFallback::SingleGroup,
    }
}

/// Pool every gap of the op into one CDF, ignoring size and sequentiality.
fn pooled_op(grouped: &GroupedTrace, op: OpType, config: &InferenceConfig) -> Option<OpInference> {
    let mut hist = GapHistogram::new(grid_bin(config));
    let mut weighted_sectors = 0.0f64;
    let mut members = 0usize;
    for (k, g) in grouped.iter().filter(|(k, _)| k.op == op) {
        hist.add(gaps_usec(g));
        weighted_sectors += f64::from(k.sectors) * g.len() as f64;
        members += g.len();
    }
    if hist.n < 2 || members == 0 {
        return None;
    }
    let rise = steepest_rise(&hist.bins(), config)?;
    let mean_sectors = weighted_sectors / members as f64;
    Some(OpInference {
        coeff_ns_per_sector: (rise * 1_000.0 / mean_sectors).max(0.0),
        tcdel: SimDuration::ZERO,
        steep1: None,
        steep2: None,
        fallback: OpFallback::PooledCdf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_device::{LinearDevice, LinearDeviceConfig};
    use tt_sim::{replay, IssueMode, ReplayConfig, Schedule, ScheduledOp};

    fn linear_cfg() -> LinearDeviceConfig {
        LinearDeviceConfig {
            beta_ns_per_sector: 1_500,
            eta_ns_per_sector: 3_000,
            tcdel_read: SimDuration::from_usecs(12),
            tcdel_write: SimDuration::from_usecs(18),
            tmovd: SimDuration::from_msecs(6),
            serialize: true,
        }
    }

    /// Builds a trace with sequential runs of two sizes per op plus random
    /// accesses and occasional idle, on the linear device.
    fn ground_truth_trace(n: usize) -> Trace {
        use tt_device::IoRequest;
        use tt_trace::OpType;

        let mut schedule = Schedule::new();
        let mut lba = 0u64;
        let mut k = 0usize;
        while schedule.len() < n {
            // Alternate blocks: seq reads of 8, seq reads of 32, seq writes
            // of 8/32, one random access, sometimes idle.
            let phase = k % 5;
            k += 1;
            let (op, sectors, random) = match phase {
                0 => (OpType::Read, 8u32, false),
                1 => (OpType::Read, 32, false),
                2 => (OpType::Write, 8, false),
                3 => (OpType::Write, 32, false),
                _ => (OpType::Read, 8, true),
            };
            // A run of 12 requests of this class.
            for j in 0..12 {
                if random {
                    lba = (lba + 7_777_777) % 1_000_000_000;
                } // else contiguous
                let pre = if j == 0 {
                    SimDuration::from_msecs(40) // idle between phases
                } else {
                    SimDuration::from_usecs(50) // think within run
                };
                schedule.push(ScheduledOp {
                    pre_delay: pre,
                    request: IoRequest::new(op, lba, sectors),
                    mode: IssueMode::Sync,
                });
                lba += u64::from(sectors);
            }
        }
        let mut dev = LinearDevice::new(linear_cfg());
        replay(&mut dev, &schedule, "gt", ReplayConfig::default()).trace
    }

    #[test]
    fn recovers_linear_device_parameters() {
        let trace = ground_truth_trace(1_200);
        let result = infer(&trace, &InferenceConfig::default());
        let est = result.estimate;

        // β: true 1500 ns/sector. The think time (50us) rides on top of
        // Tslat in every gap, but it is constant across sizes so it cancels
        // in ΔT. Accept 30% tolerance.
        assert!(
            (est.beta_ns_per_sector - 1_500.0).abs() / 1_500.0 < 0.3,
            "beta {} vs 1500",
            est.beta_ns_per_sector
        );
        assert!(
            (est.eta_ns_per_sector - 3_000.0).abs() / 3_000.0 < 0.3,
            "eta {} vs 3000",
            est.eta_ns_per_sector
        );
        // Tcdel absorbs the constant think time: true 12us + 50us think.
        let tcdel_us = est.tcdel_read.as_usecs_f64();
        assert!((10.0..120.0).contains(&tcdel_us), "tcdel_read {tcdel_us}us");
        // Tmovd: true 6ms.
        let tmovd_ms = est.tmovd.as_msecs_f64();
        assert!((3.0..12.0).contains(&tmovd_ms), "tmovd {tmovd_ms}ms");
        assert_eq!(result.read.fallback, OpFallback::None);
        assert_eq!(result.write.fallback, OpFallback::None);
    }

    #[test]
    fn empty_trace_yields_zero_estimate() {
        let result = infer(&Trace::new(), &InferenceConfig::default());
        assert_eq!(result.estimate.beta_ns_per_sector, 0.0);
        assert_eq!(result.estimate.tmovd, SimDuration::ZERO);
        assert_eq!(result.read.fallback, OpFallback::CopiedFromOtherOp);
    }

    #[test]
    fn spline_config_also_runs() {
        let trace = ground_truth_trace(600);
        let cfg = InferenceConfig {
            interpolation: InterpolationKind::Spline,
            ..InferenceConfig::default()
        };
        let result = infer(&trace, &cfg);
        assert!(result.estimate.beta_ns_per_sector > 0.0);
    }

    #[test]
    fn cdf_diff_estimator_runs() {
        let trace = ground_truth_trace(600);
        let cfg = InferenceConfig {
            delta_estimator: DeltaEstimator::CdfDiff,
            ..InferenceConfig::default()
        };
        let result = infer(&trace, &cfg);
        assert!(result.estimate.beta_ns_per_sector >= 0.0);
    }

    /// The inference path before the gap histogram, frozen as the
    /// bit-identity reference: quantise every sample, `DiscretePdf::exact`
    /// and `Ecdf::new(..).points()` over the quantised copies, and a scan
    /// that searches for every point's interval (`derivative`).
    mod reference {
        use super::super::*;

        pub(super) fn quantize_us(x: f64, bin: f64) -> f64 {
            let threshold = bin * 10.0;
            if x <= threshold {
                ((x / bin).floor() + 0.5) * bin
            } else {
                let idx = ((x / threshold).ln() / LOG_BIN_RATIO.ln()).floor();
                threshold * LOG_BIN_RATIO.powf(idx + 0.5)
            }
        }

        pub(super) fn analyse(
            key: GroupKey,
            samples: &[f64],
            config: &InferenceConfig,
        ) -> Option<GroupAnalysis> {
            if samples.len() < config.min_group_samples {
                return None;
            }
            let bin = config.pdf_bin_us.max(1e-3);
            let quantised: Vec<f64> = samples.iter().map(|&x| quantize_us(x, bin)).collect();
            let pdf = DiscretePdf::exact(&quantised)?;
            let steep = examine_steepness(&pdf);
            let rise = rise(samples, config)?;
            Some(GroupAnalysis {
                sectors: key.sectors,
                op: key.op,
                seq: key.seq,
                samples: samples.len(),
                steepness: steep.steepness,
                rise_usec: rise,
            })
        }

        pub(super) fn rise(samples_us: &[f64], config: &InferenceConfig) -> Option<f64> {
            let bin = config.pdf_bin_us.max(1e-3);
            let quantised: Vec<f64> = samples_us
                .iter()
                .map(|&x| quantize_us(x.max(bin / 2.0), bin))
                .collect();
            let support = Ecdf::new(quantised)?.points();
            let mut knots: Vec<(f64, f64)> = Vec::with_capacity(support.len() * 2);
            let mut prev_f = 0.0;
            for &(x, f) in &support {
                let w = bin_width_at(x, bin);
                let ledge = (x - w).max(x / 2.0).log10();
                let xl = x.log10();
                if knots.last().is_none_or(|&(lx, _)| lx < ledge - 1e-12) {
                    knots.push((ledge, prev_f));
                }
                knots.push((xl, f));
                prev_f = f;
            }
            if knots.len() < 2 {
                return Some(support[0].0.max(0.0));
            }
            let slopes = match config.interpolation {
                InterpolationKind::Pchip => scan(&Pchip::new(knots.clone()).ok()?, &knots),
                InterpolationKind::Spline => scan(&CubicSpline::new(knots.clone()).ok()?, &knots),
            };
            let max_slope = slopes
                .iter()
                .map(|&(_, s)| s)
                .fold(f64::NEG_INFINITY, f64::max);
            let rise_log = slopes
                .iter()
                .find(|&&(_, s)| s >= max_slope * 0.4)
                .map_or(knots[0].0, |&(x, _)| x);
            Some(10f64.powf(rise_log))
        }

        fn scan(interp: &dyn tt_stats::Interpolant, knots: &[(f64, f64)]) -> Vec<(f64, f64)> {
            knots
                .windows(2)
                .map(|w| {
                    let mut best = (w[0].0, f64::NEG_INFINITY);
                    for j in 0..=5 {
                        let t = j as f64 / 5.0;
                        let x = w[0].0 + (w[1].0 - w[0].0) * t;
                        let d = interp.derivative(x);
                        if d > best.1 {
                            best = (x, d);
                        }
                    }
                    best
                })
                .collect()
        }
    }

    /// Every `pdf_bin_us` setting the bit-identity guard runs (1e-6 is
    /// clamped to 1e-3), with both interpolants; `min_group_samples = 1`
    /// so that small and single-sample groups are compared too.
    fn identity_configs() -> Vec<InferenceConfig> {
        let mut configs = Vec::new();
        for pdf_bin_us in [1.0, 0.25, 3.0, 1e-6] {
            for interpolation in [InterpolationKind::Pchip, InterpolationKind::Spline] {
                configs.push(InferenceConfig {
                    min_group_samples: 1,
                    pdf_bin_us,
                    interpolation,
                    ..InferenceConfig::default()
                });
            }
        }
        configs
    }

    /// `GroupAnalysis` with its f64 fields as bits.
    fn analysis_bits(
        a: Option<GroupAnalysis>,
    ) -> Option<(u32, OpType, Sequentiality, usize, u64, u64)> {
        a.map(|a| {
            (
                a.sectors,
                a.op,
                a.seq,
                a.samples,
                a.steepness.to_bits(),
                a.rise_usec.to_bits(),
            )
        })
    }

    /// The histogram analysis of `samples` equals the reference's, bit
    /// for bit.
    fn assert_analysis_matches(key: GroupKey, samples: &[f64], config: &InferenceConfig) {
        assert_eq!(
            analysis_bits(analyse_samples(key, samples.iter().copied(), config)),
            analysis_bits(reference::analyse(key, samples, config)),
            "{key:?}, {} samples, {config:?}",
            samples.len()
        );
    }

    /// The histogram rise of `samples` — the pooled fallback's estimator —
    /// equals the reference's, bit for bit.
    fn assert_rise_matches(samples: &[f64], config: &InferenceConfig) {
        let mut hist = GapHistogram::new(grid_bin(config));
        hist.add(samples.iter().copied());
        assert_eq!(
            steepest_rise(&hist.bins(), config).map(f64::to_bits),
            reference::rise(samples, config).map(f64::to_bits),
            "rise of {} samples, {config:?}",
            samples.len()
        );
    }

    /// Every group of the catalog traces at 300, 3k and 20k requests, and
    /// each op's pooled rise, match the pre-histogram path bit for bit.
    #[test]
    fn histogram_inference_matches_reference_on_catalog_groups() {
        let configs = identity_configs();
        for entry in tt_workloads::catalog::all() {
            for requests in [300, 3_000, 20_000] {
                let session =
                    tt_workloads::generate_session(entry.name, &entry.profile, requests, 7);
                let trace = session
                    .materialize(&mut tt_device::presets::enterprise_hdd_2007(), false)
                    .trace;
                let grouped = GroupedTrace::build(&trace);
                for config in &configs {
                    for (key, group) in grouped.iter() {
                        assert_analysis_matches(*key, &group.inter_arrivals_usec(), config);
                    }
                    for op in [OpType::Read, OpType::Write] {
                        let pooled: Vec<f64> = grouped
                            .iter()
                            .filter(|(k, _)| k.op == op)
                            .flat_map(|(_, g)| g.inter_arrivals_usec())
                            .collect();
                        assert_rise_matches(&pooled, config);
                    }
                }
            }
        }
    }

    /// Samples on the grid's edges: 0, below `bin/2`, `10·bin` and its
    /// neighbours (the linear/log boundary), log-bin edges
    /// `10·bin·1.05^k` ± 1–2 ulps, `u64::MAX` ns — mixed, and each alone
    /// as a single-valued group.
    #[test]
    fn histogram_inference_matches_reference_on_grid_edges() {
        let key = GroupKey {
            seq: Sequentiality::Sequential,
            op: OpType::Read,
            sectors: 8,
        };
        for config in identity_configs() {
            let bin = grid_bin(&config);
            let threshold = bin * 10.0;
            let mut edges = vec![
                0.0,
                bin / 4.0,
                (bin / 2.0).next_down(),
                bin / 2.0,
                bin,
                threshold.next_down(),
                threshold,
                threshold.next_up(),
                threshold * 1.05f64.sqrt(),
                threshold * 1.05,
                SimDuration::from_nanos(u64::MAX).as_usecs_f64(),
            ];
            for k in 1..120 {
                let edge = threshold * LOG_BIN_RATIO.powi(k);
                let below = edge.next_down();
                let above = edge.next_up();
                edges.extend([below.next_down(), below, edge, above, above.next_up()]);
            }
            // Uneven multiplicities so that probabilities differ per value.
            let mixed: Vec<f64> = edges
                .iter()
                .enumerate()
                .flat_map(|(i, &x)| std::iter::repeat_n(x, 1 + i % 4))
                .collect();
            let mut cases: Vec<Vec<f64>> = vec![mixed.clone(), mixed[..40].to_vec()];
            cases.extend(edges.iter().flat_map(|&x| [vec![x], vec![x; 25]]));
            cases.extend(edges.windows(2).map(<[f64]>::to_vec));
            for samples in &cases {
                assert_analysis_matches(key, samples, &config);
                assert_rise_matches(samples, &config);
            }
        }
    }

    /// The within-group grid scans (`interval_slopes` and the CdfDiff
    /// derivative scan) must be bit-identical across worker counts,
    /// *including* grids big enough to actually fan out — the trace-level
    /// property test only exercises small groups. One test, not two:
    /// `tt_par::set_threads` is process-global and the harness runs tests
    /// concurrently, so splitting these would let one test's worker count
    /// clobber the other's "sequential" baseline.
    #[test]
    fn parallel_grid_scans_are_bit_identical() {
        // interval_slopes: well past GRID_PAR_MIN_CHUNK intervals, with
        // monotone but uneven rises so maxima differ per interval.
        let knots: Vec<(f64, f64)> = (0..(GRID_PAR_MIN_CHUNK * 4 + 57))
            .map(|i| {
                let x = i as f64;
                (x, x + ((i % 13) as f64) / 13.0)
            })
            .collect();
        let interp = Pchip::new(knots.clone()).unwrap();

        // CdfDiff: a grid_samples scan larger than the parallel threshold.
        let trace = ground_truth_trace(600);
        let cfg = InferenceConfig {
            delta_estimator: DeltaEstimator::CdfDiff,
            grid_samples: GRID_PAR_MIN_CHUNK * 3,
            ..InferenceConfig::default()
        };

        tt_par::set_threads(1);
        let slopes_seq = interval_slopes(&interp, &knots);
        let infer_seq = infer(&trace, &cfg);
        tt_par::set_threads(7);
        let slopes_par = interval_slopes(&interp, &knots);
        let infer_par = infer(&trace, &cfg);
        tt_par::set_threads(0);

        assert_eq!(slopes_seq.len(), knots.len() - 1);
        for (a, b) in slopes_seq.iter().zip(&slopes_par) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(infer_seq, infer_par);
        assert_eq!(
            infer_seq.estimate.beta_ns_per_sector.to_bits(),
            infer_par.estimate.beta_ns_per_sector.to_bits()
        );
    }
}
