//! Sample summaries: medians, quantile estimates and the tail
//! percentile rule.

use std::f64::consts::PI;

/// Median of `samples` (mean of the middle two for an even count); `NaN`
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The Harrell–Davis estimate of quantile `q` (0 < q < 1) of `samples`:
/// the mean of all order statistics weighted by a Beta((n+1)q,
/// (n+1)(1−q)) distribution, instead of the one or two order statistics
/// the sample quantile uses. On a VM whose speed wanders, a run's few
/// dozen timings then give a p50 that moves about as little from run to
/// run as their mean, while a single slow sample still barely counts.
/// `NaN` when empty.
pub fn hd_quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let mut below = 0.0;
    let mut sum = 0.0;
    let mut weights = 0.0;
    for (i, x) in s.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n);
        sum += (upto - below) * x;
        weights += upto - below;
        below = upto;
    }
    sum / weights
}

/// [`hd_quantile`] at the median.
pub fn p50(samples: &[f64]) -> f64 {
    hd_quantile(samples, 0.5)
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularised incomplete beta function I_x(a, b).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of I_x(a, b), by the modified Lentz method.
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// The mean of the slowest tenth (rounded up) of the per-column medians
/// ([`p50`]) of `rows`. With one row per sweep pass and one column per catalog
/// workload, that is the slowest workloads' typical evaluation time.
/// Each workload's median is taken over passes, so a burst of host
/// contention in a few passes does not move it the way it moves a
/// percentile of the pooled samples; and the mean over several
/// workloads moves less with the seed than the single slowest one.
pub fn slowest_tenth(rows: &[Vec<f64>]) -> f64 {
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut medians: Vec<f64> = (0..width)
        .map(|i| {
            p50(&rows
                .iter()
                .filter_map(|r| r.get(i).copied())
                .collect::<Vec<_>>())
        })
        .collect();
    medians.sort_by(|a, b| b.total_cmp(a));
    let slow = &medians[..width.div_ceil(10)];
    slow.iter().sum::<f64>() / slow.len() as f64
}

/// Percentiles the tail rule may choose from, highest last. It stops at
/// p90: a serve run takes about a thousand samples, so p99 would qualify
/// on some runs and not on others, and the switch to the higher
/// percentile would read as a regression.
pub const LADDER: [f64; 2] = [50.0, 90.0];

/// A tail latency: the percentile reported, its value, and the sample
/// count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    /// `false` when even the median has fewer than ten samples beyond it;
    /// the median is reported then.
    pub qualified: bool,
}

/// Nearest-rank position (1-based) of percentile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`LADDER`] that has at least ten samples
/// beyond it (by nearest rank), with its [`hd_quantile`] estimate.
pub fn tail(samples: &[f64]) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: f64::NAN,
            samples: 0,
            qualified: false,
        };
    }
    let chosen = LADDER
        .iter()
        .rev()
        .find(|&&q| n - rank(q, n) >= 10)
        .copied();
    let q = chosen.unwrap_or(50.0);
    Tail {
        percentile: q,
        value: hd_quantile(&s, q / 100.0),
        samples: n,
        qualified: chosen.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        for x in [0.05, 0.3, 0.5, 0.77, 0.99] {
            assert!(close(inc_beta(1.0, 1.0, x), x, 1e-12), "x={x}");
            assert!(close(inc_beta(3.0, 1.0, x), x.powi(3), 1e-12), "x={x}");
            let cubic = 3.0 * x * x - 2.0 * x.powi(3);
            assert!(close(inc_beta(2.0, 2.0, x), cubic, 1e-12), "x={x}");
        }
        // Symmetric and large, as for a median of a thousand samples.
        assert!(close(inc_beta(500.5, 500.5, 0.5), 0.5, 1e-9));
        assert!(close(ln_gamma(5.0), 24f64.ln(), 1e-12));
        assert!(close(ln_gamma(0.5), PI.sqrt().ln(), 1e-12));
    }

    #[test]
    fn harrell_davis_estimates_quantiles() {
        assert!(close(p50(&[3.0, 1.0, 2.0]), 2.0, 1e-12));
        assert!(close(p50(&[4.0, 1.0, 2.0, 3.0]), 2.5, 1e-12));
        assert_eq!(p50(&[7.0]), 7.0);
        assert!(close(p50(&[5.0; 10]), 5.0, 1e-12));
        assert!(p50(&[]).is_nan());
        // Symmetric data: the median itself.
        assert!(close(p50(&ramp(101)), 51.0, 1e-9));
        // On 1, 2, …, n the weights centre on q·n + ½.
        assert!(close(hd_quantile(&ramp(1000), 0.9), 900.5, 1e-6));
        // One wild sample among twenty barely moves the estimate.
        let mut wild = ramp(20);
        wild[0] = 1000.0;
        assert!(close(p50(&wild), p50(&ramp(20)), 1e-3));
    }

    #[test]
    fn slowest_tenth_averages_the_slowest_column_medians() {
        // Nine passes over three workloads; one contended pass is slow
        // everywhere and does not lift the medians.
        let mut rows: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![1.0 + i as f64 * 0.01, 11.0 - i as f64 * 0.01, 6.0])
            .collect();
        rows[4] = vec![2.0, 30.0, 60.0];
        assert!(close(slowest_tenth(&rows), 11.0, 0.05));
        // Twelve workloads: the slowest two medians, 12 and 11.
        let row: Vec<f64> = (1..=12).map(f64::from).collect();
        assert!(close(slowest_tenth(&[row.clone(), row]), 11.5, 1e-12));
        assert!(slowest_tenth(&[]).is_nan());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 sits at rank 90 with exactly 10 beyond it.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.qualified), (90.0, true));
        assert!(close(t.value, 90.5, 1e-6));
        // One fewer leaves p90 with 9 beyond: fall to the median.
        let t = tail(&ramp(99));
        assert_eq!(t.percentile, 50.0);
        assert!(close(t.value, 50.0, 1e-9));
        // The ladder's top rung holds however many samples there are.
        assert_eq!(tail(&ramp(5000)).percentile, 90.0);
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.qualified), (50.0, true));
        assert!(close(t.value, 10.5, 1e-9));
        // Below 20 samples not even the median qualifies.
        let t = tail(&ramp(18));
        assert_eq!((t.percentile, t.qualified, t.samples), (50.0, false, 18));
        assert_eq!(t.value, p50(&ramp(18)));
        // Every chosen percentile really has >= 10 samples beyond it,
        // and the next rung up never does.
        for n in 20..1200 {
            let t = tail(&ramp(n));
            assert!(n - rank(t.percentile, n) >= 10, "n={n}");
            if let Some(&up) = LADDER.iter().find(|&&q| q > t.percentile) {
                assert!(n - rank(up, n) < 10, "n={n}");
            }
        }
    }
}
