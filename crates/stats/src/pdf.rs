//! Discrete probability density estimates.

use serde::{Deserialize, Serialize};

/// A discrete PDF: `(value, probability)` pairs with probabilities summing
/// to 1.
///
/// Algorithm 1 of the paper estimates `PDF(Ti) = num(Ti) / num(requests)`
/// over the distinct inter-arrival values of a group. Raw nanosecond
/// timestamps rarely repeat, so [`DiscretePdf::binned`] (linear bins) and
/// [`DiscretePdf::log_binned`] (constant bins per decade — matching the
/// log-x CDF plots in the paper) quantise first; [`DiscretePdf::exact`]
/// keeps values as-is.
///
/// # Examples
///
/// ```
/// use tt_stats::DiscretePdf;
///
/// let pdf = DiscretePdf::exact(&[1.0, 1.0, 2.0, 4.0]).unwrap();
/// assert_eq!(pdf.points().len(), 3);
/// assert_eq!(pdf.points()[0], (1.0, 0.5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscretePdf {
    points: Vec<(f64, f64)>,
}

impl DiscretePdf {
    /// Builds a PDF over the exact distinct sample values.
    ///
    /// Returns `None` when `samples` is empty or contains non-finite values.
    #[must_use]
    pub fn exact(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        // All-finite was checked above, so Equal is never substituted.
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len() as f64;
        let mut points: Vec<(f64, f64)> = Vec::new();
        for v in sorted {
            match points.last_mut() {
                Some(last) if last.0 == v => last.1 += 1.0 / n,
                _ => points.push((v, 1.0 / n)),
            }
        }
        Some(DiscretePdf { points })
    }

    /// Builds a PDF from `(value, count)` pairs sorted by value — the
    /// histogram form of [`DiscretePdf::exact`] over the multiset holding
    /// each value `count` times, and bit-identical to it: every sample
    /// adds `1/n` to its value's probability, in the same order `exact`
    /// adds them (`count as f64 / n` would round differently). Adjacent
    /// equal values merge and zero counts contribute nothing, as in
    /// `exact`.
    ///
    /// Returns `None` when the counts sum to zero or a counted value is
    /// not finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_stats::DiscretePdf;
    ///
    /// let pdf = DiscretePdf::from_sorted_counts(&[(1.0, 2), (2.0, 1), (4.0, 1)]).unwrap();
    /// assert_eq!(pdf, DiscretePdf::exact(&[1.0, 1.0, 2.0, 4.0]).unwrap());
    /// ```
    #[must_use]
    pub fn from_sorted_counts(counts: &[(f64, u64)]) -> Option<Self> {
        let counted = || counts.iter().filter(|&&(_, c)| c > 0);
        let total: u64 = counted().map(|&(_, c)| c).sum();
        if total == 0 || counted().any(|&(v, _)| !v.is_finite()) {
            return None;
        }
        let share = 1.0 / total as f64;
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(counts.len());
        for &(v, c) in counted() {
            if points.last().is_none_or(|last| last.0 != v) {
                points.push((v, 0.0));
            }
            if let Some(last) = points.last_mut() {
                for _ in 0..c {
                    last.1 += share;
                }
            }
        }
        Some(DiscretePdf { points })
    }

    /// Builds a PDF over linear bins of width `bin_width`; each bin is
    /// represented by its centre.
    ///
    /// Returns `None` on empty/non-finite input.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive.
    #[must_use]
    pub fn binned(samples: &[f64], bin_width: f64) -> Option<Self> {
        assert!(
            bin_width > 0.0 && bin_width.is_finite(),
            "bin width must be positive and finite"
        );
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let quantised: Vec<f64> = samples
            .iter()
            .map(|&x| ((x / bin_width).floor() + 0.5) * bin_width)
            .collect();
        DiscretePdf::exact(&quantised)
    }

    /// Builds a PDF over logarithmic bins (`bins_per_decade` per factor of
    /// 10), suitable for latency-style data spanning many decades. Values
    /// `<= 0` are clamped into the lowest bin.
    ///
    /// Returns `None` on empty/non-finite input.
    ///
    /// # Panics
    ///
    /// Panics if `bins_per_decade` is zero.
    #[must_use]
    pub fn log_binned(samples: &[f64], bins_per_decade: u32) -> Option<Self> {
        assert!(bins_per_decade > 0, "need at least one bin per decade");
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let step = 1.0 / f64::from(bins_per_decade);
        let floor_log = samples
            .iter()
            .filter(|&&x| x > 0.0)
            .map(|&x| x.log10())
            .fold(f64::INFINITY, f64::min);
        let quantised: Vec<f64> = samples
            .iter()
            .map(|&x| {
                let lg = if x > 0.0 { x.log10() } else { floor_log };
                let bin = (lg / step).floor();
                10f64.powf((bin + 0.5) * step)
            })
            .collect();
        DiscretePdf::exact(&quantised)
    }

    /// The `(value, probability)` pairs, values strictly increasing.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of distinct support values.
    #[must_use]
    pub fn support_len(&self) -> usize {
        self.points.len()
    }

    /// The support value with the highest probability (the distribution
    /// mode). Ties resolve to the smallest value.
    #[must_use]
    pub fn mode(&self) -> f64 {
        self.points
            .iter()
            .fold((f64::NAN, f64::NEG_INFINITY), |acc, &(v, p)| {
                if p > acc.1 {
                    (v, p)
                } else {
                    acc
                }
            })
            .0
    }

    /// Sum of probabilities (≈ 1; exposed for tests and sanity checks).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.points.iter().map(|&(_, p)| p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_duplicates() {
        let pdf = DiscretePdf::exact(&[3.0, 1.0, 3.0, 3.0]).unwrap();
        assert_eq!(pdf.points(), &[(1.0, 0.25), (3.0, 0.75)]);
        assert_eq!(pdf.mode(), 3.0);
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(DiscretePdf::exact(&[]).is_none());
        assert!(DiscretePdf::exact(&[f64::NAN]).is_none());
        assert!(DiscretePdf::binned(&[], 1.0).is_none());
        assert!(DiscretePdf::log_binned(&[], 4).is_none());
    }

    #[test]
    fn mass_sums_to_one() {
        let pdf = DiscretePdf::exact(&[1.0, 2.0, 2.0, 5.0, 9.0]).unwrap();
        assert!((pdf.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binned_groups_neighbours() {
        let pdf = DiscretePdf::binned(&[0.1, 0.2, 0.9, 1.1], 1.0).unwrap();
        // bins [0,1) -> centre 0.5 (3 samples), [1,2) -> centre 1.5 (1).
        assert_eq!(pdf.points(), &[(0.5, 0.75), (1.5, 0.25)]);
    }

    #[test]
    fn log_binned_spans_decades() {
        let samples = [1.0, 2.0, 10.0, 20.0, 100.0, 200.0];
        let pdf = DiscretePdf::log_binned(&samples, 1).unwrap();
        assert_eq!(pdf.support_len(), 3); // one bin per decade
        assert!((pdf.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_binned_handles_zeros() {
        let pdf = DiscretePdf::log_binned(&[0.0, 1.0, 1.5], 2).unwrap();
        assert!((pdf.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn binned_rejects_zero_width() {
        let _ = DiscretePdf::binned(&[1.0], 0.0);
    }

    #[test]
    fn support_is_strictly_increasing() {
        let pdf = DiscretePdf::exact(&[5.0, 3.0, 5.0, 1.0, 3.0]).unwrap();
        for w in pdf.points().windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }
}
