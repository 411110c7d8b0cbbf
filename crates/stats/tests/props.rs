//! Property-based tests for the numerics crate.

use proptest::prelude::*;

use tt_stats::{
    examine_steepness, fit_least_squares, mean, variance, CubicSpline, DiscretePdf, Ecdf,
    Interpolant, Pchip, Welford,
};

fn finite_samples(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, len)
}

proptest! {
    /// The parallel merge sort is bit-identical to the stable sequential
    /// sort at any worker count — including equal-comparing values that
    /// differ in bits (`-0.0` vs `0.0`), which only survive in input
    /// order under a *stable* parallel merge.
    #[test]
    fn parallel_sort_bit_identical_at_any_worker_count(
        raw in finite_samples(0..400),
        threads in 1usize..9,
    ) {
        // Fold a slice of the range onto ±0.0 to exercise bitwise-distinct
        // ties that only a *stable* merge keeps in input order.
        let mut samples: Vec<f64> = raw
            .iter()
            .map(|&x| {
                if (-1.0..1.0).contains(&x) {
                    if x < 0.0 { -0.0 } else { 0.0 }
                } else {
                    x
                }
            })
            .collect();
        let mut expect = samples.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        tt_par::set_threads(threads);
        tt_stats::sort::par_merge_sort(&mut samples);
        tt_par::set_threads(0);
        prop_assert_eq!(expect.len(), samples.len());
        for (a, b) in expect.iter().zip(&samples) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// ECDF values stay in [0,1] and are monotone in x.
    #[test]
    fn ecdf_is_a_cdf(samples in finite_samples(1..300), probes in finite_samples(2..20)) {
        let ecdf = Ecdf::new(samples).unwrap();
        let mut sorted_probes = probes;
        sorted_probes.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &x in &sorted_probes {
            let v = ecdf.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert_eq!(ecdf.eval(f64::MAX), 1.0);
    }

    /// Galois connection between quantile and eval:
    /// eval(quantile(p)) >= p for all p.
    #[test]
    fn quantile_inverts_eval(samples in finite_samples(1..200), p in 0.0f64..=1.0) {
        let ecdf = Ecdf::new(samples).unwrap();
        let q = ecdf.quantile(p);
        prop_assert!(ecdf.eval(q) >= p - 1e-12);
    }

    /// ECDF points are strictly increasing in both coordinates and end at 1.
    #[test]
    fn ecdf_points_well_formed(samples in finite_samples(1..200)) {
        let ecdf = Ecdf::new(samples).unwrap();
        let pts = ecdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[1].0 > w[0].0);
            prop_assert!(w[1].1 > w[0].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    /// PDF mass always sums to ~1 under any binning.
    #[test]
    fn pdf_mass_is_one(samples in finite_samples(1..200), bin in 0.1f64..100.0) {
        let exact = DiscretePdf::exact(&samples).unwrap();
        prop_assert!((exact.total_mass() - 1.0).abs() < 1e-9);
        let binned = DiscretePdf::binned(&samples, bin).unwrap();
        prop_assert!((binned.total_mass() - 1.0).abs() < 1e-9);
    }

    /// Pchip through monotone data is monotone; through any data it passes
    /// the knots.
    #[test]
    fn pchip_monotone_and_interpolating(ys in prop::collection::vec(0.0f64..100.0, 2..40)) {
        // Build monotone non-decreasing knots from cumulative sums.
        let mut acc = 0.0;
        let points: Vec<(f64, f64)> = ys
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                acc += y;
                (i as f64, acc)
            })
            .collect();
        let p = Pchip::new(points.clone()).unwrap();
        for &(x, y) in &points {
            prop_assert!((p.value(x) - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
        let (lo, hi) = p.domain();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=200 {
            let x = lo + (hi - lo) * f64::from(i) / 200.0;
            let v = p.value(x);
            prop_assert!(v >= prev - 1e-9, "dip at {x}");
            prev = v;
        }
    }

    /// Natural spline also passes through its knots.
    #[test]
    fn spline_interpolates(ys in prop::collection::vec(-100.0f64..100.0, 2..40)) {
        let points: Vec<(f64, f64)> = ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
        let s = CubicSpline::new(points.clone()).unwrap();
        for &(x, y) in &points {
            prop_assert!((s.value(x) - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    /// Welford streaming matches batch mean/variance.
    #[test]
    fn welford_matches_batch(samples in finite_samples(1..200)) {
        let mut acc = Welford::new();
        for &x in &samples {
            acc.push(x);
        }
        prop_assert!((acc.mean() - mean(&samples)).abs() < 1e-6 * (1.0 + acc.mean().abs()));
        prop_assert!((acc.variance() - variance(&samples)).abs() < 1e-3 * (1.0 + acc.variance()));
    }

    /// OLS residuals at the two means vanish: the fitted line passes
    /// through (mean_x, mean_y).
    #[test]
    fn ols_passes_through_centroid(
        pts in prop::collection::vec((-1000.0f64..1000.0, -1.0f64..1.0), 3..50),
    ) {
        let xs: Vec<f64> = pts.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = pts.iter().map(|&(x, n)| 2.0 * x + n).collect();
        if let Some(fit) = fit_least_squares(&xs, &ys) {
            let mx = mean(&xs);
            let my = mean(&ys);
            prop_assert!((fit.eval(mx) - my).abs() < 1e-6 * (1.0 + my.abs()));
        }
    }

    /// `from_sorted_counts` is `exact` over the expanded multiset, bit for
    /// bit: same support, same probabilities — zero counts and equal
    /// neighbours (`-0.0` next to `0.0` too) included.
    #[test]
    fn pdf_from_sorted_counts_equals_exact(
        raw in prop::collection::vec((-40.0f64..40.0, 0u64..30), 1..60),
    ) {
        // Coarse values so that equal neighbours occur.
        let mut counts: Vec<(f64, u64)> =
            raw.iter().map(|&(v, c)| (v.round() / 4.0, c)).collect();
        counts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expanded: Vec<f64> = counts
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
            .collect();
        let want = DiscretePdf::exact(&expanded);
        let got = DiscretePdf::from_sorted_counts(&counts);
        prop_assert_eq!(want.is_some(), got.is_some());
        if let (Some(want), Some(got)) = (want, got) {
            prop_assert_eq!(want.points().len(), got.points().len());
            for (w, g) in want.points().iter().zip(got.points()) {
                prop_assert_eq!(w.0.to_bits(), g.0.to_bits());
                prop_assert_eq!(w.1.to_bits(), g.1.to_bits());
            }
        }
    }

    /// `derivative_in(i, x)` equals `derivative(x)` bit for bit at the six
    /// scan points `x₀ + (x₁ − x₀)·j/5` of every interval, for both
    /// interpolants — including intervals a few ulps wide, where `t = 1`
    /// can land on either side of the next knot — and whatever index is
    /// passed.
    #[test]
    fn derivative_in_matches_derivative_at_scan_points(
        steps in prop::collection::vec((0u32..4, 0.0f64..1.0), 1..50),
        base in -50.0f64..50.0,
    ) {
        let mut knots = vec![(base, 0.0)];
        let (mut x, mut y) = (base, 0.0);
        for &(kind, r) in &steps {
            x = if kind == 0 {
                (0..1 + (r * 4.0) as usize).fold(x, |x, _| x.next_up())
            } else {
                x + 0.01 + r * f64::from(kind)
            };
            y += r;
            knots.push((x, y));
        }
        let pchip = Pchip::new(knots.clone()).unwrap();
        let spline = CubicSpline::new(knots.clone()).unwrap();
        for f in [&pchip as &dyn Interpolant, &spline] {
            for (i, w) in knots.windows(2).enumerate() {
                for j in 0..=5 {
                    let t = f64::from(j) / 5.0;
                    let x = w[0].0 + (w[1].0 - w[0].0) * t;
                    let want = f.derivative(x).to_bits();
                    prop_assert_eq!(f.derivative_in(i, x).to_bits(), want);
                    prop_assert_eq!(f.derivative_in(i + 1, x).to_bits(), want);
                    prop_assert_eq!(f.derivative_in(0, x).to_bits(), want);
                }
            }
        }
    }

    /// Steepness examination never panics and returns a finite score for
    /// any non-degenerate PDF.
    #[test]
    fn steepness_total(samples in finite_samples(1..300)) {
        let pdf = DiscretePdf::exact(&samples).unwrap();
        let report = examine_steepness(&pdf);
        prop_assert!(report.steepness.is_finite());
        prop_assert!(report.utmost_prob > 0.0);
    }
}
