//! Workspace-level property-based tests on core invariants.

use proptest::prelude::*;
use tsdist::measures::elastic::{dtw_banded_ws, lb_keogh_full, lb_kim, Dtw, Erp, Msm, Twe};
use tsdist::measures::lockstep::{Chebyshev, CityBlock, Euclidean, Lorentzian};
use tsdist::measures::registry::{lockstep_parameter_free, sliding_measures};
use tsdist::measures::{Distance, Normalization};
use tsdist::prelude::Workspace;
use tsdist::stats::{average_ranks, wilcoxon_signed_rank};

fn series_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-50.0f64..50.0, 2..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lock-step measure stays finite on arbitrary data — zeros,
    /// negatives, ties included.
    #[test]
    fn lockstep_measures_are_finite_on_arbitrary_data(
        x in series_strategy(48),
        y in series_strategy(48),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        for m in lockstep_parameter_free() {
            let dxy = m.distance(x, y);
            let dxx = m.distance(x, x);
            prop_assert!(dxy.is_finite(), "{} produced {dxy}", m.name());
            prop_assert!(dxx.is_finite(), "{} self {dxx}", m.name());
        }
    }

    /// Self-minimality (`d(x,x) <= d(x,y)`) on positive, density-like
    /// data — the regime Cha's formulas were designed for. The
    /// similarity-derived measures (InnerProduct, HarmonicMean,
    /// Fidelity, Bhattacharyya) and the asymmetric divergences (KL,
    /// KDivergence) are excluded: they provably lack this property even
    /// on positive data, which is precisely why the paper finds them
    /// uncompetitive without the right normalization.
    #[test]
    fn distance_like_lockstep_measures_are_self_minimal_on_positive_data(
        x in proptest::collection::vec(0.01f64..50.0, 2..48),
        y in proptest::collection::vec(0.01f64..50.0, 2..48),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        const EXCLUDED: [&str; 6] = [
            "InnerProduct",
            "HarmonicMean",
            "Fidelity",
            "Bhattacharyya",
            "KullbackLeibler",
            "KDivergence",
        ];
        for m in lockstep_parameter_free() {
            if EXCLUDED.contains(&m.name().as_str()) {
                continue;
            }
            let dxy = m.distance(x, y);
            let dxx = m.distance(x, x);
            prop_assert!(
                dxx <= dxy + 1e-9,
                "{}: d(x,x)={dxx} > d(x,y)={dxy}",
                m.name()
            );
        }
    }

    /// Sliding measures are finite everywhere; under z-normalization
    /// (which the unnormalized NCC variants assume — Eq. 11 is "the
    /// normalized cross-correlation" for a reason) they are also
    /// self-minimal. NCC_c carries its own normalization and is
    /// self-minimal on arbitrary data.
    #[test]
    fn sliding_measures_are_finite_and_self_minimal_when_normalized(
        x in series_strategy(48),
        y in series_strategy(48),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        for m in sliding_measures() {
            prop_assert!(m.distance(x, y).is_finite(), "{}", m.name());
        }
        // Non-constant series survive z-normalization meaningfully.
        prop_assume!(x.iter().any(|v| (v - x[0]).abs() > 1e-6));
        prop_assume!(y.iter().any(|v| (v - y[0]).abs() > 1e-6));
        let zx = Normalization::ZScore.apply(x);
        let zy = Normalization::ZScore.apply(y);
        for m in sliding_measures() {
            if m.name() == "NCC_u" {
                // The unbiased estimator can overweight short overlaps;
                // the paper finds it the weakest variant for the same
                // reason.
                continue;
            }
            let dxy = m.distance(&zx, &zy);
            let dxx = m.distance(&zx, &zx);
            prop_assert!(dxx <= dxy + 1e-9, "{}: self not minimal", m.name());
        }
        use tsdist::measures::sliding::CrossCorrelation;
        let sbd = CrossCorrelation::sbd();
        prop_assert!(sbd.distance(x, x) <= sbd.distance(x, y) + 1e-9);
    }

    /// DTW distance never increases when the band widens.
    #[test]
    fn dtw_band_monotonicity(
        x in series_strategy(32),
        y in series_strategy(32),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let mut last = f64::INFINITY;
        let mut ws = Workspace::new();
        for band in [0usize, 1, 2, 4, 8, n] {
            let d = dtw_banded_ws(x, y, band, &mut ws);
            prop_assert!(d <= last + 1e-9);
            last = d;
        }
    }

    /// Lower bounds never exceed banded DTW.
    #[test]
    fn lower_bounds_hold(
        x in series_strategy(32),
        y in series_strategy(32),
        band in 0usize..16,
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let mut ws = Workspace::new();
        let d = dtw_banded_ws(x, y, band.max(1), &mut ws);
        prop_assert!(lb_kim(x, y) <= dtw_banded_ws(x, y, n, &mut ws) + 1e-9);
        prop_assert!(lb_keogh_full(x, y, band.max(1)) <= d + 1e-9);
    }

    /// Metric elastic measures are symmetric and satisfy the triangle
    /// inequality on random triples.
    #[test]
    fn metric_elastic_measures_satisfy_triangle(
        a in series_strategy(16),
        b in series_strategy(16),
        c in series_strategy(16),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        let metrics: Vec<Box<dyn Distance>> = vec![
            Box::new(Euclidean),
            Box::new(CityBlock),
            Box::new(Chebyshev),
            Box::new(Erp::new()),
            Box::new(Msm::new(0.5)),
            Box::new(Twe::new(0.5, 0.1)),
        ];
        for m in metrics {
            let ab = m.distance(a, b);
            let ba = m.distance(b, a);
            prop_assert!((ab - ba).abs() < 1e-9 * ab.abs().max(1.0), "{} asymmetric", m.name());
            let bc = m.distance(b, c);
            let ac = m.distance(a, c);
            prop_assert!(ac <= ab + bc + 1e-6, "{} violates triangle", m.name());
        }
    }

    /// Normalizations produce finite outputs and z-score is idempotent.
    #[test]
    fn normalizations_are_finite_and_zscore_idempotent(x in series_strategy(64)) {
        for norm in Normalization::ALL {
            let z = norm.apply(&x);
            prop_assert_eq!(z.len(), x.len());
            prop_assert!(z.iter().all(|v| v.is_finite()), "{} not finite", norm.name());
        }
        let z1 = Normalization::ZScore.apply(&x);
        let z2 = Normalization::ZScore.apply(&z1);
        for (a, b) in z1.iter().zip(&z2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Scaling and translating a series never changes its z-scored form
    /// (the paper's motivating invariance from Section 4).
    #[test]
    fn zscore_kills_affine_transforms(
        x in series_strategy(32),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        // Skip constant series (degenerate std).
        prop_assume!(x.iter().any(|v| (v - x[0]).abs() > 1e-6));
        let y: Vec<f64> = x.iter().map(|v| a * v + b).collect();
        let zx = Normalization::ZScore.apply(&x);
        let zy = Normalization::ZScore.apply(&y);
        for (p, q) in zx.iter().zip(&zy) {
            prop_assert!((p - q).abs() < 1e-6);
        }
    }

    /// Lorentzian is always bounded above by Manhattan (ln(1+t) <= t).
    #[test]
    fn lorentzian_bounded_by_manhattan(x in series_strategy(32), y in series_strategy(32)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        prop_assert!(Lorentzian.distance(x, y) <= CityBlock.distance(x, y) + 1e-9);
    }

    /// DTW is bounded above by squared ED (the band-0 path is feasible).
    #[test]
    fn dtw_bounded_by_squared_ed(x in series_strategy(32), y in series_strategy(32)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let ed = Euclidean.distance(x, y);
        let dtw = Dtw::unconstrained().distance(x, y);
        prop_assert!(dtw <= ed * ed + 1e-9);
    }

    /// Wilcoxon p-values are probabilities and the test is symmetric.
    #[test]
    fn wilcoxon_p_is_probability(
        pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..40)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = wilcoxon_signed_rank(&x, &y) {
            prop_assert!((0.0..=1.0).contains(&r.p_value));
            let rev = wilcoxon_signed_rank(&y, &x).expect("symmetric");
            prop_assert!((r.p_value - rev.p_value).abs() < 1e-12);
        }
    }

    /// Ranks are a permutation-invariant midrank assignment summing to
    /// n(n+1)/2.
    #[test]
    fn ranks_sum_invariant(values in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let ranks = average_ranks(&values);
        let n = values.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
        prop_assert!(ranks.iter().all(|&r| (1.0..=n).contains(&r)));
    }
}
