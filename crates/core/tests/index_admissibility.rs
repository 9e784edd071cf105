//! Property suite pinning the index tier's admissibility contracts:
//! `LB_PAA ≤ LB_Keogh ≤ DTW` for random series, segment counts, and
//! bands (both argument orders), pivot bounds never exceeding the true
//! distance for every declared-metric measure, and vacuous (exact-scan)
//! fallback on NaN/INF series.

use proptest::prelude::*;
use tsdist_core::elastic::{dtw_banded_ws, keogh_envelope, lb_keogh, Dtw};
use tsdist_core::index::{
    envelope_summary, lb_paa, paa_means, segment_bounds, QueryPlan, TrainIndex,
};
use tsdist_core::lockstep as ls;
use tsdist_core::measure::{Distance, MetricRegime};
use tsdist_core::Workspace;

/// The LB_PAA ≤ LB_Keogh leg for one (query, candidate) order.
fn check_paa_chain(query: &[f64], candidate: &[f64], band: usize, segments: usize) {
    let (upper, lower) = keogh_envelope(candidate, band);
    let bounds = segment_bounds(candidate.len(), segments);
    let (umax, lmin) = envelope_summary(&upper, &lower, &bounds);
    let mut qmeans = Vec::new();
    paa_means(query, &bounds, &mut qmeans);
    let paa = lb_paa(&qmeans, &umax, &lmin, &bounds);
    let keogh = lb_keogh(query, &upper, &lower);
    let dtw = dtw_banded_ws(query, candidate, band, &mut Workspace::new());
    assert!(
        paa <= keogh,
        "LB_PAA {paa} > LB_Keogh {keogh} (band {band}, segments {segments})"
    );
    // LB_Keogh ≤ DTW holds exactly in real arithmetic; the relative slack
    // only covers reassociation between the lane-reduced envelope sum and
    // the sequential DP when the two are mathematically equal.
    assert!(
        keogh <= dtw * (1.0 + 1e-9) + 1e-12,
        "LB_Keogh {keogh} > DTW {dtw} (band {band}, segments {segments})"
    );
}

/// Every measure declaring a [`MetricRegime`], with data for its regime.
fn metric_measures() -> Vec<(Box<dyn Distance>, MetricRegime)> {
    vec![
        (
            Box::new(ls::Euclidean) as Box<dyn Distance>,
            MetricRegime::All,
        ),
        (Box::new(ls::CityBlock), MetricRegime::All),
        (Box::new(ls::Chebyshev), MetricRegime::All),
        (Box::new(ls::Minkowski::new(3.0)), MetricRegime::All),
        (Box::new(ls::Gower), MetricRegime::All),
        (Box::new(ls::Lorentzian), MetricRegime::All),
        (Box::new(ls::Canberra), MetricRegime::Positive),
        (Box::new(ls::Soergel), MetricRegime::Positive),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LB_PAA ≤ LB_Keogh ≤ banded DTW, for random series, segment
    /// counts, bands, and both argument orders.
    #[test]
    fn paa_keogh_dtw_chain_is_admissible(
        v in proptest::collection::vec((-2f64..2.0, -2f64..2.0), 4..48),
        segments in 1usize..16,
        band_pct in 0f64..100.0,
    ) {
        let x: Vec<f64> = v.iter().map(|&(a, _)| a).collect();
        let y: Vec<f64> = v.iter().map(|&(_, b)| b).collect();
        let band = Dtw::with_window_pct(band_pct).band(x.len(), y.len());
        check_paa_chain(&x, &y, band, segments);
        check_paa_chain(&y, &x, band, segments);
    }

    /// Reverse-triangle pivot bounds never exceed the true distance, for
    /// every declared-metric measure on data from its regime — in both
    /// argument orders of the underlying distance evaluations.
    #[test]
    fn pivot_bounds_are_admissible_for_all_declared_metrics(
        v in proptest::collection::vec((0.01f64..2.0, 0.01f64..2.0), 8..24),
        shift in 0usize..5,
    ) {
        let len = v.len();
        // Positive data serves every regime; All-regime measures are
        // additionally exercised on centered data below.
        let train: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                (0..len)
                    .map(|t| v[(t + i * (shift + 1)) % len].0 + 0.001 * i as f64)
                    .collect()
            })
            .collect();
        let query: Vec<f64> = v.iter().map(|&(_, b)| b).collect();
        let centered: Vec<Vec<f64>> = train
            .iter()
            .map(|s| s.iter().map(|v| v - 1.0).collect())
            .collect();
        let query_centered: Vec<f64> = query.iter().map(|v| v - 1.0).collect();

        let mut ws = Workspace::default();
        for (d, regime) in metric_measures() {
            let (train, query) = match regime {
                MetricRegime::Positive => (&train, &query),
                _ => (&centered, &query_centered),
            };
            let mut ix = TrainIndex::build(train);
            ix.prepare_measure(d.as_ref(), train);
            let QueryPlan::Pivots(table) = ix.plan(d.as_ref(), query) else {
                panic!("{} did not plan pivots", d.name());
            };
            let qd: Vec<f64> = table
                .pivots()
                .iter()
                .map(|&p| d.distance_ws(query, &train[p], &mut ws))
                .collect();
            for (j, t) in train.iter().enumerate() {
                let lb = table.lower_bound(&qd, j);
                let fwd = d.distance_ws(query, t, &mut ws);
                let rev = d.distance_ws(t, query, &mut ws);
                prop_assert!(lb <= fwd, "{}: pivot lb {lb} > d(q,t) {fwd}", d.name());
                prop_assert!(lb <= rev, "{}: pivot lb {lb} > d(t,q) {rev}", d.name());
            }
        }
    }

    /// NaN or INF anywhere in a series collapses every bound to the
    /// vacuous `0.0` (PAA) or forces a linear plan (positive-regime
    /// pivots): non-finite inputs always fall back to the exact path.
    #[test]
    fn non_finite_series_fall_back_to_exact(
        v in proptest::collection::vec(-2f64..2.0, 8..24),
        poison_at in 0usize..8,
        poison_kind in 0u8..2,
        segments in 1usize..8,
    ) {
        let poison = if poison_kind == 0 { f64::INFINITY } else { f64::NAN };
        let mut bad = v.clone();
        let at = poison_at % bad.len();
        bad[at] = poison;

        // Poisoned query against a clean envelope.
        let band = 2;
        let (upper, lower) = keogh_envelope(&v, band);
        let bounds = segment_bounds(v.len(), segments);
        let (umax, lmin) = envelope_summary(&upper, &lower, &bounds);
        let mut qmeans = Vec::new();
        paa_means(&bad, &bounds, &mut qmeans);
        prop_assert_eq!(lb_paa(&qmeans, &umax, &lmin, &bounds), 0.0);

        // Clean query against a poisoned candidate, through the index:
        // the candidate is flagged unclean and its bound is vacuous.
        let train = vec![v.clone(), bad.clone()];
        let mut ix = TrainIndex::build(&train);
        let dtw = Dtw::with_window_pct(10.0);
        ix.prepare_measure(&dtw, &train);
        let QueryPlan::Cascade(bix) = ix.plan(&dtw, &v) else {
            panic!("expected a cascade plan");
        };
        prop_assert!(!bix.is_clean(1));
        paa_means(&v, &bounds, &mut qmeans);
        prop_assert_eq!(bix.lb_paa(&qmeans, ix.bounds(), 1), 0.0);

        // Positive-regime pivots refuse a poisoned query outright.
        let pos: Vec<Vec<f64>> = (0..6)
            .map(|i| v.iter().map(|x| x.abs() + 0.1 + 0.01 * i as f64).collect())
            .collect();
        let mut ix = TrainIndex::build(&pos);
        ix.prepare_measure(&ls::Canberra, &pos);
        let mut bad_pos: Vec<f64> = pos[0].clone();
        bad_pos[at] = f64::NAN;
        prop_assert!(matches!(ix.plan(&ls::Canberra, &bad_pos), QueryPlan::Linear));
    }
}

/// The declared-metric roster is explicit and closed: exactly the
/// measures meant to be in the pivot layer are flagged, and the flags
/// survive the sampling conformance check on their declared regime.
#[test]
fn declared_metric_flags_pass_conformance() {
    use tsdist_core::index::find_metric_violation;
    for (d, regime) in metric_measures() {
        assert_eq!(d.metric_regime(), regime, "{}", d.name());
        assert!(d.is_metric(), "{}", d.name());
        assert!(
            find_metric_violation(d.as_ref(), regime, 32, 11, 64).is_none(),
            "{} failed conformance on its declared regime",
            d.name()
        );
    }
    // Known non-metrics stay out.
    assert_eq!(ls::SquaredEuclidean.metric_regime(), MetricRegime::None);
    assert_eq!(ls::Sorensen.metric_regime(), MetricRegime::None);
    assert_eq!(ls::KulczynskiD.metric_regime(), MetricRegime::None);
    assert_eq!(
        ls::Minkowski::new(0.5).metric_regime(),
        MetricRegime::None,
        "fractional Minkowski must not claim the triangle inequality"
    );
    assert_eq!(
        Dtw::with_window_pct(10.0).metric_regime(),
        MetricRegime::None,
        "DTW is famously not a metric"
    );
}
