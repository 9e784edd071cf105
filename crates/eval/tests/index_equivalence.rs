//! The index-vs-scan equivalence suite: every indexed search result —
//! 1-NN rows, k-NN rows, LOOCV rows, and `Eval`-builder accuracies —
//! must be byte-identical to the exact (pruned) scan, across the
//! registry's elastic instances, the declared-metric lock-step measures,
//! pairwise-normalization wrappers, ties, and degenerate datasets.

use tsdist_core::index::TrainIndex;
use tsdist_core::lockstep as ls;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::registry;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_eval::{indexed_nn_search_stats, prepare, pruned_nn_search, Eval, Rows, Scan};

fn dataset(seed: u64) -> Dataset {
    generate_dataset(&ArchiveConfig::quick(1, seed), 0)
}

/// Builds the index over a *prepared* train split and specializes it for
/// one measure, exactly as an indexed caller is contracted to do.
fn index_for(d: &dyn Distance, train: &[Vec<f64>]) -> TrainIndex {
    let mut ix = TrainIndex::build(train);
    ix.prepare_measure(d, train);
    ix
}

/// Every measure the suite sweeps: the registry's fixed-parameter
/// elastic instances plus the declared-metric lock-step measures plus
/// two deliberately non-indexable controls.
fn roster() -> Vec<(String, Box<dyn Distance>)> {
    let mut all = registry::elastic_unsupervised();
    for d in [
        Box::new(ls::Euclidean) as Box<dyn Distance>,
        Box::new(ls::CityBlock),
        Box::new(ls::Chebyshev),
        Box::new(ls::Minkowski::new(3.0)),
        Box::new(ls::Gower),
        Box::new(ls::Lorentzian),
        Box::new(ls::Canberra),
        Box::new(ls::Soergel),
        // Controls: no metric flag, no index profile — every row must
        // fall back to the linear plan and still agree.
        Box::new(ls::SquaredEuclidean),
        Box::new(ls::Sorensen),
    ] {
        all.push((d.name(), d));
    }
    all
}

#[test]
fn registry_rows_match_exact_scan_for_nn_knn_and_loocv() {
    let prepared = prepare(&dataset(42), Normalization::ZScore);
    for (name, d) in roster() {
        let ix = index_for(d.as_ref(), &prepared.train);
        let exact = Scan::new(d.as_ref(), &prepared.train).pruned(true);
        let got = exact.indexed(&ix);
        let (test, loo) = (Rows::Queries(&prepared.test), Rows::LeaveOneOut);
        assert_eq!(got.nearest(test).0, exact.nearest(test).0, "{name} 1-NN");
        assert_eq!(got.top_k(test, 3).0, exact.top_k(test, 3).0, "{name} 3-NN");
        assert_eq!(got.nearest(loo).0, exact.nearest(loo).0, "{name} LOOCV");
    }
}

#[test]
fn eval_builder_indexed_accuracies_are_byte_identical() {
    let ds = dataset(7);
    let norm = Normalization::ZScore;
    let prepared = prepare(&ds, norm);
    for (name, d) in roster() {
        let ix = index_for(d.as_ref(), &prepared.train);
        for k in [1, 3] {
            let exact = Eval::new(d.as_ref())
                .on(&ds)
                .normalized(norm)
                .pruned(true)
                .k(k)
                .run()
                .unwrap();
            let indexed = Eval::new(d.as_ref())
                .on(&ds)
                .normalized(norm)
                .indexed(&ix)
                .k(k)
                .run()
                .unwrap();
            assert_eq!(
                indexed.accuracy.unwrap().to_bits(),
                exact.accuracy.unwrap().to_bits(),
                "{name} k={k}"
            );
        }
    }
}

#[test]
fn indexed_query_answers_match_exact_query_answers() {
    let ds = dataset(11);
    let norm = Normalization::ZScore;
    let prepared = prepare(&ds, norm);
    for (name, d) in [
        registry::elastic_unsupervised().remove(3), // DTW(δ=10)
        ("ED".into(), Box::new(ls::Euclidean) as Box<dyn Distance>),
    ] {
        let ix = index_for(d.as_ref(), &prepared.train);
        let exact = Eval::new(d.as_ref())
            .on(&ds)
            .normalized(norm)
            .queries(&ds.test)
            .pruned(true)
            .run()
            .unwrap();
        let indexed = Eval::new(d.as_ref())
            .on(&ds)
            .normalized(norm)
            .queries(&ds.test)
            .indexed(&ix)
            .run()
            .unwrap();
        assert_eq!(indexed.answers.len(), exact.answers.len(), "{name}");
        for (a, b) in indexed.answers.iter().zip(&exact.answers) {
            assert_eq!(a.index, b.index, "{name}");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{name}");
            assert_eq!(a.label, b.label, "{name}");
        }
    }
}

#[test]
fn logistic_normalization_engages_positive_regime_pivots() {
    // Logistic maps into (0, 1): strictly positive data, so Canberra and
    // Soergel — metric only on the positive orthant — get pivot tables
    // and plans actually engage (no fallback rows).
    let ds = dataset(23);
    let norm = Normalization::Logistic;
    let prepared = prepare(&ds, norm);
    for d in [
        Box::new(ls::Canberra) as Box<dyn Distance>,
        Box::new(ls::Soergel),
    ] {
        let ix = index_for(d.as_ref(), &prepared.train);
        assert_eq!(
            ix.stats().pivot_tables,
            1,
            "{} built no pivot table on logistic data",
            d.name()
        );
        let exact = pruned_nn_search(d.as_ref(), &prepared.test, &prepared.train, true);
        let (got, stats) =
            indexed_nn_search_stats(d.as_ref(), &prepared.test, &prepared.train, &ix, true);
        assert_eq!(got, exact, "{}", d.name());
        assert_eq!(stats.fallback_rows, 0, "{} fell back", d.name());
    }
}

#[test]
fn adaptive_scaled_pairwise_normalization_stays_identical() {
    // AdaptiveScaling wraps the measure per pair, which invalidates every
    // precomputed bound; the indexed run must agree with the pruned one
    // by falling back row-by-row.
    let ds = dataset(31);
    let norm = Normalization::AdaptiveScaling;
    let prepared = prepare(&ds, norm);
    for (name, d) in [
        ("ED".into(), Box::new(ls::Euclidean) as Box<dyn Distance>),
        registry::elastic_unsupervised().remove(3),
    ] {
        let ix = index_for(d.as_ref(), &prepared.train);
        for k in [1, 2] {
            let exact = Eval::new(d.as_ref())
                .on(&ds)
                .normalized(norm)
                .pruned(true)
                .k(k)
                .run()
                .unwrap();
            let indexed = Eval::new(d.as_ref())
                .on(&ds)
                .normalized(norm)
                .indexed(&ix)
                .k(k)
                .run()
                .unwrap();
            assert_eq!(
                indexed.accuracy.unwrap().to_bits(),
                exact.accuracy.unwrap().to_bits(),
                "{name} k={k}"
            );
        }
    }
}

#[test]
fn ties_resolve_to_the_lowest_index_through_every_plan() {
    // Two identical training series: index 0 must win under the cascade,
    // pivot, and linear plans alike — exactly like Algorithm 1's strict
    // `<` scan in natural order.
    let s: Vec<f64> = (0..32).map(|t| (t as f64 * 0.4).sin()).collect();
    let mut train = vec![s.clone(), s.clone()];
    train.extend((0..10).map(|i| {
        (0..32)
            .map(|t| (t as f64 * 0.4).sin() + 1.0 + i as f64 * 0.1)
            .collect::<Vec<f64>>()
    }));
    let test = vec![s.clone()];
    for d in [
        Box::new(tsdist_core::elastic::Dtw::with_window_pct(10.0)) as Box<dyn Distance>,
        Box::new(ls::Euclidean),
        Box::new(ls::SquaredEuclidean),
    ] {
        let ix = index_for(d.as_ref(), &train);
        let (nns, _) = indexed_nn_search_stats(d.as_ref(), &test, &train, &ix, true);
        assert_eq!(nns[0].index, Some(0), "{}", d.name());
        assert_eq!(nns[0].distance, 0.0, "{}", d.name());
        assert_eq!(
            nns,
            pruned_nn_search(d.as_ref(), &test, &train, true),
            "{}",
            d.name()
        );
    }
}

#[test]
fn empty_and_singleton_datasets_behave_like_the_exact_scan() {
    let q: Vec<f64> = (0..16).map(|t| t as f64 * 0.1).collect();
    let d = ls::Euclidean;

    // Empty train: no rows can be answered; both paths agree on the
    // empty/degenerate results.
    let query = Rows::Queries(std::slice::from_ref(&q));
    let empty: Vec<Vec<f64>> = Vec::new();
    let ix = index_for(&d, &empty);
    let indexed = Scan::new(&d, &empty).pruned(true).indexed(&ix);
    assert_eq!(
        indexed.nearest(query).0,
        pruned_nn_search(&d, std::slice::from_ref(&q), &empty, true),
    );
    assert!(indexed.top_k(query, 3).0[0].is_empty());

    // Empty test: nothing to answer.
    let train = vec![q.clone()];
    let ix = index_for(&d, &train);
    let exact = Scan::new(&d, &train).pruned(true);
    let indexed = exact.indexed(&ix);
    assert!(indexed.nearest(Rows::Queries(&[])).0.is_empty());

    // Singleton train: 1-NN finds it, LOOCV excludes it and finds
    // nothing — identical to the pruned scan.
    assert_eq!(indexed.nearest(query).0[0].index, Some(0));
    let loocv = indexed.nearest(Rows::LeaveOneOut).0;
    assert_eq!(loocv, exact.nearest(Rows::LeaveOneOut).0);
    assert_eq!(loocv[0].index, None);
}
