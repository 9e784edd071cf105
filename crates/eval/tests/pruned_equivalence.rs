//! End-to-end equivalence of the cutoff-threaded 1-NN engine with the
//! full-matrix path at the evaluator layer: for every measure, every
//! normalization mode, and every classifier flavour the pruned engine is
//! an *optimization*, not an approximation — reported accuracies must be
//! byte-identical, which is what lets `--pruned` studies share journals
//! and statistics with exact ones.

use tsdist_core::elastic::{Cid, DerivativeDtw, Dtw, Erp, ItakuraDtw, Msm, Twe, WeightedDtw};
use tsdist_core::lockstep::{Canberra, Chebyshev, CityBlock, Euclidean, Lorentzian, Minkowski};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_eval::{
    distance_matrix, knn_accuracy, loocv_accuracy, prepare, symmetric_distance_matrix, CancelFlag,
    Eval, Rows, Scan,
};

fn measures() -> Vec<(&'static str, Box<dyn Distance>)> {
    vec![
        ("ED", Box::new(Euclidean)),
        ("CityBlock", Box::new(CityBlock)),
        ("Chebyshev", Box::new(Chebyshev)),
        ("Minkowski(3)", Box::new(Minkowski::new(3.0))),
        ("Lorentzian", Box::new(Lorentzian)),
        ("Canberra", Box::new(Canberra)),
        ("DTW(10)", Box::new(Dtw::with_window_pct(10.0))),
        ("DDTW(10)", Box::new(DerivativeDtw::with_window_pct(10.0))),
        ("WDTW", Box::new(WeightedDtw::new(0.05))),
        ("Itakura", Box::new(ItakuraDtw::new(2.0))),
        ("CID(DTW)", Box::new(Cid::new(Dtw::with_window_pct(10.0)))),
        ("ERP", Box::new(Erp::new())),
        ("MSM", Box::new(Msm::new(0.5))),
        ("TWE", Box::new(Twe::new(1.0, 1e-4))),
    ]
}

/// The test-split accuracy of `Eval` (exact or pruned), which prepares
/// the raw dataset itself.
fn accuracy(eval: Eval<'_>) -> f64 {
    eval.run()
        .expect("healthy evaluation")
        .accuracy
        .expect("dataset mode")
}

fn datasets() -> Vec<Dataset> {
    (0..3)
        .map(|i| generate_dataset(&ArchiveConfig::quick(3, 1234), i))
        .collect()
}

#[test]
fn evaluator_accuracies_are_byte_identical_across_the_registry() {
    for ds in &datasets() {
        for norm in [Normalization::ZScore, Normalization::AdaptiveScaling] {
            for (name, d) in measures() {
                let eval = Eval::new(d.as_ref()).on(ds).normalized(norm);
                let exact = accuracy(eval);
                let pruned = accuracy(eval.pruned(true));
                assert_eq!(
                    exact.to_bits(),
                    pruned.to_bits(),
                    "{name} on {} ({norm:?}): exact {exact} vs pruned {pruned}",
                    ds.name
                );
            }
        }
    }
}

#[test]
fn cancellable_cell_cores_agree_for_healthy_measures() {
    let ds = generate_dataset(&ArchiveConfig::quick(1, 77), 0);
    let flag = CancelFlag::new();
    for (name, d) in measures() {
        let eval = Eval::new(d.as_ref()).on(&ds).cancelled_by(&flag);
        let exact = eval
            .run()
            .unwrap_or_else(|e| panic!("{name}: exact path failed: {e}"));
        let pruned = eval
            .pruned(true)
            .run()
            .unwrap_or_else(|e| panic!("{name}: pruned path failed: {e}"));
        assert_eq!(exact, pruned, "{name}: cell cores disagree");
    }
}

#[test]
fn loocv_and_knn_flavours_agree_with_the_matrix_path() {
    let raw = generate_dataset(&ArchiveConfig::quick(1, 555), 0);
    let ds = prepare(&raw, Normalization::ZScore);
    for (name, d) in measures() {
        // LOOCV over the train split: the matrix path mirrors symmetric
        // measures, the pruned path never builds a matrix at all — the
        // accuracies still match bit-for-bit.
        let w = symmetric_distance_matrix(d.as_ref(), &ds.train);
        let exact_loocv = loocv_accuracy(&w, &ds.train_labels).unwrap();
        let nns = Scan::new(d.as_ref(), &ds.train)
            .pruned(true)
            .nearest(Rows::LeaveOneOut)
            .0;
        // LOOCV starts from "no prediction": an all-non-finite row counts
        // as incorrect.
        let correct = nns
            .iter()
            .zip(&ds.train_labels)
            .filter(|(nn, &truth)| nn.index.map(|j| ds.train_labels[j]) == Some(truth))
            .count();
        let pruned_loocv = correct as f64 / ds.train_labels.len() as f64;
        assert_eq!(
            exact_loocv.to_bits(),
            pruned_loocv.to_bits(),
            "{name} LOOCV"
        );

        let e = distance_matrix(d.as_ref(), &ds.test, &ds.train);
        for k in [1usize, 3, 7] {
            let exact_knn = knn_accuracy(&e, &ds.test_labels, &ds.train_labels, k).unwrap();
            let pruned_knn = accuracy(Eval::new(d.as_ref()).on(&raw).k(k).pruned(true));
            assert_eq!(exact_knn.to_bits(), pruned_knn.to_bits(), "{name} {k}-NN");
        }
    }
}

#[test]
fn candidate_order_does_not_leak_into_results() {
    // The engine's internals (cheap first-pass ordering, cutoffs, rows
    // claimed across workers) must be invisible: the pruned scan
    // reproduces the plain 1-NN accuracy exactly.
    let raw = generate_dataset(&ArchiveConfig::quick(1, 31), 0);
    let ds = prepare(&raw, Normalization::ZScore);
    for (name, d) in measures() {
        let e = distance_matrix(d.as_ref(), &ds.test, &ds.train);
        let exact = tsdist_eval::one_nn_accuracy(&e, &ds.test_labels, &ds.train_labels).unwrap();
        let pruned = accuracy(Eval::new(d.as_ref()).on(&raw).pruned(true));
        assert_eq!(exact.to_bits(), pruned.to_bits(), "{name}");
    }
}
