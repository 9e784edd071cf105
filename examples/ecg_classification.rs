//! ECG-style classification with supervised parameter tuning.
//!
//! Heartbeat-like data exhibits local time warping (beats stretch and
//! compress), the regime where elastic measures earn their O(m^2) cost.
//! This example classifies warp-archetype datasets with five measures,
//! tuning DTW's window and MSM's cost on the training split exactly as
//! the paper does (LOOCCV over the Table 4 grids).
//!
//! ```sh
//! cargo run --release --example ecg_classification
//! ```

use tsdist::data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist::eval::evaluate_distance_supervised;
use tsdist::measures::elastic;
use tsdist::measures::lockstep::Euclidean;
use tsdist::measures::params;
use tsdist::measures::sliding::CrossCorrelation;
use tsdist::prelude::*;

/// Unsupervised 1-NN accuracy through the consolidated request builder.
fn accuracy(d: &dyn Distance, ds: &Dataset) -> f64 {
    Eval::new(d)
        .on(ds)
        .normalized(Normalization::ZScore)
        .run()
        .expect("evaluation")
        .accuracy
        .expect("dataset mode reports accuracy")
}

/// Test accuracy, train LOOCV accuracy and winning index of a grid tuned
/// on the training split.
fn tuned(grid: &[Box<dyn Distance>], ds: &Dataset) -> (f64, f64, usize) {
    let (evaluation, best) =
        evaluate_distance_supervised(grid, ds, Normalization::ZScore, &CancelFlag::new())
            .expect("supervised evaluation");
    let train = evaluation.train_accuracy.expect("tuned cells report LOOCV");
    (evaluation.accuracy, train, best)
}

fn main() {
    // Two warp-archetype datasets stand in for ECG recordings (archetype
    // cycle: index 2 and 9 are "warp").
    let cfg = ArchiveConfig::quick(1, 7);
    let datasets = [generate_dataset(&cfg, 2), generate_dataset(&cfg, 9)];

    for ds in &datasets {
        println!(
            "dataset {} — {} classes, {} train / {} test, length {}",
            ds.name,
            ds.n_classes(),
            ds.n_train(),
            ds.n_test(),
            ds.series_len()
        );

        // Parameter-free baselines.
        let ed = accuracy(&Euclidean, ds);
        let sbd = accuracy(&CrossCorrelation::sbd(), ds);
        println!("  ED                      accuracy = {ed:.4}");
        println!("  NCC_c (SBD)             accuracy = {sbd:.4}");

        // DTW with its Sakoe–Chiba window tuned on the training split.
        let dtw_grid: Vec<Box<dyn Distance>> = params::DTW_WINDOWS
            .iter()
            .map(|&w| Box::new(elastic::Dtw::with_window_pct(w)) as Box<dyn Distance>)
            .collect();
        let (test, train, best) = tuned(&dtw_grid, ds);
        println!(
            "  DTW (tuned δ={:<4})      accuracy = {test:.4}  (train LOOCV {train:.4})",
            params::DTW_WINDOWS[best],
        );

        // MSM with its cost tuned the same way.
        let msm_grid: Vec<Box<dyn Distance>> = params::MSM_COSTS
            .iter()
            .map(|&c| Box::new(elastic::Msm::new(c)) as Box<dyn Distance>)
            .collect();
        let (test, train, best) = tuned(&msm_grid, ds);
        println!(
            "  MSM (tuned c={:<5})     accuracy = {test:.4}  (train LOOCV {train:.4})",
            params::MSM_COSTS[best],
        );

        // TWE with the paper's unsupervised pick — no tuning needed.
        let twe = accuracy(
            &elastic::Twe::new(
                params::unsupervised::TWE_LAMBDA,
                params::unsupervised::TWE_NU,
            ),
            ds,
        );
        println!("  TWE (λ=1, ν=1e-4)       accuracy = {twe:.4}\n");
    }

    println!("On warp-distorted data the elastic measures (DTW/MSM/TWE)");
    println!("should sit at or above the sliding and lock-step baselines —");
    println!("the effect behind the paper's M3/M4 analysis.");
}
