//! Calibration scratch binary: checks whether the synthetic archive
//! produces the paper's qualitative orderings (ED < Lorentzian < NCC_c <
//! MSM/TWE) before the full experiment suite is run. Not part of the
//! reproduction index; used during development and kept as a sanity tool.

use tsdist_bench::{summarize, ExperimentConfig};
use tsdist_core::elastic::{Dtw, Msm, Twe};
use tsdist_core::lockstep::{CityBlock, Euclidean, Lorentzian};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::sliding::CrossCorrelation;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("calibrate");
    let measures: Vec<(&str, Box<dyn Distance>)> = vec![
        ("ED", Box::new(Euclidean)),
        ("Manhattan", Box::new(CityBlock)),
        ("Lorentzian", Box::new(Lorentzian)),
        ("NCC_c", Box::new(CrossCorrelation::sbd())),
        ("DTW-10", Box::new(Dtw::with_window_pct(10.0))),
        ("DTW-100", Box::new(Dtw::unconstrained())),
        ("MSM(0.5)", Box::new(Msm::new(0.5))),
        ("TWE", Box::new(Twe::new(1.0, 1e-4))),
    ];
    let columns = measures
        .iter()
        .map(|(name, m)| {
            let cells = runner.distance_column(&archive, name, m.as_ref(), Normalization::ZScore);
            (name.to_string(), cells)
        })
        .collect();
    let study = summarize(&archive, columns);

    println!("{:<12} {:>8}  per-archetype means", "measure", "avg");
    let arche_names = [
        "shape",
        "shift",
        "warp",
        "heavytail",
        "ampscale",
        "trend",
        "mixed",
    ];
    for (name, accs) in study.columns() {
        let avg: f64 = accs.iter().sum::<f64>() / accs.len() as f64;
        print!("{name:<12} {avg:>8.4}  ");
        for (ai, an) in arche_names.iter().enumerate() {
            // Archive index `i` holds archetype `i % 7`.
            let vals: Vec<f64> = study
                .surviving_datasets
                .iter()
                .zip(&accs)
                .filter(|(&i, _)| i % 7 == ai)
                .map(|(_, &v)| v)
                .collect();
            if !vals.is_empty() {
                let m = vals.iter().sum::<f64>() / vals.len() as f64;
                print!("{an}={m:.3} ");
            }
        }
        println!();
    }
    print!("{}", study.fault_note());
}
