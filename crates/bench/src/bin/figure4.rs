//! Figure 4: critical-difference ranking of NCC_c under different
//! normalization methods, with Lorentzian (UnitLength) as the baseline.
//! Tanh is excluded, as in the paper (it trails the baseline on more
//! datasets despite a higher average). Cells run under the fault-tolerant
//! runner, so faulty cells are excluded and reported instead of aborting
//! the figure.

use tsdist_bench::{render_ranking, summarize, ExperimentConfig};
use tsdist_core::lockstep::Lorentzian;
use tsdist_core::normalization::Normalization;
use tsdist_core::sliding::CrossCorrelation;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("figure4");
    let sbd = CrossCorrelation::sbd();

    let norms = [
        Normalization::ZScore,
        Normalization::MeanNorm,
        Normalization::UnitLength,
        Normalization::AdaptiveScaling,
        Normalization::MinMax,
    ];
    let mut columns = Vec::new();
    for norm in norms {
        let label = format!("NCC_c [{}]", norm.name());
        let cells = runner.distance_column(&archive, &label, &sbd, norm);
        columns.push((label, cells));
    }
    let label = "Lorentzian [UnitLength]";
    let cells = runner.distance_column(&archive, label, &Lorentzian, Normalization::UnitLength);
    columns.push((label.to_string(), cells));

    let study = summarize(&archive, columns);
    let figure = render_ranking(
        "Figure 4: NCC_c × normalizations vs Lorentzian",
        &study.columns(),
        &study.fault_note(),
    );
    cfg.save("figure4.txt", &figure);
}
