//! Figure 3: critical-difference ranking of the Lorentzian distance under
//! each normalization method, against ED (z-score). Cells run under the
//! fault-tolerant runner, so a faulty (normalization, dataset) cell is
//! excluded and reported instead of aborting the figure.

use tsdist_bench::{render_ranking, summarize, ExperimentConfig};
use tsdist_core::lockstep::{Euclidean, Lorentzian};
use tsdist_core::normalization::Normalization;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("figure3");

    let mut columns = Vec::new();
    for norm in Normalization::ALL {
        let label = format!("Lorentzian [{}]", norm.name());
        let cells = runner.distance_column(&archive, &label, &Lorentzian, norm);
        columns.push((label, cells));
    }
    let label = "ED [z-score]";
    let cells = runner.distance_column(&archive, label, &Euclidean, Normalization::ZScore);
    columns.push((label.to_string(), cells));

    let study = summarize(&archive, columns);
    let figure = render_ranking(
        "Figure 3: Lorentzian × normalizations vs ED (z-score)",
        &study.columns(),
        &study.fault_note(),
    );
    cfg.save("figure3.txt", &figure);
}
