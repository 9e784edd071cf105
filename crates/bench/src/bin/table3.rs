//! Table 3: sliding (cross-correlation) measures × normalization methods
//! against the best lock-step measure (Lorentzian). As in the paper, only
//! combinations with average accuracy above the Lorentzian baseline are
//! listed; the full grid is saved as CSV.

use tsdist_bench::{column, summarize, ExperimentConfig};
use tsdist_core::lockstep::Lorentzian;
use tsdist_core::normalization::Normalization;
use tsdist_core::registry::sliding_measures;
use tsdist_eval::{compare_to_baseline, render_table};

const BASELINE: &str = "Lorentzian [UnitLength]";

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("table3");

    // The paper's Table 3 baseline: Lorentzian under UnitLength (its
    // z-score twin — identical accuracies, as the paper notes).
    let mut specs = vec![("Lorentzian".to_string(), Normalization::UnitLength)];
    let mut columns = vec![(
        BASELINE.to_string(),
        runner.distance_column(&archive, BASELINE, &Lorentzian, Normalization::UnitLength),
    )];
    for measure in sliding_measures() {
        for norm in Normalization::ALL {
            let label = format!("{} [{}]", measure.name(), norm.name());
            let cells = runner.distance_column(&archive, &label, measure.as_ref(), norm);
            columns.push((label, cells));
            specs.push((measure.name(), norm));
        }
    }

    let study = summarize(&archive, columns);
    let columns = study.columns();
    let baseline = column(&columns, BASELINE)
        .expect("the Lorentzian baseline completed no cell; cannot rank the table")
        .to_vec();
    let base_avg: f64 = baseline.iter().sum::<f64>() / baseline.len() as f64;
    let mut rows = Vec::new();
    let mut csv = String::from("measure,normalization,avg_accuracy\n");
    for (&e, (label, accs)) in study.surviving_entrants.iter().zip(&columns).skip(1) {
        let (measure, norm) = &specs[e];
        let avg: f64 = accs.iter().sum::<f64>() / accs.len() as f64;
        csv.push_str(&format!("{measure},{},{avg:.4}\n", norm.name()));
        if avg > base_avg {
            rows.push(compare_to_baseline(label.clone(), accs, &baseline));
        }
    }
    rows.sort_by(|a, b| b.average_accuracy.total_cmp(&a.average_accuracy));
    let mut table = render_table(
        "Table 3: sliding measures vs Lorentzian",
        &rows,
        "Lorentzian [UnitLength] (baseline)",
        &baseline,
    );
    table.push_str(&study.fault_note());
    cfg.save("table3.txt", &table);
    cfg.save("table3_full.csv", &csv);
}
