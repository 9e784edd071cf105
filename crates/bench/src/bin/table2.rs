//! Table 2: lock-step measures × normalization methods against the
//! ED (z-score) baseline. As in the paper, only combinations whose
//! average accuracy exceeds the baseline's are reported (the full grid is
//! saved as CSV alongside), with Wilcoxon significance and per-dataset
//! win/tie/loss counts.

use tsdist_bench::{column, summarize, ExperimentConfig};
use tsdist_core::normalization::Normalization;
use tsdist_core::registry::{lockstep_parameter_free, minkowski_family};
use tsdist_eval::{compare_to_baseline, evaluate_distance_supervised, render_table};

const BASELINE: &str = "ED [z-score]";

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("table2");

    // Each column's (measure, normalization), for the CSV.
    let mut specs = Vec::new();
    let mut columns = Vec::new();
    // The supervised Minkowski family, tuned per dataset under each norm.
    let fam = minkowski_family();
    for norm in Normalization::ALL {
        let label = format!("Minkowski [{}]", norm.name());
        let cells = runner.column(&archive, &label, |ds, flag| {
            Ok(evaluate_distance_supervised(&fam.grid, ds, norm, flag)?.0)
        });
        columns.push((label, cells));
        specs.push(("Minkowski".to_string(), norm));
    }
    // The 51 parameter-free measures under each normalization; ED under
    // z-score is the baseline.
    for measure in lockstep_parameter_free() {
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
        .expect("the ED [z-score] baseline completed no cell; cannot rank the table")
        .to_vec();
    let base_avg: f64 = baseline.iter().sum::<f64>() / baseline.len() as f64;
    let mut rows = Vec::new();
    let mut csv = String::from("measure,normalization,avg_accuracy\n");
    for (&e, (label, accs)) in study.surviving_entrants.iter().zip(&columns) {
        let (measure, norm) = &specs[e];
        let avg: f64 = accs.iter().sum::<f64>() / accs.len() as f64;
        csv.push_str(&format!("{measure},{},{avg:.4}\n", norm.name()));
        if avg > base_avg {
            rows.push(compare_to_baseline(label.clone(), accs, &baseline));
        }
    }

    rows.sort_by(|a, b| b.average_accuracy.total_cmp(&a.average_accuracy));
    let mut table = render_table(
        "Table 2: lock-step measures vs ED (z-score)",
        &rows,
        "ED [z-score] (baseline)",
        &baseline,
    );
    table.push_str(&study.fault_note());
    cfg.save("table2.txt", &table);
    cfg.save("table2_full.csv", &csv);
}
