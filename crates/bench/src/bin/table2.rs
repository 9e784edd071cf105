//! Table 2: lock-step measures × normalization methods against the
//! ED (z-score) baseline. As in the paper, only combinations whose
//! average accuracy exceeds the baseline's are reported (the full grid is
//! saved as CSV alongside), with Wilcoxon significance and per-dataset
//! win/tie/loss counts.

use tsdist_bench::{archive_accuracies, ExperimentConfig};
use tsdist_core::lockstep::Euclidean;
use tsdist_core::normalization::Normalization;
use tsdist_core::registry::{lockstep_parameter_free, minkowski_family};
use tsdist_eval::{
    compare_to_baseline, evaluate_distance_supervised, parallel_map, render_table, CancelFlag,
};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();

    let baseline = archive_accuracies(&archive, &Euclidean, Normalization::ZScore);
    let base_avg: f64 = baseline.iter().sum::<f64>() / baseline.len() as f64;

    let mut rows = Vec::new();
    let mut csv = String::from("measure,normalization,avg_accuracy\n");

    // The supervised Minkowski family, tuned per dataset under each norm.
    for norm in Normalization::ALL {
        let fam = minkowski_family();
        let accs: Vec<f64> = parallel_map(archive.len(), |i| {
            evaluate_distance_supervised(&fam.grid, &archive[i], norm, &CancelFlag::new())
                .expect("supervised Minkowski evaluation")
                .0
                .accuracy
        });
        let avg: f64 = accs.iter().sum::<f64>() / accs.len() as f64;
        csv.push_str(&format!("Minkowski,{},{:.4}\n", norm.name(), avg));
        if avg > base_avg {
            rows.push(compare_to_baseline(
                format!("Minkowski [{}]", norm.name()),
                &accs,
                &baseline,
            ));
        }
    }

    // The 51 parameter-free measures under each normalization.
    for measure in lockstep_parameter_free() {
        for norm in Normalization::ALL {
            let accs = archive_accuracies(&archive, measure.as_ref(), norm);
            let avg: f64 = accs.iter().sum::<f64>() / accs.len() as f64;
            csv.push_str(&format!("{},{},{:.4}\n", measure.name(), norm.name(), avg));
            if avg > base_avg {
                rows.push(compare_to_baseline(
                    format!("{} [{}]", measure.name(), norm.name()),
                    &accs,
                    &baseline,
                ));
            }
        }
    }

    rows.sort_by(|a, b| b.average_accuracy.total_cmp(&a.average_accuracy));
    let table = render_table(
        "Table 2: lock-step measures vs ED (z-score)",
        &rows,
        "ED [z-score] (baseline)",
        &baseline,
    );
    cfg.save("table2.txt", &table);
    cfg.save("table2_full.csv", &csv);
}
