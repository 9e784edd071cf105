//! Figure 2: critical-difference ranking of the lock-step measures that
//! outperform ED under z-score normalization (Friedman + post-hoc
//! Nemenyi, 90% confidence), with ED included as the reference.

use tsdist_bench::{archive_accuracies, ExperimentConfig};
use tsdist_core::lockstep::Euclidean;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::registry::{lockstep_parameter_free, minkowski_family};
use tsdist_eval::{evaluate_distance_supervised, parallel_map, rank_measures, CancelFlag};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let norm = Normalization::ZScore;

    let baseline = archive_accuracies(&archive, &Euclidean, norm);
    let base_avg: f64 = baseline.iter().sum::<f64>() / baseline.len() as f64;

    // Candidates: z-score combos with average accuracy above ED's.
    let mut names = Vec::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for measure in lockstep_parameter_free() {
        if measure.name() == "ED" {
            continue;
        }
        let accs = archive_accuracies(&archive, measure.as_ref(), norm);
        let avg: f64 = accs.iter().sum::<f64>() / accs.len() as f64;
        if avg > base_avg {
            names.push(measure.name());
            columns.push(accs);
        }
    }
    // Supervised Minkowski, as in the paper's figure.
    let fam = minkowski_family();
    let mink: Vec<f64> = parallel_map(archive.len(), |i| {
        evaluate_distance_supervised(&fam.grid, &archive[i], norm, &CancelFlag::new())
            .expect("supervised Minkowski evaluation")
            .0
            .accuracy
    });
    let mink_avg: f64 = mink.iter().sum::<f64>() / mink.len() as f64;
    if mink_avg > base_avg {
        names.push("Minkowski (tuned)".into());
        columns.push(mink);
    }
    names.push("ED".into());
    columns.push(baseline);

    let table: Vec<Vec<f64>> = (0..archive.len())
        .map(|d| columns.iter().map(|c| c[d]).collect())
        .collect();
    let analysis = rank_measures(&names, &table);
    cfg.save(
        "figure2.txt",
        &analysis.render("Figure 2: lock-step ranking under z-score"),
    );
}
