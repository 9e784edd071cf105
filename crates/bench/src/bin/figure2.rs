//! Figure 2: critical-difference ranking of the lock-step measures that
//! outperform ED under z-score normalization (Friedman + post-hoc
//! Nemenyi, 90% confidence), with ED included as the reference.

use tsdist_bench::{column, render_ranking, summarize, ExperimentConfig};
use tsdist_core::lockstep::Euclidean;
use tsdist_core::normalization::Normalization;
use tsdist_core::registry::{lockstep_parameter_free, minkowski_family};
use tsdist_eval::evaluate_distance_supervised;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("figure2");
    let norm = Normalization::ZScore;

    let mut columns = vec![(
        "ED".to_string(),
        runner.distance_column(&archive, "ED", &Euclidean, norm),
    )];
    for measure in lockstep_parameter_free() {
        let name = measure.name();
        if name != "ED" {
            let cells = runner.distance_column(&archive, &name, measure.as_ref(), norm);
            columns.push((name, cells));
        }
    }
    // Supervised Minkowski, as in the paper's figure.
    let fam = minkowski_family();
    let label = "Minkowski (tuned)";
    let cells = runner.column(&archive, label, |ds, flag| {
        Ok(evaluate_distance_supervised(&fam.grid, ds, norm, flag)?.0)
    });
    columns.push((label.to_string(), cells));

    // Candidates: z-score combos with average accuracy above ED's, then
    // ED itself.
    let study = summarize(&archive, columns);
    let columns = study.columns();
    let avg = |accs: &[f64]| accs.iter().sum::<f64>() / accs.len() as f64;
    let mut ranked = Vec::new();
    if let Some(ed) = column(&columns, "ED") {
        let base_avg = avg(ed);
        let beats_ed = |(name, accs): &&(String, Vec<f64>)| name != "ED" && avg(accs) > base_avg;
        ranked.extend(columns.iter().filter(beats_ed).cloned());
        ranked.push(("ED".to_string(), ed.to_vec()));
    }
    cfg.save(
        "figure2.txt",
        &render_ranking(
            "Figure 2: lock-step ranking under z-score",
            &ranked,
            &study.fault_note(),
        ),
    );
}
