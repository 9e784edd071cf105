//! Table 5 + Figures 5/6: elastic measures against NCC_c, under both the
//! supervised (LOOCCV grid tuning, Table 4) and unsupervised (the paper's
//! fixed parameters) settings; the same per-dataset accuracies feed the
//! critical-difference rankings of Figures 5 (supervised) and 6
//! (unsupervised). All series are z-normalized, as in Section 7.
//!
//! Cells run under the fault-tolerant runner: a panicking or timed-out
//! (measure, dataset) cell is excluded (and reported) instead of aborting
//! the whole table, and `--journal` makes an interrupted run resumable.

use tsdist_bench::{column, render_ranking, summarize, ExperimentConfig};
use tsdist_core::normalization::Normalization;
use tsdist_core::registry::{elastic_families, elastic_unsupervised};
use tsdist_core::sliding::CrossCorrelation;
use tsdist_eval::{compare_to_baseline, evaluate_distance_supervised, render_table};

const BASELINE: &str = "NCC_c";

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("table5");
    let norm = Normalization::ZScore;

    let mut columns = Vec::new();
    let mut sup_names = Vec::new();
    let mut unsup_names = Vec::new();
    columns.push((
        BASELINE.to_string(),
        runner.distance_column(&archive, BASELINE, &CrossCorrelation::sbd(), norm),
    ));
    // Supervised setting: LOOCCV tuning over the Table 4 grids.
    for family in elastic_families() {
        let label = format!("{} [LOOCCV]", family.family);
        let cells = runner.column(&archive, &label, |ds, flag| {
            Ok(evaluate_distance_supervised(&family.grid, ds, norm, flag)?.0)
        });
        columns.push((label.clone(), cells));
        sup_names.push(label);
    }
    // Unsupervised setting: the paper's fixed parameters.
    for (name, measure) in elastic_unsupervised() {
        let cells = runner.distance_column(&archive, &name, measure.as_ref(), norm);
        columns.push((name.clone(), cells));
        unsup_names.push(name);
    }

    let study = summarize(&archive, columns);
    let columns = study.columns();
    let note = study.fault_note();
    let baseline = column(&columns, BASELINE)
        .expect("the NCC_c baseline completed no cell; cannot rank the table")
        .to_vec();
    let mut rows: Vec<_> = columns
        .iter()
        .filter(|(name, _)| name != BASELINE)
        .map(|(name, accs)| compare_to_baseline(name.clone(), accs, &baseline))
        .collect();
    rows.sort_by(|a, b| b.average_accuracy.total_cmp(&a.average_accuracy));
    let mut table = render_table(
        "Table 5: elastic measures vs NCC_c (supervised and unsupervised)",
        &rows,
        "NCC_c (baseline)",
        &baseline,
    );
    table.push_str(&note);
    cfg.save("table5.txt", &table);

    // Figures 5 and 6: the same accuracies, ranked with Friedman+Nemenyi.
    for (fname, title, group) in [
        (
            "figure5.txt",
            "Figure 5: elastic + sliding ranking (supervised tuning)",
            &sup_names,
        ),
        (
            "figure6.txt",
            "Figure 6: elastic + sliding ranking (unsupervised parameters)",
            &unsup_names,
        ),
    ] {
        let mut cols: Vec<(String, Vec<f64>)> = group
            .iter()
            .filter_map(|name| column(&columns, name).map(|a| (name.clone(), a.to_vec())))
            .collect();
        cols.push((BASELINE.into(), baseline.clone()));
        cfg.save(fname, &render_ranking(title, &cols, &note));
    }
}
