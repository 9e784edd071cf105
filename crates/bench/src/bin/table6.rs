//! Table 6 + Figures 7/8: kernel measures against NCC_c, under both the
//! supervised (LOOCCV over Table 4's γ grids) and unsupervised (fixed γ)
//! settings. The same per-dataset accuracies, together with the
//! competitive elastic measures (MSM, TWE, DTW), feed the
//! critical-difference rankings of Figures 7 (supervised) and 8
//! (unsupervised); weak measures are omitted from the figures, as in the
//! paper.
//!
//! A kernel is scored as the distance [`KernelDistance`]: its grid
//! through the supervised distance evaluator, its fixed γ through the
//! unsupervised distance column.
//!
//! Cells run under the fault-tolerant runner: a panicking or timed-out
//! (measure, dataset) cell is excluded (and reported) instead of aborting
//! the whole table, and `--journal` makes an interrupted run resumable.

use tsdist_bench::{column, render_ranking, summarize, ExperimentConfig};
use tsdist_core::measure::{Distance, KernelDistance};
use tsdist_core::normalization::Normalization;
use tsdist_core::registry::{elastic_families, kernel_families, kernel_unsupervised};
use tsdist_core::sliding::CrossCorrelation;
use tsdist_eval::{compare_to_baseline, evaluate_distance_supervised, render_table};

const BASELINE: &str = "NCC_c";

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("table6");
    let norm = Normalization::ZScore;

    let mut columns = Vec::new();
    let mut sup_names = Vec::new();
    let mut unsup_names = Vec::new();
    let mut table_names = Vec::new();
    columns.push((
        BASELINE.to_string(),
        runner.distance_column(&archive, BASELINE, &CrossCorrelation::sbd(), norm),
    ));
    let fig_kernels = ["KDTW", "GAK", "SINK"];
    for family in kernel_families() {
        let label = format!("{} [LOOCCV]", family.family);
        let grid: Vec<Box<dyn Distance>> = family
            .grid
            .into_iter()
            .map(|k| Box::new(KernelDistance(k)) as _)
            .collect();
        let cells = runner.column(&archive, &label, |ds, flag| {
            Ok(evaluate_distance_supervised(&grid, ds, norm, flag)?.0)
        });
        columns.push((label.clone(), cells));
        table_names.push(label.clone());
        if fig_kernels.contains(&family.family) {
            sup_names.push(label);
        }
    }
    for (name, kernel) in kernel_unsupervised() {
        let measure = KernelDistance(kernel);
        let cells = runner.distance_column(&archive, &name, &measure, norm);
        columns.push((name.clone(), cells));
        table_names.push(name.clone());
        if !name.starts_with("RBF") {
            unsup_names.push(name);
        }
    }

    // Figures 7/8 additionally rank the competitive elastic measures.
    let keep_elastic = ["MSM", "TWE", "DTW"];
    for family in elastic_families() {
        if keep_elastic.contains(&family.family) {
            let label = format!("{} [LOOCCV elastic]", family.family);
            let cells = runner.column(&archive, &label, |ds, flag| {
                Ok(evaluate_distance_supervised(&family.grid, ds, norm, flag)?.0)
            });
            columns.push((label.clone(), cells));
            sup_names.push(label);
        }
    }
    for (name, measure) in tsdist_core::registry::elastic_unsupervised() {
        if name.starts_with("MSM") || name.starts_with("TWE") || name == "DTW(δ=10)" {
            let cells = runner.distance_column(&archive, &name, measure.as_ref(), norm);
            columns.push((name.clone(), cells));
            unsup_names.push(name);
        }
    }

    let study = summarize(&archive, columns);
    let columns = study.columns();
    let note = study.fault_note();
    let baseline = column(&columns, BASELINE)
        .expect("the NCC_c baseline completed no cell; cannot rank the table")
        .to_vec();
    let mut rows: Vec<_> = table_names
        .iter()
        .filter_map(|name| {
            column(&columns, name).map(|accs| compare_to_baseline(name.clone(), accs, &baseline))
        })
        .collect();
    rows.sort_by(|a, b| b.average_accuracy.total_cmp(&a.average_accuracy));
    let mut table = render_table(
        "Table 6: kernel measures vs NCC_c (supervised and unsupervised)",
        &rows,
        "NCC_c (baseline)",
        &baseline,
    );
    table.push_str(&note);
    cfg.save("table6.txt", &table);

    for (fname, title, group) in [
        (
            "figure7.txt",
            "Figure 7: kernels + elastic + sliding (supervised)",
            &sup_names,
        ),
        (
            "figure8.txt",
            "Figure 8: kernels + elastic + sliding (unsupervised)",
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
