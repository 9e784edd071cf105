//! Table 7: embedding measures against NCC_c. Representations share the
//! same length (the paper fixes 100; scaled to the training-set size for
//! small archives) and are compared with ED under the 1-NN framework.
//! GRAIL/RWS/SIDL tune their γ/ratio with LOOCCV on the embedded training
//! split, following the recommended-values protocol of Section 9.
//!
//! Cells run under the fault-tolerant runner: a panicking or timed-out
//! (family, dataset) cell is excluded (and reported) instead of aborting
//! the whole table, and `--journal` makes an interrupted run resumable.

use tsdist_bench::{column, summarize, ExperimentConfig};
use tsdist_core::normalization::Normalization;
use tsdist_core::params::EMBEDDING_DIMS;
use tsdist_core::registry::embedding_families;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_eval::{
    compare_to_baseline, evaluate_embedding_supervised, render_table, CellError, EvalError,
};

const BASELINE: &str = "NCC_c";

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("table7");

    // Representation length: the paper's 100, capped by the smallest
    // training split (Nystroem cannot produce more dimensions than
    // landmarks).
    let min_train = archive
        .iter()
        .map(|d| d.n_train())
        .min()
        .unwrap_or(EMBEDDING_DIMS);
    let dims = EMBEDDING_DIMS.min(min_train);

    let mut columns = Vec::new();
    columns.push((
        BASELINE.to_string(),
        runner.distance_column(
            &archive,
            BASELINE,
            &CrossCorrelation::sbd(),
            Normalization::ZScore,
        ),
    ));
    // Family grids are rebuilt per dataset because SIDL's atom length
    // depends on the series length.
    let family_names = ["GRAIL", "RWS", "SPIRAL", "SIDL"];
    for fname in family_names {
        let label = format!("{fname} [LOOCCV]");
        let cells = runner.column(&archive, &label, |ds, flag| {
            let fams = embedding_families(dims, ds.series_len(), cfg.seed);
            // An unregistered family leaves the cell with no grid to tune.
            let (_, grid) = fams
                .into_iter()
                .find(|(n, _)| *n == fname)
                .ok_or(CellError::Eval(EvalError::EmptyGrid))?;
            Ok(evaluate_embedding_supervised(&grid, ds, flag)?.0)
        });
        columns.push((label, cells));
    }

    let study = summarize(&archive, columns);
    let columns = study.columns();
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
        "Table 7: embedding measures vs NCC_c",
        &rows,
        "NCC_c (baseline)",
        &baseline,
    );
    table.push_str(&study.fault_note());
    cfg.save("table7.txt", &table);
}
