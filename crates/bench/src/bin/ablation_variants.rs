//! Ablation: the DTW variant zoo (Section 7's DDTW, WDTW, CID) against
//! plain DTW under unsupervised settings — the paper cites evidence
//! that these variants bring no significant improvement, which this
//! experiment checks on the synthetic archive.

use tsdist_bench::{column, summarize, ExperimentConfig};
use tsdist_core::elastic::{Cid, DerivativeDtw, Dtw, ItakuraDtw, WeightedDtw};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_eval::{compare_to_baseline, render_table};

const BASELINE: &str = "DTW(δ=10)";

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("ablation_variants");
    let norm = Normalization::ZScore;

    let measures: Vec<(&str, Box<dyn Distance>)> = vec![
        (BASELINE, Box::new(Dtw::with_window_pct(10.0))),
        ("DDTW(δ=10)", Box::new(DerivativeDtw::with_window_pct(10.0))),
        ("WDTW(g=0.05)", Box::new(WeightedDtw::new(0.05))),
        (
            "CID-DTW(δ=10)",
            Box::new(Cid::new(Dtw::with_window_pct(10.0))),
        ),
        ("DTW-Itakura(s=2)", Box::new(ItakuraDtw::new(2.0))),
        ("DTW(δ=100)", Box::new(Dtw::unconstrained())),
    ];
    let columns = measures
        .iter()
        .map(|(name, m)| {
            let cells = runner.distance_column(&archive, name, m.as_ref(), norm);
            (name.to_string(), cells)
        })
        .collect();

    let study = summarize(&archive, columns);
    let columns = study.columns();
    let baseline = column(&columns, BASELINE)
        .expect("the DTW(δ=10) baseline completed no cell; cannot rank the table")
        .to_vec();
    let mut rows: Vec<_> = columns
        .iter()
        .filter(|(name, _)| name != BASELINE)
        .map(|(name, accs)| compare_to_baseline(name.clone(), accs, &baseline))
        .collect();
    rows.sort_by(|a, b| b.average_accuracy.total_cmp(&a.average_accuracy));
    let mut table = render_table(
        "Ablation: DTW variants vs DTW(δ=10)",
        &rows,
        "DTW(δ=10) (baseline)",
        &baseline,
    );
    table.push_str(&study.fault_note());
    cfg.save("ablation_variants.txt", &table);
}
