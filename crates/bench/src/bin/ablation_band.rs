//! Ablation: DTW accuracy and cost versus Sakoe–Chiba band width.
//!
//! The paper's Table 4 tunes δ over 0..20 plus 100; this ablation shows
//! *why* that grid shape is right: accuracy typically peaks at a small
//! band (warping helps locally, unconstrained warping overfits noise)
//! while cost grows linearly with the band. A band's cost is the sum of
//! its cells' seconds, which a journaled run replays unchanged.

use tsdist_bench::{column, csv_block, summarize, ExperimentConfig};
use tsdist_core::elastic::Dtw;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("ablation_band");
    let bands = [0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 50.0, 100.0];

    let mut columns = Vec::new();
    for &b in &bands {
        let dtw = Dtw::with_window_pct(b);
        let label = dtw.name();
        let cells = runner.distance_column(&archive, &label, &dtw, Normalization::ZScore);
        columns.push((label, cells));
    }
    let study = summarize(&archive, columns);
    let surviving = study.columns();
    let acc_row = study
        .names
        .iter()
        .map(|name| {
            column(&surviving, name).map_or(f64::NAN, |accs| {
                accs.iter().sum::<f64>() / accs.len() as f64
            })
        })
        .collect();
    let sec_row = study
        .cells
        .iter()
        .map(|cells| cells.iter().map(|c| c.seconds).sum())
        .collect();

    let header = format!(
        "series,{}",
        bands
            .iter()
            .map(|b| format!("band_{b}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut out = format!(
        "## Ablation: DTW band width (accuracy and total inference seconds)\n{}",
        csv_block(
            &header,
            &[("accuracy".into(), acc_row), ("seconds".into(), sec_row)]
        )
    );
    out.push_str(&study.fault_note());
    cfg.save("ablation_band.csv", &out);
}
