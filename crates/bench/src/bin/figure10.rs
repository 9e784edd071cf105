//! Figure 10: classification error with increasingly larger training
//! sets. The paper's point (contra the M2 folklore): ED's error does not
//! always converge to the error of more accurate measures — on shift- and
//! warp-distorted data the gap persists. We grow the training split of
//! shift/warp-archetype datasets and plot error curves for ED, NCC_c, and
//! MSM.

use tsdist_bench::{column, csv_block, summarize, ExperimentConfig};
use tsdist_core::elastic::Msm;
use tsdist_core::lockstep::Euclidean;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let runner = cfg.runner("figure10");
    // Dedicated large-training-set datasets: shift (index 1) and warp
    // (index 2) archetypes with train size scaled up.
    let mut archive_cfg = ArchiveConfig::standard(cfg.n_datasets.max(4), cfg.seed);
    archive_cfg.train_size = (240, 240);
    archive_cfg.test_size = (120, 160);

    let datasets: Vec<_> = [1usize, 2, 8, 9] // shift, warp, shift, warp
        .iter()
        .map(|&i| generate_dataset(&archive_cfg, i))
        .collect();

    let fractions = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0];
    let measures: Vec<(&str, Box<dyn Distance>)> = vec![
        ("ED", Box::new(Euclidean)),
        ("NCC_c", Box::new(CrossCorrelation::sbd())),
        ("MSM(c=0.5)", Box::new(Msm::new(0.5))),
    ];

    // One column per (measure, training fraction), over the datasets
    // with their training splits cut to that fraction.
    let label = |name: &str, f: f64| format!("{name} [train {:.0}%]", f * 100.0);
    let mut columns = Vec::new();
    for &f in &fractions {
        let shrunk: Vec<_> = datasets
            .iter()
            .map(|ds| {
                let n = ((ds.n_train() as f64) * f).ceil() as usize;
                ds.with_train_prefix(n.max(2))
            })
            .collect();
        for (name, m) in &measures {
            let cells =
                runner.distance_column(&shrunk, &label(name, f), m.as_ref(), Normalization::ZScore);
            columns.push((label(name, f), cells));
        }
    }
    let study = summarize(&datasets, columns);
    let surviving = study.columns();

    // Error averaged over the datasets at each training-set size.
    let rows: Vec<(String, Vec<f64>)> = measures
        .iter()
        .map(|(name, _)| {
            let errors = fractions
                .iter()
                .map(|&f| {
                    column(&surviving, &label(name, f)).map_or(f64::NAN, |accs| {
                        accs.iter().map(|a| 1.0 - a).sum::<f64>() / accs.len() as f64
                    })
                })
                .collect();
            (name.to_string(), errors)
        })
        .collect();

    let header = format!(
        "measure,{}",
        fractions
            .iter()
            .map(|f| format!("train_{:.0}%", f * 100.0))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut out = format!(
        "## Figure 10: error rate vs training-set size (shift/warp datasets)\n{}",
        csv_block(&header, &rows)
    );
    out.push_str(&study.fault_note());
    cfg.save("figure10.csv", &out);
}
