//! Figure 9: accuracy-to-runtime scatter of the most prominent measures.
//! Runtime is inference only (computing the test-by-train matrix and
//! classifying), as in the paper; each point is the archive average.
//! Embeddings report their encode+compare inference cost.
//!
//! Each inference cell is one `Eval` run on the prepared split (the `E`
//! build and the 1-NN vote) under the fault-tolerant runner, cancelled by
//! the runner's flag, so `--deadline-secs` interrupts a stalling kernel
//! mid-matrix and the remaining measures still report. A kernel's cell
//! computes each train and test series' self-similarity once, so its
//! time is one kernel DP per (test, train) pair plus one per series.

use tsdist_bench::{column, summarize, ExperimentConfig};
use tsdist_core::elastic::{Dtw, Erp, Msm, Twe};
use tsdist_core::kernel::{Gak, Kdtw, Sink};
use tsdist_core::lockstep::{Euclidean, Lorentzian};
use tsdist_core::measure::{Distance, KernelDistance};
use tsdist_core::normalization::Normalization;
use tsdist_core::params::unsupervised as u;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_eval::{prepare, Eval, Evaluation};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("figure9");
    let prepared: Vec<_> = archive
        .iter()
        .map(|d| prepare(d, Normalization::ZScore))
        .collect();

    let measures: Vec<(&str, Box<dyn Distance>)> = vec![
        ("ED", Box::new(Euclidean)),
        ("Lorentzian", Box::new(Lorentzian)),
        ("NCC_c", Box::new(CrossCorrelation::sbd())),
        ("SINK", Box::new(KernelDistance(Sink::new(u::SINK_GAMMA)))),
        ("DTW(δ=10)", Box::new(Dtw::with_window_pct(10.0))),
        ("MSM(c=0.5)", Box::new(Msm::new(u::MSM_COST))),
        ("TWE", Box::new(Twe::new(u::TWE_LAMBDA, u::TWE_NU))),
        ("ERP", Box::new(Erp::new())),
        (
            "GAK(γ=0.1)",
            Box::new(KernelDistance(Gak::new(u::GAK_GAMMA))),
        ),
        (
            "KDTW(γ=0.125)",
            Box::new(KernelDistance(Kdtw::new(u::KDTW_GAMMA))),
        ),
    ];

    let columns = measures
        .iter()
        .map(|(name, m)| {
            let cells = runner.column(&prepared, name, |ds, flag| {
                let report = Eval::new(m.as_ref())
                    .on(ds)
                    .assume_prepared(true)
                    .cancelled_by(flag)
                    .run()?;
                Ok(Evaluation::unsupervised(
                    report.accuracy.expect("dataset mode reports accuracy"),
                ))
            });
            (name.to_string(), cells)
        })
        .collect();
    let study = summarize(&prepared, columns);

    // Each point covers the datasets every surviving measure completed.
    let mut out = String::from("## Figure 9: accuracy vs inference runtime\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>14}\n",
        "measure", "avg acc", "total sec"
    ));
    let surviving = study.columns();
    for (name, cells) in study.names.iter().zip(&study.cells) {
        let Some(accs) = column(&surviving, name) else {
            out.push_str(&format!("{name:<16} {:>10} {:>14}\n", "-", "-"));
            continue;
        };
        let acc: f64 = accs.iter().sum::<f64>() / accs.len() as f64;
        let secs: f64 = study
            .surviving_datasets
            .iter()
            .map(|&d| cells[d].seconds)
            .sum();
        out.push_str(&format!("{name:<16} {acc:>10.4} {secs:>14.4}\n"));
    }
    out.push_str(&study.fault_note());
    cfg.save("figure9.txt", &out);
}
