//! Ablation: sensitivity of the study's conclusions to the k = 1 choice.
//!
//! The paper fixes 1-NN because it mirrors similarity search and is
//! parameter-free (Section 3). This ablation re-runs the headline
//! comparison (ED vs NCC_c vs MSM) at k ∈ {1, 3, 5} and shows the
//! *ordering* of measures is stable in k — the conclusions do not hinge
//! on the classifier.

use tsdist_bench::{column, summarize, ExperimentConfig};
use tsdist_core::elastic::Msm;
use tsdist_core::lockstep::Euclidean;
use tsdist_core::measure::Distance;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_eval::{Eval, Evaluation};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let runner = cfg.runner("ablation_knn");
    let ks = [1usize, 3, 5];

    let measures: Vec<(&str, Box<dyn Distance>)> = vec![
        ("ED", Box::new(Euclidean)),
        ("NCC_c", Box::new(CrossCorrelation::sbd())),
        ("MSM(c=0.5)", Box::new(Msm::new(0.5))),
    ];
    let label = |name: &str, k: usize| format!("{name} [k={k}]");

    let mut columns = Vec::new();
    for (name, m) in &measures {
        for k in ks {
            let cells = runner.column(&archive, &label(name, k), |ds, flag| {
                let report = Eval::new(m.as_ref()).on(ds).k(k).cancelled_by(flag).run()?;
                Ok(Evaluation::unsupervised(
                    report.accuracy.expect("dataset mode reports accuracy"),
                ))
            });
            columns.push((label(name, k), cells));
        }
    }
    let study = summarize(&archive, columns);
    let columns = study.columns();

    let mut out = String::from("## Ablation: measure ordering under k-NN, k ∈ {1, 3, 5}\n");
    out.push_str(&format!("{:<14}", "measure"));
    for k in ks {
        out.push_str(&format!(" {:>9}", format!("k={k}")));
    }
    out.push('\n');
    for (name, _) in &measures {
        out.push_str(&format!("{name:<14}"));
        for k in ks {
            let v = column(&columns, &label(name, k)).map_or(f64::NAN, |accs| {
                accs.iter().sum::<f64>() / accs.len() as f64
            });
            out.push_str(&format!(" {v:>9.4}"));
        }
        out.push('\n');
    }
    out.push_str(&study.fault_note());
    cfg.save("ablation_knn.txt", &out);
}
