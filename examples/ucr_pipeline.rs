//! Running the evaluation pipeline on real UCR-format files.
//!
//! Pass a directory containing `<Name>_TRAIN.tsv` / `<Name>_TEST.tsv`
//! pairs (the 2018 UCR archive layout) to evaluate the genuine archive:
//!
//! ```sh
//! cargo run --release --example ucr_pipeline -- /path/to/UCRArchive_2018/ECGFiveDays
//! ```
//!
//! Without an argument the example writes a small UCR-format dataset to a
//! temp directory — including missing values and varying lengths, which
//! the loader harmonizes exactly as the paper prepared the 2018 archive —
//! and runs the same pipeline on it.

use std::path::{Path, PathBuf};

use tsdist::data::ucr::load_ucr_dataset;
use tsdist::eval::{distance_matrix, loocv_accuracy, prepare};
use tsdist::measures::elastic::Msm;
use tsdist::measures::lockstep::{Euclidean, Lorentzian};
use tsdist::measures::sliding::CrossCorrelation;
use tsdist::prelude::*;

fn demo_dataset_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("tsdist_ucr_demo/SyntheticDemo");
    std::fs::create_dir_all(&dir).expect("create demo dir");
    // Two classes: rising vs falling ramps, with a NaN and a short series.
    let train = "\
1\t0.1\t0.2\t0.4\t0.55\t0.7\t0.9\n\
1\t0.0\t0.25\tNaN\t0.5\t0.75\t1.0\n\
2\t1.0\t0.8\t0.6\t0.4\t0.2\t0.0\n\
2\t0.9\t0.7\t0.5\t0.3\n";
    let test = "\
1\t0.05\t0.2\t0.45\t0.6\t0.8\t0.95\n\
2\t1.1\t0.85\t0.55\t0.35\t0.15\t-0.05\n\
2\t0.95\t0.75\t0.5\t0.25\t0.1\t0.0\n";
    std::fs::write(dir.join("SyntheticDemo_TRAIN.tsv"), train).expect("write train");
    std::fs::write(dir.join("SyntheticDemo_TEST.tsv"), test).expect("write test");
    dir
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(demo_dataset_dir);
    let name = dir
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".into());

    let train_path = find_split(&dir, &name, "TRAIN");
    let test_path = find_split(&dir, &name, "TEST");
    let ds = load_ucr_dataset(&name, &train_path, &test_path)
        .unwrap_or_else(|e| panic!("failed to load {name}: {e}"));

    println!(
        "loaded {}: {} classes, {} train / {} test, length {} (harmonized)",
        ds.name,
        ds.n_classes(),
        ds.n_train(),
        ds.n_test(),
        ds.series_len()
    );

    // Training-split LOOCV accuracy — what the paper's supervised tuning
    // optimizes.
    let prepared = prepare(&ds, Normalization::ZScore);
    let w = distance_matrix(&Euclidean, &prepared.train, &prepared.train);
    println!(
        "ED train LOOCV accuracy: {:.4}",
        loocv_accuracy(&w, &prepared.train_labels).expect("square W, one label per series")
    );

    println!("\n1-NN test accuracy:");
    let measures: Vec<(&str, Box<dyn Distance>)> = vec![
        ("ED", Box::new(Euclidean)),
        ("Lorentzian", Box::new(Lorentzian)),
        ("NCC_c (SBD)", Box::new(CrossCorrelation::sbd())),
        ("MSM(c=0.5)", Box::new(Msm::new(0.5))),
    ];
    for (label, m) in &measures {
        let acc = Eval::new(m.as_ref())
            .on(&ds)
            .normalized(Normalization::ZScore)
            .run()
            .expect("evaluation")
            .accuracy
            .expect("dataset mode reports accuracy");
        println!("  {label:<12} {acc:.4}");
    }
}

fn find_split(dir: &Path, name: &str, split: &str) -> PathBuf {
    for ext in ["tsv", "txt", "csv"] {
        let p = dir.join(format!("{name}_{split}.{ext}"));
        if p.exists() {
            return p;
        }
    }
    panic!("no {name}_{split}.(tsv|txt|csv) found in {}", dir.display());
}
