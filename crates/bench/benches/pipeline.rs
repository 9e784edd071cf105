//! The 1-NN evaluation pipeline: dissimilarity-matrix construction,
//! classification and LOOCV, for ED, SBD and DTW(δ=10).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use tsdist_core::elastic::Dtw;
use tsdist_core::lockstep::Euclidean;
use tsdist_core::normalization::Normalization;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist_eval::{distance_matrix, loocv_accuracy, one_nn_accuracy, prepare};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900));

    let raw = generate_dataset(&ArchiveConfig::quick(1, 13), 1);
    let ds = prepare(&raw, Normalization::ZScore);

    group.bench_function("ed_matrix_and_classify", |b| {
        b.iter(|| {
            let e = distance_matrix(&Euclidean, &ds.test, &ds.train);
            black_box(one_nn_accuracy(&e, &ds.test_labels, &ds.train_labels))
        })
    });
    group.bench_function("sbd_matrix_and_classify", |b| {
        let sbd = CrossCorrelation::sbd();
        b.iter(|| {
            let e = distance_matrix(&sbd, &ds.test, &ds.train);
            black_box(one_nn_accuracy(&e, &ds.test_labels, &ds.train_labels))
        })
    });
    group.bench_function("ed_loocv", |b| {
        b.iter(|| {
            let w = distance_matrix(&Euclidean, &ds.train, &ds.train);
            black_box(loocv_accuracy(&w, &ds.train_labels))
        })
    });

    group.bench_function("dtw10_exhaustive_search", |b| {
        let dtw = Dtw::with_window_pct(10.0);
        b.iter(|| {
            let e = distance_matrix(&dtw, &ds.test, &ds.train);
            black_box(one_nn_accuracy(&e, &ds.test_labels, &ds.train_labels))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
