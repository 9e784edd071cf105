//! End-to-end integration tests: the full pipeline from synthetic archive
//! (or UCR files) through evaluation to statistical comparison, checking
//! the *qualitative* findings of the paper at miniature scale.

use tsdist::data::synthetic::{generate_archive, generate_dataset, ArchiveConfig};
use tsdist::eval::{
    compare_to_baseline, evaluate_distance_supervised, rank_measures, run_study_resumable,
    CellRunner, Entrant, RunnerConfig,
};
use tsdist::measures::elastic::{Dtw, Msm};
use tsdist::measures::lockstep::Euclidean;
use tsdist::measures::sliding::CrossCorrelation;
use tsdist::prelude::*;

fn accuracy(d: &dyn Distance, ds: &Dataset) -> f64 {
    Eval::new(d)
        .on(ds)
        .normalized(Normalization::ZScore)
        .run()
        .expect("evaluation")
        .accuracy
        .expect("dataset mode reports accuracy")
}

fn archive_accs(archive: &[Dataset], d: &dyn Distance) -> Vec<f64> {
    archive.iter().map(|ds| accuracy(d, ds)).collect()
}

#[test]
fn sliding_beats_lockstep_on_shift_distorted_data() {
    // Misconception M3 at miniature scale: on shift-archetype datasets
    // NCC_c must clearly beat ED.
    let cfg = ArchiveConfig::quick(1, 20);
    let mut ed_total = 0.0;
    let mut sbd_total = 0.0;
    for idx in [1usize, 8, 15, 22] {
        let ds = generate_dataset(&cfg, idx); // shift archetype
        ed_total += accuracy(&Euclidean, &ds);
        sbd_total += accuracy(&CrossCorrelation::sbd(), &ds);
    }
    assert!(
        sbd_total > ed_total,
        "NCC_c ({sbd_total}) must beat ED ({ed_total}) on shifted data"
    );
}

#[test]
fn elastic_beats_lockstep_on_warped_data() {
    // Misconception M4's territory: warp-archetype datasets favour MSM.
    let cfg = ArchiveConfig::quick(1, 20);
    let mut ed_total = 0.0;
    let mut msm_total = 0.0;
    for idx in [2usize, 9, 16, 23] {
        let ds = generate_dataset(&cfg, idx); // warp archetype
        ed_total += accuracy(&Euclidean, &ds);
        msm_total += accuracy(&Msm::new(0.5), &ds);
    }
    assert!(
        msm_total > ed_total,
        "MSM ({msm_total}) must beat ED ({ed_total}) on warped data"
    );
}

#[test]
fn full_comparison_pipeline_runs_and_is_consistent() {
    let archive = generate_archive(&ArchiveConfig::quick(14, 42));
    let ed = archive_accs(&archive, &Euclidean);
    let sbd = archive_accs(&archive, &CrossCorrelation::sbd());
    let msm = archive_accs(&archive, &Msm::new(0.5));

    // Pairwise comparison bookkeeping.
    let row = compare_to_baseline("NCC_c", &sbd, &ed);
    assert_eq!(row.better + row.equal + row.worse, archive.len());
    assert!((0.0..=1.0).contains(&row.average_accuracy));

    // Multi-measure ranking agrees with the average-accuracy ordering for
    // clearly separated measures.
    let names = vec!["ED".to_string(), "NCC_c".into(), "MSM".into()];
    let table: Vec<Vec<f64>> = (0..archive.len())
        .map(|d| vec![ed[d], sbd[d], msm[d]])
        .collect();
    let analysis = rank_measures(&names, &table);
    assert_eq!(analysis.friedman.average_ranks.len(), 3);
    assert!(analysis.critical_difference > 0.0);
    // Rank sum is invariant: sum of average ranks == k(k+1)/2.
    let rank_sum: f64 = analysis.friedman.average_ranks.iter().sum();
    assert!((rank_sum - 6.0).abs() < 1e-9);
}

#[test]
fn supervised_tuning_never_loses_to_the_worst_grid_point_on_training() {
    let ds = generate_dataset(&ArchiveConfig::quick(1, 3), 2);
    let grid: Vec<Box<dyn Distance>> = vec![
        Box::new(Dtw::with_window_pct(0.0)),
        Box::new(Dtw::with_window_pct(5.0)),
        Box::new(Dtw::with_window_pct(20.0)),
        Box::new(Dtw::with_window_pct(100.0)),
    ];
    let flag = CancelFlag::new();
    let (out, _) = evaluate_distance_supervised(&grid, &ds, Normalization::ZScore, &flag).unwrap();
    // The selected train accuracy must be the max over the grid, which we
    // verify by re-evaluating each grid point's LOOCV accuracy.
    use tsdist::eval::{distance_matrix, loocv_accuracy, prepare};
    let prepared = prepare(&ds, Normalization::ZScore);
    let mut best = f64::NEG_INFINITY;
    for g in &grid {
        let w = distance_matrix(g.as_ref(), &prepared.train, &prepared.train);
        best = best.max(loocv_accuracy(&w, &prepared.train_labels).unwrap());
    }
    assert!((out.train_accuracy.unwrap() - best).abs() < 1e-12);
}

#[test]
fn archive_is_deterministic_across_processes() {
    // The whole study depends on reproducibility: same config, same data,
    // same accuracies.
    let a1 = generate_archive(&ArchiveConfig::quick(7, 99));
    let a2 = generate_archive(&ArchiveConfig::quick(7, 99));
    for (d1, d2) in a1.iter().zip(&a2) {
        let acc1 = accuracy(&Euclidean, d1);
        let acc2 = accuracy(&Euclidean, d2);
        assert_eq!(acc1, acc2);
    }
}

#[test]
fn ucr_loader_feeds_the_same_pipeline() {
    let dir = std::env::temp_dir().join("tsdist_it_ucr");
    std::fs::create_dir_all(&dir).unwrap();
    let train = dir.join("T_TRAIN.tsv");
    let test = dir.join("T_TEST.tsv");
    std::fs::write(
        &train,
        "1\t0.0\t0.5\t1.0\t0.5\t0.0\n1\t0.1\t0.6\t1.1\t0.4\t0.0\n2\t1.0\t0.5\t0.0\t0.5\t1.0\n2\t0.9\t0.4\t0.1\t0.6\t1.1\n",
    )
    .unwrap();
    std::fs::write(
        &test,
        "1\t0.0\t0.55\t1.05\t0.45\t0.05\n2\t1.05\t0.45\t0.05\t0.55\t0.95\n",
    )
    .unwrap();
    let ds = tsdist::data::ucr::load_ucr_dataset("T", &train, &test).unwrap();
    let acc = accuracy(&Euclidean, &ds);
    assert_eq!(
        acc, 1.0,
        "trivially separable UCR data must classify perfectly"
    );
}

#[test]
fn study_api_reproduces_the_headline_ordering() {
    use tsdist::data::synthetic::generate_archive;
    use tsdist::measures::elastic::Msm;
    use tsdist::measures::lockstep::Euclidean;

    let archive = generate_archive(&ArchiveConfig::quick(14, 20));
    let runner = CellRunner::new(RunnerConfig::default());
    let robust = run_study_resumable(
        &archive,
        &[
            Entrant::new(Box::new(Euclidean)),
            Entrant::new(Box::new(CrossCorrelation::sbd())),
            Entrant::new(Box::new(Msm::new(0.5))),
        ],
        &runner,
    );
    assert_eq!(robust.outcome_counts(), (3 * 14, 0, 0, 0));
    let report = robust.report.expect("every cell completed");
    // NCC_c and MSM both average above the ED baseline.
    let avg = |col: &Vec<f64>| col.iter().sum::<f64>() / col.len() as f64;
    assert!(avg(&report.accuracies[1]) > avg(&report.accuracies[0]));
    assert!(avg(&report.accuracies[2]) > avg(&report.accuracies[0]));
    // And the rank order agrees: ED has the worst (largest) average rank.
    let ed_rank = report.ranking.friedman.average_ranks[0];
    assert!(report.ranking.friedman.average_ranks[1..]
        .iter()
        .all(|&r| r < ed_rank));
}
