//! Integration tests for the beyond-the-paper extensions, exercised
//! through the public facade exactly as a downstream user would.

use tsdist::data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist::eval::{run_study_resumable, CellRunner, Entrant, RunnerConfig};
use tsdist::measures::multivariate::{
    dtw_dependent, dtw_independent, ed_multivariate, sbd_independent, znorm_dims,
};
use tsdist::measures::shape::kshape_centroid;
use tsdist::measures::sliding::CrossCorrelation;
use tsdist::measures::subsequence::{mass, top_discord, top_motif};
use tsdist::measures::{Distance, Normalization};
use tsdist::stats::{bootstrap_paired_diff_ci, holm_adjust, sign_test};

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

#[test]
fn subsequence_stack_finds_structure_in_a_dataset_series() {
    // Concatenate two copies of one training series with junk between:
    // the matrix profile must find the planted repetition.
    let ds = generate_dataset(&ArchiveConfig::quick(1, 8), 0);
    let pattern = Normalization::ZScore.apply(&ds.train[0]);
    let w = pattern.len();
    let mut series = vec![0.0f64; 4 * w];
    for (i, v) in series.iter_mut().enumerate() {
        *v = ((i as u64 * 2654435761) % 997) as f64 / 500.0 - 1.0;
    }
    series[w..2 * w].copy_from_slice(&pattern);
    series[3 * w..4 * w].copy_from_slice(&pattern);

    let (i, j, d) = top_motif(&series, w);
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    assert!(
        a.abs_diff(w) <= 2 && b.abs_diff(3 * w) <= 2,
        "motif at {a},{b}"
    );
    assert!(d < 1e-6);

    // MASS profile of the pattern itself dips to zero at both positions.
    let profile = mass(&pattern, &series);
    assert!(profile[w] < 1e-6 && profile[3 * w] < 1e-6);

    // A discord exists and the search is total.
    let (k, dd) = top_discord(&series, w);
    assert!(k < series.len() - w + 1);
    assert!(dd.is_finite());
}

#[test]
fn shape_centroid_classifies_like_a_one_class_model() {
    // The SBD centroid of one class is closer (SBD) to members of that
    // class than to another class's members.
    let ds = generate_dataset(&ArchiveConfig::quick(1, 15), 1); // shift archetype
    let norm = Normalization::ZScore;
    let class0: Vec<Vec<f64>> = ds
        .train
        .iter()
        .zip(&ds.train_labels)
        .filter(|(_, &l)| l == 0)
        .map(|(s, _)| norm.apply(s))
        .collect();
    let class1: Vec<Vec<f64>> = ds
        .train
        .iter()
        .zip(&ds.train_labels)
        .filter(|(_, &l)| l == 1)
        .map(|(s, _)| norm.apply(s))
        .collect();
    assert!(class0.len() >= 2 && class1.len() >= 2);

    let centroid = kshape_centroid(&class0, 2);
    let sbd = CrossCorrelation::sbd();
    let mean_d = |members: &[Vec<f64>]| -> f64 {
        members
            .iter()
            .map(|m| sbd.distance(&centroid, m))
            .sum::<f64>()
            / members.len() as f64
    };
    assert!(
        mean_d(&class0) < mean_d(&class1),
        "centroid should sit inside its own class"
    );
}

#[test]
fn multivariate_measures_separate_bivariate_classes() {
    // Controlled bivariate instances: class A = (sin, cos) channels,
    // class B = (bump, sawtooth) channels, mild deterministic noise.
    let m = 64;
    let noise = |seed: usize, i: usize| {
        (((seed * 131 + i) as u64 * 2654435761) % 1000) as f64 / 2500.0 - 0.2
    };
    let class_a = |seed: usize| -> Vec<Vec<f64>> {
        znorm_dims(&[
            (0..m)
                .map(|i| (i as f64 * 0.3).sin() + noise(seed, i))
                .collect(),
            (0..m)
                .map(|i| (i as f64 * 0.3).cos() + noise(seed + 7, i))
                .collect(),
        ])
    };
    let class_b = |seed: usize| -> Vec<Vec<f64>> {
        znorm_dims(&[
            (0..m)
                .map(|i| (-((i as f64 - 32.0) / 5.0).powi(2) / 2.0).exp() * 3.0 + noise(seed, i))
                .collect(),
            (0..m)
                .map(|i| (i % 9) as f64 + noise(seed + 7, i))
                .collect(),
        ])
    };
    let x = class_a(1);
    let y_same = class_a(2);
    let y_diff = class_b(3);

    let band = m / 10 + 1;
    assert!(ed_multivariate(&x, &y_same) < ed_multivariate(&x, &y_diff));
    assert!(dtw_dependent(&x, &y_same, band) < dtw_dependent(&x, &y_diff, band));
    assert!(dtw_independent(&x, &y_same, band) <= dtw_dependent(&x, &y_same, band) + 1e-9);
    assert!(sbd_independent(&x, &y_same) < sbd_independent(&x, &y_diff));
}

#[test]
fn companion_tests_agree_with_wilcoxon_on_clear_effects() {
    use tsdist::stats::wilcoxon_signed_rank;
    let strong: Vec<f64> = (0..30).map(|i| 0.85 + (i % 4) as f64 * 0.01).collect();
    let weak: Vec<f64> = (0..30).map(|i| 0.60 + (i % 6) as f64 * 0.01).collect();

    let w = wilcoxon_signed_rank(&strong, &weak).unwrap();
    let s = sign_test(&strong, &weak).unwrap();
    let ci = bootstrap_paired_diff_ci(&strong, &weak, 500, 0.95, 9);
    assert!(w.p_value < 0.01);
    assert!(s.p_value < 0.01);
    assert!(ci.lower > 0.0, "bootstrap CI must exclude zero: {ci:?}");

    // Holm keeps a strong effect significant even among weak companions.
    let adjusted = holm_adjust(&[w.p_value, 0.6, 0.9]);
    assert!(adjusted[0] < 0.05);
}
