//! The scan engine's four plans and Auto against the matrix-backed
//! classifiers of `nn.rs`/`knn.rs`: Exact, Cutoff, Cascade (DTW), Pivots
//! (ED), and Auto three ways (measuring as it goes, and with a plan
//! memory primed so that every row takes Exact, or every row its bounded
//! plan), each for 1-NN rows, k-NN rows (k ∈ {1, 3, train.len() + 1})
//! and leave-one-out rows, over a split with exact
//! ties, a NaN candidate, a +∞ candidate and an all-NaN row; the
//! Cascade's lane blocks over train sizes around the block width; and the
//! plan memory's rule, driven by fed costs instead of the clock.

use tsdist_core::elastic::Dtw;
use tsdist_core::index::plans::MIN_SAMPLES;
use tsdist_core::index::{Choice, PlanKey, RowCost};
use tsdist_core::lockstep::Euclidean;
use tsdist_core::measure::Distance;
use tsdist_core::{QueryPlan, TrainIndex};
use tsdist_data::{Dataset, Label};
use tsdist_eval::cell::find_non_finite;
use tsdist_eval::{
    distance_matrix, knn_accuracy, loocv_accuracy, one_nn_accuracy, one_nn_vote_accuracy, Eval,
    EvalError, IndexedStats, NearestNeighbour, Rows, Scan,
};
use tsdist_linalg::Matrix;

const LEN: usize = 16;

fn wave(phase: f64, off: f64) -> Vec<f64> {
    (0..LEN)
        .map(|t| (t as f64 * 0.6 + phase).sin() + off)
        .collect()
}

/// The adversarial split. Train: two identical series (exact ties), a
/// near copy of them between the two (as a leave-one-out row, it ties
/// between a smaller and a larger index), a series with a NaN sample, a series
/// with a +∞ sample, and ordinary ones in two classes. Test: a copy of
/// the tied series, an all-NaN series (every distance non-finite) and
/// ordinary queries.
fn split() -> Dataset {
    let tied = wave(0.0, 0.5);
    let near = wave(0.0, 0.55);
    let mut inf = wave(1.1, 0.0);
    inf[9] = f64::INFINITY;
    let mut nan = wave(0.3, 0.0);
    nan[5] = f64::NAN;
    let mut train = vec![wave(2.0, 1.0), tied.clone(), near, tied.clone(), inf, nan];
    train.extend((0..6).map(|i| wave(i as f64 * 0.45, (i % 2) as f64)));
    let train_labels: Vec<Label> = (0..train.len()).map(|j| j % 2).collect();
    let mut test = vec![tied, vec![f64::NAN; LEN]];
    test.extend((0..6).map(|i| wave(i as f64 * 0.7 + 0.2, (i % 2) as f64 * 0.9)));
    let test_labels: Vec<Label> = (0..test.len()).map(|i| (i + 1) % 2).collect();
    Dataset {
        name: "adversarial".into(),
        train,
        train_labels,
        test,
        test_labels,
    }
}

/// One plan: the scan it runs, whether its rows must take an index
/// structure, and the plan every row must run under (`None`: Auto's own
/// mix of Exact and the bounded plan).
struct Plan<'a> {
    name: &'static str,
    scan: Scan<'a>,
    structured: bool,
    every_row: Option<&'static str>,
}

/// The key of `d`'s bounded plan for `query` in `ix`'s plan memory.
fn plan_key(ix: &TrainIndex, d: &dyn Distance, query: &[f64]) -> PlanKey {
    match ix.plan(d, query) {
        QueryPlan::Cascade(bix) => PlanKey::Cascade(bix.band()),
        QueryPlan::Pivots(_) => PlanKey::Pivots(d.name()),
        QueryPlan::Linear => PlanKey::Cutoff(d.name()),
    }
}

/// Feeds `rows` timed rows of `ns_per_candidate` under `taken` into the
/// plan memory of `ix` under `key`.
fn feed(ix: &TrainIndex, key: &PlanKey, taken: Choice, ns_per_candidate: u64, rows: usize) {
    for _ in 0..rows {
        let cost = RowCost {
            taken,
            nanos: ns_per_candidate * 100,
            candidates: 100,
            lane_nanos: 0,
            lanes: 0,
        };
        ix.plans().record(key, &cost);
    }
}

/// A copy of `ix` whose plan memory already priced `d`'s bounded plan
/// and Exact, the loser a million times dearer per candidate than any
/// row costs, so every Auto row takes `winner` and no probe comes within
/// a test's rows.
fn primed(ix: &TrainIndex, d: &dyn Distance, query: &[f64], winner: Choice) -> TrainIndex {
    let ix = ix.clone();
    let key = plan_key(&ix, d, query);
    let (bounded, exact) = match winner {
        Choice::Bounded => (1, 1_000_000_000),
        Choice::Exact => (1_000_000_000, 1),
    };
    feed(&ix, &key, Choice::Bounded, bounded, MIN_SAMPLES);
    feed(&ix, &key, Choice::Exact, exact, MIN_SAMPLES);
    ix
}

/// The fixed plans, then Auto through `auto` (a fresh index) and through
/// the two primed copies of `primed`.
fn plans<'a>(
    d: &'a dyn Distance,
    train: &'a [Vec<f64>],
    ix: &'a TrainIndex,
    auto: &'a TrainIndex,
    primed: &'a [TrainIndex; 2],
) -> Vec<Plan<'a>> {
    let bounded = if d.name().contains("DTW") {
        "Cascade"
    } else {
        "Pivots"
    };
    let auto_scan = |ix| Scan::new(d, train).pruned(true).indexed(ix).auto(true);
    vec![
        Plan {
            name: "Exact",
            scan: Scan::new(d, train),
            structured: false,
            every_row: Some("Exact"),
        },
        Plan {
            name: "Cutoff",
            scan: Scan::new(d, train).pruned(true),
            structured: false,
            every_row: Some("Cutoff"),
        },
        // Unpruned, so a row without a structure would show up as Exact
        // in `fallback_rows`.
        Plan {
            name: bounded,
            scan: Scan::new(d, train).indexed(ix),
            structured: true,
            every_row: Some(bounded),
        },
        Plan {
            name: "Auto",
            scan: auto_scan(auto),
            structured: true,
            every_row: None,
        },
        Plan {
            name: "Auto (Exact won)",
            scan: auto_scan(&primed[0]),
            structured: true,
            every_row: Some("Exact"),
        },
        Plan {
            name: "Auto (bounded won)",
            scan: auto_scan(&primed[1]),
            structured: true,
            every_row: Some(bounded),
        },
    ]
}

/// The rows `stats` counts under the named plan.
fn rows_under(stats: &IndexedStats, plan: &str) -> u64 {
    match plan {
        "Exact" => stats.exact_rows,
        "Cutoff" => stats.cutoff_rows,
        "Cascade" => stats.cascade_rows,
        _ => stats.pivot_rows,
    }
}

/// Every row ran under the plan `plan` must take, and was counted once.
fn assert_plan_taken(what: &str, stats: &IndexedStats, plan: &Plan<'_>) {
    let fallback = if plan.structured { 0 } else { stats.rows };
    assert_eq!(stats.fallback_rows, fallback, "{what}: plan not taken");
    let counted = stats.exact_rows + stats.cutoff_rows + stats.cascade_rows + stats.pivot_rows;
    assert_eq!(counted, stats.rows, "{what}: rows by plan");
    if let Some(every) = plan.every_row {
        assert_eq!(
            rows_under(stats, every),
            stats.rows,
            "{what}: not all {every}"
        );
    }
}

/// Algorithm 1's strict-`<` scan of one matrix row in natural order,
/// skipping `skip`.
fn reference_nn(row: &[f64], skip: usize) -> (Option<usize>, f64) {
    let mut best = f64::INFINITY;
    let mut index = None;
    for (j, &v) in row.iter().enumerate() {
        if j != skip && v < best {
            best = v;
            index = Some(j);
        }
    }
    (index, best)
}

/// The k-NN selection of `knn.rs`: the `k` smallest entries under
/// `(total_cmp, index)`, skipping `skip`.
fn reference_knn(row: &[f64], k: usize, skip: usize) -> Vec<(f64, usize)> {
    let mut idx: Vec<usize> = (0..row.len()).filter(|&j| j != skip).collect();
    idx.sort_unstable_by(|&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
    idx.truncate(k);
    idx.into_iter().map(|j| (row[j], j)).collect()
}

fn assert_rows_match(
    what: &str,
    nns: &[NearestNeighbour],
    stats: &IndexedStats,
    plan: &Plan<'_>,
    m: &Matrix,
    leave_one_out: bool,
) {
    assert_eq!(nns.len(), m.rows(), "{what}");
    assert_plan_taken(what, stats, plan);
    for (i, nn) in nns.iter().enumerate() {
        let skip = if leave_one_out { i } else { usize::MAX };
        let row = m.row(i);
        let (index, best) = reference_nn(row, skip);
        assert_eq!(nn.index, index, "{what} row {i}");
        assert_eq!(nn.distance.to_bits(), best.to_bits(), "{what} row {i}");
        let first = (0..row.len()).find(|&j| j != skip && !row[j].is_finite());
        if plan.name == "Exact" {
            assert_eq!(nn.non_finite, first, "{what} row {i}");
        } else {
            // Best-effort elsewhere: whatever is reported is non-finite,
            // and a NaN entry is never missed (NaN cannot abandon, and no
            // bound skips a candidate with a non-finite sample).
            if let Some(j) = nn.non_finite {
                assert!(!row[j].is_finite(), "{what} row {i}: {j} is finite");
            }
            let has_nan = (0..row.len()).any(|j| j != skip && row[j].is_nan());
            assert!(
                !has_nan || nn.non_finite.is_some(),
                "{what} row {i}: NaN missed"
            );
        }
    }
}

/// Every plan of `d` over `ds` — 1-NN, LOOCV and k-NN rows for each
/// `k` in `ks` — against the matrix classifiers.
fn assert_plans_match_matrices(d: &dyn Distance, ds: &Dataset, ks: &[usize]) {
    let (train, test) = (&ds.train, &ds.test);
    let mut ix = TrainIndex::build(train);
    ix.prepare_measure(d, train);
    let e = distance_matrix(d, test, train);
    let w = distance_matrix(d, train, train);
    // Every scan of one index shares its plan memory: Auto's runs below
    // (1-NN, leave-one-out, k-NN) carry theirs on.
    let auto = ix.clone();
    let primed = [
        primed(&ix, d, &test[0], Choice::Exact),
        primed(&ix, d, &test[0], Choice::Bounded),
    ];
    for plan in plans(d, train, &ix, &auto, &primed) {
        let scan = plan.scan;
        let what = format!("{} n={} {}", d.name(), train.len(), plan.name);

        let (nns, stats) = scan.nearest(Rows::Queries(test));
        assert_rows_match(&format!("{what} 1-NN"), &nns, &stats, &plan, &e, false);
        // Algorithm 1's accuracy: an all-non-finite row predicts the
        // first training label.
        let acc = one_nn_vote_accuracy(&nns, &ds.test_labels, &ds.train_labels);
        let expect = one_nn_accuracy(&e, &ds.test_labels, &ds.train_labels);
        assert_eq!(
            acc.map(f64::to_bits),
            expect.map(f64::to_bits),
            "{what} 1-NN accuracy"
        );

        let (nns, stats) = scan.nearest(Rows::LeaveOneOut);
        assert_rows_match(&format!("{what} LOOCV"), &nns, &stats, &plan, &w, true);
        // LOOCV starts from "no prediction" instead.
        let correct = nns
            .iter()
            .zip(&ds.train_labels)
            .filter(|(nn, &t)| nn.index.map(|j| ds.train_labels[j]) == Some(t))
            .count();
        let acc = correct as f64 / train.len() as f64;
        let expect = loocv_accuracy(&w, &ds.train_labels).unwrap();
        assert_eq!(acc.to_bits(), expect.to_bits(), "{what} LOOCV accuracy");

        for &k in ks {
            for (rows, m, loo) in [
                (Rows::Queries(test), &e, false),
                (Rows::LeaveOneOut, &w, true),
            ] {
                let what = format!("{what} {k}-NN leave_one_out={loo}");
                let (got, stats) = scan.top_k(rows, k);
                assert_plan_taken(&what, &stats, &plan);
                for (i, row) in got.iter().enumerate() {
                    let skip = if loo { i } else { usize::MAX };
                    let expect = reference_knn(m.row(i), k, skip);
                    assert_eq!(row.len(), expect.len(), "{what} row {i}");
                    for (a, b) in row.iter().zip(&expect) {
                        assert_eq!(a.1, b.1, "{what} row {i}");
                        assert_eq!(a.0.to_bits(), b.0.to_bits(), "{what} row {i}");
                    }
                }
            }
        }
    }
}

#[test]
fn every_plan_equals_the_matrix_reference() {
    let ds = split();
    let dtw = Dtw::with_window_pct(10.0);
    for d in [&dtw as &dyn Distance, &Euclidean] {
        let e = distance_matrix(d, &ds.test, &ds.train);
        let w = distance_matrix(d, &ds.train, &ds.train);
        // The split is adversarial on purpose: the first query ties two
        // candidates exactly and sees the +∞ and NaN candidates (ED keeps
        // NaN; DTW's min-plus recurrence turns it into +∞); the second
        // sees nothing finite.
        let row = e.row(0);
        assert_eq!((row[1], row[3]), (0.0, 0.0));
        assert!(row[4].is_infinite() && !row[5].is_finite());
        let near = w.row(2);
        assert!(near[1] > 0.0 && near[1].to_bits() == near[3].to_bits());
        assert!(e.row(1).iter().all(|v| !v.is_finite()), "all-NaN row");
        assert_plans_match_matrices(d, &ds, &[1, 3, ds.train.len() + 1]);
    }
}

/// A split of `n` train series for the Cascade's lane blocks. Train:
/// exact copies of the series nearest every query (ties, one run of
/// them straddling the block boundary at 8), a NaN series and a +∞
/// series (`LB_PAA` 0, so they are visited, and queued, first, in the
/// block of the winner), and copies of a farther series. Test: the
/// near series itself and two perturbations of it.
fn block_split(n: usize) -> Dataset {
    let near = wave(0.0, 0.5);
    let far = wave(0.4, 0.8);
    let mut nan = wave(0.0, 0.5);
    nan[3] = f64::NAN;
    let mut inf = wave(0.0, 0.5);
    inf[12] = f64::INFINITY;
    let train: Vec<Vec<f64>> = (0..n)
        .map(|j| match j {
            1 => nan.clone(),
            4 => inf.clone(),
            _ if j % 5 == 3 => far.clone(),
            _ => near.clone(),
        })
        .collect();
    let train_labels: Vec<Label> = (0..n).map(|j| j % 3).collect();
    let test = vec![near, wave(0.05, 0.5), wave(0.0, 0.45)];
    Dataset {
        name: format!("blocks-{n}"),
        train,
        train_labels,
        test,
        test_labels: vec![0, 1, 2],
    }
}

#[test]
fn cascade_lane_blocks_equal_the_matrix_reference() {
    let dtw = Dtw::with_window_pct(10.0);
    for n in [2, 7, 8, 9, 17] {
        let ds = block_split(n);
        // Every copy of the near series ties exactly, and the NaN and +∞
        // candidates come out non-finite.
        let e = distance_matrix(&dtw, &ds.test, &ds.train);
        let copies: Vec<usize> = (0..n).filter(|&j| ds.train[j] == ds.test[0]).collect();
        for i in 0..ds.test.len() {
            let row = e.row(i);
            assert!(copies.iter().all(|&j| row[j].to_bits() == row[0].to_bits()));
            assert!([1, 4]
                .iter()
                .filter(|&&j| j < n)
                .all(|&j| !row[j].is_finite()));
        }
        assert_plans_match_matrices(&dtw, &ds, &[1, 3]);
    }
}

/// The `Eval` request taking `plan`'s route over a prepared dataset.
fn eval_for<'a>(name: &str, d: &'a dyn Distance, ds: &'a Dataset, ix: &'a TrainIndex) -> Eval<'a> {
    let eval = Eval::new(d).on(ds).assume_prepared(true);
    match name {
        "Exact" => eval,
        "Cutoff" => eval.pruned(true),
        _ => eval.indexed(ix),
    }
}

/// The named plan's [`Scan`] of `train`, like [`eval_for`].
fn scan_for<'a>(
    name: &str,
    d: &'a dyn Distance,
    train: &'a [Vec<f64>],
    ix: &'a TrainIndex,
) -> Scan<'a> {
    let scan = Scan::new(d, train);
    match name {
        "Exact" => scan,
        "Cutoff" => scan.pruned(true),
        _ => scan.indexed(ix),
    }
}

#[test]
fn eval_accuracies_and_the_non_finite_screen_match_the_matrix_path() {
    let ds = split();
    let dtw = Dtw::with_window_pct(10.0);
    for d in [&dtw as &dyn Distance, &Euclidean] {
        let mut ix = TrainIndex::build(&ds.train);
        ix.prepare_measure(d, &ds.train);
        let e = distance_matrix(d, &ds.test, &ds.train);
        let first = find_non_finite(&e).expect("the split has non-finite entries");
        // `Eval` scans are Auto: also through plan memories primed for
        // each outcome.
        let primed = [
            primed(&ix, d, &ds.test[0], Choice::Exact),
            primed(&ix, d, &ds.test[0], Choice::Bounded),
        ];
        let routes = [
            ("Exact", &ix),
            ("Cutoff", &ix),
            ("Indexed", &ix),
            ("Indexed (Exact won)", &primed[0]),
            ("Indexed (bounded won)", &primed[1]),
        ];
        for (name, ix) in routes {
            let eval = eval_for(name, d, &ds, ix);
            let what = format!("{} {name}", d.name());
            // k = 1 is the study cell: the screen reports the first
            // non-finite entry, exactly `find_non_finite`'s under the
            // Exact plan and an actually non-finite one elsewhere.
            match eval.run() {
                Err(EvalError::NonFiniteDistance { i, j }) => {
                    if name == "Exact" {
                        assert_eq!((i, j), first, "{what}");
                    } else {
                        assert!(!e[(i, j)].is_finite(), "{what}: ({i}, {j})");
                    }
                }
                other => panic!("{what}: expected the non-finite screen, got {other:?}"),
            }
            // k > 1 votes without the screen, like `knn_accuracy`.
            for k in [3, ds.train.len() + 1] {
                let got = eval.k(k).run().expect("k-NN runs").accuracy.unwrap();
                let expect = knn_accuracy(&e, &ds.test_labels, &ds.train_labels, k).unwrap();
                assert_eq!(got.to_bits(), expect.to_bits(), "{what} k={k}");
            }
        }
    }
}

#[test]
fn edge_cases_match_the_matrix_path() {
    let ds = split();
    let d = Euclidean;
    let mut ix = TrainIndex::build(&ds.train);
    ix.prepare_measure(&d, &ds.train);
    let no_test = Dataset {
        test: Vec::new(),
        test_labels: Vec::new(),
        ..split()
    };
    let single = Dataset {
        train: ds.train[..1].to_vec(),
        train_labels: ds.train_labels[..1].to_vec(),
        ..split()
    };
    let no_train = Dataset {
        train: Vec::new(),
        train_labels: Vec::new(),
        ..split()
    };
    let empty_ix = TrainIndex::build(&[]);
    for name in ["Exact", "Cutoff", "Indexed"] {
        // An empty test split: NaN at k = 1 (Algorithm 1 divides by zero
        // rows), 0.0 at k > 1.
        let eval = eval_for(name, &d, &no_test, &ix);
        let acc = eval.run().unwrap().accuracy.unwrap();
        assert!(acc.is_nan(), "{name}: {acc}");
        assert_eq!(eval.k(3).run().unwrap().accuracy, Some(0.0), "{name}");

        // Single-series LOOCV: nothing is left to vote.
        let single_ix = TrainIndex::build(&single.train);
        let scan = scan_for(name, &d, &single.train, &single_ix);
        let (nns, _) = scan.nearest(Rows::LeaveOneOut);
        assert_eq!(nns.len(), 1);
        assert_eq!(nns[0].index, None, "{name}");
        assert_eq!(
            loocv_accuracy(&Matrix::from_vec(1, 1, vec![0.0]), &[0]),
            Ok(0.0)
        );

        // An empty train split and k = 0 are typed errors, also when the
        // rows of an empty train split are voted on directly.
        let scan = scan_for(name, &d, &no_train.train, &empty_ix);
        let (nns, _) = scan.nearest(Rows::Queries(&no_train.test));
        assert_eq!(nns.len(), no_train.test.len());
        assert_eq!(
            one_nn_vote_accuracy(&nns, &no_train.test_labels, &no_train.train_labels),
            Err(EvalError::EmptyTrainSet),
            "{name}"
        );
        for k in [1, 3] {
            let eval = eval_for(name, &d, &no_train, &empty_ix).k(k);
            assert_eq!(eval.run(), Err(EvalError::EmptyTrainSet), "{name} k={k}");
            let queries = eval.queries(&ds.test).run();
            assert_eq!(queries, Err(EvalError::EmptyTrainSet), "{name} k={k}");
        }
        let eval = eval_for(name, &d, &ds, &ix).k(0);
        assert_eq!(eval.run(), Err(EvalError::ZeroK), "{name}");
    }
}

#[test]
fn the_plan_memory_persists_across_scans_and_follows_measured_costs() {
    let ds = split();
    let dtw = Dtw::with_window_pct(10.0);
    for d in [&dtw as &dyn Distance, &Euclidean] {
        let (train, test) = (&ds.train, &ds.test);
        let mut ix = TrainIndex::build(train);
        ix.prepare_measure(d, train);
        let key = plan_key(&ix, d, &test[0]);
        let bounded = if d.name().contains("DTW") {
            "Cascade"
        } else {
            "Pivots"
        };
        let auto = |ix| Scan::new(d, train).indexed(ix).auto(true);
        let fixed = Scan::new(d, train).indexed(&ix);
        let one = Rows::Queries(&test[..1]);

        // Nothing measured yet: the first row takes the bounded plan.
        let fresh = ix.clone();
        let (_, stats) = auto(&fresh).nearest(one);
        assert_eq!(rows_under(&stats, bounded), 1, "{}", d.name());
        assert_eq!(fresh.plans().rows(&key), 1);

        // A near tie (Exact 3% cheaper) keeps the bounded plan.
        let tie = ix.clone();
        feed(&tie, &key, Choice::Bounded, 1_030_000, MIN_SAMPLES);
        feed(&tie, &key, Choice::Exact, 1_000_000, MIN_SAMPLES);
        let (_, stats) = auto(&tie).nearest(one);
        assert_eq!(rows_under(&stats, bounded), 1, "{} near tie", d.name());

        // A bounded plan measured slower is replaced by Exact, for every
        // row of every later scan of the same index: the memory persists.
        let slower = ix.clone();
        feed(&slower, &key, Choice::Bounded, 1_000_000_000, MIN_SAMPLES);
        feed(&slower, &key, Choice::Exact, 1_000, MIN_SAMPLES);
        let (nns, stats) = auto(&slower).nearest(Rows::Queries(test));
        assert_eq!(stats.exact_rows, test.len() as u64, "{}", d.name());
        assert_eq!(stats.fallback_rows, 0, "indexed rows sent to Exact");
        let answers = |nns: &[NearestNeighbour]| -> Vec<(Option<usize>, u64)> {
            nns.iter()
                .map(|nn| (nn.index, nn.distance.to_bits()))
                .collect()
        };
        let expect = fixed.nearest(Rows::Queries(test)).0;
        assert_eq!(answers(&nns), answers(&expect), "{}", d.name());
        let (rows, stats) = auto(&slower).top_k(Rows::LeaveOneOut, 3);
        assert_eq!(stats.exact_rows, train.len() as u64, "{}", d.name());
        let bits = |rows: &[Vec<(f64, usize)>]| -> Vec<Vec<(u64, usize)>> {
            let row = |r: &Vec<(f64, usize)>| r.iter().map(|&(v, j)| (v.to_bits(), j)).collect();
            rows.iter().map(row).collect()
        };
        let expect = fixed.top_k(Rows::LeaveOneOut, 3).0;
        assert_eq!(bits(&rows), bits(&expect), "{}", d.name());
        let total = (test.len() + train.len()) as u64;
        assert_eq!(slower.plans().rows(&key), total);
        // The index it was cloned from never saw those rows.
        assert_eq!(ix.plans().rows(&key), 0);
    }
}
