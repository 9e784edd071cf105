//! The consolidated evaluation request: one builder, one `run()`.
//!
//! [`Eval`] is the one typed request for unsupervised distance
//! evaluation that the CLI, the query server (`tsdist-serve`), and the
//! study runner share verbatim — one request type flows from wire format
//! to inner loop, the [`Scan`] engine. Every cell of the runner's
//! [`distance_column`](crate::runner::CellRunner::distance_column), and
//! so every cell of [`run_study_resumable`](crate::runner::run_study_resumable),
//! is one dataset-mode request under the cell's cancel flag.
//!
//! Two modes, selected by whether [`Eval::queries`] was called:
//!
//! * **Dataset mode** (default): classify the dataset's own test split
//!   against its train split and report the accuracy, with the NaN/±Inf
//!   screen of the study runner's cells at `k = 1`.
//! * **Query mode**: answer ad-hoc 1-NN / k-NN queries against the train
//!   split, one [`Answer`] per query. Queries go through the same
//!   preprocessing pipeline as dataset series, and answers are
//!   byte-identical to what the offline evaluator would produce for the
//!   same series (the serve-vs-offline equivalence contract).
//!
//! Deadlines reuse the PR-2 machinery: a [`Watchdog`] arms the request's
//! [`CancelFlag`], guarded measure wrappers unwind at the next pairwise
//! call, and `run()` maps the unwind to [`EvalError::DeadlineExceeded`].
//! A measure that *panics on its own* under a deadline-armed request is
//! classified as [`EvalError::Faulted`] instead, so fault injection
//! (chaos testing) stays distinguishable from timeouts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::cell::{with_cell_measure, CancelFlag, CancelPanic, Watchdog};
use crate::error::EvalError;
use crate::evaluator::{distance_cell, prepare, preprocess_series};
use crate::knn::majority_vote;
use crate::nn::check_shapes;
use crate::runner::panic_message;
use crate::scan::{knn_vote_accuracy, Rows, Scan};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_data::{Dataset, Label};

/// A fully-described evaluation request, the entry point of the
/// consolidated evaluation API: `Eval::new(measure).on(dataset)…run()`.
#[derive(Clone, Copy)]
pub struct Eval<'a> {
    measure: &'a dyn Distance,
    dataset: Option<&'a Dataset>,
    norm: Normalization,
    pruned: bool,
    k: usize,
    deadline: Option<Duration>,
    cancel: Option<&'a CancelFlag>,
    queries: Option<&'a [Vec<f64>]>,
    index: Option<&'a TrainIndex>,
    assume_prepared: bool,
}

impl<'a> Eval<'a> {
    /// A request evaluating `measure`, with defaults matching the
    /// historical entry points: z-score normalization, exact (unpruned)
    /// scan, `k = 1`, no deadline.
    pub fn new(measure: &'a dyn Distance) -> Self {
        Eval {
            measure,
            dataset: None,
            norm: Normalization::ZScore,
            pruned: false,
            k: 1,
            deadline: None,
            cancel: None,
            queries: None,
            index: None,
            assume_prepared: false,
        }
    }

    /// The dataset to evaluate on (required).
    pub fn on(mut self, dataset: &'a Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// The evaluation normalization, applied on top of the study-wide
    /// z-normalization (default: [`Normalization::ZScore`]).
    pub fn normalized(mut self, norm: Normalization) -> Self {
        self.norm = norm;
        self
    }

    /// Offer rows without an index structure the cutoff-threaded scan
    /// (the Cutoff plan) instead of materializing the dissimilarity
    /// matrix. A hint: the request's scan is Auto, so such a row still
    /// takes Exact where Exact measures cheaper. Results are
    /// byte-identical either way; only the work done changes.
    pub fn pruned(mut self, yes: bool) -> Self {
        self.pruned = yes;
        self
    }

    /// Number of neighbours to vote over (default 1 — Algorithm 1).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Wall-clock deadline: a [`Watchdog`] raises the request's cancel
    /// flag when it elapses, and `run()` reports
    /// [`EvalError::DeadlineExceeded`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// An external cancellation flag checked before every pairwise
    /// distance call (combines with [`Eval::deadline`]).
    pub fn cancelled_by(mut self, flag: &'a CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Switch to query mode: answer these series against the dataset's
    /// train split instead of classifying its test split. Queries are
    /// raw series; they are preprocessed exactly like dataset series.
    pub fn queries(mut self, queries: &'a [Vec<f64>]) -> Self {
        self.queries = Some(queries);
        self
    }

    /// Search through a caller-owned [`TrainIndex`] built over this
    /// dataset's **prepared** train split: rows the index has a structure
    /// for may skip candidates via the PAA lower-bound cascade or metric
    /// pivot bounds, everything else takes the usual scan: cutoff-threaded
    /// (in the order of the index's sample table) if
    /// [`pruned`](Eval::pruned), exact otherwise. The scan is Auto: a row
    /// takes its bounded plan unless Exact measured cheaper on this
    /// split, and the measurements live in the index's plan memory, so
    /// every request through one index shares them. Answers and
    /// accuracies are byte-identical with or without the index — it only
    /// changes how much work is done. Building the index on anything
    /// other than the prepared split the request will search violates
    /// the contract (like a wrong `assume_prepared`); a split of a
    /// *different size* is detected and ignored.
    pub fn indexed(mut self, index: &'a TrainIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Declare the dataset's series already preprocessed (the caller ran
    /// [`prepare`] and cached the result — the query service does this
    /// per shard), skipping the per-run preprocessing pass. Queries are
    /// still preprocessed. Passing an unprepared dataset here changes
    /// results; it is the caller's contract to uphold.
    pub fn assume_prepared(mut self, yes: bool) -> Self {
        self.assume_prepared = yes;
        self
    }

    /// Executes the request.
    ///
    /// Never panics for healthy inputs: misuse (no dataset, `k == 0`),
    /// shape errors, blown deadlines, non-finite distances (dataset
    /// mode), and measure faults all surface as typed [`EvalError`]s.
    pub fn run(&self) -> Result<EvalReport, EvalError> {
        let ds = self.dataset.ok_or(EvalError::NoDataset)?;
        if self.k == 0 {
            return Err(EvalError::ZeroK);
        }
        let own_flag;
        let flag = match self.cancel {
            Some(f) => f,
            None => {
                own_flag = CancelFlag::new();
                &own_flag
            }
        };
        let _watchdog = self.deadline.map(|dl| Watchdog::arm(flag, dl));
        let exec = || match self.queries {
            Some(qs) => self.run_queries(ds, qs, flag),
            None => self.run_dataset(ds, flag),
        };
        if self.deadline.is_none() && self.cancel.is_none() {
            // No cancellation source: nothing can raise the flag, so the
            // guarded wrappers never unwind and no catch is needed. A
            // measure panic propagates exactly as it always did.
            return exec();
        }
        match catch_unwind(AssertUnwindSafe(exec)) {
            Ok(result) => result,
            Err(payload) => {
                if payload.downcast_ref::<CancelPanic>().is_some() || flag.is_cancelled() {
                    Err(EvalError::DeadlineExceeded)
                } else {
                    // A genuine measure fault under an armed request:
                    // classify instead of crossing the API boundary as a
                    // panic.
                    Err(EvalError::Faulted {
                        // `&*payload`, not `&payload`: coercing the Box
                        // itself to `&dyn Any` would hide the payload.
                        message: panic_message(&*payload),
                    })
                }
            }
        }
    }

    /// The request's [`Scan`] of `train` under `d`.
    fn scan<'s>(&self, d: &'s dyn Distance, train: &'s [Vec<f64>]) -> Scan<'s>
    where
        'a: 's,
    {
        let scan = Scan::new(d, train).pruned(self.pruned).auto(true);
        match self.index {
            Some(ix) => scan.indexed(ix),
            None => scan,
        }
    }

    /// Dataset mode: the test-split accuracy.
    fn run_dataset(&self, ds: &Dataset, flag: &CancelFlag) -> Result<EvalReport, EvalError> {
        let prepared_storage;
        let prepared: &Dataset = if self.assume_prepared {
            ds
        } else {
            prepared_storage = prepare(ds, self.norm);
            &prepared_storage
        };
        check_shapes(
            prepared.test.len(),
            prepared.train.len(),
            &prepared.test_labels,
            &prepared.train_labels,
        )?;
        let accuracy = if self.k == 1 {
            let cell = distance_cell(
                self.measure,
                prepared,
                self.norm,
                flag,
                self.index,
                self.pruned,
            );
            cell.map_err(EvalError::from)?.accuracy
        } else {
            if prepared.test.is_empty() {
                return Ok(EvalReport {
                    accuracy: Some(0.0),
                    answers: Vec::new(),
                });
            }
            let rows = with_cell_measure(self.measure, self.norm, flag, &prepared.train, |d| {
                let scan = self.scan(d, &prepared.train);
                scan.top_k(Rows::Queries(&prepared.test), self.k).0
            });
            knn_vote_accuracy(&rows, &prepared.test_labels, &prepared.train_labels)
        };
        Ok(EvalReport {
            accuracy: Some(accuracy),
            answers: Vec::new(),
        })
    }

    /// Query mode: per-query answers against the prepared train split.
    fn run_queries(
        &self,
        ds: &Dataset,
        qs: &[Vec<f64>],
        flag: &CancelFlag,
    ) -> Result<EvalReport, EvalError> {
        if ds.train.is_empty() {
            return Err(EvalError::EmptyTrainSet);
        }
        let prepared_storage: Vec<Vec<f64>>;
        let train: &[Vec<f64>] = if self.assume_prepared {
            &ds.train
        } else {
            prepared_storage = ds
                .train
                .iter()
                .map(|s| preprocess_series(s, self.norm))
                .collect();
            &prepared_storage
        };
        let queries: Vec<Vec<f64>> = qs.iter().map(|s| preprocess_series(s, self.norm)).collect();
        let answers = with_cell_measure(self.measure, self.norm, flag, train, |d| {
            self.answer_rows(d, &queries, train, &ds.train_labels)
        });
        Ok(EvalReport {
            accuracy: None,
            answers,
        })
    }

    fn answer_rows(
        &self,
        d: &dyn Distance,
        queries: &[Vec<f64>],
        train: &[Vec<f64>],
        train_labels: &[Label],
    ) -> Vec<Answer> {
        let scan = self.scan(d, train);
        if self.k == 1 {
            let (nns, _) = scan.nearest(Rows::Queries(queries));
            nns.iter()
                .map(|nn| Answer {
                    index: nn.index,
                    distance: nn.distance,
                    // Algorithm 1's prediction rule: an all-non-finite row
                    // falls back to the first training label.
                    label: Some(nn.index.map_or(train_labels[0], |j| train_labels[j])),
                    neighbours: nn.index.into_iter().collect(),
                })
                .collect()
        } else {
            let (rows, _) = scan.top_k(Rows::Queries(queries), self.k);
            rows.iter()
                .map(|row| {
                    let neighbours: Vec<usize> = row.iter().map(|&(_, j)| j).collect();
                    Answer {
                        index: neighbours.first().copied(),
                        distance: row.first().map_or(f64::INFINITY, |&(v, _)| v),
                        label: majority_vote(&neighbours, train_labels),
                        neighbours,
                    }
                })
                .collect()
        }
    }
}

/// What a request produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalReport {
    /// Test-split accuracy (dataset mode; `None` in query mode).
    pub accuracy: Option<f64>,
    /// Per-query answers (query mode; empty in dataset mode).
    pub answers: Vec<Answer>,
}

/// One answered query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Answer {
    /// Index of the nearest training series (smallest index among
    /// minimizers); `None` when no candidate had a finite distance.
    pub index: Option<usize>,
    /// Distance to the nearest neighbour (`INFINITY` when `index` is
    /// `None`).
    pub distance: f64,
    /// Predicted label: Algorithm 1's rule at `k = 1` (falls back to the
    /// first training label), the majority vote for `k > 1` (`None` only
    /// when there were no neighbours at all).
    pub label: Option<Label>,
    /// The `min(k, train.len())` nearest training indices in increasing
    /// distance order.
    pub neighbours: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::prepare;
    use crate::matrices::distance_matrix;
    use tsdist_core::elastic::Dtw;
    use tsdist_core::lockstep::Euclidean;
    use tsdist_core::Workspace;
    use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};

    fn dataset() -> Dataset {
        generate_dataset(&ArchiveConfig::quick(1, 42), 0)
    }

    #[test]
    fn dataset_mode_matches_the_matrix_path() {
        let ds = dataset();
        for norm in [Normalization::ZScore, Normalization::MinMax] {
            let prepared = prepare(&ds, norm);
            let e = distance_matrix(&Euclidean, &prepared.test, &prepared.train);
            let legacy =
                crate::nn::one_nn_accuracy(&e, &prepared.test_labels, &prepared.train_labels)
                    .unwrap();
            let exact = Eval::new(&Euclidean)
                .on(&ds)
                .normalized(norm)
                .run()
                .unwrap();
            let pruned = Eval::new(&Euclidean)
                .on(&ds)
                .normalized(norm)
                .pruned(true)
                .run()
                .unwrap();
            assert_eq!(exact.accuracy.unwrap().to_bits(), legacy.to_bits());
            assert_eq!(pruned.accuracy.unwrap().to_bits(), legacy.to_bits());
        }
    }

    #[test]
    fn knn_dataset_mode_matches_the_matrix_path() {
        let ds = dataset();
        let prepared = prepare(&ds, Normalization::ZScore);
        let e = distance_matrix(&Euclidean, &prepared.test, &prepared.train);
        for k in [1, 3] {
            let expect =
                crate::knn::knn_accuracy(&e, &prepared.test_labels, &prepared.train_labels, k)
                    .unwrap();
            for pruned in [false, true] {
                let got = Eval::new(&Euclidean)
                    .on(&ds)
                    .k(k)
                    .pruned(pruned)
                    .run()
                    .unwrap();
                assert_eq!(got.accuracy.unwrap().to_bits(), expect.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn query_mode_answers_match_the_test_split_scan() {
        let ds = dataset();
        // Querying the dataset's own (raw) test series must reproduce the
        // offline evaluation's per-row winners.
        let report = Eval::new(&Dtw::with_window_pct(10.0))
            .on(&ds)
            .queries(&ds.test)
            .pruned(true)
            .run()
            .unwrap();
        assert_eq!(report.answers.len(), ds.test.len());
        let prepared = prepare(&ds, Normalization::ZScore);
        let nns = crate::scan::pruned_nn_search(
            &Dtw::with_window_pct(10.0),
            &prepared.test,
            &prepared.train,
            true,
        );
        for (a, nn) in report.answers.iter().zip(&nns) {
            assert_eq!(a.index, nn.index);
            assert_eq!(a.distance.to_bits(), nn.distance.to_bits());
            assert_eq!(
                a.label,
                Some(nn.index.map_or(ds.train_labels[0], |j| ds.train_labels[j]))
            );
        }
        // Exact and pruned query modes agree.
        let exact = Eval::new(&Dtw::with_window_pct(10.0))
            .on(&ds)
            .queries(&ds.test)
            .run()
            .unwrap();
        for (a, b) in report.answers.iter().zip(&exact.answers) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn assume_prepared_with_an_inert_index_is_byte_identical() {
        let ds = dataset();
        let baseline = Eval::new(&Euclidean)
            .on(&ds)
            .queries(&ds.test)
            .pruned(true)
            .run()
            .unwrap();
        // Pre-prepare the train split once, as a serve shard would.
        let mut prepared = prepare(&ds, Normalization::ZScore);
        prepared.test = ds.test.clone(); // raw queries, prepared train
                                         // No `prepare_measure`: every row takes the Cutoff plan, ordered
                                         // by the index's hoisted sample table.
        let index = TrainIndex::build(&prepared.train);
        let cached = Eval::new(&Euclidean)
            .on(&prepared)
            .queries(&ds.test)
            .pruned(true)
            .assume_prepared(true)
            .indexed(&index)
            .run()
            .unwrap();
        assert_eq!(baseline, cached);
    }

    #[test]
    fn knn_query_answers_vote_like_the_matrix_path() {
        let ds = dataset();
        let report = Eval::new(&Euclidean)
            .on(&ds)
            .queries(&ds.test)
            .k(3)
            .pruned(true)
            .run()
            .unwrap();
        let exact = Eval::new(&Euclidean)
            .on(&ds)
            .queries(&ds.test)
            .k(3)
            .run()
            .unwrap();
        assert_eq!(report, exact);
        for a in &report.answers {
            assert_eq!(a.neighbours.len(), 3.min(ds.n_train()));
            assert!(a.label.is_some());
        }
    }

    #[test]
    fn misuse_is_typed_not_panicking() {
        assert!(matches!(
            Eval::new(&Euclidean).run(),
            Err(EvalError::NoDataset)
        ));
        let ds = dataset();
        assert!(matches!(
            Eval::new(&Euclidean).on(&ds).k(0).run(),
            Err(EvalError::ZeroK)
        ));
    }

    #[test]
    fn deadline_is_reported_as_typed_error() {
        struct Slow;
        impl Distance for Slow {
            fn name(&self) -> String {
                "slow".into()
            }
            fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Euclidean.distance(x, y)
            }
        }
        let ds = dataset();
        let err = Eval::new(&Slow)
            .on(&ds)
            .deadline(Duration::from_millis(5))
            .run()
            .expect_err("deadline must fire");
        assert_eq!(err, EvalError::DeadlineExceeded);
    }

    #[test]
    fn cancelled_flag_short_circuits() {
        let ds = dataset();
        let flag = CancelFlag::new();
        flag.cancel();
        let err = Eval::new(&Euclidean)
            .on(&ds)
            .cancelled_by(&flag)
            .run()
            .expect_err("cancelled flag must abort");
        assert_eq!(err, EvalError::DeadlineExceeded);
    }

    #[test]
    fn measure_fault_under_armed_request_is_classified() {
        struct Boom;
        impl Distance for Boom {
            fn name(&self) -> String {
                "boom".into()
            }
            fn distance_ws(&self, _: &[f64], _: &[f64], _: &mut Workspace) -> f64 {
                panic!("injected fault")
            }
        }
        let ds = dataset();
        let err = Eval::new(&Boom)
            .on(&ds)
            .deadline(Duration::from_secs(60))
            .run()
            .expect_err("fault must surface");
        assert!(matches!(err, EvalError::Faulted { ref message } if message.contains("injected")));
    }

    /// What a per-pair brute force of `d` answers for `q` against the
    /// prepared `train`: Algorithm 1's strict `<` in natural order at
    /// `k = 1`, the `k` smallest in `(total_cmp, index)` order otherwise.
    fn brute_force(
        d: &dyn Distance,
        train: &[Vec<f64>],
        labels: &[Label],
        q: &[f64],
        k: usize,
    ) -> Answer {
        let q = preprocess_series(q, Normalization::ZScore);
        let mut row: Vec<(f64, usize)> = train
            .iter()
            .enumerate()
            .map(|(j, y)| (d.distance(&q, y), j))
            .collect();
        if k == 1 {
            let (mut best, mut index) = (f64::INFINITY, None);
            for &(v, j) in &row {
                if v < best {
                    (best, index) = (v, Some(j));
                }
            }
            return Answer {
                index,
                distance: best,
                label: Some(index.map_or(labels[0], |j| labels[j])),
                neighbours: index.into_iter().collect(),
            };
        }
        row.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        row.truncate(k);
        let neighbours: Vec<usize> = row.iter().map(|&(_, j)| j).collect();
        Answer {
            index: neighbours.first().copied(),
            distance: row.first().map_or(f64::INFINITY, |&(v, _)| v),
            label: majority_vote(&neighbours, labels),
            neighbours,
        }
    }

    #[test]
    fn served_kernel_answers_equal_a_per_pair_brute_force_bit_for_bit() {
        use tsdist_core::kernel::{Gak, Kdtw, Rbf, Sink};
        use tsdist_core::measure::KernelDistance;
        use tsdist_core::params::unsupervised as u;
        let ds = dataset();
        let pool: Vec<(Vec<f64>, Label)> = ds
            .train
            .iter()
            .cloned()
            .zip(ds.train_labels.iter().copied())
            .chain(ds.test.iter().cloned().zip(ds.test_labels.iter().copied()))
            .collect();
        assert!(pool.len() >= 17 + 3, "the pool covers the largest split");
        let nan_series = |s: &[f64]| {
            let mut s = s.to_vec();
            let mid = s.len() / 2;
            s[mid] = f64::NAN;
            s
        };
        // Queries: two of the split's length, two of another length, and
        // one with a NaN sample.
        let tail = &pool[pool.len() - 3..];
        let mut queries = vec![tail[0].0.clone(), tail[1].0.clone()];
        queries.push(tail[2].0[..tail[2].0.len() - 5].to_vec());
        queries.push([&tail[0].0[..], &tail[1].0[..7]].concat());
        queries.push(nan_series(&tail[2].0));
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(KernelDistance(Gak::new(u::GAK_GAMMA))),
            Box::new(KernelDistance(Kdtw::new(u::KDTW_GAMMA))),
            Box::new(KernelDistance(Sink::new(u::SINK_GAMMA))),
            Box::new(KernelDistance(Rbf::new(u::RBF_GAMMA))),
        ];
        // Train sizes at the edges of a chunk of `LANES` columns.
        for n in [1, 8, 9, 17] {
            let mut train: Vec<Vec<f64>> = pool[..n].iter().map(|(s, _)| s.clone()).collect();
            if n > 1 {
                train[n / 2] = nan_series(&train[n / 2]);
            }
            let labels: Vec<Label> = pool[..n].iter().map(|&(_, l)| l).collect();
            let prepared: Vec<Vec<f64>> = train
                .iter()
                .map(|s| preprocess_series(s, Normalization::ZScore))
                .collect();
            let served = Dataset {
                name: format!("served-{n}"),
                train,
                train_labels: labels.clone(),
                test: Vec::new(),
                test_labels: Vec::new(),
            };
            for (d, k, pruned) in measures
                .iter()
                .flat_map(|d| [(d, 1, false), (d, 3, false), (d, 1, true)])
            {
                let report = Eval::new(d.as_ref())
                    .on(&served)
                    .queries(&queries)
                    .k(k)
                    .pruned(pruned)
                    .run()
                    .unwrap();
                for (q, (got, query)) in report.answers.iter().zip(&queries).enumerate() {
                    let want = brute_force(d.as_ref(), &prepared, &labels, query, k);
                    let at = format!("{} n={n} k={k} pruned={pruned} query {q}", d.name());
                    assert_eq!(got.distance.to_bits(), want.distance.to_bits(), "{at}");
                    assert_eq!(
                        (got.index, got.label, &got.neighbours),
                        (want.index, want.label, &want.neighbours),
                        "{at}"
                    );
                }
            }
        }
    }
}
