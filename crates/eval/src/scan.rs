//! The nearest-neighbour scan engine: every 1-NN and k-NN search of the
//! platform — Algorithm 1 on a test split, leave-one-out tuning, served
//! queries — is one [`Scan`].
//!
//! # Four plans
//!
//! Each row is searched under one plan, chosen by one rule: a row takes
//! [`Cascade`](QueryPlan::Cascade) or [`Pivots`](QueryPlan::Pivots) when
//! the supplied [`TrainIndex`] has a structure for it
//! ([`TrainIndex::plan`]); otherwise it takes **Cutoff** if the scan is
//! pruned and **Exact** if it is not.
//!
//! * **Exact**: the row of distances from the measure's
//!   [`Distance::distance_row_ws`] kernel, the one the dissimilarity
//!   matrices use, read in natural order. A scan with neither an index
//!   nor pruning builds all its rows as one [`distance_matrix`] call,
//!   exactly the study's `E`.
//! * **Cutoff**: candidates in cheap-score order
//!   ([`tsdist_core::index::cheap_score`]), each computed by
//!   [`Distance::distance_upto`] under the incumbent's cutoff.
//! * **Cascade** (plain banded DTW): candidates in ascending `LB_PAA`
//!   order; a candidate is skipped when its stored (deflated) `LB_PAA`
//!   reaches the cutoff, then when the cached `LB_Keogh` walk reaches the
//!   inflated threshold; survivors run `distance_upto`. The order is
//!   sorted, so the first `LB_PAA` skip in the sorted region ends the row.
//! * **Pivots** (declared-metric measures): the pivots are visited first
//!   with exact distances, which both seed the incumbent and give the
//!   query-to-pivot distances of the reverse-triangle bound; the rest are
//!   visited in ascending bound order under the same skip rule.
//!
//! # Two incumbents
//!
//! Every plan is written once, generic over the row's incumbent:
//! `Nearest` (Algorithm 1) or `TopK` (the k-NN selection).
//!
//! * Cutoffs are [`f64::next_up`] of the incumbent's worst kept distance,
//!   so a candidate *tying* it still computes exactly and can win on
//!   index.
//! * Algorithm 1's strict-`<` scan in natural order keeps the smallest
//!   index among minimizers; `Nearest` keeps it in any visiting order
//!   with `d < best || (d == best && j < best_j)`. `TopK` keeps the `k`
//!   smallest pairs under `(total_cmp, index)`, which is the order the
//!   matrix-backed [`crate::knn::knn_accuracy`] selects in.
//! * A non-finite value never displaces a finite incumbent.
//!
//! A candidate is only skipped when a provable lower bound on its
//! distance reaches the cutoff; then it can neither win nor tie. So each
//! row's result is the same for every plan, visiting order, chunking and
//! warm start (seeding a row with the previous row's winners): those
//! change only how fast the cutoff tightens.
//!
//! Floating-point safety: `LB_PAA` values are stored pre-deflated
//! ([`tsdist_core::index::LB_DEFLATE`]); the `LB_Keogh` tier instead
//! inflates the threshold by [`KEOGH_INFLATE`]. The early-abandoning
//! walk's partial sums are monotone, so `lb_keogh_upto(...) >= thresh`
//! proves the *computed* full bound reaches `thresh`, and the `1e-8`
//! inflation strictly dominates the sum's `~1e-9` relative error, so the
//! *true* bound (and hence the true DTW) still reaches the cutoff.
//!
//! Symmetric train-by-train matrices feeding the Wilcoxon/Friedman
//! statistics must **not** use cutoffs: a cutoff admissible for one row's
//! argmin truncates values the rank statistics still need. See the
//! "Early abandoning" section of `DESIGN.md`.

use crate::error::EvalError;
use crate::knn::majority_vote;
use crate::matrices::distance_matrix;
use crate::nn::check_shapes;
use crate::parallel::{parallel_map, worker_count};
use tsdist_core::elastic::lb_keogh_upto;
use tsdist_core::index::{cheap_score, paa_means, DtwBandIndex, PivotTable};
use tsdist_core::measure::Distance;
use tsdist_core::{QueryPlan, TrainIndex, Workspace};
use tsdist_data::Label;

/// Relative inflation of the cutoff before the cached `LB_Keogh` tier
/// compares against it: skipping requires the computed bound to reach
/// `cutoff * KEOGH_INFLATE`, which (being far above the bound's own
/// relative summation error) guarantees the true bound reaches `cutoff`.
pub const KEOGH_INFLATE: f64 = 1.0 + 1e-8;

/// Result of one nearest-neighbour row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NearestNeighbour {
    /// Index of the nearest training series — the smallest index among
    /// minimizers, `None` when no candidate had a finite distance (or the
    /// training set was empty).
    pub index: Option<usize>,
    /// The (exact) distance to that neighbour; `f64::INFINITY` when
    /// `index` is `None`.
    pub distance: f64,
    /// First candidate whose *exactly computed* distance came out
    /// non-finite, if any. Under the Exact plan that is the row's first
    /// non-finite entry. Elsewhere it is a best-effort screen: candidates
    /// abandoned under a finite cutoff or skipped by a bound are not
    /// inspectable, so a `None` there does not prove the row is finite.
    pub non_finite: Option<usize>,
}

/// Work counters of a scan — the evidence that the index tier actually
/// prunes (and the `bench_scan` ledger's counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexedStats {
    /// Query rows answered.
    pub rows: u64,
    /// Candidate pairs considered (self-exclusions already removed).
    pub candidates: u64,
    /// Candidates that reached a distance computation.
    pub examined: u64,
    /// Candidates skipped by the stored `LB_PAA` tier.
    pub paa_skipped: u64,
    /// Candidates skipped by the cached `LB_Keogh` tier.
    pub keogh_skipped: u64,
    /// Candidates skipped by the reverse-triangle pivot bound.
    pub pivot_skipped: u64,
    /// Rows without an index structure (Exact or Cutoff plan).
    pub fallback_rows: u64,
}

impl IndexedStats {
    /// Fraction of candidates that reached a distance computation.
    pub fn examined_fraction(&self) -> f64 {
        self.examined as f64 / self.candidates.max(1) as f64
    }

    fn absorb(&mut self, o: &IndexedStats) {
        self.rows += o.rows;
        self.candidates += o.candidates;
        self.examined += o.examined;
        self.paa_skipped += o.paa_skipped;
        self.keogh_skipped += o.keogh_skipped;
        self.pivot_skipped += o.pivot_skipped;
        self.fallback_rows += o.fallback_rows;
    }
}

/// The rows a [`Scan`] answers.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Each query against the whole train split.
    Queries(&'a [Vec<f64>]),
    /// Each train series against the rest of the split: row `i` skips
    /// candidate `i`.
    LeaveOneOut,
}

/// One nearest-neighbour search over a train split. The plan inputs are
/// the index ([`Scan::indexed`]) and whether the scan is pruned
/// ([`Scan::pruned`]); see the module docs for the plan rule.
#[derive(Clone, Copy)]
pub struct Scan<'a> {
    measure: &'a dyn Distance,
    train: &'a [Vec<f64>],
    index: Option<&'a TrainIndex>,
    pruned: bool,
    warm_start: bool,
}

impl<'a> Scan<'a> {
    /// An unpruned, unindexed scan of `train` under `measure`, warm
    /// start on.
    pub fn new(measure: &'a dyn Distance, train: &'a [Vec<f64>]) -> Self {
        Scan {
            measure,
            train,
            index: None,
            pruned: false,
            warm_start: true,
        }
    }

    /// Rows without an index structure thread cutoffs (Cutoff plan)
    /// instead of computing the full row (Exact plan).
    pub fn pruned(mut self, yes: bool) -> Self {
        self.pruned = yes;
        self
    }

    /// Whether each row first visits the previous row's winners (never
    /// changes a result).
    pub fn warm_start(mut self, yes: bool) -> Self {
        self.warm_start = yes;
        self
    }

    /// Plans rows through `index`, which must be built over this train
    /// split. An index over a split of another size is ignored.
    pub fn indexed(mut self, index: &'a TrainIndex) -> Self {
        self.index = (index.len() == self.train.len()).then_some(index);
        self
    }

    /// The nearest neighbour of every row, by Algorithm 1's rule.
    pub fn nearest(&self, rows: Rows<'_>) -> (Vec<NearestNeighbour>, IndexedStats) {
        self.drive(rows, Nearest::new)
    }

    /// The `min(k, train.len())` nearest `(distance, index)` pairs of
    /// every row in `(total_cmp, index)` order.
    pub fn top_k(&self, rows: Rows<'_>, k: usize) -> (Vec<Vec<(f64, usize)>>, IndexedStats) {
        let k = k.min(self.train.len());
        if k == 0 {
            let n = match rows {
                Rows::Queries(q) => q.len(),
                Rows::LeaveOneOut => self.train.len(),
            };
            return (vec![Vec::new(); n], IndexedStats::default());
        }
        self.drive(rows, || TopK {
            k,
            heap: Vec::with_capacity(k + 1),
        })
    }

    /// The one driver: rows in parallel chunks, each row planned and
    /// searched with a fresh incumbent.
    fn drive<I: Incumbent>(
        &self,
        rows: Rows<'_>,
        incumbent: impl Fn() -> I + Sync,
    ) -> (Vec<I::Output>, IndexedStats) {
        let (queries, leave_one_out) = match rows {
            Rows::Queries(q) => (q, false),
            Rows::LeaveOneOut => (self.train, true),
        };
        let n = queries.len();
        if n == 0 {
            return (Vec::new(), IndexedStats::default());
        }
        // Every row of an unindexed, unpruned scan is Exact: build them
        // all as one matrix, the study's `E`, and scan it on this thread.
        let matrix = (self.index.is_none() && !self.pruned)
            .then(|| distance_matrix(self.measure, queries, self.train));
        let chunk = |(lo, hi): (usize, usize)| {
            let mut s = Scratch::default();
            let mut inc = incumbent();
            let mut stats = IndexedStats::default();
            let mut out = Vec::with_capacity(hi - lo);
            for (i, x) in queries.iter().enumerate().take(hi).skip(lo) {
                let skip = if leave_one_out { i } else { usize::MAX };
                let exact_row = matrix.as_ref().map(|e| e.row(i));
                self.row(x, skip, exact_row, &mut inc, &mut s, &mut stats);
                if self.warm_start {
                    inc.seeds(&mut s.seeds);
                }
                out.push(inc.finish());
            }
            (out, stats)
        };
        let per_chunk = if matrix.is_some() {
            vec![chunk((0, n))]
        } else {
            let spans = chunk_spans(n);
            parallel_map(spans.len(), |c| chunk(spans[c]))
        };
        let mut stats = IndexedStats::default();
        let mut rows = Vec::with_capacity(n);
        for (chunk, chunk_stats) in per_chunk {
            rows.extend(chunk);
            stats.absorb(&chunk_stats);
        }
        (rows, stats)
    }

    /// Searches one row under its plan, leaving the result in `inc`.
    fn row<I: Incumbent>(
        &self,
        x: &[f64],
        skip: usize,
        exact_row: Option<&[f64]>,
        inc: &mut I,
        s: &mut Scratch,
        stats: &mut IndexedStats,
    ) {
        let (d, train) = (self.measure, self.train);
        inc.reset();
        let candidates = (train.len() - usize::from(skip < train.len())) as u64;
        stats.rows += 1;
        stats.candidates += candidates;
        let (plan, bounds) = match self.index {
            Some(ix) => (ix.plan(d, x), ix.bounds()),
            None => (QueryPlan::Linear, &[][..]),
        };
        let tier = match plan {
            QueryPlan::Linear if !self.pruned => {
                stats.fallback_rows += 1;
                stats.examined += candidates;
                let row = match exact_row {
                    Some(row) => row,
                    None => {
                        s.row.resize(train.len(), 0.0);
                        d.distance_row_ws(x, train, &mut s.row, &mut s.ws);
                        &s.row
                    }
                };
                for (j, &v) in row.iter().enumerate() {
                    if j != skip {
                        inc.offer(v, j, true);
                    }
                }
                return;
            }
            QueryPlan::Linear => {
                stats.fallback_rows += 1;
                s.order_by_cheap_score(x, train, self.index, skip);
                Tier::Cutoff
            }
            QueryPlan::Cascade(bix) => {
                paa_means(x, bounds, &mut s.qmeans);
                s.lbs.clear();
                s.lbs
                    .extend((0..train.len()).map(|j| bix.lb_paa(&s.qmeans, bounds, j)));
                s.order.clear();
                s.order.extend((0..train.len()).filter(|&j| j != skip));
                Tier::Cascade(bix)
            }
            QueryPlan::Pivots(table) => {
                stats.examined += s.visit_pivots(d, x, train, table, skip, inc);
                Tier::Pivots
            }
        };
        s.visit(d, x, train, tier, inc, stats);
    }
}

/// The bound tiers of a row's candidate visit.
#[derive(Clone, Copy)]
enum Tier<'a> {
    /// No bounds: every candidate runs `distance_upto`.
    Cutoff,
    /// `LB_PAA` in `lbs`, then the cached `LB_Keogh` of clean candidates.
    Cascade(&'a DtwBandIndex),
    /// The reverse-triangle pivot bound in `lbs`.
    Pivots,
}

/// The per-row search state of a plan: Algorithm 1's incumbent or the
/// top-k selection. Both the update rule and the cutoff live here, once.
trait Incumbent {
    /// What a finished row reports.
    type Output: Send;
    /// Starts a new row.
    fn reset(&mut self);
    /// The cutoff a candidate's distance is computed under: a candidate
    /// reaching it can neither enter nor tie the kept set.
    fn cutoff(&self) -> f64;
    /// Offers candidate `j` at distance `v`; `exact` when `v` was
    /// computed under no finite cutoff (so a non-finite `v` is the
    /// measure's own).
    fn offer(&mut self, v: f64, j: usize, exact: bool);
    /// The finished row.
    fn finish(&self) -> Self::Output;
    /// Replaces `seeds` with the row's winners, nearest first, when it
    /// found a full set (the next row's warm start).
    fn seeds(&self, seeds: &mut Vec<usize>);
}

/// Algorithm 1's incumbent: smallest index among minimizers; a
/// non-finite value never displaces; the first exactly computed
/// non-finite candidate is remembered.
struct Nearest {
    best: f64,
    best_j: Option<usize>,
    non_finite: Option<usize>,
}

impl Nearest {
    fn new() -> Self {
        Nearest {
            best: f64::INFINITY,
            best_j: None,
            non_finite: None,
        }
    }
}

impl Incumbent for Nearest {
    type Output = NearestNeighbour;

    fn reset(&mut self) {
        *self = Nearest::new();
    }

    fn cutoff(&self) -> f64 {
        self.best.next_up()
    }

    fn offer(&mut self, v: f64, j: usize, exact: bool) {
        // NaN is never a legal abandonment signal, so it is the
        // measure's own under any cutoff.
        if self.non_finite.is_none() && (v.is_nan() || (exact && !v.is_finite())) {
            self.non_finite = Some(j);
        }
        if v < self.best || (v == self.best && self.best_j.is_some_and(|b| j < b)) {
            self.best = v;
            self.best_j = Some(j);
        }
    }

    fn finish(&self) -> NearestNeighbour {
        NearestNeighbour {
            index: self.best_j,
            distance: self.best,
            non_finite: self.non_finite,
        }
    }

    fn seeds(&self, seeds: &mut Vec<usize>) {
        if let Some(j) = self.best_j {
            seeds.clear();
            seeds.push(j);
        }
    }
}

/// The k-NN selection: the `k >= 1` smallest `(distance, index)` pairs
/// under `(total_cmp, index)`, kept sorted.
struct TopK {
    k: usize,
    heap: Vec<(f64, usize)>,
}

impl Incumbent for TopK {
    type Output = Vec<(f64, usize)>;

    fn reset(&mut self) {
        self.heap.clear();
    }

    fn cutoff(&self) -> f64 {
        match self.heap.get(self.k - 1) {
            // `total_cmp` sorts NaN and +inf last; `next_up` of either is
            // non-finite, which `distance_upto` treats as "no cutoff", so
            // a degenerate k-th neighbour keeps the scan exact.
            Some(&(kv, _)) => kv.next_up(),
            None => f64::INFINITY,
        }
    }

    fn offer(&mut self, v: f64, j: usize, _exact: bool) {
        if let Some(&(kv, kj)) = self.heap.get(self.k - 1) {
            if kv.total_cmp(&v).then(kj.cmp(&j)).is_le() {
                return;
            }
        }
        let pos = self
            .heap
            .partition_point(|&(hv, hj)| hv.total_cmp(&v).then(hj.cmp(&j)).is_lt());
        self.heap.insert(pos, (v, j));
        self.heap.truncate(self.k);
    }

    fn finish(&self) -> Vec<(f64, usize)> {
        self.heap.clone()
    }

    fn seeds(&self, seeds: &mut Vec<usize>) {
        if self.heap.len() == self.k {
            seeds.clear();
            seeds.extend(self.heap.iter().map(|&(_, j)| j));
        }
    }
}

/// Per-chunk scratch reused across rows.
#[derive(Default)]
struct Scratch {
    ws: Workspace,
    row: Vec<f64>,
    qmeans: Vec<f64>,
    lbs: Vec<f64>,
    order: Vec<usize>,
    scores: Vec<f64>,
    qsamples: Vec<f64>,
    qd: Vec<f64>,
    is_pivot: Vec<bool>,
    seeds: Vec<usize>,
}

impl Scratch {
    /// Fills `order` with every candidate but `skip`, sorted by the cheap
    /// first-pass score (ties by index). Scores come from the index's
    /// hoisted sample table when it has one for `x` (bit-identical, so
    /// the order is too).
    fn order_by_cheap_score(
        &mut self,
        x: &[f64],
        train: &[Vec<f64>],
        index: Option<&TrainIndex>,
        skip: usize,
    ) {
        let hoisted =
            index.is_some_and(|ix| ix.cheap_scores(x, &mut self.qsamples, &mut self.scores));
        if !hoisted {
            self.scores.clear();
            self.scores.extend(train.iter().map(|t| cheap_score(x, t)));
        }
        let scores = self.scores.as_slice();
        self.order.clear();
        self.order.extend((0..train.len()).filter(|&j| j != skip));
        self.order
            .sort_unstable_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    }

    /// The Pivots plan's first phase: every pivot is computed exactly,
    /// offered to `inc` (unless it is `skip`) and kept for the
    /// reverse-triangle bound; `lbs`/`order` then hold every other
    /// candidate and its bound. Returns the number of pivots offered.
    fn visit_pivots<I: Incumbent>(
        &mut self,
        d: &dyn Distance,
        x: &[f64],
        train: &[Vec<f64>],
        table: &PivotTable,
        skip: usize,
        inc: &mut I,
    ) -> u64 {
        let mut offered = 0;
        self.qd.clear();
        self.is_pivot.clear();
        self.is_pivot.resize(train.len(), false);
        for &p in table.pivots() {
            self.is_pivot[p] = true;
            let v = d.distance_ws(x, &train[p], &mut self.ws);
            self.qd.push(v);
            if p != skip {
                offered += 1;
                inc.offer(v, p, true);
            }
        }
        self.lbs.clear();
        self.lbs.resize(train.len(), 0.0);
        self.order.clear();
        for j in 0..train.len() {
            if j != skip && !self.is_pivot[j] {
                self.lbs[j] = table.lower_bound(&self.qd, j);
                self.order.push(j);
            }
        }
        offered
    }

    /// The candidate visit shared by the Cutoff, Cascade and Pivots
    /// plans. Bounded tiers first sort `order` by `lbs`; the warm-start
    /// seeds then go first, nearest first. A candidate whose bound
    /// reaches the cutoff is skipped; in the sorted region that skip ends
    /// the row, since every later bound is at least as large.
    fn visit<I: Incumbent>(
        &mut self,
        d: &dyn Distance,
        x: &[f64],
        train: &[Vec<f64>],
        tier: Tier<'_>,
        inc: &mut I,
        stats: &mut IndexedStats,
    ) {
        let bounded = !matches!(tier, Tier::Cutoff);
        let lbs = self.lbs.as_slice();
        if bounded {
            self.order
                .sort_unstable_by(|&a, &b| lbs[a].total_cmp(&lbs[b]).then(a.cmp(&b)));
        }
        let mut sorted_from = 0;
        for &p in self.seeds.iter().rev() {
            sorted_from += usize::from(promote(&mut self.order, p));
        }
        let mut lb_skipped = 0;
        for (pos, &j) in self.order.iter().enumerate() {
            let cutoff = inc.cutoff();
            if bounded && cutoff.is_finite() && cutoff > 0.0 {
                if lbs[j] >= cutoff {
                    if pos >= sorted_from {
                        lb_skipped += (self.order.len() - pos) as u64;
                        break;
                    }
                    lb_skipped += 1;
                    continue;
                }
                if let Tier::Cascade(bix) = tier {
                    if bix.is_clean(j) {
                        let (upper, lower) = bix.envelope(j);
                        let thresh = cutoff * KEOGH_INFLATE;
                        if lb_keogh_upto(x, upper, lower, thresh) >= thresh {
                            stats.keogh_skipped += 1;
                            continue;
                        }
                    }
                }
            }
            stats.examined += 1;
            let v = d.distance_upto(x, &train[j], &mut self.ws, cutoff);
            inc.offer(v, j, cutoff.is_nan() || cutoff == f64::INFINITY);
        }
        match tier {
            Tier::Cutoff => {}
            Tier::Cascade(_) => stats.paa_skipped += lb_skipped,
            Tier::Pivots => stats.pivot_skipped += lb_skipped,
        }
    }
}

/// Moves candidate `front` to the head of `order`, preserving the
/// relative order of everything else (the warm-start hook). Returns
/// whether the candidate was present.
fn promote(order: &mut [usize], front: usize) -> bool {
    if let Some(pos) = order.iter().position(|&j| j == front) {
        order[..=pos].rotate_right(1);
        true
    } else {
        false
    }
}

/// Splits `0..n` into one contiguous span per worker. Chunk boundaries
/// affect only where warm-start chains reset, never any row's result.
fn chunk_spans(n: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(worker_count().max(1)).max(1);
    (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect()
}

/// Algorithm 1's accuracy from a batch of row results: `predicted`
/// starts at the first training label, which an all-non-finite row never
/// overwrites. An empty test split gives NaN, like
/// [`crate::nn::one_nn_accuracy`]; a row count that disagrees with the
/// test labels, an empty train split, or a neighbour index without a
/// training label is a typed error.
pub fn one_nn_vote_accuracy(
    nns: &[NearestNeighbour],
    test_labels: &[Label],
    train_labels: &[Label],
) -> Result<f64, EvalError> {
    check_shapes(nns.len(), train_labels.len(), test_labels, train_labels)?;
    let mut correct = 0usize;
    for (nn, &truth) in nns.iter().zip(test_labels) {
        let j = nn.index.unwrap_or(0);
        let predicted = *train_labels.get(j).ok_or(EvalError::ShapeMismatch {
            what: "neighbour index/train label count",
            expected: train_labels.len(),
            got: j + 1,
        })?;
        if predicted == truth {
            correct += 1;
        }
    }
    Ok(correct as f64 / test_labels.len() as f64)
}

/// The majority-vote accuracy over per-row k-NN results.
pub(crate) fn knn_vote_accuracy(
    rows: &[Vec<(f64, usize)>],
    test_labels: &[Label],
    train_labels: &[Label],
) -> f64 {
    let mut neighbours: Vec<usize> = Vec::new();
    let correct = rows
        .iter()
        .zip(test_labels)
        .filter(|(row, &truth)| {
            neighbours.clear();
            neighbours.extend(row.iter().map(|&(_, j)| j));
            majority_vote(&neighbours, train_labels) == Some(truth)
        })
        .count();
    correct as f64 / rows.len().max(1) as f64
}

/// Cutoff-threaded 1-NN search of every `test` row against `train`.
pub fn pruned_nn_search(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    warm_start: bool,
) -> Vec<NearestNeighbour> {
    let scan = Scan::new(d, train).pruned(true).warm_start(warm_start);
    scan.nearest(Rows::Queries(test)).0
}

/// Indexed 1-NN search of every `test` row against `train`, with the
/// work counters: rows with an index structure skip candidates by lower
/// bounds, the rest take the Cutoff plan.
pub fn indexed_nn_search_stats(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    ix: &TrainIndex,
    warm_start: bool,
) -> (Vec<NearestNeighbour>, IndexedStats) {
    let scan = Scan::new(d, train).pruned(true).indexed(ix);
    scan.warm_start(warm_start).nearest(Rows::Queries(test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CancelFlag;
    use crate::evaluator::{distance_cell, prepare};
    use crate::knn::knn_accuracy;
    use crate::nn::{loocv_accuracy, one_nn_accuracy};
    use crate::request::Eval;
    use crate::{CellError, EvalError};
    use tsdist_core::elastic::{Dtw, Msm};
    use tsdist_core::lockstep::{Canberra, Euclidean, SquaredEuclidean};
    use tsdist_core::normalization::Normalization;
    use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
    use tsdist_data::Dataset;
    use tsdist_linalg::Matrix;

    fn toy(n: usize, m: usize, off: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| ((i * m + j) as f64 * 0.7).sin() + off)
                    .collect()
            })
            .collect()
    }

    /// A pruned scan of `train`; `.indexed(ix)` on it gives the indexed
    /// search with the same warm-start setting.
    fn cut<'a>(d: &'a dyn Distance, train: &'a [Vec<f64>], warm: bool) -> Scan<'a> {
        Scan::new(d, train).pruned(true).warm_start(warm)
    }

    const LOO: Rows<'static> = Rows::LeaveOneOut;

    fn labels(n: usize) -> Vec<Label> {
        (0..n).map(|i| i % 3).collect()
    }

    fn prepared_index(d: &dyn Distance, train: &[Vec<f64>]) -> TrainIndex {
        let mut ix = TrainIndex::build(train);
        ix.prepare_measure(d, train);
        ix
    }

    /// Well-separated clusters: candidates from foreign clusters sit far
    /// outside each other's envelopes, so the bound tiers have something
    /// to prune.
    fn clustered(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let off = (i % 4) as f64 * 4.0;
                (0..m).map(|j| ((i + j) as f64 * 0.7).sin() + off).collect()
            })
            .collect()
    }

    /// LOOCV accuracy from leave-one-out rows: an all-non-finite row
    /// predicts nothing and counts as incorrect.
    fn loocv_vote(nns: &[NearestNeighbour], train_labels: &[Label]) -> f64 {
        let correct = nns
            .iter()
            .zip(train_labels)
            .filter(|(nn, &truth)| nn.index.map(|j| train_labels[j]) == Some(truth))
            .count();
        correct as f64 / train_labels.len() as f64
    }

    #[test]
    fn one_nn_matches_matrix_path() {
        let train = toy(12, 40, 0.0);
        let test = toy(9, 40, 0.25);
        let (trl, tel) = (labels(12), labels(9));
        let d = Dtw::with_window_pct(10.0);
        let e = distance_matrix(&d, &test, &train);
        let exact = one_nn_accuracy(&e, &tel, &trl).unwrap();
        for warm in [false, true] {
            let nns = pruned_nn_search(&d, &test, &train, warm);
            let pruned = one_nn_vote_accuracy(&nns, &tel, &trl).unwrap();
            assert_eq!(pruned.to_bits(), exact.to_bits(), "warm_start={warm}");
        }
    }

    #[test]
    fn nn_indices_break_ties_to_first() {
        // Two identical training series: index 0 must win under any
        // candidate order, exactly like Algorithm 1's strict `<`.
        let s = vec![1.0, 2.0, 3.0, 4.0];
        let train = vec![s.clone(), s.clone()];
        let test = vec![s.clone()];
        let nns = pruned_nn_search(&Euclidean, &test, &train, true);
        assert_eq!(nns[0].index, Some(0));
        assert_eq!(nns[0].distance, 0.0);
    }

    #[test]
    fn loocv_matches_full_matrix_path() {
        let train = toy(14, 32, 0.0);
        let trl = labels(14);
        let d = Msm::new(0.5);
        // Full (non-mirrored) matrix: every cell computed directly.
        let w = Matrix::from_fn(14, 14, |i, j| d.distance(&train[i], &train[j]));
        let exact = loocv_accuracy(&w, &trl).unwrap();
        for warm in [false, true] {
            let pruned = loocv_vote(&cut(&d, &train, warm).nearest(LOO).0, &trl);
            assert_eq!(pruned.to_bits(), exact.to_bits(), "warm_start={warm}");
        }
    }

    #[test]
    fn knn_matches_matrix_path() {
        let train = toy(15, 28, 0.0);
        let test = toy(8, 28, 0.4);
        let (trl, tel) = (labels(15), labels(8));
        let d = Dtw::with_window_pct(10.0);
        let e = distance_matrix(&d, &test, &train);
        for k in [1, 3, 5, 99] {
            let exact = knn_accuracy(&e, &tel, &trl, k).unwrap();
            for warm in [false, true] {
                let rows = cut(&d, &train, warm).top_k(Rows::Queries(&test), k).0;
                let pruned = knn_vote_accuracy(&rows, &tel, &trl);
                assert_eq!(pruned.to_bits(), exact.to_bits(), "k={k} warm={warm}");
            }
        }
    }

    #[test]
    fn non_finite_candidates_never_win_and_are_reported() {
        struct Poison;
        impl Distance for Poison {
            fn name(&self) -> String {
                "poison".into()
            }
            fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
                if y[0] < 0.0 {
                    f64::NAN
                } else {
                    Euclidean.distance(x, y)
                }
            }
        }
        let train = vec![vec![-1.0, 0.0], vec![5.0, 5.0]];
        let test = vec![vec![5.0, 5.0]];
        let nns = pruned_nn_search(&Poison, &test, &train, false);
        assert_eq!(nns[0].index, Some(1));
        assert_eq!(nns[0].non_finite, Some(0));
    }

    #[test]
    fn all_non_finite_rows_predict_like_algorithm_1() {
        struct AlwaysNan;
        impl Distance for AlwaysNan {
            fn name(&self) -> String {
                "nan".into()
            }
            fn distance_ws(&self, _: &[f64], _: &[f64], _: &mut Workspace) -> f64 {
                f64::NAN
            }
        }
        let train = toy(3, 4, 0.0);
        let test = toy(2, 4, 0.0);
        // Algorithm 1 falls back to the first training label.
        let nns = pruned_nn_search(&AlwaysNan, &test, &train, false);
        let acc = one_nn_vote_accuracy(&nns, &[0, 1], &labels(3)).unwrap();
        let e = distance_matrix(&AlwaysNan, &test, &train);
        let exact = one_nn_accuracy(&e, &[0, 1], &labels(3)).unwrap();
        assert_eq!(acc.to_bits(), exact.to_bits());
        // LOOCV predicts None instead: nothing is correct.
        let loocv = cut(&AlwaysNan, &train, true).nearest(LOO).0;
        assert_eq!(loocv_vote(&loocv, &labels(3)), 0.0);
    }

    #[test]
    fn typed_errors_mirror_the_matrix_entry_points() {
        let flag = CancelFlag::new();
        let cell = |ds: &Dataset, pruned: bool| {
            distance_cell(
                &Euclidean,
                ds,
                Normalization::ZScore,
                &flag,
                None,
                pruned,
                true,
            )
        };
        let mismatched = Dataset {
            name: "mismatched".into(),
            train: toy(3, 4, 0.0),
            train_labels: labels(3),
            test: Vec::new(),
            test_labels: vec![0],
        };
        let empty = Dataset {
            name: "empty".into(),
            train: Vec::new(),
            train_labels: Vec::new(),
            test: Vec::new(),
            test_labels: Vec::new(),
        };
        for pruned in [false, true] {
            assert!(matches!(
                cell(&mismatched, pruned),
                Err(CellError::Eval(EvalError::ShapeMismatch { .. }))
            ));
            assert_eq!(
                cell(&empty, pruned),
                Err(CellError::Eval(EvalError::EmptyTrainSet))
            );
        }
        let err = Eval::new(&Euclidean)
            .on(&mismatched)
            .k(0)
            .pruned(true)
            .run();
        assert_eq!(err, Err(EvalError::ZeroK));
    }

    #[test]
    fn hoisted_candidate_order_reproduces_unindexed_results() {
        // An index without `prepare_measure` has no structure for any
        // row: its only effect is the hoisted cheap-score table.
        let train = toy(12, 40, 0.0);
        let test = toy(9, 40, 0.25);
        let d = Dtw::with_window_pct(10.0);
        let ix = TrainIndex::build(&train);
        for warm in [false, true] {
            let (nns, stats) = indexed_nn_search_stats(&d, &test, &train, &ix, warm);
            assert_eq!(nns, pruned_nn_search(&d, &test, &train, warm));
            assert_eq!(stats.fallback_rows, stats.rows);
            let (exact, q) = (cut(&d, &train, warm), Rows::Queries(&test));
            assert_eq!(exact.indexed(&ix).top_k(q, 3).0, exact.top_k(q, 3).0);
        }
    }

    #[test]
    fn knn_search_rows_match_matrix_selection() {
        let train = toy(10, 24, 0.0);
        let test = toy(4, 24, 0.3);
        let d = Msm::new(0.5);
        let e = distance_matrix(&d, &test, &train);
        let rows = cut(&d, &train, true).top_k(Rows::Queries(&test), 3).0;
        for (i, row) in rows.iter().enumerate() {
            // The matrix-backed selection order: (total_cmp, index).
            let mut idx: Vec<usize> = (0..train.len()).collect();
            idx.sort_unstable_by(|&a, &b| e[(i, a)].total_cmp(&e[(i, b)]).then(a.cmp(&b)));
            let expect: Vec<(f64, usize)> = idx[..3].iter().map(|&j| (e[(i, j)], j)).collect();
            assert_eq!(row, &expect, "row {i}");
        }
    }

    #[test]
    fn single_series_loocv_is_zero() {
        let train = toy(1, 4, 0.0);
        let nns = cut(&Euclidean, &train, true).nearest(LOO).0;
        assert_eq!(nns[0].index, None);
        assert_eq!(loocv_vote(&nns, &[0]), 0.0);
    }

    #[test]
    fn cascade_matches_pruned_and_actually_skips() {
        let train = clustered(24, 64);
        let test = clustered(10, 64);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        for warm in [false, true] {
            let exact = pruned_nn_search(&d, &test, &train, warm);
            let (got, stats) = indexed_nn_search_stats(&d, &test, &train, &ix, warm);
            assert_eq!(got, exact, "warm={warm}");
            assert_eq!(stats.fallback_rows, 0);
            assert!(
                stats.examined < stats.candidates,
                "no candidate skipped: {stats:?}"
            );
        }
    }

    #[test]
    fn pivots_match_pruned_for_metric_measures() {
        let train = toy(20, 32, 0.0);
        let test = toy(8, 32, 0.5);
        let ix = prepared_index(&Euclidean, &train);
        let exact = pruned_nn_search(&Euclidean, &test, &train, true);
        let (got, stats) = indexed_nn_search_stats(&Euclidean, &test, &train, &ix, true);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, 0);
        assert!(stats.pivot_skipped > 0, "pivot tier never fired: {stats:?}");
    }

    #[test]
    fn unindexable_measures_fall_back_to_linear_rows() {
        let train = toy(10, 16, 0.0);
        let test = toy(4, 16, 0.2);
        let ix = prepared_index(&SquaredEuclidean, &train);
        let exact = pruned_nn_search(&SquaredEuclidean, &test, &train, true);
        let (got, stats) = indexed_nn_search_stats(&SquaredEuclidean, &test, &train, &ix, true);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, stats.rows);
        assert_eq!(stats.examined, stats.candidates);
    }

    #[test]
    fn mismatched_index_never_prunes() {
        let train = toy(12, 16, 0.0);
        let other = toy(5, 16, 0.0);
        let test = toy(3, 16, 0.2);
        let ix = prepared_index(&Euclidean, &other);
        let (got, stats) = indexed_nn_search_stats(&Euclidean, &test, &train, &ix, true);
        assert_eq!(got, pruned_nn_search(&Euclidean, &test, &train, true));
        assert_eq!(stats.fallback_rows, stats.rows);
    }

    #[test]
    fn knn_rows_match_pruned_rows() {
        let train = toy(18, 48, 0.0);
        let test = toy(7, 48, 0.4);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        for k in [1, 3, 5, 99] {
            for warm in [false, true] {
                let (exact, q) = (cut(&d, &train, warm), Rows::Queries(&test));
                let got = exact.indexed(&ix).top_k(q, k).0;
                assert_eq!(got, exact.top_k(q, k).0, "k={k} warm={warm}");
            }
        }
    }

    #[test]
    fn loocv_matches_pruned_including_self_exclusion() {
        let train = toy(16, 40, 0.0);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        for warm in [false, true] {
            let exact = cut(&d, &train, warm);
            let got = exact.indexed(&ix).nearest(LOO).0;
            assert_eq!(got, exact.nearest(LOO).0, "warm={warm}");
        }
        // Pivot plans must also honour the self-exclusion.
        let ix = prepared_index(&Euclidean, &train);
        let exact = cut(&Euclidean, &train, true);
        assert_eq!(exact.indexed(&ix).nearest(LOO).0, exact.nearest(LOO).0);
    }

    #[test]
    fn positive_regime_queries_fall_back_per_row() {
        // Positive train data with one non-positive query: that row (and
        // only that row) must take the linear plan.
        let train: Vec<Vec<f64>> = toy(10, 16, 2.0);
        let mut test = toy(3, 16, 2.0);
        test[1][4] = 0.0;
        let ix = prepared_index(&Canberra, &train);
        assert_eq!(ix.stats().pivot_tables, 1);
        let exact = pruned_nn_search(&Canberra, &test, &train, false);
        let (got, stats) = indexed_nn_search_stats(&Canberra, &test, &train, &ix, false);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, 1);
    }

    #[test]
    fn examined_fraction_is_well_defined_when_empty() {
        assert_eq!(IndexedStats::default().examined_fraction(), 0.0);
    }

    #[test]
    fn cascade_search_matches_exact_dtw_accuracy() {
        let raw = generate_dataset(&ArchiveConfig::quick(1, 9), 2);
        let ds = prepare(&raw, Normalization::ZScore);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &ds.train);
        let (nns, stats) = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, true);
        assert_eq!(stats.fallback_rows, 0);
        let cascade = one_nn_vote_accuracy(&nns, &ds.test_labels, &ds.train_labels).unwrap();
        let exact = Eval::new(&d).on(&raw).run().unwrap().accuracy.unwrap();
        assert_eq!(cascade.to_bits(), exact.to_bits());
    }

    #[test]
    fn cascade_actually_fires_on_separable_data() {
        let raw = generate_dataset(&ArchiveConfig::quick(1, 3), 0);
        let ds = prepare(&raw, Normalization::ZScore);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &ds.train);
        let (_, stats) = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, true);
        assert!(stats.examined > 0, "cascade never reached the DP");
        assert!(
            stats.examined < stats.candidates,
            "no comparison skipped: {stats:?}"
        );
    }

    #[test]
    fn a_reused_index_reproduces_a_fresh_one() {
        let raw = generate_dataset(&ArchiveConfig::quick(1, 11), 1);
        let ds = prepare(&raw, Normalization::ZScore);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &ds.train);
        let first = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, true);
        let again = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, true);
        let fresh = indexed_nn_search_stats(
            &d,
            &ds.test,
            &ds.train,
            &prepared_index(&d, &ds.train),
            true,
        );
        assert_eq!(first, again);
        assert_eq!(first, fresh);
    }
}
