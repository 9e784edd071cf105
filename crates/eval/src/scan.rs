//! The nearest-neighbour scan engine: every 1-NN and k-NN search of the
//! platform — Algorithm 1 on a test split, leave-one-out tuning, served
//! queries — is one [`Scan`].
//!
//! # Four plans and Auto
//!
//! Each row is searched under one of four plans. Its **bounded** plan is
//! [`Cascade`](QueryPlan::Cascade) or [`Pivots`](QueryPlan::Pivots) when
//! the supplied [`TrainIndex`] has a structure for it
//! ([`TrainIndex::plan`]), otherwise **Cutoff** if the scan is pruned; a
//! row with none of these takes **Exact**. A fixed-plan scan runs every
//! row under its bounded plan. An **Auto** scan ([`Scan::auto`], what
//! [`Eval`](crate::Eval) and the query server use) runs a row with a
//! bounded plan under Exact instead where Exact is measurably cheaper on
//! the split: it times rows under both, keeps the bounded plan on a near
//! tie, prices Exact from the Cascade's own lane blocks where they show a
//! clear win, and re-probes at geometrically spaced rows (the rule is in
//! [`tsdist_core::index::plans`]). The costs live in the index's
//! [`PlanMemory`], keyed like its structures, so every scan of one index
//! shares one decision; an unindexed scan keeps its own for its rows.
//! Every plan gives the same answers, so the choice only moves speed.
//!
//! * **Exact**: the row of distances from the measure's
//!   [`Distance::distance_row_ws`] kernel, the call the dissimilarity
//!   matrices make for each row, read in natural order. A scan with
//!   neither an index nor pruning runs every row this way, so it computes
//!   exactly the study's `E`.
//! * **Cutoff**: candidates in cheap-score order
//!   ([`tsdist_core::index::cheap_score`]), each computed by
//!   [`Distance::distance_upto`] under the incumbent's cutoff.
//! * **Cascade** (plain banded DTW): candidates in ascending `LB_PAA`
//!   order; a candidate is skipped when its stored (deflated) `LB_PAA`
//!   reaches the cutoff, then when the cached `LB_Keogh` walk reaches the
//!   inflated threshold. The order is ascending, so the first `LB_PAA`
//!   skip in the sorted region ends the row. Survivors queue for a lane
//!   block of [`LANES`] columns while the row's cutoff is still infinite,
//!   so the first block seeds it as early as an eight-lane block can, and
//!   of [`MAX_ROW_BLOCK`] columns (banded DTW's full block width) after
//!   that. A full block, and the last one when the row ends, runs
//!   through the measure's [`Distance::distance_row_ws`] (banded DTW's
//!   lane kernel) and offers every exact value. A lone survivor runs
//!   `distance_upto` instead.
//! * **Pivots** (declared-metric measures): the pivots are visited first
//!   with exact distances, which both seed the incumbent and give the
//!   query-to-pivot distances of the reverse-triangle bound; the rest are
//!   visited in ascending bound order under the same skip rule, each
//!   survivor by `distance_upto`.
//!
//! Each bounded row first computes every candidate's bound in one pass
//! into its score buffer, as the Cutoff plan reads its hoisted cheap
//! scores: [`DtwBandIndex::lb_paa_row`] sweeps the index's
//! segment-major PAA summaries one segment across all candidates at a
//! time, and [`PivotTable::lower_bounds`] sweeps the pivot table one
//! pivot at a time. Both equal the per-candidate
//! [`DtwBandIndex::lb_paa`] and [`PivotTable::lower_bound`] bit for bit.
//! The bound orders are then sorted lazily: a row that stops early sorts
//! only the candidates it reached, in exactly the full sort's order.
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
//! row's result is the same for every plan and visiting order: those
//! change only how fast the cutoff tightens. The one plan-dependent
//! output is the best-effort [`NearestNeighbour::non_finite`] screen, so
//! under Auto it may report a ±∞ candidate on one run and not on another;
//! a NaN is reported under every plan.
//!
//! # Rows are independent
//!
//! A row reads only its own query, the train split and the index, so its
//! answer and its counters do not depend on the other rows. The rows run
//! on the worker pool of the matrix builders
//! ([`crate::parallel::parallel_map_with`]): each worker claims the next
//! unanswered row and keeps one scratch and one incumbent for all the
//! rows it answers. An Auto scan counts a row as a cost sample unless it
//! is its worker's first (which pays the worker's start-up), or it is the
//! scan's only row. So a scan of two to `workers` rows, whose workers
//! mostly answer one row each, records few or no samples, and its rows
//! follow what the plan memory already knows.
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
use crate::nn::check_shapes;
use crate::parallel::parallel_map_with;
use std::sync::OnceLock;
use std::time::Instant;
use tsdist_core::elastic::lb_keogh_upto;
use tsdist_core::index::{
    cheap_score, paa_means, Choice, DtwBandIndex, PivotTable, PlanKey, PlanMemory, RowCost,
};
use tsdist_core::lanes::{LANES, MAX_ROW_BLOCK};
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
    /// non-finite entry. Elsewhere it is a best-effort screen, first in
    /// visiting order: a NaN is always seen, and so is a ±∞ computed
    /// exactly (under no finite cutoff, or in a Cascade lane block), but
    /// candidates abandoned under a finite cutoff or skipped by a bound
    /// are not inspectable, so a `None` there does not prove the row is
    /// finite.
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
    /// Rows answered by the Exact plan: rows with no bounded plan, and
    /// rows an Auto scan sent to Exact (indexed ones included).
    pub exact_rows: u64,
    /// Rows answered by the Cutoff plan.
    pub cutoff_rows: u64,
    /// Rows answered by the Cascade plan.
    pub cascade_rows: u64,
    /// Rows answered by the Pivots plan.
    pub pivot_rows: u64,
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
        self.exact_rows += o.exact_rows;
        self.cutoff_rows += o.cutoff_rows;
        self.cascade_rows += o.cascade_rows;
        self.pivot_rows += o.pivot_rows;
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
/// the index ([`Scan::indexed`]), whether the scan is pruned
/// ([`Scan::pruned`]) and whether it is Auto ([`Scan::auto`]); see the
/// module docs for the plan rule.
#[derive(Clone, Copy)]
pub struct Scan<'a> {
    measure: &'a dyn Distance,
    train: &'a [Vec<f64>],
    index: Option<&'a TrainIndex>,
    pruned: bool,
    auto: bool,
}

impl<'a> Scan<'a> {
    /// An unpruned, unindexed scan of `train` under `measure`.
    pub fn new(measure: &'a dyn Distance, train: &'a [Vec<f64>]) -> Self {
        Scan {
            measure,
            train,
            index: None,
            pruned: false,
            auto: false,
        }
    }

    /// Rows without an index structure thread cutoffs (Cutoff plan)
    /// instead of computing the full row (Exact plan).
    pub fn pruned(mut self, yes: bool) -> Self {
        self.pruned = yes;
        self
    }

    /// Lets every row with a bounded plan (Cascade, Pivots, or Cutoff
    /// when pruned) take Exact instead where Exact is measurably cheaper
    /// on this split: the Auto plan. What each plan cost is remembered
    /// in the index's [`PlanMemory`] (shared by every scan of the index)
    /// or, without an index, for this call's rows. Never changes a
    /// result.
    pub fn auto(mut self, yes: bool) -> Self {
        self.auto = yes;
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

    /// The one driver: workers claim rows from the pool
    /// ([`parallel_map_with`]), each with its own scratch and incumbent,
    /// and every row is planned and searched on its own. The index
    /// structure is resolved once per scan; each row only checks whether
    /// its query may take it.
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
        let structure = self
            .index
            .map_or(QueryPlan::Linear, |ix| ix.measure_plan(self.measure));
        let own_memory = PlanMemory::default();
        let planner = self.auto.then(|| Planner {
            memory: self.index.map_or(&own_memory, TrainIndex::plans),
            named: OnceLock::new(),
        });
        let worker = || (Scratch::default(), incumbent(), false);
        let per_row = parallel_map_with(n, worker, |(s, inc, started), i| {
            let x = &queries[i];
            let skip = if leave_one_out { i } else { usize::MAX };
            let plan = match self.index {
                Some(ix) if ix.admits(&structure, x) => structure,
                _ => QueryPlan::Linear,
            };
            // A worker's first row pays its one-time setup (a fresh
            // thread and scratch), which its later rows do not: it is a
            // cost sample only when it is the scan's only row.
            let sample = *started || n == 1;
            *started = true;
            let stats = self.row(x, skip, plan, planner.as_ref().map(|p| (p, sample)), inc, s);
            (inc.finish(), stats)
        });
        let mut stats = IndexedStats::default();
        let rows = per_row
            .into_iter()
            .map(|(out, row)| {
                stats.absorb(&row);
                out
            })
            .collect();
        (rows, stats)
    }

    /// Searches one row under `plan` (its query's plan from the index),
    /// leaving the result in `inc`, and returns the row's counters. An
    /// Auto row (`planner` given, with whether the row is a cost sample)
    /// asks the plan memory whether a row with a bounded plan takes it or
    /// Exact, and records what a sampled row cost.
    fn row<I: Incumbent>(
        &self,
        x: &[f64],
        skip: usize,
        plan: QueryPlan<'_>,
        planner: Option<(&Planner<'_>, bool)>,
        inc: &mut I,
        s: &mut Scratch,
    ) -> IndexedStats {
        inc.reset();
        let candidates = (self.train.len() - usize::from(skip < self.train.len())) as u64;
        let mut stats = IndexedStats {
            rows: 1,
            candidates,
            ..IndexedStats::default()
        };
        let tier = match plan {
            QueryPlan::Linear => {
                stats.fallback_rows += 1;
                if !self.pruned {
                    self.exact(x, skip, inc, s, &mut stats);
                    return stats;
                }
                Tier::Cutoff
            }
            QueryPlan::Cascade(bix) => Tier::Cascade(bix),
            QueryPlan::Pivots(table) => Tier::Pivots(table),
        };
        let Some((planner, sample)) = planner else {
            self.bounded(x, skip, tier, inc, s, &mut stats);
            return stats;
        };
        let named = || {
            planner.named.get_or_init(|| {
                let name = self.measure.name();
                (PlanKey::Pivots(name.clone()), PlanKey::Cutoff(name))
            })
        };
        let cascade;
        let key = match tier {
            Tier::Cascade(bix) => {
                cascade = PlanKey::Cascade(bix.band());
                &cascade
            }
            Tier::Pivots(_) => &named().0,
            Tier::Cutoff => &named().1,
        };
        let taken = planner.memory.decide(key);
        s.block.priced = sample.then_some((0, 0));
        let start = sample.then(Instant::now);
        match taken {
            Choice::Exact => self.exact(x, skip, inc, s, &mut stats),
            Choice::Bounded => self.bounded(x, skip, tier, inc, s, &mut stats),
        }
        if let (Some(start), Some((lane_nanos, lanes))) = (start, s.block.priced.take()) {
            let cost = RowCost {
                taken,
                nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                candidates,
                lane_nanos,
                lanes,
            };
            planner.memory.record(key, &cost);
        }
        stats
    }

    /// The Exact plan: every candidate from the measure's row kernel, the
    /// call the dissimilarity matrices make for a row, offered in natural
    /// order.
    fn exact<I: Incumbent>(
        &self,
        x: &[f64],
        skip: usize,
        inc: &mut I,
        s: &mut Scratch,
        stats: &mut IndexedStats,
    ) {
        stats.exact_rows += 1;
        stats.examined += stats.candidates;
        s.row.resize(self.train.len(), 0.0);
        self.measure
            .distance_row_ws(x, self.train, &mut s.row, &mut s.ws);
        for (j, &v) in s.row.iter().enumerate() {
            if j != skip {
                inc.offer(v, j, true);
            }
        }
    }

    /// A bounded plan: the row's candidate order (cheap scores, `LB_PAA`
    /// or pivot bounds), then the shared visit.
    fn bounded<I: Incumbent>(
        &self,
        x: &[f64],
        skip: usize,
        tier: Tier<'_>,
        inc: &mut I,
        s: &mut Scratch,
        stats: &mut IndexedStats,
    ) {
        let (d, train) = (self.measure, self.train);
        match tier {
            Tier::Cutoff => {
                stats.cutoff_rows += 1;
                s.order_by_cheap_score(x, train, self.index, skip);
            }
            Tier::Cascade(bix) => {
                stats.cascade_rows += 1;
                let bounds = self.index.map_or(&[][..], TrainIndex::bounds);
                paa_means(x, bounds, &mut s.qmeans);
                bix.lb_paa_row(&s.qmeans, bounds, &mut s.scores);
                order_by_scores(&mut s.order, &s.scores, |j| j != skip);
            }
            Tier::Pivots(table) => {
                stats.pivot_rows += 1;
                stats.examined += s.visit_pivots(d, x, train, table, skip, inc);
            }
        }
        s.visit(d, x, train, tier, inc, stats);
    }
}

/// An Auto scan's plan memory, and its Pivots and Cutoff keys, which
/// name the measure: formatted at most once per scan, when a row first
/// needs one (a Cascade's key is its band).
struct Planner<'m> {
    memory: &'m PlanMemory,
    named: OnceLock<(PlanKey, PlanKey)>,
}

/// The bound tiers of a row's candidate visit. The rank key of each
/// entry of `order` is the cheap score (Cutoff) or the bound.
#[derive(Clone, Copy)]
enum Tier<'a> {
    /// No bounds: every candidate runs `distance_upto`.
    Cutoff,
    /// `LB_PAA`, then the cached `LB_Keogh` of clean candidates;
    /// survivors run in lane blocks.
    Cascade(&'a DtwBandIndex),
    /// The reverse-triangle pivot bound.
    Pivots(&'a PivotTable),
}

/// The per-row search state of a plan: Algorithm 1's incumbent or the
/// top-k selection. Both the update rule and the cutoff live here, once.
trait Incumbent {
    /// What a finished row reports.
    type Output: Send + Default;
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
}

/// Per-worker scratch reused across rows.
#[derive(Default)]
struct Scratch {
    ws: Workspace,
    row: Vec<f64>,
    qmeans: Vec<f64>,
    /// The row's candidates as `(rank_key(score or bound), index)`.
    order: Vec<(u64, usize)>,
    /// Every candidate's cheap score or lower bound, by index: one row
    /// method fills it, then `order` is built from it.
    scores: Vec<f64>,
    qsamples: Vec<f64>,
    qd: Vec<f64>,
    is_pivot: Vec<bool>,
    block: Block,
}

impl Scratch {
    /// Fills `order` with every candidate but `skip`, keyed by the cheap
    /// first-pass score. Scores come from the index's hoisted sample
    /// table when it has one for `x` (bit-identical, so the order is
    /// too).
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
        order_by_scores(&mut self.order, &self.scores, |j| j != skip);
    }

    /// The Pivots plan's first phase: every pivot is computed exactly,
    /// offered to `inc` (unless it is `skip`) and kept for the
    /// reverse-triangle bound; `order` then holds every other candidate
    /// keyed by its bound. Returns the number of pivots offered.
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
        table.lower_bounds(&self.qd, &mut self.scores);
        let is_pivot = &self.is_pivot;
        order_by_scores(&mut self.order, &self.scores, |j| j != skip && !is_pivot[j]);
        offered
    }

    /// The candidate visit shared by the Cutoff, Cascade and Pivots
    /// plans: `order` in ascending `(key, index)` order, sorted lazily as
    /// the visit reaches it. The first candidate whose bound reaches the
    /// cutoff ends the row, since every later bound is at least as
    /// large. Cascade survivors queue for a lane block; the
    /// cutoff cannot move while one is pending, because only a run block
    /// offers values.
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
        let mut lazy = LazySort::new();
        let mut lb_skipped = 0;
        for pos in 0..self.order.len() {
            lazy.reach(&mut self.order, pos);
            let (key, j) = self.order[pos];
            let cutoff = inc.cutoff();
            if bounded && cutoff.is_finite() && cutoff > 0.0 {
                if rank_value(key) >= cutoff {
                    lb_skipped += (self.order.len() - pos) as u64;
                    break;
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
            if let Tier::Cascade(_) = tier {
                self.block.ids.push(j);
                let width = if cutoff.is_finite() {
                    MAX_ROW_BLOCK
                } else {
                    LANES
                };
                if self.block.ids.len() == width {
                    self.block.run(d, x, train, &mut self.ws, inc, stats);
                }
            } else {
                stats.examined += 1;
                examine(d, x, &train[j], j, &mut self.ws, inc);
            }
        }
        self.block.run(d, x, train, &mut self.ws, inc, stats);
        match tier {
            Tier::Cutoff => {}
            Tier::Cascade(_) => stats.paa_skipped += lb_skipped,
            Tier::Pivots(_) => stats.pivot_skipped += lb_skipped,
        }
    }
}

/// Fills `order` with every candidate `j` that `keep`s, keyed by
/// `scores[j]` (a cheap score or a lower bound).
fn order_by_scores(order: &mut Vec<(u64, usize)>, scores: &[f64], keep: impl Fn(usize) -> bool) {
    order.clear();
    order.extend(
        scores
            .iter()
            .enumerate()
            .filter(|&(j, _)| keep(j))
            .map(|(j, &v)| (rank_key(v), j)),
    );
}

/// Computes candidate `j` under the incumbent's cutoff and offers it.
fn examine<I: Incumbent>(
    d: &dyn Distance,
    x: &[f64],
    y: &[f64],
    j: usize,
    ws: &mut Workspace,
    inc: &mut I,
) {
    let cutoff = inc.cutoff();
    let v = d.distance_upto(x, y, ws, cutoff);
    inc.offer(v, j, cutoff.is_nan() || cutoff == f64::INFINITY);
}

/// Cascade survivors waiting for one lane block of the measure's row
/// kernel. The scattered train series are copied into `cols`, which the
/// row kernel takes; a copy is cheap next to the DP.
#[derive(Default)]
struct Block {
    ids: Vec<usize>,
    cols: Vec<Vec<f64>>,
    out: Vec<f64>,
    /// In an Auto row, the nanoseconds and candidates of the row kernel
    /// calls so far: the price of an Exact candidate.
    priced: Option<(u64, u64)>,
}

impl Block {
    /// Runs the queued candidates, counts them as examined and offers
    /// each value. Lane values are exact, so a lane's non-finite value is
    /// the measure's own. A lone candidate keeps `distance_upto` and its
    /// early abandon.
    fn run<I: Incumbent>(
        &mut self,
        d: &dyn Distance,
        x: &[f64],
        train: &[Vec<f64>],
        ws: &mut Workspace,
        inc: &mut I,
        stats: &mut IndexedStats,
    ) {
        let n = self.ids.len();
        stats.examined += n as u64;
        match self.ids[..] {
            [] => {}
            [j] => examine(d, x, &train[j], j, ws, inc),
            _ => {
                self.cols.resize_with(MAX_ROW_BLOCK, Vec::new);
                for (col, &j) in self.cols.iter_mut().zip(&self.ids) {
                    col.clear();
                    col.extend_from_slice(&train[j]);
                }
                self.out.clear();
                self.out.resize(n, 0.0);
                let start = self.priced.is_some().then(Instant::now);
                d.distance_row_ws(x, &self.cols[..n], &mut self.out, ws);
                if let (Some(start), Some((nanos, lanes))) = (start, &mut self.priced) {
                    *nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    *lanes += n as u64;
                }
                for (&j, &v) in self.ids.iter().zip(&self.out) {
                    inc.offer(v, j, true);
                }
            }
        }
        self.ids.clear();
    }
}

/// A `u64` whose unsigned order is [`f64::total_cmp`]'s order of `v`, so
/// `(rank_key(v), j)` tuples sort like `(v, j)` under `(total_cmp,
/// index)` without re-deriving the key in every comparison.
fn rank_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The value [`rank_key`] was made from, bit for bit.
fn rank_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A visiting order sorted only as far as the visit reaches:
/// `order[..sorted]` is in ascending order, and the tail holds every
/// later candidate unordered. Each extension selects the next `chunk`
/// smallest keys and sorts them, and the chunk grows fourfold, so a row
/// that stops early pays for about what it visits, and a row that visits
/// everything makes a few selections and then sorts the rest. Keys are
/// distinct (they carry the index), so the order is the full sort's.
struct LazySort {
    sorted: usize,
    chunk: usize,
}

impl LazySort {
    /// First selection size: covers a typical pruned row in one pass.
    const FIRST: usize = 256;

    /// An order not yet sorted at all.
    fn new() -> Self {
        LazySort {
            sorted: 0,
            chunk: Self::FIRST,
        }
    }

    /// Makes `order[pos]` the next candidate of the ascending order.
    fn reach(&mut self, order: &mut [(u64, usize)], pos: usize) {
        if pos < self.sorted {
            return;
        }
        let rest = &mut order[pos..];
        let take = if 2 * self.chunk >= rest.len() {
            rest.len()
        } else {
            rest.select_nth_unstable(self.chunk);
            self.chunk
        };
        rest[..take].sort_unstable();
        self.sorted = pos + take;
        self.chunk *= 4;
    }
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
///
/// `_warm_start` has no effect: every row depends only on its own query.
/// The parameter stays for existing callers.
pub fn pruned_nn_search(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    _warm_start: bool,
) -> Vec<NearestNeighbour> {
    let scan = Scan::new(d, train).pruned(true);
    scan.nearest(Rows::Queries(test)).0
}

/// Indexed 1-NN search of every `test` row against `train`, with the
/// work counters: rows with an index structure skip candidates by lower
/// bounds, the rest take the Cutoff plan. `_warm_start` has no effect,
/// as in [`pruned_nn_search`].
pub fn indexed_nn_search_stats(
    d: &dyn Distance,
    test: &[Vec<f64>],
    train: &[Vec<f64>],
    ix: &TrainIndex,
    _warm_start: bool,
) -> (Vec<NearestNeighbour>, IndexedStats) {
    let scan = Scan::new(d, train).pruned(true).indexed(ix);
    scan.nearest(Rows::Queries(test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CancelFlag;
    use crate::evaluator::{distance_cell, prepare};
    use crate::knn::knn_accuracy;
    use crate::matrices::distance_matrix;
    use crate::nn::{loocv_accuracy, one_nn_accuracy};
    use crate::request::Eval;
    use crate::{CellError, EvalError};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tsdist_core::elastic::{Dtw, Msm};
    use tsdist_core::lockstep::{Canberra, CityBlock, Euclidean, SquaredEuclidean};
    use tsdist_core::measure::MetricRegime;
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
    /// search.
    fn cut<'a>(d: &'a dyn Distance, train: &'a [Vec<f64>]) -> Scan<'a> {
        Scan::new(d, train).pruned(true)
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
        let nns = pruned_nn_search(&d, &test, &train, false);
        let pruned = one_nn_vote_accuracy(&nns, &tel, &trl).unwrap();
        assert_eq!(pruned.to_bits(), exact.to_bits());
    }

    #[test]
    fn nn_indices_break_ties_to_first() {
        // Two identical training series: index 0 must win under any
        // candidate order, exactly like Algorithm 1's strict `<`.
        let s = vec![1.0, 2.0, 3.0, 4.0];
        let train = vec![s.clone(), s.clone()];
        let test = vec![s.clone()];
        let nns = pruned_nn_search(&Euclidean, &test, &train, false);
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
        let pruned = loocv_vote(&cut(&d, &train).nearest(LOO).0, &trl);
        assert_eq!(pruned.to_bits(), exact.to_bits());
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
            let rows = cut(&d, &train).top_k(Rows::Queries(&test), k).0;
            let pruned = knn_vote_accuracy(&rows, &tel, &trl);
            assert_eq!(pruned.to_bits(), exact.to_bits(), "k={k}");
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
        let loocv = cut(&AlwaysNan, &train).nearest(LOO).0;
        assert_eq!(loocv_vote(&loocv, &labels(3)), 0.0);
    }

    #[test]
    fn typed_errors_mirror_the_matrix_entry_points() {
        let flag = CancelFlag::new();
        let cell = |ds: &Dataset, pruned: bool| {
            distance_cell(&Euclidean, ds, Normalization::ZScore, &flag, None, pruned)
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
        let (nns, stats) = indexed_nn_search_stats(&d, &test, &train, &ix, false);
        assert_eq!(nns, pruned_nn_search(&d, &test, &train, false));
        assert_eq!(stats.fallback_rows, stats.rows);
        let (exact, q) = (cut(&d, &train), Rows::Queries(&test));
        assert_eq!(exact.indexed(&ix).top_k(q, 3).0, exact.top_k(q, 3).0);
    }

    #[test]
    fn knn_search_rows_match_matrix_selection() {
        let train = toy(10, 24, 0.0);
        let test = toy(4, 24, 0.3);
        let d = Msm::new(0.5);
        let e = distance_matrix(&d, &test, &train);
        let rows = cut(&d, &train).top_k(Rows::Queries(&test), 3).0;
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
        let nns = cut(&Euclidean, &train).nearest(LOO).0;
        assert_eq!(nns[0].index, None);
        assert_eq!(loocv_vote(&nns, &[0]), 0.0);
    }

    #[test]
    fn cascade_matches_pruned_and_actually_skips() {
        let train = clustered(24, 64);
        let test = clustered(10, 64);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        let exact = pruned_nn_search(&d, &test, &train, false);
        let (got, stats) = indexed_nn_search_stats(&d, &test, &train, &ix, false);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, 0);
        assert!(
            stats.examined < stats.candidates,
            "no candidate skipped: {stats:?}"
        );
    }

    #[test]
    fn pivots_match_pruned_for_metric_measures() {
        let train = toy(20, 32, 0.0);
        let test = toy(8, 32, 0.5);
        let ix = prepared_index(&Euclidean, &train);
        let exact = pruned_nn_search(&Euclidean, &test, &train, false);
        let (got, stats) = indexed_nn_search_stats(&Euclidean, &test, &train, &ix, false);
        assert_eq!(got, exact);
        assert_eq!(stats.fallback_rows, 0);
        assert!(stats.pivot_skipped > 0, "pivot tier never fired: {stats:?}");
    }

    #[test]
    fn unindexable_measures_fall_back_to_linear_rows() {
        let train = toy(10, 16, 0.0);
        let test = toy(4, 16, 0.2);
        let ix = prepared_index(&SquaredEuclidean, &train);
        let exact = pruned_nn_search(&SquaredEuclidean, &test, &train, false);
        let (got, stats) = indexed_nn_search_stats(&SquaredEuclidean, &test, &train, &ix, false);
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
        let (got, stats) = indexed_nn_search_stats(&Euclidean, &test, &train, &ix, false);
        assert_eq!(got, pruned_nn_search(&Euclidean, &test, &train, false));
        assert_eq!(stats.fallback_rows, stats.rows);
    }

    #[test]
    fn knn_rows_match_pruned_rows() {
        let train = toy(18, 48, 0.0);
        let test = toy(7, 48, 0.4);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        for k in [1, 3, 5, 99] {
            let (exact, q) = (cut(&d, &train), Rows::Queries(&test));
            let got = exact.indexed(&ix).top_k(q, k).0;
            assert_eq!(got, exact.top_k(q, k).0, "k={k}");
        }
    }

    #[test]
    fn loocv_matches_pruned_including_self_exclusion() {
        let train = toy(16, 40, 0.0);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &train);
        let exact = cut(&d, &train);
        assert_eq!(exact.indexed(&ix).nearest(LOO).0, exact.nearest(LOO).0);
        // Pivot plans must also honour the self-exclusion.
        let ix = prepared_index(&Euclidean, &train);
        let exact = cut(&Euclidean, &train);
        assert_eq!(exact.indexed(&ix).nearest(LOO).0, exact.nearest(LOO).0);
    }

    #[test]
    fn indexed_leave_one_out_matches_exact_at_both_ends() {
        // Series n−1 duplicates series 0, so rows 0 and n−1 (skipping
        // candidate 0 and n−1) each find the other at distance 0; a row
        // that failed to skip itself would answer with itself.
        let mut train = clustered(40, 48);
        let n = train.len();
        train[n - 1] = train[0].clone();
        let dtw = Dtw::with_window_pct(10.0);
        for d in [&dtw as &dyn Distance, &Euclidean, &CityBlock] {
            let ix = prepared_index(d, &train);
            let exact = Scan::new(d, &train);
            let expect = exact.nearest(LOO).0;
            assert_eq!(expect[0].index, Some(n - 1), "{}", d.name());
            assert_eq!(expect[n - 1].index, Some(0), "{}", d.name());
            let indexed = cut(d, &train).indexed(&ix);
            let (got, stats) = indexed.nearest(LOO);
            assert_eq!(stats.fallback_rows, 0, "{}", d.name());
            assert_eq!(got, expect, "{}", d.name());
            assert_eq!(indexed.top_k(LOO, 3).0, exact.top_k(LOO, 3).0);
        }
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
    fn rank_keys_order_like_total_cmp_and_round_trip() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0f64.next_up(),
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            assert_eq!(rank_value(rank_key(a)).to_bits(), a.to_bits());
            for b in values {
                assert_eq!(rank_key(a).cmp(&rank_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn lazy_order_visits_tied_bounds_in_index_order() {
        // Far more candidates than one selection, on twelve distinct
        // bounds: every extension cuts through a run of ties.
        let n = 5000;
        let bound = |j: usize| ((j * 7919) % 12) as f64 * 0.25;
        let mut order: Vec<(u64, usize)> = (0..n).map(|j| (rank_key(bound(j)), j)).collect();
        let mut expect: Vec<usize> = (0..n).collect();
        expect.sort_by(|&a, &b| bound(a).total_cmp(&bound(b)).then(a.cmp(&b)));
        for stop in [1, LazySort::FIRST, LazySort::FIRST + 1, 3000, n] {
            order.sort_unstable_by_key(|&(_, j)| (j * 31) % n);
            let mut lazy = LazySort::new();
            let visited: Vec<usize> = (0..stop)
                .map(|pos| {
                    lazy.reach(&mut order, pos);
                    order[pos].1
                })
                .collect();
            assert_eq!(visited, expect[..stop], "stop={stop}");
        }
    }

    /// The Pivots plan of one row, in the full-sort order it had before
    /// the order became lazy: `(examined, pivot_skipped, winner)`.
    fn sorted_pivot_visit(
        x: &[f64],
        train: &[Vec<f64>],
        table: &PivotTable,
    ) -> (u64, u64, Option<usize>) {
        let mut inc = Nearest::new();
        let qd: Vec<f64> = table
            .pivots()
            .iter()
            .map(|&p| Euclidean.distance(x, &train[p]))
            .collect();
        for (&p, &v) in table.pivots().iter().zip(&qd) {
            inc.offer(v, p, true);
        }
        let mut rest: Vec<usize> = (0..train.len())
            .filter(|j| !table.pivots().contains(j))
            .collect();
        let lb = |j: usize| table.lower_bound(&qd, j);
        rest.sort_unstable_by(|&a, &b| lb(a).total_cmp(&lb(b)).then(a.cmp(&b)));
        let mut examined = table.pivots().len() as u64;
        for (pos, &j) in rest.iter().enumerate() {
            let cutoff = inc.cutoff();
            if cutoff.is_finite() && cutoff > 0.0 && lb(j) >= cutoff {
                return (examined, (rest.len() - pos) as u64, inc.best_j);
            }
            examined += 1;
            inc.offer(Euclidean.distance(x, &train[j]), j, true);
        }
        (examined, 0, inc.best_j)
    }

    #[test]
    fn lazy_pivot_visits_count_like_the_sorted_visit() {
        // Hash noise of length 24: the pivot bound is loose enough that
        // rows stop on either side of the first lazy selection.
        const M: usize = 24;
        let noise = |n: usize, salt: f64| -> Vec<Vec<f64>> {
            (0..n)
                .map(|i| {
                    (0..M)
                        .map(|j| ((((i * M + j) as f64 + salt) * 12.9898).sin() * 43758.5).fract())
                        .collect()
                })
                .collect()
        };
        let train = noise(1200, 0.0);
        let test = noise(9, 0.5);
        let ix = prepared_index(&Euclidean, &train);
        let QueryPlan::Pivots(table) = ix.plan(&Euclidean, &test[0]) else {
            panic!("ED has a pivot table");
        };
        let scan = cut(&Euclidean, &train).indexed(&ix);
        let mut expect = IndexedStats::default();
        let (mut fewest, mut most) = (u64::MAX, 0);
        for (i, x) in test.iter().enumerate() {
            let (row, stats) = scan.nearest(Rows::Queries(&test[i..=i]));
            let (examined, skipped, winner) = sorted_pivot_visit(x, &train, table);
            assert_eq!(
                (stats.examined, stats.pivot_skipped, row[0].index),
                (examined, skipped, winner),
                "row {i}"
            );
            (fewest, most) = (fewest.min(examined), most.max(examined));
            expect.rows += 1;
            expect.candidates += train.len() as u64;
            expect.examined += examined;
            expect.pivot_skipped += skipped;
            expect.pivot_rows += 1;
        }
        let first = LazySort::FIRST as u64;
        assert!(fewest < first && most > first, "{fewest}..{most} examined");
        assert_eq!(scan.nearest(Rows::Queries(&test)).1, expect);
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
        let (nns, stats) = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, false);
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
        let (_, stats) = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, false);
        assert!(stats.examined > 0, "cascade never reached the DP");
        assert!(
            stats.examined < stats.candidates,
            "no comparison skipped: {stats:?}"
        );
    }

    /// Row `i` of `rows` answered on its own, by a fresh worker.
    fn alone<I: Incumbent>(
        scan: &Scan<'_>,
        rows: Rows<'_>,
        i: usize,
        mut inc: I,
    ) -> (I::Output, IndexedStats) {
        let (x, skip) = match rows {
            Rows::Queries(q) => (&q[i], usize::MAX),
            Rows::LeaveOneOut => (&scan.train[i], i),
        };
        let plan = scan
            .index
            .map_or(QueryPlan::Linear, |ix| ix.plan(scan.measure, x));
        let stats = scan.row(x, skip, plan, None, &mut inc, &mut Scratch::default());
        (inc.finish(), stats)
    }

    #[test]
    fn every_row_answers_as_it_would_alone() {
        // Under each fixed bounded plan, for 1-NN and k-NN, query and
        // leave-one-out rows: a many-row scan gives every row the answer
        // that row gets alone, and counts the sum of their counters.
        let train = clustered(40, 48);
        let test = clustered(13, 48);
        let dtw = Dtw::with_window_pct(10.0);
        let (cascade, pivots) = (
            prepared_index(&dtw, &train),
            prepared_index(&Euclidean, &train),
        );
        let scans = [
            ("Cutoff", cut(&dtw, &train)),
            ("Cascade", cut(&dtw, &train).indexed(&cascade)),
            ("Pivots", cut(&Euclidean, &train).indexed(&pivots)),
        ];
        for (name, scan) in scans {
            for (what, rows) in [("queries", Rows::Queries(&test)), ("LOO", LOO)] {
                let n = match rows {
                    Rows::Queries(q) => q.len(),
                    Rows::LeaveOneOut => train.len(),
                };
                let (nearest, nearest_stats) = scan.nearest(rows);
                let (top, top_stats) = scan.top_k(rows, 3);
                let (mut nearest_sum, mut top_sum) =
                    (IndexedStats::default(), IndexedStats::default());
                for i in 0..n {
                    let (nn, stats) = alone(&scan, rows, i, Nearest::new());
                    assert_eq!(nn, nearest[i], "{name} {what} 1-NN row {i}");
                    nearest_sum.absorb(&stats);
                    let inc = TopK {
                        k: 3,
                        heap: Vec::new(),
                    };
                    let (kept, stats) = alone(&scan, rows, i, inc);
                    assert_eq!(kept, top[i], "{name} {what} 3-NN row {i}");
                    top_sum.absorb(&stats);
                }
                assert_eq!(nearest_stats, nearest_sum, "{name} {what} 1-NN");
                assert_eq!(top_stats, top_sum, "{name} {what} 3-NN");
                let bounded = nearest_sum.cascade_rows + nearest_sum.pivot_rows;
                assert_eq!(bounded > 0, name != "Cutoff", "{name} {what}");
            }
        }
    }

    #[test]
    fn an_auto_scan_names_its_measure_once_not_per_row() {
        // Formatting the name keys the pivot table and the plan memory;
        // a many-row scan must not pay for it on every row.
        static NAMES: AtomicUsize = AtomicUsize::new(0);
        struct Named;
        impl Distance for Named {
            fn name(&self) -> String {
                NAMES.fetch_add(1, Ordering::Relaxed);
                "named ED".into()
            }
            fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
                Euclidean.distance_ws(x, y, ws)
            }
            fn is_symmetric(&self) -> bool {
                true
            }
            fn metric_regime(&self) -> MetricRegime {
                MetricRegime::All
            }
        }
        let train = toy(30, 16, 0.0);
        let test = toy(40, 16, 0.3);
        let ix = prepared_index(&Named, &train);
        assert!(matches!(ix.plan(&Named, &test[0]), QueryPlan::Pivots(_)));
        let pivots = Scan::new(&Named, &train).indexed(&ix).auto(true);
        let cutoff = Scan::new(&Named, &train).pruned(true).auto(true);
        for (scan, rows) in [(pivots, Rows::Queries(&test)), (cutoff, LOO)] {
            let before = NAMES.load(Ordering::Relaxed);
            let (_, stats) = scan.nearest(rows);
            let calls = NAMES.load(Ordering::Relaxed) - before;
            assert!(stats.rows >= 30, "{stats:?}");
            assert!(calls <= 2, "{calls} name calls for {} rows", stats.rows);
        }
    }

    #[test]
    fn a_reused_index_reproduces_a_fresh_one() {
        let raw = generate_dataset(&ArchiveConfig::quick(1, 11), 1);
        let ds = prepare(&raw, Normalization::ZScore);
        let d = Dtw::with_window_pct(10.0);
        let ix = prepared_index(&d, &ds.train);
        let first = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, false);
        let again = indexed_nn_search_stats(&d, &ds.test, &ds.train, &ix, false);
        let fresh = indexed_nn_search_stats(
            &d,
            &ds.test,
            &ds.train,
            &prepared_index(&d, &ds.train),
            false,
        );
        assert_eq!(first, again);
        assert_eq!(first, fresh);
    }

    /// Banded DTW that records what a caller hands it: the column count
    /// of every `distance_row_ws` call and the number of `distance_upto`
    /// calls.
    struct Recording {
        dtw: Dtw,
        rows: std::sync::Mutex<Vec<usize>>,
        upto: AtomicUsize,
    }

    impl Recording {
        fn new() -> Self {
            Recording {
                dtw: Dtw::with_window_pct(10.0),
                rows: Default::default(),
                upto: AtomicUsize::new(0),
            }
        }

        /// The row calls' column counts and the `distance_upto` calls
        /// since the last take.
        fn take(&self) -> (Vec<usize>, usize) {
            let rows = std::mem::take(&mut *self.rows.lock().unwrap());
            (rows, self.upto.swap(0, Ordering::Relaxed))
        }
    }

    impl Distance for Recording {
        fn name(&self) -> String {
            "recording DTW".into()
        }
        fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
            self.dtw.distance_ws(x, y, ws)
        }
        fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
            self.upto.fetch_add(1, Ordering::Relaxed);
            self.dtw.distance_upto(x, y, ws, cutoff)
        }
        fn distance_row_ws(
            &self,
            x: &[f64],
            cols: &[Vec<f64>],
            out: &mut [f64],
            ws: &mut Workspace,
        ) {
            self.rows.lock().unwrap().push(cols.len());
            self.dtw.distance_row_ws(x, cols, out, ws);
        }
        fn index_profile(&self) -> tsdist_core::measure::IndexProfile {
            self.dtw.index_profile()
        }
    }

    #[test]
    fn cascade_blocks_seed_the_cutoff_narrow_then_run_full_width() {
        // Identical candidates tie at one finite distance that no bound
        // reaches, so every candidate survives to a lane block: the
        // first of `LANES` columns, the rest of `MAX_ROW_BLOCK`, the last
        // with the remainder, and a lone remainder by `distance_upto`.
        let d = Recording::new();
        let query: Vec<f64> = (0..48).map(|j| (j as f64 * 0.3).cos()).collect();
        let series: Vec<f64> = (0..48).map(|j| (j as f64 * 0.7).sin()).collect();
        let w = MAX_ROW_BLOCK;
        for (n, blocks, upto) in [
            (1, vec![], 1),
            (5, vec![5], 0),
            (LANES, vec![LANES], 0),
            (LANES + 1, vec![LANES], 1),
            (LANES + 2, vec![LANES, 2], 0),
            (LANES + w, vec![LANES, w], 0),
            (LANES + 2 * w + 1, vec![LANES, w, w], 1),
            (LANES + 2 * w + 5, vec![LANES, w, w, 5], 0),
        ] {
            let train = vec![series.clone(); n];
            let ix = prepared_index(&d, &train);
            let rows = [query.clone()];
            let scan = cut(&d, &train).indexed(&ix);
            d.take();
            let (nns, stats) = scan.nearest(Rows::Queries(&rows));
            assert_eq!(stats.cascade_rows, 1, "n={n}: {stats:?}");
            assert_eq!(stats.examined, n as u64, "n={n}: {stats:?}");
            assert_eq!(nns[0].index, Some(0), "n={n}");
            assert_eq!(d.take(), (blocks, upto), "n={n}");
        }
    }

    #[test]
    fn guarded_rows_reach_the_measure_in_chunks_of_at_most_two_blocks() {
        let d = Recording::new();
        let flag = CancelFlag::new();
        let guarded = crate::cell::GuardedDistance::new(&d, &flag);
        let x: Vec<f64> = (0..20).map(|j| (j as f64 * 0.3).cos()).collect();
        let w = MAX_ROW_BLOCK;
        for (n, chunks) in [
            (3, vec![3]),
            (w, vec![w]),
            (w + 1, vec![w, 1]),
            (2 * w + 9, vec![w, w, 9]),
        ] {
            let cols = clustered(n, 20);
            let mut out = vec![0.0; n];
            guarded.distance_row_ws(&x, &cols, &mut out, &mut Workspace::new());
            assert_eq!(d.take(), (chunks, 0), "n={n}");
        }
    }
}
