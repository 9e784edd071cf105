//! The sublinear 1-NN index tier: PAA summaries over Keogh envelopes and
//! metric pivot tables.
//!
//! A [`TrainIndex`] is built once per `(dataset, normalization)` train
//! split and then specialized per measure with
//! [`TrainIndex::prepare_measure`]:
//!
//! * measures reporting [`IndexProfile::KeoghDtw`] (plain banded DTW) get
//!   a [`DtwBandIndex`] — full Keogh envelopes plus their per-segment PAA
//!   summary — powering the lower-bound cascade
//!   `LB_PAA → LB_Keogh → distance_upto`;
//! * measures declaring a non-`None` [`MetricRegime`] get a
//!   [`PivotTable`] of exact pivot distances, powering reverse-triangle
//!   pruning — after the declared regime passes sampled conformance
//!   ([`assert_metric_on`]). That check is a smoke test, not a proof: it
//!   catches a wrongly-flagged measure only when a sampled triple
//!   violates the triangle inequality, and one that passes can still
//!   corrupt pruned answers.
//!
//! The scan engine in `tsdist-eval` asks [`TrainIndex::plan`] per query
//! row; anything that doesn't fit (ragged train, length mismatch,
//! positive-regime data with a non-positive query, unprepared measure)
//! gets [`QueryPlan::Linear`], i.e. an unpruned or cutoff-threaded scan.
//! The base index also holds the strided sample table behind
//! [`cheap_score`], the candidate order of those cutoff-threaded scans,
//! and the [`PlanMemory`] in which Auto scans remember what each bounded
//! plan and Exact cost on this split (see [`plans`]).
//! Every bound produced here is deflated for floating-point safety
//! (see [`paa::LB_DEFLATE`] and [`pivots::PIVOT_MARGIN`]), which is what
//! lets the planner skip candidates while keeping 1-NN/k-NN answers
//! byte-identical to the exact scan, ties included.

pub mod paa;
pub mod pivots;
pub mod plans;

use std::collections::BTreeMap;

use crate::elastic::{band_radius, keogh_envelope};
use crate::measure::{Distance, IndexProfile, MetricRegime, EPS};

pub use paa::{envelope_summary, lb_paa, paa_means, segment_bounds, LB_DEFLATE};
pub use pivots::{assert_metric_on, find_metric_violation, PivotTable, PIVOT_MARGIN};
pub use plans::{Choice, PlanKey, PlanMemory, RowCost};

/// Seed for the conformance sampling run at pivot-table build time.
const CONFORMANCE_SEED: u64 = 0x7D15_7A9C_E11B_0001;

/// Keogh envelopes for one DTW band over the whole train split, plus the
/// per-segment PAA summary of each envelope.
#[derive(Debug, Clone)]
pub struct DtwBandIndex {
    band: usize,
    /// Per train series: the `(upper, lower)` Keogh envelope.
    envelopes: Vec<(Vec<f64>, Vec<f64>)>,
    /// Segment-major `segments × n` envelope summaries: `umax[s * n + j]`
    /// is `Û_s` of train series `j` and `lmin[s * n + j]` its `L̂_s`.
    /// One segment of every candidate is contiguous, which is what the
    /// row sweep of [`DtwBandIndex::lb_paa_row`] reads.
    umax: Vec<f64>,
    lmin: Vec<f64>,
    /// Per train series: every value finite. Sliding min/max over NaN is
    /// comparison-order-dependent, so envelopes of unclean series can be
    /// finite garbage — such candidates must never be pruned by a bound.
    /// A clean series has a finite envelope and summary.
    clean: Vec<bool>,
}

impl DtwBandIndex {
    fn build(train: &[Vec<f64>], band: usize, bounds: &[usize]) -> Self {
        let envelopes: Vec<_> = train.iter().map(|t| keogh_envelope(t, band)).collect();
        let n = train.len();
        let segments = bounds.len() - 1;
        let mut umax = vec![0.0; segments * n];
        let mut lmin = vec![0.0; segments * n];
        for (j, (u, l)) in envelopes.iter().enumerate() {
            let (su, sl) = envelope_summary(u, l, bounds);
            for (s, (u, l)) in su.into_iter().zip(sl).enumerate() {
                umax[s * n + j] = u;
                lmin[s * n + j] = l;
            }
        }
        let clean = train
            .iter()
            .map(|t| t.iter().all(|v| v.is_finite()))
            .collect();
        DtwBandIndex {
            band,
            envelopes,
            umax,
            lmin,
            clean,
        }
    }

    /// Whether train series `j` is fully finite — only then are its
    /// envelope-derived bounds trustworthy; unclean candidates fall back
    /// to the exact computation.
    pub fn is_clean(&self, j: usize) -> bool {
        self.clean[j]
    }

    /// The absolute Sakoe–Chiba radius the envelopes were built with.
    pub fn band(&self) -> usize {
        self.band
    }

    /// The full Keogh envelope of train series `j`.
    pub fn envelope(&self, j: usize) -> (&[f64], &[f64]) {
        let (u, l) = &self.envelopes[j];
        (u, l)
    }

    /// LB_PAA of a query (summarized by `qmeans` under the index's
    /// segment bounds) against train series `j`. Unclean candidates get
    /// the vacuous bound `0.0`.
    pub fn lb_paa(&self, qmeans: &[f64], bounds: &[usize], j: usize) -> f64 {
        if !self.clean[j] {
            return 0.0;
        }
        let n = self.clean.len();
        let umax = self.umax[j..].iter().step_by(n).copied();
        let lmin = self.lmin[j..].iter().step_by(n).copied();
        paa::lb_paa_by(qmeans, umax, lmin, bounds)
    }

    /// [`DtwBandIndex::lb_paa`] of the query against every train series,
    /// written into `out` (cleared first) bit for bit, in one sweep per
    /// segment across all candidates. Each candidate's terms accumulate
    /// in segment order with the same expression. A non-finite query
    /// mean gives every candidate `0.0`, as it does per candidate, since
    /// clean candidates have a finite summary.
    pub fn lb_paa_row(&self, qmeans: &[f64], bounds: &[usize], out: &mut Vec<f64>) {
        let n = self.clean.len();
        out.clear();
        out.resize(n, 0.0);
        if n == 0 {
            return;
        }
        let segments = qmeans
            .iter()
            .zip(bounds.windows(2))
            .zip(self.umax.chunks_exact(n).zip(self.lmin.chunks_exact(n)));
        if !segments.clone().all(|((q, _), _)| q.is_finite()) {
            return;
        }
        for ((&q, w), (umax, lmin)) in segments {
            let m = paa::segment_len(w);
            for ((acc, &u), &l) in out.iter_mut().zip(umax).zip(lmin) {
                *acc += paa::paa_term(q, u, l, m);
            }
        }
        for (acc, &clean) in out.iter_mut().zip(&self.clean) {
            *acc = if clean { paa::deflate(*acc) } else { 0.0 };
        }
    }
}

/// Counts the serve layer's `health` command reports per shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Indexed train series.
    pub series: u64,
    /// Distinct DTW bands with an envelope + PAA structure.
    pub dtw_bands: u64,
    /// Measures with a built pivot table.
    pub pivot_tables: u64,
}

/// How the planner should search one query row.
#[derive(Clone, Copy)]
pub enum QueryPlan<'a> {
    /// LB_PAA → cached LB_Keogh → `distance_upto` cascade.
    Cascade(&'a DtwBandIndex),
    /// Reverse-triangle pivot pruning → `distance_upto`.
    Pivots(&'a PivotTable),
    /// No admissible structure: a scan over every candidate.
    Linear,
}

/// The per-train-split index: PAA segment layout shared by every band,
/// lazily populated per-measure structures.
#[derive(Debug, Clone, Default)]
pub struct TrainIndex {
    /// Uniform series length; `0` when the split is empty or ragged (the
    /// index then refuses every plan).
    series_len: usize,
    n: usize,
    /// Every train value `>= EPS` — the gate for `MetricRegime::Positive`
    /// pivot tables.
    positive: bool,
    /// Shared PAA segment boundaries (`segments + 1` cut points).
    bounds: Vec<usize>,
    dtw_bands: BTreeMap<usize, DtwBandIndex>,
    pivot_tables: BTreeMap<String, PivotTable>,
    /// The positions [`cheap_score`] samples in a series of `series_len`
    /// points.
    sample_positions: Vec<usize>,
    /// Flat `n x sample_positions.len()` table: row `j` holds train
    /// series `j`'s samples.
    samples: Vec<f64>,
    /// What each bounded plan and Exact cost per candidate on this
    /// split, for every Auto scan of it.
    plans: PlanMemory,
}

/// The stride [`cheap_score`] samples two series of `n` points with.
fn cheap_stride(n: usize) -> usize {
    (n / 16).max(1)
}

/// Sampled squared-difference score of `x` against `y`, used only to
/// *order* candidates so a cutoff-threaded scan tightens its cutoff
/// fast; no answer depends on it.
pub fn cheap_score(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let mut acc = 0.0;
    for k in (0..n).step_by(cheap_stride(n)) {
        let d = x[k] - y[k];
        acc += d * d;
    }
    acc
}

/// Target points per PAA segment: segments = `len / 8`, clamped to
/// `[1, 64]`. Coarse enough that summaries stay tiny, fine enough that
/// LB_PAA keeps most of LB_Keogh's pruning power.
fn default_segments(len: usize) -> usize {
    (len / 8).clamp(1, 64)
}

impl TrainIndex {
    /// Builds the base index over a train split. Cheap — per-measure
    /// structures are added by [`TrainIndex::prepare_measure`].
    pub fn build(train: &[Vec<f64>]) -> Self {
        let series_len = train.first().map_or(0, Vec::len);
        let uniform = series_len > 0 && train.iter().all(|t| t.len() == series_len);
        if !uniform {
            return TrainIndex::default();
        }
        let sample_positions: Vec<usize> =
            (0..series_len).step_by(cheap_stride(series_len)).collect();
        let samples = train
            .iter()
            .flat_map(|t| sample_positions.iter().map(|&p| t[p]))
            .collect();
        TrainIndex {
            series_len,
            n: train.len(),
            positive: train.iter().all(|t| t.iter().all(|&v| v >= EPS)),
            bounds: segment_bounds(series_len, default_segments(series_len)),
            dtw_bands: BTreeMap::new(),
            pivot_tables: BTreeMap::new(),
            sample_positions,
            samples,
            plans: PlanMemory::default(),
        }
    }

    /// Fills `scores` with [`cheap_score`]`(query, train[j])` for every
    /// indexed series `j`, read from the hoisted sample table instead of
    /// the series: the positions and the accumulation order are the
    /// same, so the scores are bit-identical. `qsamples` is scratch.
    ///
    /// Returns `false` (leaving `scores` untouched) when the index is
    /// inert or `query` has another length (its sample positions would
    /// differ); callers then score the series themselves.
    pub fn cheap_scores(
        &self,
        query: &[f64],
        qsamples: &mut Vec<f64>,
        scores: &mut Vec<f64>,
    ) -> bool {
        if self.series_len == 0 || query.len() != self.series_len {
            return false;
        }
        qsamples.clear();
        qsamples.extend(self.sample_positions.iter().map(|&p| query[p]));
        scores.clear();
        scores.extend(self.samples.chunks_exact(qsamples.len()).map(|row| {
            let mut acc = 0.0;
            for (a, b) in qsamples.iter().zip(row) {
                let d = a - b;
                acc += d * d;
            }
            acc
        }));
        true
    }

    /// Number of indexed train series (0 when the split was empty or
    /// ragged and the index is inert).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index holds no series.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The uniform series length, when the split was indexable.
    pub fn series_len(&self) -> Option<usize> {
        (self.series_len > 0).then_some(self.series_len)
    }

    /// The shared PAA segment boundaries.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Builds (idempotently) the per-measure structure for `d`: a
    /// [`DtwBandIndex`] for `IndexProfile::KeoghDtw` measures, a
    /// conformance-checked [`PivotTable`] for declared metrics. `train`
    /// must be the same split the index was built over.
    ///
    /// # Panics
    /// Panics when `d` declares a [`MetricRegime`] that fails sampled
    /// triangle-inequality conformance. The sample is a smoke test, not a
    /// proof: a wrong flag that passes it goes undetected.
    pub fn prepare_measure(&mut self, d: &dyn Distance, train: &[Vec<f64>]) {
        if self.series_len == 0 || train.len() != self.n {
            return;
        }
        match d.index_profile() {
            IndexProfile::KeoghDtw { window_pct } => {
                let band = band_radius(window_pct, self.series_len, self.series_len);
                self.dtw_bands
                    .entry(band)
                    .or_insert_with(|| DtwBandIndex::build(train, band, &self.bounds));
            }
            IndexProfile::None => {
                let regime = d.metric_regime();
                let eligible = d.is_symmetric()
                    && match regime {
                        MetricRegime::All => true,
                        MetricRegime::Positive => self.positive,
                        MetricRegime::None => false,
                    };
                if eligible && !self.pivot_tables.contains_key(&d.name()) {
                    assert_metric_on(d, regime, train, CONFORMANCE_SEED);
                    self.pivot_tables
                        .insert(d.name(), pivots::build_pivot_table(d, train));
                }
            }
        }
    }

    /// Resolves the search plan for one query row:
    /// [`TrainIndex::measure_plan`], unless [`TrainIndex::admits`] turns
    /// the query down.
    pub fn plan(&self, d: &dyn Distance, query: &[f64]) -> QueryPlan<'_> {
        let plan = self.measure_plan(d);
        if self.admits(&plan, query) {
            plan
        } else {
            QueryPlan::Linear
        }
    }

    /// The structure prepared for `d`, whatever the query:
    /// [`QueryPlan::Linear`] when there is none. A scan resolves it once
    /// and asks [`TrainIndex::admits`] per row, so the measure's name is
    /// formatted once, not per row.
    pub fn measure_plan(&self, d: &dyn Distance) -> QueryPlan<'_> {
        if self.series_len == 0 {
            return QueryPlan::Linear;
        }
        let structure = match d.index_profile() {
            IndexProfile::KeoghDtw { window_pct } => {
                let band = band_radius(window_pct, self.series_len, self.series_len);
                self.dtw_bands.get(&band).map(QueryPlan::Cascade)
            }
            IndexProfile::None => self.pivot_tables.get(&d.name()).map(QueryPlan::Pivots),
        };
        structure.unwrap_or(QueryPlan::Linear)
    }

    /// Whether `query` may take `plan`: the structure is admissible only
    /// for a query of the indexed length, and a positive-regime pivot
    /// table only for a query with no coordinate below `EPS` (NaN
    /// coordinates fail that gate too).
    pub fn admits(&self, plan: &QueryPlan<'_>, query: &[f64]) -> bool {
        query.len() == self.series_len
            && match plan {
                QueryPlan::Pivots(t) if t.regime() == MetricRegime::Positive => {
                    query.iter().all(|&v| v >= EPS)
                }
                _ => true,
            }
    }

    /// Per-segment means of `query` under the index's boundaries —
    /// scratch for [`DtwBandIndex::lb_paa`] and [`DtwBandIndex::lb_paa_row`].
    pub fn query_means(&self, query: &[f64], out: &mut Vec<f64>) {
        paa_means(query, &self.bounds, out);
    }

    /// The plan memory of Auto scans of this split: one entry per
    /// bounded plan, keyed like the structures (a Cascade by its band, a
    /// pivot table or a Cutoff by the measure's name), kept for the
    /// index's lifetime.
    pub fn plans(&self) -> &PlanMemory {
        &self.plans
    }

    /// Structure counts, for `serve` health reporting and benches.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            series: self.n as u64,
            dtw_bands: self.dtw_bands.len() as u64,
            pivot_tables: self.pivot_tables.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::Dtw;
    use crate::lockstep::{Canberra, Euclidean, SquaredEuclidean};

    fn toy_train(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|t| ((i * 5 + t) as f64 * 0.41).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty_and_ragged_splits_yield_an_inert_index() {
        let mut ix = TrainIndex::build(&[]);
        ix.prepare_measure(&Euclidean, &[]);
        assert!(matches!(ix.plan(&Euclidean, &[1.0]), QueryPlan::Linear));
        assert_eq!(ix.stats(), IndexStats::default());

        let ragged = vec![vec![1.0, 2.0], vec![1.0, 2.0, 3.0]];
        let ix = TrainIndex::build(&ragged);
        assert!(ix.series_len().is_none());
        assert!(matches!(
            ix.plan(&Euclidean, &[1.0, 2.0]),
            QueryPlan::Linear
        ));
    }

    #[test]
    fn hoisted_cheap_scores_are_bit_identical() {
        let train = toy_train(7, 33);
        let query: Vec<f64> = (0..33).map(|t| (t as f64 * 0.9).cos()).collect();
        let ix = TrainIndex::build(&train);
        let (mut qs, mut scores) = (Vec::new(), Vec::new());
        assert!(ix.cheap_scores(&query, &mut qs, &mut scores));
        for (j, t) in train.iter().enumerate() {
            assert_eq!(scores[j].to_bits(), cheap_score(&query, t).to_bits());
        }
        // A query of another length samples other positions: the table
        // must refuse, and so must an inert index.
        assert!(!ix.cheap_scores(&query[..10], &mut qs, &mut scores));
        assert!(!TrainIndex::build(&[]).cheap_scores(&[], &mut qs, &mut scores));
    }

    #[test]
    fn lb_paa_rows_match_the_per_candidate_bound_bit_for_bit() {
        let len = 128;
        let finite: Vec<f64> = (0..len)
            .map(|t| 1.2 + 1.1 * (t as f64 * 0.23).cos())
            .collect();
        let mut queries = vec![finite.clone()];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut q = finite.clone();
            q[len / 3] = bad;
            queries.push(q);
        }
        for n in [1, 7, 8, 9, 3000] {
            let mut train = toy_train(n, len);
            // Unclean series, the first and last among them.
            for (j, t) in train.iter_mut().enumerate().step_by(4) {
                t[j % len] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][j % 3];
            }
            for segments in [1, 64] {
                let bounds = segment_bounds(len, segments);
                let bix = DtwBandIndex::build(&train, 6, &bounds);
                let (mut qmeans, mut row) = (Vec::new(), Vec::new());
                let mut positive = 0;
                for q in &queries {
                    paa_means(q, &bounds, &mut qmeans);
                    bix.lb_paa_row(&qmeans, &bounds, &mut row);
                    assert_eq!(row.len(), n);
                    for (j, &lb) in row.iter().enumerate() {
                        let one = bix.lb_paa(&qmeans, &bounds, j);
                        assert_eq!(lb.to_bits(), one.to_bits(), "n={n} s={segments} j={j}");
                        // The per-candidate summary layout, rebuilt.
                        let (u, l) = bix.envelope(j);
                        let (umax, lmin) = envelope_summary(u, l, &bounds);
                        let flat = lb_paa(&qmeans, &umax, &lmin, &bounds);
                        let expect = if bix.is_clean(j) { flat } else { 0.0 };
                        assert_eq!(lb.to_bits(), expect.to_bits(), "n={n} s={segments} j={j}");
                        positive += usize::from(lb > 0.0);
                    }
                }
                // Series 0 is unclean, the only one when n = 1.
                assert!(
                    n == 1 || positive > 0,
                    "n={n} s={segments}: every bound is zero"
                );
            }
        }
        let empty = DtwBandIndex::build(&[], 2, &segment_bounds(8, 2));
        let mut row = vec![1.0];
        empty.lb_paa_row(&[0.0, 0.0], &segment_bounds(8, 2), &mut row);
        assert!(row.is_empty());
    }

    #[test]
    fn dtw_measures_get_a_cascade_plan_and_share_bands() {
        let train = toy_train(12, 40);
        let mut ix = TrainIndex::build(&train);
        ix.prepare_measure(&Dtw::with_window_pct(10.0), &train);
        ix.prepare_measure(&Dtw::with_window_pct(10.0), &train);
        assert_eq!(ix.stats().dtw_bands, 1);
        let q = vec![0.0; 40];
        assert!(matches!(
            ix.plan(&Dtw::with_window_pct(10.0), &q),
            QueryPlan::Cascade(_)
        ));
        // Unprepared band and mismatched length fall back.
        assert!(matches!(
            ix.plan(&Dtw::with_window_pct(50.0), &q),
            QueryPlan::Linear
        ));
        assert!(matches!(
            ix.plan(&Dtw::with_window_pct(10.0), &[0.0; 8]),
            QueryPlan::Linear
        ));
    }

    #[test]
    fn metric_measures_get_pivots_and_unflagged_ones_do_not() {
        let train = toy_train(16, 24);
        let mut ix = TrainIndex::build(&train);
        ix.prepare_measure(&Euclidean, &train);
        ix.prepare_measure(&SquaredEuclidean, &train);
        assert_eq!(ix.stats().pivot_tables, 1);
        let q = vec![0.25; 24];
        assert!(matches!(ix.plan(&Euclidean, &q), QueryPlan::Pivots(_)));
        assert!(matches!(ix.plan(&SquaredEuclidean, &q), QueryPlan::Linear));
    }

    #[test]
    fn positive_regime_gates_on_train_and_query_positivity() {
        // Z-scored-style train data (negatives): Canberra must not get a
        // pivot table at all.
        let train = toy_train(10, 16);
        let mut ix = TrainIndex::build(&train);
        ix.prepare_measure(&Canberra, &train);
        assert_eq!(ix.stats().pivot_tables, 0);

        // Positive train data: the table builds, but a query dipping
        // below EPS still falls back to linear.
        let pos: Vec<Vec<f64>> = toy_train(10, 16)
            .into_iter()
            .map(|t| t.into_iter().map(|v| 1.5 + v).collect())
            .collect();
        let mut ix = TrainIndex::build(&pos);
        ix.prepare_measure(&Canberra, &pos);
        assert_eq!(ix.stats().pivot_tables, 1);
        assert!(matches!(
            ix.plan(&Canberra, &[0.5; 16]),
            QueryPlan::Pivots(_)
        ));
        let mut bad = vec![0.5; 16];
        bad[3] = 0.0;
        assert!(matches!(ix.plan(&Canberra, &bad), QueryPlan::Linear));
    }
}
