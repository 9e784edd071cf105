//! Triangle-inequality pivot pruning for metric measures.
//!
//! A pivot table stores the exact distances from a handful of train
//! series ("pivots", chosen by deterministic farthest-point traversal) to
//! every train series. At query time, the exact distances `a_p = d(q, p)`
//! to the pivots give the reverse-triangle lower bound
//!
//! ```text
//! d(q, t) ≥ max_p |a_p − d(p, t)|
//! ```
//!
//! for any measure that is a symmetric (pseudo)metric on the data regime
//! — exactly what [`MetricRegime`] declares and [`assert_metric_on`]
//! verifies by sampling. Each pairwise bound is shrunk by
//! [`PIVOT_MARGIN`]-relative slack before use so floating-point error in
//! either distance evaluation can never make the bound inadmissible.

use crate::measure::{Distance, MetricRegime, EPS};
use crate::workspace::Workspace;

/// Relative slack subtracted from each reverse-triangle bound:
/// `lb = |a − b| − PIVOT_MARGIN · (|a| + |b|)`. Distance evaluations are
/// accurate to a few ULPs times the term count (≪ 1e-9 relative), so the
/// deflated bound stays below the true distance.
pub const PIVOT_MARGIN: f64 = 1e-9;

/// Exact pivot-to-train distances for one measure, valid on
/// [`PivotTable::regime`].
#[derive(Debug, Clone)]
pub struct PivotTable {
    regime: MetricRegime,
    pivots: Vec<usize>,
    /// Row-major `pivots.len() × n` exact distances `d(pivot, train[j])`.
    dists: Vec<f64>,
    n: usize,
}

impl PivotTable {
    /// The train indices serving as pivots.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// The regime the backing measure declared (and was checked on).
    pub fn regime(&self) -> MetricRegime {
        self.regime
    }

    /// The stored exact distance from pivot `pi` (position in
    /// [`PivotTable::pivots`]) to train series `j`.
    pub fn dist(&self, pi: usize, j: usize) -> f64 {
        self.dists[pi * self.n + j]
    }

    /// The reverse-triangle lower bound on `d(q, train[j])` given the
    /// exact query-to-pivot distances `qd` (aligned with
    /// [`PivotTable::pivots`]).
    ///
    /// Non-finite inputs collapse the pairwise term to `0.0` (`∞ − ∞` and
    /// NaN both fail the max against zero), so a degenerate distance can
    /// never prune a candidate.
    pub fn lower_bound(&self, qd: &[f64], j: usize) -> f64 {
        let mut lb = 0.0f64;
        for (pi, &a) in qd.iter().enumerate() {
            lb = lb.max(pivot_term(a, self.dist(pi, j)));
        }
        lb
    }

    /// [`PivotTable::lower_bound`] of every train series, written into
    /// `out` (cleared first) bit for bit, in one sweep per pivot across
    /// the row-major table: each candidate takes the maximum of the same
    /// terms in the same pivot order.
    pub fn lower_bounds(&self, qd: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n, 0.0);
        if self.n == 0 {
            return;
        }
        for (&a, row) in qd.iter().zip(self.dists.chunks_exact(self.n)) {
            for (lb, &b) in out.iter_mut().zip(row) {
                *lb = lb.max(pivot_term(a, b));
            }
        }
    }
}

/// One pivot's reverse-triangle term `|a − b|`, shrunk by
/// [`PIVOT_MARGIN`]; a non-finite term counts as `0.0`.
#[inline(always)]
fn pivot_term(a: f64, b: f64) -> f64 {
    let t = (a - b).abs() - PIVOT_MARGIN * (a.abs() + b.abs());
    if t.is_finite() {
        t
    } else {
        0.0
    }
}

/// How many pivots to select for `n` train series.
fn pivot_count(n: usize) -> usize {
    n.min(8)
}

/// Builds the pivot table for `d` over `train` with deterministic
/// farthest-point ("maxmin") selection: pivot 0 is train series 0, each
/// further pivot is the series maximizing its minimum distance to the
/// already-chosen pivots (ties to the lowest index).
///
/// The caller is responsible for having validated `d`'s declared regime
/// (see [`assert_metric_on`]); this function only measures.
pub(crate) fn build_pivot_table(d: &dyn Distance, train: &[Vec<f64>]) -> PivotTable {
    let n = train.len();
    let k = pivot_count(n);
    let mut ws = Workspace::default();
    let mut pivots = Vec::with_capacity(k);
    let mut dists = Vec::with_capacity(k * n);
    // min-distance-to-chosen-pivots per candidate, for maxmin selection.
    let mut mind = vec![f64::INFINITY; n];
    let mut next = 0usize;
    for _ in 0..k {
        pivots.push(next);
        let row_start = dists.len();
        for t in train {
            dists.push(d.distance_ws(&train[next], t, &mut ws));
        }
        let row = &dists[row_start..];
        let mut best = f64::NEG_INFINITY;
        let mut best_j = next;
        for (j, (&dv, m)) in row.iter().zip(&mut mind).enumerate() {
            // NaN distances sort as "near" so they are never picked.
            let dv = if dv.is_finite() { dv } else { 0.0 };
            if dv < *m {
                *m = dv;
            }
            if *m > best && !pivots.contains(&j) {
                best = *m;
                best_j = j;
            }
        }
        next = best_j;
        if pivots.contains(&next) {
            break; // all remaining candidates are duplicates of a pivot
        }
    }
    PivotTable {
        regime: d.metric_regime(),
        pivots,
        dists,
        n,
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the splitmix64 stream.
fn unit(x: &mut u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Samples a series of `len` points inside `regime`.
fn sample_series(regime: MetricRegime, len: usize, state: &mut u64) -> Vec<f64> {
    (0..len)
        .map(|_| match regime {
            // Density-like positive data: the regime Positive declares.
            MetricRegime::Positive => EPS + unit(state) * 2.0,
            // Anything: zeros, negatives, ties.
            _ => unit(state) * 4.0 - 2.0,
        })
        .collect()
}

/// Checks one triple for the (tolerance-slackened) triangle inequality
/// and bit-exact symmetry when the measure claims it. Returns a
/// human-readable violation description, or `None`.
fn triple_violation(d: &dyn Distance, x: &[f64], y: &[f64], z: &[f64]) -> Option<String> {
    let dxy = d.distance(x, y);
    let dyz = d.distance(y, z);
    let dxz = d.distance(x, z);
    let tol = PIVOT_MARGIN * (dxy.abs() + dyz.abs() + dxz.abs()) + 1e-12;
    if dxz > dxy + dyz + tol {
        return Some(format!(
            "triangle inequality violated: d(x,z)={dxz} > d(x,y)+d(y,z)={}",
            dxy + dyz
        ));
    }
    if d.is_symmetric() && d.distance(y, x).to_bits() != dxy.to_bits() {
        return Some("claimed bit-exact symmetry does not hold".into());
    }
    None
}

/// Validates a declared [`MetricRegime`] by sampling random triples from
/// the regime and checking the triangle inequality (plus claimed
/// symmetry). Returns the first violation found, or `None` when `trials`
/// sampled triples all pass.
///
/// This is the conformance teeth behind the explicit `metric` flags: a
/// wrongly-flagged measure fails here — loudly, via
/// [`assert_metric_on`] at pivot-table build time and via the
/// registry-wide conformance test — instead of silently corrupting
/// pruned 1-NN answers.
pub fn find_metric_violation(
    d: &dyn Distance,
    regime: MetricRegime,
    series_len: usize,
    seed: u64,
    trials: usize,
) -> Option<String> {
    if regime == MetricRegime::None || series_len == 0 {
        return None;
    }
    let mut state = seed ^ 0xD1F2_4C3B_9E8A_7655;
    for _ in 0..trials {
        let x = sample_series(regime, series_len, &mut state);
        let y = sample_series(regime, series_len, &mut state);
        let z = sample_series(regime, series_len, &mut state);
        if let Some(v) = triple_violation(d, &x, &y, &z) {
            return Some(v);
        }
    }
    None
}

/// Panics with the violation when `d`'s declared `regime` fails sampled
/// triangle-inequality conformance — on synthetic triples drawn from the
/// regime *and* on triples drawn from the actual `train` data the pivot
/// table is about to index.
pub fn assert_metric_on(d: &dyn Distance, regime: MetricRegime, train: &[Vec<f64>], seed: u64) {
    let series_len = train.first().map_or(0, Vec::len);
    if let Some(v) = find_metric_violation(d, regime, series_len, seed, 32) {
        // tsdist-lint: allow(no-unwrap-in-lib, reason = "documented loud-failure contract: a wrongly-flagged metric must abort index construction rather than silently corrupt pruned answers")
        panic!(
            "measure {:?} declares {:?} but failed metric conformance: {v}",
            d.name(),
            regime
        );
    }
    let n = train.len();
    if n >= 3 {
        let mut state = seed ^ 0x5851_F42D_4C95_7F2D;
        for _ in 0..32 {
            let i = (splitmix64(&mut state) % n as u64) as usize;
            let j = (splitmix64(&mut state) % n as u64) as usize;
            let k = (splitmix64(&mut state) % n as u64) as usize;
            if let Some(v) = triple_violation(d, &train[i], &train[j], &train[k]) {
                // tsdist-lint: allow(no-unwrap-in-lib, reason = "documented loud-failure contract: a wrongly-flagged metric must abort index construction rather than silently corrupt pruned answers")
                panic!(
                    "measure {:?} declares {:?} but failed metric conformance on train data ({i},{j},{k}): {v}",
                    d.name(),
                    regime
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::{Canberra, CityBlock, Euclidean, Minkowski, Sorensen, SquaredEuclidean};

    fn toy_train(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|t| ((i * 7 + t) as f64 * 0.37).sin() + 0.01 * i as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pivot_bounds_never_exceed_true_distances() {
        let train = toy_train(24, 32);
        let table = build_pivot_table(&Euclidean, &train);
        let mut ws = Workspace::default();
        let query: Vec<f64> = (0..32).map(|t| (t as f64 * 0.61).cos()).collect();
        let qd: Vec<f64> = table
            .pivots()
            .iter()
            .map(|&p| Euclidean.distance_ws(&query, &train[p], &mut ws))
            .collect();
        for (j, t) in train.iter().enumerate() {
            let lb = table.lower_bound(&qd, j);
            let d = Euclidean.distance_ws(&query, t, &mut ws);
            assert!(lb <= d, "pivot lb {lb} > true {d} for candidate {j}");
        }
    }

    #[test]
    fn lower_bound_rows_match_the_per_candidate_bound_bit_for_bit() {
        let query: Vec<f64> = (0..16).map(|t| (t as f64 * 0.61).cos()).collect();
        for n in [1, 7, 8, 9, 3000] {
            let train = toy_train(n, 16);
            let mut table = build_pivot_table(&Euclidean, &train);
            // Degenerate stored distances: ±∞ and NaN.
            for (i, d) in table.dists.iter_mut().enumerate() {
                match i % 13 {
                    3 => *d = f64::INFINITY,
                    7 => *d = f64::NAN,
                    11 => *d = f64::NEG_INFINITY,
                    _ => {}
                }
            }
            let qd: Vec<f64> = table
                .pivots()
                .iter()
                .map(|&p| Euclidean.distance(&query, &train[p]))
                .collect();
            let mut cases = vec![qd.clone()];
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut q = qd.clone();
                q[qd.len() / 2] = bad;
                cases.push(q);
            }
            let mut row = Vec::new();
            let mut positive = 0;
            for qd in &cases {
                table.lower_bounds(qd, &mut row);
                assert_eq!(row.len(), n);
                for (j, &lb) in row.iter().enumerate() {
                    let one = table.lower_bound(qd, j);
                    assert_eq!(lb.to_bits(), one.to_bits(), "n={n} j={j} qd={qd:?}");
                    positive += usize::from(lb > 0.0);
                }
            }
            assert!(n == 1 || positive > 0, "n={n}: every bound is zero");
        }
    }

    #[test]
    fn pivot_selection_is_deterministic_and_duplicate_free() {
        let train = toy_train(40, 16);
        let a = build_pivot_table(&CityBlock, &train);
        let b = build_pivot_table(&CityBlock, &train);
        assert_eq!(a.pivots(), b.pivots());
        let mut seen = a.pivots().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), a.pivots().len());
    }

    #[test]
    fn correctly_flagged_measures_pass_conformance() {
        for (d, regime) in [
            (Box::new(Euclidean) as Box<dyn Distance>, MetricRegime::All),
            (Box::new(CityBlock), MetricRegime::All),
            (Box::new(Canberra), MetricRegime::Positive),
        ] {
            assert_eq!(d.metric_regime(), regime);
            assert!(find_metric_violation(d.as_ref(), regime, 24, 7, 64).is_none());
        }
    }

    #[test]
    fn wrongly_flagged_measures_fail_loudly() {
        // Squared Euclidean and fractional Minkowski are classic
        // triangle-inequality breakers; flagging them `All` must be
        // caught by the sampler.
        assert!(find_metric_violation(&SquaredEuclidean, MetricRegime::All, 16, 7, 256).is_some());
        // Fractional Minkowski and Sorensen (Bray–Curtis) violate the
        // triangle inequality on directed triples that uniform random
        // sampling rarely lands on — the data-triple arm of
        // `assert_metric_on` is what catches measures like these when
        // real data exhibits the concentrated shapes that break them.
        let x = vec![1.0, 0.0];
        let y = vec![0.0, 0.0];
        let z = vec![0.0, 1.0];
        assert!(triple_violation(&Minkowski::new(0.5), &x, &y, &z).is_some());
        let x = vec![1.0, 0.0001];
        let y = vec![1.0, 1.0];
        let z = vec![0.0001, 1.0];
        assert!(triple_violation(&Sorensen, &x, &y, &z).is_some());
    }

    #[test]
    #[should_panic(expected = "metric conformance")]
    fn assert_metric_on_panics_for_a_wrong_flag() {
        assert_metric_on(&SquaredEuclidean, MetricRegime::All, &toy_train(8, 16), 3);
    }
}
