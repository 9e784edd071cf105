//! The plan memory behind the scan engine's Auto plan: per bounded plan
//! of a train split, what a row cost under it and under Exact, and the
//! rule that picks the cheaper one.
//!
//! A row with a bounded plan (the Cascade, Pivots or Cutoff) can always
//! be answered by Exact instead, with the same answer. Which is faster
//! depends on how tight the bounds are on this split, which only a
//! measurement shows. [`PlanMemory`] keeps the last few per-candidate
//! costs of both plans for each [`PlanKey`] and [`PlanMemory::decide`]s
//! each row:
//!
//! 1. the bounded plan until it has a timed row;
//! 2. the bounded plan when the Cascade's own lane blocks price an Exact
//!    candidate at more than [`CLEAR_WIN`] times the bounded plan's cost
//!    (the Cascade's survivors run in the Exact kernel's lane blocks, so
//!    no Exact row has to be spent to see a clear win);
//! 3. Exact until it has a timed row;
//! 4. while neither plan is [`CLEAR_WIN`] times cheaper than the other,
//!    whichever has fewer timed rows, until both have [`MIN_SAMPLES`];
//! 5. then the cheaper plan by median cost per candidate, where Exact
//!    must be cheaper by [`EXACT_MARGIN`]: a near tie keeps the bounded
//!    plan. The other plan runs once more at probe rows, so a bad early
//!    sample or a drifting workload is corrected: the gap to the next
//!    probe at least doubles the rows so far and, once both plans have
//!    [`MIN_SAMPLES`] rows, is wide enough that probes cost at most
//!    [`PROBE_SHARE`] of the rows' time. (Before that, a clear gap may
//!    rest on one outlying row, so the loser is probed at doubling rows
//!    until it is priced.)
//!
//! The memory only moves speed. Every plan gives the same answers, so no
//! timing, noise or sharing pattern can change a result.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Timed rows each plan needs before a close comparison is trusted; the
/// median of three ignores one outlier (a preempted row, a cold cache).
pub const MIN_SAMPLES: usize = 3;
/// Per-candidate costs kept per plan: the median of the last few rows.
const KEPT: usize = 5;
/// Exact replaces the bounded plan only when it is cheaper by this
/// factor; below it the bounded plan stays.
pub const EXACT_MARGIN: f64 = 1.05;
/// A gap this wide is trusted from one timed row of each plan: sampling
/// a plan that loses by that much costs more than a wrong call risks.
pub const CLEAR_WIN: f64 = 2.0;
/// The largest share of a key's rows' time that probes of the losing
/// plan may add.
pub const PROBE_SHARE: f64 = 0.02;

/// What a bounded plan's memory is keyed by: the index structure it
/// reads, or the measure when it has none.
// The derive expands to `partial_cmp` over integer/string fields only;
// the workspace ban targets NaN-unaware *float* comparison.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanKey {
    /// The Cascade of one DTW band (its absolute radius).
    Cascade(usize),
    /// The pivot table of the named measure.
    Pivots(String),
    /// The Cutoff plan of the named measure.
    Cutoff(String),
}

/// The plan Auto takes for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// The row's bounded plan (Cascade, Pivots or Cutoff).
    Bounded,
    /// The full row from the measure's row kernel.
    Exact,
}

/// The measured cost of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCost {
    /// The plan the row ran under.
    pub taken: Choice,
    /// Wall nanoseconds of the row.
    pub nanos: u64,
    /// Candidates the row considered.
    pub candidates: u64,
    /// Nanoseconds the row spent in lane blocks of the Exact kernel
    /// (Cascade survivors), and the candidates those blocks computed.
    pub lane_nanos: u64,
    /// See `lane_nanos`.
    pub lanes: u64,
}

/// The last [`KEPT`] per-candidate costs of one plan, oldest overwritten,
/// and their median.
#[derive(Debug, Clone, Copy, Default)]
struct Samples {
    kept: [f64; KEPT],
    len: usize,
    next: usize,
    /// The median cost per candidate (the lower middle of an even
    /// count); `None` until a row is in. Kept here so that deciding a
    /// row reads it instead of sorting.
    median: Option<f64>,
}

impl Samples {
    fn push(&mut self, nanos: u64, candidates: u64) {
        if candidates == 0 {
            return;
        }
        self.kept[self.next] = nanos as f64 / candidates as f64;
        self.next = (self.next + 1) % KEPT;
        self.len = (self.len + 1).min(KEPT);
        let mut v = self.kept;
        let v = &mut v[..self.len];
        v.sort_unstable_by(f64::total_cmp);
        self.median = Some(v[(self.len - 1) / 2]);
    }
}

/// What one key remembers.
#[derive(Debug, Clone, Copy, Default)]
struct Costs {
    bounded: Samples,
    exact: Samples,
    /// Exact's price per candidate from the Cascade's lane blocks.
    lanes: Samples,
    /// Rows decided so far.
    rows: u64,
    /// The row at which the other plan runs once more; 0 until the
    /// comparison is settled.
    next_probe: u64,
}

impl Costs {
    fn decide(&mut self) -> Choice {
        self.rows += 1;
        let Some(bounded) = self.bounded.median else {
            return Choice::Bounded;
        };
        if self
            .lanes
            .median
            .is_some_and(|lane| bounded * CLEAR_WIN < lane)
        {
            return Choice::Bounded;
        }
        let Some(exact) = self.exact.median else {
            return Choice::Exact;
        };
        let priced = self.bounded.len >= MIN_SAMPLES && self.exact.len >= MIN_SAMPLES;
        let clear = bounded > CLEAR_WIN * exact || exact > CLEAR_WIN * bounded;
        if !priced && !clear {
            return if self.bounded.len <= self.exact.len {
                Choice::Bounded
            } else {
                Choice::Exact
            };
        }
        let (best, other, ratio) = if exact * EXACT_MARGIN < bounded {
            (Choice::Exact, Choice::Bounded, bounded / exact)
        } else {
            (Choice::Bounded, Choice::Exact, exact / bounded)
        };
        let probe = self.next_probe > 0 && self.rows >= self.next_probe;
        if self.next_probe == 0 || probe {
            // A probe costs `ratio - 1` rows of the best plan; NaN and
            // infinite ratios (a zero-time row) saturate. Until both
            // plans are priced, a clear gap rests on one row, which may
            // be an outlier: probes then only double the rows.
            let spacing = if priced {
                ((ratio - 1.0) / PROBE_SHARE).ceil().clamp(0.0, 1e12) as u64
            } else {
                0
            };
            self.next_probe = self.rows + self.rows.max(spacing);
        }
        if probe {
            other
        } else {
            best
        }
    }

    fn record(&mut self, row: &RowCost) {
        match row.taken {
            Choice::Bounded => self.bounded.push(row.nanos, row.candidates),
            Choice::Exact => self.exact.push(row.nanos, row.candidates),
        }
        self.lanes.push(row.lane_nanos, row.lanes);
    }
}

/// The measured costs of every bounded plan of one train split, shared
/// by every scan of it (interior mutability: scans hold the split's
/// [`TrainIndex`](super::TrainIndex) by shared reference, also across
/// worker threads).
#[derive(Debug, Default)]
pub struct PlanMemory {
    costs: Mutex<BTreeMap<PlanKey, Costs>>,
}

impl Clone for PlanMemory {
    fn clone(&self) -> Self {
        PlanMemory {
            costs: Mutex::new(self.lock().clone()),
        }
    }
}

impl PlanMemory {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<PlanKey, Costs>> {
        // No code that can panic runs under the lock, and every update
        // leaves the costs valid, so a poisoned lock still holds them.
        self.costs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on `key`'s costs, starting them empty.
    fn with<T>(&self, key: &PlanKey, f: impl FnOnce(&mut Costs) -> T) -> T {
        let mut costs = self.lock();
        match costs.get_mut(key) {
            Some(c) => f(c),
            None => f(costs.entry(key.clone()).or_default()),
        }
    }

    /// The plan the next row with bounded plan `key` takes (see the
    /// module docs for the rule). Counts the row.
    pub fn decide(&self, key: &PlanKey) -> Choice {
        self.with(key, Costs::decide)
    }

    /// Adds one timed row to `key`'s costs.
    pub fn record(&self, key: &PlanKey, row: &RowCost) {
        self.with(key, |c| c.record(row));
    }

    /// Rows decided under `key` so far.
    pub fn rows(&self, key: &PlanKey) -> u64 {
        self.lock().get(key).map_or(0, |c| c.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(taken: Choice, nanos: u64, candidates: u64) -> RowCost {
        RowCost {
            taken,
            nanos,
            candidates,
            lane_nanos: 0,
            lanes: 0,
        }
    }

    fn feed(m: &PlanMemory, key: &PlanKey, taken: Choice, ns_per_candidate: u64, rows: usize) {
        for _ in 0..rows {
            m.record(key, &row(taken, ns_per_candidate * 10, 10));
        }
    }

    #[test]
    fn a_close_call_samples_both_plans_then_commits() {
        let m = PlanMemory::default();
        let key = PlanKey::Cutoff("m".into());
        let mut taken = Vec::new();
        for _ in 0..2 * MIN_SAMPLES {
            let c = m.decide(&key);
            taken.push(c);
            // The bounded plan costs 1.5 times what Exact does.
            let ns = if c == Choice::Bounded { 150 } else { 100 };
            m.record(&key, &row(c, ns, 1));
        }
        use Choice::{Bounded as B, Exact as E};
        assert_eq!(taken, [B, E, B, E, B, E]);
        assert_eq!(m.decide(&key), Choice::Exact);
    }

    #[test]
    fn a_clear_gap_commits_after_one_row_each() {
        for (bounded, exact, expect) in [(500, 100, Choice::Exact), (100, 500, Choice::Bounded)] {
            let m = PlanMemory::default();
            let key = PlanKey::Pivots("m".into());
            assert_eq!(m.decide(&key), Choice::Bounded);
            m.record(&key, &row(Choice::Bounded, bounded, 1));
            assert_eq!(m.decide(&key), Choice::Exact);
            m.record(&key, &row(Choice::Exact, exact, 1));
            // Committed at row 3 on one row each: the losing plan is
            // probed at doubling rows until it has MIN_SAMPLES rows (the
            // probe at row 12 brings the third), then a loser five times
            // dearer waits 200 rows.
            let loser = if expect == Choice::Exact {
                (Choice::Bounded, bounded)
            } else {
                (Choice::Exact, exact)
            };
            let mut probes = Vec::new();
            for r in 3..=40 {
                let c = m.decide(&key);
                if c == loser.0 {
                    probes.push(r);
                    m.record(&key, &row(c, loser.1, 1));
                }
            }
            assert_eq!(probes, [6, 12, 24], "{expect:?}");
        }
    }

    #[test]
    fn an_outlier_in_a_single_row_is_overturned_by_the_probes() {
        // The first Exact row was preempted: Exact looks 10 times dearer
        // than the bounded plan, which truly costs twice Exact.
        let m = PlanMemory::default();
        let key = PlanKey::Cascade(3);
        assert_eq!(m.decide(&key), Choice::Bounded);
        m.record(&key, &row(Choice::Bounded, 200, 1));
        assert_eq!(m.decide(&key), Choice::Exact);
        m.record(&key, &row(Choice::Exact, 2000, 1));
        // Rows 3 to 32: the bounded plan until the Exact probe at row 6,
        // whose true cost leaves the gap unclear, so Exact is sampled
        // until it has MIN_SAMPLES rows and then wins; row 12 probes the
        // bounded plan.
        let exact_rows: Vec<u64> = (3..=32)
            .filter(|_| {
                let c = m.decide(&key);
                let ns = if c == Choice::Bounded { 200 } else { 100 };
                m.record(&key, &row(c, ns, 1));
                c == Choice::Exact
            })
            .collect();
        let expect: Vec<u64> = (6..=11).chain(13..=32).collect();
        assert_eq!(exact_rows, expect);
    }

    #[test]
    fn a_near_tie_keeps_the_bounded_plan() {
        let m = PlanMemory::default();
        let key = PlanKey::Pivots("m".into());
        feed(&m, &key, Choice::Bounded, 103, KEPT);
        feed(&m, &key, Choice::Exact, 100, KEPT);
        assert_eq!(m.decide(&key), Choice::Bounded);
        let m = PlanMemory::default();
        feed(&m, &key, Choice::Bounded, 103, KEPT);
        feed(&m, &key, Choice::Exact, 90, KEPT);
        assert_eq!(m.decide(&key), Choice::Exact);
    }

    #[test]
    fn one_outlier_does_not_move_the_choice() {
        let m = PlanMemory::default();
        let key = PlanKey::Cascade(3);
        feed(&m, &key, Choice::Bounded, 150, KEPT);
        feed(&m, &key, Choice::Exact, 100, KEPT - 1);
        feed(&m, &key, Choice::Exact, 100_000, 1);
        assert_eq!(m.decide(&key), Choice::Exact);
    }

    #[test]
    fn cheap_lane_blocks_keep_the_cascade_without_exact_rows() {
        let m = PlanMemory::default();
        let key = PlanKey::Cascade(3);
        let mut r = row(Choice::Bounded, 100, 10);
        (r.lane_nanos, r.lanes) = (500, 2);
        m.record(&key, &r);
        // 10 ns per Cascade candidate against 250 per lane: no Exact row.
        for _ in 0..1000 {
            assert_eq!(m.decide(&key), Choice::Bounded);
        }
    }

    #[test]
    fn probes_double_the_rows_and_cost_a_bounded_share() {
        // Exact costs 1.2 times the bounded plan: a probe costs 0.2 rows,
        // so probes come at least 0.2 / PROBE_SHARE = 10 rows apart.
        let m = PlanMemory::default();
        let key = PlanKey::Cutoff("m".into());
        feed(&m, &key, Choice::Bounded, 100, KEPT);
        feed(&m, &key, Choice::Exact, 120, KEPT);
        let probes: Vec<u64> = (1..=100)
            .filter(|_| m.decide(&key) == Choice::Exact)
            .collect();
        assert_eq!(probes, [11, 22, 44, 88]);
        assert_eq!(m.rows(&key), 100);
        // Exact 5 times dearer: probes 200 rows apart.
        let m = PlanMemory::default();
        feed(&m, &key, Choice::Bounded, 100, KEPT);
        feed(&m, &key, Choice::Exact, 500, KEPT);
        let probes: Vec<u64> = (1..=500)
            .filter(|_| m.decide(&key) == Choice::Exact)
            .collect();
        assert_eq!(probes, [201, 402]);
    }

    #[test]
    fn keys_and_clones_keep_their_own_costs() {
        let m = PlanMemory::default();
        let (a, b) = (PlanKey::Cutoff("a".into()), PlanKey::Cutoff("b".into()));
        feed(&m, &a, Choice::Bounded, 300, KEPT);
        feed(&m, &a, Choice::Exact, 100, KEPT);
        let copy = m.clone();
        assert_eq!(m.decide(&a), Choice::Exact);
        assert_eq!(m.decide(&b), Choice::Bounded);
        assert_eq!(copy.decide(&a), Choice::Exact);
        assert_eq!(copy.rows(&b), 0);
    }
}
