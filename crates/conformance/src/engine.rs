//! The differential test engine.
//!
//! For every [`OracleCase`] the engine runs the seeded input batteries
//! and checks, in order of increasing machinery:
//!
//! 1. `distance` agrees with the naive reference within the category
//!    tolerance;
//! 2. `distance_ws` over the engine's reused workspace is
//!    *bit-identical* to `distance` (a fresh workspace), so no result
//!    depends on what an earlier call left in the arenas;
//! 3. `distance_upto` honours the cutoff contract (exact bits below the
//!    cutoff or when the cutoff is non-finite, any value `>= cutoff`
//!    otherwise) for cutoffs below / at / above the true distance, at
//!    `±inf`/NaN, and at seeded random offsets;
//! 4. batch matrices ([`distance_matrix`], [`symmetric_distance_matrix`])
//!    reproduce `distance_ws` cell-for-cell;
//! 5. the pruned 1-NN engine matches a naive argmin over the full matrix
//!    (smallest index on ties) and an Algorithm-1 vote over the pruned
//!    winners equals the matrix-based [`one_nn_accuracy`] bit-for-bit.

use crate::inputs::{labeled_dataset, standard_battery, unequal_battery, InputPair, SplitMix64};
use crate::oracle::OracleCase;
use tsdist_core::Workspace;
use tsdist_eval::{distance_matrix, one_nn_accuracy, pruned_nn_search, symmetric_distance_matrix};

/// Engine knobs. `Default` is the full run the test suite and
/// `tsdist conformance` use.
pub struct EngineConfig {
    /// Seed for the input batteries and random cutoffs.
    pub seed: u64,
    /// Random cutoffs per (measure, input) beyond the structured ones.
    pub random_cutoffs: usize,
    /// Run the batch-matrix and pruned-1-NN checks (the expensive part;
    /// `--quick` gates turn it off).
    pub dataset_checks: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            seed: crate::inputs::GOLDEN_SEED,
            random_cutoffs: 2,
            dataset_checks: true,
        }
    }
}

/// One failed check.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Measure name.
    pub measure: String,
    /// Input-pair id (or a dataset-check label).
    pub input: String,
    /// Which check failed.
    pub check: &'static str,
    /// Human-readable expected-vs-actual detail.
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} on {}: {}",
            self.check, self.measure, self.input, self.detail
        )
    }
}

/// The engine's verdict.
pub struct Report {
    /// Measures examined.
    pub cases: usize,
    /// Individual checks executed.
    pub checks: usize,
    /// Everything that failed (empty on a clean run).
    pub discrepancies: Vec<Discrepancy>,
    /// Worst observed production-vs-reference drift in ULPs, per category
    /// label — the empirical counterpart of each category's tolerance
    /// (`u64::MAX` would mean a sign/NaN disagreement, which the
    /// `reference` check reports separately).
    pub max_ulps: std::collections::BTreeMap<&'static str, u64>,
    /// Cases whose measure reports a multi-lane kernel
    /// ([`tsdist_core::measure::Distance::lanes_hint`] `> 1`).
    pub vectorized_cases: usize,
}

impl Report {
    /// True when every check passed.
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// A short human-readable summary (first 20 discrepancies).
    pub fn render(&self) -> String {
        let mut out = format!(
            "conformance: {} measures, {} checks, {} discrepancies\n",
            self.cases,
            self.checks,
            self.discrepancies.len()
        );
        for d in self.discrepancies.iter().take(20) {
            out.push_str(&format!("  {d}\n"));
        }
        if self.discrepancies.len() > 20 {
            out.push_str(&format!(
                "  ... and {} more\n",
                self.discrepancies.len() - 20
            ));
        }
        out
    }
}

/// Tolerant comparison: NaNs match NaNs, exact equality covers equal
/// infinities, otherwise relative with an absolute floor of `tol`.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    if a == b {
        return true;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Distance between two floats in units of last place: the number of
/// representable `f64`s strictly between `a` and `b`. `0` means
/// bit-identical (or both NaN); `u64::MAX` flags a NaN-vs-number
/// comparison. Works across signs via the standard monotone mapping of
/// the IEEE bit pattern onto a linear integer scale.
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        // Negative floats sort by descending bit pattern; reflecting them
        // below zero makes the whole line monotone (and maps -0.0 and
        // +0.0 both to 0). `bits < 0` bounds the subtraction, so it
        // cannot overflow.
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    }
    let (oa, ob) = (ordered(a), ordered(b));
    oa.abs_diff(ob)
}

struct Checker {
    checks: usize,
    discrepancies: Vec<Discrepancy>,
    max_ulps: std::collections::BTreeMap<&'static str, u64>,
}

impl Checker {
    fn check(&mut self, ok: bool, measure: &str, input: &str, check: &'static str, detail: String) {
        self.checks += 1;
        if !ok {
            self.discrepancies.push(Discrepancy {
                measure: measure.into(),
                input: input.into(),
                check,
                detail,
            });
        }
    }
}

fn check_pair(
    case: &OracleCase,
    pair: &InputPair,
    ws: &mut Workspace,
    rng: &mut SplitMix64,
    cfg: &EngineConfig,
    c: &mut Checker,
) {
    let x = &pair.x;
    let y = &pair.y;
    let expected = (case.reference)(x, y);
    let d = case.measure.distance(x, y);
    c.check(
        close(d, expected, case.category.tolerance()),
        &case.name,
        pair.id,
        "reference",
        format!("reference {expected:e}, production {d:e}"),
    );
    // Track the worst drift per category — but only for comparisons the
    // tolerance check accepted, so one hard failure doesn't swamp the
    // table with `u64::MAX`.
    if close(d, expected, case.category.tolerance()) {
        let slot = c.max_ulps.entry(case.category.label()).or_insert(0);
        *slot = (*slot).max(ulp_diff(d, expected));
    }

    let d_ws = case.measure.distance_ws(x, y, ws);
    c.check(
        d_ws.to_bits() == d.to_bits(),
        &case.name,
        pair.id,
        "ws-bit-identity",
        format!(
            "distance {d:e} ({:#x}), distance_ws {d_ws:e} ({:#x})",
            d.to_bits(),
            d_ws.to_bits()
        ),
    );

    if d_ws.is_nan() {
        return;
    }
    let mut cutoffs = vec![
        d_ws - 1.0,
        d_ws,
        d_ws.abs() + d_ws + 1.0,
        f64::INFINITY,
        f64::NAN,
    ];
    for _ in 0..cfg.random_cutoffs {
        cutoffs.push(d_ws + rng.uniform(-1.0, 1.0));
    }
    for cutoff in cutoffs {
        let got = case.measure.distance_upto(x, y, ws, cutoff);
        if !cutoff.is_finite() || d_ws < cutoff {
            // No-cutoff sentinel or unreached cutoff: exact bits required.
            c.check(
                got.to_bits() == d_ws.to_bits(),
                &case.name,
                pair.id,
                "upto-exact",
                format!("cutoff {cutoff:e}: expected exact {d_ws:e}, got {got:e}"),
            );
        } else {
            // Reached cutoff: any abandonment value >= cutoff is legal.
            c.check(
                got >= cutoff,
                &case.name,
                pair.id,
                "upto-admissible",
                format!("cutoff {cutoff:e}: got {got:e} below cutoff (true distance {d_ws:e})"),
            );
        }
    }
}

fn check_dataset(case: &OracleCase, cfg: &EngineConfig, c: &mut Checker) {
    let (train, train_labels, test, test_labels) = labeled_dataset(cfg.seed);
    let mut ws = Workspace::new();
    let m = case.measure.as_ref();

    let full = distance_matrix(m, &test, &train);
    for (i, t) in test.iter().enumerate() {
        for (j, tr) in train.iter().enumerate() {
            let cell = full[(i, j)];
            let direct = m.distance_ws(t, tr, &mut ws);
            c.check(
                cell.to_bits() == direct.to_bits(),
                &case.name,
                "dataset/matrix",
                "matrix-cell",
                format!("cell ({i},{j}): matrix {cell:e}, direct {direct:e}"),
            );
        }
    }

    let sym = symmetric_distance_matrix(m, &train);
    for (i, a) in train.iter().enumerate() {
        for (j, b) in train.iter().enumerate() {
            let cell = sym[(i, j)];
            let direct = m.distance_ws(a, b, &mut ws);
            c.check(
                cell.to_bits() == direct.to_bits(),
                &case.name,
                "dataset/symmetric-matrix",
                "sym-matrix-cell",
                format!("cell ({i},{j}): matrix {cell:e}, direct {direct:e}"),
            );
        }
    }

    // Pruned 1-NN vs the naive argmin over the exact matrix (smallest
    // index wins ties; non-finite candidates are skipped).
    let neighbours = pruned_nn_search(m, &test, &train, false);
    for (i, nn) in neighbours.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..train.len() {
            let v = full[(i, j)];
            if !v.is_finite() {
                continue;
            }
            if best.is_none_or(|(_, bv)| v < bv) {
                best = Some((j, v));
            }
        }
        match (best, nn.index) {
            (Some((j, v)), Some(got_j)) => {
                c.check(
                    got_j == j && nn.distance.to_bits() == v.to_bits(),
                    &case.name,
                    "dataset/pruned-nn",
                    "pruned-nn",
                    format!(
                        "query {i}: expected ({j}, {v:e}), got ({got_j}, {:e})",
                        nn.distance
                    ),
                );
            }
            (None, None) => c.check(
                true,
                &case.name,
                "dataset/pruned-nn",
                "pruned-nn",
                String::new(),
            ),
            (exp, got) => c.check(
                false,
                &case.name,
                "dataset/pruned-nn",
                "pruned-nn",
                format!("query {i}: expected {exp:?}, got index {got:?}"),
            ),
        }
    }

    // A shape error leaves NaN, which fails the bit comparison below.
    let exact_acc = one_nn_accuracy(&full, &test_labels, &train_labels).unwrap_or(f64::NAN);
    // Algorithm 1's vote over the pruned winners, written out by hand so
    // the oracle stays independent of the eval crate's accuracy cores.
    let pruned_nns = pruned_nn_search(m, &test, &train, false);
    let pruned_correct = pruned_nns
        .iter()
        .zip(&test_labels)
        .filter(|(nn, &want)| nn.index.map_or(train_labels[0], |j| train_labels[j]) == want)
        .count();
    let pruned_acc = pruned_correct as f64 / test_labels.len() as f64;
    c.check(
        pruned_acc.to_bits() == exact_acc.to_bits(),
        &case.name,
        "dataset/accuracy",
        "pruned-accuracy",
        format!("matrix accuracy {exact_acc}, pruned accuracy {pruned_acc}"),
    );
}

/// Run the differential engine over `cases`.
pub fn run_differential(cases: &[OracleCase], cfg: &EngineConfig) -> Report {
    let mut checker = Checker {
        checks: 0,
        discrepancies: Vec::new(),
        max_ulps: std::collections::BTreeMap::new(),
    };
    let standard = standard_battery(cfg.seed);
    let unequal = unequal_battery(cfg.seed);
    let mut ws = Workspace::new();
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5EED_0003);
    let mut vectorized_cases = 0;

    for case in cases {
        if case.measure.lanes_hint() > 1 {
            vectorized_cases += 1;
        }
        for pair in &standard {
            check_pair(case, pair, &mut ws, &mut rng, cfg, &mut checker);
        }
        if case.category.supports_unequal_lengths() {
            for pair in &unequal {
                check_pair(case, pair, &mut ws, &mut rng, cfg, &mut checker);
            }
        }
        if cfg.dataset_checks {
            check_dataset(case, cfg, &mut checker);
        }
    }

    Report {
        cases: cases.len(),
        checks: checker.checks,
        discrepancies: checker.discrepancies,
        max_ulps: checker.max_ulps,
        vectorized_cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_counts_representable_steps() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 7)), 7);
        // Symmetric.
        assert_eq!(
            ulp_diff(f64::from_bits(2.5f64.to_bits() + 3), 2.5),
            ulp_diff(2.5, f64::from_bits(2.5f64.to_bits() + 3))
        );
        // Signed zeros coincide; the crossing from -eps to +eps spans
        // both subnormal ranges.
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(f64::from_bits((-0.0f64).to_bits() + 1), 0.0), 1);
        // Negative pairs count the same as their mirrored positives.
        assert_eq!(ulp_diff(-1.0, f64::from_bits((-1.0f64).to_bits() + 4)), 4);
        // NaN never compares.
        assert_eq!(ulp_diff(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_diff(f64::NAN, f64::NAN), 0);
        // Equal infinities are zero apart.
        assert_eq!(ulp_diff(f64::INFINITY, f64::INFINITY), 0);
    }

    #[test]
    fn differential_report_tracks_ulps_and_lane_coverage() {
        let cases = crate::quick_registry();
        let cfg = EngineConfig {
            dataset_checks: false,
            ..EngineConfig::default()
        };
        let report = run_differential(&cases, &cfg);
        assert!(report.is_clean(), "{}", report.render());
        // The quick registry includes lock-step measures, which are all
        // lane-vectorized, and at least one category records a drift
        // entry (possibly 0 ulps).
        assert!(report.vectorized_cases > 0);
        assert!(report.vectorized_cases <= report.cases);
        assert!(!report.max_ulps.is_empty());
        for (&label, &worst) in &report.max_ulps {
            assert!(worst < u64::MAX, "category {label} recorded a NaN drift");
        }
    }
}
