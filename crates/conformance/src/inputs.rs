//! Seeded input batteries for the differential engine.
//!
//! Everything here is deterministic given a seed: the batteries drive both
//! the differential checks and the committed golden snapshots, so a change
//! in generation order is itself a conformance break. The generator is a
//! self-contained SplitMix64 — no dependency on the vendored `rand` stub,
//! whose stream we do not want the snapshots coupled to.

/// The seed the committed golden snapshots are pinned to.
pub const GOLDEN_SEED: u64 = 0xC0FFEE;

/// A minimal SplitMix64 generator; passes through every 64-bit state
/// exactly once, so distinct seeds give unrelated streams.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// A length-`n` series uniform in `[lo, hi)`.
    pub fn series(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.uniform(lo, hi)).collect()
    }
}

/// One named input pair fed to every measure of a category.
pub struct InputPair {
    /// Stable identifier used in golden-snapshot keys and failure reports.
    pub id: &'static str,
    /// First series.
    pub x: Vec<f64>,
    /// Second series.
    pub y: Vec<f64>,
}

/// The equal-length battery every category runs: random, positive-only
/// (for the probability-density measures), constant, zero-vs-random,
/// spike, exact ties with negatives, and degenerate lengths 1 and 2.
pub fn standard_battery(seed: u64) -> Vec<InputPair> {
    let mut rng = SplitMix64::new(seed);
    // Construction order is load-bearing: each entry draws from `rng` in
    // sequence, and the golden snapshot pins the resulting values.
    let mut pairs = vec![
        InputPair {
            id: "random-24",
            x: rng.series(24, -2.0, 2.0),
            y: rng.series(24, -2.0, 2.0),
        },
        InputPair {
            id: "random-17",
            x: rng.series(17, -1.0, 1.0),
            y: rng.series(17, -1.0, 1.0),
        },
        InputPair {
            id: "positive-20",
            x: rng.series(20, 0.1, 1.1),
            y: rng.series(20, 0.1, 1.1),
        },
        InputPair {
            id: "constant-16",
            x: vec![0.75; 16],
            y: vec![-0.25; 16],
        },
        InputPair {
            id: "zeros-vs-random-12",
            x: vec![0.0; 12],
            y: rng.series(12, -1.5, 1.5),
        },
    ];
    let mut spike_x = vec![0.0; 24];
    let mut spike_y = vec![0.0; 24];
    spike_x[5] = 10.0;
    spike_y[18] = -10.0;
    pairs.push(InputPair {
        id: "spike-24",
        x: spike_x,
        y: spike_y,
    });
    // Exact ties and sign changes exercise min/max branches and the
    // guarded divisions at and around zero denominators.
    let base: Vec<f64> = rng.series(18, -1.0, 1.0);
    let mut tied = base.clone();
    for i in (0..18).step_by(3) {
        tied[i] = base[i]; // exact tie
    }
    for i in (1..18).step_by(4) {
        tied[i] = -base[i]; // a + b == 0 exactly
    }
    pairs.push(InputPair {
        id: "ties-negatives-18",
        x: base,
        y: tied,
    });
    pairs.push(InputPair {
        id: "single-1",
        x: vec![rng.uniform(-1.0, 1.0)],
        y: vec![rng.uniform(-1.0, 1.0)],
    });
    pairs.push(InputPair {
        id: "pair-2",
        x: rng.series(2, -1.0, 1.0),
        y: rng.series(2, -1.0, 1.0),
    });
    // A close pair whose first samples lie 1.5082 apart: at length 16,
    // GAK(γ=0.01)'s local kernel there is about 1e-309, so the maximum
    // of its first DP row is subnormal and has no finite reciprocal.
    let y = rng.series(16, -1.0, 1.0);
    let mut x: Vec<f64> = y.iter().map(|v| v + rng.uniform(-0.02, 0.02)).collect();
    x[0] = y[0] + 1.5082;
    pairs.push(InputPair {
        id: "subnormal-row-16",
        x,
        y,
    });
    pairs
}

/// Unequal-length pairs for the categories whose contract documents
/// support for them (elastic and sliding; lock-step and kernel measures
/// may assume equal lengths).
pub fn unequal_battery(seed: u64) -> Vec<InputPair> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0001);
    vec![
        InputPair {
            id: "unequal-19v24",
            x: rng.series(19, -1.0, 1.0),
            y: rng.series(24, -1.0, 1.0),
        },
        InputPair {
            id: "unequal-24v19",
            x: rng.series(24, -1.0, 1.0),
            y: rng.series(19, -1.0, 1.0),
        },
        InputPair {
            id: "unequal-3v11",
            x: rng.series(3, -2.0, 2.0),
            y: rng.series(11, -2.0, 2.0),
        },
    ]
}

/// A small labeled two-class dataset for the batch-matrix and pruned
/// 1-NN checks: `(train, train_labels, test, test_labels)`.
#[allow(clippy::type_complexity)]
pub fn labeled_dataset(seed: u64) -> (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0002);
    let len = 16;
    let make = |rng: &mut SplitMix64, class: usize| -> Vec<f64> {
        (0..len)
            .map(|i| {
                let phase = i as f64 / len as f64 * std::f64::consts::TAU;
                let shape = if class == 0 { phase.sin() } else { phase.cos() };
                shape + rng.uniform(-0.3, 0.3)
            })
            .collect()
    };
    let mut train = Vec::new();
    let mut train_labels = Vec::new();
    for k in 0..8 {
        let class = k % 2;
        train.push(make(&mut rng, class));
        train_labels.push(class);
    }
    let mut test = Vec::new();
    let mut test_labels = Vec::new();
    for k in 0..6 {
        let class = k % 2;
        test.push(make(&mut rng, class));
        test_labels.push(class);
    }
    (train, train_labels, test, test_labels)
}

/// Z-normalize a series (mean 0, standard deviation 1; constant series
/// stay at mean 0). Shared by the metamorphic shift/scale properties.
pub fn znorm(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd <= 1e-12 {
        x.iter().map(|v| v - mean).collect()
    } else {
        x.iter().map(|v| (v - mean) / sd).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batteries_are_deterministic() {
        let a = standard_battery(7);
        let b = standard_battery(7);
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.id, q.id);
            assert_eq!(p.x, q.x);
            assert_eq!(p.y, q.y);
        }
        let c = standard_battery(8);
        assert_ne!(a[0].x, c[0].x);
    }

    #[test]
    fn standard_battery_is_equal_length_and_non_empty() {
        for p in standard_battery(GOLDEN_SEED) {
            assert_eq!(p.x.len(), p.y.len(), "{}", p.id);
            assert!(!p.x.is_empty(), "{}", p.id);
        }
    }

    #[test]
    fn unequal_battery_really_is_unequal() {
        for p in unequal_battery(GOLDEN_SEED) {
            assert_ne!(p.x.len(), p.y.len(), "{}", p.id);
        }
    }

    #[test]
    fn battery_ids_are_unique() {
        let mut ids: Vec<&str> = standard_battery(1)
            .iter()
            .chain(unequal_battery(1).iter())
            .map(|p| p.id)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn znorm_centres_and_scales() {
        let z = znorm(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f64 = z.iter().sum::<f64>() / 4.0;
        let var: f64 = z.iter().map(|v| v * v).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
        assert_eq!(znorm(&[5.0, 5.0, 5.0]), vec![0.0, 0.0, 0.0]);
    }
}
