//! The 52 lock-step distance measures of Section 5.
//!
//! Lock-step measures compare the `i`th point of one series with the `i`th
//! point of the other. Fifty of them are re-implemented from Cha's 2007
//! survey of distances between probability density functions, organized in
//! the same seven families the paper uses, plus the survey's three
//! combination measures and five proposed ("Emanon") measures; DISSIM and
//! ASD complete the set of 52.
//!
//! Cha's formulas assume strictly positive densities. Time series —
//! especially z-normalized ones — contain zeros and negative values, so
//! every division is guarded (`safe_div`) and measures built on square
//! roots or logarithms of the data (the Fidelity and Entropy families)
//! clamp inputs to a small positive floor (`clamp_pos`). This is exactly
//! why the paper finds that such measures only become competitive under
//! normalizations like MinMax that keep the data positive.

use crate::measure::EPS;

pub mod combinations;
pub mod entropy;
pub mod extra;
pub mod fidelity;
pub mod inner_product;
pub mod intersection;
pub mod l1;
pub mod minkowski;
pub mod squared_l2;
pub mod vicis;

pub use combinations::{AvgL1Linf, KumarJohnson, Taneja};
pub use entropy::{
    Jeffreys, JensenDifference, JensenShannon, KDivergence, KullbackLeibler, Topsoe,
};
pub use extra::{AdaptiveScalingDistance, Dissim};
pub use fidelity::{Bhattacharyya, Fidelity, Hellinger, Matusita, SquaredChord};
pub use inner_product::{Cosine, Dice, HarmonicMean, InnerProduct, Jaccard, KumarHassebrook};
pub use intersection::{
    Czekanowski, Intersection, KulczynskiS, Motyka, Ruzicka, Tanimoto, WaveHedges,
};
pub use l1::{Canberra, Gower, KulczynskiD, Lorentzian, Soergel, Sorensen};
pub use minkowski::{Chebyshev, CityBlock, Euclidean, Minkowski};
pub use squared_l2::{
    AdditiveSymmetricChiSq, Clark, Divergence, NeymanChiSq, PearsonChiSq, ProbSymmetricChiSq,
    SquaredChiSq, SquaredEuclidean,
};
pub use vicis::{
    MaxSymmetricChiSq, VicisSymmetricChiSq1, VicisSymmetricChiSq2, VicisSymmetricChiSq3,
    VicisWaveHedges,
};

/// Division with a guarded denominator: denominators smaller in magnitude
/// than [`EPS`] are replaced by ±[`EPS`] (zero counts as positive).
#[inline]
pub(crate) fn safe_div(num: f64, den: f64) -> f64 {
    if den.abs() < EPS {
        num / if den < 0.0 { -EPS } else { EPS }
    } else {
        num / den
    }
}

/// Clamps a value to the positive floor [`EPS`], for formulas that require
/// density-like inputs (square roots, logarithms).
#[inline]
pub(crate) fn clamp_pos(v: f64) -> f64 {
    v.max(EPS)
}

/// Defines a parameter-free lock-step measure as a unit struct
/// implementing [`crate::measure::Distance`].
///
/// Prefix the definition with `asymmetric` for measures whose formula
/// treats the two arguments differently (KL, χ² variants): these override
/// [`crate::measure::Distance::is_symmetric`] to `false` so the batch
/// matrix engine computes both triangles.
///
/// An optional `metric <Regime>,` token after the label declares the
/// [`crate::measure::MetricRegime`] on which the measure satisfies the
/// triangle inequality, opting it into the index tier's pivot layer. The
/// declaration is checked against sampled triples at pivot-table build
/// time, which catches some wrong flags but proves nothing; the opt-in is
/// explicit so that each declaration can point at its proof.
///
/// An optional second closure `|x, y, cutoff| ...` after the exact body
/// overrides [`crate::measure::Distance::distance_upto`] with an
/// early-abandoning body. The macro supplies the non-finite-cutoff guard
/// (`+∞` must be bit-identical to the exact path, and a NaN cutoff means
/// "no cutoff"), so the body only sees a finite cutoff.
macro_rules! lockstep_measure {
    (asymmetric $(#[$doc:meta])* $name:ident, $label:expr, |$x:ident, $y:ident| $body:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl crate::measure::Distance for $name {
            fn name(&self) -> String {
                $label.into()
            }
            fn distance_ws(
                &self,
                $x: &[f64],
                $y: &[f64],
                _: &mut crate::workspace::Workspace,
            ) -> f64 {
                $body
            }
            fn is_symmetric(&self) -> bool {
                false
            }
            fn lanes_hint(&self) -> usize {
                crate::lanes::LANES
            }
        }
    };
    ($(#[$doc:meta])* $name:ident, $label:expr, $(metric $regime:ident,)?
     |$x:ident, $y:ident| $body:expr
     $(, |$ux:ident, $uy:ident, $cutoff:ident| $ubody:expr)?) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl crate::measure::Distance for $name {
            fn name(&self) -> String {
                $label.into()
            }
            fn distance_ws(
                &self,
                $x: &[f64],
                $y: &[f64],
                _: &mut crate::workspace::Workspace,
            ) -> f64 {
                $body
            }
            $(
                fn distance_upto(
                    &self,
                    $ux: &[f64],
                    $uy: &[f64],
                    ws: &mut crate::workspace::Workspace,
                    $cutoff: f64,
                ) -> f64 {
                    if $cutoff.is_nan() || $cutoff == f64::INFINITY {
                        return self.distance_ws($ux, $uy, ws);
                    }
                    $ubody
                }
            )?
            fn lanes_hint(&self) -> usize {
                crate::lanes::LANES
            }
            $(
                fn metric_regime(&self) -> crate::measure::MetricRegime {
                    crate::measure::MetricRegime::$regime
                }
            )?
        }
    };
}
pub(crate) use lockstep_measure;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    /// Every lock-step measure in one place, for blanket sanity checks.
    pub(crate) fn all_measures() -> Vec<Box<dyn Distance>> {
        vec![
            Box::new(Euclidean),
            Box::new(CityBlock),
            Box::new(Minkowski::new(3.0)),
            Box::new(Chebyshev),
            Box::new(Sorensen),
            Box::new(Gower),
            Box::new(Soergel),
            Box::new(KulczynskiD),
            Box::new(Canberra),
            Box::new(Lorentzian),
            Box::new(Intersection),
            Box::new(WaveHedges),
            Box::new(Czekanowski),
            Box::new(Motyka),
            Box::new(KulczynskiS),
            Box::new(Ruzicka),
            Box::new(Tanimoto),
            Box::new(InnerProduct),
            Box::new(HarmonicMean),
            Box::new(Cosine),
            Box::new(KumarHassebrook),
            Box::new(Jaccard),
            Box::new(Dice),
            Box::new(Fidelity),
            Box::new(Bhattacharyya),
            Box::new(Hellinger),
            Box::new(Matusita),
            Box::new(SquaredChord),
            Box::new(SquaredEuclidean),
            Box::new(PearsonChiSq),
            Box::new(NeymanChiSq),
            Box::new(SquaredChiSq),
            Box::new(ProbSymmetricChiSq),
            Box::new(Divergence),
            Box::new(Clark),
            Box::new(AdditiveSymmetricChiSq),
            Box::new(KullbackLeibler),
            Box::new(Jeffreys),
            Box::new(KDivergence),
            Box::new(Topsoe),
            Box::new(JensenShannon),
            Box::new(JensenDifference),
            Box::new(Taneja),
            Box::new(KumarJohnson),
            Box::new(AvgL1Linf),
            Box::new(VicisWaveHedges),
            Box::new(VicisSymmetricChiSq1),
            Box::new(VicisSymmetricChiSq2),
            Box::new(VicisSymmetricChiSq3),
            Box::new(MaxSymmetricChiSq),
            Box::new(Dissim),
            Box::new(AdaptiveScalingDistance),
        ]
    }

    #[test]
    fn the_paper_evaluates_exactly_52_lockstep_measures() {
        assert_eq!(all_measures().len(), 52);
    }

    #[test]
    fn all_measures_are_finite_on_positive_data() {
        // MinMax[0.1, 1.1]-style positive data: every formula is well-defined.
        let x = [0.2, 0.5, 1.0, 0.7, 0.3, 0.9];
        let y = [0.3, 0.4, 0.8, 1.1, 0.2, 0.6];
        for m in all_measures() {
            let d = m.distance(&x, &y);
            assert!(d.is_finite(), "{} produced {d}", m.name());
        }
    }

    #[test]
    fn all_measures_are_finite_on_zscored_data_with_zeros() {
        // Hostile input: zeros, negatives, and exact ties.
        let x = [0.0, -1.3, 1.3, 0.0, 0.5, -0.5];
        let y = [0.0, 1.3, -1.3, 0.5, 0.5, -1.0];
        for m in all_measures() {
            let d = m.distance(&x, &y);
            assert!(d.is_finite(), "{} produced {d}", m.name());
            let d_self = m.distance(&x, &x);
            assert!(d_self.is_finite(), "{} self-distance {d_self}", m.name());
        }
    }

    #[test]
    fn self_distance_is_minimal_among_candidates() {
        // d(x, x) must not exceed d(x, y) for clearly different y — the
        // property 1-NN actually relies on. (Some similarity-derived
        // measures have non-zero self-"distance", which is fine.)
        let x = [0.2, 0.5, 1.0, 0.7, 0.3, 0.9];
        let y = [1.1, 0.1, 0.2, 1.3, 0.9, 0.15];
        for m in all_measures() {
            let d_self = m.distance(&x, &x);
            let d_other = m.distance(&x, &y);
            assert!(
                d_self <= d_other + 1e-12,
                "{}: d(x,x)={d_self} > d(x,y)={d_other}",
                m.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all_measures().iter().map(|m| m.name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
