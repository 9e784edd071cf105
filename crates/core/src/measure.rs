//! The core distance-measure abstraction.
//!
//! Every measure has one body, [`Distance::distance_ws`], which takes a
//! [`Workspace`] of reusable scratch buffers so the matrix and 1-NN hot
//! paths allocate nothing per pair. [`Distance::distance`] is a provided
//! convenience that runs it with a fresh workspace. Measures declare via
//! [`Distance::is_symmetric`] whether `d(x, y)` and `d(y, x)` are
//! *bit-identical* — the contract the batch matrix engine in
//! `tsdist-eval` relies on to compute only the upper triangle of
//! train×train matrices. [`Kernel`] follows the same shape: its one body
//! is [`Kernel::kernel_ws`] (plus [`Kernel::log_kernel_ws`] for the
//! alignment kernels), and [`KernelDistance`] makes it a distance through
//! [`normalized_kernel_dissimilarity`] over log kernel values.

use crate::workspace::Workspace;

/// The input regime on which a [`Distance`] is a (pseudo)metric —
/// symmetric, with `d(x, z) <= d(x, y) + d(y, z)` for every triple drawn
/// from the regime.
///
/// The index tier's pivot layer (`crate::index`) prunes candidates with
/// the reverse triangle inequality, so it only engages for measures that
/// *declare* a regime here. Building a pivot table samples random triples
/// from the actual data and panics if a sampled triple violates the
/// declared regime (see [`crate::index::assert_metric_on`]). That check
/// is a smoke test, not a proof: a wrong declaration can pass it, so a
/// declaration must rest on the measure's own proof. `Canberra` is the
/// motivating case: its guarded formula is a metric only on density-like
/// positive data, so it declares [`MetricRegime::Positive`] and silently
/// falls back to the lower-bound cascade or linear scan on z-scored
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricRegime {
    /// Not a metric (or not known to be one) on any supported inputs.
    None,
    /// A metric when every coordinate of every operand is `>= EPS` —
    /// the "density-like" regime Cha's formulas assume. Below that floor
    /// the [`EPS`]-guarded denominators distort the triangle inequality.
    Positive,
    /// A metric on all of `R^n` (equal-length inputs).
    All,
}

/// Which index-tier summary structure can lower-bound a [`Distance`].
///
/// Returned by [`Distance::index_profile`]; the planner in `tsdist-eval`
/// uses it to decide whether a PAA/Keogh envelope cascade is admissible
/// for the measure. Wrappers that transform the series (derivatives,
/// adaptive scaling, logistic weights) must report [`IndexProfile::None`]
/// — envelope bounds over the *raw* series do not survive the transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexProfile {
    /// No summary structure lower-bounds this measure.
    None,
    /// Banded DTW over raw values: LB_PAA and LB_Keogh envelopes built
    /// with this Sakoe-Chiba `window_pct` are admissible lower bounds.
    KeoghDtw {
        /// The window percentage the envelopes must be built with —
        /// identical to the measure's own band arithmetic.
        window_pct: f64,
    },
}

/// A pairwise dissimilarity between two equal-purpose time series.
///
/// Implementations must be thread-safe ([`Send`] + [`Sync`]) because the
/// evaluation platform computes dissimilarity matrices in parallel.
///
/// The contract is deliberately loose — mirroring the paper, which mixes
/// metrics (ED, MSM), non-metrics (DTW), and similarity-derived scores
/// (NCC variants): implementations need only be *order-meaningful* (lower
/// = more similar) and deterministic. They are **not** required to satisfy
/// the triangle inequality, symmetry, or non-negativity.
pub trait Distance: Send + Sync {
    /// Human-readable measure name, e.g. `"Lorentzian"` or `"DTW(δ=10)"`.
    fn name(&self) -> String;

    /// The dissimilarity between `x` and `y`, using `ws` for scratch
    /// memory instead of allocating — the measure's one body, which every
    /// other entry point derives from.
    ///
    /// Implementations may assume `x` and `y` are non-empty and, unless
    /// documented otherwise, of equal length (the dataset substrate
    /// guarantees rectangular datasets). The result must not depend on
    /// what earlier calls left in `ws`: DP- and FFT-based measures
    /// initialize every arena cell they read.
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64;

    /// The dissimilarity between `x` and `y`:
    /// [`Distance::distance_ws`] with a fresh [`Workspace`].
    ///
    /// A convenience for one-off calls; loops should hold one workspace
    /// and call `distance_ws`. Measures do not override it.
    fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        self.distance_ws(x, y, &mut Workspace::new())
    }

    /// The dissimilarity between `x` and `y`, early-abandoning against a
    /// best-so-far `cutoff`.
    ///
    /// Contract: when the true distance (the value [`Distance::distance_ws`]
    /// would return) is `< cutoff`, that exact value is returned
    /// *bit-for-bit*; otherwise the implementation may stop early and
    /// return any value `>= cutoff` (canonically [`f64::INFINITY`]).
    /// 1-NN search loops exploit this: a candidate whose distance cannot
    /// beat the best so far is abandoned after a fraction of its work,
    /// without ever changing which neighbour wins.
    ///
    /// The default ignores `cutoff` and delegates to
    /// [`Distance::distance_ws`] — always correct, never faster. Measures
    /// with a monotone accumulation (running sums of non-negative terms,
    /// non-negative-cost dynamic programs) override it with genuine
    /// abandoning; see `DESIGN.md` ("Early abandoning and cutoff
    /// threading") for which measures do. Overrides must treat a
    /// non-finite `cutoff` (`+∞`, NaN) as "no cutoff" and return the
    /// exact `distance_ws` value.
    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        let _ = cutoff;
        self.distance_ws(x, y, ws)
    }

    /// One matrix row: `out[j] = distance_ws(x, cols[j])` for every
    /// column, with `out.len() == cols.len()`.
    ///
    /// Each entry must be bit-identical to the per-pair
    /// [`Distance::distance_ws`] value; the default is exactly that
    /// per-pair loop. The batch matrix engine in `tsdist-eval` fills
    /// every row through this method, so a measure can evaluate several
    /// columns at once: MSM, TWE and banded DTW run one DP over
    /// [`crate::lanes::LANES`] equal-length columns, one per SIMD lane,
    /// and the NCC family one FFT (DESIGN.md §9.5). Delegating wrappers must forward it, or the
    /// wrapped measure silently keeps the per-pair path.
    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        debug_assert_eq!(out.len(), cols.len(), "one output slot per column");
        for (slot, col) in out.iter_mut().zip(cols) {
            *slot = self.distance_ws(x, col, ws);
        }
    }

    /// Whether `distance(x, y)` and `distance(y, x)` are *bit-identical*
    /// for all **equal-length** inputs (the only case the batch engine
    /// mirrors; per-length normalizers like Gower divide by `x.len()` and
    /// are asymmetric across lengths).
    ///
    /// This is a stronger promise than mathematical symmetry: the batch
    /// engine uses it to compute only the upper triangle of train×train
    /// matrices and mirror, so the mirrored cells must equal what a full
    /// computation would have produced down to the last bit. Measures
    /// whose formula is asymmetric (KL divergence, χ² variants, adaptive
    /// scaling) and measures whose rounding depends on argument order
    /// (FFT cross-correlation, rescaled log-space DPs) return `false`.
    fn is_symmetric(&self) -> bool {
        true
    }

    /// How many independent accumulation/DP lanes the measure's hot
    /// paths ([`Distance::distance_ws`] / [`Distance::distance_upto`])
    /// process concurrently; `1` means a plain scalar loop.
    ///
    /// Pure introspection for coverage reporting (`tsdist conformance`,
    /// `bench_kernels`) — the value never influences results. Measures
    /// built on the chunked lock-step reductions or the anti-diagonal
    /// wavefront DPs report [`crate::lanes::LANES`]; delegating wrappers
    /// forward their inner measure's hint.
    fn lanes_hint(&self) -> usize {
        1
    }

    /// The input regime on which this measure is a (pseudo)metric — see
    /// [`MetricRegime`]. The default is [`MetricRegime::None`]: a measure
    /// must opt in explicitly to be eligible for triangle-inequality
    /// pivot pruning. Building a pivot table checks the declaration
    /// against sampled triples, a smoke test rather than a proof: a wrong
    /// flag can pass it and then corrupt pruned answers, so override this
    /// only for a measure proven to be a metric on the regime.
    fn metric_regime(&self) -> MetricRegime {
        MetricRegime::None
    }

    /// Whether the measure is a metric on *some* declared input regime —
    /// shorthand for `metric_regime() != MetricRegime::None`.
    fn is_metric(&self) -> bool {
        self.metric_regime() != MetricRegime::None
    }

    /// Which index-tier summary structure admissibly lower-bounds this
    /// measure — see [`IndexProfile`]. The default is
    /// [`IndexProfile::None`]; only plain banded DTW opts in, and
    /// transforming wrappers (derivative, weighted, adaptive-scaled)
    /// deliberately keep the default.
    fn index_profile(&self) -> IndexProfile {
        IndexProfile::None
    }

    /// The kernel this measure is the normalized dissimilarity of, if
    /// any: `Some(k)` promises that [`Distance::distance_ws`] equals
    /// [`normalized_kernel_dissimilarity`] over `k`'s log values of
    /// `(x, y)`, `(x, x)` and `(y, y)` bit for bit. The evaluation
    /// platform then computes each series' self-similarity once instead
    /// of per pair. The default is `None`; [`KernelDistance`] returns its
    /// kernel, and `Box` and `&` forward the inner measure's answer.
    fn as_kernel(&self) -> Option<&dyn Kernel> {
        None
    }
}

impl<D: Distance + ?Sized> Distance for Box<D> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        (**self).distance(x, y)
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        (**self).distance_ws(x, y, ws)
    }
    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        (**self).distance_upto(x, y, ws, cutoff)
    }
    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        (**self).distance_row_ws(x, cols, out, ws)
    }
    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
    fn lanes_hint(&self) -> usize {
        (**self).lanes_hint()
    }
    fn metric_regime(&self) -> MetricRegime {
        (**self).metric_regime()
    }
    fn index_profile(&self) -> IndexProfile {
        (**self).index_profile()
    }
    fn as_kernel(&self) -> Option<&dyn Kernel> {
        (**self).as_kernel()
    }
}

impl<D: Distance + ?Sized> Distance for &D {
    fn name(&self) -> String {
        (**self).name()
    }
    fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        (**self).distance(x, y)
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        (**self).distance_ws(x, y, ws)
    }
    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        (**self).distance_upto(x, y, ws, cutoff)
    }
    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        (**self).distance_row_ws(x, cols, out, ws)
    }
    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
    fn lanes_hint(&self) -> usize {
        (**self).lanes_hint()
    }
    fn metric_regime(&self) -> MetricRegime {
        (**self).metric_regime()
    }
    fn index_profile(&self) -> IndexProfile {
        (**self).index_profile()
    }
    fn as_kernel(&self) -> Option<&dyn Kernel> {
        (**self).as_kernel()
    }
}

/// A positive semi-definite kernel (similarity) function.
///
/// A kernel is evaluated as a [`Distance`]: [`KernelDistance`] turns it
/// into the normalized dissimilarity
/// [`normalized_kernel_dissimilarity`] over log kernel values, which 1-NN
/// classification ranks. The evaluation platform reaches the kernel
/// through [`Distance::as_kernel`] and computes each series' log
/// self-similarity `log k(x,x)` once per matrix or scan, not per pair.
pub trait Kernel: Send + Sync {
    /// Human-readable kernel name, e.g. `"GAK(γ=0.1)"`.
    fn name(&self) -> String;

    /// The kernel value `k(x, y)`, using `ws` for scratch memory — the
    /// kernel's one body (or, for the alignment kernels, the exponential
    /// of their one log-space body). The result must not depend on what
    /// earlier calls left in `ws`.
    fn kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64;

    /// The *logarithm* of the kernel value, using `ws` for scratch
    /// memory. Alignment kernels (GAK, KDTW) override this with their DP
    /// because their raw values underflow `f64` for long series; the
    /// normalized dissimilarity is computed entirely in log space from
    /// this method. The default is `ln(max(k(x, y), f64::MIN_POSITIVE))`.
    fn log_kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.kernel_ws(x, y, ws).max(f64::MIN_POSITIVE).ln()
    }

    /// The kernel value `k(x, y)`: [`Kernel::kernel_ws`] with a fresh
    /// [`Workspace`]. Kernels do not override it.
    fn kernel(&self, x: &[f64], y: &[f64]) -> f64 {
        self.kernel_ws(x, y, &mut Workspace::new())
    }

    /// The self-similarity `k(x, x)`; override when cheaper than the
    /// general case.
    fn self_kernel(&self, x: &[f64]) -> f64 {
        self.kernel(x, x)
    }

    /// Whether `log_kernel_ws(x, y)` and `log_kernel_ws(y, x)` are
    /// bit-identical for all inputs (see [`Distance::is_symmetric`] for
    /// why bit-exactness is the bar). The alignment kernels return
    /// `false`: their per-row rescaling (GAK, KDTW) and FFT rounding
    /// (SINK) depend on argument order even though the kernels are
    /// mathematically symmetric.
    fn is_symmetric(&self) -> bool {
        true
    }
}

impl<K: Kernel + ?Sized> Kernel for Box<K> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        (**self).kernel_ws(x, y, ws)
    }
    fn log_kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        (**self).log_kernel_ws(x, y, ws)
    }
    fn kernel(&self, x: &[f64], y: &[f64]) -> f64 {
        (**self).kernel(x, y)
    }
    fn self_kernel(&self, x: &[f64]) -> f64 {
        (**self).self_kernel(x)
    }
    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
}

/// The normalized kernel dissimilarity
/// `1 - exp(log k(x,y) - (log k(x,x) + log k(y,y)) / 2)`, computed from
/// the three log kernel values. A non-finite self-similarity term (a
/// degenerate series) gives `1`.
#[inline]
pub fn normalized_kernel_dissimilarity(lxy: f64, lxx: f64, lyy: f64) -> f64 {
    let norm = 0.5 * (lxx + lyy);
    if norm.is_finite() {
        1.0 - (lxy - norm).exp()
    } else {
        1.0
    }
}

/// Adapter exposing a [`Kernel`] as a [`Distance`] through
/// [`normalized_kernel_dissimilarity`], so every kernel is usable
/// anywhere a distance is expected. A bare call computes all three log
/// kernel values, so each pair costs three kernel evaluations; through
/// [`Distance::as_kernel`] the evaluation platform's matrices and scans
/// compute each series' self-similarity once and only the cross term
/// per pair, with the same bits.
pub struct KernelDistance<K: Kernel>(pub K);

impl<K: Kernel> Distance for KernelDistance<K> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let lxy = self.0.log_kernel_ws(x, y, ws);
        let lxx = self.0.log_kernel_ws(x, x, ws);
        let lyy = self.0.log_kernel_ws(y, y, ws);
        normalized_kernel_dissimilarity(lxy, lxx, lyy)
    }
    fn is_symmetric(&self) -> bool {
        // `lxx + lyy` commutes bit-exactly, so the adapter is exactly as
        // symmetric as the underlying kernel's cross term.
        self.0.is_symmetric()
    }
    fn as_kernel(&self) -> Option<&dyn Kernel> {
        Some(&self.0)
    }
}

/// Numerical guard added to denominators and log arguments throughout the
/// lock-step measures; many of Cha's formulas assume strictly positive
/// probability densities while z-normalized time series contain zeros and
/// negative values.
pub const EPS: f64 = 1e-10;

#[cfg(test)]
mod tests {
    use super::*;

    struct Dot;
    impl Kernel for Dot {
        fn name(&self) -> String {
            "dot".into()
        }
        fn kernel_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
            x.iter().zip(y).map(|(a, b)| a * b).sum()
        }
    }

    #[test]
    fn kernel_distance_is_zero_for_identical_inputs() {
        let d = KernelDistance(Dot);
        let x = [1.0, 2.0, 3.0];
        assert!(d.distance(&x, &x).abs() < 1e-12);
    }

    #[test]
    fn kernel_distance_is_one_minus_cosine_for_dot_kernel() {
        let d = KernelDistance(Dot);
        let x = [1.0, 0.0];
        let y = [0.0, 1.0];
        assert!((d.distance(&x, &y) - 1.0).abs() < 1e-12);
        let z = [1.0, 1.0];
        let expected = 1.0 - 1.0 / 2.0f64.sqrt();
        assert!((d.distance(&x, &z) - expected).abs() < 1e-12);
    }

    #[test]
    fn degenerate_kernel_norm_yields_unit_distance() {
        let d = KernelDistance(Dot);
        assert_eq!(d.distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn boxed_distance_delegates() {
        struct Abs;
        impl Distance for Abs {
            fn name(&self) -> String {
                "abs".into()
            }
            fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
                x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum()
            }
        }
        let b: Box<dyn Distance> = Box::new(Abs);
        assert_eq!(b.name(), "abs");
        assert_eq!(b.distance(&[1.0], &[3.0]), 2.0);
        assert!(b.as_kernel().is_none());
    }

    #[test]
    fn kernel_distances_expose_their_kernel_through_box_and_ref() {
        let d: Box<dyn Distance> = Box::new(KernelDistance(Dot));
        let (x, y) = ([1.0, 2.0], [3.0, -1.0]);
        let k = d.as_kernel().expect("a kernel distance exposes its kernel");
        assert_eq!(k.name(), "dot");
        assert_eq!(k.kernel(&x, &y), Dot.kernel(&x, &y));
        fn exposes<D: Distance>(d: D) -> bool {
            d.as_kernel().is_some()
        }
        assert!(exposes(&d), "`&D` forwards it");
    }
}
