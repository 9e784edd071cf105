//! Order statistics shared by every workload: the median, the highest
//! percentile a sample can support, and the quartiles the repeat mode
//! reports.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
/// `+inf` samples (refused requests) sort last and may be returned.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = rank_of(sorted.len(), p);
    sorted[rank.max(1) - 1]
}

/// The nearest rank (1-based) of percentile `p` among `n` samples. The
/// small slack keeps representation error (99.9% of 10000 computes as
/// 9990.000000000002) from pushing an exact rank up by one.
fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p).min(n)
}

/// The highest percentile with at least [`MIN_BEYOND`] of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median and tail of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The percentile the tail is reported at.
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

/// Summarizes `samples` with its tail at `tail_p`, which the caller
/// fixes from the sample count it guarantees (see [`tail_percentile`]).
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// `tail_p`, so a tail is never read off too few samples.
pub fn summarize(samples: &[f64], tail_p: f64) -> Option<Summary> {
    if samples.is_empty() || beyond(samples.len(), tail_p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_p,
        tail: percentile(&sorted, tail_p),
    })
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method) computes them, so the repeat mode's
/// spreads match the ones the benchmark is judged by. Needs two or more
/// values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 leaves 9 beyond, so the tail drops to p90.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
    }

    #[test]
    fn summarize_refuses_a_tail_with_too_few_samples_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(summarize(&samples, 99.0).is_none());
        let s = summarize(&samples, 90.0).expect("p90 has 99 beyond");
        assert_eq!(s.n, 999);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 900.0);
    }

    #[test]
    fn refused_requests_sort_into_the_tail() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for v in samples.iter_mut().skip(985) {
            *v = f64::INFINITY;
        }
        let s = summarize(&samples, 99.0).expect("1000 samples support p99");
        assert_eq!(s.tail, f64::INFINITY);
        assert_eq!(s.p50, 500.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
