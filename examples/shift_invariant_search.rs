//! Shift-invariant similarity search — the misconception-M3 demo.
//!
//! A sensor fires the same event signature at different times in each
//! recording. Lock-step ED is blind to the time offset and retrieves the
//! wrong neighbour; the sliding NCC_c (cross-correlation / SBD) measure
//! slides the query over each candidate and recovers both the right
//! neighbour and the alignment lag.
//!
//! ```sh
//! cargo run --release --example shift_invariant_search
//! ```

use tsdist::fft::CcScratch;
use tsdist::measures::lockstep::Euclidean;
use tsdist::measures::sliding::CrossCorrelation;
use tsdist::measures::{Distance, Normalization};

/// An event signature: a sharp double bump.
fn event_at(m: usize, center: f64, width: f64) -> Vec<f64> {
    (0..m)
        .map(|i| {
            let t = i as f64;
            let d1 = (t - center) / width;
            let d2 = (t - center - 2.5 * width) / width;
            (-d1 * d1 / 2.0).exp() - 0.6 * (-d2 * d2 / 2.0).exp()
        })
        .collect()
}

/// A slow drift, a different physical process.
fn drift(m: usize, phase: f64) -> Vec<f64> {
    (0..m)
        .map(|i| 0.8 * (i as f64 * 0.05 + phase).sin())
        .collect()
}

fn main() {
    let m = 128;
    let norm = Normalization::ZScore;

    // The query: an event at t = 30.
    let query = norm.apply(&event_at(m, 30.0, 4.0));

    // The database: the same event at other offsets, plus drift signals.
    let database: Vec<(&str, Vec<f64>)> = vec![
        (
            "event @ t=80 (same signature, shifted)",
            norm.apply(&event_at(m, 80.0, 4.0)),
        ),
        (
            "event @ t=55 (same signature, shifted)",
            norm.apply(&event_at(m, 55.0, 4.0)),
        ),
        (
            "drift  φ=0.0 (different process)",
            norm.apply(&drift(m, 0.0)),
        ),
        (
            "drift  φ=1.5 (different process)",
            norm.apply(&drift(m, 1.5)),
        ),
    ];

    println!("query: event signature at t=30\n");
    println!("{:<42} {:>10} {:>10}", "candidate", "ED", "SBD");
    let sbd = CrossCorrelation::sbd();
    let mut ed_best = (f64::INFINITY, "");
    let mut sbd_best = (f64::INFINITY, "");
    for (name, series) in &database {
        let d_ed = Euclidean.distance(&query, series);
        let d_sbd = sbd.distance(&query, series);
        println!("{name:<42} {d_ed:>10.4} {d_sbd:>10.4}");
        if d_ed < ed_best.0 {
            ed_best = (d_ed, name);
        }
        if d_sbd < sbd_best.0 {
            sbd_best = (d_sbd, name);
        }
    }
    println!("\nED  retrieves: {}", ed_best.1);
    println!("SBD retrieves: {}", sbd_best.1);

    // Recover the alignment lag for the best SBD match via the full
    // cross-correlation sequence.
    let best_series = &database
        .iter()
        .find(|(n, _)| *n == sbd_best.1)
        .expect("best candidate present")
        .1;
    let mut scratch = CcScratch::new();
    let cc = scratch.cross_correlation(best_series, &query);
    let (argmax, _) = cc
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    let lag = argmax as isize - (query.len() as isize - 1);
    println!("alignment lag of the retrieved event: {lag} samples");

    assert!(
        sbd_best.1.starts_with("event"),
        "SBD must retrieve a shifted copy of the event"
    );
}
