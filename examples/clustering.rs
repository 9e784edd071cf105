//! Time-series clustering under different distance measures.
//!
//! Clustering is one of the tasks the paper's introduction lists as
//! driven by the distance measure, and shift-invariant measures
//! (cross-correlation) are what made k-Shape the state of the art. This
//! example runs k-medoids under ED and under SBD on shift-distorted data
//! and scores both against the ground truth with the Adjusted Rand Index.
//!
//! ```sh
//! cargo run --release --example clustering
//! ```

use tsdist::eval::distance_matrix;
use tsdist::linalg::Matrix;
use tsdist::measures::lockstep::Euclidean;
use tsdist::measures::sliding::CrossCorrelation;
use tsdist::measures::{Distance, Normalization};

/// Plain k-medoids (PAM-style alternation) over a precomputed distance
/// matrix; deterministic via spread-out initial medoids.
fn k_medoids(d: &Matrix, k: usize, iterations: usize) -> Vec<usize> {
    let n = d.rows();
    assert!(k >= 1 && k <= n);

    // Deterministic farthest-point initialization.
    let mut medoids = vec![0usize];
    while medoids.len() < k {
        let next = (0..n)
            .max_by(|&a, &b| {
                let da = medoids
                    .iter()
                    .map(|&m| d[(a, m)])
                    .fold(f64::INFINITY, f64::min);
                let db = medoids
                    .iter()
                    .map(|&m| d[(b, m)])
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .expect("non-empty");
        medoids.push(next);
    }

    let mut assignment = vec![0usize; n];
    for _ in 0..iterations {
        // Assign.
        for i in 0..n {
            assignment[i] = (0..k)
                .min_by(|&a, &b| d[(i, medoids[a])].total_cmp(&d[(i, medoids[b])]))
                .expect("k >= 1");
        }
        // Update medoids.
        let mut changed = false;
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let best = *members
                .iter()
                .min_by(|&&a, &&b| {
                    let ca: f64 = members.iter().map(|&j| d[(a, j)]).sum();
                    let cb: f64 = members.iter().map(|&j| d[(b, j)]).sum();
                    ca.total_cmp(&cb)
                })
                .expect("non-empty cluster");
            if *medoid != best {
                *medoid = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    assignment
}

/// Adjusted Rand Index between two labelings.
fn adjusted_rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let ka = a.iter().max().map(|m| m + 1).unwrap_or(0);
    let kb = b.iter().max().map(|m| m + 1).unwrap_or(0);
    let mut table = vec![vec![0usize; kb]; ka];
    for i in 0..n {
        table[a[i]][b[i]] += 1;
    }
    let c2 = |x: usize| (x * x.saturating_sub(1)) as f64 / 2.0;
    let sum_ij: f64 = table.iter().flatten().map(|&x| c2(x)).sum();
    let sum_a: f64 = table.iter().map(|row| c2(row.iter().sum())).sum();
    let sum_b: f64 = (0..kb)
        .map(|j| c2(table.iter().map(|row| row[j]).sum()))
        .sum();
    let expected = sum_a * sum_b / c2(n);
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        return 0.0;
    }
    (sum_ij - expected) / (max_index - expected)
}

fn main() {
    // Three well-separated shape classes, each instance randomly shifted
    // in time with mild noise — the regime where k-Shape showed SBD
    // clustering shines while lock-step ED falls apart.
    let m = 96;
    let norm = Normalization::ZScore;
    let lcg = |seed: usize| {
        ((seed as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 33) as usize
    };
    let class_shape = |class: usize, t: f64| -> f64 {
        match class {
            0 => (std::f64::consts::TAU * 2.0 * t).sin(),
            1 => (-((t - 0.5) / 0.08).powi(2) / 2.0).exp() * 3.0,
            _ => (std::f64::consts::TAU * 5.0 * t).sin().signum() * 0.8,
        }
    };
    let mut series = Vec::new();
    let mut truth = Vec::new();
    for class in 0..3usize {
        for inst in 0..10usize {
            let shift = lcg(class * 17 + inst + 1) % m;
            let s: Vec<f64> = (0..m)
                .map(|i| {
                    let t = ((i + shift) % m) as f64 / m as f64;
                    let noise = (lcg(class * 1009 + inst * 131 + i) % 1000) as f64 / 1000.0 - 0.5;
                    class_shape(class, t) + 0.3 * noise
                })
                .collect();
            series.push(norm.apply(&s));
            truth.push(class);
        }
    }
    let k = 3;

    println!(
        "clustering {} series ({k} shifted shape classes)\n",
        series.len()
    );

    let mut aris = Vec::new();
    for (name, measure) in [
        ("ED", Box::new(Euclidean) as Box<dyn Distance>),
        ("SBD (NCC_c)", Box::new(CrossCorrelation::sbd())),
    ] {
        let d = distance_matrix(measure.as_ref(), &series, &series);
        let clusters = k_medoids(&d, k, 20);
        let ari = adjusted_rand_index(&clusters, &truth);
        println!("k-medoids under {name:<12} ARI = {ari:.4}");
        aris.push(ari);
    }
    assert!(
        aris[1] > aris[0] + 0.2,
        "SBD clustering should clearly beat ED on shifted data"
    );

    println!("\nOn shift-distorted data the SBD clustering should recover the");
    println!("classes far better than ED — the effect behind k-Shape and the");
    println!("paper's M3 finding.");
}
