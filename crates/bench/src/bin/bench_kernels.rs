//! `BENCH_kernels.json`: vectorized kernel micro-benchmark.
//!
//! Times the production distance kernels against their scalar twins on
//! fixed-seed synthetic series, reporting medians and derived throughput:
//!
//! * **lock-step** — the multi-lane `chunks_exact` reductions
//!   (`lanes::lane_sum` family) vs a sequential zip fold of the same
//!   term, in GB/s of series data touched (two `f64` slices per pair);
//! * **DP** — `distance_ws` of DTW (at its 10% band) and WDTW, both the
//!   anti-diagonal wavefront, vs the row-major reference kernels, in DP
//!   cells/s;
//! * **row** — the batch-axis row kernels of MSM, TWE, banded DTW and
//!   NCC_c (`Distance::distance_row_ws`, eight training series per SIMD
//!   lane) vs the per-pair `distance_ws` loop over the same matrix rows,
//!   in µs per pair and, for the DPs, DP cells/s. DTW also runs at a long
//!   length, where its per-pair wavefront is strongest;
//! * **wire** — the `tsdist serve` request codec over a fixed corpus of
//!   query lines, one per test series of a seeded standard-scale archive:
//!   `parse_request_limited` (decode) and `render_query` (encode), in ns
//!   per line.
//!
//! The scalar twins live in this binary on purpose: they are the
//! pre-vectorization implementations, kept runnable so the speedup
//! claims in DESIGN.md §9 stay measurable rather than historical. The
//! run also asserts the numeric contracts that make the comparison
//! meaningful — wavefront DP values are *bit-identical* to row-major,
//! every row-kernel entry is *bit-identical* to its per-pair value, on
//! the timed rows and on tie-heavy rows (grid values held in runs);
//! lane reductions agree within the lock-step conformance tolerance,
//! every decoded wire line gives back its source request with the
//! series *bit-identical* — and reports `lanes_hint` coverage over the
//! parameter-free registry.
//!
//! `--quick` shrinks series lengths / pair counts / repetitions for the
//! `scripts/check.sh` smoke; the acceptance run uses defaults. The ledger
//! goes to the repository root unless `--out` names another directory.

use std::hint::black_box;
use std::time::Instant;

use tsdist_bench::ExperimentConfig;
use tsdist_core::elastic::{
    dtw::dtw_banded_ws, wdtw_row_major, DerivativeDtw, Dtw, Erp, Msm, Twe, WeightedDtw,
};
use tsdist_core::lockstep::{Chebyshev, CityBlock, Euclidean, Minkowski};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::registry;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_core::Workspace;
use tsdist_data::synthetic::{generate_archive, ArchiveConfig};
use tsdist_serve::{parse_request_limited, render_query, Limits, QueryRequest, Request};

/// SplitMix64 noise in `[-2, 2)` — the same deterministic generator the
/// conformance batteries use, so runs are reproducible by seed alone.
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) as f64 / u64::MAX as f64) * 4.0 - 2.0
    }

    fn series(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }

    /// Noise rounded to a 0.5 grid and held for runs of 1–4 samples:
    /// equal neighbours and equal values across series, so the DP cells
    /// see ties between their candidates.
    fn tie_series(&mut self, n: usize) -> Vec<f64> {
        let mut s = Vec::with_capacity(n);
        while s.len() < n {
            let v = (self.next() * 2.0).round() / 2.0;
            let run = 1 + (self.next().abs() * 2.0) as usize;
            s.extend(std::iter::repeat_n(v, run.min(n - s.len())));
        }
        s
    }
}

/// Median wall-clock of `reps` runs of `f`, with the returned sink value
/// folded into `black_box` so the work cannot be elided.
fn median_seconds(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct LockstepRow {
    name: &'static str,
    scalar_seconds: f64,
    lane_seconds: f64,
    gbps_scalar: f64,
    gbps_lane: f64,
    max_rel_err: f64,
    lanes_hint: usize,
}

/// One lock-step measure against its sequential twin over all pairs.
fn bench_lockstep(
    name: &'static str,
    d: &dyn Distance,
    scalar: &dyn Fn(&[f64], &[f64]) -> f64,
    pairs: &[(Vec<f64>, Vec<f64>)],
    reps: usize,
) -> LockstepRow {
    let mut ws = Workspace::new();
    let lane_seconds = median_seconds(reps, || {
        pairs
            .iter()
            .map(|(x, y)| d.distance_ws(x, y, &mut ws))
            .sum()
    });
    let scalar_seconds = median_seconds(reps, || pairs.iter().map(|(x, y)| scalar(x, y)).sum());
    let mut max_rel_err = 0.0f64;
    for (x, y) in pairs {
        let a = d.distance_ws(x, y, &mut ws);
        let b = scalar(x, y);
        let rel = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
        max_rel_err = max_rel_err.max(rel);
    }
    let bytes = (pairs.len() * pairs[0].0.len() * 2 * std::mem::size_of::<f64>()) as f64;
    LockstepRow {
        name,
        scalar_seconds,
        lane_seconds,
        gbps_scalar: bytes / scalar_seconds.max(1e-12) / 1e9,
        gbps_lane: bytes / lane_seconds.max(1e-12) / 1e9,
        max_rel_err,
        lanes_hint: d.lanes_hint(),
    }
}

/// Banded DP cell count for an `m × n` table with Sakoe–Chiba radius
/// `band` (matches the row-major kernel's per-row windows).
fn banded_cells(m: usize, n: usize, band: usize) -> u64 {
    let mut cells = 0u64;
    for i in 1..=m {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(n);
        if lo <= hi {
            cells += (hi - lo + 1) as u64;
        }
    }
    cells
}

struct DpRow {
    name: &'static str,
    rowmajor_seconds: f64,
    wavefront_seconds: f64,
    cells_per_sec_rowmajor: f64,
    cells_per_sec_wavefront: f64,
    identical_bits: bool,
    lanes_hint: usize,
}

/// One anti-diagonal `distance_ws` against its row-major `reference`
/// over `inputs`, in DP cells/s (`cells` per pass), with the bit gate.
fn bench_dp(
    name: &'static str,
    d: &dyn Distance,
    reference: impl Fn(&[f64], &[f64], &mut Workspace) -> f64,
    inputs: &[(Vec<f64>, Vec<f64>)],
    cells: u64,
    reps: usize,
) -> DpRow {
    let mut ws = Workspace::new();
    let wavefront_seconds = median_seconds(reps, || {
        inputs
            .iter()
            .map(|(x, y)| d.distance_ws(x, y, &mut ws))
            .sum()
    });
    let rowmajor_seconds = median_seconds(reps, || {
        inputs.iter().map(|(x, y)| reference(x, y, &mut ws)).sum()
    });
    let identical_bits = inputs
        .iter()
        .all(|(x, y)| d.distance_ws(x, y, &mut ws).to_bits() == reference(x, y, &mut ws).to_bits());
    DpRow {
        name,
        rowmajor_seconds,
        wavefront_seconds,
        cells_per_sec_rowmajor: cells as f64 / rowmajor_seconds.max(1e-12),
        cells_per_sec_wavefront: cells as f64 / wavefront_seconds.max(1e-12),
        identical_bits,
        lanes_hint: d.lanes_hint(),
    }
}

struct RowKernelRow {
    name: String,
    length: usize,
    pair_seconds: f64,
    row_seconds: f64,
    us_per_pair_pair: f64,
    us_per_pair_row: f64,
    /// DP cells per second (pair, row); `None` for the FFT measures.
    cells_per_sec: Option<(f64, f64)>,
    identical_bits: bool,
}

/// Whether every entry of the rows `queries` x `cols` is the per-pair
/// value bit for bit.
fn rows_identical(
    d: &dyn Distance,
    queries: &[Vec<f64>],
    cols: &[Vec<f64>],
    ws: &mut Workspace,
) -> bool {
    let mut out = vec![0.0; cols.len()];
    queries.iter().all(|x| {
        d.distance_row_ws(x, cols, &mut out, ws);
        out.iter()
            .zip(cols)
            .all(|(&v, y)| v.to_bits() == d.distance_ws(x, y, ws).to_bits())
    })
}

/// One measure's matrix rows (`queries` x `cols`) through the row kernel
/// against the per-pair `distance_ws` loop the batch engine ran before.
/// `cells` counts a DP measure's cells for a pair of lengths. The bit
/// check covers the timed rows and the tie-heavy rows `ties`.
fn bench_row_kernel(
    name: String,
    d: &dyn Distance,
    queries: &[Vec<f64>],
    cols: &[Vec<f64>],
    ties: &(Vec<Vec<f64>>, Vec<Vec<f64>>),
    reps: usize,
    cells: Option<&dyn Fn(usize, usize) -> u64>,
) -> RowKernelRow {
    let mut ws = Workspace::new();
    let mut out = vec![0.0; cols.len()];
    let row_seconds = median_seconds(reps, || {
        queries
            .iter()
            .map(|x| {
                d.distance_row_ws(x, cols, &mut out, &mut ws);
                out.iter().sum::<f64>()
            })
            .sum()
    });
    let pair_seconds = median_seconds(reps, || {
        queries
            .iter()
            .flat_map(|x| cols.iter().map(move |y| (x, y)))
            .map(|(x, y)| d.distance_ws(x, y, &mut ws))
            .sum()
    });
    let identical_bits =
        rows_identical(d, queries, cols, &mut ws) && rows_identical(d, &ties.0, &ties.1, &mut ws);
    let pairs = (queries.len() * cols.len()) as f64;
    let cells_per_sec = cells.map(|cells| {
        let total: u64 = queries
            .iter()
            .flat_map(|x| cols.iter().map(move |y| cells(x.len(), y.len())))
            .sum();
        (
            total as f64 / pair_seconds.max(1e-12),
            total as f64 / row_seconds.max(1e-12),
        )
    });
    RowKernelRow {
        name,
        length: cols.first().map_or(0, Vec::len),
        pair_seconds,
        row_seconds,
        us_per_pair_pair: pair_seconds / pairs * 1e6,
        us_per_pair_row: row_seconds / pairs * 1e6,
        cells_per_sec,
        identical_bits,
    }
}

struct WireRow {
    lines: usize,
    bytes_per_line: f64,
    points_per_line: f64,
    decode_ns: f64,
    encode_ns: f64,
    identical_bits: bool,
}

/// The request codec over `queries`, `passes` sweeps per repetition:
/// decode (`parse_request_limited` under the default limits) and encode
/// (`render_query`) in ns per line. The bit gate: every line decodes to
/// its source request, the series bit for bit.
fn bench_wire(queries: &[QueryRequest], passes: usize, reps: usize) -> WireRow {
    let lines: Vec<String> = queries.iter().map(render_query).collect();
    let limits = Limits::default();
    let per_line = |seconds: f64| seconds / (passes * lines.len()) as f64 * 1e9;
    let decode_ns = per_line(median_seconds(reps, || {
        let mut ok = 0.0;
        for _ in 0..passes {
            for line in &lines {
                ok += f64::from(u8::from(
                    parse_request_limited(black_box(line), &limits).is_ok(),
                ));
            }
        }
        ok
    }));
    let encode_ns = per_line(median_seconds(reps, || {
        let mut bytes = 0.0;
        for _ in 0..passes {
            for q in queries {
                bytes += render_query(black_box(q)).len() as f64;
            }
        }
        bytes
    }));
    // `==` covers every field; the bits also tell -0.0 from 0.0. The
    // archive series are finite, so no NaN fails `==`.
    let identical_bits = lines.iter().zip(queries).all(|(line, q)| {
        matches!(parse_request_limited(line, &limits), Ok(Request::Query(back))
            if back == *q
                && back.series.iter().zip(&q.series).all(|(a, b)| a.to_bits() == b.to_bits()))
    });
    let n = lines.len() as f64;
    WireRow {
        lines: lines.len(),
        bytes_per_line: lines.iter().map(String::len).sum::<usize>() as f64 / n,
        points_per_line: queries.iter().map(|q| q.series.len()).sum::<usize>() as f64 / n,
        decode_ns,
        encode_ns,
        identical_bits,
    }
}

fn main() {
    let cfg = ExperimentConfig::ledger_from_args();
    let (len, ls_pairs, dp_pairs, reps) = if cfg.quick {
        (256usize, 64usize, 8usize, 3usize)
    } else {
        (1024, 256, 32, 5)
    };
    // Row kernels: series of a study-sized length; the column count is
    // not a multiple of the lane width, so a partial block is timed too.
    // The long DTW rows use the lock-step/DP length.
    let (row_len, row_queries, row_cols) = if cfg.quick {
        (64usize, 3usize, 20usize)
    } else {
        (128, 8, 60)
    };
    let (long_queries, long_cols) = if cfg.quick { (1usize, 9usize) } else { (2, 20) };
    // Wire corpus: every test series of a standard-scale archive (64 to
    // 160 samples), the same corpus in both modes.
    const WIRE_DATASETS: usize = 4;
    let wire_passes = if cfg.quick { 2usize } else { 20 };
    let dtw = Dtw::with_window_pct(10.0);
    let band = dtw.band(len, len);
    let mut noise = Noise(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBEEF);
    let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..ls_pairs)
        .map(|_| (noise.series(len), noise.series(len)))
        .collect();
    eprintln!(
        "[bench_kernels] {ls_pairs} lock-step pairs / {dp_pairs} DP pairs, length {len}, \
         band {band}, {reps} reps"
    );

    // --- Lock-step: multi-lane reduction vs sequential zip fold. ------
    let mink = Minkowski::new(3.0);
    let lockstep: Vec<LockstepRow> = vec![
        bench_lockstep(
            "ED",
            &Euclidean,
            &|x, y| {
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            },
            &pairs,
            reps,
        ),
        bench_lockstep(
            "CityBlock",
            &CityBlock,
            &|x, y| x.iter().zip(y).map(|(&a, &b)| (a - b).abs()).sum(),
            &pairs,
            reps,
        ),
        bench_lockstep(
            "Chebyshev",
            &Chebyshev,
            &|x, y| {
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            },
            &pairs,
            reps,
        ),
        bench_lockstep(
            "Minkowski(p=3)",
            &mink,
            &|x, y| {
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| (a - b).abs().powf(3.0))
                    .sum::<f64>()
                    .powf(1.0 / 3.0)
            },
            &pairs,
            reps,
        ),
    ];
    for row in &lockstep {
        eprintln!(
            "[bench_kernels] {:14} scalar {:7.2} GB/s  lanes {:7.2} GB/s  x{:4.2}  \
             rel-err {:.2e}",
            row.name,
            row.gbps_scalar,
            row.gbps_lane,
            row.scalar_seconds / row.lane_seconds.max(1e-12),
            row.max_rel_err
        );
    }

    // --- DP: anti-diagonal wavefront vs row-major reference. ----------
    let dp_inputs = &pairs[..dp_pairs];
    let cells = banded_cells(len, len, band) * dp_pairs as u64;
    let full_cells = banded_cells(len, len, len) * dp_pairs as u64;
    let wdtw = WeightedDtw::new(0.05);

    let dp_rows = vec![
        bench_dp(
            "DTW(10%)",
            &dtw,
            |x, y, ws| dtw_banded_ws(x, y, band, ws),
            dp_inputs,
            cells,
            reps,
        ),
        bench_dp(
            "WDTW(g=0.05)",
            &wdtw,
            |x, y, _| wdtw_row_major(x, y, wdtw.g),
            dp_inputs,
            full_cells,
            reps,
        ),
    ];
    for row in &dp_rows {
        eprintln!(
            "[bench_kernels] {:14} row-major {:8.1} Mcells/s  wavefront {:8.1} Mcells/s  \
             x{:4.2}  bits {}",
            row.name,
            row.cells_per_sec_rowmajor / 1e6,
            row.cells_per_sec_wavefront / 1e6,
            row.rowmajor_seconds / row.wavefront_seconds.max(1e-12),
            row.identical_bits
        );
    }

    // --- Row kernels: batch-axis rows vs the per-pair loop. ----------
    let queries: Vec<Vec<f64>> = (0..row_queries).map(|_| noise.series(row_len)).collect();
    let cols: Vec<Vec<f64>> = (0..row_cols).map(|_| noise.series(row_len)).collect();
    let long_x: Vec<Vec<f64>> = (0..long_queries).map(|_| noise.series(len)).collect();
    let long_y: Vec<Vec<f64>> = (0..long_cols).map(|_| noise.series(len)).collect();
    // Tie-heavy rows for the bit check: grid values in runs, a column
    // repeated inside a block and the query among the columns.
    let mut tie_cols: Vec<Vec<f64>> = (0..row_cols).map(|_| noise.tie_series(row_len)).collect();
    tie_cols[5] = tie_cols[2].clone();
    tie_cols[7] = vec![0.5; row_len];
    let mut tie_queries: Vec<Vec<f64>> = (0..row_queries)
        .map(|_| noise.tie_series(row_len))
        .collect();
    tie_queries.push(tie_cols[9].clone());
    let ties = (tie_queries, tie_cols);
    let full_table = |m: usize, n: usize| (m * n) as u64;
    let dtw_cells = |m: usize, n: usize| banded_cells(m, n, dtw.band(m, n));
    let msm = Msm::new(0.5);
    let twe = Twe::new(1.0, 1e-4);
    let sbd = CrossCorrelation::sbd();
    let row_kernels = vec![
        bench_row_kernel(
            msm.name(),
            &msm,
            &queries,
            &cols,
            &ties,
            reps,
            Some(&full_table),
        ),
        bench_row_kernel(
            "TWE(l=1,nu=1e-4)".into(),
            &twe,
            &queries,
            &cols,
            &ties,
            reps,
            Some(&full_table),
        ),
        bench_row_kernel(
            dtw.name(),
            &dtw,
            &queries,
            &cols,
            &ties,
            reps,
            Some(&dtw_cells),
        ),
        bench_row_kernel(
            format!("{}@{len}", dtw.name()),
            &dtw,
            &long_x,
            &long_y,
            &ties,
            reps,
            Some(&dtw_cells),
        ),
        bench_row_kernel(sbd.name(), &sbd, &queries, &cols, &ties, reps, None),
    ];
    for row in &row_kernels {
        eprintln!(
            "[bench_kernels] {:16} len {:5}  pair {:8.2} us  row {:8.2} us  x{:4.2}  bits {}",
            row.name,
            row.length,
            row.us_per_pair_pair,
            row.us_per_pair_row,
            row.pair_seconds / row.row_seconds.max(1e-12),
            row.identical_bits
        );
    }

    // --- Wire: the serve request codec over archive test series. -----
    let archive = generate_archive(&ArchiveConfig::standard(WIRE_DATASETS, cfg.seed));
    let wire_queries: Vec<QueryRequest> = archive
        .iter()
        .flat_map(|ds| ds.test.iter().map(move |s| (ds, s)))
        .enumerate()
        .map(|(i, (ds, s))| QueryRequest {
            id: i as u64,
            dataset: ds.name.clone(),
            measure: if i % 2 == 0 { "ed" } else { "dtw:10" }.into(),
            norm: Normalization::ZScore,
            k: 1,
            pruned: true,
            series: s.clone(),
            deadline_ms: None,
        })
        .collect();
    let wire = bench_wire(&wire_queries, wire_passes, reps);
    eprintln!(
        "[bench_kernels] wire {} lines ({:.0} B, {:.1} points each): decode {:8.0} ns  \
         encode {:8.0} ns per line  bits {}",
        wire.lines,
        wire.bytes_per_line,
        wire.points_per_line,
        wire.decode_ns,
        wire.encode_ns,
        wire.identical_bits
    );

    // --- lanes_hint coverage over the registry. -----------------------
    let mut instances: Vec<(String, usize)> = registry::lockstep_parameter_free()
        .into_iter()
        .map(|d| (d.name(), d.lanes_hint()))
        .collect();
    let elastic: Vec<Box<dyn Distance>> = vec![
        Box::new(Dtw::with_window_pct(10.0)),
        Box::new(DerivativeDtw::with_window_pct(10.0)),
        Box::new(WeightedDtw::new(0.05)),
        Box::new(Msm::new(0.5)),
        Box::new(Twe::new(1.0, 1e-4)),
        Box::new(Erp::new()),
    ];
    instances.extend(elastic.iter().map(|d| (d.name(), d.lanes_hint())));
    let vectorized = instances.iter().filter(|(_, l)| *l > 1).count();
    eprintln!(
        "[bench_kernels] coverage: {vectorized} of {} registry instances vectorized",
        instances.len()
    );

    // --- JSON artifact. ----------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"length\": {len}, \"lockstep_pairs\": {ls_pairs}, \
         \"dp_pairs\": {dp_pairs}, \"band\": {band}, \"repetitions\": {reps}, \
         \"row_length\": {row_len}, \"row_queries\": {row_queries}, \
         \"row_columns\": {row_cols}, \"long_row_queries\": {long_queries}, \
         \"long_row_columns\": {long_cols}, \"wire_datasets\": {WIRE_DATASETS}, \"wire_passes\": {wire_passes}, \
         \"seed\": {}, \"quick\": {}}},\n",
        cfg.seed, cfg.quick
    ));
    json.push_str("  \"lockstep\": [\n");
    for (i, r) in lockstep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_seconds\": {:.6}, \"lane_seconds\": {:.6}, \
             \"speedup\": {:.3}, \"gbps_scalar\": {:.3}, \"gbps_lane\": {:.3}, \
             \"max_rel_err\": {:e}, \"lanes_hint\": {}}}{}\n",
            r.name,
            r.scalar_seconds,
            r.lane_seconds,
            r.scalar_seconds / r.lane_seconds.max(1e-12),
            r.gbps_scalar,
            r.gbps_lane,
            r.max_rel_err,
            r.lanes_hint,
            if i + 1 < lockstep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"dp\": [\n");
    for (i, r) in dp_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rowmajor_seconds\": {:.6}, \
             \"wavefront_seconds\": {:.6}, \"speedup\": {:.3}, \
             \"cells_per_sec_rowmajor\": {:.0}, \"cells_per_sec_wavefront\": {:.0}, \
             \"identical_bits\": {}, \"lanes_hint\": {}}}{}\n",
            r.name,
            r.rowmajor_seconds,
            r.wavefront_seconds,
            r.rowmajor_seconds / r.wavefront_seconds.max(1e-12),
            r.cells_per_sec_rowmajor,
            r.cells_per_sec_wavefront,
            r.identical_bits,
            r.lanes_hint,
            if i + 1 < dp_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"row\": [\n");
    for (i, r) in row_kernels.iter().enumerate() {
        let (cells_pair, cells_row) = match r.cells_per_sec {
            Some((pair, row)) => (format!("{pair:.0}"), format!("{row:.0}")),
            None => ("null".into(), "null".into()),
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"pair_seconds\": {:.6}, \"row_seconds\": {:.6}, \
             \"speedup\": {:.3}, \"length\": {}, \"us_per_pair_pair\": {:.3}, \
             \"us_per_pair_row\": {:.3}, \"cells_per_sec_pair\": {cells_pair}, \
             \"cells_per_sec_row\": {cells_row}, \"identical_bits\": {}}}{}\n",
            r.name,
            r.pair_seconds,
            r.row_seconds,
            r.pair_seconds / r.row_seconds.max(1e-12),
            r.length,
            r.us_per_pair_pair,
            r.us_per_pair_row,
            r.identical_bits,
            if i + 1 < row_kernels.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"wire\": {{\"lines\": {}, \"bytes_per_line\": {:.1}, \
         \"points_per_line\": {:.1}, \"decode_ns_per_line\": {:.0}, \
         \"encode_ns_per_line\": {:.0}, \"identical_bits\": {}}},\n",
        wire.lines,
        wire.bytes_per_line,
        wire.points_per_line,
        wire.decode_ns,
        wire.encode_ns,
        wire.identical_bits
    ));
    json.push_str(&format!(
        "  \"coverage\": {{\"vectorized\": {vectorized}, \"total\": {}}}\n}}\n",
        instances.len()
    ));
    cfg.save("BENCH_kernels.json", &json);

    // --- Gates. -------------------------------------------------------
    let mut failed = false;
    for r in &lockstep {
        // Lock-step conformance tolerance: the lane reduction may only
        // reassociate, never change the math.
        if r.max_rel_err > 1e-12 {
            eprintln!(
                "FAIL: {} lane kernel drifts {:e} from the scalar twin (tolerance 1e-12)",
                r.name, r.max_rel_err
            );
            failed = true;
        }
    }
    for r in &dp_rows {
        if !r.identical_bits {
            eprintln!(
                "FAIL: {} wavefront is not bit-identical to row-major",
                r.name
            );
            failed = true;
        }
    }
    for r in &row_kernels {
        if !r.identical_bits {
            eprintln!(
                "FAIL: {} row kernel is not bit-identical to the per-pair kernel",
                r.name
            );
            failed = true;
        }
    }
    if !wire.identical_bits {
        eprintln!("FAIL: a decoded wire line differs from the request it was rendered from");
        failed = true;
    }
    if vectorized == 0 {
        eprintln!("FAIL: no registry instance reports a vectorized kernel");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
