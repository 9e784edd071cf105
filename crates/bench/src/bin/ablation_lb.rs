//! Ablation: DTW lower-bound pruning rates per distortion archetype
//! (the Section 10 remark that elastic runtimes improve substantially
//! with lower bounding), measured on the indexed 1-NN scan's
//! `LB_PAA` → `LB_Keogh` cascade, whose survivors run in lane blocks of
//! the DTW row kernel.

use tsdist_bench::ExperimentConfig;
use tsdist_core::elastic::Dtw;
use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_eval::{indexed_nn_search_stats, parallel_map, prepare, IndexedStats};

fn main() {
    let cfg = ExperimentConfig::from_args();
    let archive = cfg.archive();
    let dtw = Dtw::with_window_pct(10.0);

    let stats: Vec<(String, IndexedStats, f64)> = parallel_map(archive.len(), |i| {
        let ds = prepare(&archive[i], Normalization::ZScore);
        let mut ix = TrainIndex::build(&ds.train);
        ix.prepare_measure(&dtw, &ds.train);
        let (nns, stats) = indexed_nn_search_stats(&dtw, &ds.test, &ds.train, &ix, true);
        let correct = nns
            .iter()
            .zip(&ds.test_labels)
            .filter(|(nn, &truth)| {
                nn.index.map_or(ds.train_labels[0], |j| ds.train_labels[j]) == truth
            })
            .count();
        let accuracy = correct as f64 / ds.test_labels.len().max(1) as f64;
        (archive[i].name.clone(), stats, accuracy)
    });

    let mut out = String::from(
        "## Ablation: LB_PAA + LB_Keogh cascade in exact DTW(δ=10) 1-NN search (indexed scan)\n",
    );
    out.push_str(&format!(
        "{:<28} {:>10} {:>8}\n",
        "dataset", "examined", "acc"
    ));
    let mut total_examined = 0.0;
    for (name, s, accuracy) in &stats {
        out.push_str(&format!(
            "{:<28} {:>9.1}% {:>8.4}\n",
            name,
            s.examined_fraction() * 100.0,
            accuracy
        ));
        total_examined += s.examined_fraction();
    }
    out.push_str(&format!(
        "average examined: {:.1}% of candidates reached DTW (accuracy identical to exact search by construction)\n",
        100.0 * total_examined / stats.len() as f64
    ));
    cfg.save("ablation_lb.txt", &out);
}
