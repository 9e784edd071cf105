//! Runs the complete reproduction suite — every table and figure binary
//! plus the ablations — with the reference configuration, writing all
//! artifacts to the results directory. This is the one-command version of
//! the reference run recorded in EXPERIMENTS.md. Every flag, the runner's
//! `--journal`, `--deadline-secs` and `--retries` included, is forwarded
//! to each binary; only `--datasets` is set per binary.
//!
//! ```sh
//! cargo run --release -p tsdist-bench --bin run_all            # full (~30 min on 1 core)
//! cargo run --release -p tsdist-bench --bin run_all -- --quick # smoke (~2 min)
//! ```

use std::process::Command;
use std::time::Instant;

use tsdist_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::from_args();
    // (binary, dataset count at reference scale)
    let plan: &[(&str, usize)] = &[
        ("table1", cfg.n_datasets),
        ("table4", cfg.n_datasets),
        ("figure1", 7),
        ("archive_summary", cfg.n_datasets),
        ("table2", cfg.n_datasets),
        ("figure2", cfg.n_datasets),
        ("figure3", cfg.n_datasets),
        ("table3", cfg.n_datasets),
        ("figure4", cfg.n_datasets),
        ("table5", cfg.n_datasets), // emits figures 5/6
        ("figure10", cfg.n_datasets),
        ("figure9", cfg.n_datasets.min(28)),
        ("table7", cfg.n_datasets.min(28)),
        ("ablation_band", cfg.n_datasets.min(28)),
        ("ablation_lb", cfg.n_datasets.min(28)),
        ("ablation_variants", cfg.n_datasets.min(28)),
        ("ablation_knn", cfg.n_datasets.min(28)),
        ("table6", cfg.n_datasets.min(28)), // emits figures 7/8; the slowest
    ];

    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe directory")
        .to_path_buf();

    let total = Instant::now();
    for (bin, datasets) in plan {
        let start = Instant::now();
        eprintln!("==> {bin} (--datasets {datasets})");
        let child = ExperimentConfig {
            n_datasets: *datasets,
            ..cfg.clone()
        };
        let status = Command::new(exe_dir.join(bin))
            .args(child.args())
            .status()
            .unwrap_or_else(|e| {
            panic!("failed to launch {bin}: {e} (build with `cargo build --release -p tsdist-bench` first)")
        });
        assert!(status.success(), "{bin} failed with {status}");
        eprintln!("    done in {:.1}s", start.elapsed().as_secs_f64());
    }
    eprintln!(
        "reproduction suite complete in {:.1}s; artifacts in {}",
        total.elapsed().as_secs_f64(),
        cfg.out_dir.display()
    );
}
