//! The declarative study's entrants and report: the orchestration
//! pattern every experiment binary follows — evaluate a set of measures
//! over an archive, compare each against a baseline with Wilcoxon
//! (+ Holm), and rank everything together with Friedman + Nemenyi. The
//! runner is [`run_study_resumable`](crate::runner::run_study_resumable).

use crate::comparison::{render_table, PairwiseComparison, RankingAnalysis};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;

/// One entrant of a study: a named measure under a normalization.
pub struct Entrant {
    /// Display name (defaults to the measure's own name).
    pub name: String,
    /// The measure.
    pub measure: Box<dyn Distance>,
    /// The normalization it runs under.
    pub normalization: Normalization,
}

impl Entrant {
    /// An entrant under z-score normalization.
    pub fn new(measure: Box<dyn Distance>) -> Self {
        Entrant {
            name: measure.name(),
            measure,
            normalization: Normalization::ZScore,
        }
    }

    /// Overrides the normalization.
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self.name = format!("{} [{}]", self.measure.name(), normalization.name());
        self
    }
}

/// The full outcome of a study.
pub struct StudyReport {
    /// Entrant names, baseline first.
    pub names: Vec<String>,
    /// Per-dataset accuracies, one column per entrant (baseline first).
    pub accuracies: Vec<Vec<f64>>,
    /// Pairwise rows against the baseline (entrants 1..).
    pub rows: Vec<PairwiseComparison>,
    /// Holm-adjusted p-values aligned with `rows`.
    pub holm_adjusted: Vec<Option<f64>>,
    /// Friedman + Nemenyi ranking over all entrants.
    pub ranking: RankingAnalysis,
}

impl StudyReport {
    /// Renders the paper-style table plus the CD ranking as text.
    pub fn render(&self, title: &str) -> String {
        let mut out = render_table(
            title,
            &self.rows,
            &format!("{} (baseline)", self.names[0]),
            &self.accuracies[0],
        );
        out.push('\n');
        out.push_str(&self.ranking.render(&format!("{title} — ranking")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_study_resumable, CellRunner, RunnerConfig};
    use tsdist_core::elastic::Msm;
    use tsdist_core::lockstep::{Euclidean, Lorentzian};
    use tsdist_core::sliding::CrossCorrelation;
    use tsdist_data::synthetic::{generate_archive, ArchiveConfig};
    use tsdist_data::Dataset;

    /// A study run by the default runner; every cell must complete.
    fn run_study(archive: &[Dataset], entrants: &[Entrant]) -> StudyReport {
        let runner = CellRunner::new(RunnerConfig::default());
        let robust = run_study_resumable(archive, entrants, &runner);
        assert_eq!(robust.outcome_counts().0, archive.len() * entrants.len());
        robust.report.expect("a complete grid yields a report")
    }

    fn entrants() -> Vec<Entrant> {
        vec![
            Entrant::new(Box::new(Euclidean)),
            Entrant::new(Box::new(Lorentzian)),
            Entrant::new(Box::new(CrossCorrelation::sbd())),
            Entrant::new(Box::new(Msm::new(0.5))),
        ]
    }

    #[test]
    fn study_produces_consistent_shapes() {
        let archive = generate_archive(&ArchiveConfig::quick(7, 13));
        let report = run_study(&archive, &entrants());
        assert_eq!(report.names.len(), 4);
        assert_eq!(report.accuracies.len(), 4);
        assert!(report.accuracies.iter().all(|col| col.len() == 7));
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.holm_adjusted.len(), 3);
        assert_eq!(report.ranking.friedman.average_ranks.len(), 4);
        // Counts per row cover every dataset.
        for r in &report.rows {
            assert_eq!(r.better + r.equal + r.worse, 7);
        }
    }

    #[test]
    fn rendered_report_contains_every_entrant() {
        let archive = generate_archive(&ArchiveConfig::quick(7, 13));
        let report = run_study(&archive, &entrants());
        let text = report.render("Study");
        for name in &report.names {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("CD"));
    }

    #[test]
    fn entrant_normalization_override_renames() {
        let e = Entrant::new(Box::new(Euclidean)).with_normalization(Normalization::MinMax);
        assert!(e.name.contains("MinMax"));
    }

    #[test]
    fn holm_values_never_undercut_raw_p() {
        let archive = generate_archive(&ArchiveConfig::quick(7, 29));
        let report = run_study(&archive, &entrants());
        for (row, adj) in report.rows.iter().zip(&report.holm_adjusted) {
            if let (Some(p), Some(a)) = (row.p_value, adj) {
                assert!(*a >= p);
            }
        }
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn single_entrant_panics() {
        let archive = generate_archive(&ArchiveConfig::quick(1, 1));
        let _ = run_study(&archive, &[Entrant::new(Box::new(Euclidean))]);
    }
}
