//! # tsdist-stats
//!
//! Statistical validation machinery for the `tsdist` evaluation framework,
//! implementing exactly the methodology of the paper (Section 3,
//! "Statistical analysis", following Demšar 2006):
//!
//! * the **Wilcoxon signed-rank test** ([`wilcoxon_signed_rank`]) for
//!   pairwise comparisons of measures over multiple datasets (the paper
//!   uses a 95% confidence level),
//! * the **Friedman test** ([`friedman_test`]) followed by the post-hoc
//!   **Nemenyi test** ([`nemenyi_critical_difference`],
//!   [`nemenyi_significant_pairs`]) for comparing multiple measures
//!   together (the paper uses a 90% confidence level),
//! * the supporting distributions (normal, chi-squared, infinite-df
//!   studentized range — computed numerically rather than from hardcoded
//!   tables) and midrank-based ranking utilities.
//!
//! ```
//! use tsdist_stats::{friedman_test, nemenyi_significant_pairs};
//! // 12 datasets x 3 measures; measure 0 dominates.
//! let acc: Vec<Vec<f64>> = (0..12).map(|_| vec![0.9, 0.7, 0.6]).collect();
//! let fr = friedman_test(&acc);
//! assert!(fr.significant_at(0.10));
//! let (_cd, pairs) = nemenyi_significant_pairs(&fr, 0.10);
//! assert!(pairs.contains(&(0, 2)));
//! ```

#![warn(missing_docs)]

mod corrections;
mod dist;
mod friedman;
mod rank;
mod wilcoxon;

pub use corrections::holm_adjust;
pub use dist::{
    chi_squared_cdf, erf, gamma_p, ln_gamma, normal_cdf, normal_pdf, normal_quantile,
    studentized_range_cdf, studentized_range_quantile,
};
pub use friedman::{
    friedman_test, nemenyi_critical_difference, nemenyi_significant_pairs, FriedmanResult,
};
pub use rank::{average_ranks, average_ranks_descending, tie_group_sizes};
pub use wilcoxon::{wilcoxon_signed_rank, WilcoxonResult};
