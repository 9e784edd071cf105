//! The lint passes.
//!
//! Two tiers. The *per-file* lints are token-level passes over one
//! [`FileModel`]; the *workspace* lints run over the
//! [`crate::graph::WorkspaceModel`] call graph and see
//! every file (plus the integration-test evidence corpus) at once.
//! The engine-level `suppression-audit` is in neither list: it needs
//! the matched/unmatched state of every suppression and lives in
//! [`crate::engine`].

use crate::engine::LintConfig;
use crate::graph::WorkspaceModel;
use crate::model::FileModel;
use crate::report::Diagnostic;

pub mod asymmetric_expr;
pub mod float_order;
pub mod hot_path_alloc;
pub mod hot_path_bounds_check;
pub mod lock_discipline;
pub mod no_unwrap;
pub mod nondet_iter;
pub mod panic_reachability;
pub mod upto_contract;
pub mod wire_errors;

/// Names of every lint the engine knows, including the engine-level
/// `suppression-audit`. Suppressions naming anything else are rejected.
pub const LINT_NAMES: &[&str] = &[
    no_unwrap::NAME,
    float_order::NAME,
    nondet_iter::NAME,
    hot_path_alloc::NAME,
    hot_path_bounds_check::NAME,
    asymmetric_expr::NAME,
    panic_reachability::NAME,
    lock_discipline::NAME,
    upto_contract::NAME,
    wire_errors::NAME,
    crate::engine::SUPPRESSION_AUDIT,
];

/// Runs every per-file token-level lint over one file.
pub fn run_all(model: &FileModel, no_unwrap_exempt: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !no_unwrap_exempt {
        no_unwrap::check(model, &mut out);
    }
    float_order::check(model, &mut out);
    nondet_iter::check(model, &mut out);
    hot_path_alloc::check(model, &mut out);
    hot_path_bounds_check::check(model, &mut out);
    asymmetric_expr::check(model, &mut out);
    out
}

/// Runs every workspace (call-graph) lint.
pub fn run_workspace(ws: &WorkspaceModel, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    panic_reachability::check(ws, config, out);
    lock_discipline::check(ws, config, out);
    upto_contract::check(ws, config, out);
    wire_errors::check(ws, config, out);
}
