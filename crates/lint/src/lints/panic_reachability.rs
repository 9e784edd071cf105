//! `panic-reachability` (error): public functions that reach an
//! unaudited `assert!` — directly or through the call graph.
//!
//! PR 7's fuzzer found dynamically that `measures::resolve` could walk
//! into panicking constructor facades (`Dtw::with_window_pct` asserting
//! its window is a percentage) and kill a serve shard. That defect is
//! statically decidable: it is a path in the workspace call graph from
//! a public entry point to an `assert!` nobody documented.
//!
//! The panic *sources* this lint tracks are the `assert!` family
//! (`assert!` / `assert_eq!` / `assert_ne!`) outside test code —
//! everything else that panics (`unwrap`, `expect`, `panic!`, `todo!`)
//! is already `no-unwrap-in-lib`'s domain: in lib code those sites are
//! either errors outright or carry a reasoned suppression, which *is*
//! the audit. `debug_assert!` is compiled out of release kernels and is
//! ignored.
//!
//! The *audited facade* escape hatch is a `# Panics` doc section on the
//! asserting function: a documented panic is part of the contract, and
//! documenting it absorbs the whole sub-tree (callers of a documented
//! panicking fn are presumed to have read the contract — flagging every
//! transitive caller would make the lint unusable). The remaining
//! knob, `tsdist-lint: allow(panic-reachability, reason = "…")` above a
//! public entry point, suppresses one entry's diagnostic through the
//! ordinary suppression machinery.
//!
//! Each diagnostic prints the full shortest call chain from the entry
//! point to the assert site, so the fix target (document, validate, or
//! suppress) is visible without re-deriving the path.

use std::collections::VecDeque;

use crate::engine::LintConfig;
use crate::graph::WorkspaceModel;
use crate::lexer::TokenKind;
use crate::report::{Diagnostic, Severity};

pub const NAME: &str = "panic-reachability";

/// First unaudited assert site in a node's own body, if any.
struct AssertSite {
    line: u32,
    which: &'static str,
}

fn direct_assert(ws: &WorkspaceModel, node: usize) -> Option<AssertSite> {
    let n = &ws.nodes[node];
    let fm = &ws.files[n.file];
    let span = &fm.fns[n.fn_idx];
    // Child fn definitions own their asserts.
    let children: Vec<(usize, usize)> = fm
        .fns
        .iter()
        .filter(|g| g.open > span.open && g.close < span.close)
        .map(|g| (g.open, g.close))
        .collect();
    let mut k = span.open + 1;
    'outer: while k < span.close {
        for &(o, c) in &children {
            if k >= o && k <= c {
                k = c + 1;
                continue 'outer;
            }
        }
        let t = &fm.tokens[k];
        if t.kind == TokenKind::Ident && fm.tokens.get(k + 1).is_some_and(|n| n.is_punct("!")) {
            let which = match t.text.as_str() {
                "assert" => Some("assert!"),
                "assert_eq" => Some("assert_eq!"),
                "assert_ne" => Some("assert_ne!"),
                _ => None,
            };
            if let Some(which) = which {
                return Some(AssertSite {
                    line: t.line,
                    which,
                });
            }
        }
        k += 1;
    }
    None
}

pub fn check(ws: &WorkspaceModel, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let n = ws.nodes.len();
    let exempt: Vec<bool> = ws
        .nodes
        .iter()
        .map(|node| config.panic_exempt(&ws.files[node.file].path))
        .collect();

    // Sources: nodes with an unaudited direct assert.
    let mut site: Vec<Option<AssertSite>> = Vec::with_capacity(n);
    for (i, &ex) in exempt.iter().enumerate() {
        let node = &ws.nodes[i];
        if node.in_test || node.has_panics_doc || ex {
            site.push(None);
        } else {
            site.push(direct_assert(ws, i));
        }
    }

    // Multi-source BFS over reverse edges: `origin[v]` is the source
    // node `v` reaches, `next[v]` the first hop toward it. Documented
    // (`# Panics`) nodes absorb: they are neither flagged nor expanded.
    let mut origin: Vec<usize> = vec![usize::MAX; n];
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, s) in site.iter().enumerate() {
        if s.is_some() {
            origin[i] = i;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &ws.callers[u] {
            if origin[v] != usize::MAX {
                continue;
            }
            let node = &ws.nodes[v];
            if node.in_test || node.has_panics_doc || exempt[v] {
                continue;
            }
            origin[v] = origin[u];
            next[v] = Some(u);
            queue.push_back(v);
        }
    }

    // One diagnostic per public entry point that reaches a source.
    for (e, &org) in origin.iter().enumerate() {
        let node = &ws.nodes[e];
        if !node.is_pub || node.in_test || org == usize::MAX {
            continue;
        }
        let src = org;
        let Some(s) = &site[src] else { continue };
        let src_file = &ws.files[ws.nodes[src].file].path;
        let message = if src == e {
            format!(
                "public fn `{}` invokes `{}` (line {}) with no `# Panics` doc: callers \
                 cannot see the panic contract — document it, or validate and return a \
                 typed error",
                ws.display_name(e),
                s.which,
                s.line
            )
        } else {
            let mut chain = vec![ws.display_name(e)];
            let mut cur = e;
            while let Some(hop) = next[cur] {
                chain.push(ws.display_name(hop));
                cur = hop;
            }
            format!(
                "public fn `{}` can reach `{}` in `{}` ({}:{}) via {}: document `# Panics` \
                 on the panicking fn, validate before the call, or suppress here with a \
                 reason",
                ws.display_name(e),
                s.which,
                ws.display_name(src),
                src_file,
                s.line,
                chain.join(" → ")
            )
        };
        out.push(Diagnostic {
            lint: NAME,
            severity: Severity::Error,
            file: ws.files[node.file].path.clone(),
            line: node.line,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let models = files
            .iter()
            .map(|(p, s)| FileModel::analyze(p, s))
            .collect();
        let ws = WorkspaceModel::build(models, Vec::new());
        let mut out = Vec::new();
        check(&ws, &LintConfig::default(), &mut out);
        out
    }

    #[test]
    fn fires_on_the_pr7_shape_with_the_full_chain() {
        // Public resolver → constructor with an undocumented assert.
        let d = run(&[
            (
                "crates/cli/src/measures.rs",
                "use tsdist_core::elastic::Dtw;\n\
                 pub fn resolve(pct: f64) -> Dtw { Dtw::with_window_pct(pct) }\n",
            ),
            (
                "crates/core/src/elastic/dtw.rs",
                "pub struct Dtw;\n\
                 impl Dtw {\n\
                 pub fn with_window_pct(pct: f64) -> Dtw { assert!(pct <= 100.0); Dtw }\n\
                 }\n",
            ),
        ]);
        // Both the entry point and the public constructor itself fire.
        let on_resolve = d
            .iter()
            .find(|d| d.file.contains("measures"))
            .expect("resolve entry flagged");
        assert_eq!(on_resolve.lint, NAME);
        assert!(on_resolve
            .message
            .contains("resolve → Dtw::with_window_pct"));
        assert!(on_resolve.message.contains("assert!"));
        let on_ctor = d
            .iter()
            .find(|d| d.file.contains("dtw"))
            .expect("constructor flagged directly");
        assert!(on_ctor.message.contains("no `# Panics` doc"));
    }

    #[test]
    fn panics_doc_audits_the_facade_and_absorbs_callers() {
        let d = run(&[
            (
                "crates/cli/src/measures.rs",
                "use tsdist_core::elastic::Dtw;\n\
                 pub fn resolve(pct: f64) -> Dtw { Dtw::with_window_pct(pct) }\n",
            ),
            (
                "crates/core/src/elastic/dtw.rs",
                "pub struct Dtw;\n\
                 impl Dtw {\n\
                 /// Builds a DTW measure.\n\
                 ///\n\
                 /// # Panics\n\
                 /// Panics when `pct` is outside `[0, 100]`.\n\
                 pub fn with_window_pct(pct: f64) -> Dtw { assert!(pct <= 100.0); Dtw }\n\
                 }\n",
            ),
        ]);
        assert!(d.is_empty(), "documented facade must be clean: {d:?}");
    }

    #[test]
    fn asserts_in_tests_and_private_chains_do_not_fire() {
        // Assert only reachable from a private fn: no public entry, no
        // finding. Test-region asserts never count.
        let d = run(&[(
            "crates/core/src/params.rs",
            "fn internal(n: usize) { assert!(n > 0); }\n\
             fn driver(n: usize) { internal(n); }\n\
             #[cfg(test)]\nmod tests {\n\
             #[test]\nfn t() { assert_eq!(1, 1); }\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn transitive_chain_through_private_helpers_is_printed() {
        let d = run(&[(
            "crates/core/src/kernel.rs",
            "pub fn entry(x: usize) { mid(x); }\n\
             fn mid(x: usize) { deep(x); }\n\
             fn deep(x: usize) { assert_ne!(x, 0); }\n",
        )]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("entry → mid → deep"));
        assert!(d[0].message.contains("assert_ne!"));
    }

    #[test]
    fn bench_exempt_paths_are_out_of_scope() {
        let d = run(&[(
            "crates/bench/src/lib.rs",
            "pub fn table(x: usize) { assert!(x > 0); }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
