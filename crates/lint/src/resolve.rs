//! Path-resolution-lite for the workspace call graph.
//!
//! This is deliberately *not* a name resolver for Rust — it is the
//! smallest approximation that resolves intra-workspace calls well
//! enough for flow lints, with every shortcut accounted for in
//! [`crate::graph::GraphStats`]. The moving parts:
//!
//! 1. **Crate/module derivation** from the file path: `crates/core/src/
//!    elastic/dtw.rs` → crate `tsdist_core`, module `[elastic, dtw]`.
//!    Inline `mod name { … }` blocks append segments.
//! 2. **`use` rewriting** — per-file alias tables (including `as`
//!    renames, nested `{…}` trees, and glob prefixes) with `crate::` /
//!    `self::` / `super::` normalized against the file's own module.
//! 3. **Candidate matching** — exact module-path matches first, then a
//!    reexport-tolerant relaxation (crate + `Type::name` or crate +
//!    final segment), because `pub use` facades make strict paths
//!    wrong more often than right in this workspace.
//! 4. **Method-name heuristics** — a `.name(…)` call resolves to every
//!    workspace method of that name (trait dispatch is approximated by
//!    edges to all impls) unless the name is a std-prelude staple
//!    (`len`, `push`, `lock`, …), which would drown the graph in false
//!    edges; those are counted separately as *std-shadowed* and get no
//!    edges. `self.m(…)` resolves within the impl type first.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};

/// Method names shadowed by std/core types in practice: resolving these
/// by bare name would attach workspace edges to `Vec::push`-style calls.
/// They are counted as `std_shadowed` and excluded from edge building
/// (a `self.name(…)` call still resolves within its impl type).
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "ceil",
    "chain",
    "clear",
    "clone",
    "cloned",
    "collect",
    "connect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "end",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "fetch_add",
    "fetch_sub",
    "filter",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "is_finite",
    "is_nan",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "or_insert",
    "parse",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "read_exact",
    "read_line",
    "read_to_string",
    "recv",
    "remove",
    "replace",
    "retain",
    "rev",
    "round",
    "send",
    "set_len",
    "skip",
    "sort",
    "sort_by",
    "sort_unstable",
    "split",
    "splitn",
    "sqrt",
    "start",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "wait",
    "windows",
    "write",
    "write_all",
    "zip",
];

/// True when `name` is a std-shadowed method name (see `STD_METHODS`).
pub fn is_std_shadowed(name: &str) -> bool {
    STD_METHODS.binary_search(&name).is_ok()
}

/// Crate name and module path derived from a workspace-relative file
/// path. Returns `None` for files outside the recognized layout.
///
/// * `src/lib.rs` → (`tsdist`, `[]`) — the root facade crate.
/// * `crates/X/src/lib.rs` → (`tsdist_X`, `[]`).
/// * `crates/X/src/foo/bar.rs` → (`tsdist_X`, `[foo, bar]`).
/// * `…/foo/mod.rs` collapses to `[foo]`.
/// * `crates/X/src/main.rs` and `crates/X/src/bin/y.rs` are their own
///   binary crates when the package also has a `lib.rs`; `lib_dirs`
///   lists the crate dirs that do. A package with only `main.rs`
///   (e.g. the CLI) roots the whole `src/` tree at the binary.
pub fn crate_and_module(path: &str, lib_dirs: &BTreeSet<String>) -> Option<(String, Vec<String>)> {
    let rest = if let Some(rest) = path.strip_prefix("crates/") {
        rest
    } else if let Some(rest) = path.strip_prefix("src/") {
        return Some(("tsdist".to_string(), module_of(rest)));
    } else {
        return None;
    };
    let (dir, in_crate) = rest.split_once('/')?;
    let in_src = in_crate.strip_prefix("src/")?;
    let crate_name = format!("tsdist_{}", dir.replace('-', "_"));
    let has_lib = lib_dirs.contains(dir);
    if has_lib {
        if in_src == "main.rs" {
            return Some((format!("{crate_name}@main"), Vec::new()));
        }
        if let Some(bin) = in_src.strip_prefix("bin/") {
            let stem = bin.strip_suffix(".rs").unwrap_or(bin);
            return Some((
                format!("{crate_name}@{}", stem.replace('/', "_")),
                Vec::new(),
            ));
        }
    }
    Some((crate_name, module_of(in_src)))
}

/// Module segments for a path relative to the crate's `src/` dir.
fn module_of(rel: &str) -> Vec<String> {
    let rel = rel.strip_suffix(".rs").unwrap_or(rel);
    let mut segs: Vec<String> = rel.split('/').map(str::to_string).collect();
    if matches!(
        segs.last().map(String::as_str),
        Some("lib" | "main" | "mod")
    ) {
        segs.pop();
    }
    segs
}

/// Per-file import table: `use` aliases and glob prefixes, with
/// `crate`/`self`/`super` already normalized to absolute form
/// (`[crate_name, segs…]`).
#[derive(Debug, Default)]
pub struct UseMap {
    /// Final alias (last segment or `as` rename) → absolute path of the
    /// imported item.
    pub aliases: BTreeMap<String, Vec<String>>,
    /// Prefixes imported via `use path::*`.
    pub globs: Vec<Vec<String>>,
}

/// Builds the import table for one file.
pub fn build_use_map(tokens: &[Token], crate_name: &str, module: &[String]) -> UseMap {
    let mut map = UseMap::default();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("use") {
            i = parse_use_tree(tokens, i + 1, &mut Vec::new(), &mut map);
            continue;
        }
        i += 1;
    }
    // Normalize relative roots in one pass at the end.
    let normalize = |segs: &[String]| -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut rest = segs;
        match segs.first().map(String::as_str) {
            Some("crate") => {
                out.push(crate_name.to_string());
                rest = &segs[1..];
            }
            Some("self") => {
                out.push(crate_name.to_string());
                out.extend(module.iter().cloned());
                rest = &segs[1..];
            }
            Some("super") => {
                out.push(crate_name.to_string());
                let mut up = 0usize;
                while rest.first().map(String::as_str) == Some("super") {
                    up += 1;
                    rest = &rest[1..];
                }
                let keep = module.len().saturating_sub(up);
                out.extend(module[..keep].iter().cloned());
            }
            _ => {}
        }
        out.extend(rest.iter().cloned());
        out
    };
    map.aliases = map
        .aliases
        .into_iter()
        .map(|(k, v)| (k, normalize(&v)))
        .collect();
    map.globs = map.globs.iter().map(|g| normalize(g)).collect();
    map
}

/// Parses one `use`-tree node starting at `i` with the accumulated
/// `prefix`; returns the index just past the node.
fn parse_use_tree(
    tokens: &[Token],
    mut i: usize,
    prefix: &mut Vec<String>,
    map: &mut UseMap,
) -> usize {
    loop {
        let Some(t) = tokens.get(i) else {
            return i;
        };
        if t.is_punct(";") {
            return i + 1;
        }
        if t.is_punct("*") {
            map.globs.push(prefix.clone());
            return i + 1;
        }
        if t.is_open("{") {
            // Nested tree: parse children separated by `,` until `}`.
            i += 1;
            loop {
                match tokens.get(i) {
                    Some(t) if t.is_close("}") => return i + 1,
                    Some(t) if t.is_punct(",") => i += 1,
                    Some(_) => {
                        let mut child = prefix.clone();
                        i = parse_use_tree(tokens, i, &mut child, map);
                    }
                    None => return i,
                }
            }
        }
        if t.kind == TokenKind::Ident {
            if t.text == "as" {
                // `… as alias` — rebind the path to the alias name.
                if let Some(alias) = tokens.get(i + 1) {
                    if alias.kind == TokenKind::Ident && !prefix.is_empty() {
                        map.aliases.insert(alias.text.clone(), prefix.clone());
                    }
                }
                return i + 2;
            }
            prefix.push(t.text.clone());
            match tokens.get(i + 1) {
                Some(n) if n.is_punct("::") => {
                    i += 2;
                    continue;
                }
                Some(n) if n.is_ident("as") => {
                    i += 1;
                    continue;
                }
                _ => {
                    // Leaf: alias under its own final segment.
                    if let Some(last) = prefix.last() {
                        map.aliases.insert(last.clone(), prefix.clone());
                    }
                    return i + 1;
                }
            }
        }
        // `pub use`, attributes, anything unexpected: skip forward.
        if t.is_ident("pub") || t.is_punct("#") || t.is_open("[") {
            i += 1;
            continue;
        }
        return i + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn set(dirs: &[&str]) -> BTreeSet<String> {
        dirs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn crate_and_module_derivation() {
        let libs = set(&["core", "lint"]);
        assert_eq!(
            crate_and_module("crates/core/src/elastic/dtw.rs", &libs),
            Some(("tsdist_core".into(), vec!["elastic".into(), "dtw".into()]))
        );
        assert_eq!(
            crate_and_module("crates/core/src/lib.rs", &libs),
            Some(("tsdist_core".into(), vec![]))
        );
        assert_eq!(
            crate_and_module("crates/core/src/index/mod.rs", &libs),
            Some(("tsdist_core".into(), vec!["index".into()]))
        );
        assert_eq!(
            crate_and_module("src/lib.rs", &libs),
            Some(("tsdist".into(), vec![]))
        );
        // lint has a lib.rs, so its main.rs is a separate binary crate.
        assert_eq!(
            crate_and_module("crates/lint/src/main.rs", &libs),
            Some(("tsdist_lint@main".into(), vec![]))
        );
        // cli has no lib.rs: main.rs roots the crate, modules hang off it.
        assert_eq!(
            crate_and_module("crates/cli/src/main.rs", &libs),
            Some(("tsdist_cli".into(), vec![]))
        );
        assert_eq!(
            crate_and_module("crates/cli/src/measures.rs", &libs),
            Some(("tsdist_cli".into(), vec!["measures".into()]))
        );
    }

    #[test]
    fn use_map_handles_trees_renames_globs_and_relative_roots() {
        let src = "use tsdist_core::elastic::{Dtw, dtw::dtw_banded as banded};\n\
                   use crate::measure::Distance;\n\
                   use super::wavefront::*;\n\
                   use std::collections::BTreeMap;\n";
        let lexed = lex(src);
        let m = build_use_map(
            &lexed.tokens,
            "tsdist_core",
            &["elastic".into(), "dtw".into()],
        );
        assert_eq!(
            m.aliases.get("Dtw"),
            Some(&vec![
                "tsdist_core".to_string(),
                "elastic".to_string(),
                "Dtw".to_string()
            ])
        );
        assert_eq!(
            m.aliases.get("banded"),
            Some(&vec![
                "tsdist_core".to_string(),
                "elastic".to_string(),
                "dtw".to_string(),
                "dtw_banded".to_string()
            ])
        );
        assert_eq!(
            m.aliases.get("Distance"),
            Some(&vec![
                "tsdist_core".to_string(),
                "measure".to_string(),
                "Distance".to_string()
            ])
        );
        assert_eq!(
            m.globs,
            vec![vec![
                "tsdist_core".to_string(),
                "elastic".to_string(),
                "wavefront".to_string()
            ]]
        );
        assert_eq!(
            m.aliases.get("BTreeMap"),
            Some(&vec![
                "std".to_string(),
                "collections".to_string(),
                "BTreeMap".to_string()
            ])
        );
    }

    #[test]
    fn std_shadow_list_is_sorted_for_binary_search() {
        let mut sorted = STD_METHODS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STD_METHODS);
        assert!(is_std_shadowed("lock"));
        assert!(!is_std_shadowed("distance_ws"));
    }
}
