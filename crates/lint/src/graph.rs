//! The workspace function call graph.
//!
//! [`WorkspaceModel::build`] takes every analyzed library file, derives
//! each file's crate and module path, qualifies every `fn` span with
//! its inline-`mod` chain and `impl`/`trait` type, extracts call sites
//! from every non-test body, and resolves them against the workspace
//! using [`crate::resolve`]. The result is a node/edge graph with
//! per-site resolution accounting ([`GraphStats`]) — the flow lints
//! (`panic-reachability`, `lock-discipline`, `upto-contract-shape`,
//! `wire-error-exhaustiveness`) all run over this structure.
//!
//! Resolution is approximate by design (no types, no trait solving);
//! the accounting keeps the approximation honest: a call site is
//! *resolved* (unique or small-ambiguity, edges to every candidate),
//! *unresolved* (workspace candidates exist but could not be narrowed),
//! *external* (no workspace candidate — std, enum constructors), or
//! *std-shadowed* (method name like `len`/`push`/`lock` that std owns
//! in practice; edges would be mostly false, so none are built).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::model::FileModel;
use crate::resolve::{build_use_map, crate_and_module, is_std_shadowed, UseMap};

/// One function in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`WorkspaceModel::files`].
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    /// Derived crate name (`tsdist_core`, …; binaries get `@`-suffixed
    /// names that never match path roots).
    pub crate_name: String,
    /// Module path inside the crate, including inline `mod` blocks.
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type name, when any.
    pub type_name: Option<String>,
    pub name: String,
    pub is_pub: bool,
    pub in_test: bool,
    pub has_panics_doc: bool,
    /// Line of the `fn` keyword (diagnostic anchor).
    pub line: u32,
}

/// One resolved call edge out of a node.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub callee: usize,
    /// Line of the call site in the caller's file.
    pub line: u32,
    /// True when the site resolved to exactly one candidate; ambiguous
    /// sites fan out to every candidate with `certain: false`.
    pub certain: bool,
}

/// Per-site resolution accounting for the whole workspace.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    /// Call sites resolved to exactly one workspace target.
    pub resolved_unique: usize,
    /// Call sites resolved heuristically to a small candidate set
    /// (edges to each — approximates trait dispatch).
    pub resolved_ambiguous: usize,
    /// Sites with workspace candidates that could not be narrowed.
    pub unresolved: usize,
    /// Sites with no workspace candidate (std, constructors, macros).
    pub external: usize,
    /// Method names shadowed by std (`len`, `lock`, …): no edges built.
    pub std_shadowed: usize,
}

impl GraphStats {
    /// Percentage of intra-workspace call sites that resolved. The
    /// denominator is sites with workspace candidates (`resolved` +
    /// `unresolved`); external and std-shadowed sites are out of scope.
    pub fn resolution_pct(&self) -> f64 {
        let resolved = self.resolved_unique + self.resolved_ambiguous;
        let denom = resolved + self.unresolved;
        if denom == 0 {
            100.0
        } else {
            resolved as f64 * 100.0 / denom as f64
        }
    }
}

/// The analyzed workspace: lint-scope files, evidence-only files
/// (integration tests), and the call graph over the former.
#[derive(Debug)]
pub struct WorkspaceModel {
    pub files: Vec<FileModel>,
    /// Test-suite files used as *evidence* by contract lints (never
    /// linted themselves).
    pub evidence: Vec<FileModel>,
    pub nodes: Vec<FnNode>,
    /// `callees[n]` — resolved outgoing calls of node `n`.
    pub callees: Vec<Vec<Call>>,
    /// `callers[n]` — nodes with an edge into `n`.
    pub callers: Vec<Vec<usize>>,
    pub stats: GraphStats,
}

/// Enclosing-context kind for a token interval.
enum Ctx {
    Mod(String),
    Type(String),
}

struct CtxSpan {
    open: usize,
    close: usize,
    ctx: Ctx,
}

impl WorkspaceModel {
    /// Builds the graph. `files` are lint-scope sources; `evidence` are
    /// test-suite sources kept for contract-evidence scans.
    pub fn build(files: Vec<FileModel>, evidence: Vec<FileModel>) -> WorkspaceModel {
        // Crate dirs that have a lib.rs: their main.rs/bin files are
        // separate binary crates.
        let mut lib_dirs: BTreeSet<String> = BTreeSet::new();
        for f in &files {
            if let Some(rest) = f.path.strip_prefix("crates/") {
                if let Some((dir, tail)) = rest.split_once('/') {
                    if tail == "src/lib.rs" {
                        lib_dirs.insert(dir.to_string());
                    }
                }
            }
        }

        // Nodes, with per-file context qualification.
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut node_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut file_crates: Vec<Option<(String, Vec<String>)>> = Vec::new();
        for (fi, fm) in files.iter().enumerate() {
            let derived = crate_and_module(&fm.path, &lib_dirs);
            file_crates.push(derived.clone());
            let Some((crate_name, base_module)) = derived else {
                continue;
            };
            let spans = context_spans(&fm.tokens, &fm.match_of);
            for (gi, f) in fm.fns.iter().enumerate() {
                let mut module = base_module.clone();
                let mut type_name = None;
                // Innermost-last: spans are in open order, so later
                // matching spans are deeper.
                for s in &spans {
                    if s.open < f.fn_tok && f.fn_tok < s.close {
                        match &s.ctx {
                            Ctx::Mod(name) => module.push(name.clone()),
                            Ctx::Type(name) => type_name = Some(name.clone()),
                        }
                    }
                }
                let idx = nodes.len();
                node_of.insert((fi, gi), idx);
                nodes.push(FnNode {
                    file: fi,
                    fn_idx: gi,
                    crate_name: crate_name.clone(),
                    module,
                    type_name,
                    name: f.name.clone(),
                    is_pub: f.is_pub,
                    in_test: fm.in_test_region(f.fn_tok),
                    has_panics_doc: f.has_panics_doc,
                    line: fm.tokens[f.fn_tok].line,
                });
            }
        }

        // Indexes for resolution: callable nodes only (test fns are
        // neither candidates nor call-extraction roots).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut crate_roots: BTreeSet<&str> = BTreeSet::new();
        for (i, n) in nodes.iter().enumerate() {
            if !n.in_test {
                by_name.entry(n.name.as_str()).or_default().push(i);
            }
            if !n.crate_name.contains('@') {
                crate_roots.insert(n.crate_name.as_str());
            }
        }

        let mut stats = GraphStats {
            nodes: nodes.len(),
            ..GraphStats::default()
        };
        let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut callees: Vec<Vec<Call>> = vec![Vec::new(); nodes.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];

        // Per-file use maps, then call extraction + resolution.
        let mut use_maps: Vec<UseMap> = Vec::new();
        for (fi, fm) in files.iter().enumerate() {
            let map = match &file_crates[fi] {
                Some((crate_name, module)) => build_use_map(&fm.tokens, crate_name, module),
                None => UseMap::default(),
            };
            use_maps.push(map);
        }

        let resolver = Resolver {
            nodes: &nodes,
            by_name: &by_name,
            crate_roots: &crate_roots,
        };
        for caller in 0..nodes.len() {
            let n = &nodes[caller];
            if n.in_test {
                continue;
            }
            let fm = &files[n.file];
            let span = &fm.fns[n.fn_idx];
            // Child fn definitions inside this body own their calls.
            let children: Vec<(usize, usize)> = fm
                .fns
                .iter()
                .filter(|g| g.open > span.open && g.close < span.close)
                .map(|g| (g.open, g.close))
                .collect();
            let sites = extract_calls(&fm.tokens, span.open + 1, span.close, &children);
            let ctx = SiteCtx {
                crate_name: &n.crate_name,
                module: &n.module,
                type_name: n.type_name.as_deref(),
                use_map: &use_maps[n.file],
            };
            for site in sites {
                let res = match site.kind {
                    SiteKind::Path(segs) => resolver.resolve_path(&segs, &ctx),
                    SiteKind::Method {
                        name,
                        receiver_is_self,
                    } => resolver.resolve_method(&name, receiver_is_self, &ctx),
                };
                match res {
                    Resolution::Hits(hits) => {
                        let certain = hits.len() == 1;
                        if certain {
                            stats.resolved_unique += 1;
                        } else {
                            stats.resolved_ambiguous += 1;
                        }
                        for callee in hits {
                            if callee != caller && edge_set.insert((caller, callee)) {
                                callees[caller].push(Call {
                                    callee,
                                    line: site.line,
                                    certain,
                                });
                                callers[callee].push(caller);
                            }
                        }
                    }
                    Resolution::Unresolved => stats.unresolved += 1,
                    Resolution::External => stats.external += 1,
                    Resolution::Shadowed => stats.std_shadowed += 1,
                }
            }
        }
        stats.edges = edge_set.len();

        WorkspaceModel {
            files,
            evidence,
            nodes,
            callees,
            callers,
            stats,
        }
    }

    /// Node index for `(file, fn_idx)`, when the file was qualifiable.
    pub fn node_at(&self, file: usize, fn_idx: usize) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.file == file && n.fn_idx == fn_idx)
    }

    /// `Type::name` (or bare `name`) for diagnostics.
    pub fn display_name(&self, n: usize) -> String {
        let node = &self.nodes[n];
        match &node.type_name {
            Some(t) => format!("{t}::{}", node.name),
            None => node.name.clone(),
        }
    }
}

/// Finds `mod name { … }`, `impl … { … }`, and `trait Name … { … }`
/// token intervals, in opening order (outer before inner).
fn context_spans(tokens: &[Token], match_of: &[usize]) -> Vec<CtxSpan> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.is_ident("mod") {
            let Some(name) = tokens.get(i + 1) else {
                continue;
            };
            if name.kind != TokenKind::Ident {
                continue;
            }
            // `mod name;` declares an out-of-line module — no interval.
            if let Some(open) = tokens.get(i + 2) {
                if open.is_open("{") && match_of[i + 2] != usize::MAX {
                    spans.push(CtxSpan {
                        open: i + 2,
                        close: match_of[i + 2],
                        ctx: Ctx::Mod(name.text.clone()),
                    });
                }
            }
        } else if t.is_ident("impl") {
            if let Some((open, name)) = impl_header(tokens, match_of, i) {
                spans.push(CtxSpan {
                    open,
                    close: match_of[open],
                    ctx: Ctx::Type(name),
                });
            }
        } else if t.is_ident("trait") {
            let Some(name) = tokens.get(i + 1) else {
                continue;
            };
            if name.kind != TokenKind::Ident {
                continue;
            }
            let mut j = i + 2;
            while j < tokens.len() {
                if tokens[j].is_punct(";") {
                    break;
                }
                if tokens[j].is_open("{") {
                    if match_of[j] != usize::MAX {
                        spans.push(CtxSpan {
                            open: j,
                            close: match_of[j],
                            ctx: Ctx::Type(name.text.clone()),
                        });
                    }
                    break;
                }
                if tokens[j].kind == TokenKind::OpenDelim && match_of[j] != usize::MAX {
                    j = match_of[j] + 1;
                    continue;
                }
                j += 1;
            }
        }
    }
    spans.sort_by_key(|s| s.open);
    spans
}

/// Parses an `impl` header starting at token `i` (`impl`): returns the
/// body `{` index and the Self-type name. For `impl Trait for Type` the
/// type after `for` wins; `where` clauses are cut; generics are skipped
/// by angle-depth.
fn impl_header(tokens: &[Token], match_of: &[usize], i: usize) -> Option<(usize, String)> {
    let mut j = i + 1;
    let mut body = None;
    while j < tokens.len() {
        if tokens[j].is_punct(";") {
            return None;
        }
        if tokens[j].is_open("{") {
            if match_of[j] == usize::MAX {
                return None;
            }
            body = Some(j);
            break;
        }
        if tokens[j].kind == TokenKind::OpenDelim && match_of[j] != usize::MAX {
            j = match_of[j] + 1;
            continue;
        }
        j += 1;
    }
    let body = body?;
    // Region of interest: after the last top-level `for` (skipping
    // HRTB `for<…>`), cut at `where`.
    let mut start = i + 1;
    let mut end = body;
    let mut angle = 0i32;
    for k in i + 1..body {
        match tokens[k].text.as_str() {
            "<" if tokens[k].kind == TokenKind::Punct => angle += 1,
            ">" if tokens[k].kind == TokenKind::Punct => angle -= 1,
            ">>" if tokens[k].kind == TokenKind::Punct => angle -= 2,
            "for"
                if tokens[k].kind == TokenKind::Ident
                    && angle <= 0
                    && !tokens.get(k + 1).is_some_and(|t| t.is_punct("<")) =>
            {
                start = k + 1;
            }
            "where" if tokens[k].kind == TokenKind::Ident && angle <= 0 => {
                end = k;
                break;
            }
            _ => {}
        }
    }
    // Last ident at angle-depth 0 in the region is the type name.
    let mut angle = 0i32;
    let mut name = None;
    for t in &tokens[start..end] {
        match t.text.as_str() {
            "<" if t.kind == TokenKind::Punct => angle += 1,
            ">" if t.kind == TokenKind::Punct => angle -= 1,
            ">>" if t.kind == TokenKind::Punct => angle -= 2,
            _ => {
                if t.kind == TokenKind::Ident
                    && angle <= 0
                    && !matches!(t.text.as_str(), "dyn" | "mut" | "const")
                {
                    name = Some(t.text.clone());
                }
            }
        }
    }
    name.map(|n| (body, n))
}

/// One extracted call site, pre-resolution.
struct CallSite {
    kind: SiteKind,
    line: u32,
}

enum SiteKind {
    /// `a::b::c(…)` or bare `c(…)`.
    Path(Vec<String>),
    /// `.name(…)`.
    Method {
        name: String,
        receiver_is_self: bool,
    },
}

/// Idents that start statements/expressions but never calls when
/// directly followed by `(`; `self`/`Self`/`crate`/`super` are allowed
/// through when they begin a `::` path.
fn is_call_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "match"
            | "while"
            | "loop"
            | "for"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "where"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "const"
            | "static"
            | "type"
            | "mod"
            | "use"
            | "pub"
            | "fn"
            | "dyn"
            | "unsafe"
            | "async"
            | "await"
            | "box"
            | "yield"
            | "true"
            | "false"
            | "self"
            | "Self"
            | "crate"
            | "super"
    )
}

/// Skips a turbofish/generic `<…>` starting at the `<` token; returns
/// the index just past the closing `>`, or `None` when unbalanced.
fn skip_angles(tokens: &[Token], start: usize, limit: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = start;
    while k < limit {
        match tokens[k].text.as_str() {
            "<" if tokens[k].kind == TokenKind::Punct => depth += 1,
            "<<" if tokens[k].kind == TokenKind::Punct => depth += 2,
            ">" if tokens[k].kind == TokenKind::Punct => depth -= 1,
            ">>" if tokens[k].kind == TokenKind::Punct => depth -= 2,
            _ => {}
        }
        k += 1;
        if depth <= 0 {
            return Some(k);
        }
    }
    None
}

/// Extracts call sites from a token range, skipping `skip` child-fn
/// body intervals.
fn extract_calls(
    tokens: &[Token],
    from: usize,
    to: usize,
    skip: &[(usize, usize)],
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut k = from;
    'outer: while k < to {
        for &(o, c) in skip {
            if k >= o && k <= c {
                k = c + 1;
                continue 'outer;
            }
        }
        let t = &tokens[k];
        if t.kind != TokenKind::Ident {
            k += 1;
            continue;
        }
        // Macro invocation: the name is not a call (arguments are still
        // scanned as ordinary tokens on later iterations).
        if tokens.get(k + 1).is_some_and(|n| n.is_punct("!")) {
            k += 2;
            continue;
        }
        let prev_dot = k > 0 && tokens[k - 1].is_punct(".");
        if prev_dot {
            // `.name(` or `.name::<…>(` — method call.
            let args = if tokens.get(k + 1).is_some_and(|n| n.is_open("(")) {
                true
            } else if tokens.get(k + 1).is_some_and(|n| n.is_punct("::"))
                && tokens.get(k + 2).is_some_and(|n| n.is_punct("<"))
            {
                skip_angles(tokens, k + 2, to)
                    .is_some_and(|after| tokens.get(after).is_some_and(|n| n.is_open("(")))
            } else {
                false
            };
            if args {
                let receiver_is_self = k >= 2
                    && tokens[k - 2].is_ident("self")
                    && !(k >= 3 && tokens[k - 3].is_punct("."));
                out.push(CallSite {
                    kind: SiteKind::Method {
                        name: t.text.clone(),
                        receiver_is_self,
                    },
                    line: t.line,
                });
            }
            k += 1;
            continue;
        }
        if k > 0 && tokens[k - 1].is_punct("::") {
            // Mid-path ident whose path head was not an ident
            // (`<T as Trait>::m`): skip, counted nowhere.
            k += 1;
            continue;
        }
        if k > 0 && tokens[k - 1].is_ident("fn") {
            k += 1;
            continue;
        }
        let path_head = matches!(t.text.as_str(), "self" | "Self" | "crate" | "super")
            && tokens.get(k + 1).is_some_and(|n| n.is_punct("::"));
        if is_call_keyword(&t.text) && !path_head {
            k += 1;
            continue;
        }
        // Collect the `::`-path.
        let mut segs = vec![t.text.clone()];
        let mut j = k + 1;
        while j + 1 < to
            && tokens[j].is_punct("::")
            && tokens[j + 1].kind == TokenKind::Ident
            && tokens[j + 1].text != "as"
        {
            segs.push(tokens[j + 1].text.clone());
            j += 2;
        }
        // Optional trailing turbofish, then the argument `(`.
        let mut call = tokens.get(j).is_some_and(|n| n.is_open("("));
        if !call
            && tokens.get(j).is_some_and(|n| n.is_punct("::"))
            && tokens.get(j + 1).is_some_and(|n| n.is_punct("<"))
        {
            if let Some(after) = skip_angles(tokens, j + 1, to) {
                call = tokens.get(after).is_some_and(|n| n.is_open("("));
            }
        }
        if call {
            out.push(CallSite {
                kind: SiteKind::Path(segs),
                line: t.line,
            });
        }
        k = j.max(k + 1);
    }
    out
}

/// Where a call site sits, for resolution.
struct SiteCtx<'a> {
    crate_name: &'a str,
    module: &'a [String],
    type_name: Option<&'a str>,
    use_map: &'a UseMap,
}

/// Outcome of resolving one call site.
enum Resolution {
    /// Workspace targets (singleton = certain).
    Hits(Vec<usize>),
    Unresolved,
    External,
    Shadowed,
}

/// Maximum candidate-set size a heuristic resolution may fan out to;
/// larger sets (e.g. a method name every impl shares) are unresolved
/// for path calls, but method calls approximate trait dispatch and get
/// a higher cap.
const PATH_AMBIG_CAP: usize = 3;
const METHOD_AMBIG_CAP: usize = 32;

struct Resolver<'a> {
    nodes: &'a [FnNode],
    by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    crate_roots: &'a BTreeSet<&'a str>,
}

impl<'a> Resolver<'a> {
    fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Exact match of an absolute path `[crate, mods…, name]`, trying
    /// both free-fn (`mods` is the module path) and associated-fn
    /// (`mods[..-1]` module + `mods[-1]` type) interpretations.
    fn exact(&self, path: &[String]) -> Vec<usize> {
        let Some((name, prefix)) = path.split_last() else {
            return Vec::new();
        };
        let Some((crate_name, mods)) = prefix.split_first() else {
            return Vec::new();
        };
        let mut hits = Vec::new();
        for &i in self.candidates(name) {
            let n = &self.nodes[i];
            if n.crate_name != *crate_name {
                continue;
            }
            let free = n.type_name.is_none() && n.module == mods;
            let assoc = match (mods.split_last(), &n.type_name) {
                (Some((ty, mods_head)), Some(t)) => t == ty && n.module == mods_head,
                _ => false,
            };
            if free || assoc {
                hits.push(i);
            }
        }
        hits
    }

    fn resolve_path(&self, segs: &[String], ctx: &SiteCtx) -> Resolution {
        let mut segs: Vec<String> = segs.to_vec();
        // `Self::m` → assoc fn of the enclosing impl type.
        if segs.first().map(String::as_str) == Some("Self") {
            let Some(t) = ctx.type_name else {
                return Resolution::Unresolved;
            };
            segs[0] = t.to_string();
        }
        // Normalize relative roots.
        match segs.first().map(String::as_str) {
            Some("crate") => segs[0] = ctx.crate_name.to_string(),
            Some("self") => {
                let mut abs = vec![ctx.crate_name.to_string()];
                abs.extend(ctx.module.iter().cloned());
                abs.extend(segs[1..].iter().cloned());
                segs = abs;
            }
            Some("super") => {
                let mut up = 0usize;
                while segs.first().map(String::as_str) == Some("super") {
                    up += 1;
                    segs.remove(0);
                }
                let keep = ctx.module.len().saturating_sub(up);
                let mut abs = vec![ctx.crate_name.to_string()];
                abs.extend(ctx.module[..keep].iter().cloned());
                abs.extend(segs.iter().cloned());
                segs = abs;
            }
            _ => {}
        }
        // `use` alias splice on the head segment.
        if let Some(full) = ctx.use_map.aliases.get(&segs[0]) {
            let mut spliced = full.clone();
            spliced.extend(segs[1..].iter().cloned());
            segs = spliced;
        }

        if segs.len() == 1 {
            return self.resolve_bare(&segs[0], ctx);
        }
        let head = segs[0].as_str();
        if matches!(head, "std" | "core" | "alloc") {
            return Resolution::External;
        }
        if self.crate_roots.contains(head) {
            // Absolute workspace path: exact, then reexport-tolerant.
            let hits = self.exact(&segs);
            if !hits.is_empty() {
                return Resolution::Hits(hits);
            }
            return self.relaxed(&segs, Some(head));
        }
        // Relative path: try current module, parent, crate root.
        let name_only = &segs[..];
        for up in 0..=ctx.module.len() {
            let keep = ctx.module.len() - up;
            let mut abs = vec![ctx.crate_name.to_string()];
            abs.extend(ctx.module[..keep].iter().cloned());
            abs.extend(name_only.iter().cloned());
            let hits = self.exact(&abs);
            if !hits.is_empty() {
                return Resolution::Hits(hits);
            }
        }
        // `Type::name` with the type in scope but not use-mapped (local
        // types, glob imports): match by type name, same crate first.
        if segs.len() == 2 && segs[0].starts_with(char::is_uppercase) {
            let by_type: Vec<usize> = self
                .candidates(&segs[1])
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].type_name.as_deref() == Some(segs[0].as_str()))
                .collect();
            let local: Vec<usize> = by_type
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].crate_name == ctx.crate_name)
                .collect();
            let pick = if local.is_empty() { by_type } else { local };
            if !pick.is_empty() {
                return bounded(pick, PATH_AMBIG_CAP);
            }
        }
        self.relaxed(&segs, None)
    }

    /// Reexport-tolerant fallback: candidates by final segment, scoped
    /// to `crate_filter` when known, refined by the second-to-last
    /// segment as a type or module name when that narrows things.
    fn relaxed(&self, segs: &[String], crate_filter: Option<&str>) -> Resolution {
        let Some((name, prefix)) = segs.split_last() else {
            return Resolution::External;
        };
        let mut cands: Vec<usize> = self
            .candidates(name)
            .iter()
            .copied()
            .filter(|&i| match crate_filter {
                Some(c) => self.nodes[i].crate_name == c,
                None => true,
            })
            .collect();
        if cands.is_empty() {
            return Resolution::External;
        }
        if let Some(qual) = prefix.last() {
            if qual.as_str() != crate_filter.unwrap_or("") {
                let refined: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.nodes[i].type_name.as_deref() == Some(qual.as_str())
                            || self.nodes[i].module.last() == Some(qual)
                    })
                    .collect();
                if !refined.is_empty() {
                    cands = refined;
                }
            }
        }
        bounded(cands, PATH_AMBIG_CAP)
    }

    /// Bare-name call: local module first, then glob imports, then a
    /// workspace-unique name.
    fn resolve_bare(&self, name: &str, ctx: &SiteCtx) -> Resolution {
        let cands = self.candidates(name);
        if cands.is_empty() {
            return Resolution::External;
        }
        let local: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                let n = &self.nodes[i];
                n.crate_name == ctx.crate_name && n.module == ctx.module && n.type_name.is_none()
            })
            .collect();
        if !local.is_empty() {
            return Resolution::Hits(local);
        }
        let mut via_glob: Vec<usize> = Vec::new();
        for g in &ctx.use_map.globs {
            let mut full = g.clone();
            full.push(name.to_string());
            via_glob.extend(self.exact(&full));
        }
        if !via_glob.is_empty() {
            via_glob.sort_unstable();
            via_glob.dedup();
            return Resolution::Hits(via_glob);
        }
        bounded(cands.to_vec(), PATH_AMBIG_CAP)
    }

    fn resolve_method(&self, name: &str, receiver_is_self: bool, ctx: &SiteCtx) -> Resolution {
        // `self.m(…)` — the impl type's own method wins, including
        // std-shadowed names.
        if receiver_is_self {
            if let Some(t) = ctx.type_name {
                let own: Vec<usize> = self
                    .candidates(name)
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.nodes[i].type_name.as_deref() == Some(t)
                            && self.nodes[i].crate_name == ctx.crate_name
                    })
                    .collect();
                if !own.is_empty() {
                    return Resolution::Hits(own);
                }
            }
        }
        if is_std_shadowed(name) {
            return Resolution::Shadowed;
        }
        let cands: Vec<usize> = self
            .candidates(name)
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].type_name.is_some())
            .collect();
        if cands.is_empty() {
            return Resolution::External;
        }
        bounded(cands, METHOD_AMBIG_CAP)
    }
}

/// Caps a candidate set: small sets become (possibly ambiguous) hits,
/// larger ones are honest `Unresolved`.
fn bounded(cands: Vec<usize>, cap: usize) -> Resolution {
    if cands.len() <= cap {
        Resolution::Hits(cands)
    } else {
        Resolution::Unresolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(files: &[(&str, &str)]) -> WorkspaceModel {
        let models = files
            .iter()
            .map(|(p, s)| FileModel::analyze(p, s))
            .collect();
        WorkspaceModel::build(models, Vec::new())
    }

    fn node(ws: &WorkspaceModel, name: &str) -> usize {
        ws.nodes
            .iter()
            .position(|n| n.name == name)
            .expect("node present in fixture graph")
    }

    fn has_edge(ws: &WorkspaceModel, from: &str, to: &str) -> bool {
        let f = node(ws, from);
        let t = node(ws, to);
        ws.callees[f].iter().any(|c| c.callee == t)
    }

    #[test]
    fn qualification_covers_mods_impls_and_traits() {
        let ws = build(&[(
            "crates/core/src/elastic/dtw.rs",
            "pub struct Dtw;\n\
             impl Dtw { pub fn with_window(w: usize) -> Dtw { helper(w); Dtw } }\n\
             fn helper(w: usize) -> usize { w }\n\
             mod inner { pub fn deep() {} }\n\
             trait Shape { fn area(&self) -> f64 { 0.0 } }\n",
        )]);
        let with_window = &ws.nodes[node(&ws, "with_window")];
        assert_eq!(with_window.crate_name, "tsdist_core");
        assert_eq!(with_window.module, vec!["elastic", "dtw"]);
        assert_eq!(with_window.type_name.as_deref(), Some("Dtw"));
        assert!(with_window.is_pub);
        let deep = &ws.nodes[node(&ws, "deep")];
        assert_eq!(deep.module, vec!["elastic", "dtw", "inner"]);
        let area = &ws.nodes[node(&ws, "area")];
        assert_eq!(area.type_name.as_deref(), Some("Shape"));
        // with_window → helper resolved as a local bare call.
        assert!(has_edge(&ws, "with_window", "helper"));
        assert_eq!(ws.stats.resolved_unique, 1);
    }

    #[test]
    fn cross_crate_calls_resolve_through_use_and_reexports() {
        let ws = build(&[
            (
                "crates/core/src/lib.rs",
                "pub mod elastic { pub struct Dtw; impl Dtw { \
                 pub fn with_window_pct(p: f64) -> Dtw { Dtw } } }\n",
            ),
            ("crates/cli/src/main.rs", "mod measures;\nfn main() {}\n"),
            (
                "crates/cli/src/measures.rs",
                "use tsdist_core::elastic::Dtw;\n\
                 pub fn resolve(p: f64) { Dtw::with_window_pct(p); }\n",
            ),
        ]);
        assert!(has_edge(&ws, "resolve", "with_window_pct"));
        // The reexport-tolerant path also works without the exact
        // module chain: `tsdist_core::Dtw` is not where Dtw lives,
        // but crate + type still pins it.
        let ws2 = build(&[
            (
                "crates/core/src/elastic/dtw.rs",
                "pub struct Dtw; impl Dtw { pub fn with_window_pct(p: f64) -> Dtw { Dtw } }\n",
            ),
            (
                "crates/eval/src/nn.rs",
                "use tsdist_core::Dtw;\n\
                 pub fn run(p: f64) { Dtw::with_window_pct(p); }\n",
            ),
        ]);
        assert!(has_edge(&ws2, "run", "with_window_pct"));
    }

    #[test]
    fn method_calls_fan_out_but_std_shadowed_names_get_no_edges() {
        let ws = build(&[(
            "crates/core/src/measure.rs",
            "pub trait Distance { fn distance_ws(&self) -> f64; }\n\
             pub struct A; impl Distance for A { fn distance_ws(&self) -> f64 { 1.0 } }\n\
             pub struct B; impl Distance for B { fn distance_ws(&self) -> f64 { 2.0 } }\n\
             pub fn drive(d: &dyn Distance, v: &mut Vec<f64>) -> f64 \
             { v.push(1.0); d.distance_ws() }\n",
        )]);
        assert!(has_edge(&ws, "drive", "distance_ws"));
        assert_eq!(ws.stats.resolved_ambiguous, 1);
        assert_eq!(ws.stats.std_shadowed, 1);
        assert_eq!(ws.stats.unresolved, 0);
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl_type() {
        let ws = build(&[(
            "crates/serve/src/engine.rs",
            "pub struct Engine;\n\
             impl Engine {\n\
             fn len(&self) -> usize { 7 }\n\
             pub fn answer(&self) -> usize { self.len() }\n\
             }\n",
        )]);
        // `self.len()` hits the impl's own `len` even though `len` is
        // std-shadowed for arbitrary receivers.
        assert!(has_edge(&ws, "answer", "len"));
    }

    #[test]
    fn super_and_crate_paths_normalize() {
        let ws = build(&[
            (
                "crates/core/src/elastic/dtw.rs",
                "pub fn banded() { super::wavefront::diag(); crate::lanes::sum8(); }\n",
            ),
            ("crates/core/src/elastic/wavefront.rs", "pub fn diag() {}\n"),
            ("crates/core/src/lanes.rs", "pub fn sum8() {}\n"),
        ]);
        assert!(has_edge(&ws, "banded", "diag"));
        assert!(has_edge(&ws, "banded", "sum8"));
        assert_eq!(ws.stats.resolved_unique, 2);
        assert_eq!(ws.stats.unresolved, 0);
    }

    #[test]
    fn test_fns_are_neither_callers_nor_candidates() {
        let ws = build(&[(
            "crates/core/src/params.rs",
            "pub fn api() { helper(); }\nfn helper() {}\n\
             #[cfg(test)]\nmod tests {\n\
             fn helper() {}\n\
             #[test]\nfn t() { super::api(); helper(); }\n}\n",
        )]);
        let api = node(&ws, "api");
        // Only the lib helper is a candidate; the edge is unique.
        assert_eq!(ws.callees[api].len(), 1);
        assert!(ws.callees[api][0].certain);
        // The test fn produced no outgoing edges.
        let t = node(&ws, "t");
        assert!(ws.callees[t].is_empty());
        assert!(ws.nodes[t].in_test);
    }

    #[test]
    fn stats_percentage_accounts_only_workspace_sites() {
        let mut s = GraphStats::default();
        assert_eq!(s.resolution_pct(), 100.0);
        s.resolved_unique = 8;
        s.resolved_ambiguous = 1;
        s.unresolved = 1;
        s.external = 100;
        s.std_shadowed = 50;
        assert!((s.resolution_pct() - 90.0).abs() < 1e-9);
    }
}
