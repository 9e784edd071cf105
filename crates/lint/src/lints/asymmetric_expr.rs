//! `asymmetric-float-expr`: heuristic detector for the Jeffreys bug
//! class.
//!
//! A measure whose registry entry claims `is_symmetric` must produce
//! *bit-identical* values under argument exchange. `(a / b).ln()` is
//! the canonical violation: mathematically `ln(a/b) = -ln(b/a)`, but in
//! floating point the divide-then-log rounding differs from its swap by
//! an ULP — exactly the asymmetry that survived three PRs until the
//! conformance oracle caught it dynamically in `Jeffreys`. The robust
//! spelling is `a.ln() - b.ln()`, whose swap is an exact negation.
//!
//! Scope: `lockstep_measure!` invocations not marked `asymmetric`. The
//! pass collects the closure parameter pairs (`|x, y|`, `|a, b|`),
//! follows one level of `let` aliasing (`let (ca, cb) = (clamp_pos(a),
//! clamp_pos(b));`), and fires on `(p / q).ln()` — or `safe_div(p,
//! q).ln()` — where `p`, `q` resolve to the two parameters of one
//! closure. Heuristic by design, so it reports at **warning** severity;
//! zero false positives on the current 52-measure corpus.

use crate::lexer::{Token, TokenKind};
use crate::model::FileModel;
use crate::report::{Diagnostic, Severity};

pub const NAME: &str = "asymmetric-float-expr";

/// Log-family methods whose argument-order sensitivity matters.
const LOG_METHODS: &[&str] = &["ln", "log", "log2", "log10", "ln_1p"];

pub fn check(model: &FileModel, out: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    let mut i = 0usize;
    while i < tokens.len() {
        // A `lockstep_measure!( … )` invocation. The macro *definition*
        // (`macro_rules! lockstep_measure { … }`) never matches: there
        // the ident is followed by `{`, not `!(`.
        if tokens[i].is_ident("lockstep_measure")
            && i + 2 < tokens.len()
            && tokens[i + 1].is_punct("!")
            && tokens[i + 2].is_open("(")
            && model.match_of[i + 2] != usize::MAX
        {
            let open = i + 2;
            let close = model.match_of[open];
            check_invocation(model, open, close, out);
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

fn check_invocation(model: &FileModel, open: usize, close: usize, out: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    // First meaningful token decides the variant: `asymmetric` measures
    // are allowed order-sensitive expressions.
    if tokens
        .get(open + 1)
        .is_some_and(|t| t.is_ident("asymmetric"))
    {
        return;
    }

    // Collect closure parameter pairs: `| p , q |`.
    let mut pairs: Vec<(String, String)> = Vec::new();
    for j in open + 1..close.saturating_sub(4) {
        if tokens[j].is_punct("|")
            && tokens[j + 1].kind == TokenKind::Ident
            && tokens[j + 2].is_punct(",")
            && tokens[j + 3].kind == TokenKind::Ident
            && tokens[j + 4].is_punct("|")
        {
            pairs.push((tokens[j + 1].text.clone(), tokens[j + 3].text.clone()));
        }
    }
    if pairs.is_empty() {
        return;
    }
    let is_param = |name: &str| pairs.iter().any(|(a, b)| a == name || b == name);

    // One level of aliasing: `let (u, v) = (…p…, …q…);` and
    // `let u = …p…;` where the right-hand side mentions exactly one
    // parameter. `aliases` maps alias name → parameter name.
    let mut aliases: Vec<(String, String)> = Vec::new();
    for j in open + 1..close {
        if !tokens[j].is_ident("let") {
            continue;
        }
        // Tuple form: `let ( u , v ) = ( … , … ) ;`
        if tokens[j + 1].is_open("(")
            && model.match_of[j + 1] == j + 5
            && tokens[j + 2].kind == TokenKind::Ident
            && tokens[j + 3].is_punct(",")
            && tokens[j + 4].kind == TokenKind::Ident
            && tokens.get(j + 6).is_some_and(|t| t.is_punct("="))
            && tokens.get(j + 7).is_some_and(|t| t.is_open("("))
        {
            let rhs_close = model.match_of[j + 7];
            if rhs_close == usize::MAX {
                continue;
            }
            if let Some((p1, p2)) = split_rhs_params(tokens, j + 8, rhs_close, &is_param) {
                aliases.push((tokens[j + 2].text.clone(), p1));
                aliases.push((tokens[j + 4].text.clone(), p2));
            }
            continue;
        }
        // Single form: `let u = … ;`
        if tokens[j + 1].kind == TokenKind::Ident
            && tokens.get(j + 2).is_some_and(|t| t.is_punct("="))
        {
            let mut k = j + 3;
            let mut mentioned: Vec<String> = Vec::new();
            while k < close && !tokens[k].is_punct(";") {
                if tokens[k].kind == TokenKind::Ident && is_param(&tokens[k].text) {
                    mentioned.push(tokens[k].text.clone());
                }
                k += 1;
            }
            mentioned.dedup();
            if mentioned.len() == 1 {
                aliases.push((tokens[j + 1].text.clone(), mentioned.remove(0)));
            }
        }
    }
    let resolve = |name: &str| -> Option<String> {
        if is_param(name) {
            return Some(name.to_string());
        }
        aliases
            .iter()
            .find(|(alias, _)| alias == name)
            .map(|(_, param)| param.clone())
    };
    let is_pair = |p: &str, q: &str| {
        pairs
            .iter()
            .any(|(a, b)| (a == p && b == q) || (a == q && b == p))
    };

    // Fire on `( p / q ) . ln ()` and `safe_div(p, q) . ln ()`.
    for j in open + 1..close {
        // `( ident / ident )` exactly.
        let div_pair = if tokens[j].is_open("(")
            && model.match_of[j] == j + 4
            && tokens[j + 1].kind == TokenKind::Ident
            && tokens[j + 2].is_punct("/")
            && tokens[j + 3].kind == TokenKind::Ident
        {
            Some((j + 1, j + 3, j + 4))
        } else if tokens[j].is_ident("safe_div")
            && tokens.get(j + 1).is_some_and(|t| t.is_open("("))
            && model.match_of[j + 1] == j + 5
            && tokens[j + 2].kind == TokenKind::Ident
            && tokens[j + 3].is_punct(",")
            && tokens[j + 4].kind == TokenKind::Ident
        {
            Some((j + 2, j + 4, j + 5))
        } else {
            None
        };
        let Some((lhs, rhs, close_idx)) = div_pair else {
            continue;
        };
        let log_follows = tokens.get(close_idx + 1).is_some_and(|t| t.is_punct("."))
            && tokens
                .get(close_idx + 2)
                .is_some_and(|t| LOG_METHODS.iter().any(|m| t.is_ident(m)));
        if !log_follows {
            continue;
        }
        let (Some(p), Some(q)) = (resolve(&tokens[lhs].text), resolve(&tokens[rhs].text)) else {
            continue;
        };
        if p != q && is_pair(&p, &q) {
            out.push(Diagnostic {
                lint: NAME,
                severity: Severity::Warning,
                file: model.path.clone(),
                line: tokens[lhs].line,
                message: format!(
                    "`({lhs_t} / {rhs_t}).{log}()` in a measure not marked `asymmetric`: \
                     divide-then-log is not bit-symmetric under argument swap (the \
                     Jeffreys one-ULP bug); write `{lhs_t}.{log}() - {rhs_t}.{log}()` \
                     or mark the measure `asymmetric`",
                    lhs_t = tokens[lhs].text,
                    rhs_t = tokens[rhs].text,
                    log = tokens[close_idx + 2].text,
                ),
            });
        }
    }
}

/// For a tuple RHS `(expr1, expr2)`, returns the parameter each side
/// mentions when each mentions exactly one (and they differ).
fn split_rhs_params(
    tokens: &[Token],
    start: usize,
    end: usize,
    is_param: &dyn Fn(&str) -> bool,
) -> Option<(String, String)> {
    let mut depth = 0usize;
    let mut comma = None;
    for (j, tok) in tokens.iter().enumerate().take(end).skip(start) {
        match tok.kind {
            TokenKind::OpenDelim => depth += 1,
            TokenKind::CloseDelim => depth = depth.saturating_sub(1),
            TokenKind::Punct if depth == 0 && tok.text == "," => {
                comma = Some(j);
                break;
            }
            _ => {}
        }
    }
    let comma = comma?;
    let mentions = |a: usize, b: usize| -> Option<String> {
        let mut found: Option<String> = None;
        for t in &tokens[a..b] {
            if t.kind == TokenKind::Ident && is_param(&t.text) {
                match &found {
                    None => found = Some(t.text.clone()),
                    Some(existing) if existing == &t.text => {}
                    Some(_) => return None,
                }
            }
        }
        found
    };
    let p1 = mentions(start, comma)?;
    let p2 = mentions(comma + 1, end)?;
    if p1 == p2 {
        return None;
    }
    Some((p1, p2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let model = FileModel::analyze("x.rs", src);
        let mut out = Vec::new();
        check(&model, &mut out);
        out
    }

    const BUGGY: &str = r#"
lockstep_measure!(
    /// Jeffreys, as it was before the conformance oracle caught it.
    Jeffreys,
    "Jeffreys",
    |x, y| lane_sum(x, y, |a, b| {
        let (ca, cb) = (clamp_pos(a), clamp_pos(b));
        (ca - cb) * (ca / cb).ln()
    })
);
"#;

    const FIXED: &str = r#"
lockstep_measure!(
    Jeffreys,
    "Jeffreys",
    |x, y| lane_sum(x, y, |a, b| {
        let (ca, cb) = (clamp_pos(a), clamp_pos(b));
        (ca - cb) * (ca.ln() - cb.ln())
    })
);
"#;

    const ASYMMETRIC: &str = r#"
lockstep_measure!(
    asymmetric
    KullbackLeibler,
    "KullbackLeibler",
    |x, y| lane_sum(x, y, |a, b| {
        let (a, b) = (clamp_pos(a), clamp_pos(b));
        a * (a / b).ln()
    })
);
"#;

    #[test]
    fn fires_on_the_historical_jeffreys_shape() {
        let d = run(BUGGY);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("bit-symmetric"));
    }

    #[test]
    fn fires_on_direct_params_and_safe_div() {
        let direct = r#"lockstep_measure!(M, "M", |x, y| lane_sum(x, y, |a, b| (a / b).ln()));"#;
        assert_eq!(run(direct).len(), 1);
        let via_safe_div =
            r#"lockstep_measure!(M, "M", |x, y| lane_sum(x, y, |a, b| safe_div(a, b).ln()));"#;
        assert_eq!(run(via_safe_div).len(), 1);
    }

    #[test]
    fn silent_on_fixed_asymmetric_and_symmetric_denominators() {
        assert!(run(FIXED).is_empty());
        assert!(run(ASYMMETRIC).is_empty());
        // Topsøe-style `(2.0 * a / m)` with m = a + b: not a bare-param divide.
        let topsoe = r#"
lockstep_measure!(M, "M", |x, y| lane_sum(x, y, |a, b| {
    let m = a + b;
    a * (2.0 * a / m).ln() + b * (2.0 * b / m).ln()
}));
"#;
        assert!(run(topsoe).is_empty());
    }

    #[test]
    fn silent_outside_the_macro() {
        // Plain code with the same shape: out of scope for the heuristic.
        assert!(run("fn f(a: f64, b: f64) -> f64 { (a / b).ln() }").is_empty());
    }

    #[test]
    fn division_without_a_log_is_fine() {
        let src = r#"lockstep_measure!(M, "M", |x, y| lane_sum(x, y, |a, b| (a / b).abs()));"#;
        assert!(run(src).is_empty());
    }
}
