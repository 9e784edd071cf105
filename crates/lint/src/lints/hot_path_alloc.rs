//! `hot-path-alloc`: no heap allocation inside `*_ws` / `*_upto`
//! bodies.
//!
//! The workspace-threaded entry points (`distance_ws`,
//! `log_kernel_ws`, `distance_upto`, and their helpers — any function
//! whose name ends in `_ws` or `_upto`) exist precisely so the O(n²)
//! 1-NN inner loop performs zero allocations per call (PR 1's ~1.9×
//! win). A `Vec::new()` smuggled into one of these bodies silently
//! regresses every study. Scratch space must come from the
//! `Workspace` arena passed in.

use crate::model::FileModel;
use crate::report::{Diagnostic, Severity};

pub const NAME: &str = "hot-path-alloc";

pub fn check(model: &FileModel, out: &mut Vec<Diagnostic>) {
    let tokens = &model.tokens;
    for f in &model.fns {
        if !(f.name.ends_with("_ws") || f.name.ends_with("_upto")) {
            continue;
        }
        if model.in_test_region(f.open) {
            continue;
        }
        for i in f.open + 1..f.close {
            let t = &tokens[i];
            let hit: Option<String> = if (t.is_ident("Vec")
                || t.is_ident("Box")
                || t.is_ident("String"))
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| {
                    n.is_ident("new") || n.is_ident("from") || n.is_ident("with_capacity")
                }) {
                Some(format!("{}::{}", t.text, tokens[i + 2].text))
            } else if (t.is_ident("vec") || t.is_ident("format"))
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                Some(format!("{}!", t.text))
            } else if (t.is_ident("to_vec")
                || t.is_ident("collect")
                || t.is_ident("to_owned")
                || t.is_ident("to_string")
                || t.is_ident("with_capacity"))
                && i > 0
                && tokens[i - 1].is_punct(".")
            {
                Some(format!(".{}(…)", t.text))
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(Diagnostic {
                    lint: NAME,
                    severity: Severity::Error,
                    file: model.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{what}` inside `{}`: workspace-threaded hot paths must be \
                         allocation-free — take scratch from the Workspace arena",
                        f.name
                    ),
                });
            }
        }
    }
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

    #[test]
    fn fires_inside_ws_and_upto_bodies() {
        assert_eq!(
            run("fn distance_ws(&self) -> f64 { let v = Vec::new(); 0.0 }").len(),
            1
        );
        assert_eq!(
            run("fn distance_upto(&self) -> f64 { let v = vec![0.0; 8]; 0.0 }").len(),
            1
        );
        assert_eq!(
            run("fn helper_ws(x: &[f64]) -> Vec<f64> { x.to_vec() }").len(),
            1
        );
        assert_eq!(
            run("fn log_kernel_ws(&self) -> f64 { let v: Vec<f64> = it.collect(); 0.0 }").len(),
            1
        );
        assert_eq!(
            run("fn f_ws(&self) -> f64 { let v = Vec::with_capacity(8); 0.0 }").len(),
            1
        );
    }

    #[test]
    fn silent_outside_hot_paths_and_on_arena_use() {
        assert!(run("fn distance(&self) -> f64 { let v = Vec::new(); 0.0 }").is_empty());
        assert!(run("fn prepare(&self) { let v = vec![1]; }").is_empty());
        assert!(run(
            "fn distance_ws(&self, ws: &mut Workspace) -> f64 { let (a, b) = ws.split(8); 0.0 }"
        )
        .is_empty());
        // Type annotations mentioning Vec do not fire — only `Vec::new`-style calls.
        assert!(run("fn distance_ws(&self, buf: &mut Vec<f64>) -> f64 { 0.0 }").is_empty());
    }

    #[test]
    fn test_region_hot_paths_are_exempt() {
        assert!(run("#[cfg(test)]\nmod t { fn fake_ws() { let v = Vec::new(); } }").is_empty());
    }
}
