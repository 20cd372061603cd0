//! Pass 3 — the hot-path allocation lint.
//!
//! PR 6 made the serve path allocation-free and PR 8 made telemetry one relaxed
//! increment; both were *measured* claims with nothing enforcing them. This pass turns
//! them into compile-gate facts: the functions in [`HOT_FUNCTIONS`] — the steady-state
//! serve path, the scratch inference kernels, the observability record paths, and the
//! event-loop readiness dispatch — must contain none of the allocation tokens in
//! [`BANNED`].
//!
//! The lint is per-function-body and token-based, deliberately: it cannot see through
//! calls (callees that must also be clean are listed themselves), and it cannot be
//! fooled by allocation words in strings or comments. `Vec::with_capacity` on a
//! *reused* buffer is allowed — amortized-zero steady-state allocation is the actual
//! invariant — which is why the banned list names the per-call allocators
//! (`Vec::new`, `vec!`, `to_vec`, `collect`, `Box::new`, `format!`, `String::from`,
//! `.clone()`) rather than every constructor.
//!
//! To extend the list, add a `(file, function)` pair to [`HOT_FUNCTIONS`]; the
//! workspace gate fails if a declared function stops existing, so the list cannot
//! silently go stale.

use crate::lexer::Token;
use crate::{Finding, Report, SeqPat, Workspace};

pub(crate) const PASS: &str = "hot-path-alloc";

/// `(file suffix, function name)` pairs under the allocation lint. Every function with
/// that name in that file is checked (free functions and methods alike).
pub const HOT_FUNCTIONS: &[(&str, &str)] = &[
    // The snapshot serve path: zero heap allocation per steady-state request (PR 6).
    ("crates/liveupdate/src/snapshot.rs", "serve_batch"),
    ("crates/liveupdate/src/snapshot.rs", "pooled_gather"),
    // The scratch inference kernels under the serve path.
    ("crates/dlrm/src/model.rs", "predict_with_scratch"),
    ("crates/dlrm/src/model.rs", "predict_pooled_with_scratch"),
    // The observability record paths: one relaxed atomic op, no allocation (PR 8).
    ("crates/obs/src/hist.rs", "record"),
    ("crates/obs/src/hist.rs", "record_n"),
    ("crates/obs/src/registry.rs", "inc"),
    ("crates/obs/src/registry.rs", "add"),
    ("crates/obs/src/registry.rs", "set"),
    // The tracing hot path: a stage stamp is one relaxed store, a span publish is
    // the fixed-slot seqlock write (PR 10).
    ("crates/obs/src/span.rs", "stamp"),
    ("crates/obs/src/span.rs", "push"),
    // The event-loop readiness dispatch: per-wakeup work allocates nothing (PR 7).
    ("crates/net/src/server.rs", "run"),
    ("crates/net/src/server.rs", "conn_ready"),
    ("crates/net/src/server.rs", "service_conn"),
    ("crates/net/src/server.rs", "drain_replies"),
];

/// Allocation tokens banned inside hot function bodies.
pub const BANNED: &[&str] = &[
    "Vec::new",
    "vec!",
    "to_vec",
    "collect",
    "Box::new",
    "format!",
    "String::from",
    ".clone()",
];

pub(crate) fn run(ws: &Workspace, report: &mut Report) {
    for (file_suffix, fn_name) in HOT_FUNCTIONS {
        let Some(file) = ws.files.iter().find(|f| f.path_ends_with(file_suffix)) else {
            // A missing file only matters if the workspace claims to be the real one;
            // fixture workspaces check single passes in isolation.
            continue;
        };
        let mut found_any = false;
        let toks: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut i = 0;
        while i + 1 < toks.len() {
            if toks[i].is_ident("fn") && toks[i + 1].is_ident(fn_name) {
                found_any = true;
                if let Some(body) = function_body(&toks, i + 2) {
                    scan_body(file, fn_name, body, report);
                }
            }
            i += 1;
        }
        if !found_any {
            report.findings.push(Finding {
                pass: PASS,
                path: file.path.clone(),
                line: 1,
                message: format!(
                    "declared hot function `{fn_name}` no longer exists in this file — \
                     update HOT_FUNCTIONS in crates/analyze"
                ),
            });
        }
    }
}

/// From just after the function name, find the body: the first `{` and its balanced
/// extent. Signatures in this workspace put no braces before the body.
fn function_body<'a>(toks: &'a [&'a Token], from: usize) -> Option<&'a [&'a Token]> {
    let open = toks[from..].iter().position(|t| t.is_punct('{'))? + from;
    let mut depth = 0usize;
    for (j, t) in toks[open..].iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(&toks[open..=open + j]);
            }
        }
    }
    Some(&toks[open..])
}

fn scan_body(file: &crate::SourceFile, fn_name: &str, body: &[&Token], report: &mut Report) {
    for i in 0..body.len() {
        let hit: Option<&str> = if seq_ref(
            body,
            i,
            &[
                SeqPat::Ident("Vec"),
                SeqPat::Punct(':'),
                SeqPat::Punct(':'),
                SeqPat::Ident("new"),
            ],
        ) {
            Some("Vec::new")
        } else if seq_ref(body, i, &[SeqPat::Ident("vec"), SeqPat::Punct('!')]) {
            Some("vec!")
        } else if body[i].is_ident("to_vec") {
            Some("to_vec")
        } else if body[i].is_ident("collect")
            && body
                .get(i + 1)
                .is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
        {
            Some("collect")
        } else if seq_ref(
            body,
            i,
            &[
                SeqPat::Ident("Box"),
                SeqPat::Punct(':'),
                SeqPat::Punct(':'),
                SeqPat::Ident("new"),
            ],
        ) {
            Some("Box::new")
        } else if seq_ref(body, i, &[SeqPat::Ident("format"), SeqPat::Punct('!')]) {
            Some("format!")
        } else if seq_ref(
            body,
            i,
            &[
                SeqPat::Ident("String"),
                SeqPat::Punct(':'),
                SeqPat::Punct(':'),
                SeqPat::Ident("from"),
            ],
        ) {
            Some("String::from")
        } else if seq_ref(
            body,
            i,
            &[
                SeqPat::Punct('.'),
                SeqPat::Ident("clone"),
                SeqPat::Punct('('),
            ],
        ) {
            Some(".clone()")
        } else {
            None
        };
        if let Some(token) = hit {
            report.findings.push(Finding {
                pass: PASS,
                path: file.path.clone(),
                line: body[i].line,
                message: format!(
                    "allocation token `{token}` in hot function `{fn_name}` — the \
                     steady-state path must not allocate (reuse a scratch buffer or \
                     move the work off the hot path)"
                ),
            });
        }
    }
}

/// [`crate::seq_matches`] over a by-reference token slice (the comment-stripped view
/// this pass works on).
fn seq_ref(body: &[&Token], i: usize, pat: &[SeqPat]) -> bool {
    if i + pat.len() > body.len() {
        return false;
    }
    pat.iter().zip(&body[i..]).all(|(p, t)| match p {
        SeqPat::Ident(s) => t.is_ident(s),
        SeqPat::Punct(c) => t.is_punct(*c),
    })
}
