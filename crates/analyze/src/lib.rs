//! `liveupdate_analyze`: the workspace's own static-analysis gate.
//!
//! The repo's core claim — near-zero-overhead epoch-swap serving — rests on invariants
//! that rustc does not check: every `unsafe` site must carry a written safety argument,
//! every non-trivial atomic ordering on the publication path must carry a written
//! ordering argument, the declared hot functions must stay allocation-free, the metric
//! names every crate reports must match the documented contract. This crate walks every
//! workspace source file with a small hand-rolled lexer ([`lexer`]) — no syn, no
//! proc-macro machinery, no dependencies at all — and enforces each invariant as a
//! named, `file:line`-reporting pass ([`passes`]).
//!
//! Run it as `cargo run -p analyze` (the `xcheck` binary): exit code 0 means every
//! invariant holds; findings print one per line, and `--json` emits the full report
//! (findings + the unsafe inventory + the per-crate atomic-ordering census) for
//! machine consumption. `tests/workspace_gate.rs` runs the same passes over the live
//! workspace inside plain `cargo test`, so the gate cannot rot apart from CI.

pub mod lexer;
pub mod passes;

use lexer::{lex, Token};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One workspace source file: its path (workspace-relative, `/`-separated), raw text,
/// token stream, and the per-line classification the adjacency rules need.
#[derive(Debug)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
    pub tokens: Vec<Token>,
    /// Lines covered by at least one comment token (block comments cover every line
    /// they span), mapped to the indices of those tokens.
    comment_lines: HashMap<u32, Vec<usize>>,
    /// Lines on which at least one non-comment token starts.
    code_lines: HashSet<u32>,
    /// Lines whose first token is `#` — attribute lines (`#[inline]`, `#![allow]`).
    attr_lines: HashSet<u32>,
}

impl SourceFile {
    /// Lex `text` and precompute the line classification.
    #[must_use]
    pub fn new(path: String, text: String) -> Self {
        let tokens = lex(&text);
        let mut comment_lines: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut code_lines = HashSet::new();
        let mut first_on_line: HashMap<u32, usize> = HashMap::new();
        for (i, t) in tokens.iter().enumerate() {
            first_on_line.entry(t.line).or_insert(i);
            if t.is_comment() {
                let span = t.text.bytes().filter(|&b| b == b'\n').count() as u32;
                for l in t.line..=t.line + span {
                    comment_lines.entry(l).or_default().push(i);
                }
            } else {
                code_lines.insert(t.line);
            }
        }
        let attr_lines = first_on_line
            .iter()
            .filter(|&(_, &i)| tokens[i].is_punct('#'))
            .map(|(&l, _)| l)
            .collect();
        Self {
            path,
            text,
            tokens,
            comment_lines,
            code_lines,
            attr_lines,
        }
    }

    /// The crate this file belongs to: `crates/net/src/...` → `net`; the umbrella
    /// `src/...` → `root`.
    #[must_use]
    pub fn crate_name(&self) -> &str {
        self.path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("root")
    }

    /// True when `self.path` ends with `suffix` on a path-component boundary.
    #[must_use]
    pub fn path_ends_with(&self, suffix: &str) -> bool {
        self.path == suffix || self.path.ends_with(&format!("/{suffix}"))
    }

    fn comment_on_line_contains(&self, line: u32, needle: &str) -> bool {
        self.comment_lines
            .get(&line)
            .is_some_and(|idxs| idxs.iter().any(|&i| self.tokens[i].text.contains(needle)))
    }

    /// The adjacency rule shared by the `SAFETY:` and `ORDERING:` passes: a
    /// justification comment counts if it contains `needle` and sits either on the
    /// same line as the site (trailing comment) or in the contiguous comment block
    /// immediately above it. Attribute lines (`#[inline]`, ...) may sit between the
    /// comment block and the site; a blank or code line breaks adjacency.
    #[must_use]
    pub fn has_adjacent_justification(&self, line: u32, needle: &str) -> bool {
        if self.comment_on_line_contains(line, needle) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let is_comment_only =
                self.comment_lines.contains_key(&l) && !self.code_lines.contains(&l);
            if is_comment_only {
                if self.comment_on_line_contains(l, needle) {
                    return true;
                }
            } else if self.attr_lines.contains(&l) {
                // keep walking past attributes
            } else {
                return false;
            }
        }
        false
    }
}

/// The file set one analysis run sees: workspace sources plus the README (the metric
/// contract's user-facing half).
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub readme: Option<String>,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, text)` pairs — the fixture entry point
    /// the self-tests use.
    #[must_use]
    pub fn from_parts(files: Vec<(String, String)>, readme: Option<String>) -> Self {
        Self {
            files: files
                .into_iter()
                .map(|(p, t)| SourceFile::new(p, t))
                .collect(),
            readme,
        }
    }

    /// Load every `crates/*/src/**/*.rs` and `src/**/*.rs` file under `root`, plus
    /// `README.md`. Vendored stand-ins (`vendor/`), tests, examples, and benches are
    /// outside the gate: the invariants protect the serving system itself.
    ///
    /// # Errors
    ///
    /// Any unreadable directory or file under the walked roots.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut rs_files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                let src = dir.join("src");
                if src.is_dir() {
                    walk_rs(&src, &mut rs_files)?;
                }
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            walk_rs(&root_src, &mut rs_files)?;
        }
        rs_files.sort();
        let files = rs_files
            .into_iter()
            .map(|p| {
                let text = std::fs::read_to_string(&p)?;
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                Ok(SourceFile::new(rel, text))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let readme = std::fs::read_to_string(root.join("README.md")).ok();
        Ok(Self { files, readme })
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// One violation: which pass, where, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub pass: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.pass, self.message
        )
    }
}

/// The machine-readable inventory entry for one `unsafe` site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    pub path: String,
    pub line: u32,
    /// `block` | `fn` | `impl` | `trait` | `extern` | `other`.
    pub kind: &'static str,
    pub justified: bool,
}

/// Everything one full run produces: findings plus the audit artifacts worth diffing
/// across reviews (the unsafe inventory and the per-crate ordering census).
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// crate → ordering variant (`Relaxed`, `Acquire`, ...) → count.
    pub ordering_census: BTreeMap<String, BTreeMap<String, u32>>,
    /// The metric-name contract the metrics pass checked against (normalized).
    pub metric_contract: Vec<String>,
}

impl Report {
    /// True when every pass came back clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize the whole report as JSON (hand-rolled: the workspace's serde is a
    /// vendored marker-only stand-in, and the gate must not depend on anything).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"pass\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.pass),
                json_str(&f.path),
                f.line,
                json_str(&f.message)
            ));
        }
        s.push_str("\n  ],\n  \"unsafe_inventory\": [");
        for (i, u) in self.unsafe_inventory.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"kind\": {}, \"justified\": {}}}",
                json_str(&u.path),
                u.line,
                json_str(u.kind),
                u.justified
            ));
        }
        s.push_str("\n  ],\n  \"ordering_census\": {");
        for (i, (krate, counts)) in self.ordering_census.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {{", json_str(krate)));
            for (j, (variant, n)) in counts.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{}: {}", json_str(variant), n));
            }
            s.push('}');
        }
        s.push_str("\n  },\n  \"metric_contract\": [");
        for (i, m) in self.metric_contract.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(m));
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run every pass over `ws` and collect one report.
#[must_use]
pub fn run_all(ws: &Workspace) -> Report {
    let mut report = Report::default();
    passes::unsafe_audit::run(ws, &mut report);
    passes::atomics::run(ws, &mut report);
    passes::hotpath::run(ws, &mut report);
    passes::metrics::run(ws, &mut report);
    report
}

/// Scan helper shared by passes: true when `tokens[i..]` starts with the given
/// identifier/punct sequence, skipping nothing (comments must be pre-filtered by the
/// caller if needed).
pub(crate) fn seq_matches(tokens: &[Token], pat: &[SeqPat]) -> bool {
    if tokens.len() < pat.len() {
        return false;
    }
    pat.iter().zip(tokens).all(|(p, t)| match p {
        SeqPat::Ident(s) => t.is_ident(s),
        SeqPat::Punct(c) => t.is_punct(*c),
    })
}

/// One element of a token-sequence pattern.
pub(crate) enum SeqPat {
    Ident(&'static str),
    Punct(char),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_accepts_same_line_and_block_above() {
        let f = SourceFile::new(
            "t.rs".into(),
            "// SAFETY: fine\nunsafe { a() };\nlet x = unsafe { b() }; // SAFETY: trailing\n"
                .into(),
        );
        assert!(f.has_adjacent_justification(2, "SAFETY:"));
        assert!(f.has_adjacent_justification(3, "SAFETY:"));
    }

    #[test]
    fn adjacency_walks_multi_line_comment_blocks_and_attrs() {
        let src = "// SAFETY: the argument\n// continues here\n#[inline]\nunsafe fn f() {}\n";
        let f = SourceFile::new("t.rs".into(), src.into());
        assert!(f.has_adjacent_justification(4, "SAFETY:"));
    }

    #[test]
    fn adjacency_is_broken_by_blank_or_code_lines() {
        let blank = "// SAFETY: too far away\n\nunsafe { a() };\n";
        let f = SourceFile::new("t.rs".into(), blank.into());
        assert!(!f.has_adjacent_justification(3, "SAFETY:"));

        let code = "// SAFETY: belongs to someone else\nlet y = 1;\nunsafe { a() };\n";
        let f = SourceFile::new("t.rs".into(), code.into());
        assert!(!f.has_adjacent_justification(3, "SAFETY:"));
    }

    #[test]
    fn crate_names_resolve() {
        let f = SourceFile::new("crates/net/src/poll.rs".into(), String::new());
        assert_eq!(f.crate_name(), "net");
        let f = SourceFile::new("src/lib.rs".into(), String::new());
        assert_eq!(f.crate_name(), "root");
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }
}
