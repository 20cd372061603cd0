//! Atomic orderings that need a written reason carry an `// ORDERING:` comment.
//!
//! `Ordering::SeqCst` anywhere, and `Acquire`/`Release`/`AcqRel` in the epoch-swap
//! publication files, must have `ORDERING:` on the same line or in the contiguous `//`
//! block directly above it (attribute lines may sit in between). `Relaxed` asserts no
//! happens-before edge, so it needs none. The scan covers `crates/*/src` and `src/`.

use std::path::{Path, PathBuf};

/// The epoch-swap publication files, under `crates/`.
const PUBLICATION_PATH: [&str; 2] = ["runtime/src/epoch.rs", "liveupdate/src/snapshot.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn audited_orderings_carry_an_ordering_comment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    let mut missing = Vec::new();
    for path in &files {
        let publication = PUBLICATION_PATH.iter().any(|p| path.ends_with(p));
        let audited = |variant: &str| {
            variant.starts_with("SeqCst")
                || (publication
                    && ["Acquire", "Release", "AcqRel"]
                        .iter()
                        .any(|o| variant.starts_with(o)))
        };
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with("//") || !line.split("Ordering::").skip(1).any(audited) {
                continue;
            }
            let above = lines[..i].iter().rev();
            let mut above = above.take_while(|l| l.starts_with("//") || l.starts_with("#["));
            if !line.contains("ORDERING:") && !above.any(|l| l.contains("ORDERING:")) {
                let rel = path.strip_prefix(root).unwrap().display();
                missing.push(format!("{rel}:{}: {line}", i + 1));
            }
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let missing = missing.join("\n");
    assert!(missing.is_empty(), "no ORDERING: comment at\n{missing}");
}
