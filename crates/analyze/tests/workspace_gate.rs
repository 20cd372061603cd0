//! The gate itself: every invariant pass must come back clean on the live workspace.
//! This is the test CI leans on — `cargo test -q` fails the moment an unsafe block
//! loses its `// SAFETY:`, a publication-path ordering loses its `// ORDERING:`, a hot
//! function allocates, or a metric name drifts from the contract.

use std::path::Path;

#[test]
fn live_workspace_is_clean_under_every_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = liveupdate_analyze::Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "the walk found the crates ({} files) — wrong root?",
        ws.files.len()
    );
    assert!(
        ws.readme.is_some(),
        "README.md present at the workspace root"
    );

    let report = liveupdate_analyze::run_all(&ws);
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "xcheck found {} violation(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );

    // The audit artifacts must be non-trivial on the real tree: an empty inventory
    // would mean the passes silently stopped seeing the sources.
    assert!(
        !report.unsafe_inventory.is_empty(),
        "the net tier has unsafe FFI sites"
    );
    assert!(
        report.unsafe_inventory.iter().all(|s| s.justified),
        "every unsafe site carries a SAFETY: justification"
    );
    assert!(
        !report.ordering_census.is_empty(),
        "atomics exist in the workspace"
    );
    assert!(
        report.metric_contract.len() >= 16,
        "the metric contract covers the documented families (got {})",
        report.metric_contract.len()
    );

    // The JSON emitter renders the clean report without panicking.
    let json = report.to_json();
    assert!(
        json.contains("\"findings\": [\n  ]"),
        "clean report serializes an empty list"
    );
    assert!(
        json.contains("\"ordering_census\""),
        "census present in the JSON report"
    );
}
