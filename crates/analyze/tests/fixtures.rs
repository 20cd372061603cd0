//! Self-tests for the four invariant passes: each must fire on a deliberately-bad
//! fixture and stay quiet on the fixed version of the same fixture. This is what makes
//! the workspace gate trustworthy — a pass that cannot fail is not a gate.

use liveupdate_analyze::{run_all, Workspace};

/// Run every pass over an in-memory workspace and return the findings of one pass.
fn findings(files: &[(&str, &str)], readme: Option<&str>, pass: &str) -> Vec<String> {
    let ws = Workspace::from_parts(
        files
            .iter()
            .map(|(p, t)| ((*p).to_string(), (*t).to_string()))
            .collect(),
        readme.map(str::to_string),
    );
    run_all(&ws)
        .findings
        .into_iter()
        .filter(|f| f.pass == pass)
        .map(|f| f.to_string())
        .collect()
}

// ---------------------------------------------------------------- unsafe-audit

#[test]
fn unsafe_block_without_safety_comment_fails() {
    let got = findings(
        &[(
            "crates/x/src/lib.rs",
            "pub fn f() {\n    unsafe { g(); }\n}\n",
        )],
        None,
        "unsafe-audit",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("crates/x/src/lib.rs:2"), "{got:?}");
}

#[test]
fn safety_comment_above_or_trailing_satisfies_the_audit() {
    let above = "pub fn f() {\n    // SAFETY: g has no preconditions.\n    unsafe { g(); }\n}\n";
    let trailing = "pub fn f() {\n    unsafe { g(); } // SAFETY: g has no preconditions.\n}\n";
    for src in [above, trailing] {
        let got = findings(&[("crates/x/src/lib.rs", src)], None, "unsafe-audit");
        assert!(got.is_empty(), "{got:?}");
    }
}

#[test]
fn blank_line_breaks_safety_adjacency() {
    let src = "// SAFETY: too far away.\n\npub fn f() {\n    unsafe { g(); }\n}\n";
    let got = findings(&[("crates/x/src/lib.rs", src)], None, "unsafe-audit");
    assert_eq!(got.len(), 1, "{got:?}");
}

#[test]
fn unsafe_in_strings_and_comments_does_not_trip_the_audit() {
    let src = "// this mentions unsafe code\npub fn f() -> &'static str { \"unsafe\" }\n";
    let got = findings(&[("crates/x/src/lib.rs", src)], None, "unsafe-audit");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn unsafe_inventory_records_kind_and_justification() {
    let src = "// SAFETY: fine.\nunsafe fn f() {}\nfn g() { unsafe { f(); } }\n";
    let ws = Workspace::from_parts(
        vec![("crates/x/src/lib.rs".to_string(), src.to_string())],
        None,
    );
    let report = run_all(&ws);
    assert_eq!(report.unsafe_inventory.len(), 2);
    let kinds: Vec<(&str, bool)> = report
        .unsafe_inventory
        .iter()
        .map(|s| (s.kind, s.justified))
        .collect();
    assert_eq!(kinds, [("fn", true), ("block", false)]);
}

// ------------------------------------------------------------- atomic-ordering

#[test]
fn seqcst_anywhere_without_justification_fails() {
    let src = "fn f(x: &AtomicU64) { x.store(1, Ordering::SeqCst); }\n";
    let got = findings(
        &[("crates/anywhere/src/lib.rs", src)],
        None,
        "atomic-ordering",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("SeqCst"), "{got:?}");
}

#[test]
fn publication_path_acquire_without_justification_fails() {
    let src = "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Acquire) }\n";
    let got = findings(
        &[("crates/runtime/src/epoch.rs", src)],
        None,
        "atomic-ordering",
    );
    assert_eq!(got.len(), 1, "{got:?}");
}

#[test]
fn justified_orderings_and_relaxed_pass() {
    let publication = "fn f(x: &AtomicU64) -> u64 {\n    \
                       // ORDERING: Acquire pairs with the Release in publish.\n    \
                       x.load(Ordering::Acquire)\n}\n";
    let elsewhere = "fn g(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }\n\
                     fn h(x: &AtomicU64) -> u64 { x.load(Ordering::Acquire) }\n";
    let got = findings(
        &[
            ("crates/runtime/src/epoch.rs", publication),
            ("crates/obs/src/registry.rs", elsewhere),
        ],
        None,
        "atomic-ordering",
    );
    assert!(
        got.is_empty(),
        "non-publication Acquire and Relaxed need no comment: {got:?}"
    );
}

#[test]
fn ordering_census_counts_per_crate() {
    let src = "fn f(x: &AtomicU64) { x.store(x.load(Ordering::Relaxed), Ordering::Relaxed); }\n";
    let ws = Workspace::from_parts(
        vec![("crates/obs/src/lib.rs".to_string(), src.to_string())],
        None,
    );
    let report = run_all(&ws);
    assert_eq!(report.ordering_census["obs"]["Relaxed"], 2);
}

#[test]
fn cmp_ordering_variants_are_not_atomic_orderings() {
    let src = "fn f(a: u32, b: u32) -> Ordering { Ordering::Less }\n";
    let ws = Workspace::from_parts(
        vec![("crates/obs/src/lib.rs".to_string(), src.to_string())],
        None,
    );
    let report = run_all(&ws);
    assert!(
        report.ordering_census.is_empty(),
        "cmp::Ordering must not be counted"
    );
}

// -------------------------------------------------------------- hot-path-alloc

/// A server.rs fixture with all four declared hot functions present and clean.
const CLEAN_SERVER: &str = "impl EventLoop {\n\
    fn run(&mut self) { let mut events = Vec::with_capacity(256); }\n\
    fn conn_ready(&mut self) {}\n\
    fn service_conn(&mut self) {}\n\
    fn drain_replies(&mut self) {}\n\
}\n";

#[test]
fn allocation_in_hot_function_fails() {
    let bad = CLEAN_SERVER.replace(
        "fn drain_replies(&mut self) {}",
        "fn drain_replies(&mut self) { let mut touched: Vec<u64> = Vec::new(); }",
    );
    let got = findings(
        &[("crates/net/src/server.rs", &bad)],
        None,
        "hot-path-alloc",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(
        got[0].contains("Vec::new") && got[0].contains("drain_replies"),
        "{got:?}"
    );
}

#[test]
fn each_banned_token_is_caught() {
    for (token, stmt) in [
        ("vec!", "let v = vec![1, 2];"),
        ("to_vec", "let v = s.to_vec();"),
        ("collect", "let v: Vec<u8> = it.collect();"),
        ("Box::new", "let b = Box::new(1);"),
        ("format!", "let s = format!(\"x\");"),
        ("String::from", "let s = String::from(\"x\");"),
        (".clone()", "let c = a.clone();"),
    ] {
        let bad = CLEAN_SERVER.replace(
            "fn conn_ready(&mut self) {}",
            &format!("fn conn_ready(&mut self) {{ {stmt} }}"),
        );
        let got = findings(
            &[("crates/net/src/server.rs", &bad)],
            None,
            "hot-path-alloc",
        );
        assert_eq!(got.len(), 1, "token {token}: {got:?}");
        assert!(got[0].contains(token), "token {token}: {got:?}");
    }
}

#[test]
fn clean_hot_functions_and_non_hot_allocations_pass() {
    // Allocations outside the hot list (and with_capacity inside it) are fine.
    let src = CLEAN_SERVER.replace(
        "fn drain_replies(&mut self) {}",
        "fn drain_replies(&mut self) {}\n    \
         fn dispatch_event(&mut self) { let s = format!(\"boxed\"); }",
    );
    let got = findings(
        &[("crates/net/src/server.rs", &src)],
        None,
        "hot-path-alloc",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn allocation_words_in_comments_and_strings_do_not_trip() {
    let src = CLEAN_SERVER.replace(
        "fn conn_ready(&mut self) {}",
        "fn conn_ready(&mut self) {\n        // Vec::new would be wrong here.\n        \
         let label = \"Box::new format! .clone()\";\n    }",
    );
    let got = findings(
        &[("crates/net/src/server.rs", &src)],
        None,
        "hot-path-alloc",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn missing_declared_hot_function_fails() {
    let bad = CLEAN_SERVER.replace("fn drain_replies(&mut self) {}", "");
    let got = findings(
        &[("crates/net/src/server.rs", &bad)],
        None,
        "hot-path-alloc",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(
        got[0].contains("drain_replies") && got[0].contains("HOT_FUNCTIONS"),
        "{got:?}"
    );
}

// ------------------------------------------------------------- metric-contract

const CONTRACT: &str = "//! | metric | kind | meaning |\n\
                        //! |---|---|---|\n\
                        //! | `foo_total` | counter | things |\n\
                        //! | `bar_depth_t<i>` | gauge | per-table depth |\n";

const README: &str = "# Repo\n\n\
    8. **Observability** — the contract:\n\n\
       | metric | kind | meaning |\n\
       |---|---|---|\n\
       | `foo_total` | counter | things |\n\
       | `bar_depth_t<i>` | gauge | per-table depth |\n\n\
    9. **Next item** — ends the section.\n";

const CALL_SITES: &str = "fn wire(reg: &Registry) {\n\
    reg.counter(\"foo_total\");\n\
    for t in 0..4 { reg.gauge(&format!(\"bar_depth_t{t}\")); }\n\
}\n";

#[test]
fn matching_contract_tables_and_call_sites_pass() {
    let got = findings(
        &[
            ("crates/runtime/src/telemetry.rs", CONTRACT),
            ("crates/runtime/src/lib.rs", CALL_SITES),
        ],
        Some(README),
        "metric-contract",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn typoed_call_site_fails() {
    let bad = CALL_SITES.replace("foo_total", "foo_totle");
    let got = findings(
        &[
            ("crates/runtime/src/telemetry.rs", CONTRACT),
            ("crates/runtime/src/lib.rs", &bad),
        ],
        Some(README),
        "metric-contract",
    );
    // The typo is both an undocumented call site and a dead contract row.
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got.iter().any(|m| m.contains("foo_totle")), "{got:?}");
}

#[test]
fn telemetry_name_missing_from_readme_fails() {
    let readme_missing_row = README.replace("| `foo_total` | counter | things |\n", "");
    let got = findings(
        &[
            ("crates/runtime/src/telemetry.rs", CONTRACT),
            ("crates/runtime/src/lib.rs", CALL_SITES),
        ],
        Some(&readme_missing_row),
        "metric-contract",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(
        got[0].contains("missing from") && got[0].contains("foo_total"),
        "{got:?}"
    );
}

#[test]
fn duplicate_contract_row_fails() {
    let doubled = README.replace(
        "| `foo_total` | counter | things |\n",
        "| `foo_total` | counter | things |\n| `foo_total` | counter | again |\n",
    );
    let got = findings(
        &[
            ("crates/runtime/src/telemetry.rs", CONTRACT),
            ("crates/runtime/src/lib.rs", CALL_SITES),
        ],
        Some(&doubled),
        "metric-contract",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("listed twice"), "{got:?}");
}

#[test]
fn dead_contract_row_fails() {
    let no_gauge = CALL_SITES.replace(
        "for t in 0..4 { reg.gauge(&format!(\"bar_depth_t{t}\")); }\n",
        "",
    );
    let got = findings(
        &[
            ("crates/runtime/src/telemetry.rs", CONTRACT),
            ("crates/runtime/src/lib.rs", &no_gauge),
        ],
        Some(README),
        "metric-contract",
    );
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].contains("no registration call site"), "{got:?}");
}

// ------------------------------------------- metric-contract: stage-name sync

/// Contract + README + call sites + span file, all agreeing on one stage family.
const STAGE_CONTRACT: &str = "//! | metric | kind | meaning |\n\
                              //! |---|---|---|\n\
                              //! | `foo_total` | counter | things |\n\
                              //! | `stage_x_us` | histogram | traced segment |\n";

const STAGE_README: &str = "# Repo\n\n\
    8. **Observability** — the contract:\n\n\
       | metric | kind | meaning |\n\
       |---|---|---|\n\
       | `foo_total` | counter | things |\n\
       | `stage_x_us` | histogram | traced segment |\n\n\
    9. **Next item** — ends the section.\n";

const STAGE_CALL_SITES: &str = "fn wire(reg: &Registry) {\n\
    reg.counter(\"foo_total\");\n\
    reg.histogram(\"stage_x_us\");\n\
}\n";

const SPAN_STAGES: &str = "pub const STAGE_HISTOGRAMS: [&str; 1] = [\"stage_x_us\"];\n";

#[test]
fn stage_names_in_sync_pass() {
    let got = findings(
        &[
            ("crates/runtime/src/telemetry.rs", STAGE_CONTRACT),
            ("crates/runtime/src/lib.rs", STAGE_CALL_SITES),
            ("crates/obs/src/span.rs", SPAN_STAGES),
        ],
        Some(STAGE_README),
        "metric-contract",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn stage_name_drift_fails_both_directions() {
    // The span array says `stage_y_us`, the contract says `stage_x_us`: one finding
    // for the undocumented array entry, one for the orphaned contract row.
    let drifted = SPAN_STAGES.replace("stage_x_us", "stage_y_us");
    let got = findings(
        &[
            ("crates/runtime/src/telemetry.rs", STAGE_CONTRACT),
            ("crates/runtime/src/lib.rs", STAGE_CALL_SITES),
            ("crates/obs/src/span.rs", &drifted),
        ],
        Some(STAGE_README),
        "metric-contract",
    );
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(
        got.iter()
            .any(|m| m.contains("stage_y_us") && m.contains("absent from the metric contract")),
        "{got:?}"
    );
    assert!(
        got.iter()
            .any(|m| m.contains("stage_x_us") && m.contains("not in STAGE_HISTOGRAMS")),
        "{got:?}"
    );
}
