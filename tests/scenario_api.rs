//! Integration tests of the unified scenario/backend API: JSON round-trips drive
//! identical runs, one scenario runs unmodified on every registered backend, and every
//! strategy of the paper's taxonomy executes on the distributed backend.

use liveupdate_repro::core::strategy::StrategyKind;
use liveupdate_repro::dlrm::embedding::StorageKind;
use liveupdate_repro::net::{all_backends, DistributedBackend};
use liveupdate_repro::scenario::scenario::ScenarioError;
use liveupdate_repro::scenario::{
    AnalyticBackend, BackendKind, ExecutionBackend, Scenario, SyncProvenance,
};

/// A scenario small enough that every backend finishes in a few seconds.
fn tiny(name: &str) -> Scenario {
    let mut s = Scenario::small(name);
    s.horizon.duration_minutes = 20.0;
    s.horizon.requests_per_window = 96;
    s.policy.online_rounds_per_window = 3;
    s.policy.online_batch_size = 48;
    s.realtime.wall_seconds = 0.4;
    s.realtime.target_qps = 500.0;
    s.realtime.update_interval_ms = 50;
    s
}

#[test]
fn scenario_file_round_trip_drives_an_identical_run() {
    let scenario = tiny("round_trip");
    let dir = std::env::temp_dir().join(format!("liveupdate_scenario_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round_trip.json");

    scenario.to_file(&path).unwrap();
    let reloaded = Scenario::from_file(&path).unwrap();
    assert_eq!(scenario, reloaded, "serialize → parse must be the identity");

    // The deterministic analytic backend must produce bit-identical reports for the
    // original and the reloaded description.
    let a = AnalyticBackend.run(&scenario).unwrap();
    let b = AnalyticBackend.run(&reloaded).unwrap();
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shipped_scenario_files_parse_and_validate() {
    for file in [
        "quick_compare.json",
        "criteo_cluster.json",
        "distributed_quick.json",
        "prod_1m.json",
    ] {
        let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
        let scenario = Scenario::from_file(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(scenario.validate().is_ok(), "{file} must validate");
    }
}

#[test]
fn corrupt_scenario_json_is_an_error_never_a_panic() {
    let good = tiny("corrupt").to_json();
    // Truncations at every prefix length: each must return a typed error.
    for cut in 0..good.len() {
        if cut == good.trim_end().len() {
            continue; // the full document (modulo trailing newline) parses fine
        }
        let truncated = &good[..cut];
        if truncated.trim().is_empty() {
            assert!(Scenario::from_json(truncated).is_err());
            continue;
        }
        match Scenario::from_json(truncated) {
            Err(_) => {}
            Ok(_) => panic!("truncation at {cut} unexpectedly parsed"),
        }
    }
    // A nesting bomb that would previously overflow the recursive-descent parser's
    // stack is rejected with a parse error.
    let bomb = format!("{}{}", "{\"workload\":[".repeat(50_000), "1");
    assert!(matches!(
        Scenario::from_json(&bomb),
        Err(ScenarioError::Parse(_))
    ));
    // Wrong-typed and garbage field values are parse errors.
    for (from, to) in [
        ("\"seed\": 7", "\"seed\": \"not-a-number\""),
        ("\"workers\": 2", "\"workers\": -3"),
        ("\"strategy\": \"LiveUpdate\"", "\"strategy\": 42"),
        ("\"row_storage\": \"f64\"", "\"row_storage\": \"f8\""),
    ] {
        let text = good.replace(from, to);
        assert_ne!(text, good, "replacement {from:?} did not apply");
        assert!(
            matches!(Scenario::from_json(&text), Err(ScenarioError::Parse(_))),
            "{to} should be a parse error"
        );
    }
}

#[test]
fn quantized_serving_matches_f64_auc_on_quick_compare() {
    // The shipped comparison scenario, served with f64, f16, and int8 embedding rows:
    // quantized serving must stay within the paper's accuracy envelope (< 0.01 AUC).
    let path = format!(
        "{}/scenarios/quick_compare.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let base = Scenario::from_file(&path).unwrap();
    let f64_report = AnalyticBackend.run(&base).unwrap();
    let f64_auc = f64_report.mean_auc.expect("f64 run reports AUC");
    for kind in [StorageKind::F16, StorageKind::I8] {
        let mut quant = base.clone();
        quant.workload.row_storage = kind;
        quant.workload.hot_cache_fraction = 0.1;
        let report = AnalyticBackend.run(&quant).unwrap();
        let auc = report.mean_auc.expect("quantized run reports AUC");
        let delta = (auc - f64_auc).abs();
        assert!(
            delta < 0.01,
            "{} serving drifted {delta:.4} AUC from f64 ({auc:.4} vs {f64_auc:.4})",
            kind.name()
        );
    }
}

#[test]
fn backend_registry_superset_includes_the_distributed_engine() {
    // Validation gates every backend run identically (shipped files are covered by
    // shipped_scenario_files_parse_and_validate; bounded *runs* on the distributed
    // backend live in tests/distributed_serving.rs). What this pins is the one
    // registry: the analytic timeline first, then the measured TCP tier, so comparison
    // drivers iterate every engine.
    let names: Vec<&str> = all_backends().iter().map(|b| b.name()).collect();
    assert_eq!(names, vec!["analytic", "distributed"]);
}

#[test]
fn one_scenario_runs_unmodified_on_every_backend() {
    let scenario = tiny("all_backends");
    for backend in all_backends() {
        let report = backend
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{} backend failed: {e}", backend.name()));
        assert_eq!(report.scenario, "all_backends");
        assert_eq!(report.strategy, "LiveUpdate");
        assert!(
            report.requests_served > 0,
            "{} served no traffic",
            backend.name()
        );
        assert!(
            report.mean_auc.is_some(),
            "{} reported no accuracy",
            backend.name()
        );
        // The shared metric-name contract: every backend's report answers the same
        // telemetry names, whether scraped from a live registry or synthesized.
        for name in [
            "serve_requests_total",
            "update_rounds_total",
            "publications_total",
        ] {
            assert!(
                report.telemetry.iter().any(|(n, _)| n == name),
                "{} missing telemetry row {name}: {:?}",
                backend.name(),
                report.telemetry
            );
        }
    }
}

#[test]
fn distributed_backend_runs_every_strategy_of_the_taxonomy() {
    for strategy in [
        StrategyKind::NoUpdate,
        StrategyKind::LiveUpdate,
        StrategyKind::LiveUpdateFixedRank { rank: 4 },
        StrategyKind::QuickUpdate { fraction: 0.05 },
        StrategyKind::DeltaUpdate,
    ] {
        let mut scenario = tiny("distributed_smoke").with_strategy(strategy);
        scenario.topology.replicas = 1;
        let name = strategy.name();
        let report = DistributedBackend
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.backend, BackendKind::Distributed);
        assert_eq!(report.sync_provenance, SyncProvenance::MeasuredWire);
        assert_eq!(report.strategy, name);
        assert!(report.requests_served > 0, "{name}: no traffic served");
        assert!(report.qps.unwrap() > 0.0);
        assert!(report.p99_latency_ms.is_some());
        if matches!(strategy, StrategyKind::NoUpdate) {
            assert_eq!(report.sync_bytes, 0, "NoUpdate ships nothing");
            continue;
        }
        assert!(
            report.publications > 0,
            "{name}: no replica published an epoch"
        );
        if strategy.trains_locally() {
            assert_eq!(report.sync_bytes, 0, "{name} ships no parameters");
            assert!(report.lora_memory_bytes.unwrap() > 0);
        } else {
            assert!(
                report.sync_bytes > 0,
                "{name}: a parameter-shipping strategy must move bytes"
            );
        }
    }
}
