//! Integration tests of the TCP serving tier: at N=2 the wire-measured sync traffic
//! must reproduce the paper's cost ordering, at N=4 the sharded replicas, kept
//! consistent by the socket sync, must stay as accurate as one, and every shipped
//! scenario runs on sockets.

use liveupdate_repro::core::strategy::StrategyKind;
use liveupdate_repro::net::DistributedBackend;
use liveupdate_repro::scenario::{auc_agreement, ExecutionBackend, Scenario, SyncProvenance};

fn quick_compare() -> Scenario {
    let path = format!(
        "{}/scenarios/quick_compare.json",
        env!("CARGO_MANIFEST_DIR")
    );
    Scenario::from_file(&path).expect("quick_compare.json loads")
}

/// Convergence at N=4: each replica trains LiveUpdate on a quarter of the routed
/// traffic, and the sparse LoRA sync over the sockets shares what each learned, so the
/// replicas' mean held-out AUC stays within 0.15 of a single replica serving
/// everything.
#[test]
fn distributed_n4_auc_stays_within_tolerance_of_n1() {
    let mut scenario = quick_compare();
    scenario.topology.workers = 1;
    scenario.realtime.wall_seconds = 1.0;
    let run = |replicas: usize| {
        let mut s = scenario.clone();
        s.topology.replicas = replicas;
        DistributedBackend
            .run(&s)
            .unwrap_or_else(|e| panic!("N={replicas}: {e}"))
    };
    let single = run(1);
    let sharded = run(4);
    assert!(
        sharded.lora_sync_bytes > 0,
        "the replicas synced on the wire"
    );
    let delta = auc_agreement(&single, &sharded).expect("both runs report AUC");
    assert!(
        delta < 0.15,
        "N=4 mean AUC {:?} strayed {delta:.4} from N=1 {:?}",
        sharded.mean_auc,
        single.mean_auc,
    );
}

/// Acceptance pin: at N=2 the measured wire bytes preserve the paper's ordering —
/// LiveUpdate ships zero parameter bytes, QuickUpdate ships a fraction, DeltaUpdate
/// ships whole models.
#[test]
fn distributed_n2_wire_bytes_preserve_the_papers_ordering() {
    let mut scenario = quick_compare();
    scenario.topology.replicas = 2;
    scenario.topology.workers = 1;
    scenario.realtime.wall_seconds = 0.8;
    scenario.realtime.target_qps = 400.0;

    let run = |strategy: StrategyKind| {
        DistributedBackend
            .run(&scenario.with_strategy(strategy))
            .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()))
    };
    let live = run(StrategyKind::LiveUpdate);
    let quick = run(StrategyKind::QuickUpdate { fraction: 0.05 });
    let delta = run(StrategyKind::DeltaUpdate);

    for report in [&live, &quick, &delta] {
        assert_eq!(report.sync_provenance, SyncProvenance::MeasuredWire);
        assert!(
            report.requests_served > 0,
            "{}: no traffic served",
            report.strategy
        );
    }
    assert_eq!(
        live.sync_bytes, 0,
        "LiveUpdate must ship zero parameter bytes on the wire"
    );
    assert!(
        quick.sync_bytes > 0,
        "QuickUpdate must ship top-changed rows on the wire"
    );
    assert!(
        quick.sync_bytes < delta.sync_bytes,
        "QuickUpdate ({}B) must ship less than DeltaUpdate ({}B)",
        quick.sync_bytes,
        delta.sync_bytes,
    );
    // LiveUpdate's cross-replica LoRA exchange is real but tiny compared to models.
    assert!(
        live.lora_sync_bytes < delta.sync_bytes,
        "the sparse LoRA exchange ({}B) must undercut full-model shipping ({}B)",
        live.lora_sync_bytes,
        delta.sync_bytes,
    );
}

/// Every shipped scenario file runs on the distributed backend unchanged (bounded to a
/// short wall so CI stays fast). `prod_1m.json` is left out: two Prod-1M replicas peak
/// at ~1.5 GB, and loopbench's `prod_*` workloads serve that geometry.
#[test]
fn shipped_scenario_files_run_on_the_distributed_backend() {
    for file in [
        "quick_compare.json",
        "distributed_quick.json",
        "criteo_cluster.json",
    ] {
        let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
        let mut scenario = Scenario::from_file(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        scenario.realtime.wall_seconds = 0.3;
        scenario.realtime.target_qps = 300.0;
        let report = DistributedBackend
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{file} on distributed: {e}"));
        assert!(report.requests_served > 0, "{file}: no traffic served");
        assert!(report.qps.unwrap() > 0.0, "{file}: no measured throughput");
    }
}
