//! Fig. 17 — memory optimization, two halves:
//!
//! 1. LoRA footprint: fixed rank vs dynamic rank adaptation vs dynamic rank plus
//!    usage-based pruning (the paper reports a combined 97–99 % reduction).
//! 2. Embedding storage at production geometry (Prod-1M, 2 × 10⁶ rows × d = 16): f64 vs
//!    f16 vs int8 resident bytes, naive allocating f64 inference vs the quantized
//!    hot-row-cached scratch path, and the AUC cost of serving quantized. The QPS /
//!    byte-ratio / AUC-delta numbers are printed as rows; the target writes no file.

use liveupdate::config::LiveUpdateConfig;
use liveupdate::engine::ServingNode;
use liveupdate_bench::{accuracy_config, black_box, header};
use liveupdate_dlrm::embedding::StorageKind;
use liveupdate_dlrm::metrics::Auc;
use liveupdate_dlrm::model::DlrmModel;
use liveupdate_dlrm::sample::MiniBatch;
use liveupdate_workload::datasets::DatasetPreset;
use liveupdate_workload::synthetic::SyntheticWorkload;
use std::time::Instant;

/// Memory (bytes) of a LoRA table at rank `k` when every row is materialised.
fn full_table_lora_bytes(rows: usize, dim: usize, rank: usize) -> usize {
    (rows * rank + rank * dim) * std::mem::size_of::<f64>()
}

/// Requests to serve per timed pass of the production-geometry section. Overridable via
/// `LIVEUPDATE_PROD_REQUESTS`; `0` skips the section entirely.
fn prod_requests() -> usize {
    std::env::var("LIVEUPDATE_PROD_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

/// Best-of-N wall-clock throughput of one serve pass: the container this runs in shares
/// its host with noisy neighbours, so a single pass can be several times slower than the
/// machine's real rate; the fastest of a few passes approximates the uncontended number
/// for both contenders equally.
fn best_qps(requests: usize, passes: usize, mut serve: impl FnMut()) -> f64 {
    let mut best: f64 = 0.0;
    for _ in 0..passes {
        let start = Instant::now();
        serve();
        best = best.max(requests as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// The production-geometry half: quantized storage and the cache-aware serve path at a
/// table size (256 MB of f64 rows) far beyond any cache a serving core can call its own.
/// Requests use a production pooling fanout (multi-hot up to 64 ids per table — the
/// gather-bound regime DeepRecSys describes), where the per-lookup `Vec` allocations and
/// inline bookkeeping of the naive path dominate.
fn production_geometry(requests: usize) {
    let spec = DatasetPreset::Prod1M.spec();
    let seed = 71;
    let mut wcfg = spec.workload_config(seed);
    wcfg.max_multi_hot = 64;
    println!(
        "\nproduction geometry {} ({} tables x {} rows, d = {}, multi-hot <= {}), {} requests per pass:",
        DatasetPreset::Prod1M.name(),
        spec.sim_num_tables,
        spec.sim_table_size,
        spec.sim_embedding_dim,
        wcfg.max_multi_hot,
        requests
    );
    let mut workload = SyntheticWorkload::new(wcfg);
    let model = DlrmModel::new(spec.dlrm_config(), seed);
    let f64_bytes = model.embedding_memory_bytes();

    // One request stream, generated once and replayed by both serve paths, plus a
    // held-out labelled batch for the accuracy comparison.
    let batch_size = 256;
    let batches: Vec<MiniBatch> = (0..requests.div_ceil(batch_size))
        .map(|i| workload.batch_at(i as f64 * 0.01, batch_size.min(requests - i * batch_size)))
        .collect();
    let served: usize = batches.iter().map(MiniBatch::len).sum();
    let eval = workload.batch_at(0.0, 4096);

    // Naive path: the serve loop as it stood before the storage/kernel work — per-sample
    // allocating `predict` on f64 rows, with the mutating per-request bookkeeping
    // (access histograms, retention-buffer clones) inline on the serve path.
    let mut naive = ServingNode::new(model.clone(), LiveUpdateConfig::default());
    let naive_qps = best_qps(served, 3, || {
        for (i, batch) in batches.iter().enumerate() {
            for sample in batch.iter() {
                black_box(naive.predict(black_box(sample)));
            }
            naive.ingest_batch(i as f64 * 0.01, batch);
        }
    });
    let mut auc = Auc::new();
    for sample in eval.iter() {
        auc.record(model.predict(sample), sample.label);
    }
    let f64_auc = auc.value().expect("eval batch has both labels");

    // f16 resident bytes, measured on a converted copy (byte accounting only).
    let f16_bytes = {
        let mut half = model.clone();
        half.convert_embedding_storage(StorageKind::F16);
        half.embedding_memory_bytes()
    };

    // Optimized path: int8 serving rows plus the Zipf-head hot-row cache, served through
    // the allocation-free scratch pipeline of an immutable snapshot with every mutating
    // side effect off the serve path (the runtime's updater applies them between rounds).
    let live_cfg = LiveUpdateConfig {
        serving_storage: StorageKind::I8,
        hot_cache_fraction: 0.01,
        ..LiveUpdateConfig::default()
    };
    let mut node = ServingNode::new(model, live_cfg);
    node.serve_batch(0.0, &eval); // record accesses so the cache sees the Zipf head
    let snapshot = node.snapshot();
    let i8_bytes = snapshot.serving_model().embedding_memory_bytes();
    let optimized_qps = best_qps(served, 3, || {
        for batch in &batches {
            black_box(snapshot.serve_batch(black_box(batch)));
        }
    });
    let (i8_auc, _) = snapshot.evaluate(&eval);
    let i8_auc = i8_auc.expect("eval batch has both labels");

    let ratio = |bytes: usize| f64_bytes as f64 / bytes as f64;
    println!("{:<34} {:>14} {:>18}", "storage", "bytes", "ratio vs f64");
    println!("{:<34} {:>14} {:>17.2}x", "f64 rows", f64_bytes, 1.0);
    println!(
        "{:<34} {:>14} {:>17.2}x",
        "f16 rows",
        f16_bytes,
        ratio(f16_bytes)
    );
    println!(
        "{:<34} {:>14} {:>17.2}x",
        "int8 rows (per-row scale)",
        i8_bytes,
        ratio(i8_bytes)
    );
    println!(
        "hot-row cache: {} rows, {} bytes (top {:.1}% of the access CDF)",
        snapshot.hot_rows().cached_rows(),
        snapshot.hot_rows().memory_bytes(),
        100.0 * node.config().hot_cache_fraction
    );
    println!(
        "naive f64 serve {:.0} req/s; int8 + hot cache + scratch {:.0} req/s ({:.1}x); \
         AUC {:.4} -> {:.4} (delta {:.4})",
        naive_qps,
        optimized_qps,
        optimized_qps / naive_qps,
        f64_auc,
        i8_auc,
        (i8_auc - f64_auc).abs()
    );
}

fn main() {
    header(
        "Figure 17",
        "LoRA memory: fixed rank vs dynamic rank vs dynamic rank + pruning; embedding storage at production geometry",
    );
    for preset in DatasetPreset::accuracy() {
        let cfg = accuracy_config(preset, 71);
        let spec = preset.spec();
        let model = DlrmModel::new(cfg.dlrm.clone(), cfg.seed);
        let mut workload = SyntheticWorkload::new(cfg.workload.clone());

        // Run the LiveUpdate node for a while so the dynamic rank and the pruning converge.
        let live_cfg = LiveUpdateConfig {
            adaptation_interval_steps: 16,
            ..LiveUpdateConfig::default()
        };
        let mut node = ServingNode::new(model, live_cfg);
        for window in 0..8 {
            let t = window as f64 * 5.0;
            let batch = workload.batch_at(t, cfg.requests_per_window);
            node.serve_batch(t, &batch);
            for _ in 0..cfg.online_rounds_per_window {
                node.online_update_round(t, cfg.online_batch_size);
            }
        }

        let rows = spec.sim_table_size;
        let dim = spec.sim_embedding_dim;
        let tables = spec.sim_num_tables;
        let fixed16: usize = (0..tables)
            .map(|_| full_table_lora_bytes(rows, dim, 16))
            .sum();
        let fixed64: usize = (0..tables)
            .map(|_| full_table_lora_bytes(rows, dim, 64))
            .sum();
        let dynamic_only: usize = node
            .current_ranks()
            .iter()
            .map(|&r| full_table_lora_bytes(rows, dim, r))
            .sum();
        let dynamic_pruned = node.lora_memory_bytes();

        println!(
            "\ndataset {} ({} tables x {} rows, d = {}):",
            preset.name(),
            tables,
            rows,
            dim
        );
        println!(
            "{:<34} {:>14} {:>22}",
            "configuration", "bytes", "reduction vs rank-64"
        );
        let reduction = |bytes: usize| 100.0 * (1.0 - bytes as f64 / fixed64 as f64);
        println!(
            "{:<34} {:>14} {:>21.1}%",
            "fixed rank 64 (all rows)", fixed64, 0.0
        );
        println!(
            "{:<34} {:>14} {:>21.1}%",
            "fixed rank 16 (all rows)",
            fixed16,
            reduction(fixed16)
        );
        println!(
            "{:<34} {:>14} {:>21.1}%",
            format!("dynamic rank (ranks {:?})", node.current_ranks()),
            dynamic_only,
            reduction(dynamic_only)
        );
        println!(
            "{:<34} {:>14} {:>21.1}%",
            "dynamic rank + pruning (active rows)",
            dynamic_pruned,
            reduction(dynamic_pruned)
        );
        println!(
            "paper check: combined reduction {:.1}% (paper reports 97-99%); LoRA is {:.2}% of the base EMT",
            reduction(dynamic_pruned),
            node.lora_memory_fraction() * 100.0
        );
    }

    let requests = prod_requests();
    if requests > 0 {
        production_geometry(requests);
    } else {
        println!("\nproduction geometry section skipped (LIVEUPDATE_PROD_REQUESTS=0)");
    }
}
