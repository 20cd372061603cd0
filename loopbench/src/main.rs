//! Loopback serving benchmark.
//!
//! Runs one workload against a real `liveupdate_net::ReplicaServer` (one worker plus
//! the updater thread) over loopback TCP, driven by an open-loop Poisson generator on
//! this thread over two connections, and prints every metric by name with its unit.
//! The last stdout line is a JSON object `{"correct", "attempted", "failed",
//! "metrics"}`.
//!
//! ```text
//! loopbench --workload <small_live|prod_live|prod_static> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics (see README.md). Exit codes: 0 ok, 1 a correctness check failed, 2 bad
//! arguments or set-up failure, 3 the generator fell too far behind (invalid run).

mod drive;
mod layers;
mod report;
mod sys;
mod workload;

use drive::{Pass, PassOpts, CONNECTIONS, NO_REPLY};
use liveupdate::engine::ServingNode;
use liveupdate_dlrm::metrics::Auc;
use liveupdate_dlrm::model::InferenceScratch;
use liveupdate_dlrm::sample::MiniBatch;
use liveupdate_net::client::MultiConnClient;
use liveupdate_net::driver::{join_traces, scrape_cluster};
use liveupdate_net::server::ReplicaServer;
use liveupdate_obs::SpanRing;
use liveupdate_runtime::report::RuntimeReport;
use liveupdate_runtime::runtime::ServingRuntime;
use report::{median, percentile, Metrics};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Spec, Stream, SIM_MINUTES_PER_SECOND, WARMUP};

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Wire ids of the warm-up pass start here, far above any measured id.
const WARMUP_ID_BASE: u64 = 1 << 40;
/// Wire ids of the traced pass (trace run) or the repeated measured pass.
const SECOND_PASS_ID_BASE: u64 = 1 << 32;

/// A measured pass during which the host took more than this share of the VM's CPU
/// is repeated once on a fresh stream, and the less-stolen pass is reported. Runs
/// with 0.2-5% steal measured alike; at 10% the quiet windows' p99 rose by 12%, and
/// whole runs at higher steal read p50 +30% and p99 x3.
const MAX_STEAL_SHARE: f64 = 0.08;

/// Why a run produced no result.
enum Failure {
    /// Bad arguments or a set-up failure (exit 2).
    Setup(String),
    /// The generator fell too far behind to call the run a measurement (exit 3).
    Invalid(String),
}

impl From<String> for Failure {
    fn from(reason: String) -> Self {
        Failure::Setup(reason)
    }
}

/// A send counts as late when it leaves more than this after its due instant.
const LATE_NS: u64 = 1_000_000;
/// The run is invalid when more than this share of sends is late, or the
/// 99th-percentile send lag exceeds `MAX_LAG_P99_NS`. A sleeping loop with nothing
/// else to do already sends 0.4-6% of wakeups over 1 ms late on a 2-vCPU VM (p99
/// up to 5 ms, host preemption), so the limits sit well above that floor: they flag a
/// generator that cannot keep up, not a noisy host.
const MAX_LATE_FRAC: f64 = 0.5;
const MAX_LAG_P99_NS: u64 = 100_000_000;

/// Largest accepted difference between a snapshot prediction and
/// `ServingNode::predict` for the same sample (summation-order rounding only).
const PROBE_TOLERANCE: f64 = 1e-12;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::spec(&name).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 || seconds > 60 {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A served replica after set-up: connected, warmed up, ready for the first measured
/// request.
struct Live {
    server: ReplicaServer,
    client: MultiConnClient,
    measured: Stream,
    probe: MiniBatch,
    traffic: workload::Traffic,
    next_minutes: f64,
    updater_tid: u32,
    /// Wall time of `ReplicaServer::start`, which publishes epoch 0.
    start_publish_ms: f64,
}

/// Build the inputs from the seed, start the replica, connect, and serve the warm-up
/// stream to completion. Returns the replica and the set-up time in seconds.
fn set_up(args: &Args, trace_rate: f64) -> Result<(Live, f64), String> {
    let spec = &args.spec;
    let started = Instant::now();
    let inputs = workload::generate(spec, args.seed, args.seconds as f64);
    let publish = Instant::now();
    let server = ReplicaServer::start(
        inputs.node,
        spec.runtime_config(trace_rate),
        spec.update_interval(),
        spec.policy(),
    )
    .map_err(|e| format!("replica start: {e}"))?;
    let start_publish_ms = publish.elapsed().as_secs_f64() * 1e3;
    let warm_up = || -> Result<(MultiConnClient, u32), String> {
        let mut client = MultiConnClient::connect(server.addr(), CONNECTIONS)
            .map_err(|e| format!("connect: {e}"))?;
        let updater_tid = sys::thread_id_named("lu-updater")?;
        let warm = drive::run_pass(
            &mut client,
            &inputs.warmup,
            &PassOpts {
                id_base: WARMUP_ID_BASE,
                poll_stats: false,
                ring: None,
                updater_tid: None,
                window_ns: spec.window_ns(),
            },
        );
        if warm.replies != inputs.warmup.len() as u64 || warm.invalid != 0 {
            return Err(format!(
                "warm-up: {} of {} answered, {} shed, {} invalid",
                warm.replies,
                inputs.warmup.len(),
                warm.shed,
                warm.invalid
            ));
        }
        Ok((client, updater_tid))
    };
    let (client, updater_tid) = match warm_up() {
        Ok(connected) => connected,
        Err(reason) => {
            let _ = server.shutdown();
            return Err(reason);
        }
    };
    let live = Live {
        server,
        client,
        measured: inputs.measured,
        probe: inputs.probe,
        traffic: inputs.traffic,
        next_minutes: inputs.next_minutes,
        updater_tid,
        start_publish_ms,
    };
    Ok((live, started.elapsed().as_secs_f64()))
}

/// The correctness gate of one run. Every failed check is a line in `failures`.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every request accounted for, every reply valid.
    fn pass(&mut self, label: &str, pass: &Pass, n: usize) {
        self.require(pass.sent == n as u64, || {
            format!("{label}: sent {} of {n}", pass.sent)
        });
        self.require(pass.replies + pass.shed == pass.sent, || {
            format!(
                "{label}: sent {} != replied {} + shed {} ({} lost)",
                pass.sent,
                pass.replies,
                pass.shed,
                unanswered(pass)
            )
        });
        self.require(pass.invalid == 0, || {
            format!(
                "{label}: {} invalid replies (unknown/repeated id or prediction outside (0,1))",
                pass.invalid
            )
        });
    }

    /// The returned node's fresh snapshot serves the probe exactly as the node would,
    /// and matches the last published snapshot's checksum.
    ///
    /// The snapshot serves through the allocation-free scratch path, which the model
    /// documents as equal to `DlrmModel::predict` "up to summation order". So the
    /// snapshot must match the node model's own scratch path bit for bit (that is
    /// where a wrong hot-row-cache row would show), and `ServingNode::predict` to
    /// within `PROBE_TOLERANCE`.
    fn node(&mut self, node: &ServingNode, probe: &MiniBatch, report: &RuntimeReport) {
        let snapshot = node.snapshot();
        let (_, served) = snapshot.serve_batch_with_predictions(probe);
        let mut scratch = InferenceScratch::default();
        let mut not_identical = 0usize;
        let mut max_diff = 0.0f64;
        for (sample, &p) in probe.iter().zip(&served) {
            let exact = node
                .serving_model()
                .predict_with_scratch(sample, &mut scratch);
            not_identical += usize::from(exact.to_bits() != p.to_bits());
            max_diff = max_diff.max((node.predict(sample) - p).abs());
        }
        println!(
            "probe: {} samples, {not_identical} differ from the scratch path, max |snapshot - ServingNode::predict| = {max_diff:.3e}",
            probe.len()
        );
        self.require(not_identical == 0, || {
            format!("probe: {not_identical} of {} snapshot predictions differ from the node's scratch path", probe.len())
        });
        self.require(max_diff <= PROBE_TOLERANCE, || {
            format!("probe: snapshot differs from ServingNode::predict by {max_diff:e} (limit {PROBE_TOLERANCE:e})")
        });
        self.require(snapshot.verify_checksum(), || {
            "fresh snapshot fails verify_checksum".into()
        });
        let last = report.updater.published.last().map(|&(_, c)| c);
        self.require(last == Some(snapshot.checksum()), || {
            format!(
                "last published checksum {last:?} != final node checksum {}",
                snapshot.checksum()
            )
        });
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The generator's lateness: share of sends more than 1 ms late, and the 99th
/// percentile send lag in ns.
fn lateness(pass: &Pass) -> (f64, u64) {
    let late = pass.lateness_ns.iter().filter(|&&l| l > LATE_NS).count();
    let frac = late as f64 / pass.lateness_ns.len().max(1) as f64;
    (frac, percentile(&pass.lateness_ns, 0.99).unwrap_or(0))
}

fn generator_valid(pass: &Pass) -> Result<(), Failure> {
    let (frac, p99) = lateness(pass);
    if frac > MAX_LATE_FRAC || p99 > MAX_LAG_P99_NS {
        return Err(Failure::Invalid(format!(
            "generator fell behind: {:.2}% of sends >1 ms late (limit {:.0}%), send lag p99 {:.3} ms (limit {:.0} ms)",
            frac * 100.0,
            MAX_LATE_FRAC * 100.0,
            ms(p99),
            ms(MAX_LAG_P99_NS)
        )));
    }
    Ok(())
}

/// Publication instant of each epoch, in epoch order: the median of its estimates.
///
/// The replica reads `epoch_age_us` and `snapshot_epoch` one after the other, so a
/// publication landing between the two reads pairs the new epoch with the old age;
/// the median of an epoch's estimates (one per 10 ms poll) discards that outlier and
/// the reply-transit jitter of the others.
fn publication_instants(pass: &Pass) -> Vec<i64> {
    pass.publications
        .values()
        .filter_map(|estimates| median(estimates))
        .collect()
}

/// Age of the newest published snapshot at each reply, in ms, as `(p50, p99, n)`:
/// the median over all replies, and the median over the pass's whole seconds (by
/// reply time) of each second's 99th percentile.
///
/// The p99 of a whole run is set by its one or two longest epochs — one host stall of
/// the updater moved it by 40% between otherwise equal runs — while each second's p99
/// is the length of the epochs ending in it.
fn epoch_ages_ms(pass: &Pass) -> (f64, f64, usize) {
    let published = publication_instants(pass);
    let mut seconds: Vec<Vec<f64>> = Vec::new();
    let mut all = Vec::new();
    for &r in pass.recv_ns.iter().filter(|&&r| r != NO_REPLY) {
        let newest = published.partition_point(|&p| p <= r as i64);
        if let Some(k) = newest.checked_sub(1) {
            let age = (r as i64 - published[k]) as f64 / 1e6;
            let second = (r / 1_000_000_000) as usize;
            if seconds.len() <= second {
                seconds.resize(second + 1, Vec::new());
            }
            seconds[second].push(age);
            all.push(age);
        }
    }
    let p99s: Vec<f64> = seconds.iter().filter_map(|s| percentile(s, 0.99)).collect();
    (
        median(&all).unwrap_or(f64::NAN),
        median(&p99s).unwrap_or(f64::NAN),
        all.len(),
    )
}

/// Windows kept when fewer are quiet.
const MIN_KEPT_WINDOWS: usize = 10;

/// A window is quiet when, besides no host steal, the generator sent its requests
/// with a 99th-percentile lag under this: its own thread was not held up either.
const QUIET_LAG_NS: u64 = 500_000;

/// The windows whose latencies a pass reports: the quiet ones — the host's steal
/// counter did not move and the generator sent on time — or, when fewer than
/// `MIN_KEPT_WINDOWS` are quiet, the least disturbed ones by (steal, send lag).
///
/// On a shared 2-vCPU VM the host preempts the vCPUs for 5-20 ms at a time. A window
/// with steal has a p99 of 5-10 ms against about 1.5 ms without, and the share of such
/// windows swings from a tenth to nearly all of them between runs minutes apart, so
/// whole-run percentiles measure the neighbours more than the program. The steal
/// counter ticks in 10 ms steps, so the generator's own send lag catches the shorter
/// stalls it misses.
fn kept_windows(pass: &Pass, stream: &Stream) -> Vec<usize> {
    let mut lags: Vec<Vec<u64>> = vec![Vec::new(); pass.marks.len().saturating_sub(1)];
    for (i, &lag) in pass.lateness_ns.iter().enumerate() {
        if let Some(w) = lags.get_mut((stream.due_ns[i] / pass.window_ns) as usize) {
            w.push(lag);
        }
    }
    // (steal ticks, send-lag p99, window) of every window that saw requests.
    let mut disturbance: Vec<(u64, u64, usize)> = pass
        .marks
        .windows(2)
        .zip(&lags)
        .enumerate()
        .filter_map(|(k, (m, lag))| {
            percentile(lag, 0.99).map(|lag_p99| (m[1].steal - m[0].steal, lag_p99, k))
        })
        .collect();
    let quiet: Vec<usize> = disturbance
        .iter()
        .filter(|&&(steal, lag, _)| steal == 0 && lag < QUIET_LAG_NS)
        .map(|&(_, _, k)| k)
        .collect();
    if quiet.len() >= MIN_KEPT_WINDOWS {
        return quiet;
    }
    disturbance.sort_unstable();
    let mut kept: Vec<usize> = disturbance
        .iter()
        .take(MIN_KEPT_WINDOWS)
        .map(|&(_, _, k)| k)
        .collect();
    kept.sort_unstable();
    kept
}

/// The `q` percentile latency of a pass in ms: the median over the kept windows (by
/// due time) of each window's percentile. Also returns the number of kept windows,
/// the number of windows, and the smallest kept window's request count.
fn windowed_ms(pass: &Pass, stream: &Stream, q: f64) -> (f64, usize, usize, usize) {
    let mut windows: Vec<Vec<u64>> = vec![Vec::new(); pass.marks.len().saturating_sub(1)];
    for (i, &l) in pass.latency_ns.iter().enumerate() {
        if let Some(w) = windows.get_mut((stream.due_ns[i] / pass.window_ns) as usize) {
            if l != NO_REPLY {
                w.push(l);
            }
        }
    }
    let kept = kept_windows(pass, stream);
    let per_window: Vec<f64> = kept
        .iter()
        .filter_map(|&k| percentile(&windows[k], q))
        .map(ms)
        .collect();
    let smallest = kept.iter().map(|&k| windows[k].len()).min().unwrap_or(0);
    (
        median(&per_window).unwrap_or(f64::NAN),
        kept.len(),
        windows.len(),
        smallest,
    )
}

/// The updater thread's CPU share as the median over the pass's whole seconds, the
/// number of those seconds, and the generator's CPU share over the whole pass.
fn cpu_fracs(pass: &Pass) -> (f64, usize, f64) {
    let share = |a: &drive::Mark, b: &drive::Mark, cpu: fn(&drive::Mark) -> u64| {
        (cpu(b) - cpu(a)) as f64 / (b.wall - a.wall).max(1) as f64
    };
    let per_window = (1_000_000_000 / pass.window_ns) as usize;
    let seconds: Vec<f64> = pass
        .marks
        .iter()
        .step_by(per_window)
        .collect::<Vec<_>>()
        .windows(2)
        .map(|m| share(m[0], m[1], |m| m.updater))
        .collect();
    let generator = match (pass.marks.first(), pass.marks.last()) {
        (Some(a), Some(b)) => share(a, b, |m| m.generator),
        _ => f64::NAN,
    };
    (
        median(&seconds).unwrap_or(f64::NAN),
        seconds.len(),
        generator,
    )
}

struct Outcome {
    metrics: Metrics,
    checks: Checks,
    attempted: u64,
    failed: u64,
}

/// Requests that got neither a reply nor a shed notice.
fn unanswered(pass: &Pass) -> u64 {
    pass.sent.saturating_sub(pass.replies + pass.shed)
}

/// Shed, unanswered and invalid replies: the numerator of the error rate.
fn failed(pass: &Pass) -> u64 {
    pass.shed + unanswered(pass) + pass.invalid
}

/// The untraced run: set up `SETUP_REPS` times, serve the measured stream once, and
/// report every end-to-end metric.
fn untraced(args: &Args) -> Result<Outcome, Failure> {
    let spec = &args.spec;
    let mut setup_s = Vec::new();
    let mut publish_ms = Vec::new();
    let mut kept: Option<Live> = None;
    for rep in 0..SETUP_REPS {
        // Shut the previous replica down first: one replica (and one `lu-updater`
        // thread) at a time.
        if let Some(previous) = kept.take() {
            drop(previous.client);
            let _ = previous.server.shutdown();
        }
        let (live, secs) = set_up(args, 0.0)?;
        setup_s.push(secs);
        publish_ms.push(live.start_publish_ms);
        println!(
            "set-up {}: {secs:.3} s (epoch-0 publication {:.1} ms)",
            rep + 1,
            live.start_publish_ms
        );
        kept = Some(live);
    }
    let mut live = kept.expect("SETUP_REPS is positive");
    let opts = |id_base| PassOpts {
        id_base,
        poll_stats: true,
        ring: None,
        updater_tid: Some(live.updater_tid),
        window_ns: spec.window_ns(),
    };
    let mut checks = Checks::default();
    let mut pass = drive::run_pass(&mut live.client, &live.measured, &opts(0));
    let mut stream = live.measured;
    let (mut attempted, mut failed_total) = (pass.sent, failed(&pass));
    if pass.steal_share() > MAX_STEAL_SHARE {
        println!(
            "measured pass: the host took {:.1}% of this VM's CPU (limit {:.0}%); repeating it on a fresh stream",
            pass.steal_share() * 100.0,
            MAX_STEAL_SHARE * 100.0
        );
        let again = live
            .traffic
            .stream(spec.rate, args.seconds as f64, live.next_minutes);
        let second = drive::run_pass(&mut live.client, &again, &opts(SECOND_PASS_ID_BASE));
        attempted += second.sent;
        failed_total += failed(&second);
        let keep_second = second.steal_share() < pass.steal_share();
        println!(
            "repeated pass: the host took {:.1}%; reporting the {} pass",
            second.steal_share() * 100.0,
            if keep_second { "repeated" } else { "first" }
        );
        if keep_second {
            checks.pass("discarded first pass", &pass, stream.len());
            (pass, stream) = (second, again);
        } else {
            checks.pass("discarded repeated pass", &second, again.len());
        }
    }
    drop(live.client);
    let (report, node) = live.server.shutdown();
    generator_valid(&pass)?;

    checks.pass("measured", &pass, stream.len());
    checks.node(&node, &live.probe, &report);

    let (p50, kept, windows, smallest_window) = windowed_ms(&pass, &stream, 0.5);
    let (p99, ..) = windowed_ms(&pass, &stream, 0.99);
    let (updater_cpu, cpu_seconds, generator_cpu) = cpu_fracs(&pass);
    let (age_p50, age_p99, age_n) = epoch_ages_ms(&pass);
    let labels = stream.labels();
    let mut auc = Auc::new();
    for (i, &p) in pass.predictions.iter().enumerate() {
        if pass.latency_ns[i] != NO_REPLY {
            auc.record(p, labels[i]);
        }
    }
    let blocks = &report.updater.round_times_ms;
    let before = pass
        .blocks_before
        .map_or(0, |c| c as usize)
        .min(blocks.len());
    let after = pass
        .blocks_after
        .map_or(blocks.len(), |c| c as usize)
        .clamp(before, blocks.len());
    let measured_blocks = &blocks[before..after];
    let epochs_in_window = publication_instants(&pass)
        .iter()
        .filter(|&&p| p >= 0)
        .count();
    let (late_frac, lag_p99) = lateness(&pass);

    println!(
        "requests: sent {} replied {} shed {} unanswered {} invalid {}; error_rate {:.6}",
        pass.sent,
        pass.replies,
        pass.shed,
        unanswered(&pass),
        pass.invalid,
        failed(&pass) as f64 / pass.sent.max(1) as f64
    );
    println!(
        "generator: {:.3}% of sends >1 ms late, send lag p99 {:.1} us, CPU {:.1}% of a core; epochs published in window: {epochs_in_window}; update blocks in window: {}",
        late_frac * 100.0,
        lag_p99 as f64 / 1e3,
        generator_cpu * 100.0,
        measured_blocks.len()
    );

    let mut m = Metrics::default();
    m.add(
        "setup_s",
        median(&setup_s).unwrap_or(f64::NAN),
        "s",
        format!("median of {} set-ups {setup_s:.3?}", setup_s.len()),
    );
    let window_note = format!(
        "n={} replies; median over {kept} kept of {windows} {} ms windows, >= {smallest_window} requests each",
        pass.replies,
        spec.window_ns() / 1_000_000
    );
    m.add("p50_ms", p50, "ms", window_note.clone());
    m.add("p99_ms", p99, "ms", window_note);
    let na = if spec.live {
        ""
    } else {
        "n/a (no updates): age of epoch 0, "
    };
    m.add(
        "epoch_age_p50_ms",
        age_p50,
        "ms",
        format!("{na}median over n={age_n} replies"),
    );
    m.add(
        "epoch_age_p99_ms",
        age_p99,
        "ms",
        format!("{na}median over 1-s windows of each window's p99, n={age_n}"),
    );
    if spec.live {
        m.add(
            "update_lag_p50_ms",
            median(measured_blocks).unwrap_or(f64::NAN),
            "ms",
            format!(
                "update block start to publication, n={}",
                measured_blocks.len()
            ),
        );
    } else {
        m.add(
            "update_lag_p50_ms",
            median(&publish_ms).unwrap_or(f64::NAN),
            "ms",
            format!(
                "n/a (no update blocks): epoch-0 publication at replica start, median of {}",
                publish_ms.len()
            ),
        );
    }
    m.add(
        "update_cpu_frac",
        updater_cpu,
        "ratio",
        format!(
            "updater thread CPU / wall, median over {cpu_seconds} 1-s windows{}",
            if spec.live { "" } else { " (ingest only)" }
        ),
    );
    m.add(
        "auc",
        auc.value().unwrap_or(f64::NAN),
        "ratio",
        format!("served predictions vs labels, n={}", auc.len()),
    );
    m.add(
        "rss_peak_mb",
        sys::peak_rss_mb()?,
        "MB",
        "VmHWM of the benchmark process (includes the replica)".into(),
    );
    Ok(Outcome {
        metrics: m,
        checks,
        attempted,
        failed: failed_total,
    })
}

/// A telemetry row by name, NaN when the replica did not report it.
fn stat(rows: &[(String, f64)], name: &str) -> f64 {
    drive::stat(rows, name).unwrap_or(f64::NAN)
}

/// The traced run: the measured stream split in three — an untraced and a traced
/// pass over the wire, then an in-process pass — followed by direct timings of each
/// layer's public functions.
fn traced(args: &Args) -> Result<Outcome, Failure> {
    let spec = &args.spec;
    let (mut live, secs) = set_up(args, 1.0)?;
    println!("set-up: {secs:.3} s");
    let mut parts = live.measured.split(3).into_iter();
    let (plain_s, traced_s, local_s) = (
        parts.next().expect("three parts"),
        parts.next().expect("three parts"),
        parts.next().expect("three parts"),
    );
    let plain = drive::run_pass(
        &mut live.client,
        &plain_s,
        &PassOpts {
            id_base: 0,
            poll_stats: false,
            ring: None,
            updater_tid: None,
            window_ns: spec.window_ns(),
        },
    );
    let ring = Arc::new(SpanRing::new(8192));
    let traced = drive::run_pass(
        &mut live.client,
        &traced_s,
        &PassOpts {
            id_base: SECOND_PASS_ID_BASE,
            poll_stats: false,
            ring: Some(&ring),
            updater_tid: None,
            window_ns: spec.window_ns(),
        },
    );
    let scrape = scrape_cluster(&[live.server.addr()]).map_err(|e| format!("trace dump: {e}"))?;
    drop(live.client);
    let (report, node) = live.server.shutdown();
    generator_valid(&plain)?;
    generator_valid(&traced)?;

    let mut checks = Checks::default();
    checks.pass("untraced", &plain, plain_s.len());
    checks.pass("traced", &traced, traced_s.len());
    checks.node(&node, &live.probe, &report);

    let replica = scrape.per_replica.into_iter().next().unwrap_or_default();
    let joined = join_traces(&traced.generator_spans, &[replica.spans]);
    let net_self_us: Vec<f64> = joined
        .iter()
        .map(|t| t.driver_span.total_us() as f64 - t.replica_span.total_us() as f64)
        .collect();

    let runtime = ServingRuntime::start_with_policy(
        node,
        spec.runtime_config(0.0),
        spec.update_interval(),
        spec.policy(),
    );
    let (rtt_ns, local_shed) = drive::run_in_process(&runtime, &local_s);
    let (_, mut node) = runtime.finish();
    checks.require(
        rtt_ns.len() as u64 + local_shed == local_s.len() as u64 && local_shed == 0,
        || {
            format!(
                "in-process: {} of {} answered, {local_shed} shed",
                rtt_ns.len(),
                local_s.len()
            )
        },
    );

    let (plain_p50, ..) = windowed_ms(&plain, &plain_s, 0.5);
    let (traced_p50, ..) = windowed_ms(&traced, &traced_s, 0.5);
    let (late_frac, lag_p99) = lateness(&plain);
    let rtt_us: Vec<f64> = rtt_ns.iter().map(|&n| n as f64 / 1e3).collect();

    let mut m = Metrics::default();
    let now_minutes =
        spec.warmup_minutes + (WARMUP.as_secs_f64() + args.seconds as f64) * SIM_MINUTES_PER_SECOND;
    layers::measure(
        spec,
        &mut node,
        &live.probe,
        report.mean_batch_size(),
        now_minutes,
        &mut m,
    );
    let rows = &replica.metrics;
    m.add(
        "runtime.rtt_p50_us",
        median(&rtt_us).unwrap_or(f64::NAN),
        "us",
        format!(
            "in-process submit_routed_with_reply at {} req/s, n={}",
            spec.rate,
            rtt_us.len()
        ),
    );
    m.add(
        "runtime.rtt_p99_us",
        percentile(&rtt_us, 0.99).unwrap_or(f64::NAN),
        "us",
        format!("n={}", rtt_us.len()),
    );
    m.add(
        "runtime.batch_mean",
        report.mean_batch_size(),
        "count",
        format!("requests per served batch over {} batches", report.batches),
    );
    m.add(
        "runtime.queue_wait_p50_us",
        stat(rows, "stage_queue_wait_us_p50"),
        "us",
        format!(
            "stage_queue_wait_us histogram, n={}",
            stat(rows, "stage_queue_wait_us_count")
        ),
    );
    m.add(
        "runtime.batch_wait_p50_us",
        stat(rows, "stage_batch_wait_us_p50"),
        "us",
        format!(
            "stage_batch_wait_us histogram, n={}",
            stat(rows, "stage_batch_wait_us_count")
        ),
    );
    m.add(
        "runtime.serve_p50_us",
        stat(rows, "stage_serve_us_p50"),
        "us",
        format!(
            "stage_serve_us histogram, n={}",
            stat(rows, "stage_serve_us_count")
        ),
    );
    m.add(
        "net.self_p50_us",
        median(&net_self_us).unwrap_or(f64::NAN),
        "us",
        format!(
            "generator span minus joined replica span, n={} joined traces",
            joined.len()
        ),
    );
    m.add(
        "loadgen.late_frac",
        late_frac,
        "ratio",
        "share of sends >1 ms after their due instant (untraced pass)".into(),
    );
    m.add(
        "loadgen.lag_p99_us",
        lag_p99 as f64 / 1e3,
        "us",
        "99th percentile send lag (untraced pass)".into(),
    );
    m.add(
        "trace.overhead_p50",
        traced_p50 / plain_p50,
        "ratio",
        format!("traced p50 {traced_p50:.4} ms / untraced p50 {plain_p50:.4} ms"),
    );
    if !spec.live {
        println!("note: the prod_static updater is ingest-only; engine.update_round_ms, engine.touched_rows, engine.snapshot_* and epoch.publish_us are direct calls, not on its serving path");
    }
    Ok(Outcome {
        metrics: m,
        checks,
        attempted: plain.sent + traced.sent + local_s.len() as u64,
        failed: failed(&plain) + failed(&traced) + local_s.len() as u64 - rtt_ns.len() as u64,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    sys::tighten_timer_slack();
    let spec = &args.spec;
    println!("workload {}: {}", spec.name, spec.why);
    let model = spec.dlrm_config();
    println!(
        "seed {} | {} s | trace {} | {} req/s open-loop Poisson, {} connections | {} x {} rows, d={}, {} rows | {} | {} cores",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.rate,
        CONNECTIONS,
        model.table_sizes.len(),
        model.table_sizes[0],
        model.embedding_dim,
        spec.storage.name(),
        if spec.live {
            "LiveUpdate, 1 round of 64 per 100 ms"
        } else {
            "ingest-only updater"
        },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(Failure::Invalid(reason)) => {
            eprintln!("loopbench: INVALID RUN: {reason}");
            return ExitCode::from(3);
        }
        Err(Failure::Setup(reason)) => {
            eprintln!("loopbench: {reason}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics.0 {
        let ok = m.value.is_finite();
        outcome
            .checks
            .require(ok, || format!("metric {} is not a number", m.name));
    }
    println!("metrics:");
    outcome.metrics.print();
    let correct = outcome.checks.failures.is_empty();
    for f in &outcome.checks.failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "correctness: {}",
        if correct {
            "all checks passed"
        } else {
            "FAILED"
        }
    );
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
