//! Connection-churn and pipelining stress tests for the TCP tier.
//!
//! These pin the event loop's connection lifecycle:
//! * churn (many short-lived connections, sequential and concurrent) leaves the server
//!   with zero open connections;
//! * a single connection can pipeline hundreds of in-flight request ids and every
//!   reply maps back to its request;
//! * a half-closed connection receives every owed reply, without the loop spinning
//!   while it waits for them;
//! * shutdown stays prompt after heavy churn.

use liveupdate::config::LiveUpdateConfig;
use liveupdate::engine::ServingNode;
use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_net::wire::{read_frame, write_frame, Frame};
use liveupdate_net::{scrape_replica, MultiConnClient, ReplicaServer};
use liveupdate_runtime::config::{RuntimeConfig, UpdateMode};
use liveupdate_workload::{SyntheticWorkload, WorkloadConfig};
use std::collections::HashSet;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn tiny_node(seed: u64) -> ServingNode {
    let model = DlrmModel::new(DlrmConfig::tiny(2, 200, 8), seed);
    ServingNode::new(model, LiveUpdateConfig::default())
}

fn tiny_runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        num_workers: 1,
        max_batch: 32,
        batch_deadline_us: 200,
        update: UpdateMode::Disabled,
        ..RuntimeConfig::default()
    }
}

fn start_server(cfg: RuntimeConfig) -> ReplicaServer {
    ReplicaServer::start(tiny_node(7), cfg, Duration::from_millis(50), None).expect("start server")
}

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::new(WorkloadConfig {
        num_tables: 2,
        table_size: 200,
        ..WorkloadConfig::default()
    })
}

/// Wait (bounded) for the server's open-connection gauge to hit zero; teardown
/// completes asynchronously after the client side closes.
fn wait_for_empty_registry(server: &ReplicaServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "registry never drained: {} connections still open",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn churn_leaves_no_state_event_loop() {
    let server = start_server(tiny_runtime_config());
    let mut w = workload();

    // Sequential churn: one request per connection, 600 connections.
    for i in 0..600u64 {
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.set_nodelay(true).unwrap();
        let sample = w.sample_at(0.0);
        write_frame(
            &mut conn,
            &Frame::InferRequest {
                id: i,
                time_minutes: 0.0,
                trace_id: 0,
                parent_span_id: 0,
                sample,
            },
        )
        .expect("write");
        match read_frame(&mut conn).expect("read").expect("reply").0 {
            Frame::InferReply { id, .. } | Frame::InferShed { id } => assert_eq!(id, i),
            other => panic!("unexpected reply {other:?}"),
        }
        write_frame(&mut conn, &Frame::Bye).expect("bye");
        drop(conn);

        // The registry tracks live connections, not total accepted: with one
        // connection at a time it stays O(1) even 500 connections in.
        if i % 100 == 99 {
            assert!(
                server.open_connections() <= 8,
                "registry grew with total connections: {} open after {} conns",
                server.open_connections(),
                i + 1
            );
        }
    }

    // Concurrent churn: 8 threads × 50 connections each, all overlapping.
    let addr = server.addr();
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut w = workload();
                for i in 0..50u64 {
                    let id = t * 1000 + i;
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.set_nodelay(true).unwrap();
                    let sample = w.sample_at(0.0);
                    write_frame(
                        &mut conn,
                        &Frame::InferRequest {
                            id,
                            time_minutes: 0.0,
                            trace_id: 0,
                            parent_span_id: 0,
                            sample,
                        },
                    )
                    .expect("write");
                    match read_frame(&mut conn).expect("read").expect("reply").0 {
                        Frame::InferReply { id: got, .. } | Frame::InferShed { id: got } => {
                            assert_eq!(got, id);
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                    write_frame(&mut conn, &Frame::Bye).expect("bye");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("churn thread");
    }

    // 1000 connections later: the registry is empty.
    wait_for_empty_registry(&server);

    // Shutdown is prompt after heavy churn.
    let started = Instant::now();
    let (report, _node) = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} after churn",
        started.elapsed()
    );
    assert!(report.completed > 0, "churn traffic reached the workers");
}

/// One connection, 256 requests in flight before the first reply is read. Every reply
/// id maps back to a submitted id exactly once, in batch-completion (not submission)
/// order — the pipelining contract the request `id` field exists for.
#[test]
fn pipelining_maps_ids_event_loop() {
    let server = start_server(tiny_runtime_config());
    let mut w = workload();
    let mut client = MultiConnClient::connect(server.addr(), 1).expect("connect");

    const IN_FLIGHT: u64 = 256;
    for id in 0..IN_FLIGHT {
        let sample = w.sample_at(0.0);
        client
            .send(
                0,
                &Frame::InferRequest {
                    id,
                    time_minutes: 0.0,
                    trace_id: 0,
                    parent_span_id: 0,
                    sample,
                },
            )
            .expect("send");
    }

    let mut seen: HashSet<u64> = HashSet::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    let delivered = client
        .poll_until(IN_FLIGHT as usize, deadline, |conn, frame| {
            assert_eq!(conn, 0);
            match frame {
                Frame::InferReply { id, prediction, .. } => {
                    assert!((0.0..=1.0).contains(&prediction), "prediction {prediction}");
                    assert!(seen.insert(id), "duplicate reply for id {id}");
                }
                Frame::InferShed { id } => {
                    assert!(seen.insert(id), "duplicate shed for id {id}");
                }
                other => panic!("unexpected frame {other:?}"),
            }
        })
        .expect("poll");
    assert_eq!(
        delivered as u64, IN_FLIGHT,
        "every in-flight request answered"
    );
    assert_eq!(
        seen,
        (0..IN_FLIGHT).collect::<HashSet<u64>>(),
        "reply ids map one-to-one onto request ids"
    );

    client.send(0, &Frame::Bye).expect("bye");
    drop(client);
    wait_for_empty_registry(&server);
    let _ = server.shutdown();
}

/// The reply-exact drain: a client that half-closes after a burst still receives every
/// owed reply before the server closes the socket. The second input first polls only
/// after the server has answered and closed, so the client's socket reports a full
/// hangup (`EPOLLHUP`) with every reply still buffered.
#[test]
fn half_close_drains_owed_replies() {
    for poll_after_server_close in [false, true] {
        let server = start_server(tiny_runtime_config());
        let mut w = workload();
        let mut client = MultiConnClient::connect(server.addr(), 1).expect("connect");

        const BURST: u64 = 64;
        for id in 0..BURST {
            let sample = w.sample_at(0.0);
            client
                .send(
                    0,
                    &Frame::InferRequest {
                        id,
                        time_minutes: 0.0,
                        trace_id: 0,
                        parent_span_id: 0,
                        sample,
                    },
                )
                .expect("send");
        }
        client.finish_sending(0); // shutdown(Write): no more requests, replies still owed
        if poll_after_server_close {
            wait_for_empty_registry(&server);
        }

        let mut seen: HashSet<u64> = HashSet::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        client
            .poll_until(BURST as usize, deadline, |_, frame| match frame {
                Frame::InferReply { id, .. } | Frame::InferShed { id } => {
                    seen.insert(id);
                }
                other => panic!("unexpected frame {other:?}"),
            })
            .expect("poll");
        assert_eq!(
            seen,
            (0..BURST).collect::<HashSet<u64>>(),
            "every owed reply arrived after the half-close \
             (poll_after_server_close = {poll_after_server_close})"
        );
        drop(client);
        wait_for_empty_registry(&server);
        let _ = server.shutdown();
    }
}

/// A draining connection must not spin the loop. One half-closed connection owes one
/// reply that a 400 ms batch deadline holds back; while it waits, the loop may wake for
/// the scrapes and its 100 ms backstop, not on every return of `epoll_wait`.
#[test]
fn draining_connection_does_not_spin_the_loop() {
    let server = start_server(RuntimeConfig {
        batch_deadline_us: 400_000,
        ..tiny_runtime_config()
    });
    let wakeups = || {
        scrape_replica(server.addr())
            .expect("scrape")
            .into_iter()
            .find(|(name, _)| name == "net_wakeups_total")
            .expect("wakeup counter scraped")
            .1
    };

    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let sample = workload().sample_at(0.0);
    write_frame(
        &mut conn,
        &Frame::InferRequest {
            id: 0,
            time_minutes: 0.0,
            trace_id: 0,
            parent_span_id: 0,
            sample,
        },
    )
    .expect("write");
    conn.shutdown(Shutdown::Write).expect("half-close");
    // Let the loop read the request and the EOF, then count over 200 ms.
    std::thread::sleep(Duration::from_millis(20));
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(200));
    let woke = wakeups() - before;
    assert!(
        woke < 100.0,
        "the loop woke {woke} times in 200 ms while one connection drained"
    );

    // The owed reply still arrives once its batch closes.
    match read_frame(&mut conn).expect("read").expect("reply").0 {
        Frame::InferReply { id, .. } => assert_eq!(id, 0),
        other => panic!("unexpected reply {other:?}"),
    }
    drop(conn);
    wait_for_empty_registry(&server);
    let _ = server.shutdown();
}
