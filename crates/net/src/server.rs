//! The replica server: one [`ServingRuntime`] behind a localhost TCP listener.
//!
//! A [`ReplicaServer`] is the paper's inference node made network-addressable. Inference
//! frames flow into the runtime's worker queues exactly like in-process submissions (the
//! worker delivers each prediction back through the connection's outbound queue), and
//! control frames — sparse LoRA row exchange, `B`-factor broadcast, top-changed-row
//! pulls, full-model pulls, publication — execute against the authoritative node on the
//! updater thread ([`ServingRuntime::with_node_async`]), so they serialise with the
//! updater's own blocks and never add a lock to the serve path.
//!
//! # Threading: an epoll event loop, not a thread pair per connection
//!
//! One event-loop thread owns *every* connection socket (plus the listener and a wakeup
//! eventfd) through [`crate::poll::Poller`]:
//!
//! * **Sockets are nonblocking** and level-triggered. Readiness drives incremental frame
//!   decode through [`crate::wire::FrameAssembler`] — a read may end mid-length-prefix or
//!   mid-payload and resumes exactly there on the next readiness.
//! * **Replies are routed by connection id.** A worker finishing a batch (or the updater
//!   completing a control command) pushes `(connection token, frame)` onto one shared
//!   channel and rings the loop's waker; the loop encodes into that connection's
//!   outbound buffer and drains it, arming `EPOLLOUT` only while unflushed bytes remain.
//! * **Pipelining is the point.** The wire protocol's request `id` already correlates
//!   replies; with the event loop a single connection can carry hundreds of in-flight
//!   requests, each answered as its batch completes — order of replies is batch
//!   completion order, not submission order.
//! * **The loop never blocks on the model.** Inference submits are `try_send` (a full
//!   queue sheds with an `InferShed` frame), control frames are fire-and-forget updater
//!   commands whose completion callback delivers the reply after any publication.
//! * **The loop preempts the trainer.** Like the runtime's workers, the loop thread
//!   requests a short scheduler slice ([`liveupdate_runtime::sched`]) when it starts.
//!
//! Connection teardown is reply-exact: a peer that half-closes (EOF) or sends `Bye`
//! stops being read, but the connection stays open until every accepted request has
//! answered (`InferReply`), every pending control command has acknowledged, and the
//! outbound buffer has flushed — then the socket closes and leaves the registry, so
//! connection churn never grows server state. While it drains, the connection is
//! registered for write readiness only: its level-triggered EOF would otherwise wake
//! the loop continuously until the last owed reply arrived.
//!
//! The loop needs epoll: [`ReplicaServer::start`] returns an error when the poller or
//! its waker cannot be created (Linux is the only target).
//!
//! Lifecycle and reporting stay in-process: [`ReplicaServer::shutdown`] closes every
//! connection, joins the loop, and returns the runtime's measured report plus the
//! final node — the sockets are the data path, not the management plane.

use crate::poll::{Interest, Poller, Waker};
use crate::wire::{Frame, FrameAssembler, RowUpdate};
use liveupdate::engine::ServingNode;
use liveupdate::sync::LoraPeer;
use liveupdate_dlrm::model::DlrmConfig;
use liveupdate_obs::{Counter, Gauge, LogLinearHistogram};
use liveupdate_runtime::config::RuntimeConfig;
use liveupdate_runtime::policy::UpdatePolicy;
use liveupdate_runtime::report::RuntimeReport;
use liveupdate_runtime::request::ReplyTo;
use liveupdate_runtime::runtime::{ServingRuntime, SubmitOutcome};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Byte counters of one replica server, accounted at the socket (sums of real frame
/// lengths, read + written).
#[derive(Debug, Default)]
pub struct ServerBytes {
    /// Inference traffic (requests in, replies/sheds out).
    pub infer: AtomicU64,
    /// Control traffic (everything else).
    pub control: AtomicU64,
}

impl ServerBytes {
    fn count(&self, frame: &Frame, n: u64) {
        let counter = if matches!(
            frame,
            Frame::InferRequest { .. } | Frame::InferReply { .. } | Frame::InferShed { .. }
        ) {
            &self.infer
        } else {
            &self.control
        };
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// A running TCP replica: listener + epoll event loop around one [`ServingRuntime`].
pub struct ReplicaServer {
    addr: SocketAddr,
    runtime: Arc<ServingRuntime>,
    stop: Arc<AtomicBool>,
    bytes: Arc<ServerBytes>,
    open_connections: Arc<AtomicUsize>,
    waker: Arc<Waker>,
    thread: JoinHandle<()>,
}

impl std::fmt::Debug for ReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ReplicaServer {
    /// Start a replica serving `node` on an OS-assigned localhost port. The runtime's
    /// worker topology comes from `cfg`; `policy` drives the updater thread at
    /// `interval` (`None` = ingest-only, the arrangement parameter-pull strategies use —
    /// their updates arrive as control frames instead).
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd creation, listener-creation and registration failures.
    ///
    /// # Panics
    ///
    /// Panics if the runtime configuration is invalid.
    pub fn start(
        node: ServingNode,
        cfg: RuntimeConfig,
        interval: Duration,
        policy: Option<Box<dyn UpdatePolicy>>,
    ) -> std::io::Result<Self> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(waker.fd(), TOKEN_WAKER, Interest::READ)?;
        let runtime = Arc::new(ServingRuntime::start_with_policy(
            node, cfg, interval, policy,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let bytes = Arc::new(ServerBytes::default());
        let open_connections = Arc::new(AtomicUsize::new(0));

        // The model geometry is fixed for the runtime's lifetime; snapshot it once so
        // every inference frame can be validated without a node round-trip.
        let model_config = runtime.with_node(|node| node.serving_model().config().clone());
        let (reply_tx, reply_rx) = channel::<(u64, Frame)>();
        let mut event_loop = EventLoop {
            poller,
            listener,
            conns: HashMap::new(),
            next_token: TOKEN_CONN_BASE,
            reply_rx,
            touched: Vec::new(),
            ctx: LoopCtx {
                stats: LoopStats::new(&runtime),
                runtime: Arc::clone(&runtime),
                reply_tx,
                waker: Arc::clone(&waker),
                model_config,
                bytes: Arc::clone(&bytes),
                open_connections: Arc::clone(&open_connections),
            },
            stop: Arc::clone(&stop),
        };
        let thread = thread::Builder::new()
            .name(format!("lu-net-loop-{}", addr.port()))
            .spawn(move || {
                // The loop is on every request's path: let it preempt the trainer.
                liveupdate_runtime::sched::prefer_short_slice();
                event_loop.run();
            })
            .expect("spawn event loop thread");

        Ok(Self {
            addr,
            runtime,
            stop,
            bytes,
            open_connections,
            waker,
            thread,
        })
    }

    /// The address the replica listens on (`127.0.0.1:<os-assigned port>`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Socket-accounted byte counters.
    #[must_use]
    pub fn bytes(&self) -> &ServerBytes {
        &self.bytes
    }

    /// Number of currently open connections. Churn must return this to zero — the
    /// registry growth bug this counter pins down in `tests/connection_churn.rs`.
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.open_connections.load(Ordering::Acquire)
    }

    /// Stop accepting, close every connection, join the event loop, shut the runtime
    /// down, and return its measured report plus the final authoritative node. Clients
    /// should close (or `Bye`) their connections first; any still-open socket is
    /// forcibly shut so the join cannot hang.
    ///
    /// # Panics
    ///
    /// Panics if the event loop or a runtime thread panicked.
    #[must_use]
    pub fn shutdown(self) -> (RuntimeReport, ServingNode) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        self.thread.join().expect("event loop thread panicked");
        let runtime = Arc::try_unwrap(self.runtime).expect("the event loop released the runtime");
        runtime.finish()
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Incremental inbound frame decode (resumes mid-frame across readiness events).
    assembler: FrameAssembler,
    /// Encoded-but-unwritten outbound bytes; `out_pos` marks the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// Replies the runtime still owes this connection: accepted inference requests plus
    /// in-flight control commands. The connection may only close once this drains.
    owed: u64,
    /// Reading has stopped (peer EOF, `Bye`, or protocol error); close once `owed`
    /// reaches zero and the outbound buffer is flushed.
    draining: bool,
    /// The connection's current epoll registration.
    interest: Interest,
}

impl Conn {
    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Append an encoded frame to the outbound buffer, accounting its bytes.
    fn enqueue(&mut self, frame: &Frame, bytes: &ServerBytes) {
        match frame.encode() {
            Ok(encoded) => {
                bytes.count(frame, encoded.len() as u64);
                self.out.extend_from_slice(&encoded);
            }
            // Our own frames only fail to encode on non-finite floats (a degenerate
            // model); the peer can't be answered, so drain the connection.
            Err(_) => self.draining = true,
        }
    }

    /// Write as much of the outbound buffer as the socket accepts.
    /// Returns `false` when the connection died mid-write.
    fn flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }

    /// `true` once the connection owes nothing more and may close.
    fn drained(&self) -> bool {
        self.draining && self.owed == 0 && self.out_pending() == 0
    }

    /// The registration this connection needs now: reads until it starts draining,
    /// writes only while unflushed bytes remain.
    fn wanted_interest(&self) -> Interest {
        Interest {
            readable: !self.draining,
            writable: self.out_pending() > 0,
        }
    }

    /// Count one more reply the runtime owes this connection.
    fn owe(&mut self, ctx: &LoopCtx) {
        self.owed += 1;
        if let Some(stats) = &ctx.stats {
            stats.owed.inc();
        }
    }
}

/// Pre-registered event-loop telemetry handles (present iff the runtime keeps a
/// registry). Loop-level health that per-request metrics cannot show: how often the
/// loop wakes, how much readiness each wake amortises, how many replies the runtime
/// currently owes across all connections, and how many connections are open (set
/// when a `Frame::Stats` scrape is answered).
struct LoopStats {
    wakeups: Arc<Counter>,
    ready_events: Arc<LogLinearHistogram>,
    owed: Arc<Gauge>,
    open_connections: Arc<Gauge>,
}

impl LoopStats {
    fn new(runtime: &ServingRuntime) -> Option<Self> {
        let tel = runtime.telemetry()?;
        Some(Self {
            wakeups: tel.registry.counter("net_wakeups_total"),
            ready_events: tel.registry.histogram("net_ready_events_per_wake"),
            owed: tel.registry.gauge("net_owed_replies"),
            open_connections: tel.registry.gauge("net_open_connections"),
        })
    }
}

/// Everything a dispatch needs besides the connection itself.
struct LoopCtx {
    runtime: Arc<ServingRuntime>,
    reply_tx: Sender<(u64, Frame)>,
    waker: Arc<Waker>,
    model_config: DlrmConfig,
    bytes: Arc<ServerBytes>,
    open_connections: Arc<AtomicUsize>,
    stats: Option<LoopStats>,
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    reply_rx: Receiver<(u64, Frame)>,
    ctx: LoopCtx,
    stop: Arc<AtomicBool>,
    /// Scratch for `drain_replies`: the tokens touched by one reply sweep. A struct
    /// field so the steady-state loop reuses one grown-once buffer per wakeup.
    touched: Vec<u64>,
}

impl EventLoop {
    fn run(&mut self) {
        // Readiness scratch, hoisted so the steady-state poll never allocates: it grows
        // to the 256-event high-water mark once and is cleared in place per wakeup.
        let mut events = Vec::with_capacity(256);
        while !self.stop.load(Ordering::Acquire) {
            // The waker covers replies and shutdown; the timeout is only a backstop so
            // a lost wakeup can never wedge the loop.
            if self.poller.wait_into(Some(100), &mut events).is_err() {
                break;
            }
            if let Some(stats) = &self.ctx.stats {
                stats.wakeups.inc();
                stats.ready_events.record(events.len() as f64);
            }
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.ctx.waker.drain(),
                    token => self.conn_ready(token, event.readable, event.writable, event.error),
                }
            }
            self.drain_replies();
        }
        // Shutdown: force every connection closed (peers see EOF) and unregister.
        for (_, conn) in self.conns.drain() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.ctx.open_connections.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.ctx.open_connections.fetch_add(1, Ordering::AcqRel);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            token,
                            assembler: FrameAssembler::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            owed: 0,
                            draining: false,
                            interest: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Route completed worker replies / control acknowledgements into their
    /// connections' outbound buffers, then flush exactly the connections touched.
    /// Never scans the whole registry — per-wakeup work is O(replies), not O(open
    /// connections), which is what keeps the tail flat at 2048 connections.
    fn drain_replies(&mut self) {
        // Reuse the struct-field scratch (taken to appease the borrow checker while
        // `self.service_conn` runs): steady state allocates nothing.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        while let Ok((token, frame)) = self.reply_rx.try_recv() {
            // A reply for a connection that already died is dropped on the floor: its
            // peer is gone, so there is no one left to answer.
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.owed > 0 {
                    conn.owed -= 1;
                    if let Some(stats) = &self.ctx.stats {
                        stats.owed.dec();
                    }
                }
                conn.enqueue(&frame, &self.ctx.bytes);
                if touched.last() != Some(&token) {
                    touched.push(token);
                }
            }
        }
        touched.dedup();
        for &token in &touched {
            self.service_conn(token);
        }
        self.touched = touched;
    }

    /// Flush a connection's outbound buffer, close it if dead or fully drained, and
    /// keep its epoll registration in sync with [`Conn::wanted_interest`]. Dropping
    /// read interest once draining matters: a half-closed peer's EOF is
    /// level-triggered, so a draining connection still registered for reads would
    /// wake the loop continuously until its last owed reply arrived.
    fn service_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.flush() || conn.drained() {
            self.close_conn(token);
            return;
        }
        let interest = conn.wanted_interest();
        if interest != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_ok()
        {
            conn.interest = interest;
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, error: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // A draining connection is not registered for reads, so readiness there is a
        // hangup (always reported): the peer is gone both ways and nothing owed can
        // reach it any more.
        if error || (readable && conn.draining) {
            self.close_conn(token);
            return;
        }
        let mut alive = true;
        if writable {
            alive = conn.flush();
        }
        if alive && readable {
            alive = read_ready(conn, &self.ctx);
        }
        if alive {
            self.service_conn(token);
        } else {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.ctx.open_connections.fetch_sub(1, Ordering::AcqRel);
            if let Some(stats) = &self.ctx.stats {
                // Replies owed to a dead connection will be dropped on arrival.
                stats.owed.add(-(conn.owed as i64));
            }
        }
    }
}

/// Drain the socket into the assembler and dispatch every complete frame.
/// Returns `false` when the connection died (hard error); EOF and protocol errors set
/// `draining` instead so owed replies still flush.
fn read_ready(conn: &mut Conn, ctx: &LoopCtx) -> bool {
    let mut scratch = [0u8; 16 * 1024];
    let mut saw_eof = false;
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => conn.assembler.extend(&scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    while !conn.draining {
        match conn.assembler.next_frame() {
            Ok(Some((frame, n))) => {
                ctx.bytes.count(&frame, n as u64);
                dispatch_event(conn, frame, ctx);
            }
            Ok(None) => break,
            Err(_) => {
                // Framing alignment is lost; answer with a typed Nack and drain.
                conn.enqueue(&nack("malformed frame"), &ctx.bytes);
                conn.draining = true;
            }
        }
    }
    if saw_eof {
        // Half-close: the peer is done sending but still reads replies — the driver's
        // data connections end exactly this way. Owed replies keep the socket open.
        conn.draining = true;
    }
    true
}

/// Handle one decoded frame on the event loop: inference goes to the worker queues with
/// a reply path back through the loop's channel, each control frame becomes a
/// fire-and-forget command on the updater thread, `Stats`/`TraceDump` answer inline,
/// and `Bye`/wrong-direction frames start the drain.
fn dispatch_event(conn: &mut Conn, frame: Frame, ctx: &LoopCtx) {
    match frame {
        Frame::InferRequest {
            id,
            time_minutes,
            trace_id,
            parent_span_id,
            sample,
        } => {
            // The wire codec guarantees well-formed bytes, not well-formed *geometry*:
            // a sparse id past the table end or a wrong-arity sample would panic the
            // worker thread mid-batch and take the whole replica down. Reject it here
            // and keep serving the connection.
            if let Err(reason) = ctx.model_config.validate_sample(&sample) {
                conn.enqueue(&nack(&format!("request {id}: {reason}")), &ctx.bytes);
                return;
            }
            // Continue the driver's trace under its id: the deterministic sampler
            // reaches the same verdict on both sides, so a nonzero wire trace id is
            // kept here exactly when the driver kept it.
            let trace = ctx.runtime.trace_context(trace_id, parent_span_id);
            let (reply_trace_id, span_id) = trace
                .as_ref()
                .map_or((0, 0), |trace| (trace.trace_id, trace.span_id));
            let reply_tx = ctx.reply_tx.clone();
            let waker = Arc::clone(&ctx.waker);
            let token = conn.token;
            let reply = ReplyTo::new(move |prediction| {
                let _ = reply_tx.send((
                    token,
                    Frame::InferReply {
                        id,
                        trace_id: reply_trace_id,
                        span_id,
                        prediction,
                    },
                ));
                waker.wake();
            });
            match ctx.runtime.submit_routed_with_reply_traced(
                sample,
                time_minutes,
                Instant::now(),
                reply,
                trace,
            ) {
                SubmitOutcome::Accepted => conn.owe(ctx),
                SubmitOutcome::Shed => {
                    conn.enqueue(&Frame::InferShed { id }, &ctx.bytes);
                }
                SubmitOutcome::Closed => {
                    // The runtime is shutting down: tell the client instead of letting
                    // it hang on a reply that will never come, then drain.
                    conn.enqueue(&Frame::InferShed { id }, &ctx.bytes);
                    conn.draining = true;
                }
            }
        }
        Frame::PullSupport => control(conn, ctx, false, |node| Frame::Support {
            rows: node
                .lora_support()
                .into_iter()
                .map(|(table, row)| (table as u32, row as u64))
                .collect(),
        }),
        Frame::PullLoraRows { rows } => control(conn, ctx, false, move |node| Frame::LoraRows {
            rows: rows
                .into_iter()
                .filter(|&(table, row)| in_bounds(node, table, row))
                .map(|(table, row)| RowUpdate {
                    table,
                    row,
                    values: node.export_lora_row(table as usize, row as usize),
                })
                .collect(),
        }),
        // Stage the rows without materialising: the B broadcast may still follow, and
        // the Publish frame rematerialises every active row once.
        Frame::PushLoraRows { rows } => control(conn, ctx, false, move |node| {
            for row in &rows {
                if !in_bounds(node, row.table, row.row) {
                    return nack("LoRA row index out of bounds");
                }
            }
            for row in rows {
                LoraPeer::import_a_row(node, row.table as usize, row.row as usize, row.values);
            }
            Frame::Ack
        }),
        Frame::PullB { table } => control(conn, ctx, false, move |node| {
            let t = table as usize;
            if t >= node.loras().len() {
                return nack("table out of bounds");
            }
            Frame::BFactor {
                table,
                source_rank: LoraPeer::lora_rank(node, t) as u32,
                values: LoraPeer::export_b(node, t),
            }
        }),
        Frame::PushB {
            table,
            source_rank,
            values,
        } => control(conn, ctx, false, move |node| {
            let t = table as usize;
            if t >= node.loras().len() {
                return nack("table out of bounds");
            }
            if values.len() != source_rank as usize * node.loras()[t].dim() {
                return nack("B factor shape mismatch");
            }
            LoraPeer::import_b(node, t, &values, source_rank as usize);
            Frame::Ack
        }),
        Frame::PushEmbeddingRows { rows } => control(conn, ctx, true, move |node| {
            let dim = node.serving_model().config().embedding_dim;
            for row in &rows {
                if !in_bounds(node, row.table, row.row) {
                    return nack("embedding row index out of bounds");
                }
                if row.values.len() != dim {
                    return nack("embedding row dimension mismatch");
                }
            }
            for row in rows {
                node.apply_embedding_row_pull(row.table as usize, row.row as usize, &row.values);
            }
            Frame::Ack
        }),
        Frame::FullModel { params } => control(conn, ctx, true, move |node| {
            if params.len() != node.serving_model().parameter_count() {
                return nack("parameter vector length mismatch");
            }
            let mut fresh = node.serving_model().clone();
            fresh.import_parameters(&params);
            node.full_sync(fresh);
            Frame::Ack
        }),
        Frame::Publish => control(conn, ctx, true, |node| {
            node.refresh_serving_rows();
            Frame::Ack
        }),
        Frame::Stats => {
            // Answered inline from the lock-free registry: a scrape never waits on the
            // updater and never blocks a worker. The loop's connection gauge is folded
            // in first (when telemetry is on).
            if let Some(stats) = &ctx.stats {
                let open = ctx.open_connections.load(Ordering::Acquire);
                stats.open_connections.set(open as i64);
            }
            let reply = Frame::StatsReply {
                metrics: ctx.runtime.scrape(),
            };
            conn.enqueue(&reply, &ctx.bytes);
        }
        Frame::TraceDump => {
            // Inline like Stats: drains the lock-free span ring and snapshots the
            // histograms in mergeable bucket form. With telemetry off both vectors are
            // empty, which a cluster scraper treats as "nothing to merge".
            let reply = Frame::TraceDumpReply {
                spans: ctx.runtime.drain_spans(),
                histograms: ctx
                    .runtime
                    .scrape_histograms()
                    .into_iter()
                    .map(|(name, snapshot)| (name, snapshot.nonzero_buckets()))
                    .collect(),
            };
            conn.enqueue(&reply, &ctx.bytes);
        }
        Frame::Bye => conn.draining = true,
        // A replica never receives reply-direction frames; reject and close.
        Frame::InferReply { .. }
        | Frame::InferShed { .. }
        | Frame::Support { .. }
        | Frame::LoraRows { .. }
        | Frame::BFactor { .. }
        | Frame::Ack
        | Frame::Nack { .. }
        | Frame::StatsReply { .. }
        | Frame::TraceDumpReply { .. } => {
            conn.enqueue(&nack("unexpected frame direction"), &ctx.bytes);
            conn.draining = true;
        }
    }
}

/// Run `action` against the authoritative node on the updater thread — publishing a
/// fresh snapshot first when `publish` is set — and route the frame it returns back to
/// this connection through the loop's reply channel.
fn control<F>(conn: &mut Conn, ctx: &LoopCtx, publish: bool, action: F)
where
    F: FnOnce(&mut ServingNode) -> Frame + Send + 'static,
{
    let reply_tx = ctx.reply_tx.clone();
    let waker = Arc::clone(&ctx.waker);
    let token = conn.token;
    let sent = ctx.runtime.with_node_async(action, publish, move |reply| {
        let _ = reply_tx.send((token, reply));
        waker.wake();
    });
    if sent {
        conn.owe(ctx);
    } else {
        // No updater to run the command (runtime shutting down): drain.
        conn.draining = true;
    }
}

/// Bounds-check a `(table, row)` pair against the node's geometry.
fn in_bounds(node: &ServingNode, table: u32, row: u64) -> bool {
    let tables = node.serving_model().tables();
    (table as usize) < tables.len() && (row as usize) < tables[table as usize].num_rows()
}

fn nack(reason: &str) -> Frame {
    Frame::Nack {
        reason: reason.to_string(),
    }
}
