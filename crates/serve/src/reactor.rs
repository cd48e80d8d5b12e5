//! The event-driven session core (Linux).
//!
//! One [`Poller`] (epoll) watches every connection; a worker pool sized
//! to cores drives per-connection state machines through the phases
//!
//! ```text
//! accept → Handshake → Ingest → (execute) → Drain → close
//!                    ↘ telemetry hand-off (interval thread)
//!                    ↘ Subscribe ————————————————↗
//!                    ↘ Closing (rejections)
//! close = bookkeeping → Linger (half-closed until the peer hangs up)
//! ```
//!
//! Every registration is one-shot: a readiness event parks the socket
//! until the worker that handled it re-arms, so at most one worker ever
//! drives a given connection and the per-connection mutex is
//! uncontended on the hot path. A slow reader parks its state machine
//! on `EPOLLOUT` instead of blocking a thread — backpressure costs a
//! heap-side write queue per session, never a stalled worker.
//!
//! The engine itself is fill-then-drain (sources are consumed fully
//! before output flows), so the session machine buffers the decoded
//! input and, on the end frame, runs the *identical* offline execution
//! path (`PhysicalPlan::execute_streaming` over a `VecSource`). Served
//! output is byte-identical to offline by construction, not by a
//! parallel re-implementation.
//!
//! Shared streams: a `pollute` session with a `stream` name publishes
//! its encoded output frames (`Arc<[u8]>`) into a hub; `subscribe`
//! sessions naming the same stream get the same buffers cloned into
//! their write queues — encode once, fan out to every session sharing
//! the plan.

#![cfg(target_os = "linux")]

use crate::poll::{Poller, EPOLLIN, EPOLLOUT};
use crate::protocol::{
    coerce_tuple, decode_client_frame, encode_columns_frame, encode_error_frame,
    encode_report_frame, encode_stamped_frame, Handshake, HandshakeReply, SessionErrorFrame,
};
use crate::server::{run_telemetry_session, HubState, Server, SessionHandles, Shared};
use icewafl_core::plan::PhysicalPlan;
use icewafl_stream::net::{
    frame_bytes, FrameDecoder, NetError, NetPoll, WireFormat, WireFrame, WriteQueue,
};
use icewafl_stream::sink::Sink;
use icewafl_stream::source::VecSource;
use icewafl_types::{Error, Result, Schema, StampedTuple, Tuple};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's epoll token; session ids start at 1.
const LISTENER_TOKEN: u64 = 0;

/// How long one `epoll_wait` may park before shutdown/SIGINT is
/// re-checked.
const POLL_TIMEOUT_MS: i32 = 25;

/// Connection-table shards (token-hashed) so session churn never
/// contends on one map lock.
const CONN_SHARDS: usize = 16;

/// Read chunk per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

/// Per-drive read budget: a firehose client yields the worker back to
/// the pool after this many bytes (its socket re-arms immediately).
const READ_BUDGET: usize = 1 << 20;

/// Outbox high-water mark: drains pause encoding while this many bytes
/// are already queued, so a parked slow reader holds one window of
/// encoded frames, not its whole output stream.
const OUTBOX_HIGH: usize = 256 * 1024;

/// Longest a closed connection lingers half-closed, discarding input,
/// before its socket is dropped on a peer that never hangs up.
const LINGER_TIMEOUT: Duration = Duration::from_millis(500);

/// Sample 1-in-N encodes for the `encode_ns` telemetry counter.
const ENCODE_SAMPLE_MASK: u64 = 63;

/// What a session ultimately was, counted once at close.
enum SessionResult {
    Completed,
    Failed { protocol: bool },
}

/// Lifecycle phase of one connection's state machine.
enum Phase {
    /// Waiting for the one NDJSON handshake line.
    Handshake,
    /// Decoding data frames into the input buffer until the end frame.
    Ingest,
    /// Encoding output units / the tail frame into the outbox.
    Drain,
    /// Pulling pre-serialized frames from a shared-stream hub.
    Subscribe,
    /// Nothing left to produce: flush the outbox, then close.
    Closing,
    /// Closed and half-closed (FIN sent): input is discarded until the
    /// peer hangs up or `deadline` passes, then the socket is dropped.
    Linger { deadline: Instant },
    /// Closed (or handed off to a telemetry thread); terminal.
    Closed,
}

/// Live counter cells shared with the session-table row.
struct ConnCounters {
    frames_in: Arc<std::sync::atomic::AtomicU64>,
    frames_out: Arc<std::sync::atomic::AtomicU64>,
    bytes_out: Arc<std::sync::atomic::AtomicU64>,
    encode_ns: Arc<std::sync::atomic::AtomicU64>,
    blocked_write_ns: Arc<std::sync::atomic::AtomicU64>,
}

impl ConnCounters {
    fn new() -> Self {
        let zero = || Arc::new(std::sync::atomic::AtomicU64::new(0));
        ConnCounters {
            frames_in: zero(),
            frames_out: zero(),
            bytes_out: zero(),
            encode_ns: zero(),
            blocked_write_ns: zero(),
        }
    }

    fn handles(&self, kind: &'static str, format: WireFormat, repr: String) -> SessionHandles {
        SessionHandles {
            kind,
            format: format.as_str(),
            repr,
            frames_in: Arc::clone(&self.frames_in),
            frames_out: Arc::clone(&self.frames_out),
            bytes_out: Arc::clone(&self.bytes_out),
            encode_ns: Arc::clone(&self.encode_ns),
            blocked_write_ns: Arc::clone(&self.blocked_write_ns),
        }
    }
}

/// One connection's full state. Only ever touched under its slot mutex.
struct Conn {
    id: u64,
    sock: TcpStream,
    decoder: FrameDecoder,
    outbox: WriteQueue,
    phase: Phase,
    format: WireFormat,
    /// Session schema for NDJSON value coercion (`None` on binary).
    coerce_schema: Option<Schema>,
    plan: Option<PhysicalPlan>,
    input: Vec<Tuple>,
    /// Output units not yet encoded: singletons or whole batches, in
    /// emission order (mirrors the `NetSink` framing rules).
    units: VecDeque<Vec<StampedTuple>>,
    /// The encoded tail frame (report or error), queued after `units`.
    tail: Option<Arc<[u8]>>,
    /// Whether this connection holds a capacity slot.
    counts_active: bool,
    /// Registered in the session table (row removed at close).
    in_table: bool,
    counters: ConnCounters,
    /// Hub this session publishes to (pollute + `stream`).
    publish: Option<Arc<Mutex<HubState>>>,
    /// Hub this session subscribes to, plus its read cursor.
    subscribe: Option<(Arc<Mutex<HubState>>, usize)>,
    /// Stream name for hub-map cleanup at close.
    stream_name: Option<String>,
    /// Set when parked on a full socket; elapsed time lands in
    /// `blocked_write_ns` on the next drive.
    blocked_since: Option<Instant>,
    result: Option<SessionResult>,
    frames_encoded: u64,
}

impl Conn {
    fn new(id: u64, sock: TcpStream, max_frame: usize, counts_active: bool) -> Self {
        Conn {
            id,
            sock,
            decoder: FrameDecoder::new(WireFormat::Ndjson, max_frame),
            outbox: WriteQueue::new(),
            phase: Phase::Handshake,
            format: WireFormat::Ndjson,
            coerce_schema: None,
            plan: None,
            input: Vec::new(),
            units: VecDeque::new(),
            tail: None,
            counts_active,
            in_table: false,
            counters: ConnCounters::new(),
            publish: None,
            subscribe: None,
            stream_name: None,
            blocked_since: None,
            result: None,
            frames_encoded: 0,
        }
    }

    fn queue_line<T: serde::Serialize>(&mut self, value: &T) {
        let line = serde_json::to_string(value).expect("protocol frames are always serializable");
        self.outbox.push(Arc::from(
            frame_bytes(&WireFrame::Line(line)).into_boxed_slice(),
        ));
    }
}

/// A connection slot: the raw fd (stable, readable without the lock)
/// plus the state machine.
struct Slot {
    fd: RawFd,
    conn: Mutex<Conn>,
}

/// A tiny blocking work queue (tokens → workers). `std::sync::Condvar`
/// because the vendored `parking_lot` has no condvar; this lock is held
/// for queue ops only, never across a drive.
struct WorkQueue {
    state: std::sync::Mutex<(VecDeque<u64>, bool)>,
    ready: std::sync::Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: std::sync::Mutex::new((VecDeque::new(), false)),
            ready: std::sync::Condvar::new(),
        }
    }

    fn push(&self, token: u64) {
        let mut state = self.state.lock().unwrap();
        state.0.push_back(token);
        drop(state);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.ready.notify_all();
    }

    /// Blocks for the next token; `None` once closed and empty.
    fn pop(&self) -> Option<u64> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(token) = state.0.pop_front() {
                return Some(token);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }
}

/// Everything the poller thread and the workers share.
struct Reactor {
    poller: Poller,
    shared: Arc<Shared>,
    conns: Vec<Mutex<HashMap<u64, Arc<Slot>>>>,
    conn_count: AtomicUsize,
    queue: WorkQueue,
    telemetry_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Lingering connections and their deadlines; the event loop
    /// re-drives each one whose deadline has passed.
    lingering: Mutex<Vec<(u64, Instant)>>,
}

impl Reactor {
    fn shard(&self, token: u64) -> &Mutex<HashMap<u64, Arc<Slot>>> {
        &self.conns[(token as usize) % CONN_SHARDS]
    }

    fn slot(&self, token: u64) -> Option<Arc<Slot>> {
        self.shard(token).lock().get(&token).map(Arc::clone)
    }

    fn insert(&self, token: u64, slot: Arc<Slot>) {
        self.shard(token).lock().insert(token, slot);
        self.conn_count.fetch_add(1, Ordering::SeqCst);
    }

    fn remove(&self, token: u64) {
        if self.shard(token).lock().remove(&token).is_some() {
            self.conn_count.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Wakes a parked subscriber so it pulls newly published frames.
    /// The target's lock is held across the re-arm so the fd cannot be
    /// closed (and its number reused) mid-kick.
    fn kick(&self, token: u64) {
        if let Some(slot) = self.slot(token) {
            let conn = slot.conn.lock();
            if !matches!(conn.phase, Phase::Closed) {
                let _ = self.poller.rearm(slot.fd, token, EPOLLIN | EPOLLOUT);
            }
        }
    }
}

/// The server's event loop: accepts, polls, dispatches to workers,
/// drains on shutdown. Runs on the thread that called [`Server::run`].
pub(crate) fn run(server: &Server) -> Result<()> {
    let shared = server.shared_arc();
    let poller = Poller::new()
        .map_err(|e| Error::config(format_args!("cannot create the event poller: {e}")))?;
    let listener = server.listener();
    poller
        .register_level(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)
        .map_err(|e| Error::config(format_args!("cannot register the listener: {e}")))?;

    let workers = match shared.workers {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let rt = Arc::new(Reactor {
        poller,
        shared: Arc::clone(&shared),
        conns: (0..CONN_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
        conn_count: AtomicUsize::new(0),
        queue: WorkQueue::new(),
        telemetry_threads: Mutex::new(Vec::new()),
        lingering: Mutex::new(Vec::new()),
    });
    let worker_threads: Vec<_> = (0..workers)
        .map(|i| {
            let rt = Arc::clone(&rt);
            std::thread::Builder::new()
                .name(format!("icewafl-worker-{i}"))
                .spawn(move || {
                    while let Some(token) = rt.queue.pop() {
                        if let Some(slot) = rt.slot(token) {
                            drive(&rt, &slot, token);
                        }
                    }
                })
                .expect("spawning a reactor worker")
        })
        .collect();

    let mut events = Vec::with_capacity(256);
    let mut draining = false;
    let run_result = loop {
        if !draining && server.stop_requested() {
            draining = true;
            let _ = rt.poller.deregister(listener.as_raw_fd());
            fail_orphan_subscribers(&rt);
        }
        if draining && rt.conn_count.load(Ordering::SeqCst) == 0 {
            break Ok(());
        }
        events.clear();
        if let Err(e) = rt.poller.wait(&mut events, POLL_TIMEOUT_MS) {
            break Err(Error::config(format_args!("event poll failed: {e}")));
        }
        let mut accept_err = None;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                if let Err(e) = accept_ready(&rt, server, draining) {
                    accept_err = Some(e);
                }
            } else {
                rt.queue.push(ev.token);
            }
        }
        if let Some(e) = accept_err {
            break Err(e);
        }
        let now = Instant::now();
        rt.lingering.lock().retain(|&(token, deadline)| {
            let expired = deadline <= now;
            if expired {
                rt.queue.push(token);
            }
            !expired
        });
    };

    rt.queue.close();
    for handle in worker_threads {
        let _ = handle.join();
    }
    for handle in rt.telemetry_threads.lock().drain(..) {
        let _ = handle.join();
    }
    // Join the sampler thread: after drain the server leaves no
    // background thread behind.
    drop(shared.sampler.lock().take());
    run_result
}

/// Accepts every pending connection (the listener is level-triggered
/// and non-blocking).
fn accept_ready(rt: &Arc<Reactor>, server: &Server, draining: bool) -> Result<()> {
    loop {
        match server.listener().accept() {
            Ok((sock, _peer)) => {
                if !draining {
                    accept_one(rt, server, sock);
                }
                // Mid-drain stragglers are dropped unanswered, exactly
                // like the races the blocking accept loop always had.
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::config(format_args!("accept failed: {e}"))),
        }
    }
}

/// Books one accepted connection in: capacity check, slot insert, epoll
/// registration.
fn accept_one(rt: &Arc<Reactor>, server: &Server, sock: TcpStream) {
    let shared = &rt.shared;
    let id = server.next_session_id();
    shared.counter("serve/connections_total").inc();
    let _ = sock.set_nodelay(true);
    if sock.set_nonblocking(true).is_err() {
        shared.counter("serve/sessions_rejected").inc();
        return;
    }

    let at_capacity = shared.active.load(Ordering::SeqCst) >= shared.max_sessions;
    let mut conn = Conn::new(id, sock, shared.max_frame_bytes, !at_capacity);
    let interest = if at_capacity {
        shared.counter("serve/sessions_rejected").inc();
        conn.queue_line(&HandshakeReply::rejected("server at capacity"));
        conn.phase = Phase::Closing;
        EPOLLOUT
    } else {
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.registry.gauge("serve/sessions_active").add(1);
        EPOLLIN
    };

    let fd = conn.sock.as_raw_fd();
    let slot = Arc::new(Slot {
        fd,
        conn: Mutex::new(conn),
    });
    // Insert before registering: a worker may get the first event the
    // instant the fd is armed.
    rt.insert(id, Arc::clone(&slot));
    if rt.poller.register(fd, id, interest).is_err() {
        let mut conn = slot.conn.lock();
        close_conn(rt, &mut conn);
    }
}

/// On drain start, sessions subscribed to a stream that never got a
/// publisher would wait forever; fail them so the drain completes.
fn fail_orphan_subscribers(rt: &Arc<Reactor>) {
    let tokens: Vec<u64> = rt
        .conns
        .iter()
        .flat_map(|shard| shard.lock().keys().copied().collect::<Vec<_>>())
        .collect();
    for token in tokens {
        let Some(slot) = rt.slot(token) else { continue };
        let mut conn = slot.conn.lock();
        let orphaned = matches!(conn.phase, Phase::Subscribe)
            && conn
                .subscribe
                .as_ref()
                .is_some_and(|(hub, _)| !hub.lock().has_publisher);
        if orphaned {
            fail_session(
                rt,
                &mut conn,
                "subscribe",
                "disconnect",
                "server drained before a publisher appeared".into(),
                None,
            );
            drive_flush_and_rearm(rt, &slot, &mut conn);
        }
    }
}

// ---------------------------------------------------------------------
// The per-connection drive
// ---------------------------------------------------------------------

/// What a phase step decided.
enum Step {
    /// Phase advanced; run the next phase's step in the same drive.
    Continue,
    /// Park: flush what's queued and re-arm with the phase's interest.
    Park,
    /// The connection is finished (already closed).
    Done,
}

/// Drives one connection as far as it can go without blocking, then
/// flushes and re-arms. The slot mutex is held throughout, so drives,
/// publisher kicks, and closes are mutually serialized per connection.
fn drive(rt: &Arc<Reactor>, slot: &Arc<Slot>, token: u64) {
    let mut conn = slot.conn.lock();
    if matches!(conn.phase, Phase::Closed) {
        return;
    }
    if let Some(parked_at) = conn.blocked_since.take() {
        conn.counters
            .blocked_write_ns
            .fetch_add(parked_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    debug_assert_eq!(conn.id, token);
    loop {
        let step = match conn.phase {
            Phase::Handshake => step_handshake(rt, slot, &mut conn),
            Phase::Ingest => step_ingest(rt, &mut conn),
            Phase::Drain => step_drain(rt, &mut conn),
            Phase::Subscribe => step_subscribe(rt, &mut conn),
            Phase::Closing => Step::Park,
            Phase::Linger { deadline } => step_linger(rt, &mut conn, deadline),
            Phase::Closed => Step::Done,
        };
        match step {
            Step::Continue => continue,
            Step::Park => break,
            Step::Done => return,
        }
    }
    drive_flush_and_rearm(rt, slot, &mut conn);
}

/// Common drive tail: push queued bytes, then close or re-arm.
fn drive_flush_and_rearm(rt: &Arc<Reactor>, slot: &Arc<Slot>, conn: &mut Conn) {
    if matches!(conn.phase, Phase::Closed) {
        return;
    }
    match conn.outbox.write_to(&mut &conn.sock) {
        Ok(true) => {
            if matches!(conn.phase, Phase::Closing) {
                close_conn(rt, conn);
                return;
            }
        }
        Ok(false) => {
            conn.blocked_since = Some(Instant::now());
        }
        Err(_) => {
            // The peer is gone; whatever we still owed it is moot. A
            // session that had completed its plan now counts as failed
            // on the wire (like the sink poison path); one that already
            // failed keeps its original classification.
            if matches!(conn.result, Some(SessionResult::Completed)) {
                conn.result = Some(SessionResult::Failed { protocol: true });
            }
            close_conn(rt, conn);
            return;
        }
    }
    let mut interest = match conn.phase {
        Phase::Handshake | Phase::Ingest | Phase::Linger { .. } => EPOLLIN,
        Phase::Drain | Phase::Closing => EPOLLOUT,
        // Subscribers watch for hangup; EPOLLOUT only while indebted —
        // otherwise a publisher kick re-arms the write side.
        Phase::Subscribe => EPOLLIN,
        Phase::Closed => return,
    };
    if !conn.outbox.is_empty() {
        interest |= EPOLLOUT;
    }
    if rt.poller.rearm(slot.fd, conn.id, interest).is_err() {
        close_conn(rt, conn);
    }
}

/// Reads everything available (up to the drive budget).
struct ReadEnd {
    eof: bool,
    error: Option<NetError>,
}

fn read_available(conn: &mut Conn) -> ReadEnd {
    let mut budget = READ_BUDGET;
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match (&conn.sock).read(&mut buf) {
            Ok(0) => {
                return ReadEnd {
                    eof: true,
                    error: None,
                }
            }
            Ok(n) => {
                conn.decoder.push(&buf[..n]);
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    // Yield the worker; the re-arm reports readiness
                    // again immediately.
                    return ReadEnd {
                        eof: false,
                        error: None,
                    };
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return ReadEnd {
                    eof: false,
                    error: None,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return ReadEnd {
                    eof: false,
                    error: Some(NetError::from_io(&e)),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

fn step_handshake(rt: &Arc<Reactor>, slot: &Arc<Slot>, conn: &mut Conn) -> Step {
    let shared = Arc::clone(&rt.shared);
    let end = read_available(conn);
    let frame = match conn.decoder.next() {
        Ok(Some(frame)) => frame,
        Ok(None) => {
            if end.eof || end.error.is_some() {
                // Disconnected before (or instead of) a handshake line.
                shared.counter("serve/sessions_rejected").inc();
                close_conn(rt, conn);
                return Step::Done;
            }
            return Step::Park;
        }
        Err(e) => {
            shared.counter("serve/protocol_errors").inc();
            shared.counter("serve/sessions_rejected").inc();
            conn.queue_line(&HandshakeReply::rejected(format!("bad handshake: {e}")));
            conn.phase = Phase::Closing;
            return Step::Park;
        }
    };
    let WireFrame::Line(line) = frame else {
        unreachable!("the handshake decoder is NDJSON");
    };
    let hs: Handshake = match serde_json::from_str(&line) {
        Ok(hs) => hs,
        Err(e) => {
            shared.counter("serve/protocol_errors").inc();
            shared.counter("serve/sessions_rejected").inc();
            conn.queue_line(&HandshakeReply::rejected(format!("bad handshake: {e}")));
            conn.phase = Phase::Closing;
            return Step::Park;
        }
    };

    match hs.session.as_deref() {
        None | Some("pollute") => open_pollute(&shared, conn, &hs),
        Some("telemetry") => open_telemetry(rt, &shared, slot, conn, &hs),
        Some("subscribe") => open_subscribe(&shared, conn, &hs),
        Some(other) => {
            shared.counter("serve/sessions_rejected").inc();
            conn.queue_line(&HandshakeReply::rejected(format!(
                "unknown session type `{other}` (expected pollute, subscribe, or telemetry)"
            )));
            conn.phase = Phase::Closing;
            Step::Park
        }
    }
}

fn open_pollute(shared: &Arc<Shared>, conn: &mut Conn, hs: &Handshake) -> Step {
    let (mut plan, format) = match crate::server::resolve(hs, &shared.plans) {
        Ok(resolved) => resolved,
        Err(reason) => {
            shared.counter("serve/sessions_rejected").inc();
            conn.queue_line(&HandshakeReply::rejected(reason));
            conn.phase = Phase::Closing;
            return Step::Park;
        }
    };
    // Checkpointing plans get a per-session WAL subdirectory: sessions
    // sharing a checkpoint dir must not overwrite each other's WAL.
    plan.scope_checkpoint_dir(&format!("session_{}", conn.id));

    // Publisher registration (shared-stream fan-out).
    if let Some(name) = &hs.stream {
        let hub = Arc::clone(
            shared
                .hubs
                .lock()
                .entry(name.clone())
                .or_insert_with(|| Arc::new(Mutex::new(HubState::default()))),
        );
        {
            let mut state = hub.lock();
            if state.has_publisher {
                shared.counter("serve/sessions_rejected").inc();
                conn.queue_line(&HandshakeReply::rejected(format!(
                    "stream `{name}` already has a publisher"
                )));
                conn.phase = Phase::Closing;
                return Step::Park;
            }
            state.has_publisher = true;
            state.format = Some(format);
        }
        conn.publish = Some(hub);
        conn.stream_name = Some(name.clone());
    }

    conn.queue_line(&HandshakeReply::accepted(
        conn.id,
        plan.strategy().to_string(),
        plan.logical().substreams(),
    ));
    shared.register_session(
        conn.id,
        conn.counters
            .handles("pollute", format, plan.repr_summary()),
    );
    conn.in_table = true;
    conn.coerce_schema = match format {
        WireFormat::Ndjson => Some(plan.schema().clone()),
        WireFormat::Binary => None,
    };
    conn.plan = Some(plan);
    conn.format = format;
    conn.decoder.set_format(format);
    conn.phase = Phase::Ingest;
    // Re-enter the loop: frames the client pipelined behind its
    // handshake are already sitting in the decoder.
    Step::Continue
}

fn open_subscribe(shared: &Arc<Shared>, conn: &mut Conn, hs: &Handshake) -> Step {
    let format = match hs.wire_format() {
        Ok(format) => format,
        Err(reason) => {
            shared.counter("serve/sessions_rejected").inc();
            conn.queue_line(&HandshakeReply::rejected(reason));
            conn.phase = Phase::Closing;
            return Step::Park;
        }
    };
    let Some(name) = &hs.stream else {
        shared.counter("serve/sessions_rejected").inc();
        conn.queue_line(&HandshakeReply::rejected(
            "subscribe sessions must name a `stream`",
        ));
        conn.phase = Phase::Closing;
        return Step::Park;
    };
    let hub = Arc::clone(
        shared
            .hubs
            .lock()
            .entry(name.clone())
            .or_insert_with(|| Arc::new(Mutex::new(HubState::default()))),
    );
    hub.lock().subscribers.push(conn.id);
    conn.subscribe = Some((hub, 0));
    conn.stream_name = Some(name.clone());
    conn.format = format;
    conn.queue_line(&HandshakeReply::accepted(conn.id, "subscribe".into(), 0));
    shared.register_session(
        conn.id,
        conn.counters.handles("subscribe", format, "-".into()),
    );
    conn.in_table = true;
    conn.phase = Phase::Subscribe;
    Step::Continue
}

/// Telemetry sessions are interval-driven and write a frame every few
/// hundred milliseconds — a thread apiece is the right shape, so the
/// event loop hands the socket off instead of multiplexing it.
fn open_telemetry(
    rt: &Arc<Reactor>,
    shared: &Arc<Shared>,
    slot: &Arc<Slot>,
    conn: &mut Conn,
    hs: &Handshake,
) -> Step {
    let format = match hs.wire_format() {
        Ok(format) => format,
        Err(reason) => {
            shared.counter("serve/sessions_rejected").inc();
            conn.queue_line(&HandshakeReply::rejected(reason));
            conn.phase = Phase::Closing;
            return Step::Park;
        }
    };
    // Flush anything queued (nothing, normally) plus the acceptance
    // reply on a blocking socket, then hand the stream to the thread.
    let _ = rt.poller.deregister(slot.fd);
    conn.phase = Phase::Closed;
    rt.remove(conn.id);
    let sock = match conn.sock.try_clone() {
        Ok(sock) => sock,
        Err(_) => {
            shared.counter("serve/sessions_failed").inc();
            release_active(shared, conn);
            return Step::Done;
        }
    };
    let _ = sock.set_nonblocking(false);
    let reply = HandshakeReply::accepted(conn.id, "telemetry".into(), 0);
    if crate::server::write_json_line(&sock, &reply).is_err() {
        shared.counter("serve/sessions_failed").inc();
        release_active(shared, conn);
        return Step::Done;
    }
    let id = conn.id;
    let counts_active = std::mem::take(&mut conn.counts_active);
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("icewafl-session-{id}"))
        .spawn(move || {
            run_telemetry_session(sock, &shared, id, format);
            if counts_active {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.registry.gauge("serve/sessions_active").sub(1);
            }
        })
        .expect("spawning a telemetry session thread");
    rt.telemetry_threads.lock().push(handle);
    Step::Done
}

fn release_active(shared: &Arc<Shared>, conn: &mut Conn) {
    if std::mem::take(&mut conn.counts_active) {
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.registry.gauge("serve/sessions_active").sub(1);
    }
}

// ---------------------------------------------------------------------
// Ingest → execute
// ---------------------------------------------------------------------

fn step_ingest(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    let end = read_available(conn);
    loop {
        match conn.decoder.next() {
            Ok(Some(frame)) => {
                let poll = decode_client_frame(frame).map(|poll| match poll {
                    NetPoll::Record(t) => match &conn.coerce_schema {
                        Some(schema) => NetPoll::Record(coerce_tuple(schema, t)),
                        None => NetPoll::Record(t),
                    },
                    NetPoll::Batch(batch) => match &conn.coerce_schema {
                        Some(schema) => NetPoll::Batch(
                            batch.into_iter().map(|t| coerce_tuple(schema, t)).collect(),
                        ),
                        None => NetPoll::Batch(batch),
                    },
                    end => end,
                });
                match poll {
                    Ok(NetPoll::Record(t)) => {
                        conn.input.push(t);
                        conn.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(NetPoll::Batch(batch)) => {
                        conn.input.extend(batch);
                        conn.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(NetPoll::End) => return execute(rt, conn),
                    Err(e) => return fail_ingest(rt, conn, e),
                }
            }
            Ok(None) => break,
            Err(e) => return fail_ingest(rt, conn, e),
        }
    }
    if let Some(e) = end.error {
        return fail_ingest(rt, conn, e);
    }
    if end.eof {
        return fail_ingest(rt, conn, NetError::Disconnected);
    }
    Step::Park
}

/// A typed transport failure while ingesting: answer with the same
/// error frame the poisoned `NetSource` path produced.
fn fail_ingest(rt: &Arc<Reactor>, conn: &mut Conn, e: NetError) -> Step {
    fail_session(
        rt,
        conn,
        "net_source",
        e.failure_kind().as_str(),
        e.to_string(),
        Some(e.code().to_string()),
    );
    Step::Continue
}

/// Queues the tail error frame and records the failure.
fn fail_session(
    rt: &Arc<Reactor>,
    conn: &mut Conn,
    stage: &str,
    kind: &str,
    message: String,
    protocol: Option<String>,
) {
    let frame = SessionErrorFrame {
        stage: stage.into(),
        kind: kind.into(),
        message,
        protocol: protocol.clone(),
    };
    conn.result = Some(SessionResult::Failed {
        protocol: protocol.is_some(),
    });
    conn.units.clear();
    let bytes: Arc<[u8]> =
        Arc::from(frame_bytes(&encode_error_frame(&frame, conn.format)).into_boxed_slice());
    publish_frame(rt, conn, &bytes, true);
    conn.outbox.push(bytes);
    conn.tail = None;
    conn.phase = Phase::Closing;
}

/// Collects pipeline output while preserving transport batch
/// boundaries, so drain-side framing mirrors the `NetSink` rules
/// (singletons → per-record frames, real batches → columnar frames).
#[derive(Clone)]
struct CollectSink {
    units: Arc<Mutex<VecDeque<Vec<StampedTuple>>>>,
}

impl Sink<StampedTuple> for CollectSink {
    fn write(&mut self, record: StampedTuple) {
        self.units.lock().push_back(vec![record]);
    }

    fn write_batch(&mut self, batch: Vec<StampedTuple>) {
        if !batch.is_empty() {
            self.units.lock().push_back(batch);
        }
    }
}

/// The end frame arrived: run the buffered input through the *same*
/// execution path offline runs use, then switch to draining the
/// collected output.
fn execute(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    let plan = conn.plan.take().expect("an ingesting session has a plan");
    let input = std::mem::take(&mut conn.input);
    let units = Arc::new(Mutex::new(VecDeque::new()));
    let sink = CollectSink {
        units: Arc::clone(&units),
    };
    let outcome = plan.execute_streaming(VecSource::new(input), sink);
    match outcome {
        Ok(report) => {
            conn.units = std::mem::take(&mut units.lock());
            conn.tail = Some(Arc::from(
                frame_bytes(&encode_report_frame(&report, conn.format)).into_boxed_slice(),
            ));
            conn.result = Some(SessionResult::Completed);
            conn.phase = Phase::Drain;
        }
        Err(error) => {
            let (stage, kind, message) = match error {
                Error::Pipeline {
                    stage,
                    kind,
                    message,
                } => (stage, kind, message),
                other => ("session".into(), "fatal".into(), other.to_string()),
            };
            fail_session(rt, conn, &stage, &kind, message, None);
        }
    }
    Step::Continue
}

// ---------------------------------------------------------------------
// Drain (and pre-serialized fan-out)
// ---------------------------------------------------------------------

/// Encodes one output unit to wire bytes, counting frames/bytes and
/// (sampled) encode time.
fn encode_unit(conn: &mut Conn, unit: &[StampedTuple]) -> Arc<[u8]> {
    let sample = conn.frames_encoded & ENCODE_SAMPLE_MASK == 0;
    let t0 = sample.then(Instant::now);
    let (bytes, frames) = match conn.format {
        WireFormat::Binary if unit.len() >= 2 => (frame_bytes(&encode_columns_frame(unit)), 1u64),
        format => {
            let mut out = Vec::new();
            for t in unit {
                out.extend_from_slice(&frame_bytes(&encode_stamped_frame(t, format)));
            }
            (out, unit.len() as u64)
        }
    };
    if let Some(t0) = t0 {
        conn.counters
            .encode_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    conn.frames_encoded += frames;
    conn.counters
        .frames_out
        .fetch_add(frames, Ordering::Relaxed);
    conn.counters
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    Arc::from(bytes.into_boxed_slice())
}

/// Appends an encoded frame to this session's hub (if it publishes) and
/// kicks subscribers; `done` marks the stream complete.
fn publish_frame(rt: &Arc<Reactor>, conn: &mut Conn, bytes: &Arc<[u8]>, done: bool) {
    let Some(hub) = &conn.publish else { return };
    let waiting: Vec<u64> = {
        let mut state = hub.lock();
        state.frames.push(Arc::clone(bytes));
        if done {
            state.done = true;
        }
        state.subscribers.clone()
    };
    for token in waiting {
        rt.kick(token);
    }
}

fn step_drain(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    loop {
        // Top up the outbox to the high-water mark.
        while conn.outbox.pending() < OUTBOX_HIGH {
            if let Some(unit) = conn.units.pop_front() {
                let bytes = encode_unit(conn, &unit);
                publish_frame(rt, conn, &bytes, false);
                conn.outbox.push(bytes);
            } else if let Some(tail) = conn.tail.take() {
                publish_frame(rt, conn, &tail, true);
                conn.outbox.push(tail);
            } else {
                // Everything encoded: the generic flush-then-close path
                // takes it from here.
                conn.phase = Phase::Closing;
                return Step::Park;
            }
        }
        match conn.outbox.write_to(&mut &conn.sock) {
            Ok(true) => continue,
            Ok(false) => return Step::Park,
            Err(_) => {
                if matches!(conn.result, Some(SessionResult::Completed)) {
                    conn.result = Some(SessionResult::Failed { protocol: true });
                }
                close_conn(rt, conn);
                return Step::Done;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Subscribe
// ---------------------------------------------------------------------

fn step_subscribe(rt: &Arc<Reactor>, conn: &mut Conn) -> Step {
    // A subscriber never sends data frames; consume (and discard) any
    // bytes so hangup is observable through the read side.
    let end = read_available(conn);
    if conn.decoder.buffered() > 0 {
        let _ = conn.decoder.take_residual();
    }
    if end.eof || end.error.is_some() {
        conn.result = Some(SessionResult::Failed { protocol: true });
        close_conn(rt, conn);
        return Step::Done;
    }

    let Some((hub, cursor)) = conn.subscribe.clone() else {
        close_conn(rt, conn);
        return Step::Done;
    };
    let mut cursor = cursor;
    let finished = {
        let state = hub.lock();
        if let Some(hub_format) = state.format {
            if hub_format != conn.format {
                drop(state);
                fail_session(
                    rt,
                    conn,
                    "subscribe",
                    "fatal",
                    format!(
                        "stream format mismatch: publisher speaks {}, subscriber asked for {}",
                        hub_format.as_str(),
                        conn.format.as_str()
                    ),
                    None,
                );
                return Step::Continue;
            }
        }
        while cursor < state.frames.len() && conn.outbox.pending() < OUTBOX_HIGH {
            let bytes = Arc::clone(&state.frames[cursor]);
            cursor += 1;
            conn.counters.frames_out.fetch_add(1, Ordering::Relaxed);
            conn.counters
                .bytes_out
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            conn.outbox.push(bytes);
        }
        state.done && cursor == state.frames.len()
    };
    conn.subscribe = Some((hub, cursor));
    if finished {
        conn.result = Some(SessionResult::Completed);
        conn.phase = Phase::Closing;
    }
    Step::Park
}

// ---------------------------------------------------------------------
// Close
// ---------------------------------------------------------------------

/// Final bookkeeping for one connection: result counters, global frame
/// counters, session-table row, capacity slot, hub detach — then the
/// socket lingers half-closed (see [`linger`]). Safe to call from any
/// phase; idempotent via the `Linger` and `Closed` phases.
fn close_conn(rt: &Arc<Reactor>, conn: &mut Conn) {
    if matches!(conn.phase, Phase::Linger { .. } | Phase::Closed) {
        return;
    }
    conn.phase = Phase::Closed;
    let shared = Arc::clone(&rt.shared);

    match conn.result.take() {
        Some(SessionResult::Completed) => {
            shared.counter("serve/sessions_completed").inc();
        }
        Some(SessionResult::Failed { protocol }) => {
            shared.counter("serve/sessions_failed").inc();
            if protocol {
                shared.counter("serve/protocol_errors").inc();
            }
        }
        None => {}
    }
    let frames_in = conn.counters.frames_in.load(Ordering::Relaxed);
    let frames_out = conn.counters.frames_out.load(Ordering::Relaxed);
    if frames_in > 0 {
        shared.counter("serve/frames_in").add(frames_in);
    }
    if frames_out > 0 {
        shared.counter("serve/frames_out").add(frames_out);
    }

    if std::mem::take(&mut conn.in_table) {
        shared.remove_session(conn.id);
    }
    release_active(&shared, conn);

    // Publisher: seal the hub (synthesizing a failure frame if the
    // stream never completed) and retire the name.
    if let Some(hub) = conn.publish.take() {
        let waiting: Vec<u64> = {
            let mut state = hub.lock();
            if !state.done {
                let frame = SessionErrorFrame {
                    stage: "publisher".into(),
                    kind: "disconnect".into(),
                    message: "publisher session ended before completing its stream".into(),
                    protocol: None,
                };
                let format = state.format.unwrap_or(WireFormat::Binary);
                state.frames.push(Arc::from(
                    frame_bytes(&encode_error_frame(&frame, format)).into_boxed_slice(),
                ));
                state.done = true;
            }
            state.has_publisher = false;
            state.subscribers.clone()
        };
        if let Some(name) = &conn.stream_name {
            shared.hubs.lock().remove(name);
        }
        for token in waiting {
            rt.kick(token);
        }
    }
    // Subscriber: detach, and garbage-collect a publisher-less hub
    // placeholder once the last subscriber leaves.
    if let Some((hub, _)) = conn.subscribe.take() {
        let id = conn.id;
        let empty = {
            let mut state = hub.lock();
            state.subscribers.retain(|t| *t != id);
            state.subscribers.is_empty() && !state.has_publisher
        };
        if empty {
            if let Some(name) = &conn.stream_name {
                let mut hubs = shared.hubs.lock();
                if hubs.get(name).is_some_and(|h| Arc::ptr_eq(h, &hub)) {
                    hubs.remove(name);
                }
            }
        }
    }

    linger(rt, conn);
}

/// Half-closes a finished connection instead of dropping it. Closing a
/// socket whose receive queue holds unread bytes makes the kernel answer
/// with RST, and an RST can overtake — and discard — the reply still in
/// flight to the peer (a capacity rejection racing the client's
/// handshake line). So: send FIN after the queued bytes, discard input,
/// and drop the socket only once the peer hangs up or
/// [`LINGER_TIMEOUT`] passes.
fn linger(rt: &Arc<Reactor>, conn: &mut Conn) {
    // Whatever the outbox still holds is moot: a clean close only
    // happens once it has flushed.
    conn.outbox = WriteQueue::new();
    let _ = conn.sock.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + LINGER_TIMEOUT;
    conn.phase = Phase::Linger { deadline };
    if discard_input(conn)
        || rt
            .poller
            .rearm(conn.sock.as_raw_fd(), conn.id, EPOLLIN)
            .is_err()
    {
        release_socket(rt, conn);
        return;
    }
    rt.lingering.lock().push((conn.id, deadline));
}

/// One drive of a lingering connection: drop it once the peer has hung
/// up or the deadline has passed, else keep waiting.
fn step_linger(rt: &Arc<Reactor>, conn: &mut Conn, deadline: Instant) -> Step {
    if discard_input(conn) || Instant::now() >= deadline {
        release_socket(rt, conn);
        return Step::Done;
    }
    Step::Park
}

/// Reads and drops whatever the peer sent (up to the drive budget);
/// `true` once the peer has hung up (EOF) or the socket failed.
fn discard_input(conn: &mut Conn) -> bool {
    let mut budget = READ_BUDGET;
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match (&conn.sock).read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Deregisters and drops a connection's socket: the terminal step.
fn release_socket(rt: &Arc<Reactor>, conn: &mut Conn) {
    conn.phase = Phase::Closed;
    let _ = rt.poller.deregister(conn.sock.as_raw_fd());
    rt.remove(conn.id);
}
