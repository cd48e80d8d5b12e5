//! The served workload: an open-loop, single-threaded load generator
//! against the release `icewafl serve` binary in its own process.
//!
//! Each round runs twelve sessions, one per station, each uploading its
//! station's 35,064 tuples in the binary wire format. Sessions start on
//! a fixed schedule (at most `max_in_flight` at once) and each session's
//! tuples are due at a fixed rate, fast enough that the upload is short
//! next to the server's work. A tuple's latency runs from its due time
//! to the arrival of the polluted tuple with the same id, so a session
//! that waits for a free slot (the server is still busy with earlier
//! ones) counts that wait as latency. All sockets are non-blocking and
//! served from one loop, so the generator keeps its schedule whether the
//! server answers during the upload or after it.

use crate::spans::{SpanId, Tracer};
use crate::stats::{latencies_by_id, MatchError};
use crate::workloads::{station_streams, SetupTimes, Workload};
use icewafl_core::plan::LogicalPlan;
use icewafl_core::RunReport;
use icewafl_data::airquality;
use icewafl_serve::protocol::{
    decode_server_frame, encode_end_frame, encode_stamped, encode_tuple_columns_frame,
    encode_tuple_frame, Handshake, HandshakeReply, ServerEvent,
};
use icewafl_stream::net::{
    frame_bytes, FrameDecoder, WireFormat, WireFrame, WriteQueue, DEFAULT_MAX_FRAME_BYTES,
};
use icewafl_types::{StampedTuple, Tuple};
use std::hash::Hasher;
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Tuples per upload frame at most (the reference client's batch).
const UPLOAD_BATCH: usize = 512;
/// A session's tuples are due at this rate: a station's 35,064 tuples
/// take 70 ms, short next to the ~130 ms the server then needs to
/// pollute and return them, so the server's work dominates every
/// latency.
const UPLOAD_TUPLES_PER_S: f64 = 500_000.0;
/// Sessions per station in a run.
const ROUNDS: usize = 2;
/// A generator that sends a tuple, or starts a session, later than this
/// after it could have (it was due and a slot was free) makes the run
/// invalid.
pub const LAG_LIMIT_MS: f64 = 25.0;
/// The generator's polling period, ms.
const TICK_MS: f64 = 1.0;
/// How long past its schedule a run waits for the server before
/// failing the sessions still open.
const RUN_GRACE: Duration = Duration::from_secs(45);

fn since_ms(epoch: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(epoch).as_secs_f64() * 1e3
}

fn at(epoch: Instant, ms: f64) -> Instant {
    epoch + Duration::from_secs_f64(ms.max(0.0) / 1e3)
}

/// The `icewafl serve` process; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Starts `bin serve` on an ephemeral port and waits until it
    /// prints `listening on HOST:PORT`. Its stdout goes to `log`.
    pub fn start(bin: &Path, log: &Path) -> Result<Self, String> {
        let out = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not print `listening on` within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A set-up served workload: a listening server, the station streams
/// and the offline reference of every session.
pub struct Served {
    server: ServerProc,
    stations: Vec<Vec<Tuple>>,
    plan: LogicalPlan,
    /// Per station: digest of the offline run's encoded tuples, count.
    references: Vec<(u64, usize)>,
}

fn stamped_digest<'a>(tuples: impl IntoIterator<Item = &'a StampedTuple>) -> (u64, usize) {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut n = 0;
    for t in tuples {
        h.write(&encode_stamped(t));
        n += 1;
    }
    (h.finish(), n)
}

/// Sets the served workload up `reps` times (each starting its own
/// server; all but the last are stopped) and computes every session's
/// offline reference, which no set-up time includes.
pub fn set_up(
    seed: u64,
    bin: &Path,
    scratch: &Path,
    reps: usize,
    tracer: &mut Tracer,
    group: &mut u64,
) -> Result<(Served, Vec<SetupTimes>), String> {
    let schema = airquality::schema();
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        // Stop the previous set-up's server before starting the next.
        drop(last.take());
        *group += 1;
        let t0 = Instant::now();
        let stations = station_streams(seed);
        let t1 = Instant::now();
        let plan = Workload::ServeBinary.plan(seed);
        let physical = plan.compile(&schema).map_err(|e| format!("compile: {e}"))?;
        let t2 = Instant::now();
        let log: PathBuf = scratch.join(format!("serve-{}-{rep}.log", std::process::id()));
        let server = ServerProc::start(bin, &log)?;
        let t3 = Instant::now();
        let root = tracer.record("bench.setup", *group, None, t0, t3);
        tracer.record("data.generate", *group, Some(root), t0, t1);
        tracer.record("core.plan.compile", *group, Some(root), t1, t2);
        tracer.record("serve.start", *group, Some(root), t2, t3);
        times.push(SetupTimes {
            setup_s: (t3 - t0).as_secs_f64(),
            generate_ms: (t1 - t0).as_secs_f64() * 1e3,
            compile_ms: (t2 - t1).as_secs_f64() * 1e3,
        });
        last = Some((server, stations, plan, physical));
    }
    let (server, stations, plan, physical) = last.expect("at least one set-up ran");
    let mut references = Vec::with_capacity(stations.len());
    for s in &stations {
        let out = physical
            .execute(s.clone())
            .map_err(|e| format!("offline reference: {e}"))?;
        references.push(stamped_digest(&out.polluted));
    }
    Ok((
        Served {
            server,
            stations,
            plan,
            references,
        },
        times,
    ))
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// Connect to handshake reply, ms.
    pub handshake_ms: f64,
    /// First upload frame queued to end frame written, ms.
    pub upload_ms: f64,
    /// Time the socket refused upload bytes, ms.
    pub upload_blocked_ms: f64,
    /// End frame written to report received, ms.
    pub drain_ms: f64,
    /// Upload frame encoding, ms.
    pub encode_ms: f64,
    /// Server frame decoding, ms.
    pub decode_ms: f64,
    /// Session due start to its first polluted tuple, ms.
    pub first_output_ms: Option<f64>,
    /// Session due start to its report, ms.
    pub session_ms: f64,
    /// Bytes the generator sent.
    pub bytes_in: u64,
    /// Bytes the server sent.
    pub bytes_out: u64,
    /// Frames the server sent after its handshake reply.
    pub frames_out: u64,
    /// Polluted tuples received.
    pub tuples_out: usize,
    /// Per tuple: due time to arrival of the same id, ms.
    pub latencies_ms: Vec<f64>,
    /// Per tuple: how late the generator sent it, after it was due and
    /// its session was free to start, ms.
    pub lags_ms: Vec<f64>,
    /// Due start until a slot was free: the in-flight cap held the
    /// session back because earlier sessions were still running, ms.
    pub slot_wait_ms: f64,
    /// How late the generator started the session once it was due and
    /// a slot was free, ms.
    pub start_lag_ms: f64,
    /// The session's report frame.
    pub report: Option<RunReport>,
    /// Why the session failed, if it did.
    pub failure: Option<String>,
}

/// The result of one open-loop run.
pub struct ServeRun {
    /// Per session, in start order.
    pub sessions: Vec<SessionStats>,
    /// First due start to last report, ms.
    pub wall_ms: f64,
    /// Tuples per second the schedule offers.
    pub offered_per_s: f64,
    /// Sessions the generator keeps in flight at most.
    pub max_in_flight: usize,
}

/// The open-loop schedule for a run of `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Between session starts, ms.
    pub start_every_ms: f64,
    /// Between two tuples of one session, ms.
    pub tuple_every_ms: f64,
    /// Sessions in flight at most.
    pub max_in_flight: usize,
}

impl Schedule {
    /// Spreads `sessions` starts evenly over `seconds`; each session's
    /// tuples are due at [`UPLOAD_TUPLES_PER_S`].
    pub fn new(seconds: f64, sessions: usize, max_in_flight: usize) -> Self {
        Schedule {
            start_every_ms: seconds * 1e3 / sessions.max(1) as f64,
            tuple_every_ms: 1e3 / UPLOAD_TUPLES_PER_S,
            max_in_flight: max_in_flight.max(1),
        }
    }
}

struct Session<'a> {
    k: usize,
    tuples: &'a [Tuple],
    due_start_ms: f64,
    step_ms: f64,
    group: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    queue: WriteQueue,
    replied: bool,
    next: usize,
    end_queued: bool,
    upload_start_ms: Option<f64>,
    end_written_ms: Option<f64>,
    started_ms: f64,
    ready_ms: f64,
    done_ms: Option<f64>,
    blocked_since: Option<f64>,
    arrivals: Vec<(u64, f64)>,
    hasher: std::collections::hash_map::DefaultHasher,
    root: SpanId,
    done: bool,
    stats: SessionStats,
}

impl<'a> Session<'a> {
    /// Opens session `k`, which could have started at `ready_ms` (its
    /// due start, or later if the in-flight cap was full then).
    #[allow(clippy::too_many_arguments)]
    fn open(
        k: usize,
        ready_ms: f64,
        tuples: &'a [Tuple],
        plan: &LogicalPlan,
        addr: &str,
        sched: Schedule,
        epoch: Instant,
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let group = 1000 + k as u64;
        let root = tracer.begin("serve.session", group, None);
        let started_ms = since_ms(epoch, Instant::now());
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let handshake = Handshake {
            plan_inline: Some(plan.clone()),
            schema: Some("airquality".into()),
            format: Some("binary".into()),
            ..Handshake::default()
        };
        let line = serde_json::to_string(&handshake).map_err(|e| e.to_string())?;
        let mut queue = WriteQueue::new();
        queue.push(frame_bytes(&WireFrame::Line(line)).into());
        let due_start_ms = k as f64 * sched.start_every_ms;
        Ok(Session {
            k,
            tuples,
            due_start_ms,
            step_ms: sched.tuple_every_ms,
            group,
            stream,
            decoder: FrameDecoder::new(WireFormat::Ndjson, DEFAULT_MAX_FRAME_BYTES),
            queue,
            replied: false,
            next: 0,
            end_queued: false,
            upload_start_ms: None,
            end_written_ms: None,
            started_ms,
            ready_ms,
            done_ms: None,
            blocked_since: None,
            arrivals: Vec::with_capacity(tuples.len()),
            hasher: Default::default(),
            root,
            done: false,
            stats: SessionStats {
                slot_wait_ms: ready_ms - due_start_ms,
                start_lag_ms: started_ms - ready_ms,
                ..SessionStats::default()
            },
        })
    }

    fn due_ms(&self, i: usize) -> f64 {
        self.due_start_ms + i as f64 * self.step_ms
    }

    fn fail(&mut self, why: String) {
        if self.stats.failure.is_none() {
            self.stats.failure = Some(why);
        }
        self.done = true;
    }

    /// Sends what is due, writes what the socket takes, and decodes what
    /// arrived. Returns whether bytes arrived (more may be waiting).
    fn pump(&mut self, epoch: Instant, tracer: &mut Tracer) -> bool {
        let mut progress = false;
        let now_ms = since_ms(epoch, Instant::now());
        if !self.end_queued && now_ms >= self.due_start_ms {
            let due = (((now_ms - self.due_start_ms) / self.step_ms).floor() as usize + 1)
                .min(self.tuples.len());
            while self.next < due {
                let end = (self.next + UPLOAD_BATCH).min(due);
                let chunk = &self.tuples[self.next..end];
                let t0 = Instant::now();
                let frame = if chunk.len() >= 2 {
                    encode_tuple_columns_frame(chunk)
                } else {
                    encode_tuple_frame(&chunk[0], WireFormat::Binary)
                };
                let bytes = frame_bytes(&frame);
                let t1 = Instant::now();
                tracer.record("serve.protocol.encode", self.group, Some(self.root), t0, t1);
                self.stats.encode_ms += (t1 - t0).as_secs_f64() * 1e3;
                self.stats.bytes_in += bytes.len() as u64;
                self.queue.push(bytes.into());
                for i in self.next..end {
                    let sendable = self.due_ms(i).max(self.ready_ms);
                    self.stats.lags_ms.push(now_ms - sendable);
                }
                self.upload_start_ms.get_or_insert(now_ms);
                self.next = end;
            }
            if self.next == self.tuples.len() {
                let end = frame_bytes(&encode_end_frame(WireFormat::Binary));
                self.stats.bytes_in += end.len() as u64;
                self.queue.push(end.into());
                self.end_queued = true;
            }
        }
        if !self.queue.is_empty() {
            match self.queue.write_to(&mut self.stream) {
                Ok(drained) => {
                    let now_ms = since_ms(epoch, Instant::now());
                    if drained {
                        if let Some(since) = self.blocked_since.take() {
                            self.stats.upload_blocked_ms += now_ms - since;
                        }
                        if self.end_queued && self.end_written_ms.is_none() {
                            self.end_written_ms = Some(now_ms);
                        }
                    } else {
                        self.blocked_since.get_or_insert(now_ms);
                    }
                }
                Err(e) => {
                    self.fail(format!("write: {e}"));
                    return true;
                }
            }
        }
        // One read per pump: a session draining megabytes of output must
        // not hold up the other session's due tuples.
        let mut buf = [0u8; 64 * 1024];
        let mut eof = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => eof = true,
                Ok(n) => {
                    self.decoder.push(&buf[..n]);
                    self.stats.bytes_out += n as u64;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fail(format!("read: {e}"));
                    return true;
                }
            }
            break;
        }
        let arrived_ms = since_ms(epoch, Instant::now());
        loop {
            let frame = match self.decoder.next() {
                Ok(Some(frame)) => frame,
                Ok(None) if eof => {
                    self.fail("server closed the session before its report".into());
                    return true;
                }
                Ok(None) => break,
                Err(e) => {
                    self.fail(format!("frame: {e}"));
                    return true;
                }
            };
            if !self.replied {
                let reply: Result<HandshakeReply, _> = match &frame {
                    WireFrame::Line(line) => serde_json::from_str(line).map_err(|e| e.to_string()),
                    WireFrame::Binary { .. } => Err("binary frame before the reply".into()),
                };
                match reply {
                    Ok(r) if r.ok => {
                        self.replied = true;
                        self.stats.handshake_ms = arrived_ms - self.started_ms;
                        tracer.record(
                            "serve.handshake",
                            self.group,
                            Some(self.root),
                            at(epoch, self.started_ms),
                            at(epoch, arrived_ms),
                        );
                        self.decoder.set_format(WireFormat::Binary);
                        continue;
                    }
                    Ok(r) => self.fail(format!("rejected: {}", r.error.unwrap_or_default())),
                    Err(e) => self.fail(format!("bad handshake reply: {e}")),
                }
                return true;
            }
            self.stats.frames_out += 1;
            let t0 = Instant::now();
            let event = decode_server_frame(frame);
            let t1 = Instant::now();
            tracer.record("serve.protocol.decode", self.group, Some(self.root), t0, t1);
            self.stats.decode_ms += (t1 - t0).as_secs_f64() * 1e3;
            match event {
                Ok(ServerEvent::Batch(batch)) => {
                    batch.iter().for_each(|t| self.arrive(t, arrived_ms))
                }
                Ok(ServerEvent::Tuple(t)) => self.arrive(&t, arrived_ms),
                Ok(ServerEvent::Report(report)) => {
                    self.stats.report = Some(*report);
                    self.finish(epoch, arrived_ms, tracer);
                    return true;
                }
                Ok(ServerEvent::Error(e)) => {
                    self.fail(format!("session error at {}: {}", e.stage, e.message));
                    return true;
                }
                Ok(ServerEvent::Telemetry(_)) => {
                    self.fail("telemetry frame in a pollute session".into());
                    return true;
                }
                Err(e) => {
                    self.fail(format!("decode: {e}"));
                    return true;
                }
            }
        }
        progress
    }

    fn arrive(&mut self, t: &StampedTuple, at_ms: f64) {
        self.stats
            .first_output_ms
            .get_or_insert(at_ms - self.due_start_ms);
        self.arrivals.push((t.id, at_ms));
        self.hasher.write(&encode_stamped(t));
    }

    fn finish(&mut self, epoch: Instant, done_ms: f64, tracer: &mut Tracer) {
        self.done = true;
        self.done_ms = Some(done_ms);
        self.stats.session_ms = done_ms - self.due_start_ms;
        let upload_start = self.upload_start_ms.unwrap_or(self.started_ms);
        let end_written = self.end_written_ms.unwrap_or(done_ms);
        self.stats.upload_ms = end_written - upload_start;
        self.stats.drain_ms = done_ms - end_written;
        self.stats.tuples_out = self.arrivals.len();
        tracer.record(
            "serve.upload",
            self.group,
            Some(self.root),
            at(epoch, upload_start),
            at(epoch, end_written),
        );
        tracer.record(
            "serve.drain",
            self.group,
            Some(self.root),
            at(epoch, end_written),
            at(epoch, done_ms),
        );
        tracer.end(self.root, at(epoch, done_ms));
    }

    /// Checks the session against its offline reference and computes
    /// the id-matched latencies.
    fn into_stats(mut self, reference: (u64, usize)) -> SessionStats {
        if self.stats.failure.is_none() {
            let got = (self.hasher.finish(), self.arrivals.len());
            if got != reference {
                self.stats.failure = Some(format!(
                    "session {}: {} tuples not byte-identical to the offline run ({} tuples)",
                    self.k, got.1, reference.1
                ));
            }
        }
        let due: Vec<f64> = (0..self.tuples.len()).map(|i| self.due_ms(i)).collect();
        match latencies_by_id(&due, &self.arrivals) {
            Ok(l) => self.stats.latencies_ms = l,
            Err(e) => {
                let why = match e {
                    MatchError::UnknownId(id) => format!("unknown tuple id {id}"),
                    MatchError::Duplicate(id) => format!("tuple id {id} arrived twice"),
                    MatchError::Missing(n) => format!("{n} tuples lost"),
                };
                self.stats
                    .failure
                    .get_or_insert(format!("session {}: {why}", self.k));
            }
        }
        self.stats
    }
}

impl Served {
    /// Runs [`ROUNDS`] sessions per station on `sched`, stations in turn.
    pub fn run(&self, sched: Schedule, tracer: &mut Tracer) -> ServeRun {
        let epoch = Instant::now();
        let n_sessions = self.sessions();
        let station = |k: usize| k % self.stations.len();
        let schedule_ms = n_sessions as f64 * sched.start_every_ms;
        let timeout = Duration::from_secs_f64(schedule_ms / 1e3) + RUN_GRACE;
        let mut open: Vec<Session> = Vec::new();
        let mut finished: Vec<(usize, SessionStats)> = Vec::new();
        let mut next_start = 0;
        // When a session last left a full in-flight cap: a session due
        // before then could not have started earlier.
        let mut cap_freed_ms = 0.0f64;
        loop {
            let now_ms = since_ms(epoch, Instant::now());
            while next_start < n_sessions
                && open.len() < sched.max_in_flight
                && now_ms >= next_start as f64 * sched.start_every_ms
            {
                let k = next_start;
                next_start += 1;
                let ready_ms = (k as f64 * sched.start_every_ms).max(cap_freed_ms);
                match Session::open(
                    k,
                    ready_ms,
                    &self.stations[station(k)],
                    &self.plan,
                    &self.server.addr,
                    sched,
                    epoch,
                    tracer,
                ) {
                    Ok(s) => open.push(s),
                    Err(e) => finished.push((
                        k,
                        SessionStats {
                            failure: Some(e),
                            ..SessionStats::default()
                        },
                    )),
                }
            }
            let mut progress = false;
            for s in &mut open {
                progress |= s.pump(epoch, tracer);
            }
            let was_full = open.len() >= sched.max_in_flight;
            let (done, still): (Vec<_>, Vec<_>) = open.into_iter().partition(|s| s.done);
            open = still;
            for s in done {
                if was_full {
                    let done_ms = s.done_ms.unwrap_or_else(|| since_ms(epoch, Instant::now()));
                    cap_freed_ms = cap_freed_ms.max(done_ms);
                }
                let k = s.k;
                finished.push((k, s.into_stats(self.references[station(k)])));
            }
            if next_start == n_sessions && open.is_empty() {
                break;
            }
            if epoch.elapsed() > timeout {
                for mut s in open.drain(..) {
                    s.fail(format!("no report within {} s", timeout.as_secs()));
                    let k = s.k;
                    finished.push((k, s.into_stats(self.references[station(k)])));
                }
                break;
            }
            if !progress {
                // Nothing arrived: sleep one tick (or until the next
                // session is due). Tuples that fall due meanwhile go out
                // together in one frame, so sends run at most a tick late
                // and arrivals are stamped within a tick.
                let now_ms = since_ms(epoch, Instant::now());
                let mut wake = now_ms + TICK_MS;
                if next_start < n_sessions && open.len() < sched.max_in_flight {
                    wake = wake.min(next_start as f64 * sched.start_every_ms);
                }
                if wake > now_ms {
                    std::thread::sleep(Duration::from_secs_f64((wake - now_ms) / 1e3));
                }
            }
        }
        let wall_ms = since_ms(epoch, Instant::now());
        finished.sort_by_key(|(k, _)| *k);
        let total = n_sessions * self.tuples_per_session();
        let last_due = (n_sessions.saturating_sub(1)) as f64 * sched.start_every_ms
            + self.tuples_per_session() as f64 * sched.tuple_every_ms;
        ServeRun {
            sessions: finished.into_iter().map(|(_, s)| s).collect(),
            wall_ms,
            offered_per_s: total as f64 / (last_due / 1e3),
            max_in_flight: sched.max_in_flight,
        }
    }

    /// Tuples per session.
    pub fn tuples_per_session(&self) -> usize {
        self.stations.first().map_or(0, Vec::len)
    }

    /// Sessions per run.
    pub fn sessions(&self) -> usize {
        self.stations.len() * ROUNDS
    }

    /// The server's peak resident set so far, in MB.
    pub fn server_peak_rss_mb(&self) -> Option<f64> {
        self.server.peak_rss_mb()
    }
}
