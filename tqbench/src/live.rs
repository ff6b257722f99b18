//! The two live workloads: the threaded runtime behind the batched UDP
//! front end, over loopback, driven by one client thread.
//!
//! * `net_flood` — a closed loop: one client socket keeps
//!   [`FLOOD_WINDOW`] zero-service requests outstanding. Per-packet cost
//!   dominates; this is the capacity number.
//! * `kv_open` — an open loop: a Poisson schedule of tq-kv GET/SCAN
//!   requests (Table 1 RocksDB, 0.5% SCAN) drawn in set-up and paced at
//!   [`KV_RATE_RPS`], below the knee. Each request is timed from its due
//!   send time.
//!
//! Both run `ServerConfig::default()` with one worker, so the threads
//! are the client, the serve loop, `tq-dispatcher` and `tq-worker-0`.

use crate::trace::{self, pct, ratio, Hist, IoTally, JobSink, SpanLog, Traced};
use crate::{metric, Metric, Outcome};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use tq_core::{Nanos, Request};
use tq_harness::{Pacer, RunSpec};
use tq_runtime::kv::{kv_factory, kv_store};
use tq_runtime::net::{decode_response, encode_request, serve, NetConfig, ServeOutcome};
use tq_runtime::server::JobFactory;
use tq_runtime::transport::{set_socket_buffers, Frame, Transport, UdpTransport, MAX_BATCH};
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};
use tq_workloads::{table1, ArrivalProcess};

/// Requests the flood client keeps outstanding.
const FLOOD_WINDOW: u64 = 64;
/// Slots of the flood client's ring: a request still unanswered when its
/// slot comes round again, a thousand windows later, is lost.
const FLOOD_RING: usize = 1 << 16;
/// Offered rate of `kv_open`: below the knee on a 2-core host (20 krps
/// held with zero loss there; 60 krps built a backlog of seconds).
const KV_RATE_RPS: f64 = 20_000.0;
/// The store `tq-loadgen` serves.
const KV_KEYS: u64 = 200_000;
const KV_VALUE_BYTES: usize = 100;
const KV_SCAN_LEN: usize = 20_000;
/// Socket buffers on both ends, as `tq-loadgen` sets them: an open-loop
/// backlog during a host stall must queue, not drop.
const SOCKET_BUFFER_BYTES: usize = 4 << 20;
/// Each session runs its load this long before the measured window, and
/// records nothing of it: the first second of a `kv_open` session ran
/// its GET median up to five times the rest's.
const WARMUP_NS: u64 = 2_000_000_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Goodput is the median over slices of this length.
const SLICE_NS: u64 = 250_000_000;
/// A run gives up on outstanding requests after this long without a
/// response; they count as lost.
const DRAIN_NS: u64 = 2_000_000_000;
/// The open-loop client blocks on its socket until this long before the
/// next due time, then lets the `Pacer` spin the rest.
const KV_SPIN_NS: u64 = 20_000;
/// Names of the threads whose CPU time is read from `/proc`.
const SERVE_THREAD: &str = "tqb-serve";
const DISPATCHER_THREAD: &str = "tq-dispatcher";
const WORKER_THREAD: &str = "tq-worker-0";
/// The tag of a slot no request has used yet.
const NONE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Flood,
    Kv,
}

/// What the serve thread hands back: the session ledger, and with
/// tracing the transport tallies and spans.
struct Served {
    outcome: ServeOutcome,
    io: Option<(IoTally, IoTally, SpanLog)>,
}

/// A started server with its client socket, ready for the first request.
struct Session {
    clock: TscClock,
    srv_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    serve: JoinHandle<io::Result<Served>>,
    client: UdpTransport,
    schedule: Vec<Request>,
    sink: Option<Arc<JobSink>>,
}

/// Everything from clock calibration to the first request: KV populate,
/// server start, sockets, and for `kv_open` the schedule pre-draw.
fn setup(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Session {
    let clock = TscClock::calibrated();
    let config = ServerConfig {
        workers: 1,
        seed,
        ..ServerConfig::default()
    };
    let sink = traced.then(|| JobSink::new(clock.clone(), config.quantum));
    let factory: Box<JobFactory> = match kind {
        Kind::Flood => {
            let job_clock = clock.clone();
            Box::new(move |req| Box::new(SpinJob::with_clock(req, &job_clock)))
        }
        Kind::Kv => kv_factory(
            kv_store(seed, KV_KEYS, KV_VALUE_BYTES),
            KV_KEYS,
            KV_SCAN_LEN,
        ),
    };
    let factory: Box<JobFactory> = match &sink {
        Some(sink) => {
            let sink = Arc::clone(sink);
            Box::new(move |req| sink.wrap(req, factory(req)))
        }
        None => factory,
    };
    let server = TinyQuanta::start_with_clock(config, clock.clone(), factory);

    let srv_socket = UdpSocket::bind("127.0.0.1:0").expect("bind server socket");
    set_socket_buffers(&srv_socket, SOCKET_BUFFER_BYTES).expect("server socket buffers");
    let srv_addr = srv_socket.local_addr().expect("server address");
    let stop = Arc::new(AtomicBool::new(false));
    let serve = {
        let stop = Arc::clone(&stop);
        let clock = clock.clone();
        std::thread::Builder::new()
            .name(SERVE_THREAD.into())
            .spawn(move || -> io::Result<Served> {
                let transport = UdpTransport::batched(srv_socket)?;
                let config = NetConfig::default();
                if traced {
                    let mut t = Traced::new(transport, clock);
                    let outcome = serve(server, &mut t, &stop, &config)?;
                    Ok(Served {
                        outcome,
                        io: Some(t.finish()),
                    })
                } else {
                    let mut t = transport;
                    let outcome = serve(server, &mut t, &stop, &config)?;
                    Ok(Served { outcome, io: None })
                }
            })
            .expect("spawn serve thread")
    };

    let client_socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    set_socket_buffers(&client_socket, SOCKET_BUFFER_BYTES).expect("client socket buffers");
    let client = UdpTransport::batched(client_socket).expect("client transport");

    let schedule = match kind {
        Kind::Flood => Vec::new(),
        Kind::Kv => {
            let horizon = Nanos::from_nanos_f64(WARMUP_NS as f64 + seconds * 1e9);
            RunSpec {
                workload: table1::rocksdb_low_scan(),
                process: ArrivalProcess::Poisson,
                rate_rps: KV_RATE_RPS,
                horizon,
                seed,
            }
            .arrivals()
            .until(horizon)
        }
    };
    Session {
        clock,
        srv_addr,
        stop,
        serve,
        client,
        schedule,
        sink,
    }
}

impl Session {
    /// Stops the serve loop once every admitted request is answered and
    /// joins it.
    fn close(self) -> (Served, Option<Arc<JobSink>>) {
        self.stop.store(true, Ordering::Release);
        let served = self
            .serve
            .join()
            .expect("serve thread panicked")
            .expect("serve loop failed");
        (served, self.sink)
    }
}

/// One request the client has sent.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    due: u64,
    sent: u64,
    class: u16,
    answered: bool,
}

/// Client bookkeeping of one session: the [`WARMUP_NS`] warm-up, then
/// the measured window. Requests live in slots indexed by
/// `tag % slots.len()`: one per request for the open loop's schedule, a
/// ring far larger than the window for the closed loop. Every request
/// counts in the exactly-once ledger; only those due in the window count
/// in the metrics.
#[derive(Debug)]
struct ClientLog {
    window_ns: u64,
    slots: Vec<Slot>,
    attempted: u64,
    responses: u64,
    malformed: u64,
    /// Responses with a tag never sent or already answered.
    unexpected: u64,
    /// Responses received per goodput slice of the window.
    slices: Vec<u64>,
    /// Round trips from the actual send, all requests.
    rtt: Hist,
    /// Round trips from the due time, GETs (class 0) and SCANs.
    rtt_due: [Hist; 2],
    /// Client round trip minus the sojourn the response carries.
    outside: Hist,
    /// Actual send minus due time.
    lag: Hist,
}

impl ClientLog {
    /// Whether a request due at `due` falls in the measured window.
    fn measured(due: u64) -> bool {
        due >= WARMUP_NS
    }

    fn new(window_ns: u64, slots: usize) -> Self {
        let window_ns = window_ns.max(1);
        ClientLog {
            window_ns,
            slots: vec![
                Slot {
                    tag: NONE,
                    due: 0,
                    sent: 0,
                    class: 0,
                    answered: false,
                };
                slots
            ],
            attempted: 0,
            responses: 0,
            malformed: 0,
            unexpected: 0,
            slices: vec![0; window_ns.div_ceil(SLICE_NS) as usize],
            rtt: Hist::new(),
            rtt_due: [Hist::new(), Hist::new()],
            outside: Hist::new(),
            lag: Hist::new(),
        }
    }

    /// Records request `attempted` as sent; returns its tag.
    fn push(&mut self, due: u64, sent: u64, class: u16) -> u64 {
        let tag = self.attempted;
        let n = self.slots.len() as u64;
        let slot = &mut self.slots[(tag % n) as usize];
        if slot.tag != NONE && !slot.answered && Self::measured(slot.due) {
            // A request a whole ring old never came back: lost.
            self.rtt.infinite += 1;
            self.rtt_due[usize::from(slot.class != 0)].infinite += 1;
        }
        *slot = Slot {
            tag,
            due,
            sent,
            class,
            answered: false,
        };
        if Self::measured(due) {
            self.lag.record(sent.saturating_sub(due));
        }
        self.attempted += 1;
        tag
    }

    /// Receives whatever is pending; returns the frames read.
    fn drain(
        &mut self,
        client: &mut UdpTransport,
        rx: &mut [Frame],
        clock: &TscClock,
        t0: u64,
    ) -> usize {
        let n = client.recv_batch(rx).expect("client recv");
        let now = clock.wall_nanos().as_nanos() - t0;
        let len = self.slots.len() as u64;
        for f in &rx[..n] {
            let Some((tag, sojourn, _)) = decode_response(f.payload()) else {
                self.malformed += 1;
                continue;
            };
            let slot = &mut self.slots[(tag % len) as usize];
            if slot.tag != tag || slot.answered {
                self.unexpected += 1;
                continue;
            }
            slot.answered = true;
            self.responses += 1;
            if !Self::measured(slot.due) {
                continue;
            }
            let rtt = now.saturating_sub(slot.sent);
            self.rtt.record(rtt);
            self.rtt_due[usize::from(slot.class != 0)].record(now.saturating_sub(slot.due));
            self.outside.record(rtt.saturating_sub(sojourn.as_nanos()));
            let since = now.checked_sub(WARMUP_NS).unwrap_or(u64::MAX);
            if let Some(c) = self.slices.get_mut((since / SLICE_NS) as usize) {
                *c += 1;
            }
        }
        n
    }

    /// Counts what never came back as +∞ round trips.
    fn close(&mut self) {
        for s in &self.slots {
            if s.tag != NONE && !s.answered && Self::measured(s.due) {
                self.rtt.infinite += 1;
                self.rtt_due[usize::from(s.class != 0)].infinite += 1;
            }
        }
    }

    /// Median over the window's whole slices of responses per second.
    fn goodput_rps(&self) -> f64 {
        let whole = (self.window_ns / SLICE_NS) as usize;
        let (mut rates, slice_ns) = if whole == 0 {
            (vec![self.slices[0]], self.window_ns)
        } else {
            (self.slices[..whole].to_vec(), SLICE_NS)
        };
        pct(&mut rates, 50.0) as f64 * 1e9 / slice_ns as f64
    }
}

/// The closed loop: keep [`FLOOD_WINDOW`] requests outstanding through
/// the warm-up and `seconds`, then collect the stragglers.
fn run_flood(s: &mut Session, seconds: f64) -> ClientLog {
    let mut rx = vec![Frame::empty(); s.client.max_batch()];
    let mut tx: Vec<Frame> = Vec::with_capacity(MAX_BATCH);
    let mut log = ClientLog::new((seconds * 1e9) as u64, FLOOD_RING);
    let t0 = s.clock.wall_nanos().as_nanos();
    let mut last_progress = 0;
    loop {
        let now = s.clock.wall_nanos().as_nanos() - t0;
        if now < WARMUP_NS + log.window_ns {
            tx.clear();
            while log.attempted - log.responses < FLOOD_WINDOW && tx.len() < MAX_BATCH {
                let tag = log.push(now, now, 0);
                tx.push(Frame::new(&encode_request(0, Nanos::ZERO, tag), s.srv_addr));
            }
            if !tx.is_empty() {
                s.client.send_batch(&tx).expect("client send");
            }
        } else if log.responses == log.attempted {
            break;
        }
        if now - last_progress > DRAIN_NS {
            break; // the rest is lost
        }
        if log.drain(&mut s.client, &mut rx, &s.clock, t0) > 0 {
            last_progress = now;
        } else {
            // Yield, don't spin: with more threads than cores a spinning
            // client would hold a core the serve loop needs.
            std::thread::yield_now();
        }
    }
    log.close();
    log
}

/// Blocks until the client socket is readable or `timeout_ns` has
/// passed, so a response is timestamped when it arrives without the
/// client spinning on a core the server needs.
fn wait_readable(client: &UdpTransport, timeout_ns: u64) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, n: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: client.socket().as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask. An
    // interrupted or failed wait only ends the wait early.
    unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
}

/// Asks the kernel to fire this thread's timed waits on time rather than
/// up to 50 µs late (the default timer slack).
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg: u64, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument; failure
    // leaves the default slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1) };
}

/// The open loop: send each request of the pre-drawn schedule at its
/// due time, draining responses while pacing, then collect stragglers.
/// Between sends the client waits on its socket, not on a timer, so
/// each response is received as it arrives.
fn run_kv(s: &mut Session, seconds: f64) -> ClientLog {
    tight_timer_slack();
    let schedule = std::mem::take(&mut s.schedule);
    let mut rx = vec![Frame::empty(); s.client.max_batch()];
    let mut log = ClientLog::new((seconds * 1e9) as u64, schedule.len().max(1));
    let pacer = Pacer::start(s.clock.clone());
    let t0 = pacer.origin().as_nanos();
    for r in &schedule {
        let wake = r.arrival.as_nanos().saturating_sub(KV_SPIN_NS);
        pacer.wait_until_with(r.arrival, &mut || loop {
            log.drain(&mut s.client, &mut rx, &s.clock, t0);
            let now = s.clock.wall_nanos().as_nanos() - t0;
            if now >= wake {
                break;
            }
            wait_readable(&s.client, wake - now);
        });
        let now = s.clock.wall_nanos().as_nanos() - t0;
        let tag = log.push(r.arrival.as_nanos(), now, r.class.0);
        s.client
            .send_batch(&[Frame::new(
                &encode_request(r.class.0, r.service, tag),
                s.srv_addr,
            )])
            .expect("client send");
    }
    let mut last_progress = Instant::now();
    while log.responses < log.attempted && (last_progress.elapsed().as_nanos() as u64) < DRAIN_NS {
        if log.drain(&mut s.client, &mut rx, &s.clock, t0) > 0 {
            last_progress = Instant::now();
        } else {
            wait_readable(&s.client, 1_000_000);
        }
    }
    log.close();
    log
}

fn measure(kind: Kind, s: &mut Session, seconds: f64) -> ClientLog {
    match kind {
        Kind::Flood => run_flood(s, seconds),
        Kind::Kv => run_kv(s, seconds),
    }
}

/// CPU time of the serve, dispatcher and worker threads, read while
/// they are still alive.
#[derive(Debug, Default, Clone, Copy)]
struct ThreadCpu {
    serve: u64,
    dispatcher: u64,
    worker: u64,
}

fn thread_cpu(errors: &mut Vec<String>) -> ThreadCpu {
    let mut read = |name: &str| {
        trace::thread_cpu_ns(name).unwrap_or_else(|| {
            errors.push(format!("no live thread named {name} in /proc/self/task"));
            0
        })
    };
    ThreadCpu {
        serve: read(SERVE_THREAD),
        dispatcher: read(DISPATCHER_THREAD),
        worker: read(WORKER_THREAD),
    }
}

/// The correctness checks of one session, made after its measured
/// window: client exactly-once, a clean `NetStats` audit, and server
/// counters that reconcile with the wire ledger.
fn check(log: &ClientLog, out: &ServeOutcome, errors: &mut Vec<String>) {
    if log.malformed > 0 {
        errors.push(format!("{} responses failed to decode", log.malformed));
    }
    if log.unexpected > 0 {
        errors.push(format!(
            "{} responses carried an unknown or repeated tag",
            log.unexpected
        ));
    }
    let audit = out.net.audit();
    if !audit.is_clean() {
        errors.push(format!("net audit: {audit}"));
    }
    if out.net.malformed > 0 {
        errors.push(format!(
            "server rejected {} well-formed requests as malformed",
            out.net.malformed
        ));
    }
    let admitted = out
        .net
        .received
        .saturating_sub(out.net.malformed + out.net.shed);
    let completed = out.server.total_completed();
    let forwarded = out.server.dispatcher.forwarded;
    if completed != admitted || forwarded != admitted || out.net.responded != admitted {
        errors.push(format!(
            "server ledger does not reconcile: admitted {admitted}, forwarded {forwarded}, \
             completed {completed}, responded {}",
            out.net.responded
        ));
    }
    if out.server.total_dropped() > 0 {
        errors.push(format!(
            "server dropped {} jobs",
            out.server.total_dropped()
        ));
    }
    if log.responses > out.net.responded || out.net.received > log.attempted {
        errors.push(format!(
            "wire ledgers disagree: client sent {} got {}, server received {} responded {}",
            log.attempted, log.responses, out.net.received, out.net.responded
        ));
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What one measured session left behind.
struct Measured {
    log: ClientLog,
    setup_s: f64,
    served: Served,
    sink: Option<Arc<JobSink>>,
    cpu: ThreadCpu,
}

/// One measured session: set up, measure, check.
fn session(kind: Kind, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Measured {
    let t = Instant::now();
    let mut s = setup(kind, seed, seconds, traced);
    let setup_s = t.elapsed().as_secs_f64();
    let log = measure(kind, &mut s, seconds);
    let cpu = thread_cpu(&mut out.errors);
    let (served, sink) = s.close();
    check(&log, &served.outcome, &mut out.errors);
    // Where any failed requests went: lost on the way in, shed, or lost
    // on the way back.
    let net = &served.outcome.net;
    out.lines.push(format!(
        "wire{}: client sent {}, server received {} (shed {}), server responded {}, client received {}",
        if traced { " (traced)" } else { "" },
        log.attempted,
        net.received,
        net.shed,
        net.responded,
        log.responses
    ));
    out.attempted += log.attempted;
    out.failed += log.attempted - log.responses;
    Measured {
        log,
        setup_s,
        served,
        sink,
        cpu,
    }
}

/// The client's view: the headline latency, the tails with their sample
/// counts, and for the open loop the SCAN round trip and pacing lag.
/// `fail_frac` is reported by the caller.
fn client_metrics(kind: Kind, log: &ClientLog) -> (f64, Vec<Metric>) {
    let mut m = Vec::new();
    let headline = match kind {
        Kind::Flood => {
            m.push(metric(
                "client.rtt_p99_us",
                us(log.rtt.percentile(99.0)),
                "us",
            ));
            m.push(metric(
                "client.tail_samples",
                log.rtt.count() as f64,
                "count",
            ));
            log.rtt.percentile(50.0)
        }
        Kind::Kv => {
            let [get, scan] = &log.rtt_due;
            let mut all = get.clone();
            all.absorb(scan);
            m.push(metric("client.rtt_p99_us", us(all.percentile(99.0)), "us"));
            m.push(metric(
                "client.get_rtt_p99_us",
                us(get.percentile(99.0)),
                "us",
            ));
            m.push(metric(
                "client.get_rtt_p999_us",
                us(get.percentile(99.9)),
                "us",
            ));
            m.push(metric("client.tail_samples", get.count() as f64, "count"));
            m.push(metric(
                "client.scan_rtt_p50_us",
                us(scan.percentile(50.0)),
                "us",
            ));
            m.push(metric(
                "client.send_lag_p99_us",
                us(log.lag.percentile(99.0)),
                "us",
            ));
            get.percentile(50.0)
        }
    };
    (us(headline), m)
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if traced {
        run_traced(kind, seed, seconds, &mut out);
        return out;
    }
    // Earlier set-ups are torn down unused; the last one is measured.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let s = setup(kind, seed, seconds, false);
        setups.push(t.elapsed().as_secs_f64());
        s.close();
    }
    let Measured { log, setup_s, .. } = session(kind, seed, seconds, false, &mut out);
    setups.push(setup_s);
    setups.sort_by(f64::total_cmp);

    let (p50, client) = client_metrics(kind, &log);
    out.metrics
        .push(metric("goodput_rps", log.goodput_rps(), "req/s"));
    out.metrics.push(metric("latency_p50_us", p50, "us"));
    out.metrics
        .push(metric("setup_s", setups[setups.len() / 2], "s"));
    // The workload-specific names of the same numbers, for the reader.
    match kind {
        Kind::Flood => out.notes.push(metric("rtt_p50_us", p50, "us")),
        Kind::Kv => {
            out.notes.push(metric("get_rtt_p50_us", p50, "us"));
            out.notes.push(metric(
                "scan_rtt_p50_us",
                us(log.rtt_due[1].percentile(50.0)),
                "us",
            ));
            out.notes.push(metric(
                "client.scan_samples",
                log.rtt_due[1].count() as f64,
                "count",
            ));
        }
    }
    out.notes
        .push(metric("fail_frac", fail_frac(&out), "ratio"));
    out.notes.extend(client);
    out
}

/// Lost, shed and malformed requests over requests sent.
fn fail_frac(out: &Outcome) -> f64 {
    ratio(out.failed as f64, out.attempted as f64)
}

/// Trace mode: half the time untraced (the overhead baseline), half with
/// the transport and every job wrapped; per-layer metrics come from the
/// traced half.
fn run_traced(kind: Kind, seed: u64, seconds: f64, out: &mut Outcome) {
    let half = seconds / 2.0;
    let plain = session(kind, seed, half, false, out).log;
    let Measured {
        log,
        served,
        sink,
        cpu,
        ..
    } = session(kind, seed, half, true, out);
    let o = &served.outcome;
    let (recv, send, mut spans) = served.io.expect("traced session has transport tallies");
    let sink = sink.expect("traced session has a job sink");
    let mut jobs = std::mem::take(&mut *sink.data.lock().expect("job sink poisoned"));
    spans.absorb(std::mem::take(&mut jobs.log));
    let (_, client) = client_metrics(kind, &log);
    let failed = fail_frac(out);
    let m = &mut out.metrics;
    let responded = o.net.responded as f64;

    // transport
    m.push(metric(
        "transport.recv_ns_per_frame",
        ratio(recv.busy_ns as f64, recv.frames as f64),
        "ns",
    ));
    m.push(metric(
        "transport.recv_frames_per_call",
        ratio(recv.frames as f64, recv.calls as f64),
        "frames/call",
    ));
    m.push(metric(
        "transport.recv_empty_frac",
        ratio(recv.empty_calls as f64, recv.calls as f64),
        "ratio",
    ));
    m.push(metric(
        "transport.send_ns_per_frame",
        ratio(send.busy_ns as f64, send.frames as f64),
        "ns",
    ));
    m.push(metric(
        "transport.send_frames_per_call",
        ratio(send.frames as f64, send.calls as f64),
        "frames/call",
    ));

    // net: serve-thread CPU, and what is left of it outside the transport
    let io_ns = (recv.all_ns + send.all_ns) as f64;
    m.push(metric(
        "net.serve_cpu_ns_per_request",
        ratio(cpu.serve as f64, responded),
        "ns",
    ));
    m.push(metric(
        "net.serve_self_ns_per_request",
        ratio(cpu.serve as f64 - io_ns, responded),
        "ns",
    ));
    m.push(metric(
        "net.max_in_flight",
        o.net.max_in_flight as f64,
        "count",
    ));
    m.push(metric(
        "net.outside_sojourn_p50_us",
        us(log.outside.percentile(50.0)),
        "us",
    ));

    // dispatcher
    let d = &o.server.dispatcher;
    m.push(metric(
        "dispatcher.busy_ns_per_request",
        d.ns_per_request(),
        "ns",
    ));
    m.push(metric(
        "dispatcher.mean_burst",
        ratio(d.forwarded as f64, d.bursts as f64),
        "req/burst",
    ));
    m.push(metric(
        "dispatcher.ring_full_retries",
        d.ring_full_retries as f64,
        "count",
    ));
    m.push(metric(
        "dispatcher.cpu_ns_per_request",
        ratio(cpu.dispatcher as f64, d.forwarded as f64),
        "ns",
    ));

    // ring: submit-to-first-slice wait, on the server's clock
    m.push(metric(
        "ring.wait_p50_us",
        us(jobs.wait.percentile(50.0)),
        "us",
    ));
    m.push(metric(
        "ring.wait_p99_us",
        us(jobs.wait.percentile(99.0)),
        "us",
    ));
    m.push(metric(
        "ring.max_occupancy",
        o.server.max_ring_occupancy() as f64,
        "count",
    ));

    // worker
    let w = o.server.workers.first().copied().unwrap_or_default();
    m.push(metric(
        "worker.slice_ns_p50",
        jobs.slice.percentile(50.0) as f64,
        "ns",
    ));
    m.push(metric(
        "worker.overshoot_ns_p99",
        jobs.overshoot.percentile(99.0) as f64,
        "ns",
    ));
    m.push(metric(
        "worker.quanta_per_request",
        ratio(w.quanta as f64, w.completed as f64),
        "quanta/req",
    ));
    m.push(metric(
        "worker.service_frac",
        ratio(jobs.run_ns as f64, cpu.worker as f64),
        "ratio",
    ));
    m.push(metric(
        "worker.idle_iterations",
        w.idle_iterations as f64,
        "count",
    ));

    // kv: only kv_open serves KvJobs
    if kind == Kind::Kv {
        let [get, scan] = &jobs.service;
        m.push(metric(
            "kv.get_service_ns_p50",
            get.percentile(50.0) as f64,
            "ns",
        ));
        m.push(metric(
            "kv.scan_service_us_p50",
            us(scan.percentile(50.0)),
            "us",
        ));
        m.push(metric(
            "kv.scan_slices_p50",
            jobs.scan_slices.percentile(50.0) as f64,
            "count",
        ));
        m.push(metric(
            "kv.probes_per_scan",
            ratio(jobs.scan_probes as f64, scan.count() as f64),
            "count",
        ));
    }
    m.push(metric("client.fail_frac", failed, "ratio"));
    m.extend(client);

    // trace: overhead against the untraced half, and the share of the
    // mean round trip no layer span covers
    m.push(metric(
        "trace.overhead_frac",
        1.0 - ratio(log.goodput_rps(), plain.goodput_rps()),
        "ratio",
    ));
    let covered = jobs.wait.mean()
        + jobs.resident.mean()
        + ratio(recv.busy_ns as f64, recv.frames as f64)
        + ratio(send.busy_ns as f64, send.frames as f64);
    m.push(metric(
        "trace.unattributed_frac",
        1.0 - ratio(covered, log.rtt.mean()),
        "ratio",
    ));
    out.lines.push(format!(
        "trace: {} spans kept, {} jobs wrapped, {} transport calls timed",
        spans.spans().len(),
        jobs.jobs,
        recv.calls + send.calls
    ));
    out.spans = Some(spans);
}
