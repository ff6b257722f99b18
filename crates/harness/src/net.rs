//! [`Engine`] over the socket front end: the live runtime behind
//! [`serve`], driven over loopback UDP by paced open-loop clients.
//!
//! A [`NetEngine`] run is an [`crate::RtEngine`] run with the wire in
//! between. It starts a [`NetServer`] (or aims at an external one) and
//! paces each client's pre-drawn schedule with the shared [`Pacer`],
//! draining responses while pacing so the run stays open-loop (§5.1,
//! scaled to loopback). Completions are *client-observed*: arrival is the
//! send instant and finish the receive instant, so the record's
//! `classes_sojourn` percentiles are round trips. With `N` clients,
//! client `i` draws its own schedule from seed `spec.seed ^ i` at
//! `rate / N` on its own socket; ids are offset per client so the merged
//! stream stays unique.
//!
//! Auditing (`ServerConfig::audit`) checks the client ledger (`sent ==
//! responses + lost`, no unknown tags or malformed responses), the
//! server's datagram ledger (`received == responded + malformed + shed`,
//! agreeing with the transport's frame counters), and the server's own
//! invariant report. UDP may drop datagrams, so loss is reported in
//! [`RunOutput::net`], not audited.

use crate::engine::{
    ClientRtt, Engine, EngineCounters, EngineKind, NetMeta, PolicyMeta, RunOutput, RunSpec,
};
use crate::rt::Pacer;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tq_audit::InvariantAuditor;
use tq_core::job::Completion;
use tq_core::{JobId, Nanos, Request};
use tq_runtime::kv::{kv_factory, kv_store};
use tq_runtime::net::{decode_response, encode_request, serve, NetConfig, ServeOutcome};
use tq_runtime::transport::{set_socket_buffers, Frame, Transport, UdpTransport};
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};
use tq_sim::TailStats;
use tq_workloads::ArrivalGen;

/// Kernel receive/send buffer size asked for on every socket a [`Wire`]
/// opens: room for a paced burst without loopback loss.
const SOCKET_BUFFER_BYTES: usize = 1 << 20;

/// The [`NetJob::Kv`] store: keys, bytes per value, entries per SCAN.
const KV_KEYS: u64 = 200_000;
const KV_VALUE_BYTES: usize = 100;
const KV_SCAN_LEN: usize = 20_000;

/// How long a client waits for stragglers after its last send before
/// counting the rest as lost.
const DRAIN: Duration = Duration::from_secs(10);

/// Which UDP wire a socket run rides; client and server always ride the
/// same one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// One `recv_from`/`send_to` syscall per datagram.
    PerDatagram,
    /// `recvmmsg`/`sendmmsg` bursts of up to `MAX_BATCH` frames.
    Batched,
}

impl Wire {
    /// Sizes `socket`'s kernel buffers to 1 MiB and wraps it in this
    /// wire's (nonblocking) transport.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` and socket-mode errors.
    pub fn open(self, socket: UdpSocket) -> io::Result<UdpTransport> {
        set_socket_buffers(&socket, SOCKET_BUFFER_BYTES)?;
        match self {
            Wire::PerDatagram => UdpTransport::per_datagram(socket),
            Wire::Batched => UdpTransport::batched(socket),
        }
    }
}

/// The job a [`NetServer`] runs for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetJob {
    /// tq-kv GET (class 0) or SCAN (any other class) over a 200k-key
    /// store seeded from the server config.
    Kv,
    /// A [`SpinJob`] burning the request's service-time hint.
    Spin,
}

/// A [`TinyQuanta`] server behind [`serve`] on its own thread.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<ServeOutcome>>,
}

impl NetServer {
    /// Binds `bind`, starts a server running `job` on `clock`, and serves
    /// it over `wire` until [`NetServer::stop`].
    ///
    /// # Errors
    ///
    /// Propagates bind and transport-setup errors.
    pub fn spawn(
        config: ServerConfig,
        job: NetJob,
        wire: Wire,
        bind: SocketAddr,
        clock: &TscClock,
        net: NetConfig,
    ) -> io::Result<NetServer> {
        let mut transport = wire.open(UdpSocket::bind(bind)?)?;
        let addr = transport.local_addr()?;
        let server = match job {
            NetJob::Kv => {
                let store = kv_store(config.seed, KV_KEYS, KV_VALUE_BYTES);
                TinyQuanta::start_with_clock(
                    config,
                    clock.clone(),
                    kv_factory(store, KV_KEYS, KV_SCAN_LEN),
                )
            }
            NetJob::Spin => {
                let job_clock = clock.clone();
                TinyQuanta::start_with_clock(config, clock.clone(), move |req| {
                    Box::new(SpinJob::with_clock(req, &job_clock))
                })
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || serve(server, &mut transport, &flag, &net));
        Ok(NetServer { addr, stop, thread })
    }

    /// The bound address clients send to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serve loop once every admitted request is answered, shuts
    /// the server down, and returns both ledgers.
    ///
    /// # Errors
    ///
    /// Propagates the serve loop's transport errors.
    pub fn stop(self) -> io::Result<ServeOutcome> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("serve thread panicked")
    }
}

/// The socket engine: paces a [`RunSpec`] over loopback UDP into a
/// [`NetServer`] it starts per run, or into an external server
/// ([`NetEngine::connect`]).
#[derive(Debug, Clone)]
pub struct NetEngine {
    config: ServerConfig,
    job: NetJob,
    wire: Wire,
    clients: usize,
    connect: Option<SocketAddr>,
    remote_policy_known: bool,
    label: &'static str,
    clock: TscClock,
}

impl NetEngine {
    /// One client, serving `job` in-process over `wire`, on a freshly
    /// calibrated clock (~10 ms, once).
    ///
    /// # Panics
    ///
    /// Panics on a configuration with zero workers.
    pub fn new(config: ServerConfig, job: NetJob, wire: Wire) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        NetEngine {
            config,
            job,
            wire,
            clients: 1,
            connect: None,
            remote_policy_known: false,
            label: "udp",
            clock: TscClock::calibrated(),
        }
    }

    /// Splits the offered load across `n` concurrent paced clients.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_clients(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one client");
        self.clients = n;
        self
    }

    /// Aims the clients at an external server instead of starting one.
    /// The run then has no server ledger or counters, and the record
    /// carries a policy block only if `policy_known` says the remote end
    /// runs this engine's [`ServerConfig`].
    pub fn connect(mut self, addr: SocketAddr, policy_known: bool) -> Self {
        self.connect = Some(addr);
        self.remote_policy_known = policy_known;
        self
    }
}

impl Engine for NetEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Rt
    }

    fn model(&self) -> &'static str {
        "runtime"
    }

    /// `TinyQuanta/net(<label>)`, the label being the last run's
    /// `Transport::label()` (`udp` before any run).
    fn system(&self) -> String {
        format!("TinyQuanta/net({})", self.label)
    }

    fn workers(&self) -> usize {
        self.config.workers
    }

    fn policy_meta(&self) -> Option<PolicyMeta> {
        (self.connect.is_none() || self.remote_policy_known).then(|| {
            PolicyMeta::new(
                format!("{:?}", self.config.dispatch),
                self.config.discipline,
            )
        })
    }

    fn run(&mut self, spec: &RunSpec, mut arrivals: ArrivalGen, horizon: Nanos) -> RunOutput {
        let n = self.clients;
        let schedules: Vec<Vec<Request>> = if n == 1 {
            vec![arrivals.until(horizon)]
        } else {
            (0..n)
                .map(|i| {
                    RunSpec {
                        rate_rps: spec.rate_rps / n as f64,
                        seed: spec.seed ^ i as u64,
                        ..spec.clone()
                    }
                    .arrivals()
                    .until(horizon)
                })
                .collect()
        };
        let submitted: u64 = schedules.iter().map(|s| s.len() as u64).sum();

        let server = self.connect.is_none().then(|| {
            let mut config = self.config.clone();
            config.seed = spec.seed;
            // Admit the entire schedule: shedding is a backpressure
            // safety valve a paced loopback run should never trip.
            let net = NetConfig {
                max_in_flight: (submitted as usize).max(1024),
                ..NetConfig::default()
            };
            let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
            NetServer::spawn(config, self.job, self.wire, loopback, &self.clock, net)
                .expect("start serve loop")
        });
        let addr = self
            .connect
            .unwrap_or_else(|| server.as_ref().expect("in-process server").addr());

        let (wire, clock) = (self.wire, &self.clock);
        let mut outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .iter()
                .map(|s| scope.spawn(move || run_client(wire, addr, clock, s, horizon)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let outcome = server.map(|s| s.stop().expect("serve loop"));
        self.label = outcomes[0].label;

        // Merge the clients: one ledger, one tail, one completion stream
        // with client-local ids offset to stay unique.
        let mut rtt = TailStats::new();
        let mut completions: Vec<Completion> = Vec::new();
        let (mut base, mut lost, mut unexpected, mut malformed, mut in_horizon) = (0, 0, 0, 0, 0);
        for o in &outcomes {
            rtt.absorb(&o.rtt);
            completions.extend(o.completions.iter().map(|c| Completion {
                id: JobId(base + c.id.0),
                ..*c
            }));
            base += o.sent;
            lost += o.lost;
            unexpected += o.unexpected;
            malformed += o.malformed;
            in_horizon += o.in_horizon;
        }
        let responses = completions.len() as u64;

        let audit = self.config.audit.then(|| {
            let sent = submitted;
            let mut a = InvariantAuditor::new("loadgen");
            a.check("client_conservation", sent == responses + lost, || {
                format!("sent {sent} != responses {responses} + lost {lost}")
            });
            a.check("client_no_unexpected_tags", unexpected == 0, || {
                format!("{unexpected} duplicate/unknown response tags")
            });
            a.check("client_no_malformed_responses", malformed == 0, || {
                format!("{malformed} undecodable responses")
            });
            let mut report = a.finish();
            if let Some(o) = &outcome {
                report.absorb(o.net.audit());
                if let Some(server_report) = o.server.audit.clone() {
                    report.absorb(server_report);
                }
            }
            report
        });

        // Per-client tails only when the run actually fanned in, plus the
        // cross-client p99.9 spread.
        let clients: Vec<ClientRtt> = if n > 1 {
            outcomes
                .iter_mut()
                .map(|o| ClientRtt {
                    sent: o.sent,
                    responses: o.completions.len() as u64,
                    rtt_p50_ns: o.rtt.percentile(50.0),
                    rtt_p99_ns: o.rtt.percentile(99.0),
                    rtt_p999_ns: o.rtt.percentile(99.9),
                })
                .collect()
        } else {
            Vec::new()
        };
        let p999s = clients.iter().map(|c| c.rtt_p999_ns);
        let rtt_p999_spread_ns = p999s.clone().max().unwrap_or(0) - p999s.min().unwrap_or(0);
        let mut net = NetMeta {
            transport: self.label.to_string(),
            sent: submitted,
            responses,
            lost,
            rtt_p50_ns: rtt.percentile(50.0),
            rtt_p99_ns: rtt.percentile(99.0),
            rtt_p999_ns: rtt.percentile(99.9),
            clients,
            rtt_p999_spread_ns,
            ..NetMeta::default()
        };
        if let Some(o) = &outcome {
            net.server_received = o.net.received;
            net.server_responded = o.net.responded;
            net.server_malformed = o.net.malformed;
            net.server_shed = o.net.shed;
            net.frames_per_recv = o.net.transport.frames_per_recv_call();
            net.frames_per_send = o.net.transport.frames_per_send_call();
            net.rcvbuf_bytes = o.net.transport.rcvbuf_bytes;
            net.sndbuf_bytes = o.net.transport.sndbuf_bytes;
        }

        RunOutput {
            completions,
            submitted,
            in_horizon,
            counters: outcome
                .as_ref()
                .map_or_else(EngineCounters::default, |o| EngineCounters::from(&o.server)),
            audit,
            controller: None,
            net: Some(net),
        }
    }
}

/// One fan-in client's ledger, tail, and completion stream.
#[derive(Default)]
struct ClientOutcome {
    /// The client transport's `Transport::label()`.
    label: &'static str,
    sent: u64,
    lost: u64,
    /// Responses that repeated an answered tag or carried one never sent.
    unexpected: u64,
    /// Responses that failed decoding.
    malformed: u64,
    rtt: TailStats,
    /// Client-observed completions on this client's stream clock
    /// (arrival = actual send instant, finish = receive instant).
    completions: Vec<Completion>,
    in_horizon: u64,
}

/// Paces `schedule` against the wall clock over its own socket,
/// draining responses while pacing, then drains stragglers. The whole
/// open-loop client, one call per fan-in client.
fn run_client(
    wire: Wire,
    srv_addr: SocketAddr,
    clock: &TscClock,
    schedule: &[Request],
    horizon: Nanos,
) -> ClientOutcome {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    let mut transport = wire.open(socket).expect("client transport");
    let mut rx = vec![Frame::empty(); transport.max_batch()];
    let mut out = ClientOutcome {
        label: transport.label(),
        sent: schedule.len() as u64,
        ..ClientOutcome::default()
    };
    // Stream-time receive instant per tag (`None` = still outstanding).
    let mut recv_time = vec![None; schedule.len()];
    let mut responses = 0;
    let mut send_time = vec![Nanos::ZERO; schedule.len()];

    let pacer = Pacer::start(clock.clone());
    let t0 = pacer.origin();
    for (i, r) in schedule.iter().enumerate() {
        pacer.wait_until_with(r.arrival, &mut || {
            responses +=
                drain_responses(&mut transport, &mut rx, clock, t0, &mut recv_time, &mut out);
        });
        // Wire tags are schedule positions, local to this client's
        // socket — responses route back by source address.
        let req = encode_request(r.class.0, r.service, i as u64);
        transport
            .send_batch(&[Frame::new(&req, srv_addr)])
            .expect("client send");
        send_time[i] = clock.wall_nanos().saturating_sub(t0);
    }

    // Drain stragglers: UDP promises nothing, so give up after a
    // deadline and account the rest as lost.
    let drain_deadline = Instant::now() + DRAIN;
    while responses < out.sent && Instant::now() < drain_deadline {
        responses += drain_responses(&mut transport, &mut rx, clock, t0, &mut recv_time, &mut out);
        std::thread::sleep(Duration::from_micros(100));
    }
    out.lost = out.sent - responses;

    for (i, r) in schedule.iter().enumerate() {
        if let Some(finish) = recv_time[i] {
            out.rtt
                .record(finish.saturating_sub(send_time[i]).as_nanos());
            out.in_horizon += u64::from(finish <= horizon);
            out.completions.push(Completion {
                id: r.id,
                class: r.class,
                // Sojourn here = the client-observed round trip: the
                // clock starts at the actual send instant (open loop:
                // late sends measure the trip, not the pacing debt).
                arrival: send_time[i],
                service: r.service,
                finish,
            });
        }
    }
    out
}

/// Drains every response currently readable, stamping receive times;
/// returns how many answered an outstanding tag.
fn drain_responses(
    transport: &mut UdpTransport,
    rx: &mut [Frame],
    clock: &TscClock,
    t0: Nanos,
    recv_time: &mut [Option<Nanos>],
    out: &mut ClientOutcome,
) -> u64 {
    let mut answered = 0;
    loop {
        let n = transport.recv_batch(rx).expect("client recv");
        if n == 0 {
            return answered;
        }
        let now = clock.wall_nanos().saturating_sub(t0);
        for f in &rx[..n] {
            match decode_response(f.payload()) {
                None => out.malformed += 1,
                Some((tag, _sojourn, _quanta)) => match recv_time.get_mut(tag as usize) {
                    Some(slot @ None) => {
                        *slot = Some(now);
                        answered += 1;
                    }
                    _ => out.unexpected += 1,
                },
            }
        }
    }
}
