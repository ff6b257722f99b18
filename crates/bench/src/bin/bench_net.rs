//! Socket front-end throughput baseline: per-datagram syscalls vs the
//! batched `recvmmsg`/`sendmmsg` transport, end to end over loopback.
//!
//! ```text
//! cargo run --release -p tq-bench --bin bench_net -- --throughput  # both arms → BENCH_net.json
//! cargo run --release -p tq-bench --bin bench_net -- --check       # perf gate vs committed file
//! ```
//!
//! Each arm drives the full wire path — client send → kernel loopback →
//! server receive → burst decode → batched dispatch → workers →
//! coalesced send of responses → client receive — with a windowed
//! flood: the client keeps a fixed number of zero-service requests
//! outstanding, so the socket pipeline (not the arrival pacing, and not
//! worker service time) is the bottleneck being measured. The gated
//! number is wall nanoseconds per completed request. Both arms run the
//! shipped `serve` loop, started by [`NetServer`], and differ only in the
//! [`Wire`], on both sides: `per_datagram` uses
//! `UdpTransport::per_datagram` (one `recv_from`/`send_to` syscall per
//! frame, bursts of one), and `batched` uses `UdpTransport::batched` (up
//! to 64 frames per `recvmmsg`/`sendmmsg`).
//!
//! `--throughput` measures both arms (best of trials, criterion-style
//! minimum) and writes `BENCH_net.json` (schema `tq-bench-net/v1`) at
//! the repo root. `--check` re-measures the batched arm and exits
//! non-zero if its ns/request regressed past [`NET_CHECK_TOLERANCE`]
//! against the committed baseline; it never rewrites the file. As with
//! `bench_rt`, the tolerance is generous because CI hosts are shared:
//! the gate catches a lost batch path (e.g. a reintroduced per-datagram
//! send loop), not percent-level drift.
//!
//! Every trial is audited end to end (`TQ_AUDIT=0` disables): client
//! conservation (every request answered exactly once), the server's
//! datagram ledger (`received == responded + malformed + shed`), and the
//! server's internal invariant report. A trial that loses a datagram or
//! stalls fails the process — on loopback with sized socket buffers and
//! a bounded window, loss means a bug, not weather.
//!
//! Knobs: `TQ_NET_REQUESTS` (per trial; default 48k full / 12k check),
//! `TQ_NET_WINDOW` (outstanding requests, default 256), `TQ_RT_WORKERS`
//! (default 2), `TQ_SEED`, `TQ_AUDIT`.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use tq_core::Nanos;
use tq_harness::{NetJob, NetServer, Wire};
use tq_runtime::net::{decode_response, encode_request, NetConfig, NetStats, ServeOutcome};
use tq_runtime::transport::{Frame, Transport, MAX_BATCH};
use tq_runtime::{ServerConfig, TscClock};

/// `--check` fails when a gated arm's ns/request rises above
/// `committed / NET_CHECK_TOLERANCE` (a >2.5x regression). Same
/// rationale as `bench_rt`'s gate: shared CI hosts make wall time noisy;
/// the gate exists to catch a lost batch path, not drift.
const NET_CHECK_TOLERANCE: f64 = 0.4;

/// An arm's name, its key in `BENCH_net.json`.
fn arm_name(arm: Wire) -> &'static str {
    match arm {
        Wire::PerDatagram => "per_datagram",
        Wire::Batched => "batched",
    }
}

/// One arm's measurement (best trial kept).
struct NetMeasure {
    arm: &'static str,
    requests: u64,
    window: usize,
    trials: usize,
    wall_nanos: u64,
    /// Client syscall counters from the best trial.
    client_send_calls: u64,
    client_recv_calls: u64,
    /// Server-side ledger and syscall amortization from the best trial.
    server: NetStats,
}

impl NetMeasure {
    /// Wall time per completed request — the gated number.
    fn ns_per_request(&self) -> f64 {
        self.wall_nanos as f64 / self.requests.max(1) as f64
    }

    /// Requests per second achieved by the flood.
    fn krps(&self) -> f64 {
        self.requests as f64 / (self.wall_nanos.max(1) as f64 / 1e9) / 1e3
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"arm\": \"{}\", \"requests\": {}, \"window\": {}, ",
                "\"trials\": {}, \"wall_nanos\": {}, \"ns_per_request\": {:.2}, ",
                "\"krps\": {:.2}, \"client_send_calls\": {}, ",
                "\"client_recv_calls\": {}, \"server_recv_calls\": {}, ",
                "\"server_send_calls\": {}, \"server_frames_per_recv\": {:.2}, ",
                "\"server_frames_per_send\": {:.2}, \"responded\": {}}}"
            ),
            self.arm,
            self.requests,
            self.window,
            self.trials,
            self.wall_nanos,
            self.ns_per_request(),
            self.krps(),
            self.client_send_calls,
            self.client_recv_calls,
            self.server.transport.recv_calls,
            self.server.transport.send_calls,
            self.server.transport.frames_per_recv_call(),
            self.server.transport.frames_per_send_call(),
            self.server.responded,
        )
    }
}

/// One windowed flood over a freshly started server; returns the trial's
/// wall time and both sides' counters. Panics on loss, stall, or audit
/// violation — a throughput baseline over loopback must conserve.
fn run_trial(
    arm: Wire,
    n: u64,
    window: usize,
    workers: usize,
    audit: bool,
    seed: u64,
    clock: &TscClock,
) -> (u64, u64, u64, ServeOutcome) {
    let config = ServerConfig {
        workers,
        quantum: Nanos::from_micros(5),
        seed,
        audit,
        ..ServerConfig::default()
    };
    let net_config = NetConfig {
        max_in_flight: (2 * window).max(1024),
        ..NetConfig::default()
    };
    let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
    let server = NetServer::spawn(config, NetJob::Spin, arm, loopback, clock, net_config)
        .expect("start serve loop");
    let srv_addr = server.addr();

    let mut transport = arm
        .open(UdpSocket::bind(loopback).expect("bind client"))
        .expect("client transport");
    let mut rx = vec![Frame::empty(); transport.max_batch()];
    let mut tx: Vec<Frame> = Vec::with_capacity(MAX_BATCH);
    let mut next = 0u64; // next tag to send
    let mut done = 0u64; // responses received
    let mut last_progress = Instant::now();
    let started = Instant::now();
    while done < n {
        // Top the window up in one batched send.
        tx.clear();
        while next < n && next - done < window as u64 && tx.len() < MAX_BATCH {
            tx.push(Frame::new(&encode_request(0, Nanos::ZERO, next), srv_addr));
            next += 1;
        }
        if !tx.is_empty() {
            transport.send_batch(&tx).expect("client send");
        }
        let got = transport.recv_batch(&mut rx).expect("client recv");
        for f in &rx[..got] {
            let (tag, _, _) = decode_response(f.payload()).expect("well-formed response");
            assert!(tag < n, "unknown tag {tag}");
            done += 1;
        }
        if got > 0 {
            last_progress = Instant::now();
        } else {
            assert!(
                last_progress.elapsed() < Duration::from_secs(5),
                "flood stalled at {done}/{n} responses (datagram lost on loopback?)"
            );
            // Yield, don't spin: on a host with fewer cores than threads
            // a spinning client serializes all progress to OS timeslices
            // and the measurement stops being about the socket path.
            std::thread::yield_now();
        }
    }
    let wall_nanos = started.elapsed().as_nanos() as u64;
    let outcome = server.stop().expect("serve ok");
    assert_eq!(outcome.net.responded, n, "flood must conserve datagrams");
    assert_eq!(outcome.net.shed, 0, "window below the in-flight bound never sheds");
    if audit {
        let net_report = outcome.net.audit();
        assert!(net_report.is_clean(), "net audit: {net_report}");
        if let Some(report) = &outcome.server.audit {
            assert!(report.is_clean(), "server audit: {report}");
        }
    }
    let cs = transport.stats();
    (wall_nanos, cs.send_calls, cs.recv_calls, outcome)
}

/// Best (lowest ns/request) of `trials` floods for one arm.
#[allow(clippy::too_many_arguments)]
fn measure(
    arm: Wire,
    n: u64,
    window: usize,
    workers: usize,
    trials: usize,
    audit: bool,
    seed: u64,
    clock: &TscClock,
) -> NetMeasure {
    let mut best: Option<NetMeasure> = None;
    for _ in 0..trials.max(1) {
        let (wall_nanos, send_calls, recv_calls, outcome) =
            run_trial(arm, n, window, workers, audit, seed, clock);
        let m = NetMeasure {
            arm: arm_name(arm),
            requests: n,
            window,
            trials: trials.max(1),
            wall_nanos,
            client_send_calls: send_calls,
            client_recv_calls: recv_calls,
            server: outcome.net,
        };
        if best.as_ref().is_none_or(|b| m.wall_nanos < b.wall_nanos) {
            best = Some(m);
        }
    }
    best.expect("at least one trial")
}

fn print_measure(m: &NetMeasure) {
    println!(
        "{:>12}: {:>8.1} ns/request  ({:>7.1} krps, server {:.1} frames/recv syscall, \
         {:.1} frames/send, client {} sends {} recvs)",
        m.arm,
        m.ns_per_request(),
        m.krps(),
        m.server.transport.frames_per_recv_call(),
        m.server.transport.frames_per_send_call(),
        m.client_send_calls,
        m.client_recv_calls,
    );
}

fn run_throughput(n: u64, window: usize, workers: usize, audit: bool, seed: u64) -> ! {
    let trials = 3;
    println!(
        "bench_net (throughput): {workers} workers, {n} requests/trial, window {window}, \
         best of {trials}, seed {seed}, audit {}",
        if audit { "on" } else { "off" }
    );
    println!();
    let clock = TscClock::calibrated();
    let per_datagram = measure(Wire::PerDatagram, n, window, workers, trials, audit, seed, &clock);
    print_measure(&per_datagram);
    let batched = measure(Wire::Batched, n, window, workers, trials, audit, seed, &clock);
    print_measure(&batched);
    let speedup = per_datagram.ns_per_request() / batched.ns_per_request();
    println!();
    println!("socket speedup (per-datagram / batched ns/request): {speedup:.2}x");

    let doc = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"tq-bench-net/v1\",\n",
            "  \"workers\": {},\n",
            "  \"requests\": {},\n",
            "  \"window\": {},\n",
            "  \"seed\": {},\n",
            "  \"audit\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"quick\": {},\n",
            "  \"arms\": [\n    {},\n    {}\n  ],\n",
            "  \"speedup_ns_per_request\": {:.2}\n",
            "}}\n"
        ),
        workers,
        n,
        window,
        seed,
        audit,
        tq_bench::host_cores(),
        n < 48_000, // reduced flood via TQ_NET_REQUESTS: not a full baseline
        per_datagram.json(),
        batched.json(),
        speedup,
    );
    std::fs::write("BENCH_net.json", &doc).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json");
    std::process::exit(0);
}

fn run_check(n: u64, window: usize, workers: usize, audit: bool, seed: u64) -> ! {
    let trials = 2;
    println!(
        "bench_net (check): {workers} workers, {n} requests/trial, window {window}, \
         best of {trials}, seed {seed}, audit {}",
        if audit { "on" } else { "off" }
    );
    println!();
    let committed = std::fs::read_to_string("BENCH_net.json")
        .expect("--check needs a committed BENCH_net.json");
    let baseline = tq_bench::baseline_number(&committed, "batched", "ns_per_request")
        .expect("BENCH_net.json has no batched ns_per_request");
    let clock = TscClock::calibrated();
    let batched = measure(Wire::Batched, n, window, workers, trials, audit, seed, &clock);
    print_measure(&batched);
    let current = batched.ns_per_request();
    // ns/request is a cost: a ratio below 1.0 means slower than committed.
    let ratio = baseline / current;
    println!();
    println!(
        "perf gate (batched): {current:.1} ns/request vs committed {baseline:.1} ns/request — \
         {:.0}% (floor {:.0}%)",
        ratio * 100.0,
        NET_CHECK_TOLERANCE * 100.0,
    );
    if ratio < NET_CHECK_TOLERANCE {
        eprintln!(
            "PERF REGRESSION: socket ns/request rose to {:.1}x the committed baseline",
            current / baseline
        );
        std::process::exit(1);
    }
    println!("perf gate passed");
    std::process::exit(0);
}

fn main() {
    let mut mode_check = false;
    let mut mode_throughput = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--check" => mode_check = true,
            "--throughput" => mode_throughput = true,
            _ => {
                eprintln!("unknown argument {a:?} (supported: --throughput, --check)");
                std::process::exit(2);
            }
        }
    }
    let workers = tq_bench::env_positive("TQ_RT_WORKERS", 2) as usize;
    let window = tq_bench::env_positive("TQ_NET_WINDOW", 256) as usize;
    let audit = tq_bench::audit_enabled();
    let seed = tq_bench::seed();
    if mode_check {
        let n = tq_bench::env_positive("TQ_NET_REQUESTS", 12_000);
        run_check(n, window, workers, audit, seed);
    }
    if mode_throughput {
        let n = tq_bench::env_positive("TQ_NET_REQUESTS", 48_000);
        run_throughput(n, window, workers, audit, seed);
    }
    eprintln!("pick a mode: --throughput (write BENCH_net.json) or --check (gate against it)");
    std::process::exit(2);
}
