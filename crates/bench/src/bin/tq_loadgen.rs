//! `tq-loadgen`: the paper's open-loop client over a real socket.
//!
//! A command-line front end to [`NetEngine`], which paces a pre-drawn
//! arrival schedule over loopback UDP into a Tiny Quanta server — by
//! default started in-process, serving the shared tq-kv GET/SCAN job —
//! draining responses while pacing, and reports client-observed round
//! trips. `--connect` aims it at an external server instead, and
//! `--serve` runs only that server.
//!
//! ```text
//! cargo run --release -p tq-bench --bin tq-loadgen                 # kv over loopback
//! cargo run --release -p tq-bench --bin tq-loadgen -- --smoke      # CI: small, audited
//! cargo run --release -p tq-bench --bin tq-loadgen -- --compare    # + in-process RtEngine run
//! cargo run --release -p tq-bench --bin tq-loadgen -- --connect 10.0.0.2:9000
//! ```
//!
//! The record lands in `results/loadgen.json` (`tq-run/v1`, built by
//! `run_to_record`); `--compare` appends the in-process `RtEngine`
//! record of the same spec, so wire cost is one subtraction away.
//!
//! Auditing (`TQ_AUDIT`, default on) covers both sides' ledgers and the
//! server's invariant report (see `tq_harness::net`). Loss is tolerated
//! on a noisy host — UDP makes no promises — but in `--smoke` mode any
//! loss, shed, or audit violation fails the process: over loopback at
//! smoke rates every datagram must survive, which is what the CI net
//! smoke job gates on.
//!
//! Knobs: `--requests` (total across clients), `--rate` (rps, total),
//! `--clients N` (concurrent paced clients sharing the load, default 1;
//! the `net` block then carries per-client tails), `--workload kv|spin|<preset>` (a
//! hostile-traffic preset name from `tq_workloads::hostile` runs its
//! workload *and* arrival process as spin jobs), `--workers`,
//! `--transport mmsg|syscall` (both sides: `recvmmsg`/`sendmmsg` bursts,
//! or one datagram per syscall), `--out`; `TQ_SEED`, `TQ_AUDIT`,
//! `TQ_RT_WORKERS` as everywhere else. Counts and rates must be positive
//! numbers; anything else exits 2.

use std::net::SocketAddr;
use std::str::FromStr;
use std::time::Duration;
use tq_core::Nanos;
use tq_harness::{json, run_to_record, NetEngine, NetJob, NetServer, RtEngine, RunSpec, Wire};
use tq_runtime::net::NetConfig;
use tq_runtime::{ServerConfig, TscClock};
use tq_workloads::{table1, ArrivalProcess, Workload};

/// `--workload NAME`: the server's job plus the arrival stream's
/// workload and process — tq-kv GET/SCAN (`kv`, the RocksDB 0.5% SCAN
/// mix), extreme-bimodal spins (`spin`), or spins drawn from a
/// hostile-traffic preset's workload *and* arrival process.
fn workload_for(name: &str) -> Option<(NetJob, Workload, ArrivalProcess)> {
    match name {
        "kv" => Some((NetJob::Kv, table1::rocksdb_low_scan(), ArrivalProcess::Poisson)),
        "spin" => Some((NetJob::Spin, table1::extreme_bimodal(), ArrivalProcess::Poisson)),
        _ => tq_workloads::hostile::by_name(name).map(|p| (NetJob::Spin, p.workload, p.process)),
    }
}

#[derive(Clone)]
struct Args {
    requests: u64,
    rate_rps: f64,
    clients: usize,
    workload: String,
    workers: usize,
    transport: Wire,
    smoke: bool,
    compare: bool,
    connect: Option<SocketAddr>,
    serve: Option<SocketAddr>,
    serve_secs: u64,
    policy: Option<String>,
    out: String,
}

/// Parses a flag's value as a positive, finite number, or exits 2.
fn positive<T: FromStr + PartialOrd + Default>(name: &str, v: &str) -> T {
    match v.parse::<T>() {
        Ok(x) if x > T::default() && v.parse::<f64>().is_ok_and(f64::is_finite) => x,
        _ => {
            eprintln!("{name} needs a positive number, got {v:?}");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 0, // resolved after --smoke is known
        rate_rps: 0.0,
        clients: 1,
        workload: "kv".to_string(),
        workers: 0,
        transport: Wire::Batched,
        smoke: false,
        compare: false,
        connect: None,
        serve: None,
        serve_secs: 60,
        policy: None,
        out: "results/loadgen.json".to_string(),
    };
    let mut requests: Option<u64> = None;
    let mut rate: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = true,
            "--requests" => requests = Some(positive("--requests", &value("--requests"))),
            "--rate" => rate = Some(positive("--rate", &value("--rate"))),
            "--workers" => args.workers = positive("--workers", &value("--workers")),
            "--clients" => args.clients = positive("--clients", &value("--clients")),
            "--out" => args.out = value("--out"),
            "--connect" => {
                args.connect = Some(value("--connect").parse().unwrap_or_else(|e| {
                    eprintln!("--connect: bad address: {e}");
                    std::process::exit(2);
                }));
            }
            "--serve" => {
                args.serve = Some(value("--serve").parse().unwrap_or_else(|e| {
                    eprintln!("--serve: bad bind address: {e}");
                    std::process::exit(2);
                }));
            }
            "--serve-secs" => {
                args.serve_secs = value("--serve-secs").parse().unwrap_or_else(|e| {
                    eprintln!("--serve-secs: bad value: {e}");
                    std::process::exit(2);
                });
            }
            "--policy" => args.policy = Some(value("--policy")),
            "--workload" => {
                args.workload = value("--workload");
                if workload_for(&args.workload).is_none() {
                    eprintln!(
                        "--workload takes kv|spin|<hostile preset> (known presets: {}), got {:?}",
                        tq_workloads::hostile::NAMES.join(", "),
                        args.workload
                    );
                    std::process::exit(2);
                }
            }
            "--transport" => {
                args.transport = match value("--transport").as_str() {
                    "mmsg" => Wire::Batched,
                    "syscall" => Wire::PerDatagram,
                    v => {
                        eprintln!("--transport takes mmsg|syscall, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            _ => {
                eprintln!(
                    "unknown argument {a:?} (supported: --smoke, --compare, --requests N, \
                     --rate RPS, --clients N, --workload kv|spin, --workers N, \
                     --transport mmsg|syscall, --policy NAME, --connect ADDR, \
                     --serve ADDR, --serve-secs N, --out PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    // Gentle defaults: on a shared host the client, serve loop,
    // dispatcher and workers are all oversubscribed OS threads.
    args.requests = requests.unwrap_or(if args.smoke { 2_000 } else { 20_000 });
    args.rate_rps = rate.unwrap_or(if args.smoke { 10_000.0 } else { 20_000.0 });
    if args.workers == 0 {
        args.workers = tq_bench::env_positive("TQ_RT_WORKERS", 2) as usize;
    }
    args
}

/// `--serve`: run only the server side, bound to a fixed address, so a
/// separate `tq-loadgen` process can `--connect` to it — the CI socket
/// smoke runs client and server as genuinely separate processes. Serves
/// until the `--serve-secs` backstop elapses (or the process is killed),
/// then reports both ledgers; audit violations exit non-zero.
fn run_server(args: &Args, config: ServerConfig, job: NetJob, bind: SocketAddr) {
    // Generous admission: the paced loopback smoke must never shed, and
    // max_in_flight only bounds concurrently outstanding requests.
    let net_config = NetConfig {
        max_in_flight: (args.requests as usize).max(4096),
        ..NetConfig::default()
    };
    let clock = TscClock::calibrated();
    let server = NetServer::spawn(config.clone(), job, args.transport, bind, &clock, net_config)
        .expect("bind serve socket");
    let secs = args.serve_secs.max(1);
    println!(
        "tq-loadgen (serve): listening on {} for up to {secs}s ({:?} dispatch, {:?} discipline, {} workers)",
        server.addr(),
        config.dispatch,
        config.discipline,
        config.workers,
    );
    std::thread::sleep(Duration::from_secs(secs));
    let outcome = server.stop().expect("serve ok");
    println!(
        "server: received {}  responded {}  malformed {}  shed {}",
        outcome.net.received, outcome.net.responded, outcome.net.malformed, outcome.net.shed
    );
    let mut report = outcome.net.audit();
    if let Some(server_report) = outcome.server.audit {
        report.absorb(server_report);
    }
    println!("{report}");
    if !report.is_clean() {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let audit = tq_bench::audit_enabled();
    let seed = tq_bench::seed();
    // One server shape for every mode (in-process, --serve, --compare):
    // the defaults, or a named preset's dispatch/discipline/stealing.
    let server_config = {
        let mut c = match &args.policy {
            Some(name) => {
                let preset =
                    tq_bench::policy_or_exit(name, args.workers, Nanos::from_micros(5));
                tq_bench::server_config_for(&preset)
            }
            None => ServerConfig {
                workers: args.workers,
                quantum: Nanos::from_micros(5),
                ..ServerConfig::default()
            },
        };
        c.seed = seed;
        c.audit = audit;
        c
    };
    let (job, workload, process) = workload_for(&args.workload).expect("validated at parse");
    if let Some(bind) = args.serve {
        run_server(&args, server_config, job, bind);
        return;
    }
    let spec = RunSpec {
        workload,
        process,
        rate_rps: args.rate_rps,
        horizon: Nanos::from_nanos_f64(args.requests as f64 / args.rate_rps * 1e9),
        seed,
    };
    println!(
        "tq-loadgen ({}): ~{} requests at {:.0} rps ({} workload, {} workers, {} client(s), \
         seed {seed}, audit {})",
        if args.smoke { "smoke" } else { "full" },
        args.requests,
        args.rate_rps,
        args.workload,
        args.workers,
        args.clients,
        if audit { "on" } else { "off" },
    );

    let mut engine = NetEngine::new(server_config.clone(), job, args.transport)
        .with_clients(args.clients);
    if let Some(addr) = args.connect {
        // The record names the server's policy only when --policy says
        // which configuration the remote end runs.
        engine = engine.connect(addr, args.policy.is_some());
    }
    let record = run_to_record(&mut engine, &spec);
    let net = record.net.clone().expect("socket records carry a net block");

    // --- report ----------------------------------------------------------
    println!();
    println!(
        "client: sent {}  responses {}  lost {}  (rtt p50 {} p99 {} p999 {}) over {}",
        net.sent,
        net.responses,
        net.lost,
        Nanos::from_nanos(net.rtt_p50_ns),
        Nanos::from_nanos(net.rtt_p99_ns),
        Nanos::from_nanos(net.rtt_p999_ns),
        net.transport,
    );
    for (i, c) in net.clients.iter().enumerate() {
        println!(
            "client {i}: sent {}  responses {}  rtt p50 {} p99 {} p999 {}",
            c.sent,
            c.responses,
            Nanos::from_nanos(c.rtt_p50_ns),
            Nanos::from_nanos(c.rtt_p99_ns),
            Nanos::from_nanos(c.rtt_p999_ns),
        );
    }
    if net.clients.len() > 1 {
        println!(
            "fan-in: cross-client p99.9 spread {} across {} clients",
            Nanos::from_nanos(net.rtt_p999_spread_ns),
            net.clients.len(),
        );
    }
    if args.connect.is_none() {
        println!(
            "server: received {}  responded {}  malformed {}  shed {}",
            net.server_received, net.server_responded, net.server_malformed, net.server_shed
        );
        println!(
            "        {:.1} frames per recv syscall, {:.1} per send",
            net.frames_per_recv, net.frames_per_send,
        );
    }
    if let Some(report) = &record.audit {
        println!("{report}");
    }

    let mut records = vec![record];
    if args.compare {
        // The same spec through the in-process engine (spin-server
        // model): subtracting its percentiles from the socket record's
        // isolates the wire + syscall cost.
        println!();
        println!("running the in-process RtEngine comparison...");
        let rec = run_to_record(&mut RtEngine::new(server_config), &spec);
        println!(
            "in-process: submitted {}  completed {}  (sojourn p999 of class 0: {})",
            rec.submitted,
            rec.completed,
            rec.classes_sojourn
                .first()
                .map_or_else(|| "-".to_string(), |c| c.p999.to_string()),
        );
        records.push(rec);
    }

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&args.out, json::document(&records)).expect("write results");
    println!("wrote {} ({} records, schema {})", args.out, records.len(), json::SCHEMA);

    // --- verdict ----------------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    for r in &records {
        if let Some(report) = r.audit.as_ref().filter(|a| !a.is_clean()) {
            failures.push(format!("audit violations ({}): {report}", r.system));
        }
    }
    if args.smoke {
        // Loopback at smoke rates: every datagram must survive. An
        // external server's ledger is unknown here (zero).
        if net.lost != 0 {
            failures.push(format!("smoke run lost {} responses", net.lost));
        }
        if net.server_shed != 0 {
            failures.push(format!("smoke run shed {} requests", net.server_shed));
        }
        if net.server_malformed != 0 {
            failures.push(format!("{} malformed datagrams", net.server_malformed));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("conservation held on both sides of the wire");
}
