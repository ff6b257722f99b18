//! Live-runtime experiment driver: runs a bimodal `WorkloadSpec`
//! end-to-end through the real [`TinyQuanta`] server (and, for
//! comparison, the discrete-event model of the same system) via the
//! engine-agnostic harness, and writes both to `results/bench_rt.json`
//! in the shared `tq-run/v1` schema.
//!
//! ```text
//! cargo run --release -p tq-bench --bin bench_rt                 # sim + rt comparison
//! cargo run --release -p tq-bench --bin bench_rt -- --engine rt  # runtime only
//! cargo run --release -p tq-bench --bin bench_rt -- --smoke      # CI gate: ≤1s, 2 workers
//! cargo run --release -p tq-bench --bin bench_rt -- --throughput # dispatch baseline → BENCH_rt.json
//! cargo run --release -p tq-bench --bin bench_rt -- --check      # perf gate vs committed BENCH_rt.json
//! cargo run --release -p tq-bench --bin bench_rt -- --workload bursty --adaptive
//!                                  # hostile-traffic preset + adaptive-quantum controller
//! ```
//!
//! Every run is checked for the conservation invariant (submitted ==
//! completed, no duplicated `JobId`) and a non-empty summary; any
//! violation exits non-zero, which is what the CI smoke job gates on.
//!
//! `--throughput` measures the dispatcher pipeline itself: it floods a
//! server with zero-service requests (rings sized to hold the whole
//! flood, so worker drain speed never back-pressures the measurement)
//! and reports the dispatcher's busy time per forwarded request — once
//! with `dispatch_burst = 1` / `counter_flush_quanta = 1` (exactly the
//! pre-batching per-item pipeline) and once with the batched defaults.
//! Both numbers, and their ratio, are committed to `BENCH_rt.json`
//! (schema `tq-bench-rt/v1`) at the repo root. `--check` re-measures the
//! batched pipeline (best of 2 short trials) and exits non-zero if
//! ns/request regressed past [`RT_CHECK_TOLERANCE`] against the
//! committed baseline; like `bench_sim --check` it never rewrites the
//! baseline. The tolerance is deliberately generous: this is wall-time
//! on an arbitrarily noisy CI host, and the gate exists to catch
//! order-of-magnitude pipeline regressions, not percent-level drift.
//!
//! Real-time numbers depend on the host: workers here are oversubscribed
//! OS threads, not dedicated cores, so absolute latencies on a shared CI
//! box are **not** the paper's — see EXPERIMENTS.md ("Live-runtime runs")
//! before reading anything into them. Conservation and summary shape are
//! host-independent; that is what the smoke mode asserts.
//!
//! Knobs: `TQ_RT_WORKERS` (default 2; 4 in throughput/check modes),
//! `TQ_RT_MILLIS` (arrival horizon, default 80 full / 40 smoke),
//! `TQ_RT_REQUESTS` (throughput/check flood size, default 96k/24k),
//! `TQ_SEED` as everywhere else, and
//! `TQ_AUDIT` (default on; `TQ_AUDIT=0` disables the invariant auditor).
//! With auditing on, every run also carries a `tq_audit` report —
//! conservation with named drops, exactly-once ids, per-ring FIFO,
//! timestamp monotonicity, counter agreement — and any violation fails
//! the process just like the built-in checks.
//!
//! [`TinyQuanta`]: tq_runtime::TinyQuanta

use std::time::Instant;
use tq_core::adaptive::ControllerConfig;
use tq_core::policy::{DispatchPolicy, TieBreak};
use tq_core::Nanos;
use tq_harness::{json, Engine, RtEngine, RunRecord, RunSpec, SimEngine};
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};
use tq_workloads::{table1, ArrivalProcess};

/// `--check` fails when the batched pipeline's ns/request rises above
/// `committed / RT_CHECK_TOLERANCE` (a >2.5x regression). Generous on
/// purpose: CI hosts are shared and the gate targets pipeline-level
/// regressions (a lost batch path, a reintroduced per-item snapshot),
/// not timing drift.
const RT_CHECK_TOLERANCE: f64 = 0.4;

#[derive(Clone, Copy, PartialEq)]
enum EngineChoice {
    Sim,
    Rt,
    Both,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The sim/rt experiment comparison (the original bench_rt).
    Experiment,
    /// Dispatch-throughput baseline: measure both pipelines, write
    /// `BENCH_rt.json`.
    Throughput,
    /// Perf gate: re-measure the batched pipeline against the committed
    /// `BENCH_rt.json`; never rewrites it.
    Check,
}

struct Args {
    engine: EngineChoice,
    smoke: bool,
    mode: Mode,
    policy: Option<String>,
    /// `--workload NAME`: a hostile-traffic preset from
    /// `tq_workloads::hostile` instead of the default bimodal sweep.
    workload: Option<String>,
    /// `--adaptive`: attach the default adaptive-quantum controller to
    /// both engines (the sim via `SystemConfig::with_controller`, the
    /// runtime via `RtEngine::with_controller`).
    adaptive: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        engine: EngineChoice::Both,
        smoke: false,
        mode: Mode::Experiment,
        policy: None,
        workload: None,
        adaptive: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => parsed.smoke = true,
            "--throughput" => parsed.mode = Mode::Throughput,
            "--check" => parsed.mode = Mode::Check,
            "--adaptive" => parsed.adaptive = true,
            "--policy" => {
                parsed.policy = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--policy needs a preset name");
                    std::process::exit(2);
                }));
            }
            "--workload" => {
                parsed.workload = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--workload needs a preset name");
                    std::process::exit(2);
                }));
            }
            "--engine" => {
                let v = args.next().unwrap_or_default();
                parsed.engine = match v.as_str() {
                    "sim" => EngineChoice::Sim,
                    "rt" => EngineChoice::Rt,
                    "both" | "all" => EngineChoice::Both,
                    _ => {
                        eprintln!("--engine takes sim|rt|both, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            _ => {
                eprintln!(
                    "unknown argument {a:?} (supported: --engine sim|rt|both, --smoke, \
                     --throughput, --check, --policy NAME, --workload NAME, --adaptive)"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn rt_horizon(smoke: bool) -> Nanos {
    let default_ms = if smoke { 40 } else { 80 };
    let ms = std::env::var("TQ_RT_MILLIS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_ms);
    Nanos::from_millis(ms.max(1))
}

/// Conservation and summary-shape checks shared by every run. Returns
/// the violations found (empty = clean).
fn check_record(r: &RunRecord, completions_ids: &[u64]) -> Vec<String> {
    let mut violations = Vec::new();
    if !r.conserved() {
        violations.push(format!(
            "conservation: submitted {} != completed {}",
            r.submitted, r.completed
        ));
    }
    let mut ids = completions_ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() as u64 != r.completed {
        violations.push(format!(
            "duplicated JobId: {} unique of {} completions",
            ids.len(),
            r.completed
        ));
    }
    if r.classes.is_empty() || r.classes_sojourn.is_empty() {
        violations.push("empty summary".to_string());
    }
    violations
}

/// Runs one spec through `engine`, prints its headline and per-worker
/// counters, and returns the record plus any invariant violations.
fn run_and_report(engine: &mut dyn Engine, spec: &RunSpec, load: f64) -> (RunRecord, Vec<String>) {
    // Keep the ids for the duplication check before the record builder
    // consumes the completions.
    let out = engine.run(spec, spec.arrivals(), spec.horizon);
    let ids: Vec<u64> = out.completions.iter().map(|c| c.id.0).collect();
    let record = tq_harness::record_from(engine, spec, out);
    let mut violations = check_record(&record, &ids);
    if let Some(report) = &record.audit {
        for v in &report.violations {
            violations.push(format!("audit[{}] {v}", report.context));
        }
    }

    println!(
        "[{}] {:<28} load {:.0}%  rate {} Mrps  achieved {} Mrps  submitted {}  completed {}",
        record.engine,
        record.system,
        load * 100.0,
        tq_bench::mrps(record.rate_rps),
        tq_bench::mrps(record.achieved_rps),
        record.submitted,
        record.completed,
    );
    for c in &record.classes {
        println!(
            "      class {}: n {:>7}  p50 {:>8}  p999 {:>8}  (us, e2e)  slowdown_p999 {:.1}",
            c.class.0,
            c.count,
            tq_bench::us(c.p50),
            tq_bench::us(c.p999),
            c.slowdown_p999,
        );
    }
    // Satellite of the shutdown-path refactor: worker counters are
    // surfaced here instead of being dropped at shutdown.
    println!(
        "      {:>6} {:>12} {:>12} {:>8} {:>9}",
        "worker", "quanta", "completed", "steals", "ring_max"
    );
    for (i, w) in record.counters.workers.iter().enumerate() {
        println!(
            "      {:>6} {:>12} {:>12} {:>8} {:>9}",
            i, w.quanta, w.completed, w.steals, w.max_ring_occupancy
        );
    }
    if let Some(c) = &record.controller {
        println!(
            "      controller: final quantum {}  (windows {}, empty {}, grows {}, shrinks {}, range {}..{})",
            c.final_quantum,
            c.stats.windows,
            c.stats.empty_windows,
            c.stats.grows,
            c.stats.shrinks,
            c.stats.min_quantum_seen,
            c.stats.max_quantum_seen,
        );
    }
    if let Some(report) = &record.audit {
        println!("      {report}");
    }
    for v in &violations {
        eprintln!("      INVARIANT VIOLATION: {v}");
    }
    println!();
    (record, violations)
}

/// One pipeline configuration's dispatch measurement (best trial kept).
struct DispatchMeasure {
    pipeline: &'static str,
    dispatch_burst: usize,
    counter_flush_quanta: u32,
    requests: u64,
    trials: usize,
    forwarded: u64,
    bursts: u64,
    busy_nanos: u64,
    wall_nanos: u64,
}

impl DispatchMeasure {
    /// Dispatcher busy time per forwarded request — the gated number.
    fn ns_per_request(&self) -> f64 {
        self.busy_nanos as f64 / self.forwarded.max(1) as f64
    }

    /// End-to-end throughput of the flood (submit → all completions
    /// collected), in millions of requests per second. Host-dependent;
    /// reported for context, not gated.
    fn wall_mrps(&self) -> f64 {
        self.forwarded as f64 / (self.wall_nanos.max(1) as f64 / 1e9) / 1e6
    }

    /// Mean burst size the dispatcher actually achieved.
    fn mean_burst(&self) -> f64 {
        self.forwarded as f64 / self.bursts.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"pipeline\": \"{}\", \"dispatch_burst\": {}, ",
                "\"counter_flush_quanta\": {}, \"requests\": {}, ",
                "\"trials\": {}, \"forwarded\": {}, \"bursts\": {}, ",
                "\"mean_burst\": {:.2}, \"busy_nanos\": {}, ",
                "\"ns_per_request\": {:.2}, \"wall_mrps\": {:.4}}}"
            ),
            self.pipeline,
            self.dispatch_burst,
            self.counter_flush_quanta,
            self.requests,
            self.trials,
            self.forwarded,
            self.bursts,
            self.mean_burst(),
            self.busy_nanos,
            self.ns_per_request(),
            self.wall_mrps(),
        )
    }
}

/// Floods a server with `n` zero-service requests and reports the
/// dispatcher's counters; keeps the best (lowest ns/request) of `trials`
/// runs, criterion-style, since the minimum is the trial least polluted
/// by scheduler noise on a shared host.
///
/// The rings are sized to hold the entire flood, so the measurement
/// never includes backpressure waits: worker drain speed is a property
/// of the host (oversubscribed OS threads), not of the dispatch
/// pipeline being measured.
fn measure_dispatch(
    clock: &TscClock,
    workers: usize,
    n: u64,
    trials: usize,
    audit: bool,
    seed: u64,
    per_item: bool,
) -> DispatchMeasure {
    let (dispatch_burst, counter_flush_quanta) = if per_item {
        (1, 1) // exactly the pre-batching pipeline
    } else {
        let d = ServerConfig::default();
        (d.dispatch_burst, d.counter_flush_quanta)
    };
    let mut best: Option<DispatchMeasure> = None;
    for _ in 0..trials.max(1) {
        let config = ServerConfig {
            workers,
            quantum: Nanos::from_micros(5),
            ring_capacity: (2 * n as usize / workers).max(1024),
            dispatch: DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
            dispatch_burst,
            counter_flush_quanta,
            seed,
            audit,
            ..ServerConfig::default()
        };
        let job_clock = clock.clone();
        let server = TinyQuanta::start_with_clock(config, clock.clone(), move |req| {
            Box::new(SpinJob::with_clock(req, &job_clock))
        });
        let started = Instant::now();
        for _ in 0..n {
            server.submit(0, Nanos::ZERO);
        }
        let (completions, stats) = server.shutdown_with_stats();
        let wall_nanos = started.elapsed().as_nanos() as u64;
        assert_eq!(
            completions.len() as u64,
            n,
            "throughput flood must conserve jobs"
        );
        if let Some(report) = &stats.audit {
            assert!(report.is_clean(), "audit violations during flood: {report}");
        }
        let m = DispatchMeasure {
            pipeline: if per_item { "per_item" } else { "batched" },
            dispatch_burst,
            counter_flush_quanta,
            requests: n,
            trials: trials.max(1),
            forwarded: stats.dispatcher.forwarded,
            bursts: stats.dispatcher.bursts,
            busy_nanos: stats.dispatcher.busy_nanos,
            wall_nanos,
        };
        if best
            .as_ref()
            .is_none_or(|b| m.ns_per_request() < b.ns_per_request())
        {
            best = Some(m);
        }
    }
    best.expect("at least one trial")
}

fn print_measure(m: &DispatchMeasure) {
    println!(
        "{:>9}: {:>7.1} ns/request  ({:.3} Mrps wall, mean burst {:.1}, \
         {} forwarded over {} bursts)",
        m.pipeline,
        m.ns_per_request(),
        m.wall_mrps(),
        m.mean_burst(),
        m.forwarded,
        m.bursts,
    );
}

/// `--throughput`: measure both pipelines, write `BENCH_rt.json`.
fn run_throughput(workers: usize, audit: bool, seed: u64) -> ! {
    let n = tq_bench::env_positive("TQ_RT_REQUESTS", 96_000);
    let trials = 3;
    println!(
        "bench_rt (throughput): {workers} workers, {n} requests/trial, best of {trials}, \
         seed {seed}, audit {}",
        if audit { "on" } else { "off" }
    );
    println!();
    let clock = TscClock::calibrated();
    // Interleaved would be fairer against slow host drift, but each
    // measurement already keeps its own best-of-trials minimum.
    let per_item = measure_dispatch(&clock, workers, n, trials, audit, seed, true);
    print_measure(&per_item);
    let batched = measure_dispatch(&clock, workers, n, trials, audit, seed, false);
    print_measure(&batched);
    let speedup = per_item.ns_per_request() / batched.ns_per_request();
    println!();
    println!("dispatch speedup (per-item / batched ns/request): {speedup:.2}x");

    let doc = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"tq-bench-rt/v1\",\n",
            "  \"workers\": {},\n",
            "  \"requests\": {},\n",
            "  \"seed\": {},\n",
            "  \"audit\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"quick\": {},\n",
            "  \"dispatch\": [\n    {},\n    {}\n  ],\n",
            "  \"speedup_ns_per_request\": {:.2}\n",
            "}}\n"
        ),
        workers,
        n,
        seed,
        audit,
        tq_bench::host_cores(),
        n < 96_000, // reduced flood via TQ_RT_REQUESTS: not a full baseline
        per_item.json(),
        batched.json(),
        speedup,
    );
    std::fs::write("BENCH_rt.json", &doc).expect("write BENCH_rt.json");
    println!("wrote BENCH_rt.json");
    std::process::exit(0);
}

/// `--check`: gate the batched pipeline against the committed baseline.
fn run_check(workers: usize, audit: bool, seed: u64) -> ! {
    let n = tq_bench::env_positive("TQ_RT_REQUESTS", 24_000);
    let trials = 2;
    println!(
        "bench_rt (check): {workers} workers, {n} requests/trial, best of {trials}, \
         seed {seed}, audit {}",
        if audit { "on" } else { "off" }
    );
    println!();
    let committed =
        std::fs::read_to_string("BENCH_rt.json").expect("--check needs a committed BENCH_rt.json");
    let baseline = tq_bench::baseline_number(&committed, "batched", "ns_per_request")
        .expect("BENCH_rt.json has no batched ns_per_request");
    let clock = TscClock::calibrated();
    let batched = measure_dispatch(&clock, workers, n, trials, audit, seed, false);
    print_measure(&batched);
    let current = batched.ns_per_request();
    // ns/request is a cost, so the health ratio inverts: below 1.0 means
    // slower than the committed baseline.
    let ratio = baseline / current;
    println!();
    println!(
        "perf gate: {current:.1} ns/request vs committed {baseline:.1} ns/request — \
         {:.0}% (floor {:.0}%)",
        ratio * 100.0,
        RT_CHECK_TOLERANCE * 100.0,
    );
    if ratio < RT_CHECK_TOLERANCE {
        eprintln!(
            "PERF REGRESSION: dispatch ns/request rose to {:.1}x the committed baseline",
            current / baseline
        );
        std::process::exit(1);
    }
    println!("perf gate passed");
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    let (choice, smoke) = (args.engine, args.smoke);
    let audit = tq_bench::audit_enabled();
    if (args.policy.is_some() || args.workload.is_some() || args.adaptive)
        && args.mode != Mode::Experiment
    {
        eprintln!(
            "--policy/--workload/--adaptive only apply to the experiment mode \
             (not --throughput/--check)"
        );
        std::process::exit(2);
    }
    // Worker count (`TQ_RT_WORKERS` overrides): 4 in the throughput
    // modes, where the per-burst load snapshot (one read per worker) has
    // more to amortize, 2 in the experiment modes.
    let workers_or = |default| tq_bench::env_positive("TQ_RT_WORKERS", default) as usize;
    match args.mode {
        Mode::Throughput => run_throughput(workers_or(4), audit, tq_bench::seed()),
        Mode::Check => run_check(workers_or(4), audit, tq_bench::seed()),
        Mode::Experiment => {}
    }
    let workers = workers_or(2);
    let horizon = rt_horizon(smoke);
    let seed = tq_bench::seed();
    // Default: the bimodal sweep at conservative loads (the live workers
    // are oversubscribed OS threads on whatever host runs this, not
    // dedicated cores at paper capacity). `--workload NAME` swaps in one
    // hostile-traffic preset at its catalog load — including >1.0 for
    // the sustained-overload scenario.
    let (workload, process, loads): (_, _, Vec<f64>) = match args.workload.as_deref() {
        Some(name) => {
            let p = tq_bench::workload_or_exit(name);
            (p.workload, p.process, vec![p.load])
        }
        None => {
            let loads: &[f64] = if smoke { &[0.2] } else { &[0.2, 0.4] };
            (table1::extreme_bimodal(), ArrivalProcess::Poisson, loads.to_vec())
        }
    };
    let quantum = Nanos::from_micros(5);
    // One preset drives both engines: the sim runs it verbatim, the
    // runtime takes its dispatch/discipline/stealing via the shared
    // mapping — the same policy impl on both sides of the comparison.
    let mut preset = tq_bench::policy_or_exit(args.policy.as_deref().unwrap_or("tq"), workers, quantum);
    if args.adaptive {
        preset = preset.with_controller(ControllerConfig::default());
    }

    println!(
        "bench_rt ({}): {} workers, horizon {}, seed {}, audit {}, policy {}, workload {}{}",
        if smoke { "smoke" } else { "full" },
        workers,
        horizon,
        seed,
        if audit { "on" } else { "off" },
        preset.name,
        workload.name(),
        if args.adaptive { ", adaptive quantum" } else { "" },
    );
    println!();

    let mut records: Vec<RunRecord> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for &load in &loads {
        let spec = RunSpec {
            workload: workload.clone(),
            process,
            rate_rps: workload.rate_for_load(workers, load),
            horizon,
            seed,
        };
        if choice != EngineChoice::Rt {
            let mut sim = SimEngine::new(preset.clone()).with_audit(audit);
            let (rec, viol) = run_and_report(&mut sim, &spec, load);
            records.push(rec);
            violations.extend(viol);
        }
        if choice != EngineChoice::Sim {
            let base = ServerConfig {
                seed,
                audit,
                ..tq_bench::server_config_for(&preset)
            };
            let mut configs = vec![base.clone()];
            if !smoke && args.policy.is_none() && args.workload.is_none() {
                configs.push(ServerConfig {
                    work_stealing: true,
                    ..base
                });
            }
            for config in configs {
                let mut rt = RtEngine::new(config);
                if args.adaptive {
                    rt = rt.with_controller(ControllerConfig::default());
                }
                let (rec, viol) = run_and_report(&mut rt, &spec, load);
                records.push(rec);
                violations.extend(viol);
            }
        }
    }

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/bench_rt.json";
    std::fs::write(path, json::document(&records)).expect("write bench_rt.json");
    println!("wrote {path} ({} runs, schema {})", records.len(), json::SCHEMA);

    if !violations.is_empty() {
        eprintln!("\n{} invariant violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!(
        "all invariants held (conservation, unique ids, non-empty summaries{})",
        if audit { ", audit clean" } else { "" }
    );
}
