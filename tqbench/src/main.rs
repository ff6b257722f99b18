//! The repository benchmark: one command, three workloads, every metric
//! printed by name and unit, outputs checked on every run.
//!
//! ```text
//! cargo run --release --manifest-path tqbench/Cargo.toml -- \
//!     --workload net_flood|kv_open|sim_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the same workload once untraced and once with every layer
//! wrapped, and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A failed correctness check exits with code 1. See
//! `tqbench/README.md` for the workloads, the metrics and the
//! layer-to-end-to-end map.

mod live;
mod sim;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use trace::SpanLog;

/// A named measurement with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry fails the run.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Printed and saved, never gated: tails with sample counts, the
    /// workload-specific headline numbers, the sim digest.
    pub notes: Vec<Metric>,
    pub lines: Vec<String>,
    pub spans: Option<SpanLog>,
}

/// The end-to-end metrics, reported by every workload from untraced
/// runs, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("goodput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, reported by every workload from traced runs.
/// A layer a workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 43] = [
    ("transport.recv_ns_per_frame", "ns"),
    ("transport.recv_frames_per_call", "frames/call"),
    ("transport.recv_empty_frac", "ratio"),
    ("transport.send_ns_per_frame", "ns"),
    ("transport.send_frames_per_call", "frames/call"),
    ("net.serve_cpu_ns_per_request", "ns"),
    ("net.serve_self_ns_per_request", "ns"),
    ("net.max_in_flight", "count"),
    ("net.outside_sojourn_p50_us", "us"),
    ("dispatcher.busy_ns_per_request", "ns"),
    ("dispatcher.mean_burst", "req/burst"),
    ("dispatcher.ring_full_retries", "count"),
    ("dispatcher.cpu_ns_per_request", "ns"),
    ("ring.wait_p50_us", "us"),
    ("ring.wait_p99_us", "us"),
    ("ring.max_occupancy", "count"),
    ("worker.slice_ns_p50", "ns"),
    ("worker.overshoot_ns_p99", "ns"),
    ("worker.quanta_per_request", "quanta/req"),
    ("worker.service_frac", "ratio"),
    ("worker.idle_iterations", "count"),
    ("kv.get_service_ns_p50", "ns"),
    ("kv.scan_service_us_p50", "us"),
    ("kv.scan_slices_p50", "count"),
    ("kv.probes_per_scan", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "events/s"),
    ("sim.p999_slowdown", "ratio"),
    ("sim.two_level.ns_per_event", "ns"),
    ("sim.centralized.ns_per_event", "ns"),
    ("sim.rack.ns_per_event", "ns"),
    ("sim.rack.windows_per_kevent", "count"),
    ("sim.rack.messages_per_event", "ratio"),
    ("harness.summarize_ns_per_completion", "ns"),
    ("client.scan_rtt_p50_us", "us"),
    ("client.fail_frac", "ratio"),
    ("client.send_lag_p99_us", "us"),
    ("client.rtt_p99_us", "us"),
    ("client.get_rtt_p99_us", "us"),
    ("client.get_rtt_p999_us", "us"),
    ("client.tail_samples", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    NetFlood,
    KvOpen,
    SimSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "net_flood" => Some(Workload::NetFlood),
            "kv_open" => Some(Workload::KvOpen),
            "sim_sweep" => Some(Workload::SimSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::NetFlood => "net_flood",
            Workload::KvOpen => "kv_open",
            Workload::SimSweep => "sim_sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
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
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The host facts every result carries, so numbers from different
/// hosts are never compared.
fn host_facts() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("host_cores", cores.to_string()),
        ("kernel", kernel),
        ("cpu_model", cpu),
    ]
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`. Steal is time
/// the hypervisor ran something else on this guest's CPUs.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX.copysign(v))
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Orders `got` as `wanted`, filling names a workload does not measure
/// with 0. A reported name outside `wanted` is a benchmark bug.
fn select(got: &[Metric], wanted: &[(&'static str, &'static str)], fill: bool) -> Vec<Metric> {
    for m in got {
        assert!(
            wanted.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} [{}] is not in the declared set",
            m.name,
            m.unit
        );
    }
    wanted
        .iter()
        .map(|&(name, unit)| {
            got.iter()
                .find(|m| m.name == name)
                .copied()
                .unwrap_or_else(|| {
                    assert!(fill, "end-to-end metric {name} missing");
                    metric(name, 0.0, unit)
                })
        })
        .collect()
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tqbench: {e}");
            eprintln!(
                "usage: tqbench --workload net_flood|kv_open|sim_sweep --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let host = host_facts();
    println!(
        "tqbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &host {
        println!("host {k} {v}");
    }

    let (steal0, total0) = cpu_ticks();
    let mut out = match args.workload {
        Workload::NetFlood => live::run(live::Kind::Flood, args.seed, args.seconds, args.trace),
        Workload::KvOpen => live::run(live::Kind::Kv, args.seed, args.seconds, args.trace),
        Workload::SimSweep => sim::run(args.seed, args.seconds, args.trace),
    };
    // A busy host steals time from this guest; runs with a high share
    // are not comparable with quiet ones.
    let (steal1, total1) = cpu_ticks();
    out.notes.push(metric(
        "host.steal_frac",
        trace::ratio((steal1 - steal0) as f64, (total1 - total0) as f64),
        "ratio",
    ));
    let metrics = if args.trace {
        select(&out.metrics, &PER_LAYER, true)
    } else {
        out.metrics
            .push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
        select(&out.metrics, &END_TO_END, false)
    };

    for line in &out.lines {
        println!("{line}");
    }
    for m in metrics.iter().chain(&out.notes) {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }

    // The saved record: host facts, every metric and note, the checks.
    let dir = results_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(&dir).and_then(|()| {
        let host_json: Vec<String> = host
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let errors: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
        let lines: Vec<String> = out.lines.iter().map(|l| json_str(l)).collect();
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \
             \"metrics\": {}, \"notes\": {}, \"lines\": [{}], \"errors\": [{}]}}\n",
            json_str(args.workload.name()),
            args.seed,
            json_num(args.seconds),
            args.trace,
            host_json.join(", "),
            metrics_json(&metrics),
            metrics_json(&out.notes),
            lines.join(", "),
            errors.join(", ")
        );
        std::fs::write(dir.join(format!("{stem}.json")), record)?;
        if let Some(spans) = &out.spans {
            spans.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
        }
        Ok(())
    });
    if let Err(e) = saved {
        out.errors
            .push(format!("writing results to {}: {e}", dir.display()));
    }

    if out.attempted == 0 {
        out.errors.push("the run attempted nothing".into());
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    std::io::stdout().flush().expect("flush stdout");
    if !correct {
        std::process::exit(1);
    }
}
