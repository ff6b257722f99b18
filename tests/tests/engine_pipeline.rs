//! The engine-abstraction contract, end to end.
//!
//! Three guarantees pin the harness to the rest of the repo:
//!
//! 1. **Sim identity** — a [`SimEngine`] run summarized through
//!    [`run_to_record`] is the same experiment as
//!    `tq_queueing::run::run_once`: identical per-class summaries,
//!    slowdown tail, goodput, and event counts.
//! 2. **Conservation on the live runtime** — across the dispatch-policy
//!    matrix × work-stealing × 2–4 workers, every submitted `JobId`
//!    completes exactly once, and the per-worker counters reconcile
//!    with the completion stream.
//! 3. **Shared schema** — sim, rt and socket engines emit through one
//!    JSON path; the `engine` field and the socket run's `net` block are
//!    the only structural differences.

use tq_core::policy::{DispatchPolicy, TieBreak};
use tq_core::Nanos;
use tq_harness::{
    json, run_to_record, Engine, NetEngine, NetJob, RtEngine, RunSpec, SimEngine, Wire,
};
use tq_queueing::{presets, run_once};
use tq_runtime::ServerConfig;
use tq_workloads::{table1, ArrivalProcess};

fn spec(workers: usize, load: f64, horizon_ms: u64, seed: u64) -> RunSpec {
    let workload = table1::extreme_bimodal();
    let rate_rps = workload.rate_for_load(workers, load);
    RunSpec {
        workload,
        process: ArrivalProcess::Poisson,
        rate_rps,
        horizon: Nanos::from_millis(horizon_ms),
        seed,
    }
}

#[test]
fn sim_engine_matches_run_once() {
    for cfg in [
        presets::tq(4, Nanos::from_micros(2)),
        presets::caladan_directpath(4),
        presets::shinjuku(4, Nanos::from_micros(5)),
    ] {
        let workload = table1::extreme_bimodal();
        let rate = workload.rate_for_load(4, 0.6);
        let duration = Nanos::from_millis(10);
        let seed = 42;

        let reference = run_once(&cfg, &workload, rate, duration, seed);
        let mut engine = SimEngine::new(cfg.clone());
        let record = run_to_record(
            &mut engine,
            &RunSpec {
                workload,
                process: ArrivalProcess::Poisson,
                rate_rps: rate,
                horizon: duration,
                seed,
            },
        );

        assert_eq!(record.classes, reference.classes, "{} e2e diverged", cfg.name);
        assert_eq!(
            record.classes_sojourn, reference.classes_sojourn,
            "{} sojourn diverged",
            cfg.name
        );
        assert!(
            (record.overall_slowdown_p999 - reference.overall_slowdown_p999).abs() < 1e-12,
            "{} slowdown tail diverged",
            cfg.name
        );
        assert!(
            (record.achieved_rps - reference.achieved_rps).abs() < 1e-6,
            "{} goodput diverged",
            cfg.name
        );
        assert_eq!(
            record.counters.sim_events, reference.sim_events,
            "{} event count diverged",
            cfg.name
        );
        assert!(record.conserved(), "{} lost jobs", cfg.name);
    }
}

#[test]
fn sim_worker_counters_reconcile_with_completions() {
    let mut engine = SimEngine::new(presets::tq(4, Nanos::from_micros(2)));
    let s = spec(4, 0.5, 10, 7);
    let out = engine.run(&s, s.arrivals(), s.horizon);
    let per_worker: u64 = out.counters.workers.iter().map(|w| w.completed).sum();
    assert_eq!(per_worker, out.completions.len() as u64);
    let quanta: u64 = out.counters.workers.iter().map(|w| w.quanta).sum();
    assert!(
        quanta >= out.completions.len() as u64,
        "every job takes at least one quantum"
    );
}

/// Satellite: the live runtime loses no job and duplicates no `JobId`
/// across the dispatch-policy matrix × stealing × 2–4 workers. Latency
/// on a shared host is meaningless; conservation is not.
#[test]
fn rt_conservation_across_policy_matrix() {
    let policies = [
        DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
        DispatchPolicy::Jsq(TieBreak::Random),
        DispatchPolicy::Random,
        DispatchPolicy::PowerOfTwo,
    ];
    for (i, &dispatch) in policies.iter().enumerate() {
        for &work_stealing in &[false, true] {
            let workers = 2 + (i % 3); // 2, 3, 4 across the matrix
            let mut engine = RtEngine::new(ServerConfig {
                workers,
                quantum: Nanos::from_micros(5),
                dispatch,
                work_stealing,
                ..ServerConfig::default()
            });
            let s = spec(workers, 0.3, 8, 11 + i as u64);
            let out = engine.run(&s, s.arrivals(), s.horizon);
            let label = format!("{dispatch:?} stealing={work_stealing} workers={workers}");

            assert_eq!(
                out.completions.len() as u64,
                out.submitted,
                "{label}: lost or spurious completions"
            );
            let mut ids: Vec<u64> = out.completions.iter().map(|c| c.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len() as u64,
                out.submitted,
                "{label}: duplicated JobId"
            );
            let per_worker: u64 = out.counters.workers.iter().map(|w| w.completed).sum();
            assert_eq!(
                per_worker, out.submitted,
                "{label}: worker counters disagree with completions"
            );
            assert_eq!(
                out.counters.dispatcher_forwarded, out.submitted,
                "{label}: dispatcher forwarded count disagrees"
            );
            if !work_stealing {
                assert_eq!(
                    out.counters.workers.iter().map(|w| w.steals).sum::<u64>(),
                    0,
                    "{label}: steals without stealing mode"
                );
            }
        }
    }
}

/// The rt pipeline produces a real summary through the same metrics path
/// (per-class percentiles, non-degenerate sojourns at least the service
/// time).
#[test]
fn rt_record_summarizes_through_shared_pipeline() {
    let mut engine = RtEngine::new(ServerConfig {
        workers: 2,
        quantum: Nanos::from_micros(5),
        ..ServerConfig::default()
    });
    let s = spec(2, 0.2, 10, 42);
    let record = run_to_record(&mut engine, &s);
    assert!(record.conserved(), "rt run lost jobs");
    assert_eq!(record.engine, "rt");
    assert_eq!(record.model, "runtime");
    assert!(!record.classes.is_empty(), "empty e2e summary");
    assert!(!record.classes_sojourn.is_empty(), "empty sojourn summary");
    // Sojourn can never beat the service time (SpinJob burns real CPU),
    // so per-class p50 sojourn must be at least the class's minimum
    // service; the bare-sojourn p50 of the short class exceeds 400ns.
    let short = &record.classes_sojourn[0];
    assert!(
        short.p50 >= Nanos::from_nanos(400),
        "short-class sojourn impossibly small: {}",
        short.p50
    );
    // Per-worker counters surfaced, not dropped.
    assert_eq!(record.counters.workers.len(), 2);
    assert!(record.counters.workers.iter().map(|w| w.quanta).sum::<u64>() > 0);
}

/// A quoted string directly followed by a colon is a key; string
/// *values* never are.
fn keys(obj: &str) -> std::collections::BTreeSet<String> {
    let parts: Vec<&str> = obj.split('"').collect();
    (1..parts.len())
        .step_by(2)
        .filter(|&i| {
            parts
                .get(i + 1)
                .is_some_and(|rest| rest.trim_start().starts_with(':'))
        })
        .map(|i| parts[i].to_string())
        .collect()
}

/// A record's JSON with the `net` line (key and value) removed.
fn without_net(record: &str) -> String {
    let at = record.find("\"net\": ").expect("net key");
    let end = at + record[at..].find('\n').expect("net line ends");
    format!("{}{}", &record[..at], &record[end..])
}

fn audited_server(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        quantum: Nanos::from_micros(5),
        audit: true,
        ..ServerConfig::default()
    }
}

/// Sim, rt and socket engines serialize through one code path into the
/// same schema.
#[test]
fn sim_and_rt_share_one_json_schema() {
    let s = spec(2, 0.2, 5, 42);
    let mut sim = SimEngine::new(presets::tq(2, Nanos::from_micros(5))).with_audit(true);
    let mut rt = RtEngine::new(audited_server(2));
    let mut net = NetEngine::new(audited_server(2), NetJob::Spin, Wire::Batched);
    let records = [
        run_to_record(&mut sim, &s),
        run_to_record(&mut rt, &s),
        run_to_record(&mut net, &s),
    ];
    let doc = json::document(&records);
    assert!(doc.contains("\"schema\": \"tq-run/v1\""));
    assert!(doc.contains("\"engine\": \"sim\""));
    assert!(doc.contains("\"engine\": \"rt\""));
    let sim_json = json::record_json(&records[0]);
    let rt_json = json::record_json(&records[1]);
    assert_eq!(
        keys(&sim_json),
        keys(&rt_json),
        "sim and rt JSON expose different keys"
    );

    let net_record = &records[2];
    assert!(net_record.conserved(), "socket run lost requests");
    let audit = net_record.audit.as_ref().expect("audited socket run");
    assert!(audit.is_clean(), "socket audit: {audit}");
    assert!(net_record.net.is_some(), "socket record without a net block");
    assert_eq!(
        keys(&without_net(&json::record_json(net_record))),
        keys(&without_net(&rt_json)),
        "net and rt JSON expose different keys outside the net block"
    );
}

/// Two fan-in clients: per-client tails, one ledger, unique merged ids.
#[test]
fn net_engine_merges_fan_in_clients() {
    let s = spec(2, 0.2, 5, 42);
    let mut engine =
        NetEngine::new(audited_server(2), NetJob::Spin, Wire::Batched).with_clients(2);
    let out = engine.run(&s, s.arrivals(), s.horizon);
    let net = out.net.as_ref().expect("net block");
    assert_eq!(net.clients.len(), 2);
    assert_eq!(net.sent, net.responses + net.lost, "client ledger");
    assert_eq!(net.sent, out.submitted);
    let mut ids: Vec<u64> = out.completions.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), out.completions.len(), "duplicated merged id");
    let audit = out.audit.as_ref().expect("audited socket run");
    assert!(audit.is_clean(), "socket audit: {audit}");
}
