//! `sim_sweep`: the discrete-event models, with no sockets and no
//! runtime threads. `SimEngine` two-level (TQ) and centralized
//! (Shinjuku) on Extreme Bimodal across a load sweep at the paper's 16
//! workers, plus one sharded `RackEngine` point. The sweep repeats until
//! the run's time is up; every repetition must produce the same digest.

use crate::trace::{span_id, Span, SpanLog};
use crate::{metric, Outcome};
use std::time::Instant;
use tq_core::Nanos;
use tq_harness::{
    run_to_record, Engine, EngineKind, PolicyMeta, RackEngine, RackMeta, RunOutput, RunRecord,
    RunSpec, SimEngine,
};
use tq_queueing::presets;
use tq_queueing::rack::{RackPolicy, RackSpec};
use tq_workloads::{table1, ArrivalGen, ArrivalProcess};

const WORKERS: usize = 16;
/// The sweep's loads; the last is the high-load point `sim_p999_slowdown`
/// reads.
const LOADS: [f64; 4] = [0.5, 0.7, 0.8, 0.9];
/// Simulated time per point.
const HORIZON: Nanos = Nanos::from_millis(20);
const RACK_SERVERS: usize = 4;
const RACK_LOAD: f64 = 0.8;
/// PDES threads of the rack point. One: the sharded model executed
/// serially. On a shared 2-core host a second thread showed no steady
/// speed-up, and its allocator arena made peak RSS vary from 50 to
/// 64 MiB between runs.
const RACK_THREADS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest sweep repetitions in a run, so the determinism check always
/// has two digests to compare.
const MIN_REPS: usize = 2;

/// The engines of the sweep, one per [`Model`].
struct Engines {
    two_level: SimEngine,
    centralized: SimEngine,
    rack: RackEngine,
}

impl Engines {
    fn new() -> Self {
        let mut rack = RackSpec::new(presets::tq(WORKERS, Nanos::from_micros(2)), RACK_SERVERS);
        rack.policy = RackPolicy::PowerOfK(2);
        Engines {
            two_level: SimEngine::new(presets::tq(WORKERS, Nanos::from_micros(2))),
            centralized: SimEngine::new(presets::shinjuku(WORKERS, Nanos::from_micros(5))),
            rack: RackEngine::new(rack, RACK_THREADS),
        }
    }

    fn get(&mut self, model: Model) -> &mut dyn Engine {
        match model {
            Model::TwoLevel => &mut self.two_level,
            Model::Centralized => &mut self.centralized,
            Model::Rack => &mut self.rack,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    TwoLevel,
    Centralized,
    Rack,
}

struct Point {
    model: Model,
    spec: RunSpec,
}

/// The sweep's points, in run order.
fn points(seed: u64, horizon: Nanos) -> Vec<Point> {
    let workload = table1::extreme_bimodal();
    let spec = |rate_rps| RunSpec {
        workload: workload.clone(),
        process: ArrivalProcess::Poisson,
        rate_rps,
        horizon,
        seed,
    };
    let mut points = Vec::new();
    for model in [Model::TwoLevel, Model::Centralized] {
        for load in LOADS {
            points.push(Point {
                model,
                spec: spec(workload.rate_for_load(WORKERS, load)),
            });
        }
    }
    points.push(Point {
        model: Model::Rack,
        spec: spec(workload.rate_for_load(WORKERS, RACK_LOAD) * RACK_SERVERS as f64),
    });
    points
}

/// An [`Engine`] that times `Engine::run` on the engine it wraps and
/// checks, outside that span, that completion ids are unique. What
/// `run_to_record` spends after `run` returns is the summarizing.
struct Timed<'a> {
    inner: &'a mut dyn Engine,
    origin: Instant,
    run: (u64, u64),
    check_end: u64,
    duplicate_ids: u64,
}

impl Engine for Timed<'_> {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }
    fn model(&self) -> &'static str {
        self.inner.model()
    }
    fn system(&self) -> String {
        self.inner.system()
    }
    fn workers(&self) -> usize {
        self.inner.workers()
    }
    fn take_rack_meta(&mut self) -> Option<RackMeta> {
        self.inner.take_rack_meta()
    }
    fn policy_meta(&self) -> Option<PolicyMeta> {
        self.inner.policy_meta()
    }

    fn run(&mut self, spec: &RunSpec, arrivals: ArrivalGen, horizon: Nanos) -> RunOutput {
        let t0 = self.origin.elapsed().as_nanos() as u64;
        let out = self.inner.run(spec, arrivals, horizon);
        let t1 = self.origin.elapsed().as_nanos() as u64;
        let mut seen = vec![false; out.completions.len()];
        for c in &out.completions {
            match seen.get_mut(c.id.0 as usize) {
                Some(s) if !*s => *s = true,
                _ => self.duplicate_ids += 1,
            }
        }
        self.run = (t0, t1);
        self.check_end = self.origin.elapsed().as_nanos() as u64;
        out
    }
}

/// FNV-1a over the fields of a summary that scheduling determines.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn record(&mut self, r: &RunRecord) {
        for v in [
            r.submitted,
            r.completed,
            r.in_horizon,
            r.counters.sim_events,
        ] {
            self.add(v);
        }
        self.add(r.rate_rps.to_bits());
        self.add(r.overall_slowdown_p999.to_bits());
        for c in r.classes_sojourn.iter().chain(&r.classes) {
            for v in [
                c.count as u64,
                c.p50.as_nanos(),
                c.p99.as_nanos(),
                c.p999.as_nanos(),
                c.mean.as_nanos(),
            ] {
                self.add(v);
            }
            self.add(c.slowdown_p999.to_bits());
        }
        if let Some(rack) = &r.rack {
            self.add(rack.windows);
            self.add(rack.messages);
        }
    }
}

/// One sweep repetition's host times and simulated totals.
#[derive(Debug, Default, Clone)]
struct Rep {
    /// Host time of the sweep, correctness checks excluded.
    wall_ns: u64,
    events: u64,
    completions: u64,
    submitted: u64,
    digest: u64,
    top_p999_slowdown: f64,
    /// Per model: Engine::run host time and simulated events.
    run_ns: [u64; 3],
    model_events: [u64; 3],
    summarize_ns: u64,
    rack_windows: u64,
    rack_messages: u64,
    /// Span time inside points (run + check + summarize).
    covered_ns: u64,
}

fn sweep(
    engines: &mut Engines,
    points: &[Point],
    spans: Option<&mut SpanLog>,
    errors: &mut Vec<String>,
) -> Rep {
    let origin = Instant::now();
    let rep_span = span_id();
    let mut local = SpanLog::default();
    let mut rep = Rep::default();
    let mut digest = Digest::new();
    let mut check_ns = 0;
    let top_rate = points_top_rate(points);
    for (i, p) in points.iter().enumerate() {
        let mut timed = Timed {
            inner: engines.get(p.model),
            origin,
            run: (0, 0),
            check_end: 0,
            duplicate_ids: 0,
        };
        let p0 = origin.elapsed().as_nanos() as u64;
        let record = run_to_record(&mut timed, &p.spec);
        let p1 = origin.elapsed().as_nanos() as u64;
        let (r0, r1, c1) = (timed.run.0, timed.run.1, timed.check_end);
        if timed.duplicate_ids > 0 {
            errors.push(format!(
                "point {i}: {} duplicate completion ids",
                timed.duplicate_ids
            ));
        }
        if !record.conserved() {
            errors.push(format!(
                "point {i}: submitted {} but completed {}",
                record.submitted, record.completed
            ));
        }
        digest.record(&record);
        let m = p.model as usize;
        rep.run_ns[m] += r1 - r0;
        rep.model_events[m] += record.counters.sim_events;
        rep.summarize_ns += p1 - c1;
        rep.events += record.counters.sim_events;
        rep.completions += record.completed;
        rep.submitted += record.submitted;
        rep.covered_ns += p1 - p0;
        check_ns += c1 - r1;
        if let Some(rack) = &record.rack {
            rep.rack_windows += rack.windows;
            rep.rack_messages += rack.messages;
        }
        if p.model == Model::TwoLevel && p.spec.rate_rps == top_rate {
            rep.top_p999_slowdown = record.overall_slowdown_p999;
        }
        if spans.is_some() {
            let point = span_id();
            for (name, start, end, id, parent) in [
                ("sim.point", p0, p1, point, rep_span),
                ("engine.run", r0, r1, span_id(), point),
                ("check", r1, c1, span_id(), point),
                ("summarize", c1, p1, span_id(), point),
            ] {
                local.push(Span {
                    id,
                    parent,
                    name,
                    start_ns: start,
                    end_ns: end,
                    tag: i as u64,
                });
            }
        }
    }
    let end = origin.elapsed().as_nanos() as u64;
    rep.wall_ns = end - check_ns;
    rep.covered_ns -= check_ns;
    rep.digest = digest.0;
    if let Some(log) = spans {
        log.push(Span {
            id: rep_span,
            parent: 0,
            name: "sim.sweep",
            start_ns: 0,
            end_ns: end,
            tag: 0,
        });
        log.absorb(local);
    }
    rep
}

/// The two-level sweep's top offered rate.
fn points_top_rate(points: &[Point]) -> f64 {
    points
        .iter()
        .filter(|p| p.model == Model::TwoLevel)
        .map(|p| p.spec.rate_rps)
        .fold(0.0, f64::max)
}

/// Builds the engines and runs each once at its top load for a quarter
/// of the horizon, so lazy allocation and cold caches are paid before
/// timing starts.
fn setup(seed: u64) -> (Engines, Vec<Point>) {
    let mut engines = Engines::new();
    let warm = points(seed, Nanos::from_nanos(HORIZON.as_nanos() / 4));
    for model in [Model::TwoLevel, Model::Centralized, Model::Rack] {
        let p = warm
            .iter()
            .rev()
            .find(|p| p.model == model)
            .expect("every model has a point");
        let record = run_to_record(engines.get(model), &p.spec);
        std::hint::black_box(record.completed);
    }
    (engines, points(seed, HORIZON))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The repetition at the 10th percentile of host time, whose rates are
/// the 90th percentile of every rate (each repetition does the same
/// simulated work). The host's speed swings by up to 40% in phases of a
/// few seconds: one 30 s run went between 370 and 620 ms per sweep.
/// The median followed those phases and spread 14% over ten runs; the
/// fastest tenth tracks the sweep's own cost.
fn fast(reps: &[Rep]) -> &Rep {
    let mut by_time: Vec<&Rep> = reps.iter().collect();
    by_time.sort_by_key(|r| r.wall_ns);
    by_time[(by_time.len() - 1) / 10]
}

/// Completed requests per host second.
fn rate(r: &Rep) -> f64 {
    r.completions as f64 * 1e9 / r.wall_ns as f64
}

fn events_per_s(r: &Rep) -> f64 {
    r.events as f64 * 1e9 / r.wall_ns as f64
}

/// Repeats the sweep until `seconds` are spent (at least [`MIN_REPS`]
/// times), checking every repetition's digest against the first.
fn repeat(
    engines: &mut Engines,
    points: &[Point],
    seconds: f64,
    mut spans: Option<&mut SpanLog>,
    out: &mut Outcome,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let rep = sweep(engines, points, spans.as_deref_mut(), &mut out.errors);
        out.attempted += rep.submitted;
        out.failed += rep.submitted - rep.completions;
        if let Some(first) = reps.first() {
            if rep.digest != first.digest || rep.events != first.events {
                out.errors.push(format!(
                    "sweep not deterministic: repetition {} digest {:016x} events {}, first {:016x} events {}",
                    reps.len(),
                    rep.digest,
                    rep.events,
                    first.digest,
                    first.events
                ));
            }
        }
        reps.push(rep);
    }
    reps
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        built = Some(setup(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (mut engines, points) = built.expect("at least one set-up");

    if !traced {
        let reps = repeat(&mut engines, &points, seconds, None, &mut out);

        let first = &reps[0];
        out.metrics
            .push(metric("goodput_rps", rate(fast(&reps)), "req/s"));
        out.metrics.push(metric(
            "latency_p50_us",
            fast(&reps).wall_ns as f64 / 1e3,
            "us",
        ));
        out.metrics
            .push(metric("setup_s", median(&mut setups), "s"));
        out.notes.push(metric(
            "sim_events_per_s",
            events_per_s(fast(&reps)),
            "events/s",
        ));
        out.notes.push(metric(
            "sim_p999_slowdown",
            first.top_p999_slowdown,
            "ratio",
        ));
        out.notes
            .push(metric("sim.events", first.events as f64, "count"));
        out.notes
            .push(metric("sim.repetitions", reps.len() as f64, "count"));
        out.lines.push(format!("sim.digest {:016x}", first.digest));
        return out;
    }

    let plain = repeat(&mut engines, &points, seconds / 2.0, None, &mut out);
    let mut spans = SpanLog::default();
    let reps = repeat(
        &mut engines,
        &points,
        seconds / 2.0,
        Some(&mut spans),
        &mut out,
    );
    if plain[0].digest != reps[0].digest {
        out.errors
            .push("traced sweep digest differs from the untraced one".into());
    }
    let sum = |f: &dyn Fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let per_event =
        |m: Model| sum(&|r| r.run_ns[m as usize]) / sum(&|r| r.model_events[m as usize]).max(1.0);
    let first = &reps[0];
    let m = &mut out.metrics;
    m.push(metric("sim.events", first.events as f64, "count"));
    m.push(metric(
        "sim.events_per_s",
        events_per_s(fast(&reps)),
        "events/s",
    ));
    m.push(metric(
        "sim.p999_slowdown",
        first.top_p999_slowdown,
        "ratio",
    ));
    m.push(metric(
        "sim.two_level.ns_per_event",
        per_event(Model::TwoLevel),
        "ns",
    ));
    m.push(metric(
        "sim.centralized.ns_per_event",
        per_event(Model::Centralized),
        "ns",
    ));
    m.push(metric(
        "sim.rack.ns_per_event",
        per_event(Model::Rack),
        "ns",
    ));
    let rack_events = sum(&|r| r.model_events[Model::Rack as usize]).max(1.0);
    m.push(metric(
        "sim.rack.windows_per_kevent",
        sum(&|r| r.rack_windows) * 1e3 / rack_events,
        "count",
    ));
    m.push(metric(
        "sim.rack.messages_per_event",
        sum(&|r| r.rack_messages) / rack_events,
        "ratio",
    ));
    m.push(metric(
        "harness.summarize_ns_per_completion",
        sum(&|r| r.summarize_ns) / sum(&|r| r.completions).max(1.0),
        "ns",
    ));
    m.push(metric(
        "trace.overhead_frac",
        1.0 - rate(fast(&reps)) / rate(fast(&plain)),
        "ratio",
    ));
    m.push(metric(
        "trace.unattributed_frac",
        1.0 - sum(&|r| r.covered_ns) / sum(&|r| r.wall_ns),
        "ratio",
    ));
    out.lines.push(format!("sim.digest {:016x}", first.digest));
    out.spans = Some(spans);
    out
}
