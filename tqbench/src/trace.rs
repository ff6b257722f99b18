//! Tracing from outside the program: span logs, per-thread CPU from
//! `/proc`, and wrappers around the public traits the libraries accept
//! (`Transport` and `Job`). Nothing here reaches into a library's
//! internals; every number is taken at a call boundary the program
//! already exposes.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tq_core::Nanos;
use tq_runtime::net::decode_request;
use tq_runtime::transport::{Frame, Transport, TransportStats};
use tq_runtime::{Job, JobStatus, QuantumCtx, RtRequest, TscClock};

/// Spans recorded per log. Aggregates cover every call; the span file
/// keeps the first `SPAN_CAP` of each log so a long traced run stays
/// bounded.
const SPAN_CAP: usize = 50_000;

/// Span ids are unique across all logs of one run.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span id (never 0; 0 means "no parent").
pub fn span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The wire tag, `JobId` or sweep-point index the call exposes.
    pub tag: u64,
}

/// Spans held in memory until the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Appends another log; each log was capped where it was recorded.
    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per line: a header with the kept and
    /// dropped counts, then every kept span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans_kept\": {}, \"spans_dropped\": {}}}",
            self.spans.len(),
            self.dropped
        )?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"tag\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.tag
            )?;
        }
        out.flush()
    }
}

/// CPU time consumed so far by the live threads named `name`, in ns.
/// Reads `/proc/self/task/*/schedstat` (ns resolution), falling back to
/// the tick counts in `stat`. `None` if no such thread is alive.
pub fn thread_cpu_ns(name: &str) -> Option<u64> {
    let mut total = None;
    for entry in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let dir = entry.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() != name {
            continue;
        }
        let ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .or_else(|| stat_cpu_ns(&dir))?;
        *total.get_or_insert(0) += ns;
    }
    total
}

/// utime + stime from `/proc/.../stat`, at the kernel's USER_HZ of 100.
fn stat_cpu_ns(dir: &std::path::Path) -> Option<u64> {
    let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Counts and time for one direction of a transport.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoTally {
    pub calls: u64,
    pub frames: u64,
    pub empty_calls: u64,
    /// Time inside calls that moved at least one frame.
    pub busy_ns: u64,
    /// Time inside every call, empty polls included.
    pub all_ns: u64,
}

/// A [`Transport`] that times every call into the one it wraps. Handed
/// to `tq_runtime::net::serve` in place of the bare transport.
#[derive(Debug)]
pub struct Traced<T> {
    inner: T,
    clock: TscClock,
    recv: IoTally,
    send: IoTally,
    /// The serve session's root span; transport spans are its children.
    root: Span,
    log: SpanLog,
}

impl<T> Traced<T> {
    pub fn new(inner: T, clock: TscClock) -> Self {
        let now = clock.wall_nanos().as_nanos();
        Traced {
            inner,
            root: Span {
                id: span_id(),
                parent: 0,
                name: "serve",
                start_ns: now,
                end_ns: now,
                tag: 0,
            },
            clock,
            recv: IoTally::default(),
            send: IoTally::default(),
            log: SpanLog::default(),
        }
    }

    /// Closes the root span and hands back the log, root first.
    pub fn finish(mut self) -> (IoTally, IoTally, SpanLog) {
        self.root.end_ns = self.clock.wall_nanos().as_nanos();
        let mut log = SpanLog::default();
        log.push(self.root);
        log.absorb(self.log);
        (self.recv, self.send, log)
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn recv_batch(&mut self, out: &mut [Frame]) -> io::Result<usize> {
        let t0 = self.clock.wall_nanos().as_nanos();
        let r = self.inner.recv_batch(out);
        let t1 = self.clock.wall_nanos().as_nanos();
        let n = *r.as_ref().unwrap_or(&0);
        self.recv.calls += 1;
        self.recv.all_ns += t1 - t0;
        if n == 0 {
            self.recv.empty_calls += 1;
        } else {
            self.recv.frames += n as u64;
            self.recv.busy_ns += t1 - t0;
            let tag = decode_request(out[0].payload()).map_or(u64::MAX, |(_, _, tag)| tag);
            self.log.push(Span {
                id: span_id(),
                parent: self.root.id,
                name: "transport.recv",
                start_ns: t0,
                end_ns: t1,
                tag,
            });
        }
        r
    }

    fn send_batch(&mut self, frames: &[Frame]) -> io::Result<()> {
        let t0 = self.clock.wall_nanos().as_nanos();
        let r = self.inner.send_batch(frames);
        let t1 = self.clock.wall_nanos().as_nanos();
        self.send.calls += 1;
        self.send.all_ns += t1 - t0;
        if frames.is_empty() {
            self.send.empty_calls += 1;
        } else {
            self.send.frames += frames.len() as u64;
            self.send.busy_ns += t1 - t0;
            // Responses carry the wire tag in their first eight bytes.
            let tag = frames[0].payload().get(..8).map_or(u64::MAX, |b| {
                u64::from_le_bytes(b.try_into().expect("8 bytes"))
            });
            self.log.push(Span {
                id: span_id(),
                parent: self.root.id,
                name: "transport.send",
                start_ns: t0,
                end_ns: t1,
                tag,
            });
        }
        r
    }

    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A log-linear histogram of non-negative values: 1/1024 relative
/// resolution in fixed memory, so a run's footprint does not grow with
/// the requests it makes. Unanswered requests count as +∞.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    finite: u64,
    /// Unanswered requests, counted above every finite value.
    pub infinite: u64,
    sum: f64,
}

const SUB_BITS: u32 = 10;

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; (65 - SUB_BITS as usize) << SUB_BITS],
            finite: 0,
            infinite: 0,
            sum: 0.0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) as usize - (1 << SUB_BITS))
    }

    /// The middle of bucket `b`.
    fn value(b: usize) -> u64 {
        if b < 1 << SUB_BITS {
            return b as u64;
        }
        let shift = (b >> SUB_BITS) as u32 - 1;
        let lo = (((b & ((1 << SUB_BITS) - 1)) as u64) + (1 << SUB_BITS)) << shift;
        lo + ((1u64 << shift) >> 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.finite += 1;
        self.sum += v as f64;
    }

    pub fn count(&self) -> u64 {
        self.finite + self.infinite
    }

    pub fn absorb(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.finite += other.finite;
        self.infinite += other.infinite;
        self.sum += other.sum;
    }

    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.finite as f64)
    }

    /// Nearest-rank percentile, +∞ read as `u64::MAX`; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * n as f64 - 1e-9).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(b);
            }
        }
        u64::MAX
    }
}

/// What wrapped jobs report, once each, when they finish.
#[derive(Debug)]
pub struct JobSinkData {
    pub jobs: u64,
    /// First slice start minus `RtRequest::submitted`.
    pub wait: Hist,
    /// Done minus first slice start: service plus preemption waits.
    pub resident: Hist,
    /// Time inside `Job::run`, summed over every slice.
    pub run_ns: u64,
    pub slice: Hist,
    /// Yielded slice length minus the armed quantum (Table 3's yield
    /// error on live code), 0 when shorter.
    pub overshoot: Hist,
    /// Time inside `Job::run` per job, class 0 (GET) and others (SCAN).
    pub service: [Hist; 2],
    pub scan_slices: Hist,
    pub scan_probes: u64,
    pub log: SpanLog,
}

impl Default for JobSinkData {
    fn default() -> Self {
        JobSinkData {
            jobs: 0,
            wait: Hist::new(),
            resident: Hist::new(),
            run_ns: 0,
            slice: Hist::new(),
            overshoot: Hist::new(),
            service: [Hist::new(), Hist::new()],
            scan_slices: Hist::new(),
            scan_probes: 0,
            log: SpanLog::default(),
        }
    }
}

/// Shared by every wrapped job of one server.
#[derive(Debug)]
pub struct JobSink {
    clock: TscClock,
    quantum: Nanos,
    pub data: Mutex<JobSinkData>,
}

impl JobSink {
    pub fn new(clock: TscClock, quantum: Nanos) -> Arc<Self> {
        Arc::new(JobSink {
            clock,
            quantum,
            data: Mutex::new(JobSinkData::default()),
        })
    }

    /// Wraps `job`, built for `req`, so its slices are timed on the
    /// server's clock.
    pub fn wrap(self: &Arc<Self>, req: &RtRequest, job: Box<dyn Job>) -> Box<dyn Job> {
        Box::new(TracedJob {
            inner: job,
            sink: Arc::clone(self),
            req: *req,
            span: span_id(),
            first_start: None,
            run_ns: 0,
            probes: 0,
            slices: Vec::new(),
        })
    }
}

/// A [`Job`] that times each slice of the job it wraps.
struct TracedJob {
    inner: Box<dyn Job>,
    sink: Arc<JobSink>,
    req: RtRequest,
    span: u64,
    first_start: Option<u64>,
    run_ns: u64,
    probes: u64,
    /// (start, end, yielded) per slice.
    slices: Vec<(u64, u64, bool)>,
}

impl Job for TracedJob {
    fn run(&mut self, ctx: &mut QuantumCtx) -> JobStatus {
        let p0 = ctx.probes();
        let t0 = self.sink.clock.wall_nanos().as_nanos();
        let status = self.inner.run(ctx);
        let t1 = self.sink.clock.wall_nanos().as_nanos();
        self.first_start.get_or_insert(t0);
        self.run_ns += t1 - t0;
        self.probes += ctx.probes() - p0;
        self.slices.push((t0, t1, status == JobStatus::Yielded));
        if status == JobStatus::Done {
            self.report(t1);
        }
        status
    }
}

impl TracedJob {
    fn report(&mut self, done: u64) {
        let submitted = self.req.submitted.as_nanos();
        let first = self.first_start.unwrap_or(done);
        let quantum = self.sink.quantum.as_nanos();
        let mut d = self.sink.data.lock().expect("job sink poisoned");
        let scan = self.req.class.0 != 0;
        d.jobs += 1;
        d.wait.record(first.saturating_sub(submitted));
        d.resident.record(done - first);
        d.run_ns += self.run_ns;
        d.service[usize::from(scan)].record(self.run_ns);
        if scan {
            d.scan_slices.record(self.slices.len() as u64);
            d.scan_probes += self.probes;
        }
        d.log.push(Span {
            id: self.span,
            parent: 0,
            name: "job",
            start_ns: submitted,
            end_ns: done,
            tag: self.req.id.0,
        });
        for &(s, e, yielded) in &self.slices {
            d.slice.record(e - s);
            if yielded {
                d.overshoot.record((e - s).saturating_sub(quantum));
            }
            d.log.push(Span {
                id: span_id(),
                parent: self.span,
                name: "worker.slice",
                start_ns: s,
                end_ns: e,
                tag: self.req.id.0,
            });
        }
    }
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn pct<T: Copy + Ord + Default>(v: &mut [T], p: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    v.sort_unstable();
    let n = v.len();
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, n) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
