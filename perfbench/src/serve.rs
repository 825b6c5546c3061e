//! Driving `segstack-serve`: runtime set-up, the closed-loop throughput
//! phase, the open-loop latency phase, and the one-job-at-a-time pass the
//! traced runs of the other workloads use to attribute the serve layer.
//!
//! The main thread is the only load generator.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use segstack_core::trace::{EventKind, OwnerTrace};
use segstack_serve::{JoinHandle, Request, Runtime, RuntimeConfig, RuntimeSnapshot};

use crate::layers::{rss_kb, Spans};
use crate::programs::Program;
use crate::stats::{median, ms, process_cpu_ms, Calibrator, KERNEL_NOMINAL_MS};

/// Jobs in flight in the closed loop: enough to keep every worker's
/// run set (8 jobs by default) busy.
const WINDOW: usize = 16;

/// Closed-loop throughput measured when the benchmark was defined (2
/// vCPUs, 2 workers), jobs per second; it sizes the closed-loop phase.
const NOMINAL_SATURATION: f64 = 370.0;

/// Open-loop arrival rate, jobs per second: half the saturation
/// throughput.
pub const OPEN_RATE: f64 = NOMINAL_SATURATION / 2.0;

/// How often the closed loop's generator samples the reference kernel.
const KERNEL_EVERY: Duration = Duration::from_millis(20);

/// A job that has not finished this long after submission has failed.
const DEADLINE: Duration = Duration::from_secs(5);

/// Runtimes started and warmed while measuring set-up; the last one runs
/// the phases.
const SETUP_REPS: usize = 11;

/// Workers: one per available CPU, as `segstack-serve` deployments run.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What driving the runtime measured.
pub struct Serve {
    pub setup_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct jobs per second in the closed loop, calibrated.
    pub jobs_per_s: f64,
    /// Closed-loop latencies from submission to outcome, calibrated, ms.
    pub closed_latency_ms: Vec<f64>,
    /// Latencies from due time to outcome, ms: the open loop's in
    /// `serve_mix`, the one-at-a-time pass's in the other workloads.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each open-loop job, ms.
    pub lag_ms: Vec<f64>,
    /// Time the main thread spent inside `Runtime::submit`, ms.
    pub submit_ms: f64,
    pub retained_kb_per_job: f64,
    /// Share of the phases' wall time the workers were busy.
    pub busy_ratio: f64,
    /// Worker metrics after set-up, and at shutdown.
    pub before: RuntimeSnapshot,
    pub snapshot: RuntimeSnapshot,
    pub traces: Vec<OwnerTrace>,
    /// Jobs whose source appeared earlier in the stream.
    pub repeated: u64,
}

impl Serve {
    fn new() -> Serve {
        let empty = || RuntimeSnapshot { workers: Vec::new(), queued: 0 };
        Serve {
            setup_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            jobs_per_s: 0.0,
            closed_latency_ms: Vec::new(),
            latency_ms: Vec::new(),
            lag_ms: Vec::new(),
            submit_ms: 0.0,
            retained_kb_per_job: 0.0,
            busy_ratio: 0.0,
            before: empty(),
            snapshot: empty(),
            traces: Vec::new(),
            repeated: 0,
        }
    }
}

struct Pending {
    handle: JoinHandle,
    expected: String,
    /// How late the job was submitted after it was due.
    lag: Duration,
}

impl Serve {
    fn submit(&mut self, rt: &Runtime, p: &Program, due: Instant, spans: &mut Spans) -> Pending {
        let start = Instant::now();
        let (handle, t) =
            spans.span("submit", || rt.submit(Request::new(p.source.clone()).deadline(DEADLINE)));
        let handle = handle.expect("the runtime accepts work until shutdown");
        self.submit_ms += t;
        self.attempted += 1;
        Pending { handle, expected: p.expected.clone(), lag: start.saturating_duration_since(due) }
    }

    /// Checks an outcome; returns its latency from due time, ms.
    fn settle(&mut self, job: &Pending, outcome: segstack_serve::JobOutcome) -> f64 {
        match &outcome.result {
            Ok(v) if *v == job.expected => {}
            Ok(v) => {
                self.failed += 1;
                eprintln!("FAIL job {}: got {v}, expected {}", outcome.id, job.expected);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("FAIL job {}: {e}", outcome.id);
            }
        }
        ms(job.lag + outcome.latency)
    }
}

fn start(tracing: bool) -> Runtime {
    Runtime::start(RuntimeConfig::with_workers(workers()).tracing(tracing))
}

/// Submits rounds of short jobs until every worker has admitted one, so
/// each has built its kit (the prelude and control libraries).
fn warm(rt: &Runtime) {
    for _ in 0..50 {
        let handles: Vec<_> = (0..WINDOW * workers())
            .map(|_| rt.submit(Request::new("(+ 1 2)")).expect("runtime is up"))
            .collect();
        for h in handles {
            let _ = h.wait();
        }
        if rt.metrics().workers.iter().all(|w| w.admitted > 0) {
            return;
        }
    }
}

/// Starts and warms the runtime `SETUP_REPS` times, keeping the last.
/// Each set-up is timed as the CPU time of every thread of the process,
/// the only threads then running being the new runtime's and this one,
/// and calibrated by a kernel sample taken just before it. Wall time
/// would time how soon the host wakes the threads: on a shared 2-vCPU
/// host its per-run median ranged from 3.1 to 5.9 ms over runs of the
/// same code.
fn set_up(out: &mut Serve, tracing: bool) -> Runtime {
    let mut cal = Calibrator::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            Runtime::shutdown(old);
        }
        let k = cal.sample();
        let before = process_cpu_ms();
        let rt = start(tracing);
        warm(&rt);
        out.setup_ms.push((process_cpu_ms() - before) * KERNEL_NOMINAL_MS / k);
        kept = Some(rt);
    }
    kept.expect("at least one set-up")
}

/// Busy share of the workers over `wall`, from two snapshots.
fn busy_ratio(before: &RuntimeSnapshot, after: &RuntimeSnapshot, wall: Duration) -> f64 {
    let busy = after.total().busy_nanos.saturating_sub(before.total().busy_nanos);
    busy as f64 / (wall.as_nanos() as f64 * after.workers.len() as f64)
}

fn shut_down(out: &mut Serve, rt: Runtime) {
    let (snapshot, traces) = rt.shutdown_traced();
    out.snapshot = snapshot;
    out.traces = traces;
}

/// The `serve_mix` phases over `seconds` of run time. Both phases run a
/// fixed number of jobs, so memory figures do not depend on host speed.
pub fn mix(seed: u64, seconds: f64, spans: &mut Spans) -> Serve {
    let mut out = Serve::new();
    // The open loop gets the larger share: its p99 needs well over a
    // thousand jobs to have ten beyond it.
    let closed_jobs = (seconds * 0.3 * NOMINAL_SATURATION).max(50.0) as usize;
    let open_jobs = (seconds * 0.45 * OPEN_RATE).max(50.0) as usize;
    let stream = crate::programs::job_stream(seed, closed_jobs + open_jobs);
    let mut seen = BTreeSet::new();
    out.repeated = stream.iter().filter(|p| !seen.insert(p.source.as_str())).count() as u64;

    let rt = set_up(&mut out, spans.is_traced());
    let rss_before = rss_kb().0;
    let before = rt.metrics();
    out.before = before.clone();
    let phases = Instant::now();
    // The first jobs' submit and wait calls go into the exported timeline.
    spans.recording = spans.is_traced();

    // Closed loop: a new job as soon as one of `WINDOW` finishes. While
    // no job has finished, the generator samples the reference kernel
    // every 20 ms: on this thread it feels the same host as the workers,
    // and calibrating by it narrowed the throughput's run-to-run range
    // from 18% to 8%.
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut next = 0;
    let failed_before = out.failed;
    let mut cal = Calibrator::default();
    let mut kernel = vec![cal.sample()];
    let mut last_sample = Instant::now();
    let mut latency = Vec::new();
    let closed_start = Instant::now();
    while next < closed_jobs || !inflight.is_empty() {
        while next < closed_jobs && inflight.len() < WINDOW {
            let job = out.submit(&rt, &stream[next], Instant::now(), spans);
            inflight.push_back(job);
            next += 1;
            if next == 40 {
                spans.recording = false;
            }
        }
        let mut progressed = false;
        let mut i = 0;
        while i < inflight.len() {
            if let Some(o) = inflight[i].handle.try_wait() {
                let job = inflight.remove(i).expect("index in range");
                latency.push(out.settle(&job, o));
                progressed = true;
            } else {
                i += 1;
            }
        }
        if progressed {
            continue;
        }
        if last_sample.elapsed() > KERNEL_EVERY {
            kernel.push(cal.sample());
            last_sample = Instant::now();
            continue;
        }
        let (done, _) = spans.span("wait", || {
            inflight.front().and_then(|j| j.handle.wait_timeout(Duration::from_micros(200)))
        });
        if let Some(o) = done {
            let job = inflight.pop_front().expect("front exists");
            latency.push(out.settle(&job, o));
        }
    }
    spans.recording = false;
    let raw = (closed_jobs as u64 - (out.failed - failed_before)) as f64
        / closed_start.elapsed().as_secs_f64();
    let k = median(&kernel);
    println!("serve closed loop: raw {raw} jobs/s, kernel {k} ms over {} samples", kernel.len());
    out.jobs_per_s = raw * k / KERNEL_NOMINAL_MS;
    out.closed_latency_ms = latency.iter().map(|l| l * KERNEL_NOMINAL_MS / k).collect();

    // Open loop: job k is due at start + k / OPEN_RATE, whatever the
    // state of earlier jobs.
    let open_start = Instant::now();
    let mut inflight: Vec<Pending> = Vec::new();
    for (k, p) in stream[closed_jobs..].iter().enumerate() {
        let due = open_start + Duration::from_secs_f64(k as f64 / OPEN_RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let job = out.submit(&rt, p, due, spans);
        out.lag_ms.push(ms(job.lag));
        inflight.push(job);
        inflight.retain(|job| match job.handle.try_wait() {
            Some(o) => {
                let lat = out.settle(job, o);
                out.latency_ms.push(lat);
                false
            }
            None => true,
        });
    }
    for job in inflight {
        let o = job.handle.wait_timeout(DEADLINE * 2).expect("the deadline bounds every job");
        let lat = out.settle(&job, o);
        out.latency_ms.push(lat);
    }
    let after = rt.metrics();
    out.busy_ratio = busy_ratio(&before, &after, phases.elapsed());
    let jobs = (closed_jobs + open_jobs) as f64;
    out.retained_kb_per_job = rss_kb().0.saturating_sub(rss_before) as f64 / jobs;
    shut_down(&mut out, rt);
    out
}

/// The serve layer under another workload's programs: each program that
/// is a valid job, `rounds` times, one job at a time. A job is due when
/// the previous one's outcome arrived.
pub fn pass(programs: &[Program], rounds: usize, spans: &mut Spans) -> Serve {
    let mut out = Serve::new();
    let rt = set_up(&mut out, true);
    let before = rt.metrics();
    out.before = before.clone();
    let phases = Instant::now();
    spans.recording = true;
    let mut due = Instant::now();
    for _ in 0..rounds {
        for p in programs.iter().filter(|p| p.runs_as_job()) {
            let job = out.submit(&rt, p, due, spans);
            out.lag_ms.push(ms(job.lag));
            let (o, _) = spans.span("wait", || job.handle.wait_timeout(DEADLINE * 2));

            let o = o.unwrap_or_else(|| panic!("job {} never finished", p.name));
            due = Instant::now();
            let lat = out.settle(&job, o);
            out.latency_ms.push(lat);
        }
        spans.recording = false;
    }
    out.busy_ratio = busy_ratio(&before, &rt.metrics(), phases.elapsed());
    shut_down(&mut out, rt);
    out
}

/// Queue wait of every job whose enqueue and admission both survive in
/// the traces (`JobEnqueue` to `JobAdmit`), ms.
pub fn queue_waits(traces: &[OwnerTrace]) -> Vec<f64> {
    let mut enqueued: BTreeMap<u64, u64> = BTreeMap::new();
    let mut waits = Vec::new();
    for t in traces {
        for ev in &t.events {
            match ev.kind {
                EventKind::JobEnqueue => {
                    enqueued.insert(ev.a, ev.nanos);
                }
                EventKind::JobAdmit => {
                    if let Some(at) = enqueued.remove(&ev.a) {
                        waits.push(ev.nanos.saturating_sub(at) as f64 / 1e6);
                    }
                }
                _ => {}
            }
        }
    }
    waits
}

/// A sample of a worker's drained ring for the exported timeline: the
/// first `n` job and quantum events, and every other event among the
/// ring's first `n`. Captures and reinstatements fill a ring many times
/// faster than job lifecycles, so a plain prefix would hold no whole job.
/// A ring that wrapped can keep a job's outcome after losing its
/// `JobEnqueue`; the exporter turns the outcome into an async end, and an
/// end without its begin fails `validate_chrome_trace`, so such outcomes
/// are left out.
pub fn timeline_sample(trace: &OwnerTrace, n: usize) -> OwnerTrace {
    let mut enqueued = BTreeSet::new();
    let mut lifecycle = 0;
    let mut events = Vec::new();
    for (i, ev) in trace.events.iter().enumerate() {
        let outcome = matches!(
            ev.kind,
            EventKind::JobComplete
                | EventKind::JobError
                | EventKind::JobCancelled
                | EventKind::JobDeadline
                | EventKind::JobFuel
        );
        let coarse = outcome
            || matches!(
                ev.kind,
                EventKind::JobEnqueue
                    | EventKind::JobAdmit
                    | EventKind::QueueDepth
                    | EventKind::QuantumBegin
                    | EventKind::QuantumEnd
            );
        let keep =
            if coarse { lifecycle < n && (!outcome || enqueued.contains(&ev.a)) } else { i < n };
        if !keep {
            continue;
        }
        if coarse {
            lifecycle += 1;
        }
        if ev.kind == EventKind::JobEnqueue {
            enqueued.insert(ev.a);
        }
        events.push(*ev);
    }
    OwnerTrace { owner: trace.owner.clone(), tid: trace.tid, events, dropped: trace.dropped }
}

#[cfg(test)]
mod tests {
    use segstack_core::trace::{chrome_trace_json, validate_chrome_trace, Event, EventKind};

    use super::*;

    fn ev(seq: u64, kind: EventKind, a: u64) -> Event {
        Event { seq, nanos: seq * 1000, kind, a, b: 0 }
    }

    #[test]
    fn timeline_sample_drops_outcomes_whose_enqueue_wrapped_away() {
        // The ring lost job 1's enqueue and admission but kept its end.
        let kinds = [
            (EventKind::QuantumBegin, 1),
            (EventKind::Capture, 0),
            (EventKind::QuantumEnd, 1),
            (EventKind::JobComplete, 1),
            (EventKind::JobEnqueue, 2),
            (EventKind::JobAdmit, 2),
            (EventKind::QuantumBegin, 2),
            (EventKind::QuantumEnd, 2),
            (EventKind::JobComplete, 2),
        ];
        let events = kinds.iter().enumerate().map(|(i, (k, a))| ev(i as u64, *k, *a)).collect();
        let ring = OwnerTrace { owner: "worker-0".into(), tid: 1, events, dropped: 5 };
        assert!(validate_chrome_trace(&chrome_trace_json(std::slice::from_ref(&ring))).is_err());

        let sample = timeline_sample(&ring, 8);
        assert!(!sample.events.iter().any(|e| e.kind == EventKind::JobComplete && e.a == 1));
        let stats = validate_chrome_trace(&chrome_trace_json(&[sample])).expect("valid sample");
        assert_eq!(stats.async_spans, 1);
    }
}
