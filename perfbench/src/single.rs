//! Single-threaded rounds: every program of a workload evaluated on its
//! own long-lived, REPL-style engine, round-robin, interleaved with the
//! reference kernel, each result checked.
//!
//! A run makes a fixed number of rounds, not as many as fit in its time:
//! programs that retain memory per eval would otherwise make peak RSS
//! depend on host speed. A run of more rounds than one process may hold
//! is split over child processes of the benchmark (see [`split`]).

use std::cell::RefCell;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::Instant;

use segstack_core::trace::{Event, OwnerTrace, RingSink};
use segstack_scheme::Engine;

use crate::layers::{rss_kb, Counts, FrontEnd, PhaseMs, SpanTimes, Spans};
use crate::programs::Program;
use crate::stats::{cpu_timed, Calibrator, KERNEL_NOMINAL_MS};

/// A throwaway set of engines is built, timed, every this many rounds,
/// so `setup_s` has many samples.
const SETUP_EVERY: usize = 8;

/// Source bytes in one timed batch of front-end passes.
const COMPILE_BATCH_BYTES: usize = 4096;

/// Ring events kept for the exported timeline (a sample: see
/// `Spans::export`).
pub const KEPT_EVENTS: usize = 800;

/// Everything the traced run measures on top of the plain one.
#[derive(Default)]
pub struct Traced {
    /// Calibrated ms of each program's eval on a traced engine.
    pub times: Vec<Vec<f64>>,
    /// Calibrated per-phase ms of each program's front-end pass.
    pub phases: Vec<Vec<PhaseMs>>,
    pub span_times: SpanTimes,
    /// Ring events of the recorded round, for the exported timeline.
    pub events: Vec<Event>,
}

/// What the rounds measured. Times are calibrated: each is scaled by
/// `KERNEL_NOMINAL_MS` over the mean of the kernel samples taken just
/// before and just after it.
#[derive(Default)]
pub struct Single {
    /// Calibrated ms to build one set of engines and a front-end kit.
    pub setup_ms: Vec<f64>,
    /// Calibrated ms of each program's checked eval, per timed round.
    pub times: Vec<Vec<f64>>,
    /// The same evals, uncalibrated.
    pub raw: Vec<Vec<f64>>,
    /// Calibrated ms of each program's source-to-verified-code pass.
    pub compile: Vec<Vec<f64>>,
    pub cal: Calibrator,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    /// RSS growth after the warm-up round per timed eval, KB.
    pub retained_kb_per_eval: f64,
    pub traced: Option<Traced>,
}

struct Engines {
    engines: Vec<Engine>,
    traced: Vec<Engine>,
    fe: FrontEnd,
}

fn build(n: usize, ring: Option<&Rc<RefCell<RingSink>>>) -> Engines {
    let engine = |sink: Option<&Rc<RefCell<RingSink>>>| {
        let b = Engine::builder();
        let b = match sink {
            Some(s) => b.trace_sink(s.clone()),
            None => b,
        };
        b.build().expect("a default engine builds")
    };
    Engines {
        engines: (0..n).map(|_| engine(None)).collect(),
        traced: ring.map_or_else(Vec::new, |r| (0..n).map(|_| engine(Some(r))).collect()),
        fe: FrontEnd::new().expect("the prelude compiles"),
    }
}

impl Single {
    fn check(&mut self, p: &Program, got: Result<String, String>) {
        self.attempted += 1;
        match got {
            Ok(v) if v == p.expected => {}
            Ok(v) => {
                self.failed += 1;
                eprintln!("FAIL {}: got {v}, expected {}", p.name, p.expected);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("FAIL {}: {e}", p.name);
            }
        }
    }
}

/// Runs `rounds` rounds (the first is warm-up and untimed), stopping
/// early only at `hard_stop`.
pub fn run(programs: &[Program], rounds: usize, hard_stop: Instant, spans: &mut Spans) -> Single {
    let n = programs.len();
    let tracing = spans.is_traced();
    let mut out = Single {
        times: vec![Vec::new(); n],
        raw: vec![Vec::new(); n],
        compile: vec![Vec::new(); n],
        ..Single::default()
    };
    // Held apart from `out` while rounds run, so checks can update `out`.
    let mut traced = tracing.then(|| Traced {
        times: vec![Vec::new(); n],
        phases: vec![Vec::new(); n],
        ..Traced::default()
    });
    let ring = tracing
        .then(|| Rc::new(RefCell::new(RingSink::with_epoch_and_capacity(spans.epoch(), 1 << 18))));
    let k = out.cal.sample();
    let (mut s, t) = cpu_timed(|| build(n, ring.as_ref()));
    out.setup_ms.push(t * KERNEL_NOMINAL_MS / k);
    let mut rss_after_warmup = 0;
    for round in 0..rounds.max(2) {
        if round > 1 && Instant::now() >= hard_stop {
            eprintln!("perfbench: stopped after {round} of {rounds} rounds at the time limit");
            break;
        }
        if round % SETUP_EVERY == SETUP_EVERY - 1 {
            let k = out.cal.sample();
            let (spare, t) = cpu_timed(|| build(n, None));
            out.setup_ms.push(t * KERNEL_NOMINAL_MS / k);
            drop(spare);
        }
        let timed_round = round > 0;
        let count_round = round == 1;
        spans.recording = tracing && count_round;
        let mut before = out.cal.sample();
        for k in 0..n {
            let i = (k + round) % n;
            let p = &programs[i];
            if count_round {
                s.engines[i].reset_metrics();
            }
            let (got, t) = cpu_timed(|| spans.span("run", || s.engines[i].eval(&p.source)).0);
            out.check(p, got.map(|v| v.to_string()).map_err(|e| e.to_string()));
            if count_round {
                out.counts.stack.merge(s.engines[i].metrics());
            }
            let mut traced_times = None;
            let mut compile_time = None;
            if let Some(tr) = traced.as_mut() {
                let ring = ring.as_ref().expect("traced runs have a ring");
                let (got, tt) =
                    cpu_timed(|| spans.span("run_traced", || s.traced[i].eval(&p.source)).0);
                let drained = ring.borrow_mut().take_trace("engine", 100);
                tr.span_times.absorb(&drained.events);
                if count_round {
                    let room = KEPT_EVENTS.saturating_sub(tr.events.len());
                    tr.events.extend(drained.events.into_iter().take(room));
                }
                let (ph, _) = spans.nest("frontend", |sp| s.fe.traced(&p.source, sp));
                match (got, ph) {
                    (Ok(v), Ok(ph)) => {
                        out.check(p, Ok(v.to_string()));
                        traced_times = Some((tt, ph));
                    }
                    (Err(e), _) => out.check(p, Err(e.to_string())),
                    (_, Err(e)) => out.check(p, Err(format!("front end: {e}"))),
                }
            } else {
                // Small sources compile in tens of microseconds; a batch of
                // passes over about `COMPILE_BATCH_BYTES` of text gives a
                // steady time per pass.
                let reps = COMPILE_BATCH_BYTES.div_ceil(p.source.len().max(1)).clamp(1, 64);
                let (c, tc) = cpu_timed(|| {
                    let first = s.fe.compile(&p.source);
                    for _ in 1..reps {
                        let _ = s.fe.compile(&p.source);
                    }
                    first
                });
                match c {
                    Ok(c) => {
                        if count_round {
                            out.counts.chunks += c.chunks;
                            out.counts.instrs += c.instrs;
                            out.counts.source_bytes += p.source.len() as u64;
                        }
                        compile_time = Some(tc / reps as f64);
                    }
                    Err(e) => out.check(p, Err(format!("front end: {e}"))),
                }
            }
            // Calibrate with the mean of the kernel samples on either side.
            let after = out.cal.sample();
            let f = 2.0 * KERNEL_NOMINAL_MS / (before + after);
            before = after;
            if timed_round {
                out.times[i].push(t * f);
                out.raw[i].push(t);
                if let Some(tc) = compile_time {
                    out.compile[i].push(tc * f);
                }
                if let (Some((tt, ph)), Some(tr)) = (traced_times, traced.as_mut()) {
                    tr.times[i].push(tt * f);
                    tr.phases[i].push(ph.scaled(f));
                }
            }
        }
        if round == 0 {
            rss_after_warmup = rss_kb().0;
        }
    }
    spans.recording = false;
    let evals = out.times.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    out.retained_kb_per_eval = rss_kb().0.saturating_sub(rss_after_warmup) as f64 / evals;
    for e in s.engines.iter().chain(&s.traced) {
        if let Some(err) = e.verify_code().first() {
            out.failed += 1;
            eprintln!("FAIL code verification: {err}");
        }
    }
    if tracing {
        // The traced run's front-end counts come from one plain pass.
        let mut fe = FrontEnd::new().expect("the prelude compiles");
        for p in programs {
            match fe.compile(&p.source) {
                Ok(c) => {
                    out.counts.chunks += c.chunks;
                    out.counts.instrs += c.instrs;
                    out.counts.source_bytes += p.source.len() as u64;
                }
                Err(e) => out.check(p, Err(format!("front end: {e}"))),
            }
        }
    }
    out.traced = traced;
    out
}

/// Runs `rounds` rounds in processes of at most `per_process` rounds
/// each, one after another: `parts - 1` children of this benchmark first,
/// each started with `child_args` plus `--part` and `--stop-ms`, then the
/// last part here. Children print their samples with [`print_part`]; they
/// are placed before this process's own, in the order they ran. Memory
/// figures, counts and the traced pass are this process's alone, so they
/// read as in an unsplit run of `per_process` rounds.
pub fn split(
    programs: &[Program],
    rounds: usize,
    per_process: usize,
    child_args: &[String],
    hard_stop: Instant,
    spans: &mut Spans,
) -> Single {
    let parts = rounds.div_ceil(per_process.max(1)).max(1);
    let each = rounds / parts;
    let mut earlier = Single {
        times: vec![Vec::new(); programs.len()],
        raw: vec![Vec::new(); programs.len()],
        compile: vec![Vec::new(); programs.len()],
        ..Single::default()
    };
    for part in 1..parts {
        let left = hard_stop.saturating_duration_since(Instant::now()).as_millis().to_string();
        let out = Command::new(std::env::current_exe().expect("the benchmark knows its own path"))
            .args(child_args)
            .args(["--part", &each.to_string(), "--stop-ms", &left])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let got = match out {
            Ok(o) if o.status.success() => {
                absorb_part(&mut earlier, &String::from_utf8_lossy(&o.stdout))
            }
            Ok(o) => Err(format!("exited with {}", o.status)),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = got {
            earlier.failed += 1;
            eprintln!("FAIL part {part} of {parts}: {e}");
        }
    }
    let mut s = run(programs, each, hard_stop, spans);
    for (mine, theirs) in [
        (&mut s.times, earlier.times),
        (&mut s.raw, earlier.raw),
        (&mut s.compile, earlier.compile),
    ] {
        for (m, mut t) in mine.iter_mut().zip(theirs) {
            t.append(m);
            *m = t;
        }
    }
    earlier.setup_ms.append(&mut s.setup_ms);
    s.setup_ms = earlier.setup_ms;
    s.attempted += earlier.attempted;
    s.failed += earlier.failed;
    s
}

/// Prints a child's samples for [`split`]: one `part` line per sample
/// series, and its operation counts last. Rust prints each `f64` with the
/// digits that read back to the same value.
pub fn print_part(s: &Single) {
    let line = |name: String, v: &[f64]| {
        let v: Vec<String> = v.iter().map(f64::to_string).collect();
        println!("part {name} {}", v.join(" "));
    };
    for (name, series) in [("times", &s.times), ("raw", &s.raw), ("compile", &s.compile)] {
        for (i, v) in series.iter().enumerate() {
            line(format!("{name} {i}"), v);
        }
    }
    line("setup".into(), &s.setup_ms);
    println!("part ops {} {}", s.attempted, s.failed);
}

/// Appends the samples a child printed to `into`.
fn absorb_part(into: &mut Single, stdout: &str) -> Result<(), String> {
    let mut ops = None;
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("part") {
            continue;
        }
        let name = words.next().ok_or("part line without a name")?;
        if name == "ops" {
            let n: Vec<u64> = words
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("part ops: {e}"))?;
            let [attempted, failed] = n[..] else {
                return Err("part ops: needs two counts".into());
            };
            ops = Some((attempted, failed));
            continue;
        }
        let series = match name {
            "times" => &mut into.times,
            "raw" => &mut into.raw,
            "compile" => &mut into.compile,
            "setup" => {
                for w in words {
                    into.setup_ms.push(w.parse().map_err(|e| format!("part setup: {e}"))?);
                }
                continue;
            }
            other => return Err(format!("unknown part series {other}")),
        };
        let i: usize = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("part {name}: no program index"))?;
        let v = series.get_mut(i).ok_or_else(|| format!("part {name}: no program {i}"))?;
        for w in words {
            v.push(w.parse().map_err(|e| format!("part {name} {i}: {e}"))?);
        }
    }
    let (attempted, failed) = ops.ok_or("no part ops line")?;
    into.attempted += attempted;
    into.failed += failed;
    Ok(())
}

/// The recorded engine events as one exportable track.
pub fn engine_track(t: &Traced) -> OwnerTrace {
    OwnerTrace { owner: "engines".into(), tid: 100, events: t.events.clone(), dropped: 0 }
}
