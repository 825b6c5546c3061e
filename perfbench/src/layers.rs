//! Per-layer instruments: a front-end kit that drives the reader,
//! expander, resolver and code generator one call at a time, the
//! benchmark's own span log, and the readers of the program's ring
//! events.

use std::fmt::Write as _;
use std::time::Instant;

use segstack_core::trace::{chrome_trace_json, validate_chrome_trace, EventKind, OwnerTrace};
use segstack_core::Metrics;

use crate::stats::cpu_timed;
use segstack_scheme::resolve::resolve_toplevel;
use segstack_scheme::{
    compile_toplevel, expand::Expander, primitives, read_all, CodeStore, CompileOptions, Globals,
    SchemeError, Value,
};

/// Wraps read forms into one program unit, as `Engine::eval` does.
fn unit_of(forms: Vec<Value>) -> Value {
    if forms.len() == 1 {
        forms.into_iter().next().expect("length checked")
    } else {
        let mut items = vec![Value::sym("begin")];
        items.extend(forms);
        Value::list(items)
    }
}

/// What one front-end pass over a source produced.
pub struct Compiled {
    /// Chunks emitted for the unit.
    pub chunks: u64,
    /// Instructions over those chunks.
    pub instrs: u64,
}

/// Per-phase milliseconds of one traced front-end pass.
#[derive(Default, Clone, Copy)]
pub struct PhaseMs {
    pub read: f64,
    pub expand: f64,
    pub resolve: f64,
    /// The whole `compile_toplevel` call (expand + resolve + codegen).
    pub compile: f64,
}

impl PhaseMs {
    /// Every phase multiplied by `f` (a calibration factor).
    pub fn scaled(self, f: f64) -> PhaseMs {
        PhaseMs {
            read: self.read * f,
            expand: self.expand * f,
            resolve: self.resolve * f,
            compile: self.compile * f,
        }
    }
}

/// The front end of a default engine, held outside any engine so each
/// layer can be called and timed on its own. Expander and globals live
/// as long as the kit, like an engine's; every unit compiles into a fresh
/// `CodeStore`, so `verify` checks exactly that unit.
pub struct FrontEnd {
    expander: Expander,
    globals: Globals,
    opts: CompileOptions,
}

impl FrontEnd {
    /// A kit that has seen the prelude, like a fresh engine.
    pub fn new() -> Result<FrontEnd, SchemeError> {
        let mut globals = Globals::new();
        primitives::install(&mut globals);
        let mut fe =
            FrontEnd { expander: Expander::new(), globals, opts: CompileOptions::default() };
        fe.compile(segstack_scheme::prelude::PRELUDE)?;
        Ok(fe)
    }

    /// Source text to verified code: read, compile, verify.
    pub fn compile(&mut self, src: &str) -> Result<Compiled, SchemeError> {
        let unit = unit_of(read_all(src)?);
        let store = CodeStore::new();
        compile_toplevel(&unit, &mut self.expander, &store, &mut self.globals, &self.opts)?;
        let errors = store.verify();
        if let Some(e) = errors.first() {
            return Err(SchemeError::runtime(format!("code verification failed: {e}")));
        }
        let instrs = (0..store.len() as u32).map(|id| store.chunk(id).instrs.len() as u64).sum();
        Ok(Compiled { chunks: store.len() as u64, instrs })
    }

    /// One pass with every layer called and timed (in CPU time)
    /// separately, each call recorded as a span. `compile_toplevel` repeats the expansion and
    /// resolution internally; codegen's self time is its duration minus
    /// theirs.
    pub fn traced(&mut self, src: &str, spans: &mut Spans) -> Result<PhaseMs, SchemeError> {
        let mut ms = PhaseMs::default();
        let (forms, t) = cpu_timed(|| spans.span("read", || read_all(src)).0);
        ms.read = t;
        let unit = unit_of(forms?);
        let (ast, t) =
            cpu_timed(|| spans.span("expand", || self.expander.expand_toplevel(&unit)).0);
        ms.expand = t;
        let ast = ast?;
        let (r, t) =
            cpu_timed(|| spans.span("resolve", || resolve_toplevel(&ast, &mut self.globals)).0);
        ms.resolve = t;
        r?;
        let store = CodeStore::new();
        let (r, t) = cpu_timed(|| {
            spans
                .span("compile", || {
                    compile_toplevel(
                        &unit,
                        &mut self.expander,
                        &store,
                        &mut self.globals,
                        &self.opts,
                    )
                })
                .0
        });
        ms.compile = t;
        r?;
        if let Some(e) = store.verify().first() {
            return Err(SchemeError::runtime(format!("code verification failed: {e}")));
        }
        Ok(ms)
    }
}

/// Track id of the benchmark's own spans in the exported timeline.
const BENCH_TID: u64 = 1000;

/// The benchmark's own spans, kept in memory while `recording` is set.
pub struct Spans {
    epoch: Instant,
    traced: bool,
    /// `(name, start ns, duration ns)`, in start order.
    events: Vec<(String, u64, u64)>,
    pub recording: bool,
}

impl Spans {
    /// A log for a run with tracing on (`traced`) or off.
    pub fn new(epoch: Instant, traced: bool) -> Spans {
        Spans { epoch, traced, events: Vec::new(), recording: false }
    }

    /// Whether this is the traced run.
    pub fn is_traced(&self) -> bool {
        self.traced
    }

    /// The time base shared with the program's ring events.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// milliseconds. Spans opened inside `f` nest inside this one.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.nest(name, |_| f())
    }

    /// Like [`Spans::span`] for closures that record nested spans.
    pub fn nest<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let index = self.events.len();
        let start = self.now();
        if self.recording {
            self.events.push((name.to_string(), start, 0));
        }
        let out = f(self);
        let end = self.now();
        if self.recording {
            self.events[index].2 = end - start;
        }
        (out, (end - start) as f64 / 1e6)
    }

    /// Writes the spans and the program's ring events into one Chrome
    /// trace-event document, validates it, and returns it with its
    /// shape counts. `validate_chrome_trace` takes time quadratic in the
    /// document's size, so callers keep the timeline to a sample of a few
    /// hundred KB.
    pub fn export(&self, rings: &[OwnerTrace]) -> Result<(String, String), String> {
        let doc = chrome_trace_json(rings);
        let mut own = format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{BENCH_TID},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"bench\"}}}}"
        );
        for (name, start, dur) in &self.events {
            let _ = write!(
                own,
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{BENCH_TID},\"name\":\"{name}\",\
                 \"cat\":\"bench\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{}}}}",
                start / 1000,
                start % 1000,
                dur / 1000,
                dur % 1000
            );
        }
        let head = "{\"traceEvents\":[";
        let rest = doc.strip_prefix(head).ok_or("exporter output has an unexpected head")?;
        let sep = if rest.starts_with(']') { "" } else { "," };
        let merged = format!("{head}{own}{sep}{rest}");
        let stats = validate_chrome_trace(&merged)?;
        let summary = format!(
            "events={} spans={} instants={} async_spans={} tracks={}",
            stats.events, stats.spans, stats.instants, stats.async_spans, stats.tracks
        );
        Ok((merged, summary))
    }
}

/// Time spent inside the program's reinstatement and overflow spans.
#[derive(Default, Clone)]
pub struct SpanTimes {
    pub reinstate_ns: u64,
    pub reinstates: u64,
    pub overflow_ns: u64,
    pub overflows: u64,
}

impl SpanTimes {
    /// Adds the `ReinstateBegin/End` and `OverflowBegin/End` pairs of a
    /// drained ring. A span whose partner was lost to ring wrap is
    /// skipped.
    pub fn absorb(&mut self, events: &[segstack_core::trace::Event]) {
        let mut open: Vec<(EventKind, u64)> = Vec::new();
        for ev in events {
            match ev.kind {
                EventKind::ReinstateBegin | EventKind::OverflowBegin => {
                    open.push((ev.kind, ev.nanos))
                }
                EventKind::ReinstateEnd | EventKind::OverflowEnd => {
                    let begin = if ev.kind == EventKind::ReinstateEnd {
                        EventKind::ReinstateBegin
                    } else {
                        EventKind::OverflowBegin
                    };
                    let Some(depth) = open.iter().rposition(|(k, _)| *k == begin) else { continue };
                    let start = open[depth].1;
                    open.truncate(depth);
                    let dur = ev.nanos.saturating_sub(start);
                    if begin == EventKind::ReinstateBegin {
                        self.reinstate_ns += dur;
                        self.reinstates += 1;
                    } else {
                        self.overflow_ns += dur;
                        self.overflows += 1;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Host-independent counts from one deterministic round.
#[derive(Default, Clone)]
pub struct Counts {
    pub stack: Metrics,
    pub chunks: u64,
    pub instrs: u64,
    pub source_bytes: u64,
}

impl Counts {
    /// `(name, value)` for every count, in a fixed order.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let m = &self.stack;
        let ratio = |num: u64, base: u64| if base == 0 { 0.0 } else { num as f64 / base as f64 };
        vec![
            ("reader.kb", self.source_bytes as f64 / 1024.0),
            ("codegen.instrs", self.instrs as f64),
            ("codegen.chunks", self.chunks as f64),
            ("vm.calls", m.calls as f64),
            ("vm.tail_calls", m.tail_calls as f64),
            ("vm.returns", m.returns as f64),
            ("vm.superinstructions", m.superinstructions_dispatched as f64),
            ("vm.ic_hit_ratio", ratio(m.ic_hits, m.ic_hits + m.ic_misses)),
            ("stack.checks_executed", m.checks_executed as f64),
            ("stack.checks_elided", m.checks_elided as f64),
            ("stack.captures", m.captures as f64),
            ("stack.reinstatements", m.reinstatements as f64),
            ("stack.relink_ratio", ratio(m.reinstates_relinked, m.reinstatements)),
            ("stack.slots_copied", m.slots_copied as f64),
            ("stack.slots_copy_avoided", m.slots_copy_avoided as f64),
            ("stack.splits", m.splits as f64),
            ("stack.overflows", m.overflows as f64),
            ("stack.underflows", m.underflows as f64),
            ("segments.allocated", m.segments_allocated as f64),
            ("segments.reused", m.segments_reused as f64),
            (
                "segments.pool_hit_ratio",
                ratio(m.segments_reused, m.segments_allocated + m.segments_reused),
            ),
            ("stack.records_allocated", m.stack_records_allocated as f64),
        ]
    }

    /// Prints every count with the bases of its ratios.
    pub fn print(&self) {
        let m = &self.stack;
        for (name, v) in self.rows() {
            println!("count {name} {v}");
        }
        println!(
            "count-base vm.ic_hit_ratio hits={} misses={}; stack.relink_ratio relinked={} \
             reinstatements={}; segments.pool_hit_ratio reused={} allocated={}",
            m.ic_hits,
            m.ic_misses,
            m.reinstates_relinked,
            m.reinstatements,
            m.segments_reused,
            m.segments_allocated
        );
    }
}

/// `VmRSS` and `VmHWM` of this process, in KB.
pub fn rss_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}
