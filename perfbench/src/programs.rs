//! The four workloads: which programs each runs, at what size, with what
//! expected value, and why.

use segstack_bench::workloads as w;
use segstack_core::rng::SplitMix64;

use crate::gen;

/// One program of a workload.
#[derive(Clone)]
pub struct Program {
    /// Short name, used in diagnostics and trace spans.
    pub name: String,
    /// The Scheme source text handed to the system.
    pub source: String,
    /// The printed value a correct evaluation returns.
    pub expected: String,
}

impl Program {
    /// Whether the program can be submitted to `segstack-serve` as is. A
    /// job's top-level definitions become internal definitions of the
    /// job's body, so a program whose definitions follow an expression,
    /// or that defines syntax, is not a valid job.
    pub fn runs_as_job(&self) -> bool {
        const NOT_JOBS: &[&str] = &["boyer", "boyer.scm", "fuzz_ic_redefine.scm", "lib_amb"];
        !(NOT_JOBS.contains(&self.name.as_str()) || self.name.starts_with("generated"))
    }
}

fn prog(name: &str, source: String, expected: impl ToString) -> Program {
    Program { name: name.to_string(), source, expected: expected.to_string() }
}

/// The workloads, by the names `BENCHMARK.json` declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// VM dispatch and call/return with overflow checks do nearly all the
    /// work; no explicit captures (the only ones are `deep_sum`'s implicit
    /// overflow captures) and a front end of a few percent. Every
    /// continuation-side or front-end optimisation bypasses it and must
    /// show no change here; a collector or tracing on the call path shows
    /// its cost here.
    Typical,
    /// Capture, reinstate, relink, split and underflow dominate, through
    /// both reinstatement paths (one-shot relink, multi-shot copy). Every
    /// program here retains memory per eval today, so this is where the
    /// continuation leak shows.
    ContIntensive,
    /// A seeded job stream through `segstack-serve`: queue hand-off,
    /// quantum preemption (one capture per quantum), per-job compilation
    /// and per-worker kits that outlive jobs. The only workload where
    /// waiting, not work, sets latency, and where a leak builds up across
    /// jobs instead of across evals.
    ServeMix,
    /// Read, expand, resolve and codegen do nearly all the work over real
    /// and generated Scheme text; the VM almost none. Every other workload
    /// leaves the front end at a few percent.
    Frontend,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "typical" => Some(Workload::Typical),
            "cont_intensive" => Some(Workload::ContIntensive),
            "serve_mix" => Some(Workload::ServeMix),
            "frontend" => Some(Workload::Frontend),
            _ => None,
        }
    }

    /// Single-threaded rounds for a run of `seconds`: a fixed count, so
    /// memory figures do not depend on host speed. A round of `typical`
    /// takes about 40 ms and one of `frontend` about 170 ms on the 2-vCPU
    /// host the benchmark was defined on, and one of `cont_intensive` or
    /// `serve_mix` about 45 ms.
    pub fn rounds(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::Typical => 24.0,
            Workload::ContIntensive => 14.4,
            Workload::ServeMix => 4.1,
            Workload::Frontend => 5.5,
        };
        (seconds * per_second).round() as usize
    }

    /// Rounds one process may hold. `cont_intensive` is limited by memory,
    /// not time: its programs retain about 1 MB per eval that only the
    /// process's exit gives back, so 120 rounds reach about 800 MB. A run
    /// of more rounds spreads them over processes run one after another
    /// (see `split`), which keeps the leak's per-process figures while
    /// giving the tail statistics several times the samples.
    pub fn rounds_per_process(self) -> usize {
        match self {
            Workload::ContIntensive => 120,
            _ => usize::MAX,
        }
    }

    /// The programs evaluated single-threaded, round after round. For
    /// `serve_mix` these are every other job of one block of its stream,
    /// which spans its job kinds and sizes in half the time.
    pub fn programs(self, seed: u64) -> Vec<Program> {
        match self {
            Workload::Typical => typical(),
            Workload::ContIntensive => cont_intensive(),
            Workload::ServeMix => job_block().into_iter().skip(1).step_by(2).collect(),
            Workload::Frontend => frontend(seed),
        }
    }
}

/// Each program is sized to a few milliseconds.
fn typical() -> Vec<Program> {
    let deep = 10_000u64;
    let helper = 6_000u64;
    vec![
        // Doubly recursive calls: the purest call/return + check cost.
        prog("fib", w::fib(19), 4181),
        // Deep non-tail recursion with three-way argument shuffling.
        prog("tak", w::tak(14, 9, 4), 9),
        // Symbol and list work on a 5.3 KB source: the one typical program
        // whose front end is not negligible.
        prog("boyer", w::boyer(2), 122),
        // Allocation-heavy list recursion (sum of 200 LCG draws).
        prog("sort", w::sort(200), 97052),
        // Symbolic differentiation: list construction and `cond` dispatch.
        prog("deriv", w::deriv(60), 3),
        // Plain backtracking search without continuations.
        prog("queens_plain", w::queens_plain(6), 4),
        // Non-tail helper calls from a tail loop (leaf check elision).
        prog("nested_helper", w::nested_helper(helper as u32), helper_sum(helper)),
        // A tight tail loop: no frames pushed at all.
        prog("tail_loop", w::tail_loop(15_000), 15_000),
        // Deep recursion: the workload's only (implicit, overflow)
        // captures and their underflows.
        prog("deep_sum", w::deep_sum(deep as u32), deep * (deep + 1) / 2),
    ]
}

fn helper_sum(n: u64) -> u64 {
    n * (n + 1) * (2 * n + 1) / 6 + 9 * n
}

/// Sized so the known retention (hundreds of KB to MB per eval) is
/// plainly visible in `retained_kb_per_eval`.
fn cont_intensive() -> Vec<Program> {
    vec![
        // A continuation captured at every level; results delivered by
        // invoking them (multi-shot capture and reinstatement).
        prog("ctak", w::ctak(12, 8, 4), 5),
        // Re-entrant generators: multi-shot reinstatement per element.
        prog("generator_drain", w::generator_drain(40, 10), 10 * 40 * 39 / 2),
        // Coroutine switches with multi-shot capture: every reinstatement
        // copies.
        prog("pingpong_cc", w::pingpong("%call/cc", 100, 400), 400),
        // The same switches with one-shot capture: reinstatements relink.
        prog("pingpong_1cc", w::pingpong("%call/1cc", 100, 1_500), 1_500),
        // The paper's section 4 tail rule: tail-position capture in a loop.
        prog("looper", w::looper(3_000), "done"),
        // Captures at depth, each discarded: splits and the copy bound.
        prog("capture_at_depth", w::capture_at_depth(500, 1_000), 500),
        // One capture reinstated repeatedly: underflow and copy bound.
        prog("reinstate_at_depth", w::reinstate_at_depth(500, 80), 80),
    ]
}

/// The repository's real Scheme text plus seeded generated programs.
/// Definition-only texts (the prelude, the control libraries, and the two
/// test programs whose drivers run for tens of ms) get a final `'loaded`
/// form, so their value proves the whole text compiled and ran.
fn frontend(seed: u64) -> Vec<Program> {
    let loaded = |src: &str| format!("{src}\n'loaded");
    let mut out = vec![prog("prelude", loaded(segstack_scheme::prelude::PRELUDE), "loaded")];
    for (name, src, expected) in REAL_PROGRAMS {
        match expected {
            // The driver is the file's last top-level form.
            None => {
                let cut = src.rfind("\n(").expect("the file ends in a driver form");
                out.push(prog(name, loaded(&src[..cut]), "loaded"));
            }
            Some(v) => out.push(prog(name, src.to_string(), v)),
        }
    }
    for (name, src) in segstack_control::libs::ALL {
        out.push(prog(&format!("lib_{name}"), loaded(src), "loaded"));
    }
    let mut rng = SplitMix64::new(seed ^ 0xF00D);
    for i in 0..8 {
        let g = gen::program(rng.next_u64());
        out.push(prog(&format!("generated{i}"), g.source, g.expected));
    }
    out
}

/// `tests/programs/*.scm` with each file's value; `None` drops the
/// file's driver form.
const REAL_PROGRAMS: &[(&str, &str, Option<&str>)] = &[
    ("boyer.scm", include_str!("../../tests/programs/boyer.scm"), None),
    ("ctak.scm", include_str!("../../tests/programs/ctak.scm"), Some("5")),
    ("deriv.scm", include_str!("../../tests/programs/deriv.scm"), Some(DERIV)),
    ("fuzz_branchy.scm", include_str!("../../tests/programs/fuzz_branchy.scm"), Some("40")),
    ("fuzz_escape.scm", include_str!("../../tests/programs/fuzz_escape.scm"), Some("1")),
    (
        "fuzz_ic_redefine.scm",
        include_str!("../../tests/programs/fuzz_ic_redefine.scm"),
        Some("(11 20 7 10 100)"),
    ),
    (
        "fuzz_interproc_poison.scm",
        include_str!("../../tests/programs/fuzz_interproc_poison.scm"),
        Some("(2026 done)"),
    ),
    ("fuzz_nested_k.scm", include_str!("../../tests/programs/fuzz_nested_k.scm"), Some("14")),
    (
        "generators.scm",
        include_str!("../../tests/programs/generators.scm"),
        Some("((1 2 3 4 5) (10 20 30) ())"),
    ),
    ("meta.scm", include_str!("../../tests/programs/meta.scm"), None),
    ("queens.scm", include_str!("../../tests/programs/queens.scm"), Some("4")),
    ("sort.scm", include_str!("../../tests/programs/sort.scm"), Some("(#t 400 0 201088)")),
];

/// `deriv.scm`'s simplified derivative, as all six control-stack
/// strategies print it.
const DERIV: &str = "(+ (* (* (* (* (* x (+ x 6)) (+ x 5)) (+ x 4)) (+ x 3)) (+ x 2)) \
(* (+ (* (* (* (* x (+ x 6)) (+ x 5)) (+ x 4)) (+ x 3)) (* (+ (* (* (* x (+ x 6)) (+ x 5)) \
(+ x 4)) (* (+ (* (* x (+ x 6)) (+ x 5)) (* (+ (* x (+ x 6)) (* (+ x (+ x 6)) (+ x 5))) \
(+ x 4))) (+ x 3))) (+ x 2))) (+ x 1)))";

/// One block of the serve job stream: short fib, tak, tail-loop, ctak
/// and generator-drain jobs of 0.3 to 15 ms each, 3 ms on average, so a
/// job's service time, not the host's thread wake-up latency (about a
/// millisecond, and variable), sets its latency.
/// Every block of the stream holds these twenty jobs, so total work and
/// retained memory do not depend on the seed; the seed shuffles each block
/// and draws each tail loop's length, so those sources are (almost always)
/// distinct while the other sixteen repeat from block to block.
fn job_block() -> Vec<Program> {
    let mut b = Vec::new();
    for k in 14..21u32 {
        b.push(prog(&format!("fib({k})"), w::fib(k), fib(k)));
    }
    for (x, y, z) in [(12, 6, 2), (14, 7, 3), (15, 8, 4)] {
        b.push(prog(&format!("tak({x},{y},{z})"), w::tak(x, y, z), tak(x, y, z)));
    }
    for n in [5_000u32, 15_000, 30_000, 50_000] {
        b.push(prog(&format!("tail_loop({n})"), w::tail_loop(n), n));
    }
    for (x, y, z) in [(10, 5, 2), (11, 6, 2), (12, 7, 3)] {
        b.push(prog(&format!("ctak({x},{y},{z})"), w::ctak(x, y, z), tak(x, y, z)));
    }
    for (wd, r) in [(20u32, 4u32), (30, 6), (40, 8)] {
        let name = format!("generator_drain({wd},{r})");
        b.push(prog(&name, w::generator_drain(wd, r), r * wd * (wd - 1) / 2));
    }
    b
}

/// The serve job stream: `n` jobs, block after block of [`job_block`],
/// each block shuffled by the seed and its tail loops lengthened by a
/// seeded amount below 1000 iterations.
pub fn job_stream(seed: u64, n: usize) -> Vec<Program> {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = job_block();
        for p in &mut block {
            if let Some(k) = p.name.strip_prefix("tail_loop(").and_then(|r| r.strip_suffix(')')) {
                let k = k.parse::<u32>().expect("tail_loop names carry their length");
                let k = k + rng.gen_range(0, 1_000) as u32;
                *p = prog(&format!("tail_loop({k})"), w::tail_loop(k), k);
            }
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(n);
    out
}

fn fib(n: u32) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

pub(crate) fn tak(x: i32, y: i32, z: i32) -> i32 {
    if y >= x {
        z
    } else {
        tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
    }
}
