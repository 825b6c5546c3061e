//! The segstack benchmark: one command that runs a named workload from a
//! seed, checks every result, and prints every metric by name with its
//! unit.
//!
//! ```text
//! perfbench --workload <typical|cont_intensive|serve_mix|frontend>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics of a separate traced run, whose timeline is written as a Chrome
//! trace-event file under `out/`. Lines above it are diagnostics: raw
//! times, the reference kernel's time, per-program medians and the
//! host-independent counts. The exit code is 0 only if every operation
//! returned its expected value.
//!
//! `--part <rounds> --stop-ms <ms>` is internal: it makes the process a
//! child of a run split over processes (see `single::split`), which
//! prints its samples instead of a result.

mod gen;
mod layers;
mod programs;
mod serve;
mod single;
mod stats;

use std::time::{Duration, Instant};

use layers::{rss_kb, Spans};
use programs::Workload;
use single::Single;
use stats::{block_median, geomean, median, percentile};

/// Rounds stop here whatever their count, so a run always ends within
/// the 180 s a run may take.
const HARD_STOP: Duration = Duration::from_secs(140);

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child of a split run: its rounds, and the milliseconds
    /// it has before its hard stop.
    part: Option<(usize, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut part, mut stop_ms) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--part" => part = Some(value.parse::<usize>().map_err(|e| format!("--part: {e}"))?),
            "--stop-ms" => {
                stop_ms = Some(value.parse::<u64>().map_err(|e| format!("--stop-ms: {e}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part: match (part, stop_ms) {
            (Some(r), Some(ms)) => Some((r, ms)),
            (None, None) => None,
            _ => return Err("--part and --stop-ms go together".into()),
        },
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Adds a metric. A value that is not a finite number is a fault in
    /// the measurement and fails the run.
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        if !value.is_finite() {
            eprintln!("FAIL metric {name} is {value}");
            self.failed += 1;
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-program diagnostics and the eval and compile figures of a
/// single-threaded part. Returns the pooled eval times and the
/// per-program medians.
fn single_eval(r: &mut Report, s: &Single, programs: &[programs::Program]) -> (Vec<f64>, Vec<f64>) {
    println!(
        "host.kernel_ms = {} (nominal {}, {} samples)",
        s.cal.kernel_ms(),
        stats::KERNEL_NOMINAL_MS,
        s.cal.samples()
    );
    let (mut p50, mut pooled, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut compile = 0.0;
    for (i, p) in programs.iter().enumerate() {
        let (m, q) = (median(&s.times[i]), percentile(&s.times[i], 90.0));
        println!(
            "program {} samples={} p50_ms={m:.4} p90_ms={q:.4} raw_p50_ms={:.4} \
             compile_p50_ms={:.4} bytes={}",
            p.name,
            s.times[i].len(),
            median(&s.raw[i]),
            median(&s.compile[i]),
            p.source.len()
        );
        raw.push(median(&s.raw[i]));
        p50.push(m);
        compile += median(&s.compile[i]);
        pooled.extend_from_slice(&s.times[i]);
    }
    let kb: f64 = programs.iter().map(|p| p.source.len() as f64 / 1024.0).sum();
    println!("raw eval_ms.p50 = {} ms (uncalibrated)", geomean(&raw));
    r.add("eval_ms.p50", geomean(&p50), "ms");
    // Tail figures are block medians (see `block_median`); the
    // per-program whole-run p90s above are diagnostics.
    let p90 = |b: &[&[f64]]| geomean(&b.iter().map(|t| percentile(t, 90.0)).collect::<Vec<_>>());
    r.add("eval_ms.p90", block_median(&s.times, p90), "ms");
    r.add("compile_kb_per_s", kb / (compile / 1e3), "KB/s");
    (pooled, p50)
}

fn memory(r: &mut Report, retained_kb: f64) {
    r.add("peak_rss_mb", rss_kb().1 as f64 / 1024.0, "MB");
    r.add("retained_kb_per_eval", retained_kb, "KB");
}

fn serve_diagnostics(s: &serve::Serve) {
    let t = s.snapshot.total();
    let b = s.before.total();
    println!(
        "serve workers={} jobs={} repeated_share={:.4} raw_setup_ms={:?}",
        serve::workers(),
        s.attempted,
        s.repeated as f64 / s.attempted.max(1) as f64,
        s.setup_ms
    );
    println!(
        "count-serve quanta={} ticks={} completed={} (interleaving-dependent)",
        t.quanta - b.quanta,
        t.ticks - b.ticks,
        t.completed - b.completed
    );
}

/// Per-layer times and serve figures of a traced run.
fn per_layer(r: &mut Report, s: &Single, sv: &serve::Serve, spans: &mut Spans, workload: &str) {
    let tr = s.traced.as_ref().expect("traced run");
    let (mut read, mut expand, mut resolve, mut codegen, mut vm) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..s.times.len() {
        let ph = &tr.phases[i];
        let m = |f: fn(&layers::PhaseMs) -> f64| median(&ph.iter().map(f).collect::<Vec<_>>());
        let (rd, ex, rs, cp) = (m(|p| p.read), m(|p| p.expand), m(|p| p.resolve), m(|p| p.compile));
        read += rd;
        expand += ex;
        resolve += rs;
        codegen += cp - ex - rs;
        vm += median(&s.times[i]) - rd - cp;
        untraced.push(median(&s.times[i]));
        traced.push(median(&tr.times[i]));
    }
    let layers = [
        ("reader", read),
        ("expand", expand),
        ("resolve", resolve),
        ("codegen", codegen),
        ("vm", vm),
    ];
    for (name, v) in layers {
        println!("layer {name} self_ms_per_round = {v}");
    }
    for (name, v) in layers {
        r.add(&format!("{name}.ms"), v, "ms");
    }
    let mut all = tr.span_times.clone();
    for t in &sv.traces {
        all.absorb(&t.events);
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 / 1e6 };
    println!("layer stack reinstate_spans={} overflow_spans={}", all.reinstates, all.overflows);
    r.add("stack.reinstate_ms", per(all.reinstate_ns, all.reinstates), "ms");
    r.add("stack.overflow_ms", per(all.overflow_ns, all.overflows), "ms");
    let t = sv.snapshot.total();
    let b = sv.before.total();
    let jobs = (t.finished() - b.finished()).max(1) as f64;
    r.add("serve.queue_wait_ms.p50", median(&serve::queue_waits(&sv.traces)), "ms");
    r.add("serve.quanta_per_job", (t.quanta - b.quanta) as f64 / jobs, "count");
    r.add("serve.ticks_per_job", (t.ticks - b.ticks) as f64 / jobs, "count");
    r.add("serve.worker_busy_ratio", sv.busy_ratio, "ratio");
    r.add("serve.submit_blocked_ms", sv.submit_ms, "ms");
    r.add("serve.driver_lag_ms.p99", percentile(&sv.lag_ms, 99.0), "ms");
    r.add("serve.due_latency_ms.p50", percentile(&sv.latency_ms, 50.0), "ms");
    r.add("serve.due_latency_ms.p99", percentile(&sv.latency_ms, 99.0), "ms");
    r.add("trace.overhead_ms", geomean(&traced) - geomean(&untraced), "ms");
    r.add("host.kernel_ms", s.cal.kernel_ms(), "ms");

    let mut rings = vec![single::engine_track(tr)];
    for t in &sv.traces {
        rings.push(serve::timeline_sample(t, single::KEPT_EVENTS / 2));
    }
    spans.recording = false;
    match spans.export(&rings) {
        Ok((doc, summary)) => {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/trace-{workload}.json");
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
                Ok(()) => println!("trace {path} valid: {summary}"),
                Err(e) => {
                    r.failed += 1;
                    eprintln!("FAIL writing {path}: {e}");
                }
            }
        }
        Err(e) => {
            r.failed += 1;
            eprintln!("FAIL trace validation: {e}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <typical|cont_intensive|serve_mix|frontend> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let programs = args.workload.programs(args.seed);
    if let Some((rounds, stop_ms)) = args.part {
        // A child of a split run: untraced rounds, samples printed for
        // the parent, which counts any failure among them.
        let mut spans = Spans::new(start, false);
        let stop = start + Duration::from_millis(stop_ms);
        single::print_part(&single::run(&programs, rounds, stop, &mut spans));
        return;
    }
    let mut spans = Spans::new(start, args.trace);
    let mut r = Report::default();
    println!(
        "workload {} seed {} seconds {} trace {} programs {} cpus {}",
        args.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        programs.len(),
        serve::workers()
    );

    let serve_part = match args.workload {
        Workload::ServeMix => {
            let share = if args.trace { 0.6 } else { 1.0 };
            Some(serve::mix(args.seed, args.seconds * share, &mut spans))
        }
        _ => None,
    };
    // A traced round does about two and a half times the work of a
    // plain one, and holds twice the engines; the traced pass runs in
    // this process alone.
    let per_process = args.workload.rounds_per_process();
    let rounds = args.workload.rounds(args.seconds);
    let rounds = if args.trace { rounds.min(per_process) * 2 / 5 } else { rounds };
    let child_args = [
        "--workload",
        &args.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        "0",
    ]
    .map(String::from);
    let s =
        single::split(&programs, rounds, per_process, &child_args, start + HARD_STOP, &mut spans);
    println!("rounds {rounds} done at {:.2} s", start.elapsed().as_secs_f64());
    let serve_part =
        serve_part.or_else(|| args.trace.then(|| serve::pass(&programs, 2, &mut spans)));
    s.counts.print();
    if let Some(sv) = &serve_part {
        serve_diagnostics(sv);
        r.attempted += sv.attempted;
        r.failed += sv.failed;
    }
    r.attempted += s.attempted;
    r.failed += s.failed;

    if args.trace {
        let sv = serve_part.as_ref().expect("traced runs drive the serve layer");
        per_layer(&mut r, &s, sv, &mut spans, &args.name);
        for (name, v) in s.counts.rows() {
            let unit = match name {
                "reader.kb" => "KB",
                n if n.ends_with("_ratio") => "ratio",
                _ => "count",
            };
            r.add(name, v, unit);
        }
    } else {
        match &serve_part {
            Some(sv) => {
                r.add("setup_s", median(&sv.setup_ms) / 1e3, "s");
                single_eval(&mut r, &s, &programs);
                r.add("jobs_per_s", sv.jobs_per_s, "1/s");
                let (open50, open99) =
                    (percentile(&sv.latency_ms, 50.0), percentile(&sv.latency_ms, 99.0));
                println!("serve open loop: latency p50 {open50} ms p99 {open99} ms (uncalibrated)");
                r.add("job_latency_ms.p50", percentile(&sv.closed_latency_ms, 50.0), "ms");
                r.add("job_latency_ms.p99", percentile(&sv.closed_latency_ms, 99.0), "ms");
                memory(&mut r, sv.retained_kb_per_job);
            }
            None => {
                r.add("setup_s", median(&s.setup_ms) / 1e3, "s");
                let (pooled, p50) = single_eval(&mut r, &s, &programs);
                // Checked evals per second at each program's median speed.
                let per_round: f64 = p50.iter().sum();
                r.add("jobs_per_s", p50.len() as f64 / (per_round / 1e3), "1/s");
                r.add("job_latency_ms.p50", percentile(&pooled, 50.0), "ms");
                let p99 = |b: &[&[f64]]| percentile(&b.concat(), 99.0);
                r.add("job_latency_ms.p99", block_median(&s.times, p99), "ms");
                memory(&mut r, s.retained_kb_per_eval);
            }
        }
    }
    println!(
        "ops {} failed {} elapsed_s {:.3}",
        r.attempted,
        r.failed,
        start.elapsed().as_secs_f64()
    );
    println!("{}", r.json());
    if r.failed > 0 {
        std::process::exit(1);
    }
}
