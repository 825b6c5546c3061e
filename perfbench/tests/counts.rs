//! The per-layer counts are host-independent: two processes given the same
//! seed print exactly the same counts, whatever the timings were. Serve
//! counts whose totals depend on thread interleaving (`count-serve`) are
//! exempt.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

fn counts(workload: &str, seed: u64) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|l| l.starts_with("count ") || l.starts_with("count-base "))
        .map(str::to_string)
        .collect()
}

#[test]
fn counts_repeat_exactly_across_processes() {
    for workload in ["typical", "cont_intensive", "serve_mix", "frontend"] {
        let first = counts(workload, 7);
        assert!(first.len() > 20, "{workload} printed too few counts: {first:?}");
        assert_eq!(first, counts(workload, 7), "{workload} counts differ between processes");
    }
}

#[test]
fn unknown_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn a_split_run_checks_and_keeps_every_part() {
    // 9 s of cont_intensive is 130 rounds, more than one process holds:
    // a child runs 65 of them, this process the other 65.
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "cont_intensive", "--seed", "1", "--seconds", "9", "--trace", "0"])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(stdout.lines().any(|l| l.starts_with("ops 910 failed 0 ")), "{stdout}");
    // Each part's first round is an untimed warm-up.
    assert!(stdout.lines().any(|l| l.starts_with("program ctak samples=128 ")), "{stdout}");
}
