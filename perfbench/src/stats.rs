//! Order statistics and host-speed calibration.
//!
//! CPU speed on a shared host swings by tens of percent over a few
//! seconds, so a raw wall-clock time says as much about the neighbours as
//! about the code. The single-threaded work is therefore interleaved with
//! a fixed reference kernel, sampled between programs, and each timing is
//! scaled by `KERNEL_NOMINAL_MS` over the mean of the kernel samples on
//! either side of it: a slow phase of the host slows the kernel and the
//! programs alike, and the ratio cancels most of it. Both are measured as
//! the thread's CPU time, so time the host spends on other processes does
//! not count either. Reported times are milliseconds of CPU time at the
//! kernel's nominal speed.

use std::hint::black_box;
use std::time::Duration;

/// The kernel's time on a host of nominal speed. Calibrated times are in
/// "milliseconds at nominal speed".
pub const KERNEL_NOMINAL_MS: f64 = 1.0;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Rounds in one block of the tail statistics.
pub const BLOCK_ROUNDS: usize = 20;

/// Splits every program's per-round samples into the same consecutive
/// blocks of about `BLOCK_ROUNDS` rounds (one block if there are fewer)
/// and returns the median over blocks of `f` applied to each block. A
/// host episode that slows a few seconds of a run moves the blocks inside
/// it, not their median: whole-run p90 and p99 of `cont_intensive`
/// spread 9-26% from run to run, these 4-5%.
pub fn block_median(times: &[Vec<f64>], f: impl Fn(&[&[f64]]) -> f64) -> f64 {
    let n = times.iter().map(Vec::len).min().unwrap_or(0);
    let k = (n / BLOCK_ROUNDS).max(1);
    let per_block: Vec<f64> = (0..k)
        .map(|j| {
            let block: Vec<&[f64]> = times.iter().map(|t| &t[j * n / k..(j + 1) * n / k]).collect();
            f(&block)
        })
        .collect();
    median(&per_block)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time consumed by the calling thread, in milliseconds.
pub fn cpu_ms() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of this process, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

fn clock_ms(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` only writes one `timespec` through the
    // pointer, which points to a live, exclusively borrowed value of that
    // layout (two 64-bit fields on 64-bit Linux).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU clocks are readable");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Runs `f`, returning its result and the calling thread's CPU time over
/// it in milliseconds. Single-threaded work is timed this way, so time
/// the host gives to other processes does not count as the program's.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = cpu_ms();
    let out = f();
    (out, cpu_ms() - start)
}

/// Words in the kernel's memory table: 4 MB, about the size of a
/// last-level cache share, so the memory part feels cache and bandwidth
/// contention from other tenants.
const TABLE_WORDS: usize = 1 << 20;

/// The reference kernel, in two parts that each track a different way the
/// host slows down, timed together.
///
/// * Compute: eight independent multiply-add streams, each updating a
///   16 KB table and taking a data-dependent, unpredictable branch. Like
///   the interpreter loop it keeps several execution ports busy and
///   mispredicts often, so it slows when a hyperthread sibling or a
///   frequency drop takes execution resources away.
/// * Memory: eight independent streams of random read-modify-writes over
///   `table`, which slow when other tenants take cache or memory
///   bandwidth, as the interpreter's heap-heavy programs do.
///
/// Neither part alone tracks the interpreter's slow phases well: across
/// the time windows of one long `typical` run, calibrating by either part
/// alone left a 5-7% range, by both together under 2%. The kernel
/// allocates nothing; its table is allocated once with the
/// [`Calibrator`]. About 0.75 ms of CPU time on the host the benchmark was
/// defined on.
fn kernel(table: &mut [u32]) -> u64 {
    let mut s: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    let mut t = [0u32; 4096];
    let mut acc = 0u64;
    for _ in 0..12_500 {
        for (l, x) in s.iter_mut().enumerate() {
            *x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(l as u64 * 2 + 1);
            let j = (*x >> 52) as usize;
            t[j] = t[j].wrapping_add(*x as u32);
            if *x >> 63 == 1 {
                acc = acc.wrapping_add(u64::from(t[(j + 1) & 4095]));
            }
        }
    }
    for _ in 0..6_000 {
        for (l, x) in s.iter_mut().enumerate() {
            *x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(l as u64 * 2 + 1);
            let j = (*x >> 20) as usize % table.len();
            acc = acc.wrapping_add(u64::from(table[j]));
            table[j] = table[j].wrapping_add(*x as u32);
        }
    }
    acc
}

/// Samples of the reference kernel, taken interleaved with the measured
/// work.
pub struct Calibrator {
    samples: Vec<f64>,
    table: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator { samples: Vec::new(), table: vec![1; TABLE_WORDS] }
    }
}

impl Calibrator {
    /// Times one run of the kernel, keeps the sample, and returns it in
    /// milliseconds.
    pub fn sample(&mut self) -> f64 {
        let (out, t) = cpu_timed(|| kernel(&mut self.table));
        black_box(out);
        self.samples.push(t);
        t
    }

    /// Kernel runs timed so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time in milliseconds (`host.kernel_ms`).
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples)
    }
}
