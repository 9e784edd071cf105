//! Host clocks the benchmark normalizes by.
//!
//! On a shared virtual machine the hypervisor can take a vCPU away for
//! whole milliseconds ("steal"), and how much it takes changes from run
//! to run. Wall-clock throughput then measures the neighbours as much as
//! the code. CPU time charged to this process does not advance while
//! the vCPU is taken away, so work per CPU-second is what the
//! benchmark's throughput metric reports; the steal share of each run is
//! printed beside it.

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark builds for), and `clock` is
    // one of the constant CPU-time clock ids above, which the kernel
    // always accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by every thread of this process so far,
/// including threads that have exited.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Thread CPU seconds of the reference loop on a host running at the
/// reference speed (the 2-vCPU Xeon VM the bounds were set on).
const REFERENCE_LOOP_S: f64 = 1.2e-3;

/// One run of the reference loop: a dot product over two 16 KiB arrays
/// and dependent lookups in a 256 KiB table, so both arithmetic and
/// cache latency are in it. Returns its thread CPU seconds.
fn reference_loop() -> f64 {
    let a: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.37).sin()).collect();
    let b: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.11).cos()).collect();
    let mut table: Vec<u32> = (0..65_536u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let t = thread_cpu_seconds();
    let mut acc = 0.0;
    let mut h = 1u32;
    for r in 0..400 {
        acc += a.iter().zip(&b).map(|(x, y)| x * y).sum::<f64>() * r as f64;
        for _ in 0..256 {
            h = table[(h as usize) & 0xFFFF] ^ h.rotate_left(5);
        }
        table[r & 0xFFFF] = h;
    }
    std::hint::black_box((acc, h));
    thread_cpu_seconds() - t
}

/// How fast the host runs code right now, relative to the reference.
///
/// CPU time takes out time the hypervisor steals, but not how fast the
/// CPU runs while it is ours: on a shared host that moves by ±20–30%
/// within minutes (clock and cache contention from other tenants), and
/// the VM exposes no cycle counters. So the measuring thread runs a
/// fixed, benchmark-local reference loop between units of work, when
/// none of the program's own threads are running, and CPU-time metrics
/// are scaled by the median slowdown observed. The loop is not code
/// under test, so a change to the program cannot move it.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    /// Takes one sample: the fastest of three runs of the reference loop.
    pub fn sample(&mut self) {
        let s = (0..3)
            .map(|_| reference_loop())
            .fold(f64::INFINITY, f64::min);
        self.samples.push(s);
    }

    /// Median reference-loop time over the reference time: above 1 when
    /// the host runs slower than the reference.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        crate::stats::median(&self.samples) / REFERENCE_LOOP_S
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// Jiffy counters summed over all CPUs, from the first line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jiffies {
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// Idle and I/O-wait time: no vCPU wanted to run.
    pub idle: u64,
    /// All time.
    pub total: u64,
}

/// Reads the current [`Jiffies`].
pub fn jiffies() -> Jiffies {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    Jiffies {
        steal: at(7),
        idle: at(3) + at(4),
        total: fields.iter().sum(),
    }
}

/// Steal share of all CPU time between two [`jiffies`] readings.
pub fn steal_share(before: Jiffies, after: Jiffies) -> f64 {
    ratio(
        after.steal.saturating_sub(before.steal),
        after.total.saturating_sub(before.total),
    )
}

/// Steal share of the time the vCPUs wanted to run (busy or stolen)
/// between two [`jiffies`] readings: how much longer than its own CPU
/// time a busy thread took. Idle time is left out, so a core left idle
/// does not lower it.
pub fn steal_share_of_demand(before: Jiffies, after: Jiffies) -> f64 {
    let idle = after.idle.saturating_sub(before.idle);
    ratio(
        after.steal.saturating_sub(before.steal),
        after
            .total
            .saturating_sub(before.total)
            .saturating_sub(idle),
    )
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        (part as f64 / whole as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let t1 = cpu_seconds();
        assert!(t1 > t0, "{t0} -> {t1}");
    }

    fn at(steal: u64, idle: u64, total: u64) -> Jiffies {
        Jiffies { steal, idle, total }
    }

    #[test]
    fn steal_share_is_a_fraction() {
        assert_eq!(steal_share(at(10, 0, 1000), at(20, 0, 1100)), 0.1);
        assert_eq!(steal_share(at(10, 0, 1000), at(10, 0, 1000)), 0.0);
    }

    #[test]
    fn idle_time_does_not_dilute_the_steal_of_demand() {
        // 100 jiffies: 40 idle, 50 busy, 10 stolen. A busy thread lost 10
        // of every 60 jiffies it wanted, whatever the idle core did.
        let (b, a) = (at(0, 0, 0), at(10, 40, 100));
        assert_eq!(steal_share(b, a), 0.1);
        assert_eq!(steal_share_of_demand(b, a), 10.0 / 60.0);
        // Twice the idle time, same demand: the same share.
        assert_eq!(
            steal_share_of_demand(b, at(10, 80, 140)),
            steal_share_of_demand(b, a)
        );
    }
}
