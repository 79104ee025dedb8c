//! The benchmark's one measurement helper: host on-CPU time, peak
//! resident memory, and percentiles that carry their sample count.
//!
//! On-CPU time is the calling thread's scheduler ledger
//! (`sum_exec_runtime`). The run-to-completion engine executes every
//! simulated process as a fiber on the calling thread, so deltas of this
//! clock price exactly the simulation's work and exclude time spent
//! preempted by other load on the host. The ledger is read with
//! `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which adds the running slice
//! and so resolves nanoseconds. `/proc/thread-self/schedstat` exposes the
//! same ledger but, for a thread that is running, only as of the last
//! scheduler tick: it advances in 4 ms steps on a 250 Hz kernel, which
//! quantised a 30 ms set-up into 28, 32 or 36 ms. Where the thread clock
//! is unavailable the helper falls back to wall-clock time and says so:
//! [`Clock::label`] is printed with every result.

use std::time::Instant;

/// Which clock a [`CostTimer`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The thread's on-CPU nanoseconds ([`thread_cpu_nanos`]).
    ThreadCpu,
    /// Wall-clock time: the fallback where the thread clock is unavailable.
    Wall,
}

impl Clock {
    /// The clock this host supports, probed once.
    pub fn detect() -> Clock {
        if thread_cpu_nanos().is_some() {
            Clock::ThreadCpu
        } else {
            Clock::Wall
        }
    }

    /// How results measured on this clock are labelled.
    pub fn label(self) -> &'static str {
        match self {
            Clock::ThreadCpu => "thread-cpu",
            Clock::Wall => "wall (fallback)",
        }
    }
}

/// A started cost measurement on one [`Clock`].
#[derive(Debug, Clone, Copy)]
pub struct CostTimer {
    clock: Clock,
    cpu0: u64,
    wall0: Instant,
}

impl CostTimer {
    /// Starts measuring on `clock`.
    pub fn start(clock: Clock) -> CostTimer {
        CostTimer {
            clock,
            cpu0: read_cpu(clock),
            wall0: Instant::now(),
        }
    }

    /// Seconds of cost since [`start`](Self::start).
    pub fn seconds(&self) -> f64 {
        match self.clock {
            Clock::ThreadCpu => (read_cpu(self.clock) - self.cpu0) as f64 * 1e-9,
            Clock::Wall => self.wall0.elapsed().as_secs_f64(),
        }
    }
}

fn read_cpu(clock: Clock) -> u64 {
    match clock {
        Clock::ThreadCpu => thread_cpu_nanos().expect("the thread clock worked when detected"),
        Clock::Wall => 0,
    }
}

/// On-CPU nanoseconds of the calling thread from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. `None` off 64-bit Linux or
/// on error.
pub fn thread_cpu_nanos() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) that outlives the call, and the clock id
        // is the kernel's constant for the calling thread's CPU clock.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return None;
        }
        Some(u64::try_from(ts.tv_sec).ok()? * 1_000_000_000 + u64::try_from(ts.tv_nsec).ok()?)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Hands freed heap memory back to the kernel (glibc's `malloc_trim`), so
/// the next set-up pays for its memory as a fresh process does instead of
/// reusing pages a dropped machine left behind. A no-op elsewhere.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes a plain byte count, touches only the
        // allocator's own free lists, and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs `f` and returns its value with its cost in seconds on `clock`.
pub fn time_cost<T>(clock: Clock, f: impl FnOnce() -> T) -> (T, f64) {
    let timer = CostTimer::start(clock);
    let value = f();
    (value, timer.seconds())
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of a non-empty sample (the mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentiles of a latency sample, with its size.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentiles {
    sorted: Vec<u64>,
}

impl Percentiles {
    /// Collects `samples` (nanoseconds).
    pub fn new(mut samples: Vec<u64>) -> Percentiles {
        samples.sort_unstable();
        Percentiles { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile (0 < q ≤ 1) by nearest rank, in nanoseconds; zero
    /// for an empty sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// How many samples rank after the `q`-quantile's sample — the
    /// support behind a tail percentile (report it only when this is at
    /// least ten).
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted.len() - rank.min(self.sorted.len())
    }

    /// The `q`-quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) as f64 * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_count_their_support() {
        let p = Percentiles::new((1..=1000).rev().collect());
        assert_eq!(p.count(), 1000);
        assert_eq!(p.quantile(0.5), 500);
        assert_eq!(p.quantile(0.99), 990);
        assert_eq!(p.quantile(0.999), 999);
        assert_eq!(p.beyond(0.99), 10);
        assert_eq!(Percentiles::new(vec![]).quantile(0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cost_clock_advances_with_work() {
        let clock = Clock::detect();
        let (sum, secs) = time_cost(clock, || {
            (0..2_000_000u64).map(std::hint::black_box).sum::<u64>()
        });
        assert!(sum > 0);
        assert!(secs >= 0.0);
        assert!(peak_rss_mb().is_none_or(|mb| mb > 0.0));
    }
}
