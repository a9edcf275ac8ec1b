//! The closed-loop timed phase every workload shares, and the summary
//! statistics it reports.

use crate::procfs;
use crate::trace;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why an op did not count as a success.
pub enum OpError {
    /// A wrong answer, violated constraint, error frame or shed: counted
    /// in `failed`, and the run goes on.
    Failed(String),
    /// The op cannot be retried (lost connection, unreadable file): the
    /// run stops.
    Fatal(String),
}

/// Windows a phase is cut into (at cycle boundaries) for its medians.
const WINDOWS: f64 = 10.0;

/// One window of a phase: its first op (index within the phase), ops
/// dispensed, and wall seconds.
struct Window {
    first: usize,
    ops: usize,
    wall_s: f64,
}

/// What the timed phase measured.
pub struct Timed {
    /// Per-op latency in ms by op index within the phase; NaN for a
    /// failed op.
    lat_ms: Vec<f64>,
    /// Ops attempted (whole cycles).
    pub attempted: usize,
    /// Ops that failed a check.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub wall_s: f64,
    /// CPU seconds of the measured process over the phase.
    pub cpu_s: f64,
    /// Host steal seconds over the phase, summed over CPUs.
    pub steal_s: f64,
    windows: Vec<Window>,
}

impl Timed {
    /// Median over the phase's windows of ops per wall second, so a
    /// burst of host steal in a few windows does not move it.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.ops as f64 / w.wall_s)
            .collect();
        median(&rates)
    }

    /// Median over the phase's windows of each window's nearest-rank
    /// `p`-th percentile op latency (failed ops have none).
    pub fn latency_ms(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| {
                let ops = &self.lat_ms[w.first..w.first + w.ops];
                percentile(
                    &ops.iter()
                        .copied()
                        .filter(|l| !l.is_nan())
                        .collect::<Vec<_>>(),
                    p,
                )
            })
            .collect();
        median(&per_window)
    }

    /// Latencies of the ops that succeeded.
    pub fn latencies(&self) -> Vec<f64> {
        self.lat_ms
            .iter()
            .copied()
            .filter(|l| !l.is_nan())
            .collect()
    }

    /// CPU milliseconds per op over the whole phase (`/proc` counts CPU
    /// in 10 ms ticks, too coarse for one window).
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1000.0 / self.attempted as f64
    }

    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    pub fn steal_frac(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.steal_s / (self.wall_s * cpus as f64)
    }
}

/// Hands out op indices in order and stops at the first cycle boundary
/// reached after the time limit, so a phase is always whole cycles.
/// Windows also close at cycle boundaries, once they are at least
/// `1 / WINDOWS` of the phase long.
struct Dispenser {
    start: usize,
    next: usize,
    stop: bool,
    /// Start of the open window: op index and wall clock.
    open: (usize, Instant),
    windows: Vec<Window>,
}

impl Dispenser {
    fn close_window(&mut self, now: Instant) {
        let (ops0, t0) = self.open;
        if self.next > ops0 {
            self.windows.push(Window {
                first: ops0 - self.start,
                ops: self.next - ops0,
                wall_s: (now - t0).as_secs_f64(),
            });
        }
        self.open = (self.next, now);
    }
}

/// Runs whole cycles of `cycle` ops on `threads` closed-loop threads for
/// at least `seconds`. `op(thread, index)` performs op `index` (its
/// position in the cycle is `index % cycle`) and returns its latency in
/// ms; indices start at `start`, a multiple of `cycle`, so a later phase
/// can continue where an earlier one stopped. CPU time is read from
/// process `pid`.
pub fn run<F>(
    threads: usize,
    cycle: usize,
    start: usize,
    seconds: f64,
    pid: u32,
    op: F,
) -> Result<Timed, String>
where
    F: Fn(usize, usize) -> Result<f64, OpError> + Sync,
{
    let limit = Duration::from_secs_f64(seconds);
    let window = Duration::from_secs_f64(seconds / WINDOWS);
    let cpu0 = procfs::cpu_s(pid)?;
    let steal0 = procfs::steal_s()?;
    let t0 = Instant::now();
    let dispenser = Mutex::new(Dispenser {
        start,
        next: start,
        stop: false,
        open: (start, t0),
        windows: Vec::new(),
    });
    let dispense = || -> Option<usize> {
        let mut d = dispenser.lock().expect("dispenser lock");
        if d.stop {
            return None;
        }
        if d.next.is_multiple_of(cycle) && d.next > start {
            let now = Instant::now();
            if now - t0 >= limit {
                d.stop = true;
                return None;
            }
            if now - d.open.1 >= window {
                d.close_window(now);
            }
        }
        d.next += 1;
        Some(d.next - 1)
    };
    // One load thread's loop: latencies, failures, and a fatal error.
    let worker = |tid: usize| {
        let (mut lat, mut failed, mut msgs) = (Vec::new(), 0, Vec::new());
        while let Some(i) = dispense() {
            let root = trace::open_op();
            let r = op(tid, i);
            trace::close(root, 0, 0);
            match r {
                Ok(ms) => lat.push((i - start, ms)),
                Err(OpError::Failed(m)) => {
                    failed += 1;
                    if msgs.len() < 5 {
                        msgs.push(m);
                    }
                }
                Err(OpError::Fatal(m)) => {
                    dispenser.lock().expect("dispenser lock").stop = true;
                    return (lat, failed, msgs, Some(m));
                }
            }
        }
        (lat, failed, msgs, None)
    };
    // A single loop runs on the calling thread, which set up the
    // workload's state: its allocations stay in one malloc arena, so
    // the peak RSS does not depend on thread scheduling.
    let outs: Vec<_> = if threads == 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| s.spawn(move || worker(tid)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        })
    };
    let end = Instant::now();
    let cpu1 = procfs::cpu_s(pid)?;
    let steal_s = procfs::steal_s()? - steal0;
    let mut d = dispenser.into_inner().expect("dispenser lock");
    d.close_window(end);
    let mut timed = Timed {
        lat_ms: vec![f64::NAN; d.next - start],
        attempted: d.next - start,
        failed: 0,
        failures: Vec::new(),
        wall_s: (end - t0).as_secs_f64(),
        cpu_s: cpu1 - cpu0,
        steal_s,
        windows: d.windows,
    };
    for (lat, failed, msgs, fatal) in outs {
        if let Some(m) = fatal {
            return Err(m);
        }
        for (i, ms) in lat {
            timed.lat_ms[i] = ms;
        }
        timed.failed += failed;
        timed.failures.extend(msgs);
    }
    Ok(timed)
}

/// Nearest-rank percentile of unsorted samples (0 for no samples).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A 64-bit mix of a seed and a label (SplitMix64 finalizer over an
/// FNV-1a fold), so each workload and op draws its own seed.
pub fn mix(seed: u64, label: &str, k: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.bytes().chain(k.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn phase_runs_whole_cycles() {
        let _serial = trace::TEST_LOCK.lock().expect("test lock");
        let t = run(2, 7, 14, 0.01, std::process::id(), |_, i| {
            assert!(i >= 14);
            Ok(0.1)
        })
        .unwrap();
        assert!(t.attempted >= 7 && t.attempted % 7 == 0, "{}", t.attempted);
        assert_eq!(t.latencies().len(), t.attempted);
        assert_eq!(t.latency_ms(50.0), 0.1);
    }
}
