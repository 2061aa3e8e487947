//! How fast the host runs during a run, measured with a fixed reference
//! computation of the benchmark's own.
//!
//! The reference host is a shared VM. What other tenants run on the same
//! hardware slows its CPUs by up to 1.4x, in spells of seconds to many
//! minutes, so two runs of the same code a few minutes apart can differ by
//! a fifth, and the two workloads slow together. Every second of a
//! measured phase the load pauses, and a reference computation that never
//! calls into the library runs a few times on each CPU; the fastest run's
//! CPU time per CPU is recorded. The run's slowdown is the median of these
//! times over [`NOMINAL_NS`], and the end-to-end figures are divided by it
//! (rates multiplied), so that they read as on the reference host at its
//! usual speed. A change to the program moves the scaled figures exactly
//! as it moves the raw ones; the raw figures and every probe are printed
//! beside them.

use std::hint::black_box;
use std::time::Duration;

use crate::cpus::Cpus;
use crate::stats::median_u64;

/// Median probe on the reference host (2-vCPU VM, Xeon model 207) over
/// the runs of both workloads: a slowdown of 1.
pub const NOMINAL_NS: f64 = 50_000.0;

/// How often a measured phase pauses to probe.
pub const EVERY: Duration = Duration::from_secs(1);
/// Runs of the reference per CPU and probe; the fastest counts, so the
/// first run warms the caches and a run an interrupt hit is dropped.
const REPS: usize = 3;
/// Iterations of one run (about 30 µs at full speed).
const ITERS: usize = 4096;
/// Words of the table the computation reads and writes (256 KiB).
const TABLE: usize = 1 << 15;

/// CPU time the calling thread has used, in ns.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable timespec and the clock always exists.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere wall time stands in for CPU time.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The probes of one measured phase, and the reference computation: a
/// pseudo-random walk over a table with a logarithm per step.
pub struct HostSpeed {
    cpus: Cpus,
    table: Vec<u64>,
    state: u64,
    probes: Vec<u64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        Self {
            cpus: Cpus::of_this_thread(),
            table: (0..TABLE as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            probes: Vec::new(),
        }
    }

    /// CPU time of one run of the reference, in ns.
    fn run(&mut self) -> u64 {
        let t0 = thread_cpu_ns();
        let mut x = self.state;
        let mut acc = 0.0f64;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (TABLE - 1);
            let v = self.table[j].wrapping_add(x);
            self.table[j] = v;
            acc += ((v >> 11) as f64 + 1.0).ln();
        }
        self.state = x ^ acc.to_bits();
        black_box(&self.table);
        thread_cpu_ns() - t0
    }

    /// Records the fastest of `REPS` runs on each CPU the thread may use.
    /// Call it while no query is in flight; it leaves the calling thread
    /// free to run on every CPU.
    pub fn probe(&mut self) {
        for k in 0..self.cpus.count().max(1) {
            self.cpus.pin(k);
            let fastest = (0..REPS).map(|_| self.run()).min();
            self.probes.extend(fastest);
        }
        self.cpus.unpin();
    }

    /// The run's slowdown against [`NOMINAL_NS`] (1 before any probe).
    pub fn slowdown(&self) -> f64 {
        if self.probes.is_empty() {
            1.0
        } else {
            median_u64(&self.probes) / NOMINAL_NS
        }
    }

    pub fn probes(&self) -> &[u64] {
        &self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_times_every_cpu_and_sets_the_slowdown() {
        let mut h = HostSpeed::new();
        assert_eq!(h.slowdown(), 1.0);
        h.probe();
        assert_eq!(h.probes().len(), h.cpus.count().max(1));
        assert!(h.probes().iter().all(|&ns| ns > 0));
        assert!(h.slowdown() > 0.0);
    }
}
