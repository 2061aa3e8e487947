//! Moving the calling thread between the CPUs it may run on.
//!
//! On a shared host each CPU is slowed on its own, for seconds to minutes,
//! by whatever its hardware siblings run. A one-thread workload that stays
//! on one CPU sees only that CPU's spells; moving it to the next CPU window
//! by window lets its figures see every CPU, as the many-threaded workloads
//! do. Linux only (`sched_getaffinity`/`sched_setaffinity` from the C
//! library std already links); elsewhere the thread is never moved.

/// Words of the CPU mask: 1024 CPUs, glibc's `cpu_set_t`.
#[cfg(target_os = "linux")]
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, and its mask to restore.
pub struct Cpus {
    #[cfg(target_os = "linux")]
    original: [u64; WORDS],
    allowed: Vec<usize>,
}

impl Cpus {
    /// The calling thread's allowed CPUs (none where they cannot be read).
    #[cfg(target_os = "linux")]
    pub fn of_this_thread() -> Self {
        let mut original = [0u64; WORDS];
        // SAFETY: the mask is `WORDS` writable words and its size is passed.
        let ok = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr())
        } == 0;
        let allowed = if ok {
            (0..WORDS * 64)
                .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Self { original, allowed }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn of_this_thread() -> Self {
        Self {
            allowed: Vec::new(),
        }
    }

    /// How many CPUs the thread is moved over (0 or 1: it never moves).
    pub fn count(&self) -> usize {
        self.allowed.len()
    }

    /// Moves the calling thread to the `k`-th allowed CPU (mod their
    /// number); a no-op with fewer than two.
    pub fn pin(&self, k: usize) {
        if self.allowed.len() < 2 {
            return;
        }
        #[cfg(target_os = "linux")]
        {
            let cpu = self.allowed[k % self.allowed.len()];
            let mut mask = [0u64; WORDS];
            mask[cpu / 64] |= 1 << (cpu % 64);
            self.set(&mask);
        }
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn unpin(&self) {
        #[cfg(target_os = "linux")]
        if self.allowed.len() >= 2 {
            self.set(&self.original);
        }
    }

    #[cfg(target_os = "linux")]
    fn set(&self, mask: &[u64; WORDS]) {
        // SAFETY: the mask is `WORDS` readable words and its size is passed.
        // A refusal leaves the thread where it was, which is harmless.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_keeps_the_thread_on_an_allowed_cpu_and_unpin_restores_it() {
        let cpus = Cpus::of_this_thread();
        for k in 0..cpus.count() * 2 {
            cpus.pin(k);
        }
        cpus.unpin();
        assert_eq!(Cpus::of_this_thread().allowed, cpus.allowed);
    }
}
