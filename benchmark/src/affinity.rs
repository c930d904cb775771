//! Pinning the measuring thread to one CPU.
//!
//! On a small virtual machine the CPUs need not run at the same speed: a
//! vCPU that shares its core with a busy neighbour, or takes the host's
//! interrupts, can run this program's allocation-heavy rounds a third
//! slower. A single-threaded measurement that the scheduler places on one
//! CPU in one run and on another in the next then jumps between two
//! levels. The benchmark therefore runs its single-threaded work on one
//! fixed CPU (the highest-numbered one it may use) and hands the whole
//! set back only around the parallel executor's runs.

/// The thread's allowed CPU set and the single CPU it is pinned to.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    #[cfg(target_os = "linux")]
    all: sys::CpuSet,
    cpu: Option<usize>,
}

impl Pin {
    /// Pin the calling thread to the highest-numbered CPU it may use. If
    /// the platform offers no affinity call, or it fails, nothing is
    /// pinned and [`Pin::cpu`] is `None`.
    pub fn highest() -> Self {
        #[cfg(target_os = "linux")]
        {
            let all = sys::get().unwrap_or([0; sys::WORDS]);
            let cpu = sys::highest(&all).filter(|&c| sys::set(&sys::only(c)));
            Pin { all, cpu }
        }
        #[cfg(not(target_os = "linux"))]
        Pin { cpu: None }
    }

    /// The CPU the thread is pinned to, if any.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }

    /// Run `f` with the thread's whole CPU set restored, so the threads
    /// a parallel executor spawns may use every CPU; pin again after.
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        #[cfg(target_os = "linux")]
        if let Some(cpu) = self.cpu {
            sys::set(&self.all);
            let out = f();
            sys::set(&sys::only(cpu));
            return out;
        }
        f()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words in glibc's `cpu_set_t` (1024 CPUs).
    pub const WORDS: usize = 16;
    pub type CpuSet = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's allowed CPU set.
    pub fn get() -> Option<CpuSet> {
        let mut mask: CpuSet = [0; WORDS];
        // SAFETY: pid 0 names the calling thread; `mask` is a live,
        // writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    /// Restrict the calling thread to `mask`; false if the call failed.
    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: pid 0 names the calling thread; `mask` is a live buffer
        // of exactly the size passed, which the call only reads.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    pub fn highest(mask: &CpuSet) -> Option<usize> {
        (0..WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut mask: CpuSet = [0; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}
