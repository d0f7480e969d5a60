//! Moving the benchmark between the CPUs it may run on.
//!
//! Other tenants of a shared host slow one vCPU at a time more often than
//! all of them at once: two pinned copies of the same loop, run side by
//! side on a 2-vCPU VM, had their slow stretches of seconds mostly at
//! different times. The timed run therefore pins each replay to the next
//! allowed CPU in turn, so every step is timed on each of them, and its
//! fastest time needs only one quiet CPU.

/// Round-robin pinning over the CPUs the process was allowed at start;
/// the original set is restored on drop.
pub struct CpuRotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// The allowed CPUs of this process; none (so no pinning) when they
    /// cannot be read.
    pub fn new() -> CpuRotation {
        let allowed = sys::get().unwrap_or_default();
        let cpus = allowed.cpus();
        CpuRotation {
            allowed,
            cpus,
            next: 0,
        }
    }

    /// The CPUs the rotation pins to, in turn.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Pins the process to the next CPU in turn. Returns the CPU, or
    /// `None` when there is nothing to rotate over or pinning failed (the
    /// run then goes on wherever the scheduler puts it).
    pub fn advance(&mut self) -> Option<usize> {
        if self.cpus.len() < 2 {
            return None;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        sys::set(&CpuSet::only(cpu)).then_some(cpu)
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            sys::set(&self.allowed);
        }
    }
}

/// Words of a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// A CPU mask in the kernel's layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CpuSet([u64; MASK_WORDS]);

impl CpuSet {
    fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet::default();
        if cpu < MASK_WORDS * 64 {
            set.0[cpu / 64] |= 1 << (cpu % 64);
        }
        set
    }

    fn cpus(&self) -> Vec<usize> {
        (0..MASK_WORDS * 64)
            .filter(|&cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;
    use std::mem::size_of;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's allowed CPUs.
    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet::default();
        // SAFETY: the mask pointer is valid for `size_of::<CpuSet>()`
        // writable bytes for the duration of the call; pid 0 is the calling
        // thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Restricts the calling thread to `set`; false if the kernel refused.
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: the mask pointer is valid for `size_of::<CpuSet>()`
        // readable bytes for the duration of the call; pid 0 is the calling
        // thread.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.0.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip_cpu_numbers() {
        assert_eq!(CpuSet::only(0).cpus(), vec![0]);
        assert_eq!(CpuSet::only(67).cpus(), vec![67]);
        assert_eq!(CpuSet::only(MASK_WORDS * 64).cpus(), Vec::<usize>::new());
    }

    #[test]
    fn rotation_visits_each_allowed_cpu_and_restores_the_set() {
        let before = sys::get();
        let mut rotation = CpuRotation::new();
        let cpus = rotation.cpus().to_vec();
        if cpus.len() >= 2 {
            for &cpu in &cpus {
                assert_eq!(rotation.advance(), Some(cpu));
                assert_eq!(sys::get(), Some(CpuSet::only(cpu)));
            }
        }
        drop(rotation);
        assert_eq!(sys::get(), before);
    }
}
