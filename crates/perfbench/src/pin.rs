//! Pin the benchmark to one CPU before any thread starts, so every
//! thread it spawns (the in-process server's too) inherits the mask.
//!
//! On a small VM, waking a thread on another vCPU costs an
//! inter-processor interrupt whose latency follows the host's load. On
//! a 2-vCPU Xeon VM, serve-hot's closed loop ran 2,200–3,500 requests/s
//! with p99 1–2.3 ms when client and server threads could spread over
//! both vCPUs, switching between regimes mid-run, and 4,000–4,800
//! requests/s with p99 0.4–0.5 ms pinned to one. Each workload has one
//! busy thread at a time, so pinning costs no parallelism.

/// Restrict this thread to the lowest CPU it may run on; returns that
/// CPU, or `None` where affinity is unavailable.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's cpu_set_t: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
