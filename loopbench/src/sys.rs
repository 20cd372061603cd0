//! Operating-system probes the benchmark needs and the standard library lacks: a
//! counting global allocator, per-thread CPU clocks, timer slack, and peak RSS.
//!
//! Everything here is Linux-specific and talks to the C library the Rust runtime
//! already links, so the benchmark needs no extra crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus a running total of bytes requested.
///
/// `engine.snapshot_alloc_mb` is the difference of [`allocated_bytes`] around one
/// `ServingNode::snapshot` call made while no other thread runs, so it is an exact
/// count that repeats run to run, not a timing.
pub struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments unchanged, so
// `System`'s guarantees carry over; the only addition is a relaxed counter update,
// which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`) for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested from the allocator since the process started (growth only;
/// frees are not subtracted).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn gettid() -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Ask the kernel to wake this thread's sleeps within 1 ns of their deadline instead
/// of the default 50 µs slack, so a sleeping generator sends close to on time.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and touches no
    // memory of ours; a failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// The kernel thread id of the one thread of this process whose name is `name`.
///
/// # Errors
///
/// Returns a message when no thread or more than one thread has that name.
pub fn thread_id_named(name: &str) -> Result<u32, String> {
    let mut found = Vec::new();
    let tasks = std::fs::read_dir("/proc/self/task").map_err(|e| e.to_string())?;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            if let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) {
                found.push(tid);
            }
        }
    }
    match found.as_slice() {
        [tid] => Ok(*tid),
        [] => Err(format!("no thread named {name}")),
        _ => Err(format!("{} threads named {name}", found.len())),
    }
}

/// CPU time in nanoseconds consumed so far by thread `tid` of this process.
///
/// # Errors
///
/// Returns a message when the thread has exited or the clock cannot be read.
pub fn thread_cpu_ns(tid: u32) -> Result<u64, String> {
    // The kernel's per-thread scheduler clock id: MAKE_THREAD_CPUCLOCK(tid,
    // CPUCLOCK_SCHED), the same encoding `pthread_getcpuclockid` returns.
    let clock = ((!tid) << 3) as i32 | 6;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Err(format!("clock_gettime failed for thread {tid}"));
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Time the host has taken from this VM's CPUs, summed over CPUs, in the kernel's
/// 10 ms ticks (the `steal` column of `/proc/stat`); 0 where it is not reported.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MB (10^6 bytes), from `VmHWM`.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// The kernel thread id of the calling thread.
pub fn own_tid() -> u32 {
    // SAFETY: gettid takes no arguments, touches no memory and cannot fail.
    let tid = unsafe { gettid() };
    tid as u32
}
