//! Short scheduler slices for the serving threads.
//!
//! The serving threads share the node's cores with the co-located trainer (paper
//! Fig. 7). Linux's EEVDF scheduler runs the eligible task with the earliest virtual
//! deadline, and from Linux 6.12 a `SCHED_OTHER` thread can request a custom slice
//! through `sched_setattr`'s `sched_runtime`. A short slice gives a thread an early
//! deadline, so a serving thread woken by a request preempts the trainer in the middle
//! of a publication burst instead of waiting for the trainer's slice to run out. Weight
//! (the long-run CPU share) is untouched: policy and nice value stay as they were.
//!
//! Only the serving threads ask: the runtime's worker threads and the replica server's
//! event loop. The updater keeps the default slice.

use std::time::Duration;

/// The slice a serving thread requests: the smallest custom slice the kernel accepts.
pub const SERVING_SLICE: Duration = Duration::from_micros(100);

/// Request [`SERVING_SLICE`] for the calling thread, keeping its policy and nice
/// value. Best effort: a thread that is not `SCHED_OTHER`, a failed call or another
/// operating system leaves scheduling as it was. Kernels older than 6.12 accept the
/// call and ignore the slice. Returns whether the kernel accepted the request.
pub fn prefer_short_slice() -> bool {
    imp::request_slice(SERVING_SLICE)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::time::Duration;

    /// `struct sched_attr` at `SCHED_ATTR_SIZE_VER0` (48 bytes), as the kernel ABI
    /// defines it.
    #[repr(C)]
    #[derive(Debug, Default)]
    pub(super) struct SchedAttr {
        pub size: u32,
        pub sched_policy: u32,
        pub sched_flags: u64,
        pub sched_nice: i32,
        pub sched_priority: u32,
        pub sched_runtime: u64,
        pub sched_deadline: u64,
        pub sched_period: u64,
    }

    const SCHED_OTHER: u32 = 0;

    // The C library has no wrappers for these two calls, so they go through
    // `syscall(2)` with the per-architecture numbers.
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETATTR: i64 = 314;
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_GETATTR: i64 = 315;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETATTR: i64 = 274;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_GETATTR: i64 = 275;

    extern "C" {
        fn syscall(number: i64, ...) -> i64;
    }

    /// The calling thread's scheduling attributes, or `None` if the call fails.
    pub(super) fn current() -> Option<SchedAttr> {
        let mut attr = SchedAttr::default();
        // SAFETY: `attr` is a live, `repr(C)` 48-byte `sched_attr`, and the size passed
        // is its size, so the kernel writes at most that many bytes into it. Pid 0 is
        // the calling thread; every argument is passed as a full `long`.
        let rc = unsafe {
            syscall(
                SYS_SCHED_GETATTR,
                0i64,
                std::ptr::addr_of_mut!(attr),
                std::mem::size_of::<SchedAttr>() as i64,
                0i64,
            )
        };
        (rc == 0).then_some(attr)
    }

    pub(super) fn request_slice(slice: Duration) -> bool {
        let Some(mut attr) = current() else {
            return false;
        };
        if attr.sched_policy != SCHED_OTHER {
            return false;
        }
        attr.size = std::mem::size_of::<SchedAttr>() as u32;
        attr.sched_runtime = u64::try_from(slice.as_nanos()).unwrap_or(u64::MAX);
        // SAFETY: `attr` is a live, `repr(C)` 48-byte `sched_attr` whose `size` field
        // says so; the kernel only reads it. Pid 0 is the calling thread, and the
        // policy and nice value are the ones `sched_getattr` just returned.
        let rc = unsafe { syscall(SYS_SCHED_SETATTR, 0i64, std::ptr::addr_of!(attr), 0i64) };
        rc == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) fn request_slice(_slice: std::time::Duration) -> bool {
        false
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;

    #[test]
    fn short_slice_keeps_policy_and_nice() {
        // On a thread of its own, so the test harness's threads keep their slice.
        std::thread::spawn(|| {
            let before = imp::current().expect("sched_getattr on the calling thread");
            let accepted = prefer_short_slice();
            let after = imp::current().expect("sched_getattr on the calling thread");
            assert_eq!(after.sched_policy, before.sched_policy);
            assert_eq!(after.sched_nice, before.sched_nice);
            // Kernels from 6.12 report the custom slice back; older ones report 0.
            if accepted && after.sched_runtime != 0 {
                assert_eq!(u128::from(after.sched_runtime), SERVING_SLICE.as_nanos());
            }
        })
        .join()
        .expect("slice thread panicked");
    }
}
