//! A minimal epoll readiness layer — the hand-rolled subset of mio this tier needs.
//!
//! crates.io is unreachable in the build environment, so there is no tokio and no mio;
//! what the event-loop server ([`crate::server`]) actually requires is tiny: register
//! file descriptors for read/write interest, block until some are ready, and be wakeable
//! from another thread. [`Poller`] wraps `epoll_create1`/`epoll_ctl`/`epoll_wait` and
//! [`Waker`] wraps an `eventfd`, both through direct `extern "C"` declarations against
//! the C library the Rust standard library already links — no new dependency, no raw
//! syscall numbers to keep per-architecture.
//!
//! Design choices, made for the serving event loop and worth keeping:
//!
//! * **Level-triggered** (no `EPOLLET`): a readiness the loop does not fully drain is
//!   simply reported again, so a bounded read per wakeup can never strand bytes — the
//!   failure mode edge-triggered loops must code around.
//! * **Tokens, not pointers**: registrations carry a caller-chosen `u64` token in
//!   `epoll_data`, so the loop maps events back to connections through a plain map and
//!   the unsafe surface stays confined to this module.
//! * **One waker fd per loop**: cross-thread nudges (worker replies ready, shutdown)
//!   write the eventfd; the loop observes the token and drains it. `eventfd` coalesces
//!   any number of pending wakes into one readable event, which is exactly the
//!   semantics a "you have mail" doorbell wants.
//!
//! * **Hangup is readable, not an error**: a socket that shut its own write side and
//!   then receives the peer's FIN reports `EPOLLHUP` while the peer's last bytes may
//!   still be buffered. Mapping it to `readable` sends the caller down its read path,
//!   which drains those bytes before it sees EOF; only `EPOLLERR` means they are lost.
//!
//! Everything here is `linux`-only (the repo's target per `ROADMAP.md`), and the
//! event-loop server needs it: without epoll a replica does not start.

use std::io;
use std::os::unix::io::RawFd;

/// `epoll_event` as the kernel ABI defines it. On x86-64 the kernel declares the struct
/// packed (a 12-byte layout); on every other architecture it has natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// The descriptor has bytes to read (or a pending accept), or the peer closed
    /// (`EPOLLRDHUP`/`EPOLLHUP`; buffered bytes are still readable before the EOF).
    pub readable: bool,
    /// The descriptor's send buffer has room.
    pub writable: bool,
    /// Socket error (`EPOLLERR`) — the connection is dead regardless of buffered data.
    pub error: bool,
}

/// What to watch a descriptor for. Hangup and error conditions are always reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Watch for readability (`EPOLLIN` | `EPOLLRDHUP`).
    pub readable: bool,
    /// Watch for writability (`EPOLLOUT`).
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — armed while a connection has unflushed outbound bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut events = 0;
        if self.readable {
            events |= ffi::EPOLLIN | ffi::EPOLLRDHUP;
        }
        if self.writable {
            events |= ffi::EPOLLOUT;
        }
        events
    }
}

mod ffi {
    //! The exact C-library surface this module consumes. Declared by hand instead of
    //! pulling in the `libc` crate (unavailable offline); signatures match the Linux
    //! man-pages, and `std` already links the symbols.
    #![allow(non_camel_case_types)]

    pub type c_int = i32;
    pub type c_uint = u32;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(
            epfd: c_int,
            op: c_int,
            fd: c_int,
            event: *mut super::RawEpollEvent,
        ) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut super::RawEpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// A readiness selector over raw file descriptors: the `epoll` instance plus the event
/// buffer one `wait` call fills.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    events: Vec<Event>,
}

impl Poller {
    /// Create an epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The `epoll_create1` errno as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: `epoll_create1` takes no pointers; any flag value is either accepted
        // or rejected with an errno, checked below.
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            events: Vec::new(),
        })
    }

    fn ctl(&self, op: ffi::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = RawEpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid-out (`repr(C)`, packed on x86-64 to
        // match the kernel ABI) stack value for the duration of the call; the kernel
        // only reads it. Bad fds are rejected with an errno, checked below.
        let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` with `interest`; events report back `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno as an [`io::Error`].
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Change the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno as an [`io::Error`].
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Stop watching `fd`. Safe to call for descriptors about to be closed; a kernel
    /// that already dropped the registration (closed fd) reports an error the caller
    /// may ignore.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno as an [`io::Error`].
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one registered descriptor is ready or `timeout_ms`
    /// milliseconds pass (`None` = wait forever), then return the readiness reports.
    /// A premature `EINTR` wakeup returns an empty slice rather than an error.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` errno (other than `EINTR`) as an [`io::Error`].
    pub fn wait(&mut self, timeout_ms: Option<i32>) -> io::Result<&[Event]> {
        let mut events = std::mem::take(&mut self.events);
        let res = self.wait_into(timeout_ms, &mut events);
        self.events = events;
        res?;
        Ok(&self.events)
    }

    /// Like [`Poller::wait`], but fills a caller-owned buffer (cleared first) instead of
    /// borrowing the poller's own. Event loops hoist the buffer outside their `while`
    /// so the steady-state poll performs no allocation once the buffer has grown to its
    /// high-water mark, and the poller itself stays free to borrow during dispatch.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` errno (other than `EINTR`) as an [`io::Error`].
    pub fn wait_into(&self, timeout_ms: Option<i32>, out: &mut Vec<Event>) -> io::Result<()> {
        const MAX_EVENTS: usize = 256;
        out.clear();
        let mut raw = [RawEpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: `raw` is a live stack array of MAX_EVENTS properly laid-out ABI
        // structs and `maxevents` tells the kernel exactly that capacity, so the write
        // stays in bounds; `n` is the count of initialized entries, checked below.
        let n = unsafe {
            ffi::epoll_wait(
                self.epfd,
                raw.as_mut_ptr(),
                MAX_EVENTS as ffi::c_int,
                timeout_ms.unwrap_or(-1),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &raw[..n as usize] {
            // Copy out of the (possibly packed) ABI struct before touching fields.
            let RawEpollEvent { events, data } = *ev;
            out.push(Event {
                token: data,
                readable: events & (ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLHUP) != 0,
                writable: events & ffi::EPOLLOUT != 0,
                error: events & ffi::EPOLLERR != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was returned by a successful `epoll_create1` in `new` and is
        // closed exactly once, here; no other close path exists.
        unsafe {
            ffi::close(self.epfd);
        }
    }
}

/// A cross-thread doorbell for a [`Poller`]: an `eventfd` registered in the loop.
/// Any thread may [`Waker::wake`]; the loop sees its token readable and [`Waker::drain`]s.
/// Multiple wakes before a drain coalesce into one event.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

// SAFETY: a `Waker` is just an owned eventfd descriptor; moving it between threads
// moves only the integer, and the fd stays valid until `Drop` closes it.
unsafe impl Send for Waker {}
// SAFETY: concurrent `wake`/`drain` calls are independent 8-byte eventfd syscalls the
// kernel serializes; the struct holds no other mutable state to race on.
unsafe impl Sync for Waker {}

impl Waker {
    /// Create the eventfd (non-blocking, close-on-exec).
    ///
    /// # Errors
    ///
    /// The `eventfd` errno as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: `eventfd` takes no pointers; invalid flags are rejected with an
        // errno, checked below.
        let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    /// The descriptor to register in the owning [`Poller`] (read interest).
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell. Failure is ignored by design: the only writer errors are a
    /// full counter (the loop is already signalled harder than it needs) or a torn-down
    /// loop (nobody is left to wake).
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: the buffer is a live 8-byte stack array and the count passed matches
        // its length exactly; `fd` is owned by `self` and open until `Drop`.
        unsafe {
            ffi::write(self.fd, one.to_ne_bytes().as_ptr(), 8);
        }
    }

    /// Clear pending wakes so the next [`Poller::wait`] blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: the buffer is a live 8-byte stack array and the count passed matches
        // its length exactly; eventfd reads write at most 8 bytes.
        unsafe {
            ffi::read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` was returned by a successful `eventfd` in `new` and is closed
        // exactly once, here; no other close path exists.
        unsafe {
            ffi::close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readiness_reports_reads_writes_and_hangup() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(b.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: a zero-timeout wait reports no events.
        assert!(poller.wait(Some(0)).unwrap().is_empty());

        a.write_all(b"ping").unwrap();
        let events = poller.wait(Some(1000)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].writable);

        // Write interest on an idle socket reports writable immediately.
        poller
            .modify(b.as_raw_fd(), 7, Interest::READ_WRITE)
            .unwrap();
        let events = poller.wait(Some(1000)).unwrap().to_vec();
        assert!(events.iter().any(|e| e.writable));

        // Peer hangup surfaces as readable (EOF) on a read-interest registration.
        let mut buf = [0u8; 4];
        let mut c = &b;
        c.read_exact(&mut buf).unwrap();
        poller.modify(b.as_raw_fd(), 7, Interest::READ).unwrap();
        drop(a);
        let events = poller.wait(Some(1000)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Both directions shut (EPOLLHUP) is still readable, not an error: bytes
        // buffered before the hangup must be read, not dropped.
        b.shutdown(std::net::Shutdown::Write).unwrap();
        let events = poller.wait(Some(1000)).unwrap();
        assert!(events
            .iter()
            .any(|e| e.token == 7 && e.readable && !e.error));

        poller.delete(b.as_raw_fd()).unwrap();
        assert!(poller.wait(Some(0)).unwrap().is_empty());
    }

    #[test]
    fn waker_unblocks_a_waiting_poller_from_another_thread() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 1, Interest::READ).unwrap();

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces with the first
        });
        let started = Instant::now();
        let events = poller.wait(Some(5000)).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the wake cut the wait short"
        );
        handle.join().unwrap();

        // Draining clears the doorbell; the next zero-timeout wait is quiet.
        waker.drain();
        assert!(poller.wait(Some(0)).unwrap().is_empty());
    }

    #[test]
    fn timeout_elapses_without_events() {
        let mut poller = Poller::new().unwrap();
        let started = Instant::now();
        assert!(poller.wait(Some(20)).unwrap().is_empty());
        assert!(started.elapsed() >= Duration::from_millis(15));
    }
}
