//! A minimal OS readiness-polling shim — the mechanism under the
//! event-driven [`Listener`](crate::Listener).
//!
//! On Linux this is epoll through raw `extern "C"` declarations (the
//! symbols live in the libc that `std` already links, so no new crate
//! dependency); elsewhere on unix it falls back to `poll(2)`, rebuilding
//! the pollfd array from a registration table per wait. Both backends are
//! **level-triggered**: a socket with unread input (or unflushed output
//! interest) keeps reporting ready until it is drained, which is the
//! forgiving semantics the connection state machines are written against.
//! Test builds compile the `poll(2)` backend on Linux too, so its `unsafe`
//! call is built, linted and run against the same tests as epoll.
//!
//! The module is public so that load generators (`bench_net` drives
//! thousands of client sockets from two threads with it) and tests can
//! reuse the shim instead of spawning a thread per socket — but it is an
//! implementation detail of this crate, not a stable, general-purpose
//! polling API.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// What a registered file descriptor should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or closed/errored — hangup and error
    /// conditions are reported as readable so the read path discovers
    /// them).
    pub readable: bool,
    /// Wake when the fd accepts writes again.
    pub writable: bool,
}

impl Interest {
    /// Read-side interest only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read and write interest — a connection with a backed-up write
    /// buffer still wants to hear about inbound frames.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Write-side interest only — a draining connection that has stopped
    /// reading but still owes the peer replies.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// No interest — a draining connection waiting only on completion
    /// wakeups. The fd stays registered (error/hangup conditions are
    /// still reported) but neither data direction wakes the loop.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable — includes hangup/error, so a read is always the probe.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Hard hangup or error: the peer is gone in both directions (or the
    /// fd errored). Reported regardless of interest; a connection that is
    /// only draining replies should give up when it sees this.
    pub hup: bool,
}

const fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        // Round up so a 100µs backoff never becomes a busy-loop of
        // zero-timeout waits.
        Some(d) => {
            let ms = d.as_millis();
            let ms = if ms > i32::MAX as u128 {
                i32::MAX as u128
            } else {
                ms
            };
            if ms == 0 {
                1
            } else {
                ms as i32
            }
        }
        None => -1,
    }
}

// ---------------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Interest, PollEvent};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// The kernel's `struct epoll_event`. Packed on x86 so the 64-bit data
    /// field sits at offset 4, matching the ABI `epoll_wait` fills; every
    /// pointer handed to `epoll_ctl`/`epoll_wait` below relies on this
    /// layout.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy, Debug)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        // EOF arrives as EPOLLIN (read then returns 0), so plain
        // read-interest is enough to notice a half-close; ERR/HUP are
        // reported unconditionally by the kernel.
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// The epoll backend.
    #[derive(Debug)]
    pub struct Poller {
        epfd: c_int,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: `epoll_create1` takes no pointers. A non-negative
            // return is a fresh fd that this poller owns from here on and
            // closes exactly once, in `Drop`.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `self.epfd` is the open epoll fd this poller owns, and
            // `&mut ev` points to a live `EpollEvent` with the kernel's
            // layout, which the kernel only reads during the call.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: as in `add`: the owned epoll fd and a pointer to a
            // live, kernel-layout `EpollEvent` that is only read.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `add`. `EPOLL_CTL_DEL` ignores the event, but
            // kernels before 2.6.9 reject a null pointer, so pass a valid one.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let n = loop {
                // SAFETY: `self.buf` holds `self.buf.len()` initialized
                // kernel-layout `EpollEvent`s, so the pointer/length pair
                // covers exactly the memory the kernel may write, and
                // `self.epfd` is the open epoll fd this poller owns.
                let ret = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        timeout_ms(timeout),
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                events.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    hup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `self.epfd` came from `epoll_create1` in `new`, no
            // other value owns it, and `drop` runs once, so the fd is
            // closed exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Other unix: poll(2) (also compiled on Linux in test builds)
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
use poll_fallback as imp;

#[cfg(all(unix, any(test, not(target_os = "linux"))))]
mod poll_fallback {
    use super::{timeout_ms, Interest, PollEvent};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// The `poll(2)` backend: a registration table, re-flattened into a
    /// pollfd array on every wait. O(registered fds) per wait instead of
    /// epoll's O(ready fds) — correct everywhere unix, merely slower.
    #[derive(Debug)]
    pub struct Poller {
        registered: HashMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                registered: HashMap::new(),
            })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.registered.insert(fd, (token, interest)).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            match self.registered.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            match self.registered.remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            loop {
                // SAFETY: `fds` is a live `Vec` of `repr(C)` `PollFd`s laid
                // out as `struct pollfd`, and the pointer/length pair covers
                // exactly that allocation, whose `revents` the kernel writes
                // during the call.
                let ret =
                    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms(timeout)) };
                if ret >= 0 {
                    break;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
            for pfd in &fds {
                if pfd.revents == 0 {
                    continue;
                }
                let (token, _) = self.registered[&pfd.fd];
                events.push(PollEvent {
                    token,
                    readable: pfd.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: pfd.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                    hup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

/// A level-triggered readiness poller over nonblocking file descriptors:
/// epoll on Linux, `poll(2)` on other unix platforms.
///
/// Registered fds are identified by a caller-chosen `token`, which is what
/// [`Poller::wait`] hands back. The poller never owns the fds — callers
/// keep their sockets and must [`Poller::remove`] before closing them (the
/// `poll(2)` backend would otherwise keep polling a dead fd).
#[derive(Debug)]
pub struct Poller {
    inner: imp::Poller,
}

impl Poller {
    /// A new, empty poller.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: imp::Poller::new()?,
        })
    }

    /// Starts watching `fd` under `token`.
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.add(fd, token, interest)
    }

    /// Changes what an already-registered `fd` is watched for.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.remove(fd)
    }

    /// Blocks until at least one registered fd is ready (or the timeout
    /// passes — an empty `events` after return means timeout), filling
    /// `events` with the ready set.
    pub fn wait(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// Runs `$body` once per backend in this build, with `$P` naming the
    /// poller type and `$backend` its name: the platform's `Poller`, then
    /// (on Linux, where that is epoll) the `poll(2)` fallback.
    macro_rules! each_backend {
        (|$P:ident, $backend:ident| $body:block) => {{
            {
                type $P = Poller;
                let $backend = "default";
                $body
            }
            #[cfg(target_os = "linux")]
            {
                type $P = poll_fallback::Poller;
                let $backend = "poll(2)";
                $body
            }
        }};
    }

    #[test]
    fn poller_reports_readable_after_write() {
        each_backend!(|P, backend| {
            let (mut a, b) = UnixStream::pair().expect("socketpair");
            b.set_nonblocking(true).expect("nonblocking");
            let mut poller = P::new().expect("poller");
            poller.add(b.as_raw_fd(), 7, Interest::READ).expect("add");

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend}: nothing written yet");

            a.write_all(b"x").expect("write");
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .expect("wait");
            assert_eq!(events.len(), 1, "{backend}");
            assert_eq!(events[0].token, 7, "{backend}");
            assert!(events[0].readable, "{backend}");

            // Level-triggered: still readable until drained.
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .expect("wait");
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{backend}: level-triggered"
            );
            let mut buf = [0u8; 8];
            let n = (&b).read(&mut buf).expect("read");
            assert_eq!(n, 1);
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend}: drained");
        });
    }

    #[test]
    fn poller_reports_hangup_as_readable() {
        each_backend!(|P, backend| {
            let (a, b) = UnixStream::pair().expect("socketpair");
            b.set_nonblocking(true).expect("nonblocking");
            let mut poller = P::new().expect("poller");
            poller.add(b.as_raw_fd(), 3, Interest::READ).expect("add");
            drop(a);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .expect("wait");
            assert!(
                events.iter().any(|e| e.token == 3 && e.readable),
                "{backend}: peer close must surface as readable (read then sees EOF)"
            );
        });
    }

    #[test]
    fn poller_modify_and_remove_change_the_ready_set() {
        each_backend!(|P, backend| {
            let (mut a, b) = UnixStream::pair().expect("socketpair");
            b.set_nonblocking(true).expect("nonblocking");
            let mut poller = P::new().expect("poller");
            poller.add(b.as_raw_fd(), 1, Interest::READ).expect("add");
            a.write_all(b"y").expect("write");

            // Drop read interest: the pending byte no longer wakes us (an
            // idle socket is trivially writable, so watch nothing instead).
            poller
                .modify(b.as_raw_fd(), 1, Interest::NONE)
                .expect("modify");
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend}: read interest was dropped");

            poller
                .modify(b.as_raw_fd(), 1, Interest::READ_WRITE)
                .expect("modify");
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .expect("wait");
            assert!(events.iter().any(|e| e.readable && e.writable), "{backend}");

            poller.remove(b.as_raw_fd()).expect("remove");
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend}: removed fd must not report");
        });
    }
}
