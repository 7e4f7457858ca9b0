//! Minimal readiness polling over raw libc — epoll on Linux, `poll(2)`
//! on other unix platforms. Zero external dependencies: the handful of
//! syscall bindings the loop needs are declared here directly against
//! the C library the Rust standard library already links.
//!
//! The surface is the smallest thing a single-threaded readiness loop
//! needs: register a file descriptor under a `u64` token with a
//! read/write interest, change the interest, deregister, and wait with
//! a timeout. Level-triggered semantics on both back ends — an event
//! repeats until the condition is consumed — because level triggering
//! makes partial reads and writes impossible to lose, which is the
//! whole point of the front end this serves.

#![cfg(unix)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// What to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Write-only interest (reads intentionally paused: the loop's
    /// per-connection flow control while a request is in flight).
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// No interest at all; the descriptor stays registered but silent.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event: which token fired and how.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (includes peer hang-up: a read will return 0/error).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition; the owner should read to collect the
    /// error and close.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw epoll bindings. `epoll_event` is packed on x86-64 (and only
    //! there) per the kernel ABI.

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
}

/// The readiness poller: epoll on Linux.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// Creates the epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        // Peer half-close is a read-side condition, so it follows read
        // interest: level-triggered, it would otherwise wake the owner of
        // a paused connection on every wait until the pause ended.
        let mut events = 0;
        if interest.readable {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes a registered descriptor's interest (and/or token).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters a descriptor.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    /// Waits up to `timeout` for readiness, appending events to `out`
    /// (cleared first). Returning with no events after the timeout is
    /// not an error — it is the caller's periodic flag-check tick.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure (`EINTR` is retried internally).
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        out.clear();
        const CAP: usize = 1024;
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; CAP];
        let millis = i32::try_from(timeout.as_millis())
            .unwrap_or(i32::MAX)
            .max(1);
        let n = loop {
            let rc = unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, millis) };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (events, data) = (ev.events, ev.data);
            out.push(Event {
                token: data,
                readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                hangup: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Raw `poll(2)` bindings for the portable fallback.

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;
}

/// The readiness poller: `poll(2)` on non-Linux unix. Registration is a
/// userspace table re-submitted on every wait — O(n) per call where
/// epoll is O(ready), which is fine for the fallback's purpose.
#[cfg(all(unix, not(target_os = "linux")))]
#[derive(Debug, Default)]
pub struct Poller {
    registered: std::cell::RefCell<Vec<(RawFd, u64, Interest)>>,
}

#[cfg(all(unix, not(target_os = "linux")))]
impl Poller {
    /// Creates the poller.
    ///
    /// # Errors
    ///
    /// Infallible on this back end; `io::Result` for signature parity.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller::default())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Infallible on this back end.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.registered.borrow_mut().push((fd, token, interest));
        Ok(())
    }

    /// Changes a registered descriptor's interest (and/or token).
    ///
    /// # Errors
    ///
    /// `NotFound` when the descriptor was never registered.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut reg = self.registered.borrow_mut();
        for slot in reg.iter_mut() {
            if slot.0 == fd {
                *slot = (fd, token, interest);
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    /// Deregisters a descriptor.
    ///
    /// # Errors
    ///
    /// `NotFound` when the descriptor was never registered.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        let mut reg = self.registered.borrow_mut();
        let before = reg.len();
        reg.retain(|slot| slot.0 != fd);
        if reg.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    /// Waits up to `timeout` for readiness, appending events to `out`
    /// (cleared first).
    ///
    /// # Errors
    ///
    /// Propagates `poll` failure (`EINTR` is retried internally).
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        out.clear();
        let reg = self.registered.borrow();
        let mut fds: Vec<sys::PollFd> = reg
            .iter()
            .map(|&(fd, _, interest)| sys::PollFd {
                fd,
                events: if interest.readable { sys::POLLIN } else { 0 }
                    | if interest.writable { sys::POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let millis = i32::try_from(timeout.as_millis())
            .unwrap_or(i32::MAX)
            .max(1);
        loop {
            let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, millis) };
            if rc >= 0 {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        for (pfd, &(_, token, _)) in fds.iter().zip(reg.iter()) {
            if pfd.revents == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0,
                writable: pfd.revents & sys::POLLOUT != 0,
                hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_fires_on_data_and_respects_interest() {
        let (mut a, b) = UnixStream::pair().expect("pair");
        b.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        poller.add(b.as_raw_fd(), 7, Interest::READ).expect("add");
        let mut events = Vec::new();

        // Nothing written yet: the wait times out eventless.
        poller
            .wait(&mut events, Duration::from_millis(10))
            .expect("wait");
        assert!(events.is_empty());

        a.write_all(b"x").expect("write");
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: unread data keeps reporting.
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .expect("wait");
        assert_eq!(events.len(), 1, "level-triggered readiness repeats");

        // Interest NONE silences the descriptor without deregistering.
        poller
            .modify(b.as_raw_fd(), 7, Interest::NONE)
            .expect("modify");
        poller
            .wait(&mut events, Duration::from_millis(10))
            .expect("wait");
        assert!(events.is_empty(), "paused interest must not fire on data");

        // Back to READ: the byte is still there.
        poller
            .modify(b.as_raw_fd(), 7, Interest::READ)
            .expect("modify");
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .expect("wait");
        assert_eq!(events.len(), 1);
        let mut byte = [0u8; 1];
        (&b).read_exact(&mut byte).expect("read");
        poller.remove(b.as_raw_fd()).expect("remove");
    }

    #[test]
    fn writable_interest_fires_on_an_open_socket() {
        let (a, _b) = UnixStream::pair().expect("pair");
        let poller = Poller::new().expect("poller");
        poller
            .add(a.as_raw_fd(), 1, Interest::READ_WRITE)
            .expect("add");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
    }

    #[test]
    fn hangup_reports_as_readable() {
        let (a, b) = UnixStream::pair().expect("pair");
        let poller = Poller::new().expect("poller");
        poller.add(b.as_raw_fd(), 3, Interest::READ).expect("add");
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert!(
            events[0].readable,
            "hangup must surface as readable so the owner reads the EOF"
        );
    }
}
