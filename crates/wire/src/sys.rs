//! The three `epoll` calls the runtime needs, behind a safe handle.
//!
//! `std` exposes no readiness API, but it already links the platform's
//! libc, so the calls are declared here and nothing is added to the
//! dependency tree. This module holds the crate's only `unsafe`.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// `struct epoll_event`: the kernel ABI packs it on x86 and nowhere else.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` as `epoll_pwait2` takes it (`time_t` and `long` are
/// both `c_long` on the glibc ABIs this builds for).
#[repr(C)]
struct Timespec {
    sec: std::ffi::c_long,
    nsec: std::ffi::c_long,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_pwait2(
        epfd: i32,
        events: *mut EpollEvent,
        maxevents: i32,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;

/// Events fetched per wait. Level-triggered: what does not fit is
/// reported by the next call.
const BATCH: usize = 64;
const EVENT_ZERO: EpollEvent = EpollEvent { events: 0, data: 0 };

/// What a registered descriptor is watched for.
#[derive(Clone, Copy)]
pub(crate) enum Interest {
    /// Readable: data, a pending connection, end of stream — or, for a
    /// nested set, a ready member.
    Read,
    /// Writable: the kernel will take bytes again.
    Write,
}

/// A level-triggered readiness set. Closing a registered descriptor
/// removes it from the set, and a set may itself be a member of another
/// (it reads as ready while any of its members is).
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: no pointers are passed; the call returns a new
        // descriptor or -1.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by the kernel and nothing else
        // owns it.
        let set = Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        };
        // A kernel without `epoll_pwait2` (before 5.11) must fail here,
        // loudly, not by never reporting anything ready.
        set.pwait(&mut [EVENT_ZERO; BATCH], Duration::ZERO)?;
        Ok(set)
    }

    /// Watch `fd` for `interest`; ready reports carry `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: match interest {
                Interest::Read => EPOLLIN,
                Interest::Write => EPOLLOUT,
            },
            data: token,
        };
        // SAFETY: `ev` is a valid `epoll_event` for the duration of the
        // call (the kernel copies it); both descriptors are open because
        // their owners are borrowed.
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd.as_raw_fd(), &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Stop watching `fd`.
    pub(crate) fn del(&self, fd: &impl AsRawFd) -> io::Result<()> {
        // SAFETY: `EPOLL_CTL_DEL` ignores the event pointer (null is
        // allowed since Linux 2.6.9); both descriptors are open because
        // their owners are borrowed.
        let rc = unsafe {
            epoll_ctl(
                self.fd.as_raw_fd(),
                EPOLL_CTL_DEL,
                fd.as_raw_fd(),
                std::ptr::null_mut(),
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Append the tokens of the descriptors that are ready right now to
    /// `out`, without waiting. Returns how many were appended.
    pub(crate) fn ready(&self, out: &mut Vec<u64>) -> usize {
        self.wait(out, Duration::ZERO)
    }

    /// Park until a descriptor is ready or `timeout` passes, then append
    /// the ready tokens to `out`. Returns how many were appended: 0 means
    /// the timeout (or a signal) ended the wait.
    pub(crate) fn wait(&self, out: &mut Vec<u64>, timeout: Duration) -> usize {
        let mut events = [EVENT_ZERO; BATCH];
        // The arguments are valid by construction and `new` has shown the
        // call exists, so an error here is EINTR: an early, empty wake-up,
        // which every caller already tolerates.
        let n = self.pwait(&mut events, timeout).unwrap_or(0);
        out.extend(events[..n].iter().map(|ev| ev.data));
        n
    }

    fn pwait(&self, events: &mut [EpollEvent; BATCH], timeout: Duration) -> io::Result<usize> {
        let ts = Timespec {
            sec: timeout.as_secs().min(std::ffi::c_long::MAX as u64) as std::ffi::c_long,
            nsec: timeout.subsec_nanos() as std::ffi::c_long,
        };
        // SAFETY: `events` is writable for `BATCH` entries and `ts` is a
        // valid `timespec`, both outliving the call; a null signal mask
        // leaves the thread's mask alone.
        let n = unsafe {
            epoll_pwait2(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                BATCH as i32,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
}

impl AsRawFd for Epoll {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn token_round_trips_through_a_real_epoll_instance() {
        let set = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let token = 0xDEAD_BEEF_0BAD_CAFE;
        set.add(&listener, token, Interest::Read).unwrap();
        let mut out = Vec::new();
        assert_eq!(set.ready(&mut out), 0, "nothing pending yet");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(set.wait(&mut out, Duration::from_secs(5)), 1);
        assert_eq!(out, [token], "all 64 bits survive the packed layout");
        // Level-triggered: still ready until accepted; gone once removed.
        assert_eq!(set.ready(&mut out), 1);
        set.del(&listener).unwrap();
        assert_eq!(set.ready(&mut out), 0);
    }

    #[test]
    fn nested_set_wakes_its_parent_and_sub_millisecond_timeouts_hold() {
        let (parent, child) = (Epoll::new().unwrap(), Epoll::new().unwrap());
        parent.add(&child, 7, Interest::Read).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        child.add(&served, 1, Interest::Read).unwrap();
        let mut out = Vec::new();
        let t = std::time::Instant::now();
        assert_eq!(parent.wait(&mut out, Duration::from_micros(300)), 0);
        let waited = t.elapsed();
        assert!(
            waited >= Duration::from_micros(300) && waited < Duration::from_millis(50),
            "a 300 µs timeout is neither rounded to 0 nor to a millisecond tick: {waited:?}"
        );
        client.write_all(b"x").unwrap();
        assert_eq!(parent.wait(&mut out, Duration::from_secs(5)), 1);
        assert_eq!(out, [7]);
        // Closing the member empties the child, and with it the parent.
        drop(served);
        out.clear();
        assert_eq!(parent.ready(&mut out), 0);
    }
}
