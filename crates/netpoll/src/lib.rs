//! `poll(2)` and `listen(2)`, the two system calls the serving tier's
//! event loop needs and `std` does not offer. They live in their own
//! crate so `ktiler-svc` and `ktiler-gateway` keep
//! `#![forbid(unsafe_code)]`; this file holds the workspace's only
//! `unsafe` blocks outside the benchmark.

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, RawFd};
use std::time::{Duration, Instant};

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor; negative entries are ignored (`revents` reads 0).
    pub fd: RawFd,
    /// Events waited for.
    pub events: c_short,
    /// Events that occurred, written by the kernel. `POLLERR`, `POLLHUP`
    /// and `POLLNVAL` are reported even when not asked for.
    pub revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events`.
    pub fn new(fd: RawFd, events: c_short) -> Self {
        PollFd { fd, events, revents: 0 }
    }
}

/// Readable (or, on a listener, a connection to accept).
pub const POLLIN: c_short = 0x1;
/// Writable.
pub const POLLOUT: c_short = 0x4;
/// Error condition.
pub const POLLERR: c_short = 0x8;
/// Hung up.
pub const POLLHUP: c_short = 0x10;

mod sys {
    use super::{c_int, c_ulong, PollFd};
    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    }
}

/// Sets the accept backlog of the bound socket `fd` by calling
/// `listen(2)` on it (again). `std::net::TcpListener::bind` listens with
/// a backlog of 128, and the kernel drops a SYN that finds the accept
/// queue full, which stalls that client for the ~1 s SYN retransmit.
/// Linux caps `backlog` at `net.core.somaxconn`.
///
/// # Errors
///
/// Any `listen` failure, e.g. `fd` is not a bound stream socket.
pub fn listen(fd: BorrowedFd<'_>, backlog: c_int) -> io::Result<()> {
    // SAFETY: listen reads two integers and no memory; `fd` is borrowed,
    // so it is open and owned by the caller for the whole call.
    let rc = unsafe { sys::listen(fd.as_raw_fd(), backlog) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits forever); returns how many entries have `revents` set.
///
/// The kernel takes whole milliseconds, so a finite timeout is rounded
/// *up*: a deadline 0.3 ms away costs one 1 ms wait, not a busy loop of
/// zero-timeout calls. An interrupted call is retried with what is left
/// of the timeout.
///
/// # Errors
///
/// Any `poll` failure other than an interrupt.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let nfds = c_ulong::try_from(fds.len()).map_err(|_| io::Error::other("too many fds"))?;
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let ms = match deadline {
            None => -1,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            }
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `nfds`
        // `PollFd`s laid out as the kernel's `struct pollfd` (repr(C):
        // int, short, short); poll writes only their `revents` fields and
        // keeps no pointer past the call.
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), nfds, ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn times_out_when_idle_and_reports_pollin_once_a_byte_arrives() {
        let (rx, mut tx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];

        let t0 = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_micros(300))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_micros(300), "a sub-ms timeout is rounded up");
        assert_eq!(fds[0].revents, 0);

        tx.write_all(&[1]).unwrap();
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
    }

    #[test]
    fn a_raised_backlog_queues_512_unaccepted_connects() {
        // At bind's default backlog of 128 the kernel drops the SYNs past
        // the 129th queued connection and these connects time out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listen(listener.as_fd(), 4096).unwrap();
        let addr = listener.local_addr().unwrap();
        let clients: Vec<TcpStream> = (0..512)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("connect {i} failed: {e}"))
            })
            .collect();
        assert_eq!(clients.len(), 512);
    }

    #[test]
    fn listen_on_a_connected_socket_is_an_error() {
        let (a, _b) = UnixStream::pair().unwrap();
        assert!(listen(a.as_fd(), 16).is_err(), "a connected socket cannot listen");
    }

    #[test]
    fn negative_fds_are_ignored() {
        let mut fds = [PollFd::new(-1, POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert_eq!(fds[0].revents, 0);
    }
}
