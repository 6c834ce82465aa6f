//! The two Linux calls std does not offer: waiting on several sockets
//! with a sub-millisecond timeout (`ppoll`), and CPU affinity
//! (`sched_setaffinity`).

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::mem::size_of;
use std::time::Duration;

/// One `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    /// The socket; negative entries are ignored by the kernel.
    pub fd: c_int,
    /// Events waited for.
    pub events: c_short,
    /// Events that occurred (written by the kernel).
    pub revents: c_short,
}

/// Readable.
pub const POLLIN: c_short = 0x1;
/// Writable.
pub const POLLOUT: c_short = 0x4;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Sleeps until a socket in `fds` is ready or `timeout` passes, with
/// nanosecond resolution (`poll(2)` only takes milliseconds, coarser than
/// the gaps between requests at 1000 rps).
///
/// # Errors
///
/// Any `ppoll` failure other than an interrupt.
pub fn wait_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    let nfds = c_ulong::try_from(fds.len()).expect("a slice length fits nfds_t");
    // SAFETY: `fds` is an exclusively borrowed slice of `nfds` `PollFd`s,
    // laid out as the kernel's `struct pollfd` (repr(C): int, short,
    // short); `ts` is a live `struct timespec` (repr(C): two longs on
    // Linux) for the duration of the call; a null sigmask leaves the
    // signal mask unchanged. ppoll writes only the `revents` fields.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), nfds, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// The CPUs the calling thread may run on.
///
/// # Errors
///
/// A failed `sched_getaffinity`.
pub fn affinity() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly
    // `size_of::<CpuSet>()` bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..set.len() * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Restricts the calling thread — and every thread or process it creates
/// from now on, which inherit the mask — to `cpus`.
///
/// # Errors
///
/// A CPU beyond the mask's 1024 bits, or a failed `sched_setaffinity`.
pub fn set_affinity(cpus: &[usize]) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        let word = set.get_mut(c / 64).ok_or_else(|| io::Error::other(format!("no CPU {c}")))?;
        *word |= 1 << (c % 64);
    }
    // SAFETY: `set` is a live buffer of exactly `size_of::<CpuSet>()`
    // bytes that the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_round_trips_on_a_scratch_thread() {
        std::thread::spawn(|| {
            let cpus = affinity().unwrap();
            assert!(!cpus.is_empty());
            set_affinity(&cpus[..1]).unwrap();
            assert_eq!(affinity().unwrap(), cpus[..1].to_vec());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn wait_ready_times_out_on_no_sockets() {
        let t = std::time::Instant::now();
        wait_ready(&mut [], Duration::from_millis(5)).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
    }
}
