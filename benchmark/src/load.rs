//! The load generator: one thread driving two pipelined connections.
//!
//! Requests alternate between the connections and are written without
//! waiting for earlier answers, so the server sees a steady stream rather
//! than a ping-pong. The thread sleeps in `ppoll(2)` until the next due
//! time or until a socket is readable, so it spends no CPU spinning and
//! timestamps each answer the moment it arrives.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use ktiler_svc::proto::{write_frame, DecodeEvent, FrameDecoder};

use crate::os::{wait_ready, PollFd, POLLIN, POLLOUT};

/// How requests are paced.
pub enum Pace {
    /// Open loop: request `i` is due at `start + due[i]`, whether or not
    /// earlier requests were answered. Latency counts from the due time,
    /// so a stall also charges the requests queued behind it.
    Open(Vec<Duration>),
    /// Closed loop: keep `depth` requests outstanding, spread over the
    /// connections, until `window` has passed; latency counts from the
    /// send. A depth of one is a single caller waiting for each answer.
    Closed {
        /// Requests outstanding at once.
        depth: usize,
        /// How long new requests are issued.
        window: Duration,
    },
}

/// What one drive produced, indexed by request number.
pub struct Drive {
    /// Key index of each request issued.
    pub keys: Vec<usize>,
    /// Latency in µs of each answered request (`None`: never answered).
    pub lat_us: Vec<Option<f64>>,
    /// Answer payload of each answered request.
    pub payloads: Vec<Option<Vec<u8>>>,
    /// How late the generator sent each request, in µs (open loop only).
    pub late_us: Vec<f64>,
    /// Wall time from the first due time to the last answer.
    pub elapsed: Duration,
}

impl Drive {
    /// Requests issued.
    pub fn sent(&self) -> usize {
        self.keys.len()
    }

    /// Requests answered.
    pub fn completed(&self) -> usize {
        self.lat_us.iter().flatten().count()
    }
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    out: Vec<u8>,
    inflight: VecDeque<usize>,
    open: bool,
}

/// Drives `pace` against `addr`. Request `i` sends `frames[key_seq[i]]`
/// (`key_seq` is cycled when shorter than the run). After the last
/// request is issued, answers are awaited for up to `grace`; requests
/// still unanswered then count as failed.
///
/// # Errors
///
/// Failing to connect or configure the sockets. Transport failures after
/// that close the affected connection and leave its requests unanswered.
pub fn drive(
    addr: &str,
    frames: &[Vec<u8>],
    key_seq: &[usize],
    pace: &Pace,
    grace: Duration,
) -> io::Result<Drive> {
    let mut conns = Vec::new();
    for _ in 0..2 {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            inflight: VecDeque::new(),
            open: true,
        });
    }
    let wire: Vec<Vec<u8>> = frames
        .iter()
        .map(|p| {
            let mut buf = Vec::with_capacity(p.len() + 12);
            write_frame(&mut buf, p).map(|()| buf)
        })
        .collect::<io::Result<_>>()?;

    // A short lead so the first due time is not already in the past.
    let start = Instant::now() + Duration::from_millis(5);
    let (total, window_end) = match pace {
        Pace::Open(due) => (due.len(), start + due.last().copied().unwrap_or_default()),
        Pace::Closed { window, .. } => (usize::MAX, start + *window),
    };
    let mut d = Drive {
        keys: Vec::new(),
        lat_us: Vec::new(),
        payloads: Vec::new(),
        late_us: Vec::new(),
        elapsed: Duration::ZERO,
    };
    let mut due_at: Vec<Instant> = Vec::new();
    let mut last_answer = start;
    let mut buf = vec![0u8; 64 << 10];
    let mut events = Vec::new();
    loop {
        let now = Instant::now();
        // Issue everything that is due.
        loop {
            let i = d.keys.len();
            let conn = match pace {
                Pace::Open(due) => {
                    if i >= total || start + due[i] > now {
                        break;
                    }
                    due_at.push(start + due[i]);
                    d.late_us
                        .push(now.saturating_duration_since(start + due[i]).as_secs_f64() * 1e6);
                    i % 2
                }
                Pace::Closed { depth, .. } => {
                    let outstanding: usize = conns.iter().map(|c| c.inflight.len()).sum();
                    if now >= window_end || now < start || outstanding >= *depth {
                        break;
                    }
                    let Some(c) =
                        (0..2).filter(|&c| conns[c].open).min_by_key(|&c| conns[c].inflight.len())
                    else {
                        break;
                    };
                    due_at.push(now);
                    c
                }
            };
            let key = key_seq[i % key_seq.len()];
            d.keys.push(key);
            d.lat_us.push(None);
            d.payloads.push(None);
            if conns[conn].open {
                conns[conn].out.extend_from_slice(&wire[key]);
                conns[conn].inflight.push_back(i);
            }
        }
        for c in conns.iter_mut().filter(|c| c.open && !c.out.is_empty()) {
            match c.stream.write(&c.out) {
                Ok(n) => {
                    c.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => c.open = false,
            }
        }
        let issuing_done = d.keys.len() >= total || now >= window_end;
        let idle = conns.iter().all(|c| !c.open || c.inflight.is_empty());
        if issuing_done && idle {
            break;
        }
        let give_up = window_end.max(start) + grace;
        if issuing_done && now >= give_up {
            break;
        }

        let wake = match pace {
            Pace::Open(due) if d.keys.len() < total => start + due[d.keys.len()],
            Pace::Closed { .. } if now < window_end => {
                if now < start {
                    start
                } else {
                    window_end
                }
            }
            _ => give_up,
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: if c.open { c.stream.as_raw_fd() } else { -1 },
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        wait_ready(&mut fds, wake.saturating_duration_since(Instant::now()))?;

        for c in conns.iter_mut().filter(|c| c.open) {
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.open = false;
                        break;
                    }
                    Ok(n) => {
                        let t = Instant::now();
                        if c.dec.feed(&buf[..n], &mut events).is_err() {
                            c.open = false;
                            break;
                        }
                        for ev in events.drain(..) {
                            let Some(i) = c.inflight.pop_front() else { continue };
                            if let DecodeEvent::Frame(payload) = ev {
                                d.lat_us[i] = Some((t - due_at[i]).as_secs_f64() * 1e6);
                                d.payloads[i] = Some(payload);
                                last_answer = t;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.open = false;
                        break;
                    }
                }
            }
        }
    }
    d.elapsed = last_answer.saturating_duration_since(start);
    Ok(d)
}
