//! Wake-up contract of the event loop: it sleeps in `poll` until a socket
//! is ready, a ticket's fulfillment rings its doorbell, or a deadline is
//! due — and none of those may ever be missed.
//!
//! The front-ends here answer through tickets fulfilled by other threads
//! at seeded random offsets, so a response can land at any point of the
//! loop's cycle: mid-pass, between the last ticket check and `poll`, or
//! long after the loop went to sleep. A lost wake-up shows as a response
//! that never arrives (the client's 1 s read timeout fires).

use std::io::{BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpu_sim::SplitMix64;
use ktiler_svc::proto::{read_frame, write_frame, Request, Response};
use ktiler_svc::{
    serve_front, CacheKey, Dispatch, FrontEnd, Outcome, ResponseSink, ResponseTicket,
    ScheduleResponse, ServerTuning, SvcError, Ticket, TicketSink,
};

/// A sink of either ticket flavour, handed to a fulfiller thread.
enum Sink {
    Typed(TicketSink),
    Raw(ResponseSink),
}

/// One answer to deliver: request number `id`, due at `at`.
struct Job {
    id: u64,
    at: Instant,
    sink: Sink,
}

/// Answers every request through a ticket, numbered in arrival order.
/// Even numbers go through a schedule [`Ticket`], odd ones through a raw
/// [`ResponseTicket`]; each sink goes to one of two fulfiller threads,
/// picked at random, which answer it a random `offsets_us` after
/// dispatch. With `spin`, a single fulfiller spins on its queue instead
/// of sleeping on it, so even a 0 µs offset is met without a thread
/// wake-up in between (one spinner leaves the loop a CPU on a 2-CPU
/// machine).
struct Deferred {
    next: AtomicU64,
    rng: Mutex<SplitMix64>,
    offsets_us: Range<u64>,
    lanes: Vec<Sender<Job>>,
}

/// Waits until `at`: sleeps while it is far, spins the last stretch so
/// offsets of a few µs land where they are aimed.
fn wait_until(at: Instant) {
    while let Some(left) = at.checked_duration_since(Instant::now()) {
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Deferred {
    fn start(seed: u64, offsets_us: Range<u64>, spin: bool) -> Arc<Self> {
        let lanes = (0..if spin { 1 } else { 2 }).map(|_| {
            let (tx, rx) = mpsc::channel::<Job>();
            std::thread::spawn(move || loop {
                let job = if spin {
                    match rx.try_recv() {
                        Ok(job) => job,
                        Err(TryRecvError::Empty) => {
                            std::hint::spin_loop();
                            continue;
                        }
                        Err(TryRecvError::Disconnected) => return,
                    }
                } else {
                    match rx.recv() {
                        Ok(job) => job,
                        Err(_) => return,
                    }
                };
                wait_until(job.at);
                match job.sink {
                    Sink::Typed(s) => s.fulfill(Ok(ScheduleResponse {
                        outcome: Outcome::Hit,
                        key: CacheKey { hi: 0, lo: job.id },
                        launches: job.id as usize,
                        text: String::new(),
                    })),
                    Sink::Raw(s) => {
                        s.fulfill(Response::Synced { pulled: job.id, failed: 0, peers: 0 })
                    }
                }
            });
            tx
        });
        let lanes = lanes.collect();
        Arc::new(Deferred {
            next: AtomicU64::new(0),
            rng: Mutex::new(SplitMix64::new(seed)),
            offsets_us,
            lanes,
        })
    }
}

impl FrontEnd for Deferred {
    fn handle(&self, _req: Request) -> Dispatch {
        let id = self.next.fetch_add(1, Ordering::SeqCst);
        let (offset_us, lane) = {
            let mut rng = self.rng.lock().unwrap();
            let span = self.offsets_us.end - self.offsets_us.start;
            let lane = rng.next_u64() as usize % self.lanes.len();
            (self.offsets_us.start + rng.next_u64() % span, lane)
        };
        let (dispatch, sink) = if id.is_multiple_of(2) {
            let (ticket, sink) = Ticket::pair(None);
            (Dispatch::Pending(ticket), Sink::Typed(sink))
        } else {
            let (ticket, sink) = ResponseTicket::pair();
            (Dispatch::PendingRaw(ticket), Sink::Raw(sink))
        };
        let at = Instant::now() + Duration::from_micros(offset_us);
        self.lanes[lane].send(Job { id, at, sink }).unwrap();
        dispatch
    }
}

/// The request number a [`Deferred`] answer carries.
fn answer_id(resp: &Response) -> u64 {
    match resp {
        Response::Schedule(r) => r.launches as u64,
        Response::Synced { pulled, .. } => *pulled,
        other => panic!("unexpected response {other:?}"),
    }
}

/// A raw connection whose every response must arrive within 1 s.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let payload = read_frame(reader)
        .unwrap_or_else(|e| panic!("no response within 1 s (a lost wake-up?): {e}"))
        .expect("server closed the connection");
    Response::decode(&payload).unwrap()
}

/// Sends `n` pipelined `PING`s and returns the request numbers of their
/// answers, in arrival order.
fn burst(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for _ in 0..n {
        write_frame(&mut out, &Request::Ping.encode()).unwrap();
    }
    writer.write_all(&out).unwrap();
    (0..n).map(|_| answer_id(&read_response(reader))).collect()
}

/// 2,500 tickets in two phases. Eight connections pipeline bursts whose
/// tickets two threads fulfill 50–1000 µs after dispatch, mostly after
/// the loop went back to sleep: every answer arrives, in request order
/// per connection. Then one connection sends requests one at a time,
/// fulfilled by a spinning thread 0–40 µs after dispatch, so rings land
/// mid-pass, between the loop's last ticket check and its `poll`, and
/// after it; with nothing else to wake the loop, a single lost ring hangs
/// the connection.
#[test]
fn no_wakeup_is_lost_under_racing_fulfillers() {
    const CONNS: u64 = 8;
    const PER_CONN: u64 = 125;
    const LOCKSTEP: u64 = 1_500;
    let server = serve_front(
        "127.0.0.1:0",
        Deferred::start(0x5eed, 50..1000, false),
        ServerTuning::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let (mut writer, mut reader) = connect(addr);
                let mut rng = SplitMix64::new(c);
                let mut ids = Vec::new();
                while (ids.len() as u64) < PER_CONN {
                    let n = (1 + rng.next_u64() % 16).min(PER_CONN - ids.len() as u64);
                    ids.extend(burst(&mut writer, &mut reader, n));
                }
                ids
            })
        })
        .collect();
    let mut all = Vec::new();
    for (c, h) in clients.into_iter().enumerate() {
        let ids = h.join().expect("client thread");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "connection {c}: responses out of request order"
        );
        all.extend(ids);
    }
    all.sort_unstable();
    assert_eq!(all, (0..CONNS * PER_CONN).collect::<Vec<_>>(), "every ticket answered once");
    server.request_stop();
    server.join();

    let server =
        serve_front("127.0.0.1:0", Deferred::start(0x10c5, 0..40, true), ServerTuning::default())
            .unwrap();
    let (mut writer, mut reader) = connect(server.local_addr());
    for id in 0..LOCKSTEP {
        assert_eq!(burst(&mut writer, &mut reader, 1), [id]);
    }
    server.request_stop();
    server.join();
}

/// Answers with a ticket that nobody ever fulfills (the sinks are kept
/// alive, so no drop guard answers either).
struct Never {
    deadline: Duration,
    sinks: Mutex<Vec<TicketSink>>,
}

impl FrontEnd for Never {
    fn handle(&self, _req: Request) -> Dispatch {
        let (ticket, sink) = Ticket::pair(Some(Instant::now() + self.deadline));
        self.sinks.lock().unwrap().push(sink);
        Dispatch::Pending(ticket)
    }
}

#[test]
fn an_unfulfilled_ticket_is_answered_deadline_on_time() {
    let deadline = Duration::from_millis(200);
    let front = Arc::new(Never { deadline, sinks: Mutex::new(Vec::new()) });
    let server = serve_front("127.0.0.1:0", front, ServerTuning::default()).unwrap();
    let (mut writer, mut reader) = connect(server.local_addr());

    let t0 = Instant::now();
    let mut out = Vec::new();
    write_frame(&mut out, &Request::Ping.encode()).unwrap();
    writer.write_all(&out).unwrap();
    let resp = read_response(&mut reader);
    let took = t0.elapsed();
    assert_eq!(resp, Response::Err(SvcError::DeadlineExceeded));
    assert!(took >= deadline, "answered before the deadline: {took:?}");
    assert!(took < deadline + Duration::from_millis(50), "answered late: {took:?}");

    server.request_stop();
    server.join();
}

/// Answers everything at once; for tests that only exercise sockets.
struct Immediate;

impl FrontEnd for Immediate {
    fn handle(&self, _req: Request) -> Dispatch {
        Dispatch::Ready(Response::Pong)
    }
}

#[test]
fn a_mid_frame_stall_is_cut_while_the_loop_sleeps() {
    let stall = Duration::from_millis(300);
    let tuning = ServerTuning { stall_timeout: stall, ..ServerTuning::default() };
    let server = serve_front("127.0.0.1:0", Arc::new(Immediate), tuning).unwrap();

    // Promise 64 bytes, send 3, go silent: nothing else happens on the
    // server, so only the stall deadline can wake the loop.
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let t0 = Instant::now();
    stalled.write_all(b"164\nabc").unwrap();
    let mut buf = [0u8; 16];
    let n = stalled.read(&mut buf).expect("the server hangs up before the read timeout");
    let took = t0.elapsed();
    assert_eq!(n, 0, "a stalled peer is dropped, not answered");
    assert!(took >= stall, "cut before the stall timeout: {took:?}");
    assert!(took < stall + Duration::from_millis(100), "cut late: {took:?}");

    server.request_stop();
    server.join();
}

#[test]
fn request_stop_wakes_an_idle_loop() {
    let server = serve_front("127.0.0.1:0", Arc::new(Immediate), ServerTuning::default()).unwrap();
    // One served request, then nothing: the loop is asleep with no
    // deadline pending.
    let (mut writer, mut reader) = connect(server.local_addr());
    let mut out = Vec::new();
    write_frame(&mut out, &Request::Ping.encode()).unwrap();
    writer.write_all(&out).unwrap();
    assert_eq!(read_response(&mut reader), Response::Pong);
    drop((writer, reader));
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    server.request_stop();
    server.join();
    assert!(t0.elapsed() < Duration::from_secs(1), "join took {:?}", t0.elapsed());
}
