//! The TCP front-end: a single-threaded readiness event loop that
//! multiplexes every connection, decodes framed requests and drives a
//! [`FrontEnd`] — the in-process [`Service`] here, the gateway's router in
//! the `ktiler-gateway` crate. The network path and the in-process
//! [`crate::Client`] path share the identical queue, single-flight table
//! and cache.
//!
//! **Why an event loop.** One thread per connection would cost a stack
//! per idle connection; a gateway holding 10k client connections would
//! hold 10k stacks. Instead one thread owns a non-blocking listener and
//! every non-blocking stream (each connection keeps its parser state in a
//! [`FrameDecoder`] between passes). Requests that compute
//! ([`Dispatch::Pending`]) never block the loop — the service's worker
//! pool computes them while the loop serves other connections — and
//! responses are delivered strictly in request order per connection.
//!
//! **Waking on readiness.** The loop blocks in `poll(2)` (the `netpoll`
//! crate) on the listener, every connection that may still send, every
//! connection with unflushed output, and a *doorbell*: a socket pair whose
//! write end ([`Waker`]) is registered with each outstanding ticket. A
//! worker or forwarder that fulfills a ticket rings it, as does
//! [`Server::request_stop`], so a finished response is written at once.
//! The poll timeout is the earliest pending deadline (a ticket's, a
//! stalled frame's, a stuck write's), so an idle server sleeps until
//! something happens and a busy one wakes only for work.
//!
//! **Misbehaving peers.** The loop distinguishes an *idle* connection (no
//! bytes of a frame received — allowed to sit quietly forever) from a
//! *stalled* one (a frame started but not finished), cut off after
//! [`ServerTuning::stall_timeout`]. A peer that stops reading is bounded
//! by [`ServerTuning::write_timeout`] on unflushed output. A frame of a
//! foreign protocol version is answered with `ERR VERSION` and the
//! connection closed after the reply; a torn header loses framing and
//! drops the connection immediately.
//!
//! `SHUTDOWN` is intercepted by the loop itself: it acknowledges with
//! `BYE`, stops accepting, stops reading, serves every response already in
//! flight, flushes, and exits — no signals, no socket shootdown.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_sim::SplitMix64;
use netpoll::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

use crate::key::CacheKey;
use crate::proto::{
    read_frame, write_frame, DecodeEvent, FrameDecoder, Request, Response, MAX_REQUEST_FRAME,
    PROTO_VERSION,
};
use crate::service::{Cell, Service, SvcError, Ticket};

/// How long the listener sits out of the poll set after an accept fails
/// for want of resources (`EMFILE`, `ENOBUFS`): the refused connection
/// stays queued, so the listener stays readable and polling it again at
/// once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Socket-level knobs of the TCP front-end. [`ServerTuning::default`] is
/// right for production; tests shrink the timeouts to fail fast.
#[derive(Debug, Clone, Copy)]
pub struct ServerTuning {
    /// How long unflushed response bytes may sit without progress before
    /// the connection is dropped — a client that stops reading cannot pin
    /// buffer memory forever.
    pub write_timeout: Duration,
    /// How long a connection may sit mid-frame (some bytes of a frame
    /// received, the rest missing) before it is dropped as stalled. Idle
    /// connections — no frame in progress — are never timed out.
    pub stall_timeout: Duration,
}

impl Default for ServerTuning {
    fn default() -> Self {
        ServerTuning {
            write_timeout: Duration::from_secs(10),
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// The ringing end of an event loop's doorbell. Cheap to clone; every
/// outstanding ticket holds one.
#[derive(Clone)]
pub(crate) struct Waker(Arc<UnixStream>);

impl Waker {
    /// Makes the loop's next (or current) `poll` return. Never blocks: a
    /// full socket buffer means a wake is already pending, and a loop that
    /// has exited needs none, so every error is ignored.
    pub(crate) fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// The loop's end of the doorbell: readable while a wake is pending.
struct Doorbell {
    rx: UnixStream,
    waker: Waker,
}

impl Doorbell {
    fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Doorbell { rx, waker: Waker(Arc::new(tx)) })
    }

    /// Consumes every pending ring. Called before the pass that checks
    /// tickets, so a ring that lands after the check stays pending and
    /// wakes the next `poll`.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// What a [`FrontEnd`] does with one decoded request.
pub enum Dispatch {
    /// The response is known now; the loop queues it for writing.
    Ready(Response),
    /// The response is being computed elsewhere (a worker pool, a remote
    /// node); the loop writes it when the ticket's fulfillment wakes it,
    /// without ever blocking on it.
    Pending(Ticket),
    /// Like [`Dispatch::Pending`], but for verbs whose responses are not
    /// schedules ([`Ticket`] is typed to a [`ScheduleResponse`](crate::service::ScheduleResponse));
    /// `SYNC` answers through one of these so a round against dead peers
    /// never stalls the event loop.
    PendingRaw(ResponseTicket),
}

/// A slot for a raw [`Response`] computed off-loop — the untyped sibling
/// of [`Ticket`].
pub struct ResponseTicket {
    cell: Arc<Cell<Response>>,
}

/// The fulfilling half of a [`ResponseTicket::pair`]. Dropping an
/// unfulfilled sink (the computing thread panicked, or was never spawned)
/// fulfills the ticket with a structured error — the waiting connection is
/// always answered, never left hung.
pub struct ResponseSink {
    cell: Arc<Cell<Response>>,
}

impl ResponseTicket {
    /// An unfulfilled ticket and the sink that fulfills it.
    pub fn pair() -> (ResponseTicket, ResponseSink) {
        let cell = Cell::new();
        (ResponseTicket { cell: Arc::clone(&cell) }, ResponseSink { cell })
    }

    /// Takes the response if one landed; `None` means still in flight.
    pub fn try_take(&mut self) -> Option<Response> {
        self.cell.take()
    }
}

impl ResponseSink {
    /// Fulfills the paired ticket. First fulfillment wins; later calls
    /// (including the drop guard) are ignored.
    pub fn fulfill(&self, r: Response) {
        self.cell.fulfill(r);
    }
}

impl Drop for ResponseSink {
    fn drop(&mut self) {
        self.fulfill(Response::Err(SvcError::Internal(
            "response computation dropped its sink".into(),
        )));
    }
}

/// What the event loop serves: anything that can turn a request into a
/// response (or a promise of one). [`Service`] implements it directly;
/// the gateway implements it with a forwarding pool.
pub trait FrontEnd: Send + Sync + 'static {
    /// Handles one request. `SHUTDOWN` is intercepted by the event loop
    /// and never reaches this method from the network path.
    fn handle(&self, req: Request) -> Dispatch;

    /// Winds down the backing machinery (drain queues, join workers).
    /// Called by [`Server::join`] after the event loop has exited.
    fn wind_down(&self) {}
}

impl FrontEnd for Service {
    fn handle(&self, req: Request) -> Dispatch {
        match req {
            Request::Ping => Dispatch::Ready(Response::Pong),
            Request::Stats => Dispatch::Ready(Response::Stats(self.metrics_json())),
            Request::Fetch(key) => Dispatch::Ready(match self.client().fetch_artifact(&key) {
                Some(text) => Response::Artifact { key, text },
                None => Response::Err(SvcError::NotFound),
            }),
            Request::Schedule(req) => match self.client().submit(req) {
                Ok(ticket) => Dispatch::Pending(ticket),
                Err(e) => Dispatch::Ready(Response::Err(e)),
            },
            Request::Digest => Dispatch::Ready(match self.client().digest() {
                Ok(keys) => Response::Digest(keys),
                Err(e) => Response::Err(e),
            }),
            Request::Sync => {
                // A repair round talks to peers (possibly dead ones, each
                // costing a timeout), so it runs on its own thread; the
                // loop waits on the raw ticket like any pending schedule.
                let (ticket, sink) = ResponseTicket::pair();
                let client = self.client();
                let spawned = std::thread::Builder::new().name("ktiler-svc-sync-now".into()).spawn(
                    move || {
                        let (pulled, failed, peers) = client.sync_now();
                        sink.fulfill(Response::Synced { pulled, failed, peers });
                    },
                );
                match spawned {
                    Ok(_) => Dispatch::PendingRaw(ticket),
                    Err(e) => Dispatch::Ready(Response::Err(SvcError::Internal(format!(
                        "could not start sync round: {e}"
                    )))),
                }
            }
            Request::Drain { .. } => Dispatch::Ready(Response::Err(SvcError::BadRequest(
                "DRAIN is a gateway verb; nodes have no membership table".into(),
            ))),
            // Only reachable from direct callers; the loop intercepts it.
            Request::Shutdown => Dispatch::Ready(Response::Bye),
        }
    }

    fn wind_down(&self) {
        self.shutdown();
    }
}

/// A running TCP front-end over a [`FrontEnd`] (a [`Service`] by default).
pub struct Server<F: FrontEnd = Service> {
    local_addr: SocketAddr,
    front: Arc<F>,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    waker: Waker,
    loop_thread: Option<JoinHandle<()>>,
}

/// Starts serving `svc` on `addr` with default [`ServerTuning`]
/// (e.g. `127.0.0.1:0` for an ephemeral port; the bound address is
/// [`Server::local_addr`]).
///
/// # Errors
///
/// Any error from binding the listener.
pub fn serve<A: ToSocketAddrs>(addr: A, svc: Arc<Service>) -> io::Result<Server> {
    serve_with(addr, svc, ServerTuning::default())
}

/// Starts serving `svc` on `addr` with explicit socket tuning.
///
/// # Errors
///
/// Any error from binding the listener.
pub fn serve_with<A: ToSocketAddrs>(
    addr: A,
    svc: Arc<Service>,
    tuning: ServerTuning,
) -> io::Result<Server> {
    serve_front(addr, svc, tuning)
}

/// Starts an event loop serving any [`FrontEnd`] on `addr`.
///
/// # Errors
///
/// Any error from binding the listener, creating the doorbell or spawning
/// the loop thread.
pub fn serve_front<F: FrontEnd, A: ToSocketAddrs>(
    addr: A,
    front: Arc<F>,
    tuning: ServerTuning,
) -> io::Result<Server<F>> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let bell = Doorbell::new()?;
    let waker = bell.waker.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(0));
    let event_loop = EventLoop {
        listener: Some(listener),
        listener_ready: true,
        accept_paused_until: None,
        front: Arc::clone(&front),
        stop: Arc::clone(&stop),
        live: Arc::clone(&live),
        tuning,
        conns: Vec::new(),
        bell,
        fds: Vec::new(),
    };
    let loop_thread = std::thread::Builder::new()
        .name("ktiler-svc-eventloop".into())
        .spawn(move || event_loop.run())?;
    Ok(Server { local_addr, front, stop, live, waker, loop_thread: Some(loop_thread) })
}

impl<F: FrontEnd> Server<F> {
    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The front-end behind this server.
    pub fn service(&self) -> &Arc<F> {
        &self.front
    }

    /// Whether a stop was requested (by a `SHUTDOWN` request or
    /// [`Server::request_stop`]).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests a stop and wakes the event loop, which serves what's
    /// already in flight and exits.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Number of connections the event loop currently holds open.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Blocks until a stop is requested, then joins the event loop and
    /// winds the front-end down (draining queued requests). Returns the
    /// front-end so the caller can dump final metrics.
    pub fn join(mut self) -> Arc<F> {
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.front.wind_down();
        Arc::clone(&self.front)
    }
}

impl<F: FrontEnd> Drop for Server<F> {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }
}

/// One response slot of a connection. Responses go out strictly in
/// request order, so a slow schedule ahead of a fast ping holds the ping
/// back (per connection — other connections are unaffected).
enum Slot {
    /// Encoded response payload, ready to frame and write.
    Done(Vec<u8>),
    /// Still being computed; its fulfillment rings the doorbell.
    Wait(Ticket),
    /// A raw (non-schedule) response still being computed.
    WaitRaw(ResponseTicket),
}

/// Per-connection state between passes.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Responses owed to this connection, in request order.
    pending: VecDeque<Slot>,
    /// Framed bytes queued for writing; `out_pos` marks how far the socket
    /// has taken them.
    out: Vec<u8>,
    out_pos: usize,
    /// When the current half-received frame started (stall clock).
    mid_frame_since: Option<Instant>,
    /// Since when `out` has bytes the peer hasn't taken (write clock;
    /// reset on any write progress).
    write_since: Option<Instant>,
    /// Close once everything owed is flushed (after `BYE`, `ERR VERSION`,
    /// or a read-side EOF with responses still in flight).
    close_after_flush: bool,
    /// The read side is finished (EOF or lost framing); stop reading.
    read_closed: bool,
    /// The last `poll` reported input, a hang-up or an error (a fresh
    /// connection starts readable: its first request may already be here).
    readable: bool,
    /// Remove this connection at the end of the pass.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            dec: FrameDecoder::for_requests(),
            pending: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            mid_frame_since: None,
            write_since: None,
            close_after_flush: false,
            read_closed: false,
            readable: true,
            dead: false,
        }
    }

    /// Whether nothing is owed to this connection anymore.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.out_pos >= self.out.len()
    }

    /// Frames and queues one encoded response payload.
    fn queue_response(&mut self, payload: &[u8]) {
        // Writing into a Vec cannot fail.
        let _ = write_frame(&mut self.out, payload);
        if self.write_since.is_none() {
            self.write_since = Some(Instant::now());
        }
    }

    /// The `poll` events this connection waits for: input while the read
    /// side is open, writability while output is unflushed. Zero means
    /// "leave it out" — a half-closed peer would otherwise report
    /// `POLLHUP` on every call.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if !self.read_closed {
            events |= POLLIN;
        }
        if self.out_pos < self.out.len() {
            events |= POLLOUT;
        }
        events
    }

    /// The earliest instant at which [`EventLoop::enforce_deadlines`] or
    /// the head ticket's deadline needs the loop awake.
    fn next_deadline(&self, tuning: &ServerTuning) -> Option<Instant> {
        let head = match self.pending.front() {
            Some(Slot::Wait(ticket)) => ticket.deadline(),
            _ => None,
        };
        let stall = self.mid_frame_since.map(|t| t + tuning.stall_timeout);
        let write = self.write_since.filter(|_| self.out_pos < self.out.len());
        [head, stall, write.map(|t| t + tuning.write_timeout)].into_iter().flatten().min()
    }
}

/// The event loop: owns the listener, the doorbell and every connection.
struct EventLoop<F: FrontEnd> {
    listener: Option<TcpListener>,
    /// The last `poll` reported a connection to accept.
    listener_ready: bool,
    /// Set after a resource-starved accept; see [`ACCEPT_BACKOFF`].
    accept_paused_until: Option<Instant>,
    front: Arc<F>,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    tuning: ServerTuning,
    conns: Vec<Conn>,
    bell: Doorbell,
    /// The poll set, rebuilt before every wait: the doorbell, the
    /// listener, then one entry per connection in `conns` order.
    fds: Vec<PollFd>,
}

impl<F: FrontEnd> EventLoop<F> {
    fn run(mut self) {
        let mut buf = [0u8; 8192];
        loop {
            let stopping = self.stop.load(Ordering::SeqCst);
            if stopping {
                // Drain mode: no new connections, no new requests; serve
                // what's already in flight, flush, exit.
                self.listener = None;
                for c in &mut self.conns {
                    c.read_closed = true;
                    c.close_after_flush = true;
                    if c.drained() {
                        c.dead = true;
                    }
                }
            }
            if std::mem::take(&mut self.listener_ready) {
                self.accept_pending();
            }
            if !stopping {
                self.pump_reads(&mut buf);
            }
            self.promote_ready();
            self.flush_writes();
            self.enforce_deadlines();
            self.conns.retain(|c| !c.dead);
            self.live.store(self.conns.len(), Ordering::SeqCst);
            if stopping && self.conns.is_empty() {
                return;
            }
            // A SHUTDOWN read in this pass raised the flag: go round once
            // more to enter drain mode instead of sleeping first.
            if !stopping && self.stop.load(Ordering::SeqCst) {
                continue;
            }
            self.wait();
        }
    }

    /// Blocks until the doorbell rings, a watched socket is ready or the
    /// earliest deadline is due, then records what is ready for the next
    /// pass.
    fn wait(&mut self) {
        let now = Instant::now();
        let mut due = None;
        self.fds.clear();
        self.fds.push(PollFd::new(self.bell.rx.as_raw_fd(), POLLIN));
        if self.accept_paused_until.is_some_and(|t| t <= now) {
            self.accept_paused_until = None;
        }
        let listener_fd = match (&self.listener, self.accept_paused_until) {
            (Some(l), None) => l.as_raw_fd(),
            (Some(_), Some(t)) => {
                due = Some(t);
                -1
            }
            (None, _) => -1,
        };
        self.fds.push(PollFd::new(listener_fd, POLLIN));
        for c in &self.conns {
            let events = c.interest();
            let fd = if events == 0 { -1 } else { c.stream.as_raw_fd() };
            self.fds.push(PollFd::new(fd, events));
            due = due.into_iter().chain(c.next_deadline(&self.tuning)).min();
        }
        let timeout = due.map(|d: Instant| d.saturating_duration_since(now));
        if netpoll::poll(&mut self.fds, timeout).is_err() {
            // poll fails only for want of kernel memory; treat everything
            // as ready, which degrades this pass to a full sweep of
            // non-blocking calls and loses nothing.
            for p in &mut self.fds {
                p.revents = p.events;
            }
        }
        let mut ready = self.fds.iter().map(|p| p.revents & (POLLIN | POLLHUP | POLLERR) != 0);
        if ready.next() == Some(true) {
            self.bell.drain();
        }
        self.listener_ready = ready.next() == Some(true);
        for (c, r) in self.conns.iter_mut().zip(ready) {
            c.readable = r;
        }
    }

    /// Accepts every connection the listener has queued.
    fn accept_pending(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // A peer that gave up during the handshake costs nothing.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                // Out of descriptors or buffers: the connection waits in
                // the backlog until the backoff ends.
                Err(_) => {
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Reads whatever every ready connection has, feeding decoders and
    /// dispatching completed requests.
    fn pump_reads(&mut self, buf: &mut [u8]) {
        let mut events = Vec::new();
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if !std::mem::take(&mut c.readable) || c.dead || c.read_closed {
                continue;
            }
            loop {
                // Re-borrow per read: `dispatch` below also needs the
                // connection list.
                match self.conns[i].stream.read(buf) {
                    Ok(0) => {
                        // EOF. Close now if nothing is owed; otherwise
                        // serve the in-flight responses first.
                        let c = &mut self.conns[i];
                        c.read_closed = true;
                        if c.drained() {
                            c.dead = true;
                        } else {
                            c.close_after_flush = true;
                        }
                        break;
                    }
                    Ok(n) => {
                        if self.conns[i].dec.feed(&buf[..n], &mut events).is_err() {
                            // Framing lost; no reliable way to answer.
                            self.conns[i].dead = true;
                            break;
                        }
                        for ev in events.drain(..) {
                            self.dispatch(i, ev);
                        }
                        if self.conns[i].dead || self.conns[i].read_closed {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.conns[i].dead = true;
                        break;
                    }
                }
            }
            let c = &mut self.conns[i];
            if c.dec.mid_frame() {
                c.mid_frame_since.get_or_insert_with(Instant::now);
            } else {
                c.mid_frame_since = None;
            }
        }
    }

    /// Turns one decoder event of connection `i` into queued work.
    fn dispatch(&mut self, i: usize, ev: DecodeEvent) {
        match ev {
            DecodeEvent::BadVersion { got } => {
                let c = &mut self.conns[i];
                c.pending.push_back(Slot::Done(
                    Response::Err(SvcError::VersionMismatch { got, expected: PROTO_VERSION })
                        .encode(),
                ));
                // Reject-and-report: the reply goes out, then the
                // connection closes — no second chance to misparse.
                c.read_closed = true;
                c.close_after_flush = true;
            }
            DecodeEvent::Frame(payload) => match Request::decode(&payload) {
                Err(msg) => self.conns[i]
                    .pending
                    .push_back(Slot::Done(Response::Err(SvcError::BadRequest(msg)).encode())),
                Ok(Request::Shutdown) => {
                    let c = &mut self.conns[i];
                    c.pending.push_back(Slot::Done(Response::Bye.encode()));
                    c.read_closed = true;
                    c.close_after_flush = true;
                    self.stop.store(true, Ordering::SeqCst);
                }
                Ok(req) => {
                    let waker = &self.bell.waker;
                    let slot = match self.front.handle(req) {
                        Dispatch::Ready(resp) => Slot::Done(resp.encode()),
                        Dispatch::Pending(ticket) => {
                            ticket.set_waker(waker);
                            Slot::Wait(ticket)
                        }
                        Dispatch::PendingRaw(ticket) => {
                            ticket.cell.set_waker(waker);
                            Slot::WaitRaw(ticket)
                        }
                    };
                    self.conns[i].pending.push_back(slot);
                }
            },
            DecodeEvent::Oversized { declared } => {
                // The payload was discarded, framing is intact; answer
                // with a typed error and keep the connection.
                self.conns[i].pending.push_back(Slot::Done(
                    Response::Err(SvcError::BadRequest(format!(
                        "{declared}-byte request exceeds the {MAX_REQUEST_FRAME}-byte cap"
                    )))
                    .encode(),
                ));
            }
        }
    }

    /// Moves completed pending slots into each connection's write buffer,
    /// preserving per-connection request order.
    fn promote_ready(&mut self) {
        for c in &mut self.conns {
            if c.dead {
                continue;
            }
            while let Some(front) = c.pending.front_mut() {
                let payload = match front {
                    Slot::Done(p) => std::mem::take(p),
                    Slot::Wait(ticket) => match ticket.try_take() {
                        Some(Ok(resp)) => Response::Schedule(resp).encode(),
                        Some(Err(e)) => Response::Err(e).encode(),
                        None => break, // still computing; order bars later slots
                    },
                    Slot::WaitRaw(ticket) => match ticket.try_take() {
                        Some(resp) => resp.encode(),
                        None => break,
                    },
                };
                c.pending.pop_front();
                c.queue_response(&payload);
            }
        }
    }

    /// Writes whatever each connection's peer will take.
    fn flush_writes(&mut self) {
        for c in &mut self.conns {
            if c.dead || c.out_pos >= c.out.len() {
                continue;
            }
            loop {
                match c.stream.write(&c.out[c.out_pos..]) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.out_pos += n;
                        c.write_since = Some(Instant::now());
                        if c.out_pos >= c.out.len() {
                            c.out.clear();
                            c.out_pos = 0;
                            c.write_since = None;
                            if c.close_after_flush && c.pending.is_empty() {
                                c.dead = true;
                            }
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
        }
    }

    /// Drops stalled readers and stuck writers.
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        for c in &mut self.conns {
            if c.dead {
                continue;
            }
            if c.mid_frame_since.is_some_and(|t| now - t >= self.tuning.stall_timeout) {
                c.dead = true;
            }
            if c.out_pos < c.out.len()
                && c.write_since.is_some_and(|t| now - t >= self.tuning.write_timeout)
            {
                c.dead = true;
            }
        }
    }
}

/// Retry discipline of [`NetClient::request_with_retry`]: bounded
/// attempts with seeded, jittered exponential backoff.
///
/// The delay before retry `i` (1-based) is `base_delay * 2^(i-1)` capped
/// at `max_delay`, then jittered into the upper half of that range
/// (`[d/2, d]`) by a [`SplitMix64`] stream seeded from `seed` — two
/// clients with different seeds desynchronize instead of stampeding a
/// recovering server, and a fixed seed makes test timing reproducible.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `attempts: 1` never
    /// retries). Zero is treated as one.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling of the exponential backoff.
    pub max_delay: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed: 0x6b74_696c_6572, // "ktiler"
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `retry` (1-based).
    /// Deterministic in `(seed, retry)`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (retry.saturating_sub(1)).min(20))
            .min(self.max_delay);
        let mut rng = SplitMix64::new(self.seed ^ u64::from(retry));
        let half = exp / 2;
        let span_ns = exp.saturating_sub(half).as_nanos().min(u128::from(u64::MAX)) as u64;
        let jitter_ns = if span_ns == 0 { 0 } else { rng.next_u64() % (span_ns + 1) };
        half + Duration::from_nanos(jitter_ns)
    }
}

/// Whether a transport error is worth a reconnect-and-retry: the kinds a
/// crashing or restarting server produces, not protocol violations.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

/// A blocking TCP client speaking the framed protocol; used by
/// `ktiler_tool client`, the gateway's per-node forwarders, peer
/// read-through fills and the end-to-end tests.
pub struct NetClient {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl NetClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Any error from resolving the address, connecting or cloning the
    /// stream.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let (writer, reader) = Self::open(addr)?;
        Ok(NetClient { addr, writer, reader })
    }

    /// Connects with `timeout` bounding the dial **and** every later read
    /// and write on the connection — the flavor for talking to a peer or
    /// shard that may be dead: a gateway or node must spend bounded time
    /// discovering that, not a TCP handshake's patience.
    ///
    /// # Errors
    ///
    /// Any error from resolving, dialing within the timeout, or
    /// configuring the stream.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(NetClient { addr, writer, reader: BufReader::new(stream) })
    }

    fn open(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok((writer, BufReader::new(stream)))
    }

    /// Drops the current connection and dials the server again.
    ///
    /// # Errors
    ///
    /// Any error from connecting or cloning the stream.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let (writer, reader) = Self::open(self.addr)?;
        self.writer = writer;
        self.reader = reader;
        Ok(())
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`io::ErrorKind::InvalidData`] when the server
    /// answers with an undecodable frame;
    /// [`io::ErrorKind::UnexpectedEof`] when it hangs up first.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &req.encode())?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::decode(&payload).map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }

    /// Like [`NetClient::request`], but on a retryable transport error
    /// the client reconnects and tries again, up to
    /// [`RetryPolicy::attempts`] total attempts with
    /// [`RetryPolicy::backoff`] between them.
    ///
    /// Only [idempotent](Request::is_idempotent) requests are retried —
    /// resending `SHUTDOWN` after a torn reply could kill a server that
    /// was restarted in between. Non-idempotent requests and
    /// non-retryable errors (e.g. a protocol violation) fail on the first
    /// error, exactly like [`NetClient::request`].
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is exhausted.
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> io::Result<Response> {
        let attempts = policy.attempts.max(1);
        let mut last_err = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                std::thread::sleep(policy.backoff(attempt - 1));
                if let Err(e) = self.reconnect() {
                    if is_retryable(&e) && attempt < attempts {
                        last_err = Some(e);
                        continue;
                    }
                    return Err(e);
                }
            }
            match self.request(req) {
                Ok(resp) => return Ok(resp),
                Err(e) if req.is_idempotent() && is_retryable(&e) && attempt < attempts => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
    }
}

/// Asks the node at `addr` for the raw artifact of `key` (`FETCH`),
/// spending at most `timeout` on the dial and on each read/write. This is
/// the transport half of a read-through peer fill; the caller re-verifies
/// whatever comes back.
///
/// # Errors
///
/// Transport errors; [`io::ErrorKind::NotFound`] when the peer does not
/// hold the key; [`io::ErrorKind::InvalidData`] for any other reply.
pub fn fetch_from_peer(addr: &str, key: &CacheKey, timeout: Duration) -> io::Result<String> {
    let mut client = NetClient::connect_timeout(addr, timeout)?;
    match client.request(&Request::Fetch(*key))? {
        Response::Artifact { key: got, text } if got == *key => Ok(text),
        Response::Err(SvcError::NotFound) => {
            Err(io::Error::new(io::ErrorKind::NotFound, format!("peer {addr} does not hold {key}")))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected FETCH reply from {addr}: {other:?}"),
        )),
    }
}

/// Asks the node at `addr` for its live cache key set (`DIGEST`),
/// spending at most `timeout` on the dial and on each read/write — the
/// transport half of an anti-entropy round.
///
/// # Errors
///
/// Transport errors, or [`io::ErrorKind::InvalidData`] for any reply that
/// is not a digest.
pub fn digest_from_peer(addr: &str, timeout: Duration) -> io::Result<Vec<CacheKey>> {
    let mut client = NetClient::connect_timeout(addr, timeout)?;
    match client.request(&Request::Digest)? {
        Response::Digest(keys) => Ok(keys),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected DIGEST reply from {addr}: {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_monotone_capped_and_jittered_into_upper_half() {
        let p = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(400),
            seed: 7,
        };
        for retry in 1..=8 {
            let d = p.backoff(retry);
            assert_eq!(d, p.backoff(retry), "deterministic at retry {retry}");
            let exp = p.base_delay.saturating_mul(1u32 << (retry - 1).min(20)).min(p.max_delay);
            assert!(
                d >= exp / 2 && d <= exp,
                "retry {retry}: {d:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
        assert!(p.backoff(20) <= p.max_delay, "capped at max_delay");
        assert_ne!(
            RetryPolicy { seed: 8, ..p }.backoff(3),
            p.backoff(3),
            "seed changes the jitter"
        );
    }

    #[test]
    fn retryable_kinds() {
        assert!(is_retryable(&io::Error::new(io::ErrorKind::UnexpectedEof, "x")));
        assert!(is_retryable(&io::Error::new(io::ErrorKind::ConnectionRefused, "x")));
        assert!(is_retryable(&io::Error::new(io::ErrorKind::TimedOut, "x")));
        assert!(!is_retryable(&io::Error::new(io::ErrorKind::InvalidData, "x")));
        assert!(!is_retryable(&io::Error::other("x")));
    }

    #[test]
    fn fetch_from_a_dead_port_fails_fast() {
        // Nothing listens on this just-bound-then-dropped port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let t0 = Instant::now();
        let err = fetch_from_peer(&addr, &CacheKey { hi: 1, lo: 2 }, Duration::from_millis(500))
            .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(5), "bounded by the timeout");
        // Refused (nothing listening) or reset — either way a transport
        // error, not a hang.
        assert!(err.kind() != io::ErrorKind::InvalidData, "{err}");
    }
}
