//! The scheduling service: request types, worker pool, bounded queue,
//! single-flight deduplication and the cached pipeline.
//!
//! A request names a workload and an operating point; the service answers
//! with a verified schedule, preferring a content-addressed artifact from
//! the on-disk cache over recomputation. Concurrency shape:
//!
//! * **Bounded queue, shed on full** — `submit` never blocks: when the
//!   queue is at capacity the request is rejected immediately with
//!   [`SvcError::Shed`]. Under overload it is better to fail fast (the
//!   client can retry, back off or fall back to computing locally) than to
//!   build an unbounded backlog of requests that will all miss their
//!   deadlines anyway.
//! * **Per-request deadlines** — a job whose deadline passes while queued
//!   is dropped by the worker that dequeues it ([`SvcError::DeadlineExceeded`]);
//!   the waiting client enforces the same deadline on its side.
//! * **Single-flight** — identical requests (same workload, same operating
//!   point) that arrive while one is being computed attach to that
//!   computation instead of starting their own; N concurrent identical
//!   requests run the pipeline exactly once.
//! * **Verified once per process** — a bounded in-memory index maps each
//!   request's flight key to the artifact bytes this process has verified
//!   against its own graph and trace. A warm HIT reads the artifact and
//!   serves it if the bytes equal the indexed copy: no analysis, parse or
//!   re-verification. Anything else falls through to the full pipeline.
//!
//! Failure shape (see `DESIGN.md` §12 and the [`crate::fault`] module):
//! workers run each job under `catch_unwind`, so a panic becomes a
//! structured [`SvcError::Internal`] instead of a hung client; a
//! supervisor respawns any crashed worker so the pool never shrinks; all
//! locks recover from poisoning; and a failed pipeline degrades to a
//! verified **untiled** schedule ([`Outcome::DegradedUntiled`]) rather
//! than an error whenever that fallback itself succeeds.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_sim::{FreqConfig, GpuConfig};
use hsoptflow::{build_app, synthetic_pair, HsParams, OptFlowApp};
use kgraph::GraphTrace;
use ktiler::{
    calibrate, ktiler_schedule, schedule_from_text, schedule_to_text, verify_schedule,
    CalibrationConfig, KtilerConfig, Schedule, TileParams,
};

use crate::cache::{CacheProbe, ScheduleCache, StoreOutcome};
use crate::fault::{self, points, FaultInjector};
use crate::key::{schedule_cache_key, CacheKey, KeyHasher};
use crate::lru::Lru;
use crate::metrics::{bump, Metrics};
use crate::server::Waker;

/// How long the supervisor waits before retrying a respawn the OS refused.
const RESPAWN_RETRY: Duration = Duration::from_millis(10);

/// Entries in the verified index (flight key → verified artifact). An
/// entry holds one artifact's bytes, ~1–30 KB for the served workloads,
/// so a full index stays in the tens of megabytes; an evicted key costs
/// one full verification on its next read.
const VERIFIED_INDEX_CAPACITY: usize = 1024;

/// The workload a schedule is requested for.
///
/// Today the service knows one application family — the paper's
/// HSOpticalFlow pyramid at a configurable scale; the enum leaves room
/// for more without a protocol change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// The HSOpticalFlow application on synthetic frames.
    OptFlow {
        /// Frame width and height in pixels.
        size: u32,
        /// Jacobi iterations per pyramid step.
        iters: u32,
        /// Pyramid levels.
        levels: u32,
    },
}

impl WorkloadSpec {
    /// Checks the spec against the service's sanity bounds, so one absurd
    /// request (a 10⁶-pixel frame, a 10⁵-iteration solve) cannot pin a
    /// worker for hours.
    ///
    /// # Errors
    ///
    /// [`SvcError::BadRequest`] describing the offending field.
    pub fn validate(&self) -> Result<(), SvcError> {
        let WorkloadSpec::OptFlow { size, iters, levels } = *self;
        let bad = |m: String| Err(SvcError::BadRequest(m));
        if !(1..=6).contains(&levels) {
            return bad(format!("levels must be in 1..=6, got {levels}"));
        }
        if !(1..=500).contains(&iters) {
            return bad(format!("iters must be in 1..=500, got {iters}"));
        }
        if !(16..=2048).contains(&size) {
            return bad(format!("size must be in 16..=2048, got {size}"));
        }
        if size >> levels < 4 {
            return bad(format!("size {size} too small for {levels} pyramid levels"));
        }
        Ok(())
    }

    /// Builds the application (graph + device memory) for this spec.
    fn build(&self) -> OptFlowApp {
        let WorkloadSpec::OptFlow { size, iters, levels } = *self;
        let p = HsParams { levels, jacobi_iters: iters, warp_iters: 1, alpha2: 0.1 };
        let (f0, f1) = synthetic_pair(size, size, 1.0, 0.5, 7);
        build_app(&f0, &f1, &p)
    }

    /// Parses the wire form, e.g. `optflow size=64 iters=3 levels=2`.
    /// Omitted fields default to the harness scale (512 / 30 / 3).
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed token.
    pub fn parse(tokens: &[&str]) -> Result<Self, String> {
        let Some((&family, rest)) = tokens.split_first() else {
            return Err("missing workload family".into());
        };
        if family != "optflow" {
            return Err(format!("unknown workload family '{family}' (expected 'optflow')"));
        }
        let (mut size, mut iters, mut levels) = (512u32, 30u32, 3u32);
        for tok in rest {
            let Some((k, v)) = tok.split_once('=') else {
                return Err(format!("malformed token '{tok}' (expected key=value)"));
            };
            let v: u32 = v.parse().map_err(|_| format!("bad value in '{tok}'"))?;
            match k {
                "size" => size = v,
                "iters" => iters = v,
                "levels" => levels = v,
                _ => return Err(format!("unknown workload field '{k}'")),
            }
        }
        Ok(WorkloadSpec::OptFlow { size, iters, levels })
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let WorkloadSpec::OptFlow { size, iters, levels } = self;
        write!(f, "optflow size={size} iters={iters} levels={levels}")
    }
}

/// One schedule request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// The workload to schedule.
    pub workload: WorkloadSpec,
    /// GPU core clock in MHz.
    pub gpu_mhz: f64,
    /// Effective memory clock in MHz.
    pub mem_mhz: f64,
    /// Optional deadline, measured from submission. `None` waits forever.
    pub deadline_ms: Option<u64>,
}

impl ScheduleRequest {
    /// A request at the default operating point (1324, 5010) and no
    /// deadline.
    pub fn new(workload: WorkloadSpec) -> Self {
        let f = FreqConfig::default();
        ScheduleRequest { workload, gpu_mhz: f.gpu_mhz, mem_mhz: f.mem_mhz, deadline_ms: None }
    }

    /// The single-flight / memo identity of this request: everything that
    /// feeds the pipeline (workload and operating point), excluding the
    /// deadline — two requests differing only in patience are identical
    /// work.
    fn flight_key(&self) -> CacheKey {
        let mut h = KeyHasher::new();
        h.write_str("ktiler-svc request-key v1");
        h.write_str(&self.workload.to_string());
        h.write_f64(self.gpu_mhz);
        h.write_f64(self.mem_mhz);
        h.finish()
    }

    /// The key a multi-node deployment routes this request by: the flight
    /// key, computable from the request line alone. The full
    /// content-addressed artifact key needs analysis + calibration —
    /// exactly the work routing exists to place — so the ring hashes this
    /// cheap surrogate instead; both keys are pure functions of the same
    /// inputs, so a given request always routes to the same shard.
    pub fn routing_key(&self) -> CacheKey {
        self.flight_key()
    }

    fn validate(&self) -> Result<(), SvcError> {
        self.workload.validate()?;
        for (name, v) in [("gpu_mhz", self.gpu_mhz), ("mem_mhz", self.mem_mhz)] {
            if !(v.is_finite() && v > 0.0 && v <= 100_000.0) {
                return Err(SvcError::BadRequest(format!(
                    "{name} must be in (0, 100000], got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from a verified on-disk artifact.
    Hit,
    /// No artifact existed; the pipeline ran and the artifact was stored.
    Miss,
    /// An artifact existed but failed verification; the pipeline ran and
    /// the artifact was replaced.
    Recompute,
    /// The cache-aware pipeline failed; the service fell back to a
    /// verified **untiled** schedule (one launch per kernel, the paper's
    /// baseline order). Correct, never cached, and slower on the device —
    /// degraded, not an outage.
    DegradedUntiled,
    /// No local artifact existed, but a peer node's cache held one; it was
    /// fetched, re-verified locally, stored, and served — the read-through
    /// fill that lets a schedule computed on any node be served from every
    /// node without recomputation.
    PeerFill,
}

impl Outcome {
    /// The wire token of this outcome.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Hit => "HIT",
            Outcome::Miss => "MISS",
            Outcome::Recompute => "RECOMPUTE",
            Outcome::DegradedUntiled => "DEGRADED",
            Outcome::PeerFill => "PEER_FILL",
        }
    }

    /// Parses a wire token.
    pub fn from_str_token(s: &str) -> Option<Self> {
        match s {
            "HIT" => Some(Outcome::Hit),
            "MISS" => Some(Outcome::Miss),
            "RECOMPUTE" => Some(Outcome::Recompute),
            "DEGRADED" => Some(Outcome::DegradedUntiled),
            "PEER_FILL" => Some(Outcome::PeerFill),
            _ => None,
        }
    }
}

/// A served schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResponse {
    /// How the schedule was produced (single-flight followers inherit
    /// their leader's outcome).
    pub outcome: Outcome,
    /// The content-addressed key of the artifact.
    pub key: CacheKey,
    /// Number of launches in the schedule.
    pub launches: usize,
    /// The schedule in `.sched` text form — byte-identical between the
    /// miss that stored it and every later hit.
    pub text: String,
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcError {
    /// The queue was full; try again later.
    Shed,
    /// The deadline passed before the request was served.
    DeadlineExceeded,
    /// The service is shutting down.
    ShuttingDown,
    /// The request itself is invalid.
    BadRequest(String),
    /// The pipeline failed (analysis, calibration or tiling).
    Pipeline(String),
    /// A worker panicked while running the request; the panic was
    /// contained and converted into this structured response (the waiting
    /// client is answered, never left hung).
    Internal(String),
    /// The peer sent a frame of a protocol version this build does not
    /// speak. The frame was consumed (so this reply could be sent) and the
    /// connection is closed after it — never a silent misparse.
    VersionMismatch {
        /// The version the peer's frame carried.
        got: u8,
        /// The version this build speaks.
        expected: u8,
    },
    /// A `FETCH` for a key this node's cache does not hold — the normal
    /// answer for a peer read-through probe, not a failure of the node.
    NotFound,
}

impl SvcError {
    /// Stable wire code of this error.
    pub fn code(&self) -> &'static str {
        match self {
            SvcError::Shed => "SHED",
            SvcError::DeadlineExceeded => "DEADLINE",
            SvcError::ShuttingDown => "SHUTDOWN",
            SvcError::BadRequest(_) => "BAD_REQUEST",
            SvcError::Pipeline(_) => "PIPELINE",
            SvcError::Internal(_) => "INTERNAL",
            SvcError::VersionMismatch { .. } => "VERSION",
            SvcError::NotFound => "NOT_FOUND",
        }
    }

    /// Reconstructs an error from its wire code and message.
    pub fn from_code(code: &str, message: &str) -> Self {
        match code {
            "SHED" => SvcError::Shed,
            "DEADLINE" => SvcError::DeadlineExceeded,
            "SHUTDOWN" => SvcError::ShuttingDown,
            "BAD_REQUEST" => SvcError::BadRequest(message.to_string()),
            "INTERNAL" => SvcError::Internal(message.to_string()),
            "NOT_FOUND" => SvcError::NotFound,
            "VERSION" => {
                // Wire form "got=X expected=Y"; unparsable fields become 0
                // (the mismatch itself is the signal, not the digits).
                let field = |name: &str| {
                    message
                        .split_whitespace()
                        .find_map(|t| t.strip_prefix(name))
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0)
                };
                SvcError::VersionMismatch { got: field("got="), expected: field("expected=") }
            }
            _ => SvcError::Pipeline(message.to_string()),
        }
    }
}

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::Shed => write!(f, "queue full, request shed"),
            SvcError::DeadlineExceeded => write!(f, "deadline exceeded"),
            SvcError::ShuttingDown => write!(f, "service shutting down"),
            SvcError::BadRequest(m) => write!(f, "bad request: {m}"),
            SvcError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            SvcError::Internal(m) => write!(f, "internal error: {m}"),
            SvcError::VersionMismatch { got, expected } => {
                write!(
                    f,
                    "protocol version mismatch: peer sent v{got}, this build speaks v{expected}"
                )
            }
            SvcError::NotFound => write!(f, "no artifact for that key"),
        }
    }
}

impl std::error::Error for SvcError {}

/// Tunables of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory of the content-addressed schedule cache.
    pub cache_dir: PathBuf,
    /// Worker threads consuming the request queue.
    pub workers: usize,
    /// Queue capacity; a submit beyond it sheds.
    pub queue_capacity: usize,
    /// Capacity of the in-memory workload memo (analyzed + calibrated
    /// workloads), evicted least-recently-used first. A warm HIT served
    /// from the verified index does not touch the memo; misses,
    /// recomputes and the first read of a key in this process do.
    pub memo_capacity: usize,
    /// Device model used for analysis, calibration and verification.
    pub gpu: GpuConfig,
    /// Merge threshold forwarded to Algorithm 1 (the paper's `thld`).
    pub weight_threshold_ns: f64,
    /// Addresses of peer nodes to read-through-fill from: on a local cache
    /// miss, each peer is asked (`FETCH`) for the artifact before this
    /// node recomputes it. Empty for a single-node deployment.
    pub peers: Vec<String>,
    /// Connect/read/write timeout for one peer fetch attempt. Peers are a
    /// shortcut, not a dependency — a slow peer must cost less than the
    /// recompute it would have saved.
    pub peer_timeout: Duration,
    /// Size budget for the on-disk cache in bytes; `None` leaves the
    /// directory unbounded, `Some(n)` keeps it at or under `n` bytes via
    /// the LRU-by-mtime sweeper (see [`ScheduleCache::sweep`]).
    pub cache_budget_bytes: Option<u64>,
    /// How often the anti-entropy thread runs a repair round against the
    /// configured peers ([`Request::Sync`](crate::proto::Request::Sync)
    /// runs one on demand). `None` disables periodic repair; with no
    /// peers configured the thread is never spawned either way.
    pub sync_interval: Option<Duration>,
}

impl ServiceConfig {
    /// A config with the paper's defaults: 2 workers, a 64-deep queue,
    /// the GTX 960M device model and a 1 µs merge threshold.
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            cache_dir: cache_dir.into(),
            workers: 2,
            queue_capacity: 64,
            memo_capacity: 16,
            gpu: GpuConfig::gtx960m(),
            weight_threshold_ns: 1_000.0,
            peers: Vec::new(),
            peer_timeout: Duration::from_millis(500),
            cache_budget_bytes: None,
            sync_interval: None,
        }
    }
}

/// An artifact this process has verified against its own graph and
/// trace: what a warm HIT compares the bytes on disk with.
#[derive(Clone)]
struct Verified {
    /// The content-addressed key the artifact is stored under.
    key: CacheKey,
    /// The exact bytes that were verified.
    text: Arc<str>,
    launches: usize,
}

/// An analyzed + calibrated workload, shared read-only between workers.
struct Prepared {
    app: OptFlowApp,
    gt: GraphTrace,
    cal: ktiler::Calibration,
    kcfg: KtilerConfig,
    key: CacheKey,
}

/// One waiter's slot for a response: the value once it lands, and the
/// event loop to wake when it does. Shared by [`Ticket`] (schedules) and
/// [`ResponseTicket`](crate::server::ResponseTicket) (raw responses).
pub(crate) struct Cell<T> {
    state: Mutex<CellState<T>>,
    cv: Condvar,
}

struct CellState<T> {
    value: Option<T>,
    /// Rung once when the value lands; see [`Cell::set_waker`].
    waker: Option<Waker>,
}

impl<T> Cell<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Cell {
            state: Mutex::new(CellState { value: None, waker: None }),
            cv: Condvar::new(),
        })
    }

    /// Stores the value unless one is already there, then wakes the
    /// registered event loop. The value is set and the waker taken under
    /// one lock, the same lock [`Cell::set_waker`] registers under, so a
    /// wake is never lost: either the registration sees the value, or the
    /// fulfillment sees the waker.
    pub(crate) fn fulfill(&self, v: T) {
        let waker = {
            let mut st = fault::lock(&self.state);
            if st.value.is_some() {
                return;
            }
            st.value = Some(v);
            self.cv.notify_all();
            st.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Takes the value if one landed.
    pub(crate) fn take(&self) -> Option<T> {
        fault::lock(&self.state).value.take()
    }

    /// Asks for `waker` to be rung when the value lands — at once, if it
    /// already has.
    pub(crate) fn set_waker(&self, waker: &Waker) {
        let mut st = fault::lock(&self.state);
        if st.value.is_some() {
            drop(st);
            waker.wake();
        } else {
            st.waker = Some(waker.clone());
        }
    }

    /// Blocks until the value lands; `None` once `deadline` passes first.
    fn wait(&self, deadline: Option<Instant>) -> Option<T> {
        let mut st = fault::lock(&self.state);
        loop {
            if let Some(v) = st.value.take() {
                return Some(v);
            }
            match deadline {
                None => st = fault::cv_wait(&self.cv, st),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _) = fault::cv_wait_timeout(&self.cv, st, d - now);
                    st = guard;
                }
            }
        }
    }
}

/// What a schedule waiter receives.
type Reply = Result<ScheduleResponse, SvcError>;

/// A claim on a response being computed: handed out by [`Client::submit`],
/// taken without blocking by an event loop ([`Ticket::try_take`], woken
/// when the response lands) or awaited by a thread with nothing better to
/// do ([`Ticket::wait`]).
pub struct Ticket {
    cell: Arc<Cell<Reply>>,
    deadline: Option<Instant>,
}

/// The fulfilling half of a [`Ticket::pair`]: a frontend that answers
/// requests from its own worker threads (the gateway) hands the `Ticket`
/// to the event loop and keeps the sink.
pub struct TicketSink {
    cell: Arc<Cell<Reply>>,
}

impl Ticket {
    /// An unfulfilled ticket and the sink that fulfills it.
    pub fn pair(deadline: Option<Instant>) -> (Ticket, TicketSink) {
        let cell = Cell::new();
        (Ticket { cell: Arc::clone(&cell), deadline }, TicketSink { cell })
    }

    /// Takes the response if one is ready; `None` means still in flight.
    /// Past the ticket's deadline an unfulfilled ticket yields
    /// [`SvcError::DeadlineExceeded`] — the poller never waits forever on
    /// work that can no longer matter.
    pub fn try_take(&mut self) -> Option<Result<ScheduleResponse, SvcError>> {
        if let Some(r) = self.cell.take() {
            return Some(r);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Err(SvcError::DeadlineExceeded));
        }
        None
    }

    /// Blocks until the response is ready or the deadline passes.
    ///
    /// # Errors
    ///
    /// Whatever the computation produced, or [`SvcError::DeadlineExceeded`].
    pub fn wait(self) -> Result<ScheduleResponse, SvcError> {
        self.cell.wait(self.deadline).unwrap_or(Err(SvcError::DeadlineExceeded))
    }

    /// When an unfulfilled ticket turns into [`SvcError::DeadlineExceeded`].
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// See [`Cell::set_waker`].
    pub(crate) fn set_waker(&self, waker: &Waker) {
        self.cell.set_waker(waker);
    }
}

impl TicketSink {
    /// Fulfills the paired ticket. First fulfillment wins; later calls are
    /// ignored.
    pub fn fulfill(&self, r: Result<ScheduleResponse, SvcError>) {
        self.cell.fulfill(r);
    }
}

struct Job {
    req: ScheduleRequest,
    deadline: Option<Instant>,
    cell: Arc<Cell<Reply>>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Ids of workers whose loop has ended (a crash, or shutdown), pushed
    /// by their drop guard for the supervisor.
    exited: Vec<usize>,
}

struct Inner {
    cfg: ServiceConfig,
    cache: ScheduleCache,
    metrics: Arc<Metrics>,
    faults: Arc<FaultInjector>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// The anti-entropy loop sleeps on its own condvar (guarded by the
    /// queue mutex, whose shutdown flag it watches): if it shared
    /// `queue_cv`, an enqueue's `notify_one` could wake the sync thread
    /// instead of a worker and leave the job unserved.
    sync_cv: Condvar,
    /// The supervisor's condvar (same mutex), notified by every exiting
    /// worker and by shutdown.
    supervisor_cv: Condvar,
    /// Single-flight table: flight key → followers waiting on the leader.
    inflight: Mutex<HashMap<CacheKey, Vec<Arc<Cell<Reply>>>>>,
    /// Workload memo: flight key → prepared workload.
    memo: Mutex<Lru<CacheKey, Arc<Prepared>>>,
    /// Verified index: flight key → the artifact this process verified.
    /// Never persisted, so every process verifies each artifact once.
    verified: Mutex<Lru<CacheKey, Verified>>,
    /// Worker threads currently running their loop; decremented on any
    /// exit, including a panic unwind.
    live_workers: AtomicUsize,
}

/// The scheduling service: owns the worker pool (and the supervisor that
/// keeps it at full strength); hand out [`Client`]s to talk to it.
pub struct Service {
    inner: Arc<Inner>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    sync_thread: Mutex<Option<JoinHandle<()>>>,
}

/// An in-process handle to a [`Service`]; cheap to clone, sharable across
/// threads. Network clients go through `ktiler_serve` instead — both paths
/// drive the identical queue and pipeline.
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Service {
    /// Starts a service: opens the cache directory and spawns the workers
    /// plus the supervisor that respawns any worker that crashes.
    ///
    /// # Errors
    ///
    /// Any error from creating the cache directory or spawning the
    /// threads.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Service> {
        let metrics = Arc::new(Metrics::default());
        let faults = FaultInjector::inert();
        let cache = ScheduleCache::open(&cfg.cache_dir)?
            .with_faults(Arc::clone(&faults))
            .with_metrics(Arc::clone(&metrics))
            .with_budget(cfg.cache_budget_bytes);
        metrics.tmp_recovered.fetch_add(cache.tmp_recovered(), Ordering::Relaxed);
        let workers = cfg.workers.max(1);
        let sync_interval =
            if cfg.peers.is_empty() { None } else { cfg.sync_interval.filter(|d| !d.is_zero()) };
        let memo = Mutex::new(Lru::new(cfg.memo_capacity));
        let inner = Arc::new(Inner {
            cfg,
            cache,
            metrics,
            faults,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
                exited: Vec::new(),
            }),
            queue_cv: Condvar::new(),
            sync_cv: Condvar::new(),
            supervisor_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            memo,
            verified: Mutex::new(Lru::new(VERIFIED_INDEX_CAPACITY)),
            live_workers: AtomicUsize::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            handles.push(spawn_worker(&inner, i)?);
        }
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ktiler-svc-supervisor".into())
                .spawn(move || supervisor_loop(&inner, handles))?
        };
        let sync_thread = match sync_interval {
            Some(interval) => {
                let inner = Arc::clone(&inner);
                Some(
                    std::thread::Builder::new()
                        .name("ktiler-svc-anti-entropy".into())
                        .spawn(move || sync_loop(&inner, interval))?,
                )
            }
            None => None,
        };
        Ok(Service {
            inner,
            supervisor: Mutex::new(Some(supervisor)),
            sync_thread: Mutex::new(sync_thread),
        })
    }

    /// A new in-process client.
    pub fn client(&self) -> Client {
        Client { inner: Arc::clone(&self.inner) }
    }

    /// The service's metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// The service's fault injector — inert unless a
    /// [`crate::fault::FaultPlan`] is loaded into it (chaos tests do;
    /// production never does).
    pub fn faults(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.inner.faults)
    }

    /// Number of worker threads currently running. Dips below the
    /// configured pool size only for the instant between a worker crash
    /// and its respawn by the supervisor.
    pub fn live_workers(&self) -> usize {
        self.inner.live_workers.load(Ordering::SeqCst)
    }

    /// Renders the metrics registry as JSON.
    pub fn metrics_json(&self) -> String {
        self.inner.metrics.to_json()
    }

    /// Stops accepting requests, finishes the queued ones and joins the
    /// supervisor (which joins the workers). Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = fault::lock(&self.inner.queue);
            q.shutdown = true;
            self.inner.queue_cv.notify_all();
            self.inner.sync_cv.notify_all();
            self.inner.supervisor_cv.notify_all();
        }
        if let Some(h) = fault::lock(&self.supervisor).take() {
            let _ = h.join();
        }
        if let Some(h) = fault::lock(&self.sync_thread).take() {
            let _ = h.join();
        }
    }
}

/// The anti-entropy loop: one [`Inner::sync_round`] per interval, with a
/// shutdown-aware sleep (its condvar is notified at shutdown, so the
/// thread exits within one wakeup, not one interval).
fn sync_loop(inner: &Arc<Inner>, interval: Duration) {
    loop {
        let next = Instant::now() + interval;
        {
            let mut q = fault::lock(&inner.queue);
            loop {
                if q.shutdown {
                    return;
                }
                let now = Instant::now();
                if now >= next {
                    break;
                }
                let (guard, _) = fault::cv_wait_timeout(&inner.sync_cv, q, next - now);
                q = guard;
            }
        }
        inner.sync_round();
    }
}

fn spawn_worker(inner: &Arc<Inner>, id: usize) -> std::io::Result<JoinHandle<()>> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("ktiler-svc-worker-{id}"))
        .spawn(move || inner.worker_loop(id))
}

/// Keeps the pool at full strength: any worker that exits while the
/// service is running (i.e. crashed — a clean exit only happens at
/// shutdown) is joined and replaced in place. Sleeps on its condvar until
/// a worker's drop guard reports an exit, so an idle pool costs nothing.
fn supervisor_loop(inner: &Arc<Inner>, mut handles: Vec<JoinHandle<()>>) {
    let mut q = fault::lock(&inner.queue);
    loop {
        if q.shutdown {
            drop(q);
            for h in handles {
                let _ = h.join();
            }
            return;
        }
        let Some(id) = q.exited.pop() else {
            q = fault::cv_wait(&inner.supervisor_cv, q);
            continue;
        };
        drop(q);
        // Spawn the replacement first so the pool shrinks only while the
        // crashed thread finishes unwinding; if the OS refuses, retry.
        match spawn_worker(inner, id) {
            Ok(fresh) => {
                let _ = std::mem::replace(&mut handles[id], fresh).join();
                bump(&inner.metrics.workers_respawned);
                q = fault::lock(&inner.queue);
            }
            Err(_) => {
                q = fault::lock(&inner.queue);
                q.exited.push(id);
                q = fault::cv_wait_timeout(&inner.supervisor_cv, q, RESPAWN_RETRY).0;
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Client {
    /// Requests a schedule, blocking until it is served, the deadline
    /// passes, or the request is shed.
    ///
    /// # Errors
    ///
    /// See [`SvcError`]; [`SvcError::Shed`] and
    /// [`SvcError::DeadlineExceeded`] are expected under load and should
    /// be retried or degraded by the caller.
    pub fn schedule(&self, req: ScheduleRequest) -> Result<ScheduleResponse, SvcError> {
        self.submit(req)?.wait()
    }

    /// Enqueues a schedule request without waiting for its result — the
    /// non-blocking half of [`Client::schedule`], for callers (the event
    /// loop) that multiplex many requests on one thread and take the
    /// returned [`Ticket`]'s response when it lands instead of parking on
    /// it.
    ///
    /// # Errors
    ///
    /// [`SvcError::ShuttingDown`], [`SvcError::Shed`], or a validation
    /// error — everything that can be known at submission time.
    pub fn submit(&self, req: ScheduleRequest) -> Result<Ticket, SvcError> {
        req.validate()?;
        let deadline = req.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let cell = Cell::new();
        {
            let mut q = fault::lock(&self.inner.queue);
            if q.shutdown {
                return Err(SvcError::ShuttingDown);
            }
            if q.jobs.len() >= self.inner.cfg.queue_capacity {
                bump(&self.inner.metrics.sheds);
                return Err(SvcError::Shed);
            }
            bump(&self.inner.metrics.requests);
            q.jobs.push_back(Job { req, deadline, cell: Arc::clone(&cell) });
            self.inner.queue_cv.notify_one();
        }
        Ok(Ticket { cell, deadline })
    }

    /// The raw artifact text of `key` from this node's cache, if present —
    /// answers a peer's `FETCH` during its read-through fill.
    pub fn fetch_artifact(&self, key: &CacheKey) -> Option<String> {
        let text = self.inner.cache.load_text(key)?;
        bump(&self.inner.metrics.fetches_served);
        Some(text)
    }

    /// The node's live cache key set — answers the anti-entropy `DIGEST`
    /// verb. Quarantined artifacts are absent by design, which is what
    /// makes a peer's good copy eligible to be pulled back in.
    ///
    /// # Errors
    ///
    /// [`SvcError::Internal`] when the cache directory cannot be read.
    pub fn digest(&self) -> Result<Vec<CacheKey>, SvcError> {
        let keys = self
            .inner
            .cache
            .keys()
            .map_err(|e| SvcError::Internal(format!("digest failed: {e}")))?;
        bump(&self.inner.metrics.digests_served);
        Ok(keys)
    }

    /// Runs one anti-entropy repair round right now (the `SYNC` verb);
    /// returns `(pulled, failed, peers_consulted)`.
    pub fn sync_now(&self) -> (u64, u64, usize) {
        self.inner.sync_round()
    }

    /// Renders the metrics registry as JSON.
    pub fn metrics_json(&self) -> String {
        self.inner.metrics.to_json()
    }
}

impl Inner {
    fn worker_loop(&self, id: usize) {
        // Live-worker accounting that survives a panic unwind: the guard's
        // Drop runs whether the loop returns or unwinds, and reports the
        // exit to the supervisor.
        struct Live<'a>(&'a Inner, usize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                let Live(inner, id) = *self;
                inner.live_workers.fetch_sub(1, Ordering::SeqCst);
                fault::lock(&inner.queue).exited.push(id);
                inner.supervisor_cv.notify_one();
            }
        }
        self.live_workers.fetch_add(1, Ordering::SeqCst);
        let _live = Live(self, id);
        loop {
            // Wait until work is queued (or the queue drained at
            // shutdown) — without popping yet.
            {
                let mut q = fault::lock(&self.queue);
                loop {
                    if !q.jobs.is_empty() {
                        break;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = fault::cv_wait(&self.queue_cv, q);
                }
            }
            // Fault point outside any job's scope: a panic here kills this
            // worker, but the job is still queued and survives to whatever
            // worker (respawned or sibling) pops it next; a delay here
            // models a slow dequeue.
            self.faults.fire(points::QUEUE_DEQUEUE);
            let popped = fault::lock(&self.queue).jobs.pop_front();
            let Some(job) = popped else { continue };
            self.process_job(job);
        }
    }

    /// Runs one job start to finish: deadline check, single-flight
    /// attachment, the pipeline under `catch_unwind`, the degraded
    /// fallback, and fulfillment of every waiter. A panic anywhere in the
    /// pipeline becomes a structured response — the waiting client is
    /// always answered and the single-flight entry always removed.
    fn process_job(&self, job: Job) {
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            bump(&self.metrics.deadline_expired);
            job.cell.fulfill(Err(SvcError::DeadlineExceeded));
            return;
        }
        let fk = job.req.flight_key();
        {
            let mut inflight = fault::lock(&self.inflight);
            if let Some(waiters) = inflight.get_mut(&fk) {
                // An identical request is already being computed:
                // attach and let the leader's result serve this one.
                waiters.push(Arc::clone(&job.cell));
                bump(&self.metrics.coalesced);
                return;
            }
            inflight.insert(fk, Vec::new());
        }
        // AssertUnwindSafe: everything the closure shares is either atomic
        // or behind the poison-recovering lock helpers, so observing a
        // post-panic state is safe by construction.
        let result = match catch_unwind(AssertUnwindSafe(|| self.run_pipeline(&job.req))) {
            Ok(r) => r,
            Err(payload) => {
                bump(&self.metrics.worker_panics);
                Err(SvcError::Internal(fault::panic_message(payload.as_ref())))
            }
        };
        // Degraded-mode fallback: when the cache-aware pipeline failed (or
        // panicked), a correct cache-oblivious answer is still safe to
        // serve — degrade to the untiled schedule, never to an outage.
        let result = match result {
            Err(primary @ (SvcError::Pipeline(_) | SvcError::Internal(_))) => {
                match catch_unwind(AssertUnwindSafe(|| self.degraded_untiled(&job.req, fk))) {
                    Ok(Ok(resp)) => {
                        bump(&self.metrics.degraded_total);
                        Ok(resp)
                    }
                    // The fallback failed too; report the primary error.
                    Ok(Err(_)) | Err(_) => Err(primary),
                }
            }
            r => r,
        };
        if result.is_err() {
            bump(&self.metrics.errors);
        }
        let waiters = fault::lock(&self.inflight).remove(&fk).unwrap_or_default();
        for w in &waiters {
            w.fulfill(result.clone());
        }
        job.cell.fulfill(result);
    }

    /// The degraded fallback: the untiled baseline schedule (one launch
    /// per kernel in topological order), verified before serving. Runs
    /// only the minimal pipeline prefix it needs (build + analyze), skips
    /// calibration and tiling entirely, and never touches the cache — the
    /// artifact store is reserved for cache-aware schedules. The response
    /// is keyed by the flight key, since no content-addressed artifact
    /// exists for it.
    fn degraded_untiled(
        &self,
        req: &ScheduleRequest,
        fk: CacheKey,
    ) -> Result<ScheduleResponse, SvcError> {
        let t0 = Instant::now();
        let mut app = req.workload.build();
        let gpu = &self.cfg.gpu;
        // Fast-path analysis: the fallback only needs traces and block
        // dependencies for verification, never output values.
        let gt = kgraph::analyze_fast(&app.graph, &mut app.mem, gpu.cache.line_bytes)
            .map_err(|e| SvcError::Internal(format!("degraded fallback: analysis failed: {e}")))?;
        let schedule = Schedule::default_order(&app.graph);
        let params = TileParams::paper(gpu.cache.capacity_bytes, gpu.cache.line_bytes, 0.0);
        let report = verify_schedule(&schedule, &app.graph, &gt, &params);
        if !report.is_clean() {
            return Err(SvcError::Internal(format!(
                "degraded fallback: untiled schedule failed verification: {report}"
            )));
        }
        let text = schedule_to_text(&schedule);
        self.metrics.total_latency.record(t0.elapsed());
        Ok(ScheduleResponse {
            outcome: Outcome::DegradedUntiled,
            key: fk,
            launches: schedule.num_launches(),
            text,
        })
    }

    /// Memo lookup or analyze + calibrate.
    fn prepare(&self, req: &ScheduleRequest, fk: CacheKey) -> Result<Arc<Prepared>, SvcError> {
        if let Some(p) = fault::lock(&self.memo).get(&fk) {
            return Ok(Arc::clone(p));
        }
        self.faults
            .fire_io(points::FRAME_IO)
            .map_err(|e| SvcError::Pipeline(format!("frame I/O failed: {e}")))?;
        let mut app = req.workload.build();
        let gpu = self.cfg.gpu.clone();
        self.faults
            .fire_io(points::PIPELINE_ANALYZE)
            .map_err(|e| SvcError::Pipeline(format!("analysis failed: {e}")))?;
        // Fast-path analysis: scheduling consumes traces and dependencies
        // only, so kernels whose values no recorded kernel reads are never
        // functionally executed. `analyze_latency` times exactly this call
        // — the per-cache-miss analyzer cost surfaced in the STATS JSON.
        let t_analyze = Instant::now();
        let gt = kgraph::analyze_fast(&app.graph, &mut app.mem, gpu.cache.line_bytes)
            .map_err(|e| SvcError::Pipeline(format!("analysis failed: {e}")))?;
        self.metrics.analyze_latency.record(t_analyze.elapsed());
        self.faults
            .fire_io(points::PIPELINE_CALIBRATE)
            .map_err(|e| SvcError::Pipeline(format!("calibration failed: {e}")))?;
        let freq = FreqConfig::new(req.gpu_mhz, req.mem_mhz);
        let cal = calibrate(&app.graph, &gt, &gpu, freq, &CalibrationConfig::default());
        let kcfg = KtilerConfig {
            weight_threshold_ns: self.cfg.weight_threshold_ns,
            tile: TileParams::paper(gpu.cache.capacity_bytes, gpu.cache.line_bytes, 0.0),
        };
        let key = schedule_cache_key(&app.graph, &gt, &gpu.cache, &cal, &kcfg);
        bump(&self.metrics.analysis_runs);
        let prepared = Arc::new(Prepared { app, gt, cal, kcfg, key });
        fault::lock(&self.memo).insert(fk, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// The warm HIT: serves the artifact of `fk` when its bytes on disk
    /// equal the copy this process verified, with no analysis, parse or
    /// re-verification. The compare is of exact bytes, not of a hash, so
    /// only verified bytes are ever served this way. A missing file, a
    /// mismatch or an injected `cache.load` fault drops the entry and
    /// returns `None`; the caller then runs the full pipeline, which does
    /// its own counting.
    fn serve_verified(&self, fk: CacheKey, t_total: Instant) -> Option<ScheduleResponse> {
        let v = fault::lock(&self.verified).get(&fk).cloned()?;
        let t_load = Instant::now();
        let text = match self.faults.fire_io(points::CACHE_LOAD) {
            Ok(()) => self.cache.load_text(&v.key),
            Err(_) => None,
        };
        let Some(text) = text.filter(|t| *t == *v.text) else {
            fault::lock(&self.verified).remove(&fk);
            return None;
        };
        bump(&self.metrics.cache_hits);
        self.metrics.cache_load_latency.record(t_load.elapsed());
        self.metrics.total_latency.record(t_total.elapsed());
        Some(ScheduleResponse { outcome: Outcome::Hit, key: v.key, launches: v.launches, text })
    }

    /// Records that the artifact of `key` on disk is `text`, which this
    /// process has verified (or computed and validated) for the request
    /// of flight key `fk`. Call only once the bytes on disk are known to
    /// equal `text`.
    fn index_verified(&self, fk: CacheKey, key: CacheKey, text: &str, launches: usize) {
        fault::lock(&self.verified).insert(fk, Verified { key, text: Arc::from(text), launches });
    }

    /// The full cached pipeline: verified index → prepare → probe cache →
    /// peer fill → compute + store.
    fn run_pipeline(&self, req: &ScheduleRequest) -> Result<ScheduleResponse, SvcError> {
        let t_total = Instant::now();
        let fk = req.flight_key();
        if let Some(resp) = self.serve_verified(fk, t_total) {
            return Ok(resp);
        }
        let p = self.prepare(req, fk)?;

        let t_load = Instant::now();
        let probe = match self.faults.fire_io(points::CACHE_LOAD) {
            // An injected load failure degrades to a recompute, exactly
            // like a real unreadable artifact.
            Err(e) => CacheProbe::Invalid(format!("injected load failure: {e}")),
            Ok(()) => self.cache.probe(&p.key, &p.app.graph, &p.gt, &p.kcfg.tile),
        };
        self.metrics.cache_load_latency.record(t_load.elapsed());
        let outcome = match probe {
            CacheProbe::Hit { text, schedule } => {
                bump(&self.metrics.cache_hits);
                let launches = schedule.num_launches();
                self.index_verified(fk, p.key, &text, launches);
                self.metrics.total_latency.record(t_total.elapsed());
                return Ok(ScheduleResponse { outcome: Outcome::Hit, key: p.key, launches, text });
            }
            CacheProbe::Absent => {
                bump(&self.metrics.cache_misses);
                Outcome::Miss
            }
            CacheProbe::Invalid(_reason) => {
                bump(&self.metrics.verify_failures);
                Outcome::Recompute
            }
        };

        // Peer read-through: before paying for a recompute, ask the peer
        // nodes whether one of them already holds this artifact. Strictly
        // an optimization — any peer failure falls through to the local
        // pipeline below.
        if let Some(resp) = self.peer_fill(&p, fk, t_total) {
            return Ok(resp);
        }

        let t_tile = Instant::now();
        self.faults
            .fire_io(points::PIPELINE_SCHEDULE)
            .map_err(|e| SvcError::Pipeline(format!("tiling failed: {e}")))?;
        let out = ktiler_schedule(&p.app.graph, &p.gt, &p.cal, &p.kcfg)
            .map_err(|e| SvcError::Pipeline(format!("tiling failed: {e}")))?;
        out.schedule
            .validate(&p.app.graph, &p.gt.deps)
            .map_err(|e| SvcError::Pipeline(format!("emitted schedule invalid: {e}")))?;
        bump(&self.metrics.pipeline_runs);
        self.metrics.tile_latency.record(t_tile.elapsed());

        let text = schedule_to_text(&out.schedule);
        let launches = out.schedule.num_launches();
        match self
            .faults
            .fire_io(points::CACHE_STORE)
            .and_then(|()| self.cache.store(&p.key, &text))
        {
            Ok(StoreOutcome::Stored) => self.index_verified(fk, p.key, &text, launches),
            Ok(StoreOutcome::SkippedNoSpace) => {}
            // The response is still good; only persistence was lost.
            Err(_) => bump(&self.metrics.store_failures),
        }
        self.metrics.total_latency.record(t_total.elapsed());
        Ok(ScheduleResponse { outcome, key: p.key, launches, text })
    }

    /// Tries to fill a local cache miss from a peer node's cache. The
    /// fetched text is untrusted: it is parsed and fully verified against
    /// **this** node's graph, trace and tiling parameters before being
    /// stored and served — a peer can save this node work, never hand it
    /// a wrong schedule. Once stored, the verified bytes enter the
    /// verified index like a local computation's. Returns `None` when no
    /// peer helped (no peers configured, injected fault, transport
    /// failure, key not held, or verification failure); the caller
    /// recomputes.
    fn peer_fill(&self, p: &Prepared, fk: CacheKey, t_total: Instant) -> Option<ScheduleResponse> {
        if self.cfg.peers.is_empty() {
            return None;
        }
        if self.faults.fire_io(points::PEER_FETCH).is_err() {
            bump(&self.metrics.peer_fetch_failures);
            return None;
        }
        for peer in &self.cfg.peers {
            let text = match crate::server::fetch_from_peer(peer, &p.key, self.cfg.peer_timeout) {
                Ok(t) => t,
                Err(_) => {
                    bump(&self.metrics.peer_fetch_failures);
                    continue;
                }
            };
            let Ok(schedule) = schedule_from_text(&text) else {
                bump(&self.metrics.peer_fetch_failures);
                continue;
            };
            let report = verify_schedule(&schedule, &p.app.graph, &p.gt, &p.kcfg.tile);
            if !report.is_clean() {
                bump(&self.metrics.peer_fetch_failures);
                continue;
            }
            let launches = schedule.num_launches();
            match self.cache.store(&p.key, &text) {
                Ok(StoreOutcome::Stored) => self.index_verified(fk, p.key, &text, launches),
                Ok(StoreOutcome::SkippedNoSpace) => {}
                // Still serve the response; only persistence was lost.
                Err(_) => bump(&self.metrics.store_failures),
            }
            bump(&self.metrics.peer_fills);
            self.metrics.total_latency.record(t_total.elapsed());
            return Some(ScheduleResponse {
                outcome: Outcome::PeerFill,
                key: p.key,
                launches,
                text,
            });
        }
        None
    }

    /// One anti-entropy repair round: ask each configured peer for its key
    /// digest, pull every key this node is missing, and store it after a
    /// parse sanity check. Full verification needs the request's graph and
    /// trace, so it happens on the first read of the pulled artifact; only
    /// then do its bytes enter the verified index. Returns
    /// `(pulled, failed, peers_consulted)`.
    ///
    /// Routing keys are not content keys, so a node cannot range-filter
    /// the digest to "its" ring segment; replica groups exchange whole key
    /// sets, which is exactly what lets a node restarted empty converge to
    /// warm without any client traffic. A key whose local artifact was
    /// quarantined is missing from the local digest and is therefore
    /// re-pulled automatically.
    fn sync_round(&self) -> (u64, u64, usize) {
        let mut pulled: u64 = 0;
        let mut failed: u64 = 0;
        let mut local: std::collections::HashSet<CacheKey> =
            self.cache.keys().unwrap_or_default().into_iter().collect();
        for peer in &self.cfg.peers {
            let keys = match crate::server::digest_from_peer(peer, self.cfg.peer_timeout) {
                Ok(keys) => keys,
                Err(_) => {
                    failed += 1;
                    bump(&self.metrics.sync_pull_failures);
                    continue;
                }
            };
            for key in keys {
                if local.contains(&key) {
                    continue;
                }
                let ok = crate::server::fetch_from_peer(peer, &key, self.cfg.peer_timeout)
                    .ok()
                    .filter(|text| schedule_from_text(text).is_ok())
                    .is_some_and(|text| {
                        matches!(self.cache.store(&key, &text), Ok(StoreOutcome::Stored))
                    });
                if ok {
                    local.insert(key);
                    pulled += 1;
                    bump(&self.metrics.sync_pulls);
                } else {
                    failed += 1;
                    bump(&self.metrics.sync_pull_failures);
                }
            }
        }
        bump(&self.metrics.sync_rounds);
        (pulled, failed, self.cfg.peers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_spec_parse_and_display_roundtrip() {
        let spec = WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 };
        let shown = spec.to_string();
        assert_eq!(shown, "optflow size=64 iters=3 levels=2");
        let tokens: Vec<&str> = shown.split_whitespace().collect();
        assert_eq!(WorkloadSpec::parse(&tokens).unwrap(), spec);
        // Defaults fill omitted fields.
        assert_eq!(
            WorkloadSpec::parse(&["optflow"]).unwrap(),
            WorkloadSpec::OptFlow { size: 512, iters: 30, levels: 3 }
        );
        assert!(WorkloadSpec::parse(&["mandelbrot"]).is_err());
        assert!(WorkloadSpec::parse(&["optflow", "size"]).is_err());
        assert!(WorkloadSpec::parse(&["optflow", "size=abc"]).is_err());
        assert!(WorkloadSpec::parse(&["optflow", "frames=2"]).is_err());
        assert!(WorkloadSpec::parse(&[]).is_err());
    }

    #[test]
    fn spec_validation_bounds() {
        assert!(WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 }.validate().is_ok());
        for bad in [
            WorkloadSpec::OptFlow { size: 8, iters: 3, levels: 2 },
            WorkloadSpec::OptFlow { size: 4096, iters: 3, levels: 2 },
            WorkloadSpec::OptFlow { size: 64, iters: 0, levels: 2 },
            WorkloadSpec::OptFlow { size: 64, iters: 501, levels: 2 },
            WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 0 },
            WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 7 },
            WorkloadSpec::OptFlow { size: 16, iters: 3, levels: 3 },
        ] {
            assert!(
                matches!(bad.validate(), Err(SvcError::BadRequest(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn flight_key_ignores_deadline_but_not_operating_point() {
        let spec = WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 };
        let a = ScheduleRequest::new(spec);
        let b = ScheduleRequest { deadline_ms: Some(5), ..a.clone() };
        assert_eq!(a.flight_key(), b.flight_key());
        let c = ScheduleRequest { mem_mhz: 1600.0, ..a.clone() };
        assert_ne!(a.flight_key(), c.flight_key());
    }

    #[test]
    fn request_validation_rejects_bad_frequencies() {
        let spec = WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 };
        for (g, m) in [(0.0, 5010.0), (-1.0, 5010.0), (1324.0, f64::NAN), (1324.0, 1e9)] {
            let req = ScheduleRequest { gpu_mhz: g, mem_mhz: m, ..ScheduleRequest::new(spec) };
            assert!(matches!(req.validate(), Err(SvcError::BadRequest(_))), "({g}, {m})");
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for e in [
            SvcError::Shed,
            SvcError::DeadlineExceeded,
            SvcError::ShuttingDown,
            SvcError::BadRequest("x".into()),
            SvcError::Pipeline("y".into()),
            SvcError::Internal("z".into()),
            SvcError::NotFound,
        ] {
            let back = SvcError::from_code(
                e.code(),
                match &e {
                    SvcError::BadRequest(m) | SvcError::Pipeline(m) | SvcError::Internal(m) => m,
                    _ => "",
                },
            );
            assert_eq!(back, e);
        }
        let vm = SvcError::VersionMismatch { got: 3, expected: 1 };
        assert_eq!(SvcError::from_code(vm.code(), "got=3 expected=1"), vm);
        assert_eq!(
            SvcError::from_code("VERSION", "garbled"),
            SvcError::VersionMismatch { got: 0, expected: 0 },
            "unparsable fields degrade to 0, the mismatch itself survives"
        );
    }

    #[test]
    fn outcome_tokens_roundtrip() {
        for o in [
            Outcome::Hit,
            Outcome::Miss,
            Outcome::Recompute,
            Outcome::DegradedUntiled,
            Outcome::PeerFill,
        ] {
            assert_eq!(Outcome::from_str_token(o.as_str()), Some(o));
        }
        assert_eq!(Outcome::from_str_token("NOPE"), None);
    }
}
