//! Chaos suite: seeded fault plans against the live service.
//!
//! Every test arms a deterministic [`FaultPlan`] (seed from
//! `KTILER_CHAOS_SEED`, fixed default) and asserts the containment
//! contract: the service stays live, every non-faulted request is
//! answered, responses are byte-identical to no-fault runs once the
//! faults clear, no client waits past its deadline plus the backoff
//! budget, and the metrics account for every failure.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ktiler_svc::fault::{points, FaultPlan, FaultSpec};
use ktiler_svc::metrics::Metrics;
use ktiler_svc::proto::{read_frame, write_frame, Request, Response};
use ktiler_svc::{
    serve_with, NetClient, Outcome, RetryPolicy, ScheduleRequest, ServerTuning, Service,
    ServiceConfig, SvcError, WorkloadSpec,
};

/// The seed every plan in this suite derives from; override with
/// `KTILER_CHAOS_SEED=<n>` to explore other jitter streams (the
/// assertions hold for any seed — determinism is per-seed).
fn chaos_seed() -> u64 {
    std::env::var("KTILER_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ktiler-chaos-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

fn small_request() -> ScheduleRequest {
    ScheduleRequest::new(WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 })
}

/// The schedule text a pristine, fault-free service computes for
/// [`small_request`]; the determinism baseline the chaos runs are
/// compared against byte for byte.
fn baseline_text(tag: &str) -> String {
    let dir = temp_dir(tag);
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let resp = svc.client().schedule(small_request()).unwrap();
    assert_eq!(resp.outcome, Outcome::Miss);
    svc.shutdown();
    cleanup(&dir);
    resp.text
}

/// Polls `cond` until it holds or `within` elapses.
fn eventually(within: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + within;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn pipeline_panic_degrades_to_verified_untiled_then_recovers_byte_identical() {
    let expected = baseline_text("panic-base");
    let dir = temp_dir("panic");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.workers = 2;
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();

    svc.faults().load_plan(
        &FaultPlan::new(chaos_seed()).arm(points::PIPELINE_SCHEDULE, FaultSpec::panic()),
    );

    // The tiler panics mid-pipeline; the worker catches it and serves the
    // verified untiled fallback instead of hanging or erroring.
    let degraded = client.schedule(small_request()).expect("degraded, not failed");
    assert_eq!(degraded.outcome, Outcome::DegradedUntiled);
    assert!(degraded.launches > 0);
    assert!(!degraded.text.is_empty());

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.worker_panics), 1);
    assert_eq!(Metrics::get(&m.degraded_total), 1);
    assert_eq!(Metrics::get(&m.errors), 0, "a degraded answer is not an error");
    assert_eq!(svc.live_workers(), 2, "a caught panic must not kill the worker");

    // Fault cleared: the same request computes the exact no-fault bytes,
    // and nothing bogus was cached meanwhile.
    svc.faults().clear();
    let miss = client.schedule(small_request()).unwrap();
    assert_eq!(miss.outcome, Outcome::Miss, "degraded responses are never cached");
    assert_eq!(miss.text, expected, "recovery must be byte-identical to a no-fault run");
    let hit = client.schedule(small_request()).unwrap();
    assert_eq!(hit.outcome, Outcome::Hit);
    assert_eq!(hit.text, expected);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn pipeline_io_failure_degrades_without_a_panic() {
    let expected = baseline_text("io-base");
    let dir = temp_dir("io");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    svc.faults().load_plan(
        &FaultPlan::new(chaos_seed()).arm(points::FRAME_IO, FaultSpec::io("frame source gone")),
    );
    let degraded = client.schedule(small_request()).expect("degraded, not failed");
    assert_eq!(degraded.outcome, Outcome::DegradedUntiled);

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.worker_panics), 0, "an io fault is an error path, not a panic");
    assert_eq!(Metrics::get(&m.degraded_total), 1);
    assert_eq!(Metrics::get(&m.errors), 0);

    svc.faults().clear();
    assert_eq!(client.schedule(small_request()).unwrap().text, expected);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn queue_dequeue_panic_kills_the_worker_and_the_supervisor_respawns_it() {
    let dir = temp_dir("respawn");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.workers = 1; // the panic takes out the whole pool
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();

    // The panic fires after the worker wakes but before it pops the job:
    // the worker thread dies uncaught, the job stays queued, and only the
    // supervisor's respawn can ever serve it.
    svc.faults()
        .load_plan(&FaultPlan::new(chaos_seed()).arm(points::QUEUE_DEQUEUE, FaultSpec::panic()));
    let resp = client.schedule(small_request()).expect("respawned worker must serve the job");
    assert_eq!(resp.outcome, Outcome::Miss);

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.workers_respawned), 1, "the supervisor replaced the dead worker");
    assert_eq!(Metrics::get(&m.worker_panics), 0, "nothing was mid-request, so nothing caught");
    assert!(
        eventually(Duration::from_secs(5), || svc.live_workers() == 1),
        "pool must return to full strength, live = {}",
        svc.live_workers()
    );

    // The respawned worker is a full citizen: later requests hit the cache.
    assert_eq!(client.schedule(small_request()).unwrap().outcome, Outcome::Hit);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn cache_store_failure_still_serves_and_the_cache_heals() {
    let dir = temp_dir("store");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    svc.faults().load_plan(
        &FaultPlan::new(chaos_seed()).arm(points::CACHE_STORE, FaultSpec::io("disk full")),
    );
    let first = client.schedule(small_request()).expect("a lost store must not fail the request");
    assert_eq!(first.outcome, Outcome::Miss);

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.store_failures), 1);
    assert!(
        !dir.join(format!("{}.sched", first.key)).exists(),
        "the injected failure must have prevented the store"
    );

    // Fault cleared: the next request recomputes (nothing on disk),
    // persists, and the one after is a byte-identical hit.
    svc.faults().clear();
    let second = client.schedule(small_request()).unwrap();
    assert_eq!(second.outcome, Outcome::Miss);
    assert_eq!(second.text, first.text);
    let third = client.schedule(small_request()).unwrap();
    assert_eq!(third.outcome, Outcome::Hit);
    assert_eq!(third.text, first.text);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn corrupt_artifact_then_crash_quarantines_degrades_and_recovers() {
    let dir = temp_dir("corrupt-crash");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    let first = client.schedule(small_request()).unwrap();
    let artifact = dir.join(format!("{}.sched", first.key));
    let quarantined = dir.join(format!("{}.sched.bad", first.key));

    // Corrupt the artifact on disk AND arm a panic in the recompute: the
    // probe quarantines the corruption, the recompute crashes, and the
    // request still gets a verified (untiled) answer.
    std::fs::write(&artifact, "garbage\x01").unwrap();
    svc.faults().load_plan(
        &FaultPlan::new(chaos_seed()).arm(points::PIPELINE_SCHEDULE, FaultSpec::panic()),
    );
    let degraded = client.schedule(small_request()).expect("degraded, not failed");
    assert_eq!(degraded.outcome, Outcome::DegradedUntiled);
    assert!(!artifact.exists(), "the corrupt artifact was moved aside");
    assert_eq!(
        std::fs::read_to_string(&quarantined).unwrap(),
        "garbage\x01",
        "the quarantined file preserves the evidence"
    );

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.verify_failures), 1);
    assert_eq!(Metrics::get(&m.worker_panics), 1);
    assert_eq!(Metrics::get(&m.degraded_total), 1);

    // Fault cleared: recompute restores the byte-identical artifact.
    svc.faults().clear();
    let recovered = client.schedule(small_request()).unwrap();
    assert_eq!(recovered.outcome, Outcome::Miss, "quarantine leaves no artifact behind");
    assert_eq!(recovered.text, first.text);
    assert_eq!(std::fs::read_to_string(&artifact).unwrap(), first.text);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn slow_dequeue_past_the_deadline_fails_fast_and_never_runs_the_pipeline() {
    let dir = temp_dir("slow");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.workers = 1;
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();

    // The only worker stalls for ~300 ms on its way to the queue; the
    // request's 100 ms deadline expires while it is still queued.
    svc.faults().load_plan(
        &FaultPlan::new(chaos_seed()).arm(points::QUEUE_DEQUEUE, FaultSpec::delay_ms(300)),
    );
    let req = ScheduleRequest { deadline_ms: Some(100), ..small_request() };
    let t0 = Instant::now();
    let err = client.schedule(req).unwrap_err();
    let waited = t0.elapsed();
    assert_eq!(err, SvcError::DeadlineExceeded);
    assert!(
        waited < Duration::from_secs(2),
        "the client must not wait meaningfully past its deadline: {waited:?}"
    );

    let m = svc.metrics();
    assert!(
        eventually(Duration::from_secs(5), || Metrics::get(&m.deadline_expired) == 1),
        "the worker records the expiry when it finally pops the job"
    );
    assert_eq!(Metrics::get(&m.pipeline_runs), 0, "expired work must never run");

    // The delay disarmed itself; the service is healthy again.
    svc.faults().clear();
    assert_eq!(client.schedule(small_request()).unwrap().outcome, Outcome::Miss);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn stalled_client_is_cut_off_and_the_service_stays_live() {
    let dir = temp_dir("stall");
    let svc = Arc::new(Service::start(ServiceConfig::new(&dir)).unwrap());
    let tuning = ServerTuning {
        write_timeout: Duration::from_secs(2),
        stall_timeout: Duration::from_millis(300),
    };
    let server = serve_with("127.0.0.1:0", Arc::clone(&svc), tuning).unwrap();
    let addr = server.local_addr();

    // A peer that starts a frame and never finishes it: promises 64 bytes,
    // sends 3, goes silent while holding the handler mid-frame.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"164\nabc").unwrap();
    stalled.flush().unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    let t0 = Instant::now();
    let n = stalled.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "the server must hang up on a stalled peer, not answer it");
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "the cutoff happens at the stall timeout, not at the read timeout"
    );

    // The service itself never noticed: a well-behaved client is served.
    let mut client = NetClient::connect(addr).unwrap();
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    let Response::Schedule(resp) = client.request(&Request::Schedule(small_request())).unwrap()
    else {
        panic!("expected a schedule response");
    };
    assert_eq!(resp.outcome, Outcome::Miss);

    // The stalled peer's handler thread was reaped, not leaked.
    drop(stalled);
    assert!(
        eventually(Duration::from_secs(5), || server.live_connections() <= 1),
        "only the live client's handler may remain, got {}",
        server.live_connections()
    );

    server.request_stop();
    server.join();
    cleanup(&dir);
}

#[test]
fn idempotent_requests_retry_across_a_dropped_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // First connection: accepted and dropped unread, as a crashing
        // server would. Second connection: served.
        let (first, _) = listener.accept().unwrap();
        drop(first);
        let (mut second, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(second.try_clone().unwrap());
        let payload = read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(Request::decode(&payload), Ok(Request::Ping)));
        write_frame(&mut second, &Response::Pong.encode()).unwrap();
    });

    let mut client = NetClient::connect(addr).unwrap();
    let policy = RetryPolicy {
        attempts: 4,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        seed: chaos_seed(),
    };
    let t0 = Instant::now();
    let resp = client.request_with_retry(&Request::Ping, &policy).unwrap();
    assert_eq!(resp, Response::Pong);
    // Bounded wait: at worst all backoffs plus slack, never an open-ended
    // hang.
    let budget: Duration = (1..policy.attempts).map(|r| policy.backoff(r)).sum();
    assert!(
        t0.elapsed() < budget + Duration::from_secs(5),
        "retries must stay inside the backoff budget: {:?}",
        t0.elapsed()
    );
    server.join().unwrap();
}

#[test]
fn non_idempotent_requests_are_never_retried() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = NetClient::connect(addr).unwrap();
    let (first, _) = listener.accept().unwrap();
    drop(first); // the SHUTDOWN's connection dies before any reply

    let policy = RetryPolicy {
        attempts: 4,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        seed: chaos_seed(),
    };
    client.request_with_retry(&Request::Shutdown, &policy).unwrap_err();

    // A retry would have had to reconnect; prove no second connection was
    // ever attempted.
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_millis(400);
    while Instant::now() < deadline {
        assert!(listener.accept().is_err(), "a SHUTDOWN must not be resent");
        std::thread::sleep(Duration::from_millis(20));
    }
}
