//! End-to-end tests of the scheduling service: cache miss/hit identity,
//! verify-on-load recovery, the verified index and the workload memo,
//! single-flight deduplication, shedding, deadlines and the TCP front-end.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ktiler_svc::metrics::Metrics;
use ktiler_svc::proto::{write_frame, Request, Response};
use ktiler_svc::{
    serve, NetClient, Outcome, ScheduleCache, ScheduleRequest, Service, ServiceConfig, SvcError,
    WorkloadSpec,
};

/// A fresh scratch directory unique to this test invocation; callers clean
/// it up with [`cleanup`] on success (left behind on failure for
/// inspection).
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("ktiler-svc-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

fn small_request() -> ScheduleRequest {
    ScheduleRequest::new(WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 })
}

#[test]
fn miss_then_hit_is_byte_identical_64px() {
    let dir = temp_dir("hit64");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    let first = client.schedule(small_request()).unwrap();
    assert_eq!(first.outcome, Outcome::Miss);
    assert!(first.launches > 0);
    assert!(!first.text.is_empty());

    let second = client.schedule(small_request()).unwrap();
    assert_eq!(second.outcome, Outcome::Hit);
    assert_eq!(second.key, first.key);
    assert_eq!(second.launches, first.launches);
    assert_eq!(second.text, first.text, "hit must be byte-identical to the miss");

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.cache_misses), 1);
    assert_eq!(Metrics::get(&m.cache_hits), 1);
    assert_eq!(Metrics::get(&m.pipeline_runs), 1);
    assert_eq!(Metrics::get(&m.verify_failures), 0);

    // The artifact on disk is exactly the served text.
    let artifact = dir.join(format!("{}.sched", first.key));
    assert_eq!(std::fs::read_to_string(&artifact).unwrap(), first.text);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn miss_then_hit_is_byte_identical_512px() {
    let dir = temp_dir("hit512");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();
    // Full frame size, reduced solver work to keep the test quick.
    let req = ScheduleRequest::new(WorkloadSpec::OptFlow { size: 512, iters: 3, levels: 2 });

    let first = client.schedule(req.clone()).unwrap();
    assert_eq!(first.outcome, Outcome::Miss);
    let second = client.schedule(req).unwrap();
    assert_eq!(second.outcome, Outcome::Hit);
    assert_eq!(second.text, first.text, "hit must be byte-identical to the miss");

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn corrupted_artifact_is_detected_and_recomputed() {
    let dir = temp_dir("corrupt");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    let first = client.schedule(small_request()).unwrap();
    let artifact = dir.join(format!("{}.sched", first.key));

    // Outright garbage: fails parsing.
    std::fs::write(&artifact, "not a schedule at all\n\x01\x02").unwrap();
    let second = client.schedule(small_request()).unwrap();
    assert_eq!(second.outcome, Outcome::Recompute);
    assert_eq!(second.text, first.text, "recompute must reproduce the original schedule");
    assert_eq!(
        std::fs::read_to_string(&artifact).unwrap(),
        first.text,
        "recompute must restore the on-disk artifact"
    );

    // The garbage was quarantined, not destroyed: it sits at
    // `<key>.sched.bad` for inspection.
    let quarantined = dir.join(format!("{}.sched.bad", first.key));
    assert_eq!(
        std::fs::read_to_string(&quarantined).unwrap(),
        "not a schedule at all\n\x01\x02",
        "quarantine must preserve the corrupt bytes"
    );

    // Parseable but semantically wrong: drop the final launch so blocks go
    // missing. Parsing succeeds; only verify-on-load can catch this.
    let truncated: String = {
        let lines: Vec<&str> = first.text.lines().collect();
        lines[..lines.len() - 1].join("\n") + "\n"
    };
    std::fs::write(&artifact, truncated.clone()).unwrap();
    let third = client.schedule(small_request()).unwrap();
    assert_eq!(third.outcome, Outcome::Recompute);
    assert_eq!(third.text, first.text);

    // A second corruption of the same key replaces the first quarantined
    // file — the cap is one `.bad` per key, so a flapping artifact cannot
    // fill the disk.
    assert_eq!(
        std::fs::read_to_string(&quarantined).unwrap(),
        truncated,
        "the newer corruption replaces the older quarantined file"
    );
    let bad_files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().to_string_lossy().ends_with(".sched.bad"))
        .count();
    assert_eq!(bad_files, 1, "at most one quarantined file per key");

    // And the cache is healthy again.
    let fourth = client.schedule(small_request()).unwrap();
    assert_eq!(fourth.outcome, Outcome::Hit);

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.verify_failures), 2);
    assert_eq!(Metrics::get(&m.cache_hits), 1);
    assert_eq!(Metrics::get(&m.cache_misses), 1);
    assert_eq!(Metrics::get(&m.pipeline_runs), 3);

    svc.shutdown();
    cleanup(&dir);
}

/// A 64² request with `iters` Jacobi iterations: one distinct key per
/// value.
fn request_iters(iters: u32) -> ScheduleRequest {
    ScheduleRequest::new(WorkloadSpec::OptFlow { size: 64, iters, levels: 2 })
}

#[test]
fn warm_hits_skip_analysis_even_when_the_memo_holds_one_workload() {
    let dir = temp_dir("index");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.memo_capacity = 1;
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();

    let reqs: Vec<ScheduleRequest> = (1..=4).map(request_iters).collect();
    let misses: Vec<_> = reqs.iter().map(|r| client.schedule(r.clone()).unwrap()).collect();
    assert!(misses.iter().all(|m| m.outcome == Outcome::Miss));
    // Keys cycle through a memo of one: every read would re-analyze if a
    // HIT still needed the prepared workload.
    for _ in 0..2 {
        for (req, miss) in reqs.iter().zip(&misses) {
            let hit = client.schedule(req.clone()).unwrap();
            assert_eq!(hit.outcome, Outcome::Hit);
            assert_eq!((hit.key, hit.launches), (miss.key, miss.launches));
            assert_eq!(hit.text, miss.text, "hit must be byte-identical to the miss");
        }
    }

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.analysis_runs), 4, "one analysis per key, none per HIT");
    assert_eq!(Metrics::get(&m.cache_hits), 8);
    assert_eq!(Metrics::get(&m.pipeline_runs), 4);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn memo_evicts_least_recently_used_not_everything() {
    let dir = temp_dir("memo-lru");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.memo_capacity = 2;
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();

    let [a, b, c] = [1, 2, 3].map(request_iters);
    for req in [&a, &b, &c] {
        assert_eq!(client.schedule(req.clone()).unwrap().outcome, Outcome::Miss);
    }
    // C evicted only A, so B's recompute finds its workload in the memo
    // (a memo cleared when full would hold C alone and re-analyze B).
    let b_key = client.schedule(b.clone()).unwrap().key;
    std::fs::write(dir.join(format!("{b_key}.sched")), "garbage\n").unwrap();
    assert_eq!(client.schedule(b).unwrap().outcome, Outcome::Recompute);
    assert_eq!(Metrics::get(&svc.metrics().analysis_runs), 3);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn a_byte_flip_in_an_indexed_artifact_is_quarantined_and_recomputed() {
    let dir = temp_dir("flip");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    let first = client.schedule(small_request()).unwrap();
    assert_eq!(client.schedule(small_request()).unwrap().outcome, Outcome::Hit);
    // `0-3` becomes `0,3`: still parseable, but blocks go missing, so
    // only verification can reject it.
    let artifact = dir.join(format!("{}.sched", first.key));
    let mut bytes = first.text.clone().into_bytes();
    let dash = bytes.iter().position(|&b| b == b'-').expect("a block range");
    bytes[dash] ^= 1;
    std::fs::write(&artifact, &bytes).unwrap();

    let second = client.schedule(small_request()).unwrap();
    assert_eq!(second.outcome, Outcome::Recompute);
    assert_eq!(second.text, first.text);
    assert_eq!(std::fs::read_to_string(&artifact).unwrap(), first.text, "artifact restored");
    let quarantined = dir.join(format!("{}.sched.bad", first.key));
    assert_eq!(std::fs::read(&quarantined).unwrap(), bytes, "the flipped bytes are kept");
    assert_eq!(client.schedule(small_request()).unwrap().outcome, Outcome::Hit);

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.verify_failures), 1);
    assert_eq!(Metrics::get(&m.cache_hits), 2);
    assert_eq!(Metrics::get(&m.analysis_runs), 1, "the recompute reuses the memo");

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn a_swapped_valid_artifact_is_fully_verified_before_it_is_served() {
    let dir = temp_dir("swap");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.memo_capacity = 1;
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();

    let first = client.schedule(small_request()).unwrap();
    // Another key takes the memo's only slot, so verifying the first key
    // again must re-run its analysis, which `analysis_runs` counts.
    client.schedule(request_iters(1)).unwrap();
    assert_eq!(client.schedule(small_request()).unwrap().outcome, Outcome::Hit);
    assert_eq!(Metrics::get(&svc.metrics().analysis_runs), 2);

    // A different, valid schedule of the same workload: the first launch
    // of a block range `lo-hi` split into `lo` and `lo+1..=hi`.
    let swapped: String = {
        let mut lines: Vec<String> = first.text.lines().map(str::to_string).collect();
        let (i, node, lo, hi) = lines
            .iter()
            .enumerate()
            .find_map(|(i, l)| {
                let mut t = l.strip_prefix("launch ")?.split_whitespace();
                let node = t.next()?.to_string();
                let (lo, hi) = t.next()?.split_once('-')?;
                Some((i, node, lo.parse::<u32>().ok()?, hi.parse::<u32>().ok()?))
            })
            .expect("a launch of a block range");
        let rest = if hi == lo + 1 { hi.to_string() } else { format!("{}-{hi}", lo + 1) };
        lines[i] = format!("launch {node} {lo}");
        lines.insert(i + 1, format!("launch {node} {rest}"));
        lines.join("\n") + "\n"
    };
    std::fs::write(dir.join(format!("{}.sched", first.key)), &swapped).unwrap();

    let served = client.schedule(small_request()).unwrap();
    assert_eq!(served.outcome, Outcome::Hit);
    assert_eq!(served.text, swapped);
    assert_eq!(served.launches, first.launches + 1);
    assert_eq!(Metrics::get(&svc.metrics().analysis_runs), 3, "verified before served");
    // Verified once, the swapped bytes are now indexed in turn.
    assert_eq!(client.schedule(small_request()).unwrap().text, swapped);
    assert_eq!(Metrics::get(&svc.metrics().analysis_runs), 3);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn an_artifact_removed_by_the_sweeper_is_a_miss_not_stale_bytes() {
    let dir = temp_dir("swept");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    let first = client.schedule(small_request()).unwrap();
    assert_eq!(client.schedule(small_request()).unwrap().outcome, Outcome::Hit);
    let sweeper = ScheduleCache::open(&dir).unwrap().with_budget(Some(1));
    assert_eq!(sweeper.sweep().unwrap(), 1);

    let after = client.schedule(small_request()).unwrap();
    assert_eq!(after.outcome, Outcome::Miss);
    assert_eq!(after.text, first.text);
    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.cache_misses), 2);
    assert_eq!(Metrics::get(&m.cache_hits), 1);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn a_new_service_verifies_a_warm_artifact_once_then_serves_it_from_the_index() {
    let dir = temp_dir("restart");
    let reqs = [small_request(), request_iters(1)];
    let misses: Vec<_> = {
        let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
        let misses = reqs.iter().map(|r| svc.client().schedule(r.clone()).unwrap()).collect();
        svc.shutdown();
        misses
    };

    // A memo of one and two keys in turn: only the index can keep the
    // analysis count at one per key.
    let mut cfg = ServiceConfig::new(&dir);
    cfg.memo_capacity = 1;
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();
    for _ in 0..3 {
        for (req, miss) in reqs.iter().zip(&misses) {
            let hit = client.schedule(req.clone()).unwrap();
            assert_eq!(hit.outcome, Outcome::Hit);
            assert_eq!(hit.text, miss.text);
        }
        assert_eq!(
            Metrics::get(&svc.metrics().analysis_runs),
            2,
            "the new process verifies each artifact once, on its first HIT"
        );
    }

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn eight_concurrent_identical_requests_run_the_pipeline_once() {
    let dir = temp_dir("singleflight");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.workers = 4; // real worker concurrency, so coalescing is exercised
    let svc = Arc::new(Service::start(cfg).unwrap());

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let client = svc.client();
            std::thread::spawn(move || client.schedule(small_request()))
        })
        .collect();
    let mut texts = Vec::new();
    for t in threads {
        let resp = t.join().unwrap().expect("request should succeed");
        texts.push(resp.text);
    }
    assert!(texts.windows(2).all(|w| w[0] == w[1]), "all responses identical");

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.pipeline_runs), 1, "single-flight must dedup to one run");
    assert_eq!(Metrics::get(&m.cache_misses), 1);
    assert_eq!(
        Metrics::get(&m.cache_hits) + Metrics::get(&m.coalesced),
        7,
        "the other 7 must be coalesced onto the leader or served from cache"
    );
    assert_eq!(Metrics::get(&m.requests), 8);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn full_queue_sheds_instead_of_blocking() {
    let dir = temp_dir("shed");
    let mut cfg = ServiceConfig::new(&dir);
    cfg.queue_capacity = 0; // every submit finds the queue "full"
    let svc = Service::start(cfg).unwrap();
    let client = svc.client();

    let t0 = Instant::now();
    let err = client.schedule(small_request()).unwrap_err();
    assert_eq!(err, SvcError::Shed);
    assert!(t0.elapsed() < Duration::from_secs(1), "shedding must not block");

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.sheds), 1);
    assert_eq!(Metrics::get(&m.requests), 0, "shed requests are never admitted");

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn expired_deadline_is_reported() {
    let dir = temp_dir("deadline");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    let req = ScheduleRequest { deadline_ms: Some(0), ..small_request() };
    let err = client.schedule(req).unwrap_err();
    assert_eq!(err, SvcError::DeadlineExceeded);

    // The worker that dequeued it records the expiry (poll briefly: the
    // client may observe its own deadline before the worker pops the job).
    let m = svc.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Metrics::get(&m.deadline_expired) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(Metrics::get(&m.deadline_expired), 1);
    assert_eq!(Metrics::get(&m.pipeline_runs), 0, "expired work must not run");

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn bad_requests_are_rejected_before_queueing() {
    let dir = temp_dir("badreq");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();

    let req = ScheduleRequest::new(WorkloadSpec::OptFlow { size: 7, iters: 3, levels: 2 });
    assert!(matches!(client.schedule(req), Err(SvcError::BadRequest(_))));

    let mut req = small_request();
    req.gpu_mhz = -5.0;
    assert!(matches!(client.schedule(req), Err(SvcError::BadRequest(_))));

    let m = svc.metrics();
    assert_eq!(Metrics::get(&m.requests), 0);

    svc.shutdown();
    cleanup(&dir);
}

#[test]
fn shutdown_rejects_new_requests_and_joins() {
    let dir = temp_dir("shutdown");
    let svc = Service::start(ServiceConfig::new(&dir)).unwrap();
    let client = svc.client();
    svc.shutdown();
    assert_eq!(client.schedule(small_request()).unwrap_err(), SvcError::ShuttingDown);
    svc.shutdown(); // idempotent
    cleanup(&dir);
}

#[test]
fn tcp_end_to_end() {
    let dir = temp_dir("tcp");
    let svc = Arc::new(Service::start(ServiceConfig::new(&dir)).unwrap());
    let server = serve("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);

    // Miss, then hit, over the wire.
    let req = Request::Schedule(small_request());
    let Response::Schedule(first) = client.request(&req).unwrap() else {
        panic!("expected a schedule response");
    };
    assert_eq!(first.outcome, Outcome::Miss);
    let Response::Schedule(second) = client.request(&req).unwrap() else {
        panic!("expected a schedule response");
    };
    assert_eq!(second.outcome, Outcome::Hit);
    assert_eq!(second.text, first.text);

    // An invalid request gets a typed error, not a dropped connection.
    let Response::Err(e) = client
        .request(&Request::Schedule(ScheduleRequest::new(WorkloadSpec::OptFlow {
            size: 16,
            iters: 1,
            levels: 6,
        })))
        .unwrap()
    else {
        panic!("expected an error response");
    };
    assert!(matches!(e, SvcError::BadRequest(_)));

    // A malformed line gets a BAD_REQUEST too — a second connection, so
    // this test also covers concurrent connections.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, b"FROBNICATE now").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let payload = ktiler_svc::proto::read_frame(&mut reader).unwrap().unwrap();
    assert!(matches!(Response::decode(&payload), Ok(Response::Err(SvcError::BadRequest(_)))));

    let Response::Stats(json) = client.request(&Request::Stats).unwrap() else {
        panic!("expected a stats response");
    };
    assert!(json.contains("\"cache_hits\": 1"), "{json}");
    assert!(json.contains("\"cache_misses\": 1"), "{json}");

    assert_eq!(client.request(&Request::Shutdown).unwrap(), Response::Bye);
    let svc = server.join(); // returns once the front-end wound down
    assert_eq!(Metrics::get(&svc.metrics().requests), 2);
    cleanup(&dir);
}

#[test]
fn finished_connection_handlers_are_reaped_not_accumulated() {
    let dir = temp_dir("reap");
    let svc = Arc::new(Service::start(ServiceConfig::new(&dir)).unwrap());
    let server = serve("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let addr = server.local_addr();

    // 100 sequential short-lived connections. Before handler reaping the
    // accept loop kept every JoinHandle it ever spawned; now the list must
    // stay proportional to *live* connections.
    for _ in 0..100 {
        let mut client = NetClient::connect(addr).unwrap();
        assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    }
    // Handlers notice the hangup within their read poll; give them that
    // plus scheduling slack.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_connections() > 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let live = server.live_connections();
    assert!(live <= 4, "100 closed connections left {live} live handler threads");

    server.request_stop();
    server.join();
    cleanup(&dir);
}
