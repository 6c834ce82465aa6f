//! The serving tier's event loop at scale, against the real `ktiler_serve`
//! binary: one thread holds 10,000 idle connections and still answers on
//! any of them at once, and an idle node does not wake up at all.
//!
//! The node runs as a child process: 10,000 connections need 20,000
//! descriptors across both ends, more than one process may usually hold.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ktiler_svc::proto::{read_frame, write_frame, Request, Response};
use ktiler_svc::{NetClient, Outcome, ScheduleRequest, WorkloadSpec};

const CONNS: usize = 10_000;

/// A `ktiler_serve` child on an ephemeral port with a private cache dir;
/// killed and cleaned up on drop, so a failing assertion never leaks it.
struct Node {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Node {
    fn start(tag: &str) -> Node {
        let dir =
            std::env::temp_dir().join(format!("ktiler-event-loop-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let child = Command::new(env!("CARGO_BIN_EXE_ktiler_serve"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ktiler_serve");
        let mut node = Node { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), dir };
        let t0 = Instant::now();
        loop {
            if let Some(addr) =
                std::fs::read_to_string(&port_file).ok().and_then(|s| s.trim().parse().ok())
            {
                node.addr = addr;
                return node;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "ktiler_serve wrote no port file");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn task_dirs(&self) -> Vec<PathBuf> {
        std::fs::read_dir(format!("/proc/{}/task", self.child.id()))
            .expect("read the node's task list")
            .map(|e| e.expect("task entry").path())
            .collect()
    }

    /// Voluntary context switches summed over the node's threads.
    fn voluntary_switches(&self) -> u64 {
        self.task_dirs()
            .iter()
            .filter_map(|t| std::fs::read_to_string(t.join("status")).ok())
            .filter_map(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                    .and_then(|v| v.trim().parse::<u64>().ok())
            })
            .sum()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The soft `RLIMIT_NOFILE` of this process.
fn open_file_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

fn small_request() -> ScheduleRequest {
    ScheduleRequest::new(WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 })
}

/// Sends `PING` on `stream` and requires `PONG` within 1 s.
fn ping(stream: &TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let mut out = Vec::new();
    write_frame(&mut out, &Request::Ping.encode()).unwrap();
    (&*stream).write_all(&out).unwrap();
    let mut reader = BufReader::new(stream);
    let payload = read_frame(&mut reader)
        .unwrap_or_else(|e| panic!("no PONG within 1 s: {e}"))
        .expect("connection closed");
    assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
}

#[test]
fn ten_thousand_idle_connections_share_one_loop() {
    let limit = open_file_limit().unwrap_or(0);
    assert!(
        limit > CONNS + 100,
        "this test holds {CONNS} sockets; raise the open-file limit (ulimit -n is {limit})"
    );
    let node = Node::start("10k");

    // Warm one key so the HIT at the end measures the loop, not the
    // pipeline.
    let mut client = NetClient::connect(node.addr).unwrap();
    let Response::Schedule(warm) = client.request(&Request::Schedule(small_request())).unwrap()
    else {
        panic!("expected a schedule response");
    };
    assert_eq!(warm.outcome, Outcome::Miss);
    drop(client);
    let threads_before = node.task_dirs().len();

    let mut conns = Vec::with_capacity(CONNS);
    for i in 1..=CONNS {
        let stream = TcpStream::connect(node.addr).expect("connect");
        // A PONG on every 64th connection proves the loop has accepted
        // it and every earlier one, and keeps this client from
        // overflowing the listener's 128-deep backlog (a dropped SYN
        // stalls `connect` for a second).
        if i % 64 == 0 {
            ping(&stream);
        }
        // A thread per connection would show here, long before 10,000
        // of them could exhaust the machine.
        if i == 100 {
            let threads = node.task_dirs().len();
            assert!(
                threads <= threads_before,
                "100 connections grew the node from {threads_before} to {threads} threads"
            );
        }
        conns.push(stream);
    }

    // Every 97th connection, oldest first: the loop answers on any of
    // them while holding all the others.
    for stream in conns.iter().step_by(97) {
        ping(stream);
    }
    let t0 = Instant::now();
    let mut fresh = NetClient::connect(node.addr).unwrap();
    let Response::Schedule(hit) = fresh.request(&Request::Schedule(small_request())).unwrap()
    else {
        panic!("expected a schedule response");
    };
    assert_eq!(hit.outcome, Outcome::Hit);
    assert_eq!(hit.text, warm.text, "a HIT is byte-identical to the miss");
    assert!(t0.elapsed() < Duration::from_secs(1), "HIT took {:?}", t0.elapsed());
    assert!(node.task_dirs().len() <= threads_before, "the node grew threads under load");
}

#[test]
fn an_idle_node_does_not_wake() {
    let node = Node::start("idle");
    NetClient::connect(node.addr).unwrap().request(&Request::Ping).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let before = node.voluntary_switches();
    std::thread::sleep(Duration::from_secs(2));
    let woke = node.voluntary_switches() - before;
    assert!(woke <= 10, "an idle node made {woke} voluntary context switches in 2 s");
}
