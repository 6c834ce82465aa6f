//! The deployment under test: two `ktiler_serve` nodes that name each
//! other as peers, plus one `ktiler_gateway` in front of them, each a
//! child process of the benchmark at default flags. Only deployment
//! settings are passed: addresses, port files, cache directories, peers.

use std::fs::File;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ktiler_svc::proto::{Request, Response};
use ktiler_svc::NetClient;

use crate::{json, os};

/// How long a child may take to write its port file.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a child may take to exit after `SHUTDOWN` before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

/// Which CPU each process runs on.
///
/// Node 0 and the gateway share the first CPU; node 1 and the benchmark
/// itself (load generator and every in-process measurement) share the
/// second. Left to the scheduler, the servers' threads settle either on
/// one vCPU or across both for the life of a process tree, and HIT
/// throughput differed by ~40% between the two; with every process
/// pinned, trees agree within a few percent. With a single CPU everything
/// shares it.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPU of node 0 and the gateway.
    pub first: usize,
    /// CPU of node 1 and the benchmark.
    pub second: usize,
}

impl Placement {
    /// Picks the first two CPUs this process may use and pins the calling
    /// thread — so every thread it creates afterwards — to the second.
    /// Call it before starting any thread.
    ///
    /// # Errors
    ///
    /// A failed affinity call.
    pub fn apply() -> io::Result<Placement> {
        let cpus = os::affinity()?;
        let first = *cpus.first().ok_or_else(|| io::Error::other("no CPU to run on"))?;
        let second = *cpus.get(1).unwrap_or(&first);
        os::set_affinity(&[second])?;
        Ok(Placement { first, second })
    }

    /// The CPU of node `i`.
    pub fn node(&self, i: usize) -> usize {
        if i == 0 {
            self.first
        } else {
            self.second
        }
    }
}

/// Runs `f` on a scoped thread pinned to `cpu`. A child process inherits
/// the affinity of the thread that forks it; an in-process measurement
/// pinned beside a node sees the same load on the host as the node.
///
/// # Errors
///
/// A failed affinity call, `f`'s error, or a panic in `f`.
pub fn on_cpu<T: Send>(cpu: usize, f: impl FnOnce() -> io::Result<T> + Send) -> io::Result<T> {
    std::thread::scope(|s| {
        s.spawn(|| os::set_affinity(&[cpu]).and_then(|()| f()))
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("pinned thread panicked")))
    })
}

/// One running process tree. Dropping it kills and reaps every child
/// still alive, so an early return or a panic never leaks a process.
pub struct Tree {
    children: Vec<(String, Child)>,
    /// Node addresses exactly as the gateway was given them, which makes
    /// them the names its hash ring was built over.
    pub nodes: Vec<String>,
    /// The gateway's address.
    pub gateway: String,
}

/// First node port tried. Below the kernel's ephemeral range, so outgoing
/// connections never hold it.
const BASE_PORT: u16 = 29_301;

/// Node ports: the first run of `n` consecutive ports from [`BASE_PORT`]
/// that are all free. The ports are fixed rather than left to the kernel
/// for two reasons: the nodes must know each other's address before
/// either starts (each names the other with `--peer`), and the gateway's
/// hash ring places keys by node *address*, so fixed addresses give every
/// run the same key placement. The listeners probing a run are held
/// together, then released for the nodes to bind.
fn node_ports(n: usize) -> io::Result<Vec<u16>> {
    let mut last_err = None;
    for attempt in 0..16u16 {
        let first = BASE_PORT + attempt * n as u16;
        let ports: Vec<u16> = (first..first + n as u16).collect();
        let probes: io::Result<Vec<TcpListener>> =
            ports.iter().map(|p| TcpListener::bind(("127.0.0.1", *p))).collect();
        match probes {
            Ok(_) => return Ok(ports),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no free node ports")))
}

impl Tree {
    /// Starts the nodes, then the gateway, each with its cache and logs
    /// under `dir`, and returns once every process has written its port
    /// file.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a child that exits or stays silent past the
    /// start timeout.
    pub fn start(bin_dir: &Path, dir: &Path, cpus: Placement) -> io::Result<Tree> {
        std::fs::create_dir_all(dir)?;
        let ports = node_ports(2)?;
        let nodes: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let mut tree = Tree { children: Vec::new(), nodes: nodes.clone(), gateway: String::new() };
        for (i, addr) in nodes.iter().enumerate() {
            let peer = &nodes[1 - i];
            let name = format!("node{i}");
            let mut cmd = Command::new(bin_dir.join("ktiler_serve"));
            cmd.arg("--addr").arg(addr);
            cmd.arg("--cache-dir").arg(dir.join(format!("cache{i}")));
            cmd.arg("--port-file").arg(dir.join(format!("{name}.port")));
            cmd.arg("--peer").arg(peer);
            tree.spawn(&name, cmd, dir, cpus.node(i))?;
        }
        for i in 0..nodes.len() {
            tree.wait_port(i, dir)?;
        }
        let mut cmd = Command::new(bin_dir.join("ktiler_gateway"));
        for n in &nodes {
            cmd.arg("--node").arg(n);
        }
        cmd.arg("--addr").arg("127.0.0.1:0");
        cmd.arg("--port-file").arg(dir.join("gateway.port"));
        tree.spawn("gateway", cmd, dir, cpus.first)?;
        tree.gateway = tree.wait_port(nodes.len(), dir)?;
        Ok(tree)
    }

    /// Spawns `cmd` on `cpu`.
    fn spawn(&mut self, name: &str, mut cmd: Command, dir: &Path, cpu: usize) -> io::Result<()> {
        let log = File::create(dir.join(format!("{name}.log")))?;
        cmd.stdin(Stdio::null()).stdout(log.try_clone()?).stderr(log);
        let child = on_cpu(cpu, || cmd.spawn()).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot start {name} ({:?}): {e}", cmd.get_program()))
        })?;
        self.children.push((name.to_string(), child));
        Ok(())
    }

    /// Polls child `i`'s port file every 100 µs (set-up time is a metric,
    /// and a whole start takes a few milliseconds) and returns its address.
    fn wait_port(&mut self, i: usize, dir: &Path) -> io::Result<String> {
        let path = dir.join(format!("{}.port", self.children[i].0));
        let start = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if text.ends_with('\n') {
                    return Ok(text.trim().to_string());
                }
            }
            let (name, child) = &mut self.children[i];
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "{name} exited during start ({status}); see {}",
                    dir.join(format!("{name}.log")).display()
                )));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err(io::Error::other(format!("{name} wrote no port file")));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Sum over every process of the tree of its peak resident set
    /// (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// A child whose status file cannot be read.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut total = 0.0;
        for (_, child) in &self.children {
            total += vm_hwm_mb(&format!("/proc/{}/status", child.id()))?;
        }
        Ok(total)
    }

    /// Stops the tree: `SHUTDOWN` to the gateway, then to each node, each
    /// awaited up to a timeout and killed past it; every child is reaped.
    ///
    /// # Errors
    ///
    /// A child that had to be killed, or that exited unsuccessfully.
    pub fn shutdown(mut self) -> io::Result<()> {
        let addrs: Vec<String> =
            self.nodes.iter().cloned().chain(std::iter::once(self.gateway.clone())).collect();
        let mut problems = Vec::new();
        // Gateway first (last child), so no forward races a dying node.
        for i in (0..self.children.len()).rev() {
            let (name, child) = &mut self.children[i];
            let _ = NetClient::connect_timeout(addrs[i].as_str(), STOP_TIMEOUT)
                .and_then(|mut c| c.request(&Request::Shutdown));
            let start = Instant::now();
            loop {
                if let Some(status) = child.try_wait()? {
                    if !status.success() {
                        problems.push(format!("{name} exited with {status}"));
                    }
                    break;
                }
                if start.elapsed() > STOP_TIMEOUT {
                    let _ = child.kill();
                    let _ = child.wait();
                    problems.push(format!("{name} ignored SHUTDOWN and was killed"));
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.children.clear();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(io::Error::other(problems.join("; ")))
        }
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(status_path)?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

/// One `STATS` answer, parsed.
///
/// # Errors
///
/// Transport errors, or an answer that is not a stats document.
pub fn stats(addr: &str) -> io::Result<json::Value> {
    let mut c = NetClient::connect_timeout(addr, STOP_TIMEOUT)?;
    match c.request(&Request::Stats)? {
        Response::Stats(text) => json::parse(&text).map_err(io::Error::other),
        other => Err(io::Error::other(format!("unexpected STATS answer {other:?}"))),
    }
}

/// A top-level counter of a stats document (0 when absent).
pub fn counter(doc: &json::Value, name: &str) -> f64 {
    doc.get(name).and_then(json::Value::num).unwrap_or(0.0)
}

/// Creates (emptying first) a working directory.
///
/// # Errors
///
/// Any filesystem error.
pub fn fresh_dir(path: PathBuf) -> io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(&path)?;
    }
    std::fs::create_dir_all(&path)?;
    Ok(path)
}
