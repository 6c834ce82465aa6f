//! `ktiler_serve` — run the KTILER scheduling service over TCP.
//!
//! Starts a [`ktiler_svc::Service`] with an on-disk schedule cache and
//! serves the framed line protocol until a `SHUTDOWN` request arrives,
//! then dumps the metrics registry as JSON and exits.
//!
//! ```text
//! ktiler_serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N]
//!              [--queue N] [--port-file PATH] [--stats-out PATH]
//!              [--read-poll-ms N] [--write-timeout-ms N]
//!              [--stall-timeout-ms N] [--peer HOST:PORT]...
//!              [--peer-timeout-ms N] [--sync-interval-ms N]
//!              [--cache-budget-bytes N] [--fault PLAN]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:0` (ephemeral port; the bound address is
//! printed to stdout and, with `--port-file`, written to a file for
//! scripts), `--cache-dir .ktiler-cache`, 2 workers, a 64-deep queue.
//! The final metrics JSON goes to `--stats-out` when given, stderr always.
//! The timeout flags tune how the front-end treats misbehaving peers
//! (see [`ktiler_svc::ServerTuning`]): how often an idle socket re-checks
//! the stop flag, how long a non-reading client may block a write, and
//! how long a peer may sit mid-frame before it is dropped as stalled.
//!
//! `--peer` (repeatable) names other nodes of a multi-node deployment:
//! on a cache miss this node first tries to `FETCH` the artifact from a
//! peer (each attempt bounded by `--peer-timeout-ms`, default 500) and
//! only recomputes when no peer has it — the read-through fill described
//! in DESIGN.md §15. `--sync-interval-ms` additionally runs anti-entropy
//! against those peers: every interval the node compares `DIGEST`s and
//! pulls artifacts it is missing, so an empty-restarted node converges
//! back to warm without client traffic (DESIGN.md §16). It is also the
//! only way a key's co-owner gets warm before its primary fails: the
//! gateway never copies artifacts between nodes.
//!
//! `--cache-budget-bytes` arms the cache sweeper: when the artifact
//! directory exceeds the budget, the oldest entries (quarantined files
//! first) are evicted until it fits. `--fault PLAN` arms the
//! deterministic fault injector with a plan in [`FaultPlan`] grammar,
//! e.g. `--fault "cache.fsync=delay:30000"` — chaos-testing hook only.

use std::sync::Arc;
use std::time::Duration;

use ktiler_svc::{serve_with, FaultPlan, ServerTuning, Service, ServiceConfig};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Every value of a repeatable `--<name> VALUE` flag, in order.
fn arg_values(name: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).filter(|w| w[0] == name).map(|w| w[1].clone()).collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: ktiler_serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N] \
         [--queue N] [--port-file PATH] [--stats-out PATH] [--read-poll-ms N] \
         [--write-timeout-ms N] [--stall-timeout-ms N] [--peer HOST:PORT]... \
         [--peer-timeout-ms N] [--sync-interval-ms N] [--cache-budget-bytes N] \
         [--fault PLAN]"
    );
    std::process::exit(2);
}

/// Parses `--<name> <millis>` into a [`Duration`], keeping `default`
/// when the flag is absent.
fn arg_millis(name: &str, default: Duration) -> Duration {
    match arg_value(name) {
        None => default,
        Some(n) => Duration::from_millis(n.parse().unwrap_or_else(|_| usage())),
    }
}

fn main() {
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let cache_dir = arg_value("--cache-dir").unwrap_or_else(|| ".ktiler-cache".into());

    let mut cfg = ServiceConfig::new(&cache_dir);
    if let Some(n) = arg_value("--workers") {
        cfg.workers = n.parse().unwrap_or_else(|_| usage());
    }
    if let Some(n) = arg_value("--queue") {
        cfg.queue_capacity = n.parse().unwrap_or_else(|_| usage());
    }
    cfg.peers = arg_values("--peer");
    cfg.peer_timeout = arg_millis("--peer-timeout-ms", cfg.peer_timeout);
    if let Some(n) = arg_value("--sync-interval-ms") {
        cfg.sync_interval = Some(Duration::from_millis(n.parse().unwrap_or_else(|_| usage())));
    }
    if let Some(n) = arg_value("--cache-budget-bytes") {
        cfg.cache_budget_bytes = Some(n.parse().unwrap_or_else(|_| usage()));
    }
    let defaults = ServerTuning::default();
    let tuning = ServerTuning {
        read_poll: arg_millis("--read-poll-ms", defaults.read_poll),
        write_timeout: arg_millis("--write-timeout-ms", defaults.write_timeout),
        stall_timeout: arg_millis("--stall-timeout-ms", defaults.stall_timeout),
    };

    let fault_plan = arg_value("--fault").map(|text| match FaultPlan::parse(&text) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: bad --fault plan: {e}");
            std::process::exit(2);
        }
    });

    let svc = match Service::start(cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: cannot start service (cache dir {cache_dir}): {e}");
            std::process::exit(1);
        }
    };
    if let Some(plan) = &fault_plan {
        svc.faults().load_plan(plan);
    }
    let server = match serve_with(addr.as_str(), Arc::clone(&svc), tuning) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };

    let local = server.local_addr();
    println!("listening on {local} (cache dir {cache_dir})");
    if let Some(path) = arg_value("--port-file") {
        if let Err(e) = std::fs::write(&path, format!("{local}\n")) {
            eprintln!("error: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }

    // Block until a SHUTDOWN request winds the front-end down.
    let svc = server.join();
    let stats = svc.metrics_json();
    eprintln!("{stats}");
    if let Some(path) = arg_value("--stats-out") {
        if let Err(e) = std::fs::write(&path, &stats) {
            eprintln!("error: cannot write stats file {path}: {e}");
            std::process::exit(1);
        }
    }
}
