//! `ktiler_gateway` — route schedule requests across a ring of
//! `ktiler_serve` nodes.
//!
//! Starts a [`ktiler_gateway::Gateway`] over the given node addresses and
//! serves the same framed wire protocol the nodes speak, so clients point
//! at the gateway and need not know the ring exists. Runs until a
//! `SHUTDOWN` request arrives, then dumps the gateway stats as JSON.
//!
//! ```text
//! ktiler_gateway --node HOST:PORT [--node HOST:PORT]...
//!                [--addr HOST:PORT] [--replicas N] [--vnodes N]
//!                [--seed N] [--forwarders N] [--queue N]
//!                [--node-timeout-ms N] [--probe-interval-ms N]
//!                [--suspect-after N] [--down-after N]
//!                [--port-file PATH] [--stats-out PATH]
//! ```
//!
//! Defaults mirror [`ktiler_gateway::GatewayConfig::new`]: 2 owners per
//! key, 64 virtual nodes, seed 0, 4 forwarders, a 16384-deep queue and a
//! 10 s per-node timeout. The gateway holds no artifacts: when every
//! owner of a key is unreachable the client gets a typed `INTERNAL`
//! error, and keeping a co-owner warm for failover is the nodes' job
//! (`ktiler_serve --peer ... --sync-interval-ms N`).
//!
//! The health prober `PING`s every node each `--probe-interval-ms`
//! (default 500; 0 disables probing) and drives the per-node
//! `Up → Suspect → Down` membership state shown in `STATS`;
//! `--suspect-after` / `--down-after` set the consecutive-failure
//! thresholds (failed forwards count too). Each request tries its Up
//! owners before its Suspect ones; Down nodes are routed around.
//! `DRAIN HOST:PORT` (see `ktiler_tool client drain`) marks a node for
//! graceful restart.

use std::sync::Arc;
use std::time::Duration;

use ktiler_gateway::{Gateway, GatewayConfig};
use ktiler_svc::{serve_front, ServerTuning};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn arg_values(name: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).filter(|w| w[0] == name).map(|w| w[1].clone()).collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: ktiler_gateway --node HOST:PORT [--node HOST:PORT]... [--addr HOST:PORT] \
         [--replicas N] [--vnodes N] [--seed N] [--forwarders N] [--queue N] \
         [--node-timeout-ms N] [--probe-interval-ms N] [--suspect-after N] \
         [--down-after N] [--port-file PATH] [--stats-out PATH]"
    );
    std::process::exit(2);
}

fn arg_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    }
}

fn arg_millis(name: &str, default: Duration) -> Duration {
    match arg_value(name) {
        None => default,
        Some(n) => Duration::from_millis(n.parse().unwrap_or_else(|_| usage())),
    }
}

fn main() {
    let nodes = arg_values("--node");
    if nodes.is_empty() {
        usage();
    }
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:0".into());

    let mut cfg = GatewayConfig::new(nodes);
    cfg.replicas = arg_parse("--replicas", cfg.replicas);
    cfg.vnodes = arg_parse("--vnodes", cfg.vnodes);
    cfg.seed = arg_parse("--seed", cfg.seed);
    cfg.forwarders = arg_parse("--forwarders", cfg.forwarders);
    cfg.queue_capacity = arg_parse("--queue", cfg.queue_capacity);
    cfg.node_timeout = arg_millis("--node-timeout-ms", cfg.node_timeout);
    if let Some(n) = arg_value("--probe-interval-ms") {
        let ms: u64 = n.parse().unwrap_or_else(|_| usage());
        cfg.probe_interval = (ms > 0).then(|| Duration::from_millis(ms));
    }
    cfg.suspect_after = arg_parse("--suspect-after", cfg.suspect_after);
    cfg.down_after = arg_parse("--down-after", cfg.down_after);

    let gw = match Gateway::start(cfg) {
        Ok(g) => Arc::new(g),
        Err(e) => {
            eprintln!("error: cannot start gateway: {e}");
            std::process::exit(1);
        }
    };
    let server = match serve_front(addr.as_str(), Arc::clone(&gw), ServerTuning::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };

    let local = server.local_addr();
    println!("gateway on {local} routing to {} node(s)", gw.ring().nodes().len());
    if let Some(path) = arg_value("--port-file") {
        if let Err(e) = std::fs::write(&path, format!("{local}\n")) {
            eprintln!("error: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }

    let gw = server.join();
    let stats = gw.stats_json();
    eprintln!("{stats}");
    if let Some(path) = arg_value("--stats-out") {
        if let Err(e) = std::fs::write(&path, &stats) {
            eprintln!("error: cannot write stats file {path}: {e}");
            std::process::exit(1);
        }
    }
}
