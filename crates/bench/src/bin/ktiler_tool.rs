//! `ktiler_tool` — a command-line driver for the whole pipeline, mirroring
//! how the paper's tool is used: analyze an application, generate a
//! schedule offline, enforce it at runtime, inspect the timeline.
//!
//! ```text
//! ktiler_tool graph    [--size N] [--iters N] [--out FILE]     DOT of the DFG
//! ktiler_tool schedule [--size N] [--iters N] [--freq G,M]
//!                      [--thld NS] [--out FILE]                generate + save schedule
//! ktiler_tool run      [--size N] [--iters N] [--freq G,M]
//!                      [--schedule FILE] [--mode MODE]
//!                      [--timeline FILE]                       execute and report
//! ktiler_tool client <schedule|stats|ping|shutdown|digest|sync|drain>
//!                      --addr H:P
//!                      [--size N] [--iters N] [--levels N]
//!                      [--freq G,M] [--deadline-ms N]
//!                      [--retries N] [--retry-base-ms N]
//!                      [--retry-seed N] [--node H:P] [--off]
//!                      [--out FILE]                            talk to ktiler_serve
//! ```
//!
//! Modes: `default` (one launch per kernel), `ktiler` (tile if no
//! `--schedule` file given), `noig`, `streamed`.
//!
//! `client schedule` prints the outcome line (`MISS key=<hex> launches=N`,
//! likewise `HIT`/`RECOMPUTE`/`DEGRADED`) to stdout and writes the
//! schedule text to `--out` (or stdout when omitted), so scripts can both
//! grep the cache behaviour and capture the artifact.
//!
//! With `--retries N` (N total attempts) the client reconnects and
//! resends after a transport error, with seeded jittered exponential
//! backoff (`--retry-base-ms`, `--retry-seed`) — idempotent requests
//! only; a `shutdown` is never resent.
//!
//! Cluster operations: `digest` lists a node's cached keys, `sync` makes
//! a node run one anti-entropy round against its peers now, and `drain
//! --node H:P [--off]` tells a gateway to stop (or resume) routing to a
//! node — the graceful-restart runbook in README "Operating the cluster".

use bench::{ms, paper_ktiler_config, pct_opt, prepare, Scale};
use gpu_sim::{Engine, FreqConfig};
use ktiler::{calibrate, execute_with_timeline, ktiler_schedule, CalibrationConfig, Schedule};
use ktiler_svc::proto::{Request, Response};
use ktiler_svc::{NetClient, RetryPolicy, ScheduleRequest, WorkloadSpec};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse_freq() -> FreqConfig {
    match arg_value("--freq") {
        Some(s) => {
            let (g, m) = s.split_once(',').expect("--freq wants GPU,MEM in MHz");
            FreqConfig::new(
                g.trim().parse().expect("bad GPU MHz"),
                m.trim().parse().expect("bad MEM MHz"),
            )
        }
        None => FreqConfig::new(1324.0, 1600.0),
    }
}

fn usage() -> ! {
    eprintln!("usage: ktiler_tool <graph|schedule|run|client> [options] (see source header)");
    std::process::exit(2);
}

/// The `client` subcommand: one request to a running `ktiler_serve`.
fn client_main() {
    let Some(addr) = arg_value("--addr") else {
        eprintln!("error: client needs --addr HOST:PORT");
        usage()
    };
    let action = std::env::args().nth(2).unwrap_or_else(|| usage());
    let request = match action.as_str() {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "digest" => Request::Digest,
        "sync" => Request::Sync,
        "drain" => {
            let Some(node) = arg_value("--node") else {
                eprintln!("error: drain needs --node HOST:PORT");
                usage()
            };
            let on = !std::env::args().any(|a| a == "--off");
            Request::Drain { node, on }
        }
        "schedule" => {
            let scale = Scale::from_args();
            let workload = WorkloadSpec::OptFlow {
                size: scale.size,
                iters: scale.iters,
                levels: arg_value("--levels")
                    .map(|v| v.parse().expect("--levels needs a number"))
                    .unwrap_or(scale.levels),
            };
            let mut req = ScheduleRequest::new(workload);
            if let Some(s) = arg_value("--freq") {
                let (g, m) = s.split_once(',').expect("--freq wants GPU,MEM in MHz");
                req.gpu_mhz = g.trim().parse().expect("bad GPU MHz");
                req.mem_mhz = m.trim().parse().expect("bad MEM MHz");
            }
            if let Some(ms) = arg_value("--deadline-ms") {
                req.deadline_ms = Some(ms.parse().expect("bad --deadline-ms"));
            }
            Request::Schedule(req)
        }
        other => {
            eprintln!("error: unknown client action '{other}'");
            usage()
        }
    };

    let mut client = match NetClient::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let policy = {
        let mut p = RetryPolicy { attempts: 1, ..RetryPolicy::default() };
        if let Some(n) = arg_value("--retries") {
            p.attempts = n.parse().expect("bad --retries");
        }
        if let Some(base) = arg_value("--retry-base-ms") {
            p.base_delay =
                std::time::Duration::from_millis(base.parse().expect("bad --retry-base-ms"));
        }
        if let Some(seed) = arg_value("--retry-seed") {
            p.seed = seed.parse().expect("bad --retry-seed");
        }
        p
    };
    let response = match client.request_with_retry(&request, &policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: request failed: {e}");
            std::process::exit(1);
        }
    };
    match response {
        Response::Pong => println!("PONG"),
        Response::Bye => println!("BYE"),
        Response::Stats(json) => println!("{json}"),
        Response::Schedule(r) => {
            println!("{} key={} launches={}", r.outcome.as_str(), r.key, r.launches);
            match arg_value("--out") {
                Some(path) => {
                    std::fs::write(&path, &r.text).expect("write schedule file");
                    println!("wrote {path}");
                }
                None => print!("{}", r.text),
            }
        }
        Response::Artifact { key, text } => {
            println!("ARTIFACT key={key}");
            print!("{text}");
        }
        Response::Digest(keys) => {
            println!("DIGEST count={}", keys.len());
            for key in keys {
                println!("{key}");
            }
        }
        Response::Synced { pulled, failed, peers } => {
            println!("SYNCED pulled={pulled} failed={failed} peers={peers}");
        }
        Response::Drained { node, draining } => {
            println!("DRAINED node={node} draining={draining}");
        }
        Response::Err(e) => {
            eprintln!("error: server answered: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| usage());
    if cmd == "client" {
        return client_main();
    }
    let scale = Scale::from_args();
    match cmd.as_str() {
        "graph" => {
            let w = prepare(scale);
            let dot = kgraph::to_dot(&w.app.graph);
            match arg_value("--out") {
                Some(path) => {
                    std::fs::write(&path, dot).expect("write DOT file");
                    println!("wrote {path}");
                }
                None => print!("{dot}"),
            }
        }
        "schedule" => {
            let w = prepare(scale);
            let freq = parse_freq();
            let cal = calibrate(&w.app.graph, &w.gt, &w.cfg, freq, &CalibrationConfig::default());
            let mut kcfg = paper_ktiler_config(&w.cfg);
            if let Some(t) = arg_value("--thld") {
                kcfg.weight_threshold_ns = t.parse().expect("bad --thld");
            }
            let out = ktiler_schedule(&w.app.graph, &w.gt, &cal, &kcfg).unwrap();
            out.schedule.validate(&w.app.graph, &w.gt.deps).expect("valid schedule");
            eprintln!(
                "schedule: {} launches, {} clusters, est {} ms ({:?})",
                out.schedule.num_launches(),
                out.clusters.len(),
                ms(out.est_cost_ns),
                out.report
            );
            let text = ktiler::schedule_to_text(&out.schedule);
            match arg_value("--out") {
                Some(path) => {
                    std::fs::write(&path, text).expect("write schedule file");
                    println!("wrote {path}");
                }
                None => print!("{text}"),
            }
        }
        "run" => {
            let w = prepare(scale);
            let freq = parse_freq();
            let mode = arg_value("--mode").unwrap_or_else(|| "ktiler".into());
            let schedule = match arg_value("--schedule") {
                Some(path) => {
                    let text = std::fs::read_to_string(&path).expect("read schedule file");
                    ktiler::schedule_from_text(&text).expect("parse schedule file")
                }
                None if mode == "default" => Schedule::default_order(&w.app.graph),
                None => {
                    let cal =
                        calibrate(&w.app.graph, &w.gt, &w.cfg, freq, &CalibrationConfig::default());
                    ktiler_schedule(&w.app.graph, &w.gt, &cal, &paper_ktiler_config(&w.cfg))
                        .expect("fresh calibration always matches the workload graph")
                        .schedule
                }
            };
            schedule.validate(&w.app.graph, &w.gt.deps).expect("schedule must be valid");

            let mut engine = Engine::new(w.cfg.clone(), freq);
            match mode.as_str() {
                "default" | "ktiler" => {}
                "noig" => engine.set_inter_launch_gap_ns(0.0),
                "streamed" => engine.set_streamed(true),
                other => {
                    eprintln!("unknown mode '{other}'");
                    usage()
                }
            }
            let (report, tl) =
                execute_with_timeline(&mut engine, &schedule, &w.app.graph, &w.gt).unwrap();
            println!(
                "mode {mode} at {freq}: total {} ms = kernels {} + gaps {} + dma {} ms",
                ms(report.total_ns),
                ms(report.kernel_ns),
                ms(report.ig_ns),
                ms(report.dma_ns)
            );
            println!(
                "{} launches, L2 hit rate {}, read hit rate {}",
                report.launches,
                pct_opt(report.stats.hit_rate()),
                pct_opt(report.stats.read_hit_rate())
            );
            if let Some(path) = arg_value("--timeline") {
                std::fs::write(&path, tl.to_chrome_trace()).expect("write timeline");
                println!("timeline ({} slices) written to {path}", tl.slices.len());
            }
        }
        _ => usage(),
    }
}
