//! A long-running scheduling service over the KTILER pipeline.
//!
//! The pipeline (analyze → calibrate → tile, see the `ktiler` crate) is
//! deterministic and pure in its inputs, which makes its output — the
//! schedule — cacheable by content: two requests with the same kernel
//! graph, grid geometry, cache configuration and performance model get the
//! byte-identical `.sched` artifact. This crate wraps the pipeline in a
//! service that exploits exactly that:
//!
//! * [`key`] — the content-addressed [`CacheKey`] over the tiler's inputs;
//! * [`cache`] — the on-disk artifact store ([`ScheduleCache`]); each
//!   artifact is verified once per process, then exact-byte checked;
//! * [`service`] — the worker pool, bounded queue with shedding, per-request
//!   deadlines and single-flight deduplication ([`Service`] / [`Client`]);
//! * [`metrics`] — lock-free counters and latency histograms ([`Metrics`]);
//! * [`proto`] / [`server`] — a versioned, length-prefixed line protocol
//!   over TCP served by a single-threaded readiness event loop ([`serve`],
//!   [`NetClient`], [`FrontEnd`]), so one warmed cache can serve many
//!   processes — and many *nodes*: peers read-through-fill each other's
//!   misses (`FETCH`) and repair each other's key sets by anti-entropy
//!   (`DIGEST`/`SYNC`), and the `ktiler-gateway` crate shards the key
//!   space over a consistent-hash ring of such nodes;
//! * [`fault`] — a deterministic fault-injection layer ([`FaultInjector`],
//!   [`FaultPlan`]): named fault points compiled into the hot paths, armed
//!   by seeded plans, used by the chaos suite to prove the service
//!   contains panics, respawns crashed workers and degrades to verified
//!   untiled schedules instead of failing requests.
//!
//! Everything is `std`-only, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fault;
pub mod key;
mod lru;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheProbe, ScheduleCache, StoreOutcome};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
pub use key::{schedule_cache_key, CacheKey, KeyHasher};
pub use metrics::Metrics;
pub use server::{
    digest_from_peer, fetch_from_peer, serve, serve_front, serve_with, Dispatch, FrontEnd,
    NetClient, ResponseSink, ResponseTicket, RetryPolicy, Server, ServerTuning,
};
pub use service::{
    Client, Outcome, ScheduleRequest, ScheduleResponse, Service, ServiceConfig, SvcError, Ticket,
    TicketSink, WorkloadSpec,
};
