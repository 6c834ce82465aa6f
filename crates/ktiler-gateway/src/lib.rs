//! The multi-node deployment layer over `ktiler-svc`: a consistent-hash
//! ring sharding the 128-bit schedule-key space across nodes, and a
//! gateway that routes requests to the owning shard and fails over to
//! the next owner when a node dies mid-request.
//!
//! The deployment story (DESIGN.md §15):
//!
//! * Every node is a plain `ktiler_serve` process; nodes configured as
//!   peers read-through-fill each other's cache misses (`FETCH`) and,
//!   with a sync interval, pull each other's missing keys (anti-entropy)
//!   — the only way artifacts move between nodes.
//! * The [`HashRing`](ring::HashRing) is computed independently by every
//!   participant from the shared `(node list, vnodes, seed)` — placement
//!   needs no coordination service.
//! * The [`Gateway`] speaks the same wire protocol as a node, so clients
//!   cannot tell the difference; it owns no cache and computes nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
pub mod ring;

pub use gateway::{Gateway, GatewayConfig, NodeState};
pub use ring::HashRing;
