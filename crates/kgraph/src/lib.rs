//! # kgraph — the application-graph model
//!
//! A GPU application is modeled as a graph whose nodes are kernels (or
//! host↔device transfers) and whose edges capture data dependencies
//! (Sec. III of the paper). This crate provides:
//!
//! * the [`Kernel`] trait — launch geometry plus functional, instrumented
//!   per-block execution;
//! * [`AppGraph`] — the coarse application graph the scheduler partitions;
//! * DAG utilities ([`topo_order`], [`reachable`], [`is_connected_subgraph`]);
//! * [`analyze`] — one functional run of the whole application that yields
//!   every node's block traces and the block dependency graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod builder;
mod check;
mod dag;
mod dot;
mod graph;
mod kernel;

pub use analyze::{analyze, analyze_fast, analyze_reference, GraphTrace, NodeTrace};
pub use builder::GraphBuilder;
pub use check::{check_edges, EdgeCheck};
pub use dag::{is_connected_subgraph, reachable, topo_order, CycleError};
pub use dot::{block_deps_to_dot, to_dot};
pub use graph::{AppGraph, Edge, EdgeId, Node, NodeId, NodeOp};
pub use kernel::{threads, Kernel, StructuralSig};
