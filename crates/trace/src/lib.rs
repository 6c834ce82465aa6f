//! # trace — the block analyzer
//!
//! Reproduces the paper's block-analyzer module (Sec. IV-B): on real
//! hardware it records a SASSI instrumentation trace of every thread's
//! memory accesses and post-processes it on the host; here the recording
//! happens while kernels execute functionally on the simulator, producing
//! the same information:
//!
//! 1. **per-thread memory traces**, coalesced into warp-level line
//!    transactions ([`TraceRecorder`], [`BlockTrace`]) — consumed by the
//!    timing engine of `gpu-sim`;
//! 2. the **block dependency graph** ([`BlockDepGraph`]) — block `B`
//!    depends on `B'` iff a thread of `B` reads an address previously
//!    written by a thread of `B'`; used to keep tiled schedules functionally
//!    correct;
//! 3. **memory lines per block** ([`FootprintSet`]) — used by the scheduler
//!    to bound a sub-kernel group's footprint by the L2 capacity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affine;
mod blockdep;
mod footprint;
mod lineset;
mod record;
mod structural;
mod wordmap;

pub use affine::synthesize_affine;
pub use blockdep::{BlockDepGraph, BlockRef, DepGraphBuilder};
pub use footprint::{footprint_of, FootprintSet};
pub use lineset::LineSet;
pub use record::{
    coalesce_blocks, rebase_traces, AccessKind, BlockTrace, ExecCtx, OffsetMap, RawBlockTrace,
    ThreadAccess, TraceRecorder,
};
pub use structural::StructuralDepBuilder;
pub use wordmap::WordMap;
