//! # ktiler — cache-aware kernel tiling
//!
//! Reproduction of the core contribution of *"Cache-Aware Kernel Tiling: An
//! Approach for System-Level Performance Optimization of GPU-Based
//! Applications"* (DATE 2019): a system-level scheduler that splits the
//! kernels of a GPU application into sub-kernels and interleaves them so
//! that intermediate data passes through the shared L2 cache instead of
//! DRAM.
//!
//! The pipeline, mirroring Sec. IV of the paper:
//!
//! 1. **Block analysis** — performed by the `kgraph`/`trace` crates: one
//!    functional run yields per-block traces, footprints and the block
//!    dependency graph.
//! 2. **Calibration** ([`calibrate`]) — builds the per-kernel performance
//!    tables and edge weights the paper takes as user-provided input.
//! 3. **Application tiling** ([`ktiler_schedule`], Algorithm 1) — greedy
//!    cluster merging over the application graph, with per-merge tiling by
//!    [`cluster_tile`] (Algorithm 2) under the L2 footprint constraint.
//! 4. **Runtime enforcement** ([`execute_schedule`]) — replays the
//!    schedule on the `gpu-sim` device with its persistent L2.
//!
//! ```no_run
//! use gpu_sim::{DeviceMemory, FreqConfig, GpuConfig};
//! use ktiler::{calibrate, execute_schedule, ktiler_schedule,
//!              CalibrationConfig, KtilerConfig, Schedule, TileParams};
//!
//! # fn build_app(mem: &mut DeviceMemory) -> kgraph::AppGraph { unimplemented!() }
//! let mut mem = DeviceMemory::new();
//! let graph = build_app(&mut mem);
//! let cfg = GpuConfig::gtx960m();
//! let freq = FreqConfig::new(1324.0, 5010.0);
//!
//! let gt = kgraph::analyze(&graph, &mut mem, cfg.cache.line_bytes).unwrap();
//! let cal = calibrate(&graph, &gt, &cfg, freq, &CalibrationConfig::default());
//! let kcfg = KtilerConfig {
//!     weight_threshold_ns: 1_000.0,
//!     tile: TileParams::paper(cfg.cache.capacity_bytes, cfg.cache.line_bytes, 0.0),
//! };
//! let out = ktiler_schedule(&graph, &gt, &cal, &kcfg).unwrap();
//! let tiled = execute_schedule(&out.schedule, &graph, &gt, &cfg, freq, None).unwrap();
//! let default = execute_schedule(&Schedule::default_order(&graph), &graph, &gt, &cfg, freq, None)
//!     .unwrap();
//! println!("gain: {:.1}%", tiled.gain_over(&default).unwrap_or(0.0) * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod cluster;
mod error;
mod executor;
mod io;
mod perf_table;
mod schedule;
mod subkernel;
mod tile;
mod timeline;
mod verify;

pub use calibrate::{calibrate, Calibration, CalibrationConfig};
pub use cluster::{MergeCheck, Partition};
pub use error::KtilerError;
pub use executor::{
    execute_on, execute_schedule, execute_schedule_opts, launch_subkernel, ExecOptions, RunReport,
};
pub use io::{
    schedule_from_text, schedule_from_text_opts, schedule_to_text, ParseOptions,
    ParseScheduleError, DEFAULT_MAX_TOTAL_BLOCKS,
};
pub use perf_table::{PerfTable, PredMask};
pub use schedule::{ktiler_schedule, KtilerConfig, TilingOutcome, TilingReport};
pub use subkernel::{Schedule, ScheduleError, SubKernel};
pub use tile::{cluster_tile, singleton_tiling, CacheConstraint, ClusterTiling, TileParams};
pub use timeline::{execute_with_timeline, Slice, SliceKind, Timeline};
pub use verify::{verify_schedule, Severity, VerifyReport, Violation};
