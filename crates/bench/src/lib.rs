//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the experiment index). They share the application
//! setup and the KTILER invocation defined here, so all experiments run on
//! identical machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gpu_sim::{FreqConfig, GpuConfig};
use hsoptflow::{build_app, synthetic_pair, HsParams, OptFlowApp};
use kgraph::GraphTrace;
use ktiler::{
    calibrate, execute_schedule, ktiler_schedule, Calibration, CalibrationConfig, KtilerConfig,
    RunReport, Schedule, TileParams, TilingOutcome,
};

/// Workload scale of the HSOpticalFlow experiments.
///
/// The paper runs 1024×1024 frames with 500 Jacobi iterations per step and
/// averages 5000 runs; the default here is a 512×512 / 30-iteration
/// configuration that preserves all regime boundaries (the finest level's
/// working set exceeds the 2 MiB L2) while keeping the harness fast. Every
/// binary accepts `--size N` and `--iters N` to scale up to paper settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Frame width and height in pixels.
    pub size: u32,
    /// Jacobi iterations per pyramid step.
    pub iters: u32,
    /// Pyramid levels ("major steps").
    pub levels: u32,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { size: 512, iters: 30, levels: 3 }
    }
}

impl Scale {
    /// Parses `--size N` and `--iters N` from command-line arguments,
    /// starting from the default scale.
    pub fn from_args() -> Self {
        let mut scale = Scale::default();
        let args: Vec<String> = std::env::args().collect();
        for i in 0..args.len() {
            match args[i].as_str() {
                "--size" => {
                    scale.size =
                        args.get(i + 1).and_then(|s| s.parse().ok()).expect("--size needs a number")
                }
                "--iters" => {
                    scale.iters = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--iters needs a number")
                }
                _ => {}
            }
        }
        scale
    }
}

/// A fully analyzed HSOpticalFlow workload: graph, traces, device config.
#[derive(Debug)]
pub struct Workload {
    /// The application (graph + device memory).
    pub app: OptFlowApp,
    /// Block analysis results.
    pub gt: GraphTrace,
    /// Device model.
    pub cfg: GpuConfig,
}

/// Builds the optical-flow application at the given scale without running
/// the block analyzer (deterministic synthetic frames, ground-truth flow
/// (1.0, 0.5)). Useful when the analysis pass itself is the thing being
/// measured — each analysis run needs a freshly built application because
/// analysis executes the graph and mutates device memory.
pub fn build_workload_app(scale: Scale) -> OptFlowApp {
    let p =
        HsParams { levels: scale.levels, jacobi_iters: scale.iters, warp_iters: 1, alpha2: 0.1 };
    let (f0, f1) = synthetic_pair(scale.size, scale.size, 1.0, 0.5, 7);
    build_app(&f0, &f1, &p)
}

/// Builds and analyzes the optical-flow application at the given scale
/// (deterministic synthetic frames, ground-truth flow (1.0, 0.5)).
pub fn prepare(scale: Scale) -> Workload {
    let mut app = build_workload_app(scale);
    let cfg = GpuConfig::gtx960m();
    let gt = kgraph::analyze(&app.graph, &mut app.mem, cfg.cache.line_bytes)
        .expect("optical-flow graph is a DAG");
    Workload { app, gt, cfg }
}

/// The KTILER configuration used by the paper-replication experiments:
/// cost model without IG (Sec. III), 1 µs weight threshold.
pub fn paper_ktiler_config(cfg: &GpuConfig) -> KtilerConfig {
    KtilerConfig {
        weight_threshold_ns: 1_000.0,
        tile: TileParams::paper(cfg.cache.capacity_bytes, cfg.cache.line_bytes, 0.0),
    }
}

/// Calibrates and runs KTILER on a workload at one operating point.
pub fn schedule_at(w: &Workload, freq: FreqConfig) -> (Calibration, TilingOutcome) {
    let cal = calibrate(&w.app.graph, &w.gt, &w.cfg, freq, &CalibrationConfig::default());
    let out = ktiler_schedule(&w.app.graph, &w.gt, &cal, &paper_ktiler_config(&w.cfg))
        .expect("benchmark workloads are non-empty and freshly calibrated");
    out.schedule
        .validate(&w.app.graph, &w.gt.deps)
        .expect("KTILER schedules are dependency-valid by construction");
    (cal, out)
}

/// The three evaluation modes of Figure 5 at one operating point.
#[derive(Debug, Clone)]
pub struct ModeResults {
    /// Default mode: one launch per kernel in topological order.
    pub default: RunReport,
    /// KTILER schedule with the device's inter-launch gap.
    pub ktiler: RunReport,
    /// KTILER schedule with the gap excluded ("KTILER w/o IG").
    pub ktiler_no_ig: RunReport,
    /// The schedule that was executed.
    pub outcome: TilingOutcome,
}

/// Runs all three Figure 5 modes at one operating point.
pub fn run_modes(w: &Workload, freq: FreqConfig) -> ModeResults {
    let (_, outcome) = schedule_at(w, freq);
    let default = execute_schedule(
        &Schedule::default_order(&w.app.graph),
        &w.app.graph,
        &w.gt,
        &w.cfg,
        freq,
        None,
    )
    .expect("default-order schedules launch in-trace blocks only");
    let ktiler = execute_schedule(&outcome.schedule, &w.app.graph, &w.gt, &w.cfg, freq, None)
        .expect("KTILER schedules launch in-trace blocks only");
    let ktiler_no_ig =
        execute_schedule(&outcome.schedule, &w.app.graph, &w.gt, &w.cfg, freq, Some(0.0))
            .expect("KTILER schedules launch in-trace blocks only");
    ModeResults { default, ktiler, ktiler_no_ig, outcome }
}

/// Formats a nanosecond duration as milliseconds with two decimals.
pub fn ms(ns: f64) -> String {
    format!("{:.2}", ns / 1e6)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Formats an optional fraction (e.g. [`LaunchStats::hit_rate`]) as a
/// percentage, or `"n/a"` when no accesses occurred.
///
/// [`LaunchStats::hit_rate`]: gpu_sim::LaunchStats::hit_rate
pub fn pct_opt(frac: Option<f64>) -> String {
    frac.map(pct).unwrap_or_else(|| "n/a".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_prepares_and_runs() {
        let w = prepare(Scale { size: 64, iters: 3, levels: 2 });
        let res = run_modes(&w, FreqConfig::default());
        assert!(res.default.total_ns > 0.0);
        assert!(res.ktiler_no_ig.total_ns <= res.ktiler.total_ns);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(2_500_000.0), "2.50");
        assert_eq!(pct(0.305), "30.5%");
    }
}
