//! Scaling gate for the fast analyzer: quadrupling the pixel count must
//! cost at most ~6x, not the ~10x a superlinear dependency pass shows.
//!
//! The absolute-speed gate in `scripts/check.sh` (`analyze_speedup >= 5`
//! at 192²) compares against the reference at one small size, where a
//! cost that grows with blocks-per-node squared is still cheap. This test
//! times `kgraph::analyze_fast` on optical flow at 256²×10×3 and
//! 512²×10×3 and bounds their ratio, so such a regression fails at smoke
//! cost. Linear scaling reads ~4.
//!
//! Samples alternate between the two sizes and each size keeps its
//! minimum, so a CPU-speed shift during the run biases neither side.
//! `#[ignore]`d because only a release build gives meaningful timings;
//! run with `cargo test --release -p bench --test analyzer_scaling --
//! --ignored`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bench::{build_workload_app, Scale};

/// Largest accepted 512²/256² time ratio.
const MAX_RATIO: f64 = 6.0;

/// Timed samples per size.
const SAMPLES: usize = 3;

/// One timed fast analysis on a fresh build (analysis mutates device
/// memory, so every sample needs its own application).
fn time_analyze(size: u32) -> Duration {
    let mut app = build_workload_app(Scale { size, iters: 10, levels: 3 });
    let line_bytes = gpu_sim::GpuConfig::gtx960m().cache.line_bytes;
    let start = Instant::now();
    let gt = kgraph::analyze_fast(&app.graph, &mut app.mem, line_bytes)
        .expect("optical-flow graph is a DAG");
    let elapsed = start.elapsed();
    black_box(gt);
    elapsed
}

#[test]
#[ignore = "timing gate, meaningful only in release; exercised by scripts/check.sh"]
fn fast_analyzer_scales_linearly_in_pixels() {
    let (mut small, mut large) = (Duration::MAX, Duration::MAX);
    for _ in 0..SAMPLES {
        small = small.min(time_analyze(256));
        large = large.min(time_analyze(512));
    }
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    println!(
        "analyze_fast: 256²×10×3 {:.1} ms, 512²×10×3 {:.1} ms, ratio {ratio:.2} (max {MAX_RATIO})",
        small.as_secs_f64() * 1e3,
        large.as_secs_f64() * 1e3,
    );
    assert!(
        ratio <= MAX_RATIO,
        "fast analyzer scales superlinearly: 512² takes {ratio:.2}x the 256² time (max {MAX_RATIO})"
    );
}
