//! The fast analyzer (structural trace reuse + analytical affine
//! footprints) must be indistinguishable from the full-trace reference:
//! same node order, byte-identical per-block traces, identical dependency
//! CSR. These tests prove it on the HSOpticalFlow workload **and on every
//! workload in the zoo** (multigrid V-cycle, image pipeline, tiled-matmul
//! chain) — the zoo DAGs exercise structural shapes (deep restriction
//! chains, aliased frame buffers, ping-pong matmul operands) the
//! optical-flow pyramid never produces. Every test also pins how many
//! kernels the fast analyzer had to record (the rest are shared, rebased
//! or synthesized), and the paper-scale test gates how much faster it is
//! than the reference.
//!
//! The small-scale tests run in the normal suite; the 512²/30-iter/3-level
//! optical-flow workload from the paper replication and the mid-scale zoo
//! sweep are `#[ignore]`d (tens of seconds in release, minutes in debug)
//! and exercised by `scripts/check.sh`.

use std::time::Instant;

use bench::{build_workload_app, Scale};
use kgraph::{GraphTrace, TraceSource};
use zoo::ZooApp;

/// The GTX 960M cache-line size used by the paper replication.
fn line_bytes() -> u64 {
    gpu_sim::GpuConfig::gtx960m().cache.line_bytes
}

/// Asserts two analysis results are fully equivalent: identical execution
/// order, identical per-node block traces (work, word footprints,
/// transactions, line sets), and identical dependency CSR.
fn assert_equivalent(a: &GraphTrace, b: &GraphTrace, label: &str) {
    assert_eq!(a.order, b.order, "{label}: node order differs");
    assert_eq!(a.nodes.len(), b.nodes.len(), "{label}: node count differs");
    for (id, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
        assert_eq!(*na.blocks, *nb.blocks, "{label}: traces differ at node {id}");
    }
    assert_eq!(a.deps, b.deps, "{label}: dependency graphs differ");
}

/// Wall-clock seconds spent in `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds taken by the one reference run and the one fast run of
/// [`check_builds`], and how many kernels the fast run recorded.
struct Timings {
    reference_s: f64,
    fast_s: f64,
    recorded: usize,
}

/// Runs the reference, the fast and the full analyzer on fresh builds of
/// the same application and requires the other two to equal the
/// reference. Builders must be deterministic — each analysis executes the
/// graph and mutates device memory, so every path gets its own build.
fn check_builds<F: Fn() -> (kgraph::AppGraph, gpu_sim::DeviceMemory)>(
    build: F,
    label: &str,
) -> Timings {
    let (graph, mut mem) = build();
    let (reference, reference_s) =
        timed(|| kgraph::analyze_reference(&graph, &mut mem, line_bytes()));
    let reference = reference.expect("workload graphs are DAGs");

    let (graph, mut mem) = build();
    let (fast, fast_s) = timed(|| kgraph::analyze_fast(&graph, &mut mem, line_bytes()));
    let fast = fast.expect("workload graphs are DAGs");
    assert_equivalent(&fast, &reference, &format!("{label}: analyze_fast"));

    let (graph, mut mem) = build();
    let full = kgraph::analyze(&graph, &mut mem, line_bytes()).expect("workload graphs are DAGs");
    assert_equivalent(&full, &reference, &format!("{label}: analyze"));
    Timings { reference_s, fast_s, recorded: fast.count(TraceSource::Recorded) }
}

fn optflow(scale: Scale) -> impl Fn() -> (kgraph::AppGraph, gpu_sim::DeviceMemory) {
    move || {
        let app = build_workload_app(scale);
        (app.graph, app.mem)
    }
}

/// Requires the fast analyzer to have recorded exactly `expected`
/// kernels. A timing ratio cannot see a fast path that silently falls
/// back to recording (the reference's own time is mostly its dependency
/// pass); this count can.
fn assert_recorded(t: &Timings, expected: usize, label: &str) {
    assert_eq!(t.recorded, expected, "{label}: analyze_fast recorded {} kernels", t.recorded);
}

fn check_zoo(build: fn() -> ZooApp, label: &str, recorded: usize) {
    let t = check_builds(
        || {
            let app = build();
            (app.graph, app.mem)
        },
        label,
    );
    assert_recorded(&t, recorded, label);
}

/// Optical flow records three kernels at any scale; every other kernel
/// instance (each Jacobi iteration, warp and pyramid level) is shared,
/// rebased or synthesized.
const OPTFLOW_RECORDED: usize = 3;

#[test]
fn fast_analyzer_matches_reference_small() {
    let label = "hsoptflow 128x4x3";
    let t = check_builds(optflow(Scale { size: 128, iters: 4, levels: 3 }), label);
    assert_recorded(&t, OPTFLOW_RECORDED, label);
}

#[test]
fn fast_analyzer_matches_reference_zoo_small() {
    check_zoo(|| zoo::build_multigrid(32, 2), "multigrid 32x32x2", 0);
    check_zoo(|| zoo::build_image_pipeline(64, 48, 2), "image_pipeline 64x48x2", 3);
    check_zoo(|| zoo::build_matmul_chain(24, 3), "matmul_chain 24x24x3", 3);
}

/// The acceptance-bar workload: 512², 30 Jacobi iterations, 3 pyramid
/// levels. Run with `cargo test --release -p bench -- --ignored`.
///
/// Also the fast-vs-oracle gate: the reference must take at least 5x as
/// long as the fastest of three `analyze_fast` runs (it reads 15–23x on a
/// 2-vCPU VM). A dependency pass quadratic in blocks per node (fast
/// analysis ~9 s) fails it. It is coarse: a fast analyzer that records
/// every kernel still reads ~5.6x, because the reference's own time is
/// mostly its word-level dependency pass; the recorded-kernel count
/// catches that case instead.
#[test]
#[ignore = "tens of seconds in release; exercised by scripts/check.sh"]
fn fast_analyzer_matches_reference_paper_scale() {
    let build = optflow(Scale::default());
    let t = check_builds(&build, "hsoptflow 512x30x3");
    let fast_s = (0..2)
        .map(|_| {
            let (graph, mut mem) = build();
            timed(|| kgraph::analyze_fast(&graph, &mut mem, line_bytes())).1
        })
        .fold(t.fast_s, f64::min);
    let speedup = t.reference_s / fast_s;
    println!(
        "analyze_speedup {speedup:.1} (reference {:.2} s, fastest analyze_fast {fast_s:.3} s)",
        t.reference_s
    );
    assert!(speedup >= 5.0, "fast analyzer only {speedup:.2}x faster than the reference (< 5)");
    assert_recorded(&t, OPTFLOW_RECORDED, "hsoptflow 512x30x3");
}

/// Mid-scale zoo sweep: large enough that structural trace reuse and the
/// affine fallback conditions are all exercised, small enough to keep the
/// `--ignored` gate fast. Run with `cargo test --release -p bench -- --ignored`.
#[test]
#[ignore = "seconds in release, minutes in debug; exercised by scripts/check.sh"]
fn fast_analyzer_matches_reference_zoo_mid_scale() {
    check_zoo(|| zoo::build_multigrid(128, 4), "multigrid 128x128x4", 0);
    check_zoo(|| zoo::build_image_pipeline(256, 192, 3), "image_pipeline 256x192x3", 3);
    check_zoo(|| zoo::build_matmul_chain(96, 4), "matmul_chain 96x96x4", 3);
}
