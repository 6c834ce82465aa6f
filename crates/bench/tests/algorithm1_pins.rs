//! Pins Algorithm 1's decisions on optical flow: the `TilingReport`
//! counters and the launch count of the schedule a default service node
//! serves at (1324, 1600) MHz.
//!
//! Every counter is a count of decisions (candidate edges above the
//! threshold, merges accepted, rejected on cost, refused as invalid, and
//! tilings answered from the memo), so a change to the merge check, the
//! candidate order or the rescan loop that alters any decision moves at
//! least one of them. The 256²×10×3 point runs with the suite; the
//! paper-scale 512²×30×3 point is `#[ignore]`d because it needs a release
//! build (`cargo test --release -p bench --test algorithm1_pins --
//! --ignored`, run by `scripts/check.sh`).

use bench::{build_workload_app, paper_ktiler_config, Scale};
use gpu_sim::{FreqConfig, GpuConfig};
use ktiler::{calibrate, ktiler_schedule, CalibrationConfig, TilingReport};

/// Analyzes, calibrates and tiles optical flow at `scale` with the default
/// service model, returning the report and the launch count.
fn tile(scale: Scale) -> (TilingReport, usize) {
    let mut app = build_workload_app(scale);
    let gpu = GpuConfig::gtx960m();
    let gt = kgraph::analyze_fast(&app.graph, &mut app.mem, gpu.cache.line_bytes)
        .expect("optical-flow graph is a DAG");
    let freq = FreqConfig::new(1324.0, 1600.0);
    let cal = calibrate(&app.graph, &gt, &gpu, freq, &CalibrationConfig::default());
    let out = ktiler_schedule(&app.graph, &gt, &cal, &paper_ktiler_config(&gpu))
        .expect("optical flow is non-empty and freshly calibrated");
    (out.report, out.schedule.num_launches())
}

#[test]
fn algorithm1_decisions_at_256() {
    let (report, launches) = tile(Scale { size: 256, iters: 10, levels: 3 });
    assert_eq!(
        report,
        TilingReport {
            candidate_edges: 190,
            merges_accepted: 34,
            merges_rejected: 12,
            merges_invalid: 4_246,
            tilings_memoized: 6,
        }
    );
    assert_eq!(launches, 73);
}

#[test]
#[ignore = "paper scale: run in release"]
fn algorithm1_decisions_at_512() {
    let (report, launches) = tile(Scale { size: 512, iters: 30, levels: 3 });
    assert_eq!(
        report,
        TilingReport {
            candidate_edges: 824,
            merges_accepted: 106,
            merges_rejected: 72,
            merges_invalid: 53_663,
            tilings_memoized: 47,
        }
    );
    assert_eq!(launches, 765);
}
