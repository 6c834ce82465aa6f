//! Application tiling (Sec. IV-C2, Algorithm 1 — the top-level KTILER
//! heuristic).
//!
//! Starting from one cluster per node, clusters are greedily merged along
//! the highest-weight candidate edges (weight = cache-sensitivity of the
//! consumer to that input, from calibration). A merge is kept only when
//! the resulting partition remains valid and the merged cluster's tiled
//! cost (Algorithm 2) beats the sum of the parts. The final schedule
//! concatenates each cluster's tiling sequence in cluster topological
//! order.

use std::collections::HashMap;

use kgraph::{AppGraph, GraphTrace, NodeId};

use crate::calibrate::Calibration;
use crate::cluster::{MergeCheck, Partition};
use crate::error::KtilerError;
use crate::subkernel::Schedule;
use crate::tile::{cluster_tile, singleton_tiling, ClusterTiling, TileParams};

/// Tunables of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KtilerConfig {
    /// Minimum edge weight (ns) for an edge to become a merge candidate —
    /// the paper's `thld`.
    pub weight_threshold_ns: f64,
    /// Capacity/cost parameters forwarded to Algorithm 2.
    pub tile: TileParams,
}

/// Diagnostics of one KTILER run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TilingReport {
    /// Candidate edges above the threshold.
    pub candidate_edges: usize,
    /// Merges accepted (cost improved).
    pub merges_accepted: usize,
    /// Merges evaluated but rejected (cost did not improve or the cluster
    /// was untileable).
    pub merges_rejected: usize,
    /// Merges skipped because the partition would have been invalid.
    pub merges_invalid: usize,
    /// `cluster_tile` evaluations answered from the memo cache.
    pub tilings_memoized: usize,
}

/// Result of the KTILER scheduler.
#[derive(Debug, Clone)]
pub struct TilingOutcome {
    /// The generated schedule (a total order of sub-kernels).
    pub schedule: Schedule,
    /// Final clusters (sorted node lists).
    pub clusters: Vec<Vec<NodeId>>,
    /// Estimated total cost of the schedule in nanoseconds.
    pub est_cost_ns: f64,
    /// Run diagnostics.
    pub report: TilingReport,
}

/// Runs Algorithm 1 and returns the tiled schedule.
///
/// # Errors
///
/// [`KtilerError::EmptyGraph`] for a graph with no nodes, or a
/// [`Calibration::validate_for`] failure when the calibration does not
/// match the graph (the old code panicked on an index later instead).
pub fn ktiler_schedule(
    g: &AppGraph,
    gt: &GraphTrace,
    cal: &Calibration,
    cfg: &KtilerConfig,
) -> Result<TilingOutcome, KtilerError> {
    if g.num_nodes() == 0 {
        return Err(KtilerError::EmptyGraph);
    }
    cal.validate_for(g)?;
    let mut partition = Partition::singletons(g);
    // Tilings and costs, parallel to the partition's cluster indices.
    let mut tilings: Vec<ClusterTiling> =
        g.node_ids().map(|v| singleton_tiling(v, g, cal, &cfg.tile)).collect();

    // Candidate edges above the threshold, highest weight first
    // (deterministic tie-break by edge id).
    let mut candidates: Vec<(f64, u32)> = g
        .edge_ids()
        .map(|e| (cal.edge_weights[e.0 as usize], e.0))
        .filter(|&(w, _)| w >= cfg.weight_threshold_ns && w > 0.0)
        .collect();
    candidates.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });

    let mut report = TilingReport { candidate_edges: candidates.len(), ..TilingReport::default() };
    // Memo cache for Algorithm 2: `cluster_tile` is a pure function of the
    // (sorted) member set, and Algorithm 1 re-evaluates the same candidate
    // merges many times as the partition evolves — distinct edges between
    // the same cluster pair, and re-scans after each accepted merge, all
    // produce identical member sets.
    let mut tiling_memo: HashMap<Vec<NodeId>, Option<ClusterTiling>> = HashMap::new();
    // Validity memo: between accepted merges the partition is unchanged, so
    // an edge found invalid stays invalid until the next accepted merge.
    // Algorithm 1 rescans from the top after every removal, which makes the
    // invalid prefix by far the most frequently re-evaluated work; caching
    // it per partition version turns those rescans into O(1) lookups.
    let mut version = 0u64;
    let mut invalid_at: Vec<u64> = vec![u64::MAX; g.num_edges()];
    let mut check = MergeCheck::default();
    let mut eix = 0usize;
    while eix < candidates.len() {
        let (_, edge_id) = candidates[eix];
        if invalid_at[edge_id as usize] == version {
            report.merges_invalid += 1;
            eix += 1;
            continue;
        }
        let edge = g.edge(kgraph::EdgeId(edge_id));
        let ca = partition.cluster_of(edge.src);
        let cb = partition.cluster_of(edge.dst);
        if ca == cb {
            candidates.remove(eix);
            eix = 0;
            continue;
        }
        if !partition.merge_keeps_valid(g, ca, cb, &mut check) {
            report.merges_invalid += 1;
            invalid_at[edge_id as usize] = version;
            eix += 1;
            continue;
        }
        let keep = ca.min(cb);
        let drop = ca.max(cb);
        let mut members = [partition.members(ca), partition.members(cb)].concat();
        members.sort_unstable();
        let merged_tiling = match tiling_memo.get(&members) {
            Some(cached) => {
                report.tilings_memoized += 1;
                cached.clone()
            }
            None => {
                let t = cluster_tile(&members, g, gt, cal, &cfg.tile);
                tiling_memo.insert(members, t.clone());
                t
            }
        };
        let old_cost = tilings[ca].cost_ns + tilings[cb].cost_ns;
        match merged_tiling {
            Some(t) if t.cost_ns < old_cost => {
                partition = partition.merged(ca, cb);
                debug_assert!(partition.is_valid(g), "merge check accepted an invalid partition");
                tilings.remove(drop);
                tilings[keep] = t;
                report.merges_accepted += 1;
                version += 1;
            }
            _ => {
                report.merges_rejected += 1;
            }
        }
        candidates.remove(eix);
        eix = 0;
    }

    // Final schedule: cluster tilings in cluster topological order.
    let order = partition.cluster_order(g).expect("a valid partition always has a cluster order");
    let mut schedule = Schedule::default();
    let mut est_cost_ns = 0.0;
    for c in order {
        schedule.launches.extend(tilings[c].launches.iter().cloned());
        est_cost_ns += tilings[c].cost_ns;
    }
    let clusters = partition.iter().map(<[NodeId]>::to_vec).collect();
    Ok(TilingOutcome { schedule, clusters, est_cost_ns, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate, CalibrationConfig};
    use crate::executor::execute_schedule;
    use gpu_sim::{BlockIdx, Buffer, DeviceMemory, Dim3, FreqConfig, GpuConfig, LaunchDims};
    use kgraph::{analyze, Kernel};
    use trace::ExecCtx;

    struct Map {
        src: Buffer,
        dst: Buffer,
        n: u32,
    }

    impl Kernel for Map {
        fn label(&self) -> String {
            "map".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(Dim3::linear(self.n.div_ceil(256)), Dim3::linear(256))
        }
        fn execute_block(&self, block: BlockIdx, ctx: &mut ExecCtx<'_>) {
            for tid in 0..256 {
                let gid = block.x as u64 * 256 + tid as u64;
                if gid < self.n as u64 {
                    let v = ctx.ld_f32(self.src, gid, tid);
                    ctx.st_f32(self.dst, gid, v * 0.5 + 1.0, tid);
                    ctx.compute(tid, 4);
                }
            }
        }
        fn signature(&self) -> Option<String> {
            Some(format!("map:{}:{}:{}", self.src.addr, self.dst.addr, self.n))
        }
    }

    /// A chain of `k` streaming kernels over `n` elements.
    fn chain(k: usize, n: u32) -> (kgraph::AppGraph, GraphTrace, DeviceMemory) {
        let mut mem = DeviceMemory::new();
        let bufs: Vec<Buffer> =
            (0..=k).map(|i| mem.alloc_f32(n as u64, &format!("b{i}"))).collect();
        let mut g = kgraph::AppGraph::new();
        let nodes: Vec<kgraph::NodeId> = (0..k)
            .map(|i| g.add_kernel(Box::new(Map { src: bufs[i], dst: bufs[i + 1], n })))
            .collect();
        for i in 1..k {
            g.add_edge(nodes[i - 1], nodes[i], bufs[i]);
        }
        let gt = analyze(&g, &mut mem, 128).unwrap();
        (g, gt, mem)
    }

    fn config(cfg: &GpuConfig) -> KtilerConfig {
        // The paper's cost model (Sec. III): the schedule cost is the sum
        // of sub-kernel execution times; the inter-launch gap is treated as
        // a mitigable overhead and excluded.
        KtilerConfig {
            weight_threshold_ns: 0.0,
            tile: TileParams::paper(cfg.cache.capacity_bytes, cfg.cache.line_bytes, 0.0),
        }
    }

    #[test]
    fn chain_of_cache_sensitive_kernels_merges_and_speeds_up() {
        let (g, gt, _mem) = chain(4, 1024 * 1024);
        let cfg = GpuConfig::gtx960m();
        let freq = FreqConfig::default();
        let cal = calibrate(&g, &gt, &cfg, freq, &CalibrationConfig::default());
        let out = ktiler_schedule(&g, &gt, &cal, &config(&cfg)).unwrap();
        assert!(out.report.merges_accepted > 0, "expected merges: {:?}", out.report);
        out.schedule.validate(&g, &gt.deps).unwrap();

        // The "w/o IG" comparison isolates the cache effect (Fig. 5's
        // right bars): the tiled schedule must win.
        let def =
            execute_schedule(&crate::Schedule::default_order(&g), &g, &gt, &cfg, freq, Some(0.0))
                .unwrap();
        let tiled = execute_schedule(&out.schedule, &g, &gt, &cfg, freq, Some(0.0)).unwrap();
        assert!(
            tiled.total_ns < def.total_ns,
            "tiled {} must beat default {}",
            tiled.total_ns,
            def.total_ns
        );
        assert!(tiled.stats.hit_rate().unwrap() > def.stats.hit_rate().unwrap());
    }

    #[test]
    fn ig_aware_cost_model_tiles_less() {
        let (g, gt, _mem) = chain(3, 512 * 1024);
        let cfg = GpuConfig::gtx960m();
        let freq = FreqConfig::default();
        let cal = calibrate(&g, &gt, &cfg, freq, &CalibrationConfig::default());
        let plain = ktiler_schedule(&g, &gt, &cal, &config(&cfg)).unwrap();
        let mut ig_cfg = config(&cfg);
        ig_cfg.tile.ig_cost_ns = cfg.inter_launch_gap_ns;
        let ig_aware = ktiler_schedule(&g, &gt, &cal, &ig_cfg).unwrap();
        // Charging the gap per launch can only make tiling less attractive.
        assert!(ig_aware.schedule.num_launches() <= plain.schedule.num_launches());
    }

    #[test]
    fn high_threshold_disables_tiling() {
        let (g, gt, _mem) = chain(3, 256 * 1024);
        let cfg = GpuConfig::gtx960m();
        let cal = calibrate(&g, &gt, &cfg, FreqConfig::default(), &CalibrationConfig::default());
        let mut kcfg = config(&cfg);
        kcfg.weight_threshold_ns = f64::INFINITY;
        let out = ktiler_schedule(&g, &gt, &cal, &kcfg).unwrap();
        assert_eq!(out.report.candidate_edges, 0);
        assert_eq!(out.schedule.num_launches(), 3, "default one-launch-per-node");
        assert_eq!(out.clusters.len(), 3);
    }

    #[test]
    fn schedule_is_always_valid() {
        for n in [4096u32, 64 * 1024, 512 * 1024] {
            let (g, gt, _mem) = chain(3, n);
            let cfg = GpuConfig::gtx960m();
            let cal =
                calibrate(&g, &gt, &cfg, FreqConfig::default(), &CalibrationConfig::default());
            let out = ktiler_schedule(&g, &gt, &cal, &config(&cfg)).unwrap();
            out.schedule.validate(&g, &gt.deps).unwrap();
        }
    }

    #[test]
    fn typed_errors_for_empty_graph_and_mismatched_calibration() {
        let (g, gt, _mem) = chain(2, 4096);
        let cfg = GpuConfig::gtx960m();
        let cal = calibrate(&g, &gt, &cfg, FreqConfig::default(), &CalibrationConfig::default());

        let empty = kgraph::AppGraph::new();
        assert!(matches!(
            ktiler_schedule(&empty, &gt, &cal, &config(&cfg)),
            Err(KtilerError::EmptyGraph)
        ));

        let mut bad = cal.clone();
        bad.tables.pop();
        assert!(matches!(
            ktiler_schedule(&g, &gt, &bad, &config(&cfg)),
            Err(KtilerError::CalibrationMismatch { what: "performance tables", .. })
        ));
    }

    #[test]
    fn estimate_tracks_measured_time_direction() {
        let (g, gt, _mem) = chain(4, 1024 * 1024);
        let cfg = GpuConfig::gtx960m();
        let freq = FreqConfig::default();
        let cal = calibrate(&g, &gt, &cfg, freq, &CalibrationConfig::default());
        let out = ktiler_schedule(&g, &gt, &cal, &config(&cfg)).unwrap();
        // The cost model excludes the inter-launch gap, so compare against
        // the "w/o IG" execution mode.
        let tiled = execute_schedule(&out.schedule, &g, &gt, &cfg, freq, Some(0.0)).unwrap();
        let ratio = out.est_cost_ns / tiled.total_ns;
        assert!((0.4..2.5).contains(&ratio), "estimate off by {ratio}x");
    }
}
