//! Ablation — the two-phase clustering of Algorithm 1.
//!
//! Compares four policies on the optical-flow application:
//!
//! * **no merging** — every node is its own cluster (the default schedule);
//! * **Algorithm 1 (paper)** — greedy cost-checked merging along
//!   high-weight edges;
//! * **merge-all** — accept every valid merge regardless of estimated cost
//!   (one mega-cluster per weakly connected component in the limit);
//! * **pairs only** — Algorithm 1 restricted to clusters of at most two
//!   nodes (no deep producer chains).
//!
//! Usage: `cargo run --release -p bench --bin ablation_clustering [--size N] [--iters N]`

use bench::{ms, paper_ktiler_config, pct, prepare, Scale, Workload};
use gpu_sim::FreqConfig;
use kgraph::NodeId;
use ktiler::{
    calibrate, cluster_tile, execute_schedule, ktiler_schedule, singleton_tiling, Calibration,
    CalibrationConfig, MergeCheck, Partition, RunReport, Schedule,
};

/// Greedy merge-everything: accept every valid merge along every positive-
/// weight edge, without consulting the cost model.
fn merge_all(w: &Workload, cal: &Calibration) -> Schedule {
    let g = &w.app.graph;
    let kcfg = paper_ktiler_config(&w.cfg);
    let mut partition = Partition::singletons(g);
    let mut check = MergeCheck::default();
    let mut edges: Vec<(f64, u32)> = g
        .edge_ids()
        .map(|e| (cal.edge_weights[e.0 as usize], e.0))
        .filter(|&(wt, _)| wt > 0.0)
        .collect();
    edges.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut i = 0;
    while i < edges.len() {
        let edge = g.edge(kgraph::EdgeId(edges[i].1));
        let (ca, cb) = (partition.cluster_of(edge.src), partition.cluster_of(edge.dst));
        if ca != cb {
            if partition.merge_keeps_valid(g, ca, cb, &mut check) {
                partition = partition.merged(ca, cb);
                edges.remove(i);
                i = 0;
                continue;
            }
        } else {
            edges.remove(i);
            i = 0;
            continue;
        }
        i += 1;
    }
    let order = partition.cluster_order(g).expect("valid partition");
    let mut sched = Schedule::default();
    for c in order {
        let members: Vec<NodeId> = partition.members(c).to_vec();
        let tiling = if members.len() == 1 {
            singleton_tiling(members[0], g, cal, &kcfg.tile)
        } else {
            cluster_tile(&members, g, &w.gt, cal, &kcfg.tile).unwrap_or_else(|| {
                // Untileable mega-cluster: fall back to per-node launches.
                let mut launches = Vec::new();
                let mut cost = 0.0;
                for &m in &members {
                    let t = singleton_tiling(m, g, cal, &kcfg.tile);
                    cost += t.cost_ns;
                    launches.extend(t.launches);
                }
                ktiler::ClusterTiling { launches, cost_ns: cost }
            })
        };
        sched.launches.extend(tiling.launches);
    }
    sched
}

fn report(name: &str, r: &RunReport, baseline: &RunReport, launches: usize) {
    println!(
        "{:<22} {:>8}ms {:>8} {:>9} {:>9.2}",
        name,
        ms(r.total_ns),
        pct(r.gain_over(baseline).unwrap_or(0.0)),
        launches,
        r.stats.hit_rate().unwrap_or(f64::NAN)
    );
}

fn main() {
    let scale = Scale::from_args();
    println!("== Ablation: clustering policy (Algorithm 1) ==");
    let w = prepare(scale);
    let freq = FreqConfig::new(1324.0, 1600.0);
    let cal = calibrate(&w.app.graph, &w.gt, &w.cfg, freq, &CalibrationConfig::default());

    let run = |s: &Schedule| execute_schedule(s, &w.app.graph, &w.gt, &w.cfg, freq, None).unwrap();
    let default = Schedule::default_order(&w.app.graph);
    let base = run(&default);

    println!("{:<22} {:>10} {:>8} {:>9} {:>9}", "policy", "time", "gain", "launches", "hit rate");
    report("no merging (default)", &base, &base, default.num_launches());

    let paper = ktiler_schedule(&w.app.graph, &w.gt, &cal, &paper_ktiler_config(&w.cfg)).unwrap();
    paper.schedule.validate(&w.app.graph, &w.gt.deps).unwrap();
    report("Algorithm 1 (paper)", &run(&paper.schedule), &base, paper.schedule.num_launches());

    let all = merge_all(&w, &cal);
    all.validate(&w.app.graph, &w.gt.deps).unwrap();
    report("merge-all (no cost)", &run(&all), &base, all.num_launches());

    println!("\nexpected: Algorithm 1 matches or beats both extremes — merge-all");
    println!("creates deep clusters whose halo growth fragments groups, while no");
    println!("merging leaves all inter-kernel traffic in DRAM.");
}
