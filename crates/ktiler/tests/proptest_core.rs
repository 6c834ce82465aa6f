//! Randomized tests of the scheduler's core data structures:
//! performance-table interpolation, partitions and sub-kernel
//! normalization (seeded [`SplitMix64`] cases; failures report the seed).

use gpu_sim::{DeviceMemory, SplitMix64};
use kgraph::{AppGraph, NodeId};
use ktiler::{Partition, PerfTable, SubKernel};
use std::collections::BTreeMap;

/// Within the sampled range, interpolated lookups are bounded by the
/// neighbouring samples of a monotone table.
#[test]
fn interpolation_is_bounded_by_samples() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let mut points: BTreeMap<u32, f64> = BTreeMap::new();
        while points.len() < rng.gen_range_usize(2, 12) {
            points.insert(rng.gen_range_u32(1, 1000), rng.gen_range_f64(1.0, 1e6));
        }
        let queries: Vec<u32> =
            (0..rng.gen_range_usize(1, 20)).map(|_| rng.gen_range_u32(1, 1000)).collect();
        // Force a monotone table (grid up => time up), as real tables are.
        let mut t = PerfTable::new();
        let mut running = 0.0;
        let samples: Vec<(u32, f64)> = points
            .iter()
            .map(|(&g, &v)| {
                running += v;
                (g, running)
            })
            .collect();
        for &(g, v) in &samples {
            t.insert(0, g, v);
        }
        let (min_g, min_v) = samples[0];
        let (max_g, max_v) = samples[samples.len() - 1];
        for q in queries {
            let v = t.lookup(0, q).unwrap();
            assert!(v.is_finite() && v >= 0.0, "seed {seed}");
            if q >= min_g && q <= max_g {
                assert!(
                    v >= min_v - 1e-9 && v <= max_v + 1e-9,
                    "seed {seed}: interior lookup {v} out of [{min_v}, {max_v}]"
                );
            }
        }
    }
}

/// Exact sample points are returned verbatim.
#[test]
fn exact_samples_roundtrip() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let mut samples: BTreeMap<u32, f64> = BTreeMap::new();
        while samples.len() < rng.gen_range_usize(1, 10) {
            samples.insert(rng.gen_range_u32(1, 500), rng.gen_range_f64(1.0, 1e6));
        }
        let mut t = PerfTable::new();
        for (&g, &v) in &samples {
            t.insert(0, g, v);
        }
        for (&g, &v) in &samples {
            assert_eq!(t.lookup(0, g).unwrap(), v, "seed {seed}");
        }
    }
}

/// Sub-kernel construction sorts and deduplicates blocks.
#[test]
fn subkernel_normalization() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let blocks: Vec<u32> =
            (0..rng.gen_range_usize(1, 100)).map(|_| rng.gen_range_u32(0, 1000)).collect();
        let sk = SubKernel::new(NodeId(0), blocks.clone());
        let mut want = blocks;
        want.sort_unstable();
        want.dedup();
        assert_eq!(sk.blocks, want, "seed {seed}");
    }
}

/// Builds a chain graph of `n` DtoH nodes and applies a random sequence of
/// validity-checked merges.
fn random_chain_partition(
    rng: &mut SplitMix64,
    n: usize,
    max_merges: usize,
) -> (AppGraph, Partition) {
    let mut mem = DeviceMemory::new();
    let buf = mem.alloc_f32(4, "b");
    let mut g = AppGraph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_dtoh(buf)).collect();
    for i in 1..n {
        g.add_edge(nodes[i - 1], nodes[i], buf);
    }
    let mut p = Partition::singletons(&g);
    for _ in 0..rng.gen_range_usize(0, max_merges + 1) {
        let a = rng.gen_range_usize(0, p.num_clusters());
        let b = rng.gen_range_usize(0, p.num_clusters());
        if a != b {
            let m = p.merged(a, b);
            if m.is_valid(&g) {
                p = m;
            }
        }
    }
    (g, p)
}

/// Merging partitions preserves node coverage and disjointness, in any
/// merge order over a random chain.
#[test]
fn partition_merges_preserve_coverage() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let n = rng.gen_range_usize(3, 12);
        let (g, p) = random_chain_partition(&mut rng, n, 10);
        // Coverage: every node is in exactly one cluster.
        let mut seen = vec![0u32; n];
        for c in 0..p.num_clusters() {
            for node in p.members(c) {
                seen[node.0 as usize] += 1;
                assert_eq!(p.cluster_of(*node), c, "seed {seed}");
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "seed {seed}");
        // Valid partitions always admit a cluster order.
        assert!(p.cluster_order(&g).is_some(), "seed {seed}");
    }
}

/// On a chain, any valid cluster is an interval of consecutive nodes.
#[test]
fn chain_clusters_are_intervals() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let n = rng.gen_range_usize(3, 10);
        let (_g, p) = random_chain_partition(&mut rng, n, 8);
        for c in 0..p.num_clusters() {
            let m = p.members(c);
            let lo = m[0].0;
            let hi = m[m.len() - 1].0;
            assert_eq!(
                (hi - lo + 1) as usize,
                m.len(),
                "seed {seed}: cluster {m:?} is not a contiguous interval"
            );
        }
    }
}

/// A random DAG on `n` nodes: every pair in a hidden topological order gets
/// an edge with probability `density`, node ids are shuffled against that
/// order (so edges run from higher to lower ids too), and the edges are
/// added in random order, a few of them twice.
fn random_dag(rng: &mut SplitMix64, n: usize, density: f64) -> AppGraph {
    let mut mem = DeviceMemory::new();
    let buf = mem.alloc_f32(4, "b");
    let mut g = AppGraph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_dtoh(buf)).collect();
    let mut rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, rng.gen_range_usize(0, i + 1));
    }
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_range_f64(0.0, 1.0) < density {
                edges.push((nodes[rank[i]], nodes[rank[j]]));
                if rng.gen_range_usize(0, 8) == 0 {
                    edges.push((nodes[rank[i]], nodes[rank[j]]));
                }
            }
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range_usize(0, i + 1));
    }
    for (s, d) in edges {
        g.add_edge(s, d, buf);
    }
    g
}

/// Runs a random sequence of valid merges on `g`. Before each merge, every
/// adjacent cluster pair is checked in both argument orders: the
/// reachability check must agree with building the merged partition and
/// checking its validity from scratch. Returns (valid, invalid) pair counts.
fn merge_check_matches_oracle(g: &AppGraph, rng: &mut SplitMix64, what: &str) -> (usize, usize) {
    let mut p = Partition::singletons(g);
    assert!(p.is_valid(g), "{what}: singletons of a DAG");
    let mut check = ktiler::MergeCheck::default();
    let (mut valid, mut invalid) = (0, 0);
    loop {
        let mut pairs: Vec<(usize, usize)> = g
            .edge_ids()
            .map(|e| (p.cluster_of(g.edge(e).src), p.cluster_of(g.edge(e).dst)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut ok = Vec::new();
        for &(a, b) in &pairs {
            let oracle = p.merged(a, b).is_valid(g);
            for (x, y) in [(a, b), (b, a)] {
                assert_eq!(
                    p.merge_keeps_valid(g, x, y, &mut check),
                    oracle,
                    "{what}: merge ({x}, {y}) of {:?} / {:?}",
                    p.members(x),
                    p.members(y)
                );
            }
            if oracle {
                ok.push((a, b));
                valid += 1;
            } else {
                invalid += 1;
            }
        }
        if ok.is_empty() {
            return (valid, invalid);
        }
        let (a, b) = ok[rng.gen_range_usize(0, ok.len())];
        p = p.merged(a, b);
    }
}

/// Algorithm 1's merge check against the validity definition, on seeded
/// random DAGs and on the DAG fuzzer's applications.
#[test]
fn merge_check_agrees_with_the_validity_oracle() {
    let (mut valid, mut invalid) = (0, 0);
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(seed);
        let n = rng.gen_range_usize(2, 25);
        let density = rng.gen_range_f64(0.05, 0.5);
        let g = random_dag(&mut rng, n, density);
        let (v, i) = merge_check_matches_oracle(&g, &mut rng, &format!("random DAG seed {seed}"));
        valid += v;
        invalid += i;
    }
    for seed in 0..40u64 {
        let app = zoo::fuzz::gen_app(seed);
        let mut rng = SplitMix64::new(seed ^ 0x006d_6572_6765);
        let (v, i) = merge_check_matches_oracle(&app.graph, &mut rng, &app.name);
        valid += v;
        invalid += i;
    }
    assert!(valid > 1000 && invalid > 1000, "weak coverage: {valid} valid, {invalid} invalid");
}
