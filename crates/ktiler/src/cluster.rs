//! Node partitioning into clusters (Sec. IV-C1, phase one).
//!
//! A *cluster* is a connected subgraph of the application graph; a set of
//! clusters is a *valid partition* iff the clusters are disjoint, cover all
//! nodes, and the cluster-level condensation is acyclic (so a total order
//! `≺C` consistent with data dependencies exists).
//!
//! Algorithm 1 never builds a tentative partition to test a merge: from a
//! valid partition, merging two adjacent clusters stays valid iff no path
//! between them passes through a third cluster
//! ([`Partition::merge_keeps_valid`]). [`Partition::is_valid`] checks the
//! definition directly and is the oracle the tests hold that rule to.

use std::collections::VecDeque;

use kgraph::{AppGraph, NodeId};

/// A partition of the application graph's nodes into clusters.
///
/// Cluster indices are stable across merges of *other* clusters; merging
/// two clusters produces a new partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Members of each cluster, each list sorted.
    clusters: Vec<Vec<NodeId>>,
    /// Node → index into `clusters`.
    node_cluster: Vec<usize>,
}

impl Partition {
    /// The initial partition: every node in its own cluster (Algorithm 1,
    /// lines 1–5).
    pub fn singletons(g: &AppGraph) -> Self {
        let clusters: Vec<Vec<NodeId>> = g.node_ids().map(|id| vec![id]).collect();
        let node_cluster = (0..g.num_nodes()).collect();
        Partition { clusters, node_cluster }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster containing `node`.
    pub fn cluster_of(&self, node: NodeId) -> usize {
        self.node_cluster[node.0 as usize]
    }

    /// Members of cluster `c` (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn members(&self, c: usize) -> &[NodeId] {
        &self.clusters[c]
    }

    /// All clusters.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.clusters.iter().map(Vec::as_slice)
    }

    /// A new partition with clusters `a` and `b` merged (`MergeOrder` of
    /// Algorithm 1). The merged cluster keeps index `min(a, b)`; the later
    /// index is removed and subsequent indices shift down by one.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn merged(&self, a: usize, b: usize) -> Partition {
        assert_ne!(a, b, "cannot merge a cluster with itself");
        let (keep, drop) = (a.min(b), a.max(b));
        let mut clusters = self.clusters.clone();
        let dropped = clusters.remove(drop);
        clusters[keep].extend(dropped);
        clusters[keep].sort_unstable();
        let mut node_cluster = vec![0usize; self.node_cluster.len()];
        for (c, members) in clusters.iter().enumerate() {
            for m in members {
                node_cluster[m.0 as usize] = c;
            }
        }
        Partition { clusters, node_cluster }
    }

    /// Whether merging clusters `a` and `b` keeps this partition valid,
    /// decided without building the merged partition.
    ///
    /// Requires `self` to be valid and some edge to join `a` and `b` (a
    /// candidate edge of Algorithm 1). The merged cluster is then
    /// connected, every other cluster is unchanged, and the condensation
    /// gains a cycle iff a path from `a` to `b`, or from `b` to `a`, passes
    /// through a third cluster. `check` holds the search buffers, so
    /// repeated checks allocate nothing once warm.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn merge_keeps_valid(
        &self,
        g: &AppGraph,
        a: usize,
        b: usize,
        check: &mut MergeCheck,
    ) -> bool {
        assert_ne!(a, b, "cannot merge a cluster with itself");
        !check.detour(self, g, a, b) && !check.detour(self, g, b, a)
    }

    /// Whether this partition is *valid* (Sec. IV-C1): every cluster is a
    /// connected subgraph and the cluster condensation is acyclic. The
    /// definition, checked from scratch: Algorithm 1 decides merges with
    /// [`Partition::merge_keeps_valid`] instead.
    pub fn is_valid(&self, g: &AppGraph) -> bool {
        self.clusters.iter().all(|c| kgraph::is_connected_subgraph(g, c))
            && self.cluster_order(g).is_some()
    }

    /// A topological order of the clusters under `≺C` (cluster-level data
    /// dependencies), or `None` if the condensation has a cycle.
    pub fn cluster_order(&self, g: &AppGraph) -> Option<Vec<usize>> {
        let n = self.clusters.len();
        let mut edges: Vec<(usize, usize)> = g
            .edge_ids()
            .map(|e| {
                let edge = g.edge(e);
                (self.cluster_of(edge.src), self.cluster_of(edge.dst))
            })
            .filter(|&(a, b)| a != b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut indeg = vec![0usize; n];
        for &(_, b) in &edges {
            indeg[b] += 1;
        }
        // `edges` is sorted by source: cluster `c`'s out-edges are the run
        // starting at `start[c]`.
        let mut start = vec![0usize; n + 1];
        for &(a, _) in &edges {
            start[a + 1] += 1;
        }
        for c in 0..n {
            start[c + 1] += start[c];
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&c| indeg[c] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &(_, b) in &edges[start[c]..start[c + 1]] {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    queue.push_back(b);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// Search buffers of [`Partition::merge_keeps_valid`]: a seen set over
/// cluster indices and a DFS stack.
#[derive(Debug, Default)]
pub struct MergeCheck {
    seen: Vec<bool>,
    stack: Vec<usize>,
}

impl MergeCheck {
    /// Whether some path from cluster `from` to cluster `to` in the
    /// condensation of `p` passes through a third cluster: a DFS over the
    /// clusters `from` feeds, other than `to` itself.
    fn detour(&mut self, p: &Partition, g: &AppGraph, from: usize, to: usize) -> bool {
        self.seen.clear();
        self.seen.resize(p.clusters.len(), false);
        self.seen[from] = true;
        self.seen[to] = true;
        self.stack.clear();
        self.stack.push(from);
        while let Some(c) = self.stack.pop() {
            for &m in &p.clusters[c] {
                for (_, s) in g.successors(m) {
                    let d = p.node_cluster[s.0 as usize];
                    // The edges `from → to` are the merge itself; reaching
                    // `to` from any third cluster closes a cycle.
                    if d == to && c != from {
                        return true;
                    }
                    if !self.seen[d] {
                        self.seen[d] = true;
                        self.stack.push(d);
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceMemory;

    /// Chain a -> b -> c plus shortcut a -> c.
    fn chain3() -> AppGraph {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(4, "b");
        let mut g = AppGraph::new();
        let a = g.add_dtoh(buf);
        let b = g.add_dtoh(buf);
        let c = g.add_dtoh(buf);
        g.add_edge(a, b, buf);
        g.add_edge(b, c, buf);
        g.add_edge(a, c, buf);
        g
    }

    #[test]
    fn singletons_are_valid() {
        let g = chain3();
        let p = Partition::singletons(&g);
        assert_eq!(p.num_clusters(), 3);
        assert!(p.is_valid(&g));
        assert_eq!(p.cluster_order(&g), Some(vec![0, 1, 2]));
    }

    #[test]
    fn merge_adjacent_stays_valid() {
        let g = chain3();
        let p = Partition::singletons(&g);
        let m = p.merged(0, 1);
        assert_eq!(m.num_clusters(), 2);
        assert_eq!(m.members(0), &[NodeId(0), NodeId(1)]);
        assert!(m.is_valid(&g));
        assert_eq!(m.cluster_of(NodeId(2)), 1);
    }

    #[test]
    fn merging_ends_of_a_chain_is_invalid() {
        // Merging {a, c} without b: connected via edge a->c, but the
        // condensation has a cycle: {a,c} -> {b} (a->b) and {b} -> {a,c}
        // (b->c).
        let g = chain3();
        let p = Partition::singletons(&g);
        let m = p.merged(0, 2);
        assert!(!m.is_valid(&g));
        assert!(m.cluster_order(&g).is_none());
    }

    #[test]
    fn disconnected_cluster_is_invalid() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(4, "b");
        let mut g = AppGraph::new();
        let _a = g.add_dtoh(buf);
        let _b = g.add_dtoh(buf); // no edges at all
        let p = Partition::singletons(&g);
        let m = p.merged(0, 1);
        assert!(!m.is_valid(&g), "a cluster must be a connected subgraph");
    }

    #[test]
    fn full_merge_of_chain_is_valid() {
        let g = chain3();
        let p = Partition::singletons(&g).merged(0, 1).merged(0, 1);
        assert_eq!(p.num_clusters(), 1);
        assert!(p.is_valid(&g));
    }

    #[test]
    fn merged_keeps_min_index_and_shifts() {
        let g = chain3();
        let p = Partition::singletons(&g);
        let m = p.merged(2, 1); // argument order must not matter
        assert_eq!(m.members(1), &[NodeId(1), NodeId(2)]);
        assert_eq!(m.cluster_of(NodeId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn self_merge_rejected() {
        let g = chain3();
        let _ = Partition::singletons(&g).merged(1, 1);
    }
}
