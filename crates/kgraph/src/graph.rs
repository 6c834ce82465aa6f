//! The application graph: kernels as nodes, data dependencies as edges.
//!
//! This is the paper's coarse-grained *application graph* (Sec. III): nodes
//! are GPU kernels (plus host↔device transfers, which appear as `HtD`/`DtH`
//! nodes in the HSOpticalFlow DFG of Fig. 4), and a directed edge `u → v`
//! labelled with a buffer means `v` consumes data that `u` produced in that
//! buffer.

use std::fmt;

use gpu_sim::{Buffer, LaunchDims};

use crate::kernel::Kernel;

/// Identifier of a node in an [`AppGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge in an [`AppGraph`] (index into the edge list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// A data-dependency edge: `dst` reads (part of) `buf`, which `src` wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// The buffer carrying the dependency.
    pub buf: Buffer,
}

/// What a node does.
pub enum NodeOp {
    /// A GPU kernel.
    Kernel(Box<dyn Kernel>),
    /// A host→device DMA writing `data` into `buf` (an `HtD` node).
    HostToDevice {
        /// Destination device buffer.
        buf: Buffer,
        /// Payload copied into the buffer when the node executes.
        data: Vec<u8>,
    },
    /// A device→host DMA reading `buf` back (a `DtH` node).
    DeviceToHost {
        /// Source device buffer.
        buf: Buffer,
    },
}

impl fmt::Debug for NodeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeOp::Kernel(k) => write!(f, "Kernel({})", k.label()),
            NodeOp::HostToDevice { buf, data } => {
                write!(f, "HostToDevice({} bytes -> {})", data.len(), buf.id)
            }
            NodeOp::DeviceToHost { buf } => write!(f, "DeviceToHost({})", buf.id),
        }
    }
}

/// A node: operation plus display label.
#[derive(Debug)]
pub struct Node {
    /// The operation the node performs.
    pub op: NodeOp,
    /// Display label (kernel label, or `HtD`/`DtH`).
    pub label: String,
}

impl Node {
    /// Launch geometry if the node is a kernel, `None` for transfers.
    pub fn dims(&self) -> Option<LaunchDims> {
        match &self.op {
            NodeOp::Kernel(k) => Some(k.dims()),
            _ => None,
        }
    }

    /// Number of schedulable units: the kernel's block count, or 1 for
    /// transfers (which are atomic).
    pub fn num_blocks(&self) -> u32 {
        self.dims().map_or(1, |d| d.num_blocks())
    }

    /// Whether KTILER may split this node into sub-kernels.
    pub fn tileable(&self) -> bool {
        match &self.op {
            NodeOp::Kernel(k) => k.tileable(),
            _ => false,
        }
    }
}

/// The application graph.
///
/// # Examples
///
/// Building the two-kernel motivational example of the paper's Fig. 1 is
/// done in the `kernels` crate; structurally it is:
///
/// ```text
/// in --HtD--> [A: grayscale] --intm--> [B: downscale] --DtH--> out
/// ```
#[derive(Debug, Default)]
pub struct AppGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids of each node, in edge-id order.
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming edge ids of each node, in edge-id order.
    in_edges: Vec<Vec<EdgeId>>,
}

impl AppGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a kernel node; the label is taken from the kernel.
    pub fn add_kernel(&mut self, kernel: Box<dyn Kernel>) -> NodeId {
        let label = kernel.label();
        self.add_node(Node { op: NodeOp::Kernel(kernel), label })
    }

    /// Adds a host→device transfer node writing `data` to `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is larger than the buffer.
    pub fn add_htod(&mut self, buf: Buffer, data: Vec<u8>) -> NodeId {
        assert!(data.len() as u64 <= buf.len, "HtD payload larger than buffer");
        self.add_node(Node { op: NodeOp::HostToDevice { buf, data }, label: "HtD".into() })
    }

    /// Adds a device→host transfer node reading `buf`.
    pub fn add_dtoh(&mut self, buf: Buffer) -> NodeId {
        self.add_node(Node { op: NodeOp::DeviceToHost { buf }, label: "DtH".into() })
    }

    fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a data-dependency edge (producer → consumer through `buf`).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, or the edge is a self-loop.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, buf: Buffer) -> EdgeId {
        assert!((src.0 as usize) < self.nodes.len(), "unknown src node");
        assert!((dst.0 as usize) < self.nodes.len(), "unknown dst node");
        assert_ne!(src, dst, "self-dependencies are not allowed");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, buf });
        self.out_edges[src.0 as usize].push(id);
        self.in_edges[dst.0 as usize].push(id);
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Looks up an edge.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// Iterates over node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Direct successors (consumers) of a node, with the connecting edge,
    /// in edge-id order. O(out-degree).
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.out_edges[id.0 as usize].iter().map(|&e| (e, self.edge(e).dst))
    }

    /// Direct predecessors (producers) of a node, with the connecting edge,
    /// in edge-id order. O(in-degree).
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.in_edges[id.0 as usize].iter().map(|&e| (e, self.edge(e).src))
    }

    /// Incoming edges of a node, in edge-id order.
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.in_edges[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceMemory;

    fn buf(mem: &mut DeviceMemory, n: u64) -> Buffer {
        mem.alloc_f32(n, "b")
    }

    #[test]
    fn build_linear_pipeline() {
        let mut mem = DeviceMemory::new();
        let b0 = buf(&mut mem, 16);
        let b1 = buf(&mut mem, 16);
        let mut g = AppGraph::new();
        let h = g.add_htod(b0, vec![0u8; 64]);
        let d = g.add_dtoh(b1);
        let e = g.add_edge(h, d, b0);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge(e).src, h);
        assert_eq!(g.node(h).label, "HtD");
        assert_eq!(g.node(h).num_blocks(), 1);
        assert!(!g.node(h).tileable());
    }

    #[test]
    fn successors_and_predecessors() {
        let mut mem = DeviceMemory::new();
        let b = buf(&mut mem, 16);
        let mut g = AppGraph::new();
        let a = g.add_htod(b, vec![]);
        let c = g.add_dtoh(b);
        let d = g.add_dtoh(b);
        g.add_edge(a, c, b);
        g.add_edge(a, d, b);
        let succ: Vec<NodeId> = g.successors(a).map(|(_, n)| n).collect();
        assert_eq!(succ, vec![c, d]);
        let pred: Vec<NodeId> = g.predecessors(d).map(|(_, n)| n).collect();
        assert_eq!(pred, vec![a]);
        assert_eq!(g.in_edges(c).len(), 1);
    }

    /// The adjacency lists yield edges in edge-id order however the edges
    /// were interleaved across nodes (calibration's predecessor masks and
    /// every traversal's tie-breaks depend on it).
    #[test]
    fn adjacency_yields_edges_in_edge_id_order() {
        let mut mem = DeviceMemory::new();
        let b = buf(&mut mem, 16);
        let mut g = AppGraph::new();
        let n: Vec<NodeId> = (0..6).map(|_| g.add_dtoh(b)).collect();
        // Edges added out of node order, with parallel edges and a node
        // created before its first in-edge's source.
        let pairs = [(3, 5), (0, 5), (0, 2), (1, 5), (0, 5), (2, 4), (0, 1), (3, 4), (1, 2)];
        for &(s, d) in &pairs {
            g.add_edge(n[s], n[d], b);
        }
        for v in g.node_ids() {
            let scan_out: Vec<(EdgeId, NodeId)> =
                g.edge_ids().filter(|&e| g.edge(e).src == v).map(|e| (e, g.edge(e).dst)).collect();
            let scan_in: Vec<(EdgeId, NodeId)> =
                g.edge_ids().filter(|&e| g.edge(e).dst == v).map(|e| (e, g.edge(e).src)).collect();
            assert_eq!(g.successors(v).collect::<Vec<_>>(), scan_out, "successors of {v}");
            assert_eq!(g.predecessors(v).collect::<Vec<_>>(), scan_in, "predecessors of {v}");
            assert_eq!(g.in_edges(v), scan_in.iter().map(|&(e, _)| e).collect::<Vec<_>>());
        }
        let into_5: Vec<u32> = g.predecessors(n[5]).map(|(e, _)| e.0).collect();
        assert_eq!(into_5, vec![0, 1, 3, 4]);
        let out_of_0: Vec<u32> = g.successors(n[0]).map(|(e, _)| e.0).collect();
        assert_eq!(out_of_0, vec![1, 2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "self-dependencies")]
    fn self_edge_rejected() {
        let mut mem = DeviceMemory::new();
        let b = buf(&mut mem, 16);
        let mut g = AppGraph::new();
        let a = g.add_htod(b, vec![]);
        g.add_edge(a, a, b);
    }

    #[test]
    #[should_panic(expected = "larger than buffer")]
    fn oversized_htod_rejected() {
        let mut mem = DeviceMemory::new();
        let b = buf(&mut mem, 1);
        let mut g = AppGraph::new();
        g.add_htod(b, vec![0u8; 100]);
    }
}
