//! Whole-application block analysis.
//!
//! [`analyze`] runs the application once in its default (topological) order
//! on the functional simulator and returns every node's per-block trace
//! plus the block dependency graph — the combined effect of the paper's
//! SASSI recording run plus the two host-side passes of Sec. IV-B.
//!
//! Three mechanisms keep the analysis cheap on graphs with thousands of
//! kernel instances, tried in order for every kernel node:
//!
//! 1. **Exact signature sharing** ([`Kernel::signature`]): a later instance
//!    with a signature already seen reuses the recorded trace verbatim.
//! 2. **Structural trace reuse** ([`Kernel::structural_signature`]): one
//!    instance per *structural class* is analyzed; siblings get its traces
//!    rebased onto their own buffer addresses ([`trace::rebase_traces`])
//!    with a per-role offset transform ([`trace::OffsetMap`]). The 30
//!    Jacobi iterations of a pyramid level — which ping-pong between buffer
//!    pairs and therefore never repeat an *exact* signature more than every
//!    other node — collapse to a single analyzed instance this way.
//! 3. **Analytical affine footprints** ([`Kernel::affine_summary`]): for
//!    kernels whose addresses are affine in the thread's pixel coordinate,
//!    block traces are synthesized from grid geometry alone
//!    ([`trace::synthesize_affine`]) without ever running the recorder.
//!
//! Kernels that support none of the three are recorded the classical way.
//! The block dependency pass ingests replicated traces structurally
//! ([`trace::StructuralDepBuilder`]): each distinct trace `Arc` is indexed
//! once and its dependency templates are reused for every node sharing it
//! — RAW edges to the last writers, WAW edges to the overwritten writers,
//! and WAR edges to the readers an overwrite must wait for. WAR hazards
//! are found by an address-ordered sweep of write runs against read runs
//! and cached per (writer trace, buffer, reader stack), so the Jacobi
//! iterations of a level neither re-derive nor re-emit them.
//!
//! Three entry points share one result type, [`GraphTrace`]:
//!
//! * [`analyze_fast`] — production. It also skips functional execution of
//!   every kernel whose values no recorded kernel transitively reads,
//!   determined by a static plan over the graph, so device memory is only
//!   partially computed afterwards.
//! * [`analyze`] — the same analysis, but it still *executes* every kernel
//!   functionally even when its trace was derived, for callers that read
//!   the application's output values afterwards.
//! * [`analyze_reference`] — the oracle the other two are tested against:
//!   it records every kernel (sharing only exact signature repeats) and
//!   builds the dependency graph word by word with
//!   [`trace::DepGraphBuilder`].
//!
//! The three return identical traces, order and dependency graph.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use gpu_sim::{BlockWork, Buffer, DeviceMemory, LaunchDims};
use trace::{
    coalesce_blocks, rebase_traces, synthesize_affine, BlockDepGraph, BlockRef, BlockTrace,
    DepGraphBuilder, ExecCtx, OffsetMap, RawBlockTrace, StructuralDepBuilder, TraceRecorder,
};

use crate::dag::{topo_order, CycleError};
use crate::graph::{AppGraph, NodeId, NodeOp};
use crate::kernel::Kernel;

/// The analyzed trace of one node: one [`BlockTrace`] per block (transfers
/// get a single pseudo-block covering their whole buffer).
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Per-block traces, indexed by linear block id. Shared between nodes
    /// with identical kernel signatures.
    pub blocks: Arc<Vec<BlockTrace>>,
}

impl NodeTrace {
    /// The replayable timing work of a subset of this node's blocks.
    ///
    /// # Panics
    ///
    /// Panics if a block id is out of range.
    pub fn work_of(&self, block_ids: impl IntoIterator<Item = u32>) -> Vec<&BlockWork> {
        block_ids.into_iter().map(|b| &self.blocks[b as usize].work).collect()
    }

    /// Number of thread blocks in the node's launch (transfers count as one
    /// pseudo-block).
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }
}

/// Result of analyzing an application graph.
#[derive(Debug, Clone)]
pub struct GraphTrace {
    /// Per-node traces, indexed by `NodeId`.
    pub nodes: Vec<NodeTrace>,
    /// The block-level dependency graph.
    pub deps: BlockDepGraph,
    /// The default execution order used for the analysis run.
    pub order: Vec<NodeId>,
}

impl GraphTrace {
    /// The trace of one node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &NodeTrace {
        &self.nodes[id.0 as usize]
    }
}

/// Synthesizes the pseudo-trace of a transfer node: the word/line sets of
/// the whole buffer, with no replayable warp work (transfers are timed by
/// the DMA model, not the SM model).
fn transfer_trace(buf: gpu_sim::Buffer, write: bool, line_bytes: u64) -> BlockTrace {
    let words: Vec<u64> = (buf.addr >> 2..(buf.addr + buf.len + 3) >> 2).collect();
    let lines =
        trace::LineSet::from_range(buf.addr / line_bytes, (buf.addr + buf.len - 1) / line_bytes);
    BlockTrace {
        work: BlockWork::default(),
        read_words: if write { Vec::new() } else { words.clone() },
        write_words: if write { words } else { Vec::new() },
        lines,
    }
}

/// Whether the analysis run executes every kernel functionally or only the
/// ones whose output values some recorded kernel transitively reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValuePolicy {
    /// Execute every kernel (full functional compatibility: device memory
    /// holds the application's real output afterwards).
    Always,
    /// Execute only the ancestor closure of the kernels that must be
    /// *recorded*; everything else gets derived traces and is skipped.
    WhereNeeded,
}

/// Runs the application once, functionally, in topological order, and
/// returns every node's block traces plus the block dependency graph.
///
/// `line_bytes` must match the cache-line size of the device the schedule
/// will later run on (footprints are counted in lines).
///
/// Kernel execution, trace derivation (rebase/synthesis) and the
/// structural dependency pass are serial; only per-block coalescing of the
/// kernels that do get recorded fans out over the machine's cores, with a
/// result independent of the worker count.
///
/// # Errors
///
/// Returns [`CycleError`] if the graph is not a DAG.
pub fn analyze(
    g: &AppGraph,
    mem: &mut DeviceMemory,
    line_bytes: u64,
) -> Result<GraphTrace, CycleError> {
    analyze_impl(g, mem, line_bytes, ValuePolicy::Always)
}

/// [`analyze`], additionally skipping functional execution of every kernel
/// whose output values no *recorded* kernel transitively reads.
///
/// A static planning pass walks the graph in topological order, mirroring
/// the trace-acquisition chain to decide which kernels must be recorded
/// (no repeated signature, no compatible structural class, no supported
/// affine summary), and marks their ancestor closure for execution. On
/// trace-friendly graphs this skips almost all functional work: analysis
/// cost collapses to the handful of recorded prototypes plus cheap
/// per-node trace derivation.
///
/// Traces, dependencies and order are identical to [`analyze`]'s. Device
/// memory is **not** fully computed afterwards — only executed kernels
/// wrote their outputs — so use [`analyze`] when the functional results
/// matter (e.g. to validate application output).
///
/// # Errors
///
/// Returns [`CycleError`] if the graph is not a DAG.
pub fn analyze_fast(
    g: &AppGraph,
    mem: &mut DeviceMemory,
    line_bytes: u64,
) -> Result<GraphTrace, CycleError> {
    analyze_impl(g, mem, line_bytes, ValuePolicy::WhereNeeded)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// Runs `k` functionally with recording off: values are produced, traces
/// are not (they were acquired some cheaper way).
fn run_functional(
    k: &dyn Kernel,
    dims: &LaunchDims,
    mem: &mut DeviceMemory,
    rec: &mut TraceRecorder,
) {
    rec.set_enabled(false);
    for block in dims.blocks() {
        rec.begin_block(dims.threads_per_block());
        let mut ctx = ExecCtx::new(mem, rec);
        k.execute_block(block, &mut ctx);
        let _ = rec.finish_block_raw();
    }
    rec.set_enabled(true);
}

/// The static value plan for [`ValuePolicy::WhereNeeded`]: `true` for every
/// node that must execute functionally.
///
/// A kernel must be *recorded* iff the acquisition chain cannot derive its
/// trace: its exact signature has not been seen, no earlier instance of its
/// structural class exists with [`OffsetMap`]-compatible roles, and it has
/// no affine summary with supported (2-D) geometry. Recording implies
/// executing on fresh input values, so the ancestor closure of the recorded
/// set must execute too.
fn plan_must_exec(g: &AppGraph, order: &[NodeId], line_bytes: u64) -> Vec<bool> {
    let mut sig_seen: HashSet<String> = HashSet::new();
    let mut class_seen: HashMap<String, Vec<Buffer>> = HashMap::new();
    let mut must_exec = vec![false; g.num_nodes()];
    for &id in order {
        if let NodeOp::Kernel(k) = &g.node(id).op {
            let dims = k.dims();
            let sig = k.signature();
            let ssig = k.structural_signature();
            let by_sig = sig.as_ref().is_some_and(|s| sig_seen.contains(s));
            let by_class = ssig.as_ref().is_some_and(|ss| {
                class_seen
                    .get(&ss.class)
                    .is_some_and(|roles| OffsetMap::between(roles, &ss.roles, line_bytes).is_some())
            });
            let by_affine = k.affine_summary().is_some() && dims.grid.z == 1 && dims.block.z == 1;
            if !(by_sig || by_class || by_affine) {
                must_exec[id.0 as usize] = true;
            }
            if let Some(s) = sig {
                sig_seen.insert(s);
            }
            if let Some(ss) = ssig {
                class_seen.entry(ss.class).or_insert(ss.roles);
            }
        }
    }
    // Ancestor closure: reverse topological order propagates the flag from
    // every marked node to all of its transitive predecessors.
    for i in (0..order.len()).rev() {
        let id = order[i];
        if must_exec[id.0 as usize] {
            for (_, pred) in g.predecessors(id) {
                must_exec[pred.0 as usize] = true;
            }
        }
    }
    must_exec
}

fn analyze_impl(
    g: &AppGraph,
    mem: &mut DeviceMemory,
    line_bytes: u64,
    policy: ValuePolicy,
) -> Result<GraphTrace, CycleError> {
    let order = topo_order(g)?;
    let must_exec = match policy {
        ValuePolicy::Always => vec![true; g.num_nodes()],
        ValuePolicy::WhereNeeded => plan_must_exec(g, &order, line_bytes),
    };

    let mut rec = TraceRecorder::new(line_bytes);
    // Exact-signature cache: signature ⇒ the shared trace.
    let mut sig_cache: HashMap<String, Arc<Vec<BlockTrace>>> = HashMap::new();
    // Structural-class cache: class ⇒ the first analyzed instance's roles
    // and trace, the prototype every sibling rebases from.
    let mut class_cache: HashMap<String, (Vec<Buffer>, Arc<Vec<BlockTrace>>)> = HashMap::new();
    let mut nodes: Vec<Option<NodeTrace>> = (0..g.num_nodes()).map(|_| None).collect();

    for &id in &order {
        let node = g.node(id);
        let exec = must_exec[id.0 as usize];
        let traces: Arc<Vec<BlockTrace>> = match &node.op {
            NodeOp::Kernel(k) => {
                let dims = k.dims();
                let sig = k.signature();
                let ssig = k.structural_signature();
                let shared = match sig.as_ref().and_then(|s| sig_cache.get(s).cloned()) {
                    // 1. Exact signature repeat: reuse the trace verbatim.
                    //    Addresses cannot differ (that is what the
                    //    signature asserts); values may, so re-execute if
                    //    the plan wants them.
                    Some(hit) => {
                        if exec {
                            run_functional(k.as_ref(), &dims, mem, &mut rec);
                        }
                        hit
                    }
                    None => {
                        let derived: Option<Arc<Vec<BlockTrace>>> = ssig
                            .as_ref()
                            .and_then(|ss| {
                                // 2. Structural class: rebase the
                                //    prototype's traces onto this
                                //    instance's buffer roles.
                                let (roles, proto) = class_cache.get(&ss.class)?;
                                let map = OffsetMap::between(roles, &ss.roles, line_bytes)?;
                                rebase_traces(proto, &map).map(Arc::new)
                            })
                            .or_else(|| {
                                // 3. Affine summary: synthesize the traces
                                //    from grid geometry alone.
                                let summary = k.affine_summary()?;
                                synthesize_affine(&summary, &dims, line_bytes).map(Arc::new)
                            });
                        let arc = match derived {
                            Some(arc) => {
                                if exec {
                                    run_functional(k.as_ref(), &dims, mem, &mut rec);
                                }
                                arc
                            }
                            None => {
                                // 4. Record. The plan only skips execution
                                //    of nodes it proved derivable, so
                                //    landing here without fresh ancestor
                                //    values means a structural signature or
                                //    affine summary broke its contract.
                                assert!(
                                    exec,
                                    "node {} ({}): planned as derivable but every derivation \
                                     failed at runtime — its structural signature or affine \
                                     summary violates its contract",
                                    id.0,
                                    k.label()
                                );
                                let mut raw: Vec<RawBlockTrace> =
                                    Vec::with_capacity(dims.num_blocks() as usize);
                                for block in dims.blocks() {
                                    rec.begin_block(dims.threads_per_block());
                                    let mut ctx = ExecCtx::new(mem, &mut rec);
                                    k.execute_block(block, &mut ctx);
                                    raw.push(rec.finish_block_raw());
                                }
                                Arc::new(coalesce_blocks(raw, default_threads()))
                            }
                        };
                        if let Some(s) = sig {
                            sig_cache.insert(s, Arc::clone(&arc));
                        }
                        arc
                    }
                };
                if let Some(ss) = ssig {
                    class_cache.entry(ss.class).or_insert_with(|| (ss.roles, Arc::clone(&shared)));
                }
                shared
            }
            NodeOp::HostToDevice { buf, data } => {
                mem.upload_u8(*buf, data);
                Arc::new(vec![transfer_trace(*buf, true, line_bytes)])
            }
            NodeOp::DeviceToHost { buf } => Arc::new(vec![transfer_trace(*buf, false, line_bytes)]),
        };
        nodes[id.0 as usize] = Some(NodeTrace { blocks: traces });
    }

    // Structural dependency pass over the completed traces, in the same
    // program order the execution loop used (traces are immutable once
    // acquired, so resolving reads here is equivalent to resolving them
    // during the run). Each distinct trace Arc is indexed once; nodes that
    // share one reuse its cached dependency templates instead of re-walking
    // the raw word lists.
    let bufs: Vec<Buffer> = mem.buffers().collect();
    let mut builder = StructuralDepBuilder::new(bufs);
    for &id in &order {
        let nt = nodes[id.0 as usize].as_ref().expect("topo order covers all nodes");
        builder.visit_node(id.0, &nt.blocks);
    }
    let deps = builder.finish();

    Ok(GraphTrace {
        nodes: nodes.into_iter().map(|n| n.expect("topo order covers all nodes")).collect(),
        deps,
        order,
    })
}

/// The original analyzer pipeline: record every kernel (sharing only exact
/// signature repeats) and build the dependency graph word by word, feeding
/// each block to [`DepGraphBuilder`] in program order. Kept as the oracle
/// the structural/affine fast paths are verified against — its results
/// must be byte-identical to [`analyze`]'s and [`analyze_fast`]'s.
///
/// # Errors
///
/// Returns [`CycleError`] if the graph is not a DAG.
pub fn analyze_reference(
    g: &AppGraph,
    mem: &mut DeviceMemory,
    line_bytes: u64,
) -> Result<GraphTrace, CycleError> {
    let order = topo_order(g)?;
    let mut rec = TraceRecorder::new(line_bytes);
    let mut cache: HashMap<String, Arc<Vec<BlockTrace>>> = HashMap::new();
    let mut nodes: Vec<Option<NodeTrace>> = (0..g.num_nodes()).map(|_| None).collect();
    let mut builder = DepGraphBuilder::new();

    for &id in &order {
        let node = g.node(id);
        let traces: Arc<Vec<BlockTrace>> = match &node.op {
            NodeOp::Kernel(k) => {
                let dims = k.dims();
                let sig = k.signature();
                let cached = sig.as_ref().and_then(|s| cache.get(s).cloned());
                if let Some(shared) = cached {
                    run_functional(k.as_ref(), &dims, mem, &mut rec);
                    shared
                } else {
                    let mut raw: Vec<RawBlockTrace> =
                        Vec::with_capacity(dims.num_blocks() as usize);
                    for block in dims.blocks() {
                        rec.begin_block(dims.threads_per_block());
                        let mut ctx = ExecCtx::new(mem, &mut rec);
                        k.execute_block(block, &mut ctx);
                        raw.push(rec.finish_block_raw());
                    }
                    let shared = Arc::new(coalesce_blocks(raw, default_threads()));
                    if let Some(s) = sig {
                        cache.insert(s, Arc::clone(&shared));
                    }
                    shared
                }
            }
            NodeOp::HostToDevice { buf, data } => {
                mem.upload_u8(*buf, data);
                Arc::new(vec![transfer_trace(*buf, true, line_bytes)])
            }
            NodeOp::DeviceToHost { buf } => Arc::new(vec![transfer_trace(*buf, false, line_bytes)]),
        };
        for (b, t) in traces.iter().enumerate() {
            builder.visit_block(BlockRef::new(id.0, b as u32), t);
        }
        nodes[id.0 as usize] = Some(NodeTrace { blocks: traces });
    }

    Ok(GraphTrace {
        nodes: nodes.into_iter().map(|n| n.expect("topo order covers all nodes")).collect(),
        deps: builder.finish(),
        order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AppGraph;
    use crate::kernel::{threads, Kernel, StructuralSig};
    use gpu_sim::{AffineAccess, AffineSummary, AxisMap, BlockIdx, Buffer, Dim3, LaunchDims};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// dst[i] = src[i] + 1, one element per thread, 32-thread blocks.
    struct Inc {
        src: Buffer,
        dst: Buffer,
        n: u32,
        with_sig: bool,
    }

    impl Kernel for Inc {
        fn label(&self) -> String {
            "inc".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(Dim3::linear(self.n.div_ceil(32)), Dim3::linear(32))
        }
        fn execute_block(&self, block: BlockIdx, ctx: &mut ExecCtx<'_>) {
            for (tid, tx, _, _) in threads(&self.dims()) {
                let gid = block.x * 32 + tx;
                if gid < self.n {
                    let v = ctx.ld_f32(self.src, gid as u64, tid);
                    ctx.st_f32(self.dst, gid as u64, v + 1.0, tid);
                    ctx.compute(tid, 2);
                }
            }
        }
        fn signature(&self) -> Option<String> {
            self.with_sig.then(|| format!("inc:{}:{}:{}", self.src.addr, self.dst.addr, self.n))
        }
    }

    fn pipeline(with_sig: bool) -> (AppGraph, DeviceMemory, Vec<NodeId>, Vec<Buffer>) {
        let mut mem = DeviceMemory::new();
        let bufs: Vec<Buffer> = (0..3).map(|i| mem.alloc_f32(64, &format!("b{i}"))).collect();
        let mut g = AppGraph::new();
        let h = g.add_htod(bufs[0], vec![0u8; 256]);
        let k1 = g.add_kernel(Box::new(Inc { src: bufs[0], dst: bufs[1], n: 64, with_sig }));
        let k2 = g.add_kernel(Box::new(Inc { src: bufs[1], dst: bufs[2], n: 64, with_sig }));
        let d = g.add_dtoh(bufs[2]);
        g.add_edge(h, k1, bufs[0]);
        g.add_edge(k1, k2, bufs[1]);
        g.add_edge(k2, d, bufs[2]);
        (g, mem, vec![h, k1, k2, d], bufs)
    }

    #[test]
    fn analyze_builds_traces_and_deps() {
        let (g, mut mem, n, bufs) = pipeline(false);
        let gt = analyze(&g, &mut mem, 128).unwrap();
        assert_eq!(gt.nodes.len(), 4);
        assert_eq!(gt.node(n[1]).num_blocks(), 2);
        // Functional result: 0 + 1 + 1 = 2 everywhere.
        assert_eq!(mem.read_f32(bufs[2], 10), 2.0);
        // k1 blocks depend on the HtD pseudo-block.
        let deps = gt.deps.deps_of(BlockRef::new(n[1].0, 0));
        assert_eq!(deps, &[BlockRef::new(n[0].0, 0)]);
        // k2 block b depends exactly on k1 block b (elementwise pipeline).
        for b in 0..2u32 {
            assert_eq!(gt.deps.deps_of(BlockRef::new(n[2].0, b)), &[BlockRef::new(n[1].0, b)]);
        }
        // DtH depends on both k2 blocks.
        assert_eq!(gt.deps.deps_of(BlockRef::new(n[3].0, 0)).len(), 2);
    }

    #[test]
    fn node_edges_match_app_graph() {
        let (g, mut mem, _, _) = pipeline(false);
        let gt = analyze(&g, &mut mem, 128).unwrap();
        assert_eq!(gt.deps.node_edges(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn signature_cache_shares_traces_without_breaking_values() {
        // Two graphs, identical except for signatures. Distinct dst buffers
        // mean distinct signatures here, so build a graph where the SAME
        // kernel config appears twice: k2a and k2b both do b1 -> b2.
        let mut mem = DeviceMemory::new();
        let b0 = mem.alloc_f32(64, "b0");
        let b1 = mem.alloc_f32(64, "b1");
        let mut g = AppGraph::new();
        let k1 = g.add_kernel(Box::new(Inc { src: b0, dst: b1, n: 64, with_sig: true }));
        let k2 = g.add_kernel(Box::new(Inc { src: b1, dst: b1, n: 64, with_sig: true }));
        let k3 = g.add_kernel(Box::new(Inc { src: b1, dst: b1, n: 64, with_sig: true }));
        g.add_edge(k1, k2, b1);
        g.add_edge(k2, k3, b1);
        let gt = analyze(&g, &mut mem, 128).unwrap();
        // k2 and k3 share the same signature: traces must be shared.
        assert!(Arc::ptr_eq(&gt.node(k2).blocks, &gt.node(k3).blocks));
        assert!(!Arc::ptr_eq(&gt.node(k1).blocks, &gt.node(k2).blocks));
        // Functional result: 1 (k1) + 1 (k2) + 1 (k3) = 3.
        assert_eq!(mem.read_f32(b1, 0), 3.0);
        // Dependencies still chain correctly through the shared traces.
        assert_eq!(gt.deps.deps_of(BlockRef::new(k3.0, 0)), &[BlockRef::new(k2.0, 0)]);
    }

    #[test]
    fn transfer_traces_cover_whole_buffer() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc_f32(64, "b"); // 256 bytes = 2 lines of 128
        let mut g = AppGraph::new();
        let h = g.add_htod(b, vec![1u8; 256]);
        let gt = analyze(&g, &mut mem, 128).unwrap();
        let t = &gt.node(h).blocks[0];
        assert_eq!(t.write_words.len(), 64);
        assert_eq!(t.lines.len(), 2);
        assert!(t.read_words.is_empty());
        assert_eq!(mem.read_u8(b, 0), 1);
    }

    #[test]
    fn cyclic_graph_is_rejected() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc_f32(4, "b");
        let mut g = AppGraph::new();
        let a = g.add_dtoh(b);
        let c = g.add_dtoh(b);
        g.add_edge(a, c, b);
        g.add_edge(c, a, b);
        assert!(analyze(&g, &mut mem, 128).is_err());
    }

    /// Like [`Inc`] but declaring a structural class: every instance with
    /// the same `n` shares the address *pattern* over roles `[src, dst]`.
    /// Counts its `execute_block` calls so tests can observe which
    /// instances actually ran.
    struct IncClass {
        src: Buffer,
        dst: Buffer,
        n: u32,
        runs: Arc<AtomicU32>,
    }

    impl Kernel for IncClass {
        fn label(&self) -> String {
            "incc".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(Dim3::linear(self.n.div_ceil(32)), Dim3::linear(32))
        }
        fn execute_block(&self, block: BlockIdx, ctx: &mut ExecCtx<'_>) {
            self.runs.fetch_add(1, Ordering::Relaxed);
            for (tid, tx, _, _) in threads(&self.dims()) {
                let gid = block.x * 32 + tx;
                if gid < self.n {
                    let v = ctx.ld_f32(self.src, gid as u64, tid);
                    ctx.st_f32(self.dst, gid as u64, v + 1.0, tid);
                    ctx.compute(tid, 2);
                }
            }
        }
        fn signature(&self) -> Option<String> {
            Some(format!("incc:{}:{}:{}", self.src.addr, self.dst.addr, self.n))
        }
        fn structural_signature(&self) -> Option<StructuralSig> {
            Some(StructuralSig {
                class: format!("incc:{}", self.n),
                roles: vec![self.src, self.dst],
            })
        }
    }

    /// A ping-pong chain a→b, b→a, a→b, b→a of [`IncClass`] kernels; only
    /// the first instance needs recording, the rest rebase from it.
    fn pingpong() -> (AppGraph, DeviceMemory, Vec<NodeId>, Vec<Arc<AtomicU32>>, [Buffer; 2]) {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(64, "a");
        let b = mem.alloc_f32(64, "b");
        let counters: Vec<Arc<AtomicU32>> = (0..4).map(|_| Arc::new(AtomicU32::new(0))).collect();
        let mut g = AppGraph::new();
        let h = g.add_htod(a, vec![0u8; 256]);
        let mut ids = vec![h];
        let mut prev = h;
        for (i, c) in counters.iter().enumerate() {
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
            let k = g.add_kernel(Box::new(IncClass { src, dst, n: 64, runs: Arc::clone(c) }));
            g.add_edge(prev, k, src);
            ids.push(k);
            prev = k;
        }
        (g, mem, ids, counters, [a, b])
    }

    #[test]
    fn structural_class_rebase_matches_reference() {
        let (g, mut mem, ids, _, [a, _b]) = pingpong();
        let gt = analyze(&g, &mut mem, 128).unwrap();
        let (g2, mut mem2, _, _, _) = pingpong();
        let reference = analyze_reference(&g2, &mut mem2, 128).unwrap();
        assert_eq!(gt.order, reference.order);
        assert_eq!(gt.deps, reference.deps);
        for (x, y) in gt.nodes.iter().zip(&reference.nodes) {
            assert_eq!(*x.blocks, *y.blocks);
        }
        // k2 ping-pongs back to a: its trace is rebased, not shared.
        assert!(!Arc::ptr_eq(&gt.node(ids[1]).blocks, &gt.node(ids[2]).blocks));
        // k3 repeats k1's exact signature: shared verbatim.
        assert!(Arc::ptr_eq(&gt.node(ids[1]).blocks, &gt.node(ids[3]).blocks));
        // Full value policy: every kernel still executed, values are real.
        assert_eq!(mem.read_f32(a, 7), 4.0);
        assert_eq!(mem2.read_f32(a, 7), 4.0);
    }

    /// dst(x, y) = src(y, clamp(x - 1)): a 2-D kernel whose affine summary
    /// lets the analyzer synthesize its traces without recording.
    struct ShiftRight {
        src: Buffer,
        dst: Buffer,
        w: u32,
        h: u32,
    }

    impl Kernel for ShiftRight {
        fn label(&self) -> String {
            "shift".into()
        }
        fn dims(&self) -> LaunchDims {
            LaunchDims::new(Dim3::xy(self.w.div_ceil(8), self.h.div_ceil(4)), Dim3::xy(8, 4))
        }
        fn execute_block(&self, block: BlockIdx, ctx: &mut ExecCtx<'_>) {
            for (tid, tx, ty, _) in threads(&self.dims()) {
                let x = block.x * 8 + tx;
                let y = block.y * 4 + ty;
                if x < self.w && y < self.h {
                    let xm = x.saturating_sub(1);
                    let v = ctx.ld_f32(self.src, (y * self.w + xm) as u64, tid);
                    ctx.st_f32(self.dst, (y * self.w + x) as u64, v, tid);
                    ctx.compute(tid, 2);
                }
            }
        }
        fn affine_summary(&self) -> Option<AffineSummary> {
            Some(AffineSummary {
                domain: (self.w, self.h),
                accesses: vec![
                    AffineAccess::load_f32(
                        self.src,
                        self.w,
                        AxisMap::offset(-1, self.w),
                        AxisMap::identity(self.h),
                    ),
                    AffineAccess::store_f32(
                        self.dst,
                        self.w,
                        AxisMap::identity(self.w),
                        AxisMap::identity(self.h),
                    ),
                ],
                compute_cycles: 2,
            })
        }
    }

    #[test]
    fn affine_summary_matches_reference() {
        let build = || {
            let mut mem = DeviceMemory::new();
            let src = mem.alloc_f32(50 * 5, "src");
            let dst = mem.alloc_f32(50 * 5, "dst");
            for i in 0..250 {
                mem.write_f32(src, i, i as f32);
            }
            let mut g = AppGraph::new();
            let k = g.add_kernel(Box::new(ShiftRight { src, dst, w: 50, h: 5 }));
            let d = g.add_dtoh(dst);
            g.add_edge(k, d, dst);
            (g, mem, dst)
        };
        let (g, mut mem, dst) = build();
        let gt = analyze(&g, &mut mem, 128).unwrap();
        let (g2, mut mem2, _) = build();
        let reference = analyze_reference(&g2, &mut mem2, 128).unwrap();
        assert_eq!(gt.deps, reference.deps);
        for (x, y) in gt.nodes.iter().zip(&reference.nodes) {
            assert_eq!(*x.blocks, *y.blocks);
        }
        // The kernel still executed functionally (values matter downstream).
        assert_eq!(mem.read_f32(dst, 51), 50.0, "row 1, x 1 reads src x 0");
        assert_eq!(mem.read_f32(dst, 50), 50.0, "x 0 clamps to itself");
    }

    #[test]
    fn analyze_fast_skips_unneeded_execution() {
        let (g, mut mem, _, counters, _) = pingpong();
        let fast = analyze_fast(&g, &mut mem, 128).unwrap();
        // Only the class prototype recorded ⇒ only it needed fresh values
        // (its sole ancestor is the HtD upload). The three derived
        // instances never ran.
        let runs: Vec<u32> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(runs, vec![2, 0, 0, 0]);
        // Traces and dependencies are identical to the full analysis.
        let (g2, mut mem2, _, counters2, _) = pingpong();
        let full = analyze(&g2, &mut mem2, 128).unwrap();
        assert!(counters2.iter().all(|c| c.load(Ordering::Relaxed) == 2));
        assert_eq!(fast.order, full.order);
        assert_eq!(fast.deps, full.deps);
        for (x, y) in fast.nodes.iter().zip(&full.nodes) {
            assert_eq!(*x.blocks, *y.blocks);
        }
    }
}
