//! Block-dependency-graph construction (Sec. IV-B1 of the paper).
//!
//! A block `B` depends on block `B'` when reordering them could change the
//! program's result, i.e. for any of the classic hazards:
//!
//! * **RAW** — a thread in `B` reads a word previously written by a thread
//!   in `B'` (the paper's definition);
//! * **WAW** — `B` overwrites a word last written by `B'` (the first `B`
//!   block to write each word carries the edge);
//! * **WAR** — `B` overwrites a word read by `B'` since its last write.
//!
//! The paper only states the RAW rule because its workload (iterated
//! stencil chains) happens to order every hazard through RAW paths; on
//! arbitrary DAGs with buffer reuse, a tiled schedule that interleaves a
//! later writer ahead of an earlier reader silently corrupts memory, so
//! the builders record all three hazard classes. Dependencies only exist
//! between blocks of *different* kernels; blocks within one kernel are
//! independent by the GPU execution model.
//!
//! [`DepGraphBuilder`] is the word-level oracle: it replays the
//! application's default (topological) execution order, keeping for every
//! 4-byte word its last writer and the readers since that write — the same
//! host-side pass the paper performs over the recorded SASSI trace. The
//! production analyzer uses [`StructuralDepBuilder`](crate::StructuralDepBuilder),
//! which works on address runs instead of words, and is tested against it.
//!
//! # The flat oracle
//!
//! Each visited block is numbered in visit order. [`WordMap`] gives each
//! word a dense slot; slot `s` holds the visit number of the word's last
//! writer and the head of a linked list of reader visits in a shared cell
//! pool. The invariant after every visit: a slot's list holds exactly the
//! visits that read the word since its last write, most recent first. A
//! read resolves RAW against the writer and pushes itself onto the list; a
//! write resolves WAW against the writer and WAR against every listed
//! reader, then empties the list (its cells go back to the pool) and
//! becomes the writer. Edges are deduplicated per visit by stamping each
//! producer block with the number of the last visit that recorded an edge
//! to it, so a visit records each of its edges once.
//!
//! # Representation
//!
//! The finished graph is stored in *compressed sparse row* form, flat-
//! indexed by `(node, block)`: node ids index a prefix-sum table of block
//! counts, giving every block a dense slot, and each slot owns a
//! contiguous edge range in a single producer array (with the reverse
//! direction stored the same way). Dependency queries — the inner loop of
//! Algorithm 2's `transitive_deps` walks — are two array lookups with no
//! hashing, and the whole graph lives in six flat allocations.

use crate::record::BlockTrace;
use crate::wordmap::WordMap;

/// Identifies one thread block of one kernel node in the application graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Kernel node id (index in the application graph).
    pub node: u32,
    /// Linear block id within the node's grid.
    pub block: u32,
}

impl BlockRef {
    /// Creates a block reference.
    pub fn new(node: u32, block: u32) -> Self {
        BlockRef { node, block }
    }
}

/// "No entry": an unwritten word, an empty reader list, a block not yet
/// given an edge.
const NONE: u32 = u32::MAX;

/// The state of one word slot: the visit that last wrote the word, and
/// the head of the list of visits that read it since.
#[derive(Debug, Clone, Copy)]
struct WordState {
    writer: u32,
    readers: u32,
}

/// One cell of a reader list: a reading visit and the next cell.
#[derive(Debug, Clone, Copy)]
struct ReaderCell {
    visit: u32,
    next: u32,
}

/// A visited block, and the last visit that recorded an edge to it.
#[derive(Debug, Clone, Copy)]
struct Visit {
    block: BlockRef,
    edged_by: u32,
}

/// Incrementally builds a [`BlockDepGraph`] by visiting blocks in the
/// application's default execution order: the word-level oracle.
///
/// Every [`visit_block`](Self::visit_block) call is a *visit*, numbered
/// from 0. Per-word state lives in flat tables: [`WordMap`] gives each
/// word a dense slot, and the slot holds its last writer's visit number
/// and the head of its readers-since-that-write list. The lists share one
/// pool of cells; a write walks its word's list, emitting a WAR edge per
/// reader, and hands the cells back to the pool. Each visit records an
/// edge to a producer block at most once (the producer's `edged_by` stamp
/// is the visit number), so the edge list holds no duplicates and
/// [`finish`] sorts it once into CSR form.
///
/// [`finish`]: DepGraphBuilder::finish
#[derive(Debug, Default)]
pub struct DepGraphBuilder {
    slots: WordMap,
    words: Vec<WordState>,
    cells: Vec<ReaderCell>,
    /// Head of the list of free cells.
    free: Option<u32>,
    visits: Vec<Visit>,
    edges: Vec<(BlockRef, BlockRef)>,
    num_blocks: Vec<u32>,
}

impl DepGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the reads and writes of `block`, which is being visited in
    /// program order. Reads are resolved against the last writer before the
    /// block's own writes are installed (a block that reads and writes the
    /// same word sees the previous producer); each write resolves its
    /// WAW/WAR hazards against the pre-write state, then clears the word's
    /// reader list and becomes its last writer.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX - 1` visits.
    pub fn visit_block(&mut self, r: BlockRef, t: &BlockTrace) {
        assert!(self.visits.len() < NONE as usize, "visit count exceeds u32");
        let me = self.visits.len() as u32;
        self.visits.push(Visit { block: r, edged_by: NONE });
        for &word in &t.read_words {
            let s = self.slot(word);
            let WordState { writer, readers } = self.words[s];
            self.depend(me, writer);
            let cell = ReaderCell { visit: me, next: readers };
            self.words[s].readers = match self.free {
                Some(c) => {
                    let next = self.cells[c as usize].next;
                    self.free = (next != NONE).then_some(next);
                    self.cells[c as usize] = cell;
                    c
                }
                None => {
                    self.cells.push(cell);
                    (self.cells.len() - 1) as u32
                }
            };
        }
        for &word in &t.write_words {
            let s = self.slot(word);
            let WordState { writer, readers } = self.words[s];
            self.depend(me, writer);
            if readers != NONE {
                let mut c = readers;
                loop {
                    let cell = self.cells[c as usize];
                    self.depend(me, cell.visit);
                    if cell.next == NONE {
                        break;
                    }
                    c = cell.next;
                }
                // The walked list goes back to the pool in one splice.
                self.cells[c as usize].next = self.free.unwrap_or(NONE);
                self.free = Some(readers);
            }
            self.words[s] = WordState { writer: me, readers: NONE };
        }
        if r.node as usize >= self.num_blocks.len() {
            self.num_blocks.resize(r.node as usize + 1, 0);
        }
        let n = &mut self.num_blocks[r.node as usize];
        *n = (*n).max(r.block + 1);
    }

    /// The state index of `word`, allocating empty state for a new word.
    #[inline]
    fn slot(&mut self, word: u64) -> usize {
        let s = self.slots.slot(word) as usize;
        if s == self.words.len() {
            self.words.push(WordState { writer: NONE, readers: NONE });
        }
        s
    }

    /// Records that visit `me` depends on visit `producer` (if any): one
    /// edge per producer block and visit, none within a node.
    #[inline]
    fn depend(&mut self, me: u32, producer: u32) {
        if producer == NONE {
            return;
        }
        let consumer = self.visits[me as usize].block;
        let p = &mut self.visits[producer as usize];
        if p.edged_by != me {
            p.edged_by = me;
            if p.block.node != consumer.node {
                self.edges.push((consumer, p.block));
            }
        }
    }

    /// Finishes construction: one global sort of the edge list, then the
    /// forward and reverse CSR layouts.
    pub fn finish(self) -> BlockDepGraph {
        csr_from_edges(self.edges, self.num_blocks)
    }
}

/// Lays out the forward and reverse CSR arrays from a raw edge list.
///
/// The edge list may contain duplicates and be in any order; one global
/// sort + dedup canonicalizes it, so builders that push the same edge set
/// in different orders produce byte-identical graphs.
pub(crate) fn csr_from_edges(
    mut edges: Vec<(BlockRef, BlockRef)>,
    num_blocks: Vec<u32>,
) -> BlockDepGraph {
    // Flat slot index: node_base[n] + block.
    let mut node_base: Vec<usize> = Vec::with_capacity(num_blocks.len() + 1);
    let mut total = 0usize;
    for &n in &num_blocks {
        node_base.push(total);
        total += n as usize;
    }
    node_base.push(total);
    let slot = |r: BlockRef| node_base[r.node as usize] + r.block as usize;

    edges.sort_unstable();
    edges.dedup();

    let mut deps_off: Vec<u32> = vec![0; total + 1];
    for &(consumer, _) in &edges {
        deps_off[slot(consumer) + 1] += 1;
    }
    for i in 0..total {
        deps_off[i + 1] += deps_off[i];
    }
    let deps_edges: Vec<BlockRef> = edges.iter().map(|&(_, p)| p).collect();

    // Reverse direction: re-sort by (producer, consumer).
    let mut redges: Vec<(BlockRef, BlockRef)> = edges.iter().map(|&(c, p)| (p, c)).collect();
    redges.sort_unstable();
    let mut rdeps_off: Vec<u32> = vec![0; total + 1];
    for &(producer, _) in &redges {
        rdeps_off[slot(producer) + 1] += 1;
    }
    for i in 0..total {
        rdeps_off[i + 1] += rdeps_off[i];
    }
    let rdeps_edges: Vec<BlockRef> = redges.iter().map(|&(_, c)| c).collect();

    BlockDepGraph { num_blocks, node_base, deps_off, deps_edges, rdeps_off, rdeps_edges }
}

/// The block-level dependency graph of an application, in CSR form.
///
/// Edges point from a consumer block to the producer blocks it depends on
/// (`deps_of`), with the reverse direction available as `consumers_of`.
/// Both adjacency lists are sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockDepGraph {
    /// Blocks per node, indexed by node id.
    num_blocks: Vec<u32>,
    /// Prefix sums of `num_blocks`: flat slot of `(node, block)` is
    /// `node_base[node] + block`. Length `num_blocks.len() + 1`.
    node_base: Vec<usize>,
    /// Forward CSR offsets into `deps_edges`, one range per slot.
    deps_off: Vec<u32>,
    /// Producers, grouped by consumer slot, sorted within each range.
    deps_edges: Vec<BlockRef>,
    /// Reverse CSR offsets into `rdeps_edges`.
    rdeps_off: Vec<u32>,
    /// Consumers, grouped by producer slot, sorted within each range.
    rdeps_edges: Vec<BlockRef>,
}

impl BlockDepGraph {
    /// Flat slot of a block reference, or `None` for unknown blocks.
    #[inline]
    fn slot(&self, r: BlockRef) -> Option<usize> {
        let node = r.node as usize;
        if node >= self.num_blocks.len() || r.block >= self.num_blocks[node] {
            return None;
        }
        Some(self.node_base[node] + r.block as usize)
    }

    /// Producer blocks the given block directly depends on (sorted).
    pub fn deps_of(&self, r: BlockRef) -> &[BlockRef] {
        match self.slot(r) {
            Some(s) => &self.deps_edges[self.deps_off[s] as usize..self.deps_off[s + 1] as usize],
            None => &[],
        }
    }

    /// Consumer blocks that directly depend on the given block (sorted).
    pub fn consumers_of(&self, r: BlockRef) -> &[BlockRef] {
        match self.slot(r) {
            Some(s) => {
                &self.rdeps_edges[self.rdeps_off[s] as usize..self.rdeps_off[s + 1] as usize]
            }
            None => &[],
        }
    }

    /// Number of blocks observed for a node (0 if the node never appeared).
    pub fn blocks_of_node(&self, node: u32) -> u32 {
        self.num_blocks.get(node as usize).copied().unwrap_or(0)
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.deps_edges.len()
    }

    /// Iterates over all `(consumer, producers)` entries with at least one
    /// producer, in ascending consumer order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockRef, &[BlockRef])> + '_ {
        (0..self.num_blocks.len())
            .flat_map(move |node| {
                let base = self.node_base[node];
                (0..self.num_blocks[node])
                    .map(move |block| (BlockRef::new(node as u32, block), base + block as usize))
            })
            .filter_map(move |(r, s)| {
                let range = self.deps_off[s] as usize..self.deps_off[s + 1] as usize;
                if range.is_empty() {
                    None
                } else {
                    Some((r, &self.deps_edges[range]))
                }
            })
    }

    /// The set of node-level edges `(producer_node, consumer_node)` implied
    /// by the block dependencies, sorted and deduplicated. This recovers the
    /// coarse application graph from the trace (useful to validate a
    /// hand-built application graph).
    pub fn node_edges(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> =
            self.iter().flat_map(|(c, ps)| ps.iter().map(move |&p| (p.node, c.node))).collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Transitive closure of dependencies of `roots`, restricted to nodes
    /// for which `in_scope` returns `true` (used by ClusterTile to gather
    /// all direct and indirect dependencies *within a cluster*). The roots
    /// themselves are not included unless reachable from another root.
    pub fn transitive_deps<F: Fn(u32) -> bool>(
        &self,
        roots: &[BlockRef],
        in_scope: F,
    ) -> Vec<BlockRef> {
        // Slot-indexed visited bitmap: the closure walk does no hashing.
        let total = self.node_base.last().copied().unwrap_or(0);
        let mut visited = vec![false; total];
        let mut stack: Vec<usize> = Vec::with_capacity(roots.len());
        for &r in roots {
            if let Some(s) = self.slot(r) {
                visited[s] = true;
                stack.push(s);
            }
        }
        let mut seen: Vec<BlockRef> = Vec::new();
        while let Some(s) = stack.pop() {
            let range = self.deps_off[s] as usize..self.deps_off[s + 1] as usize;
            for &p in &self.deps_edges[range] {
                if !in_scope(p.node) {
                    continue;
                }
                let ps = self.slot(p).expect("edge endpoints are always known blocks");
                if !visited[ps] {
                    visited[ps] = true;
                    seen.push(p);
                    stack.push(ps);
                }
            }
        }
        seen.sort_unstable();
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AccessKind, TraceRecorder};

    /// Builds a trace where one thread writes `writes` and reads `reads`
    /// (word addresses scaled to bytes).
    fn trace(reads: &[u64], writes: &[u64]) -> BlockTrace {
        let mut rec = TraceRecorder::new(128);
        rec.begin_block(1);
        for &r in reads {
            rec.record(0, r * 4, 4, AccessKind::Load);
        }
        for &w in writes {
            rec.record(0, w * 4, 4, AccessKind::Store);
        }
        rec.finish_block()
    }

    #[test]
    fn read_after_write_creates_dependency() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[10, 11]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[10], &[20]));
        let g = b.finish();
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
        assert_eq!(g.consumers_of(BlockRef::new(0, 0)), &[BlockRef::new(1, 0)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn no_dependency_within_a_kernel() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[10]));
        b.visit_block(BlockRef::new(0, 1), &trace(&[10], &[11]));
        let g = b.finish();
        assert!(g.deps_of(BlockRef::new(0, 1)).is_empty());
    }

    #[test]
    fn last_writer_wins() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[10]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[], &[10])); // overwrites
        b.visit_block(BlockRef::new(2, 0), &trace(&[10], &[]));
        let g = b.finish();
        assert_eq!(g.deps_of(BlockRef::new(2, 0)), &[BlockRef::new(1, 0)]);
        // The overwrite itself is ordered after the first writer (WAW).
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
    }

    #[test]
    fn war_overwrite_depends_on_every_reader() {
        // Node 0 produces, nodes 1 and 2 read, node 3 overwrites: without
        // WAR edges a tiled schedule may hoist node 3 ahead of the readers.
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[10]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[10], &[20]));
        b.visit_block(BlockRef::new(2, 0), &trace(&[10], &[21]));
        b.visit_block(BlockRef::new(3, 0), &trace(&[], &[10]));
        let g = b.finish();
        assert_eq!(
            g.deps_of(BlockRef::new(3, 0)),
            &[BlockRef::new(0, 0), BlockRef::new(1, 0), BlockRef::new(2, 0)]
        );
    }

    #[test]
    fn war_readers_clear_at_each_write() {
        // Reader before the first overwrite does not constrain the second
        // overwrite: reader lists reset at every write of the word.
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[10]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[10], &[]));
        b.visit_block(BlockRef::new(2, 0), &trace(&[], &[10]));
        b.visit_block(BlockRef::new(3, 0), &trace(&[], &[10]));
        let g = b.finish();
        assert_eq!(g.deps_of(BlockRef::new(2, 0)), &[BlockRef::new(0, 0), BlockRef::new(1, 0)]);
        // Node 3 only sees the WAW hazard against node 2, not node 1's read.
        assert_eq!(g.deps_of(BlockRef::new(3, 0)), &[BlockRef::new(2, 0)]);
    }

    #[test]
    fn same_node_hazards_are_suppressed() {
        // Blocks of one kernel are unordered: a node whose blocks read and
        // then overwrite its own input region (in-place update) produces no
        // intra-node edges, only the edge to the external producer.
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[10, 11]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[10], &[10]));
        b.visit_block(BlockRef::new(1, 1), &trace(&[11], &[11]));
        let g = b.finish();
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
        assert_eq!(g.deps_of(BlockRef::new(1, 1)), &[BlockRef::new(0, 0)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn unwritten_reads_have_no_producer() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[99], &[1]));
        let g = b.finish();
        assert!(g.deps_of(BlockRef::new(0, 0)).is_empty());
    }

    #[test]
    fn in_place_update_sees_previous_producer() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[10]));
        // Node 1 reads word 10 and writes it back (in-place): dep on node 0.
        b.visit_block(BlockRef::new(1, 0), &trace(&[10], &[10]));
        b.visit_block(BlockRef::new(2, 0), &trace(&[10], &[]));
        let g = b.finish();
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
        assert_eq!(g.deps_of(BlockRef::new(2, 0)), &[BlockRef::new(1, 0)]);
    }

    #[test]
    fn node_edges_recover_app_graph() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[1, 2]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[1], &[3]));
        b.visit_block(BlockRef::new(2, 0), &trace(&[2, 3], &[4]));
        let g = b.finish();
        assert_eq!(g.node_edges(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn transitive_deps_respect_scope() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[1]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[1], &[2]));
        b.visit_block(BlockRef::new(2, 0), &trace(&[2], &[3]));
        let g = b.finish();
        let root = [BlockRef::new(2, 0)];
        // Full scope: both ancestors.
        let all = g.transitive_deps(&root, |_| true);
        assert_eq!(all, vec![BlockRef::new(0, 0), BlockRef::new(1, 0)]);
        // Scope excluding node 0: the chain stops at node 1.
        let partial = g.transitive_deps(&root, |n| n != 0);
        assert_eq!(partial, vec![BlockRef::new(1, 0)]);
        // Scope excluding node 1 cuts the chain entirely (indirect deps are
        // only discovered through in-scope blocks, as in ClusterTile).
        let cut = g.transitive_deps(&root, |n| n == 0);
        assert!(cut.is_empty());
    }

    #[test]
    fn stencil_pattern_matches_paper_fig1b() {
        // Kernel A: 4 blocks in a row, block i writes words 10*i..10*i+10.
        // Kernel B: block 0 reads the first 4 words of each A block
        // (downscale-like), so B(0) depends on A(0..4) — Fig. 1(b).
        let mut b = DepGraphBuilder::new();
        for i in 0..4u32 {
            let words: Vec<u64> = (0..10).map(|k| (10 * i + k) as u64).collect();
            b.visit_block(BlockRef::new(0, i), &trace(&[], &words));
        }
        let reads: Vec<u64> = (0..4u64).flat_map(|i| (0..4).map(move |k| 10 * i + k)).collect();
        b.visit_block(BlockRef::new(1, 0), &trace(&reads, &[100]));
        let g = b.finish();
        let deps = g.deps_of(BlockRef::new(1, 0));
        assert_eq!(deps.len(), 4);
        assert!(deps.iter().all(|d| d.node == 0));
    }

    #[test]
    fn blocks_of_node_tracks_grid_size() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(3, 0), &trace(&[], &[1]));
        b.visit_block(BlockRef::new(3, 7), &trace(&[], &[2]));
        let g = b.finish();
        assert_eq!(g.blocks_of_node(3), 8);
        assert_eq!(g.blocks_of_node(99), 0);
    }

    #[test]
    fn iter_yields_sorted_nonempty_entries() {
        let mut b = DepGraphBuilder::new();
        b.visit_block(BlockRef::new(0, 0), &trace(&[], &[1, 2]));
        b.visit_block(BlockRef::new(1, 0), &trace(&[1], &[]));
        b.visit_block(BlockRef::new(1, 1), &trace(&[2], &[]));
        let g = b.finish();
        let entries: Vec<(BlockRef, Vec<BlockRef>)> =
            g.iter().map(|(r, ps)| (r, ps.to_vec())).collect();
        assert_eq!(
            entries,
            vec![
                (BlockRef::new(1, 0), vec![BlockRef::new(0, 0)]),
                (BlockRef::new(1, 1), vec![BlockRef::new(0, 0)]),
            ]
        );
    }
}
