//! Run-structured dependency-graph construction.
//!
//! [`DepGraphBuilder`](crate::DepGraphBuilder) resolves every read *word* of
//! every block against a last-writer hash map — exact, but linear in the
//! total word count (tens of millions of probes for the 512² optical-flow
//! workload, ~90% of analysis time). [`StructuralDepBuilder`] computes the
//! same graph from the *run structure* of the traces instead:
//!
//! * traces are ingested at node granularity as the shared
//!   [`Arc<Vec<BlockTrace>>`]s the analyzer already holds, and each distinct
//!   `Arc` is indexed **once** — per-buffer read/write *runs* per block,
//!   with same-node shadowing and last-block-wins write resolution
//!   precomputed — no matter how many nodes share it;
//! * per buffer, a stack of *writer layers* (node, resolved runs) replaces
//!   the word map; a full-buffer write resets the stack;
//! * read resolution intersects consumer runs with layer runs top-down,
//!   and the resulting edge *template* — which consumer block depends on
//!   which producer block, as a function of the trace structures only — is
//!   cached by `(consumer trace, buffer, layer traces)` identity, so the 30
//!   structurally identical Jacobi iterations of a pyramid level resolve
//!   their dependencies once and replay the template 29 times with node
//!   ids substituted;
//! * write-after-read hazards are resolved against a second stack per
//!   buffer, of *reader layers* (node, surviving read runs, and the traces
//!   that wrote the buffer since the layer was pushed — their coverage is
//!   the layer's *dead* set, the words whose reader entries an earlier
//!   write already consumed). A node's first-writer runs meet each layer's
//!   read runs in one address-ordered interval sweep: both run lists are
//!   sorted by start, read runs join an active list when they start before
//!   the current write run ends and leave it for good once they end at or
//!   before its start, so only real overlaps are ever tested against
//!   `dead`. Halo runs of neighbouring blocks and a transfer's whole-buffer
//!   run are just long-lived members of the active list;
//! * that WAR resolution is cached like RAW and WAW, keyed by the writer
//!   trace, the buffer, and per reader layer its trace plus the traces
//!   that wrote the buffer since it was pushed (which fix `dead` exactly).
//!   A template holds each `(writer block, reader layer, reader block)`
//!   triple once, so a Jacobi node replays its WAR edges without
//!   re-deriving or re-emitting duplicates. The template also records
//!   which reader layers the write leaves with no live read: those layers
//!   are dropped from the stack, since they can never yield another edge.
//!
//! Equivalence with the word-level builder is exact, not approximate: for
//! every read word, "first layer from the top whose resolved runs cover it"
//! is precisely "the most recently visited block that wrote it", the
//! same-node shadow reproduces the builder's own-node edge suppression, and
//! the final [`csr_from_edges`] sort+dedup canonicalizes the edge list, so
//! the resulting [`BlockDepGraph`] is byte-identical (checked by unit,
//! property and full-workload equivalence tests).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use gpu_sim::Buffer;

use crate::blockdep::{csr_from_edges, BlockDepGraph, BlockRef};
use crate::record::BlockTrace;

/// One region of the 4-byte-word address space: a buffer's span or a gap
/// between buffers. Regions partition the whole space, so every traced
/// word belongs to exactly one region.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: u64,
    end: u64,
    /// Whether this is an allocated buffer (gap regions can never be
    /// "fully overwritten", since their extent is not meaningful).
    buffer: bool,
}

/// A set of disjoint half-open intervals over word addresses, supporting
/// union insertion and complement queries. Backed by a `BTreeMap` keyed by
/// interval start.
#[derive(Debug, Default)]
struct IntervalSet {
    map: BTreeMap<u64, u64>,
}

impl IntervalSet {
    /// Inserts `[s, e)`, merging overlapping and adjacent intervals.
    fn insert(&mut self, mut s: u64, mut e: u64) {
        debug_assert!(s < e);
        let merge: Vec<(u64, u64)> = self
            .map
            .range(..=e)
            .rev()
            .map(|(&is, &ie)| (is, ie))
            .take_while(|&(_, ie)| ie >= s)
            .collect();
        for (is, ie) in merge {
            s = s.min(is);
            e = e.max(ie);
            self.map.remove(&is);
        }
        self.map.insert(s, e);
    }

    /// Whether the non-empty `[s, e)` lies entirely inside the set.
    fn covers(&self, s: u64, e: u64) -> bool {
        debug_assert!(s < e);
        // Intervals are merged, so a covered span sits inside one of them.
        self.map.range(..=s).next_back().is_some_and(|(_, &ie)| ie >= e)
    }

    /// Appends the parts of `[s, e)` *not* covered by the set to `out`.
    fn subtract(&self, s: u64, e: u64, out: &mut Vec<(u64, u64)>) {
        let mut cur = s;
        if let Some((_, &ie)) = self.map.range(..=cur).next_back() {
            cur = cur.max(ie);
        }
        if cur >= e {
            return;
        }
        for (&is, &ie) in self.map.range(cur..e) {
            if is > cur {
                out.push((cur, is));
            }
            cur = ie;
            if cur >= e {
                break;
            }
        }
        if cur < e {
            out.push((cur, e));
        }
    }
}

/// A region's writes within one trace, resolved to the last writing block:
/// disjoint runs `(start, end, block)` plus their merged coverage.
#[derive(Debug, Default)]
struct ResolvedWrites {
    /// Last-writer runs, sorted by start, disjoint.
    runs: Vec<(u64, u64, u32)>,
    /// First-writer runs `(block, start, end)`, grouped by block in block
    /// order — the word builder charges each word's WAW/WAR hazard to the
    /// *first* block of the node that writes it (later same-node writers
    /// see a same-node previous writer and an empty reader list).
    first_runs: Vec<BlockRun>,
    /// Union of the runs, merged, sorted, non-adjacent.
    coverage: Vec<(u64, u64)>,
    /// Whether the coverage equals the entire (buffer) region.
    full: bool,
}

/// One run of words `[start, end)` touched by a block: `(block, start,
/// end)`, the unit both index passes work in.
type BlockRun = (u32, u64, u64);

/// The precomputed run structure of one shared trace vector.
#[derive(Debug, Default)]
struct TraceIndex {
    /// Per touched region: shadow-subtracted read runs `(block, start,
    /// end)` in block order (runs a block re-reads after an *earlier* block
    /// of the same node wrote them are removed — the word builder
    /// suppresses those same-node edges and the masked external producer
    /// alike).
    reads: Vec<(u32, Vec<BlockRun>)>,
    /// Per touched region: read runs that *survive* the node's own writes —
    /// reads not followed by a same-node write of the word (by the reading
    /// block itself or any later block). These are the word builder's
    /// reader-list survivors, the targets of later nodes' WAR hazards.
    /// Sorted by start address for the WAR sweep; runs of different
    /// blocks may overlap.
    surviving_reads: Vec<(u32, Vec<BlockRun>)>,
    /// Per written region: the resolved write structure.
    writes: Vec<(u32, ResolvedWrites)>,
}

/// One writer layer on a region's stack.
#[derive(Debug, Clone, Copy)]
struct Layer {
    node: u32,
    arc_ptr: usize,
    index_idx: usize,
    writes_pos: usize,
}

/// One reader layer on a region's stack: a node's surviving reads, minus
/// the words overwritten (and therefore WAR-resolved) since the layer was
/// pushed.
#[derive(Debug)]
struct ReadLayer {
    node: u32,
    index_idx: usize,
    /// Position in the index's `surviving_reads` for this region.
    reads_pos: usize,
    /// `(index, writes position)` of every node that wrote the region since
    /// the layer was pushed, in visit order. The union of their coverage is
    /// the layer's *dead* set: those words' reader entries were consumed by
    /// the write's WAR resolution, exactly like the word builder clearing a
    /// word's reader list at each write.
    writers: Vec<(usize, usize)>,
}

/// Edge template entry: consumer block, layer position (from the top of
/// the writer stack; from the bottom of the reader stack for WAR),
/// producer block.
type TemplateEntry = (u32, u32, u32);

/// Template cache key: the resolving trace (its `Arc` address for RAW and
/// WAW, its index for WAR), the region, and a signature of the stack it
/// is resolved against.
type TemplateKey = (usize, u32, Vec<usize>);

/// A cached WAR resolution of one write against one reader stack.
#[derive(Debug)]
struct WarTemplate {
    /// `(writer block, reader layer position from the bottom of the stack,
    /// reader block)`, sorted and deduplicated.
    entries: Vec<TemplateEntry>,
    /// Per reader layer, bottom up: whether the write leaves it with no
    /// live read, so it can be dropped.
    exhausted: Vec<bool>,
}

/// Builds a [`BlockDepGraph`] from node-granularity trace visits using run
/// intersection and structural template reuse (see the module docs).
///
/// Visit nodes in the application's topological execution order, then call
/// [`finish`](StructuralDepBuilder::finish). The result is byte-identical
/// to feeding every block of every node through
/// [`DepGraphBuilder::visit_block`](crate::DepGraphBuilder::visit_block) in
/// the same order.
#[derive(Debug, Default)]
pub struct StructuralDepBuilder {
    regions: Vec<Region>,
    indexes: Vec<TraceIndex>,
    index_of: HashMap<usize, usize>,
    stacks: HashMap<u32, Vec<Layer>>,
    read_stacks: HashMap<u32, Vec<ReadLayer>>,
    templates: HashMap<TemplateKey, Vec<TemplateEntry>>,
    /// WAW templates: first-writer runs resolved against the writer stack.
    /// Same key shape as `templates` but a distinct cache — the same
    /// (trace, region, stack) can need both a read and a write resolution.
    waw_templates: HashMap<TemplateKey, Vec<TemplateEntry>>,
    /// WAR templates, keyed by writer index, region and the reader stack
    /// flattened bottom up as `[reader index, writer count, writer
    /// indexes...]` per layer.
    war_templates: HashMap<TemplateKey, WarTemplate>,
    edges: Vec<(BlockRef, BlockRef)>,
    num_blocks: Vec<u32>,
}

impl StructuralDepBuilder {
    /// Creates a builder for traces over the given allocated buffers
    /// (normally `DeviceMemory::buffers()`).
    ///
    /// # Panics
    ///
    /// Panics if buffer word spans overlap.
    pub fn new(buffers: impl IntoIterator<Item = Buffer>) -> Self {
        let mut spans: Vec<(u64, u64)> = buffers
            .into_iter()
            .filter(|b| b.len > 0)
            .map(|b| (b.addr >> 2, (b.addr + b.len + 3) >> 2))
            .collect();
        spans.sort_unstable();
        let mut regions: Vec<Region> = Vec::with_capacity(2 * spans.len() + 1);
        let mut cur = 0u64;
        for &(s, e) in &spans {
            assert!(s >= cur, "buffer word spans must be disjoint");
            if s > cur {
                regions.push(Region { start: cur, end: s, buffer: false });
            }
            regions.push(Region { start: s, end: e, buffer: true });
            cur = e;
        }
        regions.push(Region { start: cur, end: u64::MAX, buffer: false });
        StructuralDepBuilder { regions, ..Default::default() }
    }

    /// Registers the next node of the execution order with its (possibly
    /// shared) block traces: resolves the node's reads against the current
    /// writer stacks, then installs its writes.
    pub fn visit_node(&mut self, node: u32, traces: &Arc<Vec<BlockTrace>>) {
        let ptr = Arc::as_ptr(traces) as usize;
        let index_idx = match self.index_of.get(&ptr) {
            Some(&i) => i,
            None => {
                let built = build_index(traces, &self.regions);
                self.indexes.push(built);
                self.index_of.insert(ptr, self.indexes.len() - 1);
                self.indexes.len() - 1
            }
        };

        // Resolve reads before installing this node's own writes — a node
        // that reads and writes the same region sees the previous producer.
        for (region, creads) in &self.indexes[index_idx].reads {
            let Some(stack) = self.stacks.get(region).filter(|s| !s.is_empty()) else {
                continue;
            };
            let key = (ptr, *region, stack.iter().rev().map(|l| l.arc_ptr).collect::<Vec<usize>>());
            if !self.templates.contains_key(&key) {
                let layers: Vec<&ResolvedWrites> = stack
                    .iter()
                    .rev()
                    .map(|l| &self.indexes[l.index_idx].writes[l.writes_pos].1)
                    .collect();
                let template = build_template(creads, &layers);
                self.templates.insert(key.clone(), template);
            }
            let template = &self.templates[&key];
            for &(cblock, layer_pos, pblock) in template {
                let producer = stack[stack.len() - 1 - layer_pos as usize].node;
                self.edges.push((BlockRef::new(node, cblock), BlockRef::new(producer, pblock)));
            }
        }

        for (pos, (region, rw)) in self.indexes[index_idx].writes.iter().enumerate() {
            // WAW: each word's first writing block of this node depends on
            // the word's previous external last writer, resolved against
            // the writer stack with the same top-down fall-through as
            // reads (and cached the same way).
            if let Some(stack) = self.stacks.get(region).filter(|s| !s.is_empty()) {
                let key =
                    (ptr, *region, stack.iter().rev().map(|l| l.arc_ptr).collect::<Vec<usize>>());
                if !self.waw_templates.contains_key(&key) {
                    let layers: Vec<&ResolvedWrites> = stack
                        .iter()
                        .rev()
                        .map(|l| &self.indexes[l.index_idx].writes[l.writes_pos].1)
                        .collect();
                    let template = build_template(&rw.first_runs, &layers);
                    self.waw_templates.insert(key.clone(), template);
                }
                for &(wblock, layer_pos, pblock) in &self.waw_templates[&key] {
                    let producer = stack[stack.len() - 1 - layer_pos as usize].node;
                    self.edges.push((BlockRef::new(node, wblock), BlockRef::new(producer, pblock)));
                }
            }

            // WAR: the first writer of each word also depends on every
            // surviving reader of that word since its last write. Reader
            // layers are consumed word-wise — overwritten spans become
            // dead, like the word builder clearing reader lists — and a
            // layer with no live read left is dropped.
            if let Some(rstack) = self.read_stacks.get_mut(region).filter(|s| !s.is_empty()) {
                let mut sig: Vec<usize> = Vec::new();
                for layer in rstack.iter() {
                    sig.push(layer.index_idx);
                    sig.push(layer.writers.len());
                    sig.extend(layer.writers.iter().map(|&(w, _)| w));
                }
                let template = self
                    .war_templates
                    .entry((index_idx, *region, sig))
                    .or_insert_with(|| build_war_template(rw, rstack, &self.indexes));
                for &(wblock, layer_pos, rblock) in &template.entries {
                    let reader = rstack[layer_pos as usize].node;
                    self.edges.push((BlockRef::new(node, wblock), BlockRef::new(reader, rblock)));
                }
                for layer in rstack.iter_mut() {
                    layer.writers.push((index_idx, pos));
                }
                let mut exhausted = template.exhausted.iter();
                rstack.retain(|_| !exhausted.next().expect("one flag per reader layer"));
            }

            let stack = self.stacks.entry(*region).or_default();
            if rw.full {
                // Every word of the region has a new last writer: older
                // layers can never be reached again.
                stack.clear();
            }
            stack.push(Layer { node, arc_ptr: ptr, index_idx, writes_pos: pos });
        }

        // Register this node's surviving reads as a new reader layer per
        // region — after the write pass, so the node's own writes neither
        // WAR against it nor kill it (intra-node ordering is already
        // folded into `surviving_reads`).
        for (pos, (region, _)) in self.indexes[index_idx].surviving_reads.iter().enumerate() {
            self.read_stacks.entry(*region).or_default().push(ReadLayer {
                node,
                index_idx,
                reads_pos: pos,
                writers: Vec::new(),
            });
        }

        if node as usize >= self.num_blocks.len() {
            self.num_blocks.resize(node as usize + 1, 0);
        }
        let n = &mut self.num_blocks[node as usize];
        *n = (*n).max(traces.len() as u32);
    }

    /// Finishes construction through the same canonicalizing CSR layout as
    /// the word-level builders.
    pub fn finish(self) -> BlockDepGraph {
        csr_from_edges(self.edges, self.num_blocks)
    }
}

/// Splits a sorted word list into `(block, start, end)` runs that stay
/// within one region, appending them to the per-region vectors.
fn extract_runs(
    words: &[u64],
    regions: &[Region],
    block: u32,
    mut push: impl FnMut(u32, u32, u64, u64),
) {
    let mut i = 0usize;
    let mut ridx = 0usize;
    while i < words.len() {
        let w = words[i];
        while regions[ridx].end <= w {
            ridx += 1;
        }
        debug_assert!(regions[ridx].start <= w);
        let region_end = regions[ridx].end;
        let start = w;
        let mut end = w + 1;
        i += 1;
        while i < words.len() && words[i] == end && end < region_end {
            end += 1;
            i += 1;
        }
        push(ridx as u32, block, start, end);
    }
}

/// Indexes one trace vector: per-region read/write runs per block, with
/// same-node shadowing and last-block-wins write resolution applied.
fn build_index(traces: &[BlockTrace], regions: &[Region]) -> TraceIndex {
    // Raw runs per region, in block order.
    let mut raw: BTreeMap<u32, (Vec<BlockRun>, Vec<BlockRun>)> = BTreeMap::new();
    for (b, t) in traces.iter().enumerate() {
        extract_runs(&t.read_words, regions, b as u32, |r, blk, s, e| {
            raw.entry(r).or_default().0.push((blk, s, e));
        });
        extract_runs(&t.write_words, regions, b as u32, |r, blk, s, e| {
            raw.entry(r).or_default().1.push((blk, s, e));
        });
    }

    let mut index = TraceIndex::default();
    let mut scratch: Vec<(u64, u64)> = Vec::new();
    for (region, (reads, writes)) in raw {
        // Forward pass: shadow each block's reads with the writes of
        // *earlier* blocks of this same trace (same-node masking).
        if !reads.is_empty() {
            let mut shadow = IntervalSet::default();
            let mut out: Vec<(u32, u64, u64)> = Vec::with_capacity(reads.len());
            let (mut ri, mut wi) = (0usize, 0usize);
            for b in 0..traces.len() as u32 {
                while ri < reads.len() && reads[ri].0 == b {
                    let (_, s, e) = reads[ri];
                    scratch.clear();
                    shadow.subtract(s, e, &mut scratch);
                    out.extend(scratch.iter().map(|&(a, z)| (b, a, z)));
                    ri += 1;
                }
                while wi < writes.len() && writes[wi].0 == b {
                    shadow.insert(writes[wi].1, writes[wi].2);
                    wi += 1;
                }
            }
            if !out.is_empty() {
                index.reads.push((region, out));
            }
        }

        // Reverse shadow pass: a read survives the node iff no same-node
        // write of the word follows it — writes by later blocks, or by the
        // reading block itself (a block's reads precede its writes).
        if !reads.is_empty() {
            let mut later = IntervalSet::default();
            let mut surv: Vec<BlockRun> = Vec::new();
            let (mut ri, mut wi) = (reads.len(), writes.len());
            for b in (0..traces.len() as u32).rev() {
                while wi > 0 && writes[wi - 1].0 == b {
                    later.insert(writes[wi - 1].1, writes[wi - 1].2);
                    wi -= 1;
                }
                while ri > 0 && reads[ri - 1].0 == b {
                    let (_, s, e) = reads[ri - 1];
                    scratch.clear();
                    later.subtract(s, e, &mut scratch);
                    surv.extend(scratch.iter().map(|&(a, z)| (b, a, z)));
                    ri -= 1;
                }
            }
            if !surv.is_empty() {
                surv.sort_unstable_by_key(|&(_, s, _)| s);
                index.surviving_reads.push((region, surv));
            }
        }

        // Backward pass: resolve each written word to its last writing
        // block within this trace; forward pass: to its first (the WAW/WAR
        // hazard carrier).
        if !writes.is_empty() {
            let mut occupied = IntervalSet::default();
            let mut resolved: Vec<(u64, u64, u32)> = Vec::with_capacity(writes.len());
            for &(b, s, e) in writes.iter().rev() {
                scratch.clear();
                occupied.subtract(s, e, &mut scratch);
                resolved.extend(scratch.iter().map(|&(a, z)| (a, z, b)));
                occupied.insert(s, e);
            }
            resolved.sort_unstable();
            let mut coverage: Vec<(u64, u64)> = Vec::new();
            for &(s, e, _) in &resolved {
                match coverage.last_mut() {
                    Some((_, ce)) if *ce == s => *ce = e,
                    _ => coverage.push((s, e)),
                }
            }
            let mut first_occupied = IntervalSet::default();
            let mut first_runs: Vec<BlockRun> = Vec::with_capacity(writes.len());
            for &(b, s, e) in writes.iter() {
                scratch.clear();
                first_occupied.subtract(s, e, &mut scratch);
                first_runs.extend(scratch.iter().map(|&(a, z)| (b, a, z)));
                first_occupied.insert(s, e);
            }
            let r = &regions[region as usize];
            let full = r.buffer && coverage.len() == 1 && coverage[0] == (r.start, r.end);
            index
                .writes
                .push((region, ResolvedWrites { runs: resolved, first_runs, coverage, full }));
        }
    }
    index
}

/// Intersects consumer read runs with the writer layers top-down, emitting
/// `(consumer block, layer position, producer block)` entries. Reads not
/// covered by the top layer fall through to deeper layers; reads covered by
/// no layer have no producer.
fn build_template(creads: &[(u32, u64, u64)], layers: &[&ResolvedWrites]) -> Vec<TemplateEntry> {
    let mut out: Vec<TemplateEntry> = Vec::new();
    let mut rem: Vec<(u64, u64)> = Vec::new();
    let mut next: Vec<(u64, u64)> = Vec::new();
    let mut i = 0usize;
    while i < creads.len() {
        let cblock = creads[i].0;
        rem.clear();
        while i < creads.len() && creads[i].0 == cblock {
            rem.push((creads[i].1, creads[i].2));
            i += 1;
        }
        for (layer_pos, layer) in layers.iter().enumerate() {
            if rem.is_empty() {
                break;
            }
            for &(s, e) in &rem {
                let mut j = layer.runs.partition_point(|&(_, re, _)| re <= s);
                while j < layer.runs.len() && layer.runs[j].0 < e {
                    out.push((cblock, layer_pos as u32, layer.runs[j].2));
                    j += 1;
                }
            }
            next.clear();
            subtract_runs(&rem, &layer.coverage, &mut next);
            std::mem::swap(&mut rem, &mut next);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Resolves one write's WAR hazards against a reader stack (see the
/// module docs): per reader layer, an address-ordered sweep of the
/// writer's first-writer runs against the layer's surviving read runs,
/// testing each real overlap against the layer's dead set.
fn build_war_template(
    rw: &ResolvedWrites,
    rstack: &[ReadLayer],
    indexes: &[TraceIndex],
) -> WarTemplate {
    // First-writer runs are disjoint, so sorted by start they are sorted
    // by end too.
    let mut writes = rw.first_runs.clone();
    writes.sort_unstable_by_key(|&(_, s, _)| s);
    let mut entries: Vec<TemplateEntry> = Vec::new();
    let mut exhausted: Vec<bool> = Vec::with_capacity(rstack.len());
    let mut active: Vec<BlockRun> = Vec::new();
    for (layer_pos, layer) in rstack.iter().enumerate() {
        let reads = &indexes[layer.index_idx].surviving_reads[layer.reads_pos].1;
        let mut dead = IntervalSet::default();
        for &(w, wpos) in &layer.writers {
            for &(s, e) in &indexes[w].writes[wpos].1.coverage {
                dead.insert(s, e);
            }
        }
        active.clear();
        let mut next = 0usize;
        for &(wblock, ws, we) in &writes {
            while next < reads.len() && reads[next].1 < we {
                active.push(reads[next]);
                next += 1;
            }
            // Write runs only move up, so a read run ending at or before
            // this one's start overlaps no later write run either.
            active.retain(|&(_, _, re)| re > ws);
            for &(rblock, rs, re) in &active {
                if !dead.covers(ws.max(rs), we.min(re)) {
                    entries.push((wblock, layer_pos as u32, rblock));
                }
            }
        }
        for &(s, e) in &rw.coverage {
            dead.insert(s, e);
        }
        exhausted.push(reads.iter().all(|&(_, s, e)| dead.covers(s, e)));
    }
    entries.sort_unstable();
    entries.dedup();
    WarTemplate { entries, exhausted }
}

/// Appends `a minus cov` to `out`; both inputs are sorted disjoint runs.
fn subtract_runs(a: &[(u64, u64)], cov: &[(u64, u64)], out: &mut Vec<(u64, u64)>) {
    for &(s, e) in a {
        let mut j = cov.partition_point(|&(_, ce)| ce <= s);
        let mut cur = s;
        while cur < e {
            if j >= cov.len() || cov[j].0 >= e {
                out.push((cur, e));
                break;
            }
            let (cs, ce) = cov[j];
            if cs > cur {
                out.push((cur, cs));
            }
            cur = cur.max(ce);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdep::DepGraphBuilder;
    use crate::record::{AccessKind, TraceRecorder};
    use gpu_sim::DeviceMemory;

    /// Builds a single-thread trace reading/writing the given f32 element
    /// indices of the given buffers.
    fn trace(reads: &[(Buffer, u64)], writes: &[(Buffer, u64)]) -> BlockTrace {
        let mut rec = TraceRecorder::new(128);
        rec.begin_block(1);
        for &(b, i) in reads {
            rec.record(0, b.f32_addr(i), 4, AccessKind::Load);
        }
        for &(b, i) in writes {
            rec.record(0, b.f32_addr(i), 4, AccessKind::Store);
        }
        rec.finish_block()
    }

    /// Runs the same node-granularity visit sequence through both builders
    /// and asserts byte-identical graphs.
    fn assert_equivalent(mem: &DeviceMemory, nodes: &[Arc<Vec<BlockTrace>>]) -> BlockDepGraph {
        let mut word = DepGraphBuilder::new();
        for (n, traces) in nodes.iter().enumerate() {
            for (b, t) in traces.iter().enumerate() {
                word.visit_block(BlockRef::new(n as u32, b as u32), t);
            }
        }
        let expect = word.finish();

        let mut structural = StructuralDepBuilder::new(mem.buffers());
        for (n, traces) in nodes.iter().enumerate() {
            structural.visit_node(n as u32, traces);
        }
        let got = structural.finish();
        assert_eq!(got, expect);
        expect
    }

    #[test]
    fn simple_producer_consumer() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(64, "a");
        let nodes = vec![
            Arc::new(vec![trace(&[], &(0..64).map(|i| (a, i)).collect::<Vec<_>>())]),
            Arc::new(vec![trace(&[(a, 3)], &[])]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn full_overwrite_resets_the_stack() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(16, "a");
        let all: Vec<(Buffer, u64)> = (0..16).map(|i| (a, i)).collect();
        let nodes = vec![
            Arc::new(vec![trace(&[], &all)]),
            Arc::new(vec![trace(&[], &all)]), // overwrites node 0 entirely
            Arc::new(vec![trace(&[(a, 5)], &[])]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.deps_of(BlockRef::new(2, 0)), &[BlockRef::new(1, 0)]);
    }

    #[test]
    fn partial_writers_stack_and_fall_through() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(64, "a");
        let nodes = vec![
            // Node 0 writes everything; node 1 overwrites only [16, 32).
            Arc::new(vec![trace(&[], &(0..64).map(|i| (a, i)).collect::<Vec<_>>())]),
            Arc::new(vec![trace(&[], &(16..32).map(|i| (a, i)).collect::<Vec<_>>())]),
            // Node 2 reads across the boundary: deps on both layers.
            Arc::new(vec![trace(&(8..40).map(|i| (a, i)).collect::<Vec<_>>(), &[])]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        let deps = g.deps_of(BlockRef::new(2, 0));
        assert_eq!(deps, &[BlockRef::new(0, 0), BlockRef::new(1, 0)]);
    }

    #[test]
    fn later_block_wins_within_a_node() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(32, "a");
        let nodes = vec![
            // Blocks 0 and 1 of node 0 both write element 7; block 1 wins.
            Arc::new(vec![trace(&[], &[(a, 7), (a, 8)]), trace(&[], &[(a, 7)])]),
            Arc::new(vec![trace(&[(a, 7)], &[]), trace(&[(a, 8)], &[])]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 1)]);
        assert_eq!(g.deps_of(BlockRef::new(1, 1)), &[BlockRef::new(0, 0)]);
    }

    #[test]
    fn same_node_shadow_masks_external_producer() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(32, "a");
        let nodes = vec![
            Arc::new(vec![trace(&[], &[(a, 3)])]),
            // Node 1, block 0 writes element 3; block 1 then reads it. The
            // word builder suppresses both the same-node read edge *and*
            // the masked RAW edge to node 0 — only block 0's overwrite of
            // node 0's word remains, as a WAW hazard edge.
            Arc::new(vec![trace(&[], &[(a, 3)]), trace(&[(a, 3)], &[])]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
        assert!(g.deps_of(BlockRef::new(1, 1)).is_empty());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn in_place_node_sees_previous_producer() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(16, "a");
        let all: Vec<(Buffer, u64)> = (0..16).map(|i| (a, i)).collect();
        let nodes = vec![
            Arc::new(vec![trace(&[], &all)]),
            // Reads and writes the same region (AddField-style in-place).
            Arc::new(vec![trace(&all, &all)]),
            Arc::new(vec![trace(&[(a, 0)], &[])]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
        assert_eq!(g.deps_of(BlockRef::new(2, 0)), &[BlockRef::new(1, 0)]);
    }

    #[test]
    fn shared_arcs_reuse_templates_with_substituted_nodes() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(32, "a");
        let b = mem.alloc_f32(32, "b");
        let ping: Arc<Vec<BlockTrace>> = Arc::new(vec![trace(
            &(0..32).map(|i| (a, i)).collect::<Vec<_>>(),
            &(0..32).map(|i| (b, i)).collect::<Vec<_>>(),
        )]);
        let pong: Arc<Vec<BlockTrace>> = Arc::new(vec![trace(
            &(0..32).map(|i| (b, i)).collect::<Vec<_>>(),
            &(0..32).map(|i| (a, i)).collect::<Vec<_>>(),
        )]);
        let init: Arc<Vec<BlockTrace>> =
            Arc::new(vec![trace(&[], &(0..32).map(|i| (a, i)).collect::<Vec<_>>())]);
        // An iterated ping-pong chain sharing two trace arcs.
        let nodes = vec![
            init,
            Arc::clone(&ping),
            Arc::clone(&pong),
            Arc::clone(&ping),
            Arc::clone(&pong),
            Arc::clone(&ping),
        ];
        let g = assert_equivalent(&mem, &nodes);
        // Each link reads its predecessor's output (RAW) and overwrites
        // the buffer written two links earlier (WAW) / read by the
        // predecessor (WAR, coinciding with the RAW edge).
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
        for n in 2..=5u32 {
            assert_eq!(
                g.deps_of(BlockRef::new(n, 0)),
                &[BlockRef::new(n - 2, 0), BlockRef::new(n - 1, 0)]
            );
        }
    }

    #[test]
    fn multi_block_stencil_matches_word_builder() {
        // A strided multi-block producer/consumer with halos, checked
        // against the word-level builder block by block.
        let mut mem = DeviceMemory::new();
        let src = mem.alloc_f32(256, "src");
        let dst = mem.alloc_f32(256, "dst");
        let producer: Vec<BlockTrace> = (0..4u64)
            .map(|blk| {
                trace(&[], &(blk * 64..(blk + 1) * 64).map(|i| (src, i)).collect::<Vec<_>>())
            })
            .collect();
        let consumer: Vec<BlockTrace> = (0..4u64)
            .map(|blk| {
                let lo = (blk * 64).saturating_sub(2);
                let hi = ((blk + 1) * 64 + 2).min(256);
                trace(
                    &(lo..hi).map(|i| (src, i)).collect::<Vec<_>>(),
                    &(blk * 64..(blk + 1) * 64).map(|i| (dst, i)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let nodes = vec![Arc::new(producer), Arc::new(consumer)];
        let g = assert_equivalent(&mem, &nodes);
        // Interior consumer blocks reach into their neighbours' halos.
        assert_eq!(
            g.deps_of(BlockRef::new(1, 1)),
            &[BlockRef::new(0, 0), BlockRef::new(0, 1), BlockRef::new(0, 2)]
        );
    }

    #[test]
    fn war_overwrite_depends_on_prior_readers() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(16, "a");
        let all: Vec<(Buffer, u64)> = (0..16).map(|i| (a, i)).collect();
        let nodes = vec![
            Arc::new(vec![trace(&[], &all)]),
            // Two readers, then a full overwrite: the overwrite must be
            // ordered after both reads (WAR) and the producer (WAW).
            Arc::new(vec![trace(&[(a, 2)], &[])]),
            Arc::new(vec![trace(&[(a, 9)], &[])]),
            Arc::new(vec![trace(&[], &all)]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(
            g.deps_of(BlockRef::new(3, 0)),
            &[BlockRef::new(0, 0), BlockRef::new(1, 0), BlockRef::new(2, 0)]
        );
    }

    #[test]
    fn war_reader_lists_clear_at_partial_overwrites() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(32, "a");
        let nodes = vec![
            Arc::new(vec![trace(&[], &(0..32).map(|i| (a, i)).collect::<Vec<_>>())]),
            // Node 1 reads [0, 16); node 2 overwrites [0, 8) — WAR on the
            // overlap; node 3 overwrites [0, 16) — node 1's [0, 8) reads
            // were already consumed by node 2's write, so node 3's WAR edge
            // to node 1 comes only from the still-live [8, 16) span.
            Arc::new(vec![trace(&(0..16).map(|i| (a, i)).collect::<Vec<_>>(), &[])]),
            Arc::new(vec![trace(&[], &(0..8).map(|i| (a, i)).collect::<Vec<_>>())]),
            Arc::new(vec![trace(&[], &(0..16).map(|i| (a, i)).collect::<Vec<_>>())]),
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.deps_of(BlockRef::new(2, 0)), &[BlockRef::new(0, 0), BlockRef::new(1, 0)]);
        // Node 3: WAW on nodes 0 and 2 (split last-writer), WAR on node 1.
        assert_eq!(
            g.deps_of(BlockRef::new(3, 0)),
            &[BlockRef::new(0, 0), BlockRef::new(1, 0), BlockRef::new(2, 0)]
        );
    }

    #[test]
    fn war_hazard_on_never_written_words() {
        // Reads of an unwritten buffer have no RAW producer but still WAR-
        // constrain a later overwrite (the reader saw the initial value).
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(8, "a");
        let nodes =
            vec![Arc::new(vec![trace(&[(a, 1)], &[])]), Arc::new(vec![trace(&[], &[(a, 1)])])];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
    }

    #[test]
    fn full_overwrite_drops_reader_layers() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_f32(8, "a");
        let all: Vec<(Buffer, u64)> = (0..8).map(|i| (a, i)).collect();
        let nodes = vec![
            Arc::new(vec![trace(&all, &[])]),
            Arc::new(vec![trace(&[], &all)]), // WAR on node 0
            Arc::new(vec![trace(&[], &all)]), // WAW on node 1 only
        ];
        let g = assert_equivalent(&mem, &nodes);
        assert_eq!(g.deps_of(BlockRef::new(1, 0)), &[BlockRef::new(0, 0)]);
        assert_eq!(g.deps_of(BlockRef::new(2, 0)), &[BlockRef::new(1, 0)]);
    }

    /// Randomized multi-buffer hazard sweep: arbitrary interleavings of
    /// partial/full reads and writes across shared trace arcs must produce
    /// byte-identical graphs from the word and structural builders.
    #[test]
    fn randomized_hazard_equivalence() {
        use gpu_sim::SplitMix64;
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9));
            let mut mem = DeviceMemory::new();
            let bufs: Vec<Buffer> = (0..rng.gen_range_u64(1, 4))
                .map(|i| mem.alloc_f32(rng.gen_range_u64(4, 40), &format!("b{i}")))
                .collect();
            let num_nodes = rng.gen_range_u64(2, 8) as usize;
            let mut nodes: Vec<Arc<Vec<BlockTrace>>> = Vec::new();
            for _ in 0..num_nodes {
                let blocks = rng.gen_range_u64(1, 4) as usize;
                // Occasionally revisit an earlier arc to exercise template
                // and index reuse under hazard tracking.
                if !nodes.is_empty() && rng.gen_range_u64(0, 4) == 0 {
                    let i = rng.gen_range_u64(0, nodes.len() as u64) as usize;
                    nodes.push(Arc::clone(&nodes[i]));
                    continue;
                }
                let traces: Vec<BlockTrace> = (0..blocks)
                    .map(|_| {
                        let mut reads: Vec<(Buffer, u64)> = Vec::new();
                        let mut writes: Vec<(Buffer, u64)> = Vec::new();
                        for &b in &bufs {
                            let n = b.len / 4;
                            for _ in 0..rng.gen_range_u64(0, 6) {
                                reads.push((b, rng.gen_range_u64(0, n)));
                            }
                            match rng.gen_range_u64(0, 4) {
                                0 => {}                                     // read-only for this buffer
                                1 => writes.extend((0..n).map(|i| (b, i))), // full
                                _ => {
                                    for _ in 0..rng.gen_range_u64(1, 6) {
                                        writes.push((b, rng.gen_range_u64(0, n)));
                                    }
                                }
                            }
                        }
                        trace(&reads, &writes)
                    })
                    .collect();
                nodes.push(Arc::new(traces));
            }
            assert_equivalent(&mem, &nodes);
        }
    }

    /// Adversarial WAR sweep boundaries and template keys: up to 16 blocks
    /// per node, contiguous read runs of random length whose halos overlap
    /// across blocks, whole-buffer reads beside short runs, and fragmented
    /// partial overwrites, so reader layers carry scattered dead spans. The
    /// nodes are drawn from a small pool of arcs, so each arc is revisited
    /// against many different reader stacks: a template key that misses
    /// one writer of one layer replays a stale resolution, and an
    /// off-by-one in the sweep's active-list bounds adds or drops an edge.
    #[test]
    fn adversarial_war_sweep_equivalence() {
        use gpu_sim::SplitMix64;
        for seed in 0..96u64 {
            let mut rng = SplitMix64::new(seed ^ 0x5eed_3a7c_0ff1_ce00);
            let mut mem = DeviceMemory::new();
            let bufs: Vec<Buffer> = (0..rng.gen_range_u64(1, 3))
                .map(|i| mem.alloc_f32(rng.gen_range_u64(48, 200), &format!("b{i}")))
                .collect();
            let pool: Vec<Arc<Vec<BlockTrace>>> = (0..rng.gen_range_u64(2, 6))
                .map(|_| {
                    let blocks = rng.gen_range_u64(1, 17);
                    // Per buffer: how this arc reads it (0 = not at all,
                    // 1 = halo tiles plus one whole-buffer block, else halo
                    // tiles) and writes it (0 = not at all, 1 = tiles,
                    // else a few scattered short spans per block).
                    let modes: Vec<(u64, u64)> = bufs
                        .iter()
                        .map(|_| (rng.gen_range_u64(0, 4), rng.gen_range_u64(0, 3)))
                        .collect();
                    let whole = rng.gen_range_u64(0, blocks);
                    let traces = (0..blocks)
                        .map(|blk| {
                            let mut reads: Vec<(Buffer, u64)> = Vec::new();
                            let mut writes: Vec<(Buffer, u64)> = Vec::new();
                            for (&b, &(rmode, wmode)) in bufs.iter().zip(&modes) {
                                let n = b.len / 4;
                                // This block's tile of the buffer; read
                                // halos reach into the neighbours' tiles.
                                let (lo, hi) = (blk * n / blocks, (blk + 1) * n / blocks);
                                if rmode == 1 && blk == whole {
                                    reads.extend((0..n).map(|i| (b, i)));
                                } else if rmode != 0 {
                                    let s = lo.saturating_sub(rng.gen_range_u64(0, 8));
                                    let e = (hi + rng.gen_range_u64(0, 8)).min(n);
                                    reads.extend((s..e).map(|i| (b, i)));
                                }
                                if wmode == 1 {
                                    writes.extend((lo..hi).map(|i| (b, i)));
                                } else if wmode != 0 {
                                    for _ in 0..rng.gen_range_u64(0, 3) {
                                        let s = rng.gen_range_u64(0, n);
                                        let e = (s + rng.gen_range_u64(1, 6)).min(n);
                                        writes.extend((s..e).map(|i| (b, i)));
                                    }
                                }
                            }
                            trace(&reads, &writes)
                        })
                        .collect();
                    Arc::new(traces)
                })
                .collect();
            let nodes: Vec<Arc<Vec<BlockTrace>>> = (0..rng.gen_range_u64(4, 17))
                .map(|_| Arc::clone(&pool[rng.gen_range_u64(0, pool.len() as u64) as usize]))
                .collect();
            assert_equivalent(&mem, &nodes);
        }
    }

    #[test]
    fn interval_set_insert_and_subtract() {
        let mut s = IntervalSet::default();
        s.insert(10, 20);
        s.insert(30, 40);
        s.insert(20, 30); // bridges the two into [10, 40)
        assert_eq!(s.map.len(), 1);
        assert_eq!(s.map.get(&10), Some(&40));
        let mut out = Vec::new();
        s.subtract(0, 50, &mut out);
        assert_eq!(out, vec![(0, 10), (40, 50)]);
        out.clear();
        s.subtract(15, 35, &mut out);
        assert!(out.is_empty());
        assert!(s.covers(10, 40));
        assert!(!s.covers(9, 12));
        assert!(!s.covers(39, 41));
    }

    #[test]
    fn subtract_runs_handles_spanning_coverage() {
        let mut out = Vec::new();
        // One coverage interval spans two read runs.
        subtract_runs(&[(0, 10), (20, 30)], &[(5, 25)], &mut out);
        assert_eq!(out, vec![(0, 5), (25, 30)]);
    }
}
