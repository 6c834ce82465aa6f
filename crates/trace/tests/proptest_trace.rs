//! Randomized tests of trace recording, coalescing, footprints and
//! dependency construction (seeded [`SplitMix64`] cases; failures report
//! the seed for exact replay).

use gpu_sim::{DeviceMemory, SplitMix64};
use std::collections::{HashMap, HashSet};
use trace::{AccessKind, BlockRef, DepGraphBuilder, ExecCtx, FootprintSet, TraceRecorder};

/// Coalescing never produces more transactions than raw accesses and
/// covers exactly the touched lines.
#[test]
fn coalescing_bounds() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let threads = rng.gen_range_u32(1, 64);
        let len = rng.gen_range_usize(1, 200);
        let idxs = rng.vec_u64(len, 0, 4096);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(4096, "b");
        let mut rec = TraceRecorder::new(128);
        rec.begin_block(threads);
        let mut ctx = ExecCtx::new(&mut mem, &mut rec);
        for (i, &idx) in idxs.iter().enumerate() {
            let tid = (i as u32) % threads;
            let _ = ctx.ld_f32(buf, idx, tid);
        }
        let t = rec.finish_block();
        let total_txns: usize = t.work.warps.iter().map(|w| w.txns.len()).sum();
        assert!(total_txns <= idxs.len(), "seed {seed}");
        // Lines recorded == distinct lines actually touched.
        let mut want: Vec<u64> = idxs.iter().map(|&i| buf.f32_addr(i) / 128).collect();
        want.sort_unstable();
        want.dedup();
        let got: Vec<u64> = t.lines.to_vec();
        assert_eq!(got, want, "seed {seed}");
        // Read words == distinct touched words.
        let mut words: Vec<u64> = idxs.iter().map(|&i| buf.f32_addr(i) >> 2).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(&t.read_words, &words, "seed {seed}");
        assert!(t.write_words.is_empty(), "seed {seed}");
    }
}

/// FootprintSet equals a `HashSet` reference model under arbitrary
/// add / checkpoint / rollback / clear sequences (the satellite
/// equivalence suite for the dense-bitmap re-implementation).
#[test]
fn footprint_matches_reference() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let mut fp = FootprintSet::new(64);
        let mut reference: HashSet<u64> = HashSet::new();
        let mut checkpoints: Vec<(usize, HashSet<u64>)> = Vec::new();
        let ops = rng.gen_range_usize(1, 40);
        for _ in 0..ops {
            match rng.gen_range_u32(0, 8) {
                // add a batch of lines (biased: most frequent op)
                0..=4 => {
                    let len = rng.gen_range_usize(1, 20);
                    // Mix contiguous runs and scattered singles, mirroring
                    // image-kernel and strided access patterns.
                    let batch: Vec<u64> = if rng.gen_bool() {
                        let start = rng.gen_range_u64(0, 500);
                        (start..start + len as u64).collect()
                    } else {
                        rng.vec_u64(len, 0, 500)
                    };
                    fp.add_lines(batch.iter().copied());
                    reference.extend(batch);
                }
                // take a checkpoint
                5 => checkpoints.push((fp.checkpoint(), reference.clone())),
                // roll back to the most recent checkpoint
                6 => {
                    if let Some((cp, snap)) = checkpoints.pop() {
                        fp.rollback(cp);
                        reference = snap;
                    }
                }
                // clear everything
                _ => {
                    fp.clear();
                    reference.clear();
                    checkpoints.clear();
                }
            }
            assert_eq!(fp.num_lines(), reference.len() as u64, "seed {seed}");
            assert_eq!(fp.bytes(), reference.len() as u64 * 64, "seed {seed}");
        }
    }
}

/// Dependency construction: a consumer depends exactly on the set of
/// distinct producers of the words it reads.
#[test]
fn deps_match_last_writer_semantics() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let writes: Vec<(u32, u64)> = (0..rng.gen_range_usize(1, 40))
            .map(|_| (rng.gen_range_u32(0, 4), rng.gen_range_u64(0, 64)))
            .collect();
        let nreads = rng.gen_range_usize(1, 20);
        let reads = rng.vec_u64(nreads, 0, 64);

        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(64, "b");
        let mut rec = TraceRecorder::new(128);
        let mut builder = DepGraphBuilder::new();
        let mut last: HashMap<u64, u32> = HashMap::new();

        // Producer nodes 0..4 write words in sequence.
        for (i, &(node, word)) in writes.iter().enumerate() {
            rec.begin_block(1);
            rec.record(0, buf.f32_addr(word), 4, AccessKind::Store);
            let t = rec.finish_block();
            builder.visit_block(BlockRef::new(node, i as u32), &t);
            last.insert(word, node);
        }
        // Consumer node 9 reads.
        rec.begin_block(1);
        for &word in &reads {
            rec.record(0, buf.f32_addr(word), 4, AccessKind::Load);
        }
        let t = rec.finish_block();
        builder.visit_block(BlockRef::new(9, 0), &t);
        let g = builder.finish();

        let mut want: Vec<u32> = reads.iter().filter_map(|w| last.get(w).copied()).collect();
        want.sort_unstable();
        want.dedup();
        let mut got_nodes: Vec<u32> =
            g.deps_of(BlockRef::new(9, 0)).iter().map(|d| d.node).collect();
        got_nodes.sort_unstable();
        got_nodes.dedup();
        assert_eq!(got_nodes, want, "seed {seed}");
    }
}

/// The access pattern of one block in
/// `csr_matches_naive_adjacency_on_random_trace`.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// 1–7 random reads and writes anywhere in the buffer.
    Scattered,
    /// Most reads hit four hot words that are rarely rewritten, so their
    /// reader lists grow long (many nodes and blocks) before a write.
    HotWords,
    /// The block rewrites some of the words it reads (in-place update).
    ReadWrite,
    /// One contiguous run of up to 48 reads and one of up to 48 writes:
    /// long stretches of consecutive words with a single producer.
    Runs,
}

/// Draws `(reads, writes)` word indexes below `words` for one block.
fn block_accesses(rng: &mut SplitMix64, pattern: Pattern, words: u64) -> (Vec<u64>, Vec<u64>) {
    let run = |rng: &mut SplitMix64| {
        let len = rng.gen_range_u64(1, 49);
        let start = rng.gen_range_u64(0, words - len + 1);
        (start..start + len).collect::<Vec<u64>>()
    };
    match pattern {
        Pattern::Scattered => {
            let nr = rng.gen_range_usize(1, 8);
            let reads = rng.vec_u64(nr, 0, words);
            let nw = rng.gen_range_usize(1, 8);
            (reads, rng.vec_u64(nw, 0, words))
        }
        Pattern::HotWords => {
            let nr = rng.gen_range_usize(1, 8);
            let mut reads = rng.vec_u64(nr, 0, 4);
            reads.push(rng.gen_range_u64(4, words));
            let nw = rng.gen_range_usize(1, 4);
            let mut writes = rng.vec_u64(nw, 4, words);
            if rng.gen_range_u32(0, 6) == 0 {
                writes.push(rng.gen_range_u64(0, 4));
            }
            (reads, writes)
        }
        Pattern::ReadWrite => {
            let nr = rng.gen_range_usize(1, 8);
            let reads = rng.vec_u64(nr, 0, words);
            let mut writes: Vec<u64> = reads.iter().copied().filter(|_| rng.gen_bool()).collect();
            writes.push(reads[0]);
            (reads, writes)
        }
        Pattern::Runs => (run(rng), run(rng)),
    }
}

/// Regression: CSR `deps_of`/`consumers_of` match a naive adjacency model
/// on randomized multi-node, multi-block traces covering all three hazard
/// classes. Seeds 0..24 scatter a few words per block over at most 5
/// nodes; the later seeds add the word-level builder's edge cases, one
/// [`Pattern`] per seed, over up to 12 nodes.
#[test]
fn csr_matches_naive_adjacency_on_random_trace() {
    const PATTERNS: [Pattern; 4] =
        [Pattern::Scattered, Pattern::HotWords, Pattern::ReadWrite, Pattern::Runs];
    for seed in 0..120u64 {
        let mut rng = SplitMix64::new(seed);
        let (pattern, max_nodes) =
            if seed < 24 { (Pattern::Scattered, 6) } else { (PATTERNS[seed as usize % 4], 13) };
        let num_nodes = rng.gen_range_u32(2, max_nodes);
        let blocks_per_node = rng.gen_range_u32(1, 5);
        let words = 96u64;

        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(words, "b");
        let mut rec = TraceRecorder::new(128);
        let mut builder = DepGraphBuilder::new();

        // Naive reference: last writer and readers-since-last-write per
        // word, adjacency as hash maps. Covers all three hazard classes
        // (RAW, WAW, WAR), like the builder.
        let mut last_writer: HashMap<u64, BlockRef> = HashMap::new();
        let mut readers: HashMap<u64, Vec<BlockRef>> = HashMap::new();
        let mut ref_deps: HashMap<BlockRef, Vec<BlockRef>> = HashMap::new();
        let mut ref_rdeps: HashMap<BlockRef, Vec<BlockRef>> = HashMap::new();
        let mut all_refs: Vec<BlockRef> = Vec::new();

        for node in 0..num_nodes {
            for block in 0..blocks_per_node {
                let r = BlockRef::new(node, block);
                all_refs.push(r);
                let (reads, wr) = block_accesses(&mut rng, pattern, words);

                rec.begin_block(1);
                for &w in &reads {
                    rec.record(0, buf.f32_addr(w), 4, AccessKind::Load);
                }
                for &w in &wr {
                    rec.record(0, buf.f32_addr(w), 4, AccessKind::Store);
                }
                let t = rec.finish_block();
                builder.visit_block(r, &t);

                // Reference semantics: reads resolve before own writes
                // land; each write picks up WAW (previous last writer) and
                // WAR (readers since that word's last write) hazards, then
                // clears the word's reader list.
                let mut producers: Vec<BlockRef> = reads
                    .iter()
                    .filter_map(|w| last_writer.get(w).copied())
                    .filter(|p| p.node != r.node)
                    .collect();
                for &w in &reads {
                    readers.entry(w).or_default().push(r);
                }
                for &w in &wr {
                    if let Some(&p) = last_writer.get(&w) {
                        if p.node != r.node {
                            producers.push(p);
                        }
                    }
                    if let Some(rs) = readers.get_mut(&w) {
                        producers.extend(rs.iter().copied().filter(|rd| rd.node != r.node));
                        rs.clear();
                    }
                    last_writer.insert(w, r);
                }
                producers.sort_unstable();
                producers.dedup();
                for &p in &producers {
                    ref_rdeps.entry(p).or_default().push(r);
                }
                if !producers.is_empty() {
                    ref_deps.insert(r, producers);
                }
            }
        }
        let g = builder.finish();
        let mut num_edges = 0;
        for &r in &all_refs {
            let want = ref_deps.get(&r).cloned().unwrap_or_default();
            assert_eq!(g.deps_of(r), &want[..], "seed {seed} ({pattern:?}): deps_of {r:?}");
            let mut want_r = ref_rdeps.get(&r).cloned().unwrap_or_default();
            want_r.sort_unstable();
            want_r.dedup();
            assert_eq!(g.consumers_of(r), &want_r[..], "seed {seed}: consumers_of {r:?}");
            num_edges += want.len();
        }
        assert_eq!(g.num_edges(), num_edges, "seed {seed}");
        // blocks_of_node observed every visited block.
        for node in 0..num_nodes {
            assert_eq!(g.blocks_of_node(node), blocks_per_node, "seed {seed}");
        }
    }
}

/// Disabled recorders are true no-ops regardless of the call pattern.
#[test]
fn disabled_recorder_is_a_noop() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.gen_range_usize(1, 50);
        let idxs = rng.vec_u64(len, 0, 128);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(128, "b");
        let mut rec = TraceRecorder::new(128);
        rec.set_enabled(false);
        rec.begin_block(32);
        let mut ctx = ExecCtx::new(&mut mem, &mut rec);
        for &i in &idxs {
            ctx.st_f32(buf, i, 1.0, (i % 32) as u32);
        }
        let t = rec.finish_block();
        assert!(t.write_words.is_empty(), "seed {seed}");
        assert!(t.work.warps.is_empty(), "seed {seed}");
        // But the functional effect happened.
        for &i in &idxs {
            assert_eq!(mem.read_f32(buf, i), 1.0, "seed {seed}");
        }
    }
}
