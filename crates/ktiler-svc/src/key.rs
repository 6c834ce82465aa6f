//! Content-addressed cache keys for schedules.
//!
//! A schedule is a pure function of the tiler's inputs: the application
//! graph, the launch geometry of its kernels, the cache configuration the
//! footprint constraint is checked against, and the calibrated performance
//! model (tables, default times, edge weights, predecessor orders). Two
//! requests with identical inputs therefore share one schedule artifact —
//! the key below hashes exactly those inputs, nothing else (no timestamps,
//! no request metadata), so it is stable across processes and machines.
//!
//! The hash is two independent FNV-1a lanes (128 bits total). FNV is not
//! cryptographic, and nothing relies on it being so: the cache is a
//! performance artifact, not a trust boundary. Each process fully verifies
//! an artifact before serving it, then serves it again only while the file
//! holds those exact bytes, compared byte for byte rather than by hash
//! (see [`crate::cache`]).

use std::fmt;
use std::str::FromStr;

use gpu_sim::CacheConfig;
use kgraph::{AppGraph, GraphTrace, NodeId, NodeOp};
use ktiler::{CacheConstraint, Calibration, KtilerConfig};

/// A 128-bit content hash identifying one schedule artifact.
///
/// Displayed (and parsed) as 32 lowercase hex digits; this is also the
/// artifact's file stem in the on-disk cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// High 64 bits (first FNV lane).
    pub hi: u64,
    /// Low 64 bits (second FNV lane).
    pub lo: u64,
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Error parsing a [`CacheKey`] from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKeyError;

impl fmt::Display for ParseKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache key must be 32 hex digits")
    }
}

impl std::error::Error for ParseKeyError {}

impl FromStr for CacheKey {
    type Err = ParseKeyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ParseKeyError);
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|_| ParseKeyError)?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|_| ParseKeyError)?;
        Ok(CacheKey { hi, lo })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis of the second lane — an arbitrary odd constant so the two
/// lanes decorrelate from the first byte on.
const LANE2_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental two-lane FNV-1a hasher with length-prefixed writes.
///
/// Every variable-length field is written with its length first, so
/// `("ab", "c")` and `("a", "bc")` hash differently; fixed-width integers
/// are written little-endian; floats are written as their IEEE bit
/// patterns (the pipeline is bit-deterministic, so this is exact).
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        KeyHasher { a: FNV_OFFSET, b: FNV_OFFSET ^ LANE2_OFFSET }
    }

    /// Feeds raw bytes (no length prefix).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte ^ 0xa5)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Feeds a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Feeds a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Feeds an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Finishes the hash.
    pub fn finish(&self) -> CacheKey {
        CacheKey { hi: self.a, lo: self.b }
    }
}

/// Computes the content-addressed key of the schedule the tiler would emit
/// for these inputs.
///
/// The key covers, in order:
///
/// 1. a format tag (bump it if the meaning of any field changes);
/// 2. the **kernel graph**: per node its label, operation kind, tileable
///    flag and transfer payload/buffer sizes; per edge its endpoints and
///    the carrying buffer's identity and length;
/// 3. the **grid geometry**: each kernel's grid and block extents, plus
///    the per-node block counts the analysis actually traced;
/// 4. the **cache configuration**: capacity, associativity, line size —
///    and the tiling parameters derived from it (constraint policy, IG
///    cost, merge threshold), since they steer Algorithms 1–2;
/// 5. the **performance-model fingerprint**: every sampled perf-table
///    point, the default times, the edge weights and the predecessor
///    orders of the calibration.
///
/// Anything *not* listed (frame contents, device memory state, wall-clock)
/// is deliberately excluded: it cannot change the emitted schedule.
pub fn schedule_cache_key(
    g: &AppGraph,
    gt: &GraphTrace,
    cache: &CacheConfig,
    cal: &Calibration,
    kcfg: &KtilerConfig,
) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_str("ktiler-svc schedule-key v1");

    // 2. Kernel graph.
    h.write_u64(g.num_nodes() as u64);
    for id in g.node_ids() {
        let node = g.node(id);
        h.write_str(&node.label);
        match &node.op {
            NodeOp::Kernel(_) => h.write_u32(0),
            NodeOp::HostToDevice { buf, data } => {
                h.write_u32(1);
                h.write_u32(buf.id.0);
                h.write_u64(buf.len);
                h.write_u64(data.len() as u64);
            }
            NodeOp::DeviceToHost { buf } => {
                h.write_u32(2);
                h.write_u32(buf.id.0);
                h.write_u64(buf.len);
            }
        }
        h.write_u32(u32::from(node.tileable()));
    }
    h.write_u64(g.num_edges() as u64);
    for eid in g.edge_ids() {
        let e = g.edge(eid);
        h.write_u32(e.src.0);
        h.write_u32(e.dst.0);
        h.write_u32(e.buf.id.0);
        h.write_u64(e.buf.len);
    }

    // 3. Grid geometry.
    for id in g.node_ids() {
        let node = g.node(id);
        match node.dims() {
            Some(d) => {
                for v in [d.grid.x, d.grid.y, d.grid.z, d.block.x, d.block.y, d.block.z] {
                    h.write_u32(v);
                }
            }
            None => h.write_u32(0),
        }
    }
    h.write_u64(gt.nodes.len() as u64);
    for nt in &gt.nodes {
        h.write_u32(nt.num_blocks());
    }

    // 4. Cache configuration and tiling parameters.
    h.write_u64(cache.capacity_bytes);
    h.write_u32(cache.ways);
    h.write_u64(cache.line_bytes);
    h.write_f64(kcfg.weight_threshold_ns);
    h.write_u64(kcfg.tile.cache_bytes);
    h.write_u64(kcfg.tile.line_bytes);
    h.write_f64(kcfg.tile.ig_cost_ns);
    match kcfg.tile.constraint {
        CacheConstraint::Footprint => h.write_u32(0),
        CacheConstraint::SimulatedHitRate { min_reuse_hit, ways } => {
            h.write_u32(1);
            h.write_f64(min_reuse_hit);
            h.write_u32(ways);
        }
    }

    // 5. Performance-model fingerprint.
    h.write_u64(cal.tables.len() as u64);
    for table in &cal.tables {
        let combos: Vec<_> = table.samples().collect();
        h.write_u64(combos.len() as u64);
        for (mask, points) in combos {
            h.write_u32(mask);
            h.write_u64(points.len() as u64);
            for &(grid, time_ns) in points {
                h.write_u32(grid);
                h.write_f64(time_ns);
            }
        }
    }
    h.write_u64(cal.default_times.len() as u64);
    for &t in &cal.default_times {
        h.write_f64(t);
    }
    h.write_u64(cal.edge_weights.len() as u64);
    for &w in &cal.edge_weights {
        h.write_f64(w);
    }
    h.write_u64(cal.preds.len() as u64);
    for preds in &cal.preds {
        h.write_u64(preds.len() as u64);
        for &NodeId(p) in preds {
            h.write_u32(p);
        }
    }

    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let k = CacheKey { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };
        let s = k.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(s.parse::<CacheKey>().unwrap(), k);
        assert!("xyz".parse::<CacheKey>().is_err());
        assert!("0123456789abcdef0123456789abcde".parse::<CacheKey>().is_err());
        assert!("g123456789abcdef0123456789abcdef".parse::<CacheKey>().is_err());
    }

    #[test]
    fn length_prefixing_separates_field_boundaries() {
        let mut h1 = KeyHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = KeyHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn lanes_are_independent() {
        let mut h = KeyHasher::new();
        h.write_str("some input");
        let k = h.finish();
        assert_ne!(k.hi, k.lo);
    }
}
