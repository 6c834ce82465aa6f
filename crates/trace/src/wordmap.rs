//! Flat open-addressing table giving every 4-byte word address a dense slot.
//!
//! The word-level dependency builder keeps its per-word state (last writer,
//! readers since that write) in flat arrays indexed by a dense *slot*, and
//! looks the slot up once per read or written word of every block. That
//! probe is the builder's hottest operation, and the `std` `HashMap` pays a
//! SipHash invocation plus bucket indirection per probe. [`WordMap`] stores
//! the table as two flat arrays (keys and `u32` slots) with multiplicative
//! hashing and linear probing:
//!
//! * one multiply + shift to hash, then a contiguous probe sequence — no
//!   per-probe pointer chasing and no hashing state;
//! * slots are handed out in first-seen order (`0, 1, 2, …`) and never
//!   removed, so the table needs no tombstones and probe chains never
//!   degrade over repeated [`slot`](WordMap::slot) calls;
//! * growth doubles the capacity and rehashes in place of the old table.
//!
//! Word addresses are byte addresses shifted right by two, so `u64::MAX`
//! can never be a key and serves as the empty-slot sentinel.

/// Empty-slot sentinel. Word addresses are `byte_addr >> 2 < 2^62`, so the
/// sentinel can never collide with a real key.
const EMPTY: u64 = u64::MAX;

/// Initial capacity (table entries) of a non-empty table. Power of two.
const MIN_CAPACITY: usize = 64;

/// Multiplicative hash of a word address (SplitMix64 finalizer — the same
/// mix the in-repo PRNG uses, known to scramble low-entropy keys well).
#[inline]
fn hash(word: u64) -> u64 {
    let mut z = word.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A word-address → dense-slot map as a flat open-addressing table.
///
/// # Examples
///
/// ```
/// use trace::WordMap;
/// let mut m = WordMap::new();
/// assert_eq!(m.slot(100), 0);
/// assert_eq!(m.slot(7), 1);
/// assert_eq!(m.slot(100), 0); // a word keeps its slot
/// assert_eq!(m.get(7), Some(1));
/// assert_eq!(m.get(101), None);
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WordMap {
    /// Table keys; `EMPTY` marks a free entry. Length is a power of two.
    keys: Vec<u64>,
    /// Dense slots, parallel to `keys`.
    slots: Vec<u32>,
    /// Number of words seen, which is also the next slot to hand out.
    len: usize,
}

impl WordMap {
    /// Creates an empty map (no allocation until the first word).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct words in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Table index of `word`: its current entry, or the free entry where it
    /// would be inserted.
    #[inline]
    fn probe(&self, word: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (hash(word) as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == word || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `word`, if it has one.
    #[inline]
    pub fn get(&self, word: u64) -> Option<u32> {
        if self.keys.is_empty() {
            return None;
        }
        let i = self.probe(word);
        (self.keys[i] == word).then(|| self.slots[i])
    }

    /// The slot of `word`, handing out the next one (`len()` before the
    /// call) if the word is new.
    ///
    /// # Panics
    ///
    /// Panics if the map would exceed `u32::MAX` words.
    #[inline]
    pub fn slot(&mut self, word: u64) -> u32 {
        debug_assert_ne!(word, EMPTY, "word addresses never reach the sentinel");
        // Grow at 3/4 load so probe chains stay short.
        if self.keys.is_empty() || (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let i = self.probe(word);
        if self.keys[i] == EMPTY {
            self.keys[i] = word;
            self.slots[i] = u32::try_from(self.len).expect("fewer than 2^32 distinct words");
            self.len += 1;
        }
        self.slots[i]
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(MIN_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        for (k, s) in old_keys.into_iter().zip(old_slots) {
            if k != EMPTY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.slots[i] = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn empty_map_has_no_entries() {
        let m = WordMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(u64::MAX - 1), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = WordMap::new();
        for w in 0..10_000u64 {
            assert_eq!(m.slot(w * 3), w as u32);
        }
        assert_eq!(m.len(), 10_000);
        for w in 0..10_000u64 {
            assert_eq!(m.get(w * 3), Some(w as u32));
        }
        assert_eq!(m.get(1), None);
    }

    /// Matches a `std` `HashMap` reference under random interleavings of
    /// slot requests (new and repeated words) and probes — including keys
    /// engineered to collide after masking.
    #[test]
    fn matches_hashmap_reference() {
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let mut m = WordMap::new();
            let mut reference: HashMap<u64, u32> = HashMap::new();
            for _ in 0..2_000usize {
                // Cluster keys into a few strides so entries collide often.
                let word = rng.gen_range_u64(0, 64) * 1024 + rng.gen_range_u64(0, 8);
                if rng.gen_bool() {
                    let next = reference.len() as u32;
                    let want = *reference.entry(word).or_insert(next);
                    assert_eq!(m.slot(word), want, "seed {seed}");
                } else {
                    assert_eq!(m.get(word), reference.get(&word).copied(), "seed {seed}");
                }
                assert_eq!(m.len(), reference.len(), "seed {seed}");
            }
        }
    }

    /// Tombstone-free reuse: probe chains stay intact across arbitrarily
    /// many lookup rounds over the same words (the dependency builder's
    /// access pattern — successive nodes touch the same buffers).
    #[test]
    fn repeated_rounds_do_not_degrade() {
        let mut m = WordMap::new();
        for round in 0..50u32 {
            for w in 0..500u64 {
                assert_eq!(m.slot(w), w as u32, "round {round}");
            }
            assert_eq!(m.len(), 500, "round {round}");
        }
        // 500 live keys at <= 3/4 load never grow past 1024 entries: the
        // table did not accumulate dead entries across 50 rounds.
        assert!(m.keys.len() <= 1024, "capacity {} grew from repeats", m.keys.len());
    }
}
