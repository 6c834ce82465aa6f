//! A small least-recently-used map: the workload memo and the verified
//! index of [`crate::service`] are both one of these.
//!
//! A `HashMap` plus a use tick per entry. A lookup stamps its entry with
//! the next tick; an insert into a full map evicts the entry with the
//! oldest stamp by a linear scan. The scan is O(n), but both maps insert
//! only on the slow path (after an analysis, a verification or a store),
//! so a lookup stays one hash probe.

use std::collections::HashMap;
use std::hash::Hash;

/// A map of at most `capacity` entries that evicts the least recently
/// used one to make room.
pub(crate) struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map of at most `capacity` entries; a capacity of 0 holds
    /// one, so the entry just inserted is always there to be read back.
    pub(crate) fn new(capacity: usize) -> Self {
        Lru { capacity: capacity.max(1), tick: 0, entries: HashMap::new() }
    }

    /// The value of `key`, marked as the most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let (used, value) = self.entries.get_mut(key)?;
        *used = tick;
        Some(value)
    }

    /// Inserts or replaces `key`, evicting the least recently used other
    /// entry when the map is full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let oldest = self.entries.iter().min_by_key(|(_, (used, _))| *used).map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
            }
        }
        self.tick += 1;
        self.entries.insert(key, (self.tick, value));
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        // Reading 1 makes 2 the oldest, so 3 evicts 2, not 1.
        assert_eq!(lru.get(&1), Some(&"a"));
        lru.insert(3, "c");
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&3), Some(&"c"));
    }

    #[test]
    fn a_cycle_longer_than_the_capacity_keeps_the_most_recent_keys() {
        let mut lru = Lru::new(3);
        for k in 0..10 {
            lru.insert(k, k * 10);
        }
        assert_eq!(lru.entries.len(), 3);
        for k in 7..10 {
            assert_eq!(lru.get(&k), Some(&(k * 10)));
        }
    }

    #[test]
    fn replacing_a_key_in_a_full_map_evicts_nothing() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.insert(1, "a2");
        assert_eq!(lru.get(&1), Some(&"a2"));
        assert_eq!(lru.get(&2), Some(&"b"));
    }

    #[test]
    fn remove_and_zero_capacity() {
        let mut lru = Lru::new(0);
        lru.insert(1, "a");
        assert_eq!(lru.get(&1), Some(&"a"), "capacity 0 still holds the newest entry");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.remove(&2), Some("b"));
        assert_eq!(lru.remove(&2), None);
        assert_eq!(lru.get(&2), None);
    }
}
