//! A bounded LRU map behind the compile cache and the execution memo.
//!
//! The canonical-genome compile cache used to be a plain `HashMap` holding a
//! full [`citroen_ir::module::Module`] clone per entry and growing without
//! bound — harmless for a 30-measurement test run, a leak for long-budget
//! runs and the multi-tenant daemon. A full cache evicts its least recently
//! used entry, so an old entry that keeps getting hit (a DES incumbent's
//! canonical genome, a popular module in `citroen-serve`) survives. Which
//! entry goes only moves counters: compilation is pure, so a miss recompiles
//! exactly what was evicted.
//!
//! Every entry carries the tick at which it was last inserted or read, and
//! eviction removes the entry with the smallest tick. Ticks are unique, so
//! the victim is deterministic. Lookups are O(1); the eviction scan is O(n)
//! but only runs when the cache is full, and hits never pay it.

use std::collections::HashMap;
use std::hash::Hash;

/// A `HashMap` with a capacity cap, LRU eviction, and hit/miss/eviction
/// counters.
pub struct BoundedCache<K, V> {
    map: HashMap<K, (V, u64)>,
    cap: usize,
    /// Monotonic touch clock; every insert and every hit stamps the entry
    /// with the next tick.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> BoundedCache<K, V> {
    /// An empty cache holding at most `cap` entries (`0` = unbounded).
    pub fn new(cap: usize) -> BoundedCache<K, V> {
        BoundedCache { map: HashMap::new(), cap, tick: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Look up `key`, counting the hit or miss. A hit refreshes the entry's
    /// recency (which is why lookups take `&mut self`).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get_mut(key) {
            Some((v, tick)) => {
                self.hits += 1;
                self.tick += 1;
                *tick = self.tick;
                Some(&*v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up `key` without counting a hit/miss or refreshing recency —
    /// for bookkeeping probes ("is this already cached?") that are not
    /// semantically cache *uses*.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Insert `key → value`; returns `true` when this insert evicted an
    /// entry to stay within the cap. Re-inserting an existing key replaces
    /// the value without touching its eviction position.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(slot) = self.map.get_mut(&key) {
            slot.0 = value;
            return false;
        }
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        if self.cap > 0 && self.map.len() > self.cap {
            // Victim: smallest touch tick, the least recently used entry.
            // Ticks are unique, so this is deterministic regardless of map
            // iteration order.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone())
                .expect("cache over cap cannot be empty");
            self.map.remove(&victim);
            self.evictions += 1;
            return true;
        }
        false
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Lookups answered from the cache over its lifetime.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing over the cache's lifetime.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total entries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_and_evicts_in_insertion_order() {
        let mut c: BoundedCache<u32, &str> = BoundedCache::new(2);
        assert!(!c.insert(1, "a"));
        assert!(!c.insert(2, "b"));
        assert!(c.insert(3, "c"), "third insert must evict");
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&1), None, "oldest unread entry evicted first");
        assert_eq!(c.peek(&2), Some(&"b"));
        assert_eq!(c.peek(&3), Some(&"c"));
        assert_eq!(c.evictions(), 1);
        assert!(c.insert(4, "d"));
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn lru_reads_refresh_recency() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 1 is now the most recently used
        assert!(c.insert(3, 30));
        assert_eq!(c.peek(&1), Some(&10), "recently-read entry survives under LRU");
        assert_eq!(c.peek(&2), None, "least recently used entry evicted");
        assert_eq!(c.peek(&3), Some(&30));
    }

    #[test]
    fn counters_track_hits_misses_evictions() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&2), None);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!((c.hits(), c.misses(), c.evictions()), (1, 2, 1));
        // peek is invisible to the counters.
        let _ = c.peek(&3);
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn reinsert_replaces_without_evicting() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(!c.insert(1, 11), "replacing an existing key never evicts");
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        // The replaced key kept its original eviction position.
        assert!(c.insert(3, 30));
        assert_eq!(c.peek(&1), None, "re-inserted key still evicts at its original position");
    }

    #[test]
    fn zero_cap_is_unbounded() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(0);
        for i in 0..1000 {
            assert!(!c.insert(i, i));
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.evictions(), 0);
    }
}
