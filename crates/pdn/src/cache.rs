//! A bounded, sharded LRU for memoizing expensive derivations across
//! threads, and the [`CacheStats`] view the serve daemon reports for it.
//!
//! The one process-wide user is the threshold-solution memo in
//! `voltctl-exp` (`harness::solve_for`): parallel experiment grids and
//! daemon workers ask for the same handful of configurations, and each
//! solve is hundreds of replay simulations.
//!
//! # Why a bounded LRU and not a grow-forever map
//!
//! An unbounded `HashMap` behind one global mutex is fine for a batch CLI
//! that exits after one grid, and wrong for a long-running daemon
//! (`voltctl-serve`), where every distinct key a client ever submits
//! would stay resident for the life of the process, and every lookup
//! from every worker would contend on the same lock. [`ShardedLru`]
//! bounds residency (least-recently-used entries are evicted once a
//! shard fills) and spreads lock contention across shards keyed by hash.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One shard: a mutex-guarded MRU-ordered entry list.
type Shard<K, V> = Mutex<Vec<(K, V)>>;

/// A point-in-time view of one cache's effectiveness, for `/metrics`
/// and `/stats?verbose=1` on the serve daemon.
///
/// Counters are monotone over the process lifetime; `len` is a
/// diagnostic sum over shards, not a synchronized snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that had to derive (or found nothing, for plain `get`).
    pub misses: u64,
    /// Entries dropped because a shard exceeded its bound.
    pub evictions: u64,
    /// Resident entries right now.
    pub len: usize,
    /// Maximum resident entries (`shards * per_shard`).
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// A bounded, sharded, mutex-protected LRU map for memoizing expensive
/// derivations across threads.
///
/// Keys hash to one of `shards` independent [`Mutex`]-protected shards;
/// each shard holds at most `per_shard` entries in most-recently-used
/// order and evicts its least-recently-used entry on overflow. Shard
/// selection uses [`std::collections::hash_map::DefaultHasher`] seeded
/// identically every process, so the key→shard mapping (and therefore
/// eviction behaviour under a deterministic access sequence) is itself
/// deterministic.
///
/// [`get_or_insert_with`](ShardedLru::get_or_insert_with) computes the
/// missing value *while holding the shard lock*: concurrent first
/// requests for the same key block behind one derivation instead of
/// redundantly re-deriving (on a saturated machine redundant work costs
/// more than the wait). Requests for keys on other shards proceed
/// unblocked.
pub struct ShardedLru<K, V> {
    shards: Box<[Shard<K, V>]>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .finish()
    }
}

/// Locks a shard, tolerating poisoning: a worker that panicked inside
/// `derive` (before the entry list was touched) must not wedge later
/// lookups — or `/metrics` stats collection — forever. The entry list
/// is only mutated after `derive` returns, so a poisoned shard's data
/// is always structurally valid.
fn lock_shard<K, V>(shard: &Shard<K, V>) -> MutexGuard<'_, Vec<(K, V)>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Eq + Hash, V: Clone> ShardedLru<K, V> {
    /// A cache with `shards` independent locks, each bounded to
    /// `per_shard` entries. Total capacity is `shards * per_shard`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(shards: usize, per_shard: usize) -> Self {
        assert!(shards > 0, "ShardedLru needs at least one shard");
        assert!(per_shard > 0, "ShardedLru shards need capacity >= 1");
        let shards = (0..shards)
            .map(|_| Mutex::new(Vec::with_capacity(per_shard)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedLru {
            shards,
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.per_shard
    }

    /// Current number of resident entries (sums every shard; a
    /// diagnostic, not a synchronized snapshot). Poison-tolerant: a
    /// panicked worker never wedges stats collection.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// Hit/miss/eviction counters plus current residency and capacity.
    /// Poison-tolerant for the same reason as [`len`](ShardedLru::len).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity(),
        }
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, key: &K) -> &Mutex<Vec<(K, V)>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key`, promoting a hit to most-recently-used. Returns a
    /// clone of the cached value.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut entries = lock_shard(self.shard_for(key));
        let Some(idx) = entries.iter().position(|(k, _)| k == key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        let entry = entries.remove(idx);
        let value = entry.1.clone();
        entries.insert(0, entry);
        Some(value)
    }

    /// Returns the cached value for `key`, deriving it with `derive`
    /// (under the shard lock) on a miss. The entry becomes
    /// most-recently-used; if the shard exceeds its bound, its
    /// least-recently-used entry is evicted.
    pub fn get_or_insert_with(&self, key: &K, derive: impl FnOnce() -> V) -> V
    where
        K: Clone,
    {
        let mut entries = lock_shard(self.shard_for(key));
        if let Some(idx) = entries.iter().position(|(k, _)| k == key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let entry = entries.remove(idx);
            let value = entry.1.clone();
            entries.insert(0, entry);
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = derive();
        entries.insert(0, (key.clone(), value.clone()));
        if entries.len() > self.per_shard {
            let evicted = entries.len() - self.per_shard;
            entries.truncate(self.per_shard);
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        value
    }

    /// Drops every entry in every shard.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            lock_shard(shard).clear();
        }
    }
}

/// Always [`CacheStats::default()`]: no PDN kernel cache exists. Every
/// simulation path steps the state-space [`crate::PdnState`], so no
/// convolution kernel is ever derived outside the reference oracles. The
/// function remains only for the `pdn.kernel_cache_*` trace rows of the
/// repository benchmark, and goes when a benchmark change drops them.
pub fn kernel_cache_stats() -> CacheStats {
    CacheStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cache_stats_is_the_zero_stub() {
        assert_eq!(kernel_cache_stats(), CacheStats::default());
    }

    #[test]
    fn lru_evicts_only_beyond_bound() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(1, 3);
        for k in 0..3 {
            lru.get_or_insert_with(&k, || k * 10);
        }
        assert_eq!(lru.len(), 3);
        // Touch 0 so it becomes MRU; inserting a 4th evicts the LRU (1).
        assert_eq!(lru.get(&0), Some(0));
        lru.get_or_insert_with(&3, || 30);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&1), None, "LRU entry must be the one evicted");
        assert_eq!(lru.get(&0), Some(0));
        assert_eq!(lru.get(&2), Some(20));
        assert_eq!(lru.get(&3), Some(30));
    }

    #[test]
    fn lru_len_never_exceeds_capacity() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(4, 2);
        assert_eq!(lru.capacity(), 8);
        for k in 0..100 {
            lru.get_or_insert_with(&k, || k);
            assert!(lru.len() <= lru.capacity());
        }
        lru.clear();
        assert!(lru.is_empty());
    }

    #[test]
    fn stats_track_hits_misses_and_evictions() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(1, 2);
        assert_eq!(
            lru.stats(),
            CacheStats {
                capacity: 2,
                ..CacheStats::default()
            }
        );
        assert!(lru.stats().hit_rate().is_none());
        lru.get_or_insert_with(&1, || 10); // miss
        lru.get_or_insert_with(&1, || 10); // hit
        lru.get_or_insert_with(&2, || 20); // miss
        lru.get_or_insert_with(&3, || 30); // miss, evicts 1
        assert_eq!(lru.get(&1), None); // miss (evicted)
        assert_eq!(lru.get(&3), Some(30)); // hit
        let stats = lru.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.hit_rate(), Some(2.0 / 6.0));
    }

    #[test]
    fn poisoned_shard_does_not_wedge_stats_or_lookups() {
        let lru: std::sync::Arc<ShardedLru<u64, u64>> = std::sync::Arc::new(ShardedLru::new(1, 4));
        lru.get_or_insert_with(&1, || 10);
        // Panic inside `derive` while holding the only shard's lock.
        let poisoner = std::sync::Arc::clone(&lru);
        let result = std::thread::spawn(move || {
            poisoner.get_or_insert_with(&2, || panic!("worker died mid-derive"));
        })
        .join();
        assert!(result.is_err(), "the derive panic must propagate");
        // The cache keeps serving: stats, len, lookups, inserts.
        assert_eq!(lru.stats().len, 1);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get_or_insert_with(&2, || 20), 20);
    }

    #[test]
    fn lru_rederives_after_eviction_with_same_value() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(1, 1);
        assert_eq!(lru.get_or_insert_with(&1, || 11), 11);
        assert_eq!(lru.get_or_insert_with(&2, || 22), 22);
        // 1 was evicted; the derive closure runs again.
        let mut derived = false;
        assert_eq!(
            lru.get_or_insert_with(&1, || {
                derived = true;
                11
            }),
            11
        );
        assert!(derived);
    }
}
