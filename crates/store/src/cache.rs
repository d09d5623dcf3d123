//! A small block/readahead cache for archive reads.
//!
//! Indexed readers ([`crate::index::LogReader`]) fetch segment data in
//! *blocks* — the byte span between two consecutive entries of the
//! reader's in-memory sparse index, i.e. one stride's worth of records. Reading a whole block on a point
//! lookup is the readahead: a later read of a neighbouring record in the
//! same block is served from memory, and a range scan hops block to block
//! touching each one once. Blocks are refcounted [`Bytes`], so returning
//! a record is a cheap slice of the cached buffer, never a copy.
//!
//! The cache is a strict byte-bounded LRU keyed by `(segment seqno,
//! block index)`. It is a pure read-side cache: nothing here is ever a
//! durability dependency, and dropping it costs only re-reads.

use std::collections::HashMap;
use std::collections::VecDeque;

use bytes::Bytes;

/// Default capacity: enough for archive scans to keep a working set of
/// hot blocks without holding a large log resident.
pub const DEFAULT_CACHE_BYTES: usize = 32 << 20;

/// Cache hit/miss counters, for benches and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Blocks evicted to stay under the byte cap.
    pub evictions: u64,
}

/// Byte-bounded LRU over `(segment seqno, block index)` → block bytes.
#[derive(Debug)]
pub struct BlockCache {
    cap_bytes: usize,
    held_bytes: usize,
    map: HashMap<(u64, u32), Bytes>,
    /// LRU order, least recent at the front. Touches scan the deque —
    /// fine at the tens-to-hundreds of resident blocks this cap implies.
    order: VecDeque<(u64, u32)>,
    stats: CacheStats,
}

impl BlockCache {
    pub fn new(cap_bytes: usize) -> Self {
        Self {
            cap_bytes: cap_bytes.max(1),
            held_bytes: 0,
            map: HashMap::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up a block, refreshing its LRU position on a hit.
    pub fn get(&mut self, seqno: u64, block: u32) -> Option<Bytes> {
        let key = (seqno, block);
        match self.map.get(&key) {
            Some(b) => {
                let b = b.clone();
                if let Some(pos) = self.order.iter().position(|k| *k == key) {
                    self.order.remove(pos);
                }
                self.order.push_back(key);
                self.stats.hits += 1;
                Some(b)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a block, evicting least-recently-used blocks until the byte
    /// cap holds. A block larger than the whole cap is passed through
    /// uncached (the caller keeps its handle; caching it would just evict
    /// everything else for nothing).
    pub fn insert(&mut self, seqno: u64, block: u32, data: Bytes) {
        if data.len() > self.cap_bytes {
            return;
        }
        let key = (seqno, block);
        if let Some(old) = self.map.remove(&key) {
            self.held_bytes -= old.len();
            if let Some(pos) = self.order.iter().position(|k| *k == key) {
                self.order.remove(pos);
            }
        }
        while self.held_bytes + data.len() > self.cap_bytes {
            let Some(victim) = self.order.pop_front() else { break };
            if let Some(gone) = self.map.remove(&victim) {
                self.held_bytes -= gone.len();
                self.stats.evictions += 1;
            }
        }
        self.held_bytes += data.len();
        self.map.insert(key, data);
        self.order.push_back(key);
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_slices() {
        let mut c = BlockCache::new(1 << 20);
        assert!(c.get(0, 0).is_none());
        c.insert(0, 0, Bytes::from_static(b"block-zero"));
        assert_eq!(c.get(0, 0).unwrap().as_ref(), b"block-zero");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn byte_cap_evicts_least_recent() {
        let mut c = BlockCache::new(256);
        c.insert(0, 0, Bytes::from(vec![0u8; 100]));
        c.insert(0, 1, Bytes::from(vec![1u8; 100]));
        // touch block 0 so block 1 is the LRU victim
        assert!(c.get(0, 0).is_some());
        c.insert(0, 2, Bytes::from(vec![2u8; 100]));
        assert!(c.get(0, 1).is_none(), "LRU block evicted");
        assert!(c.get(0, 0).is_some(), "recently-touched block kept");
        assert!(c.held_bytes() <= 256);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_block_passes_through() {
        let mut c = BlockCache::new(64);
        c.insert(7, 0, Bytes::from(vec![0u8; 128]));
        assert!(c.get(7, 0).is_none());
        assert_eq!(c.held_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut c = BlockCache::new(1024);
        c.insert(1, 0, Bytes::from(vec![0u8; 100]));
        c.insert(1, 0, Bytes::from(vec![1u8; 200]));
        assert_eq!(c.held_bytes(), 200);
        assert_eq!(c.get(1, 0).unwrap().len(), 200);
    }
}
