//! Block-granularity prefix-warmth tracking for analytical replicas.
//!
//! An analytical replica does not maintain a real paged KV cache, but the
//! fleet still needs its prefix-warmth behavior: routers probe overlap,
//! prefills get a discount for resident prefixes, and the KV transfer plane
//! imports prefixes into it. [`PrefixStore`] mirrors the real
//! [`kv_cache::CacheManager`] at exactly the granularity that matters for
//! those questions — the [`kv_cache::chain_hashes`] of a token sequence,
//! the same values the real cache keys its blocks by — without holding
//! block tables or token payloads.
//!
//! Residency is bounded (`capacity` blocks) with deterministic
//! least-recently-used eviction, so a store never grows past a few
//! megabytes even under millions of requests. Every operation costs O(1)
//! per block touched: a hash index finds a block, and an intrusive
//! doubly-linked recency list orders them. Behavior is a pure function of
//! the call sequence.

use kv_cache::{chain_hashes, IngestReport, Token};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// End-of-list marker in the recency links.
const NIL: u32 = u32::MAX;

/// A chain hash held as two 32-bit halves: 4-byte alignment packs an
/// index bucket (key and slot) into 12 bytes instead of 16, and a fleet
/// day keeps about a million of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainKey([u32; 2]);

impl ChainKey {
    fn new(hash: u64) -> Self {
        let [a, b, c, d, e, f, g, h] = hash.to_le_bytes();
        ChainKey([
            u32::from_le_bytes([a, b, c, d]),
            u32::from_le_bytes([e, f, g, h]),
        ])
    }
}

impl Hash for ChainKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.0[0]) | u64::from(self.0[1]) << 32);
    }
}

/// One resident block in the recency list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: ChainKey,
    /// Next less recently used entry (`NIL` at the oldest).
    older: u32,
    /// Next more recently used entry (`NIL` at the newest).
    newer: u32,
}

/// Hasher for chain hashes, which are already uniform SipHash outputs: the
/// key is its own hash.
#[derive(Debug, Default, Clone, Copy)]
struct ChainHashHasher(u64);

impl Hasher for ChainHashHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Bounded, deterministic store of resident KV block-chain hashes.
#[derive(Debug, Clone)]
pub struct PrefixStore {
    /// Chain hash → its entry's index in `entries`. Only looked up, never
    /// iterated, so the map's order cannot reach behavior.
    index: HashMap<ChainKey, u32, BuildHasherDefault<ChainHashHasher>>,
    /// Resident blocks. Grows on demand up to `capacity`; once full, an
    /// eviction hands the victim's slot to the newcomer.
    entries: Vec<Entry>,
    /// Least recently used entry, the next eviction victim.
    oldest: u32,
    /// Most recently used entry.
    newest: u32,
    capacity: usize,
    block_size: usize,
    hit_tokens: u64,
    miss_tokens: u64,
}

impl PrefixStore {
    /// A store tracking at most `capacity` blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or `capacity` does not fit a `u32`.
    pub fn new(capacity: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let capacity = capacity.max(1);
        assert!(capacity < NIL as usize, "prefix store capacity too large");
        PrefixStore {
            index: HashMap::default(),
            entries: Vec::new(),
            oldest: NIL,
            newest: NIL,
            capacity,
            block_size,
            hit_tokens: 0,
            miss_tokens: 0,
        }
    }

    /// The block size in tokens.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks currently tracked as resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Token-level `(hit, miss)` counters, mirroring
    /// [`kv_cache::CacheStats`] semantics (decode appends count as misses).
    pub fn hit_miss_tokens(&self) -> (u64, u64) {
        (self.hit_tokens, self.miss_tokens)
    }

    /// Leading tokens of a sequence that are resident, at block
    /// granularity, given the sequence's [`kv_cache::chain_hashes`] at this
    /// store's block size. Read-only: does not touch recency (the probe
    /// contract of [`kv_cache::CacheManager::chain_overlap_tokens`]).
    pub fn chain_overlap_tokens(&self, chain: &[u64]) -> usize {
        chain
            .iter()
            .take_while(|&&h| self.index.contains_key(&ChainKey::new(h)))
            .count()
            * self.block_size
    }

    /// Detaches entry `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Entry { older, newer, .. } = self.entries[i as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.entries[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.entries[n as usize].older = older,
        }
    }

    /// Appends detached entry `i` as the most recently used.
    fn push_newest(&mut self, i: u32) {
        self.entries[i as usize].older = self.newest;
        self.entries[i as usize].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.entries[n as usize].newer = i,
        }
        self.newest = i;
    }

    /// Marks one chain hash resident (or refreshes its recency), evicting
    /// the least recently used block when full. Returns whether it was
    /// already resident.
    fn touch(&mut self, hash: u64) -> bool {
        let key = ChainKey::new(hash);
        if let Some(&i) = self.index.get(&key) {
            self.unlink(i);
            self.push_newest(i);
            return true;
        }
        let i = if self.entries.len() < self.capacity {
            self.entries.push(Entry {
                key,
                older: NIL,
                newer: NIL,
            });
            sim_core::cast::usize_to_u32(self.entries.len() - 1)
        } else {
            let victim = self.oldest;
            self.unlink(victim);
            let evicted = std::mem::replace(&mut self.entries[victim as usize].key, key);
            self.index.remove(&evicted);
            victim
        };
        self.index.insert(key, i);
        self.push_newest(i);
        false
    }

    /// Records a prefill of `tokens`: every leading full block becomes
    /// resident, and the call returns how many leading tokens were already
    /// resident (the prefill compute discount). Counts hit/miss tokens like
    /// a real cache insert (the partial tail block is always a miss).
    pub fn insert_sequence(&mut self, tokens: &[Token]) -> usize {
        let mut covered = 0usize;
        let mut prefix_intact = true;
        for hash in chain_hashes(tokens, self.block_size) {
            let was_resident = self.touch(hash);
            if was_resident && prefix_intact {
                covered += self.block_size;
            } else {
                prefix_intact = false;
            }
        }
        self.hit_tokens += covered as u64;
        self.miss_tokens += (tokens.len() - covered) as u64;
        covered
    }

    /// Counts `n` decode-appended tokens (always misses, as in
    /// [`kv_cache::CacheStats`]).
    pub fn note_decode_tokens(&mut self, n: u64) {
        self.miss_tokens += n;
    }

    /// Imports the full-block prefix of `tokens` as if streamed from a
    /// donor replica, without counting hits or misses. Returns the same
    /// accounting as [`kv_cache::CacheManager::ingest_prefix`].
    pub fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        let mut covered_blocks = 0usize;
        let mut imported_blocks = 0usize;
        for hash in chain_hashes(tokens, self.block_size) {
            if !self.touch(hash) {
                imported_blocks += 1;
            }
            covered_blocks += 1;
        }
        IngestReport {
            covered_tokens: covered_blocks * self.block_size,
            imported_tokens: imported_blocks * self.block_size,
            imported_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_cache::CacheManager;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn toks(range: std::ops::Range<u32>) -> Vec<Token> {
        range.collect()
    }

    fn overlap(s: &PrefixStore, tokens: &[Token]) -> usize {
        s.chain_overlap_tokens(&chain_hashes(tokens, s.block_size()))
    }

    #[test]
    fn overlap_grows_with_inserts_at_block_granularity() {
        let mut s = PrefixStore::new(1024, 16);
        assert_eq!(overlap(&s, &toks(0..40)), 0);
        let covered = s.insert_sequence(&toks(0..40));
        assert_eq!(covered, 0);
        // Two full blocks resident; the 8-token tail is not.
        assert_eq!(overlap(&s, &toks(0..40)), 32);
        assert_eq!(overlap(&s, &toks(0..32)), 32);
        // A diverging second block stops the chain after one block.
        let mut diverged = toks(0..40);
        diverged[20] = 9999;
        assert_eq!(overlap(&s, &diverged), 16);
    }

    #[test]
    fn reinsert_counts_hits() {
        let mut s = PrefixStore::new(1024, 16);
        s.insert_sequence(&toks(0..64));
        let covered = s.insert_sequence(&toks(0..64));
        assert_eq!(covered, 64);
        let (hit, miss) = s.hit_miss_tokens();
        assert_eq!((hit, miss), (64, 64));
    }

    #[test]
    fn lru_eviction_is_bounded_and_ordered() {
        let mut s = PrefixStore::new(2, 16);
        s.insert_sequence(&toks(0..16));
        s.insert_sequence(&toks(100..116));
        assert_eq!(s.len(), 2);
        // Refresh the first, then insert a third: the second is evicted.
        assert_eq!(overlap(&s, &toks(0..16)), 16);
        s.insert_sequence(&toks(0..16));
        s.insert_sequence(&toks(200..216));
        assert_eq!(s.len(), 2);
        assert_eq!(overlap(&s, &toks(0..16)), 16);
        assert_eq!(overlap(&s, &toks(100..116)), 0);
        assert_eq!(overlap(&s, &toks(200..216)), 16);
    }

    #[test]
    fn ingest_reports_imported_and_covered() {
        let mut s = PrefixStore::new(1024, 16);
        let r = s.ingest_prefix(&toks(0..40));
        assert_eq!(r.covered_tokens, 32);
        assert_eq!(r.imported_tokens, 32);
        assert_eq!(r.imported_blocks, 2);
        // Second ingest of the same prefix imports nothing new.
        let r2 = s.ingest_prefix(&toks(0..40));
        assert_eq!(r2.covered_tokens, 32);
        assert_eq!(r2.imported_tokens, 0);
        // Ingested prefixes serve prefill overlap.
        assert_eq!(overlap(&s, &toks(0..40)), 32);
    }

    /// Reference store: a hash → last-use sequence map plus an ordered
    /// (sequence, hash) set, evicting the smallest sequence. The O(1) store
    /// must match it call for call.
    struct OracleStore {
        by_hash: BTreeMap<u64, u64>,
        by_seq: BTreeSet<(u64, u64)>,
        capacity: usize,
        block_size: usize,
        seq: u64,
        hit_tokens: u64,
        miss_tokens: u64,
    }

    impl OracleStore {
        fn new(capacity: usize, block_size: usize) -> Self {
            OracleStore {
                by_hash: BTreeMap::new(),
                by_seq: BTreeSet::new(),
                capacity: capacity.max(1),
                block_size,
                seq: 0,
                hit_tokens: 0,
                miss_tokens: 0,
            }
        }

        fn chain_overlap_tokens(&self, chain: &[u64]) -> usize {
            let mut covered = 0;
            for hash in chain {
                if !self.by_hash.contains_key(hash) {
                    break;
                }
                covered += self.block_size;
            }
            covered
        }

        fn touch(&mut self, hash: u64) -> bool {
            self.seq += 1;
            if let Some(seq) = self.by_hash.get_mut(&hash) {
                self.by_seq.remove(&(*seq, hash));
                *seq = self.seq;
                self.by_seq.insert((self.seq, hash));
                return true;
            }
            if self.by_hash.len() >= self.capacity {
                if let Some(&(victim_seq, victim_hash)) = self.by_seq.iter().next() {
                    self.by_seq.remove(&(victim_seq, victim_hash));
                    self.by_hash.remove(&victim_hash);
                }
            }
            self.by_hash.insert(hash, self.seq);
            self.by_seq.insert((self.seq, hash));
            false
        }

        fn insert_sequence(&mut self, tokens: &[Token]) -> usize {
            let mut covered = 0;
            let mut prefix_intact = true;
            for hash in chain_hashes(tokens, self.block_size) {
                let was_resident = self.touch(hash);
                if was_resident && prefix_intact {
                    covered += self.block_size;
                } else {
                    prefix_intact = false;
                }
            }
            self.hit_tokens += covered as u64;
            self.miss_tokens += (tokens.len() - covered) as u64;
            covered
        }

        fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
            let (mut covered, mut imported) = (0, 0);
            for hash in chain_hashes(tokens, self.block_size) {
                if !self.touch(hash) {
                    imported += 1;
                }
                covered += 1;
            }
            IngestReport {
                covered_tokens: covered * self.block_size,
                imported_tokens: imported * self.block_size,
                imported_blocks: imported,
            }
        }
    }

    /// A prompt from a small family: a shared stem of `stem` blocks (one of
    /// two stems), then `tail` tokens unique to `salt`. Small alphabets make
    /// hits, partial overlaps and evictions all common.
    fn prompt(stem_id: u32, stem: u32, tail: u32, salt: u32) -> Vec<Token> {
        let block = 4;
        let mut t: Vec<Token> = (0..stem * block).map(|i| stem_id * 1000 + i).collect();
        t.extend((0..tail).map(|i| 100_000 + salt * 100 + i));
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The O(1) store returns exactly what the BTree oracle returns on
        /// every insert, ingest and probe, and agrees on counters and size.
        /// A real `CacheManager` driven alongside an unbounded store reports
        /// the same overlap for every chain, because both key blocks by the
        /// same `chain_hashes`.
        #[test]
        fn lru_store_matches_the_btree_oracle(
            capacity in 2usize..9,
            ops in proptest::collection::vec(
                (0u8..3, 0u32..2, 0u32..4, 0u32..9, 0u32..6),
                1..80,
            ),
        ) {
            let block = 4;
            let mut store = PrefixStore::new(capacity, block);
            let mut oracle = OracleStore::new(capacity, block);
            let mut cache = CacheManager::new(1024, block);
            let mut unbounded = PrefixStore::new(1024, block);
            for (i, &(op, stem_id, stem, tail, salt)) in ops.iter().enumerate() {
                let tokens = prompt(stem_id, stem, tail, salt);
                let chain = chain_hashes(&tokens, block);
                let cached = cache.chain_overlap_tokens(&chain);
                prop_assert_eq!(cached, unbounded.chain_overlap_tokens(&chain), "op {}", i);
                prop_assert_eq!(cached, cache.prefix_overlap_tokens(&tokens), "op {}", i);
                match op {
                    0 => {
                        prop_assert_eq!(
                            store.insert_sequence(&tokens),
                            oracle.insert_sequence(&tokens),
                            "insert at op {}", i
                        );
                        unbounded.insert_sequence(&tokens);
                        let table = cache.insert_sequence(&tokens).unwrap();
                        cache.free_sequence(&table).unwrap();
                    }
                    1 => {
                        prop_assert_eq!(
                            store.ingest_prefix(&tokens),
                            oracle.ingest_prefix(&tokens),
                            "ingest at op {}", i
                        );
                        unbounded.ingest_prefix(&tokens);
                        cache.ingest_prefix(&tokens);
                    }
                    _ => prop_assert_eq!(
                        store.chain_overlap_tokens(&chain),
                        oracle.chain_overlap_tokens(&chain),
                        "probe at op {}", i
                    ),
                }
                prop_assert_eq!(store.len(), oracle.by_hash.len());
                prop_assert_eq!(
                    store.hit_miss_tokens(),
                    (oracle.hit_tokens, oracle.miss_tokens)
                );
            }
        }
    }
}
