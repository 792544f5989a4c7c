//! Integration: prefix reuse (the vLLM-style hash-chained cache) shares
//! block-aligned prefixes but does not change what the attention kernel must
//! load — the paper's §3.1 observation that prefix *reuse* is orthogonal to
//! prefix-aware *execution*.

use kv_cache::{BatchPrefixStats, CacheManager};

#[test]
fn reuse_reduces_footprint_but_not_logical_kv() {
    // 16 requests sharing a 1024-token prompt through the hash cache: the
    // *physical* pool shrinks ~16x for the shared part, but each request's
    // block table still lists the full logical KV — which is what a
    // non-prefix-aware kernel loads (§3.1/§3.2).
    let mut cache = CacheManager::new(10_000, 16);
    let shared: Vec<u32> = (0..1024).collect();
    let mut tables = Vec::new();
    for i in 0..16u32 {
        let mut t = shared.clone();
        t.extend(10_000 + i * 100..10_000 + i * 100 + 64);
        tables.push(cache.insert_sequence(&t).expect("pool sized"));
    }
    let physical = cache.allocator().used_blocks();
    let logical: usize = tables.iter().map(|t| t.blocks().len()).sum();
    assert!(
        physical < logical / 8,
        "physical {physical} vs logical {logical}"
    );

    // The shared structure is exactly what the pack scheduler exploits.
    let stats = BatchPrefixStats::from_tables(&tables);
    assert!(stats.shared_coverage() > 0.9);
    assert_eq!(stats.distinct_shared_prefixes, 1);
}

#[test]
fn hash_cache_shares_split_prefixes() {
    // The hash cache chains per block, so a second prompt that diverges
    // inside the first prompt's run still shares the 32-token overlap.
    let mut hash = CacheManager::new(1024, 16);
    let mut a: Vec<u32> = (0..64).collect();
    let mut b: Vec<u32> = (0..32).collect();
    a.extend(500..516);
    b.extend(900..932);
    let ta = hash.insert_sequence(&a).unwrap();
    let tb = hash.insert_sequence(&b).unwrap();
    assert_eq!(
        ta.blocks()[..2],
        tb.blocks()[..2],
        "32-token overlap shared"
    );
    assert_ne!(ta.blocks()[2], tb.blocks()[2]);
    assert_eq!(hash.stats().hit_tokens, 32);
}
