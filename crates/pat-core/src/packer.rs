//! The prefix-aware pack scheduler: `TreeHeuristic` (Algorithm 1, §5.1).
//!
//! Converts a decode batch's prefix forest into *packs* — groups of queries
//! attending over one KV run — choosing between Scheme 1 (split parent and
//! child into separate CTAs) and Scheme 2 (merge the parent's blocks into the
//! child's CTA) with the memory-centric profit model. Linear in the tree
//! size: each node and edge is visited once.

use crate::profit::should_merge_child;
use attn_kernel::DecodeBatch;
use kv_cache::{BlockId, PrefixForest, PrefixNode};

/// One pack: queries that attend over one KV block run in a single CTA
/// (before tile selection and long-KV splitting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pack {
    /// Batch query indices packed together.
    pub queries: Vec<usize>,
    /// The KV block run they attend over.
    pub blocks: Vec<BlockId>,
    /// Tokens covered by the run.
    pub tokens: usize,
    /// Index of `blocks[0]` within each member query's block table. Shared
    /// prefixes sit at identical indices for all sharers, so one offset
    /// suffices.
    pub start: usize,
}

/// Packs a decode batch with the TreeHeuristic scheduler.
///
/// # Examples
///
/// ```
/// use attn_kernel::DecodeBatch;
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
/// use pat_core::pack_batch;
///
/// let head = HeadConfig::new(32, 8, 128);
/// let tables = vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
///     BlockTable::new(vec![BlockId(0), BlockId(2)], 32, 16),
/// ];
/// let batch = DecodeBatch::new(head, tables, 2);
/// let packs = pack_batch(&batch);
/// // The shared block 0 appears in exactly one pack.
/// let shared: Vec<_> = packs.iter().filter(|p| p.blocks.contains(&BlockId(0))).collect();
/// assert_eq!(shared.len(), 1);
/// assert_eq!(shared[0].queries.len(), 2);
/// ```
pub fn pack_batch(batch: &DecodeBatch) -> Vec<Pack> {
    pack_forest(&batch.forest())
}

/// Packs a prefix forest directly (the batch-independent core of Alg. 1).
pub fn pack_forest(forest: &PrefixForest) -> Vec<Pack> {
    let mut packs = Vec::new();
    for root in forest.roots() {
        tree_heuristic(root, &[], 0, 0, &mut packs);
    }
    packs
}

/// Algorithm 1. `inherited` carries the parent's blocks when Scheme 2 merged
/// them downward (with their KV length `inherited_tokens`); `node_depth` is
/// the block-table index where `node.blocks` begins.
fn tree_heuristic(
    node: &PrefixNode,
    inherited: &[BlockId],
    inherited_tokens: usize,
    node_depth: usize,
    packs: &mut Vec<Pack>,
) {
    let mut blocks: Vec<BlockId> = inherited.to_vec();
    blocks.extend_from_slice(&node.blocks);
    let tokens = inherited_tokens + node.token_len;
    let start = node_depth - inherited.len();
    let child_depth = node_depth + node.blocks.len();

    if node.is_leaf() {
        // Pack the query's (inherited +) non-shared KV into one CTA; a query
        // whose KV is fully covered by ancestors contributes no CTA.
        if tokens > 0 {
            packs.push(Pack {
                queries: node.queries.clone(),
                blocks,
                tokens,
                start,
            });
        }
        return;
    }

    let mut remaining: Vec<usize> = node.queries.clone();
    for child in &node.children {
        if should_merge_child(child.num_queries(), tokens) {
            // Scheme 2: merge this node's blocks into the child's CTAs,
            // removing the child's queries from this node's pack.
            tree_heuristic(child, &blocks, tokens, child_depth, packs);
            remaining.retain(|q| !child.queries.contains(q));
        } else {
            // Scheme 1: the child's subtree packs only its own blocks; its
            // queries stay in this node's pack for the shared run.
            tree_heuristic(child, &[], 0, child_depth, packs);
        }
    }
    if !remaining.is_empty() && tokens > 0 {
        packs.push(Pack {
            queries: remaining,
            blocks,
            tokens,
            start,
        });
    }
}

/// Splits packs whose query-row count (`queries × group size`) exceeds the
/// largest feasible Q tile, duplicating the KV run per chunk (§5.2's m
/// round-up rule presumes packs fit one CTA).
pub fn enforce_row_limit(packs: Vec<Pack>, group_size: usize, max_m: usize) -> Vec<Pack> {
    assert!(
        group_size > 0 && max_m >= group_size,
        "max_m must hold one query's rows"
    );
    let per_cta = max_m / group_size;
    let mut out = Vec::with_capacity(packs.len());
    for pack in packs {
        if pack.queries.len() <= per_cta {
            out.push(pack);
        } else {
            for chunk in pack.queries.chunks(per_cta) {
                out.push(Pack {
                    queries: chunk.to_vec(),
                    blocks: pack.blocks.clone(),
                    tokens: pack.tokens,
                    start: pack.start,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use kv_cache::BlockTable;
    use std::collections::BTreeMap;

    fn table(ids: &[u32], tokens: usize) -> BlockTable {
        BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
    }

    fn batch(tables: Vec<BlockTable>) -> DecodeBatch {
        DecodeBatch::new(HeadConfig::new(32, 8, 128), tables, 2)
    }

    /// Coverage check: each query's packs must cover exactly its block table.
    fn assert_exact_coverage(batch: &DecodeBatch, packs: &[Pack]) {
        for (q, t) in batch.tables().iter().enumerate() {
            let mut covered: BTreeMap<BlockId, usize> = BTreeMap::new();
            let mut tokens = 0;
            for p in packs.iter().filter(|p| p.queries.contains(&q)) {
                for &b in &p.blocks {
                    *covered.entry(b).or_insert(0) += 1;
                }
                tokens += p.tokens;
            }
            assert_eq!(tokens, t.num_tokens(), "query {q} token coverage");
            let mut want: BTreeMap<BlockId, usize> = BTreeMap::new();
            for &b in t.blocks() {
                *want.entry(b).or_insert(0) += 1;
            }
            assert_eq!(covered, want, "query {q} block coverage");
        }
    }

    #[test]
    fn long_shared_prefix_is_packed_once() {
        // 64 queries sharing 128 blocks (2048 tokens), private 8-block tails:
        // 4*s_i = 4 < 2048, so every leaf splits; one big shared CTA.
        let tables: Vec<BlockTable> = (0..64)
            .map(|q| {
                let mut ids: Vec<u32> = (0..128).collect();
                ids.extend(10_000 + q * 16..10_000 + q * 16 + 8);
                table(&ids, 136 * 16)
            })
            .collect();
        let b = batch(tables);
        let packs = pack_batch(&b);
        assert_exact_coverage(&b, &packs);
        let shared: Vec<&Pack> = packs.iter().filter(|p| p.queries.len() > 1).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].queries.len(), 64);
        assert_eq!(shared[0].tokens, 2048);
        assert_eq!(packs.len(), 65);
    }

    #[test]
    fn short_shared_prefix_merges_into_children() {
        // 2 queries sharing ONE 16-token block: 4*1 = 4 < 16 for each leaf
        // (split)... but with larger child query counts merging wins. Use a
        // two-level tree: root 1 block shared by 16, two children of 8
        // queries sharing 4 blocks each: for each child 4*8 = 32 > 16 ->
        // merge root into children.
        let tables: Vec<BlockTable> = (0..16)
            .map(|q| {
                let mut ids: Vec<u32> = vec![0];
                let side = q / 8;
                ids.extend(100 + side * 10..100 + side * 10 + 4);
                ids.push(1000 + q);
                table(&ids, 6 * 16)
            })
            .collect();
        let b = batch(tables);
        let packs = pack_batch(&b);
        assert_exact_coverage(&b, &packs);
        // Root merged into both children: no pack holds ONLY block 0, and
        // two packs hold root + child-level blocks (5 blocks, 8 queries).
        assert!(packs.iter().all(|p| p.blocks != vec![BlockId(0)]));
        let merged: Vec<&Pack> = packs
            .iter()
            .filter(|p| p.blocks.len() == 5 && p.queries.len() == 8)
            .collect();
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn no_sharing_degenerates_to_one_query_per_cta() {
        let tables: Vec<BlockTable> = (0..8).map(|q| table(&[q * 100, q * 100 + 1], 32)).collect();
        let b = batch(tables);
        let packs = pack_batch(&b);
        assert_exact_coverage(&b, &packs);
        assert_eq!(packs.len(), 8);
        assert!(packs.iter().all(|p| p.queries.len() == 1));
    }

    #[test]
    fn multi_level_tree_coverage_is_exact() {
        // Three levels: 16 queries share [0..8); halves share 8 more blocks;
        // quarters share 4 more; private tails.
        let tables: Vec<BlockTable> = (0..16u32)
            .map(|q| {
                let mut ids: Vec<u32> = (0..8).collect();
                let half = q / 8;
                ids.extend(100 + half * 50..100 + half * 50 + 8);
                let quarter = q / 4;
                ids.extend(300 + quarter * 50..300 + quarter * 50 + 4);
                ids.extend(1000 + q * 10..1000 + q * 10 + 2);
                table(&ids, 22 * 16)
            })
            .collect();
        let b = batch(tables);
        let packs = pack_batch(&b);
        assert_exact_coverage(&b, &packs);
        // The 128-token root: 4*8 = 32 < 128 for halves -> split at root.
        assert!(packs
            .iter()
            .any(|p| p.queries.len() == 16 && p.tokens == 128));
    }

    #[test]
    fn pack_starts_index_into_block_tables() {
        let tables: Vec<BlockTable> = (0..4).map(|q| table(&[0, 1, 2, 3, 100 + q], 76)).collect();
        let b = batch(tables);
        let packs = pack_batch(&b);
        for p in &packs {
            for &q in &p.queries {
                for (i, &blk) in p.blocks.iter().enumerate() {
                    assert_eq!(
                        b.tables()[q].blocks()[p.start + i],
                        blk,
                        "pack start offset"
                    );
                }
            }
        }
    }

    #[test]
    fn row_limit_duplicates_kv_for_oversized_packs() {
        let pack = Pack {
            queries: (0..40).collect(),
            blocks: vec![BlockId(0)],
            tokens: 16,
            start: 0,
        };
        let out = enforce_row_limit(vec![pack], 4, 128); // 32 queries per CTA
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].queries.len(), 32);
        assert_eq!(out[1].queries.len(), 8);
        assert!(out.iter().all(|p| p.blocks == vec![BlockId(0)]));
    }

    /// R2 regression: packing the same batch repeatedly must yield the
    /// identical pack list — the TreeHeuristic's CTA layout (and therefore
    /// every downstream timing number) may not depend on any iteration
    /// order.
    #[test]
    fn packing_is_deterministic_across_runs() {
        let make = || {
            let tables: Vec<BlockTable> = (0..16u32)
                .map(|q| {
                    let mut ids: Vec<u32> = (0..8).collect();
                    ids.extend(100 + (q / 4) * 50..100 + (q / 4) * 50 + 4);
                    ids.extend(1000 + q * 10..1000 + q * 10 + 2);
                    table(&ids, 14 * 16)
                })
                .collect();
            batch(tables)
        };
        let first = pack_batch(&make());
        for _ in 0..3 {
            assert_eq!(pack_batch(&make()), first, "packs must be identical");
        }
    }

    #[test]
    fn zero_length_leaves_produce_no_packs() {
        // Query 1's KV is a strict prefix of query 0's: its leaf is empty.
        let tables = vec![table(&[0, 1, 2], 48), table(&[0, 1], 32)];
        let b = batch(tables);
        let packs = pack_batch(&b);
        assert_exact_coverage(&b, &packs);
        assert!(packs.iter().all(|p| p.tokens > 0));
    }
}
