//! Exhaustive packing optimizer for small trees.
//!
//! §5.1 argues that the packing search space "grows exponentially with query
//! count and prefix lengths, so an exact solver is impractical for online
//! serving" — hence TreeHeuristic. This test-only module implements the
//! exact solver anyway, as an oracle for the heuristic: it enumerates every
//! per-edge split/merge assignment, scores each resulting partition with the
//! same memory-access objective the profit model linearizes, and returns the
//! optimum. Tests confirm the linear-time heuristic stays near the
//! exhaustive optimum — and document one structural case where the greedy
//! per-child rule is strictly suboptimal (merging *all* children of a short
//! parent removes the parent pack entirely, a saving the per-child marginal
//! analysis never sees).

use crate::packer::{pack_forest, Pack};
use crate::profit::INTERMEDIATE_FACTOR;
use kv_cache::{PrefixForest, PrefixNode};

/// Total modeled memory accesses of a packing, in token·d units: every
/// pack loads its KV run once, and a query appearing in `k` packs spills
/// `k - 1` fp32 intermediates (the final pack writes output directly) at
/// the paper's `8/2 = 4` units each — exactly the accounting behind
/// Eqs. 1–2 (§5.1's problem formulation).
pub fn packing_cost(packs: &[Pack], num_queries: usize) -> f64 {
    let kv_loads: usize = packs.iter().map(|p| p.tokens).sum();
    let mut packs_per_query = vec![0usize; num_queries];
    for p in packs {
        for &q in &p.queries {
            packs_per_query[q] += 1;
        }
    }
    let intermediates: f64 = packs_per_query
        .iter()
        .map(|&k| (INTERMEDIATE_FACTOR / 2.0) * k.saturating_sub(1) as f64)
        .sum();
    kv_loads as f64 + intermediates
}

/// Enumerates all packings reachable by per-edge split/merge decisions (the
/// Scheme-1/Scheme-2 space of Algorithm 1) and returns the minimum-cost one.
///
/// # Panics
///
/// Panics if the forest has more than 20 internal edges (4^10+ candidates).
pub fn exact_pack(forest: &PrefixForest, num_queries: usize) -> (Vec<Pack>, f64) {
    let edges: usize = count_internal_edges(forest);
    assert!(
        edges <= 20,
        "exact packing is exponential; {edges} edges is too many"
    );
    let combos = 1u64 << edges;
    // Mask 0 (the all-split packing) always runs, so `best` is always
    // improved past the infinite sentinel.
    let mut best: (Vec<Pack>, f64) = (Vec::new(), f64::INFINITY);
    for mask in 0..combos {
        let mut packs = Vec::new();
        let mut bit = 0usize;
        for root in forest.roots() {
            assemble(root, &[], 0, 0, mask, &mut bit, &mut packs);
        }
        let cost = packing_cost(&packs, num_queries);
        if cost < best.1 {
            best = (packs, cost);
        }
    }
    best
}

fn count_internal_edges(forest: &PrefixForest) -> usize {
    fn walk(node: &PrefixNode) -> usize {
        node.children.len() + node.children.iter().map(walk).sum::<usize>()
    }
    forest.roots().iter().map(walk).sum()
}

/// Builds the packing for one split/merge assignment (`mask` bit per edge in
/// DFS order; 1 = merge the parent's blocks into the child's subtree).
fn assemble(
    node: &PrefixNode,
    inherited: &[kv_cache::BlockId],
    inherited_tokens: usize,
    node_depth: usize,
    mask: u64,
    bit: &mut usize,
    packs: &mut Vec<Pack>,
) {
    let mut blocks: Vec<kv_cache::BlockId> = inherited.to_vec();
    blocks.extend_from_slice(&node.blocks);
    let tokens = inherited_tokens + node.token_len;
    let start = node_depth - inherited.len();
    let child_depth = node_depth + node.blocks.len();
    if node.is_leaf() {
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
        let merge = (mask >> *bit) & 1 == 1;
        *bit += 1;
        if merge {
            assemble(child, &blocks, tokens, child_depth, mask, bit, packs);
            remaining.retain(|q| !child.queries.contains(q));
        } else {
            assemble(child, &[], 0, child_depth, mask, bit, packs);
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

/// Convenience: TreeHeuristic's cost on the same objective.
pub fn heuristic_cost(forest: &PrefixForest, num_queries: usize) -> f64 {
    packing_cost(&pack_forest(forest), num_queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_kernel::DecodeBatch;
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn forest_of(rows: Vec<Vec<u32>>) -> (PrefixForest, usize) {
        let n = rows.len();
        let tables: Vec<BlockTable> = rows
            .into_iter()
            .map(|ids| {
                let blocks: Vec<BlockId> = ids.into_iter().map(BlockId).collect();
                let nb = blocks.len();
                BlockTable::new(blocks, nb * 16, 16)
            })
            .collect();
        let batch = DecodeBatch::new(HeadConfig::new(32, 8, 128), tables, 2);
        (batch.forest(), n)
    }

    /// Small workloads spanning both Scheme choices.
    fn small_cases() -> Vec<Vec<Vec<u32>>> {
        let mut cases = Vec::new();
        // Long root, leaves split (Scheme 1 everywhere).
        cases.push(
            (0..4u32)
                .map(|q| {
                    let mut ids: Vec<u32> = (0..8).collect();
                    ids.push(100 + q);
                    ids
                })
                .collect(),
        );
        // Short root over two 5-query groups (Scheme 2 at the root).
        cases.push(
            (0..10u32)
                .map(|q| vec![0, 100 + (q / 5) * 50, 101 + (q / 5) * 50, 1000 + q])
                .collect(),
        );
        // Three-level tree with clear-cut decisions (long root).
        cases.push(
            (0..8u32)
                .map(|q| {
                    let mut ids: Vec<u32> = (0..8).collect();
                    ids.push(10 + q / 4);
                    ids.push(20 + q / 2);
                    ids.push(1000 + q);
                    ids
                })
                .collect(),
        );
        // No sharing.
        cases.push((0..3u32).map(|q| vec![q * 10, q * 10 + 1]).collect());
        cases
    }

    #[test]
    fn heuristic_is_near_optimal_on_small_trees() {
        for rows in small_cases() {
            let (forest, n) = forest_of(rows);
            let (_, exact) = exact_pack(&forest, n);
            let heuristic = heuristic_cost(&forest, n);
            assert!(heuristic >= exact - 1e-9, "exact must be a lower bound");
            assert!(
                heuristic <= exact * 1.10 + 1e-9,
                "heuristic {heuristic} strays >10% from optimum {exact}"
            );
        }
    }

    /// A documented finding of this reproduction: Algorithm 1's per-child
    /// greedy rule (`merge iff 4·s_i > l_u`) is not globally optimal. When a
    /// short parent has several medium children, merging *all* of them
    /// removes the parent pack entirely — a saving the per-child marginal
    /// analysis never sees. The gap is small (the rule's loss is bounded by
    /// the short parent's length), which is why the paper's heuristic works.
    #[test]
    fn greedy_rule_can_be_strictly_suboptimal() {
        // Root of 20 tokens... approximated at block granularity: 1 block
        // (16 tokens) with two 4-query children: 4*4 = 16 is NOT > 16, so
        // the heuristic splits; the optimum merges both and drops the root.
        let rows: Vec<Vec<u32>> = (0..8u32)
            .map(|q| vec![0, 100 + (q / 4) * 50, 101 + (q / 4) * 50, 1000 + q])
            .collect();
        let (forest, n) = forest_of(rows);
        let (best_packs, exact) = exact_pack(&forest, n);
        let heuristic = heuristic_cost(&forest, n);
        assert!(heuristic > exact, "heuristic {heuristic} vs exact {exact}");
        // The optimum has no root-only pack: block 0 merged into both groups.
        assert!(best_packs.iter().all(|p| p.blocks != vec![BlockId(0)]));
        // ...and the loss is bounded by the parent's length (16 tokens).
        assert!(heuristic - exact <= 16.0 + 1e-9);
    }

    #[test]
    fn exact_beats_or_ties_naive_everywhere() {
        for rows in small_cases() {
            let (forest, n) = forest_of(rows);
            let (_, exact) = exact_pack(&forest, n);
            // All-split corresponds to mask 0.
            let mut packs = Vec::new();
            for root in forest.roots() {
                let mut bit = 0usize;
                super::assemble(root, &[], 0, 0, 0, &mut bit, &mut packs);
            }
            let naive = packing_cost(&packs, n);
            assert!(exact <= naive + 1e-9);
        }
    }

    #[test]
    fn cost_counts_intermediates_for_split_queries() {
        let pack1 = Pack {
            queries: vec![0, 1],
            blocks: vec![BlockId(0)],
            tokens: 16,
            start: 0,
        };
        let pack2 = Pack {
            queries: vec![0],
            blocks: vec![BlockId(1)],
            tokens: 16,
            start: 1,
        };
        let pack3 = Pack {
            queries: vec![1],
            blocks: vec![BlockId(2)],
            tokens: 16,
            start: 1,
        };
        let cost = packing_cost(&[pack1, pack2, pack3], 2);
        // 48 tokens of KV + each query in 2 packs spills 1 intermediate (4).
        assert!((cost - (48.0 + 8.0)).abs() < 1e-9, "{cost}");
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn oversized_trees_are_rejected() {
        let rows: Vec<Vec<u32>> = (0..40u32).map(|q| vec![0, 100 + q / 2, 1000 + q]).collect();
        let (forest, n) = forest_of(rows);
        let _ = exact_pack(&forest, n);
    }
}
