//! Fleet-level metric helpers: load balance and the KV memory cost of
//! prefix duplication across replicas.

use serving::ModelSpec;

/// Coefficient of variation (stddev / mean) of per-replica routed counts.
/// Zero when perfectly balanced or when nothing was routed.
pub fn load_imbalance(routed: &[usize]) -> f64 {
    if routed.is_empty() {
        return 0.0;
    }
    let n = routed.len() as f64;
    let mean = routed.iter().sum::<usize>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = routed
        .iter()
        .map(|&r| (r as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Counts extra copies across replicas: a block resident on `k` replicas
/// contributes `k - 1`.
pub fn duplicated_blocks(resident_hashes: &[Vec<u64>]) -> usize {
    let mut counts = std::collections::BTreeMap::new();
    for replica in resident_hashes {
        for &h in replica {
            *counts.entry(h).or_insert(0usize) += 1;
        }
    }
    counts.values().map(|&c| c.saturating_sub(1)).sum()
}

/// Bytes of KV cache one block of `block_size` tokens occupies for `model`
/// (K and V, fp16, all layers).
pub fn kv_block_bytes(model: &ModelSpec, block_size: usize) -> u64 {
    let per_token = 2 * model.head.num_kv_heads() * model.head.head_dim() * 2 * model.num_layers;
    (per_token * block_size) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_zero_when_balanced() {
        assert_eq!(load_imbalance(&[5, 5, 5, 5]), 0.0);
        assert_eq!(load_imbalance(&[]), 0.0);
        assert_eq!(load_imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn imbalance_grows_with_skew() {
        let even = load_imbalance(&[10, 10, 10, 10]);
        let mild = load_imbalance(&[13, 9, 10, 8]);
        let severe = load_imbalance(&[37, 1, 1, 1]);
        assert!(even < mild && mild < severe);
        // All 40 requests on one of four replicas: CV = sqrt(3).
        assert!((load_imbalance(&[40, 0, 0, 0]) - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn duplication_counts_extra_copies_only() {
        assert_eq!(duplicated_blocks(&[vec![1, 2], vec![3, 4]]), 0);
        assert_eq!(duplicated_blocks(&[vec![1, 2], vec![2, 3]]), 1);
        assert_eq!(duplicated_blocks(&[vec![7], vec![7], vec![7]]), 2);
    }

    #[test]
    fn kv_block_bytes_matches_hand_computation() {
        let model = ModelSpec::llama3_8b();
        // 8 KV heads x 128 dim x 2 (K,V) x 2 bytes x 32 layers x 16 tokens.
        assert_eq!(kv_block_bytes(&model, 16), 8 * 128 * 2 * 2 * 32 * 16);
    }
}
