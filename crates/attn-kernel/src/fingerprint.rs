//! Batch fingerprints and step deltas — the keys behind the two reuse
//! layers of the decode-step path.
//!
//! * [`batch_timing_fingerprint`] keys the serving simulator's
//!   step-simulation cache (`serving::StepSimCache`) on *block-granularity
//!   structure*: the set of block tables, not the exact token counts. A
//!   decode step grows every active request by one token, so exact-token
//!   keys would never repeat; block structure, by contrast, is stable for
//!   `block_size` consecutive steps per request. Block ids are
//!   **canonicalized** (renamed by first occurrence) and the GPU spec
//!   identity is mixed in: simulated timing is invariant under any block-id
//!   renaming that preserves the sharing pattern — only *which* slices
//!   coincide matters, never the numeric ids — so the cache also hits
//!   across structurally isomorphic batches (e.g. the same requests
//!   re-admitted after a preemption with freshly allocated blocks).
//! * [`classify_step_delta`] compares a step-cache miss against the last
//!   *planned* step by stable query id and raw block id, which is what
//!   `pat_core::PlanState` needs to patch its maintained forest (an empty
//!   delta is PAT's §5.1 lazy hit).

use crate::batch::DecodeBatch;
use crate::fxhash::{FxHashMap, FxHasher};
use kv_cache::{BlockId, BlockTable};
use sim_gpu::GpuSpec;
use std::hash::{Hash, Hasher};

/// How one decode step's batch relates to the previous step's — the delta
/// classification behind incremental planning (`pat_core::PlanState`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepDelta {
    /// Same queries, same block tables; only token counts may have grown.
    /// The previous forest applies after a token-length refresh.
    Unchanged,
    /// The batch differs from its predecessor by chain-local edits only:
    /// request completions, tail-block extensions of surviving requests,
    /// and/or arrivals appended at the batch tail. The previous plan state
    /// can be *patched* instead of rebuilt.
    ChainLocal(StepPatch),
    /// Anything else — rows reordered, tables rewritten (preemption and
    /// re-admission with fresh blocks), shape changes, or no stable ids to
    /// match rows by. Requires a from-scratch rebuild.
    Structural,
}

/// The edit script of a [`StepDelta::ChainLocal`] step, in application
/// order: completions (indices into the *previous* batch), then tail
/// extensions (indices into the *new* batch), then arrivals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepPatch {
    /// Completed requests, as ascending indices into the previous batch.
    pub completed: Vec<usize>,
    /// Surviving requests whose tables appended block(s), as ascending
    /// indices into the new batch.
    pub extended: Vec<usize>,
    /// Newly arrived requests, all sitting at the new batch's tail.
    pub arrived: usize,
}

/// Classifies `batch` against the previous step's `(prev_ids, prev_tables)`.
///
/// `ChainLocal` requires the surviving rows to keep their relative order
/// (continuous batching removes completed rows and appends arrivals, so this
/// holds in steady state) and each surviving table to be a pure tail
/// extension of its predecessor. Token counts are never inspected — they are
/// refreshed, not classified.
///
/// ```
/// use attn_kernel::{classify_step_delta, DecodeBatch, StepDelta};
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
///
/// let head = HeadConfig::new(8, 4, 32);
/// let t = |ids: &[u32], tokens| {
///     BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
/// };
/// let prev = [t(&[0, 1], 20), t(&[0, 2], 24)];
/// // Request 10 finished; request 11 grew a block; request 12 arrived.
/// let next = DecodeBatch::new(head, vec![t(&[0, 2, 5], 33), t(&[7], 4)], 2)
///     .with_query_ids(vec![11, 12]);
/// let StepDelta::ChainLocal(patch) = classify_step_delta(&[10, 11], &prev, &next) else {
///     panic!("chain-local");
/// };
/// assert_eq!((patch.completed, patch.extended, patch.arrived), (vec![0], vec![0], 1));
/// ```
pub fn classify_step_delta(
    prev_ids: &[u64],
    prev_tables: &[BlockTable],
    batch: &DecodeBatch,
) -> StepDelta {
    let Some(ids) = batch.query_ids() else {
        return StepDelta::Structural;
    };
    let tables = batch.tables();
    debug_assert_eq!(prev_ids.len(), prev_tables.len());
    let mut patch = StepPatch::default();
    let (mut oi, mut nj) = (0usize, 0usize);
    while nj < ids.len() {
        // Locate the new row's id among the not-yet-matched previous rows;
        // anything skipped over completed. A miss means the arrival tail
        // starts here (verified below).
        let Some(d) = prev_ids[oi..].iter().position(|&x| x == ids[nj]) else {
            break;
        };
        patch.completed.extend(oi..oi + d);
        oi += d;
        let (old, new) = (prev_tables[oi].blocks(), tables[nj].blocks());
        if new.len() < old.len() || new[..old.len()] != *old {
            return StepDelta::Structural;
        }
        if new.len() > old.len() {
            patch.extended.push(nj);
        }
        oi += 1;
        nj += 1;
    }
    patch.completed.extend(oi..prev_ids.len());
    patch.arrived = ids.len() - nj;
    // The arrival tail must be genuinely new: an old id resurfacing out of
    // order (or duplicated) is a reorder, not an append.
    for &id in &ids[nj..] {
        if prev_ids.contains(&id) {
            return StepDelta::Structural;
        }
    }
    if patch.completed.is_empty() && patch.extended.is_empty() && patch.arrived == 0 {
        StepDelta::Unchanged
    } else {
        StepDelta::ChainLocal(patch)
    }
}

/// Separator mixed between per-request block lists so that moving a block
/// across a table boundary changes the hash.
const TABLE_SEP: u16 = 0xB10C;

fn hash_common(batch: &DecodeBatch, h: &mut FxHasher) {
    let head = batch.head();
    head.num_heads().hash(h);
    head.num_kv_heads().hash(h);
    head.head_dim().hash(h);
    batch.dtype_bytes().hash(h);
    batch.block_size().hash(h);
    batch.num_queries().hash(h);
}

/// Canonical-id timing fingerprint of a decode batch: head configuration,
/// dtype width, and every per-request block-id list, with block ids renamed
/// to dense indices in order of first occurrence across the batch, and the
/// GPU spec's name mixed in. Token counts within the last (possibly partial)
/// block are deliberately excluded. Two batches receive
/// the same fingerprint exactly when they are structurally isomorphic — the
/// same head/dtype shape and the same block-sharing pattern — which is the
/// precise invariance class of [`crate::simulate_plan`]'s timing output at
/// block granularity.
///
/// ```
/// use attn_kernel::{batch_timing_fingerprint, DecodeBatch};
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
/// use sim_gpu::GpuSpec;
///
/// let head = HeadConfig::new(8, 4, 32);
/// let spec = GpuSpec::a100_sxm4_80gb();
/// // Same sharing pattern under different physical ids: identical key.
/// let a = DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
///     BlockTable::new(vec![BlockId(0), BlockId(2)], 32, 16),
/// ], 2);
/// let b = DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(90), BlockId(4)], 32, 16),
///     BlockTable::new(vec![BlockId(90), BlockId(17)], 32, 16),
/// ], 2);
/// // Different sharing pattern: different key.
/// let c = DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
///     BlockTable::new(vec![BlockId(3), BlockId(2)], 32, 16),
/// ], 2);
/// assert_eq!(batch_timing_fingerprint(&a, &spec), batch_timing_fingerprint(&b, &spec));
/// assert_ne!(batch_timing_fingerprint(&a, &spec), batch_timing_fingerprint(&c, &spec));
/// ```
pub fn batch_timing_fingerprint(batch: &DecodeBatch, spec: &GpuSpec) -> u64 {
    let mut h = FxHasher::default();
    hash_common(batch, &mut h);
    spec.name.hash(&mut h);
    // Dense renaming by first occurrence; lookups only (no iteration), so
    // the hash map cannot leak nondeterministic order into the fingerprint.
    let mut canon: FxHashMap<BlockId, u32> = FxHashMap::default();
    let mut next: u32 = 0;
    for t in batch.tables() {
        for &b in t.blocks() {
            let id = *canon.entry(b).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            id.hash(&mut h);
        }
        TABLE_SEP.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn batch(tables: Vec<BlockTable>) -> DecodeBatch {
        DecodeBatch::new(HeadConfig::new(8, 4, 32), tables, 2)
    }

    #[test]
    fn timing_key_ignores_raw_ids() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let a = batch(vec![BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16)]);
        let b = batch(vec![BlockTable::new(vec![BlockId(5), BlockId(9)], 32, 16)]);
        assert_eq!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
    }

    #[test]
    fn token_growth_within_last_block_keeps_the_key() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let a = batch(vec![BlockTable::new(vec![BlockId(0)], 3, 16)]);
        let b = batch(vec![BlockTable::new(vec![BlockId(0)], 4, 16)]);
        assert_eq!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
    }

    #[test]
    fn new_block_changes_the_key() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let a = batch(vec![BlockTable::new(vec![BlockId(0)], 16, 16)]);
        let b = batch(vec![BlockTable::new(vec![BlockId(0), BlockId(1)], 17, 16)]);
        assert_ne!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
    }

    #[test]
    fn timing_key_distinguishes_gpu_specs() {
        let a = batch(vec![BlockTable::new(vec![BlockId(0)], 16, 16)]);
        assert_ne!(
            batch_timing_fingerprint(&a, &GpuSpec::a100_sxm4_80gb()),
            batch_timing_fingerprint(&a, &GpuSpec::h100_sxm5_80gb())
        );
    }

    fn t(ids: &[u32], tokens: usize) -> BlockTable {
        BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
    }

    #[test]
    fn classify_without_ids_is_structural() {
        let prev = [t(&[0], 10)];
        let next = batch(vec![t(&[0], 11)]);
        assert_eq!(
            classify_step_delta(&[1], &prev, &next),
            StepDelta::Structural
        );
    }

    #[test]
    fn classify_token_growth_is_unchanged() {
        let prev = [t(&[0, 1], 20), t(&[0, 2], 24)];
        let next = batch(vec![t(&[0, 1], 21), t(&[0, 2], 25)]).with_query_ids(vec![7, 9]);
        assert_eq!(
            classify_step_delta(&[7, 9], &prev, &next),
            StepDelta::Unchanged
        );
    }

    #[test]
    fn classify_boundary_crossing_is_an_extension() {
        let prev = [t(&[0, 1], 32), t(&[0, 2], 30)];
        let next = batch(vec![t(&[0, 1, 5], 33), t(&[0, 2], 31)]).with_query_ids(vec![7, 9]);
        let StepDelta::ChainLocal(p) = classify_step_delta(&[7, 9], &prev, &next) else {
            panic!("expected chain-local");
        };
        assert_eq!((p.completed, p.extended, p.arrived), (vec![], vec![0], 0));
    }

    #[test]
    fn classify_mixed_completion_extension_arrival() {
        let prev = [t(&[0, 1], 32), t(&[0, 2], 32), t(&[9], 8)];
        let next = batch(vec![t(&[0, 2, 5], 33), t(&[9], 9), t(&[20], 3)])
            .with_query_ids(vec![11, 12, 13]);
        let StepDelta::ChainLocal(p) = classify_step_delta(&[10, 11, 12], &prev, &next) else {
            panic!("expected chain-local");
        };
        assert_eq!((p.completed, p.extended, p.arrived), (vec![0], vec![0], 1));
    }

    #[test]
    fn classify_rewrites_and_reorders_are_structural() {
        let prev = [t(&[0, 1], 32), t(&[0, 2], 32)];
        // Rewritten table (preemption + re-admission with fresh blocks).
        let rewritten = batch(vec![t(&[3, 4], 32), t(&[0, 2], 32)]).with_query_ids(vec![7, 9]);
        assert_eq!(
            classify_step_delta(&[7, 9], &prev, &rewritten),
            StepDelta::Structural
        );
        // Shrunk table.
        let shrunk = batch(vec![t(&[0], 16), t(&[0, 2], 32)]).with_query_ids(vec![7, 9]);
        assert_eq!(
            classify_step_delta(&[7, 9], &prev, &shrunk),
            StepDelta::Structural
        );
        // Reordered rows: id 7 resurfaces after id 9.
        let reordered = batch(vec![t(&[0, 2], 32), t(&[0, 1], 32)]).with_query_ids(vec![9, 7]);
        assert_eq!(
            classify_step_delta(&[7, 9], &prev, &reordered),
            StepDelta::Structural
        );
    }

    #[test]
    fn table_boundaries_matter() {
        let spec = GpuSpec::a100_sxm4_80gb();
        // [0,1] + [2] vs [0] + [1,2]: same flat id sequence, different split.
        let a = batch(vec![
            BlockTable::new(vec![BlockId(0), BlockId(1)], 32, 16),
            BlockTable::new(vec![BlockId(2)], 16, 16),
        ]);
        let b = batch(vec![
            BlockTable::new(vec![BlockId(0)], 16, 16),
            BlockTable::new(vec![BlockId(1), BlockId(2)], 32, 16),
        ]);
        assert_ne!(
            batch_timing_fingerprint(&a, &spec),
            batch_timing_fingerprint(&b, &spec)
        );
    }
}
