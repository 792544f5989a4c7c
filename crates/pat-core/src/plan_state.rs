//! Persistent cross-step planning state — the lazy update as a delta.
//!
//! PAT's lazy update (§5.1) reuses planning work while the batch structure
//! is unchanged; desynchronized serving traces, though, change structure on
//! most steps (some request crosses a block boundary, completes, or
//! arrives). [`PlanState`] covers both cases with one mechanism: it keeps
//! the previous step's prefix forest alive and *patches* it with the step's
//! classified delta ([`attn_kernel::classify_step_delta`]). An empty delta
//! (token growth only) refreshes token lengths; completions drop a leaf and
//! re-collapse the orphaned chain, boundary crossings extend one query's
//! tail run, arrivals descend and split where they diverge. The patched
//! forest is deeply equal to a scratch rebuild — asserted in debug builds
//! and by the delta-sequence proptests — so the re-packed plan is
//! *identical*, not merely equivalent: profit-threshold flips
//! (`4·s_i > l_u`) re-evaluate naturally because the TreeHeuristic runs
//! over the maintained forest exactly as it would over a fresh one.

use attn_kernel::{classify_step_delta, DecodeBatch, StepDelta, StepPatch};
use attn_math::HeadConfig;
use kv_cache::{BlockTable, PrefixForest};

/// How the most recent [`crate::LazyPat`] plan was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReuse {
    /// The block structure was unchanged since the last planned step (empty
    /// delta: only token counts grew) — the §5.1 lazy hit.
    Frozen,
    /// The maintained forest was patched by the step's delta and re-packed.
    DeltaPatched,
    /// Full forest rebuild and re-pack.
    Cold,
}

/// The maintained planning state: the previous step's prefix forest plus the
/// identities and block tables it was built over.
#[derive(Debug, Clone)]
pub struct PlanState {
    forest: PrefixForest,
    ids: Vec<u64>,
    tables: Vec<BlockTable>,
    head: HeadConfig,
    dtype_bytes: usize,
}

impl PlanState {
    /// Captures the state of a freshly planned batch, taking ownership of
    /// its just-built forest. `None` when the batch carries no stable query
    /// ids — without identities, later steps cannot be classified.
    pub fn capture(batch: &DecodeBatch, forest: PrefixForest) -> Option<Self> {
        let ids = batch.query_ids()?.to_vec();
        Some(PlanState {
            forest,
            ids,
            tables: batch.tables().to_vec(),
            head: batch.head(),
            dtype_bytes: batch.dtype_bytes(),
        })
    }

    /// The maintained forest; after a successful [`advance`](Self::advance)
    /// it is deeply equal to `PrefixForest::from_block_tables` over the
    /// advanced batch's tables.
    pub fn forest(&self) -> &PrefixForest {
        &self.forest
    }

    /// Whether `batch` has exactly the block lists of the last
    /// captured/advanced batch (token counts aside), and hence the same
    /// forest shape.
    pub(crate) fn has_blocks_of(&self, batch: &DecodeBatch) -> bool {
        self.tables.len() == batch.tables().len()
            && self
                .tables
                .iter()
                .zip(batch.tables())
                .all(|(a, b)| a.blocks() == b.blocks())
    }

    /// Advances the state to `batch` by applying the step's classified
    /// delta, returning [`PlanReuse::Frozen`] for an empty delta and
    /// [`PlanReuse::DeltaPatched`] for a chain-local one. Returns `None`
    /// when the step is structural (shape change, row reorder, table
    /// rewrite, or an unpatchable edge such as a tail block landing on a
    /// sibling run) — **the state is then stale or partially patched and
    /// must be discarded and re-captured** from the caller's scratch
    /// rebuild.
    pub fn advance(&mut self, batch: &DecodeBatch) -> Option<PlanReuse> {
        if batch.head() != self.head
            || batch.dtype_bytes() != self.dtype_bytes
            || batch.tables().first().map(BlockTable::block_size)
                != self.tables.first().map(BlockTable::block_size)
        {
            return None;
        }
        let (reuse, patch) = match classify_step_delta(&self.ids, &self.tables, batch) {
            StepDelta::ChainLocal(patch) => (PlanReuse::DeltaPatched, patch),
            // Token-only growth: the forest structure stands, only lengths
            // move.
            StepDelta::Unchanged => (PlanReuse::Frozen, StepPatch::default()),
            StepDelta::Structural => return None,
        };
        // Completions first, largest previous index first, so the pending
        // removals' indices survive the renumbering of each earlier one.
        for &c in patch.completed.iter().rev() {
            self.forest.remove_query(c);
        }
        // Survivors now sit at their new-batch positions (relative order is
        // preserved and arrivals append at the tail), so extension indices
        // address the renumbered forest directly.
        for &e in &patch.extended {
            if !self.forest.extend_query(e, batch.tables()) {
                return None;
            }
        }
        for _ in 0..patch.arrived {
            self.forest.insert_query(batch.tables());
        }
        self.forest.refresh_token_lens(batch.tables());
        // Classification required ids, so this never returns early.
        let ids = batch.query_ids()?;
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.tables.clear();
        self.tables.extend(batch.tables().iter().cloned());
        debug_assert_eq!(
            self.forest,
            PrefixForest::from_block_tables(batch.tables()),
            "patched forest diverged from a scratch rebuild"
        );
        Some(reuse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use kv_cache::BlockId;

    fn table(ids: &[u32], tokens: usize) -> BlockTable {
        BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
    }

    fn batch(rows: &[(&[u32], usize)], ids: &[u64]) -> DecodeBatch {
        let tables = rows.iter().map(|(b, t)| table(b, *t)).collect();
        DecodeBatch::new(HeadConfig::new(32, 8, 128), tables, 2).with_query_ids(ids.to_vec())
    }

    #[test]
    fn capture_requires_ids() {
        let no_ids = DecodeBatch::new(HeadConfig::new(32, 8, 128), vec![table(&[0], 8)], 2);
        assert!(PlanState::capture(&no_ids, no_ids.forest()).is_none());
        let b = batch(&[(&[0], 8)], &[1]);
        assert!(PlanState::capture(&b, b.forest()).is_some());
    }

    #[test]
    fn advance_applies_chain_local_deltas() {
        let b0 = batch(&[(&[0, 1], 32), (&[0, 2], 30), (&[9], 8)], &[10, 11, 12]);
        let mut state = PlanState::capture(&b0, b0.forest()).expect("ids attached");
        // Request 10 completes, 11 crosses a boundary, 13 arrives.
        let b1 = batch(
            &[(&[0, 2, 5], 33), (&[9], 9), (&[20, 21], 19)],
            &[11, 12, 13],
        );
        assert_eq!(state.advance(&b1), Some(PlanReuse::DeltaPatched));
        assert_eq!(state.forest(), &b1.forest());
        assert_eq!(state.ids, [11, 12, 13]);
    }

    #[test]
    fn advance_reports_token_growth_as_frozen() {
        let b0 = batch(&[(&[0, 1], 20), (&[0, 2], 24)], &[10, 11]);
        let mut state = PlanState::capture(&b0, b0.forest()).expect("ids attached");
        let b1 = batch(&[(&[0, 1], 21), (&[0, 2], 25)], &[10, 11]);
        assert!(state.has_blocks_of(&b1));
        assert_eq!(state.advance(&b1), Some(PlanReuse::Frozen));
        assert_eq!(state.forest(), &b1.forest());
    }

    #[test]
    fn advance_rejects_structural_steps() {
        let b0 = batch(&[(&[0, 1], 32), (&[0, 2], 30)], &[10, 11]);
        let mut state = PlanState::capture(&b0, b0.forest()).expect("ids attached");
        // Reordered rows are structural.
        let reordered = batch(&[(&[0, 2], 30), (&[0, 1], 32)], &[11, 10]);
        assert_eq!(state.advance(&reordered), None);
    }

    #[test]
    fn advance_rejects_shape_changes() {
        let b0 = batch(&[(&[0, 1], 32)], &[10]);
        let mut state = PlanState::capture(&b0, b0.forest()).expect("ids attached");
        let other_head = DecodeBatch::new(HeadConfig::new(16, 8, 128), vec![table(&[0, 1], 32)], 2)
            .with_query_ids(vec![10]);
        assert_eq!(state.advance(&other_head), None);
    }
}
