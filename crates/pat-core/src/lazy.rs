//! The lazy-update mechanism (§5.1).
//!
//! The pack scheduler is linear, but invoking it per transformer layer per
//! decode step would still cost. PAT instead (1) reuses planning work across
//! continuous-batching iterations until the block-table *structure* changes
//! (arrivals, departures, or new block assignments — growing the final
//! partial block does not count), and (2) runs the scheduler asynchronously,
//! overlapped with pre-attention work, so its latency is not exposed
//! (validated in Fig. 16 / §8.7).
//!
//! [`LazyPat`] has one reuse mechanism, the maintained [`PlanState`]: a step
//! whose delta against the last planned step is empty (token growth only —
//! the §5.1 lazy hit, [`PlanReuse::Frozen`]) or chain-local
//! ([`PlanReuse::DeltaPatched`]) re-packs the patched forest; anything else
//! falls back to a cold rebuild. Reuse needs stable query ids
//! ([`DecodeBatch::with_query_ids`]); batches without them always plan
//! cold. Every path re-packs, so a plan never differs from a cold one.

use crate::backend::{scheduling_cost_from_counts, PatBackend};
use crate::packer::Pack;
use crate::plan_state::{PlanReuse, PlanState};
use crate::selector::TileError;
use attn_kernel::{DecodeBatch, KernelPlan};
use kv_cache::PrefixForest;
use sim_gpu::GpuSpec;

/// Plan-reuse statistics of the lazy scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Plans whose block structure was unchanged since the last planned
    /// step (empty delta: only token counts grew) — the §5.1 lazy hit.
    pub hits: u64,
    /// Plans re-packed from the incrementally patched forest (chain-local
    /// delta; no forest rebuild).
    pub delta_hits: u64,
    /// Full scheduler invocations (forest rebuild + re-pack).
    pub misses: u64,
}

impl LazyStats {
    fn total(&self) -> u64 {
        self.hits + self.delta_hits + self.misses
    }

    /// Fraction of decode steps planned with an unchanged block structure.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Fraction of decode steps that patched the maintained forest instead
    /// of rebuilding it (delta-planning hits).
    pub fn delta_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.delta_hits as f64 / self.total() as f64
        }
    }
}

/// A PAT scheduler that reuses its planning state across decode steps.
///
/// # Examples
///
/// ```
/// use attn_kernel::DecodeBatch;
/// use attn_math::HeadConfig;
/// use kv_cache::{BlockId, BlockTable};
/// use pat_core::LazyPat;
/// use sim_gpu::GpuSpec;
///
/// let head = HeadConfig::new(32, 8, 128);
/// let spec = GpuSpec::a100_sxm4_80gb();
/// let mut lazy = LazyPat::new();
/// let step = |tokens| DecodeBatch::new(head, vec![
///     BlockTable::new(vec![BlockId(0), BlockId(1)], tokens, 16),
///     BlockTable::new(vec![BlockId(0), BlockId(2)], tokens, 16),
/// ], 2).with_query_ids(vec![7, 8]);
/// lazy.plan(&step(20), &spec); // miss: full packing
/// lazy.plan(&step(21), &spec); // hit: same block structure, +1 token
/// assert_eq!(lazy.stats().misses, 1);
/// assert_eq!(lazy.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct LazyPat {
    backend: PatBackend,
    state: Option<PlanState>,
    last_reuse: Option<PlanReuse>,
    stats: LazyStats,
}

impl Default for LazyPat {
    fn default() -> Self {
        LazyPat::new()
    }
}

impl LazyPat {
    /// Creates a lazy scheduler around full PAT.
    pub fn new() -> Self {
        LazyPat::with_backend(PatBackend::default())
    }

    /// Creates a lazy scheduler around a configured backend.
    pub fn with_backend(backend: PatBackend) -> Self {
        LazyPat {
            backend,
            state: None,
            last_reuse: None,
            stats: LazyStats::default(),
        }
    }

    /// Creates a lazy scheduler around [`PatBackend::from_env`] (tile
    /// policy from `PAT_TILE_POLICY`).
    pub fn from_env() -> Self {
        LazyPat::with_backend(PatBackend::from_env())
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &PatBackend {
        &self.backend
    }

    /// Plan-reuse statistics.
    pub fn stats(&self) -> LazyStats {
        self.stats
    }

    /// How the most recent [`LazyPat::try_plan`] produced its packing, or
    /// `None` before the first plan.
    pub fn last_plan_reuse(&self) -> Option<PlanReuse> {
        self.last_reuse
    }

    /// CPU-side pack-scheduler cost for `batch`, counting the nodes of the
    /// maintained forest when `batch` has the last planned step's block
    /// lists (the serving engine samples this immediately after planning
    /// the same step). Bit-identical to [`PatBackend::scheduling_cost_ns`],
    /// which rebuilds the forest to count its nodes.
    pub fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> f64 {
        match &self.state {
            Some(state) if state.has_blocks_of(batch) => {
                let blocks: usize = batch.tables().iter().map(|t| t.blocks().len()).sum();
                scheduling_cost_from_counts(state.forest().num_nodes(), blocks)
            }
            _ => self.backend.scheduling_cost_ns(batch),
        }
    }

    /// Plans a decode step, patching the maintained plan state when the
    /// step's delta allows it. The plan always equals a cold plan of the
    /// same batch.
    ///
    /// # Panics
    ///
    /// Panics when tile selection fails; [`LazyPat::try_plan`] surfaces the
    /// same condition as a typed [`TileError`] instead.
    pub fn plan(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> KernelPlan {
        match self.try_plan(batch, spec) {
            Ok(plan) => plan,
            Err(e) => panic!("PAT planning failed on {}: {e}", spec.name),
        }
    }

    /// Fallible [`LazyPat::plan`]: surfaces no-feasible-tile conditions as
    /// [`TileError`] so serving replicas can record them instead of
    /// crashing. Reuse statistics are updated either way (the pack stage
    /// itself cannot fail — only tile selection can).
    pub fn try_plan(
        &mut self,
        batch: &DecodeBatch,
        spec: &GpuSpec,
    ) -> Result<KernelPlan, TileError> {
        let packs = self.plan_packs(batch);
        self.backend.try_finish_plan(batch, packs, spec)
    }

    /// Advances the maintained forest by the step's delta when it is empty
    /// or chain-local; rebuilds from scratch otherwise.
    fn plan_packs(&mut self, batch: &DecodeBatch) -> Vec<Pack> {
        let group_size = batch.head().group_size();
        if let Some(mut state) = self.state.take() {
            if let Some(reuse) = state.advance(batch) {
                self.record(reuse);
                let packs = self.backend.pack_from_forest(state.forest(), group_size);
                self.state = Some(state);
                return packs;
            }
            // Structural step (or unpatchable edge): the state may be
            // partially patched — drop it and re-capture below.
        }
        self.record(PlanReuse::Cold);
        let forest = PrefixForest::from_block_tables(batch.tables());
        let packs = self.backend.pack_from_forest(&forest, group_size);
        self.state = PlanState::capture(batch, forest);
        packs
    }

    fn record(&mut self, reuse: PlanReuse) {
        match reuse {
            PlanReuse::Frozen => self.stats.hits += 1,
            PlanReuse::DeltaPatched => self.stats.delta_hits += 1,
            PlanReuse::Cold => self.stats.misses += 1,
        }
        self.last_reuse = Some(reuse);
    }

    /// Drops the maintained plan state, so the next plan is cold (e.g. on
    /// engine reconfiguration).
    pub fn invalidate(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn batch(rows: &[(&[u32], usize)]) -> DecodeBatch {
        let tables = rows
            .iter()
            .map(|(ids, tokens)| {
                BlockTable::new(ids.iter().map(|&i| BlockId(i)).collect(), *tokens, 16)
            })
            .collect();
        DecodeBatch::new(HeadConfig::new(32, 8, 128), tables, 2)
    }

    fn batch_with_ids(rows: &[(&[u32], usize)], ids: &[u64]) -> DecodeBatch {
        batch(rows).with_query_ids(ids.to_vec())
    }

    #[test]
    fn token_growth_hits_the_cache_and_stays_exact() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        let p1 = lazy.plan(
            &batch_with_ids(&[(&[0, 1], 20), (&[0, 2], 24)], &[1, 2]),
            &spec,
        );
        let b2 = batch_with_ids(&[(&[0, 1], 21), (&[0, 2], 25)], &[1, 2]);
        let p2 = lazy.plan(&b2, &spec);
        assert_eq!(
            lazy.stats(),
            LazyStats {
                hits: 1,
                delta_hits: 0,
                misses: 1
            }
        );
        assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::Frozen));
        // The reused plan covers the new token counts exactly.
        p2.validate(&b2).unwrap();
        assert_eq!(p2, LazyPat::new().plan(&b2, &spec));
        let t1: usize = p1.ctas.iter().map(|c| c.kv.tokens * c.queries.len()).sum();
        let t2: usize = p2.ctas.iter().map(|c| c.kv.tokens * c.queries.len()).sum();
        assert_eq!(t2, t1 + 2);
    }

    #[test]
    fn new_block_invalidates() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        lazy.plan(&batch(&[(&[0, 1], 32), (&[0, 2], 32)]), &spec);
        // Query 0 rolled into a fresh block: structure changed.
        let b = batch(&[(&[0, 1, 7], 33), (&[0, 2], 32)]);
        let p = lazy.plan(&b, &spec);
        // Without query ids there is no plan state to patch: both steps are
        // full scheduler invocations.
        assert_eq!(
            lazy.stats(),
            LazyStats {
                hits: 0,
                delta_hits: 0,
                misses: 2
            }
        );
        p.validate(&b).unwrap();
    }

    #[test]
    fn batches_without_ids_always_plan_cold() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        lazy.plan(&batch(&[(&[0, 1], 31), (&[0, 2], 31)]), &spec);
        lazy.plan(&batch(&[(&[0, 1], 32), (&[0, 2], 32)]), &spec);
        lazy.plan(
            &batch(&[(&[0, 1], 32), (&[0, 2], 32), (&[0, 3], 32)]),
            &spec,
        );
        lazy.plan(&batch(&[(&[0, 1], 32)]), &spec);
        assert_eq!(lazy.stats().misses, 4);
        assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::Cold));
    }

    #[test]
    fn explicit_invalidation_forces_repack() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        let b = batch_with_ids(&[(&[0, 1], 32), (&[0, 2], 32)], &[1, 2]);
        lazy.plan(&b, &spec);
        lazy.invalidate();
        lazy.plan(&b, &spec);
        assert_eq!(
            lazy.stats(),
            LazyStats {
                hits: 0,
                delta_hits: 0,
                misses: 2
            }
        );
    }

    #[test]
    fn chain_local_steps_patch_instead_of_rebuilding() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        lazy.plan(
            &batch_with_ids(&[(&[0, 1], 32), (&[0, 2], 32), (&[5], 10)], &[7, 8, 9]),
            &spec,
        );
        // Request 7 crosses a block boundary; 9 completes; 11 arrives.
        let b = batch_with_ids(
            &[(&[0, 1, 3], 33), (&[0, 2], 32), (&[6, 7], 20)],
            &[7, 8, 11],
        );
        let patched = lazy.plan(&b, &spec);
        assert_eq!(
            lazy.stats(),
            LazyStats {
                hits: 0,
                delta_hits: 1,
                misses: 1
            }
        );
        assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::DeltaPatched));
        // The patched plan is identical to what a cold scheduler produces.
        assert_eq!(patched, LazyPat::new().plan(&b, &spec));
    }

    #[test]
    fn id_swap_under_unchanged_blocks_plans_like_cold() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        lazy.plan(
            &batch_with_ids(&[(&[0, 1], 31), (&[0, 2], 31)], &[1, 2]),
            &spec,
        );
        // Same blocks, different identities: not an empty delta, and the
        // plan still equals a cold one.
        let swapped = batch_with_ids(&[(&[0, 1], 32), (&[0, 2], 32)], &[3, 4]);
        assert_eq!(
            lazy.plan(&swapped, &spec),
            LazyPat::new().plan(&swapped, &spec)
        );
        assert_ne!(lazy.last_plan_reuse(), Some(PlanReuse::Frozen));
        // Later deltas are classified against the new identities.
        let next = batch_with_ids(&[(&[0, 1, 5], 33), (&[0, 2], 32)], &[3, 4]);
        assert_eq!(lazy.plan(&next, &spec), LazyPat::new().plan(&next, &spec));
        assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::DeltaPatched));
    }

    #[test]
    fn scheduling_cost_matches_backend_formula() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        let b0 = batch_with_ids(&[(&[0, 1], 32), (&[0, 2], 32)], &[1, 2]);
        // Before any plan: falls back to the batch-walking form.
        assert_eq!(
            lazy.scheduling_cost_ns(&b0),
            lazy.backend().scheduling_cost_ns(&b0)
        );
        lazy.plan(&b0, &spec);
        assert_eq!(
            lazy.scheduling_cost_ns(&b0),
            lazy.backend().scheduling_cost_ns(&b0)
        );
        // After a delta-patched step the recorded cost still matches the
        // scratch formula bit-for-bit.
        let b1 = batch_with_ids(&[(&[0, 1, 4], 33), (&[0, 2], 32)], &[1, 2]);
        lazy.plan(&b1, &spec);
        assert_eq!(lazy.stats().delta_hits, 1);
        assert_eq!(
            lazy.scheduling_cost_ns(&b1),
            lazy.backend().scheduling_cost_ns(&b1)
        );
        // A batch with other blocks than the last plan is costed afresh.
        assert_eq!(
            lazy.scheduling_cost_ns(&b0),
            lazy.backend().scheduling_cost_ns(&b0)
        );
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let spec = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        for tokens in 20..30 {
            lazy.plan(
                &batch_with_ids(&[(&[0, 1], tokens), (&[0, 2], tokens)], &[1, 2]),
                &spec,
            );
        }
        assert!((lazy.stats().hit_rate() - 0.9).abs() < 1e-12);
    }
}
