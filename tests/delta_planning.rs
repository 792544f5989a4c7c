//! Equivalence and determinism tests for incremental delta-planning: a
//! [`LazyPat`] that patches its maintained [`PlanState`] across chain-local
//! decode steps must produce plans identical to a from-scratch planner, for
//! arbitrary delta sequences, on every GPU model, under both tile policies —
//! and reusing plan state must not change any simulated output.

use pat::prelude::*;
use pat_core::{PackingPolicy, PatConfig, PlanReuse};
use proptest::prelude::*;
use serving::ServingAttention;

const BLOCK_SIZE: usize = 16;

/// One scripted mutation of the running batch.
#[derive(Debug, Clone)]
enum DeltaOp {
    /// A request finishes and leaves the batch (index modulo live count).
    Complete(usize),
    /// Every surviving request decodes one token (the common decode step).
    GrowAll,
    /// One request decodes a token (ragged generation lengths).
    GrowOne(usize),
    /// A new request arrives sharing `shared` prefix blocks, with `tail`
    /// private tokens.
    Arrive { shared: usize, tail: usize },
}

fn op_strategy() -> impl Strategy<Value = DeltaOp> {
    // (The vendored proptest has no `prop_oneof`; pick the variant by index.)
    (0u8..4, 0usize..8, 1usize..40).prop_map(|(kind, i, tail)| match kind {
        0 => DeltaOp::Complete(i),
        1 => DeltaOp::GrowAll,
        2 => DeltaOp::GrowOne(i),
        _ => DeltaOp::Arrive {
            shared: 1 + i % SHARED_POOL,
            tail,
        },
    })
}

/// The mutable workload the ops act on: live `(query id, block ids, tokens)`
/// rows plus counters for fresh ids. Blocks `0..SHARED` are the shared pool.
struct Workload {
    rows: Vec<(u64, Vec<BlockId>, usize)>,
    next_id: u64,
    next_block: u32,
}

const SHARED_POOL: usize = 3;

impl Workload {
    fn seed() -> Self {
        let mut w = Workload {
            rows: Vec::new(),
            next_id: 0,
            next_block: SHARED_POOL as u32,
        };
        // Two initial requests sharing the whole pool, distinct tails.
        w.arrive(SHARED_POOL, 5);
        w.arrive(SHARED_POOL, 21);
        w
    }

    fn arrive(&mut self, shared: usize, tail_tokens: usize) {
        let shared = shared.min(SHARED_POOL);
        let mut blocks: Vec<BlockId> = (0..shared as u32).map(BlockId).collect();
        let mut tokens = shared * BLOCK_SIZE;
        let tail_blocks = tail_tokens.div_ceil(BLOCK_SIZE);
        for _ in 0..tail_blocks {
            blocks.push(BlockId(self.next_block));
            self.next_block += 1;
        }
        tokens += tail_tokens;
        self.rows.push((self.next_id, blocks, tokens));
        self.next_id += 1;
    }

    fn grow(&mut self, i: usize) {
        let (_, blocks, tokens) = &mut self.rows[i];
        if *tokens == blocks.len() * BLOCK_SIZE {
            blocks.push(BlockId(self.next_block));
            self.next_block += 1;
        }
        *tokens += 1;
    }

    fn apply(&mut self, op: &DeltaOp) {
        match *op {
            DeltaOp::Complete(i) => {
                // Keep at least one request so every step has a batch.
                if self.rows.len() > 1 {
                    let i = i % self.rows.len();
                    self.rows.remove(i);
                }
            }
            DeltaOp::GrowAll => {
                for i in 0..self.rows.len() {
                    self.grow(i);
                }
            }
            DeltaOp::GrowOne(i) => {
                let i = i % self.rows.len();
                self.grow(i);
            }
            DeltaOp::Arrive { shared, tail } => {
                if self.rows.len() < 8 {
                    self.arrive(shared, tail);
                }
            }
        }
    }

    fn batch(&self, head: HeadConfig) -> DecodeBatch {
        let tables = self
            .rows
            .iter()
            .map(|(_, blocks, tokens)| BlockTable::new(blocks.clone(), *tokens, BLOCK_SIZE))
            .collect();
        let ids = self.rows.iter().map(|(id, _, _)| *id).collect();
        DecodeBatch::new(head, tables, 2).with_query_ids(ids)
    }
}

/// Replays `ops` through a [`LazyPat`] and a from-scratch
/// [`PatBackend`] with the same config, asserting plan equality every step.
fn assert_incremental_matches_scratch(
    ops: &[DeltaOp],
    config: PatConfig,
    spec: &GpuSpec,
    head: HeadConfig,
) -> Result<(), TestCaseError> {
    let scratch = PatBackend::with_config(config);
    let mut lazy = LazyPat::with_backend(PatBackend::with_config(config));
    let mut workload = Workload::seed();
    for (step, op) in std::iter::once(None)
        .chain(ops.iter().map(Some))
        .enumerate()
    {
        if let Some(op) = op {
            workload.apply(op);
        }
        let batch = workload.batch(head);
        let incremental = lazy.plan(&batch, spec);
        let from_scratch = scratch.plan(&batch, spec);
        prop_assert_eq!(
            &incremental,
            &from_scratch,
            "plans diverged at step {} after {:?} (reuse={:?})",
            step,
            op,
            lazy.last_plan_reuse()
        );
        // The cost estimate served from the patched state must match the
        // backend's from-scratch walk exactly.
        let cost = lazy.scheduling_cost_ns(&batch);
        prop_assert_eq!(cost.to_bits(), scratch.scheduling_cost_ns(&batch).to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary delta sequences (completions, growth, arrivals) produce
    /// bit-identical plans whether planned incrementally or from scratch,
    /// on every GPU model.
    #[test]
    fn incremental_plans_match_scratch_on_every_gpu(
        ops in prop::collection::vec(op_strategy(), 1..8),
    ) {
        // head_dim 128 is feasible on every curated model (TPU-like included).
        let head = HeadConfig::new(32, 8, 128);
        for model in GpuModel::all() {
            assert_incremental_matches_scratch(&ops, PatConfig::default(), &model.spec(), head)?;
        }
    }

    /// Same equivalence under the autotuned tile policy and the non-default
    /// packing policies (the delta path feeds `pack_from_forest`, which must
    /// dispatch identically to the scratch path for every policy).
    #[test]
    fn incremental_plans_match_scratch_under_every_policy(
        ops in prop::collection::vec(op_strategy(), 1..8),
    ) {
        let spec = GpuSpec::a100_sxm4_80gb();
        for tile_policy in [TilePolicyKind::Heuristic, TilePolicyKind::Autotuned] {
            for packing in [
                PackingPolicy::MemoryProfit,
                PackingPolicy::ComputeCost,
                PackingPolicy::Naive,
            ] {
                let config = PatConfig { tile_policy, packing, ..PatConfig::default() };
                assert_incremental_matches_scratch(&ops, config, &spec, HeadConfig::new(8, 4, 32))?;
            }
        }
    }
}

/// A completion that crosses the §5.1 profit threshold: with five queries
/// under the shared node, `4 * s_i = 20 > l_u = 16` merges the group; after
/// one completes, `4 * 4 = 16 > 16` is false and the packer must split. The
/// completion is chain-local, so the delta path — not a cold rebuild — has
/// to re-evaluate the profit rule and flip the decision.
#[test]
fn profit_threshold_flip_is_replanned_on_the_delta_path() {
    let head = HeadConfig::new(8, 4, 32);
    let spec = GpuSpec::a100_sxm4_80gb();
    let scratch = PatBackend::new();
    let mut lazy = LazyPat::new();

    // Parent chain: block A (16 tokens). Five queries continue through B,
    // each with a private tail block; a sixth goes through C so the tree
    // keeps a fork above B and B stays an interior node.
    let a = BlockId(0);
    let b = BlockId(1);
    let c = BlockId(2);
    let tables = |n: usize| -> Vec<BlockTable> {
        let mut t: Vec<BlockTable> = (0..n)
            .map(|q| {
                BlockTable::new(
                    vec![a, b, BlockId(10 + q as u32)],
                    3 * BLOCK_SIZE,
                    BLOCK_SIZE,
                )
            })
            .collect();
        t.push(BlockTable::new(vec![a, c], 2 * BLOCK_SIZE, BLOCK_SIZE));
        t
    };
    let ids = |n: usize| -> Vec<u64> { (0..n as u64 + 1).collect() };

    let step1 = DecodeBatch::new(head, tables(5), 2).with_query_ids(ids(5));
    let plan1 = lazy.plan(&step1, &spec);
    assert_eq!(plan1, scratch.plan(&step1, &spec));
    assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::Cold));

    // Query 4 completes — a chain-local delta flipping 4*s_i > l_u at B.
    let mut t2 = tables(5);
    t2.remove(4);
    let mut i2 = ids(5);
    i2.remove(4);
    let step2 = DecodeBatch::new(head, t2, 2).with_query_ids(i2);
    let plan2 = lazy.plan(&step2, &spec);
    assert_eq!(
        lazy.last_plan_reuse(),
        Some(PlanReuse::DeltaPatched),
        "a single completion must take the delta path, not a cold rebuild"
    );
    assert_eq!(plan2, scratch.plan(&step2, &spec));
    assert_ne!(
        plan1.ctas.len(),
        plan2.ctas.len(),
        "crossing the profit threshold must change the packing"
    );
}

/// The cold reference planner: a [`LazyPat`] that drops its plan state
/// before every step, so each plan is a scratch rebuild.
struct AlwaysCold(LazyPat);

impl ServingAttention for AlwaysCold {
    fn name(&self) -> String {
        self.0.name()
    }

    fn plan_step(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> Result<KernelPlan, TileError> {
        self.0.invalidate();
        self.0.plan_step(batch, spec)
    }

    fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> Option<f64> {
        ServingAttention::scheduling_cost_ns(&self.0, batch)
    }

    fn last_plan_reuse(&self) -> Option<PlanReuse> {
        self.0.last_plan_reuse()
    }
}

/// A controller scenario (crash, failover, autoscaling) produces
/// byte-identical results across repeated runs, at 1 vs 4 simulation
/// threads, and with plan-state reuse vs a planner that always plans cold —
/// incremental planning is a pure wall-clock optimization.
#[test]
fn controller_scenario_is_byte_identical_across_threads_and_plan_cache() {
    use controller::{
        AutoscalerConfig, ControllerConfig, FaultEvent, FaultKind, FaultPlan, FleetController,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serving::{ModelSpec, ServingConfig};
    use workloads::{generate_trace_at, BurstyArrivals, TraceKind};

    let run = |cold: bool| {
        let mut rng = StdRng::seed_from_u64(7);
        let arrivals = BurstyArrivals::new(6.0, vec![]).take_until(4.0, &mut rng);
        let trace = generate_trace_at(TraceKind::ToolAgent, &arrivals, 7);
        let engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
        let mut config = ControllerConfig::managed(2, engine);
        config.autoscaler = Some(AutoscalerConfig::new(2, 3));
        let faults = FaultPlan::scripted(vec![FaultEvent {
            at_s: 1.5,
            kind: FaultKind::Crash {
                replica: 0,
                restart_after_s: Some(1.0),
            },
        }]);
        let router: Box<dyn Router> = Box::new(PrefixAffinity::new());
        let result = FleetController::new(
            config,
            router,
            faults,
            move || -> Box<dyn ServingAttention> {
                if cold {
                    Box::new(AlwaysCold(LazyPat::from_env()))
                } else {
                    Box::new(LazyPat::from_env())
                }
            },
        )
        .run(&trace);
        assert!(result.completed > 0, "scenario must exercise the fleet");
        // Debug formatting round-trips every f64 exactly, so string equality
        // is byte-identity of the full result payload.
        format!("{result:?}")
    };

    sim_core::par::set_thread_override(Some(1));
    let baseline = run(false);
    assert_eq!(baseline, run(false), "double run must be byte-identical");
    assert_eq!(
        baseline,
        run(true),
        "always-cold planning must not change outputs"
    );

    sim_core::par::set_thread_override(Some(4));
    assert_eq!(
        baseline,
        run(false),
        "1 vs 4 threads must be byte-identical"
    );
    assert_eq!(baseline, run(true), "always-cold planning at 4 threads");

    sim_core::par::set_thread_override(None);
}
