//! The [`ReplicaModel`] trait, the replica surface fleet drivers consume,
//! and [`Replica`], its one implementation for every fidelity.

use crate::analytical::CountedKv;
use crate::Fidelity;
use kv_cache::{IngestReport, Token};
use serving::{
    CostModel, KvModel, PagedKv, RequestMetrics, Scheduler, ServingAttention, ServingConfig,
    ServingEngine, SimulationResult, StepOutcome,
};
use sim_core::SimTime;
use workloads::Request;

/// One simulated replica, at some fidelity, as a fleet driver sees it.
///
/// This is exactly the surface `cluster` and `controller` consume from a
/// replica: work submission and stepping, load/clock introspection for
/// routers, prefix-warmth probes and KV import for the transfer plane,
/// drain/speed control for the control plane, and final metrics. A model
/// owns its attention backend (unlike [`serving::ServingEngine::step`],
/// [`ReplicaModel::step`] takes no backend argument), so fleets can hold a
/// heterogeneous `Vec<Box<dyn ReplicaModel>>`.
///
/// Implementations must stay on the integer-nanosecond spine and be
/// deterministic per seed: a model's step sequence is a pure function of
/// its own state, never of wall clock, thread count, or other replicas.
/// `Send` is required so fleet drivers can advance independent replicas on
/// `sim_core::par` worker threads between event barriers.
pub trait ReplicaModel: Send + std::fmt::Debug {
    /// The fidelity this model simulates at.
    fn fidelity(&self) -> Fidelity;

    /// Submits a request (must be in non-decreasing arrival order).
    fn submit(&mut self, request: Request);

    /// Runs one scheduling iteration; see [`serving::ServingEngine::step`].
    fn step(&mut self) -> StepOutcome;

    /// The replica's virtual clock.
    fn clock(&self) -> SimTime;

    /// Requests admitted but not yet decoding.
    fn queue_depth(&self) -> usize;

    /// Requests currently in the decode batch.
    fn num_active(&self) -> usize;

    /// Submitted requests not yet completed or dropped.
    fn outstanding(&self) -> usize;

    /// KV block size used for admission and transfer-size accounting.
    fn block_size(&self) -> usize;

    /// Leading prompt tokens this replica would serve without
    /// recomputation, given the prompt's [`kv_cache::chain_hashes`] at
    /// [`ReplicaModel::block_size`]. Read-only: never perturbs cache
    /// recency. Callers probing many replicas hash the prompt once.
    fn chain_overlap_tokens(&self, chain: &[u64]) -> usize;

    /// Token-level prefix-cache `(hit, miss)` counters so far.
    fn cache_hit_miss_tokens(&self) -> (u64, u64);

    /// Hashes of resident full KV blocks, for cross-replica duplication
    /// accounting. Empty for fidelities without block-level residency.
    fn resident_block_hashes(&self) -> Vec<u64>;

    /// Imports migrated KV for the full-block prefix of `tokens`, as if
    /// streamed from a donor replica; see
    /// [`serving::ServingEngine::ingest_prefix`].
    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport;

    /// The roofline cost model pricing this replica's steps.
    fn cost_model(&self) -> &CostModel;

    /// Per-request records of requests completed so far.
    fn completed_requests(&self) -> &[RequestMetrics];

    /// Sets the replica speed factor (1.0 nominal; see
    /// [`serving::ServingEngine::set_speed_factor`]).
    fn set_speed_factor(&mut self, factor: f64);

    /// The current speed factor.
    fn speed_factor(&self) -> f64;

    /// Enters drain mode: serve what is queued, reject new submissions.
    fn begin_drain(&mut self);

    /// Removes and returns every incomplete request, in arrival order, for
    /// resubmission elsewhere (failover and fidelity switches).
    fn take_incomplete(&mut self) -> Vec<Request>;

    /// Finalizes the replica, consuming it.
    fn into_result(self: Box<Self>) -> SimulationResult;
}

/// A [`KvModel`] a fleet replica can run on: the fidelity it simulates at,
/// and the prefix-cache counters a fleet reads beyond the scheduler seam.
pub trait ReplicaKv: KvModel {
    /// The fidelity this KV model simulates at.
    const FIDELITY: Fidelity;

    /// Token-level prefix-cache `(hit, miss)` counters so far.
    fn hit_miss_tokens(&self) -> (u64, u64);

    /// Hashes of resident full KV blocks, for cross-replica duplication
    /// accounting. Empty for fidelities that opt out.
    fn resident_block_hashes(&self) -> Vec<u64>;
}

impl ReplicaKv for PagedKv {
    const FIDELITY: Fidelity = Fidelity::Exact;

    fn hit_miss_tokens(&self) -> (u64, u64) {
        let stats = self.cache().stats();
        (stats.hit_tokens, stats.miss_tokens)
    }

    fn resident_block_hashes(&self) -> Vec<u64> {
        self.cache().resident_hashes().collect()
    }
}

/// A replica at one fidelity: the serving [`Scheduler`] over the
/// fidelity's KV model, owning the attention backend its decode steps
/// borrow (`()` for a model that plans nothing).
pub struct Replica<K: ReplicaKv> {
    engine: Scheduler<K>,
    attention: Box<K::Attention<'static>>,
}

/// The reference fidelity: the full [`ServingEngine`] over the kernel
/// simulator, with the engine's bounded step-simulation cache.
pub type ExactReplica = Replica<PagedKv>;

/// The closed-form fidelity: the scheduler over a [`CountedKv`] pool; see
/// the `analytical` module docs.
pub type AnalyticalReplica = Replica<CountedKv>;

impl ExactReplica {
    /// A fresh exact replica with an empty KV cache.
    pub fn new(config: ServingConfig, backend: Box<dyn ServingAttention>) -> Self {
        Replica {
            engine: ServingEngine::new(config),
            attention: backend,
        }
    }
}

impl AnalyticalReplica {
    /// A fresh analytical replica over an empty [`CountedKv`] pool.
    pub fn new(config: ServingConfig) -> Self {
        let kv = CountedKv::new(&config);
        Replica {
            engine: Scheduler::with_kv(config, kv),
            attention: Box::new(()),
        }
    }
}

impl<K: ReplicaKv> std::fmt::Debug for Replica<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("fidelity", &K::FIDELITY)
            .field("clock", &self.engine.clock())
            .field("outstanding", &self.engine.outstanding())
            .finish_non_exhaustive()
    }
}

impl<K: ReplicaKv> ReplicaModel for Replica<K>
where
    Scheduler<K>: Send,
    K::Attention<'static>: Send,
{
    fn fidelity(&self) -> Fidelity {
        K::FIDELITY
    }

    fn submit(&mut self, request: Request) {
        self.engine.submit(request);
    }

    fn step(&mut self) -> StepOutcome {
        self.engine.step(&mut *self.attention)
    }

    fn clock(&self) -> SimTime {
        self.engine.clock()
    }

    fn queue_depth(&self) -> usize {
        self.engine.queue_depth()
    }

    fn num_active(&self) -> usize {
        self.engine.num_active()
    }

    fn outstanding(&self) -> usize {
        self.engine.outstanding()
    }

    fn block_size(&self) -> usize {
        self.engine.kv().block_size()
    }

    fn chain_overlap_tokens(&self, chain: &[u64]) -> usize {
        self.engine.kv().chain_overlap_tokens(chain)
    }

    fn cache_hit_miss_tokens(&self) -> (u64, u64) {
        self.engine.kv().hit_miss_tokens()
    }

    fn resident_block_hashes(&self) -> Vec<u64> {
        self.engine.kv().resident_block_hashes()
    }

    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        self.engine.ingest_prefix(tokens)
    }

    fn cost_model(&self) -> &CostModel {
        self.engine.cost_model()
    }

    fn completed_requests(&self) -> &[RequestMetrics] {
        self.engine.completed_requests()
    }

    fn set_speed_factor(&mut self, factor: f64) {
        self.engine.set_speed_factor(factor);
    }

    fn speed_factor(&self) -> f64 {
        self.engine.speed_factor()
    }

    fn begin_drain(&mut self) {
        self.engine.begin_drain();
    }

    fn take_incomplete(&mut self) -> Vec<Request> {
        self.engine.take_incomplete()
    }

    fn into_result(self: Box<Self>) -> SimulationResult {
        self.engine.into_result()
    }
}

/// Builds a replica model of the given fidelity.
///
/// `backend` builds the attention planner of the exact fidelity; it is
/// called only for that fidelity. An analytical replica runs no planner
/// (its calibration table was fitted against the PAT backend — see
/// [`crate::calibration`]).
pub fn new_replica(
    fidelity: Fidelity,
    config: &ServingConfig,
    backend: impl FnOnce() -> Box<dyn ServingAttention>,
) -> Box<dyn ReplicaModel> {
    match fidelity {
        Fidelity::Exact => Box::new(ExactReplica::new(config.clone(), backend())),
        Fidelity::Analytical => Box::new(AnalyticalReplica::new(config.clone())),
    }
}
