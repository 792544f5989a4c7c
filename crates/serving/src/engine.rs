//! The continuous-batching scheduler (vLLM-style, §8.4).
//!
//! Simulates online serving in virtual time: requests arrive (Poisson),
//! prefills admit them into the running batch (prefix-reusing KV cache),
//! and every decode step prices its attention and advances the clock.
//! Produces the TTFT/TPOT metrics of Fig. 12/13 and the scheduler-overhead
//! samples of Fig. 16.
//!
//! [`Scheduler`] holds every scheduling rule — watermark admission,
//! prefill-priority or chunked prefill, continuous batching, youngest-first
//! recompute preemption, the decode-step price formula, drain and failover
//! — once, generic over one seam, [`KvModel`]: how a replica holds and
//! counts KV blocks and how it prices a decode step's attention.
//! [`ServingEngine`] is the scheduler over the paged KV cache and the
//! kernel simulator (the exact fidelity); the `replica-fidelity` crate runs
//! the same scheduler over counted blocks and a calibrated closed form.
//!
//! The engine is exposed in two forms: the one-shot [`simulate_serving`]
//! (submit a whole sorted trace, run to completion) and the steppable
//! [`ServingEngine`], which external drivers — notably the fleet
//! controller — advance one scheduling iteration at a time via
//! [`Scheduler::step`], interleaving [`Scheduler::submit`] calls as routed
//! requests arrive. `simulate_serving` is a thin wrapper over the steppable
//! engine, so both paths execute identical scheduling decisions.

use crate::costs::CostModel;
use crate::metrics::{AggregateMetrics, RequestMetrics};
use crate::model::ModelSpec;
use crate::paged::PagedKv;
use crate::ServingAttention;
use attn_kernel::StepSimStats;
use kv_cache::{AllocError, IngestReport, Token};
use serde::Serialize;
use sim_core::{SimDuration, SimTime};
use sim_gpu::{gpu_model_from_env, GpuSpec};
use std::collections::VecDeque;
use workloads::Request;

/// Tensor/pipeline parallel layout (§8.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Tensor-parallel ways (divides attention heads and weight shards).
    pub tp: usize,
    /// Pipeline-parallel stages (divides layers).
    pub pp: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism { tp: 1, pp: 1 }
    }
}

impl Parallelism {
    /// Single-GPU layout.
    pub fn single() -> Self {
        Parallelism::default()
    }
}

/// Serving-engine configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The served model.
    pub model: ModelSpec,
    /// The GPU (per device).
    pub gpu: GpuSpec,
    /// Parallel layout.
    pub parallel: Parallelism,
    /// Maximum concurrent decode requests.
    pub max_batch: usize,
    /// Maximum prompt tokens per prefill step.
    pub max_prefill_tokens: usize,
    /// KV pool size in blocks.
    pub kv_capacity_blocks: usize,
    /// Stop simulating this long after the last arrival (drain limit), s.
    pub drain_limit_s: f64,
    /// Mix prefill chunks into decode steps (vLLM chunked prefill) instead
    /// of running whole prefills with priority. Smooths TPOT spikes at the
    /// cost of slightly slower time-to-first-token for short prompts.
    pub chunked_prefill: bool,
}

impl ServingConfig {
    /// A sensible single-GPU configuration for `model`. The device comes
    /// from the `PAT_GPU_MODEL` environment knob, defaulting to the
    /// paper's A100 testbed when unset.
    pub fn single_gpu(model: ModelSpec) -> Self {
        ServingConfig {
            model,
            gpu: gpu_model_from_env().spec(),
            parallel: Parallelism::single(),
            max_batch: 128,
            max_prefill_tokens: 8192,
            kv_capacity_blocks: 400_000,
            drain_limit_s: 600.0,
            chunked_prefill: false,
        }
    }
}

/// Result of one serving simulation.
#[derive(Debug, Clone, Serialize)]
pub struct SimulationResult {
    /// Aggregate metrics over completed requests.
    pub metrics: AggregateMetrics,
    /// Per-request records (completed only).
    pub per_request: Vec<RequestMetrics>,
    /// Decode steps executed.
    pub decode_steps: usize,
    /// Mean decode batch size.
    pub mean_batch: f64,
    /// Attention share of total decode-step time, in `[0, 1]`.
    pub attention_fraction: f64,
    /// Per-step `(scheduler, pre-attention)` cost samples in ns, when the
    /// backend reports scheduling costs (Fig. 16). With step-simulation
    /// memoization these are sampled once per scheduler *invocation* — that
    /// is, on cache misses; cached steps run no scheduler at all.
    pub overhead_samples: Vec<(f64, f64)>,
    /// Step-simulation cache counters (hits skip the sim-gpu event loop).
    pub step_sim: StepSimStats,
    /// Requests dropped at the drain limit (overload indicator).
    pub unfinished: usize,
    /// Recompute preemptions forced by KV-pool pressure.
    pub preemptions: u64,
    /// Requests dropped because they can never fit the KV pool.
    pub dropped: u64,
    /// Tile-selection failure that halted the replica, if any (e.g. a
    /// device/geometry with no feasible tile). `None` on a clean run; when
    /// set, the engine stopped planning and the remaining requests count
    /// as unfinished.
    pub plan_error: Option<String>,
    /// Any [`EngineError`] that halted the replica, rendered as text —
    /// plan failures (also in [`plan_error`](SimulationResult::plan_error))
    /// plus kernel-simulation and KV-cache bookkeeping faults. `None` on a
    /// clean run.
    pub fault: Option<String>,
}

/// A broken engine invariant that halted the replica. Recorded rather than
/// panicked: a fleet driver sees one stopped replica (its in-flight work
/// counted as unfinished), not a crashed simulation process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Tile selection failed: the device/geometry admits no feasible tile.
    Plan(String),
    /// A backend-produced plan failed kernel simulation.
    Simulate(String),
    /// KV-cache bookkeeping diverged from the scheduler's view of it.
    Cache {
        /// The cache operation that failed.
        op: &'static str,
        /// The underlying allocator/cache error.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "tile planning failed: {e}"),
            EngineError::Simulate(e) => write!(f, "kernel simulation rejected a backend plan: {e}"),
            EngineError::Cache { op, detail } => {
                write!(f, "KV-cache bookkeeping fault in `{op}`: {detail}")
            }
        }
    }
}

/// What one [`Scheduler::step`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The engine advanced: admitted requests, ran a prefill or decode step,
    /// or jumped its idle clock to the next pending arrival.
    Progress,
    /// Nothing to do: every submitted request has been processed (or the
    /// drain deadline has passed). Submitting more work revives the engine.
    Idle,
}

/// The fidelity seam of [`Scheduler`]: how a replica holds and counts KV
/// blocks, and how it prices a decode step's attention. Everything else is
/// the scheduler's, written once for every fidelity.
pub trait KvModel {
    /// The KV one prefilling or decoding request holds.
    type Seq: std::fmt::Debug;
    /// What pricing a decode step borrows from the caller of
    /// [`Scheduler::step`]: the attention backend, or `()` for a model
    /// that plans nothing.
    type Attention<'a>: ?Sized;

    /// Tokens per KV block.
    fn block_size(&self) -> usize;

    /// Blocks in the whole pool.
    fn capacity_blocks(&self) -> usize;

    /// Blocks obtainable right now.
    fn available_blocks(&self) -> usize;

    /// Places a prompt's KV. Returns the request's holding and how many
    /// leading prompt tokens were already resident (the prefill discount),
    /// or [`AllocError::OutOfBlocks`] when the pool cannot hold the prompt.
    fn admit(&mut self, prompt: &[Token]) -> Result<(Self::Seq, usize), AllocError>;

    /// Grows a holding by one decode token, or fails with
    /// [`AllocError::OutOfBlocks`] (the scheduler preempts and retries).
    fn append(&mut self, seq: &mut Self::Seq) -> Result<(), AllocError>;

    /// Releases a holding; an error is a bookkeeping fault.
    fn free(&mut self, seq: Self::Seq) -> Result<(), AllocError>;

    /// Leading prompt tokens resident, given the prompt's
    /// [`kv_cache::chain_hashes`] at [`KvModel::block_size`]. Read-only.
    fn chain_overlap_tokens(&self, chain: &[u64]) -> usize;

    /// Imports migrated KV for the full-block prefix of `tokens`.
    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport;

    /// Prices one decode step's attention over `batch`, in batch order. An
    /// error (a planning or kernel-simulation fault) halts the replica.
    fn price_decode(
        &mut self,
        attention: &mut Self::Attention<'_>,
        batch: &[Running<Self::Seq>],
    ) -> Result<AttnPrice, EngineError>;

    /// Step-simulation cache counters (zero for a model that simulates no
    /// steps).
    fn step_sim_stats(&self) -> StepSimStats {
        StepSimStats::default()
    }
}

/// One decode step's attention price, from [`KvModel::price_decode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttnPrice {
    /// Kernel time of one layer, ns; it repeats on every layer.
    pub kernel_ns: f64,
    /// Exposed CPU scheduling time, ns, paid once per step (the plan's
    /// metadata is shared across layers).
    pub sched_ns: f64,
    /// CPU cost of the attention scheduler run this step invoked, for the
    /// Fig. 16 overhead samples. `None` when no scheduler ran (a replayed
    /// step) or the backend reports none.
    pub scheduler_run_ns: Option<f64>,
}

/// A request in the decode batch.
#[derive(Debug)]
pub struct Running<S> {
    /// The request id (the batch's stable query id).
    pub id: u64,
    /// The KV the request holds.
    pub seq: S,
    req_idx: usize,
    produced: usize,
    target: usize,
    first_token: SimTime,
    arrival: SimTime,
}

/// An admitted request: its prompt KV is placed, its prompt compute is
/// not yet (fully) charged.
#[derive(Debug)]
struct Prefilling<S> {
    req_idx: usize,
    seq: S,
    /// Prompt tokens still to compute.
    remaining: usize,
}

/// A steppable continuous-batching scheduler over one replica.
///
/// Holds the complete scheduler state — the KV model, waiting/prefilling/
/// decoding queues, virtual clock, and metric accumulators — and advances
/// one scheduling iteration per [`step`](Scheduler::step) call. What
/// pricing borrows (the attention backend) is passed into `step` rather
/// than owned, so a fleet driver can keep engines and backends in separate
/// collections.
///
/// When the KV pool runs out, the scheduler preempts the most recently
/// arrived running request (vLLM's recompute policy): its blocks are freed
/// and it restarts from prefill once space frees up.
#[derive(Debug)]
pub struct Scheduler<K: KvModel> {
    config: ServingConfig,
    cost: CostModel,
    layers_per_stage: usize,
    kv: K,
    requests: Vec<Request>,
    waiting: VecDeque<usize>,
    prefilling: VecDeque<Prefilling<K::Seq>>,
    active: Vec<Running<K::Seq>>,
    completed: Vec<RequestMetrics>,
    next_arrival: usize,
    clock: SimTime,
    decode_steps: usize,
    batch_acc: usize,
    attn_time: SimDuration,
    total_time: SimDuration,
    overhead_samples: Vec<(f64, f64)>,
    preemptions: u64,
    dropped: u64,
    speed_factor: f64,
    draining: bool,
    /// First invariant fault that halted this replica, if any.
    fault: Option<EngineError>,
}

/// The exact serving engine: the [`Scheduler`] over the paged,
/// prefix-reusing KV cache, pricing every decode step by planning it
/// through the attention backend and simulating the plan on the GPU model.
pub type ServingEngine = Scheduler<PagedKv>;

impl<K: KvModel> Scheduler<K> {
    /// An idle scheduler serving `config` over the KV model `kv`.
    pub fn with_kv(config: ServingConfig, kv: K) -> Self {
        let cost = CostModel::with_tp(config.model, config.gpu.clone(), config.parallel.tp);
        let layers_per_stage = config.model.num_layers.div_ceil(config.parallel.pp);
        Scheduler {
            config,
            cost,
            layers_per_stage,
            kv,
            requests: Vec::new(),
            waiting: VecDeque::new(),
            prefilling: VecDeque::new(),
            active: Vec::new(),
            completed: Vec::new(),
            next_arrival: 0,
            clock: SimTime::ZERO,
            decode_steps: 0,
            batch_acc: 0,
            attn_time: SimDuration::ZERO,
            total_time: SimDuration::ZERO,
            overhead_samples: Vec::new(),
            preemptions: 0,
            dropped: 0,
            speed_factor: 1.0,
            draining: false,
            fault: None,
        }
    }

    /// Records the first fault and discards later ones: the first broken
    /// invariant is the cause, anything after it is a symptom of the
    /// already-corrupt state.
    fn record_fault(&mut self, fault: EngineError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    fn record_cache_fault(&mut self, op: &'static str, detail: impl std::fmt::Display) {
        self.record_fault(EngineError::Cache {
            op,
            detail: detail.to_string(),
        });
    }

    /// Submits a request. Requests must be submitted in arrival order; the
    /// engine admits each once its virtual clock reaches the arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `request` arrives before a previously submitted request,
    /// or if the engine is draining (a draining replica must not receive
    /// new work; route it elsewhere).
    pub fn submit(&mut self, request: Request) {
        assert!(!self.draining, "cannot submit to a draining engine");
        if let Some(last) = self.requests.last() {
            assert!(
                last.arrival_s <= request.arrival_s,
                "requests must be submitted in arrival order"
            );
        }
        self.requests.push(request);
    }

    /// The engine's virtual clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// The KV model, for read-only introspection.
    pub fn kv(&self) -> &K {
        &self.kv
    }

    /// Requests admitted but not yet decoding (waiting + mid-prefill).
    pub fn queue_depth(&self) -> usize {
        self.waiting.len() + self.prefilling.len()
    }

    /// Requests currently in the decode batch.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// Submitted requests not yet completed or dropped (includes requests
    /// whose arrival time is still in the engine's future).
    pub fn outstanding(&self) -> usize {
        self.waiting.len()
            + self.prefilling.len()
            + self.active.len()
            + (self.requests.len() - self.next_arrival)
    }

    /// Ingests migrated KV for the full-block prefix of `tokens` without
    /// computing it, as if streamed from a donor replica over the KV
    /// movement plane. Subsequent prompts sharing the prefix get the
    /// ordinary prefill discount, so only the uncovered suffix pays
    /// compute. Returns the ingest report (how many tokens are now
    /// resident, and how many this call actually imported); under memory
    /// pressure the import stops at the longest prefix that fits.
    pub fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        self.kv.ingest_prefix(tokens)
    }

    /// The cost model pricing this replica's prefill and decode steps (used
    /// by the controller's migrate-vs-recompute decision).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Per-request records of requests completed so far.
    pub fn completed_requests(&self) -> &[RequestMetrics] {
        &self.completed
    }

    /// Ids of the requests currently in the decode batch, in batch order.
    pub fn active_request_ids(&self) -> Vec<u64> {
        self.active.iter().map(|a| a.id).collect()
    }

    /// Sets the replica's speed factor: 1.0 is nominal, 0.5 makes every
    /// prefill and decode step take twice as long (a straggler), values
    /// above 1.0 model a faster part. Virtual time already spent is not
    /// rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn set_speed_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed factor must be positive and finite"
        );
        self.speed_factor = factor;
    }

    /// The replica's current speed factor (1.0 = nominal).
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Puts the engine into drain mode: it keeps serving everything already
    /// submitted but rejects new submissions. Used for graceful scale-down —
    /// the fleet controller stops routing here, waits for
    /// [`outstanding`](Scheduler::outstanding) to reach zero, then retires
    /// the replica.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether the engine is in drain mode.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Removes and returns every submitted-but-incomplete request — queued,
    /// mid-prefill, decoding, or not yet admitted — in arrival order, for
    /// resubmission on another replica. Their KV is freed through the same
    /// path as KV-pressure preemption (partial output discarded), so a
    /// requeued request restarts from prefill wherever it lands next; these
    /// evictions are failover requeues, not pressure preemptions, and do
    /// not count in [`SimulationResult::preemptions`].
    pub fn take_incomplete(&mut self) -> Vec<Request> {
        let mut indices: Vec<usize> = Vec::new();
        let mut free_fault: Option<AllocError> = None;
        let held = self.active.drain(..).map(|a| (a.req_idx, a.seq));
        let held = held.chain(self.prefilling.drain(..).map(|p| (p.req_idx, p.seq)));
        for (req_idx, seq) in held {
            // The request is still handed back for resubmission elsewhere;
            // the freeing fault halts only this (now-retiring) replica.
            if let Err(e) = self.kv.free(seq) {
                free_fault = Some(e);
            }
            indices.push(req_idx);
        }
        if let Some(e) = free_fault {
            self.record_cache_fault("free_sequence (failover eviction)", e);
        }
        indices.extend(self.waiting.drain(..));
        indices.extend(self.next_arrival..self.requests.len());
        self.next_arrival = self.requests.len();
        // Submission order is arrival order, so sorting by index restores it.
        indices.sort_unstable();
        indices.dedup();
        indices
            .into_iter()
            .map(|i| self.requests[i].clone())
            .collect()
    }

    /// Drain deadline: this long past the latest submitted arrival, the
    /// engine stops (remaining requests count as unfinished).
    fn deadline(&self) -> SimTime {
        self.requests
            .last()
            .map_or(SimTime::ZERO, |r| SimTime::from_secs_f64(r.arrival_s))
            + SimDuration::from_secs_f64(self.config.drain_limit_s)
    }

    /// Frees the most recently arrived running request and requeues it for
    /// recompute. Returns whether there was one.
    fn preempt_latest(&mut self) -> bool {
        let Some((victim, _)) = self
            .active
            .iter()
            .enumerate()
            .max_by_key(|(_, a)| a.arrival)
        else {
            return false;
        };
        let a = self.active.swap_remove(victim);
        // A failed free corrupts the pool accounting: record the fault (the
        // step loop halts on it) but still requeue the victim, so it is
        // counted as unfinished rather than silently lost.
        if let Err(e) = self.kv.free(a.seq) {
            self.record_cache_fault("free_sequence (preemption)", e);
        }
        self.waiting.push_front(a.req_idx);
        true
    }

    /// Runs one scheduling iteration: admit arrivals, then either prefill,
    /// decode (with an optional chunked-prefill share), or jump the idle
    /// clock forward to the next pending arrival.
    ///
    /// # Panics
    ///
    /// Panics if a single request exceeds the KV pool even with every other
    /// request preempted.
    pub fn step(&mut self, attention: &mut K::Attention<'_>) -> StepOutcome {
        // A faulted replica is halted: no further scheduling, in-flight
        // requests surface as unfinished in `into_result`.
        if self.fault.is_some() {
            return StepOutcome::Idle;
        }
        // Admit arrivals. Arrival seconds quantize onto the integer spine
        // once, here; the round trip through `as_secs_f64` is exact at
        // simulation scale, so rewritten arrival times re-admit identically.
        while self.next_arrival < self.requests.len()
            && SimTime::from_secs_f64(self.requests[self.next_arrival].arrival_s) <= self.clock
        {
            self.waiting.push_back(self.next_arrival);
            self.next_arrival += 1;
        }
        if self.active.is_empty() && self.waiting.is_empty() && self.prefilling.is_empty() {
            if self.next_arrival >= self.requests.len() {
                return StepOutcome::Idle;
            }
            self.clock = SimTime::from_secs_f64(self.requests[self.next_arrival].arrival_s);
            return StepOutcome::Progress;
        }
        if self.clock > self.deadline() {
            return StepOutcome::Idle;
        }

        let admitted = self.admit_waiting();
        if self.config.chunked_prefill {
            // Chunked prefill (vLLM): admitted prompts queue for compute,
            // which rides on the coming steps chunk by chunk.
            self.prefilling.extend(admitted);
        } else if !admitted.is_empty() {
            // Prefill-priority scheduling (vLLM default): one prefill step
            // computes every admitted prompt, then they start decoding.
            let computed_tokens = admitted.iter().map(|p| p.remaining).sum();
            self.clock +=
                SimDuration::from_ns_f64(self.cost.prefill_ns(computed_tokens) / self.speed_factor);
            for p in admitted {
                self.on_first_token(p.req_idx, p.seq);
            }
            return StepOutcome::Progress;
        }
        if self.fault.is_some() {
            return StepOutcome::Idle;
        }

        // Otherwise decode, so departures free KV blocks for the waiting
        // requests, carrying this step's prefill chunk if any.
        let (prefill_chunk, prefilled) = self.carve_prefill_chunk();
        if self.active.is_empty() {
            if prefill_chunk > 0 {
                // Pure prefill-chunk step.
                self.clock += SimDuration::from_ns_f64(
                    self.cost.prefill_ns(prefill_chunk) / self.speed_factor,
                );
                self.finish_prefills(prefilled);
            }
            // Else everything waiting was dropped or nothing is runnable yet.
            return StepOutcome::Progress;
        }

        let price = match self.kv.price_decode(attention, &self.active) {
            Ok(price) => price,
            Err(e) => {
                // No feasible tile, or a plan the kernel simulator rejects:
                // halt the replica cleanly; in-flight requests surface as
                // unfinished.
                self.record_fault(e);
                return StepOutcome::Idle;
            }
        };
        let batch = self.active.len();
        // Fig. 16 samples per scheduler *invocation*: a replayed step ran no
        // scheduler, so there is nothing to overlap with pre-attention work.
        if let Some(sched) = price.scheduler_run_ns {
            self.overhead_samples
                .push((sched, self.cost.pre_attention_ns(batch)));
        }
        let (attention_ns, step_ns) = self.decode_step_ns(&price, batch, prefill_chunk);
        // Quantize the step once onto the integer spine; the attention share
        // is quantized with the same rounding so the fraction stays honest.
        let step = SimDuration::from_ns_f64(step_ns);
        self.clock += step;
        self.decode_steps += 1;
        self.batch_acc += batch;
        self.attn_time += SimDuration::from_ns_f64(attention_ns);
        self.total_time += step;
        self.append_decode_tokens();
        self.finish_prefills(prefilled);
        StepOutcome::Progress
    }

    /// The admission both prefill modes share: picks waiting requests under
    /// the token budget and the vLLM watermark, then places their prompt
    /// KV, so the pool accounts for every admitted request from here on.
    fn admit_waiting(&mut self) -> Vec<Prefilling<K::Seq>> {
        let bs = self.kv.block_size();
        let mut chunk_tokens = 0usize;
        let mut picked = Vec::new();
        let mut budget_blocks = self.kv.available_blocks();
        while let Some(&idx) = self.waiting.front() {
            let req = &self.requests[idx];
            // Clamp over-long prompts to the model context window.
            let budget = self
                .config
                .model
                .max_context
                .saturating_sub(req.decode_tokens)
                .max(16);
            let prompt_tokens = req.prompt.total_tokens().min(budget);
            let in_flight = self.active.len() + self.prefilling.len() + picked.len();
            if in_flight >= self.config.max_batch
                || (chunk_tokens + prompt_tokens > self.config.max_prefill_tokens
                    && !picked.is_empty())
            {
                break;
            }
            // Admission control (vLLM watermark): the request's whole
            // lifetime (prompt + decode budget) must fit in currently
            // obtainable blocks, or it waits for departures. Prefix hits
            // only make this conservative.
            let needed = prompt_tokens.div_ceil(bs) + req.decode_tokens.div_ceil(bs) + 2;
            if needed > self.kv.capacity_blocks() {
                // Can never fit, even alone: reject rather than livelock.
                self.waiting.pop_front();
                self.dropped += 1;
                continue;
            }
            if needed > budget_blocks && in_flight > 0 {
                break;
            }
            budget_blocks = budget_blocks.saturating_sub(needed);
            self.waiting.pop_front();
            chunk_tokens += prompt_tokens;
            picked.push((idx, prompt_tokens));
            if chunk_tokens >= self.config.max_prefill_tokens {
                break;
            }
        }
        // Prefix caching discounts prefill compute (vLLM APC / SGLang):
        // prompt blocks already resident are reused, so only each request's
        // uncached suffix is computed. At least one token is always
        // computed — the request needs fresh logits.
        let mut placed = Vec::with_capacity(picked.len());
        let mut picking = picked.into_iter();
        'admit: while let Some((idx, prompt_tokens)) = picking.next() {
            let tokens = self.requests[idx].prompt.to_tokens();
            let (seq, hit_tokens) = loop {
                match self.kv.admit(&tokens[..prompt_tokens]) {
                    Ok(admitted) => break admitted,
                    Err(_) => {
                        self.preemptions += 1;
                        assert!(
                            self.preempt_latest(),
                            "a single request exceeds the KV pool"
                        );
                        if self.fault.is_some() {
                            // Preemption hit a cache fault: freeing made no
                            // room, so retrying can spin forever. Restore
                            // the unplaced requests to the waiting queue
                            // (they count as unfinished) and halt.
                            let rest: Vec<usize> = std::iter::once(idx)
                                .chain(picking.by_ref().map(|(i, _)| i))
                                .collect();
                            for &r in rest.iter().rev() {
                                self.waiting.push_front(r);
                            }
                            break 'admit;
                        }
                    }
                }
            };
            placed.push(Prefilling {
                req_idx: idx,
                seq,
                remaining: prompt_tokens.saturating_sub(hit_tokens).max(1),
            });
        }
        placed
    }

    /// Carves this step's chunk from the front of the chunked-prefill
    /// queue, up to the prefill token budget. Returns the chunk's tokens
    /// and how many queued prompts it completes.
    fn carve_prefill_chunk(&mut self) -> (usize, usize) {
        let mut budget = self.config.max_prefill_tokens;
        let (mut chunk, mut completed) = (0usize, 0usize);
        for p in self.prefilling.iter_mut() {
            if budget == 0 {
                break;
            }
            let take = p.remaining.min(budget);
            p.remaining -= take;
            budget -= take;
            chunk += take;
            if p.remaining > 0 {
                break;
            }
            completed += 1;
        }
        (chunk, completed)
    }

    /// Moves the first `n` queued prompts, now fully computed, on to their
    /// first token.
    fn finish_prefills(&mut self, n: usize) {
        for _ in 0..n {
            if let Some(p) = self.prefilling.pop_front() {
                self.on_first_token(p.req_idx, p.seq);
            }
        }
    }

    /// A request whose prefill just completed produced its first token: a
    /// prefill-only request completes, any other joins the decode batch.
    fn on_first_token(&mut self, req_idx: usize, seq: K::Seq) {
        let req = &self.requests[req_idx];
        let arrival = SimTime::from_secs_f64(req.arrival_s);
        let (id, target) = (req.id, req.decode_tokens);
        if target <= 1 {
            if let Err(e) = self.kv.free(seq) {
                // Completion metrics still count; the fault halts the
                // replica on the next step.
                self.record_cache_fault("free_sequence (prefill-only)", e);
            }
            let latency = (self.clock - arrival).as_ns_f64();
            self.completed.push(RequestMetrics {
                request_id: id,
                ttft_ns: latency,
                tpot_ns: 0.0,
                completion_ns: latency,
                decode_tokens: 1,
            });
        } else {
            self.active.push(Running {
                id,
                seq,
                req_idx,
                produced: 1,
                target,
                first_token: self.clock,
                arrival,
            });
        }
    }

    /// The closed-form price of one decode step from its attention price:
    /// attention (per-layer kernel time on every layer, scheduling once),
    /// plus every pipeline stage's non-attention work, the pipeline
    /// hand-offs and any chunked-prefill share, all stretched by the speed
    /// factor (a straggler below 1.0). Returns `(attention_ns, step_ns)`.
    fn decode_step_ns(&self, price: &AttnPrice, batch: usize, prefill_chunk: usize) -> (f64, f64) {
        let attention_ns = (price.kernel_ns * self.config.model.num_layers as f64 + price.sched_ns)
            / self.speed_factor;
        let pp = self.config.parallel.pp;
        let linear_ns = self.cost.decode_linear_ns(batch, self.layers_per_stage) * pp as f64;
        let pp_transfer_ns = self.cost.pp_transfer_ns(batch, pp);
        let prefill_ns = self.cost.chunked_prefill_marginal_ns(prefill_chunk);
        let step_ns = attention_ns + (linear_ns + pp_transfer_ns + prefill_ns) / self.speed_factor;
        (attention_ns, step_ns)
    }

    /// Appends every running request's new token, preempting the youngest
    /// request under KV pressure (possibly the one appending), and
    /// completes requests that reached their decode target.
    fn append_decode_tokens(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            if self.fault.is_some() {
                // A cache fault mid-append: stop mutating the pool; the
                // replica halts on the next step call.
                break;
            }
            let my_req = self.active[i].req_idx;
            let mut appended = false;
            // The loop exits without appending when this request was itself
            // preempted (its index no longer appears in the active set).
            while let Some(pos) = self.active.iter().position(|a| a.req_idx == my_req) {
                i = pos;
                if self.kv.append(&mut self.active[i].seq).is_ok() {
                    appended = true;
                    break;
                }
                self.preemptions += 1;
                assert!(
                    self.preempt_latest(),
                    "a single request exceeds the KV pool"
                );
                if self.fault.is_some() {
                    break;
                }
            }
            if !appended {
                // Restart scanning: indices shifted and this slot now holds a
                // different (already-processed or pending) request. The next
                // decode step will cover any request we skip here.
                continue;
            }
            self.active[i].produced += 1;
            if self.active[i].produced >= self.active[i].target {
                let a = self.active.swap_remove(i);
                if let Err(e) = self.kv.free(a.seq) {
                    self.record_cache_fault("free_sequence (completion)", e);
                }
                let gaps = (a.produced - 1).max(1) as f64;
                self.completed.push(RequestMetrics {
                    request_id: a.id,
                    ttft_ns: (a.first_token - a.arrival).as_ns_f64(),
                    tpot_ns: (self.clock - a.first_token).as_ns_f64() / gaps,
                    completion_ns: (self.clock - a.arrival).as_ns_f64(),
                    decode_tokens: a.produced,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Step-simulation cache counters so far (hits skip the sim-gpu event
    /// loop; see [`attn_kernel::StepSimCache`]).
    pub fn step_sim_stats(&self) -> StepSimStats {
        self.kv.step_sim_stats()
    }

    /// Finalizes the simulation, consuming the engine. Requests still in
    /// flight (or never admitted) count as unfinished.
    pub fn into_result(self) -> SimulationResult {
        SimulationResult {
            metrics: AggregateMetrics::from_requests(&self.completed),
            per_request: self.completed,
            decode_steps: self.decode_steps,
            mean_batch: if self.decode_steps == 0 {
                0.0
            } else {
                self.batch_acc as f64 / self.decode_steps as f64
            },
            attention_fraction: if self.total_time == SimDuration::ZERO {
                0.0
            } else {
                self.attn_time.as_ns_f64() / self.total_time.as_ns_f64()
            },
            overhead_samples: self.overhead_samples,
            step_sim: self.kv.step_sim_stats(),
            unfinished: self.active.len()
                + self.waiting.len()
                + self.prefilling.len()
                + (self.requests.len() - self.next_arrival),
            preemptions: self.preemptions,
            dropped: self.dropped,
            plan_error: match &self.fault {
                Some(EngineError::Plan(e)) => Some(e.clone()),
                _ => None,
            },
            fault: self.fault.as_ref().map(|f| f.to_string()),
        }
    }
}

/// Runs the serving simulation for `requests` (must be sorted by arrival).
///
/// Thin wrapper over [`ServingEngine`]: submits every request up front and
/// steps the engine until it goes idle.
///
/// # Panics
///
/// Panics if requests are unsorted, or if a single request cannot fit in
/// the KV pool even with every other request preempted.
pub fn simulate_serving(
    config: &ServingConfig,
    attention: &mut dyn ServingAttention,
    requests: &[Request],
) -> SimulationResult {
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "requests must be sorted by arrival"
    );
    let mut engine = ServingEngine::new(config.clone());
    for request in requests {
        engine.submit(request.clone());
    }
    while engine.step(attention) == StepOutcome::Progress {}
    engine.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::Stateless;
    use baselines::FlashAttention;
    use pat_core::LazyPat;
    use workloads::{generate_trace, TraceConfig, TraceKind};

    fn short_trace(rate: f64) -> Vec<Request> {
        generate_trace(TraceConfig {
            kind: TraceKind::Conversation,
            rate_per_s: rate,
            duration_s: 6.0,
            seed: 7,
        })
    }

    fn config() -> ServingConfig {
        ServingConfig::single_gpu(ModelSpec::llama3_8b())
    }

    #[test]
    fn all_requests_complete_at_low_rate() {
        let requests = short_trace(2.0);
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &requests);
        assert_eq!(result.unfinished, 0);
        assert_eq!(result.metrics.completed, requests.len());
        assert!(result.metrics.mean_ttft_ms > 0.0);
        assert!(result.metrics.mean_tpot_ms > 0.0);
        assert!(result.decode_steps > 0);
        assert_eq!(result.plan_error, None, "clean runs report no plan error");
    }

    #[test]
    fn infeasible_device_surfaces_plan_error_instead_of_panicking() {
        let requests = short_trace(2.0);
        let mut cfg = config();
        // A device whose shared memory cannot host any (m, n) tile: tile
        // selection fails with a typed error, the replica halts cleanly,
        // and its in-flight requests surface as unfinished.
        cfg.gpu.smem_per_cta_max = 1024;
        cfg.gpu.smem_per_sm = 1024;
        let mut pat = LazyPat::new();
        let result = simulate_serving(&cfg, &mut pat, &requests);
        let err = result.plan_error.expect("plan failure must be recorded");
        assert!(
            err.contains("feasible"),
            "error should name the feasibility failure: {err}"
        );
        assert!(result.unfinished > 0, "halted replica strands its requests");
    }

    #[test]
    fn pat_beats_flash_attention_on_shared_prefix_trace() {
        let requests = short_trace(4.0);
        let mut pat = LazyPat::new();
        let pat_result = simulate_serving(&config(), &mut pat, &requests);
        // An unchanged block structure always hits the step cache first, so
        // the step cache is the lazy-update hit and the planner never sees
        // an empty delta.
        assert!(pat_result.step_sim.hits > 0);
        assert_eq!(pat.stats().hits, 0);
        let mut fa = Stateless(FlashAttention::new());
        let fa_result = simulate_serving(&config(), &mut fa, &requests);
        assert!(
            pat_result.metrics.mean_tpot_ms < fa_result.metrics.mean_tpot_ms,
            "PAT {:.3} ms !< FA {:.3} ms",
            pat_result.metrics.mean_tpot_ms,
            fa_result.metrics.mean_tpot_ms
        );
    }

    #[test]
    fn pat_reports_overhead_samples_and_they_hide_in_pre_attention() {
        let requests = short_trace(4.0);
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &requests);
        assert!(!result.overhead_samples.is_empty());
        let (sched, pre): (Vec<f64>, Vec<f64>) = result.overhead_samples.iter().copied().unzip();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&sched) < mean(&pre),
            "scheduler ({:.0} ns) must hide inside pre-attention ({:.0} ns)",
            mean(&sched),
            mean(&pre)
        );
    }

    #[test]
    fn higher_rate_increases_tpot() {
        let mut pat_low = LazyPat::new();
        let low = simulate_serving(&config(), &mut pat_low, &short_trace(1.0));
        let mut pat_high = LazyPat::new();
        let high = simulate_serving(&config(), &mut pat_high, &short_trace(8.0));
        assert!(high.mean_batch > low.mean_batch);
        assert!(high.metrics.mean_tpot_ms >= low.metrics.mean_tpot_ms * 0.9);
    }

    #[test]
    fn tp_reduces_tpot_for_a_large_model() {
        let requests = short_trace(1.0);
        let mut cfg = ServingConfig::single_gpu(ModelSpec::qwen25_72b());
        cfg.max_prefill_tokens = 4096;
        let mut pat1 = LazyPat::new();
        let single = simulate_serving(&cfg, &mut pat1, &requests);
        cfg.parallel = Parallelism { tp: 2, pp: 2 };
        let mut pat4 = LazyPat::new();
        let multi = simulate_serving(&cfg, &mut pat4, &requests);
        assert!(
            multi.metrics.mean_tpot_ms < single.metrics.mean_tpot_ms,
            "TP2xPP2 {:.2} !< single {:.2}",
            multi.metrics.mean_tpot_ms,
            single.metrics.mean_tpot_ms
        );
    }

    #[test]
    fn tiny_kv_pool_serves_via_admission_control() {
        let requests = short_trace(6.0);
        let mut cfg = config();
        // A pool that can hold only a handful of ~2.5k-token contexts: the
        // watermark admits few requests at a time, but everyone finishes.
        cfg.kv_capacity_blocks = 1200;
        cfg.max_batch = 32;
        let mut pat = LazyPat::new();
        let result = simulate_serving(&cfg, &mut pat, &requests);
        assert_eq!(result.unfinished, 0, "requests must finish under pressure");
        assert_eq!(result.dropped, 0);
        assert_eq!(result.metrics.completed, requests.len());
        assert!(result.mean_batch < 16.0, "pool bounds concurrency");
    }

    #[test]
    fn chunked_prefill_on_a_tiny_kv_pool_serves_everyone() {
        // Chunked admission places each prompt's KV as it admits the
        // request, so the watermark sees every prompt still prefilling and
        // the pool is never over-committed.
        let requests = short_trace(6.0);
        assert_eq!(requests.len(), 26);
        let mut cfg = config();
        cfg.kv_capacity_blocks = 1200;
        cfg.max_batch = 32;
        cfg.chunked_prefill = true;
        let mut pat = LazyPat::new();
        let result = simulate_serving(&cfg, &mut pat, &requests);
        assert_eq!(result.fault, None);
        assert_eq!(result.unfinished, 0);
        assert_eq!(result.metrics.completed, 26);
    }

    #[test]
    fn impossible_requests_are_dropped_not_livelocked() {
        let mut requests = short_trace(2.0);
        for r in &mut requests {
            r.decode_tokens = 2000; // prompt + decode exceed the pool below
        }
        let mut cfg = config();
        cfg.kv_capacity_blocks = 150;
        let mut pat = LazyPat::new();
        let result = simulate_serving(&cfg, &mut pat, &requests);
        assert_eq!(result.dropped as usize, requests.len());
        assert_eq!(result.unfinished, 0);
        assert_eq!(result.metrics.completed, 0);
    }

    #[test]
    fn chunked_prefill_serves_everyone_and_smooths_tail_latency() {
        // A bursty moment: many long prompts arriving together makes
        // prefill-priority stall decoding (P99 TPOT spikes); chunking mixes
        // the prefills into decode steps.
        let requests = short_trace(10.0);
        let mut cfg = config();
        cfg.max_prefill_tokens = 2048;
        let mut pat1 = LazyPat::new();
        let priority = simulate_serving(&cfg, &mut pat1, &requests);
        cfg.chunked_prefill = true;
        let mut pat2 = LazyPat::new();
        let chunked = simulate_serving(&cfg, &mut pat2, &requests);
        assert_eq!(chunked.unfinished, 0);
        assert_eq!(chunked.metrics.completed, requests.len());
        assert!(
            chunked.metrics.p99_tpot_ms < priority.metrics.p99_tpot_ms * 1.5,
            "chunked {:.1} ms vs priority {:.1} ms",
            chunked.metrics.p99_tpot_ms,
            priority.metrics.p99_tpot_ms
        );
    }

    #[test]
    fn empty_request_list_is_fine() {
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &[]);
        assert_eq!(result.metrics.completed, 0);
        assert_eq!(result.decode_steps, 0);
    }

    #[test]
    fn incremental_submission_matches_upfront_submission() {
        // The steppable engine must behave identically whether the whole
        // trace is submitted up front or each request is submitted only once
        // the clock (or the outside world) reaches its arrival time — the
        // contract the cluster driver relies on.
        let requests = short_trace(5.0);
        let mut pat_a = LazyPat::new();
        let upfront = simulate_serving(&config(), &mut pat_a, &requests);

        let mut pat_b = LazyPat::new();
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            let arrival = sim_core::SimTime::from_secs_f64(request.arrival_s);
            while engine.clock() < arrival {
                if engine.step(&mut pat_b) == StepOutcome::Idle {
                    break;
                }
            }
            engine.submit(request.clone());
        }
        while engine.step(&mut pat_b) == StepOutcome::Progress {}
        let incremental = engine.into_result();

        assert_eq!(upfront.per_request, incremental.per_request);
        assert_eq!(upfront.decode_steps, incremental.decode_steps);
        assert_eq!(upfront.preemptions, incremental.preemptions);
        assert!(upfront.metrics.mean_tpot_ms == incremental.metrics.mean_tpot_ms);
    }

    #[test]
    fn slower_speed_factor_stretches_latency_proportionally() {
        let requests = short_trace(2.0);
        let mut pat_a = LazyPat::new();
        let nominal = simulate_serving(&config(), &mut pat_a, &requests);

        let mut pat_b = LazyPat::new();
        let mut engine = ServingEngine::new(config());
        engine.set_speed_factor(0.5);
        for request in &requests {
            engine.submit(request.clone());
        }
        while engine.step(&mut pat_b) == StepOutcome::Progress {}
        let slow = engine.into_result();

        assert_eq!(slow.metrics.completed, nominal.metrics.completed);
        // Half speed doubles every step; scheduling dynamics shift batch
        // composition, so TPOT lands near 2x rather than exactly on it.
        let ratio = slow.metrics.mean_tpot_ms / nominal.metrics.mean_tpot_ms;
        assert!(
            (1.5..=3.0).contains(&ratio),
            "slow/nominal TPOT ratio {ratio:.3} not near 2x"
        );
        assert!(slow.metrics.mean_ttft_ms > nominal.metrics.mean_ttft_ms);
    }

    #[test]
    fn unit_speed_factor_is_bit_identical_to_default() {
        let requests = short_trace(4.0);
        let mut pat_a = LazyPat::new();
        let reference = simulate_serving(&config(), &mut pat_a, &requests);
        let mut pat_b = LazyPat::new();
        let mut engine = ServingEngine::new(config());
        engine.set_speed_factor(1.0);
        for request in &requests {
            engine.submit(request.clone());
        }
        while engine.step(&mut pat_b) == StepOutcome::Progress {}
        assert_eq!(engine.into_result().per_request, reference.per_request);
    }

    #[test]
    fn take_incomplete_returns_unfinished_and_frees_their_blocks() {
        let requests = short_trace(6.0);
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            engine.submit(request.clone());
        }
        let mut pat = LazyPat::new();
        // Run just long enough that some requests finished, some are mid
        // flight, and some have not arrived yet.
        for _ in 0..200 {
            if engine.step(&mut pat) == StepOutcome::Idle {
                break;
            }
        }
        let done_before = engine.completed_requests().len();
        assert!(done_before > 0 && done_before < requests.len(), "mid-run");
        let free_before = engine.cache().available_blocks();
        let requeued = engine.take_incomplete();
        assert_eq!(done_before + requeued.len(), requests.len());
        assert!(engine.cache().available_blocks() >= free_before);
        assert_eq!(engine.outstanding(), 0);
        // Requeued requests come back in arrival order, ready to resubmit.
        assert!(requeued
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s));
        // The engine itself is still serviceable and idle.
        while engine.step(&mut pat) == StepOutcome::Progress {}
        assert_eq!(engine.completed_requests().len(), done_before);
    }

    #[test]
    fn drain_mode_finishes_existing_work_and_rejects_new() {
        let requests = short_trace(3.0);
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            engine.submit(request.clone());
        }
        engine.begin_drain();
        assert!(engine.is_draining());
        let mut pat = LazyPat::new();
        while engine.step(&mut pat) == StepOutcome::Progress {}
        assert_eq!(engine.outstanding(), 0);
        assert_eq!(engine.completed_requests().len(), requests.len());
    }

    #[test]
    #[should_panic(expected = "draining")]
    fn submitting_to_a_draining_engine_panics() {
        let requests = short_trace(3.0);
        let mut engine = ServingEngine::new(config());
        engine.begin_drain();
        engine.submit(requests[0].clone());
    }

    #[test]
    fn lockstep_decode_heavy_batch_exceeds_80_percent_step_cache_hit_rate() {
        // The acceptance scenario for the step cache: uniform requests
        // arriving together decode in lockstep, so every table crosses a
        // block boundary on the same step and the batch structure changes
        // only once per `block_size` decode steps.
        let requests: Vec<Request> = (0..8u64)
            .map(|i| Request {
                id: i,
                arrival_s: 0.0,
                prompt: workloads::PromptSpec::from_parts([(1, 256), (100 + i, 256)]),
                decode_tokens: 256,
            })
            .collect();
        let mut pat = LazyPat::new();
        let result = simulate_serving(&config(), &mut pat, &requests);
        assert_eq!(result.unfinished, 0);
        let stats = result.step_sim;
        assert!(
            stats.hits + stats.misses > 0,
            "decode steps must be counted"
        );
        assert!(
            stats.hit_rate() > 0.8,
            "step-cache hit rate {:.3} (hits {}, misses {}) below the 80% bar",
            stats.hit_rate(),
            stats.hits,
            stats.misses
        );
    }

    #[test]
    fn scratch_arena_reuse_keeps_repeat_runs_bit_identical() {
        // Step-in-a-loop check for the per-engine scratch arena: reused
        // BlockTable capacity and the recycled finished-prefill buffer must
        // never leak state between steps or between runs.
        let requests = short_trace(5.0);
        let run = || {
            let mut pat = LazyPat::new();
            let mut engine = ServingEngine::new(config());
            for request in &requests {
                engine.submit(request.clone());
            }
            let mut steps = 0usize;
            while engine.step(&mut pat) == StepOutcome::Progress {
                steps += 1;
            }
            (engine.into_result(), steps)
        };
        let (a, steps_a) = run();
        let (b, steps_b) = run();
        assert_eq!(steps_a, steps_b);
        assert_eq!(a.per_request, b.per_request);
        assert_eq!(a.overhead_samples, b.overhead_samples);
        assert_eq!(a.step_sim, b.step_sim);
        assert_eq!(
            a.metrics.mean_tpot_ms.to_bits(),
            b.metrics.mean_tpot_ms.to_bits()
        );
        assert_eq!(
            a.metrics.p99_tpot_ms.to_bits(),
            b.metrics.p99_tpot_ms.to_bits()
        );
    }

    #[test]
    fn engine_exposes_cache_and_queue_introspection() {
        let requests = short_trace(4.0);
        let mut engine = ServingEngine::new(config());
        for request in &requests {
            engine.submit(request.clone());
        }
        assert_eq!(engine.outstanding(), requests.len());
        assert_eq!(engine.queue_depth(), 0);
        let mut pat = LazyPat::new();
        let mut saw_active = false;
        while engine.step(&mut pat) == StepOutcome::Progress {
            saw_active |= engine.num_active() > 0;
        }
        assert!(saw_active);
        assert!(
            engine.cache().stats().hit_tokens > 0,
            "trace shares prefixes"
        );
        assert_eq!(engine.completed_requests().len(), requests.len());
        assert_eq!(engine.outstanding(), 0);
    }
}
