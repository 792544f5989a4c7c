//! The analytical fidelity: closed-form replica timing, no kernel sim.
//!
//! [`crate::AnalyticalReplica`] runs the serving crate's one
//! continuous-batching [`serving::Scheduler`] — watermark admission,
//! prefill-priority or chunked prefill, recompute preemption under KV
//! pressure, drain limits — over [`CountedKv`], which keeps only what
//! differs from the exact fidelity:
//! KV as block-count arithmetic (no block tables), prefix warmth in a
//! bounded [`PrefixStore`] of block-chain hashes, and decode attention
//! priced by the fitted [`crate::calibration`] closed form instead of a
//! kernel simulation. The scheduler wraps that price in the same step
//! formula the exact engine uses, so a decode step costs O(batch)
//! arithmetic.
//!
//! Divergences from exact fidelity are therefore: (a) attention timing is
//! linear in batch and KV bytes rather than kernel-simulated, and (b)
//! block sharing between concurrent same-prefix requests is not modeled
//! (admission is slightly conservative). Prefix hits are the store's
//! intact-prefix cover; like the paged cache, each append attempt counts
//! one missed token. Fleet-level mean TTFT/TPOT stay within
//! [`crate::ANALYTICAL_REL_ERROR_BOUND`] of exact on the validation
//! scenarios; see DESIGN.md §2e for when this fidelity is sound.

use crate::calibration::{key_for, AttnCalibration, CalibrationTable};
use crate::{Fidelity, PrefixStore, ReplicaKv};
use kv_cache::{AllocError, IngestReport, Token, DEFAULT_BLOCK_SIZE};
use serving::{AttnPrice, EngineError, KvModel, Running, ServingConfig};

/// Blocks of prefix warmth an analytical replica tracks (bounded so a
/// 1k-replica fleet stays within a few hundred MB; the real KV pool is
/// usually larger, making warmth slightly pessimistic at huge working
/// sets).
pub const ANALYTICAL_PREFIX_STORE_BLOCKS: usize = 65_536;

/// The analytical fidelity's [`KvModel`]: a block-counted KV pool, a
/// [`PrefixStore`] for warmth, and an [`AttnCalibration`] for prices.
#[derive(Debug)]
pub struct CountedKv {
    attn: AttnCalibration,
    prefix: PrefixStore,
    capacity: usize,
    used: usize,
}

/// The KV one request holds in a [`CountedKv`] pool.
#[derive(Debug)]
pub struct CountedSeq {
    tokens: usize,
    blocks: usize,
}

impl CountedKv {
    /// An empty pool of `config.kv_capacity_blocks` blocks. Attention
    /// coefficients come from the committed calibration table when the
    /// (model, GPU) pair is fitted, otherwise from the first-principles
    /// roofline fallback.
    pub fn new(config: &ServingConfig) -> Self {
        let head = config.model.shard_head(config.parallel.tp);
        let attn = CalibrationTable::committed()
            .lookup(&key_for(head, &config.gpu))
            .cloned()
            .unwrap_or_else(|| AttnCalibration::roofline(head, &config.gpu, 2));
        let prefix_blocks = config
            .kv_capacity_blocks
            .min(ANALYTICAL_PREFIX_STORE_BLOCKS);
        CountedKv {
            attn,
            prefix: PrefixStore::new(prefix_blocks, DEFAULT_BLOCK_SIZE),
            capacity: config.kv_capacity_blocks,
            used: 0,
        }
    }
}

impl KvModel for CountedKv {
    type Seq = CountedSeq;
    type Attention<'a> = ();

    fn block_size(&self) -> usize {
        self.prefix.block_size()
    }

    fn capacity_blocks(&self) -> usize {
        self.capacity
    }

    fn available_blocks(&self) -> usize {
        self.capacity.saturating_sub(self.used)
    }

    fn admit(&mut self, prompt: &[Token]) -> Result<(CountedSeq, usize), AllocError> {
        let blocks = prompt.len().div_ceil(self.block_size());
        if self.used + blocks > self.capacity {
            return Err(AllocError::OutOfBlocks);
        }
        let hit_tokens = self.prefix.insert_sequence(prompt);
        self.used += blocks;
        let seq = CountedSeq {
            tokens: prompt.len(),
            blocks,
        };
        Ok((seq, hit_tokens))
    }

    fn append(&mut self, seq: &mut CountedSeq) -> Result<(), AllocError> {
        // Like `CacheManager::append_token`: every attempt is a missed token.
        self.prefix.note_decode_tokens(1);
        if seq.tokens.is_multiple_of(self.block_size()) {
            if self.used >= self.capacity {
                return Err(AllocError::OutOfBlocks);
            }
            seq.blocks += 1;
            self.used += 1;
        }
        seq.tokens += 1;
        Ok(())
    }

    fn free(&mut self, seq: CountedSeq) -> Result<(), AllocError> {
        self.used = self.used.saturating_sub(seq.blocks);
        Ok(())
    }

    fn chain_overlap_tokens(&self, chain: &[u64]) -> usize {
        self.prefix.chain_overlap_tokens(chain)
    }

    fn ingest_prefix(&mut self, tokens: &[Token]) -> IngestReport {
        self.prefix.ingest_prefix(tokens)
    }

    fn price_decode(
        &mut self,
        _attention: &mut (),
        batch: &[Running<CountedSeq>],
    ) -> Result<AttnPrice, EngineError> {
        let (mut kv_total, mut kv_max) = (0u64, 0u64);
        for r in batch {
            kv_total += r.seq.tokens as u64;
            kv_max = kv_max.max(r.seq.tokens as u64);
        }
        Ok(AttnPrice {
            kernel_ns: self.attn.kernel_ns(batch.len(), kv_total, kv_max),
            sched_ns: self.attn.sched_ns(batch.len()),
            scheduler_run_ns: None,
        })
    }
}

impl ReplicaKv for CountedKv {
    const FIDELITY: Fidelity = Fidelity::Analytical;

    fn hit_miss_tokens(&self) -> (u64, u64) {
        self.prefix.hit_miss_tokens()
    }

    fn resident_block_hashes(&self) -> Vec<u64> {
        // PrefixStore keys blocks by the same `kv_cache::chain_hashes` as
        // CacheManager, so the hashes would be comparable. Analytical
        // replicas still opt out of cross-replica duplication accounting:
        // reporting them would change the duplication figures of every
        // committed fleet artifact with analytical replicas in it.
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyticalReplica, ReplicaModel};
    use serving::{ModelSpec, Scheduler, StepOutcome};
    use workloads::{PromptSpec, Request};

    fn config() -> ServingConfig {
        ServingConfig::single_gpu(ModelSpec::llama3_8b())
    }

    fn request(id: u64, arrival_s: f64, prompt: usize, decode: usize) -> Request {
        Request {
            id,
            arrival_s,
            prompt: PromptSpec::from_parts([(id + 1, prompt)]),
            decode_tokens: decode,
        }
    }

    fn run_to_idle(r: &mut AnalyticalReplica) {
        while r.step() == StepOutcome::Progress {}
    }

    #[test]
    fn completes_requests_with_plausible_latencies() {
        let mut r = AnalyticalReplica::new(config());
        for i in 0..8 {
            r.submit(request(i, i as f64 * 0.05, 512, 32));
        }
        run_to_idle(&mut r);
        let result = Box::new(r).into_result();
        assert_eq!(result.per_request.len(), 8);
        assert_eq!(result.unfinished, 0);
        for m in &result.per_request {
            // TTFT at least one prefill (~10ms at 512 tokens on A100),
            // TPOT within an order of magnitude of the exact engine's
            // ~10-40ms decode steps.
            assert!(m.ttft_ns > 1e6, "ttft {}", m.ttft_ns);
            assert!(m.tpot_ns > 1e6 && m.tpot_ns < 1e9, "tpot {}", m.tpot_ns);
        }
    }

    #[test]
    fn repeat_runs_are_bit_identical() {
        let run = || {
            let mut r = AnalyticalReplica::new(config());
            for i in 0..32 {
                r.submit(request(
                    i,
                    i as f64 * 0.02,
                    256 + (i as usize % 5) * 100,
                    16,
                ));
            }
            run_to_idle(&mut r);
            let result = Box::new(r).into_result();
            serde_json::to_string(&result.per_request).unwrap_or_default()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_prefixes_cut_ttft_via_the_prefix_store() {
        let shared = |id: u64, arrival: f64| Request {
            id,
            arrival_s: arrival,
            prompt: PromptSpec::from_parts([(7, 2048), (100 + id, 32)]),
            decode_tokens: 8,
        };
        let mut r = AnalyticalReplica::new(config());
        r.submit(shared(0, 0.0));
        r.submit(shared(1, 5.0)); // Arrives after the first finishes.
        run_to_idle(&mut r);
        let result = Box::new(r).into_result();
        assert_eq!(result.per_request.len(), 2);
        let first = &result.per_request[0];
        let second = &result.per_request[1];
        assert!(
            second.ttft_ns < first.ttft_ns * 0.5,
            "warm prefix must discount prefill: {} vs {}",
            second.ttft_ns,
            first.ttft_ns
        );
    }

    #[test]
    fn kv_pressure_preempts_and_still_completes() {
        let mut cfg = config();
        cfg.kv_capacity_blocks = 200; // Tiny pool forces preemption.
        let mut r = AnalyticalReplica::new(cfg);
        for i in 0..6 {
            r.submit(request(i, 0.0, 512, 256));
        }
        run_to_idle(&mut r);
        let result = Box::new(r).into_result();
        assert_eq!(result.per_request.len() + result.unfinished, 6);
        assert!(result.preemptions > 0, "tiny pool must preempt");
    }

    #[test]
    fn chunked_prefill_under_kv_pressure_conserves_requests_and_blocks() {
        let mut cfg = config();
        cfg.kv_capacity_blocks = 200;
        cfg.max_prefill_tokens = 512;
        cfg.chunked_prefill = true;
        let counted = || {
            let mut s = Scheduler::with_kv(cfg.clone(), CountedKv::new(&cfg));
            for i in 0..12u64 {
                let decode = if i % 4 == 0 { 1 } else { 256 };
                s.submit(request(i, i as f64 * 0.01, 300 + 40 * i as usize, decode));
            }
            s
        };
        let mut s = counted();
        while s.step(&mut ()) == StepOutcome::Progress {}
        assert_eq!(s.kv().used, 0, "finished replica still holds blocks");
        let result = s.into_result();
        assert_eq!(result.per_request.len(), 12);
        assert_eq!(result.unfinished, 0);
        assert!(result.preemptions > 0, "tiny pool must preempt");
        assert_eq!(result.fault, None);

        // A failover mid-prefill frees every held block and loses nothing.
        let mut s = counted();
        while s.queue_depth() == 0 || s.num_active() == 0 {
            s.step(&mut ());
        }
        assert!(s.kv().used > 0);
        let completed = s.completed_requests().len();
        let incomplete = s.take_incomplete();
        assert_eq!(completed + incomplete.len(), 12);
        assert_eq!(s.kv().used, 0, "failover leaked blocks");
    }

    #[test]
    fn drain_and_take_incomplete_conserve_requests() {
        let mut r = AnalyticalReplica::new(config());
        for i in 0..10 {
            r.submit(request(i, i as f64, 256, 64));
        }
        // Step a little, then pull everything incomplete.
        for _ in 0..20 {
            r.step();
        }
        let completed = r.completed_requests().len();
        let incomplete = r.take_incomplete();
        assert_eq!(completed + incomplete.len(), 10);
        assert_eq!(r.outstanding(), 0);
        // Arrival order is preserved.
        assert!(incomplete
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s));
    }
}
