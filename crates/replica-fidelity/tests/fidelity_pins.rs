//! Output pins for both replica fidelities.
//!
//! Each fidelity is driven through one scripted call sequence that touches
//! every scheduling rule a fleet relies on: prefill-only requests
//! (`decode_tokens <= 1`), a KV pool small enough to force recompute
//! preemption, a straggler speed factor, a migrated prefix
//! (`ingest_prefix`), and a mid-run failover (`take_incomplete`, with the
//! requeued work finished on a fresh replica). The serialized results and
//! prefix-cache counters are hashed and compared to recorded constants, so
//! any change to what either fidelity simulates shows up here as a
//! deliberate constant update.

use pat_core::LazyPat;
use replica_fidelity::{new_replica, Fidelity, ReplicaModel};
use serving::{ModelSpec, ServingConfig, StepOutcome};
use sim_gpu::GpuSpec;
use workloads::{generate_trace, Request, TraceConfig, TraceKind};

/// FNV-1a over bytes: a fixed, dependency-free hash, stable across Rust
/// releases (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn config() -> ServingConfig {
    let mut cfg = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    cfg.gpu = GpuSpec::a100_sxm4_80gb();
    // A handful of ~2.5k-token conversation contexts fill this pool, so
    // decode growth preempts.
    cfg.kv_capacity_blocks = 700;
    cfg.max_batch = 32;
    cfg
}

fn trace() -> Vec<Request> {
    let mut requests = generate_trace(TraceConfig {
        kind: TraceKind::Conversation,
        rate_per_s: 8.0,
        duration_s: 4.0,
        seed: 7,
    });
    for r in requests.iter_mut().step_by(4) {
        r.decode_tokens = 1;
    }
    requests
}

fn replica(fidelity: Fidelity) -> Box<dyn ReplicaModel> {
    new_replica(fidelity, &config(), || Box::new(LazyPat::new()))
}

/// What one fidelity produced on the script: the replica that failed over,
/// the replica that finished its requeued work, and how many it requeued.
struct Run {
    hash: u64,
    preemptions: u64,
    prefill_only_completed: usize,
    requeued: usize,
    completed: usize,
    offered: usize,
}

fn run(fidelity: Fidelity) -> Run {
    let requests = trace();
    let mut first = replica(fidelity);
    // A prefix migrated in before any work arrives.
    first.ingest_prefix(&requests[1].prompt.to_tokens());
    for r in &requests {
        first.submit(r.clone());
    }
    for step in 0..400 {
        if step == 150 {
            first.set_speed_factor(0.5);
        }
        if first.step() == StepOutcome::Idle {
            break;
        }
    }
    let requeued = first.take_incomplete();
    let first_counters = first.cache_hit_miss_tokens();
    let first_result = first.into_result();

    let mut second = replica(fidelity);
    second.set_speed_factor(0.5);
    second.ingest_prefix(&requests[2].prompt.to_tokens());
    for r in &requeued {
        second.submit(r.clone());
    }
    while second.step() == StepOutcome::Progress {}
    let second_counters = second.cache_hit_miss_tokens();
    let second_result = second.into_result();

    let mut h = FNV_OFFSET;
    for (result, (hit, miss)) in [
        (&first_result, first_counters),
        (&second_result, second_counters),
    ] {
        let json = serde_json::to_string(result).expect("SimulationResult serializes");
        h = fnv1a(json.as_bytes(), h);
        h = fnv1a(&hit.to_le_bytes(), h);
        h = fnv1a(&miss.to_le_bytes(), h);
    }
    h = fnv1a(&(requeued.len() as u64).to_le_bytes(), h);
    Run {
        hash: h,
        preemptions: first_result.preemptions + second_result.preemptions,
        prefill_only_completed: first_result
            .per_request
            .iter()
            .chain(&second_result.per_request)
            .filter(|m| m.tpot_ns == 0.0)
            .count(),
        requeued: requeued.len(),
        completed: first_result.per_request.len() + second_result.per_request.len(),
        offered: requests.len(),
    }
}

/// The script exercises what it claims to, at either fidelity.
fn check_coverage(run: &Run) {
    assert!(run.preemptions > 0, "the tiny pool never preempted");
    assert!(run.prefill_only_completed > 0, "no prefill-only completion");
    assert!(run.requeued > 0, "the failover requeued nothing");
    assert_eq!(run.completed, run.offered, "the script loses requests");
}

#[test]
fn exact_fidelity_output_is_pinned() {
    let run = run(Fidelity::Exact);
    check_coverage(&run);
    assert_eq!(
        run.hash, 0x9261_a899_d2d0_f62f,
        "exact fidelity output moved"
    );
}

#[test]
fn analytical_fidelity_output_is_pinned() {
    let run = run(Fidelity::Analytical);
    check_coverage(&run);
    assert_eq!(
        run.hash, 0x797a_1b3b_8f5c_60ab,
        "analytical fidelity output moved"
    );
}
