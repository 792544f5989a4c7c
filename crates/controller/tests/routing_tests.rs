//! Routing studies on `FleetController`: fault-free static fleets under each
//! `cluster` router. Routing-output invariance, finite metrics on degenerate
//! fleets, and the qualitative behavior of each routing policy.

use cluster::{
    ConsistentHashPrefix, LeastOutstanding, PrefixAffinity, ReplicaView, RoundRobin, Router,
};
use controller::{ControlResult, ControllerConfig, FaultPlan, FleetController, FleetRow};
use pat_core::LazyPat;
use proptest::prelude::*;
use serving::{ModelSpec, ServingConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use workloads::{generate_trace, Request, TraceConfig, TraceKind};

fn policies() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(LeastOutstanding::new()),
        Box::new(ConsistentHashPrefix::default()),
        Box::new(PrefixAffinity::new()),
    ]
}

fn engine_config() -> ServingConfig {
    ServingConfig::single_gpu(ModelSpec::llama3_8b())
}

/// Serves `requests` on a fault-free static fleet of `replicas` PAT replicas.
fn run_static(replicas: usize, router: Box<dyn Router>, requests: &[Request]) -> ControlResult {
    let config = ControllerConfig::static_fleet(replicas, engine_config());
    FleetController::with_lazy_pat(config, router, FaultPlan::none()).run(requests)
}

/// `(request id, replica)` for every placement, in routing order.
type Placements = Arc<Mutex<Vec<(u64, usize)>>>;

/// Wraps a router and records every placement it makes.
#[derive(Debug)]
struct Recording {
    inner: Box<dyn Router>,
    placements: Placements,
}

impl Recording {
    fn new(inner: Box<dyn Router>) -> (Self, Placements) {
        let placements = Arc::new(Mutex::new(Vec::new()));
        let router = Recording {
            inner,
            placements: Arc::clone(&placements),
        };
        (router, placements)
    }
}

impl Router for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize> {
        let choice = self.inner.route(request, replicas);
        if let Some(replica) = choice {
            self.placements.lock().unwrap().push((request.id, replica));
        }
        choice
    }
}

/// The simulator's decode output is a pure function of the request: the
/// engine emits exactly `produced` tokens whose identity is determined by
/// the prompt. This digest stands in for the decoded text.
fn output_digest(request: &Request, produced: usize) -> u64 {
    let mut h = DefaultHasher::new();
    request.prompt.to_tokens().hash(&mut h);
    produced.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn routing_policy_never_changes_any_decoded_output(
        seed in 0u64..1_000,
        replicas in 1usize..4,
        kind_ix in 0usize..4,
    ) {
        let kind = TraceKind::all()[kind_ix];
        let requests = generate_trace(TraceConfig {
            kind,
            rate_per_s: 3.0,
            duration_s: 3.0,
            seed,
        });
        let mut reference: Option<BTreeMap<u64, (usize, u64)>> = None;
        for router in policies() {
            let name = router.name();
            let result = run_static(replicas, router, &requests);
            let outputs: BTreeMap<u64, (usize, u64)> = result
                .per_request
                .iter()
                .map(|m| {
                    let request = &requests[m.request_id as usize];
                    (m.request_id, (m.decode_tokens, output_digest(request, m.decode_tokens)))
                })
                .collect();
            // Every request completes exactly once somewhere in the fleet...
            prop_assert_eq!(outputs.len(), requests.len(), "{} lost requests", name);
            // ...and emits the same decoded output no matter the placement.
            match &reference {
                None => reference = Some(outputs),
                Some(expected) => prop_assert_eq!(&outputs, expected, "{} changed outputs", name),
            }
        }
    }
}

/// Zero-completion and single-replica runs must produce finite metrics all
/// the way through `FleetRow` — no NaN from empty means or percentiles.
#[test]
fn empty_and_single_replica_fleet_metrics_are_finite() {
    for (replicas, requests) in [
        (1usize, Vec::new()),
        (4, Vec::new()),
        (
            1,
            generate_trace(TraceConfig {
                kind: TraceKind::Conversation,
                rate_per_s: 1.0,
                duration_s: 2.0,
                seed: 11,
            }),
        ),
    ] {
        let result = run_static(replicas, Box::new(RoundRobin::new()), &requests);
        let row = FleetRow::new("round-robin", "probe", 0.0, &result);
        for v in [
            row.mean_ttft_ms,
            row.mean_tpot_ms,
            row.p99_tpot_ms,
            row.fleet_hit_rate,
            row.load_imbalance,
            row.duplicated_kv_mib,
        ] {
            assert!(
                v.is_finite(),
                "non-finite metric in {replicas}-replica run of {} requests: {row:?}",
                requests.len()
            );
        }
        assert_eq!(row.completed, requests.len());
    }
}

#[test]
fn round_robin_balances_and_consistent_hash_pins_prefix_families() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 6.0,
        duration_s: 8.0,
        seed: 17,
    });
    let (router, placements) = Recording::new(Box::new(RoundRobin::new()));
    let rr = run_static(3, Box::new(router), &requests);
    // Round-robin is balanced by construction (counts differ by at most 1).
    let mut counts = [0usize; 3];
    for &(_, replica) in placements.lock().unwrap().iter() {
        counts[replica] += 1;
    }
    assert_eq!(counts.iter().sum::<usize>(), requests.len());
    assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    assert!(rr.load_imbalance < 0.05);

    let (router, placements) = Recording::new(Box::new(ConsistentHashPrefix::default()));
    run_static(3, Box::new(router), &requests);
    // Every request of a prefix family (same tool prompt) lands on the same
    // replica.
    let mut family_to_replica: BTreeMap<u64, usize> = BTreeMap::new();
    for (id, replica) in placements.lock().unwrap().iter() {
        let family = requests[*id as usize].prompt.segments[0].id;
        let seen = family_to_replica.entry(family).or_insert(*replica);
        assert_eq!(seen, replica, "family {family:#x} split across replicas");
    }
    assert!(
        family_to_replica
            .values()
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1
    );
}

#[test]
fn prefix_affinity_beats_round_robin_on_a_toolagent_fleet() {
    // The Fig. 18 headline in miniature: at 4 replicas on the toolagent
    // trace, prefix-affinity routing must improve fleet hit rate and mean
    // TPOT over round-robin, and hold less duplicated KV memory.
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 16.0,
        duration_s: 10.0,
        seed: 9,
    });
    let rr = run_static(4, Box::new(RoundRobin::new()), &requests);
    let aff = run_static(4, Box::new(PrefixAffinity::new()), &requests);
    assert_eq!(rr.unfinished, 0);
    assert_eq!(aff.unfinished, 0);
    assert!(
        aff.fleet_hit_rate > rr.fleet_hit_rate,
        "affinity hit rate {:.3} !> round-robin {:.3}",
        aff.fleet_hit_rate,
        rr.fleet_hit_rate
    );
    assert!(
        aff.fleet.mean_tpot_ms < rr.fleet.mean_tpot_ms,
        "affinity TPOT {:.3} ms !< round-robin {:.3} ms",
        aff.fleet.mean_tpot_ms,
        rr.fleet.mean_tpot_ms
    );
    assert!(
        aff.duplicated_kv_blocks < rr.duplicated_kv_blocks,
        "affinity duplication {} !< round-robin {}",
        aff.duplicated_kv_blocks,
        rr.duplicated_kv_blocks
    );
}

/// Two replicas doing identical work hold *identical* integer clocks — not
/// clocks an ulp apart — and the fleet's event queue hands equal-instant
/// entries back in push order. Under f64 clocks neither half of this
/// was a guarantee; under the `SimTime` spine both are exact.
#[test]
fn identical_clocks_advance_in_replica_index_order() {
    use serving::{ServingAttention, ServingEngine, StepOutcome};
    use sim_core::{EventQueue, SimTime};

    let requests = generate_trace(TraceConfig {
        kind: TraceKind::Conversation,
        rate_per_s: 3.0,
        duration_s: 4.0,
        seed: 21,
    });
    let mut engines: Vec<ServingEngine> = (0..2)
        .map(|_| ServingEngine::new(engine_config()))
        .collect();
    let mut backends: Vec<LazyPat> = (0..2).map(|_| LazyPat::new()).collect();
    for request in &requests {
        for engine in &mut engines {
            engine.submit(request.clone());
        }
    }
    // Lockstep: after every step, the two replicas' integer clocks are
    // exactly equal — bit-for-bit, no tolerance.
    loop {
        let outcomes: Vec<StepOutcome> = engines
            .iter_mut()
            .zip(backends.iter_mut())
            .map(|(e, b)| e.step(b as &mut dyn ServingAttention))
            .collect();
        assert_eq!(
            engines[0].clock(),
            engines[1].clock(),
            "identical work must produce identical integer clocks"
        );
        if outcomes.iter().all(|&o| o == StepOutcome::Idle) {
            break;
        }
    }
    assert!(engines[0].clock() > SimTime::ZERO);
    assert_eq!(
        engines[0].completed_requests(),
        engines[1].completed_requests()
    );

    // And when the fleet schedules advances for that shared instant, the
    // queue hands them back in replica-index order, every time.
    let tied = engines[0].clock();
    let mut queue: EventQueue<usize> = EventQueue::new();
    for replica in 0..4 {
        queue.push(tied, replica);
    }
    let order: Vec<usize> = std::iter::from_fn(|| queue.pop().map(|(_, r)| r)).collect();
    assert_eq!(order, [0, 1, 2, 3], "equal instants must pop in push order");
}

#[test]
fn least_outstanding_tracks_load_under_skewed_service_times() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::QwenB,
        rate_per_s: 8.0,
        duration_s: 8.0,
        seed: 5,
    });
    let result = run_static(3, Box::new(LeastOutstanding::new()), &requests);
    assert_eq!(result.unfinished, 0);
    assert_eq!(result.fleet.completed, requests.len());
    assert!(
        result.load_imbalance < 0.25,
        "imbalance {:.3}",
        result.load_imbalance
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// `sim_core::par`'s thread count is a pure performance knob for
    /// routing studies too: a random routed fleet run on 1 and on 4 worker
    /// threads must produce byte-identical serialized results.
    #[test]
    fn routed_fleet_results_are_thread_count_invariant(
        seed in 0u64..1_000,
        kind_ix in 0usize..4,
        rate in 4.0f64..10.0,
        policy_ix in 0usize..4,
    ) {
        let requests = generate_trace(TraceConfig {
            kind: TraceKind::all()[kind_ix],
            rate_per_s: rate,
            duration_s: 5.0,
            seed,
        });
        let run = |threads: usize| {
            sim_core::par::set_thread_override(Some(threads));
            let router = policies().swap_remove(policy_ix);
            let result = run_static(3, router, &requests);
            sim_core::par::set_thread_override(None);
            serde_json::to_string(&result).expect("ControlResult serializes")
        };
        prop_assert_eq!(run(1), run(4), "fleet metrics diverge across thread counts");
    }
}
