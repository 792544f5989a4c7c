//! Cross-fidelity validation: the two replica models must agree with each
//! other to the degree the analytical one promises (§ fleet-scale
//! simulation).
//!
//! - Analytical fleet aggregates (TTFT/TPOT) stay within the documented
//!   relative-error bound of Exact on seeded small fleets, fault-free,
//!   with chunked prefill, and through a crash with failover.
//! - A mixed-fidelity fleet (hot replicas exact, cold ones analytical)
//!   still conserves every request and stays byte-identical across
//!   `PAT_SIM_THREADS`.

use cluster::{LeastOutstanding, RoundRobin};
use controller::{
    AdmissionConfig, AutoscalerConfig, ControlResult, ControllerConfig, FaultEvent, FaultKind,
    FaultPlan, FidelityPolicy, FleetController, FleetEventKind,
};
use pat_core::LazyPat;
use replica_fidelity::{Fidelity, ANALYTICAL_REL_ERROR_BOUND};
use serving::{ModelSpec, ServingAttention, ServingConfig};
use workloads::{generate_trace, Request, TraceConfig, TraceKind};

fn engine_config() -> ServingConfig {
    ServingConfig::single_gpu(ModelSpec::llama3_8b())
}

fn lazy_pat() -> Box<dyn ServingAttention> {
    Box::new(LazyPat::new())
}

/// Relative error of `got` against `want`, treating a zero reference as
/// exact-match-only.
fn rel_err(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        if got == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (got - want).abs() / want
    }
}

fn assert_conservation(r: &ControlResult) {
    assert_eq!(
        r.offered,
        r.completed + r.shed + r.lost + r.unfinished,
        "request accounting does not balance"
    );
}

/// Serves `requests` with `config` at `fidelity` under a round-robin router.
fn run_at(
    mut config: ControllerConfig,
    fidelity: Fidelity,
    faults: FaultPlan,
    requests: &[Request],
) -> ControlResult {
    config.fidelity = fidelity;
    FleetController::new(config, Box::new(RoundRobin::new()), faults, lazy_pat).run(requests)
}

/// Asserts analytical mean TTFT and TPOT sit within the documented bound of
/// exact, with the same completion count.
fn assert_within_bound(case: &str, exact: &ControlResult, analytical: &ControlResult) {
    assert_eq!(
        exact.completed, analytical.completed,
        "{case}: analytical lost or invented completions"
    );
    for (name, got, want) in [
        (
            "mean TTFT",
            analytical.fleet.mean_ttft_ms,
            exact.fleet.mean_ttft_ms,
        ),
        (
            "mean TPOT",
            analytical.fleet.mean_tpot_ms,
            exact.fleet.mean_tpot_ms,
        ),
    ] {
        let err = rel_err(got, want);
        assert!(
            err <= ANALYTICAL_REL_ERROR_BOUND,
            "{case}: analytical {name} {got:.4} ms vs exact {want:.4} ms \
             (rel err {err:.3} > bound {ANALYTICAL_REL_ERROR_BOUND})"
        );
    }
}

#[test]
fn analytical_fleet_aggregates_stay_within_error_bound() {
    for (kind, seed) in [
        (TraceKind::Conversation, 7),
        (TraceKind::ToolAgent, 9),
        (TraceKind::QwenB, 2),
    ] {
        let requests = generate_trace(TraceConfig {
            kind,
            rate_per_s: 8.0,
            duration_s: 6.0,
            seed,
        });
        let config = ControllerConfig::static_fleet(4, engine_config());
        let exact = run_at(
            config.clone(),
            Fidelity::Exact,
            FaultPlan::none(),
            &requests,
        );
        let analytical = run_at(config, Fidelity::Analytical, FaultPlan::none(), &requests);
        assert_within_bound(&format!("{kind:?}"), &exact, &analytical);
    }

    // Chunked prefill: both fidelities run the same chunked scheduler.
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::Conversation,
        rate_per_s: 8.0,
        duration_s: 6.0,
        seed: 7,
    });
    let mut serving = engine_config();
    serving.chunked_prefill = true;
    let config = ControllerConfig::static_fleet(4, serving);
    let exact = run_at(
        config.clone(),
        Fidelity::Exact,
        FaultPlan::none(),
        &requests,
    );
    let analytical = run_at(config, Fidelity::Analytical, FaultPlan::none(), &requests);
    assert_within_bound("chunked prefill", &exact, &analytical);

    // The fig_failover shape in miniature: a managed fleet (autoscaler,
    // admission control) serving toolagent at 12 req/s loses replica 0
    // mid-run, fails its work over, and gets it back cold.
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 12.0,
        duration_s: 8.0,
        seed: 11,
    });
    let mut config = ControllerConfig::managed(4, engine_config());
    let mut autoscaler = AutoscalerConfig::new(4, 6);
    autoscaler.scale_up_outstanding = 16.0;
    autoscaler.scale_down_outstanding = 2.0;
    config.autoscaler = Some(autoscaler);
    config.admission = Some(AdmissionConfig::default());
    let faults = FaultPlan::scripted(vec![FaultEvent {
        at_s: 2.0,
        kind: FaultKind::Crash {
            replica: 0,
            restart_after_s: Some(3.0),
        },
    }]);
    let exact = run_at(config.clone(), Fidelity::Exact, faults.clone(), &requests);
    let analytical = run_at(config, Fidelity::Analytical, faults, &requests);
    for r in [&exact, &analytical] {
        assert_conservation(r);
        assert_eq!(r.crashes, 1);
        assert!(r.failovers > 0, "the crash stranded no requests");
    }
    assert_within_bound("managed crash", &exact, &analytical);
}

#[test]
fn mixed_fidelity_fleet_conserves_every_request() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 10.0,
        duration_s: 6.0,
        seed: 41,
    });
    let mut config = ControllerConfig::static_fleet(6, engine_config());
    config.fidelity_policy = Some(FidelityPolicy::hot_exact_cold_analytical());
    let result = FleetController::new(
        config,
        Box::new(LeastOutstanding::new()),
        FaultPlan::none(),
        lazy_pat,
    )
    .run(&requests);
    assert!(result.fidelity_switches > 0, "the fleet never mixed");
    assert!(result
        .events
        .iter()
        .any(|e| matches!(e.kind, FleetEventKind::FidelitySwitch { .. })));
    // Conservation: every offered request is completed or unfinished —
    // nothing vanishes across the fidelity boundary.
    assert_conservation(&result);
    assert_eq!(result.shed + result.lost, 0);
    assert!(result.completed > 0);
    assert!(result.fleet.mean_ttft_ms.is_finite() && result.fleet.mean_tpot_ms.is_finite());
}

/// `sim_core::par` threads stay a pure performance knob when fidelities are
/// mixed: 1-thread and 4-thread runs serialize to identical bytes.
#[test]
fn mixed_fidelity_results_are_thread_count_invariant() {
    let requests = generate_trace(TraceConfig {
        kind: TraceKind::Conversation,
        rate_per_s: 8.0,
        duration_s: 4.0,
        seed: 13,
    });
    let run = |threads: usize| {
        sim_core::par::set_thread_override(Some(threads));
        let mut config = ControllerConfig::static_fleet(5, engine_config());
        config.fidelity_policy = Some(FidelityPolicy::hot_exact_cold_analytical());
        let result = FleetController::new(
            config,
            Box::new(RoundRobin::new()),
            FaultPlan::none(),
            lazy_pat,
        )
        .run(&requests);
        sim_core::par::set_thread_override(None);
        serde_json::to_string(&result).expect("ControlResult serializes")
    };
    let one = run(1);
    assert_eq!(one, run(4), "mixed fleet diverges across thread counts");
    assert_eq!(one, run(1), "mixed fleet is not rerun-stable");
}
