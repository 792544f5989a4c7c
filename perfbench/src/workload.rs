//! The three workloads: their inputs (generated from the seed alone) and
//! the programs that serve them.

use cluster::LeastOutstanding;
use controller::{
    AdmissionConfig, AutoscalerConfig, ControllerConfig, FaultEvent, FaultKind, FaultPlan,
    FleetController, TransferConfig,
};
use kv_transfer::{FleetTopology, LinkSpec};
use rand::SeedableRng;
use replica_fidelity::Fidelity;
use serving::{ModelSpec, ServingConfig};
use sim_gpu::GpuSpec;
use workloads::{
    generate_multi_tenant, generate_multi_tenant_at, Burst, BurstyArrivals, DiurnalArrivals,
    MultiTenantConfig, PromptSpec, Request, TenantSpec, TraceKind,
};

/// TTFT service-level objective behind `sim_goodput`, ms (the SLO of the
/// repository's fleet benches).
pub const SLO_TTFT_MS: f64 = 500.0;

/// `exact_shared_prefix`: toolagent + conversation, req/s over virtual s.
const SHARED_RATE: f64 = 4.0;
const SHARED_DURATION_S: f64 = 200.0;

/// `exact_unshared`: the same tenants at a rate one engine sustains when
/// every prompt must be prefilled in full.
const UNSHARED_RATE: f64 = 1.0;
const UNSHARED_DURATION_S: f64 = 800.0;

/// Segment-id namespace of the unshared rewrite. Trace generators use bits
/// 40..44 and tenant tags bits 48..56, so bit 62 is never set by them.
const UNSHARED_NS: u64 = 1 << 62;

/// `analytical_fleet_day`: a compressed day on a managed analytical fleet.
pub const FLEET_REPLICAS: usize = 64;
const FLEET_DAY_S: f64 = 33.0;
/// Mean req/s of the (toolagent, conversation, batch) tenants — the
/// per-replica load of `fig_fleet_scale`'s 256-replica scale cell.
const FLEET_RATES: [f64; 3] = [107.5, 85.0, 62.5];
const FLEET_CRASHES: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExactSharedPrefix,
    ExactUnshared,
    AnalyticalFleetDay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExactSharedPrefix,
        Workload::ExactUnshared,
        Workload::AnalyticalFleetDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactSharedPrefix => "exact_shared_prefix",
            Workload::ExactUnshared => "exact_unshared",
            Workload::AnalyticalFleetDay => "analytical_fleet_day",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's request stream: arrival-ordered, unique ids, an
    /// open-loop schedule in virtual time.
    pub fn generate(self, seed: u64) -> Vec<Request> {
        match self {
            Workload::ExactSharedPrefix => two_tenants(SHARED_RATE, SHARED_DURATION_S, seed),
            Workload::ExactUnshared => {
                let mut requests = two_tenants(UNSHARED_RATE, UNSHARED_DURATION_S, seed);
                for r in &mut requests {
                    let tokens = r.prompt.total_tokens();
                    r.prompt = PromptSpec::from_parts([(UNSHARED_NS | r.id, tokens)]);
                }
                requests
            }
            Workload::AnalyticalFleetDay => fleet_day(seed),
        }
    }
}

/// The single-GPU engine every workload serves with: llama3-8b on an A100.
pub fn engine_config() -> ServingConfig {
    let mut config = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    config.gpu = GpuSpec::a100_sxm4_80gb();
    config
}

fn two_tenants(rate: f64, duration_s: f64, seed: u64) -> Vec<Request> {
    generate_multi_tenant(&MultiTenantConfig {
        tenants: vec![
            TenantSpec {
                kind: TraceKind::ToolAgent,
                rate_per_s: rate / 2.0,
            },
            TenantSpec {
                kind: TraceKind::Conversation,
                rate_per_s: rate / 2.0,
            },
        ],
        duration_s,
        seed,
    })
    .requests
}

/// Three tenants over one compressed day: two phase-shifted diurnal cycles
/// and a batch tenant with two bursts, over disjoint prefix pools.
fn fleet_day(seed: u64) -> Vec<Request> {
    let d = FLEET_DAY_S;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let toolagent = DiurnalArrivals::new(FLEET_RATES[0], d, 0.5).take_until(d, &mut rng);
    let chat = DiurnalArrivals::new(FLEET_RATES[1], d / 2.0, 0.4).take_until(d, &mut rng);
    let batch = BurstyArrivals::new(
        FLEET_RATES[2],
        vec![
            Burst {
                start_s: 0.25 * d,
                end_s: 0.30 * d,
                multiplier: 2.5,
            },
            Burst {
                start_s: 0.70 * d,
                end_s: 0.74 * d,
                multiplier: 3.0,
            },
        ],
    )
    .take_until(d, &mut rng);
    generate_multi_tenant_at(
        &[
            (TraceKind::ToolAgent, toolagent),
            (TraceKind::Conversation, chat),
            (TraceKind::QwenB, batch),
        ],
        seed,
    )
    .requests
}

/// The fleet-day quarters whose goodput and TTFT the run reports.
pub const FLEET_PHASES: [(f64, f64); 4] = [
    (0.0, 0.25 * FLEET_DAY_S),
    (0.25 * FLEET_DAY_S, 0.5 * FLEET_DAY_S),
    (0.5 * FLEET_DAY_S, 0.75 * FLEET_DAY_S),
    (0.75 * FLEET_DAY_S, FLEET_DAY_S),
];

/// The managed fleet of `fig_fleet_scale`'s scale cell at
/// [`FLEET_REPLICAS`]: health checks and failover, an autoscaler, admission
/// control and KV migration over a uniform RDMA fabric.
pub fn fleet_config() -> ControllerConfig {
    let n = FLEET_REPLICAS;
    let mut config = ControllerConfig::managed(n, engine_config());
    config.fidelity = Fidelity::Analytical;
    config.slo_ttft_ms = SLO_TTFT_MS;
    let mut autoscaler = AutoscalerConfig::new(n, n + n / 8);
    autoscaler.scale_up_outstanding = 24.0;
    autoscaler.scale_down_outstanding = 2.0;
    autoscaler.provision_delay_s = (FLEET_DAY_S / 100.0).max(1.0);
    autoscaler.cooldown_s = (FLEET_DAY_S / 50.0).max(2.0);
    config.autoscaler = Some(autoscaler);
    config.admission = Some(AdmissionConfig {
        max_outstanding_per_replica: 64,
        max_queued: 8192,
    });
    config.transfer = Some(TransferConfig::migration(FleetTopology::uniform(
        n,
        LinkSpec::rdma_200g(),
    )));
    config
}

/// Crashes spread across the day on scattered replicas; each victim
/// restarts cold after a tenth of the day.
pub fn fleet_faults() -> FaultPlan {
    let d = FLEET_DAY_S;
    FaultPlan::scripted(
        (0..FLEET_CRASHES)
            .map(|i| FaultEvent {
                at_s: d * (0.04 + 0.15 * i as f64),
                kind: FaultKind::Crash {
                    replica: (i * 37 + 5) % FLEET_REPLICAS,
                    restart_after_s: Some((d / 10.0).min(30.0)),
                },
            })
            .collect(),
    )
}

/// The fleet's router, before any timing wrapper.
pub fn fleet_router() -> Box<dyn cluster::Router> {
    Box::new(LeastOutstanding::new())
}

/// A controller over `router` whose replicas get their (unused on an
/// analytical fleet) planners from `planner`.
pub fn fleet_controller(
    router: Box<dyn cluster::Router>,
    planner: impl FnMut() -> Box<dyn serving::ServingAttention> + 'static,
) -> FleetController {
    FleetController::new(fleet_config(), router, fleet_faults(), planner)
}
