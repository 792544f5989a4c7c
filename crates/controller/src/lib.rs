//! # controller — a fault-injecting fleet control plane
//!
//! The one fleet simulator. Where the [`cluster`] routers answer *"which
//! replica should serve this request?"*, this crate runs the fleet: it
//! co-simulates steppable [`replica_fidelity::ReplicaModel`] replicas on one
//! deterministic event queue, routes every arrival through a
//! [`cluster::Router`], and reports fleet latency, prefix-cache hit rate,
//! load balance and cross-replica KV duplication
//! ([`ControlResult`], [`FleetRow`]). A fault-free
//! [`ControllerConfig::static_fleet`] is the plain routing study. On top of
//! that it answers *"what happens to the fleet when things go wrong?"*: it
//! drives the replicas through injected crashes and slowdowns, and supplies
//! the machinery a production deployment uses to survive them:
//!
//! * **Fault injection** ([`FaultPlan`]) — scripted or seeded-random
//!   crashes (cold-cache restarts) and stragglers (speed-factor
//!   slowdowns), generated up front so every run is deterministic.
//! * **Health checking** — the control plane's *observed* replica state
//!   lags ground truth by up to one tick; routing decisions use the
//!   observed state, so requests keep flowing into a dead replica until
//!   the crash is detected.
//! * **Failover** — incomplete requests are torn off a crashed replica and
//!   replayed elsewhere. The replay pays the PAT-specific price: whatever
//!   prefix was warm on the dead replica must be re-prefilled wherever the
//!   request lands ([`ControlResult::refilled_prefill_tokens`]).
//! * **SLO-aware autoscaling** ([`AutoscalerConfig`]) — grows the fleet on
//!   queue depth or rolling-TTFT pressure (after a provisioning delay,
//!   cold), and drains the least-loaded replica gracefully when load
//!   recedes.
//! * **Admission control** ([`AdmissionConfig`]) — queues load at
//!   saturation and sheds past the buffer, so overload degrades goodput
//!   ([`ControlResult::goodput`]) instead of latency for everyone.
//! * **KV movement** ([`TransferConfig`]) — a cross-replica transfer plane
//!   (the `kv-transfer` crate) the controller uses for warm-prefix
//!   migration on failover, speculative prewarm on revive/scale-up, and
//!   prefill/decode disaggregation ([`DisaggConfig`]): shadow prefills run
//!   on a prefill tier and stream finished KV to the decode tier before
//!   decode admission.
//! * **Per-replica fidelity** ([`FidelityPolicy`]) — each replica simulates
//!   at a [`replica_fidelity::Fidelity`] chosen at construction
//!   ([`ControllerConfig::fidelity`], env `PAT_REPLICA_FIDELITY`) or
//!   adaptively per tick: hot replicas exact, cold replicas analytical,
//!   switched mid-run via a cold handoff.
//!
//! Every offered request is accounted for in exactly one of
//! `completed / shed / lost / unfinished`; requests an engine drops because
//! they can never fit its KV pool count as `unfinished`. Every control
//! action lands in one typed event log ([`FleetEvent`]), printed as the
//! human timeline or exported as a Chrome trace ([`result_chrome_json`]).
//!
//! ## Example
//!
//! ```
//! use cluster::PrefixAffinity;
//! use controller::{ControllerConfig, FaultEvent, FaultKind, FaultPlan, FleetController};
//! use serving::{ModelSpec, ServingConfig};
//! use workloads::{generate_trace, TraceConfig, TraceKind};
//!
//! let trace = generate_trace(TraceConfig {
//!     kind: TraceKind::ToolAgent,
//!     rate_per_s: 8.0,
//!     duration_s: 6.0,
//!     seed: 1,
//! });
//! let faults = FaultPlan::scripted(vec![FaultEvent {
//!     at_s: 2.0,
//!     kind: FaultKind::Crash { replica: 0, restart_after_s: Some(3.0) },
//! }]);
//! let config = ControllerConfig::managed(2, ServingConfig::single_gpu(ModelSpec::llama3_8b()));
//! let result = FleetController::with_lazy_pat(config, Box::new(PrefixAffinity::new()), faults)
//!     .run(&trace);
//! assert_eq!(result.crashes, 1);
//! assert_eq!(
//!     result.offered,
//!     result.completed + result.shed + result.lost + result.unfinished
//! );
//! ```

#![warn(missing_docs)]

mod faults;
mod fleet;
mod metrics;
mod trace;

pub use faults::{FaultEvent, FaultKind, FaultPlan, RandomFaultConfig};
pub use fleet::{
    AdmissionConfig, AutoscalerConfig, ControllerConfig, DisaggConfig, FidelityPolicy,
    FleetController, TransferConfig,
};
pub use metrics::{
    window_stats, window_stats_with, ControlResult, FleetEvent, FleetEventKind, FleetRow,
    WindowScratch, WindowStats,
};
pub use trace::{result_chrome_json, timeline_chrome_json};
