//! # cluster — prefix-aware request routing for a multi-replica fleet
//!
//! Routing policies and the read-only replica views they decide on. A fleet
//! is N independent replicas, each with its own KV cache and attention
//! backend; the fleet controller (`controller::FleetController`) co-simulates
//! them in deterministic virtual time and asks a [`Router`] where each
//! request goes. Because replicas never share KV state, the router's
//! placement decides where prefixes stay warm — the same observation that
//! motivates prefix-aware attention inside a replica (PAT, §3.1) applies
//! across replicas: a request routed away from its cached prefix pays full
//! recomputation and duplicates KV memory.
//!
//! Four policies ship with the crate:
//!
//! * [`RoundRobin`] — the oblivious baseline;
//! * [`LeastOutstanding`] — classic load balancing, prefix-blind;
//! * [`ConsistentHashPrefix`] — sticky prefix placement via a hash ring,
//!   load-blind;
//! * [`PrefixAffinity`] — probes every replica's live cache (read-only) and
//!   scores `overlap_tokens − α · outstanding`, falling back to least-loaded
//!   when no replica holds a useful overlap.
//!
//! Routing cannot change what is computed — only where: any single
//! request's decoded output is identical under every policy (a property the
//! controller's test suite checks), while fleet latency, per-replica cache
//! hit rates, load balance ([`load_imbalance`]), and cross-replica KV
//! duplication ([`duplicated_blocks`], [`kv_block_bytes`]) vary.
//!
//! ## Example
//!
//! A fault-free static fleet is the plain routing study:
//!
//! ```no_run
//! use cluster::PrefixAffinity;
//! use controller::{ControllerConfig, FaultPlan, FleetController};
//! use serving::{ModelSpec, ServingConfig};
//! use workloads::{generate_trace, TraceConfig, TraceKind};
//!
//! let requests = generate_trace(TraceConfig {
//!     kind: TraceKind::ToolAgent,
//!     rate_per_s: 16.0,
//!     duration_s: 30.0,
//!     seed: 1,
//! });
//! let config =
//!     ControllerConfig::static_fleet(4, ServingConfig::single_gpu(ModelSpec::llama3_8b()));
//! let result =
//!     FleetController::with_lazy_pat(config, Box::new(PrefixAffinity::new()), FaultPlan::none())
//!         .run(&requests);
//! println!(
//!     "fleet TPOT {:.2} ms, hit rate {:.1}%, imbalance {:.2}",
//!     result.fleet.mean_tpot_ms,
//!     100.0 * result.fleet_hit_rate,
//!     result.load_imbalance,
//! );
//! ```

#![warn(missing_docs)]

mod metrics;
mod router;

pub use metrics::{duplicated_blocks, kv_block_bytes, load_imbalance};
pub use router::{
    ConsistentHashPrefix, LeastOutstanding, PrefixAffinity, ReplicaRole, ReplicaState, ReplicaView,
    RoleScoped, RoundRobin, Router,
};
