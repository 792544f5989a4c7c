//! Controller-level outcome accounting: goodput, loss classes, routing
//! metrics, the typed event log, and per-phase slices of a run.

use replica_fidelity::Fidelity;
use serde::{Serialize, Value};
use serving::{AggregateMetrics, RequestMetrics};
use sim_core::stats::{guarded_mean, percentile_sorted};
use sim_core::SimTime;
use std::fmt;
use workloads::Request;

/// One entry in a controlled run's event log: what the control plane did,
/// to which replica, and when, in integer nanoseconds. The same stream
/// renders as the human timeline (via [`fmt::Display`]) and as the Chrome
/// trace ([`crate::timeline_chrome_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// Virtual time of the event, integer nanoseconds.
    pub t_ns: u64,
    /// The replica the event concerns (`None` for fleet-wide events such
    /// as ticks).
    pub replica: Option<usize>,
    /// Span length in nanoseconds: `0` for instant control actions,
    /// positive for extended ones (KV transfers occupy their wire time).
    /// Spans render as complete events in the Chrome trace export.
    pub dur_ns: u64,
    /// What happened.
    pub kind: FleetEventKind,
}

/// The action a [`FleetEvent`] records, with the numbers behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEventKind {
    /// Periodic health-check / control-loop tick (fleet-wide).
    Tick,
    /// The replica crashed with `in_flight` incomplete requests.
    Crash {
        /// Requests torn off the dead engine.
        in_flight: usize,
    },
    /// The replica slowed to `factor` of its normal speed.
    Slowdown {
        /// Speed factor in `(0, 1]`.
        factor: f64,
    },
    /// A crashed or provisioning replica came up with a cold cache.
    Revive,
    /// A straggler's speed factor reset to 1.
    RestoreSpeed,
    /// The health checker noticed a crash.
    Detect {
        /// Requests routed into the dead replica before detection.
        stranded: usize,
    },
    /// The autoscaler began provisioning the replica.
    ScaleUp {
        /// Mean outstanding requests per routable replica at the decision.
        mean_load: f64,
        /// Rolling mean TTFT at the decision, ms.
        rolling_ttft_ms: f64,
    },
    /// The autoscaler began draining the replica.
    ScaleDown,
    /// A drained replica left the fleet.
    Retire,
    /// The fidelity policy switched the replica's model.
    FidelitySwitch {
        /// Fidelity before the switch.
        from: Fidelity,
        /// Fidelity after the switch.
        to: Fidelity,
    },
    /// Transfer span: failover migration of a warm prefix to the replica.
    Migrate {
        /// Replica streaming the prefix.
        donor: usize,
        /// Prefix tokens the target gains.
        tokens: usize,
        /// The held failover request.
        request: u64,
    },
    /// Transfer span: disaggregated prefill→decode KV handoff to the
    /// replica.
    Handoff {
        /// Prefill replica streaming the KV.
        src: usize,
        /// Block-aligned prompt tokens moved.
        tokens: usize,
        /// The held original request.
        request: u64,
    },
    /// Transfer span: speculative prefix push to a (re)joined replica.
    Prewarm {
        /// Replica streaming the prefix.
        donor: usize,
        /// Prefix tokens pushed.
        tokens: usize,
    },
    /// A migration landed: the replica ingested it and the request resumes.
    MigrateIngest {
        /// Tokens actually imported.
        imported: usize,
        /// The released failover request.
        request: u64,
        /// Prompt tokens still to recompute.
        refill: usize,
    },
    /// A prewarm push landed on the replica.
    PrewarmIngest {
        /// Tokens actually imported.
        imported: usize,
    },
    /// A disaggregation handoff landed; the request enters decode.
    HandoffIngest {
        /// Tokens actually imported.
        imported: usize,
        /// The released original request.
        request: u64,
    },
    /// The replica died or drained while a transfer to it was in flight.
    TransferLost {
        /// The held request, back to the orphans (`None` for a prewarm).
        request: Option<u64>,
    },
}

impl FleetEventKind {
    /// The Chrome-trace event name: `"tick"`, `"crash"`, `"transfer"`,
    /// `"migrate-ingest"`, ... (every transfer span is `"transfer"`).
    pub fn name(&self) -> &'static str {
        match self {
            FleetEventKind::Tick => "tick",
            FleetEventKind::Crash { .. } => "crash",
            FleetEventKind::Slowdown { .. } => "slowdown",
            FleetEventKind::Revive => "revive",
            FleetEventKind::RestoreSpeed => "restore-speed",
            FleetEventKind::Detect { .. } => "detect",
            FleetEventKind::ScaleUp { .. } => "scale-up",
            FleetEventKind::ScaleDown => "scale-down",
            FleetEventKind::Retire => "retire",
            FleetEventKind::FidelitySwitch { .. } => "fidelity-switch",
            FleetEventKind::Migrate { .. }
            | FleetEventKind::Handoff { .. }
            | FleetEventKind::Prewarm { .. } => "transfer",
            FleetEventKind::MigrateIngest { .. } => "migrate-ingest",
            FleetEventKind::PrewarmIngest { .. } => "prewarm-ingest",
            FleetEventKind::HandoffIngest { .. } => "handoff-ingest",
            FleetEventKind::TransferLost { .. } => "transfer-lost",
        }
    }
}

impl FleetEvent {
    /// Virtual time of the event, seconds.
    pub fn t_s(&self) -> f64 {
        SimTime::from_ns(self.t_ns).as_secs_f64()
    }

    /// Whether this is a periodic health tick rather than a control action.
    pub fn is_tick(&self) -> bool {
        self.kind == FleetEventKind::Tick
    }
}

/// The human-readable timeline line (`"crash replica 0 (3 requests in
/// flight)"`, ...). Fleet-wide events render as their name.
impl fmt::Display for FleetEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(r) = self.replica else {
            return f.write_str(self.kind.name());
        };
        match self.kind {
            FleetEventKind::Tick => f.write_str("tick"),
            FleetEventKind::Crash { in_flight } => {
                write!(f, "crash replica {r} ({in_flight} requests in flight)")
            }
            FleetEventKind::Slowdown { factor } => write!(f, "slowdown replica {r} to {factor}x"),
            FleetEventKind::Revive => write!(f, "replica {r} up (cold cache)"),
            FleetEventKind::RestoreSpeed => write!(f, "replica {r} speed restored"),
            FleetEventKind::Detect { stranded } => {
                write!(f, "detected crash of replica {r} ({stranded} stranded)")
            }
            FleetEventKind::ScaleUp {
                mean_load,
                rolling_ttft_ms,
            } => write!(
                f,
                "scale-up: provisioning replica {r} (mean load {mean_load:.1}, rolling TTFT {rolling_ttft_ms:.0} ms)"
            ),
            FleetEventKind::ScaleDown => write!(f, "scale-down: draining replica {r}"),
            FleetEventKind::Retire => write!(f, "retired replica {r}"),
            FleetEventKind::FidelitySwitch { from, to } => {
                write!(f, "replica {r} fidelity {from:?} -> {to:?}")
            }
            FleetEventKind::Migrate {
                donor,
                tokens,
                request,
            } => write!(
                f,
                "migrate {tokens} warm prefix tokens r{donor} -> r{r} for request {request}"
            ),
            FleetEventKind::Handoff {
                src,
                tokens,
                request,
            } => write!(
                f,
                "handoff {tokens} prefill tokens r{src} -> r{r} for request {request}"
            ),
            FleetEventKind::Prewarm { donor, tokens } => {
                write!(f, "prewarm {tokens} tokens r{donor} -> r{r}")
            }
            FleetEventKind::MigrateIngest {
                imported,
                request,
                refill,
            } => write!(
                f,
                "replica {r} ingested {imported} migrated tokens; request {request} resumes ({refill} to refill)"
            ),
            FleetEventKind::PrewarmIngest { imported } => {
                write!(f, "replica {r} prewarmed with {imported} tokens")
            }
            FleetEventKind::HandoffIngest { imported, request } => write!(
                f,
                "replica {r} ingested {imported} handoff tokens; request {request} enters decode"
            ),
            FleetEventKind::TransferLost {
                request: Some(request),
            } => write!(
                f,
                "transfer to replica {r} lost; request {request} back to orphans"
            ),
            FleetEventKind::TransferLost { request: None } => {
                write!(f, "prewarm transfer to replica {r} lost")
            }
        }
    }
}

/// Serialized as `{t_ns, replica, dur_ns, kind, what}`: the Chrome name
/// and the human line (the derive supports unit enums only).
impl Serialize for FleetEvent {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("t_ns".to_string(), self.t_ns.to_value()),
            ("replica".to_string(), self.replica.to_value()),
            ("dur_ns".to_string(), self.dur_ns.to_value()),
            ("kind".to_string(), self.kind.name().to_value()),
            ("what".to_string(), self.to_string().to_value()),
        ])
    }
}

/// Result of one controlled fleet run.
///
/// Every offered request lands in exactly one of four buckets —
/// `completed`, `shed`, `lost`, `unfinished` — so
/// `offered == completed + shed + lost + unfinished` always holds. The
/// `unfinished` bucket also holds requests an engine dropped because they
/// can never fit its KV pool.
#[derive(Debug, Clone, Serialize)]
pub struct ControlResult {
    /// Fleet-wide aggregates over completed requests, with latencies
    /// measured from each request's *original* arrival (failover
    /// resubmission delay is charged to the request, not hidden).
    pub fleet: AggregateMetrics,
    /// Per-request records (completed only), corrected to original
    /// arrivals and sorted by request id.
    pub per_request: Vec<RequestMetrics>,
    /// Requests offered to the controller.
    pub offered: usize,
    /// Requests that completed decoding somewhere in the fleet.
    pub completed: usize,
    /// Requests explicitly rejected by admission control.
    pub shed: usize,
    /// Requests lost to crashes (no failover, or the fleet never
    /// recovered enough capacity to replay them).
    pub lost: usize,
    /// Requests that neither completed nor were shed or lost: still queued
    /// or in flight when the run's horizon expired, or dropped by an engine
    /// because prompt plus decode can never fit its KV pool.
    pub unfinished: usize,
    /// Fraction of offered requests that completed within the TTFT SLO
    /// (0.0 when nothing was offered).
    pub goodput: f64,
    /// The TTFT SLO the goodput is measured against, ms.
    pub slo_ttft_ms: f64,
    /// Requests rerouted off a crashed replica.
    pub failovers: usize,
    /// Prefill tokens recomputed because failover landed a request on a
    /// replica without its warm prefix — the PAT-specific cost of losing
    /// a warm cache. Always `refilled_cold + refilled_after_partial_migration`.
    pub refilled_prefill_tokens: u64,
    /// Refilled tokens for failovers that got no migrated KV at all (the
    /// whole uncovered prompt recomputed cold).
    pub refilled_cold: u64,
    /// Refilled tokens for failovers whose prefix was partially covered by
    /// a KV migration — only the uncovered suffix recomputed.
    pub refilled_after_partial_migration: u64,
    /// Prompt tokens whose KV arrived over the transfer plane (migration,
    /// prewarm, and disaggregation-handoff imports) instead of being
    /// recomputed. Disjoint from the refilled counts: a block is never
    /// both migrated and recomputed.
    pub migrated_prefix_tokens: u64,
    /// Failover requests whose prefix was (partially) served by migration.
    pub migrations: usize,
    /// Speculative prefix pushes to replicas that (re)joined the fleet.
    pub prewarm_transfers: usize,
    /// Prefill→decode KV handoffs completed in disaggregated mode.
    pub disagg_handoffs: usize,
    /// KV transfers completed on the movement plane (all kinds).
    pub kv_transfers: u64,
    /// Bytes moved by completed KV transfers.
    pub kv_transfer_bytes: u64,
    /// Time completed transfers spent queued behind busy NICs, ns.
    pub kv_transfer_nic_wait_ns: u64,
    /// Crashes injected (and actually applied).
    pub crashes: usize,
    /// Autoscaler scale-up decisions.
    pub scale_ups: usize,
    /// Autoscaler scale-down (drain) decisions.
    pub scale_downs: usize,
    /// Mid-run replica fidelity switches performed by the fidelity policy
    /// (0 when no [`crate::FidelityPolicy`] is configured).
    pub fidelity_switches: usize,
    /// Maximum number of live (non-dead) replicas at any instant.
    pub peak_replicas: usize,
    /// KV-pressure preemptions summed across all replica incarnations.
    pub preemptions: u64,
    /// Token-level prefix-cache hit rate over every replica incarnation.
    pub fleet_hit_rate: f64,
    /// Coefficient of variation of per-slot engine submissions (0 =
    /// perfectly balanced). A failover or fidelity-switch resubmission
    /// counts again.
    pub load_imbalance: f64,
    /// Shareable KV blocks resident on more than one replica at the end of
    /// the run, counted once per extra copy (always 0 for analytical
    /// replicas, which hold no blocks).
    pub duplicated_kv_blocks: usize,
    /// The same duplication in bytes of KV-cache memory.
    pub duplicated_kv_bytes: u64,
    /// Everything the control plane did, health ticks included, in
    /// virtual-time order. Print it for the human timeline, or feed it to
    /// [`crate::timeline_chrome_json`] for a `chrome://tracing` view.
    pub events: Vec<FleetEvent>,
    /// Ids of shed requests, sorted.
    pub shed_ids: Vec<u64>,
    /// Ids of lost requests, sorted.
    pub lost_ids: Vec<u64>,
}

/// A flat, serializable row of the headline fleet metrics (what the Fig. 18
/// bench persists per `(policy, trace, replicas)` cell).
#[derive(Debug, Clone, Serialize)]
pub struct FleetRow {
    /// Routing policy name.
    pub policy: String,
    /// Trace name.
    pub trace: String,
    /// Number of replicas (the run's peak live count).
    pub replicas: usize,
    /// Offered load, req/s (fleet-wide).
    pub rate_per_s: f64,
    /// Mean time to first token, ms.
    pub mean_ttft_ms: f64,
    /// Mean time per output token, ms.
    pub mean_tpot_ms: f64,
    /// 99th-percentile TPOT, ms.
    pub p99_tpot_ms: f64,
    /// Fleet prefix-cache hit rate in `[0, 1]`.
    pub fleet_hit_rate: f64,
    /// Load-imbalance coefficient (CV of per-slot submissions).
    pub load_imbalance: f64,
    /// Cross-replica duplicated KV bytes, MiB.
    pub duplicated_kv_mib: f64,
    /// Completed requests.
    pub completed: usize,
    /// Unfinished requests.
    pub unfinished: usize,
}

impl FleetRow {
    /// Flattens a controlled run into one bench row.
    pub fn new(policy: &str, trace: &str, rate_per_s: f64, result: &ControlResult) -> Self {
        FleetRow {
            policy: policy.to_string(),
            trace: trace.to_string(),
            replicas: result.peak_replicas,
            rate_per_s,
            mean_ttft_ms: result.fleet.mean_ttft_ms,
            mean_tpot_ms: result.fleet.mean_tpot_ms,
            p99_tpot_ms: result.fleet.p99_tpot_ms,
            fleet_hit_rate: result.fleet_hit_rate,
            load_imbalance: result.load_imbalance,
            duplicated_kv_mib: result.duplicated_kv_bytes as f64 / (1024.0 * 1024.0),
            completed: result.completed,
            unfinished: result.unfinished,
        }
    }
}

/// Goodput and tail latency over one arrival window of a run — used to
/// compare fleets phase by phase (steady state, through a crash, through a
/// burst).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowStats {
    /// Window start (arrival time, inclusive), seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub to_s: f64,
    /// Requests whose original arrival falls in the window.
    pub offered: usize,
    /// Of those, how many completed.
    pub completed: usize,
    /// Of those, how many completed within the TTFT SLO.
    pub within_slo: usize,
    /// `within_slo / offered` (0.0 for an empty window).
    pub goodput: f64,
    /// 99th-percentile TTFT over the window's completions, ms.
    pub p99_ttft_ms: f64,
    /// Mean TTFT over the window's completions, ms.
    pub mean_ttft_ms: f64,
}

/// Reusable buffers for [`window_stats_with`]. Slicing a long run into many
/// windows (phase tables, rolling dashboards, the fleet-scale bench) stops
/// allocating after the first window.
#[derive(Debug, Default)]
pub struct WindowScratch {
    ids: Vec<u64>,
    ttfts_ms: Vec<f64>,
}

/// Slices `result` to the requests of `trace` arriving in `[from_s, to_s)`.
///
/// TTFTs in `result.per_request` are already corrected to original
/// arrivals, so a request delayed by failover shows its true
/// user-perceived first-token latency here.
pub fn window_stats(
    trace: &[Request],
    result: &ControlResult,
    from_s: f64,
    to_s: f64,
) -> WindowStats {
    window_stats_with(&mut WindowScratch::default(), trace, result, from_s, to_s)
}

/// [`window_stats`] with caller-owned scratch buffers: sorts the window's
/// TTFTs once (instead of once per quantile) and reuses `scratch`'s
/// allocations across calls.
pub fn window_stats_with(
    scratch: &mut WindowScratch,
    trace: &[Request],
    result: &ControlResult,
    from_s: f64,
    to_s: f64,
) -> WindowStats {
    scratch.ids.clear();
    scratch.ids.extend(
        trace
            .iter()
            .filter(|r| (from_s..to_s).contains(&r.arrival_s))
            .map(|r| r.id),
    );
    scratch.ids.sort_unstable();
    scratch.ids.dedup();
    scratch.ttfts_ms.clear();
    scratch.ttfts_ms.extend(
        result
            .per_request
            .iter()
            .filter(|m| scratch.ids.binary_search(&m.request_id).is_ok())
            .map(|m| m.ttft_ns / 1e6),
    );
    let within_slo = scratch
        .ttfts_ms
        .iter()
        .filter(|&&t| t <= result.slo_ttft_ms)
        .count();
    let offered = scratch.ids.len();
    let completed = scratch.ttfts_ms.len();
    let mean_ttft_ms = guarded_mean(&scratch.ttfts_ms);
    scratch.ttfts_ms.sort_unstable_by(f64::total_cmp);
    WindowStats {
        from_s,
        to_s,
        offered,
        completed,
        within_slo,
        goodput: if offered == 0 {
            0.0
        } else {
            within_slo as f64 / offered as f64
        },
        p99_ttft_ms: percentile_sorted(&scratch.ttfts_ms, 0.99),
        mean_ttft_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::PromptSpec;

    fn result_with(per_request: Vec<RequestMetrics>, slo_ttft_ms: f64) -> ControlResult {
        ControlResult {
            fleet: AggregateMetrics::from_requests(&per_request),
            offered: per_request.len(),
            completed: per_request.len(),
            per_request,
            shed: 0,
            lost: 0,
            unfinished: 0,
            goodput: 1.0,
            slo_ttft_ms,
            failovers: 0,
            refilled_prefill_tokens: 0,
            refilled_cold: 0,
            refilled_after_partial_migration: 0,
            migrated_prefix_tokens: 0,
            migrations: 0,
            prewarm_transfers: 0,
            disagg_handoffs: 0,
            kv_transfers: 0,
            kv_transfer_bytes: 0,
            kv_transfer_nic_wait_ns: 0,
            crashes: 0,
            scale_ups: 0,
            scale_downs: 0,
            fidelity_switches: 0,
            peak_replicas: 1,
            preemptions: 0,
            fleet_hit_rate: 0.0,
            load_imbalance: 0.0,
            duplicated_kv_blocks: 0,
            duplicated_kv_bytes: 0,
            events: Vec::new(),
            shed_ids: Vec::new(),
            lost_ids: Vec::new(),
        }
    }

    #[test]
    fn fleet_events_render_the_timeline_line_and_chrome_name() {
        let at = |replica, kind| FleetEvent {
            t_ns: 2_500_000_000,
            replica,
            dur_ns: 0,
            kind,
        };
        let crash = at(Some(1), FleetEventKind::Crash { in_flight: 3 });
        assert_eq!(crash.to_string(), "crash replica 1 (3 requests in flight)");
        assert_eq!(crash.kind.name(), "crash");
        assert_eq!(crash.t_s(), 2.5);
        let up = at(
            Some(4),
            FleetEventKind::ScaleUp {
                mean_load: 33.27,
                rolling_ttft_ms: 612.4,
            },
        );
        assert_eq!(
            up.to_string(),
            "scale-up: provisioning replica 4 (mean load 33.3, rolling TTFT 612 ms)"
        );
        let switch = at(
            Some(3),
            FleetEventKind::FidelitySwitch {
                from: Fidelity::Exact,
                to: Fidelity::Analytical,
            },
        );
        assert_eq!(switch.to_string(), "replica 3 fidelity Exact -> Analytical");
        let migrate = at(
            Some(2),
            FleetEventKind::Migrate {
                donor: 0,
                tokens: 64,
                request: 9,
            },
        );
        assert_eq!(
            migrate.to_string(),
            "migrate 64 warm prefix tokens r0 -> r2 for request 9"
        );
        assert_eq!(migrate.kind.name(), "transfer");
        let lost = at(Some(2), FleetEventKind::TransferLost { request: None });
        assert_eq!(lost.to_string(), "prewarm transfer to replica 2 lost");
        let tick = at(None, FleetEventKind::Tick);
        assert!(tick.is_tick() && !crash.is_tick());
        assert_eq!(tick.to_string(), "tick");
        let json = serde_json::to_string(&crash).unwrap();
        assert!(json.contains("\"kind\":\"crash\""), "{json}");
        assert!(
            json.contains("\"what\":\"crash replica 1 (3 requests in flight)\""),
            "{json}"
        );
    }

    #[test]
    fn window_stats_slice_by_original_arrival() {
        let trace: Vec<Request> = (0..4)
            .map(|i| Request {
                id: i,
                arrival_s: i as f64,
                prompt: PromptSpec::from_parts([(1, 16)]),
                decode_tokens: 4,
            })
            .collect();
        let per_request: Vec<RequestMetrics> = (0..4)
            .map(|i| RequestMetrics {
                request_id: i,
                ttft_ns: if i < 2 { 5e6 } else { 500e6 },
                tpot_ns: 1e6,
                completion_ns: 600e6,
                decode_tokens: 4,
            })
            .collect();
        let result = result_with(per_request, 100.0);
        let early = window_stats(&trace, &result, 0.0, 2.0);
        assert_eq!(early.offered, 2);
        assert_eq!(early.within_slo, 2);
        assert_eq!(early.goodput, 1.0);
        let late = window_stats(&trace, &result, 2.0, 4.0);
        assert_eq!(late.offered, 2);
        assert_eq!(late.within_slo, 0);
        assert_eq!(late.goodput, 0.0);
        assert!(late.p99_ttft_ms > early.p99_ttft_ms);
        let empty = window_stats(&trace, &result, 10.0, 20.0);
        assert_eq!(empty.offered, 0);
        assert_eq!(empty.goodput, 0.0);
        assert!(empty.p99_ttft_ms.is_finite());
    }

    #[test]
    fn window_stats_with_reused_scratch_matches_fresh() {
        let trace: Vec<Request> = (0..8)
            .map(|i| Request {
                id: i,
                arrival_s: i as f64,
                prompt: PromptSpec::from_parts([(1, 16)]),
                decode_tokens: 4,
            })
            .collect();
        let per_request: Vec<RequestMetrics> = (0..8)
            .map(|i| RequestMetrics {
                request_id: i,
                ttft_ns: (i + 1) as f64 * 7e6,
                tpot_ns: 1e6,
                completion_ns: 600e6,
                decode_tokens: 4,
            })
            .collect();
        let result = result_with(per_request, 100.0);
        let mut scratch = WindowScratch::default();
        for (from_s, to_s) in [(0.0, 4.0), (4.0, 8.0), (2.0, 6.0), (9.0, 12.0)] {
            let reused = window_stats_with(&mut scratch, &trace, &result, from_s, to_s);
            assert_eq!(reused, window_stats(&trace, &result, from_s, to_s));
        }
    }
}
