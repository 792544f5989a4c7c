//! Warm-prefix migration: failover without paying for the prefill twice.
//!
//! A three-replica fleet serves a toolagent stream whose requests share a
//! couple dozen hot tool prefixes. The crash script is chosen to make the
//! cold-failover cost visible: replica 0 dies at t = 3 s and revives
//! *cold* at 5 s; then replica 1 dies at 6 s. Its orphans fail over onto
//! the freshly revived, empty replica 0 (least outstanding) — which holds
//! none of the warm prefixes that the untouched replica 2 still does.
//!
//! The same stream and crashes run twice:
//!
//! * **cold failover** — every orphan re-prefills its whole prompt on the
//!   cold target, from token zero;
//! * **migration** — the controller finds the donor with the largest
//!   resident prefix overlap, streams those KV blocks over a 200 Gb RDMA
//!   link (modelled as `latency + bytes/bandwidth` with NIC
//!   serialization), the target ingests them without recompute, and only
//!   the uncovered suffix pays prefill. When moving the blocks would
//!   finish later than recomputing them, the controller falls back to the
//!   cold path — migration never makes a request slower.
//!
//! Run with `cargo run --release --example kv_migration`. Pass
//! `--trace out.json` to dump the migration run's event-queue timeline as
//! a Chrome trace — the `transfer` spans (with real durations) and the
//! `migrate-ingest` instants show the KV movement plane at work (open in
//! `chrome://tracing` or Perfetto).

use controller::{timeline_chrome_json, window_stats, FaultEvent, FaultKind, FaultPlan};
use pat::prelude::*;
use workloads::{generate_trace, TraceConfig};

const REPLICAS: usize = 3;
const CRASH0_AT_S: f64 = 3.0;
const RESTART0_AFTER_S: f64 = 2.0;
const CRASH1_AT_S: f64 = 6.0;
const RESTART1_AFTER_S: f64 = 6.0;

/// Parses `--trace <path>` from the command line, if present.
fn trace_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let path = args
                .next()
                .expect("--trace requires a path, e.g. --trace out.json");
            return Some(path);
        }
    }
    None
}

fn faults() -> FaultPlan {
    FaultPlan::scripted(vec![
        FaultEvent {
            at_s: CRASH0_AT_S,
            kind: FaultKind::Crash {
                replica: 0,
                restart_after_s: Some(RESTART0_AFTER_S),
            },
        },
        FaultEvent {
            at_s: CRASH1_AT_S,
            kind: FaultKind::Crash {
                replica: 1,
                restart_after_s: Some(RESTART1_AFTER_S),
            },
        },
    ])
}

fn main() {
    let trace = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 8.0,
        duration_s: 14.0,
        seed: 11,
    });
    println!(
        "{} requests over 14 s; replica 0 dies at {CRASH0_AT_S:.0} s and revives cold at \
         {:.0} s; replica 1 dies at {CRASH1_AT_S:.0} s — its orphans land on the cold replica",
        trace.len(),
        CRASH0_AT_S + RESTART0_AFTER_S,
    );

    let engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    let cold = FleetController::with_lazy_pat(
        ControllerConfig::managed(REPLICAS, engine.clone()),
        Box::new(LeastOutstanding::new()),
        faults(),
    )
    .run(&trace);

    let mut config = ControllerConfig::managed(REPLICAS, engine);
    config.transfer = Some(TransferConfig::migration(LinkSpec::rdma_200g()));
    let migrated =
        FleetController::with_lazy_pat(config, Box::new(LeastOutstanding::new()), faults())
            .run(&trace);

    println!("\ncontrol-plane timeline (migration fleet):");
    for e in migrated.events.iter().filter(|e| !e.is_tick()) {
        println!("  t={:>6.2}s  {e}", e.t_s());
    }

    println!(
        "\n{:<14} {:>9} {:>9} {:>13} {:>13} {:>11} {:>13}",
        "fleet",
        "completed",
        "failovers",
        "refilled cold",
        "after-migr.",
        "migrated",
        "P99 TTFT(ms)"
    );
    for (name, r) in [("cold-failover", &cold), ("migration", &migrated)] {
        println!(
            "{name:<14} {:>9} {:>9} {:>13} {:>13} {:>11} {:>13.0}",
            r.completed,
            r.failovers,
            r.refilled_cold,
            r.refilled_after_partial_migration,
            r.migrated_prefix_tokens,
            r.fleet.p99_ttft_ms,
        );
    }

    let outage_to = CRASH1_AT_S + RESTART1_AFTER_S;
    let c = window_stats(&trace, &cold, CRASH0_AT_S, outage_to);
    let m = window_stats(&trace, &migrated, CRASH0_AT_S, outage_to);
    println!(
        "\nthrough the outages ({CRASH0_AT_S:.0}-{outage_to:.0} s): goodput {:.1}% cold vs \
         {:.1}% migrated, P99 TTFT {:.0} vs {:.0} ms",
        100.0 * c.goodput,
        100.0 * m.goodput,
        c.p99_ttft_ms,
        m.p99_ttft_ms,
    );
    println!(
        "{} migrations moved {} prefix tokens ({:.1} MB) over the wire; the cold fleet \
         recomputed {} tokens, the migrating fleet only {}",
        migrated.migrations,
        migrated.migrated_prefix_tokens,
        migrated.kv_transfer_bytes as f64 / 1e6,
        cold.refilled_prefill_tokens,
        migrated.refilled_prefill_tokens,
    );

    if let Some(path) = trace_path() {
        std::fs::write(&path, timeline_chrome_json(&migrated.events)).expect("write chrome trace");
        let transfers = migrated
            .events
            .iter()
            .filter(|e| e.kind.name() == "transfer")
            .count();
        println!(
            "\nwrote {} timeline events to {path} ({transfers} transfer spans; load in \
             chrome://tracing)",
            migrated.events.len()
        );
    }
}
