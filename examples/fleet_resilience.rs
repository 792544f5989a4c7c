//! Fleet resilience: what the control plane buys when a replica dies.
//!
//! A three-replica fleet serves a steady toolagent stream. At t = 5 s,
//! replica 0 crashes — its warm prefix cache and everything in flight die
//! with it — and comes back cold 6 s later. The same stream and the same
//! crash are run twice:
//!
//! * **managed** — health checks notice the crash within one tick, strand-
//!   ed requests fail over to the survivors (re-prefilling whatever prefix
//!   overlap the new replica lacks), and new arrivals route around the
//!   hole;
//! * **static** — the classic fixed fleet: round-robin keeps addressing
//!   the dead replica, whose share of the traffic simply waits out the
//!   outage (in-flight work at the crash is lost outright).
//!
//! Run with `cargo run --release --example fleet_resilience`. Pass
//! `--trace out.json` to also dump the managed fleet's event-queue
//! timeline as a Chrome trace (open in `chrome://tracing` or Perfetto).

use controller::{
    result_chrome_json, window_stats, ControllerConfig, FaultEvent, FaultKind, FaultPlan,
    FleetController,
};
use pat::prelude::*;
use workloads::{generate_trace, TraceConfig};

const CRASH_AT_S: f64 = 5.0;
const RESTART_AFTER_S: f64 = 6.0;

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

fn main() {
    let trace = generate_trace(TraceConfig {
        kind: TraceKind::ToolAgent,
        rate_per_s: 9.0,
        duration_s: 15.0,
        seed: 7,
    });
    let faults = FaultPlan::scripted(vec![FaultEvent {
        at_s: CRASH_AT_S,
        kind: FaultKind::Crash {
            replica: 0,
            restart_after_s: Some(RESTART_AFTER_S),
        },
    }]);
    println!(
        "{} requests over 15 s; replica 0 dies at {CRASH_AT_S:.0} s, returns cold at {:.0} s",
        trace.len(),
        CRASH_AT_S + RESTART_AFTER_S
    );

    let engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
    let managed = FleetController::with_lazy_pat(
        ControllerConfig::managed(3, engine.clone()),
        Box::new(PrefixAffinity::new()),
        faults.clone(),
    )
    .run(&trace);
    let static_fleet = FleetController::with_lazy_pat(
        ControllerConfig::static_fleet(3, engine),
        Box::new(RoundRobin::new()),
        faults,
    )
    .run(&trace);

    println!("\ncontrol-plane timeline (managed fleet):");
    for e in managed.events.iter().filter(|e| !e.is_tick()) {
        println!("  t={:>6.2}s  {e}", e.t_s());
    }

    println!(
        "\n{:<9} {:>9} {:>6} {:>6} {:>9} {:>13} {:>14}",
        "fleet", "completed", "lost", "shed", "goodput", "P99 TTFT(ms)", "refill tokens"
    );
    for (name, r) in [("managed", &managed), ("static", &static_fleet)] {
        println!(
            "{name:<9} {:>9} {:>6} {:>6} {:>8.1}% {:>13.0} {:>14}",
            r.completed,
            r.lost,
            r.shed,
            100.0 * r.goodput,
            r.fleet.p99_ttft_ms,
            r.refilled_prefill_tokens,
        );
    }

    let outage_to = CRASH_AT_S + RESTART_AFTER_S;
    let m = window_stats(&trace, &managed, CRASH_AT_S, outage_to);
    let s = window_stats(&trace, &static_fleet, CRASH_AT_S, outage_to);
    println!(
        "\nthrough the outage ({CRASH_AT_S:.0}-{outage_to:.0} s): goodput {:.1}% vs {:.1}%, \
         P99 TTFT {:.0} vs {:.0} ms",
        100.0 * m.goodput,
        100.0 * s.goodput,
        m.p99_ttft_ms,
        s.p99_ttft_ms,
    );
    println!(
        "failover replayed {} requests at the cost of {} re-prefilled prefix tokens — \
         the price of losing a warm PAT cache",
        managed.failovers, managed.refilled_prefill_tokens
    );

    if let Some(path) = trace_path() {
        std::fs::write(&path, result_chrome_json(&managed)).expect("write chrome trace");
        println!(
            "\nwrote {} timeline events to {path} (load in chrome://tracing)",
            managed.events.len()
        );
    }
}
