//! Fig. 18 (extension): multi-replica cluster serving with prefix-aware
//! request routing. Sweeps routing policy × replica count × the four trace
//! models at a fixed per-replica offered load, reporting fleet TTFT/TPOT,
//! per-fleet prefix-cache hit rate, load-imbalance coefficient, and
//! cross-replica KV duplication.
//!
//! The headline: prefix-affinity routing beats round-robin on mean TPOT and
//! fleet hit rate for the prefix-heavy traces (toolagent, conversation) at
//! ≥ 4 replicas, while holding dramatically less duplicated KV memory —
//! the cross-replica analogue of PAT's within-batch prefix awareness.

use cluster::{ConsistentHashPrefix, LeastOutstanding, PrefixAffinity, RoundRobin, Router};
use controller::{ControllerConfig, FaultPlan, FleetController, FleetRow};
use pat_bench::{banner, save_json};
use serving::{ModelSpec, ServingConfig};
use workloads::{generate_trace, TraceConfig, TraceKind};

const DURATION_S: f64 = 20.0;
const RATE_PER_REPLICA: f64 = 4.0;
const REPLICA_COUNTS: [usize; 3] = [2, 4, 8];

fn policies() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(LeastOutstanding::new()),
        Box::new(ConsistentHashPrefix::default()),
        Box::new(PrefixAffinity::new()),
    ]
}

fn main() {
    let model = ModelSpec::llama3_8b();
    // Build the full (trace, replicas, policy) grid up front, with one
    // shared trace per (trace, replicas) group, then fan every independent
    // fault-free static fleet run across the sim_core::par workers. ordered_map
    // merges results in input order, so rows (and all printed output below)
    // are identical at any PAT_SIM_THREADS.
    let mut groups = Vec::new();
    for trace in TraceKind::all() {
        for &replicas in &REPLICA_COUNTS {
            let rate = RATE_PER_REPLICA * replicas as f64;
            let requests = generate_trace(TraceConfig {
                kind: trace,
                rate_per_s: rate,
                duration_s: DURATION_S,
                seed: 18,
            });
            groups.push((trace, replicas, rate, requests));
        }
    }
    let n_policies = policies().len();
    let cells: Vec<(usize, usize)> = (0..groups.len())
        .flat_map(|g| (0..n_policies).map(move |p| (g, p)))
        .collect();
    let rows: Vec<FleetRow> = sim_core::par::ordered_map(&cells, |_, &(g, p)| {
        let (trace, replicas, rate, ref requests) = groups[g];
        let router = policies().swap_remove(p);
        let policy = router.name();
        let config = ControllerConfig::static_fleet(replicas, ServingConfig::single_gpu(model));
        let result =
            FleetController::with_lazy_pat(config, router, FaultPlan::none()).run(requests);
        FleetRow::new(policy, trace.name(), rate, &result)
    });
    for (g, (trace, replicas, rate, _)) in groups.iter().enumerate() {
        banner(&format!(
            "Fig. 18 — {} trace, {} replicas, {:.0} req/s fleet-wide",
            trace.name(),
            replicas,
            rate
        ));
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10} {:>6}",
            "policy", "TTFT(ms)", "TPOT(ms)", "P99 TPOT", "hit", "imbalance", "dup(MiB)", "done"
        );
        for row in &rows[g * n_policies..(g + 1) * n_policies] {
            println!(
                "{:<18} {:>10.1} {:>10.2} {:>10.2} {:>8.1}% {:>10.3} {:>10.1} {:>6}",
                row.policy,
                row.mean_ttft_ms,
                row.mean_tpot_ms,
                row.p99_tpot_ms,
                100.0 * row.fleet_hit_rate,
                row.load_imbalance,
                row.duplicated_kv_mib,
                row.completed,
            );
        }
    }

    banner("Fig. 18 summary — prefix-affinity vs round-robin at >= 4 replicas");
    let mut all_hold = true;
    for trace in [TraceKind::ToolAgent, TraceKind::Conversation] {
        for &replicas in REPLICA_COUNTS.iter().filter(|&&r| r >= 4) {
            let find = |policy: &str| {
                rows.iter()
                    .find(|r| {
                        r.policy == policy && r.trace == trace.name() && r.replicas == replicas
                    })
                    .expect("swept above")
            };
            let rr = find("round-robin");
            let aff = find("prefix-affinity");
            let tpot_ok = aff.mean_tpot_ms < rr.mean_tpot_ms;
            let hit_ok = aff.fleet_hit_rate > rr.fleet_hit_rate;
            all_hold &= tpot_ok && hit_ok;
            println!(
                "{:<14} x{}: TPOT {:>6.2} vs {:>6.2} ms ({}) | hit {:>5.1}% vs {:>5.1}% ({}) | dup {:>7.1} vs {:>7.1} MiB",
                trace.name(),
                replicas,
                aff.mean_tpot_ms,
                rr.mean_tpot_ms,
                if tpot_ok { "better" } else { "WORSE" },
                100.0 * aff.fleet_hit_rate,
                100.0 * rr.fleet_hit_rate,
                if hit_ok { "better" } else { "WORSE" },
                aff.duplicated_kv_mib,
                rr.duplicated_kv_mib,
            );
        }
    }
    println!(
        "prefix-affinity {} round-robin on both axes for all prefix-heavy cells",
        if all_hold {
            "beats"
        } else {
            "does NOT consistently beat"
        }
    );
    save_json("fig18_cluster_routing", &rows).expect("persist bench results");
}
