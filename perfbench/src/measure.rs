//! Timed and traced runs of one workload, the correctness gate, and the
//! metrics each run reports.
//!
//! A run repeats *passes* until its time is up. A pass sets the workload up
//! (generates the trace, builds the engine or fleet) and then serves it —
//! the timed phase. Every pass of one seed must simulate the same outcome.
//! In a traced run, passes alternate between bare and wrapped (timing
//! wrappers and spans on); the per-layer metrics come from the first
//! wrapped pass and the tracing overhead from comparing the two kinds.

use crate::layers::{
    lock, Clock, PlannerLog, RouterLog, Span, SpanTree, TimedPlanner, TimedRouter,
};
use crate::stats::{median, peak_rss_mib, reference_job_in_child_s, Digest, Dist};
use crate::workload::{
    engine_config, fleet_controller, fleet_router, Workload, FLEET_PHASES, SLO_TTFT_MS,
};
use attn_kernel::{
    analyze_traffic, simulate_plan_trusted, theoretical_min_kv_bytes, DecodeBatch, KernelPlan,
};
use controller::{window_stats, ControlResult, WindowStats};
use kv_cache::{BatchPrefixStats, CacheStats};
use pat_core::{LazyPat, PlanReuse};
use serving::{
    RequestMetrics, ServingAttention, ServingEngine, SimulationResult, StepOutcome, StepSimStats,
};
use sim_core::SimTime;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use workloads::Request;

/// Set-ups a run times after its passes; `setup_s` is their median.
const SETUP_SAMPLES: usize = 101;

/// Reference-job seconds of a host running at nominal speed. Host times are
/// scaled by this over the run's median reference time, so a slower phase
/// of a shared host, which slows the reference job as well, cancels out.
const REFERENCE_NOMINAL_S: f64 = 0.04;

/// Times each sampled (batch, plan) pair is replayed; the median counts.
const REPLAY_REPEATS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Offered requests summed over every pass.
    pub attempted: u64,
    /// Offered requests of passes that failed the correctness gate.
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra facts for the details line, as `(key, JSON value)`.
    pub notes: Vec<(&'static str, String)>,
    /// The traced pass's spans as Chrome-trace JSON (traced runs only).
    pub chrome_trace: Option<String>,
}

/// The simulated result of one pass, reduced to what the end-to-end
/// metrics and the correctness gate read.
#[derive(Debug)]
struct Outcome {
    offered: usize,
    completed: usize,
    ttft_ms: Vec<f64>,
    tpot_ms: Vec<f64>,
    within_slo: usize,
    digest: u64,
    violations: Vec<String>,
}

impl Outcome {
    fn new(offered: usize, per_request: &[RequestMetrics], digest: &mut Digest) -> Outcome {
        for m in per_request {
            digest.word(m.request_id);
            digest.float(m.ttft_ns);
            digest.float(m.tpot_ns);
            digest.float(m.completion_ns);
            digest.word(m.decode_tokens as u64);
        }
        let ttft_ms: Vec<f64> = per_request.iter().map(|m| m.ttft_ns / 1e6).collect();
        Outcome {
            offered,
            completed: per_request.len(),
            within_slo: ttft_ms.iter().filter(|&&t| t <= SLO_TTFT_MS).count(),
            tpot_ms: per_request
                .iter()
                .filter(|m| m.decode_tokens > 1)
                .map(|m| m.tpot_ns / 1e6)
                .collect(),
            ttft_ms,
            digest: 0,
            violations: Vec::new(),
        }
    }

    /// Engine accounting: every offered request completed, was dropped as
    /// unservable, or is unfinished — and the engine never faulted.
    fn engine(offered: usize, r: &SimulationResult) -> Outcome {
        let mut digest = Digest::default();
        let mut o = Outcome::new(offered, &r.per_request, &mut digest);
        for w in [
            r.unfinished as u64,
            r.dropped,
            r.preemptions,
            r.decode_steps as u64,
        ] {
            digest.word(w);
        }
        o.digest = digest.finish();
        let accounted = r.per_request.len() + r.dropped as usize + r.unfinished;
        if accounted != offered {
            o.violations.push(format!(
                "engine conservation: completed {} + dropped {} + unfinished {} != offered {offered}",
                r.per_request.len(),
                r.dropped,
                r.unfinished
            ));
        }
        if let Some(fault) = &r.fault {
            o.violations.push(format!("engine fault: {fault}"));
        }
        o
    }

    /// Fleet accounting: offered = completed + shed + lost + unfinished.
    fn fleet(offered: usize, r: &ControlResult, phases: &[WindowStats]) -> Outcome {
        let mut digest = Digest::default();
        let mut o = Outcome::new(offered, &r.per_request, &mut digest);
        for w in [
            r.shed,
            r.lost,
            r.unfinished,
            r.failovers,
            r.crashes,
            r.scale_ups,
            r.scale_downs,
            r.migrations,
        ] {
            digest.word(w as u64);
        }
        for p in phases {
            digest.word(p.offered as u64);
            digest.word(p.completed as u64);
            digest.float(p.p99_ttft_ms);
        }
        o.digest = digest.finish();
        if r.offered != offered {
            o.violations.push(format!(
                "fleet saw {} requests, {offered} offered",
                r.offered
            ));
        }
        if r.offered != r.completed + r.shed + r.lost + r.unfinished {
            o.violations.push(format!(
                "fleet conservation: completed {} + shed {} + lost {} + unfinished {} != offered {}",
                r.completed, r.shed, r.lost, r.unfinished, r.offered
            ));
        }
        if r.completed != r.per_request.len() {
            o.violations.push(format!(
                "fleet reports {} completed but {} per-request records",
                r.completed,
                r.per_request.len()
            ));
        }
        o
    }
}

/// What a wrapped pass recorded, beyond its outcome.
#[derive(Debug)]
struct Recording {
    spans: Vec<Span>,
    planner: PlannerLog,
    router_spans: Vec<Span>,
    /// Per-layer counters read from public accessors after the pass.
    counters: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
struct Pass {
    run_s: f64,
    /// Mean reference-job time just before and after the pass.
    ref_s: f64,
    outcome: Outcome,
}

/// Replays `requests` into `engine` as an open loop in virtual time: each
/// request is submitted once the engine's clock reaches its arrival, and
/// the engine steps until it has nothing left to do. Returns the number of
/// steps that made progress.
fn serve(
    engine: &mut ServingEngine,
    attention: &mut dyn ServingAttention,
    requests: &[Request],
    mut trace: Option<(Clock, &mut Vec<Span>)>,
) -> u64 {
    let mut next = 0;
    let mut steps = 0u64;
    loop {
        while next < requests.len()
            && SimTime::from_secs_f64(requests[next].arrival_s) <= engine.clock()
        {
            engine.submit(requests[next].clone());
            next += 1;
        }
        let outcome = match trace.as_mut() {
            Some((clock, spans)) => {
                let start_ns = clock.ns();
                let outcome = engine.step(attention);
                spans.push(Span {
                    name: "serving.step",
                    start_ns,
                    end_ns: clock.ns(),
                    id: steps,
                });
                outcome
            }
            None => engine.step(attention),
        };
        match outcome {
            StepOutcome::Progress => steps += 1,
            StepOutcome::Idle if next < requests.len() => {
                // Nothing in flight: hand over the next arrival, which the
                // engine jumps its clock to.
                engine.submit(requests[next].clone());
                next += 1;
            }
            StepOutcome::Idle => return steps,
        }
    }
}

/// Times `f` as a span named `name` when `clock` is set.
fn span<T>(
    clock: Option<Clock>,
    spans: &mut Vec<Span>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(clock) = clock else { return f() };
    let start_ns = clock.ns();
    let out = f();
    spans.push(Span {
        name,
        start_ns,
        end_ns: clock.ns(),
        id,
    });
    out
}

fn engine_pass(workload: Workload, seed: u64, clock: Option<Clock>) -> (Pass, Option<Recording>) {
    let mut spans = Vec::new();
    let requests = span(clock, &mut spans, "workloads.generate", seed, || {
        workload.generate(seed)
    });
    let mut engine = ServingEngine::new(engine_config());
    let log = PlannerLog::shared();
    let mut attention: Box<dyn ServingAttention> = match clock {
        Some(clock) => Box::new(TimedPlanner::new(LazyPat::new(), clock, log.clone())),
        None => Box::new(LazyPat::new()),
    };

    let t1 = Instant::now();
    let run_start_ns = clock.map(Clock::ns);
    let steps = serve(
        &mut engine,
        attention.as_mut(),
        &requests,
        clock.map(|c| (c, &mut spans)),
    );
    let cache = engine.cache().stats();
    let step_sim = engine.step_sim_stats();
    let result = span(clock, &mut spans, "metrics.into_result", 0, || {
        engine.into_result()
    });
    let run_s = t1.elapsed().as_secs_f64();

    let recording = clock.zip(run_start_ns).map(|(clock, start_ns)| {
        spans.push(Span {
            name: "run",
            start_ns,
            end_ns: clock.ns(),
            id: seed,
        });
        Recording {
            spans,
            planner: lock(&log).take(),
            router_spans: Vec::new(),
            counters: engine_counters(steps, &result, cache, step_sim),
        }
    });
    let pass = Pass {
        run_s,
        ref_s: 0.0,
        outcome: Outcome::engine(requests.len(), &result),
    };
    (pass, recording)
}

fn engine_counters(
    steps: u64,
    r: &SimulationResult,
    cache: CacheStats,
    step_sim: StepSimStats,
) -> Vec<(&'static str, f64)> {
    vec![
        ("serving.steps", steps as f64),
        ("serving.decode_steps", r.decode_steps as f64),
        ("serving.mean_batch", r.mean_batch),
        ("serving.preemptions", r.preemptions as f64),
        ("serving.sim_attn_share", r.attention_fraction),
        ("kv_cache.hit_rate", cache.hit_rate()),
        ("kv_cache.hit_tokens", cache.hit_tokens as f64),
        ("kv_cache.miss_tokens", cache.miss_tokens as f64),
        ("kv_cache.evicted_blocks", cache.evicted_blocks as f64),
        ("step_cache.hits", step_sim.hits as f64),
        ("step_cache.misses", step_sim.misses as f64),
        ("step_cache.hit_rate", step_sim.hit_rate()),
    ]
}

fn fleet_pass(seed: u64, clock: Option<Clock>) -> (Pass, Option<Recording>) {
    let mut spans = Vec::new();
    let requests = span(clock, &mut spans, "workloads.generate", seed, || {
        Workload::AnalyticalFleetDay.generate(seed)
    });
    let router_log = Rc::new(RefCell::new(RouterLog::default()));
    let planner_log = PlannerLog::shared();
    let controller = match clock {
        Some(clock) => {
            let log = planner_log.clone();
            fleet_controller(
                Box::new(TimedRouter::new(fleet_router(), clock, router_log.clone())),
                move || Box::new(TimedPlanner::new(LazyPat::new(), clock, log.clone())),
            )
        }
        None => fleet_controller(fleet_router(), || Box::new(LazyPat::new())),
    };

    let t1 = Instant::now();
    let run_start_ns = clock.map(Clock::ns);
    let result = span(clock, &mut spans, "controller.run", 0, || {
        controller.run(&requests)
    });
    let phases: Vec<WindowStats> = FLEET_PHASES
        .iter()
        .enumerate()
        .map(|(i, &(from_s, to_s))| {
            span(clock, &mut spans, "metrics.window_stats", i as u64, || {
                window_stats(&requests, &result, from_s, to_s)
            })
        })
        .collect();
    let run_s = t1.elapsed().as_secs_f64();

    let recording = clock.zip(run_start_ns).map(|(clock, start_ns)| {
        spans.push(Span {
            name: "run",
            start_ns,
            end_ns: clock.ns(),
            id: seed,
        });
        Recording {
            spans,
            planner: lock(&planner_log).take(),
            router_spans: std::mem::take(&mut router_log.borrow_mut().spans),
            counters: fleet_counters(&result),
        }
    });
    let pass = Pass {
        run_s,
        ref_s: 0.0,
        outcome: Outcome::fleet(requests.len(), &result, &phases),
    };
    (pass, recording)
}

fn fleet_counters(r: &ControlResult) -> Vec<(&'static str, f64)> {
    vec![
        ("controller.events", r.events.len() as f64),
        ("controller.failovers", r.failovers as f64),
        ("controller.crashes", r.crashes as f64),
        ("controller.scale_ups", r.scale_ups as f64),
        ("controller.scale_downs", r.scale_downs as f64),
        ("controller.shed", r.shed as f64),
        ("controller.peak_replicas", r.peak_replicas as f64),
        ("kv_transfer.transfers", r.kv_transfers as f64),
        ("kv_transfer.mib", r.kv_transfer_bytes as f64 / MIB),
        (
            "kv_transfer.nic_wait_ms",
            r.kv_transfer_nic_wait_ns as f64 / 1e6,
        ),
        (
            "kv_transfer.migrated_tokens",
            r.migrated_prefix_tokens as f64,
        ),
        (
            "kv_transfer.refilled_tokens",
            r.refilled_prefill_tokens as f64,
        ),
    ]
}

fn pass(workload: Workload, seed: u64, clock: Option<Clock>) -> (Pass, Option<Recording>) {
    match workload {
        Workload::AnalyticalFleetDay => fleet_pass(seed, clock),
        _ => engine_pass(workload, seed, clock),
    }
}

/// Runs `workload` for about `seconds` of host time (at least a warm-up and
/// one timed pass; a warm-up, a wrapped and a bare pass when `traced`) and
/// reports its metrics: the end-to-end ones, or with `traced` the per-layer
/// ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let clock = Clock::start();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut recording = None;
    let mut reference_error = None;
    // Pass 0 warms caches and allocators up; it is checked but not timed.
    // Then bare passes, or in a traced run wrapped and bare in turn.
    let min_passes = if traced { 3 } else { 2 };
    loop {
        let wrapped = traced && passes.len() % 2 == 1;
        let before = reference_job_in_child_s();
        let (mut p, rec) = pass(workload, seed, wrapped.then_some(clock));
        match (before, reference_job_in_child_s()) {
            (Ok(a), Ok(b)) => p.ref_s = (a + b) / 2.0,
            (Err(e), _) | (_, Err(e)) => reference_error = Some(e),
        }
        // Only the first wrapped pass's recording is reported.
        if recording.is_none() {
            recording = rec.map(|r| (passes.len(), r));
        }
        passes.push(p);
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_passes && elapsed + per_pass > seconds {
            break;
        }
    }

    let mut report = Report::default();
    gate(&mut passes, &mut report);
    report.violations.extend(reference_error);
    // Host-speed scale: the reference job's nominal time over its median
    // time in this run. Per-pass reference times are too noisy to scale
    // single passes; the run's median tracks the host's drift between runs.
    let speed = REFERENCE_NOMINAL_S / median(&passes.iter().map(|p| p.ref_s).collect::<Vec<_>>());
    // Completed requests per host second, median over the timed passes.
    let throughput = |wrapped: bool| {
        let per_pass: Vec<f64> = passes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(i, _)| (traced && i % 2 == 1) == wrapped)
            .map(|(_, p)| p.outcome.completed as f64 / p.run_s)
            .collect();
        median(&per_pass)
    };
    let first = &passes[0].outcome;
    let ttft = Dist::of(first.ttft_ms.clone());
    let tpot = Dist::of(first.tpot_ms.clone());
    let failed_share = failed_share(&passes);
    report.notes = vec![
        ("passes", passes.len().to_string()),
        (
            "pass_run_s",
            format!(
                "[{}]",
                passes
                    .iter()
                    .map(|p| format!("[{:.4},{:.5}]", p.run_s, p.ref_s))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("digest", format!("\"{:016x}\"", first.digest)),
        ("failed_share", failed_share.to_string()),
        ("sim_req_per_wall_s", throughput(false).to_string()),
        (
            "tails",
            format!(
                "{{\"sim_ttft_tail_ms\":{{\"percentile\":\"{}\",\"samples\":{}}},\
                 \"sim_tpot_tail_ms\":{{\"percentile\":\"{}\",\"samples\":{}}}}}",
                ttft.tail_label(),
                ttft.n,
                tpot.tail_label(),
                tpot.n
            ),
        ),
    ];

    if !traced {
        let setups: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| setup_only(workload, seed))
            .collect();
        report.metrics = vec![
            metric("sim_req_per_host_s", throughput(false) / speed, "1/s"),
            metric("setup_s", median(&setups) * speed, "s"),
            metric("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
            metric("sim_ttft_p50_ms", ttft.p50, "ms"),
            metric("sim_ttft_tail_ms", ttft.tail, "ms"),
            metric("sim_tpot_p50_ms", tpot.p50, "ms"),
            metric("sim_tpot_tail_ms", tpot.tail, "ms"),
            metric(
                "sim_goodput",
                first.within_slo as f64 / first.offered.max(1) as f64,
                "share",
            ),
            metric("completed_share", 1.0 - failed_share, "share"),
        ];
        return report;
    }

    let overhead = 1.0 - throughput(true) / throughput(false);
    let Some((index, recording)) = recording else {
        report.violations.push("traced run recorded no pass".into());
        return report;
    };
    let run_s = passes[index].run_s;
    let requests = workload.generate(seed);
    let (metrics, chrome_trace) = per_layer(&requests, recording, run_s, overhead);
    report.metrics = metrics;
    report.chrome_trace = Some(chrome_trace);
    report
}

/// Set-up alone (trace generation and engine or fleet construction), s.
fn setup_only(workload: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let requests = black_box(workload.generate(seed));
    match workload {
        Workload::AnalyticalFleetDay => {
            black_box(fleet_controller(
                fleet_router(),
                || Box::new(LazyPat::new()),
            ));
        }
        _ => {
            black_box((ServingEngine::new(engine_config()), LazyPat::new()));
        }
    }
    drop(requests);
    t0.elapsed().as_secs_f64()
}

/// Requests not completed, over requests offered, across all passes; a
/// pass that failed the gate counts every request it was offered.
fn failed_share(passes: &[Pass]) -> f64 {
    let offered: usize = passes.iter().map(|p| p.outcome.offered).sum();
    let completed: usize = passes
        .iter()
        .filter(|p| p.outcome.violations.is_empty())
        .map(|p| p.outcome.completed)
        .sum();
    1.0 - completed as f64 / offered.max(1) as f64
}

/// The correctness gate: per-pass accounting, and one outcome per seed —
/// every pass, wrapped or bare, must simulate what the first one did.
fn gate(passes: &mut [Pass], report: &mut Report) {
    let reference = passes[0].outcome.digest;
    for (i, p) in passes.iter_mut().enumerate() {
        let o = &mut p.outcome;
        if o.digest != reference {
            o.violations.push(format!(
                "pass {i} simulated outcome {:016x}, pass 0 {reference:016x}",
                o.digest
            ));
        }
        if o.completed == 0 {
            o.violations.push(format!("pass {i} completed nothing"));
        }
        report.attempted += o.offered as u64;
        if !o.violations.is_empty() {
            report.failed += o.offered as u64;
            report.violations.extend(o.violations.iter().cloned());
        }
    }
}

/// The per-layer metrics of one wrapped pass — including the
/// timing-simulator replay of the planner's sampled (batch, plan) pairs —
/// and its spans as Chrome-trace JSON.
fn per_layer(
    requests: &[Request],
    recording: Recording,
    run_s: f64,
    overhead: f64,
) -> (Vec<Metric>, String) {
    let Recording {
        mut spans,
        planner,
        router_spans,
        counters,
    } = recording;
    spans.extend(planner.spans.iter().copied());
    spans.extend(router_spans);
    let tree = SpanTree::build(spans);

    let plan_us = Dist::of(tree.durations_us("pat_core.plan_step"));
    let tier_us = |tier: PlanReuse| {
        Dist::of(
            planner
                .spans
                .iter()
                .zip(&planner.tiers)
                .filter(|(_, t)| **t == Some(tier))
                .map(|(s, _)| s.dur_ns() as f64 / 1e3)
                .collect(),
        )
    };
    let frozen = tier_us(PlanReuse::Frozen);
    let delta = tier_us(PlanReuse::DeltaPatched);
    let cold = tier_us(PlanReuse::Cold);
    let replay = Replay::of(planner.sample.into_items());
    let plan_busy_s = tree.total_s("pat_core.plan_step");
    // Every planned step is simulated once: calls × the replayed mean.
    let simulate_busy_est_s = replay.simulate_us.mean * plan_us.n as f64 / 1e6;
    let step_us = Dist::of(tree.durations_us("serving.step"));
    let serving_busy_s = tree.total_s("serving.step");
    let serving_self_s = if serving_busy_s > 0.0 {
        serving_busy_s - plan_busy_s - simulate_busy_est_s
    } else {
        0.0
    };
    let route_us = Dist::of(tree.durations_us("cluster.route"));
    let router_busy_s = tree.total_s("cluster.route");
    let controller_self_s = tree.self_s("controller.run");
    let merge_s = tree.total_s("metrics.into_result") + tree.total_s("metrics.window_stats");
    let attributed = plan_busy_s
        + simulate_busy_est_s
        + serving_self_s
        + router_busy_s
        + controller_self_s
        + merge_s;
    let prefix_ratio =
        workloads::measure_prefix_ratio(&requests[..requests.len().min(PREFIX_RATIO_REQUESTS)]);

    let mut values: Vec<(&str, f64)> = vec![
        ("workloads.gen_s", tree.total_s("workloads.generate")),
        ("workloads.requests", requests.len() as f64),
        ("workloads.prefix_ratio", prefix_ratio),
        ("serving.step_us_p50", step_us.p50),
        ("serving.step_us_tail", step_us.tail),
        ("serving.busy_s", serving_busy_s),
        ("serving.self_s", serving_self_s),
        ("pat_core.plan_calls", plan_us.n as f64),
        ("pat_core.plan_busy_s", plan_busy_s),
        ("pat_core.plan_us_p50", plan_us.p50),
        ("pat_core.plan_us_tail", plan_us.tail),
        ("pat_core.frozen", frozen.n as f64),
        ("pat_core.delta", delta.n as f64),
        ("pat_core.cold", cold.n as f64),
        ("pat_core.plan_us_p50.frozen", frozen.p50),
        ("pat_core.plan_us_p50.delta", delta.p50),
        ("pat_core.plan_us_p50.cold", cold.p50),
        (
            "pat_core.distinct_prefixes_mean",
            replay.distinct_prefixes_mean,
        ),
        ("attn_kernel.simulate_calls", plan_us.n as f64),
        ("attn_kernel.simulate_us_p50", replay.simulate_us.p50),
        ("attn_kernel.simulate_us_tail", replay.simulate_us.tail),
        ("attn_kernel.simulate_busy_est_s", simulate_busy_est_s),
        ("attn_kernel.traffic_us_p50", replay.traffic_us_p50),
        ("kernel.sim_attn_us_p50", replay.sim_attn_us_p50),
        ("kernel.kv_loaded_mib_per_step", replay.kv_loaded_mib_mean),
        ("kernel.redundant_kv_ratio", replay.redundant_kv_ratio),
        ("kernel.bw_util", replay.bw_util_mean),
        ("kernel.merge_share", replay.merge_share),
        ("router.calls", route_us.n as f64),
        ("router.busy_s", router_busy_s),
        ("router.us_p50", route_us.p50),
        ("controller.self_s", controller_self_s),
        ("metrics.merge_s", merge_s),
        ("trace.run_s", run_s),
        ("trace.attributed_share", attributed / run_s),
        ("trace.overhead_share", overhead),
        ("trace.replay_samples", replay.samples as f64),
    ];
    values.extend(counters);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
            metric(name, value, unit)
        })
        .collect();
    let chrome = tree.chrome_json(&format!("{{\"knobs\":{}}}", crate::knobs_json()));
    (metrics, chrome)
}

/// Requests `workloads.prefix_ratio` replays (a prefix of the trace, so the
/// replay cache stays small on the fleet day).
const PREFIX_RATIO_REQUESTS: usize = 2000;

/// The timing simulator, timed from outside on the planner's sample: the
/// exact function the engine calls on a step-cache miss, plus its traffic
/// analysis, with the modelled kernel quantities they report.
#[derive(Debug, Default)]
struct Replay {
    samples: usize,
    simulate_us: Dist,
    traffic_us_p50: f64,
    sim_attn_us_p50: f64,
    kv_loaded_mib_mean: f64,
    redundant_kv_ratio: f64,
    bw_util_mean: f64,
    merge_share: f64,
    distinct_prefixes_mean: f64,
}

impl Replay {
    fn of(sample: Vec<(DecodeBatch, KernelPlan)>) -> Replay {
        if sample.is_empty() {
            return Replay::default();
        }
        let spec = engine_config().gpu;
        let n = sample.len() as f64;
        let (mut simulate_us, mut traffic_us, mut attn_us) = (Vec::new(), Vec::new(), Vec::new());
        let (mut loaded, mut minimum, mut bw, mut merge, mut total, mut prefixes) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for (batch, plan) in &sample {
            let mut times = Vec::new();
            let mut report = None;
            for _ in 0..REPLAY_REPEATS {
                let t = Instant::now();
                let r = simulate_plan_trusted(black_box(batch), black_box(plan), &spec);
                times.push(t.elapsed().as_secs_f64() * 1e6);
                report = black_box(r).ok();
            }
            simulate_us.push(median(&times));
            let t = Instant::now();
            black_box(analyze_traffic(black_box(batch), black_box(plan), &spec));
            traffic_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some(r) = report {
                attn_us.push(r.total_ns / 1e3);
                loaded += r.traffic.kv_loaded_bytes();
                bw += r.bandwidth_utilization;
                merge += r.merge_ns;
                total += r.total_ns;
            }
            minimum += theoretical_min_kv_bytes(batch);
            prefixes +=
                BatchPrefixStats::from_tables(batch.tables()).distinct_shared_prefixes as f64;
        }
        Replay {
            samples: sample.len(),
            simulate_us: Dist::of(simulate_us),
            traffic_us_p50: Dist::of(traffic_us).p50,
            sim_attn_us_p50: Dist::of(attn_us).p50,
            kv_loaded_mib_mean: loaded / n / MIB,
            redundant_kv_ratio: if minimum > 0.0 { loaded / minimum } else { 0.0 },
            bw_util_mean: bw / n,
            merge_share: if total > 0.0 { merge / total } else { 0.0 },
            distinct_prefixes_mean: prefixes / n,
        }
    }
}

/// Every per-layer metric a traced run reports, with its unit, in report
/// order. A layer that does not run on a workload reports zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("workloads.requests", "count"),
    ("workloads.prefix_ratio", "share"),
    ("serving.steps", "count"),
    ("serving.step_us_p50", "us"),
    ("serving.step_us_tail", "us"),
    ("serving.busy_s", "s"),
    ("serving.self_s", "s"),
    ("serving.decode_steps", "count"),
    ("serving.mean_batch", "requests"),
    ("serving.preemptions", "count"),
    ("serving.sim_attn_share", "share"),
    ("kv_cache.hit_rate", "share"),
    ("kv_cache.hit_tokens", "tokens"),
    ("kv_cache.miss_tokens", "tokens"),
    ("kv_cache.evicted_blocks", "count"),
    ("step_cache.hits", "count"),
    ("step_cache.misses", "count"),
    ("step_cache.hit_rate", "share"),
    ("pat_core.plan_calls", "count"),
    ("pat_core.plan_busy_s", "s"),
    ("pat_core.plan_us_p50", "us"),
    ("pat_core.plan_us_tail", "us"),
    ("pat_core.frozen", "count"),
    ("pat_core.delta", "count"),
    ("pat_core.cold", "count"),
    ("pat_core.plan_us_p50.frozen", "us"),
    ("pat_core.plan_us_p50.delta", "us"),
    ("pat_core.plan_us_p50.cold", "us"),
    ("pat_core.distinct_prefixes_mean", "count"),
    ("attn_kernel.simulate_calls", "count"),
    ("attn_kernel.simulate_us_p50", "us"),
    ("attn_kernel.simulate_us_tail", "us"),
    ("attn_kernel.simulate_busy_est_s", "s"),
    ("attn_kernel.traffic_us_p50", "us"),
    ("kernel.sim_attn_us_p50", "us"),
    ("kernel.kv_loaded_mib_per_step", "MiB"),
    ("kernel.redundant_kv_ratio", "ratio"),
    ("kernel.bw_util", "share"),
    ("kernel.merge_share", "share"),
    ("router.calls", "count"),
    ("router.busy_s", "s"),
    ("router.us_p50", "us"),
    ("controller.self_s", "s"),
    ("controller.events", "count"),
    ("controller.failovers", "count"),
    ("controller.crashes", "count"),
    ("controller.scale_ups", "count"),
    ("controller.scale_downs", "count"),
    ("controller.shed", "count"),
    ("controller.peak_replicas", "count"),
    ("kv_transfer.transfers", "count"),
    ("kv_transfer.mib", "MiB"),
    ("kv_transfer.nic_wait_ms", "ms"),
    ("kv_transfer.migrated_tokens", "tokens"),
    ("kv_transfer.refilled_tokens", "tokens"),
    ("metrics.merge_s", "s"),
    ("trace.run_s", "s"),
    ("trace.attributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.replay_samples", "count"),
];
