//! The repository benchmark: one workload per process, end-to-end metrics
//! by default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact_shared_prefix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report, then a details line (`# details {...}`:
//! knob snapshot, tail percentiles and sample counts, outcome digest), and
//! as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero when the correctness gate fails. See `README.md` in this
//! directory for the workloads, the metrics and what each layer predicts.

mod layers;
mod measure;
mod stats;
mod workload;

use measure::{Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Every `PAT_*` knob that can change what is measured, pinned for the
/// whole process whatever the environment says.
const PINNED_KNOBS: [(&str, &str); 7] = [
    // One worker: host timings do not depend on the machine's core count
    // or on whatever else shares it.
    ("PAT_SIM_THREADS", "1"),
    ("PAT_STEP_CACHE", "256"),
    ("PAT_PLAN_CACHE", "1"),
    ("PAT_TILE_POLICY", "heuristic"),
    ("PAT_GPU_MODEL", "a100"),
    ("PAT_REPLICA_FIDELITY", "exact"),
    ("PAT_BENCH_SMOKE", "0"),
];

/// Directory (relative to the working directory) traced runs write their
/// Chrome traces to.
const TRACE_DIR: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Pins [`PINNED_KNOBS`] (those the program still declares).
fn pin_knobs() {
    for (name, value) in PINNED_KNOBS {
        if sim_core::knobs::KNOBS.iter().any(|k| k.name == name) {
            sim_core::knobs::set_override(name, Some(value));
        }
    }
}

/// The effective value of every registered knob, as a JSON object.
pub fn knobs_json() -> String {
    let entries: Vec<String> = sim_core::knobs::snapshot()
        .values
        .iter()
        .map(|v| format!("\"{}\":\"{}\"", v.name, v.value))
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// A JSON number; non-finite values (which no metric should produce) are
/// written as 0 and flagged by the caller.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.violations.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq([stats::REFERENCE_JOB_FLAG]) {
        println!("{}", stats::reference_job_s());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    pin_knobs();
    let mut report = measure::run(args.workload, args.seed, args.seconds, args.trace);
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        report
            .violations
            .push(format!("metric {} is not a finite number", bad.name));
    }

    println!(
        "# perfbench {} seed {} ({})",
        args.workload.name(),
        args.seed,
        if args.trace {
            "traced: per-layer metrics"
        } else {
            "timed: end-to-end metrics"
        }
    );
    for Metric { name, value, unit } in &report.metrics {
        println!("#   {name:<34} {value:>16.6} {unit}");
    }
    if let Some(chrome) = &report.chrome_trace {
        let path = PathBuf::from(TRACE_DIR).join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        let written =
            std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, chrome));
        match written {
            Ok(()) => println!("# chrome trace: {}", path.display()),
            Err(e) => report
                .violations
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    for v in &report.violations {
        println!("# VIOLATION: {v}");
    }
    let mut details = vec![
        format!("\"workload\":{}", json_str(args.workload.name())),
        format!("\"seed\":{}", args.seed),
        format!("\"knobs\":{}", knobs_json()),
    ];
    details.extend(
        report
            .notes
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k))),
    );
    let violations: Vec<String> = report.violations.iter().map(|v| json_str(v)).collect();
    details.push(format!("\"violations\":[{}]", violations.join(",")));
    println!("# details {{{}}}", details.join(","));
    println!("{}", result_line(&report));
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use crate::measure::PER_LAYER;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// per-layer metrics a traced run emits.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let per_layer = &manifest[manifest.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }
}
