//! Chrome trace-event export of the control plane's event log.
//!
//! Converts a [`ControlResult`]'s typed [`FleetEvent`] stream into
//! the Trace Event Format consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): one instant event (`ph: "i"`) per
//! control action — or a complete event (`ph: "X"`) when the entry carries a
//! duration, as KV transfers do — one track per replica plus a fleet-wide
//! track for ticks and scaling decisions. Useful for seeing crash → detect →
//! transfer → failover → revive sequences laid out on the virtual clock.

use crate::metrics::{ControlResult, FleetEvent};
use sim_core::SimTime;

/// Serializes an event log into Trace Event Format JSON (object form).
///
/// Each event is named by [`crate::FleetEventKind::name`]. Timestamps are
/// microseconds (the format's native unit); replicas map to
/// thread ids under process 0, fleet-wide events (ticks, scaling) to thread
/// id 0 under process 1. Instant events use thread scope (`"s":"t"`). The
/// events sit under `traceEvents`, and `otherData.knobs` records the
/// output-scoped knob snapshot (`sim_core::knobs`) so every exported trace
/// carries the configuration that produced it.
///
/// # Examples
///
/// ```
/// use controller::timeline_chrome_json;
///
/// let json = timeline_chrome_json(&[]);
/// assert!(json.starts_with("{\"traceEvents\":[]"));
/// assert!(json.contains("\"knobs\""));
/// ```
pub fn timeline_chrome_json(events: &[FleetEvent]) -> String {
    let entries: Vec<String> = events
        .iter()
        .map(|event| {
            let (pid, tid) = match event.replica {
                Some(replica) => (0, replica),
                None => (1, 0),
            };
            if event.dur_ns > 0 {
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"cat\":\"control\",\"ph\":\"X\",",
                        "\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}}}"
                    ),
                    event.kind.name(),
                    SimTime::from_ns(event.t_ns).as_us_f64(),
                    SimTime::from_ns(event.dur_ns).as_us_f64(),
                    pid,
                    tid,
                )
            } else {
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"cat\":\"control\",\"ph\":\"i\",\"s\":\"t\",",
                        "\"ts\":{:.3},\"pid\":{},\"tid\":{}}}"
                    ),
                    event.kind.name(),
                    SimTime::from_ns(event.t_ns).as_us_f64(),
                    pid,
                    tid,
                )
            }
        })
        .collect();
    format!(
        "{{\"traceEvents\":[{}],\"otherData\":{{\"knobs\":{}}}}}",
        entries.join(","),
        sim_core::knobs::snapshot().artifact_json(),
    )
}

/// [`timeline_chrome_json`] applied to a run's result.
pub fn result_chrome_json(result: &ControlResult) -> String {
    timeline_chrome_json(&result.events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FleetEventKind;

    fn sample() -> Vec<FleetEvent> {
        vec![
            FleetEvent {
                t_ns: 2_000_000_000,
                replica: Some(1),
                dur_ns: 0,
                kind: FleetEventKind::Crash { in_flight: 3 },
            },
            FleetEvent {
                t_ns: 2_500_000_000,
                replica: None,
                dur_ns: 0,
                kind: FleetEventKind::Tick,
            },
        ]
    }

    #[test]
    fn replica_events_and_fleet_events_land_on_separate_processes() {
        let json = timeline_chrome_json(&sample());
        assert!(json.contains("\"pid\":0,\"tid\":1"), "{json}");
        assert!(json.contains("\"pid\":1,\"tid\":0"), "{json}");
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":2000000.000"));
    }

    #[test]
    fn output_is_balanced_json() {
        let json = timeline_chrome_json(&sample());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn spans_render_as_complete_events() {
        let json = timeline_chrome_json(&[FleetEvent {
            t_ns: 1_000_000,
            replica: Some(2),
            dur_ns: 250_000,
            kind: FleetEventKind::Prewarm {
                donor: 0,
                tokens: 64,
            },
        }]);
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":250.000"), "{json}");
        assert!(
            !json.contains("\"s\":\"t\""),
            "complete events carry no scope"
        );
    }
}
