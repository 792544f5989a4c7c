//! Timing from outside the program: a span log, and transparent wrappers
//! around the two public traits the layers meet at — [`ServingAttention`]
//! (the planner, seen by the serving engine) and [`Router`] (seen by the
//! fleet controller).
//!
//! Wrappers forward every trait method unchanged, so a run through them
//! simulates exactly what a run without them simulates; they only read the
//! host clock around the forwarded call.

use attn_kernel::{DecodeBatch, KernelPlan};
use cluster::{ReplicaView, Router};
use pat_core::{PlanReuse, TileError};
use serving::ServingAttention;
use sim_gpu::GpuSpec;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use workloads::Request;

/// The host clock every span of one run is measured against.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The step index, request id or call index the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one run, each linked to the innermost span enclosing it, with
/// self time = duration minus the time its child spans cover.
#[derive(Debug, Default)]
pub struct SpanTree {
    pub spans: Vec<Span>,
    pub parent: Vec<Option<usize>>,
    pub self_ns: Vec<u64>,
}

impl SpanTree {
    /// Links spans recorded on one thread. Spans on one thread nest
    /// strictly, so the enclosing span is the innermost open one.
    pub fn build(mut spans: Vec<Span>) -> SpanTree {
        spans.sort_by_key(|s| (s.start_ns, Reverse(s.end_ns)));
        let mut parent = Vec::with_capacity(spans.len());
        let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if spans[top].end_ns >= s.end_ns {
                    break;
                }
                open.pop();
            }
            let p = open.last().copied();
            if let Some(p) = p {
                self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
            }
            parent.push(p);
            open.push(i);
        }
        SpanTree {
            spans,
            parent,
            self_ns,
        }
    }

    /// Durations of every span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration of the spans called `name`, s.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_ns() as f64)
            / 1e9
    }

    /// Summed self time of the spans called `name`, s.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |acc, (_, &ns)| acc + ns as f64)
            / 1e9
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// complete events with their parent span index and id, plus
    /// `other_data` (a JSON object) under `otherData`.
    pub fn chrome_json(&self, other_data: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = self.parent[i].map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                self.self_ns[i] as f64 / 1e3,
            );
        }
        let _ = write!(out, "],\"otherData\":{other_data}}}");
        out
    }
}

/// A bounded, deterministic sample of a call stream: keeps every
/// `stride`-th call, doubling the stride (and thinning what it kept) each
/// time the sample outgrows its capacity. Which calls it keeps depends only
/// on the call count, never on timing.
#[derive(Debug)]
pub struct StrideSample<T> {
    stride: u64,
    cap: usize,
    items: Vec<(u64, T)>,
}

impl<T> StrideSample<T> {
    pub fn new(cap: usize) -> Self {
        StrideSample {
            stride: 1,
            cap: cap.max(1),
            items: Vec::new(),
        }
    }

    /// Whether call `index` would be kept; cheap, so callers can skip
    /// building items the sample would drop.
    pub fn wants(&self, index: u64) -> bool {
        index.is_multiple_of(self.stride)
    }

    pub fn offer(&mut self, index: u64, item: T) {
        if !self.wants(index) {
            return;
        }
        self.items.push((index, item));
        if self.items.len() > self.cap {
            self.stride *= 2;
            let stride = self.stride;
            self.items.retain(|(i, _)| i.is_multiple_of(stride));
        }
    }

    pub fn into_items(self) -> Vec<T> {
        self.items.into_iter().map(|(_, t)| t).collect()
    }
}

/// What the planner wrapper saw: one span per `plan_step`, the reuse tier
/// each call reported, and a sample of the (batch, plan) pairs it returned
/// for the timing-simulator replay.
#[derive(Debug)]
pub struct PlannerLog {
    pub spans: Vec<Span>,
    pub tiers: Vec<Option<PlanReuse>>,
    pub sample: StrideSample<(DecodeBatch, KernelPlan)>,
}

/// Planner calls whose (batch, plan) pair is kept for the replay.
pub const PLAN_SAMPLE_CAP: usize = 96;

impl PlannerLog {
    fn new() -> PlannerLog {
        PlannerLog {
            spans: Vec::new(),
            tiers: Vec::new(),
            sample: StrideSample::new(PLAN_SAMPLE_CAP),
        }
    }

    pub fn shared() -> Arc<Mutex<PlannerLog>> {
        Arc::new(Mutex::new(PlannerLog::new()))
    }

    /// Moves the log out, leaving an empty one.
    pub fn take(&mut self) -> PlannerLog {
        std::mem::replace(self, PlannerLog::new())
    }
}

/// Locks a log shared with planner wrappers. The wrappers only append, so a
/// panic elsewhere cannot leave it half-written.
pub fn lock(log: &Mutex<PlannerLog>) -> MutexGuard<'_, PlannerLog> {
    log.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`ServingAttention`] over any backend, timing each `plan_step` and
/// recording the reuse tier it reports. Every method forwards to `inner`,
/// including `name` (the engine's step cache keys on it).
pub struct TimedPlanner<A> {
    inner: A,
    clock: Clock,
    log: Arc<Mutex<PlannerLog>>,
}

impl<A: ServingAttention> TimedPlanner<A> {
    pub fn new(inner: A, clock: Clock, log: Arc<Mutex<PlannerLog>>) -> Self {
        TimedPlanner { inner, clock, log }
    }
}

impl<A: ServingAttention> ServingAttention for TimedPlanner<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports(&self, batch: &DecodeBatch) -> bool {
        self.inner.supports(batch)
    }

    fn plan_step(&mut self, batch: &DecodeBatch, spec: &GpuSpec) -> Result<KernelPlan, TileError> {
        let start_ns = self.clock.ns();
        let plan = self.inner.plan_step(batch, spec);
        let end_ns = self.clock.ns();
        let tier = self.inner.last_plan_reuse();
        let mut log = lock(&self.log);
        let index = log.spans.len() as u64;
        log.spans.push(Span {
            name: "pat_core.plan_step",
            start_ns,
            end_ns,
            id: index,
        });
        log.tiers.push(tier);
        if let Ok(plan) = &plan {
            if log.sample.wants(index) {
                log.sample.offer(index, (batch.clone(), plan.clone()));
            }
        }
        plan
    }

    fn scheduling_cost_ns(&self, batch: &DecodeBatch) -> Option<f64> {
        self.inner.scheduling_cost_ns(batch)
    }

    fn last_plan_reuse(&self) -> Option<PlanReuse> {
        self.inner.last_plan_reuse()
    }
}

/// Route spans recorded by a [`TimedRouter`].
#[derive(Debug, Default)]
pub struct RouterLog {
    pub spans: Vec<Span>,
}

/// [`Router`] wrapper timing each `route` call.
#[derive(Debug)]
pub struct TimedRouter {
    inner: Box<dyn Router>,
    clock: Clock,
    log: Rc<RefCell<RouterLog>>,
}

impl TimedRouter {
    pub fn new(inner: Box<dyn Router>, clock: Clock, log: Rc<RefCell<RouterLog>>) -> Self {
        TimedRouter { inner, clock, log }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize> {
        let start_ns = self.clock.ns();
        let pick = self.inner.route(request, replicas);
        let end_ns = self.clock.ns();
        self.log.borrow_mut().spans.push(Span {
            name: "cluster.route",
            start_ns,
            end_ns,
            id: request.id,
        });
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let tree = SpanTree::build(vec![
            span("child", 10, 30),
            span("root", 0, 100),
            span("child", 40, 50),
            span("grandchild", 12, 20),
        ]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(tree.self_s("root"), 70e-9));
        assert!(close(tree.self_s("child"), 22e-9));
        assert!(close(tree.total_s("child"), 30e-9));
        let root = tree.spans.iter().position(|s| s.name == "root");
        assert!(tree
            .spans
            .iter()
            .zip(&tree.parent)
            .filter(|(s, _)| s.name == "child")
            .all(|(_, p)| *p == root));
    }

    #[test]
    fn stride_sample_is_bounded_and_even() {
        let mut s = StrideSample::new(4);
        for i in 0..100u64 {
            s.offer(i, i);
        }
        let kept = s.into_items();
        assert!(kept.len() <= 4);
        assert_eq!(kept, vec![0, 32, 64, 96]);
    }
}
