//! The traced half (cargo feature `trace`): per-layer metrics measured from
//! outside, by timing calls into each crate's public functions.
//!
//! * [`Traced`] — a delegating [`RoutingAlgorithm`] wrapper handed to
//!   `Simulation::new` / `walk_pair` / `verify_schedule`; it counts every
//!   call and times them (one `route`/`note_hop` call in
//!   [`SAMPLE_EVERY`], so that the tracing overhead stays under 5 %);
//! * [`Span`] — the in-memory span tree (`workload -> window | point | case
//!   -> routing.*`), children aggregated as count + busy ns per parent,
//!   written to `out/trace-<workload>.json` when the run ends;
//! * [`layers`] — micro loops over the topology, faults, workloads, metrics
//!   and pool APIs;
//! * [`sim`], [`sweeps`] — the traced repetitions of the six workloads.
//!
//! End-to-end metrics never come from here: a traced run spends half of
//! `--seconds` on untraced repetitions (which also gives the tracing
//! overhead) and half on traced ones.

pub mod layers;
pub mod sim;
pub mod sweeps;

use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::workloads::{run_end_to_end, Workload, WorkloadResult};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use torus_faults::FaultSet;
use torus_routing::{
    RouteDecision, RouteHeader, RoutingAlgorithm, RoutingFlavor, RoutingTopologyError,
};
use torus_topology::{AnyTopology, Direction, NodeId};

/// `route` and `note_hop` are timed once in this many calls (and counted
/// every time). Timing every call costs ~16 % on `sim_oversat`.
pub const SAMPLE_EVERY: u64 = 16;

/// Call count and sampled busy time of one wrapped method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Total host ns of the timed calls (timer overhead subtracted).
    pub ns: u64,
    /// Longest timed call, ns.
    pub max_ns: u64,
}

impl OpTotals {
    /// Busy time of all calls, estimated from the timed sample.
    pub fn busy_ns(&self) -> u64 {
        if self.timed == 0 {
            0
        } else {
            (self.ns as u128 * self.calls as u128 / self.timed as u128) as u64
        }
    }

    /// Mean ns per call over the timed sample.
    pub fn ns_per_call(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 / self.timed as f64
        }
    }

    fn since(&self, earlier: &OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - earlier.calls,
            timed: self.timed - earlier.timed,
            ns: self.ns - earlier.ns,
            max_ns: self.max_ns,
        }
    }

    fn plus(&self, other: &OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls + other.calls,
            timed: self.timed + other.timed,
            ns: self.ns + other.ns,
            max_ns: self.max_ns.max(other.max_ns),
        }
    }
}

#[derive(Debug, Default)]
struct Op {
    calls: Cell<u64>,
    timed: Cell<u64>,
    ns: Cell<u64>,
    max_ns: Cell<u64>,
}

impl Op {
    fn measure<R>(&self, every: u64, overhead_ns: u64, call: impl FnOnce() -> R) -> R {
        let calls = self.calls.get();
        self.calls.set(calls + 1);
        if !calls.is_multiple_of(every) {
            return call();
        }
        let start = Instant::now();
        let result = call();
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(overhead_ns);
        self.timed.set(self.timed.get() + 1);
        self.ns.set(self.ns.get() + ns);
        self.max_ns.set(self.max_ns.get().max(ns));
        result
    }

    fn totals(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.get(),
            timed: self.timed.get(),
            ns: self.ns.get(),
            max_ns: self.max_ns.get(),
        }
    }
}

/// The counters a [`Traced`] wrapper feeds. Shared through an `Rc` because
/// the engine owns the wrapper.
#[derive(Debug, Default)]
pub struct Counters {
    route: Op,
    note_hop: Op,
    reroute: Op,
    make_header: Op,
    deterministic_output: Op,
    absorbs: Cell<u64>,
    /// Cost of one `Instant::now()` pair, subtracted from every timed call.
    timer_overhead_ns: u64,
}

impl Counters {
    /// Fresh counters, with the timer overhead calibrated on this host.
    pub fn new() -> Rc<Counters> {
        let mut pairs: Vec<u64> = (0..1_001)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(start).elapsed().as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        Rc::new(Counters {
            timer_overhead_ns: pairs[pairs.len() / 2],
            ..Counters::default()
        })
    }

    /// The current totals.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            route: self.route.totals(),
            note_hop: self.note_hop.totals(),
            reroute: self.reroute.totals(),
            make_header: self.make_header.totals(),
            deterministic_output: self.deterministic_output.totals(),
            absorbs: self.absorbs.get(),
        }
    }
}

/// Plain-data copy of [`Counters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `RoutingAlgorithm::route`.
    pub route: OpTotals,
    /// `RoutingAlgorithm::note_hop`.
    pub note_hop: OpTotals,
    /// `RoutingAlgorithm::reroute_on_fault`.
    pub reroute: OpTotals,
    /// `RoutingAlgorithm::make_header`.
    pub make_header: OpTotals,
    /// `RoutingAlgorithm::deterministic_output`.
    pub deterministic_output: OpTotals,
    /// `route` calls that decided to absorb.
    pub absorbs: u64,
}

impl Snapshot {
    /// The work done between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            route: self.route.since(&earlier.route),
            note_hop: self.note_hop.since(&earlier.note_hop),
            reroute: self.reroute.since(&earlier.reroute),
            make_header: self.make_header.since(&earlier.make_header),
            deterministic_output: self
                .deterministic_output
                .since(&earlier.deterministic_output),
            absorbs: self.absorbs - earlier.absorbs,
        }
    }

    /// The work of two disjoint intervals together.
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            route: self.route.plus(&other.route),
            note_hop: self.note_hop.plus(&other.note_hop),
            reroute: self.reroute.plus(&other.reroute),
            make_header: self.make_header.plus(&other.make_header),
            deterministic_output: self.deterministic_output.plus(&other.deterministic_output),
            absorbs: self.absorbs + other.absorbs,
        }
    }

    fn ops(&self) -> [(&'static str, &OpTotals); 5] {
        [
            ("routing.route", &self.route),
            ("routing.note_hop", &self.note_hop),
            ("routing.reroute_on_fault", &self.reroute),
            ("routing.make_header", &self.make_header),
            ("routing.deterministic_output", &self.deterministic_output),
        ]
    }

    /// Estimated busy ns of every wrapped call.
    pub fn busy_ns(&self) -> u64 {
        self.ops().iter().map(|(_, op)| op.busy_ns()).sum()
    }

    /// The call counts alone — the part that must repeat exactly.
    pub fn counts(&self) -> [u64; 6] {
        let [a, b, c, d, e] = self.ops().map(|(_, op)| op.calls);
        [a, b, c, d, e, self.absorbs]
    }

    /// One aggregated child span per wrapped method that was called.
    pub fn spans(&self) -> Vec<Span> {
        self.ops()
            .iter()
            .filter(|(_, op)| op.calls > 0)
            .map(|(name, op)| Span::leaf(name, op.calls, op.busy_ns()))
            .collect()
    }

    /// Fills the `routing.*` per-layer metrics from the work done during
    /// `wall_ns` of traced host time.
    pub fn routing_metrics(&self, wall_ns: f64, out: &mut LayerMetrics) {
        let share = |ns: u64| ns as f64 / wall_ns.max(1.0);
        out.set("routing.route_calls", self.route.calls as f64);
        out.set("routing.route_ns_per_call", self.route.ns_per_call());
        out.set("routing.route_share", share(self.route.busy_ns()));
        out.set(
            "routing.route_calls_per_hop",
            self.route.calls as f64 / self.note_hop.calls.max(1) as f64,
        );
        out.set(
            "routing.absorb_per_msg",
            self.absorbs as f64 / self.make_header.calls.max(1) as f64,
        );
        out.set("routing.reroute_calls", self.reroute.calls as f64);
        out.set("routing.reroute_ns_per_call", self.reroute.ns_per_call());
        out.set("routing.reroute_ns_max", self.reroute.max_ns as f64);
        out.set("routing.reroute_share", share(self.reroute.busy_ns()));
        out.set("routing.note_hop_ns_per_call", self.note_hop.ns_per_call());
        out.set(
            "routing.make_header_ns_per_call",
            self.make_header.ns_per_call(),
        );
        out.set("routing.share", share(self.busy_ns()));
    }
}

/// A delegating routing algorithm that counts and times every call.
#[derive(Clone, Debug)]
pub struct Traced<A> {
    inner: A,
    counters: Rc<Counters>,
}

impl<A> Traced<A> {
    /// Wraps `inner`, feeding `counters`.
    pub fn new(inner: A, counters: Rc<Counters>) -> Self {
        Traced { inner, counters }
    }
}

impl<A: RoutingAlgorithm> RoutingAlgorithm for Traced<A> {
    fn flavor(&self) -> RoutingFlavor {
        self.inner.flavor()
    }

    fn min_virtual_channels(&self, net: &AnyTopology) -> usize {
        self.inner.min_virtual_channels(net)
    }

    fn supported_on(&self, net: &AnyTopology) -> Result<(), RoutingTopologyError> {
        self.inner.supported_on(net)
    }

    fn deterministic_output(
        &self,
        net: &AnyTopology,
        header: &RouteHeader,
        current: NodeId,
    ) -> Option<(usize, Direction)> {
        let c = &self.counters;
        c.deterministic_output.measure(1, c.timer_overhead_ns, || {
            self.inner.deterministic_output(net, header, current)
        })
    }

    fn make_header(&self, net: &AnyTopology, src: NodeId, dest: NodeId) -> RouteHeader {
        let c = &self.counters;
        c.make_header.measure(1, c.timer_overhead_ns, || {
            self.inner.make_header(net, src, dest)
        })
    }

    fn route(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        current: NodeId,
        v: usize,
    ) -> RouteDecision {
        let c = &self.counters;
        let decision = c.route.measure(SAMPLE_EVERY, c.timer_overhead_ns, || {
            self.inner.route(net, faults, header, current, v)
        });
        // Accessor, not a destructuring match: the candidate list's type may
        // change under this wrapper.
        if decision.is_absorb() {
            c.absorbs.set(c.absorbs.get() + 1);
        }
        decision
    }

    fn note_hop(
        &self,
        net: &AnyTopology,
        header: &mut RouteHeader,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        let c = &self.counters;
        c.note_hop.measure(SAMPLE_EVERY, c.timer_overhead_ns, || {
            self.inner.note_hop(net, header, from, dim, dir);
        });
    }

    fn reroute_on_fault(
        &self,
        net: &AnyTopology,
        faults: &FaultSet,
        header: &mut RouteHeader,
        at: NodeId,
        blocked: (usize, Direction),
    ) -> bool {
        let c = &self.counters;
        c.reroute.measure(1, c.timer_overhead_ns, || {
            self.inner
                .reroute_on_fault(net, faults, header, at, blocked)
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// One span of the trace: `count` occurrences that were busy for `busy_ns`
/// in total, with the spans they caused. Self time is the busy time minus
/// the children's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Occurrences aggregated into this span.
    pub count: u64,
    /// Total busy host ns.
    pub busy_ns: u64,
    /// Child spans.
    pub children: Vec<Span>,
}

impl Span {
    /// A span without children.
    pub fn leaf(name: &str, count: u64, busy_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            count,
            busy_ns,
            children: Vec::new(),
        }
    }

    /// A span with children.
    pub fn parent(name: &str, busy_ns: u64, children: Vec<Span>) -> Span {
        Span {
            name: name.to_string(),
            count: 1,
            busy_ns,
            children,
        }
    }

    /// Busy time not covered by the children.
    pub fn self_ns(&self) -> u64 {
        self.busy_ns
            .saturating_sub(self.children.iter().map(|c| c.busy_ns).sum())
    }

    /// JSON rendering.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(&self.name)),
            ("count", Json::Num(self.count as f64)),
            ("busy_ns", Json::Num(self.busy_ns as f64)),
            ("self_ns", Json::Num(self.self_ns() as f64)),
        ];
        if !self.children.is_empty() {
            pairs.push((
                "children",
                Json::Arr(self.children.iter().map(Span::to_json).collect()),
            ));
        }
        Json::obj(pairs)
    }
}

/// The per-layer metrics of one traced run: every name of
/// [`PER_LAYER`], 0 where the workload never enters the layer.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    fn zeroed() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Sets a metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric '{name}' is not in the table")) = value;
    }

    /// Reads a metric (0 when it was never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics in [`PER_LAYER`] order.
    pub fn in_table_order(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER.iter().map(|m| (m.name, m.unit, self.get(m.name)))
    }
}

/// What a traced pass hands back: the span tree and the sample counts behind
/// its pooled percentiles.
pub type Traces = (Span, Vec<(&'static str, usize)>);

/// Everything a traced run of one workload produced.
#[derive(Clone, Debug)]
pub struct TracedResult {
    /// The untraced half: end-to-end metrics and gates.
    pub end_to_end: WorkloadResult,
    /// The per-layer metrics.
    pub layers: LayerMetrics,
    /// Sample counts behind the pooled per-layer percentiles.
    pub samples: Vec<(&'static str, usize)>,
    /// The span tree.
    pub root: Span,
}

/// Runs one workload traced: half of `seconds` untraced (end-to-end numbers,
/// gates, the overhead baseline), half traced, then the layer micro loops.
/// Failures of the traced half's own checks (wrapper transparency, serial vs
/// pooled digests) are folded into the end-to-end outcome as failed gates.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    divisor: u64,
) -> Result<TracedResult, String> {
    let mut end_to_end = run_end_to_end(workload, seed, seconds / 2.0, divisor)?;
    let mut layers = LayerMetrics::zeroed();
    let mut gates = Gates::default();
    let (root, samples) = match workload {
        Workload::Sim(spec) => sim::trace(
            spec,
            seed,
            seconds / 2.0,
            divisor,
            &end_to_end,
            &mut layers,
            &mut gates,
        )?,
        Workload::FigureSweep => {
            sweeps::trace_figure(seed, divisor, &end_to_end, &mut layers, &mut gates)?
        }
        Workload::VerifyMatrix => {
            sweeps::trace_verify(divisor, &end_to_end, &mut layers, &mut gates)?
        }
    };
    layers::measure(seed, &mut layers)?;
    end_to_end.outcome.attempted += gates.attempted;
    end_to_end.outcome.failed += gates.errors.len() as u64;
    end_to_end.outcome.errors.extend(gates.errors);
    Ok(TracedResult {
        end_to_end,
        layers,
        samples,
        root,
    })
}

/// Checks the traced half makes on itself; each is one attempted operation.
#[derive(Debug, Default)]
pub struct Gates {
    attempted: u64,
    errors: Vec<String>,
}

impl Gates {
    /// Records one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Nanoseconds since `start`, as the span tree stores them.
pub(crate) fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}
