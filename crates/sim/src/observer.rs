//! The observation seam of the engine: *who watches a run*.
//!
//! [`crate::Engine`] is generic over an [`Observer`] the way it is over a
//! [`crate::Schedule`]: statically dispatched, so under [`NoObserver`] (the
//! default, what `Engine::new` builds) every call below is an empty inlined
//! body and costs nothing. Two observers ship: [`crate::Sanitizer`], which
//! audits a run, and [`StageTimer`], which times its stages.

use crate::flit::MessageId;
use crate::message::MessageLookup;
use crate::router::RouterState;
use std::time::Instant;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, NodeId};

/// A stage of [`crate::Engine::step`], in the order a cycle runs them.
/// Routing plus VC allocation and switch allocation plus traversal are one
/// stage, [`Stage::Walk`]: the engine runs both in one walk over the busy
/// routers, routing each router and then switching it (see
/// `crate::network`), so no boundary falls between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Traffic generation into the source queues.
    Generate,
    /// Injection from the re-injection and source queues.
    Inject,
    /// The walk over the busy routers: routing and VC allocation, then
    /// switch allocation and traversal, router by router.
    Walk,
    /// The cycle's link arrivals and credit returns.
    ArrivalsCredits,
    /// The stall watchdog (its due check included).
    Watchdog,
}

impl Stage {
    /// Every stage, in the order a cycle runs them.
    pub const ALL: [Stage; 5] = [
        Stage::Generate,
        Stage::Inject,
        Stage::Walk,
        Stage::ArrivalsCredits,
        Stage::Watchdog,
    ];

    /// A short label: `generate`, `inject`, `route+switch`,
    /// `arrivals+credits`, `watchdog`.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Inject => "inject",
            Stage::Walk => "route+switch",
            Stage::ArrivalsCredits => "arrivals+credits",
            Stage::Watchdog => "watchdog",
        }
    }
}

/// A head flit was granted an output virtual channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Cycle of the grant.
    pub cycle: u64,
    /// The message whose head was granted the channel.
    pub msg: MessageId,
    /// Router the head sits at.
    pub node: NodeId,
    /// Dimension of the granted output channel.
    pub dim: usize,
    /// Direction of the granted output channel.
    pub dir: Direction,
    /// The granted virtual channel of that physical channel.
    pub vc: usize,
    /// Whether the routing function offered the channel as an escape.
    pub is_escape: bool,
}

/// Receives the engine's events. An observer is never a participant: it is
/// handed shared references only and no RNG, so attaching one cannot change
/// what is simulated — a run reports the same with any observer as with none.
pub trait Observer {
    /// A head flit was granted an output VC of topology `net`.
    #[inline]
    fn on_allocate(&mut self, _net: &AnyTopology, _event: &Allocation) {}

    /// Message `msg` left the network — delivered, absorbed (before software
    /// re-injection) or dropped — releasing every channel it held.
    #[inline]
    fn on_release(&mut self, _msg: MessageId) {}

    /// Stage `stage` of cycle `cycle` starts. The previous stage, if any,
    /// has ended; the last one ends at [`Observer::end_of_cycle`].
    #[inline]
    fn begin_stage(&mut self, _cycle: u64, _stage: Stage) {}

    /// Cycle `cycle` is complete: its arrivals and credits are applied and the
    /// watchdog has run. `in_flight` is the engine's count of messages
    /// generated and not yet delivered or dropped: the live entries of
    /// `messages` plus the records in the routers' source queues.
    #[inline]
    fn end_of_cycle(
        &mut self,
        _cycle: u64,
        _net: &AnyTopology,
        _faults: &FaultSet,
        _routers: &[RouterState],
        _messages: &dyn MessageLookup,
        _in_flight: u64,
    ) {
    }
}

/// Observes nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoObserver;

impl Observer for NoObserver {}

/// Accumulates host nanoseconds per [`Stage`] over the cycles from a given
/// one on: the time from each stage's start to the next boundary. The first
/// cycles of a run (a warm-up) can be left out with [`StageTimer::from_cycle`].
/// Reading the clock costs a few tens of nanoseconds per boundary, six per
/// cycle.
#[derive(Clone, Debug)]
pub struct StageTimer {
    /// The first cycle timed.
    from: u64,
    /// Nanoseconds per stage, in [`Stage::ALL`] order.
    nanos: [u64; 5],
    /// Cycles completed from `from` on.
    cycles: u64,
    /// The running stage and when it started.
    open: Option<(Stage, Instant)>,
}

impl StageTimer {
    /// A timer of every cycle from cycle `from` on.
    pub fn from_cycle(from: u64) -> Self {
        StageTimer {
            from,
            nanos: [0; 5],
            cycles: 0,
            open: None,
        }
    }

    /// Cycles timed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Nanoseconds spent in `stage` over the timed cycles.
    pub(crate) fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage as usize]
    }

    /// Mean microseconds per timed cycle spent in `stage` (0 before any
    /// cycle is timed).
    pub fn micros_per_cycle(&self, stage: Stage) -> f64 {
        self.nanos(stage) as f64 / 1e3 / self.cycles.max(1) as f64
    }

    /// Closes the running stage, if any, at `now`.
    fn close(&mut self, now: Instant) {
        if let Some((stage, start)) = self.open.take() {
            self.nanos[stage as usize] += (now - start).as_nanos() as u64;
        }
    }
}

impl Observer for StageTimer {
    fn begin_stage(&mut self, cycle: u64, stage: Stage) {
        if cycle < self.from {
            return;
        }
        let now = Instant::now();
        self.close(now);
        self.open = Some((stage, now));
    }

    fn end_of_cycle(
        &mut self,
        cycle: u64,
        _net: &AnyTopology,
        _faults: &FaultSet,
        _routers: &[RouterState],
        _messages: &dyn MessageLookup,
        _in_flight: u64,
    ) {
        if cycle < self.from {
            return;
        }
        self.close(Instant::now());
        self.cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulation, StopCondition};
    use torus_routing::{AnyRouting, Substrate};

    #[test]
    fn the_stage_timer_times_every_stage_of_the_cycles_it_is_given() {
        let mut config = SimConfig::paper(4, 2, 4, 8, 0.05);
        config.stop = StopCondition::Cycles(300);
        let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
        let plain = Simulation::new(config.clone(), FaultSet::new(), algo)
            .unwrap()
            .run();
        let mut timed =
            Simulation::with_observer(config, FaultSet::new(), algo, StageTimer::from_cycle(100))
                .unwrap();
        let outcome = timed.run();
        // An observer never changes what is simulated.
        assert_eq!(outcome.report, plain.report);
        let timer = timed.observer();
        assert_eq!(timer.cycles(), 200);
        assert!(timer.nanos(Stage::Walk) > 0);
        let total: f64 = Stage::ALL.iter().map(|&s| timer.micros_per_cycle(s)).sum();
        assert!(total > 0.0 && total.is_finite());
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels[2], "route+switch");
    }
}
