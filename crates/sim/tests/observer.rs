//! The observer seam itself: what the engine tells an [`Observer`], and that
//! telling it changes nothing.
//!
//! The allocation stream is a stronger equivalence oracle than equal
//! end-of-run reports: under [`ActiveSchedule`] and [`FullScan`] every head
//! must be granted the same virtual channel of the same router in the same
//! cycle, in the same order. (Message identifiers are left out of the
//! comparison — the two message tables number differently by design.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use torus_faults::{FaultScenario, FaultSet};
use torus_routing::{AnyRouting, RoutingAlgorithm, Substrate};
use torus_sim::router::RouterState;
use torus_sim::{
    ActiveSchedule, Allocation, Engine, FullScan, MessageId, MessageLookup, NoObserver, Observer,
    Sanitizer, Schedule, SimConfig, Simulation, StopCondition,
};
use torus_topology::{AnyTopology, Direction, NodeId, TopologySpec};

/// Counts every event and keeps the allocation stream.
#[derive(Default)]
struct Tally {
    allocations: Vec<(u64, NodeId, usize, Direction, usize, bool)>,
    releases: usize,
    cycles: u64,
}

impl Observer for Tally {
    fn on_allocate(&mut self, _net: &AnyTopology, e: &Allocation) {
        assert_eq!(e.cycle, self.cycles, "allocation outside the open cycle");
        self.allocations
            .push((e.cycle, e.node, e.dim, e.dir, e.vc, e.is_escape));
    }

    fn on_release(&mut self, _msg: MessageId) {
        self.releases += 1;
    }

    fn end_of_cycle(
        &mut self,
        cycle: u64,
        net: &AnyTopology,
        _faults: &FaultSet,
        routers: &[RouterState],
        messages: &dyn MessageLookup,
        in_flight: u64,
    ) {
        assert_eq!(cycle, self.cycles, "a cycle was skipped or reported twice");
        assert_eq!(routers.len(), net.num_nodes());
        // A generated message is a table entry once injected, a source-queue
        // record before.
        let mut live = 0;
        messages.for_each_live(&mut |_| live += 1);
        let queued: u64 = routers.iter().map(|r| r.source_queue.len() as u64).sum();
        assert_eq!(live + queued, in_flight);
        // A delivery takes at least one grant. (Per message the order is not
        // an invariant: a worm absorbed at its own source — 55 of the faulted
        // case's 1 616 releases — leaves having been granted nothing.)
        assert!(self.releases <= self.allocations.len());
        self.cycles += 1;
    }
}

fn config(spec: TopologySpec, rate: f64, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_topology(spec, 4, 8, rate).with_seed(seed);
    c.warmup_messages = 100;
    c.stop = StopCondition::Cycles(3_000);
    c
}

/// Steps an engine under scheduler `S` to its stop condition with a [`Tally`]
/// watching, checking after every step that exactly one cycle was reported.
fn tally<S: Schedule>(config: &SimConfig, faults: &FaultSet, algo: AnyRouting) -> Tally {
    let mut sim =
        Engine::<_, S, _>::with_observer(config.clone(), faults.clone(), algo, Tally::default())
            .expect("valid config");
    assert_eq!(sim.observer().cycles, 0);
    for step in 1..=3_000 {
        sim.step();
        assert_eq!(sim.observer().cycles, step);
        assert_eq!(sim.cycle(), step);
    }
    sim.into_observer()
}

/// Returns the (shared) stream.
fn assert_same_stream(config: &SimConfig, faults: &FaultSet, algo: AnyRouting) -> Tally {
    let active = tally::<ActiveSchedule>(config, faults, algo);
    let reference = tally::<FullScan>(config, faults, algo);
    assert!(active.releases > 100, "{} releases", active.releases);
    assert!(active.allocations.len() > active.releases);
    assert_eq!(active.releases, reference.releases);
    assert_eq!(active.allocations.len(), reference.allocations.len());
    // Compared element-wise so a failure names the first divergent grant.
    for (i, (a, r)) in active
        .allocations
        .iter()
        .zip(&reference.allocations)
        .enumerate()
    {
        assert_eq!(a, r, "allocation #{i} differs under {}", algo.name());
    }
    active
}

fn faulted_torus() -> (SimConfig, FaultSet) {
    let net = AnyTopology::torus(8, 2).unwrap();
    let faults = FaultScenario::RandomNodes { count: 5 }
        .realize(&net, &mut StdRng::seed_from_u64(0xFA))
        .expect("realizable faults");
    (config(TopologySpec::torus(8, 2), 0.004, 8), faults)
}

#[test]
fn allocation_stream_is_identical_under_both_schedulers() {
    let fault_free = config(TopologySpec::torus(4, 2), 0.02, 3);
    let adaptive = assert_same_stream(
        &fault_free,
        &FaultSet::new(),
        AnyRouting::adaptive(Substrate::DimensionOrder),
    );
    // The escape flag carries information: a loaded adaptive run grants both
    // kinds of channel.
    assert!(adaptive.allocations.iter().any(|grant| grant.5));
    assert!(adaptive.allocations.iter().any(|grant| !grant.5));
    let (config, faults) = faulted_torus();
    assert_same_stream(
        &config,
        &faults,
        AnyRouting::deterministic(Substrate::DimensionOrder),
    );
}

#[test]
fn no_observer_is_zero_sized() {
    assert_eq!(std::mem::size_of::<NoObserver>(), 0);
}

#[test]
fn a_sanitizer_does_not_change_the_report() {
    let (config, faults) = faulted_torus();
    let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
    let audit = Sanitizer::new(&config, &algo, None);
    let mut plain = Simulation::new(config.clone(), faults.clone(), algo).unwrap();
    let mut audited = Simulation::with_observer(config, faults, algo, audit).unwrap();
    let (plain, observed) = (plain.run(), audited.run());
    assert!(plain.report.messages_queued > 0, "no absorption exercised");
    assert_eq!(plain.report, observed.report);
    assert!(audited.observer().is_clean());
}
