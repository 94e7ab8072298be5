//! The observation seam of the engine: *who watches a run*.
//!
//! [`crate::Engine`] is generic over an [`Observer`] the way it is over a
//! [`crate::Schedule`]: statically dispatched, so under [`NoObserver`] (the
//! default, what `Engine::new` builds) every call below is an empty inlined
//! body and costs nothing. [`crate::Sanitizer`] is the observer that ships.

use crate::flit::MessageId;
use crate::message::MessageLookup;
use crate::router::RouterState;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, Direction, NodeId};

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
