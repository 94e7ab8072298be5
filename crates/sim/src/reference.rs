//! The full-scan reference scheduler: the executable specification of what
//! [`crate::schedule::ActiveSchedule`] is allowed to change.
//!
//! [`ReferenceSimulation`] runs the same pipeline as [`crate::Simulation`]
//! ([`crate::Engine`] defines it once) under the simplest possible schedule:
//! every healthy source is polled and every healthy router is visited by
//! every stage every cycle, the stall watchdog scans every cycle, and the
//! message table is an append-only `Vec` that never reclaims entries. The
//! equivalence test suite runs both across seeds, loads and fault scenarios
//! and asserts **bit-identical** [`torus_metrics::SimulationReport`]s, so
//! what it checks is exactly what the active schedule adds: visit order,
//! skipped visits and slot reclamation. Keep this module boring — everything
//! in it should be obviously right.

use crate::flit::MessageId;
use crate::message::MessageState;
use crate::network::Engine;
use crate::observer::NoObserver;
use crate::router::RouterState;
use crate::schedule::{MessageTable, Schedule};
use std::ops::{Index, IndexMut};

/// The pipeline under the [`FullScan`] scheduler.
pub type ReferenceSimulation<A, O = NoObserver> = Engine<A, FullScan, O>;

/// Visits every healthy source and router, every stage, every cycle.
#[derive(Clone, Debug)]
pub struct FullScan {
    /// Indices of the healthy routers, ascending.
    healthy: Vec<usize>,
    /// How many of them are endpoints (a prefix: endpoint ids come first).
    healthy_endpoints: usize,
}

impl Schedule for FullScan {
    type Messages = Vec<MessageState>;

    fn new(routers: &[RouterState], num_endpoints: usize) -> Self {
        let healthy: Vec<usize> = (0..routers.len())
            .filter(|&idx| !routers[idx].is_faulty)
            .collect();
        let healthy_endpoints = healthy.partition_point(|&idx| idx < num_endpoints);
        FullScan {
            healthy,
            healthy_endpoints,
        }
    }

    #[inline]
    fn due_sources(&mut self, _now: u64, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.healthy[..self.healthy_endpoints]);
    }

    #[inline]
    fn injecting(&self, out: &mut Vec<usize>) {
        self.busy(out);
    }

    #[inline]
    fn busy(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.healthy);
    }

    #[inline]
    fn watchdog_due(&self, _now: u64) -> bool {
        true
    }
}

/// The append-only table: identifiers are plain sequential indices
/// (generation 0) in injection order, and finished messages stay in place,
/// marked done.
impl MessageTable for Vec<MessageState> {
    #[inline]
    fn insert_with(&mut self, make: impl FnOnce(MessageId) -> MessageState) -> MessageId {
        let id = MessageId(self.len() as u64);
        self.push(make(id));
        id
    }

    #[inline]
    fn retire(&mut self, id: MessageId) {
        debug_assert!(self[id].is_done(), "retired a message that is still live");
    }

    #[inline]
    fn held(&self) -> usize {
        self.len()
    }
}

impl Index<MessageId> for Vec<MessageState> {
    type Output = MessageState;

    #[inline]
    fn index(&self, id: MessageId) -> &MessageState {
        &self[id.slot()]
    }
}

impl IndexMut<MessageId> for Vec<MessageState> {
    #[inline]
    fn index_mut(&mut self, id: MessageId) -> &mut MessageState {
        &mut self[id.slot()]
    }
}
