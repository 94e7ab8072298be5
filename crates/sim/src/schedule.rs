//! The scheduling seam of the engine: *which routers a stage visits* and
//! *how messages are stored*.
//!
//! [`crate::Engine`] defines the pipeline once. Before each stage it asks its
//! [`Schedule`] to fill a worklist of router (or source) indices, and it tells
//! the scheduler about every event that can change a later worklist: a queue
//! gaining or losing its last message, a router gaining its first occupied
//! input slot or losing its last, a source's next arrival, the watchdog's
//! next deadline. A worklist must come back in **ascending** order and must
//! contain every index that has work of the stage's kind; it may contain more
//! (the stages skip routers with nothing to do). Under those two rules RNG
//! draws and metric recordings happen in the same sequence whatever the
//! scheduler, so reports are bit-identical.
//!
//! Two schedulers ship: [`ActiveSchedule`] (this module) visits live state
//! only and stores messages in the reclaiming [`MessageSlab`];
//! [`crate::reference::FullScan`] visits everything every cycle and never
//! reclaims. The equivalence suite holds them to identical reports.

use crate::active::ActiveSet;
use crate::flit::MessageId;
use crate::message::{MessageLookup, MessageSlab, MessageState};
use crate::router::RouterState;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::IndexMut;

/// The message table of an engine: insertion, lookup by identifier, and
/// retirement of finished messages.
pub trait MessageTable:
    MessageLookup + Default + IndexMut<MessageId, Output = MessageState>
{
    /// Inserts a new message, handing the chosen identifier to the `make`
    /// closure that builds its state. Returns the identifier.
    fn insert_with(&mut self, make: impl FnOnce(MessageId) -> MessageState) -> MessageId;

    /// Called once a message is delivered or dropped and its metrics have
    /// been folded into the collector: the entry is no longer needed.
    fn retire(&mut self, id: MessageId);

    /// Entries the table holds now, retired ones it keeps included.
    fn held(&self) -> usize;
}

impl MessageTable for MessageSlab {
    #[inline]
    fn insert_with(&mut self, make: impl FnOnce(MessageId) -> MessageState) -> MessageId {
        MessageSlab::insert_with(self, make)
    }

    #[inline]
    fn retire(&mut self, id: MessageId) {
        self.remove(id);
    }

    #[inline]
    fn held(&self) -> usize {
        self.live()
    }
}

/// Decides which sources and routers each pipeline stage visits.
///
/// The `note_*` notifications default to no-ops: a scheduler that visits
/// everything needs none of them.
pub trait Schedule: Sized {
    /// The message table this scheduler is paired with.
    type Messages: MessageTable;

    /// Builds the scheduler for `routers`, the first `num_endpoints` of which
    /// have a traffic source.
    fn new(routers: &[RouterState], num_endpoints: usize) -> Self;

    /// Fills `out` with the sources to poll at cycle `now`. Skipping a source
    /// is legal only while its
    /// [`next_due_cycle`](torus_workloads::TrafficSource::next_due_cycle) lies
    /// in the future (such a poll draws nothing from the RNG).
    fn due_sources(&mut self, now: u64, out: &mut Vec<usize>);

    /// Fills `out` with the routers that may hold a queued message (a
    /// source-queue record or a re-injection entry).
    fn injecting(&self, out: &mut Vec<usize>);

    /// Fills `out` with the routers that may hold an occupied input slot (a
    /// non-empty input buffer). Routing and the stall watchdog act only on a
    /// waiting head flit at the front of an input VC, switching only on a
    /// routed flit there, so a router whose input buffers are all empty has
    /// nothing for them, even with VCs still bound to a worm.
    fn busy(&self, out: &mut Vec<usize>);

    /// True when the stall watchdog must scan at cycle `now`.
    fn watchdog_due(&self, now: u64) -> bool;

    /// Source `idx` was polled and will next generate at cycle `due`.
    #[inline]
    fn note_next_arrival(&mut self, _idx: usize, _due: u64) {}

    /// A message entered router `idx`'s source or re-injection queue.
    #[inline]
    fn note_queued(&mut self, _idx: usize) {}

    /// Both queues of router `idx` are empty.
    #[inline]
    fn note_queues_empty(&mut self, _idx: usize) {}

    /// Router `idx`, whose input buffers were all empty, received a flit.
    #[inline]
    fn note_router_occupied(&mut self, _idx: usize) {}

    /// The last non-empty input buffer of router `idx` drained.
    #[inline]
    fn note_router_empty(&mut self, _idx: usize) {}

    /// The watchdog scanned at cycle `now`; no stalled head flit can reach its
    /// deadline before cycle `next_expiry`.
    #[inline]
    fn note_watchdog_scan(&mut self, _now: u64, _next_expiry: u64) {}
}

/// Active-set scheduling: every stage visits live state only.
///
/// * Traffic generation pops an *arrival calendar* (a min-heap of per-source
///   next-arrival cycles), so idle sources are never polled.
/// * Injection visits only routers with a non-empty source or re-injection
///   queue.
/// * Routing, switching and the stall watchdog visit only routers with at
///   least one occupied input slot: the routers whose occupancy mask (see
///   [`crate::router`]) is non-empty, kept current by the
///   engine's notifications when a mask becomes non-empty or empty.
/// * The watchdog sleeps until the earliest cycle a stall deadline can expire
///   at, so the configured threshold is honored to the cycle.
#[derive(Clone, Debug)]
pub struct ActiveSchedule {
    /// Min-heap of `(next_arrival_cycle, node)` for every healthy source.
    arrival_calendar: BinaryHeap<Reverse<(u64, usize)>>,
    /// Routers with a non-empty source or re-injection queue.
    inject_set: ActiveSet,
    /// Routers with at least one occupied input slot.
    busy_set: ActiveSet,
    /// Next cycle the stall watchdog must scan at.
    watchdog_next: u64,
}

impl Schedule for ActiveSchedule {
    type Messages = MessageSlab;

    fn new(routers: &[RouterState], num_endpoints: usize) -> Self {
        // Every healthy source is due for its very first poll at cycle 0 (the
        // poll that draws its initial inter-arrival gap).
        let arrival_calendar = routers[..num_endpoints]
            .iter()
            .enumerate()
            .filter(|(_, router)| !router.is_faulty)
            .map(|(idx, _)| Reverse((0u64, idx)))
            .collect();
        ActiveSchedule {
            arrival_calendar,
            inject_set: ActiveSet::new(routers.len()),
            busy_set: ActiveSet::new(routers.len()),
            watchdog_next: 0,
        }
    }

    /// Entries pop in `(cycle, node)` order, so sources due at the same
    /// cycle come back in ascending node order — the order a full scan polls
    /// them.
    #[inline]
    fn due_sources(&mut self, now: u64, out: &mut Vec<usize>) {
        out.clear();
        while let Some(&Reverse((due, idx))) = self.arrival_calendar.peek() {
            if due > now {
                break;
            }
            self.arrival_calendar.pop();
            out.push(idx);
        }
    }

    #[inline]
    fn injecting(&self, out: &mut Vec<usize>) {
        self.inject_set.collect_into(out);
    }

    #[inline]
    fn busy(&self, out: &mut Vec<usize>) {
        self.busy_set.collect_into(out);
    }

    #[inline]
    fn watchdog_due(&self, now: u64) -> bool {
        now >= self.watchdog_next
    }

    #[inline]
    fn note_next_arrival(&mut self, idx: usize, due: u64) {
        self.arrival_calendar.push(Reverse((due, idx)));
    }

    #[inline]
    fn note_queued(&mut self, idx: usize) {
        self.inject_set.insert(idx);
    }

    #[inline]
    fn note_queues_empty(&mut self, idx: usize) {
        self.inject_set.remove(idx);
    }

    #[inline]
    fn note_router_occupied(&mut self, idx: usize) {
        self.busy_set.insert(idx);
    }

    #[inline]
    fn note_router_empty(&mut self, idx: usize) {
        self.busy_set.remove(idx);
    }

    #[inline]
    fn note_watchdog_scan(&mut self, _now: u64, next_expiry: u64) {
        self.watchdog_next = next_expiry;
    }
}
