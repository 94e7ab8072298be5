//! The per-message state table.
//!
//! [`MessageState`] holds the simulator-side state of one message;
//! [`MessageSlab`] is the table that stores them. The table holds injected
//! messages only: a generated message waits in its source queue as a compact
//! [`crate::router::QueuedMessage`] record and gets its entry, its header and
//! its [`MessageId`] when an injection VC takes it. So the table's population
//! is bounded by what the network's buffers and re-injection queues hold,
//! not by the offered load. The slab retires delivered and dropped entries
//! (after their metrics have been folded into the collector) and reuses their
//! slots, so table memory is bounded by the peak population of injected
//! messages rather than by the total traffic of the run. Identifiers are
//! generation-tagged ([`MessageId`]) so a reused slot can never be confused
//! with the message that previously occupied it.

use crate::flit::MessageId;
use std::ops::{Index, IndexMut};
use torus_routing::RouteHeader;
use torus_topology::NodeId;

/// Lifecycle of a message inside the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessagePhase {
    /// Absorbed, re-routed by the software layer and waiting in its node's
    /// re-injection queue. (A message waiting in its source queue has no
    /// table entry yet, so no phase.)
    Queued,
    /// At least one flit is currently inside the network.
    InNetwork,
    /// Fully delivered to its destination PE.
    Delivered,
    /// Dropped because its destination became unreachable (cannot happen under
    /// the paper's assumption that faults never disconnect the network; kept
    /// for robustness).
    Dropped,
}

/// Complete simulator-side state of one message.
#[derive(Clone, Debug)]
pub struct MessageState {
    /// Message identifier (index into the message table).
    pub id: MessageId,
    /// Routing header (rewritten by the software layer on absorption).
    pub header: RouteHeader,
    /// Message length in flits.
    pub length: u32,
    /// Cycle the message was generated by its source PE.
    pub generated_at: u64,
    /// Cycle the header flit first entered the network (None while queued).
    pub first_injected_at: Option<u64>,
    /// Cycle the message was delivered (None until then).
    pub delivered_at: Option<u64>,
    /// Whether the message belongs to the measured (post-warm-up) population.
    pub measured: bool,
    /// Current lifecycle phase.
    pub phase: MessagePhase,
}

impl MessageState {
    /// Creates the state of a message its source is injecting. It is
    /// `MessagePhase::Queued` until `MessageState::note_injected`, which
    /// the engine calls at once.
    ///
    /// Zero-length messages are a configuration error and are rejected at the
    /// workload/config boundary ([`crate::config::SimConfigError::ZeroMessageLength`])
    /// rather than silently clamped here; by the time a message reaches the
    /// simulator its length is guaranteed to be at least one flit.
    pub fn new(
        id: MessageId,
        header: RouteHeader,
        length: u32,
        generated_at: u64,
        measured: bool,
    ) -> Self {
        debug_assert!(
            length >= 1,
            "zero-length message must be rejected by config validation"
        );
        MessageState {
            id,
            header,
            length,
            generated_at,
            first_injected_at: None,
            delivered_at: None,
            measured,
            phase: MessagePhase::Queued,
        }
    }

    /// Source node of the message.
    pub fn source(&self) -> NodeId {
        self.header.source
    }

    /// Final destination of the message.
    pub fn destination(&self) -> NodeId {
        self.header.final_dest
    }

    /// True once the message has left the simulator (delivered or dropped).
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.phase, MessagePhase::Delivered | MessagePhase::Dropped)
    }

    /// Marks the message as having entered the network at `cycle` (only the
    /// first injection is recorded; re-injections after absorption keep the
    /// original timestamp, since the paper's latency is measured from
    /// generation).
    pub(crate) fn note_injected(&mut self, cycle: u64) {
        if self.first_injected_at.is_none() {
            self.first_injected_at = Some(cycle);
        }
        self.phase = MessagePhase::InNetwork;
    }

    /// Marks the message delivered at `cycle`.
    pub(crate) fn note_delivered(&mut self, cycle: u64) {
        self.delivered_at = Some(cycle);
        self.phase = MessagePhase::Delivered;
    }

    /// Marks the message dropped.
    pub(crate) fn note_dropped(&mut self) {
        self.phase = MessagePhase::Dropped;
    }

    /// End-to-end latency in cycles, once delivered.
    pub fn latency(&self) -> Option<u64> {
        self.delivered_at
            .map(|d| d.saturating_sub(self.generated_at))
    }
}

/// One slot of a [`MessageSlab`]: a generation counter plus the (possibly
/// vacant) message state.
#[derive(Clone, Debug)]
struct Slot {
    generation: u32,
    state: Option<MessageState>,
}

/// A message table that reclaims retired entries.
///
/// Slots of delivered/dropped messages are pushed onto a free list and reused
/// by later insertions; each reuse bumps the slot's generation so identifiers
/// remain stable and unambiguous (`MessageId::from_parts`). Peak occupancy
/// is therefore bounded by the in-flight population, not by the total number
/// of messages a run generates.
#[derive(Clone, Debug, Default)]
pub struct MessageSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    /// Peak number of simultaneously live entries, for the tests' structural
    /// bound `capacity() <= peak_live()`.
    #[cfg(test)]
    peak_live: usize,
}

impl MessageSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        MessageSlab::default()
    }

    /// Inserts a new message, handing the chosen identifier to the `make`
    /// closure that builds its state. Returns the identifier.
    pub(crate) fn insert_with(
        &mut self,
        make: impl FnOnce(MessageId) -> MessageState,
    ) -> MessageId {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                assert!(
                    self.slots.len() < u32::MAX as usize,
                    "message table overflow: a slot is added only when every slot \
                     holds a live message, and u32::MAX live messages would be \
                     over 500 GB of message state, which no allocation grants"
                );
                self.slots.push(Slot {
                    generation: 0,
                    state: None,
                });
                self.slots.len() - 1
            }
        };
        let id = MessageId::from_parts(slot as u32, self.slots[slot].generation);
        debug_assert!(
            self.slots[slot].state.is_none(),
            "allocated an occupied slot"
        );
        self.slots[slot].state = Some(make(id));
        self.live += 1;
        #[cfg(test)]
        {
            self.peak_live = self.peak_live.max(self.live);
        }
        id
    }

    /// Retires a message, freeing its slot for reuse, and returns its final
    /// state. Callers must fold any metrics they still need into the
    /// collector *before* retiring the entry.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is stale (its slot was already retired, or
    /// retired and reused by a later message).
    pub(crate) fn remove(&mut self, id: MessageId) -> MessageState {
        let slot = &mut self.slots[id.slot()];
        assert_eq!(slot.generation, id.generation(), "stale message id {id:?}");
        let state = slot.state.take().expect(
            "double retire of a message slot: vacating a slot moves its generation \
             past every id it handed out, so an id whose generation matches names \
             an occupied slot",
        );
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot() as u32);
        self.live -= 1;
        state
    }

    /// Number of live (non-retired) messages.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak number of simultaneously live entries observed so far.
    #[cfg(test)]
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Number of slots the table has ever grown to (its memory footprint).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Looks up a message by identifier, returning `None` for stale or
    /// retired identifiers instead of panicking (the invariant sanitizer uses
    /// this to distinguish a live reference from a dangling one without
    /// tripping the hard generation assert of `Index`).
    pub fn get(&self, id: MessageId) -> Option<&MessageState> {
        let slot = self.slots.get(id.slot())?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.state.as_ref()
    }

    /// Iterates over the live messages in slot order.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = &MessageState> {
        self.slots.iter().filter_map(|s| s.state.as_ref())
    }
}

/// Why an id that passed the generation check names an occupied slot.
const VACANT: &str = "vacant message slot: vacating a slot moves its generation past \
                      every id it handed out, so an id whose generation matches names \
                      an occupied slot";

// The generation checks below are hard asserts even in release builds: a
// stale identifier aliasing a reused slot would silently corrupt an unrelated
// message, and the one-compare cost is negligible next to the lookup itself.
impl Index<MessageId> for MessageSlab {
    type Output = MessageState;

    fn index(&self, id: MessageId) -> &MessageState {
        let slot = &self.slots[id.slot()];
        assert_eq!(slot.generation, id.generation(), "stale message id {id:?}");
        slot.state.as_ref().expect(VACANT)
    }
}

impl IndexMut<MessageId> for MessageSlab {
    fn index_mut(&mut self, id: MessageId) -> &mut MessageState {
        let slot = &mut self.slots[id.slot()];
        assert_eq!(slot.generation, id.generation(), "stale message id {id:?}");
        slot.state.as_mut().expect(VACANT)
    }
}

/// Read-only view over a message store, implemented by both schedulers'
/// tables (the reclaiming [`MessageSlab`] and the reference's append-only
/// `Vec`). `lookup` must return `None` for stale or retired identifiers
/// rather than panicking.
pub trait MessageLookup {
    /// Resolves an identifier to its message, if the identifier is current.
    fn lookup(&self, id: MessageId) -> Option<&MessageState>;
    /// Visits every live (not delivered/dropped) message.
    fn for_each_live(&self, f: &mut dyn FnMut(&MessageState));
}

impl MessageLookup for MessageSlab {
    fn lookup(&self, id: MessageId) -> Option<&MessageState> {
        self.get(id)
    }

    fn for_each_live(&self, f: &mut dyn FnMut(&MessageState)) {
        for m in self.iter_live() {
            if !m.is_done() {
                f(m);
            }
        }
    }
}

impl MessageLookup for Vec<MessageState> {
    fn lookup(&self, id: MessageId) -> Option<&MessageState> {
        if id.generation() != 0 {
            return None;
        }
        self.get(id.slot())
    }

    fn for_each_live(&self, f: &mut dyn FnMut(&MessageState)) {
        for m in self {
            if !m.is_done() {
                f(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_routing::{AnyRouting, RoutingAlgorithm, Substrate};
    use torus_topology::AnyTopology;

    fn make(id: u64) -> MessageState {
        let t = AnyTopology::torus(8, 2).unwrap();
        let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
        let header = algo.make_header(&t, NodeId(0), NodeId(12));
        MessageState::new(MessageId(id), header, 32, 100, true)
    }

    #[test]
    fn lifecycle() {
        let mut m = make(0);
        assert_eq!(m.phase, MessagePhase::Queued);
        assert_eq!(m.source(), NodeId(0));
        assert_eq!(m.destination(), NodeId(12));
        assert!(!m.is_done());
        m.note_injected(110);
        assert_eq!(m.phase, MessagePhase::InNetwork);
        assert_eq!(m.first_injected_at, Some(110));
        m.note_injected(150); // re-injection keeps the first timestamp
        assert_eq!(m.first_injected_at, Some(110));
        m.note_delivered(180);
        assert!(m.is_done());
        assert_eq!(m.latency(), Some(80));
    }

    #[test]
    fn dropped_messages_are_done() {
        let mut m = make(1);
        m.note_dropped();
        assert!(m.is_done());
        assert_eq!(m.latency(), None);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "zero-length"))]
    fn zero_length_is_a_bug_not_a_clamp() {
        let t = AnyTopology::torus(4, 2).unwrap();
        let algo = AnyRouting::adaptive(Substrate::DimensionOrder);
        let header = algo.make_header(&t, NodeId(1), NodeId(2));
        // Config validation rejects zero-length workloads before any message
        // is built; constructing one anyway is a debug-assertion failure, not
        // a silent clamp to one flit.
        let m = MessageState::new(MessageId(0), header, 0, 0, false);
        assert_eq!(m.length, 0, "release builds store the length unmodified");
    }

    #[test]
    fn slab_reuses_slots_with_fresh_generations() {
        let mut slab = MessageSlab::new();
        let t = AnyTopology::torus(8, 2).unwrap();
        let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
        let mk = |slab: &mut MessageSlab| {
            let header = algo.make_header(&t, NodeId(0), NodeId(12));
            slab.insert_with(|id| MessageState::new(id, header, 4, 0, false))
        };
        let a = mk(&mut slab);
        let b = mk(&mut slab);
        assert_eq!(a, MessageId::from_parts(0, 0));
        assert_eq!(b, MessageId::from_parts(1, 0));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab[a].id, a);

        slab.remove(a);
        assert_eq!(slab.live(), 1);
        let c = mk(&mut slab);
        assert_eq!(c.slot(), a.slot(), "slot is reused");
        assert_eq!(c.generation(), 1, "with a bumped generation");
        assert_ne!(c, a);
        assert_eq!(slab.capacity(), 2, "no growth on reuse");
        assert_eq!(slab.peak_live(), 2);
        assert_eq!(slab.iter_live().count(), 2);
        // `get` resolves live ids and rejects stale ones without panicking.
        assert_eq!(slab.get(c).map(|s| s.id), Some(c));
        assert!(slab.get(a).is_none(), "stale id: generation mismatch");
        assert!(slab.get(MessageId::from_parts(99, 0)).is_none());
    }

    #[test]
    #[should_panic(expected = "stale message id")]
    fn slab_rejects_stale_ids() {
        let mut slab = MessageSlab::new();
        let t = AnyTopology::torus(8, 2).unwrap();
        let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
        let header = algo.make_header(&t, NodeId(0), NodeId(3));
        let a = slab.insert_with(|id| MessageState::new(id, header, 4, 0, false));
        slab.remove(a);
        slab.remove(a); // stale: generation was bumped
    }
}
