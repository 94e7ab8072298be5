//! Per-node router state: input/output virtual channels, the neighbour
//! table, source and re-injection queues.
//!
//! Port numbering convention:
//!
//! * network port `p = dim * 2 + dir.index()` — as an **output** port it sends
//!   flits in direction `dir` along `dim`; as an **input** port it receives
//!   the flits that travelled in direction `dir` (i.e. sent by the neighbour
//!   in direction `dir.opposite()`);
//! * the **injection** port is the extra input port with index `2 * n`
//!   ([`RouterState::injection_port`]); ejection/absorption is not a port but
//!   an unconstrained local sink (paper assumption (d): messages are
//!   transferred to the PE as soon as they arrive).
//!
//! Slot numbering: a router's virtual channels live in two flat arrays,
//! indexed `port * V + vc` ([`RouterState::slot`]). [`RouterState::inputs`]
//! has `(2n + 1) * V` slots, the injection port's last;
//! [`RouterState::outputs`] has `2n * V`. A flit leaving through output slot
//! `s` arrives in input slot `s` of the downstream router, and the credit for
//! a flit leaving input slot `s` goes back to output slot `s` of the upstream
//! router — the slot index is the same at both ends of a link. The switch
//! allocator's round-robin pointers and winners count input slots the same
//! way.
//!
//! Worm runs: an input VC's buffer is a [`WormRun`] — the message id, the
//! front flit's sequence number, the flit count and whether the tail has
//! arrived — not a queue of flits. That is exact because a VC only ever holds
//! consecutive flits of one worm, front first:
//!
//! * a network input VC is fed by one upstream output VC, which moves its
//!   owner's flits in order and becomes claimable by another worm only once
//!   every credit is back, i.e. once this buffer has drained (the sanitizer's
//!   `credit-mismatch` invariant);
//! * an injection VC takes a new message only when idle, and then takes the
//!   whole worm at once ([`WormRun::whole`]).
//!
//! Links still carry [`Flit`]s; a buffer appends them with
//! [`WormRun::extend`], which debug-asserts that they continue its run.
//!
//! Neighbour table: the router holds, per network port, the index of the
//! router over that port's channel — the **downstream** router of output
//! port `p`, and (the topology's `neighbor` being involutive) the
//! **upstream** router of input port `p ^ 1` ([`RouterState::downstream`],
//! [`RouterState::upstream`]). It is read from the topology once, when the
//! engine is built; a port that does not physically exist (the outward ports
//! at the edge of an open dimension) has no entry, and its VC state is
//! allocated but never used.
//!
//! Slot masks: each router keeps four sets of its input slots in `u64` words
//! sized for its slot count, stored as one `[occupied, waiting, kept,
//! creditless]` quadruple per word so that one load serves all four.
//!
//! * The **occupancy mask** ([`RouterState::occupied_slots_in`]): bit `s` is
//!   set iff `inputs[s].buffer` is non-empty. The engine fills and drains
//!   buffers only through the crate-private `push_flits` (injection, link
//!   arrival) and `pop_flit` (switch traversal, local sink), which keep it
//!   and report when the router's first slot fills or its last drains.
//! * The **waiting-head mask** ([`RouterState::waiting_slots_in`]): bit `s`
//!   is set iff `inputs[s].waiting_head()` is `Some` — an unrouted head flit
//!   at the front. It is set when a head lands in an empty slot (a VC
//!   carries one worm at a time, so such a slot has no route) and cleared
//!   when the head is bound. The engine binds and unbinds routes only through
//!   the crate-private `bind` (a routing decision, a won VC, the watchdog's
//!   forced absorption) and `unbind` (the tail flit left), never by assigning
//!   [`InputVc::route`].
//! * The **kept-decision mask** ([`RouterState::kept_slots_in`]): bit `s` is
//!   set iff the waiting head of slot `s` failed VC allocation and keeps its
//!   routing decision (below). It is a subset of the waiting-head mask.
//! * The **credit mask** (the crate-private `is_creditless`): bit `s` is
//!   set iff slot `s` is bound to a network output VC whose credit count is
//!   0: its worm is blocked downstream. Credits change only through the
//!   crate-private `send` (a flit crossed the switch) and `return_credit`
//!   (the downstream buffer freed a slot). `send` sets the bit when a flit
//!   other than the tail spends the last credit; after the tail the slot
//!   unbinds, and `unbind` clears it. `return_credit` clears it when the
//!   first credit comes back to an owned VC that is not draining. That bit
//!   is the VC's **feeder**'s: the input slot whose head claimed the VC
//!   ([`OutputVc`] stores it), which stays bound to the VC until its tail
//!   leaves. The credits coming back to a draining VC are no longer any
//!   slot's business: its old feeder has unbound, and may be bound elsewhere.
//!   A claimed VC starts with every credit, so `bind` leaves the bit clear.
//!
//! Routing and the stall watchdog visit the waiting slots only, switch
//! requests the occupied slots that are neither waiting nor creditless
//! ([`RouterState::routed_slots_in`]): a blocked worm costs the switch pass
//! nothing. The sanitizer checks all four masks every cycle.
//!
//! Kept decisions: a head that fails VC allocation keeps its routing decision
//! ([`KeptDecision`]) in the router's kept-decision store
//! ([`RouterState::kept_decisions`]), a dense list in ascending slot order:
//! the entry of slot `s` is found by its rank, the number of kept bits below
//! `s`. Only blocked heads have an entry, so a router with none holds no
//! store on the heap, and the store stays off the slot state every stage
//! reads. The crate-private `keep` inserts an entry, `bind` removes the
//! slot's, and a retry that fails again leaves its entry as it is. The
//! engine's routing pass walks the waiting slots and the store together,
//! ascending, so it finds each entry with a cursor and no rank.
//!
//! Footprint: on a 64-bit target an input slot costs 48 bytes
//! ([`InputVc`]), an output slot 16 ([`OutputVc`]), a blocked head 40 more
//! ([`KeptDecision`]: its candidates alone, inline up to six), a network port
//! 4 bytes of neighbour table and 2 of switch pointer, and every 64 input
//! slots 32 bytes of masks. A router of a 3-dimensional torus with four VCs
//! (28 input and 24 output slots) owns 1 796 bytes of heap while no head is
//! blocked. A message waiting in the source queue costs 12 bytes
//! ([`QueuedMessage`]) and no message-table entry; past saturation the source
//! queues are what grows for the whole run.
//!
//! Release flag: [`RouterState::released`] tells whether an output VC of the
//! router has become claimable since the router's last routing pass. The
//! only event that makes one claimable is a draining VC getting its last
//! credit back (`return_credit`, which sets the flag); claiming one, or
//! failing to, releases none. The end of each routing pass clears the flag.
//! That is exact for every kept decision, with no stamp per decision:
//!
//! * a router with a waiting head is occupied, so the engine visits it every
//!   cycle, and its routing pass visits every waiting slot;
//! * the flag is set only in `return_credit`, which runs after every
//!   router's pass, so it is constant during a pass;
//! * so every decision that survives a pass failed after the router's last
//!   release — a new one just failed, and a kept one either failed again or
//!   was skipped because nothing had been released since it failed.
//!
//! While the flag is clear, none of the kept heads' candidate VCs can have
//! become claimable, so the engine only replays each attempt's RNG draws
//! instead of repeating it.
//!
//! Widths: cycle stamps are `u32`, credit counters `u32`, output ports `u16`,
//! output VCs `u8`, switch pointers and feeder slots `u16`.
//! `SimConfig::validate_parameters` rejects, with a typed error, every
//! configuration whose values would not fit: `max_cycles` above `u32::MAX`,
//! a buffer depth above `u32::MAX`, more than `u16::MAX` input slots per
//! router, `V` above 255.

use crate::active::WordIndices;
use crate::flit::{Flit, MessageId, WormRun};
use std::collections::VecDeque;
use torus_routing::Candidates;
use torus_topology::{AnyTopology, Direction, NodeId};

/// Index of the occupancy mask in a slot-mask word quadruple.
const OCCUPIED: usize = 0;
/// Index of the waiting-head mask in a slot-mask word quadruple.
const WAITING: usize = 1;
/// Index of the kept-decision mask in a slot-mask word quadruple.
const KEPT: usize = 2;
/// Index of the credit mask in a slot-mask word quadruple.
const CREDITLESS: usize = 3;

/// The neighbour-table entry of a port that does not physically exist. No
/// router has this index: a topology keeps its node count within `u32`, so
/// node indices stay below `u32::MAX`.
const NO_PORT: u32 = u32::MAX;

/// The largest number of input slots a router may have: switch pointers and
/// output ports are stored as `u16`.
pub(crate) const MAX_SLOTS: usize = u16::MAX as usize;

/// The bit of input slot `slot` within its mask word.
#[inline]
fn bit(slot: usize) -> u64 {
    1 << (slot % 64)
}

/// Cycle `cycle` as an input VC stores it. A run never reaches `max_cycles`,
/// which `SimConfig::validate_parameters` bounds by `u32::MAX`, so every
/// cycle it stamps fits.
#[inline]
pub(crate) fn stamp(cycle: u64) -> u32 {
    debug_assert!(
        cycle <= u64::from(u32::MAX),
        "cycle {cycle} is past the u32 stamps the configuration bounds max_cycles by"
    );
    cycle as u32
}

/// Where an input virtual channel is currently forwarding its flits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteTarget {
    /// Towards a network output port and virtual channel.
    Network {
        /// Output port index (`dim * 2 + dir.index()`).
        out_port: u16,
        /// Output virtual channel index.
        out_vc: u8,
    },
    /// Into the local node: deliver to the PE (final destination reached).
    Deliver,
    /// Into the local node: absorb and hand to the message-passing software
    /// for re-routing (Software-Based fault handling).
    Absorb,
}

impl RouteTarget {
    /// Towards virtual channel `out_vc` of network output port `out_port`.
    /// The configuration bounds both (at most [`MAX_SLOTS`] slots and 255
    /// VCs per port), so they fit.
    #[inline]
    pub(crate) fn network(out_port: usize, out_vc: usize) -> Self {
        debug_assert!(out_port < MAX_SLOTS && out_vc <= u8::MAX as usize);
        RouteTarget::Network {
            out_port: out_port as u16,
            out_vc: out_vc as u8,
        }
    }

    /// The output port and virtual channel of a network target, `None` for a
    /// local sink.
    #[inline]
    pub(crate) fn output(self) -> Option<(usize, usize)> {
        match self {
            RouteTarget::Network { out_port, out_vc } => {
                Some((usize::from(out_port), usize::from(out_vc)))
            }
            RouteTarget::Deliver | RouteTarget::Absorb => None,
        }
    }
}

/// Binding of an input virtual channel to the message currently crossing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcRoute {
    /// The message occupying the channel.
    pub msg: MessageId,
    /// Earliest cycle flits may start moving (models the router decision time
    /// `Td`); see [`VcRoute::new`].
    pub ready_at: u32,
    /// Where its flits are being forwarded.
    pub target: RouteTarget,
}

impl VcRoute {
    /// The binding of `msg` to `target`, ready at cycle `ready_at`. A cycle
    /// past `u32::MAX` is stored as `u32::MAX`: a run's cycles stay below
    /// `max_cycles <= u32::MAX`, so the route is ready in none of them either
    /// way.
    #[inline]
    pub fn new(msg: MessageId, target: RouteTarget, ready_at: u64) -> Self {
        VcRoute {
            msg,
            ready_at: ready_at.min(u64::from(u32::MAX)) as u32,
            target,
        }
    }
}

/// State of one input virtual channel.
#[derive(Clone, Debug, Default)]
pub struct InputVc {
    /// The buffered flits (depth-bounded for network ports, unbounded for the
    /// injection port, which holds the whole message being injected).
    pub buffer: WormRun,
    /// Current binding, `None` while idle or awaiting routing/VC allocation.
    pub route: Option<VcRoute>,
    /// Cycle of the last forward progress (used by the stall watchdog).
    pub last_progress: u32,
    /// Flits of the worm being delivered or absorbed here that have already
    /// drained into the local node. A worm's flits are consecutive on one
    /// input VC, so the tail flit alone completes the message; the count is
    /// kept for the sanitizer's flit-conservation audit.
    pub sunk: u32,
}

impl InputVc {
    /// True when the channel holds no flits and is not bound to a message.
    pub fn is_idle(&self) -> bool {
        self.buffer.is_empty() && self.route.is_none()
    }

    /// The message whose head flit sits at the front of this channel still
    /// awaiting routing / VC allocation, if there is one.
    #[inline]
    pub fn waiting_head(&self) -> Option<MessageId> {
        match (self.route, self.buffer.front()) {
            (None, Some(front)) if front.kind.is_head() => Some(front.msg),
            _ => None,
        }
    }
}

/// A blocked head's routing decision, kept in its router's kept-decision
/// store ([`RouterState::kept_decisions`]) while it waits for an output VC.
/// It failed VC allocation after the router's last release (see
/// [`RouterState::released`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeptDecision {
    /// The `Forward` candidates `route()` returned.
    pub candidates: Candidates,
}

/// Ownership state of one output virtual channel (the credit counter tracks
/// the free buffer slots of the corresponding downstream input VC).
#[derive(Clone, Debug)]
pub struct OutputVc {
    /// The owning message while `owned`; stale otherwise.
    owner: MessageId,
    /// Remaining credits (free downstream buffer slots).
    credits: u32,
    /// The input slot whose head claimed the VC, its feeder while `owned`
    /// and not `draining`; stale otherwise. It fits the padding after the
    /// counter.
    feeder: u16,
    /// True from header acceptance until the VC is released.
    owned: bool,
    /// True once the tail flit has been sent; the VC is released lazily when
    /// all credits have returned (atomic VC reallocation).
    draining: bool,
}

impl OutputVc {
    /// An idle VC with every credit; `RouterState::new` checks that the
    /// depth fits the counter.
    fn new(buffer_depth: usize) -> Self {
        OutputVc {
            owner: MessageId(0),
            credits: buffer_depth as u32,
            feeder: 0,
            owned: false,
            draining: false,
        }
    }

    /// Message currently owning the VC (set from header acceptance until the
    /// downstream buffer has drained the tail flit and the VC is released).
    #[inline]
    pub fn owner(&self) -> Option<MessageId> {
        self.owned.then_some(self.owner)
    }

    /// True once the owner's tail flit has been sent.
    #[inline]
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Remaining credits (free downstream buffer slots).
    #[inline]
    pub fn credits(&self) -> usize {
        self.credits as usize
    }

    /// True if a new message may claim this VC: it is unowned, or its last
    /// owner's tail has been sent and every credit has come back.
    #[inline]
    pub fn claimable(&self, buffer_depth: usize) -> bool {
        if self.draining {
            self.credits() == buffer_depth
        } else {
            !self.owned
        }
    }

    /// [`OutputVc::claimable`], releasing a drained VC lazily. A VC that is
    /// not claimable is left untouched.
    #[inline]
    pub fn available(&mut self, buffer_depth: usize) -> bool {
        let claimable = self.claimable(buffer_depth);
        if claimable {
            self.release();
        }
        claimable
    }

    /// Clears the owner and the draining flag.
    #[inline]
    pub(crate) fn release(&mut self) {
        self.owned = false;
        self.draining = false;
    }

    /// Gives the VC to `msg`, whose head in input slot `feeder` won it. A
    /// claimable VC has every credit back, so the feeder starts with credit.
    #[inline]
    pub(crate) fn claim(&mut self, msg: MessageId, feeder: usize) {
        debug_assert!(self.credits > 0, "a claimable VC has every credit back");
        self.owner = msg;
        // `RouterState::new` bounds the slot count by `MAX_SLOTS`.
        self.feeder = feeder as u16;
        self.owned = true;
        self.draining = false;
    }

    /// Spends a credit on a flit sent downstream; the tail starts the drain.
    #[inline]
    pub(crate) fn send(&mut self, is_tail: bool) {
        debug_assert!(self.credits > 0, "a flit was sent without a credit");
        self.credits -= 1;
        self.draining |= is_tail;
    }
}

/// A generated message waiting in its source's queue: what the engine needs
/// to inject it. The source is the router's node and the length is the
/// traffic spec's, so neither is stored; the message gets its header, its
/// [`MessageId`] and its message-table entry only when an injection VC takes
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedMessage {
    /// Destination node (a healthy endpoint other than the source).
    pub dest: NodeId,
    /// Cycle the message was generated, as a stamp: `max_cycles` fits `u32`.
    pub generated_at: u32,
    /// Whether the message belongs to the measured (post-warm-up) population.
    pub measured: bool,
}

/// An entry of the software re-injection queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReinjectionEntry {
    /// The absorbed message awaiting re-injection.
    pub msg: MessageId,
    /// Earliest cycle it may re-enter the network (absorption cycle + Δ).
    pub ready_at: u64,
}

/// Full per-node router state.
#[derive(Clone, Debug)]
pub struct RouterState {
    /// The node this router belongs to.
    pub node: NodeId,
    /// True when the node (PE + router) is faulty; a faulty router neither
    /// generates, forwards nor accepts flits.
    pub is_faulty: bool,
    /// Virtual channels per port (`V`, the slot stride).
    vcs: usize,
    /// Per network port, the index of the router over that port's channel,
    /// or [`NO_PORT`] where the port does not physically exist (see the
    /// module docs).
    neighbors: Vec<u32>,
    /// Input virtual channels, slot `port * V + vc`: the `2n` network ports
    /// followed by the injection port.
    pub inputs: Vec<InputVc>,
    /// The kept decisions of the router's blocked heads, in ascending slot
    /// order (see the module docs).
    kept: Vec<KeptDecision>,
    /// The occupancy, waiting-head, kept-decision and credit masks, one
    /// `[OCCUPIED, WAITING, KEPT, CREDITLESS]` quadruple per 64-slot word
    /// (see the module docs).
    slot_masks: Vec<[u64; 4]>,
    /// Output virtual channels of the `2n` network output ports, slot
    /// `port * V + vc`.
    pub outputs: Vec<OutputVc>,
    /// Whether an output VC has become claimable since the router's last
    /// routing pass (see the module docs).
    released: bool,
    /// Locally generated messages waiting to enter the network, oldest first.
    pub source_queue: VecDeque<QueuedMessage>,
    /// Absorbed messages re-routed by the software layer, waiting to re-enter
    /// the network; always served before `source_queue`.
    pub reinjection_queue: VecDeque<ReinjectionEntry>,
    /// Round-robin pointers of the switch allocator, one per output port,
    /// each an input slot.
    sa_pointer: Vec<u16>,
}

impl RouterState {
    /// Creates the router of `node` in `net` with `v` virtual channels per
    /// physical channel and the given flit-buffer depth, reading its
    /// neighbour table from the topology.
    ///
    /// # Panics
    /// Panics when the router would have more than [`MAX_SLOTS`] input slots
    /// or the depth exceeds `u32::MAX`; the engine rejects such a
    /// configuration with a typed error first.
    pub fn new(
        net: &AnyTopology,
        node: NodeId,
        v: usize,
        buffer_depth: usize,
        is_faulty: bool,
    ) -> Self {
        let num_net_ports = 2 * net.dims();
        let num_slots = (num_net_ports + 1) * v;
        assert!(
            num_slots <= MAX_SLOTS && u32::try_from(buffer_depth).is_ok(),
            "{num_slots} input slots or buffer depth {buffer_depth} exceed the router's widths"
        );
        let neighbors = (0..num_net_ports)
            .map(|port| {
                let (dim, dir) = Self::port_dim_dir(port);
                net.neighbor(node, dim, dir).map_or(NO_PORT, |n| n.0)
            })
            .collect();
        RouterState {
            node,
            is_faulty,
            vcs: v,
            neighbors,
            inputs: vec![InputVc::default(); num_slots],
            kept: Vec::new(),
            slot_masks: vec![[0; 4]; num_slots.div_ceil(64)],
            outputs: vec![OutputVc::new(buffer_depth); num_net_ports * v],
            released: false,
            source_queue: VecDeque::new(),
            reinjection_queue: VecDeque::new(),
            sa_pointer: vec![0; num_net_ports],
        }
    }

    /// Number of network ports (`2n`).
    pub fn num_net_ports(&self) -> usize {
        self.neighbors.len()
    }

    /// Index of the injection input port.
    pub fn injection_port(&self) -> usize {
        self.num_net_ports()
    }

    /// Virtual channels per port (`V`).
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The flat slot of virtual channel `vc` of `port`.
    #[inline]
    pub fn slot(&self, port: usize, vc: usize) -> usize {
        port * self.vcs + vc
    }

    /// The slots of the injection port's virtual channels.
    pub fn injection_slots(&self) -> std::ops::Range<usize> {
        self.injection_port() * self.vcs..self.inputs.len()
    }

    /// The router a flit leaving through network output port `port` arrives
    /// at, or `None` where the port does not exist.
    #[inline]
    pub fn downstream(&self, port: usize) -> Option<usize> {
        let index = self.neighbors[port];
        (index != NO_PORT).then_some(index as usize)
    }

    /// The router that feeds network input port `port` (and holds its
    /// credits): the neighbour in the opposite direction.
    #[inline]
    pub fn upstream(&self, port: usize) -> Option<usize> {
        self.downstream(port ^ 1)
    }

    /// The router owed a credit when a flit leaves input slot `slot`: the
    /// slot's upstream router, or `None` for an injection slot, which no
    /// link feeds.
    #[inline]
    pub fn upstream_of_slot(&self, slot: usize) -> Option<usize> {
        let port = slot / self.vcs;
        (port != self.injection_port()).then(|| {
            self.upstream(port).expect(
                "a flit in a network input slot arrived over that port's channel, \
                 so the port's upstream neighbour exists",
            )
        })
    }

    /// The switch allocator's round-robin pointer of output port `port`: the
    /// input slot that has priority there.
    #[inline]
    pub fn pointer(&self, port: usize) -> usize {
        usize::from(self.sa_pointer[port])
    }

    /// Moves the pointer of output port `port` past input slot `slot`, whose
    /// flit just crossed it.
    #[inline]
    pub(crate) fn advance_pointer(&mut self, port: usize, slot: usize) {
        // `new` bounds the slot count by `MAX_SLOTS`, so the next slot fits.
        self.sa_pointer[port] = ((slot + 1) % self.inputs.len()) as u16;
    }

    /// Number of 64-slot words of the slot masks.
    #[inline]
    pub fn occupancy_words(&self) -> usize {
        self.slot_masks.len()
    }

    /// The occupied input slots of mask word `w`, ascending. Walking every
    /// word visits the occupied slots in ascending slot order, like a scan
    /// of every slot; the iterator borrows nothing (see
    /// [`crate::active::ActiveSet::word_indices`]).
    #[inline]
    pub fn occupied_slots_in(&self, w: usize) -> WordIndices {
        WordIndices::new(w, self.slot_masks[w][OCCUPIED])
    }

    /// The input slots of mask word `w` whose front head flit awaits routing
    /// and VC allocation, ascending.
    #[inline]
    pub fn waiting_slots_in(&self, w: usize) -> WordIndices {
        WordIndices::new(w, self.slot_masks[w][WAITING])
    }

    /// The occupied input slots of mask word `w` that are not waiting and
    /// not creditless: their front flit is bound to a local sink or to an
    /// output VC with a credit. Ascending.
    #[inline]
    pub fn routed_slots_in(&self, w: usize) -> WordIndices {
        let [occupied, waiting, _, creditless] = self.slot_masks[w];
        WordIndices::new(w, occupied & !waiting & !creditless)
    }

    /// The input slots of mask word `w` bound to an output VC with no
    /// credit, ascending.
    #[cfg(test)]
    pub(crate) fn creditless_slots_in(&self, w: usize) -> WordIndices {
        WordIndices::new(w, self.slot_masks[w][CREDITLESS])
    }

    /// The input slots of mask word `w` whose blocked head keeps a routing
    /// decision, ascending.
    #[inline]
    pub fn kept_slots_in(&self, w: usize) -> WordIndices {
        WordIndices::new(w, self.slot_masks[w][KEPT])
    }

    /// True when input slot `slot` is in the occupancy mask.
    #[inline]
    pub fn is_occupied(&self, slot: usize) -> bool {
        self.slot_masks[slot / 64][OCCUPIED] & bit(slot) != 0
    }

    /// True when input slot `slot` is in the waiting-head mask.
    #[inline]
    pub fn is_waiting(&self, slot: usize) -> bool {
        self.slot_masks[slot / 64][WAITING] & bit(slot) != 0
    }

    /// True when input slot `slot` is in the credit mask.
    #[inline]
    pub(crate) fn is_creditless(&self, slot: usize) -> bool {
        self.slot_masks[slot / 64][CREDITLESS] & bit(slot) != 0
    }

    /// The kept decisions of the router's blocked heads, in ascending slot
    /// order: one per bit of the kept-decision mask.
    #[inline]
    pub fn kept_decisions(&self) -> &[KeptDecision] {
        &self.kept
    }

    /// The position in [`RouterState::kept_decisions`] of the decision kept
    /// by the head of input slot `slot`, or `None` if it keeps none: the
    /// number of kept slots below it.
    #[inline]
    pub(crate) fn kept_index(&self, slot: usize) -> Option<usize> {
        self.is_kept(slot).then(|| self.kept_rank(slot))
    }

    /// The number of kept slots below input slot `slot`.
    #[inline]
    fn kept_rank(&self, slot: usize) -> usize {
        let w = slot / 64;
        let below: u32 = self.slot_masks[..w]
            .iter()
            .map(|masks| masks[KEPT].count_ones())
            .sum();
        let in_word = self.slot_masks[w][KEPT] & (bit(slot) - 1);
        (below + in_word.count_ones()) as usize
    }

    /// The decision kept by the head of input slot `slot`, if any.
    #[cfg(test)]
    pub(crate) fn kept(&self, slot: usize) -> Option<&KeptDecision> {
        self.kept_index(slot).map(|i| &self.kept[i])
    }

    /// True when the waiting head of input slot `slot` keeps a decision.
    #[inline]
    pub(crate) fn is_kept(&self, slot: usize) -> bool {
        self.slot_masks[slot / 64][KEPT] & bit(slot) != 0
    }

    /// Entry `index` of the kept-decision store beside the output VCs,
    /// borrowed apart so that a retry can allocate from its candidates.
    #[inline]
    pub(crate) fn kept_and_outputs(
        &mut self,
        index: usize,
    ) -> (&mut KeptDecision, &mut [OutputVc]) {
        (&mut self.kept[index], &mut self.outputs)
    }

    /// The kept-decision store itself, for tests that plant a store the
    /// mask disagrees with.
    #[cfg(test)]
    pub(crate) fn kept_store_mut(&mut self) -> &mut Vec<KeptDecision> {
        &mut self.kept
    }

    /// Keeps `decision` for the waiting head of input slot `slot`, which
    /// keeps none yet.
    #[inline]
    pub(crate) fn keep(&mut self, slot: usize, decision: KeptDecision) {
        debug_assert!(self.kept_index(slot).is_none(), "slot {slot} keeps one");
        self.kept.insert(self.kept_rank(slot), decision);
        self.slot_masks[slot / 64][KEPT] |= bit(slot);
    }

    /// Whether an output VC of this router has become claimable since its
    /// last routing pass. Every kept decision failed after the last release,
    /// so while this is false every kept head must fail again.
    #[inline]
    pub fn released(&self) -> bool {
        self.released
    }

    /// Ends a routing pass: every decision the store still holds failed
    /// after the router's last release.
    #[inline]
    pub(crate) fn end_routing_pass(&mut self) {
        self.released = false;
    }

    /// Appends `flits` to the buffer of input slot `slot`, keeping the slot
    /// masks. Returns true when the router had no occupied slot before: it
    /// just became busy.
    #[inline]
    pub(crate) fn push_flits(&mut self, slot: usize, flits: WormRun) -> bool {
        let ivc = &mut self.inputs[slot];
        let was_empty = ivc.buffer.is_empty();
        ivc.buffer.extend(flits);
        if !was_empty || ivc.buffer.is_empty() {
            return false;
        }
        let was_idle = self.slot_masks.iter().all(|m| m[OCCUPIED] == 0);
        let masks = &mut self.slot_masks[slot / 64];
        masks[OCCUPIED] |= bit(slot);
        if ivc.waiting_head().is_some() {
            masks[WAITING] |= bit(slot);
        }
        was_idle
    }

    /// Takes the front flit of input slot `slot`, keeping the occupancy
    /// mask. The flag is true when that drained the router's last occupied
    /// slot: it just became idle. Only a routed flit moves, so a waiting
    /// head is never taken.
    #[inline]
    pub(crate) fn pop_flit(&mut self, slot: usize) -> Option<(Flit, bool)> {
        debug_assert!(!self.is_waiting(slot), "a waiting head does not move");
        let buffer = &mut self.inputs[slot].buffer;
        let flit = buffer.pop()?;
        if !buffer.is_empty() {
            return Some((flit, false));
        }
        self.slot_masks[slot / 64][OCCUPIED] &= !bit(slot);
        Some((flit, self.slot_masks.iter().all(|m| m[OCCUPIED] == 0)))
    }

    /// Binds input slot `slot`, whose head flit was waiting, to `route`: the
    /// head leaves the waiting-head mask and its kept decision, if any, goes.
    #[inline]
    pub(crate) fn bind(&mut self, slot: usize, route: VcRoute) {
        self.inputs[slot].route = Some(route);
        if let Some(index) = self.kept_index(slot) {
            self.kept.remove(index);
        }
        let masks = &mut self.slot_masks[slot / 64];
        masks[WAITING] &= !bit(slot);
        masks[KEPT] &= !bit(slot);
    }

    /// Unbinds input slot `slot` once its worm's tail flit has left it: the
    /// slot leaves the credit mask with its route.
    #[inline]
    pub(crate) fn unbind(&mut self, slot: usize) {
        let ivc = &mut self.inputs[slot];
        debug_assert!(ivc.buffer.is_empty(), "the tail is its worm's last flit");
        ivc.route = None;
        self.slot_masks[slot / 64][CREDITLESS] &= !bit(slot);
    }

    /// Spends a credit of output slot `out_slot` on a flit of input slot
    /// `slot`, its feeder. A flit other than the tail that spends the last
    /// credit puts the slot in the credit mask; after the tail the slot
    /// unbinds, which leaves it out.
    #[inline]
    pub(crate) fn send(&mut self, slot: usize, out_slot: usize, is_tail: bool) {
        let ovc = &mut self.outputs[out_slot];
        ovc.send(is_tail);
        if ovc.credits == 0 && !is_tail {
            self.slot_masks[slot / 64][CREDITLESS] |= bit(slot);
        }
    }

    /// Returns one credit to output slot `slot`. The first credit back to an
    /// owned VC that is not draining takes its feeder out of the credit mask.
    /// A draining VC that gets its last credit back has become claimable: the
    /// router has released one.
    #[inline]
    pub(crate) fn return_credit(&mut self, slot: usize, buffer_depth: usize) {
        let ovc = &mut self.outputs[slot];
        ovc.credits += 1;
        debug_assert!(
            ovc.credits() <= buffer_depth,
            "credit counter exceeded the buffer depth"
        );
        if ovc.draining {
            if ovc.credits() == buffer_depth {
                self.released = true;
            }
        } else if ovc.credits == 1 && ovc.owned {
            let feeder = usize::from(ovc.feeder);
            self.slot_masks[feeder / 64][CREDITLESS] &= !bit(feeder);
        }
    }

    /// Output port index for a hop along `dim` in direction `dir`.
    pub fn out_port(dim: usize, dir: Direction) -> usize {
        dim * 2 + dir.index()
    }

    /// `(dim, dir)` of an output (or network input) port index.
    pub fn port_dim_dir(port: usize) -> (usize, Direction) {
        (port / 2, Direction::from_index(port % 2))
    }

    /// True when the router holds no flits, no queued messages and no worm
    /// part-way into the local node.
    pub fn is_quiescent(&self) -> bool {
        self.inputs
            .iter()
            .all(|vc| vc.buffer.is_empty() && vc.sunk == 0)
            && self.source_queue.is_empty()
            && self.reinjection_queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_routing::OutputCandidate;

    fn router(net: &AnyTopology, node: u32, v: usize, depth: usize) -> RouterState {
        RouterState::new(net, NodeId(node), v, depth, false)
    }

    #[test]
    fn construction_and_slot_layout() {
        let torus = AnyTopology::torus(4, 2).unwrap();
        let r = router(&torus, 3, 4, 2);
        assert_eq!(r.num_net_ports(), 4);
        assert_eq!(r.injection_port(), 4);
        assert_eq!(r.vcs(), 4);
        assert_eq!(r.inputs.len(), 5 * 4);
        assert_eq!(r.outputs.len(), 4 * 4);
        assert_eq!(r.slot(0, 0), 0);
        assert_eq!(r.slot(2, 3), 11);
        assert_eq!(r.injection_slots(), 16..20);
        assert!(!r.is_faulty);
        assert!(r.is_quiescent());
    }

    #[test]
    fn neighbour_table_matches_the_topology() {
        for net in [
            AnyTopology::torus(4, 2).unwrap(),
            AnyTopology::mesh(4, 2).unwrap(),
            AnyTopology::fat_tree_new(2, 3).unwrap(),
        ] {
            let routers: Vec<RouterState> = net
                .nodes()
                .map(|node| RouterState::new(&net, node, 1, 1, false))
                .collect();
            for r in &routers {
                for port in 0..r.num_net_ports() {
                    let (dim, dir) = RouterState::port_dim_dir(port);
                    let over = net.neighbor(r.node, dim, dir).map(NodeId::index);
                    let back = net.neighbor(r.node, dim, dir.opposite()).map(NodeId::index);
                    assert_eq!(r.downstream(port), over);
                    assert_eq!(r.upstream(port), back);
                    assert_eq!(over.is_some(), net.has_channel(r.node, dim, dir));
                    // The slot index is shared by both ends of a link.
                    if let Some(down) = over {
                        assert_eq!(routers[down].upstream(port), Some(r.node.index()));
                    }
                }
            }
        }
        // A mesh corner lacks its two outward ports.
        let mesh = AnyTopology::mesh(4, 2).unwrap();
        let corner = router(&mesh, 0, 1, 1);
        let present = (0..corner.num_net_ports()).filter_map(|p| corner.downstream(p));
        assert_eq!(present.count(), 2);
    }

    #[test]
    fn port_index_roundtrip() {
        for dim in 0..3 {
            for dir in Direction::BOTH {
                let p = RouterState::out_port(dim, dir);
                assert_eq!(RouterState::port_dim_dir(p), (dim, dir));
                assert_eq!(
                    RouterState::port_dim_dir(p ^ 1),
                    (dim, dir.opposite()),
                    "flipping the low bit reverses the direction"
                );
            }
        }
    }

    #[test]
    fn output_vc_lazy_release() {
        let mut vc = OutputVc::new(2);
        assert!(vc.claimable(2) && vc.available(2));
        vc.claim(MessageId(1), 0);
        assert!(!vc.claimable(2) && !vc.available(2));
        // Tail sent, one credit still outstanding: not yet available, and
        // asking changes nothing.
        vc.send(true);
        assert_eq!(vc.credits(), 1);
        assert!(!vc.available(2));
        assert_eq!(vc.owner(), Some(MessageId(1)));
        assert!(vc.is_draining());
        // All credits back: claimable, and released lazily when asked.
        vc.credits += 1;
        assert!(vc.claimable(2));
        assert_eq!(vc.owner(), Some(MessageId(1)), "claimable() is pure");
        assert!(vc.available(2));
        assert_eq!(vc.owner(), None);
        assert!(!vc.is_draining());
    }

    #[test]
    fn input_vc_idle_tracking() {
        let mut vc = InputVc::default();
        assert!(vc.is_idle());
        vc.buffer.push(Flit::nth_of(MessageId(0), 0, 2));
        assert!(!vc.is_idle());
        assert_eq!(vc.waiting_head(), Some(MessageId(0)));
        vc.buffer.push(Flit::nth_of(MessageId(0), 1, 2));
        vc.buffer.pop();
        assert_eq!(vc.waiting_head(), None, "a tail flit is not a head");
        vc.buffer.clear();
        vc.route = Some(VcRoute {
            msg: MessageId(0),
            target: RouteTarget::Deliver,
            ready_at: 0,
        });
        assert!(!vc.is_idle());
        vc.buffer.push(Flit::nth_of(MessageId(0), 0, 2));
        assert_eq!(vc.waiting_head(), None, "a routed head no longer waits");
    }

    #[test]
    fn input_vc_stays_off_the_heap_and_small() {
        // Every stage reads input VCs; the buffer is a fixed-size worm run, a
        // route names its output in three bytes and stamps its cycle in four,
        // and a blocked head's candidates live in the router's kept-decision
        // store. A kept decision holds its candidates inline at six bytes
        // each.
        assert!(std::mem::size_of::<OutputCandidate>() <= 8);
        assert_eq!(std::mem::size_of::<Option<VcRoute>>(), 16);
        if cfg!(target_pointer_width = "64") {
            assert_eq!(std::mem::size_of::<WormRun>(), 24);
            assert!(std::mem::size_of::<InputVc>() <= 48);
            // The feeder slot fills the padding after the credit counter.
            assert_eq!(std::mem::size_of::<OutputVc>(), 16);
            assert!(std::mem::size_of::<KeptDecision>() <= 40);
            // A router state 8 bytes wider measured 15-20 % slower on a
            // fat-tree, in every stage; the slot masks live on the heap.
            assert!(std::mem::size_of::<RouterState>() <= 224);
        }
    }

    #[test]
    fn a_queued_message_costs_at_most_16_bytes() {
        // Source queues grow for the whole run past saturation; a record
        // holds a destination, a cycle stamp and a flag, and nothing that
        // grows with the pointer width.
        assert!(std::mem::size_of::<QueuedMessage>() <= 16);
    }

    /// Bytes of heap `r`'s vectors own: capacity times element size.
    fn heap_bytes(r: &RouterState) -> usize {
        fn owned<T>(capacity: usize) -> usize {
            capacity * std::mem::size_of::<T>()
        }
        owned::<u32>(r.neighbors.capacity())
            + owned::<InputVc>(r.inputs.capacity())
            + owned::<KeptDecision>(r.kept.capacity())
            + owned::<[u64; 4]>(r.slot_masks.capacity())
            + owned::<OutputVc>(r.outputs.capacity())
            + owned::<QueuedMessage>(r.source_queue.capacity())
            + owned::<ReinjectionEntry>(r.reinjection_queue.capacity())
            + owned::<u16>(r.sa_pointer.capacity())
    }

    #[test]
    fn a_fresh_router_owns_little_heap_and_no_kept_store() {
        // The paper's 8-ary 3-cube with four VCs: 28 input and 24 output
        // slots, six ports.
        let torus = AnyTopology::torus(8, 3).unwrap();
        let r = router(&torus, 0, 4, 2);
        assert_eq!((r.inputs.len(), r.outputs.len()), (28, 24));
        assert_eq!(r.kept.capacity(), 0);
        if cfg!(target_pointer_width = "64") {
            assert!(heap_bytes(&r) <= 1_900, "{} bytes", heap_bytes(&r));
        }
    }

    #[test]
    fn kept_decisions_are_ranked_by_slot_across_mask_words() {
        // 13 ports of 8 VCs: 104 input slots, two mask words.
        let net = AnyTopology::torus(4, 6).unwrap();
        let mut r = router(&net, 0, 8, 2);
        assert_eq!(r.occupancy_words(), 2);
        // Each slot's decision names the slot as its one candidate's VC.
        let decision = |slot: usize| KeptDecision {
            candidates: [OutputCandidate::new(0, Direction::Plus, slot..slot + 1)]
                .into_iter()
                .collect(),
        };
        let tag = |k: &KeptDecision| k.candidates[0].vcs().range().start;
        let slots = [70, 3, 100, 64, 63];
        for &slot in &slots {
            r.push_flits(slot, WormRun::whole(MessageId(slot as u64), 2));
            r.keep(slot, decision(slot));
        }
        // The store is in slot order, whatever order heads blocked in.
        let tags: Vec<usize> = r.kept_decisions().iter().map(tag).collect();
        assert_eq!(tags, [3, 63, 64, 70, 100]);
        for &slot in &slots {
            assert_eq!(r.kept(slot).map(tag), Some(slot));
        }
        assert_eq!(r.kept(4), None);
        let kept: Vec<usize> = (0..2).flat_map(|w| r.kept_slots_in(w)).collect();
        assert_eq!(kept, [3, 63, 64, 70, 100]);
        // Binding a head drops its entry and leaves the others' ranks right.
        let route = VcRoute::new(MessageId(64), RouteTarget::Deliver, 0);
        r.bind(64, route);
        assert_eq!(r.kept(64), None);
        assert_eq!(r.kept(70).map(tag), Some(70));
        assert_eq!(r.kept_decisions().len(), 4);
        // Binding a head that keeps nothing leaves the store alone.
        r.push_flits(5, WormRun::whole(MessageId(5), 2));
        r.bind(5, VcRoute::new(MessageId(5), RouteTarget::Deliver, 0));
        assert_eq!(r.kept_decisions().len(), 4);
    }

    #[test]
    fn route_stamps_saturate_past_u32() {
        let route = VcRoute::new(MessageId(1), RouteTarget::network(3, 2), 1 << 40);
        assert_eq!(route.ready_at, u32::MAX);
        assert_eq!(route.target.output(), Some((3, 2)));
        assert_eq!(RouteTarget::Absorb.output(), None);
        assert_eq!(stamp(u64::from(u32::MAX)), u32::MAX);
    }

    #[test]
    fn a_router_holding_flits_is_not_quiescent() {
        let torus = AnyTopology::torus(4, 2).unwrap();
        let mut r = router(&torus, 0, 2, 4);
        let (net_slot, injection_slot) = (r.slot(0, 1), r.slot(4, 0));
        r.inputs[net_slot]
            .buffer
            .push(Flit::nth_of(MessageId(0), 0, 2));
        r.inputs[injection_slot].buffer = WormRun::whole(MessageId(1), 3);
        assert!(!r.is_quiescent());
    }

    #[test]
    fn occupancy_mask_tracks_the_buffers() {
        let torus = AnyTopology::torus(4, 2).unwrap();
        let mut r = router(&torus, 0, 2, 4);
        let head = Flit::nth_of(MessageId(1), 0, 1);
        let walk = |r: &RouterState, slots_in: fn(&RouterState, usize) -> WordIndices| {
            (0..r.occupancy_words())
                .flat_map(|w| slots_in(r, w))
                .collect::<Vec<usize>>()
        };
        let occupied = |r: &RouterState| walk(r, RouterState::occupied_slots_in);
        let bind = |r: &mut RouterState, slot: usize, msg: u64| {
            let route = VcRoute {
                msg: MessageId(msg),
                target: RouteTarget::Deliver,
                ready_at: 0,
            };
            r.bind(slot, route);
        };
        assert!(occupied(&r).is_empty());
        // The first slot to fill makes the router busy, a second does not.
        // A head landing in an empty slot waits for routing.
        assert!(r.push_flits(7, WormRun::whole(MessageId(0), 2)));
        assert!(!r.push_flits(3, head.into()));
        assert!(
            !r.push_flits(4, WormRun::default()),
            "nothing pushed, nothing to report"
        );
        assert_eq!(occupied(&r), [3, 7]);
        assert!(r.is_occupied(7) && !r.is_occupied(4));
        assert_eq!(walk(&r, RouterState::waiting_slots_in), [3, 7]);
        assert!(walk(&r, RouterState::routed_slots_in).is_empty());
        // Binding a head takes it out of the waiting mask only.
        bind(&mut r, 7, 0);
        assert!(r.is_waiting(3) && !r.is_waiting(7));
        assert_eq!(walk(&r, RouterState::routed_slots_in), [7]);
        // A slot leaves the mask with its last flit; the last slot to drain
        // makes the router idle.
        assert_eq!(
            r.pop_flit(7).map(|(f, idle)| (f.seq, idle)),
            Some((0, false))
        );
        assert!(r.is_occupied(7));
        bind(&mut r, 3, 1);
        assert_eq!(r.pop_flit(3), Some((head, false)));
        assert_eq!(
            r.pop_flit(7).map(|(f, idle)| (f.seq, idle)),
            Some((1, true))
        );
        r.unbind(7);
        assert!(occupied(&r).is_empty());
        assert!(walk(&r, RouterState::waiting_slots_in).is_empty());
        assert!(r.inputs[7].is_idle());
        assert_eq!(r.pop_flit(7), None);
        // Body flits landing on a bound slot never wait.
        bind(&mut r, 5, 2);
        r.push_flits(5, Flit::nth_of(MessageId(2), 1, 3).into());
        assert!(r.is_occupied(5) && !r.is_waiting(5));
    }

    #[test]
    fn released_is_set_only_when_a_draining_vc_gets_its_last_credit() {
        let torus = AnyTopology::torus(4, 2).unwrap();
        let mut r = router(&torus, 0, 2, 2);
        let slot = r.slot(1, 1);
        r.outputs[slot].claim(MessageId(4), 0);
        r.outputs[slot].send(false);
        // Credits returning to an owned VC release nothing.
        r.return_credit(slot, 2);
        assert!(!r.released());
        // Once the tail is sent, only the last credit makes the VC claimable.
        r.outputs[slot].send(false);
        r.outputs[slot].send(true);
        r.return_credit(slot, 2);
        assert!(!r.outputs[slot].claimable(2) && !r.released());
        r.return_credit(slot, 2);
        assert!(r.outputs[slot].claimable(2));
        assert!(r.released());
        // The end of a routing pass clears the flag.
        r.end_routing_pass();
        assert!(!r.released());
    }

    #[test]
    fn the_credit_mask_holds_the_slots_whose_output_vc_has_no_credit() {
        let torus = AnyTopology::torus(4, 2).unwrap();
        let mut r = router(&torus, 0, 2, 2);
        let routed = |r: &RouterState| r.routed_slots_in(0).collect::<Vec<usize>>();
        let creditless = |r: &RouterState| r.creditless_slots_in(0).collect::<Vec<usize>>();
        // Moves the front flit of `slot` through output slot `out`.
        let send = |r: &mut RouterState, slot: usize, out: usize| {
            let (flit, _) = r.pop_flit(slot).unwrap();
            r.send(slot, out, flit.kind.is_tail());
            if flit.kind.is_tail() {
                r.unbind(slot);
            }
        };
        // Input slot 3 holds a three-flit worm bound to output slot 5.
        let (slot, out) = (3, r.slot(2, 1));
        let msg = MessageId(7);
        r.push_flits(slot, WormRun::whole(msg, 3));
        r.outputs[out].claim(msg, slot);
        r.bind(slot, VcRoute::new(msg, RouteTarget::network(2, 1), 0));
        assert_eq!(routed(&r), [slot]);
        // A flit that leaves a credit changes nothing; the head and body
        // spend the last one, which takes the slot out of the switch's walk.
        send(&mut r, slot, out);
        assert!(!r.is_creditless(slot));
        send(&mut r, slot, out);
        assert_eq!(creditless(&r), [slot]);
        assert!(routed(&r).is_empty() && r.is_occupied(slot));
        // The first credit back brings it back.
        r.return_credit(out, 2);
        assert!(creditless(&r).is_empty());
        assert_eq!(routed(&r), [slot]);
        // The tail spends the last credit without marking the slot, and the
        // slot unbinds.
        send(&mut r, slot, out);
        assert_eq!(r.outputs[out].credits(), 0);
        assert!(creditless(&r).is_empty() && r.inputs[slot].is_idle());
        // The slot takes a new worm bound elsewhere and runs out of credit
        // there. The draining VC's credits coming back leave it marked:
        // that VC is no longer its route.
        let (next, other) = (MessageId(8), r.slot(0, 0));
        r.push_flits(slot, WormRun::whole(next, 3));
        r.outputs[other].claim(next, slot);
        r.bind(slot, VcRoute::new(next, RouteTarget::network(0, 0), 0));
        send(&mut r, slot, other);
        send(&mut r, slot, other);
        assert_eq!(creditless(&r), [slot]);
        r.return_credit(out, 2);
        r.return_credit(out, 2);
        assert!(r.released() && r.outputs[out].claimable(2));
        assert_eq!(creditless(&r), [slot]);
        // Unbinding takes the slot out of the credit mask, whatever the
        // credits of the VC it was bound to.
        r.pop_flit(slot);
        r.unbind(slot);
        assert_eq!(r.outputs[other].credits(), 0);
        assert!(creditless(&r).is_empty());
    }

    #[test]
    fn a_part_sunk_worm_is_not_quiescent() {
        let torus = AnyTopology::torus(4, 2).unwrap();
        let mut r = router(&torus, 0, 2, 4);
        r.inputs[3].sunk = 5;
        assert!(r.inputs.iter().all(|vc| vc.buffer.is_empty()));
        assert!(!r.is_quiescent());
    }
}
