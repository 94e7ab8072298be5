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
//! Neighbour table: [`RouterState::neighbors`] holds, per network port, the
//! index of the router over that port's channel — the **downstream** router
//! of output port `p`, and (the topology's `neighbor` being involutive) the
//! **upstream** router of input port `p ^ 1`
//! ([`RouterState::downstream`], [`RouterState::upstream`]). It is read from
//! the topology once, when the engine is built; a `None` entry is a port that
//! does not physically exist (the outward ports at the edge of an open
//! dimension), whose VC state is allocated but never used.
//!
//! Slot masks: each router keeps two sets of its input slots in `u64` words
//! sized for its slot count, stored as one `[occupied, waiting]` pair per
//! word so that one load serves both.
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
//!
//! Routing and the stall watchdog visit the waiting slots only, switch
//! requests the occupied slots that are not waiting
//! ([`RouterState::routed_slots_in`]). The sanitizer checks both invariants
//! every cycle.
//!
//! Kept decisions: a head that fails VC allocation keeps its routing decision
//! ([`KeptDecision`]) in the router's table [`RouterState::blocked`], indexed
//! by input slot like [`RouterState::inputs`]. Only blocked heads have one, so
//! the table stays off the slot state every stage reads; `bind` clears the
//! slot's entry.
//!
//! Release epoch: [`RouterState::release_epoch`] counts the router's output
//! VCs that became claimable. The only event that makes one claimable is a
//! draining VC getting its last credit back (`return_credit`); claiming one,
//! or failing to, releases none. A blocked head records the epoch of its
//! failed allocation in its [`KeptDecision`]; while the epoch is unchanged
//! none of its candidate VCs can have become claimable, so the engine only
//! replays the attempt's RNG draws instead of repeating it.

use crate::active::WordIndices;
use crate::flit::{Flit, MessageId, WormRun};
use std::collections::VecDeque;
use torus_routing::Candidates;
use torus_topology::{AnyTopology, Direction, NodeId};

/// Index of the occupancy mask in a slot-mask word pair.
const OCCUPIED: usize = 0;
/// Index of the waiting-head mask in a slot-mask word pair.
const WAITING: usize = 1;

/// Where an input virtual channel is currently forwarding its flits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteTarget {
    /// Towards a network output port and virtual channel.
    Network {
        /// Output port index (`dim * 2 + dir.index()`).
        out_port: usize,
        /// Output virtual channel index.
        out_vc: usize,
    },
    /// Into the local node: deliver to the PE (final destination reached).
    Deliver,
    /// Into the local node: absorb and hand to the message-passing software
    /// for re-routing (Software-Based fault handling).
    Absorb,
}

/// Binding of an input virtual channel to the message currently crossing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcRoute {
    /// The message occupying the channel.
    pub msg: MessageId,
    /// Where its flits are being forwarded.
    pub target: RouteTarget,
    /// Earliest cycle flits may start moving (models the router decision time
    /// `Td`).
    pub ready_at: u64,
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
    pub last_progress: u64,
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

/// A blocked head's routing decision, kept in [`RouterState::blocked`] while
/// it waits for an output VC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeptDecision {
    /// The `Forward` candidates `route()` returned.
    pub candidates: Candidates,
    /// The router's [`RouterState::release_epoch`] at the failed allocation
    /// attempt. While it is unchanged, no candidate VC is claimable.
    pub epoch: u64,
}

/// Ownership state of one output virtual channel (the credit counter tracks
/// the free buffer slots of the corresponding downstream input VC).
#[derive(Clone, Debug)]
pub struct OutputVc {
    /// Message currently owning the VC (set from header acceptance until the
    /// downstream buffer has drained the tail flit).
    pub owner: Option<MessageId>,
    /// True once the tail flit has been sent; the VC is released lazily when
    /// all credits have returned (atomic VC reallocation).
    pub draining: bool,
    /// Remaining credits (free downstream buffer slots).
    pub credits: usize,
}

impl OutputVc {
    fn new(buffer_depth: usize) -> Self {
        OutputVc {
            owner: None,
            draining: false,
            credits: buffer_depth,
        }
    }

    /// True if a new message may claim this VC: it is unowned, or its last
    /// owner's tail has been sent and every credit has come back.
    #[inline]
    pub fn claimable(&self, buffer_depth: usize) -> bool {
        if self.draining {
            self.credits == buffer_depth
        } else {
            self.owner.is_none()
        }
    }

    /// [`OutputVc::claimable`], releasing a drained VC lazily. A VC that is
    /// not claimable is left untouched.
    #[inline]
    pub fn available(&mut self, buffer_depth: usize) -> bool {
        let claimable = self.claimable(buffer_depth);
        if claimable {
            self.owner = None;
            self.draining = false;
        }
        claimable
    }
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
    /// or `None` where the port does not physically exist (see the module
    /// docs).
    pub neighbors: Vec<Option<usize>>,
    /// Input virtual channels, slot `port * V + vc`: the `2n` network ports
    /// followed by the injection port.
    pub inputs: Vec<InputVc>,
    /// Per input slot, the routing decision of a front head flit that failed
    /// VC allocation, kept so the head is not re-routed every cycle it stays
    /// blocked. `None` once it wins, is absorbed by the watchdog, or the slot
    /// holds no waiting head.
    pub blocked: Vec<Option<KeptDecision>>,
    /// The occupancy and waiting-head masks, one `[OCCUPIED, WAITING]` pair
    /// per 64-slot word (see the module docs).
    slot_masks: Vec<[u64; 2]>,
    /// Output virtual channels of the `2n` network output ports, slot
    /// `port * V + vc`.
    pub outputs: Vec<OutputVc>,
    /// Output VCs that have become claimable so far (see the module docs).
    release_epoch: u64,
    /// Locally generated messages waiting to enter the network.
    pub source_queue: VecDeque<MessageId>,
    /// Absorbed messages re-routed by the software layer, waiting to re-enter
    /// the network; always served before `source_queue`.
    pub reinjection_queue: VecDeque<ReinjectionEntry>,
    /// Round-robin pointers of the switch allocator, one per output port,
    /// each an input slot.
    pub sa_pointer: Vec<usize>,
}

impl RouterState {
    /// Creates the router of `node` in `net` with `v` virtual channels per
    /// physical channel and the given flit-buffer depth, reading its
    /// neighbour table from the topology.
    pub fn new(
        net: &AnyTopology,
        node: NodeId,
        v: usize,
        buffer_depth: usize,
        is_faulty: bool,
    ) -> Self {
        let num_net_ports = 2 * net.dims();
        let neighbors = (0..num_net_ports)
            .map(|port| {
                let (dim, dir) = Self::port_dim_dir(port);
                net.neighbor(node, dim, dir).map(NodeId::index)
            })
            .collect();
        let num_slots = (num_net_ports + 1) * v;
        RouterState {
            node,
            is_faulty,
            vcs: v,
            neighbors,
            inputs: vec![InputVc::default(); num_slots],
            blocked: vec![None; num_slots],
            slot_masks: vec![[0; 2]; num_slots.div_ceil(64)],
            outputs: vec![OutputVc::new(buffer_depth); num_net_ports * v],
            release_epoch: 0,
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
        self.neighbors[port]
    }

    /// The router that feeds network input port `port` (and holds its
    /// credits): the neighbour in the opposite direction.
    #[inline]
    pub fn upstream(&self, port: usize) -> Option<usize> {
        self.neighbors[port ^ 1]
    }

    /// The router owed a credit when a flit leaves input slot `slot`: the
    /// slot's upstream router, or `None` for an injection slot, which no
    /// link feeds.
    #[inline]
    pub fn upstream_of_slot(&self, slot: usize) -> Option<usize> {
        let port = slot / self.vcs;
        (port != self.injection_port()).then(|| {
            self.upstream(port)
                .expect("flits only arrive over existing channels")
        })
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

    /// The occupied input slots of mask word `w` that are not waiting: their
    /// front flit is bound to a route. Ascending.
    #[inline]
    pub fn routed_slots_in(&self, w: usize) -> WordIndices {
        let [occupied, waiting] = self.slot_masks[w];
        WordIndices::new(w, occupied & !waiting)
    }

    /// True when input slot `slot` is in the occupancy mask.
    #[inline]
    pub fn is_occupied(&self, slot: usize) -> bool {
        self.slot_masks[slot / 64][OCCUPIED] & (1 << (slot % 64)) != 0
    }

    /// True when input slot `slot` is in the waiting-head mask.
    #[inline]
    pub fn is_waiting(&self, slot: usize) -> bool {
        self.slot_masks[slot / 64][WAITING] & (1 << (slot % 64)) != 0
    }

    /// Output VCs of this router that have become claimable so far: a
    /// blocked head whose failed attempt saw the same count cannot win.
    #[inline]
    pub fn release_epoch(&self) -> u64 {
        self.release_epoch
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
        let bit = 1 << (slot % 64);
        let masks = &mut self.slot_masks[slot / 64];
        masks[OCCUPIED] |= bit;
        if ivc.waiting_head().is_some() {
            masks[WAITING] |= bit;
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
        self.slot_masks[slot / 64][OCCUPIED] &= !(1 << (slot % 64));
        Some((flit, self.slot_masks.iter().all(|m| m[OCCUPIED] == 0)))
    }

    /// Binds input slot `slot`, whose head flit was waiting, to `route`: the
    /// head leaves the waiting-head mask and its kept decision, if any, goes.
    #[inline]
    pub(crate) fn bind(&mut self, slot: usize, route: VcRoute) {
        self.inputs[slot].route = Some(route);
        self.blocked[slot] = None;
        self.slot_masks[slot / 64][WAITING] &= !(1 << (slot % 64));
    }

    /// Unbinds input slot `slot` once its worm's tail flit has left it.
    #[inline]
    pub(crate) fn unbind(&mut self, slot: usize) {
        let ivc = &mut self.inputs[slot];
        debug_assert!(ivc.buffer.is_empty(), "the tail is its worm's last flit");
        ivc.route = None;
    }

    /// Returns one credit to output slot `slot`. A draining VC that gets its
    /// last credit back has become claimable: the release epoch advances.
    #[inline]
    pub(crate) fn return_credit(&mut self, slot: usize, buffer_depth: usize) {
        let ovc = &mut self.outputs[slot];
        ovc.credits += 1;
        debug_assert!(
            ovc.credits <= buffer_depth,
            "credit counter exceeded the buffer depth"
        );
        if ovc.draining && ovc.credits == buffer_depth {
            self.release_epoch += 1;
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
        assert_eq!(corner.neighbors.iter().flatten().count(), 2);
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
        vc.owner = Some(MessageId(1));
        assert!(!vc.claimable(2) && !vc.available(2));
        // Tail sent, one credit still outstanding: not yet available, and
        // asking changes nothing.
        vc.draining = true;
        vc.credits = 1;
        assert!(!vc.available(2));
        assert_eq!(vc.owner, Some(MessageId(1)));
        assert!(vc.draining);
        // All credits back: claimable, and released lazily when asked.
        vc.credits = 2;
        assert!(vc.claimable(2));
        assert_eq!(vc.owner, Some(MessageId(1)), "claimable() is pure");
        assert!(vc.available(2));
        assert_eq!(vc.owner, None);
        assert!(!vc.draining);
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
        // Every stage reads input VCs; the buffer is a fixed-size worm run and
        // a blocked head's candidates live in the router's kept-decision
        // table, so a slot is 80 bytes on a 64-bit target. A kept decision
        // holds its candidates inline at six bytes each, so a router's table
        // of them stays at 48 bytes a slot.
        assert!(std::mem::size_of::<OutputCandidate>() <= 8);
        if cfg!(target_pointer_width = "64") {
            assert_eq!(std::mem::size_of::<WormRun>(), 24);
            assert_eq!(std::mem::size_of::<InputVc>(), 80);
            assert!(std::mem::size_of::<Option<KeptDecision>>() <= 48);
        }
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
    fn release_epoch_counts_vcs_that_become_claimable() {
        let torus = AnyTopology::torus(4, 2).unwrap();
        let mut r = router(&torus, 0, 2, 2);
        let slot = r.slot(1, 1);
        r.outputs[slot].owner = Some(MessageId(4));
        r.outputs[slot].credits = 0;
        // Credits returning to an owned VC release nothing.
        r.return_credit(slot, 2);
        assert_eq!(r.release_epoch(), 0);
        // Once the tail is sent, the last credit makes the VC claimable.
        r.outputs[slot].draining = true;
        r.return_credit(slot, 2);
        assert!(r.outputs[slot].claimable(2));
        assert_eq!(r.release_epoch(), 1);
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
