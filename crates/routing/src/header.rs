//! Per-message routing state carried in the message header.

use std::fmt;
use std::hash::{Hash, Hasher};
use torus_topology::{AnyTopology, Direction, NodeId};

/// The two flavours of Software-Based routing evaluated in the paper.
///
/// In a fault-free network the deterministic flavour is identical to
/// dimension-order (e-cube) routing and the adaptive flavour is identical to
/// Duato's Protocol fully adaptive routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoutingFlavor {
    /// Deterministic (e-cube based) Software-Based routing.
    Deterministic,
    /// Fully adaptive (Duato's Protocol based) Software-Based routing.
    Adaptive,
}

impl RoutingFlavor {
    /// Short label used in result tables ("deterministic" / "adaptive").
    pub fn label(&self) -> &'static str {
        match self {
            RoutingFlavor::Deterministic => "deterministic",
            RoutingFlavor::Adaptive => "adaptive",
        }
    }
}

/// Number of via-chain entries a [`RouteHeader`] holds without allocating;
/// only a longer chain — in practice a rule-3 explicit path — spills to the
/// heap.
///
/// Chosen by measurement: over the full verify matrix 99.7 % of the 9.0 M
/// states the verifier expands carry a chain of at most 4 entries (99.0 % at
/// most 2), and every routed header of the `sim_faulted` benchmark workload
/// carries at most 2. Four is also the largest capacity at which the inline
/// storage is no larger than the `Vec` it spills to.
pub const VIA_INLINE: usize = 4;

/// Entries of the via chain stored inline after its front.
const REST_INLINE: usize = VIA_INLINE - 1;

/// Grid dimensions the per-dimension masks cover. Every grid dimension has
/// radix at least 2 and `Network::new` returns `TooManyNodes` once the node
/// count passes `u32::MAX`, so a grid has at most 31 dimensions; fat-trees
/// never set a per-dimension field.
const MAX_GRID_DIMS: usize = 31;

const _: () =
    assert!(2 * MAX_GRID_DIMS <= u64::BITS as usize && MAX_GRID_DIMS <= u32::BITS as usize);

/// The two-bit codes of [`RouteHeader::forced_dir`]; zero means "not forced".
const FORCED_PLUS: u64 = 0b01;
const FORCED_MINUS: u64 = 0b10;

/// Routing state carried in a message header.
///
/// Besides the destination this records everything the Software-Based scheme
/// rewrites when the message-passing software re-routes an absorbed message:
/// the chain of intermediate destinations, per-dimension direction overrides
/// (rule 1: "re-route in the same dimension in the opposite direction"), the
/// `faulted` flag that pins the message to deterministic routing after its
/// first fault encounter, and the remaining misroute budget that bounds
/// livelock.
///
/// # Representation
///
/// A header is plain fixed-size data unless its via chain is longer than
/// [`VIA_INLINE`], so the clones the verifier makes per transition and the
/// header the engine makes per message allocate nothing:
///
/// * the via chain keeps its current target apart and the `VIA_INLINE - 1`
///   targets after it in an inline stack, which spills to a `Vec` only when
///   it overflows;
/// * the rule-1 forced directions take two bits per dimension of a `u64` and
///   the dateline-crossing flags one bit per dimension of a `u32`, behind
///   [`RouteHeader::forced_dir`] and [`RouteHeader::crossed_dateline`].
///
/// Equality and hashing follow the via chain as a sequence, not its storage:
/// a chain that spilled and shrank back equals, and hashes as, the same chain
/// that never spilled. The verifier's intern table keys states on this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteHeader {
    /// Node that generated the message.
    pub source: NodeId,
    /// Final destination (the node whose PE must receive the message).
    pub final_dest: NodeId,
    /// Chain of routing targets; its front is the node routing currently
    /// aims for, its back is always [`RouteHeader::final_dest`].
    via: ViaChain,
    /// Flavour the message was injected with.
    pub flavor: RoutingFlavor,
    /// Set once the message has encountered a fault; from then on it is
    /// routed deterministically (Section 4 of the paper).
    pub faulted: bool,
    /// Bits `2d..2d+2` hold dimension `d`'s forced direction
    /// (`FORCED_PLUS` / `FORCED_MINUS`, zero when not forced).
    forced: u64,
    /// Bit `d` is set once the current traversal crossed dimension `d`'s
    /// dateline.
    crossed: u32,
    /// Number of times this message has been absorbed due to faults.
    pub absorptions: u32,
    /// Remaining misroute budget before the software layer computes an
    /// explicit fault-free path (guaranteeing livelock freedom).
    pub misroute_budget: u32,
    /// Total network hops taken so far (across all injections).
    pub hops: u32,
    /// True once the software layer has installed an explicit fault-free path
    /// (rule 3); such a message needs no further re-routing.
    pub escorted: bool,
}

impl RouteHeader {
    /// Creates the header of a freshly generated message on a topology with
    /// `dims` port pairs per node.
    pub fn new(dims: usize, source: NodeId, dest: NodeId, flavor: RoutingFlavor) -> Self {
        RouteHeader {
            source,
            final_dest: dest,
            via: ViaChain::to(dest),
            flavor,
            faulted: false,
            forced: 0,
            crossed: 0,
            absorptions: 0,
            misroute_budget: default_misroute_budget(dims),
            hops: 0,
            escorted: false,
        }
    }

    /// The node routing is currently aiming for (an intermediate destination
    /// or the final destination).
    pub fn target(&self) -> NodeId {
        self.via.front
    }

    /// Number of intermediate destinations still ahead (excluding the final
    /// destination).
    pub fn pending_via(&self) -> usize {
        self.via.rest.as_slice().len()
    }

    /// Called when the header reaches its current target: advances to the next
    /// via node. Returns `true` if the message has arrived at its final
    /// destination and must be delivered.
    pub fn advance_target(&mut self, at: NodeId) -> bool {
        debug_assert_eq!(at, self.target());
        match self.via.rest.pop() {
            Some(next) => {
                self.via.front = next;
                false
            }
            None => true,
        }
    }

    /// Replaces the whole via chain (software re-route, rule 3) with `chain`
    /// followed by the final destination, which is appended unless `chain`
    /// already ends with it. Allocates at most once, and only for a chain
    /// longer than [`VIA_INLINE`].
    pub fn set_via_chain(&mut self, chain: &[NodeId]) {
        let dest = self.final_dest;
        let chain = chain.strip_suffix(&[dest]).unwrap_or(chain);
        self.via = match chain.split_first() {
            None => ViaChain::to(dest),
            Some((&front, after)) => ViaChain {
                front,
                rest: Stack::new(dest, after),
            },
        };
    }

    /// Prepends one intermediate destination before the current target
    /// (software re-route, rule 2: orthogonal detour).
    pub fn push_intermediate(&mut self, node: NodeId) {
        if self.via.front != node {
            self.via.rest.push(self.via.front);
            self.via.front = node;
        }
    }

    /// The direction rule 1 forced in `dim`, if any. A forced dimension is
    /// routed non-minimally in that direction until its offset towards the
    /// current target reaches zero.
    pub fn forced_dir(&self, dim: usize) -> Option<Direction> {
        match (self.forced >> (2 * dim)) & 0b11 {
            0 => None,
            FORCED_PLUS => Some(Direction::Plus),
            _ => Some(Direction::Minus),
        }
    }

    /// Installs (`Some`) or releases (`None`) the forced direction of the
    /// grid dimension `dim`.
    pub fn set_forced_dir(&mut self, dim: usize, dir: Option<Direction>) {
        debug_assert!(dim < MAX_GRID_DIMS, "grids have at most 31 dimensions");
        let code = match dir {
            None => 0,
            Some(Direction::Plus) => FORCED_PLUS,
            Some(Direction::Minus) => FORCED_MINUS,
        };
        self.forced = (self.forced & !(0b11 << (2 * dim))) | (code << (2 * dim));
    }

    /// Releases every forced direction.
    pub fn clear_forced(&mut self) {
        self.forced = 0;
    }

    /// Whether the current network traversal crossed the dateline of `dim`;
    /// selects the dateline virtual-channel class. False past the grid bound:
    /// a fat-tree's port index `dim` reaches its arity, and no crossing is
    /// ever recorded there.
    pub fn crossed_dateline(&self, dim: usize) -> bool {
        dim < MAX_GRID_DIMS && (self.crossed >> dim) & 1 != 0
    }

    /// Records that the current traversal crossed the dateline of the grid
    /// dimension `dim`.
    pub fn set_crossed_dateline(&mut self, dim: usize) {
        debug_assert!(dim < MAX_GRID_DIMS, "grids have at most 31 dimensions");
        self.crossed |= 1 << dim;
    }

    /// Resets the per-traversal state when the message is (re-)injected into
    /// the network: a re-injected message starts a fresh traversal, so its
    /// dateline-crossing flags are cleared.
    pub fn reset_for_injection(&mut self) {
        self.crossed = 0;
    }

    /// Whether the message must currently be routed deterministically: either
    /// it was injected deterministic, or it has already encountered a fault.
    pub(crate) fn is_deterministic(&self) -> bool {
        self.faulted || self.flavor == RoutingFlavor::Deterministic
    }

    /// Records that the header moved one hop along `dim` in direction `dir`
    /// from ring position `from_pos`, updating dateline and forced-direction
    /// bookkeeping. Datelines and forced-direction release are grid concepts;
    /// on indirect topologies only the hop counter advances.
    pub fn note_hop(&mut self, net: &AnyTopology, from: NodeId, dim: usize, dir: Direction) {
        self.hops += 1;
        if let Some(grid) = net.grid() {
            self.note_grid_bookkeeping(grid, from, dim, dir);
        }
    }

    /// The grid-specific part of [`RouteHeader::note_hop`], usable directly by
    /// analyses that walk a [`Network`](torus_topology::Network) (the CDG
    /// builders). Does **not** advance the hop counter.
    pub(crate) fn note_grid_bookkeeping(
        &mut self,
        grid: &torus_topology::Network,
        from: NodeId,
        dim: usize,
        dir: Direction,
    ) {
        let from_pos = grid.position(from, dim);
        if grid.crosses_dateline(dim, from_pos, dir) {
            self.set_crossed_dateline(dim);
        }
        // A forced (non-minimal) dimension is released as soon as the offset
        // towards the current target is nullified.
        if self.forced_dir(dim).is_some() {
            let next = grid
                .neighbor(from, dim, dir)
                .expect("a recorded hop always crosses an existing channel");
            if grid.offset(next, self.target(), dim) == 0 {
                self.set_forced_dir(dim, None);
            }
        }
    }
}

/// Hashes every field the derived `Eq` compares, packed into five words, then
/// the via chain after its front two nodes to a word: headers that compare
/// equal write the same words. The verifier hashes a header per transition it
/// interns, and one write per word is what a word hasher pays for.
impl Hash for RouteHeader {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let rest = self.via.rest.as_slice();
        let flags = u64::from(self.flavor == RoutingFlavor::Adaptive)
            | u64::from(self.faulted) << 1
            | u64::from(self.escorted) << 2;
        state.write_u64(u64::from(self.source.0) | u64::from(self.final_dest.0) << 32);
        state.write_u64(u64::from(self.via.front.0) | flags << 32 | (rest.len() as u64) << 35);
        state.write_u64(self.forced);
        state.write_u64(u64::from(self.crossed) | u64::from(self.absorptions) << 32);
        state.write_u64(u64::from(self.misroute_budget) | u64::from(self.hops) << 32);
        for pair in rest.chunks(2) {
            let high = pair.get(1).map_or(0, |node| u64::from(node.0) << 32);
            state.write_u64(u64::from(pair[0].0) | high);
        }
    }
}

/// The via chain: never empty, because its front is a field of its own.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ViaChain {
    /// The current routing target.
    front: NodeId,
    /// The targets after `front`, next target on top, final destination at
    /// the bottom.
    rest: Stack,
}

impl ViaChain {
    /// The chain holding `dest` alone.
    fn to(dest: NodeId) -> Self {
        ViaChain {
            front: dest,
            rest: Stack::EMPTY,
        }
    }
}

/// A stack of nodes that holds [`REST_INLINE`] of them inline and moves to
/// the heap on overflow. Equality and `Debug` see only the stacked nodes,
/// whatever the storage and whatever an inline slot held before, and so does
/// `RouteHeader`'s hash.
#[derive(Clone)]
enum Stack {
    /// `nodes[..len]`, bottom first.
    Inline {
        len: u8,
        nodes: [NodeId; REST_INLINE],
    },
    /// Bottom first.
    Spilled(Vec<NodeId>),
}

impl Stack {
    const EMPTY: Stack = Stack::Inline {
        len: 0,
        nodes: [NodeId(0); REST_INLINE],
    };

    /// The stack holding `bottom` with `above` on it, `above[0]` on top,
    /// allocated at most once.
    fn new(bottom: NodeId, above: &[NodeId]) -> Stack {
        let mut stack = if above.len() < REST_INLINE {
            Stack::EMPTY
        } else {
            Stack::Spilled(Vec::with_capacity(above.len() + 1))
        };
        stack.push(bottom);
        for &node in above.iter().rev() {
            stack.push(node);
        }
        stack
    }

    fn as_slice(&self) -> &[NodeId] {
        match self {
            Stack::Inline { len, nodes } => &nodes[..usize::from(*len)],
            Stack::Spilled(nodes) => nodes,
        }
    }

    fn push(&mut self, node: NodeId) {
        match self {
            Stack::Inline { len, nodes } if usize::from(*len) < REST_INLINE => {
                nodes[usize::from(*len)] = node;
                *len += 1;
            }
            Stack::Inline { nodes, .. } => {
                let mut spilled = Vec::with_capacity(2 * VIA_INLINE);
                spilled.extend_from_slice(nodes);
                spilled.push(node);
                *self = Stack::Spilled(spilled);
            }
            Stack::Spilled(nodes) => nodes.push(node),
        }
    }

    fn pop(&mut self) -> Option<NodeId> {
        match self {
            Stack::Inline { len: 0, .. } => None,
            Stack::Inline { len, nodes } => {
                *len -= 1;
                Some(nodes[usize::from(*len)])
            }
            Stack::Spilled(nodes) => nodes.pop(),
        }
    }
}

impl PartialEq for Stack {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Stack {}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Default misroute budget: allows a message to be re-routed by the simple
/// table rules a couple of times per dimension before the software layer
/// computes an explicit fault-free path. `4 + 2n` absorptions is far more than
/// the fault patterns of the paper ever require, yet small enough to bound
/// worst-case livelock tightly. (On a fat-tree `n` is the switch arity, so
/// the budget scales with the number of alternate parents.)
pub(crate) fn default_misroute_budget(dims: usize) -> u32 {
    4 + 2 * dims as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_topology::{Network, NetworkError};

    fn torus() -> AnyTopology {
        AnyTopology::torus(8, 2).unwrap()
    }

    fn node(t: &AnyTopology, digits: &[u16]) -> NodeId {
        t.grid().unwrap().node_from_digits(digits).unwrap()
    }

    #[test]
    fn new_header_targets_final_destination() {
        let t = torus();
        let h = RouteHeader::new(t.dims(), NodeId(0), NodeId(9), RoutingFlavor::Adaptive);
        assert_eq!(h.target(), NodeId(9));
        assert_eq!(h.pending_via(), 0);
        assert!(!h.faulted);
        assert!(!h.is_deterministic());
        assert_eq!(h.absorptions, 0);
    }

    #[test]
    fn deterministic_flavor_is_always_deterministic() {
        let t = torus();
        let h = RouteHeader::new(t.dims(), NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        assert!(h.is_deterministic());
        let mut h = RouteHeader::new(t.dims(), NodeId(0), NodeId(9), RoutingFlavor::Adaptive);
        h.faulted = true;
        assert!(h.is_deterministic());
    }

    #[test]
    fn advance_target_walks_the_via_chain() {
        let t = torus();
        let mut h = RouteHeader::new(t.dims(), NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        h.push_intermediate(NodeId(3));
        assert_eq!(h.target(), NodeId(3));
        assert_eq!(h.pending_via(), 1);
        assert!(!h.advance_target(NodeId(3)));
        assert_eq!(h.target(), NodeId(9));
        assert!(h.advance_target(NodeId(9)));
    }

    #[test]
    fn push_intermediate_ignores_duplicate_target() {
        let t = torus();
        let mut h = RouteHeader::new(t.dims(), NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        h.push_intermediate(NodeId(9));
        assert_eq!(h.pending_via(), 0);
    }

    #[test]
    fn set_via_chain_appends_final_destination() {
        let t = torus();
        let mut h = RouteHeader::new(t.dims(), NodeId(0), NodeId(9), RoutingFlavor::Deterministic);
        h.set_via_chain(&[NodeId(1), NodeId(2)]);
        assert_eq!(h.target(), NodeId(1));
        assert_eq!(h.pending_via(), 2);
        h.set_via_chain(&[NodeId(5), NodeId(9)]);
        assert_eq!(h.pending_via(), 1);
        h.set_via_chain(&[]);
        assert_eq!(h.target(), NodeId(9));
        assert_eq!(h.pending_via(), 0);
    }

    #[test]
    fn note_hop_tracks_datelines_and_hops() {
        let t = torus();
        let src = node(&t, &[7, 0]);
        let mut h = RouteHeader::new(
            t.dims(),
            src,
            node(&t, &[1, 0]),
            RoutingFlavor::Deterministic,
        );
        assert!(!h.crossed_dateline(0));
        h.note_hop(&t, src, 0, Direction::Plus); // 7 -> 0 crosses the dateline
        assert!(h.crossed_dateline(0));
        assert!(!h.crossed_dateline(1));
        assert_eq!(h.hops, 1);
    }

    #[test]
    fn forced_direction_released_when_offset_nullified() {
        let t = torus();
        let src = node(&t, &[3, 0]);
        let dest = node(&t, &[4, 0]);
        let mut h = RouteHeader::new(t.dims(), src, dest, RoutingFlavor::Deterministic);
        // Force the "wrong way round" in dimension 0.
        h.set_forced_dir(0, Some(Direction::Minus));
        // Walk 3 -> 2 -> 1 -> 0 -> 7 -> 6 -> 5 -> 4 the long way (7 hops); the
        // override must persist until the hop that lands on the target column.
        let mut cur = src;
        for _ in 0..7 {
            assert_eq!(h.forced_dir(0), Some(Direction::Minus));
            h.note_hop(&t, cur, 0, Direction::Minus);
            cur = t.neighbor(cur, 0, Direction::Minus).unwrap();
        }
        assert_eq!(cur, dest);
        assert_eq!(h.forced_dir(0), None);
    }

    #[test]
    fn reset_for_injection_clears_dateline_flags() {
        let t = torus();
        let mut h = RouteHeader::new(t.dims(), NodeId(0), NodeId(20), RoutingFlavor::Adaptive);
        h.set_crossed_dateline(1);
        h.hops = 5;
        h.reset_for_injection();
        assert!(!h.crossed_dateline(1));
        assert_eq!(h.hops, 5, "hop count persists across re-injection");
    }

    #[test]
    fn misroute_budget_scales_with_dimensionality() {
        let budget = |net: AnyTopology| default_misroute_budget(net.dims());
        assert_eq!(budget(AnyTopology::torus(8, 2).unwrap()), 8);
        assert_eq!(budget(AnyTopology::torus(8, 3).unwrap()), 10);
        // Fat-tree: dims == arity, so budget scales with parent fan-out.
        assert_eq!(budget(AnyTopology::fat_tree_new(4, 2).unwrap()), 12);
    }

    #[test]
    fn masks_cover_the_largest_grid() {
        // 32 binary dimensions already overflow the node-id space, so 31 is
        // the most dimensions a grid (and so a header mask) ever has.
        assert_eq!(
            Network::hypercube(32).unwrap_err(),
            NetworkError::TooManyNodes
        );
        let hc = AnyTopology::hypercube(31).unwrap();
        let far = NodeId(1 << 30);
        let mut h = RouteHeader::new(hc.dims(), NodeId(0), far, RoutingFlavor::Deterministic);
        h.set_forced_dir(30, Some(Direction::Plus));
        h.set_crossed_dateline(30);
        assert_eq!(h.forced_dir(30), Some(Direction::Plus));
        assert_eq!(h.forced_dir(29), None);
        assert!(h.crossed_dateline(30) && !h.crossed_dateline(29));
        // The hop along dimension 30 nullifies the offset and releases it.
        h.note_hop(&hc, NodeId(0), 30, Direction::Plus);
        assert_eq!(h.forced_dir(30), None);
        h.set_forced_dir(30, Some(Direction::Minus));
        h.clear_forced();
        assert_eq!(h.forced_dir(30), None);
        h.reset_for_injection();
        assert!(!h.crossed_dateline(30));
    }

    #[test]
    fn fat_tree_ports_past_the_grid_bound_never_crossed_a_dateline() {
        // ft:33,1 has port indices 0..33, two past the mask's 31 dimensions.
        let ft = AnyTopology::fat_tree_new(33, 1).unwrap();
        let h = RouteHeader::new(
            ft.dims(),
            NodeId(0),
            NodeId(32),
            RoutingFlavor::Deterministic,
        );
        assert!((0..33).all(|port| !h.crossed_dateline(port)));
    }

    #[test]
    fn inline_stack_is_no_larger_than_its_spill() {
        assert_eq!(
            std::mem::size_of::<Stack>(),
            std::mem::size_of::<Vec<NodeId>>()
        );
    }
}
