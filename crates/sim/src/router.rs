//! Per-node router state: input/output virtual channels, source and
//! re-injection queues, local assembly buffers.
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

use crate::flit::{Flit, MessageId};
use std::collections::{HashMap, VecDeque};
use torus_routing::OutputCandidate;
use torus_topology::{Direction, NodeId};

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
    /// Flit FIFO (depth-bounded for network ports, unbounded for the injection
    /// port, which holds the whole message being injected).
    pub buffer: VecDeque<Flit>,
    /// Current binding, `None` while idle or awaiting routing/VC allocation.
    pub route: Option<VcRoute>,
    /// Cycle of the last forward progress (used by the stall watchdog).
    pub last_progress: u64,
    /// The `Forward` candidates of a front head flit that failed VC
    /// allocation, kept so the head is not re-routed every cycle it stays
    /// blocked. `None` once it wins, is absorbed by the watchdog, or the VC
    /// holds no waiting head.
    pub blocked: Option<Vec<OutputCandidate>>,
}

impl InputVc {
    /// True when the channel holds no flits and is not bound to a message.
    pub fn is_idle(&self) -> bool {
        self.buffer.is_empty() && self.route.is_none()
    }
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

    /// True if a new message may claim this VC, releasing a drained VC lazily.
    pub fn available(&mut self, buffer_depth: usize) -> bool {
        if self.draining && self.credits == buffer_depth {
            self.owner = None;
            self.draining = false;
        }
        self.owner.is_none() && !self.draining
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
    /// Which of the `2n` network ports physically exist. On a torus every
    /// port is present; at the edge of an open (mesh) dimension the outward
    /// port is absent — its VC state is allocated but never used (the VC
    /// allocation stage debug-asserts that no routing
    /// candidate targets an absent port).
    pub port_present: Vec<bool>,
    /// Input ports: `2n` network ports followed by the injection port. Each
    /// has `V` virtual channels.
    pub inputs: Vec<Vec<InputVc>>,
    /// Output virtual channels of the `2n` network output ports.
    pub outputs: Vec<Vec<OutputVc>>,
    /// Locally generated messages waiting to enter the network.
    pub source_queue: VecDeque<MessageId>,
    /// Absorbed messages re-routed by the software layer, waiting to re-enter
    /// the network; always served before `source_queue`.
    pub reinjection_queue: VecDeque<ReinjectionEntry>,
    /// Flits received locally per in-flight message (delivery / absorption
    /// assembly buffers).
    pub local_assembly: HashMap<MessageId, u32>,
    /// Round-robin pointers of the switch allocator, one per output port.
    pub sa_pointer: Vec<usize>,
}

impl RouterState {
    /// Creates the router of `node` for an `n`-dimensional network with `v`
    /// virtual channels per physical channel and the given flit-buffer depth.
    /// `port_present[p]` records whether network port `p` physically exists
    /// (pass `vec![true; 2 * n]` for a torus).
    pub fn new(
        node: NodeId,
        n: usize,
        v: usize,
        buffer_depth: usize,
        is_faulty: bool,
        port_present: Vec<bool>,
    ) -> Self {
        let num_net_ports = 2 * n;
        debug_assert_eq!(port_present.len(), num_net_ports);
        let inputs = (0..=num_net_ports)
            .map(|_| (0..v).map(|_| InputVc::default()).collect())
            .collect();
        let outputs = (0..num_net_ports)
            .map(|_| (0..v).map(|_| OutputVc::new(buffer_depth)).collect())
            .collect();
        RouterState {
            node,
            is_faulty,
            port_present,
            inputs,
            outputs,
            source_queue: VecDeque::new(),
            reinjection_queue: VecDeque::new(),
            local_assembly: HashMap::new(),
            sa_pointer: vec![0; num_net_ports],
        }
    }

    /// Number of network ports (`2n`).
    pub fn num_net_ports(&self) -> usize {
        self.outputs.len()
    }

    /// Index of the injection input port.
    pub fn injection_port(&self) -> usize {
        self.num_net_ports()
    }

    /// Output port index for a hop along `dim` in direction `dir`.
    pub fn out_port(dim: usize, dir: Direction) -> usize {
        dim * 2 + dir.index()
    }

    /// `(dim, dir)` of an output (or network input) port index.
    pub fn port_dim_dir(port: usize) -> (usize, Direction) {
        (port / 2, Direction::from_index(port % 2))
    }

    /// Total flits currently buffered in this router (all input VCs).
    pub fn buffered_flits(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|port| port.iter())
            .map(|vc| vc.buffer.len())
            .sum()
    }

    /// True when the router holds no flits, no queued messages and no
    /// in-flight local assembly.
    pub fn is_quiescent(&self) -> bool {
        self.buffered_flits() == 0
            && self.source_queue.is_empty()
            && self.reinjection_queue.is_empty()
            && self.local_assembly.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_port_layout() {
        let r = RouterState::new(NodeId(3), 2, 4, 2, false, vec![true; 4]);
        assert_eq!(r.num_net_ports(), 4);
        assert_eq!(r.injection_port(), 4);
        assert_eq!(r.inputs.len(), 5);
        assert_eq!(r.inputs[0].len(), 4);
        assert_eq!(r.outputs.len(), 4);
        assert!(!r.is_faulty);
        assert!(r.port_present.iter().all(|&p| p));
        assert!(r.is_quiescent());
    }

    #[test]
    fn port_index_roundtrip() {
        for dim in 0..3 {
            for dir in Direction::BOTH {
                let p = RouterState::out_port(dim, dir);
                assert_eq!(RouterState::port_dim_dir(p), (dim, dir));
            }
        }
    }

    #[test]
    fn output_vc_lazy_release() {
        let mut vc = OutputVc::new(2);
        assert!(vc.available(2));
        vc.owner = Some(MessageId(1));
        assert!(!vc.available(2));
        // Tail sent, one credit still outstanding: not yet available.
        vc.draining = true;
        vc.credits = 1;
        assert!(!vc.available(2));
        // All credits back: released lazily.
        vc.credits = 2;
        assert!(vc.available(2));
        assert_eq!(vc.owner, None);
        assert!(!vc.draining);
    }

    #[test]
    fn input_vc_idle_tracking() {
        let mut vc = InputVc::default();
        assert!(vc.is_idle());
        vc.buffer.push_back(Flit::nth_of(MessageId(0), 0, 1));
        assert!(!vc.is_idle());
        vc.buffer.clear();
        vc.route = Some(VcRoute {
            msg: MessageId(0),
            target: RouteTarget::Deliver,
            ready_at: 0,
        });
        assert!(!vc.is_idle());
    }

    #[test]
    fn buffered_flit_count() {
        let mut r = RouterState::new(NodeId(0), 2, 2, 4, false, vec![true; 4]);
        r.inputs[0][1]
            .buffer
            .push_back(Flit::nth_of(MessageId(0), 0, 2));
        r.inputs[4][0]
            .buffer
            .push_back(Flit::nth_of(MessageId(1), 0, 1));
        assert_eq!(r.buffered_flits(), 2);
        assert!(!r.is_quiescent());
    }
}
