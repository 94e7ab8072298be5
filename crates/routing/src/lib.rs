//! # torus-routing
//!
//! Routing for wormhole-switched multidimensional networks — tori, meshes,
//! hypercubes and mixed-radix shapes, plus k-ary l-level fat-trees —
//! implementing the algorithms evaluated by Safaei et al. (IPDPS 2006).
//!
//! The crate's routing function is [`AnyRouting`] (`swbased`): the paper's
//! **Software-Based** fault-tolerant scheme, extended from 2-D (Suh et al.,
//! IEEE TPDS 2000) to n dimensions, as one software layer over a
//! deadlock-free [`Substrate`]. In the absence of faults it routes exactly
//! like its substrate (deterministic flavour) or like the substrate's
//! adaptive extension with the substrate as escape layer (adaptive flavour);
//! when a message's outgoing channel leads to a faulty component the message
//! is *absorbed* at the local node, its header is rewritten by the
//! message-passing software (same dimension opposite direction first, then an
//! orthogonal detour, finally an explicit fault-free intermediate-node path),
//! and it is re-injected with priority. Once faulted, a message stays
//! deterministic. The substrates:
//!
//! * **Dimension-order (e-cube) routing** ([`ecube`]) — the deterministic
//!   baseline (Dally & Seitz) on every grid, made deadlock-free on wrapped
//!   dimensions with two dateline virtual-channel classes; open (mesh)
//!   dimensions need no split and may use the whole VC pool. Its adaptive
//!   flavour is **Duato's Protocol (DP)** (`adaptive`): minimal adaptive
//!   routing over the adaptive virtual channels with an e-cube escape layer.
//! * **Turn-model routing** (`turnmodel`) — the classic low-VC alternative
//!   on open (non-wrap) grids: deadlock freedom via prohibited turns instead
//!   of dateline channel classes, under one of three [`TurnRule`]s
//!   (negative-first, west-first or north-last); one VC suffices
//!   deterministic, two adaptive.
//! * **Up*/down* routing** (`updown`) — the standard deadlock-free scheme
//!   for the indirect fat-trees the topology crate also models: climb to a
//!   common ancestor, then descend; the adaptive flavour takes any live
//!   parent. On a fat-tree a dead up-link re-ascends through an alternate
//!   parent, a dead down-link falls back to an explicit fault-free path.
//!
//! Each substrate runs only on the topologies it is deadlock free on; the
//! others are rejected with a typed [`RoutingTopologyError`].
//!
//! **Channel-dependency-graph analysis** ([`cdg`]) builds the extended CDG
//! of the deterministic / escape layer and verifies acyclicity, the
//! deadlock-freedom argument of Section 4 of the paper (and, on meshes, that
//! a single VC class suffices: the dateline VC is only needed where a
//! dimension wraps). The turn-rule CDG does the same for the turn-model
//! substrates, and [`cdg::DependencyGraph::find_cycle`] extracts a concrete
//! cycle witness when acyclicity fails.
//!
//! The simulator and the verifier drive an [`AnyRouting`] through the
//! [`RoutingAlgorithm`] interface: `route` for head-flit routing decisions,
//! `note_hop` for header bookkeeping as flits advance, and `reroute_on_fault`
//! for the software layer's header rewrite at absorption time.

mod adaptive;
pub mod cdg;
mod decision;
pub mod ecube;
pub mod hash;
pub mod header;
mod swbased;
#[cfg(test)]
mod testkit;
mod turnmodel;
mod updown;

pub use cdg::{DependencyGraph, TurnRule};
pub use decision::{
    Candidates, OutputCandidate, RouteDecision, VcRange, CANDIDATES_INLINE, MAX_VIRTUAL_CHANNELS,
};
pub use header::{RouteHeader, RoutingFlavor};
pub use swbased::{AnyRouting, RoutingAlgorithm, RoutingTopologyError, Substrate};
