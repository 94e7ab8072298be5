//! # torus-sim
//!
//! A flit-level simulator of wormhole-switched multidimensional networks
//! (tori, meshes, hypercubes and mixed-radix shapes, selected by
//! [`torus_topology::TopologySpec`]) with virtual channels, faithful to the
//! simulation model of Safaei et al. (IPDPS 2006), Section 5:
//!
//! * each node couples a processing element (PE) to a router with up to `2n`
//!   network input/output channel pairs plus injection and ejection channels
//!   (edge nodes of open/mesh dimensions lack the outward ports);
//! * every physical channel carries `V` virtual channels, each with its own
//!   flit buffer, sharing the physical link bandwidth (one flit per physical
//!   channel per cycle);
//! * messages are split into flits; the header flit carries the routing state
//!   and data flits follow it in a pipelined fashion (wormhole switching);
//! * routing decisions, virtual-channel selection and deadlock avoidance are
//!   delegated to a [`torus_routing::RoutingAlgorithm`] — in this repository
//!   the Software-Based fault-tolerant algorithm (deterministic and adaptive
//!   flavours) and the negative-first turn model for open topologies; an
//!   algorithm that cannot operate on the configured topology is rejected at
//!   construction time with a typed error
//!   ([`SimConfigError::UnsupportedRouting`]), and the blocked output
//!   reported to the software layer at absorption time comes from the
//!   algorithm's own deterministic layer
//!   ([`torus_routing::RoutingAlgorithm::deterministic_output`]);
//! * when the routing algorithm decides to **absorb** a message (its useful
//!   outputs lead to faulty components), the whole worm is drained into the
//!   local node, handed to the message-passing software, re-routed and
//!   re-injected with priority over locally generated messages — the
//!   Software-Based fault-tolerance mechanism;
//! * per-node traffic sources (Poisson arrivals, uniform destinations, fixed
//!   message length) come from `torus-workloads`, statistics from
//!   `torus-metrics`.
//!
//! The main entry point is [`Simulation`]: build it from a [`SimConfig`],
//! call `run` and read the resulting [`torus_metrics::SimulationReport`].
//!
//! # One pipeline, two schedulers
//!
//! [`Engine`] (`network`) defines the pipeline — the seven stages, the
//! constructor and `run`/`step` — exactly once, generic over a [`Schedule`]
//! (`schedule`) that decides *which routers each stage visits* and *how
//! messages are stored*:
//!
//! * [`Simulation`] = `Engine` under [`ActiveSchedule`]: an arrival calendar,
//!   active-set worklists keyed on each router's input-occupancy mask, a
//!   deadline-driven watchdog and a message table that reclaims retired
//!   entries;
//! * [`ReferenceSimulation`] = `Engine` under [`FullScan`] (`reference`):
//!   every healthy source and router every cycle, an append-only table. It is
//!   the executable specification of what the active schedule may change, and
//!   the equivalence suite holds the two to bit-identical reports.
//!
//! The engine's second static seam is its [`Observer`] (`observer`):
//! `Engine::new` builds it under [`NoObserver`], which costs nothing;
//! `Engine::with_observer` takes any other. Two ship: the invariant-checking
//! [`sanitizer::Sanitizer`], which audits conservation invariants every cycle
//! and checks the runtime wait-for graph against a statically extracted exact
//! channel-dependency graph, and the [`StageTimer`], which accumulates host
//! time per pipeline [`Stage`].

mod active;
mod arbiter;
mod config;
mod flit;
mod message;
mod network;
mod observer;
mod reference;
pub mod router;
mod sanitizer;
mod schedule;

pub use config::{SimConfig, SimConfigError, StopCondition};
pub use flit::{Flit, FlitKind, MessageId, WormRun};
pub use message::{MessageLookup, MessageSlab, MessageState};
pub use network::{Engine, RunOutcome, Simulation};
pub use observer::{Allocation, NoObserver, Observer, Stage, StageTimer};
pub use reference::{FullScan, ReferenceSimulation};
pub use sanitizer::{InvariantViolation, Sanitizer};
pub use schedule::{ActiveSchedule, MessageTable, Schedule};
