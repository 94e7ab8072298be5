//! # torus-faults
//!
//! Fault models and fault-pattern generators for mixed-radix multidimensional
//! networks (tori, meshes, hypercubes), following Section 3 of Safaei et al.
//! (IPDPS 2006):
//!
//! * **Node failures** — an entire processing element and its router fail; all
//!   physical links and virtual channels incident on the node are also marked
//!   faulty at adjacent routers.
//! * **Link failures** — a single physical link (both directions) fails; the
//!   paper models a link failure as the failure of its two end nodes, but the
//!   fault set supports genuine link faults too.
//! * **Fault regions** — adjacent faulty nodes coalesce into regions that may
//!   be *convex* (block faults: `|`-shaped, `||`-shaped, `□`-shaped) or
//!   *concave* (`L`, `U`, `+`, `T`, `H`-shaped).
//!
//! The crate provides:
//!
//! * [`FaultSet`] — the queryable set of faulty nodes and channels used by the
//!   routers and the routing algorithms, with the queries over the healthy
//!   subgraph it leaves ([`healthy`]: connectivity, BFS distances and the
//!   shortest fault-free path of the software layer's rule 3).
//! * [`RegionShape`] / [`FaultRegion`] — parametric generators for the shaped
//!   fault regions evaluated in Fig. 5 of the paper, with placement validated
//!   against the per-dimension radices (regions may wrap around rings but are
//!   rejected — not silently wrapped — when they exceed a dimension's extent
//!   or overhang a mesh edge).
//! * [`random`] — uniform random node-fault injection that preserves network
//!   connectivity (paper assumption (h)).
//! * [`FaultScenario`] — a serialisable description of a fault configuration
//!   (used by the experiment harness and the CLI binaries).
//! * [`FaultSchedule`] — a time-ordered list of node/link fault injections,
//!   validated and materialised into cumulative per-epoch fault sets (the
//!   input of the static fault-schedule verifier in `swbft-verify`).

pub mod classify;
pub mod healthy;
pub mod model;
pub mod plan;
pub mod random;
pub mod regions;
pub mod schedule;

pub use classify::{classify_region, RegionClass};
pub use model::{FaultKind, FaultSet};
pub use plan::{FaultScenario, FaultScenarioError};
pub use random::{random_node_faults, random_switch_faults, RandomFaultError};
pub use regions::{FaultRegion, RegionPlacementError, RegionShape};
pub use schedule::{FaultEvent, FaultSchedule, FaultScheduleError, ScheduleEpoch, ScheduledFault};
