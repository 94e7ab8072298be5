//! # swbft — Software-Based Fault-Tolerant routing in multi-dimensional networks
//!
//! Umbrella crate re-exporting the whole reproduction of
//! *Safaei et al., "Software-Based Fault-Tolerant Routing Algorithm in
//! Multi-Dimensional Networks", IPDPS 2006*:
//!
//! * [`topology`] — mixed-radix multidimensional networks (torus / mesh /
//!   hypercube / mixed shapes) and their channel structure,
//! * [`faults`] — fault models and fault-region generators,
//! * [`workloads`] — the paper's traffic model: Poisson arrivals, uniformly
//!   chosen healthy destinations, fixed message length,
//! * [`metrics`] — latency/throughput statistics and collectors,
//! * [`routing`] — e-cube, Duato's protocol and the Software-Based
//!   fault-tolerant routing algorithm (2-D and n-D),
//! * [`sim`] — the flit-level wormhole-switched network simulator,
//! * [`analytic`] — a first-order analytical latency model (the paper's
//!   stated future work), used as an independent cross-check of the simulator,
//! * [`core`] — the experiment harness that reproduces the paper's figures,
//! * [`verify`] — the static routing verifier: exact channel-dependency-graph
//!   extraction with cycle witnesses, reachability proofs over the whole
//!   (topology × routing × VC × fault) matrix, and epoch-differential
//!   verification of dynamic fault schedules with per-pair fate
//!   classification.
//!
//! See `examples/quickstart.rs` for a minimal end-to-end simulation.

pub use swbft_core as core;
pub use swbft_verify as verify;
pub use torus_analytic as analytic;
pub use torus_faults as faults;
pub use torus_metrics as metrics;
pub use torus_routing as routing;
pub use torus_sim as sim;
pub use torus_topology as topology;
pub use torus_workloads as workloads;

/// Commonly used items from every sub-crate.
pub mod prelude {
    pub use swbft_core::prelude::*;
    pub use torus_topology::prelude::*;
}
