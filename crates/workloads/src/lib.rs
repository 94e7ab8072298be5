//! # torus-workloads
//!
//! The traffic model of Safaei et al. (IPDPS 2006), Section 5.1, and nothing
//! else:
//!
//! * nodes generate traffic independently of each other following a Poisson
//!   process with mean rate λ messages/node/cycle (assumption (a)),
//! * destinations are drawn uniformly at random among the healthy endpoints
//!   other than the source (assumption (b)),
//! * every message has the same fixed length in flits (assumption (c)).
//!
//! [`TrafficSpec`] (`rate`, `length`) describes that workload; its
//! [`TrafficSpec::source_for`] builds a [`TrafficSource`], one per node, which
//! the simulator polls at the cycles its arrival process is due.

pub mod arrival;
pub mod source;

pub use arrival::PoissonArrivals;
pub use source::{GeneratedMessage, TrafficSource, TrafficSpec};
