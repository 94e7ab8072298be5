//! # torus-analytic
//!
//! A first-order analytical mean-latency model for wormhole-switched k-ary
//! n-cubes under uniform traffic, extended with a fault term for the
//! Software-Based re-routing mechanism. The paper's conclusion names exactly
//! this as future work ("our next object is to develop an analytical modeling
//! approach to investigate the performance behavior of Software-Based
//! fault-tolerant routing"); this crate provides the standard starting point
//! against which the flit-level simulator can be sanity-checked.
//!
//! ## Model
//!
//! The model follows the classical open-network approximation used throughout
//! the k-ary n-cube literature (Dally; Agarwal; Draper & Ghosh; Ould-Khaoua):
//!
//! * a message of `M` flits travelling `d̄` hops needs `d̄ + M` cycles with no
//!   contention (one flit per channel per cycle, `Td = 0`);
//! * under uniform traffic each of the `2n` network channels of a node carries
//!   `λ·d̄ / (2n)` messages per cycle, so its utilisation is
//!   `ρ = λ·d̄·M / (2n)`;
//! * the mean waiting time per hop is approximated by an M/D/1 queue,
//!   `W = ρ·M / (2(1−ρ))`, divided by the number of virtual channels a message
//!   can choose from (the standard first-order account of virtual-channel
//!   flexibility: with `V` candidate VCs a blocked message waits roughly `1/V`
//!   of the single-channel waiting time);
//! * faults add, per message, an expected number of absorptions
//!   `E[a] = p_f` (the probability that at least one of its `d̄` intermediate
//!   routers is faulty) and each absorption costs one software re-injection:
//!   re-serialisation of the message (`M` cycles), the configured overhead
//!   `Δ`, and roughly half the original distance of extra hops (non-minimal
//!   detour).
//!
//! The result is a coarse model — it ignores higher-moment effects, adaptive
//! routing's load balancing and the detailed structure of fault regions — but
//! it reproduces the qualitative behaviour of the simulator (latency offset by
//! `d̄ + M` at low load, hyperbolic divergence at saturation, saturation rate
//! growing with `V` and shrinking with `M` and with the number of faults) and
//! serves as an independent cross-check of the simulation results.

pub mod model;

pub use model::{AnalyticConfig, AnalyticModel, LatencyBreakdown};
