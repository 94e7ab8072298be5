//! # torus-metrics
//!
//! Statistics gathering for the flit-level network simulator, implementing the
//! measurement methodology of Safaei et al. (IPDPS 2006), Section 5.2:
//!
//! * the **mean message latency** is the mean time from the *generation* of a
//!   message until its last data flit reaches the local PE at the destination
//!   (so it includes source-queueing time and any software re-injection
//!   delays);
//! * statistics gathering is inhibited for a configurable number of warm-up
//!   messages to avoid start-up transients (the paper discards the first
//!   10,000 of 100,000 messages);
//! * **throughput** is the rate at which messages are delivered by the network
//!   (messages per node per cycle) over the measurement interval;
//! * the **number of messages queued** counts absorption events at
//!   intermediate nodes due to faults — a message absorbed twice counts twice.
//!
//! The crate is simulator-agnostic: the simulator reports events to a
//! [`MetricsCollector`] and reads a [`SimulationReport`] at the end.

mod collector;
mod histogram;
mod stats;
mod throughput;

pub use collector::{MetricsCollector, SimulationReport, WarmupPolicy};
