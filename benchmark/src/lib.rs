//! The repo's benchmark: six fixed-work workloads measured end to end, and —
//! with the `trace` feature — layer by layer from outside, by timing calls
//! into each crate's public functions. See `README.md`.

pub mod cli;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod report;
pub mod stats;
#[cfg(feature = "trace")]
pub mod trace;
pub mod workloads;
