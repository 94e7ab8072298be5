//! # swbft-core
//!
//! High-level experiment harness for the Software-Based fault-tolerant routing
//! study. It glues together the topology, fault, workload, routing, simulator
//! and metrics crates and exposes:
//!
//! * [`ExperimentConfig`] — one fully described simulation point (topology,
//!   virtual channels, message length, traffic rate, routing flavour, fault
//!   scenario, seed, measurement budget) and [`ExperimentConfig::run`] to
//!   execute it;
//! * `pool` — the shared-cursor experiment pool: worker threads
//!   ([`Jobs`], the binaries' `--jobs N`) take experiment points off one
//!   atomic cursor, and the results are reassembled into input order so any
//!   thread count is bit-identical;
//! * `figures` — the exact parameter grids of Figs. 3–7 of Safaei et al.
//!   (IPDPS 2006), at `Scale::Quick` (reduced message budget, default) or
//!   `Scale::Paper` (the full 100,000-message methodology);
//! * [`results`] — structured figure results with text-table and CSV
//!   rendering, used by the `fig3`..`fig7` binaries in `torus-bench`;
//! * `saturation` — direct estimation of a configuration's saturation rate
//!   (doubling + bisection), used by the `saturation` binary to tabulate how
//!   the saturation point moves with V, the routing flavour and the fault
//!   count.
//!
//! ```
//! use swbft_core::prelude::*;
//!
//! let cfg = ExperimentConfig::paper_point(8, 2, 4, 32, 0.004)
//!     .with_routing(RoutingChoice::Adaptive)
//!     .with_faults(FaultScenario::RandomNodes { count: 3 })
//!     .quick(500, 100);
//! let outcome = cfg.run().unwrap();
//! assert!(outcome.report.mean_latency > 0.0);
//! ```

mod experiment;
mod figures;
mod pool;
pub mod results;
mod saturation;

pub use experiment::{ExperimentConfig, ExperimentError, ExperimentOutcome, RoutingChoice};
pub use figures::{check_routings, supported_routings, Figure, FigureError, FigureOptions, Scale};
pub use pool::{run_pool, Jobs};
pub use results::{CurveResult, FigureResult, PanelResult, PointFailure, PointResult};
pub use saturation::{estimate_saturation_rate, SaturationEstimate, SaturationSearch};

/// Convenience prelude re-exporting the most frequently used items.
pub mod prelude {
    pub use crate::experiment::{ExperimentConfig, ExperimentOutcome, RoutingChoice};
    pub use crate::figures::{Figure, FigureOptions, Scale};
    pub use crate::pool::{run_pool, Jobs};
    pub use crate::results::{CurveResult, FigureResult, PanelResult, PointResult};
    pub use torus_faults::{FaultScenario, RegionShape};
    pub use torus_metrics::SimulationReport;
}
