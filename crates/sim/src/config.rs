//! Simulation configuration.

use crate::router::MAX_SLOTS;
use std::fmt;
use torus_routing::MAX_VIRTUAL_CHANNELS;
use torus_topology::TopologySpec;
use torus_workloads::TrafficSpec;

/// When a simulation run stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop once this many *measured* (post-warm-up) messages have been
    /// delivered, the paper's methodology (100,000 messages of which the
    /// first 10,000 are discarded).
    MeasuredMessages(u64),
    /// Stop after simulating this many cycles.
    Cycles(u64),
}

/// Errors detected when validating a [`SimConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// The requested number of virtual channels is below the minimum the
    /// routing algorithm needs for deadlock freedom on this topology.
    TooFewVirtualChannels {
        /// Requested V.
        requested: usize,
        /// Minimum required by the routing flavour on this topology.
        minimum: usize,
    },
    /// The requested number of virtual channels exceeds what a routing
    /// decision can name ([`torus_routing::MAX_VIRTUAL_CHANNELS`]).
    TooManyVirtualChannels {
        /// Requested V.
        requested: usize,
        /// The largest V a routing decision can name.
        maximum: usize,
    },
    /// Flit buffers must hold at least one flit.
    ZeroBufferDepth,
    /// The flit-buffer depth exceeds what a credit counter holds (`u32`).
    BufferTooDeep {
        /// Requested depth.
        requested: usize,
        /// The deepest buffer a credit counter tracks.
        maximum: usize,
    },
    /// The cycle cap exceeds what a router's cycle stamps hold (`u32`).
    TooManyCycles {
        /// Requested `max_cycles`.
        requested: u64,
        /// The largest cycle cap the stamps hold.
        maximum: u64,
    },
    /// A router would have more input virtual channels (`(ports + 1) * V`,
    /// the injection port included) than its switch pointers and routes
    /// index (`u16`).
    TooManySlots {
        /// Network ports per router (`2n`; twice the arity on a fat-tree).
        ports: usize,
        /// Requested V.
        vcs: usize,
        /// The most input virtual channels a router indexes.
        maximum: usize,
    },
    /// The workload is configured with zero-length messages. A message needs
    /// at least its header flit; rather than silently clamping the length to
    /// one flit at generation time, the configuration is rejected up front.
    ZeroMessageLength,
    /// The traffic rate is negative, infinite or not a number.
    InvalidTrafficRate {
        /// The offending rate as written (`SimConfigError` is `Eq`; an `f64`
        /// field, and `NaN` in particular, is not).
        rate: String,
    },
    /// The topology parameters are invalid.
    Topology(torus_topology::NetworkError),
    /// The routing algorithm cannot operate on this topology (e.g. a turn
    /// model on a network with wrapped dimensions).
    UnsupportedRouting {
        /// Spec-string of the offending topology (e.g. `torus:8x2`).
        topology: String,
        /// Name of the rejecting routing algorithm.
        routing: String,
        /// The underlying typed rejection.
        error: torus_routing::RoutingTopologyError,
    },
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::TooFewVirtualChannels { requested, minimum } => write!(
                f,
                "{requested} virtual channels requested but the routing algorithm needs at least {minimum} on this topology"
            ),
            SimConfigError::TooManyVirtualChannels { requested, maximum } => write!(
                f,
                "{requested} virtual channels requested but routing decisions name at most {maximum}"
            ),
            SimConfigError::ZeroBufferDepth => write!(f, "flit buffers must hold at least one flit"),
            SimConfigError::BufferTooDeep { requested, maximum } => write!(
                f,
                "buffer depth {requested} requested but credit counters hold at most {maximum}"
            ),
            SimConfigError::TooManyCycles { requested, maximum } => write!(
                f,
                "max_cycles {requested} requested but router cycle stamps hold at most {maximum}"
            ),
            SimConfigError::TooManySlots {
                ports,
                vcs,
                maximum,
            } => write!(
                f,
                "a router with {ports} network ports and {vcs} virtual channels per port has {} input virtual channels, but routers index at most {maximum}",
                (ports + 1) * vcs
            ),
            SimConfigError::ZeroMessageLength => write!(
                f,
                "the workload is configured with zero-length messages (every message needs at least its header flit)"
            ),
            SimConfigError::InvalidTrafficRate { rate } => write!(
                f,
                "traffic rate {rate} is not a finite, non-negative number of messages/node/cycle"
            ),
            SimConfigError::Topology(e) => write!(f, "invalid topology: {e}"),
            SimConfigError::UnsupportedRouting {
                topology,
                routing,
                error,
            } => {
                write!(
                    f,
                    "routing '{routing}' is unsupported on topology '{topology}': {error}"
                )
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Full configuration of one simulation run.
///
/// The defaults reproduce the paper's assumptions: router decision time
/// `Td = 0`, re-injection overhead `Δ = 0`, fixed-length messages, Poisson
/// arrivals, uniform destinations.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// The network topology (torus / mesh / hypercube / mixed-radix).
    pub topology: TopologySpec,
    /// Virtual channels per physical channel (`V`).
    pub virtual_channels: usize,
    /// Flit-buffer depth of each virtual channel, in flits.
    pub buffer_depth: usize,
    /// Workload applied to every healthy node.
    pub traffic: TrafficSpec,
    /// Router decision time `Td` in cycles (0 in all paper experiments).
    pub router_delay: u32,
    /// Software re-injection overhead `Δ` in cycles (0 in all paper
    /// experiments).
    pub reinjection_delay: u32,
    /// Number of generated messages discarded as warm-up transient.
    pub warmup_messages: u64,
    /// Stop condition of the run.
    pub stop: StopCondition,
    /// Hard cap on simulated cycles (applies to every stop condition, so a
    /// saturated network cannot run forever).
    pub max_cycles: u64,
    /// RNG seed; every run is a deterministic function of its seed.
    pub seed: u64,
    /// Safety valve: a head flit that has been unable to obtain an output for
    /// this many cycles is absorbed by the local software layer exactly as if
    /// it had encountered a fault. With the deadlock-free routing algorithms
    /// in this repository the valve never fires (asserted by tests); it
    /// protects long experiment sweeps against pathological configurations.
    pub stall_absorb_threshold: u64,
}

impl SimConfig {
    /// A configuration matching the paper's experimental setup for a k-ary
    /// n-cube, virtual-channel count, message length (flits) and traffic rate
    /// (messages/node/cycle), at a reduced message budget suitable for quick
    /// runs (2,000 warm-up + 10,000 measured messages).
    pub fn paper(radix: u16, dims: u32, v: usize, message_length: u32, rate: f64) -> Self {
        Self::paper_topology(TopologySpec::torus(radix, dims), v, message_length, rate)
    }

    /// The paper-style configuration on an arbitrary topology (mesh,
    /// hypercube or mixed-radix shape).
    pub fn paper_topology(
        topology: TopologySpec,
        v: usize,
        message_length: u32,
        rate: f64,
    ) -> Self {
        SimConfig {
            topology,
            virtual_channels: v,
            buffer_depth: 2,
            traffic: TrafficSpec::paper(rate, message_length),
            router_delay: 0,
            reinjection_delay: 0,
            warmup_messages: 2_000,
            stop: StopCondition::MeasuredMessages(10_000),
            max_cycles: 300_000,
            seed: 0x005a_fae1_2006,
            stall_absorb_threshold: 20_000,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of nodes of the configured topology.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Validates the configuration against the minimum virtual-channel count
    /// required by a routing algorithm on this topology.
    pub fn validate(&self, min_vcs: usize) -> Result<(), SimConfigError> {
        self.topology.build().map_err(SimConfigError::Topology)?;
        self.validate_parameters(min_vcs)
    }

    /// [`validate`](SimConfig::validate) for a caller that has already built
    /// the topology (and so knows it is valid): everything but the build.
    pub(crate) fn validate_parameters(&self, min_vcs: usize) -> Result<(), SimConfigError> {
        if self.buffer_depth == 0 {
            return Err(SimConfigError::ZeroBufferDepth);
        }
        if u32::try_from(self.buffer_depth).is_err() {
            return Err(SimConfigError::BufferTooDeep {
                requested: self.buffer_depth,
                maximum: u32::MAX as usize,
            });
        }
        if self.max_cycles > u64::from(u32::MAX) {
            return Err(SimConfigError::TooManyCycles {
                requested: self.max_cycles,
                maximum: u64::from(u32::MAX),
            });
        }
        if self.traffic.length == 0 {
            return Err(SimConfigError::ZeroMessageLength);
        }
        let rate = self.traffic.rate;
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(SimConfigError::InvalidTrafficRate {
                rate: rate.to_string(),
            });
        }
        if self.virtual_channels < min_vcs {
            return Err(SimConfigError::TooFewVirtualChannels {
                requested: self.virtual_channels,
                minimum: min_vcs,
            });
        }
        if self.virtual_channels > MAX_VIRTUAL_CHANNELS {
            return Err(SimConfigError::TooManyVirtualChannels {
                requested: self.virtual_channels,
                maximum: MAX_VIRTUAL_CHANNELS,
            });
        }
        let ports = 2 * self.topology.dims();
        if (ports + 1).saturating_mul(self.virtual_channels) > MAX_SLOTS {
            return Err(SimConfigError::TooManySlots {
                ports,
                vcs: self.virtual_channels,
                maximum: MAX_SLOTS,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = SimConfig::paper(8, 2, 6, 32, 0.008);
        assert_eq!(c.num_nodes(), 64);
        assert_eq!(c.topology, TopologySpec::torus(8, 2));
        assert_eq!(c.router_delay, 0);
        assert_eq!(c.reinjection_delay, 0);
        assert_eq!(c.virtual_channels, 6);
        assert!(matches!(c.stop, StopCondition::MeasuredMessages(_)));
        assert!(c.validate(3).is_ok());
    }

    #[test]
    fn mesh_and_hypercube_configs() {
        let m = SimConfig::paper_topology(TopologySpec::mesh(8, 2), 4, 32, 0.004);
        assert_eq!(m.num_nodes(), 64);
        assert!(m.validate(1).is_ok());
        let h = SimConfig::paper_topology(TopologySpec::hypercube(6), 2, 16, 0.002);
        assert_eq!(h.num_nodes(), 64);
        assert!(h.validate(2).is_ok());
    }

    #[test]
    fn validation_errors() {
        let mut c = SimConfig::paper(8, 2, 2, 32, 0.001);
        assert_eq!(
            c.validate(3),
            Err(SimConfigError::TooFewVirtualChannels {
                requested: 2,
                minimum: 3
            })
        );
        c.virtual_channels = MAX_VIRTUAL_CHANNELS + 1;
        assert_eq!(
            c.validate(3),
            Err(SimConfigError::TooManyVirtualChannels {
                requested: MAX_VIRTUAL_CHANNELS + 1,
                maximum: MAX_VIRTUAL_CHANNELS
            })
        );
        c.virtual_channels = MAX_VIRTUAL_CHANNELS;
        assert!(c.validate(3).is_ok());
        c.virtual_channels = 4;
        c.buffer_depth = 0;
        assert_eq!(c.validate(2), Err(SimConfigError::ZeroBufferDepth));
        c.buffer_depth = 2;
        c.topology = TopologySpec::torus(1, 2);
        assert!(matches!(c.validate(2), Err(SimConfigError::Topology(_))));
    }

    #[test]
    fn values_past_the_router_widths_are_rejected() {
        let base = SimConfig::paper(8, 2, 4, 32, 0.001);
        let mut c = base.clone();
        c.max_cycles = u64::from(u32::MAX);
        assert!(c.validate(2).is_ok());
        c.max_cycles += 1;
        let e = SimConfigError::TooManyCycles {
            requested: 1 << 32,
            maximum: u64::from(u32::MAX),
        };
        assert_eq!(c.validate(2), Err(e.clone()));
        assert!(format!("{e}").contains("max_cycles 4294967296"));
        if let Ok(too_deep) = usize::try_from(1u64 << 32) {
            let mut c = base.clone();
            c.buffer_depth = too_deep;
            let e = SimConfigError::BufferTooDeep {
                requested: too_deep,
                maximum: u32::MAX as usize,
            };
            assert_eq!(c.validate(2), Err(e.clone()));
            assert!(format!("{e}").contains("credit counters"));
        }
        // A fat-tree's ports are twice its arity: 2 * 16 383 + 1 ports of 2
        // VCs fit, one more port pair does not.
        let mut c = base;
        c.virtual_channels = 2;
        c.topology = TopologySpec::fat_tree(16_383, 1);
        assert!(c.validate(1).is_ok());
        c.topology = TopologySpec::fat_tree(16_384, 1);
        let e = SimConfigError::TooManySlots {
            ports: 32_768,
            vcs: 2,
            maximum: MAX_SLOTS,
        };
        assert_eq!(c.validate(1), Err(e.clone()));
        assert!(format!("{e}").contains("65538 input virtual channels"));
    }

    #[test]
    fn zero_length_messages_are_rejected() {
        let mut c = SimConfig::paper(8, 2, 4, 0, 0.001);
        assert_eq!(c.validate(2), Err(SimConfigError::ZeroMessageLength));
        assert!(format!("{}", SimConfigError::ZeroMessageLength).contains("zero-length"));
        c.traffic.length = 1;
        assert!(c.validate(2).is_ok());
    }

    #[test]
    fn bad_traffic_rates_are_rejected() {
        for (rate, written) in [(f64::NAN, "NaN"), (-0.1, "-0.1"), (f64::INFINITY, "inf")] {
            let c = SimConfig::paper(4, 2, 4, 8, rate);
            let e = SimConfigError::InvalidTrafficRate {
                rate: written.into(),
            };
            assert_eq!(c.validate(2), Err(e.clone()));
            assert!(format!("{e}").contains(written));
        }
        assert!(SimConfig::paper(4, 2, 4, 8, 0.0).validate(2).is_ok());
    }

    #[test]
    fn unsupported_routing_error_renders() {
        use torus_routing::RoutingTopologyError;
        let e = SimConfigError::UnsupportedRouting {
            topology: "torus:8x2".into(),
            routing: "Negative-First (adaptive)".into(),
            error: RoutingTopologyError::WrappedDimension {
                algorithm: "negative-first turn-model",
                shape: "8x8".into(),
                dim: 0,
                radix: 8,
            },
        };
        let msg = format!("{e}");
        assert!(msg.contains("unsupported on topology 'torus:8x2'"));
        assert!(msg.contains("routing 'Negative-First (adaptive)'"));
        assert!(msg.contains("negative-first turn-model"));
    }

    #[test]
    fn seed_builder() {
        let c = SimConfig::paper(8, 2, 4, 32, 0.001).with_seed(99);
        assert_eq!(c.seed, 99);
    }
}
