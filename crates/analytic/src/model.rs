//! The analytical latency model.

use torus_topology::TopologySpec;

/// Parameters of the analytical model (mirrors the simulator's configuration).
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyticConfig {
    /// The network topology (torus / mesh / hypercube / mixed-radix).
    pub topology: TopologySpec,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Message length in flits.
    pub message_length: u32,
    /// Number of faulty nodes (assumed uniformly scattered).
    pub faulty_nodes: usize,
    /// Router decision time `Td` in cycles.
    pub router_delay: u32,
    /// Software re-injection overhead `Δ` in cycles.
    pub reinjection_delay: u32,
}

impl AnalyticConfig {
    /// Configuration matching the paper's default assumptions (`Td = Δ = 0`)
    /// on a k-ary n-cube.
    pub fn paper(
        radix: u16,
        dims: u32,
        v: usize,
        message_length: u32,
        faulty_nodes: usize,
    ) -> Self {
        Self::paper_topology(
            TopologySpec::torus(radix, dims),
            v,
            message_length,
            faulty_nodes,
        )
    }

    /// Configuration matching the paper's default assumptions on an arbitrary
    /// topology.
    pub fn paper_topology(
        topology: TopologySpec,
        v: usize,
        message_length: u32,
        faulty_nodes: usize,
    ) -> Self {
        AnalyticConfig {
            topology,
            virtual_channels: v,
            message_length,
            faulty_nodes,
            router_delay: 0,
            reinjection_delay: 0,
        }
    }
}

/// Break-down of the predicted mean latency into its additive components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyBreakdown {
    /// Header routing time: `d̄ · (1 + Td)` cycles.
    pub routing: f64,
    /// Message serialisation time: `M` cycles.
    pub serialization: f64,
    /// Total expected contention (blocking) time over the whole path.
    pub contention: f64,
    /// Expected extra cost of fault absorptions and software re-injections.
    pub fault_penalty: f64,
}

impl LatencyBreakdown {
    /// Total predicted mean latency in cycles.
    pub fn total(&self) -> f64 {
        self.routing + self.serialization + self.contention + self.fault_penalty
    }
}

/// The analytical mean-latency model.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyticModel {
    config: AnalyticConfig,
    avg_distance: f64,
    num_nodes: usize,
    /// Mean number of *existing* network channels per node (2n on a torus,
    /// less on meshes whose edge nodes are missing outward channels).
    channels_per_node: f64,
}

impl AnalyticModel {
    /// Builds the model, deriving the average distance and channel density
    /// from the topology.
    pub fn new(config: AnalyticConfig) -> Result<Self, torus_topology::NetworkError> {
        let net = config.topology.build()?;
        Ok(AnalyticModel {
            avg_distance: net.average_distance(),
            num_nodes: net.num_nodes(),
            channels_per_node: net.num_channels() as f64 / net.num_nodes() as f64,
            config,
        })
    }

    /// The configuration of the model.
    pub fn config(&self) -> &AnalyticConfig {
        &self.config
    }

    /// Mean minimal distance `d̄` between two distinct nodes.
    pub fn average_distance(&self) -> f64 {
        self.avg_distance
    }

    /// Utilisation `ρ` of a network channel at offered load `rate`
    /// (messages/node/cycle).
    pub fn channel_utilization(&self, rate: f64) -> f64 {
        rate * self.avg_distance * self.config.message_length as f64 / self.channels_per_node
    }

    /// The offered load at which the channel utilisation reaches 1 — the
    /// model's saturation estimate (messages/node/cycle).
    pub fn saturation_rate(&self) -> f64 {
        self.channels_per_node / (self.avg_distance * self.config.message_length as f64)
    }

    /// Probability that a message encounters at least one faulty router among
    /// the intermediate nodes of its (average-length) path, with faults
    /// scattered uniformly.
    pub fn fault_encounter_probability(&self) -> f64 {
        if self.config.faulty_nodes == 0 {
            return 0.0;
        }
        let healthy_fraction = 1.0 - self.config.faulty_nodes as f64 / self.num_nodes as f64;
        // Intermediate routers on the path (excluding source and destination).
        let intermediates = (self.avg_distance - 1.0).max(0.0);
        1.0 - healthy_fraction.powf(intermediates)
    }

    /// Predicted mean latency break-down at offered load `rate`; `None` when
    /// the load is at or beyond the model's saturation estimate (the M/D/1
    /// waiting time diverges there).
    pub fn latency_breakdown(&self, rate: f64) -> Option<LatencyBreakdown> {
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be non-negative");
        let m = self.config.message_length as f64;
        let rho = self.channel_utilization(rate);
        if rho >= 1.0 {
            return None;
        }
        // M/D/1 waiting time per hop, discounted by the virtual-channel
        // flexibility.
        let per_hop_wait = rho * m / (2.0 * (1.0 - rho)) / self.config.virtual_channels as f64;
        let routing = self.avg_distance * (1.0 + self.config.router_delay as f64);
        let contention = self.avg_distance * per_hop_wait;
        // Fault penalty: expected absorptions × (re-serialisation + Δ + detour).
        let p_fault = self.fault_encounter_probability();
        let detour_hops = self.avg_distance / 2.0;
        let fault_penalty = p_fault
            * (m + self.config.reinjection_delay as f64 + detour_hops * (1.0 + per_hop_wait));
        Some(LatencyBreakdown {
            routing,
            serialization: m,
            contention,
            fault_penalty,
        })
    }

    /// Predicted mean latency in cycles (`None` at or beyond saturation).
    pub fn mean_latency(&self, rate: f64) -> Option<f64> {
        self.latency_breakdown(rate).map(|b| b.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(v: usize, m: u32, nf: usize) -> AnalyticModel {
        AnalyticModel::new(AnalyticConfig::paper(8, 2, v, m, nf)).unwrap()
    }

    #[test]
    fn zero_load_latency_is_distance_plus_serialization() {
        let m = model(6, 32, 0);
        let b = m.latency_breakdown(0.0).unwrap();
        assert!((b.routing - m.average_distance()).abs() < 1e-9);
        assert_eq!(b.serialization, 32.0);
        assert_eq!(b.contention, 0.0);
        assert_eq!(b.fault_penalty, 0.0);
        assert!((b.total() - (m.average_distance() + 32.0)).abs() < 1e-9);
    }

    #[test]
    fn latency_is_monotonic_in_load() {
        let m = model(6, 32, 0);
        let curve: Vec<f64> = (0..20)
            .filter_map(|i| m.mean_latency(i as f64 * 0.0005))
            .collect();
        assert!(curve.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn diverges_at_saturation() {
        let m = model(6, 32, 0);
        let sat = m.saturation_rate();
        assert!(m.mean_latency(sat).is_none());
        assert!(m.mean_latency(sat * 1.5).is_none());
        let near = m.mean_latency(sat * 0.98).unwrap();
        let mid = m.mean_latency(sat * 0.5).unwrap();
        assert!(near > 3.0 * mid, "latency must blow up near saturation");
    }

    #[test]
    fn saturation_rate_reasonable_for_paper_configs() {
        // 8-ary 2-cube, M=32: 2n/(d_avg*M) with d_avg≈4.06 -> ≈0.031; the
        // simulated saturation (with VC and protocol overheads) is lower but
        // the same order of magnitude as the paper's 0.012-0.02 range.
        let m = model(6, 32, 0);
        let sat = m.saturation_rate();
        assert!(sat > 0.02 && sat < 0.05, "saturation {sat}");
        // Longer messages saturate earlier.
        assert!(model(6, 64, 0).saturation_rate() < sat);
    }

    #[test]
    fn more_virtual_channels_reduce_contention() {
        let rate = 0.01;
        let low_v = model(4, 32, 0).latency_breakdown(rate).unwrap().contention;
        let high_v = model(10, 32, 0).latency_breakdown(rate).unwrap().contention;
        assert!(high_v < low_v);
    }

    #[test]
    fn faults_add_latency() {
        let rate = 0.006;
        let clean = model(6, 32, 0).mean_latency(rate).unwrap();
        let faulty = model(6, 32, 5).mean_latency(rate).unwrap();
        assert!(faulty > clean);
        let very_faulty = model(6, 32, 12).mean_latency(rate).unwrap();
        assert!(very_faulty > faulty);
    }

    #[test]
    fn fault_probability_bounds() {
        assert_eq!(model(6, 32, 0).fault_encounter_probability(), 0.0);
        let p = model(6, 32, 5).fault_encounter_probability();
        assert!(p > 0.0 && p < 1.0);
        // With most of the network faulty the probability approaches 1.
        let heavy = model(6, 32, 50).fault_encounter_probability();
        assert!(heavy > p);
    }

    #[test]
    fn longer_messages_cost_more() {
        let rate = 0.004;
        let short = model(6, 32, 0).mean_latency(rate).unwrap();
        let long = model(6, 64, 0).mean_latency(rate).unwrap();
        assert!(long > short + 30.0);
    }

    #[test]
    fn three_dimensional_model() {
        let m = AnalyticModel::new(AnalyticConfig::paper(8, 3, 10, 32, 12)).unwrap();
        assert!(m.average_distance() > 5.9 && m.average_distance() < 6.1);
        assert!(m.mean_latency(0.004).unwrap() > 38.0);
        assert!(m.saturation_rate() > 0.02);
    }

    #[test]
    fn mesh_saturates_earlier_than_torus() {
        // A mesh has longer average distances and fewer channels, so the
        // model must place its saturation point below the torus's.
        let torus = AnalyticModel::new(AnalyticConfig::paper(8, 2, 6, 32, 0)).unwrap();
        let mesh = AnalyticModel::new(AnalyticConfig::paper_topology(
            torus_topology::TopologySpec::mesh(8, 2),
            6,
            32,
            0,
        ))
        .unwrap();
        assert!(mesh.average_distance() > torus.average_distance());
        assert!(mesh.saturation_rate() < torus.saturation_rate());
        // And its low-load latency is higher (more hops on average).
        assert!(mesh.mean_latency(0.001).unwrap() > torus.mean_latency(0.001).unwrap());
    }

    #[test]
    fn hypercube_model_builds() {
        let h = AnalyticModel::new(AnalyticConfig::paper_topology(
            torus_topology::TopologySpec::hypercube(6),
            4,
            32,
            0,
        ))
        .unwrap();
        // Average distance of a binary n-cube is ~n/2 (exactly n/2 * N/(N-1)).
        assert!((h.average_distance() - 3.0 * 64.0 / 63.0).abs() < 1e-9);
        assert!(h.saturation_rate() > 0.0);
    }

    #[test]
    fn invalid_topology_is_rejected() {
        assert!(AnalyticModel::new(AnalyticConfig::paper(1, 2, 4, 32, 0)).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        model(4, 32, 0).mean_latency(-0.1);
    }
}
