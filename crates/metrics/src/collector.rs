//! The per-simulation metrics collector and final report.

use crate::histogram::Histogram;
use crate::stats::StreamingStats;
use crate::throughput::ThroughputMeter;

/// When statistics gathering begins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmupPolicy {
    /// Measure from the very first message.
    None,
    /// Skip the first `n` generated messages (the paper discards the first
    /// 10,000 of 100,000 messages).
    Messages(u64),
}

impl WarmupPolicy {
    fn is_measured(&self, generated_so_far: u64) -> bool {
        match *self {
            WarmupPolicy::None => true,
            WarmupPolicy::Messages(n) => generated_so_far >= n,
        }
    }
}

/// Collects events from one simulation run and produces a
/// [`SimulationReport`].
#[derive(Clone, Debug)]
pub struct MetricsCollector {
    num_nodes: usize,
    warmup: WarmupPolicy,
    generated: u64,
    generated_measured: u64,
    delivered: u64,
    delivered_measured: u64,
    absorbed_events: u64,
    absorbed_events_measured: u64,
    reinjection_queue_peak: u64,
    latency: StreamingStats,
    latency_hist: Histogram,
    network_latency: StreamingStats,
    hops: StreamingStats,
    throughput: ThroughputMeter,
    measurement_start_cycle: Option<u64>,
}

impl MetricsCollector {
    /// Creates a collector for a network of `num_nodes` healthy+faulty nodes.
    pub fn new(num_nodes: usize, warmup: WarmupPolicy) -> Self {
        MetricsCollector {
            num_nodes,
            warmup,
            generated: 0,
            generated_measured: 0,
            delivered: 0,
            delivered_measured: 0,
            absorbed_events: 0,
            absorbed_events_measured: 0,
            reinjection_queue_peak: 0,
            latency: StreamingStats::new(),
            latency_hist: Histogram::for_latencies(20_000),
            network_latency: StreamingStats::new(),
            hops: StreamingStats::new(),
            throughput: ThroughputMeter::new(),
            measurement_start_cycle: None,
        }
    }

    /// Registers a newly generated message and returns whether it belongs to
    /// the measured population (i.e. is past the warm-up transient).
    pub fn on_generated(&mut self, cycle: u64) -> bool {
        let measured = self.warmup.is_measured(self.generated);
        self.generated += 1;
        if measured {
            if self.measurement_start_cycle.is_none() {
                self.measurement_start_cycle = Some(cycle);
                self.throughput.start_window(cycle);
            }
            self.generated_measured += 1;
            self.throughput.record_offered();
        }
        measured
    }

    /// Registers an absorption (software re-routing) event. A message absorbed
    /// several times contributes several events, matching the paper's
    /// "messages queued" metric.
    pub fn on_absorbed(&mut self, measured: bool) {
        self.absorbed_events += 1;
        if measured {
            self.absorbed_events_measured += 1;
        }
    }

    /// Registers the current occupancy of a node's software re-injection
    /// queue (used to track the peak backlog).
    pub fn on_reinjection_queue_depth(&mut self, depth: usize) {
        self.reinjection_queue_peak = self.reinjection_queue_peak.max(depth as u64);
    }

    /// Registers a delivered message.
    ///
    /// * `generated_at` / `delivered_at` — cycles of generation and of the
    ///   last flit reaching the destination PE,
    /// * `injected_at` — cycle the header first entered the network (used for
    ///   the network-only latency),
    /// * `flits` — message length,
    /// * `hops` — network hops traversed (across all injections),
    /// * `measured` — the flag returned by [`MetricsCollector::on_generated`].
    #[allow(clippy::too_many_arguments)]
    pub fn on_delivered(
        &mut self,
        generated_at: u64,
        injected_at: u64,
        delivered_at: u64,
        flits: u32,
        hops: u32,
        measured: bool,
    ) {
        self.delivered += 1;
        if !measured {
            return;
        }
        self.delivered_measured += 1;
        let latency = delivered_at.saturating_sub(generated_at) as f64;
        self.latency.record(latency);
        self.latency_hist.record(latency);
        self.network_latency
            .record(delivered_at.saturating_sub(injected_at) as f64);
        self.hops.record(hops as f64);
        self.throughput.record_delivery(delivered_at, flits);
    }

    /// Total messages generated (including warm-up).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Total messages delivered (including warm-up).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Measured messages delivered.
    pub fn delivered_measured(&self) -> u64 {
        self.delivered_measured
    }

    /// Produces the final report. `now` is the cycle the simulation stopped
    /// at; `in_flight` the number of messages still travelling.
    pub fn report(&self, now: u64, in_flight: u64) -> SimulationReport {
        SimulationReport {
            num_nodes: self.num_nodes,
            cycles: now,
            generated_messages: self.generated,
            measured_messages: self.delivered_measured,
            delivered_messages: self.delivered,
            in_flight_messages: in_flight,
            mean_latency: self.latency.mean(),
            latency_std_dev: self.latency.std_dev(),
            latency_ci95: self.latency.ci95_half_width(),
            max_latency: self.latency.max().unwrap_or(0.0),
            p50_latency: self.latency_hist.quantile(0.5).unwrap_or(0.0),
            p99_latency: self.latency_hist.quantile(0.99).unwrap_or(0.0),
            mean_network_latency: self.network_latency.mean(),
            mean_hops: self.hops.mean(),
            throughput: self.throughput.message_throughput(self.num_nodes, now),
            flit_throughput: self.throughput.flit_throughput(self.num_nodes, now),
            acceptance_ratio: self.throughput.acceptance_ratio(),
            messages_queued: self.absorbed_events,
            messages_queued_measured: self.absorbed_events_measured,
            reinjection_queue_peak: self.reinjection_queue_peak,
        }
    }
}

/// Summary of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationReport {
    /// Number of nodes in the network (healthy + faulty).
    pub num_nodes: usize,
    /// Number of cycles simulated.
    pub cycles: u64,
    /// Messages generated in total (including warm-up).
    pub generated_messages: u64,
    /// Messages in the measured (post-warm-up) population that were delivered.
    pub measured_messages: u64,
    /// Messages delivered in total.
    pub delivered_messages: u64,
    /// Messages still in flight when the run stopped.
    pub in_flight_messages: u64,
    /// Mean message latency in cycles (generation → last flit at destination).
    pub mean_latency: f64,
    /// Standard deviation of the measured latencies.
    pub latency_std_dev: f64,
    /// Half-width of the 95 % confidence interval of the mean latency.
    pub latency_ci95: f64,
    /// Largest measured latency.
    pub max_latency: f64,
    /// Median latency (from the 1-cycle-bin histogram).
    pub p50_latency: f64,
    /// 99th-percentile latency.
    pub p99_latency: f64,
    /// Mean latency counted from network injection rather than generation.
    pub mean_network_latency: f64,
    /// Mean number of hops traversed per delivered message.
    pub mean_hops: f64,
    /// Delivered messages per node per cycle (the paper's throughput metric).
    pub throughput: f64,
    /// Delivered flits per node per cycle.
    pub flit_throughput: f64,
    /// Delivered / offered ratio within the measurement window.
    pub acceptance_ratio: f64,
    /// Absorption events due to faults — the paper's "number of messages
    /// queued" (a message absorbed twice counts twice).
    pub messages_queued: u64,
    /// Absorption events restricted to measured messages.
    pub messages_queued_measured: u64,
    /// Peak occupancy observed in any node's software re-injection queue.
    pub reinjection_queue_peak: u64,
}

impl SimulationReport {
    /// Header of the CSV representation produced by
    /// [`SimulationReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "nodes,cycles,generated,measured,delivered,in_flight,mean_latency,latency_ci95,p50,p99,mean_hops,throughput,flit_throughput,acceptance,messages_queued"
    }

    /// One CSV row summarising the run.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{:.3},{:.3},{:.1},{:.1},{:.3},{:.6},{:.6},{:.4},{}",
            self.num_nodes,
            self.cycles,
            self.generated_messages,
            self.measured_messages,
            self.delivered_messages,
            self.in_flight_messages,
            self.mean_latency,
            self.latency_ci95,
            self.p50_latency,
            self.p99_latency,
            self.mean_hops,
            self.throughput,
            self.flit_throughput,
            self.acceptance_ratio,
            self.messages_queued,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_by_messages_skips_early_messages() {
        let mut c = MetricsCollector::new(64, WarmupPolicy::Messages(10));
        let mut measured_flags = Vec::new();
        for i in 0..20 {
            measured_flags.push(c.on_generated(i));
        }
        assert!(measured_flags[..10].iter().all(|m| !m));
        assert!(measured_flags[10..].iter().all(|m| *m));
        assert_eq!(c.generated(), 20);
    }

    #[test]
    fn latency_accounting() {
        let mut c = MetricsCollector::new(64, WarmupPolicy::None);
        let m = c.on_generated(0);
        c.on_delivered(0, 2, 50, 32, 8, m);
        let m = c.on_generated(10);
        c.on_delivered(10, 12, 110, 32, 12, m);
        let report = c.report(200, 0);
        assert_eq!(report.measured_messages, 2);
        assert!((report.mean_latency - 75.0).abs() < 1e-9);
        assert!((report.mean_network_latency - 73.0).abs() < 1e-9);
        assert!((report.mean_hops - 10.0).abs() < 1e-9);
        assert_eq!(report.delivered_messages, 2);
    }

    #[test]
    fn unmeasured_deliveries_do_not_affect_latency() {
        let mut c = MetricsCollector::new(16, WarmupPolicy::Messages(1));
        let m0 = c.on_generated(0); // warm-up message
        let m1 = c.on_generated(1);
        c.on_delivered(0, 0, 1000, 32, 4, m0);
        c.on_delivered(1, 1, 51, 32, 4, m1);
        let r = c.report(100, 0);
        assert_eq!(r.measured_messages, 1);
        assert!((r.mean_latency - 50.0).abs() < 1e-9);
        assert_eq!(r.delivered_messages, 2);
    }

    #[test]
    fn absorption_counting() {
        let mut c = MetricsCollector::new(512, WarmupPolicy::None);
        let m = c.on_generated(0);
        c.on_absorbed(m);
        c.on_absorbed(m);
        assert_eq!(c.report(10, 1).messages_queued, 2);
        c.on_absorbed(false);
        let r = c.report(10, 1);
        assert_eq!(r.messages_queued, 3);
        assert_eq!(r.messages_queued_measured, 2);
    }

    #[test]
    fn throughput_window_starts_at_measurement() {
        let mut c = MetricsCollector::new(10, WarmupPolicy::Messages(2));
        let m0 = c.on_generated(0);
        let m1 = c.on_generated(5);
        let m2 = c.on_generated(10); // measurement starts here
        c.on_delivered(0, 0, 20, 16, 2, m0);
        c.on_delivered(5, 5, 30, 16, 2, m1);
        c.on_delivered(10, 10, 40, 16, 2, m2);
        let r = c.report(110, 0);
        // window is cycles 10..110 = 100 cycles, 1 delivery, 10 nodes
        assert!((r.throughput - 1.0 / (100.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn csv_row_matches_header_field_count() {
        let c = MetricsCollector::new(8, WarmupPolicy::None);
        let r = c.report(0, 0);
        let header_fields = SimulationReport::csv_header().split(',').count();
        let row_fields = r.csv_row().split(',').count();
        assert_eq!(header_fields, row_fields);
    }

    #[test]
    fn reinjection_queue_peak_tracks_maximum() {
        let mut c = MetricsCollector::new(8, WarmupPolicy::None);
        c.on_reinjection_queue_depth(2);
        c.on_reinjection_queue_depth(7);
        c.on_reinjection_queue_depth(3);
        assert_eq!(c.report(1, 0).reinjection_queue_peak, 7);
    }
}
