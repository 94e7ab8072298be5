//! Throughput accounting.
//!
//! Throughput in the paper (Fig. 6) is "the rate at which messages are
//! delivered by the network for a particular traffic pattern ... measured by
//! counting the messages that arrive at destination over a time interval".
//! [`ThroughputMeter`] counts delivered messages and flits over the
//! measurement window and normalises them per node per cycle.

/// Counts deliveries over a measurement window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThroughputMeter {
    window_start: Option<u64>,
    delivered_messages: u64,
    delivered_flits: u64,
    offered_messages: u64,
}

impl ThroughputMeter {
    /// Creates an idle meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the beginning of the measurement window, which stays open for
    /// the rest of the run.
    pub fn start_window(&mut self, cycle: u64) {
        self.window_start = Some(cycle);
        self.delivered_messages = 0;
        self.delivered_flits = 0;
        self.offered_messages = 0;
    }

    /// Records a message offered to the network during the window.
    pub fn record_offered(&mut self) {
        if self.window_start.is_some() {
            self.offered_messages += 1;
        }
    }

    /// Records a delivered message of `flits` flits at `cycle`.
    pub fn record_delivery(&mut self, cycle: u64, flits: u32) {
        if let Some(start) = self.window_start {
            if cycle >= start {
                self.delivered_messages += 1;
                self.delivered_flits += flits as u64;
            }
        }
    }

    /// Messages delivered during the window.
    pub fn delivered_messages(&self) -> u64 {
        self.delivered_messages
    }

    /// Length of the measurement window in cycles, up to `now`.
    pub fn window_cycles(&self, now: u64) -> u64 {
        self.window_start.map_or(0, |s| now.saturating_sub(s))
    }

    /// Delivered messages per node per cycle.
    pub fn message_throughput(&self, num_nodes: usize, now: u64) -> f64 {
        let cycles = self.window_cycles(now);
        if cycles == 0 || num_nodes == 0 {
            return 0.0;
        }
        self.delivered_messages as f64 / (cycles as f64 * num_nodes as f64)
    }

    /// Delivered flits per node per cycle (channel utilisation view).
    pub fn flit_throughput(&self, num_nodes: usize, now: u64) -> f64 {
        let cycles = self.window_cycles(now);
        if cycles == 0 || num_nodes == 0 {
            return 0.0;
        }
        self.delivered_flits as f64 / (cycles as f64 * num_nodes as f64)
    }

    /// Fraction of offered messages that were delivered inside the window
    /// (1.0 when nothing was offered).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.offered_messages == 0 {
            1.0
        } else {
            self.delivered_messages as f64 / self.offered_messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_normalisation() {
        let mut m = ThroughputMeter::new();
        m.start_window(1000);
        for c in 1000..2000 {
            if c % 10 == 0 {
                m.record_delivery(c, 32);
            }
        }
        // 100 messages over 1000 cycles and 64 nodes
        assert_eq!(m.delivered_messages(), 100);
        let thr = m.message_throughput(64, 2000);
        assert!((thr - 100.0 / (1000.0 * 64.0)).abs() < 1e-12);
        let fthr = m.flit_throughput(64, 2000);
        assert!((fthr - 3200.0 / (1000.0 * 64.0)).abs() < 1e-12);
    }

    #[test]
    fn deliveries_outside_window_are_ignored() {
        let mut m = ThroughputMeter::new();
        m.record_delivery(5, 8); // before start_window: ignored
        m.start_window(10);
        m.record_delivery(9, 8); // before window: ignored
        m.record_delivery(10, 8);
        assert_eq!(m.delivered_messages(), 1);
    }

    #[test]
    fn open_window_uses_current_cycle() {
        let mut m = ThroughputMeter::new();
        m.start_window(0);
        m.record_delivery(5, 4);
        assert_eq!(m.window_cycles(50), 50);
        assert!((m.message_throughput(10, 50) - 1.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn acceptance_ratio() {
        let mut m = ThroughputMeter::new();
        m.start_window(0);
        for _ in 0..10 {
            m.record_offered();
        }
        for c in 0..7 {
            m.record_delivery(c, 1);
        }
        assert!((m.acceptance_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(ThroughputMeter::new().acceptance_ratio(), 1.0);
    }

    #[test]
    fn idle_meter_reports_zero() {
        let m = ThroughputMeter::new();
        assert_eq!(m.message_throughput(64, 100), 0.0);
        assert_eq!(m.flit_throughput(64, 100), 0.0);
        assert_eq!(m.window_cycles(10), 0);
    }
}
