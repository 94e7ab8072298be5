//! Switch-allocation request sets: which input slots want which output port.
//!
//! The switch allocator grants each network output port to at most one input
//! virtual channel per cycle, round-robin from a per-port pointer. Every
//! input VC is bound to at most one output port, so one pass over a router's
//! input slots can post all requests ([`SwitchRequests::request`]) and each
//! port then finds its winner with a cyclic bit-scan from its pointer
//! ([`SwitchRequests::winner`]) — the same slot a probe of every slot in
//! rotating order would find, at a fraction of the work.
//!
//! A port's requests are a run of `u64` words sized for the router's slot
//! count, so nothing here assumes the slots fit one machine word (a 3-D
//! router with 10 VCs has 70 slots, a 7-cube with 10 VCs has 150).

/// The request sets of one router, one per network output port. Built once
/// per engine and reused for every router and cycle.
#[derive(Clone, Debug)]
pub struct SwitchRequests {
    words_per_port: usize,
    bits: Vec<u64>,
    any: bool,
}

impl SwitchRequests {
    /// Empty request sets for `num_ports` output ports over `num_slots` input
    /// slots.
    pub fn new(num_ports: usize, num_slots: usize) -> Self {
        let words_per_port = num_slots.div_ceil(64);
        SwitchRequests {
            words_per_port,
            bits: vec![0; num_ports * words_per_port],
            any: false,
        }
    }

    /// Withdraws every request.
    #[inline]
    pub fn clear(&mut self) {
        if self.any {
            self.bits.fill(0);
            self.any = false;
        }
    }

    /// Input slot `slot` requests output port `port`.
    #[inline]
    pub fn request(&mut self, port: usize, slot: usize) {
        self.bits[port * self.words_per_port + slot / 64] |= 1u64 << (slot % 64);
        self.any = true;
    }

    /// True when at least one request has been posted since the last
    /// [`clear`](SwitchRequests::clear).
    #[inline]
    pub fn any(&self) -> bool {
        self.any
    }

    /// The first slot requesting `port` at or after `start`, wrapping around
    /// to the slots below `start`.
    #[inline]
    pub fn winner(&self, port: usize, start: usize) -> Option<usize> {
        let words = &self.bits[port * self.words_per_port..][..self.words_per_port];
        let (first, below_start) = (start / 64, (1u64 << (start % 64)) - 1);
        let lowest =
            |w: usize, word: u64| (word != 0).then(|| w * 64 + word.trailing_zeros() as usize);
        lowest(first, words[first] & !below_start)
            .or_else(|| (first + 1..words.len()).find_map(|w| lowest(w, words[w])))
            .or_else(|| (0..first).find_map(|w| lowest(w, words[w])))
            .or_else(|| lowest(first, words[first] & below_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The allocator's original winner selection: probe every slot in
    /// rotating order from `start` and take the first that requests.
    fn rotating_probe_winner(requesting: &[bool], start: usize) -> Option<usize> {
        let total_slots = requesting.len();
        (0..total_slots)
            .map(|offset| (start + offset) % total_slots)
            .find(|&flat| requesting[flat])
    }

    #[test]
    fn bit_scan_agrees_with_the_rotating_probe() {
        // 2-D V=4 (20 slots), 3-D V=4 (28), 3-D V=10 (70: two words) and the
        // 7-cube with V=10 (150: three words).
        let mut rng = StdRng::seed_from_u64(0xA5B1);
        for num_slots in [20usize, 28, 70, 150] {
            let num_ports = 4;
            let mut requests = SwitchRequests::new(num_ports, num_slots);
            for round in 0..400 {
                // Sweep the density from empty to nearly full.
                let density = f64::from(round % 20) / 20.0;
                // Each slot requests at most one port, as an input VC does.
                let wanted: Vec<Option<usize>> = (0..num_slots)
                    .map(|_| rng.gen_bool(density).then(|| rng.gen_range(0..num_ports)))
                    .collect();
                requests.clear();
                for (slot, port) in wanted.iter().enumerate() {
                    if let Some(port) = *port {
                        requests.request(port, slot);
                    }
                }
                let requesting: Vec<Vec<bool>> = (0..num_ports)
                    .map(|port| wanted.iter().map(|&w| w == Some(port)).collect())
                    .collect();
                assert_eq!(requests.any(), requesting.iter().flatten().any(|&r| r));
                for (port, requesting) in requesting.iter().enumerate() {
                    for start in [0, 1, 63, 64, 65, num_slots / 2, num_slots - 1] {
                        let start = start.min(num_slots - 1);
                        assert_eq!(
                            requests.winner(port, start),
                            rotating_probe_winner(requesting, start),
                            "{num_slots} slots, port {port}, start {start}"
                        );
                    }
                    let start = rng.gen_range(0..num_slots);
                    assert_eq!(
                        requests.winner(port, start),
                        rotating_probe_winner(requesting, start)
                    );
                }
            }
        }
    }

    #[test]
    fn every_single_request_is_found_from_every_start() {
        for num_slots in [1usize, 20, 64, 70, 128, 150] {
            let mut requests = SwitchRequests::new(1, num_slots);
            for slot in 0..num_slots {
                requests.clear();
                requests.request(0, slot);
                for start in 0..num_slots {
                    assert_eq!(requests.winner(0, start), Some(slot));
                }
            }
        }
    }

    #[test]
    fn clear_withdraws_requests() {
        let mut requests = SwitchRequests::new(2, 70);
        assert!(!requests.any());
        assert_eq!(requests.winner(1, 5), None);
        requests.request(1, 69);
        assert!(requests.any());
        assert_eq!(requests.winner(1, 5), Some(69));
        assert_eq!(requests.winner(0, 5), None);
        requests.clear();
        assert!(!requests.any());
        assert_eq!(requests.winner(1, 5), None);
    }
}
