//! Switch-allocation request sets: which input slots want which output port.
//!
//! The switch allocator grants each network output port to at most one input
//! virtual channel per cycle, round-robin from a per-port pointer. Every
//! input VC is bound to at most one output port, so one pass over a router's
//! occupied input slots can post all requests ([`SwitchRequests::request`])
//! and each requested port then finds its winner with a cyclic bit-scan from
//! its pointer ([`SwitchRequests::winner`]) — the same slot a probe of every
//! slot in rotating order would find, at a fraction of the work.
//!
//! The set of requested ports is kept beside the requests
//! ([`SwitchRequests::requested_ports_in`]), so granting and clearing touch
//! only the ports that were asked for: below the knee that is one or two of a
//! router's `2n`.
//!
//! A port's requests are a run of `u64` words sized for the router's slot
//! count, and the port set is sized for the port count, so nothing here
//! assumes either fits one machine word (a 3-D router with 10 VCs has 70
//! slots, a 7-cube with 10 VCs has 150; `ft:33,1`'s switch has 66 ports).

use crate::active::{ActiveSet, WordIndices};

/// The request sets of one router, one per network output port. Built once
/// per engine and reused for every router and cycle.
#[derive(Clone, Debug)]
pub struct SwitchRequests {
    words_per_port: usize,
    bits: Vec<u64>,
    /// The ports with at least one request.
    ports: ActiveSet,
}

impl SwitchRequests {
    /// Empty request sets for `num_ports` output ports over `num_slots` input
    /// slots.
    pub fn new(num_ports: usize, num_slots: usize) -> Self {
        let words_per_port = num_slots.div_ceil(64);
        SwitchRequests {
            words_per_port,
            bits: vec![0; num_ports * words_per_port],
            ports: ActiveSet::new(num_ports),
        }
    }

    /// Withdraws every request, zeroing only the ports that were requested.
    #[inline]
    pub fn clear(&mut self) {
        for w in 0..self.ports.num_words() {
            for port in self.ports.word_indices(w) {
                self.bits[port * self.words_per_port..][..self.words_per_port].fill(0);
            }
        }
        self.ports.clear();
    }

    /// Input slot `slot` requests output port `port`.
    #[inline]
    pub fn request(&mut self, port: usize, slot: usize) {
        self.bits[port * self.words_per_port + slot / 64] |= 1u64 << (slot % 64);
        self.ports.insert(port);
    }

    /// Number of 64-port words of the requested-port set.
    #[inline]
    pub fn port_words(&self) -> usize {
        self.ports.num_words()
    }

    /// The requested ports of word `w` of the port set, ascending; the grant
    /// loop walks every word (see [`ActiveSet::word_indices`]).
    #[inline]
    pub fn requested_ports_in(&self, w: usize) -> WordIndices {
        self.ports.word_indices(w)
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

    /// The requested ports, in the order the grant loop visits them.
    fn requested_ports(requests: &SwitchRequests) -> Vec<usize> {
        (0..requests.port_words())
            .flat_map(|w| requests.requested_ports_in(w))
            .collect()
    }

    /// True when `requests` holds no request at all.
    fn withdrawn(requests: &SwitchRequests, num_ports: usize, num_slots: usize) -> bool {
        requested_ports(requests).is_empty()
            && (0..num_ports).all(|port| (0..num_slots).all(|s| requests.winner(port, s).is_none()))
    }

    #[test]
    fn bit_scan_agrees_with_the_rotating_probe() {
        // (ports, slots): 2-D V=4 (20 slots), 3-D V=4 (28), 3-D V=10 (70: two
        // words) and the 7-cube with V=10 (150: three words) over four
        // ports; then ft:33,1's switch, whose 66 ports span two words, at V=1
        // (67 slots) and V=2 (134).
        let mut rng = StdRng::seed_from_u64(0xA5B1);
        for (num_ports, num_slots) in [(4, 20), (4, 28), (4, 70), (4, 150), (66, 67), (66, 134)] {
            let mut requests = SwitchRequests::new(num_ports, num_slots);
            for round in 0..400 {
                // Sweep the density from empty to nearly full.
                let density = f64::from(round % 20) / 20.0;
                // Each slot requests at most one port, as an input VC does.
                let wanted: Vec<Option<usize>> = (0..num_slots)
                    .map(|_| rng.gen_bool(density).then(|| rng.gen_range(0..num_ports)))
                    .collect();
                for (slot, port) in wanted.iter().enumerate() {
                    if let Some(port) = *port {
                        requests.request(port, slot);
                    }
                }
                let requesting: Vec<Vec<bool>> = (0..num_ports)
                    .map(|port| wanted.iter().map(|&w| w == Some(port)).collect())
                    .collect();
                let expected_ports: Vec<usize> = (0..num_ports)
                    .filter(|&port| requesting[port].contains(&true))
                    .collect();
                assert_eq!(
                    requested_ports(&requests),
                    expected_ports,
                    "{num_ports} ports"
                );
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
                requests.clear();
                assert!(
                    withdrawn(&requests, num_ports, num_slots),
                    "{num_ports} ports, {num_slots} slots, round {round}"
                );
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
        let mut requests = SwitchRequests::new(66, 70);
        assert!(withdrawn(&requests, 66, 70));
        requests.request(1, 69);
        requests.request(65, 3);
        assert_eq!(requested_ports(&requests), [1, 65]);
        assert_eq!(requests.winner(1, 5), Some(69));
        assert_eq!(requests.winner(65, 5), Some(3));
        assert_eq!(requests.winner(0, 5), None);
        requests.clear();
        assert!(withdrawn(&requests, 66, 70));
    }
}
