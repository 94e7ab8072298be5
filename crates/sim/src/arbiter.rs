//! Switch allocation: which input slot each output port grants this cycle.
//!
//! The switch allocator grants each network output port to at most one input
//! virtual channel per cycle, round-robin from a per-port pointer: the winner
//! is the first requesting slot at or after the pointer or, when there is
//! none, the first requesting slot. Every input VC is bound to at most one
//! output port, so one pass over a router's routed input slots posts all
//! requests ([`SwitchRequests::request`]).
//!
//! That pass visits the slots in ascending order, so each port's winner is
//! chosen as its requests arrive: the port's first request wins, and a later
//! one takes over only when it is the first at or after the pointer while the
//! winner so far lies below it. The result is the slot a probe of every slot
//! in rotating order from the pointer would find, and no per-port request set
//! is stored, cleared or scanned. Requests must therefore arrive in ascending
//! slot order; debug builds assert it.
//!
//! The set of requested ports is kept beside the winners
//! ([`SwitchRequests::requested_ports_in`]), so granting and clearing touch
//! only the ports that were asked for: below the knee that is one or two of a
//! router's `2n`. The port set is sized for the port count, so nothing here
//! assumes it fits one machine word (`ft:33,1`'s switch has 66 ports).

use crate::active::{ActiveSet, WordIndices};

/// The switch requests of one router: the requested output ports and each
/// one's winner. Built once per engine and reused for every router and cycle.
#[derive(Clone, Debug)]
pub struct SwitchRequests {
    /// The ports with at least one request.
    ports: ActiveSet,
    /// Per port, the winning input slot so far; meaningful for requested
    /// ports only.
    winners: Vec<usize>,
    /// The slot of the latest request since the last clear.
    #[cfg(debug_assertions)]
    last_slot: Option<usize>,
}

impl SwitchRequests {
    /// No requests, for `num_ports` output ports.
    pub fn new(num_ports: usize) -> Self {
        SwitchRequests {
            ports: ActiveSet::new(num_ports),
            winners: vec![0; num_ports],
            #[cfg(debug_assertions)]
            last_slot: None,
        }
    }

    /// Withdraws every request.
    #[inline]
    pub fn clear(&mut self) {
        self.ports.clear();
        #[cfg(debug_assertions)]
        {
            self.last_slot = None;
        }
    }

    /// Input slot `slot` requests output port `port`, whose round-robin
    /// pointer is `pointer`. Slots must request in ascending order.
    #[inline]
    pub fn request(&mut self, port: usize, slot: usize, pointer: usize) {
        #[cfg(debug_assertions)]
        {
            assert!(
                !matches!(self.last_slot, Some(last) if last >= slot),
                "switch requests must arrive in ascending slot order: slot {slot} after {:?}",
                self.last_slot
            );
            self.last_slot = Some(slot);
        }
        let winner = &mut self.winners[port];
        if !self.ports.contains(port) {
            self.ports.insert(port);
            *winner = slot;
        } else if *winner < pointer && slot >= pointer {
            *winner = slot;
        }
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

    /// The slot requested port `port` grants: its first requesting slot at or
    /// after the pointer it was requested with, wrapping around to the slots
    /// below it.
    #[inline]
    pub fn winner(&self, port: usize) -> usize {
        debug_assert!(self.ports.contains(port), "port {port} has no request");
        self.winners[port]
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

    /// Clears `requests` and posts `wanted` (per slot, the port it requests)
    /// in ascending slot order, each request with its port's pointer.
    fn post(requests: &mut SwitchRequests, wanted: &[Option<usize>], pointers: &[usize]) {
        requests.clear();
        for (slot, port) in wanted.iter().enumerate() {
            if let Some(port) = *port {
                requests.request(port, slot, pointers[port]);
            }
        }
    }

    #[test]
    fn winner_on_arrival_agrees_with_the_rotating_probe() {
        // (ports, slots): 2-D V=4 (20 slots), 3-D V=4 (28), 3-D V=10 (70) and
        // the 7-cube with V=10 (150) over four ports; then ft:33,1's switch,
        // whose 66 ports span two words, at V=1 (67 slots) and V=2 (134).
        let mut rng = StdRng::seed_from_u64(0xA5B1);
        for (num_ports, num_slots) in [(4, 20), (4, 28), (4, 70), (4, 150), (66, 67), (66, 134)] {
            let mut requests = SwitchRequests::new(num_ports);
            for round in 0..400 {
                // Sweep the density from empty to nearly full.
                let density = f64::from(round % 20) / 20.0;
                // Each slot requests at most one port, as an input VC does.
                let wanted: Vec<Option<usize>> = (0..num_slots)
                    .map(|_| rng.gen_bool(density).then(|| rng.gen_range(0..num_ports)))
                    .collect();
                let requesting: Vec<Vec<bool>> = (0..num_ports)
                    .map(|port| wanted.iter().map(|&w| w == Some(port)).collect())
                    .collect();
                let expected_ports: Vec<usize> = (0..num_ports)
                    .filter(|&port| requesting[port].contains(&true))
                    .collect();
                // Every port's pointer at one of the word edges, then each
                // port at a pointer of its own.
                let shared = [0, 1, 63, 64, 65, num_slots / 2, num_slots - 1]
                    .map(|start| vec![start.min(num_slots - 1); num_ports]);
                let own: Vec<usize> = (0..num_ports)
                    .map(|_| rng.gen_range(0..num_slots))
                    .collect();
                for pointers in shared.into_iter().chain([own]) {
                    post(&mut requests, &wanted, &pointers);
                    assert_eq!(
                        requested_ports(&requests),
                        expected_ports,
                        "{num_ports} ports"
                    );
                    for &port in &expected_ports {
                        assert_eq!(
                            Some(requests.winner(port)),
                            rotating_probe_winner(&requesting[port], pointers[port]),
                            "{num_slots} slots, port {port}, pointer {}",
                            pointers[port]
                        );
                    }
                }
                requests.clear();
                assert!(
                    requested_ports(&requests).is_empty(),
                    "{num_ports} ports, {num_slots} slots, round {round}"
                );
            }
        }
    }

    #[test]
    fn every_single_request_is_found_from_every_pointer() {
        for num_slots in [1usize, 20, 64, 70, 128, 150] {
            let mut requests = SwitchRequests::new(1);
            for slot in 0..num_slots {
                for pointer in 0..num_slots {
                    requests.clear();
                    requests.request(0, slot, pointer);
                    assert_eq!(requests.winner(0), slot);
                }
            }
        }
    }

    #[test]
    fn clear_withdraws_requests() {
        let mut requests = SwitchRequests::new(66);
        assert!(requested_ports(&requests).is_empty());
        requests.request(65, 3, 5);
        requests.request(1, 69, 5);
        assert_eq!(requested_ports(&requests), [1, 65]);
        assert_eq!(requests.winner(1), 69);
        assert_eq!(requests.winner(65), 3);
        requests.clear();
        assert!(requested_ports(&requests).is_empty());
        // A port requested again starts afresh: the old winner, below the
        // pointer, does not outlive the clear.
        requests.request(65, 1, 5);
        assert_eq!(requests.winner(65), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ascending slot order")]
    fn requests_out_of_slot_order_are_caught() {
        let mut requests = SwitchRequests::new(4);
        requests.request(0, 7, 0);
        requests.request(2, 5, 0);
    }
}
