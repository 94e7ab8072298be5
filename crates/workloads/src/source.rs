//! Per-node traffic sources.
//!
//! A [`TrafficSource`] is one node's Poisson arrival process, its uniform
//! choice of healthy destination and the fixed message length. The simulator
//! polls a source at the cycles its arrival process is due and injects the
//! returned messages into that node's source queue.

use crate::arrival::PoissonArrivals;
use rand::Rng;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, NodeId};

/// Declarative description of the workload applied to every node.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// Mean generation rate λ in messages/node/cycle (Poisson process).
    pub rate: f64,
    /// Length of every message, in flits. Zero is a configuration error the
    /// simulator rejects when it validates its configuration.
    pub length: u32,
}

impl TrafficSpec {
    /// The paper's workload: Poisson arrivals at rate λ, uniform random
    /// destinations, fixed message length of `message_length` flits.
    pub fn paper(rate: f64, message_length: u32) -> Self {
        TrafficSpec {
            rate,
            length: message_length,
        }
    }

    /// Instantiates the per-node traffic source for `node`.
    pub fn source_for(&self, node: NodeId) -> TrafficSource {
        TrafficSource {
            node,
            arrivals: PoissonArrivals::new(self.rate),
            length: self.length,
        }
    }
}

/// A message requested by a traffic source, before it enters the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeneratedMessage {
    /// Source node.
    pub src: NodeId,
    /// Destination node (healthy, different from the source).
    pub dest: NodeId,
    /// Message length in flits.
    pub length: u32,
    /// Cycle in which the message was generated.
    pub generated_at: u64,
}

/// Per-node message generator.
#[derive(Clone, Debug)]
pub struct TrafficSource {
    node: NodeId,
    arrivals: PoissonArrivals,
    length: u32,
}

impl TrafficSource {
    /// Earliest cycle at which this source can generate its next message, or
    /// `None` when it never fires again (zero rate).
    ///
    /// Calling [`TrafficSource::generate`] for any earlier cycle is a no-op
    /// that draws nothing from the RNG, so a simulator may skip straight to
    /// the returned cycle without changing the random stream (see
    /// `PoissonArrivals::next_due_cycle`).
    pub fn next_due_cycle(&self) -> Option<u64> {
        self.arrivals.next_due_cycle()
    }

    /// Messages generated by this node during `cycle`.
    ///
    /// Faulty sources generate nothing; destinations are always healthy nodes
    /// different from the source (paper assumption: only healthy PEs exchange
    /// messages).
    pub fn generate<R: Rng + ?Sized>(
        &mut self,
        net: &AnyTopology,
        faults: &FaultSet,
        cycle: u64,
        rng: &mut R,
    ) -> Vec<GeneratedMessage> {
        if faults.is_node_faulty(self.node) {
            return Vec::new();
        }
        let count = self.arrivals.arrivals_in_cycle(cycle, rng);
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let Some(dest) = uniform_healthy_destination(net, faults, self.node, rng) else {
                continue;
            };
            out.push(GeneratedMessage {
                src: self.node,
                dest,
                length: self.length,
                generated_at: cycle,
            });
        }
        out
    }
}

/// Uniformly random healthy endpoint different from `src`, or `None` when
/// `src` is the only healthy endpoint.
fn uniform_healthy_destination<R: Rng + ?Sized>(
    net: &AnyTopology,
    faults: &FaultSet,
    src: NodeId,
    rng: &mut R,
) -> Option<NodeId> {
    // Endpoints occupy the dense id range `0..num_endpoints` on every
    // topology (grids: all nodes; fat-trees: processing nodes before the
    // switch fabric), so endpoint sampling is direct.
    let n = net.num_endpoints() as u32;
    let faulty_endpoints = faults
        .faulty_nodes()
        .filter(|&f| net.is_endpoint(f))
        .count();
    let healthy = n as usize - faulty_endpoints;
    if healthy <= 1 {
        return None;
    }
    // Rejection sampling: the fault density in all experiments is tiny
    // (< 10 %), so this terminates almost immediately.
    for _ in 0..64 {
        let cand = NodeId(rng.gen_range(0..n));
        if cand != src && !faults.is_node_faulty(cand) {
            return Some(cand);
        }
    }
    // Extremely unlikely fallback: scan deterministically.
    net.endpoints()
        .find(|c| *c != src && !faults.is_node_faulty(*c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_spec_produces_expected_messages() {
        let t = AnyTopology::torus(8, 2).unwrap();
        let f = FaultSet::new();
        let spec = TrafficSpec::paper(0.01, 32);
        let src_node = t.grid().unwrap().node_from_digits(&[2, 2]).unwrap();
        let mut source = spec.source_for(src_node);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0usize;
        for cycle in 0..100_000 {
            for m in source.generate(&t, &f, cycle, &mut rng) {
                assert_eq!(m.src, src_node);
                assert_ne!(m.dest, src_node);
                assert_eq!(m.length, 32);
                assert_eq!(m.generated_at, cycle);
                total += 1;
            }
        }
        let rate = total as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.002, "measured rate {rate}");
    }

    #[test]
    fn faulty_source_is_silent() {
        let t = AnyTopology::torus(8, 2).unwrap();
        let mut f = FaultSet::new();
        let node = t.grid().unwrap().node_from_digits(&[1, 1]).unwrap();
        f.fail_node(node);
        let mut source = TrafficSpec::paper(0.5, 16).source_for(node);
        let mut rng = StdRng::seed_from_u64(7);
        for cycle in 0..1000 {
            assert!(source.generate(&t, &f, cycle, &mut rng).is_empty());
        }
    }

    #[test]
    fn destinations_avoid_faulty_nodes() {
        let t = AnyTopology::torus(8, 2).unwrap();
        let mut f = FaultSet::new();
        let bad = t.grid().unwrap().node_from_digits(&[4, 4]).unwrap();
        f.fail_node(bad);
        let mut source = TrafficSpec::paper(0.8, 8)
            .source_for(t.grid().unwrap().node_from_digits(&[0, 0]).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        for cycle in 0..5000 {
            for m in source.generate(&t, &f, cycle, &mut rng) {
                assert_ne!(m.dest, bad);
            }
        }
    }

    #[test]
    fn next_due_cycle_tracks_arrivals() {
        let t = AnyTopology::torus(4, 2).unwrap();
        let f = FaultSet::new();
        let mut source = TrafficSpec::paper(0.02, 8).source_for(NodeId(0));
        assert_eq!(
            source.next_due_cycle(),
            Some(0),
            "fresh source is due at once"
        );
        let mut rng = StdRng::seed_from_u64(3);
        for cycle in 0..1000 {
            let due = source.next_due_cycle().expect("positive rate");
            let generated = source.generate(&t, &f, cycle, &mut rng);
            if cycle < due {
                assert!(generated.is_empty(), "cycle {cycle} before due {due}");
            }
        }
        assert_eq!(
            TrafficSpec::paper(0.0, 8)
                .source_for(NodeId(1))
                .next_due_cycle(),
            None
        );
    }

    #[test]
    fn fat_tree_sources_address_every_healthy_endpoint_only() {
        // Switches are never destinations, a faulty endpoint never is, and
        // every other healthy endpoint is reached.
        let t = AnyTopology::fat_tree_new(4, 2).unwrap();
        let mut f = FaultSet::new();
        f.fail_node(NodeId(7));
        let mut source = TrafficSpec::paper(0.8, 8).source_for(NodeId(2));
        let mut rng = StdRng::seed_from_u64(13);
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..5000 {
            for m in source.generate(&t, &f, cycle, &mut rng) {
                assert!(t.is_endpoint(m.dest), "picked switch {:?}", m.dest);
                assert_ne!(m.dest, m.src);
                assert_ne!(m.dest, NodeId(7), "picked the faulty node");
                seen.insert(m.dest);
            }
        }
        assert_eq!(seen.len(), t.num_endpoints() - 2);
    }

    #[test]
    fn uniform_destinations_are_roughly_uniform() {
        let t = AnyTopology::torus(8, 2).unwrap();
        let f = FaultSet::new();
        let src = t.grid().unwrap().node_from_digits(&[3, 3]).unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let mut counts = vec![0u32; t.num_nodes()];
        let draws = 63_000;
        for _ in 0..draws {
            counts[uniform_healthy_destination(&t, &f, src, &mut rng)
                .unwrap()
                .index()] += 1;
        }
        let expected = draws as f64 / 63.0;
        for (i, &c) in counts.iter().enumerate() {
            if i == src.index() {
                assert_eq!(c, 0);
            } else {
                assert!(
                    (c as f64 - expected).abs() < expected * 0.25,
                    "node {i}: {c} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn no_destination_when_alone() {
        let t = AnyTopology::torus(2, 1).unwrap();
        let mut f = FaultSet::new();
        f.fail_node(NodeId(1));
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            uniform_healthy_destination(&t, &f, NodeId(0), &mut rng),
            None
        );
    }
}
