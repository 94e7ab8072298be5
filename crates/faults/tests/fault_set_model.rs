//! `FaultSet` against a model: two `HashSet`s — faulty nodes and faulty
//! directed channels — and the definition of a usable channel spelled out
//! over them. Seeded random node and link faults on a torus, a mesh (whose
//! edge channels do not exist), `ft:4,3` and `ft:33,1` (whose up-port indices
//! reach past 32) must get the same answer to every query, and `merge`,
//! equality, the link count and the sorted node listing must follow the
//! model's set operations.

use std::collections::HashSet;
use torus_faults::FaultSet;
use torus_topology::{AnyTopology, DirectedChannel, Direction, NodeId};

/// The reference: what a fault set means, with nothing dense about it.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
struct Model {
    nodes: HashSet<NodeId>,
    channels: HashSet<(NodeId, usize, Direction)>,
}

impl Model {
    fn fail_link(&mut self, net: &AnyTopology, from: NodeId, dim: usize, dir: Direction) {
        if let Some(to) = net.neighbor(from, dim, dir) {
            self.channels.insert((from, dim, dir));
            self.channels.insert((to, dim, dir.opposite()));
        }
    }

    fn channel_faulty(&self, net: &AnyTopology, ch: DirectedChannel) -> bool {
        match net.neighbor(ch.from, ch.dim, ch.dir) {
            None => true,
            Some(to) => {
                self.nodes.contains(&ch.from)
                    || self.nodes.contains(&to)
                    || self.channels.contains(&(ch.from, ch.dim, ch.dir))
            }
        }
    }

    fn merge(&mut self, other: &Model) {
        self.nodes.extend(other.nodes.iter().copied());
        self.channels.extend(other.channels.iter().copied());
    }
}

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// A random fault set and its model: up to `max_nodes` node faults and up
/// to `max_links` link faults, in random order, repeats included. Half the
/// link faults fail a uniformly drawn existing channel, so every port index
/// (`ft:33,1`'s port 32 too) gets hit; the other half draw a node and a
/// port, which on meshes and fat-trees often names no channel at all.
fn random_faults(
    net: &AnyTopology,
    rng: &mut Rng,
    max_nodes: usize,
    max_links: usize,
) -> (FaultSet, Model) {
    let channels: Vec<DirectedChannel> = net.channels().collect();
    let mut faults = FaultSet::new();
    let mut model = Model::default();
    let (nodes, links) = (rng.below(max_nodes + 1), rng.below(max_links + 1));
    let mut events: Vec<bool> = [vec![true; nodes], vec![false; links]].concat();
    for i in (1..events.len()).rev() {
        events.swap(i, rng.below(i + 1));
    }
    for is_node in events {
        let node = NodeId::from_index(rng.below(net.num_nodes()));
        if is_node {
            faults.fail_node(node);
            model.nodes.insert(node);
        } else {
            let ch = if rng.below(2) == 0 {
                channels[rng.below(channels.len())]
            } else {
                DirectedChannel::new(node, rng.below(net.dims()), Direction::BOTH[rng.below(2)])
            };
            faults.fail_link(net, ch.from, ch.dim, ch.dir);
            model.fail_link(net, ch.from, ch.dim, ch.dir);
        }
    }
    (faults, model)
}

/// Every query `FaultSet` answers, on every node and every channel slot.
fn assert_answers_like(net: &AnyTopology, faults: &FaultSet, model: &Model, label: &str) {
    for node in (0..net.num_nodes()).map(NodeId::from_index) {
        assert_eq!(
            faults.is_node_faulty(node),
            model.nodes.contains(&node),
            "{label}: is_node_faulty({node:?})"
        );
        for dim in 0..net.dims() {
            for dir in Direction::BOTH {
                let ch = DirectedChannel::new(node, dim, dir);
                let expected = model.channel_faulty(net, ch);
                assert_eq!(
                    faults.is_channel_faulty(net, ch),
                    expected,
                    "{label}: is_channel_faulty({ch})"
                );
                assert_eq!(
                    faults.output_usable(net, node, dim, dir),
                    !expected,
                    "{label}: output_usable({ch})"
                );
            }
        }
    }
    assert_eq!(faults.num_faulty_nodes(), model.nodes.len(), "{label}");
    assert_eq!(
        faults.num_faulty_links(),
        model.channels.len() / 2,
        "{label}"
    );
    assert_eq!(faults.is_empty(), *model == Model::default(), "{label}");
    let mut sorted: Vec<NodeId> = model.nodes.iter().copied().collect();
    sorted.sort();
    assert_eq!(faults.faulty_nodes_sorted(), sorted, "{label}");
    assert_eq!(
        faults.faulty_nodes().collect::<Vec<_>>(),
        sorted,
        "{label}: faulty_nodes() ascends"
    );
}

#[test]
fn fault_set_answers_like_the_hash_set_model() {
    let nets = [
        ("torus:8x8", AnyTopology::torus(8, 2).unwrap()),
        ("mesh:5x3", AnyTopology::mesh(5, 3).unwrap()),
        ("ft:4,3", AnyTopology::fat_tree_new(4, 3).unwrap()),
        ("ft:33,1", AnyTopology::fat_tree_new(33, 1).unwrap()),
    ];
    let mut rng = Rng(0x5EED);
    let mut equal_pairs = 0;
    for (name, net) in &nets {
        for case in 0..40 {
            let label = format!("{name} case {case}");
            let (mut a, mut model_a) = random_faults(net, &mut rng, 6, 8);
            assert_answers_like(net, &a, &model_a, &label);

            // A second set over the same faults, inserted in reverse order
            // (so its storage grows differently), or a fresh random one.
            let (b, model_b) = if rng.below(3) == 0 {
                let mut b = FaultSet::new();
                let mut nodes = model_a.nodes.iter().copied().collect::<Vec<_>>();
                nodes.sort();
                b.fail_nodes(nodes.into_iter().rev());
                let mut links = model_a.channels.iter().copied().collect::<Vec<_>>();
                links.sort_by_key(|&(n, d, dir)| (n, d, dir.index()));
                for &(node, dim, dir) in links.iter().rev() {
                    b.fail_link(net, node, dim, dir);
                }
                (b, model_a.clone())
            } else {
                random_faults(net, &mut rng, 6, 8)
            };
            assert_answers_like(net, &b, &model_b, &format!("{label} (b)"));
            assert_eq!(a == b, model_a == model_b, "{label}: equality");
            equal_pairs += usize::from(model_a == model_b);

            a.merge(&b);
            model_a.merge(&model_b);
            assert_answers_like(net, &a, &model_a, &format!("{label} merged"));
            let mut b_then_a = b.clone();
            b_then_a.merge(&a);
            assert_eq!(b_then_a, a, "{label}: merge is a union");
        }
    }
    assert!(equal_pairs > 10, "{equal_pairs} equal pairs compared");
}
