//! Uniform random node-fault injection.
//!
//! The experiments in Figs. 3, 4, 6 and 7 of the paper use "random failed
//! nodes ... determined using a uniform random number generator" under the
//! constraint (assumption (h)) that faults never disconnect the network.
//! [`random_node_faults`] samples such placements: it draws `nf` distinct
//! nodes uniformly at random and resamples the whole placement if the healthy
//! subgraph would be disconnected.

use crate::model::FaultSet;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use torus_topology::{AnyTopology, FatTreeNode, Network, NodeId};

/// Errors produced by random fault injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RandomFaultError {
    /// More faults were requested than nodes exist (or all nodes would fail).
    TooManyFaults {
        /// Requested number of faulty nodes.
        requested: usize,
        /// Number of nodes in the network.
        nodes: usize,
    },
    /// No connectivity-preserving placement was found within the retry budget.
    NoConnectedPlacement {
        /// Requested number of faulty nodes.
        requested: usize,
        /// Number of placements tried.
        attempts: usize,
    },
    /// A clustered placement named a dimension the network does not have.
    DimensionOutOfRange {
        /// Requested dimension index.
        dim: usize,
        /// Dimensionality of the network.
        dims: usize,
    },
    /// A clustered placement's slab of planes exceeds the dimension's extent.
    /// Slabs never wrap, even on wrapped dimensions, so the same scenario
    /// means the same node set on a torus and on the matching mesh.
    SlabOutOfRange {
        /// First plane of the slab.
        plane: u16,
        /// Number of consecutive planes in the slab.
        width: u16,
        /// Radix of the dimension the slab lies in.
        radix: u16,
    },
    /// Switch faults were requested on a topology without switch nodes
    /// (every grid node is an endpoint; only indirect topologies have a
    /// switch fabric to fail).
    NoSwitchNodes {
        /// Display form of the offending topology.
        topology: String,
    },
}

impl fmt::Display for RandomFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RandomFaultError::TooManyFaults { requested, nodes } => write!(
                f,
                "cannot fail {requested} nodes in a network of {nodes} nodes"
            ),
            RandomFaultError::NoConnectedPlacement {
                requested,
                attempts,
            } => write!(
                f,
                "no connectivity-preserving placement of {requested} faults found in {attempts} attempts"
            ),
            RandomFaultError::DimensionOutOfRange { dim, dims } => write!(
                f,
                "clustered faults name dimension {dim} of a {dims}-dimensional network"
            ),
            RandomFaultError::SlabOutOfRange {
                plane,
                width,
                radix,
            } => write!(
                f,
                "fault slab [{plane}, {}) exceeds the dimension's extent {radix}",
                *plane as u32 + *width as u32
            ),
            RandomFaultError::NoSwitchNodes { topology } => write!(
                f,
                "switch faults requested on {topology}, which has no switch nodes"
            ),
        }
    }
}

impl std::error::Error for RandomFaultError {}

/// Maximum number of placements tried before giving up.
const MAX_ATTEMPTS: usize = 1000;

/// Shared sampling loop: draws `nf` distinct nodes from the candidate set,
/// resampling the whole placement until the healthy subgraph of the network
/// stays connected (or the retry budget runs out).
fn sample_connected<R: Rng + ?Sized>(
    net: &AnyTopology,
    mut ids: Vec<NodeId>,
    nf: usize,
    rng: &mut R,
) -> Result<FaultSet, RandomFaultError> {
    for _ in 0..MAX_ATTEMPTS {
        ids.shuffle(rng);
        let mut f = FaultSet::new();
        f.fail_nodes(ids[..nf].iter().copied());
        if f.preserves_connectivity(net) {
            return Ok(f);
        }
    }
    Err(RandomFaultError::NoConnectedPlacement {
        requested: nf,
        attempts: MAX_ATTEMPTS,
    })
}

/// Samples `nf` distinct faulty nodes uniformly at random such that the
/// healthy subgraph remains connected.
///
/// "Node" here means a processing element: faults are drawn from the
/// topology's endpoints. On grids every node is an endpoint, so this is the
/// paper's uniform sampler; on a fat-tree only the compute endpoints below
/// the leaf switches are candidates (use [`random_switch_faults`] to fail
/// the switch fabric).
///
/// Passing `nf == 0` returns an empty fault set. The placement is a function
/// of the supplied RNG only, so experiments are reproducible from their seed.
///
/// # Errors
/// Fails if `nf` is not smaller than the number of endpoints, or if no
/// connectivity-preserving placement is found within an internal retry budget
/// (practically impossible for the fault densities used in the paper — at
/// most 20 faults in a 64..512-node net).
pub fn random_node_faults<R: Rng + ?Sized>(
    net: &AnyTopology,
    nf: usize,
    rng: &mut R,
) -> Result<FaultSet, RandomFaultError> {
    if nf == 0 {
        return Ok(FaultSet::new());
    }
    let n = net.num_endpoints();
    if nf >= n {
        return Err(RandomFaultError::TooManyFaults {
            requested: nf,
            nodes: n,
        });
    }
    sample_connected(net, net.endpoints().collect(), nf, rng)
}

/// Samples `nf` distinct faulty *switches* uniformly at random on an indirect
/// topology, such that the healthy subgraph remains connected.
///
/// Candidates are restricted to switches at level 1 and above: a leaf switch
/// is the single attachment point of its `k` endpoints, so failing one always
/// disconnects them — the connectivity retry loop would reject every such
/// placement. Upper-level switches are exactly the components the up*/down*
/// fault handling must route around.
///
/// # Errors
/// Fails with [`RandomFaultError::NoSwitchNodes`] on topologies without a
/// switch fabric (grids), with `TooManyFaults` if `nf` is not smaller than
/// the number of candidate switches, or with `NoConnectedPlacement` when the
/// retry budget runs out.
pub fn random_switch_faults<R: Rng + ?Sized>(
    net: &AnyTopology,
    nf: usize,
    rng: &mut R,
) -> Result<FaultSet, RandomFaultError> {
    let Some(ft) = net.fat_tree() else {
        return Err(RandomFaultError::NoSwitchNodes {
            topology: net.to_string(),
        });
    };
    if nf == 0 {
        return Ok(FaultSet::new());
    }
    let ids: Vec<NodeId> = net
        .nodes()
        .filter(|&n| matches!(ft.classify(n), FatTreeNode::Switch { level, .. } if level >= 1))
        .collect();
    if nf >= ids.len() {
        return Err(RandomFaultError::TooManyFaults {
            requested: nf,
            nodes: ids.len(),
        });
    }
    sample_connected(net, ids, nf, rng)
}

/// Samples `nf` distinct faulty nodes uniformly at random *within a slab of
/// planes along one dimension*, such that the healthy subgraph of the whole
/// network remains connected.
///
/// This is the per-dimension fault-density knob: all faults have their digit
/// along `dim` in `[plane, plane + width)`, so a sweep over `dim`/`width`
/// exposes how a routing scheme degrades when faults cluster along one axis
/// instead of spreading uniformly. `width == radix(dim)` recovers the uniform
/// sampler. The slab never wraps — it is validated against the dimension's
/// extent exactly like a shaped fault region on an open dimension — so the
/// same scenario denotes the same node set on a torus and the matching mesh.
///
/// `grid` is `net`'s grid backend: the slab is drawn in its coordinates,
/// and connectivity is checked on `net`.
///
/// # Errors
/// Fails if `dim` is out of range, the slab exceeds the dimension's extent,
/// the slab holds fewer than `nf` candidate nodes, or no
/// connectivity-preserving placement is found within the retry budget.
pub(crate) fn clustered_node_faults<R: Rng + ?Sized>(
    net: &AnyTopology,
    grid: &Network,
    nf: usize,
    dim: usize,
    plane: u16,
    width: u16,
    rng: &mut R,
) -> Result<FaultSet, RandomFaultError> {
    if dim >= grid.dims() {
        return Err(RandomFaultError::DimensionOutOfRange {
            dim,
            dims: grid.dims(),
        });
    }
    let radix = grid.radix(dim);
    if width == 0 || plane >= radix || radix - plane < width {
        return Err(RandomFaultError::SlabOutOfRange {
            plane,
            width,
            radix,
        });
    }
    if nf == 0 {
        return Ok(FaultSet::new());
    }
    let ids: Vec<NodeId> = net
        .nodes()
        .filter(|&n| {
            let p = grid.position(n, dim);
            p >= plane && p < plane + width
        })
        .collect();
    // More faults than candidate nodes is impossible; failing every node of
    // the network is always invalid. Failing an entire slab is allowed —
    // a boundary slab can leave the rest of the network connected, and the
    // connectivity retry loop decides each concrete placement.
    if nf > ids.len() || nf >= net.num_nodes() {
        return Err(RandomFaultError::TooManyFaults {
            requested: nf,
            nodes: ids.len(),
        });
    }
    sample_connected(net, ids, nf, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_faults_is_empty() {
        let t = AnyTopology::torus(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let f = random_node_faults(&t, 0, &mut rng).unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn requested_count_is_honoured_and_connected() {
        let t = AnyTopology::torus(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for nf in [1, 3, 5, 10, 20] {
            let f = random_node_faults(&t, nf, &mut rng).unwrap();
            assert_eq!(f.num_faulty_nodes(), nf);
            assert!(f.preserves_connectivity(&t));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let t = AnyTopology::torus(8, 3).unwrap();
        let a = random_node_faults(&t, 12, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = random_node_faults(&t, 12, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a.faulty_nodes_sorted(), b.faulty_nodes_sorted());
        let c = random_node_faults(&t, 12, &mut StdRng::seed_from_u64(8)).unwrap();
        assert_ne!(a.faulty_nodes_sorted(), c.faulty_nodes_sorted());
    }

    #[test]
    fn too_many_faults_is_an_error() {
        let t = AnyTopology::torus(4, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            random_node_faults(&t, 4, &mut rng),
            Err(RandomFaultError::TooManyFaults { .. })
        ));
        assert!(matches!(
            random_node_faults(&t, 9, &mut rng),
            Err(RandomFaultError::TooManyFaults { .. })
        ));
    }

    #[test]
    fn clustered_faults_land_in_the_requested_slab() {
        let t = AnyTopology::torus(8, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for (dim, plane, width) in [(0usize, 2u16, 1u16), (1, 5, 2), (2, 0, 3)] {
            let f = clustered_node_faults(&t, t.grid().unwrap(), 6, dim, plane, width, &mut rng)
                .unwrap();
            assert_eq!(f.num_faulty_nodes(), 6);
            assert!(f.preserves_connectivity(&t));
            for n in f.faulty_nodes_sorted() {
                let p = t.grid().unwrap().position(n, dim);
                assert!(
                    p >= plane && p < plane + width,
                    "fault at digit {p} outside slab [{plane}, {})",
                    plane + width
                );
            }
        }
        // Full-width slab degenerates to the uniform sampler's support.
        let f = clustered_node_faults(&t, t.grid().unwrap(), 4, 0, 0, 8, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 4);
    }

    #[test]
    fn clustered_faults_work_on_open_dimensions() {
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let f = clustered_node_faults(&m, m.grid().unwrap(), 3, 1, 6, 2, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 3);
        assert!(f.preserves_connectivity(&m));
        for n in f.faulty_nodes_sorted() {
            assert!(m.grid().unwrap().position(n, 1) >= 6);
        }
    }

    #[test]
    fn clustered_faults_validate_dim_and_slab() {
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            clustered_node_faults(&m, m.grid().unwrap(), 2, 5, 0, 1, &mut rng),
            Err(RandomFaultError::DimensionOutOfRange { dim: 5, dims: 2 })
        ));
        // A slab overhanging the extent is rejected, not wrapped — even on a
        // wrapped dimension.
        let t = AnyTopology::torus(8, 2).unwrap();
        for net in [&m, &t] {
            assert!(matches!(
                clustered_node_faults(net, net.grid().unwrap(), 2, 0, 6, 3, &mut rng),
                Err(RandomFaultError::SlabOutOfRange {
                    plane: 6,
                    width: 3,
                    radix: 8
                })
            ));
        }
        assert!(matches!(
            clustered_node_faults(&m, m.grid().unwrap(), 2, 0, 0, 0, &mut rng),
            Err(RandomFaultError::SlabOutOfRange { .. })
        ));
        // The slab-overflow error renders without panicking even at the
        // extremes of the u16 domain.
        let err =
            clustered_node_faults(&m, m.grid().unwrap(), 1, 0, u16::MAX, 2, &mut rng).unwrap_err();
        assert!(err.to_string().contains("exceeds the dimension's extent"));
        // More faults than slab candidates.
        assert!(matches!(
            clustered_node_faults(&m, m.grid().unwrap(), 9, 0, 3, 1, &mut rng),
            Err(RandomFaultError::TooManyFaults {
                requested: 9,
                nodes: 8
            })
        ));
        assert!(
            clustered_node_faults(&m, m.grid().unwrap(), 0, 0, 3, 1, &mut rng)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn failing_an_entire_boundary_slab_is_allowed_when_connectivity_survives() {
        // The whole boundary column of a mesh can fail: the remaining 7
        // columns stay connected.
        let m = AnyTopology::mesh(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let f = clustered_node_faults(&m, m.grid().unwrap(), 8, 0, 7, 1, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 8);
        assert!(f.preserves_connectivity(&m));
        for n in f.faulty_nodes_sorted() {
            assert_eq!(m.grid().unwrap().position(n, 0), 7);
        }
    }

    #[test]
    fn switch_faults_target_upper_levels_only() {
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let tree = ft.fat_tree().unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let f = random_switch_faults(&ft, 2, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 2);
        assert!(f.preserves_connectivity(&ft));
        for n in f.faulty_nodes_sorted() {
            assert!(
                matches!(tree.classify(n), FatTreeNode::Switch { level, .. } if level >= 1),
                "fault {n:?} is not an upper-level switch"
            );
        }
        // Grids have no switch fabric to fail.
        let grid = AnyTopology::torus(4, 2).unwrap();
        assert!(matches!(
            random_switch_faults(&grid, 1, &mut rng),
            Err(RandomFaultError::NoSwitchNodes { .. })
        ));
        // Requesting every upper switch (or more) is rejected: 4 top switches
        // on ft:4,2, and failing all of them would disconnect the tree.
        assert!(matches!(
            random_switch_faults(&ft, 4, &mut rng),
            Err(RandomFaultError::TooManyFaults { .. })
        ));
        assert!(random_switch_faults(&ft, 0, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn node_faults_on_fat_trees_hit_endpoints_only() {
        let ft = AnyTopology::fat_tree_new(2, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let f = random_node_faults(&ft, 3, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 3);
        assert!(f.preserves_connectivity(&ft));
        for n in f.faulty_nodes_sorted() {
            assert!(ft.is_endpoint(n), "fault {n:?} is not an endpoint");
        }
    }
}
