//! Serialisable fault scenarios.
//!
//! A [`FaultScenario`] is a declarative description of the fault configuration
//! of one experiment: either a number of uniformly random node faults (Figs.
//! 3, 4, 6, 7), an explicit shaped fault region (Fig. 5), an explicit list of
//! faulty nodes, or no faults at all. The experiment harness resolves a
//! scenario into a concrete [`FaultSet`] with [`FaultScenario::realize`],
//! which validates region placements against the network's per-dimension
//! radices and wrap flags.

use crate::model::FaultSet;
use crate::random::{
    clustered_node_faults, random_node_faults, random_switch_faults, RandomFaultError,
};
use crate::regions::{FaultRegion, RegionPlacementError, RegionShape};
use rand::Rng;
use std::fmt;
use torus_topology::{AnyTopology, Coord, Network};

/// Errors produced when resolving a [`FaultScenario`] on a concrete network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultScenarioError {
    /// Random node-fault injection failed.
    Random(RandomFaultError),
    /// A shaped region does not fit the network.
    Region(RegionPlacementError),
    /// The scenario is defined in grid coordinates (planes, slabs) but the
    /// topology is indirect and has none.
    UnsupportedTopology {
        /// Label of the scenario kind that was rejected.
        scenario: String,
        /// Display form of the offending topology.
        topology: String,
    },
}

impl fmt::Display for FaultScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultScenarioError::Random(e) => write!(f, "{e}"),
            FaultScenarioError::Region(e) => write!(f, "{e}"),
            FaultScenarioError::UnsupportedTopology { scenario, topology } => write!(
                f,
                "{scenario} fault scenarios are defined in grid coordinates and cannot \
                 be realized on {topology}"
            ),
        }
    }
}

impl std::error::Error for FaultScenarioError {}

impl From<RandomFaultError> for FaultScenarioError {
    fn from(e: RandomFaultError) -> Self {
        FaultScenarioError::Random(e)
    }
}

impl From<RegionPlacementError> for FaultScenarioError {
    fn from(e: RegionPlacementError) -> Self {
        FaultScenarioError::Region(e)
    }
}

/// A declarative fault configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultScenario {
    /// No faulty components (the fault-free baseline, nf = 0).
    None,
    /// `count` random node faults, sampled uniformly while preserving
    /// connectivity.
    RandomNodes {
        /// Number of faulty nodes.
        count: usize,
    },
    /// `count` random node faults clustered along one axis: every fault's
    /// digit along `dim` lies in `[plane, plane + width)`. This is the
    /// per-dimension fault-density knob — `width == radix(dim)` degenerates
    /// to [`FaultScenario::RandomNodes`], `width == 1` concentrates every
    /// fault in a single cross-section plane. The slab is validated against
    /// the dimension's extent (never silently wrapped), like shaped regions.
    ClusteredNodes {
        /// Number of faulty nodes.
        count: usize,
        /// The dimension the slab cuts across.
        dim: usize,
        /// First plane of the slab along `dim`.
        plane: u16,
        /// Number of consecutive planes in the slab.
        width: u16,
    },
    /// A shaped fault region anchored at a coordinate in a dimension plane.
    Region {
        /// The region shape.
        shape: RegionShape,
        /// Anchor digits of the shape's (0,0) cell.
        anchor: Vec<u16>,
        /// The two dimensions spanning the region's plane.
        plane: (usize, usize),
    },
    /// `count` random *switch* faults on an indirect topology, sampled
    /// uniformly from the switches at level 1 and above while preserving
    /// connectivity (leaf switches are the single attachment point of their
    /// endpoints, so they are never candidates). Rejected with a typed error
    /// on grids, which have no switch fabric.
    RandomSwitches {
        /// Number of faulty switches.
        count: usize,
    },
}

impl FaultScenario {
    /// `count` random node faults: [`FaultScenario::None`] at 0, so a
    /// fault-count sweep starts at the fault-free baseline.
    pub fn random_nodes(count: usize) -> Self {
        if count == 0 {
            FaultScenario::None
        } else {
            FaultScenario::RandomNodes { count }
        }
    }

    /// A shaped region placed in the (0, 1) plane roughly at the centre of the
    /// network, the placement used for the Fig. 5 experiments. Centring keeps
    /// the region inside the extent of both plane dimensions, so the same
    /// scenario is valid on tori and meshes alike (as long as the shape fits).
    pub fn centered_region(net: &Network, shape: RegionShape) -> Self {
        let (w, h) = shape.bounding_box();
        let ax = net.radix(0).saturating_sub(w) / 2;
        let ay = net.radix(1).saturating_sub(h) / 2;
        let mut anchor = vec![0u16; net.dims()];
        anchor[0] = ax;
        anchor[1] = ay;
        FaultScenario::Region {
            shape,
            anchor,
            plane: (0, 1),
        }
    }

    /// Nominal number of faulty nodes the scenario describes.
    pub fn fault_count(&self) -> usize {
        match self {
            FaultScenario::None => 0,
            FaultScenario::RandomNodes { count } => *count,
            FaultScenario::ClusteredNodes { count, .. } => *count,
            FaultScenario::Region { shape, .. } => shape.node_count(),
            FaultScenario::RandomSwitches { count } => *count,
        }
    }

    /// Short label used in result tables (for example `"nf=5"` or
    /// `"T-shaped"`).
    pub fn label(&self) -> String {
        match self {
            FaultScenario::None => "nf=0".to_string(),
            FaultScenario::RandomNodes { count } => format!("nf={count}"),
            FaultScenario::ClusteredNodes {
                count, dim, width, ..
            } => format!("nf={count} (dim {dim}, {width}-plane slab)"),
            FaultScenario::Region { shape, .. } => {
                format!("{} (nf={})", shape.name(), shape.node_count())
            }
            FaultScenario::RandomSwitches { count } => format!("nsf={count}"),
        }
    }

    /// Resolves the scenario into a concrete [`FaultSet`] on the given
    /// network.
    ///
    /// Randomised scenarios draw from `rng`, so experiments are reproducible
    /// from the seed recorded in their configuration. Region scenarios are
    /// validated against the network's per-dimension bounds.
    pub fn realize<R: Rng + ?Sized>(
        &self,
        net: &AnyTopology,
        rng: &mut R,
    ) -> Result<FaultSet, FaultScenarioError> {
        match self {
            FaultScenario::None => Ok(FaultSet::new()),
            FaultScenario::RandomNodes { count } => Ok(random_node_faults(net, *count, rng)?),
            FaultScenario::ClusteredNodes {
                count,
                dim,
                plane,
                width,
            } => {
                let grid = self.require_grid(net)?;
                Ok(clustered_node_faults(
                    net, grid, *count, *dim, *plane, *width, rng,
                )?)
            }
            FaultScenario::Region {
                shape,
                anchor,
                plane,
            } => {
                let grid = self.require_grid(net)?;
                let region = FaultRegion {
                    shape: *shape,
                    anchor: Coord::new(anchor.clone()),
                    plane: *plane,
                };
                Ok(region.to_fault_set(grid)?)
            }
            FaultScenario::RandomSwitches { count } => Ok(random_switch_faults(net, *count, rng)?),
        }
    }

    /// Grid view required by the coordinate-based scenarios, or the typed
    /// rejection on indirect topologies.
    fn require_grid<'a>(&self, net: &'a AnyTopology) -> Result<&'a Network, FaultScenarioError> {
        net.grid().ok_or_else(|| {
            let scenario = match self {
                FaultScenario::ClusteredNodes { .. } => "clustered-node",
                FaultScenario::Region { .. } => "shaped-region",
                _ => "grid-coordinate",
            };
            FaultScenarioError::UnsupportedTopology {
                scenario: scenario.to_string(),
                topology: net.to_string(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_scenario() {
        let t = AnyTopology::torus(8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for s in [FaultScenario::None, FaultScenario::random_nodes(0)] {
            assert_eq!(s, FaultScenario::None);
            assert!(s.realize(&t, &mut rng).unwrap().is_empty());
            assert_eq!(s.fault_count(), 0);
            assert_eq!(s.label(), "nf=0");
        }
    }

    #[test]
    fn random_scenario_matches_count() {
        let t = AnyTopology::torus(8, 2).unwrap();
        for (s, count) in [
            (FaultScenario::RandomNodes { count: 5 }, 5),
            (FaultScenario::random_nodes(3), 3),
        ] {
            assert_eq!(s, FaultScenario::RandomNodes { count });
            let mut rng = StdRng::seed_from_u64(9);
            let f = s.realize(&t, &mut rng).unwrap();
            assert_eq!(f.num_faulty_nodes(), count);
            assert_eq!(s.fault_count(), count);
            assert_eq!(s.label(), format!("nf={count}"));
        }
    }

    #[test]
    fn centered_region_scenario() {
        let t = Network::torus(8, 2).unwrap();
        let s = FaultScenario::centered_region(&t, RegionShape::paper_u_8());
        assert_eq!(s.fault_count(), 8);
        assert!(s.label().starts_with("U-shaped"));
        let any = AnyTopology::from(t);
        let mut rng = StdRng::seed_from_u64(0);
        let f = s.realize(&any, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 8);
        assert!(f.preserves_connectivity(&any));
    }

    #[test]
    fn centered_region_fits_meshes_and_mixed_shapes() {
        // Centring keeps the region inside the grid, so the same scenario
        // realizes on a mesh without silent wrapping.
        let m = Network::mesh(8, 2).unwrap();
        let s = FaultScenario::centered_region(&m, RegionShape::paper_u_8());
        let any = AnyTopology::from(m);
        let mut rng = StdRng::seed_from_u64(0);
        let f = s.realize(&any, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 8);

        // A region too wide for an open dimension is rejected with a region
        // placement error rather than wrapped.
        let s = FaultScenario::Region {
            shape: RegionShape::Rect {
                width: 3,
                height: 3,
            },
            anchor: vec![6, 6],
            plane: (0, 1),
        };
        assert!(matches!(
            s.realize(&any, &mut rng).unwrap_err(),
            FaultScenarioError::Region(RegionPlacementError::ExceedsExtent { .. })
        ));
    }

    #[test]
    fn clustered_scenario_realizes_in_the_requested_plane() {
        let any = AnyTopology::mesh(8, 2).unwrap();
        let s = FaultScenario::ClusteredNodes {
            count: 4,
            dim: 0,
            plane: 2,
            width: 2,
        };
        assert_eq!(s.fault_count(), 4);
        assert_eq!(s.label(), "nf=4 (dim 0, 2-plane slab)");
        let mut rng = StdRng::seed_from_u64(5);
        let f = s.realize(&any, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 4);
        for n in f.faulty_nodes_sorted() {
            let p = any.grid().unwrap().position(n, 0);
            assert!((2..4).contains(&p));
        }
        // Overhanging slabs surface the typed random-fault error.
        let bad = FaultScenario::ClusteredNodes {
            count: 2,
            dim: 1,
            plane: 7,
            width: 2,
        };
        assert!(matches!(
            bad.realize(&any, &mut rng).unwrap_err(),
            FaultScenarioError::Random(crate::random::RandomFaultError::SlabOutOfRange { .. })
        ));
    }

    #[test]
    fn switch_scenario_and_grid_rejections_on_fat_trees() {
        let ft = AnyTopology::fat_tree_new(4, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let s = FaultScenario::RandomSwitches { count: 2 };
        assert_eq!(s.fault_count(), 2);
        assert_eq!(s.label(), "nsf=2");
        let f = s.realize(&ft, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 2);
        assert!(f.preserves_connectivity(&ft));
        // Grid-coordinate scenarios are rejected with the typed error.
        let clustered = FaultScenario::ClusteredNodes {
            count: 2,
            dim: 0,
            plane: 0,
            width: 1,
        };
        assert!(matches!(
            clustered.realize(&ft, &mut rng).unwrap_err(),
            FaultScenarioError::UnsupportedTopology { .. }
        ));
        let region = FaultScenario::Region {
            shape: RegionShape::Rect {
                width: 2,
                height: 2,
            },
            anchor: vec![0, 0],
            plane: (0, 1),
        };
        let err = region.realize(&ft, &mut rng).unwrap_err();
        assert!(err.to_string().contains("cannot be realized on ft:4,2"));
        // Switch faults on a grid are rejected through the random-fault error.
        let grid = AnyTopology::torus(4, 2).unwrap();
        assert!(matches!(
            s.realize(&grid, &mut rng).unwrap_err(),
            FaultScenarioError::Random(RandomFaultError::NoSwitchNodes { .. })
        ));
    }

    #[test]
    fn region_scenario_in_3d_plane() {
        let t = AnyTopology::torus(8, 3).unwrap();
        let s = FaultScenario::Region {
            shape: RegionShape::Rect {
                width: 2,
                height: 3,
            },
            anchor: vec![0, 0, 4],
            plane: (1, 2),
        };
        let mut rng = StdRng::seed_from_u64(0);
        let f = s.realize(&t, &mut rng).unwrap();
        assert_eq!(f.num_faulty_nodes(), 6);
    }
}
