//! Parametric fault-region generators.
//!
//! Adjacent faulty nodes coalesce into *fault regions*. The paper (Section 3,
//! Fig. 1 and Fig. 5) distinguishes **convex** regions — `|`-shaped,
//! `||`-shaped and `□`-shaped blocks — from **concave** regions — `L`, `U`,
//! `+`, `T` and `H`-shaped patterns. Concave regions are harder to route
//! around and therefore cost more latency (Fig. 5).
//!
//! Shapes are described as sets of cells in a two-dimensional plane of the
//! network; [`FaultRegion`] anchors a shape at a coordinate and maps the cells
//! onto concrete nodes. Placement is validated against the per-dimension
//! radices: a region may wrap around a *wrapped* dimension, but a shape whose
//! bounding box exceeds a dimension's extent — or overhangs the edge of an
//! open (mesh) dimension — is rejected instead of being wrapped silently.

use crate::model::FaultSet;
use std::fmt;
use torus_topology::{Coord, Network, NetworkError, NodeId};

/// A parametric 2-D fault-region shape.
///
/// Cell sets are expressed as `(x, y)` offsets with `x` along the first plane
/// dimension and `y` along the second. All lengths are in nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionShape {
    /// `□`-shaped block fault of `width × height` nodes (convex).
    Rect {
        /// Extent along the first plane dimension.
        width: u16,
        /// Extent along the second plane dimension.
        height: u16,
    },
    /// `|`-shaped fault: a single column of `length` nodes (convex).
    Bar {
        /// Number of nodes in the column.
        length: u16,
    },
    /// `||`-shaped fault: two adjacent columns of `length` nodes (convex).
    DoubleBar {
        /// Number of nodes in each column.
        length: u16,
    },
    /// `L`-shaped fault: a vertical arm and a horizontal arm sharing a corner
    /// (concave).
    LShape {
        /// Nodes in the vertical arm (including the corner).
        vertical: u16,
        /// Nodes in the horizontal arm (including the corner).
        horizontal: u16,
    },
    /// `U`-shaped fault: two vertical arms joined by a bottom row (concave).
    UShape {
        /// Width of the bottom row (distance between the two arms, inclusive).
        width: u16,
        /// Height of the two vertical arms (including the bottom corners).
        height: u16,
    },
    /// `T`-shaped fault: a horizontal bar with a vertical stem hanging from
    /// its centre (concave).
    TShape {
        /// Nodes in the horizontal bar.
        bar: u16,
        /// Nodes in the vertical stem (not counting the bar row).
        stem: u16,
    },
    /// `+`-shaped fault: a horizontal and a vertical bar crossing near their
    /// centres (concave). The horizontal bar may be more than one node thick,
    /// which is how the paper's 16-node `+` region fits inside an 8-ary ring.
    PlusShape {
        /// Nodes along the horizontal bar.
        horizontal: u16,
        /// Nodes along the vertical bar.
        vertical: u16,
        /// Thickness (rows) of the horizontal bar.
        thickness: u16,
    },
    /// `H`-shaped fault: two vertical bars joined by a horizontal row at mid
    /// height (concave).
    HShape {
        /// Width of the connecting row (distance between the two bars,
        /// inclusive).
        width: u16,
        /// Height of the two vertical bars.
        height: u16,
    },
}

impl RegionShape {
    /// The `(x, y)` cells covered by the shape, relative to its anchor.
    ///
    /// Cells are returned deduplicated and sorted, so `cells().len()` is the
    /// number of faulty nodes the shape produces.
    pub fn cells(&self) -> Vec<(u16, u16)> {
        let mut cells: Vec<(u16, u16)> = match *self {
            RegionShape::Rect { width, height } => (0..width)
                .flat_map(|x| (0..height).map(move |y| (x, y)))
                .collect(),
            RegionShape::Bar { length } => (0..length).map(|y| (0, y)).collect(),
            RegionShape::DoubleBar { length } => (0..2u16)
                .flat_map(|x| (0..length).map(move |y| (x, y)))
                .collect(),
            RegionShape::LShape {
                vertical,
                horizontal,
            } => {
                let mut v: Vec<(u16, u16)> = (0..vertical).map(|y| (0, y)).collect();
                v.extend((0..horizontal).map(|x| (x, 0)));
                v
            }
            RegionShape::UShape { width, height } => {
                let mut v: Vec<(u16, u16)> = Vec::new();
                for y in 0..height {
                    v.push((0, y));
                    v.push((width.saturating_sub(1), y));
                }
                for x in 0..width {
                    v.push((x, 0));
                }
                v
            }
            RegionShape::TShape { bar, stem } => {
                let mut v: Vec<(u16, u16)> = (0..bar).map(|x| (x, stem)).collect();
                let centre = bar / 2;
                v.extend((0..stem).map(|y| (centre, y)));
                v
            }
            RegionShape::PlusShape {
                horizontal,
                vertical,
                thickness,
            } => {
                let y0 = vertical / 2;
                let mut v: Vec<(u16, u16)> = (0..horizontal)
                    .flat_map(|x| (0..thickness.max(1)).map(move |t| (x, y0 + t)))
                    .collect();
                v.extend((0..vertical).map(|y| (horizontal / 2, y)));
                v
            }
            RegionShape::HShape { width, height } => {
                let mut v: Vec<(u16, u16)> = Vec::new();
                for y in 0..height {
                    v.push((0, y));
                    v.push((width.saturating_sub(1), y));
                }
                for x in 0..width {
                    v.push((x, height / 2));
                }
                v
            }
        };
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    /// Number of faulty nodes the shape produces.
    pub fn node_count(&self) -> usize {
        self.cells().len()
    }

    /// Bounding box `(width, height)` of the shape.
    pub fn bounding_box(&self) -> (u16, u16) {
        let cells = self.cells();
        let w = cells.iter().map(|c| c.0).max().map_or(0, |m| m + 1);
        let h = cells.iter().map(|c| c.1).max().map_or(0, |m| m + 1);
        (w, h)
    }

    /// Short human-readable name used in reports ("rect-shaped", "T-shaped",
    /// ...).
    pub fn name(&self) -> &'static str {
        match self {
            RegionShape::Rect { .. } => "rect-shaped",
            RegionShape::Bar { .. } => "|-shaped",
            RegionShape::DoubleBar { .. } => "||-shaped",
            RegionShape::LShape { .. } => "L-shaped",
            RegionShape::UShape { .. } => "U-shaped",
            RegionShape::TShape { .. } => "T-shaped",
            RegionShape::PlusShape { .. } => "Plus-shaped",
            RegionShape::HShape { .. } => "H-shaped",
        }
    }

    /// ASCII rendering of the shape (rows top to bottom), used by the
    /// `fault_regions` example to reproduce Fig. 1.
    pub fn render_ascii(&self) -> String {
        let cells = self.cells();
        let (w, h) = self.bounding_box();
        let mut out = String::new();
        for y in (0..h).rev() {
            for x in 0..w {
                if cells.contains(&(x, y)) {
                    out.push('#');
                } else {
                    out.push('.');
                }
            }
            out.push('\n');
        }
        out
    }

    /// Shrinks the shape — preserving its kind — until its bounding box fits
    /// inside `max_w × max_h`, or returns `None` when no structurally
    /// meaningful instance of the kind fits.
    ///
    /// A shape that already fits is returned unchanged. Each kind keeps the
    /// minimum extents below which it degenerates into a different kind (a
    /// 2-node bar is still a bar; a 1-node bar is not; a `+` needs at least
    /// a 3×3 cross to stay concave), so a scaled region still exercises the
    /// routing behaviour its Fig. 5 label names. Used by the figure harness
    /// to keep the Fig. 5 sweep meaningful on shapes smaller than the
    /// paper's 8×8 torus.
    pub fn scaled_to_fit(&self, max_w: u16, max_h: u16) -> Option<RegionShape> {
        let scaled = match *self {
            RegionShape::Rect { width, height } => {
                let (width, height) = (width.min(max_w), height.min(max_h));
                if width == 0 || height == 0 || u32::from(width) * u32::from(height) < 2 {
                    return None;
                }
                RegionShape::Rect { width, height }
            }
            RegionShape::Bar { length } => {
                let length = length.min(max_h);
                if length < 2 {
                    return None;
                }
                RegionShape::Bar { length }
            }
            RegionShape::DoubleBar { length } => {
                let length = length.min(max_h);
                if max_w < 2 || length < 2 {
                    return None;
                }
                RegionShape::DoubleBar { length }
            }
            RegionShape::LShape {
                vertical,
                horizontal,
            } => {
                let (vertical, horizontal) = (vertical.min(max_h), horizontal.min(max_w));
                if vertical < 2 || horizontal < 2 {
                    return None;
                }
                RegionShape::LShape {
                    vertical,
                    horizontal,
                }
            }
            RegionShape::UShape { width, height } => {
                let (width, height) = (width.min(max_w), height.min(max_h));
                if width < 3 || height < 2 {
                    return None;
                }
                RegionShape::UShape { width, height }
            }
            RegionShape::TShape { bar, stem } => {
                let bar = bar.min(max_w);
                let stem = stem.min(max_h.saturating_sub(1));
                if bar < 3 || stem < 1 {
                    return None;
                }
                RegionShape::TShape { bar, stem }
            }
            RegionShape::PlusShape {
                horizontal,
                vertical,
                thickness,
            } => {
                let (horizontal, vertical) = (horizontal.min(max_w), vertical.min(max_h));
                if horizontal < 3 || vertical < 3 {
                    return None;
                }
                // The bar sits at rows vertical/2 .. vertical/2 + thickness;
                // thin it until it stays inside the vertical extent.
                let headroom = max_h - vertical / 2;
                let thickness = thickness.max(1).min(headroom);
                if thickness == 0 {
                    return None;
                }
                RegionShape::PlusShape {
                    horizontal,
                    vertical,
                    thickness,
                }
            }
            RegionShape::HShape { width, height } => {
                let (width, height) = (width.min(max_w), height.min(max_h));
                if width < 3 || height < 3 {
                    return None;
                }
                RegionShape::HShape { width, height }
            }
        };
        let (w, h) = scaled.bounding_box();
        (w <= max_w && h <= max_h).then_some(scaled)
    }

    // ----- The exact configurations used in Fig. 5 of the paper -----

    /// The 20-node `□`-shaped (rectangular) region of Fig. 5.
    pub fn paper_rect_20() -> Self {
        RegionShape::Rect {
            width: 4,
            height: 5,
        }
    }

    /// The 10-node `T`-shaped region of Fig. 5.
    pub fn paper_t_10() -> Self {
        RegionShape::TShape { bar: 5, stem: 5 }
    }

    /// The 16-node `+`-shaped region of Fig. 5 (a cross with a two-node-thick
    /// horizontal bar, so it fits inside the 8-ary rings of the 8×8 torus).
    pub fn paper_plus_16() -> Self {
        RegionShape::PlusShape {
            horizontal: 6,
            vertical: 6,
            thickness: 2,
        }
    }

    /// The 9-node `L`-shaped region of Fig. 5.
    pub fn paper_l_9() -> Self {
        RegionShape::LShape {
            vertical: 5,
            horizontal: 5,
        }
    }

    /// The 8-node `U`-shaped region of Fig. 5.
    pub fn paper_u_8() -> Self {
        RegionShape::UShape {
            width: 4,
            height: 3,
        }
    }

    /// All five Fig. 5 regions with their paper labels, in the order of the
    /// figure's legend.
    pub fn paper_fig5_regions() -> Vec<(RegionShape, &'static str)> {
        vec![
            (Self::paper_rect_20(), "rect-shaped"),
            (Self::paper_t_10(), "T-shaped"),
            (Self::paper_plus_16(), "Plus-shaped"),
            (Self::paper_l_9(), "L-shaped"),
            (Self::paper_u_8(), "U-shaped"),
        ]
    }
}

/// Errors produced when validating the placement of a [`FaultRegion`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegionPlacementError {
    /// A plane dimension index is outside the network's dimensionality.
    PlaneDimOutOfRange {
        /// The offending dimension index.
        dim: usize,
        /// The network's dimensionality.
        dims: usize,
    },
    /// The two plane dimensions coincide.
    DegeneratePlane(usize),
    /// The anchor coordinate is not a valid node address.
    Anchor(NetworkError),
    /// The shape's bounding box does not fit the dimension: it is wider than
    /// the dimension's whole extent, or it overhangs the edge of an open
    /// (non-wrapping) dimension. Regions are rejected instead of being
    /// wrapped or truncated silently.
    ExceedsExtent {
        /// The dimension the shape does not fit in.
        dim: usize,
        /// Radix (extent) of that dimension.
        extent: u16,
        /// First position the shape would need beyond the last valid one
        /// (`anchor + bounding_box` for open dims, `bounding_box` for rings).
        /// Wider than the radix type so the sum cannot overflow on large
        /// open dimensions.
        needed: u32,
    },
}

impl fmt::Display for RegionPlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionPlacementError::PlaneDimOutOfRange { dim, dims } => {
                write!(
                    f,
                    "plane dimension {dim} out of range for a {dims}-D network"
                )
            }
            RegionPlacementError::DegeneratePlane(dim) => {
                write!(f, "region plane uses dimension {dim} twice")
            }
            RegionPlacementError::Anchor(e) => write!(f, "invalid region anchor: {e}"),
            RegionPlacementError::ExceedsExtent {
                dim,
                extent,
                needed,
            } => write!(
                f,
                "region needs {needed} positions in dimension {dim} but only {extent} exist \
                 (regions are not wrapped silently)"
            ),
        }
    }
}

impl std::error::Error for RegionPlacementError {}

impl From<NetworkError> for RegionPlacementError {
    fn from(e: NetworkError) -> Self {
        RegionPlacementError::Anchor(e)
    }
}

/// A fault-region shape placed onto a network: anchored at a coordinate,
/// lying in the plane spanned by two dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRegion {
    /// The shape of the region.
    pub shape: RegionShape,
    /// Coordinate of the shape's `(0, 0)` cell.
    pub anchor: Coord,
    /// The two network dimensions spanning the plane of the region
    /// (`plane.0` carries the shape's x offsets, `plane.1` the y offsets).
    pub plane: (usize, usize),
}

impl FaultRegion {
    /// Places `shape` in the plane of dimensions `(0, 1)` anchored at the
    /// given digits, validating the placement against the network.
    pub fn in_default_plane(
        net: &Network,
        shape: RegionShape,
        anchor: &[u16],
    ) -> Result<Self, RegionPlacementError> {
        let region = FaultRegion {
            shape,
            anchor: Coord::new(anchor.to_vec()),
            plane: (0, 1),
        };
        region.validate(net)?;
        Ok(region)
    }

    /// Places `shape` in the plane spanned by the given pair of dimensions
    /// (`plane.0` carries the shape's x offsets, `plane.1` the y offsets)
    /// anchored at the given digits, validating the placement against the
    /// network. On 3-D and higher shapes this anchors clustered faults in
    /// planes other than the default `(0, 1)`.
    pub fn in_plane(
        net: &Network,
        shape: RegionShape,
        plane: (usize, usize),
        anchor: &[u16],
    ) -> Result<Self, RegionPlacementError> {
        let region = FaultRegion {
            shape,
            anchor: Coord::new(anchor.to_vec()),
            plane,
        };
        region.validate(net)?;
        Ok(region)
    }

    /// Validates the placement against the network's per-dimension radices.
    ///
    /// A region is valid when its plane dimensions exist and are distinct,
    /// its anchor is a valid node address, and its bounding box fits each
    /// plane dimension: on a wrapped dimension the shape may overhang the
    /// edge (it wraps around the ring) but must not be wider than the whole
    /// ring; on an open dimension `anchor + bounding_box` must stay within
    /// the extent. Ill-fitting regions are rejected instead of being wrapped
    /// silently.
    pub fn validate(&self, net: &Network) -> Result<(), RegionPlacementError> {
        let dims = net.dims();
        for dim in [self.plane.0, self.plane.1] {
            if dim >= dims {
                return Err(RegionPlacementError::PlaneDimOutOfRange { dim, dims });
            }
        }
        if self.plane.0 == self.plane.1 {
            return Err(RegionPlacementError::DegeneratePlane(self.plane.0));
        }
        net.node(&self.anchor)?;
        let (w, h) = self.shape.bounding_box();
        for (dim, span) in [(self.plane.0, w), (self.plane.1, h)] {
            let extent = net.radix(dim);
            if span > extent {
                return Err(RegionPlacementError::ExceedsExtent {
                    dim,
                    extent,
                    needed: span as u32,
                });
            }
            if !net.wraps(dim) {
                // Widen before adding: `anchor + span` can exceed u16::MAX on
                // a large open dimension, which would silently re-enable the
                // wrapping this check exists to reject.
                let needed = self.anchor.get(dim) as u32 + span as u32;
                if needed > extent as u32 {
                    return Err(RegionPlacementError::ExceedsExtent {
                        dim,
                        extent,
                        needed,
                    });
                }
            }
        }
        Ok(())
    }

    /// The concrete nodes covered by the region on the given network
    /// (wrapping around a ring when the shape overhangs the edge of a
    /// wrapped dimension).
    ///
    /// Call [`FaultRegion::validate`] first; a region that overhangs an open
    /// dimension has no sensible node set (this method would wrap it, which
    /// `validate` exists to reject).
    pub fn nodes(&self, net: &Network) -> Vec<NodeId> {
        debug_assert!(self.validate(net).is_ok(), "unvalidated region placement");
        let (dx, dy) = self.plane;
        let (kx, ky) = (net.radix(dx), net.radix(dy));
        self.shape
            .cells()
            .into_iter()
            .map(|(x, y)| {
                let mut c = self.anchor.clone();
                c.set(dx, (self.anchor.get(dx) + x) % kx);
                c.set(dy, (self.anchor.get(dy) + y) % ky);
                net.node(&c)
                    .expect("region cell wraps onto a valid coordinate")
            })
            .collect()
    }

    /// Builds a [`FaultSet`] failing every node covered by the region,
    /// validating the placement first.
    pub fn to_fault_set(&self, net: &Network) -> Result<FaultSet, RegionPlacementError> {
        self.validate(net)?;
        let mut f = FaultSet::new();
        f.fail_nodes(self.nodes(net));
        Ok(f)
    }

    /// Number of faulty nodes.
    pub fn node_count(&self) -> usize {
        self.shape.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_topology::AnyTopology;

    #[test]
    fn paper_fig5_node_counts_match_legend() {
        assert_eq!(RegionShape::paper_rect_20().node_count(), 20);
        assert_eq!(RegionShape::paper_t_10().node_count(), 10);
        assert_eq!(RegionShape::paper_plus_16().node_count(), 16);
        assert_eq!(RegionShape::paper_l_9().node_count(), 9);
        assert_eq!(RegionShape::paper_u_8().node_count(), 8);
    }

    #[test]
    fn basic_shapes() {
        assert_eq!(RegionShape::Bar { length: 5 }.node_count(), 5);
        assert_eq!(RegionShape::DoubleBar { length: 4 }.node_count(), 8);
        assert_eq!(
            RegionShape::Rect {
                width: 3,
                height: 3
            }
            .node_count(),
            9
        );
        assert_eq!(
            RegionShape::HShape {
                width: 4,
                height: 5
            }
            .node_count(),
            2 * 5 + 4 - 2
        );
    }

    #[test]
    fn cells_are_unique_and_within_bounding_box() {
        for (shape, _) in RegionShape::paper_fig5_regions() {
            let cells = shape.cells();
            let mut dedup = cells.clone();
            dedup.dedup();
            assert_eq!(cells.len(), dedup.len());
            let (w, h) = shape.bounding_box();
            assert!(cells.iter().all(|&(x, y)| x < w && y < h));
        }
    }

    #[test]
    fn region_maps_to_distinct_nodes() {
        let t = Network::torus(8, 2).unwrap();
        for (shape, _) in RegionShape::paper_fig5_regions() {
            let region = FaultRegion::in_default_plane(&t, shape, &[1, 1]).unwrap();
            let nodes = region.nodes(&t);
            let mut sorted = nodes.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), shape.node_count());
        }
    }

    #[test]
    fn region_wraps_around_torus_edges() {
        let t = Network::torus(8, 2).unwrap();
        let region = FaultRegion::in_default_plane(
            &t,
            RegionShape::Rect {
                width: 3,
                height: 2,
            },
            &[6, 7],
        )
        .unwrap();
        let nodes = region.nodes(&t);
        assert_eq!(nodes.len(), 6);
        // The region should cover x in {6,7,0} and y in {7,0}.
        let coords: Vec<Vec<u16>> = nodes
            .iter()
            .map(|n| t.coord(*n).digits().to_vec())
            .collect();
        assert!(coords.contains(&vec![0, 0]));
        assert!(coords.contains(&vec![6, 7]));
    }

    #[test]
    fn region_overhanging_a_mesh_edge_is_rejected() {
        // The same placement that wraps on a torus is rejected on a mesh:
        // open dimensions have no edge to wrap around.
        let m = Network::mesh(8, 2).unwrap();
        let shape = RegionShape::Rect {
            width: 3,
            height: 2,
        };
        assert_eq!(
            FaultRegion::in_default_plane(&m, shape, &[6, 7]).unwrap_err(),
            RegionPlacementError::ExceedsExtent {
                dim: 0,
                extent: 8,
                needed: 9
            }
        );
        // Anchored away from the edge the same shape is fine.
        let region = FaultRegion::in_default_plane(&m, shape, &[5, 6]).unwrap();
        assert_eq!(region.nodes(&m).len(), 6);
    }

    #[test]
    fn region_wider_than_the_dimension_is_rejected_even_on_rings() {
        let t = Network::torus(4, 2).unwrap();
        // A 5-node bar cannot fit a 4-ring without self-overlap.
        let err =
            FaultRegion::in_default_plane(&t, RegionShape::Bar { length: 5 }, &[0, 0]).unwrap_err();
        assert_eq!(
            err,
            RegionPlacementError::ExceedsExtent {
                dim: 1,
                extent: 4,
                needed: 5
            }
        );
        assert!(format!("{err}").contains("not wrapped silently"));
    }

    #[test]
    fn region_validation_on_mixed_radix_networks() {
        // 8x8 wrapped plane with an open radix-4 third dimension.
        let net = Network::new(vec![8, 8, 4], vec![true, true, false]).unwrap();
        let shape = RegionShape::Rect {
            width: 3,
            height: 3,
        };
        // In the wrapped (0, 1) plane the shape may overhang.
        let region = FaultRegion {
            shape,
            anchor: Coord::new(vec![6, 6, 1]),
            plane: (0, 1),
        };
        assert!(region.validate(&net).is_ok());
        // In the (1, 2) plane dimension 2 is open with radix 4: anchored at
        // position 2 the 3-wide shape overhangs (2 + 3 > 4).
        let region = FaultRegion {
            shape,
            anchor: Coord::new(vec![0, 0, 2]),
            plane: (1, 2),
        };
        assert_eq!(
            region.validate(&net).unwrap_err(),
            RegionPlacementError::ExceedsExtent {
                dim: 2,
                extent: 4,
                needed: 5
            }
        );
        // Degenerate and out-of-range planes are rejected.
        let mut bad = region.clone();
        bad.plane = (1, 1);
        assert_eq!(
            bad.validate(&net).unwrap_err(),
            RegionPlacementError::DegeneratePlane(1)
        );
        bad.plane = (1, 3);
        assert_eq!(
            bad.validate(&net).unwrap_err(),
            RegionPlacementError::PlaneDimOutOfRange { dim: 3, dims: 3 }
        );
    }

    #[test]
    fn region_in_higher_dimension_plane() {
        let t = Network::torus(8, 3).unwrap();
        let region = FaultRegion {
            shape: RegionShape::Rect {
                width: 2,
                height: 2,
            },
            anchor: Coord::new(vec![1, 2, 3]),
            plane: (1, 2),
        };
        assert!(region.validate(&t).is_ok());
        let nodes = region.nodes(&t);
        assert_eq!(nodes.len(), 4);
        // dimension 0 never changes
        assert!(nodes.iter().all(|n| t.coord(*n).get(0) == 1));
    }

    #[test]
    fn to_fault_set_and_connectivity() {
        let net = AnyTopology::torus(8, 2).unwrap();
        let t = net.grid().unwrap();
        let region = FaultRegion::in_default_plane(t, RegionShape::paper_u_8(), &[2, 2]).unwrap();
        let f = region.to_fault_set(t).unwrap();
        assert_eq!(f.num_faulty_nodes(), 8);
        assert!(f.preserves_connectivity(&net));
    }

    #[test]
    fn ascii_render_has_correct_cell_count() {
        let shape = RegionShape::paper_t_10();
        let art = shape.render_ascii();
        assert_eq!(art.matches('#').count(), 10);
        let shape = RegionShape::paper_u_8();
        assert_eq!(shape.render_ascii().matches('#').count(), 8);
    }

    #[test]
    fn anchor_validation() {
        let t = Network::torus(8, 2).unwrap();
        assert!(matches!(
            FaultRegion::in_default_plane(&t, RegionShape::paper_l_9(), &[9, 0]).unwrap_err(),
            RegionPlacementError::Anchor(_)
        ));
        assert!(matches!(
            FaultRegion::in_default_plane(&t, RegionShape::paper_l_9(), &[0]).unwrap_err(),
            RegionPlacementError::Anchor(_)
        ));
    }

    #[test]
    fn scaling_is_identity_when_the_shape_already_fits() {
        for (shape, _) in RegionShape::paper_fig5_regions() {
            assert_eq!(shape.scaled_to_fit(8, 8), Some(shape));
        }
    }

    #[test]
    fn scaling_preserves_kind_and_fits_the_caps() {
        for (shape, _) in RegionShape::paper_fig5_regions() {
            for (max_w, max_h) in [(3u16, 3u16), (4, 3), (3, 4), (5, 4)] {
                let Some(scaled) = shape.scaled_to_fit(max_w, max_h) else {
                    continue;
                };
                assert_eq!(
                    std::mem::discriminant(&scaled),
                    std::mem::discriminant(&shape),
                    "scaling must not change the kind of {shape:?}"
                );
                let (w, h) = scaled.bounding_box();
                assert!(
                    w <= max_w && h <= max_h,
                    "{shape:?} scaled to {scaled:?} still {w}x{h} > {max_w}x{max_h}"
                );
                assert!(scaled.node_count() >= 2);
            }
        }
    }

    #[test]
    fn scaling_keeps_concave_shapes_concave() {
        use crate::classify::{classify_region, RegionClass};
        for shape in [
            RegionShape::paper_t_10(),
            RegionShape::paper_plus_16(),
            RegionShape::paper_l_9(),
            RegionShape::paper_u_8(),
        ] {
            let scaled = shape.scaled_to_fit(4, 4).expect("4x4 fits every kind");
            assert_eq!(
                classify_region(&scaled),
                RegionClass::Concave,
                "{shape:?} scaled to {scaled:?} lost its concavity"
            );
        }
    }

    #[test]
    fn degenerate_caps_scale_nothing() {
        for (shape, _) in RegionShape::paper_fig5_regions() {
            assert_eq!(shape.scaled_to_fit(1, 1), None);
            assert_eq!(shape.scaled_to_fit(0, 8), None);
        }
        // A bar needs at least two nodes of height.
        assert_eq!(RegionShape::Bar { length: 5 }.scaled_to_fit(1, 1), None);
        assert_eq!(
            RegionShape::Bar { length: 5 }.scaled_to_fit(1, 2),
            Some(RegionShape::Bar { length: 2 })
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RegionShape::paper_rect_20().name(), "rect-shaped");
        assert_eq!(RegionShape::paper_plus_16().name(), "Plus-shaped");
        assert_eq!(RegionShape::Bar { length: 3 }.name(), "|-shaped");
    }
}
