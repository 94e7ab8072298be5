//! Convex / concave classification of fault regions.
//!
//! The paper (Section 3) distinguishes convex ("block") fault regions —
//! regions that completely fill their bounding rectangle, such as `|`, `||`
//! and `□` shapes — from concave regions such as `L`, `U`, `T`, `+` and `H`
//! shapes. Concave regions are harder to enter and exit, which is why Fig. 5
//! shows higher latency for them.

use crate::regions::RegionShape;
use std::collections::HashSet;

/// Classification of a coalesced fault region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionClass {
    /// The region completely fills its bounding rectangle (a block fault).
    Convex,
    /// The region does not fill its bounding rectangle.
    Concave,
}

/// Classifies a set of 2-D cells as convex (fills its bounding box) or
/// concave.
///
/// An empty region is (vacuously) convex.
pub fn classify_cells(cells: &[(u16, u16)]) -> RegionClass {
    if cells.is_empty() {
        return RegionClass::Convex;
    }
    let set: HashSet<(u16, u16)> = cells.iter().copied().collect();
    let min_x = cells.iter().map(|c| c.0).min().unwrap();
    let max_x = cells.iter().map(|c| c.0).max().unwrap();
    let min_y = cells.iter().map(|c| c.1).min().unwrap();
    let max_y = cells.iter().map(|c| c.1).max().unwrap();
    for x in min_x..=max_x {
        for y in min_y..=max_y {
            if !set.contains(&(x, y)) {
                return RegionClass::Concave;
            }
        }
    }
    RegionClass::Convex
}

/// Classifies a [`RegionShape`].
pub fn classify_region(shape: &RegionShape) -> RegionClass {
    classify_cells(&shape.cells())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convex_shapes_are_convex() {
        assert_eq!(
            classify_region(&RegionShape::Rect {
                width: 4,
                height: 5
            }),
            RegionClass::Convex
        );
        assert_eq!(
            classify_region(&RegionShape::Bar { length: 6 }),
            RegionClass::Convex
        );
        assert_eq!(
            classify_region(&RegionShape::DoubleBar { length: 3 }),
            RegionClass::Convex
        );
    }

    #[test]
    fn concave_shapes_are_concave() {
        for shape in [
            RegionShape::paper_l_9(),
            RegionShape::paper_u_8(),
            RegionShape::paper_t_10(),
            RegionShape::paper_plus_16(),
            RegionShape::HShape {
                width: 4,
                height: 5,
            },
        ] {
            assert_eq!(classify_region(&shape), RegionClass::Concave, "{shape:?}");
        }
    }

    #[test]
    fn degenerate_shapes() {
        // A 1x1 "L" collapses into a single cell, which is convex.
        assert_eq!(
            classify_region(&RegionShape::LShape {
                vertical: 1,
                horizontal: 1
            }),
            RegionClass::Convex
        );
        assert_eq!(classify_cells(&[]), RegionClass::Convex);
        assert_eq!(classify_cells(&[(3, 3)]), RegionClass::Convex);
    }

    #[test]
    fn hand_built_cells() {
        // Square with a bite taken out.
        let cells = vec![(0, 0), (0, 1), (1, 0)];
        assert_eq!(classify_cells(&cells), RegionClass::Concave);
        let full = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        assert_eq!(classify_cells(&full), RegionClass::Convex);
    }
}
