//! Declarative, serialisable topology specifications.
//!
//! A [`TopologySpec`] names a network shape without constructing it: the
//! experiment harness and the simulator configuration carry a spec (it is
//! `Clone + Eq` and cheap to compare/log) and call
//! [`TopologySpec::build`] when they need the concrete [`Network`].
//!
//! Every spec also round-trips through a compact human-readable string form
//! ([`TopologySpec::to_spec_string`] / [`TopologySpec::parse`]), used by CLI
//! arguments and result tables:
//!
//! | spec                              | string       |
//! |-----------------------------------|--------------|
//! | `TopologySpec::torus(8, 2)`       | `torus:8x2`  |
//! | `TopologySpec::mesh(4, 3)`        | `mesh:4x3`   |
//! | `TopologySpec::hypercube(6)`      | `hypercube:6`|
//! | mixed `8x8 wrapped, 4 open`       | `mixed:8,8,4o` |
//! | `TopologySpec::fat_tree(4, 3)`    | `ft:4,3`     |

use crate::fattree::FatTree;
use crate::network::{Network, NetworkError};
use crate::topo::AnyTopology;
use std::fmt;

/// A declarative description of a network topology.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// k-ary n-cube: uniform radix, every dimension wraps.
    Torus {
        /// Radix `k` of every dimension.
        radix: u16,
        /// Dimensionality `n`.
        dims: u32,
    },
    /// k-ary n-mesh: uniform radix, no dimension wraps.
    Mesh {
        /// Radix `k` of every dimension.
        radix: u16,
        /// Dimensionality `n`.
        dims: u32,
    },
    /// Binary n-cube (radix-2 mesh).
    Hypercube {
        /// Dimensionality `n`.
        dims: u32,
    },
    /// Arbitrary mixed-radix shape with per-dimension wrap flags.
    Mixed {
        /// Per-dimension radices.
        radices: Vec<u16>,
        /// Per-dimension wrap flags (same length as `radices`).
        wraps: Vec<bool>,
    },
    /// k-ary l-level fat-tree (indirect network).
    FatTree {
        /// Arity `k` (children per switch).
        arity: u16,
        /// Number of switch levels `l`.
        levels: u32,
    },
}

impl TopologySpec {
    /// Spec of a k-ary n-cube.
    pub fn torus(radix: u16, dims: u32) -> Self {
        TopologySpec::Torus { radix, dims }
    }

    /// Spec of a k-ary n-mesh.
    pub fn mesh(radix: u16, dims: u32) -> Self {
        TopologySpec::Mesh { radix, dims }
    }

    /// Spec of a binary n-cube.
    pub fn hypercube(dims: u32) -> Self {
        TopologySpec::Hypercube { dims }
    }

    /// Spec of an arbitrary mixed-radix shape.
    pub fn mixed(radices: Vec<u16>, wraps: Vec<bool>) -> Self {
        TopologySpec::Mixed { radices, wraps }
    }

    /// Spec of a k-ary l-level fat-tree.
    pub fn fat_tree(arity: u16, levels: u32) -> Self {
        TopologySpec::FatTree { arity, levels }
    }

    /// Constructs the concrete topology this spec describes.
    pub fn build(&self) -> Result<AnyTopology, NetworkError> {
        match self {
            TopologySpec::Torus { radix, dims } => {
                Network::torus(*radix, *dims).map(AnyTopology::Grid)
            }
            TopologySpec::Mesh { radix, dims } => {
                Network::mesh(*radix, *dims).map(AnyTopology::Grid)
            }
            TopologySpec::Hypercube { dims } => Network::hypercube(*dims).map(AnyTopology::Grid),
            TopologySpec::Mixed { radices, wraps } => {
                Network::new(radices.clone(), wraps.clone()).map(AnyTopology::Grid)
            }
            TopologySpec::FatTree { arity, levels } => {
                FatTree::new(*arity, *levels).map(AnyTopology::FatTree)
            }
        }
    }

    /// Dimensionality of the described network (for a fat-tree: the arity,
    /// i.e. the per-node port-pair count, matching [`AnyTopology::dims`]).
    pub fn dims(&self) -> usize {
        match self {
            TopologySpec::Torus { dims, .. } | TopologySpec::Mesh { dims, .. } => *dims as usize,
            TopologySpec::Hypercube { dims } => *dims as usize,
            TopologySpec::Mixed { radices, .. } => radices.len(),
            TopologySpec::FatTree { arity, .. } => *arity as usize,
        }
    }

    /// Total number of nodes of the described network (saturating; a valid
    /// spec never saturates because [`TopologySpec::build`] would reject it).
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologySpec::Torus { radix, dims } | TopologySpec::Mesh { radix, dims } => {
                (*radix as usize).saturating_pow(*dims)
            }
            TopologySpec::Hypercube { dims } => 2usize.saturating_pow(*dims),
            TopologySpec::Mixed { radices, .. } => radices
                .iter()
                .fold(1usize, |acc, &k| acc.saturating_mul(k as usize)),
            TopologySpec::FatTree { arity, levels } => {
                let endpoints = (*arity as usize).saturating_pow(*levels);
                let per_level = endpoints / (*arity).max(1) as usize;
                endpoints.saturating_add((*levels as usize).saturating_mul(per_level))
            }
        }
    }

    /// Number of compute endpoints of the described network (equals
    /// [`TopologySpec::num_nodes`] on direct topologies).
    pub fn num_endpoints(&self) -> usize {
        match self {
            TopologySpec::FatTree { arity, levels } => (*arity as usize).saturating_pow(*levels),
            _ => self.num_nodes(),
        }
    }

    /// Short label used in result tables ("8-ary 2-torus", "4-ary 3-mesh",
    /// "6-hypercube", "mixed 8x8x4o").
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Torus { radix, dims } => format!("{radix}-ary {dims}-torus"),
            TopologySpec::Mesh { radix, dims } => format!("{radix}-ary {dims}-mesh"),
            TopologySpec::Hypercube { dims } => format!("{dims}-hypercube"),
            TopologySpec::Mixed { radices, wraps } => {
                let shape: Vec<String> = radices
                    .iter()
                    .zip(wraps.iter())
                    .map(|(&k, &w)| format!("{k}{}", if w { "" } else { "o" }))
                    .collect();
                format!("mixed {}", shape.join("x"))
            }
            TopologySpec::FatTree { arity, levels } => {
                format!("{arity}-ary {levels}-level fat-tree")
            }
        }
    }

    /// Family name of the topology ("torus" / "mesh" / "hypercube" / "mixed"
    /// / "fat-tree").
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::Mesh { .. } => "mesh",
            TopologySpec::Hypercube { .. } => "hypercube",
            TopologySpec::Mixed { .. } => "mixed",
            TopologySpec::FatTree { .. } => "fat-tree",
        }
    }

    /// Renders the spec in its compact machine-readable string form (the
    /// inverse of [`TopologySpec::parse`]).
    pub fn to_spec_string(&self) -> String {
        match self {
            TopologySpec::Torus { radix, dims } => format!("torus:{radix}x{dims}"),
            TopologySpec::Mesh { radix, dims } => format!("mesh:{radix}x{dims}"),
            TopologySpec::Hypercube { dims } => format!("hypercube:{dims}"),
            TopologySpec::Mixed { radices, wraps } => {
                let parts: Vec<String> = radices
                    .iter()
                    .zip(wraps.iter())
                    .map(|(&k, &w)| format!("{k}{}", if w { "" } else { "o" }))
                    .collect();
                format!("mixed:{}", parts.join(","))
            }
            TopologySpec::FatTree { arity, levels } => format!("ft:{arity},{levels}"),
        }
    }

    /// Parses the compact string form produced by
    /// [`TopologySpec::to_spec_string`], plus the CLI-friendly shorthands:
    /// `hc:<dims>` for `hypercube:<dims>`, `ft:<k>,<l>` for a k-ary l-level
    /// fat-tree, and a prefix-less mixed form `8x8x4o` (x-separated
    /// per-dimension radices, `o` marking an open dimension) equivalent to
    /// `mixed:8,8,4o`.
    ///
    /// # Errors
    /// Returns a human-readable message on malformed input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let Some((kind, rest)) = s.split_once(':') else {
            // Prefix-less mixed shorthand: "8x8x4o".
            return Self::parse_mixed_parts(s.split('x'))
                .map_err(|e| format!("topology spec '{s}': {e}"));
        };
        match kind {
            "ft" | "fattree" => {
                let (k, l) = rest
                    .split_once(',')
                    .ok_or_else(|| format!("'{rest}' should look like '<arity>,<levels>'"))?;
                let arity: u16 = k.parse().map_err(|_| format!("bad arity '{k}'"))?;
                let levels: u32 = l.parse().map_err(|_| format!("bad levels '{l}'"))?;
                Ok(TopologySpec::fat_tree(arity, levels))
            }
            "torus" | "mesh" => {
                let (k, n) = rest
                    .split_once('x')
                    .ok_or_else(|| format!("'{rest}' should look like '<radix>x<dims>'"))?;
                let radix: u16 = k.parse().map_err(|_| format!("bad radix '{k}'"))?;
                let dims: u32 = n.parse().map_err(|_| format!("bad dims '{n}'"))?;
                Ok(if kind == "torus" {
                    TopologySpec::torus(radix, dims)
                } else {
                    TopologySpec::mesh(radix, dims)
                })
            }
            "hypercube" | "hc" => {
                let dims: u32 = rest.parse().map_err(|_| format!("bad dims '{rest}'"))?;
                Ok(TopologySpec::hypercube(dims))
            }
            "mixed" => Self::parse_mixed_parts(rest.split(',')),
            other => Err(format!(
                "unknown topology kind '{other}' (use torus|mesh|hypercube|hc|mixed|ft)"
            )),
        }
    }

    /// Parses a sequence of `<radix>[o]` parts into a mixed spec.
    fn parse_mixed_parts<'a, I: Iterator<Item = &'a str>>(parts: I) -> Result<Self, String> {
        let mut radices = Vec::new();
        let mut wraps = Vec::new();
        for part in parts {
            let (digits, open) = match part.strip_suffix('o') {
                Some(d) => (d, true),
                None => (part, false),
            };
            let k: u16 = digits
                .parse()
                .map_err(|_| format!("bad radix '{part}' in mixed spec"))?;
            radices.push(k);
            wraps.push(!open);
        }
        Ok(TopologySpec::mixed(radices, wraps))
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_constructors() {
        assert_eq!(
            TopologySpec::torus(8, 2).build().unwrap(),
            AnyTopology::Grid(Network::torus(8, 2).unwrap())
        );
        assert_eq!(
            TopologySpec::mesh(4, 3).build().unwrap(),
            AnyTopology::Grid(Network::mesh(4, 3).unwrap())
        );
        assert_eq!(
            TopologySpec::hypercube(5).build().unwrap(),
            AnyTopology::Grid(Network::hypercube(5).unwrap())
        );
        let mixed = TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false]);
        assert_eq!(
            mixed.build().unwrap(),
            AnyTopology::Grid(Network::new(vec![8, 8, 4], vec![true, true, false]).unwrap())
        );
        assert_eq!(
            TopologySpec::fat_tree(4, 2).build().unwrap(),
            AnyTopology::FatTree(FatTree::new(4, 2).unwrap())
        );
    }

    #[test]
    fn num_nodes_and_dims() {
        assert_eq!(TopologySpec::torus(8, 2).num_nodes(), 64);
        assert_eq!(TopologySpec::mesh(4, 3).num_nodes(), 64);
        assert_eq!(TopologySpec::hypercube(6).num_nodes(), 64);
        assert_eq!(
            TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false]).num_nodes(),
            256
        );
        assert_eq!(TopologySpec::hypercube(6).dims(), 6);
        assert_eq!(TopologySpec::mixed(vec![8, 4], vec![true, false]).dims(), 2);
        // Fat-tree: k^l endpoints plus l * k^(l-1) switches.
        assert_eq!(TopologySpec::fat_tree(4, 3).num_nodes(), 64 + 3 * 16);
        assert_eq!(TopologySpec::fat_tree(4, 3).num_endpoints(), 64);
        assert_eq!(TopologySpec::fat_tree(4, 3).dims(), 4);
        assert_eq!(TopologySpec::hypercube(6).num_endpoints(), 64);
    }

    #[test]
    fn labels_and_kinds() {
        assert_eq!(TopologySpec::torus(8, 2).label(), "8-ary 2-torus");
        assert_eq!(TopologySpec::mesh(4, 3).label(), "4-ary 3-mesh");
        assert_eq!(TopologySpec::hypercube(6).label(), "6-hypercube");
        assert_eq!(
            TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false]).label(),
            "mixed 8x8x4o"
        );
        assert_eq!(TopologySpec::torus(8, 2).kind(), "torus");
        assert_eq!(TopologySpec::hypercube(3).kind(), "hypercube");
        assert_eq!(
            TopologySpec::fat_tree(4, 3).label(),
            "4-ary 3-level fat-tree"
        );
        assert_eq!(TopologySpec::fat_tree(4, 3).kind(), "fat-tree");
    }

    #[test]
    fn spec_string_roundtrip() {
        for spec in [
            TopologySpec::torus(8, 2),
            TopologySpec::mesh(4, 3),
            TopologySpec::hypercube(6),
            TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false]),
            TopologySpec::mixed(vec![3, 5], vec![false, true]),
            TopologySpec::fat_tree(4, 3),
            TopologySpec::fat_tree(2, 1),
        ] {
            let s = spec.to_spec_string();
            assert_eq!(TopologySpec::parse(&s).unwrap(), spec, "{s}");
        }
        assert_eq!(
            TopologySpec::parse("mixed:8,8,4o").unwrap(),
            TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false])
        );
    }

    #[test]
    fn parse_cli_shorthands() {
        assert_eq!(
            TopologySpec::parse("hc:6").unwrap(),
            TopologySpec::hypercube(6)
        );
        assert_eq!(
            TopologySpec::parse("ft:4,3").unwrap(),
            TopologySpec::fat_tree(4, 3)
        );
        assert_eq!(
            TopologySpec::parse("fattree:4,2").unwrap(),
            TopologySpec::fat_tree(4, 2)
        );
        assert_eq!(
            TopologySpec::parse("8x8x4o").unwrap(),
            TopologySpec::mixed(vec![8, 8, 4], vec![true, true, false])
        );
        assert_eq!(
            TopologySpec::parse("4ox4o").unwrap(),
            TopologySpec::mixed(vec![4, 4], vec![false, false])
        );
        assert!(TopologySpec::parse("8y2").is_err());
        assert!(TopologySpec::parse("8x").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(TopologySpec::parse("ring:8").is_err());
        assert!(TopologySpec::parse("torus:8").is_err());
        assert!(TopologySpec::parse("torus:ax2").is_err());
        assert!(TopologySpec::parse("hypercube:x").is_err());
        assert!(TopologySpec::parse("mixed:8,q").is_err());
        assert!(TopologySpec::parse("ft:4").is_err());
        assert!(TopologySpec::parse("ft:ax2").is_err());
        assert!(TopologySpec::parse("ft:4,q").is_err());
    }
}
