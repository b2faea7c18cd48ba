//! Honeycomb (HC) arrangement generator (Fig. 4b) — graph only.
//!
//! Hexagonal chiplets violate the rectangular-chiplet constraint (§III-B),
//! so the honeycomb exists here to verify the paper's claim in §IV-A c):
//! arranging *rectangular* chiplets in a brickwall yields the same graph.
//! We generate the honeycomb from hexagon geometry (odd-row offset
//! coordinates with the six axial neighbour directions) over the same
//! `(row, col)` position sets the brickwall uses ([`super::positions`]);
//! the equivalence test in the crate's integration suite checks
//! edge-for-edge equality.

use chiplet_graph::Graph;

use super::{positions, Regularity};

/// Generates the honeycomb ICI graph, or `None` if `n` cannot be realised
/// with the requested regularity.
pub(super) fn generate(n: usize, regularity: Regularity) -> Option<Graph> {
    Some(graph_from_positions(&positions(n, regularity)?))
}

/// Builds the adjacency graph of hexagons at odd-row-offset positions.
fn graph_from_positions(positions: &[(i64, i64)]) -> Graph {
    // Convert offset coordinates to axial coordinates; two hexagons are
    // adjacent iff their axial difference is one of the six unit directions.
    let axial: Vec<(i64, i64)> =
        positions.iter().map(|&(row, col)| to_axial(row, col)).collect();
    let index: std::collections::HashMap<(i64, i64), usize> =
        axial.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    const DIRECTIONS: [(i64, i64); 6] = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)];
    let mut edges = Vec::new();
    for (i, &(q, r)) in axial.iter().enumerate() {
        for (dq, dr) in DIRECTIONS {
            if let Some(&j) = index.get(&(q + dq, r + dr)) {
                if i < j {
                    edges.push((i, j));
                }
            }
        }
    }
    Graph::from_edges(positions.len(), &edges).expect("axial neighbours are unique")
}

/// Odd-row offset → axial conversion for pointy-top hexagons whose odd rows
/// shift right by half a hexagon (mirroring the brickwall's half-brick
/// offset).
fn to_axial(row: i64, col: i64) -> (i64, i64) {
    let q = col - (row - row.rem_euclid(2)) / 2;
    (q, row)
}

#[cfg(test)]
mod tests {
    use super::super::{Arrangement, ArrangementKind};
    use super::*;
    use chiplet_graph::metrics;

    #[test]
    fn honeycomb_matches_brickwall_graph_exactly() {
        // §IV-A c): the brickwall "results in the same graph structure as
        // the HC" — with shared position indexing the edge sets coincide.
        for n in [4usize, 9, 12, 16, 20, 25, 30, 36, 49] {
            let hc = Arrangement::build(ArrangementKind::Honeycomb, n).unwrap();
            let bw = Arrangement::build(ArrangementKind::Brickwall, n).unwrap();
            assert_eq!(hc.regularity(), bw.regularity(), "n={n}");
            assert_eq!(hc.graph(), bw.graph(), "n={n}: graphs differ");
        }
    }

    #[test]
    fn honeycomb_has_no_placement() {
        let hc = Arrangement::build(ArrangementKind::Honeycomb, 9).unwrap();
        assert!(hc.placement().is_none());
        let bw = Arrangement::build(ArrangementKind::Brickwall, 9).unwrap();
        assert!(bw.placement().is_some());
    }

    #[test]
    fn honeycomb_degree_bounds() {
        // Fig. 4b: Min 2, Max 6.
        let hc = Arrangement::build(ArrangementKind::Honeycomb, 25).unwrap();
        let stats = hc.degree_stats();
        assert_eq!(stats.min, 2);
        assert_eq!(stats.max, 6);
    }

    #[test]
    fn axial_conversion_is_injective_on_lattice() {
        let mut seen = std::collections::HashSet::new();
        for row in -5..5i64 {
            for col in -5..5i64 {
                assert!(seen.insert(to_axial(row, col)), "collision at ({row}, {col})");
            }
        }
    }

    #[test]
    fn honeycomb_connected_across_counts() {
        for n in 2..=40 {
            let hc = Arrangement::build(ArrangementKind::Honeycomb, n).unwrap();
            assert!(metrics::is_connected(hc.graph()), "n={n}");
        }
    }
}
