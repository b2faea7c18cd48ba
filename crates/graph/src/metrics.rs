//! Global graph metrics used as inter-chiplet-interconnect performance proxies.
//!
//! Section III-C of the paper uses the graph **diameter** as a latency proxy
//! and the **bisection bandwidth** as a throughput proxy (the latter lives in
//! `chiplet-partition`; the edge-cut primitive is in [`crate::cut`]). This
//! module provides diameter, eccentricities, degree statistics, and the
//! planar-graph degree bound from §IV-A.

use crate::bfs::{self, UNREACHABLE};
use crate::csr::{Graph, VertexId};

/// Eccentricity of every vertex: the greatest BFS distance to any other
/// vertex, or `None` for graphs that are disconnected or empty.
#[must_use]
pub fn eccentricities(g: &Graph) -> Option<Vec<u32>> {
    if g.is_empty() {
        return None;
    }
    let mut ecc = Vec::with_capacity(g.num_vertices());
    for v in g.vertices() {
        let d = bfs::distances(g, v);
        let max = *d.iter().max().expect("non-empty distance vector");
        if max == UNREACHABLE {
            return None;
        }
        ecc.push(max);
    }
    Some(ecc)
}

/// Network diameter: the largest shortest-path distance between any vertex
/// pair, or `None` if the graph is disconnected or empty.
///
/// This is the paper's latency proxy (§III-C): each extra hop crosses two
/// PHYs and one D2D link.
///
/// # Example
///
/// ```
/// use chiplet_graph::{gen, metrics};
///
/// let g = gen::grid(4, 4); // 4x4 mesh of chiplets
/// assert_eq!(metrics::diameter(&g), Some(6)); // 2*sqrt(16) - 2
/// ```
#[must_use]
pub fn diameter(g: &Graph) -> Option<u32> {
    eccentricities(g).map(|e| e.into_iter().max().unwrap_or(0))
}

/// Radius: the smallest eccentricity, or `None` if disconnected or empty.
#[must_use]
pub fn radius(g: &Graph) -> Option<u32> {
    eccentricities(g).map(|e| e.into_iter().min().unwrap_or(0))
}

/// Average shortest-path distance over all ordered vertex pairs `u != v`,
/// or `None` if the graph is disconnected, empty, or has a single vertex.
#[must_use]
pub fn average_distance(g: &Graph) -> Option<f64> {
    let n = g.num_vertices();
    if n < 2 {
        return None;
    }
    let mut total: u64 = 0;
    for v in g.vertices() {
        for &d in &bfs::distances(g, v) {
            if d == UNREACHABLE {
                return None;
            }
            total += u64::from(d);
        }
    }
    Some(total as f64 / (n as f64 * (n as f64 - 1.0)))
}

/// `true` if every vertex can reach every other vertex (the empty graph is
/// considered connected).
#[must_use]
pub fn is_connected(g: &Graph) -> bool {
    if g.num_vertices() <= 1 {
        return true;
    }
    bfs::distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Connected components; each vertex is labelled with a component id in
/// `0..component_count`, in order of first discovery.
#[must_use]
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let mut label = vec![usize::MAX; g.num_vertices()];
    let mut next = 0;
    for v in g.vertices() {
        if label[v] != usize::MAX {
            continue;
        }
        for u in bfs::reachable_set(g, v) {
            label[u] = next;
        }
        next += 1;
    }
    label
}

/// Degree statistics of a graph (min / max / average neighbours per chiplet).
///
/// Section IV of the paper compares arrangements by exactly these numbers:
/// the grid tends to 4 average neighbours, brickwall and HexaMesh to 6, and
/// HexaMesh raises the minimum from 2 to 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest vertex degree.
    pub min: usize,
    /// Largest vertex degree.
    pub max: usize,
    /// Average vertex degree `2E / V`.
    pub average: f64,
}

/// Computes [`DegreeStats`], or `None` for the empty graph.
#[must_use]
pub fn degree_stats(g: &Graph) -> Option<DegreeStats> {
    if g.is_empty() {
        return None;
    }
    let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    Some(DegreeStats {
        min: *degrees.iter().min().expect("non-empty"),
        max: *degrees.iter().max().expect("non-empty"),
        average: 2.0 * g.num_edges() as f64 / g.num_vertices() as f64,
    })
}

/// Histogram of vertex degrees; index `d` holds the number of vertices with
/// degree exactly `d`.
#[must_use]
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let max_degree = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
    let mut histogram = vec![0usize; max_degree + 1];
    for v in g.vertices() {
        histogram[g.degree(v)] += 1;
    }
    histogram
}

/// Upper bound on the average degree of a *planar* graph with `v ≥ 3`
/// vertices: `d_avg ≤ 6 − 12/v` (from `e ≤ 3v − 6`), as derived in §IV-A.
///
/// Returns `None` for `v < 3` where the bound does not apply.
#[must_use]
pub fn planar_average_degree_bound(num_vertices: usize) -> Option<f64> {
    if num_vertices < 3 {
        return None;
    }
    Some(6.0 - 12.0 / num_vertices as f64)
}

/// `true` if the edge count satisfies the planar-graph bound `e ≤ 3v − 6`
/// (for `v ≥ 3`; smaller graphs are trivially planar).
///
/// A necessary — not sufficient — planarity condition; all chiplet
/// arrangement graphs must satisfy it because they are geometric contact
/// graphs and hence planar.
#[must_use]
pub fn satisfies_planar_edge_bound(g: &Graph) -> bool {
    let v = g.num_vertices();
    if v < 3 {
        return true;
    }
    g.num_edges() <= 3 * v - 6
}

/// Diameter of every connected component; `None` entries never occur, the
/// vector is indexed by component id as assigned by
/// [`connected_components`].
#[must_use]
pub fn component_diameters(g: &Graph) -> Vec<u32> {
    let labels = connected_components(g);
    let count = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut diameters = vec![0u32; count];
    for v in g.vertices() {
        let d = bfs::distances(g, v);
        for (u, &du) in d.iter().enumerate() {
            if du != UNREACHABLE && labels[u] == labels[v] {
                diameters[labels[v]] = diameters[labels[v]].max(du);
            }
        }
        let _: VertexId = v;
    }
    diameters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn diameter_of_grid_matches_formula() {
        // D_G(N) = 2*sqrt(N) - 2 for a regular sqrt(N) x sqrt(N) grid.
        for side in 1..=10usize {
            let g = gen::grid(side, side);
            let n = side * side;
            let expected = 2 * (n as f64).sqrt() as u32 - 2;
            assert_eq!(diameter(&g), Some(expected), "side {side}");
        }
    }

    #[test]
    fn diameter_of_disconnected_is_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(average_distance(&g), None);
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameter_of_empty_and_singleton() {
        assert_eq!(diameter(&crate::GraphBuilder::new(0).build()), None);
        assert_eq!(diameter(&crate::GraphBuilder::new(1).build()), Some(0));
    }

    #[test]
    fn radius_le_diameter_le_twice_radius() {
        for g in [gen::grid(3, 5), gen::cycle(9), gen::complete(6)] {
            let r = radius(&g).unwrap();
            let d = diameter(&g).unwrap();
            assert!(r <= d && d <= 2 * r, "r={r} d={d}");
        }
    }

    #[test]
    fn degree_stats_of_cycle() {
        let s = degree_stats(&gen::cycle(8)).unwrap();
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.average - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degree_histogram_of_star() {
        let g = gen::star(5); // centre + 5 leaves
        let h = degree_histogram(&g);
        assert_eq!(h[1], 5);
        assert_eq!(h[5], 1);
    }

    #[test]
    fn components_labelling() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)]).unwrap();
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 0, 1, 2, 2]);
        let cd = component_diameters(&g);
        assert_eq!(cd, vec![1, 0, 1]);
    }

    #[test]
    fn planar_bound_applies_to_grid() {
        let g = gen::grid(6, 6);
        assert!(satisfies_planar_edge_bound(&g));
        let bound = planar_average_degree_bound(36).unwrap();
        let avg = degree_stats(&g).unwrap().average;
        assert!(avg <= bound);
    }

    #[test]
    fn planar_bound_rejects_k5() {
        // K5 has 10 edges > 3*5 - 6 = 9.
        let g = gen::complete(5);
        assert!(!satisfies_planar_edge_bound(&g));
    }

    #[test]
    fn planar_bound_small_graphs() {
        assert_eq!(planar_average_degree_bound(2), None);
        assert!(satisfies_planar_edge_bound(&gen::complete(2)));
    }

    #[test]
    fn average_distance_of_path() {
        // Path 0-1-2: pairs (0,1)=1 (0,2)=2 (1,2)=1 -> mean = 8/6.
        let g = gen::path(3);
        let avg = average_distance(&g).unwrap();
        assert!((avg - 8.0 / 6.0).abs() < 1e-12);
    }
}
