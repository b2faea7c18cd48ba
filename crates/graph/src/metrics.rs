//! Global graph metrics used as inter-chiplet-interconnect performance proxies.
//!
//! Section III-C of the paper uses the graph **diameter** as a latency proxy
//! and the **bisection bandwidth** as a throughput proxy (the latter lives in
//! `chiplet-partition`; the edge-cut primitive is in [`crate::cut`]). This
//! module provides diameter, average distance, eccentricities, degree
//! statistics, and the planar-graph degree bound from §IV-A. Diameter and
//! average distance come from one bit-parallel kernel,
//! [`distance_sum_and_diameter`]; [`crate::bfs`] is its test oracle.

use crate::bfs::{self, UNREACHABLE};
use crate::csr::Graph;

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
    if g.is_empty() {
        return None;
    }
    distance_sum_and_diameter(g).map(|(_, diameter)| diameter)
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
    average_distance_and_diameter(g).map(|(average, _)| average)
}

/// [`average_distance`] and [`diameter`] from one run of
/// [`distance_sum_and_diameter`], or `None` if the graph is disconnected or
/// has fewer than two vertices. The average is the exact integer total
/// divided once by the `n · (n − 1)` ordered pairs.
#[must_use]
pub fn average_distance_and_diameter(g: &Graph) -> Option<(f64, u32)> {
    let n = g.num_vertices();
    if n < 2 {
        return None;
    }
    let (total, diameter) = distance_sum_and_diameter(g)?;
    Some((total as f64 / (n as f64 * (n as f64 - 1.0)), diameter))
}

/// The sum of shortest-path distances over all ordered vertex pairs and
/// the diameter, or `None` if the graph is disconnected. The empty graph,
/// connected as in [`is_connected`], yields `Some((0, 0))`.
///
/// Bit-parallel: the ball of radius `k` around each vertex (every vertex
/// within `k` hops) is a bitset, and `ball(v, k + 1)` is `ball(v, k)`
/// joined with `ball(u, k)` for every neighbour `u` of `v`. A pair at
/// distance `d` lies outside the balls of radius `0..d`, so each radius
/// `k` adds `n² − Σ_v |ball(v, k)|` to the total, and the diameter is the
/// first `k` at which every ball is full. The recurrence acts on each bit
/// position on its own, so graphs above 256 vertices sweep their balls 256
/// bits at a time. That is `O(D · (V + E) · ⌈V / 64⌉)` word operations,
/// against `O(V · (V + E))` queue steps for one BFS per vertex.
///
/// # Example
///
/// ```
/// use chiplet_graph::{gen, metrics};
///
/// // Path 0-1-2: distances 1, 2 and 1, each counted in both directions.
/// assert_eq!(metrics::distance_sum_and_diameter(&gen::path(3)), Some((8, 2)));
/// ```
#[must_use]
pub fn distance_sum_and_diameter(g: &Graph) -> Option<(u64, u32)> {
    match g.num_vertices().div_ceil(64) {
        0 | 1 => ball_sweeps::<1>(g),
        2 => ball_sweeps::<2>(g),
        3 => ball_sweeps::<3>(g),
        _ => ball_sweeps::<4>(g),
    }
}

/// [`distance_sum_and_diameter`] with balls of `W` words: each sweep
/// grows, for its `64 · W` vertices, the bits of those vertices in every
/// ball, so bit `s` of `ball[v]` says that vertex `first + s` lies within
/// the current radius of `v`.
fn ball_sweeps<const W: usize>(g: &Graph) -> Option<(u64, u32)> {
    let n = g.num_vertices();
    let mut ball = vec![[0u64; W]; n];
    let mut next = ball.clone();
    let (mut total, mut diameter) = (0u64, 0u32);
    for first in (0..n).step_by(64 * W) {
        let width = (n - first).min(64 * W);
        ball.fill([0; W]);
        for s in 0..width {
            ball[first + s][s / 64] = 1 << (s % 64);
        }
        // Σ_v |ball(v, radius)| over this sweep's bits, and its value once
        // every ball is full.
        let full = (n * width) as u64;
        let mut covered = width as u64;
        let mut radius = 0;
        while covered < full {
            total += full - covered;
            radius += 1;
            let mut grown = 0u64;
            for (v, row) in next.iter_mut().enumerate() {
                let mut bits = ball[v];
                for &u in g.neighbors(v) {
                    for (word, reached) in bits.iter_mut().zip(ball[u]) {
                        *word |= reached;
                    }
                }
                *row = bits;
                grown += bits.iter().map(|word| u64::from(word.count_ones())).sum::<u64>();
            }
            if grown == covered {
                return None; // no ball grew, yet one is not full
            }
            covered = grown;
            std::mem::swap(&mut ball, &mut next);
        }
        diameter = diameter.max(radius);
    }
    Some((total, diameter))
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
        let (empty, single) =
            (Graph::from_edges(0, &[]).unwrap(), Graph::from_edges(1, &[]).unwrap());
        assert_eq!(diameter(&empty), None);
        assert_eq!(diameter(&single), Some(0));
        assert_eq!(average_distance(&empty), None);
        assert_eq!(average_distance(&single), None);
        assert_eq!(distance_sum_and_diameter(&empty), Some((0, 0)));
        assert_eq!(distance_sum_and_diameter(&single), Some((0, 0)));
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
