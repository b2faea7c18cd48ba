//! Edge betweenness centrality (Brandes' algorithm, unweighted).
//!
//! Under uniform traffic with shortest-path routing, the expected load on a
//! link is proportional to its betweenness — the analytic bridge between the
//! paper's bisection-bandwidth proxy (§III-C) and the channel loads the
//! simulator measures: cut edges of the optimal bisection carry the highest
//! betweenness in mesh-like arrangements.

use std::collections::VecDeque;

use crate::csr::{Graph, VertexId};

/// Edge betweenness for every undirected edge, returned in the same order
/// as [`Graph::edges`] (ascending `(min, max)` pairs).
///
/// The value for edge `e` is the sum over ordered vertex pairs `(s, t)` of
/// the fraction of shortest `s→t` paths passing through `e`. Runs Brandes'
/// accumulation from every source: `O(V·E)`.
///
/// # Example
///
/// ```
/// use chiplet_graph::{centrality, gen};
///
/// let g = gen::path(3); // 0-1-2: both edges carried by the middle vertex
/// let b = centrality::edge_betweenness(&g);
/// // Edge (0,1): pairs (0,1), (0,2) in both directions -> 4 ordered paths.
/// assert_eq!(b, vec![4.0, 4.0]);
/// ```
#[must_use]
pub fn edge_betweenness(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let edge_ids: std::collections::HashMap<(VertexId, VertexId), usize> =
        g.edges().enumerate().map(|(i, e)| (e, i)).collect();
    let mut centrality = vec![0.0; edge_ids.len()];

    // Brandes' algorithm with per-source accumulation.
    let mut sigma = vec![0.0f64; n]; // shortest-path counts
    let mut dist = vec![i64::MAX; n];
    let mut delta = vec![0.0f64; n]; // dependency accumulators
    let mut order: Vec<VertexId> = Vec::with_capacity(n);

    for s in g.vertices() {
        sigma.fill(0.0);
        dist.fill(i64::MAX);
        delta.fill(0.0);
        order.clear();

        sigma[s] = 1.0;
        dist[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in g.neighbors(u) {
                if dist[v] == i64::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
                if dist[v] == dist[u] + 1 {
                    sigma[v] += sigma[u];
                }
            }
        }

        // Accumulate dependencies in reverse BFS order.
        for &w in order.iter().rev() {
            for &v in g.neighbors(w) {
                if dist[v] + 1 == dist[w] {
                    // v is a predecessor of w on shortest paths from s.
                    let contribution = sigma[v] / sigma[w] * (1.0 + delta[w]);
                    delta[v] += contribution;
                    let key = (v.min(w), v.max(w));
                    centrality[edge_ids[&key]] += contribution;
                }
            }
        }
    }
    // Each undirected pair (s, t) was counted from both endpoints as a
    // source, which is exactly the ordered-pair convention documented above.
    centrality
}

/// The `k` edges with the highest betweenness, as `(edge, value)` sorted
/// descending (ties broken by edge order).
#[must_use]
pub fn top_edges(g: &Graph, k: usize) -> Vec<((VertexId, VertexId), f64)> {
    let values = edge_betweenness(g);
    let mut pairs: Vec<_> = g.edges().zip(values).collect();
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_middle_edges_dominate() {
        let g = gen::path(5);
        let b = edge_betweenness(&g);
        // Edge (1,2) and (2,3) carry the most ordered pairs.
        assert!(b[1] > b[0]);
        assert!(b[2] > b[3]);
        assert_eq!(b[1], b[2]);
    }

    #[test]
    fn symmetric_graph_uniform_betweenness() {
        let g = gen::cycle(6);
        let b = edge_betweenness(&g);
        for w in b.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn complete_graph_each_edge_carries_its_pair() {
        // In K_n every pair has a direct edge; betweenness = 2 (both
        // orderings) per edge.
        let g = gen::complete(5);
        let b = edge_betweenness(&g);
        for v in b {
            assert!((v - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn total_betweenness_counts_all_pairs() {
        // Sum over edges of betweenness = sum over ordered pairs of average
        // path length = total distance. For a tree, every pair has exactly
        // one path, so the sum equals the sum of all pairwise distances.
        let g = gen::star(4);
        let b: f64 = edge_betweenness(&g).iter().sum();
        // Star distances: centre-leaf 1 (x4 pairs x2) + leaf-leaf 2
        // (x6 pairs x2): 8 + 24 = 32.
        assert!((b - 32.0).abs() < 1e-9);
    }

    #[test]
    fn grid_bisection_edges_have_top_betweenness() {
        // 4x4 grid: the hottest edges are exactly the two symmetric mid-cuts
        // (the vertical cut between columns 1-2 and the horizontal cut
        // between rows 1-2) — the edges the bisection-bandwidth proxy
        // counts.
        let g = gen::grid(4, 4);
        let top = top_edges(&g, 4);
        // Load concentrates on the four central edges, every one a member of
        // one of the two mid-cuts: (5,6), (9,10) vertical; (5,9), (6,10)
        // horizontal.
        let expected = [(5, 6), (5, 9), (6, 10), (9, 10)];
        for ((u, v), _) in &top {
            assert!(expected.contains(&(*u, *v)), "unexpected hot edge ({u}, {v})");
        }
        // And they strictly dominate a corner edge.
        let all = edge_betweenness(&g);
        let corner_idx = g.edges().position(|e| e == (0, 1)).unwrap();
        assert!(top[3].1 > all[corner_idx]);
    }

    #[test]
    fn empty_and_single_vertex() {
        assert!(edge_betweenness(&crate::Graph::from_edges(0, &[]).unwrap()).is_empty());
        assert!(edge_betweenness(&crate::Graph::from_edges(1, &[]).unwrap()).is_empty());
    }

    #[test]
    fn disconnected_components_independent() {
        let g = crate::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let b = edge_betweenness(&g);
        assert_eq!(b, vec![2.0, 2.0]);
    }
}
