//! Weighted graphs and heavy-edge-matching coarsening.
//!
//! Coarsening contracts a maximal matching of the current graph, preferring
//! heavy edges (METIS's HEM rule). Vertex weights accumulate so balance can
//! be maintained across levels; parallel edges created by contraction merge
//! into one edge whose weight is the sum.

use chiplet_graph::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A small undirected graph with integer vertex and edge weights.
///
/// This is the internal representation used by the multilevel partitioner.
/// Adjacency is stored as per-vertex `(neighbor, edge_weight)` lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    vertex_weights: Vec<u64>,
    adjacency: Vec<Vec<(usize, u64)>>,
}

impl WeightedGraph {
    /// Lifts an unweighted [`Graph`] into a weighted one (all weights 1).
    #[must_use]
    pub fn from_graph(g: &Graph) -> Self {
        let adjacency =
            g.vertices().map(|v| g.neighbors(v).iter().map(|&u| (u, 1)).collect()).collect();
        Self { vertex_weights: vec![1; g.num_vertices()], adjacency }
    }

    /// Builds directly from weights and adjacency lists.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is not symmetric or lengths disagree
    /// (internal invariant; debug builds only).
    #[must_use]
    pub fn new(vertex_weights: Vec<u64>, adjacency: Vec<Vec<(usize, u64)>>) -> Self {
        debug_assert_eq!(vertex_weights.len(), adjacency.len());
        Self { vertex_weights, adjacency }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Weight of vertex `v` (number of original vertices it represents).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn vertex_weight(&self, v: usize) -> u64 {
        self.vertex_weights[v]
    }

    /// Total vertex weight (equals the original vertex count).
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.vertex_weights.iter().sum()
    }

    /// `(neighbor, edge_weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn weighted_neighbors(&self, v: usize) -> &[(usize, u64)] {
        &self.adjacency[v]
    }

    /// Sum of edge weights (each undirected edge counted once).
    #[must_use]
    pub fn total_edge_weight(&self) -> u64 {
        let twice: u64 =
            self.adjacency.iter().flat_map(|adj| adj.iter().map(|&(_, w)| w)).sum();
        twice / 2
    }
}

/// One coarsening step: contracts a heavy-edge matching of `g`.
///
/// Returns the coarser graph and the fine→coarse vertex mapping, or `None`
/// if no edge could be matched (graph already edgeless) so coarsening cannot
/// make progress.
pub fn coarsen_step(
    g: &WeightedGraph,
    rng: &mut StdRng,
) -> Option<(WeightedGraph, Vec<usize>)> {
    let n = g.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);

    // match_of[v] = partner vertex, or v itself if unmatched.
    let mut match_of: Vec<usize> = (0..n).collect();
    let mut matched = vec![false; n];
    let mut matched_any = false;
    for &v in &order {
        if matched[v] {
            continue;
        }
        // Heaviest unmatched neighbour wins; ties to the lowest index for
        // determinism given the shuffled visit order.
        let best = g
            .weighted_neighbors(v)
            .iter()
            .filter(|&&(u, _)| !matched[u] && u != v)
            .max_by_key(|&&(u, w)| (w, std::cmp::Reverse(u)))
            .map(|&(u, _)| u);
        if let Some(u) = best {
            match_of[v] = u;
            match_of[u] = v;
            matched[v] = true;
            matched[u] = true;
            matched_any = true;
        }
    }
    if !matched_any {
        return None;
    }

    // Assign coarse ids: one per matched pair, one per unmatched vertex.
    let mut mapping = vec![usize::MAX; n];
    let mut next_id = 0;
    for v in 0..n {
        if mapping[v] != usize::MAX {
            continue;
        }
        mapping[v] = next_id;
        let partner = match_of[v];
        if partner != v {
            mapping[partner] = next_id;
        }
        next_id += 1;
    }

    // Accumulate vertex weights and merged adjacency.
    let mut vertex_weights = vec![0u64; next_id];
    for v in 0..n {
        vertex_weights[mapping[v]] += g.vertex_weight(v);
    }
    let mut adjacency: Vec<Vec<(usize, u64)>> = vec![Vec::new(); next_id];
    // Edge weights between coarse vertices, merged via a per-vertex scratch map.
    let mut scratch: Vec<u64> = vec![0; next_id];
    let mut touched: Vec<usize> = Vec::new();
    #[allow(clippy::needless_range_loop)] // coarse ids index adjacency and scratch
    for coarse in 0..next_id {
        touched.clear();
        for fine in 0..n {
            if mapping[fine] != coarse {
                continue;
            }
            for &(u, w) in g.weighted_neighbors(fine) {
                let cu = mapping[u];
                if cu == coarse {
                    continue; // contracted edge disappears
                }
                if scratch[cu] == 0 {
                    touched.push(cu);
                }
                scratch[cu] += w;
            }
        }
        for &cu in &touched {
            adjacency[coarse].push((cu, scratch[cu]));
            scratch[cu] = 0;
        }
        adjacency[coarse].sort_unstable();
    }

    Some((WeightedGraph::new(vertex_weights, adjacency), mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn from_graph_preserves_structure() {
        let g = gen::cycle(6);
        let wg = WeightedGraph::from_graph(&g);
        assert_eq!(wg.num_vertices(), 6);
        assert_eq!(wg.total_weight(), 6);
        assert_eq!(wg.total_edge_weight(), 6);
        assert_eq!(wg.weighted_neighbors(0).len(), 2);
    }

    #[test]
    fn coarsen_preserves_total_weight() {
        let g = WeightedGraph::from_graph(&gen::grid(5, 5));
        let (coarse, mapping) = coarsen_step(&g, &mut rng()).unwrap();
        assert_eq!(coarse.total_weight(), 25);
        assert_eq!(mapping.len(), 25);
        assert!(coarse.num_vertices() < 25);
        // Every fine vertex maps to a valid coarse vertex.
        assert!(mapping.iter().all(|&c| c < coarse.num_vertices()));
    }

    #[test]
    fn coarsen_halves_matched_pairs() {
        // A perfect matching on a path of 4: at most 2 pairs -> 2 vertices.
        let g = WeightedGraph::from_graph(&gen::path(4));
        let (coarse, _) = coarsen_step(&g, &mut rng()).unwrap();
        assert!(coarse.num_vertices() >= 2 && coarse.num_vertices() <= 3);
    }

    #[test]
    fn coarsen_edgeless_returns_none() {
        let g = WeightedGraph::from_graph(&chiplet_graph::Graph::from_edges(4, &[]).unwrap());
        assert!(coarsen_step(&g, &mut rng()).is_none());
    }

    #[test]
    fn contracted_adjacency_is_symmetric_with_equal_weights() {
        let g = WeightedGraph::from_graph(&gen::grid(4, 6));
        let (coarse, _) = coarsen_step(&g, &mut rng()).unwrap();
        for v in 0..coarse.num_vertices() {
            for &(u, w) in coarse.weighted_neighbors(v) {
                let back = coarse
                    .weighted_neighbors(u)
                    .iter()
                    .find(|&&(x, _)| x == v)
                    .map(|&(_, wb)| wb);
                assert_eq!(back, Some(w), "asymmetric edge {v}<->{u}");
            }
        }
    }

    #[test]
    fn edge_weight_is_conserved_minus_contracted() {
        let fine = WeightedGraph::from_graph(&gen::complete(6));
        let before = fine.total_edge_weight();
        let (coarse, mapping) = coarsen_step(&fine, &mut rng()).unwrap();
        // Contracted edges (within a pair) vanish; all other edge weight is
        // preserved (possibly merged).
        let contracted: u64 = {
            let g = gen::complete(6);
            g.edges().filter(|&(u, v)| mapping[u] == mapping[v]).count() as u64
        };
        assert_eq!(coarse.total_edge_weight(), before - contracted);
    }
}
