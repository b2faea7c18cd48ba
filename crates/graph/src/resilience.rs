//! Fault-tolerance metrics: bridges, articulation points, edge connectivity.
//!
//! §IV of the paper argues for raising the *minimum* number of neighbours
//! per chiplet (HexaMesh: 3 vs. the grid's 2, and §IV-C notes irregular
//! grids can drop to 1). The engineering content of that argument is
//! fault tolerance: a link whose removal disconnects the ICI (a *bridge*)
//! or a chiplet whose failure does (an *articulation point*) is a single
//! point of failure, and the global edge connectivity bounds how many link
//! failures any adversary needs. This module computes all three.

use crate::csr::{Graph, VertexId};

/// All bridges of `g`: edges whose removal disconnects their component.
/// Returned as `(u, v)` pairs with `u < v`, in DFS discovery order.
///
/// Classic Tarjan low-link computation, iterative to survive deep graphs.
#[must_use]
pub fn bridges(g: &Graph) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut timer = 0usize;
    let mut out = Vec::new();

    // Iterative DFS frame: (vertex, parent-edge endpoint, neighbor index).
    let mut stack: Vec<(usize, Option<usize>, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, None, 0));
        while let Some(&mut (v, parent, ref mut idx)) = stack.last_mut() {
            let neighbors = g.neighbors(v);
            if *idx < neighbors.len() {
                let u = neighbors[*idx];
                *idx += 1;
                if disc[u] == usize::MAX {
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    stack.push((u, Some(v), 0));
                } else if Some(u) != parent {
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(p) = parent {
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        out.push((p.min(v), p.max(v)));
                    }
                }
            }
        }
    }
    out
}

/// All articulation points of `g`: vertices whose removal disconnects
/// their component. Sorted ascending.
#[must_use]
pub fn articulation_points(g: &Graph) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut is_cut = vec![false; n];
    let mut timer = 0usize;

    let mut stack: Vec<(usize, Option<usize>, usize, usize)> = Vec::new(); // (v, parent, idx, child_count)
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, None, 0, 0));
        while let Some(&mut (v, parent, ref mut idx, ref mut children)) = stack.last_mut() {
            let neighbors = g.neighbors(v);
            if *idx < neighbors.len() {
                let u = neighbors[*idx];
                *idx += 1;
                if disc[u] == usize::MAX {
                    *children += 1;
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    stack.push((u, Some(v), 0, 0));
                } else if Some(u) != parent {
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                let children = *children;
                stack.pop();
                match parent {
                    Some(p) => {
                        low[p] = low[p].min(low[v]);
                        // A non-root vertex p is a cut vertex if some child
                        // subtree cannot reach above p. The root's rule is
                        // different and handled when its own frame pops.
                        if p != root && low[v] >= disc[p] {
                            is_cut[p] = true;
                        }
                    }
                    None => {
                        // Root: cut vertex iff it has 2+ DFS children.
                        if children >= 2 {
                            is_cut[v] = true;
                        }
                    }
                }
            }
        }
    }
    (0..n).filter(|&v| is_cut[v]).collect()
}

/// Global minimum edge cut of a connected graph (Stoer–Wagner, unit edge
/// weights): the number of link failures that suffice to split the ICI.
/// Returns `None` for graphs with fewer than 2 vertices, `Some(0)` for
/// disconnected graphs.
///
/// # Example
///
/// ```
/// use chiplet_graph::{gen, resilience};
///
/// // A ring survives any single link failure but not two.
/// assert_eq!(resilience::edge_connectivity(&gen::cycle(8)), Some(2));
/// // A path dies with its weakest link.
/// assert_eq!(resilience::edge_connectivity(&gen::path(8)), Some(1));
/// ```
#[must_use]
pub fn edge_connectivity(g: &Graph) -> Option<usize> {
    let n = g.num_vertices();
    if n < 2 {
        return None;
    }
    // Dense adjacency weights; merged vertices accumulate.
    let mut w = vec![vec![0u64; n]; n];
    for (u, v) in g.edges() {
        w[u][v] += 1;
        w[v][u] += 1;
    }
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while active.len() > 1 {
        // Maximum-adjacency search.
        let m = active.len();
        let mut weights = vec![0u64; m];
        let mut added = vec![false; m];
        let mut prev = 0usize;
        let mut last = 0usize;
        for it in 0..m {
            let mut sel = usize::MAX;
            for i in 0..m {
                if !added[i] && (sel == usize::MAX || weights[i] > weights[sel]) {
                    sel = i;
                }
            }
            added[sel] = true;
            if it == m - 1 {
                best = best.min(weights[sel]);
                prev = last;
                last = sel;
                break;
            }
            last = sel;
            if it == m - 2 {
                prev = sel;
            }
            for i in 0..m {
                if !added[i] {
                    weights[i] += w[active[sel]][active[i]];
                }
            }
        }
        // Merge `last` into `prev`.
        let (a, b) = (active[prev], active[last]);
        #[allow(clippy::needless_range_loop)] // i indexes two matrices symmetrically
        for i in 0..n {
            w[a][i] += w[b][i];
            w[i][a] += w[i][b];
        }
        w[a][a] = 0;
        active.remove(last);
    }
    Some(best as usize)
}

/// A single-link-failure census: how many of the graph's edges are
/// bridges, and the worst-case diameter after any one non-bridge edge
/// fails (`None` when every edge is a bridge or the graph has no edges).
#[must_use]
pub fn single_failure_diameter(g: &Graph) -> Option<u32> {
    use crate::metrics::diameter;
    let bridge_set: std::collections::HashSet<(usize, usize)> =
        bridges(g).into_iter().collect();
    let mut worst = None;
    for (u, v) in g.edges() {
        if bridge_set.contains(&(u.min(v), u.max(v))) {
            continue;
        }
        let pruned: Vec<(usize, usize)> =
            g.edges().filter(|&(a, b)| (a, b) != (u, v) && (a, b) != (v, u)).collect();
        let h = Graph::from_edges(g.num_vertices(), &pruned).expect("still simple");
        if let Some(d) = diameter(&h) {
            worst = Some(worst.map_or(d, |w: u32| w.max(d)));
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_is_all_bridges() {
        let g = gen::path(5);
        assert_eq!(bridges(&g).len(), 4);
        assert_eq!(articulation_points(&g), vec![1, 2, 3]);
        assert_eq!(edge_connectivity(&g), Some(1));
    }

    #[test]
    fn cycle_has_no_single_points_of_failure() {
        let g = gen::cycle(8);
        assert!(bridges(&g).is_empty());
        assert!(articulation_points(&g).is_empty());
        assert_eq!(edge_connectivity(&g), Some(2));
    }

    #[test]
    fn complete_graph_connectivity_is_n_minus_1() {
        let g = gen::complete(5);
        assert_eq!(edge_connectivity(&g), Some(4));
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn star_centre_is_the_articulation_point() {
        let g = gen::star(4); // vertex 0 is the hub
        assert_eq!(articulation_points(&g), vec![0]);
        assert_eq!(bridges(&g).len(), 4);
        assert_eq!(edge_connectivity(&g), Some(1));
    }

    #[test]
    fn barbell_bridge_detected() {
        // Two triangles joined by one edge (2, 3).
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap();
        assert_eq!(bridges(&g), vec![(2, 3)]);
        let cuts = articulation_points(&g);
        assert_eq!(cuts, vec![2, 3]);
        assert_eq!(edge_connectivity(&g), Some(1));
    }

    #[test]
    fn grid_connectivity_is_corner_degree() {
        let g = gen::grid(4, 4);
        assert!(bridges(&g).is_empty());
        assert!(articulation_points(&g).is_empty());
        // The cheapest cut isolates a corner (degree 2).
        assert_eq!(edge_connectivity(&g), Some(2));
    }

    #[test]
    fn disconnected_graph_has_zero_connectivity() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(edge_connectivity(&g), Some(0));
        // Both component edges are bridges.
        assert_eq!(bridges(&g).len(), 2);
    }

    #[test]
    fn tiny_graphs() {
        let empty = crate::Graph::from_edges(0, &[]).unwrap();
        assert_eq!(edge_connectivity(&empty), None);
        let single = crate::Graph::from_edges(1, &[]).unwrap();
        assert_eq!(edge_connectivity(&single), None);
        assert!(bridges(&single).is_empty());
        assert!(articulation_points(&single).is_empty());
    }

    #[test]
    fn single_failure_diameter_on_cycle() {
        // Removing any one edge of C8 turns it into P8: diameter 7.
        let g = gen::cycle(8);
        assert_eq!(single_failure_diameter(&g), Some(7));
        // A path has only bridges: no survivable single failure.
        assert_eq!(single_failure_diameter(&gen::path(4)), None);
    }

    #[test]
    fn connectivity_bounded_by_min_degree() {
        for g in [gen::grid(3, 5), gen::cycle(7), gen::complete(6)] {
            let min_degree = (0..g.num_vertices()).map(|v| g.degree(v)).min().unwrap();
            let k = edge_connectivity(&g).unwrap();
            assert!(k <= min_degree, "connectivity {k} > min degree {min_degree}");
            assert!(k >= 1);
        }
    }
}
