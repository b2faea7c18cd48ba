//! Greedy graph-growing initial partitioning (METIS's GGP).
//!
//! Starting from a random seed vertex, grow region `A` by repeatedly
//! absorbing the frontier vertex whose move increases the cut least, until
//! `A` holds half the total vertex weight. Simple, fast, and good enough as
//! the starting point for FM refinement.

use chiplet_graph::cut::{Bipartition, Side};
use rand::rngs::StdRng;
use rand::Rng;

use crate::coarsen::WeightedGraph;

/// Grows a roughly half-weight region from a random seed and returns the
/// resulting bipartition (`A` = grown region, `B` = the rest).
///
/// The target is `total_weight / 2` (rounded down); growth stops as soon as
/// adding the next vertex would overshoot further than stopping short, which
/// keeps the partition as balanced as vertex granularity allows.
pub fn grow_partition(g: &WeightedGraph, rng: &mut StdRng) -> Bipartition {
    let n = g.num_vertices();
    if n == 0 {
        return Bipartition::from_sides(Vec::new());
    }
    let total = g.total_weight();
    let target = total / 2;

    let mut in_a = vec![false; n];
    let seed = rng.gen_range(0..n);
    in_a[seed] = true;
    let mut weight_a = g.vertex_weight(seed);

    // gain[v] = (edge weight to A) - (edge weight to B): absorbing a vertex
    // with high gain moves cut edges inside A.
    while weight_a < target {
        let mut best: Option<(usize, i64)> = None;
        for v in 0..n {
            if in_a[v] {
                continue;
            }
            let mut to_a: i64 = 0;
            let mut to_b: i64 = 0;
            let mut frontier = false;
            for &(u, w) in g.weighted_neighbors(v) {
                if in_a[u] {
                    to_a += w as i64;
                    frontier = true;
                } else {
                    to_b += w as i64;
                }
            }
            if !frontier {
                continue;
            }
            let gain = to_a - to_b;
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((v, gain));
            }
        }
        // Disconnected graph: frontier may be empty before reaching the
        // target; jump to a random vertex of the other component.
        let next = match best {
            Some((v, _)) => v,
            None => {
                let candidates: Vec<usize> = (0..n).filter(|&v| !in_a[v]).collect();
                match candidates.as_slice() {
                    [] => break,
                    cs => cs[rng.gen_range(0..cs.len())],
                }
            }
        };
        let next_weight = g.vertex_weight(next);
        // Stop if overshooting hurts balance more than stopping here.
        if weight_a + next_weight > target {
            let undershoot = target - weight_a;
            let overshoot = weight_a + next_weight - target;
            if overshoot > undershoot {
                break;
            }
        }
        in_a[next] = true;
        weight_a += next_weight;
    }

    Bipartition::from_side_of(n, |v| if in_a[v] { Side::A } else { Side::B })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn empty_graph_yields_empty_partition() {
        let g = WeightedGraph::from_graph(&chiplet_graph::Graph::from_edges(0, &[]).unwrap());
        let p = grow_partition(&g, &mut rng(1));
        assert!(p.is_empty());
    }

    #[test]
    fn grown_partition_is_roughly_balanced() {
        for seed in 0..10 {
            let g = WeightedGraph::from_graph(&gen::grid(6, 6));
            let p = grow_partition(&g, &mut rng(seed));
            let (a, b) = p.sizes();
            assert!(a.abs_diff(b) <= 2, "seed {seed}: sizes {a}/{b}");
        }
    }

    #[test]
    fn grown_region_is_contiguous_on_connected_graph() {
        let base = gen::grid(5, 5);
        let g = WeightedGraph::from_graph(&base);
        let p = grow_partition(&g, &mut rng(3));
        // All side-A vertices reachable from each other within side A.
        let a: Vec<usize> = p.vertices_on(Side::A);
        assert!(!a.is_empty());
        let sub_edges: Vec<(usize, usize)> = base
            .edges()
            .filter(|&(u, v)| p.side(u) == Side::A && p.side(v) == Side::A)
            .map(|(u, v)| (a.binary_search(&u).unwrap(), a.binary_search(&v).unwrap()))
            .collect();
        let sub = chiplet_graph::Graph::from_edges(a.len(), &sub_edges).unwrap();
        assert!(chiplet_graph::metrics::is_connected(&sub));
    }

    #[test]
    fn handles_disconnected_graphs() {
        let base = chiplet_graph::Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let g = WeightedGraph::from_graph(&base);
        let p = grow_partition(&g, &mut rng(9));
        let (a, b) = p.sizes();
        assert_eq!(a + b, 6);
        assert!(a.abs_diff(b) <= 2);
    }

    #[test]
    fn respects_vertex_weights() {
        // Two heavy vertices and four light ones in a path; target half-weight
        // split should not lump both heavy vertices on one side with all the
        // light ones.
        let g = WeightedGraph::new(
            vec![4, 1, 1, 1, 1, 4],
            vec![
                vec![(1, 1)],
                vec![(0, 1), (2, 1)],
                vec![(1, 1), (3, 1)],
                vec![(2, 1), (4, 1)],
                vec![(3, 1), (5, 1)],
                vec![(4, 1)],
            ],
        );
        let p = grow_partition(&g, &mut rng(11));
        let weight_a: u64 = p.vertices_on(Side::A).iter().map(|&v| g.vertex_weight(v)).sum();
        let total = g.total_weight();
        assert!(weight_a.abs_diff(total - weight_a) <= 4);
    }
}
