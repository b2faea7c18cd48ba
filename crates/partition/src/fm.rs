//! Fiduccia–Mattheyses (FM) boundary refinement.
//!
//! Classic single-vertex-move refinement with rollback to the best prefix:
//! every vertex may move once per pass; the pass keeps the move sequence
//! prefix with the smallest cut among balanced states (or the most balanced
//! state if balance has not been reached yet), then rolls the rest back.

use chiplet_graph::cut::{Bipartition, Side};

use crate::coarsen::WeightedGraph;

/// Tunables for a refinement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineParams {
    /// Maximum number of full FM passes (each pass is `O(V·deg)` with the
    /// simple scan-based selection used here).
    pub max_passes: usize,
    /// Maximum tolerated weight imbalance `| w(A) − w(B) |`.
    pub weight_tolerance: u64,
}

impl RefineParams {
    /// Sensible defaults for a hierarchy level: tolerance equal to the
    /// heaviest vertex (perfect balance may be unreachable at coarse levels)
    /// but never below the parity of the total weight.
    #[must_use]
    pub fn for_level(g: &WeightedGraph) -> Self {
        let max_vertex = (0..g.num_vertices()).map(|v| g.vertex_weight(v)).max().unwrap_or(0);
        let parity = g.total_weight() % 2;
        Self { max_passes: 8, weight_tolerance: max_vertex.max(parity) }
    }

    /// Strict finest-level parameters: imbalance at most the parity of the
    /// vertex count (0 for even, 1 for odd).
    #[must_use]
    pub fn strict(g: &WeightedGraph) -> Self {
        Self { max_passes: 8, weight_tolerance: g.total_weight() % 2 }
    }
}

/// Runs FM passes until no pass improves the cut or balance, or
/// [`RefineParams::max_passes`] is reached. Mutates `partition` in place.
pub fn refine(g: &WeightedGraph, partition: &mut Bipartition, params: RefineParams) {
    for _ in 0..params.max_passes {
        if !fm_pass(g, partition, params.weight_tolerance) {
            break;
        }
    }
}

/// State snapshot quality: ordered so that smaller is better.
/// Balanced states always beat unbalanced ones; within a class, lower cut
/// (or lower imbalance) wins.
fn quality(imbalance: u64, cut: i64, tolerance: u64) -> (u8, i64, u64) {
    if imbalance <= tolerance {
        (0, cut, imbalance)
    } else {
        (1, imbalance as i64, cut as u64)
    }
}

/// One FM pass. Returns `true` if the pass strictly improved the
/// (balance, cut) quality.
fn fm_pass(g: &WeightedGraph, partition: &mut Bipartition, tolerance: u64) -> bool {
    let n = g.num_vertices();
    if n == 0 {
        return false;
    }

    // Weighted side totals and per-vertex gains.
    let mut weight = [0u64; 2];
    for v in 0..n {
        weight[side_index(partition.side(v))] += g.vertex_weight(v);
    }
    let mut gain: Vec<i64> = (0..n)
        .map(|v| {
            let mut external = 0i64;
            let mut internal = 0i64;
            for &(u, w) in g.weighted_neighbors(v) {
                if partition.side(u) == partition.side(v) {
                    internal += w as i64;
                } else {
                    external += w as i64;
                }
            }
            external - internal
        })
        .collect();

    let mut cut: i64 = {
        let mut total = 0i64;
        for v in 0..n {
            for &(u, w) in g.weighted_neighbors(v) {
                if u > v && partition.side(u) != partition.side(v) {
                    total += w as i64;
                }
            }
        }
        total
    };

    let imbalance = weight[0].abs_diff(weight[1]);
    let initial_quality = quality(imbalance, cut, tolerance);

    // During the pass, moves may transiently unbalance the partition by up
    // to one vertex move in each direction (classic FM); the best-prefix
    // selection below still judges states by the strict tolerance.
    let max_vertex_weight = (0..n).map(|v| g.vertex_weight(v)).max().unwrap_or(0);
    let transient_tolerance = tolerance + 2 * max_vertex_weight;

    let mut locked = vec![false; n];
    let mut moves: Vec<usize> = Vec::with_capacity(n);
    let mut best_prefix: usize = 0; // number of moves kept
    let mut best_quality = initial_quality;

    for _ in 0..n {
        // Pick the best admissible move: highest gain among unlocked
        // vertices whose move keeps or restores balance.
        let current_imbalance = weight[0].abs_diff(weight[1]);
        let mut chosen: Option<(usize, i64)> = None;
        for v in 0..n {
            if locked[v] {
                continue;
            }
            let from = side_index(partition.side(v));
            let wv = g.vertex_weight(v);
            let new_imbalance = (weight[from] - wv).abs_diff(weight[1 - from] + wv);
            let admissible =
                new_imbalance <= transient_tolerance || new_imbalance < current_imbalance;
            if !admissible {
                continue;
            }
            if chosen.is_none_or(|(_, bg)| gain[v] > bg) {
                chosen = Some((v, gain[v]));
            }
        }
        let Some((v, gv)) = chosen else { break };

        // Apply the move.
        let from = side_index(partition.side(v));
        weight[from] -= g.vertex_weight(v);
        weight[1 - from] += g.vertex_weight(v);
        partition.flip(v);
        cut -= gv;
        locked[v] = true;
        gain[v] = -gain[v];
        for &(u, w) in g.weighted_neighbors(v) {
            if partition.side(u) == partition.side(v) {
                // Edge became internal.
                gain[u] -= 2 * w as i64;
            } else {
                // Edge became external.
                gain[u] += 2 * w as i64;
            }
        }
        moves.push(v);

        let q = quality(weight[0].abs_diff(weight[1]), cut, tolerance);
        if q < best_quality {
            best_quality = q;
            best_prefix = moves.len();
        }
    }

    // Roll back every move after the best prefix.
    for &v in moves.iter().skip(best_prefix).rev() {
        partition.flip(v);
    }

    best_quality < initial_quality
}

fn side_index(side: Side) -> usize {
    match side {
        Side::A => 0,
        Side::B => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    fn unit(g: &chiplet_graph::Graph) -> WeightedGraph {
        WeightedGraph::from_graph(g)
    }

    #[test]
    fn refine_improves_bad_grid_split() {
        // Horizontal stripes interleaved: a terrible cut for a 4x4 grid.
        let base = gen::grid(4, 4);
        let g = unit(&base);
        let mut p =
            Bipartition::from_side_of(16, |v| if (v / 4) % 2 == 0 { Side::A } else { Side::B });
        let before = p.cut_size(&base);
        refine(&g, &mut p, RefineParams::strict(&g));
        let after = p.cut_size(&base);
        assert!(after < before, "{after} !< {before}");
        // Single-start FM may stop in a local optimum; global optimality (4)
        // is the job of the restarted multilevel driver, tested in lib.rs.
        assert!(after <= 6, "cut {after} worse than expected local optimum");
        assert!(p.is_balanced(0));
    }

    #[test]
    fn refine_preserves_optimal_partition() {
        let base = gen::grid(4, 4);
        let g = unit(&base);
        let mut p =
            Bipartition::from_side_of(16, |v| if v % 4 < 2 { Side::A } else { Side::B });
        assert_eq!(p.cut_size(&base), 4);
        refine(&g, &mut p, RefineParams::strict(&g));
        assert_eq!(p.cut_size(&base), 4);
        assert!(p.is_balanced(0));
    }

    #[test]
    fn refine_restores_balance() {
        // Start from a wildly unbalanced partition; strict refine must end
        // balanced.
        let base = gen::cycle(10);
        let g = unit(&base);
        let mut p = Bipartition::from_side_of(10, |v| if v == 0 { Side::A } else { Side::B });
        refine(&g, &mut p, RefineParams::strict(&g));
        assert!(p.is_balanced(0), "imbalance {}", p.imbalance());
        assert_eq!(p.cut_size(&base), 2);
    }

    #[test]
    fn refine_on_weighted_graph_respects_tolerance() {
        // Path of three vertices with weights 3,1,3: perfect balance is
        // impossible; tolerance from for_level is max weight = 3.
        let g = WeightedGraph::new(
            vec![3, 1, 3],
            vec![vec![(1, 1)], vec![(0, 1), (2, 1)], vec![(1, 1)]],
        );
        let mut p = Bipartition::from_side_of(3, |_| Side::A);
        refine(&g, &mut p, RefineParams::for_level(&g));
        let wa: u64 = p.vertices_on(Side::A).iter().map(|&v| g.vertex_weight(v)).sum();
        let wb = g.total_weight() - wa;
        assert!(wa.abs_diff(wb) <= 3);
    }

    #[test]
    fn refine_empty_graph_is_noop() {
        let g = WeightedGraph::from_graph(&chiplet_graph::Graph::from_edges(0, &[]).unwrap());
        let mut p = Bipartition::from_sides(Vec::new());
        refine(&g, &mut p, RefineParams { max_passes: 4, weight_tolerance: 0 });
        assert!(p.is_empty());
    }

    #[test]
    fn strict_params_parity() {
        let even = unit(&gen::cycle(6));
        assert_eq!(RefineParams::strict(&even).weight_tolerance, 0);
        let odd = unit(&gen::cycle(7));
        assert_eq!(RefineParams::strict(&odd).weight_tolerance, 1);
    }
}
