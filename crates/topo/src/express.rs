//! Kite-style express-link meshes.
//!
//! Kite (Bharadwaj et al., DAC 2020 — the paper’s related work \[15\])
//! searches for interposer topologies that augment a grid arrangement with
//! links between *non-adjacent* chiplets, accepting the frequency penalty
//! of longer wires when the hop-count savings outweigh it. The published
//! Kite topologies are search results for specific grid sizes, so this
//! module provides a documented reconstruction rather than a verbatim copy:
//! starting from the mesh, it greedily inserts the express link that most
//! reduces the total pairwise hop distance, subject to
//!
//! * a per-router port budget (PHY area is finite — §IV-B's bump-sector
//!   argument applies to Kite routers too), and
//! * a length cap in pitches (beyond the signal-integrity reach, a link is
//!   pointless at any frequency).
//!
//! The greedy objective mirrors Kite's goal (minimise average hops); the
//! frequency penalty is charged later by [`crate::eval`], not here.

use chiplet_graph::{metrics, Graph};

use crate::generators::mesh;
use crate::topology::{Topology, TopologyError};

/// Parameters of the express-link search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpressOptions {
    /// Maximum routed (Manhattan) link length in pitches.
    pub max_length_pitch: f64,
    /// Maximum router degree after augmentation (mesh interior routers
    /// start at 4).
    pub port_budget: usize,
    /// Maximum number of express links to insert.
    pub max_links: usize,
}

impl Default for ExpressOptions {
    /// Kite-like defaults: links up to three pitches, six ports per router
    /// (the planar-graph average-degree optimum of §IV-A), and as many
    /// links as the budgets allow.
    fn default() -> Self {
        Self { max_length_pitch: 3.0, port_budget: 6, max_links: usize::MAX }
    }
}

/// Builds a Kite-style express mesh over an `R × C` grid arrangement.
///
/// # Errors
///
/// Returns [`TopologyError`] only if the internal edge bookkeeping breaks
/// (not expected for valid inputs).
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub fn express(
    rows: usize,
    cols: usize,
    opts: &ExpressOptions,
) -> Result<Topology, TopologyError> {
    assert!(rows > 0 && cols > 0, "express mesh needs at least one row and column");
    let base = mesh(rows, cols);
    let n = rows * cols;
    let coords = |v: usize| (v / cols, v % cols);

    let mut edges: Vec<(usize, usize, f64)> =
        base.edges().iter().map(|e| (e.u, e.v, e.length_pitch)).collect();
    let mut degrees: Vec<usize> = (0..n).map(|v| base.graph().degree(v)).collect();

    // Candidate express links: all pairs at Manhattan distance 2..=cap.
    let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let (ur, uc) = coords(u);
            let (vr, vc) = coords(v);
            let manhattan = (ur.abs_diff(vr) + uc.abs_diff(vc)) as f64;
            if manhattan >= 2.0 && manhattan <= opts.max_length_pitch {
                candidates.push((u, v, manhattan));
            }
        }
    }

    let mut inserted = 0;
    while inserted < opts.max_links {
        let current = graph_from(n, &edges);
        let base_cost = distance_sum(&current);
        let mut best: Option<(usize, usize, f64, u64)> = None;
        for &(u, v, len) in &candidates {
            if degrees[u] >= opts.port_budget || degrees[v] >= opts.port_budget {
                continue;
            }
            if current.has_edge(u, v) {
                continue;
            }
            let mut trial = edges.clone();
            trial.push((u, v, len));
            let cost = distance_sum(&graph_from(n, &trial));
            if cost < base_cost {
                let better = match best {
                    Some((.., best_cost)) => {
                        cost < best_cost
                            // Tie-break: prefer the shorter wire.
                            || (cost == best_cost && len < best_len(&best))
                    }
                    None => true,
                };
                if better {
                    best = Some((u, v, len, cost));
                }
            }
        }
        match best {
            Some((u, v, len, _)) => {
                edges.push((u, v, len));
                degrees[u] += 1;
                degrees[v] += 1;
                inserted += 1;
            }
            None => break, // no candidate improves the objective
        }
    }

    Topology::new(format!("express_{rows}x{cols}"), n, edges)
}

fn best_len(best: &Option<(usize, usize, f64, u64)>) -> f64 {
    best.map_or(f64::INFINITY, |(_, _, len, _)| len)
}

fn graph_from(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
    let pairs: Vec<(usize, usize)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    Graph::from_edges(n, &pairs).expect("edge endpoints validated upstream")
}

/// Sum of hop distances over all ordered router pairs: the greedy
/// objective. The mesh is connected, and express links only add to it.
fn distance_sum(g: &Graph) -> u64 {
    let (total, _) = metrics::distance_sum_and_diameter(g).expect("mesh is connected");
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::metrics;

    #[test]
    fn express_improves_average_distance() {
        let plain = mesh(4, 4);
        let kite = express(4, 4, &ExpressOptions::default()).unwrap();
        let d_plain = metrics::average_distance(plain.graph()).unwrap();
        let d_kite = metrics::average_distance(kite.graph()).unwrap();
        assert!(d_kite < d_plain, "express {d_kite} !< mesh {d_plain}");
    }

    #[test]
    fn express_respects_port_budget() {
        let opts = ExpressOptions { port_budget: 5, ..ExpressOptions::default() };
        let kite = express(4, 4, &opts).unwrap();
        for v in 0..kite.num_routers() {
            assert!(kite.graph().degree(v) <= 5, "router {v} over budget");
        }
    }

    #[test]
    fn express_respects_length_cap() {
        let opts = ExpressOptions { max_length_pitch: 2.0, ..ExpressOptions::default() };
        let kite = express(4, 4, &opts).unwrap();
        assert!(kite.max_length_pitch() <= 2.0);
        // Express links exist at all.
        assert!(kite.graph().num_edges() > mesh(4, 4).graph().num_edges());
    }

    #[test]
    fn express_respects_link_quota() {
        let base_edges = mesh(4, 4).graph().num_edges();
        let opts = ExpressOptions { max_links: 3, ..ExpressOptions::default() };
        let kite = express(4, 4, &opts).unwrap();
        assert_eq!(kite.graph().num_edges(), base_edges + 3);
    }

    #[test]
    fn zero_quota_returns_the_mesh() {
        let opts = ExpressOptions { max_links: 0, ..ExpressOptions::default() };
        let kite = express(3, 3, &opts).unwrap();
        assert_eq!(kite.graph().num_edges(), mesh(3, 3).graph().num_edges());
    }

    #[test]
    fn tiny_grids_have_no_candidates() {
        // A 1x2 grid has no pair at Manhattan distance >= 2.
        let kite = express(1, 2, &ExpressOptions::default()).unwrap();
        assert_eq!(kite.graph().num_edges(), 1);
    }
}
