//! The staged proxy objective of the arrangement search.
//!
//! Stage 1 (every annealing step) is the **cheap score**: average
//! shortest-path distance plus a diameter term, both from one run of the
//! bit-parallel distance kernel
//! ([`metrics::distance_sum_and_diameter`]). Stage 2 (candidate
//! archiving) is the **full proxy score**, which
//! adds the bisection-cut term the paper uses as its throughput proxy
//! (§III-C) via the balanced partitioner. Stage 3 — nocsim saturation and
//! workload makespan on the top candidates — lives in [`crate::validate`].
//!
//! All scores are *minimised*; the bisection term enters as `n / cut` so
//! that a larger cut (more bisection bandwidth) lowers the objective.

use chiplet_graph::{metrics, Graph};
use chiplet_partition::{bisect, BisectionConfig};

/// Weights of the proxy objective terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyWeights {
    /// Weight of the average shortest-path distance (latency proxy).
    pub avg_distance: f64,
    /// Weight of the diameter (worst-case latency proxy).
    pub diameter: f64,
    /// Weight of the `n / bisection_cut` term (inverse throughput proxy).
    pub bisection: f64,
}

impl Default for ProxyWeights {
    fn default() -> Self {
        Self { avg_distance: 1.0, diameter: 0.25, bisection: 2.0 }
    }
}

/// The full proxy score of one arrangement graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyScore {
    /// Average shortest-path distance over ordered vertex pairs.
    pub avg_distance: f64,
    /// Graph diameter.
    pub diameter: u32,
    /// Balanced bisection cut (the bisection-bandwidth proxy).
    pub bisection_cut: usize,
    /// Weighted objective value (lower is better).
    pub value: f64,
}

/// Stage-1 score: `w_avg · avg_distance + w_diam · diameter`, or `None`
/// for graphs that are disconnected or have fewer than two vertices.
#[must_use]
pub fn cheap_score(g: &Graph, weights: &ProxyWeights) -> Option<f64> {
    let (avg, diam) = metrics::average_distance_and_diameter(g)?;
    Some(weights.avg_distance * avg + weights.diameter * f64::from(diam))
}

/// Stage-2 score: the cheap terms plus the bisection-weighted term
/// `w_bis · n / cut`, or `None` for disconnected graphs or `n < 2`.
///
/// Deterministic: the partitioner runs from the seed in `config`, so the
/// same graph always yields the same score.
#[must_use]
pub fn full_score(
    g: &Graph,
    weights: &ProxyWeights,
    config: &BisectionConfig,
) -> Option<ProxyScore> {
    let (avg, diam) = metrics::average_distance_and_diameter(g)?;
    let cut = bisect(g, config).ok()?.cut;
    let n = g.num_vertices() as f64;
    let value = weights.avg_distance * avg
        + weights.diameter * f64::from(diam)
        + weights.bisection * n / cut.max(1) as f64;
    Some(ProxyScore { avg_distance: avg, diameter: diam, bisection_cut: cut, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    #[test]
    fn cheap_score_orders_grid_below_path() {
        let w = ProxyWeights::default();
        let grid = cheap_score(&gen::grid(4, 4), &w).unwrap();
        let path = cheap_score(&gen::path(16), &w).unwrap();
        assert!(grid < path, "grid {grid} !< path {path}");
    }

    #[test]
    fn full_score_includes_bisection_term() {
        let w = ProxyWeights { avg_distance: 0.0, diameter: 0.0, bisection: 1.0 };
        let s = full_score(&gen::grid(4, 4), &w, &BisectionConfig::default()).unwrap();
        assert_eq!(s.bisection_cut, 4);
        assert!((s.value - 16.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graphs_score_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(cheap_score(&g, &ProxyWeights::default()).is_none());
        assert!(full_score(&g, &ProxyWeights::default(), &BisectionConfig::default()).is_none());
    }

    #[test]
    fn full_score_is_deterministic() {
        let g = gen::grid(6, 6);
        let w = ProxyWeights::default();
        let c = BisectionConfig::default();
        assert_eq!(full_score(&g, &w, &c), full_score(&g, &w, &c));
    }
}
