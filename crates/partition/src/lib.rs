//! Balanced graph bisection — the workspace's METIS substitute.
//!
//! The HexaMesh paper estimates the **bisection bandwidth** of semi-regular
//! and irregular chiplet arrangements with METIS [Karypis & Kumar 1997]. This
//! crate re-implements the relevant slice of that functionality from scratch:
//! finding a minimum *balanced* 2-way cut of a small unweighted graph.
//!
//! The algorithm family matches METIS:
//!
//! 1. **Coarsening** by heavy-edge matching ([`coarsen`]),
//! 2. **Initial partitioning** of the coarsest graph by greedy region growing
//!    ([`greedy`]),
//! 3. **Uncoarsening** with Fiduccia–Mattheyses boundary refinement at every
//!    level ([`fm`]),
//! 4. randomised **restarts**, keeping the best balanced cut.
//!
//! For small graphs an **exact** enumeration ([`exact`]) is used instead, and
//! doubles as the ground truth in this crate's tests. At the paper's scale
//! (≤ 100 chiplets) the heuristic is exact or near-exact, which we verify
//! against closed-form cuts of regular arrangements.
//!
//! # Example
//!
//! ```
//! use chiplet_graph::gen;
//! use chiplet_partition::{bisect, BisectionConfig};
//!
//! let g = gen::grid(4, 4);
//! let result = bisect(&g, &BisectionConfig::default())?;
//! assert_eq!(result.cut, 4); // B_G(16) = sqrt(16)
//! assert!(result.partition.is_balanced(0));
//! # Ok::<(), chiplet_partition::PartitionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarsen;
pub mod exact;
pub mod fm;
pub mod greedy;
pub mod kway;

use chiplet_graph::cut::Bipartition;
use chiplet_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

pub use coarsen::WeightedGraph;
pub use kway::{partition_kway, KwayError, KwayPartition};

/// Errors produced by the bisection search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionError {
    /// The graph has no vertices, so no bisection exists.
    EmptyGraph,
    /// The search could not produce a partition within the balance
    /// tolerance (should not happen for any graph with ≥ 1 vertex; kept for
    /// defensive completeness).
    NoBalancedPartition,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::EmptyGraph => write!(f, "cannot bisect an empty graph"),
            PartitionError::NoBalancedPartition => {
                write!(f, "no balanced partition found within tolerance")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Which algorithm produced a [`BisectionResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Exhaustive enumeration of balanced parts (optimal).
    Exact,
    /// Multilevel heuristic (coarsen → grow → FM refine, with restarts).
    Multilevel,
}

/// Tunables for [`bisect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectionConfig {
    /// Number of independent multilevel restarts; the best cut wins.
    pub restarts: usize,
    /// RNG seed, so results are reproducible run to run.
    pub seed: u64,
    /// Stop coarsening once a level has at most this many vertices.
    pub coarsen_to: usize,
    /// Use exact enumeration when `num_vertices ≤ exact_threshold`.
    /// Enumeration cost grows as `C(n-1, n/2)`; 20 keeps it well under a
    /// second.
    pub exact_threshold: usize,
}

impl Default for BisectionConfig {
    fn default() -> Self {
        Self { restarts: 12, seed: 0x4845_5841_4d45_5348, coarsen_to: 12, exact_threshold: 20 }
    }
}

/// Outcome of a bisection search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectionResult {
    /// The balanced bipartition found.
    pub partition: Bipartition,
    /// Number of edges crossing the cut — the bisection-bandwidth proxy.
    pub cut: usize,
    /// Which algorithm produced it.
    pub method: Method,
}

/// Balance tolerance used for bisection: perfect balance for even vertex
/// counts, one vertex of slack for odd ones.
#[must_use]
pub fn balance_tolerance(num_vertices: usize) -> usize {
    num_vertices % 2
}

/// Finds a minimum (or near-minimum) balanced 2-way cut of `g`.
///
/// Uses exact enumeration for graphs up to
/// [`BisectionConfig::exact_threshold`] vertices and the multilevel heuristic
/// above that.
///
/// # Errors
///
/// [`PartitionError::EmptyGraph`] if `g` has no vertices.
pub fn bisect(g: &Graph, config: &BisectionConfig) -> Result<BisectionResult, PartitionError> {
    let n = g.num_vertices();
    if n == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    if n <= config.exact_threshold {
        let (partition, cut) = exact::exact_bisection(g);
        return Ok(BisectionResult { partition, cut, method: Method::Exact });
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let tolerance = balance_tolerance(n);
    let mut best: Option<(Bipartition, usize)> = None;
    for _ in 0..config.restarts.max(1) {
        let candidate = multilevel_once(g, config, &mut rng);
        if !candidate.is_balanced(tolerance) {
            continue;
        }
        let cut = candidate.cut_size(g);
        if best.as_ref().is_none_or(|(_, c)| cut < *c) {
            best = Some((candidate, cut));
        }
    }
    let (partition, cut) = best.ok_or(PartitionError::NoBalancedPartition)?;
    Ok(BisectionResult { partition, cut, method: Method::Multilevel })
}

/// Convenience wrapper: the bisection width of `g` with default settings, or
/// `None` for the empty graph.
///
/// # Example
///
/// ```
/// use chiplet_graph::gen;
///
/// let width = chiplet_partition::bisection_width(&gen::grid(6, 6));
/// assert_eq!(width, Some(6));
/// ```
#[must_use]
pub fn bisection_width(g: &Graph) -> Option<usize> {
    bisect(g, &BisectionConfig::default()).ok().map(|r| r.cut)
}

/// One multilevel V-cycle: coarsen, partition the coarsest level, project
/// back up refining at every level.
fn multilevel_once(g: &Graph, config: &BisectionConfig, rng: &mut StdRng) -> Bipartition {
    // Build the coarsening hierarchy.
    let mut levels: Vec<WeightedGraph> = vec![WeightedGraph::from_graph(g)];
    let mut mappings: Vec<Vec<usize>> = Vec::new();
    while levels.last().expect("non-empty").num_vertices() > config.coarsen_to {
        let current = levels.last().expect("non-empty");
        let Some((coarser, mapping)) = coarsen::coarsen_step(current, rng) else {
            break; // no further contraction possible
        };
        levels.push(coarser);
        mappings.push(mapping);
    }

    // Partition the coarsest graph by greedy growing + FM.
    let coarsest = levels.last().expect("non-empty");
    let mut partition = greedy::grow_partition(coarsest, rng);
    fm::refine(coarsest, &mut partition, fm::RefineParams::for_level(coarsest));

    // Project back to finer levels, refining after each projection.
    for level_idx in (0..mappings.len()).rev() {
        let finer = &levels[level_idx];
        let mapping = &mappings[level_idx];
        partition =
            Bipartition::from_side_of(finer.num_vertices(), |v| partition.side(mapping[v]));
        fm::refine(finer, &mut partition, fm::RefineParams::for_level(finer));
    }
    partition
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    #[test]
    fn empty_graph_is_an_error() {
        let g = chiplet_graph::Graph::from_edges(0, &[]).unwrap();
        assert_eq!(
            bisect(&g, &BisectionConfig::default()).unwrap_err(),
            PartitionError::EmptyGraph
        );
        assert_eq!(bisection_width(&g), None);
    }

    #[test]
    fn singleton_graph_has_zero_cut() {
        let g = chiplet_graph::Graph::from_edges(1, &[]).unwrap();
        let r = bisect(&g, &BisectionConfig::default()).unwrap();
        assert_eq!(r.cut, 0);
        assert!(r.partition.is_balanced(1));
    }

    #[test]
    fn two_vertices_connected() {
        let g = gen::path(2);
        let r = bisect(&g, &BisectionConfig::default()).unwrap();
        assert_eq!(r.cut, 1);
        assert!(r.partition.is_balanced(0));
    }

    #[test]
    fn even_cycle_cut_is_two() {
        let r = bisect(&gen::cycle(12), &BisectionConfig::default()).unwrap();
        assert_eq!(r.cut, 2);
    }

    #[test]
    fn small_grids_match_formula_exactly() {
        // B_G = sqrt(N) for even-sided regular grids (exact path).
        for k in [2usize, 4] {
            let g = gen::grid(k, k);
            let r = bisect(&g, &BisectionConfig::default()).unwrap();
            assert_eq!(r.method, Method::Exact);
            assert_eq!(r.cut, k, "grid {k}x{k}");
        }
    }

    #[test]
    fn large_grids_match_formula_heuristically() {
        for k in [6usize, 8, 10] {
            let g = gen::grid(k, k);
            let r = bisect(&g, &BisectionConfig::default()).unwrap();
            assert_eq!(r.method, Method::Multilevel);
            assert_eq!(r.cut, k, "grid {k}x{k}");
            assert!(r.partition.is_balanced(0));
        }
    }

    #[test]
    fn complete_graph_cut() {
        // Balanced cut of K_n has (n/2)*(n/2) crossing edges for even n.
        let r = bisect(&gen::complete(8), &BisectionConfig::default()).unwrap();
        assert_eq!(r.cut, 16);
    }

    #[test]
    fn disconnected_graph_has_zero_cut() {
        // Two disjoint K_4s: split by component.
        let mut edges = Vec::new();
        for base in [0usize, 4] {
            for u in 0..4 {
                for v in (u + 1)..4 {
                    edges.push((base + u, base + v));
                }
            }
        }
        let g = Graph::from_edges(8, &edges).unwrap();
        let r = bisect(&g, &BisectionConfig::default()).unwrap();
        assert_eq!(r.cut, 0);
        assert!(r.partition.is_balanced(0));
    }

    #[test]
    fn odd_vertex_count_allows_one_slack() {
        let r = bisect(&gen::cycle(9), &BisectionConfig::default()).unwrap();
        assert_eq!(r.cut, 2);
        assert!(r.partition.is_balanced(1));
        assert!(!r.partition.is_balanced(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::grid(7, 9);
        let cfg = BisectionConfig { exact_threshold: 8, ..BisectionConfig::default() };
        let a = bisect(&g, &cfg).unwrap();
        let b = bisect(&g, &cfg).unwrap();
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.partition, b.partition);
    }
}
