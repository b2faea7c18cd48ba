//! Balanced k-way partitioning.
//!
//! METIS's headline feature is k-way partitioning; the paper only needs
//! 2-way cuts, but a k-way partitioner makes the substitute complete and
//! enables mapping experiments (e.g. assigning k workloads to chiplet
//! regions). The algorithm is seed-and-grow with boundary refinement:
//!
//! 1. **Seeding**: k seeds chosen farthest-first (each next seed maximises
//!    its BFS distance to the already-chosen ones);
//! 2. **Growing**: multi-source BFS assigns each vertex to the nearest
//!    seed's part, subject to a per-part size cap `⌈n/k⌉`;
//! 3. **Refinement**: greedy boundary moves that reduce the edge cut while
//!    keeping all parts within the balance band.

use chiplet_graph::{bfs, Graph};
use std::collections::VecDeque;
use std::fmt;

/// Errors from k-way partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KwayError {
    /// `k` must be at least 1.
    ZeroParts,
    /// More parts than vertices.
    TooManyParts {
        /// Requested part count.
        k: usize,
        /// Available vertices.
        n: usize,
    },
}

impl fmt::Display for KwayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KwayError::ZeroParts => write!(f, "cannot partition into zero parts"),
            KwayError::TooManyParts { k, n } => {
                write!(f, "cannot split {n} vertices into {k} parts")
            }
        }
    }
}

impl std::error::Error for KwayError {}

/// A k-way assignment: `parts[v]` is the part id of vertex `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KwayPartition {
    parts: Vec<usize>,
    k: usize,
}

impl KwayPartition {
    /// Part id of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn part(&self, v: usize) -> usize {
        self.parts[v]
    }

    /// Per-vertex part ids.
    #[must_use]
    pub fn parts(&self) -> &[usize] {
        &self.parts
    }

    /// Number of parts.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Vertices per part.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.parts {
            sizes[p] += 1;
        }
        sizes
    }

    /// Number of edges whose endpoints lie in different parts.
    #[must_use]
    pub fn edge_cut(&self, g: &Graph) -> usize {
        g.edges().filter(|&(u, v)| self.parts[u] != self.parts[v]).count()
    }

    /// `true` if every part holds between `⌊n/k⌋ − tolerance` and
    /// `⌈n/k⌉ + tolerance` vertices.
    #[must_use]
    pub fn is_balanced(&self, tolerance: usize) -> bool {
        let n = self.parts.len();
        let lo = (n / self.k).saturating_sub(tolerance);
        let hi = n.div_ceil(self.k) + tolerance;
        self.sizes().iter().all(|&s| (lo..=hi).contains(&s))
    }
}

/// Partitions `g` into `k` balanced parts, minimising the edge cut
/// greedily.
///
/// # Errors
///
/// * [`KwayError::ZeroParts`] if `k == 0`;
/// * [`KwayError::TooManyParts`] if `k > g.num_vertices()`.
///
/// # Example
///
/// ```
/// use chiplet_graph::gen;
/// use chiplet_partition::partition_kway;
///
/// // Four balanced regions of a 4x4 chiplet grid.
/// let p = partition_kway(&gen::grid(4, 4), 4)?;
/// assert!(p.is_balanced(0));
/// assert_eq!(p.sizes(), vec![4, 4, 4, 4]);
/// # Ok::<(), chiplet_partition::KwayError>(())
/// ```
pub fn partition_kway(g: &Graph, k: usize) -> Result<KwayPartition, KwayError> {
    let n = g.num_vertices();
    if k == 0 {
        return Err(KwayError::ZeroParts);
    }
    if k > n {
        return Err(KwayError::TooManyParts { k, n });
    }
    if k == 1 {
        return Ok(KwayPartition { parts: vec![0; n], k });
    }

    let seeds = farthest_first_seeds(g, k);
    let mut parts = grow_from_seeds(g, &seeds, k);
    rebalance(g, &mut parts, k);
    refine(g, &mut parts, k);
    Ok(KwayPartition { parts, k })
}

/// Farthest-first traversal: seed 0 is a pseudo-peripheral vertex; every
/// next seed maximises its BFS distance to the chosen set (unreachable
/// vertices count as infinitely far, so each component gets seeds first).
fn farthest_first_seeds(g: &Graph, k: usize) -> Vec<usize> {
    let n = g.num_vertices();
    // Pseudo-peripheral start: BFS twice from vertex 0.
    let d0 = bfs::distances(g, 0);
    let start = (0..n).max_by_key(|&v| if d0[v] == u32::MAX { 0 } else { d0[v] }).unwrap_or(0);
    let mut seeds = vec![start];
    let mut min_dist: Vec<u64> = bfs::distances(g, start)
        .into_iter()
        .map(|d| if d == u32::MAX { u64::MAX } else { u64::from(d) })
        .collect();
    while seeds.len() < k {
        let next = (0..n)
            .filter(|v| !seeds.contains(v))
            .max_by_key(|&v| min_dist[v])
            .expect("k <= n leaves a candidate");
        seeds.push(next);
        for (v, d) in bfs::distances(g, next).into_iter().enumerate() {
            let d = if d == u32::MAX { u64::MAX } else { u64::from(d) };
            min_dist[v] = min_dist[v].min(d);
        }
    }
    seeds
}

/// Multi-source BFS growth with per-part caps.
fn grow_from_seeds(g: &Graph, seeds: &[usize], k: usize) -> Vec<usize> {
    let n = g.num_vertices();
    let cap = n.div_ceil(k);
    let mut parts = vec![usize::MAX; n];
    let mut sizes = vec![0usize; k];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for (p, &s) in seeds.iter().enumerate() {
        if parts[s] == usize::MAX {
            parts[s] = p;
            sizes[p] += 1;
            queue.push_back((s, p));
        }
    }
    while let Some((v, p)) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if parts[u] == usize::MAX && sizes[p] < cap {
                parts[u] = p;
                sizes[p] += 1;
                queue.push_back((u, p));
            }
        }
    }
    // Strays (isolated vertices, or capped-out regions): smallest part.
    for part in parts.iter_mut().filter(|p| **p == usize::MAX) {
        let p = (0..k).min_by_key(|&p| sizes[p]).expect("k >= 1");
        *part = p;
        sizes[p] += 1;
    }
    parts
}

/// Restores the balance band after growth: BFS growth with caps can leave
/// a part under-filled (two parts hit their cap and strand the remainder).
/// While any part is below `⌊n/k⌋`, pull the friendliest vertex from the
/// currently largest part.
fn rebalance(g: &Graph, parts: &mut [usize], k: usize) {
    let n = g.num_vertices();
    let lo = n / k;
    let mut sizes = vec![0usize; k];
    for &p in parts.iter() {
        sizes[p] += 1;
    }
    while let Some(under) = (0..k).find(|&p| sizes[p] < lo) {
        let donor = (0..k).max_by_key(|&p| sizes[p]).expect("k >= 1");
        debug_assert!(donor != under && sizes[donor] > lo);
        // Prefer the donor vertex with the most neighbours already in the
        // under-filled part (and the fewest left behind).
        let v = (0..n)
            .filter(|&v| parts[v] == donor)
            .max_by_key(|&v| {
                let mut score = 0i64;
                for &u in g.neighbors(v) {
                    if parts[u] == under {
                        score += 1;
                    } else if parts[u] == donor {
                        score -= 1;
                    }
                }
                score
            })
            .expect("donor part is non-empty");
        parts[v] = under;
        sizes[donor] -= 1;
        sizes[under] += 1;
    }
}

/// Greedy boundary refinement: single moves to the adjacent part with the
/// largest cut gain while staying inside the balance band, plus
/// balance-preserving pairwise swaps (which rescue moves a single-vertex
/// balance check would block).
fn refine(g: &Graph, parts: &mut [usize], k: usize) {
    let n = g.num_vertices();
    let lo = n / k;
    let hi = n.div_ceil(k);
    let mut sizes = vec![0usize; k];
    for &p in parts.iter() {
        sizes[p] += 1;
    }
    // Cut gain of moving `v` into part `q`.
    let gain = |parts: &[usize], v: usize, q: usize| -> i64 {
        let mut external = 0i64;
        let mut internal = 0i64;
        for &u in g.neighbors(v) {
            if parts[u] == q {
                external += 1;
            } else if parts[u] == parts[v] {
                internal += 1;
            }
        }
        external - internal
    };
    for _pass in 0..12 {
        let mut improved = false;
        // Phase 1: single moves.
        for v in 0..n {
            let current = parts[v];
            if sizes[current] <= lo {
                continue; // would under-fill the current part
            }
            let candidate_parts: Vec<usize> = g
                .neighbors(v)
                .iter()
                .map(|&u| parts[u])
                .filter(|&p| p != current && sizes[p] < hi)
                .collect();
            if let Some((best_part, best_gain)) = candidate_parts
                .into_iter()
                .map(|p| (p, gain(parts, v, p)))
                .max_by_key(|&(_, gain)| gain)
            {
                if best_gain > 0 {
                    parts[v] = best_part;
                    sizes[current] -= 1;
                    sizes[best_part] += 1;
                    improved = true;
                }
            }
        }
        // Phase 2: balance-preserving swaps across part pairs.
        for u in 0..n {
            for v in (u + 1)..n {
                let (p, q) = (parts[u], parts[v]);
                if p == q {
                    continue;
                }
                let adjacent = i64::from(g.has_edge(u, v));
                // A cut edge between u and v stays cut after the swap, so
                // both per-vertex gains overcount it once.
                let swap_gain = gain(parts, u, q) + gain(parts, v, p) - 2 * adjacent;
                if swap_gain > 0 {
                    parts[u] = q;
                    parts[v] = p;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    #[test]
    fn rejects_degenerate_k() {
        let g = gen::path(4);
        assert_eq!(partition_kway(&g, 0).unwrap_err(), KwayError::ZeroParts);
        assert_eq!(partition_kway(&g, 5).unwrap_err(), KwayError::TooManyParts { k: 5, n: 4 });
    }

    #[test]
    fn one_part_is_trivial() {
        let g = gen::grid(3, 3);
        let p = partition_kway(&g, 1).unwrap();
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.sizes(), vec![9]);
    }

    #[test]
    fn path_into_k_segments() {
        // A path cut into k parts needs k − 1 cut edges; the greedy grower
        // is allowed one extra (pairwise refinement cannot always reach the
        // segment optimum — that needs 3-cycle rotations).
        let g = gen::path(12);
        for k in [2usize, 3, 4, 6] {
            let p = partition_kway(&g, k).unwrap();
            assert!(p.is_balanced(0), "k={k} sizes {:?}", p.sizes());
            assert!(p.edge_cut(&g) <= k, "k={k}: cut {}", p.edge_cut(&g));
            assert!(p.edge_cut(&g) >= k - 1, "k={k}: cut below the connectivity bound");
        }
        // The 2-way case has no such excuse.
        assert_eq!(partition_kway(&g, 2).unwrap().edge_cut(&g), 1);
    }

    #[test]
    fn grid_quadrants() {
        // A 4x4 grid into 4 parts: the quadrant optimum cuts 8 edges; allow
        // the greedy grower a 25% slack.
        let g = gen::grid(4, 4);
        let p = partition_kway(&g, 4).unwrap();
        assert!(p.is_balanced(0), "sizes {:?}", p.sizes());
        assert!(p.edge_cut(&g) <= 10, "cut {} too high", p.edge_cut(&g));
        assert!(p.edge_cut(&g) >= 8, "cut {} beats the quadrant optimum", p.edge_cut(&g));
    }

    #[test]
    fn two_way_matches_bisection_quality() {
        let g = gen::grid(6, 6);
        let kway = partition_kway(&g, 2).unwrap();
        let bisection = crate::bisect(&g, &crate::BisectionConfig::default()).unwrap();
        assert!(kway.is_balanced(0));
        // The simple k-way grower is allowed to trail the multilevel
        // bisection, but not by more than a couple of edges on a grid.
        assert!(
            kway.edge_cut(&g) <= bisection.cut + 3,
            "kway {} vs bisect {}",
            kway.edge_cut(&g),
            bisection.cut
        );
    }

    #[test]
    fn disconnected_components_split_cleanly() {
        // Two disjoint paths of 4: two parts, zero cut.
        let g = chiplet_graph::Graph::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)],
        )
        .unwrap();
        let p = partition_kway(&g, 2).unwrap();
        assert!(p.is_balanced(0));
        assert_eq!(p.edge_cut(&g), 0, "parts {:?}", p.parts());
    }

    #[test]
    fn all_parts_nonempty_even_with_isolated_vertices() {
        let g = chiplet_graph::Graph::from_edges(6, &[]).unwrap(); // no edges at all
        let p = partition_kway(&g, 3).unwrap();
        assert!(p.is_balanced(0), "sizes {:?}", p.sizes());
        assert!(p.sizes().iter().all(|&s| s == 2));
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let g = gen::cycle(5);
        let p = partition_kway(&g, 5).unwrap();
        assert_eq!(p.sizes(), vec![1; 5]);
        assert_eq!(p.edge_cut(&g), 5); // every cycle edge is cut
    }
}
