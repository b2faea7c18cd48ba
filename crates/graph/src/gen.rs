//! Deterministic generators for canonical graphs.
//!
//! Used throughout the workspace for tests and for cross-checking the
//! arrangement generators against known structures.

use crate::csr::{Graph, VertexId};

/// Path graph `P_n`: vertices `0..n` with edges `(i, i+1)`.
///
/// # Example
///
/// ```
/// let g = chiplet_graph::gen::path(4);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[must_use]
pub fn path(n: usize) -> Graph {
    simple(n, (1..n).map(|i| (i - 1, i)))
}

/// Cycle graph `C_n` (`n ≥ 3`); for `n < 3` falls back to [`path`].
#[must_use]
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return path(n);
    }
    simple(n, (1..n).map(|i| (i - 1, i)).chain([(n - 1, 0)]))
}

/// Complete graph `K_n`.
#[must_use]
pub fn complete(n: usize) -> Graph {
    from_coin(n, |_, _| true)
}

/// Star graph: vertex `0` connected to `leaves` leaf vertices `1..=leaves`.
#[must_use]
pub fn star(leaves: usize) -> Graph {
    simple(leaves + 1, (1..=leaves).map(|v| (0, v)))
}

/// `rows × cols` 2D mesh; vertex `(r, c)` is numbered `r * cols + c`.
///
/// This is the graph of the paper's regular/semi-regular **grid (G)**
/// arrangement.
#[must_use]
pub fn grid(rows: usize, cols: usize) -> Graph {
    let right = (0..rows * cols).filter(|v| v % cols + 1 < cols).map(|v| (v, v + 1));
    let up = (0..rows.saturating_sub(1) * cols).map(|v| (v, v + cols));
    simple(rows * cols, right.chain(up))
}

/// Erdős–Rényi `G(n, p)` random graph from an explicit RNG-free stream.
///
/// To stay deterministic without an RNG dependency in this crate, the
/// caller supplies the randomness: `coin(u, v)` decides whether edge
/// `{u, v}` (with `u < v`) exists.
#[must_use]
pub fn from_coin<F>(n: usize, mut coin: F) -> Graph
where
    F: FnMut(usize, usize) -> bool,
{
    simple(
        n,
        (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))).filter(|&(u, v)| coin(u, v)),
    )
}

/// The graph on `n` vertices with `edges`, which the generators above
/// produce simple and in range.
fn simple(n: usize, edges: impl Iterator<Item = (VertexId, VertexId)>) -> Graph {
    Graph::from_edges(n, &edges.collect::<Vec<_>>()).expect("generated edges are simple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn path_properties() {
        let g = path(6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(metrics::diameter(&g), Some(5));
        assert_eq!(metrics::degree_stats(&g).unwrap().min, 1);
    }

    #[test]
    fn path_degenerate_cases() {
        assert_eq!(path(0).num_vertices(), 0);
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(cycle(2).num_edges(), 1); // falls back to path
    }

    #[test]
    fn cycle_properties() {
        let g = cycle(10);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(metrics::diameter(&g), Some(5));
        let s = metrics::degree_stats(&g).unwrap();
        assert_eq!((s.min, s.max), (2, 2));
    }

    #[test]
    fn complete_properties() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(metrics::diameter(&g), Some(1));
    }

    #[test]
    fn grid_edge_count() {
        // rows*(cols-1) + cols*(rows-1) edges.
        let g = grid(3, 4);
        assert_eq!(g.num_edges(), 3 * 3 + 4 * 2);
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn grid_degenerate() {
        assert_eq!(grid(0, 5).num_vertices(), 0);
        assert_eq!(grid(1, 5).num_edges(), 4); // a path
    }

    #[test]
    fn from_coin_full_and_empty() {
        assert_eq!(from_coin(5, |_, _| true).num_edges(), 10);
        assert_eq!(from_coin(5, |_, _| false).num_edges(), 0);
    }
}
