//! Edge-cut evaluation for vertex bipartitions.
//!
//! The bisection bandwidth proxy (§III-C) is the smallest number of edges
//! whose removal splits the chip into two balanced halves. Finding that cut is
//! the job of `chiplet-partition`; this module provides the shared primitives:
//! representing a bipartition and counting the edges it cuts.

use crate::csr::{Graph, VertexId};

/// Side of a bipartition a vertex is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// First part.
    A,
    /// Second part.
    B,
}

impl Side {
    /// The opposite side.
    #[must_use]
    pub fn flipped(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

/// A bipartition of the vertices of a graph.
///
/// # Example
///
/// ```
/// use chiplet_graph::{cut::{Bipartition, Side}, gen};
///
/// let g = gen::path(4);
/// let p = Bipartition::from_side_of(4, |v| if v < 2 { Side::A } else { Side::B });
/// assert_eq!(p.cut_size(&g), 1); // only edge (1,2) crosses
/// assert_eq!(p.sizes(), (2, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bipartition {
    sides: Vec<Side>,
}

impl Bipartition {
    /// Creates a bipartition with every vertex on side [`Side::A`].
    #[must_use]
    pub fn all_a(num_vertices: usize) -> Self {
        Self { sides: vec![Side::A; num_vertices] }
    }

    /// Creates a bipartition from a per-vertex side function.
    #[must_use]
    pub fn from_side_of<F>(num_vertices: usize, mut side_of: F) -> Self
    where
        F: FnMut(VertexId) -> Side,
    {
        Self { sides: (0..num_vertices).map(&mut side_of).collect() }
    }

    /// Creates a bipartition from an explicit side vector.
    #[must_use]
    pub fn from_sides(sides: Vec<Side>) -> Self {
        Self { sides }
    }

    /// Number of vertices covered by this bipartition.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// `true` if the bipartition covers no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// Side of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn side(&self, v: VertexId) -> Side {
        self.sides[v]
    }

    /// Moves vertex `v` to the opposite side.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn flip(&mut self, v: VertexId) {
        self.sides[v] = self.sides[v].flipped();
    }

    /// Number of vertices on each side, as `(|A|, |B|)`.
    #[must_use]
    pub fn sizes(&self) -> (usize, usize) {
        let a = self.sides.iter().filter(|&&s| s == Side::A).count();
        (a, self.sides.len() - a)
    }

    /// Absolute size difference `| |A| − |B| |`.
    #[must_use]
    pub fn imbalance(&self) -> usize {
        let (a, b) = self.sizes();
        a.abs_diff(b)
    }

    /// `true` if the parts differ in size by at most `tolerance` vertices.
    ///
    /// The paper's bisection uses `tolerance = 1` for odd vertex counts and
    /// `0` for even ones; see `chiplet-partition` for the search.
    #[must_use]
    pub fn is_balanced(&self, tolerance: usize) -> bool {
        self.imbalance() <= tolerance
    }

    /// Number of edges of `g` whose endpoints lie on different sides.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than this bipartition covers.
    #[must_use]
    pub fn cut_size(&self, g: &Graph) -> usize {
        assert!(
            g.num_vertices() <= self.sides.len(),
            "bipartition covers {} vertices, graph has {}",
            self.sides.len(),
            g.num_vertices()
        );
        g.edges().filter(|&(u, v)| self.sides[u] != self.sides[v]).count()
    }

    /// Vertices on the given side, in ascending order.
    #[must_use]
    pub fn vertices_on(&self, side: Side) -> Vec<VertexId> {
        self.sides.iter().enumerate().filter(|&(_, &s)| s == side).map(|(v, _)| v).collect()
    }

    /// For vertex `v`, the number of incident edges crossing the cut
    /// (external) and staying inside its part (internal): `(external,
    /// internal)`. The FM *gain* of moving `v` is `external − internal`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range of the graph.
    #[must_use]
    pub fn external_internal_degree(&self, g: &Graph, v: VertexId) -> (usize, usize) {
        let mut external = 0;
        let mut internal = 0;
        for &u in g.neighbors(v) {
            if self.sides[u] == self.sides[v] {
                internal += 1;
            } else {
                external += 1;
            }
        }
        (external, internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn cut_of_uniform_partition_is_zero() {
        let g = gen::complete(5);
        let p = Bipartition::all_a(5);
        assert_eq!(p.cut_size(&g), 0);
        assert_eq!(p.sizes(), (5, 0));
        assert!(!p.is_balanced(1));
    }

    #[test]
    fn cut_of_grid_bisection_matches_formula() {
        // Vertical bisection of an even k x k grid cuts exactly k edges
        // (B_G = sqrt(N) in the paper).
        for k in [2usize, 4, 6, 8] {
            let g = gen::grid(k, k);
            // gen::grid numbers vertices row-major: v = r*k + c.
            let p =
                Bipartition::from_side_of(
                    k * k,
                    |v| {
                        if v % k < k / 2 {
                            Side::A
                        } else {
                            Side::B
                        }
                    },
                );
            assert!(p.is_balanced(0));
            assert_eq!(p.cut_size(&g), k);
        }
    }

    #[test]
    fn flip_moves_vertex_and_updates_cut() {
        let g = gen::path(3);
        let mut p = Bipartition::from_sides(vec![Side::A, Side::A, Side::B]);
        assert_eq!(p.cut_size(&g), 1);
        p.flip(1);
        assert_eq!(p.side(1), Side::B);
        assert_eq!(p.cut_size(&g), 1); // now edge (0,1) crosses instead
        p.flip(0);
        assert_eq!(p.cut_size(&g), 0);
    }

    #[test]
    fn external_internal_degrees() {
        let g = gen::star(4); // centre 0 with leaves 1..=4
        let p = Bipartition::from_side_of(5, |v| if v <= 2 { Side::A } else { Side::B });
        let (ext, int) = p.external_internal_degree(&g, 0);
        assert_eq!(ext, 2); // leaves 3,4
        assert_eq!(int, 2); // leaves 1,2
    }

    #[test]
    fn vertices_on_side() {
        let p = Bipartition::from_sides(vec![Side::B, Side::A, Side::B]);
        assert_eq!(p.vertices_on(Side::A), vec![1]);
        assert_eq!(p.vertices_on(Side::B), vec![0, 2]);
        assert_eq!(p.imbalance(), 1);
    }

    #[test]
    fn side_flipped_is_involution() {
        assert_eq!(Side::A.flipped(), Side::B);
        assert_eq!(Side::A.flipped().flipped(), Side::A);
    }
}
