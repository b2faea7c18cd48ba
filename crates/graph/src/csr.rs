//! Compressed-sparse-row storage for immutable undirected graphs.

use std::fmt;

/// Index of a vertex in a [`Graph`].
///
/// Vertices are dense integers `0..num_vertices`. The alias exists so call
/// sites read as graph code rather than arithmetic on bare `usize`s.
pub type VertexId = usize;

/// Errors produced while constructing a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphError {
    /// An endpoint was `>= num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices the builder was created with.
        num_vertices: usize,
    },
    /// Both endpoints of an edge were the same vertex.
    SelfLoop(VertexId),
    /// The same undirected edge was added twice.
    DuplicateEdge(VertexId, VertexId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range for graph with {num_vertices} vertices")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} is not allowed"),
            GraphError::DuplicateEdge(u, v) => {
                write!(f, "edge ({u}, {v}) was added more than once")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// The vertex count is fixed at construction; edges are added one at a time
/// and validated eagerly (C-VALIDATE).
///
/// # Example
///
/// ```
/// use chiplet_graph::GraphBuilder;
///
/// # fn main() -> Result<(), chiplet_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.degree(1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices and no edges.
    #[must_use]
    pub fn new(num_vertices: usize) -> Self {
        Self { num_vertices, edges: Vec::new() }
    }

    /// Number of vertices the final graph will have.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if an endpoint is out of range,
    /// * [`GraphError::SelfLoop`] if `u == v`,
    /// * [`GraphError::DuplicateEdge`] if `{u, v}` was already added.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut Self, GraphError> {
        for w in [u, v] {
            if w >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: w,
                    num_vertices: self.num_vertices,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let key = (u.min(v), u.max(v));
        if self.edges.contains(&key) {
            return Err(GraphError::DuplicateEdge(key.0, key.1));
        }
        self.edges.push(key);
        Ok(self)
    }

    /// Adds every edge from an iterator of endpoint pairs.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first invalid edge (see [`Self::add_edge`]).
    pub fn add_edges<I>(&mut self, edges: I) -> Result<&mut Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v)?;
        }
        Ok(self)
    }

    /// Finalises the builder into an immutable CSR [`Graph`].
    #[must_use]
    pub fn build(&self) -> Graph {
        Graph::from_edges_unchecked(self.num_vertices, &self.edges)
    }
}

/// An immutable undirected graph stored in compressed-sparse-row form.
///
/// Simple graph: no self-loops, no parallel edges. Construct through
/// [`GraphBuilder`] or [`Graph::from_edges`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    targets: Vec<VertexId>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Builds a graph from an explicit edge list.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`].
    ///
    /// # Example
    ///
    /// ```
    /// use chiplet_graph::Graph;
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
    /// assert_eq!(g.num_edges(), 2);
    /// # Ok::<(), chiplet_graph::GraphError>(())
    /// ```
    pub fn from_edges(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(num_vertices);
        b.add_edges(edges.iter().copied())?;
        Ok(b.build())
    }

    /// Builds without validation; `edges` must already be simple and in range.
    pub(crate) fn from_edges_unchecked(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Self {
        let mut degree = vec![0usize; num_vertices];
        for &(u, v) in edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0);
        for v in 0..num_vertices {
            offsets.push(offsets[v] + degree[v]);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0; 2 * edges.len()];
        for &(u, v) in edges {
            targets[cursor[u]] = v;
            cursor[u] += 1;
            targets[cursor[v]] = u;
            cursor[v] += 1;
        }
        for v in 0..num_vertices {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self { offsets, targets, num_edges: edges.len() }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` if the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Degree (number of incident edges) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `true` if the undirected edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..num_vertices`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices()
    }

    /// Iterator over each undirected edge once, as `(min, max)` pairs in
    /// ascending order of the smaller endpoint.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// This graph with the edges at the vertices in `moved` derived anew:
    /// every edge between two other vertices is kept, and `adjacent(m, v)`
    /// decides each pair of a moved vertex `m` and another vertex `v`, once
    /// per pair. `O(V · |moved| + E)`, where deriving the graph afresh
    /// tests all `V²/2` pairs: after a few vertices of a geometric adjacency
    /// move, only their pairs can change.
    ///
    /// `moved` must hold distinct vertices and `adjacent` must be
    /// symmetric; the result then equals the graph built from scratch with
    /// the same predicate on the moved pairs.
    ///
    /// # Panics
    ///
    /// Panics if a vertex in `moved` is out of range.
    #[must_use]
    pub fn rewired(
        &self,
        moved: &[VertexId],
        mut adjacent: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Graph {
        let n = self.num_vertices();
        let mut edges: Vec<(VertexId, VertexId)> =
            self.edges().filter(|(u, v)| !moved.contains(u) && !moved.contains(v)).collect();
        for (k, &m) in moved.iter().enumerate() {
            assert!(m < n, "moved vertex {m} out of range");
            debug_assert!(!moved[..k].contains(&m), "vertex {m} moved twice");
            for v in (0..n).filter(|&v| v != m && !moved[..k].contains(&v)) {
                if adjacent(m, v) {
                    edges.push((m.min(v), m.max(v)));
                }
            }
        }
        Self::from_edges_unchecked(n, &edges)
    }

    /// Iterator over the neighbours of `v` (see also [`Graph::neighbors`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbor_iter(&self, v: VertexId) -> NeighborIter<'_> {
        NeighborIter { inner: self.neighbors(v).iter() }
    }
}

/// Iterator over the neighbours of a vertex, returned by
/// [`Graph::neighbor_iter`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, VertexId>,
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn single_vertex_no_edges() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn triangle_adjacency() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn edge_iteration_yields_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(0, 2).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 2, num_vertices: 2 });
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(1, 1).unwrap_err(), GraphError::SelfLoop(1));
    }

    #[test]
    fn rejects_duplicate_in_either_orientation() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.add_edge(1, 0).unwrap_err(), GraphError::DuplicateEdge(0, 1));
    }

    #[test]
    fn neighbor_iter_matches_slice() {
        let g = Graph::from_edges(5, &[(0, 4), (0, 2), (0, 1)]).unwrap();
        let via_iter: Vec<_> = g.neighbor_iter(0).collect();
        assert_eq!(via_iter, g.neighbors(0));
        assert_eq!(g.neighbor_iter(0).len(), 3);
    }

    #[test]
    fn rewired_matches_a_fresh_build() {
        // A 4-cycle 0-1-2-3 in which vertices 1 and 3 move: afterwards 1
        // touches 2 and 3, and 3 touches 0 and 1.
        let after = [(0, 3), (1, 2), (1, 3)];
        let adjacent = |u: VertexId, v: VertexId| after.contains(&(u.min(v), u.max(v)));
        let before = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut calls = 0;
        let rewired = before.rewired(&[1, 3], |u, v| {
            calls += 1;
            adjacent(u, v)
        });
        // Kept: no edge avoids both moved vertices. Tested: 1 against 0, 2
        // and 3, then 3 against 0 and 2.
        assert_eq!(rewired, Graph::from_edges(4, &after).unwrap());
        assert_eq!(calls, 5);
        assert_eq!(before.rewired(&[], |_, _| true), before);
    }

    #[test]
    fn error_display_is_meaningful() {
        let msg = GraphError::SelfLoop(3).to_string();
        assert!(msg.contains("self-loop"));
        let msg = GraphError::DuplicateEdge(1, 2).to_string();
        assert!(msg.contains("(1, 2)"));
    }
}
