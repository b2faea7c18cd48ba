//! Compressed-sparse-row storage for immutable undirected graphs.

use std::fmt;

/// Index of a vertex in a [`Graph`].
///
/// Vertices are dense integers `0..num_vertices`. The alias exists so call
/// sites read as graph code rather than arithmetic on bare `usize`s.
pub type VertexId = usize;

/// Why [`Graph::from_edges`] rejected an edge list.
///
/// Range and self-loop errors come first: they name the first such edge in
/// input order. Only a list without either is checked for duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphError {
    /// An endpoint was `>= num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices of the graph being built.
        num_vertices: usize,
    },
    /// Both endpoints of an edge were the same vertex.
    SelfLoop(VertexId),
    /// The undirected edge `(u, v)`, `u < v`, was listed more than once, in
    /// either orientation. `u` is the lowest vertex that repeats a
    /// neighbour, and `v` the lowest neighbour it repeats.
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

/// An immutable undirected graph stored in compressed-sparse-row form.
///
/// Simple graph: no self-loops, no parallel edges. Construct through
/// [`Graph::from_edges`]; each row is sorted, so two graphs with the same
/// edge set compare equal however their edges were listed.
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
    /// Builds the graph on vertices `0..num_vertices` whose undirected
    /// edges are `edges`, listed in any order and either orientation.
    ///
    /// Every edge is checked for range and self-loops in input order. The
    /// rows are then built and sorted, and a row that holds the same
    /// neighbour twice is a duplicate edge: `O(V + E log E)` in all.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`] for
    ///   the first edge, in input order, with an endpoint out of range or
    ///   both endpoints equal;
    /// * otherwise [`GraphError::DuplicateEdge`] if an edge is listed twice,
    ///   reported at the lowest vertex that repeats a neighbour.
    ///
    /// # Example
    ///
    /// ```
    /// use chiplet_graph::{Graph, GraphError};
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (2, 1)])?;
    /// assert_eq!(g.num_edges(), 2);
    /// assert_eq!(g.neighbors(1), &[0, 2]);
    /// let twice = Graph::from_edges(3, &[(1, 2), (2, 1)]);
    /// assert_eq!(twice, Err(GraphError::DuplicateEdge(1, 2)));
    /// # Ok::<(), GraphError>(())
    /// ```
    pub fn from_edges(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        for &(u, v) in edges {
            if let Some(vertex) = [u, v].into_iter().find(|&w| w >= num_vertices) {
                return Err(GraphError::VertexOutOfRange { vertex, num_vertices });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
        }
        let g = Self::from_edges_unchecked(num_vertices, edges);
        for u in g.vertices() {
            if let Some(pair) = g.neighbors(u).windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(GraphError::DuplicateEdge(u, pair[0]));
            }
        }
        Ok(g)
    }

    /// The CSR form of `edges`, every row sorted; `edges` must be in range
    /// and free of self-loops. [`Graph::from_edges`] checks that, and for
    /// duplicates, which this keeps as repeated neighbours.
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

    /// Heap bytes the adjacency arrays hold (their capacities).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * size_of::<usize>()
            + self.targets.capacity() * size_of::<VertexId>()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn single_vertex_no_edges() {
        let g = Graph::from_edges(1, &[]).unwrap();
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
        let err = Graph::from_edges(2, &[(0, 2)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 2, num_vertices: 2 });
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(Graph::from_edges(2, &[(1, 1)]).unwrap_err(), GraphError::SelfLoop(1));
    }

    #[test]
    fn rejects_duplicate_in_either_orientation() {
        let err = Graph::from_edges(2, &[(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge(0, 1));
        // The lowest vertex that repeats a neighbour names the duplicate,
        // whatever the input order.
        let err = Graph::from_edges(4, &[(2, 3), (3, 2), (1, 0), (0, 1)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge(0, 1));
    }

    #[test]
    fn range_and_self_loop_errors_precede_duplicates() {
        let err = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2), (0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(2));
        let err = Graph::from_edges(3, &[(0, 1), (1, 0), (4, 0), (2, 2)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 4, num_vertices: 3 });
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
