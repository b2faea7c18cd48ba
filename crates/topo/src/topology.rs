//! The [`Topology`] type: a router graph with per-link physical lengths.

use std::collections::HashMap;
use std::fmt;

use chiplet_graph::Graph;

/// One undirected link with its physical length in chiplet pitches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEdge {
    /// Lower endpoint (router id).
    pub u: usize,
    /// Upper endpoint (router id), `u < v`.
    pub v: usize,
    /// Physical (routed) length in units of the chiplet pitch, > 0.
    pub length_pitch: f64,
}

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// An edge references a router id `>= num_routers`.
    VertexOutOfRange {
        /// The offending endpoint id.
        vertex: usize,
        /// Number of routers in the topology.
        num_routers: usize,
    },
    /// An edge connects a router to itself.
    SelfLoop(usize),
    /// The same router pair appears twice.
    DuplicateEdge(usize, usize),
    /// A link length was zero, negative, or non-finite.
    InvalidLength(usize, usize),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::VertexOutOfRange { vertex, num_routers } => {
                write!(f, "vertex {vertex} out of range for {num_routers} routers")
            }
            TopologyError::SelfLoop(v) => write!(f, "self loop at router {v}"),
            TopologyError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            TopologyError::InvalidLength(u, v) => {
                write!(f, "edge ({u}, {v}) needs a positive, finite length")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A named router topology whose links carry physical lengths.
///
/// Lengths are in units of the chiplet pitch; multiply by the pitch in mm
/// (from the arrangement's chiplet shape) to get wire lengths for the
/// signal-integrity model.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_routers: usize,
    edges: Vec<LinkEdge>,
    graph: Graph,
    length_by_pair: HashMap<(usize, usize), f64>,
}

impl Topology {
    /// Builds a topology from an undirected edge list. Edges are normalised
    /// to `u < v`; order is preserved otherwise.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, self loops, duplicate pairs, and
    /// non-positive or non-finite lengths.
    ///
    /// # Example
    ///
    /// ```
    /// use chiplet_topo::Topology;
    ///
    /// // A triangle with one two-pitch chord.
    /// let t = Topology::new("tri", 3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])?;
    /// assert_eq!(t.length_of(2, 0), Some(2.0));
    /// assert_eq!(t.max_degree(), 2);
    /// # Ok::<(), chiplet_topo::TopologyError>(())
    /// ```
    pub fn new(
        name: impl Into<String>,
        num_routers: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, TopologyError> {
        let mut normalised = Vec::new();
        let mut pairs = Vec::new();
        let mut length_by_pair = HashMap::new();
        for (a, b, length) in edges {
            let (u, v) = if a < b { (a, b) } else { (b, a) };
            if u == v {
                return Err(TopologyError::SelfLoop(u));
            }
            for w in [u, v] {
                if w >= num_routers {
                    return Err(TopologyError::VertexOutOfRange { vertex: w, num_routers });
                }
            }
            if !length.is_finite() || length <= 0.0 {
                return Err(TopologyError::InvalidLength(u, v));
            }
            if length_by_pair.insert((u, v), length).is_some() {
                return Err(TopologyError::DuplicateEdge(u, v));
            }
            normalised.push(LinkEdge { u, v, length_pitch: length });
            pairs.push((u, v));
        }
        let graph = Graph::from_edges(num_routers, &pairs).expect("validated edges");
        Ok(Self { name: name.into(), num_routers, edges: normalised, graph, length_by_pair })
    }

    /// Topology name (used in reports and CSV output).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of routers.
    #[must_use]
    pub fn num_routers(&self) -> usize {
        self.num_routers
    }

    /// The undirected edges with lengths.
    #[must_use]
    pub fn edges(&self) -> &[LinkEdge] {
        &self.edges
    }

    /// The router graph (lengths stripped).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Length in pitches of the link between `u` and `v`, if present.
    #[must_use]
    pub fn length_of(&self, u: usize, v: usize) -> Option<f64> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.length_by_pair.get(&key).copied()
    }

    /// The longest link in pitches (0.0 for an edgeless topology).
    #[must_use]
    pub fn max_length_pitch(&self) -> f64 {
        self.edges.iter().map(|e| e.length_pitch).fold(0.0, f64::max)
    }

    /// Mean link length in pitches (`None` for an edgeless topology).
    #[must_use]
    pub fn avg_length_pitch(&self) -> Option<f64> {
        if self.edges.is_empty() {
            return None;
        }
        Some(self.edges.iter().map(|e| e.length_pitch).sum::<f64>() / self.edges.len() as f64)
    }

    /// Highest router degree (0 for an edgeless topology).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.num_routers).map(|v| self.graph.degree(v)).max().unwrap_or(0)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} routers, {} links, max length {:.1} pitch)",
            self.name,
            self.num_routers,
            self.edges.len(),
            self.max_length_pitch()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_normalises_edges() {
        let t = Topology::new("t", 3, [(2, 0, 1.0), (1, 2, 2.0)]).unwrap();
        assert_eq!(t.edges()[0], LinkEdge { u: 0, v: 2, length_pitch: 1.0 });
        assert_eq!(t.length_of(2, 1), Some(2.0));
        assert_eq!(t.length_of(1, 2), Some(2.0));
        assert_eq!(t.length_of(0, 1), None);
        assert_eq!(t.graph().num_edges(), 2);
    }

    #[test]
    fn rejects_malformed_edges() {
        assert_eq!(
            Topology::new("t", 2, [(0, 0, 1.0)]).unwrap_err(),
            TopologyError::SelfLoop(0)
        );
        assert!(matches!(
            Topology::new("t", 2, [(0, 5, 1.0)]).unwrap_err(),
            TopologyError::VertexOutOfRange { vertex: 5, .. }
        ));
        assert_eq!(
            Topology::new("t", 3, [(0, 1, 1.0), (1, 0, 2.0)]).unwrap_err(),
            TopologyError::DuplicateEdge(0, 1)
        );
        assert_eq!(
            Topology::new("t", 2, [(0, 1, 0.0)]).unwrap_err(),
            TopologyError::InvalidLength(0, 1)
        );
        assert_eq!(
            Topology::new("t", 2, [(0, 1, f64::NAN)]).unwrap_err(),
            TopologyError::InvalidLength(0, 1)
        );
    }

    #[test]
    fn length_statistics() {
        let t = Topology::new("t", 4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]).unwrap();
        assert_eq!(t.max_length_pitch(), 3.0);
        assert_eq!(t.avg_length_pitch(), Some(2.0));
        assert_eq!(t.max_degree(), 2);
        let empty = Topology::new("e", 2, []).unwrap();
        assert_eq!(empty.max_length_pitch(), 0.0);
        assert_eq!(empty.avg_length_pitch(), None);
        assert_eq!(empty.max_degree(), 0);
    }

    #[test]
    fn display_summarises() {
        let t = Topology::new("demo", 3, [(0, 1, 1.0), (1, 2, 2.5)]).unwrap();
        let s = t.to_string();
        assert!(s.contains("demo") && s.contains("3 routers") && s.contains("2.5"), "{s}");
    }
}
