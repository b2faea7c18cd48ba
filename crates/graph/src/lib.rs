//! Compact undirected-graph kernel for chiplet-interconnect analysis.
//!
//! The HexaMesh methodology (Iff et al., DAC 2023) models a 2.5D-stacked chip
//! as a planar graph: vertices are chiplets and edges are die-to-die links
//! between chiplets that share a boundary edge. This crate provides the graph
//! substrate every other layer of the reproduction builds on:
//!
//! * [`Graph`] — an immutable undirected graph in compressed sparse row (CSR)
//!   form, built from an edge list by [`Graph::from_edges`],
//! * breadth-first traversal and all-pairs distance helpers ([`bfs`]),
//! * global metrics used as *performance proxies* by the paper: network
//!   diameter, eccentricities, degree statistics ([`metrics`]),
//! * bipartition cut evaluation used by the METIS-substitute partitioner
//!   ([`cut`]),
//! * deterministic generators for canonical test graphs ([`gen`]).
//!
//! # Example
//!
//! ```
//! use chiplet_graph::{Graph, GraphError};
//!
//! # fn main() -> Result<(), GraphError> {
//! // A 4-cycle: 0-1-2-3-0. Edges may come in any order and orientation.
//! let g = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3), (3, 0)])?;
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.neighbors(0), &[1, 3]);
//! assert_eq!(chiplet_graph::metrics::diameter(&g), Some(2));
//!
//! // Listing an edge twice, in either orientation, is an error.
//! let twice = Graph::from_edges(4, &[(0, 1), (1, 0)]);
//! assert_eq!(twice, Err(GraphError::DuplicateEdge(0, 1)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod centrality;
pub mod csr;
pub mod cut;
pub mod gen;
pub mod metrics;
pub mod resilience;

pub use csr::{Graph, GraphError, VertexId};
