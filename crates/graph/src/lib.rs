//! Compact undirected-graph kernel for chiplet-interconnect analysis.
//!
//! The HexaMesh methodology (Iff et al., DAC 2023) models a 2.5D-stacked chip
//! as a planar graph: vertices are chiplets and edges are die-to-die links
//! between chiplets that share a boundary edge. This crate provides the graph
//! substrate every other layer of the reproduction builds on:
//!
//! * [`Graph`] — an immutable undirected graph in compressed sparse row (CSR)
//!   form, built through [`GraphBuilder`],
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
//! use chiplet_graph::{Graph, GraphBuilder};
//!
//! # fn main() -> Result<(), chiplet_graph::GraphError> {
//! // A 4-cycle: 0-1-2-3-0.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1)?;
//! b.add_edge(1, 2)?;
//! b.add_edge(2, 3)?;
//! b.add_edge(3, 0)?;
//! let g: Graph = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(chiplet_graph::metrics::diameter(&g), Some(2));
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

pub use csr::{Graph, GraphBuilder, GraphError, NeighborIter, VertexId};
