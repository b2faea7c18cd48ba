//! Geometric chiplet floorplans and adjacency extraction.
//!
//! The HexaMesh methodology derives the inter-chiplet-interconnect graph from
//! *geometry*: two chiplets may be linked only if they share a boundary edge
//! of positive length (§III-C — a common corner is not enough, it would
//! lengthen the D2D link). This crate provides:
//!
//! * [`Rect`] — axis-aligned rectangles on an integer lattice (exact
//!   arithmetic; no floating-point adjacency bugs),
//! * [`Placement`] — a validated, overlap-free set of placed chiplets,
//! * adjacency-graph extraction: the [`contact_graph`] of a set of
//!   rectangles, which [`Placement::compute_adjacency_graph`] builds over
//!   the compute chiplets,
//! * perimeter I/O-chiplet placement mirroring Fig. 2 of the paper
//!   ([`perimeter`]).
//!
//! Arrangement *generators* (grid, brickwall, HexaMesh, honeycomb) live in
//! the `hexamesh` core crate; this crate is the geometric substrate they
//! target.
//!
//! # Example
//!
//! ```
//! use chiplet_layout::{PlacedChiplet, Placement, Rect};
//!
//! # fn main() -> Result<(), chiplet_layout::LayoutError> {
//! let mut p = Placement::new();
//! p.push(PlacedChiplet::compute(Rect::new(0, 0, 2, 2)?))?;
//! p.push(PlacedChiplet::compute(Rect::new(2, 0, 2, 2)?))?; // shares an edge
//! p.push(PlacedChiplet::compute(Rect::new(4, 2, 2, 2)?))?; // corner only
//! let g = p.compute_adjacency_graph();
//! assert_eq!(g.num_edges(), 1); // corner contact is not adjacency
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perimeter;
pub mod placement;
pub mod rect;
pub mod svg;

pub use placement::{contact_graph, ChipletKind, LayoutError, PlacedChiplet, Placement};
pub use rect::Rect;
