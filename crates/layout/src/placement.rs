//! Validated chiplet placements and adjacency-graph extraction.

use std::fmt;

use chiplet_graph::Graph;

use crate::rect::Rect;

/// Errors produced while building a [`Placement`] or a [`Rect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutError {
    /// A rectangle had a non-positive width or height.
    EmptyRect {
        /// Offending width.
        width: i64,
        /// Offending height.
        height: i64,
    },
    /// A chiplet overlaps an already-placed chiplet.
    Overlap {
        /// Index of the existing chiplet that is overlapped.
        existing: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LayoutError::EmptyRect { width, height } => {
                write!(f, "rectangle extent {width}x{height} must be positive")
            }
            LayoutError::Overlap { existing } => {
                write!(f, "chiplet overlaps already-placed chiplet {existing}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Functional role of a placed chiplet.
///
/// The paper optimises the arrangement of identical **compute** chiplets and
/// assumes **I/O** (and other) chiplets sit on the perimeter (Fig. 2); only
/// compute chiplets participate in the optimised ICI graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipletKind {
    /// One of the identical compute chiplets being arranged.
    Compute,
    /// A perimeter chiplet (I/O drivers or other functions).
    Io,
}

/// A chiplet with a position, extent and role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacedChiplet {
    /// Footprint on the interposer/package, in layout units.
    pub rect: Rect,
    /// Functional role.
    pub kind: ChipletKind,
}

impl PlacedChiplet {
    /// Convenience constructor for a compute chiplet.
    #[must_use]
    pub fn compute(rect: Rect) -> Self {
        Self { rect, kind: ChipletKind::Compute }
    }

    /// Convenience constructor for an I/O chiplet.
    #[must_use]
    pub fn io(rect: Rect) -> Self {
        Self { rect, kind: ChipletKind::Io }
    }
}

/// An overlap-free collection of placed chiplets.
///
/// Insertion validates against every existing chiplet (O(n) per push; the
/// arrangements in this workspace have at most a few hundred chiplets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    chiplets: Vec<PlacedChiplet>,
}

impl Placement {
    /// Creates an empty placement.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a chiplet, validating that it does not overlap any existing one.
    ///
    /// Returns the index of the new chiplet.
    ///
    /// # Errors
    ///
    /// [`LayoutError::Overlap`] naming the first overlapped chiplet.
    pub fn push(&mut self, chiplet: PlacedChiplet) -> Result<usize, LayoutError> {
        for (i, existing) in self.chiplets.iter().enumerate() {
            if existing.rect.overlaps(&chiplet.rect) {
                return Err(LayoutError::Overlap { existing: i });
            }
        }
        self.chiplets.push(chiplet);
        Ok(self.chiplets.len() - 1)
    }

    /// All chiplets in insertion order.
    #[must_use]
    pub fn chiplets(&self) -> &[PlacedChiplet] {
        &self.chiplets
    }

    /// Number of chiplets of any kind.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chiplets.len()
    }

    /// `true` if nothing has been placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chiplets.is_empty()
    }

    /// Number of compute chiplets.
    #[must_use]
    pub fn compute_count(&self) -> usize {
        self.chiplets.iter().filter(|c| c.kind == ChipletKind::Compute).count()
    }

    /// Indices of compute chiplets, in insertion order.
    #[must_use]
    pub fn compute_indices(&self) -> Vec<usize> {
        self.chiplets
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == ChipletKind::Compute)
            .map(|(i, _)| i)
            .collect()
    }

    /// Adjacency graph over **compute chiplets only** — the paper's ICI graph
    /// (§III-C): the [`contact_graph`] of their rectangles. Vertex `i` of the
    /// result is the `i`-th compute chiplet.
    #[must_use]
    pub fn compute_adjacency_graph(&self) -> Graph {
        let rects: Vec<Rect> = self
            .chiplets
            .iter()
            .filter(|c| c.kind == ChipletKind::Compute)
            .map(|c| c.rect)
            .collect();
        contact_graph(&rects)
    }

    /// Smallest rectangle containing every chiplet, or `None` when empty.
    #[must_use]
    pub fn bounding_box(&self) -> Option<Rect> {
        self.chiplets.iter().map(|c| c.rect).reduce(|acc, r| acc.union_bounds(&r))
    }

    /// Total area covered by chiplets, in layout units squared.
    #[must_use]
    pub fn total_area(&self) -> i64 {
        self.chiplets.iter().map(|c| c.rect.area()).sum()
    }

    /// Fraction of the bounding box covered by chiplets (`0.0` when empty).
    ///
    /// The grid tiles its bounding box perfectly (utilisation 1.0); HexaMesh
    /// leaves perimeter notches that I/O chiplets fill (Fig. 2 / Fig. 4).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        match self.bounding_box() {
            Some(bb) => self.total_area() as f64 / bb.area() as f64,
            None => 0.0,
        }
    }
}

/// The contact graph of `rects`: vertex `i` is `rects[i]`, and an edge
/// joins every two rectangles that share a boundary of positive length
/// ([`Rect::is_adjacent`]; a common corner is not enough, §III-C). Tests
/// each of the `n(n − 1)/2` pairs once.
///
/// # Example
///
/// ```
/// use chiplet_layout::{contact_graph, Rect};
///
/// # fn main() -> Result<(), chiplet_layout::LayoutError> {
/// let rects = [Rect::new(0, 0, 2, 2)?, Rect::new(2, 0, 2, 2)?, Rect::new(4, 2, 2, 2)?];
/// let g = contact_graph(&rects);
/// assert!(g.has_edge(0, 1)); // a shared edge
/// assert!(!g.has_edge(1, 2)); // a shared corner only
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn contact_graph(rects: &[Rect]) -> Graph {
    let mut edges = Vec::new();
    for (i, a) in rects.iter().enumerate() {
        for (j, b) in rects.iter().enumerate().skip(i + 1) {
            if a.is_adjacent(b) {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(rects.len(), &edges).expect("each pair is tested once")
}

impl FromIterator<PlacedChiplet> for Result<Placement, LayoutError> {
    fn from_iter<T: IntoIterator<Item = PlacedChiplet>>(iter: T) -> Self {
        let mut p = Placement::new();
        for c in iter {
            p.push(c)?;
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::new(x, y, w, h).expect("valid test rect")
    }

    #[test]
    fn push_rejects_overlap() {
        let mut p = Placement::new();
        p.push(PlacedChiplet::compute(rect(0, 0, 4, 4))).unwrap();
        let err = p.push(PlacedChiplet::compute(rect(2, 2, 4, 4))).unwrap_err();
        assert_eq!(err, LayoutError::Overlap { existing: 0 });
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn touching_chiplets_are_legal() {
        let mut p = Placement::new();
        p.push(PlacedChiplet::compute(rect(0, 0, 2, 2))).unwrap();
        assert!(p.push(PlacedChiplet::compute(rect(2, 0, 2, 2))).is_ok());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn grid_adjacency_graph() {
        // 2x2 grid of unit chiplets -> 4-cycle.
        let mut p = Placement::new();
        for y in 0..2 {
            for x in 0..2 {
                p.push(PlacedChiplet::compute(rect(x, y, 1, 1))).unwrap();
            }
        }
        let g = p.compute_adjacency_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        // Diagonals (corner contact) must not be edges.
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn io_chiplets_excluded_from_compute_graph() {
        let mut p = Placement::new();
        p.push(PlacedChiplet::compute(rect(0, 0, 2, 2))).unwrap();
        p.push(PlacedChiplet::io(rect(2, 0, 2, 2))).unwrap();
        p.push(PlacedChiplet::compute(rect(4, 0, 2, 2))).unwrap();
        let g = p.compute_adjacency_graph();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 0); // the two compute chiplets do not touch
    }

    #[test]
    fn bounding_box_and_utilization() {
        let mut p = Placement::new();
        assert_eq!(p.bounding_box(), None);
        assert_eq!(p.utilization(), 0.0);
        p.push(PlacedChiplet::compute(rect(0, 0, 2, 2))).unwrap();
        p.push(PlacedChiplet::compute(rect(4, 0, 2, 2))).unwrap();
        let bb = p.bounding_box().unwrap();
        assert_eq!((bb.width(), bb.height()), (6, 2));
        assert_eq!(p.total_area(), 8);
        assert!((p.utilization() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_collects() {
        let result: Result<Placement, LayoutError> = [
            PlacedChiplet::compute(rect(0, 0, 1, 1)),
            PlacedChiplet::compute(rect(1, 0, 1, 1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(result.unwrap().len(), 2);

        let result: Result<Placement, LayoutError> = [
            PlacedChiplet::compute(rect(0, 0, 2, 2)),
            PlacedChiplet::compute(rect(1, 1, 2, 2)),
        ]
        .into_iter()
        .collect();
        assert!(result.is_err());
    }

    #[test]
    fn compute_indices_ordering() {
        let mut p = Placement::new();
        p.push(PlacedChiplet::io(rect(0, 0, 1, 1))).unwrap();
        p.push(PlacedChiplet::compute(rect(1, 0, 1, 1))).unwrap();
        p.push(PlacedChiplet::io(rect(2, 0, 1, 1))).unwrap();
        p.push(PlacedChiplet::compute(rect(3, 0, 1, 1))).unwrap();
        assert_eq!(p.compute_indices(), vec![1, 3]);
        assert_eq!(p.compute_count(), 2);
    }
}
