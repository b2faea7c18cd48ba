//! Axis-aligned rectangles on an integer lattice.

use std::fmt;

use crate::placement::LayoutError;

/// An axis-aligned rectangle with integer corner coordinates and positive
/// extent.
///
/// Coordinates are abstract *layout units*; the `hexamesh` core crate maps
/// them to millimetres once a chiplet area has been chosen. Integer
/// coordinates make adjacency checks exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x: i64,
    y: i64,
    width: i64,
    height: i64,
}

impl Rect {
    /// Creates a rectangle anchored at its lower-left corner `(x, y)`.
    ///
    /// # Errors
    ///
    /// [`LayoutError::EmptyRect`] if `width` or `height` is not positive.
    ///
    /// # Example
    ///
    /// ```
    /// use chiplet_layout::Rect;
    ///
    /// let r = Rect::new(0, 0, 4, 3)?;
    /// assert_eq!(r.area(), 12);
    /// # Ok::<(), chiplet_layout::LayoutError>(())
    /// ```
    pub fn new(x: i64, y: i64, width: i64, height: i64) -> Result<Self, LayoutError> {
        if width <= 0 || height <= 0 {
            return Err(LayoutError::EmptyRect { width, height });
        }
        Ok(Self { x, y, width, height })
    }

    /// Lower-left x coordinate.
    #[must_use]
    pub fn x(&self) -> i64 {
        self.x
    }

    /// Lower-left y coordinate.
    #[must_use]
    pub fn y(&self) -> i64 {
        self.y
    }

    /// Width (always positive).
    #[must_use]
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Height (always positive).
    #[must_use]
    pub fn height(&self) -> i64 {
        self.height
    }

    /// Exclusive right edge `x + width`.
    #[must_use]
    pub fn right(&self) -> i64 {
        self.x + self.width
    }

    /// Exclusive top edge `y + height`.
    #[must_use]
    pub fn top(&self) -> i64 {
        self.y + self.height
    }

    /// Area in layout units squared.
    #[must_use]
    pub fn area(&self) -> i64 {
        self.width * self.height
    }

    /// Centre point doubled (to stay in integers): `(2cx, 2cy)`.
    #[must_use]
    pub fn center_doubled(&self) -> (i64, i64) {
        (2 * self.x + self.width, 2 * self.y + self.height)
    }

    /// `true` if the two rectangles overlap with positive area.
    #[must_use]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x < other.right()
            && other.x < self.right()
            && self.y < other.top()
            && other.y < self.top()
    }

    /// Length of the one-dimensional overlap of `[a0, a1)` and `[b0, b1)`.
    fn interval_overlap(a0: i64, a1: i64, b0: i64, b1: i64) -> i64 {
        (a1.min(b1) - a0.max(b0)).max(0)
    }

    /// Length of the boundary segment shared by two *non-overlapping*
    /// rectangles: positive when they touch along an edge, zero when they
    /// touch only at a corner or not at all.
    ///
    /// This is the paper's adjacency test: chiplets are adjacent iff their
    /// shared edge has positive length.
    #[must_use]
    pub fn shared_edge_length(&self, other: &Rect) -> i64 {
        if self.overlaps(other) {
            return 0; // overlapping rectangles are invalid, not adjacent
        }
        // Vertical contact: one's right edge is the other's left edge.
        if self.right() == other.x || other.right() == self.x {
            return Self::interval_overlap(self.y, self.top(), other.y, other.top());
        }
        // Horizontal contact: one's top edge is the other's bottom edge.
        if self.top() == other.y || other.top() == self.y {
            return Self::interval_overlap(self.x, self.right(), other.x, other.right());
        }
        0
    }

    /// `true` if the rectangles share a boundary edge of positive length.
    #[must_use]
    pub fn is_adjacent(&self, other: &Rect) -> bool {
        self.shared_edge_length(other) > 0
    }

    /// Translates the rectangle by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: i64, dy: i64) -> Rect {
        Rect { x: self.x + dx, y: self.y + dy, ..*self }
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[must_use]
    pub fn union_bounds(&self, other: &Rect) -> Rect {
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        Rect {
            x,
            y,
            width: self.right().max(other.right()) - x,
            height: self.top().max(other.top()) - y,
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] {}x{}", self.x, self.y, self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::new(x, y, w, h).expect("valid test rect")
    }

    #[test]
    fn rejects_non_positive_extent() {
        assert!(Rect::new(0, 0, 0, 1).is_err());
        assert!(Rect::new(0, 0, 1, -2).is_err());
    }

    #[test]
    fn basic_accessors() {
        let a = r(1, 2, 3, 4);
        assert_eq!((a.x(), a.y(), a.width(), a.height()), (1, 2, 3, 4));
        assert_eq!((a.right(), a.top()), (4, 6));
        assert_eq!(a.area(), 12);
        assert_eq!(a.center_doubled(), (5, 8));
    }

    #[test]
    fn overlap_detection() {
        let a = r(0, 0, 4, 4);
        assert!(a.overlaps(&r(2, 2, 4, 4)));
        assert!(!a.overlaps(&r(4, 0, 4, 4))); // touching edge: no overlap
        assert!(!a.overlaps(&r(4, 4, 1, 1))); // touching corner
        assert!(!a.overlaps(&r(10, 10, 1, 1)));
        assert!(a.overlaps(&r(1, 1, 1, 1))); // containment
    }

    #[test]
    fn edge_adjacency_full_side() {
        let a = r(0, 0, 2, 2);
        let b = r(2, 0, 2, 2);
        assert_eq!(a.shared_edge_length(&b), 2);
        assert!(a.is_adjacent(&b));
        assert!(b.is_adjacent(&a));
    }

    #[test]
    fn edge_adjacency_partial_side() {
        // Brickwall-style half-offset contact.
        let a = r(0, 0, 4, 2);
        let b = r(2, 2, 4, 2);
        assert_eq!(a.shared_edge_length(&b), 2);
        let c = r(4, 2, 4, 2);
        assert_eq!(a.shared_edge_length(&c), 0); // corner only
        assert!(!a.is_adjacent(&c));
    }

    #[test]
    fn corner_contact_is_not_adjacent() {
        let a = r(0, 0, 2, 2);
        let b = r(2, 2, 2, 2);
        assert_eq!(a.shared_edge_length(&b), 0);
        assert!(!a.is_adjacent(&b));
    }

    #[test]
    fn separated_rects_not_adjacent() {
        let a = r(0, 0, 2, 2);
        assert!(!a.is_adjacent(&r(3, 0, 2, 2)));
        assert!(!a.is_adjacent(&r(0, 5, 2, 2)));
    }

    #[test]
    fn vertical_adjacency() {
        let a = r(0, 0, 3, 1);
        let b = r(1, 1, 3, 1);
        assert_eq!(a.shared_edge_length(&b), 2);
    }

    #[test]
    fn overlapping_rects_share_no_edge() {
        let a = r(0, 0, 4, 4);
        let b = r(1, 1, 4, 4);
        assert_eq!(a.shared_edge_length(&b), 0);
    }

    #[test]
    fn translation_and_union() {
        let a = r(0, 0, 2, 2).translated(3, 4);
        assert_eq!((a.x(), a.y()), (3, 4));
        let u = r(0, 0, 1, 1).union_bounds(&r(4, 5, 2, 2));
        assert_eq!((u.x(), u.y(), u.width(), u.height()), (0, 0, 6, 7));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", r(0, 0, 1, 1)).is_empty());
    }
}
