//! Power maps: rasterising floorplans into per-cell dissipation.

use chiplet_layout::{PlacedChiplet, Placement};

use crate::error::ThermalError;

/// A uniform grid of square cells, each holding dissipated power in watts.
///
/// Cell `(x, y)` covers the physical square
/// `[x·cell_mm, (x+1)·cell_mm) × [y·cell_mm, (y+1)·cell_mm)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMap {
    width: usize,
    height: usize,
    cell_mm: f64,
    /// Row-major power per cell in watts.
    power_w: Vec<f64>,
}

impl PowerMap {
    /// Creates an all-zero power map of `width × height` cells of
    /// `cell_mm` side length.
    ///
    /// # Errors
    ///
    /// Rejects zero dimensions and non-positive or non-finite cell sizes.
    pub fn new(width: usize, height: usize, cell_mm: f64) -> Result<Self, ThermalError> {
        if width == 0 || height == 0 {
            return Err(ThermalError::InvalidGrid("dimensions must be positive"));
        }
        if !cell_mm.is_finite() || cell_mm <= 0.0 {
            return Err(ThermalError::InvalidGrid("cell size must be positive and finite"));
        }
        Ok(Self { width, height, cell_mm, power_w: vec![0.0; width * height] })
    }

    /// Grid width in cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cell side length in mm.
    #[must_use]
    pub fn cell_mm(&self) -> f64 {
        self.cell_mm
    }

    /// Power of cell `(x, y)` in watts.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[must_use]
    pub fn power_at(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "cell ({x}, {y}) out of range");
        self.power_w[y * self.width + x]
    }

    /// Row-major per-cell powers.
    #[must_use]
    pub fn cells(&self) -> &[f64] {
        &self.power_w
    }

    /// Total dissipated power in watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.power_w.iter().sum()
    }

    /// Adds `watts` uniformly over the physical rectangle
    /// `[x0, x1) × [y0, y1)` (mm), distributing power to cells by exact
    /// area overlap.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidPower`] for negative or non-finite power;
    /// * [`ThermalError::OutOfBounds`] if the rectangle exceeds the map or
    ///   is degenerate (`x1 <= x0` or `y1 <= y0`).
    pub fn add_rect_w(
        &mut self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        watts: f64,
    ) -> Result<(), ThermalError> {
        if !watts.is_finite() || watts < 0.0 {
            return Err(ThermalError::InvalidPower(watts));
        }
        if !(x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite()) {
            return Err(ThermalError::OutOfBounds { what: "non-finite rectangle" });
        }
        if x1 <= x0 || y1 <= y0 {
            return Err(ThermalError::OutOfBounds { what: "degenerate rectangle" });
        }
        let (w_mm, h_mm) =
            (self.width as f64 * self.cell_mm, self.height as f64 * self.cell_mm);
        if x0 < -1e-9 || y0 < -1e-9 || x1 > w_mm + 1e-9 || y1 > h_mm + 1e-9 {
            return Err(ThermalError::OutOfBounds { what: "rectangle" });
        }
        let area = (x1 - x0) * (y1 - y0);
        let density = watts / area; // W/mm²
        let cx0 = (x0 / self.cell_mm).floor().max(0.0) as usize;
        let cy0 = (y0 / self.cell_mm).floor().max(0.0) as usize;
        let cx1 = ((x1 / self.cell_mm).ceil() as usize).min(self.width);
        let cy1 = ((y1 / self.cell_mm).ceil() as usize).min(self.height);
        for cy in cy0..cy1 {
            for cx in cx0..cx1 {
                let cell_x0 = cx as f64 * self.cell_mm;
                let cell_y0 = cy as f64 * self.cell_mm;
                let overlap_x = (x1.min(cell_x0 + self.cell_mm) - x0.max(cell_x0)).max(0.0);
                let overlap_y = (y1.min(cell_y0 + self.cell_mm) - y0.max(cell_y0)).max(0.0);
                self.power_w[cy * self.width + cx] += density * overlap_x * overlap_y;
            }
        }
        Ok(())
    }

    /// Builds a power map from a floorplan: every chiplet's power spread
    /// uniformly over its footprint. `mm_per_unit` converts the placement's
    /// integer layout units to millimetres; `chiplet_watts` assigns power
    /// per chiplet (e.g. by [`chiplet_layout::ChipletKind`]).
    ///
    /// The map is sized to the placement's bounding box, padded by
    /// `padding_cells` of package on each side, with cells of `cell_mm`.
    ///
    /// # Errors
    ///
    /// As [`PowerMap::new`] and [`PowerMap::add_rect_w`]; also rejects an
    /// empty placement and non-positive `mm_per_unit`.
    ///
    /// # Example
    ///
    /// ```
    /// use chiplet_layout::{PlacedChiplet, Placement, Rect};
    /// use chiplet_thermal::PowerMap;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut placement = Placement::new();
    /// placement.push(PlacedChiplet::compute(Rect::new(0, 0, 2, 2)?))?;
    /// // 1 layout unit = 2 mm, 1 mm cells, no padding, 10 W per chiplet.
    /// let map = PowerMap::from_placement(&placement, 2.0, 1.0, 0, |_| 10.0)?;
    /// assert!((map.total_w() - 10.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_placement(
        placement: &Placement,
        mm_per_unit: f64,
        cell_mm: f64,
        padding_cells: usize,
        mut chiplet_watts: impl FnMut(&PlacedChiplet) -> f64,
    ) -> Result<Self, ThermalError> {
        if !mm_per_unit.is_finite() || mm_per_unit <= 0.0 {
            return Err(ThermalError::InvalidGrid("mm_per_unit must be positive"));
        }
        let bounds =
            placement.bounding_box().ok_or(ThermalError::InvalidGrid("placement is empty"))?;
        let pad_mm = padding_cells as f64 * cell_mm;
        let width_mm = bounds.width() as f64 * mm_per_unit + 2.0 * pad_mm;
        let height_mm = bounds.height() as f64 * mm_per_unit + 2.0 * pad_mm;
        let width = (width_mm / cell_mm).ceil() as usize;
        let height = (height_mm / cell_mm).ceil() as usize;
        let mut map = Self::new(width.max(1), height.max(1), cell_mm)?;
        for chiplet in placement.chiplets() {
            let r = chiplet.rect;
            let x0 = (r.x() - bounds.x()) as f64 * mm_per_unit + pad_mm;
            let y0 = (r.y() - bounds.y()) as f64 * mm_per_unit + pad_mm;
            let x1 = x0 + r.width() as f64 * mm_per_unit;
            let y1 = y0 + r.height() as f64 * mm_per_unit;
            map.add_rect_w(x0, y0, x1, y1, chiplet_watts(chiplet))?;
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_layout::Rect;

    #[test]
    fn construction_validates() {
        assert!(PowerMap::new(0, 4, 1.0).is_err());
        assert!(PowerMap::new(4, 4, 0.0).is_err());
        assert!(PowerMap::new(4, 4, f64::NAN).is_err());
        let m = PowerMap::new(3, 2, 0.5).unwrap();
        assert_eq!(m.width(), 3);
        assert_eq!(m.height(), 2);
        assert_eq!(m.total_w(), 0.0);
    }

    #[test]
    fn rect_power_is_conserved() {
        let mut m = PowerMap::new(10, 10, 1.0).unwrap();
        m.add_rect_w(1.25, 2.5, 6.75, 7.5, 42.0).unwrap();
        assert!((m.total_w() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn aligned_rect_fills_cells_uniformly() {
        let mut m = PowerMap::new(4, 4, 1.0).unwrap();
        m.add_rect_w(1.0, 1.0, 3.0, 3.0, 8.0).unwrap();
        // 4 cells × 2 W each.
        for (x, y) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            assert!((m.power_at(x, y) - 2.0).abs() < 1e-12);
        }
        assert_eq!(m.power_at(0, 0), 0.0);
        assert_eq!(m.power_at(3, 3), 0.0);
    }

    #[test]
    fn partial_overlap_splits_by_area() {
        let mut m = PowerMap::new(2, 1, 1.0).unwrap();
        // Covers 100% of cell 0 and 50% of cell 1.
        m.add_rect_w(0.0, 0.0, 1.5, 1.0, 3.0).unwrap();
        assert!((m.power_at(0, 0) - 2.0).abs() < 1e-12);
        assert!((m.power_at(1, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_rects() {
        let mut m = PowerMap::new(4, 4, 1.0).unwrap();
        assert!(matches!(
            m.add_rect_w(0.0, 0.0, 1.0, 1.0, -1.0),
            Err(ThermalError::InvalidPower(_))
        ));
        assert!(m.add_rect_w(2.0, 2.0, 1.0, 3.0, 1.0).is_err()); // x1 < x0
        assert!(m.add_rect_w(0.0, 0.0, 5.0, 1.0, 1.0).is_err()); // out of map
        assert_eq!(m.total_w(), 0.0);
    }

    #[test]
    fn from_placement_maps_chiplets() {
        let mut p = Placement::new();
        p.push(PlacedChiplet::compute(Rect::new(0, 0, 2, 2).unwrap())).unwrap();
        p.push(PlacedChiplet::compute(Rect::new(2, 0, 2, 2).unwrap())).unwrap();
        // 1 unit = 2 mm, 1 mm cells, no padding: 8 × 4 cells.
        let m = PowerMap::from_placement(&p, 2.0, 1.0, 0, |_| 10.0).unwrap();
        assert_eq!((m.width(), m.height()), (8, 4));
        assert!((m.total_w() - 20.0).abs() < 1e-9);
        // Left chiplet covers x 0..4: uniform 10 W / 16 cells.
        assert!((m.power_at(0, 0) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn from_placement_applies_padding_and_power_fn() {
        let mut p = Placement::new();
        p.push(PlacedChiplet::compute(Rect::new(0, 0, 2, 2).unwrap())).unwrap();
        p.push(PlacedChiplet::io(Rect::new(3, 0, 1, 2).unwrap())).unwrap();
        let m = PowerMap::from_placement(&p, 1.0, 1.0, 2, |c| match c.kind {
            chiplet_layout::ChipletKind::Compute => 8.0,
            chiplet_layout::ChipletKind::Io => 2.0,
        })
        .unwrap();
        // Bounding box 4 × 2 + 2 cells padding each side: 8 × 6.
        assert_eq!((m.width(), m.height()), (8, 6));
        assert!((m.total_w() - 10.0).abs() < 1e-9);
        // Padding cells stay cold.
        assert_eq!(m.power_at(0, 0), 0.0);
    }

    #[test]
    fn empty_placement_is_rejected() {
        let p = Placement::new();
        assert!(PowerMap::from_placement(&p, 1.0, 1.0, 0, |_| 1.0).is_err());
    }
}
