//! Hotspot statistics over a thermal solution.

use std::fmt;

use crate::solver::ThermalSolution;

/// Summary statistics of a temperature field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotReport {
    /// Peak temperature in °C.
    pub peak_c: f64,
    /// Mean temperature in °C.
    pub average_c: f64,
    /// Peak minus mean — how "spiky" the field is.
    pub gradient_c: f64,
    /// Location `(x, y)` of the hottest cell.
    pub peak_cell: (usize, usize),
    /// Fraction of cells within 3 °C of the peak (hotspot footprint).
    pub hotspot_fraction: f64,
}

impl HotspotReport {
    /// Computes the report for a solution.
    #[must_use]
    pub fn from_solution(solution: &ThermalSolution) -> Self {
        let peak = solution.peak_c();
        let avg = solution.average_c();
        let near_peak = solution.cells().iter().filter(|&&t| t >= peak - 3.0).count();
        Self {
            peak_c: peak,
            average_c: avg,
            gradient_c: peak - avg,
            peak_cell: solution.peak_cell(),
            hotspot_fraction: near_peak as f64 / solution.cells().len() as f64,
        }
    }
}

impl fmt::Display for HotspotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peak {:.1} °C at ({}, {}), avg {:.1} °C, gradient {:.1} K, hotspot {:.1}%",
            self.peak_c,
            self.peak_cell.0,
            self.peak_cell.1,
            self.average_c,
            self.gradient_c,
            self.hotspot_fraction * 100.0
        )
    }
}

/// Renders the field as a coarse ASCII heat map (one character per cell,
/// `.:-=+*#%@` from coldest to hottest) — handy in examples and reports.
#[must_use]
pub fn ascii_heatmap(solution: &ThermalSolution) -> String {
    const RAMP: &[u8] = b".:-=+*#%@";
    let min = solution.cells().iter().copied().fold(f64::INFINITY, f64::min);
    let max = solution.peak_c();
    let span = (max - min).max(1e-9);
    let mut out = String::with_capacity((solution.width() + 1) * solution.height());
    for y in 0..solution.height() {
        for x in 0..solution.width() {
            let t = (solution.at(x, y) - min) / span;
            let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerMap;
    use crate::solver::{solve, ThermalParams};

    fn centre_hotspot() -> ThermalSolution {
        let mut m = PowerMap::new(9, 7, 1.0).unwrap();
        m.add_rect_w(4.0, 3.0, 5.0, 4.0, 12.0).unwrap();
        solve(&m, &ThermalParams::default()).unwrap()
    }

    #[test]
    fn report_is_consistent() {
        let s = centre_hotspot();
        let r = HotspotReport::from_solution(&s);
        assert_eq!(r.peak_cell, (4, 3));
        assert!(r.peak_c > r.average_c);
        assert!((r.gradient_c - (r.peak_c - r.average_c)).abs() < 1e-12);
        assert!(r.hotspot_fraction > 0.0 && r.hotspot_fraction < 0.5);
    }

    #[test]
    fn uniform_field_has_no_gradient() {
        let mut m = PowerMap::new(5, 5, 1.0).unwrap();
        m.add_rect_w(0.0, 0.0, 5.0, 5.0, 25.0).unwrap();
        let s = solve(&m, &ThermalParams::default()).unwrap();
        let r = HotspotReport::from_solution(&s);
        assert!(r.gradient_c.abs() < 1e-3);
        assert!((r.hotspot_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heatmap_shape_and_extremes() {
        let s = centre_hotspot();
        let art = ascii_heatmap(&s);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines.iter().all(|l| l.len() == 9));
        // The hottest glyph appears exactly at the peak cell.
        assert_eq!(lines[3].as_bytes()[4], b'@');
        // Corners are the coldest glyph.
        assert_eq!(lines[0].as_bytes()[0], b'.');
    }

    #[test]
    fn display_mentions_units() {
        let r = HotspotReport::from_solution(&centre_hotspot());
        let s = r.to_string();
        assert!(s.contains("peak") && s.contains("avg") && s.contains("hotspot"), "{s}");
    }
}
