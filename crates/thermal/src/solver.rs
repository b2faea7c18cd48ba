//! The finite-difference steady-state heat solver.

use crate::error::ThermalError;
use crate::power::PowerMap;

/// Physical and numerical parameters of the solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Ambient (heat-sink inlet) temperature in °C.
    pub ambient_c: f64,
    /// Areal thermal resistance of the vertical path (die → TIM → sink →
    /// ambient) in K·mm²/W.
    pub r_vertical_k_mm2_per_w: f64,
    /// Effective lateral conductance between adjacent cells in W/K
    /// (spreader conductivity × thickness; independent of cell size for
    /// square cells).
    pub lateral_conductance_w_per_k: f64,
    /// Successive over-relaxation factor, in `(0, 2)`.
    pub sor_omega: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Convergence criterion: maximum per-cell power-balance residual in
    /// watts.
    pub tolerance_w: f64,
}

impl ThermalParams {
    /// Laptop/server-class 2.5D package defaults: 25 °C ambient,
    /// 60 K·mm²/W vertical path, 0.5 W/K lateral spreading.
    #[must_use]
    pub fn new() -> Self {
        Self {
            ambient_c: 25.0,
            r_vertical_k_mm2_per_w: 60.0,
            lateral_conductance_w_per_k: 0.5,
            sor_omega: 1.8,
            max_iterations: 50_000,
            tolerance_w: 1e-7,
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), ThermalError> {
        if !self.ambient_c.is_finite() {
            return Err(ThermalError::InvalidParameter("ambient_c must be finite"));
        }
        if !self.r_vertical_k_mm2_per_w.is_finite() || self.r_vertical_k_mm2_per_w <= 0.0 {
            return Err(ThermalError::InvalidParameter("r_vertical must be positive"));
        }
        if !self.lateral_conductance_w_per_k.is_finite()
            || self.lateral_conductance_w_per_k < 0.0
        {
            return Err(ThermalError::InvalidParameter(
                "lateral_conductance must be non-negative",
            ));
        }
        if !(0.0..2.0).contains(&self.sor_omega) || self.sor_omega <= 0.0 {
            return Err(ThermalError::InvalidParameter("sor_omega must be in (0, 2)"));
        }
        if self.max_iterations == 0 {
            return Err(ThermalError::InvalidParameter("max_iterations must be positive"));
        }
        if !self.tolerance_w.is_finite() || self.tolerance_w <= 0.0 {
            return Err(ThermalError::InvalidParameter("tolerance must be positive"));
        }
        Ok(())
    }
}

impl Default for ThermalParams {
    fn default() -> Self {
        Self::new()
    }
}

/// The converged temperature field.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalSolution {
    width: usize,
    height: usize,
    cell_mm: f64,
    temps_c: Vec<f64>,
    iterations: usize,
    residual_w: f64,
}

impl ThermalSolution {
    /// Temperature of cell `(x, y)` in °C.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "cell ({x}, {y}) out of range");
        self.temps_c[y * self.width + x]
    }

    /// Row-major cell temperatures in °C.
    #[must_use]
    pub fn cells(&self) -> &[f64] {
        &self.temps_c
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

    /// Cell side in mm (copied from the power map).
    #[must_use]
    pub fn cell_mm(&self) -> f64 {
        self.cell_mm
    }

    /// Peak temperature in °C.
    #[must_use]
    pub fn peak_c(&self) -> f64 {
        self.temps_c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean temperature in °C.
    #[must_use]
    pub fn average_c(&self) -> f64 {
        self.temps_c.iter().sum::<f64>() / self.temps_c.len() as f64
    }

    /// Location `(x, y)` of the hottest cell.
    #[must_use]
    pub fn peak_cell(&self) -> (usize, usize) {
        let (i, _) = self
            .temps_c
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("solutions are never empty");
        (i % self.width, i / self.width)
    }

    /// Iterations the solver used.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Final power-balance residual in watts.
    #[must_use]
    pub fn residual_w(&self) -> f64 {
        self.residual_w
    }
}

/// Solves the steady-state heat equation for a power map.
///
/// # Errors
///
/// * [`ThermalError::InvalidParameter`] for out-of-range parameters;
/// * [`ThermalError::NotConverged`] if the SOR iteration fails to reach the
///   tolerance within the iteration cap.
pub fn solve(map: &PowerMap, params: &ThermalParams) -> Result<ThermalSolution, ThermalError> {
    params.validate()?;
    let (w, h) = (map.width(), map.height());
    let cell_area = map.cell_mm() * map.cell_mm();
    let g_v = cell_area / params.r_vertical_k_mm2_per_w; // W/K per cell
    let g_l = params.lateral_conductance_w_per_k;
    let power = map.cells();

    // Unknowns are temperature *rises* over ambient.
    let mut t = vec![0.0f64; w * h];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < params.max_iterations {
        iterations += 1;
        let mut max_residual = 0.0f64;
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                let mut neighbor_sum = 0.0;
                let mut neighbor_count = 0.0;
                if x > 0 {
                    neighbor_sum += t[i - 1];
                    neighbor_count += 1.0;
                }
                if x + 1 < w {
                    neighbor_sum += t[i + 1];
                    neighbor_count += 1.0;
                }
                if y > 0 {
                    neighbor_sum += t[i - w];
                    neighbor_count += 1.0;
                }
                if y + 1 < h {
                    neighbor_sum += t[i + w];
                    neighbor_count += 1.0;
                }
                let diag = g_v + g_l * neighbor_count;
                let rhs = power[i] + g_l * neighbor_sum;
                let gauss_seidel = rhs / diag;
                let updated = t[i] + params.sor_omega * (gauss_seidel - t[i]);
                // Power-balance residual of the *updated* value.
                let r = (power[i] + g_l * (neighbor_sum - neighbor_count * updated)
                    - g_v * updated)
                    .abs();
                max_residual = max_residual.max(r);
                t[i] = updated;
            }
        }
        residual = max_residual;
        if residual <= params.tolerance_w {
            let temps_c = t.iter().map(|dt| params.ambient_c + dt).collect();
            return Ok(ThermalSolution {
                width: w,
                height: h,
                cell_mm: map.cell_mm(),
                temps_c,
                iterations,
                residual_w: residual,
            });
        }
    }
    Err(ThermalError::NotConverged { iterations, residual })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_map(w: usize, h: usize, cell: f64, total_w: f64) -> PowerMap {
        let mut m = PowerMap::new(w, h, cell).unwrap();
        m.add_rect_w(0.0, 0.0, w as f64 * cell, h as f64 * cell, total_w).unwrap();
        m
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let m = PowerMap::new(8, 8, 1.0).unwrap();
        let s = solve(&m, &ThermalParams::default()).unwrap();
        assert!((s.peak_c() - 25.0).abs() < 1e-9);
        assert!((s.average_c() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_power_gives_uniform_analytic_temperature() {
        // With equal power everywhere, lateral terms cancel and every cell
        // sits at T_amb + q·R_v where q is the areal power density.
        let p = ThermalParams::default();
        let m = uniform_map(6, 6, 1.0, 36.0); // 1 W per 1 mm² cell
        let s = solve(&m, &p).unwrap();
        let expected = p.ambient_c + 1.0 * p.r_vertical_k_mm2_per_w / 1.0;
        for y in 0..6 {
            for x in 0..6 {
                assert!(
                    (s.at(x, y) - expected).abs() < 1e-3,
                    "cell ({x},{y}): {} vs {expected}",
                    s.at(x, y)
                );
            }
        }
    }

    #[test]
    fn point_source_peaks_at_the_source_with_symmetry() {
        let mut m = PowerMap::new(9, 9, 1.0).unwrap();
        m.add_rect_w(4.0, 4.0, 5.0, 5.0, 10.0).unwrap();
        let s = solve(&m, &ThermalParams::default()).unwrap();
        assert_eq!(s.peak_cell(), (4, 4));
        // 4-fold symmetry around the centre.
        for d in 1..4 {
            let right = s.at(4 + d, 4);
            let left = s.at(4 - d, 4);
            let up = s.at(4, 4 - d);
            let down = s.at(4, 4 + d);
            assert!((right - left).abs() < 1e-6);
            assert!((up - down).abs() < 1e-6);
            assert!((right - up).abs() < 1e-6);
        }
        // Temperature decays away from the source.
        assert!(s.at(5, 4) < s.at(4, 4));
        assert!(s.at(6, 4) < s.at(5, 4));
    }

    #[test]
    fn superposition_holds() {
        // The system is linear in power: T(P1 + P2) − T_amb =
        // (T(P1) − T_amb) + (T(P2) − T_amb).
        let p = ThermalParams::default();
        let mut m1 = PowerMap::new(7, 5, 1.0).unwrap();
        m1.add_rect_w(1.0, 1.0, 3.0, 3.0, 5.0).unwrap();
        let mut m2 = PowerMap::new(7, 5, 1.0).unwrap();
        m2.add_rect_w(4.0, 2.0, 6.0, 4.0, 7.0).unwrap();
        let mut both = PowerMap::new(7, 5, 1.0).unwrap();
        both.add_rect_w(1.0, 1.0, 3.0, 3.0, 5.0).unwrap();
        both.add_rect_w(4.0, 2.0, 6.0, 4.0, 7.0).unwrap();
        let s1 = solve(&m1, &p).unwrap();
        let s2 = solve(&m2, &p).unwrap();
        let s12 = solve(&both, &p).unwrap();
        for i in 0..(7 * 5) {
            let lhs = s12.cells()[i] - p.ambient_c;
            let rhs = (s1.cells()[i] - p.ambient_c) + (s2.cells()[i] - p.ambient_c);
            assert!((lhs - rhs).abs() < 1e-4, "cell {i}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn stronger_spreading_lowers_the_peak() {
        let mut m = PowerMap::new(9, 9, 1.0).unwrap();
        m.add_rect_w(3.0, 3.0, 6.0, 6.0, 20.0).unwrap();
        let weak =
            ThermalParams { lateral_conductance_w_per_k: 0.1, ..ThermalParams::default() };
        let strong =
            ThermalParams { lateral_conductance_w_per_k: 2.0, ..ThermalParams::default() };
        let s_weak = solve(&m, &weak).unwrap();
        let s_strong = solve(&m, &strong).unwrap();
        assert!(
            s_strong.peak_c() < s_weak.peak_c(),
            "strong {} !< weak {}",
            s_strong.peak_c(),
            s_weak.peak_c()
        );
        // Total heat still leaves through the vertical path: average rise
        // is set by total power, independent of spreading.
        assert!((s_strong.average_c() - s_weak.average_c()).abs() < 0.05);
    }

    #[test]
    fn insulated_cells_only_heat_through_vertical_path() {
        // With zero lateral conductance each cell is independent:
        // T = T_amb + P·R_v/A.
        let p = ThermalParams { lateral_conductance_w_per_k: 0.0, ..ThermalParams::default() };
        let mut m = PowerMap::new(3, 3, 2.0).unwrap(); // 4 mm² cells
        m.add_rect_w(2.0, 2.0, 4.0, 4.0, 8.0).unwrap(); // centre cell, 8 W
        let s = solve(&m, &p).unwrap();
        let expected_rise = 8.0 * p.r_vertical_k_mm2_per_w / 4.0;
        // The residual tolerance (W) maps to a K error of tolerance/G_v.
        assert!((s.at(1, 1) - (p.ambient_c + expected_rise)).abs() < 1e-4);
        assert!((s.at(0, 0) - p.ambient_c).abs() < 1e-4);
    }

    #[test]
    fn parameter_validation() {
        let m = PowerMap::new(2, 2, 1.0).unwrap();
        for bad in [
            ThermalParams { r_vertical_k_mm2_per_w: 0.0, ..ThermalParams::default() },
            ThermalParams { sor_omega: 2.5, ..ThermalParams::default() },
            ThermalParams { sor_omega: 0.0, ..ThermalParams::default() },
            ThermalParams { max_iterations: 0, ..ThermalParams::default() },
            ThermalParams { tolerance_w: -1.0, ..ThermalParams::default() },
            ThermalParams { lateral_conductance_w_per_k: -0.5, ..ThermalParams::default() },
            ThermalParams { ambient_c: f64::NAN, ..ThermalParams::default() },
        ] {
            assert!(solve(&m, &bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn impossible_tolerance_reports_non_convergence() {
        let m = uniform_map(4, 4, 1.0, 16.0);
        let p = ThermalParams {
            tolerance_w: 1e-300,
            max_iterations: 5,
            ..ThermalParams::default()
        };
        assert!(matches!(solve(&m, &p), Err(ThermalError::NotConverged { iterations: 5, .. })));
    }
}
