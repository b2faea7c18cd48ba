//! Wafer geometry: how many die candidates a wafer yields.

use crate::CostError;

/// A wafer specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wafer {
    /// Diameter in mm (300 for the mainstream line).
    pub diameter_mm: f64,
    /// Cost of one processed wafer in dollars.
    pub cost: f64,
}

impl Wafer {
    /// A 300 mm wafer at the given processed-wafer cost.
    ///
    /// # Errors
    ///
    /// [`CostError::NonPositive`] if `cost` is not positive.
    pub fn mm300(cost: f64) -> Result<Self, CostError> {
        if !(cost.is_finite() && cost > 0.0) {
            return Err(CostError::NonPositive("wafer cost"));
        }
        Ok(Self { diameter_mm: 300.0, cost })
    }
}

/// Gross dies per wafer for square-ish dies of `die_area` mm², using the
/// standard estimate
///
/// ```text
/// DPW = π (d/2)² / A  −  π d / √(2 A)
/// ```
///
/// (usable wafer area divided by die area, minus the edge loss along the
/// circumference).
///
/// # Errors
///
/// * [`CostError::NonPositive`] for non-positive area or diameter,
/// * [`CostError::DieLargerThanWafer`] if the estimate rounds to zero dies.
pub fn dies_per_wafer(wafer: &Wafer, die_area: f64) -> Result<u64, CostError> {
    if !(die_area.is_finite() && die_area > 0.0) {
        return Err(CostError::NonPositive("die area"));
    }
    if !(wafer.diameter_mm.is_finite() && wafer.diameter_mm > 0.0) {
        return Err(CostError::NonPositive("wafer diameter"));
    }
    let d = wafer.diameter_mm;
    let gross = std::f64::consts::PI * (d / 2.0) * (d / 2.0) / die_area
        - std::f64::consts::PI * d / (2.0 * die_area).sqrt();
    if gross < 1.0 {
        return Err(CostError::DieLargerThanWafer {
            die_area,
            wafer_diameter: wafer.diameter_mm,
        });
    }
    Ok(gross.floor() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wafer() -> Wafer {
        Wafer::mm300(17_000.0).expect("valid wafer")
    }

    #[test]
    fn textbook_dpw_values() {
        // 100 mm² dies on 300 mm wafer: π·22500/100 − π·300/√200 ≈ 640.
        let dpw = dies_per_wafer(&wafer(), 100.0).unwrap();
        assert!((600..680).contains(&dpw), "dpw {dpw}");
        // 800 mm² (reticle-limit class): ≈ 250 − 23.6 → ~253... compute:
        // π·22500/800 = 88.36; edge loss π·300/40 = 23.56 → 64.
        let dpw = dies_per_wafer(&wafer(), 800.0).unwrap();
        assert!((60..70).contains(&dpw), "dpw {dpw}");
    }

    #[test]
    fn smaller_dies_mean_more_dies() {
        let mut last = 0;
        for area in [800.0, 400.0, 200.0, 100.0, 50.0, 25.0] {
            let dpw = dies_per_wafer(&wafer(), area).unwrap();
            assert!(dpw > last, "area {area}");
            last = dpw;
        }
    }

    #[test]
    fn area_conservation_with_edge_loss() {
        // Total die area never exceeds wafer area, and smaller dies waste
        // less edge (higher utilisation).
        let wafer_area = std::f64::consts::PI * 150.0 * 150.0;
        let util =
            |area: f64| dies_per_wafer(&wafer(), area).unwrap() as f64 * area / wafer_area;
        assert!(util(25.0) <= 1.0);
        assert!(util(25.0) > util(400.0));
    }

    #[test]
    fn absurd_die_rejected() {
        let err = dies_per_wafer(&wafer(), 70_000.0).unwrap_err();
        assert!(matches!(err, CostError::DieLargerThanWafer { .. }));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Wafer::mm300(0.0).is_err());
        assert!(dies_per_wafer(&wafer(), -3.0).is_err());
        assert!(dies_per_wafer(&wafer(), f64::NAN).is_err());
    }
}
