//! Fabrication yield as a function of die area and defect density.
//!
//! Section I of the paper: "Another challenge of manufacturing chips in
//! advanced technology nodes is the high defect rate which diminishes the
//! yield" — smaller chiplets lose less area to each defect, which is the
//! quantitative heart of the disaggregation argument.

use crate::CostError;

/// Die yield model (probability a die is defect-free).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum YieldModel {
    /// Poisson: `Y = e^(−D·A)` — pessimistic, no defect clustering.
    Poisson,
    /// Murphy's model: `Y = ((1 − e^(−D·A)) / (D·A))²` — the classic
    /// industry compromise.
    Murphy,
    /// Negative binomial: `Y = (1 + D·A/α)^(−α)` with clustering parameter
    /// `α` (typically 2–4; `α → ∞` recovers Poisson).
    NegativeBinomial {
        /// Clustering parameter `α > 0`.
        alpha: f64,
    },
}

impl YieldModel {
    /// Yield for a die of `area` mm² at `defect_density` defects/mm².
    ///
    /// # Errors
    ///
    /// [`CostError::NonPositive`] for negative area/density or non-positive
    /// `α`. Zero area or density is allowed and yields 1.0.
    pub fn die_yield(&self, defect_density: f64, area: f64) -> Result<f64, CostError> {
        if !(area.is_finite() && area >= 0.0) {
            return Err(CostError::NonPositive("die area"));
        }
        if !(defect_density.is_finite() && defect_density >= 0.0) {
            return Err(CostError::NonPositive("defect density"));
        }
        let da = defect_density * area;
        let y = match *self {
            YieldModel::Poisson => (-da).exp(),
            YieldModel::Murphy => {
                if da == 0.0 {
                    1.0
                } else {
                    let t = (1.0 - (-da).exp()) / da;
                    t * t
                }
            }
            YieldModel::NegativeBinomial { alpha } => {
                if !(alpha.is_finite() && alpha > 0.0) {
                    return Err(CostError::NonPositive("clustering parameter alpha"));
                }
                (1.0 + da / alpha).powf(-alpha)
            }
        };
        debug_assert!((0.0..=1.0).contains(&y), "yield {y} out of range");
        Ok(y)
    }
}

/// Convenience: the expected number of good dies among `gross` candidates.
#[must_use]
pub fn good_dies(gross: u64, die_yield: f64) -> f64 {
    gross as f64 * die_yield.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: f64 = 0.002; // defects/mm², a realistic leading-node density

    #[test]
    fn zero_area_or_density_is_perfect_yield() {
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha: 3.0 },
        ] {
            assert_eq!(model.die_yield(D, 0.0).unwrap(), 1.0);
            assert_eq!(model.die_yield(0.0, 500.0).unwrap(), 1.0);
        }
    }

    #[test]
    fn yield_decreases_with_area() {
        for model in [
            YieldModel::Poisson,
            YieldModel::Murphy,
            YieldModel::NegativeBinomial { alpha: 2.5 },
        ] {
            let mut last = 1.0;
            for area in [25.0, 100.0, 400.0, 800.0] {
                let y = model.die_yield(D, area).unwrap();
                assert!(y < last, "{model:?} area {area}");
                last = y;
            }
        }
    }

    #[test]
    fn poisson_hand_values() {
        // D·A = 0.002 · 500 = 1 ⇒ Y = e^(−1).
        let y = YieldModel::Poisson.die_yield(D, 500.0).unwrap();
        assert!((y - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn murphy_between_poisson_and_negbin_low_alpha() {
        // Ordering at equal D·A: Poisson ≤ Murphy ≤ strongly-clustered NB.
        let area = 600.0;
        let poisson = YieldModel::Poisson.die_yield(D, area).unwrap();
        let murphy = YieldModel::Murphy.die_yield(D, area).unwrap();
        let clustered = YieldModel::NegativeBinomial { alpha: 1.0 }.die_yield(D, area).unwrap();
        assert!(poisson < murphy, "{poisson} !< {murphy}");
        assert!(murphy < clustered, "{murphy} !< {clustered}");
    }

    #[test]
    fn negative_binomial_converges_to_poisson() {
        let area = 400.0;
        let poisson = YieldModel::Poisson.die_yield(D, area).unwrap();
        let nb = YieldModel::NegativeBinomial { alpha: 1e6 }.die_yield(D, area).unwrap();
        assert!((poisson - nb).abs() < 1e-4, "poisson {poisson} nb {nb}");
    }

    #[test]
    fn disaggregation_yield_advantage() {
        // §I "Improved Yield": 16 chiplets of 50 mm² keep far more silicon
        // alive than one 800 mm² monolith.
        let model = YieldModel::NegativeBinomial { alpha: 3.0 };
        let monolith = model.die_yield(D, 800.0).unwrap();
        let chiplet = model.die_yield(D, 50.0).unwrap();
        // Good-silicon fraction: chiplets win even accounting for needing
        // all 16 (with KGD testing you only pay for good ones).
        assert!(chiplet > monolith);
        assert!(chiplet > 0.9, "50 mm² chiplet yield {chiplet}");
        assert!(monolith < 0.35, "800 mm² monolith yield {monolith}");
    }

    #[test]
    fn invalid_parameters() {
        assert!(YieldModel::Poisson.die_yield(-0.1, 10.0).is_err());
        assert!(YieldModel::Poisson.die_yield(0.1, f64::NAN).is_err());
        assert!(YieldModel::NegativeBinomial { alpha: 0.0 }.die_yield(D, 10.0).is_err());
    }

    #[test]
    fn good_dies_scales() {
        assert_eq!(good_dies(100, 0.5), 50.0);
        assert_eq!(good_dies(0, 0.9), 0.0);
        assert_eq!(good_dies(10, 1.5), 10.0); // clamped
    }
}
