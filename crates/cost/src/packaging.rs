//! Packaging cost: organic substrate or silicon interposer, die bonding,
//! and assembly yield (§II of the paper describes both integration styles).

use crate::die::{die_cost, ProcessNode};
use crate::CostError;

/// 2.5D integration carrier (Fig. 1b vs 1c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Carrier {
    /// Organic package substrate: cheap, coarser wiring (C4 bumps).
    OrganicSubstrate {
        /// Cost per mm² of substrate.
        cost_per_mm2: f64,
    },
    /// Passive silicon interposer: a large die on a mature node
    /// (micro-bumps, finer wiring, §II: higher cost and its own yield).
    SiliconInterposer {
        /// The mature node the interposer is fabricated on.
        node: ProcessNode,
    },
}

/// Assembly parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblyParams {
    /// Probability one die-attach (bonding) step succeeds.
    pub bond_yield: f64,
    /// Fixed cost per bonding step.
    pub bond_cost: f64,
    /// Fixed per-package cost (lid, balls, final test).
    pub package_base_cost: f64,
}

impl AssemblyParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`CostError::NonPositive`] for yields outside `(0, 1]` or negative
    /// costs.
    pub fn validated(self) -> Result<Self, CostError> {
        if !(self.bond_yield > 0.0 && self.bond_yield <= 1.0) {
            return Err(CostError::NonPositive("bond yield (must be in (0, 1])"));
        }
        if !(self.bond_cost.is_finite() && self.bond_cost >= 0.0) {
            return Err(CostError::NonPositive("bond cost"));
        }
        if !(self.package_base_cost.is_finite() && self.package_base_cost >= 0.0) {
            return Err(CostError::NonPositive("package base cost"));
        }
        Ok(self)
    }
}

/// Cost of the carrier for a package whose dies cover `footprint_mm2`
/// (the carrier is sized ~1.1× the die footprint for routing margin).
///
/// # Errors
///
/// Propagates parameter and wafer-geometry errors.
pub fn carrier_cost(carrier: &Carrier, footprint_mm2: f64) -> Result<f64, CostError> {
    if !(footprint_mm2.is_finite() && footprint_mm2 > 0.0) {
        return Err(CostError::NonPositive("package footprint"));
    }
    let carrier_area = footprint_mm2 * 1.1;
    match carrier {
        Carrier::OrganicSubstrate { cost_per_mm2 } => {
            if !(cost_per_mm2.is_finite() && *cost_per_mm2 >= 0.0) {
                return Err(CostError::NonPositive("substrate cost per mm²"));
            }
            Ok(cost_per_mm2 * carrier_area)
        }
        Carrier::SiliconInterposer { node } => {
            // The interposer is a die in its own right: wafer cost, yield.
            Ok(die_cost(node, carrier_area, 0.0)?.good_die)
        }
    }
}

/// Expected assembly cost for bonding `num_dies` known-good dies onto a
/// carrier, accounting for whole-package loss when any bond fails
/// (an MCM that loses one bond is scrap — dies and carrier included).
///
/// Returns `(assembly_yield, expected_cost_multiplier)`: the multiplier is
/// `1 / assembly_yield`, applied to the sum of die + carrier + bonding costs.
///
/// # Errors
///
/// [`CostError::NonPositive`] if `num_dies == 0` or parameters are invalid.
pub fn assembly_yield(
    params: &AssemblyParams,
    num_dies: usize,
) -> Result<(f64, f64), CostError> {
    let params = params.validated()?;
    if num_dies == 0 {
        return Err(CostError::NonPositive("number of dies"));
    }
    let y = params.bond_yield.powi(num_dies as i32);
    Ok((y, 1.0 / y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wafer::Wafer;
    use crate::yield_model::YieldModel;

    fn assembly() -> AssemblyParams {
        AssemblyParams { bond_yield: 0.99, bond_cost: 2.0, package_base_cost: 20.0 }
    }

    fn interposer_node() -> ProcessNode {
        ProcessNode {
            name: "65nm-interposer",
            wafer: Wafer::mm300(2_000.0).expect("valid"),
            defect_density: 0.0003,
            yield_model: YieldModel::Poisson,
        }
    }

    #[test]
    fn organic_substrate_scales_with_area() {
        let carrier = Carrier::OrganicSubstrate { cost_per_mm2: 0.02 };
        let small = carrier_cost(&carrier, 100.0).unwrap();
        let large = carrier_cost(&carrier, 800.0).unwrap();
        assert!((large / small - 8.0).abs() < 1e-9);
    }

    #[test]
    fn interposer_costs_more_than_substrate() {
        // §II: "Besides increased design and manufacturing cost…"
        let organic = Carrier::OrganicSubstrate { cost_per_mm2: 0.02 };
        let silicon = Carrier::SiliconInterposer { node: interposer_node() };
        let area = 850.0;
        assert!(carrier_cost(&silicon, area).unwrap() > carrier_cost(&organic, area).unwrap());
    }

    #[test]
    fn assembly_yield_decays_with_die_count() {
        let (y1, _) = assembly_yield(&assembly(), 1).unwrap();
        let (y16, m16) = assembly_yield(&assembly(), 16).unwrap();
        assert!((y1 - 0.99).abs() < 1e-12);
        assert!((y16 - 0.99f64.powi(16)).abs() < 1e-12);
        assert!(y16 < y1);
        assert!((m16 - 1.0 / y16).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(AssemblyParams { bond_yield: 0.0, ..assembly() }.validated().is_err());
        assert!(AssemblyParams { bond_yield: 1.2, ..assembly() }.validated().is_err());
        assert!(AssemblyParams { bond_cost: -1.0, ..assembly() }.validated().is_err());
        assert!(assembly_yield(&assembly(), 0).is_err());
        assert!(carrier_cost(&Carrier::OrganicSubstrate { cost_per_mm2: -0.1 }, 10.0).is_err());
        assert!(carrier_cost(&Carrier::OrganicSubstrate { cost_per_mm2: 0.1 }, 0.0).is_err());
    }
}
