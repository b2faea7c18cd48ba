//! Recurring die cost: silicon, yield loss, and known-good-die testing.

use crate::wafer::{dies_per_wafer, Wafer};
use crate::yield_model::YieldModel;
use crate::CostError;

/// A fabrication process node for costing purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessNode {
    /// Human-readable name ("5nm", "14nm", …) — informational only.
    pub name: &'static str,
    /// Processed wafer specification.
    pub wafer: Wafer,
    /// Defect density in defects/mm².
    pub defect_density: f64,
    /// Yield model used for dies on this node.
    pub yield_model: YieldModel,
}

/// Cost breakdown for one die type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieCost {
    /// Gross die candidates per wafer.
    pub dies_per_wafer: u64,
    /// Fabrication yield of this die.
    pub fab_yield: f64,
    /// Cost of a raw (untested) die: wafer cost spread over gross dies.
    pub raw_die: f64,
    /// Cost of a *good* die before testing: raw cost divided by yield.
    pub good_die: f64,
    /// Cost of a known-good die: good-die cost plus test cost.
    pub known_good_die: f64,
}

/// Computes the die cost on a node, with `test_cost` dollars of wafer-level
/// test per die (known-good-die testing; §I's binning/reuse economics assume
/// chiplets are tested before assembly).
///
/// # Errors
///
/// Propagates wafer-geometry and yield-model errors.
pub fn die_cost(
    node: &ProcessNode,
    die_area: f64,
    test_cost: f64,
) -> Result<DieCost, CostError> {
    if !(test_cost.is_finite() && test_cost >= 0.0) {
        return Err(CostError::NonPositive("test cost"));
    }
    let dpw = dies_per_wafer(&node.wafer, die_area)?;
    let fab_yield = node.yield_model.die_yield(node.defect_density, die_area)?;
    let raw = node.wafer.cost / dpw as f64;
    // Yield loss: a good die carries the cost of the bad ones diced with it.
    let good = raw / fab_yield.max(f64::MIN_POSITIVE);
    Ok(DieCost {
        dies_per_wafer: dpw,
        fab_yield,
        raw_die: raw,
        good_die: good,
        known_good_die: good + test_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_5nm() -> ProcessNode {
        ProcessNode {
            name: "5nm",
            wafer: Wafer::mm300(17_000.0).expect("valid"),
            defect_density: 0.002,
            yield_model: YieldModel::NegativeBinomial { alpha: 3.0 },
        }
    }

    #[test]
    fn cost_components_ordered() {
        let c = die_cost(&node_5nm(), 100.0, 5.0).unwrap();
        assert!(c.raw_die < c.good_die);
        assert!(c.good_die < c.known_good_die);
        assert!((c.known_good_die - c.good_die - 5.0).abs() < 1e-12);
    }

    #[test]
    fn per_area_cost_grows_superlinearly_with_die_size() {
        // The whole economic argument of §I: $/mm² of *good* silicon grows
        // with die area because yield falls.
        let node = node_5nm();
        let per_mm2 = |area: f64| die_cost(&node, area, 0.0).unwrap().good_die / area;
        assert!(per_mm2(200.0) > per_mm2(50.0));
        assert!(per_mm2(800.0) > 1.5 * per_mm2(50.0));
    }

    #[test]
    fn mature_node_cheaper_for_same_die() {
        let advanced = node_5nm();
        let mature = ProcessNode {
            name: "28nm",
            wafer: Wafer::mm300(3_000.0).expect("valid"),
            defect_density: 0.0005,
            yield_model: YieldModel::NegativeBinomial { alpha: 3.0 },
        };
        let a = die_cost(&advanced, 150.0, 0.0).unwrap();
        let m = die_cost(&mature, 150.0, 0.0).unwrap();
        assert!(m.good_die < a.good_die);
        assert!(m.fab_yield > a.fab_yield);
    }

    #[test]
    fn negative_test_cost_rejected() {
        assert!(die_cost(&node_5nm(), 100.0, -1.0).is_err());
    }
}
