//! System-level comparison: monolithic vs. 2.5D-disaggregated cost for the
//! same total silicon area — quantifying §I's economic argument.

use crate::die::{die_cost, ProcessNode};
use crate::packaging::{assembly_yield, carrier_cost, AssemblyParams, Carrier};
use crate::wafer::Wafer;
use crate::yield_model::YieldModel;
use crate::CostError;

/// All parameters of the system cost comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Node the compute silicon is fabricated on.
    pub compute_node: ProcessNode,
    /// Per-die wafer-level test cost (known-good-die).
    pub kgd_test_cost: f64,
    /// PHY area overhead per chiplet as a fraction of chiplet area
    /// (§I: D2D PHYs make combined chiplet area exceed the monolith's).
    pub phy_area_overhead: f64,
    /// Carrier used for the 2.5D assembly.
    pub carrier: Carrier,
    /// Assembly (bonding) parameters.
    pub assembly: AssemblyParams,
}

impl CostParams {
    /// Representative leading-node defaults: 300 mm wafers at $17k, defect
    /// density 0.002 /mm² with negative-binomial clustering (α = 3), $5 KGD
    /// test, 10% PHY overhead, organic substrate at $0.02/mm², 99% bond
    /// yield.
    #[must_use]
    pub fn default_5nm() -> Self {
        Self {
            compute_node: ProcessNode {
                name: "5nm",
                wafer: Wafer { diameter_mm: 300.0, cost: 17_000.0 },
                defect_density: 0.002,
                yield_model: YieldModel::NegativeBinomial { alpha: 3.0 },
            },
            kgd_test_cost: 5.0,
            phy_area_overhead: 0.10,
            carrier: Carrier::OrganicSubstrate { cost_per_mm2: 0.02 },
            assembly: AssemblyParams {
                bond_yield: 0.99,
                bond_cost: 2.0,
                package_base_cost: 20.0,
            },
        }
    }
}

/// Outcome of a monolithic-vs-2.5D comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComparison {
    /// Total silicon area of the monolithic reference, mm².
    pub total_area_mm2: f64,
    /// Number of compute chiplets in the 2.5D variant.
    pub num_chiplets: usize,
    /// Recurring cost of the monolithic chip (die + package base).
    pub monolithic_total: f64,
    /// Recurring cost of the 2.5D assembly (dies + carrier + bonding,
    /// scaled by assembly yield, + package base).
    pub mcm_total: f64,
    /// Fabrication yield of the monolithic die.
    pub monolithic_yield: f64,
    /// Fabrication yield of one chiplet.
    pub chiplet_yield: f64,
    /// Assembly yield of the 2.5D package.
    pub assembly_yield: f64,
}

impl CostComparison {
    /// Ratio `monolithic / MCM` (> 1 means disaggregation is cheaper).
    #[must_use]
    pub fn monolithic_over_mcm(&self) -> f64 {
        self.monolithic_total / self.mcm_total
    }
}

/// Compares a monolithic die of `total_area` mm² against `num_chiplets`
/// equal chiplets carrying the same logic (each inflated by the PHY
/// overhead), assembled on the configured carrier.
///
/// # Errors
///
/// Propagates parameter validation, wafer-geometry and yield errors
/// ([`CostError`]).
pub fn system_cost_comparison(
    params: &CostParams,
    total_area: f64,
    num_chiplets: usize,
) -> Result<CostComparison, CostError> {
    if num_chiplets == 0 {
        return Err(CostError::NonPositive("chiplet count"));
    }
    if !(params.phy_area_overhead.is_finite() && params.phy_area_overhead >= 0.0) {
        return Err(CostError::NonPositive("PHY area overhead"));
    }
    let assembly = params.assembly.validated()?;

    // Monolithic reference: one big die, no KGD test needed (package test
    // folded into package_base_cost for both variants).
    let mono = die_cost(&params.compute_node, total_area, 0.0)?;
    let monolithic_total = mono.good_die + assembly.package_base_cost;

    // 2.5D variant: chiplets carry a PHY area tax (§I).
    let chiplet_area = total_area / num_chiplets as f64 * (1.0 + params.phy_area_overhead);
    let chiplet = die_cost(&params.compute_node, chiplet_area, params.kgd_test_cost)?;
    let dies = chiplet.known_good_die * num_chiplets as f64;
    let footprint = chiplet_area * num_chiplets as f64;
    let carrier = carrier_cost(&params.carrier, footprint)?;
    let bonding = assembly.bond_cost * num_chiplets as f64;
    let (asm_yield, multiplier) = assembly_yield(&assembly, num_chiplets)?;
    let mcm_total = (dies + carrier + bonding) * multiplier + assembly.package_base_cost;

    Ok(CostComparison {
        total_area_mm2: total_area,
        num_chiplets,
        monolithic_total,
        mcm_total,
        monolithic_yield: mono.fab_yield,
        chiplet_yield: chiplet.fab_yield,
        assembly_yield: asm_yield,
    })
}

/// Sweeps chiplet counts and returns the count minimising 2.5D cost for a
/// given total area (`None` if every count errors, e.g. zero counts asked).
#[must_use]
pub fn best_chiplet_count(
    params: &CostParams,
    total_area: f64,
    counts: &[usize],
) -> Option<(usize, f64)> {
    counts
        .iter()
        .filter_map(|&n| {
            system_cost_comparison(params, total_area, n).ok().map(|c| (n, c.mcm_total))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_systems_favor_disaggregation() {
        // §I: at reticle-scale area and leading-node defect density the MCM
        // must win clearly.
        let cmp = system_cost_comparison(&CostParams::default_5nm(), 800.0, 16).unwrap();
        assert!(cmp.mcm_total < cmp.monolithic_total, "{cmp:?}");
        assert!(cmp.monolithic_over_mcm() > 1.3);
        assert!(cmp.chiplet_yield > cmp.monolithic_yield);
    }

    #[test]
    fn small_dies_favor_monolithic() {
        // For a small die, packaging overheads dominate: the monolith wins.
        let cmp = system_cost_comparison(&CostParams::default_5nm(), 50.0, 4).unwrap();
        assert!(cmp.monolithic_total < cmp.mcm_total, "{cmp:?}");
    }

    #[test]
    fn crossover_exists_between_50_and_800_mm2() {
        let params = CostParams::default_5nm();
        let ratio =
            |area: f64| system_cost_comparison(&params, area, 8).unwrap().monolithic_over_mcm();
        assert!(ratio(50.0) < 1.0);
        assert!(ratio(800.0) > 1.0);
        // Monotone increase across the sweep.
        let mut last = 0.0;
        for area in [50.0, 100.0, 200.0, 400.0, 800.0] {
            let r = ratio(area);
            assert!(r > last, "area {area}: ratio {r}");
            last = r;
        }
    }

    #[test]
    fn too_many_chiplets_hurt() {
        // Bonding cost/yield and PHY overhead eventually outweigh the yield
        // benefit: cost is U-shaped in chiplet count.
        let params = CostParams::default_5nm();
        let at = |n: usize| system_cost_comparison(&params, 800.0, n).unwrap().mcm_total;
        let best = best_chiplet_count(&params, 800.0, &[1, 2, 4, 8, 16, 32, 64, 128])
            .expect("valid sweep");
        assert!(best.0 >= 4, "optimum {best:?}");
        assert!(best.0 <= 64, "optimum {best:?}");
        assert!(at(128) > best.1);
        assert!(at(1) > best.1);
    }

    #[test]
    fn interposer_variant_costs_more_than_substrate() {
        let organic = CostParams::default_5nm();
        let interposer = CostParams {
            carrier: Carrier::SiliconInterposer {
                node: ProcessNode {
                    name: "65nm-interposer",
                    wafer: Wafer { diameter_mm: 300.0, cost: 2_000.0 },
                    defect_density: 0.0003,
                    yield_model: YieldModel::Poisson,
                },
            },
            ..organic
        };
        let a = system_cost_comparison(&organic, 600.0, 12).unwrap();
        let b = system_cost_comparison(&interposer, 600.0, 12).unwrap();
        assert!(b.mcm_total > a.mcm_total);
    }

    #[test]
    fn zero_chiplets_rejected() {
        assert!(system_cost_comparison(&CostParams::default_5nm(), 100.0, 0).is_err());
    }
}
