//! Product-portfolio economics: chiplet reuse across SKUs.
//!
//! §VII of the paper points at AMD's EPYC/RYZEN line as the production
//! proof of 2.5D economics: *one* compute-chiplet design spans products
//! with widely varying core counts. This module composes the workspace's
//! recurring-cost ([`crate::system`]) and NRE ([`crate::nre`]) models into
//! that scenario: a portfolio of products, each needing a different amount
//! of compute silicon, built either as
//!
//! * **monolithic** — one dedicated die design per product (its own mask
//!   set, its own NRE), or
//! * **chiplet-based** — every product assembles `k` copies of one shared
//!   compute-chiplet design (plus the 2.5D packaging costs).

use crate::die::die_cost;
use crate::nre::NreParams;
use crate::packaging::{assembly_yield, carrier_cost};
use crate::system::CostParams;
use crate::CostError;

/// One product (SKU) in the portfolio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Product {
    /// Compute silicon the product needs, mm² (before PHY overhead).
    pub compute_area_mm2: f64,
    /// Production volume in units.
    pub volume: u64,
}

/// NRE rates used for every die design in the portfolio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioNre {
    /// Mask-set cost per design on the compute node, dollars.
    pub mask_set: f64,
    /// Design/verification cost per mm² of a new die design, dollars.
    /// (Design effort scales with area; a 600 mm² flagship costs more to
    /// verify than an 80 mm² chiplet.)
    pub design_per_mm2: f64,
}

impl PortfolioNre {
    /// Leading-node ballpark: $30M masks, $300k/mm² design+verification.
    #[must_use]
    pub fn default_5nm() -> Self {
        Self { mask_set: 30.0e6, design_per_mm2: 0.3e6 }
    }
}

/// Cost breakdown of one strategy over the whole portfolio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyCost {
    /// Total recurring cost over all units, dollars.
    pub recurring: f64,
    /// Total NRE over all designs, dollars.
    pub nre: f64,
}

impl StrategyCost {
    /// Recurring + NRE.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.recurring + self.nre
    }
}

/// Portfolio comparison: monolithic-per-SKU vs. shared-chiplet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioComparison {
    /// One dedicated monolithic design per product.
    pub monolithic: StrategyCost,
    /// One shared chiplet design, products differ only in chiplet count.
    pub chiplet: StrategyCost,
    /// The shared chiplet's area in mm² (including PHY overhead).
    pub chiplet_area_mm2: f64,
}

impl PortfolioComparison {
    /// Ratio `monolithic total / chiplet total` (> 1: reuse wins).
    #[must_use]
    pub fn monolithic_over_chiplet(&self) -> f64 {
        self.monolithic.total() / self.chiplet.total()
    }
}

/// Compares the two portfolio strategies. `chiplet_area` is the shared
/// compute-chiplet's logic area in mm² (PHY overhead from `params` is added
/// on top); each product uses `⌈compute_area / chiplet_area⌉` chiplets.
///
/// # Errors
///
/// Propagates cost-model validation errors; rejects an empty portfolio and
/// non-positive chiplet areas.
pub fn portfolio_comparison(
    params: &CostParams,
    nre: &PortfolioNre,
    products: &[Product],
    chiplet_area: f64,
) -> Result<PortfolioComparison, CostError> {
    if products.is_empty() {
        return Err(CostError::NonPositive("product count"));
    }
    if !(chiplet_area.is_finite() && chiplet_area > 0.0) {
        return Err(CostError::NonPositive("chiplet area"));
    }
    for p in products {
        if !(p.compute_area_mm2.is_finite() && p.compute_area_mm2 > 0.0) {
            return Err(CostError::NonPositive("product compute area"));
        }
        if p.volume == 0 {
            return Err(CostError::NonPositive("product volume"));
        }
    }
    let assembly = params.assembly.validated()?;

    // ── Monolithic strategy: one design per product ─────────────────────
    let mut mono_recurring = 0.0;
    let mut mono_nre = 0.0;
    for p in products {
        let die = die_cost(&params.compute_node, p.compute_area_mm2, 0.0)?;
        mono_recurring += (die.good_die + assembly.package_base_cost) * p.volume as f64;
        let design = NreParams {
            mask_set: nre.mask_set,
            design: nre.design_per_mm2 * p.compute_area_mm2,
            reuse_products: 1,
            volume_per_product: p.volume,
        }
        .validated()?;
        mono_nre += design.mask_set + design.design;
    }

    // ── Chiplet strategy: one shared design, k copies per product ───────
    let physical_chiplet_area = chiplet_area * (1.0 + params.phy_area_overhead);
    let chiplet_die =
        die_cost(&params.compute_node, physical_chiplet_area, params.kgd_test_cost)?;
    let mut chip_recurring = 0.0;
    for p in products {
        let k = (p.compute_area_mm2 / chiplet_area).ceil() as usize;
        let dies = chiplet_die.known_good_die * k as f64;
        let footprint = physical_chiplet_area * k as f64;
        let carrier = carrier_cost(&params.carrier, footprint)?;
        let bonding = assembly.bond_cost * k as f64;
        let (_, multiplier) = assembly_yield(&assembly, k)?;
        let unit = (dies + carrier + bonding) * multiplier + assembly.package_base_cost;
        chip_recurring += unit * p.volume as f64;
    }
    // One mask set and one design, shared by the whole portfolio.
    let chip_nre = nre.mask_set + nre.design_per_mm2 * physical_chiplet_area;

    Ok(PortfolioComparison {
        monolithic: StrategyCost { recurring: mono_recurring, nre: mono_nre },
        chiplet: StrategyCost { recurring: chip_recurring, nre: chip_nre },
        chiplet_area_mm2: physical_chiplet_area,
    })
}

/// An AMD-flavoured example portfolio: desktop (1 chiplet of compute),
/// workstation (4), server flagship (8), with server volumes an order of
/// magnitude below desktop.
#[must_use]
pub fn epyc_like_portfolio(chiplet_area: f64) -> Vec<Product> {
    vec![
        Product { compute_area_mm2: chiplet_area, volume: 5_000_000 },
        Product { compute_area_mm2: 4.0 * chiplet_area, volume: 1_000_000 },
        Product { compute_area_mm2: 8.0 * chiplet_area, volume: 400_000 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHIPLET_AREA: f64 = 80.0;

    fn params() -> CostParams {
        CostParams::default_5nm()
    }

    #[test]
    fn reuse_wins_on_an_epyc_like_portfolio() {
        // Three SKUs sharing one 80 mm² chiplet design vs. three dedicated
        // monolithic designs (80/320/640 mm²): reuse must win on both NRE
        // (one mask set instead of three) and recurring cost (yield of
        // small dies).
        let cmp = portfolio_comparison(
            &params(),
            &PortfolioNre::default_5nm(),
            &epyc_like_portfolio(CHIPLET_AREA),
            CHIPLET_AREA,
        )
        .unwrap();
        assert!(cmp.chiplet.nre < cmp.monolithic.nre, "NRE: {cmp:?}");
        assert!(
            cmp.monolithic_over_chiplet() > 1.0,
            "portfolio ratio {:.3}",
            cmp.monolithic_over_chiplet()
        );
    }

    #[test]
    fn single_small_product_prefers_monolithic() {
        // One low-volume small product: the chiplet strategy pays packaging
        // overheads for nothing (1 chiplet per package) and wins no NRE
        // amortisation. Monolithic must be at least competitive.
        let products = [Product { compute_area_mm2: 60.0, volume: 100_000 }];
        let cmp =
            portfolio_comparison(&params(), &PortfolioNre::default_5nm(), &products, 60.0)
                .unwrap();
        assert!(
            cmp.monolithic.total() <= cmp.chiplet.total(),
            "monolithic {} vs chiplet {}",
            cmp.monolithic.total(),
            cmp.chiplet.total()
        );
    }

    #[test]
    fn nre_is_portfolio_size_invariant_for_chiplets() {
        // Adding SKUs leaves the chiplet NRE unchanged (one design) but
        // grows the monolithic NRE linearly.
        let nre = PortfolioNre::default_5nm();
        let small = epyc_like_portfolio(CHIPLET_AREA);
        let mut large = small.clone();
        large.push(Product { compute_area_mm2: 2.0 * CHIPLET_AREA, volume: 2_000_000 });
        large.push(Product { compute_area_mm2: 6.0 * CHIPLET_AREA, volume: 300_000 });
        let a = portfolio_comparison(&params(), &nre, &small, CHIPLET_AREA).unwrap();
        let b = portfolio_comparison(&params(), &nre, &large, CHIPLET_AREA).unwrap();
        assert!((a.chiplet.nre - b.chiplet.nre).abs() < 1e-6);
        assert!(b.monolithic.nre > a.monolithic.nre);
    }

    #[test]
    fn validation_rejects_degenerate_inputs() {
        let nre = PortfolioNre::default_5nm();
        assert!(portfolio_comparison(&params(), &nre, &[], CHIPLET_AREA).is_err());
        assert!(portfolio_comparison(
            &params(),
            &nre,
            &[Product { compute_area_mm2: 0.0, volume: 1 }],
            CHIPLET_AREA
        )
        .is_err());
        assert!(portfolio_comparison(
            &params(),
            &nre,
            &[Product { compute_area_mm2: 100.0, volume: 0 }],
            CHIPLET_AREA
        )
        .is_err());
        assert!(portfolio_comparison(
            &params(),
            &nre,
            &epyc_like_portfolio(CHIPLET_AREA),
            -1.0
        )
        .is_err());
    }

    #[test]
    fn phy_overhead_inflates_the_shared_chiplet() {
        let cmp = portfolio_comparison(
            &params(),
            &PortfolioNre::default_5nm(),
            &epyc_like_portfolio(CHIPLET_AREA),
            CHIPLET_AREA,
        )
        .unwrap();
        assert!(
            (cmp.chiplet_area_mm2 - CHIPLET_AREA * 1.10).abs() < 1e-9,
            "{}",
            cmp.chiplet_area_mm2
        );
    }
}
