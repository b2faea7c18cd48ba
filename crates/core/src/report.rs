//! Human-readable design reports: a one-page "datasheet" for an arrangement
//! at a given design point, combining the §IV proxies, §IV-B shape, and §V
//! link model — what an architect would pin to the wall before tape-out.

use std::fmt::Write as _;

use chiplet_partition::BisectionConfig;

use crate::arrangement::Arrangement;
use crate::eval::{link_budget, EvalError, EvalParams, HAND_OPTIMIZE_THRESHOLD};
use crate::link;
use crate::proxies;
use crate::shape::{self, ShapeParams};

/// Renders a plain-text datasheet for `arrangement` under `params`.
///
/// The report contains: identity (kind, regularity, N), ICI graph statistics
/// (neighbours, diameter, bisection), chiplet geometry (dimensions, bump
/// sectors, link length), and the link budget (wires, per-link and full
/// global bandwidth).
///
/// # Errors
///
/// Propagates [`EvalError`] from the shape/link computations (e.g. the
/// honeycomb has no rectangular shape, `N = 1` has no links).
pub fn datasheet(arrangement: &Arrangement, params: &EvalParams) -> Result<String, EvalError> {
    let n = arrangement.num_chiplets();
    let stats = arrangement.degree_stats();
    let budget = link_budget(arrangement, params)?;
    let shape_params = ShapeParams::new(budget.chiplet_area_mm2, link::UCIE_POWER_FRACTION)?;
    let chiplet_shape = shape::shape_for(arrangement.kind(), &shape_params)?;
    let diameter = proxies::measured_diameter(arrangement).expect("arrangements are connected");
    let bisection = proxies::paper_bisection(arrangement, &BisectionConfig::default());

    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "═══ {} arrangement — {} chiplets ({}) ═══",
        arrangement.kind(),
        n,
        arrangement.regularity()
    ));
    line(String::new());
    line("── Inter-chiplet interconnect ──".to_owned());
    line(format!(
        "  neighbours/chiplet   min {} / max {} / avg {:.2}",
        stats.min, stats.max, stats.average
    ));
    line(format!("  D2D links            {}", arrangement.graph().num_edges()));
    line(format!("  network diameter     {diameter} hops"));
    line(format!("  bisection bandwidth  {bisection:.1} links"));
    line(String::new());
    line("── Chiplet geometry ──".to_owned());
    line(format!("  area                 {:.2} mm²", budget.chiplet_area_mm2));
    line(format!(
        "  dimensions           {:.2} x {:.2} mm (aspect {:.2})",
        chiplet_shape.width,
        chiplet_shape.height,
        chiplet_shape.aspect_ratio()
    ));
    line(format!(
        "  bump sectors         {} link sectors of {:.2} mm² + power sector",
        chiplet_shape.link_sectors, chiplet_shape.link_sector_area
    ));
    line(format!(
        "  max bump distance    {:.2} mm (link length ~{:.2} mm)",
        chiplet_shape.max_bump_distance,
        shape::paper_link_length(&chiplet_shape)
    ));
    line(String::new());
    line("── D2D link budget (§V model) ──".to_owned());
    line(format!(
        "  sector area used     {:.2} mm² {}",
        budget.link_sector_area_mm2,
        if n <= HAND_OPTIMIZE_THRESHOLD { "(hand-optimised, N ≤ 7)" } else { "" }
    ));
    line(format!(
        "  wires                {} total, {} data",
        budget.estimate.wires, budget.estimate.data_wires
    ));
    line(format!(
        "  per-link bandwidth   {:.0} Gb/s @ {:.0} GHz",
        budget.estimate.bandwidth_gbps(),
        link::UCIE_FREQUENCY_GHZ
    ));
    line(format!(
        "  full global bandwidth {:.1} Tb/s ({} chiplets x {} endpoints)",
        budget.full_global_bandwidth_tbps, n, params.sim.endpoints_per_router
    ));
    let _ = write!(out, "");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::ArrangementKind;

    #[test]
    fn datasheet_contains_key_sections() {
        let a = Arrangement::build(ArrangementKind::HexaMesh, 37).unwrap();
        let text = datasheet(&a, &EvalParams::paper_defaults()).unwrap();
        assert!(text.contains("HexaMesh arrangement — 37 chiplets (regular)"));
        assert!(text.contains("Inter-chiplet interconnect"));
        assert!(text.contains("Chiplet geometry"));
        assert!(text.contains("D2D link budget"));
        assert!(text.contains("network diameter     6 hops"));
        assert!(text.contains("bisection bandwidth  13.0 links"));
    }

    #[test]
    fn datasheet_marks_hand_optimized_small_n() {
        let a = Arrangement::build(ArrangementKind::Grid, 4).unwrap();
        let text = datasheet(&a, &EvalParams::paper_defaults()).unwrap();
        assert!(text.contains("hand-optimised"));
    }

    #[test]
    fn honeycomb_has_no_datasheet() {
        let a = Arrangement::build(ArrangementKind::Honeycomb, 9).unwrap();
        assert!(datasheet(&a, &EvalParams::paper_defaults()).is_err());
    }

    #[test]
    fn single_chiplet_has_no_datasheet() {
        let a = Arrangement::build(ArrangementKind::Grid, 1).unwrap();
        assert!(datasheet(&a, &EvalParams::paper_defaults()).is_err());
    }
}
