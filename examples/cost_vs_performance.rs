//! Cost *and* performance in one view — the combination §VII of the paper
//! proposes: Chiplet-Actuary-style recurring cost next to the ICI proxies,
//! across chiplet counts at the paper's 800 mm² design point.
//!
//! Run with: `cargo run --release --example cost_vs_performance`

use hexamesh_repro::cost::system::{system_cost_comparison, CostParams};
use hexamesh_repro::hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh_repro::hexamesh::eval::{link_budget, EvalParams};
use hexamesh_repro::hexamesh::link::UCIE_TOTAL_AREA_MM2;
use hexamesh_repro::hexamesh::proxies;
use hexamesh_repro::partition::BisectionConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cost_params = CostParams::default_5nm();
    let eval_params = EvalParams::paper_defaults();
    let bisection_config = BisectionConfig::default();
    let total_area = UCIE_TOTAL_AREA_MM2;

    println!("HexaMesh cost/performance trade-off at {total_area} mm² total silicon\n");
    println!(
        "{:>4}  {:>9} {:>8}  {:>9} {:>10}  {:>13}",
        "N", "mcm [$]", "vs mono", "diameter", "bisection", "link [Gb/s]"
    );
    for n in [7usize, 19, 37, 61, 91] {
        let cmp = system_cost_comparison(&cost_params, total_area, n)?;
        let hm = Arrangement::build(ArrangementKind::HexaMesh, n)?;
        let budget = link_budget(&hm, &eval_params)?;
        println!(
            "{:>4}  {:>9.0} {:>7.2}x  {:>9} {:>10.1}  {:>13.0}",
            n,
            cmp.mcm_total,
            cmp.monolithic_over_mcm(),
            proxies::measured_diameter(&hm).expect("connected"),
            proxies::paper_bisection(&hm, &bisection_config),
            budget.estimate.bandwidth_gbps(),
        );
    }

    println!(
        "\nReading: cost falls then rises with N (yield vs. assembly overheads) while \
         diameter grows ~ sqrt(N); per-link bandwidth shrinks as bump area divides."
    );
    Ok(())
}
