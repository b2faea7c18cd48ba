//! EXP-T1 — regenerates Table I's model inputs and the §VI-B per-link
//! bandwidth estimates across chiplet counts for the three evaluated
//! arrangements.
//!
//! Usage: `cargo run --release -p hexamesh-bench --bin table1_link_model`
//! Writes `results/table1_link_bandwidth.csv`.

use std::path::Path;

use hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh::eval::{link_budget, EvalParams};
use hexamesh::link;
use hexamesh_bench::RESULTS_DIR;
use xp::table::{f3, Table};

fn main() {
    // Analytic binary: no flags. Unknown flags abort (strict-CLI rule).
    let args: Vec<String> = std::env::args().collect();
    xp::cli::reject_unknown_flags(&args, &[]);
    // ── Table I: architectural parameters (the model's inputs) ─────────
    println!("Table I — architectural parameters (UCIe-based, §VI-B):");
    println!("  A_all  = {} mm² (combined chiplet area)", link::UCIE_TOTAL_AREA_MM2);
    println!("  p_p    = {} (power bump fraction)", link::UCIE_POWER_FRACTION);
    println!("  P_B    = {} mm (C4 bump pitch)", link::UCIE_BUMP_PITCH_MM);
    println!("  N_ndw  = {} wires (handshake/clock/sideband)", link::UCIE_NON_DATA_WIRES);
    println!("  f      = {} GHz (32 GT/s UCIe)", link::UCIE_FREQUENCY_GHZ);

    let params = EvalParams::paper_defaults();
    let mut table = Table::new(&[
        "kind",
        "n",
        "chiplet_area_mm2",
        "link_sector_area_mm2",
        "wires",
        "data_wires",
        "link_bandwidth_gbps",
        "full_global_bandwidth_tbps",
    ]);
    for n in 2..=100usize {
        for kind in ArrangementKind::EVALUATED {
            let a = Arrangement::build(kind, n).expect("n >= 2 builds");
            let budget = link_budget(&a, &params).expect("paper parameters are valid");
            table.row(&[
                &kind.label(),
                &n,
                &f3(budget.chiplet_area_mm2),
                &f3(budget.link_sector_area_mm2),
                &budget.estimate.wires,
                &budget.estimate.data_wires,
                &f3(budget.estimate.bandwidth_gbps()),
                &f3(budget.full_global_bandwidth_tbps),
            ]);
        }
    }
    let path = Path::new(RESULTS_DIR).join("table1_link_bandwidth.csv");
    table.write_to(&path).expect("write CSV");

    // Headline check from §VI-C: the grid's fewer sectors mean fatter links.
    for n in [16usize, 64, 100] {
        let g = link_budget(&Arrangement::build(ArrangementKind::Grid, n).unwrap(), &params)
            .unwrap();
        let hm =
            link_budget(&Arrangement::build(ArrangementKind::HexaMesh, n).unwrap(), &params)
                .unwrap();
        println!(
            "  N = {n:>3}: per-link bandwidth G {:.0} Gb/s vs HM {:.0} Gb/s (G/HM = {:.2})",
            g.estimate.bandwidth_gbps(),
            hm.estimate.bandwidth_gbps(),
            g.estimate.bandwidth_gbps() / hm.estimate.bandwidth_gbps()
        );
    }
    println!("wrote {} ({} rows)", path.display(), table.len());
}
