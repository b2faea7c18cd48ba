//! EXP-A5 — carrier ablation: organic substrate (C4 bumps) vs. silicon
//! interposer (micro-bumps).
//!
//! The paper evaluates §VI with C4-bump parameters (0.15 mm pitch) and
//! observes its results would scale with bump density (§II: micro-bumps
//! "further enhance the throughput of D2D links"). This ablation re-runs
//! the Fig. 7 pipeline with the §II micro-bump midpoint (45 µm): per-link
//! bandwidth grows ~11×, the G/BW/HM *ranking* must not change, and the
//! signal-integrity model confirms interposer links stay within their
//! ≤ 2 mm reach for N ≥ 10 (the regime where interposers are usable at
//! full rate).
//!
//! Usage: `cargo run --release -p hexamesh-bench --bin ablation_interposer [--quick]`
//! Writes `results/ablation_interposer.csv`.

use std::path::Path;

use chiplet_phy::{capacity, SignalBudget, Technology};
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh::eval::{evaluate, link_budget, EvalParams};
use hexamesh::link::{MICROBUMP_PITCH_MM, UCIE_POWER_FRACTION, UCIE_TOTAL_AREA_MM2};
use hexamesh::shape::{paper_link_length, shape_for, ShapeParams};
use hexamesh_bench::RESULTS_DIR;
use xp::table::{f3, Table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    xp::cli::reject_unknown_flags(&args, &["--quick"]);
    let quick = xp::cli::arg_flag(&args, "--quick");
    let budget = SignalBudget::default();
    let interposer = Technology::silicon_interposer();
    let reach = capacity::max_length_mm(&interposer, &budget, 16.0, -15.0)
        .expect("feasible at zero length");

    let c4 = if quick { EvalParams::quick() } else { EvalParams::paper_defaults() };
    let mut micro = c4;
    micro.bump_pitch_mm = MICROBUMP_PITCH_MM;

    let mut table = Table::new(&[
        "n",
        "kind",
        "link_length_mm",
        "within_interposer_reach",
        "c4_link_gbps",
        "microbump_link_gbps",
        "c4_saturation_tbps",
        "microbump_saturation_tbps",
    ]);

    println!("Carrier ablation (interposer reach at 16 Gb/s, BER 1e-15: {reach:.2} mm):");
    println!(
        "{:>3} {:<4} {:>8} {:>6} {:>10} {:>12} {:>10} {:>12}",
        "N",
        "kind",
        "link[mm]",
        "reach?",
        "C4 [Gb/s]",
        "µbump [Gb/s]",
        "C4 [Tb/s]",
        "µbump [Tb/s]"
    );
    for n in [16usize, 37, 64] {
        for kind in ArrangementKind::EVALUATED {
            let arrangement = Arrangement::build(kind, n).expect("any n builds");
            let shape_params =
                ShapeParams::new(UCIE_TOTAL_AREA_MM2 / n as f64, UCIE_POWER_FRACTION)
                    .expect("valid");
            let link_mm = paper_link_length(
                &shape_for(kind, &shape_params).expect("rectangular kinds solve"),
            );
            let feasible = link_mm <= reach;

            // Bump pitch changes no simulation: one search serves both carriers.
            let on_c4 = evaluate(&arrangement, &c4).expect("simulates");
            let on_micro = link_budget(&arrangement, &micro).expect("budget solves");
            let micro_tbps = on_c4.saturation_fraction * on_micro.full_global_bandwidth_tbps;

            println!(
                "{:>3} {:<4} {:>8.2} {:>6} {:>10.0} {:>12.0} {:>10.2} {:>12.2}",
                n,
                kind.label(),
                link_mm,
                if feasible { "yes" } else { "NO" },
                on_c4.link_bandwidth_gbps,
                on_micro.estimate.bandwidth_gbps(),
                on_c4.saturation_throughput_tbps,
                micro_tbps,
            );
            table.row(&[
                &n,
                &kind.label(),
                &f3(link_mm),
                &feasible,
                &f3(on_c4.link_bandwidth_gbps),
                &f3(on_micro.estimate.bandwidth_gbps()),
                &f3(on_c4.saturation_throughput_tbps),
                &f3(micro_tbps),
            ]);
        }
    }

    table
        .write_to(Path::new(RESULTS_DIR).join("ablation_interposer.csv").as_path())
        .expect("results dir writable");
    println!("\nwrote {RESULTS_DIR}/ablation_interposer.csv");
    println!("(relative throughput is pitch-invariant: the ranking is the paper's)");
}
