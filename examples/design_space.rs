//! Design-space exploration: sweep chiplet counts and report, for each
//! arrangement, the proxies and link budget — the analysis an architect
//! would run before committing to a chiplet count.
//!
//! Run with: `cargo run --release --example design_space [max_n]`

use hexamesh_repro::hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh_repro::hexamesh::eval::{evaluate_analytic, EvalParams};
use hexamesh_repro::hexamesh::link::UCIE_TOTAL_AREA_MM2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let max_n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let params = EvalParams::paper_defaults();

    println!("Analytic design-space sweep (A_all = {UCIE_TOTAL_AREA_MM2} mm²)\n");
    println!(
        "{:>4}  {:>14} {:>14} {:>14}   winner",
        "N", "G lat [cyc]", "BW lat [cyc]", "HM lat [cyc]"
    );

    let mut hm_wins = 0usize;
    let mut rows = 0usize;
    for n in (2..=max_n).step_by(3) {
        let mut latencies = Vec::new();
        for kind in ArrangementKind::EVALUATED {
            let arrangement = Arrangement::build(kind, n)?;
            let result = evaluate_analytic(&arrangement, &params)?;
            latencies.push((kind, result.zero_load_latency_cycles));
        }
        let (winner, _) = latencies
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three kinds evaluated");
        if winner == ArrangementKind::HexaMesh {
            hm_wins += 1;
        }
        rows += 1;
        println!(
            "{:>4}  {:>14.1} {:>14.1} {:>14.1}   {}",
            n, latencies[0].1, latencies[1].1, latencies[2].1, winner
        );
    }
    println!("\nHexaMesh has the lowest zero-load latency at {hm_wins}/{rows} sampled counts.");
    Ok(())
}
