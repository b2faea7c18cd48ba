//! EXP-P1 — signal-integrity sweep of the D2D link model extension.
//!
//! §V of the paper treats the link frequency as an input, noting that
//! adjacent-chiplet links are "below 4 mm in general, for N ≥ 10 chiplets
//! even below 2 mm", and §II quotes UCIe's ≤ 2 mm limit for silicon
//! interposers. The `chiplet-phy` crate models *why*: insertion loss,
//! crosstalk, and BER. This sweep regenerates the reach/rate trade-off for
//! both wiring technologies and cross-checks the paper's envelopes.
//!
//! Usage: `cargo run --release -p hexamesh-bench --bin phy_sweep`
//! Writes `results/phy_reach.csv` and `results/phy_derating.csv`.

use std::path::Path;

use chiplet_phy::{capacity, eye, SignalBudget, Technology};
use hexamesh_bench::RESULTS_DIR;
use xp::table::{f3, Table};

fn main() {
    // Analytic binary: no flags. Unknown flags abort (strict-CLI rule).
    let args: Vec<String> = std::env::args().collect();
    xp::cli::reject_unknown_flags(&args, &[]);
    let budget = SignalBudget::default();
    let technologies = [Technology::organic_substrate(), Technology::silicon_interposer()];
    const BER_TARGET: f64 = -15.0;

    // ── Reach vs. per-wire bit rate ─────────────────────────────────────
    let mut reach = Table::new(&["technology", "bit_rate_gbps", "max_length_mm"]);
    println!("Maximum link length at BER 1e-15:");
    println!("{:<28} {:>6} {:>12}", "technology", "Gb/s", "reach [mm]");
    for tech in &technologies {
        for rate in [4.0f64, 8.0, 12.0, 16.0, 24.0, 32.0] {
            let r = capacity::max_length_mm(tech, &budget, rate, BER_TARGET).unwrap_or(0.0);
            println!("{:<28} {:>6.0} {:>12.2}", tech.name, rate, r);
            reach.row(&[&tech.name, &rate, &f3(r)]);
        }
    }
    reach
        .write_to(Path::new(RESULTS_DIR).join("phy_reach.csv").as_path())
        .expect("results dir writable");

    // ── Derated rate and BER vs. length at the paper's 16 Gb/s ──────────
    let mut derating = Table::new(&[
        "technology",
        "length_mm",
        "insertion_loss_db",
        "eye_mv",
        "log10_ber",
        "derated_rate_gbps",
    ]);
    for tech in &technologies {
        for tenths in 1..=60u32 {
            let length = f64::from(tenths) * 0.1;
            let a = eye::analyze(tech, &budget, 16.0, length);
            let derated =
                capacity::derated_bit_rate_gbps(tech, &budget, length, 16.0, BER_TARGET);
            derating.row(&[
                &tech.name,
                &f3(length),
                &f3(a.insertion_loss_db),
                &f3(a.eye_height_v * 1e3),
                &f3(a.log10_ber.max(-40.0)),
                &f3(derated),
            ]);
        }
    }
    derating
        .write_to(Path::new(RESULTS_DIR).join("phy_derating.csv").as_path())
        .expect("results dir writable");

    // ── The paper's envelope checkpoints ────────────────────────────────
    let sub = &technologies[0];
    let int = &technologies[1];
    let sub_reach = capacity::max_length_mm(sub, &budget, 16.0, BER_TARGET).unwrap_or(0.0);
    let int_reach = capacity::max_length_mm(int, &budget, 16.0, BER_TARGET).unwrap_or(0.0);
    println!();
    println!("Paper envelope checks at 16 Gb/s, BER 1e-15:");
    println!(
        "  substrate reach {sub_reach:.2} mm  (paper §V: adjacent links < 4 mm in general) {}",
        verdict(sub_reach >= 4.0)
    );
    println!(
        "  interposer reach {int_reach:.2} mm (paper §II: UCIe interposer links <= 2 mm)   {}",
        verdict((1.8..=2.6).contains(&int_reach))
    );
    println!(
        "  N >= 10 chiplets => links < 2 mm: both technologies run at full rate {}",
        verdict(
            capacity::derated_bit_rate_gbps(int, &budget, 2.0, 16.0, BER_TARGET) >= 16.0
                && capacity::derated_bit_rate_gbps(sub, &budget, 2.0, 16.0, BER_TARGET) >= 16.0
        )
    );
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "[ok]"
    } else {
        "[MISMATCH]"
    }
}
