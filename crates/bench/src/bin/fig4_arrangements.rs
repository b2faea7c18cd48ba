//! EXP-F4 — regenerates the Fig. 4 panel: for each arrangement family and
//! regular chiplet count, the neighbour statistics and the formula-vs-
//! measured diameter and bisection bandwidth.
//!
//! Usage: `cargo run --release -p hexamesh-bench --bin fig4_arrangements`
//! Writes `results/fig4_arrangements.csv`.

use std::path::Path;

use chiplet_partition::BisectionConfig;
use hexamesh::arrangement::{hexamesh_count, Arrangement, ArrangementKind, Regularity};
use hexamesh::proxies;
use hexamesh_bench::RESULTS_DIR;
use xp::table::{f3, Table};

fn main() {
    // Analytic binary: no flags. Unknown flags abort (strict-CLI rule).
    let args: Vec<String> = std::env::args().collect();
    xp::cli::reject_unknown_flags(&args, &[]);
    let mut table = Table::new(&[
        "kind",
        "n",
        "min_neighbors",
        "max_neighbors",
        "avg_neighbors",
        "diameter_formula",
        "diameter_measured",
        "bisection_formula",
        "bisection_exact",
    ]);

    println!("Fig. 4 — arrangement properties (regular arrangements)");
    println!(
        "{:<10} {:>4} {:>4}/{:>4} {:>6}  {:>9} {:>9}  {:>9} {:>9}",
        "kind", "n", "min", "max", "avg", "D(form)", "D(meas)", "B(form)", "B(exact)"
    );

    let config = BisectionConfig::default();
    for kind in ArrangementKind::ALL {
        for n in regular_counts(kind) {
            let a = Arrangement::build_with_regularity(kind, n, Regularity::Regular)
                .expect("regular count");
            let stats = a.degree_stats();
            let d_formula = proxies::formula_diameter(kind, n);
            let d_measured = proxies::measured_diameter(&a).expect("connected");
            let b_formula = proxies::formula_bisection(kind, n);
            // Exact bisection only where enumeration is feasible.
            let b_exact = if n <= 20 {
                proxies::measured_bisection(&a, &config)
                    .map_or_else(|| "-".to_owned(), |b| b.to_string())
            } else {
                "-".to_owned()
            };
            println!(
                "{:<10} {:>4} {:>4}/{:>4} {:>6.2}  {:>9.2} {:>9}  {:>9.2} {:>9}",
                kind.label(),
                n,
                stats.min,
                stats.max,
                stats.average,
                d_formula,
                d_measured,
                b_formula,
                b_exact
            );
            table.row(&[
                &kind.label(),
                &n,
                &stats.min,
                &stats.max,
                &f3(stats.average),
                &f3(d_formula),
                &d_measured,
                &f3(b_formula),
                &b_exact,
            ]);
        }
    }

    // The §IV-A c) claim: honeycomb and brickwall share one graph structure.
    let mut equivalent = true;
    for n in 2..=49 {
        let hc = Arrangement::build(ArrangementKind::Honeycomb, n).expect("builds");
        let bw = Arrangement::build(ArrangementKind::Brickwall, n).expect("builds");
        if hc.graph() != bw.graph() {
            equivalent = false;
            println!("MISMATCH: HC and BW graphs differ at n={n}");
        }
    }
    println!("honeycomb ≡ brickwall graph structure for n=2..=49: {equivalent}");

    let path = Path::new(RESULTS_DIR).join("fig4_arrangements.csv");
    table.write_to(&path).expect("write CSV");
    println!("wrote {}", path.display());
}

/// The regular chiplet counts up to 100 for a kind.
fn regular_counts(kind: ArrangementKind) -> Vec<usize> {
    match kind {
        ArrangementKind::HexaMesh => (0..=5).map(hexamesh_count).collect(),
        _ => (1..=10).map(|s| s * s).collect(),
    }
}
