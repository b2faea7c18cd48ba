//! EXP-F6 — regenerates Fig. 6: network diameter (6a) and estimated
//! bisection bandwidth (6b) for grid, brickwall, and HexaMesh across
//! chiplet counts 1..=100, with the regularity classification of §IV-C.
//!
//! Usage: `cargo run --release -p hexamesh-bench --bin fig6_proxies`
//! Writes `results/fig6a_diameter.csv` and `results/fig6b_bisection.csv`.

use std::path::Path;

use hexamesh::arrangement::ArrangementKind;
use hexamesh_bench::RESULTS_DIR;
use xp::flow::sweep::proxy_sweep_over;
use xp::table::{f3, Table};

fn main() {
    // Analytic binary: no flags. Unknown flags abort (strict-CLI rule).
    let args: Vec<String> = std::env::args().collect();
    xp::cli::reject_unknown_flags(&args, &[]);
    let ns: Vec<usize> = (1..=100).collect();
    let points = proxy_sweep_over(&ArrangementKind::EVALUATED, &ns);

    let mut diameter = Table::new(&["kind", "regularity", "n", "diameter"]);
    let mut bisection = Table::new(&["kind", "regularity", "n", "bisection"]);
    for p in &points {
        let regularity = p.regularity.to_string();
        diameter.row(&[&p.kind.label(), &regularity, &p.n, &p.diameter]);
        bisection.row(&[&p.kind.label(), &regularity, &p.n, &f3(p.bisection)]);
    }

    let path_a = Path::new(RESULTS_DIR).join("fig6a_diameter.csv");
    diameter.write_to(&path_a).expect("write CSV");
    let path_b = Path::new(RESULTS_DIR).join("fig6b_bisection.csv");
    bisection.write_to(&path_b).expect("write CSV");

    // The figure's annotations: at N = 100, HexaMesh reaches ~0.6x the
    // grid's diameter and ~2.3x its bisection bandwidth.
    let at = |kind: ArrangementKind, n: usize| {
        points.iter().find(|p| p.kind == kind && p.n == n).expect("swept")
    };
    let g100 = at(ArrangementKind::Grid, 100);
    let bw100 = at(ArrangementKind::Brickwall, 100);
    let hm100 = at(ArrangementKind::HexaMesh, 100);
    println!("Fig. 6 at N = 100:");
    println!(
        "  diameter:  G {}  BW {}  HM {}  (HM/G = {:.2}; paper annotation x0.6)",
        g100.diameter,
        bw100.diameter,
        hm100.diameter,
        f64::from(hm100.diameter) / f64::from(g100.diameter)
    );
    println!(
        "  bisection: G {:.1}  BW {:.1}  HM {:.1}  (HM/G = {:.2}; paper annotation x2.3)",
        g100.bisection,
        bw100.bisection,
        hm100.bisection,
        hm100.bisection / g100.bisection
    );
    println!("wrote {} and {}", path_a.display(), path_b.display());
}
