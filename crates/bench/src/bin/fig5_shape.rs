//! EXP-F5 — regenerates the Fig. 5 / §IV-B shape analysis: the worked
//! example (A_C = 16 mm², p_p = 0.4) plus a sweep over chiplet area and
//! power fraction for both bump-sector layouts.
//!
//! Usage: `cargo run --release -p hexamesh-bench --bin fig5_shape`
//! Writes `results/fig5_shape.csv`.

use std::path::Path;

use hexamesh::shape::{brickwall_shape, grid_shape, ShapeParams};
use hexamesh_bench::RESULTS_DIR;
use xp::table::{f3, Table};

fn main() {
    // Analytic binary: no flags. Unknown flags abort (strict-CLI rule).
    let args: Vec<String> = std::env::args().collect();
    xp::cli::reject_unknown_flags(&args, &[]);
    // ── Worked example of §IV-B ─────────────────────────────────────────
    let params = ShapeParams::new(16.0, 0.4).expect("valid paper parameters");
    let bw = brickwall_shape(&params).expect("solvable");
    println!("§IV-B worked example (A_C = 16 mm², p_p = 0.4):");
    println!("  paper:    W_C = 4.38 mm, H_C = 3.65 mm, D_B = 0.73 mm");
    println!(
        "  computed: W_C = {:.2} mm, H_C = {:.2} mm, D_B = {:.2} mm",
        bw.width, bw.height, bw.max_bump_distance
    );

    // ── Sweep for both layouts ──────────────────────────────────────────
    let mut table = Table::new(&[
        "layout",
        "chiplet_area_mm2",
        "power_fraction",
        "width_mm",
        "height_mm",
        "aspect",
        "link_sectors",
        "link_sector_area_mm2",
        "max_bump_distance_mm",
    ]);
    for &area in &[4.0, 8.0, 16.0, 32.0, 50.0, 100.0, 200.0, 400.0] {
        for &pp in &[0.2, 0.3, 0.4, 0.5, 0.6] {
            let p = ShapeParams::new(area, pp).expect("valid sweep parameters");
            for (layout, shape) in [
                ("grid", grid_shape(&p).expect("solvable")),
                ("brickwall", brickwall_shape(&p).expect("solvable")),
            ] {
                table.row(&[
                    &layout,
                    &f3(area),
                    &f3(pp),
                    &f3(shape.width),
                    &f3(shape.height),
                    &f3(shape.aspect_ratio()),
                    &shape.link_sectors,
                    &f3(shape.link_sector_area),
                    &f3(shape.max_bump_distance),
                ]);
            }
        }
    }
    let path = Path::new(RESULTS_DIR).join("fig5_shape.csv");
    table.write_to(&path).expect("write CSV");
    println!("wrote {} ({} rows)", path.display(), table.len());
}
