//! Brickwall (BW) arrangement generators (Fig. 4c).
//!
//! Bricks are 2×1 rectangles; consecutive rows are offset by half a brick so
//! that every interior brick touches two row-mates and two bricks in each
//! adjacent row — six neighbours, realising the honeycomb graph with
//! rectangular chiplets.

use chiplet_layout::Rect;

use super::{positions, Regularity};

/// Brick extent in layout units.
const BRICK_W: i64 = 4;
const BRICK_H: i64 = 2;
/// Row offset: half a brick.
const HALF: i64 = BRICK_W / 2;

/// Generates the rectangles of a brickwall arrangement, or `None` if `n`
/// cannot be realised with the requested regularity.
pub(super) fn generate(n: usize, regularity: Regularity) -> Option<Vec<Rect>> {
    Some(positions(n, regularity)?.into_iter().map(|(row, col)| brick(row, col)).collect())
}

/// Brick at `(row, col)`: odd rows shift right by half a brick.
fn brick(row: i64, col: i64) -> Rect {
    let offset = if row.rem_euclid(2) == 1 { HALF } else { 0 };
    Rect::new(col * BRICK_W + offset, row * BRICK_H, BRICK_W, BRICK_H)
        .expect("positive brick size")
}

#[cfg(test)]
mod tests {
    use super::super::{Arrangement, ArrangementKind, Regularity};
    use super::*;
    use chiplet_graph::metrics;

    fn build(n: usize, regularity: Regularity) -> Arrangement {
        Arrangement::build_with_regularity(ArrangementKind::Brickwall, n, regularity)
            .expect("valid brickwall")
    }

    #[test]
    fn interior_bricks_have_six_neighbors() {
        let a = build(25, Regularity::Regular);
        assert_eq!(a.degree_stats().max, 6);
    }

    #[test]
    fn regular_brickwall_min_degree_is_two() {
        // §IV-A d): "there are two chiplets with only two neighbors".
        let a = build(16, Regularity::Regular);
        assert_eq!(a.degree_stats().min, 2);
        let histogram = metrics::degree_histogram(a.graph());
        assert_eq!(histogram[2], 2, "exactly two corner bricks with 2 neighbours");
    }

    #[test]
    fn average_degree_approaches_six() {
        let a = build(100, Regularity::Regular);
        let avg = a.degree_stats().average;
        assert!(avg > 5.0 && avg < 6.0, "avg {avg}");
        // And it respects the planar bound 6 - 12/N.
        let bound = metrics::planar_average_degree_bound(100).unwrap();
        assert!(avg <= bound);
    }

    #[test]
    fn brickwall_diameter_beats_grid() {
        for n in [16usize, 25, 36, 49, 64, 81, 100] {
            let bw = build(n, Regularity::Regular);
            let g = Arrangement::build_with_regularity(
                ArrangementKind::Grid,
                n,
                Regularity::Regular,
            )
            .unwrap();
            let d_bw = metrics::diameter(bw.graph()).unwrap();
            let d_g = metrics::diameter(g.graph()).unwrap();
            assert!(d_bw < d_g, "n={n}: BW {d_bw} !< G {d_g}");
        }
    }

    #[test]
    fn semi_regular_counts() {
        let a = build(12, Regularity::SemiRegular);
        assert_eq!(a.num_chiplets(), 12);
        assert!(metrics::is_connected(a.graph()));
    }

    #[test]
    fn irregular_counts_and_connectivity() {
        for n in 2..=50 {
            let a = build(n, Regularity::Irregular);
            assert_eq!(a.num_chiplets(), n, "n={n}");
            assert!(metrics::is_connected(a.graph()), "n={n}");
        }
    }

    #[test]
    fn offset_rows_share_half_brick_edges() {
        // Brick (0,0) and brick (1,0): offset by half a brick, must touch.
        let a = brick(0, 0);
        let b = brick(1, 0);
        assert_eq!(a.shared_edge_length(&b), HALF);
        // Brick (1,1) also touches (0,1) and (0,2)... i.e. two up-neighbours
        // for interior bricks.
        let c = brick(1, 1);
        assert!(c.is_adjacent(&brick(0, 1)));
        assert!(c.is_adjacent(&brick(0, 2)));
        assert!(!c.is_adjacent(&brick(0, 0)), "corner-only contact is excluded");
    }
}
