//! Grid (G) arrangement generators — the paper's baseline (Fig. 4a).

use chiplet_layout::Rect;

use super::{positions, Regularity};

/// Cell size in layout units (squares; any positive size works).
const CELL: i64 = 2;

/// Generates the rectangles of a grid arrangement, or `None` if `n` cannot
/// be realised with the requested regularity.
pub(super) fn generate(n: usize, regularity: Regularity) -> Option<Vec<Rect>> {
    Some(positions(n, regularity)?.into_iter().map(|(row, col)| cell(row, col)).collect())
}

fn cell(row: i64, col: i64) -> Rect {
    Rect::new(col * CELL, row * CELL, CELL, CELL).expect("positive cell size")
}

#[cfg(test)]
mod tests {
    use super::super::{Arrangement, ArrangementKind, Regularity};
    use super::*;
    use chiplet_graph::metrics;

    #[test]
    fn regular_grid_structure() {
        let a =
            Arrangement::build_with_regularity(ArrangementKind::Grid, 16, Regularity::Regular)
                .unwrap();
        let g = a.graph();
        // 4x4 mesh: 2*4*3 = 24 edges.
        assert_eq!(g.num_edges(), 24);
        let stats = a.degree_stats();
        assert_eq!(stats.min, 2);
        assert_eq!(stats.max, 4);
        assert_eq!(metrics::diameter(g), Some(6));
    }

    #[test]
    fn regular_rejects_non_squares() {
        assert!(generate(12, Regularity::Regular).is_none());
    }

    #[test]
    fn semi_regular_structure() {
        let a = Arrangement::build_with_regularity(
            ArrangementKind::Grid,
            12,
            Regularity::SemiRegular,
        )
        .unwrap();
        // 3x4 mesh: 3*3 + 4*2 = 17 edges.
        assert_eq!(a.graph().num_edges(), 17);
        assert_eq!(metrics::diameter(a.graph()), Some(5));
    }

    #[test]
    fn irregular_min_degree_can_drop_to_one() {
        // 10 = 3x3 + 1 extra: the lone extra chiplet has one neighbour
        // (the paper: "reduces the minimum number of neighbors to 1").
        let a = Arrangement::build_with_regularity(
            ArrangementKind::Grid,
            10,
            Regularity::Irregular,
        )
        .unwrap();
        assert_eq!(a.degree_stats().min, 1);
    }

    #[test]
    fn irregular_extra_row_connects() {
        // 21 = 4x4 + 5 extras -> one full row of 4 + 1 in the next row.
        let a = Arrangement::build_with_regularity(
            ArrangementKind::Grid,
            21,
            Regularity::Irregular,
        )
        .unwrap();
        assert!(metrics::is_connected(a.graph()));
        assert_eq!(a.num_chiplets(), 21);
    }

    #[test]
    fn tiny_irregular_grids() {
        let a =
            Arrangement::build_with_regularity(ArrangementKind::Grid, 2, Regularity::Irregular)
                .unwrap();
        assert_eq!(a.graph().num_edges(), 1);
        let a =
            Arrangement::build_with_regularity(ArrangementKind::Grid, 3, Regularity::Irregular)
                .unwrap();
        assert_eq!(a.graph().num_edges(), 2);
    }

    #[test]
    fn average_degree_approaches_four() {
        // §IV-A: grid average neighbours -> 4 as N grows.
        let a = Arrangement::build(ArrangementKind::Grid, 100).unwrap();
        let avg = a.degree_stats().average;
        assert!(avg > 3.5 && avg < 4.0, "avg {avg}");
    }
}
