//! Property-based tests for the geometric adjacency extraction: the §III-C
//! rule (shared edge of positive length, never corners) must behave like a
//! proper contact relation for any overlap-free set of rectangles.

use chiplet_graph::metrics;
use chiplet_layout::{contact_graph, ChipletKind, PlacedChiplet, Placement, Rect};
use proptest::prelude::*;

/// A random overlap-free placement: distinct cells of a coarse lattice with
/// random per-cell sizes that never poke out of the cell.
fn arb_placement() -> impl Strategy<Value = Placement> {
    proptest::collection::btree_set((0i64..8, 0i64..8), 1..20).prop_flat_map(|cells| {
        let cells: Vec<(i64, i64)> = cells.into_iter().collect();
        let n = cells.len();
        // For each cell: full-size (fills the cell, may touch neighbours) or
        // shrunken (leaves a gap).
        proptest::collection::vec(proptest::bool::ANY, n).prop_map(move |full| {
            let mut p = Placement::new();
            for (i, &(cx, cy)) in cells.iter().enumerate() {
                let size = if full[i] { 4 } else { 3 };
                let rect = Rect::new(cx * 4, cy * 4, size, size).expect("positive");
                p.push(PlacedChiplet::compute(rect)).expect("cells are disjoint");
            }
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adjacency_is_symmetric_and_irreflexive(p in arb_placement()) {
        let chiplets = p.chiplets();
        for (i, a) in chiplets.iter().enumerate() {
            prop_assert!(!a.rect.is_adjacent(&a.rect), "self-adjacency");
            for b in chiplets.iter().skip(i + 1) {
                prop_assert_eq!(
                    a.rect.is_adjacent(&b.rect),
                    b.rect.is_adjacent(&a.rect)
                );
            }
        }
    }

    #[test]
    fn contact_graph_has_exactly_the_adjacent_pairs(p in arb_placement()) {
        // With the perimeter I/O ring, so that compute and I/O chiplets mix.
        let p = chiplet_layout::perimeter::surround_with_io(&p, 4, 4).expect("valid tile");
        let rects: Vec<Rect> = p.chiplets().iter().map(|c| c.rect).collect();
        let g = contact_graph(&rects);
        prop_assert_eq!(g.num_vertices(), rects.len());
        let mut expected = Vec::new();
        for (i, a) in rects.iter().enumerate() {
            for (j, b) in rects.iter().enumerate().skip(i + 1) {
                if a.is_adjacent(b) {
                    expected.push((i, j));
                }
            }
        }
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), expected);
        // The ICI graph is the contact graph of the compute chiplets alone.
        let computes: Vec<Rect> = p
            .chiplets()
            .iter()
            .filter(|c| c.kind == ChipletKind::Compute)
            .map(|c| c.rect)
            .collect();
        prop_assert_eq!(p.compute_adjacency_graph(), contact_graph(&computes));
    }

    #[test]
    fn adjacency_graph_is_planar_bounded(p in arb_placement()) {
        // Contact graphs of interior-disjoint rectangles are planar.
        let g = p.compute_adjacency_graph();
        prop_assert!(metrics::satisfies_planar_edge_bound(&g));
    }

    #[test]
    fn shared_edge_length_zero_iff_not_adjacent(p in arb_placement()) {
        let chiplets = p.chiplets();
        for (i, a) in chiplets.iter().enumerate() {
            for b in chiplets.iter().skip(i + 1) {
                let len = a.rect.shared_edge_length(&b.rect);
                prop_assert_eq!(len > 0, a.rect.is_adjacent(&b.rect));
                prop_assert!(len >= 0);
            }
        }
    }

    #[test]
    fn adjacent_rects_touch_along_axis(p in arb_placement()) {
        // If adjacent, exactly one axis has coinciding edges and the other
        // has positive interval overlap.
        let chiplets = p.chiplets();
        for (i, a) in chiplets.iter().enumerate() {
            for b in chiplets.iter().skip(i + 1) {
                if !a.rect.is_adjacent(&b.rect) {
                    continue;
                }
                let (ra, rb) = (a.rect, b.rect);
                let vertical_contact = ra.right() == rb.x() || rb.right() == ra.x();
                let horizontal_contact = ra.top() == rb.y() || rb.top() == ra.y();
                prop_assert!(vertical_contact ^ horizontal_contact);
            }
        }
    }

    #[test]
    fn bounding_box_contains_everything(p in arb_placement()) {
        let bb = p.bounding_box().expect("non-empty placement");
        for c in p.chiplets() {
            prop_assert!(c.rect.x() >= bb.x());
            prop_assert!(c.rect.y() >= bb.y());
            prop_assert!(c.rect.right() <= bb.right());
            prop_assert!(c.rect.top() <= bb.top());
        }
        prop_assert!(p.total_area() <= bb.area());
    }

    #[test]
    fn io_fill_never_disturbs_compute_graph(p in arb_placement()) {
        let before = p.compute_adjacency_graph();
        let filled =
            chiplet_layout::perimeter::fill_gaps_with_io(&p, 4, 4).expect("valid tile");
        prop_assert_eq!(filled.compute_adjacency_graph(), before.clone());
        let ringed = chiplet_layout::perimeter::surround_with_io(&p, 4, 4).expect("valid tile");
        prop_assert_eq!(ringed.compute_adjacency_graph(), before);
    }
}
