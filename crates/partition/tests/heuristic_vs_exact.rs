//! Property tests: the multilevel heuristic against the exact optimum.

use chiplet_graph::{gen, Graph};
use chiplet_partition::{balance_tolerance, bisect, exact, BisectionConfig};
use proptest::prelude::*;

/// Random connected graph with `8..=16` vertices (small enough for exact).
fn arb_small_connected() -> impl Strategy<Value = Graph> {
    (8usize..=16).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(0u8..100, max_edges).prop_map(move |coins| {
            let mut k = 0;
            let g = gen::from_coin(n, |_, _| {
                let c = coins[k] < 25; // ~25% edge density
                k += 1;
                c
            });
            // Force connectivity with a spanning path.
            let mut edges: Vec<_> = g.edges().collect();
            for i in 1..n {
                if !g.has_edge(i - 1, i) {
                    edges.push((i - 1, i));
                }
            }
            Graph::from_edges(n, &edges).expect("still simple")
        })
    })
}

/// Heuristic configured to skip the exact path so we actually test it.
fn heuristic_config() -> BisectionConfig {
    BisectionConfig { exact_threshold: 0, restarts: 12, coarsen_to: 6, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heuristic_is_balanced_and_near_optimal(g in arb_small_connected()) {
        let (_, optimal) = exact::exact_bisection(&g);
        let r = bisect(&g, &heuristic_config()).expect("non-empty");
        prop_assert!(r.partition.is_balanced(balance_tolerance(g.num_vertices())));
        prop_assert!(r.cut >= optimal, "heuristic {} below optimum {}", r.cut, optimal);
        // At this scale with restarts the heuristic should be optimal or
        // within one edge of it.
        prop_assert!(r.cut <= optimal + 1, "heuristic {} vs optimum {}", r.cut, optimal);
    }

    #[test]
    fn exact_result_is_balanced(g in arb_small_connected()) {
        let n = g.num_vertices();
        let (p, cut) = exact::exact_bisection(&g);
        prop_assert!(p.is_balanced(balance_tolerance(n)));
        prop_assert_eq!(p.cut_size(&g), cut);
    }

    #[test]
    fn cut_never_exceeds_minimum_degree_sum_bound(g in arb_small_connected()) {
        // A crude upper bound: isolating the floor(n/2) lowest-degree
        // vertices cuts at most the sum of their degrees.
        let n = g.num_vertices();
        let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degrees.sort_unstable();
        let bound: usize = degrees.iter().take(n / 2).sum();
        let (_, cut) = exact::exact_bisection(&g);
        prop_assert!(cut <= bound);
    }
}

#[test]
fn heuristic_matches_exact_on_structured_graphs() {
    // Deterministic regression set: graphs with known optimal cuts.
    let cases: Vec<(Graph, usize)> = vec![
        (gen::grid(6, 6), 6),
        (gen::grid(5, 8), 5),
        (gen::cycle(30), 2),
        (gen::complete(10), 25),
    ];
    for (g, optimal) in cases {
        let r = bisect(&g, &heuristic_config()).expect("non-empty");
        assert_eq!(r.cut, optimal, "graph with {} vertices", g.num_vertices());
    }
}

#[test]
fn wide_rectangles_cut_across_short_dimension() {
    // A 3 x 12 grid: optimal balanced cut slices the short dimension (3).
    let g = gen::grid(3, 12);
    let r = bisect(&g, &heuristic_config()).expect("non-empty");
    assert_eq!(r.cut, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kway_partitions_are_balanced_and_exhaustive(g in arb_small_connected(), k in 2usize..5) {
        let p = chiplet_partition::partition_kway(&g, k).unwrap();
        prop_assert!(p.is_balanced(0), "sizes {:?}", p.sizes());
        // Every part id in 0..k appears.
        let sizes = p.sizes();
        prop_assert!(sizes.iter().all(|&s| s > 0), "empty part: {sizes:?}");
        // k = 2 must not be worse than twice the exact bisection (plus the
        // odd-count slack).
        if k == 2 {
            let (_, optimal) = exact::exact_bisection(&g);
            prop_assert!(
                p.edge_cut(&g) <= optimal * 2 + 4,
                "kway {} far from optimal {}",
                p.edge_cut(&g),
                optimal
            );
        }
    }
}
