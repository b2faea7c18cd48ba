//! Property-based tests for the graph kernel.

use std::collections::{BTreeSet, HashSet};

use chiplet_graph::cut::{Bipartition, Side};
use chiplet_graph::{bfs, gen, metrics, Graph, GraphError};
use proptest::prelude::*;

/// Strategy: a random simple graph with 1..=24 vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..=24).prop_flat_map(|n| {
        let max_edges = n * (n.saturating_sub(1)) / 2;
        proptest::collection::vec(proptest::bool::ANY, max_edges).prop_map(move |coins| {
            let mut k = 0;
            gen::from_coin(n, |_, _| {
                let c = coins[k];
                k += 1;
                c
            })
        })
    })
}

/// Strategy: a random *connected* simple graph (random graph plus a spanning
/// path to guarantee connectivity).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    arb_graph().prop_map(|g| {
        let n = g.num_vertices();
        let mut edges: Vec<_> = g.edges().collect();
        for i in 1..n {
            if !g.has_edge(i - 1, i) {
                edges.push((i - 1, i));
            }
        }
        Graph::from_edges(n, &edges).expect("augmented edges stay simple")
    })
}

/// Strategy: a random simple graph with 2..=8 vertices — small enough to
/// brute-force every bipartition. Deliberately *not* forced connected:
/// disconnected samples pin the `Some(0)` contract.
fn arb_small_graph() -> impl Strategy<Value = Graph> {
    (2usize..=8).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(proptest::bool::ANY, max_edges).prop_map(move |coins| {
            let mut k = 0;
            gen::from_coin(n, |_, _| {
                let c = coins[k];
                k += 1;
                c
            })
        })
    })
}

/// Vertex counts on both sides of the distance kernel's word boundaries
/// (64 and 128 vertices) and of its 256-vertex sweeps.
const MULTIWORD_SIZES: [usize; 8] = [63, 64, 65, 128, 129, 256, 257, 300];

/// Strategy: a sparse random graph with one of [`MULTIWORD_SIZES`]
/// vertices, so its distance bitsets span several 64-bit words. Each
/// vertex links back to one of the four before it, so diameters run long;
/// about half the graphs lose one of those links, and `n / 16` random
/// chords may or may not reconnect them.
fn arb_multiword_graph() -> impl Strategy<Value = Graph> {
    (0..MULTIWORD_SIZES.len()).prop_flat_map(|size| {
        let n = MULTIWORD_SIZES[size];
        (
            proptest::collection::vec(1usize..=4, n - 1),
            0..2 * n,
            proptest::collection::vec((0..n, 0..n), n / 16),
        )
            .prop_map(move |(back, cut, chords)| {
                let mut edges = std::collections::BTreeSet::new();
                for v in (1..n).filter(|&v| v != cut) {
                    edges.insert((v - back[v - 1].min(v), v));
                }
                for (a, b) in chords.into_iter().filter(|(a, b)| a != b) {
                    edges.insert((a.min(b), a.max(b)));
                }
                Graph::from_edges(n, &edges.into_iter().collect::<Vec<_>>())
                    .expect("a set of distinct pairs is simple")
            })
    })
}

/// Strategy: a vertex count and an edge list for [`Graph::from_edges`] that
/// may repeat an edge in either orientation, hold self-loops or name a
/// vertex out of range. Each drawn edge `(u, u + step mod n)` carries a
/// tag: 0 pushes its second end out of range, 1 its first, 2 makes it a
/// self-loop, 3 repeats an earlier edge reversed, and any other tag keeps
/// it as drawn (a repeat when it was drawn before).
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..=12).prop_flat_map(|n| {
        let drawn = (0..n, 1..n, 0u8..40);
        (Just(n), proptest::collection::vec(drawn, 0..16)).prop_map(|(n, drawn)| {
            let mut edges: Vec<(usize, usize)> = Vec::with_capacity(drawn.len());
            for (u, step, tag) in drawn {
                let v = (u + step) % n;
                let edge = match tag {
                    0 => (u, n + v),
                    1 => (n + u, v),
                    2 => (u, u),
                    3 if !edges.is_empty() => {
                        let (a, b) = edges[step % edges.len()];
                        (b, a)
                    }
                    _ => (u, v),
                };
                edges.push(edge);
            }
            (n, edges)
        })
    })
}

/// The bit-parallel distance kernel against one BFS per vertex: the same
/// distance total and diameter on a connected graph, and `None` exactly
/// when some pair is unreachable.
fn check_distance_kernel_against_bfs(g: &Graph) {
    let oracle = bfs::all_pairs_distances(g);
    let expected = if oracle.contains(&bfs::UNREACHABLE) {
        None
    } else {
        let total = oracle.iter().map(|&d| u64::from(d)).sum::<u64>();
        Some((total, oracle.iter().copied().max().unwrap_or(0)))
    };
    assert_eq!(metrics::distance_sum_and_diameter(g), expected);
    assert_eq!(expected.is_some(), metrics::is_connected(g));
}

#[test]
fn edge_connectivity_degenerate_cases() {
    use chiplet_graph::resilience::edge_connectivity;
    // Fewer than two vertices: no cut exists at all.
    assert_eq!(edge_connectivity(&Graph::from_edges(0, &[]).unwrap()), None);
    assert_eq!(edge_connectivity(&Graph::from_edges(1, &[]).unwrap()), None);
    // Already disconnected: the empty cut suffices.
    assert_eq!(edge_connectivity(&Graph::from_edges(2, &[]).unwrap()), Some(0));
    let two_islands = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
    assert_eq!(edge_connectivity(&two_islands), Some(0));
    // An isolated vertex next to a clique still reads as disconnected.
    let stranded = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0)]).unwrap();
    assert_eq!(edge_connectivity(&stranded), Some(0));
}

proptest! {
    #[test]
    fn bfs_distance_is_symmetric(g in arb_graph()) {
        let n = g.num_vertices();
        let m = bfs::all_pairs_distances(&g);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(m[u * n + v], m[v * n + u]);
            }
        }
    }

    #[test]
    fn bfs_satisfies_triangle_inequality(g in arb_connected_graph()) {
        let n = g.num_vertices();
        let m = bfs::all_pairs_distances(&g);
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    prop_assert!(m[u * n + v] <= m[u * n + w] + m[w * n + v]);
                }
            }
        }
    }

    #[test]
    fn adjacent_vertices_have_distance_one(g in arb_graph()) {
        for (u, v) in g.edges() {
            let d = bfs::distances(&g, u);
            prop_assert_eq!(d[v], 1);
        }
    }

    #[test]
    fn diameter_equals_max_eccentricity(g in arb_connected_graph()) {
        let ecc = metrics::eccentricities(&g).expect("connected");
        let d = metrics::diameter(&g).expect("connected");
        prop_assert_eq!(d, ecc.into_iter().max().unwrap_or(0));
    }

    #[test]
    fn distance_kernel_matches_bfs(g in arb_graph()) {
        check_distance_kernel_against_bfs(&g);
    }

    #[test]
    fn from_edges_accepts_exactly_the_simple_in_range_lists((n, edges) in arb_edge_list()) {
        // The oracle: the first edge out of range or a self-loop, and the
        // normalised pairs that appear more than once.
        let bad = edges.iter().position(|&(u, v)| u >= n || v >= n || u == v);
        let mut seen = HashSet::new();
        let repeated: BTreeSet<(usize, usize)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).filter(|&e| !seen.insert(e)).collect();
        match Graph::from_edges(n, &edges) {
            Ok(g) => {
                prop_assert!(bad.is_none() && repeated.is_empty(), "{n} {edges:?} accepted");
                let mut expected: Vec<_> = seen.into_iter().collect();
                expected.sort_unstable();
                prop_assert_eq!(g.edges().collect::<Vec<_>>(), expected);
                prop_assert_eq!((g.num_vertices(), g.num_edges()), (n, edges.len()));
            }
            Err(GraphError::VertexOutOfRange { vertex, num_vertices }) => {
                let (u, v) = edges[bad.expect("a bad edge")];
                prop_assert_eq!(num_vertices, n);
                prop_assert_eq!(Some(vertex), [u, v].into_iter().find(|&w| w >= n));
            }
            Err(GraphError::SelfLoop(w)) => {
                prop_assert_eq!(edges[bad.expect("a bad edge")], (w, w));
                prop_assert!(w < n);
            }
            Err(GraphError::DuplicateEdge(u, v)) => {
                prop_assert!(bad.is_none(), "{edges:?}: duplicate reported before a bad edge");
                prop_assert_eq!(repeated.first(), Some(&(u, v)));
            }
        }
    }

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let total_degree: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total_degree, 2 * g.num_edges());
    }

    #[test]
    fn shortest_path_length_matches_distance(g in arb_connected_graph()) {
        let n = g.num_vertices();
        let target = n - 1;
        let d = bfs::distances(&g, 0);
        let p = bfs::shortest_path(&g, 0, target).expect("connected");
        prop_assert_eq!(p.len() as u32, d[target] + 1);
        for w in p.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn cut_size_bounded_by_edge_count(g in arb_graph(), cut_point in 0usize..24) {
        let n = g.num_vertices();
        let split = cut_point % (n + 1);
        let p = Bipartition::from_side_of(n, |v| if v < split { Side::A } else { Side::B });
        prop_assert!(p.cut_size(&g) <= g.num_edges());
    }

    #[test]
    fn flipping_all_vertices_preserves_cut(g in arb_graph()) {
        let n = g.num_vertices();
        let mut p = Bipartition::from_side_of(n, |v| if v % 2 == 0 { Side::A } else { Side::B });
        let before = p.cut_size(&g);
        for v in 0..n {
            p.flip(v);
        }
        prop_assert_eq!(p.cut_size(&g), before);
    }

    #[test]
    fn components_partition_vertices(g in arb_graph()) {
        let labels = metrics::connected_components(&g);
        prop_assert_eq!(labels.len(), g.num_vertices());
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u], labels[v]);
        }
    }

    #[test]
    fn connectivity_agrees_with_component_count(g in arb_graph()) {
        let labels = metrics::connected_components(&g);
        let count = labels.iter().copied().max().map_or(0, |m| m + 1);
        prop_assert_eq!(metrics::is_connected(&g), count <= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distance_kernel_matches_bfs_across_words(g in arb_multiword_graph()) {
        check_distance_kernel_against_bfs(&g);
    }

    #[test]
    fn removing_a_bridge_disconnects(g in arb_connected_graph()) {
        use chiplet_graph::resilience::bridges;
        for (u, v) in bridges(&g) {
            let pruned: Vec<(usize, usize)> = g
                .edges()
                .filter(|&(a, b)| (a.min(b), a.max(b)) != (u, v))
                .collect();
            let h = Graph::from_edges(g.num_vertices(), &pruned).expect("still simple");
            prop_assert!(!metrics::is_connected(&h), "bridge ({u},{v}) removal kept connectivity");
        }
    }

    #[test]
    fn removing_a_non_bridge_keeps_connectivity(g in arb_connected_graph()) {
        use chiplet_graph::resilience::bridges;
        let bridge_set: std::collections::HashSet<(usize, usize)> =
            bridges(&g).into_iter().collect();
        for (u, v) in g.edges() {
            let key = (u.min(v), u.max(v));
            if bridge_set.contains(&key) {
                continue;
            }
            let pruned: Vec<(usize, usize)> = g
                .edges()
                .filter(|&(a, b)| (a.min(b), a.max(b)) != key)
                .collect();
            let h = Graph::from_edges(g.num_vertices(), &pruned).expect("still simple");
            prop_assert!(metrics::is_connected(&h), "non-bridge ({u},{v}) removal disconnected");
        }
    }

    /// Stoer–Wagner agrees with exhaustive bipartition enumeration: on a
    /// small graph the global minimum edge cut is the minimum, over every
    /// proper vertex subset, of the number of crossing edges.
    #[test]
    fn edge_connectivity_matches_brute_force_min_cut(g in arb_small_graph()) {
        use chiplet_graph::resilience::edge_connectivity;
        let n = g.num_vertices();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let mut brute = usize::MAX;
        // Fixing vertex 0 on one side halves the symmetric enumeration;
        // mask 0 (empty subset) is the only non-proper case left.
        for mask in 1u32..(1 << (n - 1)) {
            let side = |v: usize| v != 0 && (mask >> (v - 1)) & 1 == 1;
            let crossing = edges.iter().filter(|&&(u, v)| side(u) != side(v)).count();
            brute = brute.min(crossing);
        }
        prop_assert_eq!(edge_connectivity(&g), Some(brute));
    }

    #[test]
    fn edge_connectivity_bounds(g in arb_connected_graph()) {
        use chiplet_graph::resilience::{bridges, edge_connectivity};
        let n = g.num_vertices();
        if n < 2 {
            return Ok(());
        }
        let k = edge_connectivity(&g).expect("n >= 2");
        let min_degree = (0..n).map(|v| g.degree(v)).min().unwrap();
        prop_assert!(k <= min_degree, "k {k} > min degree {min_degree}");
        prop_assert!(k >= 1, "connected graph with zero connectivity");
        // k == 1 exactly when a bridge exists.
        prop_assert_eq!(k == 1, !bridges(&g).is_empty());
    }

    #[test]
    fn articulation_points_disconnect_when_removed(g in arb_connected_graph()) {
        use chiplet_graph::resilience::articulation_points;
        let n = g.num_vertices();
        if n < 3 {
            return Ok(());
        }
        for cut in articulation_points(&g) {
            // Re-index the graph without `cut` and check connectivity.
            let mapped: Vec<(usize, usize)> = g
                .edges()
                .filter(|&(a, b)| a != cut && b != cut)
                .map(|(a, b)| {
                    let shift = |x: usize| if x > cut { x - 1 } else { x };
                    (shift(a), shift(b))
                })
                .collect();
            let h = Graph::from_edges(n - 1, &mapped).expect("still simple");
            prop_assert!(
                !metrics::is_connected(&h),
                "removing articulation point {cut} kept connectivity"
            );
        }
    }
}
