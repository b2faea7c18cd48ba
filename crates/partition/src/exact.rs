//! Exact minimum balanced bisection by subset enumeration.
//!
//! For `n ≤ ~20` vertices we can afford to enumerate every balanced subset
//! containing vertex 0 (fixing vertex 0 removes the A/B symmetry):
//! `C(n−1, ⌊n/2⌋−1)` candidates, ≈ 92k at `n = 20`. This is the ground truth
//! the multilevel heuristic is validated against.

use chiplet_graph::cut::{Bipartition, Side};
use chiplet_graph::Graph;

use crate::balance_tolerance;

/// Exhaustively finds a minimum balanced bisection of `g`.
///
/// Balance: part sizes differ by at most `n % 2`. For odd `n` both
/// `⌈n/2⌉ / ⌊n/2⌋` splits are considered.
///
/// Returns the optimal partition and its cut size.
///
/// # Panics
///
/// Panics if `g` is empty (callers check; see [`crate::bisect`]) or has more
/// than 63 vertices (bitmask representation).
#[must_use]
pub fn exact_bisection(g: &Graph) -> (Bipartition, usize) {
    let n = g.num_vertices();
    assert!(n >= 1, "exact_bisection requires a non-empty graph");
    assert!(n <= 63, "exact_bisection is limited to 63 vertices");

    if n == 1 {
        return (Bipartition::from_sides(vec![Side::A]), 0);
    }

    let tolerance = balance_tolerance(n);
    // Sizes of part A (which contains vertex 0) compatible with balance.
    let low = (n - tolerance) / 2;
    let high = (n + tolerance) / 2;

    // Precompute neighbour bitmasks.
    let masks: Vec<u64> = g
        .vertices()
        .map(|v| {
            let mut m = 0u64;
            for &u in g.neighbors(v) {
                m |= 1 << u;
            }
            m
        })
        .collect();

    let mut best_mask = 1u64; // vertex 0 alone (may be out of balance range)
    let mut best_cut = usize::MAX;

    for size_a in low..=high.min(n) {
        if size_a == 0 {
            continue;
        }
        // Enumerate subsets of {1..n-1} of size size_a - 1, always adding
        // vertex 0, via Gosper's hack over (n-1)-bit words.
        let k = size_a - 1;
        enumerate_k_subsets(n - 1, k, |subset| {
            let mask = (subset << 1) | 1;
            let cut = cut_of_mask(g, &masks, mask);
            if cut < best_cut {
                best_cut = cut;
                best_mask = mask;
            }
        });
    }

    let partition =
        Bipartition::from_side_of(
            n,
            |v| {
                if best_mask >> v & 1 == 1 {
                    Side::A
                } else {
                    Side::B
                }
            },
        );
    debug_assert!(partition.is_balanced(tolerance));
    (partition, best_cut)
}

/// Calls `f` for every `bits`-bit word with exactly `k` bits set.
fn enumerate_k_subsets<F: FnMut(u64)>(bits: usize, k: usize, mut f: F) {
    if k == 0 {
        f(0);
        return;
    }
    if k > bits {
        return;
    }
    let limit = 1u64 << bits;
    let mut word: u64 = (1 << k) - 1;
    while word < limit {
        f(word);
        // Gosper's hack: next word with the same popcount.
        let c = word & word.wrapping_neg();
        let r = word + c;
        word = (((r ^ word) >> 2) / c) | r;
    }
}

/// Cut size of the bipartition encoded by `mask` (bit set ⇒ side A).
fn cut_of_mask(g: &Graph, masks: &[u64], mask: u64) -> usize {
    let mut cut = 0;
    for v in g.vertices() {
        if mask >> v & 1 == 1 {
            // Count neighbours on side B; each crossing edge counted once
            // because we only look from side A.
            cut += (masks[v] & !mask).count_ones() as usize;
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;

    #[test]
    fn single_vertex() {
        let g = chiplet_graph::Graph::from_edges(1, &[]).unwrap();
        let (p, cut) = exact_bisection(&g);
        assert_eq!(cut, 0);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn path_graphs_cut_one() {
        for n in 2..=10usize {
            let (p, cut) = exact_bisection(&gen::path(n));
            assert_eq!(cut, 1, "path {n}");
            assert!(p.is_balanced(n % 2));
        }
    }

    #[test]
    fn even_cycles_cut_two() {
        for n in [4usize, 6, 8, 10, 12] {
            let (_, cut) = exact_bisection(&gen::cycle(n));
            assert_eq!(cut, 2, "cycle {n}");
        }
    }

    #[test]
    fn complete_graph_quarter_square() {
        // K_n balanced cut = ceil(n/2) * floor(n/2).
        for n in 2..=9usize {
            let (_, cut) = exact_bisection(&gen::complete(n));
            assert_eq!(cut, n.div_ceil(2) * (n / 2), "K_{n}");
        }
    }

    #[test]
    fn even_grids_match_sqrt_formula() {
        for k in [2usize, 4] {
            let (_, cut) = exact_bisection(&gen::grid(k, k));
            assert_eq!(cut, k);
        }
    }

    #[test]
    fn odd_grid_3x3() {
        // Known: min balanced (4/5) cut of the 3x3 mesh is 4 — above the
        // idealised sqrt(N)=3 of the paper's even-case formula.
        let (_, cut) = exact_bisection(&gen::grid(3, 3));
        assert_eq!(cut, 4);
    }

    #[test]
    fn star_graph_cut() {
        // Star with centre + 2k-1 leaves: balanced cut puts half the leaves
        // on the far side => cut = floor(n/2) for n even, where n = leaves+1.
        let g = gen::star(7); // 8 vertices
        let (_, cut) = exact_bisection(&g);
        assert_eq!(cut, 4);
    }

    #[test]
    fn disconnected_components_zero_cut() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (3, 4), (3, 5)]).unwrap();
        let (p, cut) = exact_bisection(&g);
        assert_eq!(cut, 0);
        assert!(p.is_balanced(0));
    }

    #[test]
    fn enumerate_counts_binomials() {
        let mut count = 0;
        enumerate_k_subsets(6, 3, |_| count += 1);
        assert_eq!(count, 20); // C(6,3)

        let mut count = 0;
        enumerate_k_subsets(5, 0, |w| {
            assert_eq!(w, 0);
            count += 1;
        });
        assert_eq!(count, 1);

        let mut count = 0;
        enumerate_k_subsets(3, 5, |_| count += 1);
        assert_eq!(count, 0); // k > bits
    }
}
