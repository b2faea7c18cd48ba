//! Helpers shared by the study stages: competition ranking and the
//! Fig. 6 proxy sweep.

use chiplet_partition::BisectionConfig;
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh::proxies;

/// Competition ranking ("1224"): ranks `values` ascending — lower is
/// better — with exact ties sharing the better rank. Ties are routine,
/// not hypothetical: brickwall and honeycomb realise the same graph, so
/// the comparison stages share this one implementation to keep tie
/// handling uniform.
#[must_use]
pub fn competition_rank(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut rank = vec![0usize; values.len()];
    for (place, &idx) in order.iter().enumerate() {
        let tied = place > 0 && values[order[place - 1]] == values[idx];
        rank[idx] = if tied { rank[order[place - 1]] } else { place + 1 };
    }
    rank
}

/// One row of the Fig. 6 proxy sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyPoint {
    /// Arrangement family.
    pub kind: ArrangementKind,
    /// Regularity used at this `n`.
    pub regularity: hexamesh::Regularity,
    /// Chiplet count.
    pub n: usize,
    /// Diameter measured on the constructed graph.
    pub diameter: u32,
    /// Bisection bandwidth following the paper's methodology (formula for
    /// regular, partitioner otherwise).
    pub bisection: f64,
}

/// Computes the Fig. 6 proxies for all chiplet counts in `ns`, for every
/// kind in `kinds` (n-major, kinds inner — the figure's row order).
#[must_use]
pub fn proxy_sweep_over(kinds: &[ArrangementKind], ns: &[usize]) -> Vec<ProxyPoint> {
    let config = BisectionConfig::default();
    let mut out = Vec::new();
    for &n in ns {
        for &kind in kinds {
            let a = Arrangement::build(kind, n).expect("n >= 1 always builds");
            out.push(ProxyPoint {
                kind,
                regularity: a.regularity(),
                n,
                diameter: proxies::measured_diameter(&a).expect("connected"),
                bisection: proxies::paper_bisection(&a, &config),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_sweep_covers_all_kinds() {
        let points = proxy_sweep_over(&ArrangementKind::EVALUATED, &[7, 16]);
        assert_eq!(points.len(), 6);
        // HexaMesh at n=7 is regular with diameter 2 and bisection 5.
        let hm7 =
            points.iter().find(|p| p.kind == ArrangementKind::HexaMesh && p.n == 7).unwrap();
        assert_eq!(hm7.diameter, 2);
        assert_eq!(hm7.bisection, 5.0);
    }

    #[test]
    fn competition_rank_shares_tied_ranks() {
        assert_eq!(competition_rank(&[3.0, 1.0, 2.0]), vec![3, 1, 2]);
        // "1224": both middle values share rank 2, the next rank is 4.
        assert_eq!(competition_rank(&[1.0, 2.0, 2.0, 5.0]), vec![1, 2, 2, 4]);
        assert_eq!(competition_rank(&[]), Vec::<usize>::new());
    }
}
