//! Coordinate-derived seeds for experiment cells.
//!
//! A study stage lists its *cells* — one table row's coordinates, for
//! example (kind, n, rate, pattern) — and [`crate::Campaign::run_cells`]
//! runs `--seeds K` replicates of each. A replicate's RNG seed comes from
//! [`crate::seed::derive_seed`] over the cell's *seed words* plus the
//! replicate index ([`expand_replicates`]), so it is independent of cell
//! order, worker count, and the presence of other cells.
//!
//! # Axis evolution rule
//!
//! The standard seed words ([`point_coords`]) are a compatibility
//! contract. The first grid shipped five words — `[kind, n, rate bits,
//! pattern, replicate]` — and every result ever produced is keyed on
//! seeds derived from them, so growing the grid must never re-derive
//! them. The rule, introduced when the workload axis landed (PR 3) and
//! binding for **every** future axis:
//!
//! 1. a new axis is *optional*: its neutral value (`None`) contributes
//!    **no** seed word;
//! 2. when the axis is used, its word is appended **between the pattern
//!    word and the replicate word**, after any earlier optional axes'
//!    words (insertion order = the order the axes were added to the
//!    engine, never alphabetical or struct order);
//! 3. existing coordinate codes ([`kind_code`], [`pattern_code`],
//!    `WorkloadKind::code`) are append-only — a code, once shipped, is
//!    never renumbered or reused.
//!
//! Consequence, pinned by `optional_axis_rule_keeps_unused_seeds_fixed`
//! below: a point that leaves every optional axis at its neutral value
//! derives exactly the historical five-word seeds, whatever optional axes
//! the engine has since grown.
//!
//! Two optional axes exist today, in insertion order: the **workload**
//! axis (PR 3) and the **router-model** axis. A used router coordinate
//! ([`nocsim::RouterModelKind::code`], append-only like every other
//! code) is therefore appended *after* the workload word (when that is
//! used) and immediately before the replicate word; a point on the
//! default router model appends nothing and keeps its historical seeds.

use chiplet_workload::WorkloadKind;
use hexamesh::arrangement::ArrangementKind;
use nocsim::{RouterModelKind, TrafficPattern};

use crate::seed::derive_seed;

/// The standard seed words of one grid point: `[kind, n, rate bits,
/// pattern]`, then the workload word and the router word when those
/// optional axes are set (the module-level axis evolution rule). `rate:
/// None` marks a point whose runner picks rates itself (a saturation
/// search) and encodes as `u64::MAX`. `kind_code` is [`kind_code`] of a
/// fixed family, or [`OPTIMIZED_KIND_CODE`] for a searched arrangement.
#[must_use]
pub fn point_coords(
    kind_code: u64,
    n: usize,
    rate: Option<f64>,
    pattern: TrafficPattern,
    workload: Option<WorkloadKind>,
    router: Option<RouterModelKind>,
) -> Vec<u64> {
    let mut coords =
        vec![kind_code, n as u64, rate.map_or(u64::MAX, f64::to_bits), pattern_code(pattern)];
    coords.extend(workload.map(WorkloadKind::code));
    coords.extend(router.map(RouterModelKind::code));
    coords
}

/// Expands `cells` into `seeds` replicate jobs per cell, each with a seed
/// derived from the campaign seed, the cell's seed words (`coords`), and
/// the replicate index — from coordinates, never from list position.
/// Replicates of one cell are adjacent, in replicate order.
pub fn expand_replicates<C: Clone>(
    cells: &[C],
    seeds: u64,
    campaign_seed: u64,
    coords: impl Fn(&C) -> Vec<u64>,
) -> Vec<(C, u64)> {
    let seeds = seeds.max(1);
    let mut out = Vec::with_capacity(cells.len() * seeds as usize);
    for cell in cells {
        let mut c = coords(cell);
        for replicate in 0..seeds {
            c.push(replicate);
            out.push((cell.clone(), derive_seed(campaign_seed, &c)));
            c.pop();
        }
    }
    out
}

/// Stable coordinate code of an arrangement kind (presentation order of
/// [`ArrangementKind::ALL`]). Append-only: codes are never renumbered
/// (see the module-level axis evolution rule); code 4 is reserved for
/// searched (`OPT`) arrangements ([`OPTIMIZED_KIND_CODE`]).
#[must_use]
pub fn kind_code(kind: ArrangementKind) -> u64 {
    match kind {
        ArrangementKind::Grid => 0,
        ArrangementKind::Honeycomb => 1,
        ArrangementKind::Brickwall => 2,
        ArrangementKind::HexaMesh => 3,
    }
}

/// The kind-coordinate code of a search-discovered (`OPT`) arrangement —
/// outside [`ArrangementKind`], used by study flows that add optimized
/// rows next to the fixed families. Reserved here so no future kind can
/// collide with it.
pub const OPTIMIZED_KIND_CODE: u64 = 4;

/// Stable coordinate code of a traffic pattern, folding in its parameters
/// so that differently-parameterised hotspots get distinct seeds.
/// Append-only, like [`kind_code`].
#[must_use]
pub fn pattern_code(pattern: TrafficPattern) -> u64 {
    match pattern {
        TrafficPattern::UniformRandom => 0,
        TrafficPattern::Complement => 1,
        TrafficPattern::NeighborShift { shift } => 2 | ((shift as u64) << 8),
        TrafficPattern::BitComplement => 3,
        TrafficPattern::BitReverse => 4,
        TrafficPattern::Tornado => 5,
        TrafficPattern::Hotspot { num_hotspots, fraction_permille } => {
            6 | ((num_hotspots as u64) << 8) | (u64::from(fraction_permille) << 32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ArrangementKind::{Brickwall, Grid, HexaMesh};
    use TrafficPattern::{Tornado, UniformRandom};

    type Point = (
        ArrangementKind,
        usize,
        Option<f64>,
        TrafficPattern,
        Option<WorkloadKind>,
        Option<RouterModelKind>,
    );

    /// An open-loop point on the default router.
    fn open(
        kind: ArrangementKind,
        n: usize,
        rate: Option<f64>,
        pattern: TrafficPattern,
    ) -> Point {
        (kind, n, rate, pattern, None, None)
    }

    fn coords(&(kind, n, rate, pattern, workload, router): &Point) -> Vec<u64> {
        point_coords(kind_code(kind), n, rate, pattern, workload, router)
    }

    /// Replicate seeds of `points`, `k` per point, in expansion order.
    fn seeds(points: &[Point], k: u64, campaign_seed: u64) -> Vec<u64> {
        expand_replicates(points, k, campaign_seed, coords)
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    }

    fn assert_distinct(seeds: &[u64], what: &str) {
        let mut sorted = seeds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "{what}: seed collision");
    }

    #[test]
    fn neutral_points_keep_the_historical_five_words() {
        // kind, n, rate bits, pattern — then the replicate word.
        assert_eq!(coords(&open(Grid, 9, None, UniformRandom)), [0, 9, u64::MAX, 0]);
        let seeds = seeds(&[open(Grid, 9, None, UniformRandom)], 1, 42);
        assert_eq!(seeds, [derive_seed(42, &[0, 9, u64::MAX, 0, 0])]);
    }

    #[test]
    fn optional_axis_rule_keeps_unused_seeds_fixed() {
        // The axis evolution rule (module docs): a neutral point derives
        // exactly the historical five-word seeds, and a used optional
        // axis appends its word between the pattern and replicate words,
        // workload first, then router.
        let (w, r) = (WorkloadKind::Stencil, RouterModelKind::Fortified);
        for (kind, n) in [(Grid, 4), (HexaMesh, 9)] {
            let base = [kind_code(kind), n as u64, 0.1f64.to_bits(), pattern_code(Tornado)];
            let neutral = open(kind, n, Some(0.1), Tornado);
            let closed = (kind, n, Some(0.1), Tornado, Some(w), None);
            let both = (kind, n, Some(0.1), Tornado, Some(w), Some(r));
            for replicate in 0..2 {
                let at = |point: &Point| seeds(&[*point], 2, 99)[replicate as usize];
                let words = |extra: &[u64]| [&base[..], extra, &[replicate]].concat();
                assert_eq!(at(&neutral), derive_seed(99, &words(&[])));
                assert_eq!(at(&closed), derive_seed(99, &words(&[w.code()])));
                assert_eq!(at(&both), derive_seed(99, &words(&[w.code(), r.code()])));
            }
        }
    }

    #[test]
    fn an_explicit_baseline_router_is_a_seed_word() {
        // Sweeping the router axis is not the same grid point as leaving
        // it neutral, even at the default model.
        let neutral = open(Grid, 37, None, UniformRandom);
        let baseline = (Grid, 37, None, UniformRandom, None, Some(RouterModelKind::Baseline));
        assert_eq!(
            coords(&baseline),
            [&coords(&neutral)[..], &[RouterModelKind::Baseline.code()]].concat()
        );
        assert_ne!(seeds(&[neutral], 1, 5), seeds(&[baseline], 1, 5));
    }

    #[test]
    fn seeds_are_coordinate_stable() {
        // Growing the grid must not move existing points' seeds.
        let small = [open(Grid, 4, None, UniformRandom)];
        let mut wide = Vec::new();
        for kind in [Brickwall, Grid] {
            for n in [16, 9, 4] {
                wide.push(open(kind, n, None, UniformRandom));
            }
        }
        let at = wide.iter().position(|p| *p == small[0]).unwrap();
        assert_eq!(seeds(&small, 2, 42), seeds(&wide, 4, 42)[at * 4..at * 4 + 2]);
    }

    #[test]
    fn expand_replicates_is_coordinate_stable() {
        let jobs = vec![(0u64, 10u64), (1, 20)];
        let a = expand_replicates(&jobs, 2, 7, |&(x, y)| vec![x, y]);
        assert_eq!(a.len(), 4);
        // Replicates adjacent, distinct seeds.
        assert_eq!(a[0].0, jobs[0]);
        assert_eq!(a[1].0, jobs[0]);
        assert_ne!(a[0].1, a[1].1);
        // Seeds depend on coordinates, not list position: prepending a job
        // leaves existing seeds unchanged.
        let wider = expand_replicates(&[(9, 90), jobs[0], jobs[1]], 2, 7, |&(x, y)| vec![x, y]);
        assert_eq!(wider[2].1, a[0].1);
        assert_eq!(wider[4].1, a[2].1);
    }

    #[test]
    fn campaign_seed_changes_every_job_seed() {
        let points = [open(Grid, 4, None, UniformRandom), open(Grid, 9, None, UniformRandom)];
        for (x, y) in seeds(&points, 2, 1).iter().zip(seeds(&points, 2, 2)) {
            assert_ne!(*x, y);
        }
    }

    #[test]
    fn every_axis_gives_distinct_seeds() {
        let mut points = Vec::new();
        for kind in ArrangementKind::EVALUATED {
            for n in 2..=9 {
                for rate in [0.1, 0.2, 0.3] {
                    for pattern in [
                        UniformRandom,
                        Tornado,
                        TrafficPattern::Hotspot { num_hotspots: 1, fraction_permille: 500 },
                        TrafficPattern::Hotspot { num_hotspots: 2, fraction_permille: 500 },
                    ] {
                        points.push(open(kind, n, Some(rate), pattern));
                    }
                }
            }
        }
        assert_distinct(&seeds(&points, 3, 7), "kind x n x rate x pattern");
    }

    #[test]
    fn workload_words_give_distinct_seeds() {
        let mut points = Vec::new();
        for kind in [Grid, HexaMesh] {
            for w in [WorkloadKind::RingAllReduce, WorkloadKind::Stencil] {
                points.push((kind, 37, None, UniformRandom, Some(w), None));
            }
        }
        assert_distinct(&seeds(&points, 2, 5), "workload axis");
    }

    #[test]
    fn router_words_give_distinct_seeds() {
        // Checked apart from the workload words: a workload-only and a
        // router-only point with equal codes share seed words by design.
        let mut points = Vec::new();
        for kind in [Grid, HexaMesh] {
            for r in [RouterModelKind::Baseline, RouterModelKind::Bubble] {
                points.push((kind, 37, None, UniformRandom, None, Some(r)));
            }
        }
        points.push(open(Grid, 37, None, UniformRandom));
        assert_distinct(&seeds(&points, 2, 5), "router axis");
    }

    #[test]
    fn optimized_kind_code_stays_clear_of_real_kinds() {
        for kind in ArrangementKind::ALL {
            assert_ne!(kind_code(kind), OPTIMIZED_KIND_CODE);
        }
    }
}
