//! Simulated annealing with a greedy tail over [`SearchState`] moves.
//!
//! One annealing run is a pure function of `(initial state, config,
//! seed)`: every random decision comes from the caller's `StdRng`, so two
//! runs with the same inputs are bit-identical — the property the
//! restart-level parallelism of [`mod@crate::search`] relies on.

use rand::rngs::StdRng;
use rand::Rng;

use crate::objective::{cheap_score, ProxyWeights};
use crate::state::{Move, SearchState};

/// Schedule of one annealing restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Metropolis iterations with the geometric temperature schedule.
    pub iterations: usize,
    /// Greedy tail iterations (temperature zero: only improvements are
    /// accepted) — the "greedy local moves" polish after annealing.
    pub greedy_iterations: usize,
    /// Starting temperature (in cheap-score units).
    pub t0: f64,
    /// Final temperature of the annealing phase.
    pub t1: f64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self { iterations: 3_000, greedy_iterations: 1_000, t0: 1.0, t1: 0.01 }
    }
}

impl AnnealConfig {
    /// A reduced schedule for smoke runs and CI (`--quick`).
    #[must_use]
    pub fn quick() -> Self {
        Self { iterations: 400, greedy_iterations: 200, ..Self::default() }
    }
}

/// Proposal/acceptance counters of one annealing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnealStats {
    /// Moves proposed.
    pub proposed: usize,
    /// Moves rejected because they violated an invariant (overlap,
    /// disconnection, out-of-range, or no-op).
    pub invalid: usize,
    /// Moves accepted by the Metropolis criterion (including greedy-tail
    /// improvements).
    pub accepted: usize,
    /// Times a new best-so-far cheap score was recorded.
    pub improved: usize,
}

/// Outcome of one annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealOutcome {
    /// Best state visited, by cheap score.
    pub best: SearchState,
    /// Cheap score of `best`.
    pub best_cheap: f64,
    /// The state the run ended in (often, but not always, `best`).
    pub final_state: SearchState,
    /// Proposal/acceptance counters.
    pub stats: AnnealStats,
}

/// Anneals `state` under `config`, returning the best-visited and final
/// states. The input state must be connected with at least two tiles
/// (guaranteed by the [`crate::state`] constructors), otherwise `None`.
#[must_use]
pub fn anneal(
    state: &SearchState,
    config: &AnnealConfig,
    weights: &ProxyWeights,
    rng: &mut StdRng,
) -> Option<AnnealOutcome> {
    let mut current_state = state.clone();
    let mut current_graph = current_state.graph();
    let mut current = cheap_score(&current_graph, weights)?;
    let mut best = current;
    let mut best_state = current_state.clone();
    let mut stats = AnnealStats::default();

    let total = config.iterations + config.greedy_iterations;
    for k in 0..total {
        let temperature = if k < config.iterations && config.iterations > 1 {
            let progress = k as f64 / (config.iterations - 1) as f64;
            config.t0 * (config.t1 / config.t0).powf(progress)
        } else {
            0.0
        };
        stats.proposed += 1;
        let mv = propose(&current_state, rng);
        let Some(applied) = current_state.try_move(&mv, &current_graph) else {
            stats.invalid += 1;
            continue;
        };
        let Some(score) = cheap_score(&applied.graph, weights) else {
            // Unreachable (try_move guarantees connectivity), kept defensive.
            current_state.undo(applied);
            stats.invalid += 1;
            continue;
        };
        let accept = score <= current
            || (temperature > 0.0
                && rng.gen_bool(((current - score) / temperature).exp().clamp(0.0, 1.0)));
        if accept {
            stats.accepted += 1;
            current = score;
            if current < best {
                best = current;
                best_state = current_state.clone();
                stats.improved += 1;
            }
            current_graph = applied.graph;
        } else {
            current_state.undo(applied);
        }
    }
    Some(AnnealOutcome {
        best: best_state,
        best_cheap: best,
        final_state: current_state,
        stats,
    })
}

/// Samples one move: mostly relocations (they reshape the floorplan), with
/// rotations and orientation swaps mixed in.
fn propose(state: &SearchState, rng: &mut StdRng) -> Move {
    let n = state.len();
    debug_assert!(n >= 2);
    match rng.gen_range(0..10u32) {
        0..=5 => {
            let i = rng.gen_range(0..n);
            let anchor = other_index(i, n, rng);
            let slot = rng.gen_range(0..state.relocate_slot_count(i, anchor));
            Move::Relocate { i, anchor, slot }
        }
        6 | 7 => Move::Rotate { i: rng.gen_range(0..n) },
        _ => {
            let i = rng.gen_range(0..n);
            Move::Swap { i, j: other_index(i, n, rng) }
        }
    }
}

/// A uniform index in `0..n` different from `i` (`n ≥ 2`).
fn other_index(i: usize, n: usize, rng: &mut StdRng) -> usize {
    let j = rng.gen_range(0..n - 1);
    if j >= i {
        j + 1
    } else {
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(seed: u64) -> AnnealOutcome {
        let init = SearchState::aligned_grid(16).unwrap();
        let config =
            AnnealConfig { iterations: 300, greedy_iterations: 100, ..AnnealConfig::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        anneal(&init, &config, &ProxyWeights::default(), &mut rng).unwrap()
    }

    #[test]
    fn anneal_is_deterministic_given_seed() {
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn different_seeds_explore_differently() {
        // Not guaranteed in principle, overwhelmingly likely in practice.
        assert_ne!(run(1).stats, run(2).stats);
    }

    #[test]
    fn best_never_worse_than_initial() {
        let init = SearchState::aligned_grid(16).unwrap();
        let initial_cheap = cheap_score(&init.graph(), &ProxyWeights::default()).unwrap();
        let out = run(7);
        assert!(out.best_cheap <= initial_cheap);
        assert!(out.best.is_overlap_free() && out.best.is_connected());
        assert!(out.final_state.is_overlap_free() && out.final_state.is_connected());
    }

    #[test]
    fn greedy_tail_only_improves() {
        // A pure greedy run (no hot phase) must end with best == final.
        let init = SearchState::aligned_grid(12).unwrap();
        let config =
            AnnealConfig { iterations: 0, greedy_iterations: 200, ..AnnealConfig::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let out = anneal(&init, &config, &ProxyWeights::default(), &mut rng).unwrap();
        assert_eq!(
            out.best_cheap,
            cheap_score(&out.final_state.graph(), &ProxyWeights::default()).unwrap()
        );
    }
}
