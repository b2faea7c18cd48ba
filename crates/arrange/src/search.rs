//! Restart-parallel arrangement search.
//!
//! A search runs `restarts` independent annealing restarts. Three restarts
//! are seeded from the fixed arrangements that have rectangle placements
//! (HexaMesh, brickwall, aligned grid) — which guarantees the best found
//! custom arrangement scores **no worse than the best fixed placement** —
//! and the rest start from random compact accretions. Restarts are
//! independent jobs on the `xp` worker pool with coordinate-derived seeds,
//! so the outcome is bit-identical for any worker count.

use chiplet_partition::BisectionConfig;
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xp::pool;
use xp::seed::derive_seed;

use crate::anneal::{anneal, AnnealConfig, AnnealStats};
use crate::objective::{full_score, ProxyScore, ProxyWeights};
use crate::state::SearchState;
use crate::ArrangeError;

/// How a restart's initial state was constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitKind {
    /// Seeded from the HexaMesh placement of `n` chiplets.
    HexaMesh,
    /// Seeded from the brickwall placement.
    Brickwall,
    /// Seeded from the aligned-rows grid.
    Grid,
    /// Random compact accretion.
    Random,
}

impl InitKind {
    /// Lower-case name for CSV/JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InitKind::HexaMesh => "hexamesh",
            InitKind::Brickwall => "brickwall",
            InitKind::Grid => "grid",
            InitKind::Random => "random",
        }
    }

    /// The init of restart `index`: the three fixed seeds first, then
    /// random accretions.
    #[must_use]
    pub fn for_restart(index: usize) -> Self {
        match index {
            0 => InitKind::HexaMesh,
            1 => InitKind::Brickwall,
            2 => InitKind::Grid,
            _ => InitKind::Random,
        }
    }
}

/// Configuration of one arrangement search.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive] // construct via new()/quick() and mutate
pub struct SearchConfig {
    /// Chiplet count (`≥ 2`).
    pub n: usize,
    /// Independent annealing restarts (the first three are seeded from
    /// fixed arrangements; see [`InitKind::for_restart`]).
    pub restarts: usize,
    /// Annealing schedule of each restart.
    pub anneal: AnnealConfig,
    /// Objective weights.
    pub weights: ProxyWeights,
    /// Partitioner settings for the bisection term of the full score.
    pub bisection: BisectionConfig,
    /// Master seed; each restart derives its own seed from `(n, restart)`
    /// coordinates, so growing `restarts` never moves existing restarts'
    /// results.
    pub seed: u64,
    /// Worker threads for the restart pool.
    pub workers: usize,
}

impl SearchConfig {
    /// The default search for `n` chiplets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            restarts: 8,
            anneal: AnnealConfig::default(),
            weights: ProxyWeights::default(),
            bisection: BisectionConfig::default(),
            seed: 0xA12A_46E5,
            workers: 1,
        }
    }

    /// A reduced search for smoke runs and CI.
    #[must_use]
    pub fn quick(n: usize) -> Self {
        Self { restarts: 4, anneal: AnnealConfig::quick(), ..Self::new(n) }
    }
}

/// The best arrangement one restart produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Restart index.
    pub restart: usize,
    /// How the restart was initialised.
    pub init: InitKind,
    /// The arrangement, in canonical form (origin-anchored, row-major).
    pub state: SearchState,
    /// Full proxy score of `state`.
    pub score: ProxyScore,
    /// Annealing counters of the restart.
    pub stats: AnnealStats,
}

/// Outcome of a search: every restart's candidate, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Candidates sorted by `(score.value, restart)` — `candidates[0]` is
    /// the optimized arrangement.
    pub candidates: Vec<Candidate>,
}

impl SearchOutcome {
    /// The winning candidate.
    #[must_use]
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }
}

/// Runs the search described by `config`.
///
/// # Errors
///
/// [`ArrangeError::TooFewChiplets`] for `n < 2`; construction errors from
/// the seeded initial states are propagated (they indicate a bug, not bad
/// input, for `n ≥ 2`).
pub fn search(config: &SearchConfig) -> Result<SearchOutcome, ArrangeError> {
    if config.n < 2 {
        return Err(ArrangeError::TooFewChiplets(config.n));
    }
    let restarts: Vec<usize> = (0..config.restarts.max(1)).collect();
    let results = pool::run_jobs(
        &restarts,
        config.workers,
        |_| 1,
        |&restart| run_restart(config, restart),
        None,
    );
    let mut candidates = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    candidates.sort_by(|a, b| {
        a.score.value.total_cmp(&b.score.value).then(a.restart.cmp(&b.restart))
    });
    Ok(SearchOutcome { candidates })
}

/// One restart: build the initial state, anneal, archive `{initial, best,
/// final}` in canonical form, and keep the one with the best full score.
fn run_restart(config: &SearchConfig, restart: usize) -> Result<Candidate, ArrangeError> {
    let seed = derive_seed(config.seed, &[config.n as u64, restart as u64]);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = InitKind::for_restart(restart);
    let initial = initial_state(config.n, init, &mut rng)?;
    let outcome = anneal(&initial, &config.anneal, &config.weights, &mut rng)
        .ok_or(ArrangeError::Disconnected)?;

    // Archive in canonical form and score with the full (bisection-
    // weighted) objective; the initial state is always in the archive, so
    // a fixed-seeded restart can never end up worse than its seed.
    let mut archive: Vec<SearchState> = Vec::with_capacity(3);
    for state in
        [initial.canonical(), outcome.best.canonical(), outcome.final_state.canonical()]
    {
        if !archive.contains(&state) {
            archive.push(state);
        }
    }
    let mut best: Option<(SearchState, ProxyScore)> = None;
    for state in archive {
        let score = full_score(&state.graph(), &config.weights, &config.bisection)
            .ok_or(ArrangeError::Disconnected)?;
        if best.as_ref().is_none_or(|(_, s)| score.value < s.value) {
            best = Some((state, score));
        }
    }
    let (state, score) = best.expect("archive is non-empty");
    Ok(Candidate { restart, init, state, score, stats: outcome.stats })
}

/// The initial state of a restart.
fn initial_state(
    n: usize,
    init: InitKind,
    rng: &mut StdRng,
) -> Result<SearchState, ArrangeError> {
    match init {
        InitKind::HexaMesh => seeded_from(ArrangementKind::HexaMesh, n),
        InitKind::Brickwall => seeded_from(ArrangementKind::Brickwall, n),
        InitKind::Grid => SearchState::aligned_grid(n),
        InitKind::Random => SearchState::random_compact(n, rng),
    }
}

/// Seeds a state from a fixed arrangement's placement.
fn seeded_from(kind: ArrangementKind, n: usize) -> Result<SearchState, ArrangeError> {
    let unavailable = ArrangeError::SeedUnavailable { kind: kind.label(), n };
    let arrangement = Arrangement::build(kind, n).map_err(|_| unavailable.clone())?;
    let placement = arrangement.placement().ok_or(unavailable)?;
    SearchState::from_placement(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::full_score;

    fn tiny_config(n: usize) -> SearchConfig {
        let mut c = SearchConfig::quick(n);
        c.anneal.iterations = 150;
        c.anneal.greedy_iterations = 50;
        c
    }

    #[test]
    fn search_result_is_worker_count_invariant() {
        let mut a = tiny_config(19);
        a.workers = 1;
        let mut b = tiny_config(19);
        b.workers = 8;
        assert_eq!(search(&a).unwrap(), search(&b).unwrap());
    }

    #[test]
    fn optimized_no_worse_than_fixed_seeds() {
        let config = tiny_config(19);
        let outcome = search(&config).unwrap();
        let best = outcome.best();
        for kind in [ArrangementKind::HexaMesh, ArrangementKind::Brickwall] {
            let fixed = Arrangement::build(kind, 19).unwrap();
            let fixed_score =
                full_score(fixed.graph(), &config.weights, &config.bisection).unwrap();
            assert!(
                best.score.value <= fixed_score.value + 1e-12,
                "optimized {} !<= {kind} {}",
                best.score.value,
                fixed_score.value
            );
        }
        assert!(best.state.is_overlap_free() && best.state.is_connected());
        assert_eq!(best.state.len(), 19);
    }

    #[test]
    fn growing_restarts_keeps_existing_candidates() {
        let small = tiny_config(13);
        let mut large = tiny_config(13);
        large.restarts = small.restarts + 2;
        let a = search(&small).unwrap();
        let b = search(&large).unwrap();
        for candidate in &a.candidates {
            let twin = b
                .candidates
                .iter()
                .find(|c| c.restart == candidate.restart)
                .expect("restart present in the larger search");
            assert_eq!(twin, candidate);
        }
    }

    #[test]
    fn too_few_chiplets_rejected() {
        assert!(matches!(
            search(&SearchConfig::quick(1)),
            Err(ArrangeError::TooFewChiplets(1))
        ));
    }
}
