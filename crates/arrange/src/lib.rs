//! Arrangement search: optimizing chiplet placements beyond HexaMesh.
//!
//! The HexaMesh paper hand-designs one arrangement family and shows it
//! beats the grid and brickwall; follow-up work (PlaceIT, Floorplet) shows
//! that *searching* placement-based topologies finds arrangements that
//! beat fixed patterns. This crate is that search for the reproduction: a
//! deterministic, seedable optimizer over rectangle placements from
//! `chiplet_layout`, discovering custom arrangements for any chiplet
//! count.
//!
//! The pipeline:
//!
//! * [`state`] — the mutable placement (identical 4×2 tiles on the brick
//!   lattice) with **swap / rotate / relocate** moves, each validated to
//!   preserve overlap-freedom and adjacency-graph connectivity before it
//!   takes effect;
//! * [`objective`] — the staged proxy objective: average distance +
//!   diameter every annealing step, the bisection-cut term (via the
//!   balanced partitioner) when candidates are archived;
//! * [`mod@anneal`] — simulated annealing with a zero-temperature greedy tail,
//!   a pure function of `(state, config, seed)`;
//! * [`mod@search`] — restart-parallel orchestration on the `xp` worker pool:
//!   three restarts seeded from the fixed arrangements (HexaMesh,
//!   brickwall, aligned grid) — so the winner provably scores no worse
//!   than the best fixed placement — plus random accretions, with
//!   coordinate-derived per-restart seeds so results are bit-identical
//!   for any `--workers` value;
//! * [`validate`] — cycle-accurate confirmation of top candidates: nocsim
//!   saturation throughput and closed-loop workload makespan.
//!
//! The `arrangement_search` study preset (`study --preset
//! arrangement_search` in `hexamesh-bench`) drives this crate to rank
//! {optimized, HexaMesh, brickwall, honeycomb, grid} and writes the
//! tracked `BENCH_arrange.{csv,json}` baselines.
//!
//! # Example
//!
//! ```
//! use chiplet_arrange::{search, SearchConfig};
//!
//! let mut config = SearchConfig::quick(7);
//! config.restarts = 3;
//! config.anneal.iterations = 60;
//! config.anneal.greedy_iterations = 20;
//! let outcome = search(&config)?;
//! let best = outcome.best();
//! assert_eq!(best.state.len(), 7);
//! assert!(best.state.is_overlap_free() && best.state.is_connected());
//! # Ok::<(), chiplet_arrange::ArrangeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod anneal;
pub mod objective;
pub mod search;
pub mod state;
pub mod study;
pub mod validate;

pub use anneal::{anneal, AnnealConfig, AnnealOutcome, AnnealStats};
pub use objective::{cheap_score, full_score, ProxyScore, ProxyWeights};
pub use search::{search, Candidate, InitKind, SearchConfig, SearchOutcome};
pub use state::{Move, SearchState, STEP, TILE_H, TILE_W};
pub use validate::{validate_graph, ValidateConfig, ValidationReport};

/// Errors of the arrangement search.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrangeError {
    /// The search needs at least two chiplets.
    TooFewChiplets(usize),
    /// A rectangle is not a tile of the search lattice.
    BadTile {
        /// Offending width.
        width: i64,
        /// Offending height.
        height: i64,
    },
    /// Two tiles overlap.
    Overlap,
    /// The adjacency graph is disconnected.
    Disconnected,
    /// A fixed-arrangement seed could not be constructed (unreachable for
    /// `n ≥ 2`; kept so a generator regression is diagnosable).
    SeedUnavailable {
        /// Fixed-arrangement family label.
        kind: &'static str,
        /// Requested chiplet count.
        n: usize,
    },
    /// The validation simulator rejected the topology or configuration.
    Sim(nocsim::SimError),
    /// The validation workload driver rejected its inputs.
    Workload(chiplet_workload::DriverError),
    /// The validation workload did not complete within the cycle budget.
    Stalled {
        /// Messages delivered before the budget ran out.
        delivered: u64,
        /// Messages in the workload.
        total: u64,
    },
}

impl fmt::Display for ArrangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrangeError::TooFewChiplets(n) => {
                write!(f, "arrangement search needs at least 2 chiplets, got {n}")
            }
            ArrangeError::BadTile { width, height } => {
                write!(f, "{width}x{height} is not a {TILE_W}x{TILE_H} search tile")
            }
            ArrangeError::Overlap => write!(f, "tiles overlap"),
            ArrangeError::Disconnected => write!(f, "adjacency graph is disconnected"),
            ArrangeError::SeedUnavailable { kind, n } => {
                write!(f, "no {kind} seed placement for {n} chiplets")
            }
            ArrangeError::Sim(e) => write!(f, "validation simulation: {e}"),
            ArrangeError::Workload(e) => write!(f, "validation workload: {e}"),
            ArrangeError::Stalled { delivered, total } => {
                write!(f, "validation workload stalled at {delivered}/{total} messages")
            }
        }
    }
}

impl std::error::Error for ArrangeError {}

impl From<nocsim::SimError> for ArrangeError {
    fn from(e: nocsim::SimError) -> Self {
        ArrangeError::Sim(e)
    }
}

impl From<chiplet_workload::DriverError> for ArrangeError {
    fn from(e: chiplet_workload::DriverError) -> Self {
        ArrangeError::Workload(e)
    }
}
