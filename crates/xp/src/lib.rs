//! The unified parallel experiment engine behind every figure, sweep, and
//! ablation in this repository.
//!
//! Every `crates/bench/src/bin/*` binary used to hand-roll its own sweep
//! loop, warmup constants, and arg parsing; this crate factors the shared
//! machinery into one code path (see `DESIGN.md` for the full model):
//!
//! * [`grid`] — coordinate-derived seeds: a stage's *cells* (one table
//!   row's coordinates each) expand into `--seeds K` replicate jobs whose
//!   seeds hash the cell's seed words ([`grid::point_coords`]), and
//!   [`Campaign::run_cells`] runs them and hands each cell its replicates.
//! * [`pool`] — a scoped-thread worker pool with large-job-first
//!   scheduling and a progress ticker. Results are returned in job order,
//!   so output is byte-identical for any `--workers` value.
//! * [`seed`] — splitmix64 seed derivation from campaign seed + job
//!   coordinates (never from queue position).
//! * [`stats`] — replicate aggregation: mean / sample std / 95% CI.
//! * [`table`] + [`json`] + [`campaign`] — unified sinks: the CSV tables
//!   the binaries always wrote, plus a JSON campaign file with a run
//!   manifest (config, git describe, wall time).
//! * [`cli`] — the shared flag layer (`--workers`, `--seeds`, `--quick`,
//!   `--full`, `--out`, `--format`, `--seed`) with strict value parsing:
//!   malformed values (and unknown flags) abort instead of silently
//!   running the wrong experiment.
//! * [`spec`] + [`flow`] — the **declarative study API**: a
//!   [`spec::StudySpec`] value (loadable from TOML/JSON through [`toml`] /
//!   [`json`]) names a stage, axes, and overrides; [`flow::run_study`]
//!   runs its cells through the campaign machinery above and writes the
//!   unified sinks. The `study` binary runs every preset and spec file
//!   through this one path.
//! * [`hash`] + [`cache`] + [`serve`] — the **serving layer**: `study
//!   serve` keeps the engine resident and answers JSONL spec requests
//!   from a content-addressed result cache (key = SHA-256 of the
//!   resolved spec + engine version), with in-flight dedup and
//!   warm-start reuse of cached sub-grids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod cli;
pub mod flow;
pub mod grid;
pub mod hash;
pub mod json;
pub mod pool;
pub mod seed;
pub mod spec;
pub mod stats;
pub mod table;
pub mod toml;

pub mod serve;

pub use campaign::Campaign;
pub use cli::CampaignArgs;
pub use flow::{run_study, StageHooks, StudyError, StudyReport};
pub use serve::{ServeConfig, Served, Server};
pub use spec::{StageKind, StudySpec};
pub use stats::Summary;
