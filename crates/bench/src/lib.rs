//! Shared harness for regenerating every table and figure of the HexaMesh
//! paper.
//!
//! Each `src/bin/*` binary regenerates one or more artefacts (see
//! DESIGN.md's experiment index) and writes CSV series into `results/`:
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `study`             | **any** — runs a declarative [`xp::spec::StudySpec`] file or [`presets`] preset |
//! | `fig4_arrangements` | Fig. 4 neighbour/diameter/bisection panel |
//! | `fig5_shape`        | Fig. 5 / §IV-B shape worked example |
//! | `table1_link_model` | Table I + §VI-B link bandwidth estimates |
//! | `ablation_interposer` | EXP-A5 C4 vs. micro-bump carrier ablation |
//! | `phy_sweep`         | EXP-P1 link reach/derating (§II/§V envelopes) |
//! | `simperf`           | simulator performance tracking (`BENCH_nocsim`) |
//!
//! Every other experiment — Fig. 6, Fig. 7 and each extension study — is
//! a preset of the declarative study flow (`xp::spec` + `xp::flow`), run
//! as `study --preset <name>`; [`presets::PRESET_NAMES`] lists them and
//! DESIGN.md's "Study specs" documents the stages.
//!
//! Performance is tracked by `simperf` and by the benchmark under
//! `perfbench/` (its own workspace, see `BENCHMARK.json`).
//!
//! Every sweep runs on the experiment engine (the `xp` crate): a shared
//! worker pool with large-job-first scheduling, coordinate-derived seeds
//! (rows are identical for any `--workers` value), `--seeds K` replicate
//! aggregation, and unified CSV + JSON sinks. The campaign binaries accept
//! the shared flags `--workers`, `--seeds`, `--quick`/`--full`, `--out`,
//! `--format csv|json|both`, and `--seed`; unknown flags abort.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presets;

/// Directory (relative to the workspace root / current dir) where binaries
/// write their CSV output.
pub const RESULTS_DIR: &str = "results";
