//! Shared harness for regenerating every table and figure of the HexaMesh
//! paper.
//!
//! Each `src/bin/*` binary regenerates one artefact (see DESIGN.md's
//! experiment index) and writes CSV series into `results/`:
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `study`             | **any** — runs a declarative [`xp::spec::StudySpec`] file or [`presets`] preset |
//! | `fig4_arrangements` | Fig. 4 neighbour/diameter/bisection panel |
//! | `fig5_shape`        | Fig. 5 / §IV-B shape worked example |
//! | `fig6_proxies`      | Fig. 6a diameter, Fig. 6b bisection |
//! | `table1_link_model` | Table I + §VI-B link bandwidth estimates |
//! | `fig7_simulation`   | Fig. 7a–d latency/throughput (cycle-accurate) |
//! | `ablation_router`   | EXP-A2 router-model sensitivity of the ranking |
//! | `ablation_traffic`  | EXP-A3 traffic-pattern sensitivity of the ranking |
//! | `ablation_interposer` | EXP-A5 C4 vs. micro-bump carrier ablation |
//! | `load_curves`       | EXP-LC latency-vs-load curves behind Fig. 7 |
//! | `phy_sweep`         | EXP-P1 link reach/derating (§II/§V envelopes) |
//! | `kite_comparison`   | EXP-K1 HexaMesh vs. Kite-style topologies (§VII) |
//! | `thermal_comparison`| EXP-TH1 arrangement thermal comparison (§II/\[16\]) |
//! | `cost_model`        | EXP-C1 monolithic vs. 2.5D cost (§I/\[17\]) |
//! | `resilience`        | EXP-R1 bridges/connectivity fault tolerance (§IV-C) |
//! | `workload_comparison` | EXP-W1 closed-loop application ranking (makespan) |
//! | `arrangement_search`  | EXP-AS1 optimized vs. fixed arrangements |
//! | `router_fidelity`     | ranking under every router model (`BENCH_router`) |
//! | `netview`             | one load point with every observability sink on |
//! | `simperf`             | simulator performance tracking (`BENCH_nocsim`) |
//! | `calibrate`           | BookSim2 cross-check of the simulator |
//!
//! The `benches/` directory holds Criterion benchmarks exercising reduced
//! versions of the same code paths for performance regression tracking.
//!
//! Every sweep runs on the experiment engine (the `xp` crate): a shared
//! worker pool with large-job-first scheduling, coordinate-derived seeds
//! (rows are identical for any `--workers` value), `--seeds K` replicate
//! aggregation, and unified CSV + JSON sinks. The campaign binaries accept
//! the shared flags `--workers`, `--seeds`, `--quick`/`--full`, `--out`,
//! `--format csv|json|both`, and `--seed`; unknown flags abort. The twelve
//! preset-backed binaries (`fig7_simulation`, `load_curves`,
//! `ablation_traffic`, `ablation_router`, `workload_comparison`,
//! `kite_comparison`, `arrangement_search`, `thermal_comparison`,
//! `cost_model`, `resilience`, `netview`, `router_fidelity`) are thin
//! wrappers over the declarative study flow (`xp::spec` + `xp::flow`,
//! presets in [`presets`]); see DESIGN.md's "Study specs".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod presets;
pub mod sweep;

/// Directory (relative to the workspace root / current dir) where binaries
/// write their CSV output.
pub const RESULTS_DIR: &str = "results";
