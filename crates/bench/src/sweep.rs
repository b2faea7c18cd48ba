//! Sweep runners shared by the figure binaries and Criterion benches —
//! re-exported from the experiment engine.
//!
//! The runners themselves (`evaluation_campaign_over`, `proxy_sweep`,
//! `schedule_for`, `competition_rank`, …) moved into
//! [`xp::flow::sweep`] when the declarative study flow landed: the
//! study stages run the same sweeps from specs, so the code lives below
//! the binaries now. This module keeps the historical
//! `hexamesh_bench::sweep` names working, plus the one helper that is
//! genuinely about binaries: [`default_out_to_repo_root`].

use xp::cli::CampaignArgs;

pub use xp::cli::{arg_f64, arg_flag, arg_u64, arg_usize};
pub use xp::flow::sweep::{
    competition_rank, evaluate_pooled, evaluated_rank, evaluation_campaign_over, proxy_sweep,
    proxy_sweep_over, schedule_for, ProxyPoint,
};
pub use xp::stats::{mean, mean_of, Summary};

/// Applies the baseline-binary convention: when `--out` is absent, write
/// to the repository root — where the tracked `BENCH_*` records live —
/// instead of the `results/` default. Shared by `simperf`,
/// `workload_comparison`, and `arrangement_search` (spec-driven studies
/// express the same through `output.to_repo_root`).
pub fn default_out_to_repo_root(args: &[String], shared: &mut CampaignArgs) {
    if !arg_flag(args, "--out") {
        shared.out = std::path::PathBuf::from(".");
    }
}
