//! The preset study registry: every experiment this repository ships,
//! as a named [`StudySpec`].
//!
//! `study --preset <name>` resolves here and runs the spec through
//! [`xp::flow::run_study`]; the golden tests build the same presets
//! through the library and pin their CSV byte for byte.

use chiplet_workload::WorkloadKind;
use hexamesh::arrangement::ArrangementKind;
use nocsim::RouterModelKind;
use xp::spec::{StageKind, StudySpec};

/// Every preset name, in documentation order.
pub const PRESET_NAMES: [&str; 13] = [
    "fig7_simulation",
    "load_curves",
    "ablation_traffic",
    "ablation_router",
    "workload_comparison",
    "kite_comparison",
    "arrangement_search",
    "proxies",
    "thermal_comparison",
    "cost_model",
    "resilience",
    "netview",
    "router_fidelity",
];

/// Builds the named preset, or `None` for an unknown name. Axes left
/// unset resolve to the stage defaults at run time (which is where
/// `--quick`-dependent defaults like `workload_comparison`'s chiplet
/// counts live).
#[must_use]
pub fn preset(name: &str) -> Option<StudySpec> {
    let spec = match name {
        "fig7_simulation" => {
            let mut spec = StudySpec::new("fig7_results", StageKind::Saturation);
            spec.saturation.normalized_stem = Some("fig7_normalized".to_owned());
            spec
        }
        "load_curves" => StudySpec::new("load_curves", StageKind::LoadCurve),
        "ablation_traffic" => StudySpec::new("ablation_traffic", StageKind::Traffic),
        "ablation_router" => {
            let mut spec = StudySpec::new("ablation_router", StageKind::Router);
            // The legacy trio at the paper's headline count, across the
            // full router-model matrix (open-loop: no makespan columns).
            spec.axes.kinds = Some(ArrangementKind::EVALUATED.to_vec());
            spec.axes.ns = Some(vec![37]);
            spec
        }
        "workload_comparison" => {
            let mut spec = StudySpec::new("BENCH_workload", StageKind::Workload);
            spec.output.to_repo_root = true;
            spec
        }
        "kite_comparison" => StudySpec::new("kite_comparison", StageKind::Kite),
        "arrangement_search" => {
            let mut spec = StudySpec::new("BENCH_arrange", StageKind::Search);
            spec.output.to_repo_root = true;
            spec
        }
        "proxies" => StudySpec::new("proxies", StageKind::Proxies),
        "thermal_comparison" => StudySpec::new("thermal_comparison", StageKind::Thermal),
        "cost_model" => StudySpec::new("cost_model", StageKind::Cost),
        "resilience" => {
            let mut spec = StudySpec::new("resilience", StageKind::Resilience);
            // Structural analyses have no randomness and the degradation
            // table aggregates replicates internally; one seed is the
            // preset's contract (an explicit `--seeds` still wins).
            spec.replicates = Some(1);
            // The degradation table (`BENCH_resilience`) is a tracked
            // repo-root baseline like `BENCH_workload` / `BENCH_arrange`.
            spec.output.to_repo_root = true;
            spec
        }
        "netview" => {
            let mut spec = StudySpec::new("netview", StageKind::LoadCurve);
            // One load point per family, near the grid's knee, with every
            // observability sink on: windowed timeline, congestion
            // heatmaps, and the engine trace.
            spec.axes.kinds = Some(vec![ArrangementKind::HexaMesh, ArrangementKind::Grid]);
            spec.axes.ns = Some(vec![19]);
            spec.axes.rates = Some(vec![0.30]);
            spec.observe.heatmap = true;
            spec.observe.timeline = true;
            spec.observe.trace = true;
            spec
        }
        "router_fidelity" => {
            let mut spec = StudySpec::new("BENCH_router", StageKind::Router);
            // The fidelity re-ranking record: does the arrangement
            // comparison survive raising router-microarchitecture
            // fidelity? Six models spanning every policy axis (including
            // the adaptive occupancy-aware allocator and bubble escape
            // flow control), ranked by saturation throughput and by
            // stencil / ring-all-reduce makespan. Kinds and chiplet
            // counts resolve to the stage defaults (all four families;
            // n ∈ {37, 91, 169}, CI-sized under `--quick`).
            spec.axes.routers = Some(vec![
                RouterModelKind::Baseline,
                RouterModelKind::LeastLoaded,
                RouterModelKind::OldestFirst,
                RouterModelKind::Bubble,
                RouterModelKind::DeepCrossbar,
                RouterModelKind::Fortified,
            ]);
            spec.axes.workloads =
                Some(vec![WorkloadKind::Stencil, WorkloadKind::RingAllReduce]);
            // A tracked repo-root baseline like `BENCH_workload`.
            spec.output.to_repo_root = true;
            spec
        }
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_preset_builds_and_round_trips() {
        for name in PRESET_NAMES {
            let spec = preset(name).unwrap_or_else(|| panic!("preset {name} missing"));
            let round = StudySpec::from_value(&spec.to_value())
                .unwrap_or_else(|e| panic!("preset {name} does not round-trip: {e}"));
            assert_eq!(round, spec, "preset {name}");
        }
        assert!(preset("fig9").is_none());
    }
}
