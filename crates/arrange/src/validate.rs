//! Stage-3 validation of search candidates: cycle-accurate saturation
//! throughput (nocsim) and closed-loop workload makespan
//! (`chiplet_workload`) on the candidate's ICI graph.
//!
//! The graph proxies of [`crate::objective`] steer the annealer; this
//! module is what confirms a discovered arrangement actually carries
//! traffic better. Both measurements are deterministic functions of
//! `(graph, config)`, so validation preserves the search's bit-identical
//! reproducibility.

use chiplet_graph::Graph;
use chiplet_workload::{WorkloadDriver, WorkloadKind, WorkloadStats};
use nocsim::measure::{saturation_search, SaturationResult};
use nocsim::{MeasureConfig, SimConfig};

use crate::ArrangeError;

/// Configuration of the validation stage.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive] // construct via Default and mutate
pub struct ValidateConfig {
    /// Simulator configuration (seed included).
    pub sim: SimConfig,
    /// Measurement schedule of the saturation search.
    pub measure: MeasureConfig,
    /// Closed-loop workload whose makespan is measured.
    pub workload: WorkloadKind,
    /// Cycle budget for the workload run (far above any sane makespan).
    pub max_cycles: u64,
}

impl Default for ValidateConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::paper_defaults(),
            measure: MeasureConfig::quick(),
            workload: WorkloadKind::Stencil,
            max_cycles: 50_000_000,
        }
    }
}

/// Cycle-accurate validation results of one arrangement graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Saturation point from the open-loop rate search.
    pub saturation: SaturationResult,
    /// Full closed-loop workload statistics.
    pub workload: WorkloadStats,
}

/// Validates `graph` under `config`.
///
/// # Errors
///
/// [`ArrangeError::Sim`] if the simulator rejects the topology or
/// configuration; [`ArrangeError::Workload`] if the driver does, or
/// [`ArrangeError::Stalled`] if the workload fails to complete within the
/// cycle budget (a suspected deadlock).
pub fn validate_graph(
    graph: &Graph,
    config: &ValidateConfig,
) -> Result<ValidationReport, ArrangeError> {
    let saturation = saturation_search(graph, &config.sim, &config.measure)?;
    let endpoints = graph.num_vertices() * config.sim.endpoints_per_router;
    let workload = config.workload.build(endpoints);
    let sim = SimConfig { injection_rate: 0.0, ..config.sim };
    let mut driver = WorkloadDriver::new(graph, sim, &workload)?;
    let stats = driver.run(config.max_cycles);
    if !stats.completed {
        return Err(ArrangeError::Stalled {
            delivered: stats.delivered_messages,
            total: workload.len() as u64,
        });
    }
    Ok(ValidationReport { saturation, workload: stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SearchState;

    fn quick_config() -> ValidateConfig {
        let mut c = ValidateConfig::default();
        c.sim.vcs = 4;
        c.sim.buffer_depth = 4;
        c.measure.warmup_cycles = 500;
        c.measure.measure_cycles = 1_000;
        c.measure.rate_resolution = 0.1;
        c
    }

    #[test]
    fn validation_runs_on_a_small_state() {
        let state = SearchState::aligned_grid(9).unwrap();
        let report = validate_graph(&state.graph(), &quick_config()).unwrap();
        assert!(report.saturation.rate > 0.0);
        assert!(report.workload.completed);
        assert!(report.workload.makespan >= report.workload.critical_path_cycles);
    }

    #[test]
    fn validation_is_deterministic() {
        let state = SearchState::aligned_grid(6).unwrap();
        let config = quick_config();
        let a = validate_graph(&state.graph(), &config).unwrap();
        let b = validate_graph(&state.graph(), &config).unwrap();
        assert_eq!(a, b);
    }
}
